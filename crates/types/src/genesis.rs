//! The seeded balances of one height-1 domain, shared by all its replicas.
//!
//! Every replica of an edge domain starts from the same seed list — for
//! the micropayment application, thousands of `a{d}_{n}` accounts with one
//! initial balance.  [`Genesis`] stores that list once, run-length encoded
//! over consecutive account numbers, behind an `Arc` that every replica and
//! every snapshot of the domain shares; a replica's state then only records
//! the balances that differ from it.

use crate::transaction::{account_key, canonical_decimal, parse_account_key};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::ops::Bound;

/// `key.starts_with(prefix)`, short-circuiting the empty prefix: with a
/// runtime empty needle `starts_with` measured about 100 ns a call, which
/// made whole-map scans 50× slower than the scan itself.
pub fn has_prefix(key: &str, prefix: &str) -> bool {
    prefix.is_empty() || key.starts_with(prefix)
}

/// The accounts `a{domain}_{n}` for `n` in `start..end`, all holding
/// `balance`.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
struct Run {
    domain: u16,
    start: u64,
    end: u64,
    balance: u64,
}

impl Run {
    fn len(&self) -> u64 {
        self.end - self.start
    }

    fn contains(&self, domain: u16, n: u64) -> bool {
        self.domain == domain && (self.start..self.end).contains(&n)
    }

    /// Number of the run's keys that start with `prefix`.
    fn count_with_prefix(&self, prefix: &str) -> u64 {
        let head = account_key(self.domain, 0);
        let head = &head[..head.len() - 1];
        if head.starts_with(prefix) {
            return self.len();
        }
        let Some(digits) = prefix.strip_prefix(head) else {
            return 0;
        };
        // The numbers spelled `digits` followed by k more digits form the
        // range [p·10^k, (p+1)·10^k); "0" spells only zero.
        let Some(p) = canonical_decimal(digits) else {
            return 0;
        };
        if p == 0 {
            return u64::from(self.start == 0);
        }
        let (mut lo, mut hi) = (p, p.saturating_add(1));
        let mut count = 0;
        while lo < self.end {
            count += hi.min(self.end).saturating_sub(lo.max(self.start));
            let Some(next) = lo.checked_mul(10) else {
                break;
            };
            lo = next;
            hi = hi.saturating_mul(10);
        }
        count
    }
}

/// Immutable seeded balances of one domain: runs of consecutive canonical
/// account keys ([`account_key`]) sharing a balance, plus a small sorted map
/// of every other key.  The two parts never hold the same key.
#[derive(Clone, PartialEq, Eq, Debug, Default, Serialize, Deserialize)]
pub struct Genesis {
    /// Sorted by `(domain, start)`, pairwise disjoint.
    runs: Vec<Run>,
    /// Non-canonical keys and canonical keys that fit no run.
    others: BTreeMap<String, u64>,
    len: usize,
    total: u64,
}

impl Genesis {
    /// Builds the genesis of a seed list.  A key listed twice keeps its
    /// later balance, as if the list were applied in order.
    pub fn from_seeds<'a>(seeds: impl IntoIterator<Item = &'a (String, u64)>) -> Self {
        // (domain, start) -> (end, balance)
        let mut runs: BTreeMap<(u16, u64), (u64, u64)> = BTreeMap::new();
        let mut others = BTreeMap::new();
        for (key, balance) in seeds {
            let balance = *balance;
            // A run's end is exclusive, so account u64::MAX fits in none.
            let parsed = parse_account_key(key).filter(|&(_, n)| n < u64::MAX);
            let Some((domain, n)) = parsed else {
                others.insert(key.clone(), balance);
                continue;
            };
            let below = runs
                .range(..=(domain, n))
                .next_back()
                .map(|(&(d, start), &(end, b))| (d, start, end, b));
            match below {
                Some((d, start, end, b)) if d == domain && n < end => {
                    if b != balance {
                        // A later balance breaks the run: split it around n.
                        runs.remove(&(d, start));
                        if start < n {
                            runs.insert((d, start), (n, b));
                        }
                        if n + 1 < end {
                            runs.insert((d, n + 1), (end, b));
                        }
                        others.insert(key.clone(), balance);
                    }
                }
                _ if others.contains_key(key.as_str()) => {
                    others.insert(key.clone(), balance);
                }
                Some((d, start, end, b)) if d == domain && n == end && b == balance => {
                    runs.insert((d, start), (end + 1, b));
                }
                _ => {
                    runs.insert((domain, n), (n + 1, balance));
                }
            }
        }
        let runs: Vec<Run> = runs
            .into_iter()
            .map(|((domain, start), (end, balance))| Run {
                domain,
                start,
                end,
                balance,
            })
            .collect();
        let len = runs.iter().map(|r| r.len() as usize).sum::<usize>() + others.len();
        let total = runs
            .iter()
            .map(|r| r.len().wrapping_mul(r.balance))
            .chain(others.values().copied())
            .fold(0u64, u64::wrapping_add);
        Self {
            runs,
            others,
            len,
            total,
        }
    }

    /// Number of keys.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the genesis holds no keys.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of runs the canonical keys were encoded into.
    pub fn run_count(&self) -> usize {
        self.runs.len()
    }

    /// The seeded balance of `key`.
    pub fn get(&self, key: &str) -> Option<u64> {
        if let Some(v) = self.others.get(key) {
            return Some(*v);
        }
        if self.runs.is_empty() {
            return None;
        }
        let (domain, n) = parse_account_key(key)?;
        let i = self
            .runs
            .partition_point(|r| (r.domain, r.start) <= (domain, n));
        let run = self.runs[..i].last()?;
        run.contains(domain, n).then_some(run.balance)
    }

    /// True if `key` is seeded.
    pub fn contains(&self, key: &str) -> bool {
        self.get(key).is_some()
    }

    /// Sum of all balances (wrapping, like the per-key sum it equals).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Sum of the balances of every key starting with `prefix`, without
    /// enumerating the runs' keys.
    pub fn sum_by_prefix(&self, prefix: &str) -> u64 {
        self.runs
            .iter()
            .map(|r| r.count_with_prefix(prefix).wrapping_mul(r.balance))
            .chain(self.others_with_prefix(prefix).map(|(_, v)| *v))
            .fold(0, u64::wrapping_add)
    }

    /// Every `(key, balance)` whose key starts with `prefix`, in key order.
    /// Spells out every key of each run that holds a match, so it is meant
    /// for audits and tests, not for the execution path.
    pub fn entries_with_prefix(&self, prefix: &str) -> Vec<(String, u64)> {
        let mut out: Vec<(String, u64)> = self
            .others_with_prefix(prefix)
            .map(|(k, v)| (k.clone(), *v))
            .collect();
        for run in &self.runs {
            if run.count_with_prefix(prefix) > 0 {
                out.extend(
                    (run.start..run.end)
                        .map(|n| account_key(run.domain, n))
                        .filter(|k| has_prefix(k, prefix))
                        .map(|k| (k, run.balance)),
                );
            }
        }
        out.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        out
    }

    fn others_with_prefix<'a>(
        &'a self,
        prefix: &'a str,
    ) -> impl Iterator<Item = (&'a String, &'a u64)> + 'a {
        self.others
            .range::<str, _>((Bound::Included(prefix), Bound::Unbounded))
            .take_while(move |(k, _)| has_prefix(k, prefix))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seeds(entries: &[(&str, u64)]) -> Vec<(String, u64)> {
        entries.iter().map(|(k, v)| (k.to_string(), *v)).collect()
    }

    /// The seed list applied key by key to a plain map, as the reference.
    fn applied(list: &[(String, u64)]) -> BTreeMap<String, u64> {
        list.iter().cloned().collect()
    }

    fn assert_matches(list: &[(String, u64)]) {
        let g = Genesis::from_seeds(list);
        let reference = applied(list);
        assert_eq!(g.len(), reference.len());
        assert_eq!(g.total(), reference.values().sum::<u64>());
        let entries: Vec<(String, u64)> = reference.clone().into_iter().collect();
        assert_eq!(g.entries_with_prefix(""), entries);
        for (k, v) in &reference {
            assert_eq!(g.get(k), Some(*v), "{k}");
        }
        for prefix in [
            "", "a", "a1", "a1_", "a1_1", "a1_10", "a1_0", "a10_", "h", "zz",
        ] {
            let want: Vec<_> = entries
                .iter()
                .filter(|(k, _)| k.starts_with(prefix))
                .cloned()
                .collect();
            assert_eq!(g.entries_with_prefix(prefix), want, "{prefix}");
            let sum: u64 = want.iter().map(|(_, v)| v).sum();
            assert_eq!(g.sum_by_prefix(prefix), sum, "{prefix}");
        }
    }

    #[test]
    fn uniform_accounts_are_one_run() {
        let list: Vec<_> = (0..10_000).map(|n| (account_key(7, n), 1_000)).collect();
        let g = Genesis::from_seeds(&list);
        assert_eq!(g.run_count(), 1);
        assert_eq!(g.len(), 10_000);
        assert_eq!(g.total(), 10_000_000);
        assert_eq!(g.get("a7_9999"), Some(1_000));
        assert_eq!(g.get("a7_10000"), None);
        assert_eq!(g.get("a7_09"), None);
        assert_eq!(g.sum_by_prefix("a7_1"), 1_111 * 1_000);
        assert_matches(&list);
    }

    #[test]
    fn later_entries_win_and_break_runs() {
        let mut list: Vec<_> = (0..30).map(|n| (account_key(1, n), 5)).collect();
        list.push((account_key(1, 12), 9));
        list.push((account_key(1, 3), 5));
        list.push((account_key(1, 12), 8));
        list.push((account_key(1, 0), 1));
        list.push((account_key(1, 29), 2));
        let g = Genesis::from_seeds(&list);
        assert_eq!(g.get("a1_12"), Some(8));
        assert_eq!(g.get("a1_3"), Some(5));
        assert_eq!(g.run_count(), 2);
        assert_matches(&list);
    }

    #[test]
    fn mixed_domains_and_foreign_keys() {
        let mut list = seeds(&[
            ("hours/driver-1", 60),
            ("a1_01", 3),
            ("a2_5", 7),
            ("a2_7", 7),
            ("a2_6", 7),
            ("a10_0", 1),
            ("a1_18446744073709551615", 4),
        ]);
        list.extend((0..120).map(|n| (account_key(1, n), 2)));
        list.extend((40..60).map(|n| (account_key(2, n), 3)));
        assert_matches(&list);
        assert_matches(&[]);
        assert!(Genesis::from_seeds(&[]).is_empty());
    }
}
