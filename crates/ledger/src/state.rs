//! The blockchain state: a replicated key/value datastore updated by
//! executing transactions.
//!
//! In the micropayment application the state maps account keys to balances.
//! Execution is deterministic, so every replica of a domain that executes the
//! same transactions in the same order reaches the same state (the SMR
//! argument).  Every successful execution returns an [`UndoRecord`] so the
//! optimistic cross-domain protocol can roll back an aborted transaction and
//! its data-dependent successors.

use saguaro_types::genesis::has_prefix;
use saguaro_types::{Genesis, Operation, Result, SaguaroError, SeqNo, StateSnapshot};
use std::borrow::Cow;
use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::ops::Bound;
use std::sync::Arc;

/// One reversible state mutation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UndoRecord {
    /// `(key, previous value)` pairs; `None` means the key did not exist.
    prior: Vec<(String, Option<u64>)>,
}

impl UndoRecord {
    /// An undo record that changes nothing (read-only operations).
    pub fn empty() -> Self {
        Self { prior: Vec::new() }
    }

    /// True if applying this undo record would change nothing.
    pub fn is_empty(&self) -> bool {
        self.prior.is_empty()
    }

    /// Keys touched by the recorded mutation.
    pub fn keys(&self) -> impl Iterator<Item = &str> {
        self.prior.iter().map(|(k, _)| k.as_str())
    }

    /// Chains another undo record after this one.  Reverting the merged
    /// record undoes both mutations (later one first).
    pub fn merge(mut self, later: UndoRecord) -> UndoRecord {
        self.prior.extend(later.prior);
        self
    }
}

/// The key/value blockchain state of one domain: the domain's shared,
/// immutable [`Genesis`] overlaid with the keys execution changed.
///
/// Replicas of one domain share one genesis, so seeding a replica and
/// snapshotting it cost O(changed keys), not O(accounts).  Every read
/// answers for the combined map; the split is invisible to callers.
#[derive(Clone, Debug, Default)]
pub struct BlockchainState {
    genesis: Arc<Genesis>,
    /// Keys whose value differs from `genesis` or that `genesis` lacks.
    changed: BTreeMap<String, u64>,
}

impl PartialEq for BlockchainState {
    fn eq(&self, other: &Self) -> bool {
        // `changed` is canonical for its genesis, so with equal geneses
        // the overlays decide.
        if self.genesis == other.genesis {
            return self.changed == other.changed;
        }
        self.iter().eq(other.iter())
    }
}

impl Eq for BlockchainState {}

impl BlockchainState {
    /// An empty state.
    pub fn new() -> Self {
        Self::default()
    }

    /// A state holding exactly the balances of `genesis`.
    pub fn with_genesis(genesis: Arc<Genesis>) -> Self {
        Self {
            genesis,
            changed: BTreeMap::new(),
        }
    }

    /// The state a snapshot captured.
    pub fn from_snapshot(snapshot: &StateSnapshot) -> Self {
        let mut state = Self::with_genesis(snapshot.genesis.clone());
        state.install_account_state(&snapshot.accounts);
        state
    }

    /// A snapshot of the state at checkpoint `seq`: the shared genesis plus
    /// a copy of the changed keys only.  The mobile tables are left empty.
    pub fn to_snapshot(&self, seq: SeqNo, delivery_hash: Option<u64>) -> StateSnapshot {
        StateSnapshot {
            seq,
            delivery_hash,
            genesis: self.genesis.clone(),
            accounts: self.changed.iter().map(|(k, v)| (k.clone(), *v)).collect(),
            ..StateSnapshot::default()
        }
    }

    /// Number of keys in the state.
    pub fn len(&self) -> usize {
        let added = self
            .changed
            .keys()
            .filter(|k| !self.genesis.contains(k))
            .count();
        self.genesis.len() + added
    }

    /// True if the state holds no keys.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Reads a key.
    pub fn get(&self, key: &str) -> Option<u64> {
        match self.changed.get(key) {
            Some(v) => Some(*v),
            None => self.genesis.get(key),
        }
    }

    /// Reads an account balance, defaulting to zero for unknown accounts.
    pub fn balance(&self, account: &str) -> u64 {
        self.get(account).unwrap_or(0)
    }

    /// Directly sets a key (used to seed initial balances and to install
    /// state snapshots received through the mobile consensus protocol).
    pub fn put(&mut self, key: impl Into<String>, value: u64) {
        let key = key.into();
        if self.genesis.get(&key) == Some(value) {
            self.changed.remove(&key);
        } else {
            self.changed.insert(key, value);
        }
    }

    /// [`Self::put`] for a borrowed key, allocating only for a key not yet
    /// changed.
    fn set(&mut self, key: &str, value: u64) {
        if self.genesis.get(key) == Some(value) {
            self.changed.remove(key);
        } else if let Some(slot) = self.changed.get_mut(key) {
            *slot = value;
        } else {
            self.changed.insert(key.to_string(), value);
        }
    }

    fn remove(&mut self, key: &str) {
        self.changed.remove(key);
        if self.genesis.contains(key) {
            // Only an undo record taken on another state can remove a
            // genesis key; fold the genesis into the overlay to drop it.
            self.changed = self.iter().map(|(k, v)| (k.into_owned(), v)).collect();
            self.genesis = Arc::default();
            self.changed.remove(key);
        }
    }

    /// Iterates over all `(key, value)` pairs in key order.  Genesis keys
    /// are spelled out up front, so this is for audits and tests.
    pub fn iter(&self) -> impl Iterator<Item = (Cow<'_, str>, u64)> {
        self.with_prefix("")
    }

    /// The `(key, value)` pairs whose key starts with `prefix`, in key
    /// order: genesis's entries merged with the overlay, which wins ties.
    fn with_prefix<'a>(&'a self, prefix: &'a str) -> impl Iterator<Item = (Cow<'a, str>, u64)> {
        let mut base = self
            .genesis
            .entries_with_prefix(prefix)
            .into_iter()
            .peekable();
        let mut overlay = self
            .changed_with_prefix(prefix)
            .map(|(k, v)| (Cow::Borrowed(k.as_str()), *v))
            .peekable();
        std::iter::from_fn(move || {
            let order = match (base.peek(), overlay.peek()) {
                (Some((b, _)), Some((o, _))) => b.as_str().cmp(o),
                (Some(_), None) => Ordering::Less,
                (None, _) => Ordering::Greater,
            };
            if order == Ordering::Equal {
                base.next();
            }
            match order {
                Ordering::Less => base.next().map(|(k, v)| (Cow::Owned(k), v)),
                _ => overlay.next(),
            }
        })
    }

    fn changed_with_prefix<'a>(
        &'a self,
        prefix: &'a str,
    ) -> impl Iterator<Item = (&'a String, &'a u64)> {
        self.changed
            .range::<str, _>((Bound::Included(prefix), Bound::Unbounded))
            .take_while(move |(k, _)| has_prefix(k, prefix))
    }

    /// Sum of the values of all keys with the given prefix (e.g. the total
    /// amount of assets held by accounts of one application).
    pub fn sum_by_prefix(&self, prefix: &str) -> u64 {
        self.changed_with_prefix(prefix)
            .fold(self.genesis.sum_by_prefix(prefix), |sum, (k, v)| {
                self.overlay_delta(sum, k, *v)
            })
    }

    /// `sum` with genesis's value of `key` replaced by `value` (wrapping,
    /// so the result equals the plain sum whenever that fits).
    fn overlay_delta(&self, sum: u64, key: &str, value: u64) -> u64 {
        sum.wrapping_add(value)
            .wrapping_sub(self.genesis.get(key).unwrap_or(0))
    }

    /// Executes an operation, mutating the state.  Returns the undo record on
    /// success; on failure the state is unchanged.
    pub fn execute(&mut self, op: &Operation) -> Result<UndoRecord> {
        match op {
            Operation::Transfer { from, to, amount } => {
                let from_balance = self.balance(from);
                if from_balance < *amount {
                    return Err(SaguaroError::InsufficientBalance {
                        account: from.clone(),
                        balance: from_balance,
                        requested: *amount,
                    });
                }
                let prior = vec![(from.clone(), self.get(from)), (to.clone(), self.get(to))];
                self.set(from, from_balance - amount);
                let to_balance = self.balance(to);
                self.set(to, to_balance + amount);
                Ok(UndoRecord { prior })
            }
            Operation::Mint { account, amount } => {
                let prior = vec![(account.clone(), self.get(account))];
                let balance = self.balance(account);
                self.set(account, balance + amount);
                Ok(UndoRecord { prior })
            }
            Operation::RideTask {
                driver, minutes, ..
            } => {
                let key = format!("hours/{driver}");
                let prior = vec![(key.clone(), self.get(&key))];
                let total = self.get(&key).unwrap_or(0) + minutes;
                self.put(key, total);
                Ok(UndoRecord { prior })
            }
            Operation::Put { key, value } => {
                let prior = vec![(key.clone(), self.get(key))];
                self.set(key, *value);
                Ok(UndoRecord { prior })
            }
            Operation::Get { key } => {
                if self.get(key).is_some() {
                    Ok(UndoRecord::empty())
                } else {
                    Err(SaguaroError::UnknownAccount(key.clone()))
                }
            }
            Operation::Noop => Ok(UndoRecord::empty()),
        }
    }

    /// Debits `amount` from `account`, failing (without mutation) if the
    /// balance is insufficient.  Used by the cross-domain execution path
    /// where each involved domain applies only the side of a transfer it
    /// owns.
    pub fn debit(&mut self, account: &str, amount: u64) -> Result<UndoRecord> {
        let balance = self.balance(account);
        if balance < amount {
            return Err(SaguaroError::InsufficientBalance {
                account: account.to_string(),
                balance,
                requested: amount,
            });
        }
        let prior = vec![(account.to_string(), self.get(account))];
        self.set(account, balance - amount);
        Ok(UndoRecord { prior })
    }

    /// Credits `amount` to `account` (creating it if necessary).
    pub fn credit(&mut self, account: &str, amount: u64) -> UndoRecord {
        let prior = vec![(account.to_string(), self.get(account))];
        let balance = self.balance(account);
        self.set(account, balance + amount);
        UndoRecord { prior }
    }

    /// Reverts a previously returned undo record (rollback of an aborted
    /// optimistic transaction).  Undo records must be reverted in reverse
    /// order of application for correctness.
    pub fn revert(&mut self, undo: &UndoRecord) {
        for (key, prior) in undo.prior.iter().rev() {
            match prior {
                Some(v) => self.set(key, *v),
                None => self.remove(key),
            }
        }
    }

    /// Total of all values (conservation checks in tests: transfers preserve
    /// the total supply).
    pub fn total_supply(&self) -> u64 {
        self.changed
            .iter()
            .fold(self.genesis.total(), |sum, (k, v)| {
                self.overlay_delta(sum, k, *v)
            })
    }

    /// Extracts the sub-state relevant to one account — the "state of the
    /// mobile node" shipped to a remote domain by the mobile consensus
    /// protocol (Algorithm 2's `GenerateState`): the account itself and
    /// every key under `hours/{account}`, in key order.
    pub fn extract_account_state(&self, account: &str) -> Vec<(String, u64)> {
        let hours = format!("hours/{account}");
        let mut out: Vec<(String, u64)> = self
            .with_prefix(&hours)
            .map(|(k, v)| (k.into_owned(), v))
            .collect();
        if let Some(v) = self.get(account) {
            let at = out.partition_point(|(k, _)| k.as_str() < account);
            out.insert(at, (account.to_string(), v));
        }
        out
    }

    /// Installs a sub-state received from another domain (mobile consensus).
    pub fn install_account_state(&mut self, entries: &[(String, u64)]) {
        for (k, v) in entries {
            self.set(k, *v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn transfer(from: &str, to: &str, amount: u64) -> Operation {
        Operation::Transfer {
            from: from.into(),
            to: to.into(),
            amount,
        }
    }

    #[test]
    fn mint_and_transfer_update_balances() {
        let mut s = BlockchainState::new();
        s.execute(&Operation::Mint {
            account: "alice".into(),
            amount: 100,
        })
        .unwrap();
        s.execute(&transfer("alice", "bob", 30)).unwrap();
        assert_eq!(s.balance("alice"), 70);
        assert_eq!(s.balance("bob"), 30);
        assert_eq!(s.total_supply(), 100);
    }

    #[test]
    fn insufficient_balance_fails_and_leaves_state_untouched() {
        let mut s = BlockchainState::new();
        s.put("alice", 10);
        let before = s.clone();
        let err = s.execute(&transfer("alice", "bob", 25)).unwrap_err();
        assert!(matches!(err, SaguaroError::InsufficientBalance { .. }));
        assert_eq!(s, before);
    }

    #[test]
    fn revert_restores_previous_values() {
        let mut s = BlockchainState::new();
        s.put("alice", 50);
        let undo = s.execute(&transfer("alice", "bob", 20)).unwrap();
        assert_eq!(s.balance("bob"), 20);
        s.revert(&undo);
        assert_eq!(s.balance("alice"), 50);
        assert_eq!(s.get("bob"), None, "bob did not exist before");
    }

    #[test]
    fn revert_chain_in_reverse_order_restores_everything() {
        let mut s = BlockchainState::new();
        s.put("a", 100);
        let u1 = s.execute(&transfer("a", "b", 10)).unwrap();
        let u2 = s.execute(&transfer("b", "c", 5)).unwrap();
        let u3 = s.execute(&transfer("a", "c", 1)).unwrap();
        for u in [u3, u2, u1].iter() {
            s.revert(u);
        }
        assert_eq!(s.balance("a"), 100);
        assert_eq!(s.get("b"), None);
        assert_eq!(s.get("c"), None);
    }

    #[test]
    fn ride_tasks_accumulate_working_hours() {
        let mut s = BlockchainState::new();
        for minutes in [30, 45, 25] {
            s.execute(&Operation::RideTask {
                driver: "driver-1".into(),
                minutes,
                fare: 10,
            })
            .unwrap();
        }
        assert_eq!(s.get("hours/driver-1"), Some(100));
    }

    #[test]
    fn put_and_get_and_unknown_key() {
        let mut s = BlockchainState::new();
        s.execute(&Operation::Put {
            key: "slice/qos".into(),
            value: 7,
        })
        .unwrap();
        assert!(s
            .execute(&Operation::Get {
                key: "slice/qos".into()
            })
            .is_ok());
        assert!(matches!(
            s.execute(&Operation::Get {
                key: "missing".into()
            }),
            Err(SaguaroError::UnknownAccount(_))
        ));
        assert!(s.execute(&Operation::Noop).unwrap().is_empty());
    }

    #[test]
    fn sum_by_prefix_aggregates() {
        let mut s = BlockchainState::new();
        s.put("acct/1", 10);
        s.put("acct/2", 20);
        s.put("other", 99);
        assert_eq!(s.sum_by_prefix("acct/"), 30);
        assert_eq!(s.sum_by_prefix("zzz"), 0);
    }

    #[test]
    fn extract_and_install_account_state() {
        let mut s = BlockchainState::new();
        s.put("driver-7", 42);
        s.put("hours/driver-7", 120);
        s.put("unrelated", 5);
        let extracted = s.extract_account_state("driver-7");
        assert_eq!(extracted.len(), 2);

        let mut remote = BlockchainState::new();
        remote.install_account_state(&extracted);
        assert_eq!(remote.balance("driver-7"), 42);
        assert_eq!(remote.get("hours/driver-7"), Some(120));
        assert_eq!(remote.get("unrelated"), None);
    }

    #[test]
    fn debit_credit_and_merge_round_trip() {
        let mut s = BlockchainState::new();
        s.put("a", 50);
        let u1 = s.debit("a", 20).unwrap();
        let u2 = s.credit("b", 20);
        assert_eq!(s.balance("a"), 30);
        assert_eq!(s.balance("b"), 20);
        assert!(s.debit("a", 1000).is_err());
        let merged = u1.merge(u2);
        s.revert(&merged);
        assert_eq!(s.balance("a"), 50);
        assert_eq!(s.get("b"), None);
    }

    #[test]
    fn transfers_conserve_total_supply() {
        let mut s = BlockchainState::new();
        s.put("a", 100);
        s.put("b", 100);
        for i in 0..50u64 {
            let (from, to) = if i % 2 == 0 { ("a", "b") } else { ("b", "a") };
            let _ = s.execute(&transfer(from, to, i % 7));
        }
        assert_eq!(s.total_supply(), 200);
    }

    fn seeded() -> BlockchainState {
        let seeds: Vec<(String, u64)> = (0..100).map(|n| (format!("a0_{n}"), 10)).collect();
        BlockchainState::with_genesis(Arc::new(Genesis::from_seeds(&seeds)))
    }

    #[test]
    fn genesis_backed_state_records_and_snapshots_only_changes() {
        let mut s = seeded();
        assert_eq!((s.len(), s.total_supply()), (100, 1_000));
        assert!(s.to_snapshot(4, None).accounts.is_empty());
        s.execute(&transfer("a0_1", "b", 4)).unwrap();
        s.credit("a0_2", 0);
        let undo = s.execute(&transfer("a0_3", "a0_1", 4)).unwrap();
        let snapshot = s.to_snapshot(4, Some(9));
        // a0_1 is back at its genesis balance; a0_3 and b changed.
        assert_eq!(
            snapshot.accounts,
            vec![("a0_3".to_string(), 6), ("b".to_string(), 4)]
        );
        assert_eq!(snapshot.wire_bytes(), 96 + 24 * 101);
        assert_eq!(BlockchainState::from_snapshot(&snapshot), s);
        s.revert(&undo);
        assert_eq!(s.balance("a0_1"), 6);
        assert_eq!(s.sum_by_prefix("a0_"), 996);
        assert_eq!(s.len(), 101);
    }

    #[test]
    fn foreign_undo_record_can_remove_a_genesis_key() {
        let mut empty = BlockchainState::new();
        let undo = empty.credit("a0_5", 3);
        let mut s = seeded();
        s.revert(&undo);
        assert_eq!(s.get("a0_5"), None);
        assert_eq!((s.len(), s.total_supply()), (99, 990));
    }

    #[test]
    fn iter_is_key_ordered() {
        let mut s = BlockchainState::new();
        s.put("b", 2);
        s.put("a", 1);
        let keys: Vec<_> = s.iter().map(|(k, _)| k.to_string()).collect();
        assert_eq!(keys, vec!["a", "b"]);
        assert_eq!(s.len(), 2);
        assert!(!s.is_empty());
    }
}
