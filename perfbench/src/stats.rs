//! Small numeric and host helpers.

use saguaro::loadgen::{nearest_rank_index, LatencyHistogram};

/// Median of `values` (mean of the middle pair for an even count; 0 for
/// none).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Median of `f` over `items`.
pub fn median_of<T>(items: &[T], f: impl Fn(&T) -> f64) -> f64 {
    median(&items.iter().map(f).collect::<Vec<_>>())
}

/// The p-quantile of `h` in milliseconds, interpolated linearly within its
/// bucket over the ranks the bucket holds.  `LatencyHistogram::quantile`
/// reports the bucket midpoint, which repeats exactly from seed to seed
/// whenever the quantile stays in one 3 %-wide bucket.
pub fn quantile_ms(h: &LatencyHistogram, p: f64) -> f64 {
    let n = h.count() as usize;
    let mid = h.quantile(p);
    if n < 2 || mid < 32 {
        return mid as f64 / 1e3;
    }
    let at = |rank: usize| h.quantile(rank as f64 / (n - 1) as f64);
    let rank = nearest_rank_index(n, p);
    // `at` is monotone, so the bucket's ranks are one contiguous run.
    let first = partition_point(0, rank, |r| at(r) < mid);
    let last = partition_point(rank, n, |r| at(r) <= mid) - 1;
    // Buckets above 32 µs span [lower, lower + 2^shift), 32 sub-buckets per
    // power of two.
    let shift = 63 - mid.leading_zeros() - 5;
    let lower = (mid >> shift) << shift;
    let within = (rank - first) as f64 + 0.5;
    let value = lower as f64 + (1u64 << shift) as f64 * within / (last - first + 1) as f64;
    value / 1e3
}

/// The first index in `lo..hi` where `pred` fails, for a `pred` that holds on
/// a prefix of the range.
fn partition_point(mut lo: usize, mut hi: usize, pred: impl Fn(usize) -> bool) -> usize {
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if pred(mid) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// Seconds of CPU time the calling thread has used (`CLOCK_THREAD_CPUTIME_ID`;
/// the `timespec` layout is that of 64-bit Linux).
pub fn thread_cpu_s() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec for the call's duration.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 / 1e9
}

/// Resets the process's resident-set high-water mark to its current resident
/// set (`/proc/self/clear_refs`, Linux 4.0 and later).  Where the kernel does
/// not allow it the mark keeps covering the whole process so far.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// The process's resident-set high-water mark in MiB, from
/// `/proc/self/status`.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn interpolated_quantile_stays_in_the_bucket_and_tracks_the_rank() {
        let mut h = LatencyHistogram::new();
        for v in 0..1_000u64 {
            h.record(40_000 + v);
        }
        let mid = h.quantile(0.99) as f64 / 1e3;
        let q = quantile_ms(&h, 0.99);
        assert!(
            (q - mid).abs() <= mid / 32.0,
            "{q} vs bucket midpoint {mid}"
        );
        assert!(quantile_ms(&h, 0.98) < q);
        assert!((quantile_ms(&h, 0.5) - 40.5).abs() < 0.1);
    }
}
