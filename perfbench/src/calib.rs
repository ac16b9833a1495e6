//! Host-speed reference.
//!
//! The benchmark shares a few cores of a host with other tenants, and their
//! load makes the same code run up to half again slower from one minute to
//! the next.  The slowdown shows in thread CPU time as well as wall time, so
//! it comes from contention for the core, caches and memory rather than from
//! descheduling.  To report numbers
//! that compare across runs, every host time is taken next to a pass of a
//! fixed reference kernel and rescaled to what it would have been had the
//! pass taken [`NOMINAL_S`]:
//!
//! ```text
//! reported = measured CPU time × NOMINAL_S / adjacent reference pass
//! ```
//!
//! The kernel is plain `std` code that does not touch the library, so a change
//! to the program moves the measured time and not the reference.  It does the
//! kinds of work the simulator does: an event heap, hash-map and B-tree
//! updates with small allocations, page faults and random reads and writes
//! over a table larger than a core's share of the caches, and building and
//! dropping many small objects.

use crate::stats::thread_cpu_s;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, HashMap};
use std::hint::black_box;

/// Thread CPU seconds of one [`reference_pass`] on a quiet host (about its
/// median on an idle 2-vCPU Intel Xeon virtual machine).  Reported times are
/// in seconds of that host.
pub const NOMINAL_S: f64 = 0.06;

/// Factor that rescales a thread CPU time measured next to this call to the
/// reference host: [`NOMINAL_S`] over one reference pass.
pub fn scale() -> f64 {
    NOMINAL_S / reference_pass()
}

/// One pass of the reference kernel; returns its thread CPU seconds.
pub fn reference_pass() -> f64 {
    let started = thread_cpu_s();
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut acc = 0u64;

    // Event loop: pop the earliest event, touch the first 8 MiB of a fresh
    // table at random (page faults, then cache misses), replace a small
    // message in a hash map, schedule a successor.  At 32 MiB the table is
    // above glibc's largest mmap threshold, so every pass maps it anew and
    // unmaps it at the end instead of leaving it resident in the heap.
    let mut table = vec![0u64; 1 << 22];
    let touched = (1 << 20) - 1;
    let mut heap: BinaryHeap<Reverse<(u64, u32)>> =
        (0..4096u32).map(|i| Reverse((u64::from(i), i))).collect();
    let mut state: HashMap<u64, Vec<u8>> = HashMap::new();
    for _ in 0..60_000 {
        let Reverse((t, id)) = heap.pop().expect("the heap never empties");
        let r = next();
        for k in 0..4 {
            let slot = ((r >> (k * 16)) as usize).wrapping_mul(2_654_435_761) & touched;
            table[slot] = table[slot].wrapping_add(r);
            acc ^= table[slot];
        }
        let msg = vec![(r & 0xff) as u8; 16 + (r >> 40) as usize % 200];
        acc = acc.wrapping_add(msg.iter().map(|&b| u64::from(b)).sum::<u64>());
        if let Some(old) = state.insert(r % 50_000, msg) {
            acc = acc.wrapping_add(old.len() as u64);
        }
        heap.push(Reverse((t + 1 + (r >> 50), id)));
    }

    // Build and drop a pointer-heavy structure.
    let mut map: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
    let mut lists: Vec<Vec<String>> = Vec::new();
    for i in 0..30_000u64 {
        let r = next();
        map.insert(r, vec![i as u8; 24 + (r >> 56) as usize]);
        if i % 60 == 0 {
            lists.push(Vec::new());
        }
        if let Some(list) = lists.last_mut() {
            list.push(format!("{r:x}"));
        }
    }
    black_box((acc, &table, &state, &map, &lists));
    drop((table, heap, state, map, lists));
    thread_cpu_s() - started
}
