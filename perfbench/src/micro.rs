//! Host-time probes of small public layer functions: SHA-256, Merkle
//! construction, `Batch` digests and `BlockchainState` seeding and
//! snapshotting.  Each probe repeats its operation in rounds of a fixed
//! count and reports the median round, so one slow round does not move it,
//! in thread CPU time rescaled to the reference host by a reference pass run
//! just before the probe (see `calib`).

use crate::calib;
use crate::stats::{median, thread_cpu_s};
use saguaro::consensus::{Batch, Command};
use saguaro::crypto::{sha256, MerkleTree};
use saguaro::ledger::BlockchainState;
use saguaro::types::{DomainId, PopulationConfig, StateSnapshot};
use std::hint::black_box;

/// The probes' results.
#[derive(Clone, Copy, Debug)]
pub struct Micro {
    /// SHA-256 throughput over a 64 KiB buffer, MB/s.
    pub sha256_mb_s: f64,
    /// `MerkleTree::from_leaves` over 64 leaves of 64 bytes, µs.
    pub merkle64_us: f64,
    /// Digest of a 32-command `Batch`, µs.
    pub batch_digest_us: f64,
    /// Seeding a `BlockchainState` with one domain's 10 000 accounts, ms.
    pub seed_10k_ms: f64,
    /// Snapshotting that state into a `StateSnapshot`, ms.
    pub snapshot_10k_ms: f64,
}

/// Median seconds per operation of `op` on the reference host, over `rounds`
/// rounds of `per_round` calls each.
fn time_op(rounds: usize, per_round: usize, mut op: impl FnMut()) -> f64 {
    let scale = calib::scale();
    let samples: Vec<f64> = (0..rounds)
        .map(|_| {
            let started = thread_cpu_s();
            for _ in 0..per_round {
                op();
            }
            (thread_cpu_s() - started) / per_round as f64
        })
        .collect();
    median(&samples) * scale
}

/// Runs every probe; inputs are derived from `seed`.
pub fn measure(seed: u64) -> Micro {
    let buffer: Vec<u8> = (0..64 * 1024u64)
        .map(|i| (i.wrapping_mul(31).wrapping_add(seed) % 251) as u8)
        .collect();
    let sha_s = time_op(15, 20, || {
        black_box(sha256(black_box(&buffer)));
    });

    let leaves: Vec<Vec<u8>> = buffer.chunks(64).take(64).map(<[u8]>::to_vec).collect();
    let merkle_s = time_op(15, 200, || {
        black_box(MerkleTree::from_leaves(black_box(&leaves)).root());
    });

    let batch = Batch::new(buffer.chunks(128).take(32).map(<[u8]>::to_vec).collect());
    let batch_s = time_op(15, 200, || {
        black_box(black_box(&batch).digest());
    });

    let accounts =
        PopulationConfig::default().seed_accounts_for(DomainId::new(1, (seed % 64) as u16));
    let seed_s = time_op(9, 2, || {
        let mut state = BlockchainState::new();
        for (key, balance) in &accounts {
            state.put(key.clone(), *balance);
        }
        black_box(state);
    });

    let mut state = BlockchainState::new();
    for (key, balance) in &accounts {
        state.put(key.clone(), *balance);
    }
    let snapshot_s = time_op(9, 2, || {
        let snapshot = StateSnapshot {
            accounts: state.iter().map(|(k, v)| (k.to_string(), v)).collect(),
            ..StateSnapshot::default()
        };
        black_box(snapshot);
    });

    Micro {
        sha256_mb_s: buffer.len() as f64 / sha_s / 1e6,
        merkle64_us: merkle_s * 1e6,
        batch_digest_us: batch_s * 1e6,
        seed_10k_ms: seed_s * 1e3,
        snapshot_10k_ms: snapshot_s * 1e3,
    }
}
