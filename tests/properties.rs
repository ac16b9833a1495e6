//! Cross-crate property-based tests (proptest) on the core invariants.

use proptest::prelude::*;
use saguaro::crypto::{merkle, MerkleTree};
use saguaro::hierarchy::TopologyBuilder;
use saguaro::ledger::{BlockchainState, LinearLedger, StateDelta, TxStatus, UndoRecord};
use saguaro::types::transaction::{account_key, account_owner_index};
use saguaro::types::{ClientId, DomainId, Genesis, Operation, Transaction, TxId};
use saguaro::workload::{MicropaymentWorkload, Workload, WorkloadConfig};
use std::sync::Arc;

/// Seeds shaped like a micropayment domain's: a uniform account range, a
/// client account listed twice, a later balance that breaks the run, a
/// second domain's account and a key outside the account convention.
fn equivalence_seeds() -> Vec<(String, u64)> {
    let mut seeds: Vec<(String, u64)> = (0..20).map(|n| (account_key(0, n), 100)).collect();
    seeds.push((account_key(0, 3), 100));
    seeds.push((account_key(0, 7), 50));
    seeds.push((account_key(1, 2), 5));
    seeds.push(("hours/a0_3".into(), 10));
    seeds
}

/// The keys the random operations touch: genesis accounts, accounts
/// genesis lacks, and `hours/` keys.
fn pool_key(i: u8) -> String {
    match i % 16 {
        i @ 0..=11 => account_key(0, u64::from(i) * 3),
        12 => account_key(1, 2),
        13 => "hours/a0_3".into(),
        14 => "hours/a0_30".into(),
        _ => "x".into(),
    }
}

/// Applies one random step to `state`; `undos` collects its undo records.
fn apply_step(
    state: &mut BlockchainState,
    undos: &mut Vec<UndoRecord>,
    (op, a, b, amount): (u8, u8, u8, u64),
) -> Result<(), String> {
    let (ka, kb) = (pool_key(a), pool_key(b));
    let undo = match op {
        0 => state.execute(&Operation::Transfer {
            from: ka,
            to: kb,
            amount,
        }),
        1 => state.execute(&Operation::Mint {
            account: ka,
            amount,
        }),
        2 => state.execute(&Operation::RideTask {
            driver: if a % 2 == 0 { "a0_3" } else { "a0_30" }.into(),
            minutes: amount,
            fare: 1,
        }),
        3 => state.execute(&Operation::Put {
            key: ka,
            value: amount,
        }),
        4 => state.execute(&Operation::Get { key: ka }),
        5 => state.debit(&ka, amount),
        6 => Ok(state.credit(&ka, amount)),
        7 if !undos.is_empty() => {
            // Out of order on purpose: both representations must agree
            // on any revert sequence, not only the rollback order.
            let undo = undos.remove(usize::from(a) % undos.len());
            state.revert(&undo);
            return Ok(());
        }
        8 => {
            state.install_account_state(&[(ka, amount), (kb, amount / 2)]);
            return Ok(());
        }
        9 => {
            state.put(ka, amount);
            return Ok(());
        }
        10 => {
            *state = BlockchainState::from_snapshot(&state.to_snapshot(1, None));
            return Ok(());
        }
        _ => return Ok(()),
    };
    let undo = undo.map_err(|e| e.to_string())?;
    undos.push(undo);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Transfers can never create or destroy assets, whatever their order and
    /// whether or not they succeed.
    #[test]
    fn transfers_conserve_supply(ops in proptest::collection::vec((0u8..6, 0u8..6, 1u64..50), 1..200)) {
        let mut state = BlockchainState::new();
        for i in 0..6u64 {
            state.put(account_key(0, i), 100);
        }
        let initial = state.total_supply();
        for (from, to, amount) in ops {
            let _ = state.execute(&Operation::Transfer {
                from: account_key(0, from as u64),
                to: account_key(0, to as u64),
                amount,
            });
        }
        prop_assert_eq!(state.total_supply(), initial);
    }

    /// Reverting undo records in reverse order restores the exact prior state.
    #[test]
    fn undo_records_restore_state(ops in proptest::collection::vec((0u8..5, 0u8..5, 1u64..30), 1..60)) {
        let mut state = BlockchainState::new();
        for i in 0..5u64 {
            state.put(account_key(1, i), 500);
        }
        let snapshot = state.clone();
        let mut undos = Vec::new();
        for (from, to, amount) in ops {
            if let Ok(u) = state.execute(&Operation::Transfer {
                from: account_key(1, from as u64),
                to: account_key(1, to as u64),
                amount,
            }) {
                undos.push(u);
            }
        }
        for u in undos.iter().rev() {
            state.revert(u);
        }
        prop_assert_eq!(state, snapshot);
    }

    /// Every Merkle proof of every leaf verifies against the root, and fails
    /// against a different leaf payload.
    #[test]
    fn merkle_proofs_round_trip(leaves in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..40), 1..40)) {
        let tree = MerkleTree::from_leaves(&leaves);
        for (i, leaf) in leaves.iter().enumerate() {
            let proof = tree.prove(i).expect("proof exists");
            prop_assert!(merkle::verify_proof(&tree.root(), leaf, &proof));
            let mut tampered = leaf.clone();
            tampered.push(0xFF);
            prop_assert!(!merkle::verify_proof(&tree.root(), &tampered, &proof));
        }
    }

    /// The LCA of any non-empty set of domains in a perfect k-ary tree is an
    /// ancestor of every involved domain, and is the deepest such domain.
    #[test]
    fn lca_is_the_deepest_common_ancestor(
        fanout in 2usize..4,
        levels in 2u8..4,
        picks in proptest::collection::vec(0usize..64, 1..5),
    ) {
        let tree = TopologyBuilder::new(levels, fanout).build().expect("valid");
        let edges = tree.edge_server_domains();
        let involved: Vec<DomainId> = picks.iter().map(|p| edges[p % edges.len()]).collect();
        let lca = tree.lca(&involved).expect("lca exists");
        for d in &involved {
            prop_assert!(tree.is_ancestor(lca, *d), "lca {lca:?} not ancestor of {d:?}");
        }
        // No child of the LCA is a common ancestor.
        for child in tree.children(lca) {
            let covers_all = involved.iter().all(|d| tree.is_ancestor(*child, *d));
            prop_assert!(!covers_all, "child {child:?} would be a deeper common ancestor");
        }
    }

    /// A linear ledger preserves append order and block cuts partition the
    /// entries exactly.
    #[test]
    fn ledger_blocks_partition_entries(batches in proptest::collection::vec(0usize..20, 1..10)) {
        let domain = DomainId::new(1, 0);
        let mut ledger = LinearLedger::new(domain);
        let mut id = 0u64;
        let mut blocks = Vec::new();
        for batch in &batches {
            for _ in 0..*batch {
                id += 1;
                let tx = Transaction::internal(TxId(id), ClientId(0), domain, Operation::Noop);
                ledger.append_internal(tx, TxStatus::Committed);
            }
            blocks.push(ledger.cut_block(StateDelta::new()));
        }
        let total: usize = batches.iter().sum();
        prop_assert_eq!(ledger.len(), total);
        prop_assert_eq!(blocks.iter().map(|b| b.txs.len()).sum::<usize>(), total);
        // Chain integrity: each block links to its predecessor's digest.
        for w in blocks.windows(2) {
            prop_assert_eq!(w[1].header.prev, w[0].header.digest());
        }
        for b in &blocks {
            prop_assert!(b.verify_content());
        }
    }

    /// A genesis-backed state and a fully materialised one seeded with the
    /// same list answer every read identically under any sequence of
    /// mutations, reverts and snapshot round trips, and their snapshots
    /// price the same logical size.
    #[test]
    fn genesis_backed_state_matches_materialised(
        steps in proptest::collection::vec((0u8..12, any::<u8>(), any::<u8>(), 0u64..150), 1..80)
    ) {
        let seeds = equivalence_seeds();
        let genesis = Arc::new(Genesis::from_seeds(&seeds));
        let mut backed = BlockchainState::with_genesis(genesis.clone());
        let mut full = BlockchainState::new();
        for (k, v) in &seeds {
            full.put(k.clone(), *v);
        }
        let (mut backed_undos, mut full_undos) = (Vec::new(), Vec::new());
        for step in steps {
            let backed_result = apply_step(&mut backed, &mut backed_undos, step);
            let full_result = apply_step(&mut full, &mut full_undos, step);
            prop_assert_eq!(&backed_result, &full_result);
            prop_assert_eq!(&backed_undos, &full_undos);
            for i in 0..16 {
                let k = pool_key(i);
                prop_assert_eq!(backed.get(&k), full.get(&k));
            }
            prop_assert_eq!(backed.len(), full.len());
            prop_assert!(backed.iter().eq(full.iter()));
            prop_assert_eq!(backed.total_supply(), full.total_supply());
            for prefix in ["a0_", "a0_1", "a", "hours/"] {
                prop_assert_eq!(backed.sum_by_prefix(prefix), full.sum_by_prefix(prefix));
            }
            for account in ["a0_3", "a0_30", "x"] {
                prop_assert_eq!(
                    backed.extract_account_state(account),
                    full.extract_account_state(account)
                );
            }
            let snapshot = backed.to_snapshot(1, None);
            prop_assert_eq!(snapshot.wire_bytes(), full.to_snapshot(1, None).wire_bytes());
            // The snapshot copies exactly the balances that differ from genesis.
            let differing: Vec<(String, u64)> = full
                .iter()
                .filter(|(k, v)| genesis.get(k) != Some(*v))
                .map(|(k, v)| (k.into_owned(), v))
                .collect();
            prop_assert_eq!(&snapshot.accounts, &differing);
            prop_assert_eq!(&backed, &full);
        }
    }

    /// Account-key ownership parsing is the inverse of construction.
    #[test]
    fn account_keys_round_trip(domain in 0u16..512, n in 0u64..1_000_000) {
        prop_assert_eq!(account_owner_index(&account_key(domain, n)), Some(domain));
    }
}

/// The micropayment seed list names each homed client's account twice
/// (once in the domain's account range); it still encodes as one run.
#[test]
fn micropayment_genesis_is_one_run() {
    let config = WorkloadConfig {
        edge_domains: (0..4).map(|i| DomainId::new(1, i)).collect(),
        ..WorkloadConfig::default()
    };
    let accounts = config.accounts_per_domain as usize;
    let workload = MicropaymentWorkload::new(config, 40, 3);
    let domain = DomainId::new(1, 2);
    let seeds = Workload::seed_accounts(&workload, domain);
    assert!(seeds.len() > accounts, "the list has duplicate client keys");
    let genesis = Genesis::from_seeds(&seeds);
    assert_eq!(genesis.run_count(), 1);
    assert_eq!(genesis.len(), accounts);
    let state = BlockchainState::with_genesis(Arc::new(genesis));
    assert!(state.to_snapshot(0, None).accounts.is_empty());
}
