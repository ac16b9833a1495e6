//! Application-state snapshots used by snapshot-based state transfer.
//!
//! At every quorum-stable checkpoint a replica whose retention window is
//! finite materializes a [`StateSnapshot`] of its executed application state
//! — balance map, delivery-stream hash and mobile ownership table — keyed by
//! the checkpoint sequence number.  A `StateRequest` whose frontier has
//! fallen below the responder's retained log tail is then answered with the
//! snapshot plus the short command tail above it, so catch-up cost is
//! O(retention) regardless of how long the requester was away (the
//! historical full-replay reply is O(outage)).

use crate::genesis::Genesis;
use crate::ids::{ClientId, DomainId};
use crate::sequence::SeqNo;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// One device's entry in the mobile ownership table: whether a hand-off has
/// the device locked and, if its state has been shipped away, which domain
/// currently hosts it.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct MobileOwnership {
    /// The mobile edge device.
    pub device: ClientId,
    /// True while a hand-off holds the device locked.
    pub locked: bool,
    /// Domain the device's state was shipped to, if any.
    pub remote: Option<DomainId>,
}

/// A materialized application snapshot at a stable checkpoint.
///
/// Everything a fresh replica needs to resume execution at `seq + 1`:
/// the executed balance map, the delivery-stream hash pinning the executed
/// prefix, and the mobile ownership/hosting tables (empty for stacks
/// without mobile hand-off).
///
/// The balance map is the domain's shared [`Genesis`] overlaid with
/// `accounts`, so taking a snapshot copies only the balances execution
/// changed.  Its modeled size is still that of the whole map.
#[derive(Clone, PartialEq, Debug, Default, Serialize, Deserialize)]
pub struct StateSnapshot {
    /// The stable checkpoint this snapshot captures (deliveries executed).
    pub seq: SeqNo,
    /// Rolling [`crate::sequence::delivery_hash`] over the executed delivery
    /// stream through `seq`; `None` when the run records no deliveries.
    pub delivery_hash: Option<u64>,
    /// The seeded balances the snapshot's state started from, shared with
    /// every replica of the domain.
    pub genesis: Arc<Genesis>,
    /// Executed account balances that differ from `genesis` or that it
    /// lacks, in key order.
    pub accounts: Vec<(String, u64)>,
    /// Mobile ownership table (lock + remote-host per known device).
    pub mobile: Vec<MobileOwnership>,
    /// Devices whose state this domain currently hosts for a remote owner.
    pub hosted: Vec<ClientId>,
}

impl StateSnapshot {
    /// Number of accounts in the captured balance map: every genesis key
    /// plus the accounts genesis lacks.
    pub fn account_count(&self) -> u64 {
        let added = self
            .accounts
            .iter()
            .filter(|(k, _)| !self.genesis.contains(k))
            .count();
        (self.genesis.len() + added) as u64
    }

    /// Modeled wire size of the snapshot: a fixed header plus per-account
    /// and per-device increments, mirroring the style of the per-message
    /// size models in the protocol crates.  Accounts are priced by the
    /// whole balance map, as if every balance were shipped.
    pub fn wire_bytes(&self) -> u64 {
        96 + 24 * self.account_count()
            + 16 * self.mobile.len() as u64
            + 8 * self.hosted.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_size_scales_with_contents() {
        let empty = StateSnapshot::default();
        assert_eq!(empty.wire_bytes(), 96);
        let full = StateSnapshot {
            seq: 7,
            delivery_hash: Some(1),
            accounts: vec![("a".into(), 1), ("b".into(), 2)],
            mobile: vec![MobileOwnership {
                device: ClientId(3),
                locked: true,
                remote: Some(DomainId::new(1, 0)),
            }],
            hosted: vec![ClientId(9)],
            ..StateSnapshot::default()
        };
        assert_eq!(full.wire_bytes(), 96 + 48 + 16 + 8);
    }

    #[test]
    fn wire_size_prices_the_whole_balance_map() {
        let seeds: Vec<(String, u64)> = ["a", "b", "c"].map(|k| (k.into(), 5)).into();
        let snapshot = StateSnapshot {
            genesis: Arc::new(Genesis::from_seeds(&seeds)),
            // One changed genesis key, one new key.
            accounts: vec![("b".into(), 1), ("d".into(), 2)],
            ..StateSnapshot::default()
        };
        assert_eq!(snapshot.account_count(), 4);
        assert_eq!(snapshot.wire_bytes(), 96 + 24 * 4);
    }
}
