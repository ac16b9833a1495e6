//! The benchmark's four workloads.  Every one is an open loop: clients
//! submit on a Poisson schedule in simulated time whatever the protocol
//! does, so a slower protocol shows up as simulated latency and commit
//! share, never as less offered load.

use saguaro::sim::{ExperimentSpec, ProtocolKind, Scenario};
use saguaro::types::{Duration, PopulationConfig};

/// One benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Coordinator stack, CFT f = 1, the paper tree, 120 per-actor clients
    /// at 4 000 tx/s, 20 % cross-domain: the paper's headline cross-domain
    /// workload, dominated by the event loop and its LCA coordinator path.
    Fig7Coord,
    /// Coordinator stack over 2 levels × 128 fanout with an aggregate
    /// population of 400 000 users at 0.0125 tx/s each (5 000 tx/s), 20 %
    /// cross-domain: setup (seeding 128 domains, deploy) and teardown take
    /// most of the run.
    Wide128Pop,
    /// Optimistic stack, Byzantine, 2 000 tx/s, 20 % cross-domain, a
    /// view-change storm (primary crash plus an equivocating successor),
    /// checkpoints every 32 with 128 retained: the PBFT fault path with
    /// snapshots and pruning.
    ByzStormOpt,
    /// AHL baseline, Byzantine, 2 000 tx/s, 20 % cross-domain: the
    /// baselines crate (shard 2PC through a reference committee).
    AhlByz,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::Fig7Coord,
        Workload::Wide128Pop,
        Workload::ByzStormOpt,
        Workload::AhlByz,
    ];

    /// The name used on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig7Coord => "fig7_coord",
            Workload::Wide128Pop => "wide128_pop",
            Workload::ByzStormOpt => "byz_storm_opt",
            Workload::AhlByz => "ahl_byz",
        }
    }

    /// Looks a workload up by name.
    pub fn by_name(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// How many distinct seeds one run covers.  The simulated metrics pool
    /// (or take the median over) these seeds, so their spread from run seed
    /// to run seed shrinks.  Where one seed's results vary a lot (the
    /// population's commit count, the storm's two outcomes) a run takes as
    /// many as fit in its 24 seconds on a quiet host, and no more, so that a
    /// host half again slower still ends every run within about 35 seconds.
    pub fn seeds(self) -> usize {
        match self {
            Workload::Fig7Coord => 8,
            Workload::Wide128Pop => 10,
            Workload::ByzStormOpt => 13,
            Workload::AhlByz => 16,
        }
    }

    /// The experiment of one repetition.  `seed` is the run's workload seed
    /// mixed with the repetition's index.
    pub fn spec(self, seed: u64) -> ExperimentSpec {
        let windowed = |protocol, warmup_ms, measure_ms| {
            let mut spec = ExperimentSpec::new(protocol).cross_domain(0.2);
            spec.warmup = Duration::from_millis(warmup_ms);
            spec.measure = Duration::from_millis(measure_ms);
            spec.seed = seed;
            spec
        };
        match self {
            Workload::Fig7Coord => windowed(ProtocolKind::SaguaroCoordinator, 300, 1_500),
            Workload::Wide128Pop => {
                let mut population = PopulationConfig::with_users(400_000).per_user(0.0125);
                population.cross_domain_ratio = 0.2;
                windowed(ProtocolKind::SaguaroCoordinator, 200, 600)
                    .shaped(2, 128)
                    .aggregate(population)
            }
            Workload::ByzStormOpt => {
                let spec = windowed(ProtocolKind::SaguaroOptimistic, 300, 1_500)
                    .byzantine()
                    .load(2_000.0)
                    .tune(|t| t.checkpoint_every(32).retained(128));
                Scenario::ViewChangeStorm.apply(spec)
            }
            Workload::AhlByz => windowed(ProtocolKind::Ahl, 300, 1_500)
                .byzantine()
                .load(2_000.0),
        }
    }
}

/// The seed of repetition `rep` of a run seeded with `seed` (SplitMix64, so
/// neighbouring run seeds give unrelated repetition seeds).
pub fn rep_seed(seed: u64, rep: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(rep.wrapping_add(1).wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}
