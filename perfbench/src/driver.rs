//! The phase-split experiment driver.
//!
//! [`run`] is the body of `ExperimentSpec::run_collecting` on the sequential
//! engine, rebuilt from public functions only, with a thread CPU clock stamp
//! between the phases a user pays for: tree build, seeding and schedules,
//! deploy, the event loop, harvest and drop.  The equivalence guard in
//! `main.rs` checks on every invocation that it reproduces
//! `run_collecting` exactly, so the phase times describe the real harness.

use crate::profile::Profiler;
use crate::stats::thread_cpu_s;
use parking_lot::Mutex;
use saguaro::hierarchy::HierarchyTree;
use saguaro::loadgen::{
    nearest_rank_index, AggregateClientActor, LatencyHistogram, PopulationGenerator,
    PopulationTally,
};
use saguaro::net::{Addr, CpuProfile, FaultEvent, Simulation};
use saguaro::sim::{
    deploy, safety_violations, ClientActor, Collector, CompletedTx, ExperimentSpec, ProtocolStack,
    RunArtifacts, RunMetrics, WorkloadKind,
};
use saguaro::trace::{TraceActor, Tracer};
use saguaro::types::{
    ClientId, ClientModel, DomainId, Duration, NodeId, PopulationConfig, Region, SimTime, TxId,
};
use saguaro::workload::{MicropaymentWorkload, Workload};
use std::collections::HashMap;
use std::fmt::Debug;
use std::sync::Arc;

/// Host seconds of each phase of one run: thread CPU time as measured, or
/// rescaled to the reference host by [`Phases::scaled`].
#[derive(Clone, Copy, Debug, Default)]
pub struct Phases {
    /// Building the hierarchy tree.
    pub tree_s: f64,
    /// Account seeds and per-client open-loop schedules.
    pub seed_s: f64,
    /// Simulator creation, `ProtocolStack::deploy`, fault plan and clients.
    pub deploy_s: f64,
    /// `Simulation::run_until` over the whole horizon.
    pub loop_s: f64,
    /// `ProtocolStack::harvest` and the summary metrics.
    pub harvest_s: f64,
    /// Dropping the simulation, the tree, the seeds and the artifacts.
    pub drop_s: f64,
}

impl Phases {
    /// Spec to deployed simulation.
    pub fn setup_s(&self) -> f64 {
        self.tree_s + self.seed_s + self.deploy_s
    }

    /// Harvest plus drop.
    pub fn teardown_s(&self) -> f64 {
        self.harvest_s + self.drop_s
    }

    /// The whole run.
    pub fn wall_s(&self) -> f64 {
        self.setup_s() + self.loop_s + self.teardown_s()
    }

    /// The phases rescaled to the reference host (`calib`), given the scale
    /// factors of the reference passes just `before` and just `after` the
    /// run: the set-up phases by the pass before, harvest and drop by the
    /// pass after, and the loop, which lies between them, by their mean.
    pub fn scaled(&self, before: f64, after: f64) -> Phases {
        Phases {
            tree_s: self.tree_s * before,
            seed_s: self.seed_s * before,
            deploy_s: self.deploy_s * before,
            loop_s: self.loop_s * (before + after) / 2.0,
            harvest_s: self.harvest_s * after,
            drop_s: self.drop_s * after,
        }
    }
}

/// Everything the benchmark reads from one run, taken before the drop phase.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// Phase times, in thread CPU seconds until the caller rescales them.
    pub phases: Phases,
    /// Simulator events processed.
    pub events: u64,
    /// The run's summary metrics, as `run_collecting` computes them.
    pub metrics: RunMetrics,
    /// Latencies (µs) of the window's committed transactions, in the
    /// harness's log-bucketed histogram so seeds can be pooled.
    pub latencies: LatencyHistogram,
    /// Transactions without a verdict by the horizon that may have been
    /// submitted inside the measurement window.
    pub unresolved: u64,
    /// Safety violations found in the run's artifacts.
    pub violations: Vec<String>,
    /// Accounts installed on replicas at deploy (seeds × replicas).
    pub seeded_accounts: u64,
    /// Transactions committed over the whole run, as clients saw them
    /// (aggregate populations: every completion, since their tally splits
    /// commits from aborts only inside the window).
    pub run_commits: u64,
    /// Messages delivered network-wide.
    pub messages: u64,
    /// Bytes delivered network-wide.
    pub bytes: u64,
    /// Timers fired.
    pub timers_fired: u64,
    /// High-water mark of the event queue.
    pub peak_pending_events: u64,
    /// Simulated CPU utilisation of the busiest participant over the horizon.
    pub busiest_util: f64,
    /// View changes over every replica.
    pub view_changes: u64,
    /// Twin certificates detected over every replica.
    pub cert_conflicts: u64,
    /// Bytes delivered by state-transfer messages.
    pub state_transfer_bytes: u64,
    /// Application snapshots taken at stable checkpoints, over every replica.
    pub snapshots_taken: u64,
}

impl Outcome {
    /// Transactions attempted in the window: committed, aborted, and left
    /// without a verdict.
    pub fn attempted(&self) -> u64 {
        self.metrics.committed + self.metrics.aborted + self.unresolved
    }

    /// Committed ÷ attempted in the window.
    pub fn commit_share(&self) -> f64 {
        self.metrics.committed as f64 / self.attempted().max(1) as f64
    }
}

/// Simulated time the run covers, as `run_collecting` sets it.
pub fn horizon(spec: &ExperimentSpec) -> Duration {
    spec.warmup + spec.measure + Duration::from_millis(300)
}

/// One client actor's registration, kept so the profiler can re-register it
/// exactly.
pub type ClientSlot = (ClientId, Region);

/// What the clients report through.
enum Sink {
    Exact {
        collector: Collector,
        schedules: Vec<(ClientId, Vec<TxId>)>,
    },
    Population {
        tally: Arc<Mutex<PopulationTally>>,
        population: PopulationConfig,
    },
}

/// One per-actor client's open-loop schedule: `(tx id, framed request,
/// destination)` in submission order, tagged with the client and its home.
type Schedule<M> = (ClientId, DomainId, Vec<(TxId, M, Addr)>);

/// The workload's precomputed inputs: account seeds plus, for per-actor
/// clients, each client's framed open-loop schedule.
struct Inputs<M> {
    seeds: Vec<(DomainId, Vec<(String, u64)>)>,
    schedules: Vec<Schedule<M>>,
    mean_interarrival_us: f64,
}

/// Runs `spec` on stack `P`, phase by phase.  With a profiler, every
/// registered actor is wrapped in its timing decorator after deploy (outside
/// every timed phase).
pub fn run<P: ProtocolStack>(spec: &ExperimentSpec, profiler: Option<&Profiler<P::Msg>>) -> Outcome
where
    P::Msg: Debug,
{
    let t0 = thread_cpu_s();
    let tree = build_tree(spec);
    let t1 = thread_cpu_s();
    let spread = request_spread(spec, &tree);
    let inputs = prepare::<P>(spec, &tree, spread);
    let seeded_accounts = seeded_accounts(&tree, &inputs.seeds);
    let t2 = thread_cpu_s();
    let mut sim: Simulation<P::Msg> =
        Simulation::new(deploy::latency_for(spec.placement), spec.seed);
    P::deploy(&mut sim, &tree, &inputs.seeds, &spec.stack_config());
    install_fault_plan::<P>(&mut sim, spec);
    let (sink, clients) = register_clients::<P>(
        spec,
        &tree,
        &mut sim,
        inputs.schedules,
        spread,
        inputs.mean_interarrival_us,
    );
    let t3 = thread_cpu_s();
    if let Some(profiler) = profiler {
        profiler.wrap(&mut sim, &tree, &clients);
    }
    let t4 = thread_cpu_s();
    let events = sim.run_until(SimTime::ZERO + horizon(spec));
    let t5 = thread_cpu_s();
    let artifacts = harvest::<P>(spec, &tree, &mut sim, events, sink);
    let t6 = thread_cpu_s();
    let outcome = observe(spec, &sim, &artifacts, seeded_accounts);
    let t7 = thread_cpu_s();
    drop(artifacts);
    drop(sim);
    drop(inputs.seeds);
    drop(tree);
    let t8 = thread_cpu_s();
    let secs = |a: f64, b: f64| b - a;
    Outcome {
        phases: Phases {
            tree_s: secs(t0, t1),
            seed_s: secs(t1, t2),
            deploy_s: secs(t2, t3),
            loop_s: secs(t4, t5),
            harvest_s: secs(t5, t6),
            drop_s: secs(t7, t8),
        },
        ..outcome
    }
}

/// The paper's binary tree, or the spec's explicit `(levels, fanout)` shape.
fn build_tree(spec: &ExperimentSpec) -> Arc<HierarchyTree> {
    match spec.topology {
        None => deploy::build_tree(spec.failure_model, spec.faults, spec.placement),
        Some((levels, fanout)) => deploy::build_tree_shaped(
            levels,
            fanout,
            spec.failure_model,
            spec.faults,
            spec.placement,
        ),
    }
    .expect("benchmark specs describe valid topologies")
}

/// Replicas per height-1 domain that client requests spread over: all of
/// them when liveness timers run, else the view-0 primary only.
fn request_spread(spec: &ExperimentSpec, tree: &HierarchyTree) -> u64 {
    if !spec.effective_liveness().enabled {
        return 1;
    }
    let edge = tree.edge_server_domains();
    tree.config(edge[0]).map(|c| c.quorum.n as u64).unwrap_or(1)
}

fn prepare<P: ProtocolStack>(
    spec: &ExperimentSpec,
    tree: &HierarchyTree,
    spread: u64,
) -> Inputs<P::Msg> {
    let edge_domains = tree.edge_server_domains();
    if let ClientModel::Aggregate(population) = spec.client_model {
        let seeds = edge_domains
            .iter()
            .map(|d| (*d, population.seed_accounts_for(*d)))
            .collect();
        return Inputs {
            seeds,
            schedules: Vec::new(),
            mean_interarrival_us: 0.0,
        };
    }
    let WorkloadKind::Micropayment(config) = &spec.workload else {
        panic!("benchmark workloads are micropayments");
    };
    let mut config = config.clone();
    config.edge_domains = edge_domains.clone();
    let mut generator = MicropaymentWorkload::new(config, spec.num_clients, spec.seed);

    let submit_horizon = spec.warmup + spec.measure + Duration::from_millis(200);
    let per_client_rate = spec.offered_load_tps / spec.num_clients as f64;
    let txs_per_client =
        ((per_client_rate * submit_horizon.as_secs_f64()).ceil() as usize + 2).max(4);
    let mean_interarrival_us = 1_000_000.0 / per_client_rate.max(0.001);
    let schedules = (0..spec.num_clients)
        .map(|c| {
            let home = generator.home_of(c);
            let schedule = (0..txs_per_client)
                .map(|_| {
                    let (tx, submit_to) = generator.next_for_client(c);
                    let replica = (tx.id.0 % spread.max(1)) as u16;
                    let target = Addr::Node(NodeId::new(submit_to, replica));
                    (tx.id, P::wrap_request(tx), target)
                })
                .collect();
            (ClientId(c as u64), home, schedule)
        })
        .collect();
    let seeds = edge_domains
        .iter()
        .map(|d| (*d, generator.seed_accounts(*d)))
        .collect();
    Inputs {
        seeds,
        schedules,
        mean_interarrival_us,
    }
}

/// Account entries deploy installs: every replica of a seeded domain gets
/// the domain's seed list.
fn seeded_accounts(tree: &HierarchyTree, seeds: &[(DomainId, Vec<(String, u64)>)]) -> u64 {
    seeds
        .iter()
        .map(|(d, accounts)| {
            let replicas = tree.nodes_of(*d).map(|n| n.len()).unwrap_or(0);
            (replicas * accounts.len()) as u64
        })
        .sum()
}

/// The spec's scripted fault plan plus the kicks that re-arm a recovered
/// replica's timer loops.
fn install_fault_plan<P: ProtocolStack>(sim: &mut Simulation<P::Msg>, spec: &ExperimentSpec) {
    if spec.fault_plan.is_empty() {
        return;
    }
    for (at, event) in spec.fault_plan.events() {
        if let FaultEvent::RecoverActor(addr) = event {
            if addr.as_node().is_some() {
                sim.inject_at(*at, deploy::harness_addr(), *addr, P::recovery_kick());
            }
        }
    }
    sim.set_fault_schedule(spec.fault_plan.clone());
}

fn register_clients<P: ProtocolStack>(
    spec: &ExperimentSpec,
    tree: &HierarchyTree,
    sim: &mut Simulation<P::Msg>,
    schedules: Vec<Schedule<P::Msg>>,
    spread: u64,
    mean_interarrival_us: f64,
) -> (Sink, Vec<ClientSlot>) {
    let reply_quorum = P::reply_quorum(spec.failure_model, spec.faults);
    let mut slots = Vec::new();
    if let ClientModel::Aggregate(population) = spec.client_model {
        let tally = Arc::new(Mutex::new(PopulationTally::new()));
        let edge_domains = tree.edge_server_domains();
        let domain_count = edge_domains.len();
        for (ordinal, domain) in edge_domains.iter().enumerate() {
            if population.users_in_domain(ordinal, domain_count) == 0 {
                continue;
            }
            let domain_seed = spec
                .seed
                .wrapping_add((ordinal as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
            let generator =
                PopulationGenerator::new(population, ordinal, edge_domains.clone(), domain_seed);
            let client = generator.client_id();
            let domain_rate = generator.rate_at(Duration::ZERO);
            let actor = AggregateClientActor::new(
                generator,
                P::wrap_request,
                P::client_tick(),
                P::parse_reply,
                reply_quorum,
                spread,
                spec.warmup,
                spec.measure,
                tally.clone(),
            );
            let region = tree.region_of(*domain).expect("edge domain region");
            sim.register(client, region, CpuProfile::client(), Box::new(actor));
            slots.push((client, region));
            let mean_us = if domain_rate > 0.0 {
                (1_000_000.0 / domain_rate) as u64
            } else {
                1_000
            };
            let offset = (ordinal as u64 % 97) * (mean_us / 97).max(1);
            sim.inject_at(
                SimTime::from_micros(offset),
                deploy::harness_addr(),
                client,
                P::client_tick(),
            );
        }
        return (Sink::Population { tally, population }, slots);
    }

    let collector: Collector = Arc::new(Mutex::new(Vec::new()));
    let ids = schedules
        .iter()
        .map(|(client, _, schedule)| (*client, schedule.iter().map(|(id, _, _)| *id).collect()))
        .collect();
    for (client_id, home, schedule) in schedules {
        let region = tree.region_of(home).expect("home region");
        let actor = ClientActor::new(
            client_id,
            schedule,
            mean_interarrival_us,
            P::client_tick(),
            P::parse_reply,
            reply_quorum,
            collector.clone(),
            Tracer::new(spec.trace, TraceActor::Client(client_id)),
        );
        sim.register(client_id, region, CpuProfile::client(), Box::new(actor));
        slots.push((client_id, region));
        let offset = (client_id.0 % 97) * (mean_interarrival_us as u64 / 97).max(1);
        sim.inject_at(
            SimTime::from_micros(offset),
            deploy::harness_addr(),
            client_id,
            P::client_tick(),
        );
    }
    (
        Sink::Exact {
            collector,
            schedules: ids,
        },
        slots,
    )
}

/// Harvests the replicas and builds the run's artifacts exactly as
/// `run_collecting` does (tracing is off in every benchmark spec).
fn harvest<P: ProtocolStack>(
    spec: &ExperimentSpec,
    tree: &Arc<HierarchyTree>,
    sim: &mut Simulation<P::Msg>,
    events_processed: u64,
    sink: Sink,
) -> RunArtifacts {
    let stats = sim.stats();
    let state_transfer_messages = stats.state_messages_delivered;
    let state_transfer_bytes = stats.state_bytes_delivered;
    let peak_pending_events = stats.peak_pending_events;
    let pdes = stats.pdes.clone();
    let harvest = P::harvest(sim, tree);
    let (metrics, completions, schedules, population) = match sink {
        Sink::Exact {
            collector,
            schedules,
        } => {
            let completions = std::mem::take(&mut *collector.lock());
            let metrics = summarise(&completions, spec);
            (metrics, completions, schedules, None)
        }
        Sink::Population { tally, population } => {
            let tally = Arc::try_unwrap(tally)
                .map(Mutex::into_inner)
                .unwrap_or_else(|shared| shared.lock().clone());
            let metrics = summarise_population(&tally, &population, spec.measure);
            (metrics, Vec::new(), Vec::new(), Some(tally))
        }
    };
    RunArtifacts {
        metrics,
        completions,
        schedules,
        events_processed,
        harvest,
        state_transfer_messages,
        state_transfer_bytes,
        peak_pending_events,
        population,
        pdes,
        trace: None,
        timeline: None,
    }
}

/// The harness's nearest-rank percentile over sorted samples.
fn percentile(sorted_ms: &[f64], p: f64) -> f64 {
    if sorted_ms.is_empty() {
        return 0.0;
    }
    sorted_ms[nearest_rank_index(sorted_ms.len(), p)]
}

fn window(spec: &ExperimentSpec) -> (SimTime, SimTime) {
    let start = SimTime::ZERO + spec.warmup;
    (start, start + spec.measure)
}

fn summarise(completions: &[CompletedTx], spec: &ExperimentSpec) -> RunMetrics {
    let (start, end) = window(spec);
    let in_window: Vec<&CompletedTx> = completions
        .iter()
        .filter(|c| c.submitted_at >= start && c.submitted_at < end)
        .collect();
    let mut lat_ms: Vec<f64> = in_window
        .iter()
        .filter(|c| c.committed)
        .map(|c| c.latency.as_millis_f64())
        .collect();
    let committed = lat_ms.len() as u64;
    lat_ms.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    let avg = if lat_ms.is_empty() {
        0.0
    } else {
        lat_ms.iter().sum::<f64>() / lat_ms.len() as f64
    };
    RunMetrics {
        offered_tps: spec.offered_load_tps,
        throughput_tps: committed as f64 / spec.measure.as_secs_f64(),
        avg_latency_ms: avg,
        p50_latency_ms: percentile(&lat_ms, 0.50),
        p95_latency_ms: percentile(&lat_ms, 0.95),
        p99_latency_ms: percentile(&lat_ms, 0.99),
        committed,
        aborted: in_window.len() as u64 - committed,
    }
}

fn summarise_population(
    tally: &PopulationTally,
    population: &PopulationConfig,
    measure: Duration,
) -> RunMetrics {
    let us_to_ms = |us: u64| us as f64 / 1_000.0;
    RunMetrics {
        offered_tps: population.offered_tps(),
        throughput_tps: tally.committed as f64 / measure.as_secs_f64(),
        avg_latency_ms: tally.hist.mean() / 1_000.0,
        p50_latency_ms: us_to_ms(tally.hist.quantile(0.50)),
        p95_latency_ms: us_to_ms(tally.hist.quantile(0.95)),
        p99_latency_ms: us_to_ms(tally.hist.quantile(0.99)),
        committed: tally.committed,
        aborted: tally.aborted,
    }
}

/// Reads every reported quantity off a finished run.
fn observe<M: saguaro::net::MessageMeta + Clone + 'static>(
    spec: &ExperimentSpec,
    sim: &Simulation<M>,
    artifacts: &RunArtifacts,
    seeded_accounts: u64,
) -> Outcome {
    let stats = sim.stats();
    let horizon = horizon(spec);
    let busiest_util = stats
        .busiest()
        .map(|(addr, _)| stats.utilisation(addr, horizon))
        .unwrap_or(0.0);
    let (latencies, unresolved, run_commits) = match &artifacts.population {
        Some(tally) => (
            tally.hist.clone(),
            tally.submitted.saturating_sub(tally.completed),
            tally.completed,
        ),
        None => {
            let (start, end) = window(spec);
            let mut latencies = LatencyHistogram::new();
            for c in &artifacts.completions {
                if c.committed && c.submitted_at >= start && c.submitted_at < end {
                    latencies.record(c.latency.as_micros());
                }
            }
            (
                latencies,
                unresolved_in_window(artifacts, spec),
                artifacts.completions.iter().filter(|c| c.committed).count() as u64,
            )
        }
    };
    Outcome {
        phases: Phases::default(),
        events: artifacts.events_processed,
        metrics: artifacts.metrics.clone(),
        latencies,
        unresolved,
        violations: safety_violations(artifacts),
        seeded_accounts,
        run_commits,
        messages: stats.messages_delivered,
        bytes: stats.bytes_delivered,
        timers_fired: stats.timers_fired,
        peak_pending_events: stats.peak_pending_events,
        busiest_util,
        view_changes: artifacts.harvest.view_changes(),
        cert_conflicts: artifacts.harvest.certificate_conflicts(),
        state_transfer_bytes: artifacts.state_transfer_bytes,
        snapshots_taken: artifacts
            .harvest
            .nodes
            .iter()
            .map(|n| n.snapshots_taken)
            .sum(),
    }
}

/// Scheduled transactions with no verdict whose submission may fall inside
/// the measurement window.
///
/// A client submits its schedule in order, so an unanswered transaction was
/// submitted no earlier than the last answered one before it and no later
/// than the first answered one after it.  It is left out only when that
/// interval lies wholly before or wholly after the window; every other
/// unanswered transaction counts as a failure.
fn unresolved_in_window(artifacts: &RunArtifacts, spec: &ExperimentSpec) -> u64 {
    let (start, end) = window(spec);
    let submitted: HashMap<TxId, SimTime> = artifacts
        .completions
        .iter()
        .map(|c| (c.tx_id, c.submitted_at))
        .collect();
    let mut unresolved = 0;
    for (_, ids) in &artifacts.schedules {
        let times: Vec<Option<SimTime>> = ids.iter().map(|id| submitted.get(id).copied()).collect();
        let mut next_known: Vec<Option<SimTime>> = vec![None; times.len()];
        let mut later = None;
        for (i, t) in times.iter().enumerate().rev() {
            next_known[i] = later;
            if t.is_some() {
                later = *t;
            }
        }
        let mut earlier: Option<SimTime> = None;
        for (i, t) in times.iter().enumerate() {
            match t {
                Some(t) => earlier = Some(*t),
                None => {
                    let before_window = next_known[i].is_some_and(|hi| hi < start);
                    let after_window = earlier.is_some_and(|lo| lo >= end);
                    if !before_window && !after_window {
                        unresolved += 1;
                    }
                }
            }
        }
    }
    unresolved
}
