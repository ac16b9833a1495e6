//! Per-layer attribution of event-loop time.
//!
//! [`Profiler::wrap`] takes every registered actor out of a deployed
//! simulation (`Simulation::take_actor`) and registers it again inside a
//! [`Timed`] decorator that measures the host time of each `on_message` and
//! `on_timer` call.  The decorator forwards every call and the `as_any`
//! downcast hook unchanged, so the simulation stays bit-identical; the
//! benchmark checks that on every traced run.  Loop time not covered by any
//! handler is the engine's own queue, latency and dispatch work.
//!
//! Handler time is read from the monotonic wall clock, which costs far less
//! per call than the thread CPU clock the phases use; the two agree while
//! the benchmark's thread is not descheduled, which a single-threaded run on
//! a host with spare cores keeps so.  The caller rescales both to the
//! reference host by the same factor.

use crate::driver::ClientSlot;
use saguaro::hierarchy::HierarchyTree;
use saguaro::net::{
    Actor, Addr, BoxedActor, Context, CpuProfile, MessageMeta, Simulation, TimerId,
};
use saguaro::types::Region;
use std::collections::{BTreeMap, HashMap};
use std::fmt::Debug;
use std::mem::Discriminant;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

/// The layer an actor belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Layer {
    /// Saguaro replicas of height-1 (edge server) domains.
    CoreEdge,
    /// Saguaro replicas of height ≥ 2 domains: LCA coordination and
    /// aggregation.
    CoreUpper,
    /// AHL / SharPer shard replicas.
    BaselineShard,
    /// The AHL reference committee.
    BaselineCommittee,
    /// Per-actor clients and aggregate population actors.
    Client,
}

impl Layer {
    /// Metric-name prefix.
    pub fn prefix(self) -> &'static str {
        match self {
            Layer::CoreEdge => "core.edge",
            Layer::CoreUpper => "core.upper",
            Layer::BaselineShard => "baselines.shard",
            Layer::BaselineCommittee => "baselines.committee",
            Layer::Client => "client",
        }
    }
}

/// Calls and host nanoseconds of one handler.
#[derive(Clone, Copy, Debug, Default)]
pub struct Cell {
    /// Handler invocations.
    pub calls: u64,
    /// Host nanoseconds spent inside the handler.
    pub ns: u64,
}

impl Cell {
    fn add(&mut self, other: Cell) {
        self.calls += other.calls;
        self.ns += other.ns;
    }
}

struct Shared<M> {
    variants: HashMap<Discriminant<M>, usize>,
    names: Vec<String>,
    cells: BTreeMap<(Layer, usize), Cell>,
}

/// Collects the handler times of every wrapped actor of one run.
pub struct Profiler<M> {
    shared: Arc<Mutex<Shared<M>>>,
    baselines: bool,
}

impl<M: MessageMeta + Clone + Debug + Send + 'static> Profiler<M> {
    /// A profiler for a Saguaro deployment (`baselines = false`) or an
    /// AHL/SharPer one.
    pub fn new(baselines: bool) -> Self {
        Self {
            shared: Arc::new(Mutex::new(Shared {
                variants: HashMap::new(),
                names: Vec::new(),
                cells: BTreeMap::new(),
            })),
            baselines,
        }
    }

    /// Re-registers every replica of `tree` and every client in `clients`
    /// inside a timing decorator, with the region and CPU profile deploy
    /// gave it.
    pub fn wrap(&self, sim: &mut Simulation<M>, tree: &HierarchyTree, clients: &[ClientSlot]) {
        for domain in tree.domains() {
            let height = domain.id.height;
            let layer = match (self.baselines, height) {
                (_, 0) => continue,
                (false, 1) => Layer::CoreEdge,
                (false, _) => Layer::CoreUpper,
                (true, 1) => Layer::BaselineShard,
                (true, _) => Layer::BaselineCommittee,
            };
            for node in tree.nodes_of(domain.id).expect("domain nodes") {
                self.rewrap(
                    sim,
                    Addr::Node(node),
                    domain.region,
                    CpuProfile::server(),
                    layer,
                );
            }
        }
        for (client, region) in clients {
            self.rewrap(
                sim,
                Addr::Client(*client),
                *region,
                CpuProfile::client(),
                Layer::Client,
            );
        }
    }

    fn rewrap(
        &self,
        sim: &mut Simulation<M>,
        addr: Addr,
        region: Region,
        cpu: CpuProfile,
        layer: Layer,
    ) {
        if let Some(inner) = sim.take_actor(addr) {
            let timed = Timed {
                inner,
                layer,
                seen: Vec::new(),
                shared: self.shared.clone(),
            };
            sim.register(addr, region, cpu, Box::new(timed));
        }
    }

    /// Per-(layer, variant name) totals.  Complete once the simulation that
    /// holds the decorators has been dropped.
    pub fn cells(&self) -> Vec<(Layer, String, Cell)> {
        let shared = self.shared.lock().expect("profiler lock");
        shared
            .cells
            .iter()
            .map(|((layer, v), cell)| (*layer, shared.names[*v].clone(), *cell))
            .collect()
    }
}

/// The timing decorator around one actor.  Counts stay local to the actor
/// and are folded into the profiler when the simulation drops it.
struct Timed<M> {
    inner: BoxedActor<M>,
    layer: Layer,
    seen: Vec<(Discriminant<M>, usize, Cell)>,
    shared: Arc<Mutex<Shared<M>>>,
}

impl<M: Debug> Timed<M> {
    /// Index into `seen` of the message's variant, registering it (and, the
    /// first time any actor sees it, naming it) on first sight.
    fn slot(&mut self, msg: &M) -> usize {
        let d = std::mem::discriminant(msg);
        if let Some(i) = self.seen.iter().position(|(s, _, _)| *s == d) {
            return i;
        }
        let mut shared = self.shared.lock().expect("profiler lock");
        let next = shared.names.len();
        let variant = *shared.variants.entry(d).or_insert(next);
        if variant == next {
            shared.names.push(variant_name(msg));
        }
        self.seen.push((d, variant, Cell::default()));
        self.seen.len() - 1
    }

    fn charge(&mut self, slot: usize, started: Instant) {
        let cell = &mut self.seen[slot].2;
        cell.calls += 1;
        cell.ns += started.elapsed().as_nanos() as u64;
    }
}

/// The enum variant's name: its `Debug` rendering up to the first
/// delimiter.
fn variant_name<M: Debug>(msg: &M) -> String {
    format!("{msg:?}")
        .chars()
        .take_while(|c| c.is_alphanumeric() || *c == '_')
        .collect()
}

impl<M: Debug> Actor<M> for Timed<M> {
    fn on_message(&mut self, from: Addr, msg: M, ctx: &mut Context<'_, M>) {
        let slot = self.slot(&msg);
        let started = Instant::now();
        self.inner.on_message(from, msg, ctx);
        self.charge(slot, started);
    }

    fn on_timer(&mut self, id: TimerId, msg: M, ctx: &mut Context<'_, M>) {
        let slot = self.slot(&msg);
        let started = Instant::now();
        self.inner.on_timer(id, msg, ctx);
        self.charge(slot, started);
    }

    fn as_any(&mut self) -> Option<&mut dyn std::any::Any> {
        self.inner.as_any()
    }
}

impl<M> Drop for Timed<M> {
    fn drop(&mut self) {
        // Every update leaves the totals valid, so a poisoned lock is safe
        // to recover (and `drop` must not panic).
        let mut shared = self.shared.lock().unwrap_or_else(PoisonError::into_inner);
        for (_, variant, cell) in &self.seen {
            shared
                .cells
                .entry((self.layer, *variant))
                .or_default()
                .add(*cell);
        }
    }
}
