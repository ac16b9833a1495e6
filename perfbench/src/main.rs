//! Phase-split, layer-attributed host-time benchmark of the Saguaro
//! simulator.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload fig7_coord --seed 1 --seconds 24 --trace 0
//! ```
//!
//! One invocation first runs the equivalence guard (the phase-split driver
//! against `ExperimentSpec::run_collecting` on the same spec), then repeats
//! the workload for `--seconds` seconds, and at least once per seed of the
//! workload's fixed seed set.  Repetition `k` runs with seed
//! `rep_seed(seed, k % seeds)`, so the simulated results come from the same
//! seeds whatever the host speed, and a repeated seed must reproduce its
//! first result exactly.
//!
//! With `--trace 0` it prints the end-to-end metrics: host time per phase
//! (untraced thread CPU time, rescaled to a reference host by the reference
//! passes run between repetitions; see `calib`), peak RSS, and the simulated
//! throughput, p99 latency and commit share.  With `--trace 1` every repetition is run
//! twice, untraced and with every actor wrapped in a timing decorator, and it
//! prints the per-layer metrics.  The last line of standard output is one
//! JSON object: `correct`, `attempted` and `failed` (repetitions), `metrics`.

mod calib;
mod driver;
mod micro;
mod profile;
mod stats;
mod workloads;

use driver::Outcome;
use profile::{Cell, Layer, Profiler};
use saguaro::crypto::sha256::Sha256;
use saguaro::loadgen::LatencyHistogram;
use saguaro::sim::{
    AhlStack, CoordinatorStack, ExperimentSpec, OptimisticStack, ProtocolKind, ProtocolStack,
    RunMetrics, SharperStack,
};
use stats::median_of;
use std::fmt::Debug;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workloads::{rep_seed, Workload};

/// The (tier, message variant) pairs reported one by one: every pair that
/// takes a visible share of the loop on some workload.  Every other variant
/// still counts in its tier's totals and is printed in the breakdown table.
const CORE_VARIANTS: [(Layer, &str); 14] = [
    (Layer::CoreEdge, "ClientRequest"),
    (Layer::CoreEdge, "Consensus"),
    (Layer::CoreEdge, "Prepare"),
    (Layer::CoreEdge, "CommitCross"),
    (Layer::CoreEdge, "RoundTimer"),
    (Layer::CoreEdge, "OptForward"),
    (Layer::CoreEdge, "OptCommit"),
    (Layer::CoreEdge, "OptAbort"),
    (Layer::CoreUpper, "Consensus"),
    (Layer::CoreUpper, "CrossForward"),
    (Layer::CoreUpper, "PreparedMsg"),
    (Layer::CoreUpper, "AckCross"),
    (Layer::CoreUpper, "BlockMsg"),
    (Layer::CoreUpper, "RoundTimer"),
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::by_name(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                seconds = Some(value.parse().map_err(|_| format!("bad seconds {value}"))?)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(24),
        trace: trace.unwrap_or(false),
    })
}

/// One named metric of the result line.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// What one invocation measured.
struct Report {
    /// Repetitions run, traced ones included.
    attempted: u64,
    /// Repetitions that failed a check.
    failed: u64,
    failures: Vec<String>,
    metrics: Vec<Metric>,
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                Workload::ALL.map(Workload::name).join("|")
            );
            return ExitCode::from(2);
        }
    };
    println!(
        "provenance: workload={} seed={} seconds={} trace={} nproc={} source_sha256={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        source_digest()
    );
    let report = match args.workload.spec(0).protocol {
        ProtocolKind::SaguaroCoordinator => bench::<CoordinatorStack>(&args),
        ProtocolKind::SaguaroOptimistic => bench::<OptimisticStack>(&args),
        ProtocolKind::Ahl => bench::<AhlStack>(&args),
        ProtocolKind::Sharper => bench::<SharperStack>(&args),
    };
    for failure in &report.failures {
        println!("FAILED: {failure}");
    }
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    let correct = report.failures.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted,
        report.failed,
        metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Provenance of the measured code: SHA-256 over the path and content of
/// every library source file (`Cargo.toml`, `Cargo.lock`, `src/`, `crates/`,
/// `vendor/`), since the checkout being measured need not be a git work
/// tree.  Reads only below the repository root.
fn source_digest() -> String {
    fn walk(path: &Path, files: &mut Vec<PathBuf>) {
        match std::fs::read_dir(path) {
            Ok(entries) => {
                for entry in entries.flatten() {
                    walk(&entry.path(), files);
                }
            }
            Err(_) => files.push(path.to_path_buf()),
        }
    }
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let mut files = Vec::new();
    for part in ["Cargo.toml", "Cargo.lock", "src", "crates", "vendor"] {
        walk(&root.join(part), &mut files);
    }
    files.sort();
    let mut hasher = Sha256::new();
    for file in &files {
        let Ok(content) = std::fs::read(file) else {
            continue;
        };
        let relative = file.strip_prefix(&root).unwrap_or(file);
        hasher.update(relative.to_string_lossy().as_bytes());
        hasher.update(&content);
    }
    hasher.finalize().to_hex()[..16].to_string()
}

/// One traced repetition: its outcome and the handler cells.
struct Traced {
    outcome: Outcome,
    cells: Vec<(Layer, String, Cell)>,
}

impl Traced {
    /// Rescales the run's phases and handler times to the reference host.
    fn rescale(&mut self, scale: f64) {
        self.outcome.phases = self.outcome.phases.scaled(scale, scale);
        for (_, _, cell) in &mut self.cells {
            cell.ns = (cell.ns as f64 * scale).round() as u64;
        }
    }

    fn handler_s(&self) -> f64 {
        self.cells.iter().map(|(_, _, c)| c.ns as f64).sum::<f64>() / 1e9
    }

    fn layer(&self, layer: Layer) -> Cell {
        self.variant(layer, None)
    }

    fn variant(&self, layer: Layer, name: Option<&str>) -> Cell {
        let mut total = Cell::default();
        for (l, n, c) in &self.cells {
            if *l == layer && name.is_none_or(|name| name == n) {
                total.calls += c.calls;
                total.ns += c.ns;
            }
        }
        total
    }
}

fn bench<P: ProtocolStack>(args: &Args) -> Report
where
    P::Msg: Debug,
{
    let workload = args.workload;
    let baselines = matches!(P::kind(), ProtocolKind::Ahl | ProtocolKind::Sharper);
    let reference = Reference::of(&workload.spec(rep_seed(args.seed, 0)));
    let micro = args.trace.then(|| micro::measure(args.seed));

    let mut failures = Vec::new();
    let mut failed = 0;
    let mut untraced: Vec<Outcome> = Vec::new();
    let mut traced: Vec<Traced> = Vec::new();
    let seeds = workload.seeds();
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    // `scales[k]` and `scales[k + 1]` rescale repetition `k` (see `calib`).
    let mut scales = vec![calib::scale()];
    // The resident-set peak of each untraced repetition.
    let mut peaks_mb = Vec::new();
    let mut rep = 0;
    while rep < seeds || Instant::now() < deadline {
        let spec = workload.spec(rep_seed(args.seed, (rep % seeds) as u64));
        stats::reset_peak_rss();
        let outcome = driver::run::<P>(&spec, None);
        peaks_mb.push(stats::peak_rss_mb().unwrap_or(f64::NAN));
        let mut problems = check(workload, rep, &outcome, &untraced);
        if rep == 0 {
            problems.extend(reference.mismatch(&outcome));
        }
        if args.trace {
            let profiler = Profiler::new(baselines);
            let run = driver::run::<P>(&spec, Some(&profiler));
            problems.extend(observation_mismatch(&run, &outcome));
            traced.push(Traced {
                outcome: run,
                cells: profiler.cells(),
            });
        }
        scales.push(calib::scale());
        print_repetition(rep % seeds, rep, &outcome, scales[rep], scales[rep + 1]);
        failed += u64::from(!problems.is_empty());
        failures.extend(
            problems
                .into_iter()
                .map(|p| format!("repetition {rep}: {p}")),
        );
        untraced.push(outcome);
        rep += 1;
    }
    for (k, outcome) in untraced.iter_mut().enumerate() {
        outcome.phases = outcome.phases.scaled(scales[k], scales[k + 1]);
    }
    // A traced run comes after its untraced twin: the pass after it is the
    // nearest.
    for (k, t) in traced.iter_mut().enumerate() {
        t.rescale(scales[k + 1]);
    }

    print_phases(&untraced);
    let first = &untraced[..seeds];
    let metrics = match micro {
        None => end_to_end(
            first,
            &untraced,
            stats::median(&peaks_mb),
            workload.spec(0).measure.as_secs_f64(),
        ),
        Some(micro) => {
            print_breakdown(&traced);
            per_layer(first, &untraced, &traced, &micro)
        }
    };
    Report {
        attempted: (untraced.len() + traced.len()) as u64,
        failed,
        failures,
        metrics,
    }
}

/// What `ExperimentSpec::run_collecting` reports for a spec: the equivalence
/// guard's reference.
struct Reference {
    events: u64,
    metrics: RunMetrics,
}

impl Reference {
    fn of(spec: &ExperimentSpec) -> Self {
        let artifacts = spec.run_collecting();
        Self {
            events: artifacts.events_processed,
            metrics: artifacts.metrics,
        }
    }

    /// Why the phase-split driver's `outcome` differs from the harness, if
    /// it does.
    fn mismatch(&self, outcome: &Outcome) -> Option<String> {
        (outcome.events != self.events || outcome.metrics != self.metrics).then(|| {
            format!(
                "equivalence guard: phase-split driver gave {} events and {:?}, \
                 run_collecting gave {} events and {:?}",
                outcome.events, outcome.metrics, self.events, self.metrics
            )
        })
    }
}

/// Why a traced run differs from its untraced twin, if it does: the timing
/// decorator must be observation-only.
fn observation_mismatch(traced: &Outcome, untraced: &Outcome) -> Option<String> {
    (traced.events != untraced.events || traced.metrics != untraced.metrics).then(|| {
        format!(
            "traced run is not observation-only: {} events and {:?} against {} events \
             and {:?} untraced",
            traced.events, traced.metrics, untraced.events, untraced.metrics
        )
    })
}

/// The per-repetition correctness checks: safety, progress, the scenario's
/// own protocol path, and exact reproduction of a repeated seed.
fn check(workload: Workload, rep: usize, outcome: &Outcome, earlier: &[Outcome]) -> Vec<String> {
    let mut problems: Vec<String> = outcome
        .violations
        .iter()
        .map(|v| format!("safety violation: {v}"))
        .collect();
    if outcome.metrics.committed == 0 {
        problems.push("nothing committed in the window".to_string());
    }
    if workload == Workload::ByzStormOpt && outcome.view_changes == 0 {
        problems.push("the view-change storm caused no view change".to_string());
    }
    let seeds = workload.seeds();
    if let Some(first) = earlier.get(rep % seeds).filter(|_| rep >= seeds) {
        if first.events != outcome.events || first.metrics != outcome.metrics {
            problems.push(format!(
                "seed #{} did not reproduce its first run",
                rep % seeds
            ));
        }
    }
    problems
}

fn print_repetition(seed: usize, rep: usize, o: &Outcome, before: f64, after: f64) {
    let scaled = o.phases.scaled(before, after);
    println!(
        "rep {rep:>3} seed#{seed}: events {:>8} committed {:>6} unresolved {:>4} share {:.4} \
         p50 {:.3} p99 {:.3} ms (n {}) | cpu setup {:.4} loop {:.4} teardown {:.4} s | \
         scale {before:.3} {after:.3} | scaled setup {:.4} loop {:.4} teardown {:.4} s",
        o.events,
        o.metrics.committed,
        o.unresolved,
        o.commit_share(),
        o.metrics.p50_latency_ms,
        o.metrics.p99_latency_ms,
        o.latencies.count(),
        o.phases.setup_s(),
        o.phases.loop_s,
        o.phases.teardown_s(),
        scaled.setup_s(),
        scaled.loop_s,
        scaled.teardown_s()
    );
}

fn print_phases(runs: &[Outcome]) {
    println!(
        "phase medians over {} untraced repetitions (seconds of the reference host):",
        runs.len()
    );
    type Column = (&'static str, fn(&Outcome) -> f64);
    let rows: [Column; 6] = [
        ("tree", |o| o.phases.tree_s),
        ("seed", |o| o.phases.seed_s),
        ("deploy", |o| o.phases.deploy_s),
        ("loop", |o| o.phases.loop_s),
        ("harvest", |o| o.phases.harvest_s),
        ("drop", |o| o.phases.drop_s),
    ];
    for (name, f) in rows {
        println!("  {name:<8} {:>10.4}", median_of(runs, f));
    }
}

fn end_to_end(first: &[Outcome], all: &[Outcome], peak_rss_mb: f64, measure_s: f64) -> Vec<Metric> {
    let mut latencies = LatencyHistogram::new();
    for o in first {
        latencies.merge(&o.latencies);
    }
    let committed: u64 = first.iter().map(|o| o.metrics.committed).sum();
    let attempted: u64 = first.iter().map(Outcome::attempted).sum();
    let p99 = stats::quantile_ms(&latencies, 0.99);
    println!(
        "sim_p99_ms {p99:.3} over {} latency samples pooled from {} seeds (sim_p50_ms {:.3})",
        latencies.count(),
        first.len(),
        stats::quantile_ms(&latencies, 0.50)
    );
    vec![
        metric("setup_s", median_of(all, |o| o.phases.setup_s()), "s"),
        metric("loop_s", median_of(all, |o| o.phases.loop_s), "s"),
        metric("teardown_s", median_of(all, |o| o.phases.teardown_s()), "s"),
        metric("wall_s", median_of(all, |o| o.phases.wall_s()), "s"),
        metric("peak_rss_mb", peak_rss_mb, "MiB"),
        metric(
            "sim_commit_tps",
            committed as f64 / (first.len() as f64 * measure_s),
            "tx/s",
        ),
        metric("sim_p99_ms", p99, "ms"),
        metric(
            "sim_commit_share",
            committed as f64 / attempted.max(1) as f64,
            "ratio",
        ),
    ]
}

fn per_layer(
    first: &[Outcome],
    all: &[Outcome],
    traced: &[Traced],
    micro: &micro::Micro,
) -> Vec<Metric> {
    let count = |f: fn(&Outcome) -> u64| median_of(first, |o| f(o) as f64);
    let per_commit =
        |f: fn(&Outcome) -> u64| median_of(first, |o| f(o) as f64 / o.run_commits.max(1) as f64);
    let busy = |layer: Layer| median_of(traced, |t| t.layer(layer).ns as f64 / 1e9);
    let ns_per_call = |layer: Layer| {
        median_of(traced, |t| {
            let c = t.layer(layer);
            c.ns as f64 / c.calls.max(1) as f64
        })
    };
    let untraced_loop = median_of(all, |o| o.phases.loop_s);
    let traced_loop = median_of(traced, |t| t.outcome.phases.loop_s);

    let mut metrics = vec![
        metric("hierarchy.tree_s", median_of(all, |o| o.phases.tree_s), "s"),
        metric("workload.seed_s", median_of(all, |o| o.phases.seed_s), "s"),
        metric("sim.deploy_s", median_of(all, |o| o.phases.deploy_s), "s"),
        metric("sim.harvest_s", median_of(all, |o| o.phases.harvest_s), "s"),
        metric("sim.drop_s", median_of(all, |o| o.phases.drop_s), "s"),
        metric(
            "sim.latency_samples",
            count(|o| o.latencies.count()),
            "count",
        ),
        metric("sim.unresolved", count(|o| o.unresolved), "count"),
        metric(
            "ledger.seeded_accounts",
            count(|o| o.seeded_accounts),
            "count",
        ),
        metric("net.events", count(|o| o.events), "count"),
        metric(
            "net.ns_per_event",
            median_of(all, |o| o.phases.loop_s * 1e9 / o.events.max(1) as f64),
            "ns",
        ),
        metric(
            "net.self_s",
            median_of(traced, |t| t.outcome.phases.loop_s - t.handler_s()),
            "s",
        ),
        metric(
            "net.peak_pending_events",
            count(|o| o.peak_pending_events),
            "count",
        ),
        metric("net.msgs_per_commit", per_commit(|o| o.messages), "count"),
        metric("net.bytes_per_commit", per_commit(|o| o.bytes), "B"),
        metric("net.timers_fired", count(|o| o.timers_fired), "count"),
        metric(
            "net.busiest_util",
            median_of(first, |o| o.busiest_util),
            "ratio",
        ),
    ];
    for layer in [Layer::CoreEdge, Layer::CoreUpper] {
        metrics.push(metric(
            format!("{}.busy_s", layer.prefix()),
            busy(layer),
            "s",
        ));
        metrics.push(metric(
            format!("{}.ns_per_call", layer.prefix()),
            ns_per_call(layer),
            "ns",
        ));
    }
    for (layer, variant) in CORE_VARIANTS {
        let cell = |t: &Traced| t.variant(layer, Some(variant));
        metrics.push(metric(
            format!("{}.{variant}.busy_s", layer.prefix()),
            median_of(traced, |t| cell(t).ns as f64 / 1e9),
            "s",
        ));
        metrics.push(metric(
            format!("{}.{variant}.calls", layer.prefix()),
            median_of(traced, |t| cell(t).calls as f64),
            "count",
        ));
    }
    metrics.extend([
        metric("baselines.shard.busy_s", busy(Layer::BaselineShard), "s"),
        metric(
            "baselines.committee.busy_s",
            busy(Layer::BaselineCommittee),
            "s",
        ),
        metric("client.busy_s", busy(Layer::Client), "s"),
        metric("consensus.view_changes", count(|o| o.view_changes), "count"),
        metric(
            "consensus.cert_conflicts",
            count(|o| o.cert_conflicts),
            "count",
        ),
        metric(
            "consensus.snapshots_taken",
            count(|o| o.snapshots_taken),
            "count",
        ),
        metric(
            "consensus.state_transfer_bytes",
            count(|o| o.state_transfer_bytes),
            "B",
        ),
        metric("consensus.batch_digest_us", micro.batch_digest_us, "us"),
        metric("crypto.sha256_mb_s", micro.sha256_mb_s, "MB/s"),
        metric("crypto.merkle64_us", micro.merkle64_us, "us"),
        metric("ledger.seed_10k_ms", micro.seed_10k_ms, "ms"),
        metric("ledger.snapshot_10k_ms", micro.snapshot_10k_ms, "ms"),
        metric("trace.overhead", traced_loop / untraced_loop, "ratio"),
    ]);
    metrics
}

/// Every (layer, variant) cell of the traced repetitions, as medians.
fn print_breakdown(traced: &[Traced]) {
    let mut keys: Vec<(Layer, String)> = traced
        .iter()
        .flat_map(|t| t.cells.iter().map(|(l, n, _)| (*l, n.clone())))
        .collect();
    keys.sort();
    keys.dedup();
    let loop_s = median_of(traced, |t| t.outcome.phases.loop_s);
    println!(
        "handler time over {} traced repetitions (median loop {loop_s:.4} s):",
        traced.len()
    );
    for (layer, name) in keys {
        let busy = median_of(traced, |t| t.variant(layer, Some(&name)).ns as f64 / 1e9);
        let calls = median_of(traced, |t| t.variant(layer, Some(&name)).calls as f64);
        println!(
            "  {:<22} {name:<18} {busy:>9.4} s {:>5.1}% {calls:>10} calls {:>8.0} ns/call",
            layer.prefix(),
            100.0 * busy / loop_s,
            busy * 1e9 / calls.max(1.0)
        );
    }
}

#[cfg(test)]
mod tests {
    //! The equivalence guard and the observation-only check on all four
    //! workloads.  Full-size specs: run with `cargo test --release`.
    use super::*;

    fn phase_split_matches_harness<P: ProtocolStack>(workload: Workload)
    where
        P::Msg: Debug,
    {
        let spec = workload.spec(rep_seed(7, 0));
        assert_eq!(spec.protocol, P::kind());
        let untraced = driver::run::<P>(&spec, None);
        assert_eq!(Reference::of(&spec).mismatch(&untraced), None);
        assert!(untraced.violations.is_empty(), "{:?}", untraced.violations);

        let profiler = Profiler::new(matches!(P::kind(), ProtocolKind::Ahl));
        let traced = driver::run::<P>(&spec, Some(&profiler));
        assert_eq!(observation_mismatch(&traced, &untraced), None);
        let calls: u64 = profiler.cells().iter().map(|(_, _, c)| c.calls).sum();
        assert!(calls > 0, "the decorators timed no handler");
    }

    #[test]
    fn fig7_coord() {
        phase_split_matches_harness::<CoordinatorStack>(Workload::Fig7Coord);
    }

    #[test]
    fn wide128_pop() {
        phase_split_matches_harness::<CoordinatorStack>(Workload::Wide128Pop);
    }

    #[test]
    fn byz_storm_opt() {
        phase_split_matches_harness::<OptimisticStack>(Workload::ByzStormOpt);
    }

    #[test]
    fn ahl_byz() {
        phase_split_matches_harness::<AhlStack>(Workload::AhlByz);
    }
}
