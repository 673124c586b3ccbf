//! The three workloads: their configurations, their timed calls, the spans
//! around those calls, and the counts read back from the program's public
//! outputs.
//!
//! Every workload is a closed loop of RUBBoS sessions with think time; the
//! benchmark seed goes straight into `SystemConfig::seed` /
//! `ExperimentPlan::with_seed`. One call runs at a time, from one process,
//! on at most two threads.

use crate::catalog::{self, event_metric, self_metric, shard_metric};
use crate::checks;
use crate::cli::Workload;
use crate::spans::Spans;
use metrics::slo_burn;
use ntier_core::{HardwareConfig, SoftAllocation, TraceConfig};
use ntier_lab::{
    digest_output, run_plan, run_plan_with_store, ArtifactStore, Executor, ExperimentPlan,
    PlanResults, Schedule, Variant,
};
use ntier_report::{folded_stacks, load_sweep, Report, RunDiff};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;
use tiers::{FlightConfig, MetricsConfig, RunOutput, RunTrace, SloPolicy, SystemConfig};

/// Per-layer values of one traced repetition, keyed by catalog name.
pub type Layers = BTreeMap<&'static str, f64>;

/// What one repetition measured.
#[derive(Debug)]
pub struct Rep {
    /// Host seconds of the workload's timed calls.
    pub wall_s: f64,
    /// Simulated events over every run of the repetition.
    pub events: u64,
    /// Host seconds outside the event loop (see [`run`]).
    pub setup_s: f64,
    /// Digest of the simulated output (`digest_output` /
    /// `PlanResults::digest`).
    pub digest: u64,
    /// Whether the digest matched a pin (else the parent process compares
    /// repetitions with each other).
    pub pin: checks::Pin,
    /// Per-layer values; empty unless traced.
    pub layers: Layers,
    /// The repetition's spans; empty unless traced.
    pub spans: Spans,
}

/// Worker threads the sweep's executor and `sessions-1m`'s engine use.
pub const THREADS: u32 = 2;

/// `sweep-observed`: the Fig. 5 pools, at user counts near saturation.
pub const SWEEP_POOLS: [usize; 4] = [10, 50, 100, 200];
pub const SWEEP_USERS: [u32; 2] = [6600, 7200];
/// The sweep's set-up (plan expansion + store open) takes well under a
/// millisecond, so each repetition sets up this many times and reports
/// the median.
const SETUP_REPEATS: usize = 15;

/// Single-run configuration of `run-serial` and `sessions-1m`.
pub fn single_config(workload: Workload, seed: u64) -> SystemConfig {
    let (hw, users, par_run) = match workload {
        Workload::Sessions1m => (HardwareConfig::new(1, 8, 1, 8), 1_000_000, THREADS),
        _ => (HardwareConfig::one_four_one_four(), 7000, 1),
    };
    let mut cfg = SystemConfig::new(hw, SoftAllocation::rule_of_thumb(), users);
    cfg.workload = Schedule::Quick.workload(users);
    cfg.seed = seed;
    cfg.par_run = par_run;
    cfg
}

/// The sweep's plan: 400-200-{10,50,100,200} on 1/4/1/4 with tracing,
/// the flight recorder, windowed metrics and an SLO armed on every point.
pub fn sweep_plan(seed: u64) -> ExperimentPlan {
    let hw = HardwareConfig::one_four_one_four();
    let mut plan = ExperimentPlan::new("fig5-observed")
        .with_schedule(Schedule::Quick)
        .with_seed(seed)
        .with_users(SWEEP_USERS)
        .with_trace(TraceConfig::Full)
        .with_flight(FlightConfig::tail(8))
        .with_metrics(MetricsConfig::windowed_default())
        .with_slo(SloPolicy::new(0.99, 0.5));
    for pool in SWEEP_POOLS {
        plan = plan.with_variant(Variant::paper(hw, SoftAllocation::new(400, 200, pool)));
    }
    plan
}

/// Run one repetition. `work` is a scratch directory for the artifact
/// store. Errors are failures of the run (a layer call returned an error
/// or an output check failed); the caller counts them.
///
/// `setup_s` is, for single runs, the `run_system_full` call time minus the
/// engine's own loop timer (engine build, session staging, shard merge and
/// teardown); for the sweep, `ExperimentPlan::expand` plus
/// `ArtifactStore::open`.
pub fn run(workload: Workload, seed: u64, traced: bool, work: &Path) -> Result<Rep, String> {
    let spans = if traced { Spans::on() } else { Spans::off() };
    let mut rep = match workload {
        Workload::SweepObserved => run_sweep(seed, traced, work, spans)?,
        single => run_single(single, seed, traced, spans)?,
    };
    if traced {
        span_layers(&mut rep)?;
    }
    Ok(rep)
}

fn zeroed_layers() -> Layers {
    catalog::per_layer().iter().map(|m| (m.name, 0.0)).collect()
}

fn run_single(
    workload: Workload,
    seed: u64,
    traced: bool,
    mut spans: Spans,
) -> Result<Rep, String> {
    let mut cfg = single_config(workload, seed);
    cfg.profile = traced;
    let root = spans.enter("bench.workload");
    let t0 = Instant::now();
    let (out, trace, _) = spans.time("tiers.run_system_full", || tiers::run_system_full(cfg));
    let wall_s = t0.elapsed().as_secs_f64();
    spans.exit(root);

    let check = spans.enter("bench.check");
    let digest = spans.time("lab.digest_output", || digest_output(&out));
    let pin = checks::check_digest(workload, seed, digest)?;
    sane_output(&out)?;
    spans.exit(check);

    let mut layers = Layers::new();
    if traced {
        layers = zeroed_layers();
        absorb(&mut layers, &out, Some(&trace));
    }
    Ok(Rep {
        wall_s,
        events: out.events_processed,
        setup_s: wall_s - trace.engine.wall_secs,
        digest,
        pin,
        layers,
        spans,
    })
}

/// Invariants any healthy run meets, checked whether or not it is pinned.
fn sane_output(out: &RunOutput) -> Result<(), String> {
    if out.events_processed == 0 || out.completed == 0 {
        return Err(format!("{}: no events or no completed requests", out.label));
    }
    if out.outcomes.completed < out.completed {
        return Err(format!(
            "{}: {} requests completed in the window but {} over the run",
            out.label, out.completed, out.outcomes.completed
        ));
    }
    Ok(())
}

fn run_sweep(seed: u64, traced: bool, work: &Path, mut spans: Spans) -> Result<Rep, String> {
    let plan = sweep_plan(seed).with_profile(traced);
    let executor = Executor::with_threads(THREADS as usize);
    if executor.threads() != THREADS as usize {
        return Err("ntier-lab was built without its `parallel` feature".into());
    }
    let mut setup = Vec::with_capacity(SETUP_REPEATS);
    for k in 1..SETUP_REPEATS {
        let t = Instant::now();
        black_box(plan.expand());
        black_box(ArtifactStore::open(work.join(format!("setup-{k}"))).map_err(|e| e.to_string())?);
        setup.push(t.elapsed().as_secs_f64());
    }

    let root = spans.enter("bench.workload");
    let t0 = Instant::now();
    let points = spans.time("lab.expand", || plan.expand());
    let store = spans.time("lab.store_open", || ArtifactStore::open(work.join("store")));
    setup.push(t0.elapsed().as_secs_f64());
    let mut store = store.map_err(|e| format!("store open: {e}"))?;
    let results = spans
        .time("lab.run_plan_with_store", || {
            run_plan_with_store(&plan, &executor, &mut store)
        })
        .map_err(|e| format!("sweep: {e}"))?;
    let mut sweeps = Vec::with_capacity(SWEEP_POOLS.len());
    for v in 0..plan.variants.len() {
        let sweep = spans.time("report.load_sweep", || load_sweep(&store, &plan, v));
        sweeps.push(sweep.map_err(|e| format!("load_sweep: {e}"))?);
    }
    // Fig. 5's comparison: the 200-connection pool before, 10 after.
    let (before, after) = (sweeps[SWEEP_POOLS.len() - 1].clone(), sweeps[0].clone());
    let diff = spans.time("report.diff", || RunDiff::compute(before, after));
    let markdown = spans.time("report.render", || {
        Report::from_diff("Fig. 5 over-allocation", &diff).markdown()
    });
    let mut csv_bytes = 0;
    let mut alerts = 0;
    for m in results.metrics.iter().flatten() {
        csv_bytes += spans
            .time("metrics.to_csv", || metrics::export::to_csv(m))
            .len();
        alerts += spans
            .time("metrics.alerts", || {
                slo_burn::alerts(&m.client, m.window.as_secs_f64())
            })
            .len();
    }
    let mut diagnosed = 0;
    for v in 0..plan.variants.len() {
        diagnosed += usize::from(
            spans
                .time("metrics.diagnose_variant", || results.diagnose_variant(v))
                .is_some(),
        );
    }
    let mut folded_bytes = 0;
    for t in results.traces.iter().flatten() {
        black_box(spans.time("trace.summary", || t.summary()));
        if let Some(f) = &t.flight {
            folded_bytes += spans.time("trace.folded_stacks", || folded_stacks(f)).len();
        }
    }
    let wall_s = t0.elapsed().as_secs_f64();
    spans.exit(root);
    black_box((alerts, csv_bytes, folded_bytes));

    let check = spans.enter("bench.check");
    let digest = spans.time("lab.PlanResults::digest", || results.digest());
    let pin = checks::check_digest(Workload::SweepObserved, seed, digest)?;
    let n = points.len();
    let expect = |what: &str, got: usize| -> Result<(), String> {
        (got == n)
            .then_some(())
            .ok_or_else(|| format!("sweep: {got} of {n} points have {what}"))
    };
    expect("been executed", results.executed)?;
    expect("windowed metrics", results.metrics.iter().flatten().count())?;
    expect(
        "a flight summary",
        results
            .traces
            .iter()
            .flatten()
            .filter(|t| t.flight.is_some())
            .count(),
    )?;
    if diagnosed != plan.variants.len() || !markdown.contains("Verdict") || csv_bytes == 0 {
        return Err("sweep: a report, diagnosis or CSV came back empty".into());
    }
    for (p, out) in points.iter().zip(&results.outputs) {
        sane_output(out)?;
        let loaded = spans
            .time("lab.ArtifactStore::load", || store.load(p.digest))
            .map_err(|e| format!("store round trip of {}: {e}", p.label))?;
        if digest_output(&loaded) != digest_output(out) {
            return Err(format!("store round trip of {} is lossy", p.label));
        }
    }
    spans.exit(check);

    let mut layers = Layers::new();
    if traced {
        layers = zeroed_layers();
        for (out, trace) in results.outputs.iter().zip(&results.traces) {
            absorb(&mut layers, out, trace.as_ref());
        }
        lab_layers(&mut layers, &results, &spans, work)?;
        sink_probe(&mut layers, &plan, &results, &mut spans);
    }
    Ok(Rep {
        wall_s,
        events: results.outputs.iter().map(|o| o.events_processed).sum(),
        setup_s: median(&mut setup),
        digest,
        pin,
        layers,
        spans,
    })
}

/// Executor and store figures of the sweep.
fn lab_layers(
    layers: &mut Layers,
    results: &PlanResults,
    spans: &Spans,
    work: &Path,
) -> Result<(), String> {
    let root = spans.root("bench.workload").ok_or("no workload span")?;
    let sweep_s = spans.total(root, "lab.run_plan_with_store");
    let mut loops: Vec<f64> = results.perf.iter().flatten().map(|p| p.wall_secs).collect();
    let busy: f64 = loops.iter().sum();
    layers.insert("lab.points_executed", results.executed as f64);
    layers.insert(
        "lab.point_loop_s.max",
        loops.iter().copied().fold(0.0, f64::max),
    );
    layers.insert("lab.point_loop_s.p50", median(&mut loops));
    layers.insert(
        "lab.executor_efficiency",
        busy / (f64::from(THREADS) * sweep_s),
    );
    layers.insert(
        "lab.store_bytes",
        dir_bytes(&work.join("store")).map_err(|e| e.to_string())? as f64,
    );
    Ok(())
}

fn dir_bytes(dir: &Path) -> std::io::Result<u64> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let meta = entry.metadata()?;
        total += if meta.is_dir() {
            dir_bytes(&entry.path())?
        } else {
            meta.len()
        };
    }
    Ok(total)
}

/// Price the observability sinks: rerun the sweep's heaviest point (most
/// events) serially with every sink armed as in the plan and with every
/// sink inert, and compare the engine's loop times.
fn sink_probe(
    layers: &mut Layers,
    plan: &ExperimentPlan,
    results: &PlanResults,
    spans: &mut Spans,
) {
    let Some(heaviest) =
        (0..results.outputs.len()).max_by_key(|&i| results.outputs[i].events_processed)
    else {
        return;
    };
    let armed = {
        let mut cfg = results.points[heaviest].spec.to_config();
        cfg.metrics = plan.metrics;
        cfg.flight = plan.flight;
        cfg.slo = plan.slo;
        cfg
    };
    let inert = {
        let mut cfg = armed.clone();
        cfg.trace = TraceConfig::Off;
        cfg.metrics = MetricsConfig::Off;
        cfg.flight = FlightConfig::Off;
        cfg.slo = None;
        cfg
    };
    let probe = spans.enter("bench.sink_probe");
    let inert_loop = spans.time("tiers.run_system_full", || {
        tiers::run_system_full(inert).1.engine.wall_secs
    });
    let armed_loop = spans.time("tiers.run_system_full", || {
        tiers::run_system_full(armed).1.engine.wall_secs
    });
    spans.exit(probe);
    layers.insert("sinks.inert_loop_s", inert_loop);
    layers.insert("sinks.armed_loop_s", armed_loop);
    layers.insert("sinks.armed_over_inert", armed_loop / inert_loop);
}

/// Map from span name to the per-layer time metric it feeds.
const SPAN_METRICS: &[(&str, &str)] = &[
    ("tiers.run_system_full", "tiers.run_s"),
    ("lab.expand", "lab.expand_s"),
    ("lab.store_open", "lab.store_open_s"),
    ("lab.run_plan_with_store", "lab.sweep_s"),
    ("report.load_sweep", "report.load_sweep_s"),
    ("report.diff", "report.diff_s"),
    ("report.render", "report.render_s"),
    ("metrics.to_csv", "metrics.csv_s"),
    ("metrics.alerts", "metrics.alerts_s"),
    ("metrics.diagnose_variant", "metrics.diagnose_s"),
    ("trace.summary", "trace.summary_s"),
    ("trace.folded_stacks", "trace.folded_s"),
];

/// Span-derived layer times, self times and the ledger gap, all over the
/// timed calls (the `bench.workload` root).
fn span_layers(rep: &mut Rep) -> Result<(), String> {
    let spans = &rep.spans;
    let root = spans.root("bench.workload").ok_or("no workload span")?;
    for &(span, metric) in SPAN_METRICS {
        rep.layers.insert(metric, spans.total(root, span));
    }
    let run_s = rep.layers["tiers.run_s"];
    if run_s > 0.0 {
        rep.layers
            .insert("tiers.nonloop_s", run_s - rep.layers["simcore.loop_s"]);
    }
    for (layer, secs) in spans.self_secs(root) {
        if let Some(metric) = self_metric(layer) {
            rep.layers.insert(metric, secs);
        }
    }
    for r in (0..spans.spans().len()).filter(|&i| spans.spans()[i].parent.is_none()) {
        let gap = spans.ledger(r)?;
        if r == root {
            rep.layers.insert("bench.ledger_gap_s", gap);
        }
    }
    Ok(())
}

/// Add one run's public counts to the layer totals.
fn absorb(layers: &mut Layers, out: &RunOutput, trace: Option<&RunTrace>) {
    let mut add = |name: &'static str, v: f64| *layers.entry(name).or_insert(0.0) += v;
    let o = &out.outcomes;
    add("tiers.requests_completed", o.completed as f64);
    add(
        "tiers.requests_failed",
        (o.timed_out + o.shed + o.failed) as f64,
    );
    for n in &out.nodes {
        for pool in [&n.thread_pool, &n.conn_pool].into_iter().flatten() {
            add("resources.pool_waits", pool.waits as f64);
            add("resources.pool_cancelled", pool.cancelled as f64);
        }
        add("jvm-gc.collections", n.gc_collections as f64);
        add("jvm-gc.gc_sim_s", n.gc_seconds);
    }
    if let Some(p) = &out.profile {
        add("simcore.loop_s", p.wall_secs);
        add("simcore.events", p.events_processed as f64);
        add("simcore.events_scheduled", p.events_scheduled as f64);
        add("simcore.rounds", p.rounds as f64);
        add("simcore.pop_s", p.pop_secs);
        add("simcore.dispatch_s", p.dispatch_secs);
        add("simcore.sched_s", p.sched_secs);
        for &(label, n) in &p.per_type {
            add(event_metric(label), n as f64);
        }
        for s in &p.shards {
            add(shard_metric(s.shard, 0), s.events_processed as f64);
            add(shard_metric(s.shard, 1), s.busy_secs);
            add(shard_metric(s.shard, 2), s.stall_secs);
        }
    }
    if let Some(t) = trace {
        add("trace.spans", t.spans.len() as f64);
        add("trace.spans_overwritten", t.overwritten as f64);
        if let Some(f) = &t.flight {
            add("trace.flight_retained", f.retained() as f64);
            add(
                "trace.flight_truncated_windows",
                f.truncated_windows() as f64,
            );
        }
    }
    if let Some(p) = &out.profile {
        let hw = layers.entry("simcore.queue_high_water").or_insert(0.0);
        *hw = hw.max(p.queue_high_water as f64);
    }
}

/// Median of a sample (mean of the middle two for an even count); NaN for
/// an empty one.
pub fn median(xs: &mut [f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    xs.sort_by(f64::total_cmp);
    let mid = xs.len() / 2;
    if xs.len() % 2 == 1 {
        xs[mid]
    } else {
        (xs[mid - 1] + xs[mid]) / 2.0
    }
}

/// The digest to pin for `workload` at `seed`. Single runs are pinned from
/// a one-worker run, so `sessions-1m`'s two-worker repetitions are checked
/// against a serial reference; the sweep is pinned without a store.
pub fn pin_digest(workload: Workload, seed: u64) -> u64 {
    match workload {
        Workload::SweepObserved => {
            run_plan(&sweep_plan(seed), &Executor::with_threads(THREADS as usize)).digest()
        }
        single => {
            let mut cfg = single_config(single, seed);
            cfg.par_run = 1;
            digest_output(&tiers::run_system(cfg))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&mut []).is_nan());
    }

    /// The output check rejects a perturbed output: a run under the wrong
    /// seed does not match the pinned digest.
    #[test]
    fn output_check_rejects_a_wrong_seed() {
        let mut cfg = single_config(Workload::RunSerial, 1);
        cfg.workload = Schedule::Quick.workload(300);
        let reference = digest_output(&tiers::run_system(cfg.clone()));
        cfg.seed = 2;
        let perturbed = digest_output(&tiers::run_system(cfg));
        assert_ne!(reference, perturbed);
        let pinned = checks::pinned(Workload::RunSerial, 1).expect("seed 1 pinned");
        assert!(checks::check_digest(Workload::RunSerial, 1, pinned).is_ok());
        assert!(checks::check_digest(Workload::RunSerial, 2, pinned).is_err());
    }

    /// The ledger law holds on a tiny traced sweep, and every per-layer
    /// metric the catalog names is reported.
    #[test]
    fn ledger_law_on_a_tiny_config() {
        let mut spans = Spans::on();
        let plan = ExperimentPlan::new("tiny")
            .with_schedule(Schedule::Quick)
            .with_users([60u32, 120])
            .with_trace(TraceConfig::Full)
            .with_metrics(MetricsConfig::windowed_default())
            .with_variant(Variant::paper(
                HardwareConfig::one_two_one_two(),
                SoftAllocation::new(50, 20, 10),
            ));
        let root = spans.enter("bench.workload");
        let points = spans.time("lab.expand", || plan.expand());
        let results = spans.time("lab.run_plan_with_store", || {
            run_plan(&plan, &Executor::with_threads(2))
        });
        for m in results.metrics.iter().flatten() {
            spans.time("metrics.to_csv", || metrics::export::to_csv(m));
        }
        spans.exit(root);
        assert_eq!(points.len(), results.outputs.len());
        let mut rep = Rep {
            wall_s: spans.spans()[root_index(&spans)].secs(),
            events: 0,
            setup_s: 0.0,
            digest: results.digest(),
            pin: checks::Pin::Unpinned,
            layers: zeroed_layers(),
            spans,
        };
        for (out, trace) in results.outputs.iter().zip(&results.traces) {
            absorb(&mut rep.layers, out, trace.as_ref());
        }
        span_layers(&mut rep).expect("ledger holds");
        assert!(rep.layers["bench.ledger_gap_s"] >= -crate::spans::LEDGER_EPSILON_S);
        assert!(rep.layers["lab.sweep_s"] > 0.0);
        assert!(rep.layers["trace.spans"] > 0.0);
        let selfs: f64 = catalog::SELF_METRICS.iter().map(|m| rep.layers[m]).sum();
        assert!(selfs <= rep.wall_s + crate::spans::LEDGER_EPSILON_S);
        for m in catalog::per_layer() {
            assert!(rep.layers.contains_key(m.name), "{} reported", m.name);
        }
    }

    fn root_index(spans: &Spans) -> usize {
        spans.root("bench.workload").expect("root")
    }
}
