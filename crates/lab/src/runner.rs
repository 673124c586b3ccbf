//! Plan execution: expand, (optionally) skip persisted points, run the rest
//! on an [`Executor`], and merge everything back in expansion order.
//!
//! The merge is what makes parallelism invisible: results land in slots
//! keyed by expansion index, every trial derives its randomness from its own
//! spec seed, and nothing about scheduling leaks into the outputs — so
//! `run_plan(plan, Executor::parallel())` is bit-identical to
//! `run_plan(plan, Executor::serial())`, digest for digest.

use std::io;

use metrics::Diagnosis;
use ntier_core::run_system_full;
use tiers::{MetricsConfig, RunMetrics, RunOutput, RunTrace, Tier};

use crate::digest::digest_outputs;
use crate::executor::Executor;
use crate::plan::{ExperimentPlan, RunPoint};
use crate::store::{ArtifactStore, PointPerf};

/// Everything a plan execution produced, in expansion order.
#[derive(Debug)]
pub struct PlanResults {
    /// The expanded points.
    pub points: Vec<RunPoint>,
    /// One output per point.
    pub outputs: Vec<RunOutput>,
    /// Windowed time series per point (when the plan enabled metrics).
    pub metrics: Vec<Option<RunMetrics>>,
    /// Per-request traces per point (when the plan enabled tracing and the
    /// point was executed rather than loaded from the store).
    pub traces: Vec<Option<RunTrace>>,
    /// Execution performance per point: measured live for executed points,
    /// recovered from the manifest for points loaded from the store (absent
    /// only for points resumed from a pre-provenance manifest).
    pub perf: Vec<Option<PointPerf>>,
    /// Points simulated in this execution.
    pub executed: usize,
    /// Points loaded from the artifact store instead.
    pub skipped: usize,
}

impl PlanResults {
    /// Outputs of one variant, in ramp order.
    pub fn variant_outputs(&self, variant: usize) -> Vec<&RunOutput> {
        self.points
            .iter()
            .zip(&self.outputs)
            .filter(|(p, _)| p.variant == variant)
            .map(|(_, o)| o)
            .collect()
    }

    /// Workload points of one variant, in ramp order.
    pub fn variant_users(&self, variant: usize) -> Vec<u32> {
        self.points
            .iter()
            .filter(|p| p.variant == variant)
            .map(|p| p.spec.users)
            .collect()
    }

    /// Combined digest of every output, in expansion order — the value the
    /// serial/parallel bit-identity checks compare.
    pub fn digest(&self) -> u64 {
        digest_outputs(self.outputs.iter())
    }

    /// Goodput series of one variant at the SLA threshold nearest `secs`.
    pub fn goodput_series(&self, variant: usize, secs: f64) -> Vec<f64> {
        self.variant_outputs(variant)
            .iter()
            .map(|r| r.goodput_at(secs))
            .collect()
    }

    /// Total-throughput series of one variant.
    pub fn throughput_series(&self, variant: usize) -> Vec<f64> {
        self.variant_outputs(variant)
            .iter()
            .map(|r| r.throughput)
            .collect()
    }

    /// Mean CPU-utilization series (×100) of `tier` across one variant.
    pub fn tier_cpu_series(&self, variant: usize, tier: Tier) -> Vec<f64> {
        self.variant_outputs(variant)
            .iter()
            .map(|r| r.tier_cpu_util(tier) * 100.0)
            .collect()
    }

    /// Diagnose one variant's ramp from its windowed time series (requires
    /// a metered plan; `None` when any point of the variant has no series).
    pub fn diagnose_variant(&self, variant: usize) -> Option<Diagnosis> {
        let runs: Option<Vec<&RunMetrics>> = self
            .points
            .iter()
            .zip(&self.metrics)
            .filter(|(p, _)| p.variant == variant)
            .map(|(_, m)| m.as_ref())
            .collect();
        Some(Diagnosis::of_sweep(&runs?))
    }
}

/// What executing one point yields.
type PointYield = (RunOutput, Option<RunMetrics>, Option<RunTrace>, PointPerf);

fn execute_point(point: &RunPoint, plan: &ExperimentPlan) -> PointYield {
    let mut cfg = point.spec.to_config();
    cfg.metrics = plan.metrics;
    cfg.profile = plan.profile;
    cfg.flight = plan.flight;
    cfg.slo = plan.slo;
    let traced = cfg.trace.enabled();
    let (out, trace, m) = run_system_full(cfg);
    // The engine times run_until unconditionally, so perf provenance is
    // free — no profiling required.
    let perf = PointPerf {
        wall_secs: trace.engine.wall_secs,
        events_per_sec: trace.engine.events_per_sec(),
    };
    (out, m.map(|b| *b), traced.then_some(trace), perf)
}

/// Execute every point of a plan on the given executor.
pub fn run_plan(plan: &ExperimentPlan, executor: &Executor) -> PlanResults {
    let points = plan.expand();
    let yields = executor.run_ordered(points.iter().collect(), |p: &RunPoint| {
        execute_point(p, plan)
    });
    let executed = yields.len();
    let mut outputs = Vec::with_capacity(executed);
    let mut metrics = Vec::with_capacity(executed);
    let mut traces = Vec::with_capacity(executed);
    let mut perf = Vec::with_capacity(executed);
    for (out, m, t, p) in yields {
        outputs.push(out);
        metrics.push(m);
        traces.push(t);
        perf.push(Some(p));
    }
    PlanResults {
        points,
        outputs,
        metrics,
        traces,
        perf,
        executed,
        skipped: 0,
    }
}

/// Execute a plan against an artifact store: points whose content address
/// is already in the manifest are loaded from disk; only the missing ones
/// are simulated (and then persisted). Exception: a *metered* or *profiled*
/// plan executes every point — windowed series and phase timings are not
/// persisted, and both are passive, so the outputs (and digests) are
/// unchanged either way.
pub fn run_plan_with_store(
    plan: &ExperimentPlan,
    executor: &Executor,
    store: &mut ArtifactStore,
) -> io::Result<PlanResults> {
    let points = plan.expand();
    let reusable = plan.metrics == MetricsConfig::Off && !plan.profile;
    let mut outputs: Vec<Option<RunOutput>> = Vec::with_capacity(points.len());
    let mut metrics: Vec<Option<RunMetrics>> = Vec::with_capacity(points.len());
    let mut traces: Vec<Option<RunTrace>> = Vec::with_capacity(points.len());
    let mut perf: Vec<Option<PointPerf>> = Vec::with_capacity(points.len());
    let mut missing: Vec<&RunPoint> = Vec::new();
    for p in &points {
        if reusable && store.contains(p.digest) {
            outputs.push(Some(store.load(p.digest)?));
            // Perf provenance of the execution that produced the artifact.
            perf.push(store.entry(p.digest).and_then(|e| e.perf));
        } else {
            outputs.push(None);
            perf.push(None);
            missing.push(p);
        }
        metrics.push(None);
        traces.push(None);
    }
    let skipped = points.len() - missing.len();
    let executed = missing.len();
    let yields = executor.run_ordered(missing.clone(), |p: &RunPoint| execute_point(p, plan));
    for (p, (out, m, t, pp)) in missing.iter().zip(yields) {
        if !store.contains(p.digest) {
            store.save_with_perf(p, &out, Some(pp))?;
        }
        outputs[p.index] = Some(out);
        metrics[p.index] = m;
        traces[p.index] = t;
        perf[p.index] = Some(pp);
    }
    Ok(PlanResults {
        points,
        outputs: outputs
            .into_iter()
            .map(|o| o.expect("slot filled"))
            .collect(),
        metrics,
        traces,
        perf,
        executed,
        skipped,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::Variant;
    use ntier_core::experiment::Schedule;
    use tiers::{HardwareConfig, SoftAllocation};

    fn tiny_plan() -> ExperimentPlan {
        ExperimentPlan::new("tiny")
            .with_variant(Variant::paper(
                HardwareConfig::one_two_one_two(),
                SoftAllocation::new(50, 20, 10),
            ))
            .with_users([100u32, 200])
            .with_schedule(Schedule::Quick)
    }

    #[test]
    fn parallel_digest_matches_serial() {
        let plan = tiny_plan();
        let serial = run_plan(&plan, &Executor::serial());
        let parallel = run_plan(&plan, &Executor::with_threads(4));
        assert_eq!(serial.digest(), parallel.digest());
        assert_eq!(serial.outputs[0].users, 100);
        assert_eq!(serial.outputs[1].users, 200);
    }

    #[test]
    fn metered_plan_collects_series_without_perturbing_outputs() {
        let base = tiny_plan();
        let metered = tiny_plan().with_metrics(MetricsConfig::windowed_default());
        let a = run_plan(&base, &Executor::serial());
        let b = run_plan(&metered, &Executor::serial());
        assert_eq!(a.digest(), b.digest());
        assert!(b.metrics.iter().all(Option::is_some));
        assert!(a.metrics.iter().all(Option::is_none));
        assert!(b.diagnose_variant(0).is_some());
        assert!(a.diagnose_variant(0).is_none());
    }

    #[test]
    fn profiled_plan_attaches_profiles_without_perturbing_outputs() {
        let base = tiny_plan();
        let profiled = tiny_plan().with_profile(true);
        let a = run_plan(&base, &Executor::serial());
        let b = run_plan(&profiled, &Executor::serial());
        assert_eq!(a.digest(), b.digest());
        assert!(a.outputs.iter().all(|o| o.profile.is_none()));
        for out in &b.outputs {
            let p = out.profile.as_ref().expect("profile attached");
            assert_eq!(p.events_processed, out.events_processed);
            assert!(p.wall_secs > 0.0);
        }
        // Perf provenance is recorded either way — it needs no profiling.
        assert!(a.perf.iter().all(Option::is_some));
        assert!(b.perf.iter().all(Option::is_some));
    }

    #[test]
    fn store_resume_recovers_perf_provenance() {
        let dir =
            std::env::temp_dir().join(format!("ntier-lab-runner-perf-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let plan = tiny_plan();
        {
            let mut store = ArtifactStore::open(&dir).expect("opens");
            let fresh = run_plan_with_store(&plan, &Executor::serial(), &mut store).expect("runs");
            assert_eq!(fresh.executed, 2);
            assert!(fresh.perf.iter().all(Option::is_some));
        }
        // Resume skips both points but still reports the perf of the
        // execution that produced the artifacts.
        let mut store = ArtifactStore::open(&dir).expect("reopens");
        let resumed = run_plan_with_store(&plan, &Executor::serial(), &mut store).expect("runs");
        assert_eq!((resumed.executed, resumed.skipped), (0, 2));
        assert!(resumed
            .perf
            .iter()
            .all(|p| p.is_some_and(|p| p.wall_secs > 0.0)));
        // A profiled plan is not reusable: every point re-executes.
        let profiled = tiny_plan().with_profile(true);
        let re = run_plan_with_store(&profiled, &Executor::serial(), &mut store).expect("runs");
        assert_eq!((re.executed, re.skipped), (2, 0));
        assert!(re.outputs.iter().all(|o| o.profile.is_some()));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn variant_series_accessors() {
        let results = run_plan(&tiny_plan(), &Executor::serial());
        assert_eq!(results.variant_users(0), vec![100, 200]);
        assert_eq!(results.throughput_series(0).len(), 2);
        assert_eq!(results.goodput_series(0, 2.0).len(), 2);
        assert_eq!(results.tier_cpu_series(0, Tier::App).len(), 2);
        assert!(results.variant_outputs(1).is_empty());
    }
}
