//! # rubbos-ntier — n-tier application scalability testbed and soft-resource
//! # allocation toolkit
//!
//! A full reproduction of *"The Impact of Soft Resource Allocation on n-Tier
//! Application Scalability"* (Wang, Malkowski, Jayasinghe, Xiong, Pu,
//! Kanemasa, Kawaba, Harada — IEEE IPDPS 2011): a calibrated discrete-event
//! simulation of the paper's 4-tier RUBBoS testbed
//! (Apache → Tomcat → C-JDBC → MySQL), the goodput/badput SLA methodology,
//! and the paper's queuing-law soft-resource allocation algorithm.
//!
//! ## Quick start
//!
//! ```
//! use rubbos_ntier::prelude::*;
//!
//! // The paper's 1/2/1/2 topology with the practitioners' 400-150-60
//! // allocation, 1000 emulated users, short test schedule.
//! let mut cfg = SystemConfig::new(
//!     HardwareConfig::one_two_one_two(),
//!     SoftAllocation::rule_of_thumb(),
//!     1000,
//! );
//! cfg.workload = workload::WorkloadConfig::quick(1000);
//! let out = run_system(cfg);
//! assert!(out.throughput > 50.0);
//! // Goodput + badput = throughput at every SLA threshold (§II-B).
//! for i in 0..out.sla_thresholds.len() {
//!     assert!((out.goodput[i] + out.badput[i] - out.throughput).abs() < 1e-9);
//! }
//! ```
//!
//! ## Crate map
//!
//! | crate | role |
//! |---|---|
//! | [`simcore`] | discrete-event engine, RNG streams, statistics |
//! | [`resources`] | PS-CPU, FCFS disk, soft pools |
//! | [`jvm_gc`] | stop-the-world garbage collector model |
//! | [`workload`] | RUBBoS interactions, mixes, closed-loop sessions |
//! | [`tiers`] | the 4-tier system model and trial runner |
//! | [`metrics`] | SLA goodput/badput, windowed time series, diagnosis |
//! | [`ntier_core`] | operational laws, intervention analysis, **Algorithm 1** |
//! | [`ntier_lab`] | experiment plans, parallel executor, artifact store |
//! | [`ntier_report`] | run diffs, shape-check verdicts, perf trajectory |
//!
//! Every table and figure of the paper is regenerated by a bench target in
//! `crates/bench` — each one declares an [`ntier_lab::ExperimentPlan`] and
//! runs it through the shared engine. See `DESIGN.md` for the experiment
//! index and `EXPERIMENTS.md` for measured-vs-paper results.

pub use jvm_gc;
pub use metrics;
pub use ntier_core;
pub use ntier_lab;
pub use ntier_report;
pub use ntier_trace;
pub use resources;
pub use simcore;
pub use tiers;
pub use workload;

/// The items most programs need.
pub mod prelude {
    pub use ntier_core::{
        algorithm::{AlgorithmConfig, AlgorithmReport, SoftResourceTuner},
        experiment::{Schedule, SimTestbed, Testbed},
        parse_hardware, parse_soft, parse_spec, run_experiment, run_experiment_traced, run_system,
        run_system_full, run_system_metered, run_system_profiled, run_system_to_drain,
        run_system_to_drain_metered, run_system_traced, try_run_system, BreakerSpec, BrownoutSpec,
        Bucket, CrashWindow, Diagnosis, DiagnosisRules, DrainReport, EngineProfile, Evidence,
        ExperimentSpec, FaultSpec, FlightConfig, FlightSummary, HardwareConfig, HedgeSpec,
        MetricsConfig, MetricsSink, Outcome, OutcomeTotals, RetryBudget, RetryPolicy, RunMetrics,
        RunOutput, RunTrace, SelectPolicy, ShedPolicy, SloBurnSeries, SloPolicy, SlowWindow,
        SoftAllocation, Strategy, SystemConfig, Tier, TierSpec, Topology, TopologyError,
        TraceConfig,
    };
    pub use ntier_lab::{
        run_plan, run_plan_with_store, ArtifactStore, BenchArgs, CampaignResults, ChaosCampaign,
        Executor, ExperimentPlan, FaultDistribution, FaultKind, FaultScenario, OracleSpec,
        PlanResults, PolicyBundle, Variant,
    };
    pub use ntier_report::{
        folded_stacks, load_sweep, write_flamegraph, BenchReport, CurveShape, Report, ReportError,
        RunDiff, SweepSummary, UslFit,
    };
    pub use workload;
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_reexports_work() {
        let (hw, soft) = parse_spec("1/2/1/2(400-150-60)").expect("parses");
        assert_eq!(hw, HardwareConfig::one_two_one_two());
        assert_eq!(soft, SoftAllocation::rule_of_thumb());
    }
}
