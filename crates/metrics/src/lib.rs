//! # metrics — SLA model, distributions, and monitoring observables
//!
//! The paper's performance model splits throughput by a response-time
//! threshold into **goodput** (requests within the SLA bound) and **badput**
//! (the rest); "the sum of goodput and badput amounts to the traditional
//! definition of throughput" (§II-B). This crate provides:
//!
//! * [`SlaModel`] / [`SlaCounts`] — goodput/badput accounting at one or more
//!   thresholds (the paper uses 0.5 s, 1 s, and 2 s).
//! * [`RtDistribution`] — the fixed-bin response-time distribution of
//!   Fig. 3(c): `[0,.2] [.2,.4] [.4,.6] [.6,.8] [.8,1] [1,1.5] [1.5,2] >2`.
//! * [`UtilDensity`] — per-run utilization probability densities, the
//!   building block of the resource-utilization density graphs (Fig. 4).
//! * [`ServerLog`] — per-server response-time/throughput logging (the
//!   Log4j-style logs that Algorithm 1 consumes: per-tier RTT and TP).
//! * [`SloSeries`] — per-second SLO-satisfaction series feeding the
//!   statistical intervention analysis.
//! * [`BottleneckDetector`] — the multi-bottleneck classifier (stable vs
//!   oscillatory saturation; the paper's excluded case, ref. \[9\]).
//! * [`MetricsRegistry`] / [`RunMetrics`] — the fine-grained windowed
//!   metrics pipeline (`ntier-metrics-ts`): per-replica CPU/GC/pool/linger
//!   series and client counters at a configurable window (default 100 ms).
//! * [`QuantileSketch`] — deterministic mergeable log-bucket sketch for
//!   per-window p50/p95/p99 response times.
//! * [`Diagnosis`] — automated classification of a run into the paper's
//!   failure modes (under-allocation, GC over-allocation, buffering effect).
//! * [`export`] — CSV/JSONL dumps, gnuplot-ready figure series, and the
//!   plain-text dashboard.

pub mod bottleneck;
pub mod density;
pub mod diagnosis;
pub mod export;
pub mod quantile;
pub mod rt_dist;
pub mod server_log;
pub mod sla;
pub mod slo_burn;
pub mod slo_series;
pub mod timeseries;

pub use bottleneck::{BottleneckDetector, SaturationClass, SystemVerdict};
pub use density::UtilDensity;
pub use diagnosis::{recovery_time_secs, Diagnosis, DiagnosisRules, Evidence};
pub use export::MetricsSink;
pub use quantile::QuantileSketch;
pub use rt_dist::RtDistribution;
pub use server_log::ServerLog;
pub use sla::{SlaCounts, SlaModel};
pub use slo_burn::{BurnAlert, Severity, SloBurnSeries, SloPolicy};
pub use slo_series::SloSeries;
pub use timeseries::{
    ClientSeries, FailureKind, MetricsConfig, MetricsRegistry, PoolSeries, ReplicaSeries,
    RunMetrics,
};
