//! The shared experiment CLI: one parser for the flags every figure
//! harness and example accepts, instead of a hand-rolled copy in each.
//!
//! Recognized flags (after `cargo bench --bench figN --` or
//! `cargo run --example NAME --`):
//!
//! * `--hw #W/#A/#C/#D` — override the hardware configuration
//!   (via `HardwareConfig::from_str`).
//! * `--soft #W_T-#A_T-#A_C` — override an allocation where the harness
//!   accepts one (via `SoftAllocation::from_str`).
//! * `--users N[,N…]` — override the workload sweep points.
//! * `--quick` — short trials (10 s ramp, 30 s window) for smoke runs.
//! * `--threads N` — worker count for plan execution (default: one per
//!   core; `1` forces a serial run).
//! * `--store DIR` — resumable artifact store: points already in the
//!   manifest are loaded instead of simulated.
//! * `--faults SPEC[,SPEC…]` — inject faults into the backend tiers.
//!   Three spec forms:
//!   `TIER[:REPLICA]@FROM[-TO]` crashes one replica of `cmw` or `db` at
//!   `FROM` seconds, recovering at `TO` (permanent if omitted);
//!   `TIER[:REPLICA]@FROM[-TO]*MULT` slows the replica by the demand
//!   multiplier `MULT` over the same window shape;
//!   `TIER@drop=P` drops each arriving query on the tier's ingress wire
//!   with probability `P`. Repeatable; comma-separated specs also
//!   accepted. Harnesses opt in via [`BenchArgs::apply_faults`], which
//!   re-validates the topology and surfaces a [`TopologyError`] instead
//!   of aborting deep in assembly.
//! * `--retry POLICY` — client retry policy: `off`, `naive:N`, or
//!   `backoff:N:BASE_MS:MULT:JITTER` (via `RetryPolicy::from_str`).
//! * `--retry-budget off|RATIO[:BURST]` — fleet-wide retry budget layered
//!   on the policy (via `RetryBudget::from_str`).
//! * `--metrics PATH[:WINDOW_MS]` — record the fine-grained windowed time
//!   series during each run and write one CSV per run next to `PATH`
//!   (see [`MetricsSink`]). Collection is passive: the printed tables are
//!   bit-identical with or without the flag.
//! * `--profile` — enable engine profiling on every run and print a
//!   phase-timing/throughput summary after the tables. Also passive.
//! * `--tail-sample K` — arm the tail-sampling flight recorder: retain the
//!   K slowest (plus all failed) traces per 100 ms window with their
//!   critical-path attribution. Passive; requires tracing on the run.
//! * `--slo P:MS` — latency objective (e.g. `99:500` = 99% within 500 ms)
//!   feeding per-window violation counts and the burn-rate alert stream.
//!
//! A harness with flags of its own names them to
//! [`BenchArgs::parse_with`]; they and every non-flag argument are collected
//! into [`BenchArgs::rest`] for the harness to read, as is the `--bench`
//! flag `cargo bench` passes to every bench binary. Any other `--flag` is an
//! unknown-flag error, so a mistyped or retired flag never passes silently.

use ntier_core::experiment::Schedule;
use ntier_core::{
    FlightConfig, HardwareConfig, MetricsSink, RetryPolicy, SloPolicy, SoftAllocation, Tier,
    Topology, TopologyError,
};
use simcore::SimTime;
use std::path::PathBuf;
use workload::RetryBudget;

use crate::executor::Executor;

/// Parsed shared CLI flags.
#[derive(Debug, Clone, Default)]
pub struct BenchArgs {
    /// `--hw` override.
    pub hw: Option<HardwareConfig>,
    /// `--soft` override.
    pub soft: Option<SoftAllocation>,
    /// `--users` override.
    pub users: Option<Vec<u32>>,
    /// `--quick` flag.
    pub quick: bool,
    /// `--threads` worker-count override.
    pub threads: Option<usize>,
    /// `--store` artifact-store directory.
    pub store: Option<PathBuf>,
    /// `--faults` injection specs, in flag order.
    pub faults: Vec<FaultFlag>,
    /// `--retry` client retry-policy override.
    pub retry: Option<RetryPolicy>,
    /// `--retry-budget` fleet-wide budget override.
    pub retry_budget: Option<RetryBudget>,
    /// `--metrics` CSV sink (window defaults to 100 ms).
    pub metrics: Option<MetricsSink>,
    /// `--profile` flag: enable engine profiling on every run and print a
    /// phase-timing summary afterwards. Passive — the printed tables are
    /// bit-identical with or without it.
    pub profile: bool,
    /// `--tail-sample K`: arm the flight recorder, retaining the K slowest
    /// (plus all failed) traces per window. Passive — run outputs are
    /// bit-identical with or without it. Requires tracing to be enabled on
    /// the run (the recorder consumes the tracer's span stream).
    pub tail_sample: Option<u32>,
    /// `--slo P:MS`: latency objective driving the burn-rate alert stream
    /// (e.g. `99:500` = 99% of requests within 500 ms).
    pub slo: Option<SloPolicy>,
    /// The harness's own flags (see [`BenchArgs::parse_with`]), their
    /// values, and any other non-flag arguments, in order.
    pub rest: Vec<String>,
}

/// One `--faults` injection spec: which tier (and replica) is hit, and how.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultFlag {
    /// Tier the fault applies to.
    pub tier: Tier,
    /// Replica index within that tier (crash/slow; ignored for drops).
    pub replica: u16,
    /// What is injected.
    pub kind: FaultFlagKind,
}

/// The injection a [`FaultFlag`] performs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultFlagKind {
    /// `TIER[:REPLICA]@FROM[-TO]`: replica crash, optional recovery.
    Crash {
        /// Crash instant, in seconds.
        crash_at: f64,
        /// Recovery instant, or `None` for a permanent crash.
        recover_at: Option<f64>,
    },
    /// `TIER[:REPLICA]@FROM[-TO]*MULT`: slow-replica window.
    Slow {
        /// Slowdown start, in seconds.
        from: f64,
        /// Slowdown end, or `None` for the rest of the run.
        until: Option<f64>,
        /// Demand multiplier (> 1 ⇒ slower).
        multiplier: f64,
    },
    /// `TIER@drop=P`: drop each query arriving on the tier's ingress wire
    /// with probability `P`, for the whole run.
    Drop {
        /// Per-query drop probability.
        prob: f64,
    },
}

impl FaultFlag {
    /// Parse one injection spec, e.g. `cmw@60`, `db:1@40-70`,
    /// `db:1@40-70*5`, `db@drop=0.1`.
    fn parse(spec: &str) -> Result<Self, String> {
        let err = || {
            format!(
                "--faults '{spec}' must be TIER[:REPLICA]@FROM[-TO][*MULT] \
                 or TIER@drop=P"
            )
        };
        let (target, window) = spec.split_once('@').ok_or_else(err)?;
        let (tier_s, replica_s) = match target.split_once(':') {
            Some((t, r)) => (t, Some(r)),
            None => (target, None),
        };
        let tier = match tier_s.trim().to_ascii_lowercase().as_str() {
            "web" => Tier::Web,
            "app" => Tier::App,
            "cmw" => Tier::Cmw,
            "db" => Tier::Db,
            other => return Err(format!("--faults: unknown tier '{other}' (web/app/cmw/db)")),
        };
        let replica: u16 = match replica_s {
            Some(r) => r.trim().parse().map_err(|_| err())?,
            None => 0,
        };
        if let Some(p_s) = window.trim().strip_prefix("drop=") {
            let prob: f64 = p_s.trim().parse().map_err(|_| err())?;
            if !(0.0..=1.0).contains(&prob) || replica_s.is_some() {
                return Err(err());
            }
            return Ok(FaultFlag {
                tier,
                replica: 0,
                kind: FaultFlagKind::Drop { prob },
            });
        }
        let (window, mult_s) = match window.split_once('*') {
            Some((w, m)) => (w, Some(m)),
            None => (window, None),
        };
        let (from_s, to_s) = match window.split_once('-') {
            Some((f, t)) => (f, Some(t)),
            None => (window, None),
        };
        let from: f64 = from_s.trim().parse().map_err(|_| err())?;
        let until = match to_s {
            Some(t) => Some(t.trim().parse::<f64>().map_err(|_| err())?),
            None => None,
        };
        let kind = match mult_s {
            Some(m) => {
                let multiplier: f64 = m.trim().parse().map_err(|_| err())?;
                if multiplier < 1.0 {
                    return Err(err());
                }
                FaultFlagKind::Slow {
                    from,
                    until,
                    multiplier,
                }
            }
            None => FaultFlagKind::Crash {
                crash_at: from,
                recover_at: until,
            },
        };
        Ok(FaultFlag {
            tier,
            replica,
            kind,
        })
    }
}

impl BenchArgs {
    /// Parse the process arguments; exits with a message on an unknown or
    /// malformed flag (the only abort left at the CLI boundary — everything
    /// below it returns `Result`).
    pub fn parse() -> Self {
        Self::parse_with(&[])
    }

    /// [`parse`](Self::parse) for a harness that reads `extras` (its own
    /// flags) from [`rest`](Self::rest).
    pub fn parse_with(extras: &[&str]) -> Self {
        match Self::try_parse_from(std::env::args().skip(1), extras) {
            Ok(out) => out,
            Err(msg) => {
                eprintln!("bench flags: {msg}");
                std::process::exit(2);
            }
        }
    }

    /// Fallible parse. The harness's `extras`, `--bench` and non-flag
    /// arguments are collected into `rest`; an unknown flag or a malformed
    /// value for a known one is returned as an error.
    pub fn try_parse_from(
        args: impl IntoIterator<Item = String>,
        extras: &[&str],
    ) -> Result<Self, String> {
        let mut out = BenchArgs::default();
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--hw" => match args.next().map(|v| v.parse()) {
                    Some(Ok(hw)) => out.hw = Some(hw),
                    Some(Err(e)) => return Err(e),
                    None => return Err("--hw needs a value".into()),
                },
                "--soft" => match args.next().map(|v| v.parse()) {
                    Some(Ok(soft)) => out.soft = Some(soft),
                    Some(Err(e)) => return Err(e),
                    None => return Err("--soft needs a value".into()),
                },
                "--users" => {
                    let Some(v) = args.next() else {
                        return Err("--users needs a value".into());
                    };
                    let list: Result<Vec<u32>, _> =
                        v.split(',').map(|p| p.trim().parse::<u32>()).collect();
                    match list {
                        Ok(list) if !list.is_empty() => out.users = Some(list),
                        _ => return Err(format!("--users '{v}' must be N[,N…]")),
                    }
                }
                "--threads" => {
                    let Some(v) = args.next() else {
                        return Err("--threads needs a value".into());
                    };
                    match v.trim().parse::<usize>() {
                        Ok(n) if n >= 1 => out.threads = Some(n),
                        _ => return Err(format!("--threads '{v}' must be a count ≥ 1")),
                    }
                }
                "--store" => {
                    let Some(v) = args.next() else {
                        return Err("--store needs a directory".into());
                    };
                    out.store = Some(PathBuf::from(v));
                }
                "--faults" => {
                    let Some(v) = args.next() else {
                        return Err("--faults needs a value".into());
                    };
                    for part in v.split(',') {
                        out.faults.push(FaultFlag::parse(part.trim())?);
                    }
                }
                "--retry" => match args.next().map(|v| v.parse::<RetryPolicy>()) {
                    Some(Ok(policy)) => out.retry = Some(policy),
                    Some(Err(e)) => return Err(e),
                    None => return Err("--retry needs off | naive:N | backoff:…".into()),
                },
                "--retry-budget" => match args.next().map(|v| v.parse::<RetryBudget>()) {
                    Some(Ok(budget)) => out.retry_budget = Some(budget),
                    Some(Err(e)) => return Err(e),
                    None => return Err("--retry-budget needs off | RATIO[:BURST]".into()),
                },
                "--metrics" => {
                    let Some(v) = args.next() else {
                        return Err("--metrics needs PATH[:WINDOW_MS]".into());
                    };
                    out.metrics = Some(MetricsSink::parse(&v)?);
                }
                "--tail-sample" => {
                    let Some(v) = args.next() else {
                        return Err("--tail-sample needs a per-window count K".into());
                    };
                    match v.trim().parse::<u32>() {
                        Ok(k) if k >= 1 => out.tail_sample = Some(k),
                        _ => return Err(format!("--tail-sample '{v}' must be a count ≥ 1")),
                    }
                }
                "--slo" => {
                    let Some(v) = args.next() else {
                        return Err("--slo needs P:MS, e.g. 99:500".into());
                    };
                    out.slo = Some(SloPolicy::parse(&v)?);
                }
                "--quick" => out.quick = true,
                "--profile" => out.profile = true,
                flag if flag.starts_with("--") && flag != "--bench" && !extras.contains(&flag) => {
                    return Err(format!("unknown flag '{flag}'"))
                }
                _ => out.rest.push(arg),
            }
        }
        Ok(out)
    }

    /// Attach the `--faults` injections (crash windows, slow-replica
    /// windows, wire drops) to `topo` and re-validate, surfacing scope
    /// violations (e.g. crashing a Web tier) as a [`TopologyError`] rather
    /// than a panic at system assembly.
    pub fn apply_faults(&self, topo: &mut Topology) -> Result<(), TopologyError> {
        for f in &self.faults {
            let Some(spec) = topo.tiers.iter_mut().find(|s| s.role == f.tier) else {
                return Err(TopologyError::UnsupportedChain(format!(
                    "--faults names a {} tier the chain does not have",
                    f.tier
                )));
            };
            let fault = std::mem::take(&mut spec.fault);
            spec.fault = match f.kind {
                FaultFlagKind::Crash {
                    crash_at,
                    recover_at,
                } => fault.with_crash(
                    f.replica,
                    SimTime::from_secs_f64(crash_at),
                    recover_at.map(SimTime::from_secs_f64),
                ),
                FaultFlagKind::Slow {
                    from,
                    until,
                    multiplier,
                } => fault.with_slow(
                    f.replica,
                    SimTime::from_secs_f64(from),
                    until.map(SimTime::from_secs_f64),
                    multiplier,
                ),
                FaultFlagKind::Drop { prob } => fault.with_drop_prob(prob),
            };
        }
        topo.validate()
    }

    /// The harness's hardware unless overridden.
    pub fn hw_or(&self, default: HardwareConfig) -> HardwareConfig {
        self.hw.unwrap_or(default)
    }

    /// The harness's allocation unless overridden.
    pub fn soft_or(&self, default: SoftAllocation) -> SoftAllocation {
        self.soft.unwrap_or(default)
    }

    /// The harness's workload sweep unless overridden.
    pub fn users_or(&self, default: Vec<u32>) -> Vec<u32> {
        self.users.clone().unwrap_or(default)
    }

    /// Trial schedule, honoring `--quick`.
    pub fn schedule(&self) -> Schedule {
        if self.quick {
            Schedule::Quick
        } else {
            Schedule::Default
        }
    }

    /// Plan executor, honoring `--threads` (parallel over all cores by
    /// default).
    pub fn executor(&self) -> Executor {
        match self.threads {
            Some(n) => Executor::with_threads(n),
            None => Executor::parallel(),
        }
    }

    /// The flight-recorder configuration implied by `--tail-sample`
    /// ([`FlightConfig::Off`] when the flag is absent).
    pub fn flight(&self) -> FlightConfig {
        match self.tail_sample {
            Some(k) => FlightConfig::tail(k),
            None => FlightConfig::Off,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(list: &[&str]) -> Result<BenchArgs, String> {
        BenchArgs::try_parse_from(list.iter().map(|s| s.to_string()), &["--window"])
    }

    #[test]
    fn try_parse_surfaces_errors_instead_of_aborting() {
        assert!(parse(&["--hw", "not-a-topology"]).is_err());
        assert!(parse(&["--soft"]).is_err());
        assert!(parse(&["--users", "a,b"]).is_err());
        assert!(parse(&["--threads", "0"]).is_err());
        let ok = parse(&["--hw", "1/2/1/2", "--quick", "--profile", "--bench"]).expect("parses");
        assert_eq!(ok.hw, Some(HardwareConfig::one_two_one_two()));
        assert!(ok.quick);
        assert!(ok.profile);
        assert_eq!(ok.rest, vec!["--bench".to_string()]);
        assert!(!parse(&["--quick"]).expect("parses").profile);
        // A harness's own flags and their values pass through to `rest`.
        let ok = parse(&["--window", "250", "--quick"]).expect("parses");
        assert_eq!(ok.rest, vec!["--window".to_string(), "250".to_string()]);
        // Any other flag is an error, retired ones included: the calendar
        // queue is the only event-queue backend, and the engine runs every
        // shard on one thread, so `--queue` and `--par-run` are gone.
        for name in ["queue", "par-run", "frobnicate"] {
            let flag = format!("--{name}");
            assert_eq!(
                parse(&[flag.as_str(), "calendar"]).unwrap_err(),
                format!("unknown flag '{flag}'")
            );
        }
    }

    #[test]
    fn threads_and_store_flags() {
        let ok = parse(&["--threads", "4", "--store", "target/lab"]).expect("parses");
        assert_eq!(ok.threads, Some(4));
        assert_eq!(
            ok.executor().threads(),
            if cfg!(feature = "parallel") { 4 } else { 1 }
        );
        assert_eq!(ok.store, Some(PathBuf::from("target/lab")));
        assert!(BenchArgs::default().executor().threads() >= 1);
    }

    #[test]
    fn metrics_flag_parses_sink() {
        let ok = parse(&["--metrics", "out/fig2.csv:250"]).expect("parses");
        let sink = ok.metrics.expect("sink present");
        assert_eq!(sink.path, PathBuf::from("out/fig2.csv"));
        assert_eq!(sink.window, SimTime::from_millis(250));
        let ok = parse(&["--metrics", "fig2.csv"]).expect("parses");
        assert_eq!(ok.metrics.unwrap().window, SimTime::from_millis(100));
        assert!(parse(&["--metrics"]).is_err());
        assert!(parse(&["--metrics", "x.csv:0"]).is_err());
    }

    #[test]
    fn tail_sample_and_slo_flags() {
        let ok = parse(&["--tail-sample", "8", "--slo", "99:500"]).expect("parses");
        assert_eq!(ok.tail_sample, Some(8));
        assert!(matches!(ok.flight(), FlightConfig::On { k_slowest: 8, .. }));
        let slo = ok.slo.expect("policy set");
        assert!((slo.target - 0.99).abs() < 1e-12);
        assert!((slo.threshold_secs - 0.5).abs() < 1e-12);
        assert!(parse(&["--tail-sample", "0"]).is_err());
        assert!(parse(&["--tail-sample"]).is_err());
        assert!(parse(&["--slo", "500"]).is_err());
        assert!(parse(&["--slo"]).is_err());
        let off = parse(&["--quick"]).expect("parses");
        assert_eq!(off.tail_sample, None);
        assert!(matches!(off.flight(), FlightConfig::Off));
        assert_eq!(off.slo, None);
    }

    #[test]
    fn fault_flag_parses_windows() {
        let f = FaultFlag::parse("db:1@40-70").expect("parses");
        assert_eq!((f.tier, f.replica), (Tier::Db, 1));
        assert_eq!(
            f.kind,
            FaultFlagKind::Crash {
                crash_at: 40.0,
                recover_at: Some(70.0)
            }
        );
        let f = FaultFlag::parse("cmw@60").expect("parses");
        assert_eq!((f.tier, f.replica), (Tier::Cmw, 0));
        assert_eq!(
            f.kind,
            FaultFlagKind::Crash {
                crash_at: 60.0,
                recover_at: None
            }
        );
        assert!(FaultFlag::parse("disk@40").is_err());
        assert!(FaultFlag::parse("db:1").is_err());
    }

    #[test]
    fn fault_flag_parses_slow_and_drop() {
        let f = FaultFlag::parse("db:1@40-70*5").expect("parses");
        assert_eq!((f.tier, f.replica), (Tier::Db, 1));
        assert_eq!(
            f.kind,
            FaultFlagKind::Slow {
                from: 40.0,
                until: Some(70.0),
                multiplier: 5.0
            }
        );
        let f = FaultFlag::parse("cmw@30*2.5").expect("parses");
        assert_eq!(
            f.kind,
            FaultFlagKind::Slow {
                from: 30.0,
                until: None,
                multiplier: 2.5
            }
        );
        let f = FaultFlag::parse("db@drop=0.1").expect("parses");
        assert_eq!((f.tier, f.replica), (Tier::Db, 0));
        assert_eq!(f.kind, FaultFlagKind::Drop { prob: 0.1 });
        // Sub-unity multipliers, out-of-range probabilities, and per-replica
        // drops are rejected.
        assert!(FaultFlag::parse("db@40-70*0.5").is_err());
        assert!(FaultFlag::parse("db@drop=1.5").is_err());
        assert!(FaultFlag::parse("db:1@drop=0.1").is_err());
    }

    #[test]
    fn retry_flags_parse_policy_and_budget() {
        let ok = parse(&["--retry", "naive:3", "--retry-budget", "0.1:20"]).expect("parses");
        let retry = ok.retry.expect("policy set");
        assert_eq!(retry.max_attempts, 3);
        let budget = ok.retry_budget.expect("budget set");
        assert_eq!((budget.ratio, budget.burst), (0.1, 20.0));
        assert!(parse(&["--retry", "eager"]).is_err());
        assert!(parse(&["--retry"]).is_err());
        assert!(parse(&["--retry-budget", "-1"]).is_err());
        let off = parse(&["--retry", "off", "--retry-budget", "off"]).expect("parses");
        assert!(off.retry.expect("set").is_disabled());
        assert!(off.retry_budget.expect("set").is_disabled());
    }

    #[test]
    fn apply_faults_validates_scope() {
        let hw = HardwareConfig::one_two_one_two();
        let soft = SoftAllocation::rule_of_thumb();
        let args = parse(&["--faults", "db:1@40-70"]).expect("parses");
        let mut topo = Topology::paper(hw, soft);
        args.apply_faults(&mut topo).expect("db crash is in scope");
        assert_eq!(topo.tiers[3].fault.crashes.len(), 1);

        // Slow and drop specs land on the fault schedule too.
        let args = parse(&["--faults", "cmw@20-30*4,db@drop=0.05"]).expect("parses");
        let mut topo = Topology::paper(hw, soft);
        args.apply_faults(&mut topo).expect("slow+drop in scope");
        assert_eq!(topo.tiers[2].fault.slow.len(), 1);
        assert_eq!(topo.tiers[3].fault.drop_prob, 0.05);

        // Crashing the web tier is out of scope → TopologyError, not a panic.
        let bad = parse(&["--faults", "web@40"]).expect("parses");
        let mut topo = Topology::paper(hw, soft);
        assert!(bad.apply_faults(&mut topo).is_err());
    }
}
