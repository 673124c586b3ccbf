//! The benchmark's metric catalog: every name it prints, with its unit.
//!
//! `BENCHMARK.json` at the repository root lists the same names; a test
//! keeps the two in step. End-to-end metrics are host time and host memory
//! of the untraced run. Per-layer metrics come from the traced run: times
//! from the benchmark's own spans around each crate's public calls, counts
//! from the program's public outputs. A time or count for a layer the
//! workload never calls reads 0.

/// One metric: name and unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> Metric {
    Metric { name, unit }
}

/// Metrics a user of the simulator sees, measured with the benchmark's
/// spans and the engine profiler off. Failures are reported by the result
/// line's own `attempted`/`failed` counts (and `bench.failed_frac` in the
/// traced run), not as a metric here: a metric that reads 0 on a healthy
/// commit has no median to take a spread against.
pub const END_TO_END: &[Metric] = &[
    m("wall_s", "s"),
    m("events_per_sec", "1/s"),
    m("setup_s", "s"),
    m("peak_rss_mb", "MiB"),
];

/// Shards the paper chain is cut into; a run with more folds the rest into
/// the last reported shard.
const SHARDS: usize = 3;

/// Every per-layer metric, in print order.
pub fn per_layer() -> Vec<Metric> {
    let mut v = vec![
        m("simcore.loop_s", "s"),
        m("simcore.events", "count"),
        m("simcore.events_scheduled", "count"),
        m("simcore.queue_high_water", "count"),
        m("simcore.rounds", "count"),
        // Sampled 1-in-64 profiler estimates; dispatch contains sched, and
        // pop + dispatch can exceed loop_s. Not additive.
        m("simcore.pop_s", "s_est"),
        m("simcore.dispatch_s", "s_est"),
        m("simcore.sched_s", "s_est"),
    ];
    v.extend(
        SHARD_FIELDS
            .iter()
            .flatten()
            .map(|&(name, unit)| m(name, unit)),
    );
    v.extend([
        m("tiers.run_s", "s"),
        m("tiers.nonloop_s", "s"),
        m("tiers.requests_completed", "count"),
        m("tiers.requests_failed", "count"),
    ]);
    v.extend(EVENT_METRICS.iter().map(|&name| m(name, "count")));
    v.extend([
        m("resources.pool_waits", "count"),
        m("resources.pool_cancelled", "count"),
        m("jvm-gc.collections", "count"),
        m("jvm-gc.gc_sim_s", "sim_s"),
        m("trace.spans", "count"),
        m("trace.spans_overwritten", "count"),
        m("trace.summary_s", "s"),
        m("trace.flight_retained", "count"),
        m("trace.flight_truncated_windows", "count"),
        m("trace.folded_s", "s"),
        m("metrics.csv_s", "s"),
        m("metrics.alerts_s", "s"),
        m("metrics.diagnose_s", "s"),
        m("lab.expand_s", "s"),
        m("lab.store_open_s", "s"),
        m("lab.sweep_s", "s"),
        m("lab.points_executed", "count"),
        m("lab.point_loop_s.p50", "s"),
        m("lab.point_loop_s.max", "s"),
        m("lab.executor_efficiency", "ratio"),
        m("lab.store_bytes", "bytes"),
        m("report.load_sweep_s", "s"),
        m("report.diff_s", "s"),
        m("report.render_s", "s"),
        m("sinks.armed_over_inert", "ratio"),
        m("sinks.armed_loop_s", "s"),
        m("sinks.inert_loop_s", "s"),
        m("bench.tracing_overhead", "ratio"),
        m("bench.ledger_gap_s", "s"),
        m("bench.failed_frac", "ratio"),
    ]);
    v.extend(SELF_METRICS.iter().map(|&name| m(name, "s")));
    v
}

const SHARD_FIELDS: [[(&str, &str); 3]; SHARDS] = [
    [
        ("simcore.shard0.events", "count"),
        ("simcore.shard0.busy_s", "s"),
        ("simcore.shard0.stall_s", "s"),
    ],
    [
        ("simcore.shard1.events", "count"),
        ("simcore.shard1.busy_s", "s"),
        ("simcore.shard1.stall_s", "s"),
    ],
    [
        ("simcore.shard2.events", "count"),
        ("simcore.shard2.busy_s", "s"),
        ("simcore.shard2.stall_s", "s"),
    ],
];

/// `(shard, field)` → metric name.
pub fn shard_metric(shard: usize, field: usize) -> &'static str {
    SHARD_FIELDS[shard.min(SHARDS - 1)][field].0
}

/// Counts per event kind a healthy paper-chain run dispatches, named after
/// the engine's labels. Labels outside this list are summed under
/// `tiers.event.other`.
const EVENT_METRICS: [&str; 17] = [
    "tiers.event.think-done",
    "tiers.event.req-arrive",
    "tiers.event.pool-granted",
    "tiers.event.conn-granted",
    "tiers.event.req-reply",
    "tiers.event.linger-done",
    "tiers.event.query-arrive",
    "tiers.event.disk-done",
    "tiers.event.query-reply",
    "tiers.event.query-done",
    "tiers.event.response-to-client",
    "tiers.event.cpu-check",
    "tiers.event.gc-end",
    "tiers.event.sample",
    "tiers.event.begin-measure",
    "tiers.event.end-measure",
    "tiers.event.other",
];

/// Metric name of an engine event label.
pub fn event_metric(label: &str) -> &'static str {
    EVENT_METRICS
        .iter()
        .find(|m| m.strip_prefix("tiers.event.") == Some(label))
        .unwrap_or(&"tiers.event.other")
}

/// Self time of each layer the benchmark's spans cover.
pub const SELF_METRICS: [&str; 6] = [
    "bench.self_s",
    "lab.self_s",
    "tiers.self_s",
    "trace.self_s",
    "metrics.self_s",
    "report.self_s",
];

/// Metric name of a span layer's self time.
pub fn self_metric(layer: &str) -> Option<&'static str> {
    SELF_METRICS
        .iter()
        .find(|m| m.strip_suffix(".self_s") == Some(layer))
        .copied()
}

#[cfg(test)]
/// The benchmark's name grammar: starts with a letter or digit, at most 64
/// of letters, digits, `_`, `.` and `-`.
pub fn valid_name(name: &str) -> bool {
    let first_ok = name
        .chars()
        .next()
        .is_some_and(|c| c.is_ascii_alphanumeric());
    first_ok
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[cfg(test)]
/// The unit grammar: 1 to 16 of letters, digits, `_`, `/`, `%`, `.`, `-`.
pub fn valid_unit(unit: &str) -> bool {
    (1..=16).contains(&unit.len())
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ntier_trace::json::Json;
    use std::collections::BTreeSet;

    #[test]
    fn grammar_accepts_and_rejects() {
        for ok in [
            "wall_s",
            "simcore.shard0.busy_s",
            "jvm-gc.gc_sim_s",
            "9lives",
        ] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in ["", "_x", ".x", "-x", "a b", "a/b", "ünits", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad}");
        }
        for ok in ["s", "1/s", "MiB", "count", "%", "s_est"] {
            assert!(valid_unit(ok), "{ok}");
        }
        for bad in ["", "m s", &"u".repeat(17)] {
            assert!(!valid_unit(bad), "{bad}");
        }
    }

    #[test]
    fn every_catalog_name_is_valid_and_unique() {
        let all: Vec<Metric> = END_TO_END.iter().copied().chain(per_layer()).collect();
        let mut seen = BTreeSet::new();
        for metric in &all {
            assert!(valid_name(metric.name), "{}", metric.name);
            assert!(valid_unit(metric.unit), "{}", metric.unit);
            assert!(seen.insert(metric.name), "duplicate {}", metric.name);
        }
        assert!(per_layer().len() <= 128);
    }

    #[test]
    fn event_and_self_names_resolve() {
        assert_eq!(event_metric("gc-end"), "tiers.event.gc-end");
        assert_eq!(event_metric("hedge-fire"), "tiers.event.other");
        assert_eq!(self_metric("report"), Some("report.self_s"));
        assert_eq!(self_metric("simcore"), None);
        assert_eq!(shard_metric(7, 2), "simcore.shard2.stall_s");
    }

    /// `BENCHMARK.json` declares exactly the catalog, with the same units.
    #[test]
    fn benchmark_json_matches_catalog() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        let declared = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(Json::as_arr)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let field = |k| m.get(k).and_then(Json::as_str).expect("field").to_string();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let names = |ms: &[Metric]| -> Vec<(String, String)> {
            ms.iter()
                .map(|m| (m.name.to_string(), m.unit.to_string()))
                .collect()
        };
        assert_eq!(declared("end_to_end"), names(END_TO_END));
        assert_eq!(declared("per_layer"), names(&per_layer()));
    }
}
