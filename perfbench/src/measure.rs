//! Measurement: runs repetitions of one workload in fresh child
//! processes for the requested seconds, checks their outputs, and prints
//! every metric with its unit, then the one-line JSON result.
//!
//! A fresh process per repetition makes `peak_rss_mb` that repetition's own
//! `VmHWM` and leaves no allocator state behind between repetitions.

use crate::catalog::{self, Metric};
use crate::cli::Workload;
use crate::host;
use crate::workloads::median;
use ntier_trace::json::{obj, Json};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Scratch space for stores and span files, inside the checkout.
pub const WORK_DIR: &str = ".bench_build/perfbench";

/// Fewest untraced repetitions behind an end-to-end median.
const MIN_REPS: usize = 3;
/// A repetition that runs longer than this is killed and counted failed.
const CHILD_TIMEOUT: Duration = Duration::from_secs(120);
/// No repetition starts after this much time, whatever the minimums say.
const START_DEADLINE: Duration = Duration::from_secs(45);

/// What one child repetition reported.
#[derive(Debug)]
struct ChildRep {
    traced: bool,
    wall_s: f64,
    events: f64,
    setup_s: f64,
    peak_rss_mib: f64,
    digest: String,
    layers: Vec<(String, f64)>,
}

/// Measure `workload` and print the result; returns the exit code.
pub fn bench(workload: Workload, seed: u64, seconds: u64, trace: bool) -> i32 {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("perfbench: cannot locate own executable: {e}");
            return 2;
        }
    };
    let host = host::facts();
    println!("host {}", host.to_compact());
    let budget = Duration::from_secs(seconds).min(START_DEADLINE);
    let start = Instant::now();
    let mut reps: Vec<ChildRep> = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    loop {
        let untraced = reps.iter().filter(|r| !r.traced).count();
        let traced_done = reps.iter().filter(|r| r.traced).count();
        let enough = if trace {
            untraced >= 1 && traced_done >= 1
        } else {
            untraced >= MIN_REPS
        };
        let elapsed = start.elapsed();
        if (enough && elapsed >= budget) || (elapsed >= START_DEADLINE && attempted > 0) {
            break;
        }
        // The traced run alternates with untraced ones, so the tracing
        // overhead compares neighbours under the same machine load.
        let traced = trace && attempted % 2 == 1;
        attempted += 1;
        match run_child(&exe, workload, seed, traced) {
            Ok(rep) => {
                eprintln!(
                    "[repetition {attempted}{}: wall_s {:.4} setup_s {:.4} peak_rss_mb {:.1}]",
                    if traced { " traced" } else { "" },
                    rep.wall_s,
                    rep.setup_s,
                    rep.peak_rss_mib
                );
                reps.push(rep);
            }
            Err(e) => {
                failed += 1;
                eprintln!("perfbench: repetition {attempted} failed: {e}");
            }
        }
    }
    // Seeds outside the pinned table are checked for determinism instead:
    // every repetition must reproduce the first one's output digest.
    if let Some(first) = reps.first().map(|r| r.digest.clone()) {
        let before = reps.len();
        reps.retain(|r| r.digest == first);
        let diverged = (before - reps.len()) as u64;
        if diverged > 0 {
            eprintln!("perfbench: {diverged} repetitions diverged from digest {first}");
        }
        failed += diverged;
    }

    let metrics = if trace {
        layer_metrics(&reps, failed as f64 / attempted as f64)
    } else {
        end_to_end_metrics(&reps)
    };
    for (m, v) in &metrics {
        println!("{:<34} {:>16.6} {}", m.name, v, m.unit);
    }
    let result = obj([
        ("correct", Json::from(failed == 0)),
        ("attempted", attempted.into()),
        ("failed", failed.into()),
        (
            "metrics",
            Json::Obj(
                metrics
                    .iter()
                    .map(|(m, v)| {
                        let entry = obj([("value", Json::from(*v)), ("unit", m.unit.into())]);
                        (m.name.to_string(), entry)
                    })
                    .collect(),
            ),
        ),
    ]);
    println!("{}", result.to_compact());
    0
}

fn median_of(reps: &[&ChildRep], f: impl Fn(&ChildRep) -> f64) -> f64 {
    median(&mut reps.iter().map(|r| f(r)).collect::<Vec<_>>())
}

fn end_to_end_metrics(reps: &[ChildRep]) -> Vec<(Metric, f64)> {
    let untraced: Vec<&ChildRep> = reps.iter().filter(|r| !r.traced).collect();
    catalog::END_TO_END
        .iter()
        .map(|&m| {
            let v = match m.name {
                "wall_s" => median_of(&untraced, |r| r.wall_s),
                "events_per_sec" => median_of(&untraced, |r| r.events / r.wall_s),
                "setup_s" => median_of(&untraced, |r| r.setup_s),
                _ => median_of(&untraced, |r| r.peak_rss_mib),
            };
            (m, v)
        })
        .collect()
}

fn layer_metrics(reps: &[ChildRep], failed_frac: f64) -> Vec<(Metric, f64)> {
    let traced: Vec<&ChildRep> = reps.iter().filter(|r| r.traced).collect();
    let untraced: Vec<&ChildRep> = reps.iter().filter(|r| !r.traced).collect();
    catalog::per_layer()
        .into_iter()
        .map(|m| {
            let v = match m.name {
                "bench.tracing_overhead" => {
                    median_of(&traced, |r| r.wall_s) / median_of(&untraced, |r| r.wall_s)
                }
                "bench.failed_frac" => failed_frac,
                name => median_of(&traced, |r| {
                    r.layers
                        .iter()
                        .find(|(n, _)| n == name)
                        .map_or(f64::NAN, |(_, v)| *v)
                }),
            };
            (m, v)
        })
        .collect()
}

/// Run one repetition in a fresh child process and parse its report.
fn run_child(exe: &Path, workload: Workload, seed: u64, traced: bool) -> Result<ChildRep, String> {
    let mut cmd = Command::new(exe);
    cmd.args([
        "child",
        "--workload",
        workload.name(),
        "--seed",
        &seed.to_string(),
    ]);
    if traced {
        cmd.arg("--traced");
    }
    let child = cmd
        .stdout(Stdio::piped())
        .stdin(Stdio::null())
        .spawn()
        .map_err(|e| format!("spawn: {e}"))?;
    let out = wait_bounded(child)?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!("child exited with {}", out.status));
    }
    let line = stdout.lines().last().ok_or("child printed nothing")?;
    parse_rep(line, traced)
}

/// Wait for a child, killing it past [`CHILD_TIMEOUT`]. The child's report
/// is one short line, far below the pipe buffer, so polling cannot
/// deadlock on a full pipe.
fn wait_bounded(mut child: Child) -> Result<std::process::Output, String> {
    let t = Instant::now();
    loop {
        match child.try_wait() {
            Ok(Some(_)) => return child.wait_with_output().map_err(|e| e.to_string()),
            Ok(None) if t.elapsed() > CHILD_TIMEOUT => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!("killed after {}s", CHILD_TIMEOUT.as_secs()));
            }
            Ok(None) => std::thread::sleep(Duration::from_millis(5)),
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(e.to_string());
            }
        }
    }
}

fn parse_rep(line: &str, traced: bool) -> Result<ChildRep, String> {
    let doc = Json::parse(line).map_err(|e| format!("child report: {e}"))?;
    let num = |k: &str| {
        doc.get(k)
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("child report lacks '{k}'"))
    };
    let layers = match doc.get("layers") {
        Some(Json::Obj(pairs)) => pairs
            .iter()
            .map(|(k, v)| (k.clone(), v.as_f64().unwrap_or(f64::NAN)))
            .collect(),
        _ => Vec::new(),
    };
    Ok(ChildRep {
        traced,
        wall_s: num("wall_s")?,
        events: num("events")?,
        setup_s: num("setup_s")?,
        peak_rss_mib: num("peak_rss_mib")?,
        digest: doc
            .get("digest")
            .and_then(Json::as_str)
            .ok_or("child report lacks 'digest'")?
            .to_string(),
        layers,
    })
}

/// Where a traced child writes its spans.
pub fn spans_path(workload: Workload, seed: u64) -> PathBuf {
    Path::new(WORK_DIR).join(format!(
        "spans-{}-seed{seed}-pid{}.jsonl",
        workload.name(),
        std::process::id()
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn child_report_round_trips() {
        let line = r#"{"wall_s":1.5,"events":3000,"setup_s":0.002,"peak_rss_mib":19.5,"digest":"00ff","layers":{"simcore.rounds":12}}"#;
        let rep = parse_rep(line, true).expect("parses");
        assert_eq!(rep.events, 3000.0);
        assert_eq!(rep.layers, vec![("simcore.rounds".to_string(), 12.0)]);
        assert!(parse_rep(r#"{"wall_s":1}"#, false).is_err());
        assert!(parse_rep("not json", false).is_err());
    }

    #[test]
    fn layer_medians_and_overhead() {
        let rep = |traced, wall_s| ChildRep {
            traced,
            wall_s,
            events: 10.0,
            setup_s: 0.1,
            peak_rss_mib: 1.0,
            digest: "0".into(),
            layers: vec![("simcore.rounds".into(), wall_s)],
        };
        let reps = [
            rep(false, 1.0),
            rep(true, 1.2),
            rep(false, 1.0),
            rep(true, 1.4),
        ];
        let m = layer_metrics(&reps, 0.0);
        let get = |n: &str| m.iter().find(|(k, _)| k.name == n).expect(n).1;
        assert!((get("bench.tracing_overhead") - 1.3).abs() < 1e-12);
        assert!((get("simcore.rounds") - 1.3).abs() < 1e-12);
        assert_eq!(m.len(), catalog::per_layer().len());
        let e2e = end_to_end_metrics(&reps);
        assert_eq!(e2e.len(), catalog::END_TO_END.len());
        assert_eq!(e2e[0].1, 1.0);
    }
}
