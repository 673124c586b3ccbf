//! perfbench — the repository benchmark.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload run-serial --seed 1 --seconds 35 --trace 0
//! ```
//!
//! measures one workload for the given seconds in fresh child processes
//! and prints every metric with its unit, then one JSON line:
//! `{"correct", "attempted", "failed", "metrics"}`. `--trace 0` gives the
//! end-to-end metrics; `--trace 1` the per-layer ones from a traced run,
//! whose spans land under `.bench_build/perfbench/`. `perfbench pin
//! --workload W --seeds A..B` prints the output digests for `pins.txt`.
//! See README.md beside this package for the workloads and the metrics.

mod catalog;
mod checks;
mod cli;
mod host;
mod measure;
mod spans;
mod workloads;

use cli::{Command, Workload};
use ntier_trace::json::{obj, Json};
use std::path::Path;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match cli::parse(&args) {
        Ok(Command::Bench {
            workload,
            seed,
            seconds,
            trace,
        }) => measure::bench(workload, seed, seconds, trace),
        Ok(Command::Child {
            workload,
            seed,
            traced,
        }) => match child(workload, seed, traced) {
            Ok(()) => 0,
            Err(e) => {
                eprintln!("perfbench child: {e}");
                1
            }
        },
        Ok(Command::Pin { workload, from, to }) => {
            for seed in from..=to {
                let digest = workloads::pin_digest(workload, seed);
                println!("{}", checks::pin_line(workload, seed, digest));
            }
            0
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            2
        }
    };
    std::process::exit(code);
}

/// One repetition: run, check, and print the report line the parent
/// parses. Scratch files live in a per-process directory removed on exit.
fn child(workload: Workload, seed: u64, traced: bool) -> Result<(), String> {
    let work = Path::new(measure::WORK_DIR).join(format!("work-{}", std::process::id()));
    std::fs::create_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;
    let rep = workloads::run(workload, seed, traced, &work);
    let _ = std::fs::remove_dir_all(&work);
    let rep = rep?;
    let peak_rss_mib = host::peak_rss_mib().ok_or("no VmHWM on this platform")?;
    if traced {
        let path = measure::spans_path(workload, seed);
        let header = obj([
            ("host", host::facts()),
            ("workload", workload.name().into()),
            ("seed", seed.into()),
        ]);
        let body = format!(
            "{}\n{}",
            header.to_compact(),
            rep.spans.to_jsonl(workload.name(), seed)
        );
        std::fs::write(&path, body).map_err(|e| format!("{}: {e}", path.display()))?;
        eprintln!("[spans: {}]", path.display());
    }
    if rep.pin == checks::Pin::Unpinned {
        eprintln!(
            "[{} seed {seed} has no pinned digest; checking repetitions agree]",
            workload.name()
        );
    }
    let layers = Json::Obj(
        rep.layers
            .iter()
            .map(|(k, v)| (k.to_string(), Json::from(*v)))
            .collect(),
    );
    let report = obj([
        ("wall_s", Json::from(rep.wall_s)),
        ("events", rep.events.into()),
        ("setup_s", rep.setup_s.into()),
        ("peak_rss_mib", peak_rss_mib.into()),
        ("digest", format!("{:016x}", rep.digest).into()),
        ("layers", layers),
    ]);
    println!("{}", report.to_compact());
    Ok(())
}
