//! Store-backed run-diff reporting, end to end: execute a before/after pair
//! of sweeps into an artifact store, load them back by manifest, compute the
//! structured diff with its three shape-check verdicts, render the report,
//! and emit the gnuplot artifact pair.
//!
//! "Before" is the paper's starved `400-6-6` conservative allocation,
//! "after" the practitioners' `400-150-60` rule of thumb, both on the
//! `1/2/1/2` topology — the Fig. 2 comparison, so the verdicts should read
//! as the paper argues: later knee, hotter critical tier, higher peak.
//!
//! ```text
//! cargo run --release --example report_demo
//! cargo run --release --example report_demo -- --store target/my-store
//! cargo run --release --example report_demo -- --patch-experiments
//! ```
//!
//! `--patch-experiments` splices the headline numbers into the marked block
//! of `EXPERIMENTS.md` (idempotent; prose untouched) — the doc-regeneration
//! flow CI asks for.

use rubbos_ntier::ntier_report::{experiments, render};
use rubbos_ntier::prelude::*;

fn main() {
    let args = BenchArgs::parse_with(&["--patch-experiments"]);
    let patch_experiments = args.rest.iter().any(|f| f == "--patch-experiments");
    let users = args.users_or(vec![1500, 2500, 3500, 4500, 5500]);

    // 1. Execute (or resume) the before/after pair into an artifact store.
    //    Variant 0 is the baseline, variant 1 the candidate.
    let plan = ExperimentPlan::new("report-demo")
        .with_schedule(if args.users.is_some() {
            args.schedule()
        } else {
            Schedule::Quick
        })
        .with_variant(
            Variant::paper(
                HardwareConfig::one_two_one_two(),
                SoftAllocation::conservative(),
            )
            .labeled("conservative-400-6-6"),
        )
        .with_variant(
            Variant::paper(
                HardwareConfig::one_two_one_two(),
                SoftAllocation::rule_of_thumb(),
            )
            .labeled("rule-of-thumb-400-150-60"),
        )
        .with_users(users);

    let dir = args
        .store
        .clone()
        .unwrap_or_else(|| "target/report_demo_store".into());
    let mut store = ArtifactStore::open(&dir).expect("store directory");
    let results = run_plan_with_store(&plan, &args.executor(), &mut store).expect("plan execution");
    println!(
        "plan 'report-demo': executed {}, reused {} from {}",
        results.executed,
        results.skipped,
        dir.display()
    );

    // 2. Load both sweeps back out of the store by manifest. Everything from
    //    here on reads artifacts — a corrupt or missing point is a
    //    ReportError, not a panic.
    let before = match load_sweep(&store, &plan, 0) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("report_demo: cannot load 'before' sweep: {e}");
            std::process::exit(1);
        }
    };
    let after = match load_sweep(&store, &plan, 1) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("report_demo: cannot load 'after' sweep: {e}");
            std::process::exit(1);
        }
    };

    // 3. Diff, check, render.
    let diff = RunDiff::compute(before, after);
    let report = Report::from_diff("Fig. 2 allocations on 1/2/1/2", &diff);
    println!("\n{}", report.plain_text());

    let artifacts = render::write_gnuplot(&diff, "report_demo").expect("gnuplot artifacts");
    for p in &artifacts {
        println!("[wrote {}]", p.display());
    }

    // 4. Optionally regenerate the EXPERIMENTS.md headline block in place.
    if patch_experiments {
        let path = rubbos_ntier::ntier_report::workspace_root().join("EXPERIMENTS.md");
        let text = std::fs::read_to_string(&path).expect("EXPERIMENTS.md");
        let patched = experiments::patch_marked_section(
            &text,
            experiments::BEGIN_MARK,
            experiments::END_MARK,
            &experiments::headline_markdown(&diff),
        );
        if patched != text {
            std::fs::write(&path, patched).expect("write EXPERIMENTS.md");
            println!("[patched {}]", path.display());
        } else {
            println!("[{} already up to date]", path.display());
        }
    }

    assert!(
        report.passed,
        "the rule-of-thumb allocation must out-scale the starved one"
    );
}
