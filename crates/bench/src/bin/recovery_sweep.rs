//! Morsel-recovery gate: seeded fault schedules × steal seeds × worker
//! counts over the parallel compiled executor.
//!
//! The only mode is the gate: it runs [`chaos::recovery_sweep`] — every seeded plan under
//! every adversarial schedule (transient io/checksum/truncated faults,
//! poison-pill panics, worker kills, persistent faults) at 1/2/4/8
//! workers with two steal seeds each — and exits non-zero unless every
//! recovering run is **byte-identical** to the serial oracle with exact
//! row/morsel conservation and zero duplicate partials, every persistent
//! schedule fails fast with a typed error, and the engine-level probes
//! show `ScanStats` (billing) untouched by recovery. A JSON summary of
//! the sweep is written for CI artifact upload.
//!
//! Scale knobs: `HEPQUERY_EVENTS`, `HEPQUERY_ROW_GROUP`,
//! `HEPQUERY_RECOVERY_SEED`, `HEPQUERY_RECOVERY_PLANS`,
//! `HEPQUERY_WATCHDOG`; the artifact path is `HEPQUERY_RECOVERY_OUT`
//! (default `recovery_sweep.json`).

use std::sync::Arc;

use chaos::recovery_sweep;
use hep_model::Event;
use hepbench_bench::{dataset, dataset_spec, env, run_gate};
use nf2_columnar::Table;

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

fn report_json(seed: u64, n_plans: usize, r: &chaos::RecoveryReport) -> String {
    let violations: Vec<String> = r
        .violations
        .iter()
        .map(|v| format!("    \"{}\"", json_escape(v)))
        .collect();
    format!(
        "{{\n  \"seed\": {seed},\n  \"plans\": {n_plans},\n  \"workers\": {:?},\n  \
         \"runs\": {},\n  \"clean_results\": {},\n  \"typed_errors\": {},\n  \
         \"interventions\": {},\n  \"workers_lost\": {},\n  \"passed\": {},\n  \
         \"violations\": [\n{}\n  ]\n}}\n",
        chaos::RECOVERY_SWEEP_WORKERS,
        r.runs,
        r.clean_results,
        r.typed_errors,
        r.interventions,
        r.workers_lost,
        r.passed(),
        violations.join(",\n")
    )
}

fn run_sweep(events: &[Event], table: &Arc<Table>) -> Vec<String> {
    let seed = env("HEPQUERY_RECOVERY_SEED", 0x09EC_04E9);
    let n_plans = env("HEPQUERY_RECOVERY_PLANS", 6);
    eprintln!("# recovery_sweep: {n_plans} plans, seed {seed:#x}");
    let report = recovery_sweep(seed, n_plans, events, table);
    eprintln!(
        "  {} runs: {} recovered byte-identically, {} typed fail-fast errors, \
         {} interventions, {} workers retired",
        report.runs,
        report.clean_results,
        report.typed_errors,
        report.interventions,
        report.workers_lost
    );
    let out = std::env::var("HEPQUERY_RECOVERY_OUT")
        .unwrap_or_else(|_| "recovery_sweep.json".to_string());
    if let Some(parent) = std::path::Path::new(&out).parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent).expect("create artifact dir");
        }
    }
    std::fs::write(&out, report_json(seed, n_plans, &report)).expect("write sweep json");
    eprintln!("# wrote {out}");
    let mut violations = report.violations;
    if report.interventions == 0 {
        violations.push("sweep never recovered anything — dead injector?".into());
    }
    if report.workers_lost == 0 {
        violations.push("worker-kill schedules never retired a worker".into());
    }
    if report.typed_errors == 0 {
        violations.push("persistent schedules never surfaced a typed error".into());
    }
    violations
}

fn main() {
    // The panic schedules unwind hundreds of injected panics through
    // `catch_unwind`; keep them out of the CI log while leaving genuine
    // panics loud.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let msg = info
            .payload()
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| info.payload().downcast_ref::<&str>().copied())
            .unwrap_or("");
        if !msg.contains("injected panic") {
            default_hook(info);
        }
    }));
    std::process::exit(run_gate("recovery_sweep", || {
        let (events, table) = dataset(dataset_spec(2_000, Some(256)));
        run_sweep(&events, &table)
    }));
}
