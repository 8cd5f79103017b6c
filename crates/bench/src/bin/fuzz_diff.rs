//! Differential query-fuzzing and fault-injection gate.
//!
//! Three modes, all deterministic from their seeds:
//!
//! * `--check` — generates `HEPQUERY_FUZZ_PLANS` (default 200) seeded
//!   random plans over the CMS schema and executes every one on all seven
//!   systems under test (BigQuery/Presto/Athena SQL, JSONiq, RDataFrame,
//!   the compiled physical-IR executor, and the compiled executor on
//!   the morsel-parallel fan-out at 3 workers),
//!   comparing each histogram **bin-for-bin** against the interpreter
//!   oracle. Any divergence or fault-free failure exits non-zero — in
//!   particular, any parallel-vs-serial compiled divergence. A second
//!   pruning arm (`HEPQUERY_FUZZ_PRUNE_PLANS`, default 60) re-runs each
//!   plan with zone-map pruning forced off and on and requires both to
//!   match the oracle, so an unsound zone map cannot hide.
//! * `--faults` — sweeps every fault class over a smaller plan budget
//!   (persistent faults must surface typed `ScanError`s; one run under
//!   transient faults must return the oracle histogram and the
//!   fault-free `ScanStats`, the scan having re-read each faulted chunk
//!   in place), then drives a [`query_service::QueryService`] on its
//!   default configuration with a transient injector across the
//!   (system × query) grid and asserts every request completes on its
//!   first execution with the fault-free histogram and `ScanStats`, zero
//!   failed requests, and recovered chunk reads showing the faults fired.
//! * default — both, with the same budgets.
//!
//! Scale knobs: `HEPQUERY_EVENTS`, `HEPQUERY_ROW_GROUP`,
//! `HEPQUERY_FUZZ_SEED`, `HEPQUERY_FUZZ_PLANS`,
//! `HEPQUERY_FUZZ_FAULT_PLANS`, `HEPQUERY_WATCHDOG`.

use std::sync::Arc;

use chaos::{differential_fuzz, fault_sweep, pruning_differential_fuzz};
use hep_model::Event;
use hepbench_bench::{dataset, dataset_spec, env, run_gate};
use hepbench_core::runner::System;
use hepbench_core::ALL_QUERIES;
use nf2_columnar::{FaultConfig, FaultInjector, Table};
use query_service::{QueryRequest, QueryService, ServiceConfig};

/// Systems the service-level fault phase drives (one per
/// language/dialect, like `serve_smoke`).
const SYSTEMS: &[System] = &[
    System::BigQuery,
    System::AthenaV2,
    System::Presto,
    System::Rumble,
    System::RDataFrame,
];

/// The seed every phase derives its plans and fault schedules from.
fn fuzz_seed() -> u64 {
    env("HEPQUERY_FUZZ_SEED", 0x5EED)
}

/// Differential phase: every plan × every engine vs the oracle.
fn run_diff(events: &[Event], table: &Arc<Table>) -> Vec<String> {
    let seed = fuzz_seed();
    let n_plans = env("HEPQUERY_FUZZ_PLANS", 200);
    eprintln!("# fuzz_diff --check: {n_plans} plans, seed {seed:#x}");
    let report = differential_fuzz(seed, n_plans, events, table);
    eprintln!(
        "  {} plans x {} engines = {} comparisons, {} divergences",
        report.plans,
        chaos::ALL_ENGINES.len(),
        report.checks,
        report.divergences.len()
    );
    report.divergences
}

/// Pruning arm of the differential phase: every plan × every engine with
/// zone-map pruning forced off and on — both runs must match the oracle
/// bin-for-bin, so a zone map that over-prunes cannot hide.
fn run_pruning_diff(events: &[Event], table: &Arc<Table>) -> Vec<String> {
    let seed = fuzz_seed();
    let n_plans = env("HEPQUERY_FUZZ_PRUNE_PLANS", 60);
    eprintln!("# fuzz_diff --check (pruning arm): {n_plans} plans, seed {seed:#x}");
    let report = pruning_differential_fuzz(seed, n_plans, events, table);
    eprintln!(
        "  {} plans x {} engines x 2 pruning modes, {} divergences",
        report.plans,
        chaos::ALL_ENGINES.len(),
        report.divergences.len()
    );
    report.divergences
}

/// Fault phase 1: adapter-level sweep of every class on every engine.
fn run_fault_sweep(events: &[Event], table: &Arc<Table>) -> Vec<String> {
    let seed = fuzz_seed();
    let n_plans = env("HEPQUERY_FUZZ_FAULT_PLANS", 6);
    eprintln!("# fuzz_diff --faults: sweep over {n_plans} plans, seed {seed:#x}");
    let mut violations = Vec::new();
    let mut injected = 0;
    for report in fault_sweep(seed, n_plans, events, table) {
        eprintln!(
            "  {:<20} {} runs: {} clean, {} typed errors, {} chunk re-reads",
            report.class.name(),
            report.runs,
            report.clean_results,
            report.typed_errors,
            report.retries
        );
        injected += report.typed_errors as u64 + report.retries;
        violations.extend(report.violations);
    }
    if injected == 0 {
        violations.push("fault sweep never injected a fault — dead injector?".into());
    }
    violations
}

/// Fault phase 2: the service on its default configuration (result
/// cache off, so every request executes) behind a transient injector.
/// Every request across the (system × query) grid must be served on its
/// first execution with the histogram and `ScanStats` of a fault-free
/// service fed the same requests, and the injector must show recovered
/// reads — the faults fired and the scan re-read them.
fn run_service_faults(table: &Arc<Table>) -> Vec<String> {
    let seed = fuzz_seed();
    let injector = Arc::new(FaultInjector::new(FaultConfig {
        p_io: 0.04,
        p_checksum: 0.02,
        p_truncated: 0.02,
        transient_attempts: 1,
        ..FaultConfig::off(seed)
    }));
    // One worker each, so both buffer pools see the same request order.
    let service = |fault_injector| {
        QueryService::start(
            table.clone(),
            ServiceConfig {
                n_workers: 1,
                result_cache: false,
                fault_injector,
                ..ServiceConfig::default()
            },
        )
    };
    let (clean, faulty) = (service(None), service(Some(injector.clone())));
    let mut violations = Vec::new();
    let mut reads_retried = 0;
    for &system in SYSTEMS {
        for &query in ALL_QUERIES {
            let ctx = format!("{} {}", system.name(), query.name());
            let want = clean
                .execute(QueryRequest::new("chaos", system, query))
                .expect("fault-free run");
            let got = match faulty.execute(QueryRequest::new("chaos", system, query)) {
                Ok(resp) => resp,
                Err(e) => {
                    violations.push(format!("{ctx} did not survive transient faults: {e}"));
                    continue;
                }
            };
            if !got.histogram.counts_equal(&want.histogram) {
                violations.push(format!("{ctx} served a wrong histogram under faults"));
            }
            if got.stats.scan != want.stats.scan {
                violations.push(format!("{ctx} billed differently under faults"));
            }
            reads_retried += got.stats.reads_retried;
        }
    }
    let snap = faulty.stats();
    let counters = injector.counters();
    eprintln!(
        "  service: {} completed, {} failed, {} chunk re-reads; injector {} errors, {} recovered",
        snap.completed,
        snap.failed,
        reads_retried,
        counters.errors(),
        counters.recovered
    );
    if snap.failed != 0 {
        violations.push(format!(
            "{} requests failed under transient faults",
            snap.failed
        ));
    }
    if counters.recovered == 0 {
        violations.push("no read recovered — transient faults did not fire".into());
    }
    violations
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let check = args.iter().any(|a| a == "--check");
    let faults = args.iter().any(|a| a == "--faults");
    let both = !check && !faults;
    std::process::exit(run_gate("fuzz_diff", move || {
        let (events, table) = dataset(dataset_spec(2_000, Some(256)));
        let mut violations = Vec::new();
        if check || both {
            violations.extend(run_diff(&events, &table));
            violations.extend(run_pruning_diff(&events, &table));
        }
        if faults || both {
            violations.extend(run_fault_sweep(&events, &table));
            violations.extend(run_service_faults(&table));
        }
        violations
    }));
}
