//! Differential query-fuzzing and fault-injection gate.
//!
//! Three modes, all deterministic from their seeds:
//!
//! * `--check` — generates `HEPQUERY_FUZZ_PLANS` (default 200) seeded
//!   random plans over the CMS schema and executes every one on all seven
//!   systems under test (BigQuery/Presto/Athena SQL, JSONiq, RDataFrame,
//!   the compiled physical-IR executor, and the compiled executor on the
//!   morsel-parallel worker pool with a plan-derived steal seed),
//!   comparing each histogram **bin-for-bin** against the interpreter
//!   oracle. Any divergence or fault-free failure exits non-zero — in
//!   particular, any parallel-vs-serial compiled divergence. A second
//!   pruning arm (`HEPQUERY_FUZZ_PRUNE_PLANS`, default 60) re-runs each
//!   plan with zone-map pruning forced off and on and requires both to
//!   match the oracle, so an unsound zone map cannot hide.
//! * `--faults` — sweeps every fault class over a smaller plan budget
//!   (persistent faults must surface typed `ScanError`s, transient faults
//!   must converge to the oracle under bounded retry), then drives a
//!   [`query_service::QueryService`] with a transient injector across the
//!   (system × query) grid and asserts every request completes with the
//!   fault-free histogram while `retried > 0` shows the retry path ran.
//!   A third phase re-runs the storm against a service with **morsel
//!   recovery** on and asserts compiled-parallel requests absorb every
//!   fault below the attempt boundary: whole-query retries drop to zero
//!   while the per-response recovery counters show the morsel surface
//!   fired.
//! * default — both, with the same budgets.
//!
//! Scale knobs: `HEPQUERY_EVENTS`, `HEPQUERY_ROW_GROUP`,
//! `HEPQUERY_FUZZ_SEED`, `HEPQUERY_FUZZ_PLANS`,
//! `HEPQUERY_FUZZ_FAULT_PLANS`, `HEPQUERY_WATCHDOG`.

use std::sync::Arc;
use std::time::Duration;

use chaos::{differential_fuzz, fault_sweep, pruning_differential_fuzz};
use hep_model::Event;
use hepbench_bench::{dataset, dataset_spec, env, run_gate};
use hepbench_core::adapters::ExecEnv;
use hepbench_core::runner::{execute_engine, System};
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
            "  {:<20} {} runs: {} clean, {} typed errors, {} retries",
            report.class.name(),
            report.runs,
            report.clean_results,
            report.typed_errors,
            report.retries
        );
        injected += report.typed_errors + report.retries;
        violations.extend(report.violations);
    }
    if injected == 0 {
        violations.push("fault sweep never injected a fault — dead injector?".into());
    }
    violations
}

/// Fault phase 2: service-level retry. Every request across the
/// (system × query) grid must complete with the fault-free histogram,
/// and the retry counter must show the transient faults actually fired.
fn run_service_faults(table: &Arc<Table>) -> Vec<String> {
    let seed = fuzz_seed();
    let injector = Arc::new(FaultInjector::new(FaultConfig {
        p_io: 0.04,
        p_checksum: 0.02,
        p_truncated: 0.02,
        transient_attempts: 1,
        ..FaultConfig::off(seed)
    }));
    let service = QueryService::start(
        table.clone(),
        ServiceConfig {
            n_workers: 4,
            result_cache: false,
            fault_injector: Some(injector.clone()),
            max_retries: 64,
            retry_backoff: Duration::from_micros(200),
            ..ServiceConfig::default()
        },
    );
    let mut violations = Vec::new();
    for &system in SYSTEMS {
        for &query in ALL_QUERIES {
            let served = match service.execute(QueryRequest::new("chaos", system, query)) {
                Ok(resp) => resp,
                Err(e) => {
                    violations.push(format!(
                        "{} {} did not survive transient faults: {e}",
                        system.name(),
                        query.name()
                    ));
                    continue;
                }
            };
            let clean =
                execute_engine(system, table, query, &ExecEnv::seed()).expect("fault-free run");
            if !served.histogram.counts_equal(&clean.histogram) {
                violations.push(format!(
                    "{} {} served a wrong histogram under faults",
                    system.name(),
                    query.name()
                ));
            }
        }
    }
    let snap = service.stats();
    let counters = injector.counters();
    eprintln!(
        "  service: {} completed, {} failed, {} retries; injector {} errors, {} recovered",
        snap.completed,
        snap.failed,
        snap.retried,
        counters.errors(),
        counters.recovered
    );
    if snap.retried == 0 {
        violations.push("service never retried — transient faults did not fire".into());
    }
    violations
}

/// Fault phase 3: the same transient storm against a service with
/// **morsel recovery** on. Compiled-parallel requests must absorb every
/// fault below the attempt boundary: zero whole-query retries, recovery
/// counters > 0, fault-free histograms.
fn run_service_morsel_recovery(table: &Arc<Table>) -> Vec<String> {
    let seed = fuzz_seed();
    let injector = Arc::new(FaultInjector::new(FaultConfig {
        p_io: 0.15,
        transient_attempts: 1,
        ..FaultConfig::off(seed ^ 0x4ec0)
    }));
    let service = QueryService::start(
        table.clone(),
        ServiceConfig {
            n_workers: 2,
            result_cache: false,
            morsel_recovery: true,
            fault_injector: Some(injector.clone()),
            ..ServiceConfig::default()
        },
    );
    let mut violations = Vec::new();
    let mut interventions = 0;
    // Q6 is the only query the SQL frontend lowers, and Presto/Athena
    // share the canonical template — the grid that actually reaches the
    // compiled-parallel morsel path.
    for &system in &[System::Presto, System::AthenaV2] {
        for query in [hepbench_core::QueryId::Q6a, hepbench_core::QueryId::Q6b] {
            let req = QueryRequest::new("chaos", system, query)
                .via_compiled()
                .with_parallel_workers(4);
            let served = match service.execute(req) {
                Ok(resp) => resp,
                Err(e) => {
                    violations.push(format!(
                        "{} {} compiled-parallel did not recover at morsel level: {e}",
                        system.name(),
                        query.name()
                    ));
                    continue;
                }
            };
            let clean =
                execute_engine(system, table, query, &ExecEnv::seed()).expect("fault-free run");
            if !served.histogram.counts_equal(&clean.histogram) {
                violations.push(format!(
                    "{} {} served a wrong histogram under morsel recovery",
                    system.name(),
                    query.name()
                ));
            }
            interventions += served.stats.recovery.interventions();
        }
    }
    let snap = service.stats();
    eprintln!(
        "  morsel recovery: {} completed, {} whole-query retries, {} morsel interventions",
        snap.completed, snap.retried, interventions
    );
    // The whole point: transient faults that previously cost whole-query
    // retries are absorbed per morsel on the compiled-parallel path.
    if snap.retried != 0 {
        violations.push(format!(
            "{} whole-query retries despite morsel recovery",
            snap.retried
        ));
    }
    if interventions == 0 {
        violations.push("morsel recovery never intervened — faults not routed to morsels?".into());
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
            violations.extend(run_service_morsel_recovery(&table));
        }
        violations
    }));
}
