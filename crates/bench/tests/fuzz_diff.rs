//! Differential query fuzzing and the fault-sweep contract, at the scale
//! CI gates them: 2 000 events in 256-event row groups, every phase
//! seeded from [`FUZZ_SEED`].
//!
//! * Every seeded random plan over the CMS schema runs on all seven
//!   systems under test (BigQuery/Presto/Athena SQL, JSONiq, RDataFrame,
//!   and the plan's physical-IR lowering on the serial compiled executor
//!   and on 3 morsel workers), once with zone-map pruning forced off and
//!   once forced on, and must match the interpreter oracle
//!   **bin-for-bin** — so parallel compiled execution never diverges
//!   from serial, and an unsound zone map cannot hide.
//! * The pruning-on half is not vacuous: on every engine that pushes the
//!   plan's scalar filters to the scan, forcing pruning on skips row
//!   groups, and on every engine it bills exactly the bytes pruning off
//!   scans less the bytes pruned, with the oracle histogram both ways.
//! * Every swept fault class runs over every engine: persistent faults
//!   surface typed `ScanError`s of the injected class, and one run under
//!   transient faults returns the oracle histogram and the fault-free
//!   `ScanStats`, the scan having re-read each faulted chunk in place.
//!   (The same contract through the service is
//!   `query-service/tests/read_retry.rs`.)

use std::sync::Arc;

use chaos::{
    differential_fuzz, fault_sweep, generate_plans, EngineUnderTest, ALL_ENGINES, SWEPT_FAULTS,
};
use hep_model::{DatasetSpec, Event};
use hepbench_bench::{dataset, SEED};
use hepbench_core::adapters::ExecEnv;
use nf2_columnar::{FaultClass, Table};

/// The seed every phase derives its plans and fault schedules from.
const FUZZ_SEED: u64 = 0x5EED;

/// Plans of the differential phase.
const PLANS: usize = 200;

/// Plans the pruning comparison runs.
const PRUNE_PLANS: usize = 60;

/// Plans of the fault sweep.
const FAULT_PLANS: usize = 6;

fn data() -> (Vec<Event>, Arc<Table>) {
    dataset(DatasetSpec {
        n_events: 2_000,
        row_group_size: 256,
        seed: SEED,
    })
}

#[test]
fn every_engine_matches_the_oracle_on_every_fuzz_plan() {
    let (events, table) = data();
    let report = differential_fuzz(FUZZ_SEED, PLANS, &events, &table);
    assert_eq!(report.plans, PLANS);
    // Each plan on each engine, pruning off and on.
    assert_eq!(report.checks, PLANS * ALL_ENGINES.len() * 2);
    assert!(report.passed(), "{:#?}", report.divergences);
}

#[test]
fn pruning_on_and_off_match_the_oracle_on_every_fuzz_plan() {
    let (events, table) = data();
    let env = |pruning| ExecEnv {
        zone_map_pruning: Some(pruning),
        ..ExecEnv::seed()
    };
    let plans = generate_plans(FUZZ_SEED, PRUNE_PLANS);
    for engine in ALL_ENGINES {
        let name = engine.name();
        let mut groups_pruned = 0;
        for plan in &plans {
            let label = plan.label();
            let off = engine.run(plan, &table, &env(false)).expect("pruning off");
            let on = engine.run(plan, &table, &env(true)).expect("pruning on");
            let oracle = plan.reference(&events);
            assert!(
                off.histogram.counts_equal(&oracle),
                "{label} {name}: off vs oracle"
            );
            assert!(
                on.histogram.counts_equal(&oracle),
                "{label} {name}: on vs oracle"
            );
            let (off, on) = (off.stats.scan, on.stats.scan);
            assert_eq!(
                off.groups_pruned, 0,
                "{label} {name}: pruned with pruning off"
            );
            assert_eq!(
                on.bytes_scanned + on.bytes_pruned,
                off.bytes_scanned,
                "{label} {name}: pruned bytes not conserved"
            );
            groups_pruned += on.groups_pruned;
        }
        // The SQL planner pushes no conjunct of the Presto and Athena
        // lowerings down to the scan (`filterable_predicates` in
        // `engine-sql`), so those two read every group either way.
        let pushes_down = !matches!(engine, EngineUnderTest::Presto | EngineUnderTest::Athena);
        assert_eq!(
            groups_pruned > 0,
            pushes_down,
            "{name}: {groups_pruned} groups pruned"
        );
    }
}

#[test]
fn fault_sweep_meets_the_contract() {
    let (events, table) = data();
    let reports = fault_sweep(FUZZ_SEED, FAULT_PLANS, &events, &table);
    assert_eq!(reports.len(), SWEPT_FAULTS.len());
    for r in &reports {
        assert!(r.passed(), "{:?}: {:#?}", r.class, r.violations);
        let typed_errors: usize = r.typed_errors.iter().sum();
        assert_eq!(r.clean_results + typed_errors, r.runs, "{:?}", r.class);
        // On every arm an error class must actually have fired, and the
        // transient runs must have re-read chunks to converge.
        let class = r.class;
        let fired = class != FaultClass::Latency;
        for (arm, engine) in ALL_ENGINES.iter().enumerate() {
            let (errors, retries, name) = (r.typed_errors[arm], r.retries[arm], engine.name());
            assert_eq!(errors > 0, fired, "{class:?} {name}: {errors} typed errors");
            assert_eq!(retries > 0, fired, "{class:?} {name}: {retries} re-reads");
        }
    }
}
