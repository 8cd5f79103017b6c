//! Differential query fuzzing and the fault-sweep contract, at the scale
//! CI gates them: 2 000 events in 256-event row groups, every phase
//! seeded from [`FUZZ_SEED`].
//!
//! * Every seeded random plan over the CMS schema runs on all seven
//!   systems under test (BigQuery/Presto/Athena SQL, JSONiq, RDataFrame,
//!   the compiled physical-IR executor, and the compiled executor on the
//!   morsel-parallel fan-out at 3 workers) and must match the interpreter
//!   oracle **bin-for-bin** — in particular, parallel compiled execution
//!   never diverges from serial.
//! * A pruning arm re-runs plans with zone-map pruning forced off and on;
//!   both must match the oracle, so an unsound zone map cannot hide.
//! * Every fault class is swept over every engine: persistent faults
//!   surface typed `ScanError`s of the injected class, and one run under
//!   transient faults returns the oracle histogram and the fault-free
//!   `ScanStats`, the scan having re-read each faulted chunk in place.
//!   (The same contract through the service is
//!   `query-service/tests/read_retry.rs`.)

use std::sync::Arc;

use chaos::{differential_fuzz, fault_sweep, pruning_differential_fuzz, ALL_ENGINES, SWEPT_FAULTS};
use hep_model::{DatasetSpec, Event};
use hepbench_bench::{dataset, SEED};
use nf2_columnar::{FaultClass, Table};

/// The seed every phase derives its plans and fault schedules from.
const FUZZ_SEED: u64 = 0x5EED;

/// Plans of the differential phase.
const PLANS: usize = 200;

/// Plans of the pruning arm.
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
    assert_eq!(report.checks, PLANS * ALL_ENGINES.len());
    assert!(report.passed(), "{:#?}", report.divergences);
}

#[test]
fn pruning_on_and_off_match_the_oracle_on_every_fuzz_plan() {
    let (events, table) = data();
    let report = pruning_differential_fuzz(FUZZ_SEED, PRUNE_PLANS, &events, &table);
    assert_eq!(report.plans, PRUNE_PLANS);
    assert!(report.passed(), "{:#?}", report.divergences);
}

#[test]
fn fault_sweep_meets_the_contract() {
    let (events, table) = data();
    let reports = fault_sweep(FUZZ_SEED, FAULT_PLANS, &events, &table);
    assert_eq!(reports.len(), SWEPT_FAULTS.len());
    for r in &reports {
        assert!(r.passed(), "{:?}: {:#?}", r.class, r.violations);
        assert_eq!(r.clean_results + r.typed_errors, r.runs, "{:?}", r.class);
    }
    // The error classes must actually have fired, and the transient runs
    // must have re-read chunks to converge.
    let errors = reports.iter().filter(|r| r.class != FaultClass::Latency);
    assert!(errors.clone().any(|r| r.typed_errors > 0), "no typed error");
    assert!(errors.clone().all(|r| r.retries > 0), "no chunk re-read");
}
