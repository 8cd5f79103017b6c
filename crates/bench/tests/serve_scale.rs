//! Tests for the open-loop load generator:
//!
//! 1. seeded determinism — the same seed yields a byte-identical
//!    arrival schedule, tenant/query assignment and digest, and the
//!    replayed benchmark record (modulo wall-clock fields) does not
//!    depend on the submitter thread count;
//! 2. the paper-fairness invariant survives the open-loop submission
//!    path — with every cache and overload knob off, a request routed
//!    through `submit(...arriving_at(t))` returns results byte-for-byte
//!    identical to the single-query seed path.

use std::sync::Arc;
use std::time::{Duration, Instant};

use hep_model::generator::build_dataset;
use hep_model::DatasetSpec;
use hepbench_bench::loadgen::{query_mix, run_open_loop, LoadConfig, Schedule};
use hepbench_core::adapters::ExecEnv;
use hepbench_core::engine_api::{engine_for, QuerySpec};
use query_service::{Outcome, QueryRequest, QueryService, ServiceConfig};

fn small_cfg() -> LoadConfig {
    LoadConfig {
        seed: 0x5EED,
        n_requests: 5_000,
        offered_qps: 400.0,
        n_tenants: 3_000,
        ..LoadConfig::default()
    }
}

#[test]
fn same_seed_is_byte_identical() {
    let cfg = small_cfg();
    let a = Schedule::generate(&cfg);
    let b = Schedule::generate(&cfg);
    // Byte-identical: every arrival instant, tenant and query slot.
    assert_eq!(a, b);
    assert_eq!(a.digest(), b.digest());
    // The digest is sensitive to any field: a different seed moves it.
    let c = Schedule::generate(&LoadConfig {
        seed: cfg.seed + 1,
        ..cfg.clone()
    });
    assert_ne!(a.arrivals, c.arrivals);
    assert_ne!(a.digest(), c.digest());
    // And so does any workload-shape knob.
    let d = Schedule::generate(&LoadConfig {
        tenant_zipf_s: cfg.tenant_zipf_s + 0.1,
        ..cfg.clone()
    });
    assert_ne!(a.digest(), d.digest());
}

/// Pins the generator's output for the default test seed: any change to
/// the sampling pipeline (gap distribution, zipf tables, draw order)
/// breaks replayability of previously recorded benchmark records and
/// must show up as a deliberate diff here.
#[test]
fn schedule_digest_is_pinned() {
    let s = Schedule::generate(&small_cfg());
    assert_eq!(s.digest(), PINNED_DIGEST, "digest {:#018x}", s.digest());
}

const PINNED_DIGEST: u64 = 0x7a23_4a4f_0e05_bc19;

/// The benchmark record's deterministic fields must not depend on how
/// many submitter threads replay the schedule: the schedule is decided
/// before the first submission, and with every rejection path disabled
/// each replay accounts for exactly `n_requests` completions. The
/// client's count of every outcome must also equal the service's
/// ledger.
#[test]
fn replay_is_thread_count_invariant() {
    let (_, table) = build_dataset(DatasetSpec {
        n_events: 200,
        row_group_size: 64,
        seed: 0xAD1B70,
    });
    let table = Arc::new(table);
    let cfg = LoadConfig {
        seed: 0xD1CE,
        n_requests: 120,
        offered_qps: 400.0,
        n_tenants: 50,
        // Cheap head of the mix only: a steep zipf keeps the replay
        // fast while still crossing tenants and systems.
        mix_zipf_s: 2.0,
        ..LoadConfig::default()
    };
    let schedule = Schedule::generate(&cfg);
    let slo = Duration::from_secs(600);
    let mut records = Vec::new();
    for n_submitters in [1, 4] {
        let service = QueryService::start(table.clone(), ServiceConfig::paper_fairness());
        let out = run_open_loop(&service, &schedule, n_submitters, slo);
        assert_eq!(out.submitted, cfg.n_requests as u64);
        assert_eq!(out.accounted(), out.submitted);
        assert_eq!(service.stats().submitted, out.submitted);
        assert_eq!(
            out.ledger_mismatches(&service),
            [],
            "client-side outcome counts (client, service) differ from the service's ledger"
        );
        records.push((
            out.submitted,
            Outcome::ALL.map(|o| out.count(o)),
            out.within_slo,
            out.latency.count(),
        ));
    }
    assert_eq!(
        records[0], records[1],
        "deterministic record fields differ across submitter counts"
    );
}

/// Open-loop arrival timestamps charge submitter lag to the request:
/// a request whose intended arrival was 80 ms ago reports ≥ 80 ms of
/// queue wait even though it is served immediately.
#[test]
fn late_submission_is_charged_from_intended_arrival() {
    let (_, table) = build_dataset(DatasetSpec {
        n_events: 200,
        row_group_size: 64,
        seed: 0xAD1B70,
    });
    let service = QueryService::start(Arc::new(table), ServiceConfig::paper_fairness());
    let (system, query) = query_mix()[0];
    let lag = Duration::from_millis(80);
    let resp = service
        .submit(QueryRequest::new("t0", system, query).arriving_at(Instant::now() - lag))
        .expect("admitted")
        .wait()
        .expect("served");
    assert!(
        resp.queue_seconds >= lag.as_secs_f64(),
        "queue wait {:.3}s hides the {:.3}s submitter lag",
        resp.queue_seconds,
        lag.as_secs_f64()
    );
    assert!(resp.total_seconds >= resp.queue_seconds);
}

/// Satellite regression: `ServiceConfig::paper_fairness()` stays
/// byte-identical to the seed single-query path when requests travel
/// the open-loop submission path (arrival timestamps on, every cache
/// and overload knob off) — the arrival plumbing must not perturb
/// results, scan accounting, or determinism.
#[test]
fn paper_fairness_is_byte_identical_through_open_loop_submission() {
    let (_, table) = build_dataset(DatasetSpec {
        n_events: 400,
        row_group_size: 128,
        seed: 0xAD1B70,
    });
    let table = Arc::new(table);
    let service = QueryService::start(table.clone(), ServiceConfig::paper_fairness());
    for (system, query) in query_mix() {
        let direct = engine_for(system, table.clone())
            .execute(&QuerySpec::benchmark(query), &ExecEnv::seed())
            .unwrap();
        let served = service
            .submit(QueryRequest::new("t0", system, query).arriving_at(Instant::now()))
            .expect("admitted")
            .wait()
            .expect("served");
        assert!(!served.from_result_cache);
        assert_eq!(
            served.histogram,
            direct.histogram,
            "{} {}: histogram differs through the open-loop path",
            system.name(),
            query.name()
        );
        assert_eq!(
            served.stats.scan,
            direct.stats.scan,
            "{} {}: scan accounting differs through the open-loop path",
            system.name(),
            query.name()
        );
    }
}
