//! Serving gates: drives a [`query_service::QueryService`] with a mixed
//! multi-tenant workload and fails on broken admission, caching or
//! overload behaviour. (Serving *throughput and latency* are the
//! `serve_mix` workload of `benchmark/`, not this binary.)
//!
//! * `--check` — small data set; asserts that repeated queries hit the
//!   result cache, that every submitted request is accounted for and
//!   that no engine fails. A stuck admission queue trips the watchdog.
//! * `--overload` — a saturating deadline-storm workload must produce
//!   zero deadline overshoots beyond one row group of work; load
//!   shedding and an open circuit breaker must reject without touching
//!   the scan layer; hedged execution must win at least one race.
//! * no argument — both.
//!
//! Scale knobs: `HEPQUERY_EVENTS`, `HEPQUERY_ROW_GROUP`, `HEPQUERY_SEED`,
//! `HEPQUERY_SERVE_CLIENTS`, `HEPQUERY_SERVE_REQS`, `HEPQUERY_WATCHDOG`.

use std::sync::Arc;
use std::time::{Duration, Instant};

use hepbench_bench::{dataset, dataset_spec, env, run_gate};
use hepbench_core::runner::System;
use hepbench_core::ALL_QUERIES;
use nf2_columnar::{FaultClass, FaultConfig, FaultInjector};
use query_service::{
    BreakerConfig, BreakerState, HedgeConfig, QueryRequest, QueryService, ServiceConfig,
    ServiceError,
};

/// Systems the mixed workload draws from (one per language/dialect).
const SYSTEMS: &[System] = &[
    System::BigQuery,
    System::AthenaV2,
    System::Presto,
    System::Rumble,
    System::RDataFrame,
];

const TENANTS: usize = 4;

struct WorkloadReport {
    requests: usize,
    served: usize,
    rejected: usize,
    timed_out: usize,
    failed: usize,
    result_hits: usize,
}

/// Drives `clients` threads, each submitting `reqs_per_client` requests
/// drawn round-robin from the (system × query) grid, and waits for every
/// response.
fn drive(service: &QueryService, clients: usize, reqs_per_client: usize) -> WorkloadReport {
    let mix: Vec<(System, hepbench_core::QueryId)> = SYSTEMS
        .iter()
        .flat_map(|&s| ALL_QUERIES.iter().map(move |&q| (s, q)))
        .collect();
    let outcomes: Vec<Result<bool, ServiceError>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let mix = &mix;
                scope.spawn(move || {
                    let tenant = format!("t{}", c % TENANTS);
                    (0..reqs_per_client)
                        .map(|r| {
                            let (system, query) = mix[(c * reqs_per_client + r) % mix.len()];
                            service
                                .execute(QueryRequest::new(tenant.clone(), system, query))
                                .map(|resp| resp.from_result_cache)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread"))
            .collect()
    });
    let mut report = WorkloadReport {
        requests: outcomes.len(),
        served: 0,
        rejected: 0,
        timed_out: 0,
        failed: 0,
        result_hits: 0,
    };
    for outcome in outcomes {
        match outcome {
            Ok(from_cache) => {
                report.served += 1;
                if from_cache {
                    report.result_hits += 1;
                }
            }
            Err(ServiceError::QueryRejected { .. }) => report.rejected += 1,
            Err(ServiceError::QueryTimedOut { .. }) => report.timed_out += 1,
            Err(_) => report.failed += 1,
        }
    }
    report
}

/// Cache/admission gate: every request is accounted for and a repeated
/// workload produces result-cache hits.
fn check(table: &Arc<nf2_columnar::Table>) -> Vec<String> {
    let clients = env("HEPQUERY_SERVE_CLIENTS", 8);
    let reqs = env("HEPQUERY_SERVE_REQS", 3);
    eprintln!("# serve_smoke --check: {clients} clients x {reqs} requests");
    let service = QueryService::start(table.clone(), ServiceConfig::default());
    let first = drive(&service, clients, reqs);
    // Re-issue the same workload: every request that executed the
    // first time must now be a result-cache hit.
    let second = drive(&service, clients, reqs);
    let snap = service.stats();
    let (rc_hits, rc_misses) = service.result_cache_counters().unwrap_or((0, 0));
    let mut violations = Vec::new();
    let accounted = snap.completed + snap.rejected + snap.timed_out + snap.failed;
    if accounted != snap.submitted {
        violations.push(format!(
            "{} submitted but only {accounted} accounted for",
            snap.submitted
        ));
    }
    if first.served + second.served == 0 {
        violations.push("no request was served".into());
    }
    if second.result_hits == 0 {
        violations.push("repeated workload produced no result-cache hit".into());
    }
    if first.failed + second.failed > 0 {
        violations.push(format!("{} engine failures", first.failed + second.failed));
    }
    eprintln!(
        "  round 1: {}/{} served ({} cache hits); round 2: {}/{} served ({} cache hits)",
        first.served,
        first.requests,
        first.result_hits,
        second.served,
        second.requests,
        second.result_hits
    );
    eprintln!(
        "  result cache: {rc_hits} hits / {rc_misses} misses; {} completed, {} rejected, {} timed out",
        snap.completed, snap.rejected, snap.timed_out
    );
    violations
}

/// Outcome of the overload gate's deadline-storm scenario.
struct StormReport {
    requests: usize,
    cancelled: usize,
    timed_out: usize,
    rejected: usize,
    completed: usize,
    max_overshoot_seconds: f64,
    full_scans_cancelled: usize,
}

/// Saturates a latency-stormed service with short-deadline requests and
/// measures deadline overshoot per response. With every physical chunk
/// read slowed, a wide query cannot finish inside the deadline, so its
/// token must stop it — and nothing (cancelled, timed out, or a narrow
/// query that legitimately completes) may run past the deadline by more
/// than one row group of (artificially slow) work.
fn deadline_storm(table: &Arc<nf2_columnar::Table>, n_rows: u64) -> StormReport {
    const DEADLINE: Duration = Duration::from_millis(40);
    // One row group of work under the storm: each of the projection's
    // chunk reads sleeps 5 ms; the widest benchmark projection stays
    // well under 30 chunks per group.
    const GROUP_BUDGET: Duration = Duration::from_millis(150);
    let service = QueryService::start(
        table.clone(),
        ServiceConfig {
            n_workers: 2,
            queue_depth: 64,
            result_cache: false,
            chunk_cache_bytes: 0,
            max_retries: 0,
            fault_injector: Some(Arc::new(FaultInjector::new(FaultConfig {
                latency: Duration::from_millis(5),
                ..FaultConfig::only(FaultClass::Latency, 1.0, 0xDEAD)
            }))),
            ..ServiceConfig::default()
        },
    );
    let mix: Vec<(System, hepbench_core::QueryId)> = SYSTEMS
        .iter()
        .flat_map(|&s| ALL_QUERIES.iter().map(move |&q| (s, q)))
        .collect();
    let clients = 6;
    let reqs = 2;
    let outcomes: Vec<(Result<f64, ServiceError>, f64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let mix = &mix;
                let service = &service;
                scope.spawn(move || {
                    let tenant = format!("t{}", c % TENANTS);
                    (0..reqs)
                        .map(|r| {
                            let (system, query) = mix[(c * reqs + r) % mix.len()];
                            let t0 = Instant::now();
                            let outcome = service
                                .execute(QueryRequest {
                                    deadline: Some(DEADLINE),
                                    ..QueryRequest::new(tenant.clone(), system, query)
                                })
                                .map(|resp| resp.total_seconds);
                            (outcome, t0.elapsed().as_secs_f64())
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("storm client"))
            .collect()
    });
    let mut report = StormReport {
        requests: outcomes.len(),
        cancelled: 0,
        timed_out: 0,
        rejected: 0,
        completed: 0,
        max_overshoot_seconds: 0.0,
        full_scans_cancelled: 0,
    };
    for (outcome, elapsed) in outcomes {
        let overshoot = elapsed - DEADLINE.as_secs_f64() - GROUP_BUDGET.as_secs_f64();
        match outcome {
            // A narrow projection can finish inside the deadline — fine,
            // but a completion is held to the same overshoot bound: the
            // token must have stopped it had it run long.
            Ok(_) => {
                report.completed += 1;
                report.max_overshoot_seconds = report.max_overshoot_seconds.max(overshoot);
            }
            Err(ServiceError::Cancelled { rows_processed, .. }) => {
                report.cancelled += 1;
                report.max_overshoot_seconds = report.max_overshoot_seconds.max(overshoot);
                if rows_processed >= n_rows {
                    report.full_scans_cancelled += 1;
                }
            }
            Err(ServiceError::QueryTimedOut { .. }) => {
                report.timed_out += 1;
                report.max_overshoot_seconds = report.max_overshoot_seconds.max(overshoot);
            }
            Err(_) => report.rejected += 1,
        }
    }
    report
}

/// Overload gate: deadline storms cannot overshoot by more than one row
/// group of work, shedding and breakers reject without a scan, hedging
/// wins at least one race.
fn overload(table: &Arc<nf2_columnar::Table>) -> Vec<String> {
    eprintln!("# serve_smoke --overload");
    let storm = deadline_storm(table, table.n_rows() as u64);

    // Load shedding: prime the execution-time EWMA, pile a backlog
    // onto one worker, then measure how fast hopeless requests are
    // refused.
    let service = QueryService::start(
        table.clone(),
        ServiceConfig {
            n_workers: 1,
            result_cache: false,
            load_shedding: true,
            ..ServiceConfig::default()
        },
    );
    service
        .execute(QueryRequest::new(
            "t0",
            System::BigQuery,
            hepbench_core::QueryId::Q1,
        ))
        .expect("priming query");
    let backlog: Vec<_> = (0..8)
        .map(|_| {
            service
                .submit(QueryRequest::new(
                    "t0",
                    System::Rumble,
                    hepbench_core::QueryId::Q5,
                ))
                .expect("backlog submit")
        })
        .collect();
    let mut shed = 0usize;
    let mut shed_micros_max = 0.0f64;
    for _ in 0..8 {
        let t0 = Instant::now();
        let outcome = service.submit(QueryRequest {
            deadline: Some(Duration::from_nanos(1)),
            ..QueryRequest::new("t1", System::BigQuery, hepbench_core::QueryId::Q1)
        });
        let micros = t0.elapsed().as_secs_f64() * 1e6;
        if matches!(outcome, Err(ServiceError::QueryShedded { .. })) {
            shed += 1;
            shed_micros_max = shed_micros_max.max(micros);
        }
    }
    for t in backlog {
        let _ = t.wait();
    }
    drop(service);

    // Circuit breaker: a persistent I/O-fault storm must open the
    // breaker, after which admission rejects without executing.
    let service = QueryService::start(
        table.clone(),
        ServiceConfig {
            n_workers: 1,
            result_cache: false,
            chunk_cache_bytes: 0,
            max_retries: 0,
            fault_injector: Some(Arc::new(FaultInjector::new(FaultConfig {
                transient_attempts: 0,
                ..FaultConfig::only(FaultClass::Io, 1.0, 0xB0B0)
            }))),
            breaker: Some(BreakerConfig {
                cooldown: Duration::from_secs(600),
                ..BreakerConfig::default()
            }),
            ..ServiceConfig::default()
        },
    );
    for _ in 0..8 {
        let _ = service.execute(QueryRequest::new(
            "t0",
            System::BigQuery,
            hepbench_core::QueryId::Q1,
        ));
    }
    let breaker_open = service.breaker_state(System::BigQuery) == Some(BreakerState::Open);
    let t0 = Instant::now();
    let breaker_rejects = matches!(
        service.submit(QueryRequest::new(
            "t0",
            System::BigQuery,
            hepbench_core::QueryId::Q1
        )),
        Err(ServiceError::CircuitOpen { .. })
    );
    let breaker_reject_micros = t0.elapsed().as_secs_f64() * 1e6;
    drop(service);

    // Hedging: each race gets a fresh service so the execution-time
    // sample pool is empty and the zero floor delay launches the
    // hedge at t≈0 — the two identical attempts race on scheduling
    // alone, so over enough races the hedge must win at least one.
    let mut hedge_wins = 0u64;
    let mut hedge_launched = 0u64;
    for i in 0..60 {
        let service = QueryService::start(
            table.clone(),
            ServiceConfig {
                n_workers: 1,
                result_cache: false,
                chunk_cache_bytes: 0,
                hedge: Some(HedgeConfig {
                    percentile: 0.99,
                    min_delay: Duration::ZERO,
                }),
                ..ServiceConfig::default()
            },
        );
        service
            .execute(QueryRequest::new(
                "t0",
                SYSTEMS[i % SYSTEMS.len()],
                hepbench_core::QueryId::Q2,
            ))
            .expect("hedged query");
        let m = service.metrics_snapshot();
        hedge_wins += m.counter("hedge_wins");
        hedge_launched += m.counter("hedges_launched");
        if hedge_wins > 0 && i >= 9 {
            break;
        }
    }
    let mut violations = Vec::new();
    if storm.cancelled == 0 {
        violations.push("deadline storm cancelled no running query".into());
    }
    if storm.max_overshoot_seconds > 0.0 {
        violations.push(format!(
            "a deadline overshot its budget + one row group by {:.3}s",
            storm.max_overshoot_seconds
        ));
    }
    if storm.full_scans_cancelled > 0 {
        violations.push(format!(
            "{} cancellations reported a full scan's worth of rows",
            storm.full_scans_cancelled
        ));
    }
    if shed == 0 {
        violations.push("load shedding never fired under a saturated queue".into());
    }
    if !breaker_open {
        violations.push("breaker did not open under a persistent fault storm".into());
    }
    if !breaker_rejects {
        violations.push("open breaker did not reject at admission".into());
    }
    if hedge_wins == 0 {
        violations.push(format!(
            "hedging never won a race ({hedge_launched} launched)"
        ));
    }
    eprintln!(
        "  storm: {} requests, {} cancelled, {} timed out, {} completed, {} rejected, \
         max overshoot {:.3}s",
        storm.requests,
        storm.cancelled,
        storm.timed_out,
        storm.completed,
        storm.rejected,
        (storm.max_overshoot_seconds).max(0.0)
    );
    eprintln!(
        "  shed {shed}/8 (slowest {shed_micros_max:.0}µs); breaker open={breaker_open}, \
         rejected in {breaker_reject_micros:.0}µs; hedges {hedge_launched} launched, \
         {hedge_wins} wins"
    );
    violations
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let check_arg = args.iter().any(|a| a == "--check");
    let overload_arg = args.iter().any(|a| a == "--overload");
    let both = !check_arg && !overload_arg;
    std::process::exit(run_gate("serve_smoke", move || {
        let (_, table) = dataset(dataset_spec(1_500, Some(256)));
        let mut violations = Vec::new();
        if check_arg || both {
            violations.extend(check(&table));
        }
        if overload_arg || both {
            violations.extend(overload(&table));
        }
        violations
    }));
}
