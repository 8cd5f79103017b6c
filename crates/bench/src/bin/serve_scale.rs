//! Open-loop serving scale study (ROADMAP item 4): heavy-tailed load,
//! zipfian tenants, and p99/p999 SLO gates.
//!
//! The harness self-calibrates the service's saturation capacity with a
//! short closed-loop run, derives an SLO from the calibrated tail
//! (4 × the p99 single-query latency of the zipfian mix), then sweeps
//! offered load across a multiplier grid **open-loop** — every request
//! timestamped with its intended bounded-Pareto arrival instant
//! ([`hepbench_bench::loadgen`]), so queue delay under overload is
//! charged to latency instead of silently slowing the generator down
//! (no coordinated omission). Each grid point runs twice: once with
//! both overload knobs off (no deadline, no shedding — the queue just
//! grows) and once with deadlines and load shedding on, which is exactly
//! the contrast the gate asserts.
//!
//! Modes:
//!
//! * default — full multiplier grid (0.25×…4× capacity), tens of
//!   thousands of requests per point over thousands of tenants; writes
//!   the full goodput/latency curves to `serve_scale_curves.json` (or
//!   `HEPQUERY_SCALE_CURVES`).
//! * `--check` — the CI gate at a reduced request budget (a deadlock
//!   fails the run instead of hanging CI). Gates: every submitted
//!   request accounted for exactly once, the client-side count of every
//!   outcome equals the service's ledger, zero engine failures, **knobs-on
//!   goodput ≥ knobs-off goodput at the overload point**, and the
//!   knobs-on SLO compliance ≥ 99 % below the knee. Non-zero exit on
//!   any violation.
//!
//! Scale knobs: `HEPQUERY_EVENTS`, `HEPQUERY_ROW_GROUP`, `HEPQUERY_SEED`,
//! `HEPQUERY_SCALE_REQS` (requests per grid point),
//! `HEPQUERY_SCALE_TENANTS`, `HEPQUERY_SCALE_WORKERS`,
//! `HEPQUERY_SCALE_SUBMITTERS`.

use std::sync::Arc;
use std::time::{Duration, Instant};

use chaos::SplitMix64;
use hepbench_bench::loadgen::{
    query_mix, run_open_loop, LoadConfig, OpenLoopOutcome, Schedule, Zipf,
};
use hepbench_bench::{dataset, dataset_spec, env, run_gate};
use nf2_columnar::Table;
use query_service::{Outcome, QueryRequest, QueryService, ServiceConfig};

/// The study's shared serving shape. The queue is effectively unbounded
/// so that *overload behaviour is the knobs' job*: with everything off
/// the backlog simply grows (the classic unprotected service), with the
/// knobs on deadlines and load shedding have to hold the SLO.
fn service_config(n_workers: usize, knobs_on: bool, slo: Duration) -> ServiceConfig {
    ServiceConfig {
        n_workers,
        queue_depth: 1 << 20,
        default_deadline: knobs_on.then(|| slo.mul_f64(0.8)),
        load_shedding: knobs_on,
        // Every request pays real execution: a result cache would make
        // the 45-entry grid free after one pass and hide the knee.
        result_cache: false,
        intra_query_threads: 1,
        ..ServiceConfig::default()
    }
}

struct Calibration {
    /// Closed-loop saturation throughput of the zipfian mix (QPS).
    capacity_qps: f64,
    /// The study's SLO: 4 × the calibrated p99, floored at 25 ms.
    slo: Duration,
    /// Mean single-query latency of the mix (seconds).
    mean_seconds: f64,
}

/// Closed-loop capacity probe: `n_workers` clients × the zipfian mix,
/// one in flight per worker, so throughput ≈ saturation capacity and
/// the completed-latency histogram ≈ the execution-time distribution.
fn calibrate(table: &Arc<Table>, n_workers: usize, samples: usize, seed: u64) -> Calibration {
    let service = QueryService::start(
        table.clone(),
        service_config(n_workers, false, Duration::ZERO),
    );
    let mix = query_mix();
    let zipf = Zipf::new(mix.len(), LoadConfig::default().mix_zipf_s);
    let mut rng = SplitMix64::new(seed ^ 0xCA11_B8A7E);
    let draws: Vec<usize> = (0..samples).map(|_| zipf.sample(rng.f64())).collect();
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        for k in 0..n_workers.max(1) {
            let (draws, mix, service) = (&draws, &mix, &service);
            scope.spawn(move || {
                for &slot in draws.iter().skip(k).step_by(n_workers.max(1)) {
                    let (system, query) = mix[slot];
                    service
                        .execute(QueryRequest::new("calibrate", system, query))
                        .expect("calibration query");
                }
            });
        }
    });
    let wall = t0.elapsed().as_secs_f64();
    let hist = service.latency_histogram(Outcome::Completed);
    Calibration {
        capacity_qps: samples as f64 / wall,
        slo: Duration::from_secs_f64((4.0 * hist.quantile(0.99)).max(0.025)),
        mean_seconds: hist.mean(),
    }
}

/// One grid point's results.
struct Point {
    multiplier: f64,
    knobs_on: bool,
    offered_qps: f64,
    schedule_digest: u64,
    outcome: OpenLoopOutcome,
    /// Outcomes whose client-side count differs from the service's
    /// ledger (accounting cross-check; must be empty).
    ledger_mismatches: Vec<(Outcome, u64, u64)>,
    cost_per_1k_usd: f64,
}

#[allow(clippy::too_many_arguments)]
fn run_point(
    table: &Arc<Table>,
    cal: &Calibration,
    multiplier: f64,
    knobs_on: bool,
    n_requests: usize,
    n_tenants: usize,
    n_workers: usize,
    n_submitters: usize,
    seed: u64,
) -> Point {
    let service = QueryService::start(table.clone(), service_config(n_workers, knobs_on, cal.slo));
    let offered_qps = multiplier * cal.capacity_qps;
    let cfg = LoadConfig {
        seed,
        n_requests,
        offered_qps,
        n_tenants,
        ..LoadConfig::default()
    };
    let schedule = Schedule::generate(&cfg);
    let outcome = run_open_loop(&service, &schedule, n_submitters, cal.slo);
    let completed = outcome.count(Outcome::Completed);
    let cost_per_1k_usd = cloud_sim::cost_per_1k_queries(outcome.total_cost_usd, completed);
    eprintln!(
        "  {:>5.2}x knobs {:>3}: offered {:>7.1} qps, {} submitted, {} completed \
         ({} in SLO), {} shed, {} rejected, {} timed out, {} cancelled; \
         goodput {:>7.1} qps, p99 {:.1} ms, ${:.4}/1k",
        multiplier,
        if knobs_on { "on" } else { "off" },
        offered_qps,
        outcome.submitted,
        completed,
        outcome.within_slo,
        outcome.count(Outcome::Shedded),
        outcome.count(Outcome::Rejected),
        outcome.count(Outcome::TimedOut),
        outcome.count(Outcome::Cancelled),
        outcome.goodput_qps(),
        outcome.latency.quantile(0.99) * 1e3,
        cost_per_1k_usd,
    );
    Point {
        multiplier,
        knobs_on,
        offered_qps,
        schedule_digest: schedule.digest(),
        ledger_mismatches: outcome.ledger_mismatches(&service),
        outcome,
        cost_per_1k_usd,
    }
}

fn point_json(p: &Point) -> String {
    let o = &p.outcome;
    format!(
        "{{ \"multiplier\": {:.2}, \"knobs\": \"{}\", \"offered_qps\": {:.2}, \
         \"schedule_digest\": \"{:#018x}\", \"submitted\": {}, \"completed\": {}, \
         \"within_slo\": {}, \"shedded\": {}, \"rejected\": {}, \
         \"timed_out\": {}, \"cancelled\": {}, \"failed\": {}, \"goodput_qps\": {:.2}, \
         \"p50_seconds\": {:.6}, \"p99_seconds\": {:.6}, \"p999_seconds\": {:.6}, \
         \"total_cost_usd\": {:.6}, \
         \"cost_per_1k_usd\": {:.6}, \"wall_seconds\": {:.3} }}",
        p.multiplier,
        if p.knobs_on { "on" } else { "off" },
        p.offered_qps,
        p.schedule_digest,
        o.submitted,
        o.count(Outcome::Completed),
        o.within_slo,
        o.count(Outcome::Shedded),
        o.count(Outcome::Rejected),
        o.count(Outcome::TimedOut),
        o.count(Outcome::Cancelled),
        o.count(Outcome::Failed),
        o.goodput_qps(),
        o.latency.quantile(0.5),
        o.latency.quantile(0.99),
        o.latency.quantile(0.999),
        o.total_cost_usd,
        p.cost_per_1k_usd,
        o.wall_seconds,
    )
}

/// Writes the goodput/latency curves (CI uploads them as an artifact).
fn emit(cal: &Calibration, points: &[Point]) {
    let rows: Vec<String> = points.iter().map(point_json).collect();
    let curves = std::env::var("HEPQUERY_SCALE_CURVES")
        .unwrap_or_else(|_| "serve_scale_curves.json".to_string());
    if let Some(parent) = std::path::Path::new(&curves).parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent).expect("create curves dir");
        }
    }
    let standalone = format!(
        "{{\n  \"capacity_qps\": {:.2},\n  \"slo_seconds\": {:.6},\n  \"points\": [\n    {}\n  ]\n}}\n",
        cal.capacity_qps,
        cal.slo.as_secs_f64(),
        rows.join(",\n    "),
    );
    std::fs::write(&curves, standalone).expect("write curves json");
    eprintln!("# wrote goodput/latency curves to {curves}");
}

/// Runs the whole study: calibrate once, then one knobs-off and one
/// knobs-on replay per multiplier. Overload points (multiplier > 1) get
/// their request count raised so the backlog a knobs-off service builds
/// dwarfs the SLO — otherwise a short run under-states the damage.
fn sweep(
    table: &Arc<Table>,
    multipliers: &[f64],
    base_requests: usize,
    n_tenants: usize,
    n_workers: usize,
    seed: u64,
    cal: &Calibration,
) -> Vec<Point> {
    let n_submitters = env("HEPQUERY_SCALE_SUBMITTERS", 4);
    let mut points = Vec::new();
    for &m in multipliers {
        let n_requests = if m > 1.0 {
            let backlog_bound = (10.0 * cal.capacity_qps * cal.slo.as_secs_f64()).ceil() as usize;
            backlog_bound.clamp(base_requests, base_requests.max(24_000))
        } else {
            base_requests
        };
        for knobs_on in [false, true] {
            points.push(run_point(
                table,
                cal,
                m,
                knobs_on,
                n_requests,
                n_tenants,
                n_workers,
                n_submitters,
                seed,
            ));
        }
    }
    points
}

/// One full study — build the data, calibrate, sweep `multipliers`, write
/// the curves — at the given default scale.
fn study(
    default_events: usize,
    default_tenants: usize,
    default_requests: usize,
    calibration_samples: usize,
    multipliers: &[f64],
) -> (Calibration, Vec<Point>) {
    let spec = dataset_spec(default_events, Some(256));
    let n_tenants = env("HEPQUERY_SCALE_TENANTS", default_tenants);
    let base_requests = env("HEPQUERY_SCALE_REQS", default_requests);
    eprintln!("# serve_scale: {n_tenants} tenants, {base_requests} requests per point");
    let (_, table) = dataset(spec);
    let n_workers = env("HEPQUERY_SCALE_WORKERS", 4);
    let cal = calibrate(&table, n_workers, calibration_samples, spec.seed);
    eprintln!(
        "# calibrated: capacity {:.1} qps, mean {:.2} ms, SLO {:.1} ms",
        cal.capacity_qps,
        cal.mean_seconds * 1e3,
        cal.slo.as_secs_f64() * 1e3
    );
    let points = sweep(
        &table,
        multipliers,
        base_requests,
        n_tenants,
        n_workers,
        spec.seed,
        &cal,
    );
    emit(&cal, &points);
    (cal, points)
}

/// CI gate body (see module docs for the exact assertions).
fn check() -> Vec<String> {
    let (cal, points) = study(1_000, 1_000, 800, 400, &[0.4, 3.0]);
    let mut violations = Vec::new();
    for p in &points {
        let o = &p.outcome;
        let label = format!(
            "{:.2}x knobs {}",
            p.multiplier,
            if p.knobs_on { "on" } else { "off" }
        );
        if o.accounted() != o.submitted {
            violations.push(format!(
                "[{label}] {} submitted but {} accounted for",
                o.submitted,
                o.accounted()
            ));
        }
        for (outcome, client, service) in &p.ledger_mismatches {
            violations.push(format!(
                "[{label}] service ledger says {service} {outcome:?}, clients saw {client}"
            ));
        }
        let failed = o.count(Outcome::Failed);
        if failed > 0 {
            violations.push(format!("[{label}] {failed} engine failures"));
        }
    }
    let top = points.iter().map(|p| p.multiplier).fold(f64::MIN, f64::max);
    let bottom = points.iter().map(|p| p.multiplier).fold(f64::MAX, f64::min);
    let at = |m: f64, knobs: bool| {
        points
            .iter()
            .find(|p| p.multiplier == m && p.knobs_on == knobs)
            .expect("grid point")
    };
    let (over_on, over_off) = (at(top, true), at(top, false));
    if over_on.outcome.goodput_qps() < over_off.outcome.goodput_qps() {
        violations.push(format!(
            "at {top:.2}x offered load, knobs-on goodput {:.1} qps < knobs-off {:.1} qps",
            over_on.outcome.goodput_qps(),
            over_off.outcome.goodput_qps()
        ));
    }
    if over_on.outcome.within_slo == 0 {
        violations.push("knobs-on served nothing within the SLO under overload".into());
    }
    let knee = at(bottom, true);
    let knee_completed = knee.outcome.count(Outcome::Completed);
    if knee_completed == 0 || (knee.outcome.within_slo as f64) < 0.99 * knee_completed as f64 {
        violations.push(format!(
            "below the knee ({bottom:.2}x), knobs-on SLO compliance {}/{knee_completed} < 99%",
            knee.outcome.within_slo
        ));
    }
    eprintln!(
        "  SLO {:.1} ms: overload goodput on/off = {:.1}/{:.1} qps; \
         knee p99 {:.1} ms, compliance {}/{}",
        cal.slo.as_secs_f64() * 1e3,
        over_on.outcome.goodput_qps(),
        over_off.outcome.goodput_qps(),
        knee.outcome.latency.quantile(0.99) * 1e3,
        knee.outcome.within_slo,
        knee_completed,
    );
    violations
}

fn main() {
    if std::env::args().any(|a| a == "--check") {
        std::process::exit(run_gate("serve_scale --check", check));
    }
    study(4_096, 2_000, 20_000, 1_000, &[0.25, 0.5, 1.0, 2.0, 4.0]);
}
