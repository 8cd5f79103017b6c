//! Open-loop load generation for the serving layer (ROADMAP item 4).
//!
//! A closed-loop driver (like a test's client threads) submits a
//! request, waits for the answer, then submits the next one — so when
//! the service slows down, the *offered load drops with it* and the
//! measured latency flatters the system (coordinated omission). This
//! module generates the whole arrival schedule up front from a seed and
//! replays it open-loop: every request carries its **intended arrival
//! instant**, submission happens at (or as close as the submitter can
//! manage to) that instant regardless of how the service is doing, and
//! the service charges queue wait and end-to-end latency from the
//! intended instant ([`query_service::QueryRequest::arriving_at`]).
//!
//! The schedule is deterministic and cheap to digest:
//!
//! * **inter-arrival gaps** are bounded-Pareto distributed
//!   ([`BoundedPareto`], α ≈ 1.5) — heavy-tailed bursts, scaled so the
//!   analytic mean hits the configured offered QPS;
//! * **tenants** are drawn zipfian ([`Zipf`]) over thousands of
//!   simulated tenants — a few hot tenants dominate, the tail is long;
//! * **the query mix** is zipfian over the (system × query) grid of
//!   [`query_mix`], ranked cheap→expensive so popular requests are
//!   cheap ones and the tail holds the scan-heavy monsters, as in any
//!   real serving mix.
//!
//! [`run_open_loop`] replays a [`Schedule`] against a running
//! [`query_service::QueryService`] with a fixed number of submitter
//! threads (the thread count does not change the schedule — satellite
//! determinism test) and collects per-outcome counts, the completed
//! latency distribution as a mergeable [`obs::Log2Histogram`], SLO
//! compliance and the accumulated serving bill.

use std::sync::mpsc;
use std::time::{Duration, Instant};

use hepbench_core::runner::System;
use hepbench_core::{QueryId, ALL_QUERIES};
use query_service::{QueryRequest, QueryService, ServiceError};

/// Deterministic 64-bit generator (splitmix64) — the schedule's only
/// randomness source, so one `u64` seed pins the whole workload.
#[derive(Clone, Debug)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64 { state: seed }
    }

    /// Next 64 uniformly random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform f64 in `[0, 1)` with 53 random bits.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Bounded Pareto distribution on `[lo, hi]` with shape `alpha` — the
/// classic heavy-tailed model for inter-arrival gaps: most gaps are
/// near `lo`, occasional gaps are orders of magnitude longer, and the
/// upper bound keeps the mean finite and the schedule's span sane.
#[derive(Clone, Copy, Debug)]
pub struct BoundedPareto {
    /// Tail index; smaller ⇒ heavier tail. Must not be 1 (the mean
    /// formula has a removable pole there) — 1.5 is the usual choice.
    pub alpha: f64,
    /// Smallest producible value.
    pub lo: f64,
    /// Largest producible value.
    pub hi: f64,
}

impl BoundedPareto {
    /// Inverse-CDF sample from a uniform `u ∈ [0, 1)`.
    pub fn sample(&self, u: f64) -> f64 {
        let ratio = (self.lo / self.hi).powf(self.alpha);
        self.lo * (1.0 - u * (1.0 - ratio)).powf(-1.0 / self.alpha)
    }

    /// Analytic mean — used to rescale gaps so a schedule hits its
    /// offered QPS exactly in expectation.
    pub fn mean(&self) -> f64 {
        let a = self.alpha;
        assert!((a - 1.0).abs() > 1e-9, "alpha = 1 needs the log form");
        let la = self.lo.powf(a);
        let ratio = (self.lo / self.hi).powf(a);
        la / (1.0 - ratio)
            * (a / (a - 1.0))
            * (1.0 / self.lo.powf(a - 1.0) - 1.0 / self.hi.powf(a - 1.0))
    }
}

/// Zipfian sampler over ranks `0..n`: rank `r` has weight
/// `1 / (r+1)^s`. Sampled by binary search over cumulative weights.
#[derive(Clone, Debug)]
pub struct Zipf {
    cum: Vec<f64>,
}

impl Zipf {
    /// A zipfian distribution over `n` ranks with exponent `s`.
    pub fn new(n: usize, s: f64) -> Zipf {
        assert!(n > 0, "zipf over zero ranks");
        let mut cum = Vec::with_capacity(n);
        let mut total = 0.0;
        for r in 0..n {
            total += 1.0 / ((r + 1) as f64).powf(s);
            cum.push(total);
        }
        for c in &mut cum {
            *c /= total;
        }
        Zipf { cum }
    }

    /// Rank for a uniform `u ∈ [0, 1)`.
    pub fn sample(&self, u: f64) -> usize {
        self.cum
            .partition_point(|&c| c <= u)
            .min(self.cum.len() - 1)
    }
}

/// The systems a serving deployment multiplexes (one per
/// language/dialect family, as in the serving tests).
pub const SYSTEMS: &[System] = &[
    System::BigQuery,
    System::AthenaV2,
    System::Presto,
    System::Rumble,
    System::RDataFrame,
];

/// The benchmark queries in **cheap→expensive rank order** for the
/// serving mix. Benchmark order (Q1…Q8) is *not* cost order: the Q6
/// pair's per-event trijet combinatorics make them one to two orders
/// of magnitude heavier than anything else, so they take the deepest
/// tail ranks — popular requests are cheap projections, the monsters
/// are rare, as in any real serving mix.
const COST_RANKED_QUERIES: [QueryId; 9] = [
    QueryId::Q1,
    QueryId::Q2,
    QueryId::Q3,
    QueryId::Q4,
    QueryId::Q5,
    QueryId::Q7,
    QueryId::Q8,
    QueryId::Q6a,
    QueryId::Q6b,
];

/// The (system × query) grid in cheap→expensive rank order (per the
/// internal `COST_RANKED_QUERIES` table): the zipfian mix makes low
/// ranks popular,
/// so most traffic is cheap single-column queries and the scan-heavy
/// tail queries are rare.
pub fn query_mix() -> Vec<(System, QueryId)> {
    debug_assert_eq!(COST_RANKED_QUERIES.len(), ALL_QUERIES.len());
    COST_RANKED_QUERIES
        .iter()
        .flat_map(|&q| SYSTEMS.iter().map(move |&s| (s, q)))
        .collect()
}

/// One scheduled request: nanoseconds after the run epoch, the tenant
/// rank and the index into [`query_mix`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Arrival {
    /// Intended arrival, nanoseconds after the run epoch.
    pub at_nanos: u64,
    /// Tenant rank (0 is the hottest tenant); tenant name is `t<rank>`.
    pub tenant: u32,
    /// Index into the workload mix.
    pub slot: u16,
}

/// Knobs for schedule generation. Everything is derived from `seed` —
/// two configs with equal fields generate byte-identical schedules.
#[derive(Clone, Debug)]
pub struct LoadConfig {
    /// Seed for gaps, tenants and mix draws.
    pub seed: u64,
    /// Number of requests in the schedule.
    pub n_requests: usize,
    /// Offered load; gap samples are rescaled so the *expected*
    /// schedule span is `n_requests / offered_qps`.
    pub offered_qps: f64,
    /// Simulated tenant population (thousands in the scale study).
    pub n_tenants: usize,
    /// Zipf exponent for tenant popularity.
    pub tenant_zipf_s: f64,
    /// Zipf exponent over the cheap→expensive query mix.
    pub mix_zipf_s: f64,
    /// Bounded-Pareto tail index for inter-arrival gaps.
    pub pareto_alpha: f64,
    /// Upper/lower bound ratio of the gap distribution.
    pub pareto_spread: f64,
}

impl Default for LoadConfig {
    fn default() -> LoadConfig {
        LoadConfig {
            seed: 0xC0FFEE,
            n_requests: 10_000,
            offered_qps: 100.0,
            n_tenants: 2_000,
            tenant_zipf_s: 1.2,
            // Steep enough that the Q6 tail (ranks 36–45) stays ~2% of
            // traffic: rare, as monsters are, but present in every run.
            mix_zipf_s: 1.4,
            pareto_alpha: 1.5,
            pareto_spread: 1_000.0,
        }
    }
}

/// A fully materialized open-loop schedule: every arrival instant,
/// tenant and query decided before the first request is submitted.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Schedule {
    /// Requests in arrival order (`at_nanos` is non-decreasing).
    pub arrivals: Vec<Arrival>,
}

impl Schedule {
    /// Generates the schedule for `cfg` — single-threaded and pure, so
    /// the result is byte-identical for equal configs no matter how
    /// many threads later replay it.
    pub fn generate(cfg: &LoadConfig) -> Schedule {
        let mix_len = query_mix().len();
        assert!(mix_len <= u16::MAX as usize + 1, "mix fits the slot width");
        let gaps = BoundedPareto {
            alpha: cfg.pareto_alpha,
            lo: 1.0,
            hi: cfg.pareto_spread,
        };
        // Rescale so E[gap] = 1/offered_qps seconds.
        let nanos_per_unit = 1e9 / (cfg.offered_qps * gaps.mean());
        let tenants = Zipf::new(cfg.n_tenants, cfg.tenant_zipf_s);
        let mix = Zipf::new(mix_len, cfg.mix_zipf_s);
        let mut rng = SplitMix64::new(cfg.seed);
        let mut at = 0.0f64;
        let mut arrivals = Vec::with_capacity(cfg.n_requests);
        for _ in 0..cfg.n_requests {
            at += gaps.sample(rng.unit_f64()) * nanos_per_unit;
            arrivals.push(Arrival {
                at_nanos: at as u64,
                tenant: tenants.sample(rng.unit_f64()) as u32,
                slot: mix.sample(rng.unit_f64()) as u16,
            });
        }
        Schedule { arrivals }
    }

    /// FNV-1a digest over every arrival — the determinism fingerprint
    /// reported in the benchmark record: equal seeds must produce equal
    /// digests on every platform and thread count.
    pub fn digest(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |v: u64| {
            for b in v.to_le_bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x1_0000_01b3);
            }
        };
        for a in &self.arrivals {
            eat(a.at_nanos);
            eat(a.tenant as u64);
            eat(a.slot as u64);
        }
        h
    }

    /// The schedule's intended span — first to last arrival.
    pub fn span(&self) -> Duration {
        Duration::from_nanos(self.arrivals.last().map_or(0, |a| a.at_nanos))
    }
}

/// What one open-loop replay observed, client-side. Outcome counts
/// mirror the service's [`query_service::StatsSnapshot`] taxonomy; the
/// completed-latency histogram is recorded per collector thread and
/// [`obs::Log2Histogram::merge`]d in deterministic order.
#[derive(Clone, Debug, Default)]
pub struct OpenLoopOutcome {
    /// Requests replayed from the schedule.
    pub submitted: u64,
    /// Requests answered with a result.
    pub completed: u64,
    /// Completed **within the SLO** (end-to-end, from intended arrival).
    pub within_slo: u64,
    /// Admission-queue-full rejections.
    pub rejected: u64,
    /// Load-shedding rejections.
    pub shedded: u64,
    /// Open-circuit-breaker rejections.
    pub breaker_rejected: u64,
    /// Deadline expiries (queued or racing the worker).
    pub timed_out: u64,
    /// Cooperative cancellations while running.
    pub cancelled: u64,
    /// Engine failures and shutdown answers.
    pub failed: u64,
    /// Σ [`query_service::QueryResponse::cost_usd`] over completions.
    pub total_cost_usd: f64,
    /// End-to-end completed latency (seconds, from intended arrival).
    pub latency: obs::Log2Histogram,
    /// Wall seconds from the replay epoch to the last collected answer
    /// (includes queue drain after the last arrival).
    pub wall_seconds: f64,
}

impl OpenLoopOutcome {
    fn fold(&mut self, other: &OpenLoopOutcome) {
        self.submitted += other.submitted;
        self.completed += other.completed;
        self.within_slo += other.within_slo;
        self.rejected += other.rejected;
        self.shedded += other.shedded;
        self.breaker_rejected += other.breaker_rejected;
        self.timed_out += other.timed_out;
        self.cancelled += other.cancelled;
        self.failed += other.failed;
        self.total_cost_usd += other.total_cost_usd;
        self.latency.merge(&other.latency);
        self.wall_seconds = self.wall_seconds.max(other.wall_seconds);
    }

    /// Requests with *any* recorded outcome — must equal `submitted`
    /// (the accounting gate).
    pub fn accounted(&self) -> u64 {
        self.completed
            + self.rejected
            + self.shedded
            + self.breaker_rejected
            + self.timed_out
            + self.cancelled
            + self.failed
    }

    /// Goodput: completions **within the SLO** per wall second.
    pub fn goodput_qps(&self) -> f64 {
        if self.wall_seconds <= 0.0 {
            0.0
        } else {
            self.within_slo as f64 / self.wall_seconds
        }
    }
}

/// Replays `schedule` against `service` open-loop with `n_submitters`
/// submitter threads (each paired with a collector draining its
/// tickets, so waiting on one answer never delays the next arrival).
/// Requests are round-robin partitioned over submitters by schedule
/// index; each submitter sleeps until a request's intended instant and
/// submits it timestamped with that instant — when the submitter runs
/// late, the lag is charged to the request, not hidden.
pub fn run_open_loop(
    service: &QueryService,
    schedule: &Schedule,
    n_submitters: usize,
    slo: Duration,
) -> OpenLoopOutcome {
    let n_submitters = n_submitters.max(1);
    let epoch = Instant::now();
    let partials: Vec<OpenLoopOutcome> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..n_submitters)
            .map(|k| {
                let (tx, rx) = mpsc::channel::<query_service::Ticket>();
                let collector = scope.spawn(move || {
                    let mut out = OpenLoopOutcome::default();
                    while let Ok(ticket) = rx.recv() {
                        match ticket.wait() {
                            Ok(resp) => {
                                out.completed += 1;
                                out.total_cost_usd += resp.cost_usd;
                                out.latency.observe(resp.total_seconds);
                                if resp.total_seconds <= slo.as_secs_f64() {
                                    out.within_slo += 1;
                                }
                            }
                            Err(ServiceError::QueryRejected { .. }) => out.rejected += 1,
                            Err(ServiceError::QueryShedded { .. }) => out.shedded += 1,
                            Err(ServiceError::CircuitOpen { .. }) => out.breaker_rejected += 1,
                            Err(ServiceError::QueryTimedOut { .. }) => out.timed_out += 1,
                            Err(ServiceError::Cancelled { .. }) => out.cancelled += 1,
                            Err(_) => out.failed += 1,
                        }
                    }
                    out
                });
                let submitter = scope.spawn(move || {
                    let mix = query_mix();
                    let mut out = OpenLoopOutcome::default();
                    for a in schedule.arrivals.iter().skip(k).step_by(n_submitters) {
                        let target = epoch + Duration::from_nanos(a.at_nanos);
                        loop {
                            let now = Instant::now();
                            if now >= target {
                                break;
                            }
                            std::thread::sleep(target - now);
                        }
                        let (system, query) = mix[a.slot as usize];
                        let req = QueryRequest::new(format!("t{}", a.tenant), system, query)
                            .arriving_at(target);
                        out.submitted += 1;
                        match service.submit(req) {
                            Ok(ticket) => {
                                let _ = tx.send(ticket);
                            }
                            Err(ServiceError::QueryRejected { .. }) => out.rejected += 1,
                            Err(ServiceError::QueryShedded { .. }) => out.shedded += 1,
                            Err(ServiceError::CircuitOpen { .. }) => out.breaker_rejected += 1,
                            Err(_) => out.failed += 1,
                        }
                    }
                    drop(tx);
                    out
                });
                (submitter, collector)
            })
            .collect();
        handles
            .into_iter()
            .map(|(s, c)| {
                let mut out = s.join().expect("submitter thread");
                out.fold(&c.join().expect("collector thread"));
                out
            })
            .collect()
    });
    let mut out = OpenLoopOutcome::default();
    for p in &partials {
        out.fold(p);
    }
    out.wall_seconds = epoch.elapsed().as_secs_f64();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pareto_mean_matches_empirical() {
        let d = BoundedPareto {
            alpha: 1.5,
            lo: 1.0,
            hi: 1_000.0,
        };
        let mut rng = SplitMix64::new(7);
        let n = 200_000;
        let sum: f64 = (0..n).map(|_| d.sample(rng.unit_f64())).sum();
        let empirical = sum / n as f64;
        let analytic = d.mean();
        assert!(
            (empirical - analytic).abs() / analytic < 0.05,
            "analytic {analytic} vs empirical {empirical}"
        );
        // Samples respect the bounds.
        let mut rng = SplitMix64::new(8);
        for _ in 0..10_000 {
            let x = d.sample(rng.unit_f64());
            assert!((d.lo..=d.hi).contains(&x));
        }
    }

    #[test]
    fn zipf_is_monotonically_less_popular() {
        let z = Zipf::new(100, 1.2);
        let mut rng = SplitMix64::new(11);
        let mut counts = vec![0u64; 100];
        for _ in 0..100_000 {
            counts[z.sample(rng.unit_f64())] += 1;
        }
        assert!(counts[0] > counts[10]);
        assert!(counts[10] > counts[60]);
        // Rank 0 of a s>1 zipf over 100 ranks carries a big share.
        assert!(counts[0] > 100_000 / 10);
    }

    #[test]
    fn schedule_is_sorted_and_scaled() {
        let cfg = LoadConfig {
            n_requests: 5_000,
            offered_qps: 250.0,
            ..LoadConfig::default()
        };
        let s = Schedule::generate(&cfg);
        assert_eq!(s.arrivals.len(), 5_000);
        assert!(s
            .arrivals
            .windows(2)
            .all(|w| w[0].at_nanos <= w[1].at_nanos));
        // The realized span is within 2× of the intended span either
        // way (one heavy-tailed draw can stretch a short schedule).
        let intended = cfg.n_requests as f64 / cfg.offered_qps;
        let realized = s.span().as_secs_f64();
        assert!(
            realized > intended / 2.0 && realized < intended * 2.0,
            "span {realized}s vs intended {intended}s"
        );
        let max_tenant = s.arrivals.iter().map(|a| a.tenant).max().unwrap();
        assert!((max_tenant as usize) < cfg.n_tenants);
        let max_slot = s.arrivals.iter().map(|a| a.slot).max().unwrap();
        assert!((max_slot as usize) < query_mix().len());
    }
}
