//! Concurrent multi-tenant query serving over the benchmark engines.
//!
//! The paper measures one query at a time, but the systems it measures —
//! BigQuery, Athena, a Presto cluster — are *servers*: many tenants, a
//! bounded admission queue, and (for BigQuery) a results cache that the
//! authors explicitly disabled for fairness. This crate supplies that
//! serving layer for the simulated systems so concurrent behavior
//! (queueing, admission control, cache economics) can be studied on the
//! same engines the single-query benchmarks exercise.
//!
//! A [`QueryService`] owns an immutable [`Table`] behind an `Arc` and a
//! pool of worker threads. Requests name a tenant, a
//! [`System`] and a
//! [`QueryId`](hepbench_core::QueryId); they pass admission control (a
//! bounded queue — full ⇒ [`ServiceError::QueryRejected`]), wait in
//! per-tenant FIFO queues drained round-robin across tenants (one noisy
//! tenant cannot starve the rest), and execute on the service's prebuilt
//! engine map: one [`engine_for`] deployment per system (plus one
//! [`engine_for_compiled`] for requests that opt into compiled
//! execution) — the deployments the single-query benchmark runs, so a
//! served result is the benchmark result.
//!
//! One cache, optional: a **result cache**
//! ([`result_cache::ResultCache`]) keyed on (dialect, normalized query
//! text, table fingerprint) — BigQuery's "cached results". A hit returns
//! the stored histogram with **zero bytes scanned** and zero QaaS cost.
//! [`ServiceConfig::paper_fairness`] turns it off, reproducing the
//! paper's measured configuration byte-for-byte (verified by
//! `tests/service_cache.rs`).
//!
//! Overload is handled by deadlines and load shedding, both off by
//! default and under [`ServiceConfig::paper_fairness`]:
//!
//! * **deadlines with cooperative cancellation** — every request gets an
//!   [`obs::CancelToken`] (deadline-armed when the request has one);
//!   [`Ticket::cancel`] or deadline expiry stops a *running* query
//!   within one row group, surfacing as [`ServiceError::Cancelled`]
//!   with the stage and rows processed, never billed;
//! * **load shedding** ([`ServiceConfig::load_shedding`]) — admission
//!   rejects requests whose estimated queue wait already exceeds their
//!   deadline.
//!
//! `serve_scale --check` gates the pair: under 3× its capacity, the
//! service with both on must serve at least the goodput of the service
//! with both off, and below the knee ≥ 99 % of its completions must meet
//! the SLO.
//!
//! The service does not re-run failed queries. A flaky storage read is
//! retried where it happens, below the query: the scan re-reads a chunk
//! whose read failed with a transient fault
//! ([`nf2_columnar::READ_RETRIES`] times per chunk), so a request
//! converges in one execution however many of its chunks fault. A fault
//! that outlives the re-reads — or a persistent one — fails the request
//! with a typed [`ServiceError::Engine`]; a panicking query is caught per
//! job and answered the same way, leaving the worker alive.
//!
//! Every submitted request ends in exactly one [`Outcome`], recorded
//! once — where `submit` refuses it or where a worker replies — as one
//! observation of its end-to-end latency in the outcome's
//! `latency_seconds_<outcome>` histogram ([`Outcome::metric`]) of the
//! service's metrics registry. That ledger is the service's only count
//! of outcomes: [`QueryService::stats`] and
//! [`QueryService::latency_histogram`] are views of it.

#[cfg(test)]
mod queue_proptests;
pub mod request;
pub mod result_cache;

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::Ordering;
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use cloud_sim::InstanceType;
use hepbench_core::adapters::ExecEnv;
use hepbench_core::engine_api::{engine_for, engine_for_compiled, QueryEngine, QuerySpec};
use hepbench_core::runner::{System, ALL_SYSTEMS};
use nf2_columnar::{ExecStats, FaultInjector, ScanStats, Table};

pub use request::{Outcome, QueryRequest, QueryResponse, ServiceError, StatsSnapshot};
pub use result_cache::{normalize_query_text, result_key, CachedResult, ResultCache, ResultKey};

/// Serving configuration.
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Worker threads executing queries; `0` ⇒ one per available core.
    pub n_workers: usize,
    /// Admission-control bound: total requests allowed in the queue
    /// (across all tenants). Submissions beyond it are rejected.
    pub queue_depth: usize,
    /// Deadline applied to requests that do not carry their own.
    pub default_deadline: Option<Duration>,
    /// Serve repeated identical queries from the result cache (the knob
    /// the paper turned *off* for its fair comparison).
    pub result_cache: bool,
    /// Retired: always 0, and [`QueryService::start`] panics on any other
    /// value. It sized a chunk cache that copied chunks already held in
    /// memory. Kept only so existing struct literals still compile;
    /// ROADMAP item 1(B) deletes it.
    pub chunk_cache_bytes: usize,
    /// Threads *within* one query; `0` ⇒ engine default (all cores). A
    /// serving deployment typically pins this to 1 and gets its
    /// parallelism across concurrent queries instead.
    pub intra_query_threads: usize,
    /// Zone-map row-group pruning in every engine's scan (on by
    /// default). Results are byte-identical either way; pruned bytes are
    /// billed separately (`ScanStats::bytes_pruned`) and surface as the
    /// `row_groups_pruned` / `bytes_pruned` metrics. Off under
    /// [`ServiceConfig::paper_fairness`]: the paper's systems read every
    /// row group, and fairness mode reproduces that byte-for-byte.
    pub zone_map_pruning: bool,
    /// Instance whose hourly price converts measured wall seconds into
    /// self-managed serving cost.
    pub pricing_instance: &'static str,
    /// Chaos-layer fault injector applied to every worker's physical
    /// chunk reads (`None`, the default, serves the fault-free path —
    /// [`ServiceConfig::paper_fairness`] keeps it off). A transient fault
    /// is re-read in place by the scan
    /// ([`nf2_columnar::READ_RETRIES`] per chunk), so it never costs the
    /// request; the re-reads show in `QueryResponse::stats.reads_retried`.
    /// A fault that outlives them fails the request with a typed engine
    /// error.
    pub fault_injector: Option<Arc<FaultInjector>>,
    /// Record a span tree per served query (queue wait, cache lookup,
    /// engine stages) and return it in
    /// [`QueryResponse::trace`]. Off by default — and off under
    /// [`ServiceConfig::paper_fairness`] — so the serving path stays a
    /// near-no-op when untraced.
    pub trace: bool,
    /// Admission-time load shedding: reject a request with
    /// [`ServiceError::QueryShedded`] when the estimated queue wait
    /// (EWMA of recent execution times × queue depth ÷ workers) already
    /// exceeds its deadline budget. Requests without a deadline are
    /// never shed. Off by default and under
    /// [`ServiceConfig::paper_fairness`].
    pub load_shedding: bool,
    /// Retired: always `None` ([`Retired`] has no values). Circuit
    /// breakers were deleted. ROADMAP item 1(B) deletes the field.
    pub breaker: Option<Retired>,
    /// Retired: always `None` ([`Retired`] has no values). Hedged
    /// execution was deleted. ROADMAP item 1(B) deletes the field.
    pub hedge: Option<Retired>,
}

/// The type of a retired [`ServiceConfig`] field. It has no values, so
/// an `Option<Retired>` can only be `None` and cannot turn anything on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Retired {}

impl Default for ServiceConfig {
    /// A serving deployment: the result cache on, one thread per query.
    fn default() -> ServiceConfig {
        ServiceConfig {
            n_workers: 0,
            queue_depth: 64,
            default_deadline: None,
            result_cache: true,
            chunk_cache_bytes: 0,
            intra_query_threads: 1,
            zone_map_pruning: true,
            pricing_instance: "m5d.4xlarge",
            fault_injector: None,
            trace: false,
            load_shedding: false,
            breaker: None,
            hedge: None,
        }
    }
}

impl ServiceConfig {
    /// The paper's measured configuration: **the result cache off**
    /// (§4.1 disabled BigQuery's cached results for fairness),
    /// engine-default intra-query parallelism. With this config a served
    /// query is byte-for-byte identical — histogram and `ScanStats` — to
    /// the single-query benchmark path. The overload knobs (deadlines,
    /// shedding) inherit their off-defaults, so neither can perturb the
    /// measured configuration.
    pub fn paper_fairness() -> ServiceConfig {
        ServiceConfig {
            result_cache: false,
            intra_query_threads: 0,
            zone_map_pruning: false,
            ..ServiceConfig::default()
        }
    }
}

/// One queued request plus its reply channel.
struct Job {
    req: QueryRequest,
    enqueued: Instant,
    /// The request's cancellation token, deadline-armed when the request
    /// has one and shared with the caller's [`Ticket`]. Threaded through
    /// [`ExecEnv`] so the engines check it once per row group.
    cancel: obs::CancelToken,
    reply: mpsc::Sender<Result<QueryResponse, ServiceError>>,
}

/// Per-tenant FIFO queues with a round-robin rotation of non-empty
/// tenants. `queued` is the admission-control total across tenants.
#[derive(Default)]
struct QueueState {
    queues: HashMap<String, VecDeque<Job>>,
    rr: VecDeque<String>,
    queued: usize,
    shutdown: bool,
}

impl QueueState {
    fn push(&mut self, tenant: String, job: Job) {
        let queue = self.queues.entry(tenant.clone()).or_default();
        if queue.is_empty() {
            self.rr.push_back(tenant);
        }
        queue.push_back(job);
        self.queued += 1;
    }

    /// Fair dequeue: next job of the tenant at the front of the rotation;
    /// the tenant goes to the back of the rotation if it has more work.
    fn pop_next(&mut self) -> Option<Job> {
        while let Some(tenant) = self.rr.pop_front() {
            let Some(queue) = self.queues.get_mut(&tenant) else {
                continue;
            };
            let Some(job) = queue.pop_front() else {
                self.queues.remove(&tenant);
                continue;
            };
            self.queued -= 1;
            if queue.is_empty() {
                self.queues.remove(&tenant);
            } else {
                self.rr.push_back(tenant);
            }
            return Some(job);
        }
        None
    }

    fn drain_all(&mut self) -> Vec<Job> {
        let mut jobs = Vec::with_capacity(self.queued);
        for (_, queue) in self.queues.drain() {
            jobs.extend(queue);
        }
        self.rr.clear();
        self.queued = 0;
        jobs
    }
}

/// State shared between the handle and the workers.
struct Shared {
    table_fingerprint: u64,
    config: ServiceConfig,
    pricing_instance: &'static InstanceType,
    queue: Mutex<QueueState>,
    available: Condvar,
    result_cache: Option<ResultCache>,
    /// One engine per servable system, built once at startup and shared
    /// by every worker — the service's only execution path.
    engines: HashMap<System, Box<dyn QueryEngine>>,
    /// The compiled deployments ([`engine_for_compiled`]), used only by
    /// requests that set [`QueryRequest::compiled`]. Default requests —
    /// and everything [`ServiceConfig::paper_fairness`] measures — never
    /// touch these.
    engines_compiled: HashMap<System, Box<dyn QueryEngine>>,
    /// Service-wide counters and histograms, and the request-outcome
    /// ledger: one `latency_seconds_<outcome>` observation per answered
    /// or refused request. See [`QueryService::metrics_snapshot`].
    metrics: obs::MetricsRegistry,
    /// Resolved worker count (the `n_workers == 0` default expanded),
    /// the divisor in the load-shedding wait estimate.
    n_workers: usize,
    /// EWMA of recent engine execution seconds, stored as `f64` bits so
    /// readers never lock. Zero until the first completed execution;
    /// the read-modify-write race between workers is benign (the
    /// estimate is approximate by construction).
    exec_ewma_bits: std::sync::atomic::AtomicU64,
}

impl Shared {
    /// Locks the queue, recovering from poisoning (a worker can only
    /// panic outside the lock, but stay robust anyway).
    fn lock_queue(&self) -> MutexGuard<'_, QueueState> {
        self.queue.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// A pending response; [`Ticket::wait`] blocks until the worker replies.
/// Also the request's cancellation handle: [`Ticket::cancel`] trips the
/// token a running query checks once per row group.
#[derive(Debug)]
pub struct Ticket {
    rx: mpsc::Receiver<Result<QueryResponse, ServiceError>>,
    cancel: obs::CancelToken,
}

/// The handle a caller keeps for an in-flight query — wait on it or
/// cancel it.
pub type QueryHandle = Ticket;

impl Ticket {
    /// Blocks until the request is answered. A disconnected channel means
    /// the service dropped the job during shutdown.
    pub fn wait(self) -> Result<QueryResponse, ServiceError> {
        self.rx.recv().unwrap_or(Err(ServiceError::Shutdown))
    }

    /// Cooperatively cancels the request. A queued job is answered with
    /// [`ServiceError::Cancelled`] at dequeue; a running query stops
    /// within one row group and answers the same way. Idempotent, and a
    /// no-op once the request has been answered.
    pub fn cancel(&self) {
        self.cancel.cancel();
    }

    /// The request's cancellation token (e.g. to link it into a larger
    /// cancellation scope).
    pub fn cancel_token(&self) -> &obs::CancelToken {
        &self.cancel
    }
}

/// An embedded multi-tenant query server over one immutable table.
///
/// Dropping the service shuts it down: queued requests are answered with
/// [`ServiceError::Shutdown`], in-flight queries finish, workers join.
pub struct QueryService {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl QueryService {
    /// Starts the worker pool and returns the serving handle.
    ///
    /// # Panics
    ///
    /// On an unknown `pricing_instance`, and when the retired
    /// `chunk_cache_bytes` is not 0.
    pub fn start(table: Arc<Table>, config: ServiceConfig) -> QueryService {
        assert_eq!(
            config.chunk_cache_bytes, 0,
            "ServiceConfig::chunk_cache_bytes is retired and must be 0"
        );
        let pricing_instance = cloud_sim::instances::by_name(config.pricing_instance)
            .unwrap_or_else(|| panic!("unknown pricing instance {:?}", config.pricing_instance));
        let n_workers = if config.n_workers == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4)
        } else {
            config.n_workers
        };
        let engines = ALL_SYSTEMS
            .iter()
            .map(|s| (*s, engine_for(*s, table.clone())))
            .collect();
        let engines_compiled = ALL_SYSTEMS
            .iter()
            .map(|s| (*s, engine_for_compiled(*s, table.clone())))
            .collect();
        let shared = Arc::new(Shared {
            table_fingerprint: table.fingerprint(),
            pricing_instance,
            queue: Mutex::new(QueueState::default()),
            available: Condvar::new(),
            result_cache: config.result_cache.then(ResultCache::new),
            engines,
            engines_compiled,
            metrics: obs::MetricsRegistry::new(),
            n_workers,
            exec_ewma_bits: std::sync::atomic::AtomicU64::new(0),
            config,
        });
        let workers = (0..n_workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("query-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn query worker")
            })
            .collect();
        QueryService { shared, workers }
    }

    /// Submits a request through admission control; returns a [`Ticket`]
    /// to wait on, or rejects immediately when the queue is full.
    ///
    /// An open-loop request carrying [`QueryRequest::arrival`] is
    /// charged from that intended instant: its deadline is armed at
    /// `arrival + budget` and its queue wait / end-to-end latency
    /// include any lag between intended arrival and this call, so a
    /// saturated submitter cannot hide queue delay (no coordinated
    /// omission).
    pub fn submit(&self, req: QueryRequest) -> Result<Ticket, ServiceError> {
        self.shared.metrics.counter_inc("queries_submitted");
        let arrived = req.arrival.unwrap_or_else(Instant::now);
        let admitted = self.admit(req, arrived);
        if admitted.is_err() {
            record(&self.shared, Outcome::of(&admitted), arrived);
        }
        admitted
    }

    /// Admission: queue bound, load shedding, enqueue.
    fn admit(&self, req: QueryRequest, arrived: Instant) -> Result<Ticket, ServiceError> {
        let (tx, rx) = mpsc::channel();
        let cancel;
        {
            let mut state = self.shared.lock_queue();
            if state.queued >= self.shared.config.queue_depth {
                return Err(ServiceError::QueryRejected {
                    queue_depth: self.shared.config.queue_depth,
                });
            }
            let now = Instant::now();
            let budget = req.deadline.or(self.shared.config.default_deadline);
            let deadline = budget.map(|d| arrived + d);
            // Load shedding: if the backlog alone is predicted to outlast
            // the *remaining* deadline budget (which an open-loop arrival
            // timestamp may already have eaten into), refuse now instead
            // of queueing doomed work.
            if self.shared.config.load_shedding {
                if let Some(deadline) = deadline {
                    let ewma = f64::from_bits(self.shared.exec_ewma_bits.load(Ordering::Relaxed));
                    if ewma > 0.0 {
                        let remaining = deadline.saturating_duration_since(now);
                        let estimated_wait =
                            ewma * state.queued as f64 / self.shared.n_workers as f64;
                        if estimated_wait > remaining.as_secs_f64() {
                            return Err(ServiceError::QueryShedded {
                                estimated_wait_seconds: estimated_wait,
                                deadline_seconds: remaining.as_secs_f64(),
                            });
                        }
                    }
                }
            }
            cancel = match deadline {
                Some(d) => obs::CancelToken::with_deadline(d),
                None => obs::CancelToken::new(),
            };
            let tenant = req.tenant.clone();
            state.push(
                tenant,
                Job {
                    req,
                    enqueued: arrived,
                    cancel: cancel.clone(),
                    reply: tx,
                },
            );
        }
        self.shared.available.notify_one();
        Ok(Ticket { rx, cancel })
    }

    /// Submits and blocks for the response.
    pub fn execute(&self, req: QueryRequest) -> Result<QueryResponse, ServiceError> {
        self.submit(req)?.wait()
    }

    /// Outcome counts so far: a view of the ledger — each outcome is
    /// the observation count of its [`Outcome::metric`] histogram,
    /// `submitted` the `queries_submitted` counter — taken from one
    /// registry snapshot.
    pub fn stats(&self) -> StatsSnapshot {
        let m = self.shared.metrics.snapshot();
        let n = |o: Outcome| m.histogram(o.metric()).map_or(0, |h| h.count);
        StatsSnapshot {
            submitted: m.counter("queries_submitted"),
            completed: n(Outcome::Completed),
            rejected: n(Outcome::Rejected),
            shedded: n(Outcome::Shedded),
            timed_out: n(Outcome::TimedOut),
            cancelled: n(Outcome::Cancelled),
            failed: n(Outcome::Failed),
        }
    }

    /// Point-in-time view of the service's [`obs::MetricsRegistry`]:
    /// the `queries_submitted` counter, one `latency_seconds_<outcome>`
    /// histogram per [`Outcome`] reached, the pruning counters, and the
    /// queue-wait / execution-time histograms. Render with
    /// [`obs::MetricsSnapshot::to_text`] or
    /// [`obs::MetricsSnapshot::to_json`].
    pub fn metrics_snapshot(&self) -> obs::MetricsSnapshot {
        self.shared.metrics.snapshot()
    }

    /// The mergeable end-to-end latency histogram of one outcome,
    /// measured from each request's intended arrival; empty until a
    /// request reached that outcome. Its count is the outcome's ledger
    /// entry. Load harnesses fold these into offered-load curves with
    /// [`obs::Log2Histogram::merge`] and quantile them for SLO gates.
    pub fn latency_histogram(&self, outcome: Outcome) -> obs::Log2Histogram {
        self.shared
            .metrics
            .histogram_state(outcome.metric())
            .unwrap_or_default()
    }

    /// Result-cache `(hits, misses)`, when the result cache is enabled.
    pub fn result_cache_counters(&self) -> Option<(u64, u64)> {
        self.shared.result_cache.as_ref().map(|c| c.counters())
    }

    /// Fingerprint of the served table (the result cache's version tag).
    pub fn table_fingerprint(&self) -> u64 {
        self.shared.table_fingerprint
    }

    /// The serving configuration.
    pub fn config(&self) -> &ServiceConfig {
        &self.shared.config
    }
}

impl Drop for QueryService {
    fn drop(&mut self) {
        let drained = {
            let mut state = self.shared.lock_queue();
            state.shutdown = true;
            state.drain_all()
        };
        self.shared.available.notify_all();
        for job in drained {
            let _ = job.reply.send(Err(ServiceError::Shutdown));
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

/// The ledger entry: one observation of the request's end-to-end
/// latency — measured from its intended arrival — in its outcome's
/// histogram. Called once per request, at refusal in
/// [`QueryService::submit`] or at the reply in `worker_loop`. Keyed by
/// outcome so an SLO gate can quantile *completed* latency without
/// cancelled or shed requests polluting the tail.
fn record(shared: &Shared, outcome: Outcome, arrived: Instant) {
    shared
        .metrics
        .observe(outcome.metric(), arrived.elapsed().as_secs_f64());
}

fn worker_loop(shared: &Shared) {
    loop {
        let job = {
            let mut state = shared.lock_queue();
            loop {
                if let Some(job) = state.pop_next() {
                    break job;
                }
                if state.shutdown {
                    return;
                }
                state = shared
                    .available
                    .wait(state)
                    .unwrap_or_else(|e| e.into_inner());
            }
        };
        // A request whose token tripped while it sat in the queue never
        // executes: an expired deadline answers `QueryTimedOut`, an
        // explicit cancel `Cancelled`.
        let result = match job.cancel.check(obs::Stage::QueueWait, 0) {
            Err(c) if c.reason == obs::CancelReason::DeadlineExceeded => {
                Err(ServiceError::QueryTimedOut {
                    waited_seconds: job.enqueued.elapsed().as_secs_f64(),
                })
            }
            Err(c) => Err(ServiceError::Cancelled {
                stage: c.stage,
                rows_processed: 0,
                reason: c.reason,
            }),
            Ok(()) => {
                let queue_seconds = job.enqueued.elapsed().as_secs_f64();
                // Panic isolation: a query that panics (e.g. an injected
                // panic fault, or an engine bug) must not take the worker
                // thread — and with it a slice of the pool's capacity —
                // down with it.
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    serve(shared, &job, queue_seconds)
                }))
                .unwrap_or_else(|payload| {
                    Err(ServiceError::Engine(format!(
                        "query worker panicked serving {} on {}: {}",
                        job.req.query.name(),
                        job.req.system.name(),
                        panic_message(&payload)
                    )))
                })
            }
        };
        record(shared, Outcome::of(&result), job.enqueued);
        let _ = job.reply.send(result);
    }
}

/// Serves one admitted request: result-cache lookup, engine execution on
/// miss (cancellable), cache fill, pricing.
fn serve(shared: &Shared, job: &Job, queue_seconds: f64) -> Result<QueryResponse, ServiceError> {
    let req = &job.req;
    let enqueued = job.enqueued;
    // The per-request trace epoch is the *submission* instant, so the
    // queue wait — which happened before any worker touched the job —
    // can be recorded retroactively as a span starting at 0.
    let trace = if shared.config.trace {
        obs::TraceCtx::enabled_since(enqueued)
    } else {
        obs::TraceCtx::disabled()
    };
    trace.record(
        obs::Stage::QueueWait,
        &req.tenant,
        enqueued,
        Duration::from_secs_f64(queue_seconds),
    );
    shared.metrics.observe("queue_wait_seconds", queue_seconds);
    let key = shared
        .result_cache
        .as_ref()
        .map(|_| result_key(req.system, req.query, shared.table_fingerprint));
    if let (Some(cache), Some(key)) = (shared.result_cache.as_ref(), key.as_ref()) {
        let lookup = trace.span_with(obs::Stage::CacheLookup, || "result cache".to_string());
        let hit = cache.get(key);
        drop(lookup);
        if let Some(hit) = hit {
            // Cached result: nothing is read, nothing is billed. The
            // all-zero scan is the response's contract, not an accident.
            let stats = ExecStats {
                scan: ScanStats::default(),
                ..ExecStats::default()
            };
            return Ok(QueryResponse {
                histogram: hit.histogram,
                stats,
                from_result_cache: true,
                cost_usd: cost_usd(shared, req.system, &stats, true),
                queue_seconds,
                total_seconds: enqueued.elapsed().as_secs_f64(),
                trace: shared.config.trace.then(|| trace.take_tree()),
            });
        }
    }
    // A cache miss on an already-expired job must not start a full scan:
    // recheck the deadline between the lookup and engine dispatch. (The
    // dequeue check ran before the lookup; the lookup itself can be the
    // moment the deadline passes.)
    if job.cancel.deadline().is_some_and(|d| Instant::now() > d) {
        return Err(ServiceError::QueryTimedOut {
            waited_seconds: enqueued.elapsed().as_secs_f64(),
        });
    }
    let env = ExecEnv {
        intra_query_threads: (shared.config.intra_query_threads > 0)
            .then_some(shared.config.intra_query_threads),
        parallel_workers: req.parallel_workers,
        zone_map_pruning: Some(shared.config.zone_map_pruning),
        fault_injector: shared.config.fault_injector.clone(),
        trace: trace.clone(),
        cancel: job.cancel.clone(),
    };
    let deployments = if req.compiled {
        &shared.engines_compiled
    } else {
        &shared.engines
    };
    let engine = deployments
        .get(&req.system)
        .expect("an engine per system is built at startup");
    let spec = QuerySpec::benchmark(req.query);
    // A transient fault that cleared within READ_RETRIES re-reads of its
    // chunk was absorbed by the scan; anything that reaches here is final.
    let run = match engine.execute(&spec, &env) {
        Ok(run) => run,
        // A cancelled run is not a failure (the backend is healthy — the
        // client or its deadline stopped the work), and it is never
        // billed: no response, no cost computation. Record a zero-length
        // span so the trace shows where the run stopped.
        Err(e) => match e.cancelled.as_deref() {
            Some(c) => {
                trace.span_with(c.stage, || format!("{c}"));
                return Err(ServiceError::Cancelled {
                    stage: c.stage,
                    rows_processed: c.rows_processed,
                    reason: c.reason,
                });
            }
            None => return Err(ServiceError::Engine(e.to_string())),
        },
    };
    // Feed the load-shedding EWMA with the completed execution's wall
    // time.
    let sample = run.stats.wall_seconds;
    let old = f64::from_bits(shared.exec_ewma_bits.load(Ordering::Relaxed));
    let ewma = if old == 0.0 {
        sample
    } else {
        0.8 * old + 0.2 * sample
    };
    shared
        .exec_ewma_bits
        .store(ewma.to_bits(), Ordering::Relaxed);
    if let (Some(cache), Some(key)) = (shared.result_cache.as_ref(), key) {
        cache.put(
            key,
            CachedResult {
                histogram: run.histogram.clone(),
                source_scan: run.stats.scan,
            },
        );
    }
    shared.metrics.observe("exec_seconds", sample);
    shared
        .metrics
        .counter_add("row_groups_pruned", run.stats.scan.groups_pruned);
    shared
        .metrics
        .counter_add("bytes_pruned", run.stats.scan.bytes_pruned);
    let mut response_trace = shared.config.trace.then_some(run.trace);
    if let Some(tree) = &mut response_trace {
        // The engine drained the context at the end of the run; merge in
        // anything recorded since (none today, but the
        // drain below keeps the context empty for the next request on
        // this worker either way).
        let leftover = trace.take_tree();
        tree.roots.extend(leftover.roots);
    }
    Ok(QueryResponse {
        cost_usd: cost_usd(shared, req.system, &run.stats, false),
        histogram: run.histogram,
        stats: run.stats,
        from_result_cache: false,
        queue_seconds,
        total_seconds: enqueued.elapsed().as_secs_f64(),
        trace: response_trace,
    })
}

/// Best-effort text of a caught panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Cost of one served query. QaaS systems bill scanned bytes (zero on a
/// result-cache hit); self-managed systems bill measured wall seconds on
/// the service's pricing instance (a hit has zero wall, hence zero cost).
fn cost_usd(shared: &Shared, system: System, stats: &ExecStats, from_result_cache: bool) -> f64 {
    match system {
        System::BigQuery | System::BigQueryExternal => {
            cloud_sim::bigquery_cost_usd_cached(&stats.scan, from_result_cache)
        }
        System::AthenaV2 | System::AthenaV1 => {
            cloud_sim::athena_cost_usd_cached(&stats.scan, from_result_cache)
        }
        System::Presto | System::Rumble | System::RDataFrame | System::RDataFrameDev => {
            cloud_sim::self_managed_cost_usd(stats.wall_seconds, shared.pricing_instance)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hep_model::generator::build_dataset;
    use hep_model::DatasetSpec;
    use hepbench_core::QueryId;

    fn table() -> Arc<Table> {
        Arc::new(
            build_dataset(DatasetSpec {
                n_events: 1_000,
                row_group_size: 256,
                seed: 11,
            })
            .1,
        )
    }

    /// A queue-only job; `n` is recoverable from the deadline so the pop
    /// order is observable.
    fn dummy_job(tenant: &str, n: u64) -> Job {
        let (tx, _rx) = mpsc::channel();
        let enqueued = Instant::now();
        Job {
            req: QueryRequest::new(tenant, System::BigQuery, QueryId::Q1),
            enqueued,
            cancel: obs::CancelToken::with_deadline(enqueued + Duration::from_secs(n)),
            reply: tx,
        }
    }

    #[test]
    fn dequeue_is_round_robin_across_tenants() {
        let mut state = QueueState::default();
        for (tenant, n) in [("a", 1), ("a", 2), ("a", 3), ("b", 4), ("a", 5)] {
            state.push(tenant.to_string(), dummy_job(tenant, n));
        }
        let order: Vec<(String, u64)> = std::iter::from_fn(|| state.pop_next())
            .map(|j| {
                let n = (j.cancel.deadline().unwrap() - j.enqueued).as_secs();
                (j.req.tenant.clone(), n)
            })
            .collect();
        // Tenant "a" flooded the queue; "b" is served after one "a" job,
        // not after four.
        assert_eq!(
            order,
            vec![
                ("a".to_string(), 1),
                ("b".to_string(), 4),
                ("a".to_string(), 2),
                ("a".to_string(), 3),
                ("a".to_string(), 5),
            ]
        );
        assert_eq!(state.queued, 0);
    }

    #[test]
    fn serves_and_caches_results() {
        let service = QueryService::start(
            table(),
            ServiceConfig {
                n_workers: 2,
                ..ServiceConfig::default()
            },
        );
        let first = service
            .execute(QueryRequest::new("t0", System::BigQuery, QueryId::Q1))
            .unwrap();
        assert!(!first.from_result_cache);
        assert!(first.stats.scan.bytes_scanned > 0);
        assert!(first.cost_usd > 0.0);
        let second = service
            .execute(QueryRequest::new("t1", System::BigQuery, QueryId::Q1))
            .unwrap();
        assert!(second.from_result_cache, "repeat must hit the result cache");
        assert_eq!(second.stats.scan, ScanStats::default());
        assert_eq!(second.cost_usd, 0.0);
        assert_eq!(second.histogram, first.histogram);
        let (hits, misses) = service.result_cache_counters().unwrap();
        assert_eq!((hits, misses), (1, 1));
        let snap = service.stats();
        assert_eq!(snap.completed, 2);
        assert_eq!(snap.failed, 0);
    }

    /// The ledger is the only record of outcomes: `stats()`, the
    /// metrics snapshot and `latency_histogram` agree on every outcome,
    /// and once nothing is in flight every submitted request has exactly
    /// one.
    fn assert_ledger_consistent(service: &QueryService) {
        let stats = service.stats();
        let metrics = service.metrics_snapshot();
        let count = |o: Outcome| service.latency_histogram(o).count();
        for o in Outcome::ALL {
            let in_metrics = metrics.histogram(o.metric()).map_or(0, |h| h.count);
            assert_eq!(in_metrics, count(o), "{o:?}: metrics snapshot vs histogram");
        }
        let from_stats = [
            (Outcome::Completed, stats.completed),
            (Outcome::Rejected, stats.rejected),
            (Outcome::Shedded, stats.shedded),
            (Outcome::TimedOut, stats.timed_out),
            (Outcome::Cancelled, stats.cancelled),
            (Outcome::Failed, stats.failed),
        ];
        for (o, n) in from_stats {
            assert_eq!(n, count(o), "{o:?}: stats() vs histogram");
        }
        assert_eq!(metrics.counter("queries_submitted"), stats.submitted);
        let total: u64 = Outcome::ALL.into_iter().map(count).sum();
        assert_eq!(stats.submitted, total, "submitted vs the sum over outcomes");
    }

    #[test]
    fn zero_depth_queue_rejects_everything() {
        let service = QueryService::start(
            table(),
            ServiceConfig {
                n_workers: 1,
                queue_depth: 0,
                ..ServiceConfig::default()
            },
        );
        let err = service
            .execute(QueryRequest::new("t0", System::Presto, QueryId::Q1))
            .unwrap_err();
        assert!(matches!(
            err,
            ServiceError::QueryRejected { queue_depth: 0 }
        ));
        assert_eq!(service.stats().rejected, 1);
        assert_ledger_consistent(&service);
    }

    #[test]
    fn expired_deadline_times_out_in_queue() {
        let service = QueryService::start(
            table(),
            ServiceConfig {
                n_workers: 1,
                result_cache: false,
                ..ServiceConfig::default()
            },
        );
        // Occupy the single worker, then enqueue a request whose deadline
        // has already passed by the time the worker reaches it.
        let busy = service
            .submit(QueryRequest::new("t0", System::Rumble, QueryId::Q6a))
            .unwrap();
        let doomed = service
            .submit(QueryRequest {
                deadline: Some(Duration::ZERO),
                ..QueryRequest::new("t0", System::BigQuery, QueryId::Q1)
            })
            .unwrap();
        busy.wait().unwrap();
        let err = doomed.wait().unwrap_err();
        assert!(matches!(err, ServiceError::QueryTimedOut { .. }));
        assert_eq!(service.stats().timed_out, 1);
        assert_ledger_consistent(&service);
    }

    /// A latency-storm injector: every physical chunk read sleeps, so a
    /// query is reliably still running when the test cancels it.
    fn latency_storm(ms: u64) -> Option<Arc<FaultInjector>> {
        Some(Arc::new(FaultInjector::new(nf2_columnar::FaultConfig {
            latency: Duration::from_millis(ms),
            ..nf2_columnar::FaultConfig::only(nf2_columnar::FaultClass::Latency, 1.0, 7)
        })))
    }

    #[test]
    fn explicit_cancel_stops_running_query_and_is_never_billed() {
        let service = QueryService::start(
            table(),
            ServiceConfig {
                n_workers: 1,
                result_cache: false,
                fault_injector: latency_storm(10),
                ..ServiceConfig::default()
            },
        );
        let ticket = service
            .submit(QueryRequest::new("t0", System::BigQuery, QueryId::Q1))
            .unwrap();
        // Let the worker get well into the (artificially slow) scan,
        // then hang up.
        std::thread::sleep(Duration::from_millis(5));
        ticket.cancel();
        // An unrelated request still serves fine afterwards.
        let follow_up = service
            .submit(QueryRequest::new("t0", System::BigQuery, QueryId::Q1))
            .unwrap();
        let err = ticket.wait().unwrap_err();
        let ServiceError::Cancelled {
            rows_processed,
            reason,
            ..
        } = err
        else {
            panic!("expected Cancelled, got {err}");
        };
        assert_eq!(reason, obs::CancelReason::Explicit);
        assert!(rows_processed < 1_000, "the full scan must not complete");
        let snap = service.stats();
        assert_eq!(snap.cancelled, 1);
        assert_eq!(snap.failed, 0, "a cancel is not an engine failure");
        // Never billed: the cancelled attempt contributed no completed
        // execution — no exec-time observation, no completion count.
        assert!(service
            .metrics_snapshot()
            .histogram("exec_seconds")
            .is_none());
        assert_eq!(snap.completed, 0);
        follow_up.wait().unwrap();
        assert_ledger_consistent(&service);
    }

    #[test]
    fn mid_run_deadline_cancels_within_one_row_group() {
        let service = QueryService::start(
            table(),
            ServiceConfig {
                n_workers: 1,
                result_cache: false,
                fault_injector: latency_storm(20),
                ..ServiceConfig::default()
            },
        );
        // Four 256-row groups at ≥20 ms of injected latency each: a
        // 30 ms deadline expires mid-scan, well before the last group.
        let err = service
            .execute(QueryRequest {
                deadline: Some(Duration::from_millis(30)),
                ..QueryRequest::new("t0", System::BigQuery, QueryId::Q1)
            })
            .unwrap_err();
        let ServiceError::Cancelled {
            rows_processed,
            reason,
            ..
        } = err
        else {
            panic!("expected Cancelled, got {err}");
        };
        assert_eq!(reason, obs::CancelReason::DeadlineExceeded);
        assert!(
            rows_processed < 1_000,
            "deadline must stop the scan before the last group ({rows_processed} rows)"
        );
        assert_eq!(service.stats().cancelled, 1);
    }

    #[test]
    fn shedding_rejects_when_backlog_outlasts_deadline() {
        let service = QueryService::start(
            table(),
            ServiceConfig {
                n_workers: 1,
                result_cache: false,
                load_shedding: true,
                ..ServiceConfig::default()
            },
        );
        // Prime the execution-time EWMA with one completed query.
        service
            .execute(QueryRequest::new("t0", System::BigQuery, QueryId::Q1))
            .unwrap();
        // Pile up work on the single worker so the backlog estimate is
        // non-zero when the doomed request arrives.
        let backlog: Vec<Ticket> = (0..6)
            .map(|_| {
                service
                    .submit(QueryRequest::new("t0", System::Rumble, QueryId::Q5))
                    .unwrap()
            })
            .collect();
        let err = service
            .submit(QueryRequest {
                deadline: Some(Duration::from_nanos(1)),
                ..QueryRequest::new("t1", System::BigQuery, QueryId::Q1)
            })
            .unwrap_err();
        assert!(
            matches!(err, ServiceError::QueryShedded { .. }),
            "expected QueryShedded, got {err}"
        );
        assert_eq!(service.stats().shedded, 1);
        for t in backlog {
            t.wait().unwrap();
        }
        assert_ledger_consistent(&service);
    }

    /// The retired `chunk_cache_bytes` cannot be set and silently
    /// ignored: any value but 0 stops the service at start.
    #[test]
    #[should_panic(expected = "chunk_cache_bytes is retired")]
    fn start_panics_when_the_retired_chunk_cache_is_sized() {
        QueryService::start(
            table(),
            ServiceConfig {
                chunk_cache_bytes: 64 << 20,
                ..ServiceConfig::default()
            },
        );
    }

    #[test]
    fn shutdown_answers_queued_requests() {
        let service = QueryService::start(
            table(),
            ServiceConfig {
                n_workers: 1,
                result_cache: false,
                ..ServiceConfig::default()
            },
        );
        // One served request proves the pool runs; the pile-up submitted
        // right before the drop may be served or drained, but every
        // ticket must get an answer — no request hangs forever.
        service
            .execute(QueryRequest::new("t0", System::BigQuery, QueryId::Q1))
            .unwrap();
        let tickets: Vec<Ticket> = (0..6)
            .map(|i| {
                service
                    .submit(QueryRequest::new(
                        format!("t{}", i % 3),
                        System::Rumble,
                        QueryId::Q6b,
                    ))
                    .unwrap()
            })
            .collect();
        drop(service);
        let mut answered = 0;
        for t in tickets {
            match t.wait() {
                Ok(_) | Err(ServiceError::Shutdown) => answered += 1,
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
        assert_eq!(answered, 6);
    }
}
