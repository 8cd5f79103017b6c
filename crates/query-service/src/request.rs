//! Request/response types, service errors and request outcomes.

use std::time::{Duration, Instant};

use hepbench_core::runner::System;
use hepbench_core::QueryId;
use nf2_columnar::ExecStats;
use physics::Histogram;

/// One query request from one tenant.
#[derive(Clone, Debug)]
pub struct QueryRequest {
    /// Tenant identity — the unit of fair scheduling. Tenants share the
    /// data and the result cache (the table is immutable, so there is no
    /// cross-tenant leakage to isolate), but queue capacity is dequeued
    /// round-robin across tenants so one flood cannot starve the rest.
    pub tenant: String,
    /// Which simulated system executes the query (selects engine and
    /// dialect).
    pub system: System,
    /// The benchmark query to run.
    pub query: QueryId,
    /// Per-query deadline measured from submission; `None` uses the
    /// service default. A request whose deadline passes while it is still
    /// queued is answered with [`ServiceError::QueryTimedOut`] instead of
    /// executing.
    pub deadline: Option<Duration>,
    /// Morsel-parallel workers for this query's compiled execution
    /// (`None` ⇒ serial, the default). Opt-in per request: results are
    /// byte-identical at any value (the exchange merges partials in
    /// deterministic group order), so this only trades worker-pool
    /// threads for single-query latency. Engines that do not compile
    /// the query ignore it.
    pub parallel_workers: Option<usize>,
    /// Execute through the system's *compiled* deployment
    /// (physical-IR batch kernels) instead of the interpreted one.
    /// Results are byte-identical either way (the PR 6 fuzz gate);
    /// this selects the CPU profile a request pays for. Off by
    /// default, and never used by the paper simulation.
    pub compiled: bool,
    /// The request's **intended arrival instant** for open-loop load:
    /// deadlines, queue wait and end-to-end latency are all measured
    /// from it rather than from the moment `submit` ran, so a slow
    /// submitter charges its own lag to the request (no coordinated
    /// omission). `None` — the default, and the closed-loop behaviour —
    /// uses the submission instant.
    pub arrival: Option<Instant>,
}

impl QueryRequest {
    /// A request with the service-default deadline.
    pub fn new(tenant: impl Into<String>, system: System, query: QueryId) -> QueryRequest {
        QueryRequest {
            tenant: tenant.into(),
            system,
            query,
            deadline: None,
            parallel_workers: None,
            compiled: false,
            arrival: None,
        }
    }

    /// Opts this request into morsel-parallel compiled execution with
    /// `workers` threads.
    pub fn with_parallel_workers(mut self, workers: usize) -> QueryRequest {
        self.parallel_workers = Some(workers);
        self
    }

    /// Routes this request through the system's compiled deployment.
    pub fn via_compiled(mut self) -> QueryRequest {
        self.compiled = true;
        self
    }

    /// Timestamps this request with its intended open-loop arrival
    /// instant (see [`QueryRequest::arrival`]).
    pub fn arriving_at(mut self, arrival: Instant) -> QueryRequest {
        self.arrival = Some(arrival);
        self
    }
}

/// A served query result.
#[derive(Clone, Debug)]
pub struct QueryResponse {
    /// The query's histogram.
    pub histogram: Histogram,
    /// Execution statistics. On a result-cache hit this reports **zero
    /// bytes scanned** (all-zero [`nf2_columnar::ScanStats`]): nothing was
    /// read, which is exactly how BigQuery bills cached results.
    pub stats: ExecStats,
    /// Whether the response was served from the result cache.
    pub from_result_cache: bool,
    /// Query cost under the system's pricing model (QaaS: bytes-based,
    /// $0 on a result-cache hit; self-managed: measured wall seconds on
    /// the service's pricing instance).
    pub cost_usd: f64,
    /// Seconds the request waited in the admission queue.
    pub queue_seconds: f64,
    /// End-to-end seconds from submission to completion.
    pub total_seconds: f64,
    /// The request's span tree — queue wait, cache lookup, and the
    /// engine's stage spans (chunk re-reads included) — when the service was configured with
    /// `trace: true`; `None` otherwise.
    pub trace: Option<obs::SpanTree>,
}

/// Why the service could not serve a request.
#[derive(Clone, Debug)]
pub enum ServiceError {
    /// Admission control refused the request: the bounded queue is full.
    /// Back off and retry; the alternative is the unbounded pile-up the
    /// paper's QaaS providers avoid the same way.
    QueryRejected {
        /// The configured queue depth that was exhausted.
        queue_depth: usize,
    },
    /// Load shedding refused the request at admission: the estimated
    /// queue wait (EWMA of recent execution times × queue depth ÷
    /// workers) already exceeds the request's deadline budget, so
    /// queueing it would only burn capacity on a query doomed to time
    /// out. Rejection costs microseconds — no scan is touched.
    QueryShedded {
        /// Predicted seconds the request would wait before a worker
        /// reached it.
        estimated_wait_seconds: f64,
        /// The request's deadline budget in seconds.
        deadline_seconds: f64,
    },
    /// The deadline passed before a worker picked the request up.
    QueryTimedOut {
        /// Seconds the request spent queued before expiring.
        waited_seconds: f64,
    },
    /// The query was cancelled *while running* — an explicit
    /// [`crate::Ticket::cancel`] or an expired deadline tripped the
    /// request's [`obs::CancelToken`] and the engine stopped
    /// cooperatively within one row group. The partial work is discarded
    /// and never billed (no cost is computed on this path).
    Cancelled {
        /// The pipeline stage where the cancellation check fired.
        stage: obs::Stage,
        /// Rows fully processed before the run stopped — bounded by
        /// "rows at the deadline + one row group".
        rows_processed: u64,
        /// Whether the token tripped explicitly or by deadline.
        reason: obs::CancelReason,
    },
    /// The engine failed executing the query (message carries system and
    /// query id).
    Engine(String),
    /// The service shut down with the request still queued.
    Shutdown,
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::QueryRejected { queue_depth } => {
                write!(f, "rejected: admission queue full ({queue_depth} deep)")
            }
            ServiceError::QueryShedded {
                estimated_wait_seconds,
                deadline_seconds,
            } => {
                write!(
                    f,
                    "shed: estimated queue wait {estimated_wait_seconds:.3}s exceeds \
                     deadline budget {deadline_seconds:.3}s"
                )
            }
            ServiceError::QueryTimedOut { waited_seconds } => {
                write!(f, "timed out after {waited_seconds:.3}s in queue")
            }
            ServiceError::Cancelled {
                stage,
                rows_processed,
                reason,
            } => {
                write!(
                    f,
                    "cancelled ({}) in {} after {rows_processed} rows",
                    reason.name(),
                    stage.name()
                )
            }
            ServiceError::Engine(e) => write!(f, "engine error: {e}"),
            ServiceError::Shutdown => write!(f, "service shut down"),
        }
    }
}

impl std::error::Error for ServiceError {}

/// How one request ended — the service's outcome taxonomy. Every
/// submitted request ends in exactly one outcome, recorded once as an
/// observation of its end-to-end latency (from intended arrival) in the
/// outcome's [`Outcome::metric`] histogram; that ledger is what
/// [`crate::QueryService::stats`] and
/// [`crate::QueryService::latency_histogram`] read.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// Answered with a result (cached or executed).
    Completed,
    /// Refused at submission: the admission queue was full.
    Rejected,
    /// Refused at submission by load shedding.
    Shedded,
    /// The deadline expired before execution started.
    TimedOut,
    /// Cancelled while queued or running (explicit cancel, or a deadline
    /// tripping the cancel token mid-execution).
    Cancelled,
    /// The engine failed (or, seen only by a client, the service shut
    /// down with the request queued).
    Failed,
}

impl Outcome {
    /// Every outcome, in taxonomy order.
    pub const ALL: [Outcome; 6] = [
        Outcome::Completed,
        Outcome::Rejected,
        Outcome::Shedded,
        Outcome::TimedOut,
        Outcome::Cancelled,
        Outcome::Failed,
    ];

    /// The outcome a submission or a reply stands for: `Ok` is
    /// [`Outcome::Completed`], each [`ServiceError`] maps to its own.
    pub fn of<T>(result: &Result<T, ServiceError>) -> Outcome {
        match result {
            Ok(_) => Outcome::Completed,
            Err(ServiceError::QueryRejected { .. }) => Outcome::Rejected,
            Err(ServiceError::QueryShedded { .. }) => Outcome::Shedded,
            Err(ServiceError::QueryTimedOut { .. }) => Outcome::TimedOut,
            Err(ServiceError::Cancelled { .. }) => Outcome::Cancelled,
            Err(ServiceError::Engine(_) | ServiceError::Shutdown) => Outcome::Failed,
        }
    }

    /// The outcome's end-to-end latency histogram in the service's
    /// metrics registry (`latency_seconds_<outcome>`).
    pub fn metric(self) -> &'static str {
        match self {
            Outcome::Completed => "latency_seconds_completed",
            Outcome::Rejected => "latency_seconds_rejected",
            Outcome::Shedded => "latency_seconds_shedded",
            Outcome::TimedOut => "latency_seconds_timed_out",
            Outcome::Cancelled => "latency_seconds_cancelled",
            Outcome::Failed => "latency_seconds_failed",
        }
    }
}

/// Outcome counts of a running [`crate::QueryService`], read from its
/// ledger.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct StatsSnapshot {
    /// Requests offered to [`crate::QueryService::submit`], including ones
    /// admission control rejected.
    pub submitted: u64,
    /// Requests answered with a result (cached or executed).
    pub completed: u64,
    /// Requests refused at submission because the queue was full.
    pub rejected: u64,
    /// Requests refused at submission by load shedding: the estimated
    /// queue wait already exceeded the deadline budget.
    pub shedded: u64,
    /// Requests whose deadline expired while queued.
    pub timed_out: u64,
    /// Requests cancelled while queued or running (explicit cancel, or
    /// deadline expiry tripping the request's cancel token
    /// mid-execution).
    pub cancelled: u64,
    /// Requests whose engine execution failed.
    pub failed: u64,
}
