//! The one run path from a query text (or dataframe program) to a
//! histogram, shared by every deployment and by the fuzzer, and the
//! error type every engine failure is bridged into.

use std::sync::Arc;

use engine_flwor::FlworEngine;
use engine_rdf::RDataFrame;
use engine_sql::{Dialect, SqlEngine};
use nested_value::Value;
use nf2_columnar::{ExecStats, ScanError, Table};
use physics::{HistSpec, Histogram};

pub use exec_par::{ExecEnv, ExecOptions};

/// An adapter failure (engine error or malformed result shape), carrying
/// the executing system, the query id, and — for chaos-layer scan faults —
/// the typed [`ScanError`] with row group and leaf column.
#[derive(Clone, Debug, PartialEq)]
pub struct AdapterError {
    /// Name of the system (or language, below the system layer) that
    /// failed.
    pub system: String,
    /// Name of the benchmark query that failed.
    pub query: String,
    /// The underlying engine error, formatted.
    pub message: String,
    /// The typed scan fault when the failure was an injected fault;
    /// `None` for ordinary engine errors. The service retry path keys
    /// off this.
    pub scan: Option<Box<ScanError>>,
    /// The typed cancellation payload when the run was stopped by a
    /// tripped [`obs::CancelToken`] (expired deadline or explicit
    /// cancel); `None` for every other failure. Never retryable, and
    /// never billed: the error path computes no cost.
    pub cancelled: Option<Box<obs::Cancelled>>,
}

impl AdapterError {
    /// Builds an error from an engine failure, extracting the typed scan
    /// fault when there is one.
    pub fn new(
        system: impl Into<String>,
        query: impl Into<String>,
        message: impl ToString,
        scan: Option<&ScanError>,
    ) -> AdapterError {
        AdapterError {
            system: system.into(),
            query: query.into(),
            message: message.to_string(),
            scan: scan.cloned().map(Box::new),
            cancelled: None,
        }
    }

    /// Builds an error from any engine's error type, propagating its
    /// typed scan fault and cancellation payload. This is the single
    /// bridge every engine adapter uses — a new engine only implements
    /// [`EngineError`] and gets scan-fault propagation (and thus
    /// service-side retries) and typed cancellation for free.
    pub fn from_engine(
        system: impl Into<String>,
        query: impl Into<String>,
        e: &dyn EngineError,
    ) -> AdapterError {
        let mut err = AdapterError::new(system, query, e, e.scan_error());
        err.cancelled = e.cancel_error().copied().map(Box::new);
        err
    }

    /// Whether the service retry path should re-run the query. A
    /// cancelled run is never retryable: the token stays tripped.
    pub fn retryable(&self) -> bool {
        self.cancelled.is_none() && self.scan.as_ref().is_some_and(|s| s.retryable())
    }
}

/// The contract an engine's error type satisfies so the adapter layer
/// can wrap it uniformly: printable, and able to surface the typed
/// chaos-layer [`ScanError`] when the failure was an injected fault.
pub trait EngineError: std::fmt::Display {
    /// The typed scan fault, when this error is one.
    fn scan_error(&self) -> Option<&ScanError>;

    /// The typed cancellation payload, when this error is one.
    /// Defaults to `None` so engines without cooperative cancellation
    /// still satisfy the contract.
    fn cancel_error(&self) -> Option<&obs::Cancelled> {
        None
    }
}

impl EngineError for engine_sql::SqlError {
    fn scan_error(&self) -> Option<&ScanError> {
        self.scan_error()
    }

    fn cancel_error(&self) -> Option<&obs::Cancelled> {
        self.cancelled()
    }
}

impl EngineError for engine_flwor::FlworError {
    fn scan_error(&self) -> Option<&ScanError> {
        self.scan_error()
    }

    fn cancel_error(&self) -> Option<&obs::Cancelled> {
        self.cancelled()
    }
}

impl EngineError for physical_ir::PirError {
    fn scan_error(&self) -> Option<&ScanError> {
        match self {
            physical_ir::PirError::Columnar(e) => e.scan_error(),
            physical_ir::PirError::Cancelled(_) | physical_ir::PirError::MorselPanic { .. } => None,
        }
    }

    fn cancel_error(&self) -> Option<&obs::Cancelled> {
        match self {
            physical_ir::PirError::Cancelled(c) => Some(c),
            physical_ir::PirError::Columnar(e) => e.cancelled(),
            physical_ir::PirError::MorselPanic { .. } => None,
        }
    }
}

impl EngineError for engine_rdf::RdfError {
    fn scan_error(&self) -> Option<&ScanError> {
        self.scan_error()
    }

    fn cancel_error(&self) -> Option<&obs::Cancelled> {
        self.cancelled()
    }
}

impl std::fmt::Display for AdapterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} on {}: {}", self.query, self.system, self.message)
    }
}

impl std::error::Error for AdapterError {}

/// Result of running a query through an engine.
pub struct EngineRun {
    /// The query's histogram.
    pub histogram: Histogram,
    /// Execution statistics.
    pub stats: ExecStats,
    /// The span tree recorded during the run. Empty when the
    /// environment's [`obs::TraceCtx`] was disabled (the default).
    pub trace: obs::SpanTree,
}

/// A query in one of the three frontends, ready for [`run_frontend`].
pub(crate) enum Frontend {
    /// SQL text under a dialect profile.
    Sql(Dialect, String),
    /// JSONiq text.
    Jsoniq(String),
    /// A built dataframe program with one booking; it carries its own
    /// table and options.
    Rdf(Box<RDataFrame>),
}

/// Builds the query with `frontend` and runs it over `table` under
/// `options` and `env`, binning the result into a histogram of `spec`;
/// failures name `system` and `query`. Building is charged to the run's
/// `setup` span. The one run path: the deployments of
/// [`crate::engine_api`] and the fuzzer's [`crate::fuzzplan::FuzzPlan`]
/// runs all go through it.
///
/// Records stage spans into `env.trace` but does not drain them: the
/// caller owning the query-level root span collects the tree, so
/// [`EngineRun::trace`] is empty here.
pub(crate) fn run_frontend(
    frontend: impl FnOnce() -> Frontend,
    table: &Arc<Table>,
    options: ExecOptions,
    env: &ExecEnv,
    spec: HistSpec,
    system: &str,
    query: &str,
) -> Result<EngineRun, AdapterError> {
    let engine_err = |e: &dyn EngineError| AdapterError::from_engine(system, query, e);
    let shape_err = |e: String| AdapterError::new(system, query, e, None);
    let setup_span = env
        .trace
        .span_with(obs::Stage::Plan, || "setup".to_string());
    let (histogram, stats) = match frontend() {
        Frontend::Sql(dialect, text) => {
            let mut engine = SqlEngine::new(dialect, options);
            engine.register(table.clone());
            engine.set_env(env.clone());
            setup_span.finish();
            let out = engine.execute(&text).map_err(|e| engine_err(&e))?;
            let hist_span = histogram_span(env);
            let mut histogram = Histogram::new(spec);
            for row in &out.relation.rows {
                let (bin, n) = bin_count_row(row).map_err(shape_err)?;
                histogram.add_bin_count(bin, n);
            }
            hist_span.finish();
            (histogram, out.stats)
        }
        Frontend::Jsoniq(text) => {
            let mut engine = FlworEngine::new(options);
            engine.register(table.clone());
            engine.set_env(env.clone());
            setup_span.finish();
            let out = engine.execute(&text).map_err(|e| engine_err(&e))?;
            let hist_span = histogram_span(env);
            let mut histogram = Histogram::new(spec);
            for item in &out.items {
                let bin = item
                    .as_i64()
                    .map_err(|e| shape_err(format!("bin item {e}")))?;
                histogram.add_bin_count(bin, 1);
            }
            hist_span.finish();
            (histogram, out.stats)
        }
        Frontend::Rdf(mut df) => {
            df.set_env(env.clone());
            setup_span.finish();
            let out = df.run_all().map_err(|e| engine_err(&e))?;
            let hist_span = histogram_span(env);
            let histogram = out.histograms.into_iter().next().expect("one booking");
            hist_span.finish();
            (histogram, out.stats)
        }
    };
    Ok(EngineRun {
        histogram,
        stats,
        trace: obs::SpanTree::default(),
    })
}

fn histogram_span(env: &ExecEnv) -> obs::SpanGuard {
    env.trace
        .span_with(obs::Stage::Materialize, || "histogram".to_string())
}

fn bin_count_row(row: &[Value]) -> Result<(i64, u64), String> {
    match row {
        [bin, n] => {
            let b = bin
                .as_i64()
                .map_err(|e| format!("bin column: {e} ({bin})"))?;
            let c = n.as_i64().map_err(|e| format!("count column: {e}"))?;
            Ok((b, c as u64))
        }
        other => Err(format!(
            "expected (bin, n) rows, got {} columns",
            other.len()
        )),
    }
}
