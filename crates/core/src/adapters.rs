//! Uniform execution of any benchmark query on any engine.

use std::sync::Arc;

use engine_flwor::{FlworEngine, FlworOptions};
use engine_sql::{Dialect, SqlEngine, SqlOptions};
use nested_value::Value;
use nf2_columnar::{ChunkCache, ExecStats, FaultInjector, ScanError, Table};
use physics::Histogram;

use crate::queries::{self, Language};
use crate::spec::QueryId;

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

/// Cross-engine execution environment: everything the serving layer
/// injects into a run that is not part of the query itself.
#[derive(Clone, Default)]
pub struct ExecEnv {
    /// Shared buffer pool fronting physical chunk reads (accounting-only;
    /// results and billing bytes are unchanged — see
    /// [`nf2_columnar::ScanStats`]). `None` reproduces the seed path
    /// byte-for-byte.
    pub chunk_cache: Option<Arc<ChunkCache>>,
    /// Worker threads *inside* one query (`None` ⇒ engine default, i.e.
    /// all cores). A multi-tenant server sets this to 1 and parallelizes
    /// across queries instead.
    pub intra_query_threads: Option<usize>,
    /// Morsel-parallel workers for *compiled* execution (`None` ⇒ engine
    /// option default, which is serial). Unlike `intra_query_threads`
    /// (the interpreters' partition parallelism), this drives the
    /// `exec_par` morsel executor on the compiled-IR path; results are
    /// byte-identical at any value, so it is purely a latency knob the
    /// serving layer can expose per query.
    pub parallel_workers: Option<usize>,
    /// Zone-map row-group pruning override (`None` ⇒ engine option
    /// default, which is on). Results are byte-identical either way;
    /// `Some(false)` reproduces the paper's configuration, where every
    /// system reads every row group and pruning never perturbs the
    /// measured scan bytes (see [`nf2_columnar::ScanStats`]).
    pub zone_map_pruning: Option<bool>,
    /// Morsel-level fault recovery override for compiled execution
    /// (`None` ⇒ engine option default, which is off). With
    /// `Some(true)`, transient scan faults are retried per morsel and
    /// panicking morsels are quarantined and re-executed in place
    /// instead of failing the whole query (see `exec_par`); results are
    /// byte-identical, only failure handling changes.
    pub morsel_recovery: Option<bool>,
    /// Chaos-layer fault injector on physical chunk reads (`None`, the
    /// default, reproduces the fault-free path byte-for-byte; see
    /// [`nf2_columnar::fault`]).
    pub fault_injector: Option<Arc<FaultInjector>>,
    /// Tracing context. The default (disabled) context records nothing
    /// and costs near-zero; an enabled context collects a span tree the
    /// run returns in [`EngineRun::trace`].
    pub trace: obs::TraceCtx,
    /// Cooperative cancellation token, checked by every engine at
    /// row-group granularity. The default (disabled) token never trips
    /// and costs a single branch per check, keeping the seed path
    /// byte-identical.
    pub cancel: obs::CancelToken,
}

impl ExecEnv {
    /// The environment the single-query benchmarks run in (no caches,
    /// engine-default parallelism) — the paper's configuration.
    pub fn seed() -> ExecEnv {
        ExecEnv::default()
    }
}

/// Runs a query on the SQL engine under an explicit [`ExecEnv`].
///
/// This is the raw per-engine adapter the [`crate::engine_api`] trait
/// impls delegate to. It records stage spans into `env.trace` but does
/// not drain them: the caller owning the query-level root span (the
/// trait impl, or the serving layer) collects the tree, so
/// [`EngineRun::trace`] is empty here.
pub fn run_sql_env(
    dialect: Dialect,
    table: &Arc<Table>,
    q: QueryId,
    mut options: SqlOptions,
    env: &ExecEnv,
) -> Result<EngineRun, AdapterError> {
    let lang = match dialect.name {
        engine_sql::DialectName::BigQuery => Language::BigQuery,
        engine_sql::DialectName::Presto => Language::Presto,
        engine_sql::DialectName::Athena => Language::Athena,
    };
    if let Some(n) = env.intra_query_threads {
        options.n_threads = n;
    }
    if let Some(n) = env.parallel_workers {
        options.parallel_workers = n;
    }
    if let Some(p) = env.zone_map_pruning {
        options.zone_map_pruning = p;
    }
    if let Some(r) = env.morsel_recovery {
        options.morsel_recovery = r;
    }
    let setup_span = env
        .trace
        .span_with(obs::Stage::Plan, || "setup".to_string());
    let sql = queries::text(lang, q);
    let mut engine = SqlEngine::new(dialect, options);
    engine.register(table.clone());
    engine.set_chunk_cache(env.chunk_cache.clone());
    engine.set_fault_injector(env.fault_injector.clone());
    engine.set_trace(env.trace.clone());
    engine.set_cancel(env.cancel.clone());
    setup_span.finish();
    let out = engine
        .execute(&sql)
        .map_err(|e| AdapterError::from_engine(lang.name(), q.name(), &e))?;
    let hist_span = env
        .trace
        .span_with(obs::Stage::Materialize, || "histogram".to_string());
    let mut histogram = Histogram::new(q.hist_spec());
    for row in &out.relation.rows {
        let (bin, n) =
            bin_count_row(row).map_err(|e| AdapterError::new(lang.name(), q.name(), e, None))?;
        histogram.add_bin_count(bin, n);
    }
    hist_span.finish();
    Ok(EngineRun {
        histogram,
        stats: out.stats,
        trace: obs::SpanTree::default(),
    })
}

pub(crate) fn bin_count_row(row: &[Value]) -> Result<(i64, u64), String> {
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

/// Runs a query on the JSONiq engine under an explicit [`ExecEnv`].
/// Like [`run_sql_env`], records spans into `env.trace` but leaves
/// draining to the caller.
pub fn run_jsoniq_env(
    table: &Arc<Table>,
    q: QueryId,
    mut options: FlworOptions,
    env: &ExecEnv,
) -> Result<EngineRun, AdapterError> {
    if let Some(n) = env.intra_query_threads {
        options.n_threads = n;
    }
    if let Some(n) = env.parallel_workers {
        options.parallel_workers = n;
    }
    if let Some(p) = env.zone_map_pruning {
        options.zone_map_pruning = p;
    }
    if let Some(r) = env.morsel_recovery {
        options.morsel_recovery = r;
    }
    let setup_span = env
        .trace
        .span_with(obs::Stage::Plan, || "setup".to_string());
    let text = queries::text(Language::Jsoniq, q);
    let mut engine = FlworEngine::new(options);
    engine.register(table.clone());
    engine.set_chunk_cache(env.chunk_cache.clone());
    engine.set_fault_injector(env.fault_injector.clone());
    engine.set_trace(env.trace.clone());
    engine.set_cancel(env.cancel.clone());
    setup_span.finish();
    let out = engine
        .execute(&text)
        .map_err(|e| AdapterError::from_engine("JSONiq", q.name(), &e))?;
    let hist_span = env
        .trace
        .span_with(obs::Stage::Materialize, || "histogram".to_string());
    let mut histogram = Histogram::new(q.hist_spec());
    for item in &out.items {
        let bin = item
            .as_i64()
            .map_err(|e| AdapterError::new("JSONiq", q.name(), format!("bin item {e}"), None))?;
        histogram.add_bin_count(bin, 1);
    }
    hist_span.finish();
    Ok(EngineRun {
        histogram,
        stats: out.stats,
        trace: obs::SpanTree::default(),
    })
}

/// Runs a query on the RDataFrame-style engine under an explicit
/// [`ExecEnv`]. Like [`run_sql_env`], records spans into `env.trace`
/// but leaves draining to the caller.
pub fn run_rdf_env(
    table: &Arc<Table>,
    q: QueryId,
    mut options: engine_rdf::Options,
    env: &ExecEnv,
) -> Result<EngineRun, AdapterError> {
    if let Some(n) = env.intra_query_threads {
        options.n_threads = n;
    }
    if let Some(n) = env.parallel_workers {
        options.parallel_workers = n;
    }
    if let Some(p) = env.zone_map_pruning {
        options.zone_map_pruning = p;
    }
    if let Some(r) = env.morsel_recovery {
        options.morsel_recovery = r;
    }
    let setup_span = env
        .trace
        .span_with(obs::Stage::Plan, || "setup".to_string());
    let mut df = crate::rdf_programs::build(q, table.clone(), options);
    df.set_chunk_cache(env.chunk_cache.clone());
    df.set_fault_injector(env.fault_injector.clone());
    df.set_trace(env.trace.clone());
    df.set_cancel(env.cancel.clone());
    setup_span.finish();
    let out = df
        .run_all()
        .map_err(|e| AdapterError::from_engine("RDataFrame", q.name(), &e))?;
    let hist_span = env
        .trace
        .span_with(obs::Stage::Materialize, || "histogram".to_string());
    let histogram = out.histograms.into_iter().next().expect("one booking");
    hist_span.finish();
    Ok(EngineRun {
        histogram,
        stats: out.stats,
        trace: obs::SpanTree::default(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hep_model::generator::build_dataset;
    use hep_model::DatasetSpec;

    #[test]
    fn q1_all_engines_agree_on_totals() {
        let (events, table) = build_dataset(DatasetSpec {
            n_events: 1_000,
            row_group_size: 256,
            seed: 3,
        });
        let table = Arc::new(table);
        let n = events.len() as u64;
        let env = ExecEnv::seed();
        let sql = run_sql_env(
            Dialect::presto(),
            &table,
            QueryId::Q1,
            SqlOptions::default(),
            &env,
        )
        .unwrap();
        assert_eq!(sql.histogram.total(), n);
        let jq = run_jsoniq_env(&table, QueryId::Q1, FlworOptions::default(), &env).unwrap();
        assert_eq!(jq.histogram.total(), n);
        let rdf = run_rdf_env(&table, QueryId::Q1, engine_rdf::Options::default(), &env).unwrap();
        assert_eq!(rdf.histogram.total(), n);
    }
}
