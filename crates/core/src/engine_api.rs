//! The unified engine API: one trait, one output shape, every engine.
//!
//! Historically each engine exposed its own entry point and result type
//! (`SqlEngine::execute → QueryOutput`, `FlworEngine::execute →
//! FlworOutput`, `engine-rdf` `RunOutput`) and the adapter layer papered
//! over the differences with per-engine `run_*` functions. The
//! [`QueryEngine`] trait is the supported extension point instead: an
//! engine implements `system()` and `execute()`, returns the shared
//! [`EngineRun`] (histogram + [`nf2_columnar::ScanStats`] + span tree),
//! and the runner, the bench harness, and the query service all
//! dispatch through `dyn QueryEngine` without knowing which engine
//! backs a [`System`].
//!
//! Every `execute` opens a [`obs::Stage::Query`] root span on the
//! environment's trace context, runs the engine with stage spans
//! parented under it, and drains the recorded spans into
//! [`EngineRun::trace`] — so observability comes with the trait, not
//! per engine.

use std::sync::Arc;

use engine_flwor::FlworOptions;
use engine_sql::{Dialect, SqlOptions};
use nf2_columnar::Table;

use crate::adapters::{self, AdapterError, EngineRun, ExecEnv};
use crate::runner::System;
use crate::spec::QueryId;

/// A query to execute: today always one of the benchmark's Q1–Q8
/// outputs, carried as a struct so the trait surface can grow (ad-hoc
/// texts, parameters) without breaking implementors.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct QuerySpec {
    /// The benchmark query to run.
    pub id: QueryId,
}

impl QuerySpec {
    /// A benchmark query.
    pub fn benchmark(id: QueryId) -> QuerySpec {
        QuerySpec { id }
    }

    /// The query's output name (`Q1` … `Q8`).
    pub fn name(&self) -> &'static str {
        self.id.name()
    }
}

impl From<QueryId> for QuerySpec {
    fn from(id: QueryId) -> QuerySpec {
        QuerySpec { id }
    }
}

/// A query engine deployed as one of the benchmark's systems.
///
/// Object-safe and `Send + Sync`: the query service keeps a
/// `Box<dyn QueryEngine>` per system and serves concurrent requests
/// through shared references.
pub trait QueryEngine: Send + Sync {
    /// Which deployed system this engine instance represents.
    fn system(&self) -> System;

    /// Executes a query under an execution environment, returning the
    /// shared run shape. When `env.trace` is enabled, the result's
    /// [`EngineRun::trace`] holds the query's span tree (rooted at a
    /// [`obs::Stage::Query`] span).
    fn execute(&self, query: &QuerySpec, env: &ExecEnv) -> Result<EngineRun, AdapterError>;
}

/// The SQL dialect profile a system deploys, when it is SQL-backed.
fn dialect_for(system: System) -> Option<Dialect> {
    match system {
        System::BigQuery | System::BigQueryExternal => Some(Dialect::bigquery()),
        System::AthenaV2 | System::AthenaV1 => Some(Dialect::athena()),
        System::Presto => Some(Dialect::presto()),
        _ => None,
    }
}

/// Opens the query-level root span, runs `body` under a child
/// environment, then drains the recorded spans into the run.
fn with_query_span(
    system: System,
    query: &QuerySpec,
    env: &ExecEnv,
    body: impl FnOnce(&ExecEnv) -> Result<EngineRun, AdapterError>,
) -> Result<EngineRun, AdapterError> {
    let root = env.trace.span_with(obs::Stage::Query, || {
        format!("{} on {}", query.name(), system.name())
    });
    let child_env = ExecEnv {
        trace: root.ctx(),
        ..env.clone()
    };
    let result = body(&child_env);
    root.finish();
    // Re-label with the deployed system's name (several systems share
    // one engine/dialect, and service logs must identify the
    // deployment), and attach the span tree on success. On failure the
    // spans stay in `env.trace` for the caller (e.g. the service retry
    // path) to drain alongside later attempts.
    match result {
        Ok(mut run) => {
            run.trace = env.trace.take_tree();
            Ok(run)
        }
        Err(mut e) => {
            e.system = system.name().to_string();
            Err(e)
        }
    }
}

/// The SQL engine deployed as a QaaS or self-managed SQL system
/// (BigQuery / BigQuery external / Athena v1+v2 / Presto).
pub struct SqlQueryEngine {
    system: System,
    dialect: Dialect,
    table: Arc<Table>,
    options: SqlOptions,
}

impl SqlQueryEngine {
    /// An engine for an SQL-backed system with default options.
    ///
    /// # Panics
    /// If `system` is not SQL-backed.
    pub fn new(system: System, table: Arc<Table>) -> SqlQueryEngine {
        SqlQueryEngine::with_options(system, table, SqlOptions::default())
    }

    /// [`SqlQueryEngine::new`] with explicit engine options.
    pub fn with_options(system: System, table: Arc<Table>, options: SqlOptions) -> SqlQueryEngine {
        let dialect = dialect_for(system)
            .unwrap_or_else(|| panic!("{} is not an SQL-backed system", system.name()));
        SqlQueryEngine {
            system,
            dialect,
            table,
            options,
        }
    }
}

impl QueryEngine for SqlQueryEngine {
    fn system(&self) -> System {
        self.system
    }

    fn execute(&self, query: &QuerySpec, env: &ExecEnv) -> Result<EngineRun, AdapterError> {
        with_query_span(self.system, query, env, |child| {
            adapters::run_sql_env(self.dialect, &self.table, query.id, self.options, child)
        })
    }
}

/// The FLWOR engine deployed as Rumble (JSONiq on Spark).
pub struct FlworQueryEngine {
    table: Arc<Table>,
    options: FlworOptions,
}

impl FlworQueryEngine {
    /// An engine with default options.
    pub fn new(table: Arc<Table>) -> FlworQueryEngine {
        FlworQueryEngine::with_options(table, FlworOptions::default())
    }

    /// [`FlworQueryEngine::new`] with explicit engine options.
    pub fn with_options(table: Arc<Table>, options: FlworOptions) -> FlworQueryEngine {
        FlworQueryEngine { table, options }
    }
}

impl QueryEngine for FlworQueryEngine {
    fn system(&self) -> System {
        System::Rumble
    }

    fn execute(&self, query: &QuerySpec, env: &ExecEnv) -> Result<EngineRun, AdapterError> {
        with_query_span(System::Rumble, query, env, |child| {
            adapters::run_jsoniq_env(&self.table, query.id, self.options, child)
        })
    }
}

/// The RDataFrame-style engine deployed as ROOT 6.22 or the fixed
/// development version.
pub struct RdfQueryEngine {
    system: System,
    table: Arc<Table>,
    options: engine_rdf::Options,
}

impl RdfQueryEngine {
    /// An engine for an RDataFrame system with default options.
    ///
    /// # Panics
    /// If `system` is not an RDataFrame deployment.
    pub fn new(system: System, table: Arc<Table>) -> RdfQueryEngine {
        RdfQueryEngine::with_options(system, table, engine_rdf::Options::default())
    }

    /// [`RdfQueryEngine::new`] with explicit engine options.
    pub fn with_options(
        system: System,
        table: Arc<Table>,
        options: engine_rdf::Options,
    ) -> RdfQueryEngine {
        assert!(
            matches!(system, System::RDataFrame | System::RDataFrameDev),
            "{} is not an RDataFrame deployment",
            system.name()
        );
        RdfQueryEngine {
            system,
            table,
            options,
        }
    }
}

impl QueryEngine for RdfQueryEngine {
    fn system(&self) -> System {
        self.system
    }

    fn execute(&self, query: &QuerySpec, env: &ExecEnv) -> Result<EngineRun, AdapterError> {
        with_query_span(self.system, query, env, |child| {
            adapters::run_rdf_env(&self.table, query.id, self.options, child)
        })
    }
}

/// The engine deployment behind a [`System`], over one registered
/// table — the single construction point the runner and the query
/// service share.
///
/// The deployments modeled here are the paper's studied systems, all of
/// which interpret their queries — the cost model behind Table 1 and
/// the figures is calibrated against interpreted CPU profiles, so these
/// engines pin `compile: false`, and — for the same reason — pin
/// `parallel_workers: 0`: the morsel-parallel executor only applies to
/// compiled plans, but pinning it explicitly keeps the paper simulation
/// byte-identical even if the option's default ever changes. The
/// workspace's own compiled IR path (default-on for direct engine use,
/// e.g. the golden tests and the bench harness's `compiled` section) is
/// opted into via the `with_options` constructors.
pub fn engine_for(system: System, table: Arc<Table>) -> Box<dyn QueryEngine> {
    match system {
        System::BigQuery
        | System::BigQueryExternal
        | System::AthenaV2
        | System::AthenaV1
        | System::Presto => Box::new(SqlQueryEngine::with_options(
            system,
            table,
            SqlOptions {
                compile: false,
                parallel_workers: 0,
                ..SqlOptions::default()
            },
        )),
        System::Rumble => Box::new(FlworQueryEngine::with_options(
            table,
            FlworOptions {
                compile: false,
                parallel_workers: 0,
                ..FlworOptions::default()
            },
        )),
        System::RDataFrame | System::RDataFrameDev => Box::new(RdfQueryEngine::with_options(
            system,
            table,
            engine_rdf::Options {
                compile: false,
                parallel_workers: 0,
                ..engine_rdf::Options::default()
            },
        )),
    }
}

/// The compiled-execution deployment of a system: the same engine and
/// dialect as [`engine_for`], but with the physical-IR compile path on
/// (`compile: true`). Queries the frontends cannot lower fall back to
/// interpretation, so results stay byte-identical to the interpreted
/// path (the PR 6 fuzz gate). `parallel_workers` stays pinned at 0 —
/// the serving layer threads a per-request override through
/// [`ExecEnv::parallel_workers`], which the adapters apply on top of
/// the engine options. The paper simulation never uses these
/// deployments; they exist for the serving layer's opt-in
/// compiled/parallel request paths.
pub fn engine_for_compiled(system: System, table: Arc<Table>) -> Box<dyn QueryEngine> {
    match system {
        System::BigQuery
        | System::BigQueryExternal
        | System::AthenaV2
        | System::AthenaV1
        | System::Presto => Box::new(SqlQueryEngine::with_options(
            system,
            table,
            SqlOptions {
                compile: true,
                parallel_workers: 0,
                ..SqlOptions::default()
            },
        )),
        System::Rumble => Box::new(FlworQueryEngine::with_options(
            table,
            FlworOptions {
                compile: true,
                parallel_workers: 0,
                ..FlworOptions::default()
            },
        )),
        System::RDataFrame | System::RDataFrameDev => Box::new(RdfQueryEngine::with_options(
            system,
            table,
            engine_rdf::Options {
                compile: true,
                parallel_workers: 0,
                ..engine_rdf::Options::default()
            },
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::ALL_SYSTEMS;
    use hep_model::generator::build_dataset;
    use hep_model::DatasetSpec;

    fn table() -> Arc<Table> {
        Arc::new(
            build_dataset(DatasetSpec {
                n_events: 1_000,
                row_group_size: 256,
                seed: 3,
            })
            .1,
        )
    }

    #[test]
    fn dyn_engines_agree_through_one_object_type() {
        let t = table();
        // Object use: heterogeneous engines behind one vtable, driven
        // uniformly.
        let engines: Vec<Box<dyn QueryEngine>> = ALL_SYSTEMS
            .iter()
            .map(|s| engine_for(*s, t.clone()))
            .collect();
        let env = ExecEnv::seed();
        let spec = QuerySpec::benchmark(QueryId::Q1);
        let mut totals = Vec::new();
        for e in &engines {
            let run = e.execute(&spec, &env).unwrap();
            totals.push((e.system().name(), run.histogram.total()));
        }
        assert_eq!(totals.len(), ALL_SYSTEMS.len());
        for (name, total) in &totals {
            assert_eq!(*total, 1_000, "{name} disagrees on Q1 totals");
        }
    }

    #[test]
    fn trait_is_dyn_safe_and_boxable() {
        // Compile-time dyn-safety check plus a trait-object call.
        fn takes_dyn(e: &dyn QueryEngine) -> System {
            e.system()
        }
        let t = table();
        let boxed: Box<dyn QueryEngine> = Box::new(FlworQueryEngine::new(t));
        assert_eq!(takes_dyn(boxed.as_ref()), System::Rumble);
    }

    #[test]
    fn compiled_deployments_match_interpreted_results() {
        let t = table();
        // Q6a lowers to the specialized trijet kernel on every capable
        // frontend; Q5 exercises the fall-back-to-interpreter path on
        // engines that cannot lower it. Both must match the interpreted
        // deployment bin for bin.
        for q in [QueryId::Q5, QueryId::Q6a] {
            let spec = QuerySpec::benchmark(q);
            for &system in ALL_SYSTEMS {
                let interp = engine_for(system, t.clone())
                    .execute(&spec, &ExecEnv::seed())
                    .unwrap();
                let compiled = engine_for_compiled(system, t.clone())
                    .execute(&spec, &ExecEnv::seed())
                    .unwrap();
                assert_eq!(
                    interp.histogram,
                    compiled.histogram,
                    "{} {}: compiled deployment diverges",
                    system.name(),
                    q.name()
                );
            }
        }
    }

    #[test]
    fn expired_deadline_stops_every_engine_within_one_row_group() {
        // Acceptance pin: a query whose deadline expired before it
        // started (rows_at_deadline = 0) must surface a typed
        // cancellation with rows_processed ≤ one row group, on every
        // engine.
        let row_group = 256u64;
        let t = table();
        let spec = QuerySpec::benchmark(QueryId::Q1);
        for system in ALL_SYSTEMS {
            let engine = engine_for(*system, t.clone());
            let env = ExecEnv {
                cancel: obs::CancelToken::with_deadline(
                    std::time::Instant::now() - std::time::Duration::from_millis(1),
                ),
                ..ExecEnv::seed()
            };
            let err = match engine.execute(&spec, &env) {
                Err(e) => e,
                Ok(_) => panic!("{}: ran to completion past deadline", system.name()),
            };
            let c = err
                .cancelled
                .as_deref()
                .unwrap_or_else(|| panic!("{}: expected typed cancellation", system.name()));
            assert_eq!(c.reason, obs::CancelReason::DeadlineExceeded);
            assert!(
                c.rows_processed <= row_group,
                "{}: {} rows processed past an expired deadline",
                system.name(),
                c.rows_processed
            );
            assert!(!err.retryable(), "{}: cancellation retried", system.name());
        }
    }

    #[test]
    fn explicit_cancel_stops_every_engine() {
        let t = table();
        let spec = QuerySpec::benchmark(QueryId::Q1);
        for system in ALL_SYSTEMS {
            let engine = engine_for(*system, t.clone());
            let token = obs::CancelToken::new();
            token.cancel();
            let env = ExecEnv {
                cancel: token,
                ..ExecEnv::seed()
            };
            let err = match engine.execute(&spec, &env) {
                Err(e) => e,
                Ok(_) => panic!("{}: ran to completion despite cancel", system.name()),
            };
            let c = err
                .cancelled
                .as_deref()
                .unwrap_or_else(|| panic!("{}: expected typed cancellation", system.name()));
            assert_eq!(c.reason, obs::CancelReason::Explicit);
        }
    }

    #[test]
    fn traced_execute_yields_span_tree() {
        let t = table();
        let engine = SqlQueryEngine::new(System::Presto, t);
        let env = ExecEnv {
            trace: obs::TraceCtx::enabled(),
            // Pinned for sequential child spans (span-sum ≤ wall), not for determinism.
            intra_query_threads: Some(1),
            ..ExecEnv::seed()
        };
        let run = engine
            .execute(&QuerySpec::benchmark(QueryId::Q1), &env)
            .unwrap();
        assert_eq!(run.trace.roots.len(), 1);
        let root = &run.trace.roots[0];
        assert_eq!(root.span.stage, obs::Stage::Query);
        assert!(root.span.label.contains("Q1"));
        let stages: Vec<obs::Stage> = run.trace.flatten().iter().map(|s| s.stage).collect();
        assert!(stages.contains(&obs::Stage::Parse));
        assert!(stages.contains(&obs::Stage::Plan));
        assert!(stages.contains(&obs::Stage::Scan));
        assert!(stages.contains(&obs::Stage::Aggregate));
        // Disabled env yields an empty tree.
        let untraced = engine
            .execute(&QuerySpec::benchmark(QueryId::Q1), &ExecEnv::seed())
            .unwrap();
        assert!(untraced.trace.is_empty());
    }
}
