//! The unified engine API: one trait, one output shape, one deployment.
//!
//! A [`Deployment`] is a [`System`] over one table with one
//! [`ExecOptions`]. Its `execute` picks the system's frontend — SQL text
//! under the system's dialect, JSONiq text, or an `engine-rdf` program —
//! runs it through the one run path in [`crate::adapters`], and returns
//! the shared [`EngineRun`] (histogram + [`nf2_columnar::ScanStats`] +
//! span tree). The runner, the bench harness and the query service
//! dispatch through `dyn QueryEngine` without knowing which engine backs
//! a [`System`].
//!
//! Every `execute` opens a [`obs::Stage::Query`] root span on the
//! environment's trace context, runs the engine with stage spans
//! parented under it, and drains the recorded spans into
//! [`EngineRun::trace`] — so observability comes with the trait, not
//! per engine.

use std::sync::Arc;

use engine_sql::Dialect;
use nf2_columnar::Table;

use crate::adapters::{self, AdapterError, EngineRun, ExecEnv, ExecOptions, Frontend};
use crate::queries::{self, Language};
use crate::rdf_programs;
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

/// A system deployed over one registered table: the engine behind the
/// system's frontend, configured by one [`ExecOptions`]. The only
/// [`QueryEngine`]; construct it directly for explicit options, or
/// through [`engine_for`] / [`engine_for_compiled`].
pub struct Deployment {
    /// The deployed system; it picks the engine and, for SQL, the dialect.
    pub system: System,
    /// The registered table.
    pub table: Arc<Table>,
    /// The deployment's options, before an [`ExecEnv`]'s overrides.
    pub options: ExecOptions,
}

impl Deployment {
    /// The frontend that runs benchmark query `q` on this system.
    fn frontend(&self, q: QueryId) -> Frontend {
        let sql = |dialect, lang| Frontend::Sql(dialect, queries::text(lang, q));
        match self.system {
            System::BigQuery | System::BigQueryExternal => {
                sql(Dialect::bigquery(), Language::BigQuery)
            }
            System::AthenaV2 | System::AthenaV1 => sql(Dialect::athena(), Language::Athena),
            System::Presto => sql(Dialect::presto(), Language::Presto),
            System::Rumble => Frontend::Jsoniq(queries::text(Language::Jsoniq, q)),
            System::RDataFrame | System::RDataFrameDev => Frontend::Rdf(Box::new(
                rdf_programs::build(q, self.table.clone(), self.options),
            )),
        }
    }
}

impl QueryEngine for Deployment {
    fn system(&self) -> System {
        self.system
    }

    fn execute(&self, query: &QuerySpec, env: &ExecEnv) -> Result<EngineRun, AdapterError> {
        let (system, q) = (self.system, query.id);
        let root = env.trace.span_with(obs::Stage::Query, || {
            format!("{} on {}", q.name(), system.name())
        });
        let child = ExecEnv {
            trace: root.ctx(),
            ..env.clone()
        };
        let result = adapters::run_frontend(
            || self.frontend(q),
            &self.table,
            self.options,
            &child,
            q.hist_spec(),
            system.name(),
            q.name(),
        );
        root.finish();
        // On failure the spans stay in `env.trace` for the caller (e.g.
        // the service retry path) to drain alongside later attempts.
        let mut run = result?;
        run.trace = env.trace.take_tree();
        Ok(run)
    }
}

/// The deployment behind a [`System`], over one registered table — the
/// single construction point the runner and the query service share.
///
/// The deployments modeled here are the paper's studied systems, all of
/// which interpret their queries — the cost model behind Table 1 and
/// the figures is calibrated against interpreted CPU profiles — so they
/// run the default [`ExecOptions`] with `compile: false`.
pub fn engine_for(system: System, table: Arc<Table>) -> Box<dyn QueryEngine> {
    Box::new(deployment(system, table, false))
}

/// The compiled-execution deployment of a system: [`engine_for`] with
/// the physical-IR compile path on. Queries the frontends cannot lower
/// fall back to interpretation, so results stay byte-identical to the
/// interpreted path. The paper simulation never uses these deployments;
/// they serve the query service's opt-in compiled/parallel request
/// paths, which set morsel workers per request through
/// [`ExecEnv::parallel_workers`].
pub fn engine_for_compiled(system: System, table: Arc<Table>) -> Box<dyn QueryEngine> {
    Box::new(deployment(system, table, true))
}

/// The deployment [`engine_for`] (`compile: false`) and
/// [`engine_for_compiled`] (`compile: true`) box.
fn deployment(system: System, table: Arc<Table>, compile: bool) -> Deployment {
    let options = ExecOptions {
        compile,
        ..ExecOptions::default()
    };
    Deployment {
        system,
        table,
        options,
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
        // Object use: every deployment behind one vtable, driven
        // uniformly, interpreted and compiled.
        let engines: Vec<Box<dyn QueryEngine>> = ALL_SYSTEMS
            .iter()
            .flat_map(|s| {
                [
                    engine_for(*s, t.clone()),
                    engine_for_compiled(*s, t.clone()),
                ]
            })
            .collect();
        let env = ExecEnv::seed();
        let spec = QuerySpec::benchmark(QueryId::Q1);
        for e in &engines {
            let run = e.execute(&spec, &env).unwrap();
            let name = e.system().name();
            assert_eq!(
                run.histogram.total(),
                1_000,
                "{name} disagrees on Q1 totals"
            );
        }
        assert_eq!(engines.len(), 2 * ALL_SYSTEMS.len());
    }

    #[test]
    fn interpreted_and_compiled_deployments_differ_only_in_compile() {
        let t = table();
        for &system in ALL_SYSTEMS {
            assert_eq!(engine_for(system, t.clone()).system(), system);
            assert_eq!(engine_for_compiled(system, t.clone()).system(), system);
            let (i, c) = (
                deployment(system, t.clone(), false).options,
                deployment(system, t.clone(), true).options,
            );
            assert!(!i.compile && c.compile, "{}", system.name());
            assert_eq!(
                ExecOptions { compile: true, ..i },
                c,
                "{}: deployments differ beyond compile",
                system.name()
            );
        }
    }

    #[test]
    fn trait_is_dyn_safe_and_boxable() {
        // Compile-time dyn-safety check plus a trait-object call.
        fn takes_dyn(e: &dyn QueryEngine) -> System {
            e.system()
        }
        let boxed: Box<dyn QueryEngine> = engine_for(System::Rumble, table());
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
        let engine = engine_for_compiled(System::Presto, t);
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
