//! End-to-end observability: every query on every engine, run through the
//! unified `QueryEngine` trait, must produce a well-formed span tree whose
//! stage timings account for the query's wall time — and the tree's
//! *shape* on every path of the engines' scan driver is a golden
//! fixture, so stage renames, dropped instrumentation, or parenting
//! regressions show up as diffs.
//!
//! Regenerate the shape fixtures after an *intentional* change with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test observability
//! ```

use std::path::PathBuf;
use std::sync::Arc;

use hepquery::columnar::{SelCmp, SelValue};
use hepquery::jsoniq::FlworEngine;
use hepquery::obs;
use hepquery::prelude::*;
use hepquery::rdataframe::RDataFrame;

const EVENTS: usize = 8_000;
const ROW_GROUP: usize = 1_024;
const SEED: u64 = 0x901D;

fn table() -> Arc<Table> {
    Arc::new(
        hepquery::model::generator::build_dataset(DatasetSpec {
            n_events: EVENTS,
            row_group_size: ROW_GROUP,
            seed: SEED,
        })
        .1,
    )
}

/// A single-threaded traced environment: with one worker, a query's
/// direct child spans are sequential, so their durations must sum to
/// (nearly) the root's — the accounting property the coverage test pins.
fn traced_env() -> ExecEnv {
    ExecEnv {
        trace: obs::TraceCtx::enabled(),
        intra_query_threads: Some(1),
        ..ExecEnv::seed()
    }
}

fn run_traced(
    system: System,
    table: &Arc<Table>,
    q: QueryId,
) -> hepquery::bench::adapters::EngineRun {
    engine_for(system, table.clone())
        .execute(&QuerySpec::benchmark(q), &traced_env())
        .unwrap()
}

/// One traced query per path of the engines' scan driver, rendered with
/// durations redacted: the *shape* (stages, labels, nesting, row counts)
/// is deterministic, the timings are not.
fn driver_path_shapes(t: &Arc<Table>) -> Vec<(&'static str, String)> {
    // A deployment drains its span tree into the run; an engine leaves it
    // in the environment.
    let deployed = |engine: Box<dyn QueryEngine>, q: QueryId, env: ExecEnv| {
        let run = engine.execute(&QuerySpec::benchmark(q), &env).unwrap();
        run.trace.render(true)
    };
    let traced = |run: &dyn Fn(ExecEnv)| {
        let env = traced_env();
        run(env.clone());
        env.trace.take_tree().render(true)
    };
    let sql = |text: &str| {
        traced(&|env| {
            let mut engine = SqlEngine::new(Dialect::presto(), ExecOptions::default());
            engine.register(t.clone());
            engine.set_env(env);
            engine.execute(text).unwrap();
        })
    };
    let jsoniq = |text: &str| {
        traced(&|env| {
            let mut engine = FlworEngine::new(ExecOptions::default());
            engine.register(t.clone());
            engine.set_env(env);
            engine.execute(text).unwrap();
        })
    };
    let interpreted = ExecOptions {
        compile: false,
        ..ExecOptions::default()
    };
    let compiled_serial = ExecEnv {
        parallel_workers: Some(0),
        ..traced_env()
    };
    vec![
        // SQL, partition-parallel (a decomposable root aggregate).
        (
            "span_tree_q5_presto",
            deployed(
                engine_for(System::Presto, t.clone()),
                QueryId::Q5,
                traced_env(),
            ),
        ),
        // SQL, whole-table evaluation (AVG does not decompose).
        (
            "span_tree_sql_serial",
            sql("SELECT AVG(MET.pt) AS m FROM events WHERE MET.pt > 25.0"),
        ),
        // JSONiq, per-group evaluation of a map-like FLWOR.
        (
            "span_tree_jsoniq_partitioned",
            jsoniq("for $e in parquet-file(\"events\") where $e.MET.pt > 25.0 return $e.MET.pt"),
        ),
        // JSONiq, whole-table evaluation (`order by` needs every tuple).
        (
            "span_tree_jsoniq_whole_table",
            jsoniq(
                "for $e in parquet-file(\"events\") \
                 where $e.MET.pt > 25.0 order by $e.MET.pt return $e.event",
            ),
        ),
        // RDataFrame, the interpreted event loop with a hoisted cut.
        (
            "span_tree_rdataframe_interpreted",
            traced(&|env| {
                let mut df = RDataFrame::new(t.clone(), interpreted).filter_scalar(
                    "MET_pt",
                    SelCmp::Gt,
                    SelValue::Float(25.0),
                );
                df.set_env(env);
                let booked = df.histo1d(HistSpec::new(100, 0.0, 200.0), "MET_pt");
                booked.run().unwrap();
            }),
        ),
        // Compiled SQL on the serial executor.
        (
            "span_tree_q6a_presto_compiled_serial",
            deployed(
                engine_for_compiled(System::Presto, t.clone()),
                QueryId::Q6a,
                compiled_serial,
            ),
        ),
    ]
}

#[test]
fn golden_span_tree_shape_per_driver_path() {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    for (name, rendered) in driver_path_shapes(&table()) {
        let path = dir.join(format!("{name}.txt"));
        if std::env::var("UPDATE_GOLDEN").is_ok() {
            std::fs::create_dir_all(&dir).unwrap();
            std::fs::write(&path, &rendered).unwrap();
        }
        let golden = std::fs::read_to_string(&path).unwrap_or_else(|_| {
            panic!("missing golden fixture {path:?} — generate with UPDATE_GOLDEN=1")
        });
        assert_eq!(
            rendered, golden,
            "{name}: span tree shape drifted from the golden fixture — if \
             intentional, regenerate with UPDATE_GOLDEN=1"
        );
    }
}

/// On the compiled-parallel path `cpu_seconds` is busy time summed over
/// the morsel workers, not the wall time of the fan-out: it covers every
/// `worker {w}` span, which overlap in wall time.
#[test]
fn compiled_parallel_cpu_seconds_sum_the_workers() {
    let t = table();
    let env = ExecEnv {
        parallel_workers: Some(4),
        ..traced_env()
    };
    // The RDataFrame Q6 program has closure nodes; its Q1 lowers.
    for (system, q) in [
        (System::Presto, QueryId::Q6a),
        (System::Rumble, QueryId::Q6a),
        (System::RDataFrame, QueryId::Q1),
    ] {
        let run = engine_for_compiled(system, t.clone())
            .execute(&QuerySpec::benchmark(q), &env)
            .unwrap();
        assert_eq!(run.stats.threads_used, 4, "{}", system.name());
        let workers: Vec<_> = run
            .trace
            .flatten()
            .into_iter()
            .filter(|s| s.label.starts_with("worker "))
            .collect();
        assert_eq!(workers.len(), 4, "{}", system.name());
        let busy: f64 = workers.iter().map(|s| s.duration_ns as f64 * 1e-9).sum();
        assert!(
            run.stats.cpu_seconds >= 0.9 * busy,
            "{}: cpu_seconds {:.6} below the workers' {busy:.6} busy seconds",
            system.name(),
            run.stats.cpu_seconds
        );
    }
}

#[test]
fn every_query_on_every_engine_traces_with_covering_stages() {
    let t = table();
    for system in [System::Presto, System::Rumble, System::RDataFrame] {
        for q in ALL_QUERIES {
            let run = run_traced(system, &t, *q);
            let tree = &run.trace;
            assert_eq!(
                tree.roots.len(),
                1,
                "{} {}: expected exactly one query root",
                system.name(),
                q.name()
            );
            let root = &tree.roots[0];
            assert_eq!(root.span.stage, obs::Stage::Query);
            // Well-formed timing: spans are within their parent's window
            // and the flattened record list has monotonic ids.
            for child in &root.children {
                assert!(child.span.start_ns >= root.span.start_ns);
                assert!(child.span.end_ns() <= root.span.end_ns());
            }
            for w in tree.flatten().windows(2) {
                if w[0].parent == w[1].parent {
                    assert!(w[0].start_ns <= w[1].start_ns, "siblings out of order");
                }
            }
            // Accounting: single-threaded, the direct children of the
            // query root must cover its duration to within 5%.
            let coverage = tree
                .root_child_coverage()
                .expect("root with children and non-zero duration");
            assert!(
                coverage > 0.95 && coverage < 1.05,
                "{} {}: stage durations cover {:.1}% of the query wall time",
                system.name(),
                q.name(),
                coverage * 100.0
            );
            // Single-threaded, exclusive per-stage seconds are disjoint
            // slices of the run, so their sum can never exceed the wall
            // time the engine reports (epsilon absorbs the work outside
            // the root span: setup and histogram materialization timers
            // stopped before wall is read).
            let stage_sum: f64 = tree.stage_seconds().iter().map(|(_, s)| s).sum();
            assert!(
                stage_sum <= run.stats.wall_seconds * 1.05 + 1e-3,
                "{} {}: per-stage seconds ({stage_sum:.6}s) exceed wall ({:.6}s)",
                system.name(),
                q.name(),
                run.stats.wall_seconds
            );
            // Every engine path reports at least plan, scan and
            // aggregate work.
            let stages: Vec<obs::Stage> = tree.flatten().iter().map(|s| s.stage).collect();
            for want in [obs::Stage::Plan, obs::Stage::Scan, obs::Stage::Aggregate] {
                assert!(
                    stages.contains(&want),
                    "{} {}: missing {want} span",
                    system.name(),
                    q.name()
                );
            }
        }
    }
}

#[test]
fn exports_are_valid_and_disabled_tracing_is_empty() {
    let t = table();
    let run = run_traced(System::Rumble, &t, QueryId::Q3);
    let json = run.trace.to_json();
    assert!(json.starts_with('['));
    assert!(json.contains("\"stage\":\"query\""));
    assert!(json.contains("\"children\""));
    let chrome = run.trace.to_chrome_trace();
    assert!(chrome.starts_with('['));
    assert!(chrome.contains("\"ph\":\"X\""));
    assert_eq!(
        chrome.matches("\"ph\":\"X\"").count(),
        run.trace.len(),
        "one chrome event per span"
    );
    // Stage seconds decompose the root's total.
    let total: f64 = run.trace.stage_seconds().iter().map(|(_, s)| s).sum();
    assert!((total - run.trace.total_seconds()).abs() <= total * 1e-6 + 1e-9);
    // Untraced runs carry an empty tree and produce identical results.
    let untraced = engine_for(System::Rumble, t.clone())
        .execute(&QuerySpec::benchmark(QueryId::Q3), &ExecEnv::seed())
        .unwrap();
    assert!(untraced.trace.is_empty());
    assert_eq!(untraced.histogram, run.histogram);
    assert_eq!(untraced.stats.scan, run.stats.scan);
}
