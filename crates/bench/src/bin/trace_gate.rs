//! The CI observability gate: tracing must stay cheap enough to leave
//! in the hot paths.
//!
//! Sweeps Q1–Q8 on the SQL engine at small scale (default 2 048 events),
//! compares the min-of-[`GATE_RUNS`] wall time traced vs untraced, and
//! fails if tracing costs more than [`MAX_OVERHEAD_FRACTION`] in
//! aggregate. On the way it exports one traced span tree per (engine,
//! query) to `TRACE_OUT_DIR` (default `results/traces/`) as span JSON and
//! `chrome://tracing` files — the CI artifact — and fails if any tree is
//! empty.
//!
//! Both arms pin `intra_query_threads` to 1: the traced arm's stage
//! breakdown sums *exclusive* span seconds, which only a single thread
//! bounds by wall time, and the untraced arm must match so the measured
//! delta is tracing overhead alone, not lost parallelism.
//!
//! Scale knobs: `HEPQUERY_EVENTS`, `HEPQUERY_ROW_GROUP`, `HEPQUERY_SEED`.

use std::sync::Arc;

use hepbench_bench::{dataset, dataset_spec, run_gate};
use hepbench_core::adapters::{EngineRun, ExecEnv};
use hepbench_core::engine_api::{engine_for, QuerySpec};
use hepbench_core::runner::System;
use hepbench_core::{QueryId, ALL_QUERIES};
use nf2_columnar::Table;

/// Traced aggregate wall time may exceed untraced by at most this
/// fraction.
const MAX_OVERHEAD_FRACTION: f64 = 0.03;

/// Interleaved (untraced, traced) run pairs per query; the minimum wall
/// of each arm is kept.
const GATE_RUNS: usize = 5;

/// The engines whose span trees are exported, with their file labels.
const ENGINES: [(System, &str); 3] = [
    (System::Presto, "sql-presto"),
    (System::Rumble, "jsoniq"),
    (System::RDataFrame, "rdataframe"),
];

fn run_point(system: System, table: &Arc<Table>, q: QueryId, env: &ExecEnv) -> EngineRun {
    engine_for(system, table.clone())
        .execute(&QuerySpec::benchmark(q), env)
        .unwrap_or_else(|e| panic!("{e}"))
}

/// Directory the trace exports land in (CI uploads it as an artifact).
fn trace_dir() -> std::path::PathBuf {
    std::env::var("TRACE_OUT_DIR")
        .unwrap_or_else(|_| "results/traces".to_string())
        .into()
}

/// Writes one traced run's span tree as span JSON and chrome trace.
fn export_trace(run: &EngineRun, engine: &str, query: &str) {
    let dir = trace_dir();
    if std::fs::create_dir_all(&dir).is_err() {
        return;
    }
    let base = format!("{}_{}", query, engine.replace('-', "_"));
    let _ = std::fs::write(dir.join(format!("{base}.spans.json")), run.trace.to_json());
    let _ = std::fs::write(
        dir.join(format!("{base}.chrome.json")),
        run.trace.to_chrome_trace(),
    );
}

/// The gate body: exports the Q1–Q8 trace artifact, then measures the
/// tracing overhead.
fn check() -> Vec<String> {
    let (_, table) = dataset(dataset_spec(2_048, None));
    let untraced_env = ExecEnv {
        intra_query_threads: Some(1),
        ..ExecEnv::seed()
    };
    let traced_env = ExecEnv {
        trace: obs::TraceCtx::enabled(),
        intra_query_threads: Some(1),
        ..ExecEnv::seed()
    };
    let mut violations = Vec::new();
    for (system, label) in ENGINES {
        for q in ALL_QUERIES {
            let run = run_point(system, &table, *q, &traced_env);
            if run.trace.is_empty() {
                violations.push(format!(
                    "{label} {} produced no span tree under tracing",
                    q.name()
                ));
            }
            export_trace(&run, label, q.name());
        }
    }
    // The overhead gate proper, on the SQL engine across Q1–Q8,
    // aggregated across queries (single-query millisecond deltas are
    // scheduler noise at this scale). Traced and untraced runs are
    // interleaved pairwise so clock/thermal drift hits both arms
    // symmetrically.
    let mut sum_untraced = 0.0;
    let mut sum_traced = 0.0;
    eprintln!("# tracing overhead (sql-presto, min of {GATE_RUNS} interleaved runs)");
    for q in ALL_QUERIES {
        let mut u = f64::INFINITY;
        let mut t = f64::INFINITY;
        for _ in 0..GATE_RUNS {
            u = u.min(
                run_point(System::Presto, &table, *q, &untraced_env)
                    .stats
                    .wall_seconds,
            );
            t = t.min(
                run_point(System::Presto, &table, *q, &traced_env)
                    .stats
                    .wall_seconds,
            );
        }
        sum_untraced += u;
        sum_traced += t;
        eprintln!(
            "  {:4} untraced {:8.2} ms   traced {:8.2} ms   ({:+6.2}%)",
            q.name(),
            u * 1e3,
            t * 1e3,
            (t / u - 1.0) * 100.0
        );
    }
    let overhead = sum_traced / sum_untraced - 1.0;
    eprintln!(
        "# aggregate: untraced {:.2} ms, traced {:.2} ms, overhead {:+.2}%",
        sum_untraced * 1e3,
        sum_traced * 1e3,
        overhead * 100.0,
    );
    if overhead > MAX_OVERHEAD_FRACTION {
        violations.push(format!(
            "tracing overhead {:+.2}% exceeds the {:.0}% budget",
            overhead * 100.0,
            MAX_OVERHEAD_FRACTION * 100.0
        ));
    }
    violations
}

fn main() {
    std::process::exit(run_gate("trace_gate", check));
}
