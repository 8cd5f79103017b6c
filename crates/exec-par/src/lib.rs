//! # exec-par
//!
//! Parallel execution over row groups — the paper's Figure 2
//! parallelism unit: its measured systems parallelize Parquet scans at
//! row-group granularity, which is what creates the plateau once the
//! data set outgrows one group and the second rise once groups outnumber
//! cores.
//!
//! Every engine runs a query through one [`Driver`]: it accounts a
//! projected scan, skips the row groups zone maps prune, selects the
//! surviving rows with vectorised predicates, and fans the surviving
//! groups out. Every parallel path runs through one fan-out,
//! [`for_each_group_ordered`]: workers claim row groups from a shared
//! counter and keep their own state across them, and the results come
//! back in group order, so a left-to-right fold is a function of the
//! table alone at any thread count. Compiled [`PhysPlan`]s go through
//! [`execute`]: each worker keeps one [`GroupScratch`] and one
//! `worker {w}` span, and the [`physical_ir::Exchange`] concatenates the
//! per-morsel partials in group order — byte-identical to
//! [`physical_ir::execute`] at any worker count.
//!
//! ## Fault recovery
//!
//! None here. [`Driver::scan`] accounts every scan in a serial pass
//! before execution, and that pass is the only place the fault injector
//! is probed: a transient chunk fault is re-read where it happens
//! ([`nf2_columnar::READ_RETRIES`]), so `ScanStats` — and therefore
//! billing — are identical at any worker count and under any fault
//! schedule. The first morsel error stops every worker, and a kernel
//! panic unwinds to the caller like any other bug.
//!
//! ## Options
//!
//! Every engine takes one [`ExecOptions`] and one [`ExecEnv`]. The
//! options are a deployment's configuration; the environment is what a
//! caller injects into one run — overrides of three knobs, applied by
//! [`ExecEnv::resolve`] and nowhere else, plus the run's
//! fault injector, trace context and cancel token.

mod driver;
mod options;
mod ordered;

pub use driver::{Driver, TableScan};
pub use options::{ExecEnv, ExecOptions};
pub use ordered::{for_each_group_ordered, resolve_threads, OrderedPartials};

use std::time::Duration;

use nf2_columnar::{ColumnarError, RowGroup, Table};
use obs::{CancelToken, MetricsRegistry, SpanGuard, Stage, TraceCtx};
use physical_ir::{execute_group, Exchange, GroupScratch, PartialAgg, PhysPlan, Provenance};

/// Parallel execution options.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ParOptions {
    /// Worker threads. Clamped to `[1, morsel count]`; `0` and `1` both
    /// run one worker, inline on the caller's thread.
    pub workers: usize,
}

impl ParOptions {
    /// Options for `workers` threads.
    pub fn new(workers: usize) -> ParOptions {
        ParOptions { workers }
    }
}

/// What a parallel run did, for tests and the benchmark harness.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ParStats {
    /// Workers actually used (after clamping to the morsel count).
    pub workers: usize,
    /// Morsels merged — exactly the number of non-skipped row groups
    /// (a mismatch would mean lost or double-executed work).
    pub morsels: u64,
    /// Always 0; read only by `benchmark/src/layers.rs` until ROADMAP item 1.
    pub steals: u64,
    /// Rows processed across all morsels.
    pub rows: u64,
    /// Worker busy time, summed over workers.
    pub busy: Duration,
}

/// One worker's state, built once per worker by the driver.
struct Worker {
    index: usize,
    scratch: GroupScratch,
    span: SpanGuard,
}

/// Runs morsel `g` on worker `w` and tags its partial.
fn run_morsel(
    plan: &PhysPlan,
    w: &mut Worker,
    g: usize,
    group: &RowGroup,
) -> Result<PartialAgg, ColumnarError> {
    let mut bins = Vec::new();
    execute_group(plan, group, &mut w.scratch, &mut bins)?;
    let rows = group.n_rows() as u64;
    w.span.add_rows_in(rows);
    w.span.add_rows_out(bins.len() as u64);
    Ok(PartialAgg {
        group: g,
        bins,
        rows,
        provenance: Provenance::first(w.index),
    })
}

/// Executes `plan` over `table` on [`for_each_group_ordered`] and merges
/// the per-morsel partials in group order: the returned bin-index
/// sequence is byte-identical to [`physical_ir::execute`] with the same
/// `skip` mask (a shorter mask leaves the remaining groups unskipped) at
/// any worker count. `metrics`, when given, receives a `par_morsels`
/// counter and a `par_workers` gauge.
pub fn execute(
    plan: &PhysPlan,
    table: &Table,
    skip: Option<&[bool]>,
    trace: &TraceCtx,
    cancel: &CancelToken,
    metrics: Option<&MetricsRegistry>,
    opts: &ParOptions,
) -> Result<(Vec<i64>, ParStats), ColumnarError> {
    let groups = table.row_groups();
    let skip: Vec<bool> = (0..groups.len())
        .map(|g| skip.and_then(|m| m.get(g)).copied().unwrap_or(false))
        .collect();
    let workers = resolve_threads(opts.workers.max(1), &skip);
    let mut umbrella =
        trace.span_with(Stage::Aggregate, || format!("compiled parallel x{workers}"));
    let worker_trace = umbrella.ctx();
    let out = for_each_group_ordered(
        groups,
        workers,
        &skip,
        cancel,
        Stage::Aggregate,
        |w| Worker {
            index: w,
            scratch: GroupScratch::new(plan),
            span: worker_trace.span_with(Stage::Aggregate, || format!("worker {w}")),
        },
        |w, g, group| run_morsel(plan, w, g, group),
    )?;

    let mut exchange = Exchange::new();
    for p in out.partials {
        exchange.push(p);
    }
    let stats = ParStats {
        workers: out.threads_used,
        morsels: exchange.len() as u64,
        steals: 0,
        rows: exchange.rows(),
        busy: Duration::from_secs_f64(out.cpu_seconds),
    };
    if let Some(m) = metrics {
        m.gauge_set("par_workers", stats.workers as f64);
        m.counter_add("par_morsels", stats.morsels);
    }
    umbrella.add_rows_in(stats.rows);
    umbrella.finish();
    let bins = exchange.merge(cancel)?;
    Ok((bins, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hep_model::generator::build_dataset;
    use hep_model::DatasetSpec;
    use nested_value::Path;
    use nf2_columnar::{ScalarPredicate, SelCmp, SelValue};
    use physical_ir::{ComputeNode, FilterNode, TrijetCompute, TrijetPlot};
    use physics::HistSpec;

    /// 12 row groups of 100 events.
    fn dataset() -> Table {
        let spec = DatasetSpec {
            n_events: 1_200,
            row_group_size: 100,
            seed: 0xC0FFEE,
        };
        build_dataset(spec).1
    }

    fn scalar_plan() -> PhysPlan {
        PhysPlan {
            filters: vec![FilterNode::Scalar(ScalarPredicate {
                leaf: Path::parse("MET.pt"),
                cmp: SelCmp::Gt,
                value: SelValue::Float(20.0),
            })],
            compute: ComputeNode::ScalarFill {
                leaf: Path::parse("MET.pt"),
            },
            spec: HistSpec::new(50, 0.0, 150.0),
        }
    }

    fn trijet_plan() -> PhysPlan {
        PhysPlan {
            filters: vec![FilterNode::ListCount {
                leaf: Path::parse("Jet.pt"),
                elem: None,
                cmp: SelCmp::Ge,
                count: 3,
            }],
            compute: ComputeNode::Trijet(TrijetCompute {
                pt: Path::parse("Jet.pt"),
                eta: Path::parse("Jet.eta"),
                phi: Path::parse("Jet.phi"),
                mass: Path::parse("Jet.mass"),
                btag: Path::parse("Jet.btag"),
                top_mass: 172.5,
                plot: TrijetPlot::Pt,
            }),
            spec: HistSpec::new(100, 15.0, 40.0),
        }
    }

    fn serial(plan: &PhysPlan, table: &Table, skip: Option<&[bool]>) -> Vec<i64> {
        let (trace, cancel) = (TraceCtx::disabled(), CancelToken::none());
        physical_ir::execute(plan, table, skip, &trace, &cancel).unwrap()
    }

    /// `execute` with no skip mask, tracing, cancel or metrics.
    fn run(plan: &PhysPlan, table: &Table, workers: usize) -> (Vec<i64>, ParStats) {
        let (trace, cancel) = (TraceCtx::disabled(), CancelToken::none());
        let opts = ParOptions::new(workers);
        execute(plan, table, None, &trace, &cancel, None, &opts).unwrap()
    }

    #[test]
    fn byte_identical_at_any_worker_count() {
        let table = dataset();
        let n_groups = table.row_groups().len() as u64;
        for plan in [scalar_plan(), trijet_plan()] {
            let want = serial(&plan, &table, None);
            for workers in [0, 1, 2, 3, 8] {
                let (bins, stats) = run(&plan, &table, workers);
                assert_eq!(bins, want, "workers={workers}");
                assert_eq!(stats.workers, workers.max(1));
                assert_eq!(stats.morsels, n_groups);
                assert_eq!(stats.rows, table.n_rows() as u64);
            }
        }
    }

    #[test]
    fn skip_mask_respected_and_morsels_counted_exactly() {
        let table = dataset();
        let plan = scalar_plan();
        let n_groups = table.row_groups().len();
        let skip: Vec<bool> = (0..n_groups).map(|i| i % 3 == 0).collect();
        let want = serial(&plan, &table, Some(&skip));
        let (trace, cancel) = (TraceCtx::disabled(), CancelToken::none());
        let opts = ParOptions::new(4);
        // A short mask leaves the groups past its end unskipped.
        for mask in [&skip[..], &skip[..n_groups - 2]] {
            let (bins, stats) =
                execute(&plan, &table, Some(mask), &trace, &cancel, None, &opts).unwrap();
            assert_eq!(bins, want);
            let expected = skip.iter().filter(|s| !**s).count() as u64;
            assert_eq!(stats.morsels, expected, "each kept group executed once");
        }
    }

    #[test]
    fn already_cancelled_token_stops_before_any_morsel() {
        let table = dataset();
        let cancel = CancelToken::new();
        cancel.cancel();
        let (trace, opts) = (TraceCtx::disabled(), ParOptions::new(4));
        match execute(&scalar_plan(), &table, None, &trace, &cancel, None, &opts) {
            Err(ColumnarError::Cancelled(c)) => {
                assert_eq!(c.rows_processed, 0);
                assert_eq!(c.stage, Stage::Aggregate);
            }
            other => panic!("expected cancellation, got {other:?}"),
        }
    }

    #[test]
    fn trace_and_metrics_record_workers_and_morsels() {
        let table = dataset();
        let plan = scalar_plan();
        let (trace, metrics) = (TraceCtx::enabled(), MetricsRegistry::new());
        let cancel = CancelToken::none();
        let opts = ParOptions::new(3);
        let (bins, stats) =
            execute(&plan, &table, None, &trace, &cancel, Some(&metrics), &opts).unwrap();
        assert_eq!(bins, serial(&plan, &table, None));
        let tree = trace.take_tree();
        let spans = tree.flatten();
        let count = |prefix: &str| spans.iter().filter(|s| s.label.starts_with(prefix)).count();
        assert_eq!(count("compiled parallel x3"), 1);
        assert_eq!(count("worker "), stats.workers);
        let snap = metrics.snapshot();
        assert_eq!(snap.counter("par_morsels"), stats.morsels);
        assert_eq!(snap.gauge("par_workers"), Some(stats.workers as f64));
    }
}
