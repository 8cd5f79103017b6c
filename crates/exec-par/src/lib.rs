//! # exec-par
//!
//! Parallel execution over row groups — the paper's Figure 2
//! parallelism unit: its measured systems parallelize Parquet scans at
//! row-group granularity, which is what creates the plateau once the
//! data set outgrows one group and the second rise once groups outnumber
//! cores.
//!
//! Every parallel path runs through one fan-out,
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
//! With [`ParOptions::recovery`] set, each morsel runs inside
//! `catch_unwind` and is re-executed *in place* by the worker that
//! claimed it: a *retryable* typed error ([`PirError::retryable`], i.e.
//! a retryable injected scan fault) is **retried**; a *panicking* kernel
//! is **quarantined** — the worker rebuilds its scratch (the unwind may
//! have torn it mid-write) and re-runs the morsel. Both share one
//! per-morsel budget, [`RecoveryOptions::max_retries`], and every attempt
//! is cancel-checked. Past the budget the query fails with the typed
//! error or [`PirError::MorselPanic`]; non-retryable errors fail it at
//! once. A morsel yields exactly one partial, so no re-execution can
//! double-count rows. Without recovery there is no `catch_unwind`: the
//! first error stops every worker, and a kernel panic propagates to the
//! caller like any other bug.
//!
//! Scan accounting is untouched by design: the engines account scans in
//! a serial, fault-free pre-pass before execution (see `engine-sql`), so
//! `ScanStats` — and therefore billing — are identical at any worker
//! count. With morsel recovery on, the engines route the fault injector
//! *here* instead ([`execute_with_faults`]): each morsel probes its row
//! group's read set through [`ScanFaults::probe_group`], whose decisions
//! are pure functions of `(fingerprint, group, leaf)` — the schedule the
//! serial pre-pass would have seen.

mod ordered;

pub use ordered::{for_each_group_ordered, resolve_threads, OrderedPartials};

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};

use nested_value::Path;
use nf2_columnar::{ColumnarError, MorselRecovery, RowGroup, ScanFaults, Table};
use obs::{CancelToken, MetricsRegistry, SpanGuard, Stage, TraceCtx};
use physical_ir::{
    execute_group, Exchange, GroupScratch, PartialAgg, PhysPlan, PirError, Provenance,
};

/// Morsel-level fault recovery (see the crate docs).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RecoveryOptions {
    /// Failed attempts (retries plus quarantine re-runs) a morsel may
    /// accumulate before the query fails with its error. An attempt stops
    /// at the first faulting leaf it probes, so the budget must cover the
    /// number of faulting leaves in a morsel's read set.
    pub max_retries: u32,
}

impl Default for RecoveryOptions {
    fn default() -> RecoveryOptions {
        RecoveryOptions { max_retries: 3 }
    }
}

/// Parallel execution options.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ParOptions {
    /// Worker threads. Clamped to `[1, morsel count]`; `0` and `1` both
    /// run one worker, inline on the caller's thread.
    pub workers: usize,
    /// Morsel-level fault recovery; `None` (the default) fails fast: the
    /// first morsel error aborts the query and a kernel panic propagates.
    pub recovery: Option<RecoveryOptions>,
}

impl ParOptions {
    /// Options for `workers` threads without recovery.
    pub fn new(workers: usize) -> ParOptions {
        ParOptions {
            workers,
            recovery: None,
        }
    }

    /// Options for `workers` threads with default recovery enabled.
    pub fn recovering(workers: usize) -> ParOptions {
        ParOptions {
            recovery: Some(RecoveryOptions::default()),
            ..ParOptions::new(workers)
        }
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
    /// Typed recovery counters; all zero unless [`ParOptions::recovery`] was set.
    pub recovery: MorselRecovery,
}

/// Best-effort text of a panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    let text = payload.downcast_ref::<&str>().copied();
    let text = text.or_else(|| payload.downcast_ref::<String>().map(String::as_str));
    text.unwrap_or("unknown panic payload").to_string()
}

/// One worker's state, built once per worker by the driver.
struct Worker {
    index: usize,
    scratch: GroupScratch,
    span: SpanGuard,
}

/// What every worker of one compiled run shares.
struct Morsels<'a> {
    plan: &'a PhysPlan,
    /// The plan's read set, probed through the fault injector.
    cols: Vec<Path>,
    faults: Option<ScanFaults<'a>>,
    /// The umbrella span's context: parent of worker and recovery spans.
    trace: TraceCtx,
    cancel: &'a CancelToken,
    recovery: Option<RecoveryOptions>,
    /// Rows of finished morsels, for the per-attempt cancel checks.
    rows_done: AtomicU64,
    retried: AtomicU64,
    quarantined: AtomicU64,
}

impl Morsels<'_> {
    /// Probes the fault injector over the plan's read set (when
    /// attached), then runs the per-group kernel.
    fn attempt(&self, w: &mut Worker, g: usize, group: &RowGroup) -> Result<Vec<i64>, PirError> {
        if let Some(f) = &self.faults {
            f.probe_group(g as u32, &self.cols)
                .map_err(|e| PirError::Columnar(ColumnarError::Fault(e)))?;
        }
        let mut bins = Vec::new();
        execute_group(self.plan, group, &mut w.scratch, &mut bins)?;
        Ok(bins)
    }

    /// Runs morsel `g` on worker `w` and tags its partial. With recovery
    /// on, this is the wrapper of the crate docs: a retryable error is
    /// retried and a panic quarantined in place, within one `max_retries`
    /// budget, cancel-checking every attempt.
    fn run(&self, w: &mut Worker, g: usize, group: &RowGroup) -> Result<PartialAgg, PirError> {
        let mut attempt = 1;
        let bins = match self.recovery {
            None => self.attempt(w, g, group)?,
            Some(r) => loop {
                let rows_done = self.rows_done.load(Ordering::Relaxed);
                self.cancel.check(Stage::Aggregate, rows_done)?;
                match catch_unwind(AssertUnwindSafe(|| self.attempt(w, g, group))) {
                    Ok(Ok(bins)) => break bins,
                    Ok(Err(e)) if !e.retryable() || attempt > r.max_retries => return Err(e),
                    Ok(Err(_)) => {
                        self.retried.fetch_add(1, Ordering::Relaxed);
                        let label =
                            || format!("retry group {g} in place (attempt {})", attempt + 1);
                        self.trace.span_with(Stage::Recovery, label).finish();
                    }
                    Err(payload) => {
                        // The unwind may have torn the scratch mid-write.
                        w.scratch = GroupScratch::new(self.plan);
                        self.quarantined.fetch_add(1, Ordering::Relaxed);
                        if attempt > r.max_retries {
                            let message = panic_message(&*payload);
                            return Err(PirError::MorselPanic { group: g, message });
                        }
                        let label =
                            || format!("quarantine group {g} after panic (attempt {attempt})");
                        self.trace.span_with(Stage::Recovery, label).finish();
                    }
                }
                attempt += 1;
            },
        };
        let rows = group.n_rows() as u64;
        self.rows_done.fetch_add(rows, Ordering::Relaxed);
        w.span.add_rows_in(rows);
        w.span.add_rows_out(bins.len() as u64);
        let provenance = Provenance {
            worker: w.index,
            attempt,
        };
        Ok(PartialAgg {
            group: g,
            bins,
            rows,
            provenance,
        })
    }
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
) -> Result<(Vec<i64>, ParStats), PirError> {
    execute_with_faults(plan, table, skip, trace, cancel, metrics, opts, None)
}

/// [`execute`] with a morsel-level fault surface attached: each morsel
/// probes its row group's read set through [`ScanFaults::probe_group`]
/// before the kernel runs. With [`ParOptions::recovery`] set this is the
/// fault-tolerant path (retry and quarantine in place, plus the
/// `par_morsels_retried`/`par_morsels_quarantined` counters); without
/// it, an injected fault fails the query fast and an injected panic
/// propagates, exactly like a genuine kernel bug.
#[allow(clippy::too_many_arguments)]
pub fn execute_with_faults(
    plan: &PhysPlan,
    table: &Table,
    skip: Option<&[bool]>,
    trace: &TraceCtx,
    cancel: &CancelToken,
    metrics: Option<&MetricsRegistry>,
    opts: &ParOptions,
    faults: Option<ScanFaults<'_>>,
) -> Result<(Vec<i64>, ParStats), PirError> {
    let groups = table.row_groups();
    let skip: Vec<bool> = (0..groups.len())
        .map(|g| skip.and_then(|m| m.get(g)).copied().unwrap_or(false))
        .collect();
    let workers = resolve_threads(opts.workers.max(1), &skip);
    let mut umbrella =
        trace.span_with(Stage::Aggregate, || format!("compiled parallel x{workers}"));
    let morsels = Morsels {
        plan,
        cols: plan.columns(),
        faults,
        trace: umbrella.ctx(),
        cancel,
        recovery: opts.recovery,
        rows_done: AtomicU64::new(0),
        retried: AtomicU64::new(0),
        quarantined: AtomicU64::new(0),
    };
    let out = for_each_group_ordered(
        groups,
        workers,
        &skip,
        cancel,
        Stage::Aggregate,
        |w| Worker {
            index: w,
            scratch: GroupScratch::new(plan),
            span: morsels
                .trace
                .span_with(Stage::Aggregate, || format!("worker {w}")),
        },
        |w, g, group| morsels.run(w, g, group),
    )?;

    let ok = out.partials.len() as u64;
    let mut exchange = Exchange::new();
    for p in out.partials {
        exchange.push(p);
    }
    let recovery = match opts.recovery {
        Some(_) => MorselRecovery {
            ok,
            retried: morsels.retried.into_inner(),
            quarantined: morsels.quarantined.into_inner(),
        },
        None => MorselRecovery::default(),
    };
    let stats = ParStats {
        workers: out.threads_used,
        morsels: exchange.len() as u64,
        steals: 0,
        rows: exchange.rows(),
        recovery,
    };
    if let Some(m) = metrics {
        m.gauge_set("par_workers", stats.workers as f64);
        m.counter_add("par_morsels", stats.morsels);
        if opts.recovery.is_some() {
            m.counter_add("par_morsels_retried", recovery.retried);
            m.counter_add("par_morsels_quarantined", recovery.quarantined);
        }
    }
    umbrella.add_rows_in(stats.rows);
    umbrella.finish();
    let bins = exchange.merge(cancel)?;
    Ok((bins, stats))
}

/// The engines' compiled-execution entry point: `workers > 1` or
/// `recovery` runs `plan` through [`execute_with_faults`] (so a serial
/// compiled query still gets retry and quarantine), anything else on the
/// serial [`physical_ir::execute`]. Returns the bin-index sequence, the
/// workers used and the recovery counters. `faults` is attached only
/// with `recovery` on; without it the engines keep the injector on their
/// scan pre-pass.
#[allow(clippy::too_many_arguments)]
pub fn execute_compiled(
    plan: &PhysPlan,
    table: &Table,
    skip: &[bool],
    trace: &TraceCtx,
    cancel: &CancelToken,
    workers: usize,
    recovery: bool,
    faults: Option<ScanFaults<'_>>,
) -> Result<(Vec<i64>, usize, MorselRecovery), PirError> {
    if workers <= 1 && !recovery {
        let bins = physical_ir::execute(plan, table, Some(skip), trace, cancel)?;
        return Ok((bins, 1, MorselRecovery::default()));
    }
    let opts = ParOptions {
        workers,
        recovery: recovery.then(RecoveryOptions::default),
    };
    let (bins, stats) = execute_with_faults(
        plan,
        table,
        Some(skip),
        trace,
        cancel,
        None,
        &opts,
        faults.filter(|_| recovery),
    )?;
    Ok((bins, stats.workers, stats.recovery))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hep_model::generator::build_dataset;
    use hep_model::DatasetSpec;
    use nf2_columnar::{FaultClass, FaultConfig, FaultInjector, ScalarPredicate, SelCmp, SelValue};
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

    fn injector(class: FaultClass, p: f64, transient_attempts: u32, seed: u64) -> FaultInjector {
        FaultInjector::new(FaultConfig {
            transient_attempts,
            ..FaultConfig::only(class, p, seed)
        })
    }

    /// `execute_with_faults` with no skip mask, tracing, cancel or metrics.
    fn run(
        plan: &PhysPlan,
        table: &Table,
        opts: ParOptions,
        injector: Option<&FaultInjector>,
    ) -> Result<(Vec<i64>, ParStats), PirError> {
        let (trace, cancel) = (TraceCtx::disabled(), CancelToken::none());
        let faults = injector.map(|i| ScanFaults::new(i, table));
        execute_with_faults(plan, table, None, &trace, &cancel, None, &opts, faults)
    }

    #[test]
    fn byte_identical_at_any_worker_count_with_recovery_on_or_off() {
        let table = dataset();
        let n_groups = table.row_groups().len() as u64;
        for plan in [scalar_plan(), trijet_plan()] {
            let want = serial(&plan, &table, None);
            for workers in [0, 1, 2, 3, 8] {
                for opts in [ParOptions::new(workers), ParOptions::recovering(workers)] {
                    let (bins, stats) = run(&plan, &table, opts, None).unwrap();
                    assert_eq!(bins, want, "{opts:?}");
                    assert_eq!(stats.workers, workers.max(1));
                    assert_eq!(stats.morsels, n_groups);
                    assert_eq!(stats.rows, table.n_rows() as u64);
                    let ok = if opts.recovery.is_some() { n_groups } else { 0 };
                    assert_eq!(stats.recovery.ok, ok);
                    assert_eq!(stats.recovery.interventions(), 0);
                }
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
        for opts in [ParOptions::new(4), ParOptions::recovering(4)] {
            let trace = TraceCtx::disabled();
            match execute(&scalar_plan(), &table, None, &trace, &cancel, None, &opts) {
                Err(PirError::Cancelled(c)) => {
                    assert_eq!(c.rows_processed, 0);
                    assert_eq!(c.stage, Stage::Aggregate);
                }
                other => panic!("expected cancellation, got {other:?}"),
            }
        }
    }

    // ---- recovery ----

    #[test]
    fn transient_faults_and_panics_recover_byte_identically() {
        let table = dataset();
        // Each attempt stops at its first faulting leaf: `p` keeps a
        // morsel's faulting-leaf count within the default budget of 3.
        for (class, p, seed, plan) in [
            (FaultClass::Io, 0.4, 0xFA_17, scalar_plan()),
            (FaultClass::Panic, 0.2, 0xBAD, trijet_plan()),
        ] {
            let want = serial(&plan, &table, None);
            for workers in [1, 2, 8] {
                // The first read of a faulting chunk fails; its re-run
                // succeeds.
                let inj = injector(class, p, 1, seed);
                let (bins, stats) =
                    run(&plan, &table, ParOptions::recovering(workers), Some(&inj)).unwrap();
                let ctx = format!("{class:?} workers={workers}");
                assert_eq!(bins, want, "{ctx}");
                let rec = stats.recovery;
                match class {
                    FaultClass::Panic => assert!(rec.quarantined > 0, "{ctx}: no quarantine"),
                    _ => assert!(rec.retried > 0, "{ctx}: no in-place retry"),
                }
                assert_eq!(rec.ok, stats.morsels, "{ctx}: duplicate partials");
                assert_eq!(stats.rows, table.n_rows() as u64, "{ctx}: double billing");
                assert_eq!(stats.morsels, table.row_groups().len() as u64);
            }
        }
    }

    #[test]
    fn trace_and_metrics_record_workers_and_quarantines() {
        let table = dataset();
        let plan = scalar_plan();
        // Every chunk read panics three times before recovering: each
        // worker absorbs its morsels' panics and re-runs them itself.
        let inj = injector(FaultClass::Panic, 1.0, 3, 3);
        let (trace, metrics) = (TraceCtx::enabled(), MetricsRegistry::new());
        let cancel = CancelToken::none();
        let faults = Some(ScanFaults::new(&inj, &table));
        let opts = ParOptions::recovering(3);
        let (bins, stats) = execute_with_faults(
            &plan,
            &table,
            None,
            &trace,
            &cancel,
            Some(&metrics),
            &opts,
            faults,
        )
        .unwrap();
        let n_groups = table.row_groups().len() as u64;
        assert_eq!(bins, serial(&plan, &table, None));
        assert_eq!(
            stats.recovery.quarantined,
            3 * n_groups,
            "one leaf, three panics"
        );
        assert_eq!(stats.recovery.ok, n_groups);
        let tree = trace.take_tree();
        let spans = tree.flatten();
        let count = |prefix: &str| spans.iter().filter(|s| s.label.starts_with(prefix)).count();
        assert_eq!(count("compiled parallel x3"), 1);
        assert_eq!(count("worker "), stats.workers);
        assert_eq!(count("quarantine group") as u64, stats.recovery.quarantined);
        let snap = metrics.snapshot();
        assert_eq!(snap.counter("par_morsels"), stats.morsels);
        assert_eq!(
            snap.counter("par_morsels_quarantined"),
            stats.recovery.quarantined
        );
    }

    #[test]
    fn persistent_faults_fail_with_typed_errors_after_bounded_retries() {
        let table = dataset();
        let opts = ParOptions::recovering(2);
        let inj = injector(FaultClass::ChecksumMismatch, 1.0, 0, 1);
        match run(&scalar_plan(), &table, opts, Some(&inj)) {
            Err(PirError::Columnar(ColumnarError::Fault(s))) => {
                assert_eq!(s.class, FaultClass::ChecksumMismatch);
            }
            other => panic!("expected a fault error, got {other:?}"),
        }
        let inj = injector(FaultClass::Panic, 1.0, 0, 2);
        match run(&scalar_plan(), &table, opts, Some(&inj)) {
            Err(PirError::MorselPanic { message, .. }) => {
                assert!(message.contains("injected panic"), "got: {message}");
            }
            other => panic!("expected MorselPanic, got {other:?}"),
        }
    }

    #[test]
    fn recovery_off_fails_fast_and_lets_a_kernel_panic_escape() {
        let table = dataset();
        // Transient — but nobody retries.
        let inj = injector(FaultClass::Io, 1.0, 1, 5);
        let err = run(&scalar_plan(), &table, ParOptions::new(2), Some(&inj)).unwrap_err();
        assert!(
            matches!(err, PirError::Columnar(ColumnarError::Fault(_))),
            "got {err}"
        );
        for workers in [1, 2, 8] {
            let inj = injector(FaultClass::Panic, 0.2, 1, 0xBAD);
            let escaped = catch_unwind(AssertUnwindSafe(|| {
                run(&scalar_plan(), &table, ParOptions::new(workers), Some(&inj))
            }));
            let payload = escaped.expect_err("the panic must not be swallowed");
            assert!(
                panic_message(&*payload).contains("injected panic"),
                "workers={workers}: the original payload propagates"
            );
        }
    }
}
