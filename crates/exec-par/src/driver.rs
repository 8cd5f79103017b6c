//! The scan driver every engine runs a query through: scan → prune →
//! select → fan-out, written once.
//!
//! A [`Driver`] is one query's run. [`Driver::scan`] accounts a projected
//! scan of one table under the run's [`ExecEnv`] and prunes its row groups
//! by zone maps; the returned [`TableScan`] carries the skip mask the
//! billing used and the predicates rows are selected by. Compiled plans
//! run on [`Driver::compiled`]; interpreted queries evaluate the selected
//! rows of each surviving row group on [`Driver::eval_groups`], or of the
//! whole table on [`Driver::read_rows`]. [`Driver::finish`] assembles the
//! run's [`ExecStats`]. An engine keeps only what is its own: predicate
//! extraction from its AST, evaluation of materialised rows, and the
//! merge of its partials.

use std::time::Instant;

use nested_value::Value;
use nf2_columnar::{
    apply_predicates, ColumnarError, ExecStats, LeafInfo, Projection, PushdownCapability, RowGroup,
    ScalarPredicate, ScanRequest, ScanStats, SelectionVector, Table,
};
use obs::{Cancelled, Stage, TraceCtx};
use physical_ir::PhysPlan;

use crate::{execute, for_each_group_ordered, ExecEnv, ExecOptions, OrderedPartials, ParOptions};

/// One query's run: its options under the environment's overrides, the
/// scan accounting of every table it read, and its start time.
pub struct Driver<'e> {
    options: ExecOptions,
    env: &'e ExecEnv,
    start: Instant,
    scan: ScanStats,
    reads_retried: u64,
}

/// One table as a query reads it: the row groups zone maps pruned and the
/// scalar conjuncts its surviving rows are selected by.
pub struct TableScan<'t> {
    table: &'t Table,
    /// Per-row-group skip mask (`true` = pruned). Execution skips exactly
    /// these groups, so billing and results agree.
    skip: Vec<bool>,
    leaves: Vec<&'t LeafInfo>,
    preds: &'t [ScalarPredicate],
}

impl<'e> Driver<'e> {
    /// Starts a run of an engine configured with `options` in `env`; the
    /// run's wall time counts from here.
    pub fn new(options: ExecOptions, env: &'e ExecEnv) -> Driver<'e> {
        Driver {
            options: env.resolve(options),
            env,
            start: Instant::now(),
            scan: ScanStats::default(),
            reads_retried: 0,
        }
    }

    /// The run's options, overrides applied.
    pub fn options(&self) -> &ExecOptions {
        &self.options
    }

    /// Accounts a scan of `projection` over `table` through the
    /// environment's fault injector, trace and cancel token,
    /// and prunes by `preds` when zone-map pruning is on. `preds` must be
    /// top-level conjuncts of the query's row filter on `table`: its
    /// surviving rows are selected by them before materialisation.
    pub fn scan<'t>(
        &mut self,
        table: &'t Table,
        projection: &Projection,
        capability: PushdownCapability,
        preds: &'t [ScalarPredicate],
    ) -> Result<TableScan<'t>, ColumnarError> {
        let prune = if self.options.zone_map_pruning {
            preds
        } else {
            &[]
        };
        let run = ScanRequest::new(table, projection)
            .capability(capability)
            .faults(self.env.fault_injector.as_deref())
            .trace(&self.env.trace)
            .cancel(&self.env.cancel)
            .prune(prune)
            .run()?;
        self.scan.merge(&run.stats);
        self.reads_retried += run.reads_retried;
        Ok(TableScan {
            table,
            skip: run.skip.expect("prune() was supplied"),
            // Rows are reconstructed from the *logical* leaves: pushdown
            // limits change the bytes billed, not the values read.
            leaves: projection.logical_leaves(table.schema())?,
            preds,
        })
    }

    /// Runs a compiled plan over the scanned table's surviving groups:
    /// `parallel_workers > 1` on the morsel executor ([`crate::execute`]),
    /// anything else on the serial [`physical_ir::execute`]. Returns the
    /// bin-index sequence, the busy CPU seconds summed over workers and
    /// the workers used.
    pub fn compiled(
        &self,
        plan: &PhysPlan,
        scan: &TableScan,
    ) -> Result<(Vec<i64>, f64, usize), ColumnarError> {
        let (trace, cancel) = (&self.env.trace, &self.env.cancel);
        let workers = self.options.parallel_workers;
        if workers <= 1 {
            let t0 = Instant::now();
            let bins = physical_ir::execute(plan, scan.table, Some(&scan.skip), trace, cancel)?;
            return Ok((bins, t0.elapsed().as_secs_f64(), 1));
        }
        let opts = ParOptions::new(workers);
        let (bins, stats) = execute(
            plan,
            scan.table,
            Some(&scan.skip),
            trace,
            cancel,
            None,
            &opts,
        )?;
        Ok((bins, stats.busy.as_secs_f64(), stats.workers))
    }

    /// Evaluates `eval` over the selected rows of every surviving row
    /// group on [`ExecOptions::n_threads`] threads, each group under a
    /// `group {g}` aggregate span, and returns the results in group
    /// order. When no group survives, `eval` runs once over zero rows, so
    /// a global aggregate still answers as it would unpruned.
    pub fn eval_groups<T, E, F>(&self, scan: &TableScan, eval: F) -> Result<OrderedPartials<T>, E>
    where
        T: Send,
        E: Send + From<Cancelled> + From<ColumnarError>,
        F: Fn(Vec<Value>) -> Result<T, E> + Sync,
    {
        let trace = &self.env.trace;
        let n_threads = self.options.n_threads;
        let mut out = self.for_each_group(scan, n_threads, Stage::Materialize, |g, group| {
            let rows = scan.read_group(g, group, trace)?;
            let span = trace.span_with(Stage::Aggregate, || format!("group {g}"));
            let partial = eval(rows);
            span.finish();
            partial
        })?;
        if out.partials.is_empty() {
            out.partials.push(eval(Vec::new())?);
        }
        Ok(out)
    }

    /// The selected rows of every surviving row group, in group order,
    /// read on the caller's thread.
    pub fn read_rows(&self, scan: &TableScan) -> Result<Vec<Value>, ColumnarError> {
        let trace = &self.env.trace;
        let out = self.for_each_group(scan, 1, Stage::Materialize, |g, group| {
            scan.read_group(g, group, trace)
        })?;
        let mut rows = Vec::with_capacity(scan.table.n_rows());
        for part in out.partials {
            rows.extend(part);
        }
        Ok(rows)
    }

    /// [`for_each_group_ordered`] over the scan's surviving row groups on
    /// `n_threads` threads, checking the run's cancel token once per group
    /// under `stage`.
    pub fn for_each_group<T, E, F>(
        &self,
        scan: &TableScan,
        n_threads: usize,
        stage: Stage,
        per_group: F,
    ) -> Result<OrderedPartials<T>, E>
    where
        T: Send,
        E: Send + From<Cancelled>,
        F: Fn(usize, &RowGroup) -> Result<T, E> + Sync,
    {
        let groups = scan.table.row_groups();
        let cancel = &self.env.cancel;
        for_each_group_ordered(
            groups,
            n_threads,
            &scan.skip,
            cancel,
            stage,
            |_| (),
            |_, g, group| per_group(g, group),
        )
    }

    /// The run's statistics, with the execution phase's busy CPU seconds
    /// and the threads it used.
    pub fn finish(self, cpu_seconds: f64, threads_used: usize) -> ExecStats {
        ExecStats {
            wall_seconds: self.start.elapsed().as_secs_f64(),
            cpu_seconds,
            scan: self.scan,
            threads_used,
            reads_retried: self.reads_retried,
        }
    }
}

impl TableScan<'_> {
    /// The rows of group `g` that pass the scan's predicates, evaluated
    /// vectorised over the typed chunks under a `group {g}` filter span;
    /// `None` when there are no predicates (every row passes).
    pub fn select(
        &self,
        g: usize,
        group: &RowGroup,
        trace: &TraceCtx,
    ) -> Result<Option<SelectionVector>, ColumnarError> {
        if self.preds.is_empty() {
            return Ok(None);
        }
        let mut span = trace.span_with(Stage::Filter, || format!("group {g}"));
        let sel = apply_predicates(group, self.preds)?;
        if span.is_enabled() {
            span.add_rows_in(sel.n_rows() as u64);
            span.add_rows_out(sel.len() as u64);
        }
        span.finish();
        Ok(Some(sel))
    }

    /// The selected rows of group `g` (see [`Self::select`]), materialised
    /// under a `group {g}` materialise span: only surviving rows are
    /// assembled into values (late materialisation).
    fn read_group(
        &self,
        g: usize,
        group: &RowGroup,
        trace: &TraceCtx,
    ) -> Result<Vec<Value>, ColumnarError> {
        let sel = self.select(g, group, trace)?;
        let _span = trace.span_with(Stage::Materialize, || format!("group {g}"));
        let schema = self.table.schema();
        match sel {
            Some(sel) if !sel.is_full() => group.read_rows_selected(schema, &self.leaves, &sel),
            _ => group.read_rows(schema, &self.leaves),
        }
    }
}
