//! The public engine API: register tables, execute scripts, collect stats.

use std::collections::HashMap;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;

use nested_value::Value;
use nf2_columnar::{
    ChunkCache, ExecStats, FaultInjector, Projection, RowGroup, ScalarPredicate, ScanCache,
    ScanFaults, ScanStats, Table,
};

use crate::ast::Script;
use crate::dialect::Dialect;
use crate::error::SqlError;
use crate::exec::{self, ExecContext, Relation, Scope, Udf};
use crate::parser;
use crate::plan::{self, ColMerge};

/// Execution options.
#[derive(Clone, Copy, Debug)]
pub struct SqlOptions {
    /// Worker threads for segment-parallel execution (0 ⇒ all cores).
    pub n_threads: usize,
    /// Allow running decomposable aggregations per row group in parallel
    /// (Presto's split model). Requires joins/grouping inside the query to
    /// be partition-local — true for HEP queries, where every join and
    /// per-event `GROUP BY` stays within one event and events never span
    /// row groups. Disable for arbitrary SQL.
    pub partition_parallel: bool,
    /// Skip row groups whose zone maps ([`nf2_columnar::stats`]) cannot
    /// satisfy top-level WHERE conjuncts on scalar columns. Sound —
    /// extraction in [`crate::plan::filterable_predicates`] is
    /// conservative, and the skipped bytes are billed as
    /// `ScanStats::bytes_pruned`.
    pub zone_map_pruning: bool,
    /// Evaluate top-level WHERE conjuncts on non-repeated numeric columns
    /// vectorized over the decoded chunk buffers and materialize only the
    /// surviving rows (late materialization; see [`nf2_columnar::select`]).
    /// Purely an execution-speed knob: scan/pricing accounting is defined
    /// by the projected columns, not by surviving rows, and results are
    /// identical because the WHERE clause still runs on the survivors.
    pub vectorized_filter: bool,
    /// Compiled execution: scripts recognized by [`crate::compile`] run
    /// as fused batch kernels over the shared physical IR instead of the
    /// row-at-a-time relational interpreter. Recognition is exact
    /// (canonical-template AST equality), so disabling this only costs
    /// speed; results are bit-identical either way.
    pub compile: bool,
    /// Morsel-driven intra-query parallelism for compiled execution:
    /// `> 1` runs compiled plans through `exec_par` with this many
    /// workers (row groups are the morsels). `0` or `1` keeps the serial
    /// compiled executor. Output is byte-identical at any value — the
    /// exchange merges partial aggregates in group order — and scan
    /// accounting is unaffected (it is a serial pre-pass either way).
    /// Ignored when `compile` is off or the script does not lower.
    pub parallel_workers: usize,
    /// Morsel-level fault recovery for compiled execution (default off):
    /// each morsel runs under `catch_unwind`, transient scan faults are
    /// retried in place, panicking morsels are quarantined and
    /// re-executed, dead workers' deques are reassigned and the pool
    /// degrades down to a serial fallback instead of failing the query
    /// (see `exec_par`). When active the fault injector is routed to the
    /// morsel fault surface instead of the scan pre-pass, so billing
    /// stays fault-free and byte-identical by construction. Results are
    /// unchanged; only failure handling differs. Ignored when the script
    /// does not lower to the compiled path.
    pub morsel_recovery: bool,
}

impl Default for SqlOptions {
    fn default() -> Self {
        SqlOptions {
            n_threads: 0,
            partition_parallel: true,
            zone_map_pruning: true,
            vectorized_filter: true,
            compile: true,
            parallel_workers: 0,
            morsel_recovery: false,
        }
    }
}

/// Result of executing a script.
#[derive(Clone, Debug)]
pub struct QueryOutput {
    /// The final relation.
    pub relation: Relation,
    /// Execution statistics (wall/CPU/scan accounting).
    pub stats: ExecStats,
}

/// A SQL engine bound to a dialect profile.
pub struct SqlEngine {
    dialect: Dialect,
    options: SqlOptions,
    tables: HashMap<String, Arc<Table>>,
    chunk_cache: Option<Arc<ChunkCache>>,
    fault_injector: Option<Arc<FaultInjector>>,
    trace: obs::TraceCtx,
    cancel: obs::CancelToken,
}

impl SqlEngine {
    /// Creates an engine for a dialect.
    pub fn new(dialect: Dialect, options: SqlOptions) -> SqlEngine {
        SqlEngine {
            dialect,
            options,
            tables: HashMap::new(),
            chunk_cache: None,
            fault_injector: None,
            trace: obs::TraceCtx::disabled(),
            cancel: obs::CancelToken::none(),
        }
    }

    /// Registers a base table under its own name.
    pub fn register(&mut self, table: Arc<Table>) {
        self.tables.insert(table.name().to_ascii_lowercase(), table);
    }

    /// Attaches a shared buffer pool in front of physical chunk reads.
    /// Purely an I/O-accounting/serving knob: billing bytes and results
    /// are identical with or without it (see [`nf2_columnar::ScanStats`]).
    pub fn set_chunk_cache(&mut self, cache: Option<Arc<ChunkCache>>) {
        self.chunk_cache = cache;
    }

    /// Attaches a chaos-layer fault injector to physical chunk reads.
    /// `None` (the default) leaves the scan path byte-identical to the
    /// fault-free engine.
    pub fn set_fault_injector(&mut self, injector: Option<Arc<FaultInjector>>) {
        self.fault_injector = injector;
    }

    /// Attaches a tracing context: execution stages record spans into
    /// it. The default (disabled) context makes instrumentation a
    /// near-no-op.
    pub fn set_trace(&mut self, trace: obs::TraceCtx) {
        self.trace = trace;
    }

    /// Attaches a cooperative cancellation token: the scan accounting
    /// and the per-group execution loops check it at row-group
    /// granularity and abort with [`SqlError::Cancelled`] once it trips.
    /// The default (disabled) token costs a single branch per group.
    pub fn set_cancel(&mut self, cancel: obs::CancelToken) {
        self.cancel = cancel;
    }

    /// The engine's dialect.
    pub fn dialect(&self) -> Dialect {
        self.dialect
    }

    /// Parses, validates (against the dialect), and executes a script.
    pub fn execute(&self, sql: &str) -> Result<QueryOutput, SqlError> {
        let start = Instant::now();
        let parse_span = self.trace.span_with(obs::Stage::Parse, || {
            format!("{} dialect", self.dialect.name.as_str())
        });
        let script = parser::parse_script(sql)?;
        self.dialect.validate(&script)?;
        parse_span.finish();

        let plan_span = self.trace.span(obs::Stage::Plan);
        // Static projection analysis → scan accounting per base table.
        let schemas: HashMap<String, &nf2_columnar::Schema> = self
            .tables
            .iter()
            .map(|(n, t)| (n.clone(), t.schema()))
            .collect();
        let projections = plan::collect_projections(&script, &schemas);

        // One predicate extraction feeds two independent consumers:
        // zone-map pruning (whole row groups skipped before decode, via
        // [`nf2_columnar::ScanRequest::prune`]) and the vectorized
        // pre-filter (late materialization of surviving groups). Either
        // can be toggled without the other; results are identical in all
        // four combinations because the full WHERE still runs on whatever
        // rows get materialized.
        let extracted = if self.options.zone_map_pruning || self.options.vectorized_filter {
            plan::filterable_predicates(&script, &schemas)
        } else {
            HashMap::new()
        };
        let no_preds: HashMap<String, Vec<ScalarPredicate>> = HashMap::new();
        let prune_preds = if self.options.zone_map_pruning {
            &extracted
        } else {
            &no_preds
        };
        let filter_preds = if self.options.vectorized_filter {
            &extracted
        } else {
            &no_preds
        };

        let udfs = compile_udfs(&script)?;
        // Segment-parallel if the root is decomposable and exactly one base
        // table is referenced.
        let merge_spec = plan::root_merge_spec(&script);
        // Compiled path detection (under the Plan span): scripts that are
        // exact instances of the canonical template lower to a
        // fused-kernel physical plan; everything else interprets. The
        // scan accounting above and below is shared by both modes.
        let compiled = if self.options.compile {
            crate::compile::lower(&script)
        } else {
            None
        };
        plan_span.finish();

        let mut scan = ScanStats::default();
        let mut table_projs: HashMap<String, Projection> = HashMap::new();
        // Skip-masks over row groups (zone-map pruning); execution loops
        // skip exactly the groups the scan accounting skipped.
        let mut masks: HashMap<String, Vec<bool>> = HashMap::new();
        for (name, table) in &self.tables {
            let proj = match projections.get(name) {
                Some(cols) if !cols.is_empty() => Projection::of(cols.iter()),
                // Table in FROM but no column referenced (bare COUNT(*)):
                // real engines still read one (cheap) column to count rows.
                Some(_) => {
                    let first = table
                        .schema()
                        .leaves()
                        .first()
                        .map(|l| l.path.to_string())
                        .unwrap_or_default();
                    Projection::of([first])
                }
                None => continue, // table not referenced
            };
            let scan_cache = self.chunk_cache.as_deref().map(|cache| ScanCache {
                cache,
                table_fingerprint: table.fingerprint(),
            });
            // With morsel recovery active on the compiled path, the
            // injector moves to the morsel fault surface (exec_par probes
            // the same (fingerprint, group, leaf) coordinates per morsel),
            // and the billing pre-pass here stays fault-free — which is
            // what makes ScanStats byte-identical under injected faults
            // and recovered morsels impossible to double-bill.
            let faults_at_morsels =
                self.options.morsel_recovery && compiled.is_some() && name == "events";
            let scan_faults = if faults_at_morsels {
                None
            } else {
                self.scan_faults(table)
            };
            let preds = prune_preds.get(name).map_or(&[][..], |v| v.as_slice());
            let run = nf2_columnar::ScanRequest::new(table, &proj)
                .capability(self.dialect.pushdown)
                .cache(scan_cache)
                .faults(scan_faults)
                .trace(&self.trace)
                .cancel(&self.cancel)
                .prune(preds)
                .run()?;
            scan.merge(&run.stats);
            masks.insert(name.clone(), run.skip.expect("prune() was supplied"));
            table_projs.insert(name.clone(), proj);
        }
        let skipped_groups = scan.groups_pruned;

        // Compiled execution binds to the template's base table; the
        // zone-map skip-mask still applies (pruned groups are skipped by
        // the executor exactly as the interpreter skips them).
        let compiled_exec = compiled.as_ref().and_then(|p| {
            let table = self.tables.get("events")?;
            let skip = masks.get("events")?;
            Some((p, table, skip))
        });
        let (relation, cpu_seconds, threads_used, morsel_rec) =
            if let Some((cplan, table, skip)) = compiled_exec {
                let t0 = Instant::now();
                let (bins, compiled_threads, recovery) = exec_par::execute_compiled(
                    cplan,
                    table,
                    skip,
                    &self.trace,
                    &self.cancel,
                    self.options.parallel_workers,
                    self.options.morsel_recovery,
                    self.scan_faults(table),
                )?;
                // The trivial final count, matching the binning tail's output
                // contract: two columns (bin, n), one row per non-empty bin.
                let mut counts: std::collections::BTreeMap<i64, i64> =
                    std::collections::BTreeMap::new();
                for b in bins {
                    *counts.entry(b).or_insert(0) += 1;
                }
                let rel = Relation {
                    cols: vec!["bin".to_string(), "n".to_string()],
                    rows: counts
                        .into_iter()
                        .map(|(b, n)| vec![Value::Int(b), Value::Int(n)])
                        .collect(),
                };
                (rel, t0.elapsed().as_secs_f64(), compiled_threads, recovery)
            } else {
                let (rel, cpu_seconds, threads) = match (&merge_spec, table_projs.len()) {
                    (Some(spec), 1) if self.options.partition_parallel => {
                        self.run_parallel(&script, &udfs, &table_projs, &masks, filter_preds, spec)?
                    }
                    _ => {
                        let t0 = Instant::now();
                        let rel =
                            self.run_serial(&script, &udfs, &table_projs, &masks, filter_preds)?;
                        (rel, t0.elapsed().as_secs_f64(), 1)
                    }
                };
                (
                    rel,
                    cpu_seconds,
                    threads,
                    nf2_columnar::MorselRecovery::default(),
                )
            };

        Ok(QueryOutput {
            relation,
            stats: ExecStats {
                wall_seconds: start.elapsed().as_secs_f64(),
                cpu_seconds,
                scan,
                threads_used,
                row_groups_skipped: skipped_groups,
                recovery: morsel_rec,
            },
        })
    }

    /// The chaos-layer fault surface over `table`, when an injector is
    /// attached.
    fn scan_faults<'a>(&'a self, table: &'a Table) -> Option<ScanFaults<'a>> {
        let injector = self.fault_injector.as_deref()?;
        Some(ScanFaults::new(injector, table))
    }

    fn materialize_group(
        &self,
        table: &Table,
        group: &RowGroup,
        group_idx: usize,
        proj: &Projection,
        preds: &[ScalarPredicate],
    ) -> Result<Vec<Value>, SqlError> {
        // Rows are reconstructed from the *logical* leaves; the dialect's
        // pushdown limitation affects bytes scanned (accounted above), not
        // the values the executor sees. Leaf resolution happens inside the
        // materialize span: it is per-group work and must be accounted.
        if preds.is_empty() {
            let mat_span = self
                .trace
                .span_with(obs::Stage::Materialize, || format!("group {group_idx}"));
            let leaves = proj.logical_leaves(table.schema())?;
            let rows = group.read_rows(table.schema(), &leaves)?;
            drop(mat_span);
            return Ok(rows);
        }
        let mut filter_span = self
            .trace
            .span_with(obs::Stage::Filter, || format!("group {group_idx}"));
        let sel = nf2_columnar::apply_predicates(group, preds)?;
        if filter_span.is_enabled() {
            filter_span.add_rows_in(sel.n_rows() as u64);
            filter_span.add_rows_out(sel.len() as u64);
        }
        filter_span.finish();
        let mat_span = self
            .trace
            .span_with(obs::Stage::Materialize, || format!("group {group_idx}"));
        let leaves = proj.logical_leaves(table.schema())?;
        let rows = if sel.is_full() {
            group.read_rows(table.schema(), &leaves)?
        } else {
            group.read_rows_selected(table.schema(), &leaves, &sel)?
        };
        drop(mat_span);
        Ok(rows)
    }

    fn run_serial(
        &self,
        script: &Script,
        udfs: &HashMap<String, Udf>,
        projs: &HashMap<String, Projection>,
        masks: &HashMap<String, Vec<bool>>,
        filters: &HashMap<String, Vec<ScalarPredicate>>,
    ) -> Result<Relation, SqlError> {
        let mut relations = HashMap::new();
        for (name, proj) in projs {
            let table = self.tables.get(name).expect("registered");
            let skip = masks.get(name).expect("mask built");
            let preds = filters.get(name).map_or(&[][..], |v| v.as_slice());
            let mut rows = Vec::with_capacity(table.n_rows());
            let mut rows_done = 0u64;
            for (idx, (g, skip)) in table.row_groups().iter().zip(skip).enumerate() {
                if *skip {
                    continue;
                }
                self.cancel.check(obs::Stage::Materialize, rows_done)?;
                rows.extend(self.materialize_group(table, g, idx, proj, preds)?);
                rows_done += g.n_rows() as u64;
            }
            relations.insert(name.clone(), Rc::new(rows));
        }
        let agg_span = self.trace.span(obs::Stage::Aggregate);
        let ctx = ExecContext {
            relations,
            udfs: udfs.clone(),
            dialect: self.dialect,
        };
        let root = Scope::root();
        let rel = exec::eval_query(&script.query, &ctx, &root);
        drop(ctx);
        agg_span.finish();
        rel
    }

    /// Evaluates the query per row group of the one referenced table and
    /// merges the partial relations in group order: first-encounter order
    /// decides output row order for grouped results with no ORDER BY, so
    /// it must not depend on which worker finished first. Returns the
    /// merged relation, summed worker CPU seconds and threads used.
    fn run_parallel(
        &self,
        script: &Script,
        udfs: &HashMap<String, Udf>,
        projs: &HashMap<String, Projection>,
        masks: &HashMap<String, Vec<bool>>,
        filters: &HashMap<String, Vec<ScalarPredicate>>,
        spec: &[ColMerge],
    ) -> Result<(Relation, f64, usize), SqlError> {
        let (name, proj) = projs.iter().next().expect("one table");
        let table = self.tables.get(name).expect("registered");
        let preds = filters.get(name).map_or(&[][..], |v| v.as_slice());
        let out = exec_par::for_each_group_ordered(
            table.row_groups(),
            self.options.n_threads,
            masks.get(name).expect("mask built"),
            &self.cancel,
            obs::Stage::Materialize,
            |g, group| -> Result<Relation, SqlError> {
                let rows = self.materialize_group(table, group, g, proj, preds)?;
                // The aggregate span also covers building and freeing
                // the per-group context: releasing the materialized
                // rows is real per-group work.
                let agg_span = self
                    .trace
                    .span_with(obs::Stage::Aggregate, || format!("group {g}"));
                let mut relations = HashMap::new();
                relations.insert(name.clone(), Rc::new(rows));
                let ctx = ExecContext {
                    relations,
                    udfs: udfs.clone(),
                    dialect: self.dialect,
                };
                let root = Scope::root();
                let rel = exec::eval_query(&script.query, &ctx, &root);
                drop(ctx);
                agg_span.finish();
                rel
            },
        )?;
        let merge_span = self
            .trace
            .span_with(obs::Stage::Aggregate, || "merge".to_string());
        let mut merged = merge_partials(out.partials, spec)?;
        // Re-apply root ORDER BY on the merged result.
        if !script.query.order_by.is_empty() {
            let ctx = ExecContext {
                relations: HashMap::new(),
                udfs: udfs.clone(),
                dialect: self.dialect,
            };
            let root = Scope::root();
            exec::sort_relation_pub(&mut merged, &script.query.order_by, &ctx, &root)?;
        }
        merge_span.finish();
        Ok((merged, out.cpu_seconds, out.threads_used))
    }
}

fn compile_udfs(script: &Script) -> Result<HashMap<String, Udf>, SqlError> {
    let mut udfs = HashMap::new();
    for f in &script.functions {
        let udf = Udf {
            params: f.params.iter().map(|(n, _)| n.clone()).collect(),
            types: f.params.iter().map(|(_, t)| t.clone()).collect(),
            body: f.body.clone(),
        };
        udfs.insert(f.name.to_ascii_lowercase(), udf);
    }
    Ok(udfs)
}

/// Merges per-segment relations by key columns, combining aggregate columns
/// per the merge spec.
fn merge_partials(partials: Vec<Relation>, spec: &[ColMerge]) -> Result<Relation, SqlError> {
    let cols = partials
        .iter()
        .find(|r| !r.cols.is_empty())
        .map(|r| r.cols.clone())
        .unwrap_or_default();
    let mut index: HashMap<Vec<u8>, usize> = HashMap::new();
    let mut rows: Vec<Vec<Value>> = Vec::new();
    for part in &partials {
        for row in &part.rows {
            if row.len() != spec.len() {
                return Err(SqlError::Plan(format!(
                    "merge spec covers {} columns but row has {}",
                    spec.len(),
                    row.len()
                )));
            }
            let key: Vec<Value> = row
                .iter()
                .zip(spec.iter())
                .filter(|(_, m)| **m == ColMerge::Key)
                .map(|(v, _)| v.clone())
                .collect();
            let kb = exec::row_key(&key);
            match index.get(&kb) {
                None => {
                    index.insert(kb, rows.len());
                    rows.push(row.clone());
                }
                Some(&slot) => {
                    let dst = &mut rows[slot];
                    for (i, m) in spec.iter().enumerate() {
                        match m {
                            ColMerge::Key => {}
                            ColMerge::Sum => {
                                dst[i] = nested_value::ops::arith(
                                    nested_value::ops::ArithOp::Add,
                                    &dst[i],
                                    &row[i],
                                )?;
                            }
                            ColMerge::Min | ColMerge::Max => {
                                let ord = nested_value::ops::compare(&row[i], &dst[i])?;
                                let take = if *m == ColMerge::Max {
                                    ord == std::cmp::Ordering::Greater
                                } else {
                                    ord == std::cmp::Ordering::Less
                                };
                                if take || dst[i].is_null() {
                                    dst[i] = row[i].clone();
                                }
                            }
                        }
                    }
                }
            }
        }
    }
    Ok(Relation { cols, rows })
}
