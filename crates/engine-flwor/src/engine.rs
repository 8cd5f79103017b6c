//! The public Rumble-like engine: register tables, execute modules.

use std::sync::Arc;
use std::time::Instant;

use nested_value::Value;
use nf2_columnar::{
    ChunkCache, ExecStats, FaultInjector, Projection, PushdownCapability, ScalarPredicate,
    ScanCache, ScanFaults, Schema, SelCmp, SelValue, Table,
};

use crate::ast::{Clause, CmpOp, Expr, Module};
use crate::error::FlworError;
use crate::interp::{Env, Interp, Seq, Source};
use crate::parser;

/// Execution options.
#[derive(Clone, Copy, Debug)]
pub struct FlworOptions {
    /// Worker threads (0 ⇒ all cores). Parallelism applies only to
    /// partitionable top-level FLWORs (see crate docs).
    pub n_threads: usize,
    /// Vectorized pre-filtering of scalar `where` conjuncts at scan time
    /// (late materialization). Purely an execution-speed knob: scan stats
    /// are defined by the projected columns (all of them, for Rumble), not
    /// by surviving rows, and the `where` clause still runs on survivors.
    pub vectorized_filter: bool,
    /// Zone-map row-group pruning: scalar `where` conjuncts extracted by
    /// the same analysis as `vectorized_filter` are also evaluated against
    /// per-chunk min/max statistics at scan time, skipping row groups that
    /// provably contain no matching events (billed as `bytes_pruned`, see
    /// [`nf2_columnar::ScanStats`]). Results are byte-identical either
    /// way; applies to interpreted and compiled execution alike.
    pub zone_map_pruning: bool,
    /// Compiled execution: modules recognized by [`crate::compile`] run
    /// as fused batch kernels over the shared physical IR instead of the
    /// tree-walking interpreter. Recognition is exact (canonical-template
    /// AST equality), so disabling this only costs speed; results are
    /// bit-identical either way.
    pub compile: bool,
    /// Morsel-driven intra-query parallelism for compiled execution:
    /// `> 1` runs compiled plans through `exec_par` with this many
    /// workers (row groups are the morsels); output is byte-identical at
    /// any value and scan accounting is unaffected. `0`/`1` keeps the
    /// serial compiled executor; ignored when `compile` is off or the
    /// module does not lower.
    pub parallel_workers: usize,
    /// Morsel-level fault recovery for compiled execution (default off):
    /// transient scan faults are retried per morsel, panicking morsels
    /// are quarantined and re-executed, dead workers' deques are
    /// reassigned and the pool degrades down to a serial fallback
    /// instead of failing the query (see `exec_par`). When active the
    /// fault injector is routed to the morsel fault surface instead of
    /// the scan pre-pass, keeping billing fault-free and byte-identical.
    /// Ignored when the module does not lower to the compiled path.
    pub morsel_recovery: bool,
}

impl Default for FlworOptions {
    fn default() -> Self {
        FlworOptions {
            n_threads: 0,
            vectorized_filter: true,
            zone_map_pruning: true,
            compile: true,
            parallel_workers: 0,
            morsel_recovery: false,
        }
    }
}

/// Result of executing a module.
#[derive(Clone, Debug)]
pub struct FlworOutput {
    /// The result sequence.
    pub items: Seq,
    /// Execution statistics.
    pub stats: ExecStats,
}

/// The JSONiq engine (Rumble analog).
pub struct FlworEngine {
    options: FlworOptions,
    tables: Vec<Arc<Table>>,
    chunk_cache: Option<Arc<ChunkCache>>,
    fault_injector: Option<Arc<FaultInjector>>,
    trace: obs::TraceCtx,
    cancel: obs::CancelToken,
}

struct TableSource<'a> {
    rows: &'a [Value],
    name: &'a str,
}

impl<'a> Source for TableSource<'a> {
    fn read(&self, name: &str) -> Result<Seq, FlworError> {
        if name == self.name {
            Ok(self.rows.to_vec())
        } else {
            Err(FlworError::Unresolved(format!("input {name}")))
        }
    }
}

impl FlworEngine {
    /// Creates an engine.
    pub fn new(options: FlworOptions) -> FlworEngine {
        FlworEngine {
            options,
            tables: Vec::new(),
            chunk_cache: None,
            fault_injector: None,
            trace: obs::TraceCtx::disabled(),
            cancel: obs::CancelToken::none(),
        }
    }

    /// Registers a table; `parquet-file("<name>")` resolves to it.
    pub fn register(&mut self, table: Arc<Table>) {
        self.tables.push(table);
    }

    /// Attaches a shared buffer pool in front of physical chunk reads
    /// (accounting-only; results and billing bytes are unchanged).
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

    /// Attaches a cooperative cancellation token, checked at row-group
    /// granularity: the scan and the per-group evaluation loops abort
    /// with [`FlworError::Cancelled`] once it trips. The default
    /// (disabled) token costs a single branch per group.
    pub fn set_cancel(&mut self, cancel: obs::CancelToken) {
        self.cancel = cancel;
    }

    fn table(&self, name: &str) -> Option<&Arc<Table>> {
        self.tables.iter().find(|t| t.name() == name)
    }

    /// Parses and executes a module.
    pub fn execute(&self, text: &str) -> Result<FlworOutput, FlworError> {
        let start = Instant::now();
        let parse_span = self.trace.span(obs::Stage::Parse);
        let module = parser::parse_module(text)?;
        parse_span.finish();

        let plan_span = self.trace.span(obs::Stage::Plan);
        // Which input does the module read?
        let input = find_input(&module);
        let Some(input_name) = input else {
            plan_span.finish();
            // Pure expression: no table access.
            let agg_span = self.trace.span(obs::Stage::Aggregate);
            let source = crate::interp::NoSource;
            let interp = Interp::new(&module, &source)?;
            let items = interp.eval_body(&module, &Env::new())?;
            agg_span.finish();
            return Ok(FlworOutput {
                items,
                stats: ExecStats {
                    wall_seconds: start.elapsed().as_secs_f64(),
                    cpu_seconds: start.elapsed().as_secs_f64(),
                    scan: Default::default(),
                    threads_used: 1,
                    row_groups_skipped: 0,
                    recovery: Default::default(),
                },
            });
        };
        let table = self
            .table(&input_name)
            .ok_or_else(|| FlworError::Unresolved(format!("input {input_name}")))?
            .clone();

        // Compiled path detection happens under the Plan span: modules
        // that are exact instances of the canonical template lower to a
        // fused-kernel physical plan; everything else interprets. Neither
        // detection nor compiled execution perturbs the scan accounting
        // below — scan stats are defined by the projected columns (all of
        // them, for Rumble), never by the execution strategy.
        let compiled = if self.options.compile {
            crate::compile::lower(&module)
        } else {
            None
        };

        // Scalar `where`-conjunct extraction feeds two independent
        // consumers: the vectorized pre-filter (interpreted path only —
        // compiled plans carry their own filters) and zone-map row-group
        // pruning (every path). Neither perturbs the per-row scan
        // accounting: scan stats are defined by the projected columns
        // (all of them, for Rumble), never by surviving rows; pruned
        // groups are billed separately as `bytes_pruned`.
        let want_filter = compiled.is_none() && self.options.vectorized_filter;
        let extracted = if want_filter || self.options.zone_map_pruning {
            prefilter_predicates(&module, table.schema())
        } else {
            Vec::new()
        };
        let preds: &[ScalarPredicate] = if want_filter { &extracted } else { &[] };
        let prune_preds: &[ScalarPredicate] = if self.options.zone_map_pruning {
            &extracted
        } else {
            &[]
        };

        let partitionable = compiled.is_none() && is_partitionable(&module);
        plan_span.finish();

        // Rumble pushes no projections: the scan reads every leaf column.
        let scan_cache = self.chunk_cache.as_deref().map(|cache| ScanCache {
            cache,
            table_fingerprint: table.fingerprint(),
        });
        // With morsel recovery active on the compiled path, the injector
        // moves to the morsel fault surface (exec_par probes the same
        // (fingerprint, group, leaf) coordinates per morsel) and the
        // billing pre-pass here stays fault-free, so ScanStats are
        // byte-identical under injected faults.
        let injector = self.fault_injector.as_deref();
        let mk_faults = || injector.map(|i| ScanFaults::new(i, &table));
        let faults_at_morsels = self.options.morsel_recovery && compiled.is_some();
        let scan_faults = if faults_at_morsels { None } else { mk_faults() };
        let projection = Projection::all();
        let run = nf2_columnar::ScanRequest::new(&table, &projection)
            .capability(PushdownCapability::None)
            .cache(scan_cache)
            .faults(scan_faults)
            .trace(&self.trace)
            .cancel(&self.cancel)
            .prune(prune_preds)
            .run()?;
        let scan = run.stats;
        let skip = run.skip.expect("prune() was supplied");
        let leaves: Vec<_> = table.schema().leaves().iter().collect();

        // Evaluates the module over materialized rows. Freeing the rows
        // is charged to the aggregate span: it is real work proportional
        // to the input.
        let eval_rows = |rows: Vec<Value>, agg_span: obs::SpanGuard| {
            let source = TableSource {
                rows: &rows,
                name: table.name(),
            };
            let out = Interp::new(&module, &source)?.eval_body(&module, &Env::new());
            drop(rows);
            agg_span.finish();
            out
        };
        let no_recovery = nf2_columnar::MorselRecovery::default();
        let (items, cpu_seconds, threads_used, recovery) = if let Some(plan) = &compiled {
            // Fused batch kernels over decoded column chunks: no row
            // materialization, no per-record interpretation (and hence no
            // simulated per-record overhead — the modeled JVM record cost
            // is exactly what compilation eliminates). The executor emits
            // one bin index per selected event, in event order — the same
            // sequence the interpreter produces for the template.
            let t0 = Instant::now();
            let (bins, workers, recovery) = exec_par::execute_compiled(
                plan,
                &table,
                &skip,
                &self.trace,
                &self.cancel,
                self.options.parallel_workers,
                self.options.morsel_recovery,
                mk_faults(),
            )?;
            let out: Seq = bins.into_iter().map(Value::Int).collect();
            (out, t0.elapsed().as_secs_f64(), workers, recovery)
        } else if partitionable {
            // Map-like FLWOR: evaluate the module per row group and
            // concatenate in group order, at any thread count — one
            // group of materialized rows is live per worker, never the
            // whole table.
            let out = exec_par::for_each_group_ordered(
                table.row_groups(),
                self.options.n_threads,
                &skip,
                &self.cancel,
                obs::Stage::Materialize,
                |g, group| -> Result<Seq, FlworError> {
                    let rows =
                        materialize_group(group, g, table.schema(), &leaves, preds, &self.trace)?;
                    let agg_span = self
                        .trace
                        .span_with(obs::Stage::Aggregate, || format!("group {g}"));
                    eval_rows(rows, agg_span)
                },
            )?;
            let items = out.partials.into_iter().flatten().collect();
            (items, out.cpu_seconds, out.threads_used, no_recovery)
        } else {
            // Everything else needs the whole table in one evaluation.
            let t0 = Instant::now();
            let mut rows = Vec::with_capacity(table.n_rows());
            let mut rows_done = 0u64;
            for (idx, g) in table.row_groups().iter().enumerate() {
                if skip[idx] {
                    continue;
                }
                self.cancel.check(obs::Stage::Materialize, rows_done)?;
                rows.extend(materialize_group(
                    g,
                    idx,
                    table.schema(),
                    &leaves,
                    preds,
                    &self.trace,
                )?);
                rows_done += g.n_rows() as u64;
            }
            let agg_span = self.trace.span(obs::Stage::Aggregate);
            let out = eval_rows(rows, agg_span)?;
            (out, t0.elapsed().as_secs_f64(), 1, no_recovery)
        };

        Ok(FlworOutput {
            items,
            stats: ExecStats {
                wall_seconds: start.elapsed().as_secs_f64(),
                cpu_seconds,
                threads_used,
                row_groups_skipped: scan.groups_pruned,
                scan,
                recovery,
            },
        })
    }
}

/// Reads a row group, applying the vectorized pre-filter when one exists
/// (late materialization: only surviving rows are assembled into `Value`s).
fn materialize_group(
    group: &nf2_columnar::RowGroup,
    group_idx: usize,
    schema: &Schema,
    leaves: &[&nf2_columnar::LeafInfo],
    preds: &[ScalarPredicate],
    trace: &obs::TraceCtx,
) -> Result<Vec<Value>, FlworError> {
    if preds.is_empty() {
        let mat_span = trace.span_with(obs::Stage::Materialize, || format!("group {group_idx}"));
        let rows = group.read_rows(schema, leaves)?;
        drop(mat_span);
        return Ok(rows);
    }
    let mut filter_span = trace.span_with(obs::Stage::Filter, || format!("group {group_idx}"));
    let sel = nf2_columnar::apply_predicates(group, preds)?;
    if filter_span.is_enabled() {
        filter_span.add_rows_in(sel.n_rows() as u64);
        filter_span.add_rows_out(sel.len() as u64);
    }
    filter_span.finish();
    let mat_span = trace.span_with(obs::Stage::Materialize, || format!("group {group_idx}"));
    let rows = if sel.is_full() {
        group.read_rows(schema, leaves)?
    } else {
        group.read_rows_selected(schema, leaves, &sel)?
    };
    drop(mat_span);
    Ok(rows)
}

/// Extracts scalar `where` conjuncts of the shape `$e.path cmp literal`
/// (or flipped) from the top-level FLWOR's leading clauses, where `$e` is
/// the variable bound by `for $e in parquet-file(…)`. Only `where`
/// clauses that directly follow the `for` are inspected (later clauses may
/// rebind variables or change tuple cardinality), and only non-repeated,
/// non-boolean leaves qualify — those are exactly the cases where the
/// interpreter's existential comparison degenerates to the same scalar
/// compare the kernels implement. Anything that does not fit is simply
/// left to the interpreter: the `where` clause still runs on survivors, so
/// a skipped conjunct costs speed, never correctness.
fn prefilter_predicates(module: &Module, schema: &Schema) -> Vec<ScalarPredicate> {
    let Expr::Flwor { clauses, .. } = &module.body else {
        return Vec::new();
    };
    let Some(Clause::For { var, at, source }) = clauses.first() else {
        return Vec::new();
    };
    if at.is_some() || !matches!(source, Expr::Call(n, _) if n == "parquet-file") {
        return Vec::new();
    }
    // The table rows are shared by every `parquet-file(…)` call in the
    // module; filtering is only sound when this `for` is the sole reader.
    let mut reads = 0usize;
    for f in &module.functions {
        walk(&f.body, &mut |e| {
            if matches!(e, Expr::Call(n, _) if n == "parquet-file") {
                reads += 1;
            }
        });
    }
    walk(&module.body, &mut |e| {
        if matches!(e, Expr::Call(n, _) if n == "parquet-file") {
            reads += 1;
        }
    });
    if reads != 1 {
        return Vec::new();
    }
    let mut out = Vec::new();
    for c in clauses.iter().skip(1) {
        match c {
            Clause::Where(p) => collect_scalar_conjuncts(p, var, schema, &mut out),
            _ => break,
        }
    }
    out
}

/// Splits `and`-chains and converts each qualifying conjunct.
fn collect_scalar_conjuncts(p: &Expr, var: &str, schema: &Schema, out: &mut Vec<ScalarPredicate>) {
    match p {
        Expr::And(a, b) => {
            collect_scalar_conjuncts(a, var, schema, out);
            collect_scalar_conjuncts(b, var, schema, out);
        }
        Expr::Cmp(a, op, b) => {
            let sides = [(a, b, false), (b, a, true)];
            for (path_side, lit_side, flipped) in sides {
                let Some(path) = member_path(path_side, var) else {
                    continue;
                };
                let Some(value) = literal_sel(lit_side) else {
                    continue;
                };
                let Some(leaf) = schema.leaf(&path) else {
                    continue;
                };
                if leaf.repeated || leaf.ptype == nf2_columnar::PhysicalType::Bool {
                    continue;
                }
                let cmp = match (op, flipped) {
                    (CmpOp::Lt, false) | (CmpOp::Gt, true) => SelCmp::Lt,
                    (CmpOp::Le, false) | (CmpOp::Ge, true) => SelCmp::Le,
                    (CmpOp::Gt, false) | (CmpOp::Lt, true) => SelCmp::Gt,
                    (CmpOp::Ge, false) | (CmpOp::Le, true) => SelCmp::Ge,
                    (CmpOp::Eq, _) => SelCmp::Eq,
                    (CmpOp::Ne, _) => SelCmp::Ne,
                };
                out.push(ScalarPredicate {
                    leaf: leaf.path.clone(),
                    cmp,
                    value,
                });
                break;
            }
        }
        _ => {}
    }
}

/// `$var.a.b.…` as a schema path (member access is case-sensitive in
/// JSONiq, so no canonicalization is needed).
fn member_path(e: &Expr, var: &str) -> Option<nested_value::Path> {
    let mut segs = Vec::new();
    let mut cur = e;
    loop {
        match cur {
            Expr::Member(inner, name) => {
                segs.push(name.as_str());
                cur = inner;
            }
            Expr::Var(v) if v == var => break,
            _ => return None,
        }
    }
    if segs.is_empty() {
        return None;
    }
    segs.reverse();
    Some(nested_value::Path::parse(&segs.join(".")))
}

/// Numeric literals (including unary minus) as predicate values.
fn literal_sel(e: &Expr) -> Option<SelValue> {
    match e {
        Expr::Int(i) => Some(SelValue::Int(*i)),
        Expr::Float(f) => Some(SelValue::Float(*f)),
        Expr::Neg(inner) => match &**inner {
            Expr::Int(i) => i.checked_neg().map(SelValue::Int),
            Expr::Float(f) => Some(SelValue::Float(-f)),
            _ => None,
        },
        _ => None,
    }
}

/// Finds the (single) `parquet-file("…")` input name, if any.
fn find_input(module: &Module) -> Option<String> {
    let mut found = None;
    for f in &module.functions {
        walk(&f.body, &mut |e| {
            if let Expr::Call(name, args) = e {
                if name == "parquet-file" {
                    if let Some(Expr::Str(s)) = args.first() {
                        found.get_or_insert(s.clone());
                    }
                }
            }
        });
    }
    walk(&module.body, &mut |e| {
        if let Expr::Call(name, args) = e {
            if name == "parquet-file" {
                if let Some(Expr::Str(s)) = args.first() {
                    found.get_or_insert(s.clone());
                }
            }
        }
    });
    found
}

/// True when the module's top-level expression is a FLWOR whose first
/// clause iterates `parquet-file(…)` and whose clause list is map-like
/// (no group/order/count), so per-partition evaluation + concatenation is
/// equivalent to serial evaluation.
fn is_partitionable(module: &Module) -> bool {
    let Expr::Flwor { clauses, ret } = &module.body else {
        return false;
    };
    let Some(Clause::For { source, .. }) = clauses.first() else {
        return false;
    };
    if !matches!(source, Expr::Call(name, _) if name == "parquet-file") {
        return false;
    }
    // No other parquet-file use and no order-sensitive clauses.
    let mut extra_reads = 0usize;
    for c in clauses.iter().skip(1) {
        match c {
            Clause::GroupBy(_) | Clause::OrderBy(_) | Clause::Count(_) => return false,
            Clause::For { source, .. } | Clause::Let { value: source, .. } => {
                walk(source, &mut |e| {
                    if matches!(e, Expr::Call(n, _) if n == "parquet-file") {
                        extra_reads += 1;
                    }
                });
            }
            Clause::Where(p) => {
                walk(p, &mut |e| {
                    if matches!(e, Expr::Call(n, _) if n == "parquet-file") {
                        extra_reads += 1;
                    }
                });
            }
        }
    }
    walk(ret, &mut |e| {
        if matches!(e, Expr::Call(n, _) if n == "parquet-file") {
            extra_reads += 1;
        }
    });
    extra_reads == 0
}

/// Pre-order expression walk.
pub(crate) fn walk(e: &Expr, f: &mut dyn FnMut(&Expr)) {
    f(e);
    match e {
        Expr::Sequence(items) => {
            for i in items {
                walk(i, f);
            }
        }
        Expr::Flwor { clauses, ret } => {
            for c in clauses {
                match c {
                    Clause::For { source, .. } => walk(source, f),
                    Clause::Let { value, .. } => walk(value, f),
                    Clause::Where(p) => walk(p, f),
                    Clause::GroupBy(keys) => {
                        for (_, ke) in keys {
                            if let Some(ke) = ke {
                                walk(ke, f);
                            }
                        }
                    }
                    Clause::OrderBy(keys) => {
                        for (ke, _) in keys {
                            walk(ke, f);
                        }
                    }
                    Clause::Count(_) => {}
                }
            }
            walk(ret, f);
        }
        Expr::If { cond, then, els } => {
            walk(cond, f);
            walk(then, f);
            walk(els, f);
        }
        Expr::Quantified {
            source, predicate, ..
        } => {
            walk(source, f);
            walk(predicate, f);
        }
        Expr::Or(a, b)
        | Expr::And(a, b)
        | Expr::Cmp(a, _, b)
        | Expr::Range(a, b)
        | Expr::Arith(a, _, b)
        | Expr::StrConcat(a, b)
        | Expr::ArrayAt(a, b)
        | Expr::Predicate(a, b) => {
            walk(a, f);
            walk(b, f);
        }
        Expr::Not(a) | Expr::Neg(a) | Expr::Member(a, _) | Expr::Unbox(a) => walk(a, f),
        Expr::ObjectCtor(pairs) => {
            for (k, v) in pairs {
                if let crate::ast::ObjectKey::Computed(ke) = k {
                    walk(ke, f);
                }
                walk(v, f);
            }
        }
        Expr::ArrayCtor(Some(inner)) => walk(inner, f),
        Expr::Call(_, args) => {
            for a in args {
                walk(a, f);
            }
        }
        _ => {}
    }
}

#[cfg(test)]
mod prefilter_tests {
    use super::*;

    fn preds(q: &str) -> Vec<ScalarPredicate> {
        let module = crate::parser::parse_module(q).unwrap();
        let (_, table) = hep_model::generator::build_dataset(hep_model::DatasetSpec {
            n_events: 8,
            row_group_size: 8,
            seed: 1,
        });
        prefilter_predicates(&module, table.schema())
    }

    #[test]
    fn extracts_leading_scalar_conjuncts() {
        let p = preds(
            "for $e in parquet-file(\"events\") \
             where $e.MET.pt > 25.0 and $e.MET.phi < 1 \
             return $e.MET.pt",
        );
        assert_eq!(p.len(), 2);
        assert_eq!(p[0].cmp, SelCmp::Gt);
        assert_eq!(p[0].value, SelValue::Float(25.0));
        assert_eq!(p[0].leaf.to_string(), "MET.pt");
        assert_eq!(p[1].cmp, SelCmp::Lt);
        assert_eq!(p[1].value, SelValue::Int(1));
    }

    #[test]
    fn flips_literal_on_left() {
        let p = preds(
            "for $e in parquet-file(\"events\") \
             where 25.0 le $e.MET.pt \
             return $e",
        );
        assert_eq!(p.len(), 1);
        assert_eq!(p[0].cmp, SelCmp::Ge);
    }

    #[test]
    fn skips_repeated_leaves_and_stops_at_non_where() {
        // Jet.pt is repeated: existential comparison, not a scalar one.
        assert!(preds(
            "for $e in parquet-file(\"events\") \
             where $e.Jet.pt > 5 return $e"
        )
        .is_empty());
        // A `let` may rebind; conjuncts after it are not hoisted.
        assert!(preds(
            "for $e in parquet-file(\"events\") \
             let $x := 1 where $e.MET.pt > 5 return $e"
        )
        .is_empty());
        // Positional variable: row identity matters downstream.
        assert!(preds(
            "for $e at $i in parquet-file(\"events\") \
             where $e.MET.pt > 5 return $i"
        )
        .is_empty());
    }
}
