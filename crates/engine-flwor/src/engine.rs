//! The public Rumble-like engine: register tables, execute modules.

use std::sync::Arc;
use std::time::Instant;

use exec_par::{Driver, ExecEnv, ExecOptions};
use nested_value::Value;
use nf2_columnar::{
    ExecStats, Projection, PushdownCapability, ScalarPredicate, Schema, SelCmp, SelValue, Table,
};

use crate::ast::{Clause, CmpOp, Expr, Module};
use crate::error::FlworError;
use crate::interp::{Env, Interp, Seq, Source};
use crate::parser;

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
    options: ExecOptions,
    tables: Vec<Arc<Table>>,
    env: ExecEnv,
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
    pub fn new(options: ExecOptions) -> FlworEngine {
        FlworEngine {
            options,
            tables: Vec::new(),
            env: ExecEnv::default(),
        }
    }

    /// Registers a table; `parquet-file("<name>")` resolves to it.
    pub fn register(&mut self, table: Arc<Table>) {
        self.tables.push(table);
    }

    /// Attaches the run environment: its fault injector,
    /// trace context and cancel token (a tripped token aborts with
    /// [`FlworError::Cancelled`] within one row group), and its overrides
    /// of the engine's options. The default environment attaches and
    /// overrides nothing.
    pub fn set_env(&mut self, env: ExecEnv) {
        self.env = env;
    }

    fn table(&self, name: &str) -> Option<&Arc<Table>> {
        self.tables.iter().find(|t| t.name() == name)
    }

    /// Parses and executes a module.
    pub fn execute(&self, text: &str) -> Result<FlworOutput, FlworError> {
        let mut run = Driver::new(self.options, &self.env);
        let trace = &self.env.trace;
        let parse_span = trace.span(obs::Stage::Parse);
        let module = parser::parse_module(text)?;
        parse_span.finish();

        let plan_span = trace.span(obs::Stage::Plan);
        // Which input does the module read?
        let input = find_input(&module);
        let Some(input_name) = input else {
            plan_span.finish();
            // Pure expression: no table access.
            let t0 = Instant::now();
            let agg_span = trace.span(obs::Stage::Aggregate);
            let source = crate::interp::NoSource;
            let interp = Interp::new(&module, &source)?;
            let items = interp.eval_body(&module, &Env::new())?;
            agg_span.finish();
            let cpu_seconds = t0.elapsed().as_secs_f64();
            return Ok(FlworOutput {
                items,
                stats: run.finish(cpu_seconds, 1),
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
        let compiled = if run.options().compile {
            crate::compile::lower(&module)
        } else {
            None
        };
        // Scalar `where` conjuncts: zone-map pruning on every path, and
        // the vectorized row selection on the interpreted ones (compiled
        // plans carry their own filters).
        let preds = prefilter_predicates(&module, table.schema());
        let partitionable = compiled.is_none() && is_partitionable(&module);
        plan_span.finish();

        // Rumble pushes no projections: the scan reads every leaf column.
        let scan = run.scan(&table, &Projection::all(), PushdownCapability::None, &preds)?;

        // Evaluates the module over materialized rows. Freeing the rows
        // is charged to the caller's aggregate span: it is real work
        // proportional to the input.
        let eval_rows = |rows: Vec<Value>| {
            let source = TableSource {
                rows: &rows,
                name: table.name(),
            };
            let out = Interp::new(&module, &source)?.eval_body(&module, &Env::new());
            out
        };
        let (items, cpu_seconds, threads_used) = if let Some(plan) = &compiled {
            // Fused batch kernels over decoded column chunks: no row
            // materialization, no per-record interpretation (and hence no
            // simulated per-record overhead — the modeled JVM record cost
            // is exactly what compilation eliminates). The executor emits
            // one bin index per selected event, in event order — the same
            // sequence the interpreter produces for the template.
            let (bins, cpu_seconds, threads_used) = run.compiled(plan, &scan)?;
            let out: Seq = bins.into_iter().map(Value::Int).collect();
            (out, cpu_seconds, threads_used)
        } else if partitionable {
            // Map-like FLWOR: evaluate the module per row group and
            // concatenate in group order, at any thread count — one
            // group of materialized rows is live per worker, never the
            // whole table.
            let out = run.eval_groups(&scan, eval_rows)?;
            let items = out.partials.into_iter().flatten().collect();
            (items, out.cpu_seconds, out.threads_used)
        } else {
            // Everything else needs the whole table in one evaluation.
            let t0 = Instant::now();
            let rows = run.read_rows(&scan)?;
            let agg_span = trace.span(obs::Stage::Aggregate);
            let out = eval_rows(rows);
            agg_span.finish();
            (out?, t0.elapsed().as_secs_f64(), 1)
        };

        Ok(FlworOutput {
            items,
            stats: run.finish(cpu_seconds, threads_used),
        })
    }
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
    walk_module(module, &mut |e| {
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
    walk_module(module, &mut |e| {
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

/// [`walk`] over every function body, then the module body.
fn walk_module(module: &Module, f: &mut dyn FnMut(&Expr)) {
    for func in &module.functions {
        walk(&func.body, f);
    }
    walk(&module.body, f);
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
