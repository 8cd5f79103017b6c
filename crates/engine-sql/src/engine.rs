//! The public engine API: register tables, execute scripts, collect stats.

use std::collections::HashMap;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;

use exec_par::{Driver, ExecEnv, ExecOptions, TableScan};
use nested_value::Value;
use nf2_columnar::{ExecStats, Projection, Table};

use crate::ast::Script;
use crate::dialect::Dialect;
use crate::error::SqlError;
use crate::exec::{self, ExecContext, Relation, Scope, Udf};
use crate::parser;
use crate::plan::{self, ColMerge};

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
    options: ExecOptions,
    tables: HashMap<String, Arc<Table>>,
    env: ExecEnv,
}

impl SqlEngine {
    /// Creates an engine for a dialect.
    pub fn new(dialect: Dialect, options: ExecOptions) -> SqlEngine {
        SqlEngine {
            dialect,
            options,
            tables: HashMap::new(),
            env: ExecEnv::default(),
        }
    }

    /// Registers a base table under its own name.
    pub fn register(&mut self, table: Arc<Table>) {
        self.tables.insert(table.name().to_ascii_lowercase(), table);
    }

    /// Attaches the run environment: its fault injector,
    /// trace context and cancel token (a tripped token aborts with
    /// [`SqlError::Cancelled`] within one row group), and its overrides
    /// of the engine's options. The default environment attaches and
    /// overrides nothing.
    pub fn set_env(&mut self, env: ExecEnv) {
        self.env = env;
    }

    /// The engine's dialect.
    pub fn dialect(&self) -> Dialect {
        self.dialect
    }

    /// Parses, validates (against the dialect), and executes a script.
    pub fn execute(&self, sql: &str) -> Result<QueryOutput, SqlError> {
        let mut run = Driver::new(self.options, &self.env);
        let trace = &self.env.trace;
        let parse_span = trace.span_with(obs::Stage::Parse, || {
            format!("{} dialect", self.dialect.name.as_str())
        });
        let script = parser::parse_script(sql)?;
        self.dialect.validate(&script)?;
        parse_span.finish();

        let plan_span = trace.span(obs::Stage::Plan);
        // Static projection analysis → scan accounting per base table.
        let schemas: HashMap<String, &nf2_columnar::Schema> = self
            .tables
            .iter()
            .map(|(n, t)| (n.clone(), t.schema()))
            .collect();
        let projections = plan::collect_projections(&script, &schemas);
        // Top-level scalar WHERE conjuncts: zone-map pruning and the
        // vectorized row selection. The full WHERE still runs on every
        // materialized row.
        let preds = plan::filterable_predicates(&script, &schemas);

        let udfs = compile_udfs(&script)?;
        // Segment-parallel if the root is decomposable and exactly one base
        // table is referenced.
        let merge_spec = plan::root_merge_spec(&script);
        // Compiled path detection (under the Plan span): scripts that are
        // exact instances of the canonical template lower to a
        // fused-kernel physical plan; everything else interprets. The
        // scan accounting below is shared by both modes.
        let compiled = if run.options().compile {
            crate::compile::lower(&script)
        } else {
            None
        };
        plan_span.finish();

        let mut scans: HashMap<String, TableScan> = HashMap::new();
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
            let preds = preds.get(name).map_or(&[][..], Vec::as_slice);
            let scan = run.scan(table, &proj, self.dialect.pushdown, preds)?;
            scans.insert(name.clone(), scan);
        }

        // Compiled execution binds to the template's base table.
        let compiled_scan = compiled
            .as_ref()
            .and_then(|p| Some((p, scans.get("events")?)));
        let (relation, cpu_seconds, threads_used) = if let Some((cplan, scan)) = compiled_scan {
            let (bins, cpu_seconds, threads_used) = run.compiled(cplan, scan)?;
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
            (rel, cpu_seconds, threads_used)
        } else {
            match (&merge_spec, scans.iter().next()) {
                (Some(spec), Some((name, scan))) if scans.len() == 1 => {
                    self.run_partitioned(&run, &script, &udfs, name, scan, spec)?
                }
                _ => {
                    let t0 = Instant::now();
                    let mut relations = HashMap::new();
                    for (name, scan) in &scans {
                        relations.insert(name.clone(), Rc::new(run.read_rows(scan)?));
                    }
                    let agg_span = trace.span(obs::Stage::Aggregate);
                    let rel = self.eval(&script, &udfs, relations);
                    agg_span.finish();
                    (rel?, t0.elapsed().as_secs_f64(), 1)
                }
            }
        };

        Ok(QueryOutput {
            relation,
            stats: run.finish(cpu_seconds, threads_used),
        })
    }

    /// Evaluates the script's root query over materialized base tables.
    /// Dropping the context frees the rows: real work proportional to the
    /// input, charged to the caller's aggregate span.
    fn eval(
        &self,
        script: &Script,
        udfs: &HashMap<String, Udf>,
        relations: HashMap<String, Rc<Vec<Value>>>,
    ) -> Result<Relation, SqlError> {
        let ctx = ExecContext {
            relations,
            udfs: udfs.clone(),
            dialect: self.dialect,
        };
        exec::eval_query(&script.query, &ctx, &Scope::root())
    }

    /// Evaluates the query per row group of the one referenced table and
    /// merges the partial relations in group order: first-encounter order
    /// decides output row order for grouped results with no ORDER BY, so
    /// it must not depend on which worker finished first. Returns the
    /// merged relation, summed worker CPU seconds and threads used.
    fn run_partitioned(
        &self,
        run: &Driver,
        script: &Script,
        udfs: &HashMap<String, Udf>,
        name: &str,
        scan: &TableScan,
        spec: &[ColMerge],
    ) -> Result<(Relation, f64, usize), SqlError> {
        let out = run.eval_groups(scan, |rows| {
            self.eval(
                script,
                udfs,
                HashMap::from([(name.to_string(), Rc::new(rows))]),
            )
        })?;
        let merge_span = self
            .env
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
            exec::sort_relation(&mut merged, &script.query.order_by, &ctx, &Scope::root())?;
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
    let cols = partials.first().map(|r| r.cols.clone()).unwrap_or_default();
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
