//! Random query plans for differential fuzzing, with an interpreter
//! oracle.
//!
//! A [`FuzzPlan`] is a tiny declarative query over the CMS schema —
//! projections, a mix of filterable (scalar) and unfilterable
//! (nested-list) predicates, and a histogram spec — that **lowers to every
//! system under test**: the three SQL dialects (through their
//! characteristic idioms: BigQuery correlated `UNNEST` subqueries, Presto
//! full-column-list `CROSS JOIN UNNEST` + `FILTER` lambdas, Athena
//! whole-struct aliases), JSONiq, an `engine-rdf` dataframe chain, and
//! the shared physical IR ([`FuzzPlan::physical`]). Every lowering runs
//! on the one scan driver ([`exec_par::Driver`]): the text and dataframe
//! ones through their engines, the IR one through
//! [`FuzzPlan::run_compiled`], so every run is billed, pruned and faulted
//! alike. [`FuzzPlan::reference`] is the ground-truth interpreter over the
//! in-memory [`Event`]s — the same oracle role [`crate::reference`] plays
//! for Q1–Q8. Any divergence between an engine and the oracle is a bug by
//! construction: the float comparisons and the binning float path are
//! bit-identical across all lowerings (the generated literals round-trip
//! through [`crate::queries::flit`], and events are f32-quantized exactly
//! like the stored columns).
//!
//! The plan *generator* (seeded, deterministic) lives in the `chaos`
//! crate; this module owns the semantics so the oracle and the lowerings
//! cannot drift apart.

use std::sync::Arc;

use engine_rdf::{ColValue, RDataFrame};
use engine_sql::Dialect;
use exec_par::Driver;
use hep_model::{Event, Jet};
use nf2_columnar::{Projection, PushdownCapability, ScalarPredicate, SelCmp, SelValue, Table};
use physics::{HistSpec, Histogram};

use crate::adapters::{run_frontend, AdapterError, EngineRun, ExecEnv, ExecOptions, Frontend};
use crate::queries::{bq_binof_call, flit, jq_bin_call, jq_bin_fn, presto_hist_tail, Language};

/// A per-event scalar leaf (non-repeated) of the CMS schema.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ScalarLeaf {
    /// `MET.pt`
    MetPt,
    /// `MET.phi`
    MetPhi,
    /// `MET.sumet`
    MetSumet,
    /// `MET.significance`
    MetSignificance,
}

/// All scalar leaves the generator draws from.
pub const ALL_SCALAR_LEAVES: &[ScalarLeaf] = &[
    ScalarLeaf::MetPt,
    ScalarLeaf::MetPhi,
    ScalarLeaf::MetSumet,
    ScalarLeaf::MetSignificance,
];

impl ScalarLeaf {
    /// Dotted SQL path (`MET.pt`).
    pub fn sql(&self) -> &'static str {
        match self {
            ScalarLeaf::MetPt => "MET.pt",
            ScalarLeaf::MetPhi => "MET.phi",
            ScalarLeaf::MetSumet => "MET.sumet",
            ScalarLeaf::MetSignificance => "MET.significance",
        }
    }

    /// RDataFrame flat column name (`MET_pt`).
    pub fn rdf(&self) -> &'static str {
        match self {
            ScalarLeaf::MetPt => "MET_pt",
            ScalarLeaf::MetPhi => "MET_phi",
            ScalarLeaf::MetSumet => "MET_sumet",
            ScalarLeaf::MetSignificance => "MET_significance",
        }
    }

    /// Value on an in-memory event.
    pub fn get(&self, e: &Event) -> f64 {
        match self {
            ScalarLeaf::MetPt => e.met.pt,
            ScalarLeaf::MetPhi => e.met.phi,
            ScalarLeaf::MetSumet => e.met.sumet,
            ScalarLeaf::MetSignificance => e.met.significance,
        }
    }

    /// A plausible `(lo, hi)` value range (for literals and hist specs).
    pub fn range(&self) -> (f64, f64) {
        match self {
            ScalarLeaf::MetPt => (0.0, 120.0),
            ScalarLeaf::MetPhi => (-3.2, 3.2),
            ScalarLeaf::MetSumet => (100.0, 2200.0),
            ScalarLeaf::MetSignificance => (0.0, 12.0),
        }
    }
}

/// A numeric field of the repeated `Jet` list. Restricted to `Jet`
/// because Presto's `CROSS JOIN UNNEST` spells the full column list,
/// which this module knows for jets.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JetField {
    /// `Jet.pt`
    Pt,
    /// `Jet.eta`
    Eta,
    /// `Jet.phi`
    Phi,
    /// `Jet.mass`
    Mass,
    /// `Jet.btag`
    Btag,
}

/// All jet fields the generator draws from.
pub const ALL_JET_FIELDS: &[JetField] = &[
    JetField::Pt,
    JetField::Eta,
    JetField::Phi,
    JetField::Mass,
    JetField::Btag,
];

/// Presto's full `UNNEST(Jet)` column list (every leaf must be named).
pub const PRESTO_JET_COLS: &str = "(jpt, jeta, jphi, jmass, jbtag, jpuid)";

impl JetField {
    /// Struct member name (`pt`).
    pub fn member(&self) -> &'static str {
        match self {
            JetField::Pt => "pt",
            JetField::Eta => "eta",
            JetField::Phi => "phi",
            JetField::Mass => "mass",
            JetField::Btag => "btag",
        }
    }

    /// Presto unnested column alias (`jpt`).
    pub fn presto(&self) -> &'static str {
        match self {
            JetField::Pt => "jpt",
            JetField::Eta => "jeta",
            JetField::Phi => "jphi",
            JetField::Mass => "jmass",
            JetField::Btag => "jbtag",
        }
    }

    /// RDataFrame flat column name (`Jet_pt`).
    pub fn rdf(&self) -> &'static str {
        match self {
            JetField::Pt => "Jet_pt",
            JetField::Eta => "Jet_eta",
            JetField::Phi => "Jet_phi",
            JetField::Mass => "Jet_mass",
            JetField::Btag => "Jet_btag",
        }
    }

    /// Value on an in-memory jet.
    pub fn get(&self, j: &Jet) -> f64 {
        match self {
            JetField::Pt => j.pt,
            JetField::Eta => j.eta,
            JetField::Phi => j.phi,
            JetField::Mass => j.mass,
            JetField::Btag => j.btag,
        }
    }

    /// A plausible `(lo, hi)` value range.
    pub fn range(&self) -> (f64, f64) {
        match self {
            JetField::Pt => (15.0, 70.0),
            JetField::Eta => (-3.5, 3.5),
            JetField::Phi => (-3.2, 3.2),
            JetField::Mass => (0.0, 25.0),
            JetField::Btag => (0.0, 1.0),
        }
    }
}

/// Comparison operator (ordered comparisons only: equality on floats is
/// degenerate for fuzzing).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Cmp {
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

/// All comparison operators.
pub const ALL_CMPS: &[Cmp] = &[Cmp::Lt, Cmp::Le, Cmp::Gt, Cmp::Ge];

impl Cmp {
    /// SQL operator token.
    pub fn sql(&self) -> &'static str {
        match self {
            Cmp::Lt => "<",
            Cmp::Le => "<=",
            Cmp::Gt => ">",
            Cmp::Ge => ">=",
        }
    }

    /// JSONiq word-form operator.
    pub fn jsoniq(&self) -> &'static str {
        match self {
            Cmp::Lt => "lt",
            Cmp::Le => "le",
            Cmp::Gt => "gt",
            Cmp::Ge => "ge",
        }
    }

    /// Kernel-level comparison for `filter_scalar`.
    pub fn sel(&self) -> SelCmp {
        match self {
            Cmp::Lt => SelCmp::Lt,
            Cmp::Le => SelCmp::Le,
            Cmp::Gt => SelCmp::Gt,
            Cmp::Ge => SelCmp::Ge,
        }
    }

    /// Evaluates `a cmp b`.
    pub fn eval(&self, a: f64, b: f64) -> bool {
        match self {
            Cmp::Lt => a < b,
            Cmp::Le => a <= b,
            Cmp::Gt => a > b,
            Cmp::Ge => a >= b,
        }
    }
}

/// A filterable per-event predicate: `scalar_leaf cmp literal`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ScalarPred {
    /// The scalar leaf compared.
    pub leaf: ScalarLeaf,
    /// The comparison.
    pub cmp: Cmp,
    /// The literal (always emitted via [`flit`], so it round-trips).
    pub lit: f64,
}

impl ScalarPred {
    fn eval(&self, e: &Event) -> bool {
        self.cmp.eval(self.leaf.get(e), self.lit)
    }
}

/// A per-element predicate on jets: `jet_field cmp literal`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ElemPred {
    /// The jet field compared.
    pub field: JetField,
    /// The comparison.
    pub cmp: Cmp,
    /// The literal.
    pub lit: f64,
}

impl ElemPred {
    fn eval(&self, j: &Jet) -> bool {
        self.cmp.eval(self.field.get(j), self.lit)
    }
}

/// An unfilterable nested-list predicate: *count of jets passing
/// `elem` ≥ `min_count`* — the Q4 shape, which no scalar kernel can
/// pre-evaluate.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CountPred {
    /// Per-jet qualification.
    pub elem: ElemPred,
    /// Minimum number of qualifying jets.
    pub min_count: u32,
}

impl CountPred {
    fn eval(&self, e: &Event) -> bool {
        e.jets.iter().filter(|j| self.elem.eval(j)).count() as u32 >= self.min_count
    }
}

/// What the histogram is filled with.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FillSource {
    /// One fill per passing event, with a scalar leaf.
    Scalar(ScalarLeaf),
    /// One fill per (optionally element-filtered) jet of each passing
    /// event.
    Jets {
        /// The filled field.
        field: JetField,
        /// Optional per-element filter on the filled jets.
        elem_pred: Option<ElemPred>,
    },
}

/// One randomly generated query plan.
#[derive(Clone, Debug, PartialEq)]
pub struct FuzzPlan {
    /// Generator sequence number (for labels and replay).
    pub id: u64,
    /// What gets plotted.
    pub fill: FillSource,
    /// Filterable conjuncts (scalar leaf vs literal).
    pub scalar_preds: Vec<ScalarPred>,
    /// Optional unfilterable nested-list conjunct.
    pub count_pred: Option<CountPred>,
    /// The histogram binning.
    pub spec: HistSpec,
}

impl FuzzPlan {
    /// Short label for reports (`fuzz-17`).
    pub fn label(&self) -> String {
        format!("fuzz-{}", self.id)
    }

    // ---------------------------------------------------------------- oracle

    /// The interpreter oracle: ground truth over in-memory events.
    pub fn reference(&self, events: &[Event]) -> Histogram {
        let mut h = Histogram::new(self.spec);
        for e in events {
            if !self.scalar_preds.iter().all(|p| p.eval(e)) {
                continue;
            }
            if let Some(cp) = &self.count_pred {
                if !cp.eval(e) {
                    continue;
                }
            }
            match &self.fill {
                FillSource::Scalar(leaf) => h.fill(leaf.get(e)),
                FillSource::Jets { field, elem_pred } => {
                    for j in &e.jets {
                        if elem_pred.is_none_or(|p| p.eval(j)) {
                            h.fill(field.get(j));
                        }
                    }
                }
            }
        }
        h
    }

    // ------------------------------------------------------------- lowerings

    /// Lowers the plan to a SQL dialect or JSONiq.
    pub fn text(&self, lang: Language) -> String {
        match lang {
            Language::BigQuery => self.bigquery(),
            Language::Presto => self.presto_like(false),
            Language::Athena => self.presto_like(true),
            Language::Jsoniq => self.jsoniq(),
            Language::RDataFrame => format!("// engine-rdf chain {}", self.label()),
        }
    }

    /// BigQuery: correlated `UNNEST` subquery for the count predicate,
    /// comma-`UNNEST` for the list fill, inline CASE binning.
    fn bigquery(&self) -> String {
        let mut from = String::from("FROM events ev");
        let mut conj: Vec<String> = Vec::new();
        for p in &self.scalar_preds {
            conj.push(format!(
                "ev.{} {} {}",
                p.leaf.sql(),
                p.cmp.sql(),
                flit(p.lit)
            ));
        }
        if let Some(cp) = &self.count_pred {
            conj.push(format!(
                "(SELECT COUNT(*) FROM UNNEST(ev.Jet) jc WHERE jc.{} {} {}) >= {}",
                cp.elem.field.member(),
                cp.elem.cmp.sql(),
                flit(cp.elem.lit),
                cp.min_count
            ));
        }
        let value = match &self.fill {
            FillSource::Scalar(leaf) => format!("ev.{}", leaf.sql()),
            FillSource::Jets { field, elem_pred } => {
                from.push_str(", UNNEST(ev.Jet) AS j");
                if let Some(p) = elem_pred {
                    conj.push(format!(
                        "j.{} {} {}",
                        p.field.member(),
                        p.cmp.sql(),
                        flit(p.lit)
                    ));
                }
                format!("j.{}", field.member())
            }
        };
        let where_clause = if conj.is_empty() {
            String::new()
        } else {
            format!("WHERE {}\n", conj.join(" AND "))
        };
        format!(
            "SELECT {bin} AS bin, COUNT(*) AS n\n{from}\n{where_clause}GROUP BY bin",
            bin = bq_binof_call(&value, self.spec),
        )
    }

    /// Presto (`athena: false`) / Athena (`athena: true`): a `plotted(x)`
    /// CTE plus the shared two-level binning tail. Presto must spell the
    /// full UNNEST column list; Athena has whole-struct aliases.
    fn presto_like(&self, athena: bool) -> String {
        let mut from = String::from("FROM events");
        let mut conj: Vec<String> = Vec::new();
        for p in &self.scalar_preds {
            conj.push(format!("{} {} {}", p.leaf.sql(), p.cmp.sql(), flit(p.lit)));
        }
        if let Some(cp) = &self.count_pred {
            conj.push(format!(
                "CARDINALITY(FILTER(Jet, jf -> jf.{} {} {})) >= {}",
                cp.elem.field.member(),
                cp.elem.cmp.sql(),
                flit(cp.elem.lit),
                cp.min_count
            ));
        }
        let value = match &self.fill {
            FillSource::Scalar(leaf) => leaf.sql().to_string(),
            FillSource::Jets { field, elem_pred } => {
                if athena {
                    from.push_str(" CROSS JOIN UNNEST(Jet) AS j");
                } else {
                    from.push_str(&format!(
                        "\n\x20 CROSS JOIN UNNEST(Jet) AS j {PRESTO_JET_COLS}"
                    ));
                }
                if let Some(p) = elem_pred {
                    let col = if athena {
                        format!("j.{}", p.field.member())
                    } else {
                        p.field.presto().to_string()
                    };
                    conj.push(format!("{col} {} {}", p.cmp.sql(), flit(p.lit)));
                }
                if athena {
                    format!("j.{}", field.member())
                } else {
                    field.presto().to_string()
                }
            }
        };
        let where_clause = if conj.is_empty() {
            String::new()
        } else {
            format!("\n\x20 WHERE {}", conj.join(" AND "))
        };
        format!(
            "WITH plotted AS (\n\x20 SELECT {value} AS x {from}{where_clause})\n{tail}",
            tail = presto_hist_tail(self.spec),
        )
    }

    /// JSONiq: word-form comparisons, `$$` context-item member predicates,
    /// the shared `hep:bin` function.
    fn jsoniq(&self) -> String {
        let mut conj: Vec<String> = Vec::new();
        for p in &self.scalar_preds {
            conj.push(format!(
                "$e.{} {} {}",
                p.leaf.sql(),
                p.cmp.jsoniq(),
                flit(p.lit)
            ));
        }
        if let Some(cp) = &self.count_pred {
            conj.push(format!(
                "count($e.Jet[][$$.{} {} {}]) ge {}",
                cp.elem.field.member(),
                cp.elem.cmp.jsoniq(),
                flit(cp.elem.lit),
                cp.min_count
            ));
        }
        let where_clause = if conj.is_empty() {
            String::new()
        } else {
            format!("where {}\n", conj.join(" and "))
        };
        let ret = match &self.fill {
            FillSource::Scalar(leaf) => format!(
                "return {}",
                jq_bin_call(&format!("$e.{}", leaf.sql()), self.spec)
            ),
            FillSource::Jets { field, elem_pred } => {
                let seq = match elem_pred {
                    Some(p) => format!(
                        "$e.Jet[][$$.{} {} {}]",
                        p.field.member(),
                        p.cmp.jsoniq(),
                        flit(p.lit)
                    ),
                    None => "$e.Jet[]".to_string(),
                };
                format!(
                    "return for $j in {seq} return {}",
                    jq_bin_call(&format!("$j.{}", field.member()), self.spec)
                )
            }
        };
        format!(
            "{binfn}for $e in parquet-file(\"events\")\n{where_clause}{ret}",
            binfn = jq_bin_fn(),
        )
    }

    /// Lowers the plan to the shared physical IR. Unlike the engine-side
    /// recognizers (which must prove a parsed query matches a template),
    /// every fuzz plan lowers: the plan's node set is a subset of the
    /// IR's by construction, which makes this the differential oracle
    /// for the compiled executor itself.
    pub fn physical(&self) -> physical_ir::PhysPlan {
        use nested_value::Path;
        let jet_leaf = |f: JetField| Path::parse(&format!("Jet.{}", f.member()));
        let mut filters: Vec<physical_ir::FilterNode> = self
            .scalar_predicates()
            .into_iter()
            .map(physical_ir::FilterNode::Scalar)
            .collect();
        if let Some(cp) = &self.count_pred {
            filters.push(physical_ir::FilterNode::ListCount {
                leaf: jet_leaf(cp.elem.field),
                elem: Some(physical_ir::ElemPredicate {
                    leaf: jet_leaf(cp.elem.field),
                    cmp: cp.elem.cmp.sel(),
                    value: cp.elem.lit,
                }),
                cmp: SelCmp::Ge,
                count: cp.min_count as i64,
            });
        }
        let compute = match &self.fill {
            FillSource::Scalar(leaf) => physical_ir::ComputeNode::ScalarFill {
                leaf: Path::parse(leaf.sql()),
            },
            FillSource::Jets { field, elem_pred } => physical_ir::ComputeNode::ListFill {
                leaf: jet_leaf(*field),
                elem: elem_pred.map(|p| physical_ir::ElemPredicate {
                    leaf: jet_leaf(p.field),
                    cmp: p.cmp.sel(),
                    value: p.lit,
                }),
            },
        };
        physical_ir::PhysPlan {
            filters,
            compute,
            spec: self.spec,
        }
    }

    /// The scalar conjuncts as kernel predicates: the plan's scalar
    /// filters, and what its compiled run prunes and selects by.
    fn scalar_predicates(&self) -> Vec<ScalarPredicate> {
        self.scalar_preds
            .iter()
            .map(|p| ScalarPredicate {
                leaf: nested_value::Path::parse(p.leaf.sql()),
                cmp: p.cmp.sel(),
                value: SelValue::Float(p.lit),
            })
            .collect()
    }

    /// Lowers the plan to an `engine-rdf` dataframe chain over `table`.
    pub fn rdf(&self, table: Arc<Table>, options: ExecOptions) -> RDataFrame {
        let mut df = RDataFrame::new(table, options);
        for p in &self.scalar_preds {
            df = df.filter_scalar(p.leaf.rdf(), p.cmp.sel(), SelValue::Float(p.lit));
        }
        if let Some(cp) = self.count_pred {
            let col = cp.elem.field.rdf();
            df = df.filter(&[col], move |v| {
                v.arr(0)
                    .iter()
                    .filter(|&&x| cp.elem.cmp.eval(x, cp.elem.lit))
                    .count() as u32
                    >= cp.min_count
            });
        }
        match &self.fill {
            FillSource::Scalar(leaf) => df.histo1d(self.spec, leaf.rdf()).dataframe().clone(),
            FillSource::Jets { field, elem_pred } => match elem_pred {
                None => df.histo1d(self.spec, field.rdf()).dataframe().clone(),
                Some(p) => {
                    let p = *p;
                    let fill_col = field.rdf();
                    let pred_col = p.field.rdf();
                    df.define("fuzz_fill", &[fill_col, pred_col], move |v| {
                        let (fills, preds) = (v.arr(0), v.arr(1));
                        ColValue::Arr(
                            fills
                                .iter()
                                .zip(preds.iter())
                                .filter(|(_, &q)| p.cmp.eval(q, p.lit))
                                .map(|(&f, _)| f)
                                .collect(),
                        )
                    })
                    .histo1d(self.spec, "fuzz_fill")
                    .dataframe()
                    .clone()
                }
            },
        }
    }

    // ------------------------------------------------------------- execution

    /// Executes the plan on the SQL engine under a dialect, in an
    /// [`ExecEnv`] — the whole environment, as every deployment reads it.
    pub fn run_sql(
        &self,
        dialect: Dialect,
        table: &Arc<Table>,
        env: &ExecEnv,
    ) -> Result<EngineRun, AdapterError> {
        let lang = match dialect.name {
            engine_sql::DialectName::BigQuery => Language::BigQuery,
            engine_sql::DialectName::Presto => Language::Presto,
            engine_sql::DialectName::Athena => Language::Athena,
        };
        self.run(|| Frontend::Sql(dialect, self.text(lang)), lang, table, env)
    }

    /// Executes the plan on the JSONiq engine in an [`ExecEnv`].
    pub fn run_jsoniq(&self, table: &Arc<Table>, env: &ExecEnv) -> Result<EngineRun, AdapterError> {
        let frontend = || Frontend::Jsoniq(self.jsoniq());
        self.run(frontend, Language::Jsoniq, table, env)
    }

    /// Executes the plan on the RDataFrame engine in an [`ExecEnv`].
    pub fn run_rdf(&self, table: &Arc<Table>, env: &ExecEnv) -> Result<EngineRun, AdapterError> {
        let frontend = || Frontend::Rdf(Box::new(self.rdf(table.clone(), ExecOptions::default())));
        self.run(frontend, Language::RDataFrame, table, env)
    }

    /// Runs a lowering through the one run path, on default options.
    fn run(
        &self,
        frontend: impl FnOnce() -> Frontend,
        lang: Language,
        table: &Arc<Table>,
        env: &ExecEnv,
    ) -> Result<EngineRun, AdapterError> {
        let (options, label) = (ExecOptions::default(), self.label());
        let (system, spec) = (lang.name(), self.spec);
        run_frontend(frontend, table, options, env, spec, system, &label)
    }

    /// Executes the plan's [`FuzzPlan::physical`] lowering in an
    /// [`ExecEnv`] on the steps the engines' compiled paths take
    /// ([`exec_par::Driver`]): a scan of [`physical_ir::PhysPlan::columns`]
    /// pruned by the scalar filters and read through the environment's
    /// fault injector, trace and cancel token, then the
    /// compiled executor over the surviving row groups — serial, or on
    /// `env.parallel_workers` morsel workers.
    pub fn run_compiled(
        &self,
        table: &Arc<Table>,
        env: &ExecEnv,
    ) -> Result<EngineRun, AdapterError> {
        let err = |e: nf2_columnar::ColumnarError| {
            AdapterError::from_engine("Compiled", self.label(), &e)
        };
        let plan = self.physical();
        let preds = self.scalar_predicates();
        let projection = Projection::of(plan.columns().iter().map(|p| p.to_string()));
        let mut run = Driver::new(ExecOptions::default(), env);
        let capability = PushdownCapability::IndividualLeaves;
        let scan = run
            .scan(table, &projection, capability, &preds)
            .map_err(err)?;
        let (bins, cpu_seconds, threads_used) = run.compiled(&plan, &scan).map_err(err)?;
        let mut histogram = Histogram::new(self.spec);
        for b in bins {
            histogram.add_bin_count(b, 1);
        }
        Ok(EngineRun {
            histogram,
            stats: run.finish(cpu_seconds, threads_used),
            trace: Default::default(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hep_model::{generator::build_dataset, DatasetSpec};

    fn sample_plans() -> Vec<FuzzPlan> {
        vec![
            // Scalar fill, no predicates.
            FuzzPlan {
                id: 0,
                fill: FillSource::Scalar(ScalarLeaf::MetPt),
                scalar_preds: vec![],
                count_pred: None,
                spec: HistSpec::new(100, 0.0, 200.0),
            },
            // Scalar fill, scalar + count predicates (the Q4 family).
            FuzzPlan {
                id: 1,
                fill: FillSource::Scalar(ScalarLeaf::MetSumet),
                scalar_preds: vec![ScalarPred {
                    leaf: ScalarLeaf::MetPt,
                    cmp: Cmp::Gt,
                    lit: 20.0,
                }],
                count_pred: Some(CountPred {
                    elem: ElemPred {
                        field: JetField::Pt,
                        cmp: Cmp::Ge,
                        lit: 35.0,
                    },
                    min_count: 2,
                }),
                spec: HistSpec::new(50, 0.0, 2000.0),
            },
            // List fill with element predicate (the Q3 family).
            FuzzPlan {
                id: 2,
                fill: FillSource::Jets {
                    field: JetField::Pt,
                    elem_pred: Some(ElemPred {
                        field: JetField::Eta,
                        cmp: Cmp::Lt,
                        lit: 1.0,
                    }),
                },
                scalar_preds: vec![ScalarPred {
                    leaf: ScalarLeaf::MetPhi,
                    cmp: Cmp::Le,
                    lit: 2.5,
                }],
                count_pred: None,
                spec: HistSpec::new(20, 15.0, 60.0),
            },
        ]
    }

    #[test]
    fn lowerings_parse_and_validate() {
        for plan in sample_plans() {
            for (lang, dialect) in [
                (Language::BigQuery, Dialect::bigquery()),
                (Language::Presto, Dialect::presto()),
                (Language::Athena, Dialect::athena()),
            ] {
                let t = plan.text(lang);
                let script = engine_sql::parser::parse_script(&t)
                    .unwrap_or_else(|e| panic!("{:?} {}: {e}\n{t}", lang, plan.label()));
                dialect
                    .validate(&script)
                    .unwrap_or_else(|e| panic!("{:?} {}: {e}\n{t}", lang, plan.label()));
            }
            let jq = plan.jsoniq();
            engine_flwor::parser::parse_module(&jq)
                .unwrap_or_else(|e| panic!("jsoniq {}: {e}\n{jq}", plan.label()));
        }
    }

    #[test]
    fn all_engines_match_the_oracle_on_sample_plans() {
        let (events, table) = build_dataset(DatasetSpec {
            n_events: 600,
            row_group_size: 128,
            seed: 0xFACE,
        });
        let table = Arc::new(table);
        // The traced environment must reach the engines like every other
        // field of the env: each run records its scan spans into it.
        let traced = ExecEnv {
            trace: obs::TraceCtx::enabled(),
            ..ExecEnv::seed()
        };
        for env in [ExecEnv::seed(), traced] {
            for plan in sample_plans() {
                let oracle = plan.reference(&events);
                let check = |engine: &str, run: EngineRun| {
                    let h = run.histogram;
                    let label = plan.label();
                    assert!(h.counts_equal(&oracle), "{label} {engine} diverged");
                    if env.trace.is_enabled() {
                        let tree = env.trace.take_tree();
                        let stages: Vec<obs::Stage> =
                            tree.flatten().iter().map(|s| s.stage).collect();
                        assert!(
                            stages.contains(&obs::Stage::Scan),
                            "{label} {engine}: no scan span in the env's trace: {stages:?}"
                        );
                    }
                };
                for dialect in [Dialect::bigquery(), Dialect::presto(), Dialect::athena()] {
                    let name = format!("{:?}", dialect.name);
                    check(&name, plan.run_sql(dialect, &table, &env).unwrap());
                }
                check("jsoniq", plan.run_jsoniq(&table, &env).unwrap());
                check("rdf", plan.run_rdf(&table, &env).unwrap());
            }
        }
        let env = ExecEnv::seed();
        for plan in sample_plans() {
            let h = plan.run_compiled(&table, &env).unwrap().histogram;
            let label = plan.label();
            assert!(
                h.counts_equal(&plan.reference(&events)),
                "{label} compiled diverged"
            );
        }
    }
}
