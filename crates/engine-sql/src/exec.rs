//! Tree-walking executor with lexical scopes.
//!
//! The executor interprets the validated AST directly against materialized
//! relations. Rows are [`Value`] structs; FROM clauses build *scopes*
//! (binding chains) so that lateral `UNNEST`, lambda parameters, and
//! correlated subqueries all resolve names the same way.

use std::collections::HashMap;
use std::rc::Rc;
use std::sync::Arc;

use nested_value::ops::{arith, compare, sql_eq, ArithOp};
use nested_value::{StructValue, Value};

use crate::ast::*;
use crate::dialect::Dialect;
use crate::error::SqlError;
use crate::functions;

/// A materialized relation: named columns and rows.
#[derive(Clone, Debug, PartialEq)]
pub struct Relation {
    /// Column names.
    pub cols: Vec<String>,
    /// Row values, one `Vec<Value>` per row, aligned with `cols`.
    pub rows: Vec<Vec<Value>>,
}

impl Relation {
    /// Rows as struct values (for binding as a FROM relation).
    pub fn to_structs(&self) -> Vec<Value> {
        // Field names are shared across rows: intern them once.
        let names: Vec<Arc<str>> = self.cols.iter().map(|c| Arc::from(c.as_str())).collect();
        self.rows
            .iter()
            .map(|r| {
                Value::Struct(Arc::new(StructValue::new(
                    names
                        .iter()
                        .zip(r.iter())
                        .map(|(c, v)| (c.clone(), v.clone()))
                        .collect(),
                )))
            })
            .collect()
    }
}

/// A compiled user-defined function.
#[derive(Clone, Debug)]
pub struct Udf {
    /// Parameter names.
    pub params: Vec<String>,
    /// Declared parameter types (for struct coercion).
    pub types: Vec<TypeName>,
    /// Body expression.
    pub body: Expr,
}

/// Execution context: tables/CTEs and UDFs.
pub struct ExecContext {
    /// Relations visible as FROM targets (base tables + materialized CTEs).
    pub relations: HashMap<String, Rc<Vec<Value>>>,
    /// UDFs by lowercase name.
    pub udfs: HashMap<String, Udf>,
    /// Active dialect (for alias-in-GROUP-BY behaviour).
    pub dialect: Dialect,
}

/// One name binding in a scope. The name is an `Rc<str>` so per-row scope
/// construction clones a pointer rather than reallocating the string.
#[derive(Clone, Debug)]
struct Binding {
    name: Rc<str>,
    value: Value,
    /// Struct fields addressable without qualification?
    open: bool,
}

/// Binding storage of a scope: owned for scopes that accumulate bindings
/// (root, lambda frames), borrowed for the per-row scopes the executor
/// builds in its hot loops — those wrap a `&[Binding]` that already lives
/// in the FROM product, and cloning it per row would dominate execution.
#[derive(Clone)]
enum Bindings<'a> {
    Owned(Vec<Binding>),
    Borrowed(&'a [Binding]),
}

impl Bindings<'_> {
    fn as_slice(&self) -> &[Binding] {
        match self {
            Bindings::Owned(v) => v,
            Bindings::Borrowed(s) => s,
        }
    }
}

/// A lexical scope: local bindings plus a parent chain (outer query scopes,
/// lambda frames).
#[derive(Clone)]
pub struct Scope<'a> {
    parent: Option<&'a Scope<'a>>,
    bindings: Bindings<'a>,
}

impl<'a> Scope<'a> {
    /// The empty root scope.
    pub fn root() -> Scope<'static> {
        Scope {
            parent: None,
            bindings: Bindings::Owned(Vec::new()),
        }
    }

    fn child(&'a self) -> Scope<'a> {
        Scope {
            parent: Some(self),
            bindings: Bindings::Owned(Vec::new()),
        }
    }

    fn bind(&mut self, name: &str, value: Value, open: bool) {
        let b = Binding {
            name: Rc::from(name),
            value,
            open,
        };
        match &mut self.bindings {
            Bindings::Owned(v) => v.push(b),
            Bindings::Borrowed(s) => {
                let mut v = s.to_vec();
                v.push(b);
                self.bindings = Bindings::Owned(v);
            }
        }
    }

    fn resolve(&self, parts: &[String]) -> Option<Value> {
        let bindings = self.bindings.as_slice();
        // Later bindings shadow earlier ones.
        for b in bindings.iter().rev() {
            if b.name.eq_ignore_ascii_case(&parts[0]) {
                return descend(&b.value, &parts[1..]);
            }
        }
        for b in bindings.iter().rev() {
            if b.open {
                if let Value::Struct(s) = &b.value {
                    if let Some(v) = struct_get_ci(s, &parts[0]) {
                        return descend(v, &parts[1..]);
                    }
                }
            }
        }
        self.parent.and_then(|p| p.resolve(parts))
    }
}

fn struct_get_ci<'v>(s: &'v StructValue, name: &str) -> Option<&'v Value> {
    s.iter()
        .find(|(n, _)| n.eq_ignore_ascii_case(name))
        .map(|(_, v)| v)
}

fn descend(v: &Value, rest: &[String]) -> Option<Value> {
    let mut cur = v;
    for part in rest {
        match cur {
            Value::Struct(s) => match struct_get_ci(s, part) {
                Some(next) => cur = next,
                None => return None,
            },
            _ => return None,
        }
    }
    Some(cur.clone())
}

/// Evaluates a query to a relation. `outer` is the enclosing row scope for
/// correlated subqueries (use [`Scope::root`] at top level).
pub fn eval_query(q: &Query, ctx: &ExecContext, outer: &Scope<'_>) -> Result<Relation, SqlError> {
    // Materialize CTEs in order; later CTEs and the body see earlier ones.
    if q.ctes.is_empty() {
        return eval_query_body(q, ctx, outer);
    }
    let mut scoped = ExecContext {
        relations: ctx.relations.clone(),
        udfs: ctx.udfs.clone(),
        dialect: ctx.dialect,
    };
    for (name, cte_q) in &q.ctes {
        let rel = eval_query(cte_q, &scoped, outer)?;
        scoped
            .relations
            .insert(name.to_ascii_lowercase(), Rc::new(rel.to_structs()));
    }
    eval_query_body(q, &scoped, outer)
}

fn eval_query_body(q: &Query, ctx: &ExecContext, outer: &Scope<'_>) -> Result<Relation, SqlError> {
    // ORDER BY keys are evaluated inside eval_select, where the FROM scope
    // is still visible (SQL permits sorting by non-projected columns).
    let mut rel = eval_select(&q.select, ctx, outer, &q.order_by)?;
    if let Some(n) = q.limit {
        rel.rows.truncate(n as usize);
    }
    Ok(rel)
}

pub(crate) fn sort_relation(
    rel: &mut Relation,
    order_by: &[OrderItem],
    ctx: &ExecContext,
    outer: &Scope<'_>,
) -> Result<(), SqlError> {
    // Evaluate keys once per row, then sort by them.
    let mut keyed: Vec<(Vec<Value>, Vec<Value>)> = Vec::with_capacity(rel.rows.len());
    for row in rel.rows.drain(..) {
        let mut scope = outer.child();
        let s = StructValue::new(
            rel.cols
                .iter()
                .zip(row.iter())
                .map(|(c, v)| (Arc::from(c.as_str()), v.clone()))
                .collect(),
        );
        scope.bind("$row", Value::Struct(Arc::new(s)), true);
        let mut keys = Vec::with_capacity(order_by.len());
        for item in order_by {
            keys.push(eval_expr(&item.expr, ctx, &scope)?);
        }
        keyed.push((keys, row));
    }
    let mut err = None;
    keyed.sort_by(|(ka, _), (kb, _)| {
        for (i, (a, b)) in ka.iter().zip(kb.iter()).enumerate() {
            match compare(a, b) {
                Ok(std::cmp::Ordering::Equal) => continue,
                Ok(ord) => {
                    return if order_by[i].desc { ord.reverse() } else { ord };
                }
                Err(e) => {
                    err = Some(e);
                    return std::cmp::Ordering::Equal;
                }
            }
        }
        std::cmp::Ordering::Equal
    });
    if let Some(e) = err {
        return Err(e.into());
    }
    rel.rows = keyed.into_iter().map(|(_, r)| r).collect();
    Ok(())
}

// ---------------------------------------------------------------- SELECT

fn eval_select(
    s: &Select,
    ctx: &ExecContext,
    outer: &Scope<'_>,
    order_by: &[OrderItem],
) -> Result<Relation, SqlError> {
    // 1. FROM → a list of scopes (ownership: each scope's bindings are
    // self-contained values, parented on `outer`).
    let mut scopes: Vec<Vec<Binding>> = vec![Vec::new()];
    for item in &s.from {
        scopes = join_from(scopes, item, ctx, outer)?;
    }

    // 2. WHERE.
    if let Some(pred) = &s.where_clause {
        let mut kept = Vec::with_capacity(scopes.len());
        for b in scopes {
            let scope = scope_of(outer, &b);
            if truthy(&eval_expr(pred, ctx, &scope)?) {
                kept.push(b);
            }
        }
        scopes = kept;
    }

    // 3. Aggregation?
    let has_aggs = s.items.iter().any(|it| match it {
        SelectItem::Expr { expr, .. } => contains_aggregate(expr),
        _ => false,
    }) || s.having.as_ref().is_some_and(contains_aggregate);

    let (mut rel, mut keys) = if !s.group_by.is_empty() || has_aggs {
        eval_aggregate(s, scopes, ctx, outer, order_by)?
    } else {
        let mut cols: Option<Vec<String>> = None;
        let mut names: Option<Vec<Arc<str>>> = None;
        let mut rows = Vec::with_capacity(scopes.len());
        let mut keys = Vec::new();
        for b in &scopes {
            let scope = scope_of(outer, b);
            let (c, r) = project(s, ctx, &scope, b, None, cols.is_none())?;
            if cols.is_none() {
                cols = Some(c);
            }
            if !order_by.is_empty() {
                let names =
                    names.get_or_insert_with(|| intern_names(cols.as_ref().expect("set above")));
                let mut aug = scope.child();
                aug.bind("$row", row_struct(names, &r), true);
                let mut k = Vec::with_capacity(order_by.len());
                for o in order_by {
                    k.push(eval_expr(&o.expr, ctx, &aug)?);
                }
                keys.push(k);
            }
            rows.push(r);
        }
        (
            Relation {
                cols: cols.unwrap_or_else(|| project_names(s)),
                rows,
            },
            keys,
        )
    };

    // 4. DISTINCT (keys kept in lockstep with surviving rows).
    if s.distinct {
        let mut seen = std::collections::HashSet::new();
        let mut kept_rows = Vec::new();
        let mut kept_keys = Vec::new();
        for (i, r) in rel.rows.drain(..).enumerate() {
            if seen.insert(row_key(&r)) {
                if !keys.is_empty() {
                    kept_keys.push(keys[i].clone());
                }
                kept_rows.push(r);
            }
        }
        rel.rows = kept_rows;
        keys = kept_keys;
    }

    // 5. ORDER BY.
    if !order_by.is_empty() {
        rel.rows = sort_rows_by_keys(rel.rows, keys, order_by)?;
    }
    Ok(rel)
}

/// Interns output-column names once so per-row structs share them.
fn intern_names(cols: &[String]) -> Vec<Arc<str>> {
    cols.iter().map(|c| Arc::from(c.as_str())).collect()
}

/// Builds an output-row struct for alias resolution in ORDER BY.
fn row_struct(cols: &[Arc<str>], row: &[Value]) -> Value {
    Value::Struct(Arc::new(StructValue::new(
        cols.iter().cloned().zip(row.iter().cloned()).collect(),
    )))
}

fn sort_rows_by_keys(
    rows: Vec<Vec<Value>>,
    keys: Vec<Vec<Value>>,
    order_by: &[OrderItem],
) -> Result<Vec<Vec<Value>>, SqlError> {
    debug_assert_eq!(rows.len(), keys.len());
    let mut keyed: Vec<(Vec<Value>, Vec<Value>)> = keys.into_iter().zip(rows).collect();
    let mut err = None;
    keyed.sort_by(|(ka, _), (kb, _)| {
        for (i, (a, b)) in ka.iter().zip(kb.iter()).enumerate() {
            match compare(a, b) {
                Ok(std::cmp::Ordering::Equal) => continue,
                Ok(ord) => {
                    return if order_by[i].desc { ord.reverse() } else { ord };
                }
                Err(e) => {
                    err = Some(e);
                    return std::cmp::Ordering::Equal;
                }
            }
        }
        std::cmp::Ordering::Equal
    });
    if let Some(e) = err {
        return Err(e.into());
    }
    Ok(keyed.into_iter().map(|(_, r)| r).collect())
}

fn scope_of<'a>(outer: &'a Scope<'a>, bindings: &'a [Binding]) -> Scope<'a> {
    Scope {
        parent: Some(outer),
        bindings: Bindings::Borrowed(bindings),
    }
}

fn join_from(
    scopes: Vec<Vec<Binding>>,
    item: &FromItem,
    ctx: &ExecContext,
    outer: &Scope<'_>,
) -> Result<Vec<Vec<Binding>>, SqlError> {
    match item {
        FromItem::Table { name, alias } => {
            let rel = ctx
                .relations
                .get(&name.to_ascii_lowercase())
                .ok_or_else(|| SqlError::Unresolved(format!("table {name}")))?
                .clone();
            let bind_name: Rc<str> = Rc::from(alias.as_deref().unwrap_or(name));
            let mut out = Vec::with_capacity(scopes.len() * rel.len());
            for b in &scopes {
                for row in rel.iter() {
                    let mut nb = b.clone();
                    nb.push(Binding {
                        name: bind_name.clone(),
                        value: row.clone(),
                        open: true,
                    });
                    out.push(nb);
                }
            }
            Ok(out)
        }
        FromItem::Subquery { query, alias } => {
            let rel = eval_query(query, ctx, outer)?;
            let rows = rel.to_structs();
            let bind_name: Rc<str> = Rc::from(alias.as_str());
            let mut out = Vec::with_capacity(scopes.len() * rows.len());
            for b in &scopes {
                for row in &rows {
                    let mut nb = b.clone();
                    nb.push(Binding {
                        name: bind_name.clone(),
                        value: row.clone(),
                        open: true,
                    });
                    out.push(nb);
                }
            }
            Ok(out)
        }
        FromItem::Unnest(u) => {
            let names = UnnestNames::of(u);
            let mut out = Vec::new();
            for b in scopes {
                let items = {
                    let scope = scope_of(outer, &b);
                    let arr = eval_expr(&u.expr, ctx, &scope)?;
                    match arr {
                        Value::Array(a) => a,
                        Value::Null => Arc::new(Vec::new()),
                        other => {
                            return Err(SqlError::Eval(format!(
                                "UNNEST expects an array, found {}",
                                other.type_name()
                            )))
                        }
                    }
                };
                for (i, element) in items.iter().enumerate() {
                    let mut nb = b.clone();
                    bind_unnest_element(u, &names, element, i, &mut nb)?;
                    out.push(nb);
                }
            }
            Ok(out)
        }
        FromItem::Join {
            left,
            right,
            kind,
            on,
        } => {
            let scopes = join_from(scopes, left, ctx, outer)?;
            let joined = join_from(scopes, right, ctx, outer)?;
            match kind {
                JoinKind::Cross => Ok(joined),
                JoinKind::Inner => {
                    let pred = on
                        .as_ref()
                        .ok_or_else(|| SqlError::Plan("INNER JOIN requires ON".into()))?;
                    let mut kept = Vec::new();
                    for b in joined {
                        let scope = scope_of(outer, &b);
                        if truthy(&eval_expr(pred, ctx, &scope)?) {
                            kept.push(b);
                        }
                    }
                    Ok(kept)
                }
            }
        }
    }
}

/// Binding names of an UNNEST clause, interned once per FROM evaluation so
/// the per-element loop clones pointers instead of strings.
struct UnnestNames {
    column_aliases: Vec<Rc<str>>,
    alias: Option<Rc<str>>,
    with_offset: Option<Rc<str>>,
}

impl UnnestNames {
    fn of(u: &Unnest) -> UnnestNames {
        UnnestNames {
            column_aliases: u
                .column_aliases
                .iter()
                .map(|a| Rc::from(a.as_str()))
                .collect(),
            alias: u.alias.as_deref().map(Rc::from),
            with_offset: u.with_offset.as_deref().map(Rc::from),
        }
    }
}

fn bind_unnest_element(
    u: &Unnest,
    names: &UnnestNames,
    element: &Value,
    index: usize,
    bindings: &mut Vec<Binding>,
) -> Result<(), SqlError> {
    if !u.column_aliases.is_empty() {
        // Presto column list: explode struct fields positionally; the last
        // alias names the ordinality column if requested.
        let n_data = if u.with_ordinality {
            u.column_aliases
                .len()
                .checked_sub(1)
                .ok_or_else(|| SqlError::Plan("ordinality needs a column alias".into()))?
        } else {
            u.column_aliases.len()
        };
        match element {
            Value::Struct(s) => {
                if s.len() != n_data {
                    return Err(SqlError::Plan(format!(
                        "UNNEST column list has {} names but struct has {} fields",
                        n_data,
                        s.len()
                    )));
                }
                for (i, alias) in names.column_aliases.iter().take(n_data).enumerate() {
                    bindings.push(Binding {
                        name: alias.clone(),
                        value: s.get_index(i).expect("checked").clone(),
                        open: false,
                    });
                }
            }
            scalar => {
                if n_data != 1 {
                    return Err(SqlError::Plan(
                        "UNNEST of scalars takes exactly one column alias".into(),
                    ));
                }
                bindings.push(Binding {
                    name: names.column_aliases[0].clone(),
                    value: scalar.clone(),
                    open: false,
                });
            }
        }
        if u.with_ordinality {
            bindings.push(Binding {
                name: names.column_aliases[n_data].clone(),
                value: Value::Int(index as i64 + 1),
                open: false,
            });
        }
    } else if let Some(alias) = &names.alias {
        if u.with_ordinality {
            return Err(SqlError::Plan(
                "WITH ORDINALITY requires a column alias list".into(),
            ));
        }
        bindings.push(Binding {
            name: alias.clone(),
            value: element.clone(),
            open: false,
        });
    } else {
        return Err(SqlError::Plan("UNNEST requires an alias".into()));
    }
    if let Some(off) = &names.with_offset {
        bindings.push(Binding {
            name: off.clone(),
            value: Value::Int(index as i64),
            open: false,
        });
    }
    Ok(())
}

// ---------------------------------------------------------------- projection

fn project_names(s: &Select) -> Vec<String> {
    let mut names = Vec::new();
    for (i, item) in s.items.iter().enumerate() {
        match item {
            SelectItem::Expr { expr, alias } => names.push(
                alias
                    .clone()
                    .or_else(|| implied_col_name(expr))
                    .unwrap_or_else(|| format!("_col{i}")),
            ),
            SelectItem::Wildcard | SelectItem::QualifiedWildcard(_) => {}
        }
    }
    names
}

fn implied_col_name(e: &Expr) -> Option<String> {
    match e {
        Expr::Name(parts) => parts.last().cloned(),
        Expr::Field(_, f) => Some(f.clone()),
        _ => None,
    }
}

/// Projects one scope into an output row. `agg` carries the group rows when
/// aggregating. Column names are identical for every row, so only the first
/// call per SELECT asks for them (`need_cols`); the per-row calls skip the
/// name building entirely.
fn project(
    s: &Select,
    ctx: &ExecContext,
    scope: &Scope<'_>,
    local_bindings: &[Binding],
    agg: Option<&AggGroup<'_>>,
    need_cols: bool,
) -> Result<(Vec<String>, Vec<Value>), SqlError> {
    let mut cols = Vec::new();
    let mut row = Vec::new();
    for (i, item) in s.items.iter().enumerate() {
        match item {
            SelectItem::Wildcard => {
                for b in local_bindings {
                    expand_binding(b, &mut cols, &mut row, need_cols);
                }
            }
            SelectItem::QualifiedWildcard(q) => {
                let b = local_bindings
                    .iter()
                    .rev()
                    .find(|b| b.name.eq_ignore_ascii_case(q))
                    .ok_or_else(|| SqlError::Unresolved(format!("relation {q}")))?;
                expand_binding(b, &mut cols, &mut row, need_cols);
            }
            SelectItem::Expr { expr, alias } => {
                let v = match agg {
                    Some(group) => eval_agg_expr(expr, ctx, group)?,
                    None => eval_expr(expr, ctx, scope)?,
                };
                if need_cols {
                    cols.push(
                        alias
                            .clone()
                            .or_else(|| implied_col_name(expr))
                            .unwrap_or_else(|| format!("_col{i}")),
                    );
                }
                row.push(v);
            }
        }
    }
    Ok((cols, row))
}

fn expand_binding(b: &Binding, cols: &mut Vec<String>, row: &mut Vec<Value>, need_cols: bool) {
    match &b.value {
        Value::Struct(s) if b.open => {
            for (n, v) in s.iter() {
                if need_cols {
                    cols.push(n.to_string());
                }
                row.push(v.clone());
            }
        }
        other => {
            if need_cols {
                cols.push(b.name.to_string());
            }
            row.push(other.clone());
        }
    }
}

// ---------------------------------------------------------------- grouping

struct AggGroup<'a> {
    /// Scopes (rows) belonging to this group.
    scopes: Vec<Scope<'a>>,
    /// Representative scope for non-aggregate expressions.
    first: &'a Scope<'a>,
}

fn eval_aggregate(
    s: &Select,
    scopes: Vec<Vec<Binding>>,
    ctx: &ExecContext,
    outer: &Scope<'_>,
    order_by: &[OrderItem],
) -> Result<(Relation, Vec<Vec<Value>>), SqlError> {
    // Resolve alias references in GROUP BY (BigQuery extension R2.4).
    let aliases: HashMap<String, &Expr> = s
        .items
        .iter()
        .filter_map(|it| match it {
            SelectItem::Expr {
                expr,
                alias: Some(a),
            } => Some((a.to_ascii_lowercase(), expr)),
            _ => None,
        })
        .collect();
    let group_exprs: Vec<&Expr> = s
        .group_by
        .iter()
        .map(|e| match e {
            Expr::Name(parts)
                if parts.len() == 1
                    && ctx.dialect.group_by_alias
                    && aliases.contains_key(&parts[0].to_ascii_lowercase()) =>
            {
                *aliases
                    .get(&parts[0].to_ascii_lowercase())
                    .expect("checked")
            }
            other => other,
        })
        .collect();

    // Group scopes by key.
    let mut groups: Vec<(Vec<Value>, Vec<Vec<Binding>>)> = Vec::new();
    let mut index: HashMap<Vec<u8>, usize> = HashMap::new();
    for b in scopes {
        let scope = scope_of(outer, &b);
        let mut key = Vec::with_capacity(group_exprs.len());
        for ge in &group_exprs {
            key.push(eval_expr(ge, ctx, &scope)?);
        }
        let kb = values_key(&key);
        let slot = *index.entry(kb).or_insert_with(|| {
            groups.push((key, Vec::new()));
            groups.len() - 1
        });
        groups[slot].1.push(b);
    }
    // Aggregates with no GROUP BY over empty input produce one empty group.
    if groups.is_empty() && s.group_by.is_empty() {
        groups.push((Vec::new(), Vec::new()));
    }

    let mut cols: Option<Vec<String>> = None;
    let mut names: Option<Vec<Arc<str>>> = None;
    let mut rows = Vec::with_capacity(groups.len());
    let mut keys = Vec::new();
    for (_, members) in &groups {
        let member_scopes: Vec<Scope<'_>> = members.iter().map(|b| scope_of(outer, b)).collect();
        let empty = outer.child();
        let first: &Scope<'_> = member_scopes.first().unwrap_or(&empty);
        let group = AggGroup {
            scopes: member_scopes.clone(),
            first,
        };
        if let Some(having) = &s.having {
            if !truthy(&eval_agg_expr(having, ctx, &group)?) {
                continue;
            }
        }
        let local = members.first().map(|b| b.as_slice()).unwrap_or(&[]);
        let (c, r) = project(s, ctx, first, local, Some(&group), cols.is_none())?;
        if cols.is_none() {
            cols = Some(c);
        }
        if !order_by.is_empty() {
            // Sort keys may reference output aliases or group aggregates.
            let names =
                names.get_or_insert_with(|| intern_names(cols.as_ref().expect("set above")));
            let mut aug = first.child();
            aug.bind("$row", row_struct(names, &r), true);
            let aug_group = AggGroup {
                scopes: member_scopes.clone(),
                first: &aug,
            };
            let mut k = Vec::with_capacity(order_by.len());
            for o in order_by {
                k.push(eval_agg_expr(&o.expr, ctx, &aug_group)?);
            }
            keys.push(k);
        }
        rows.push(r);
    }
    Ok((
        Relation {
            cols: cols.unwrap_or_else(|| project_names(s)),
            rows,
        },
        keys,
    ))
}

/// Evaluates an expression in aggregate context: aggregate calls compute
/// over the group; everything else evaluates against the group's first row.
fn eval_agg_expr(e: &Expr, ctx: &ExecContext, group: &AggGroup<'_>) -> Result<Value, SqlError> {
    match e {
        Expr::CountStar => Ok(Value::Int(group.scopes.len() as i64)),
        Expr::Call {
            name,
            args,
            distinct,
            order_by,
            limit,
        } if is_aggregate_name(name) => {
            eval_aggregate_call(name, args, *distinct, order_by, *limit, ctx, group)
        }
        Expr::Binary(a, op, b) => {
            let va = eval_agg_expr(a, ctx, group)?;
            let vb_lazy = || eval_agg_expr(b, ctx, group);
            eval_binary(*op, va, vb_lazy)
        }
        Expr::Unary(op, a) => {
            let v = eval_agg_expr(a, ctx, group)?;
            match op {
                UnaryOp::Neg => Ok(nested_value::ops::neg(&v)?),
                UnaryOp::Not => match v {
                    Value::Null => Ok(Value::Null),
                    Value::Bool(b) => Ok(Value::Bool(!b)),
                    other => Err(SqlError::Eval(format!(
                        "NOT expects boolean, found {}",
                        other.type_name()
                    ))),
                },
            }
        }
        Expr::Cast(inner, t) => {
            let v = eval_agg_expr(inner, ctx, group)?;
            cast_value(&v, t)
        }
        Expr::Case { whens, else_ } => {
            for (c, r) in whens {
                if truthy(&eval_agg_expr(c, ctx, group)?) {
                    return eval_agg_expr(r, ctx, group);
                }
            }
            match else_ {
                Some(r) => eval_agg_expr(r, ctx, group),
                None => Ok(Value::Null),
            }
        }
        Expr::Call { name, args, .. } => {
            // Scalar function over aggregate results.
            let mut vals = Vec::with_capacity(args.len());
            for a in args {
                vals.push(eval_agg_expr(a, ctx, group)?);
            }
            if let Some(r) = functions::eval_builtin(name, &vals) {
                return r;
            }
            call_udf(name, &vals, ctx, group.first)
        }
        // Pure (non-aggregate) expression: evaluate on the first row.
        other => eval_expr(other, ctx, group.first),
    }
}

fn is_aggregate_name(name: &str) -> bool {
    functions::with_lower(name, |lower| {
        matches!(
            lower,
            "count"
                | "sum"
                | "avg"
                | "min"
                | "max"
                | "min_by"
                | "max_by"
                | "array_agg"
                | "any_value"
        )
    })
}

pub(crate) fn contains_aggregate(e: &Expr) -> bool {
    let mut found = false;
    e.walk(&mut |n| match n {
        Expr::CountStar => found = true,
        Expr::Call { name, .. } if is_aggregate_name(name) => found = true,
        _ => {}
    });
    found
}

fn eval_aggregate_call(
    name: &str,
    args: &[Expr],
    distinct: bool,
    order_by: &[OrderItem],
    limit: Option<u64>,
    ctx: &ExecContext,
    group: &AggGroup<'_>,
) -> Result<Value, SqlError> {
    let lower = name.to_ascii_lowercase();
    let eval_per_row = |expr: &Expr| -> Result<Vec<Value>, SqlError> {
        group
            .scopes
            .iter()
            .map(|sc| eval_expr(expr, ctx, sc))
            .collect()
    };
    match lower.as_str() {
        "count" => {
            let vals = eval_per_row(&args[0])?;
            let mut non_null: Vec<&Value> = vals.iter().filter(|v| !v.is_null()).collect();
            if distinct {
                let mut seen = std::collections::HashSet::new();
                non_null.retain(|v| seen.insert(value_key(v)));
            }
            Ok(Value::Int(non_null.len() as i64))
        }
        "sum" | "avg" => {
            let vals = eval_per_row(&args[0])?;
            let nums: Vec<f64> = vals
                .iter()
                .filter(|v| !v.is_null())
                .map(|v| v.as_f64())
                .collect::<Result<_, _>>()?;
            if nums.is_empty() {
                return Ok(Value::Null);
            }
            let total: f64 = nums.iter().sum();
            if lower == "avg" {
                Ok(Value::Float(total / nums.len() as f64))
            } else if vals
                .iter()
                .all(|v| matches!(v, Value::Int(_) | Value::Null))
            {
                Ok(Value::Int(total as i64))
            } else {
                Ok(Value::Float(total))
            }
        }
        "min" | "max" => {
            let vals = eval_per_row(&args[0])?;
            let mut best: Option<Value> = None;
            for v in vals.into_iter().filter(|v| !v.is_null()) {
                best = Some(match best {
                    None => v,
                    Some(b) => {
                        let ord = compare(&v, &b)?;
                        let take = if lower == "max" {
                            ord == std::cmp::Ordering::Greater
                        } else {
                            ord == std::cmp::Ordering::Less
                        };
                        if take {
                            v
                        } else {
                            b
                        }
                    }
                });
            }
            Ok(best.unwrap_or(Value::Null))
        }
        "min_by" | "max_by" => {
            if args.len() != 2 {
                return Err(SqlError::Eval(format!("{lower} expects 2 arguments")));
            }
            let vals = eval_per_row(&args[0])?;
            let keys = eval_per_row(&args[1])?;
            let mut best: Option<(Value, Value)> = None;
            for (v, k) in vals.into_iter().zip(keys) {
                if k.is_null() {
                    continue;
                }
                best = Some(match best {
                    None => (v, k),
                    Some((bv, bk)) => {
                        let ord = compare(&k, &bk)?;
                        let take = if lower == "max_by" {
                            ord == std::cmp::Ordering::Greater
                        } else {
                            ord == std::cmp::Ordering::Less
                        };
                        if take {
                            (v, k)
                        } else {
                            (bv, bk)
                        }
                    }
                });
            }
            Ok(best.map(|(v, _)| v).unwrap_or(Value::Null))
        }
        "array_agg" => {
            let mut pairs: Vec<(Vec<Value>, Value)> = Vec::new();
            for sc in &group.scopes {
                let v = eval_expr(&args[0], ctx, sc)?;
                let mut keys = Vec::with_capacity(order_by.len());
                for o in order_by {
                    keys.push(eval_expr(&o.expr, ctx, sc)?);
                }
                pairs.push((keys, v));
            }
            if !order_by.is_empty() {
                let mut err = None;
                pairs.sort_by(|(ka, _), (kb, _)| {
                    for (i, (a, b)) in ka.iter().zip(kb.iter()).enumerate() {
                        match compare(a, b) {
                            Ok(std::cmp::Ordering::Equal) => continue,
                            Ok(ord) => return if order_by[i].desc { ord.reverse() } else { ord },
                            Err(e) => {
                                err = Some(e);
                                return std::cmp::Ordering::Equal;
                            }
                        }
                    }
                    std::cmp::Ordering::Equal
                });
                if let Some(e) = err {
                    return Err(e.into());
                }
            }
            let mut items: Vec<Value> = pairs.into_iter().map(|(_, v)| v).collect();
            if distinct {
                let mut seen = std::collections::HashSet::new();
                items.retain(|v| seen.insert(value_key(v)));
            }
            if let Some(n) = limit {
                items.truncate(n as usize);
            }
            Ok(Value::array(items))
        }
        "any_value" => {
            let vals = eval_per_row(&args[0])?;
            Ok(vals
                .into_iter()
                .find(|v| !v.is_null())
                .unwrap_or(Value::Null))
        }
        other => Err(SqlError::Eval(format!("unknown aggregate {other}"))),
    }
}

// ---------------------------------------------------------------- expressions

/// True when the value counts as a satisfied predicate.
pub fn truthy(v: &Value) -> bool {
    matches!(v, Value::Bool(true))
}

fn eval_binary(
    op: BinaryOp,
    a: Value,
    b: impl FnOnce() -> Result<Value, SqlError>,
) -> Result<Value, SqlError> {
    use BinaryOp::*;
    match op {
        And => match a {
            Value::Bool(false) => Ok(Value::Bool(false)),
            Value::Bool(true) => b(),
            Value::Null => {
                // NULL AND false = false, else NULL.
                match b()? {
                    Value::Bool(false) => Ok(Value::Bool(false)),
                    _ => Ok(Value::Null),
                }
            }
            other => Err(SqlError::Eval(format!(
                "AND expects booleans, found {}",
                other.type_name()
            ))),
        },
        Or => match a {
            Value::Bool(true) => Ok(Value::Bool(true)),
            Value::Bool(false) => b(),
            Value::Null => match b()? {
                Value::Bool(true) => Ok(Value::Bool(true)),
                _ => Ok(Value::Null),
            },
            other => Err(SqlError::Eval(format!(
                "OR expects booleans, found {}",
                other.type_name()
            ))),
        },
        Add => Ok(arith(ArithOp::Add, &a, &b()?)?),
        Sub => Ok(arith(ArithOp::Sub, &a, &b()?)?),
        Mul => Ok(arith(ArithOp::Mul, &a, &b()?)?),
        Div => {
            let b = b()?;
            // SQL float division when either side is float; integer division
            // for int/int (Presto semantics; BigQuery's queries in this repo
            // always cast).
            Ok(arith(ArithOp::Div, &a, &b)?)
        }
        Mod => Ok(arith(ArithOp::Mod, &a, &b()?)?),
        Eq | Neq | Lt | Lte | Gt | Gte => {
            let b = b()?;
            if a.is_null() || b.is_null() {
                return Ok(Value::Null);
            }
            let ord = compare(&a, &b)?;
            let result = match op {
                Eq => ord == std::cmp::Ordering::Equal,
                Neq => ord != std::cmp::Ordering::Equal,
                Lt => ord == std::cmp::Ordering::Less,
                Lte => ord != std::cmp::Ordering::Greater,
                Gt => ord == std::cmp::Ordering::Greater,
                Gte => ord != std::cmp::Ordering::Less,
                _ => unreachable!(),
            };
            Ok(Value::Bool(result))
        }
        Concat => {
            let b = b()?;
            match (&a, &b) {
                (Value::Str(x), Value::Str(y)) => Ok(Value::str(format!("{x}{y}"))),
                (Value::Array(x), Value::Array(y)) => {
                    let mut out = x.as_ref().clone();
                    out.extend(y.iter().cloned());
                    Ok(Value::array(out))
                }
                _ => Err(SqlError::Eval(format!(
                    "|| expects strings or arrays, found {} and {}",
                    a.type_name(),
                    b.type_name()
                ))),
            }
        }
    }
}

/// Evaluates a scalar expression in a scope.
pub fn eval_expr(e: &Expr, ctx: &ExecContext, scope: &Scope<'_>) -> Result<Value, SqlError> {
    match e {
        Expr::Null => Ok(Value::Null),
        Expr::Bool(b) => Ok(Value::Bool(*b)),
        Expr::Int(i) => Ok(Value::Int(*i)),
        Expr::Float(f) => Ok(Value::Float(*f)),
        Expr::Str(s) => Ok(Value::str(s.as_str())),
        Expr::Name(parts) => scope
            .resolve(parts)
            .ok_or_else(|| SqlError::Unresolved(parts.join("."))),
        Expr::Field(base, f) => {
            let v = eval_expr(base, ctx, scope)?;
            match &v {
                Value::Struct(s) => struct_get_ci(s, f)
                    .cloned()
                    .ok_or_else(|| SqlError::Eval(format!("no field {f}"))),
                Value::Null => Ok(Value::Null),
                other => Err(SqlError::Eval(format!(
                    "field access on {}",
                    other.type_name()
                ))),
            }
        }
        Expr::Index(base, idx) => {
            let v = eval_expr(base, ctx, scope)?;
            let i = eval_expr(idx, ctx, scope)?.as_i64()?;
            match &v {
                // Presto: arrays are 1-based.
                Value::Array(a) => a
                    .get((i - 1).max(0) as usize)
                    .cloned()
                    .ok_or(nested_value::ValueError::IndexOutOfBounds {
                        index: i,
                        len: a.len(),
                    })
                    .map_err(Into::into),
                // Positional access into anonymous rows.
                Value::Struct(s) => s
                    .get_index((i - 1).max(0) as usize)
                    .cloned()
                    .ok_or_else(|| SqlError::Eval(format!("row index {i} out of range"))),
                Value::Null => Ok(Value::Null),
                other => Err(SqlError::Eval(format!(
                    "indexing into {}",
                    other.type_name()
                ))),
            }
        }
        Expr::OffsetIndex(base, idx) => {
            let v = eval_expr(base, ctx, scope)?;
            let i = eval_expr(idx, ctx, scope)?.as_i64()?;
            match &v {
                Value::Array(a) => a
                    .get(i.max(0) as usize)
                    .cloned()
                    .ok_or(nested_value::ValueError::IndexOutOfBounds {
                        index: i,
                        len: a.len(),
                    })
                    .map_err(Into::into),
                Value::Null => Ok(Value::Null),
                other => Err(SqlError::Eval(format!(
                    "OFFSET indexing into {}",
                    other.type_name()
                ))),
            }
        }
        Expr::Unary(op, inner) => {
            let v = eval_expr(inner, ctx, scope)?;
            match op {
                UnaryOp::Neg => Ok(nested_value::ops::neg(&v)?),
                UnaryOp::Not => match v {
                    Value::Null => Ok(Value::Null),
                    Value::Bool(b) => Ok(Value::Bool(!b)),
                    other => Err(SqlError::Eval(format!(
                        "NOT expects boolean, found {}",
                        other.type_name()
                    ))),
                },
            }
        }
        Expr::Binary(a, op, b) => {
            let va = eval_expr(a, ctx, scope)?;
            eval_binary(*op, va, || eval_expr(b, ctx, scope))
        }
        Expr::Between {
            expr,
            lo,
            hi,
            negated,
        } => {
            let v = eval_expr(expr, ctx, scope)?;
            let lo = eval_expr(lo, ctx, scope)?;
            let hi = eval_expr(hi, ctx, scope)?;
            if v.is_null() || lo.is_null() || hi.is_null() {
                return Ok(Value::Null);
            }
            let within = compare(&v, &lo)? != std::cmp::Ordering::Less
                && compare(&v, &hi)? != std::cmp::Ordering::Greater;
            Ok(Value::Bool(within != *negated))
        }
        Expr::InList {
            expr,
            list,
            negated,
        } => {
            let v = eval_expr(expr, ctx, scope)?;
            let mut saw_null = false;
            for item in list {
                let w = eval_expr(item, ctx, scope)?;
                match sql_eq(&v, &w)? {
                    Some(true) => return Ok(Value::Bool(!negated)),
                    Some(false) => {}
                    None => saw_null = true,
                }
            }
            if saw_null {
                Ok(Value::Null)
            } else {
                Ok(Value::Bool(*negated))
            }
        }
        Expr::IsNull(inner, negated) => {
            let v = eval_expr(inner, ctx, scope)?;
            Ok(Value::Bool(v.is_null() != *negated))
        }
        Expr::Case { whens, else_ } => {
            for (c, r) in whens {
                if truthy(&eval_expr(c, ctx, scope)?) {
                    return eval_expr(r, ctx, scope);
                }
            }
            match else_ {
                Some(r) => eval_expr(r, ctx, scope),
                None => Ok(Value::Null),
            }
        }
        Expr::Cast(inner, t) => {
            let v = eval_expr(inner, ctx, scope)?;
            cast_value(&v, t)
        }
        Expr::CountStar => Err(SqlError::Plan("COUNT(*) outside aggregation".into())),
        Expr::Lambda(..) => Err(SqlError::Plan(
            "lambda outside an array-function argument".into(),
        )),
        Expr::RowCtor(items) => {
            let mut fields = Vec::with_capacity(items.len());
            for (i, item) in items.iter().enumerate() {
                fields.push((
                    Arc::from(format!("${}", i + 1).as_str()),
                    eval_expr(item, ctx, scope)?,
                ));
            }
            Ok(Value::Struct(Arc::new(StructValue::new(fields))))
        }
        Expr::StructCtor { fields, declared } => {
            let mut out = Vec::with_capacity(fields.len());
            for (i, (name, fe)) in fields.iter().enumerate() {
                let v = eval_expr(fe, ctx, scope)?;
                let (fname, fv) = match declared {
                    Some(decls) => {
                        let (dname, dtype) = &decls[i];
                        (dname.clone(), cast_value(&v, dtype)?)
                    }
                    None => (name.clone().unwrap_or_else(|| format!("${}", i + 1)), v),
                };
                out.push((Arc::from(fname.as_str()), fv));
            }
            Ok(Value::Struct(Arc::new(StructValue::new(out))))
        }
        Expr::ArrayCtor(items) => {
            let mut out = Vec::with_capacity(items.len());
            for item in items {
                out.push(eval_expr(item, ctx, scope)?);
            }
            Ok(Value::array(out))
        }
        Expr::Subquery(q) => {
            let rel = eval_query(q, ctx, scope)?;
            match rel.rows.len() {
                0 => Ok(Value::Null),
                1 => row_scalar(&rel, 0),
                n => Err(SqlError::Eval(format!("scalar subquery returned {n} rows"))),
            }
        }
        Expr::Exists(q) => {
            let rel = eval_query(q, ctx, scope)?;
            Ok(Value::Bool(!rel.rows.is_empty()))
        }
        Expr::ArraySubquery(q) => {
            let rel = eval_query(q, ctx, scope)?;
            let mut out = Vec::with_capacity(rel.rows.len());
            for i in 0..rel.rows.len() {
                out.push(row_scalar(&rel, i)?);
            }
            Ok(Value::array(out))
        }
        Expr::Call { name, args, .. } => eval_call(name, args, ctx, scope),
    }
}

fn row_scalar(rel: &Relation, row: usize) -> Result<Value, SqlError> {
    if rel.cols.len() == 1 {
        Ok(rel.rows[row][0].clone())
    } else {
        Ok(Value::Struct(Arc::new(StructValue::new(
            rel.cols
                .iter()
                .zip(rel.rows[row].iter())
                .map(|(c, v)| (Arc::from(c.as_str()), v.clone()))
                .collect(),
        ))))
    }
}

fn eval_call(
    name: &str,
    args: &[Expr],
    ctx: &ExecContext,
    scope: &Scope<'_>,
) -> Result<Value, SqlError> {
    functions::with_lower(name, |lower| eval_call_lower(name, lower, args, ctx, scope))
}

fn eval_call_lower(
    name: &str,
    lower: &str,
    args: &[Expr],
    ctx: &ExecContext,
    scope: &Scope<'_>,
) -> Result<Value, SqlError> {
    // Lambda-taking array functions.
    match lower {
        "filter" | "transform" | "any_match" | "none_match" | "all_match" => {
            if args.len() != 2 {
                return Err(SqlError::Eval(format!("{lower} expects (array, lambda)")));
            }
            let arr = eval_expr(&args[0], ctx, scope)?;
            let items: Vec<Value> = match arr {
                Value::Array(a) => a.as_ref().clone(),
                Value::Null => return Ok(Value::Null),
                other => {
                    return Err(SqlError::Eval(format!(
                        "{lower} expects an array, found {}",
                        other.type_name()
                    )))
                }
            };
            let (params, body) = expect_lambda(&args[1], 1)?;
            let mut out = Vec::new();
            for item in &items {
                let mut inner = scope.child();
                inner.bind(&params[0], item.clone(), false);
                let r = eval_expr(body, ctx, &inner)?;
                match lower {
                    "filter" => {
                        if truthy(&r) {
                            out.push(item.clone());
                        }
                    }
                    "transform" => out.push(r),
                    "any_match" => {
                        if truthy(&r) {
                            return Ok(Value::Bool(true));
                        }
                    }
                    "none_match" => {
                        if truthy(&r) {
                            return Ok(Value::Bool(false));
                        }
                    }
                    "all_match" => {
                        if !truthy(&r) {
                            return Ok(Value::Bool(false));
                        }
                    }
                    _ => unreachable!(),
                }
            }
            match lower {
                "filter" | "transform" => Ok(Value::array(out)),
                "any_match" => Ok(Value::Bool(false)),
                "none_match" | "all_match" => Ok(Value::Bool(true)),
                _ => unreachable!(),
            }
        }
        "reduce" => {
            if args.len() != 4 {
                return Err(SqlError::Eval(
                    "reduce expects (array, init, (s, x) -> …, s -> …)".into(),
                ));
            }
            let arr = eval_expr(&args[0], ctx, scope)?;
            let items: Vec<Value> = match arr {
                Value::Array(a) => a.as_ref().clone(),
                Value::Null => return Ok(Value::Null),
                other => {
                    return Err(SqlError::Eval(format!(
                        "reduce expects an array, found {}",
                        other.type_name()
                    )))
                }
            };
            let mut state = eval_expr(&args[1], ctx, scope)?;
            let (params, body) = expect_lambda(&args[2], 2)?;
            for item in &items {
                let mut inner = scope.child();
                inner.bind(&params[0], state.clone(), false);
                inner.bind(&params[1], item.clone(), false);
                state = eval_expr(body, ctx, &inner)?;
            }
            let (oparams, obody) = expect_lambda(&args[3], 1)?;
            let mut inner = scope.child();
            inner.bind(&oparams[0], state, false);
            eval_expr(obody, ctx, &inner)
        }
        _ => {
            // Pure builtins, then UDFs.
            let mut vals = Vec::with_capacity(args.len());
            for a in args {
                vals.push(eval_expr(a, ctx, scope)?);
            }
            if let Some(r) = functions::eval_builtin(name, &vals) {
                return r;
            }
            call_udf(name, &vals, ctx, scope)
        }
    }
}

fn call_udf(
    name: &str,
    vals: &[Value],
    ctx: &ExecContext,
    scope: &Scope<'_>,
) -> Result<Value, SqlError> {
    let udf = functions::with_lower(name, |lower| ctx.udfs.get(lower))
        .ok_or_else(|| SqlError::Unresolved(format!("function {name}")))?;
    if vals.len() != udf.params.len() {
        return Err(SqlError::Eval(format!(
            "{name} expects {} arguments, got {}",
            udf.params.len(),
            vals.len()
        )));
    }
    // Fresh scope: UDF bodies see only their parameters (no caller columns).
    let root = Scope::root();
    let mut inner = root.child();
    for ((p, t), v) in udf.params.iter().zip(&udf.types).zip(vals) {
        let coerced = cast_value(v, t)?;
        inner.bind(p, coerced, false);
    }
    let _ = scope; // parameters fully determine the body's environment
    eval_expr(&udf.body, ctx, &inner)
}

fn expect_lambda(e: &Expr, arity: usize) -> Result<(&[String], &Expr), SqlError> {
    match e {
        Expr::Lambda(params, body) if params.len() == arity => Ok((params, body)),
        Expr::Lambda(params, _) => Err(SqlError::Eval(format!(
            "lambda expects {arity} parameter(s), found {}",
            params.len()
        ))),
        _ => Err(SqlError::Eval("expected a lambda argument".into())),
    }
}

/// Casts/coerces a value to a type name. Struct casts rename positionally
/// (the Presto `CAST(ROW(…) AS ROW(…))` idiom and UDF struct parameters).
pub fn cast_value(v: &Value, t: &TypeName) -> Result<Value, SqlError> {
    match t {
        TypeName::Any => Ok(v.clone()),
        TypeName::Int => match v {
            Value::Null => Ok(Value::Null),
            Value::Int(i) => Ok(Value::Int(*i)),
            Value::Float(f) => Ok(Value::Int(*f as i64)),
            Value::Bool(b) => Ok(Value::Int(*b as i64)),
            Value::Str(s) => s
                .trim()
                .parse::<i64>()
                .map(Value::Int)
                .map_err(|_| SqlError::Eval(format!("cannot cast '{s}' to BIGINT"))),
            other => Err(SqlError::Eval(format!(
                "cannot cast {} to BIGINT",
                other.type_name()
            ))),
        },
        TypeName::Float => match v {
            Value::Null => Ok(Value::Null),
            Value::Int(i) => Ok(Value::Float(*i as f64)),
            Value::Float(f) => Ok(Value::Float(*f)),
            Value::Str(s) => s
                .trim()
                .parse::<f64>()
                .map(Value::Float)
                .map_err(|_| SqlError::Eval(format!("cannot cast '{s}' to DOUBLE"))),
            other => Err(SqlError::Eval(format!(
                "cannot cast {} to DOUBLE",
                other.type_name()
            ))),
        },
        TypeName::Bool => match v {
            Value::Null => Ok(Value::Null),
            Value::Bool(b) => Ok(Value::Bool(*b)),
            other => Err(SqlError::Eval(format!(
                "cannot cast {} to BOOLEAN",
                other.type_name()
            ))),
        },
        TypeName::Str => match v {
            Value::Null => Ok(Value::Null),
            Value::Str(s) => Ok(Value::Str(s.clone())),
            other => Ok(Value::str(other.to_string())),
        },
        TypeName::Row(decls) => match v {
            Value::Null => Ok(Value::Null),
            Value::Struct(s) => {
                if s.len() != decls.len() {
                    return Err(SqlError::Eval(format!(
                        "cannot cast a {}-field struct to a {}-field ROW",
                        s.len(),
                        decls.len()
                    )));
                }
                let mut out = Vec::with_capacity(decls.len());
                for (i, (name, ft)) in decls.iter().enumerate() {
                    let fv = s.get_index(i).expect("checked");
                    out.push((Arc::from(name.as_str()), cast_value(fv, ft)?));
                }
                Ok(Value::Struct(Arc::new(StructValue::new(out))))
            }
            other => Err(SqlError::Eval(format!(
                "cannot cast {} to ROW",
                other.type_name()
            ))),
        },
        TypeName::Array(inner) => match v {
            Value::Null => Ok(Value::Null),
            Value::Array(a) => {
                let mut out = Vec::with_capacity(a.len());
                for item in a.iter() {
                    out.push(cast_value(item, inner)?);
                }
                Ok(Value::array(out))
            }
            other => Err(SqlError::Eval(format!(
                "cannot cast {} to ARRAY",
                other.type_name()
            ))),
        },
    }
}

// ---------------------------------------------------------------- hashing

/// Canonical byte key for grouping/distinct on a row.
pub fn row_key(row: &[Value]) -> Vec<u8> {
    let mut out = Vec::new();
    for v in row {
        write_key(v, &mut out);
    }
    out
}

fn values_key(vals: &[Value]) -> Vec<u8> {
    row_key(vals)
}

fn value_key(v: &Value) -> Vec<u8> {
    let mut out = Vec::new();
    write_key(v, &mut out);
    out
}

fn write_key(v: &Value, out: &mut Vec<u8>) {
    match v {
        Value::Null => out.push(0),
        Value::Bool(b) => {
            out.push(1);
            out.push(*b as u8);
        }
        Value::Int(i) => {
            // Integers and integral floats compare equal in SQL grouping,
            // so both are keyed through the float encoding when lossless.
            let f = *i as f64;
            if f as i64 == *i {
                out.push(3);
                out.extend(f.to_bits().to_le_bytes());
            } else {
                out.push(2);
                out.extend(i.to_le_bytes());
            }
        }
        Value::Float(f) => {
            out.push(3);
            let canonical = if *f == 0.0 { 0.0 } else { *f };
            out.extend(canonical.to_bits().to_le_bytes());
        }
        Value::Str(s) => {
            out.push(4);
            out.extend((s.len() as u32).to_le_bytes());
            out.extend(s.as_bytes());
        }
        Value::Array(a) => {
            out.push(5);
            out.extend((a.len() as u32).to_le_bytes());
            for item in a.iter() {
                write_key(item, out);
            }
        }
        Value::Struct(s) => {
            out.push(6);
            out.extend((s.len() as u32).to_le_bytes());
            for (_, item) in s.iter() {
                write_key(item, out);
            }
        }
    }
}
