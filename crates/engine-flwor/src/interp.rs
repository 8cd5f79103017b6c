//! The JSONiq evaluator: sequences of items, tuple streams, lexical
//! environments.

use std::collections::HashMap;
use std::rc::Rc;
use std::sync::Arc;

use nested_value::{StructValue, Value};

use crate::ast::*;
use crate::builtins;
use crate::error::FlworError;

/// A JSONiq value sequence (always flat).
pub type Seq = Vec<Value>;

/// Resolves `parquet-file(name)` calls to item sequences.
pub trait Source {
    /// Returns the items of the named input.
    fn read(&self, name: &str) -> Result<Seq, FlworError>;
}

/// A source with no inputs (pure expressions).
pub struct NoSource;

impl Source for NoSource {
    fn read(&self, name: &str) -> Result<Seq, FlworError> {
        Err(FlworError::Unresolved(format!("input {name}")))
    }
}

/// Lexical environment: outer bindings + the current FLWOR tuple.
#[derive(Clone, Default)]
pub struct Env {
    vars: Vec<(Rc<str>, Rc<Seq>)>,
}

impl Env {
    /// Empty environment.
    pub fn new() -> Env {
        Env::default()
    }

    /// Extends with a binding (returns a new env).
    pub fn with(&self, name: &str, value: Rc<Seq>) -> Env {
        let mut vars = Vec::with_capacity(self.vars.len() + 1);
        vars.extend_from_slice(&self.vars);
        vars.push((name.into(), value));
        Env { vars }
    }

    fn lookup(&self, name: &str) -> Option<&Rc<Seq>> {
        self.vars
            .iter()
            .rev()
            .find(|(n, _)| n.as_ref() == name)
            .map(|(_, v)| v)
    }
}

/// The interpreter: declared functions plus an input source.
pub struct Interp<'m, S: Source> {
    functions: HashMap<String, &'m FunctionDecl>,
    source: &'m S,
}

impl<'m, S: Source> Interp<'m, S> {
    /// Builds an interpreter for a module.
    pub fn new(module: &'m Module, source: &'m S) -> Result<Self, FlworError> {
        let mut functions = HashMap::new();
        for f in &module.functions {
            if functions.insert(f.name.clone(), f).is_some() {
                return Err(FlworError::Parse(format!("duplicate function {}", f.name)));
            }
        }
        Ok(Interp { functions, source })
    }

    /// Evaluates the module body in an environment.
    pub fn eval_body(&self, module: &Module, env: &Env) -> Result<Seq, FlworError> {
        self.eval(&module.body, env)
    }

    /// Evaluates an expression to a sequence.
    pub fn eval(&self, e: &Expr, env: &Env) -> Result<Seq, FlworError> {
        match e {
            Expr::Null => Ok(vec![Value::Null]),
            Expr::Bool(b) => Ok(vec![Value::Bool(*b)]),
            Expr::Int(i) => Ok(vec![Value::Int(*i)]),
            Expr::Float(f) => Ok(vec![Value::Float(*f)]),
            Expr::Str(s) => Ok(vec![Value::str(s.as_str())]),
            Expr::Var(v) => env
                .lookup(v)
                .map(|s| s.as_ref().clone())
                .ok_or_else(|| FlworError::Unresolved(format!("${v}"))),
            Expr::ContextItem => env
                .lookup("$$")
                .map(|s| s.as_ref().clone())
                .ok_or_else(|| FlworError::Unresolved("context item".into())),
            Expr::Sequence(items) => {
                let mut out = Vec::new();
                for item in items {
                    out.extend(self.eval(item, env)?);
                }
                Ok(out)
            }
            Expr::Flwor { clauses, ret } => self.eval_flwor(clauses, ret, env),
            Expr::If { cond, then, els } => {
                let c = self.eval(cond, env)?;
                if ebv(&c)? {
                    self.eval(then, env)
                } else {
                    self.eval(els, env)
                }
            }
            Expr::Quantified {
                every,
                var,
                source,
                predicate,
            } => {
                let items = self.eval(source, env)?;
                for item in items {
                    let inner = env.with(var, Rc::new(vec![item]));
                    let p = ebv(&self.eval(predicate, &inner)?)?;
                    if *every && !p {
                        return Ok(vec![Value::Bool(false)]);
                    }
                    if !*every && p {
                        return Ok(vec![Value::Bool(true)]);
                    }
                }
                Ok(vec![Value::Bool(*every)])
            }
            Expr::Or(a, b) => {
                let left = ebv(&self.eval(a, env)?)?;
                if left {
                    Ok(vec![Value::Bool(true)])
                } else {
                    Ok(vec![Value::Bool(ebv(&self.eval(b, env)?)?)])
                }
            }
            Expr::And(a, b) => {
                let left = ebv(&self.eval(a, env)?)?;
                if !left {
                    Ok(vec![Value::Bool(false)])
                } else {
                    Ok(vec![Value::Bool(ebv(&self.eval(b, env)?)?)])
                }
            }
            Expr::Not(a) => Ok(vec![Value::Bool(!ebv(&self.eval(a, env)?)?)]),
            Expr::Cmp(a, op, b) => {
                let left = self.eval(a, env)?;
                let right = self.eval(b, env)?;
                Ok(vec![Value::Bool(general_compare(&left, *op, &right)?)])
            }
            Expr::Range(a, b) => {
                let lo = self.eval(a, env)?;
                let hi = self.eval(b, env)?;
                if lo.is_empty() || hi.is_empty() {
                    return Ok(Vec::new());
                }
                let lo = single_int(&lo)?;
                let hi = single_int(&hi)?;
                Ok((lo..=hi).map(Value::Int).collect())
            }
            Expr::Arith(a, op, b) => {
                let left = self.eval(a, env)?;
                let right = self.eval(b, env)?;
                arith(&left, *op, &right)
            }
            Expr::Neg(a) => {
                let v = self.eval(a, env)?;
                if v.is_empty() {
                    return Ok(Vec::new());
                }
                match single(&v)? {
                    Value::Int(i) => Ok(vec![Value::Int(-i)]),
                    Value::Float(f) => Ok(vec![Value::Float(-f)]),
                    other => Err(FlworError::Type(format!(
                        "cannot negate {}",
                        other.type_name()
                    ))),
                }
            }
            Expr::StrConcat(a, b) => {
                let left = self.eval(a, env)?;
                let right = self.eval(b, env)?;
                Ok(vec![Value::str(format!(
                    "{}{}",
                    atomize_string(&left)?,
                    atomize_string(&right)?
                ))])
            }
            Expr::Member(base, field) => {
                let items = self.eval(base, env)?;
                let mut out = Vec::new();
                for item in items {
                    match item {
                        Value::Struct(s) => {
                            if let Some(v) = s.get(field) {
                                out.push(v.clone());
                            }
                        }
                        Value::Null => {}
                        other => {
                            return Err(FlworError::Type(format!(
                                "member access .{field} on {}",
                                other.type_name()
                            )))
                        }
                    }
                }
                Ok(out)
            }
            Expr::Unbox(base) => {
                let items = self.eval(base, env)?;
                let mut out = Vec::new();
                for item in items {
                    match item {
                        Value::Array(a) => out.extend(a.iter().cloned()),
                        Value::Null => {}
                        other => {
                            return Err(FlworError::Type(format!("[] on {}", other.type_name())))
                        }
                    }
                }
                Ok(out)
            }
            Expr::ArrayAt(base, idx) => {
                let items = self.eval(base, env)?;
                let i = single_int(&self.eval(idx, env)?)?;
                let mut out = Vec::new();
                for item in items {
                    match item {
                        Value::Array(a) => {
                            if i >= 1 {
                                if let Some(v) = a.get(i as usize - 1) {
                                    out.push(v.clone());
                                }
                            }
                        }
                        other => {
                            return Err(FlworError::Type(format!("[[…]] on {}", other.type_name())))
                        }
                    }
                }
                Ok(out)
            }
            Expr::Predicate(base, pred) => {
                let items = self.eval(base, env)?;
                let mut out = Vec::new();
                for (pos, item) in items.iter().enumerate() {
                    let inner = env.with("$$", Rc::new(vec![item.clone()]));
                    let p = self.eval(pred, &inner)?;
                    // Numeric predicate = positional selection (1-based).
                    if p.len() == 1 && p[0].is_numeric() {
                        let want = p[0].as_f64().expect("numeric");
                        if (pos + 1) as f64 == want {
                            out.push(item.clone());
                        }
                    } else if ebv(&p)? {
                        out.push(item.clone());
                    }
                }
                Ok(out)
            }
            Expr::ObjectCtor(pairs) => {
                let mut fields = Vec::with_capacity(pairs.len());
                for (key, ve) in pairs {
                    let name: String = match key {
                        ObjectKey::Name(n) => n.clone(),
                        ObjectKey::Computed(ke) => atomize_string(&self.eval(ke, env)?)?,
                    };
                    let v = self.eval(ve, env)?;
                    let item = match v.len() {
                        0 => Value::Null,
                        1 => v.into_iter().next().expect("one"),
                        _ => Value::array(v),
                    };
                    fields.push((Arc::from(name.as_str()), item));
                }
                Ok(vec![Value::Struct(Arc::new(StructValue::new(fields)))])
            }
            Expr::ArrayCtor(inner) => {
                let items = match inner {
                    Some(e) => self.eval(e, env)?,
                    None => Vec::new(),
                };
                Ok(vec![Value::array(items)])
            }
            Expr::Call(name, args) => self.call(name, args, env),
        }
    }

    fn call(&self, name: &str, args: &[Expr], env: &Env) -> Result<Seq, FlworError> {
        // `parquet-file` goes to the source.
        if name == "parquet-file" {
            let arg = self.eval(&args[0], env)?;
            let path = atomize_string(&arg)?;
            return self.source.read(&path);
        }
        let mut vals = Vec::with_capacity(args.len());
        for a in args {
            vals.push(self.eval(a, env)?);
        }
        if let Some(r) = builtins::eval_builtin(name, &vals) {
            return r;
        }
        let f = self
            .functions
            .get(name)
            .ok_or_else(|| FlworError::Unresolved(format!("function {name}")))?;
        if f.params.len() != vals.len() {
            return Err(FlworError::Dynamic(format!(
                "{name} expects {} arguments, got {}",
                f.params.len(),
                vals.len()
            )));
        }
        // Functions close over nothing but their parameters (module scope).
        let mut inner = Env::new();
        for (p, v) in f.params.iter().zip(vals) {
            inner = inner.with(p, Rc::new(v));
        }
        self.eval(&f.body, &inner)
    }

    fn eval_flwor(&self, clauses: &[Clause], ret: &Expr, env: &Env) -> Result<Seq, FlworError> {
        // The tuple stream: local bindings layered over `env`.
        let mut tuples: Vec<Env> = vec![env.clone()];
        // Names introduced by this FLWOR (the only ones group-by re-binds).
        let mut local_vars: Vec<String> = Vec::new();
        for clause in clauses {
            match clause {
                Clause::For { var, at, source } => {
                    let mut next = Vec::new();
                    for t in &tuples {
                        let items = self.eval(source, t)?;
                        for (i, item) in items.into_iter().enumerate() {
                            let mut t2 = t.with(var, Rc::new(vec![item]));
                            if let Some(at) = at {
                                t2 = t2.with(at, Rc::new(vec![Value::Int(i as i64 + 1)]));
                            }
                            next.push(t2);
                        }
                    }
                    local_vars.push(var.clone());
                    if let Some(at) = at {
                        local_vars.push(at.clone());
                    }
                    tuples = next;
                }
                Clause::Let { var, value } => {
                    let mut next = Vec::with_capacity(tuples.len());
                    for t in &tuples {
                        let v = self.eval(value, t)?;
                        next.push(t.with(var, Rc::new(v)));
                    }
                    local_vars.push(var.clone());
                    tuples = next;
                }
                Clause::Where(pred) => {
                    let mut next = Vec::with_capacity(tuples.len());
                    for t in tuples {
                        if ebv(&self.eval(pred, &t)?)? {
                            next.push(t);
                        }
                    }
                    tuples = next;
                }
                Clause::Count(var) => {
                    tuples = tuples
                        .into_iter()
                        .enumerate()
                        .map(|(i, t)| t.with(var, Rc::new(vec![Value::Int(i as i64 + 1)])))
                        .collect();
                    local_vars.push(var.clone());
                }
                Clause::OrderBy(keys) => {
                    let mut keyed: Vec<(Vec<Value>, Env)> = Vec::with_capacity(tuples.len());
                    for t in tuples {
                        let mut ks = Vec::with_capacity(keys.len());
                        for (ke, _) in keys {
                            let v = self.eval(ke, &t)?;
                            ks.push(match v.len() {
                                0 => Value::Null,
                                1 => v.into_iter().next().expect("one"),
                                _ => {
                                    return Err(FlworError::Type(
                                        "order-by key is a multi-item sequence".into(),
                                    ))
                                }
                            });
                        }
                        keyed.push((ks, t));
                    }
                    let mut err = None;
                    keyed.sort_by(|(a, _), (b, _)| {
                        for (i, (x, y)) in a.iter().zip(b.iter()).enumerate() {
                            match nested_value::ops::compare(x, y) {
                                Ok(std::cmp::Ordering::Equal) => continue,
                                Ok(ord) => return if keys[i].1 { ord.reverse() } else { ord },
                                Err(e) => {
                                    err = Some(e);
                                    return std::cmp::Ordering::Equal;
                                }
                            }
                        }
                        std::cmp::Ordering::Equal
                    });
                    if let Some(e) = err {
                        return Err(FlworError::Type(e.to_string()));
                    }
                    tuples = keyed.into_iter().map(|(_, t)| t).collect();
                }
                Clause::GroupBy(keys) => {
                    // Evaluate grouping keys per tuple.
                    type Group = (Vec<(String, Value)>, Vec<Env>);
                    let mut groups: Vec<Group> = Vec::new();
                    let mut index: HashMap<String, usize> = HashMap::new();
                    for t in tuples {
                        let mut kvs = Vec::with_capacity(keys.len());
                        for (kvar, kexpr) in keys {
                            let v = match kexpr {
                                Some(e) => self.eval(e, &t)?,
                                None => t
                                    .lookup(kvar)
                                    .map(|s| s.as_ref().clone())
                                    .ok_or_else(|| FlworError::Unresolved(format!("${kvar}")))?,
                            };
                            let atom = match v.len() {
                                0 => Value::Null,
                                1 => v.into_iter().next().expect("one"),
                                _ => {
                                    return Err(FlworError::Type(
                                        "grouping key is a multi-item sequence".into(),
                                    ))
                                }
                            };
                            kvs.push((kvar.clone(), atom));
                        }
                        let kb = format!("{:?}", kvs.iter().map(|(_, v)| v).collect::<Vec<_>>());
                        let slot = *index.entry(kb).or_insert_with(|| {
                            groups.push((kvs.clone(), Vec::new()));
                            groups.len() - 1
                        });
                        groups[slot].1.push(t);
                    }
                    // Build one tuple per group.
                    let mut next = Vec::with_capacity(groups.len());
                    for (kvs, members) in groups {
                        let mut t = env.clone();
                        // Non-grouping local variables: concatenated values.
                        for var in &local_vars {
                            if kvs.iter().any(|(k, _)| k == var) {
                                continue;
                            }
                            let mut concat = Vec::new();
                            for m in &members {
                                if let Some(v) = m.lookup(var) {
                                    concat.extend(v.iter().cloned());
                                }
                            }
                            t = t.with(var, Rc::new(concat));
                        }
                        for (kvar, kval) in kvs {
                            t = t.with(&kvar, Rc::new(vec![kval]));
                        }
                        next.push(t);
                    }
                    for (kvar, _) in keys {
                        if !local_vars.contains(kvar) {
                            local_vars.push(kvar.clone());
                        }
                    }
                    tuples = next;
                }
            }
        }
        let mut out = Vec::new();
        for t in &tuples {
            out.extend(self.eval(ret, t)?);
        }
        Ok(out)
    }
}

// ---------------------------------------------------------------- helpers

/// Effective boolean value (JSONiq `boolean()` semantics).
pub fn ebv(seq: &[Value]) -> Result<bool, FlworError> {
    match seq {
        [] => Ok(false),
        [Value::Bool(b)] => Ok(*b),
        [Value::Int(i)] => Ok(*i != 0),
        [Value::Float(f)] => Ok(*f != 0.0 && !f.is_nan()),
        [Value::Str(s)] => Ok(!s.is_empty()),
        [Value::Null] => Ok(false),
        [other] => Err(FlworError::Type(format!(
            "no effective boolean value for {}",
            other.type_name()
        ))),
        _ => Err(FlworError::Type(
            "no effective boolean value for multi-item sequence".into(),
        )),
    }
}

/// Exactly one item.
pub fn single(seq: &[Value]) -> Result<&Value, FlworError> {
    match seq {
        [v] => Ok(v),
        other => Err(FlworError::Type(format!(
            "expected a single item, found {} items",
            other.len()
        ))),
    }
}

fn single_int(seq: &[Value]) -> Result<i64, FlworError> {
    match single(seq)? {
        Value::Int(i) => Ok(*i),
        Value::Float(f) if f.fract() == 0.0 => Ok(*f as i64),
        other => Err(FlworError::Type(format!(
            "expected an integer, found {}",
            other.type_name()
        ))),
    }
}

fn atomize_string(seq: &[Value]) -> Result<String, FlworError> {
    match single(seq)? {
        Value::Str(s) => Ok(s.to_string()),
        Value::Int(i) => Ok(i.to_string()),
        Value::Float(f) => Ok(f.to_string()),
        Value::Bool(b) => Ok(b.to_string()),
        Value::Null => Ok("null".to_string()),
        other => Err(FlworError::Type(format!(
            "cannot stringify {}",
            other.type_name()
        ))),
    }
}

fn general_compare(left: &[Value], op: CmpOp, right: &[Value]) -> Result<bool, FlworError> {
    for a in left {
        for b in right {
            if atomic_compare(a, op, b)? {
                return Ok(true);
            }
        }
    }
    Ok(false)
}

fn atomic_compare(a: &Value, op: CmpOp, b: &Value) -> Result<bool, FlworError> {
    if matches!(a, Value::Array(_) | Value::Struct(_))
        || matches!(b, Value::Array(_) | Value::Struct(_))
    {
        return Err(FlworError::Type(
            "comparison on arrays/objects is not defined".into(),
        ));
    }
    // null compares equal to null and unordered/false otherwise, except
    // eq/ne which are defined.
    if a.is_null() || b.is_null() {
        return Ok(match op {
            CmpOp::Eq => a.is_null() && b.is_null(),
            CmpOp::Ne => a.is_null() != b.is_null(),
            // JSONiq: null sorts before anything else.
            CmpOp::Lt => a.is_null() && !b.is_null(),
            CmpOp::Gt => !a.is_null() && b.is_null(),
            CmpOp::Le => a.is_null(),
            CmpOp::Ge => b.is_null(),
        });
    }
    let ord = nested_value::ops::compare(a, b).map_err(|e| FlworError::Type(e.to_string()))?;
    Ok(match op {
        CmpOp::Eq => ord == std::cmp::Ordering::Equal,
        CmpOp::Ne => ord != std::cmp::Ordering::Equal,
        CmpOp::Lt => ord == std::cmp::Ordering::Less,
        CmpOp::Le => ord != std::cmp::Ordering::Greater,
        CmpOp::Gt => ord == std::cmp::Ordering::Greater,
        CmpOp::Ge => ord != std::cmp::Ordering::Less,
    })
}

fn arith(left: &[Value], op: ArithOp, right: &[Value]) -> Result<Seq, FlworError> {
    if left.is_empty() || right.is_empty() {
        return Ok(Vec::new());
    }
    let a = single(left)?;
    let b = single(right)?;
    if !a.is_numeric() || !b.is_numeric() {
        return Err(FlworError::Type(format!(
            "arithmetic on {} and {}",
            a.type_name(),
            b.type_name()
        )));
    }
    let out = match (a, b, op) {
        (Value::Int(x), Value::Int(y), ArithOp::Add) => Value::Int(x.wrapping_add(*y)),
        (Value::Int(x), Value::Int(y), ArithOp::Sub) => Value::Int(x.wrapping_sub(*y)),
        (Value::Int(x), Value::Int(y), ArithOp::Mul) => Value::Int(x.wrapping_mul(*y)),
        (_, _, ArithOp::Div) => {
            let y = b.as_f64().expect("numeric");
            if y == 0.0 && matches!(b, Value::Int(_)) {
                return Err(FlworError::Dynamic("division by zero".into()));
            }
            Value::Float(a.as_f64().expect("numeric") / y)
        }
        (_, _, ArithOp::IDiv) => {
            let y = b.as_f64().expect("numeric");
            if y == 0.0 {
                return Err(FlworError::Dynamic("integer division by zero".into()));
            }
            Value::Int((a.as_f64().expect("numeric") / y).trunc() as i64)
        }
        (_, _, ArithOp::Mod) => {
            let y = b.as_f64().expect("numeric");
            if y == 0.0 && matches!(b, Value::Int(_)) {
                return Err(FlworError::Dynamic("modulo by zero".into()));
            }
            let r = a.as_f64().expect("numeric") % y;
            if matches!((a, b), (Value::Int(_), Value::Int(_))) {
                Value::Int(r as i64)
            } else {
                Value::Float(r)
            }
        }
        _ => Value::Float(match op {
            ArithOp::Add => a.as_f64().expect("numeric") + b.as_f64().expect("numeric"),
            ArithOp::Sub => a.as_f64().expect("numeric") - b.as_f64().expect("numeric"),
            ArithOp::Mul => a.as_f64().expect("numeric") * b.as_f64().expect("numeric"),
            _ => unreachable!(),
        }),
    };
    Ok(vec![out])
}
