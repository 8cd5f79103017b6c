//! Built-in JSONiq functions.

use nested_value::Value;
use physics::math;

use crate::error::FlworError;
use crate::interp::{ebv, single, Seq};

/// Evaluates a builtin; `None` when the name is not a builtin (the caller
/// then tries user-declared functions).
pub fn eval_builtin(name: &str, args: &[Seq]) -> Option<Result<Seq, FlworError>> {
    Some(match name {
        "count" => arg1(name, args).map(|s| vec![Value::Int(s.len() as i64)]),
        "exists" => arg1(name, args).map(|s| vec![Value::Bool(!s.is_empty())]),
        "empty" => arg1(name, args).map(|s| vec![Value::Bool(s.is_empty())]),
        "boolean" => arg1(name, args).and_then(|s| Ok(vec![Value::Bool(ebv(s)?)])),
        "not" => arg1(name, args).and_then(|s| Ok(vec![Value::Bool(!ebv(s)?)])),
        "sum" => arg1(name, args).and_then(|s| {
            let mut acc = 0.0;
            let mut all_int = true;
            for v in s {
                match v {
                    Value::Int(i) => acc += *i as f64,
                    Value::Float(f) => {
                        acc += f;
                        all_int = false;
                    }
                    other => {
                        return Err(FlworError::Type(format!("sum over {}", other.type_name())))
                    }
                }
            }
            Ok(vec![if all_int {
                Value::Int(acc as i64)
            } else {
                Value::Float(acc)
            }])
        }),
        "avg" => arg1(name, args).and_then(|s| {
            if s.is_empty() {
                return Ok(Vec::new());
            }
            let mut acc = 0.0;
            for v in s {
                acc += v.as_f64().map_err(|e| FlworError::Type(e.to_string()))?;
            }
            Ok(vec![Value::Float(acc / s.len() as f64)])
        }),
        "min" | "max" => arg1(name, args).and_then(|s| {
            let mut best: Option<&Value> = None;
            for v in s {
                best = Some(match best {
                    None => v,
                    Some(b) => {
                        let ord = nested_value::ops::compare(v, b)
                            .map_err(|e| FlworError::Type(e.to_string()))?;
                        let take = if name == "max" {
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
            Ok(best.cloned().into_iter().collect())
        }),
        "abs" => num1(name, args, f64::abs, Some(|i: i64| i.abs())),
        "floor" => num1(name, args, f64::floor, Some(|i| i)),
        "ceiling" => num1(name, args, f64::ceil, Some(|i| i)),
        "round" => num1(name, args, f64::round, Some(|i| i)),
        "sqrt" => num1(name, args, f64::sqrt, None),
        "exp" => num1(name, args, f64::exp, None),
        "log" => num1(name, args, f64::ln, None),
        "log10" => num1(name, args, f64::log10, None),
        "cos" => num1(name, args, |x| math::sin_cos(x).1, None),
        "sin" => num1(name, args, |x| math::sin_cos(x).0, None),
        "tan" => num1(name, args, f64::tan, None),
        "cosh" => num1(name, args, f64::cosh, None),
        "sinh" => num1(name, args, math::sinh, None),
        "tanh" => num1(name, args, f64::tanh, None),
        "acos" => num1(name, args, f64::acos, None),
        "asin" => num1(name, args, f64::asin, None),
        "atan" => num1(name, args, f64::atan, None),
        "pow" | "power" => num2(name, args, f64::powf),
        "atan2" => num2(name, args, f64::atan2),
        "pi" => {
            if args.is_empty() {
                Ok(vec![Value::Float(std::f64::consts::PI)])
            } else {
                Err(arity(name, 0, args.len()))
            }
        }
        "size" => arg1(name, args).and_then(|s| {
            if s.is_empty() {
                return Ok(Vec::new());
            }
            match single(s)? {
                Value::Array(a) => Ok(vec![Value::Int(a.len() as i64)]),
                other => Err(FlworError::Type(format!(
                    "size() expects an array, found {}",
                    other.type_name()
                ))),
            }
        }),
        "members" => arg1(name, args).and_then(|s| {
            let mut out = Vec::new();
            for v in s {
                match v {
                    Value::Array(a) => out.extend(a.iter().cloned()),
                    other => {
                        return Err(FlworError::Type(format!(
                            "members() expects arrays, found {}",
                            other.type_name()
                        )))
                    }
                }
            }
            Ok(out)
        }),
        "keys" => arg1(name, args).and_then(|s| {
            let mut out = Vec::new();
            for v in s {
                match v {
                    Value::Struct(o) => {
                        out.extend(o.iter().map(|(k, _)| Value::str(k)));
                    }
                    other => {
                        return Err(FlworError::Type(format!(
                            "keys() expects objects, found {}",
                            other.type_name()
                        )))
                    }
                }
            }
            Ok(out)
        }),
        "head" => arg1(name, args).map(|s| s.first().cloned().into_iter().collect()),
        "tail" => arg1(name, args).map(|s| s.iter().skip(1).cloned().collect()),
        "reverse" => arg1(name, args).map(|s| s.iter().rev().cloned().collect()),
        "distinct-values" => arg1(name, args).map(|s| {
            let mut seen = std::collections::HashSet::new();
            let mut out = Vec::new();
            for v in s {
                let key = format!("{v}");
                if seen.insert(key) {
                    out.push(v.clone());
                }
            }
            out
        }),
        "string" => arg1(name, args).and_then(|s| {
            if s.is_empty() {
                return Ok(vec![Value::str("")]);
            }
            match single(s)? {
                Value::Str(x) => Ok(vec![Value::Str(x.clone())]),
                other => Ok(vec![Value::str(other.to_string())]),
            }
        }),
        "number" | "double" => arg1(name, args).and_then(|s| {
            if s.is_empty() {
                return Ok(Vec::new());
            }
            match single(s)? {
                Value::Int(i) => Ok(vec![Value::Float(*i as f64)]),
                Value::Float(f) => Ok(vec![Value::Float(*f)]),
                Value::Str(x) => Ok(vec![Value::Float(x.parse::<f64>().unwrap_or(f64::NAN))]),
                other => Err(FlworError::Type(format!(
                    "number() on {}",
                    other.type_name()
                ))),
            }
        }),
        "integer" => arg1(name, args).and_then(|s| match single(s)? {
            Value::Int(i) => Ok(vec![Value::Int(*i)]),
            Value::Float(f) => Ok(vec![Value::Int(*f as i64)]),
            other => Err(FlworError::Type(format!(
                "integer() on {}",
                other.type_name()
            ))),
        }),
        _ => return None,
    })
}

fn arity(name: &str, want: usize, got: usize) -> FlworError {
    FlworError::Dynamic(format!("{name} expects {want} argument(s), got {got}"))
}

fn arg1<'a>(name: &str, args: &'a [Seq]) -> Result<&'a Seq, FlworError> {
    match args {
        [a] => Ok(a),
        _ => Err(arity(name, 1, args.len())),
    }
}

type IntFn = fn(i64) -> i64;

fn num1(
    name: &str,
    args: &[Seq],
    f: fn(f64) -> f64,
    int_f: Option<IntFn>,
) -> Result<Seq, FlworError> {
    let a = arg1(name, args)?;
    if a.is_empty() {
        return Ok(Vec::new());
    }
    match single(a)? {
        Value::Int(i) => Ok(vec![match int_f {
            Some(g) => Value::Int(g(*i)),
            None => Value::Float(f(*i as f64)),
        }]),
        Value::Float(x) => Ok(vec![Value::Float(f(*x))]),
        other => Err(FlworError::Type(format!(
            "{name}() expects a number, found {}",
            other.type_name()
        ))),
    }
}

fn num2(name: &str, args: &[Seq], f: fn(f64, f64) -> f64) -> Result<Seq, FlworError> {
    match args {
        [a, b] => {
            if a.is_empty() || b.is_empty() {
                return Ok(Vec::new());
            }
            let x = single(a)?
                .as_f64()
                .map_err(|e| FlworError::Type(e.to_string()))?;
            let y = single(b)?
                .as_f64()
                .map_err(|e| FlworError::Type(e.to_string()))?;
            Ok(vec![Value::Float(f(x, y))])
        }
        _ => Err(arity(name, 2, args.len())),
    }
}
