//! Built-in scalar and array functions (lambda-free).
//!
//! Lambda-taking array functions (`FILTER`, `TRANSFORM`, `REDUCE`,
//! `ANY_MATCH`, …) are evaluated in [`crate::exec`] because they need the
//! expression evaluator; everything value-only lives here.

use nested_value::Value;
use physics::math;

use crate::error::SqlError;

/// Calls `f` with `name` ASCII-lowercased, using a stack buffer for the
/// common short-name case: function dispatch happens per row in hot query
/// loops, and `to_ascii_lowercase` would heap-allocate on every call.
pub(crate) fn with_lower<R>(name: &str, f: impl FnOnce(&str) -> R) -> R {
    let bytes = name.as_bytes();
    if bytes.len() <= 24 {
        let mut buf = [0u8; 24];
        let b = &mut buf[..bytes.len()];
        b.copy_from_slice(bytes);
        b.make_ascii_lowercase();
        // ASCII-lowercasing bytes cannot break UTF-8 validity.
        f(std::str::from_utf8(b).expect("still valid UTF-8"))
    } else {
        f(&name.to_ascii_lowercase())
    }
}

/// Evaluates a built-in scalar function. Returns `None` when the name is
/// not a known builtin (the caller then tries UDFs).
pub fn eval_builtin(name: &str, args: &[Value]) -> Option<Result<Value, SqlError>> {
    with_lower(name, |lower| eval_builtin_lower(lower, args))
}

fn eval_builtin_lower(lower: &str, args: &[Value]) -> Option<Result<Value, SqlError>> {
    Some(match lower {
        "abs" => unary_numeric(lower, args, f64::abs, Some(|i: i64| i.abs())),
        "sqrt" => unary_numeric(lower, args, f64::sqrt, None),
        "exp" => unary_numeric(lower, args, f64::exp, None),
        "ln" => unary_numeric(lower, args, f64::ln, None),
        "log" | "log10" => unary_numeric(lower, args, f64::log10, None),
        "log2" => unary_numeric(lower, args, f64::log2, None),
        "floor" => unary_numeric(lower, args, f64::floor, Some(|i| i)),
        "ceil" | "ceiling" => unary_numeric(lower, args, f64::ceil, Some(|i| i)),
        "round" => unary_numeric(lower, args, f64::round, Some(|i| i)),
        "sign" => unary_numeric(lower, args, f64::signum, Some(|i: i64| i.signum())),
        "cos" => unary_numeric(lower, args, |x| math::sin_cos(x).1, None),
        "sin" => unary_numeric(lower, args, |x| math::sin_cos(x).0, None),
        "tan" => unary_numeric(lower, args, f64::tan, None),
        "acos" => unary_numeric(lower, args, f64::acos, None),
        "asin" => unary_numeric(lower, args, f64::asin, None),
        "atan" => unary_numeric(lower, args, f64::atan, None),
        "cosh" => unary_numeric(lower, args, f64::cosh, None),
        "sinh" => unary_numeric(lower, args, math::sinh, None),
        "tanh" => unary_numeric(lower, args, f64::tanh, None),
        "pi" => {
            if args.is_empty() {
                Ok(Value::Float(std::f64::consts::PI))
            } else {
                Err(arity(lower, 0, args.len()))
            }
        }
        "power" | "pow" => binary_numeric(lower, args, f64::powf),
        "atan2" => binary_numeric(lower, args, f64::atan2),
        "mod" => binary_numeric(lower, args, |a, b| a % b),
        "truncate" => unary_numeric(lower, args, f64::trunc, Some(|i| i)),
        "greatest" => fold_numeric(lower, args, f64::max),
        "least" => fold_numeric(lower, args, f64::min),
        "coalesce" => Ok(args
            .iter()
            .find(|v| !v.is_null())
            .cloned()
            .unwrap_or(Value::Null)),
        "nullif" => {
            if args.len() != 2 {
                return Some(Err(arity(lower, 2, args.len())));
            }
            match nested_value::ops::sql_eq(&args[0], &args[1]) {
                Ok(Some(true)) => Ok(Value::Null),
                Ok(_) => Ok(args[0].clone()),
                Err(e) => Err(e.into()),
            }
        }
        "if" => {
            if args.len() != 3 {
                return Some(Err(arity(lower, 3, args.len())));
            }
            match &args[0] {
                Value::Bool(true) => Ok(args[1].clone()),
                Value::Null | Value::Bool(false) => Ok(args[2].clone()),
                other => Err(SqlError::Eval(format!(
                    "IF condition must be boolean, found {}",
                    other.type_name()
                ))),
            }
        }
        "cardinality" | "array_length" => match args {
            [Value::Array(a)] => Ok(Value::Int(a.len() as i64)),
            [Value::Null] => Ok(Value::Null),
            _ => Err(SqlError::Eval(format!("{lower} expects one array"))),
        },
        "element_at" => match args {
            [Value::Array(a), Value::Int(i)] => {
                // Presto semantics: 1-based, negative from the end.
                let idx = *i;
                let n = a.len() as i64;
                let pos = if idx > 0 { idx - 1 } else { n + idx };
                if (0..n).contains(&pos) {
                    Ok(a[pos as usize].clone())
                } else {
                    Ok(Value::Null)
                }
            }
            _ => Err(SqlError::Eval("element_at expects (array, index)".into())),
        },
        "concat" | "array_concat" => {
            if args.iter().all(|a| matches!(a, Value::Array(_))) && !args.is_empty() {
                let mut out = Vec::new();
                for a in args {
                    out.extend(a.as_array().expect("checked").iter().cloned());
                }
                Ok(Value::array(out))
            } else if args.iter().all(|a| matches!(a, Value::Str(_))) {
                let mut s = String::new();
                for a in args {
                    s.push_str(a.as_str().expect("checked"));
                }
                Ok(Value::str(s))
            } else {
                Err(SqlError::Eval(
                    "concat expects all arrays or all strings".into(),
                ))
            }
        }
        "array_max" => array_extreme(args, true),
        "array_min" => array_extreme(args, false),
        "combinations" => match args {
            [Value::Array(a), Value::Int(k)] => Ok(combinations(a, *k as usize)),
            _ => Err(SqlError::Eval("combinations expects (array, n)".into())),
        },
        "slice" => match args {
            [Value::Array(a), Value::Int(start), Value::Int(len)] => {
                let s = (*start - 1).max(0) as usize;
                let e = (s + (*len).max(0) as usize).min(a.len());
                Ok(Value::array(a.get(s..e).unwrap_or(&[]).to_vec()))
            }
            _ => Err(SqlError::Eval(
                "slice expects (array, start, length)".into(),
            )),
        },
        _ => return None,
    })
}

/// All `k`-element combinations of `items` preserving order — Presto's
/// `COMBINATIONS(array, n)`.
pub fn combinations(items: &[Value], k: usize) -> Value {
    let n = items.len();
    let mut out = Vec::new();
    if k == 0 || k > n {
        return Value::array(out);
    }
    let mut idx: Vec<usize> = (0..k).collect();
    loop {
        out.push(Value::array(
            idx.iter().map(|&i| items[i].clone()).collect(),
        ));
        // Advance the last index that can still move.
        let mut i = k;
        loop {
            if i == 0 {
                return Value::array(out);
            }
            i -= 1;
            if idx[i] != i + n - k {
                break;
            }
        }
        idx[i] += 1;
        for j in i + 1..k {
            idx[j] = idx[j - 1] + 1;
        }
    }
}

fn arity(name: &str, want: usize, got: usize) -> SqlError {
    SqlError::Eval(format!("{name} expects {want} argument(s), got {got}"))
}

type IntFn = fn(i64) -> i64;

fn unary_numeric(
    name: &str,
    args: &[Value],
    f: fn(f64) -> f64,
    int_f: Option<IntFn>,
) -> Result<Value, SqlError> {
    match args {
        [Value::Null] => Ok(Value::Null),
        [Value::Int(i)] => match int_f {
            Some(g) => Ok(Value::Int(g(*i))),
            None => Ok(Value::Float(f(*i as f64))),
        },
        [Value::Float(x)] => Ok(Value::Float(f(*x))),
        [other] => Err(SqlError::Eval(format!(
            "{name} expects a number, found {}",
            other.type_name()
        ))),
        _ => Err(arity(name, 1, args.len())),
    }
}

fn binary_numeric(name: &str, args: &[Value], f: fn(f64, f64) -> f64) -> Result<Value, SqlError> {
    match args {
        [a, b] => {
            if a.is_null() || b.is_null() {
                return Ok(Value::Null);
            }
            Ok(Value::Float(f(a.as_f64()?, b.as_f64()?)))
        }
        _ => Err(arity(name, 2, args.len())),
    }
}

fn fold_numeric(name: &str, args: &[Value], f: fn(f64, f64) -> f64) -> Result<Value, SqlError> {
    if args.is_empty() {
        return Err(arity(name, 1, 0));
    }
    if args.iter().any(|a| a.is_null()) {
        return Ok(Value::Null);
    }
    let mut acc = args[0].as_f64()?;
    let all_int = args.iter().all(|a| matches!(a, Value::Int(_)));
    for a in &args[1..] {
        acc = f(acc, a.as_f64()?);
    }
    if all_int {
        Ok(Value::Int(acc as i64))
    } else {
        Ok(Value::Float(acc))
    }
}

fn array_extreme(args: &[Value], max: bool) -> Result<Value, SqlError> {
    match args {
        [Value::Array(a)] => {
            let mut best: Option<&Value> = None;
            for v in a.iter() {
                best = Some(match best {
                    None => v,
                    Some(b) => {
                        let ord = nested_value::ops::compare(v, b)?;
                        if (max && ord == std::cmp::Ordering::Greater)
                            || (!max && ord == std::cmp::Ordering::Less)
                        {
                            v
                        } else {
                            b
                        }
                    }
                });
            }
            Ok(best.cloned().unwrap_or(Value::Null))
        }
        _ => Err(SqlError::Eval("array_max/min expects one array".into())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn f(x: f64) -> Value {
        Value::Float(x)
    }

    #[test]
    fn math_builtins() {
        assert_eq!(eval_builtin("SQRT", &[f(9.0)]).unwrap().unwrap(), f(3.0));
        assert_eq!(
            eval_builtin("abs", &[Value::Int(-3)]).unwrap().unwrap(),
            Value::Int(3)
        );
        assert_eq!(
            eval_builtin("POWER", &[f(2.0), f(10.0)]).unwrap().unwrap(),
            f(1024.0)
        );
        assert_eq!(eval_builtin("floor", &[f(2.7)]).unwrap().unwrap(), f(2.0));
        assert!(eval_builtin("nosuchfn", &[]).is_none());
    }

    #[test]
    fn null_propagation() {
        assert_eq!(
            eval_builtin("sqrt", &[Value::Null]).unwrap().unwrap(),
            Value::Null
        );
        assert_eq!(
            eval_builtin("atan2", &[Value::Null, f(1.0)])
                .unwrap()
                .unwrap(),
            Value::Null
        );
        assert_eq!(
            eval_builtin("coalesce", &[Value::Null, f(2.0)])
                .unwrap()
                .unwrap(),
            f(2.0)
        );
    }

    #[test]
    fn cardinality_and_element_at() {
        let arr = Value::array(vec![f(1.0), f(2.0), f(3.0)]);
        assert_eq!(
            eval_builtin("CARDINALITY", std::slice::from_ref(&arr))
                .unwrap()
                .unwrap(),
            Value::Int(3)
        );
        assert_eq!(
            eval_builtin("element_at", &[arr.clone(), Value::Int(1)])
                .unwrap()
                .unwrap(),
            f(1.0)
        );
        assert_eq!(
            eval_builtin("element_at", &[arr.clone(), Value::Int(-1)])
                .unwrap()
                .unwrap(),
            f(3.0)
        );
        assert_eq!(
            eval_builtin("element_at", &[arr, Value::Int(7)])
                .unwrap()
                .unwrap(),
            Value::Null
        );
    }

    #[test]
    fn combinations_counts() {
        let arr: Vec<Value> = (0..5).map(Value::Int).collect();
        let c3 = combinations(&arr, 3);
        assert_eq!(c3.as_array().unwrap().len(), 10);
        // Each combination is ordered and strictly increasing here.
        for combo in c3.as_array().unwrap() {
            let xs = combo.as_array().unwrap();
            assert!(xs
                .windows(2)
                .all(|w| { w[0].as_i64().unwrap() < w[1].as_i64().unwrap() }));
        }
        assert_eq!(combinations(&arr, 0).as_array().unwrap().len(), 0);
        assert_eq!(combinations(&arr, 6).as_array().unwrap().len(), 0);
        assert_eq!(combinations(&arr, 5).as_array().unwrap().len(), 1);
    }

    #[test]
    fn concat_arrays_and_strings() {
        let a = Value::array(vec![f(1.0)]);
        let b = Value::array(vec![f(2.0)]);
        let c = eval_builtin("CONCAT", &[a, b]).unwrap().unwrap();
        assert_eq!(c.as_array().unwrap().len(), 2);
        let s = eval_builtin("concat", &[Value::str("a"), Value::str("b")])
            .unwrap()
            .unwrap();
        assert_eq!(s.as_str().unwrap(), "ab");
    }

    #[test]
    fn greatest_least() {
        assert_eq!(
            eval_builtin("GREATEST", &[Value::Int(3), Value::Int(7), Value::Int(5)])
                .unwrap()
                .unwrap(),
            Value::Int(7)
        );
        assert_eq!(
            eval_builtin("LEAST", &[f(3.0), f(-1.0)]).unwrap().unwrap(),
            f(-1.0)
        );
    }
}
