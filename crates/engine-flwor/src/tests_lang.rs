//! Language-level and end-to-end tests for the JSONiq engine.

use std::sync::Arc;

use nested_value::Value;

use crate::engine::FlworEngine;
use crate::error::FlworError;
use crate::interp::{Env, Interp, NoSource};
use crate::parser::parse_module;
use exec_par::ExecOptions;

fn eval(src: &str) -> Result<Vec<Value>, FlworError> {
    let m = parse_module(src)?;
    let source = NoSource;
    let interp = Interp::new(&m, &source)?;
    interp.eval_body(&m, &Env::new())
}

fn eval1(src: &str) -> Value {
    let s = eval(src).unwrap();
    assert_eq!(s.len(), 1, "expected singleton, got {s:?}");
    s.into_iter().next().unwrap()
}

#[test]
fn arithmetic_and_types() {
    assert_eq!(eval1("1 + 2 * 3"), Value::Int(7));
    assert_eq!(eval1("7 idiv 2"), Value::Int(3));
    assert_eq!(eval1("7 div 2"), Value::Float(3.5));
    assert_eq!(eval1("7 mod 2"), Value::Int(1));
    assert_eq!(eval1("-(3)"), Value::Int(-3));
    assert_eq!(eval1("2.5 + 1"), Value::Float(3.5));
}

#[test]
fn empty_sequence_propagation() {
    assert_eq!(eval("() + 1").unwrap(), vec![]);
    assert_eq!(eval("sum(())").unwrap(), vec![Value::Int(0)]);
    assert_eq!(eval("count(())").unwrap(), vec![Value::Int(0)]);
    assert_eq!(eval("exists(())").unwrap(), vec![Value::Bool(false)]);
    assert_eq!(eval("empty(())").unwrap(), vec![Value::Bool(true)]);
}

#[test]
fn sequences_flatten() {
    assert_eq!(
        eval("(1, (2, 3), ())").unwrap(),
        vec![Value::Int(1), Value::Int(2), Value::Int(3)]
    );
    assert_eq!(eval1("count((1, 2, 3))"), Value::Int(3));
}

#[test]
fn flwor_for_let_where_return() {
    assert_eq!(
        eval("for $x in (1 to 5) where $x mod 2 = 0 return $x * 10").unwrap(),
        vec![Value::Int(20), Value::Int(40)]
    );
    assert_eq!(eval1("let $y := 4 return $y * $y"), Value::Int(16));
}

#[test]
fn for_at_positions() {
    assert_eq!(
        eval("for $x at $i in (10, 20, 30) where $i >= 2 return $i").unwrap(),
        vec![Value::Int(2), Value::Int(3)]
    );
}

#[test]
fn cartesian_products_and_pairs() {
    // The paper's Listing 6c pattern: distinct pairs via `at` indices.
    let out = eval(
        "for $a at $i in (1, 2, 3), $b at $j in (1, 2, 3) \
         where $i < $j return [$a, $b]",
    )
    .unwrap();
    assert_eq!(out.len(), 3);
}

#[test]
fn object_navigation() {
    assert_eq!(
        eval1(r#"{ "pt": 42.0, "eta": 1.1 }.pt"#),
        Value::Float(42.0)
    );
    // Missing member → empty sequence.
    assert_eq!(eval(r#"{ "pt": 1 }.nope"#).unwrap(), vec![]);
    // Member access maps over sequences.
    assert_eq!(
        eval(r#"for $o in ({ "x": 1 }, { "x": 2 }) return $o.x"#).unwrap(),
        vec![Value::Int(1), Value::Int(2)]
    );
}

#[test]
fn array_unboxing_and_predicates() {
    assert_eq!(
        eval("[1, 2, 3][]").unwrap(),
        vec![Value::Int(1), Value::Int(2), Value::Int(3)]
    );
    assert_eq!(eval1("[4, 5, 6][[2]]"), Value::Int(5));
    assert_eq!(eval("[4, 5][[9]]").unwrap(), vec![]);
    // Predicate filter with context item.
    assert_eq!(
        eval("(1, 5, 10)[$$ > 3]").unwrap(),
        vec![Value::Int(5), Value::Int(10)]
    );
    // Numeric predicate = positional.
    assert_eq!(eval1("(7, 8, 9)[2]"), Value::Int(8));
}

#[test]
fn nested_navigation_chain() {
    // The paper's Listing 3b pattern.
    let out = eval(
        r#"for $e in ({ "jet": [ { "pt": 50.0, "eta": 0.5 }, { "pt": 20.0, "eta": 2.0 } ] })
           return $e.jet[][abs($$.eta) < 1].pt"#,
    )
    .unwrap();
    assert_eq!(out, vec![Value::Float(50.0)]);
}

#[test]
fn general_comparison_is_existential() {
    assert_eq!(eval1("(1, 2, 3) = 2"), Value::Bool(true));
    assert_eq!(eval1("(1, 2, 3) = 9"), Value::Bool(false));
    assert_eq!(eval1("() = 1"), Value::Bool(false));
    assert_eq!(eval1("(1, 9) > 5"), Value::Bool(true));
}

#[test]
fn quantified() {
    assert_eq!(
        eval1("some $x in (1, 2, 3) satisfies $x > 2"),
        Value::Bool(true)
    );
    assert_eq!(
        eval1("every $x in (1, 2, 3) satisfies $x > 0"),
        Value::Bool(true)
    );
    assert_eq!(
        eval1("every $x in (1, 2, 3) satisfies $x > 1"),
        Value::Bool(false)
    );
    assert_eq!(eval1("some $x in () satisfies $x"), Value::Bool(false));
}

#[test]
fn group_by_histogram_pattern() {
    // Listing 9b: grouping fully encapsulated in a declared function.
    let out = eval(
        "declare function local:histogram($values, $width) {\
           for $v in $values \
           let $b := floor($v div $width) \
           group by $bin := $b \
           order by $bin \
           return { \"bin\": $bin, \"n\": count($v) } \
         };\
         local:histogram((1.0, 2.0, 11.0, 12.0, 13.0, 25.0), 10.0)",
    )
    .unwrap();
    assert_eq!(out.len(), 3);
    let first = out[0].as_struct().unwrap();
    assert_eq!(first.get("bin"), Some(&Value::Float(0.0)));
    assert_eq!(first.get("n"), Some(&Value::Int(2)));
    let second = out[1].as_struct().unwrap();
    assert_eq!(second.get("n"), Some(&Value::Int(3)));
}

#[test]
fn order_by_descending() {
    assert_eq!(
        eval("for $x in (3, 1, 2) order by $x descending return $x").unwrap(),
        vec![Value::Int(3), Value::Int(2), Value::Int(1)]
    );
}

#[test]
fn count_clause() {
    assert_eq!(
        eval("for $x in (5, 6, 7) count $c return $c").unwrap(),
        vec![Value::Int(1), Value::Int(2), Value::Int(3)]
    );
}

#[test]
fn user_functions_and_recursion_free_composition() {
    assert_eq!(
        eval1(
            "declare function hep:square($x) { $x * $x };\
             declare function hep:hyp($a, $b) { sqrt(hep:square($a) + hep:square($b)) };\
             hep:hyp(3.0, 4.0)"
        ),
        Value::Float(5.0)
    );
}

#[test]
fn function_objects_without_declared_members() {
    // §3.6: JSONiq functions accept objects without enumerating members;
    // extra members are ignored.
    assert_eq!(
        eval1(
            r#"declare function f:pt2($p) { $p.pt * $p.pt };
               f:pt2({ "pt": 3.0, "eta": 99.0, "extra": "ignored" })"#
        ),
        Value::Float(9.0)
    );
}

#[test]
fn if_and_logic() {
    assert_eq!(eval1("if (1 < 2) then \"a\" else \"b\""), Value::str("a"));
    assert_eq!(eval1("true and false"), Value::Bool(false));
    assert_eq!(eval1("true or false"), Value::Bool(true));
    assert_eq!(eval1("not(0)"), Value::Bool(true));
    assert_eq!(eval1("not 1"), Value::Bool(false));
}

#[test]
fn errors_are_reported() {
    assert!(matches!(eval("$missing"), Err(FlworError::Unresolved(_))));
    assert!(matches!(
        eval("nosuchfn(1)"),
        Err(FlworError::Unresolved(_))
    ));
    assert!(matches!(eval("(1).pt"), Err(FlworError::Type(_))));
    assert!(matches!(eval("{ \"a\": 1 }[]"), Err(FlworError::Type(_))));
    assert!(matches!(eval("1 idiv 0"), Err(FlworError::Dynamic(_))));
}

// ------------------------------------------------------------ end-to-end

fn hep_engine_opts(options: ExecOptions) -> (Vec<hep_model::Event>, FlworEngine) {
    let (events, table) = hep_model::generator::build_dataset(hep_model::DatasetSpec {
        n_events: 500,
        row_group_size: 128,
        seed: 33,
    });
    let mut e = FlworEngine::new(options);
    e.register(Arc::new(table));
    (events, e)
}

fn hep_engine(n_threads: usize) -> (Vec<hep_model::Event>, FlworEngine) {
    hep_engine_opts(ExecOptions {
        n_threads,
        ..ExecOptions::default()
    })
}

#[test]
fn table_scan_met() {
    let (events, engine) = hep_engine(1);
    let out = engine
        .execute("for $e in parquet-file(\"events\") return $e.MET.pt")
        .unwrap();
    assert_eq!(out.items.len(), events.len());
    assert_eq!(out.items[0], Value::Float(events[0].met.pt));
    // Rumble reads everything: bytes scanned equals the whole table.
    assert_eq!(out.stats.scan.columns_read as usize, 63);
}

#[test]
fn jet_selection_matches_reference() {
    let (events, engine) = hep_engine(1);
    let out = engine
        .execute(
            "for $e in parquet-file(\"events\") \
             where count($e.Jet[][$$.pt > 40]) >= 2 \
             return $e.MET.pt",
        )
        .unwrap();
    let expect = events
        .iter()
        .filter(|e| e.jets.iter().filter(|j| j.pt > 40.0).count() >= 2)
        .count();
    assert_eq!(out.items.len(), expect);
}

#[test]
fn parallel_matches_serial() {
    let (_, serial) = hep_engine(1);
    let (_, parallel) = hep_engine(4);
    let q = "for $e in parquet-file(\"events\") \
             let $jets := $e.Jet[][abs($$.eta) < 1] \
             where exists($jets) \
             return sum($jets.pt)";
    let a = serial.execute(q).unwrap();
    let b = parallel.execute(q).unwrap();
    assert_eq!(a.items, b.items);
    assert!(b.stats.threads_used > 1);
}

#[test]
fn vectorized_prefilter_matches_interpreter() {
    // Identical result sequence and identical scan accounting with the
    // pre-filter on and off, in both serial and parallel execution.
    let q = "for $e in parquet-file(\"events\") \
             where $e.MET.pt > 25.0 and $e.MET.phi < 1.0 \
             return $e.MET.pt";
    let mut outputs = Vec::new();
    for vectorized_filter in [true, false] {
        for n_threads in [1, 4] {
            let (events, engine) = hep_engine_opts(ExecOptions {
                n_threads,
                vectorized_filter,
                ..ExecOptions::default()
            });
            let out = engine.execute(q).unwrap();
            let expect: Vec<Value> = events
                .iter()
                .filter(|e| e.met.pt > 25.0 && e.met.phi < 1.0)
                .map(|e| Value::Float(e.met.pt))
                .collect();
            assert!(!expect.is_empty() && expect.len() < events.len());
            assert_eq!(out.items, expect, "vf={vectorized_filter} t={n_threads}");
            outputs.push(out);
        }
    }
    // Filtering is an execution knob, never a pricing knob.
    for o in &outputs[1..] {
        assert_eq!(
            o.stats.scan.bytes_scanned,
            outputs[0].stats.scan.bytes_scanned
        );
        assert_eq!(
            o.stats.scan.columns_read,
            outputs[0].stats.scan.columns_read
        );
    }
}

#[test]
fn zone_map_pruning_skips_groups_and_preserves_results() {
    // Event ids are monotone across row groups (500 events, groups of
    // 128), so a cut on `$e.event` prunes whole groups: `< 100` keeps
    // only the first of four. Results must be identical with pruning on
    // and off, at any thread count, with and without the vectorized
    // pre-filter, and the pruned bytes must account exactly for the
    // bytes the unpruned scan would have billed.
    let q = "for $e in parquet-file(\"events\") \
             where $e.event < 100 \
             return $e.MET.pt";
    let (events, base) = hep_engine_opts(ExecOptions {
        zone_map_pruning: false,
        ..ExecOptions::default()
    });
    let off = base.execute(q).unwrap();
    let expect: Vec<Value> = events
        .iter()
        .filter(|e| e.event < 100)
        .map(|e| Value::Float(e.met.pt))
        .collect();
    assert_eq!(off.items, expect);
    assert_eq!(off.stats.row_groups_skipped, 0);
    assert_eq!(off.stats.scan.groups_pruned, 0);
    for n_threads in [1, 4] {
        for vectorized_filter in [true, false] {
            let (_, engine) = hep_engine_opts(ExecOptions {
                n_threads,
                vectorized_filter,
                zone_map_pruning: true,
                ..ExecOptions::default()
            });
            let on = engine.execute(q).unwrap();
            assert_eq!(on.items, expect, "vf={vectorized_filter} t={n_threads}");
            assert_eq!(on.stats.row_groups_skipped, 3);
            assert_eq!(on.stats.scan.groups_pruned, 3);
            assert!(on.stats.scan.bytes_pruned > 0);
            assert_eq!(
                on.stats.scan.bytes_scanned + on.stats.scan.bytes_pruned,
                off.stats.scan.bytes_scanned,
                "pruned + scanned bytes must equal the unpruned scan"
            );
        }
    }
}

#[test]
fn prefilter_skips_nonscalar_conjuncts_soundly() {
    // Mixed where: the scalar MET conjunct (with an *integer* literal
    // against a float column) is vectorizable, the jet-count conjunct is
    // not and must still be applied by the interpreter.
    let (events, engine) = hep_engine(1);
    let out = engine
        .execute(
            "for $e in parquet-file(\"events\") \
             where $e.MET.pt > 20 and count($e.Jet[]) >= 2 \
             return $e.event",
        )
        .unwrap();
    let expect: Vec<Value> = events
        .iter()
        .filter(|e| e.met.pt > 20.0 && e.jets.len() >= 2)
        .map(|e| Value::Int(e.event as i64))
        .collect();
    assert_eq!(out.items, expect);
}

#[test]
fn group_by_forces_serial() {
    let (_, engine) = hep_engine(8);
    let out = engine
        .execute(
            "for $e in parquet-file(\"events\") \
             let $n := count($e.Muon[]) \
             group by $k := $n \
             order by $k \
             return { \"muons\": $k, \"events\": count($e) }",
        )
        .unwrap();
    assert_eq!(out.stats.threads_used, 1);
    let total: i64 = out
        .items
        .iter()
        .map(|o| {
            o.as_struct()
                .unwrap()
                .get("events")
                .unwrap()
                .as_i64()
                .unwrap()
        })
        .sum();
    assert_eq!(total, 500);
}
