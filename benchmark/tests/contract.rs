//! `BENCHMARK.json` and the harness must name the same things: every
//! workload, every metric (name, unit, direction, bound) and the window
//! length. A metric the file promises but the harness does not print —
//! or the other way round — fails here, not in the driver.

use hepquery_benchmark::probes::{self, PER_LAYER};
use hepquery_benchmark::report::{self, END_TO_END};
use hepquery_benchmark::workloads::{self, Workload};
use hepquery_benchmark::RUN_SECONDS;

fn benchmark_json() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root")
}

/// The text of the JSON array stored under `key` (arrays here never
/// nest other arrays).
fn array<'a>(json: &'a str, key: &str) -> &'a str {
    let start = json
        .find(&format!("\"{key}\": ["))
        .unwrap_or_else(|| panic!("no {key} array"));
    let rest = &json[start..];
    &rest[..rest.find(']').expect("array closes")]
}

/// The string stored under `key` in one JSON object's text.
fn field<'a>(object: &'a str, key: &str) -> &'a str {
    let marker = format!("\"{key}\": ");
    let rest = &object[object
        .find(&marker)
        .unwrap_or_else(|| panic!("no {key} in {object}"))
        + marker.len()..];
    rest.split([',', '}'])
        .next()
        .expect("value")
        .trim()
        .trim_matches('"')
}

fn objects(array_text: &str) -> Vec<&str> {
    array_text.split('{').skip(1).collect()
}

fn name_is_valid(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[test]
fn workloads_and_window_match_the_file() {
    let json = benchmark_json();
    let listed: Vec<&str> = objects(array(&json, "workloads"))
        .iter()
        .map(|o| field(o, "name"))
        .collect();
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(listed, ours);
    for o in objects(array(&json, "workloads")) {
        assert!(field(o, "why").len() <= 200, "why too long: {o}");
    }
    let seconds: f64 = json
        .split("\"run_seconds\": ")
        .nth(1)
        .and_then(|r| r.split([',', '\n']).next())
        .and_then(|v| v.trim().parse().ok())
        .expect("run_seconds");
    assert_eq!(seconds, RUN_SECONDS);
    assert!(array(&json, "paths").contains("\"benchmark\""));
}

#[test]
fn end_to_end_metrics_match_the_file() {
    let json = benchmark_json();
    let listed = objects(array(&json, "end_to_end"));
    assert_eq!(listed.len(), END_TO_END.len());
    for (o, &(name, unit, lower, bound)) in listed.iter().zip(&END_TO_END) {
        assert!(name_is_valid(name), "{name}");
        assert_eq!(field(o, "name"), name);
        assert_eq!(field(o, "unit"), unit, "{name}");
        assert_eq!(
            field(o, "better"),
            if lower { "lower" } else { "higher" },
            "{name}"
        );
        assert_eq!(field(o, "bound").parse::<f64>().unwrap(), bound, "{name}");
        assert!(bound <= 0.25);
    }
    assert!(listed.iter().any(|o| field(o, "name") == "setup_s"
        && field(o, "unit") == "s"
        && field(o, "better") == "lower"));
}

#[test]
fn per_layer_metrics_match_the_file() {
    let json = benchmark_json();
    let listed = objects(array(&json, "per_layer"));
    assert_eq!(listed.len(), PER_LAYER.len());
    for (o, &(name, unit, lower)) in listed.iter().zip(&PER_LAYER) {
        assert!(name_is_valid(name), "{name}");
        assert!(unit.len() <= 16, "{unit}");
        assert_eq!(field(o, "name"), name);
        assert_eq!(field(o, "unit"), unit, "{name}");
        assert_eq!(
            field(o, "better"),
            if lower { "lower" } else { "higher" },
            "{name}"
        );
    }
    let mut names: Vec<&str> = PER_LAYER
        .iter()
        .map(|m| m.0)
        .chain(END_TO_END.iter().map(|m| m.0))
        .collect();
    names.sort_unstable();
    names.dedup();
    assert_eq!(
        names.len(),
        PER_LAYER.len() + END_TO_END.len(),
        "a metric name is used twice"
    );
}

/// The compile-and-smoke run: a very short window of the cheapest
/// workload prints every end-to-end metric, and its traced mode prints
/// every per-layer metric and a well-formed result line.
#[test]
fn a_quick_run_prints_every_metric_by_name() {
    let measured = workloads::run(Workload::Ingest, 1, 0.2, 2);
    assert_eq!(measured.failed, 0, "{:?}", measured.notes);
    let metrics = report::end_to_end(&measured);
    let printed: Vec<&str> = metrics.iter().map(|m| m.name).collect();
    let promised: Vec<&str> = END_TO_END.iter().map(|m| m.0).collect();
    assert_eq!(printed, promised);
    for m in &metrics {
        assert!(
            m.value.is_finite() && m.value > 0.0,
            "{} = {}",
            m.name,
            m.value
        );
    }
    let line = report::result_line(true, measured.attempted, measured.failed, &metrics);
    let (correct, parsed) = report::parse_result_line(&line).expect("parses");
    assert!(correct);
    assert_eq!(parsed.len(), END_TO_END.len());

    let traced = probes::run(Workload::ServeMix, 1, 1.0, 2);
    assert_eq!(traced.failed, 0, "{:?}", traced.notes);
    let printed: Vec<&str> = traced.metrics.iter().map(|m| m.name).collect();
    let promised: Vec<&str> = PER_LAYER.iter().map(|m| m.0).collect();
    assert_eq!(printed, promised);
    assert!(traced.metrics.iter().all(|m| m.value.is_finite()));
    assert!(traced
        .recorder
        .to_json()
        .contains("\"layer\":\"query-service\""));
}
