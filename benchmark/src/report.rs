//! Metric names, units and the printed report.
//!
//! The names here are the public handles later issues use; the unit
//! test in `tests/contract.rs` pins them against `BENCHMARK.json`.

use std::fmt::Write as _;

use crate::measure::{
    class_median_geomean, geomean, highest_supported_quantile, median, peak_rss_mb,
    quantile_sorted, segmented_quantile,
};
use crate::workloads::{Measured, Workload};

/// The twelve end-to-end metrics: name, unit, whether lower is better,
/// and the regression bound (share of the parent's median).
pub const END_TO_END: [(&str, &str, bool, f64); 12] = [
    ("setup_s", "s", true, 0.25),
    ("events_per_s", "events/s", false, 0.25),
    ("geomean_query_s", "s", true, 0.25),
    ("slowest_query_s", "s", true, 0.25),
    ("cpu_s_per_mevent", "s", true, 0.25),
    ("scan_bytes_per_event", "B", true, 0.06),
    ("stored_bytes_per_event", "B", true, 0.06),
    ("capacity_qps", "1/s", false, 0.25),
    ("latency_p50_s", "s", true, 0.25),
    ("latency_p99_s", "s", true, 0.25),
    ("peak_rss_mb", "MB", true, 0.10),
    ("ok_ratio", "ratio", false, 0.001),
];

/// Consecutive pieces the latency sample is cut into; a pooled latency
/// quantile is the median of the per-piece quantiles.
pub const LATENCY_SEGMENTS: usize = 5;

/// One reported metric value.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Public name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Value as measured, all digits.
    pub value: f64,
}

/// Derives the twelve end-to-end metrics from a timed run. Every
/// workload times at least one operation per point, so the samples are
/// never empty.
pub fn end_to_end(m: &Measured) -> Vec<Metric> {
    let mut setups = m.setup_samples.clone();
    let medians: Vec<f64> = m
        .points
        .iter()
        .filter(|p| !p.samples.is_empty())
        .map(|p| median(&mut p.samples.clone()))
        .collect();
    let scans: Vec<f64> = m
        .points
        .iter()
        .filter_map(|p| p.scan_bytes_per_row)
        .collect();
    let unit_wall = median(&mut m.unit_walls.clone());
    let latency_p50 = if m.latency_classes.is_empty() {
        segmented_quantile(&m.latencies, 0.5, 0.05, LATENCY_SEGMENTS)
    } else {
        class_median_geomean(&m.latencies, &m.latency_classes)
    };
    let values = [
        median(&mut setups),
        m.unit_rows as f64 / unit_wall,
        geomean(&medians),
        medians.iter().copied().fold(f64::MIN, f64::max),
        m.cpu_s / (m.cpu_rows as f64 / 1e6),
        scans.iter().sum::<f64>() / scans.len() as f64,
        m.table.compressed_bytes as f64 / m.table.rows as f64,
        m.unit_ops as f64 / unit_wall,
        latency_p50,
        segmented_quantile(&m.latencies, 0.99, 0.005, LATENCY_SEGMENTS),
        peak_rss_mb(),
        1.0 - m.failed as f64 / m.attempted.max(1) as f64,
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit, _, _), value)| Metric { name, unit, value })
        .collect()
}

/// Host and run identification recorded in every output.
pub struct RunInfo {
    /// Workload.
    pub workload: Workload,
    /// `--seed`.
    pub seed: u64,
    /// `--seconds`.
    pub seconds: f64,
    /// Load threads (`min(nproc, 4)`).
    pub p: usize,
    /// Logical cores.
    pub nproc: usize,
    /// Git commit of the checkout, when it is one.
    pub commit: String,
}

impl RunInfo {
    /// The `# …` header line.
    pub fn header(&self, mode: &str) -> String {
        format!(
            "# hepquery-benchmark {mode} workload={} seed={} seconds={} P={} nproc={} commit={}",
            self.workload.name(),
            self.seed,
            self.seconds,
            self.p,
            self.nproc,
            self.commit
        )
    }
}

/// The commit of the checkout, read from `.git` in the working
/// directory without running git; `unknown` outside a repository (the
/// driver's checkouts are plain directories).
pub fn git_commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let commit = match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}")).unwrap_or_default(),
        None => head.to_string(),
    };
    let commit = commit.trim();
    if commit.is_empty() {
        "unknown".to_string()
    } else {
        commit.chars().take(12).collect()
    }
}

/// Human-readable detail: table facts, per-point p50 / highest
/// supported percentile / sample count, then every metric by name.
pub fn detail(info: &RunInfo, m: &Measured, metrics: &[Metric]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{}", info.header("run"));
    let _ = writeln!(
        out,
        "# table: {} events, {} row groups, {:.2} MB decoded, {:.2} MB stored, fingerprint {:016x}",
        m.table.rows,
        m.table.groups,
        m.table.decoded_bytes as f64 / 1e6,
        m.table.compressed_bytes as f64 / 1e6,
        m.table.fingerprint
    );
    let _ = writeln!(
        out,
        "# window: {} units of {} ops, {:.3} s wall, {:.3} s cpu, attempted={} failed={}",
        m.unit_walls.len(),
        m.unit_ops,
        m.unit_walls.iter().sum::<f64>(),
        m.cpu_s,
        m.attempted,
        m.failed
    );
    for note in &m.notes {
        let _ = writeln!(out, "# {note}");
    }
    let _ = writeln!(
        out,
        "{:<22} {:>12} {:>8} {:>12} {:>7}",
        "point", "p50_ms", "pXX", "pXX_ms", "n"
    );
    for p in &m.points {
        if p.samples.is_empty() {
            let _ = writeln!(
                out,
                "{:<22} {:>12} {:>8} {:>12} {:>7}",
                p.name, "-", "-", "-", 0
            );
            continue;
        }
        let mut s = p.samples.clone();
        s.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let q = highest_supported_quantile(s.len());
        let _ = writeln!(
            out,
            "{:<22} {:>12.4} {:>8} {:>12.4} {:>7}",
            p.name,
            quantile_sorted(&s, 0.5) * 1e3,
            format!("p{}", q * 100.0),
            quantile_sorted(&s, q) * 1e3,
            s.len()
        );
    }
    let n = m.latencies.len();
    let _ = writeln!(
        out,
        "# latency sample: n={n}, {} beyond p99, pooled median {:.4} ms",
        (n as f64 * 0.01).floor(),
        median(&mut m.latencies.clone()) * 1e3
    );
    for metric in metrics {
        let _ = writeln!(
            out,
            "{:<48} {:>18.9} {}",
            metric.name, metric.value, metric.unit
        );
    }
    out
}

/// The last stdout line the driver parses: exactly the keys `correct`,
/// `attempted`, `failed`, `metrics`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{",
        attempted.max(1)
    );
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, value, m.unit
        );
    }
    out.push_str("}}");
    out
}

/// Parses the `metrics` object of a [`result_line`] back into
/// `(name, value)` pairs — `selfcheck` reads its children's output with it.
pub fn parse_result_line(line: &str) -> Option<(bool, Vec<(String, f64)>)> {
    let correct = line.contains("\"correct\": true");
    let body = line.split_once("\"metrics\": {")?.1;
    let mut out = Vec::new();
    for part in body
        .split("\": {\"value\": ")
        .collect::<Vec<_>>()
        .windows(2)
    {
        let name = part[0].rsplit('"').next()?;
        let value = part[1].split(',').next()?.trim().parse::<f64>().ok()?;
        out.push((name.to_string(), value));
    }
    Some((correct, out))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_round_trips() {
        let metrics = vec![
            Metric {
                name: "setup_s",
                unit: "s",
                value: 0.8127,
            },
            Metric {
                name: "events_per_s",
                unit: "events/s",
                value: 123456.789,
            },
        ];
        let line = result_line(true, 10, 0, &metrics);
        assert!(line
            .starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {"));
        let (correct, parsed) = parse_result_line(&line).unwrap();
        assert!(correct);
        assert_eq!(
            parsed,
            vec![
                ("setup_s".to_string(), 0.8127),
                ("events_per_s".to_string(), 123456.789)
            ]
        );
    }
}
