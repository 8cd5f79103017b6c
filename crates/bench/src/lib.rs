//! # hepbench-bench
//!
//! Two things live here, and performance numbers are neither of them —
//! those come from the standalone `benchmark/` harness declared in
//! `BENCHMARK.json` (seeded workloads, bounded metrics, alternating
//! parent/change pairs).
//!
//! * **CI invariant gates** (`fuzz_diff`, `recovery_sweep`, `serve_smoke`,
//!   `serve_scale --check`, `fig2_scaling --check`, `fig4b_pruning --check`,
//!   `trace_gate`): each hands a body returning its violated invariants to
//!   [`run_gate`], which owns the watchdog, the `FAIL:`/`OK:` lines and the
//!   exit code.
//! * **Table/figure printers** (`table1_conciseness`, `table2_complexity`,
//!   `fig1_tradeoff`, `fig2_scaling`, `fig3_multiplicity`,
//!   `fig4_compute_io`) regenerating the paper's tables and figures (see
//!   DESIGN.md's per-experiment index), plus the `ablations`/`latemat`
//!   Criterion benches comparing design alternatives.
//!
//! Every binary reads its scale from the same environment variables:
//!
//! * `HEPQUERY_EVENTS` — events to generate (each binary has its own
//!   default: 65 536 for the printers, a few thousand for the gates);
//! * `HEPQUERY_ROW_GROUP` — events per row group (the printers default to
//!   `HEPQUERY_EVENTS / 128`, preserving the paper's 128-row-group
//!   structure);
//! * `HEPQUERY_SEED` — generator seed (default the benchmark seed);
//! * `HEPQUERY_WATCHDOG` — seconds a gate body may run before the gate
//!   fails instead of wedging CI (default 600).

pub mod loadgen;

use std::io::Write;
use std::str::FromStr;
use std::sync::{mpsc, Arc};
use std::time::Duration;

use hep_model::generator::build_dataset;
use hep_model::{DatasetSpec, Event};
use nf2_columnar::Table;

/// Reads `name` from the environment, falling back to `default` when it
/// is unset or does not parse.
pub fn env<T: FromStr>(name: &str, default: T) -> T {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Reads the data-set scale from the environment. `default_row_group`
/// `None` keeps the paper's 128-row-group structure at any event count.
pub fn dataset_spec(default_events: usize, default_row_group: Option<usize>) -> DatasetSpec {
    let n_events = env("HEPQUERY_EVENTS", default_events);
    DatasetSpec {
        n_events,
        row_group_size: env(
            "HEPQUERY_ROW_GROUP",
            default_row_group.unwrap_or((n_events / 128).max(1)),
        ),
        seed: env("HEPQUERY_SEED", 0xAD1B70),
    }
}

/// Builds the data set `spec` describes (harnesses run once; nothing is
/// memoized).
pub fn dataset(spec: DatasetSpec) -> (Vec<Event>, Arc<Table>) {
    eprintln!(
        "# data set: {} events, {} per row group ({} groups), seed {:#x}",
        spec.n_events,
        spec.row_group_size,
        spec.n_events.div_ceil(spec.row_group_size),
        spec.seed
    );
    let (events, table) = build_dataset(spec);
    (events, Arc::new(table))
}

/// Runs one CI gate and returns its exit code: `body` runs on its own
/// thread under the `HEPQUERY_WATCHDOG` (seconds, default 600) and
/// returns the invariants it found violated, one message each. Every
/// violation is printed as a `FAIL:` line; a body that hangs or panics
/// fails the gate too, so a wedged engine cannot wedge CI.
pub fn run_gate(name: &str, body: impl FnOnce() -> Vec<String> + Send + 'static) -> i32 {
    let watchdog = Duration::from_secs(env("HEPQUERY_WATCHDOG", 600));
    run_gate_within(name, watchdog, body, &mut std::io::stderr())
}

fn run_gate_within(
    name: &str,
    watchdog: Duration,
    body: impl FnOnce() -> Vec<String> + Send + 'static,
    log: &mut impl Write,
) -> i32 {
    let (done_tx, done_rx) = mpsc::channel();
    let worker = std::thread::spawn(move || {
        let _ = done_tx.send(body());
    });
    let violations = match done_rx.recv_timeout(watchdog) {
        Ok(violations) => {
            worker.join().expect("gate body already returned");
            violations
        }
        // The body is still running: leave its thread behind, the
        // caller exits the process with the code returned here.
        Err(mpsc::RecvTimeoutError::Timeout) => vec![format!(
            "{name} did not finish within {}s — hung engine?",
            watchdog.as_secs_f64()
        )],
        // The sender was dropped without a send: the body panicked.
        Err(mpsc::RecvTimeoutError::Disconnected) => {
            let payload = worker.join().expect_err("gate body dropped its sender");
            let message = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or("non-string panic payload");
            vec![format!("{name} panicked: {message}")]
        }
    };
    for v in &violations {
        let _ = writeln!(log, "FAIL: {v}");
    }
    if violations.is_empty() {
        let _ = writeln!(log, "OK: {name}");
        0
    } else {
        let _ = writeln!(
            log,
            "FAIL: {name}: {} invariant(s) violated",
            violations.len()
        );
        1
    }
}

/// Formats seconds for table output.
pub fn fmt_secs(s: f64) -> String {
    if s >= 100.0 {
        format!("{s:8.1}s")
    } else if s >= 1.0 {
        format!("{s:8.2}s")
    } else {
        format!("{:7.1}ms", s * 1e3)
    }
}

/// Formats USD for table output.
pub fn fmt_usd(c: f64) -> String {
    if c >= 0.01 {
        format!("${c:9.4}")
    } else {
        format!("${c:9.6}")
    }
}

/// Formats byte counts.
pub fn fmt_bytes(b: u64) -> String {
    const UNITS: &[&str] = &["B", "kB", "MB", "GB", "TB"];
    let mut x = b as f64;
    let mut u = 0;
    while x >= 1000.0 && u + 1 < UNITS.len() {
        x /= 1000.0;
        u += 1;
    }
    format!("{x:7.2}{}", UNITS[u])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formatting() {
        assert!(fmt_secs(0.0123).contains("ms"));
        assert!(fmt_secs(12.0).contains('s'));
        assert!(fmt_usd(1.5).starts_with('$'));
        assert_eq!(fmt_bytes(1_500_000).trim(), "1.50MB");
    }

    #[test]
    fn default_spec_sane() {
        let spec = dataset_spec(65_536, None);
        assert!(spec.n_events > 0);
        assert!(spec.row_group_size > 0);
    }

    /// Runs a gate with a generous watchdog and returns (code, log).
    fn gate(body: impl FnOnce() -> Vec<String> + Send + 'static) -> (i32, String) {
        gate_within(Duration::from_secs(60), body)
    }

    fn gate_within(
        watchdog: Duration,
        body: impl FnOnce() -> Vec<String> + Send + 'static,
    ) -> (i32, String) {
        let mut log = Vec::new();
        let code = run_gate_within("demo", watchdog, body, &mut log);
        (code, String::from_utf8(log).expect("utf-8 log"))
    }

    #[test]
    fn clean_gate_exits_zero_and_prints_ok() {
        let (code, log) = gate(Vec::new);
        assert_eq!(code, 0);
        assert_eq!(log, "OK: demo\n");
    }

    #[test]
    fn every_violation_is_printed_and_the_gate_fails() {
        let (code, log) = gate(|| vec!["first broke".into(), "second broke".into()]);
        assert_ne!(code, 0);
        assert!(log.contains("FAIL: first broke\n"), "{log}");
        assert!(log.contains("FAIL: second broke\n"), "{log}");
        assert!(!log.contains("OK"), "{log}");
    }

    #[test]
    fn hung_body_trips_the_watchdog() {
        // The body blocks until the test releases it, so it is hung for
        // exactly as long as the runner waits.
        let (release, blocked) = mpsc::channel::<()>();
        let (code, log) = gate_within(Duration::from_millis(50), move || {
            let _ = blocked.recv();
            Vec::new()
        });
        drop(release);
        assert_ne!(code, 0);
        assert!(log.contains("did not finish within 0.05s"), "{log}");
    }

    #[test]
    fn panicking_body_reports_the_panic_not_a_hang() {
        let (code, log) = gate(|| panic!("histograms diverged at 4 workers"));
        assert_ne!(code, 0);
        assert!(
            log.contains("FAIL: demo panicked: histograms diverged at 4 workers"),
            "{log}"
        );
        assert!(!log.contains("did not finish"), "{log}");
    }
}
