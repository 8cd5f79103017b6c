//! Standalone benchmark harness for hepquery: five named workloads,
//! twelve end-to-end metrics, sixty-six per-layer metrics timed from
//! outside. See `README.md` in this directory and `BENCHMARK.json` at
//! the repository root.

pub mod layers;
pub mod loadgen;
pub mod measure;
pub mod probes;
pub mod report;
pub mod spans;
pub mod workloads;

/// Default length of one timed window in seconds — `run_seconds` of
/// `BENCHMARK.json` (pinned by `tests/contract.rs`).
pub const RUN_SECONDS: f64 = 15.0;
