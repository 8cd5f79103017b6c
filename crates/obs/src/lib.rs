//! # obs
//!
//! Zero-dependency, thread-safe tracing and metrics for the hepquery
//! workspace.
//!
//! * [`TraceCtx`] / [`SpanGuard`] — hierarchical spans with monotonic
//!   timing, parent linkage and per-span counters (rows in/out, bytes).
//!   A disabled context (the default) is a near-no-op: no clock reads,
//!   no allocation, no locking.
//! * [`Stage`] — the typed taxonomy of query stages (`Parse`, `Plan`,
//!   `Scan`, `Prune`, `Decode`, `Filter`, `Materialize`, `Aggregate`,
//!   `QueueWait`, `CacheLookup`, `Recovery`) plus the `Query` root.
//! * [`SpanTree`] — the recorded spans of one query, exportable as JSON
//!   ([`SpanTree::to_json`]) and as a chrome://tracing-compatible trace
//!   file ([`SpanTree::to_chrome_trace`]).
//! * [`MetricsRegistry`] — a lock-sharded registry of counters, gauges
//!   and log₂-bucketed histograms with point-in-time text and JSON
//!   snapshots.
//! * [`Log2Histogram`] — the mergeable log₂ histogram behind the
//!   registry, exposed for per-thread latency recording with a
//!   deterministic [`Log2Histogram::merge`] afterwards.
//! * [`CancelToken`] / [`Cancelled`] — cooperative cancellation with
//!   deadline propagation, checked at row-group granularity by the
//!   engines. A disabled token (the default) is a single branch.
//!
//! The crate deliberately has no runtime dependencies (not even
//! workspace shims; tests use the vendored `proptest` shim) so every
//! other crate — including the lowest storage layer — can link it
//! without cycles.

mod cancel;
mod metrics;
mod span;
mod tree;

pub use cancel::{CancelReason, CancelToken, Cancelled};
pub use metrics::{HistogramSummary, Log2Histogram, MetricValue, MetricsRegistry, MetricsSnapshot};
pub use span::{SpanGuard, SpanId, SpanRecord, Stage, TraceCtx};
pub use tree::{SpanNode, SpanTree};

/// Escapes a string for embedding in a JSON document. Exposed so
/// downstream crates hand-rolling JSON reports stay consistent with the
/// trace exports.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}
