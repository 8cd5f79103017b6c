//! Spans: monotonic timers with parent linkage and per-span counters.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::tree::SpanTree;

/// Typed query stage. Every span is tagged with exactly one stage;
/// free-form detail goes into the span label instead.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Stage {
    /// Root span of one query execution (engine entry to histogram).
    Query,
    /// Query-text parsing and validation.
    Parse,
    /// Planning: schema resolution, projection, predicate analysis,
    /// zone-map pruning decisions.
    Plan,
    /// Scan accounting over row groups (bytes touched).
    Scan,
    /// Zone-map evaluation: row groups proven empty by min/max statistics
    /// and skipped before decode.
    Prune,
    /// Decoding chunk bytes into in-memory values.
    Decode,
    /// Predicate evaluation / selection-vector construction.
    Filter,
    /// Row materialization out of columnar storage.
    Materialize,
    /// Per-row evaluation and histogram aggregation.
    Aggregate,
    /// Time spent queued in the serving layer before a worker picked
    /// the query up.
    QueueWait,
    /// Result-cache probe in the serving layer.
    CacheLookup,
    /// Fault recovery in the scan: one in-place re-read of a chunk whose
    /// read failed with a transient fault.
    Recovery,
}

impl Stage {
    /// Every stage, in display order.
    pub const ALL: [Stage; 12] = [
        Stage::Query,
        Stage::Parse,
        Stage::Plan,
        Stage::Scan,
        Stage::Prune,
        Stage::Decode,
        Stage::Filter,
        Stage::Materialize,
        Stage::Aggregate,
        Stage::QueueWait,
        Stage::CacheLookup,
        Stage::Recovery,
    ];

    /// Stable display name.
    pub fn name(&self) -> &'static str {
        match self {
            Stage::Query => "query",
            Stage::Parse => "parse",
            Stage::Plan => "plan",
            Stage::Scan => "scan",
            Stage::Prune => "prune",
            Stage::Decode => "decode",
            Stage::Filter => "filter",
            Stage::Materialize => "materialize",
            Stage::Aggregate => "aggregate",
            Stage::QueueWait => "queue_wait",
            Stage::CacheLookup => "cache_lookup",
            Stage::Recovery => "recovery",
        }
    }
}

impl std::fmt::Display for Stage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Identifier of one span within a [`TraceCtx`]. Allocation order, so
/// ids are unique per trace but not globally.
pub type SpanId = u64;

/// One completed span.
#[derive(Clone, Debug, PartialEq)]
pub struct SpanRecord {
    /// This span's id (unique within the trace).
    pub id: SpanId,
    /// Parent span, when this span was opened from a [`SpanGuard::ctx`]
    /// child context.
    pub parent: Option<SpanId>,
    /// Typed stage.
    pub stage: Stage,
    /// Free-form detail (query name, group index, dialect, …).
    pub label: String,
    /// Small integer identifying the recording thread (stable within a
    /// process run, first-use order).
    pub tid: u64,
    /// Start offset from the trace epoch, nanoseconds (monotonic clock).
    pub start_ns: u64,
    /// Span duration, nanoseconds.
    pub duration_ns: u64,
    /// Rows entering the stage (0 when not meaningful).
    pub rows_in: u64,
    /// Rows surviving the stage (0 when not meaningful).
    pub rows_out: u64,
    /// Bytes touched by the stage (0 when not meaningful).
    pub bytes: u64,
}

impl SpanRecord {
    /// End offset from the trace epoch, nanoseconds.
    pub fn end_ns(&self) -> u64 {
        self.start_ns + self.duration_ns
    }

    /// Fraction of input rows surviving the stage, when both counters
    /// were set.
    pub fn selectivity(&self) -> Option<f64> {
        if self.rows_in > 0 {
            Some(self.rows_out as f64 / self.rows_in as f64)
        } else {
            None
        }
    }
}

/// Shared state of one enabled trace.
struct TraceInner {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<SpanRecord>>,
}

/// Per-query trace context, threaded through `ExecEnv` into the
/// engines and the storage layer.
///
/// `TraceCtx` is cheap to clone (an `Option<Arc>` plus an id). The
/// default value is *disabled*: opening spans on it performs no clock
/// reads, allocations, or locking. [`TraceCtx::enabled`] turns tracing
/// on; [`SpanGuard::ctx`] derives child contexts whose spans link to
/// the guard's span.
#[derive(Clone, Default)]
pub struct TraceCtx {
    inner: Option<Arc<TraceInner>>,
    parent: Option<SpanId>,
}

impl TraceCtx {
    /// The disabled context (same as `TraceCtx::default()`).
    pub fn disabled() -> TraceCtx {
        TraceCtx::default()
    }

    /// An enabled context whose epoch (timestamp zero) is now.
    pub fn enabled() -> TraceCtx {
        TraceCtx::enabled_since(Instant::now())
    }

    /// An enabled context with an explicit epoch — used by the serving
    /// layer so queue-wait spans recorded retroactively (enqueue
    /// happened before the context existed) still start at offset ≥ 0.
    pub fn enabled_since(epoch: Instant) -> TraceCtx {
        TraceCtx {
            inner: Some(Arc::new(TraceInner {
                epoch,
                next_id: AtomicU64::new(1),
                spans: Mutex::new(Vec::new()),
            })),
            parent: None,
        }
    }

    /// Whether spans opened on this context are recorded.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Opens a span. On a disabled context this is a no-op guard.
    pub fn span(&self, stage: Stage) -> SpanGuard {
        self.span_labeled(stage, String::new())
    }

    /// Opens a span with a label computed only when tracing is enabled
    /// (so disabled traces pay no formatting cost).
    pub fn span_with(&self, stage: Stage, label: impl FnOnce() -> String) -> SpanGuard {
        match &self.inner {
            Some(_) => self.span_labeled(stage, label()),
            None => SpanGuard { active: None },
        }
    }

    fn span_labeled(&self, stage: Stage, label: String) -> SpanGuard {
        let Some(inner) = &self.inner else {
            return SpanGuard { active: None };
        };
        let id = inner.next_id.fetch_add(1, Ordering::Relaxed);
        let start = Instant::now();
        SpanGuard {
            active: Some(ActiveSpan {
                inner: inner.clone(),
                id,
                parent: self.parent,
                stage,
                label,
                start,
                rows_in: 0,
                rows_out: 0,
                bytes: 0,
            }),
        }
    }

    /// Records a span retroactively from explicit start/duration — used
    /// for intervals measured before the context existed (queue wait).
    /// A `start` before the trace epoch is clamped to offset 0.
    pub fn record(&self, stage: Stage, label: &str, start: Instant, duration: Duration) {
        let Some(inner) = &self.inner else { return };
        let start_ns = start
            .checked_duration_since(inner.epoch)
            .unwrap_or(Duration::ZERO)
            .as_nanos() as u64;
        let record = SpanRecord {
            id: inner.next_id.fetch_add(1, Ordering::Relaxed),
            parent: self.parent,
            stage,
            label: label.to_string(),
            tid: current_tid(),
            start_ns,
            duration_ns: duration.as_nanos() as u64,
            rows_in: 0,
            rows_out: 0,
            bytes: 0,
        };
        inner.spans.lock().unwrap().push(record);
    }

    /// Drains every span recorded so far into a [`SpanTree`]. Returns
    /// an empty tree on a disabled context. Spans still open (guards
    /// not yet dropped) are not included.
    pub fn take_tree(&self) -> SpanTree {
        match &self.inner {
            Some(inner) => {
                let records = std::mem::take(&mut *inner.spans.lock().unwrap());
                SpanTree::from_records(records)
            }
            None => SpanTree::default(),
        }
    }
}

impl std::fmt::Debug for TraceCtx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceCtx")
            .field("enabled", &self.is_enabled())
            .field("parent", &self.parent)
            .finish()
    }
}

struct ActiveSpan {
    inner: Arc<TraceInner>,
    id: SpanId,
    parent: Option<SpanId>,
    stage: Stage,
    label: String,
    start: Instant,
    rows_in: u64,
    rows_out: u64,
    bytes: u64,
}

/// RAII guard for an open span: records the span (with its duration)
/// when dropped. On a disabled [`TraceCtx`] every method is a no-op.
pub struct SpanGuard {
    active: Option<ActiveSpan>,
}

impl SpanGuard {
    /// A child context: spans opened on it have this guard's span as
    /// parent. Disabled guards return a disabled context.
    pub fn ctx(&self) -> TraceCtx {
        match &self.active {
            Some(a) => TraceCtx {
                inner: Some(a.inner.clone()),
                parent: Some(a.id),
            },
            None => TraceCtx::disabled(),
        }
    }

    /// Whether this guard records anything (mirrors
    /// [`TraceCtx::is_enabled`]).
    pub fn is_enabled(&self) -> bool {
        self.active.is_some()
    }

    /// Adds to the rows-in counter.
    pub fn add_rows_in(&mut self, n: u64) {
        if let Some(a) = &mut self.active {
            a.rows_in += n;
        }
    }

    /// Adds to the rows-out counter.
    pub fn add_rows_out(&mut self, n: u64) {
        if let Some(a) = &mut self.active {
            a.rows_out += n;
        }
    }

    /// Adds to the bytes counter.
    pub fn add_bytes(&mut self, n: u64) {
        if let Some(a) = &mut self.active {
            a.bytes += n;
        }
    }

    /// Ends the span now (equivalent to dropping the guard).
    pub fn finish(self) {}
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(a) = self.active.take() else { return };
        let duration_ns = a.start.elapsed().as_nanos() as u64;
        let start_ns = a
            .start
            .checked_duration_since(a.inner.epoch)
            .unwrap_or(Duration::ZERO)
            .as_nanos() as u64;
        let record = SpanRecord {
            id: a.id,
            parent: a.parent,
            stage: a.stage,
            label: a.label,
            tid: current_tid(),
            start_ns,
            duration_ns,
            rows_in: a.rows_in,
            rows_out: a.rows_out,
            bytes: a.bytes,
        };
        a.inner.spans.lock().unwrap().push(record);
    }
}

static NEXT_TID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
}

/// Small per-thread integer (first-use order), used as the chrome-trace
/// `tid`.
pub(crate) fn current_tid() -> u64 {
    TID.with(|t| *t)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_ctx_is_noop() {
        let ctx = TraceCtx::disabled();
        assert!(!ctx.is_enabled());
        let mut g = ctx.span(Stage::Scan);
        assert!(!g.is_enabled());
        g.add_rows_in(10);
        let child = g.ctx();
        assert!(!child.is_enabled());
        drop(g);
        assert!(ctx.take_tree().is_empty());
    }

    #[test]
    fn spans_nest_and_time_monotonically() {
        let ctx = TraceCtx::enabled();
        {
            let root = ctx.span_with(Stage::Query, || "Q1".to_string());
            let child_ctx = root.ctx();
            {
                let mut scan = child_ctx.span(Stage::Scan);
                scan.add_rows_in(100);
                scan.add_rows_out(40);
                scan.add_bytes(4096);
            }
            {
                let _agg = child_ctx.span(Stage::Aggregate);
            }
        }
        let tree = ctx.take_tree();
        assert_eq!(tree.roots.len(), 1);
        let root = &tree.roots[0];
        assert_eq!(root.span.stage, Stage::Query);
        assert_eq!(root.span.label, "Q1");
        assert_eq!(root.children.len(), 2);
        assert_eq!(root.children[0].span.stage, Stage::Scan);
        assert_eq!(root.children[0].span.selectivity(), Some(0.4));
        assert_eq!(root.children[0].span.bytes, 4096);
        assert_eq!(root.children[1].span.stage, Stage::Aggregate);
        // Children start after the root and end before it.
        for c in &root.children {
            assert!(c.span.start_ns >= root.span.start_ns);
            assert!(c.span.end_ns() <= root.span.end_ns());
        }
        // Sibling spans are ordered by start time.
        assert!(root.children[0].span.start_ns <= root.children[1].span.start_ns);
        // Draining consumed everything.
        assert!(ctx.take_tree().is_empty());
    }

    #[test]
    fn retroactive_record_clamps_to_epoch() {
        let before = Instant::now();
        std::thread::sleep(Duration::from_millis(1));
        let ctx = TraceCtx::enabled();
        ctx.record(
            Stage::QueueWait,
            "tenant-a",
            before,
            Duration::from_millis(1),
        );
        let tree = ctx.take_tree();
        assert_eq!(tree.roots.len(), 1);
        assert_eq!(tree.roots[0].span.start_ns, 0);
        assert_eq!(tree.roots[0].span.stage, Stage::QueueWait);
    }

    #[test]
    fn enabled_since_backdates_epoch() {
        let enqueued = Instant::now();
        std::thread::sleep(Duration::from_millis(1));
        let ctx = TraceCtx::enabled_since(enqueued);
        let g = ctx.span(Stage::Query);
        drop(g);
        let tree = ctx.take_tree();
        // The span started well after the backdated epoch.
        assert!(tree.roots[0].span.start_ns >= 1_000_000);
    }
}
