//! Span trees: linked, exportable view of one query's recorded spans.

use std::collections::BTreeMap;

use crate::json_escape;
use crate::span::{SpanId, SpanRecord, Stage};

/// One node of a [`SpanTree`].
#[derive(Clone, Debug, PartialEq)]
pub struct SpanNode {
    /// The completed span.
    pub span: SpanRecord,
    /// Child spans, ordered by start time.
    pub children: Vec<SpanNode>,
}

/// The spans of one query execution, linked parent→child.
///
/// Roots are spans with no parent (or whose parent was never recorded),
/// ordered by start time. A tree drained from a disabled
/// [`crate::TraceCtx`] is empty.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SpanTree {
    /// Top-level spans, ordered by start time.
    pub roots: Vec<SpanNode>,
}

impl SpanTree {
    /// Links flat records into a tree. Records whose parent id is
    /// missing from the batch become roots.
    pub fn from_records(records: Vec<SpanRecord>) -> SpanTree {
        let ids: std::collections::BTreeSet<SpanId> = records.iter().map(|r| r.id).collect();
        let mut children: BTreeMap<SpanId, Vec<SpanRecord>> = BTreeMap::new();
        let mut roots: Vec<SpanRecord> = Vec::new();
        for r in records {
            match r.parent {
                Some(p) if ids.contains(&p) => children.entry(p).or_default().push(r),
                _ => roots.push(r),
            }
        }
        fn build(r: SpanRecord, children: &mut BTreeMap<SpanId, Vec<SpanRecord>>) -> SpanNode {
            let mut kids: Vec<SpanNode> = children
                .remove(&r.id)
                .unwrap_or_default()
                .into_iter()
                .map(|c| build(c, children))
                .collect();
            kids.sort_by_key(|n| (n.span.start_ns, n.span.id));
            SpanNode {
                span: r,
                children: kids,
            }
        }
        let mut nodes: Vec<SpanNode> = roots.into_iter().map(|r| build(r, &mut children)).collect();
        nodes.sort_by_key(|n| (n.span.start_ns, n.span.id));
        SpanTree { roots: nodes }
    }

    /// Whether no spans were recorded.
    pub fn is_empty(&self) -> bool {
        self.roots.is_empty()
    }

    /// Every span in the tree, depth-first, pre-order.
    pub fn flatten(&self) -> Vec<&SpanRecord> {
        let mut out = Vec::new();
        fn walk<'a>(n: &'a SpanNode, out: &mut Vec<&'a SpanRecord>) {
            out.push(&n.span);
            for c in &n.children {
                walk(c, out);
            }
        }
        for r in &self.roots {
            walk(r, &mut out);
        }
        out
    }

    /// Total number of spans.
    pub fn len(&self) -> usize {
        self.flatten().len()
    }

    /// Sum of root-span durations, seconds — the traced wall-clock.
    pub fn total_seconds(&self) -> f64 {
        self.roots
            .iter()
            .map(|r| r.span.duration_ns as f64 / 1e9)
            .sum()
    }

    /// Exclusive (self) time per stage, in seconds, descending. A
    /// span's self time is its duration minus the summed durations of
    /// its direct children, floored at zero (parallel children can
    /// overlap the parent's timeline).
    pub fn stage_seconds(&self) -> Vec<(Stage, f64)> {
        let mut totals: BTreeMap<Stage, f64> = BTreeMap::new();
        fn walk(n: &SpanNode, totals: &mut BTreeMap<Stage, f64>) {
            let child_ns: u64 = n.children.iter().map(|c| c.span.duration_ns).sum();
            let self_ns = n.span.duration_ns.saturating_sub(child_ns);
            *totals.entry(n.span.stage).or_default() += self_ns as f64 / 1e9;
            for c in &n.children {
                walk(c, totals);
            }
        }
        for r in &self.roots {
            walk(r, &mut totals);
        }
        let mut out: Vec<(Stage, f64)> = totals.into_iter().collect();
        out.sort_by(|a, b| b.1.total_cmp(&a.1));
        out
    }

    /// Fraction of the first root span's duration covered by the
    /// summed durations of its direct children. `None` when the tree
    /// is empty, the root has no children, or the root's duration is
    /// zero. Meaningful for single-threaded runs where children are
    /// sequential; with parallel workers the fraction can exceed 1.
    pub fn root_child_coverage(&self) -> Option<f64> {
        let root = self.roots.first()?;
        if root.children.is_empty() || root.span.duration_ns == 0 {
            return None;
        }
        let child_ns: u64 = root.children.iter().map(|c| c.span.duration_ns).sum();
        Some(child_ns as f64 / root.span.duration_ns as f64)
    }

    /// Plain-text rendering: one line per span, two-space indentation,
    /// stage and label plus counters. With `redact_durations` the
    /// timing columns are omitted — this is the golden-snapshot format
    /// (structure is deterministic, durations are not).
    pub fn render(&self, redact_durations: bool) -> String {
        let mut out = String::new();
        fn walk(n: &SpanNode, depth: usize, redact: bool, out: &mut String) {
            for _ in 0..depth {
                out.push_str("  ");
            }
            out.push_str(n.span.stage.name());
            if !n.span.label.is_empty() {
                out.push_str(&format!(" [{}]", n.span.label));
            }
            if n.span.rows_in > 0 || n.span.rows_out > 0 {
                out.push_str(&format!(" rows={}→{}", n.span.rows_in, n.span.rows_out));
            }
            if n.span.bytes > 0 {
                out.push_str(&format!(" bytes={}", n.span.bytes));
            }
            if !redact {
                out.push_str(&format!(
                    " start_us={} dur_us={}",
                    n.span.start_ns / 1_000,
                    n.span.duration_ns / 1_000
                ));
            }
            out.push('\n');
            for c in &n.children {
                walk(c, depth + 1, redact, out);
            }
        }
        for r in &self.roots {
            walk(r, 0, redact_durations, &mut out);
        }
        out
    }

    /// Nested JSON export: each span is an object with `stage`,
    /// `label`, timing in microseconds, counters and a `children`
    /// array.
    pub fn to_json(&self) -> String {
        fn node(n: &SpanNode, out: &mut String) {
            out.push_str(&format!(
                "{{\"id\":{},\"stage\":\"{}\",\"label\":\"{}\",\"tid\":{},\"start_us\":{:.3},\"dur_us\":{:.3},\"rows_in\":{},\"rows_out\":{},\"bytes\":{},\"children\":[",
                n.span.id,
                n.span.stage.name(),
                json_escape(&n.span.label),
                n.span.tid,
                n.span.start_ns as f64 / 1e3,
                n.span.duration_ns as f64 / 1e3,
                n.span.rows_in,
                n.span.rows_out,
                n.span.bytes,
            ));
            for (i, c) in n.children.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                node(c, out);
            }
            out.push_str("]}");
        }
        let mut out = String::from("[");
        for (i, r) in self.roots.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            node(r, &mut out);
        }
        out.push(']');
        out
    }

    /// chrome://tracing (and Perfetto) compatible export: a JSON array
    /// of complete (`"ph":"X"`) events with microsecond timestamps,
    /// one event per span, `tid` preserved from the recording thread.
    pub fn to_chrome_trace(&self) -> String {
        let mut out = String::from("[");
        let mut first = true;
        for span in self.flatten() {
            if !first {
                out.push(',');
            }
            first = false;
            let name = if span.label.is_empty() {
                span.stage.name().to_string()
            } else {
                format!("{} {}", span.stage.name(), span.label)
            };
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":{},\"args\":{{\"rows_in\":{},\"rows_out\":{},\"bytes\":{}}}}}",
                json_escape(&name),
                span.stage.name(),
                span.start_ns as f64 / 1e3,
                span.duration_ns as f64 / 1e3,
                span.tid,
                span.rows_in,
                span.rows_out,
                span.bytes,
            ));
        }
        out.push(']');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(
        id: SpanId,
        parent: Option<SpanId>,
        stage: Stage,
        start_ns: u64,
        dur: u64,
    ) -> SpanRecord {
        SpanRecord {
            id,
            parent,
            stage,
            label: String::new(),
            tid: 1,
            start_ns,
            duration_ns: dur,
            rows_in: 0,
            rows_out: 0,
            bytes: 0,
        }
    }

    #[test]
    fn links_records_into_tree() {
        // Drop order: children recorded before parents.
        let tree = SpanTree::from_records(vec![
            rec(3, Some(1), Stage::Aggregate, 500, 400),
            rec(2, Some(1), Stage::Scan, 100, 300),
            rec(1, None, Stage::Query, 0, 1000),
        ]);
        assert_eq!(tree.roots.len(), 1);
        assert_eq!(tree.len(), 3);
        let root = &tree.roots[0];
        assert_eq!(root.children.len(), 2);
        // Children sorted by start time, not record order.
        assert_eq!(root.children[0].span.stage, Stage::Scan);
        assert_eq!(root.children[1].span.stage, Stage::Aggregate);
        assert_eq!(tree.root_child_coverage(), Some(0.7));
    }

    #[test]
    fn orphan_parent_becomes_root() {
        let tree = SpanTree::from_records(vec![rec(7, Some(99), Stage::Recovery, 10, 5)]);
        assert_eq!(tree.roots.len(), 1);
        assert_eq!(tree.roots[0].span.stage, Stage::Recovery);
    }

    #[test]
    fn stage_seconds_is_exclusive_time() {
        let tree = SpanTree::from_records(vec![
            rec(1, None, Stage::Query, 0, 1_000_000_000),
            rec(2, Some(1), Stage::Scan, 0, 600_000_000),
        ]);
        let totals: BTreeMap<Stage, f64> = tree.stage_seconds().into_iter().collect();
        assert!((totals[&Stage::Scan] - 0.6).abs() < 1e-9);
        assert!((totals[&Stage::Query] - 0.4).abs() < 1e-9);
    }

    #[test]
    fn render_redacts_durations() {
        let tree = SpanTree::from_records(vec![
            rec(1, None, Stage::Query, 0, 1000),
            rec(2, Some(1), Stage::Scan, 100, 300),
        ]);
        let golden = tree.render(true);
        assert_eq!(golden, "query\n  scan\n");
        let full = tree.render(false);
        assert!(full.contains("dur_us="));
    }

    #[test]
    fn exports_are_valid_shapes() {
        let mut r = rec(1, None, Stage::Query, 0, 1000);
        r.label = "Q5 \"quoted\"".to_string();
        let tree = SpanTree::from_records(vec![r, rec(2, Some(1), Stage::Scan, 100, 300)]);
        let json = tree.to_json();
        assert!(json.starts_with('[') && json.ends_with(']'));
        assert!(json.contains("\\\"quoted\\\""));
        assert!(json.contains("\"stage\":\"scan\""));
        let chrome = tree.to_chrome_trace();
        assert!(chrome.starts_with('[') && chrome.ends_with(']'));
        assert!(chrome.contains("\"ph\":\"X\""));
        assert!(chrome.contains("\"pid\":1"));
    }
}
