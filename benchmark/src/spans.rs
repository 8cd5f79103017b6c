//! Driver-side span recorder for the traced run.
//!
//! Spans are recorded only here, around the harness's calls into each
//! layer's public functions — no program file is edited and no named
//! metric depends on the program's internal span tree. Spans live in a
//! `Vec` and are written to `benchmark/out/trace-<workload>.json` when
//! the traced run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span. `parent` is the id of the span that was open when
/// this one began (`None` for a root, which groups a phase); `op` is the
/// workload operation the span belongs to — the name of its ancestor
/// directly below the root — so all spans of one operation share it.
#[derive(Clone, Debug)]
pub struct Span {
    /// Index in the recorder (stable id).
    pub id: usize,
    /// Enclosing span.
    pub parent: Option<usize>,
    /// Layer (crate) the span is charged to.
    pub layer: String,
    /// What ran.
    pub name: String,
    /// Start, nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder's epoch.
    pub end_ns: u64,
    /// Workload operation this span belongs to.
    pub op: String,
    /// Counts taken at the same boundary (rows, bytes, chunks, …).
    pub counts: BTreeMap<&'static str, u64>,
}

/// The recorder: a flat span list plus the stack of open spans.
pub struct Recorder {
    epoch: Instant,
    workload: String,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    /// A recorder for one workload's traced run.
    pub fn new(workload: &str) -> Recorder {
        Recorder {
            epoch: Instant::now(),
            workload: workload.to_string(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn begin(&mut self, layer: &str, name: &str) -> usize {
        let id = self.spans.len();
        let parent = self.open.last().copied();
        // Root spans group a phase; the spans directly below a root are
        // the workload's operations, and everything under one shares its name.
        let op = match parent {
            Some(p) if self.spans[p].parent.is_some() => self.spans[p].op.clone(),
            _ => name.to_string(),
        };
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent,
            layer: layer.to_string(),
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
            op,
            counts: BTreeMap::new(),
        });
        self.open.push(id);
        id
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn end(&mut self, id: usize) {
        let end_ns = self.now_ns();
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans must close innermost-first");
        self.spans[id].end_ns = end_ns;
    }

    /// Attaches a count to a span.
    pub fn count(&mut self, id: usize, key: &'static str, value: u64) {
        *self.spans[id].counts.entry(key).or_insert(0) += value;
    }

    /// Runs `f` inside a span and returns its result and duration.
    pub fn scope<T>(&mut self, layer: &str, name: &str, f: impl FnOnce() -> T) -> (T, f64) {
        let id = self.begin(layer, name);
        let out = std::hint::black_box(f());
        self.end(id);
        (out, self.seconds(id))
    }

    /// Records an already-measured interval (e.g. queue wait reported by
    /// the service) as a child of the innermost open span, starting
    /// `offset_s` after that span and lasting `seconds`.
    pub fn record(&mut self, layer: &str, name: &str, offset_s: f64, seconds: f64) -> usize {
        let id = self.begin(layer, name);
        self.open.pop();
        let base = self.spans[id]
            .parent
            .map_or(self.spans[id].start_ns, |p| self.spans[p].start_ns);
        self.spans[id].start_ns = base + (offset_s.max(0.0) * 1e9) as u64;
        self.spans[id].end_ns = self.spans[id].start_ns + (seconds.max(0.0) * 1e9) as u64;
        id
    }

    /// A span's duration in seconds.
    pub fn seconds(&self, id: usize) -> f64 {
        (self.spans[id].end_ns - self.spans[id].start_ns) as f64 * 1e-9
    }

    /// A span's *self* time: its duration minus the part of the interval
    /// its direct children cover.
    pub fn self_seconds(&self, id: usize) -> f64 {
        let children: f64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-9)
            .sum();
        (self.seconds(id) - children).max(0.0)
    }

    /// All spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time summed per layer, descending.
    pub fn self_seconds_by_layer(&self) -> Vec<(String, f64)> {
        let mut by: BTreeMap<&str, f64> = BTreeMap::new();
        for s in &self.spans {
            *by.entry(&s.layer).or_insert(0.0) += self.self_seconds(s.id);
        }
        let mut out: Vec<(String, f64)> = by.into_iter().map(|(k, v)| (k.to_string(), v)).collect();
        out.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite"));
        out
    }

    /// The span file: one JSON object with the workload and the spans.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"workload\":\"{}\",\"spans\":[",
            obs::json_escape(&self.workload)
        );
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "\n{{\"id\":{},\"parent\":{},\"layer\":\"{}\",\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"workload\":\"{}\",\"op\":\"{}\",\"self_ns\":{},\"counts\":{{",
                s.id,
                parent,
                obs::json_escape(&s.layer),
                obs::json_escape(&s.name),
                s.start_ns,
                s.end_ns,
                obs::json_escape(&self.workload),
                obs::json_escape(&s.op),
                (self.self_seconds(s.id) * 1e9) as u64,
            );
            for (j, (k, v)) in s.counts.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(out, "\"{k}\":{v}");
            }
            out.push_str("}}");
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_ops_are_inherited() {
        let mut r = Recorder::new("w");
        let pass = r.begin("core", "pass");
        let root = r.begin("core", "Presto/Q1");
        let child = r.begin("engine-sql", "parse");
        std::thread::sleep(std::time::Duration::from_millis(2));
        r.end(child);
        r.count(child, "rows", 7);
        r.end(root);
        r.end(pass);
        assert_eq!(r.spans()[child].parent, Some(root));
        assert_eq!(r.spans()[root].op, "Presto/Q1");
        assert_eq!(r.spans()[child].op, "Presto/Q1");
        assert!(r.seconds(root) >= r.seconds(child));
        let slack = r.seconds(root) - r.seconds(child) - r.self_seconds(root);
        assert!(slack.abs() < 1e-9);
        let json = r.to_json();
        assert!(json.contains("\"layer\":\"engine-sql\""));
        assert!(json.contains("\"rows\":7"));
    }

    #[test]
    fn recorded_intervals_nest_under_the_open_span() {
        let mut r = Recorder::new("w");
        let root = r.begin("query-service", "request");
        let q = r.record("query-service", "queue_wait", 0.001, 0.002);
        r.end(root);
        assert_eq!(r.spans()[q].parent, Some(root));
        assert!((r.seconds(q) - 0.002).abs() < 1e-9);
    }
}
