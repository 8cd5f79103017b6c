//! Service-level counters and latency aggregation.
//!
//! Counters are lock-free atomics bumped on every request outcome; latency
//! samples (end-to-end and queue-wait seconds) are appended under a mutex
//! and aggregated into percentiles on [`ServiceStats::snapshot`]. Sample
//! vectors grow with completed requests — fine for benchmark-length runs,
//! which is the service's scope.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use parking_lot::Mutex;

/// Live counters of a running [`crate::QueryService`].
pub struct ServiceStats {
    started: Instant,
    submitted: AtomicU64,
    completed: AtomicU64,
    rejected: AtomicU64,
    shedded: AtomicU64,
    timed_out: AtomicU64,
    cancelled: AtomicU64,
    failed: AtomicU64,
    total_latencies: Mutex<Vec<f64>>,
    queue_waits: Mutex<Vec<f64>>,
}

/// A point-in-time aggregation of [`ServiceStats`].
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct StatsSnapshot {
    /// Requests offered to [`crate::QueryService::submit`], including ones
    /// admission control rejected.
    pub submitted: u64,
    /// Requests answered with a result (cached or executed).
    pub completed: u64,
    /// Requests refused at submission because the queue was full, or
    /// because the system's circuit breaker was open.
    pub rejected: u64,
    /// Requests refused at submission by load shedding: the estimated
    /// queue wait already exceeded the deadline budget.
    pub shedded: u64,
    /// Requests whose deadline expired while queued.
    pub timed_out: u64,
    /// Requests cancelled while running (explicit cancel or deadline
    /// expiry tripping the request's cancel token mid-execution).
    pub cancelled: u64,
    /// Requests whose engine execution failed.
    pub failed: u64,
    /// Seconds since the service started.
    pub elapsed_seconds: f64,
    /// Completed requests per second of service lifetime.
    pub qps: f64,
    /// Median end-to-end latency (submission → response) in seconds.
    pub p50_seconds: f64,
    /// 95th-percentile end-to-end latency in seconds.
    pub p95_seconds: f64,
    /// Mean seconds completed requests spent queued before a worker
    /// picked them up.
    pub mean_queue_seconds: f64,
}

/// Nearest-rank percentile of an unsorted sample set; 0.0 when empty.
fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

impl ServiceStats {
    /// Fresh stats anchored at "now".
    pub fn new() -> ServiceStats {
        ServiceStats {
            started: Instant::now(),
            submitted: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            shedded: AtomicU64::new(0),
            timed_out: AtomicU64::new(0),
            cancelled: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            total_latencies: Mutex::new(Vec::new()),
            queue_waits: Mutex::new(Vec::new()),
        }
    }

    pub(crate) fn note_submitted(&self) {
        self.submitted.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn note_rejected(&self) {
        self.rejected.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn note_shedded(&self) {
        self.shedded.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn note_timed_out(&self) {
        self.timed_out.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn note_cancelled(&self) {
        self.cancelled.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn note_failed(&self) {
        self.failed.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn note_completed(&self, total_seconds: f64, queue_seconds: f64) {
        self.completed.fetch_add(1, Ordering::Relaxed);
        self.total_latencies.lock().push(total_seconds);
        self.queue_waits.lock().push(queue_seconds);
    }

    /// Aggregates the counters and latency samples recorded so far.
    pub fn snapshot(&self) -> StatsSnapshot {
        let mut latencies = self.total_latencies.lock().clone();
        latencies.sort_by(|a, b| a.partial_cmp(b).expect("latency is finite"));
        let queue_waits = self.queue_waits.lock();
        let mean_queue_seconds = if queue_waits.is_empty() {
            0.0
        } else {
            queue_waits.iter().sum::<f64>() / queue_waits.len() as f64
        };
        let elapsed_seconds = self.started.elapsed().as_secs_f64();
        let completed = self.completed.load(Ordering::Relaxed);
        StatsSnapshot {
            submitted: self.submitted.load(Ordering::Relaxed),
            completed,
            rejected: self.rejected.load(Ordering::Relaxed),
            shedded: self.shedded.load(Ordering::Relaxed),
            timed_out: self.timed_out.load(Ordering::Relaxed),
            cancelled: self.cancelled.load(Ordering::Relaxed),
            failed: self.failed.load(Ordering::Relaxed),
            elapsed_seconds,
            qps: if elapsed_seconds > 0.0 {
                completed as f64 / elapsed_seconds
            } else {
                0.0
            },
            p50_seconds: percentile(&latencies, 0.50),
            p95_seconds: percentile(&latencies, 0.95),
            mean_queue_seconds,
        }
    }
}

impl Default for ServiceStats {
    fn default() -> ServiceStats {
        ServiceStats::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_nearest_rank() {
        let s: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        assert_eq!(percentile(&s, 0.50), 50.0);
        assert_eq!(percentile(&s, 0.95), 95.0);
        assert_eq!(percentile(&s, 1.0), 100.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(percentile(&[3.0], 0.5), 3.0);
        assert_eq!(percentile(&[3.0], 0.95), 3.0);
    }

    #[test]
    fn snapshot_aggregates_counters_and_latencies() {
        let stats = ServiceStats::new();
        stats.note_submitted();
        stats.note_submitted();
        stats.note_submitted();
        stats.note_rejected();
        stats.note_completed(0.2, 0.1);
        stats.note_completed(0.4, 0.3);
        let snap = stats.snapshot();
        assert_eq!(snap.submitted, 3);
        assert_eq!(snap.completed, 2);
        assert_eq!(snap.rejected, 1);
        assert_eq!(snap.p50_seconds, 0.2);
        assert_eq!(snap.p95_seconds, 0.4);
        assert!((snap.mean_queue_seconds - 0.2).abs() < 1e-12);
        assert!(snap.qps > 0.0);
    }
}
