//! Per-system circuit breakers over the serving layer's fault stats.
//!
//! A breaker watches the success/failure of one system's recent engine
//! executions in a sliding window. It sees executions only — refusals,
//! queue timeouts and result-cache hits never reach it — so it is fed
//! where the engine returns, not from the service's request-outcome
//! ledger ([`crate::Outcome`]). When the failure
//! rate crosses a threshold the breaker **opens**: admission rejects the
//! system's requests in O(µs) instead of queueing work that will almost
//! certainly fail, exactly the pattern a real serving tier puts in front
//! of a flaky storage backend. After a cooldown the breaker goes
//! **half-open** and admits a bounded number of probe requests; enough
//! probe successes close it again, any probe failure re-opens it.
//!
//! The state machine is deliberately classical:
//!
//! ```text
//!            failure rate ≥ threshold
//!   Closed ───────────────────────────▶ Open
//!     ▲                                  │ cooldown elapsed
//!     │  half_open_probes successes      ▼
//!     └──────────────────────────── HalfOpen
//!                                        │ any probe failure
//!                                        └─────────▶ Open (cooldown restarts)
//! ```
//!
//! Cancellations never feed a breaker: a client hanging up (or a
//! deadline expiring) says nothing about the backend's health.

use std::collections::VecDeque;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Tuning for one [`CircuitBreaker`]. The service builds one breaker per
/// servable system from a single shared config.
#[derive(Clone, Debug)]
pub struct BreakerConfig {
    /// Sliding window: how many recent outcomes the failure rate is
    /// computed over.
    pub window: usize,
    /// Open when `failures / outcomes ≥ failure_threshold` (with at
    /// least `min_samples` outcomes in the window).
    pub failure_threshold: f64,
    /// Outcomes required in the window before the threshold is
    /// evaluated — a single early failure must not trip the breaker.
    pub min_samples: usize,
    /// How long an open breaker rejects before probing (half-open).
    pub cooldown: Duration,
    /// Probes admitted in half-open; this many consecutive successes
    /// close the breaker.
    pub half_open_probes: u32,
}

impl Default for BreakerConfig {
    fn default() -> BreakerConfig {
        BreakerConfig {
            window: 32,
            failure_threshold: 0.5,
            min_samples: 8,
            cooldown: Duration::from_millis(100),
            half_open_probes: 2,
        }
    }
}

/// Where a breaker currently is in its state machine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: all requests admitted, outcomes tracked.
    Closed,
    /// Tripped: requests rejected until the cooldown elapses.
    Open,
    /// Probing: a bounded number of requests admitted to test recovery.
    HalfOpen,
}

impl BreakerState {
    /// Stable lowercase name (metric/gauge label).
    pub fn name(&self) -> &'static str {
        match self {
            BreakerState::Closed => "closed",
            BreakerState::Open => "open",
            BreakerState::HalfOpen => "half_open",
        }
    }

    /// Numeric encoding for gauges: closed=0, half-open=1, open=2.
    pub fn as_gauge(&self) -> f64 {
        match self {
            BreakerState::Closed => 0.0,
            BreakerState::HalfOpen => 1.0,
            BreakerState::Open => 2.0,
        }
    }
}

struct Inner {
    state: BreakerState,
    /// Recent outcomes, `true` = failure; bounded by `config.window`.
    window: VecDeque<bool>,
    failures: usize,
    opened_at: Option<Instant>,
    probes_in_flight: u32,
    probe_successes: u32,
}

/// One system's breaker. All methods are O(1) under a short mutex, so an
/// open breaker rejects in microseconds without touching the scan layer.
pub struct CircuitBreaker {
    config: BreakerConfig,
    inner: Mutex<Inner>,
}

impl CircuitBreaker {
    /// A closed breaker with an empty window.
    pub fn new(config: BreakerConfig) -> CircuitBreaker {
        CircuitBreaker {
            config,
            inner: Mutex::new(Inner {
                state: BreakerState::Closed,
                window: VecDeque::new(),
                failures: 0,
                opened_at: None,
                probes_in_flight: 0,
                probe_successes: 0,
            }),
        }
    }

    /// The current state. Open→half-open is a lazy transition made by
    /// [`CircuitBreaker::try_admit`], so an idle open breaker reports
    /// `Open` even after its cooldown elapsed.
    pub fn state(&self) -> BreakerState {
        self.lock().state
    }

    /// Admission check: `true` admits the request (and, in half-open,
    /// reserves one probe slot). `false` means reject without executing.
    pub fn try_admit(&self) -> bool {
        let mut inner = self.lock();
        match inner.state {
            BreakerState::Closed => true,
            BreakerState::Open => {
                let cooled = inner
                    .opened_at
                    .is_some_and(|t| t.elapsed() >= self.config.cooldown);
                if !cooled {
                    return false;
                }
                inner.state = BreakerState::HalfOpen;
                inner.probes_in_flight = 1;
                inner.probe_successes = 0;
                true
            }
            BreakerState::HalfOpen => {
                if inner.probes_in_flight >= self.config.half_open_probes {
                    return false;
                }
                inner.probes_in_flight += 1;
                true
            }
        }
    }

    /// Records one execution outcome. Call once per engine attempt that
    /// actually ran (never for cancellations or admission rejections).
    pub fn record(&self, success: bool) {
        let mut inner = self.lock();
        match inner.state {
            BreakerState::Closed => {
                inner.window.push_back(!success);
                inner.failures += usize::from(!success);
                while inner.window.len() > self.config.window {
                    let evicted = inner.window.pop_front().expect("window non-empty");
                    inner.failures -= usize::from(evicted);
                }
                let n = inner.window.len();
                if n >= self.config.min_samples.max(1)
                    && inner.failures as f64 / n as f64 >= self.config.failure_threshold
                {
                    Self::trip(&mut inner);
                }
            }
            BreakerState::HalfOpen => {
                inner.probes_in_flight = inner.probes_in_flight.saturating_sub(1);
                if success {
                    inner.probe_successes += 1;
                    if inner.probe_successes >= self.config.half_open_probes {
                        inner.state = BreakerState::Closed;
                        inner.window.clear();
                        inner.failures = 0;
                        inner.opened_at = None;
                    }
                } else {
                    Self::trip(&mut inner);
                }
            }
            // A request admitted while closed can finish after the
            // breaker opened; its outcome is stale — ignore it.
            BreakerState::Open => {}
        }
    }

    fn trip(inner: &mut Inner) {
        inner.state = BreakerState::Open;
        inner.opened_at = Some(Instant::now());
        inner.window.clear();
        inner.failures = 0;
        inner.probes_in_flight = 0;
        inner.probe_successes = 0;
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> BreakerConfig {
        BreakerConfig {
            window: 8,
            failure_threshold: 0.5,
            min_samples: 4,
            cooldown: Duration::from_millis(10),
            half_open_probes: 2,
        }
    }

    #[test]
    fn closed_breaker_admits_and_stays_closed_on_success() {
        let b = CircuitBreaker::new(config());
        for _ in 0..20 {
            assert!(b.try_admit());
            b.record(true);
        }
        assert_eq!(b.state(), BreakerState::Closed);
    }

    #[test]
    fn min_samples_guards_against_early_failures() {
        let b = CircuitBreaker::new(config());
        b.record(false);
        b.record(false);
        b.record(false);
        assert_eq!(b.state(), BreakerState::Closed, "below min_samples");
        b.record(false);
        assert_eq!(b.state(), BreakerState::Open, "4 samples, 100% failure");
    }

    #[test]
    fn failure_rate_over_window_opens_breaker() {
        let b = CircuitBreaker::new(config());
        // Alternate: 50% failure rate meets the threshold exactly at the
        // fourth sample (min_samples).
        b.record(true);
        b.record(false);
        b.record(true);
        b.record(false);
        assert_eq!(b.state(), BreakerState::Open);
        assert!(!b.try_admit(), "open breaker rejects before cooldown");
    }

    #[test]
    fn window_slides_old_failures_out() {
        let b = CircuitBreaker::new(config());
        // One early failure, flushed out by a window's worth of
        // successes...
        b.record(false);
        for _ in 0..8 {
            b.record(true);
        }
        // ...no longer counts: three fresh failures are 3/8, under the
        // threshold.
        for _ in 0..3 {
            b.record(false);
        }
        assert_eq!(b.state(), BreakerState::Closed);
        // The fourth makes 4/8 in the window — exactly the threshold.
        b.record(false);
        assert_eq!(b.state(), BreakerState::Open);
    }

    #[test]
    fn open_to_half_open_to_closed_with_probe_accounting() {
        let b = CircuitBreaker::new(config());
        for _ in 0..4 {
            b.record(false);
        }
        assert_eq!(b.state(), BreakerState::Open);
        std::thread::sleep(Duration::from_millis(15));
        // First admit after cooldown is the first probe.
        assert!(b.try_admit());
        assert_eq!(b.state(), BreakerState::HalfOpen);
        // Second probe slot is available; a third concurrent probe is not.
        assert!(b.try_admit());
        assert!(
            !b.try_admit(),
            "probe slots are bounded by half_open_probes"
        );
        b.record(true);
        assert_eq!(
            b.state(),
            BreakerState::HalfOpen,
            "one success is not enough"
        );
        // The finished probe freed its slot.
        assert!(b.try_admit());
        b.record(true);
        assert_eq!(
            b.state(),
            BreakerState::Closed,
            "enough probe successes close"
        );
        assert!(b.try_admit());
    }

    #[test]
    fn probe_failure_reopens_and_cooldown_restarts() {
        let b = CircuitBreaker::new(config());
        for _ in 0..4 {
            b.record(false);
        }
        std::thread::sleep(Duration::from_millis(15));
        assert!(b.try_admit());
        b.record(false);
        assert_eq!(b.state(), BreakerState::Open, "probe failure re-opens");
        assert!(!b.try_admit(), "cooldown restarted at the probe failure");
        std::thread::sleep(Duration::from_millis(15));
        assert!(b.try_admit(), "probes again after the second cooldown");
        b.record(true);
        b.record(true);
        assert_eq!(b.state(), BreakerState::Closed);
    }

    #[test]
    fn stale_outcomes_while_open_are_ignored() {
        let b = CircuitBreaker::new(config());
        for _ in 0..4 {
            b.record(false);
        }
        assert_eq!(b.state(), BreakerState::Open);
        // A request admitted before the trip reports late.
        b.record(true);
        b.record(false);
        assert_eq!(b.state(), BreakerState::Open);
        assert!(!b.try_admit());
    }
}
