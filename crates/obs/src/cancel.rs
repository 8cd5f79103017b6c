//! Cooperative cancellation: a cheap, cloneable token threaded from the
//! serving layer down into the scan loops.
//!
//! Design mirrors [`crate::TraceCtx`]: a disabled token (the default) is
//! an `Option::None` and every check is a single branch — no clock read,
//! no atomic load — so the paper-fairness hot path is untouched. An
//! enabled token is an `Arc` around an `AtomicBool` plus an optional
//! deadline `Instant`; engines call [`CancelToken::check`] once per row
//! group and bubble the typed [`Cancelled`] payload up through their
//! error enums.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use crate::span::Stage;

/// Why a query was cancelled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CancelReason {
    /// `CancelToken::cancel()` was called (the client abandoned the
    /// query).
    Explicit,
    /// The deadline carried by the token passed.
    DeadlineExceeded,
}

impl CancelReason {
    /// Stable lower-case name for metrics and JSON.
    pub fn name(&self) -> &'static str {
        match self {
            CancelReason::Explicit => "explicit",
            CancelReason::DeadlineExceeded => "deadline",
        }
    }
}

/// Typed payload of a cooperative cancellation: where the query was
/// stopped and how much work it had completed. `rows_processed` counts
/// rows whose processing *finished* before the check fired, so it can
/// exceed the deadline's row count by at most one row group.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cancelled {
    /// The stage that observed the cancellation.
    pub stage: Stage,
    /// Rows fully processed before the query stopped.
    pub rows_processed: u64,
    /// Explicit cancel vs expired deadline.
    pub reason: CancelReason,
}

impl std::fmt::Display for Cancelled {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "cancelled ({}) in {} after {} rows",
            self.reason.name(),
            self.stage.name(),
            self.rows_processed
        )
    }
}

impl std::error::Error for Cancelled {}

struct CancelInner {
    cancelled: AtomicBool,
    deadline: Option<Instant>,
}

impl CancelInner {
    fn tripped(&self) -> Option<CancelReason> {
        if self.cancelled.load(Ordering::Relaxed) {
            return Some(CancelReason::Explicit);
        }
        match self.deadline {
            Some(d) if Instant::now() >= d => Some(CancelReason::DeadlineExceeded),
            _ => None,
        }
    }
}

/// A cooperative cancellation token. Cloning shares the underlying
/// flag; the default token is disabled and free to check.
#[derive(Clone, Default)]
pub struct CancelToken {
    inner: Option<Arc<CancelInner>>,
}

impl CancelToken {
    /// A disabled token: never trips, checks are a single branch.
    pub fn none() -> CancelToken {
        CancelToken::default()
    }

    /// An enabled token with no deadline — trips only on [`cancel`].
    ///
    /// [`cancel`]: CancelToken::cancel
    pub fn new() -> CancelToken {
        CancelToken {
            inner: Some(Arc::new(CancelInner {
                cancelled: AtomicBool::new(false),
                deadline: None,
            })),
        }
    }

    /// An enabled token that also trips once `deadline` passes.
    pub fn with_deadline(deadline: Instant) -> CancelToken {
        CancelToken {
            inner: Some(Arc::new(CancelInner {
                cancelled: AtomicBool::new(false),
                deadline: Some(deadline),
            })),
        }
    }

    /// Whether this token can ever trip.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// The deadline carried by this token, if any.
    pub fn deadline(&self) -> Option<Instant> {
        self.inner.as_ref().and_then(|i| i.deadline)
    }

    /// Requests cancellation. No-op on a disabled token.
    pub fn cancel(&self) {
        if let Some(inner) = &self.inner {
            inner.cancelled.store(true, Ordering::Relaxed);
        }
    }

    /// Whether the token has tripped (explicitly or by deadline).
    pub fn is_cancelled(&self) -> bool {
        match &self.inner {
            Some(inner) => inner.tripped().is_some(),
            None => false,
        }
    }

    /// The hot-loop check: returns `Err(Cancelled)` once the token has
    /// tripped, stamping the observing stage and the rows completed so
    /// far. On a disabled token this is a single `None` branch.
    #[inline]
    pub fn check(&self, stage: Stage, rows_processed: u64) -> Result<(), Cancelled> {
        match &self.inner {
            None => Ok(()),
            Some(inner) => match inner.tripped() {
                None => Ok(()),
                Some(reason) => Err(Cancelled {
                    stage,
                    rows_processed,
                    reason,
                }),
            },
        }
    }
}

impl std::fmt::Debug for CancelToken {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.inner {
            None => write!(f, "CancelToken(disabled)"),
            Some(inner) => write!(
                f,
                "CancelToken(cancelled={}, deadline={})",
                inner.cancelled.load(Ordering::Relaxed),
                inner.deadline.is_some()
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn disabled_token_never_trips() {
        let t = CancelToken::none();
        assert!(!t.is_enabled());
        t.cancel();
        assert!(!t.is_cancelled());
        assert!(t.check(Stage::Scan, 100).is_ok());
    }

    #[test]
    fn explicit_cancel_trips() {
        let t = CancelToken::new();
        assert!(t.check(Stage::Scan, 0).is_ok());
        t.cancel();
        let e = t.check(Stage::Decode, 42).unwrap_err();
        assert_eq!(e.reason, CancelReason::Explicit);
        assert_eq!(e.stage, Stage::Decode);
        assert_eq!(e.rows_processed, 42);
    }

    #[test]
    fn expired_deadline_trips() {
        let t = CancelToken::with_deadline(Instant::now() - Duration::from_millis(1));
        let e = t.check(Stage::Scan, 7).unwrap_err();
        assert_eq!(e.reason, CancelReason::DeadlineExceeded);
        assert_eq!(e.rows_processed, 7);
    }

    #[test]
    fn future_deadline_does_not_trip() {
        let t = CancelToken::with_deadline(Instant::now() + Duration::from_secs(3600));
        assert!(t.check(Stage::Scan, 0).is_ok());
        assert!(!t.is_cancelled());
    }

    #[test]
    fn clone_shares_flag() {
        let t = CancelToken::new();
        let c = t.clone();
        c.cancel();
        assert!(t.is_cancelled());
    }

    #[test]
    fn cancelled_displays_context() {
        let c = Cancelled {
            stage: Stage::Scan,
            rows_processed: 512,
            reason: CancelReason::DeadlineExceeded,
        };
        let s = c.to_string();
        assert!(s.contains("deadline"), "{s}");
        assert!(s.contains("scan"), "{s}");
        assert!(s.contains("512"), "{s}");
    }
}
