//! Deterministic fault injection for the scan path.
//!
//! Real QaaS backends sit on storage that fails: reads time out, objects
//! arrive truncated, checksums mismatch, tail latencies spike. The paper's
//! measurements implicitly assume none of that happens; the chaos layer
//! makes the assumption explicit and testable. A [`FaultInjector`] is
//! attached to a scan (via [`crate::ScanRequest::faults`]) and decides, for
//! every physically read `(table fingerprint, row group, leaf)` chunk,
//! whether that read fails — **deterministically**, as a pure function of
//! the injector seed and the chunk coordinates, so a failing run replays
//! bit-for-bit from its seed.
//!
//! Fault classes ([`FaultClass`]):
//!
//! * `Io` — the chunk read fails: the storage errors, or the chunk
//!   arrives truncated or with a checksum that does not match. A reader
//!   handles all three the same way (re-read, then fail typed), so they
//!   are one class;
//! * `Latency` — the read succeeds but only after an injected delay
//!   (exercises deadlines and watchdogs, never corrupts results);
//! * `Panic` — the reader panics mid-scan (exercises worker-pool panic
//!   safety; off unless explicitly enabled).
//!
//! **Transient vs persistent.** `transient_attempts = k > 0` means a
//! faulting chunk fails its first `k` reads and then recovers — the model
//! of a storage hiccup, which the scan absorbs by re-reading the chunk in
//! place (up to [`crate::scan::READ_RETRIES`] times).
//! `transient_attempts = 0` means the fault is persistent (media
//! corruption): every read fails, and the only correct behaviour
//! is a typed error, never a wrong histogram.

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use nested_value::Path;
use parking_lot::Mutex;

/// The taxonomy of injectable scan faults.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FaultClass {
    /// The chunk read failed (storage error, truncated or corrupt chunk).
    Io,
    /// Read succeeded after an injected delay (not an error).
    Latency,
    /// Reader panicked mid-scan (not an error value — it unwinds).
    Panic,
}

impl FaultClass {
    /// Human-readable class name used in error messages.
    pub fn name(&self) -> &'static str {
        match self {
            FaultClass::Io => "io error",
            FaultClass::Latency => "injected latency",
            FaultClass::Panic => "injected panic",
        }
    }
}

/// A typed, contextful scan fault. `Clone + PartialEq` so the engine error
/// enums that carry it stay comparable (unlike [`crate::ColumnarError`],
/// which holds a non-clonable `std::io::Error`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ScanError {
    /// What failed.
    pub class: FaultClass,
    /// Name of the table being scanned.
    pub table: String,
    /// Row group whose read failed.
    pub row_group: u32,
    /// Leaf column whose chunk failed (dotted path, e.g. `Jet.pt`).
    pub leaf: String,
    /// 1-based read attempt for this chunk (grows across retries).
    pub attempt: u32,
}

impl fmt::Display for ScanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} reading table '{}' row group {} leaf {} (attempt {})",
            self.class.name(),
            self.table,
            self.row_group,
            self.leaf,
            self.attempt
        )
    }
}

/// Probabilities and knobs for a [`FaultInjector`]. All probabilities are
/// per physically read chunk and must sum to ≤ 1.
#[derive(Clone, Debug)]
pub struct FaultConfig {
    /// Seed of the deterministic fault stream.
    pub seed: u64,
    /// P(io error) per chunk read.
    pub p_io: f64,
    /// P(injected latency) per chunk read.
    pub p_latency: f64,
    /// P(panic) per chunk read. Keep 0 except in panic-safety tests.
    pub p_panic: f64,
    /// Sleep injected by a latency fault.
    pub latency: Duration,
    /// How many reads of a faulting chunk fail before it recovers;
    /// `0` means the fault is persistent (never recovers).
    pub transient_attempts: u32,
}

impl FaultConfig {
    /// A config that injects nothing (useful as a base for struct update).
    pub fn off(seed: u64) -> FaultConfig {
        FaultConfig {
            seed,
            p_io: 0.0,
            p_latency: 0.0,
            p_panic: 0.0,
            latency: Duration::from_micros(50),
            transient_attempts: 1,
        }
    }

    /// A config injecting a single fault class with probability `p`.
    pub fn only(class: FaultClass, p: f64, seed: u64) -> FaultConfig {
        let mut c = FaultConfig::off(seed);
        match class {
            FaultClass::Io => c.p_io = p,
            FaultClass::Latency => c.p_latency = p,
            FaultClass::Panic => c.p_panic = p,
        }
        c
    }
}

/// Monotonic counters of injected faults, by class.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultCounters {
    /// Io faults injected (failed reads).
    pub io: u64,
    /// Latency delays injected.
    pub latency: u64,
    /// Reads that recovered because their transient budget was exhausted.
    pub recovered: u64,
}

#[derive(Clone, PartialEq, Eq, Hash)]
struct FaultKey {
    fingerprint: u64,
    group: u32,
    leaf: Path,
}

/// Deterministic, seeded fault injector shared by all engines touching a
/// table. Thread-safe; decisions are pure functions of
/// `(seed, fingerprint, row group, leaf)`, while per-chunk attempt counts
/// (for transient-fault recovery) are tracked internally.
#[derive(Debug)]
pub struct FaultInjector {
    config: FaultConfig,
    attempts: Mutex<HashMap<FaultKey, u32>>,
    io: AtomicU64,
    latency: AtomicU64,
    recovered: AtomicU64,
}

impl std::fmt::Debug for FaultKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}/{}/{}", self.fingerprint, self.group, self.leaf)
    }
}

/// splitmix64 — the same tiny generator the proptest shim uses; good
/// enough to decorrelate fault decisions across chunk coordinates.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

fn mix_str(mut h: u64, s: &str) -> u64 {
    for b in s.as_bytes() {
        h = splitmix64(h ^ *b as u64);
    }
    h
}

impl FaultInjector {
    /// Builds an injector from a config.
    pub fn new(config: FaultConfig) -> FaultInjector {
        FaultInjector {
            config,
            attempts: Mutex::new(HashMap::new()),
            io: AtomicU64::new(0),
            latency: AtomicU64::new(0),
            recovered: AtomicU64::new(0),
        }
    }

    /// The configuration this injector was built with.
    pub fn config(&self) -> &FaultConfig {
        &self.config
    }

    /// Counter snapshot.
    pub fn counters(&self) -> FaultCounters {
        FaultCounters {
            io: self.io.load(Ordering::Relaxed),
            latency: self.latency.load(Ordering::Relaxed),
            recovered: self.recovered.load(Ordering::Relaxed),
        }
    }

    /// Forgets all per-chunk attempt history, so transient faults fire
    /// again from scratch (as if the injector were freshly built).
    pub fn reset_attempts(&self) {
        self.attempts.lock().clear();
    }

    /// The deterministic fault decision for one chunk, independent of
    /// attempt history: `None` (clean) or the faulting class.
    pub fn decide(&self, fingerprint: u64, group: u32, leaf: &Path) -> Option<FaultClass> {
        let mut h = splitmix64(self.config.seed ^ splitmix64(fingerprint));
        h = splitmix64(h ^ group as u64);
        h = mix_str(h, &leaf.to_string());
        // 53 high bits → uniform in [0, 1).
        let u = (h >> 11) as f64 / (1u64 << 53) as f64;
        let c = &self.config;
        let mut acc = c.p_io;
        if u < acc {
            return Some(FaultClass::Io);
        }
        acc += c.p_latency;
        if u < acc {
            return Some(FaultClass::Latency);
        }
        acc += c.p_panic;
        if u < acc {
            return Some(FaultClass::Panic);
        }
        None
    }

    /// One physical chunk read: returns `Ok(())` (possibly after an
    /// injected delay) or the typed fault. Panic faults unwind.
    pub fn on_chunk_read(
        &self,
        table: &str,
        fingerprint: u64,
        group: u32,
        leaf: &Path,
    ) -> Result<(), ScanError> {
        let Some(class) = self.decide(fingerprint, group, leaf) else {
            return Ok(());
        };
        if class == FaultClass::Latency {
            self.latency.fetch_add(1, Ordering::Relaxed);
            std::thread::sleep(self.config.latency);
            return Ok(());
        }
        let attempt = {
            let mut attempts = self.attempts.lock();
            let n = attempts
                .entry(FaultKey {
                    fingerprint,
                    group,
                    leaf: leaf.clone(),
                })
                .or_insert(0);
            *n += 1;
            *n
        };
        let t = self.config.transient_attempts;
        if t > 0 && attempt > t {
            // The transient fault burned out; this read succeeds.
            self.recovered.fetch_add(1, Ordering::Relaxed);
            return Ok(());
        }
        let err = ScanError {
            class,
            table: table.to_string(),
            row_group: group,
            leaf: leaf.to_string(),
            attempt,
        };
        match class {
            FaultClass::Io => self.io.fetch_add(1, Ordering::Relaxed),
            FaultClass::Panic => panic!("injected panic fault: {err}"),
            FaultClass::Latency => unreachable!("handled above"),
        };
        Err(err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leaf(s: &str) -> Path {
        Path::parse(s)
    }

    #[test]
    fn decisions_are_deterministic_and_seed_dependent() {
        let a = FaultInjector::new(FaultConfig::only(FaultClass::Io, 0.3, 7));
        let b = FaultInjector::new(FaultConfig::only(FaultClass::Io, 0.3, 7));
        let c = FaultInjector::new(FaultConfig::only(FaultClass::Io, 0.3, 8));
        let mut same = 0;
        let mut diff = 0;
        for g in 0..64u32 {
            for l in ["MET.pt", "Jet.pt", "Jet.eta"] {
                let da = a.decide(0xF00D, g, &leaf(l));
                assert_eq!(da, b.decide(0xF00D, g, &leaf(l)));
                if da == c.decide(0xF00D, g, &leaf(l)) {
                    same += 1;
                } else {
                    diff += 1;
                }
            }
        }
        assert!(diff > 0, "different seeds must differ somewhere");
        assert!(same > 0);
    }

    #[test]
    fn fault_rate_tracks_probability() {
        let inj = FaultInjector::new(FaultConfig::only(FaultClass::Io, 0.25, 42));
        let n = 4000;
        let mut faults = 0;
        for g in 0..n {
            if inj.decide(1, g, &leaf("MET.pt")).is_some() {
                faults += 1;
            }
        }
        let rate = faults as f64 / n as f64;
        assert!((rate - 0.25).abs() < 0.05, "rate {rate} too far from 0.25");
    }

    #[test]
    fn transient_faults_recover_after_budget() {
        let inj = FaultInjector::new(FaultConfig {
            transient_attempts: 2,
            ..FaultConfig::only(FaultClass::Io, 1.0, 3)
        });
        let l = leaf("Jet.pt");
        let e1 = inj.on_chunk_read("events", 9, 0, &l).unwrap_err();
        assert_eq!((e1.class, e1.attempt), (FaultClass::Io, 1));
        let e2 = inj.on_chunk_read("events", 9, 0, &l).unwrap_err();
        assert_eq!(e2.attempt, 2);
        assert!(inj.on_chunk_read("events", 9, 0, &l).is_ok(), "recovered");
        assert_eq!(inj.counters().recovered, 1);
        inj.reset_attempts();
        assert!(inj.on_chunk_read("events", 9, 0, &l).is_err());
    }

    #[test]
    fn persistent_faults_never_recover() {
        let inj = FaultInjector::new(FaultConfig {
            transient_attempts: 0,
            ..FaultConfig::only(FaultClass::Io, 1.0, 3)
        });
        for attempt in 1..=5 {
            let e = inj
                .on_chunk_read("events", 9, 3, &leaf("MET.phi"))
                .unwrap_err();
            assert_eq!((e.class, e.attempt), (FaultClass::Io, attempt));
        }
        assert_eq!(inj.counters().io, 5);
        assert_eq!(inj.counters().recovered, 0);
    }

    #[test]
    fn error_display_carries_full_context() {
        let e = ScanError {
            class: FaultClass::Io,
            table: "events".into(),
            row_group: 17,
            leaf: "Jet.eta".into(),
            attempt: 2,
        };
        let s = e.to_string();
        assert!(s.contains("io error"), "{s}");
        assert!(s.contains("'events'"), "{s}");
        assert!(s.contains("row group 17"), "{s}");
        assert!(s.contains("Jet.eta"), "{s}");
    }
}
