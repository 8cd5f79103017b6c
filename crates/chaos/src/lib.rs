//! # chaos
//!
//! Deterministic chaos testing for the benchmark engines: a seeded
//! random-plan generator over the CMS schema, a **differential fuzzing**
//! harness that executes every generated plan on all five systems under
//! test (three SQL dialects, JSONiq, RDataFrame) and compares them
//! bin-for-bin against the interpreter oracle
//! ([`hepbench_core::fuzzplan::FuzzPlan::reference`]), and a
//! **fault-injection sweep** that re-runs plans under every
//! [`FaultClass`] and asserts the only two acceptable outcomes:
//!
//! * the exact oracle histogram (possibly after bounded retries of a
//!   transient fault), or
//! * a typed [`nf2_columnar::ScanError`] carrying table, row group and
//!   leaf context.
//!
//! A wrong histogram, an untyped error, a panic or a hang is a bug by
//! construction. Everything is a pure function of the seed, so any
//! failure replays bit-for-bit.

use std::sync::Arc;
use std::time::Duration;

use hep_model::Event;
use hepbench_core::adapters::{AdapterError, ExecEnv};
use hepbench_core::fuzzplan::{
    CountPred, ElemPred, FillSource, FuzzPlan, ScalarPred, ALL_CMPS, ALL_JET_FIELDS,
    ALL_SCALAR_LEAVES,
};
use nf2_columnar::{FaultClass, FaultConfig, FaultInjector, Table};
use physics::{HistSpec, Histogram};

/// Tiny seeded generator (splitmix64 core) so the crate needs no RNG
/// dependency and streams are reproducible from a single `u64`.
pub struct ChaosRng(u64);

impl ChaosRng {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> ChaosRng {
        ChaosRng(seed)
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut x = self.0;
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^ (x >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.f64()
    }

    /// Uniform index below `n`.
    pub fn index(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform element of a non-empty slice.
    pub fn pick<'a, T>(&mut self, xs: &'a [T]) -> &'a T {
        &xs[self.index(xs.len())]
    }
}

/// Rounds to one decimal so every lowering prints the literal exactly
/// (via [`hepbench_core::queries::flit`]) and every parser reads back the
/// identical `f64`.
fn quantize(x: f64) -> f64 {
    (x * 10.0).round() / 10.0
}

/// Seeded stream of [`FuzzPlan`]s over the CMS schema.
pub struct PlanGenerator {
    rng: ChaosRng,
    next_id: u64,
}

impl PlanGenerator {
    /// A generator whose whole stream is a function of `seed`.
    pub fn new(seed: u64) -> PlanGenerator {
        PlanGenerator {
            rng: ChaosRng::new(seed),
            next_id: 0,
        }
    }

    fn scalar_pred(&mut self) -> ScalarPred {
        let leaf = *self.rng.pick(ALL_SCALAR_LEAVES);
        let (lo, hi) = leaf.range();
        ScalarPred {
            leaf,
            cmp: *self.rng.pick(ALL_CMPS),
            lit: quantize(self.rng.range(lo, hi)),
        }
    }

    fn elem_pred(&mut self) -> ElemPred {
        let field = *self.rng.pick(ALL_JET_FIELDS);
        let (lo, hi) = field.range();
        ElemPred {
            field,
            cmp: *self.rng.pick(ALL_CMPS),
            lit: quantize(self.rng.range(lo, hi)),
        }
    }

    /// The next plan in the stream.
    pub fn next_plan(&mut self) -> FuzzPlan {
        let id = self.next_id;
        self.next_id += 1;
        let (fill, fill_range) = if self.rng.f64() < 0.5 {
            let leaf = *self.rng.pick(ALL_SCALAR_LEAVES);
            (FillSource::Scalar(leaf), leaf.range())
        } else {
            let field = *self.rng.pick(ALL_JET_FIELDS);
            let elem_pred = (self.rng.f64() < 0.5).then(|| self.elem_pred());
            (FillSource::Jets { field, elem_pred }, field.range())
        };
        let n_scalar = self.rng.index(3);
        let scalar_preds = (0..n_scalar).map(|_| self.scalar_pred()).collect();
        let count_pred = (self.rng.f64() < 0.4).then(|| CountPred {
            elem: self.elem_pred(),
            min_count: 1 + self.rng.index(3) as u32,
        });
        // Jitter the histogram range so under/overflow paths are
        // exercised; keep bounds on the 0.1 grid like the literals.
        let bins = *self.rng.pick(&[20usize, 50, 100]);
        let (lo, hi) = fill_range;
        let lo = quantize(self.rng.range(lo, lo + 0.25 * (hi - lo)));
        let hi = quantize(self.rng.range(lo + 0.25 * (hi - lo), hi.max(lo + 1.0)));
        let spec = HistSpec::new(bins, lo, hi.max(lo + 0.2));
        FuzzPlan {
            id,
            fill,
            scalar_preds,
            count_pred,
            spec,
        }
    }
}

/// Convenience: the first `n` plans of `seed`'s stream.
pub fn generate_plans(seed: u64, n: usize) -> Vec<FuzzPlan> {
    let mut g = PlanGenerator::new(seed);
    (0..n).map(|_| g.next_plan()).collect()
}

/// One system under differential test.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EngineUnderTest {
    /// `engine-sql`, BigQuery dialect.
    BigQuery,
    /// `engine-sql`, Presto dialect.
    Presto,
    /// `engine-sql`, Athena dialect.
    Athena,
    /// `engine-flwor` (JSONiq).
    Jsoniq,
    /// `engine-rdf` (RDataFrame).
    Rdf,
    /// The `physical-ir` compiled executor (direct plan lowering, no
    /// parser in the loop) — the differential oracle check for the fused
    /// batch kernels the engines' compiled paths share.
    Compiled,
    /// The morsel-parallel compiled executor (`exec_par`) — same lowered
    /// plan as [`EngineUnderTest::Compiled`], executed on
    /// [`PARALLEL_FUZZ_WORKERS`] workers, so the sweeps also hold the
    /// exchange/partial-aggregation merge to bin-exactness under
    /// scheduling-dependent completion orders.
    CompiledParallel,
}

/// All engines, in reporting order.
pub const ALL_ENGINES: &[EngineUnderTest] = &[
    EngineUnderTest::BigQuery,
    EngineUnderTest::Presto,
    EngineUnderTest::Athena,
    EngineUnderTest::Jsoniq,
    EngineUnderTest::Rdf,
    EngineUnderTest::Compiled,
    EngineUnderTest::CompiledParallel,
];

/// Worker count [`EngineUnderTest::CompiledParallel`] runs with: odd and
/// > 1, so morsels distribute unevenly across workers.
pub const PARALLEL_FUZZ_WORKERS: usize = 3;

impl EngineUnderTest {
    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            EngineUnderTest::BigQuery => "BigQuery SQL",
            EngineUnderTest::Presto => "Presto SQL",
            EngineUnderTest::Athena => "Athena SQL",
            EngineUnderTest::Jsoniq => "JSONiq",
            EngineUnderTest::Rdf => "RDataFrame",
            EngineUnderTest::Compiled => "Compiled IR",
            EngineUnderTest::CompiledParallel => "Compiled IR (parallel)",
        }
    }

    /// Executes `plan` on this engine in `env`.
    pub fn run(
        &self,
        plan: &FuzzPlan,
        table: &Arc<Table>,
        env: &ExecEnv,
    ) -> Result<Histogram, AdapterError> {
        match self {
            EngineUnderTest::BigQuery => plan.run_sql(engine_sql::Dialect::bigquery(), table, env),
            EngineUnderTest::Presto => plan.run_sql(engine_sql::Dialect::presto(), table, env),
            EngineUnderTest::Athena => plan.run_sql(engine_sql::Dialect::athena(), table, env),
            EngineUnderTest::Jsoniq => plan.run_jsoniq(table, env),
            EngineUnderTest::Rdf => plan.run_rdf(table, env),
            EngineUnderTest::Compiled => plan.run_compiled(table, env),
            EngineUnderTest::CompiledParallel => {
                plan.run_compiled_parallel(table, env, PARALLEL_FUZZ_WORKERS)
            }
        }
    }
}

/// Outcome of a differential fuzzing run.
#[derive(Debug, Default)]
pub struct DiffReport {
    /// Plans executed.
    pub plans: usize,
    /// Individual engine-vs-oracle comparisons.
    pub checks: usize,
    /// Human-readable description of every divergence (empty ⇒ pass).
    pub divergences: Vec<String>,
}

impl DiffReport {
    /// Whether the run found no divergence.
    pub fn passed(&self) -> bool {
        self.divergences.is_empty()
    }
}

/// Runs `n_plans` seeded plans on every engine (fault-free) and compares
/// each result bin-for-bin against the interpreter oracle.
pub fn differential_fuzz(
    seed: u64,
    n_plans: usize,
    events: &[Event],
    table: &Arc<Table>,
) -> DiffReport {
    let env = ExecEnv::seed();
    let mut report = DiffReport::default();
    let mut generator = PlanGenerator::new(seed);
    for _ in 0..n_plans {
        let plan = generator.next_plan();
        let oracle = plan.reference(events);
        report.plans += 1;
        for engine in ALL_ENGINES {
            report.checks += 1;
            match engine.run(&plan, table, &env) {
                Ok(h) if h.counts_equal(&oracle) => {}
                Ok(h) => report.divergences.push(format!(
                    "{} {}: histogram diverged from oracle \
                     (engine total {}, oracle total {})\nplan: {:?}",
                    plan.label(),
                    engine.name(),
                    h.total(),
                    oracle.total(),
                    plan
                )),
                Err(e) => report.divergences.push(format!(
                    "{} {}: failed fault-free: {e}\nplan: {:?}",
                    plan.label(),
                    engine.name(),
                    plan
                )),
            }
        }
    }
    report
}

/// Runs `n_plans` seeded plans on every engine twice — zone-map pruning
/// forced off, then forced on — and requires both runs to match the
/// interpreter oracle bin-for-bin. Pruning is a storage-level rewrite
/// (skip row groups whose statistics refute a filter), so *any*
/// divergence between the two runs is a soundness bug: a zone map that
/// pruned a group the filter would not have emptied.
pub fn pruning_differential_fuzz(
    seed: u64,
    n_plans: usize,
    events: &[Event],
    table: &Arc<Table>,
) -> DiffReport {
    let env_off = ExecEnv {
        zone_map_pruning: Some(false),
        ..ExecEnv::seed()
    };
    let env_on = ExecEnv {
        zone_map_pruning: Some(true),
        ..ExecEnv::seed()
    };
    let mut report = DiffReport::default();
    let mut generator = PlanGenerator::new(seed);
    for _ in 0..n_plans {
        let plan = generator.next_plan();
        let oracle = plan.reference(events);
        report.plans += 1;
        for engine in ALL_ENGINES {
            report.checks += 1;
            let off = engine.run(&plan, table, &env_off);
            let on = engine.run(&plan, table, &env_on);
            match (off, on) {
                (Ok(a), Ok(b)) => {
                    if !a.counts_equal(&oracle) {
                        report.divergences.push(format!(
                            "{} {}: pruning-off run diverged from oracle\nplan: {:?}",
                            plan.label(),
                            engine.name(),
                            plan
                        ));
                    } else if !b.counts_equal(&a) {
                        report.divergences.push(format!(
                            "{} {}: pruning changed the histogram \
                             (off total {}, on total {})\nplan: {:?}",
                            plan.label(),
                            engine.name(),
                            a.total(),
                            b.total(),
                            plan
                        ));
                    }
                }
                (Err(e), _) | (_, Err(e)) => report.divergences.push(format!(
                    "{} {}: failed fault-free: {e}\nplan: {:?}",
                    plan.label(),
                    engine.name(),
                    plan
                )),
            }
        }
    }
    report
}

/// Fault classes the sweep injects (every member of the taxonomy that
/// surfaces as an error value or a delay; `Panic` is exercised separately
/// by the service panic-safety tests).
pub const SWEPT_FAULTS: &[FaultClass] = &[
    FaultClass::Io,
    FaultClass::ChecksumMismatch,
    FaultClass::TruncatedRowGroup,
    FaultClass::Latency,
];

/// Outcome of one fault class across the sweep.
#[derive(Debug)]
pub struct FaultReport {
    /// The injected class.
    pub class: FaultClass,
    /// Engine runs performed under this class.
    pub runs: usize,
    /// Runs that returned the exact oracle histogram (directly, or after
    /// transient-fault retries).
    pub clean_results: usize,
    /// Runs that surfaced a typed, context-carrying scan error.
    pub typed_errors: usize,
    /// Retries performed against transient faults.
    pub retries: usize,
    /// Contract violations (wrong histogram, untyped/wrong-class error,
    /// retry budget exhausted). Empty ⇒ pass.
    pub violations: Vec<String>,
}

impl FaultReport {
    /// Whether this class met the fault contract everywhere.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Per-chunk fault probability used by the sweep: high enough that every
/// class fires on multi-group tables, low enough that most runs finish.
pub const SWEEP_FAULT_P: f64 = 0.05;

/// Retry budget of the sweep's transient phase, mirroring the
/// query-service retry loop. Each retry burns exactly one faulting chunk
/// (the scan aborts at the first fault), so the budget must exceed the
/// number of faulted chunks in the widest projection — JSONiq scans every
/// leaf, ~`0.05 × groups × leaves` faults on the default dataset.
pub const SWEEP_MAX_RETRIES: usize = 64;

/// Runs `n_plans` seeded plans on every engine under every fault class,
/// in two phases per class:
///
/// * **persistent** (`transient_attempts = 0`): the engine must return
///   either the exact oracle histogram (no chunk of its projection
///   faulted) or a typed [`nf2_columnar::ScanError`] of the injected
///   class — never a wrong histogram;
/// * **transient** (`transient_attempts = 1`) with bounded retries: the
///   engine must converge to the exact oracle histogram.
///
/// Latency faults must never produce an error in either phase.
pub fn fault_sweep(
    seed: u64,
    n_plans: usize,
    events: &[Event],
    table: &Arc<Table>,
) -> Vec<FaultReport> {
    let plans = generate_plans(seed, n_plans);
    SWEPT_FAULTS
        .iter()
        .map(|&class| {
            let mut report = FaultReport {
                class,
                runs: 0,
                clean_results: 0,
                typed_errors: 0,
                retries: 0,
                violations: Vec::new(),
            };
            for plan in &plans {
                let oracle = plan.reference(events);
                for engine in ALL_ENGINES {
                    persistent_phase(&mut report, class, seed, plan, &oracle, engine, table);
                    transient_phase(&mut report, class, seed, plan, &oracle, engine, table);
                }
            }
            report
        })
        .collect()
}

/// Persistent faults: typed error of the right class, or untouched result.
fn persistent_phase(
    report: &mut FaultReport,
    class: FaultClass,
    seed: u64,
    plan: &FuzzPlan,
    oracle: &Histogram,
    engine: &EngineUnderTest,
    table: &Arc<Table>,
) {
    let env = ExecEnv {
        fault_injector: Some(Arc::new(FaultInjector::new(FaultConfig {
            transient_attempts: 0,
            ..FaultConfig::only(class, SWEEP_FAULT_P, seed)
        }))),
        ..ExecEnv::seed()
    };
    report.runs += 1;
    match engine.run(plan, table, &env) {
        Ok(h) if h.counts_equal(oracle) => report.clean_results += 1,
        Ok(_) => report.violations.push(format!(
            "{} {} persistent {}: WRONG histogram instead of typed error",
            plan.label(),
            engine.name(),
            class.name()
        )),
        Err(e) => match &e.scan {
            Some(s) if s.class == class && !s.leaf.is_empty() => report.typed_errors += 1,
            Some(s) => report.violations.push(format!(
                "{} {} persistent {}: wrong fault class in error: {s}",
                plan.label(),
                engine.name(),
                class.name()
            )),
            None => report.violations.push(format!(
                "{} {} persistent {}: untyped error: {e}",
                plan.label(),
                engine.name(),
                class.name()
            )),
        },
    }
}

/// Transient faults + bounded retry: must converge to the oracle.
fn transient_phase(
    report: &mut FaultReport,
    class: FaultClass,
    seed: u64,
    plan: &FuzzPlan,
    oracle: &Histogram,
    engine: &EngineUnderTest,
    table: &Arc<Table>,
) {
    let env = ExecEnv {
        fault_injector: Some(Arc::new(FaultInjector::new(FaultConfig {
            transient_attempts: 1,
            ..FaultConfig::only(class, SWEEP_FAULT_P, seed)
        }))),
        ..ExecEnv::seed()
    };
    report.runs += 1;
    for attempt in 0..=SWEEP_MAX_RETRIES {
        match engine.run(plan, table, &env) {
            Ok(h) if h.counts_equal(oracle) => {
                report.clean_results += 1;
                return;
            }
            Ok(_) => {
                report.violations.push(format!(
                    "{} {} transient {}: WRONG histogram after {attempt} retries",
                    plan.label(),
                    engine.name(),
                    class.name()
                ));
                return;
            }
            Err(e) if e.retryable() && attempt < SWEEP_MAX_RETRIES => report.retries += 1,
            Err(e) => {
                report.violations.push(format!(
                    "{} {} transient {}: did not converge after {attempt} retries: {e}",
                    plan.label(),
                    engine.name(),
                    class.name()
                ));
                return;
            }
        }
    }
}

/// Outcome of the cancellation sweep.
#[derive(Debug)]
pub struct CancelReport {
    /// Engine runs performed.
    pub runs: usize,
    /// Runs stopped by a tripped token and surfaced as a typed
    /// [`obs::Cancelled`] error.
    pub cancellations: usize,
    /// Runs that finished before their cancel point with the exact
    /// oracle histogram.
    pub clean_results: usize,
    /// Contract violations (wrong histogram, untyped error, retryable
    /// cancellation, inconsistent buffer pool). Empty ⇒ pass.
    pub violations: Vec<String>,
}

impl CancelReport {
    /// Whether every run met the cancellation contract.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Per-chunk injected latency of the cancellation sweep: long enough
/// that a cancel point sampled within a run reliably lands mid-scan.
pub const CANCEL_SWEEP_LATENCY: Duration = Duration::from_micros(300);

/// Runs `n_plans` seeded plans on every engine with a randomized cancel
/// point and asserts the all-or-nothing contract: every run either
/// returns the **byte-identical oracle histogram** (the cancel landed
/// after completion) or a **typed [`obs::Cancelled`] error** — never a
/// partial or corrupt result, and never an untyped failure.
///
/// The cancel points come from two mechanisms, alternating per run:
///
/// * a **deadline** sampled inside the run's latency-stretched duration
///   ([`FaultInjector`] latency faults slow every physical chunk read,
///   so the deadline trips at an effectively random row group);
/// * an **explicit cancel** from a second thread after a sampled delay —
///   the service's `Ticket::cancel()` path.
///
/// All runs share one [`nf2_columnar::ChunkCache`] buffer pool. After the storm of
/// aborted scans the pool must still honor its budget and serve
/// byte-identical results to a fault-free rerun — a cancelled scan must
/// not leak partially decoded chunks or corrupt resident ones.
pub fn cancellation_sweep(
    seed: u64,
    n_plans: usize,
    events: &[Event],
    table: &Arc<Table>,
) -> CancelReport {
    use std::time::Instant;

    const POOL_BUDGET: usize = 8 << 20;
    let plans = generate_plans(seed, n_plans);
    let mut rng = ChaosRng::new(seed ^ 0xCA9C_E11E);
    let pool = Arc::new(nf2_columnar::ChunkCache::new(POOL_BUDGET));
    let mut report = CancelReport {
        runs: 0,
        cancellations: 0,
        clean_results: 0,
        violations: Vec::new(),
    };
    for plan in &plans {
        let oracle = plan.reference(events);
        for engine in ALL_ENGINES {
            report.runs += 1;
            // The latency storm stretches the run so the sampled cancel
            // point lands at an unpredictable row group.
            let injector = Arc::new(FaultInjector::new(FaultConfig {
                latency: CANCEL_SWEEP_LATENCY,
                ..FaultConfig::only(FaultClass::Latency, 1.0, seed ^ report.runs as u64)
            }));
            let delay = Duration::from_micros(rng.range(0.0, 8_000.0) as u64);
            let explicit = report.runs.is_multiple_of(2);
            let cancel = if explicit {
                obs::CancelToken::new()
            } else {
                obs::CancelToken::with_deadline(Instant::now() + delay)
            };
            let env = ExecEnv {
                fault_injector: Some(injector),
                chunk_cache: Some(pool.clone()),
                cancel: cancel.clone(),
                ..ExecEnv::seed()
            };
            let canceller = explicit.then(|| {
                let cancel = cancel.clone();
                std::thread::spawn(move || {
                    std::thread::sleep(delay);
                    cancel.cancel();
                })
            });
            let outcome = engine.run(plan, table, &env);
            if let Some(h) = canceller {
                h.join().expect("canceller thread");
            }
            match outcome {
                Ok(h) if h.counts_equal(&oracle) => report.clean_results += 1,
                Ok(_) => report.violations.push(format!(
                    "{} {}: PARTIAL/CORRUPT histogram survived cancellation",
                    plan.label(),
                    engine.name()
                )),
                Err(e) => match e.cancelled.as_deref() {
                    Some(c) => {
                        report.cancellations += 1;
                        if c.rows_processed as usize > events.len() {
                            report.violations.push(format!(
                                "{} {}: cancelled after {} rows but the table has {}",
                                plan.label(),
                                engine.name(),
                                c.rows_processed,
                                events.len()
                            ));
                        }
                        if e.retryable() {
                            report.violations.push(format!(
                                "{} {}: cancellation must never be retryable",
                                plan.label(),
                                engine.name()
                            ));
                        }
                    }
                    None => report.violations.push(format!(
                        "{} {}: non-cancellation error under latency faults: {e}",
                        plan.label(),
                        engine.name()
                    )),
                },
            }
        }
    }
    // Buffer-pool consistency after the aborted scans.
    if pool.resident_bytes() > POOL_BUDGET {
        report.violations.push(format!(
            "buffer pool over budget after cancellations: {} > {}",
            pool.resident_bytes(),
            POOL_BUDGET
        ));
    }
    let c = pool.counters();
    if c.insertions < c.evictions {
        report
            .violations
            .push(format!("buffer pool evicted more than it admitted: {c:?}"));
    }
    // A fault-free rerun over the same pool must still match the oracle:
    // cancelled scans must not have left corrupt chunks behind.
    let env = ExecEnv {
        chunk_cache: Some(pool.clone()),
        ..ExecEnv::seed()
    };
    for plan in plans.iter().take(3) {
        let oracle = plan.reference(events);
        for engine in ALL_ENGINES {
            match engine.run(plan, table, &env) {
                Ok(h) if h.counts_equal(&oracle) => {}
                Ok(_) => report.violations.push(format!(
                    "{} {}: post-cancellation rerun diverged (pool corrupt?)",
                    plan.label(),
                    engine.name()
                )),
                Err(e) => report.violations.push(format!(
                    "{} {}: post-cancellation rerun failed: {e}",
                    plan.label(),
                    engine.name()
                )),
            }
        }
    }
    report
}

/// Outcome of the morsel-recovery sweep.
#[derive(Debug)]
pub struct RecoveryReport {
    /// Executor runs performed (plans × schedules × workers, plus the
    /// engine-level conservation probes).
    pub runs: usize,
    /// Runs that converged to the byte-identical serial oracle.
    pub clean_results: usize,
    /// Persistent-fault runs that failed fast with the right typed error.
    pub typed_errors: usize,
    /// Total recovery interventions observed (retries and quarantines).
    /// Zero means the injector never fired — a dead sweep.
    pub interventions: u64,
    /// Contract violations. Empty ⇒ pass.
    pub violations: Vec<String>,
}

impl RecoveryReport {
    /// Whether every run met the recovery contract.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Worker counts the recovery sweep exercises (1 covers the serial
/// recovering case, 8 oversubscribes the default fuzz dataset's row
/// groups).
pub const RECOVERY_SWEEP_WORKERS: &[usize] = &[1, 2, 4, 8];

/// What a recovery schedule must end in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum RecoveryOutcome {
    /// Byte-identical oracle bins despite the injected faults.
    Recovers,
    /// A typed scan fault of the injected class after bounded retries.
    FailsTypedFault,
    /// A typed [`physical_ir::PirError::MorselPanic`].
    FailsMorselPanic,
}

/// One adversarial fault schedule of the recovery sweep.
struct RecoverySchedule {
    name: &'static str,
    class: FaultClass,
    p: f64,
    transient_attempts: u32,
    expect: RecoveryOutcome,
}

/// The sweep's schedules: every retryable class transient, panics as
/// poison pills (quarantine in place), and persistent faults that must
/// fail fast with typed errors. Transient probabilities stay below
/// saturation: morsel probes fail fast (one leaf per attempt), so a
/// morsel's faulting-leaf count must not exceed the retry budget.
const RECOVERY_SCHEDULES: &[RecoverySchedule] = &[
    RecoverySchedule {
        name: "transient-io",
        class: FaultClass::Io,
        p: 0.35,
        transient_attempts: 1,
        expect: RecoveryOutcome::Recovers,
    },
    RecoverySchedule {
        name: "transient-checksum",
        class: FaultClass::ChecksumMismatch,
        p: 0.35,
        transient_attempts: 1,
        expect: RecoveryOutcome::Recovers,
    },
    RecoverySchedule {
        name: "transient-truncated",
        class: FaultClass::TruncatedRowGroup,
        p: 0.35,
        transient_attempts: 1,
        expect: RecoveryOutcome::Recovers,
    },
    RecoverySchedule {
        name: "poison-pill",
        class: FaultClass::Panic,
        p: 0.2,
        transient_attempts: 1,
        expect: RecoveryOutcome::Recovers,
    },
    RecoverySchedule {
        name: "persistent-io",
        class: FaultClass::Io,
        p: 1.0,
        transient_attempts: 0,
        expect: RecoveryOutcome::FailsTypedFault,
    },
    RecoverySchedule {
        name: "persistent-panic",
        class: FaultClass::Panic,
        p: 1.0,
        transient_attempts: 0,
        expect: RecoveryOutcome::FailsMorselPanic,
    },
];

/// Morsel-level fault-recovery sweep over the parallel compiled
/// executor: every seeded plan runs under every adversarial fault
/// schedule at every [`RECOVERY_SWEEP_WORKERS`] count, against a fresh
/// deterministic injector per run.
///
/// Gates, per recovering run:
///
/// * **byte identity** — the merged bin sequence equals the serial
///   interpreter-free oracle ([`physical_ir::execute`]) exactly;
/// * **conservation** — every row and every morsel is accounted exactly
///   once (`rows`/`morsels`/`recovery.ok` match the table), and no
///   group yielded a duplicate partial (`recovery.ok == morsels`: no
///   double counting from retries or quarantine re-runs);
/// * **fail-fast typing** — persistent schedules surface the injected
///   class as a typed [`nf2_columnar::ScanError`] (or
///   [`physical_ir::PirError::MorselPanic`] for persistent panics),
///   never a wrong histogram.
///
/// A final engine-level probe runs Q6 through the SQL engine's compiled
/// deployment with morsel recovery on and asserts `ScanStats` — and
/// therefore billing — is byte-identical to the fault-free run: the
/// injector moves to the morsel surface, the billing pre-pass stays
/// fault-free, so no recovered or re-executed morsel can be
/// double-billed.
pub fn recovery_sweep(
    seed: u64,
    n_plans: usize,
    _events: &[Event],
    table: &Arc<Table>,
) -> RecoveryReport {
    let plans = generate_plans(seed, n_plans);
    let mut report = RecoveryReport {
        runs: 0,
        clean_results: 0,
        typed_errors: 0,
        interventions: 0,
        violations: Vec::new(),
    };
    let trace = obs::TraceCtx::disabled();
    let cancel = obs::CancelToken::none();
    let n_groups = table.row_groups().len() as u64;
    let total_rows: u64 = table.row_groups().iter().map(|g| g.n_rows() as u64).sum();
    for plan in &plans {
        let phys = plan.physical();
        let oracle = match physical_ir::execute(&phys, table, None, &trace, &cancel) {
            Ok(bins) => bins,
            Err(e) => {
                report.violations.push(format!(
                    "{}: fault-free serial oracle failed: {e}",
                    plan.label()
                ));
                continue;
            }
        };
        for (s_idx, schedule) in RECOVERY_SCHEDULES.iter().enumerate() {
            for &workers in RECOVERY_SWEEP_WORKERS {
                report.runs += 1;
                // A per-case fault seed: every case faults different sites.
                let case = plan.id ^ (s_idx as u64) << 8 ^ (workers as u64) << 16;
                let fault_seed = seed ^ ChaosRng::new(case).next_u64();
                run_recovery_case(
                    &mut report,
                    schedule,
                    plan,
                    &phys,
                    &oracle,
                    table,
                    workers,
                    fault_seed,
                    n_groups,
                    total_rows,
                );
            }
        }
    }
    engine_conservation_probe(&mut report, seed, table);
    report
}

/// One (plan × schedule × workers) recovery run.
#[allow(clippy::too_many_arguments)]
fn run_recovery_case(
    report: &mut RecoveryReport,
    schedule: &RecoverySchedule,
    plan: &FuzzPlan,
    phys: &physical_ir::PhysPlan,
    oracle: &[i64],
    table: &Arc<Table>,
    workers: usize,
    fault_seed: u64,
    n_groups: u64,
    total_rows: u64,
) {
    let ctx = || format!("{} {} x{workers}", plan.label(), schedule.name);
    // A fresh injector per run: transient sites heal statefully, so a
    // shared one would let earlier runs defuse later schedules.
    let injector = FaultInjector::new(FaultConfig {
        transient_attempts: schedule.transient_attempts,
        ..FaultConfig::only(schedule.class, schedule.p, fault_seed)
    });
    let faults = nf2_columnar::ScanFaults::new(&injector, table);
    let opts = exec_par::ParOptions {
        workers,
        // Each attempt fails fast on the first faulting leaf, so the
        // budget must cover a morsel's faulting-leaf count: the sweep's
        // widest plans read more leaves than the engines' default of 3.
        recovery: Some(exec_par::RecoveryOptions { max_retries: 16 }),
    };
    let outcome = exec_par::execute_with_faults(
        phys,
        table,
        None,
        &obs::TraceCtx::disabled(),
        &obs::CancelToken::none(),
        None,
        &opts,
        Some(faults),
    );
    match (schedule.expect, outcome) {
        (RecoveryOutcome::Recovers, Ok((bins, stats))) => {
            report.interventions += stats.recovery.interventions();
            if stats.recovery.ok != stats.morsels {
                report.violations.push(format!(
                    "{}: {} duplicate partials reached the exchange",
                    ctx(),
                    stats.recovery.ok.abs_diff(stats.morsels)
                ));
            } else if bins != oracle {
                report
                    .violations
                    .push(format!("{}: bins diverged from the serial oracle", ctx()));
            } else if stats.rows != total_rows
                || stats.morsels != n_groups
                || stats.recovery.ok != n_groups
            {
                report.violations.push(format!(
                    "{}: conservation broken: rows {}/{total_rows}, morsels {}/{n_groups}, ok {}/{n_groups}",
                    ctx(),
                    stats.rows,
                    stats.morsels,
                    stats.recovery.ok
                ));
            } else {
                report.clean_results += 1;
            }
        }
        (RecoveryOutcome::Recovers, Err(e)) => report.violations.push(format!(
            "{}: did not recover from a transient schedule: {e}",
            ctx()
        )),
        (
            RecoveryOutcome::FailsTypedFault,
            Err(physical_ir::PirError::Columnar(nf2_columnar::ColumnarError::Fault(s))),
        ) if s.class == schedule.class => report.typed_errors += 1,
        (RecoveryOutcome::FailsMorselPanic, Err(physical_ir::PirError::MorselPanic { .. })) => {
            report.typed_errors += 1
        }
        (RecoveryOutcome::FailsTypedFault | RecoveryOutcome::FailsMorselPanic, Err(e)) => {
            report.violations.push(format!(
                "{}: wrong error type for a persistent fault: {e}",
                ctx()
            ))
        }
        (RecoveryOutcome::FailsTypedFault | RecoveryOutcome::FailsMorselPanic, Ok(_)) => report
            .violations
            .push(format!("{}: a persistent fault produced a result", ctx())),
    }
}

/// Engine-level conservation: Q6 on the SQL engine's compiled deployment
/// with morsel recovery on and a transient injector. The served
/// histogram and — critically — the billed `ScanStats` must be
/// byte-identical to the fault-free run, and the recovery counters must
/// show the morsel surface actually fired.
fn engine_conservation_probe(report: &mut RecoveryReport, seed: u64, table: &Arc<Table>) {
    use hepbench_core::engine_api::{engine_for_compiled, QuerySpec};
    use hepbench_core::runner::System;
    use hepbench_core::QueryId;
    let engine = engine_for_compiled(System::Presto, table.clone());
    let recovering = ExecEnv {
        parallel_workers: Some(4),
        morsel_recovery: Some(true),
        ..ExecEnv::seed()
    };
    for q in [QueryId::Q6a, QueryId::Q6b] {
        report.runs += 1;
        let spec = QuerySpec::benchmark(q);
        let clean = match engine.execute(&spec, &recovering) {
            Ok(run) => run,
            Err(e) => {
                report
                    .violations
                    .push(format!("{} fault-free engine run failed: {e}", q.name()));
                continue;
            }
        };
        let env = ExecEnv {
            fault_injector: Some(Arc::new(FaultInjector::new(FaultConfig {
                transient_attempts: 1,
                ..FaultConfig::only(FaultClass::Io, 0.3, seed ^ 0xB111)
            }))),
            ..recovering.clone()
        };
        match engine.execute(&spec, &env) {
            Ok(run) => {
                if !run.histogram.counts_equal(&clean.histogram) {
                    report.violations.push(format!(
                        "{}: histogram diverged under recovered morsel faults",
                        q.name()
                    ));
                } else if run.stats.scan != clean.stats.scan {
                    report.violations.push(format!(
                        "{}: ScanStats not conserved under morsel recovery (double billing?): \
                         faulted {:?} != clean {:?}",
                        q.name(),
                        run.stats.scan,
                        clean.stats.scan
                    ));
                } else if run.stats.recovery.interventions() == 0 {
                    report.violations.push(format!(
                        "{}: injector attached but no morsel intervention recorded",
                        q.name()
                    ));
                } else {
                    report.clean_results += 1;
                    report.interventions += run.stats.recovery.interventions();
                }
            }
            Err(e) => report.violations.push(format!(
                "{}: compiled engine did not recover from transient faults: {e}",
                q.name()
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hep_model::{generator::build_dataset, DatasetSpec};

    fn dataset() -> (Vec<Event>, Arc<Table>) {
        let (events, table) = build_dataset(DatasetSpec {
            n_events: 500,
            row_group_size: 128,
            seed: 0xC0FFEE,
        });
        (events, Arc::new(table))
    }

    #[test]
    fn plan_stream_is_deterministic_and_diverse() {
        let a = generate_plans(7, 40);
        let b = generate_plans(7, 40);
        assert_eq!(a, b);
        let c = generate_plans(8, 40);
        assert_ne!(a, c);
        assert!(a.iter().any(|p| matches!(p.fill, FillSource::Scalar(_))));
        assert!(a.iter().any(|p| matches!(p.fill, FillSource::Jets { .. })));
        assert!(a.iter().any(|p| p.count_pred.is_some()));
        assert!(a.iter().any(|p| !p.scalar_preds.is_empty()));
    }

    #[test]
    fn small_differential_run_is_clean() {
        let (events, table) = dataset();
        let report = differential_fuzz(0xD1FF, 12, &events, &table);
        assert_eq!(report.plans, 12);
        assert_eq!(report.checks, 12 * ALL_ENGINES.len());
        assert!(report.passed(), "{:#?}", report.divergences);
    }

    #[test]
    fn small_fault_sweep_meets_the_contract() {
        let (events, table) = dataset();
        let reports = fault_sweep(0xFA17, 3, &events, &table);
        assert_eq!(reports.len(), SWEPT_FAULTS.len());
        for r in &reports {
            assert!(r.passed(), "{:?}: {:#?}", r.class, r.violations);
            assert_eq!(r.clean_results + r.typed_errors, r.runs);
        }
        // The error classes must actually have fired somewhere.
        let errors: usize = reports
            .iter()
            .filter(|r| r.class != FaultClass::Latency)
            .map(|r| r.typed_errors + r.retries)
            .sum();
        assert!(errors > 0, "sweep never injected an error fault");
    }

    #[test]
    fn small_recovery_sweep_is_byte_identical_and_conserving() {
        let (events, table) = dataset();
        let report = recovery_sweep(0x09EC_04E9, 2, &events, &table);
        assert!(report.passed(), "{:#?}", report.violations);
        // 2 plans × 6 schedules × 4 worker counts, plus the two
        // engine-level conservation probes.
        assert_eq!(report.runs, 2 * RECOVERY_SCHEDULES.len() * 4 + 2);
        assert_eq!(report.clean_results + report.typed_errors, report.runs);
        assert!(
            report.interventions > 0,
            "sweep never recovered anything — dead injector?"
        );
        assert!(report.typed_errors > 0, "persistent schedules never fired");
    }

    #[test]
    fn cancellation_sweep_is_all_or_nothing() {
        let (events, table) = dataset();
        let report = cancellation_sweep(0xCA9CE1, 6, &events, &table);
        assert_eq!(report.runs, 6 * ALL_ENGINES.len());
        assert!(report.passed(), "{:#?}", report.violations);
        assert_eq!(
            report.cancellations + report.clean_results,
            report.runs,
            "every run must be a clean result or a typed cancellation"
        );
        // With per-chunk latency storms and cancel points sampled inside
        // the stretched runtime, the sweep must actually cancel some runs
        // mid-flight (and some runs legitimately finish first).
        assert!(
            report.cancellations > 0,
            "sweep never cancelled a running query"
        );
    }
}
