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
//! * the exact oracle histogram (a transient fault is re-read in place
//!   by the scan, so one run suffices), or
//! * a typed [`nf2_columnar::ScanError`] carrying table, row group and
//!   leaf context.
//!
//! A wrong histogram, an untyped error, a panic or a hang is a bug by
//! construction. Everything is a pure function of the seed, so any
//! failure replays bit-for-bit.

use std::sync::Arc;
use std::time::Duration;

use hep_model::Event;
use hepbench_core::adapters::{AdapterError, EngineRun, ExecEnv};
use hepbench_core::fuzzplan::{
    CountPred, ElemPred, FillSource, FuzzPlan, ScalarPred, ALL_CMPS, ALL_JET_FIELDS,
    ALL_SCALAR_LEAVES,
};
use nf2_columnar::{FaultClass, FaultConfig, FaultInjector, ScanStats, Table};
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

    /// Executes `plan` on this engine in `env`. The bare compiled
    /// executors have no scan layer: their runs carry all-zero stats.
    pub fn run(
        &self,
        plan: &FuzzPlan,
        table: &Arc<Table>,
        env: &ExecEnv,
    ) -> Result<EngineRun, AdapterError> {
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
            match engine.run(&plan, table, &env).map(|r| r.histogram) {
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
            let off = engine.run(&plan, table, &env_off).map(|r| r.histogram);
            let on = engine.run(&plan, table, &env_on).map(|r| r.histogram);
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
    /// Runs that returned the exact oracle histogram.
    pub clean_results: usize,
    /// Runs that surfaced a typed, context-carrying scan error.
    pub typed_errors: usize,
    /// Chunk reads the scans retried after a transient fault (the sum of
    /// `ExecStats::reads_retried`).
    pub retries: u64,
    /// Contract violations (wrong histogram, untyped/wrong-class error,
    /// a transient run that failed or billed differently). Empty ⇒ pass.
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

/// Runs `n_plans` seeded plans on every engine under every fault class,
/// in two phases per class:
///
/// * **persistent** (`transient_attempts = 0`): the engine must return
///   either the exact oracle histogram (no chunk of its projection
///   faulted) or a typed [`nf2_columnar::ScanError`] of the injected
///   class — never a wrong histogram;
/// * **transient** (`transient_attempts = 1`): one run must return the
///   exact oracle histogram **and** the fault-free run's `ScanStats` —
///   the scan re-reads each faulted chunk in place, and re-reads bill
///   nothing.
///
/// Latency faults must never produce an error in either phase.
pub fn fault_sweep(
    seed: u64,
    n_plans: usize,
    events: &[Event],
    table: &Arc<Table>,
) -> Vec<FaultReport> {
    let plans = generate_plans(seed, n_plans);
    // The fault-free stats of every (plan, engine): what a transient run
    // must bill.
    let baselines: Vec<Vec<Option<ScanStats>>> = plans
        .iter()
        .map(|plan| {
            ALL_ENGINES
                .iter()
                .map(|engine| {
                    let run = engine.run(plan, table, &ExecEnv::seed());
                    run.ok().map(|r| r.stats.scan)
                })
                .collect()
        })
        .collect();
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
            for (plan, baseline) in plans.iter().zip(&baselines) {
                let oracle = plan.reference(events);
                for (engine, clean) in ALL_ENGINES.iter().zip(baseline) {
                    persistent_phase(&mut report, class, seed, plan, &oracle, engine, table);
                    let want = Want {
                        histogram: &oracle,
                        scan: clean.as_ref(),
                    };
                    transient_phase(&mut report, class, seed, plan, want, engine, table);
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
        Ok(r) if r.histogram.counts_equal(oracle) => report.clean_results += 1,
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

/// What a transient run must return: the oracle histogram and the
/// fault-free run's scan stats (`None` when the fault-free run failed,
/// which the differential phase reports).
#[derive(Clone, Copy)]
struct Want<'a> {
    histogram: &'a Histogram,
    scan: Option<&'a ScanStats>,
}

/// Transient faults: one run must return the oracle histogram and bill
/// exactly the fault-free bytes.
fn transient_phase(
    report: &mut FaultReport,
    class: FaultClass,
    seed: u64,
    plan: &FuzzPlan,
    want: Want<'_>,
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
    let ctx = || {
        format!(
            "{} {} transient {}",
            plan.label(),
            engine.name(),
            class.name()
        )
    };
    match engine.run(plan, table, &env) {
        Ok(r) if !r.histogram.counts_equal(want.histogram) => {
            report
                .violations
                .push(format!("{}: WRONG histogram", ctx()));
        }
        Ok(r) if want.scan.is_some_and(|s| *s != r.stats.scan) => {
            report.violations.push(format!(
                "{}: ScanStats differ from the fault-free run (re-reads billed?)",
                ctx()
            ));
        }
        Ok(r) => {
            report.clean_results += 1;
            report.retries += r.stats.reads_retried;
        }
        Err(e) => report
            .violations
            .push(format!("{}: failed in one run: {e}", ctx())),
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
    /// Contract violations (wrong histogram, untyped error, inconsistent
    /// buffer pool). Empty ⇒ pass.
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
            let outcome = engine.run(plan, table, &env).map(|r| r.histogram);
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
            match engine.run(plan, table, &env).map(|r| r.histogram) {
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
        // The error classes must actually have fired somewhere, and the
        // transient runs must have re-read chunks to converge.
        let errors = reports.iter().filter(|r| r.class != FaultClass::Latency);
        assert!(errors.clone().any(|r| r.typed_errors > 0), "no typed error");
        assert!(errors.clone().all(|r| r.retries > 0), "no chunk re-read");
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
