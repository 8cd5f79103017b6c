//! # chaos
//!
//! Deterministic chaos testing for the benchmark engines: a seeded
//! random-plan generator over the CMS schema and three sweeps over the
//! seven arms of [`ALL_ENGINES`] (three SQL dialects, JSONiq,
//! RDataFrame, and the plan's physical-IR lowering run serially and on
//! morsel workers). Every arm reads its table through the one scan
//! driver (`exec_par::Driver`), so every arm is billed, pruned,
//! faulted and cancelled the same way.
//!
//! * [`differential_fuzz`] runs every plan with zone-map pruning off and
//!   on and compares each result bin-for-bin against the interpreter
//!   oracle ([`hepbench_core::fuzzplan::FuzzPlan::reference`]).
//! * [`fault_sweep`] re-runs plans under each [`SWEPT_FAULTS`] class and
//!   accepts only the exact oracle histogram (a transient fault is
//!   re-read in place by the scan, so one run suffices) or a typed
//!   [`nf2_columnar::ScanError`] carrying table, row group and leaf.
//! * [`cancellation_sweep`] cancels runs at random points under injected
//!   latency and accepts only the oracle histogram or a typed
//!   [`obs::Cancelled`].
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
use nf2_columnar::{FaultClass, FaultConfig, FaultInjector, Table};
use physics::HistSpec;

/// Tiny seeded splitmix64 generator behind the fuzz plans, the cancel
/// points and `crates/bench`'s load schedules, so each stream is
/// reproducible from a single `u64` without an RNG dependency.
#[derive(Clone, Debug)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut x = self.0;
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^ (x >> 31)
    }

    /// Uniform in `[0, 1)`, from the top 53 bits.
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
    rng: SplitMix64,
    next_id: u64,
}

impl PlanGenerator {
    /// A generator whose whole stream is a function of `seed`.
    pub fn new(seed: u64) -> PlanGenerator {
        PlanGenerator {
            rng: SplitMix64::new(seed),
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
    /// The plan's physical-IR lowering on the serial compiled executor
    /// (no parser in the loop) — the oracle check for the fused batch
    /// kernels the engines' compiled paths share.
    Compiled,
    /// The same lowering on [`PARALLEL_FUZZ_WORKERS`] morsel workers, so
    /// the sweeps also hold the partial-aggregation merge to
    /// bin-exactness under scheduling-dependent completion orders.
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
    ) -> Result<EngineRun, AdapterError> {
        match self {
            EngineUnderTest::BigQuery => plan.run_sql(engine_sql::Dialect::bigquery(), table, env),
            EngineUnderTest::Presto => plan.run_sql(engine_sql::Dialect::presto(), table, env),
            EngineUnderTest::Athena => plan.run_sql(engine_sql::Dialect::athena(), table, env),
            EngineUnderTest::Jsoniq => plan.run_jsoniq(table, env),
            EngineUnderTest::Rdf => plan.run_rdf(table, env),
            EngineUnderTest::Compiled => plan.run_compiled(table, env),
            EngineUnderTest::CompiledParallel => {
                let env = ExecEnv {
                    parallel_workers: Some(PARALLEL_FUZZ_WORKERS),
                    ..env.clone()
                };
                plan.run_compiled(table, &env)
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

/// Runs `n_plans` seeded plans on every engine, fault-free, twice —
/// zone-map pruning forced off, then forced on — and compares each
/// result bin-for-bin against the interpreter oracle. Pruning only skips
/// row groups the filter would have emptied, so a divergence with it on
/// is an unsound zone map.
pub fn differential_fuzz(
    seed: u64,
    n_plans: usize,
    events: &[Event],
    table: &Arc<Table>,
) -> DiffReport {
    let mut report = DiffReport::default();
    let mut generator = PlanGenerator::new(seed);
    for _ in 0..n_plans {
        let plan = generator.next_plan();
        let oracle = plan.reference(events);
        report.plans += 1;
        for engine in ALL_ENGINES {
            for pruning in [false, true] {
                let env = ExecEnv {
                    zone_map_pruning: Some(pruning),
                    ..ExecEnv::seed()
                };
                report.checks += 1;
                let (label, name) = (plan.label(), engine.name());
                let pruning = if pruning { "on" } else { "off" };
                match engine.run(&plan, table, &env).map(|r| r.histogram) {
                    Ok(h) if h.counts_equal(&oracle) => {}
                    Ok(h) => report.divergences.push(format!(
                        "{label} {name} pruning {pruning}: histogram diverged from oracle \
                         (engine total {}, oracle total {})\nplan: {plan:?}",
                        h.total(),
                        oracle.total(),
                    )),
                    Err(e) => report.divergences.push(format!(
                        "{label} {name} pruning {pruning}: failed fault-free: {e}\nplan: {plan:?}"
                    )),
                }
            }
        }
    }
    report
}

/// Fault classes the sweep injects (every member of the taxonomy that
/// surfaces as an error value or a delay; `Panic` is exercised separately
/// by the service panic-safety tests).
pub const SWEPT_FAULTS: &[FaultClass] = &[FaultClass::Io, FaultClass::Latency];

/// Outcome of one fault class across the sweep.
#[derive(Debug)]
pub struct FaultReport {
    /// The injected class.
    pub class: FaultClass,
    /// Engine runs performed under this class.
    pub runs: usize,
    /// Runs that returned the exact oracle histogram.
    pub clean_results: usize,
    /// Runs that surfaced a typed, context-carrying scan error, per arm
    /// (indexed like [`ALL_ENGINES`]).
    pub typed_errors: Vec<usize>,
    /// Chunk reads the transient runs retried, per arm (the sum of
    /// `ExecStats::reads_retried`).
    pub retries: Vec<u64>,
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

/// Per-chunk fault probability used by the sweep: high enough that an
/// error class fires on every arm at CI's scale (`crates/bench/tests/
/// fuzz_diff.rs` checks it), low enough that most runs finish.
pub const SWEEP_FAULT_P: f64 = 0.1;

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
    let faulty = |class, transient_attempts| ExecEnv {
        fault_injector: Some(Arc::new(FaultInjector::new(FaultConfig {
            transient_attempts,
            ..FaultConfig::only(class, SWEEP_FAULT_P, seed)
        }))),
        ..ExecEnv::seed()
    };
    let mut reports: Vec<FaultReport> = SWEPT_FAULTS
        .iter()
        .map(|&class| FaultReport {
            class,
            runs: 0,
            clean_results: 0,
            typed_errors: vec![0; ALL_ENGINES.len()],
            retries: vec![0; ALL_ENGINES.len()],
            violations: Vec::new(),
        })
        .collect();
    for plan in generate_plans(seed, n_plans) {
        let oracle = plan.reference(events);
        for (arm, engine) in ALL_ENGINES.iter().enumerate() {
            // What a transient run must bill; `None` when the fault-free
            // run failed, which the differential fuzz reports.
            let clean = engine.run(&plan, table, &ExecEnv::seed());
            let clean = clean.ok().map(|r| r.stats.scan);
            for report in &mut reports {
                let class = report.class;
                let ctx = |phase: &str| {
                    let (label, name) = (plan.label(), engine.name());
                    format!("{label} {name} {phase} {}", class.name())
                };
                let violations = &mut report.violations;
                report.runs += 2;
                match engine.run(&plan, table, &faulty(class, 0)) {
                    Ok(r) if r.histogram.counts_equal(&oracle) => report.clean_results += 1,
                    Ok(_) => violations.push(format!(
                        "{}: WRONG histogram instead of typed error",
                        ctx("persistent")
                    )),
                    Err(e) => match &e.scan {
                        Some(s) if s.class == class && !s.leaf.is_empty() => {
                            report.typed_errors[arm] += 1
                        }
                        Some(s) => violations.push(format!(
                            "{}: wrong fault class in error: {s}",
                            ctx("persistent")
                        )),
                        None => {
                            violations.push(format!("{}: untyped error: {e}", ctx("persistent")))
                        }
                    },
                }
                match engine.run(&plan, table, &faulty(class, 1)) {
                    Ok(r) if !r.histogram.counts_equal(&oracle) => {
                        violations.push(format!("{}: WRONG histogram", ctx("transient")))
                    }
                    Ok(r) if clean.is_some_and(|s| s != r.stats.scan) => violations.push(format!(
                        "{}: ScanStats differ from the fault-free run (re-reads billed?)",
                        ctx("transient")
                    )),
                    Ok(r) => {
                        report.clean_results += 1;
                        report.retries[arm] += r.stats.reads_retried;
                    }
                    Err(e) => {
                        violations.push(format!("{}: failed in one run: {e}", ctx("transient")))
                    }
                }
            }
        }
    }
    reports
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
    /// Contract violations (wrong histogram, untyped error, a row
    /// count past the table). Empty ⇒ pass.
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
pub fn cancellation_sweep(
    seed: u64,
    n_plans: usize,
    events: &[Event],
    table: &Arc<Table>,
) -> CancelReport {
    use std::time::Instant;

    let plans = generate_plans(seed, n_plans);
    let mut rng = SplitMix64::new(seed ^ 0xCA9C_E11E);
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

    // The differential and fault-sweep contracts are tested at CI's
    // scale in `crates/bench/tests/fuzz_diff.rs`.

    /// Every arm reads through the scan's fault injector. Pruning is off,
    /// so every run reads every row group and `p = 1` faults all of them:
    /// a persistent fault fails every arm typed, and a transient one is
    /// re-read in place and billed exactly like the fault-free run.
    #[test]
    fn every_arm_reads_through_the_fault_injector() {
        let (events, table) = dataset();
        let env = |transient_attempts: Option<u32>| ExecEnv {
            zone_map_pruning: Some(false),
            fault_injector: transient_attempts.map(|transient_attempts| {
                Arc::new(FaultInjector::new(FaultConfig {
                    transient_attempts,
                    ..FaultConfig::only(FaultClass::Io, 1.0, 0xF417)
                }))
            }),
            ..ExecEnv::seed()
        };
        for plan in generate_plans(0xF417, 6) {
            let oracle = plan.reference(&events);
            for engine in ALL_ENGINES {
                let ctx = format!("{} {}", plan.label(), engine.name());
                match engine.run(&plan, &table, &env(Some(0))) {
                    Err(e) => {
                        let s = e.scan.unwrap_or_else(|| panic!("{ctx}: untyped error"));
                        assert_eq!(s.class, FaultClass::Io, "{ctx}");
                        assert!(!s.leaf.is_empty(), "{ctx}: leaf missing");
                    }
                    Ok(r) => panic!(
                        "{ctx}: a persistent fault returned Ok with {} bytes scanned",
                        r.stats.scan.bytes_scanned
                    ),
                }
                let clean = engine.run(&plan, &table, &env(None)).unwrap();
                let run = engine
                    .run(&plan, &table, &env(Some(1)))
                    .unwrap_or_else(|e| panic!("{ctx}: transient fault failed the run: {e}"));
                assert!(run.histogram.counts_equal(&oracle), "{ctx}");
                assert!(run.stats.reads_retried > 0, "{ctx}: no chunk re-read");
                assert_eq!(run.stats.scan, clean.stats.scan, "{ctx}: re-reads billed");
            }
        }
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
