//! # exec-par
//!
//! Morsel-driven parallel execution of compiled [`PhysPlan`]s, with
//! morsel-level fault recovery.
//!
//! The morsel is one row group — the paper's Figure 2 parallelism unit:
//! its measured systems parallelize Parquet scans at row-group
//! granularity, which is what creates the plateau once the data set
//! outgrows one group and the second rise once groups outnumber cores.
//! This crate reproduces that execution model for the workspace's own
//! compiled IR path:
//!
//! * **Sharded scans** — the non-skipped row groups are dealt to the
//!   workers as contiguous shards (worker *w* starts with shard *w* of
//!   the morsel list, the same contiguous partitioning as
//!   [`nf2_columnar::Table::shard`]), preserving decode locality.
//! * **Work stealing** — a worker that drains its own deque steals from
//!   the *back* of a victim's, visiting victims in a per-worker order
//!   derived from [`ParOptions::steal_seed`] (splitmix64). Seeding the
//!   victim order makes steal interleaving reproducible *and* lets the
//!   determinism tests drive adversarial schedules.
//! * **Exchange + partial aggregation** — each morsel produces a
//!   [`physical_ir::PartialAgg`]; the [`physical_ir::Exchange`] merges
//!   them in group order, so the output is byte-identical to
//!   single-threaded [`physical_ir::execute`] at any worker count and
//!   under any steal schedule (see `physical_ir::agg` for the argument).
//! * **Cooperative cancellation** — every worker checks the
//!   [`CancelToken`] before each morsel, and the merge checks it again
//!   per partial, so cancel-during-merge still yields a typed error and
//!   never a partial histogram.
//! * **Observability** — per-worker [`Stage::Aggregate`] spans (children
//!   of one `compiled parallel` umbrella span) carry rows-in/rows-out,
//!   recovery actions record [`Stage::Recovery`] spans, and an optional
//!   [`MetricsRegistry`] records morsel/steal/recovery counters and
//!   queue-depth samples.
//!
//! ## Fault recovery (the robustness ladder)
//!
//! With [`ParOptions::recovery`] set, each morsel runs inside
//! `catch_unwind` and failures are handled at morsel granularity instead
//! of failing (or poisoning) the whole pool. The ladder, least to most
//! drastic:
//!
//! 1. **Retry in place** — a morsel failing with a *retryable* error
//!    ([`PirError::retryable`], i.e. a retryable injected scan fault) is
//!    re-executed by the same worker up to
//!    [`RecoveryOptions::max_retries`] times, cancel-checked per attempt.
//! 2. **Quarantine** — a morsel whose kernel *panics* is handed back to
//!    the shared retry queue (any worker may pick it up) and the catching
//!    worker rebuilds its scratch state; the panic never crosses the
//!    scope boundary.
//! 3. **Reassign + degrade** — a worker that absorbs more than
//!    [`RecoveryOptions::panic_budget`] panics retires: its remaining
//!    deque is drained into the shared retry queue for the survivors and
//!    the pool degrades N → N−1 → … .
//! 4. **Speculate** — an idle worker re-executes a straggler morsel
//!    in-flight for ≥ `speculate_factor ×` the median morsel duration;
//!    first result wins (per-group atomic), the loser accrues nothing.
//! 5. **Serial fallback** — morsels still unfinished when every worker
//!    has retired are executed serially by the coordinator (the
//!    degradation endpoint: the query completes even with zero live
//!    workers), with the same retry/quarantine budgets.
//!
//! Exactly-once accounting: a per-group first-result-wins gate means one
//! partial per row-group index reaches the exchange — retried,
//! reassigned and speculated re-executions can never double-count rows —
//! and the [`Exchange`] is idempotent per group index behind that as
//! defense in depth. Non-retryable errors (cancellation, schema errors,
//! a panic persisting through the budget — [`PirError::MorselPanic`])
//! still fail the query fast.
//!
//! Scan accounting is untouched by design: the engines account scans in
//! a serial, fault-free pre-pass before execution (see `engine-sql`), so
//! `ScanStats` — and therefore billing — are identical at any worker
//! count, and a cancelled, stolen, recovered or speculated morsel can
//! never be double-billed. When morsel recovery is active the engines
//! instead route the fault injector *here* ([`execute_with_faults`]):
//! each morsel probes its row group's read set through
//! [`ScanFaults::probe_group`], whose decisions are pure functions of
//! `(fingerprint, group, leaf)` — the same schedule the serial pre-pass
//! would have seen.
//!
//! ## The interpreted fan-out
//!
//! The interpreters parallelize over the same unit through
//! [`for_each_group_ordered`], their one claim-a-group loop; its
//! per-group results come back in group order, so their merges are as
//! schedule-independent as the exchange's.

mod ordered;

pub use ordered::{for_each_group_ordered, resolve_threads, OrderedPartials};

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use nf2_columnar::{ColumnarError, MorselRecovery, RowGroup, ScanFaults, Table};
use obs::{CancelToken, MetricsRegistry, Stage, TraceCtx};
use parking_lot::Mutex;
use physical_ir::{
    execute_group, Exchange, GroupScratch, PartialAgg, PhysPlan, PirError, Provenance,
};

/// Morsel-level fault recovery knobs (see the crate docs for the
/// ladder). All bounds are per morsel except `panic_budget`, which is
/// per worker.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RecoveryOptions {
    /// Failed attempts a morsel may accumulate (across in-place retries
    /// and quarantine re-executions) before the query fails with the
    /// morsel's error. The serial fallback pass gets a fresh budget.
    pub max_retries: u32,
    /// Panics a worker absorbs before it retires and its deque is
    /// reassigned to the survivors. `0` retires a worker on its first
    /// caught panic.
    pub panic_budget: u32,
    /// An idle worker speculates a straggler morsel once it has been
    /// in flight for `speculate_factor ×` the median completed-morsel
    /// duration. `<= 0` disables speculation.
    pub speculate_factor: f64,
    /// Completed-morsel duration samples required before speculation may
    /// trigger (the median is meaningless earlier).
    pub speculate_min_samples: usize,
}

impl Default for RecoveryOptions {
    fn default() -> RecoveryOptions {
        RecoveryOptions {
            max_retries: 3,
            panic_budget: 1,
            speculate_factor: 8.0,
            speculate_min_samples: 8,
        }
    }
}

/// Parallel execution options.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ParOptions {
    /// Worker threads. Clamped to `[1, morsel count]`; `0` and `1` both
    /// run the single-worker pool (still through the morsel machinery,
    /// so the 1-worker path exercises the same code the N-worker path
    /// does).
    pub workers: usize,
    /// Seed of the per-worker victim-visit order for work stealing.
    /// Changing it permutes steal interleaving without changing output —
    /// the determinism tests sweep it adversarially.
    pub steal_seed: u64,
    /// Morsel-level fault recovery; `None` (the default) keeps the
    /// fail-fast pool: the first morsel error aborts the query and a
    /// kernel panic propagates out of the scope.
    pub recovery: Option<RecoveryOptions>,
}

impl ParOptions {
    /// Options for `workers` threads with the default steal order and no
    /// recovery.
    pub fn new(workers: usize) -> ParOptions {
        ParOptions {
            workers,
            steal_seed: 0,
            recovery: None,
        }
    }

    /// Options for `workers` threads with default recovery enabled.
    pub fn recovering(workers: usize) -> ParOptions {
        ParOptions {
            recovery: Some(RecoveryOptions::default()),
            ..ParOptions::new(workers)
        }
    }
}

/// What a parallel run did, for tests and the scaling bench.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ParStats {
    /// Workers actually used (after clamping to the morsel count).
    pub workers: usize,
    /// Morsels executed — exactly the number of non-skipped row groups
    /// (each claimed and executed once; a mismatch would mean lost or
    /// double-executed work).
    pub morsels: u64,
    /// Morsels obtained by stealing from another worker's deque.
    pub steals: u64,
    /// Rows processed across all morsels.
    pub rows: u64,
    /// Typed recovery outcome counters; all zero unless
    /// [`ParOptions::recovery`] was set.
    pub recovery: MorselRecovery,
}

/// splitmix64 step (same constants as the chaos generator) — seeds the
/// per-worker victim orders without an RNG dependency.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut x = *state;
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The victim-visit order of worker `w`: a seeded Fisher–Yates
/// permutation of all worker indices (self is skipped at steal time).
fn victim_order(w: usize, workers: usize, steal_seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..workers).collect();
    let mut state = steal_seed ^ (w as u64 + 1).wrapping_mul(0xA076_1D64_78BD_642F);
    for i in (1..order.len()).rev() {
        let j = (splitmix64(&mut state) % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    order
}

/// Best-effort text of a panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "unknown panic payload".to_string()
    }
}

/// A morsel in the shared retry queue, carrying the failed attempts it
/// has already burned.
#[derive(Clone, Copy)]
struct Morsel {
    group: usize,
    attempts: u32,
}

/// What a recovering worker's claim produced.
enum Claimed {
    /// A morsel from a deque (own front or a victim's back); the flag
    /// says whether it was stolen.
    Fresh(usize, bool),
    /// A quarantined or reassigned morsel from the shared retry queue.
    Requeued(Morsel),
    /// A straggler to re-execute speculatively.
    Speculate(usize),
}

/// How one morsel execution failed.
enum MorselFailure {
    /// The kernel (or fault probe) panicked; carries the payload text.
    Panicked(String),
    /// A typed error.
    Failed(PirError),
}

/// Shared recovery state: the retry queue, the per-group
/// first-result-wins gates, speculation bookkeeping and the typed
/// outcome counters.
struct RecoveryState {
    retryq: Mutex<VecDeque<Morsel>>,
    /// Per row-group "a partial for this group won" gate. Indexed by
    /// group index (not morsel position); skipped groups stay false.
    done: Vec<AtomicBool>,
    /// Per row-group "a speculative re-execution was launched" gate.
    speculated: Vec<AtomicBool>,
    /// Morsels currently executing: `(group, start)` — the speculation
    /// candidate list.
    inflight: Mutex<Vec<(usize, Instant)>>,
    /// Completed-morsel durations in seconds (speculation median).
    samples: Mutex<Vec<f64>>,
    /// Morsels not yet won — idle workers park while this is nonzero so
    /// they can pick up requeued morsels and stragglers.
    outstanding: AtomicUsize,
    wins: AtomicU64,
    retried: AtomicU64,
    respeculated: AtomicU64,
    reassigned: AtomicU64,
    quarantined: AtomicU64,
    workers_lost: AtomicU64,
}

impl RecoveryState {
    fn new(n_groups: usize, n_morsels: usize) -> RecoveryState {
        RecoveryState {
            retryq: Mutex::new(VecDeque::new()),
            done: (0..n_groups).map(|_| AtomicBool::new(false)).collect(),
            speculated: (0..n_groups).map(|_| AtomicBool::new(false)).collect(),
            inflight: Mutex::new(Vec::new()),
            samples: Mutex::new(Vec::new()),
            outstanding: AtomicUsize::new(n_morsels),
            wins: AtomicU64::new(0),
            retried: AtomicU64::new(0),
            respeculated: AtomicU64::new(0),
            reassigned: AtomicU64::new(0),
            quarantined: AtomicU64::new(0),
            workers_lost: AtomicU64::new(0),
        }
    }

    fn snapshot(&self) -> MorselRecovery {
        MorselRecovery {
            ok: self.wins.load(Ordering::Relaxed),
            retried: self.retried.load(Ordering::Relaxed),
            respeculated: self.respeculated.load(Ordering::Relaxed),
            reassigned: self.reassigned.load(Ordering::Relaxed),
            quarantined: self.quarantined.load(Ordering::Relaxed),
            workers_lost: self.workers_lost.load(Ordering::Relaxed),
        }
    }
}

/// Everything the worker pool shares, bundled so the worker loops are
/// methods instead of 12-argument functions.
struct Pool<'a> {
    plan: &'a PhysPlan,
    groups: &'a [RowGroup],
    /// The plan's read set — the leaves each morsel probes through the
    /// fault injector.
    cols: Vec<nested_value::Path>,
    queues: Vec<Mutex<VecDeque<usize>>>,
    opts: ParOptions,
    stop: AtomicBool,
    rows_done: AtomicU64,
    steals: AtomicU64,
    first_err: Mutex<Option<PirError>>,
    faults: Option<ScanFaults<'a>>,
    rec: RecoveryState,
}

impl Pool<'_> {
    fn fail(&self, e: PirError) {
        let mut slot = self.first_err.lock();
        if slot.is_none() {
            *slot = Some(e);
        }
        self.stop.store(true, Ordering::Relaxed);
    }

    /// Executes one morsel under `catch_unwind`: probes the fault
    /// injector over the plan's read set (when attached), then runs the
    /// per-group kernel. A panic — injected or a genuine kernel bug —
    /// is converted into [`MorselFailure::Panicked`] instead of
    /// poisoning the scope.
    fn run_one(&self, g: usize, scratch: &mut GroupScratch) -> Result<Vec<i64>, MorselFailure> {
        let group = &self.groups[g];
        let result = catch_unwind(AssertUnwindSafe(|| {
            if let Some(f) = &self.faults {
                f.probe_group(g as u32, &self.cols)
                    .map_err(|e| PirError::Columnar(ColumnarError::Fault(e)))?;
            }
            let mut bins = Vec::new();
            execute_group(self.plan, group, scratch, &mut bins).map_err(PirError::Columnar)?;
            Ok(bins)
        }));
        match result {
            Ok(Ok(bins)) => Ok(bins),
            Ok(Err(e)) => Err(MorselFailure::Failed(e)),
            Err(payload) => Err(MorselFailure::Panicked(panic_message(&*payload))),
        }
    }

    /// First-result-wins gate: true iff this caller's partial for group
    /// `g` is the one that counts. Losers (a speculation race, or a
    /// requeued morsel whose original finished after all) accrue
    /// nothing — not rows, not a partial.
    fn try_win(&self, g: usize) -> bool {
        if self.rec.done[g]
            .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
        {
            self.rec.outstanding.fetch_sub(1, Ordering::AcqRel);
            self.rec.wins.fetch_add(1, Ordering::Relaxed);
            true
        } else {
            false
        }
    }

    /// Accrues a morsel's result exactly once: global progress, the
    /// worker span's row counters, and the partial for the exchange.
    fn accrue(
        &self,
        g: usize,
        bins: Vec<i64>,
        provenance: Provenance,
        span: &mut obs::SpanGuard,
        out: &mut Vec<PartialAgg>,
    ) {
        let rows = self.groups[g].n_rows() as u64;
        self.rows_done.fetch_add(rows, Ordering::Relaxed);
        span.add_rows_in(rows);
        span.add_rows_out(bins.len() as u64);
        out.push(PartialAgg {
            group: g,
            bins,
            rows,
            provenance,
        });
    }

    /// The fail-fast claim: front of own deque, else the back of the
    /// first non-empty victim in visit order.
    fn claim(&self, w: usize, order: &[usize]) -> Option<(usize, bool)> {
        if let Some(g) = self.queues[w].lock().pop_front() {
            return Some((g, false));
        }
        for &v in order {
            if v == w {
                continue;
            }
            if let Some(g) = self.queues[v].lock().pop_back() {
                return Some((g, true));
            }
        }
        None
    }

    /// The recovering claim: own deque, then the shared retry queue
    /// (quarantined/reassigned morsels), then stealing, then — if idle —
    /// a speculative straggler.
    fn claim_recovering(
        &self,
        w: usize,
        order: &[usize],
        ropts: RecoveryOptions,
    ) -> Option<Claimed> {
        if let Some(g) = self.queues[w].lock().pop_front() {
            return Some(Claimed::Fresh(g, false));
        }
        if let Some(m) = self.rec.retryq.lock().pop_front() {
            return Some(Claimed::Requeued(m));
        }
        for &v in order {
            if v == w {
                continue;
            }
            if let Some(g) = self.queues[v].lock().pop_back() {
                return Some(Claimed::Fresh(g, true));
            }
        }
        if ropts.speculate_factor <= 0.0 {
            return None;
        }
        let threshold = {
            let samples = self.rec.samples.lock();
            if samples.len() < ropts.speculate_min_samples.max(1) {
                return None;
            }
            let mut sorted = samples.clone();
            drop(samples);
            sorted.sort_unstable_by(f64::total_cmp);
            sorted[sorted.len() / 2] * ropts.speculate_factor
        };
        let candidates: Vec<(usize, Instant)> = self.rec.inflight.lock().clone();
        for (g, since) in candidates {
            if self.rec.done[g].load(Ordering::Acquire) {
                continue;
            }
            if since.elapsed().as_secs_f64() < threshold {
                continue;
            }
            if self.rec.speculated[g]
                .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                return Some(Claimed::Speculate(g));
            }
        }
        None
    }

    /// The fail-fast worker loop (recovery off): the first morsel error
    /// stops the pool; a kernel panic propagates out of the scope.
    fn worker_loop(
        &self,
        w: usize,
        trace: &TraceCtx,
        cancel: &CancelToken,
        metrics: Option<&MetricsRegistry>,
    ) -> Vec<PartialAgg> {
        let order = victim_order(w, self.queues.len(), self.opts.steal_seed);
        let mut span = trace.span_with(Stage::Aggregate, || format!("worker {w}"));
        let mut scratch = GroupScratch::new(self.plan);
        let mut out: Vec<PartialAgg> = Vec::new();
        loop {
            if self.stop.load(Ordering::Relaxed) {
                break;
            }
            if let Some(m) = metrics {
                m.observe("par_queue_depth", self.queues[w].lock().len() as f64);
            }
            let Some((g_idx, stolen)) = self.claim(w, &order) else {
                break;
            };
            if stolen {
                self.steals.fetch_add(1, Ordering::Relaxed);
            }
            // Check before the morsel runs, with globally completed rows —
            // same per-row-group cancellation granularity as the serial
            // executor, overshooting by at most one in-flight morsel per
            // worker.
            if let Err(c) = cancel.check(Stage::Aggregate, self.rows_done.load(Ordering::Relaxed)) {
                self.fail(PirError::Cancelled(c));
                break;
            }
            if let Some(f) = &self.faults {
                if let Err(e) = f.probe_group(g_idx as u32, &self.cols) {
                    self.fail(PirError::Columnar(ColumnarError::Fault(e)));
                    break;
                }
            }
            let group = &self.groups[g_idx];
            let mut bins = Vec::new();
            match execute_group(self.plan, group, &mut scratch, &mut bins) {
                Ok(()) => self.accrue(g_idx, bins, Provenance::first(w), &mut span, &mut out),
                Err(e) => {
                    self.fail(PirError::Columnar(e));
                    break;
                }
            }
        }
        span.finish();
        out
    }

    /// The recovering worker loop — the ladder of the crate docs.
    fn worker_loop_recovering(
        &self,
        w: usize,
        ropts: RecoveryOptions,
        trace: &TraceCtx,
        cancel: &CancelToken,
        metrics: Option<&MetricsRegistry>,
    ) -> Vec<PartialAgg> {
        let order = victim_order(w, self.queues.len(), self.opts.steal_seed);
        let mut span = trace.span_with(Stage::Aggregate, || format!("worker {w}"));
        let mut scratch = GroupScratch::new(self.plan);
        let mut out: Vec<PartialAgg> = Vec::new();
        let mut panics_absorbed = 0u32;
        'claim: loop {
            if self.stop.load(Ordering::Relaxed) {
                break;
            }
            if let Some(m) = metrics {
                m.observe("par_queue_depth", self.queues[w].lock().len() as f64);
            }
            let claimed = match self.claim_recovering(w, &order, ropts) {
                Some(c) => c,
                None => {
                    // Every deque is empty but other workers still hold
                    // morsels in flight: park briefly instead of exiting,
                    // so this worker stays available for morsels they
                    // quarantine or reassign — and to observe stragglers
                    // long enough to speculate them.
                    if self.rec.outstanding.load(Ordering::Acquire) > 0 {
                        std::thread::sleep(Duration::from_micros(50));
                        continue;
                    }
                    break;
                }
            };
            let (g, mut attempts) = match claimed {
                Claimed::Speculate(g) => {
                    self.rec.respeculated.fetch_add(1, Ordering::Relaxed);
                    trace
                        .span_with(Stage::Recovery, || format!("speculate straggler group {g}"))
                        .finish();
                    match self.run_one(g, &mut scratch) {
                        Ok(bins) => {
                            if self.try_win(g) {
                                let provenance = Provenance {
                                    worker: w,
                                    attempt: 1,
                                    speculative: true,
                                };
                                self.accrue(g, bins, provenance, &mut span, &mut out);
                            }
                        }
                        // A failing speculation never fails the query —
                        // the primary execution owns the morsel's fate.
                        Err(MorselFailure::Panicked(_)) => scratch = GroupScratch::new(self.plan),
                        Err(MorselFailure::Failed(_)) => {}
                    }
                    continue 'claim;
                }
                Claimed::Fresh(g, stolen) => {
                    if stolen {
                        self.steals.fetch_add(1, Ordering::Relaxed);
                    }
                    (g, 0u32)
                }
                Claimed::Requeued(m) => (m.group, m.attempts),
            };
            // A speculator may have finished a requeued morsel already.
            if self.rec.done[g].load(Ordering::Acquire) {
                continue 'claim;
            }
            loop {
                if let Err(c) =
                    cancel.check(Stage::Aggregate, self.rows_done.load(Ordering::Relaxed))
                {
                    self.fail(PirError::Cancelled(c));
                    break 'claim;
                }
                self.rec.inflight.lock().push((g, Instant::now()));
                let started = Instant::now();
                let result = self.run_one(g, &mut scratch);
                {
                    let mut infl = self.rec.inflight.lock();
                    if let Some(pos) = infl.iter().position(|&(gg, _)| gg == g) {
                        infl.swap_remove(pos);
                    }
                }
                attempts += 1;
                match result {
                    Ok(bins) => {
                        self.rec
                            .samples
                            .lock()
                            .push(started.elapsed().as_secs_f64());
                        if self.try_win(g) {
                            let provenance = Provenance {
                                worker: w,
                                attempt: attempts,
                                speculative: false,
                            };
                            self.accrue(g, bins, provenance, &mut span, &mut out);
                        }
                        continue 'claim;
                    }
                    Err(MorselFailure::Panicked(message)) => {
                        // The unwind may have torn the scratch mid-write.
                        scratch = GroupScratch::new(self.plan);
                        self.rec.quarantined.fetch_add(1, Ordering::Relaxed);
                        panics_absorbed += 1;
                        trace
                            .span_with(Stage::Recovery, || {
                                format!("quarantine group {g} after panic (attempt {attempts})")
                            })
                            .finish();
                        if attempts > ropts.max_retries {
                            self.fail(PirError::MorselPanic { group: g, message });
                            break 'claim;
                        }
                        self.rec
                            .retryq
                            .lock()
                            .push_back(Morsel { group: g, attempts });
                        if panics_absorbed > ropts.panic_budget {
                            self.retire(w, trace);
                            break 'claim;
                        }
                        continue 'claim;
                    }
                    Err(MorselFailure::Failed(e)) => {
                        if e.retryable() && attempts <= ropts.max_retries {
                            self.rec.retried.fetch_add(1, Ordering::Relaxed);
                            trace
                                .span_with(Stage::Recovery, || {
                                    format!("retry group {g} in place (attempt {})", attempts + 1)
                                })
                                .finish();
                            continue;
                        }
                        self.fail(e);
                        break 'claim;
                    }
                }
            }
        }
        span.finish();
        out
    }

    /// Retires worker `w`: drains its remaining deque into the shared
    /// retry queue for the survivors and degrades the pool by one.
    fn retire(&self, w: usize, trace: &TraceCtx) {
        let drained: Vec<usize> = self.queues[w].lock().drain(..).collect();
        let n = drained.len() as u64;
        if n > 0 {
            let mut rq = self.rec.retryq.lock();
            for g in drained {
                rq.push_back(Morsel {
                    group: g,
                    attempts: 0,
                });
            }
        }
        self.rec.reassigned.fetch_add(n, Ordering::Relaxed);
        self.rec.workers_lost.fetch_add(1, Ordering::Relaxed);
        trace
            .span_with(Stage::Recovery, || {
                format!("worker {w} retired over panic budget; {n} morsels reassigned")
            })
            .finish();
    }

    /// The degradation endpoint: executes every morsel no worker
    /// finished (possible only when all workers retired over their panic
    /// budgets), serially, with a fresh retry budget per morsel.
    fn serial_fallback(
        &self,
        morsels: &[usize],
        ropts: RecoveryOptions,
        trace: &TraceCtx,
        cancel: &CancelToken,
    ) -> Result<Vec<PartialAgg>, PirError> {
        let missing: Vec<usize> = morsels
            .iter()
            .copied()
            .filter(|&g| !self.rec.done[g].load(Ordering::Acquire))
            .collect();
        if missing.is_empty() {
            return Ok(Vec::new());
        }
        let mut span = trace.span_with(Stage::Recovery, || {
            format!("serial fallback over {} morsels", missing.len())
        });
        let mut scratch = GroupScratch::new(self.plan);
        let mut out = Vec::new();
        for g in missing {
            let mut attempts = 0u32;
            loop {
                cancel
                    .check(Stage::Aggregate, self.rows_done.load(Ordering::Relaxed))
                    .map_err(PirError::Cancelled)?;
                attempts += 1;
                match self.run_one(g, &mut scratch) {
                    Ok(bins) => {
                        if self.try_win(g) {
                            let provenance = Provenance {
                                worker: 0,
                                attempt: attempts,
                                speculative: false,
                            };
                            self.accrue(g, bins, provenance, &mut span, &mut out);
                        }
                        break;
                    }
                    Err(MorselFailure::Panicked(message)) => {
                        scratch = GroupScratch::new(self.plan);
                        self.rec.quarantined.fetch_add(1, Ordering::Relaxed);
                        if attempts > ropts.max_retries {
                            return Err(PirError::MorselPanic { group: g, message });
                        }
                    }
                    Err(MorselFailure::Failed(e)) => {
                        if e.retryable() && attempts <= ropts.max_retries {
                            self.rec.retried.fetch_add(1, Ordering::Relaxed);
                            continue;
                        }
                        return Err(e);
                    }
                }
            }
        }
        span.finish();
        Ok(out)
    }
}

/// Executes `plan` over `table` on a worker pool and merges the
/// per-morsel partials deterministically: the returned bin-index
/// sequence is byte-identical to [`physical_ir::execute`] with the same
/// `skip` mask, at any worker count and steal seed.
///
/// `metrics`, when given, receives `par_morsels`/`par_steals` counters,
/// a `par_workers` gauge and `par_queue_depth` samples.
pub fn execute(
    plan: &PhysPlan,
    table: &Table,
    skip: Option<&[bool]>,
    trace: &TraceCtx,
    cancel: &CancelToken,
    metrics: Option<&MetricsRegistry>,
    opts: &ParOptions,
) -> Result<(Vec<i64>, ParStats), PirError> {
    execute_with_faults(plan, table, skip, trace, cancel, metrics, opts, None)
}

/// [`execute`] with a morsel-level fault surface attached: each morsel
/// probes its row group's read set through [`ScanFaults::probe_group`]
/// before the kernel runs. With [`ParOptions::recovery`] set this is the
/// fault-tolerant path (retry / quarantine / reassign / speculate /
/// serial-fallback); without it, an injected fault fails the query fast
/// and an injected panic propagates, exactly like a genuine kernel bug
/// on the fail-fast pool.
#[allow(clippy::too_many_arguments)]
pub fn execute_with_faults(
    plan: &PhysPlan,
    table: &Table,
    skip: Option<&[bool]>,
    trace: &TraceCtx,
    cancel: &CancelToken,
    metrics: Option<&MetricsRegistry>,
    opts: &ParOptions,
    faults: Option<ScanFaults<'_>>,
) -> Result<(Vec<i64>, ParStats), PirError> {
    let (exchange, stats) =
        run_morsels_with_faults(plan, table, skip, trace, cancel, metrics, opts, faults)?;
    let bins = exchange.merge(cancel)?;
    Ok((bins, stats))
}

/// The engines' compiled-execution entry point: `workers > 1` or
/// `recovery` runs `plan` on the morsel pool ([`execute_with_faults`] —
/// recovery goes through the pool even at one worker, so a serial
/// compiled query still gets the retry/quarantine ladder), anything else
/// on the serial [`physical_ir::execute`]. Returns the bin-index
/// sequence, the workers used and the recovery counters.
///
/// `faults` is the morsel fault surface and is attached only with
/// `recovery` on; without it the engines keep the injector on their scan
/// pre-pass.
#[allow(clippy::too_many_arguments)]
pub fn execute_compiled(
    plan: &PhysPlan,
    table: &Table,
    skip: &[bool],
    trace: &TraceCtx,
    cancel: &CancelToken,
    workers: usize,
    recovery: bool,
    faults: Option<ScanFaults<'_>>,
) -> Result<(Vec<i64>, usize, MorselRecovery), PirError> {
    if workers <= 1 && !recovery {
        let bins = physical_ir::execute(plan, table, Some(skip), trace, cancel)?;
        return Ok((bins, 1, MorselRecovery::default()));
    }
    let opts = if recovery {
        ParOptions::recovering(workers.max(1))
    } else {
        ParOptions::new(workers)
    };
    let (bins, stats) = execute_with_faults(
        plan,
        table,
        Some(skip),
        trace,
        cancel,
        None,
        &opts,
        faults.filter(|_| recovery),
    )?;
    Ok((bins, stats.workers, stats.recovery))
}

/// The execution phase of [`execute`]: runs every non-skipped row group
/// through the worker pool and returns the unmerged [`Exchange`].
/// Exposed separately so tests (and the chaos cancel sweep) can trip the
/// token *between* execution and merge and assert the merge still
/// surfaces a typed cancellation.
pub fn run_morsels(
    plan: &PhysPlan,
    table: &Table,
    skip: Option<&[bool]>,
    trace: &TraceCtx,
    cancel: &CancelToken,
    metrics: Option<&MetricsRegistry>,
    opts: &ParOptions,
) -> Result<(Exchange, ParStats), PirError> {
    run_morsels_with_faults(plan, table, skip, trace, cancel, metrics, opts, None)
}

/// The execution phase of [`execute_with_faults`]; see [`run_morsels`].
#[allow(clippy::too_many_arguments)]
pub fn run_morsels_with_faults(
    plan: &PhysPlan,
    table: &Table,
    skip: Option<&[bool]>,
    trace: &TraceCtx,
    cancel: &CancelToken,
    metrics: Option<&MetricsRegistry>,
    opts: &ParOptions,
    faults: Option<ScanFaults<'_>>,
) -> Result<(Exchange, ParStats), PirError> {
    let groups = table.row_groups();
    let morsels: Vec<usize> = (0..groups.len())
        .filter(|&i| !skip.is_some_and(|m| m.get(i).copied().unwrap_or(false)))
        .collect();
    let workers = opts.workers.clamp(1, morsels.len().max(1));

    let mut umbrella =
        trace.span_with(Stage::Aggregate, || format!("compiled parallel x{workers}"));
    let child_ctx = umbrella.ctx();

    // Initial deal: contiguous shards of the morsel list (worker w gets
    // shard w), like Table::shard — stealing then rebalances from the
    // far end of a victim's shard, keeping each worker's run contiguous.
    let shard = morsels.len().div_ceil(workers);
    let queues: Vec<Mutex<VecDeque<usize>>> = (0..workers)
        .map(|w| {
            let lo = (w * shard).min(morsels.len());
            let hi = ((w + 1) * shard).min(morsels.len());
            Mutex::new(morsels[lo..hi].iter().copied().collect())
        })
        .collect();

    let pool = Pool {
        plan,
        groups,
        cols: plan.columns(),
        queues,
        opts: *opts,
        stop: AtomicBool::new(false),
        rows_done: AtomicU64::new(0),
        steals: AtomicU64::new(0),
        first_err: Mutex::new(None),
        faults,
        rec: RecoveryState::new(groups.len(), morsels.len()),
    };

    let per_worker: Vec<Vec<PartialAgg>> = crossbeam::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let pool = &pool;
                let trace = &child_ctx;
                s.spawn(move |_| match pool.opts.recovery {
                    Some(r) => pool.worker_loop_recovering(w, r, trace, cancel, metrics),
                    None => pool.worker_loop(w, trace, cancel, metrics),
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("parallel worker"))
            .collect()
    })
    .expect("worker scope");

    if let Some(e) = pool.first_err.lock().take() {
        return Err(e);
    }

    let mut exchange = Exchange::new();
    for partials in per_worker {
        for p in partials {
            exchange.push(p);
        }
    }
    if let Some(r) = opts.recovery {
        for p in pool.serial_fallback(&morsels, r, &child_ctx, cancel)? {
            exchange.push(p);
        }
    }

    let recovery = if opts.recovery.is_some() {
        pool.rec.snapshot()
    } else {
        MorselRecovery::default()
    };
    let stats = ParStats {
        workers,
        morsels: exchange.len() as u64,
        steals: pool.steals.load(Ordering::Relaxed),
        rows: pool.rows_done.load(Ordering::Relaxed),
        recovery,
    };
    if let Some(m) = metrics {
        m.gauge_set("par_workers", workers as f64);
        m.counter_add("par_morsels", stats.morsels);
        m.counter_add("par_steals", stats.steals);
        if opts.recovery.is_some() {
            m.counter_add("par_morsels_retried", recovery.retried);
            m.counter_add("par_morsels_quarantined", recovery.quarantined);
            m.counter_add("par_morsels_reassigned", recovery.reassigned);
            m.counter_add("par_morsels_respeculated", recovery.respeculated);
            m.counter_add("par_workers_lost", recovery.workers_lost);
        }
    }
    umbrella.add_rows_in(stats.rows);
    umbrella.finish();
    Ok((exchange, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hep_model::generator::build_dataset;
    use hep_model::DatasetSpec;
    use nested_value::Path;
    use nf2_columnar::{FaultClass, FaultConfig, FaultInjector, ScalarPredicate, SelCmp, SelValue};
    use physical_ir::{ComputeNode, FilterNode, TrijetCompute, TrijetPlot};
    use physics::HistSpec;

    fn dataset() -> Table {
        build_dataset(DatasetSpec {
            n_events: 1_200,
            row_group_size: 100,
            seed: 0xC0FFEE,
        })
        .1
    }

    fn scalar_plan() -> PhysPlan {
        PhysPlan {
            filters: vec![FilterNode::Scalar(ScalarPredicate {
                leaf: Path::parse("MET.pt"),
                cmp: SelCmp::Gt,
                value: SelValue::Float(20.0),
            })],
            compute: ComputeNode::ScalarFill {
                leaf: Path::parse("MET.pt"),
            },
            spec: HistSpec::new(50, 0.0, 150.0),
        }
    }

    fn trijet_plan() -> PhysPlan {
        PhysPlan {
            filters: vec![FilterNode::ListCount {
                leaf: Path::parse("Jet.pt"),
                elem: None,
                cmp: SelCmp::Ge,
                count: 3,
            }],
            compute: ComputeNode::Trijet(TrijetCompute {
                pt: Path::parse("Jet.pt"),
                eta: Path::parse("Jet.eta"),
                phi: Path::parse("Jet.phi"),
                mass: Path::parse("Jet.mass"),
                btag: Path::parse("Jet.btag"),
                top_mass: 172.5,
                plot: TrijetPlot::Pt,
            }),
            spec: HistSpec::new(100, 15.0, 40.0),
        }
    }

    fn serial(plan: &PhysPlan, table: &Table, skip: Option<&[bool]>) -> Vec<i64> {
        physical_ir::execute(
            plan,
            table,
            skip,
            &TraceCtx::disabled(),
            &CancelToken::none(),
        )
        .unwrap()
    }

    #[test]
    fn byte_identical_at_any_worker_count_and_steal_seed() {
        let table = dataset();
        for plan in [scalar_plan(), trijet_plan()] {
            let want = serial(&plan, &table, None);
            for workers in [1, 2, 3, 8] {
                for steal_seed in [0, 1, 0xDEAD_BEEF, u64::MAX] {
                    let (bins, stats) = execute(
                        &plan,
                        &table,
                        None,
                        &TraceCtx::disabled(),
                        &CancelToken::none(),
                        None,
                        &ParOptions {
                            workers,
                            steal_seed,
                            recovery: None,
                        },
                    )
                    .unwrap();
                    assert_eq!(bins, want, "workers={workers} seed={steal_seed:#x}");
                    assert_eq!(stats.morsels, table.row_groups().len() as u64);
                    assert_eq!(stats.rows, table.n_rows() as u64);
                    assert_eq!(stats.recovery, MorselRecovery::default());
                }
            }
        }
    }

    #[test]
    fn skip_mask_respected_and_morsels_counted_exactly() {
        let table = dataset();
        let plan = scalar_plan();
        let n_groups = table.row_groups().len();
        let skip: Vec<bool> = (0..n_groups).map(|i| i % 3 == 0).collect();
        let want = serial(&plan, &table, Some(&skip));
        let (bins, stats) = execute(
            &plan,
            &table,
            Some(&skip),
            &TraceCtx::disabled(),
            &CancelToken::none(),
            None,
            &ParOptions::new(4),
        )
        .unwrap();
        assert_eq!(bins, want);
        let expected = skip.iter().filter(|s| !**s).count() as u64;
        assert_eq!(stats.morsels, expected, "each kept group executed once");
    }

    #[test]
    fn already_cancelled_token_stops_before_any_morsel() {
        let table = dataset();
        let cancel = CancelToken::new();
        cancel.cancel();
        let err = execute(
            &scalar_plan(),
            &table,
            None,
            &TraceCtx::disabled(),
            &cancel,
            None,
            &ParOptions::new(4),
        )
        .unwrap_err();
        match err {
            PirError::Cancelled(c) => {
                assert_eq!(c.rows_processed, 0);
                assert_eq!(c.stage, Stage::Aggregate);
            }
            other => panic!("expected cancellation, got {other}"),
        }
    }

    #[test]
    fn cancel_between_execution_and_merge_is_all_or_nothing() {
        let table = dataset();
        let plan = scalar_plan();
        let cancel = CancelToken::new();
        let (exchange, stats) = run_morsels(
            &plan,
            &table,
            None,
            &TraceCtx::disabled(),
            &cancel,
            None,
            &ParOptions::new(2),
        )
        .unwrap();
        assert_eq!(stats.morsels, table.row_groups().len() as u64);
        // The client cancels after every morsel ran but before the merge:
        // the merge must surface a typed cancellation, not partial bins.
        cancel.cancel();
        let err = exchange.merge(&cancel).unwrap_err();
        assert_eq!(err.stage, Stage::Aggregate);
        assert_eq!(err.reason, obs::CancelReason::Explicit);
    }

    #[test]
    fn trace_and_metrics_record_worker_activity() {
        let table = dataset();
        let trace = TraceCtx::enabled();
        let metrics = MetricsRegistry::new();
        let (_, stats) = execute(
            &scalar_plan(),
            &table,
            None,
            &trace,
            &CancelToken::none(),
            Some(&metrics),
            &ParOptions::new(3),
        )
        .unwrap();
        let tree = trace.take_tree();
        let spans = tree.flatten();
        let workers_seen = spans
            .iter()
            .filter(|s| s.label.starts_with("worker "))
            .count();
        assert_eq!(workers_seen, stats.workers);
        assert!(spans
            .iter()
            .any(|s| s.label.starts_with("compiled parallel")));
        let snap = metrics.snapshot();
        assert_eq!(snap.counter("par_morsels"), stats.morsels);
        assert_eq!(snap.counter("par_steals"), stats.steals);
    }

    #[test]
    fn victim_orders_are_permutations_and_seed_sensitive() {
        let a = victim_order(0, 8, 7);
        let b = victim_order(0, 8, 8);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..8).collect::<Vec<_>>());
        assert_ne!(a, b, "different seeds should permute victims differently");
        assert_eq!(a, victim_order(0, 8, 7), "same seed ⇒ same order");
    }

    // ---- recovery ----

    fn recovery_opts() -> RecoveryOptions {
        RecoveryOptions {
            speculate_factor: 0.0, // deterministic unless a test wants it
            ..RecoveryOptions::default()
        }
    }

    #[test]
    fn recovery_on_clean_run_counts_every_morsel_ok() {
        let table = dataset();
        let plan = scalar_plan();
        let want = serial(&plan, &table, None);
        let (bins, stats) = execute(
            &plan,
            &table,
            None,
            &TraceCtx::disabled(),
            &CancelToken::none(),
            None,
            &ParOptions {
                recovery: Some(recovery_opts()),
                ..ParOptions::new(4)
            },
        )
        .unwrap();
        assert_eq!(bins, want);
        assert_eq!(stats.recovery.ok, table.row_groups().len() as u64);
        assert_eq!(stats.recovery.interventions(), 0);
    }

    #[test]
    fn transient_scan_faults_retry_in_place_and_stay_byte_identical() {
        let table = dataset();
        let plan = scalar_plan();
        let want = serial(&plan, &table, None);
        for workers in [1, 2, 4] {
            for steal_seed in [0, 0xDEAD_BEEF] {
                let injector = FaultInjector::new(FaultConfig {
                    transient_attempts: 1,
                    ..FaultConfig::only(FaultClass::Io, 0.4, 0xFA_17)
                });
                let (exchange, stats) = run_morsels_with_faults(
                    &plan,
                    &table,
                    None,
                    &TraceCtx::disabled(),
                    &CancelToken::none(),
                    None,
                    &ParOptions {
                        workers,
                        steal_seed,
                        recovery: Some(recovery_opts()),
                    },
                    Some(ScanFaults::new(&injector, &table)),
                )
                .unwrap();
                assert!(
                    injector.counters().errors() > 0,
                    "the schedule must actually inject faults"
                );
                assert!(
                    stats.recovery.retried > 0,
                    "transient faults must be retried in place (workers={workers})"
                );
                assert_eq!(exchange.duplicates_dropped(), 0, "no double pushes");
                assert_eq!(stats.rows, table.n_rows() as u64, "no double billing");
                assert_eq!(stats.morsels, table.row_groups().len() as u64);
                let bins = exchange.merge(&CancelToken::none()).unwrap();
                assert_eq!(bins, want, "workers={workers} seed={steal_seed:#x}");
            }
        }
    }

    #[test]
    fn persistent_fault_fails_with_typed_error_after_bounded_retries() {
        let table = dataset();
        let injector = FaultInjector::new(FaultConfig {
            transient_attempts: 0, // persistent: never recovers
            ..FaultConfig::only(FaultClass::ChecksumMismatch, 1.0, 1)
        });
        let err = execute_with_faults(
            &scalar_plan(),
            &table,
            None,
            &TraceCtx::disabled(),
            &CancelToken::none(),
            None,
            &ParOptions {
                recovery: Some(recovery_opts()),
                ..ParOptions::new(2)
            },
            Some(ScanFaults::new(&injector, &table)),
        )
        .unwrap_err();
        match err {
            PirError::Columnar(ColumnarError::Fault(s)) => {
                assert_eq!(s.class, FaultClass::ChecksumMismatch);
            }
            other => panic!("expected a fault error, got {other}"),
        }
    }

    #[test]
    fn poisoned_morsel_is_quarantined_and_query_completes() {
        let table = dataset();
        let plan = trijet_plan();
        let want = serial(&plan, &table, None);
        // Transient panic: the first read of a faulting chunk panics,
        // the re-execution after quarantine succeeds.
        for panic_budget in [0, 8] {
            let injector = FaultInjector::new(FaultConfig {
                transient_attempts: 1,
                ..FaultConfig::only(FaultClass::Panic, 0.2, 0xBAD)
            });
            let (bins, stats) = execute_with_faults(
                &plan,
                &table,
                None,
                &TraceCtx::disabled(),
                &CancelToken::none(),
                None,
                &ParOptions {
                    recovery: Some(RecoveryOptions {
                        panic_budget,
                        ..recovery_opts()
                    }),
                    ..ParOptions::new(4)
                },
                Some(ScanFaults::new(&injector, &table)),
            )
            .unwrap();
            assert_eq!(bins, want, "panic_budget={panic_budget}");
            assert!(stats.recovery.quarantined > 0, "panics must quarantine");
            assert_eq!(stats.rows, table.n_rows() as u64, "no double billing");
            if panic_budget == 0 {
                assert!(
                    stats.recovery.workers_lost > 0,
                    "a zero panic budget must retire the catching worker"
                );
            }
        }
    }

    #[test]
    fn persistent_panic_surfaces_typed_morsel_panic() {
        let table = dataset();
        let injector = FaultInjector::new(FaultConfig {
            transient_attempts: 0,
            ..FaultConfig::only(FaultClass::Panic, 1.0, 2)
        });
        let err = execute_with_faults(
            &scalar_plan(),
            &table,
            None,
            &TraceCtx::disabled(),
            &CancelToken::none(),
            None,
            &ParOptions {
                recovery: Some(RecoveryOptions {
                    panic_budget: u32::MAX, // isolate the retry budget
                    ..recovery_opts()
                }),
                ..ParOptions::new(2)
            },
            Some(ScanFaults::new(&injector, &table)),
        )
        .unwrap_err();
        match err {
            PirError::MorselPanic { message, .. } => {
                assert!(message.contains("injected panic"), "got: {message}");
            }
            other => panic!("expected MorselPanic, got {other}"),
        }
    }

    #[test]
    fn all_workers_lost_degrades_to_serial_fallback() {
        let table = dataset();
        let plan = scalar_plan();
        let want = serial(&plan, &table, None);
        // Every chunk read panics three times before recovering, and the
        // panic budget is zero: both workers retire on their first
        // morsel, and the coordinator's serial fallback must finish the
        // query alone.
        let injector = FaultInjector::new(FaultConfig {
            transient_attempts: 3,
            ..FaultConfig::only(FaultClass::Panic, 1.0, 3)
        });
        let trace = TraceCtx::enabled();
        let (bins, stats) = execute_with_faults(
            &plan,
            &table,
            None,
            &trace,
            &CancelToken::none(),
            None,
            &ParOptions {
                recovery: Some(RecoveryOptions {
                    panic_budget: 0,
                    max_retries: 3,
                    ..recovery_opts()
                }),
                ..ParOptions::new(2)
            },
            Some(ScanFaults::new(&injector, &table)),
        )
        .unwrap();
        assert_eq!(bins, want);
        assert_eq!(stats.recovery.workers_lost, 2, "both workers must retire");
        assert_eq!(stats.rows, table.n_rows() as u64);
        let tree = trace.take_tree();
        assert!(
            tree.flatten()
                .iter()
                .any(|s| s.stage == Stage::Recovery && s.label.starts_with("serial fallback")),
            "the fallback pass must record a recovery span"
        );
    }

    #[test]
    fn straggler_is_speculated_and_first_result_wins() {
        // Three morsels, two workers, every probe sleeping 20 ms: after
        // the first two morsels finish, one worker runs the last morsel
        // while the other is idle — the idle one must speculate it once
        // the straggler exceeds 0.5× the median morsel duration.
        let table = build_dataset(DatasetSpec {
            n_events: 300,
            row_group_size: 100,
            seed: 0xC0FFEE,
        })
        .1;
        let plan = scalar_plan();
        let want = serial(&plan, &table, None);
        let injector = FaultInjector::new(FaultConfig {
            latency: Duration::from_millis(20),
            ..FaultConfig::only(FaultClass::Latency, 1.0, 4)
        });
        let (exchange, stats) = run_morsels_with_faults(
            &plan,
            &table,
            None,
            &TraceCtx::disabled(),
            &CancelToken::none(),
            None,
            &ParOptions {
                recovery: Some(RecoveryOptions {
                    speculate_factor: 0.5,
                    speculate_min_samples: 1,
                    ..RecoveryOptions::default()
                }),
                ..ParOptions::new(2)
            },
            Some(ScanFaults::new(&injector, &table)),
        )
        .unwrap();
        assert_eq!(
            stats.recovery.respeculated, 1,
            "the straggler is speculated once"
        );
        assert_eq!(
            exchange.duplicates_dropped(),
            0,
            "losers never reach the exchange"
        );
        assert_eq!(stats.morsels, 3);
        assert_eq!(stats.rows, 300, "the losing attempt accrues nothing");
        assert_eq!(exchange.merge(&CancelToken::none()).unwrap(), want);
    }

    #[test]
    fn recovery_off_fails_whole_query_on_first_fault() {
        let table = dataset();
        let injector = FaultInjector::new(FaultConfig {
            transient_attempts: 1, // transient — but nobody retries
            ..FaultConfig::only(FaultClass::Io, 1.0, 5)
        });
        let err = execute_with_faults(
            &scalar_plan(),
            &table,
            None,
            &TraceCtx::disabled(),
            &CancelToken::none(),
            None,
            &ParOptions::new(2),
            Some(ScanFaults::new(&injector, &table)),
        )
        .unwrap_err();
        assert!(
            matches!(err, PirError::Columnar(ColumnarError::Fault(_))),
            "got {err}"
        );
    }
}
