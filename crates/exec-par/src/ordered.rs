//! The ordered row-group fan-out behind every *interpreted* parallel
//! path (SQL partition-parallel aggregation, the FLWOR partition arm,
//! the RDataFrame event loop).
//!
//! Workers claim row groups from one shared counter, so which worker
//! evaluates which group — and in what order groups complete — depends
//! on scheduling. The results do not: [`for_each_group_ordered`] hands
//! the per-group results back in ascending group index, so a caller that
//! folds them left to right computes a function of the table alone, at
//! any thread count. This is the same mechanism the compiled path's
//! [`physical_ir::Exchange`] applies to morsel partials.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::time::Instant;

use nf2_columnar::RowGroup;
use obs::{CancelToken, Cancelled, Stage};
use parking_lot::Mutex;

/// What [`for_each_group_ordered`] produced.
#[derive(Debug)]
pub struct OrderedPartials<T> {
    /// One result per unskipped row group, in ascending group index.
    pub partials: Vec<T>,
    /// Worker CPU seconds, summed over all workers.
    pub cpu_seconds: f64,
    /// Threads the groups were evaluated on (1 ⇒ the caller's thread).
    pub threads_used: usize,
}

/// Resolves a requested thread count against the work there is: `0`
/// means all available cores, and more threads than unskipped row groups
/// would only idle.
pub fn resolve_threads(requested: usize, skip: &[bool]) -> usize {
    let todo = skip.iter().filter(|s| !**s).count();
    let n = if requested == 0 {
        std::thread::available_parallelism().map_or(4, |n| n.get())
    } else {
        requested
    };
    n.clamp(1, todo.max(1))
}

/// Evaluates `per_group` on every row group not masked by `skip`
/// (`skip[g]` ⇒ group `g` is never touched) on
/// [`resolve_threads`]`(n_threads, skip)` threads — one thread runs
/// inline on the caller's — and returns the results in ascending group
/// index.
///
/// The token is checked once per group under `stage`, with the rows of
/// all groups completed so far. The first error — a cancellation or one
/// returned by `per_group` — stops every worker at its next claim and is
/// the call's result; no partials are returned alongside it.
pub fn for_each_group_ordered<T, E, F>(
    groups: &[RowGroup],
    n_threads: usize,
    skip: &[bool],
    cancel: &CancelToken,
    stage: Stage,
    per_group: F,
) -> Result<OrderedPartials<T>, E>
where
    T: Send,
    E: Send + From<Cancelled>,
    F: Fn(usize, &RowGroup) -> Result<T, E> + Sync,
{
    debug_assert_eq!(skip.len(), groups.len());
    let threads_used = resolve_threads(n_threads, skip);
    // All three atomics are `Relaxed`: none publishes data. Results and
    // the first error travel through the thread joins and the mutex.
    let next = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);
    // Rows of fully processed groups, shared so a cancellation observed
    // by any worker reports total progress.
    let rows_done = AtomicU64::new(0);
    let first_err: Mutex<Option<E>> = Mutex::new(None);

    let worker = || {
        let t0 = Instant::now();
        let mut done: Vec<(usize, T)> = Vec::new();
        while !stop.load(Ordering::Relaxed) {
            let g = next.fetch_add(1, Ordering::Relaxed);
            let Some(group) = groups.get(g) else {
                break;
            };
            if skip[g] {
                continue;
            }
            let result = cancel
                .check(stage, rows_done.load(Ordering::Relaxed))
                .map_err(E::from)
                .and_then(|()| per_group(g, group));
            match result {
                Ok(partial) => {
                    rows_done.fetch_add(group.n_rows() as u64, Ordering::Relaxed);
                    done.push((g, partial));
                }
                Err(e) => {
                    first_err.lock().get_or_insert(e);
                    stop.store(true, Ordering::Relaxed);
                }
            }
        }
        (done, t0.elapsed().as_secs_f64())
    };

    let per_worker = if threads_used <= 1 {
        vec![worker()]
    } else {
        crossbeam::thread::scope(|s| {
            let handles: Vec<_> = (0..threads_used).map(|_| s.spawn(|_| worker())).collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("group worker panicked"))
                .collect()
        })
        .expect("worker scope")
    };
    if let Some(e) = first_err.into_inner() {
        return Err(e);
    }

    let mut cpu_seconds = 0.0;
    let mut slots: Vec<Option<T>> = groups.iter().map(|_| None).collect();
    for (done, cpu) in per_worker {
        cpu_seconds += cpu;
        for (g, partial) in done {
            slots[g] = Some(partial);
        }
    }
    Ok(OrderedPartials {
        partials: slots.into_iter().flatten().collect(),
        cpu_seconds,
        threads_used,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hep_model::generator::build_dataset;
    use hep_model::DatasetSpec;
    use std::time::Duration;

    #[derive(Debug, PartialEq)]
    enum TestError {
        Boom(usize),
        Cancelled(Cancelled),
    }

    impl From<Cancelled> for TestError {
        fn from(c: Cancelled) -> Self {
            TestError::Cancelled(c)
        }
    }

    /// 64 row groups of 10 events.
    fn table() -> nf2_columnar::Table {
        let spec = DatasetSpec {
            n_events: 640,
            row_group_size: 10,
            seed: 0x0DE2,
        };
        build_dataset(spec).1
    }

    fn run<F>(
        n_threads: usize,
        skip: &[bool],
        cancel: &CancelToken,
        per_group: F,
    ) -> Result<OrderedPartials<usize>, TestError>
    where
        F: Fn(usize, &RowGroup) -> Result<usize, TestError> + Sync,
    {
        let groups = table();
        for_each_group_ordered(
            groups.row_groups(),
            n_threads,
            skip,
            cancel,
            Stage::Materialize,
            per_group,
        )
    }

    #[test]
    fn results_come_back_in_group_order_at_any_thread_count() {
        let skip: Vec<bool> = (0..64).map(|g| g % 5 == 0).collect();
        let want: Vec<usize> = (0..64).filter(|g| g % 5 != 0).collect();
        for n_threads in [1, 2, 8] {
            let out = run(n_threads, &skip, &CancelToken::none(), |g, group| {
                // Early groups finish last.
                if g < 8 {
                    std::thread::sleep(Duration::from_millis(2));
                }
                assert_eq!(group.n_rows(), 10);
                Ok(g)
            })
            .unwrap();
            assert_eq!(out.partials, want, "n_threads={n_threads}");
            assert_eq!(out.threads_used, n_threads);
        }
        // More threads than unskipped groups would only idle.
        assert_eq!(resolve_threads(8, &[true, false, true, false]), 2);
        assert_eq!(resolve_threads(3, &[true, true]), 1);
        assert!(resolve_threads(0, &skip) >= 1);
    }

    #[test]
    fn first_error_stops_every_worker_at_its_next_claim() {
        let threads = 4;
        let started = AtomicUsize::new(0);
        let failed = AtomicBool::new(false);
        let err = run(threads, &[false; 64], &CancelToken::none(), |g, _| {
            started.fetch_add(1, Ordering::SeqCst);
            if g == 3 {
                failed.store(true, Ordering::SeqCst);
                return Err(TestError::Boom(g));
            }
            // Hold every other group until group 3 has failed, then give
            // its worker time to raise the stop flag.
            let deadline = Instant::now() + Duration::from_secs(5);
            while !failed.load(Ordering::SeqCst) && Instant::now() < deadline {
                std::thread::yield_now();
            }
            std::thread::sleep(Duration::from_millis(10));
            Ok(g)
        })
        .unwrap_err();
        assert_eq!(err, TestError::Boom(3));
        // Groups 0..=3 were claimed before the failure; after it each
        // worker may start at most the one group it had already claimed.
        let started = started.load(Ordering::SeqCst);
        assert!(
            started <= 4 + threads,
            "{started} of 64 groups started after a failure on group 3"
        );
    }

    #[test]
    fn cancellation_is_typed_and_reports_completed_rows() {
        let cancel = CancelToken::new();
        let err = run(1, &[false; 64], &cancel, |g, _| {
            if g == 2 {
                cancel.cancel();
            }
            Ok(g)
        })
        .unwrap_err();
        let TestError::Cancelled(c) = err else {
            panic!("expected a cancellation, got {err:?}");
        };
        assert_eq!(c.stage, Stage::Materialize);
        assert_eq!(c.rows_processed, 30, "groups 0, 1 and 2 completed");
    }
}
