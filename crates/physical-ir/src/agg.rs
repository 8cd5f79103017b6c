//! Exchange + partial aggregation: the operator pair that makes
//! morsel-parallel execution deterministic.
//!
//! A morsel (one row group, the paper's Figure 2 parallelism unit) is
//! executed by whichever worker claims it, producing a [`PartialAgg`] —
//! the morsel's histogram bin indices in row order, tagged with the
//! group's position in the table. The [`Exchange`] accepts partials in
//! any order (completion order depends on worker count and scheduling)
//! and merges them in *group* order, which does not.
//!
//! Two facts make the merged output byte-identical to single-threaded
//! execution at any worker count:
//!
//! 1. within a morsel, bins are produced by the same per-group kernel
//!    ([`crate::execute_group`]) the serial executor runs, in the same
//!    row order;
//! 2. across morsels, concatenation in ascending group index reproduces
//!    the serial group loop exactly — and since histogram aggregation is
//!    additive over integer bin counts (commutative and associative),
//!    any downstream `(bin, count)` reduction is order-independent on
//!    top of that.
//!
//! The merge itself checks the [`CancelToken`] per partial, so a query
//! cancelled between execution and merge (or mid-merge) still honors the
//! all-or-nothing contract: a typed [`Cancelled`] error, never a partial
//! result.

use std::collections::HashSet;

use obs::{CancelToken, Cancelled, Stage};

/// Which execution attempt produced a [`PartialAgg`] — recovery
/// bookkeeping, not part of the result. Two partials for the same group
/// index are byte-identical regardless of provenance (the per-group
/// kernel is deterministic), so the exchange may keep whichever arrived
/// first; provenance exists so tests and traces can tell a first-try
/// partial from a retried or quarantined one.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Provenance {
    /// Worker that produced the partial (0 on the serial path).
    pub worker: usize,
    /// 1-based execution attempt of the morsel (1 = first try; retries
    /// and quarantine re-runs increment it).
    pub attempt: u32,
}

impl Provenance {
    /// First-try provenance for `worker`.
    pub fn first(worker: usize) -> Provenance {
        Provenance { worker, attempt: 1 }
    }
}

/// One morsel's partial aggregate: the bin indices its row group
/// produced, tagged with the group's position for deterministic merging.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PartialAgg {
    /// Index of the row group this morsel covered.
    pub group: usize,
    /// Histogram bin indices in row order within the group.
    pub bins: Vec<i64>,
    /// Rows the morsel processed (cancellation progress accounting).
    pub rows: u64,
    /// Which attempt produced this partial (recovery bookkeeping; does
    /// not participate in merging).
    pub provenance: Provenance,
}

/// Collects per-morsel [`PartialAgg`]s in any completion order and
/// merges them in ascending group order (see the module docs for the
/// determinism argument).
#[derive(Clone, Debug, Default)]
pub struct Exchange {
    partials: Vec<PartialAgg>,
    groups_seen: HashSet<usize>,
    duplicates_dropped: u64,
}

impl Exchange {
    /// An empty exchange.
    pub fn new() -> Exchange {
        Exchange::default()
    }

    /// Adds one morsel's partial (any order; merging sorts). **Idempotent
    /// per group index**: the first partial pushed for a group wins and
    /// any later push for the same group is dropped (and counted in
    /// [`Exchange::duplicates_dropped`]), so a caller that pushes a
    /// re-executed group twice can never double-count it — one partial
    /// per row-group index survives, which, combined with the per-group
    /// kernel being deterministic, keeps the merge byte-identical no
    /// matter which attempt won.
    pub fn push(&mut self, partial: PartialAgg) {
        if self.groups_seen.insert(partial.group) {
            self.partials.push(partial);
        } else {
            self.duplicates_dropped += 1;
        }
    }

    /// Partials dropped because their group index already had a winner —
    /// nonzero only if a caller pushed the same group twice (the parallel
    /// executor yields one partial per group; the exchange is the
    /// defense in depth behind it).
    pub fn duplicates_dropped(&self) -> u64 {
        self.duplicates_dropped
    }

    /// Number of partials collected so far.
    pub fn len(&self) -> usize {
        self.partials.len()
    }

    /// Whether no partial has been collected.
    pub fn is_empty(&self) -> bool {
        self.partials.is_empty()
    }

    /// Total rows processed across all collected partials.
    pub fn rows(&self) -> u64 {
        self.partials.iter().map(|p| p.rows).sum()
    }

    /// Merges the partials into one bin-index sequence, byte-identical
    /// to executing every group serially in table order. The token is
    /// checked once per partial, so cancel-during-merge aborts with a
    /// typed [`Cancelled`] (stage [`Stage::Aggregate`], rows counting
    /// the partials merged so far) instead of returning a partial
    /// result.
    pub fn merge(self, cancel: &CancelToken) -> Result<Vec<i64>, Cancelled> {
        let mut partials = self.partials;
        partials.sort_unstable_by_key(|p| p.group);
        let mut out = Vec::with_capacity(partials.iter().map(|p| p.bins.len()).sum());
        let mut rows_merged = 0u64;
        for p in partials {
            cancel.check(Stage::Aggregate, rows_merged)?;
            out.extend_from_slice(&p.bins);
            rows_merged += p.rows;
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn partial(group: usize, bins: Vec<i64>) -> PartialAgg {
        let rows = bins.len() as u64;
        PartialAgg {
            group,
            bins,
            rows,
            provenance: Provenance::first(0),
        }
    }

    #[test]
    fn duplicate_group_pushes_are_dropped_first_wins() {
        let mut x = Exchange::new();
        x.push(partial(0, vec![1]));
        x.push(PartialAgg {
            provenance: Provenance {
                worker: 3,
                attempt: 2,
            },
            ..partial(1, vec![2, 3])
        });
        // Late duplicates of groups 1 and 0 (the second a retried
        // attempt) must not change the result.
        x.push(partial(1, vec![2, 3]));
        x.push(PartialAgg {
            provenance: Provenance {
                worker: 0,
                attempt: 3,
            },
            ..partial(0, vec![9])
        });
        assert_eq!(x.len(), 2);
        assert_eq!(x.duplicates_dropped(), 2);
        assert_eq!(x.rows(), 3, "losers accrue nothing");
        assert_eq!(x.merge(&CancelToken::none()).unwrap(), vec![1, 2, 3]);
    }

    #[test]
    fn merge_orders_by_group_regardless_of_push_order() {
        let mut a = Exchange::new();
        a.push(partial(2, vec![5, 6]));
        a.push(partial(0, vec![1]));
        a.push(partial(1, vec![2, 3, 4]));
        let mut b = Exchange::new();
        b.push(partial(0, vec![1]));
        b.push(partial(1, vec![2, 3, 4]));
        b.push(partial(2, vec![5, 6]));
        let merged_a = a.merge(&CancelToken::none()).unwrap();
        let merged_b = b.merge(&CancelToken::none()).unwrap();
        assert_eq!(merged_a, vec![1, 2, 3, 4, 5, 6]);
        assert_eq!(merged_a, merged_b);
    }

    #[test]
    fn empty_exchange_merges_to_empty() {
        let x = Exchange::new();
        assert!(x.is_empty());
        assert_eq!(x.merge(&CancelToken::none()).unwrap(), Vec::<i64>::new());
    }

    #[test]
    fn cancel_during_merge_aborts_with_typed_error() {
        let mut x = Exchange::new();
        x.push(partial(0, vec![1, 2]));
        x.push(partial(1, vec![3]));
        assert_eq!(x.rows(), 3);
        let cancel = CancelToken::new();
        cancel.cancel();
        let err = x.merge(&cancel).unwrap_err();
        assert_eq!(err.stage, Stage::Aggregate);
        assert_eq!(err.reason, obs::CancelReason::Explicit);
    }
}
