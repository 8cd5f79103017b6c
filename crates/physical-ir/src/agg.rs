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

use obs::{CancelToken, Cancelled, Stage};

/// Which worker produced a [`PartialAgg`] — bookkeeping, not part of the
/// result: the per-group kernel is deterministic, so a group's partial
/// is byte-identical whichever worker ran it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Provenance {
    /// Worker that produced the partial (0 on the serial path).
    pub worker: usize,
}

impl Provenance {
    /// Provenance for `worker`.
    pub fn first(worker: usize) -> Provenance {
        Provenance { worker }
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
    /// Which worker produced this partial (does not participate in
    /// merging).
    pub provenance: Provenance,
}

/// Collects per-morsel [`PartialAgg`]s in any completion order and
/// merges them in ascending group order (see the module docs for the
/// determinism argument).
#[derive(Clone, Debug, Default)]
pub struct Exchange {
    partials: Vec<PartialAgg>,
}

impl Exchange {
    /// An empty exchange.
    pub fn new() -> Exchange {
        Exchange::default()
    }

    /// Adds one morsel's partial (any order; merging sorts). The
    /// parallel executor yields exactly one partial per row group.
    pub fn push(&mut self, partial: PartialAgg) {
        self.partials.push(partial);
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
