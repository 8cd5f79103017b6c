//! Combinatoric index enumeration: the candidate pair/triple sets of one
//! event, materialized as index vectors into reusable buffers so the hot
//! loop performs no per-combination allocation.

/// Calls `f(i, j)` for every `0 ≤ i < j < n`, in lexicographic order.
#[inline]
pub fn for_each_pair(n: usize, mut f: impl FnMut(usize, usize)) {
    for i in 0..n {
        for j in (i + 1)..n {
            f(i, j);
        }
    }
}

/// Calls `f(i, j, k)` for every `0 ≤ i < j < k < n`, in lexicographic
/// order — the enumeration order of the reference kernel, which also
/// fixes the first-minimum tie-break of the fused trijet kernel.
#[inline]
pub fn for_each_triple(n: usize, mut f: impl FnMut(usize, usize, usize)) {
    for i in 0..n {
        for j in (i + 1)..n {
            for k in (j + 1)..n {
                f(i, j, k);
            }
        }
    }
}

/// Reusable buffers for materialized combination index vectors.
///
/// No kernel enumerates through it: the trijet kernel runs its own
/// pair-hoisted loops. Only the benchmark harness's `pairs_per_s` /
/// `triples_per_s` probes call it, until ROADMAP item 1 unfreezes the
/// harness and they can move to [`for_each_pair`] / [`for_each_triple`].
#[derive(Debug, Default)]
pub struct CombiBuffer {
    pairs: Vec<[u32; 2]>,
    triples: Vec<[u32; 3]>,
}

impl CombiBuffer {
    /// A buffer with no allocations yet.
    pub fn new() -> CombiBuffer {
        CombiBuffer::default()
    }

    /// All `(i, j)` with `i < j < n`, lexicographic, reusing the buffer.
    pub fn pairs(&mut self, n: usize) -> &[[u32; 2]] {
        self.pairs.clear();
        for_each_pair(n, |i, j| self.pairs.push([i as u32, j as u32]));
        &self.pairs
    }

    /// All `(i, j, k)` with `i < j < k < n`, lexicographic, reusing the
    /// buffer.
    pub fn triples(&mut self, n: usize) -> &[[u32; 3]] {
        self.triples.clear();
        for_each_triple(n, |i, j, k| {
            self.triples.push([i as u32, j as u32, k as u32])
        });
        &self.triples
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Independent oracle: filter the full cross product.
    fn brute_pairs(n: usize) -> Vec<[u32; 2]> {
        let mut out = Vec::new();
        for i in 0..n {
            for j in 0..n {
                if i < j {
                    out.push([i as u32, j as u32]);
                }
            }
        }
        out
    }

    fn brute_triples(n: usize) -> Vec<[u32; 3]> {
        let mut out = Vec::new();
        for i in 0..n {
            for j in 0..n {
                for k in 0..n {
                    if i < j && j < k {
                        out.push([i as u32, j as u32, k as u32]);
                    }
                }
            }
        }
        out
    }

    #[test]
    fn empty_and_singleton_lists_yield_no_combinations() {
        let mut b = CombiBuffer::new();
        assert!(b.pairs(0).is_empty());
        assert!(b.pairs(1).is_empty());
        assert!(b.triples(0).is_empty());
        assert!(b.triples(1).is_empty());
        assert!(b.triples(2).is_empty());
        assert_eq!(b.pairs(2), &[[0, 1]]);
        assert_eq!(b.triples(3), &[[0, 1, 2]]);
    }

    #[test]
    fn buffer_reuse_is_clean_across_events() {
        let mut b = CombiBuffer::new();
        assert_eq!(b.triples(5).len(), 10);
        // A smaller follow-up event must not see stale entries.
        assert_eq!(b.triples(3), &[[0, 1, 2]]);
        assert!(b.triples(0).is_empty());
    }

    proptest! {
        #[test]
        fn pairs_match_brute_force_oracle(n in 0usize..30) {
            let mut b = CombiBuffer::new();
            let want = brute_pairs(n);
            prop_assert_eq!(b.pairs(n), want.as_slice());
        }

        #[test]
        fn triples_match_brute_force_oracle(n in 0usize..20) {
            let mut b = CombiBuffer::new();
            let want = brute_triples(n);
            prop_assert_eq!(b.triples(n), want.as_slice());
        }

        #[test]
        fn counts_are_binomial(n in 0usize..40) {
            let mut pairs = 0u64;
            let mut triples = 0u64;
            for_each_pair(n, |_, _| pairs += 1);
            for_each_triple(n, |_, _, _| triples += 1);
            let n = n as u64;
            prop_assert_eq!(pairs, n.saturating_sub(1) * n / 2);
            prop_assert_eq!(
                triples,
                if n < 3 { 0 } else { n * (n - 1) * (n - 2) / 6 }
            );
        }

        /// Selection-vector-masked rows: enumerating per-row lists only
        /// for selected rows matches a brute-force sweep that skips
        /// masked rows.
        #[test]
        fn masked_row_enumeration_matches_oracle(
            counts in proptest::collection::vec(0usize..7, 0..12),
            mask_seed in any::<u64>(),
        ) {
            let mask: Vec<bool> = counts
                .iter()
                .enumerate()
                .map(|(i, _)| (mask_seed >> (i % 64)) & 1 == 1)
                .collect();
            let sel: Vec<u32> = (0..counts.len() as u32)
                .filter(|&r| mask[r as usize])
                .collect();
            let mut b = CombiBuffer::new();
            let mut got: Vec<(u32, [u32; 3])> = Vec::new();
            for &row in &sel {
                for t in b.triples(counts[row as usize]) {
                    got.push((row, *t));
                }
            }
            let mut want: Vec<(u32, [u32; 3])> = Vec::new();
            for (row, &c) in counts.iter().enumerate() {
                if !mask[row] {
                    continue;
                }
                for t in brute_triples(c) {
                    want.push((row as u32, t));
                }
            }
            prop_assert_eq!(got, want);
        }
    }
}
