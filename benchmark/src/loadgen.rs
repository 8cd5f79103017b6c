//! The harness's own seeded load generator (no dependency on
//! `crates/bench`): splitmix64, Zipf weights, stratified query decks and
//! the open-loop arrival schedule of `serve_mix`.
//!
//! Everything here is pure data derived from `--seed`; the program under
//! test only ever sees the generated requests.

/// Deterministic 64-bit generator — the only randomness source, so one
/// `u64` pins a whole workload.
#[derive(Clone, Debug)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64 { state: seed }
    }

    /// An independent generator for a named sub-stream of `seed`
    /// (deck order, arrival gaps and tenant draws must not share one
    /// stream, or lengthening one would shift the others).
    pub fn stream(seed: u64, stream: u64) -> SplitMix64 {
        let mut g = SplitMix64::new(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        g.next_u64();
        g
    }

    /// Next 64 uniformly random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform f64 in `[0, 1)` with 53 random bits.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Normalised Zipf weights over ranks `0..n`: rank `r` has weight
/// `∝ 1 / (r+1)^s`.
pub fn zipf_weights(n: usize, s: f64) -> Vec<f64> {
    assert!(n > 0, "zipf over zero ranks");
    let raw: Vec<f64> = (0..n).map(|r| 1.0 / ((r + 1) as f64).powf(s)).collect();
    let total: f64 = raw.iter().sum();
    raw.into_iter().map(|w| w / total).collect()
}

/// Inverse-CDF draw from normalised weights for a uniform `u ∈ [0,1)`.
pub fn draw(weights: &[f64], u: f64) -> usize {
    let mut acc = 0.0;
    for (i, w) in weights.iter().enumerate() {
        acc += w;
        if u < acc {
            return i;
        }
    }
    weights.len() - 1
}

/// A *stratified* deck of `len` slot indices: slot `i` appears
/// `≈ len × weights[i]` times (largest-remainder rounding, at least
/// once), then the deck is shuffled by the seed.
///
/// Drawing the mix independently per request would make the *amount of
/// work* in a fixed window depend on the seed (service times span
/// 1000×, so a few extra tail draws move capacity by tens of percent).
/// A deck keeps the composition identical for every seed and leaves
/// only the order to chance — which is what the queueing behaviour
/// should be sensitive to.
pub fn stratified_deck(weights: &[f64], len: usize, rng: &mut SplitMix64) -> Vec<u16> {
    assert!(len >= weights.len(), "deck shorter than the slot list");
    let ideal: Vec<f64> = weights.iter().map(|w| w * len as f64).collect();
    let mut counts: Vec<usize> = ideal.iter().map(|x| (*x as usize).max(1)).collect();
    // Largest remainder: deal missing cards to the slot furthest below
    // its ideal share, take surplus cards from the slot furthest above
    // (never its last card). Ties go to the lower slot index.
    let furthest = |counts: &[usize], sign: f64| -> usize {
        (0..counts.len())
            .filter(|&i| sign > 0.0 || counts[i] > 1)
            .max_by(|&a, &b| {
                let gap = |i: usize| sign * (ideal[i] - counts[i] as f64);
                gap(a).partial_cmp(&gap(b)).expect("finite").then(b.cmp(&a))
            })
            .expect("len >= slots leaves a slot with a spare card")
    };
    while counts.iter().sum::<usize>() < len {
        let i = furthest(&counts, 1.0);
        counts[i] += 1;
    }
    while counts.iter().sum::<usize>() > len {
        let i = furthest(&counts, -1.0);
        counts[i] -= 1;
    }
    let mut deck: Vec<u16> = counts
        .iter()
        .enumerate()
        .flat_map(|(slot, &c)| std::iter::repeat_n(slot as u16, c))
        .collect();
    for i in (1..deck.len()).rev() {
        deck.swap(i, rng.below(i + 1));
    }
    deck
}

/// One open-loop request: when it is due, what it asks, and for whom.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Arrival {
    /// Intended send instant, nanoseconds after the phase starts.
    pub offset_ns: u64,
    /// Index into the workload's slot list.
    pub slot: u16,
    /// Tenant index.
    pub tenant: u16,
}

/// Sub-stream ids of [`SplitMix64::stream`].
pub mod streams {
    /// Closed-loop deck order.
    pub const CLOSED_DECK: u64 = 1;
    /// Open-loop deck order.
    pub const OPEN_DECK: u64 = 2;
    /// Open-loop inter-arrival gaps.
    pub const GAPS: u64 = 3;
    /// Open-loop tenant draws.
    pub const TENANTS: u64 = 4;
    /// Closed-loop tenant draws.
    pub const CLOSED_TENANTS: u64 = 5;
}

/// The open-loop schedule of `serve_mix`: `round(rate × seconds)`
/// arrivals with exponential (Poisson-process) gaps, rescaled so the
/// schedule spans exactly the window — every seed offers the same rate
/// and the same query composition, only burst placement and order vary.
pub fn open_loop_schedule(
    seed: u64,
    rate_qps: f64,
    seconds: f64,
    slot_weights: &[f64],
    deck_len: usize,
    tenant_weights: &[f64],
) -> Vec<Arrival> {
    let n = ((rate_qps * seconds).round() as usize).max(1);
    let mut gaps = SplitMix64::stream(seed, streams::GAPS);
    let mut cum = Vec::with_capacity(n + 1);
    let mut t = 0.0;
    for _ in 0..=n {
        t += -(1.0 - gaps.unit_f64()).ln();
        cum.push(t);
    }
    let scale = seconds * 1e9 / t;
    let mut deck_rng = SplitMix64::stream(seed, streams::OPEN_DECK);
    let mut deck: Vec<u16> = Vec::new();
    let mut tenants = SplitMix64::stream(seed, streams::TENANTS);
    (0..n)
        .map(|i| {
            if i % deck_len == 0 {
                deck = stratified_deck(slot_weights, deck_len, &mut deck_rng);
            }
            Arrival {
                offset_ns: (cum[i] * scale) as u64,
                slot: deck[i % deck_len],
                tenant: draw(tenant_weights, tenants.unit_f64()) as u16,
            }
        })
        .collect()
}

/// FNV-1a digest of a schedule — pinned by the determinism test.
pub fn digest(arrivals: &[Arrival]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    let mut eat = |x: u64| {
        for b in x.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    for a in arrivals {
        eat(a.offset_ns);
        eat(a.slot as u64);
        eat(a.tenant as u64);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_weights_sum_to_one_and_decrease() {
        let w = zipf_weights(41, 1.1);
        assert!((w.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(w.windows(2).all(|p| p[0] > p[1]));
    }

    #[test]
    fn deck_composition_is_seed_independent() {
        let w = zipf_weights(41, 1.1);
        let a = stratified_deck(&w, 256, &mut SplitMix64::new(1));
        let b = stratified_deck(&w, 256, &mut SplitMix64::new(2));
        assert_eq!(a.len(), 256);
        assert_ne!(a, b, "order must depend on the seed");
        let (mut sa, mut sb) = (a.clone(), b.clone());
        sa.sort_unstable();
        sb.sort_unstable();
        assert_eq!(sa, sb, "composition must not depend on the seed");
        for slot in 0..41u16 {
            assert!(a.contains(&slot), "slot {slot} missing from the deck");
        }
    }

    #[test]
    fn schedule_spans_the_window_at_the_offered_rate() {
        let w = zipf_weights(41, 1.1);
        let t = zipf_weights(64, 1.2);
        let s = open_loop_schedule(7, 250.0, 4.0, &w, 256, &t);
        assert_eq!(s.len(), 1000);
        assert!(s.windows(2).all(|p| p[0].offset_ns <= p[1].offset_ns));
        assert!(s.last().unwrap().offset_ns < 4_000_000_000);
        assert!(s
            .iter()
            .all(|a| (a.slot as usize) < 41 && (a.tenant as usize) < 64));
    }
}
