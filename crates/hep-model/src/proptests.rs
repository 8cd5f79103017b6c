//! Property tests: any generated event survives the schema/columnar path.

use proptest::prelude::*;

use nf2_columnar::{Table, TableBuilder};

use crate::event::Event;
use crate::generator::{Generator, GeneratorConfig};
use crate::schema::{event_schema, TABLE_NAME};
use crate::to_value::{event_to_value, events_to_table};

/// The oracle: every event boxed into a `Value` and appended.
fn value_table(events: &[Event], row_group_size: usize) -> Table {
    let mut b = TableBuilder::new(TABLE_NAME, event_schema().unwrap(), row_group_size);
    for e in events {
        b.append(&event_to_value(e)).unwrap();
    }
    b.finish()
}

/// Typed shredding and the `Value` oracle build the same table: same
/// groups, and per leaf the same chunk (data, offsets, encoding,
/// compressed size, min/max, zone map).
fn assert_same_as_oracle(events: &[Event], row_group_size: usize) {
    let typed = events_to_table(events, row_group_size).unwrap();
    let oracle = value_table(events, row_group_size);
    assert_eq!(typed.row_groups().len(), oracle.row_groups().len());
    for (g, (a, b)) in typed
        .row_groups()
        .iter()
        .zip(oracle.row_groups())
        .enumerate()
    {
        assert_eq!(a.n_rows(), b.n_rows(), "group {g}");
        let (a, b): (Vec<_>, Vec<_>) = (a.columns().collect(), b.columns().collect());
        assert_eq!(a, b, "group {g} (row_group_size {row_group_size})");
    }
    assert_eq!(typed.fingerprint(), oracle.fingerprint());
}

/// Caps each event's collections: mode 0 empties all five, mode 1 keeps
/// them, otherwise each is cut to its own cap.
fn thin(events: &mut [Event], modes: &[usize], caps: &[usize]) {
    for (i, e) in events.iter_mut().enumerate() {
        let cap = |k: usize| match modes[i] {
            0 => 0,
            1 => usize::MAX,
            _ => caps[5 * i + k],
        };
        e.jets.truncate(cap(0));
        e.muons.truncate(cap(1));
        e.electrons.truncate(cap(2));
        e.photons.truncate(cap(3));
        e.taus.truncate(cap(4));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any seed produces events that validate against the schema, columnar-
    /// round-trip exactly, and respect basic physical sanity bounds.
    #[test]
    fn any_seed_roundtrips(seed in any::<u64>(), n in 1usize..60, rg in 1usize..16) {
        let events = Generator::new(GeneratorConfig::default(), seed).generate(n);
        for e in &events {
            prop_assert!(e.met.pt >= 0.0);
            prop_assert!(e.met.sumet > 0.0);
            for j in &e.jets {
                prop_assert!(j.pt >= 15.0 - 1e-6);
                prop_assert!(j.eta.abs() <= 4.0);
                prop_assert!(j.phi.abs() <= std::f64::consts::PI + 1e-6);
            }
        }
        let t = events_to_table(&events, rg).unwrap();
        prop_assert_eq!(t.n_rows(), n);
        let leaves: Vec<_> = t.schema().leaves().iter().collect();
        let got: Vec<_> = t.row_groups().iter()
            .flat_map(|g| g.read_rows(t.schema(), &leaves).unwrap())
            .collect();
        let expect: Vec<_> = events.iter().map(event_to_value).collect();
        prop_assert_eq!(got, expect);
    }

    /// `write_event` through the typed row writer shreds exactly what
    /// `event_to_value` + `append` does, at random multiplicities (all-empty
    /// collections included) and row-group sizes 1, 7, 128 and n + 1.
    #[test]
    fn typed_shredding_matches_the_value_oracle(
        seed in any::<u64>(),
        n in 1usize..48,
        rg_i in 0usize..4,
        modes in proptest::collection::vec(0usize..4, 48..49),
        caps in proptest::collection::vec(0usize..4, 240..241),
    ) {
        let mut events = Generator::new(GeneratorConfig::default(), seed).generate(n);
        thin(&mut events, &modes, &caps);
        let rg = [1, 7, 128, n + 1][rg_i];
        assert_same_as_oracle(&events, rg);
    }

    /// Zero-resonance configs still produce valid events (no empty-range
    /// panics in degenerate parameterizations).
    #[test]
    fn degenerate_configs(seed in any::<u64>()) {
        let cfg = GeneratorConfig {
            z_prob: 0.0,
            top_prob: 0.0,
            jet_tail_prob: 0.0,
            ..GeneratorConfig::default()
        };
        let events = Generator::new(cfg, seed).generate(20);
        prop_assert_eq!(events.len(), 20);
    }
}

#[test]
fn typed_shredding_matches_the_oracle_on_all_empty_collections() {
    let mut events = Generator::new(GeneratorConfig::default(), 3).generate(20);
    thin(&mut events, &[0; 20], &[]);
    for rg in [1, 7, 128, 21] {
        assert_same_as_oracle(&events, rg);
    }
}
