//! The load the harness generates is a pure function of `--seed`, the
//! program under test only sees generated inputs, and the exact-count
//! metrics repeat bit for bit.

use hepquery_benchmark::layers;
use hepquery_benchmark::loadgen::{self, streams, SplitMix64};
use hepquery_benchmark::report;
use hepquery_benchmark::workloads::{self, Workload, DECK_LEN, N_TENANTS};

/// The phase-B schedule at the nominal rate of the authoring host (the
/// run-time rate follows the measured capacity; the gaps, the decks and
/// the tenant draws it scales are what the seed pins).
fn schedule(seed: u64) -> Vec<loadgen::Arrival> {
    let slots = loadgen::zipf_weights(workloads::mix_slots().len(), 1.1);
    let tenants = loadgen::zipf_weights(N_TENANTS, 1.2);
    loadgen::open_loop_schedule(seed, 200.0, 10.5, &slots, DECK_LEN, &tenants)
}

#[test]
fn open_loop_schedule_is_a_pure_function_of_the_seed() {
    let a = schedule(1);
    assert_eq!(a, schedule(1));
    assert_ne!(loadgen::digest(&a), loadgen::digest(&schedule(2)));
    assert_eq!(a.len(), 2100);
    // Pinned: changing the generator changes the offered load of every
    // later measurement, so it must be a deliberate benchmark change.
    assert_eq!(
        loadgen::digest(&a),
        PINNED_DIGEST_SEED_1,
        "{:#018x}",
        loadgen::digest(&a)
    );
}

const PINNED_DIGEST_SEED_1: u64 = 0xd759_bfad_6f9b_581c;

#[test]
fn query_and_tenant_draws_are_a_pure_function_of_the_seed() {
    let w = loadgen::zipf_weights(41, 1.1);
    let deck = |seed| {
        loadgen::stratified_deck(
            &w,
            DECK_LEN,
            &mut SplitMix64::stream(seed, streams::CLOSED_DECK),
        )
    };
    assert_eq!(deck(1), deck(1));
    assert_ne!(deck(1), deck(2));
    let t = loadgen::zipf_weights(N_TENANTS, 1.2);
    let draws = |seed| {
        let mut g = SplitMix64::stream(seed, streams::TENANTS);
        (0..64)
            .map(|_| loadgen::draw(&t, g.unit_f64()))
            .collect::<Vec<_>>()
    };
    assert_eq!(draws(1), draws(1));
    assert_ne!(draws(1), draws(2));
}

#[test]
fn the_mix_has_forty_one_slots_ranked_cheap_to_expensive() {
    let slots = workloads::mix_slots();
    assert_eq!(slots.len(), 41);
    assert_eq!(slots.iter().filter(|s| s.compiled).count(), 6);
    assert_eq!(workloads::slot_name(slots[0]), "rdataframe/Q1");
    assert_eq!(workloads::slot_name(slots[40]), "jsoniq/Q8");
}

#[test]
fn the_program_receives_only_generated_inputs() {
    // `layers.rs` is the only file that calls the program. It must not
    // know which workload is running, and the only function that takes
    // a seed is the input generator.
    let src = include_str!("../src/layers.rs");
    assert!(
        !src.contains("crate::workloads"),
        "layers.rs must not see workloads"
    );
    assert_eq!(
        src.matches("seed: u64").count(),
        1,
        "only generate_events takes a seed"
    );
    // Same seed, same table — whichever workload asks.
    let a = layers::table_info(&workloads::build_dataset(7, 512).table);
    let b = layers::table_info(&workloads::build_dataset(7, 512).table);
    let c = layers::table_info(&workloads::build_dataset(8, 512).table);
    assert_eq!(a, b);
    assert_ne!(a.fingerprint, c.fingerprint);
}

#[test]
fn exact_count_metrics_are_bit_identical_across_runs() {
    let exact = |m: &workloads::Measured| -> Vec<u64> {
        report::end_to_end(m)
            .into_iter()
            .filter(|m| matches!(m.name, "scan_bytes_per_event" | "stored_bytes_per_event"))
            .map(|m| m.value.to_bits())
            .collect()
    };
    let a = workloads::run(Workload::ServeMix, 3, 0.3, 2);
    let b = workloads::run(Workload::ServeMix, 3, 0.3, 2);
    assert_eq!((a.failed, b.failed), (0, 0), "{:?} {:?}", a.notes, b.notes);
    assert_eq!(exact(&a), exact(&b));
    assert_eq!(exact(&a).len(), 2);
    // The third exact count: zone-map groups pruned for the event window.
    let ds = workloads::build_dataset(3, 2_048);
    let pruned = layers::probe_skip_mask(&ds.table);
    assert_eq!(pruned, layers::probe_skip_mask(&ds.table));
    assert!(pruned > 0 && pruned < layers::table_info(&ds.table).groups);
}
