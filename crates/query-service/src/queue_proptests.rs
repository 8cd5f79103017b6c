//! Property tests for the per-tenant round-robin queue (ISSUE 8
//! satellite): under adversarial arrival orders with thousands of
//! tenants, no tenant is starved and the dequeue order is a fair
//! interleaving — a tenant entering the rotation is served within one
//! rotation length (bounded wait in rounds).
//!
//! The tests drive [`QueueState`] directly (same crate, no service or
//! worker pool involved) so the properties are about the scheduling
//! data structure itself, independent of execution timing.

use std::collections::HashMap;
use std::sync::mpsc;
use std::time::Instant;

use hepbench_core::runner::System;
use hepbench_core::QueryId;
use proptest::prelude::*;

use crate::{Job, QueryRequest, QueueState};

/// A queue-only job: the reply channel's receiver is dropped (nothing
/// executes), and the per-tenant FIFO sequence number rides in the
/// otherwise-unused `parallel_workers` field so pops can be checked for
/// per-tenant order.
fn job(tenant: &str, seq: usize) -> Job {
    let (tx, _rx) = mpsc::channel();
    Job {
        req: QueryRequest::new(tenant, System::BigQuery, QueryId::Q1).with_parallel_workers(seq),
        enqueued: Instant::now(),
        cancel: obs::CancelToken::new(),
        reply: tx,
    }
}

fn seq_of(job: &Job) -> usize {
    job.req
        .parallel_workers
        .expect("queue test jobs carry a seq")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Batch fairness: push an adversarial arrival order (any tenant
    /// mix, any interleaving), then drain. The pop sequence must be a
    /// round-robin interleaving — every tenant's 1st job before any
    /// tenant's 2nd, and so on — with per-tenant FIFO preserved and
    /// conservation of jobs.
    #[test]
    fn adversarial_batch_drain_is_round_robin(
        pushes in proptest::collection::vec(0u16..2048, 1..3000),
    ) {
        let mut state = QueueState::default();
        let mut next_seq: HashMap<u16, usize> = HashMap::new();
        for &t in &pushes {
            let seq = next_seq.entry(t).or_insert(0);
            state.push(format!("t{t}"), job(&format!("t{t}"), *seq));
            *seq += 1;
        }
        prop_assert_eq!(state.queued, pushes.len());

        let mut served: HashMap<String, usize> = HashMap::new();
        let mut last_round = 1usize;
        let mut popped = 0usize;
        while let Some(j) = state.pop_next() {
            popped += 1;
            let tenant = j.req.tenant.clone();
            let n = served.entry(tenant.clone()).or_insert(0);
            // Per-tenant FIFO: the seq tag is exactly how many of this
            // tenant's jobs were served before.
            prop_assert!(
                seq_of(&j) == *n,
                "tenant {} out of FIFO order: seq {} after {} served",
                tenant, seq_of(&j), *n
            );
            *n += 1;
            // Fair interleaving: the round number (how many times this
            // tenant has now been served) never goes backwards across
            // the pop sequence — round r+1 starts only once every
            // tenant with work has been served r times.
            prop_assert!(
                *n >= last_round,
                "round regressed: tenant {} served its job #{} after round {}",
                tenant, *n, last_round
            );
            last_round = last_round.max(*n);
        }
        prop_assert_eq!(popped, pushes.len());
        prop_assert_eq!(state.queued, 0);
        prop_assert!(state.pop_next().is_none());
    }

    /// Bounded wait under live interleaving of pushes and pops: when a
    /// tenant (re-)enters the rotation, the rotation length at that
    /// instant is `k`, and the tenant must be served within the next
    /// `k` pops — late joiners go to the back but never further, so no
    /// tenant is starved no matter how the others flood the queue.
    #[test]
    fn interleaved_ops_bound_wait_by_rotation_length(
        ops in proptest::collection::vec(0u32..40, 1..800),
    ) {
        let mut state = QueueState::default();
        let mut next_seq: HashMap<u32, usize> = HashMap::new();
        // tenant -> pop count by which it must have been served.
        let mut due: HashMap<String, usize> = HashMap::new();
        let mut pops = 0usize;
        for &op in &ops {
            if op < 8 {
                // Pop (≈20% of ops).
                if let Some(j) = state.pop_next() {
                    pops += 1;
                    due.remove(&j.req.tenant);
                    for (tenant, deadline) in &due {
                        prop_assert!(
                            *deadline >= pops,
                            "tenant {} starved: due by pop {} but {} pops done",
                            tenant, deadline, pops
                        );
                    }
                }
            } else {
                let t = (op - 8) % 24;
                let tenant = format!("t{t}");
                let entering = !state.queues.contains_key(&tenant);
                let seq = next_seq.entry(t).or_insert(0);
                state.push(tenant.clone(), job(&tenant, *seq));
                *seq += 1;
                if entering {
                    // Entered the rotation behind rr.len()-1 others; one
                    // of the next rr.len() pops must serve it.
                    due.insert(tenant, pops + state.rr.len());
                }
            }
        }
    }
}

/// Thousands of tenants, one flooding tenant: the flood pushes 5 000
/// jobs before anyone else arrives, then 3 000 tenants each push one.
/// Round-robin must serve every small tenant within the first rotation
/// (3 001 pops) and only then let the flood drain.
#[test]
fn flood_tenant_cannot_starve_thousands_of_tenants() {
    const SMALL_TENANTS: usize = 3_000;
    const FLOOD_JOBS: usize = 5_000;
    let mut state = QueueState::default();
    for seq in 0..FLOOD_JOBS {
        state.push("flood".to_string(), job("flood", seq));
    }
    for t in 0..SMALL_TENANTS {
        let tenant = format!("t{t}");
        state.push(tenant.clone(), job(&tenant, 0));
    }
    let mut served_small = 0usize;
    let mut popped = 0usize;
    while let Some(j) = state.pop_next() {
        popped += 1;
        if j.req.tenant != "flood" {
            served_small += 1;
        }
        if popped == SMALL_TENANTS + 1 {
            assert_eq!(
                served_small, SMALL_TENANTS,
                "every one-shot tenant is served within one rotation"
            );
        }
        if popped > SMALL_TENANTS + 1 {
            assert_eq!(
                j.req.tenant, "flood",
                "only the flood remains after round one"
            );
        }
    }
    assert_eq!(popped, FLOOD_JOBS + SMALL_TENANTS);
    assert_eq!(state.queued, 0);
}
