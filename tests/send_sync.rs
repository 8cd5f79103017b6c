//! Compile-time audit of the concurrency contract the query service
//! relies on: the shared table, the result cache, every engine entry
//! point and the service itself must be safe to share across worker
//! threads. Each assertion is checked by the type system — if a future
//! change slips an `Rc`, a raw pointer or a non-`Sync` cell into one of
//! these types, this file stops compiling, which is the point.

use std::sync::Arc;

use hepquery::columnar::{ExecStats, ScanStats, Table};
use hepquery::jsoniq::FlworEngine;
use hepquery::rdataframe::RDataFrame;
use hepquery::service::{
    QueryRequest, QueryResponse, QueryService, ResultCache, ServiceError, Ticket,
};
use hepquery::sql::SqlEngine;

fn assert_send_sync<T: Send + Sync>() {}
fn assert_send<T: Send>() {}

#[test]
fn shared_state_is_send_and_sync() {
    // The table is shared read-only by every worker.
    assert_send_sync::<Table>();
    assert_send_sync::<Arc<Table>>();
    // The result cache is shared mutable state behind its own lock.
    assert_send_sync::<ResultCache>();
    // Accounting values cross thread boundaries by value.
    assert_send_sync::<ScanStats>();
    assert_send_sync::<ExecStats>();
}

#[test]
fn engine_entry_points_are_send_and_sync() {
    // One engine instance is confined to one worker, but each holds an
    // `Arc<Table>` — engines must stay
    // shareable so a worker can be handed a prebuilt one.
    assert_send_sync::<SqlEngine>();
    assert_send_sync::<FlworEngine>();
    assert_send_sync::<RDataFrame>();
    assert_send_sync::<hepquery::bench::adapters::ExecEnv>();
}

#[test]
fn service_surface_is_send_and_sync() {
    // The handle is shared by all client threads.
    assert_send_sync::<QueryService>();
    assert_send_sync::<QueryRequest>();
    assert_send_sync::<QueryResponse>();
    assert_send_sync::<ServiceError>();
    // A ticket moves to whichever thread waits on it, but is owned by
    // exactly one (mpsc receiver: `Send`, deliberately not `Sync`).
    assert_send::<Ticket>();
}
