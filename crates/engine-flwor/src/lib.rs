//! # engine-flwor
//!
//! A JSONiq-subset interpreter over the NF² columnar substrate — the
//! workspace's analog of **Rumble**, the JSONiq-on-Spark system of the
//! paper.
//!
//! The implemented subset covers everything the paper's functional analysis
//! credits JSONiq with (§3, Table 1):
//!
//! * **FLWOR expressions** with `for` (incl. `at` position variables and
//!   multiple bindings — Cartesian products for particle combinations,
//!   R1.2/R1.3), `let` variables (R2.3), `where`, `order by`, `group by`
//!   (with non-grouping variables re-bound to sequences, enabling
//!   fully-encapsulated histogramming à la Listing 9b, R2.6), `count`, and
//!   `return`;
//! * **object and array navigation**: `.field` member lookup, `[]` array
//!   unboxing, `[[i]]` positional member access, and predicate filters
//!   `[…]` with the context item `$$` (R1.1);
//! * **object/array constructors** `{ … }` / `[ … ]` (R3.4);
//! * **user-declared functions** `declare function hep:…(…) { … }` with
//!   namespace-qualified names (R1.4) — function bodies take objects
//!   without declaring member lists, the flexibility §3.6 highlights;
//! * sequence semantics: everything is a flat sequence of items, general
//!   comparisons are existential, arithmetic propagates the empty sequence.
//!
//! ## Execution model (Rumble fidelity)
//!
//! Like Rumble, the engine reads input via a `parquet-file(…)` function
//! call and pushes **no projections** into the scan
//! ([`nf2_columnar::PushdownCapability::None`] — paper §4.1: "Rumble does
//! not seem to push any projections into the scan and thus reads the full
//! file"), and it interprets queries over dynamically typed items, which
//! is the structural reason for its order-of-magnitude slowdown in
//! Figure 1. Top-level map-like FLWORs are evaluated one row group at a
//! time — spread over the configured threads (Spark's parallelism), and
//! on one thread too, so only a group of rows is materialized at once —
//! falling back to one evaluation over the whole table when clauses
//! (group/order/count) make partitioning unsound.

pub mod ast;
pub mod builtins;
pub mod compile;
pub mod engine;
pub mod error;
pub mod interp;
pub mod parser;
pub mod token;

pub use engine::{FlworEngine, FlworOptions, FlworOutput};
pub use error::FlworError;

#[cfg(test)]
mod tests_lang;
