//! # engine-sql
//!
//! A SQL query engine for NF² (nested) data with **per-dialect capability
//! profiles**, standing in for the three SQL systems of the paper: Google
//! BigQuery, PrestoDB, and Amazon Athena.
//!
//! The engine implements the SQL:1999-and-beyond constructs the paper's
//! functional analysis (§3) identifies as essential for HEP analytics:
//!
//! * `UNNEST` in `CROSS JOIN` position, with `WITH ORDINALITY` (Presto/
//!   Athena) and `WITH OFFSET` (BigQuery) index generation (R1.1–R1.3);
//! * correlated **nested subqueries** over `UNNEST` of the outer row's
//!   arrays (R2.2 — BigQuery only, like in the paper);
//! * non-standard **array functions** `FILTER`, `TRANSFORM`, `REDUCE`,
//!   `CARDINALITY`, `ANY_MATCH`/`NONE_MATCH`, `COMBINATIONS` with lambda
//!   expressions (R3.3 — Presto/Athena flavour);
//! * `ROW`/`STRUCT` construction — `CAST(ROW(…) AS ROW(…))` for Presto,
//!   inline `STRUCT<…>(…)` and `STRUCT(… AS name)` for BigQuery
//!   (R2.1/R3.1/R3.2);
//! * chains of **common table expressions** and SQL **UDFs**
//!   (`CREATE TEMP FUNCTION` — BigQuery; `CREATE FUNCTION … RETURN` —
//!   Presto, with its "UDFs cannot call UDFs" restriction; Athena: none)
//!   (R1.4/R2.3);
//! * `GROUP BY` on select aliases (BigQuery divergence, R2.4), `MIN_BY`
//!   aggregates, `ORDER BY`/`LIMIT` in subqueries.
//!
//! A [`dialect::Dialect`] is enforced at plan time: queries using constructs
//! a system lacks fail with a capability error, exactly mirroring Table 1.
//!
//! Execution is row-at-a-time over the columnar substrate with projection
//! pushdown limited by the dialect's [`nf2_columnar::PushdownCapability`]
//! (Presto/Athena read whole structs — paper §4.1/Fig 4b). Queries whose
//! root is a decomposable aggregation run **segment-parallel** over row
//! groups (Presto's split model) and merge the per-group partials in group
//! order; any other root evaluates over the whole table at once; see
//! [`exec`] and [`plan::root_merge_spec`].
//!
//! [`SqlEngine::new`] takes the workspace's one [`exec_par::ExecOptions`]
//! (threads, morsel workers, zone-map pruning, vectorized filter, compile,
//! morsel recovery); [`SqlEngine::set_env`] attaches a run's
//! [`exec_par::ExecEnv`] — its option overrides, buffer pool, fault
//! injector, trace context and cancel token.

pub mod ast;
pub mod compile;
pub mod dialect;
pub mod engine;
pub mod error;
pub mod exec;
pub mod functions;
pub mod parser;
pub mod plan;
pub mod token;

pub use dialect::{Dialect, DialectName, UdfSupport};
pub use engine::{QueryOutput, SqlEngine};
pub use error::SqlError;
/// [`exec_par::ExecOptions`] under its old name; read only by `benchmark/src/layers.rs` until ROADMAP item 1.
pub use exec_par::ExecOptions as SqlOptions;

#[cfg(test)]
mod proptests;
#[cfg(test)]
mod tests_queries;
