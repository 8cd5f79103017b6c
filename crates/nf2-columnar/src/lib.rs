//! # nf2-columnar
//!
//! A nested (NF²) columnar storage substrate playing the role that Parquet
//! plays in the paper.
//!
//! The paper's performance and cost analysis depends on a handful of storage
//! properties, all of which this crate models explicitly and honestly:
//!
//! * **Column decomposition of nested data** — every scalar leaf of the
//!   schema tree (e.g. `Jet.pt` inside `array<struct<…>>`) is stored as its
//!   own contiguous buffer, with a shared offsets array per repeated parent
//!   (HEP data has no NULLs and at most one repetition level, so full
//!   Dremel-style definition/repetition levels are not needed — offsets are
//!   exactly equivalent here and cheaper).
//! * **Row groups** — horizontal partitions that are the unit of parallelism
//!   for every engine, reproducing the paper's Figure 2 plateau (systems
//!   "only parallelize across row groups, not within them").
//! * **Projection pushdown** — a reader declares which leaf columns it
//!   needs. The [`project::PushdownCapability`] flag reproduces the
//!   Presto/Athena limitation of *not* pushing projections into structs
//!   (paper §4.1, Figure 4b): with `WholeStructs`, touching any field of a
//!   struct charges and reads every leaf beneath it.
//! * **I/O accounting** — every scan yields [`scan::ScanStats`] with
//!   compressed bytes read, uncompressed sizes, and the BigQuery-style
//!   *logical* bytes (every number priced as 8 B regardless of physical
//!   precision), feeding the cost models of the `cloud-sim` crate.
//! * **Compression** — each chunk is sealed with the smallest of several
//!   real lightweight encodings (bit-packed RLE, delta+varint, byte-plane
//!   RLE, value dictionaries); see [`compress`]. Floating-point columns
//!   barely compress — the very property the paper uses to explain
//!   Athena's pricing.
//! * **Zone maps & pruning** — every chunk carries min/max statistics
//!   ([`stats::ZoneMap`]); a [`scan::ScanRequest`] with filter predicates
//!   attached skips row groups proven empty before decoding them, billing
//!   the skipped bytes separately as `bytes_pruned`.
//!
//! The crate also provides a simple on-disk container format ([`mod@file`]) so
//! data sets can be materialized and re-read, with real file sizes.

pub mod column;
pub mod compress;
pub mod error;
pub mod fault;
pub mod file;
pub mod project;
pub mod rowgroup;
pub mod scan;
pub mod schema;
pub mod select;
pub mod stats;
pub mod table;

pub use column::{ColumnChunk, ColumnData};
pub use error::ColumnarError;
pub use fault::{FaultClass, FaultConfig, FaultCounters, FaultInjector, ScanError};
pub use project::{Projection, PushdownCapability};
pub use rowgroup::{GroupReader, RowGroup};
pub use scan::{ExecStats, ScanRequest, ScanRun, ScanStats, READ_RETRIES};
pub use schema::{DataType, Field, LeafInfo, PhysicalType, Schema};
pub use select::{apply_predicates, ScalarPredicate, SelCmp, SelValue, SelectionVector};
pub use stats::ZoneMap;
pub use table::{RowWriter, Table, TableBuilder};

#[cfg(test)]
mod proptests;
