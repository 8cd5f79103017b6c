//! # physical-ir
//!
//! A batch-oriented physical plan shared by the three language engines.
//!
//! The frontends (engine-sql's planned query, engine-flwor's AST,
//! engine-rdf's dataframe ops) each carry a *lowering pass* that maps the
//! queries the IR can express onto one plan shape:
//!
//! ```text
//! Scan → Filter* → Compute → Aggregate(histogram)
//! ```
//!
//! * **Scan** is implicit: [`PhysPlan::columns`] lists the leaf columns the
//!   plan touches; the caller remains responsible for scan accounting
//!   (`ScanStats`, fault injection) so compiled execution is
//!   indistinguishable from interpretation in every ledger.
//! * **Filter** nodes reuse the typed predicate kernels of
//!   [`nf2_columnar::select`] ([`nf2_columnar::apply_predicates`]) to build
//!   a [`nf2_columnar::SelectionVector`] per row group, refined by
//!   list-cardinality predicates evaluated over the offsets array.
//! * **Compute** is either a scalar/list fill or the fused combinatoric
//!   trijet kernel ([`kernel`]): nested `i < j < k` loops over
//!   pre-decomposed four-momentum component vectors, each pair sum formed
//!   once per `(i, j)`, with no per-row interpreter re-entry and no
//!   per-combination allocation. The jet columns are widened to `f64`
//!   once per row group.
//! * **Aggregate** maps each computed value through
//!   [`physics::HistSpec::bin_of`]; the executor returns the bin indices in
//!   event order so each engine can shape its own output (JSONiq item
//!   sequences, SQL `(bin, n)` relations, histograms).
//!
//! Lowering is capability-gated: a frontend lowers a query only when it can
//! prove the plan reproduces the interpreter's exact float operation
//! sequence (the trijet kernel calls the reference's four-vector
//! conversion and sums and compares in its order);
//! everything else falls back to the interpreters.

pub mod agg;
pub mod combi;
pub mod exec;
pub mod kernel;
pub mod plan;

pub use agg::{Exchange, PartialAgg, Provenance};
pub use combi::{for_each_pair, for_each_triple, CombiBuffer};
pub use exec::{execute, execute_group, GroupScratch};
pub use kernel::TrijetScratch;
pub use plan::{ComputeNode, ElemPredicate, FilterNode, PhysPlan, TrijetCompute, TrijetPlot};
