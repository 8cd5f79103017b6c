//! # engine-rdf
//!
//! An RDataFrame-style dataframe engine over the NF² columnar substrate —
//! the workspace's analog of ROOT 6.22's `RDataFrame` interface, the
//! baseline system of the paper.
//!
//! ## Programming model
//!
//! Like the original, the engine exposes the **columnar storage layout**
//! directly to user code (paper §3.7: "they make the columnar storage format
//! part of the programming model"): users reference flat column names such
//! as `Jet_pt` (an `RVec`-like slice per event) rather than nested
//! structures, and chain lazy transformations. As with ROOT's column list
//! and lambda parameters, a callback reads its declared columns by
//! position — `v.arr(1)` is the second name in its `deps` — and each name
//! is resolved once, when the node is added:
//!
//! ```
//! use engine_rdf::{RDataFrame, Options, ColValue};
//! use physics::HistSpec;
//! # let (events, table) = hep_model::generator::build_dataset(
//! #     hep_model::DatasetSpec { n_events: 100, row_group_size: 50, seed: 1 });
//! let df = RDataFrame::new(std::sync::Arc::new(table), Options::default());
//! let hist = df
//!     .filter(&["Jet_pt"], |v| v.arr(0).len() >= 2)
//!     .define("leading_pt", &["Jet_pt", "Jet_eta"], |v| {
//!         let (pt, eta) = (v.arr(0), v.arr(1));
//!         ColValue::F64(if eta[0].abs() < 2.4 { pt[0] } else { 0.0 })
//!     })
//!     .histo1d(HistSpec::new(100, 0.0, 200.0), "leading_pt");
//! let out = hist.run().unwrap();
//! assert!(out.histogram.total() > 0);
//! ```
//!
//! ## Execution model
//!
//! Booked actions execute in a single pass over the table, parallelized
//! **across row groups** (implicit multithreading, like
//! `ROOT::EnableImplicitMT`) by the workspace's shared fan-out,
//! `exec_par::for_each_group_ordered`. Defines are evaluated lazily per
//! event and cached; filters cut the event short. Every row group fills
//! its own partial histograms and the partials are merged in row-group
//! order, so a result — bins and the `f64` moments alike — is a function
//! of the table alone, at any thread count.
//!
//! ## The v6.22 scaling cliff
//!
//! The paper observes (§4.1, \[4\], \[28\]) that RDataFrame *degrades* beyond a
//! certain core count due to lock contention on its shared fill path. This
//! engine has no such lock to contend on; the cliff is modelled where the
//! figures take it from, the κ of
//! `cloud_sim::perf::SelfManagedProfile::rdataframe_v622()`.

mod compile;
pub mod dataframe;
pub mod exec;
pub mod view;

pub use dataframe::{BookedHisto, Options, RDataFrame, RdfError};
pub use exec::RunOutput;
pub use nf2_columnar::{SelCmp, SelValue};
pub use view::{ColValue, EventView};
