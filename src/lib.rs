//! # hepquery
//!
//! A from-scratch Rust reproduction of *"Evaluating Query Languages and
//! Systems for High-Energy Physics Data"* (Graur, Müller, Proffitt, Watts,
//! Fourny, Alonso — VLDB 2021): the ADL benchmark, every system it
//! evaluates, the storage substrate they run on, and the measurement
//! harness behind every table and figure.
//!
//! This umbrella crate re-exports the workspace's public API:
//!
//! * [`model`] — the HEP event model and the calibrated synthetic data
//!   generator (the CMS-open-data substitute);
//! * [`columnar`] — the NF² nested columnar store (the Parquet analog:
//!   row groups, projection pushdown, honest compression and scan
//!   accounting);
//! * [`physics`] — four-momentum kinematics and histograms;
//! * [`sql`] — the SQL engine with BigQuery/Presto/Athena dialect
//!   profiles;
//! * [`jsoniq`] — the JSONiq/FLWOR engine (the Rumble analog);
//! * [`rdataframe`] — the RDataFrame-style dataframe engine (the ROOT
//!   analog);
//! * [`physical_ir`] — the shared compiled physical IR (fused batch
//!   kernels) all three language engines lower eligible queries onto;
//! * [`exec_par`] — the one ordered row-group fan-out behind every
//!   parallel path, and on it morsel-parallel execution of compiled
//!   plans with a deterministic exchange/partial-aggregation merge
//!   (byte-identical at any worker count);
//! * [`cloud`] — the instance/pricing/scaling simulator;
//! * [`mod@bench`] — the ADL benchmark: queries, reference implementations,
//!   validation, metrics, and the run orchestrator;
//! * [`service`] — concurrent multi-tenant query serving over the same
//!   engines: worker pool, admission control, deadlines, load shedding and a
//!   BigQuery-style result cache (with the paper's cache-off knob);
//! * [`chaos`] — deterministic fault injection and differential query
//!   fuzzing: seeded random plans lowered to every system under test,
//!   checked bin-for-bin against an interpreter oracle;
//! * [`obs`] — zero-dependency observability: per-query span trees with
//!   typed stages (parse/plan/scan/…) and a sharded metrics registry,
//!   threaded through every engine via the unified
//!   [`bench::engine_api::QueryEngine`] trait.
//!
//! ## Quickstart
//!
//! ```
//! use std::sync::Arc;
//! use hepquery::prelude::*;
//!
//! // 1. Generate a small synthetic data set and store it columnar.
//! let (events, table) = hepquery::model::generator::build_dataset(DatasetSpec {
//!     n_events: 1_000,
//!     row_group_size: 256,
//!     seed: 42,
//! });
//! let table = Arc::new(table);
//!
//! // 2. Run ADL query Q4 through the unified `QueryEngine` API — here
//! //    the BigQuery deployment of the SQL engine…
//! let engine = engine_for(System::BigQuery, table.clone());
//! let run = engine
//!     .execute(&QuerySpec::benchmark(QueryId::Q4), &ExecEnv::seed())
//!     .unwrap();
//!
//! // 3. …and compare with the ground truth.
//! let reference = hepquery::bench::reference::run(QueryId::Q4, &events);
//! assert!(run.histogram.counts_equal(&reference.hist));
//! ```
//!
//! To trace a run, enable the environment's [`obs::TraceCtx`] and read
//! the span tree off the result:
//!
//! ```
//! # use std::sync::Arc;
//! # use hepquery::prelude::*;
//! # let (_, table) = hepquery::model::generator::build_dataset(DatasetSpec {
//! #     n_events: 200, row_group_size: 64, seed: 42 });
//! # let table = Arc::new(table);
//! let env = ExecEnv { trace: obs::TraceCtx::enabled(), ..ExecEnv::seed() };
//! let engine = engine_for(System::Presto, table.clone());
//! let run = engine
//!     .execute(&QuerySpec::benchmark(QueryId::Q1), &env)
//!     .unwrap();
//! assert!(!run.trace.is_empty());
//! println!("{}", run.trace.render(false)); // or .to_json() / .to_chrome_trace()
//! ```

pub use chaos;
pub use cloud_sim as cloud;
pub use engine_flwor as jsoniq;
pub use engine_rdf as rdataframe;
pub use engine_sql as sql;
pub use exec_par;
pub use hep_model as model;
pub use hepbench_core as bench;
pub use nested_value as value;
pub use nf2_columnar as columnar;
pub use obs;
pub use physical_ir;
pub use physics;
pub use query_service as service;

/// Common imports for examples and downstream users.
pub mod prelude {
    pub use crate::bench::adapters::{ExecEnv, ExecOptions};
    pub use crate::bench::engine_api::{
        engine_for, engine_for_compiled, Deployment, QueryEngine, QuerySpec,
    };
    pub use crate::bench::runner::System;
    pub use crate::bench::{QueryId, ALL_QUERIES};
    pub use crate::columnar::{Projection, PushdownCapability, Table};
    pub use crate::model::{DatasetSpec, Event, Generator, GeneratorConfig};
    pub use crate::physics::{FourMomentum, HistSpec, Histogram};
    pub use crate::sql::{Dialect, SqlEngine};
    pub use crate::value::Value;
}
