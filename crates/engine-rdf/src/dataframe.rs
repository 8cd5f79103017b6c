//! The lazy dataframe graph: `define`/`filter` chains and booked actions.

use std::fmt;
use std::sync::Arc;

use exec_par::{ExecEnv, ExecOptions};
use nf2_columnar::{SelCmp, SelValue, Table};
use physics::HistSpec;

use crate::exec::{self, RunOutput};
use crate::view::{ColValue, ColumnId, ColumnRegistry, EventView};

/// Errors from graph construction or execution.
#[derive(Debug)]
pub enum RdfError {
    /// A column name could not be mapped to a leaf of the table schema.
    UnknownColumn(String),
    /// A `filter_scalar` column is repeated or boolean — only per-event
    /// numeric scalars can be compared against a literal.
    NotScalar(String),
    /// Substrate error (projection, I/O, cancellation).
    Columnar(nf2_columnar::ColumnarError),
}

impl fmt::Display for RdfError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RdfError::UnknownColumn(c) => write!(f, "unknown column: {c}"),
            RdfError::NotScalar(c) => {
                write!(f, "filter_scalar on non-scalar column: {c}")
            }
            RdfError::Columnar(e) => write!(f, "columnar error: {e}"),
        }
    }
}

impl std::error::Error for RdfError {}

impl RdfError {
    /// The typed scan fault, when this error is one.
    pub fn scan_error(&self) -> Option<&nf2_columnar::ScanError> {
        match self {
            RdfError::Columnar(e) => e.scan_error(),
            _ => None,
        }
    }

    /// The typed cancellation payload, when this error is one.
    pub fn cancelled(&self) -> Option<&obs::Cancelled> {
        match self {
            RdfError::Columnar(e) => e.cancelled(),
            _ => None,
        }
    }
}

impl From<obs::Cancelled> for RdfError {
    fn from(c: obs::Cancelled) -> Self {
        RdfError::Columnar(nf2_columnar::ColumnarError::Cancelled(c))
    }
}

impl From<nf2_columnar::ColumnarError> for RdfError {
    fn from(e: nf2_columnar::ColumnarError) -> Self {
        RdfError::Columnar(e)
    }
}

type DefineFn = Arc<dyn Fn(&EventView) -> ColValue + Send + Sync>;
type FilterFn = Arc<dyn Fn(&EventView) -> bool + Send + Sync>;

/// A graph node. Closure nodes carry their dependencies' ids in the
/// order the callback addresses them.
#[derive(Clone)]
pub(crate) enum Node {
    Define {
        slot: usize,
        deps: Vec<ColumnId>,
        func: DefineFn,
    },
    Filter {
        deps: Vec<ColumnId>,
        func: FilterFn,
    },
}

/// A booking: one histogram to fill at the end of the chain.
#[derive(Clone)]
pub(crate) struct Booking {
    pub spec: HistSpec,
    pub column: String,
    /// `column`, resolved when the booking was added.
    pub id: ColumnId,
}

/// A lazily built dataframe computation over one table.
///
/// `define`/`filter` return a new dataframe (builder style); `histo1d` books
/// an action and returns a [`BookedHisto`] whose `run` triggers the event
/// loop. Use [`RDataFrame::run_all`] to execute several bookings in a single
/// pass (like ROOT's shared event loop for multiple results).
#[derive(Clone)]
pub struct RDataFrame {
    pub(crate) table: Arc<Table>,
    pub(crate) options: ExecOptions,
    pub(crate) registry: ColumnRegistry,
    pub(crate) nodes: Vec<Node>,
    /// `(column, cmp, literal)` per [`RDataFrame::filter_scalar`] cut, in
    /// call order. Cuts are conjuncts, so they are not [`Node`]s: the scan
    /// applies all of them before the event loop runs.
    pub(crate) scalar_filters: Vec<(String, SelCmp, SelValue)>,
    pub(crate) bookings: Vec<Booking>,
    /// The run environment (see [`RDataFrame::set_env`]).
    pub(crate) env: ExecEnv,
}

impl RDataFrame {
    /// Creates a dataframe over a table.
    pub fn new(table: Arc<Table>, options: ExecOptions) -> RDataFrame {
        RDataFrame {
            table,
            options,
            registry: ColumnRegistry::default(),
            nodes: Vec::new(),
            scalar_filters: Vec::new(),
            bookings: Vec::new(),
            env: ExecEnv::default(),
        }
    }

    /// Attaches the run environment: its fault injector,
    /// trace context and cancel token (a tripped token aborts the event
    /// loop within one row group, surfaced as [`RdfError::Columnar`]
    /// wrapping [`nf2_columnar::ColumnarError::Cancelled`]), and its
    /// overrides of the dataframe's options. The default environment
    /// attaches and overrides nothing.
    pub fn set_env(&mut self, env: ExecEnv) {
        self.env = env;
    }

    fn resolve_deps(&mut self, deps: &[&str]) -> Vec<ColumnId> {
        deps.iter().map(|d| self.registry.resolve(d)).collect()
    }

    /// Adds a derived per-event column. `deps` must list every column the
    /// callback reads (like RDataFrame's column list parameter); the
    /// callback addresses them by position, `v.arr(0)` being `deps[0]`.
    /// Each name is resolved once, here: a name defined earlier in the
    /// chain is that column, any other is a base column, checked against
    /// the table schema at run time.
    pub fn define<F>(mut self, name: &str, deps: &[&str], func: F) -> RDataFrame
    where
        F: Fn(&EventView) -> ColValue + Send + Sync + 'static,
    {
        let deps = self.resolve_deps(deps);
        let slot = match self.registry.define(name) {
            ColumnId::Defined(i) => i,
            ColumnId::Base(_) => unreachable!(),
        };
        self.nodes.push(Node::Define {
            slot,
            deps,
            func: Arc::new(func),
        });
        self
    }

    /// Adds an event filter; subsequent defines/bookings only see passing
    /// events. `deps` are resolved and addressed as in
    /// [`RDataFrame::define`].
    pub fn filter<F>(mut self, deps: &[&str], func: F) -> RDataFrame
    where
        F: Fn(&EventView) -> bool + Send + Sync + 'static,
    {
        let deps = self.resolve_deps(deps);
        self.nodes.push(Node::Filter {
            deps,
            func: Arc::new(func),
        });
        self
    }

    /// Adds a declarative scalar cut `column cmp literal` on a non-repeated
    /// numeric base column (e.g. `MET_pt`). Unlike [`RDataFrame::filter`],
    /// the engine sees the comparison's structure, so it prunes row groups
    /// by zone maps and evaluates the cut with typed kernels over the raw
    /// column chunks *before* any event is materialized. Semantics are
    /// identical to the closure form.
    pub fn filter_scalar(mut self, column: &str, cmp: SelCmp, value: SelValue) -> RDataFrame {
        self.registry.resolve(column);
        self.scalar_filters.push((column.to_string(), cmp, value));
        self
    }

    /// Books a 1-D histogram of `column` (scalar: one fill per event;
    /// array: one fill per element) and returns a lazily runnable handle.
    pub fn histo1d(self, spec: HistSpec, column: &str) -> BookedHisto {
        let df = self.also_histo1d(spec, column);
        let index = df.bookings.len() - 1;
        BookedHisto { df, index }
    }

    /// Books an additional histogram on an existing booking's chain
    /// (the (Q6a)/(Q6b) pattern: one event loop, two plots).
    pub fn also_histo1d(mut self, spec: HistSpec, column: &str) -> RDataFrame {
        let id = self.registry.resolve(column);
        self.bookings.push(Booking {
            spec,
            column: column.to_string(),
            id,
        });
        self
    }

    /// Runs the event loop and returns every booked histogram in booking
    /// order.
    pub fn run_all(&self) -> Result<RunOutput, RdfError> {
        exec::run(self)
    }
}

/// Handle to a single booked histogram.
pub struct BookedHisto {
    pub(crate) df: RDataFrame,
    pub(crate) index: usize,
}

impl BookedHisto {
    /// Executes the event loop and returns this booking's result (plus
    /// run-wide stats).
    pub fn run(&self) -> Result<SingleOutput, RdfError> {
        let out = exec::run(&self.df)?;
        let histogram = out.histograms[self.index].clone();
        Ok(SingleOutput {
            histogram,
            stats: out.stats,
        })
    }

    /// Access to the underlying dataframe (e.g. to book more results).
    pub fn dataframe(&self) -> &RDataFrame {
        &self.df
    }
}

/// Result of running a single booking.
pub struct SingleOutput {
    /// The filled histogram.
    pub histogram: physics::Histogram,
    /// Execution statistics for the whole event loop.
    pub stats: nf2_columnar::ExecStats,
}
