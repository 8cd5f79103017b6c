//! The lazy dataframe graph: `define`/`filter` chains and booked actions.

use std::fmt;
use std::sync::Arc;

use nf2_columnar::{SelCmp, SelValue, Table};
use physics::HistSpec;

use crate::exec::{self, RunOutput};
use crate::view::{ColValue, ColumnRegistry, EventView};

/// Errors from graph construction or execution.
#[derive(Debug)]
pub enum RdfError {
    /// A column name could not be mapped to a leaf of the table schema.
    UnknownColumn(String),
    /// A `filter_scalar` column is repeated or boolean — only per-event
    /// numeric scalars can be compared against a literal.
    NotScalar(String),
    /// Substrate error (projection, I/O).
    Columnar(nf2_columnar::ColumnarError),
    /// Compiled execution failed outside the substrate — e.g. a morsel
    /// whose kernel panicked persistently through the parallel
    /// executor's recovery budget.
    Exec(String),
}

impl fmt::Display for RdfError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RdfError::UnknownColumn(c) => write!(f, "unknown column: {c}"),
            RdfError::NotScalar(c) => {
                write!(f, "filter_scalar on non-scalar column: {c}")
            }
            RdfError::Columnar(e) => write!(f, "columnar error: {e}"),
            RdfError::Exec(e) => write!(f, "execution error: {e}"),
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

impl From<physical_ir::PirError> for RdfError {
    fn from(e: physical_ir::PirError) -> Self {
        match e {
            physical_ir::PirError::Columnar(c) => RdfError::from(c),
            physical_ir::PirError::Cancelled(c) => RdfError::from(c),
            e @ physical_ir::PirError::MorselPanic { .. } => RdfError::Exec(e.to_string()),
        }
    }
}

/// Execution options.
#[derive(Clone, Copy, Debug)]
pub struct Options {
    /// Worker threads (row-group granularity). 0 ⇒ all available cores.
    pub n_threads: usize,
    /// Evaluate [`RDataFrame::filter_scalar`] cuts with vectorized kernels
    /// before the event loop (late materialization). Purely an
    /// execution-speed knob: scan accounting is defined by the declared
    /// columns, and results are bit-identical either way.
    pub vectorized_filter: bool,
    /// Zone-map row-group pruning: [`RDataFrame::filter_scalar`] cuts are
    /// also evaluated against per-chunk min/max statistics at scan time,
    /// skipping row groups that provably contain no passing events
    /// (billed separately as `bytes_pruned`). Results are bin-identical
    /// either way; applies to interpreted and compiled execution alike.
    pub zone_map_pruning: bool,
    /// Compiled execution: graphs recognized by the lowering pass (all
    /// nodes declarative, one booking on a base column) run as fused
    /// batch kernels over the shared physical IR.
    /// Unrecognized graphs always fall back to the interpreter, so this
    /// is purely an execution-speed knob — results are bin-identical.
    pub compile: bool,
    /// Morsel-driven intra-query parallelism for compiled execution:
    /// `> 1` runs compiled plans through `exec_par` with this many
    /// workers (row groups are the morsels); output is bin-identical at
    /// any value and scan accounting is unaffected. `0`/`1` keeps the
    /// serial compiled executor; ignored when the graph does not lower.
    pub parallel_workers: usize,
    /// Morsel-level fault recovery for compiled execution (default off):
    /// transient scan faults are retried per morsel, panicking morsels
    /// are quarantined and re-executed, dead workers' deques are
    /// reassigned and the pool degrades down to a serial fallback
    /// instead of failing the query (see `exec_par`). When active the
    /// fault injector is routed to the morsel fault surface instead of
    /// the scan pre-pass, keeping billing fault-free and bin-identical.
    /// Ignored when the graph does not lower to the compiled path.
    pub morsel_recovery: bool,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            n_threads: 0,
            vectorized_filter: true,
            zone_map_pruning: true,
            compile: true,
            parallel_workers: 0,
            morsel_recovery: false,
        }
    }
}

type DefineFn = Arc<dyn Fn(&EventView) -> ColValue + Send + Sync>;
type FilterFn = Arc<dyn Fn(&EventView) -> bool + Send + Sync>;

#[derive(Clone)]
pub(crate) enum Node {
    Define {
        slot: usize,
        func: DefineFn,
    },
    Filter {
        func: FilterFn,
    },
    /// A declarative `column cmp literal` cut, indexing into the run's
    /// resolved scalar-predicate list.
    ScalarFilter {
        index: usize,
    },
}

/// A booking: one histogram to fill at the end of the chain.
#[derive(Clone)]
pub(crate) struct Booking {
    pub spec: HistSpec,
    pub column: String,
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
    pub(crate) options: Options,
    pub(crate) registry: ColumnRegistry,
    pub(crate) nodes: Vec<Node>,
    /// `(column, cmp, literal)` per [`Node::ScalarFilter`], in index order.
    pub(crate) scalar_filters: Vec<(String, SelCmp, SelValue)>,
    pub(crate) bookings: Vec<Booking>,
    /// Optional buffer pool fronting physical chunk reads (accounting
    /// only; results and billing bytes are unchanged).
    pub(crate) chunk_cache: Option<Arc<nf2_columnar::ChunkCache>>,
    /// Optional chaos-layer fault injector on physical chunk reads.
    pub(crate) fault_injector: Option<Arc<nf2_columnar::FaultInjector>>,
    /// Tracing context; the default (disabled) context records nothing.
    pub(crate) trace: obs::TraceCtx,
    /// Cooperative cancellation token, checked at row-group granularity
    /// by the event loop; the default (disabled) token never trips.
    pub(crate) cancel: obs::CancelToken,
}

impl RDataFrame {
    /// Creates a dataframe over a table.
    pub fn new(table: Arc<Table>, options: Options) -> RDataFrame {
        RDataFrame {
            table,
            options,
            registry: ColumnRegistry::default(),
            nodes: Vec::new(),
            scalar_filters: Vec::new(),
            bookings: Vec::new(),
            chunk_cache: None,
            fault_injector: None,
            trace: obs::TraceCtx::disabled(),
            cancel: obs::CancelToken::none(),
        }
    }

    /// Attaches a shared buffer pool in front of physical chunk reads.
    pub fn set_chunk_cache(&mut self, cache: Option<Arc<nf2_columnar::ChunkCache>>) {
        self.chunk_cache = cache;
    }

    /// Attaches a chaos-layer fault injector to physical chunk reads.
    /// `None` (the default) leaves the scan path byte-identical to the
    /// fault-free engine.
    pub fn set_fault_injector(&mut self, injector: Option<Arc<nf2_columnar::FaultInjector>>) {
        self.fault_injector = injector;
    }

    /// Attaches a tracing context: the event loop records stage spans
    /// into it. The default (disabled) context makes instrumentation a
    /// near-no-op.
    pub fn set_trace(&mut self, trace: obs::TraceCtx) {
        self.trace = trace;
    }

    /// Attaches a cooperative cancellation token, checked at row-group
    /// granularity: the event loop aborts with a typed cancellation
    /// (surfaced as [`RdfError::Columnar`] wrapping
    /// [`nf2_columnar::ColumnarError::Cancelled`]) once it trips. The
    /// default (disabled) token costs a single branch per group.
    pub fn set_cancel(&mut self, cancel: obs::CancelToken) {
        self.cancel = cancel;
    }

    fn declare_deps(&mut self, deps: &[&str]) {
        for d in deps {
            if !self.registry.by_name.contains_key(*d) {
                self.registry.base(d);
            }
        }
    }

    /// Adds a derived per-event column. `deps` must list every column the
    /// callback reads (like RDataFrame's column list parameter); base
    /// columns are resolved against the table schema at run time.
    pub fn define<F>(mut self, name: &str, deps: &[&str], func: F) -> RDataFrame
    where
        F: Fn(&EventView) -> ColValue + Send + Sync + 'static,
    {
        self.declare_deps(deps);
        let slot = match self.registry.define(name) {
            crate::view::ColumnId::Defined(i) => i,
            crate::view::ColumnId::Base(_) => unreachable!(),
        };
        self.nodes.push(Node::Define {
            slot,
            func: Arc::new(func),
        });
        self
    }

    /// Adds an event filter; subsequent defines/bookings only see passing
    /// events.
    pub fn filter<F>(mut self, deps: &[&str], func: F) -> RDataFrame
    where
        F: Fn(&EventView) -> bool + Send + Sync + 'static,
    {
        self.declare_deps(deps);
        self.nodes.push(Node::Filter {
            func: Arc::new(func),
        });
        self
    }

    /// Adds a declarative scalar cut `column cmp literal` on a non-repeated
    /// numeric base column (e.g. `MET_pt`). Unlike [`RDataFrame::filter`],
    /// the engine sees the comparison's structure, so with
    /// [`Options::vectorized_filter`] it evaluates the cut with typed
    /// kernels over the raw column chunks *before* any event is
    /// materialized. Semantics are identical to the closure form either
    /// way.
    pub fn filter_scalar(mut self, column: &str, cmp: SelCmp, value: SelValue) -> RDataFrame {
        self.declare_deps(&[column]);
        let index = self.scalar_filters.len();
        self.scalar_filters.push((column.to_string(), cmp, value));
        self.nodes.push(Node::ScalarFilter { index });
        self
    }

    /// Books a 1-D histogram of `column` (scalar: one fill per event;
    /// array: one fill per element) and returns a lazily runnable handle.
    pub fn histo1d(mut self, spec: HistSpec, column: &str) -> BookedHisto {
        self.declare_deps(&[column]);
        self.bookings.push(Booking {
            spec,
            column: column.to_string(),
        });
        let index = self.bookings.len() - 1;
        BookedHisto { df: self, index }
    }

    /// Books an additional histogram on an existing booking's chain
    /// (the (Q6a)/(Q6b) pattern: one event loop, two plots).
    pub fn also_histo1d(mut self, spec: HistSpec, column: &str) -> RDataFrame {
        self.declare_deps(&[column]);
        self.bookings.push(Booking {
            spec,
            column: column.to_string(),
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
