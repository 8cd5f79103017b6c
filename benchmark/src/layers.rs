//! The one file that calls into the repository's crates.
//!
//! Every workload, probe and replay reaches the program under test
//! through the functions below, using the highest-level public entry
//! points that exist today. When an API drifts, this is the only file
//! that has to follow it. Nothing here knows which workload is running,
//! and only the input generator ([`generate_events`]) takes the seed:
//! everything else receives generated inputs (events, tables, texts,
//! requests).

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use engine_flwor::{FlworEngine, FlworOptions};
use engine_sql::{Dialect, SqlEngine, SqlOptions};
use hep_model::{Generator, GeneratorConfig};
use hepbench_core::adapters::ExecEnv;
use hepbench_core::engine_api::{engine_for, engine_for_compiled, QueryEngine, QuerySpec};
use hepbench_core::queries::{self, Language};
use nested_value::{Path, Value};
use nf2_columnar::compress::{self, Encoding};
use nf2_columnar::{
    ColumnChunk, ColumnData, PhysicalType, Projection, PushdownCapability, ScalarPredicate,
    ScanRequest, SelCmp, SelValue, SelectionVector, TableBuilder, ZoneMap,
};
use obs::{CancelToken, TraceCtx};
use physical_ir::{
    ComputeNode, ElemPredicate, Exchange, FilterNode, GroupScratch, PartialAgg, PhysPlan,
    Provenance, TrijetCompute, TrijetPlot, TrijetScratch,
};
use query_service::{QueryRequest, QueryService, ServiceConfig, Ticket};

use crate::spans::Recorder;

pub use hep_model::Event;
pub use hepbench_core::runner::System;
pub use hepbench_core::{QueryId, ALL_QUERIES};
pub use nf2_columnar::Table;
pub use physics::Histogram;

// ------------------------------------------------------------ inputs

/// `hep_model::Generator`: `n` events from `seed`.
pub fn generate_events(seed: u64, n: usize) -> Vec<Event> {
    Generator::new(GeneratorConfig::default(), seed).generate(n)
}

/// `hep_model::to_value::events_to_table`: shred + seal (encoding
/// choice, zone maps) into `n_groups` row groups.
pub fn build_table(events: &[Event], n_groups: usize) -> Table {
    let row_group_size = events.len().div_ceil(n_groups).max(1);
    hep_model::to_value::events_to_table(events, row_group_size)
        .expect("generated events fit the schema")
}

/// `nf2_columnar::file::write_table` into memory.
pub fn write_table(table: &Table) -> Vec<u8> {
    let mut buf = Vec::new();
    nf2_columnar::file::write_table(table, &mut buf).expect("writing to a Vec cannot fail");
    buf
}

/// `nf2_columnar::file::read_table` from memory.
pub fn read_table(bytes: &[u8]) -> Result<Table, String> {
    nf2_columnar::file::read_table(&mut &bytes[..]).map_err(|e| e.to_string())
}

/// The first `n` rows of a table (row-group aligned where possible).
pub fn head(table: &Table, n: usize) -> Arc<Table> {
    Arc::new(table.head(n))
}

/// Size and identity facts of a built table.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TableInfo {
    /// Rows (events).
    pub rows: u64,
    /// Row groups.
    pub groups: u64,
    /// `Table::compressed_bytes` — the priced stored size.
    pub compressed_bytes: u64,
    /// `Table::uncompressed_bytes` — the decoded working set.
    pub decoded_bytes: u64,
    /// `Table::fingerprint`.
    pub fingerprint: u64,
}

/// Reads a table's [`TableInfo`].
pub fn table_info(table: &Table) -> TableInfo {
    TableInfo {
        rows: table.n_rows() as u64,
        groups: table.row_groups().len() as u64,
        compressed_bytes: table.compressed_bytes() as u64,
        decoded_bytes: table.uncompressed_bytes() as u64,
        fingerprint: table.fingerprint(),
    }
}

// ------------------------------------------------------------ oracle

/// `hepbench_core::reference::run`: the hand-written ground truth.
pub fn reference(q: QueryId, events: &[Event]) -> Histogram {
    hepbench_core::reference::run(q, events).hist
}

/// Bin-for-bin equality (counts, under- and overflow).
pub fn same_bins(a: &Histogram, b: &Histogram) -> bool {
    a.counts_equal(b)
}

// ------------------------------------------------------------ queries

/// What one query execution returned.
pub struct QueryOut {
    /// The result histogram.
    pub hist: Histogram,
    /// `ScanStats::bytes_scanned`.
    pub bytes_scanned: u64,
    /// `ScanStats::rows`.
    pub rows_scanned: u64,
    /// `ScanStats::groups_pruned`.
    pub groups_pruned: u64,
}

impl QueryOut {
    fn new(hist: Histogram, stats: &nf2_columnar::ExecStats) -> QueryOut {
        QueryOut {
            hist,
            bytes_scanned: stats.scan.bytes_scanned,
            rows_scanned: stats.scan.rows,
            groups_pruned: stats.scan.groups_pruned,
        }
    }
}

/// The execution knobs the harness sets per workload.
#[derive(Clone, Copy, Debug)]
pub struct Env {
    /// Threads inside one query (interpreters, RDataFrame event loop).
    pub intra_query_threads: usize,
    /// `exec-par` morsel workers for compiled plans (0 = serial).
    pub parallel_workers: usize,
    /// Run with the program's own `obs::TraceCtx::enabled()` — used only
    /// to measure what in-program tracing costs.
    pub obs_trace: bool,
}

impl Env {
    /// One thread, serial compiled execution, tracing off.
    pub fn serial() -> Env {
        Env {
            intra_query_threads: 1,
            parallel_workers: 0,
            obs_trace: false,
        }
    }

    fn exec_env(&self) -> ExecEnv {
        ExecEnv {
            intra_query_threads: Some(self.intra_query_threads),
            parallel_workers: Some(self.parallel_workers),
            trace: if self.obs_trace {
                TraceCtx::enabled()
            } else {
                TraceCtx::disabled()
            },
            ..ExecEnv::seed()
        }
    }
}

/// A deployed engine (`engine_for` / `engine_for_compiled`).
pub struct Engine {
    inner: Box<dyn QueryEngine>,
}

/// The engine behind `system` over `table`; `compiled` selects the
/// compile-on deployment, which falls back to interpretation for
/// queries the frontend cannot lower — the path a user gets.
pub fn engine(system: System, table: &Arc<Table>, compiled: bool) -> Engine {
    let inner = if compiled {
        engine_for_compiled(system, table.clone())
    } else {
        engine_for(system, table.clone())
    };
    Engine { inner }
}

impl Engine {
    /// `QueryEngine::execute` for one benchmark query text.
    pub fn run(&self, q: QueryId, env: Env) -> Result<QueryOut, String> {
        let run = self
            .inner
            .execute(&QuerySpec::benchmark(q), &env.exec_env())
            .map_err(|e| e.to_string())?;
        Ok(QueryOut::new(run.histogram, &run.stats))
    }
}

/// Display name of a system, safe for metric/point names.
pub fn system_tag(system: System) -> &'static str {
    match system {
        System::BigQuery => "bigquery",
        System::BigQueryExternal => "bigquery-ext",
        System::AthenaV2 => "athena",
        System::AthenaV1 => "athena-v1",
        System::Presto => "presto",
        System::Rumble => "jsoniq",
        System::RDataFrame => "rdataframe",
        System::RDataFrameDev => "rdataframe-dev",
    }
}

// ------------------------------------------------------------ windowed texts

/// How a text query's result maps onto a histogram.
#[derive(Clone, Copy, Debug)]
enum TextShape {
    /// SQL `(bin, n)` rows.
    SqlBinCount,
    /// SQL rows whose column `usize` is the plotted value.
    SqlValue(usize),
    /// JSONiq: one bin index per item.
    JsoniqBins,
}

/// An ad-hoc query text (not one of the embedded benchmark texts).
pub struct TextQuery {
    /// Point name, e.g. `presto/Q1w`.
    pub name: String,
    /// The benchmark query whose physics (and histogram) it shares.
    pub base: QueryId,
    text: String,
    shape: TextShape,
}

/// The event-id window `[lo, hi)` of the windowed texts: the middle
/// quarter of the table, so the cut has two bounds and zone maps prune
/// on both sides. Event ids are 1-based and monotone.
pub fn window(n_events: usize) -> (u64, u64) {
    let n = n_events as u64;
    (n / 8, n / 8 + n / 4)
}

/// The events a windowed text selects.
pub fn window_events(events: &[Event]) -> Vec<Event> {
    let (lo, hi) = window(events.len());
    events
        .iter()
        .filter(|e| e.event >= lo && e.event < hi)
        .cloned()
        .collect()
}

/// Q1w/Q5w in Presto SQL and JSONiq: the benchmark physics with an
/// event-id window as *root-level* conjuncts — the shape
/// `filterable_predicates` / `prefilter_predicates` turn into zone-map
/// pruning predicates.
pub fn windowed_texts(n_events: usize) -> Vec<TextQuery> {
    let (lo, hi) = window(n_events);
    let spec = QueryId::Q1.hist_spec();
    let bin = format!(
        "CASE WHEN MET.pt < {lo_x} THEN -1 WHEN MET.pt >= {hi_x} THEN {n} \
         ELSE LEAST(CAST(FLOOR((MET.pt - {lo_x}) / (({hi_x} - {lo_x}) / {nf})) AS BIGINT), {nm1}) END",
        lo_x = queries::flit(spec.lo),
        hi_x = queries::flit(spec.hi),
        n = spec.bins,
        nf = queries::flit(spec.bins as f64),
        nm1 = spec.bins - 1,
    );
    let q1w_sql = format!(
        "SELECT {bin} AS bin, COUNT(*) AS n\nFROM events\n\
         WHERE event >= {lo} AND event < {hi}\nGROUP BY {bin}"
    );
    let e = |i: usize| {
        format!(
            "SQRT(pt{i} * COS(phi{i}) * pt{i} * COS(phi{i}) + pt{i} * SIN(phi{i}) * pt{i} * SIN(phi{i}) \
             + pt{i} * SINH(eta{i}) * pt{i} * SINH(eta{i}) + mass{i} * mass{i})"
        )
    };
    let (e1, e2) = (e(1), e(2));
    let px = "(pt1 * COS(phi1) + pt2 * COS(phi2))";
    let py = "(pt1 * SIN(phi1) + pt2 * SIN(phi2))";
    let pz = "(pt1 * SINH(eta1) + pt2 * SINH(eta2))";
    let q5w_sql = format!(
        "SELECT event AS eid, MIN(MET.pt) AS met\nFROM events\n\
         CROSS JOIN UNNEST(Muon) WITH ORDINALITY AS t1 (pt1, eta1, phi1, mass1, q1, iso31, iso41, tight1, soft1, dxy1, dxyerr1, dz1, dzerr1, jidx1, gidx1, i1)\n\
         CROSS JOIN UNNEST(Muon) WITH ORDINALITY AS t2 (pt2, eta2, phi2, mass2, q2, iso32, iso42, tight2, soft2, dxy2, dxyerr2, dz2, dzerr2, jidx2, gidx2, i2)\n\
         WHERE event >= {lo} AND event < {hi} AND i1 < i2 AND q1 != q2\n\
         \x20 AND SQRT(GREATEST(0.0, ({e1} + {e2}) * ({e1} + {e2}) - ({px} * {px} + {py} * {py} + {pz} * {pz}))) BETWEEN 60.0 AND 120.0\n\
         GROUP BY event"
    );
    let jq = |q: QueryId| {
        let text = queries::text(Language::Jsoniq, q);
        let marker = "for $e in parquet-file(\"events\")\n";
        let windowed = text.replace(
            marker,
            &format!("{marker}where $e.event ge {lo} and $e.event lt {hi}\n"),
        );
        assert_ne!(windowed, text, "{q:?} JSONiq text lost the scan marker");
        windowed
    };
    vec![
        TextQuery {
            name: "presto/Q1w".into(),
            base: QueryId::Q1,
            text: q1w_sql,
            shape: TextShape::SqlBinCount,
        },
        TextQuery {
            name: "presto/Q5w".into(),
            base: QueryId::Q5,
            text: q5w_sql,
            shape: TextShape::SqlValue(1),
        },
        TextQuery {
            name: "jsoniq/Q1w".into(),
            base: QueryId::Q1,
            text: jq(QueryId::Q1),
            shape: TextShape::JsoniqBins,
        },
        TextQuery {
            name: "jsoniq/Q5w".into(),
            base: QueryId::Q5,
            text: jq(QueryId::Q5),
            shape: TextShape::JsoniqBins,
        },
    ]
}

/// Runs an ad-hoc text through `SqlEngine::execute` / `FlworEngine::execute`
/// (one thread, compile on, zone-map pruning on).
pub fn run_text(table: &Arc<Table>, tq: &TextQuery) -> Result<QueryOut, String> {
    let mut hist = Histogram::new(tq.base.hist_spec());
    match tq.shape {
        TextShape::SqlBinCount | TextShape::SqlValue(_) => {
            let mut engine = SqlEngine::new(
                Dialect::presto(),
                SqlOptions {
                    n_threads: 1,
                    ..SqlOptions::default()
                },
            );
            engine.register(table.clone());
            let out = engine.execute(&tq.text).map_err(|e| e.to_string())?;
            for row in &out.relation.rows {
                match tq.shape {
                    TextShape::SqlValue(col) => {
                        hist.fill(row[col].as_f64().map_err(|e| e.to_string())?)
                    }
                    _ => hist.add_bin_count(
                        row[0].as_i64().map_err(|e| e.to_string())?,
                        row[1].as_i64().map_err(|e| e.to_string())? as u64,
                    ),
                }
            }
            Ok(QueryOut::new(hist, &out.stats))
        }
        TextShape::JsoniqBins => {
            let mut engine = FlworEngine::new(FlworOptions {
                n_threads: 1,
                ..FlworOptions::default()
            });
            engine.register(table.clone());
            let out = engine.execute(&tq.text).map_err(|e| e.to_string())?;
            for item in &out.items {
                hist.add_bin_count(item.as_i64().map_err(|e| e.to_string())?, 1);
            }
            Ok(QueryOut::new(hist, &out.stats))
        }
    }
}

// ------------------------------------------------------------ service

/// One entry of the serving mix.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Slot {
    /// Deployed system.
    pub system: System,
    /// Benchmark query.
    pub query: QueryId,
    /// Route through the compiled deployment (`via_compiled`).
    pub compiled: bool,
}

/// A running `QueryService`.
pub struct Service {
    inner: QueryService,
}

/// Outcome counters of a service (`QueryService::stats`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServiceCounts {
    /// Offered to `submit`.
    pub submitted: u64,
    /// Answered with a result.
    pub completed: u64,
    /// Refused at admission (queue full, shed, breaker).
    pub refused: u64,
    /// Failed, timed out or cancelled after admission.
    pub failed: u64,
}

/// `QueryService::start` with `workers` workers, one thread per query,
/// both caches off, every overload knob off and a queue deep enough
/// that nothing is refused.
pub fn start_service(table: Arc<Table>, workers: usize) -> Service {
    let config = ServiceConfig {
        n_workers: workers,
        queue_depth: 1 << 20,
        default_deadline: None,
        result_cache: false,
        chunk_cache_bytes: 0,
        intra_query_threads: 1,
        load_shedding: false,
        breaker: None,
        hedge: None,
        trace: false,
        ..ServiceConfig::default()
    };
    Service {
        inner: QueryService::start(table, config),
    }
}

/// An admitted request.
pub struct Pending {
    ticket: Ticket,
}

/// A served response.
pub struct Response {
    /// Result histogram.
    pub hist: Histogram,
    /// `QueryResponse::queue_seconds`.
    pub queue_s: f64,
    /// `QueryResponse::total_seconds` — from the intended arrival
    /// instant when the request carried one.
    pub total_s: f64,
    /// `ScanStats::bytes_scanned`.
    pub bytes_scanned: u64,
    /// `ScanStats::rows`.
    pub rows_scanned: u64,
    /// `QueryResponse::cost_usd`.
    pub cost_usd: f64,
}

impl Service {
    /// `QueryService::submit`; `arrival` is the intended open-loop send
    /// instant (`QueryRequest::arriving_at`).
    pub fn submit(
        &self,
        tenant: &str,
        slot: Slot,
        arrival: Option<Instant>,
    ) -> Result<Pending, String> {
        let mut req = QueryRequest::new(tenant, slot.system, slot.query);
        if slot.compiled {
            req = req.via_compiled();
        }
        if let Some(at) = arrival {
            req = req.arriving_at(at);
        }
        self.inner
            .submit(req)
            .map(|ticket| Pending { ticket })
            .map_err(|e| e.to_string())
    }

    /// Outcome counters so far.
    pub fn counts(&self) -> ServiceCounts {
        let s = self.inner.stats();
        ServiceCounts {
            submitted: s.submitted,
            completed: s.completed,
            refused: s.rejected + s.shedded,
            failed: s.failed + s.timed_out + s.cancelled,
        }
    }
}

impl Pending {
    /// `Ticket::wait`.
    pub fn wait(self) -> Result<Response, String> {
        let r = self.ticket.wait().map_err(|e| e.to_string())?;
        Ok(Response {
            hist: r.histogram,
            queue_s: r.queue_seconds,
            total_s: r.total_seconds,
            bytes_scanned: r.stats.scan.bytes_scanned,
            rows_scanned: r.stats.scan.rows,
            cost_usd: r.cost_usd,
        })
    }
}

/// `cloud_sim::cost_per_1k_queries`.
pub fn cost_per_1k_queries(total_usd: f64, answered: u64) -> f64 {
    cloud_sim::cost_per_1k_queries(total_usd, answered)
}

// ------------------------------------------------------------ probes: hep-model, table build

/// `hep_model::to_value::event_to_value` over all events; returns the
/// values so the append probe can reuse them.
pub fn events_to_values(events: &[Event]) -> Vec<Value> {
    events
        .iter()
        .map(hep_model::to_value::event_to_value)
        .collect()
}

/// `TableBuilder::append` over `values` with sealing pushed out of the
/// way (one row group larger than the input); returns seconds.
pub fn probe_append(values: &[Value]) -> f64 {
    let schema = hep_model::schema::event_schema().expect("static schema");
    let mut b = TableBuilder::new(hep_model::schema::TABLE_NAME, schema, values.len() + 1);
    let t0 = Instant::now();
    for v in values {
        b.append(v).expect("generated rows fit the schema");
    }
    let dt = t0.elapsed().as_secs_f64();
    std::hint::black_box(b);
    dt
}

/// Decoded chunks sampled from a table, grouped for the codec probes.
pub struct ChunkSample {
    chunks: Vec<(ColumnData, Option<Vec<u32>>)>,
    /// Chunks in the sample.
    pub n_chunks: usize,
    /// Uncompressed bytes of all value buffers.
    pub bytes: usize,
}

/// Clones the chunks of the first `max_groups` row groups.
pub fn sample_chunks(table: &Table, max_groups: usize) -> ChunkSample {
    let chunks: Vec<(ColumnData, Option<Vec<u32>>)> = table
        .row_groups()
        .iter()
        .take(max_groups)
        .flat_map(|g| {
            g.columns()
                .map(|(_, c)| (c.data.clone(), c.offsets.clone()))
        })
        .collect();
    ChunkSample {
        n_chunks: chunks.len(),
        bytes: chunks.iter().map(|(d, _)| d.uncompressed_bytes()).sum(),
        chunks,
    }
}

/// `ColumnChunk::seal` (encoding choice + size + min/max + zone map) on
/// every sampled chunk; the input clones are made before the clock
/// starts. Returns seconds.
pub fn probe_seal(sample: &ChunkSample) -> f64 {
    let inputs = sample.chunks.clone();
    let t0 = Instant::now();
    for (data, offsets) in inputs {
        std::hint::black_box(ColumnChunk::seal(data, offsets));
    }
    t0.elapsed().as_secs_f64()
}

/// `ZoneMap::build` on every sampled chunk. Returns seconds.
pub fn probe_zonemap(sample: &ChunkSample) -> f64 {
    let t0 = Instant::now();
    for (data, _) in &sample.chunks {
        std::hint::black_box(ZoneMap::build(data));
    }
    t0.elapsed().as_secs_f64()
}

/// The five encodings, with their metric-name suffixes.
pub fn encodings() -> [(&'static str, EncodingId); 5] {
    [
        ("plain", EncodingId(Encoding::Plain)),
        ("bool_rle", EncodingId(Encoding::BoolRle)),
        ("delta_varint", EncodingId(Encoding::DeltaVarint)),
        ("byte_stream_split", EncodingId(Encoding::ByteStreamSplit)),
        ("dict", EncodingId(Encoding::Dict)),
    ]
}

/// Opaque handle on one `compress::Encoding`.
#[derive(Clone, Copy)]
pub struct EncodingId(Encoding);

/// The sampled chunks one encoding applies to, with their payloads.
pub struct CodecCase {
    enc: Encoding,
    inputs: Vec<ColumnData>,
    payloads: Vec<(Vec<u8>, PhysicalType, usize)>,
    /// Uncompressed bytes of the applicable chunks.
    pub bytes: usize,
}

/// Collects the sampled chunks `enc` applies to and pre-encodes them.
pub fn codec_case(sample: &ChunkSample, enc: EncodingId) -> CodecCase {
    let mut case = CodecCase {
        enc: enc.0,
        inputs: Vec::new(),
        payloads: Vec::new(),
        bytes: 0,
    };
    for (data, _) in &sample.chunks {
        if data.is_empty() {
            continue;
        }
        if let Some(payload) = compress::encode_as(data, enc.0) {
            case.bytes += data.uncompressed_bytes();
            case.payloads
                .push((payload, data.physical_type(), data.len()));
            case.inputs.push(data.clone());
        }
    }
    case
}

/// `compress::encode_as` over the case. Returns seconds.
pub fn probe_encode(case: &CodecCase) -> f64 {
    let t0 = Instant::now();
    for data in &case.inputs {
        std::hint::black_box(compress::encode_as(data, case.enc));
    }
    t0.elapsed().as_secs_f64()
}

/// `compress::decode` over the case's payloads. Returns seconds.
pub fn probe_decode(case: &CodecCase) -> f64 {
    let t0 = Instant::now();
    for (bytes, pt, n) in &case.payloads {
        std::hint::black_box(compress::decode(case.enc, bytes, *pt, *n).expect("round trip"));
    }
    t0.elapsed().as_secs_f64()
}

// ------------------------------------------------------------ probes: scan side

fn met_pred(cmp: SelCmp, value: f64) -> ScalarPredicate {
    ScalarPredicate {
        leaf: Path::parse("MET.pt"),
        cmp,
        value: SelValue::Float(value),
    }
}

/// The `MET.pt` threshold above which a share `selectivity` of the
/// events lies.
pub fn met_threshold(events: &[Event], selectivity: f64) -> f64 {
    let mut pts: Vec<f64> = events.iter().map(|e| e.met.pt).collect();
    pts.sort_by(|a, b| a.partial_cmp(b).expect("finite MET"));
    let idx = ((1.0 - selectivity) * pts.len() as f64) as usize;
    pts[idx.min(pts.len() - 1)]
}

/// `apply_predicates(MET.pt > threshold)` over every row group.
/// Returns surviving rows.
pub fn probe_predicate(table: &Table, threshold: f64) -> u64 {
    let preds = [met_pred(SelCmp::Gt, threshold)];
    table
        .row_groups()
        .iter()
        .map(|g| {
            nf2_columnar::apply_predicates(g, &preds)
                .expect("scalar leaf")
                .len() as u64
        })
        .sum()
}

/// `ScanRequest::run` (billing accounting) for the Q2 projection.
/// Returns bytes scanned.
pub fn probe_scan_account(table: &Table) -> u64 {
    let projection = Projection::of(["Jet.pt"]);
    ScanRequest::new(table, &projection)
        .capability(PushdownCapability::IndividualLeaves)
        .run()
        .expect("valid projection")
        .stats
        .bytes_scanned
}

/// `RowGroup::read_rows` of the `MET` + `Jet` leaves (the interpreters'
/// `materialize` stage) over every row group. Returns rows read.
pub fn probe_read_rows(table: &Table) -> u64 {
    let projection = Projection::of(["MET", "Jet"]);
    let leaves = projection
        .resolve(table.schema(), PushdownCapability::IndividualLeaves)
        .expect("valid projection");
    table
        .row_groups()
        .iter()
        .map(|g| {
            g.read_rows(table.schema(), &leaves)
                .expect("readable")
                .len() as u64
        })
        .sum()
}

/// `RowGroup::read_rows_selected` with every other row selected.
/// Returns rows read.
pub fn probe_read_rows_selected(table: &Table) -> u64 {
    let projection = Projection::of(["MET", "Jet"]);
    let leaves = projection
        .resolve(table.schema(), PushdownCapability::IndividualLeaves)
        .expect("valid projection");
    table
        .row_groups()
        .iter()
        .map(|g| {
            let rows: Vec<u32> = (0..g.n_rows() as u32).step_by(2).collect();
            let sel = SelectionVector::from_rows(g.n_rows(), rows);
            g.read_rows_selected(table.schema(), &leaves, &sel)
                .expect("readable")
                .len() as u64
        })
        .sum()
}

/// `stats::skip_mask` for the event-id window. Returns pruned groups.
pub fn probe_skip_mask(table: &Table) -> u64 {
    let (lo, hi) = window(table.n_rows());
    let leaf = Path::parse("event");
    let preds = [
        ScalarPredicate {
            leaf: leaf.clone(),
            cmp: SelCmp::Ge,
            value: SelValue::Int(lo as i64),
        },
        ScalarPredicate {
            leaf,
            cmp: SelCmp::Lt,
            value: SelValue::Int(hi as i64),
        },
    ];
    nf2_columnar::stats::skip_mask(table, &preds)
        .iter()
        .filter(|&&pruned| pruned)
        .count() as u64
}

// ------------------------------------------------------------ probes: physics, physical-ir, exec-par

/// `Histogram::fill` over every `MET.pt`. Returns fills.
pub fn probe_hist_fill(events: &[Event]) -> u64 {
    let mut h = Histogram::new(QueryId::Q1.hist_spec());
    for e in events {
        h.fill(e.met.pt);
    }
    std::hint::black_box(h.total())
}

/// `physics::invariant_mass_2` over every leading muon pair. Returns
/// the number of masses computed.
pub fn probe_inv_mass(events: &[Event]) -> u64 {
    let mut n = 0u64;
    let mut acc = 0.0;
    for e in events {
        if let [a, b, ..] = e.muons.as_slice() {
            acc +=
                physics::invariant_mass_2(a.pt, a.eta, a.phi, a.mass, b.pt, b.eta, b.phi, b.mass);
            n += 1;
        }
    }
    std::hint::black_box(acc);
    n
}

/// Opaque handle on a `PhysPlan`.
pub struct Plan(PhysPlan);

/// The four plan shapes the physical IR has kernels for, with their
/// metric-name suffixes.
pub fn plans() -> [(&'static str, Plan); 4] {
    let jet = |leaf: &str| Path::parse(&format!("Jet.{leaf}"));
    let trijet = ComputeNode::Trijet(TrijetCompute {
        pt: jet("pt"),
        eta: jet("eta"),
        phi: jet("phi"),
        mass: jet("mass"),
        btag: jet("btag"),
        top_mass: hepbench_core::spec::masses::TOP,
        plot: TrijetPlot::Pt,
    });
    [
        (
            "scalar_fill",
            Plan(PhysPlan {
                filters: Vec::new(),
                compute: ComputeNode::ScalarFill {
                    leaf: Path::parse("MET.pt"),
                },
                spec: QueryId::Q1.hist_spec(),
            }),
        ),
        (
            "list_fill",
            Plan(PhysPlan {
                filters: Vec::new(),
                compute: ComputeNode::ListFill {
                    leaf: jet("pt"),
                    elem: None,
                },
                spec: QueryId::Q2.hist_spec(),
            }),
        ),
        (
            "filtered_fill",
            Plan(PhysPlan {
                filters: vec![FilterNode::ListCount {
                    leaf: jet("pt"),
                    elem: Some(ElemPredicate {
                        leaf: jet("pt"),
                        cmp: SelCmp::Gt,
                        value: 40.0,
                    }),
                    cmp: SelCmp::Ge,
                    count: 2,
                }],
                compute: ComputeNode::ScalarFill {
                    leaf: Path::parse("MET.pt"),
                },
                spec: QueryId::Q4.hist_spec(),
            }),
        ),
        (
            "trijet",
            Plan(PhysPlan {
                filters: vec![FilterNode::ListCount {
                    leaf: jet("pt"),
                    elem: None,
                    cmp: SelCmp::Ge,
                    count: 3,
                }],
                compute: trijet,
                spec: QueryId::Q6a.hist_spec(),
            }),
        ),
    ]
}

/// `physical_ir::execute`, serial. Returns fills.
pub fn probe_pir_execute(plan: &Plan, table: &Table) -> u64 {
    physical_ir::execute(
        &plan.0,
        table,
        None,
        &TraceCtx::disabled(),
        &CancelToken::none(),
    )
    .expect("fault-free execution")
    .len() as u64
}

/// What one `exec_par::execute` run did.
#[derive(Clone, Copy, Debug)]
pub struct ParRun {
    /// Wall seconds.
    pub seconds: f64,
    /// `ParStats::morsels`.
    pub morsels: u64,
    /// `ParStats::steals`.
    pub steals: u64,
}

/// `exec_par::execute` with `workers` workers (default steal order, no
/// recovery).
pub fn probe_exec_par(plan: &Plan, table: &Table, workers: usize) -> ParRun {
    let t0 = Instant::now();
    let (bins, stats) = exec_par::execute(
        &plan.0,
        table,
        None,
        &TraceCtx::disabled(),
        &CancelToken::none(),
        None,
        &exec_par::ParOptions::new(workers),
    )
    .expect("fault-free execution");
    let seconds = t0.elapsed().as_secs_f64();
    std::hint::black_box(bins);
    ParRun {
        seconds,
        morsels: stats.morsels,
        steals: stats.steals,
    }
}

/// Per-row-group partial aggregates of a plan (`execute_group`), ready
/// for the exchange probe.
pub struct Partials(Vec<PartialAgg>);

impl Partials {
    /// Number of partials.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether there are none.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

/// Runs `execute_group` per row group and keeps the partials.
pub fn partials(plan: &Plan, table: &Table) -> Partials {
    let mut scratch = GroupScratch::new(&plan.0);
    Partials(
        table
            .row_groups()
            .iter()
            .enumerate()
            .map(|(group, g)| {
                let mut bins = Vec::new();
                physical_ir::execute_group(&plan.0, g, &mut scratch, &mut bins)
                    .expect("fault-free execution");
                PartialAgg {
                    group,
                    bins,
                    rows: g.n_rows() as u64,
                    provenance: Provenance::first(0),
                }
            })
            .collect(),
    )
}

/// `Exchange::push` in reverse group order + `Exchange::merge`; the
/// input clones are made before the clock starts. Returns seconds.
pub fn probe_exchange_merge(partials: &Partials) -> f64 {
    let inputs: Vec<PartialAgg> = partials.0.iter().rev().cloned().collect();
    let t0 = Instant::now();
    let mut ex = Exchange::new();
    for p in inputs {
        ex.push(p);
    }
    std::hint::black_box(ex.merge(&CancelToken::none()).expect("not cancelled"));
    t0.elapsed().as_secs_f64()
}

/// `CombiBuffer::pairs` for every event's jet count. Returns pairs.
pub fn probe_pairs(events: &[Event]) -> u64 {
    let mut buf = physical_ir::CombiBuffer::new();
    events
        .iter()
        .map(|e| buf.pairs(e.jets.len()).len() as u64)
        .sum()
}

/// `CombiBuffer::triples` for every event's jet count. Returns triples.
pub fn probe_triples(events: &[Event]) -> u64 {
    let mut buf = physical_ir::CombiBuffer::new();
    events
        .iter()
        .map(|e| buf.triples(e.jets.len()).len() as u64)
        .sum()
}

/// Jet component arrays of the events with at least three jets.
pub struct JetArrays(Vec<[Vec<f64>; 5]>);

impl JetArrays {
    /// Number of events.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether there are none.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

/// Extracts the per-event jet arrays the trijet kernel consumes.
pub fn jet_arrays(events: &[Event]) -> JetArrays {
    JetArrays(
        events
            .iter()
            .filter(|e| e.jets.len() >= 3)
            .map(|e| {
                let col =
                    |f: fn(&hep_model::Jet) -> f64| e.jets.iter().map(f).collect::<Vec<f64>>();
                [
                    col(|j| j.pt),
                    col(|j| j.eta),
                    col(|j| j.phi),
                    col(|j| j.mass),
                    col(|j| j.btag),
                ]
            })
            .collect(),
    )
}

/// `TrijetScratch::load` + `best` per event. Returns events with a
/// best trijet.
pub fn probe_trijet_best(jets: &JetArrays) -> u64 {
    let mut scratch = TrijetScratch::new();
    let mut n = 0u64;
    for [pt, eta, phi, mass, btag] in &jets.0 {
        scratch.load(pt, eta, phi, mass);
        n += scratch
            .best(btag, hepbench_core::spec::masses::TOP)
            .is_some() as u64;
    }
    n
}

// ------------------------------------------------------------ probes: frontends

/// The nine benchmark texts of one language.
pub fn texts(lang: FrontendLang) -> Vec<String> {
    ALL_QUERIES
        .iter()
        .map(|q| queries::text(lang.language(), *q))
        .collect()
}

/// A text frontend and dialect.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FrontendLang {
    /// `engine-sql`, BigQuery profile.
    BigQuery,
    /// `engine-sql`, Presto profile.
    Presto,
    /// `engine-sql`, Athena profile.
    Athena,
    /// `engine-flwor`.
    Jsoniq,
}

impl FrontendLang {
    fn language(self) -> Language {
        match self {
            FrontendLang::BigQuery => Language::BigQuery,
            FrontendLang::Presto => Language::Presto,
            FrontendLang::Athena => Language::Athena,
            FrontendLang::Jsoniq => Language::Jsoniq,
        }
    }
}

/// Parsed SQL scripts (`engine_sql::parser::parse_script`).
pub struct SqlScripts(Vec<engine_sql::ast::Script>);

/// Parses every text; this call *is* the `engine-sql.parse_us` probe.
pub fn sql_parse(texts: &[String]) -> SqlScripts {
    SqlScripts(
        texts
            .iter()
            .map(|t| engine_sql::parser::parse_script(t).expect("benchmark text parses"))
            .collect(),
    )
}

/// The planner passes `SqlEngine::execute` runs between parse and scan:
/// `collect_projections`, `filterable_predicates`, `root_merge_spec`.
pub fn sql_plan(scripts: &SqlScripts, table: &Table) -> usize {
    let name = table.name().to_ascii_lowercase();
    let schemas: HashMap<String, &nf2_columnar::Schema> = HashMap::from([(name, table.schema())]);
    scripts
        .0
        .iter()
        .map(|s| {
            let proj = engine_sql::plan::collect_projections(s, &schemas);
            let preds = engine_sql::plan::filterable_predicates(s, &schemas);
            let merge = engine_sql::plan::root_merge_spec(s);
            proj.len() + preds.len() + merge.map_or(0, |m| m.len())
        })
        .sum()
}

/// `engine_sql::compile::lower` on every script. Returns how many lowered.
pub fn sql_lower(scripts: &SqlScripts) -> usize {
    scripts
        .0
        .iter()
        .filter(|s| std::hint::black_box(engine_sql::compile::lower(s)).is_some())
        .count()
}

/// Parsed JSONiq modules (`engine_flwor::parser::parse_module`).
pub struct FlworModules(Vec<engine_flwor::ast::Module>);

/// Parses every text; this call *is* the `engine-flwor.parse_us` probe.
pub fn flwor_parse(texts: &[String]) -> FlworModules {
    FlworModules(
        texts
            .iter()
            .map(|t| engine_flwor::parser::parse_module(t).expect("benchmark text parses"))
            .collect(),
    )
}

/// `engine_flwor::compile::lower` on every module. Returns how many lowered.
pub fn flwor_lower(modules: &FlworModules) -> usize {
    modules
        .0
        .iter()
        .filter(|m| std::hint::black_box(engine_flwor::compile::lower(m)).is_some())
        .count()
}

/// A one-row-group slice of a table — the input of the per-query
/// latency-floor probe.
pub fn first_group(table: &Table) -> Arc<Table> {
    Arc::new(table.shard(0, table.row_groups().len().max(1)))
}

/// Opens and closes `n` spans on an enabled `obs::TraceCtx` and drains
/// the tree. Returns seconds.
pub fn probe_obs_spans(n: usize) -> f64 {
    let ctx = TraceCtx::enabled();
    let t0 = Instant::now();
    for _ in 0..n {
        ctx.span(obs::Stage::Scan).finish();
    }
    let dt = t0.elapsed().as_secs_f64();
    std::hint::black_box(ctx.take_tree());
    dt
}

// ------------------------------------------------------------ replays

/// Replays the Presto text of `q` layer by layer with a span around
/// each public call, under the currently open span. Returns the summed
/// seconds of the replayed layers and the name of what could not be
/// replayed from outside (the residual), if anything.
pub fn replay_sql(
    rec: &mut Recorder,
    table: &Arc<Table>,
    q: QueryId,
    parallel_workers: usize,
) -> (f64, Option<&'static str>) {
    let text = queries::text(Language::Presto, q);
    let name = table.name().to_ascii_lowercase();
    let schemas: HashMap<String, &nf2_columnar::Schema> =
        HashMap::from([(name.clone(), table.schema())]);
    let mut total = 0.0;

    let (script, dt) = rec.scope("engine-sql", "parse_script", || {
        let s = engine_sql::parser::parse_script(&text).expect("benchmark text parses");
        Dialect::presto()
            .validate(&s)
            .expect("valid in its dialect");
        s
    });
    total += dt;
    let ((projections, preds, plan), dt) = rec.scope("engine-sql", "plan+lower", || {
        (
            engine_sql::plan::collect_projections(&script, &schemas),
            engine_sql::plan::filterable_predicates(&script, &schemas),
            engine_sql::compile::lower(&script),
        )
    });
    total += dt;

    let cols = projections.get(&name).cloned().unwrap_or_default();
    let projection = Projection::of(cols.iter());
    let no_preds = Vec::new();
    let prune = preds.get(&name).unwrap_or(&no_preds);
    let id = rec.begin("nf2-columnar", "ScanRequest::run");
    let run = ScanRequest::new(table, &projection)
        .capability(Dialect::presto().pushdown)
        .prune(prune)
        .run()
        .expect("valid projection");
    rec.end(id);
    rec.count(id, "bytes", run.stats.bytes_scanned);
    rec.count(id, "rows", run.stats.rows);
    rec.count(id, "groups_pruned", run.stats.groups_pruned);
    total += rec.seconds(id);

    match plan {
        Some(plan) => {
            let layer = if parallel_workers > 1 {
                "exec-par"
            } else {
                "physical-ir"
            };
            let id = rec.begin(layer, "execute");
            let (bins, morsels, steals) = if parallel_workers > 1 {
                let (bins, stats) = exec_par::execute(
                    &plan,
                    table,
                    run.skip.as_deref(),
                    &TraceCtx::disabled(),
                    &CancelToken::none(),
                    None,
                    &exec_par::ParOptions::new(parallel_workers),
                )
                .expect("fault-free execution");
                (bins, stats.morsels, stats.steals)
            } else {
                let bins = physical_ir::execute(
                    &plan,
                    table,
                    run.skip.as_deref(),
                    &TraceCtx::disabled(),
                    &CancelToken::none(),
                )
                .expect("fault-free execution");
                (bins, 0, 0)
            };
            rec.end(id);
            rec.count(id, "rows", table.n_rows() as u64);
            rec.count(id, "fills", bins.len() as u64);
            rec.count(id, "morsels", morsels);
            rec.count(id, "steals", steals);
            total += rec.seconds(id);
            let (_, dt) = rec.scope("physics", "Histogram::add_bin_count", || {
                let mut h = Histogram::new(plan.spec);
                for b in &bins {
                    h.add_bin_count(*b, 1);
                }
                h
            });
            total += dt;
            (total, None)
        }
        None => {
            let leaves = projection
                .resolve(table.schema(), Dialect::presto().pushdown)
                .expect("valid projection");
            let id = rec.begin("nf2-columnar", "RowGroup::read_rows");
            let mut rows = 0u64;
            for g in table.row_groups() {
                rows += g
                    .read_rows(table.schema(), &leaves)
                    .expect("readable")
                    .len() as u64;
            }
            rec.end(id);
            rec.count(id, "rows", rows);
            rec.count(
                id,
                "chunks",
                (leaves.len() * table.row_groups().len()) as u64,
            );
            total += rec.seconds(id);
            (total, Some("engine-sql relational interpreter (eval_query + aggregate; not callable from outside)"))
        }
    }
}

/// Replays one ingest cycle's table build layer by layer
/// (`event_to_value`, `TableBuilder::append` incl. group seals,
/// `TableBuilder::finish`). Returns the summed seconds.
pub fn replay_build(rec: &mut Recorder, events: &[Event], n_groups: usize) -> f64 {
    let (values, t_values) = rec.scope("hep-model", "event_to_value", || events_to_values(events));
    let schema = hep_model::schema::event_schema().expect("static schema");
    let row_group_size = events.len().div_ceil(n_groups).max(1);
    let id = rec.begin("nf2-columnar", "TableBuilder::append+seal");
    let mut b = TableBuilder::new(hep_model::schema::TABLE_NAME, schema, row_group_size);
    for v in &values {
        b.append(v).expect("generated rows fit the schema");
    }
    rec.end(id);
    rec.count(id, "rows", values.len() as u64);
    let t_append = rec.seconds(id);
    let (table, t_finish) = rec.scope("nf2-columnar", "TableBuilder::finish", || b.finish());
    std::hint::black_box(table);
    t_values + t_append + t_finish
}
