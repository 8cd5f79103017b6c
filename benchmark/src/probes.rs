//! The traced run: a short pass of the workload with driver-side spans
//! around each call into a layer, then the per-layer probes — every
//! layer's public functions timed from outside over chunks, plans and
//! texts taken from the workload's own table.

use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::layers::{self, Env, Event, FrontendLang, QueryId, System, Table, ALL_QUERIES};
use crate::measure::{geomean, median, quantile_sorted, time_median};
use crate::report::Metric;
use crate::spans::Recorder;
use crate::workloads::{self, Workload, N_GROUPS, OPEN_LOOP_LOAD_SHARE};

/// The sixty-six per-layer metrics: name, unit, whether lower is
/// better. The prefix of a name is the crate it measures.
pub const PER_LAYER: [(&str, &str, bool); 66] = [
    ("hep-model.generate_events_per_s", "events/s", false),
    ("hep-model.to_value_events_per_s", "events/s", false),
    ("nf2-columnar.append_rows_per_s", "rows/s", false),
    ("nf2-columnar.seal_chunks_per_s", "chunks/s", false),
    ("nf2-columnar.encode_mb_per_s.plain", "MB/s", false),
    ("nf2-columnar.encode_mb_per_s.bool_rle", "MB/s", false),
    ("nf2-columnar.encode_mb_per_s.delta_varint", "MB/s", false),
    (
        "nf2-columnar.encode_mb_per_s.byte_stream_split",
        "MB/s",
        false,
    ),
    ("nf2-columnar.encode_mb_per_s.dict", "MB/s", false),
    ("nf2-columnar.zonemap_build_mb_per_s", "MB/s", false),
    ("nf2-columnar.write_table_mb_per_s", "MB/s", false),
    ("nf2-columnar.read_table_mb_per_s", "MB/s", false),
    ("nf2-columnar.decode_mb_per_s.plain", "MB/s", false),
    ("nf2-columnar.decode_mb_per_s.bool_rle", "MB/s", false),
    ("nf2-columnar.decode_mb_per_s.delta_varint", "MB/s", false),
    (
        "nf2-columnar.decode_mb_per_s.byte_stream_split",
        "MB/s",
        false,
    ),
    ("nf2-columnar.decode_mb_per_s.dict", "MB/s", false),
    ("nf2-columnar.predicate_rows_per_s.sel01", "rows/s", false),
    ("nf2-columnar.predicate_rows_per_s.sel50", "rows/s", false),
    ("nf2-columnar.predicate_rows_per_s.sel99", "rows/s", false),
    ("nf2-columnar.scan_account_groups_per_s", "groups/s", false),
    ("nf2-columnar.read_rows_per_s", "rows/s", false),
    ("nf2-columnar.read_rows_selected_per_s", "rows/s", false),
    ("nf2-columnar.skip_mask_groups_per_s", "groups/s", false),
    ("nf2-columnar.groups_pruned_ratio", "ratio", false),
    ("physics.hist_fill_per_s", "fills/s", false),
    ("physics.inv_mass_per_s", "1/s", false),
    (
        "physical-ir.execute_rows_per_s.scalar_fill",
        "rows/s",
        false,
    ),
    ("physical-ir.execute_rows_per_s.list_fill", "rows/s", false),
    (
        "physical-ir.execute_rows_per_s.filtered_fill",
        "rows/s",
        false,
    ),
    ("physical-ir.execute_rows_per_s.trijet", "rows/s", false),
    ("physical-ir.pairs_per_s", "pairs/s", false),
    ("physical-ir.triples_per_s", "triples/s", false),
    ("physical-ir.trijet_best_events_per_s", "events/s", false),
    (
        "physical-ir.exchange_merge_partials_per_s",
        "partials/s",
        false,
    ),
    ("exec-par.rows_per_s.w1", "rows/s", false),
    ("exec-par.rows_per_s.wP", "rows/s", false),
    ("exec-par.parallel_efficiency", "ratio", false),
    ("exec-par.morsels_per_s", "morsels/s", false),
    ("exec-par.steals_per_run", "count", true),
    ("engine-sql.parse_us", "us", true),
    ("engine-sql.plan_us", "us", true),
    ("engine-sql.lower_us", "us", true),
    ("engine-sql.lowered_ratio", "ratio", false),
    ("engine-sql.interp_rows_per_s", "rows/s", false),
    ("engine-sql.compiled_rows_per_s", "rows/s", false),
    ("engine-flwor.parse_us", "us", true),
    ("engine-flwor.lower_us", "us", true),
    ("engine-flwor.lowered_ratio", "ratio", false),
    ("engine-flwor.interp_rows_per_s", "rows/s", false),
    ("engine-flwor.compiled_rows_per_s", "rows/s", false),
    ("engine-rdf.interp_rows_per_s", "rows/s", false),
    ("engine-rdf.compiled_rows_per_s", "rows/s", false),
    ("core.reference_rows_per_s", "rows/s", false),
    ("core.adapter_overhead_us", "us", true),
    ("core.layers_explained_ratio", "ratio", false),
    ("query-service.submit_ns", "ns", true),
    ("query-service.queue_wait_p50_s", "s", true),
    ("query-service.queue_wait_p99_s", "s", true),
    ("query-service.exec_p50_s", "s", true),
    ("query-service.exec_p99_s", "s", true),
    ("query-service.refused_ratio", "ratio", true),
    ("query-service.worker_busy_ratio", "ratio", false),
    ("cloud-sim.cost_usd_per_1k_queries", "USD", true),
    ("obs.trace_overhead_ratio", "ratio", true),
    ("obs.span_record_ns", "ns", true),
];

/// Number of timed probe loops; each gets an equal slice of the budget.
const PROBE_LOOPS: f64 = 52.0;

/// Rows the kernel probes run over at most (a head of the workload's
/// table, so one iteration stays well under its slice).
const KERNEL_ROWS: usize = 16_384;

/// Rows the interpreter and service probes run over at most.
const INTERP_ROWS: usize = 2_048;

/// What the traced run produced.
pub struct TraceOutput {
    /// The sixty-six per-layer metrics, in [`PER_LAYER`] order.
    pub metrics: Vec<Metric>,
    /// Every span recorded.
    pub recorder: Recorder,
    /// Operations attempted in the traced pass.
    pub attempted: u64,
    /// Operations that failed or returned wrong results.
    pub failed: u64,
    /// Human-readable notes (the residual of the explained ratio, …).
    pub notes: Vec<String>,
}

/// Collects metrics by name and wraps every probe loop in a span.
struct Bench<'r> {
    slice: Duration,
    rec: &'r mut Recorder,
    values: Vec<(&'static str, f64)>,
}

impl Bench<'_> {
    fn push(&mut self, name: &str, value: f64) {
        let declared = PER_LAYER
            .iter()
            .find(|(n, _, _)| *n == name)
            .unwrap_or_else(|| panic!("{name} is not a declared per-layer metric"));
        self.values.push((declared.0, value));
    }

    /// Median seconds per call of `f`, which times itself and returns
    /// seconds; recorded as one span named after the metric.
    fn seconds_of(&mut self, name: &str, mut f: impl FnMut() -> f64) -> f64 {
        let (layer, what) = name.split_once('.').expect("layer.metric");
        let id = self.rec.begin(layer, what);
        let start = Instant::now();
        let mut samples = Vec::new();
        while samples.len() < 3 || start.elapsed() < self.slice {
            samples.push(f());
        }
        self.rec.end(id);
        self.rec.count(id, "iters", samples.len() as u64);
        median(&mut samples)
    }

    /// `units ÷ median seconds` of a self-timing probe.
    fn rate(&mut self, name: &str, units: f64, f: impl FnMut() -> f64) {
        let s = self.seconds_of(name, f);
        self.push(name, units / s);
    }

    /// `units ÷ median seconds` of a probe timed from here.
    fn rate_of<T>(&mut self, name: &str, units: f64, mut f: impl FnMut() -> T) {
        self.rate(name, units, || {
            let t0 = Instant::now();
            std::hint::black_box(f());
            t0.elapsed().as_secs_f64()
        });
    }

    /// Median microseconds per item of a probe timed from here.
    fn micros_of<T>(&mut self, name: &str, items: f64, mut f: impl FnMut() -> T) {
        let s = self.seconds_of(name, || {
            let t0 = Instant::now();
            std::hint::black_box(f());
            t0.elapsed().as_secs_f64()
        });
        self.push(name, s * 1e6 / items);
    }
}

/// Runs the query set `queries` on `engine` and returns rows processed.
fn run_queries(engine: &layers::Engine, queries: &[QueryId], rows: u64, env: Env) -> u64 {
    for q in queries {
        std::hint::black_box(engine.run(*q, env).expect("probe query runs"));
    }
    rows * queries.len() as u64
}

fn quantiles(xs: &[f64]) -> (f64, f64) {
    if xs.is_empty() {
        return (0.0, 0.0);
    }
    let mut s = xs.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    (quantile_sorted(&s, 0.5), quantile_sorted(&s, 0.99))
}

/// All probes except `core.layers_explained_ratio`.
fn layer_probes(
    b: &mut Bench<'_>,
    events: &[Event],
    table: &Arc<Table>,
    seed: u64,
    p: usize,
    serve_s: f64,
) {
    let k_rows = events.len().min(KERNEL_ROWS);
    let (k_events, k_table) = (&events[..k_rows], layers::head(table, k_rows));
    let i_rows = events.len().min(INTERP_ROWS);
    let (i_events, i_table) = (&events[..i_rows], layers::head(table, i_rows));
    let k_info = layers::table_info(&k_table);
    let (kr, ir) = (k_info.rows as f64, i_rows as f64);

    // hep-model and the write side of nf2-columnar.
    b.rate_of("hep-model.generate_events_per_s", ir, || {
        layers::generate_events(seed, i_rows)
    });
    b.rate_of("hep-model.to_value_events_per_s", ir, || {
        layers::events_to_values(i_events)
    });
    let values = layers::events_to_values(i_events);
    b.rate("nf2-columnar.append_rows_per_s", ir, || {
        layers::probe_append(&values)
    });
    drop(values);
    let sample = layers::sample_chunks(&k_table, 16);
    b.rate(
        "nf2-columnar.seal_chunks_per_s",
        sample.n_chunks as f64,
        || layers::probe_seal(&sample),
    );
    let mb = |bytes: usize| bytes as f64 / 1e6;
    for (suffix, enc) in layers::encodings() {
        let enc_name = format!("nf2-columnar.encode_mb_per_s.{suffix}");
        let dec_name = format!("nf2-columnar.decode_mb_per_s.{suffix}");
        let case = layers::codec_case(&sample, enc);
        if case.bytes == 0 {
            // No sampled chunk takes this encoding (e.g. no leaf with
            // ≤256 distinct values): report 0 rather than invent a rate.
            b.push(&enc_name, 0.0);
            b.push(&dec_name, 0.0);
            continue;
        }
        b.rate(&enc_name, mb(case.bytes), || layers::probe_encode(&case));
        b.rate(&dec_name, mb(case.bytes), || layers::probe_decode(&case));
    }
    b.rate(
        "nf2-columnar.zonemap_build_mb_per_s",
        mb(sample.bytes),
        || layers::probe_zonemap(&sample),
    );
    let file = layers::write_table(&k_table);
    b.rate_of("nf2-columnar.write_table_mb_per_s", mb(file.len()), || {
        layers::write_table(&k_table)
    });
    b.rate_of("nf2-columnar.read_table_mb_per_s", mb(file.len()), || {
        layers::read_table(&file).expect("round trip")
    });
    drop(file);

    // The scan side.
    for (name, sel) in [
        ("nf2-columnar.predicate_rows_per_s.sel01", 0.01),
        ("nf2-columnar.predicate_rows_per_s.sel50", 0.50),
        ("nf2-columnar.predicate_rows_per_s.sel99", 0.99),
    ] {
        let threshold = layers::met_threshold(k_events, sel);
        b.rate_of(name, kr, || layers::probe_predicate(&k_table, threshold));
    }
    let groups = k_info.groups as f64;
    b.rate_of("nf2-columnar.scan_account_groups_per_s", groups, || {
        layers::probe_scan_account(&k_table)
    });
    b.rate_of("nf2-columnar.read_rows_per_s", ir, || {
        layers::probe_read_rows(&i_table)
    });
    b.rate_of("nf2-columnar.read_rows_selected_per_s", ir / 2.0, || {
        layers::probe_read_rows_selected(&i_table)
    });
    b.rate_of("nf2-columnar.skip_mask_groups_per_s", groups, || {
        layers::probe_skip_mask(&k_table)
    });
    b.push(
        "nf2-columnar.groups_pruned_ratio",
        layers::probe_skip_mask(&k_table) as f64 / groups,
    );

    // physics and physical-ir kernels.
    b.rate_of("physics.hist_fill_per_s", kr, || {
        layers::probe_hist_fill(k_events)
    });
    let masses = layers::probe_inv_mass(k_events) as f64;
    b.rate_of("physics.inv_mass_per_s", masses, || {
        layers::probe_inv_mass(k_events)
    });
    let plans = layers::plans();
    for (suffix, plan) in &plans {
        let name = format!("physical-ir.execute_rows_per_s.{suffix}");
        b.rate_of(&name, kr, || layers::probe_pir_execute(plan, &k_table));
    }
    let pairs = layers::probe_pairs(k_events) as f64;
    b.rate_of("physical-ir.pairs_per_s", pairs, || {
        layers::probe_pairs(k_events)
    });
    let triples = layers::probe_triples(k_events) as f64;
    b.rate_of("physical-ir.triples_per_s", triples, || {
        layers::probe_triples(k_events)
    });
    let jets = layers::jet_arrays(k_events);
    b.rate_of(
        "physical-ir.trijet_best_events_per_s",
        jets.len() as f64,
        || layers::probe_trijet_best(&jets),
    );
    let list_fill = &plans[1].1;
    let partials = layers::partials(list_fill, &k_table);
    b.rate(
        "physical-ir.exchange_merge_partials_per_s",
        partials.len() as f64,
        || layers::probe_exchange_merge(&partials),
    );

    // exec-par on the trijet plan: one worker, then P.
    let trijet = &plans[3].1;
    let mut runs_w1 = Vec::new();
    let t_w1 = b.seconds_of("exec-par.rows_per_s.w1", || {
        let r = layers::probe_exec_par(trijet, &k_table, 1);
        runs_w1.push(r);
        r.seconds
    });
    b.push("exec-par.rows_per_s.w1", kr / t_w1);
    let mut runs_wp = Vec::new();
    let t_wp = b.seconds_of("exec-par.rows_per_s.wP", || {
        let r = layers::probe_exec_par(trijet, &k_table, p);
        runs_wp.push(r);
        r.seconds
    });
    b.push("exec-par.rows_per_s.wP", kr / t_wp);
    b.push("exec-par.parallel_efficiency", t_w1 / t_wp / p as f64);
    b.push("exec-par.morsels_per_s", runs_wp[0].morsels as f64 / t_wp);
    let mut steals: Vec<f64> = runs_wp.iter().map(|r| r.steals as f64).collect();
    b.push("exec-par.steals_per_run", median(&mut steals));

    // Frontends: parse / plan / lower over the nine benchmark texts,
    // then interpreted vs compiled execution through the deployments.
    let presto = layers::texts(FrontendLang::Presto);
    let n_texts = presto.len() as f64;
    b.micros_of("engine-sql.parse_us", n_texts, || {
        layers::sql_parse(&presto)
    });
    let scripts = layers::sql_parse(&presto);
    b.micros_of("engine-sql.plan_us", n_texts, || {
        layers::sql_plan(&scripts, &i_table)
    });
    b.micros_of("engine-sql.lower_us", n_texts, || {
        layers::sql_lower(&scripts)
    });
    let lowered: usize = [
        FrontendLang::BigQuery,
        FrontendLang::Presto,
        FrontendLang::Athena,
    ]
    .into_iter()
    .map(|lang| layers::sql_lower(&layers::sql_parse(&layers::texts(lang))))
    .sum();
    b.push("engine-sql.lowered_ratio", lowered as f64 / (3.0 * n_texts));
    let jsoniq = layers::texts(FrontendLang::Jsoniq);
    b.micros_of("engine-flwor.parse_us", n_texts, || {
        layers::flwor_parse(&jsoniq)
    });
    let modules = layers::flwor_parse(&jsoniq);
    b.micros_of("engine-flwor.lower_us", n_texts, || {
        layers::flwor_lower(&modules)
    });
    b.push(
        "engine-flwor.lowered_ratio",
        layers::flwor_lower(&modules) as f64 / n_texts,
    );

    const INTERPRETED: [QueryId; 4] = [QueryId::Q1, QueryId::Q2, QueryId::Q4, QueryId::Q5];
    const Q6: [QueryId; 2] = [QueryId::Q6a, QueryId::Q6b];
    let env = Env::serial();
    let rows = i_rows as u64;
    for (system, interp_name, compiled_name) in [
        (
            System::Presto,
            "engine-sql.interp_rows_per_s",
            "engine-sql.compiled_rows_per_s",
        ),
        (
            System::Rumble,
            "engine-flwor.interp_rows_per_s",
            "engine-flwor.compiled_rows_per_s",
        ),
    ] {
        let interp = layers::engine(system, &i_table, false);
        b.rate_of(interp_name, ir * INTERPRETED.len() as f64, || {
            run_queries(&interp, &INTERPRETED, rows, env)
        });
        let compiled = layers::engine(system, &i_table, true);
        b.rate_of(compiled_name, ir * Q6.len() as f64, || {
            run_queries(&compiled, &Q6, rows, env)
        });
    }
    // RDataFrame lowers the base-column bookings (Q1, Q2); the same two
    // queries through the interpreted event loop are the comparison.
    const RDF: [QueryId; 2] = [QueryId::Q1, QueryId::Q2];
    let rdf_interp = layers::engine(System::RDataFrame, &k_table, false);
    let rdf_compiled = layers::engine(System::RDataFrame, &k_table, true);
    b.rate_of("engine-rdf.interp_rows_per_s", kr * 2.0, || {
        run_queries(&rdf_interp, &RDF, k_info.rows, env)
    });
    b.rate_of("engine-rdf.compiled_rows_per_s", kr * 2.0, || {
        run_queries(&rdf_compiled, &RDF, k_info.rows, env)
    });

    // core: the oracle and the per-query latency floor.
    b.rate_of(
        "core.reference_rows_per_s",
        kr * ALL_QUERIES.len() as f64,
        || {
            for q in ALL_QUERIES {
                std::hint::black_box(layers::reference(*q, k_events));
            }
        },
    );
    let one_group = layers::first_group(&i_table);
    let floor = layers::engine(System::RDataFrame, &one_group, true);
    b.micros_of("core.adapter_overhead_us", 1.0, || {
        floor.run(QueryId::Q1, env)
    });

    // obs: what the program's own tracing costs when switched on.
    let spans = 10_000;
    let s = b.seconds_of("obs.span_record_ns", || layers::probe_obs_spans(spans));
    b.push("obs.span_record_ns", s * 1e9 / spans as f64);
    let presto_i = layers::engine(System::Presto, &i_table, true);
    let rumble_i = layers::engine(System::Rumble, &i_table, true);
    let points: [(&layers::Engine, QueryId); 3] = [
        (&presto_i, QueryId::Q1),
        (&presto_i, QueryId::Q5),
        (&rumble_i, QueryId::Q1),
    ];
    let id = b.rec.begin("obs", "trace_overhead_ratio");
    let arm = |obs_trace: bool, budget: Duration| -> f64 {
        let env = Env {
            obs_trace,
            ..Env::serial()
        };
        let medians: Vec<f64> = points
            .iter()
            .map(|(e, q)| time_median(budget, 3, || e.run(*q, env).expect("probe query runs")))
            .collect();
        geomean(&medians)
    };
    let share = b.slice / 3;
    let (untraced, traced) = (arm(false, share), arm(true, share));
    b.rec.end(id);
    b.push("obs.trace_overhead_ratio", traced / untraced);

    // query-service and cloud-sim: a short serving run on the same mix.
    let id = b.rec.begin("query-service", "serve");
    let service = layers::start_service(i_table.clone(), p);
    let expect = workloads::mix_expectations(i_events);
    let out = workloads::serve(
        &service,
        &expect,
        seed,
        p,
        serve_s * 0.4,
        serve_s * 0.6,
        OPEN_LOOP_LOAD_SHARE,
    );
    drop(service);
    for &(offset_s, slot, queue_s, total_s) in out.open_requests.iter().take(512) {
        let name = workloads::slot_name(workloads::mix_slots()[slot]);
        let req = b.rec.record("query-service", &name, offset_s, total_s);
        b.rec.count(req, "queue_wait_ns", (queue_s * 1e9) as u64);
        b.rec
            .count(req, "exec_ns", ((total_s - queue_s).max(0.0) * 1e9) as u64);
    }
    b.rec.end(id);
    b.rec.count(id, "requests", out.attempted);
    let mut submit = out.submit_ns.clone();
    b.push("query-service.submit_ns", median(&mut submit));
    let (q50, q99) = quantiles(&out.queue_waits);
    let (e50, e99) = quantiles(&out.exec_times);
    b.push("query-service.queue_wait_p50_s", q50);
    b.push("query-service.queue_wait_p99_s", q99);
    b.push("query-service.exec_p50_s", e50);
    b.push("query-service.exec_p99_s", e99);
    b.push(
        "query-service.refused_ratio",
        out.refused as f64 / out.attempted.max(1) as f64,
    );
    b.push(
        "query-service.worker_busy_ratio",
        out.closed_exec_s / (p as f64 * out.closed_wall_s),
    );
    b.push(
        "cloud-sim.cost_usd_per_1k_queries",
        layers::cost_per_1k_queries(out.cost_usd, out.completed),
    );
}

/// One traced pass of the workload itself plus the layer-by-layer
/// replay of one of its points. Returns `(attempted, failed,
/// explained ratio, notes)`.
fn traced_pass(
    rec: &mut Recorder,
    workload: Workload,
    ds: &workloads::Dataset,
    p: usize,
) -> (u64, u64, f64, Vec<String>) {
    let mut notes = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    match workload {
        Workload::TextFrontends | Workload::DataframeCompiled | Workload::ParallelScaling => {
            let ops = workloads::suite_ops(workload, ds, p);
            let expect = workloads::suite_expectations(&ops, &ds.events);
            let pass = rec.begin("core", "pass");
            let mut e2e = std::collections::HashMap::new();
            for (op, expect) in ops.iter().zip(&expect) {
                attempted += 1;
                let id = rec.begin("core", &op.name);
                let out = op.run();
                rec.end(id);
                e2e.insert(op.name.clone(), rec.seconds(id));
                match out {
                    Ok(out) => {
                        rec.count(id, "rows", out.rows_scanned);
                        rec.count(id, "bytes", out.bytes_scanned);
                        rec.count(id, "groups_pruned", out.groups_pruned);
                        if !layers::same_bins(&out.hist, expect) {
                            failed += 1;
                            notes.push(format!("FAILED {}: bin counts differ", op.name));
                        }
                    }
                    Err(e) => {
                        failed += 1;
                        notes.push(format!("FAILED {}: {e}", op.name));
                    }
                }
            }
            rec.end(pass);
            // Replay one point: an interpreted text on text_frontends, the
            // compiled trijet on the other two suites.
            let (q, workers) = match workload {
                Workload::TextFrontends => (QueryId::Q1, 0),
                Workload::DataframeCompiled => (QueryId::Q6a, 0),
                _ => (QueryId::Q6a, p),
            };
            let point = format!("presto/{}", q.name());
            let replay = rec.begin("core", &format!("replay {point}"));
            let (layers_s, residual) = layers::replay_sql(rec, &ds.table, q, workers);
            rec.end(replay);
            let wall = e2e[&point];
            notes.push(format!(
                "layers_explained: {point} replayed layers {:.3} ms of {:.3} ms end to end; residual {:.3} ms = {}",
                layers_s * 1e3,
                wall * 1e3,
                (wall - layers_s) * 1e3,
                residual.unwrap_or("adapter glue (engine construction, result shaping)")
            ));
            (attempted, failed, layers_s / wall, notes)
        }
        Workload::Ingest => {
            let id = rec.begin("core", "cycle");
            let (t, info, file_bytes, check) = workloads::ingest_cycle(&ds.events);
            rec.record("hep-model", "events_to_table", 0.0, t.build);
            let w = rec.record("nf2-columnar", "write_table", t.build, t.write);
            let r = rec.record("nf2-columnar", "read_table", t.build + t.write, t.read);
            rec.end(id);
            rec.count(id, "rows", info.rows);
            rec.count(w, "bytes", file_bytes as u64);
            rec.count(r, "bytes", file_bytes as u64);
            attempted += 1;
            if let Err(e) = check {
                failed += 1;
                notes.push(format!("FAILED cycle: {e}"));
            }
            let replay = rec.begin("core", "replay build");
            let layers_s = layers::replay_build(rec, &ds.events, N_GROUPS);
            rec.end(replay);
            let (e2e, replayed) = (t.build + t.write + t.read, layers_s + t.write + t.read);
            notes.push(format!(
                "layers_explained: cycle replayed layers {:.3} ms of {:.3} ms end to end; residual {:.3} ms = events_to_table glue (schema construction, per-event value drop)",
                replayed * 1e3,
                e2e * 1e3,
                (e2e - replayed) * 1e3
            ));
            (attempted, failed, replayed / e2e, notes)
        }
        Workload::ServeMix => {
            // One request at a time through the service: submit + queue
            // wait + execution against the client-side wall.
            let service = layers::start_service(ds.table.clone(), p);
            let slot = workloads::mix_slots()[0];
            let expect = layers::reference(slot.query, &ds.events);
            let mut explained = Vec::new();
            for _ in 0..32 {
                attempted += 1;
                let id = rec.begin("core", "request");
                let t0 = Instant::now();
                let (pending, submit_s) = rec.scope("query-service", "submit", || {
                    service.submit("t00", slot, None)
                });
                let answer = pending.and_then(|p| p.wait());
                let wall = t0.elapsed().as_secs_f64();
                match answer {
                    Ok(r) => {
                        rec.record("query-service", "queue_wait", submit_s, r.queue_s);
                        rec.record(
                            "query-service",
                            "execute",
                            submit_s + r.queue_s,
                            r.total_s - r.queue_s,
                        );
                        if !layers::same_bins(&r.hist, &expect) {
                            failed += 1;
                            notes.push("FAILED request: bin counts differ".to_string());
                        }
                        explained.push((submit_s + r.total_s) / wall);
                    }
                    Err(e) => {
                        failed += 1;
                        notes.push(format!("FAILED request: {e}"));
                    }
                }
                rec.end(id);
            }
            let ratio = if explained.is_empty() {
                0.0
            } else {
                median(&mut explained)
            };
            notes.push(format!(
                "layers_explained: {} request, submit + queue wait + execute over client wall (median of {}); residual = reply channel wake-up",
                workloads::slot_name(slot),
                explained.len()
            ));
            (attempted, failed, ratio, notes)
        }
    }
}

/// Runs the traced mode of one workload.
pub fn run(workload: Workload, seed: u64, seconds: f64, p: usize) -> TraceOutput {
    let mut rec = Recorder::new(workload.name());
    let setup = rec.begin("hep-model", "setup");
    let ds = workloads::build_dataset(seed, workload.n_events());
    rec.end(setup);
    rec.count(setup, "rows", ds.events.len() as u64);

    let (attempted, failed, explained, notes) = traced_pass(&mut rec, workload, &ds, p);

    let serve_s = seconds * 0.25;
    let mut bench = Bench {
        slice: Duration::from_secs_f64(seconds * 0.75 / PROBE_LOOPS),
        rec: &mut rec,
        values: Vec::new(),
    };
    layer_probes(&mut bench, &ds.events, &ds.table, seed, p, serve_s);
    bench.push("core.layers_explained_ratio", explained);
    let values = bench.values;

    let metrics = PER_LAYER
        .iter()
        .map(|&(name, unit, _)| Metric {
            name,
            unit,
            value: values
                .iter()
                .find(|(n, _)| *n == name)
                .unwrap_or_else(|| panic!("probe for {name} did not run"))
                .1,
        })
        .collect();
    TraceOutput {
        metrics,
        recorder: rec,
        attempted,
        failed,
        notes,
    }
}
