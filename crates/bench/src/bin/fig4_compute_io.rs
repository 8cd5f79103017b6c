//! Regenerates **Figure 4**: the compute/IO balance analysis —
//! (a) CPU time per query and system, (b) bytes scanned per event with the
//! two "ideal" lines, (c) end-to-end scan throughput per core, and
//! (d) the per-stage breakdown from each run's span tree.

use hepbench_bench::{dataset, dataset_spec, fmt_bytes, fmt_secs};
use hepbench_core::adapters::ExecEnv;
use hepbench_core::runner::{run_one, System};
use hepbench_core::ALL_QUERIES;

fn systems() -> Vec<(System, Option<&'static cloud_sim::InstanceType>)> {
    let big = cloud_sim::instances::by_name("m5d.24xlarge");
    let twelve = cloud_sim::instances::by_name("m5d.12xlarge");
    vec![
        (System::BigQuery, None),
        (System::AthenaV2, None),
        (System::Presto, big),
        (System::Rumble, big),
        (System::RDataFrame, twelve),
    ]
}

fn main() {
    // Tracing on: Figure 4d reads the per-stage breakdown straight off
    // each run's span tree. CPU/scan numbers still come from the same
    // accounting as before (tracing is an overlay, not a measurement
    // change).
    let env = ExecEnv {
        trace: obs::TraceCtx::enabled(),
        ..ExecEnv::seed()
    };
    let (_, table) = dataset(dataset_spec(65_536, None));
    let mut rows = Vec::new();
    for q in ALL_QUERIES {
        if *q == hepbench_core::QueryId::Q6b {
            continue;
        }
        for (system, inst) in systems() {
            let m = run_one(system, inst, &table, *q, &env).expect("run");
            rows.push(m);
        }
    }

    println!("Figure 4a — total CPU time per query (seconds of busy cores)");
    print_per_query(&rows, |m| fmt_secs(m.cpu_seconds));
    println!();

    println!("Figure 4b — bytes scanned per event (ideal: compressed / uncompressed)");
    print_per_query(&rows, |m| format!("{:.1}", m.scan.bytes_per_row()));
    println!();
    println!("{:24}", "ideal lines (B/event):");
    let mut seen = std::collections::HashSet::new();
    for m in &rows {
        if seen.insert(m.query) {
            println!(
                "  {:6} compressed {:>8.1}  uncompressed {:>8.1}",
                m.query,
                m.scan.ideal_compressed_bytes as f64 / m.scan.rows.max(1) as f64,
                m.scan.ideal_uncompressed_bytes as f64 / m.scan.rows.max(1) as f64
            );
        }
    }
    println!();

    println!("Figure 4c — scan throughput per core (MB per CPU-second)");
    print_per_query(&rows, |m| {
        format!("{:.2}", m.throughput_mb_per_core_second())
    });
    println!();

    println!("Figure 4d — where the time goes (top stage from each run's span tree)");
    print_per_query_width(&rows, 22, |m| {
        m.stage_seconds
            .iter()
            .find(|(stage, _)| *stage != "query")
            .map(|(stage, secs)| format!("{stage} {}", fmt_secs(*secs)))
            .unwrap_or_else(|| "-".to_string())
    });
    println!();
    println!(
        "total table size: {} compressed / {} uncompressed",
        fmt_bytes(table.compressed_bytes() as u64),
        fmt_bytes(table.uncompressed_bytes() as u64)
    );
    println!();
    println!("shapes to check against the paper (Figure 4): CPU time ranking mirrors");
    println!("Figure 1 with Q6 >> Q8 > Q7/Q5; BigQuery's billed bytes exceed the ideal");
    println!("compressed line (8-byte pricing), Presto/Athena exceed it via whole-struct");
    println!("reads, Rumble reads the entire file; throughput collapses on Q6.");
}

fn print_per_query(
    rows: &[hepbench_core::runner::Measurement],
    f: impl Fn(&hepbench_core::runner::Measurement) -> String,
) {
    print_per_query_width(rows, 10, f)
}

fn print_per_query_width(
    rows: &[hepbench_core::runner::Measurement],
    width: usize,
    f: impl Fn(&hepbench_core::runner::Measurement) -> String,
) {
    let queries: Vec<&str> = {
        let mut qs: Vec<&str> = Vec::new();
        for m in rows {
            if !qs.contains(&m.query) {
                qs.push(m.query);
            }
        }
        qs
    };
    let systems: Vec<&str> = {
        let mut ss = Vec::new();
        for m in rows {
            if !ss.contains(&m.system) {
                ss.push(m.system);
            }
        }
        ss
    };
    print!("{:24}", "");
    for q in &queries {
        print!("{q:>width$}");
    }
    println!();
    for s in &systems {
        print!("{s:24}");
        for q in &queries {
            let m = rows
                .iter()
                .find(|m| m.system == *s && m.query == *q)
                .expect("measured");
            print!("{:>width$}", f(m));
        }
        println!();
    }
}
