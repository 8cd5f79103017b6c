//! The `hepquery` command-line tool: generate data sets, run ad-hoc SQL or
//! JSONiq queries against them, and reproduce the benchmark.
//!
//! ```sh
//! hepquery generate --events 100000 --out events.nf2c
//! hepquery sql     --dialect bigquery --file events.nf2c "SELECT COUNT(*) FROM events"
//! hepquery jsoniq  --file events.nf2c 'for $e in parquet-file("events") return $e.MET.pt' --limit 5
//! hepquery adl     --query Q5 --events 50000
//! hepquery schema  --file events.nf2c
//! ```

use std::process::ExitCode;
use std::sync::Arc;

use hepquery::bench::{adapters, reference, spec::QueryId, ALL_QUERIES};
use hepquery::prelude::*;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let result = match cmd.as_str() {
        "generate" => cmd_generate(&args[1..]),
        "sql" => cmd_sql(&args[1..]),
        "jsoniq" => cmd_jsoniq(&args[1..]),
        "adl" => cmd_adl(&args[1..]),
        "schema" => cmd_schema(&args[1..]),
        "--help" | "-h" | "help" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command {other}\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
hepquery — HEP query engines over NF² columnar data

USAGE:
  hepquery generate [--events N] [--row-group N] [--seed N] --out FILE
  hepquery sql      [--dialect bigquery|presto|athena] (--file FILE | --events N) SQL [--limit N]
  hepquery jsoniq   (--file FILE | --events N) QUERY [--limit N]
  hepquery adl      --query Q1..Q8|Q6a|Q6b [--events N] [--engine all|sql|jsoniq|rdf] [--trace]
  hepquery schema   --file FILE";

/// Tiny argument scanner: `--key value` flags plus one positional.
struct Args<'a> {
    raw: &'a [String],
}

impl<'a> Args<'a> {
    fn flag(&self, name: &str) -> Option<&'a str> {
        self.raw
            .iter()
            .position(|a| a == name)
            .and_then(|i| self.raw.get(i + 1))
            .map(|s| s.as_str())
    }

    fn parsed<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.flag(name) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("bad value for {name}: {v}")),
        }
    }

    fn positional(&self) -> Option<&'a str> {
        let mut skip = false;
        for a in self.raw {
            if skip {
                skip = false;
                continue;
            }
            if a.starts_with("--") {
                skip = true;
                continue;
            }
            return Some(a);
        }
        None
    }
}

fn load_or_generate(a: &Args) -> Result<Arc<Table>, String> {
    if let Some(file) = a.flag("--file") {
        let t = hepquery::columnar::file::load(std::path::Path::new(file))
            .map_err(|e| e.to_string())?;
        Ok(Arc::new(t))
    } else {
        let n: usize = a.parsed("--events", 10_000)?;
        let rg: usize = a.parsed("--row-group", (n / 16).max(1))?;
        let seed: u64 = a.parsed("--seed", 0xAD1B70)?;
        let (_, t) = hepquery::model::generator::build_dataset(DatasetSpec {
            n_events: n,
            row_group_size: rg,
            seed,
        });
        Ok(Arc::new(t))
    }
}

fn cmd_generate(raw: &[String]) -> Result<(), String> {
    let a = Args { raw };
    let out = a.flag("--out").ok_or("generate requires --out FILE")?;
    let n: usize = a.parsed("--events", 100_000)?;
    let rg: usize = a.parsed("--row-group", (n / 128).max(1))?;
    let seed: u64 = a.parsed("--seed", 0xAD1B70)?;
    let (_, table) = hepquery::model::generator::build_dataset(DatasetSpec {
        n_events: n,
        row_group_size: rg,
        seed,
    });
    hepquery::columnar::file::save(&table, std::path::Path::new(out)).map_err(|e| e.to_string())?;
    println!(
        "wrote {} events ({} row groups, {:.1} MB uncompressed) to {out}",
        table.n_rows(),
        table.row_groups().len(),
        table.uncompressed_bytes() as f64 / 1e6
    );
    Ok(())
}

fn cmd_sql(raw: &[String]) -> Result<(), String> {
    let a = Args { raw };
    let dialect = match a.flag("--dialect").unwrap_or("presto") {
        "bigquery" => Dialect::bigquery(),
        "presto" => Dialect::presto(),
        "athena" => Dialect::athena(),
        other => return Err(format!("unknown dialect {other}")),
    };
    let sql = a.positional().ok_or("sql requires a query string")?;
    let table = load_or_generate(&a)?;
    let mut engine = SqlEngine::new(dialect, ExecOptions::default());
    engine.register(table);
    let out = engine.execute(sql).map_err(|e| e.to_string())?;
    let limit: usize = a.parsed("--limit", 50)?;
    println!("{}", out.relation.cols.join("\t"));
    for row in out.relation.rows.iter().take(limit) {
        let cells: Vec<String> = row.iter().map(|v| v.to_string()).collect();
        println!("{}", cells.join("\t"));
    }
    if out.relation.rows.len() > limit {
        println!("… {} more rows", out.relation.rows.len() - limit);
    }
    eprintln!(
        "# {} rows, {:.1} ms cpu, {} bytes scanned",
        out.relation.rows.len(),
        out.stats.cpu_seconds * 1e3,
        out.stats.scan.bytes_scanned
    );
    Ok(())
}

fn cmd_jsoniq(raw: &[String]) -> Result<(), String> {
    let a = Args { raw };
    let query = a.positional().ok_or("jsoniq requires a query string")?;
    let table = load_or_generate(&a)?;
    let mut engine = hepquery::jsoniq::FlworEngine::new(Default::default());
    engine.register(table);
    let out = engine.execute(query).map_err(|e| e.to_string())?;
    let limit: usize = a.parsed("--limit", 50)?;
    for item in out.items.iter().take(limit) {
        println!("{}", hepquery::value::json::to_json(item));
    }
    if out.items.len() > limit {
        println!("… {} more items", out.items.len() - limit);
    }
    eprintln!(
        "# {} items, {:.1} ms cpu, {} bytes scanned",
        out.items.len(),
        out.stats.cpu_seconds * 1e3,
        out.stats.scan.bytes_scanned
    );
    Ok(())
}

fn cmd_adl(raw: &[String]) -> Result<(), String> {
    let a = Args { raw };
    let qname = a.flag("--query").ok_or("adl requires --query")?;
    let q = *ALL_QUERIES
        .iter()
        .find(|q| q.name().eq_ignore_ascii_case(qname) || (qname == "Q6" && q.name() == "Q6a"))
        .ok_or_else(|| format!("unknown query {qname}"))?;
    let n: usize = a.parsed("--events", 20_000)?;
    let (events, table) = hepquery::model::generator::build_dataset(DatasetSpec {
        n_events: n,
        row_group_size: (n / 16).max(1),
        seed: 0xAD1B70,
    });
    let table = Arc::new(table);
    let expect = reference::run(q, &events);
    println!("{} — {}", q.name(), q.description());
    let engine = a.flag("--engine").unwrap_or("all");
    let trace_on = a.raw.iter().any(|s| s == "--trace");
    let env = adapters::ExecEnv {
        trace: if trace_on {
            hepquery::obs::TraceCtx::enabled()
        } else {
            hepquery::obs::TraceCtx::disabled()
        },
        ..adapters::ExecEnv::seed()
    };
    let mut systems: Vec<System> = Vec::new();
    if engine == "all" || engine == "sql" {
        systems.extend([System::BigQuery, System::Presto, System::AthenaV2]);
    }
    if engine == "all" || engine == "jsoniq" {
        systems.push(System::Rumble);
    }
    if engine == "all" || engine == "rdf" {
        systems.push(System::RDataFrame);
    }
    let mut runs: Vec<(&str, adapters::EngineRun)> = Vec::new();
    for system in systems {
        let run = engine_for(system, table.clone())
            .execute(&QuerySpec::benchmark(q), &env)
            .map_err(|e| e.to_string())?;
        runs.push((system.name(), run));
    }
    for (name, run) in &runs {
        println!(
            "{name:<20} entries {:>8}  cpu {:>9.1} ms  scanned {:>12} B  exact {}",
            run.histogram.total(),
            run.stats.cpu_seconds * 1e3,
            run.stats.scan.bytes_scanned,
            run.histogram.counts_equal(&expect.hist)
        );
        if trace_on {
            println!("{}", run.trace.render(false));
        }
    }
    println!("\n{}", expect.hist.ascii(60));
    let _ = QueryId::Q1;
    Ok(())
}

fn cmd_schema(raw: &[String]) -> Result<(), String> {
    let a = Args { raw };
    let table = load_or_generate(&a)?;
    println!(
        "table {:?}: {} rows, {} row groups, {} leaf columns",
        table.name(),
        table.n_rows(),
        table.row_groups().len(),
        table.schema().n_leaves()
    );
    for leaf in table.schema().leaves() {
        println!(
            "  {:30} {:?}{}",
            leaf.path.to_string(),
            leaf.ptype,
            if leaf.repeated { "  (repeated)" } else { "" }
        );
    }
    Ok(())
}
