//! Command line of the benchmark harness.
//!
//! ```text
//! hepquery-benchmark run   (--workload <name> | --all) [--seed N] [--seconds S] [--trace 0|1] [--quick]
//! hepquery-benchmark trace (--workload <name> | --all) [--seed N] [--seconds S]
//! hepquery-benchmark selfcheck [--seed N] [--seconds S]
//! ```
//!
//! The last stdout line of a single-workload run is the JSON object the
//! driver parses; everything above it is for people.

use std::process::{Command, ExitCode};

use hepquery_benchmark::measure::{load_threads, nproc};
use hepquery_benchmark::report::{self, RunInfo, END_TO_END};
use hepquery_benchmark::workloads::{self, Workload};
use hepquery_benchmark::{probes, RUN_SECONDS};

/// Parsed command line.
struct Args {
    mode: String,
    workload: Option<Workload>,
    all: bool,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let mode = argv
        .next()
        .ok_or("missing subcommand: run | trace | selfcheck")?;
    if !matches!(mode.as_str(), "run" | "trace" | "selfcheck") {
        return Err(format!(
            "unknown subcommand {mode:?}: run | trace | selfcheck"
        ));
    }
    let mut args = Args {
        trace: mode == "trace",
        mode,
        workload: None,
        all: false,
        seed: 1,
        seconds: RUN_SECONDS,
    };
    while let Some(flag) = argv.next() {
        let mut value = |what: &str| argv.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                args.workload = Some(
                    Workload::parse(&name)
                        .ok_or(format!("unknown workload {name:?}; one of {names:?}"))?,
                );
            }
            "--all" => args.all = true,
            "--quick" => args.seconds = 2.0,
            "--seed" => {
                args.seed = value("an unsigned integer")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("a number of seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
            }
            "--trace" => {
                args.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if args.mode != "selfcheck" && args.all == args.workload.is_some() {
        return Err("give exactly one of --workload <name> and --all".to_string());
    }
    Ok(args)
}

/// Runs one workload in this process; returns whether it was correct.
fn run_one(workload: Workload, args: &Args) -> bool {
    let info = RunInfo {
        workload,
        seed: args.seed,
        seconds: args.seconds,
        p: load_threads(),
        nproc: nproc(),
        commit: report::git_commit(),
    };
    if args.trace {
        let out = probes::run(workload, args.seed, args.seconds, info.p);
        println!("{}", info.header("trace"));
        for note in &out.notes {
            println!("# {note}");
        }
        for (layer, seconds) in out.recorder.self_seconds_by_layer() {
            println!("# self time {layer:<14} {seconds:>10.4} s");
        }
        let path = format!("benchmark/out/trace-{}.json", workload.name());
        let written = std::fs::create_dir_all("benchmark/out")
            .and_then(|()| std::fs::write(&path, out.recorder.to_json()));
        match written {
            Ok(()) => println!("# {} spans written to {path}", out.recorder.spans().len()),
            Err(e) => println!("# could not write {path}: {e}"),
        }
        for m in &out.metrics {
            println!("{:<52} {:>20.6} {}", m.name, m.value, m.unit);
        }
        let correct = out.failed == 0;
        println!(
            "{}",
            report::result_line(correct, out.attempted, out.failed, &out.metrics)
        );
        correct
    } else {
        let measured = workloads::run(workload, args.seed, args.seconds, info.p);
        let metrics = report::end_to_end(&measured);
        print!("{}", report::detail(&info, &measured, &metrics));
        let correct = measured.failed == 0;
        println!(
            "{}",
            report::result_line(correct, measured.attempted, measured.failed, &metrics)
        );
        correct
    }
}

/// Runs one workload in a child process (fresh peak RSS and CPU
/// counters per workload) and returns its stdout and whether it
/// succeeded. The child is always waited for.
fn run_child(workload: Workload, args: &Args, seed: u64) -> (String, bool) {
    let exe = std::env::current_exe().expect("own executable path");
    let out = Command::new(exe)
        .args(["run", "--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }])
        .output()
        .expect("spawn own executable");
    eprint!("{}", String::from_utf8_lossy(&out.stderr));
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        out.status.success(),
    )
}

fn run_all(args: &Args) -> bool {
    let mut ok = true;
    for w in Workload::ALL {
        let (stdout, success) = run_child(w, args, args.seed);
        print!("{stdout}");
        ok &= success;
    }
    ok
}

/// `selfcheck`: `--all` twice with one seed and once with another; the
/// same-seed pair must agree within every metric's bound.
fn selfcheck(args: &Args) -> bool {
    let passes = [("a", args.seed), ("b", args.seed), ("c", args.seed + 1)];
    // results[workload][pass] = metric values in END_TO_END order.
    let mut results: Vec<Vec<Vec<f64>>> = Vec::new();
    let mut ok = true;
    for w in Workload::ALL {
        let mut per_pass = Vec::new();
        for (label, seed) in passes {
            eprintln!("# selfcheck: {} pass {label} (seed {seed})", w.name());
            let (stdout, success) = run_child(w, args, seed);
            let parsed = stdout.lines().last().and_then(report::parse_result_line);
            match parsed {
                Some((true, values)) if success && values.len() == END_TO_END.len() => {
                    per_pass.push(values.into_iter().map(|(_, v)| v).collect())
                }
                _ => {
                    println!("FAILED {} pass {label}: no correct result line", w.name());
                    per_pass.push(vec![f64::NAN; END_TO_END.len()]);
                    ok = false;
                }
            }
        }
        results.push(per_pass);
    }
    println!(
        "{:<24} {:<20} {:>14} {:>10} {:>10} {:>7} {:>5}",
        "metric", "workload", "value(a)", "|a-b|/a", "|a-c|/a", "bound", "ok"
    );
    for (mi, &(name, _, _, bound)) in END_TO_END.iter().enumerate() {
        for (wi, w) in Workload::ALL.iter().enumerate() {
            let [a, b, c] = [0, 1, 2].map(|pass| results[wi][pass][mi]);
            // A missing (NaN) value compares false below and so fails.
            let same_seed = ((a - b) / a).abs();
            let other_seed = ((a - c) / a).abs();
            let within = same_seed <= bound;
            ok &= within;
            println!(
                "{:<24} {:<20} {:>14.6} {:>10.5} {:>10.5} {:>7.3} {:>5}",
                name,
                w.name(),
                a,
                same_seed,
                other_seed,
                bound,
                if within { "ok" } else { "FAIL" }
            );
        }
    }
    println!("selfcheck: {}", if ok { "PASS" } else { "FAIL" });
    ok
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let ok = match (args.mode.as_str(), args.workload) {
        ("selfcheck", _) => selfcheck(&args),
        (_, Some(w)) => run_one(w, &args),
        _ => run_all(&args),
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
