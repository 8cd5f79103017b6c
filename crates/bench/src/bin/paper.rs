//! Writes the paper's tables and figures into `results/`:
//!
//! ```sh
//! cargo run --release -p hepbench-bench --bin paper -- <artifact>
//! cargo run --release -p hepbench-bench --bin paper -- all
//! ```
//!
//! `<artifact>` is one of `table1`, `table2`, `fig1`, `fig2`, `fig3`,
//! `fig4`, `fig4b`. Each lands in `results/<artifact>.txt` at the
//! workspace root and is echoed to stdout. `HEPQUERY_EVENTS`,
//! `HEPQUERY_ROW_GROUP` and `HEPQUERY_SEED` override an artifact's
//! default scale (the scale of its committed file); the file's header
//! records what they chose.

use hepbench_bench::dataset_spec;
use hepbench_bench::paper::{render, results_dir, Artifact, Dataset};

fn usage() -> ! {
    let names: Vec<&str> = Artifact::ALL.iter().map(|a| a.name()).collect();
    eprintln!("usage: paper <{}|all>", names.join("|"));
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let artifacts = match args.as_slice() {
        [name] if name == "all" => Artifact::ALL.to_vec(),
        [name] => vec![Artifact::from_name(name).unwrap_or_else(|| usage())],
        _ => usage(),
    };
    let mut jobs: Vec<_> = artifacts
        .into_iter()
        .map(|a| (a, a.default_spec().map(|d| dataset_spec(d.n_events, None))))
        .collect();
    // Artifacts that share a data set run back to back, so each data set
    // is built once and only one is resident at a time.
    jobs.sort_by_key(|(_, spec)| spec.map(|s| (s.n_events, s.row_group_size, s.seed)));
    let dir = results_dir();
    std::fs::create_dir_all(&dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display()));
    let mut data: Option<Dataset> = None;
    for (artifact, spec) in jobs {
        if let Some(spec) = spec {
            if data.as_ref().map(|d| d.spec) != Some(spec) {
                drop(data.take());
                data = Some(Dataset::build(spec));
            }
        }
        let text = render(artifact, data.as_ref());
        let path = dir.join(format!("{}.txt", artifact.name()));
        std::fs::write(&path, &text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        print!("{text}");
        eprintln!("# wrote {}", path.display());
    }
}
