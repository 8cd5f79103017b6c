//! Regenerates **Figure 2** (running time vs data-set size) and gates
//! the determinism of the morsel-parallel compiled executor.
//!
//! Two modes:
//!
//! * Default — the paper's Figure 2 sweep: power-of-two prefixes of the
//!   data set through every system's calibrated paper deployment
//!   (`Table::head` keeps prefixes row-group-aligned, preserving the
//!   parallelization-granularity plateau).
//!
//! * `--check` — the CI gate: sharded data sets at three scales
//!   ([`SHARD_LADDER`]) × four worker counts ([`WORKERS`]) × two
//!   adversarial steal seeds ([`STEAL_SEEDS`]) over three compiled plans
//!   (two scan-bound, one compute-bound trijet); every point must be
//!   **byte-identical** to the serial executor. Parallel *throughput* is
//!   the `parallel_scaling` workload of `benchmark/`, not this gate.
//!
//! Scale knobs: `HEPQUERY_EVENTS` (events **per shard** under `--check`),
//! `HEPQUERY_ROW_GROUP`, `HEPQUERY_SEED`, `HEPQUERY_WATCHDOG`.

use std::sync::Arc;

use exec_par::ParOptions;
use hep_model::{build_sharded_table, ShardedSpec};
use hepbench_bench::{dataset, dataset_spec, fmt_secs, run_gate};
use hepbench_core::adapters::ExecEnv;
use hepbench_core::runner::{run_one, System};
use hepbench_core::QueryId;
use nested_value::Path;
use nf2_columnar::{ScalarPredicate, SelCmp, SelValue};
use physical_ir::{ComputeNode, FilterNode, PhysPlan, TrijetCompute, TrijetPlot};
use physics::HistSpec;

/// Shard counts of the gate's ladder (data volume = shards × events per
/// shard); three scales as in the paper's size sweeps.
const SHARD_LADDER: [usize; 3] = [1, 2, 4];

/// Worker counts every plan runs at.
const WORKERS: [usize; 4] = [1, 2, 4, 8];

/// Steal seeds every point runs under.
const STEAL_SEEDS: [u64; 2] = [0x5EED, u64::MAX];

/// The three studied plans: two scan-bound fills (Q1/Q2-shaped) and the
/// compute-bound Q6 trijet kernel.
fn plans() -> Vec<(&'static str, PhysPlan)> {
    vec![
        (
            "q1-metpt",
            PhysPlan {
                filters: vec![FilterNode::Scalar(ScalarPredicate {
                    leaf: Path::parse("MET.pt"),
                    cmp: SelCmp::Gt,
                    value: SelValue::Float(0.0),
                })],
                compute: ComputeNode::ScalarFill {
                    leaf: Path::parse("MET.pt"),
                },
                spec: HistSpec::new(100, 0.0, 200.0),
            },
        ),
        (
            "q2-jetpt",
            PhysPlan {
                filters: vec![],
                compute: ComputeNode::ListFill {
                    leaf: Path::parse("Jet.pt"),
                    elem: None,
                },
                spec: HistSpec::new(100, 15.0, 60.0),
            },
        ),
        (
            "q6-trijet",
            PhysPlan {
                filters: vec![FilterNode::ListCount {
                    leaf: Path::parse("Jet.pt"),
                    elem: None,
                    cmp: SelCmp::Ge,
                    count: 3,
                }],
                compute: ComputeNode::Trijet(TrijetCompute {
                    pt: Path::parse("Jet.pt"),
                    eta: Path::parse("Jet.eta"),
                    phi: Path::parse("Jet.phi"),
                    mass: Path::parse("Jet.mass"),
                    btag: Path::parse("Jet.btag"),
                    top_mass: 172.5,
                    plot: TrijetPlot::Pt,
                }),
                spec: HistSpec::new(100, 15.0, 40.0),
            },
        ),
    ]
}

/// The systems of Figure 2, with their best instances (paper §4.2:
/// m5d.12xlarge for RDataFrame, m5d.24xlarge otherwise).
fn systems() -> Vec<(System, Option<&'static cloud_sim::InstanceType>)> {
    let big = cloud_sim::instances::by_name("m5d.24xlarge");
    let twelve = cloud_sim::instances::by_name("m5d.12xlarge");
    vec![
        (System::BigQuery, None),
        (System::BigQueryExternal, None),
        (System::AthenaV2, None),
        (System::AthenaV1, None),
        (System::Presto, big),
        (System::Rumble, big),
        (System::RDataFrame, twelve),
    ]
}

/// The paper's Figure 2 table: running time vs data-set size for every
/// calibrated paper deployment.
fn figure2_table() {
    let (_, table) = dataset(dataset_spec(65_536, None));
    let env = ExecEnv::seed();
    let queries = [
        QueryId::Q1,
        QueryId::Q4,
        QueryId::Q5,
        QueryId::Q6a,
        QueryId::Q8,
    ];
    println!("Figure 2 — running time vs data-set size");
    for q in queries {
        println!();
        println!("== {}", q.name());
        // Size sweep: powers of two up to the full set.
        let mut sizes = Vec::new();
        let mut n = 1024usize;
        while n < table.n_rows() {
            sizes.push(n);
            n *= 4;
        }
        sizes.push(table.n_rows());
        print!("{:24}", "events:");
        for s in &sizes {
            print!("{s:>12}");
        }
        println!();
        for (system, inst) in systems() {
            print!("{:24}", system.name());
            for s in &sizes {
                let head = Arc::new(table.head(*s));
                let m = run_one(system, inst, &head, q, &env).expect("run");
                print!("{:>12}", fmt_secs(m.wall_seconds));
            }
            println!();
        }
    }
    println!();
    println!("shapes to check against the paper (Figure 2): a plateau once data");
    println!("outgrows one row group (parallelism is across row groups only); QaaS");
    println!("times nearly constant; self-managed times rising again once there are");
    println!("more row groups than cores.");
}

/// The `--check` body: every (scale × plan × workers × steal seed) point
/// against serial execution; returns one message per diverging point.
fn check_identity(base: ShardedSpec) -> Vec<String> {
    eprintln!(
        "# fig2_scaling --check: {} events/shard, shards {:?}, workers {:?}, row group {}",
        base.events_per_shard, SHARD_LADDER, WORKERS, base.row_group_size
    );
    let mut violations = Vec::new();
    for shards in SHARD_LADDER {
        let table = Arc::new(build_sharded_table(base.with_shards(shards)));
        eprintln!(
            "# scale: {shards} shards = {} events, {} row groups",
            table.n_rows(),
            table.row_groups().len()
        );
        for (name, plan) in plans() {
            let serial = physical_ir::execute(
                &plan,
                &table,
                None,
                &obs::TraceCtx::disabled(),
                &obs::CancelToken::none(),
            )
            .expect("serial execution");
            for workers in WORKERS {
                for steal_seed in STEAL_SEEDS {
                    let opts = ParOptions {
                        workers,
                        steal_seed,
                        recovery: None,
                    };
                    let (bins, stats) = exec_par::execute(
                        &plan,
                        &table,
                        None,
                        &obs::TraceCtx::disabled(),
                        &obs::CancelToken::none(),
                        None,
                        &opts,
                    )
                    .expect("parallel execution");
                    eprintln!(
                        "  {name:10} w={workers} seed {steal_seed:#x}: {} morsels, {} steals",
                        stats.morsels, stats.steals
                    );
                    if bins != serial {
                        violations.push(format!(
                            "{name} at {shards} shards: parallel bins diverged from serial at \
                             {workers} workers (steal seed {steal_seed:#x})"
                        ));
                    }
                }
            }
        }
    }
    violations
}

fn main() {
    if std::env::args().any(|a| a == "--check") {
        // `HEPQUERY_EVENTS` is the per-shard event count so the ladder
        // scales data volume without changing per-shard content (shard
        // seeds are shard-count-independent).
        let spec = dataset_spec(2_048, Some(64));
        let base = ShardedSpec {
            events_per_shard: spec.n_events,
            shards: 1,
            row_group_size: spec.row_group_size,
            seed: spec.seed,
        };
        std::process::exit(run_gate("fig2_scaling --check", move || {
            check_identity(base)
        }));
    }
    figure2_table();
}
