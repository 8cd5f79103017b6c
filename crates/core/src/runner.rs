//! Benchmark orchestration: one measured execution per (system, query),
//! mapped through the cloud simulator onto the paper's deployment space.
//!
//! For every system we **really execute** the corresponding engine on the
//! columnar data (the work and I/O are measured, and the result histogram
//! is validated), then derive:
//!
//! * QaaS wall time via [`cloud_sim::QaasProfile`] (startup floor + slot
//!   pool), and cost via the BigQuery/Athena pricing models;
//! * self-managed wall time via [`cloud_sim::SelfManagedProfile`]'s USL
//!   scaling on the chosen `m5d` instance, and cost as wall × $/s.

use std::sync::Arc;

use cloud_sim::{InstanceType, QaasProfile, SelfManagedProfile};
use nf2_columnar::{ScanStats, Table};

use crate::adapters::{AdapterError, ExecEnv};
use crate::engine_api::{engine_for, QuerySpec};
use crate::spec::QueryId;

/// The systems under test (Figure 1's legend).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum System {
    /// BigQuery with pre-loaded tables.
    BigQuery,
    /// BigQuery over external (federated) tables.
    BigQueryExternal,
    /// Amazon Athena v2.
    AthenaV2,
    /// Amazon Athena v1 (slower executor; not priced in the paper).
    AthenaV1,
    /// PrestoDB, self-managed.
    Presto,
    /// Rumble (JSONiq on Spark), self-managed.
    Rumble,
    /// ROOT 6.22 RDataFrame, self-managed.
    RDataFrame,
    /// RDataFrame with the contention fix (development version).
    RDataFrameDev,
}

/// All systems in display order.
pub const ALL_SYSTEMS: &[System] = &[
    System::BigQuery,
    System::BigQueryExternal,
    System::AthenaV2,
    System::AthenaV1,
    System::Presto,
    System::Rumble,
    System::RDataFrame,
    System::RDataFrameDev,
];

impl System {
    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            System::BigQuery => "BigQuery",
            System::BigQueryExternal => "BigQuery (external)",
            System::AthenaV2 => "Athena v2",
            System::AthenaV1 => "Athena v1",
            System::Presto => "Presto",
            System::Rumble => "Rumble",
            System::RDataFrame => "RDataFrame",
            System::RDataFrameDev => "RDataFrame (dev)",
        }
    }

    /// Is this a Query-as-a-Service system (no instance choice)?
    pub fn is_qaas(&self) -> bool {
        matches!(
            self,
            System::BigQuery | System::BigQueryExternal | System::AthenaV2 | System::AthenaV1
        )
    }
}

/// One data point of Figure 1/2.
#[derive(Clone, Debug)]
pub struct Measurement {
    /// System name.
    pub system: &'static str,
    /// Query output name.
    pub query: &'static str,
    /// Instance name for self-managed systems.
    pub instance: Option<&'static str>,
    /// Simulated end-to-end wall seconds.
    pub wall_seconds: f64,
    /// Query cost in USD.
    pub cost_usd: f64,
    /// Locally measured CPU seconds (Figure 4a).
    pub cpu_seconds: f64,
    /// Scan accounting (Figure 4b).
    pub scan: ScanStats,
    /// Total histogram entries (for sanity checks).
    pub hist_entries: u64,
    /// Per-stage exclusive CPU seconds from the run's span tree
    /// (stage name → seconds, descending). Empty unless the execution
    /// environment enabled tracing.
    pub stage_seconds: Vec<(&'static str, f64)>,
}

impl Measurement {
    /// Scan throughput per core in MB/s (Figure 4c): bytes scanned divided
    /// by total CPU time.
    pub fn throughput_mb_per_core_second(&self) -> f64 {
        if self.cpu_seconds <= 0.0 {
            return 0.0;
        }
        self.scan.bytes_scanned as f64 / 1e6 / self.cpu_seconds
    }
}

fn qaas_profile(system: System) -> QaasProfile {
    match system {
        System::BigQuery => QaasProfile::bigquery(),
        System::BigQueryExternal => QaasProfile::bigquery_external(),
        System::AthenaV2 => QaasProfile::athena(),
        System::AthenaV1 => QaasProfile::athena_v1(),
        _ => unreachable!("not QaaS"),
    }
}

fn self_managed_profile(system: System) -> SelfManagedProfile {
    match system {
        System::Presto => SelfManagedProfile::presto(),
        System::Rumble => SelfManagedProfile::rumble(),
        System::RDataFrame => SelfManagedProfile::rdataframe_v622(),
        System::RDataFrameDev => SelfManagedProfile::rdataframe_dev(),
        _ => unreachable!("not self-managed"),
    }
}

/// Runs one (system, query) on the data set under an execution
/// environment. `instance` is required for self-managed systems and
/// ignored for QaaS. With `env.trace` enabled, the measurement's
/// [`Measurement::stage_seconds`] carries the per-stage breakdown.
pub fn run_one(
    system: System,
    instance: Option<&'static InstanceType>,
    table: &Arc<Table>,
    q: QueryId,
    env: &ExecEnv,
) -> Result<Measurement, AdapterError> {
    let run = engine_for(system, table.clone()).execute(&QuerySpec::benchmark(q), env)?;
    let row_groups = table.row_groups().len();
    let cpu = run.stats.cpu_seconds;
    let (wall, cost, iname) = if system.is_qaas() {
        let profile = qaas_profile(system);
        let wall = profile.wall_seconds(cpu, row_groups);
        let cost = match system {
            System::BigQuery | System::BigQueryExternal => {
                cloud_sim::bigquery_cost_usd(&run.stats.scan)
            }
            _ => cloud_sim::athena_cost_usd(&run.stats.scan),
        };
        (wall, cost, None)
    } else {
        let inst = instance.expect("self-managed systems need an instance");
        let profile = self_managed_profile(system);
        let wall = profile.wall_seconds(cpu, inst, row_groups);
        let cost = cloud_sim::self_managed_cost_usd(wall, inst);
        (wall, cost, Some(inst.name))
    };
    Ok(Measurement {
        system: system.name(),
        query: q.name(),
        instance: iname,
        wall_seconds: wall,
        cost_usd: cost,
        cpu_seconds: cpu,
        scan: run.stats.scan,
        hist_entries: run.histogram.total(),
        stage_seconds: run
            .trace
            .stage_seconds()
            .into_iter()
            .map(|(s, secs)| (s.name(), secs))
            .collect(),
    })
}

/// Scales a measurement from the local data-set size to the paper's full
/// 53.4 M events (work and bytes scale linearly; the startup floors do
/// not, so only the work term is scaled).
pub fn scale_to_paper(m: &Measurement, factor: f64) -> Measurement {
    let mut scaled = m.clone();
    scaled.cpu_seconds *= factor;
    scaled.wall_seconds *= factor; // conservative: floors also scaled
    scaled.cost_usd *= factor;
    scaled.scan.bytes_scanned = (m.scan.bytes_scanned as f64 * factor) as u64;
    scaled.scan.logical_bytes = (m.scan.logical_bytes as f64 * factor) as u64;
    for (_, secs) in &mut scaled.stage_seconds {
        *secs *= factor;
    }
    scaled
}

/// Runs a self-managed system once and maps the measured work across the
/// whole `m5d` instance sweep (the measured CPU work and scan do not
/// depend on the simulated instance, so one execution suffices for the
/// Figure 1 sweep).
pub fn run_sweep(
    system: System,
    table: &Arc<Table>,
    q: QueryId,
    env: &ExecEnv,
) -> Result<Vec<Measurement>, AdapterError> {
    assert!(!system.is_qaas(), "QaaS systems have no instance sweep");
    let run = engine_for(system, table.clone()).execute(&QuerySpec::benchmark(q), env)?;
    let row_groups = table.row_groups().len();
    let profile = self_managed_profile(system);
    let stage_seconds: Vec<(&'static str, f64)> = run
        .trace
        .stage_seconds()
        .into_iter()
        .map(|(s, secs)| (s.name(), secs))
        .collect();
    Ok(cloud_sim::M5D_CATALOG
        .iter()
        .map(|inst| {
            let wall = profile.wall_seconds(run.stats.cpu_seconds, inst, row_groups);
            Measurement {
                system: system.name(),
                query: q.name(),
                instance: Some(inst.name),
                wall_seconds: wall,
                cost_usd: cloud_sim::self_managed_cost_usd(wall, inst),
                cpu_seconds: run.stats.cpu_seconds,
                scan: run.stats.scan,
                hist_entries: run.histogram.total(),
                stage_seconds: stage_seconds.clone(),
            }
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use hep_model::generator::build_dataset;
    use hep_model::DatasetSpec;

    fn table() -> Arc<Table> {
        Arc::new(
            build_dataset(DatasetSpec {
                n_events: 2_000,
                row_group_size: 256,
                seed: 7,
            })
            .1,
        )
    }

    #[test]
    fn qaas_measurements() {
        let t = table();
        let m = run_one(System::BigQuery, None, &t, QueryId::Q1, &ExecEnv::seed()).unwrap();
        assert!(m.wall_seconds >= 1.5);
        assert!(m.cost_usd > 0.0);
        assert_eq!(m.hist_entries, 2_000);
        assert!(m.instance.is_none());
        // Athena pays for the whole MET struct on Q1; BigQuery for one
        // logical column — but BigQuery's min-billing floor dominates at
        // this tiny scale, so compare the raw scan accounting instead.
        let a = run_one(System::AthenaV2, None, &t, QueryId::Q1, &ExecEnv::seed()).unwrap();
        assert!(a.scan.bytes_scanned > m.scan.bytes_scanned);
    }

    #[test]
    fn self_managed_measurements() {
        let t = table();
        let inst = cloud_sim::instances::by_name("m5d.4xlarge").unwrap();
        let m = run_one(
            System::RDataFrame,
            Some(inst),
            &t,
            QueryId::Q1,
            &ExecEnv::seed(),
        )
        .unwrap();
        assert_eq!(m.instance, Some("m5d.4xlarge"));
        assert!(m.wall_seconds > 0.0);
        assert!(m.cost_usd > 0.0);
        let p = run_one(
            System::Presto,
            Some(inst),
            &t,
            QueryId::Q1,
            &ExecEnv::seed(),
        )
        .unwrap();
        assert_eq!(p.hist_entries, m.hist_entries);
    }

    #[test]
    fn rdataframe_retrogrades_on_large_instances() {
        let t = table();
        let big = cloud_sim::instances::by_name("m5d.24xlarge").unwrap();
        let mid = cloud_sim::instances::by_name("m5d.8xlarge").unwrap();
        // Fix the measured CPU by running once, then compare the model's
        // instance mapping for a compute-heavy query.
        let m_mid = run_one(
            System::RDataFrame,
            Some(mid),
            &t,
            QueryId::Q6a,
            &ExecEnv::seed(),
        )
        .unwrap();
        let m_big = run_one(
            System::RDataFrame,
            Some(big),
            &t,
            QueryId::Q6a,
            &ExecEnv::seed(),
        )
        .unwrap();
        // CPU measurement noise exists; compare the modeled *ratio* using
        // the same cpu for both.
        let prof = SelfManagedProfile::rdataframe_v622();
        let w_mid = prof.wall_seconds(m_mid.cpu_seconds.max(1e-3), mid, 8);
        let w_big = prof.wall_seconds(m_mid.cpu_seconds.max(1e-3), big, 8);
        // With only 8 row groups parallelism is capped — equal times.
        assert!((w_mid - w_big).abs() < 1e-9);
        let w_mid_many = prof.wall_seconds(100.0, mid, 10_000);
        let w_big_many = prof.wall_seconds(100.0, big, 10_000);
        assert!(w_big_many > w_mid_many, "no retrograde region");
        let _ = m_big;
    }

    #[test]
    fn scaling_helper() {
        let t = table();
        let m = run_one(System::BigQuery, None, &t, QueryId::Q1, &ExecEnv::seed()).unwrap();
        let s = scale_to_paper(&m, 10.0);
        assert!((s.cpu_seconds / m.cpu_seconds - 10.0).abs() < 1e-9);
        assert!(s.scan.bytes_scanned >= 9 * m.scan.bytes_scanned);
    }
}
