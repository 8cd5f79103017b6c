//! The execution knobs every engine takes, and the per-run environment
//! that overrides them.

use std::sync::Arc;

use nf2_columnar::FaultInjector;

/// How an engine executes a query. Every knob changes speed only: results are byte-identical at every setting, and scan
/// accounting (and hence billing) depends on none of them except
/// `zone_map_pruning`, whose skipped bytes are billed separately as
/// `ScanStats::bytes_pruned`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ExecOptions {
    /// Worker threads of the interpreters' row-group fan-out
    /// ([`crate::for_each_group_ordered`]); `0` means all cores.
    pub n_threads: usize,
    /// Morsel workers for compiled plans: `> 1` runs them through
    /// [`crate::execute`] with this many workers; `0` and `1`
    /// keep the serial compiled executor. Ignored when a query does not
    /// lower to a compiled plan.
    pub parallel_workers: usize,
    /// Skip row groups whose zone maps refute a top-level scalar
    /// conjunct. Sound by construction: predicate extraction is
    /// conservative, and the full filter still runs on every row read.
    /// The same conjuncts always select the surviving rows of every group
    /// read, vectorised, before materialisation ([`crate::Driver`]).
    pub zone_map_pruning: bool,
    /// Run queries the frontend recognizes (exact canonical-template
    /// match) as fused kernels over the shared physical IR instead of
    /// interpreting them; everything else interprets.
    pub compile: bool,
}

impl Default for ExecOptions {
    fn default() -> ExecOptions {
        ExecOptions {
            n_threads: 0,
            parallel_workers: 0,
            zone_map_pruning: true,
            compile: true,
        }
    }
}

/// Everything a caller injects into one run that is not part of the
/// query: overrides of three [`ExecOptions`] knobs, and the run's fault
/// injector, trace context and cancel token. The default
/// overrides nothing and attaches nothing: the paper's configuration.
#[derive(Clone, Default)]
pub struct ExecEnv {
    /// Overrides [`ExecOptions::n_threads`]. A multi-tenant server sets
    /// this to 1 and parallelizes across queries instead.
    pub intra_query_threads: Option<usize>,
    /// Overrides [`ExecOptions::parallel_workers`]: a per-request latency
    /// knob the serving layer can expose.
    pub parallel_workers: Option<usize>,
    /// Overrides [`ExecOptions::zone_map_pruning`]. `Some(false)`
    /// reproduces the paper's configuration, where every system reads
    /// every row group.
    pub zone_map_pruning: Option<bool>,
    /// Chaos-layer fault injector on physical chunk reads, probed by
    /// [`crate::Driver::scan`] — the scan every engine and every chaos
    /// arm, interpreted or compiled, reads through — which re-reads a
    /// transiently faulted chunk in place (`None`, the default,
    /// reproduces the fault-free path byte-for-byte; see
    /// [`nf2_columnar::fault`]).
    pub fault_injector: Option<Arc<FaultInjector>>,
    /// Tracing context. The default (disabled) context records nothing
    /// and costs near-zero.
    pub trace: obs::TraceCtx,
    /// Cooperative cancellation token, checked by every engine at
    /// row-group granularity. The default (disabled) token never trips
    /// and costs a single branch per check.
    pub cancel: obs::CancelToken,
}

impl ExecEnv {
    /// The environment the single-query benchmarks run in (nothing
    /// attached, deployment-default options) — the paper's configuration.
    pub fn seed() -> ExecEnv {
        ExecEnv::default()
    }

    /// `options` under this environment: each `Some` override wins, each
    /// `None` keeps the deployment's value. The only place overrides are
    /// applied; every engine resolves its options through it once per
    /// query.
    pub fn resolve(&self, options: ExecOptions) -> ExecOptions {
        ExecOptions {
            n_threads: self.intra_query_threads.unwrap_or(options.n_threads),
            parallel_workers: self.parallel_workers.unwrap_or(options.parallel_workers),
            zone_map_pruning: self.zone_map_pruning.unwrap_or(options.zone_map_pruning),
            ..options
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every knob away from its default, so an override that is ignored
    /// or copied from the wrong field shows.
    fn deployment() -> ExecOptions {
        ExecOptions {
            n_threads: 3,
            parallel_workers: 5,
            zone_map_pruning: false,
            compile: false,
        }
    }

    #[test]
    fn none_keeps_every_deployment_value() {
        assert_eq!(ExecEnv::seed().resolve(deployment()), deployment());
    }

    #[test]
    fn each_some_override_wins_and_touches_only_its_knob() {
        let base = deployment();
        let cases = [
            (
                ExecEnv {
                    intra_query_threads: Some(7),
                    ..ExecEnv::seed()
                },
                ExecOptions {
                    n_threads: 7,
                    ..base
                },
            ),
            (
                ExecEnv {
                    parallel_workers: Some(0),
                    ..ExecEnv::seed()
                },
                ExecOptions {
                    parallel_workers: 0,
                    ..base
                },
            ),
            (
                ExecEnv {
                    zone_map_pruning: Some(true),
                    ..ExecEnv::seed()
                },
                ExecOptions {
                    zone_map_pruning: true,
                    ..base
                },
            ),
        ];
        for (env, want) in cases {
            assert_eq!(env.resolve(base), want);
        }
    }

    #[test]
    fn all_overrides_compose() {
        let env = ExecEnv {
            intra_query_threads: Some(1),
            parallel_workers: Some(2),
            zone_map_pruning: Some(true),
            ..ExecEnv::seed()
        };
        let want = ExecOptions {
            n_threads: 1,
            parallel_workers: 2,
            zone_map_pruning: true,
            ..deployment()
        };
        assert_eq!(env.resolve(deployment()), want);
    }
}
