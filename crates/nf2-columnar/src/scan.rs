//! Scan statistics: the I/O accounting behind Figure 4b and the QaaS
//! pricing models.

use crate::cache::{ChunkCache, ChunkKey};
use crate::error::ColumnarError;
use crate::fault::FaultInjector;
use crate::project::{Projection, PushdownCapability};
use crate::rowgroup::RowGroup;
use crate::schema::LeafInfo;
use crate::select::ScalarPredicate;
use crate::table::Table;

/// Byte- and row-level accounting for one table scan.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ScanStats {
    /// Rows (events) visited.
    pub rows: u64,
    /// Leaf columns physically read.
    pub columns_read: u64,
    /// Compressed bytes physically read — Athena's pricing basis and the
    /// natural "bytes scanned" metric for self-managed engines.
    pub bytes_scanned: u64,
    /// Uncompressed bytes of the physically read columns.
    pub uncompressed_bytes: u64,
    /// BigQuery-style logical bytes of the *logically referenced* columns
    /// (every number priced at its 8-byte logical width, regardless of
    /// physical precision or compression) — paper §4.1.
    pub logical_bytes: u64,
    /// Ideal compressed bytes: what a perfect reader (individual-leaf
    /// pushdown) would have read. Figure 4b's first ideal line.
    pub ideal_compressed_bytes: u64,
    /// Ideal uncompressed bytes: entries × physical width of the logically
    /// needed leaves. Figure 4b's second ideal line.
    pub ideal_uncompressed_bytes: u64,
    /// Of `bytes_scanned`, how many were served by the buffer pool
    /// ([`crate::cache::ChunkCache`]) instead of storage. Billing metrics
    /// (`bytes_scanned`, `logical_bytes`) are *not* reduced by pool hits —
    /// QaaS providers bill the logical scan regardless of where the bytes
    /// came from — so `bytes_from_cache` is a separate, subtractive view:
    /// physical reads = `bytes_scanned - bytes_from_cache`. Zero when no
    /// cache is attached, keeping the cache-off path byte-identical.
    pub bytes_from_cache: u64,
    /// Buffer-pool chunk hits during this scan.
    pub cache_hits: u64,
    /// Buffer-pool chunk misses (storage reads) during this scan.
    pub cache_misses: u64,
    /// Buffer-pool evictions this scan's admissions caused.
    pub cache_evictions: u64,
    /// Row groups skipped by zone-map pruning before any byte was read.
    pub groups_pruned: u64,
    /// Compressed bytes the pruned groups would have cost under the same
    /// projection. Pruned groups contribute to *no* other counter (no
    /// rows, no billing bytes — Athena-style engines do not charge for
    /// skipped groups), so `bytes_scanned + bytes_pruned` with pruning on
    /// equals `bytes_scanned` with pruning off. That conservation law is
    /// what the invariant tests pin across worker counts.
    pub bytes_pruned: u64,
}

impl ScanStats {
    /// Accumulates another scan's stats (e.g. across row groups or
    /// sub-queries).
    pub fn merge(&mut self, other: &ScanStats) {
        self.rows += other.rows;
        self.columns_read += other.columns_read;
        self.bytes_scanned += other.bytes_scanned;
        self.uncompressed_bytes += other.uncompressed_bytes;
        self.logical_bytes += other.logical_bytes;
        self.ideal_compressed_bytes += other.ideal_compressed_bytes;
        self.ideal_uncompressed_bytes += other.ideal_uncompressed_bytes;
        self.bytes_from_cache += other.bytes_from_cache;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.cache_evictions += other.cache_evictions;
        self.groups_pruned += other.groups_pruned;
        self.bytes_pruned += other.bytes_pruned;
    }

    /// Bytes physically read from storage: `bytes_scanned` minus the part
    /// the buffer pool served.
    pub fn bytes_from_storage(&self) -> u64 {
        self.bytes_scanned - self.bytes_from_cache
    }

    /// Bytes scanned per row — the y-axis of Figure 4b.
    pub fn bytes_per_row(&self) -> f64 {
        if self.rows == 0 {
            0.0
        } else {
            self.bytes_scanned as f64 / self.rows as f64
        }
    }
}

/// A buffer pool attached to a scan: the cache plus the owning table's
/// fingerprint (which scopes the cache keys).
#[derive(Clone, Copy)]
pub struct ScanCache<'c> {
    /// The shared chunk cache.
    pub cache: &'c ChunkCache,
    /// [`Table::fingerprint`] of the table being scanned.
    pub table_fingerprint: u64,
}

/// A fault injector attached to a scan: the injector plus the identity of
/// the table being scanned (the injector's decisions are keyed on the
/// fingerprint; the name is carried for error context).
#[derive(Clone, Copy)]
pub struct ScanFaults<'f> {
    /// The shared chaos-layer injector.
    pub injector: &'f FaultInjector,
    /// Name of the table being scanned (error context).
    pub table_name: &'f str,
    /// [`Table::fingerprint`] of the table being scanned.
    pub table_fingerprint: u64,
}

impl<'f> ScanFaults<'f> {
    /// Attaches `injector` to scans of `table`.
    pub fn new(injector: &'f FaultInjector, table: &'f Table) -> ScanFaults<'f> {
        ScanFaults {
            injector,
            table_name: table.name(),
            table_fingerprint: table.fingerprint(),
        }
    }

    /// Probes every given leaf chunk of one row group through the
    /// injector — the **morsel-level fault surface**. A parallel executor
    /// re-reading a row group as a morsel calls this with the plan's read
    /// set; because injector decisions are pure functions of
    /// `(fingerprint, group, leaf)`, the fault schedule is identical to
    /// the serial scan pre-pass probing the same coordinates, which is
    /// what lets morsel-level recovery replay the exact faults the
    /// whole-query path would have seen. Panic faults unwind out of the
    /// probe, like a panicking decode kernel would.
    pub fn probe_group(
        &self,
        group_idx: u32,
        leaves: &[nested_value::Path],
    ) -> Result<(), crate::fault::ScanError> {
        for leaf in leaves {
            self.injector.on_chunk_read(
                self.table_name,
                self.table_fingerprint,
                group_idx,
                leaf,
            )?;
        }
        Ok(())
    }
}

/// Accounts one row group's scan into `stats`, routing each physically
/// read chunk through the buffer pool when one is attached and through the
/// fault injector when one is attached.
///
/// This is the single accounting primitive every engine uses (via
/// [`ScanRequest`]), so billing bytes are computed identically
/// with and without a cache; only the `cache_*`/`bytes_from_cache` fields
/// differ. A faulted chunk read aborts the group's cache admissions and
/// surfaces as [`ColumnarError::Fault`]; with `faults: None` the function
/// is infallible in practice.
pub fn account_group_scan(
    stats: &mut ScanStats,
    group: &RowGroup,
    group_idx: usize,
    read_leaves: &[&LeafInfo],
    logical_leaves: &[&LeafInfo],
    cache: Option<ScanCache<'_>>,
    faults: Option<ScanFaults<'_>>,
) -> Result<(), ColumnarError> {
    stats.rows += group.n_rows() as u64;
    stats.bytes_scanned += group.compressed_bytes(read_leaves) as u64;
    stats.uncompressed_bytes += group.uncompressed_bytes(read_leaves) as u64;
    stats.logical_bytes += group.logical_bytes(logical_leaves) as u64;
    stats.ideal_compressed_bytes += group.compressed_bytes(logical_leaves) as u64;
    stats.ideal_uncompressed_bytes += group.uncompressed_bytes(logical_leaves) as u64;
    if cache.is_none() && faults.is_none() {
        return Ok(());
    }
    for leaf in read_leaves {
        if let Some(fi) = faults {
            fi.injector.on_chunk_read(
                fi.table_name,
                fi.table_fingerprint,
                group_idx as u32,
                &leaf.path,
            )?;
        }
        let Some(sc) = cache else { continue };
        let Ok(chunk) = group.column(&leaf.path) else {
            continue;
        };
        let key = ChunkKey {
            table: sc.table_fingerprint,
            group: group_idx as u32,
            leaf: leaf.path.clone(),
        };
        // Chunks are in-memory already; "loading" is sharing a clone of
        // the sealed chunk, which stands in for the storage read.
        let admission = sc.cache.admit(&key, || std::sync::Arc::new(chunk.clone()));
        if admission.hit {
            stats.cache_hits += 1;
            stats.bytes_from_cache += chunk.compressed_bytes as u64;
        } else {
            stats.cache_misses += 1;
            stats.cache_evictions += admission.evicted;
        }
    }
    Ok(())
}

/// Accounts one *pruned* row group into `stats`: the group was proven
/// empty by its zone maps and skipped before decode, so it contributes
/// only `groups_pruned` and `bytes_pruned` — no rows, no billed bytes,
/// no cache or fault-injector traffic (the bytes were never read).
pub fn account_group_pruned(stats: &mut ScanStats, group: &RowGroup, read_leaves: &[&LeafInfo]) {
    stats.groups_pruned += 1;
    stats.bytes_pruned += group.compressed_bytes(read_leaves) as u64;
}

/// The outcome of a [`ScanRequest`]: scan statistics plus the pruning
/// decision, so the caller can drive its execution loop off the same mask
/// the billing used.
#[derive(Clone, Debug, PartialEq)]
pub struct ScanRun {
    /// Byte/row accounting of the scan.
    pub stats: ScanStats,
    /// Per-row-group skip mask (`true` = pruned), present iff
    /// [`ScanRequest::prune`] was supplied. Execution must skip exactly
    /// these groups or billing and results disagree.
    pub skip: Option<Vec<bool>>,
}

/// A table scan, declaratively configured.
///
/// This is the single entry point for scan accounting (the former
/// `scan_stats*` free-function family is gone; every caller builds a
/// request).
///
/// ```
/// # use nf2_columnar::project::{Projection, PushdownCapability};
/// # use nf2_columnar::scan::ScanRequest;
/// # use nf2_columnar::schema::{DataType, Field, Schema};
/// # use nf2_columnar::table::TableBuilder;
/// # use nested_value::Value;
/// # let schema = Schema::new(vec![Field::new("x", DataType::f64())]).unwrap();
/// # let mut b = TableBuilder::new("t", schema, 64);
/// # b.append(&Value::struct_from(vec![("x", Value::Float(1.0))])).unwrap();
/// # let table = b.finish();
/// let projection = Projection::of(["x"]);
/// let run = ScanRequest::new(&table, &projection)
///     .capability(PushdownCapability::IndividualLeaves)
///     .run()
///     .unwrap();
/// assert_eq!(run.stats.rows, 1);
/// assert!(run.skip.is_none()); // no predicates, no pruning pass
/// ```
///
/// Optional attachments compose freely: a buffer pool ([`Self::cache`]),
/// a fault injector ([`Self::faults`]), a tracing context
/// ([`Self::trace`]), a cooperative cancel token ([`Self::cancel`]), and
/// zone-map pruning predicates ([`Self::prune`]). Every attachment left
/// off keeps the scan bit-identical to the bare form.
#[derive(Clone, Copy)]
pub struct ScanRequest<'a> {
    table: &'a Table,
    projection: &'a Projection,
    capability: PushdownCapability,
    cache: Option<ScanCache<'a>>,
    faults: Option<ScanFaults<'a>>,
    trace: Option<&'a obs::TraceCtx>,
    cancel: Option<&'a obs::CancelToken>,
    prune: Option<&'a [ScalarPredicate]>,
}

impl<'a> ScanRequest<'a> {
    /// A scan of `projection` over `table` with individual-leaf pushdown
    /// and no attachments.
    pub fn new(table: &'a Table, projection: &'a Projection) -> ScanRequest<'a> {
        ScanRequest {
            table,
            projection,
            capability: PushdownCapability::IndividualLeaves,
            cache: None,
            faults: None,
            trace: None,
            cancel: None,
            prune: None,
        }
    }

    /// Sets the reader's pushdown capability (default: individual leaves).
    pub fn capability(mut self, cap: PushdownCapability) -> Self {
        self.capability = cap;
        self
    }

    /// Attaches a buffer pool in front of the physical chunk reads. With
    /// `None` the result is bit-identical to no pool (all cache counters
    /// zero).
    pub fn cache(mut self, cache: Option<ScanCache<'a>>) -> Self {
        self.cache = cache;
        self
    }

    /// Attaches a fault injector to the physical chunk reads. With `None`
    /// the scan is infallible in practice.
    pub fn faults(mut self, faults: Option<ScanFaults<'a>>) -> Self {
        self.faults = faults;
        self
    }

    /// Wraps the scan in an [`obs::Stage::Scan`] span (plus an
    /// [`obs::Stage::Prune`] child span when pruning runs). A disabled
    /// context is a no-op.
    pub fn trace(mut self, trace: &'a obs::TraceCtx) -> Self {
        self.trace = trace.is_enabled().then_some(trace);
        self
    }

    /// Attaches a cooperative cancel token, checked once per row group
    /// *before* the group is accounted: an expired deadline or explicit
    /// cancel stops the scan within one row group of work, and no bytes
    /// of the aborted group are billed.
    pub fn cancel(mut self, cancel: &'a obs::CancelToken) -> Self {
        self.cancel = Some(cancel);
        self
    }

    /// Enables zone-map pruning: row groups whose statistics prove that
    /// some predicate matches nothing are skipped before decode, billed
    /// as `bytes_pruned`, and reported in [`ScanRun::skip`]. The
    /// predicates must be a conjunction the query also applies row-wise
    /// (pruning only ever removes groups the filter would have emptied).
    pub fn prune(mut self, predicates: &'a [ScalarPredicate]) -> Self {
        self.prune = Some(predicates);
        self
    }

    /// Runs the scan.
    pub fn run(self) -> Result<ScanRun, ColumnarError> {
        let disabled_trace = obs::TraceCtx::disabled();
        let trace = self.trace.unwrap_or(&disabled_trace);
        let none_token = obs::CancelToken::none();
        let cancel = self.cancel.unwrap_or(&none_token);
        let mut span = trace.span_with(obs::Stage::Scan, || self.table.name().to_string());
        let read_leaves = self
            .projection
            .resolve(self.table.schema(), self.capability)?;
        let logical_leaves = self.projection.logical_leaves(self.table.schema())?;
        let mut stats = ScanStats {
            columns_read: read_leaves.len() as u64,
            ..ScanStats::default()
        };
        let (skip, mut prune_span) = match self.prune {
            // An empty conjunction prunes nothing: skip the zone-map pass
            // (and its span) but still report an all-false mask, so the
            // `skip.is_some() ⇔ prune() was called` contract holds.
            Some([]) => (Some(vec![false; self.table.row_groups().len()]), None),
            Some(preds) => {
                let mut ps = span
                    .ctx()
                    .span_with(obs::Stage::Prune, || self.table.name().to_string());
                let mask = crate::stats::skip_mask(self.table, preds);
                if ps.is_enabled() {
                    ps.add_rows_in(mask.len() as u64);
                    ps.add_rows_out(mask.iter().filter(|&&pruned| !pruned).count() as u64);
                }
                (Some(mask), Some(ps))
            }
            None => (None, None),
        };
        for (idx, g) in self.table.row_groups().iter().enumerate() {
            if skip.as_ref().is_some_and(|m| m[idx]) {
                account_group_pruned(&mut stats, g, &read_leaves);
                continue;
            }
            cancel.check(obs::Stage::Scan, stats.rows)?;
            account_group_scan(
                &mut stats,
                g,
                idx,
                &read_leaves,
                &logical_leaves,
                self.cache,
                self.faults,
            )?;
        }
        if let Some(ps) = prune_span.as_mut() {
            ps.add_bytes(stats.bytes_pruned);
        }
        drop(prune_span);
        if span.is_enabled() {
            span.add_rows_in(stats.rows);
            span.add_rows_out(stats.rows);
            span.add_bytes(stats.bytes_scanned);
            if stats.cache_hits > 0 || stats.cache_misses > 0 {
                span.set_label(format!(
                    "{} cache_hits={} cache_misses={}",
                    self.table.name(),
                    stats.cache_hits,
                    stats.cache_misses
                ));
            }
        }
        Ok(ScanRun { stats, skip })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{DataType, Field, Schema};
    use crate::table::TableBuilder;
    use nested_value::Value;

    fn table() -> Table {
        let schema = Schema::new(vec![
            Field::new(
                "MET",
                DataType::Struct(vec![
                    Field::new("pt", DataType::f32()),
                    Field::new("phi", DataType::f32()),
                ]),
            ),
            Field::new(
                "Jet",
                DataType::particle_list(vec![
                    Field::new("pt", DataType::f32()),
                    Field::new("eta", DataType::f32()),
                ]),
            ),
        ])
        .unwrap();
        let mut b = TableBuilder::new("t", schema, 100);
        for i in 0..100 {
            let jets = Value::array(
                (0..(i % 4))
                    .map(|j| {
                        Value::struct_from(vec![
                            ("pt", Value::Float(30.0 + j as f64)),
                            ("eta", Value::Float(0.1 * j as f64)),
                        ])
                    })
                    .collect(),
            );
            b.append(&Value::struct_from(vec![
                (
                    "MET",
                    Value::struct_from(vec![
                        ("pt", Value::Float(i as f64)),
                        ("phi", Value::Float(0.5)),
                    ]),
                ),
                ("Jet", jets),
            ]))
            .unwrap();
        }
        b.finish()
    }

    fn stats(t: &Table, p: &Projection, cap: PushdownCapability) -> ScanStats {
        ScanRequest::new(t, p).capability(cap).run().unwrap().stats
    }

    #[test]
    fn pushdown_reduces_bytes() {
        let t = table();
        let p = Projection::of(["MET.pt"]);
        let ideal = stats(&t, &p, PushdownCapability::IndividualLeaves);
        let coarse = stats(&t, &p, PushdownCapability::WholeStructs);
        let none = stats(&t, &p, PushdownCapability::None);
        assert!(ideal.bytes_scanned < coarse.bytes_scanned);
        assert!(coarse.bytes_scanned < none.bytes_scanned);
        assert_eq!(ideal.columns_read, 1);
        assert_eq!(coarse.columns_read, 2); // MET.pt + MET.phi
        assert_eq!(none.columns_read, 4);
        // Ideal bytes are capability-independent.
        assert_eq!(ideal.ideal_compressed_bytes, none.ideal_compressed_bytes);
    }

    #[test]
    fn logical_bytes_use_8_byte_floats() {
        let t = table();
        let p = Projection::of(["MET.pt"]);
        let s = stats(&t, &p, PushdownCapability::IndividualLeaves);
        // 100 entries × 8 B logical vs 4 B physical.
        assert_eq!(s.logical_bytes, 800);
        assert_eq!(s.ideal_uncompressed_bytes, 400);
        assert_eq!(s.rows, 100);
    }

    #[test]
    fn tripped_token_aborts_scan_before_first_group() {
        let t = table();
        let p = Projection::of(["MET.pt"]);
        let token = obs::CancelToken::new();
        token.cancel();
        let err = ScanRequest::new(&t, &p).cancel(&token).run().unwrap_err();
        let c = err.cancelled().copied().expect("typed cancellation");
        assert_eq!(c.stage, obs::Stage::Scan);
        assert_eq!(c.rows_processed, 0);
        assert_eq!(c.reason, obs::CancelReason::Explicit);
    }

    #[test]
    fn disabled_token_scan_is_byte_identical() {
        let t = table();
        let p = Projection::of(["MET.pt"]);
        let plain = stats(&t, &p, PushdownCapability::IndividualLeaves);
        let guarded = ScanRequest::new(&t, &p)
            .trace(&obs::TraceCtx::default())
            .cancel(&obs::CancelToken::none())
            .run()
            .unwrap();
        assert_eq!(plain, guarded.stats);
        assert!(guarded.skip.is_none());
    }

    #[test]
    fn merge_accumulates() {
        let t = table();
        let p = Projection::of(["MET.pt"]);
        let s = stats(&t, &p, PushdownCapability::IndividualLeaves);
        let mut twice = s;
        twice.merge(&s);
        assert_eq!(twice.rows, 200);
        assert_eq!(twice.bytes_scanned, 2 * s.bytes_scanned);
        assert!((s.bytes_per_row() - s.bytes_scanned as f64 / 100.0).abs() < 1e-12);
    }

    #[test]
    fn pruning_conserves_bytes_and_skips_groups() {
        use crate::select::{ScalarPredicate, SelCmp, SelValue};
        let t = table(); // MET.pt = row index 0..100, groups of 100 rows? (row_group=100 → 1 group)
        let p = Projection::of(["MET.pt"]);
        let off = stats(&t, &p, PushdownCapability::IndividualLeaves);
        // MET.pt ∈ [0, 99]: a cut above the max prunes the (single) group.
        let preds = vec![ScalarPredicate {
            leaf: nested_value::Path::parse("MET.pt"),
            cmp: SelCmp::Gt,
            value: SelValue::Float(1000.0),
        }];
        let on = ScanRequest::new(&t, &p).prune(&preds).run().unwrap();
        assert_eq!(on.skip.as_deref(), Some(&[true][..]));
        assert_eq!(on.stats.groups_pruned, 1);
        assert_eq!(on.stats.rows, 0);
        assert_eq!(on.stats.bytes_scanned, 0);
        assert_eq!(
            on.stats.bytes_scanned + on.stats.bytes_pruned,
            off.bytes_scanned,
            "pruned bytes + scanned bytes must equal the unpruned scan"
        );
        // A satisfiable cut keeps the group and prunes nothing.
        let sat = vec![ScalarPredicate {
            leaf: nested_value::Path::parse("MET.pt"),
            cmp: SelCmp::Ge,
            value: SelValue::Float(50.0),
        }];
        let kept = ScanRequest::new(&t, &p).prune(&sat).run().unwrap();
        assert_eq!(kept.skip.as_deref(), Some(&[false][..]));
        assert_eq!(kept.stats, off, "unpruned scan must be byte-identical");
    }

    #[test]
    fn prune_span_is_recorded_under_scan() {
        use crate::select::{ScalarPredicate, SelCmp, SelValue};
        let t = table();
        let p = Projection::of(["MET.pt"]);
        let preds = vec![ScalarPredicate {
            leaf: nested_value::Path::parse("MET.pt"),
            cmp: SelCmp::Lt,
            value: SelValue::Float(-1.0),
        }];
        let trace = obs::TraceCtx::enabled();
        ScanRequest::new(&t, &p)
            .trace(&trace)
            .prune(&preds)
            .run()
            .unwrap();
        let tree = trace.take_tree();
        let spans = tree.flatten();
        let prune = spans
            .iter()
            .find(|s| s.stage == obs::Stage::Prune)
            .expect("prune span recorded");
        assert_eq!(prune.rows_in, 1); // one row group considered
        assert_eq!(prune.rows_out, 0); // none kept
        assert!(prune.bytes > 0); // pruned bytes attributed to the span
        let scan = spans
            .iter()
            .find(|s| s.stage == obs::Stage::Scan)
            .expect("scan span recorded");
        assert_eq!(prune.parent, Some(scan.id));
    }
}

/// Typed outcome counters of morsel-level fault recovery in a parallel
/// executor (see `exec-par`). Every non-skipped morsel contributes to
/// `ok` exactly once — recovery changes *which attempt* produced the
/// winning partial, never how many partials exist — so `ok` equals the
/// morsel count whenever the run succeeded, and the remaining counters
/// record the recovery work it took to get there. All zero on the serial
/// path and whenever recovery is disabled, keeping [`ExecStats`]
/// byte-identical to the pre-recovery engines by default.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MorselRecovery {
    /// Morsels whose winning partial was produced (first try or after
    /// recovery) — exactly the non-skipped row-group count on success.
    pub ok: u64,
    /// In-place re-executions of a morsel after a retryable fault.
    pub retried: u64,
    /// Speculative re-executions launched against straggler morsels.
    pub respeculated: u64,
    /// Morsels moved from a dead worker's deque to the shared retry
    /// queue (plus the panicked morsel itself when its owner retired).
    pub reassigned: u64,
    /// Morsels quarantined after a panicking kernel (re-run elsewhere
    /// instead of poisoning the pool).
    pub quarantined: u64,
    /// Workers retired after exhausting their panic budget.
    pub workers_lost: u64,
}

impl MorselRecovery {
    /// Accumulates another run's counters.
    pub fn merge(&mut self, other: &MorselRecovery) {
        self.ok += other.ok;
        self.retried += other.retried;
        self.respeculated += other.respeculated;
        self.reassigned += other.reassigned;
        self.quarantined += other.quarantined;
        self.workers_lost += other.workers_lost;
    }

    /// Total recovery interventions (everything except `ok`).
    pub fn interventions(&self) -> u64 {
        self.retried + self.respeculated + self.reassigned + self.quarantined + self.workers_lost
    }
}

/// Engine-level execution accounting shared by all engines in the
/// workspace (placed here because every engine executes over this
/// substrate and `core` compares them uniformly).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ExecStats {
    /// End-to-end wall-clock seconds of the run.
    pub wall_seconds: f64,
    /// Total busy CPU seconds summed over workers (the paper's Figure 4a
    /// metric: "seconds any logical core spends doing work").
    pub cpu_seconds: f64,
    /// I/O accounting of the scan.
    pub scan: ScanStats,
    /// Number of worker threads that participated.
    pub threads_used: usize,
    /// Row groups skipped by zone-map (min/max) pruning before any byte
    /// was read.
    pub row_groups_skipped: u64,
    /// Morsel-level fault-recovery outcomes (all zero unless the
    /// compiled-parallel path ran with recovery enabled).
    pub recovery: MorselRecovery,
}
