//! Scan statistics: the I/O accounting behind Figure 4b and the QaaS
//! pricing models.

use crate::cache::{ChunkCache, ChunkKey};
use crate::error::ColumnarError;
use crate::fault::{FaultInjector, ScanError};
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

/// Retries a transient chunk read gets before its fault fails the scan.
/// Counted per chunk, so a query converges in one run however many of
/// its chunks fault: a storage read is retried below the query, as the
/// QaaS backends do. Not an option.
pub const READ_RETRIES: u32 = 3;

/// A fault injector attached to one scan: the injector, the identity of
/// the scanned table (the injector's decisions are keyed on the
/// fingerprint; the name is carried for error context), the scan
/// span's context, under which every re-read records a
/// [`obs::Stage::Recovery`] span, and the scan's cancel token, observed
/// before every chunk read.
struct ScanFaults<'f> {
    injector: &'f FaultInjector,
    table_name: &'f str,
    table_fingerprint: u64,
    trace: obs::TraceCtx,
    cancel: &'f obs::CancelToken,
}

impl ScanFaults<'_> {
    /// One physical chunk read. A retryable fault
    /// ([`crate::FaultClass::retryable`]) is re-read in place up to
    /// [`READ_RETRIES`] times; any other fault, or one that outlives the
    /// budget, is returned. Returns the re-reads it took.
    fn read(&self, group: u32, leaf: &nested_value::Path) -> Result<u64, ScanError> {
        let mut retried = 0;
        loop {
            let read =
                self.injector
                    .on_chunk_read(self.table_name, self.table_fingerprint, group, leaf);
            match read {
                Ok(()) => return Ok(retried),
                Err(e) if e.class.retryable() && retried < u64::from(READ_RETRIES) => {
                    retried += 1;
                    let label =
                        || format!("re-read group {group} leaf {leaf} after {}", e.class.name());
                    self.trace.span_with(obs::Stage::Recovery, label).finish();
                }
                Err(e) => return Err(e),
            }
        }
    }
}

/// Accounts one row group's scan into `stats`, routing each physically
/// read chunk through the buffer pool when one is attached and through the
/// fault injector when one is attached.
///
/// This is the single accounting primitive every engine uses (via
/// [`ScanRequest`]), so billing bytes are computed identically
/// with and without a cache; only the `cache_*`/`bytes_from_cache` fields
/// differ. A transient chunk fault is retried here, where the read
/// happens ([`READ_RETRIES`] per chunk), and re-reads add no bytes; a
/// fault that outlives the budget aborts the group's cache admissions and
/// surfaces as [`ColumnarError::Fault`]. An injected read can be slow,
/// so the scan's cancel token is observed before each chunk read: a
/// deadline stops a wide group partway through instead of after all of
/// its reads. Returns the re-reads the group took; with `faults: None`
/// the function is infallible in practice.
fn account_group_scan(
    stats: &mut ScanStats,
    group: &RowGroup,
    group_idx: usize,
    read_leaves: &[&LeafInfo],
    logical_leaves: &[&LeafInfo],
    cache: Option<ScanCache<'_>>,
    faults: Option<&ScanFaults<'_>>,
) -> Result<u64, ColumnarError> {
    let rows_done = stats.rows;
    stats.rows += group.n_rows() as u64;
    stats.bytes_scanned += group.compressed_bytes(read_leaves) as u64;
    stats.uncompressed_bytes += group.uncompressed_bytes(read_leaves) as u64;
    stats.logical_bytes += group.logical_bytes(logical_leaves) as u64;
    stats.ideal_compressed_bytes += group.compressed_bytes(logical_leaves) as u64;
    stats.ideal_uncompressed_bytes += group.uncompressed_bytes(logical_leaves) as u64;
    if cache.is_none() && faults.is_none() {
        return Ok(0);
    }
    let mut retried = 0;
    for leaf in read_leaves {
        if let Some(f) = faults {
            f.cancel.check(obs::Stage::Scan, rows_done)?;
            retried += f.read(group_idx as u32, &leaf.path)?;
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
    Ok(retried)
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
    /// Chunk reads retried after a transient fault (see
    /// [`READ_RETRIES`]); zero without a fault injector.
    pub reads_retried: u64,
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
    faults: Option<&'a FaultInjector>,
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

    /// Attaches a fault injector to the physical chunk reads; a transient
    /// fault is retried per chunk ([`READ_RETRIES`]). With `None` the
    /// scan is infallible in practice.
    pub fn faults(mut self, faults: Option<&'a FaultInjector>) -> Self {
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
    /// *before* the group is accounted, and, with a fault injector
    /// attached, before every chunk read: an expired deadline or explicit
    /// cancel stops the scan within one row group of work (within one
    /// read under injected latency), and no bytes of the aborted group
    /// are billed.
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
        let faults = self.faults.map(|injector| ScanFaults {
            injector,
            table_name: self.table.name(),
            table_fingerprint: self.table.fingerprint(),
            trace: span.ctx(),
            cancel,
        });
        let mut reads_retried = 0;
        for (idx, g) in self.table.row_groups().iter().enumerate() {
            if skip.as_ref().is_some_and(|m| m[idx]) {
                account_group_pruned(&mut stats, g, &read_leaves);
                continue;
            }
            cancel.check(obs::Stage::Scan, stats.rows)?;
            reads_retried += account_group_scan(
                &mut stats,
                g,
                idx,
                &read_leaves,
                &logical_leaves,
                self.cache,
                faults.as_ref(),
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
        Ok(ScanRun {
            stats,
            skip,
            reads_retried,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultClass, FaultConfig};
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
    fn deadline_stops_a_slow_group_between_chunk_reads() {
        let t = table();
        let p = Projection::of(["MET.pt"]);
        let injector = FaultInjector::new(FaultConfig {
            latency: std::time::Duration::from_millis(50),
            ..FaultConfig::only(FaultClass::Latency, 1.0, 7)
        });
        let token = obs::CancelToken::with_deadline(
            std::time::Instant::now() + std::time::Duration::from_millis(20),
        );
        // One row group, four chunk reads of 50 ms each: the deadline
        // passes during the first read and must stop the second.
        let err = ScanRequest::new(&t, &p)
            .capability(PushdownCapability::None)
            .faults(Some(&injector))
            .cancel(&token)
            .run()
            .unwrap_err();
        let c = err.cancelled().copied().expect("typed cancellation");
        assert_eq!(c.stage, obs::Stage::Scan);
        assert_eq!(c.rows_processed, 0);
        assert_eq!(c.reason, obs::CancelReason::DeadlineExceeded);
        assert!(injector.counters().latency <= 1);
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

    fn injector(class: FaultClass, p: f64, transient_attempts: u32) -> FaultInjector {
        FaultInjector::new(FaultConfig {
            transient_attempts,
            ..FaultConfig::only(class, p, 1)
        })
    }

    #[test]
    fn transient_faults_are_re_read_in_place_and_bill_nothing_extra() {
        let t = table();
        let p = Projection::of(["MET.pt", "Jet.pt"]);
        let clean = ScanRequest::new(&t, &p).run().unwrap();
        assert_eq!(clean.reads_retried, 0);
        // Every chunk fails its first READ_RETRIES reads: the whole budget.
        let inj = injector(FaultClass::Io, 1.0, READ_RETRIES);
        let trace = obs::TraceCtx::enabled();
        let run = ScanRequest::new(&t, &p)
            .faults(Some(&inj))
            .trace(&trace)
            .run()
            .unwrap();
        assert_eq!(run.stats, clean.stats, "re-reads bill no bytes");
        let per_chunk = u64::from(READ_RETRIES);
        assert_eq!(run.reads_retried, per_chunk * run.stats.columns_read);
        assert_eq!(inj.counters().recovered, run.stats.columns_read);
        let tree = trace.take_tree();
        let spans = tree.flatten();
        let scan = spans.iter().find(|s| s.stage == obs::Stage::Scan).unwrap();
        let recoveries: Vec<_> = spans
            .iter()
            .filter(|s| s.stage == obs::Stage::Recovery)
            .collect();
        assert_eq!(recoveries.len() as u64, run.reads_retried);
        assert!(recoveries.iter().all(|s| s.parent == Some(scan.id)));
    }

    #[test]
    fn faults_past_the_budget_or_not_retryable_fail_typed() {
        let t = table();
        let p = Projection::of(["MET.pt"]);
        for (class, transient_attempts, reads) in [
            (FaultClass::Io, READ_RETRIES + 1, READ_RETRIES + 1),
            (FaultClass::ChecksumMismatch, 0, READ_RETRIES + 1),
            (FaultClass::Panic, 0, 1),
        ] {
            let inj = injector(class, 1.0, transient_attempts);
            let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                ScanRequest::new(&t, &p).faults(Some(&inj)).run()
            }));
            match (class, run) {
                (FaultClass::Panic, Err(_)) => {}
                (_, Ok(Err(e))) => {
                    let s = e.scan_error().expect("typed scan fault");
                    assert_eq!((s.class, s.attempt), (class, reads));
                }
                (_, other) => panic!("{class:?}: expected a failure, got {other:?}"),
            }
        }
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
    /// Chunk reads the scan retried after a transient fault
    /// ([`ScanRun::reads_retried`]); zero without a fault injector.
    pub reads_retried: u64,
}
