//! The shared region-counting engine.
//!
//! Every consumer of per-region class counts — hierarchy construction,
//! identification, and the remedy's per-node re-identification — used to
//! run its own O(n·p) scan over the dataset, repacking each row's
//! protected values into a `u128` key every time. This module is the one
//! counting seam (mirroring the [`NeighborModel`] seam on the neighbor
//! side): rows are packed **once** into an SoA key column by
//! `pack_keys`, all lattice-node counts are built from it in a single
//! parallel pass, and a [`RegionIndex`] keeps those counts *incrementally*
//! correct as the remedy edits the dataset — each append, removal, or
//! label flip becomes an O(nodes) delta update instead of a fresh scan.
//!
//! Determinism contract: everything here is bit-identical to the
//! single-threaded scans it replaces, regardless of thread count. Keys
//! are written position-wise, per-worker tallies are merged in chunk
//! order (so row buckets stay in ascending row order), counts are exact
//! `u64` sums (reassociation-safe), and count entries that reach
//! `(0, 0)` are evicted so a maintained map always equals a from-scratch
//! rebuild.
//!
//! Row/slot correspondence: the dataset only ever appends at the end and
//! removes rows preserving relative order, so the index can keep an
//! append-only *slot* space (one slot per row ever seen) plus a Fenwick
//! tree over the alive bits. `rank` maps a slot to its current row index
//! and `select` maps a row index back to its slot, both in O(log n).
//!
//! [`NeighborModel`]: crate::neighbor_model::NeighborModel

use crate::error::{validate_columns, CoreError, MAX_PROTECTED_SPARSE};
use crate::hash::FastMap;
use crate::hierarchy::{Hierarchy, MAX_PROTECTED};
use crate::score::Counts;
use crate::sparse::{KeyCodec, SparseHierarchy};
use remedy_dataset::{Dataset, PackedKeys, RowEdit};
use remedy_obs::Scope as ObsScope;

/// Bitmask with the low `p` bits set — the full-lattice node mask. Total
/// for the whole supported range `1..=32`, where the idiomatic
/// `(1u32 << p) - 1` overflows the shift at `p = 32`.
pub(crate) fn full_mask_of(p: usize) -> u32 {
    debug_assert!((1..=32).contains(&p));
    u32::MAX >> (32 - p)
}

/// Smallest per-worker chunk worth spawning a thread for; below this the
/// scan runs single-threaded (identical results either way).
const MIN_CHUNK: usize = 8 * 1024;

/// `[start, end)` row ranges splitting `n` rows across at most
/// `threads` workers (`0` means "all available cores"), each at least
/// [`MIN_CHUNK`] long. The chunk count never changes results —
/// per-worker tallies are merged in chunk order, so every cap is
/// bit-identical.
fn chunk_bounds_capped(n: usize, threads: usize) -> Vec<(usize, usize)> {
    let avail = std::thread::available_parallelism()
        .map(|t| t.get())
        .unwrap_or(1);
    let threads = if threads == 0 {
        avail
    } else {
        threads.min(avail)
    };
    let chunks = threads.min(n.div_ceil(MIN_CHUNK)).max(1);
    let per = n.div_ceil(chunks).max(1);
    (0..chunks)
        .map(|c| (c * per, ((c + 1) * per).min(n)))
        .filter(|&(a, b)| a < b)
        .collect()
}

/// Packs each row's values over `cols` into a `u128` key at the codec's
/// per-column bit offsets (8 bits per column on every dense path),
/// written position-wise into `out` (`out.len()` must equal the dataset
/// length). This is the **only** key-packing loop in the crate; hierarchy
/// construction, the remedy's scan fallback, the sparse enumeration, and
/// the [`RegionIndex`] all call it. Column count and cardinalities are
/// validated by every entry point (see [`crate::error::validate_columns`])
/// before keys are packed, so the layout can never silently truncate a
/// code in release builds.
pub(crate) fn pack_keys(data: &Dataset, cols: &[usize], codec: &KeyCodec, out: &mut [u128]) {
    pack_keys_capped(data, cols, codec, out, 0)
}

/// [`pack_keys`] under an explicit worker-thread cap (`0` = all cores).
pub(crate) fn pack_keys_capped(
    data: &Dataset,
    cols: &[usize],
    codec: &KeyCodec,
    out: &mut [u128],
    threads: usize,
) {
    debug_assert_eq!(out.len(), data.len());
    debug_assert_eq!(cols.len(), codec.arity());
    let col_slices: Vec<&[u32]> = cols.iter().map(|&c| data.column(c)).collect();
    let bounds = chunk_bounds_capped(out.len(), threads);
    if bounds.len() <= 1 {
        pack_chunk(&col_slices, codec, 0, out);
        return;
    }
    std::thread::scope(|scope| {
        let mut rest = &mut *out;
        for &(a, b) in &bounds {
            let (chunk, tail) = rest.split_at_mut(b - a);
            rest = tail;
            let cols = &col_slices;
            scope.spawn(move || pack_chunk(cols, codec, a, chunk));
        }
    });
}

fn pack_chunk(cols: &[&[u32]], codec: &KeyCodec, start: usize, out: &mut [u128]) {
    for (i, slot) in out.iter_mut().enumerate() {
        let row = start + i;
        let mut key = 0u128;
        for (s, col) in cols.iter().enumerate() {
            key |= u128::from(col[row]) << codec.offset(s);
        }
        *slot = key;
    }
}

/// Result of one parallel leaf pass over a packed key column.
pub(crate) struct LeafScan {
    /// Full key → class counts.
    pub counts: FastMap<u128, Counts>,
    /// Full key → ascending slot list (empty unless requested).
    pub buckets: FastMap<u128, Vec<u32>>,
    /// Whole-dataset counts.
    pub totals: Counts,
}

/// Tallies leaf counts (and optionally row buckets) from the packed key
/// column in one parallel pass; per-worker maps are merged in chunk
/// order, so bucket slot lists come out ascending.
pub(crate) fn leaf_scan(keys: &[u128], labels: &[u8], with_buckets: bool) -> LeafScan {
    leaf_scan_capped(keys, labels, with_buckets, 0)
}

/// [`leaf_scan`] under an explicit worker-thread cap (`0` = all cores).
pub(crate) fn leaf_scan_capped(
    keys: &[u128],
    labels: &[u8],
    with_buckets: bool,
    threads: usize,
) -> LeafScan {
    debug_assert_eq!(keys.len(), labels.len());
    let bounds = chunk_bounds_capped(keys.len(), threads);
    let mut parts: Vec<LeafScan> = if bounds.len() <= 1 {
        vec![scan_chunk(keys, labels, 0, keys.len(), with_buckets)]
    } else {
        std::thread::scope(|scope| {
            let handles: Vec<_> = bounds
                .iter()
                .map(|&(a, b)| scope.spawn(move || scan_chunk(keys, labels, a, b, with_buckets)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("leaf-scan worker"))
                .collect()
        })
    };
    let mut out = parts.remove(0);
    for part in parts {
        out.totals.add(part.totals);
        for (key, c) in part.counts {
            out.counts.entry(key).or_default().add(c);
        }
        for (key, slots) in part.buckets {
            out.buckets
                .entry(key)
                .or_default()
                .extend_from_slice(&slots);
        }
    }
    out
}

fn scan_chunk(keys: &[u128], labels: &[u8], a: usize, b: usize, with_buckets: bool) -> LeafScan {
    let mut counts: FastMap<u128, Counts> = FastMap::default();
    let mut buckets: FastMap<u128, Vec<u32>> = FastMap::default();
    let mut totals = Counts::default();
    for i in a..b {
        let key = keys[i];
        let c = counts.entry(key).or_default();
        if labels[i] == 1 {
            c.pos += 1;
            totals.pos += 1;
        } else {
            c.neg += 1;
            totals.neg += 1;
        }
        if with_buckets {
            buckets.entry(key).or_default().push(i as u32);
        }
    }
    LeafScan {
        counts,
        buckets,
        totals,
    }
}

/// Per-region class counts over one attribute subset of the *current*
/// dataset — the scan-path primitive behind [`crate::hierarchy::node_counts`].
pub(crate) fn node_counts(data: &Dataset, cols: &[usize]) -> FastMap<u128, Counts> {
    let mut keys = vec![0u128; data.len()];
    pack_keys(data, cols, &KeyCodec::bytes(cols.len()), &mut keys);
    leaf_scan(&keys, data.labels(), false).counts
}

/// Counts **and** ascending row buckets over one attribute subset — the
/// remedy's reference scan path.
pub(crate) fn node_snapshot(
    data: &Dataset,
    cols: &[usize],
) -> (FastMap<u128, Counts>, FastMap<u128, Vec<usize>>) {
    let mut keys = vec![0u128; data.len()];
    pack_keys(data, cols, &KeyCodec::bytes(cols.len()), &mut keys);
    let scan = leaf_scan(&keys, data.labels(), true);
    let rows = scan
        .buckets
        .into_iter()
        .map(|(k, v)| (k, v.into_iter().map(|s| s as usize).collect()))
        .collect();
    (scan.counts, rows)
}

/// Leaf-level region counts of one dataset, from a single scan of its
/// packed protected keys — the counting layer beneath both lattice
/// builders, exposed so it can be timed (and reused) on its own.
///
/// The counts are **unpruned**: support pruning happens inside
/// [`ShardCounts::into_sparse`], and [`ShardCounts::into_hierarchy`]
/// assembles the dense lattice, each identical to building it straight
/// from the dataset.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardCounts {
    protected: Vec<usize>,
    cards: Vec<u32>,
    ordered: Vec<bool>,
    leaves: FastMap<u128, Counts>,
    totals: Counts,
}

impl ShardCounts {
    /// Scans `data` over its schema-declared protected columns with at
    /// most `threads` worker threads (`0` = all cores).
    pub fn scan(data: &Dataset, threads: usize) -> Result<ShardCounts, CoreError> {
        let protected = data.schema().protected_indices();
        validate_columns(data, &protected, MAX_PROTECTED_SPARSE)?;
        let codec = codec_for(data, &protected)?;
        let mut keys = vec![0u128; data.len()];
        pack_keys_capped(data, &protected, &codec, &mut keys, threads);
        ShardCounts::from_keys(data, &protected, &keys, threads)
    }

    /// Scans `data` from a persisted packed-key sidecar (the
    /// `remedy-columnar v1` layout), skipping the packing pass. The
    /// sidecar is validated against the layout this scan would pack —
    /// row count, column set, and slot widths — and rejected with
    /// [`CoreError::PackedLayoutMismatch`] on any disagreement.
    pub fn scan_packed(
        data: &Dataset,
        packed: &PackedKeys,
        threads: usize,
    ) -> Result<ShardCounts, CoreError> {
        let protected = data.schema().protected_indices();
        validate_columns(data, &protected, MAX_PROTECTED_SPARSE)?;
        let mismatch = |detail: String| CoreError::PackedLayoutMismatch { detail };
        if packed.keys.len() != data.len() {
            return Err(mismatch(format!(
                "{} persisted keys for {} rows",
                packed.keys.len(),
                data.len()
            )));
        }
        let cols: Vec<usize> = packed.cols.iter().map(|&c| c as usize).collect();
        if cols != protected {
            return Err(mismatch(format!(
                "persisted columns {cols:?} != protected columns {protected:?}"
            )));
        }
        let codec = codec_for(data, &protected)?;
        if codec.widths() != packed.widths {
            return Err(mismatch(format!(
                "persisted slot widths {:?} != expected {:?}",
                packed.widths,
                codec.widths()
            )));
        }
        ShardCounts::from_keys(data, &protected, &packed.keys, threads)
    }

    fn from_keys(
        data: &Dataset,
        protected: &[usize],
        keys: &[u128],
        threads: usize,
    ) -> Result<ShardCounts, CoreError> {
        let scan = leaf_scan_capped(keys, data.labels(), false, threads);
        Ok(ShardCounts {
            protected: protected.to_vec(),
            cards: protected
                .iter()
                .map(|&a| data.schema().attribute(a).cardinality() as u32)
                .collect(),
            ordered: protected
                .iter()
                .map(|&a| data.schema().attribute(a).is_ordered())
                .collect(),
            leaves: scan.counts,
            totals: scan.totals,
        })
    }

    /// Assembles the dense lattice from the counted leaves — identical
    /// to [`Hierarchy::try_build_over`] on the scanned dataset. Fails with [`CoreError::DenseUnavailable`] past
    /// [`MAX_PROTECTED`] attributes.
    pub fn into_hierarchy(self) -> Result<Hierarchy, CoreError> {
        let p = self.protected.len();
        if p > MAX_PROTECTED {
            return Err(CoreError::DenseUnavailable { arity: p });
        }
        // ≤ MAX_PROTECTED attributes always pack on the 8-bit layout,
        // so the accumulated leaf keys are exactly the dense keys.
        Ok(Hierarchy::from_leaf(
            self.protected,
            self.cards,
            self.ordered,
            self.leaves,
            self.totals,
        ))
    }

    /// Runs the level-wise support-pruned enumeration over the counted
    /// leaves — identical to [`SparseHierarchy::try_build_over`] on the
    /// scanned dataset.
    pub fn into_sparse(self, support: u64) -> Result<SparseHierarchy, CoreError> {
        let codec = KeyCodec::for_cards(&self.cards)?;
        SparseHierarchy::from_leaves(
            self.protected,
            self.cards.clone(),
            self.ordered,
            &codec,
            self.leaves.iter().map(|(&k, &c)| (k, c)),
            self.totals,
            support,
        )
    }

    /// Schema column indices of the protected attributes.
    pub fn protected(&self) -> &[usize] {
        &self.protected
    }

    /// Dataset-wide label counts.
    pub fn totals(&self) -> Counts {
        self.totals
    }

    /// Number of distinct leaf regions.
    pub fn len(&self) -> usize {
        self.leaves.len()
    }

    /// Whether no rows were counted.
    pub fn is_empty(&self) -> bool {
        self.leaves.is_empty()
    }
}

/// The codec every [`ShardCounts`] scan packs with: minimal widths,
/// which stays on the 8-bit dense layout while the arity allows it — so
/// one leaf map serves both [`ShardCounts::into_hierarchy`] and
/// [`ShardCounts::into_sparse`].
fn codec_for(data: &Dataset, protected: &[usize]) -> Result<KeyCodec, CoreError> {
    let cards: Vec<u32> = protected
        .iter()
        .map(|&a| data.schema().attribute(a).cardinality() as u32)
        .collect();
    KeyCodec::for_cards(&cards)
}

/// Projects a full packed key onto the attribute subset of node `mask`
/// (gathering the bytes of the set bits, compacted low-to-high).
#[inline]
fn project_key(full_key: u128, mask: u32) -> u128 {
    let mut key = 0u128;
    let mut out_slot = 0;
    let mut m = mask;
    while m != 0 {
        let j = m.trailing_zeros() as usize;
        key |= ((full_key >> (8 * j)) & 0xFF) << (8 * out_slot);
        out_slot += 1;
        m &= m - 1;
    }
    key
}

/// Fenwick tree over per-slot alive bits: `prefix`/`rank` translate a
/// slot to its current row index, `select` a row index back to its slot,
/// and `push` appends a new slot — all in O(log n).
#[derive(Debug, Clone)]
struct Fenwick {
    /// 1-based; `tree[i]` sums the alive bits of slots `(i−lowbit(i), i]`.
    tree: Vec<u32>,
}

impl Fenwick {
    /// A tree over `n` slots, all alive.
    fn ones(n: usize) -> Fenwick {
        let mut tree = vec![0u32; n + 1];
        for (i, t) in tree.iter_mut().enumerate().skip(1) {
            *t = (i & i.wrapping_neg()) as u32; // all-ones range sums
        }
        Fenwick { tree }
    }

    fn len(&self) -> usize {
        self.tree.len() - 1
    }

    /// Number of alive slots in `[0, slot]` (0-based).
    fn prefix(&self, slot: usize) -> u32 {
        let mut i = slot + 1;
        let mut sum = 0;
        while i > 0 {
            sum += self.tree[i];
            i &= i - 1;
        }
        sum
    }

    /// Adds `delta` to the alive bit of `slot`.
    fn add(&mut self, slot: usize, delta: i32) {
        let n = self.len();
        let mut i = slot + 1;
        while i <= n {
            self.tree[i] = (i64::from(self.tree[i]) + i64::from(delta)) as u32;
            i += i & i.wrapping_neg();
        }
    }

    /// Appends one slot with the given alive bit.
    fn push(&mut self, alive: bool) {
        let i = self.tree.len(); // the new slot's 1-based index
        let lowbit = i & i.wrapping_neg();
        let mut value = u32::from(alive);
        let mut j = i - 1;
        while j > i - lowbit {
            value += self.tree[j];
            j &= j - 1;
        }
        self.tree.push(value);
    }

    /// Current row index of an alive slot.
    fn rank(&self, slot: usize) -> usize {
        debug_assert!(self.prefix(slot) > 0);
        (self.prefix(slot) - 1) as usize
    }

    /// Slot of the row currently at index `row` (binary descent).
    ///
    /// # Panics
    ///
    /// On an empty tree — there is no slot to select, and the
    /// power-of-two descent seed below would shift by `usize::BITS`.
    /// (Unreachable through [`RegionIndex`]: an index with zero slots
    /// has no rows to translate, and `region_rows` on one answers from
    /// its empty buckets without ranking.)
    fn select(&self, row: usize) -> usize {
        let n = self.len();
        assert!(n > 0, "Fenwick::select on an empty tree");
        let mut pos = 0usize; // 1-based cursor over fully-skipped prefixes
        let mut rem = (row + 1) as u32;
        let mut pw = 1usize << (usize::BITS - 1 - n.leading_zeros());
        while pw > 0 {
            if pos + pw <= n && self.tree[pos + pw] < rem {
                pos += pw;
                rem -= self.tree[pos];
            }
            pw >>= 1;
        }
        pos // 0-based slot
    }
}

/// Running totals of the index's work, flushed to an [`ObsScope`] in one
/// batch (`counting.delta.*` / `counting.rebuild.*` counters). The
/// acceptance check for the incremental path is
/// `counting.rebuild.scans ≤ 1` while `counting.delta.nodes_served`
/// covers the lattice.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CountingTally {
    /// Rows appended through [`RegionIndex::apply_append`].
    pub appends: u64,
    /// Rows removed through [`RegionIndex::apply_remove`].
    pub removes: u64,
    /// Labels flipped through [`RegionIndex::apply_flip`].
    pub flips: u64,
    /// Individual node-map entry updates performed by delta maintenance.
    pub node_updates: u64,
    /// Node count maps served from the index instead of a dataset scan.
    pub nodes_served: u64,
    /// Full-dataset counting passes (1 for the initial build).
    pub rebuild_scans: u64,
    /// Rows visited by those passes.
    pub rebuild_rows: u64,
}

impl CountingTally {
    /// Emits every non-zero field as a `counting.*` counter and resets.
    pub fn flush(&mut self, obs: &ObsScope) {
        obs.add_many(&[
            ("counting.delta.appends", self.appends),
            ("counting.delta.removes", self.removes),
            ("counting.delta.flips", self.flips),
            ("counting.delta.node_updates", self.node_updates),
            ("counting.delta.nodes_served", self.nodes_served),
            ("counting.rebuild.scans", self.rebuild_scans),
            ("counting.rebuild.rows", self.rebuild_rows),
        ]);
        *self = CountingTally::default();
    }
}

/// The counting structure a [`RegionIndex`] maintains: either the full
/// dense [`Hierarchy`], or — for the support-pruned mode and for arities
/// past [`MAX_PROTECTED`] — just the leaf-level counts, from which any
/// requested lattice slice is projected on demand.
#[derive(Debug, Clone)]
enum Lattice {
    Dense(Hierarchy),
    Sparse(SparseMeta),
}

/// Sparse-mode state: the maintained leaf map plus the schema facts
/// needed to project or re-enumerate from it.
#[derive(Debug, Clone)]
struct SparseMeta {
    protected: Vec<usize>,
    cards: Vec<u32>,
    ordered: Vec<bool>,
    codec: KeyCodec,
    /// Full key → counts; delta-maintained, `(0, 0)` entries evicted.
    leaf: FastMap<u128, Counts>,
    totals: Counts,
}

/// Delta-maintained region counts over a mutating dataset.
///
/// Built once in a parallel pass, a dense index owns a full
/// [`Hierarchy`] whose node maps it keeps equal to what
/// `Hierarchy::build_over` would produce on the *current* dataset, at
/// O(2^p·p) per row edit instead of O(n·p) per node query. A sparse
/// index (the `try_build_sparse*` constructors) maintains only the leaf
/// counts — O(1) per row edit and O(distinct leaves) memory — and serves
/// lattice views by projection ([`sparse_hierarchy`]), which is what
/// lets it carry arities the dense lattice cannot. Either kind answers
/// [`region_rows`] — the current row indices of any region — from
/// per-leaf slot buckets plus the Fenwick rank translation, without
/// touching the dataset.
///
/// The index does not hold the dataset; callers mirror every mutation
/// through [`apply_edit`] (or the typed `apply_*` methods) in the same
/// order they apply it to the [`Dataset`].
///
/// [`region_rows`]: RegionIndex::region_rows
/// [`apply_edit`]: RegionIndex::apply_edit
/// [`sparse_hierarchy`]: RegionIndex::sparse_hierarchy
#[derive(Debug, Clone)]
pub struct RegionIndex {
    lattice: Lattice,
    full_mask: u32,
    /// Per-slot packed full keys (append-only; slots are never reused).
    keys: Vec<u128>,
    /// Per-slot labels, kept current under flips.
    labels: Vec<u8>,
    /// Per-slot alive bits; removals clear, never shrink.
    alive: Vec<bool>,
    /// Full key → ascending alive slots (the leaf row buckets).
    buckets: FastMap<u128, Vec<u32>>,
    fenwick: Fenwick,
    live: usize,
    tally: CountingTally,
    /// Net per-key count deltas awaiting [`flush_deltas`]; always empty
    /// in eager mode.
    ///
    /// [`flush_deltas`]: RegionIndex::flush_deltas
    pending: FastMap<u128, (i64, i64)>,
    batching: bool,
}

impl RegionIndex {
    /// Builds a dense index over the dataset's schema-declared protected
    /// attributes, panicking on invalid columns (see [`try_build`]).
    ///
    /// [`try_build`]: RegionIndex::try_build
    pub fn build(data: &Dataset) -> RegionIndex {
        RegionIndex::try_build(data).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Builds a dense index over the schema-declared protected columns.
    pub fn try_build(data: &Dataset) -> Result<RegionIndex, CoreError> {
        let protected = data.schema().protected_indices();
        RegionIndex::try_build_over(data, &protected)
    }

    /// Builds a dense index over an explicit protected-column set,
    /// panicking on invalid columns (see [`try_build_over`]).
    ///
    /// [`try_build_over`]: RegionIndex::try_build_over
    pub fn build_over(data: &Dataset, protected: &[usize]) -> RegionIndex {
        RegionIndex::try_build_over(data, protected).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Builds a dense index over an explicit protected-column set: one
    /// parallel packing pass, one parallel leaf tally, then node-to-node
    /// projection down the lattice.
    pub fn try_build_over(data: &Dataset, protected: &[usize]) -> Result<RegionIndex, CoreError> {
        RegionIndex::build_inner(data, protected, false, None)
    }

    /// Builds a sparse (leaf-only) index over the schema-declared
    /// protected columns — required past [`MAX_PROTECTED`] attributes,
    /// and sufficient for any support-pruned identify.
    pub fn try_build_sparse(data: &Dataset) -> Result<RegionIndex, CoreError> {
        let protected = data.schema().protected_indices();
        RegionIndex::try_build_sparse_over(data, &protected)
    }

    /// Builds a sparse index over an explicit protected-column set (up
    /// to [`MAX_PROTECTED_SPARSE`] columns).
    pub fn try_build_sparse_over(
        data: &Dataset,
        protected: &[usize],
    ) -> Result<RegionIndex, CoreError> {
        RegionIndex::build_inner(data, protected, true, None)
    }

    /// Dense when the arity allows it, sparse beyond — the right default
    /// for a resident session that must accept whatever schema it is
    /// handed.
    pub fn try_build_auto(data: &Dataset) -> Result<RegionIndex, CoreError> {
        let protected = data.schema().protected_indices();
        if protected.len() <= MAX_PROTECTED {
            RegionIndex::try_build_over(data, &protected)
        } else {
            RegionIndex::try_build_sparse_over(data, &protected)
        }
    }

    /// Builds an index from a persisted packed-key column (the binary
    /// store's [`PackedKeys`] sidecar), skipping the packing pass
    /// entirely — the bulk-load path for artifacts opened through
    /// `Dataset::open`. Dense or sparse is chosen by arity exactly as
    /// [`try_build_auto`] does.
    ///
    /// The persisted layout (column set and per-slot bit widths) must be
    /// the one this build would pack itself; any disagreement — stale
    /// keys after a schema change, a foreign column order, a different
    /// width rule — is rejected with [`CoreError::PackedLayoutMismatch`]
    /// instead of silently producing wrong counts.
    ///
    /// [`try_build_auto`]: RegionIndex::try_build_auto
    pub fn try_build_from_packed(
        data: &Dataset,
        packed: PackedKeys,
    ) -> Result<RegionIndex, CoreError> {
        let protected = data.schema().protected_indices();
        let sparse = protected.len() > MAX_PROTECTED;
        let max_arity = if sparse {
            MAX_PROTECTED_SPARSE
        } else {
            MAX_PROTECTED
        };
        validate_columns(data, &protected, max_arity)?;
        let mismatch = |detail: String| CoreError::PackedLayoutMismatch { detail };
        if packed.keys.len() != data.len() {
            return Err(mismatch(format!(
                "{} persisted keys for {} rows",
                packed.keys.len(),
                data.len()
            )));
        }
        let cols: Vec<usize> = packed.cols.iter().map(|&c| c as usize).collect();
        if cols != protected {
            return Err(mismatch(format!(
                "persisted columns {cols:?} != protected columns {protected:?}"
            )));
        }
        let cards: Vec<u32> = protected
            .iter()
            .map(|&a| data.schema().attribute(a).cardinality() as u32)
            .collect();
        let codec = if sparse {
            KeyCodec::for_cards(&cards)?
        } else {
            KeyCodec::bytes(protected.len())
        };
        if codec.widths() != packed.widths {
            return Err(mismatch(format!(
                "persisted slot widths {:?} != expected {:?}",
                packed.widths,
                codec.widths()
            )));
        }
        RegionIndex::build_inner(data, &protected, sparse, Some(packed.keys))
    }

    fn build_inner(
        data: &Dataset,
        protected: &[usize],
        sparse: bool,
        premade: Option<Vec<u128>>,
    ) -> Result<RegionIndex, CoreError> {
        let p = protected.len();
        let max_arity = if sparse {
            MAX_PROTECTED_SPARSE
        } else {
            MAX_PROTECTED
        };
        validate_columns(data, protected, max_arity)?;
        let cards: Vec<u32> = protected
            .iter()
            .map(|&a| data.schema().attribute(a).cardinality() as u32)
            .collect();
        let ordered: Vec<bool> = protected
            .iter()
            .map(|&a| data.schema().attribute(a).is_ordered())
            .collect();
        let codec = if sparse {
            KeyCodec::for_cards(&cards)?
        } else {
            KeyCodec::bytes(p)
        };
        let n = data.len();
        let keys = match premade {
            Some(keys) => {
                debug_assert_eq!(keys.len(), n);
                keys
            }
            None => {
                let mut keys = vec![0u128; n];
                pack_keys(data, protected, &codec, &mut keys);
                keys
            }
        };
        let scan = leaf_scan(&keys, data.labels(), true);
        let lattice = if sparse {
            Lattice::Sparse(SparseMeta {
                protected: protected.to_vec(),
                cards,
                ordered,
                codec,
                leaf: scan.counts,
                totals: scan.totals,
            })
        } else {
            Lattice::Dense(Hierarchy::from_leaf(
                protected.to_vec(),
                cards,
                ordered,
                scan.counts,
                scan.totals,
            ))
        };
        Ok(RegionIndex {
            lattice,
            full_mask: full_mask_of(p),
            keys,
            labels: data.labels().to_vec(),
            alive: vec![true; n],
            buckets: scan.buckets,
            fenwick: Fenwick::ones(n),
            live: n,
            tally: CountingTally {
                rebuild_scans: 1,
                rebuild_rows: n as u64,
                ..CountingTally::default()
            },
            pending: FastMap::default(),
            batching: false,
        })
    }

    /// Whether this index maintains only leaf counts (sparse mode).
    pub fn is_sparse(&self) -> bool {
        matches!(self.lattice, Lattice::Sparse(_))
    }

    /// Number of protected attributes the index is keyed over.
    pub fn arity(&self) -> usize {
        self.full_mask.count_ones() as usize
    }

    /// The maintained hierarchy; its node maps always equal
    /// `Hierarchy::build_over` on the current dataset — provided any
    /// batched deltas have been flushed (see [`begin_deltas`]).
    ///
    /// # Panics
    ///
    /// On a sparse index, which has no dense lattice to lend out; use
    /// [`sparse_hierarchy`] there.
    ///
    /// [`begin_deltas`]: RegionIndex::begin_deltas
    /// [`sparse_hierarchy`]: RegionIndex::sparse_hierarchy
    pub fn hierarchy(&self) -> &Hierarchy {
        debug_assert!(
            self.pending.is_empty(),
            "flush_deltas() before reading batched counts"
        );
        match &self.lattice {
            Lattice::Dense(h) => h,
            Lattice::Sparse(meta) => panic!(
                "{}",
                CoreError::DenseUnavailable {
                    arity: meta.protected.len()
                }
            ),
        }
    }

    /// Enumerates the support-pruned lattice of the *current* counts —
    /// complete region maps for every node with a region above
    /// `support`, nothing else materialized. Works on either index kind:
    /// a dense index donates its full-lattice leaf node, a sparse one
    /// its maintained leaf map. Batched deltas must be flushed first.
    pub fn sparse_hierarchy(&self, support: u64) -> Result<SparseHierarchy, CoreError> {
        debug_assert!(
            self.pending.is_empty(),
            "flush_deltas() before reading batched counts"
        );
        match &self.lattice {
            Lattice::Dense(h) => {
                let p = h.arity();
                let cards: Vec<u32> = (0..p).map(|j| h.cardinality(j)).collect();
                let ordered: Vec<bool> = (0..p).map(|j| h.is_ordered(j)).collect();
                SparseHierarchy::from_leaves(
                    h.protected().to_vec(),
                    cards,
                    ordered,
                    &KeyCodec::bytes(p),
                    h.node(self.full_mask).regions.iter().map(|(&k, &c)| (k, c)),
                    h.totals(),
                    support,
                )
            }
            Lattice::Sparse(meta) => SparseHierarchy::from_leaves(
                meta.protected.clone(),
                meta.cards.clone(),
                meta.ordered.clone(),
                &meta.codec,
                meta.leaf.iter().map(|(&k, &c)| (k, c)),
                meta.totals,
                support,
            ),
        }
    }

    /// The complete region map of one node, projected on demand from the
    /// maintained leaf counts — O(distinct leaves), nothing else
    /// materialized. Canonical 8-bit region keys, so `mask` must span at
    /// most [`MAX_PROTECTED`] attributes.
    pub(crate) fn project_node(&self, mask: u32) -> FastMap<u128, Counts> {
        debug_assert!(
            self.pending.is_empty(),
            "flush_deltas() before reading batched counts"
        );
        match &self.lattice {
            Lattice::Dense(h) => h.node(mask).regions.clone(),
            Lattice::Sparse(meta) => {
                let mut out: FastMap<u128, Counts> = FastMap::default();
                for (&full, &c) in &meta.leaf {
                    out.entry(meta.codec.project(full, mask))
                        .or_default()
                        .add(c);
                }
                out
            }
        }
    }

    /// Switches the index into batched-delta mode: subsequent edits
    /// accumulate a net `(Δpos, Δneg)` per full key instead of walking
    /// the lattice per row, and [`flush_deltas`] applies the sums
    /// grouped — O(distinct edited keys · 2^p) for an arbitrarily long
    /// edit run. Buckets, alive bits, and the rank structure stay
    /// eagerly maintained, so [`region_rows`] is always current; only
    /// the node count maps (and totals) lag until the next flush.
    ///
    /// [`flush_deltas`]: RegionIndex::flush_deltas
    /// [`region_rows`]: RegionIndex::region_rows
    pub fn begin_deltas(&mut self) {
        self.batching = true;
    }

    /// Applies every pending per-key delta to the lattice. Keys whose
    /// edits cancelled out are skipped; the final maps are identical to
    /// eager per-edit maintenance (count updates commute, and `(0, 0)`
    /// entries are evicted on every path).
    pub fn flush_deltas(&mut self) {
        if self.pending.is_empty() {
            return;
        }
        let pending = std::mem::take(&mut self.pending);
        for (key, (dpos, dneg)) in pending {
            if dpos != 0 || dneg != 0 {
                self.update_nodes(key, dpos, dneg);
            }
        }
    }

    /// Routes one row's count delta: straight to the lattice in eager
    /// mode, into the pending accumulator in batched mode.
    fn record_delta(&mut self, key: u128, dpos: i64, dneg: i64) {
        if self.batching {
            let entry = self.pending.entry(key).or_default();
            entry.0 += dpos;
            entry.1 += dneg;
        } else {
            self.update_nodes(key, dpos, dneg);
        }
    }

    /// Current number of live rows.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether every row has been removed.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Work tallies accumulated since the last [`flush_obs`].
    ///
    /// [`flush_obs`]: RegionIndex::flush_obs
    pub fn tally(&self) -> CountingTally {
        self.tally
    }

    /// Flushes (and resets) the work tallies into `obs`.
    pub fn flush_obs(&mut self, obs: &ObsScope) {
        self.tally.flush(obs);
    }

    /// Records that one node's count map was served from the index in
    /// place of a full-dataset scan.
    pub fn note_node_served(&mut self) {
        self.tally.nodes_served += 1;
    }

    /// Current row indices (ascending) of the region `(mask, key)`.
    ///
    /// The full-lattice node answers straight from its leaf bucket; any
    /// other node unions the buckets whose full key projects onto `key`.
    /// Cost is O(L·p + m·log n) for L distinct leaf keys and m matching
    /// rows — paid per *biased* region only, never per node.
    pub fn region_rows(&self, mask: u32, key: u128) -> Vec<usize> {
        // on a wide sparse index the full-row bucket keys are not the
        // canonical 8-bit region keys, so only narrow masks are served
        let full_is_canonical = self.arity() <= MAX_PROTECTED;
        let slots: Vec<u32> = if mask == self.full_mask && full_is_canonical {
            self.buckets.get(&key).cloned().unwrap_or_default()
        } else {
            assert!(
                mask.count_ones() as usize <= MAX_PROTECTED,
                "{}",
                CoreError::NodeTooDeep {
                    level: mask.count_ones() as usize
                }
            );
            let mut v = Vec::new();
            for (&full, bucket) in &self.buckets {
                if self.project_full(full, mask) == key {
                    v.extend_from_slice(bucket);
                }
            }
            v.sort_unstable();
            v
        };
        if self.compact() {
            slots.into_iter().map(|s| s as usize).collect()
        } else {
            slots
                .into_iter()
                .map(|s| self.fenwick.rank(s as usize))
                .collect()
        }
    }

    /// Whether no slot has ever died — then slot and row index coincide
    /// and both Fenwick translations short-circuit. Stays true under any
    /// run of appends and flips (the massaging and oversampling
    /// remedies never leave this state).
    fn compact(&self) -> bool {
        self.live == self.keys.len()
    }

    /// Slot of the row currently at `row`.
    fn slot_of(&self, row: usize) -> usize {
        if self.compact() {
            row
        } else {
            self.fenwick.select(row)
        }
    }

    /// Mirrors one dataset edit into the index.
    pub fn apply_edit(&mut self, edit: &RowEdit) {
        match edit {
            RowEdit::Duplicate { src } => self.apply_append(*src),
            RowEdit::FlipLabel { row } => self.apply_flip(*row),
            RowEdit::Remove { rows } => self.apply_remove(rows),
        }
    }

    /// A copy of row `src` was appended at the end of the dataset.
    pub fn apply_append(&mut self, src: usize) {
        let slot = self.slot_of(src);
        debug_assert!(self.alive[slot]);
        let key = self.keys[slot];
        let label = self.labels[slot];
        let new_slot = self.keys.len();
        self.keys.push(key);
        self.labels.push(label);
        self.alive.push(true);
        self.fenwick.push(true);
        self.buckets.entry(key).or_default().push(new_slot as u32);
        let (dpos, dneg) = if label == 1 { (1, 0) } else { (0, 1) };
        self.record_delta(key, dpos, dneg);
        self.live += 1;
        self.tally.appends += 1;
    }

    /// The label of row `row` was flipped.
    pub fn apply_flip(&mut self, row: usize) {
        let slot = self.slot_of(row);
        debug_assert!(self.alive[slot]);
        self.labels[slot] ^= 1;
        let (dpos, dneg) = if self.labels[slot] == 1 {
            (1, -1)
        } else {
            (-1, 1)
        };
        self.record_delta(self.keys[slot], dpos, dneg);
        self.tally.flips += 1;
    }

    /// The rows at the given current indices were removed (need not be
    /// sorted; duplicates are ignored, matching `Dataset::remove_rows`).
    pub fn apply_remove(&mut self, rows: &[usize]) {
        // translate every row to its slot before any alive bit moves
        let mut slots: Vec<usize> = rows.iter().map(|&r| self.slot_of(r)).collect();
        slots.sort_unstable();
        slots.dedup();
        for slot in slots {
            debug_assert!(self.alive[slot]);
            self.alive[slot] = false;
            self.fenwick.add(slot, -1);
            let key = self.keys[slot];
            let bucket = self.buckets.get_mut(&key).expect("bucket of a live slot");
            let at = bucket
                .binary_search(&(slot as u32))
                .expect("slot present in its bucket");
            bucket.remove(at);
            if bucket.is_empty() {
                self.buckets.remove(&key);
            }
            let (dpos, dneg) = if self.labels[slot] == 1 {
                (-1, 0)
            } else {
                (0, -1)
            };
            self.record_delta(key, dpos, dneg);
            self.live -= 1;
            self.tally.removes += 1;
        }
    }

    /// Projects a full bucket key onto `mask`'s canonical region key,
    /// honoring the sparse bit layout when there is one.
    fn project_full(&self, full: u128, mask: u32) -> u128 {
        match &self.lattice {
            Lattice::Dense(_) => project_key(full, mask),
            Lattice::Sparse(meta) => meta.codec.project(full, mask),
        }
    }

    /// Applies one row's count delta — to every dense lattice node (and
    /// the level-0 totals), or to the single leaf entry in sparse mode —
    /// evicting entries that reach `(0, 0)` so the maintained maps stay
    /// equal to a from-scratch rebuild.
    fn update_nodes(&mut self, full_key: u128, dpos: i64, dneg: i64) {
        match &mut self.lattice {
            Lattice::Dense(h) => {
                for mask in 1..=self.full_mask {
                    let key = project_key(full_key, mask);
                    let node = h.node_mut(mask);
                    let entry = node.regions.entry(key).or_default();
                    entry.pos = (entry.pos as i64 + dpos) as u64;
                    entry.neg = (entry.neg as i64 + dneg) as u64;
                    if entry.pos == 0 && entry.neg == 0 {
                        node.regions.remove(&key);
                    }
                }
                let totals = h.totals_mut();
                totals.pos = (totals.pos as i64 + dpos) as u64;
                totals.neg = (totals.neg as i64 + dneg) as u64;
                self.tally.node_updates += u64::from(self.full_mask);
            }
            Lattice::Sparse(meta) => {
                let entry = meta.leaf.entry(full_key).or_default();
                entry.pos = (entry.pos as i64 + dpos) as u64;
                entry.neg = (entry.neg as i64 + dneg) as u64;
                if entry.pos == 0 && entry.neg == 0 {
                    meta.leaf.remove(&full_key);
                }
                meta.totals.pos = (meta.totals.pos as i64 + dpos) as u64;
                meta.totals.neg = (meta.totals.neg as i64 + dneg) as u64;
                self.tally.node_updates += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use remedy_dataset::{Attribute, Schema};

    fn fixture() -> Dataset {
        let schema = Schema::new(
            vec![
                Attribute::from_strs("a", &["0", "1"]).protected(),
                Attribute::from_strs("b", &["0", "1", "2"]).protected(),
                Attribute::from_strs("f", &["0", "1"]),
            ],
            "y",
        )
        .into_shared();
        let mut d = Dataset::new(schema);
        for a in 0..2u32 {
            for b in 0..3u32 {
                for i in 0..(5 + a + 2 * b) {
                    d.push_row(&[a, b, i % 2], u8::from((a + b + i) % 2 == 0))
                        .unwrap();
                }
            }
        }
        d
    }

    /// Two hierarchies are equal as count structures.
    fn assert_hierarchy_eq(a: &Hierarchy, b: &Hierarchy) {
        assert_eq!(a.totals(), b.totals());
        assert_eq!(a.nodes().len(), b.nodes().len());
        for (na, nb) in a.nodes().iter().zip(b.nodes()) {
            assert_eq!(na.mask, nb.mask);
            assert_eq!(na.regions.len(), nb.regions.len(), "node {:#b}", na.mask);
            for (key, c) in &na.regions {
                assert_eq!(Some(c), nb.regions.get(key), "node {:#b}", na.mask);
            }
        }
    }

    #[test]
    fn packed_sidecar_matches_pack_keys_exactly() {
        // the dataset store's pack_protected must reproduce this crate's
        // packing bit-for-bit, dense layout and minimal-width layout both
        for data in [
            remedy_dataset::synth::compas_n(400, 11),
            remedy_dataset::synth::wide_n(200, 20, 5),
        ] {
            let packed = remedy_dataset::store::pack_protected(&data).expect("layout exists");
            let protected = data.schema().protected_indices();
            let cards: Vec<u32> = protected
                .iter()
                .map(|&a| data.schema().attribute(a).cardinality() as u32)
                .collect();
            let codec = if protected.len() <= MAX_PROTECTED {
                KeyCodec::bytes(protected.len())
            } else {
                KeyCodec::for_cards(&cards).unwrap()
            };
            assert_eq!(codec.widths(), packed.widths, "width rule drifted");
            let mut keys = vec![0u128; data.len()];
            pack_keys(&data, &protected, &codec, &mut keys);
            assert_eq!(keys, packed.keys, "packed keys drifted");
        }
    }

    #[test]
    fn build_from_packed_matches_regular_build() {
        for data in [
            remedy_dataset::synth::compas_n(600, 3),
            remedy_dataset::synth::wide_n(300, 20, 7),
        ] {
            let packed = remedy_dataset::store::pack_protected(&data).unwrap();
            let from_packed = RegionIndex::try_build_from_packed(&data, packed).unwrap();
            let regular = RegionIndex::try_build_auto(&data).unwrap();
            assert_eq!(from_packed.is_sparse(), regular.is_sparse());
            assert_eq!(from_packed.keys, regular.keys);
            assert_eq!(from_packed.labels, regular.labels);
            if !regular.is_sparse() {
                assert_hierarchy_eq(from_packed.hierarchy(), regular.hierarchy());
            }
        }
    }

    #[test]
    fn build_from_packed_stays_editable() {
        let data = fixture();
        let packed = remedy_dataset::store::pack_protected(&data).unwrap();
        let mut live = RegionIndex::try_build_from_packed(&data, packed).unwrap();
        let mut edited = data.clone();
        for edit in [
            RowEdit::Duplicate { src: 3 },
            RowEdit::FlipLabel { row: 0 },
            RowEdit::Remove { rows: vec![5, 1] },
        ] {
            live.apply_edit(&edit);
            edited.apply_edit(&edit);
        }
        let rebuilt = RegionIndex::build(&edited);
        assert_hierarchy_eq(live.hierarchy(), rebuilt.hierarchy());
    }

    #[test]
    fn build_from_packed_rejects_foreign_layouts() {
        let data = fixture();
        let good = remedy_dataset::store::pack_protected(&data).unwrap();
        // wrong row count
        let mut p = good.clone();
        p.keys.pop();
        assert!(matches!(
            RegionIndex::try_build_from_packed(&data, p),
            Err(CoreError::PackedLayoutMismatch { .. })
        ));
        // wrong column set
        let mut p = good.clone();
        p.cols = vec![0];
        assert!(matches!(
            RegionIndex::try_build_from_packed(&data, p),
            Err(CoreError::PackedLayoutMismatch { .. })
        ));
        // wrong slot widths
        let mut p = good.clone();
        p.widths = vec![4, 4];
        assert!(matches!(
            RegionIndex::try_build_from_packed(&data, p),
            Err(CoreError::PackedLayoutMismatch { .. })
        ));
    }

    #[test]
    fn fenwick_rank_select_roundtrip() {
        let mut f = Fenwick::ones(10);
        // kill slots 2, 5, 9 → alive: 0 1 3 4 6 7 8
        for s in [2, 5, 9] {
            f.add(s, -1);
        }
        let alive = [0usize, 1, 3, 4, 6, 7, 8];
        for (row, &slot) in alive.iter().enumerate() {
            assert_eq!(f.rank(slot), row);
            assert_eq!(f.select(row), slot);
        }
        // appended slots continue the sequence
        f.push(true);
        assert_eq!(f.select(7), 10);
        assert_eq!(f.rank(10), 7);
    }

    #[test]
    fn fenwick_push_matches_rebuild() {
        let mut grown = Fenwick::ones(3);
        for _ in 0..9 {
            grown.push(true);
        }
        let fresh = Fenwick::ones(12);
        for slot in 0..12 {
            assert_eq!(grown.prefix(slot), fresh.prefix(slot), "slot {slot}");
        }
    }

    #[test]
    fn build_matches_hierarchy_build() {
        let d = fixture();
        let index = RegionIndex::build(&d);
        let h = Hierarchy::build(&d);
        assert_hierarchy_eq(index.hierarchy(), &h);
        assert_eq!(index.len(), d.len());
        let t = index.tally();
        assert_eq!(t.rebuild_scans, 1);
        assert_eq!(t.rebuild_rows, d.len() as u64);
    }

    #[test]
    fn region_rows_match_pattern_matching() {
        let d = fixture();
        let index = RegionIndex::build(&d);
        let h = index.hierarchy();
        for node in h.nodes() {
            for &key in node.regions.keys() {
                let pattern = h.pattern_of(node.mask, key);
                assert_eq!(
                    index.region_rows(node.mask, key),
                    d.indices_matching(&pattern),
                    "{}",
                    pattern.display(d.schema())
                );
            }
        }
    }

    /// Applies one edit to both sides and asserts the maintained index
    /// equals a from-scratch rebuild (counts, totals, and row buckets).
    fn apply_and_check(d: &mut Dataset, index: &mut RegionIndex, edit: RowEdit) {
        index.apply_edit(&edit);
        d.apply_edit(&edit);
        let fresh = RegionIndex::build(d);
        assert_hierarchy_eq(index.hierarchy(), fresh.hierarchy());
        assert_eq!(index.len(), d.len());
        for node in fresh.hierarchy().nodes() {
            for &key in node.regions.keys() {
                assert_eq!(
                    index.region_rows(node.mask, key),
                    fresh.region_rows(node.mask, key),
                    "node {:#b} after {edit:?}",
                    node.mask
                );
            }
        }
    }

    #[test]
    fn edits_track_a_rebuild() {
        let mut d = fixture();
        let mut index = RegionIndex::build(&d);
        apply_and_check(&mut d, &mut index, RowEdit::Duplicate { src: 3 });
        apply_and_check(&mut d, &mut index, RowEdit::FlipLabel { row: 0 });
        apply_and_check(
            &mut d,
            &mut index,
            RowEdit::Remove {
                rows: vec![7, 2, 2],
            },
        );
        // duplicate the row appended by the first edit
        let dup = RowEdit::Duplicate { src: d.len() - 1 };
        apply_and_check(&mut d, &mut index, dup);
        apply_and_check(&mut d, &mut index, RowEdit::FlipLabel { row: 5 });
        apply_and_check(&mut d, &mut index, RowEdit::Remove { rows: vec![0] });
    }

    #[test]
    fn emptied_region_is_evicted() {
        let d = fixture();
        let mut index = RegionIndex::build(&d);
        // remove every row of one leaf region
        let h = index.hierarchy();
        let full = (1u32 << h.arity()) - 1;
        let &key = h.node(full).regions.keys().min().unwrap();
        let rows = index.region_rows(full, key);
        index.apply_remove(&rows);
        assert!(!index.hierarchy().node(full).regions.contains_key(&key));
        assert!(index.region_rows(full, key).is_empty());
    }

    #[test]
    fn tally_flush_emits_and_resets() {
        let d = fixture();
        let mut index = RegionIndex::build(&d);
        index.apply_append(0);
        index.apply_flip(1);
        index.note_node_served();
        let rec = remedy_obs::Recorder::enabled();
        index.flush_obs(&rec.scope("counting"));
        let snap = rec.snapshot();
        assert_eq!(snap.counter("counting", "counting.delta.appends"), Some(1));
        assert_eq!(snap.counter("counting", "counting.delta.flips"), Some(1));
        assert_eq!(
            snap.counter("counting", "counting.delta.nodes_served"),
            Some(1)
        );
        assert_eq!(snap.counter("counting", "counting.rebuild.scans"), Some(1));
        assert_eq!(index.tally(), CountingTally::default());
    }

    #[test]
    fn pack_keys_is_thread_count_independent() {
        // force the parallel path by exceeding MIN_CHUNK
        let schema = Schema::new(
            vec![Attribute::from_strs("a", &["0", "1", "2", "3"]).protected()],
            "y",
        )
        .into_shared();
        let mut d = Dataset::new(schema);
        for i in 0..(3 * MIN_CHUNK as u32) {
            d.push_row(&[i % 4], u8::from(i % 3 == 0)).unwrap();
        }
        let mut keys = vec![0u128; d.len()];
        pack_keys(&d, &[0], &KeyCodec::bytes(1), &mut keys);
        for (i, &k) in keys.iter().enumerate() {
            assert_eq!(k, u128::from(d.value(i, 0)));
        }
        let scan = leaf_scan(&keys, d.labels(), true);
        assert_eq!(scan.totals.total(), d.len() as u64);
        for (key, bucket) in &scan.buckets {
            assert!(bucket.windows(2).all(|w| w[0] < w[1]), "key {key}");
        }
    }

    #[test]
    #[should_panic(expected = "empty tree")]
    fn fenwick_select_panics_on_empty_tree() {
        Fenwick::ones(0).select(0);
    }

    #[test]
    fn fenwick_grows_from_empty() {
        let mut f = Fenwick::ones(0);
        assert_eq!(f.len(), 0);
        f.push(true);
        f.push(true);
        assert_eq!(f.select(1), 1);
        assert_eq!(f.rank(1), 1);
    }

    #[test]
    fn empty_dataset_index_answers_empty() {
        let schema = fixture().schema_arc();
        let empty = Dataset::new(schema);
        let index = RegionIndex::build(&empty);
        assert!(index.is_empty());
        assert_eq!(index.len(), 0);
        for mask in 1..=index.full_mask {
            assert!(index.region_rows(mask, 0).is_empty(), "mask {mask:#b}");
        }
        assert_eq!(index.hierarchy().totals(), Counts::default());
    }

    #[test]
    fn fully_drained_index_answers_empty() {
        let d = fixture();
        let mut index = RegionIndex::build(&d);
        let full = index.full_mask;
        let keys: Vec<u128> = index
            .hierarchy()
            .node(full)
            .regions
            .keys()
            .copied()
            .collect();
        index.apply_remove(&(0..d.len()).collect::<Vec<_>>());
        assert!(index.is_empty());
        for key in keys {
            assert!(index.region_rows(full, key).is_empty());
        }
        assert!(index.hierarchy().node(full).regions.is_empty());
    }

    #[test]
    fn sparse_index_tracks_dense_through_edits() {
        let mut d = fixture();
        let mut sparse = RegionIndex::try_build_sparse(&d).unwrap();
        assert!(sparse.is_sparse());
        let edits = [
            RowEdit::Duplicate { src: 3 },
            RowEdit::FlipLabel { row: 0 },
            RowEdit::Remove { rows: vec![7, 2] },
            RowEdit::Duplicate { src: 0 },
        ];
        for edit in &edits {
            sparse.apply_edit(edit);
            d.apply_edit(edit);
            let dense = RegionIndex::build(&d);
            // projected views equal the maintained dense lattice
            for node in dense.hierarchy().nodes() {
                assert_eq!(sparse.project_node(node.mask), node.regions);
                for &key in node.regions.keys() {
                    assert_eq!(
                        sparse.region_rows(node.mask, key),
                        dense.region_rows(node.mask, key),
                        "node {:#b} after {edit:?}",
                        node.mask
                    );
                }
            }
            // and a full sparse enumeration at support 0 matches too
            let sh = sparse.sparse_hierarchy(0).unwrap();
            let dh = dense.sparse_hierarchy(0).unwrap();
            assert_eq!(sh.nodes().len(), dh.nodes().len());
            for node in sh.nodes() {
                assert_eq!(Some(&node.regions), dh.node(node.mask).map(|n| &n.regions));
            }
        }
    }

    #[test]
    fn release_mode_guards_reject_bad_columns() {
        // 17 protected columns: dense refuses, sparse accepts
        let attrs: Vec<Attribute> = (0..17)
            .map(|i| Attribute::from_strs(&format!("a{i}"), &["0", "1"]).protected())
            .collect();
        let mut d = Dataset::new(Schema::new(attrs, "y").into_shared());
        d.push_row(&[0; 17], 1).unwrap();
        match RegionIndex::try_build(&d) {
            Err(CoreError::TooManyProtected { got: 17, max }) => {
                assert_eq!(max, MAX_PROTECTED);
            }
            other => panic!("expected TooManyProtected, got {other:?}"),
        }
        assert!(RegionIndex::try_build_sparse(&d).is_ok());

        // a 300-category protected column: both enumerations refuse
        let wide_domain: Vec<String> = (0..300).map(|i| format!("v{i}")).collect();
        let domain: Vec<&str> = wide_domain.iter().map(String::as_str).collect();
        let schema =
            Schema::new(vec![Attribute::from_strs("zip", &domain).protected()], "y").into_shared();
        let mut d = Dataset::new(schema);
        d.push_row(&[299], 0).unwrap();
        for built in [
            RegionIndex::try_build(&d),
            RegionIndex::try_build_sparse(&d),
        ] {
            match built {
                Err(CoreError::CardinalityOverflow {
                    column,
                    cardinality: 300,
                }) => assert_eq!(column, "zip"),
                other => panic!("expected CardinalityOverflow, got {other:?}"),
            }
        }
    }

    #[test]
    #[should_panic(expected = "dense lattice unavailable")]
    fn sparse_index_refuses_dense_hierarchy() {
        let d = fixture();
        let index = RegionIndex::try_build_sparse(&d).unwrap();
        let _ = index.hierarchy();
    }

    #[test]
    fn counted_leaves_lower_to_the_direct_lattices() {
        let d = fixture();
        let counts = ShardCounts::scan(&d, 1).unwrap();
        let dense = counts.clone().into_hierarchy().unwrap();
        assert_hierarchy_eq(&dense, &Hierarchy::build(&d));
        let sparse = counts.into_sparse(2).unwrap();
        let direct = crate::sparse::SparseHierarchy::try_build(&d, 2).unwrap();
        assert_eq!(sparse.nodes().len(), direct.nodes().len());
    }

    #[test]
    fn scan_packed_matches_and_validates() {
        let d = fixture();
        let packed = remedy_dataset::store::pack_protected(&d).unwrap();
        let from_packed = ShardCounts::scan_packed(&d, &packed, 0).unwrap();
        assert_eq!(from_packed, ShardCounts::scan(&d, 0).unwrap());
        let mut bad = packed.clone();
        bad.keys.pop();
        assert!(matches!(
            ShardCounts::scan_packed(&d, &bad, 0),
            Err(CoreError::PackedLayoutMismatch { .. })
        ));
        let mut bad = packed.clone();
        bad.widths = vec![4, 4];
        assert!(matches!(
            ShardCounts::scan_packed(&d, &bad, 0),
            Err(CoreError::PackedLayoutMismatch { .. })
        ));
    }

    #[test]
    fn capped_scans_are_bit_identical() {
        let d = fixture();
        let reference = ShardCounts::scan(&d, 1).unwrap();
        for threads in [0usize, 2, 7] {
            assert_eq!(ShardCounts::scan(&d, threads).unwrap(), reference);
        }
    }
}
