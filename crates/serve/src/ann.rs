//! A dependency-free IVF-flat item index for sublinear serving.
//!
//! Every exact `REC` scores the full catalog — `O(items · dim)` per
//! request — which is the per-replica QPS ceiling at catalog scale. This
//! module trades a small, *audited* amount of recall for a sublinear
//! candidate set: a k-means coarse quantizer partitions the frozen item
//! embeddings into `nlists` inverted lists at table-build time, and a
//! query only scores the items in its `nprobe` best-matching lists.
//!
//! There is one index, [`Ivf<R>`], over a row representation `R:`
//! [`IvfRows`]: [`IvfIndex`] packs bit-exact f32 rows ([`Mat`]), the
//! quantized index (`crate::quant::QuantIvf`) packs int8 rows and per-row
//! scales — the build, the probe and the candidate loop are written once.
//!
//! # Determinism contract
//!
//! The index build is **bit-deterministic** for any `GRAPHAUG_THREADS` and
//! for the SIMD lane vs scalar builds:
//!
//! * centroid seeding and the training sample come from seeded
//!   `graphaug-rng` streams (`StdRng::stream(seed, …)`);
//! * the iteration count is fixed (no convergence-dependent early exit);
//! * assignment runs through [`graphaug_par::l2sq8`] (fixed reduction
//!   order, lane/scalar bit-identical) and parallelizes over items with
//!   each item writing its own slot — no cross-thread reductions;
//! * centroid updates accumulate members in ascending item order on one
//!   thread, and ties in the argmin go to the lower centroid index.
//!
//! # Exact-parity contract
//!
//! Two rules make full probe ≡ full scan for *any* `R`. A candidate's
//! score is [`IvfRows::scores_into`] — the representation's own full-scan
//! formula over bit-exact packed copies of the source rows — and the final
//! selection is `graphaug_eval::topk_pairs`, which shares the full scan's
//! total-order tie-break and masks seen items to `-inf` exactly as the full
//! scan does (lazily: only a candidate whose raw score would enter the
//! top-`k` is looked up, and masking can only lower a score). Since every
//! item lives in exactly one inverted list, probing **all** lists
//! (`nprobe = nlists`) visits the full catalog and reproduces the full-scan
//! ranking hex-exactly — the degenerate configuration the parity proptests
//! pin.

use std::borrow::Cow;

use graphaug_eval::topk_pairs;
use graphaug_par::{dot8, l2sq8};
use graphaug_rng::StdRng;
use graphaug_tensor::Mat;

/// Fixed k-means iteration count (no data-dependent early exit — part of
/// the determinism contract).
const KMEANS_ITERS: usize = 8;

/// Build/search parameters for the IVF index, plus the serving-side
/// gate/audit knobs that travel with it.
#[derive(Clone, Debug)]
pub struct IvfParams {
    /// Number of inverted lists (coarse centroids). `0` = auto:
    /// `round(sqrt(n_items))`, clamped to `[1, n_items]`.
    pub nlists: usize,
    /// Lists probed per query. `0` = auto: `max(1, nlists / 8)`. Clamped to
    /// `[1, nlists]` at build time.
    pub nprobe: usize,
    /// Seed for the `graphaug-rng` streams (sample shuffle, centroid
    /// seeding, probe-set draw).
    pub seed: u64,
    /// Build-time recall gate: sampled recall@20 vs the exact oracle must
    /// reach this floor or the ANN path stays disabled (serving falls back
    /// to exact, loudly).
    pub recall_floor: f64,
    /// Online self-audit cadence: every `audit_every`-th ANN-served list is
    /// also ranked exactly and folded into the running recall estimate.
    /// `0` disables the audit.
    pub audit_every: u64,
}

impl Default for IvfParams {
    fn default() -> Self {
        IvfParams {
            nlists: 0,
            nprobe: 0,
            seed: 0x1f51,
            recall_floor: 0.9,
            audit_every: 64,
        }
    }
}

impl IvfParams {
    /// Default parameters.
    pub fn new() -> Self {
        IvfParams::default()
    }

    /// Sets the list count (`0` = auto).
    pub fn nlists(mut self, n: usize) -> Self {
        self.nlists = n;
        self
    }

    /// Sets the probe width (`0` = auto).
    pub fn nprobe(mut self, n: usize) -> Self {
        self.nprobe = n;
        self
    }

    /// Sets the build seed.
    pub fn seed(mut self, s: u64) -> Self {
        self.seed = s;
        self
    }

    /// Sets the recall floor for the build-time gate.
    pub fn recall_floor(mut self, f: f64) -> Self {
        self.recall_floor = f;
        self
    }

    /// Sets the online self-audit cadence (`0` = off).
    pub fn audit_every(mut self, n: u64) -> Self {
        self.audit_every = n;
        self
    }

    /// The effective list count for a catalog of `n_items`.
    pub fn effective_nlists(&self, n_items: usize) -> usize {
        let auto = (n_items as f64).sqrt().round() as usize;
        let n = if self.nlists == 0 { auto } else { self.nlists };
        n.clamp(1, n_items.max(1))
    }

    /// The effective probe width for `nlists` lists.
    pub fn effective_nprobe(&self, nlists: usize) -> usize {
        let n = if self.nprobe == 0 {
            (nlists / 8).max(1)
        } else {
            self.nprobe
        };
        n.clamp(1, nlists.max(1))
    }
}

/// Incremental FNV-1a 64 over little-endian `u32` words — the shared
/// fingerprint accumulator of the index build and the quantized tables, so
/// determinism assertions hash both through one code path.
pub(crate) struct Fnv(pub u64);

impl Fnv {
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn eat(&mut self, w: u32) {
        for b in w.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }
}

/// The storage-agnostic half of an [`Ivf`]: coarse centroids plus the CSR
/// inverted-list *membership* (which item belongs to which list), with no
/// embedding payload.
#[derive(Clone)]
struct CoarsePartition {
    dim: usize,
    nlists: usize,
    /// Row-major centroid matrix, `nlists × dim`.
    centroids: Vec<f32>,
    /// `nlists + 1` offsets into `list_items`.
    list_offsets: Vec<u32>,
    /// Item ids grouped by owning list, ascending within each list.
    list_items: Vec<u32>,
}

impl CoarsePartition {
    /// Seeded, fixed-iteration k-means over `items`, then a CSR pack of
    /// the final full-catalog assignment. Bit-deterministic for any thread
    /// count (see the module docs for the contract).
    fn build(items: &Mat, params: &IvfParams) -> CoarsePartition {
        let n = items.rows();
        let dim = items.cols();
        assert!(n > 0, "cannot index an empty catalog");
        let nlists = params.effective_nlists(n);

        // Seeded training sample: a partial Fisher–Yates over item ids from
        // stream 0. The shuffled head doubles as the (distinct) initial
        // centroid picks — `m >= nlists`, so every list is seeded.
        let m = (32 * nlists).max(4096).min(n);
        let mut ids: Vec<u32> = (0..n as u32).collect();
        let mut rng = StdRng::stream(params.seed, 0);
        for i in 0..m {
            let j = i + rng.bounded_u64((n - i) as u64) as usize;
            ids.swap(i, j);
        }
        let sample = &ids[..m];

        let mut centroids = vec![0f32; nlists * dim];
        for (c, &item) in sample.iter().take(nlists).enumerate() {
            centroids[c * dim..(c + 1) * dim].copy_from_slice(items.row(item as usize));
        }

        // Fixed-count Lloyd iterations over the sample. Assignment is
        // parallel (slot-per-point); the centroid update is a single
        // ascending-order pass, so the reduction order never moves.
        let mut assign = vec![0u32; m];
        for _ in 0..KMEANS_ITERS {
            assign_points(items, sample, &centroids, nlists, dim, &mut assign);
            let mut sums = vec![0f32; nlists * dim];
            let mut counts = vec![0u32; nlists];
            for (slot, &item) in sample.iter().enumerate() {
                let c = assign[slot] as usize;
                counts[c] += 1;
                let row = items.row(item as usize);
                let acc = &mut sums[c * dim..(c + 1) * dim];
                for (a, &x) in acc.iter_mut().zip(row) {
                    *a += x;
                }
            }
            for c in 0..nlists {
                // An emptied cluster keeps its previous centroid — still
                // deterministic, and it can re-acquire members later.
                if counts[c] > 0 {
                    let inv = 1.0 / counts[c] as f32;
                    for (dst, &s) in centroids[c * dim..(c + 1) * dim]
                        .iter_mut()
                        .zip(&sums[c * dim..(c + 1) * dim])
                    {
                        *dst = s * inv;
                    }
                }
            }
        }

        // Final assignment of the full catalog, then CSR-pack the inverted
        // lists in ascending item order.
        let all: Vec<u32> = (0..n as u32).collect();
        let mut final_assign = vec![0u32; n];
        assign_points(items, &all, &centroids, nlists, dim, &mut final_assign);
        let mut counts = vec![0u32; nlists];
        for &c in &final_assign {
            counts[c as usize] += 1;
        }
        let mut list_offsets = vec![0u32; nlists + 1];
        for c in 0..nlists {
            list_offsets[c + 1] = list_offsets[c] + counts[c];
        }
        let mut cursor: Vec<u32> = list_offsets[..nlists].to_vec();
        let mut list_items = vec![0u32; n];
        for (item, &c) in final_assign.iter().enumerate() {
            list_items[cursor[c as usize] as usize] = item as u32;
            cursor[c as usize] += 1;
        }

        CoarsePartition {
            dim,
            nlists,
            centroids,
            list_offsets,
            list_items,
        }
    }

    /// The `(lo, hi)` entry range of list `l` in packed-slot order.
    #[inline]
    fn list_range(&self, l: usize) -> (usize, usize) {
        (
            self.list_offsets[l] as usize,
            self.list_offsets[l + 1] as usize,
        )
    }
}

/// What an [`Ivf`] needs from a row representation: the matrix to cluster,
/// a packed copy in list order, and the representation's own scorer.
pub trait IvfRows: Sized {
    /// One user's row in this representation — what [`Self::scores_into`]
    /// ranks the packed rows against.
    type Query<'a>: Copy
    where
        Self: 'a;

    /// The f32 matrix this representation effectively serves — what the
    /// coarse quantizer trains on.
    fn served(&self) -> Cow<'_, Mat>;

    /// Bit-exact copies of rows `order[0], order[1], …`, packed in that
    /// order.
    fn gather(&self, order: &[u32]) -> Self;

    /// Pushes the scores of rows `lo..hi` against `query` onto `out`, in
    /// row order, by this representation's **full-scan** formula — so a row
    /// scores the same bits from a packed list as from the source table.
    fn scores_into<'a>(&'a self, lo: usize, hi: usize, query: Self::Query<'a>, out: &mut Vec<f32>);
}

/// Bit-exact f32 rows, scored by the exact scorer's kernel
/// ([`graphaug_par::score_rows_f32`], which the `Recommender::score_items`
/// default also calls: `Σ item[d]·user[d]` in ascending dimension order) —
/// **not** the `dot8` tree — so full-probe output is bit-identical to the
/// dense path.
impl IvfRows for Mat {
    type Query<'a> = &'a [f32];

    fn served(&self) -> Cow<'_, Mat> {
        Cow::Borrowed(self)
    }

    fn gather(&self, order: &[u32]) -> Mat {
        let mut data = Vec::with_capacity(order.len() * self.cols());
        for &r in order {
            data.extend_from_slice(self.row(r as usize));
        }
        Mat::from_vec(order.len(), self.cols(), data)
    }

    fn scores_into<'a>(&'a self, lo: usize, hi: usize, query: &'a [f32], out: &mut Vec<f32>) {
        let dim = self.cols();
        graphaug_par::score_rows_f32(&self.as_slice()[lo * dim..hi * dim], query, out);
    }
}

/// An immutable IVF-flat index over one frozen item table: a coarse
/// partition plus bit-exact copies of each member's row packed in list
/// order (the "flat" in IVF-flat). The packed rows make candidate scoring
/// stream sequentially instead of gathering scattered catalog rows —
/// without them the cache misses eat most of the sublinear-candidate
/// advantage. Built once per table swap; shared read-only by every request
/// thread.
#[derive(Clone)]
pub struct Ivf<R> {
    part: CoarsePartition,
    /// Row `s` is the source row of item `part.list_items[s]`.
    rows: R,
}

/// The f32 index: packed rows are `4·dim` bytes per entry.
pub type IvfIndex = Ivf<Mat>;

impl<R: IvfRows> Ivf<R> {
    /// Builds the index over `items` (one row per item): a seeded,
    /// fixed-iteration k-means quantizer trained on the rows `items`
    /// actually serves, then the packed copy. Bit-deterministic for any
    /// thread count (see the module docs for the contract).
    pub fn build(items: &R, params: &IvfParams) -> Ivf<R> {
        let part = CoarsePartition::build(&items.served(), params);
        let rows = items.gather(&part.list_items);
        Ivf { part, rows }
    }

    /// Number of inverted lists.
    #[inline]
    pub fn nlists(&self) -> usize {
        self.part.nlists
    }

    /// The item ids of inverted list `l` (ascending).
    #[inline]
    pub fn list(&self, l: usize) -> &[u32] {
        let (lo, hi) = self.part.list_range(l);
        &self.part.list_items[lo..hi]
    }

    /// Total indexed items (= catalog size: every item is in exactly one
    /// list).
    pub fn len(&self) -> usize {
        self.part.list_items.len()
    }

    /// True when the index holds no items.
    pub fn is_empty(&self) -> bool {
        self.part.list_items.is_empty()
    }

    /// The `nprobe` list ids best matching the f32 `query` row, ranked by
    /// descending centroid inner product (ties toward the lower list id —
    /// the [`topk_pairs`] contract). Inner-product probing matches the
    /// serving objective (max dot-product), `dot8` keeps it lane/scalar
    /// bit-identical, and it stays f32 for every `R`: it is
    /// `O(nlists · dim)`, off the bandwidth-critical scan.
    pub fn probe(&self, query: &[f32], nprobe: usize) -> Vec<u32> {
        let part = &self.part;
        let scored = (0..part.nlists as u32)
            .map(|c| (c, dot8(query, &part.centroids[c as usize * part.dim..])));
        topk_pairs(scored, nprobe.clamp(1, part.nlists), |_| false)
            .into_iter()
            .map(|(c, _)| c)
            .collect()
    }

    /// Top-`k` over the items in the `nprobe` lists best matching `urow`,
    /// each scored against `query` (the same user in `R`'s representation);
    /// also returns the candidate count. Items in `seen` (ascending) stay
    /// *in* the candidate set masked to `-inf`, so they surface at the tail
    /// when `k` exceeds the unseen count, exactly like a masked full scan.
    pub fn search<'a>(
        &'a self,
        urow: &[f32],
        nprobe: usize,
        query: R::Query<'a>,
        seen: &[u32],
        k: usize,
    ) -> (Vec<(u32, f32)>, u32) {
        let lists = self.probe(urow, nprobe);
        let cands = lists.iter().map(|&l| self.list(l as usize).len()).sum();
        let mut scores = Vec::with_capacity(cands);
        for &l in &lists {
            let (lo, hi) = self.part.list_range(l as usize);
            self.rows.scores_into(lo, hi, query, &mut scores);
        }
        let items = lists.iter().flat_map(|&l| self.list(l as usize)).copied();
        let top = topk_pairs(items.zip(scores), k, |v| seen.binary_search(&v).is_ok());
        (top, cands as u32)
    }

    /// A stable fingerprint of the partition (centroid bit patterns,
    /// offsets, and list membership) for bit-determinism assertions. The
    /// packed rows are [`IvfRows::gather`] of the source by construction.
    pub fn fingerprint(&self) -> u64 {
        let part = &self.part;
        let mut h = Fnv::new();
        h.eat(part.nlists as u32);
        h.eat(part.dim as u32);
        for &c in &part.centroids {
            h.eat(c.to_bits());
        }
        for &o in &part.list_offsets {
            h.eat(o);
        }
        for &i in &part.list_items {
            h.eat(i);
        }
        h.0
    }
}

/// Assigns each of `points` (item ids into `items`) to its nearest centroid
/// by squared L2 distance, writing `out[slot]`. Parallel over disjoint
/// slots; argmin ties go to the lower centroid index.
fn assign_points(
    items: &Mat,
    points: &[u32],
    centroids: &[f32],
    nlists: usize,
    dim: usize,
    out: &mut [u32],
) {
    debug_assert_eq!(points.len(), out.len());
    let base = graphaug_par::SendMutPtr::new(out);
    graphaug_par::parallel_spans(points.len(), |_, range| {
        // Safety: spans tile `0..points.len()` disjointly, so each slot has
        // exactly one writer.
        let slice = unsafe { base.slice_mut(range.start, range.end - range.start) };
        for (slot, &item) in slice.iter_mut().zip(&points[range]) {
            let row = items.row(item as usize);
            let mut best = 0u32;
            let mut best_d = f32::INFINITY;
            for c in 0..nlists {
                let d = l2sq8(row, &centroids[c * dim..(c + 1) * dim]);
                if d < best_d {
                    best_d = d;
                    best = c as u32;
                }
            }
            *slot = best;
        }
    });
}

/// The layout check both representations' tests run: every row of
/// `source` sits in exactly one list (ascending within it), and packed slot
/// `s` is `same_row` as the source row of the item listed at `s`.
#[cfg(test)]
pub(crate) fn assert_packed_in_list_order<R: IvfRows>(
    source: &R,
    idx: &Ivf<R>,
    same_row: impl Fn(&R, usize, &R, usize) -> bool,
) {
    let n = idx.len();
    let mut seen = vec![false; n];
    let mut slot = 0;
    for l in 0..idx.nlists() {
        let mut prev = None;
        for &item in idx.list(l) {
            assert!(!seen[item as usize], "item {item} in two lists");
            seen[item as usize] = true;
            assert!(prev.is_none_or(|p| p < item), "list not ascending");
            prev = Some(item);
            assert!(
                same_row(&idx.rows, slot, source, item as usize),
                "packed slot {slot} differs from source row {item}"
            );
            slot += 1;
        }
    }
    assert_eq!(slot, n, "lists tile the packed rows");
    assert!(seen.iter().all(|&s| s), "item missing from all lists");
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphaug_rng::seeded_rng;

    /// `n` points around `k` well-separated centers.
    fn clustered(n: usize, k: usize, dim: usize, seed: u64) -> Mat {
        let mut rng = seeded_rng(seed);
        let mut centers = vec![0f32; k * dim];
        rng.fill_normal_f32(&mut centers, 4.0);
        Mat::from_fn(n, dim, |r, c| {
            centers[(r % k) * dim + c] + rng.normal_f32() * 0.1
        })
    }

    #[test]
    fn every_item_lands_in_exactly_one_list() {
        let items = clustered(500, 7, 16, 3);
        let idx = IvfIndex::build(&items, &IvfParams::new().nlists(13));
        assert_eq!(idx.nlists(), 13);
        assert_eq!(idx.len(), 500);
        let bits = |row: &[f32]| row.iter().map(|w| w.to_bits()).collect::<Vec<_>>();
        assert_packed_in_list_order(&items, &idx, |packed, s, source, r| {
            bits(packed.row(s)) == bits(source.row(r))
        });
    }

    #[test]
    fn well_separated_clusters_stay_cohesive() {
        let k = 6;
        let items = clustered(600, k, 8, 9);
        let idx = IvfIndex::build(&items, &IvfParams::new().nlists(k));
        // Lloyd's may merge two ground-truth clusters into one list (random
        // init), but it must not *split* one: members of a ground-truth
        // cluster (ids congruent mod k) should land in one modal list.
        let mut list_of = vec![0u32; 600];
        for l in 0..idx.nlists() {
            for &item in idx.list(l) {
                list_of[item as usize] = l as u32;
            }
        }
        for class in 0..k as u32 {
            let mut counts = vec![0usize; idx.nlists()];
            let members: Vec<usize> = (0..600).filter(|i| *i as u32 % k as u32 == class).collect();
            for &m in &members {
                counts[list_of[m] as usize] += 1;
            }
            let modal = *counts.iter().max().expect("nonempty");
            assert!(
                modal as f64 / members.len() as f64 > 0.95,
                "ground-truth cluster {class} split across lists: {counts:?}"
            );
        }
    }

    #[test]
    fn build_is_bit_identical_across_thread_counts() {
        let items = clustered(700, 9, 24, 11);
        let params = IvfParams::new();
        let mut prints = Vec::new();
        for threads in [1usize, 3, 4] {
            graphaug_par::set_thread_count(threads);
            prints.push(IvfIndex::build(&items, &params).fingerprint());
        }
        graphaug_par::set_thread_count(1);
        assert_eq!(prints[0], prints[1], "threads=1 vs 3");
        assert_eq!(prints[0], prints[2], "threads=1 vs 4");
    }

    #[test]
    fn probe_ranks_lists_by_inner_product_with_stable_ties() {
        let items = clustered(200, 4, 8, 5);
        let idx = IvfIndex::build(&items, &IvfParams::new().nlists(4));
        let query = items.row(0);
        let all = idx.probe(query, idx.nlists());
        assert_eq!(all.len(), idx.nlists());
        // Probing more lists only ever extends the prefix.
        for p in 1..idx.nlists() {
            assert_eq!(idx.probe(query, p), all[..p], "nprobe={p}");
        }
        // The probed-first list should contain the query item itself (its
        // own cluster is nearest in a separated mixture).
        let catalog_list = (0..idx.nlists())
            .find(|&l| idx.list(l).contains(&0))
            .unwrap();
        assert!(
            all[..2].contains(&(catalog_list as u32)),
            "own cluster not probed early: {all:?}"
        );
    }

    #[test]
    fn tiny_catalogs_degenerate_cleanly() {
        let items = clustered(3, 1, 8, 2);
        let idx = IvfIndex::build(&items, &IvfParams::new());
        assert_eq!(idx.len(), 3);
        assert!(idx.nlists() >= 1);
        assert!(!idx.is_empty());
        let probed = idx.probe(items.row(1), 99);
        assert_eq!(probed.len(), idx.nlists(), "nprobe clamps to nlists");
    }
}
