//! Hierarchical navigable small-world graph (Malkov & Yashunin, 2016)
//! over cosine similarity — the approximate [`VectorIndex`] backend.
//!
//! Determinism: level assignment draws from the seeded `rand` shim and
//! every heap comparison breaks similarity ties by candidate id
//! (`f32::total_cmp` then id), so the same `(data, params)` pair
//! always builds the same graph and answers queries identically. The
//! level RNG lives in the index, so the same *operation sequence*
//! (build, then any interleaving of [`HnswIndex::insert`] /
//! [`HnswIndex::remove`] / [`HnswIndex::compact`]) is deterministic
//! too, and a persisted graph replays the RNG stream on restore
//! ([`crate::persist`]) so post-restore inserts match a never-saved
//! twin.
//!
//! Production supervision arrives continuously, so the graph is *not*
//! build-once: [`HnswIndex::insert`] wires new exemplars into the live
//! graph (the same path construction uses), [`HnswIndex::remove`]
//! tombstones retired ones (kept for graph connectivity, filtered from
//! results), and when the tombstone ratio crosses
//! [`HnswParams::compact_ratio`] a removal triggers a compaction
//! rebuild over the live rows (see [`HnswIndex::remove`] for the id
//! contract).

use crate::{Neighbor, VectorIndex};
use linalg::ops::{norm, row_norms};
use linalg::quant::{PreparedQuery, Quantization, QuantizedMatrix};
use linalg::Matrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cell::{Cell, RefCell};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

thread_local! {
    /// Per-thread visited scratch for [`HnswIndex::search_layer`]:
    /// node id → epoch it was last touched in. Reused across queries
    /// (and across indexes — ids are positional) so a query allocates
    /// nothing once the thread has warmed up.
    static VISITED_SCRATCH: RefCell<(Vec<u32>, u32)> = const { RefCell::new((Vec::new(), 0)) };
}

thread_local! {
    /// Full graph-construction passes (initial builds + compaction
    /// rebuilds) run **on this thread**. A service cold-starting from
    /// a persisted snapshot must leave this untouched — that claim is
    /// asserted against this counter, not hoped for. Thread-local
    /// (construction is synchronous on the calling thread) so the
    /// assertion is exact even while sibling test threads build their
    /// own indexes concurrently.
    static CONSTRUCTION_PASSES: Cell<usize> = const { Cell::new(0) };
}

/// Number of O(n·ef_construction) graph-construction passes the
/// calling thread has run (builds and compactions; snapshot restores
/// don't count).
pub fn construction_passes() -> usize {
    CONSTRUCTION_PASSES.with(Cell::get)
}

/// Records one construction pass on the calling thread.
fn count_construction_pass() {
    CONSTRUCTION_PASSES.with(|c| c.set(c.get() + 1));
}

/// What one candidate evaluation of the beam search costs in
/// [`linalg::par`]'s unit (a tile-kernel multiply-add, ≈ 0.066 ns).
/// The heap, the visited set and the random row fetch are the cost,
/// not the `dim` multiply-adds: on the reference container a query at
/// default parameters and 32 dims takes 60–80 µs against 700 rows
/// (every node evaluated: ≈ 100 ns each) and 170–250 µs against
/// 10 000, f32 or i8 — fifty times the i8 scan of the same 700 rows.
/// 2¹⁰ (≈ 68 ns) errs towards fanning out late: a batch splits from
/// 12 queries at 700 rows, from 2 at 10 000, and a 4-line micro-batch
/// against a 64-row tenant graph never does.
const EVAL_WORK: usize = 1 << 10;

/// HNSW build/search parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HnswParams {
    /// Max links per node on upper layers (layer 0 allows `2m`).
    pub m: usize,
    /// Candidate-list width during construction.
    pub ef_construction: usize,
    /// Candidate-list width during queries (clamped up to `k`).
    pub ef_search: usize,
    /// Seed for the level-assignment RNG.
    pub seed: u64,
    /// Tombstone fraction (`removed / total rows`) above which a
    /// [`HnswIndex::remove`] triggers a compaction rebuild.
    pub compact_ratio: f32,
}

impl Default for HnswParams {
    fn default() -> Self {
        // Tuned on 10k × 64-dim sets: recall@1 ≈ 0.99 on both
        // isotropic-Gaussian and cluster-structured data (the latter
        // gated at ≥ 0.99 by `tests/recall.rs`). Lower `ef_search` for
        // more speed at the cost of recall.
        HnswParams {
            m: 24,
            ef_construction: 300,
            ef_search: 128,
            seed: 0x05EE_D1D5,
            compact_ratio: 0.3,
        }
    }
}

impl HnswParams {
    /// Overrides the query-time candidate width.
    pub fn with_ef_search(mut self, ef_search: usize) -> Self {
        self.ef_search = ef_search.max(1);
        self
    }

    /// Overrides the per-node link budget.
    pub fn with_m(mut self, m: usize) -> Self {
        self.m = m.max(2);
        self
    }

    /// Overrides the tombstone ratio that triggers compaction.
    pub fn with_compact_ratio(mut self, ratio: f32) -> Self {
        self.compact_ratio = ratio.clamp(0.0, 1.0);
        self
    }
}

/// A search frontier entry ordered by similarity (ties by id) so
/// `BinaryHeap` pops the most similar candidate first.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Scored {
    similarity: f32,
    id: usize,
}

impl Eq for Scored {}

impl Ord for Scored {
    fn cmp(&self, other: &Self) -> Ordering {
        self.similarity
            .total_cmp(&other.similarity)
            .then_with(|| other.id.cmp(&self.id))
    }
}

impl PartialOrd for Scored {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// The approximate nearest-neighbour graph.
///
/// Candidates live in a [`QuantizedMatrix`]; the default f32 storage
/// is bit-identical to the historical graph, while f16/i8 cut the
/// bytes each beam search streams. Norms stay the original f32 row
/// norms in every format.
#[derive(Debug, Clone)]
pub struct HnswIndex {
    data: QuantizedMatrix,
    norms: Vec<f32>,
    params: HnswParams,
    /// `links[node][level]` = neighbour ids of `node` at `level`;
    /// a node participates in levels `0..links[node].len()`.
    links: Vec<Vec<Vec<usize>>>,
    /// Entry node for searches (member of the top level).
    entry: usize,
    /// Highest populated level.
    top_level: usize,
    /// `tombstone[node]` = removed; kept in the graph for traversal,
    /// filtered from results until the next compaction.
    tombstone: Vec<bool>,
    /// Count of set tombstones.
    dead: usize,
    /// Level-assignment RNG; lives here so interleaved build/insert
    /// sequences are deterministic.
    rng: StdRng,
    /// Level draws consumed so far — persisted so a restored index
    /// replays the RNG stream to the same point.
    draws: u64,
}

impl HnswIndex {
    /// Builds the graph over `data` in f32, deriving candidate norms.
    pub fn build(data: Matrix, params: HnswParams) -> Self {
        let norms = row_norms(&data);
        Self::build_with_norms(data, norms, params)
    }

    /// Builds the graph over `data` in f32 with norms the caller
    /// already holds. Counts as one construction pass
    /// ([`construction_passes`]).
    ///
    /// # Panics
    ///
    /// Panics if `norms.len() != data.rows()` or `params.m < 2`.
    pub fn build_with_norms(data: Matrix, norms: Vec<f32>, params: HnswParams) -> Self {
        Self::build_quantized(data, norms, params, Quantization::F32)
    }

    /// [`HnswIndex::build_with_norms`] with candidates stored in the
    /// chosen format (norms are always the original f32 norms).
    ///
    /// # Panics
    ///
    /// Panics if `norms.len() != data.rows()` or `params.m < 2`.
    pub fn build_quantized(
        data: Matrix,
        norms: Vec<f32>,
        params: HnswParams,
        quant: Quantization,
    ) -> Self {
        assert_eq!(norms.len(), data.rows(), "one norm per candidate row");
        assert!(params.m >= 2, "HNSW needs at least 2 links per node");
        let n = data.rows();
        let mut index = HnswIndex {
            data: QuantizedMatrix::encode(data, quant),
            norms,
            params,
            links: Vec::with_capacity(n),
            entry: 0,
            top_level: 0,
            tombstone: Vec::with_capacity(n),
            dead: 0,
            rng: StdRng::seed_from_u64(params.seed),
            draws: 0,
        };
        for i in 0..n {
            index.grow(i);
        }
        count_construction_pass();
        index
    }

    /// The build/search parameters.
    pub fn params(&self) -> &HnswParams {
        &self.params
    }

    /// The per-node adjacency lists (`links()[node][level]`), exposed
    /// so persistence round-trip tests can compare graphs node for
    /// node.
    pub fn links(&self) -> &[Vec<Vec<usize>>] {
        &self.links
    }

    /// Number of tombstoned (removed but not yet compacted) nodes.
    pub fn tombstones(&self) -> usize {
        self.dead
    }

    /// Number of live (non-tombstoned) candidates.
    pub fn live(&self) -> usize {
        self.data.rows() - self.dead
    }

    /// Whether the tombstone ratio has crossed
    /// [`HnswParams::compact_ratio`] (the next [`HnswIndex::remove`]
    /// will compact; callers batching removals may also call
    /// [`HnswIndex::compact`] themselves).
    pub fn needs_compaction(&self) -> bool {
        self.dead > 0 && self.dead as f32 >= self.params.compact_ratio * self.data.rows() as f32
    }

    /// Inserts a new candidate into the live graph (the same wiring
    /// path construction uses) and returns its id — ids are assigned
    /// densely, so the new id is the previous [`VectorIndex::len`].
    ///
    /// # Panics
    ///
    /// Panics if `row.len() != self.dim()` on a non-empty index.
    pub fn insert(&mut self, row: &[f32]) -> usize {
        let n = norm(row);
        self.insert_with_norm(row, n)
    }

    /// [`HnswIndex::insert`] with a norm the caller already holds.
    pub fn insert_with_norm(&mut self, row: &[f32], row_norm: f32) -> usize {
        if self.data.rows() > 0 {
            assert_eq!(row.len(), self.dim(), "insert dimensionality mismatch");
        }
        let id = self.data.rows();
        self.data.push_row(row);
        self.norms.push(row_norm);
        self.grow(id);
        id
    }

    /// Tombstones candidate `id`: it stays in the graph for traversal
    /// but is filtered from every future result. Returns `None` if
    /// `id` is out of range or already removed (nothing happened).
    ///
    /// On success the removal may push the tombstone ratio across
    /// [`HnswParams::compact_ratio`] and trigger a
    /// [`HnswIndex::compact`] rebuild, which **renumbers ids**: the
    /// returned remap is then non-empty (`remap[old] = Some(new)`),
    /// and callers keeping per-id side tables (labels, metadata) must
    /// apply it. A plain tombstoning returns `Some` of an **empty**
    /// remap — ids unchanged.
    pub fn remove(&mut self, id: usize) -> Option<Vec<Option<usize>>> {
        if id >= self.data.rows() || self.tombstone[id] {
            return None;
        }
        self.tombstone[id] = true;
        self.dead += 1;
        if self.needs_compaction() {
            Some(self.compact())
        } else {
            Some(Vec::new())
        }
    }

    /// Rebuilds the graph over the live rows only, dropping tombstoned
    /// data. Counts as one construction pass. Returns the id remap
    /// (`remap[old_id] = Some(new_id)` for survivors, `None` for
    /// tombstoned rows); an empty remap means nothing was tombstoned
    /// and the graph is unchanged.
    pub fn compact(&mut self) -> Vec<Option<usize>> {
        if self.dead == 0 {
            return Vec::new();
        }
        let old_rows = self.data.rows();
        let mut remap: Vec<Option<usize>> = vec![None; old_rows];
        let mut keep = Vec::with_capacity(old_rows - self.dead);
        let mut live_norms = Vec::with_capacity(old_rows - self.dead);
        let mut next = 0usize;
        for (old, slot) in remap.iter_mut().enumerate() {
            if self.tombstone[old] {
                continue;
            }
            *slot = Some(next);
            keep.push(old);
            live_norms.push(self.norms[old]);
            next += 1;
        }
        // Raw-code row copy: compaction never decodes and re-encodes,
        // so it is lossless in every storage format.
        self.data = self.data.select_rows(&keep);
        self.norms = live_norms;
        self.links = Vec::with_capacity(next);
        self.tombstone = Vec::with_capacity(next);
        self.entry = 0;
        self.top_level = 0;
        self.dead = 0;
        for i in 0..next {
            self.grow(i);
        }
        count_construction_pass();
        remap
    }

    /// Draws a level for node `i` (which `data`/`norms` already hold)
    /// and wires it into the graph.
    fn grow(&mut self, i: usize) {
        let level_scale = 1.0 / (self.params.m as f64).ln();
        let level = sample_level(&mut self.rng, level_scale);
        self.draws += 1;
        self.tombstone.push(false);
        self.insert_node(i, level);
    }

    /// Cosine similarity between candidate `id` and a prepared query
    /// whose norm is already known (0.0 on degenerate norms, as the
    /// historical `cosine_with_norms` guaranteed — the zero-norm
    /// contract holds in every storage format).
    ///
    /// Queries are prepared **once per graph operation** (query,
    /// insert, prune) — see [`QuantizedMatrix::prepare_query`] — so on
    /// i8 storage every per-candidate evaluation in the beam search is
    /// a pure integer-kernel dot instead of re-quantizing the query.
    #[inline]
    fn sim(&self, id: usize, pq: &PreparedQuery<'_>, query_norm: f32) -> f32 {
        self.data
            .cosine_row_prepared(id, self.norms[id], pq, query_norm)
    }

    /// Greedy descent at one layer: hill-climb to the locally most
    /// similar node.
    fn greedy(
        &self,
        pq: &PreparedQuery<'_>,
        query_norm: f32,
        mut best: Scored,
        level: usize,
    ) -> Scored {
        loop {
            let mut improved = false;
            for &nb in &self.links[best.id][level] {
                let s = Scored {
                    similarity: self.sim(nb, pq, query_norm),
                    id: nb,
                };
                if s > best {
                    best = s;
                    improved = true;
                }
            }
            if !improved {
                return best;
            }
        }
    }

    /// Best-first beam search at one layer; returns up to `ef`
    /// candidates sorted by descending similarity.
    ///
    /// Visited marking uses a thread-local epoch-stamped scratch
    /// instead of a fresh `vec![false; n]`: per-query cost stays
    /// proportional to the nodes actually touched, not the index size
    /// (the allocation would otherwise dominate at serving scale).
    fn search_layer(
        &self,
        pq: &PreparedQuery<'_>,
        query_norm: f32,
        entries: &[Scored],
        ef: usize,
        level: usize,
    ) -> Vec<Scored> {
        VISITED_SCRATCH.with(|scratch| {
            let (stamps, epoch) = &mut *scratch.borrow_mut();
            if stamps.len() < self.links.len() {
                stamps.resize(self.links.len(), 0);
            }
            *epoch = epoch.wrapping_add(1);
            if *epoch == 0 {
                stamps.fill(0);
                *epoch = 1;
            }
            let epoch = *epoch;
            // Returns whether `id` was already seen, marking it if not.
            let seen = |stamps: &mut Vec<u32>, id: usize| {
                if stamps[id] == epoch {
                    true
                } else {
                    stamps[id] = epoch;
                    false
                }
            };
            // Frontier pops most-similar first; results evict
            // least-similar.
            let mut frontier: BinaryHeap<Scored> = BinaryHeap::new();
            let mut results: BinaryHeap<std::cmp::Reverse<Scored>> = BinaryHeap::new();
            for &e in entries {
                if !seen(stamps, e.id) {
                    frontier.push(e);
                    results.push(std::cmp::Reverse(e));
                }
            }
            while results.len() > ef {
                results.pop();
            }
            while let Some(current) = frontier.pop() {
                let worst = results.peek().expect("results seeded from entries").0;
                if results.len() >= ef && current < worst {
                    break;
                }
                for &nb in &self.links[current.id][level] {
                    if seen(stamps, nb) {
                        continue;
                    }
                    let cand = Scored {
                        similarity: self.sim(nb, pq, query_norm),
                        id: nb,
                    };
                    let worst = results.peek().expect("non-empty").0;
                    if results.len() < ef || cand > worst {
                        frontier.push(cand);
                        results.push(std::cmp::Reverse(cand));
                        if results.len() > ef {
                            results.pop();
                        }
                    }
                }
            }
            let mut out: Vec<Scored> = results.into_iter().map(|r| r.0).collect();
            out.sort_by(|a, b| b.cmp(a));
            out
        })
    }

    /// Link budget at a layer (layer 0 is denser, as in the paper).
    fn max_links(&self, level: usize) -> usize {
        if level == 0 {
            self.params.m * 2
        } else {
            self.params.m
        }
    }

    /// Inserts node `i` at `level`, wiring bidirectional links.
    fn insert_node(&mut self, i: usize, level: usize) {
        self.links.push(vec![Vec::new(); level + 1]);
        if i == 0 {
            self.entry = 0;
            self.top_level = level;
            return;
        }
        // The wiring anchor is the *stored* (possibly dequantized) row
        // — build and insert then agree exactly, whatever the format.
        let query: Vec<f32> = self.data.decode_row(i);
        let pq = self.data.prepare_query(&query);
        let nq = self.norms[i];
        let mut ep = Scored {
            similarity: self.sim(self.entry, &pq, nq),
            id: self.entry,
        };
        // Descend through layers above the new node's level greedily.
        for l in (level + 1..=self.top_level).rev() {
            ep = self.greedy(&pq, nq, ep, l);
        }
        // Beam-search each shared layer and wire the best m links.
        let mut entries = vec![ep];
        for l in (0..=level.min(self.top_level)).rev() {
            let found = self.search_layer(&pq, nq, &entries, self.params.ef_construction, l);
            for &nb in found.iter().take(self.params.m) {
                self.links[i][l].push(nb.id);
                self.links[nb.id][l].push(i);
                if self.links[nb.id][l].len() > self.max_links(l) {
                    self.prune(nb.id, l);
                }
            }
            entries = found;
        }
        if level > self.top_level {
            self.top_level = level;
            self.entry = i;
        }
    }

    /// Shrinks an over-full link list to the layer budget, keeping the
    /// most similar neighbours (ties by id, deterministically).
    fn prune(&mut self, node: usize, level: usize) {
        let anchor: Vec<f32> = self.data.decode_row(node);
        let pa = self.data.prepare_query(&anchor);
        let na = self.norms[node];
        let mut scored: Vec<Scored> = self.links[node][level]
            .iter()
            .map(|&nb| Scored {
                similarity: self.sim(nb, &pa, na),
                id: nb,
            })
            .collect();
        scored.sort_by(|a, b| b.cmp(a));
        scored.truncate(self.max_links(level));
        self.links[node][level] = scored.into_iter().map(|s| s.id).collect();
    }

    /// Disassembles the index for persistence (graph, data, norms, RNG
    /// replay count — everything a restore needs to continue the
    /// operation stream deterministically).
    #[allow(clippy::type_complexity)]
    pub(crate) fn to_parts(
        &self,
    ) -> (
        &QuantizedMatrix,
        &[f32],
        HnswParams,
        &[Vec<Vec<usize>>],
        usize,
        usize,
        &[bool],
        u64,
    ) {
        (
            &self.data,
            &self.norms,
            self.params,
            &self.links,
            self.entry,
            self.top_level,
            &self.tombstone,
            self.draws,
        )
    }

    /// Reassembles a persisted index **without** a construction pass:
    /// the saved graph is adopted as-is and the level RNG is replayed
    /// `draws` samples forward so later inserts match a never-saved
    /// twin.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_parts(
        data: QuantizedMatrix,
        norms: Vec<f32>,
        params: HnswParams,
        links: Vec<Vec<Vec<usize>>>,
        entry: usize,
        top_level: usize,
        tombstone: Vec<bool>,
        draws: u64,
    ) -> Self {
        let mut rng = StdRng::seed_from_u64(params.seed);
        let level_scale = 1.0 / (params.m as f64).ln();
        for _ in 0..draws {
            sample_level(&mut rng, level_scale);
        }
        let dead = tombstone.iter().filter(|&&t| t).count();
        HnswIndex {
            data,
            norms,
            params,
            links,
            entry,
            top_level,
            tombstone,
            dead,
            rng,
            draws,
        }
    }
}

/// Draws a node level from the standard HNSW geometric-ish
/// distribution `floor(-ln(U) · scale)`, capped to keep pathological
/// draws from building absurd towers.
fn sample_level(rng: &mut StdRng, scale: f64) -> usize {
    let u: f64 = rng.gen();
    let level = (-(1.0 - u).ln() * scale).floor();
    (level as usize).min(24)
}

impl VectorIndex for HnswIndex {
    fn len(&self) -> usize {
        self.data.rows()
    }

    fn dim(&self) -> usize {
        self.data.cols()
    }

    fn query(&self, query: &[f32], k: usize) -> Vec<Neighbor> {
        assert_eq!(query.len(), self.dim(), "query dimensionality mismatch");
        if self.is_empty() || k == 0 || self.live() == 0 {
            return Vec::new();
        }
        // Prepared once per query: the whole greedy descent + beam
        // search below reuses the validated (and, on i8, quantized)
        // query.
        let pq = self.data.prepare_query(query);
        let nq = norm(query);
        let mut ep = Scored {
            similarity: self.sim(self.entry, &pq, nq),
            id: self.entry,
        };
        for l in (1..=self.top_level).rev() {
            ep = self.greedy(&pq, nq, ep, l);
        }
        // Widen the beam so filtering the dead out afterwards still
        // tends to leave k live candidates — but cap the widening at
        // one extra ef_search: an index idling just under the
        // compaction ratio must not degrade every query towards a
        // linear scan (approximate backends may return < k when the
        // cap bites; callers already tolerate that).
        let base = self.params.ef_search.max(k);
        let ef = base.saturating_add(self.dead.min(base));
        let found = self.search_layer(&pq, nq, &[ep], ef, 0);
        found
            .into_iter()
            .filter(|s| !self.tombstone[s.id])
            .take(k)
            .map(|s| Neighbor {
                id: s.id,
                similarity: s.similarity,
            })
            .collect()
    }

    fn query_batch(&self, queries: &Matrix, k: usize) -> Vec<Vec<Neighbor>> {
        let mut out = vec![Vec::new(); queries.rows()];
        // A layer-0 beam evaluates at most `ef_search · 2m` candidates
        // (every candidate it expands has ≤ 2m links) and never more
        // than the graph holds.
        let evals = self.len().min(self.params.ef_search * 2 * self.params.m);
        let work = queries.rows().saturating_mul(evals * EVAL_WORK);
        linalg::par::for_each_chunk_mut(&mut out, 1, work, |first, slots| {
            for (i, slot) in slots.iter_mut().enumerate() {
                *slot = self.query(queries.row(first + i), k);
            }
        });
        out
    }

    fn insert(&mut self, row: &[f32]) -> usize {
        HnswIndex::insert(self, row)
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn quantization(&self) -> Quantization {
        self.data.quantization()
    }

    fn candidate_bytes(&self) -> usize {
        self.data.candidate_bytes()
    }

    fn resident_bytes(&self) -> usize {
        let links: usize = self
            .links
            .iter()
            .map(|levels| {
                levels
                    .iter()
                    .map(|l| l.len() * std::mem::size_of::<usize>())
                    .sum::<usize>()
            })
            .sum();
        self.data.candidate_bytes()
            + self.norms.len() * std::mem::size_of::<f32>()
            + links
            + self.tombstone.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ExactIndex;
    use linalg::rng::randn;

    #[test]
    fn finds_the_exact_nearest_on_clustered_data() {
        let mut rng = StdRng::seed_from_u64(21);
        let centers = randn(&mut rng, 12, 16, 1.0);
        let data = linalg::rng::clustered_around(&mut rng, &centers, 300, 0.15);
        let exact = ExactIndex::build(data.clone());
        let hnsw = HnswIndex::build(data.clone(), HnswParams::default());
        let queries = linalg::rng::clustered_around(&mut rng, &centers, 24, 0.15);
        let mut hits = 0;
        for r in 0..queries.rows() {
            let want = exact.query(queries.row(r), 1)[0];
            let got = hnsw.query(queries.row(r), 1)[0];
            if got.id == want.id {
                hits += 1;
                assert_eq!(got.similarity, want.similarity);
            }
        }
        assert!(hits >= 22, "recall@1 too low: {hits}/24");
    }

    #[test]
    fn same_seed_builds_identical_graphs() {
        let mut rng = StdRng::seed_from_u64(22);
        let data = randn(&mut rng, 120, 8, 1.0);
        let a = HnswIndex::build(data.clone(), HnswParams::default());
        let b = HnswIndex::build(data.clone(), HnswParams::default());
        assert_eq!(a.links, b.links);
        let q = data.row(17);
        assert_eq!(a.query(q, 5), b.query(q, 5));
    }

    #[test]
    fn insert_after_build_matches_building_all_at_once() {
        // The RNG lives in the index and the insert path is the
        // construction path, so build(80) + 40 inserts must equal
        // build(120) node for node.
        let mut rng = StdRng::seed_from_u64(31);
        let data = randn(&mut rng, 120, 8, 1.0);
        let all_at_once = HnswIndex::build(data.clone(), HnswParams::default());
        let mut incremental = HnswIndex::build(data.row_block(0, 80), HnswParams::default());
        for r in 80..120 {
            let id = incremental.insert(data.row(r));
            assert_eq!(id, r);
        }
        assert_eq!(incremental.links, all_at_once.links);
        assert_eq!(incremental.entry, all_at_once.entry);
        let q = data.row(17);
        assert_eq!(incremental.query(q, 5), all_at_once.query(q, 5));
    }

    #[test]
    fn removed_nodes_never_surface_in_results() {
        let mut rng = StdRng::seed_from_u64(32);
        let data = randn(&mut rng, 200, 8, 1.0);
        // High threshold so removals tombstone without compacting.
        let params = HnswParams::default().with_compact_ratio(0.9);
        let mut idx = HnswIndex::build(data.clone(), params);
        for id in [3, 17, 42, 99] {
            assert_eq!(idx.remove(id), Some(Vec::new()));
        }
        assert_eq!(idx.tombstones(), 4);
        assert_eq!(idx.live(), 196);
        // Double-remove and out-of-range are rejected.
        assert_eq!(idx.remove(3), None);
        assert_eq!(idx.remove(10_000), None);
        for r in (0..200).step_by(13) {
            for n in idx.query(data.row(r), 10) {
                assert!(!matches!(n.id, 3 | 17 | 42 | 99), "tombstoned id surfaced");
            }
        }
    }

    #[test]
    fn crossing_the_tombstone_ratio_triggers_compaction() {
        let mut rng = StdRng::seed_from_u64(33);
        let data = randn(&mut rng, 60, 6, 1.0);
        let params = HnswParams::default().with_compact_ratio(0.25);
        let mut idx = HnswIndex::build(data.clone(), params);
        let passes_before = construction_passes();
        // 14 tombstones stay under the 25% ratio; the 15th compacts.
        for id in 0..14 {
            assert_eq!(idx.remove(id), Some(Vec::new()), "id {id}");
        }
        assert_eq!(construction_passes(), passes_before);
        let remap = idx.remove(14).expect("15th removal compacts");
        assert_eq!(construction_passes(), passes_before + 1);
        assert_eq!(remap.len(), 60);
        assert!(remap[..15].iter().all(Option::is_none));
        // Survivors renumber densely in order.
        for (offset, slot) in remap[15..].iter().enumerate() {
            assert_eq!(*slot, Some(offset));
        }
        assert_eq!(idx.len(), 45);
        assert_eq!(idx.tombstones(), 0);
        // The compacted graph still answers: a survivor finds itself.
        let top = idx.query(data.row(30), 1);
        assert_eq!(top[0].id, remap[30].unwrap());
    }

    #[test]
    fn removing_every_node_then_compacting_leaves_a_working_empty_index() {
        let mut rng = StdRng::seed_from_u64(34);
        let data = randn(&mut rng, 30, 5, 1.0);
        // Ratio 1.0: tombstones accumulate without compacting until the
        // last removal empties the index.
        let params = HnswParams::default().with_compact_ratio(1.0);
        let mut idx = HnswIndex::build(data.clone(), params);
        for id in 0..29 {
            assert_eq!(idx.remove(id), Some(Vec::new()), "id {id}");
        }
        let remap = idx.remove(29).expect("last removal compacts");
        assert_eq!(remap.len(), 30);
        assert!(remap.iter().all(Option::is_none));
        assert_eq!(idx.len(), 0);
        assert_eq!(idx.live(), 0);
        assert_eq!(idx.tombstones(), 0);
        assert!(idx.query(data.row(0), 3).is_empty());
        // A second compaction of the empty index is a no-op.
        assert!(idx.compact().is_empty());

        // Inserts into the emptied index assign fresh dense ids from 0
        // and the graph answers again.
        for r in 0..5 {
            assert_eq!(idx.insert(data.row(r)), r);
        }
        assert_eq!(idx.len(), 5);
        let top = idx.query(data.row(2), 1);
        assert_eq!(top[0].id, 2);
        assert!((top[0].similarity - 1.0).abs() < 1e-5);
    }

    #[test]
    fn insert_after_compaction_never_reuses_a_tombstoned_slot() {
        let mut rng = StdRng::seed_from_u64(35);
        let data = randn(&mut rng, 40, 5, 1.0);
        let params = HnswParams::default().with_compact_ratio(0.9);
        let mut idx = HnswIndex::build(data.clone(), params);
        for id in [1, 5, 9] {
            idx.remove(id);
        }
        // Tombstones present, no compaction yet: a new insert must get
        // a fresh id past the end, not a recycled dead slot.
        let fresh = idx.insert(data.row(0));
        assert_eq!(fresh, 40);
        assert!(!idx.query(data.row(0), 40).iter().any(|n| n.id == 1));

        let remap = idx.compact();
        assert_eq!(idx.tombstones(), 0);
        assert_eq!(idx.len(), 38);
        // Post-compaction ids are a fresh dense space; the next insert
        // extends it.
        assert_eq!(idx.insert(data.row(3)), 38);
        let got = idx.query(data.row(3), 2);
        assert_eq!(got[0].similarity, 1.0);
        // Every surviving id answers queries inside the new bounds.
        for n in idx.query(data.row(7), 39) {
            assert!(n.id < idx.len());
        }
        assert_eq!(remap.len(), 41);
    }

    #[test]
    fn empty_build_accepts_inserts_and_queries() {
        let mut idx = HnswIndex::build(Matrix::zeros(0, 3), HnswParams::default());
        assert!(idx.is_empty());
        assert!(idx.query(&[1.0, 0.0, 0.0], 2).is_empty());
        assert_eq!(idx.insert(&[1.0, 0.0, 0.0]), 0);
        assert_eq!(idx.insert(&[0.0, 1.0, 0.0]), 1);
        let top = idx.query(&[0.9, 0.1, 0.0], 1);
        assert_eq!(top[0].id, 0);
    }

    #[test]
    fn link_budgets_are_respected() {
        let mut rng = StdRng::seed_from_u64(23);
        let data = randn(&mut rng, 300, 8, 1.0);
        let params = HnswParams::default().with_m(6);
        let idx = HnswIndex::build(data, params);
        for (node, levels) in idx.links.iter().enumerate() {
            for (l, nbs) in levels.iter().enumerate() {
                let budget = if l == 0 { 12 } else { 6 };
                assert!(
                    nbs.len() <= budget,
                    "node {node} level {l} has {} links",
                    nbs.len()
                );
            }
        }
    }

    #[test]
    fn singleton_and_tiny_indexes_answer() {
        let data = Matrix::from_rows(&[&[1.0, 0.0]]);
        let idx = HnswIndex::build(data, HnswParams::default());
        let top = idx.query(&[1.0, 0.0], 3);
        assert_eq!(top.len(), 1);
        assert_eq!(top[0].id, 0);
    }

    #[test]
    fn query_k_zero_is_empty() {
        let data = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0]]);
        let idx = HnswIndex::build(data, HnswParams::default());
        assert!(idx.query(&[1.0, 0.0], 0).is_empty());
    }

    #[test]
    fn quantized_insert_after_build_matches_building_all_at_once() {
        // Per-row quantization is independent of neighbouring rows and
        // the RNG lives in the index, so the build/insert equivalence
        // holds in every storage format, not just f32.
        let mut rng = StdRng::seed_from_u64(36);
        let data = randn(&mut rng, 100, 8, 1.0);
        for quant in [Quantization::F16, Quantization::I8] {
            let all = HnswIndex::build_quantized(
                data.clone(),
                row_norms(&data),
                HnswParams::default(),
                quant,
            );
            let head = data.row_block(0, 70);
            let mut incremental = HnswIndex::build_quantized(
                head.clone(),
                row_norms(&head),
                HnswParams::default(),
                quant,
            );
            for r in 70..100 {
                assert_eq!(incremental.insert(data.row(r)), r, "{quant}");
            }
            assert_eq!(incremental.links, all.links, "{quant}");
            let q = data.row(17);
            assert_eq!(incremental.query(q, 5), all.query(q, 5), "{quant}");
        }
    }

    #[test]
    fn quantized_compaction_is_lossless() {
        let mut rng = StdRng::seed_from_u64(37);
        let data = randn(&mut rng, 60, 6, 1.0);
        for quant in [Quantization::F16, Quantization::I8] {
            let params = HnswParams::default().with_compact_ratio(0.9);
            let mut idx = HnswIndex::build_quantized(data.clone(), row_norms(&data), params, quant);
            for id in [2, 7, 11] {
                idx.remove(id);
            }
            let before: Vec<Vec<f32>> = (0..60).map(|r| idx.data.decode_row(r)).collect();
            let remap = idx.compact();
            assert_eq!(idx.quantization(), quant);
            // Raw-code row copy: survivors decode to exactly the bytes
            // they held before compaction (no re-quantization drift).
            for (old, slot) in remap.iter().enumerate() {
                if let Some(new) = slot {
                    assert_eq!(idx.data.decode_row(*new), before[old], "{quant}");
                }
            }
        }
    }

    #[test]
    fn all_zero_rows_and_queries_stay_finite_in_every_format() {
        // Zero-norm pin at the graph level: degenerate rows score 0.0
        // through `sim` (the cosine_with_norms contract) in every
        // storage format, traversal never divides by zero, and results
        // stay deterministic.
        let data = Matrix::from_rows(&[
            &[0.0, 0.0, 0.0],
            &[1.0, 0.0, 0.0],
            &[0.0, 1.0, 0.0],
            &[0.0, 0.0, 0.0],
        ]);
        for quant in [Quantization::F32, Quantization::F16, Quantization::I8] {
            let idx = HnswIndex::build_quantized(
                data.clone(),
                row_norms(&data),
                HnswParams::default(),
                quant,
            );
            let top = idx.query(&[1.0, 0.0, 0.0], 4);
            assert!(top.iter().all(|n| n.similarity.is_finite()), "{quant}");
            assert_eq!(top[0].id, 1, "{quant}");
            for n in &top {
                if matches!(n.id, 0 | 3) {
                    assert_eq!(n.similarity, 0.0, "{quant}: zero row must score 0.0");
                }
            }
            let zero_q = idx.query(&[0.0, 0.0, 0.0], 4);
            assert_eq!(zero_q, idx.query(&[0.0, 0.0, 0.0], 4), "{quant}");
            assert!(zero_q.iter().all(|n| n.similarity == 0.0), "{quant}");
        }
    }
}
