//! Brute-force cosine scan with build-time norm caching — the
//! paper-faithful [`VectorIndex`] backend.

use crate::{Neighbor, VectorIndex};
use linalg::kernels::I8Kernel;
use linalg::ops::{norm, row_norms};
use linalg::quant::{PreparedBlock, Quantization, QuantizedMatrix, TileScratch, SCAN_TILE_ROWS};
use linalg::Matrix;
use std::cmp::Ordering;

/// Queries scored together against each candidate tile: enough to
/// amortize a tile's f16 decode (and the i8 rows' sign-extension) many
/// times over, while everything a tile touches per block — its
/// `QUERY_BLOCK × SCAN_TILE_ROWS` scores (4 KiB), the i8 sums beside
/// them (4 KiB) and the widened query block (1 KiB at 32 dims) — stays
/// in L1. Nothing per query grows with the candidate count: the
/// selection state is the k neighbours held so far.
const QUERY_BLOCK: usize = 16;

/// Exact top-k by full scan.
///
/// Candidate norms are computed once at build time; each query pays
/// one norm plus one dot product per candidate. Neighbours come back
/// in [`crate::neighbour_cmp`] order — similarity descending, ties in
/// candidate row order — exactly what the historical per-detector
/// scans' stable descending sort produced, which is what makes
/// exact-backed detector scores bit-identical to the pre-index code.
///
/// Candidates live in a [`QuantizedMatrix`]: the default f32 storage
/// reproduces the historical kernels bit for bit, while f16/i8 halve
/// or quarter the bytes each scan streams (what they must keep in
/// exchange is gated by `tests/quantized.rs`).
/// Norms stay the **original f32** row norms in every format — the
/// quantized kernels reuse the same cache.
///
/// Every query — single ([`VectorIndex::query`]) or batched — runs the
/// same **single-pass blocked scan** (`ExactIndex::scan_block`):
/// candidates are walked once in [`SCAN_TILE_ROWS`]-row tiles, each
/// tile is scored for a whole [`QUERY_BLOCK`] of prepared queries
/// before moving on (a f16 tile is decoded once per block, an i8 tile
/// is one call into the fused integer kernel of `linalg::kernels`),
/// and each tile's similarities are streamed straight into a k-slot
/// buffer per query ([`offer_tile`]). No similarity outlives its tile,
/// so a scan's memory is O(k) per query whatever the index size.
/// Scores and tie order do not depend on the block a query lands in
/// or on the i8 kernel — f32/f16 values are bit-identical and i8
/// accumulation is exact integers (`tests/blocked_scan.rs`).
#[derive(Debug, Clone)]
pub struct ExactIndex {
    data: QuantizedMatrix,
    norms: Vec<f32>,
}

/// Buffers one worker's scan reuses from query block to query block.
#[derive(Default)]
struct ScanScratch<'q> {
    block: PreparedBlock<'q>,
    query_norms: Vec<f32>,
    tile: TileScratch,
    /// One tile's scores, `dots[q * nrows + i]`.
    dots: Vec<f32>,
}

/// Streams one tile's similarities — candidate ids `first_id..` in
/// ascending order — into `held`, the best `k` neighbours seen so far
/// in [`crate::neighbour_cmp`] order.
///
/// Ids only ever grow, so under (similarity desc, id asc) a new row
/// ranks *after* every held row it ties with: once `held` is full, a
/// row enters only on a **strictly** greater similarity than the held
/// k-th. One branch-free pass over the tile decides whether any row
/// does; after the first few tiles almost none do, and the insert is
/// the rare branch. A NaN similarity is never greater than anything
/// and nothing is greater than it: a NaN row takes a slot only while
/// `held` is still filling, and then keeps it.
fn offer_tile(held: &mut Vec<Neighbor>, k: usize, first_id: usize, sims: &[f32]) {
    let filling = k.saturating_sub(held.len()).min(sims.len());
    for (i, &similarity) in sims[..filling].iter().enumerate() {
        insert(held, k, first_id + i, similarity);
    }
    let rest = &sims[filling..];
    let Some(worst) = held.last().map(|n| n.similarity) else {
        return;
    };
    if !rest.iter().fold(false, |any, &s| any | (s > worst)) {
        return;
    }
    for (i, &similarity) in rest.iter().enumerate() {
        if similarity > held[k - 1].similarity {
            insert(held, k, first_id + filling + i, similarity);
        }
    }
}

/// Places a neighbour behind every held one it does not strictly beat,
/// dropping the k-th if `held` is full.
fn insert(held: &mut Vec<Neighbor>, k: usize, id: usize, similarity: f32) {
    if held.len() == k {
        held.pop();
    }
    let at =
        held.partition_point(|n| similarity.partial_cmp(&n.similarity) != Some(Ordering::Greater));
    held.insert(at, Neighbor { id, similarity });
}

impl ExactIndex {
    /// Indexes `data` in f32, deriving the candidate norms.
    pub fn build(data: Matrix) -> Self {
        let norms = row_norms(&data);
        ExactIndex::build_with_norms(data, norms)
    }

    /// Indexes `data` in f32 with norms the caller already holds.
    ///
    /// # Panics
    ///
    /// Panics if `norms.len() != data.rows()`.
    pub fn build_with_norms(data: Matrix, norms: Vec<f32>) -> Self {
        Self::build_quantized(data, norms, Quantization::F32)
    }

    /// Indexes `data` in the chosen storage format with caller-held
    /// norms (always the original f32 norms).
    ///
    /// # Panics
    ///
    /// Panics if `norms.len() != data.rows()`.
    pub fn build_quantized(data: Matrix, norms: Vec<f32>, quant: Quantization) -> Self {
        assert_eq!(norms.len(), data.rows(), "one norm per candidate row");
        ExactIndex {
            data: QuantizedMatrix::encode(data, quant),
            norms,
        }
    }

    /// Adopts an already-quantized candidate matrix (the persistence
    /// restore path — no re-encoding).
    ///
    /// # Panics
    ///
    /// Panics if `norms.len() != data.rows()`.
    pub fn from_quantized(data: QuantizedMatrix, norms: Vec<f32>) -> Self {
        assert_eq!(norms.len(), data.rows(), "one norm per candidate row");
        ExactIndex { data, norms }
    }

    /// The indexed candidate storage.
    pub fn data(&self) -> &QuantizedMatrix {
        &self.data
    }

    /// The cached candidate norms, one per row.
    pub fn norms(&self) -> &[f32] {
        &self.norms
    }

    /// Disassembles the index for persistence.
    pub(crate) fn to_parts(&self) -> (&QuantizedMatrix, &[f32]) {
        (&self.data, &self.norms)
    }

    /// [`VectorIndex::query_batch`] through an explicitly chosen i8
    /// kernel. Every kernel returns identical neighbours (exact
    /// integer arithmetic); the knob exists for the parity suites
    /// (`tests/blocked_scan.rs`).
    pub fn query_batch_with_kernel(
        &self,
        kernel: I8Kernel,
        queries: &Matrix,
        k: usize,
    ) -> Vec<Vec<Neighbor>> {
        let mut out = vec![Vec::new(); queries.rows()];
        if k == 0 {
            return out;
        }
        // Whole query blocks per worker (a fan-out never splits one);
        // all scratch is allocated once per worker.
        let work = crate::scan_work(queries.rows(), self.len(), self.dim());
        linalg::par::for_each_chunk_mut(&mut out, QUERY_BLOCK, work, |start, chunk| {
            let mut scratch = ScanScratch::default();
            for (b, slots) in chunk.chunks_mut(QUERY_BLOCK).enumerate() {
                let first = start + b * QUERY_BLOCK;
                let rows = (first..first + slots.len()).map(|r| queries.row(r));
                self.scan_block(kernel, rows, k, &mut scratch, slots);
            }
        });
        out
    }

    /// The single-pass scan of one block of queries (one per `out`
    /// slot, at most [`QUERY_BLOCK`]): prepare the block once (widths
    /// validated; i8 codes quantized and widened), then per candidate
    /// tile score the whole block, finish the cosines in place and
    /// stream them into each query's k-slot buffer — the `out` slot
    /// itself. Similarities are the expression of
    /// [`QuantizedMatrix::cosine_row`], rows arrive in ascending id,
    /// and [`offer_tile`] keeps (similarity desc, id asc), so the
    /// result is what a full stable descending sort would return.
    fn scan_block<'q>(
        &self,
        kernel: I8Kernel,
        queries: impl IntoIterator<Item = &'q [f32]>,
        k: usize,
        scratch: &mut ScanScratch<'q>,
        out: &mut [Vec<Neighbor>],
    ) {
        let ScanScratch {
            block,
            query_norms,
            tile,
            dots,
        } = scratch;
        self.data.prepare_block(queries, block);
        debug_assert_eq!(block.len(), out.len(), "one out slot per query");
        query_norms.clear();
        query_norms.extend(block.queries().iter().map(|q| norm(q)));
        let n_rows = self.data.rows();
        dots.resize(out.len() * SCAN_TILE_ROWS.min(n_rows), 0.0);
        let k = k.min(n_rows);
        for held in out.iter_mut() {
            *held = Vec::with_capacity(k);
        }
        for row_start in (0..n_rows).step_by(SCAN_TILE_ROWS) {
            let nrows = SCAN_TILE_ROWS.min(n_rows - row_start);
            self.data
                .dot_tile(kernel, row_start, nrows, block, tile, dots);
            let row_norms = &self.norms[row_start..row_start + nrows];
            for ((held, &query_norm), sims) in out
                .iter_mut()
                .zip(query_norms.iter())
                .zip(dots.chunks_exact_mut(nrows))
            {
                // Same expression as `cosine_row`: zero norms score
                // 0.0, otherwise dot / (row·query norm).
                for (s, &row_norm) in sims.iter_mut().zip(row_norms) {
                    *s = if row_norm == 0.0 || query_norm == 0.0 {
                        0.0
                    } else {
                        *s / (row_norm * query_norm)
                    };
                }
                offer_tile(held, k, row_start, sims);
            }
        }
    }
}

impl VectorIndex for ExactIndex {
    fn len(&self) -> usize {
        self.data.rows()
    }

    fn dim(&self) -> usize {
        self.data.cols()
    }

    fn query(&self, query: &[f32], k: usize) -> Vec<Neighbor> {
        assert_eq!(query.len(), self.dim(), "query dimensionality mismatch");
        if k == 0 {
            return Vec::new();
        }
        // A block of one through the same scan as a batch.
        let mut out = [Vec::new()];
        self.scan_block(
            I8Kernel::default(),
            [query],
            k,
            &mut ScanScratch::default(),
            &mut out,
        );
        let [top] = out;
        top
    }

    fn query_batch(&self, queries: &Matrix, k: usize) -> Vec<Vec<Neighbor>> {
        self.query_batch_with_kernel(I8Kernel::default(), queries, k)
    }

    fn insert(&mut self, row: &[f32]) -> usize {
        if self.data.rows() > 0 {
            assert_eq!(row.len(), self.dim(), "insert dimensionality mismatch");
        }
        let id = self.data.rows();
        self.norms.push(norm(row));
        self.data.push_row(row);
        id
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
        self.data.candidate_bytes() + self.norms.len() * std::mem::size_of::<f32>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use linalg::ops::cosine_similarity;
    use linalg::rng::randn;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The pre-index reference: compute every similarity with the
    /// per-call norm path and stable-sort descending.
    fn brute_force(data: &Matrix, q: &[f32], k: usize) -> Vec<(usize, f32)> {
        let mut sims: Vec<(usize, f32)> = (0..data.rows())
            .map(|r| (r, cosine_similarity(data.row(r), q)))
            .collect();
        sims.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
        sims.truncate(k.min(data.rows()));
        sims
    }

    #[test]
    fn query_is_bit_identical_to_per_call_norms() {
        let mut rng = StdRng::seed_from_u64(11);
        let data = randn(&mut rng, 64, 12, 1.0);
        let queries = randn(&mut rng, 10, 12, 1.0);
        let idx = ExactIndex::build(data.clone());
        for r in 0..queries.rows() {
            let q = queries.row(r);
            for k in [1, 3, 64, 100] {
                let got = idx.query(q, k);
                let want = brute_force(&data, q, k);
                assert_eq!(got.len(), want.len());
                for (g, (id, sim)) in got.iter().zip(&want) {
                    assert_eq!(g.id, *id);
                    assert_eq!(g.similarity, *sim, "similarities must be bit-identical");
                }
            }
        }
    }

    #[test]
    fn quantized_backends_track_f32_closely() {
        let mut rng = StdRng::seed_from_u64(12);
        let data = randn(&mut rng, 80, 16, 1.0);
        let queries = randn(&mut rng, 8, 16, 1.0);
        let exact = ExactIndex::build(data.clone());
        for (quant, tol) in [(Quantization::F16, 2e-3), (Quantization::I8, 2e-2)] {
            let norms = row_norms(&data);
            let qidx = ExactIndex::build_quantized(data.clone(), norms, quant);
            assert_eq!(qidx.quantization(), quant);
            assert!(qidx.candidate_bytes() < exact.candidate_bytes());
            for r in 0..queries.rows() {
                let want = exact.query(queries.row(r), 1)[0];
                let got = qidx.query(queries.row(r), 1)[0];
                assert!(
                    (got.similarity - want.similarity).abs() <= tol,
                    "{quant}: {} vs {}",
                    got.similarity,
                    want.similarity
                );
            }
        }
    }

    #[test]
    fn quantized_insert_matches_quantized_build() {
        let mut rng = StdRng::seed_from_u64(13);
        let data = randn(&mut rng, 30, 6, 1.0);
        for quant in [Quantization::F32, Quantization::F16, Quantization::I8] {
            let norms = row_norms(&data);
            let all = ExactIndex::build_quantized(data.clone(), norms, quant);
            let head = data.row_block(0, 20);
            let mut incremental =
                ExactIndex::build_quantized(head.clone(), row_norms(&head), quant);
            for r in 20..30 {
                assert_eq!(incremental.insert(data.row(r)), r, "{quant}");
            }
            for r in (0..30).step_by(7) {
                assert_eq!(
                    incremental.query(data.row(r), 3),
                    all.query(data.row(r), 3),
                    "{quant}"
                );
            }
        }
    }

    #[test]
    fn ties_keep_row_order() {
        // Duplicate candidates tie exactly; the stable sort must keep
        // the earlier row first, as the historical scan did.
        let data = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0], &[1.0, 0.0], &[0.5, 0.5]]);
        let idx = ExactIndex::build(data);
        let top = idx.query(&[1.0, 0.0], 3);
        assert_eq!(top[0].id, 1);
        assert_eq!(top[1].id, 2);
    }

    #[test]
    fn zero_vectors_score_zero() {
        let data = Matrix::from_rows(&[&[0.0, 0.0], &[1.0, 0.0]]);
        let idx = ExactIndex::build(data);
        let top = idx.query(&[1.0, 0.0], 2);
        assert_eq!(
            top[0],
            Neighbor {
                id: 1,
                similarity: 1.0
            }
        );
        assert_eq!(
            top[1],
            Neighbor {
                id: 0,
                similarity: 0.0
            }
        );
        let zeroed = idx.query(&[0.0, 0.0], 1);
        assert_eq!(zeroed[0].similarity, 0.0);
    }

    #[test]
    fn all_zero_rows_tie_deterministically_in_every_format() {
        // The zero-norm pin at index level: `cosine_row` returns 0.0
        // for degenerate rows in every storage format, and
        // `neighbour_cmp`'s (sim desc, id asc) order keeps the
        // resulting ties in ascending id order — identically across
        // repeated queries and across formats.
        let data = Matrix::from_rows(&[
            &[0.0, 0.0, 0.0],
            &[1.0, 0.0, 0.0],
            &[0.0, 0.0, 0.0],
            &[0.0, 0.0, 0.0],
        ]);
        let norms = row_norms(&data);
        for quant in [Quantization::F32, Quantization::F16, Quantization::I8] {
            let idx = ExactIndex::build_quantized(data.clone(), norms.clone(), quant);
            let top = idx.query(&[1.0, 0.0, 0.0], 4);
            assert_eq!(top[0].id, 1, "{quant}");
            assert_eq!(
                top[1..].iter().map(|n| n.id).collect::<Vec<_>>(),
                vec![0, 2, 3],
                "{quant}: zero rows must tie in ascending id order"
            );
            assert!(top[1..].iter().all(|n| n.similarity == 0.0), "{quant}");
            // A degenerate (all-zero) query scores every candidate 0.0
            // and the ids still come back ascending — twice, to pin
            // determinism.
            let z1 = idx.query(&[0.0, 0.0, 0.0], 4);
            let z2 = idx.query(&[0.0, 0.0, 0.0], 4);
            assert_eq!(z1, z2, "{quant}");
            assert_eq!(
                z1.iter().map(|n| n.id).collect::<Vec<_>>(),
                vec![0, 1, 2, 3],
                "{quant}"
            );
            assert!(z1.iter().all(|n| n.similarity == 0.0), "{quant}");
        }
    }

    #[test]
    fn blocked_batch_is_bit_identical_to_per_row_queries() {
        // Candidate count deliberately not a multiple of
        // SCAN_TILE_ROWS, query count not a multiple of QUERY_BLOCK —
        // both ragged edges in play — across every storage format and
        // every i8 kernel.
        let mut rng = StdRng::seed_from_u64(21);
        let data = randn(&mut rng, 150, 12, 1.0);
        let queries = randn(&mut rng, 19, 12, 1.0);
        for quant in [Quantization::F32, Quantization::F16, Quantization::I8] {
            let norms = row_norms(&data);
            let idx = ExactIndex::build_quantized(data.clone(), norms, quant);
            for kernel in [I8Kernel::Scalar, I8Kernel::Swar, I8Kernel::Arch] {
                let batched = idx.query_batch_with_kernel(kernel, &queries, 5);
                assert_eq!(batched.len(), 19);
                for (r, neighbours) in batched.iter().enumerate() {
                    assert_eq!(
                        neighbours,
                        &idx.query(queries.row(r), 5),
                        "{quant}/{} query {r}",
                        kernel.name()
                    );
                }
            }
        }
    }

    #[test]
    fn blocked_batch_preserves_ties_across_tile_boundaries() {
        // Every candidate is identical, so every similarity ties: the
        // top-k must come back in ascending id order even when the
        // tied rows span multiple scan tiles.
        let n = SCAN_TILE_ROWS * 2 + 7;
        let data = Matrix::from_fn(n, 4, |_, c| if c == 0 { 1.0 } else { 0.0 });
        for quant in [Quantization::F32, Quantization::F16, Quantization::I8] {
            let norms = row_norms(&data);
            let idx = ExactIndex::build_quantized(data.clone(), norms, quant);
            let queries = Matrix::from_fn(3, 4, |_, c| if c == 0 { 2.0 } else { 0.0 });
            let batched = idx.query_batch(&queries, SCAN_TILE_ROWS + 3);
            for per_query in &batched {
                assert_eq!(
                    per_query.iter().map(|n| n.id).collect::<Vec<_>>(),
                    (0..SCAN_TILE_ROWS + 3).collect::<Vec<_>>(),
                    "{quant}: tied rows must stay in ascending id order"
                );
            }
        }
    }

    #[test]
    fn k_clamps_to_candidate_count() {
        let data = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0]]);
        let idx = ExactIndex::build(data);
        assert_eq!(idx.query(&[1.0, 0.0], 10).len(), 2);
    }

    #[test]
    fn degenerate_queries_return_the_first_k_ids_in_every_format() {
        // A query holding a NaN makes every similarity NaN; an
        // all-zero query makes every similarity 0.0. Either way no
        // row ever beats another, so the answer is ids 0..k — also
        // when the rows span several scan tiles and k exceeds them.
        let n = SCAN_TILE_ROWS * 2 + 5;
        let mut rng = StdRng::seed_from_u64(31);
        let data = randn(&mut rng, n, 8, 1.0);
        let mut poisoned = randn(&mut rng, 1, 8, 1.0).row(0).to_vec();
        poisoned[3] = f32::NAN;
        let queries = Matrix::from_rows(&[&poisoned, &[0.0; 8]]);
        for quant in [Quantization::F32, Quantization::F16, Quantization::I8] {
            let idx = ExactIndex::build_quantized(data.clone(), row_norms(&data), quant);
            for k in [1, 3, n, n + 5] {
                let want: Vec<usize> = (0..k.min(n)).collect();
                let batched = idx.query_batch(&queries, k);
                for (q, batch_top) in batched.iter().enumerate() {
                    let top = idx.query(queries.row(q), k);
                    for got in [&top, batch_top] {
                        let ids: Vec<usize> = got.iter().map(|n| n.id).collect();
                        assert_eq!(ids, want, "{quant} query {q} k={k}");
                    }
                    if q == 0 {
                        assert!(top.iter().all(|n| n.similarity.is_nan()), "{quant}");
                    } else {
                        assert!(top.iter().all(|n| n.similarity == 0.0), "{quant}");
                    }
                }
            }
        }
    }

    #[test]
    fn k_zero_and_empty_indexes_answer_with_nothing() {
        let queries = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0]]);
        for quant in [Quantization::F32, Quantization::F16, Quantization::I8] {
            let data = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0], &[1.0, 1.0]]);
            let idx = ExactIndex::build_quantized(data.clone(), row_norms(&data), quant);
            assert!(idx.query(&[1.0, 0.0], 0).is_empty(), "{quant}");
            assert_eq!(idx.query_batch(&queries, 0), vec![vec![]; 2], "{quant}");
            assert_eq!(idx.query(&[1.0, 0.0], usize::MAX).len(), 3, "{quant}");

            let empty = ExactIndex::build_quantized(Matrix::zeros(0, 2), Vec::new(), quant);
            assert!(empty.query(&[1.0, 0.0], 3).is_empty(), "{quant}");
            assert_eq!(empty.query_batch(&queries, 3), vec![vec![]; 2], "{quant}");
            assert_eq!(
                empty.query_batch(&Matrix::zeros(0, 2), 3),
                Vec::<Vec<Neighbor>>::new(),
                "{quant}"
            );
        }
    }

    #[test]
    fn a_nan_row_among_numbers_never_panics() {
        // Mixed NaN is outside `neighbour_cmp`'s total order, so no
        // ranking of it is "right"; what is pinned is that the scan
        // answers with k rows, never panics, and keeps the rows that
        // do have a similarity in order.
        let data = Matrix::from_rows(&[&[f32::NAN, 1.0], &[1.0, 0.0], &[0.5, 0.5], &[0.0, 1.0]]);
        let idx = ExactIndex::build(data);
        for k in 1..=4 {
            let top = idx.query(&[1.0, 0.0], k);
            assert_eq!(top.len(), k);
            let ranked: Vec<usize> = top
                .iter()
                .filter(|n| !n.similarity.is_nan())
                .map(|n| n.id)
                .collect();
            assert!(ranked.windows(2).all(|w| w[0] < w[1]), "k={k}: {top:?}");
        }
    }
}
