//! Property tests: the blocked batch scan is indistinguishable from
//! single-query scans, and the streaming top-k selection both share is
//! indistinguishable from a full sort.
//!
//! The tiled `query_batch` must return exactly what a loop of
//! single-query `query` calls returns — same ids, same similarities,
//! same tie order — for every format, every kernel, and every
//! relationship between the candidate count and the tile size
//! (including stores smaller than one tile and stores that end
//! mid-tile). Both must equal the reference that never streams: score
//! every row, stable-sort under `neighbour_cmp`, truncate to k.

use index::{neighbour_cmp, ExactIndex, Neighbor, Quantization, VectorIndex};
use linalg::kernels::I8Kernel;
use linalg::ops::{norm, row_norms};
use linalg::quant::SCAN_TILE_ROWS;
use linalg::Matrix;
use proptest::prelude::*;

/// Deterministic pseudo-random matrix (xorshift64*), values in ±2.
fn random_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut state = seed | 1;
    Matrix::from_fn(rows, cols, |_, _| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        let u = state.wrapping_mul(0x2545f4914f6cdd1d);
        ((u >> 40) as f32 / (1u64 << 24) as f32) * 4.0 - 2.0
    })
}

fn build(data: &Matrix, quant: Quantization) -> ExactIndex {
    match quant {
        Quantization::F32 => ExactIndex::build(data.clone()),
        q => ExactIndex::build_quantized(data.clone(), row_norms(data), q),
    }
}

fn per_row(idx: &ExactIndex, queries: &Matrix, k: usize) -> Vec<Vec<Neighbor>> {
    (0..queries.rows())
        .map(|q| idx.query(queries.row(q), k))
        .collect()
}

/// The non-streaming reference: every row's cosine through the
/// per-row scoring path, one stable sort under `neighbour_cmp`.
fn full_sort(idx: &ExactIndex, query: &[f32], k: usize) -> Vec<Neighbor> {
    let query_norm = norm(query);
    let mut all: Vec<Neighbor> = (0..idx.len())
        .map(|id| Neighbor {
            id,
            similarity: idx
                .data()
                .cosine_row(id, idx.norms()[id], query, query_norm),
        })
        .collect();
    all.sort_by(neighbour_cmp);
    all.truncate(k);
    all
}

proptest! {
    /// Streaming selection == full stable sort, for k below, at and
    /// past the candidate count, over a store built to stress the
    /// selector: every distinct row repeated (exact ties that must
    /// keep ascending id order), zero-norm rows (similarity 0.0 ties)
    /// planted on both sides of every tile boundary, and an `offset`
    /// that slides all of it across the boundaries.
    #[test]
    fn streaming_selection_equals_a_full_stable_sort(
        copies in 2usize..4,
        offset in 0usize..SCAN_TILE_ROWS,
        cols in 2usize..16,
        seed in 0u64..u64::MAX,
    ) {
        let distinct = random_matrix(SCAN_TILE_ROWS, cols, seed);
        let mut data = random_matrix(offset, cols, seed ^ 0x5eed);
        for r in 0..distinct.rows() {
            for _ in 0..copies {
                data.push_row(distinct.row(r));
            }
        }
        let zero = vec![0.0f32; cols];
        let n = data.rows();
        let boundaries: Vec<usize> = (SCAN_TILE_ROWS..n).step_by(SCAN_TILE_ROWS).collect();
        let mut planted = Matrix::zeros(0, cols);
        for r in 0..n {
            let straddles = boundaries.iter().any(|&b| r + 1 == b || r == b);
            planted.push_row(if straddles { &zero } else { data.row(r) });
        }
        let data = planted;
        let queries = random_matrix(3, cols, seed ^ 0x717e);
        for quant in [Quantization::F32, Quantization::F16, Quantization::I8] {
            let idx = build(&data, quant);
            for k in [1, 3, n, n + 5] {
                let reference: Vec<Vec<Neighbor>> = (0..queries.rows())
                    .map(|q| full_sort(&idx, queries.row(q), k))
                    .collect();
                prop_assert_eq!(&per_row(&idx, &queries, k), &reference);
                for kernel in [I8Kernel::Scalar, I8Kernel::Swar, I8Kernel::Arch] {
                    prop_assert_eq!(
                        &idx.query_batch_with_kernel(kernel, &queries, k),
                        &reference);
                }
            }
        }
    }

    /// Blocked batch == per-row loop for every format × kernel, with
    /// candidate counts chosen to land before, on, and after tile
    /// boundaries.
    #[test]
    fn blocked_batch_equals_per_row_reference(
        rows in 1usize..(SCAN_TILE_ROWS * 2 + 10),
        cols in 1usize..24,
        n_queries in 1usize..6,
        k in 1usize..8,
        seed in 0u64..u64::MAX,
    ) {
        let data = random_matrix(rows, cols, seed);
        let queries = random_matrix(n_queries, cols, seed ^ 0xabcdef);
        for quant in [Quantization::F32, Quantization::F16, Quantization::I8] {
            let idx = build(&data, quant);
            let reference = per_row(&idx, &queries, k);
            for kernel in [I8Kernel::Scalar, I8Kernel::Swar, I8Kernel::Arch] {
                prop_assert_eq!(
                    &idx.query_batch_with_kernel(kernel, &queries, k),
                    &reference);
            }
        }
    }

    /// Tie determinism across tile boundaries: duplicated rows score
    /// identically, and the blocked scan must break those ties by
    /// ascending id exactly like the per-row path — even when the
    /// tied block straddles one or more tile edges.
    #[test]
    fn tile_boundaries_preserve_tie_order(
        copies in 2usize..5,
        offset in 0usize..SCAN_TILE_ROWS,
        cols in 2usize..16,
        seed in 0u64..u64::MAX,
    ) {
        // `offset` unique prefix rows push the duplicated block off
        // tile alignment; each distinct row then repeats `copies`
        // times in a row-major interleaving.
        let distinct = random_matrix(SCAN_TILE_ROWS, cols, seed);
        let mut data = random_matrix(offset, cols, seed ^ 0x5eed);
        for r in 0..distinct.rows() {
            for _ in 0..copies {
                data.push_row(distinct.row(r));
            }
        }
        let queries = random_matrix(3, cols, seed ^ 0x717e);
        let k = copies + 2;
        for quant in [Quantization::F32, Quantization::F16, Quantization::I8] {
            let idx = build(&data, quant);
            let reference = per_row(&idx, &queries, k);
            for neighbours in &reference {
                for pair in neighbours.windows(2) {
                    let tied = pair[0].similarity == pair[1].similarity;
                    prop_assert!(
                        !tied || pair[0].id < pair[1].id,
                        "per-row path broke a tie out of id order: {pair:?}"
                    );
                }
            }
            for kernel in [I8Kernel::Scalar, I8Kernel::Swar, I8Kernel::Arch] {
                prop_assert_eq!(
                    &idx.query_batch_with_kernel(kernel, &queries, k),
                    &reference);
            }
        }
    }
}
