//! Property tests: every i8 dot kernel is the same exact function.
//!
//! The integer kernels accumulate i8×i8 products through i16 widening
//! multiplies into i32 — exact, associative arithmetic — so the SWAR
//! and `core::arch` paths must return the *identical* i32 as the
//! scalar reference on every input, not merely a close one. These
//! properties sweep ragged widths (SIMD tails), extreme codes
//! (±127/−128 saturation), the fused tile kernel at every ragged
//! edge of its register blocks, and the full prepared-query scoring
//! path through `QuantizedMatrix`.

use linalg::kernels::{self, I8Kernel};
use linalg::quant::{PreparedBlock, Quantization, QuantizedMatrix, TileScratch, SCAN_TILE_ROWS};
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

/// Widths on both sides of every lane count a tile kernel steps by
/// (8 SWAR/SSE2/NEON, 16 AVX2), plus empty and one long ragged row.
const TILE_WIDTHS: [usize; 11] = [0, 1, 15, 16, 17, 31, 32, 33, 64, 65, 257];

/// Asserts `dot_i8_tile` equals `dot_i8_scalar` for every (row, query)
/// pair of the given tile under every kernel.
fn assert_tile_matches_scalar(rows: &[i8], n_rows: usize, queries: &[i8], n_queries: usize) {
    let cols = rows.len() / n_rows;
    let wide: Vec<i16> = queries.iter().map(|&c| c.into()).collect();
    for kernel in [I8Kernel::Scalar, I8Kernel::Swar, I8Kernel::Arch] {
        let mut out = vec![i32::MIN; n_rows * n_queries];
        kernels::dot_i8_tile(kernel, rows, n_rows, &wide, n_queries, &mut out);
        for q in 0..n_queries {
            for r in 0..n_rows {
                assert_eq!(
                    out[q * n_rows + r],
                    kernels::dot_i8_scalar(
                        &rows[r * cols..(r + 1) * cols],
                        &queries[q * cols..(q + 1) * cols]
                    ),
                    "{} tile kernel, {n_rows} rows × {n_queries} queries × {cols} cols, \
                     row {r} query {q}",
                    kernel.name()
                );
            }
        }
    }
}

/// Saturated tiles: every product at an i16 extreme (127·127,
/// −128·−128, −128·127), at every width, with row and query counts
/// off the 4 × 2 register block.
#[test]
fn tile_kernel_is_exact_on_saturated_codes() {
    for &cols in &TILE_WIDTHS {
        for (row_code, query_code) in [(127i8, 127i8), (-128, -128), (-128, 127), (127, -127)] {
            let rows = vec![row_code; 7 * cols];
            let queries = vec![query_code; 3 * cols];
            assert_tile_matches_scalar(&rows, 7, &queries, 3);
        }
    }
}

proptest! {
    /// The fused tile kernel equals the scalar reference per (row,
    /// query) pair: every width in `TILE_WIDTHS`, tile row counts on
    /// and off the register block (1..=9, and a full scan tile + 1),
    /// query blocks 1..=16, arbitrary codes including −128.
    #[test]
    fn tile_kernel_matches_scalar_per_pair(
        width in prop::sample::select(TILE_WIDTHS.to_vec()),
        n_rows in prop::sample::select(vec![1usize, 2, 3, 4, 5, 6, 7, 8, 9, SCAN_TILE_ROWS + 1]),
        n_queries in 1usize..=16,
        seed in 0u64..u64::MAX,
    ) {
        let mut state = seed | 1;
        let mut code = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 24) as u8 as i8
        };
        let rows: Vec<i8> = (0..n_rows * width).map(|_| code()).collect();
        let queries: Vec<i8> = (0..n_queries * width).map(|_| code()).collect();
        assert_tile_matches_scalar(&rows, n_rows, &queries, n_queries);
    }

    /// SWAR and the runtime-dispatched `core::arch` kernel equal the
    /// scalar reference bit-for-bit on arbitrary codes, truncated to
    /// every ragged width (SIMD tail lengths included).
    #[test]
    fn all_i8_kernels_agree_exactly(
        len in 0usize..200,
        a_full in prop::collection::vec(-128i8..=127i8, 200),
        b_full in prop::collection::vec(-128i8..=127i8, 200),
    ) {
        let (a, b) = (&a_full[..len], &b_full[..len]);
        let reference = kernels::dot_i8_scalar(a, b);
        for kernel in [I8Kernel::Scalar, I8Kernel::Swar, I8Kernel::Arch] {
            prop_assert_eq!(
                kernels::dot_i8_with(kernel, a, b),
                reference);
        }
    }

    /// Saturated codes (the i16 product extremes, e.g. −128·−128)
    /// accumulate exactly on every kernel.
    #[test]
    fn extreme_codes_accumulate_exactly(
        len in 0usize..200,
        pattern in prop::collection::vec(
            prop::sample::select(vec![-128i8, -127, -1, 0, 1, 127]),
            1..32,
        ),
    ) {
        let a: Vec<i8> = (0..len).map(|i| pattern[i % pattern.len()]).collect();
        let b: Vec<i8> = a.iter().rev().copied().collect();
        let reference = kernels::dot_i8_scalar(&a, &b);
        prop_assert_eq!(kernels::dot_i8_with(I8Kernel::Swar, &a, &b), reference);
        prop_assert_eq!(kernels::dot_i8_with(I8Kernel::Arch, &a, &b), reference);
    }

    /// The prepared-query scoring path returns the same f32 for every
    /// kernel on every format — i8 because the integer accumulation
    /// is exact, f32/f16 because they never touch the i8 kernels.
    #[test]
    fn prepared_scoring_is_kernel_invariant(
        rows in 1usize..20,
        cols in 1usize..70,
        seed in 0u64..u64::MAX,
    ) {
        let data = random_matrix(rows, cols, seed);
        let query = random_matrix(1, cols, seed ^ 0x9e3779b97f4a7c15);
        for quant in [Quantization::F32, Quantization::F16, Quantization::I8] {
            let qm = QuantizedMatrix::encode(data.clone(), quant);
            let pq = qm.prepare_query(query.row(0));
            for r in 0..rows {
                let reference = qm.dot_row_prepared_with(I8Kernel::Scalar, r, &pq);
                for kernel in [I8Kernel::Swar, I8Kernel::Arch] {
                    prop_assert_eq!(
                        qm.dot_row_prepared_with(kernel, r, &pq).to_bits(),
                        reference.to_bits());
                }
            }
        }
    }

    /// The tiled scan equals per-row prepared scoring bit-for-bit at
    /// every tile offset — including tiles that straddle the end of
    /// the candidate store — for every kernel.
    #[test]
    fn dot_tile_matches_per_row_at_ragged_offsets(
        rows in 1usize..150,
        cols in 1usize..40,
        n_queries in 1usize..4,
        seed in 0u64..u64::MAX,
    ) {
        for quant in [Quantization::F32, Quantization::F16, Quantization::I8] {
            let qm = QuantizedMatrix::encode(random_matrix(rows, cols, seed), quant);
            let queries = random_matrix(n_queries, cols, seed ^ 0xdeadbeef);
            let mut block = PreparedBlock::default();
            qm.prepare_block((0..n_queries).map(|q| queries.row(q)), &mut block);
            let mut scratch = TileScratch::default();
            for kernel in [I8Kernel::Scalar, I8Kernel::Swar, I8Kernel::Arch] {
                let mut row_start = 0;
                while row_start < rows {
                    let nrows = SCAN_TILE_ROWS.min(rows - row_start);
                    let mut out = vec![0.0f32; n_queries * nrows];
                    qm.dot_tile(kernel, row_start, nrows, &block, &mut scratch, &mut out);
                    for q in 0..n_queries {
                        let pq = qm.prepare_query(queries.row(q));
                        for i in 0..nrows {
                            let expected = qm.dot_row_prepared(row_start + i, &pq);
                            prop_assert_eq!(
                                out[q * nrows + i].to_bits(),
                                expected.to_bits());
                        }
                    }
                    row_start += nrows;
                }
            }
        }
    }
}
