//! The fused i8 **tile** kernel: a tile of candidate rows × a block of
//! queries → exact `i32` dot products, one call per tile.
//!
//! The per-row kernels ([`super::dot_i8_with`]) pay a dispatch, a
//! sign-extension of the row and a horizontal sum for every (row,
//! query) pair. Here the tile is walked in register blocks of
//! [`ROW_BLOCK`] rows × up to two queries ([`Block::dots`]): the
//! queries arrive already widened to i16 (once per scan, by
//! `quant::PreparedBlock`), each row step is sign-extended once per
//! block, and the four row accumulators of a query are reduced
//! together, so one horizontal-add tree yields four finished sums.
//!
//! [`run`] is the one driver — ragged row counts, an odd query count
//! and the column tail a SIMD step cannot cover are handled here, in
//! safe code — and every implementation plugs its register block into
//! it. Integer arithmetic is exact and associative, so all of them
//! return the `i32`s of [`super::dot_i8_scalar`] (pinned by
//! `tests/kernel_parity.rs`).

use super::I8Kernel;

/// Candidate rows one register block scores together.
pub(super) const ROW_BLOCK: usize = 4;

/// One register block of the tile kernel.
pub(super) trait Block {
    /// Code lanes one step of [`Block::dots`] consumes; [`run`] hands
    /// it only the longest row prefix that is a multiple of this and
    /// adds the remaining columns itself.
    const LANES: usize;

    /// `sums[q][r] = Σⱼ rows[r][j] · queries[q][j]`. Every slice has
    /// the same length, a multiple of [`Block::LANES`].
    fn dots<const NQ: usize>(
        rows: [&[i8]; ROW_BLOCK],
        queries: [&[i16]; NQ],
    ) -> [[i32; ROW_BLOCK]; NQ];
}

/// The common length of a register block's slices — what an
/// implementation's raw loads are bounded by.
///
/// # Panics
///
/// Panics if the slices differ in length.
#[inline(always)]
pub(super) fn block_len<const NQ: usize>(
    rows: &[&[i8]; ROW_BLOCK],
    queries: &[&[i16]; NQ],
) -> usize {
    let n = rows[0].len();
    assert!(
        rows.iter().all(|r| r.len() == n) && queries.iter().all(|q| q.len() == n),
        "tile block slices differ in length"
    );
    n
}

/// `out[q · n_rows + r] = Σⱼ rows[r · cols + j] · queries[q · cols + j]`
/// for a row-major tile of `n_rows` i8 code rows and `n_queries` query
/// rows whose i8 codes were widened to i16 — the same `i32` as
/// [`super::dot_i8_scalar`] for every pair, under every `kernel`.
///
/// # Panics
///
/// Panics if `rows` and `queries` do not hold `n_rows` and `n_queries`
/// rows of one common width, or `out.len() != n_rows · n_queries`.
pub fn dot_i8_tile(
    kernel: I8Kernel,
    rows: &[i8],
    n_rows: usize,
    queries: &[i16],
    n_queries: usize,
    out: &mut [i32],
) {
    assert_eq!(out.len(), n_rows * n_queries, "tile output shape mismatch");
    if out.is_empty() {
        return;
    }
    let cols = rows.len() / n_rows;
    assert_eq!(rows.len(), n_rows * cols, "ragged i8 tile");
    assert_eq!(
        queries.len(),
        n_queries * cols,
        "query block width mismatch"
    );
    match kernel {
        I8Kernel::Scalar => {
            for (q, out_q) in out.chunks_exact_mut(n_rows).enumerate() {
                let query = &queries[q * cols..(q + 1) * cols];
                for (r, o) in out_q.iter_mut().enumerate() {
                    *o = dot_i8_i16(&rows[r * cols..(r + 1) * cols], query);
                }
            }
        }
        I8Kernel::Swar => run::<super::swar::Swar>(rows, n_rows, queries, n_queries, out),
        I8Kernel::Arch => {
            #[cfg(target_arch = "x86_64")]
            super::x86::dot_i8_tile(rows, n_rows, queries, n_queries, out);
            #[cfg(target_arch = "aarch64")]
            super::neon::dot_i8_tile(rows, n_rows, queries, n_queries, out);
            #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
            run::<super::swar::Swar>(rows, n_rows, queries, n_queries, out);
        }
    }
}

/// Per-element reference over an i8 row and a widened query.
#[inline]
fn dot_i8_i16(row: &[i8], query: &[i16]) -> i32 {
    row.iter()
        .zip(query)
        .map(|(&x, &y)| x as i32 * y as i32)
        .sum()
}

/// Walks the tile in [`ROW_BLOCK`]-row × 2-query register blocks of
/// `B`. Shapes were checked by [`dot_i8_tile`] (non-empty tile, common
/// width). `#[inline(always)]` so an ISA entry point compiled with
/// `#[target_feature]` gets the whole walk — and its `B::dots` calls —
/// inside that feature context.
#[inline(always)]
pub(super) fn run<B: Block>(
    rows: &[i8],
    n_rows: usize,
    queries: &[i16],
    n_queries: usize,
    out: &mut [i32],
) {
    let cols = rows.len() / n_rows;
    let main = cols - cols % B::LANES;
    let row = |r: usize| &rows[r * cols..(r + 1) * cols];
    let query = |q: usize| &queries[q * cols..(q + 1) * cols];
    for r0 in (0..n_rows).step_by(ROW_BLOCK) {
        let live = ROW_BLOCK.min(n_rows - r0);
        // A ragged last block scores its final row again in the spare
        // slots; `store` drops those sums.
        let last = n_rows - 1;
        let block = [
            row(r0),
            row(last.min(r0 + 1)),
            row(last.min(r0 + 2)),
            row(last.min(r0 + 3)),
        ];
        let mut q0 = 0;
        while q0 < n_queries {
            let dst = &mut out[q0 * n_rows + r0..];
            if q0 + 2 <= n_queries {
                let pair = [query(q0), query(q0 + 1)];
                store(block_dots::<B, 2>(block, pair, main), dst, n_rows, live);
            } else {
                store(
                    block_dots::<B, 1>(block, [query(q0)], main),
                    dst,
                    n_rows,
                    live,
                );
            }
            q0 += 2;
        }
    }
}

/// Full-width sums of one register block: `B::dots` over the `main`
/// columns its lanes cover, the remaining columns per element.
#[inline(always)]
fn block_dots<B: Block, const NQ: usize>(
    block: [&[i8]; ROW_BLOCK],
    queries: [&[i16]; NQ],
    main: usize,
) -> [[i32; ROW_BLOCK]; NQ] {
    let mut sums = B::dots(block.map(|r| &r[..main]), queries.map(|q| &q[..main]));
    if main < block[0].len() {
        add_column_tail(&mut sums, block, queries, main);
    }
    sums
}

/// Adds columns `main..` of every (row, query) pair to `sums`. Out of
/// line: widths that are a multiple of the lane count never come here,
/// and the block loop stays small for them.
#[inline(never)]
fn add_column_tail<const NQ: usize>(
    sums: &mut [[i32; ROW_BLOCK]; NQ],
    block: [&[i8]; ROW_BLOCK],
    queries: [&[i16]; NQ],
    main: usize,
) {
    for (per_query, query) in sums.iter_mut().zip(queries) {
        for (sum, row) in per_query.iter_mut().zip(block) {
            *sum += dot_i8_i16(&row[main..], &query[main..]);
        }
    }
}

/// Writes the first `live` row sums of each query to its `n_rows`
/// strided output run; `dst` starts at the first query's slot.
#[inline(always)]
fn store<const NQ: usize>(
    sums: [[i32; ROW_BLOCK]; NQ],
    dst: &mut [i32],
    n_rows: usize,
    live: usize,
) {
    for (j, per_query) in sums.iter().enumerate() {
        let run = &mut dst[j * n_rows..j * n_rows + live];
        // A full block is one 16-byte store; going through the
        // variable-length copy for it costs the AVX2 kernel 13 %.
        match <&mut [i32; ROW_BLOCK]>::try_from(&mut *run) {
            Ok(full) => *full = *per_query,
            Err(_) => run.copy_from_slice(&per_query[..live]),
        }
    }
}

#[cfg(test)]
pub(super) mod tests {
    use super::*;
    use crate::kernels::dot_i8_scalar;

    /// Checks a tile kernel against the per-pair scalar reference:
    /// row counts off the 4-row register block, odd and even query
    /// counts, widths around every SIMD lane count, codes down to −128.
    pub fn check_against_scalar(
        name: &str,
        kernel: impl Fn(&[i8], usize, &[i16], usize, &mut [i32]),
    ) {
        for (n_rows, n_queries) in [(1usize, 1usize), (3, 2), (4, 3), (5, 1), (11, 16), (64, 5)] {
            for cols in [0usize, 1, 7, 8, 9, 15, 16, 17, 32, 33, 100, 257] {
                let code = |i: usize, m: usize| ((i * m + 11) % 256) as u8 as i8;
                let rows: Vec<i8> = (0..n_rows * cols).map(|i| code(i, 37)).collect();
                let narrow: Vec<i8> = (0..n_queries * cols).map(|i| code(i, 73)).collect();
                let queries: Vec<i16> = narrow.iter().map(|&c| c.into()).collect();
                let mut out = vec![i32::MIN; n_rows * n_queries];
                kernel(&rows, n_rows, &queries, n_queries, &mut out);
                for q in 0..n_queries {
                    for r in 0..n_rows {
                        let want = dot_i8_scalar(
                            &rows[r * cols..(r + 1) * cols],
                            &narrow[q * cols..(q + 1) * cols],
                        );
                        assert_eq!(
                            out[q * n_rows + r],
                            want,
                            "{name} {n_rows}×{n_queries}×{cols} row {r} query {q}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn every_kernel_matches_the_per_pair_scalar_reference() {
        for kernel in [I8Kernel::Scalar, I8Kernel::Swar, I8Kernel::Arch] {
            check_against_scalar(kernel.name(), |rows, n_rows, queries, n_queries, out| {
                dot_i8_tile(kernel, rows, n_rows, queries, n_queries, out)
            });
        }
    }

    #[test]
    fn an_empty_tile_is_a_no_op() {
        for kernel in [I8Kernel::Scalar, I8Kernel::Swar, I8Kernel::Arch] {
            dot_i8_tile(kernel, &[], 0, &[1, 2], 1, &mut []);
            dot_i8_tile(kernel, &[1, 2], 1, &[], 0, &mut []);
        }
    }
}
