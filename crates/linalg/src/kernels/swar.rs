//! Portable u64-word i8 dot kernel — the SWAR fallback every target
//! can run, and the implementation [`crate::kernels::I8Kernel::Arch`]
//! resolves to where no `core::arch` path exists.
//!
//! Eight code lanes per side are loaded as one little-endian `u64`
//! word, then peeled with shifts into sign-extended i16-range values
//! whose widening multiplies land in four *independent* i32
//! accumulators. Two properties matter:
//!
//! * **Exactness** — every product `aᵢ·bᵢ` of two i8 codes fits an
//!   i16 (`|p| ≤ 16 129`; ≤ 16 384 even for the never-emitted −128),
//!   and the i32 accumulators take one such product per lane pair per
//!   word, so nothing rounds and nothing overflows below ~2¹⁷ lanes —
//!   far past any embedding width. The result is bit-identical to the
//!   scalar reference (and hence to the SSE2/AVX2/NEON paths, which
//!   are exact for the same reason).
//! * **Word-level parallelism without `unsafe`** — the u64 loads give
//!   the compiler a single 8-byte read per side per step, and the four
//!   accumulator chains expose enough ILP that LLVM lowers the peeled
//!   lanes to packed widening multiply-adds (`pmaddwd` on x86_64)
//!   where available. Integer sums reassociate freely — unlike the
//!   f32 kernels, the optimizer is *allowed* to vectorize this, which
//!   is exactly why the i8 scan can beat the f32 scan on one core.

use super::tile::{Block, ROW_BLOCK};

/// Exact i8 dot product over u64-word lanes. Identical to
/// [`crate::kernels::dot_i8_scalar`] on every input.
///
/// # Panics
///
/// Panics if lengths differ.
pub fn dot_i8(a: &[i8], b: &[i8]) -> i32 {
    assert_eq!(a.len(), b.len(), "i8 dot length mismatch");
    let mut wa = a.chunks_exact(8);
    let mut wb = b.chunks_exact(8);
    let (mut acc0, mut acc1, mut acc2, mut acc3) = (0i32, 0i32, 0i32, 0i32);
    for (ca, cb) in (&mut wa).zip(&mut wb) {
        let x = word(ca);
        let y = word(cb);
        acc0 += lane(x, 0) * lane(y, 0) + lane(x, 4) * lane(y, 4);
        acc1 += lane(x, 1) * lane(y, 1) + lane(x, 5) * lane(y, 5);
        acc2 += lane(x, 2) * lane(y, 2) + lane(x, 6) * lane(y, 6);
        acc3 += lane(x, 3) * lane(y, 3) + lane(x, 7) * lane(y, 7);
    }
    let mut acc = acc0 + acc1 + acc2 + acc3;
    for (&x, &y) in wa.remainder().iter().zip(wb.remainder()) {
        acc += x as i32 * y as i32;
    }
    acc
}

/// The portable register block of the tile kernel
/// ([`crate::kernels::dot_i8_tile`]): each row word is loaded and
/// peeled into lanes once, then reused against every query of the
/// block.
pub(super) struct Swar;

impl Block for Swar {
    const LANES: usize = 8;

    fn dots<const NQ: usize>(
        rows: [&[i8]; ROW_BLOCK],
        queries: [&[i16]; NQ],
    ) -> [[i32; ROW_BLOCK]; NQ] {
        let mut sums = [[0i32; ROW_BLOCK]; NQ];
        for w in 0..rows[0].len() / 8 {
            let span = w * 8..w * 8 + 8;
            let lanes: [[i32; 8]; ROW_BLOCK] = rows.map(|r| {
                let x = word(&r[span.clone()]);
                std::array::from_fn(|i| lane(x, i))
            });
            for (query, per_query) in queries.iter().zip(&mut sums) {
                let q = &query[span.clone()];
                for (row_lanes, sum) in lanes.iter().zip(per_query) {
                    *sum += row_lanes
                        .iter()
                        .zip(q)
                        .map(|(&x, &y)| x * y as i32)
                        .sum::<i32>();
                }
            }
        }
        sums
    }
}

/// Packs 8 i8 codes into one little-endian u64 word.
#[inline(always)]
fn word(c: &[i8]) -> u64 {
    u64::from_le_bytes([
        c[0] as u8, c[1] as u8, c[2] as u8, c[3] as u8, c[4] as u8, c[5] as u8, c[6] as u8,
        c[7] as u8,
    ])
}

/// Sign-extends byte lane `i` of a packed word to i32.
#[inline(always)]
fn lane(w: u64, i: usize) -> i32 {
    (w >> (8 * i)) as u8 as i8 as i32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn word_and_lane_round_trip() {
        let codes: [i8; 8] = [1, -1, 127, -127, 0, -128, 64, -33];
        let w = word(&codes);
        for (i, &c) in codes.iter().enumerate() {
            assert_eq!(lane(w, i), c as i32);
        }
    }

    #[test]
    fn tail_handling_is_exact() {
        // 11 elements: one full word + 3-lane tail.
        let a: Vec<i8> = vec![3, -7, 11, 127, -127, 2, 0, -5, 9, -9, 1];
        let b: Vec<i8> = vec![-2, 5, 13, -127, 127, 1, 42, -6, 7, 7, -1];
        let want: i32 = a.iter().zip(&b).map(|(&x, &y)| x as i32 * y as i32).sum();
        assert_eq!(dot_i8(&a, &b), want);
    }
}
