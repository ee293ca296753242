//! aarch64 NEON i8 dot kernels — per row ([`dot_i8`]) and per tile
//! ([`dot_i8_tile`], a register block plugged into the shared
//! `tile::run` walk). NEON (ASIMD) is part of the aarch64 baseline, so
//! no runtime detection is needed.
//!
//! `vmull_s8` widens 8 i8×i8 products to i16 exactly;
//! `vpadalq_s16` pairwise-accumulates them into four i32 lanes — all
//! integer, all exact, so the horizontal sum equals the scalar
//! reference bit for bit (the cross-kernel parity suite pins this).
//!
//! Accumulator headroom mirrors the x86 path: each i32 lane absorbs
//! one ≤ 2·127² pair-sum per 8 processed elements, exact below ~2²⁰
//! elements (`debug_assert`ed).
//!
//! This module and `x86` are the only `unsafe` code in the workspace;
//! `#![deny(unsafe_op_in_unsafe_fn)]` forces every unsafe operation
//! into an explicit block with its safety argument alongside.
#![deny(unsafe_op_in_unsafe_fn)]

use super::tile::{self, Block, ROW_BLOCK};
use core::arch::aarch64::*;

/// Widths beyond this could overflow an i32 accumulator lane in the
/// worst case; embedding dims are ≤ a few thousand.
const MAX_EXACT_LEN: usize = 1 << 20;

/// NEON i8 dot product. Exact: identical to the scalar reference.
///
/// # Panics
///
/// Panics if lengths differ.
#[inline]
pub fn dot_i8(a: &[i8], b: &[i8]) -> i32 {
    assert_eq!(a.len(), b.len(), "i8 dot length mismatch");
    debug_assert!(a.len() <= MAX_EXACT_LEN, "i8 dot width overflows i32");
    let n = a.len();
    let blocks = n / 8;
    // SAFETY: NEON is mandatory on aarch64; `vld1_s8` has no alignment
    // requirement and block `i` reads lanes [8i, 8i+8) with 8(i+1) ≤ n.
    let mut total = unsafe {
        let mut acc = vdupq_n_s32(0);
        for i in 0..blocks {
            let va = vld1_s8(a.as_ptr().add(i * 8));
            let vb = vld1_s8(b.as_ptr().add(i * 8));
            // Exact widening multiply (i8×i8 → i16), then pairwise
            // add-accumulate into i32 lanes.
            acc = vpadalq_s16(acc, vmull_s8(va, vb));
        }
        vaddvq_s32(acc)
    };
    for i in blocks * 8..n {
        total += a[i] as i32 * b[i] as i32;
    }
    total
}

/// The NEON tile kernel — the `I8Kernel::Arch` arm of
/// [`crate::kernels::dot_i8_tile`], which has already checked the
/// shapes.
pub(super) fn dot_i8_tile(
    rows: &[i8],
    n_rows: usize,
    queries: &[i16],
    n_queries: usize,
    out: &mut [i32],
) {
    tile::run::<Neon>(rows, n_rows, queries, n_queries, out);
}

/// NEON register block: 8 code lanes per step.
struct Neon;

impl Block for Neon {
    const LANES: usize = 8;

    /// Each 8-code row step is sign-extended once (`sxtl`) and
    /// multiply-accumulated against every query of the block
    /// (`smlal`/`smlal2`: i16×i16 → i32, exact); `addv` folds each
    /// accumulator.
    #[inline(always)]
    fn dots<const NQ: usize>(
        rows: [&[i8]; ROW_BLOCK],
        queries: [&[i16]; NQ],
    ) -> [[i32; ROW_BLOCK]; NQ] {
        let n = tile::block_len(&rows, &queries);
        debug_assert!(n <= MAX_EXACT_LEN, "i8 dot width overflows i32");
        let mut sums = [[0i32; ROW_BLOCK]; NQ];
        // SAFETY: NEON is mandatory on aarch64; `vld1_s8`/`vld1q_s16`
        // have no alignment requirement and step `s` reads codes
        // [8s, 8s+8) of slices `block_len` proved `n` long, with
        // 8(s+1) ≤ n.
        unsafe {
            let mut acc = [[vdupq_n_s32(0); ROW_BLOCK]; NQ];
            for s in 0..n / 8 {
                let q: [int16x8_t; NQ] =
                    std::array::from_fn(|j| vld1q_s16(queries[j].as_ptr().add(s * 8)));
                for (i, row) in rows.iter().enumerate() {
                    let r = vmovl_s8(vld1_s8(row.as_ptr().add(s * 8)));
                    for (per_query, &qv) in acc.iter_mut().zip(&q) {
                        let low = vmlal_s16(per_query[i], vget_low_s16(r), vget_low_s16(qv));
                        per_query[i] = vmlal_high_s16(low, r, qv);
                    }
                }
            }
            for (per_query, out) in acc.iter().zip(&mut sums) {
                for (a, o) in per_query.iter().zip(out) {
                    *o = vaddvq_s32(*a);
                }
            }
        }
        sums
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::dot_i8_scalar;

    #[test]
    fn neon_matches_scalar() {
        for n in [0usize, 1, 7, 8, 9, 16, 33, 64, 257] {
            let a: Vec<i8> = (0..n).map(|i| ((i * 37 + 11) % 255) as u8 as i8).collect();
            let b: Vec<i8> = (0..n).map(|i| ((i * 73 + 5) % 255) as u8 as i8).collect();
            assert_eq!(dot_i8(&a, &b), dot_i8_scalar(&a, &b), "n={n}");
        }
    }
}
