//! x86_64 `core::arch` i8 dot kernels: SSE2 (baseline — every x86_64
//! CPU has it) and AVX2 (picked once at load via
//! `is_x86_feature_detected!`, cached in dispatched fn pointers) — a
//! per-row pair ([`dot_i8`]) and a per-tile pair ([`dot_i8_tile`],
//! register blocks plugged into the shared `tile::run` walk).
//!
//! Both paths sign-extend i8 lanes to i16 and use the widening
//! multiply-add (`pmaddwd` / `vpmaddwd`): each instruction computes
//! `a₂ᵢ·b₂ᵢ + a₂ᵢ₊₁·b₂ᵢ₊₁` exactly into an i32 lane. Integer
//! arithmetic is exact and associative, so the horizontal sum at the
//! end equals the scalar reference bit for bit — the property the
//! cross-kernel parity suite pins.
//!
//! Accumulator headroom: each pairwise product sum is ≤ 2·127² =
//! 32 258 (≤ 32 768 with the never-emitted −128), and a lane absorbs
//! one such sum per 16 (SSE2) or 32 (AVX2) processed elements, so i32
//! lanes stay exact below ~2²⁰ elements — orders of magnitude past any
//! embedding width the scan sees (`debug_assert`ed).
//!
//! This module and `neon` are the only `unsafe` code in the workspace;
//! `#![deny(unsafe_op_in_unsafe_fn)]` forces every unsafe operation
//! into an explicit block with its safety argument alongside.
#![deny(unsafe_op_in_unsafe_fn)]

use super::tile::{self, Block, ROW_BLOCK};
use core::arch::x86_64::*;
use std::sync::OnceLock;

/// Widths beyond this could overflow an i32 accumulator lane in the
/// worst case; embedding dims are ≤ a few thousand.
const MAX_EXACT_LEN: usize = 1 << 20;

/// Signature shared by the SSE2/AVX2 per-row kernels so one dispatched
/// fn pointer covers both (`unsafe` because the AVX2 body requires the
/// detected feature).
type DotI8Fn = unsafe fn(&[i8], &[i8]) -> i32;

/// Signature shared by the SSE2/AVX2 tile kernels: `(rows, n_rows,
/// queries, n_queries, out)` as in [`dot_i8_tile`].
type TileI8Fn = unsafe fn(&[i8], usize, &[i16], usize, &mut [i32]);

/// The kernels this CPU runs, detected once per process.
struct Dispatch {
    dot: DotI8Fn,
    tile: TileI8Fn,
}

fn dispatch() -> &'static Dispatch {
    static DISPATCH: OnceLock<Dispatch> = OnceLock::new();
    DISPATCH.get_or_init(|| {
        if std::arch::is_x86_feature_detected!("avx2") {
            Dispatch {
                dot: dot_i8_avx2,
                tile: tile_avx2,
            }
        } else {
            Dispatch {
                dot: dot_i8_sse2,
                tile: tile_sse2,
            }
        }
    })
}

/// Best-available x86_64 i8 dot product (AVX2 where the CPU has it,
/// SSE2 otherwise). Exact: identical to the scalar reference.
///
/// # Panics
///
/// Panics if lengths differ.
#[inline]
pub fn dot_i8(a: &[i8], b: &[i8]) -> i32 {
    assert_eq!(a.len(), b.len(), "i8 dot length mismatch");
    debug_assert!(a.len() <= MAX_EXACT_LEN, "i8 dot width overflows i32");
    // SAFETY: the dispatched fn only requires the feature it was
    // selected under (`avx2` checked in `dispatch`; SSE2 is part of
    // the x86_64 baseline), and both take ordinary slices.
    unsafe { (dispatch().dot)(a, b) }
}

/// Best-available x86_64 tile kernel — the `I8Kernel::Arch` arm of
/// [`crate::kernels::dot_i8_tile`], which has already checked the
/// shapes. One dispatch per tile.
pub(super) fn dot_i8_tile(
    rows: &[i8],
    n_rows: usize,
    queries: &[i16],
    n_queries: usize,
    out: &mut [i32],
) {
    // SAFETY: as in `dot_i8` — the fn was selected under the feature
    // it requires, and takes ordinary slices.
    unsafe { (dispatch().tile)(rows, n_rows, queries, n_queries, out) }
}

/// SSE2 kernel: 16 code lanes per iteration, unaligned loads.
///
/// # Safety
///
/// SSE2 is mandatory on x86_64, so this is safe to call on any CPU
/// this module compiles for; it is `unsafe fn` only to share the
/// dispatch signature with the AVX2 kernel.
pub unsafe fn dot_i8_sse2(a: &[i8], b: &[i8]) -> i32 {
    let n = a.len();
    let blocks = n / 16;
    // SAFETY: all intrinsics here are SSE2; loads are `loadu`
    // (no alignment requirement) and every pointer stays inside the
    // slices: block `i` reads bytes [16i, 16i+16) with 16(i+1) ≤ n.
    unsafe {
        let zero = _mm_setzero_si128();
        let mut acc = zero;
        for i in 0..blocks {
            let pa = a.as_ptr().add(i * 16) as *const __m128i;
            let pb = b.as_ptr().add(i * 16) as *const __m128i;
            let va = _mm_loadu_si128(pa);
            let vb = _mm_loadu_si128(pb);
            // Sign-extend each i8 half to i16 by unpacking against the
            // lanes' sign masks (SSE2 has no cvtepi8; cmpgt(0, v) is
            // 0xFF exactly where v is negative).
            let sa = _mm_cmpgt_epi8(zero, va);
            let sb = _mm_cmpgt_epi8(zero, vb);
            let a_lo = _mm_unpacklo_epi8(va, sa);
            let a_hi = _mm_unpackhi_epi8(va, sa);
            let b_lo = _mm_unpacklo_epi8(vb, sb);
            let b_hi = _mm_unpackhi_epi8(vb, sb);
            // Exact widening multiply-add: i16×i16 pairs summed to i32.
            acc = _mm_add_epi32(acc, _mm_madd_epi16(a_lo, b_lo));
            acc = _mm_add_epi32(acc, _mm_madd_epi16(a_hi, b_hi));
        }
        // Horizontal i32 sum of the 4 lanes.
        let hi = _mm_shuffle_epi32(acc, 0b01_00_11_10);
        let sum2 = _mm_add_epi32(acc, hi);
        let hi2 = _mm_shuffle_epi32(sum2, 0b00_00_00_01);
        let mut total = _mm_cvtsi128_si32(_mm_add_epi32(sum2, hi2));
        for i in blocks * 16..n {
            total += a[i] as i32 * b[i] as i32;
        }
        total
    }
}

/// AVX2 kernel: 32 code lanes per iteration via `vpmovsxbw` +
/// `vpmaddwd`.
///
/// # Safety
///
/// The caller must ensure the CPU supports AVX2 (the [`dot_i8`]
/// dispatcher checks `is_x86_feature_detected!("avx2")` once).
#[target_feature(enable = "avx2")]
pub unsafe fn dot_i8_avx2(a: &[i8], b: &[i8]) -> i32 {
    let n = a.len();
    let blocks = n / 32;
    // SAFETY: intrinsics require AVX2, guaranteed by the caller per
    // this function's contract; loads are unaligned (`loadu`) and
    // block `i` reads bytes [32i, 32i+32) with 32(i+1) ≤ n.
    unsafe {
        let mut acc = _mm256_setzero_si256();
        for i in 0..blocks {
            let pa = a.as_ptr().add(i * 32) as *const __m128i;
            let pb = b.as_ptr().add(i * 32) as *const __m128i;
            // Two 16-byte halves, each sign-extended i8 → i16.
            let a_lo = _mm256_cvtepi8_epi16(_mm_loadu_si128(pa));
            let a_hi = _mm256_cvtepi8_epi16(_mm_loadu_si128(pa.add(1)));
            let b_lo = _mm256_cvtepi8_epi16(_mm_loadu_si128(pb));
            let b_hi = _mm256_cvtepi8_epi16(_mm_loadu_si128(pb.add(1)));
            acc = _mm256_add_epi32(acc, _mm256_madd_epi16(a_lo, b_lo));
            acc = _mm256_add_epi32(acc, _mm256_madd_epi16(a_hi, b_hi));
        }
        // Fold 8 i32 lanes: 256 → 128 → horizontal.
        let lo = _mm256_castsi256_si128(acc);
        let hi = _mm256_extracti128_si256(acc, 1);
        let sum4 = _mm_add_epi32(lo, hi);
        let s2 = _mm_add_epi32(sum4, _mm_shuffle_epi32(sum4, 0b01_00_11_10));
        let s1 = _mm_add_epi32(s2, _mm_shuffle_epi32(s2, 0b00_00_00_01));
        let mut total = _mm_cvtsi128_si32(s1);
        for i in blocks * 32..n {
            total += a[i] as i32 * b[i] as i32;
        }
        total
    }
}

/// The SSE2 tile kernel: [`tile::run`] over [`Sse2`] blocks.
///
/// # Safety
///
/// None beyond the x86_64 baseline; `unsafe fn` only to share
/// [`TileI8Fn`] with the AVX2 kernel.
unsafe fn tile_sse2(
    rows: &[i8],
    n_rows: usize,
    queries: &[i16],
    n_queries: usize,
    out: &mut [i32],
) {
    tile::run::<Sse2>(rows, n_rows, queries, n_queries, out);
}

/// The AVX2 tile kernel: [`tile::run`] over [`Avx2`] blocks, inlined
/// into this function's feature context.
///
/// # Safety
///
/// The caller must ensure the CPU supports AVX2 ([`dispatch`] checks).
#[target_feature(enable = "avx2")]
unsafe fn tile_avx2(
    rows: &[i8],
    n_rows: usize,
    queries: &[i16],
    n_queries: usize,
    out: &mut [i32],
) {
    tile::run::<Avx2>(rows, n_rows, queries, n_queries, out);
}

/// SSE2 register block: 8 code lanes per step.
struct Sse2;

impl Block for Sse2 {
    const LANES: usize = 8;

    #[inline(always)]
    fn dots<const NQ: usize>(
        rows: [&[i8]; ROW_BLOCK],
        queries: [&[i16]; NQ],
    ) -> [[i32; ROW_BLOCK]; NQ] {
        // SAFETY: SSE2 is part of the x86_64 baseline.
        unsafe { dots_sse2(rows, queries) }
    }
}

/// AVX2 register block: 16 code lanes per step.
struct Avx2;

impl Block for Avx2 {
    const LANES: usize = 16;

    #[inline(always)]
    fn dots<const NQ: usize>(
        rows: [&[i8]; ROW_BLOCK],
        queries: [&[i16]; NQ],
    ) -> [[i32; ROW_BLOCK]; NQ] {
        // SAFETY: `Avx2` is private to this module and named only by
        // `tile_avx2`, whose own contract is that the CPU has AVX2.
        unsafe { dots_avx2(rows, queries) }
    }
}

/// [`Block::dots`] on SSE2: each 8-code row step is sign-extended once
/// and multiplied against every query of the block; a query's four row
/// accumulators are transposed and summed together.
///
/// # Safety
///
/// SSE2 is mandatory on x86_64; `unsafe fn` for the raw loads only.
#[inline]
unsafe fn dots_sse2<const NQ: usize>(
    rows: [&[i8]; ROW_BLOCK],
    queries: [&[i16]; NQ],
) -> [[i32; ROW_BLOCK]; NQ] {
    let n = tile::block_len(&rows, &queries);
    debug_assert!(n <= MAX_EXACT_LEN, "i8 dot width overflows i32");
    let mut sums = [[0i32; ROW_BLOCK]; NQ];
    // SAFETY: all intrinsics are SSE2; loads and the store are
    // unaligned variants; step `s` reads codes [8s, 8s+8) of slices
    // `block_len` proved `n` long, with 8(s+1) ≤ n; the store writes
    // the 4 i32 of one `sums` row.
    unsafe {
        let zero = _mm_setzero_si128();
        let mut acc = [[zero; ROW_BLOCK]; NQ];
        for s in 0..n / 8 {
            let q: [__m128i; NQ] = std::array::from_fn(|j| {
                _mm_loadu_si128(queries[j].as_ptr().add(s * 8) as *const __m128i)
            });
            for (i, row) in rows.iter().enumerate() {
                let v = _mm_loadl_epi64(row.as_ptr().add(s * 8) as *const __m128i);
                let r = _mm_unpacklo_epi8(v, _mm_cmpgt_epi8(zero, v));
                for (per_query, &qv) in acc.iter_mut().zip(&q) {
                    per_query[i] = _mm_add_epi32(per_query[i], _mm_madd_epi16(r, qv));
                }
            }
        }
        for (per_query, out) in acc.iter().zip(&mut sums) {
            let [a, b, c, d] = *per_query;
            // 4×4 transpose-and-add: [Σa, Σb, Σc, Σd].
            let ab = _mm_add_epi32(_mm_unpacklo_epi32(a, b), _mm_unpackhi_epi32(a, b));
            let cd = _mm_add_epi32(_mm_unpacklo_epi32(c, d), _mm_unpackhi_epi32(c, d));
            let total = _mm_add_epi32(_mm_unpacklo_epi64(ab, cd), _mm_unpackhi_epi64(ab, cd));
            _mm_storeu_si128(out.as_mut_ptr() as *mut __m128i, total);
        }
    }
    sums
}

/// [`Block::dots`] on AVX2: each 16-code row step is sign-extended
/// once (`vpmovsxbw`) and multiplied against every query of the block
/// (`vpmaddwd`); a query's four row accumulators go through one
/// `vphaddd` tree, so four sums cost one horizontal reduction.
///
/// # Safety
///
/// The caller must ensure the CPU supports AVX2.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn dots_avx2<const NQ: usize>(
    rows: [&[i8]; ROW_BLOCK],
    queries: [&[i16]; NQ],
) -> [[i32; ROW_BLOCK]; NQ] {
    let n = tile::block_len(&rows, &queries);
    debug_assert!(n <= MAX_EXACT_LEN, "i8 dot width overflows i32");
    let mut sums = [[0i32; ROW_BLOCK]; NQ];
    // SAFETY: intrinsics require AVX2, guaranteed by the caller; loads
    // and the store are unaligned variants; step `s` reads codes
    // [16s, 16s+16) of slices `block_len` proved `n` long, with
    // 16(s+1) ≤ n; the store writes the 4 i32 of one `sums` row.
    unsafe {
        let mut acc = [[_mm256_setzero_si256(); ROW_BLOCK]; NQ];
        for s in 0..n / 16 {
            let q: [__m256i; NQ] = std::array::from_fn(|j| {
                _mm256_loadu_si256(queries[j].as_ptr().add(s * 16) as *const __m256i)
            });
            for (i, row) in rows.iter().enumerate() {
                let codes = _mm_loadu_si128(row.as_ptr().add(s * 16) as *const __m128i);
                let r = _mm256_cvtepi8_epi16(codes);
                for (per_query, &qv) in acc.iter_mut().zip(&q) {
                    per_query[i] = _mm256_add_epi32(per_query[i], _mm256_madd_epi16(r, qv));
                }
            }
        }
        for (per_query, out) in acc.iter().zip(&mut sums) {
            let [a, b, c, d] = *per_query;
            // Per 128-bit half: [Σa, Σb, Σc, Σd] of that half's lanes.
            let halves = _mm256_hadd_epi32(_mm256_hadd_epi32(a, b), _mm256_hadd_epi32(c, d));
            let total = _mm_add_epi32(
                _mm256_castsi256_si128(halves),
                _mm256_extracti128_si256(halves, 1),
            );
            _mm_storeu_si128(out.as_mut_ptr() as *mut __m128i, total);
        }
    }
    sums
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::dot_i8_scalar;

    fn cases() -> Vec<(Vec<i8>, Vec<i8>)> {
        let mut out = Vec::new();
        for n in [0usize, 1, 15, 16, 17, 31, 32, 33, 64, 100, 257] {
            let a: Vec<i8> = (0..n).map(|i| ((i * 37 + 11) % 255) as u8 as i8).collect();
            let b: Vec<i8> = (0..n).map(|i| ((i * 73 + 5) % 255) as u8 as i8).collect();
            out.push((a, b));
        }
        out.push((vec![127; 65], vec![127; 65]));
        out.push((vec![-128; 65], vec![127; 65]));
        out
    }

    #[test]
    fn sse2_matches_scalar() {
        for (a, b) in cases() {
            // SAFETY: SSE2 is baseline on x86_64.
            let got = unsafe { dot_i8_sse2(&a, &b) };
            assert_eq!(got, dot_i8_scalar(&a, &b), "n={}", a.len());
        }
    }

    #[test]
    fn avx2_matches_scalar_when_available() {
        if !std::arch::is_x86_feature_detected!("avx2") {
            return;
        }
        for (a, b) in cases() {
            // SAFETY: AVX2 presence checked above.
            let got = unsafe { dot_i8_avx2(&a, &b) };
            assert_eq!(got, dot_i8_scalar(&a, &b), "n={}", a.len());
        }
    }

    #[test]
    fn sse2_tile_matches_scalar() {
        // SAFETY: SSE2 is baseline on x86_64.
        tile::tests::check_against_scalar("sse2", |r, nr, q, nq, out| unsafe {
            tile_sse2(r, nr, q, nq, out)
        });
    }

    #[test]
    fn avx2_tile_matches_scalar_when_available() {
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: AVX2 presence checked above.
            tile::tests::check_against_scalar("avx2", |r, nr, q, nq, out| unsafe {
                tile_avx2(r, nr, q, nq, out)
            });
        }
    }

    #[test]
    fn dispatcher_matches_scalar() {
        for (a, b) in cases() {
            assert_eq!(dot_i8(&a, &b), dot_i8_scalar(&a, &b), "n={}", a.len());
        }
    }
}
