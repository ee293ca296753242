//! Blocked + SIMD micro-kernels behind the two compute-bound hot
//! paths: the quantized candidate scan (`crate::quant`) and the
//! encoder matmuls (`crate::matrix`).
//!
//! Layering contract — one place decides *how* a dot product or a
//! matmul tile is computed; callers decide *what* to compute:
//!
//! * **f32 kernels never change the answer.** [`dot_f32`] is the
//!   sequential reference accumulation (the historical
//!   `a·b = Σᵢ aᵢbᵢ` fold, in index order), and the GEMM micro-kernels
//!   ([`gemm_nn`], [`gemm_nt`]) tile over *outputs only* — every
//!   output element still accumulates its k-terms in ascending order,
//!   so tiling is bit-identical to the naive loops. The f32 scan and
//!   the encoder embeddings therefore stay bit-reproducible.
//! * **i8 kernels are exact integer arithmetic.** [`dot_i8`] computes
//!   `Σᵢ aᵢ·bᵢ` over i8 codes with i16-widening multiplies summed into
//!   i32 — no rounding anywhere — so every implementation (scalar
//!   reference, portable u64-word SWAR, SSE2/AVX2, NEON) returns the
//!   *same* i32 on every platform. Callers apply the
//!   `scale_row × scale_query` dequantization once, to the final
//!   integer (see `quant::finish_i8_dot`), which is what makes the
//!   SIMD scan score-identical to the scalar reference.
//!
//! Implementation selection:
//!
//! * [`I8Kernel::Scalar`] — the per-element reference ([`dot_i8_scalar`]).
//! * [`I8Kernel::Swar`] — portable word-at-a-time kernel: both code
//!   slices are loaded 8 lanes per `u64` word and the lanes peeled
//!   with shifts into four independent i32 accumulators
//!   ([`swar::dot_i8`]); compiles on every target, no `unsafe`.
//! * [`I8Kernel::Arch`] — `core::arch` SIMD where the target has it:
//!   x86_64 (SSE2 baseline, AVX2 picked at runtime via
//!   `is_x86_feature_detected!`) and aarch64 NEON. Falls back to the
//!   SWAR kernel on other targets, so [`I8Kernel::Arch`] is always
//!   safe to request.
//!
//! [`dot_i8`] (what the HNSW traversal uses, one row at a time) is
//! `Arch`. The enum exists so the parity suites can pin every path
//! against the scalar reference on whatever hardware CI runs.
//!
//! The exact scan does not go row by row: [`dot_i8_tile`] scores a
//! whole tile of candidate rows against a block of queries per call —
//! one dispatch per tile, row codes sign-extended once per register
//! block, horizontal sums shared by four rows — and returns the same
//! `i32`s as [`dot_i8_scalar`] per (row, query) under every
//! [`I8Kernel`].
//!
//! The `x86`/`neon` submodules are the workspace's **only** `unsafe`
//! code; they carry `#![deny(unsafe_op_in_unsafe_fn)]` and per-call
//! safety comments, and the crate root's `#![deny(unsafe_code)]` is
//! lifted for exactly these two modules (see `ci.yml`'s policy note).

mod gemm;
pub mod swar;
mod tile;

#[cfg(target_arch = "aarch64")]
#[allow(unsafe_code)]
pub mod neon;
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
pub mod x86;

pub use gemm::{gemm_nn, gemm_nt};
pub use tile::dot_i8_tile;

/// Which i8 dot-product implementation to run. All variants return
/// identical results (the arithmetic is exact); the enum exists for
/// parity tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum I8Kernel {
    /// Per-element reference implementation.
    Scalar,
    /// Portable u64-word SWAR (8 code lanes per word load).
    Swar,
    /// `core::arch` SIMD for the current target (SSE2/AVX2 on x86_64,
    /// NEON on aarch64); the SWAR kernel elsewhere.
    #[default]
    Arch,
}

impl I8Kernel {
    /// Short stable name, for test failure messages.
    pub fn name(self) -> &'static str {
        match self {
            I8Kernel::Scalar => "scalar",
            I8Kernel::Swar => "swar",
            I8Kernel::Arch => arch_kernel_name(),
        }
    }
}

/// The name of the SIMD path [`I8Kernel::Arch`] resolves to on this
/// target.
fn arch_kernel_name() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            "avx2"
        } else {
            "sse2"
        }
    }
    #[cfg(target_arch = "aarch64")]
    {
        "neon"
    }
    #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
    {
        "swar"
    }
}

/// Scalar reference i8 dot product: `Σᵢ aᵢ·bᵢ` with i32 accumulation —
/// exact, the value every other kernel must reproduce bit for bit.
///
/// # Panics
///
/// Panics if lengths differ.
#[inline]
pub fn dot_i8_scalar(a: &[i8], b: &[i8]) -> i32 {
    assert_eq!(a.len(), b.len(), "i8 dot length mismatch");
    a.iter().zip(b).map(|(&x, &y)| x as i32 * y as i32).sum()
}

/// The i8 dot product the scan hot path uses: the best kernel for
/// this target ([`I8Kernel::Arch`]). Exact integer arithmetic —
/// identical to [`dot_i8_scalar`] on every input.
///
/// # Panics
///
/// Panics if lengths differ.
#[inline]
pub fn dot_i8(a: &[i8], b: &[i8]) -> i32 {
    dot_i8_with(I8Kernel::Arch, a, b)
}

/// [`dot_i8`] through an explicitly chosen kernel.
///
/// # Panics
///
/// Panics if lengths differ.
#[inline]
pub fn dot_i8_with(kernel: I8Kernel, a: &[i8], b: &[i8]) -> i32 {
    assert_eq!(a.len(), b.len(), "i8 dot length mismatch");
    match kernel {
        I8Kernel::Scalar => a.iter().zip(b).map(|(&x, &y)| x as i32 * y as i32).sum(),
        I8Kernel::Swar => swar::dot_i8(a, b),
        I8Kernel::Arch => {
            #[cfg(target_arch = "x86_64")]
            {
                x86::dot_i8(a, b)
            }
            #[cfg(target_arch = "aarch64")]
            {
                neon::dot_i8(a, b)
            }
            #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
            {
                swar::dot_i8(a, b)
            }
        }
    }
}

/// Sequential-reference f32 dot product — the exact accumulation order
/// of the historical `crate::matrix::dot`, factored here so the
/// blocked scan and the matrix kernels share one definition. The f32
/// scan paths **must** route through this (never a reassociated SIMD
/// sum): full-precision scores are pinned bit-identical to the
/// pre-kernel code.
///
/// # Panics
///
/// Panics if lengths differ.
#[inline]
pub fn dot_f32(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "dot length mismatch");
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic pseudo-random i8 codes covering the full range.
    fn codes(seed: u64, n: usize) -> Vec<i8> {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        (0..n)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                // Codes live in [-127, 127] (symmetric quantization
                // never emits -128), but the kernels must be exact on
                // -128 too.
                (state >> 24) as u8 as i8
            })
            .collect()
    }

    #[test]
    fn every_kernel_matches_the_scalar_reference_on_ragged_widths() {
        // Lane-count edges for all implementations: 8-lane SWAR words,
        // 16-lane SSE2, 32-lane AVX2 — plus 0, 1, and off-by-ones.
        for n in [0, 1, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65, 257] {
            let a = codes(n as u64 + 1, n);
            let b = codes(n as u64 + 1000, n);
            let want = dot_i8_scalar(&a, &b);
            for kernel in [I8Kernel::Scalar, I8Kernel::Swar, I8Kernel::Arch] {
                assert_eq!(
                    dot_i8_with(kernel, &a, &b),
                    want,
                    "{} kernel diverged at width {n}",
                    kernel.name()
                );
            }
            assert_eq!(dot_i8(&a, &b), want);
        }
    }

    #[test]
    fn extreme_codes_do_not_overflow() {
        // 4096 saturated products: 4096 · 127² = 66 M, far inside i32,
        // and every kernel must agree on the exact sum.
        let a = vec![127i8; 4096];
        let b = vec![-127i8; 4096];
        let want = -(4096 * 127 * 127);
        for kernel in [I8Kernel::Scalar, I8Kernel::Swar, I8Kernel::Arch] {
            assert_eq!(dot_i8_with(kernel, &a, &b), want, "{}", kernel.name());
        }
        // -128 (never produced by our encoder, still exact).
        let a = vec![-128i8; 33];
        let b = vec![-128i8; 33];
        assert_eq!(dot_i8(&a, &b), 33 * 128 * 128);
    }

    #[test]
    fn dot_f32_matches_matrix_dot_bitwise() {
        let a = [0.3f32, -1.7, 2.2, 0.01, 5.5e-3, -9.0];
        let b = [1.1f32, 0.4, -0.9, 3.0, -2.25, 0.125];
        assert_eq!(dot_f32(&a, &b), crate::matrix::dot(&a, &b));
    }

    #[test]
    fn kernel_names_are_stable() {
        assert_eq!(I8Kernel::Scalar.name(), "scalar");
        assert_eq!(I8Kernel::Swar.name(), "swar");
        // Arch resolves per target; it must at least be one of the
        // known implementations.
        assert!(["sse2", "avx2", "neon", "swar"].contains(&I8Kernel::Arch.name()));
    }
}
