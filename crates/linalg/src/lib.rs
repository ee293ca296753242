//! Dense `f32` linear algebra for the cmdline-ids workspace.
//!
//! Provides the numeric substrate the paper's methods need:
//!
//! * [`Matrix`] — row-major dense matrices with (optionally parallel)
//!   matrix multiplication, used by the `nn` transformer crate.
//! * [`par`] — the one fan-out rule: every scoped-thread split below
//!   the serving layer (matmul rows, attention sequences,
//!   batched-forward lines, index scans) is a call of
//!   [`par::for_each_chunk_mut`] with its work estimate.
//! * [`eig::eigh`] — cyclic-Jacobi eigendecomposition of symmetric
//!   matrices.
//! * [`svd::thin_svd`] — thin SVD built on the eigendecomposition.
//! * [`pca::Pca`] — principal component analysis with the reconstruction
//!   error of the paper's Eq. (1):
//!   `L_PCA(t) = ‖WᵀW f(t) − f(t)‖²` (projection onto the retained
//!   subspace and back).
//!
//! * [`kernels`] — blocked + SIMD micro-kernels behind the quantized
//!   candidate scan and the encoder matmuls (exact-integer i8 dots,
//!   bit-identical f32 GEMM tiles).
//!
//! Everything is pure Rust; parallelism uses scoped `std` threads
//! through [`par`] alone. `unsafe` is denied workspace-wide except
//! the two `core::arch` kernel modules (`kernels::x86`, `kernels::neon`),
//! which carry `#![deny(unsafe_op_in_unsafe_fn)]` and per-call safety
//! comments — see `kernels`' module docs for the policy.
#![deny(unsafe_code)]

pub mod eig;
pub mod kernels;
pub mod matrix;
pub mod ops;
pub mod par;
pub mod pca;
pub mod quant;
pub mod rng;
pub mod svd;

pub use eig::eigh;
pub use matrix::{dot, Matrix};
pub use pca::Pca;
pub use svd::{thin_svd, Svd};
