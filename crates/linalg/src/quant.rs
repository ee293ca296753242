//! Quantized candidate storage for the vector-index layer.
//!
//! The dominant cost of an exact cosine scan is streaming the
//! candidate matrix through the dot products; cutting the bytes per
//! candidate row cuts the memory bandwidth the scan pays. This module
//! provides the storage axis the `index` crate threads through every
//! backend:
//!
//! * [`Quantization`] — the format knob (`F32 | F16 | I8`).
//! * [`f32_to_f16`] / [`f16_to_f32`] — IEEE 754 binary16 conversion
//!   with round-to-nearest-even (hand-rolled; the container has no
//!   `half` crate). Decoding goes through a lazily-built 64 Ki-entry
//!   lookup table so the scoring kernel pays one table read per
//!   element instead of a bit-twiddling decode.
//! * [`i8_encode_row`] — per-row symmetric int8: one `f32` scale per
//!   row (`max |x| / 127`), so a row's quantization never depends on
//!   its neighbours — a sharded index quantizing shard by shard is
//!   bit-identical to quantizing the whole matrix row by row.
//! * [`QuantizedMatrix`] — a row-major candidate matrix in any of the
//!   three formats with *dequant-free* scoring kernels:
//!   [`QuantizedMatrix::dot_row`] accumulates straight out of the
//!   compressed representation (f16 via the table; i8 as an
//!   **exact-integer** dot — the query is symmetrically quantized too,
//!   the codes multiply in i16-widening integer arithmetic via
//!   [`crate::kernels`], and `scale_row × scale_query` dequantizes the
//!   final integer once, see [`finish_i8_dot`]) without materializing
//!   an `f32` row.
//! * [`PreparedQuery`] — one query validated and (for i8) quantized
//!   **once**, for callers that score scattered rows one at a time
//!   (the HNSW traversal).
//! * [`PreparedBlock`] / [`QuantizedMatrix::dot_tile`] — the exact
//!   scan's hot path: a block of queries is validated, quantized and
//!   (for i8) widened to i16 **once per scan**, then candidate rows are
//!   scored in cache-sized tiles ([`SCAN_TILE_ROWS`]) with the whole
//!   block per tile, so the f16 decode and the row stream are
//!   amortized across queries and each i8 tile is one call into the
//!   fused integer kernel ([`kernels::dot_i8_tile`]).
//!
//! The `F32` variant wraps a plain [`Matrix`] and its kernels are the
//! exact historical ones — every f32-configured index stays
//! bit-identical to the pre-quantization code, which the index crate's
//! back-compat pins assert. Exact integer arithmetic is associative,
//! so the i8 scores are additionally bit-identical across *every*
//! kernel implementation (scalar, SWAR, SSE2/AVX2, NEON) on every
//! platform.

use crate::kernels::{self, I8Kernel};
use crate::matrix::{dot, Matrix};
use std::sync::OnceLock;

/// Candidate rows per scan tile. Sized so a decoded f16 tile
/// (`TILE × cols × 4` bytes — 16 KiB at the paper's 64-dim embedding)
/// stays L1-resident while a block of queries is scored against it,
/// amortizing the f16 table decode across every query in the block
/// instead of re-paying it per query; an i8 tile is one call into the
/// fused integer kernel, and 64 rows × 16 queries of its `i32` sums
/// are 4 KiB.
pub const SCAN_TILE_ROWS: usize = 64;

/// Candidate storage format for a vector index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Quantization {
    /// Full-precision rows — bit-identical to the historical scans.
    #[default]
    F32,
    /// IEEE binary16 rows: 2 bytes/element, ≤ 1 f16-ulp element error.
    F16,
    /// Per-row symmetric int8: 1 byte/element + one `f32` scale per
    /// row, ≤ `scale/2` element error.
    I8,
}

impl Quantization {
    /// Short stable name (`"f32"` / `"f16"` / `"i8"`), the CLI
    /// spelling of the `--quant` knob.
    pub fn name(self) -> &'static str {
        match self {
            Quantization::F32 => "f32",
            Quantization::F16 => "f16",
            Quantization::I8 => "i8",
        }
    }

    /// Bytes one stored element occupies (excluding per-row scales).
    pub fn bytes_per_element(self) -> usize {
        match self {
            Quantization::F32 => 4,
            Quantization::F16 => 2,
            Quantization::I8 => 1,
        }
    }
}

impl std::str::FromStr for Quantization {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "f32" => Ok(Quantization::F32),
            "f16" => Ok(Quantization::F16),
            "i8" => Ok(Quantization::I8),
            other => Err(format!("unknown quantization {other:?} (f32|f16|i8)")),
        }
    }
}

impl std::fmt::Display for Quantization {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Converts an `f32` to IEEE 754 binary16 bits with
/// round-to-nearest-even (overflow saturates to ±∞, NaN maps to a
/// quiet NaN).
pub fn f32_to_f16(x: f32) -> u16 {
    let bits = x.to_bits();
    let sign = ((bits >> 16) & 0x8000) as u16;
    let exp = ((bits >> 23) & 0xFF) as i32;
    let mant = bits & 0x007F_FFFF;
    if exp == 0xFF {
        // Inf / NaN.
        return sign | if mant != 0 { 0x7E00 } else { 0x7C00 };
    }
    let unbiased = exp - 127;
    if unbiased >= 16 {
        // Too large for f16: saturate to infinity.
        return sign | 0x7C00;
    }
    if unbiased >= -14 {
        // Normal f16: keep the top 10 mantissa bits, RNE on the rest.
        let mant16 = mant >> 13;
        let round = mant & 0x1FFF;
        let mut h = (((unbiased + 15) as u32) << 10) | mant16;
        if round > 0x1000 || (round == 0x1000 && (mant16 & 1) == 1) {
            // A carry out of the mantissa correctly increments the
            // exponent (and saturates to +∞ at the top).
            h += 1;
        }
        return sign | h as u16;
    }
    if unbiased < -25 {
        // Below half the smallest subnormal: rounds to (signed) zero.
        return sign;
    }
    // Subnormal f16: value = full_mant · 2^(unbiased − 23); the
    // subnormal unit is 2^-24, so the stored mantissa is
    // full_mant >> (−1 − unbiased) with RNE on the dropped bits.
    let full_mant = mant | 0x0080_0000;
    let shift = (-1 - unbiased) as u32; // 14..=24
    let kept = full_mant >> shift;
    let dropped = full_mant & ((1u32 << shift) - 1);
    let half = 1u32 << (shift - 1);
    let mut h = kept;
    if dropped > half || (dropped == half && (kept & 1) == 1) {
        // May carry into the exponent field: 0x0400 is exactly the
        // smallest normal, which is the correct rounding.
        h += 1;
    }
    sign | h as u16
}

/// Converts IEEE 754 binary16 bits back to `f32` (exact — every f16
/// value is representable).
pub fn f16_to_f32(h: u16) -> f32 {
    let sign = ((h & 0x8000) as u32) << 16;
    let exp = ((h >> 10) & 0x1F) as u32;
    let mant = (h & 0x03FF) as u32;
    if exp == 0 {
        if mant == 0 {
            return f32::from_bits(sign);
        }
        // Subnormal: mant · 2^-24.
        let v = mant as f32 * 2f32.powi(-24);
        return if sign != 0 { -v } else { v };
    }
    if exp == 0x1F {
        return f32::from_bits(sign | 0x7F80_0000 | (mant << 13));
    }
    f32::from_bits(sign | ((exp + 112) << 23) | (mant << 13))
}

/// The f16 → f32 decode table the scoring kernels read (64 Ki entries,
/// 256 KiB, built once per process on first use).
fn f16_table() -> &'static [f32] {
    static TABLE: OnceLock<Vec<f32>> = OnceLock::new();
    TABLE.get_or_init(|| (0..=u16::MAX).map(f16_to_f32).collect())
}

/// Quantizes one row to per-row symmetric int8: returns the codes and
/// the scale such that `code[j] · scale ≈ row[j]` with element error
/// ≤ `scale / 2`. An all-zero (or all-non-finite-free zero) row gets
/// scale 0 and all-zero codes.
pub fn i8_encode_row(row: &[f32]) -> (Vec<i8>, f32) {
    let mut codes = Vec::with_capacity(row.len());
    let scale = i8_encode_with(row, |code| codes.push(code));
    (codes, scale)
}

/// [`i8_encode_row`] handing each code to `emit` in column order and
/// returning the scale — the one quantizer behind stored rows, prepared
/// queries and prepared blocks, so their codes cannot drift apart.
fn i8_encode_with(row: &[f32], mut emit: impl FnMut(i8)) -> f32 {
    let max_abs = row.iter().fold(0.0f32, |m, &x| m.max(x.abs()));
    if max_abs == 0.0 {
        row.iter().for_each(|_| emit(0));
        return 0.0;
    }
    let scale = max_abs / 127.0;
    let inv = 1.0 / scale as f64;
    for &x in row {
        emit(((x as f64 * inv).round() as i32).clamp(-127, 127) as i8);
    }
    scale
}

/// Dequantizes a finished exact-integer i8 dot product: the stored row
/// and the query were both symmetrically quantized, so
/// `Σ rᵢqᵢ ≈ (Σ codeᵣᵢ·codeqᵢ) · scaleᵣ · scaleq`. The scale product is
/// applied **once, to the final integer** — the single place the i8
/// score becomes a float, shared by the scalar reference
/// ([`QuantizedMatrix::dot_row`]), the prepared path and the blocked
/// scan, which is what makes every i8 kernel score-identical.
#[inline]
pub fn finish_i8_dot(acc: i32, row_scale: f32, query_scale: f32) -> f32 {
    acc as f32 * (row_scale * query_scale)
}

/// A row-major candidate matrix stored in one of the three
/// [`Quantization`] formats, with scoring kernels that read the
/// compressed representation directly.
///
/// The variant fields are public so the `index` crate's hand-rolled
/// persistence codec can frame them; invariants (`data.len() ==
/// rows · cols`, one i8 scale per row) are asserted by the
/// constructors and must be upheld by anyone building a value
/// literally.
#[derive(Debug, Clone, PartialEq)]
pub enum QuantizedMatrix {
    /// Full-precision rows (the historical storage, wrapped).
    F32(Matrix),
    /// binary16 rows.
    F16 {
        /// Row count.
        rows: usize,
        /// Columns per row.
        cols: usize,
        /// Row-major f16 bit patterns, `rows · cols` long.
        data: Vec<u16>,
    },
    /// Per-row symmetric int8 rows.
    I8 {
        /// Row count.
        rows: usize,
        /// Columns per row.
        cols: usize,
        /// Row-major codes, `rows · cols` long.
        data: Vec<i8>,
        /// One symmetric scale per row.
        scales: Vec<f32>,
    },
}

impl QuantizedMatrix {
    /// Encodes `data` into the chosen format (`F32` wraps it
    /// unchanged, no copy).
    pub fn encode(data: Matrix, quant: Quantization) -> Self {
        match quant {
            Quantization::F32 => QuantizedMatrix::F32(data),
            Quantization::F16 => QuantizedMatrix::F16 {
                rows: data.rows(),
                cols: data.cols(),
                data: data.as_slice().iter().map(|&x| f32_to_f16(x)).collect(),
            },
            Quantization::I8 => {
                let (rows, cols) = data.shape();
                let mut codes = Vec::with_capacity(rows * cols);
                let mut scales = Vec::with_capacity(rows);
                for r in 0..rows {
                    let (row_codes, scale) = i8_encode_row(data.row(r));
                    codes.extend_from_slice(&row_codes);
                    scales.push(scale);
                }
                QuantizedMatrix::I8 {
                    rows,
                    cols,
                    data: codes,
                    scales,
                }
            }
        }
    }

    /// An empty matrix of the given format and width.
    pub fn empty(quant: Quantization, cols: usize) -> Self {
        Self::encode(Matrix::zeros(0, cols), quant)
    }

    /// The storage format.
    pub fn quantization(&self) -> Quantization {
        match self {
            QuantizedMatrix::F32(_) => Quantization::F32,
            QuantizedMatrix::F16 { .. } => Quantization::F16,
            QuantizedMatrix::I8 { .. } => Quantization::I8,
        }
    }

    /// Row count.
    pub fn rows(&self) -> usize {
        match self {
            QuantizedMatrix::F32(m) => m.rows(),
            QuantizedMatrix::F16 { rows, .. } | QuantizedMatrix::I8 { rows, .. } => *rows,
        }
    }

    /// Columns per row.
    pub fn cols(&self) -> usize {
        match self {
            QuantizedMatrix::F32(m) => m.cols(),
            QuantizedMatrix::F16 { cols, .. } | QuantizedMatrix::I8 { cols, .. } => *cols,
        }
    }

    /// Bytes the candidate storage occupies (codes plus per-row
    /// scales).
    pub fn candidate_bytes(&self) -> usize {
        let elems = self.rows() * self.cols();
        match self {
            QuantizedMatrix::F32(_) => elems * 4,
            QuantizedMatrix::F16 { .. } => elems * 2,
            QuantizedMatrix::I8 { scales, .. } => elems + scales.len() * 4,
        }
    }

    /// Appends one row, quantizing it into this matrix's format.
    ///
    /// # Panics
    ///
    /// Panics if `row.len() != self.cols()` on a non-empty matrix (an
    /// empty one adopts the row's width, as [`Matrix::push_row`] does).
    pub fn push_row(&mut self, row: &[f32]) {
        match self {
            QuantizedMatrix::F32(m) => m.push_row(row),
            QuantizedMatrix::F16 { rows, cols, data } => {
                if *rows == 0 && data.is_empty() {
                    *cols = row.len();
                }
                assert_eq!(row.len(), *cols, "push_row width mismatch");
                data.extend(row.iter().map(|&x| f32_to_f16(x)));
                *rows += 1;
            }
            QuantizedMatrix::I8 {
                rows,
                cols,
                data,
                scales,
            } => {
                if *rows == 0 && data.is_empty() {
                    *cols = row.len();
                }
                assert_eq!(row.len(), *cols, "push_row width mismatch");
                let (codes, scale) = i8_encode_row(row);
                data.extend_from_slice(&codes);
                scales.push(scale);
                *rows += 1;
            }
        }
    }

    /// Decodes row `r` to `f32` (exact for `F32`; the dequantized
    /// approximation otherwise). Used off the scoring hot path — graph
    /// construction anchors, not per-candidate scoring.
    pub fn decode_row(&self, r: usize) -> Vec<f32> {
        match self {
            QuantizedMatrix::F32(m) => m.row(r).to_vec(),
            QuantizedMatrix::F16 { cols, data, .. } => {
                let table = f16_table();
                data[r * cols..(r + 1) * cols]
                    .iter()
                    .map(|&h| table[h as usize])
                    .collect()
            }
            QuantizedMatrix::I8 {
                cols, data, scales, ..
            } => {
                let scale = scales[r];
                data[r * cols..(r + 1) * cols]
                    .iter()
                    .map(|&q| q as f32 * scale)
                    .collect()
            }
        }
    }

    /// Dot product of stored row `r` with an `f32` query, accumulated
    /// straight from the compressed representation (the dequant-free
    /// scoring kernel). Bit-identical to [`dot`] for `F32`.
    ///
    /// This is the *scalar reference* path: it computes exactly what
    /// [`QuantizedMatrix::dot_row_prepared`] computes (for `I8`, it
    /// quantizes the query per call — callers on a hot loop should
    /// prepare once instead).
    ///
    /// # Panics
    ///
    /// Panics if `query.len() != self.cols()` — validated here for
    /// **every** format, so the width contract no longer depends on
    /// which storage variant a config picked (historically `F32`
    /// panicked via [`dot`] while the quantized arms only
    /// debug-asserted).
    #[inline]
    pub fn dot_row(&self, r: usize, query: &[f32]) -> f32 {
        assert_eq!(
            query.len(),
            self.cols(),
            "dot_row width mismatch: query has {} dims, matrix has {}",
            query.len(),
            self.cols()
        );
        match self {
            QuantizedMatrix::F32(m) => dot(m.row(r), query),
            QuantizedMatrix::F16 { cols, data, .. } => {
                let table = f16_table();
                let row = &data[r * cols..(r + 1) * cols];
                let mut acc = 0.0f32;
                for (&h, &q) in row.iter().zip(query) {
                    acc += table[h as usize] * q;
                }
                acc
            }
            QuantizedMatrix::I8 {
                cols, data, scales, ..
            } => {
                let (q_codes, q_scale) = i8_encode_row(query);
                let row = &data[r * cols..(r + 1) * cols];
                finish_i8_dot(kernels::dot_i8_scalar(row, &q_codes), scales[r], q_scale)
            }
        }
    }

    /// Cosine similarity of stored row `r` against a query whose norm
    /// the caller holds, reusing the index's cached **original-f32**
    /// row norm. Degenerate inputs (either norm zero) score 0.0 —
    /// exactly the [`crate::ops::cosine_with_norms`] contract, so
    /// all-zero rows keep their deterministic tie order under every
    /// format.
    #[inline]
    pub fn cosine_row(&self, r: usize, row_norm: f32, query: &[f32], query_norm: f32) -> f32 {
        if row_norm == 0.0 || query_norm == 0.0 {
            return 0.0;
        }
        self.dot_row(r, query) / (row_norm * query_norm)
    }

    /// Validates and pre-processes a query for repeated scoring
    /// against this matrix: the **one width boundary** for the scan
    /// hot paths (every per-row scoring call after this only
    /// debug-asserts), and — for `I8` — the place the query is
    /// symmetrically quantized *once* so the per-candidate inner loop
    /// is pure integer arithmetic.
    ///
    /// # Panics
    ///
    /// Panics if `query.len() != self.cols()`.
    pub fn prepare_query<'q>(&self, query: &'q [f32]) -> PreparedQuery<'q> {
        assert_eq!(
            query.len(),
            self.cols(),
            "query width mismatch: query has {} dims, matrix has {}",
            query.len(),
            self.cols()
        );
        let (i8_codes, i8_scale) = match self {
            QuantizedMatrix::I8 { .. } => {
                let (codes, scale) = i8_encode_row(query);
                (codes, scale)
            }
            _ => (Vec::new(), 0.0),
        };
        PreparedQuery {
            query,
            i8_codes,
            i8_scale,
        }
    }

    /// [`QuantizedMatrix::dot_row`] through a [`PreparedQuery`]: same
    /// scores (bit-identical — for `I8` both paths run the exact
    /// integer sum and the same [`finish_i8_dot`]), but width was
    /// validated once at [`QuantizedMatrix::prepare_query`] and the
    /// `I8` query codes are reused instead of re-quantized per row.
    #[inline]
    pub fn dot_row_prepared(&self, r: usize, pq: &PreparedQuery<'_>) -> f32 {
        self.dot_row_prepared_with(I8Kernel::Arch, r, pq)
    }

    /// [`QuantizedMatrix::dot_row_prepared`] through an explicit i8
    /// kernel (all kernels return identical scores; the knob exists
    /// for the parity suites).
    #[inline]
    pub fn dot_row_prepared_with(&self, kernel: I8Kernel, r: usize, pq: &PreparedQuery<'_>) -> f32 {
        debug_assert_eq!(pq.query.len(), self.cols(), "prepared for another width");
        match self {
            QuantizedMatrix::F32(m) => dot(m.row(r), pq.query),
            QuantizedMatrix::F16 { cols, data, .. } => {
                let table = f16_table();
                let row = &data[r * cols..(r + 1) * cols];
                let mut acc = 0.0f32;
                for (&h, &q) in row.iter().zip(pq.query) {
                    acc += table[h as usize] * q;
                }
                acc
            }
            QuantizedMatrix::I8 {
                cols, data, scales, ..
            } => {
                let row = &data[r * cols..(r + 1) * cols];
                finish_i8_dot(
                    kernels::dot_i8_with(kernel, row, &pq.i8_codes),
                    scales[r],
                    pq.i8_scale,
                )
            }
        }
    }

    /// [`QuantizedMatrix::cosine_row`] through a [`PreparedQuery`]
    /// (same zero-norm contract, same scores).
    #[inline]
    pub fn cosine_row_prepared(
        &self,
        r: usize,
        row_norm: f32,
        pq: &PreparedQuery<'_>,
        query_norm: f32,
    ) -> f32 {
        if row_norm == 0.0 || query_norm == 0.0 {
            return 0.0;
        }
        self.dot_row_prepared(r, pq) / (row_norm * query_norm)
    }

    /// Validates and pre-processes a block of queries for
    /// [`QuantizedMatrix::dot_tile`], refilling `block` in place (its
    /// buffers are reused from scan block to scan block). For `I8`
    /// every query is symmetrically quantized by the same quantizer as
    /// [`QuantizedMatrix::prepare_query`] and its codes widened to i16
    /// here, once — the form the tile kernel multiplies.
    ///
    /// # Panics
    ///
    /// Panics if any query's length differs from `self.cols()`.
    pub fn prepare_block<'q>(
        &self,
        queries: impl IntoIterator<Item = &'q [f32]>,
        block: &mut PreparedBlock<'q>,
    ) {
        block.queries.clear();
        block.i8_wide.clear();
        block.i8_scales.clear();
        for query in queries {
            assert_eq!(
                query.len(),
                self.cols(),
                "query width mismatch: query has {} dims, matrix has {}",
                query.len(),
                self.cols()
            );
            block.queries.push(query);
            if let QuantizedMatrix::I8 { .. } = self {
                let wide = &mut block.i8_wide;
                let scale = i8_encode_with(query, |code| wide.push(code.into()));
                block.i8_scales.push(scale);
            }
        }
    }

    /// Blocked scan primitive: dot products of the row tile
    /// `[row_start, row_start + nrows)` against a prepared block of
    /// queries, written to `out[q * nrows + i]` for query `q` and tile
    /// row `i`.
    ///
    /// The tile is traversed once per *block*, not once per query:
    ///
    /// * `F16` — the tile is decoded through the 256 KiB lookup table
    ///   into `scratch` **once**, then every query runs a sequential
    ///   f32 dot against the L1-resident scratch rows. Element values
    ///   and accumulation order match the per-row table kernel
    ///   exactly, so f16 scores are bit-identical to the unblocked
    ///   path.
    /// * `I8` — one call into the fused integer tile kernel
    ///   ([`kernels::dot_i8_tile`]) yields every exact `i32` sum of the
    ///   tile, and [`finish_i8_dot`] dequantizes them in one
    ///   vectorizable pass — score-identical to [`dot_row`] under
    ///   every [`I8Kernel`].
    /// * `F32` — plain sequential dots ([`dot`]'s order), bit-identical
    ///   to the historical scan.
    ///
    /// # Panics
    ///
    /// Panics if the tile range is out of bounds, `block` was prepared
    /// for another width, or `out` is shorter than `block.len() · nrows`.
    ///
    /// [`dot_row`]: QuantizedMatrix::dot_row
    pub fn dot_tile(
        &self,
        kernel: I8Kernel,
        row_start: usize,
        nrows: usize,
        block: &PreparedBlock<'_>,
        scratch: &mut TileScratch,
        out: &mut [f32],
    ) {
        assert!(row_start + nrows <= self.rows(), "tile out of bounds");
        assert!(
            out.len() >= block.len() * nrows,
            "tile output buffer too small"
        );
        match self {
            QuantizedMatrix::F32(m) => {
                for (q, query) in block.queries.iter().enumerate() {
                    let out_q = &mut out[q * nrows..(q + 1) * nrows];
                    for (i, o) in out_q.iter_mut().enumerate() {
                        *o = dot(m.row(row_start + i), query);
                    }
                }
            }
            QuantizedMatrix::F16 { cols, data, .. } => {
                let table = f16_table();
                let decoded = &mut scratch.decoded;
                decoded.clear();
                decoded.extend(
                    data[row_start * cols..(row_start + nrows) * cols]
                        .iter()
                        .map(|&h| table[h as usize]),
                );
                for (q, query) in block.queries.iter().enumerate() {
                    let out_q = &mut out[q * nrows..(q + 1) * nrows];
                    for (i, o) in out_q.iter_mut().enumerate() {
                        *o = kernels::dot_f32(&decoded[i * cols..(i + 1) * cols], query);
                    }
                }
            }
            QuantizedMatrix::I8 {
                cols, data, scales, ..
            } => {
                let sums = &mut scratch.sums;
                sums.clear();
                sums.resize(block.len() * nrows, 0);
                kernels::dot_i8_tile(
                    kernel,
                    &data[row_start * cols..(row_start + nrows) * cols],
                    nrows,
                    &block.i8_wide,
                    block.len(),
                    sums,
                );
                let row_scales = &scales[row_start..row_start + nrows];
                for (q, &query_scale) in block.i8_scales.iter().enumerate() {
                    let span = q * nrows..(q + 1) * nrows;
                    for ((o, &sum), &row_scale) in out[span.clone()]
                        .iter_mut()
                        .zip(&sums[span])
                        .zip(row_scales)
                    {
                        *o = finish_i8_dot(sum, row_scale, query_scale);
                    }
                }
            }
        }
    }

    /// A new matrix holding the listed rows (in order), copying the
    /// raw compressed representation — no decode/re-encode round trip,
    /// so compaction is lossless in every format.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of range.
    pub fn select_rows(&self, keep: &[usize]) -> Self {
        match self {
            QuantizedMatrix::F32(m) => {
                let mut out = Matrix::zeros(0, m.cols());
                for &r in keep {
                    out.push_row(m.row(r));
                }
                QuantizedMatrix::F32(out)
            }
            QuantizedMatrix::F16 { cols, data, .. } => {
                let mut out = Vec::with_capacity(keep.len() * cols);
                for &r in keep {
                    out.extend_from_slice(&data[r * cols..(r + 1) * cols]);
                }
                QuantizedMatrix::F16 {
                    rows: keep.len(),
                    cols: *cols,
                    data: out,
                }
            }
            QuantizedMatrix::I8 {
                cols, data, scales, ..
            } => {
                let mut out = Vec::with_capacity(keep.len() * cols);
                let mut out_scales = Vec::with_capacity(keep.len());
                for &r in keep {
                    out.extend_from_slice(&data[r * cols..(r + 1) * cols]);
                    out_scales.push(scales[r]);
                }
                QuantizedMatrix::I8 {
                    rows: keep.len(),
                    cols: *cols,
                    data: out,
                    scales: out_scales,
                }
            }
        }
    }
}

/// A query validated (and, for `I8` matrices, symmetrically quantized)
/// once via [`QuantizedMatrix::prepare_query`], ready for repeated
/// per-row or blocked scoring. Preparing per scan — instead of per
/// candidate — is what turns the i8 inner loop into pure integer
/// arithmetic.
#[derive(Debug, Clone)]
pub struct PreparedQuery<'q> {
    /// The original full-precision query.
    query: &'q [f32],
    /// Symmetric i8 codes of the query (empty unless prepared against
    /// an `I8` matrix).
    i8_codes: Vec<i8>,
    /// The query's i8 scale (0.0 unless prepared against `I8`).
    i8_scale: f32,
}

impl<'q> PreparedQuery<'q> {
    /// The full-precision query this was prepared from.
    pub fn query(&self) -> &'q [f32] {
        self.query
    }
}

/// A block of queries validated — and, for `I8` matrices, quantized
/// and widened to i16 — once via [`QuantizedMatrix::prepare_block`],
/// ready for [`QuantizedMatrix::dot_tile`] over every tile of a scan.
/// Refilled in place, so one value serves a whole batch.
#[derive(Debug, Default)]
pub struct PreparedBlock<'q> {
    /// The original full-precision queries.
    queries: Vec<&'q [f32]>,
    /// Query-major i8 codes widened to i16, `len · cols` long (empty
    /// unless prepared against an `I8` matrix).
    i8_wide: Vec<i16>,
    /// One i8 scale per query (empty unless prepared against `I8`).
    i8_scales: Vec<f32>,
}

impl<'q> PreparedBlock<'q> {
    /// Number of queries in the block.
    pub fn len(&self) -> usize {
        self.queries.len()
    }

    /// Whether the block holds no queries.
    pub fn is_empty(&self) -> bool {
        self.queries.is_empty()
    }

    /// The full-precision queries the block was prepared from.
    pub fn queries(&self) -> &[&'q [f32]] {
        &self.queries
    }
}

/// Buffers [`QuantizedMatrix::dot_tile`] reuses from tile to tile: the
/// decoded f16 tile and the i8 tile's integer sums.
#[derive(Debug, Default)]
pub struct TileScratch {
    decoded: Vec<f32>,
    sums: Vec<i32>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f16_round_trips_every_bit_pattern() {
        // decode → encode is the identity on all 65536 patterns
        // (NaNs compare by payload class, so skip them).
        for h in 0..=u16::MAX {
            let x = f16_to_f32(h);
            if x.is_nan() {
                continue;
            }
            assert_eq!(f32_to_f16(x), h, "pattern {h:#06x} drifted");
        }
    }

    #[test]
    fn f16_known_values() {
        assert_eq!(f16_to_f32(f32_to_f16(1.0)), 1.0);
        assert_eq!(f16_to_f32(f32_to_f16(-2.5)), -2.5);
        assert_eq!(f16_to_f32(f32_to_f16(0.0)), 0.0);
        assert_eq!(f32_to_f16(65536.0), 0x7C00, "overflow saturates to inf");
        assert_eq!(f32_to_f16(1e-10), 0, "underflow rounds to zero");
        // Smallest subnormal survives.
        let tiny = 2f32.powi(-24);
        assert_eq!(f16_to_f32(f32_to_f16(tiny)), tiny);
        // Round-to-nearest-even at the halfway point: 1 + 2^-11 is
        // exactly between 1.0 and the next f16; even mantissa wins.
        assert_eq!(f16_to_f32(f32_to_f16(1.0 + 2f32.powi(-11))), 1.0);
    }

    #[test]
    fn i8_rows_are_bounded_and_row_local() {
        let row = [0.5f32, -1.0, 0.25, 0.0];
        let (codes, scale) = i8_encode_row(&row);
        assert_eq!(scale, 1.0 / 127.0);
        for (&x, &q) in row.iter().zip(&codes) {
            assert!((x - q as f32 * scale).abs() <= scale / 2.0 + scale * 1e-5);
        }
        let (zero_codes, zero_scale) = i8_encode_row(&[0.0, 0.0]);
        assert_eq!(zero_scale, 0.0);
        assert!(zero_codes.iter().all(|&q| q == 0));
    }

    #[test]
    fn f32_variant_kernels_are_bit_identical_to_the_plain_matrix() {
        let m = Matrix::from_rows(&[&[0.3, -1.7, 2.2], &[1.1, 0.4, -0.9]]);
        let q = QuantizedMatrix::encode(m.clone(), Quantization::F32);
        let query = [0.2f32, 0.7, -0.5];
        for r in 0..2 {
            assert_eq!(q.dot_row(r, &query), dot(m.row(r), &query));
            assert_eq!(q.decode_row(r), m.row(r));
        }
    }

    #[test]
    fn push_row_matches_whole_matrix_encoding() {
        let m = Matrix::from_rows(&[&[0.5, -0.25], &[3.0, 4.0], &[0.0, 0.0]]);
        for quant in [Quantization::F32, Quantization::F16, Quantization::I8] {
            let whole = QuantizedMatrix::encode(m.clone(), quant);
            let mut incremental = QuantizedMatrix::empty(quant, 2);
            for r in 0..m.rows() {
                incremental.push_row(m.row(r));
            }
            assert_eq!(incremental, whole, "{quant}");
            assert_eq!(incremental.rows(), 3);
            assert_eq!(incremental.cols(), 2);
        }
    }

    #[test]
    fn select_rows_copies_raw_codes() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[-3.0, 0.5], &[0.125, 8.0]]);
        for quant in [Quantization::F32, Quantization::F16, Quantization::I8] {
            let q = QuantizedMatrix::encode(m.clone(), quant);
            let picked = q.select_rows(&[2, 0]);
            assert_eq!(picked.rows(), 2);
            assert_eq!(picked.decode_row(0), q.decode_row(2), "{quant}");
            assert_eq!(picked.decode_row(1), q.decode_row(0), "{quant}");
        }
    }

    #[test]
    fn candidate_bytes_shrink_with_the_format() {
        let m = Matrix::zeros(10, 8);
        let f32b = QuantizedMatrix::encode(m.clone(), Quantization::F32).candidate_bytes();
        let f16b = QuantizedMatrix::encode(m.clone(), Quantization::F16).candidate_bytes();
        let i8b = QuantizedMatrix::encode(m, Quantization::I8).candidate_bytes();
        assert_eq!(f32b, 320);
        assert_eq!(f16b, 160);
        assert_eq!(i8b, 80 + 40);
    }

    #[test]
    fn zero_norm_cosine_is_zero_in_every_format() {
        let m = Matrix::from_rows(&[&[0.0, 0.0], &[1.0, 0.0]]);
        for quant in [Quantization::F32, Quantization::F16, Quantization::I8] {
            let q = QuantizedMatrix::encode(m.clone(), quant);
            assert_eq!(q.cosine_row(0, 0.0, &[1.0, 0.0], 1.0), 0.0, "{quant}");
            assert_eq!(q.cosine_row(1, 1.0, &[0.0, 0.0], 0.0), 0.0, "{quant}");
            assert_eq!(q.cosine_row(1, 1.0, &[1.0, 0.0], 1.0), 1.0, "{quant}");
        }
    }

    /// Deterministic pseudo-random matrix for kernel-path tests.
    fn test_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        Matrix::from_fn(rows, cols, |_, _| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            ((state >> 40) as f32 / (1u64 << 24) as f32) - 0.5
        })
    }

    #[test]
    fn prepared_scoring_matches_the_scalar_reference_exactly() {
        let m = test_matrix(7, 13, 3);
        let query: Vec<f32> = test_matrix(1, 13, 99).row(0).to_vec();
        for quant in [Quantization::F32, Quantization::F16, Quantization::I8] {
            let q = QuantizedMatrix::encode(m.clone(), quant);
            let pq = q.prepare_query(&query);
            for r in 0..q.rows() {
                let want = q.dot_row(r, &query);
                assert_eq!(q.dot_row_prepared(r, &pq), want, "{quant} row {r}");
                for kernel in [I8Kernel::Scalar, I8Kernel::Swar, I8Kernel::Arch] {
                    assert_eq!(
                        q.dot_row_prepared_with(kernel, r, &pq),
                        want,
                        "{quant} row {r} kernel {}",
                        kernel.name()
                    );
                }
            }
        }
    }

    #[test]
    fn dot_tile_matches_per_row_scoring_bit_for_bit() {
        // Ragged row count (not a multiple of any tile), several
        // queries per block, all formats, all kernels.
        let m = test_matrix(23, 16, 7);
        let queries: Vec<Vec<f32>> = (0..5)
            .map(|i| test_matrix(1, 16, 100 + i).row(0).to_vec())
            .collect();
        for quant in [Quantization::F32, Quantization::F16, Quantization::I8] {
            let q = QuantizedMatrix::encode(m.clone(), quant);
            let mut block = PreparedBlock::default();
            q.prepare_block(queries.iter().map(Vec::as_slice), &mut block);
            assert_eq!(block.len(), queries.len());
            for kernel in [I8Kernel::Scalar, I8Kernel::Swar, I8Kernel::Arch] {
                let mut scratch = TileScratch::default();
                // Tiles of 9 leave a ragged final tile of 5 rows.
                for row_start in (0..q.rows()).step_by(9) {
                    let nrows = 9.min(q.rows() - row_start);
                    let mut out = vec![f32::NAN; block.len() * nrows];
                    q.dot_tile(kernel, row_start, nrows, &block, &mut scratch, &mut out);
                    for (qi, query) in queries.iter().enumerate() {
                        for i in 0..nrows {
                            assert_eq!(
                                out[qi * nrows + i],
                                q.dot_row(row_start + i, query),
                                "{quant}/{} row {} query {qi}",
                                kernel.name(),
                                row_start + i
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn i8_scoring_is_exact_integer_end_to_end() {
        // A row and query whose codes and scales are exactly
        // representable: row = [2, -4, 6], scale 6/127; query =
        // [1, 1, -1] codes [127, 127, -127], scale 1/127.
        let m = Matrix::from_rows(&[&[2.0, -4.0, 6.0]]);
        let q = QuantizedMatrix::encode(m, Quantization::I8);
        let query = [1.0f32, 1.0, -1.0];
        let pq = q.prepare_query(&query);
        let QuantizedMatrix::I8 { data, scales, .. } = &q else {
            unreachable!()
        };
        let int_dot: i32 = data
            .iter()
            .zip([127i32, 127, -127])
            .map(|(&c, qc)| c as i32 * qc)
            .sum();
        let want = finish_i8_dot(int_dot, scales[0], 1.0 / 127.0);
        assert_eq!(q.dot_row_prepared(0, &pq), want);
        assert_eq!(q.dot_row(0, &query), want);
    }

    #[test]
    fn width_mismatch_panics_uniformly_across_formats() {
        for quant in [Quantization::F32, Quantization::F16, Quantization::I8] {
            let q = QuantizedMatrix::encode(Matrix::from_rows(&[&[1.0, 2.0, 3.0]]), quant);
            let narrow = [1.0f32, 2.0];
            assert!(
                std::panic::catch_unwind(|| q.dot_row(0, &narrow)).is_err(),
                "{quant} dot_row accepted a narrow query"
            );
            assert!(
                std::panic::catch_unwind(|| q.prepare_query(&narrow)).is_err(),
                "{quant} prepare_query accepted a narrow query"
            );
            assert!(
                std::panic::catch_unwind(|| {
                    q.prepare_block([&narrow[..]], &mut PreparedBlock::default())
                })
                .is_err(),
                "{quant} prepare_block accepted a narrow query"
            );
        }
    }

    #[test]
    fn quantization_parses_and_prints() {
        assert_eq!("f32".parse::<Quantization>().unwrap(), Quantization::F32);
        assert_eq!("f16".parse::<Quantization>().unwrap(), Quantization::F16);
        assert_eq!("i8".parse::<Quantization>().unwrap(), Quantization::I8);
        assert!("int4".parse::<Quantization>().is_err());
        assert_eq!(Quantization::I8.to_string(), "i8");
    }
}
