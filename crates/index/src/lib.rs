//! The vector-index layer: sublinear (and exact) cosine-similarity
//! nearest-neighbour search behind every neighbour-based detector.
//!
//! The paper's best-performing method — Section IV-D retrieval, k = 1
//! over malicious exemplars — and both kNN ablations reduce to the
//! same primitive: *given a fixed candidate embedding matrix, find the
//! k candidates most cosine-similar to a query*. [`VectorIndex`]
//! captures that primitive; two backends implement it:
//!
//! * [`ExactIndex`] — brute-force scan with candidate norms
//!   precomputed once at build time and batch queries fanned out over
//!   threads when the scan is big enough ([`linalg::par`]). Results
//!   are **bit-identical** to the
//!   historical per-call [`linalg::ops::cosine_similarity`] scan
//!   (asserted in this crate's tests and pinned end-to-end in
//!   `crates/bench/tests/index_backends.rs`), so it is the
//!   paper-faithful default.
//! * [`HnswIndex`] — a hierarchical navigable small-world graph
//!   (Malkov & Yashunin) giving approximate top-k in sublinear time.
//!   Construction is deterministic via the seeded `rand` shim;
//!   `ef_search` trades recall for latency at query time.
//!
//! Consumers pick a backend through [`IndexConfig`], which the scoring
//! engine threads down to every registered neighbour-based detector —
//! a suite switches the whole run between exact and approximate with
//! one knob (`--index exact|hnsw` on the table binaries). Orthogonal
//! to the backend choice, [`IndexConfig::quant`] selects the candidate
//! **storage format** ([`Quantization`]): `f32` (bit-identical to the
//! historical scans), `f16` (half the candidate bandwidth, ≤ 1-ulp
//! element error), or per-row symmetric `i8` (quarter bandwidth) —
//! `--quant f32|f16|i8` on the table binaries, applied per shard on
//! sharded backends.

mod exact;
mod hnsw;
pub mod persist;
mod sharded;

pub use exact::ExactIndex;
pub use hnsw::{construction_passes, HnswIndex, HnswParams};
pub use linalg::quant::{Quantization, QuantizedMatrix};
pub use persist::IndexSnapshot;
pub use sharded::{
    merge_shard_topk, merge_sorted_topk, shard_for_row, ShardBackend, ShardedIndex, ShardedParams,
    DEFAULT_SHARD_SEED,
};

use linalg::Matrix;

/// One retrieved candidate: its row id in the indexed matrix and its
/// cosine similarity to the query (higher = closer).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Neighbor {
    /// Row index into the indexed candidate matrix.
    pub id: usize,
    /// Cosine similarity to the query.
    pub similarity: f32,
}

/// k-nearest-neighbour search over a fixed candidate embedding matrix.
///
/// Implementations return neighbours sorted by descending similarity
/// and clamp `k` to the candidate count. `Send + Sync` so fitted
/// detectors holding a boxed index can be scored from several threads
/// at once (scan workers, the serving layer's batchers).
pub trait VectorIndex: Send + Sync + std::fmt::Debug {
    /// Number of indexed candidates.
    fn len(&self) -> usize;

    /// Whether the index holds no candidates.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Embedding dimensionality.
    fn dim(&self) -> usize;

    /// Up to `min(k, len)` candidates most cosine-similar to `query`,
    /// sorted by descending similarity. The exact backend always
    /// returns exactly `min(k, len)`; approximate backends may return
    /// fewer when part of the graph is unreachable from the entry
    /// point.
    ///
    /// # Panics
    ///
    /// Panics if `query.len() != self.dim()`.
    fn query(&self, query: &[f32], k: usize) -> Vec<Neighbor>;

    /// [`VectorIndex::query`] for every row of `queries`, in row
    /// order. Each backend splits a batch over threads by handing
    /// [`linalg::par`] its own estimate of the batch's work.
    fn query_batch(&self, queries: &Matrix, k: usize) -> Vec<Vec<Neighbor>>;

    /// Adds one candidate to the live index, returning its id (ids are
    /// dense: the new id is the previous [`VectorIndex::len`]). The
    /// exact backend appends a row + norm; HNSW wires the node into the
    /// graph through the construction path — this is what lets a
    /// serving process absorb supervision as it arrives instead of
    /// rebuilding.
    ///
    /// # Panics
    ///
    /// Panics if `row.len() != self.dim()` on a non-empty index.
    fn insert(&mut self, row: &[f32]) -> usize;

    /// Concrete-type escape hatch for persistence
    /// ([`persist::IndexSnapshot::capture`] downcasts to the backend
    /// it knows how to serialize).
    fn as_any(&self) -> &dyn std::any::Any;

    /// The candidate storage format this index holds (sharded indexes
    /// report the format their shards were built with).
    fn quantization(&self) -> Quantization {
        Quantization::F32
    }

    /// Bytes the candidate storage occupies — codes plus any per-row
    /// scales (one exact scan streams exactly this many bytes per
    /// query). The default covers scale-free formats; i8-capable
    /// backends override to include their scale vectors.
    fn candidate_bytes(&self) -> usize {
        self.len() * self.dim() * self.quantization().bytes_per_element()
    }

    /// Bytes this index keeps resident beyond a cold scan: candidate
    /// storage plus cached norms, graph adjacency, tombstones — the
    /// figure a memory-budgeted tenant map charges for a *hot* index.
    /// The default covers backends whose only state is the candidate
    /// storage; graph-carrying backends override to add their links.
    fn resident_bytes(&self) -> usize {
        self.candidate_bytes()
    }
}

/// The order every backend ranks neighbours by: similarity
/// descending, then id ascending. It is exactly the order the
/// historical stable descending sort produced (stable ⇒ ties keep
/// ascending row order), which is what keeps the exact backend — and
/// any merge of exact partitions — bit-identical to the pre-index
/// detectors.
///
/// A **total** order over neighbours whose similarities are not NaN
/// (distinct ids never compare `Equal`). A NaN similarity compares
/// `Equal` to every other similarity and falls through to the id, so
/// a list where *every* similarity is NaN (a query holding a NaN) is
/// still totally ordered — by id — but a mix of NaN and numbers is
/// not transitive and must not be handed to a sort. The exact scan
/// never sorts: its streaming selector admits a row only on a strictly
/// greater similarity, which a NaN never is (`exact::offer_tile`).
pub fn neighbour_cmp(a: &Neighbor, b: &Neighbor) -> std::cmp::Ordering {
    b.similarity
        .partial_cmp(&a.similarity)
        .unwrap_or(std::cmp::Ordering::Equal)
        .then_with(|| a.id.cmp(&b.id))
}

/// Multiply-adds in a full scan of `queries` query rows against `rows`
/// candidates of `dim` elements — the work estimate the exact and
/// sharded scans hand [`linalg::par`], whose module doc records the i8
/// scan measurement the threshold is sized from (2¹⁸ row·queries at
/// 32 dims, before and after that module existed).
pub(crate) fn scan_work(queries: usize, rows: usize, dim: usize) -> usize {
    queries.saturating_mul(rows).saturating_mul(dim)
}

/// Which [`VectorIndex`] backend an [`IndexConfig`] builds.
///
/// `Exact` is the default everywhere: it reproduces the paper's
/// brute-force scores bit-for-bit. `Hnsw` trades exactness for
/// sublinear queries; see [`HnswParams`] for the knobs. `Sharded`
/// partitions either backend across N sub-indexes behind a seeded
/// content-stable hash ([`ShardedIndex`]) — sharded-exact stays
/// bit-identical to `Exact`.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum IndexBackend {
    /// Brute-force scan; bit-identical to the historical detectors.
    #[default]
    Exact,
    /// Approximate HNSW graph search with the given parameters.
    Hnsw(HnswParams),
    /// A deterministic partition of N backends (see [`ShardedIndex`]).
    Sharded(ShardedParams),
}

/// Everything a neighbour-based detector needs to build its candidate
/// index: the search **backend** and the candidate **storage format**.
///
/// The two axes are orthogonal and compose freely — a 4-way sharded
/// HNSW partition over int8 rows is
/// `IndexConfig::hnsw().with_quant(Quantization::I8).with_shards(4)`.
/// The default (`IndexConfig::Exact`, f32) is the paper-faithful,
/// bit-reproducible configuration.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct IndexConfig {
    /// The search backend.
    pub backend: IndexBackend,
    /// The candidate storage format (applied per shard on sharded
    /// backends — each shard quantizes its own rows, which is what
    /// lets quantization roll out shard by shard).
    pub quant: Quantization,
}

impl IndexConfig {
    /// The exact brute-force backend over f32 storage — the
    /// paper-faithful default, spelled like the historical enum
    /// variant so the many construction sites read unchanged.
    #[allow(non_upper_case_globals)]
    pub const Exact: IndexConfig = IndexConfig {
        backend: IndexBackend::Exact,
        quant: Quantization::F32,
    };

    /// The HNSW backend with default parameters (f32 storage).
    pub fn hnsw() -> Self {
        Self::hnsw_with(HnswParams::default())
    }

    /// The HNSW backend with explicit parameters (f32 storage).
    pub fn hnsw_with(params: HnswParams) -> Self {
        IndexConfig {
            backend: IndexBackend::Hnsw(params),
            quant: Quantization::F32,
        }
    }

    /// A sharded backend with the given partition shape (f32 storage).
    pub fn sharded(params: ShardedParams) -> Self {
        IndexConfig {
            backend: IndexBackend::Sharded(params),
            quant: Quantization::F32,
        }
    }

    /// This backend with candidates stored in `quant` format (the
    /// `--quant` CLI knob). `Quantization::F32` is the bit-identical
    /// default.
    pub fn with_quant(mut self, quant: Quantization) -> Self {
        self.quant = quant;
        self
    }

    /// This backend partitioned across `shards` sub-indexes (the
    /// `--shards` CLI knob). `shards <= 1` unwraps back to the plain
    /// backend, so `config.with_shards(1)` is always the unsharded
    /// config. The storage format is preserved either way.
    pub fn with_shards(self, shards: usize) -> Self {
        let (backend, seed) = match self.backend {
            IndexBackend::Exact => (ShardBackend::Exact, DEFAULT_SHARD_SEED),
            IndexBackend::Hnsw(p) => (ShardBackend::Hnsw(p), DEFAULT_SHARD_SEED),
            IndexBackend::Sharded(p) => (p.backend, p.seed),
        };
        let backend = if shards <= 1 {
            match backend {
                ShardBackend::Exact => IndexBackend::Exact,
                ShardBackend::Hnsw(p) => IndexBackend::Hnsw(p),
            }
        } else {
            IndexBackend::Sharded(ShardedParams {
                shards,
                seed,
                backend,
            })
        };
        IndexConfig {
            backend,
            quant: self.quant,
        }
    }

    /// How many partitions this config builds (1 for the unsharded
    /// backends).
    pub fn shards(&self) -> usize {
        match self.backend {
            IndexBackend::Sharded(p) => p.shards,
            _ => 1,
        }
    }

    /// Builds the configured backend over `data`, deriving candidate
    /// norms from the matrix.
    pub fn build(self, data: Matrix) -> Box<dyn VectorIndex> {
        let norms = linalg::ops::row_norms(&data);
        self.build_with_norms(data, norms)
    }

    /// Builds the configured backend over `data` with candidate norms
    /// the caller already holds (e.g. memoized on an embedding view),
    /// skipping the re-derivation. Norms are always the **original
    /// f32** row norms, whatever the storage format — quantized
    /// kernels reuse the same norm cache.
    ///
    /// # Panics
    ///
    /// Panics if `norms.len() != data.rows()`.
    pub fn build_with_norms(self, data: Matrix, norms: Vec<f32>) -> Box<dyn VectorIndex> {
        match self.backend {
            IndexBackend::Exact => Box::new(ExactIndex::build_quantized(data, norms, self.quant)),
            IndexBackend::Hnsw(params) => {
                Box::new(HnswIndex::build_quantized(data, norms, params, self.quant))
            }
            IndexBackend::Sharded(params) => Box::new(ShardedIndex::build_quantized(
                data, norms, params, self.quant,
            )),
        }
    }

    /// Short stable name for reporting: the backend (`"exact"` /
    /// `"hnsw"` / `"sharded-exact"` / `"sharded-hnsw"`), with a
    /// `+f16` / `+i8` suffix when the storage is quantized.
    pub fn name(&self) -> &'static str {
        let backend = match self.backend {
            IndexBackend::Exact => "exact",
            IndexBackend::Hnsw(_) => "hnsw",
            IndexBackend::Sharded(p) => match p.backend {
                ShardBackend::Exact => "sharded-exact",
                ShardBackend::Hnsw(_) => "sharded-hnsw",
            },
        };
        match (backend, self.quant) {
            (b, Quantization::F32) => b,
            ("exact", Quantization::F16) => "exact+f16",
            ("hnsw", Quantization::F16) => "hnsw+f16",
            ("sharded-exact", Quantization::F16) => "sharded-exact+f16",
            (_, Quantization::F16) => "sharded-hnsw+f16",
            ("exact", Quantization::I8) => "exact+i8",
            ("hnsw", Quantization::I8) => "hnsw+i8",
            ("sharded-exact", Quantization::I8) => "sharded-exact+i8",
            (_, Quantization::I8) => "sharded-hnsw+i8",
        }
    }
}

impl std::str::FromStr for IndexConfig {
    type Err = String;

    /// Parses the CLI spelling: `exact` or `hnsw` (default
    /// parameters, f32 storage — `--quant` folds the format in
    /// afterwards).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "exact" => Ok(IndexConfig::Exact),
            "hnsw" => Ok(IndexConfig::hnsw()),
            other => Err(format!("unknown index backend {other:?} (exact|hnsw)")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use linalg::rng::randn;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn config_builds_both_backends() {
        let mut rng = StdRng::seed_from_u64(3);
        let data = randn(&mut rng, 40, 8, 1.0);
        let q = data.row(7).to_vec();
        for config in [IndexConfig::Exact, IndexConfig::hnsw()] {
            let idx = config.build(data.clone());
            assert_eq!(idx.len(), 40);
            assert_eq!(idx.dim(), 8);
            let top = idx.query(&q, 1);
            assert_eq!(
                top[0].id,
                7,
                "{}: self-query must return itself",
                config.name()
            );
            assert!((top[0].similarity - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn config_parses_from_cli_spelling() {
        assert_eq!("exact".parse::<IndexConfig>().unwrap(), IndexConfig::Exact);
        assert_eq!("hnsw".parse::<IndexConfig>().unwrap(), IndexConfig::hnsw());
        assert!("annoy".parse::<IndexConfig>().is_err());
    }

    #[test]
    fn with_shards_wraps_and_unwraps_backends() {
        let sharded = IndexConfig::Exact.with_shards(4);
        assert_eq!(sharded.shards(), 4);
        assert_eq!(sharded.name(), "sharded-exact");
        // shards <= 1 unwraps back to the plain backend.
        assert_eq!(sharded.with_shards(1), IndexConfig::Exact);
        let hnsw = IndexConfig::hnsw().with_shards(3);
        assert_eq!(hnsw.name(), "sharded-hnsw");
        assert_eq!(hnsw.with_shards(0), IndexConfig::hnsw());
        // Re-wrapping keeps the backend and changes the count.
        assert_eq!(hnsw.with_shards(5).shards(), 5);

        let mut rng = StdRng::seed_from_u64(5);
        let data = randn(&mut rng, 30, 6, 1.0);
        let idx = sharded.build(data.clone());
        let exact = IndexConfig::Exact.build(data.clone());
        assert_eq!(idx.len(), 30);
        assert_eq!(idx.query(data.row(3), 2), exact.query(data.row(3), 2));
    }

    #[test]
    fn quant_axis_composes_with_backend_and_shards() {
        let config = IndexConfig::Exact.with_quant(Quantization::I8);
        assert_eq!(config.name(), "exact+i8");
        assert_eq!(config.quant, Quantization::I8);
        // Sharding preserves the format; unsharding does too.
        let sharded = config.with_shards(4);
        assert_eq!(sharded.name(), "sharded-exact+i8");
        assert_eq!(sharded.quant, Quantization::I8);
        assert_eq!(sharded.with_shards(1), config);
        assert_eq!(
            IndexConfig::hnsw().with_quant(Quantization::F16).name(),
            "hnsw+f16"
        );

        let mut rng = StdRng::seed_from_u64(6);
        let data = randn(&mut rng, 40, 8, 1.0);
        for quant in [Quantization::F16, Quantization::I8] {
            for config in [
                IndexConfig::Exact.with_quant(quant),
                IndexConfig::hnsw().with_quant(quant),
                IndexConfig::Exact.with_quant(quant).with_shards(3),
            ] {
                let idx = config.build(data.clone());
                assert_eq!(idx.quantization(), quant, "{}", config.name());
                let top = idx.query(data.row(7), 1);
                assert_eq!(top[0].id, 7, "{}: self-query finds itself", config.name());
                assert!((top[0].similarity - 1.0).abs() < 2e-2, "{}", config.name());
            }
        }
    }

    #[test]
    fn batch_matches_sequential_across_the_parallel_threshold() {
        let mut rng = StdRng::seed_from_u64(4);
        let data = randn(&mut rng, 2048, 8, 1.0);
        // 700 × 2048 × 8 multiply-adds: past `linalg::par`'s threshold,
        // so the batch is split wherever there is a second core.
        let queries = randn(&mut rng, 700, 8, 1.0);
        let idx = ExactIndex::build(data);
        let batched = idx.query_batch(&queries, 3);
        assert_eq!(batched.len(), 700);
        for r in (0..700).step_by(97) {
            assert_eq!(batched[r], idx.query(queries.row(r), 3));
        }
    }
}
