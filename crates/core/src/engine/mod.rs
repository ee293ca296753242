//! The scoring engine: one embedding pass, many detectors, optional
//! rank-fusion ensembling.
//!
//! Section IV of the paper evaluates five scoring methods over the
//! *same* pre-trained embedding space (classification tuning,
//! multi-line classification, reconstruction tuning, retrieval,
//! vanilla kNN), and Section III adds the unsupervised detectors (PCA,
//! isolation forest, one-class SVM). Running them independently embeds
//! the identical train and de-duplicated test lines once per method —
//! paying the encoder cost, the dominant cost at every scale, up to
//! seven times over.
//!
//! This module factors that structure out:
//!
//! * [`EmbeddingStore`] memoizes each `(line set, pooling, max_len)`
//!   embedding matrix so the encoder runs **exactly once** per
//!   distinct input, however many methods consume it. Views are
//!   `Arc`-backed and cheap to clone; hit/miss counters make the
//!   "embedded once" claim testable.
//! * [`Detector`] (re-exported from `anomaly`) is the method
//!   interface: `fit(&EmbeddingView, &[bool])`,
//!   `score_batch(&EmbeddingView)`, `name()`.
//! * [`ScoringEngine`] drives a registered set of boxed detectors over
//!   shared views and packages their scores; [`EngineRun::fuse`]
//!   exposes the paper's future-work ensemble via
//!   [`crate::ensemble::try_fuse_weighted`], propagating
//!   [`EnsembleError`] instead of panicking.
//!
//! Two methods deserve a note on what "sharing the embedding" can
//! mean:
//!
//! * **Reconstruction tuning** fine-tunes the backbone, so its *test*
//!   scores must come from its own updated encoder — that re-embedding
//!   is the method, not a cache miss. It still shares the frozen-space
//!   training view for subsampling and label bookkeeping.
//! * **Multi-line classification** consumes context windows over the
//!   raw (user, timestamp)-ordered test stream rather than the
//!   de-duplicated line set, so it brings its own inputs and its
//!   score vector is aligned to window-deduplication; the engine
//!   reports it alongside the others but [`EngineRun::fuse`] will
//!   reject mixing it with line-aligned methods (a
//!   [`EnsembleError::LengthMismatch`]).

mod methods;
mod store;

pub use anomaly::{
    fit_neighbour_detector, merge_shard_candidates, Detector, DetectorError, DetectorState,
    EmbeddingView, Pooling, ShardCandidate, ShardMerge, ShardedDetectorState,
};
pub use index::{HnswParams, IndexBackend, IndexConfig, Quantization, ShardBackend, ShardedParams};
pub use methods::{
    subsample_labeled, window_dedup_indices, ClassificationMethod, MultiLineMethod,
    ReconstructionMethod,
};
pub use store::EmbeddingStore;

use crate::ensemble::{try_fuse_weighted, EnsembleError};

/// Why an engine run failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// A detector failed to fit.
    Detector {
        /// The detector's name.
        method: String,
        /// The underlying failure.
        source: DetectorError,
    },
    /// Fusion over the collected scores was malformed.
    Ensemble(EnsembleError),
    /// A fusion request named an unregistered method.
    UnknownMethod(String),
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::Detector { method, source } => {
                write!(f, "detector {method:?} failed to fit: {source}")
            }
            EngineError::Ensemble(e) => write!(f, "ensemble fusion failed: {e}"),
            EngineError::UnknownMethod(name) => write!(f, "no method named {name:?} in this run"),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<EnsembleError> for EngineError {
    fn from(e: EnsembleError) -> Self {
        EngineError::Ensemble(e)
    }
}

/// One method's scores from an engine run.
#[derive(Debug, Clone)]
pub struct MethodScores {
    /// The detector's name.
    pub name: String,
    /// One score per scored sample, higher = more suspicious.
    pub scores: Vec<f32>,
    /// Whether `scores[i]` corresponds to test-view sample `i`
    /// ([`Detector::test_aligned`]); stream-structured methods score
    /// their own sample set and are excluded from whole-run fusion.
    pub test_aligned: bool,
}

/// A set of registered detectors driven over shared embedding views.
#[derive(Default)]
pub struct ScoringEngine {
    detectors: Vec<Box<dyn Detector>>,
    index_config: Option<IndexConfig>,
}

impl ScoringEngine {
    /// An engine with no registered detectors.
    pub fn new() -> Self {
        ScoringEngine::default()
    }

    /// Registers a detector; returns `self` for chaining.
    pub fn register(mut self, detector: Box<dyn Detector>) -> Self {
        self.detectors.push(detector);
        self
    }

    /// Selects the vector-index backend for every neighbour-based
    /// detector in this run ([`Detector::configure_index`] is applied
    /// at [`ScoringEngine::run`], before fitting). Without this, each
    /// detector keeps the backend it was constructed with — the exact,
    /// paper-faithful scan by default.
    pub fn with_index_config(mut self, config: IndexConfig) -> Self {
        self.index_config = Some(config);
        self
    }

    /// The run-wide index backend override, if any.
    pub fn index_config(&self) -> Option<IndexConfig> {
        self.index_config
    }

    /// Partitions every neighbour-based detector's exemplar index
    /// across `shards` sub-indexes (seeded content-stable hash; see
    /// `index::ShardedIndex`). Applies on top of whatever backend is
    /// configured — exact by default — and `shards <= 1` keeps the
    /// plain backend. Sharded-exact runs stay score-bit-identical to
    /// unsharded exact.
    pub fn with_shards(mut self, shards: usize) -> Self {
        let base = self.index_config.unwrap_or_default();
        self.index_config = Some(base.with_shards(shards));
        self
    }

    /// Stores every neighbour-based detector's candidates in `quant`
    /// format on top of the configured backend (the `--quant` CLI
    /// knob): f32 is bit-identical to the historical scans, f16/i8
    /// trade ≤ 1-ulp / ≤ scale/2 element error for 2×/4× less
    /// candidate memory bandwidth (`index.bytes_per_query` on the load
    /// benchmark's `scan_sharded`; what the narrower formats must keep
    /// is gated by `index/tests/quantized.rs`).
    pub fn with_quant(mut self, quant: Quantization) -> Self {
        let base = self.index_config.unwrap_or_default();
        self.index_config = Some(base.with_quant(quant));
        self
    }

    /// Names of the registered detectors, in registration order.
    pub fn detector_names(&self) -> Vec<&str> {
        self.detectors.iter().map(|d| d.name()).collect()
    }

    /// Number of registered detectors.
    pub fn len(&self) -> usize {
        self.detectors.len()
    }

    /// Whether no detector is registered.
    pub fn is_empty(&self) -> bool {
        self.detectors.is_empty()
    }

    /// Whether any registered detector reads embedding matrices; when
    /// `false`, the caller may run with lines-only views and skip the
    /// encoder entirely.
    pub fn wants_embeddings(&self) -> bool {
        self.detectors.iter().any(|d| d.wants_embeddings())
    }

    /// Fits every registered detector on the shared training view and
    /// supervision labels, consuming the engine into a [`FittedEngine`]
    /// that can score any number of test views — the resident state a
    /// long-lived scoring service keeps between arrivals.
    pub fn fit(self, train: &EmbeddingView, labels: &[bool]) -> Result<FittedEngine, EngineError> {
        self.fit_each(labels, |_| train.clone())
    }

    /// [`ScoringEngine::fit`] with a *per-detector* training view:
    /// `train_view` is asked once per detector (in registration order)
    /// and should honour [`Detector::pooling`] /
    /// [`Detector::wants_embeddings`] — a memoizing store makes
    /// repeated answers cheap. This is what lets one run mix
    /// mean-pooled and CLS-probed methods.
    pub fn fit_each<F>(
        mut self,
        labels: &[bool],
        mut train_view: F,
    ) -> Result<FittedEngine, EngineError>
    where
        F: FnMut(&dyn Detector) -> EmbeddingView,
    {
        for det in &mut self.detectors {
            if let Some(config) = self.index_config {
                det.configure_index(config);
            }
            let view = train_view(det.as_ref());
            det.fit(&view, labels)
                .map_err(|source| EngineError::Detector {
                    method: det.name().to_string(),
                    source,
                })?;
        }
        Ok(FittedEngine {
            detectors: self.detectors,
            epoch: 0,
        })
    }

    /// Fits every registered detector and scores the shared test view
    /// in one pass — the one-shot batch protocol. Equivalent to
    /// [`ScoringEngine::fit`] followed by [`FittedEngine::score`].
    pub fn run(
        self,
        train: &EmbeddingView,
        labels: &[bool],
        test: &EmbeddingView,
    ) -> Result<EngineRun, EngineError> {
        Ok(self.fit(train, labels)?.score(test))
    }
}

/// A fitted detector set, reusable across any number of scoring
/// passes.
///
/// [`ScoringEngine::run`] fit, scored once, and dropped everything;
/// the serving path instead keeps a `FittedEngine` resident: micro-
/// batches stream through [`FittedEngine::score`], live supervision is
/// absorbed through [`FittedEngine::append`] (neighbour-based methods
/// insert into their index incrementally), and
/// `serve::ServiceSnapshot` persists the snapshot-capable detectors
/// through [`FittedEngine::detectors`].
///
/// The engine is **epoch-versioned**: a fresh fit (or restore) is
/// epoch 0, and every [`FittedEngine::install_refits`] — the online
/// lifecycle's atomic swap of re-fitted detectors — bumps the epoch.
/// A scoring pass can therefore tag its verdicts with the exact
/// detector generation that produced them, and the serving layer's
/// caches/snapshots can detect a swap that landed mid-operation.
pub struct FittedEngine {
    detectors: Vec<Box<dyn Detector>>,
    epoch: u64,
}

impl FittedEngine {
    /// Reassembles a fitted engine from already-fitted detectors
    /// (snapshot restore path). The caller asserts fittedness; scoring
    /// an unfitted detector panics, as everywhere. Starts at epoch 0,
    /// like a fresh fit.
    pub fn from_detectors(detectors: Vec<Box<dyn Detector>>) -> Self {
        FittedEngine {
            detectors,
            epoch: 0,
        }
    }

    /// The detector generation: 0 for a fresh fit/restore, +1 per
    /// [`FittedEngine::install_refits`] swap.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Atomically installs re-fitted replacement detectors (the online
    /// refit swap): each `(index, detector)` pair replaces the resident
    /// detector at that registration index, then the epoch bumps once
    /// for the whole batch. The caller (the serving layer) holds its
    /// engine write lock across this call, so in-flight micro-batches
    /// — which score under the read lock — finish entirely on the old
    /// epoch and later batches score entirely on the new one; a torn
    /// verdict mixing generations is impossible by construction.
    /// Returns the new epoch.
    ///
    /// # Panics
    ///
    /// Panics if an index is out of range or a replacement's name does
    /// not match the detector it replaces — a refit must never change
    /// the method layout verdicts are assembled under.
    pub fn install_refits(&mut self, refits: Vec<(usize, Box<dyn Detector>)>) -> u64 {
        for (i, det) in refits {
            assert_eq!(
                self.detectors[i].name(),
                det.name(),
                "refit must replace a detector with the same method"
            );
            self.detectors[i] = det;
        }
        self.epoch += 1;
        self.epoch
    }

    /// Names of the fitted detectors, in registration order.
    pub fn method_names(&self) -> Vec<&str> {
        self.detectors.iter().map(|d| d.name()).collect()
    }

    /// Number of fitted detectors.
    pub fn len(&self) -> usize {
        self.detectors.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.detectors.is_empty()
    }

    /// The fitted detectors, in registration order.
    pub fn detectors(&self) -> &[Box<dyn Detector>] {
        &self.detectors
    }

    /// Total bytes of accountable fitted state across the detector
    /// set ([`Detector::resident_bytes`]); detectors with no
    /// accountable state contribute zero. This is what the
    /// memory-budgeted tenant tier (`serve::tenants`) charges a hot
    /// tenant for.
    pub fn resident_bytes(&self) -> usize {
        self.detectors
            .iter()
            .filter_map(|d| d.resident_bytes())
            .sum()
    }

    /// Consumes the engine into its fitted detectors (registration
    /// order) — the serving router takes ownership to split
    /// sharded-fitted neighbour detectors across its worker pools.
    pub fn into_detectors(self) -> Vec<Box<dyn Detector>> {
        self.detectors
    }

    /// Whether any fitted detector reads embedding matrices.
    pub fn wants_embeddings(&self) -> bool {
        self.detectors.iter().any(|d| d.wants_embeddings())
    }

    /// Scores the shared test view with every fitted detector; output
    /// order is registration order.
    pub fn score(&self, test: &EmbeddingView) -> EngineRun {
        self.score_each(|_| test.clone())
    }

    /// [`FittedEngine::score`] with a per-detector test view (see
    /// [`ScoringEngine::fit_each`] for the contract).
    ///
    /// Detectors score one after another on the calling thread.
    /// Whatever inside one is worth a second thread — an index scan, an
    /// encoder matmul — splits itself evenly through [`linalg::par`],
    /// and a per-detector split would forbid exactly that (workers
    /// never split again) while balancing worse: retrieval indexes a
    /// third of the rows vanilla kNN does. Measured on 2 vCPUs, 2
    /// detectors × 3 000 lines × 8 000 exemplars: 303 ms this way,
    /// 363 ms with a thread per detector, 469 ms with one detector per
    /// worker; a 4-line micro-batch against 700 exemplars took 172 µs
    /// with the two spawns and 45 µs without. What it costs: a
    /// nine-kind table suite (1 000–3 400 lines × 8 000 exemplars),
    /// where multi-line scoring is 85 % of the pass and a thread per
    /// detector hid part of the rest behind it, scores ≈ 7 % slower
    /// (median of 14 alternating runs; 0.1–0.3 s of a 20–60 s table
    /// run). Detector chunks through the harness measured no better
    /// than this loop there — one chunk still holds multi-line.
    pub fn score_each<F>(&self, mut test_view: F) -> EngineRun
    where
        F: FnMut(&dyn Detector) -> EmbeddingView,
    {
        let outputs = self
            .detectors
            .iter()
            .map(|det| MethodScores {
                name: det.name().to_string(),
                scores: det.score_batch(&test_view(det.as_ref())),
                test_aligned: det.test_aligned(),
            })
            .collect();
        EngineRun {
            outputs,
            epoch: self.epoch,
        }
    }

    /// Feeds freshly-labeled exemplars to every fitted detector that
    /// can take them ([`Detector::absorbs_appends`] /
    /// [`Detector::append`]); returns how many absorbed the batch
    /// incrementally (the rest keep their fitted state and rely on
    /// periodic refits). `batch_view` is only asked for absorbing
    /// detectors, so no encoder pass is spent on a view nothing
    /// reads.
    pub fn append_each<F>(
        &mut self,
        labels: &[bool],
        mut batch_view: F,
    ) -> Result<usize, EngineError>
    where
        F: FnMut(&dyn Detector) -> EmbeddingView,
    {
        let mut absorbed = 0;
        for det in &mut self.detectors {
            if !det.absorbs_appends() {
                continue;
            }
            let view = batch_view(det.as_ref());
            if det
                .append(&view, labels)
                .map_err(|source| EngineError::Detector {
                    method: det.name().to_string(),
                    source,
                })?
            {
                absorbed += 1;
            }
        }
        Ok(absorbed)
    }

    /// [`FittedEngine::append_each`] over one shared batch view.
    pub fn append(&mut self, batch: &EmbeddingView, labels: &[bool]) -> Result<usize, EngineError> {
        self.append_each(labels, |_| batch.clone())
    }
}

/// The collected outputs of a [`ScoringEngine::run`].
#[derive(Debug, Clone)]
pub struct EngineRun {
    outputs: Vec<MethodScores>,
    epoch: u64,
}

impl EngineRun {
    /// All method outputs, in registration order.
    pub fn outputs(&self) -> &[MethodScores] {
        &self.outputs
    }

    /// The engine epoch these verdicts were scored under (see
    /// [`FittedEngine::epoch`]). Every score in this run came from the
    /// same detector generation.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// One method's scores by name.
    pub fn scores(&self, name: &str) -> Option<&[f32]> {
        self.outputs
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.scores.as_slice())
    }

    /// Rank-fusion ensemble of the named methods with the given
    /// weights — the paper's future-work item as a first-class API.
    pub fn fuse(&self, names: &[&str], weights: &[f32]) -> Result<Vec<f32>, EngineError> {
        let mut selected = Vec::with_capacity(names.len());
        for &name in names {
            selected.push(
                self.scores(name)
                    .ok_or_else(|| EngineError::UnknownMethod(name.to_string()))?,
            );
        }
        Ok(try_fuse_weighted(&selected, weights)?)
    }

    /// Unweighted rank-fusion over every **test-aligned** method in
    /// the run. Stream-structured methods (window-deduplicated
    /// multi-line) are excluded by their [`Detector::test_aligned`]
    /// flag — score counts coinciding by chance must not let two
    /// different sample orderings fuse position-wise.
    pub fn fuse_all(&self) -> Result<Vec<f32>, EngineError> {
        let names: Vec<&str> = self
            .outputs
            .iter()
            .filter(|m| m.test_aligned)
            .map(|m| m.name.as_str())
            .collect();
        let weights = vec![1.0; names.len()];
        self.fuse(&names, &weights)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anomaly::{PcaMethod, RetrievalMethod, VanillaKnnMethod};
    use linalg::Matrix;

    fn toy_views() -> (EmbeddingView, Vec<bool>, EmbeddingView) {
        let train = Matrix::from_fn(20, 4, |r, c| {
            if r < 4 {
                // Malicious cluster along dim 3.
                if c == 3 {
                    1.0
                } else {
                    0.05 * r as f32
                }
            } else if c == 3 {
                0.0
            } else {
                0.1 * ((r + c) % 5) as f32
            }
        });
        let labels: Vec<bool> = (0..20).map(|r| r < 4).collect();
        let test = Matrix::from_fn(6, 4, |r, c| if c == 3 && r < 2 { 0.9 } else { 0.01 });
        (
            EmbeddingView::from_matrix(train),
            labels,
            EmbeddingView::from_matrix(test),
        )
    }

    #[test]
    fn engine_runs_registered_detectors_and_fuses() {
        let (train, labels, test) = toy_views();
        let engine = ScoringEngine::new()
            .register(Box::new(PcaMethod::new(0.95)))
            .register(Box::new(RetrievalMethod::new(1)))
            .register(Box::new(VanillaKnnMethod::new(3)));
        assert_eq!(engine.detector_names(), ["pca", "retrieval", "vanilla-knn"]);
        let run = engine.run(&train, &labels, &test).expect("run succeeds");
        for m in run.outputs() {
            assert_eq!(m.scores.len(), 6, "{}", m.name);
        }
        let fused = run.fuse_all().expect("uniform lengths fuse");
        assert_eq!(fused.len(), 6);
        // Both malicious-direction test rows outrank the benign ones
        // under the fused ranking.
        assert!(fused[0] > fused[3] && fused[1] > fused[4]);
    }

    #[test]
    fn fuse_all_keeps_only_test_aligned_methods() {
        // Two line-aligned methods (5 samples) plus one stream-aligned
        // method (3 window-deduplicated samples, as multiline produces):
        // fuse_all must fuse the majority, not fail on the odd one out.
        let run = EngineRun {
            outputs: vec![
                MethodScores {
                    name: "multiline".into(),
                    // Same count as the others — alignment, not count,
                    // must decide.
                    scores: vec![0.1, 0.9, 0.4, 0.7, 0.6],
                    test_aligned: false,
                },
                MethodScores {
                    name: "a".into(),
                    scores: vec![0.9, 0.1, 0.5, 0.2, 0.3],
                    test_aligned: true,
                },
                MethodScores {
                    name: "b".into(),
                    scores: vec![0.8, 0.2, 0.6, 0.1, 0.4],
                    test_aligned: true,
                },
            ],
            epoch: 0,
        };
        let fused = run.fuse_all().expect("aligned methods fuse");
        assert_eq!(fused.len(), 5);
        // Sample 0 is top-ranked by both aligned methods; multiline's
        // conflicting ranking must not have contributed.
        assert!(fused[0] > fused[1]);
        assert!(fused.iter().all(|&x| fused[0] >= x));
    }

    #[test]
    fn index_config_threads_through_the_run() {
        let (train, labels, test) = toy_views();
        let exact = ScoringEngine::new()
            .register(Box::new(RetrievalMethod::new(1)))
            .register(Box::new(VanillaKnnMethod::new(3)))
            .run(&train, &labels, &test)
            .expect("exact run");
        let engine = ScoringEngine::new()
            .with_index_config(IndexConfig::hnsw())
            .register(Box::new(RetrievalMethod::new(1)))
            .register(Box::new(VanillaKnnMethod::new(3)));
        assert_eq!(engine.index_config(), Some(IndexConfig::hnsw()));
        let approx = engine.run(&train, &labels, &test).expect("hnsw run");
        // At toy scale the graph search is exhaustive, so the
        // approximate backend reproduces the exact scores — proving
        // the config reached both neighbour-based detectors.
        assert_eq!(exact.scores("retrieval"), approx.scores("retrieval"));
        assert_eq!(exact.scores("vanilla-knn"), approx.scores("vanilla-knn"));
    }

    #[test]
    fn sharded_exact_run_is_bit_identical_to_unsharded() {
        let (train, labels, test) = toy_views();
        let exact = ScoringEngine::new()
            .register(Box::new(RetrievalMethod::new(2)))
            .register(Box::new(VanillaKnnMethod::new(3)))
            .run(&train, &labels, &test)
            .expect("exact run");
        let engine = ScoringEngine::new()
            .with_shards(3)
            .register(Box::new(RetrievalMethod::new(2)))
            .register(Box::new(VanillaKnnMethod::new(3)));
        assert_eq!(
            engine.index_config(),
            Some(IndexConfig::Exact.with_shards(3))
        );
        let sharded = engine.run(&train, &labels, &test).expect("sharded run");
        // Not merely close — bit-identical: the sharded exact
        // partition merges candidates under the exact scan's own
        // total order.
        assert_eq!(exact.scores("retrieval"), sharded.scores("retrieval"));
        assert_eq!(exact.scores("vanilla-knn"), sharded.scores("vanilla-knn"));
    }

    #[test]
    fn zero_embedding_rows_score_deterministically_through_the_engine() {
        // The zero-norm pin at engine level: an all-zero training row
        // (degenerate embedding) and an all-zero test row flow through
        // the neighbour detectors as similarity 0.0 — never NaN — and
        // tie-ordering under `neighbour_cmp` keeps every run, sharded
        // or not, quantized or not, bit-reproducible.
        let train = Matrix::from_fn(12, 4, |r, c| {
            if r == 5 || r == 9 {
                0.0 // degenerate rows, one malicious-labeled
            } else if c == 3 {
                (r < 4) as usize as f32
            } else {
                0.1 * ((r + c) % 3) as f32
            }
        });
        let labels: Vec<bool> = (0..12).map(|r| r < 4 || r == 5).collect();
        let test = Matrix::from_fn(3, 4, |r, c| if r == 1 { 0.0 } else { 0.2 * c as f32 });
        let train = EmbeddingView::from_matrix(train);
        let test = EmbeddingView::from_matrix(test);

        let run_with = |config: Option<IndexConfig>| {
            let mut engine = ScoringEngine::new()
                .register(Box::new(RetrievalMethod::new(2)))
                .register(Box::new(VanillaKnnMethod::new(3)));
            if let Some(c) = config {
                engine = engine.with_index_config(c);
            }
            engine.run(&train, &labels, &test).expect("run succeeds")
        };
        let exact = run_with(None);
        for m in exact.outputs() {
            assert!(
                m.scores.iter().all(|s| s.is_finite()),
                "{}: zero rows must not poison scores",
                m.name
            );
        }
        // Bit-reproducible across repeated runs…
        let again = run_with(None);
        for (a, b) in exact.outputs().iter().zip(again.outputs()) {
            assert_eq!(a.scores, b.scores, "{}", a.name);
        }
        // …and across the sharded partition (zero rows hash to a shard
        // like any other content; ties merge in global id order).
        let sharded = run_with(Some(IndexConfig::Exact.with_shards(3)));
        for (a, b) in exact.outputs().iter().zip(sharded.outputs()) {
            assert_eq!(a.scores, b.scores, "{} sharded", a.name);
        }
        // Quantized runs stay finite and deterministic too (scores may
        // differ from f32 within quantization error, but never NaN).
        for quant in [Quantization::F16, Quantization::I8] {
            let q1 = run_with(Some(IndexConfig::Exact.with_quant(quant)));
            let q2 = run_with(Some(IndexConfig::Exact.with_quant(quant)));
            for (a, b) in q1.outputs().iter().zip(q2.outputs()) {
                assert!(a.scores.iter().all(|s| s.is_finite()), "{} {quant}", a.name);
                assert_eq!(a.scores, b.scores, "{} {quant}", a.name);
            }
        }
    }

    #[test]
    fn quantized_exact_runs_track_f32_scores() {
        let (train, labels, test) = toy_views();
        let exact = ScoringEngine::new()
            .register(Box::new(RetrievalMethod::new(1)))
            .register(Box::new(VanillaKnnMethod::new(3)))
            .run(&train, &labels, &test)
            .expect("f32 run");
        for quant in [Quantization::F16, Quantization::I8] {
            let engine = ScoringEngine::new()
                .with_quant(quant)
                .register(Box::new(RetrievalMethod::new(1)))
                .register(Box::new(VanillaKnnMethod::new(3)));
            assert_eq!(
                engine.index_config(),
                Some(IndexConfig::Exact.with_quant(quant))
            );
            let q = engine.run(&train, &labels, &test).expect("quantized run");
            let tol = if quant == Quantization::F16 {
                1e-2
            } else {
                5e-2
            };
            for (m, qm) in exact.outputs().iter().zip(q.outputs()) {
                for (&a, &b) in m.scores.iter().zip(&qm.scores) {
                    assert!((a - b).abs() <= tol, "{} {quant}: {a} vs {b}", m.name);
                }
            }
        }
    }

    #[test]
    fn install_refits_bumps_the_epoch_and_swaps_in_place() {
        let (train, labels, test) = toy_views();
        let mut engine = ScoringEngine::new()
            .register(Box::new(PcaMethod::new(0.95)))
            .register(Box::new(RetrievalMethod::new(1)))
            .fit(&train, &labels)
            .expect("fit succeeds");
        assert_eq!(engine.epoch(), 0);
        assert_eq!(engine.score(&test).epoch(), 0);

        // Refit PCA from its own template and swap it in.
        let mut replacement = engine.detectors()[0]
            .refit_template()
            .expect("pca is refittable");
        replacement.fit(&train, &labels).expect("refit succeeds");
        let epoch = engine.install_refits(vec![(0, replacement)]);
        assert_eq!(epoch, 1);
        assert_eq!(engine.epoch(), 1);
        // Same data, deterministic fit: the swap changes the epoch,
        // not the verdicts.
        let run = engine.score(&test);
        assert_eq!(run.epoch(), 1);
        assert_eq!(engine.method_names(), ["pca", "retrieval"]);
    }

    #[test]
    #[should_panic(expected = "same method")]
    fn install_refits_rejects_a_method_layout_change() {
        let (train, labels, _) = toy_views();
        let mut engine = ScoringEngine::new()
            .register(Box::new(PcaMethod::new(0.95)))
            .fit(&train, &labels)
            .expect("fit succeeds");
        engine.install_refits(vec![(0, Box::new(RetrievalMethod::new(1)))]);
    }

    #[test]
    fn detector_failure_is_named() {
        let (train, _, test) = toy_views();
        let engine = ScoringEngine::new().register(Box::new(RetrievalMethod::new(1)));
        let err = engine.run(&train, &[false; 20], &test).unwrap_err();
        match err {
            EngineError::Detector { method, source } => {
                assert_eq!(method, "retrieval");
                assert_eq!(source, DetectorError::NoPositiveLabels);
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn fusion_errors_propagate() {
        let (train, labels, test) = toy_views();
        let run = ScoringEngine::new()
            .register(Box::new(PcaMethod::new(0.9)))
            .run(&train, &labels, &test)
            .unwrap();
        assert_eq!(
            run.fuse(&["nonexistent"], &[1.0]),
            Err(EngineError::UnknownMethod("nonexistent".into()))
        );
        assert_eq!(
            run.fuse(&["pca"], &[0.0]),
            Err(EngineError::Ensemble(
                crate::ensemble::EnsembleError::ZeroWeightSum
            ))
        );
    }
}
