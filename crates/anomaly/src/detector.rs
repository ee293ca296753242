//! The unified `Detector` abstraction the scoring engine is built on.
//!
//! Every scoring method in the paper — the Section III unsupervised
//! detectors and the Section IV supervised ones — reduces to the same
//! contract: *fit on a labeled embedded training set, then score an
//! embedded test set, higher = more suspicious*. [`Detector`] captures
//! that contract; `cmdline_ids::engine::ScoringEngine` drives a set of
//! boxed detectors over one shared [`EmbeddingView`] so the encoder
//! runs once per line set instead of once per method.
//!
//! An [`EmbeddingView`] pairs the embedded matrix with the source
//! lines. Most detectors only read the matrix; detectors that tune the
//! backbone itself (reconstruction-based tuning) read the lines and
//! re-embed under their own updated encoder, which is inherent to the
//! method rather than a cache miss.

use crate::knn::{ShardCandidate, ShardMerge};
use crate::{IsolationForest, OneClassSvm, PcaDetector, RetrievalDetector, VanillaKnn};
use index::IndexConfig;
use linalg::Matrix;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::{Arc, OnceLock};

/// Pooling strategy for a sequence embedding — which pooled view of
/// the encoder's token states a detector consumes. Lives next to
/// [`Detector`] so engines can ask each method which embedding space
/// it needs ([`Detector::pooling`]) and build the right view;
/// `cmdline_ids::embed` re-exports it alongside the embedding helpers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Pooling {
    /// Average of all token embeddings — the paper's choice for PCA
    /// anomaly detection (Section III).
    Mean,
    /// The `[CLS]` position — the paper's probing target (Section IV-B).
    Cls,
}

/// A line set together with its embedding matrix (one row per line).
///
/// Cheap to clone: both halves are shared, as is the lazily-computed
/// row-norm cache ([`EmbeddingView::norms`]) — every clone of a view
/// (e.g. the `EmbeddingStore`'s memoized copies) sees norms computed
/// at most once. A view may also be *lines-only*
/// ([`EmbeddingView::lines_only`]) for driving methods that never read
/// the matrix — multi-line classification and reconstruction tuning —
/// without paying an encoder pass.
#[derive(Debug, Clone)]
pub struct EmbeddingView {
    lines: Arc<[String]>,
    matrix: Option<Arc<Matrix>>,
    norms: Arc<OnceLock<Vec<f32>>>,
}

impl EmbeddingView {
    /// Pairs `lines` with their embeddings.
    ///
    /// # Panics
    ///
    /// Panics if the row count does not match the line count.
    pub fn new(lines: Vec<String>, matrix: Matrix) -> Self {
        assert_eq!(
            lines.len(),
            matrix.rows(),
            "one embedding row per line required"
        );
        EmbeddingView {
            lines: lines.into(),
            matrix: Some(Arc::new(matrix)),
            norms: Arc::new(OnceLock::new()),
        }
    }

    /// A view over embeddings with no retained source lines (for
    /// detectors and tests that operate purely in embedding space).
    pub fn from_matrix(matrix: Matrix) -> Self {
        EmbeddingView {
            lines: Arc::from(Vec::new()),
            matrix: Some(Arc::new(matrix)),
            norms: Arc::new(OnceLock::new()),
        }
    }

    /// A view over source lines with no embeddings — for engine runs
    /// whose every registered detector reports
    /// [`Detector::wants_embeddings`]` == false`.
    pub fn lines_only(lines: Vec<String>) -> Self {
        EmbeddingView {
            lines: lines.into(),
            matrix: None,
            norms: Arc::new(OnceLock::new()),
        }
    }

    /// The source lines (empty if constructed via
    /// [`EmbeddingView::from_matrix`]).
    pub fn lines(&self) -> &[String] {
        &self.lines
    }

    /// The `(n, hidden)` embedding matrix.
    ///
    /// # Panics
    ///
    /// Panics on a lines-only view: a detector reading the matrix
    /// must report [`Detector::wants_embeddings`]` == true` so the
    /// engine embeds before fitting.
    pub fn matrix(&self) -> &Matrix {
        self.matrix.as_deref().expect(
            "lines-only EmbeddingView has no matrix (detector should report wants_embeddings)",
        )
    }

    /// Whether this view carries an embedding matrix.
    pub fn has_matrix(&self) -> bool {
        self.matrix.is_some()
    }

    /// Euclidean norm of every embedding row, computed once on first
    /// use and shared by all clones of this view — index builds over a
    /// memoized store view never re-derive them.
    ///
    /// # Panics
    ///
    /// Panics on a lines-only view (see [`EmbeddingView::matrix`]).
    pub fn norms(&self) -> &[f32] {
        self.norms
            .get_or_init(|| linalg::ops::row_norms(self.matrix()))
    }

    /// Whether the norm cache has been filled (testing hook for the
    /// "computed at most once" claim).
    pub fn norms_computed(&self) -> bool {
        self.norms.get().is_some()
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        match &self.matrix {
            Some(m) => m.rows(),
            None => self.lines.len(),
        }
    }

    /// Whether the view holds no samples.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Why fitting a detector failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DetectorError {
    /// The training view holds no samples.
    EmptyTrainingSet,
    /// Label count disagrees with the embedding count.
    LabelMismatch {
        /// Embedded sample count.
        embeddings: usize,
        /// Label count.
        labels: usize,
    },
    /// The method needs at least one positive label and got none.
    NoPositiveLabels,
    /// The training view was built without source lines but the method
    /// needs them (it embeds under its own tuned encoder).
    MissingLines,
}

impl std::fmt::Display for DetectorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DetectorError::EmptyTrainingSet => write!(f, "no training samples to fit on"),
            DetectorError::LabelMismatch { embeddings, labels } => write!(
                f,
                "one label per embedding required: {embeddings} embeddings, {labels} labels"
            ),
            DetectorError::NoPositiveLabels => {
                write!(f, "method needs at least one positive (alerted) label")
            }
            DetectorError::MissingLines => {
                write!(
                    f,
                    "method needs the view's source lines, but none were retained"
                )
            }
        }
    }
}

impl std::error::Error for DetectorError {}

/// A fittable, batch-scoring detection method.
///
/// `Send + Sync` so one fitted detector set can be scored from the
/// serving layer's concurrent batcher and shard-pool threads.
pub trait Detector: Send + Sync {
    /// Stable method name (used for registration, reporting, fusion).
    fn name(&self) -> &str;

    /// Fits on an embedded training set with supervision labels
    /// (`labels[i] = true` means the supervision source alerted on
    /// sample `i`). Unsupervised methods ignore the labels.
    fn fit(&mut self, train: &EmbeddingView, labels: &[bool]) -> Result<(), DetectorError>;

    /// Selects the vector-index backend neighbour-based methods build
    /// at the next [`Detector::fit`]. The engine calls this for every
    /// registered detector when a run carries an
    /// [`IndexConfig`]; methods without a neighbour index ignore it.
    fn configure_index(&mut self, _config: IndexConfig) {}

    /// Scores every sample of the view; higher = more suspicious.
    ///
    /// # Panics
    ///
    /// Implementations panic if called before a successful [`Detector::fit`].
    fn score_batch(&self, test: &EmbeddingView) -> Vec<f32>;

    /// Which pooled embedding space this method's views must come
    /// from. Engines building views per detector (the method suite,
    /// the serving layer) honour this; the default mean pooling
    /// matches every method except CLS-probed classification.
    fn pooling(&self) -> Pooling {
        Pooling::Mean
    }

    /// Whether this method can absorb freshly-labeled exemplars into
    /// its fitted state ([`Detector::append`]). Engines skip building
    /// (and embedding) append views for methods that return `false` —
    /// a supervision batch must not pay an encoder pass for a
    /// detector that would discard it.
    fn absorbs_appends(&self) -> bool {
        false
    }

    /// Absorbs freshly-labeled exemplars into the *fitted* state
    /// without a refit — the live-supervision path a long-lived
    /// scoring service feeds as alerts arrive. Returns `Ok(true)` if
    /// the batch was absorbed (neighbour-based methods insert into
    /// their index incrementally), `Ok(false)` if this method cannot
    /// absorb incrementally and needs a periodic refit instead (the
    /// default). Implementations overriding this must also override
    /// [`Detector::absorbs_appends`] to `true`, or engines will never
    /// call it.
    ///
    /// # Errors
    ///
    /// [`DetectorError::LabelMismatch`] when `labels.len() !=
    /// batch.len()`.
    fn append(&mut self, batch: &EmbeddingView, labels: &[bool]) -> Result<bool, DetectorError> {
        let _ = (batch, labels);
        Ok(false)
    }

    /// A fresh, unfitted detector carrying the same hyperparameters
    /// (and seed, where fitting is randomized) — the online lifecycle's
    /// refit entry point. A background refit worker fits the template
    /// on the accumulated stream off-lock and swaps it in via
    /// `FittedEngine::install_refits`, so the resident detector keeps
    /// serving its old state until the swap. `None` (the default) for
    /// methods whose fitted state is not periodically refittable this
    /// way — neighbour-based methods absorb appends incrementally
    /// ([`Detector::absorbs_appends`]) and never go stale, and the
    /// supervised tuning methods own training loops the serving layer
    /// cannot re-run. Seeded templates make refits deterministic:
    /// fitting the template on the same lines reproduces the original
    /// fit bit-for-bit.
    fn refit_template(&self) -> Option<Box<dyn Detector>> {
        None
    }

    /// How a shard router merges this method's per-shard candidates
    /// into one score — `None` (the default) for methods whose fitted
    /// state is not a partitionable exemplar set. Methods returning
    /// `Some` must also implement [`Detector::shard_candidates`].
    fn shard_merge(&self) -> Option<ShardMerge> {
        None
    }

    /// Per-sample top-k candidates for cross-shard score merging, ids
    /// local to this detector's exemplar set. Only meaningful when
    /// [`Detector::shard_merge`] is `Some`; the default returns no
    /// candidates.
    ///
    /// # Panics
    ///
    /// Implementations panic if called before a successful
    /// [`Detector::fit`].
    fn shard_candidates(&self, test: &EmbeddingView) -> Vec<Vec<ShardCandidate>> {
        let _ = test;
        Vec::new()
    }

    /// Whether a sample with this supervision label enters the
    /// method's exemplar index (and therefore needs shard routing on
    /// append). Retrieval indexes malicious rows only; vanilla kNN
    /// indexes everything. Only meaningful when
    /// [`Detector::shard_merge`] is `Some`.
    fn indexes_label(&self, label: bool) -> bool {
        let _ = label;
        true
    }

    /// Concrete-type escape hatch so snapshot capture
    /// (`anomaly::DetectorState`) can downcast to the methods it knows
    /// how to serialize.
    fn as_any(&self) -> &dyn std::any::Any;

    /// Whether this method reads the views' embedding matrices. When
    /// every registered detector returns `false`, an engine may hand
    /// out lines-only views and skip the encoder entirely.
    fn wants_embeddings(&self) -> bool {
        true
    }

    /// Whether `score_batch`'s output is aligned one-to-one with the
    /// test view's samples. Stream-structured methods (e.g. window
    /// deduplication) return `false`, which excludes them from
    /// whole-run score fusion — their positions index different
    /// samples even when the counts happen to coincide.
    fn test_aligned(&self) -> bool {
        true
    }

    /// Bytes of fitted state this detector keeps resident (candidate
    /// storage, norms, graph adjacency). `None` when the method holds
    /// no accountable fitted state — unfitted, or not index-backed.
    /// This is what a memory-budgeted tenant map charges a hot tenant
    /// for (`serve::tenants`).
    fn resident_bytes(&self) -> Option<usize> {
        None
    }
}

/// Shared fit-input validation: non-empty training view, one label
/// per embedded sample. Detector implementations (here and in
/// `cmdline_ids::engine`) call this first.
pub fn check_labels(train: &EmbeddingView, labels: &[bool]) -> Result<(), DetectorError> {
    if train.is_empty() {
        return Err(DetectorError::EmptyTrainingSet);
    }
    if train.len() != labels.len() {
        return Err(DetectorError::LabelMismatch {
            embeddings: train.len(),
            labels: labels.len(),
        });
    }
    Ok(())
}

/// [`PcaDetector`] (paper Eq. 1) behind the [`Detector`] trait;
/// unsupervised, labels ignored.
#[derive(Debug, Clone)]
pub struct PcaMethod {
    variance_ratio: f32,
    fitted: Option<PcaDetector>,
}

impl PcaMethod {
    /// Keeps components for `variance_ratio` of the variance (the paper
    /// keeps 95%).
    pub fn new(variance_ratio: f32) -> Self {
        PcaMethod {
            variance_ratio,
            fitted: None,
        }
    }

    /// The fitted inner detector, if any.
    pub fn inner(&self) -> Option<&PcaDetector> {
        self.fitted.as_ref()
    }
}

impl Detector for PcaMethod {
    fn name(&self) -> &str {
        "pca"
    }

    fn fit(&mut self, train: &EmbeddingView, labels: &[bool]) -> Result<(), DetectorError> {
        check_labels(train, labels)?;
        self.fitted = Some(PcaDetector::fit(train.matrix(), self.variance_ratio));
        Ok(())
    }

    fn score_batch(&self, test: &EmbeddingView) -> Vec<f32> {
        self.fitted
            .as_ref()
            .expect("PcaMethod must be fitted before scoring")
            .score_all(test.matrix())
    }

    fn refit_template(&self) -> Option<Box<dyn Detector>> {
        Some(Box::new(PcaMethod::new(self.variance_ratio)))
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

/// [`IsolationForest`] behind the [`Detector`] trait; unsupervised.
#[derive(Debug, Clone)]
pub struct IsolationForestMethod {
    trees: usize,
    max_samples: usize,
    seed: u64,
    fitted: Option<IsolationForest>,
}

impl IsolationForestMethod {
    /// `trees` isolation trees over subsamples of `max_samples` rows;
    /// `seed` makes fitting deterministic.
    pub fn new(trees: usize, max_samples: usize, seed: u64) -> Self {
        IsolationForestMethod {
            trees,
            max_samples,
            seed,
            fitted: None,
        }
    }
}

impl Detector for IsolationForestMethod {
    fn name(&self) -> &str {
        "iforest"
    }

    fn fit(&mut self, train: &EmbeddingView, labels: &[bool]) -> Result<(), DetectorError> {
        check_labels(train, labels)?;
        let mut rng = StdRng::seed_from_u64(self.seed);
        self.fitted = Some(IsolationForest::fit(
            &mut rng,
            train.matrix(),
            self.trees,
            self.max_samples,
        ));
        Ok(())
    }

    fn score_batch(&self, test: &EmbeddingView) -> Vec<f32> {
        self.fitted
            .as_ref()
            .expect("IsolationForestMethod must be fitted before scoring")
            .score_all(test.matrix())
    }

    fn refit_template(&self) -> Option<Box<dyn Detector>> {
        Some(Box::new(IsolationForestMethod::new(
            self.trees,
            self.max_samples,
            self.seed,
        )))
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

/// [`OneClassSvm`] behind the [`Detector`] trait; unsupervised.
#[derive(Debug, Clone)]
pub struct OneClassSvmMethod {
    nu: f32,
    epochs: usize,
    seed: u64,
    fitted: Option<OneClassSvm>,
}

impl OneClassSvmMethod {
    /// Linear one-class SVM with margin parameter `nu`, trained for
    /// `epochs` passes; `seed` makes fitting deterministic.
    pub fn new(nu: f32, epochs: usize, seed: u64) -> Self {
        OneClassSvmMethod {
            nu,
            epochs,
            seed,
            fitted: None,
        }
    }
}

impl Detector for OneClassSvmMethod {
    fn name(&self) -> &str {
        "ocsvm"
    }

    fn fit(&mut self, train: &EmbeddingView, labels: &[bool]) -> Result<(), DetectorError> {
        check_labels(train, labels)?;
        let mut rng = StdRng::seed_from_u64(self.seed);
        self.fitted = Some(OneClassSvm::fit(
            &mut rng,
            train.matrix(),
            self.nu,
            self.epochs,
        ));
        Ok(())
    }

    fn score_batch(&self, test: &EmbeddingView) -> Vec<f32> {
        self.fitted
            .as_ref()
            .expect("OneClassSvmMethod must be fitted before scoring")
            .score_all(test.matrix())
    }

    fn refit_template(&self) -> Option<Box<dyn Detector>> {
        Some(Box::new(OneClassSvmMethod::new(
            self.nu,
            self.epochs,
            self.seed,
        )))
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

/// The paper's retrieval method ([`RetrievalDetector`], Section IV-D)
/// behind the [`Detector`] trait; needs positive labels.
#[derive(Debug)]
pub struct RetrievalMethod {
    k: usize,
    index: IndexConfig,
    fitted: Option<RetrievalDetector>,
}

impl RetrievalMethod {
    /// Mean similarity to the `k` nearest malicious exemplars (the
    /// paper uses `k = 1`), over the exact (paper-faithful) backend.
    pub fn new(k: usize) -> Self {
        Self::with_index(k, IndexConfig::Exact)
    }

    /// [`RetrievalMethod::new`] over an explicit index backend.
    pub fn with_index(k: usize, index: IndexConfig) -> Self {
        RetrievalMethod {
            k,
            index,
            fitted: None,
        }
    }

    /// Number of indexed malicious exemplars (after fitting).
    pub fn n_exemplars(&self) -> Option<usize> {
        self.fitted.as_ref().map(RetrievalDetector::n_exemplars)
    }

    /// The fitted inner detector, if any.
    pub fn fitted(&self) -> Option<&RetrievalDetector> {
        self.fitted.as_ref()
    }

    /// Wraps an already-fitted detector (snapshot restore path).
    pub fn from_fitted(fitted: RetrievalDetector) -> Self {
        RetrievalMethod {
            k: fitted.k(),
            index: fitted.index_config(),
            fitted: Some(fitted),
        }
    }
}

impl Detector for RetrievalMethod {
    fn name(&self) -> &str {
        "retrieval"
    }

    fn configure_index(&mut self, config: IndexConfig) {
        self.index = config;
    }

    fn fit(&mut self, train: &EmbeddingView, labels: &[bool]) -> Result<(), DetectorError> {
        check_labels(train, labels)?;
        if !labels.iter().any(|&y| y) {
            return Err(DetectorError::NoPositiveLabels);
        }
        self.fitted = Some(RetrievalDetector::fit_with(
            train.matrix(),
            labels,
            self.k,
            self.index,
            Some(train.norms()),
        ));
        Ok(())
    }

    fn score_batch(&self, test: &EmbeddingView) -> Vec<f32> {
        self.fitted
            .as_ref()
            .expect("RetrievalMethod must be fitted before scoring")
            .score_all(test.matrix())
    }

    fn absorbs_appends(&self) -> bool {
        true
    }

    fn append(&mut self, batch: &EmbeddingView, labels: &[bool]) -> Result<bool, DetectorError> {
        if batch.len() != labels.len() {
            return Err(DetectorError::LabelMismatch {
                embeddings: batch.len(),
                labels: labels.len(),
            });
        }
        let fitted = self
            .fitted
            .as_mut()
            .expect("RetrievalMethod must be fitted before appending");
        // Retrieval indexes malicious exemplars only; benign-labeled
        // arrivals are ignored, exactly as at fit time.
        for (r, &malicious) in labels.iter().enumerate() {
            if malicious {
                fitted.insert(batch.matrix().row(r));
            }
        }
        Ok(true)
    }

    fn shard_merge(&self) -> Option<ShardMerge> {
        Some(ShardMerge::MeanTopK { k: self.k })
    }

    fn shard_candidates(&self, test: &EmbeddingView) -> Vec<Vec<ShardCandidate>> {
        self.fitted
            .as_ref()
            .expect("RetrievalMethod must be fitted before scoring")
            .candidates(test.matrix())
    }

    fn indexes_label(&self, label: bool) -> bool {
        label
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn resident_bytes(&self) -> Option<usize> {
        self.fitted.as_ref().map(|f| f.index().resident_bytes())
    }
}

/// Majority-vote [`VanillaKnn`] (the label-noise ablation) behind the
/// [`Detector`] trait.
#[derive(Debug)]
pub struct VanillaKnnMethod {
    k: usize,
    index: IndexConfig,
    fitted: Option<VanillaKnn>,
}

impl VanillaKnnMethod {
    /// Classic `k`-nearest-neighbour majority vote over the exact
    /// backend.
    pub fn new(k: usize) -> Self {
        Self::with_index(k, IndexConfig::Exact)
    }

    /// [`VanillaKnnMethod::new`] over an explicit index backend.
    pub fn with_index(k: usize, index: IndexConfig) -> Self {
        VanillaKnnMethod {
            k,
            index,
            fitted: None,
        }
    }

    /// The fitted inner detector, if any.
    pub fn fitted(&self) -> Option<&VanillaKnn> {
        self.fitted.as_ref()
    }

    /// Wraps an already-fitted detector (snapshot restore path).
    pub fn from_fitted(fitted: VanillaKnn) -> Self {
        VanillaKnnMethod {
            k: fitted.k(),
            index: fitted.index_config(),
            fitted: Some(fitted),
        }
    }
}

impl Detector for VanillaKnnMethod {
    fn name(&self) -> &str {
        "vanilla-knn"
    }

    fn configure_index(&mut self, config: IndexConfig) {
        self.index = config;
    }

    fn fit(&mut self, train: &EmbeddingView, labels: &[bool]) -> Result<(), DetectorError> {
        check_labels(train, labels)?;
        self.fitted = Some(VanillaKnn::fit_with(
            train.matrix(),
            labels,
            self.k,
            self.index,
            Some(train.norms()),
        ));
        Ok(())
    }

    fn score_batch(&self, test: &EmbeddingView) -> Vec<f32> {
        self.fitted
            .as_ref()
            .expect("VanillaKnnMethod must be fitted before scoring")
            .score_all(test.matrix())
    }

    fn absorbs_appends(&self) -> bool {
        true
    }

    fn append(&mut self, batch: &EmbeddingView, labels: &[bool]) -> Result<bool, DetectorError> {
        if batch.len() != labels.len() {
            return Err(DetectorError::LabelMismatch {
                embeddings: batch.len(),
                labels: labels.len(),
            });
        }
        let fitted = self
            .fitted
            .as_mut()
            .expect("VanillaKnnMethod must be fitted before appending");
        for (r, &label) in labels.iter().enumerate() {
            fitted.insert(batch.matrix().row(r), label);
        }
        Ok(true)
    }

    fn shard_merge(&self) -> Option<ShardMerge> {
        Some(ShardMerge::MajorityVote { k: self.k })
    }

    fn shard_candidates(&self, test: &EmbeddingView) -> Vec<Vec<ShardCandidate>> {
        self.fitted
            .as_ref()
            .expect("VanillaKnnMethod must be fitted before scoring")
            .candidates(test.matrix())
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn resident_bytes(&self) -> Option<usize> {
        self.fitted
            .as_ref()
            .map(|f| f.index().resident_bytes() + f.labels().len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_view() -> (EmbeddingView, Vec<bool>) {
        // Malicious cluster along +x, benign along +y.
        let rows: Vec<Vec<f32>> = vec![
            vec![1.0, 0.05, 0.0],
            vec![0.9, -0.05, 0.1],
            vec![0.0, 1.0, 0.0],
            vec![0.1, 0.9, 0.0],
            vec![-0.05, 1.0, 0.1],
            vec![0.05, 0.95, -0.1],
        ];
        let m = Matrix::from_fn(6, 3, |r, c| rows[r][c]);
        let lines = (0..6).map(|i| format!("line {i}")).collect();
        (
            EmbeddingView::new(lines, m),
            vec![true, true, false, false, false, false],
        )
    }

    #[test]
    fn all_adapters_fit_and_score() {
        let (view, labels) = toy_view();
        let mut detectors: Vec<Box<dyn Detector>> = vec![
            Box::new(PcaMethod::new(0.95)),
            Box::new(IsolationForestMethod::new(25, 6, 7)),
            Box::new(OneClassSvmMethod::new(0.1, 5, 7)),
            Box::new(RetrievalMethod::new(1)),
            Box::new(VanillaKnnMethod::new(3)),
        ];
        for det in &mut detectors {
            det.fit(&view, &labels).expect("fit succeeds");
            let scores = det.score_batch(&view);
            assert_eq!(scores.len(), view.len(), "{}", det.name());
            assert!(
                scores.iter().all(|s| s.is_finite()),
                "{} produced non-finite scores",
                det.name()
            );
        }
    }

    #[test]
    fn retrieval_scores_malicious_cluster_higher() {
        let (view, labels) = toy_view();
        let mut det = RetrievalMethod::new(1);
        det.fit(&view, &labels).unwrap();
        let scores = det.score_batch(&view);
        assert!(scores[0] > scores[2]);
        assert_eq!(det.n_exemplars(), Some(2));
    }

    #[test]
    fn retrieval_without_positives_errors() {
        let (view, _) = toy_view();
        let mut det = RetrievalMethod::new(1);
        assert_eq!(
            det.fit(&view, &[false; 6]),
            Err(DetectorError::NoPositiveLabels)
        );
    }

    #[test]
    fn label_mismatch_reported() {
        let (view, _) = toy_view();
        let mut det = PcaMethod::new(0.9);
        assert_eq!(
            det.fit(&view, &[true]),
            Err(DetectorError::LabelMismatch {
                embeddings: 6,
                labels: 1
            })
        );
    }

    #[test]
    fn empty_view_reported() {
        let mut det = PcaMethod::new(0.9);
        let view = EmbeddingView::from_matrix(Matrix::zeros(0, 3));
        assert_eq!(det.fit(&view, &[]), Err(DetectorError::EmptyTrainingSet));
    }

    #[test]
    fn view_norms_are_computed_once_and_shared_by_clones() {
        let (view, _) = toy_view();
        assert!(!view.norms_computed());
        let clone = view.clone();
        let first = view.norms().to_vec();
        // The clone sees the already-filled cache (same allocation).
        assert!(clone.norms_computed());
        assert!(std::ptr::eq(view.norms().as_ptr(), clone.norms().as_ptr()));
        for (r, n) in first.iter().enumerate() {
            assert_eq!(*n, linalg::ops::norm(view.matrix().row(r)));
        }
    }

    #[test]
    fn configure_index_switches_the_backend_at_fit_time() {
        let (view, labels) = toy_view();
        let mut det = RetrievalMethod::new(1);
        det.configure_index(IndexConfig::hnsw());
        det.fit(&view, &labels).unwrap();
        let approx = det.score_batch(&view);
        let mut exact = RetrievalMethod::new(1);
        exact.fit(&view, &labels).unwrap();
        // Toy scale: graph search is exhaustive, scores must agree.
        assert_eq!(approx, exact.score_batch(&view));
    }

    #[test]
    fn seeded_unsupervised_fits_are_deterministic() {
        let (view, labels) = toy_view();
        let mut a = IsolationForestMethod::new(20, 6, 99);
        let mut b = IsolationForestMethod::new(20, 6, 99);
        a.fit(&view, &labels).unwrap();
        b.fit(&view, &labels).unwrap();
        assert_eq!(a.score_batch(&view), b.score_batch(&view));
    }

    #[test]
    fn refit_templates_reproduce_the_original_fit() {
        // The lifecycle contract: refitting a template on the same
        // lines is bit-identical to the original fit (hyperparams and
        // seeds are carried over), and only the unsupervised methods —
        // whose fitted state goes stale under appends — offer one.
        let (view, labels) = toy_view();
        let originals: Vec<Box<dyn Detector>> = vec![
            Box::new(PcaMethod::new(0.95)),
            Box::new(IsolationForestMethod::new(20, 6, 99)),
            Box::new(OneClassSvmMethod::new(0.1, 5, 7)),
        ];
        for mut det in originals {
            det.fit(&view, &labels).unwrap();
            let mut template = det.refit_template().expect("unsupervised refit template");
            assert_eq!(template.name(), det.name());
            template.fit(&view, &labels).unwrap();
            assert_eq!(
                det.score_batch(&view),
                template.score_batch(&view),
                "{}: template refit must reproduce the original fit",
                det.name()
            );
        }
        // Neighbour methods absorb appends live and never go stale.
        assert!(RetrievalMethod::new(1).refit_template().is_none());
        assert!(VanillaKnnMethod::new(3).refit_template().is_none());
    }
}
