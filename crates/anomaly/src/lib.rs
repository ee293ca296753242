//! Anomaly detectors over command-line embeddings.
//!
//! Section III of the paper lists the unsupervised detectors that can run
//! in the language model's embedding space — "one-class support vector
//! machines, isolation forest, and principal component analysis" — and
//! develops PCA reconstruction error (Eq. 1) in detail. Section IV-D adds
//! the retrieval-based method: a kNN variant scoring each test sample by
//! its similarity to *malicious* training neighbours only, which is
//! robust to the label noise of the supervision source.
//!
//! All detectors share the same shape: `fit` on training embeddings,
//! `score` one embedding (higher = more anomalous/malicious).
//!
//! ```
//! use anomaly::PcaDetector;
//! use linalg::Matrix;
//!
//! // Benign data on a line; an off-line point scores high.
//! let train = Matrix::from_fn(50, 3, |r, c| if c == 2 { 0.0 } else { r as f32 });
//! let det = PcaDetector::fit(&train, 0.95);
//! assert!(det.score(&[25.0, 25.0, 40.0]) > det.score(&[10.0, 10.0, 0.0]));
//! ```

pub mod detector;
pub mod iforest;
pub mod knn;
pub mod ocsvm;
pub mod pca;
pub mod state;
pub mod structural;

pub use detector::{
    check_labels, Detector, DetectorError, EmbeddingView, IsolationForestMethod, OneClassSvmMethod,
    PcaMethod, Pooling, RetrievalMethod, VanillaKnnMethod,
};
pub use iforest::IsolationForest;
pub use index::{
    shard_for_row, HnswParams, IndexConfig, Neighbor, ShardBackend, ShardedParams, VectorIndex,
};
pub use knn::{merge_shard_candidates, RetrievalDetector, ShardCandidate, ShardMerge, VanillaKnn};
pub use ocsvm::OneClassSvm;
pub use pca::PcaDetector;
pub use state::{fit_neighbour_detector, DetectorState, ShardedDetectorState};
pub use structural::{FittedStructural, StructuralDetector, MAX_EXEMPLARS};
