//! Engine-backed method suite for the paper's Section III/IV scoring
//! methods.
//!
//! [`MethodSuite`] registers the requested methods as
//! [`Detector`](cmdline_ids::engine::Detector)s on a
//! [`ScoringEngine`], runs them over **shared**
//! [`EmbeddingStore`]-memoized views of the training lines and the
//! de-duplicated test split, and packs scores into
//! [`ScoredSample`]s. The multi-method table binaries therefore embed
//! the test split once per pooling mode instead of once per method —
//! see `tests/engine_suite.rs` for the hit-count proof.

use crate::Experiment;
use anomaly::{
    IsolationForestMethod, OneClassSvmMethod, PcaMethod, RetrievalMethod, StructuralDetector,
    VanillaKnnMethod,
};
use cmdline_ids::engine::{
    window_dedup_indices, ClassificationMethod, Detector, EmbeddingStore, EngineError, EngineRun,
    IndexConfig, MultiLineMethod, Quantization, ReconstructionMethod, ScoringEngine,
};
use cmdline_ids::metrics::ScoredSample;
use cmdline_ids::tuning::{ReconstructionConfig, TuneConfig};
use corpus::LogRecord;

pub use cmdline_ids::engine::subsample_labeled;

/// Context width for the multi-line method (the paper uses 3).
pub const MULTI_LINE_WIDTH: usize = 3;
/// Maximum context gap in seconds ("execution time … not too long ago").
pub const MULTI_LINE_MAX_GAP: u64 = 600;
/// Negative-label cap for reconstruction tuning's subsample.
pub const RECON_MAX_NEGATIVES: usize = 2_500;

/// Builder registering scoring methods over one experiment.
pub struct MethodSuite<'e> {
    exp: &'e Experiment,
    engine: ScoringEngine,
}

impl<'e> MethodSuite<'e> {
    /// An empty suite over `exp`.
    pub fn new(exp: &'e Experiment) -> Self {
        MethodSuite {
            exp,
            engine: ScoringEngine::new(),
        }
    }

    /// Registers any custom detector. The suite fits and scores every
    /// detector on store-memoized views of the training lines and the
    /// de-duplicated test split, pooled per the detector's own
    /// [`Detector::pooling`] (lines-only views for methods that never
    /// read embeddings); detectors expecting other inputs must go
    /// through [`cmdline_ids::engine::ScoringEngine`] directly.
    pub fn register(mut self, detector: Box<dyn Detector>) -> Self {
        self.engine = self.engine.register(detector);
        self
    }

    /// Selects the vector-index backend for every neighbour-based
    /// method in this run (retrieval, vanilla kNN): exact for
    /// paper-faithful, bit-reproducible scores; HNSW for sublinear
    /// approximate search at scale; either `.with_shards(n)`-wrapped
    /// for a partitioned exemplar set.
    pub fn with_index(mut self, config: IndexConfig) -> Self {
        self.engine = self.engine.with_index_config(config);
        self
    }

    /// Partitions every neighbour-based method's exemplar index across
    /// `shards` sub-indexes on top of the configured backend (the
    /// `--shards` CLI knob; sharded-exact stays bit-identical to
    /// exact).
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.engine = self.engine.with_shards(shards);
        self
    }

    /// Stores every neighbour-based method's candidates in `quant`
    /// format on top of the configured backend (the `--quant` CLI
    /// knob; f32 stays bit-identical to the historical scans).
    pub fn with_quant(mut self, quant: Quantization) -> Self {
        self.engine = self.engine.with_quant(quant);
        self
    }

    /// Single-line classification tuning (scaled config).
    pub fn with_classification(self) -> Self {
        let seed = self.exp.method_seed("classification");
        self.with_classification_seeded(seed)
    }

    /// Single-line classification tuning with an explicit seed.
    pub fn with_classification_seeded(self, seed: u64) -> Self {
        self.with_classification_config(TuneConfig::scaled(), seed)
    }

    /// Single-line classification tuning with a custom config. The
    /// suite honours `config.pooling` ([`Detector::pooling`]): a
    /// CLS-probed paper config fits and scores on `[CLS]` views while
    /// every mean-pooled method in the same run keeps its own space —
    /// each `(line set, pooling)` pair still embedded exactly once.
    pub fn with_classification_config(self, config: TuneConfig, seed: u64) -> Self {
        self.register(Box::new(ClassificationMethod::new(config, seed)))
    }

    /// Reconstruction-based tuning (scaled config).
    pub fn with_reconstruction(self) -> Self {
        let seed = self.exp.method_seed("reconstruction");
        self.with_reconstruction_seeded(seed)
    }

    /// Reconstruction-based tuning with an explicit seed.
    pub fn with_reconstruction_seeded(self, seed: u64) -> Self {
        let method = ReconstructionMethod::new(
            &self.exp.pipeline,
            ReconstructionConfig::scaled(),
            RECON_MAX_NEGATIVES,
            seed,
        );
        self.register(Box::new(method))
    }

    /// The paper's retrieval method (kNN over malicious exemplars).
    pub fn with_retrieval(self, k: usize) -> Self {
        self.register(Box::new(RetrievalMethod::new(k)))
    }

    /// The vanilla majority-vote kNN ablation.
    pub fn with_vanilla_knn(self, k: usize) -> Self {
        self.register(Box::new(VanillaKnnMethod::new(k)))
    }

    /// The structural side-channel detector: AST shape statistics
    /// straight off the shell parse, no embeddings — the non-LM
    /// ensemble member for the obfuscation scenarios. Deterministic,
    /// so it takes no seed.
    pub fn with_structural(self) -> Self {
        self.register(Box::new(StructuralDetector::new()))
    }

    /// Multi-line classification over the experiment's raw streams.
    pub fn with_multiline(self) -> Self {
        let seed = self.exp.method_seed("multiline");
        self.with_multiline_seeded(seed)
    }

    /// Multi-line classification with an explicit seed.
    pub fn with_multiline_seeded(self, seed: u64) -> Self {
        let method = MultiLineMethod::new(
            &self.exp.pipeline,
            self.exp.dataset.train.clone(),
            self.exp.dataset.test.clone(),
            MULTI_LINE_WIDTH,
            MULTI_LINE_MAX_GAP,
            TuneConfig::scaled(),
            seed,
        );
        self.register(Box::new(method))
    }

    /// The Section III unsupervised detectors (PCA reconstruction
    /// error, one-class SVM, isolation forest) over the same space.
    pub fn with_unsupervised(self) -> Self {
        let iforest_seed = self.exp.method_seed("iforest");
        let ocsvm_seed = self.exp.method_seed("ocsvm");
        self.register(Box::new(PcaMethod::new(0.95)))
            .register(Box::new(OneClassSvmMethod::new(0.1, 5, ocsvm_seed)))
            .register(Box::new(IsolationForestMethod::new(50, 256, iforest_seed)))
    }

    /// Fits every registered method on (memoized) training views and
    /// scores the de-duplicated test split in one pass.
    ///
    /// Views are built *per detector*: each method gets the pooling its
    /// config requires ([`Detector::pooling`]), the shared store
    /// memoizes so every distinct `(line set, pooling)` pair is
    /// embedded exactly once however many methods read it, and methods
    /// that never read embeddings get lines-only views — a
    /// multiline-only or reconstruction-only suite skips the encoder
    /// entirely.
    pub fn run(self) -> Result<SuiteRun<'e>, EngineError> {
        let exp = self.exp;
        let store = EmbeddingStore::new(&exp.pipeline);
        let train_lines = exp.train_lines();
        let labels = exp.train_labels();
        let dedup = exp.deduped_test();
        let test_lines: Vec<&str> = dedup.iter().map(|r| r.line.as_str()).collect();
        let fitted = self
            .engine
            .fit_each(&labels, |det| detector_view(&store, &train_lines, det))?;
        let run = fitted.score_each(|det| detector_view(&store, &test_lines, det));
        Ok(SuiteRun {
            exp,
            dedup,
            run,
            store,
            multiline_kept: std::sync::OnceLock::new(),
        })
    }
}

/// The per-detector view contract shared by [`MethodSuite::run`] and
/// [`replay_through_service`]: a store-memoized view pooled per
/// [`Detector::pooling`], or a lines-only view when the method never
/// reads embeddings (so embedding-free suites skip the encoder).
fn detector_view(
    store: &EmbeddingStore<'_>,
    lines: &[&str],
    det: &dyn Detector,
) -> cmdline_ids::engine::EmbeddingView {
    if det.wants_embeddings() {
        store.view(lines, det.pooling())
    } else {
        cmdline_ids::engine::EmbeddingView::lines_only(
            lines.iter().map(|s| s.to_string()).collect(),
        )
    }
}

/// The outputs of a [`MethodSuite::run`], with experiment-aware
/// sample packing.
pub struct SuiteRun<'e> {
    exp: &'e Experiment,
    dedup: Vec<LogRecord>,
    run: EngineRun,
    store: EmbeddingStore<'e>,
    /// Window-dedup indices into the raw test stream, computed once on
    /// first use (the multiline walk joins every window string).
    multiline_kept: std::sync::OnceLock<Vec<usize>>,
}

impl SuiteRun<'_> {
    /// The raw engine outputs.
    pub fn engine_run(&self) -> &EngineRun {
        &self.run
    }

    /// The embedding store the run used (hit/miss inspection).
    pub fn store(&self) -> &EmbeddingStore<'_> {
        &self.store
    }

    /// The de-duplicated test records the line-aligned scores follow.
    pub fn deduped_test(&self) -> &[LogRecord] {
        &self.dedup
    }

    /// One method's raw scores.
    pub fn scores(&self, name: &str) -> Option<&[f32]> {
        self.run.scores(name)
    }

    /// One method's scores packed with ground truth and in-box status.
    ///
    /// Line-aligned methods pack against the de-duplicated test split;
    /// `"multiline"` packs against the window-deduplicated stream (the
    /// paper's protocol for that method).
    pub fn samples(&self, name: &str) -> Option<Vec<ScoredSample>> {
        let scores = self.run.scores(name)?;
        if name == "multiline" {
            let kept = self.kept_window_indices();
            assert_eq!(kept.len(), scores.len(), "multiline alignment");
            Some(
                kept.iter()
                    .zip(scores)
                    .map(|(&i, &score)| {
                        let r = &self.exp.dataset.test[i];
                        ScoredSample {
                            score,
                            malicious: r.truth.is_malicious(),
                            in_box: self.exp.is_alert(&r.line),
                        }
                    })
                    .collect(),
            )
        } else {
            Some(self.exp.scored(&self.dedup, scores))
        }
    }

    /// The test records behind the `"multiline"` samples, in order.
    pub fn multiline_records(&self) -> Vec<&LogRecord> {
        self.kept_window_indices()
            .iter()
            .map(|&i| &self.exp.dataset.test[i])
            .collect()
    }

    fn kept_window_indices(&self) -> &[usize] {
        self.multiline_kept.get_or_init(|| {
            window_dedup_indices(&self.exp.dataset.test, MULTI_LINE_WIDTH, MULTI_LINE_MAX_GAP)
        })
    }

    /// Rank-fusion ensemble of line-aligned methods, packed into
    /// samples — the paper's future-work ensemble.
    pub fn fused_samples(
        &self,
        names: &[&str],
        weights: &[f32],
    ) -> Result<Vec<ScoredSample>, EngineError> {
        let fused = self.run.fuse(names, weights)?;
        Ok(self.exp.scored(&self.dedup, &fused))
    }
}

/// The outcome of [`replay_through_service`]: streamed scores next to
/// the one-shot batch reference, plus throughput counters.
pub struct ReplayReport {
    /// Method names, registration order (score vectors follow it).
    pub names: Vec<String>,
    /// Per-method scores from the one-shot batch pass.
    pub batch: Vec<Vec<f32>>,
    /// Per-method scores from the line-by-line service replay.
    pub streamed: Vec<Vec<f32>>,
    /// Lines replayed.
    pub lines: usize,
    /// Wall-clock of the streamed replay.
    pub elapsed: std::time::Duration,
    /// Micro-batches the service coalesced the replay into.
    pub micro_batches: usize,
}

impl ReplayReport {
    /// Whether every streamed score is bit-identical to the batch
    /// reference (guaranteed on the exact backend; approximate
    /// backends may legitimately differ).
    pub fn bit_identical(&self) -> bool {
        self.batch == self.streamed
    }

    /// Streamed lines per second.
    pub fn throughput(&self) -> f64 {
        self.lines as f64 / self.elapsed.as_secs_f64()
    }
}

/// Fits `engine` on the experiment's supervision (store-memoized,
/// per-detector pooled views), scores the de-duplicated test split
/// once as the batch reference, then replays the same split through
/// the long-lived scoring service ([`serve::Frontend`], `shards == 1`:
/// every detector resident, no shard pool) in `chunk`-line arrivals —
/// the `--serve` mode of the table binaries.
pub fn replay_through_service(
    exp: &Experiment,
    engine: ScoringEngine,
    serve_config: serve::ServeConfig,
    chunk: usize,
) -> Result<ReplayReport, EngineError> {
    let store = EmbeddingStore::new(&exp.pipeline);
    let train_lines = exp.train_lines();
    let labels = exp.train_labels();
    let dedup = exp.deduped_test();
    let test_lines: Vec<String> = dedup.iter().map(|r| r.line.clone()).collect();
    let fitted = engine.fit_each(&labels, |det| detector_view(&store, &train_lines, det))?;
    let refs: Vec<&str> = test_lines.iter().map(String::as_str).collect();
    let batch_run = fitted.score_each(|det| detector_view(&store, &refs, det));
    let names: Vec<String> = batch_run.outputs().iter().map(|m| m.name.clone()).collect();
    let batch: Vec<Vec<f32>> = batch_run
        .outputs()
        .iter()
        .map(|m| m.scores.clone())
        .collect();

    let service = serve::Frontend::spawn(exp.pipeline.clone(), fitted, 1, serve_config)
        .expect("table methods are line-aligned");
    let mut streamed: Vec<Vec<f32>> = vec![Vec::with_capacity(test_lines.len()); names.len()];
    let t0 = std::time::Instant::now();
    for lines in test_lines.chunks(chunk.max(1)) {
        for line_scores in service.score_batch(lines).expect("service alive") {
            for (m, s) in line_scores.into_iter().enumerate() {
                streamed[m].push(s);
            }
        }
    }
    let elapsed = t0.elapsed();
    let stats = service.stats();
    service.shutdown();
    Ok(ReplayReport {
        names,
        batch,
        streamed,
        lines: test_lines.len(),
        elapsed,
        micro_batches: stats.batches,
    })
}

/// Classification-based tuning end to end: fit on supervision labels,
/// score the de-duplicated test set.
pub fn run_classification(exp: &Experiment, seed: u64) -> Vec<ScoredSample> {
    let run = MethodSuite::new(exp)
        .with_classification_seeded(seed)
        .run()
        .expect("classification suite");
    run.samples("classification").expect("registered method")
}

/// Multi-line classification; the test set is de-duplicated *by
/// window*, which is why the paper reports only top-v metrics for it.
pub fn run_multiline(exp: &Experiment, seed: u64) -> Vec<ScoredSample> {
    let run = MethodSuite::new(exp)
        .with_multiline_seeded(seed)
        .run()
        .expect("multiline suite");
    run.samples("multiline").expect("registered method")
}

/// Reconstruction-based tuning: alternating f/W optimization (Eq. 2).
pub fn run_reconstruction(exp: &Experiment, seed: u64) -> Vec<ScoredSample> {
    let run = MethodSuite::new(exp)
        .with_reconstruction_seeded(seed)
        .run()
        .expect("reconstruction suite");
    run.samples("reconstruction").expect("registered method")
}

/// Retrieval (1NN over malicious exemplars; no tuning) over the exact
/// backend.
pub fn run_retrieval(exp: &Experiment) -> Vec<ScoredSample> {
    run_retrieval_with(exp, IndexConfig::Exact)
}

/// [`run_retrieval`] over an explicit vector-index backend.
pub fn run_retrieval_with(exp: &Experiment, index: IndexConfig) -> Vec<ScoredSample> {
    let run = MethodSuite::new(exp)
        .with_index(index)
        .with_retrieval(1)
        .run()
        .expect("retrieval suite");
    run.samples("retrieval").expect("registered method")
}

/// Ablation: vanilla majority-vote kNN (the method the paper modified
/// away from because of label noise) over the exact backend.
pub fn run_vanilla_knn(exp: &Experiment, k: usize) -> Vec<ScoredSample> {
    run_vanilla_knn_with(exp, k, IndexConfig::Exact)
}

/// [`run_vanilla_knn`] over an explicit vector-index backend.
pub fn run_vanilla_knn_with(exp: &Experiment, k: usize, index: IndexConfig) -> Vec<ScoredSample> {
    let run = MethodSuite::new(exp)
        .with_index(index)
        .with_vanilla_knn(k)
        .run()
        .expect("vanilla kNN suite");
    run.samples("vanilla-knn").expect("registered method")
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmdline_ids::embed::Pooling;
    use cmdline_ids::pipeline::PipelineConfig;

    fn tiny_experiment() -> Experiment {
        let mut config = PipelineConfig::fast();
        config.train_size = 800;
        config.test_size = 400;
        config.attack_prob = 0.25;
        Experiment::setup(99, config)
    }

    #[test]
    fn suite_scores_all_methods_in_one_run() {
        let exp = tiny_experiment();
        let n = exp.deduped_test().len();
        let run = MethodSuite::new(&exp)
            .with_classification()
            .with_retrieval(1)
            .with_vanilla_knn(3)
            .with_multiline()
            .with_reconstruction()
            .run()
            .expect("suite runs");

        for name in [
            "classification",
            "retrieval",
            "vanilla-knn",
            "reconstruction",
        ] {
            let samples = run.samples(name).expect(name);
            assert_eq!(samples.len(), n, "{name}");
            assert!(samples.iter().all(|s| s.score.is_finite()), "{name}");
        }
        let multi = run.samples("multiline").expect("multiline");
        assert!(!multi.is_empty());
        assert!(multi.iter().all(|s| s.score.is_finite()));

        // The shared line sets were embedded exactly once each
        // (train + deduped test), however many methods consumed them.
        assert_eq!(run.store().misses(), 2);
    }

    #[test]
    fn fused_samples_align_with_dedup() {
        let exp = tiny_experiment();
        let run = MethodSuite::new(&exp)
            .with_retrieval(1)
            .with_vanilla_knn(3)
            .run()
            .expect("suite runs");
        let fused = run
            .fused_samples(&["retrieval", "vanilla-knn"], &[1.0, 1.0])
            .expect("uniform lengths fuse");
        assert_eq!(fused.len(), exp.deduped_test().len());
    }

    #[test]
    fn wrappers_produce_one_score_per_sample() {
        let exp = tiny_experiment();
        let n = exp.deduped_test().len();
        let cls = run_classification(&exp, exp.method_seed("classification"));
        assert_eq!(cls.len(), n);
        let retr = run_retrieval(&exp);
        assert_eq!(retr.len(), n);
    }

    #[test]
    fn cls_pooled_classification_threads_through_the_suite() {
        // The ROADMAP gap this pins down: the suite used to reject
        // CLS-pooled classification configs outright. Now the
        // per-detector pooling contract routes the paper config onto
        // `[CLS]` views while retrieval keeps the mean-pooled space.
        let exp = tiny_experiment();
        let mut config = TuneConfig::scaled();
        config.pooling = Pooling::Cls;
        let run = MethodSuite::new(&exp)
            .with_classification_config(config, exp.method_seed("classification"))
            .with_retrieval(1)
            .run()
            .expect("mixed-pooling suite runs");
        let n = exp.deduped_test().len();
        for name in ["classification", "retrieval"] {
            let samples = run.samples(name).expect(name);
            assert_eq!(samples.len(), n, "{name}");
            assert!(samples.iter().all(|s| s.score.is_finite()), "{name}");
        }
        // Four distinct (line set, pooling) pairs → exactly four
        // encoder passes: train/test × mean/CLS.
        assert_eq!(run.store().misses(), 4);
        assert_eq!(run.store().len(), 4);
    }

    #[test]
    fn structural_detector_rides_the_suite_without_encoder_passes() {
        let exp = tiny_experiment();
        let n = exp.deduped_test().len();
        let run = MethodSuite::new(&exp)
            .with_retrieval(1)
            .with_structural()
            .run()
            .expect("suite runs");
        let samples = run.samples("structural").expect("registered");
        assert_eq!(samples.len(), n);
        assert!(samples.iter().all(|s| s.score.is_finite()));
        // Structural scores off the parse, not the encoder: only the
        // retrieval method's two line sets hit the embedding store.
        assert_eq!(run.store().misses(), 2);
        // And it fuses with the LM methods line-aligned.
        let fused = run
            .fused_samples(&["retrieval", "structural"], &[1.0, 1.0])
            .expect("line-aligned methods fuse");
        assert_eq!(fused.len(), n);
    }

    #[test]
    fn embedding_free_methods_skip_the_encoder() {
        let exp = tiny_experiment();
        // A multiline-only suite never reads frozen-space embeddings,
        // so the store must not run the encoder at all.
        let run = MethodSuite::new(&exp)
            .with_multiline()
            .run()
            .expect("multiline-only suite");
        assert_eq!(run.store().misses(), 0, "no encoder pass should run");
        assert!(!run.samples("multiline").expect("registered").is_empty());
    }
}
