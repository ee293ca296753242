//! What every workload shares: the sizes of a run, the generated
//! corpus, the pretrained pipeline and the line pool requests draw from.

use anomaly::{RetrievalMethod, VanillaKnnMethod};
use bench::Experiment;
use cmdline_ids::embed::{embed_lines, Pooling};
use cmdline_ids::engine::{EmbeddingView, FittedEngine, IndexConfig, MethodScores, ScoringEngine};
use cmdline_ids::metrics::{best_f1, ScoredSample};
use cmdline_ids::pipeline::PipelineConfig;
use corpus::dedup_records;
use linalg::Matrix;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serve::ServeConfig;
use std::time::{Duration, Instant};

/// Seed of everything the system under test is built from: corpus,
/// tokenizer, encoder, pool, exemplars, tenant partitions. Fixed (23,
/// as the criterion benches use), so every run measures the same
/// system; `--seed` drives the traffic offered to it and the order
/// the verify pass scores in.
pub const SYSTEM_SEED: u64 = 23;
/// Zipf exponent of the skewed draws (lines on `wire_zipf_hot`, tenant
/// ids on `tenant_churn`).
pub const ZIPF_S: f64 = 1.05;
/// Lines per batched forward pass during set-up.
const EMBED_BATCH: usize = 4_096;
/// Neighbours the retrieval method averages (the paper's k = 1).
pub const RETRIEVAL_K: usize = 1;
/// Neighbours the vanilla-kNN method votes over.
pub const KNN_K: usize = 3;

/// Every size a run depends on. `full` is what `BENCHMARK.json`
/// measures; `smoke` is the same code over tiny inputs for the tests.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Lines the pipeline is pretrained on (also the tenant row pool).
    pub pretrain_lines: usize,
    /// Test-split draw whose de-duplication is the line pool.
    pub pool_draw: usize,
    /// Exemplar rows behind the two wire workloads.
    pub wire_exemplars: usize,
    /// Exemplar rows behind `scan_sharded`.
    pub scan_rows: usize,
    pub tenants: u64,
    pub tenant_rows: usize,
    /// Tenants the verify pass checks against dedicated references.
    pub verify_tenants: usize,
    /// Share of tenants the memory budget lets stay hot.
    pub hot_share: f64,
    /// Lines of the ladder's cheap rungs (parse .. forward).
    pub ladder_lines: usize,
    /// Lines of the ladder's rungs from the index upwards.
    pub ladder_heavy_lines: usize,
    pub warmup_secs: f64,
    /// Times set-up is repeated; `setup_s` is the median.
    pub setup_reps: usize,
    /// Open-loop request rates, requests/s, in workload order.
    pub paced_rate: [f64; 4],
    /// Requests per traced phase whose spans are kept.
    pub traced_requests: u64,
}

impl Sizes {
    pub fn full() -> Self {
        Sizes {
            pretrain_lines: 2_000,
            pool_draw: 20_000,
            wire_exemplars: 700,
            scan_rows: 40_000,
            tenants: 2_000,
            tenant_rows: 64,
            verify_tenants: 64,
            hot_share: 0.05,
            ladder_lines: 2_048,
            ladder_heavy_lines: 512,
            warmup_secs: 1.0,
            setup_reps: 3,
            paced_rate: PACED_RATE,
            traced_requests: 4_000,
        }
    }

    pub fn smoke() -> Self {
        Sizes {
            pretrain_lines: 300,
            pool_draw: 1_200,
            wire_exemplars: 150,
            scan_rows: 1_500,
            tenants: 48,
            tenant_rows: 32,
            verify_tenants: 6,
            hot_share: 0.1,
            ladder_lines: 48,
            ladder_heavy_lines: 24,
            warmup_secs: 0.05,
            setup_reps: 1,
            paced_rate: [400.0, 1_000.0, 20.0, 150.0],
            traced_requests: 200,
        }
    }
}

/// Open-loop rates of the full run, requests/s: ≈ 25 % of the `sat`
/// throughput the seed commit reached on the 2-core reference
/// container on the wire workloads, ≈ 50 % in-process (README,
/// "Workloads"). Fixed so that a later change is measured at the same
/// offered load as its parent.
const PACED_RATE: [f64; 4] = [1_000.0, 12_000.0, 38.0, 470.0];

/// The serving knobs every workload spawns with.
pub fn serve_config() -> ServeConfig {
    ServeConfig {
        queue_capacity: 64,
        max_batch: 32,
        batch_window: Duration::from_millis(1),
        workers: 2,
    }
}

/// The generated corpus, the pretrained pipeline and the request pool.
pub struct World {
    pub exp: Experiment,
    /// The de-duplicated test split, in first-seen order.
    pub pool: Vec<String>,
    /// Ground truth (`malicious`) aligned with `pool`.
    pub truth: Vec<bool>,
    pub pretrain_s: f64,
}

impl World {
    pub fn build(sizes: &Sizes) -> World {
        let mut config = PipelineConfig::fast();
        config.train_size = sizes.pretrain_lines;
        config.test_size = sizes.pool_draw;
        config.attack_prob = 0.2;
        let t = Instant::now();
        let exp = Experiment::setup(SYSTEM_SEED, config);
        let pretrain_s = t.elapsed().as_secs_f64();
        let records = dedup_records(&exp.dataset.test);
        World {
            pool: records.iter().map(|r| r.line.clone()).collect(),
            truth: records.iter().map(|r| r.truth.is_malicious()).collect(),
            exp,
            pretrain_s,
        }
    }

    /// The first `n` training lines with their black-box labels, every
    /// labelled-positive line moved to the front so that a small cut
    /// still holds exemplars for the retrieval method.
    pub fn exemplars(&self, n: usize) -> (Vec<String>, Vec<bool>) {
        let labels = self.exp.train_labels();
        let train = &self.exp.dataset.train;
        let mut order: Vec<usize> = (0..train.len()).collect();
        order.sort_by_key(|&i| !labels[i]);
        order.truncate(n.min(train.len()));
        (
            order.iter().map(|&i| train[i].line.clone()).collect(),
            order.iter().map(|&i| labels[i]).collect(),
        )
    }

    /// Every `stride`th pool line with its ground truth, shuffled by
    /// `seed`: what the verify passes score. Which lines belongs to
    /// the system; their order belongs to the run and reaches the
    /// verdict checksum, not `f1`.
    pub fn shuffled_pool(&self, seed: u64, stride: usize) -> (Vec<String>, Vec<bool>) {
        let mut order: Vec<usize> = (0..self.pool.len()).step_by(stride).collect();
        order.shuffle(&mut StdRng::seed_from_u64(seed));
        (
            order.iter().map(|&i| self.pool[i].clone()).collect(),
            order.iter().map(|&i| self.truth[i]).collect(),
        )
    }

    /// Mean-pooled embeddings of `lines`, one batched forward per
    /// `EMBED_BATCH` lines (one batch per exemplar set would hold gigabytes of activations).
    pub fn embed(&self, lines: &[String]) -> EmbeddingView {
        let pipeline = &self.exp.pipeline;
        let mut matrix = Matrix::zeros(0, pipeline.encoder().config().hidden);
        for chunk in lines.chunks(EMBED_BATCH) {
            let refs: Vec<&str> = chunk.iter().map(String::as_str).collect();
            let rows = embed_lines(
                pipeline.encoder(),
                pipeline.tokenizer(),
                &refs,
                pipeline.max_len(),
                Pooling::Mean,
            );
            for r in 0..rows.rows() {
                matrix.push_row(rows.row(r));
            }
        }
        EmbeddingView::new(lines.to_vec(), matrix)
    }
}

/// Retrieval (k = 1) + vanilla kNN (k = 3) fitted over `view` behind
/// `index` — the detector set of every workload.
pub fn fit_engine(view: &EmbeddingView, labels: &[bool], index: IndexConfig) -> FittedEngine {
    ScoringEngine::new()
        .register(Box::new(RetrievalMethod::new(RETRIEVAL_K)))
        .register(Box::new(VanillaKnnMethod::new(KNN_K)))
        .with_index_config(index)
        .fit(view, labels)
        .expect("the exemplar set holds labelled positives")
}

/// Method-major engine output as one verdict vector per line.
pub fn transpose(outputs: &[MethodScores], n: usize) -> Vec<Vec<f32>> {
    let mut out = vec![Vec::with_capacity(outputs.len()); n];
    for method in outputs {
        for (line, &s) in out.iter_mut().zip(&method.scores) {
            line.push(s);
        }
    }
    out
}

/// Best F1 of the retrieval scores (verdict column 0) against ground
/// truth; 0.0 when the set holds no malicious line.
pub fn retrieval_f1(verdicts: &[Vec<f32>], truth: &[bool]) -> f64 {
    let samples: Vec<ScoredSample> = verdicts
        .iter()
        .zip(truth)
        .map(|(v, &malicious)| ScoredSample {
            score: v[0],
            malicious,
            in_box: false,
        })
        .collect();
    best_f1(&samples).map_or(0.0, |b| b.f1)
}
