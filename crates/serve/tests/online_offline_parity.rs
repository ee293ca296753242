//! Online/offline parity: replaying a corpus line-by-line through the
//! streaming service must produce **bit-identical** scores to the
//! one-shot batch `ScoringEngine::run` on the exact backend, and
//! rank-equivalent scores within tolerance on HNSW.
//!
//! This is the contract that keeps the serving path honest: micro-
//! batching, per-arrival encoder passes, and worker fan-out are
//! implementation details that must not move a single bit of the
//! paper-faithful scores.

use cmdline_ids::embed::Pooling;
use cmdline_ids::engine::{EmbeddingStore, IndexConfig, ScoringEngine};
use cmdline_ids::pipeline::{IdsPipeline, PipelineConfig};
use corpus::dedup_records;
use ids_rules::RuleIds;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serve::{Frontend, ServeConfig};
use std::time::Duration;

use anomaly::{PcaMethod, RetrievalMethod, VanillaKnnMethod};

struct Fixture {
    pipeline: IdsPipeline,
    train_lines: Vec<String>,
    labels: Vec<bool>,
    test_lines: Vec<String>,
}

fn fixture() -> Fixture {
    let mut config = PipelineConfig::fast();
    config.train_size = 700;
    config.test_size = 300;
    config.attack_prob = 0.25;
    let mut rng = StdRng::seed_from_u64(1234);
    let dataset = config.generate_dataset(&mut rng);
    let pipeline = IdsPipeline::pretrain(&config, &dataset, &mut rng);
    let ids = RuleIds::with_default_rules();
    let labels: Vec<bool> = dataset
        .train
        .iter()
        .map(|r| ids.is_alert(&r.line))
        .collect();
    Fixture {
        pipeline,
        train_lines: dataset.train.iter().map(|r| r.line.clone()).collect(),
        labels,
        test_lines: dedup_records(&dataset.test)
            .iter()
            .map(|r| r.line.clone())
            .collect(),
    }
}

fn engine(index: IndexConfig) -> ScoringEngine {
    ScoringEngine::new()
        .with_index_config(index)
        .register(Box::new(RetrievalMethod::new(1)))
        .register(Box::new(VanillaKnnMethod::new(3)))
        .register(Box::new(PcaMethod::new(0.95)))
}

/// One-shot batch protocol: embed the whole test split in one store
/// pass, score every method. Returns scores per method name.
fn offline_scores(fx: &Fixture, index: IndexConfig) -> Vec<(String, Vec<f32>)> {
    let store = EmbeddingStore::new(&fx.pipeline);
    let train = store.view_of(&fx.train_lines, Pooling::Mean);
    let test = store.view_of(&fx.test_lines, Pooling::Mean);
    let run = engine(index)
        .run(&train, &fx.labels, &test)
        .expect("batch run succeeds");
    run.outputs()
        .iter()
        .map(|m| (m.name.clone(), m.scores.clone()))
        .collect()
}

/// Streams the test split through a live service in arrival-sized
/// chunks, collecting per-method score vectors aligned with the batch
/// protocol's output.
fn online_scores(fx: &Fixture, index: IndexConfig, chunk: usize) -> Vec<(String, Vec<f32>)> {
    let store = EmbeddingStore::new(&fx.pipeline);
    let train = store.view_of(&fx.train_lines, Pooling::Mean);
    let fitted = engine(index).fit(&train, &fx.labels).expect("fit succeeds");
    let service = Frontend::spawn(
        fx.pipeline.clone(),
        fitted,
        1,
        ServeConfig {
            queue_capacity: 32,
            max_batch: 16,
            batch_window: Duration::from_micros(200),
            workers: 2,
        },
    )
    .expect("line-aligned methods serve");
    let names: Vec<String> = service.method_names().to_vec();
    let mut per_method: Vec<Vec<f32>> = vec![Vec::new(); names.len()];
    for lines in fx.test_lines.chunks(chunk) {
        let replies = service.score_batch(lines).expect("service alive");
        assert_eq!(replies.len(), lines.len());
        for line_scores in replies {
            assert_eq!(line_scores.len(), names.len());
            for (m, s) in line_scores.into_iter().enumerate() {
                per_method[m].push(s);
            }
        }
    }
    service.shutdown();
    names.into_iter().zip(per_method).collect()
}

use linalg::ops::spearman;

#[test]
fn streaming_is_bit_identical_to_batch_on_the_exact_backend() {
    let fx = fixture();
    let offline = offline_scores(&fx, IndexConfig::Exact);
    // Line-by-line replay: every arrival is its own request (micro-
    // batching may still coalesce them — that must not matter).
    let online = online_scores(&fx, IndexConfig::Exact, 1);
    assert_eq!(offline.len(), online.len());
    for ((name_off, scores_off), (name_on, scores_on)) in offline.iter().zip(&online) {
        assert_eq!(name_off, name_on);
        assert_eq!(
            scores_off, scores_on,
            "{name_off}: streamed scores must be bit-identical to the batch run"
        );
    }
    // Chunked replay (a busier arrival pattern) is equally exact.
    let chunked = online_scores(&fx, IndexConfig::Exact, 7);
    for ((name_off, scores_off), (_, scores_chunked)) in offline.iter().zip(&chunked) {
        assert_eq!(
            scores_off, scores_chunked,
            "{name_off}: chunk size must not move scores"
        );
    }
}

#[test]
fn streaming_hnsw_is_rank_equivalent_within_tolerance() {
    let fx = fixture();
    let offline_exact = offline_scores(&fx, IndexConfig::Exact);
    let online_hnsw = online_scores(&fx, IndexConfig::hnsw(), 5);
    for ((name, exact), (_, approx)) in offline_exact.iter().zip(&online_hnsw) {
        let rho = spearman(exact, approx);
        assert!(
            rho >= 0.97,
            "{name}: streamed HNSW ranking drifted from exact batch (ρ = {rho:.4})"
        );
    }
}
