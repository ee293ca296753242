//! Verdict-cache correctness: cache-on ≡ cache-off bit-for-bit on the
//! exact backend (unsharded and sharded), append-then-score never
//! serves a stale verdict (the epoch bump), and the LRU capacity bound
//! holds under a Zipf replay.

use cmdline_ids::embed::Pooling;
use cmdline_ids::engine::{
    Detector, DetectorError, EmbeddingStore, EmbeddingView, FittedEngine, IndexConfig,
    ScoringEngine,
};
use cmdline_ids::pipeline::{IdsPipeline, PipelineConfig};
use corpus::{dedup_records, ZipfSampler};
use ids_rules::RuleIds;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serve::{Frontend, ServeConfig};
use std::sync::OnceLock;
use std::time::Duration;

use anomaly::{RetrievalMethod, VanillaKnnMethod};

struct Fixture {
    pipeline: IdsPipeline,
    train_lines: Vec<String>,
    labels: Vec<bool>,
    test_lines: Vec<String>,
}

/// Fit once per test binary: the tests share one frozen pipeline and
/// fit their own engines from it.
fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let mut config = PipelineConfig::fast();
        config.train_size = 500;
        config.test_size = 250;
        config.attack_prob = 0.25;
        let mut rng = StdRng::seed_from_u64(4242);
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
    })
}

fn fitted(fx: &Fixture, index: IndexConfig) -> FittedEngine {
    let store = EmbeddingStore::new(&fx.pipeline);
    let train = store.view_of(&fx.train_lines, Pooling::Mean);
    ScoringEngine::new()
        .with_index_config(index)
        .register(Box::new(RetrievalMethod::new(1)))
        .register(Box::new(VanillaKnnMethod::new(3)))
        .fit(&train, &fx.labels)
        .expect("fit succeeds")
}

fn serve_config() -> ServeConfig {
    ServeConfig {
        queue_capacity: 64,
        max_batch: 16,
        batch_window: Duration::from_micros(200),
        workers: 2,
    }
}

/// A Zipf-heavy replay over the deduplicated test pool: the arrival
/// pattern the cache exists for.
fn zipf_replay(fx: &Fixture, draws: usize, seed: u64) -> Vec<String> {
    let sampler = ZipfSampler::new(fx.test_lines.len(), 1.05);
    let mut rng = StdRng::seed_from_u64(seed);
    (0..draws)
        .map(|_| fx.test_lines[sampler.sample(&mut rng)].clone())
        .collect()
}

/// Cache-on and cache-off verdicts are bit-identical on the exact
/// backend, on both the unsharded service and the shard router. The
/// comparison runs against the *same* live front-end: `client()`
/// bypasses the cache, `score_batch` goes through it, and a Zipf
/// replay guarantees the cached path actually serves hits.
#[test]
fn cache_on_equals_cache_off_bit_for_bit() {
    let fx = fixture();
    for shards in [1usize, 2] {
        let index = if shards > 1 {
            IndexConfig::Exact.with_shards(shards)
        } else {
            IndexConfig::Exact
        };
        let front = Frontend::spawn(
            fx.pipeline.clone(),
            fitted(fx, index),
            shards,
            serve_config(),
        )
        .expect("spawn succeeds")
        .with_cache(256)
        .expect("nonzero capacity");
        let replay = zipf_replay(fx, 600, 7);
        for chunk in replay.chunks(9) {
            let cached = front.score_batch(chunk).expect("front alive");
            let raw = front.client().score_batch(chunk).expect("front alive");
            assert_eq!(
                cached, raw,
                "cached verdicts must be bit-identical to the uncached path ({shards} shard(s))"
            );
        }
        let stats = front.stats();
        assert!(
            stats.cache_hits > 0,
            "a Zipf replay must produce cache hits (got {} hits / {} misses)",
            stats.cache_hits,
            stats.cache_misses
        );
        front.shutdown();
    }
}

/// Append-then-score never serves a stale verdict: absorbing the
/// scored line itself as a labeled exemplar changes its retrieval
/// distance to zero, so the post-append verdict provably differs —
/// and the cached path must return the *new* one, bit-identical to
/// the uncached path, because the append bumped the epoch.
#[test]
fn append_then_score_never_serves_a_stale_verdict() {
    let fx = fixture();
    let front = Frontend::spawn(
        fx.pipeline.clone(),
        fitted(fx, IndexConfig::Exact),
        1,
        serve_config(),
    )
    .expect("spawn succeeds")
    .with_cache(64)
    .expect("nonzero capacity");

    let line = fx.test_lines[0].clone();
    let before = front.score_line(&line).expect("front alive");
    // The verdict is now cached: a re-score hits.
    let cached = front.score_line(&line).expect("front alive");
    assert_eq!(before, cached);
    let stats = front.stats();
    assert!(stats.cache_hits >= 1);
    assert_eq!(stats.epoch, 0);

    // Absorb the line itself (plus a few neighbours) as supervision.
    let append_lines: Vec<String> = vec![line.clone(), fx.test_lines[1].clone()];
    let labels = vec![true, false];
    let absorbed = front
        .append(&append_lines, &labels)
        .expect("append succeeds");
    assert!(absorbed > 0, "neighbour methods absorb appends");
    assert_eq!(front.stats().epoch, 1, "append bumps the cache epoch");

    let after_cached = front.score_line(&line).expect("front alive");
    let after_raw = front.client().score_line(&line).expect("front alive");
    assert_eq!(
        after_cached, after_raw,
        "post-append cached verdict must match the uncached path"
    );
    assert_ne!(
        before, after_cached,
        "appending the line as an exemplar must change its verdict — \
         if these match, the cache served a stale entry"
    );
    front.shutdown();
}

/// A resident detector that scores but refuses supervision.
struct RefusesAppends;

impl Detector for RefusesAppends {
    fn name(&self) -> &str {
        "refuses-appends"
    }

    fn fit(&mut self, _train: &EmbeddingView, _labels: &[bool]) -> Result<(), DetectorError> {
        Ok(())
    }

    fn score_batch(&self, test: &EmbeddingView) -> Vec<f32> {
        vec![0.0; test.len()]
    }

    fn absorbs_appends(&self) -> bool {
        true
    }

    fn append(&mut self, _batch: &EmbeddingView, _labels: &[bool]) -> Result<bool, DetectorError> {
        Err(DetectorError::EmptyTrainingSet)
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

/// A failed append still invalidates the cache: by the time the second
/// detector errs the first may already hold the new exemplars, so the
/// `Err` must not leave pre-append verdicts hitting.
#[test]
fn a_failed_append_still_invalidates_cached_verdicts() {
    let fx = fixture();
    for shards in [1usize, 4] {
        let mut detectors = fitted(fx, IndexConfig::Exact.with_shards(shards)).into_detectors();
        detectors.truncate(1);
        detectors.push(Box::new(RefusesAppends));
        let front = Frontend::spawn(
            fx.pipeline.clone(),
            FittedEngine::from_detectors(detectors),
            shards,
            serve_config(),
        )
        .expect("spawn succeeds")
        .with_cache(64)
        .expect("nonzero capacity");
        assert_eq!(front.method_names(), ["retrieval", "refuses-appends"]);

        let line = fx.test_lines[0].clone();
        front.score_line(&line).expect("front alive");
        front.score_line(&line).expect("front alive");
        let cached = front.stats();
        assert_eq!(
            (cached.cache_hits, cached.cache_misses),
            (1, 1),
            "the re-score hits ({shards} shard(s))"
        );

        front
            .append(std::slice::from_ref(&line), &[true])
            .expect_err("the second detector refuses the batch");
        front.score_line(&line).expect("front alive");
        let after = front.stats();
        assert_eq!(
            (after.cache_hits, after.cache_misses),
            (1, 2),
            "a failed append must turn the cached line into a miss ({shards} shard(s))"
        );
        front.shutdown();
    }
}

/// The LRU capacity bound holds under a Zipf replay, evictions happen,
/// and the hot head still hits.
#[test]
fn lru_capacity_enforced_under_zipf_replay() {
    let fx = fixture();
    let capacity = 32;
    let front = Frontend::spawn(
        fx.pipeline.clone(),
        fitted(fx, IndexConfig::Exact),
        1,
        serve_config(),
    )
    .expect("spawn succeeds")
    .with_cache(capacity)
    .expect("nonzero capacity");
    let cache = front.cache().expect("cache attached").clone();

    for chunk in zipf_replay(fx, 800, 11).chunks(8) {
        front.score_batch(chunk).expect("front alive");
        assert!(
            cache.len() <= capacity,
            "resident entries ({}) exceeded capacity ({capacity})",
            cache.len()
        );
    }
    let stats = cache.stats();
    assert_eq!(stats.capacity, capacity);
    assert!(
        stats.evictions > 0,
        "a {}-line pool through a {capacity}-entry cache must evict",
        fx.test_lines.len()
    );
    assert!(
        stats.hits > 0,
        "the Zipf head must hit even under eviction pressure"
    );
    front.shutdown();
}
