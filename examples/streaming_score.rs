//! End-to-end tour of the streaming scoring service: pre-train a
//! pipeline, fit the resident detector set, then
//!
//! 1. replay the test split line-by-line from concurrent producers
//!    (micro-batching keeps the encoder's batched forward hot),
//! 2. absorb a burst of fresh supervision through the incremental
//!    HNSW insert path,
//! 3. snapshot the fitted neighbour detectors to disk and cold-start
//!    a second service from the file — no graph construction pass.
//!
//! Run: `cargo run --release --example streaming_score
//! [--shards N] [--quant f32|f16|i8]`
//!
//! With `--shards N` (N > 1) the exemplar indexes are partitioned N
//! ways and the same service feeds N shard pools: micro-batches scatter
//! to per-shard worker pools, per-shard top-k candidates merge back into
//! one verdict, appends route to the owning shard, and the snapshot
//! carries one frame per shard. With `--quant f16|i8` every shard
//! stores its candidates quantized — appends quantize on insert, and
//! the snapshot frames the format + scales so the cold start serves
//! the same compressed store. (CI smoke-runs `--shards 1`, `--shards 4`
//! and `--shards 4 --quant i8` so no shape can rot.)

use anomaly::{RetrievalMethod, VanillaKnnMethod};
use cmdline_ids::embed::Pooling;
use cmdline_ids::engine::{EmbeddingStore, FittedEngine, IndexConfig, Quantization, ScoringEngine};
use cmdline_ids::pipeline::{IdsPipeline, PipelineConfig};
use corpus::dedup_records;
use ids_rules::RuleIds;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serve::{Frontend, ServeConfig, ServiceSnapshot};
use std::time::{Duration, Instant};

const PRODUCERS: usize = 4;

/// One [`Frontend`] serves the whole tour: the one scoring service
/// with zero (`--shards 1`) or N shard pools, so the
/// replay/append/snapshot steps are identical across `--shards`.
fn spawn_front(pipeline: IdsPipeline, fitted: FittedEngine, shards: usize) -> Frontend {
    Frontend::spawn(
        pipeline,
        fitted,
        shards,
        ServeConfig {
            queue_capacity: 128,
            max_batch: 32,
            batch_window: Duration::from_millis(1),
            workers: 2,
        },
    )
    .expect("front spawns")
}

fn parse_args() -> (usize, Quantization) {
    let mut shards = 1usize;
    let mut quant = Quantization::F32;
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i + 1 < argv.len() {
        match argv[i].as_str() {
            "--shards" => {
                shards = argv[i + 1]
                    .parse()
                    .expect("--shards takes a positive integer");
            }
            "--quant" => {
                quant = argv[i + 1].parse().expect("--quant takes f32|f16|i8");
            }
            _ => break,
        }
        i += 2;
    }
    if i != argv.len() {
        eprintln!("usage: streaming_score [--shards N] [--quant f32|f16|i8]");
        std::process::exit(2);
    }
    (shards, quant)
}

fn main() {
    let (shards, quant) = parse_args();
    // 1. Offline prologue: data, pre-training, supervision, fit.
    let mut config = PipelineConfig::fast();
    config.train_size = 900;
    config.test_size = 400;
    config.attack_prob = 0.2;
    let mut rng = StdRng::seed_from_u64(7);
    println!(
        "pre-training on {} synthetic lines… (shards: {shards}, quant: {quant})",
        config.train_size
    );
    let dataset = config.generate_dataset(&mut rng);
    let pipeline = IdsPipeline::pretrain(&config, &dataset, &mut rng);
    let ids = RuleIds::with_default_rules();
    let labels: Vec<bool> = dataset
        .train
        .iter()
        .map(|r| ids.is_alert(&r.line))
        .collect();
    let train_lines: Vec<String> = dataset.train.iter().map(|r| r.line.clone()).collect();
    let test_lines: Vec<String> = dedup_records(&dataset.test)
        .iter()
        .map(|r| r.line.clone())
        .collect();

    let store = EmbeddingStore::new(&pipeline);
    let train = store.view_of(&train_lines, Pooling::Mean);
    let fitted = ScoringEngine::new()
        .with_index_config(IndexConfig::hnsw().with_quant(quant).with_shards(shards))
        .register(Box::new(RetrievalMethod::new(1)))
        .register(Box::new(VanillaKnnMethod::new(3)))
        .fit(&train, &labels)
        .expect("detector set fits");

    // 2. Serve: concurrent producers replay the test split line by
    //    line; workers coalesce arrivals into encoder-sized batches
    //    (and, sharded, scatter each batch across the shard pools).
    let front = spawn_front(pipeline.clone(), fitted, shards);
    println!(
        "serving methods {:?} over {} streamed lines from {PRODUCERS} producers…",
        front.method_names(),
        test_lines.len()
    );
    let t0 = Instant::now();
    let mut alerts = 0usize;
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for p in 0..PRODUCERS {
            let client = front.client();
            let lines = &test_lines;
            handles.push(scope.spawn(move || {
                let mut hot = 0usize;
                for line in lines.iter().skip(p).step_by(PRODUCERS) {
                    let scores = client.score_line(line).expect("service alive");
                    // Retrieval ≥ 0.9 ⇒ essentially a known exemplar.
                    if scores[0] >= 0.9 {
                        hot += 1;
                    }
                }
                hot
            }));
        }
        for handle in handles {
            alerts += handle.join().expect("producer finished");
        }
    });
    let elapsed = t0.elapsed();
    let stats = front.stats();
    println!(
        "  {} lines in {elapsed:.2?} ({:.0} lines/s), {} micro-batches \
         (avg {:.1} lines/batch), {alerts} retrieval-hot lines",
        stats.lines,
        stats.lines as f64 / elapsed.as_secs_f64(),
        stats.batches,
        stats.lines as f64 / stats.batches.max(1) as f64
    );

    // 3. Live supervision: absorb fresh exemplars without a refit
    //    (sharded: each routed to its owning shard's index).
    let burst: Vec<String> = test_lines.iter().take(8).cloned().collect();
    let burst_labels: Vec<bool> = burst.iter().map(|l| ids.is_alert(l)).collect();
    let absorbed = front.append(&burst, &burst_labels).expect("append works");
    println!(
        "absorbed a supervision burst of {} lines into {absorbed} neighbour indexes",
        burst.len()
    );

    // 4. Persistence: snapshot, cold-start, verify verdict parity.
    let (snapshot, skipped) = front.snapshot().expect("no appends in flight");
    assert!(skipped.is_empty());
    let path = std::env::temp_dir().join(format!("streaming-score-{}.bin", std::process::id()));
    snapshot.save(&path).expect("snapshot saves");
    let bytes = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
    let warm_client = front.client();
    let want: Vec<Vec<f32>> = test_lines
        .iter()
        .take(16)
        .map(|l| warm_client.score_line(l).expect("warm service scores"))
        .collect();
    drop(warm_client);
    front.shutdown();

    let passes = index::construction_passes();
    let restored = ServiceSnapshot::load(&path)
        .expect("snapshot loads")
        .restore();
    let cold = spawn_front(pipeline, restored, shards);
    assert_eq!(
        index::construction_passes(),
        passes,
        "cold start must adopt the saved graphs (all shards), not rebuild them"
    );
    std::fs::remove_file(&path).ok();
    let cold_client = cold.client();
    for (line, want_scores) in test_lines.iter().take(16).zip(&want) {
        let got = cold_client.score_line(line).expect("cold service scores");
        assert_eq!(&got, want_scores, "cold-start verdict drifted for {line:?}");
    }
    drop(cold_client);
    cold.shutdown();
    println!(
        "cold-started from a {bytes}-byte snapshot ({shards} shard(s), {quant} candidates) \
         with zero graph construction passes; verdicts bit-identical"
    );
}
