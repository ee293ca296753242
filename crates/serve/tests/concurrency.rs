//! Concurrency contract: N producer threads hammering a service with a
//! deliberately tiny bounded queue never deadlock, and every submitted
//! line gets exactly one score — bit-identical to a quiet
//! single-threaded reference on the exact backend, whatever
//! micro-batch each line landed in. A second harness races appends and
//! snapshots against the score traffic and pins convergence to a
//! quiet comparator with the same append history.
//!
//! Every test runs over [`SHARD_COUNTS`]: the pool-less service and
//! the scatter/gather path share one loop, so they share one stress.
//!
//! `SERVE_STRESS_ITERS=N` multiplies the per-producer quotas for the
//! release-mode CI stress job.

use cmdline_ids::embed::Pooling;
use cmdline_ids::engine::{EmbeddingStore, FittedEngine, IndexConfig, ScoringEngine};
use cmdline_ids::pipeline::{IdsPipeline, PipelineConfig};
use corpus::dedup_records;
use ids_rules::RuleIds;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serve::{Frontend, ServeConfig, ServeError};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::Duration;

use anomaly::{RetrievalMethod, VanillaKnnMethod};

const PRODUCERS: usize = 8;
const LINES_PER_PRODUCER: usize = 40;
/// 1: every detector resident, no pool. 4: both neighbour methods
/// partitioned over four shard pools.
const SHARD_COUNTS: [usize; 2] = [1, 4];

/// Iteration multiplier for the CI stress job.
fn stress_factor() -> usize {
    std::env::var("SERVE_STRESS_ITERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&f| f >= 1)
        .unwrap_or(1)
}

/// Retrieval + vanilla kNN over an exact index partitioned `shards`
/// ways (`with_shards(1)` is the unsharded index).
fn fit_neighbours(
    pipeline: &IdsPipeline,
    train_lines: &[String],
    labels: &[bool],
    shards: usize,
) -> FittedEngine {
    let index = IndexConfig::Exact.with_shards(shards);
    let train = EmbeddingStore::new(pipeline).view_of(train_lines, Pooling::Mean);
    ScoringEngine::new()
        .register(Box::new(RetrievalMethod::with_index(1, index)))
        .register(Box::new(VanillaKnnMethod::with_index(3, index)))
        .fit(&train, labels)
        .expect("fit succeeds")
}

/// The deliberately tiny queue: producers must block on back-pressure,
/// which is exactly where a deadlock would bite.
fn tiny_queue() -> ServeConfig {
    ServeConfig {
        queue_capacity: 4,
        max_batch: 16,
        batch_window: Duration::from_micros(500),
        workers: 3,
    }
}

fn service_fixture() -> (IdsPipeline, Vec<String>, Vec<bool>, Vec<String>) {
    let mut config = PipelineConfig::fast();
    config.train_size = 500;
    config.test_size = 400;
    config.attack_prob = 0.25;
    let mut rng = StdRng::seed_from_u64(77);
    let dataset = config.generate_dataset(&mut rng);
    let pipeline = IdsPipeline::pretrain(&config, &dataset, &mut rng);
    let ids = RuleIds::with_default_rules();
    let labels: Vec<bool> = dataset
        .train
        .iter()
        .map(|r| ids.is_alert(&r.line))
        .collect();
    let train: Vec<String> = dataset.train.iter().map(|r| r.line.clone()).collect();
    let lines: Vec<String> = dedup_records(&dataset.test)
        .iter()
        .map(|r| r.line.clone())
        .collect();
    (pipeline, train, labels, lines)
}

#[test]
fn concurrent_producers_get_exactly_one_score_per_line() {
    let (pipeline, train_lines, labels, lines) = service_fixture();
    for shards in SHARD_COUNTS {
        let fitted = fit_neighbours(&pipeline, &train_lines, &labels, shards);
        let service = Frontend::spawn(pipeline.clone(), fitted, shards, tiny_queue())
            .expect("service spawns");
        exactly_one_score_per_line(service, &lines);
    }
}

fn exactly_one_score_per_line(service: Frontend, lines: &[String]) {
    // Quiet single-threaded reference verdict per distinct line.
    let mut reference = std::collections::HashMap::new();
    for line in lines {
        if !reference.contains_key(line) {
            reference.insert(
                line.clone(),
                service.score_line(line).expect("reference scoring"),
            );
        }
    }

    // Each producer walks the corpus from its own offset, mixing
    // single-line and small-batch submissions.
    let barrier = Barrier::new(PRODUCERS);
    let client = service.client();
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for p in 0..PRODUCERS {
            let client = client.clone();
            let barrier = &barrier;
            let quota = LINES_PER_PRODUCER * stress_factor();
            handles.push(scope.spawn(move || {
                barrier.wait();
                let mut got: Vec<(String, Vec<f32>)> = Vec::new();
                let mut i = p * 31 % lines.len();
                while got.len() < quota {
                    if (got.len() + p).is_multiple_of(3) {
                        // Small batch of 3.
                        let batch: Vec<String> = (0..3)
                            .map(|j| lines[(i + j) % lines.len()].clone())
                            .collect();
                        let replies = client.score_batch(&batch).expect("service alive");
                        assert_eq!(replies.len(), batch.len(), "one reply per line");
                        got.extend(batch.into_iter().zip(replies));
                        i = (i + 3) % lines.len();
                    } else {
                        let line = lines[i].clone();
                        let scores = client.score_line(&line).expect("service alive");
                        got.push((line, scores));
                        i = (i + 1) % lines.len();
                    }
                }
                got
            }));
        }
        let mut total = 0;
        for handle in handles {
            let got = handle.join().expect("producer panicked");
            assert!(got.len() >= LINES_PER_PRODUCER);
            total += got.len();
            for (line, scores) in got {
                assert_eq!(
                    &scores,
                    reference.get(&line).expect("line was referenced"),
                    "concurrent score for {line:?} differs from the quiet reference"
                );
            }
        }
        assert!(total >= PRODUCERS * LINES_PER_PRODUCER);
    });
    drop(client);

    let stats = service.stats();
    assert!(
        stats.lines >= PRODUCERS * LINES_PER_PRODUCER,
        "every submitted line was scored ({} < {})",
        stats.lines,
        PRODUCERS * LINES_PER_PRODUCER
    );
    assert!(
        stats.batches <= stats.lines,
        "batches can never exceed lines"
    );
    service.shutdown();
}

#[test]
fn appends_and_snapshots_race_scores_without_deadlock() {
    let (pipeline, train_lines, labels, lines) = service_fixture();
    for shards in SHARD_COUNTS {
        let spawn = |serve: ServeConfig| {
            let fitted = fit_neighbours(&pipeline, &train_lines, &labels, shards);
            Frontend::spawn(pipeline.clone(), fitted, shards, serve).expect("spawns")
        };
        appends_and_snapshots_race_scores(spawn, &lines);
    }
}

fn appends_and_snapshots_race_scores(spawn: impl Fn(ServeConfig) -> Frontend, lines: &[String]) {
    let bursts: Vec<(Vec<String>, Vec<bool>)> = (0..4 * stress_factor())
        .map(|r| {
            let start = (r * 7) % (lines.len() - 6);
            let burst: Vec<String> = lines[start..start + 6].to_vec();
            let labels: Vec<bool> = (0..6).map(|j| (r + j).is_multiple_of(2)).collect();
            (burst, labels)
        })
        .collect();

    // Quiet comparator: the same append history, no racing traffic.
    let comparator = spawn(ServeConfig::default());
    for (burst, burst_labels) in &bursts {
        comparator
            .append(burst, burst_labels)
            .expect("quiet append");
    }
    let want: Vec<Vec<f32>> = comparator.score_batch(lines).expect("comparator scores");
    comparator.shutdown();

    let service = spawn(tiny_queue());

    // Writers and readers on the same barrier: appends mutate the
    // indexes and bump the state epoch while producers stream scores
    // and a snapshotter captures — every capture must be a single
    // epoch or a typed race, and nobody may deadlock on the tiny
    // queue.
    let barrier = Barrier::new(PRODUCERS + 2);
    let done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for p in 0..PRODUCERS {
            let client = service.client();
            let barrier = &barrier;
            let quota = LINES_PER_PRODUCER * stress_factor();
            handles.push(scope.spawn(move || {
                barrier.wait();
                let mut seen = 0usize;
                let mut i = p * 13 % lines.len();
                while seen < quota {
                    let batch: Vec<String> = (0..3)
                        .map(|j| lines[(i + j) % lines.len()].clone())
                        .collect();
                    let replies = client.score_batch(&batch).expect("service alive");
                    assert_eq!(replies.len(), batch.len(), "one reply per line");
                    for verdict in &replies {
                        assert_eq!(verdict.len(), 2, "every method answers");
                    }
                    seen += replies.len();
                    i = (i + 3) % lines.len();
                }
                seen
            }));
        }
        let appender = scope.spawn(|| {
            barrier.wait();
            for (burst, burst_labels) in &bursts {
                let absorbed = service.append(burst, burst_labels).expect("racing append");
                assert_eq!(absorbed, 2, "both neighbour indexes absorb");
            }
            done.store(true, Ordering::Release);
        });
        let snapshotter = scope.spawn(|| {
            barrier.wait();
            let (mut clean, mut raced) = (0usize, 0usize);
            loop {
                let finished = done.load(Ordering::Acquire);
                match service.snapshot() {
                    Ok(_) => clean += 1,
                    Err(ServeError::SnapshotRace { before, after }) => {
                        assert!(after > before, "race implies an advancing epoch");
                        raced += 1;
                    }
                    Err(other) => panic!("snapshot failed with a non-race error: {other}"),
                }
                if finished {
                    break;
                }
            }
            (clean, raced)
        });
        let mut total = 0usize;
        for handle in handles {
            total += handle.join().expect("producer survived");
        }
        appender.join().expect("appender survived");
        let (clean, _raced) = snapshotter.join().expect("snapshotter survived");
        assert!(total >= PRODUCERS * LINES_PER_PRODUCER * stress_factor());
        // The loop's last capture runs after the final append, so a
        // consistent snapshot is guaranteed at least once.
        assert!(clean >= 1, "no consistent snapshot amid racing appends");
    });

    // Converged: once the appends have all landed, the racy service is
    // the quiet comparator, bit for bit.
    let got: Vec<Vec<f32>> = service.score_batch(lines).expect("post-race scores");
    assert_eq!(
        got, want,
        "append-racing-score history diverged from quiet appends"
    );
    assert_eq!(service.state_epoch(), bursts.len() as u64);
    service.shutdown();
}

#[test]
fn shutdown_then_submit_reports_closed() {
    let (pipeline, train_lines, labels, lines) = service_fixture();
    for shards in SHARD_COUNTS {
        let fitted = fit_neighbours(&pipeline, &train_lines, &labels, shards);
        let service = Frontend::spawn(pipeline.clone(), fitted, shards, ServeConfig::default())
            .expect("spawns");
        let client = service.client();
        assert!(client.score_line(&lines[0]).is_ok());
        service.shutdown();
        assert_eq!(
            client.score_line(&lines[0]).unwrap_err(),
            serve::ServeError::Closed
        );
    }
}
