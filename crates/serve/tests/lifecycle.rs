//! The online detector lifecycle's keystone claims, pinned
//! deterministically:
//!
//! * a refit racing live score traffic converges to verdicts
//!   **bit-identical** to a stop-the-world refit — every in-flight
//!   micro-batch completes on exactly one epoch (old or new, never a
//!   torn mix), and exactly one verdict comes back per submitted
//!   line;
//! * the append-count trigger arms a pending refit in manual mode and
//!   actually runs one in background mode;
//! * the shared [`VerdictCache`] epoch invalidates on refit swaps
//!   exactly as it does on appends;
//! * a [`ServiceSnapshot`] taken mid-refit is atomic: one epoch or a
//!   typed [`ServeError::SnapshotRace`], never a mixed capture;
//! * the sharded router's refit path keeps bit-parity with the
//!   unsharded service's.
//!
//! `SERVE_STRESS_ITERS=N` multiplies the racing iteration counts for
//! the release-mode CI stress job.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use cmdline_ids::embed::Pooling;
use cmdline_ids::engine::{EmbeddingStore, FittedEngine, IndexConfig, ScoringEngine};
use cmdline_ids::pipeline::{IdsPipeline, PipelineConfig};
use corpus::dedup_records;
use ids_rules::RuleIds;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serve::{DriftConfig, Frontend, LifecycleConfig, RefitSource, ServeConfig, ServeError};

use anomaly::{PcaMethod, RetrievalMethod, VanillaKnnMethod};

const PRODUCERS: usize = 6;
const LINES_PER_PRODUCER: usize = 24;

/// Iteration multiplier for the CI stress job (`SERVE_STRESS_ITERS=8`
/// turns the race windows from smoke-sized into soak-sized).
fn stress_factor() -> usize {
    std::env::var("SERVE_STRESS_ITERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&f| f >= 1)
        .unwrap_or(1)
}

fn fixture() -> (IdsPipeline, Vec<String>, Vec<bool>, Vec<String>) {
    let mut config = PipelineConfig::fast();
    config.train_size = 500;
    config.test_size = 200;
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
    let train: Vec<String> = dataset.train.iter().map(|r| r.line.clone()).collect();
    let test: Vec<String> = dedup_records(&dataset.test)
        .iter()
        .map(|r| r.line.clone())
        .collect();
    (pipeline, train, labels, test)
}

/// PCA between the two neighbour methods: the refittable resident is
/// the method whose verdicts actually move across an epoch swap, so a
/// torn micro-batch would be visible in its slot.
fn fit(
    pipeline: &IdsPipeline,
    train_lines: &[String],
    labels: &[bool],
    index: IndexConfig,
) -> FittedEngine {
    let store = EmbeddingStore::new(pipeline);
    let refs: Vec<&str> = train_lines.iter().map(String::as_str).collect();
    let train = store.view(&refs, Pooling::Mean);
    ScoringEngine::new()
        .with_index_config(index)
        .register(Box::new(RetrievalMethod::new(2)))
        .register(Box::new(PcaMethod::new(0.95)))
        .register(Box::new(VanillaKnnMethod::new(3)))
        .fit(&train, labels)
        .expect("detector set fits")
}

/// Tiny queue + several workers: maximal interleaving pressure on the
/// epoch swap, same shape the concurrency suite uses.
fn racy_config() -> ServeConfig {
    ServeConfig {
        queue_capacity: 4,
        max_batch: 16,
        batch_window: Duration::from_micros(500),
        workers: 3,
    }
}

/// Drift config whose triggers can never fire on their own: the test
/// drives refits explicitly.
fn triggers_off() -> DriftConfig {
    DriftConfig {
        window: 64,
        bins: 4,
        threshold: 1e9,
        append_threshold: 0,
    }
}

fn manual_lifecycle(train: &[String], labels: &[bool]) -> LifecycleConfig {
    let source =
        RefitSource::new(train.to_vec(), labels.to_vec()).expect("aligned non-empty source");
    LifecycleConfig::new(source)
        .with_drift(triggers_off())
        .manual()
}

fn burst(test: &[String]) -> (Vec<String>, Vec<bool>) {
    let lines: Vec<String> = test.iter().take(12).cloned().collect();
    let labels = vec![
        true, false, true, true, false, false, true, false, false, true, false, true,
    ];
    (lines, labels)
}

#[test]
fn refit_under_load_is_bit_identical_to_stop_the_world() {
    let (pipeline, train, labels, test) = fixture();
    let (burst_lines, burst_labels) = burst(&test);

    // Stop-the-world comparator: append quietly, refit quietly, score
    // quietly. `pre`/`post` are the only two verdict vectors any line
    // may ever produce — one per epoch.
    let quiet = Frontend::spawn_with_lifecycle(
        pipeline.clone(),
        fit(&pipeline, &train, &labels, IndexConfig::Exact),
        1,
        racy_config(),
        manual_lifecycle(&train, &labels),
    )
    .expect("comparator spawns");
    quiet
        .append(&burst_lines, &burst_labels)
        .expect("comparator append");
    assert_eq!(quiet.engine_epoch(), 0);
    let pre: HashMap<&str, Vec<f32>> = test
        .iter()
        .map(|l| (l.as_str(), quiet.score_line(l).expect("pre-refit score")))
        .collect();
    assert_eq!(quiet.refit().expect("quiet refit"), 1);
    assert_eq!(quiet.engine_epoch(), 1);
    let post: HashMap<&str, Vec<f32>> = test
        .iter()
        .map(|l| (l.as_str(), quiet.score_line(l).expect("post-refit score")))
        .collect();
    assert_ne!(
        pre, post,
        "refitting PCA over baseline ∪ appended burst must move its verdicts"
    );
    let stats = quiet.lifecycle_stats().expect("lifecycle attached");
    assert_eq!(stats.refits, 1);
    assert_eq!(stats.appends_logged, burst_lines.len());
    assert_eq!(stats.appends_since_refit, 0);
    assert!(!stats.refit_pending);
    quiet.shutdown();

    // Under test: identical history, but the refit races PRODUCERS
    // threads of live score traffic through a 4-slot queue.
    let racy = Frontend::spawn_with_lifecycle(
        pipeline.clone(),
        fit(&pipeline, &train, &labels, IndexConfig::Exact),
        1,
        racy_config(),
        manual_lifecycle(&train, &labels),
    )
    .expect("racy service spawns");
    racy.append(&burst_lines, &burst_labels)
        .expect("racy append");

    let rounds = stress_factor();
    let barrier = Arc::new(Barrier::new(PRODUCERS + 1));
    let mut replies = 0usize;
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for p in 0..PRODUCERS {
            let client = racy.client();
            let barrier = barrier.clone();
            let (test, pre, post) = (&test, &pre, &post);
            handles.push(scope.spawn(move || {
                let check = |line: &str, got: &Vec<f32>| {
                    assert!(
                        got == &pre[line] || got == &post[line],
                        "torn verdict for {line:?}: {got:?} is neither the \
                         epoch-0 nor the epoch-1 vector"
                    );
                };
                barrier.wait();
                let mut seen = 0usize;
                for _ in 0..rounds {
                    let mine: Vec<String> = test
                        .iter()
                        .skip(p)
                        .step_by(PRODUCERS)
                        .take(LINES_PER_PRODUCER)
                        .cloned()
                        .collect();
                    if p % 2 == 0 {
                        for chunk in mine.chunks(3) {
                            let got = client.score_batch(chunk).expect("batch scored");
                            assert_eq!(got.len(), chunk.len(), "dropped or duplicated verdicts");
                            for (line, verdict) in chunk.iter().zip(&got) {
                                check(line, verdict);
                            }
                            seen += got.len();
                        }
                    } else {
                        for line in &mine {
                            let got = client.score_line(line).expect("line scored");
                            check(line, &got);
                            seen += 1;
                        }
                    }
                }
                seen
            }));
        }
        barrier.wait();
        assert_eq!(racy.refit().expect("refit under load"), 1);
        for handle in handles {
            replies += handle.join().expect("producer survives the swap");
        }
    });

    // Exactly one verdict per submitted line, across every epoch.
    let expected: usize = (0..PRODUCERS)
        .map(|p| {
            test.iter()
                .skip(p)
                .step_by(PRODUCERS)
                .take(LINES_PER_PRODUCER)
                .count()
                * rounds
        })
        .sum();
    assert_eq!(
        replies, expected,
        "a submitted line was dropped or double-scored"
    );
    assert_eq!(racy.engine_epoch(), 1);
    assert_eq!(racy.lifecycle_stats().expect("stats").refits, 1);

    // Converged: post-swap the racy service is the stop-the-world one.
    for line in &test {
        let got = racy.score_line(line).expect("post-race score");
        assert_eq!(
            got,
            post[line.as_str()],
            "refit-under-load diverged from stop-the-world for {line:?}"
        );
    }
    racy.shutdown();
}

#[test]
fn append_threshold_arms_manual_refits() {
    let (pipeline, train, labels, test) = fixture();
    let mut drift = triggers_off();
    drift.append_threshold = 8;
    let source = RefitSource::new(train.clone(), labels.clone()).expect("source");
    let service = Frontend::spawn_with_lifecycle(
        pipeline.clone(),
        fit(&pipeline, &train, &labels, IndexConfig::Exact),
        1,
        ServeConfig::default(),
        LifecycleConfig::new(source).with_drift(drift).manual(),
    )
    .expect("service spawns");

    let (burst_lines, burst_labels) = burst(&test);
    service
        .append(&burst_lines[..4], &burst_labels[..4])
        .expect("first append");
    let stats = service.lifecycle_stats().expect("stats");
    assert!(
        !stats.refit_pending,
        "4 < 8 appends must not arm the trigger"
    );
    assert_eq!(stats.appends_since_refit, 4);

    service
        .append(&burst_lines[4..8], &burst_labels[4..8])
        .expect("second append");
    let stats = service.lifecycle_stats().expect("stats");
    assert!(stats.refit_pending, "8 >= 8 appends must arm the trigger");
    // Manual mode: armed is not run.
    assert_eq!(service.engine_epoch(), 0);
    assert_eq!(stats.refits, 0);

    assert_eq!(service.refit().expect("manual refit"), 1);
    let stats = service.lifecycle_stats().expect("stats");
    assert_eq!(stats.refits, 1);
    assert_eq!(stats.appends_since_refit, 0);
    assert!(!stats.refit_pending);
    service.shutdown();
}

#[test]
fn background_refit_fires_on_append_threshold_and_matches_manual() {
    let (pipeline, train, labels, test) = fixture();
    let (burst_lines, burst_labels) = burst(&test);
    let mut drift = triggers_off();
    drift.append_threshold = burst_lines.len();

    // Comparator: same appends, explicit refit.
    let manual = Frontend::spawn_with_lifecycle(
        pipeline.clone(),
        fit(&pipeline, &train, &labels, IndexConfig::Exact),
        1,
        ServeConfig::default(),
        manual_lifecycle(&train, &labels),
    )
    .expect("manual comparator spawns");
    manual
        .append(&burst_lines, &burst_labels)
        .expect("comparator append");
    manual.refit().expect("comparator refit");
    let want: Vec<Vec<f32>> = manual.score_batch(&test).expect("comparator scores");
    manual.shutdown();

    // Under test: the background worker must notice the armed trigger
    // and swap the new epoch in by itself.
    let source = RefitSource::new(train.clone(), labels.clone()).expect("source");
    let background = Frontend::spawn_with_lifecycle(
        pipeline.clone(),
        fit(&pipeline, &train, &labels, IndexConfig::Exact),
        1,
        ServeConfig::default(),
        LifecycleConfig::new(source).with_drift(drift),
    )
    .expect("background service spawns");
    background
        .append(&burst_lines, &burst_labels)
        .expect("append arms the count trigger");

    let deadline = Instant::now() + Duration::from_secs(30);
    while background.engine_epoch() == 0 {
        assert!(
            Instant::now() < deadline,
            "background refit worker never answered the armed trigger"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    let stats = background.lifecycle_stats().expect("stats");
    assert!(stats.refits >= 1);
    assert_eq!(stats.appends_since_refit, 0);

    let got = background.score_batch(&test).expect("background scores");
    assert_eq!(
        got, want,
        "background refit must match the manual one bit for bit"
    );
    background.shutdown();
}

#[test]
fn refit_swap_invalidates_the_shared_verdict_cache() {
    let (pipeline, train, labels, test) = fixture();
    let front = Frontend::spawn_with_lifecycle(
        pipeline.clone(),
        fit(&pipeline, &train, &labels, IndexConfig::Exact),
        1,
        ServeConfig::default(),
        manual_lifecycle(&train, &labels),
    )
    .expect("front spawns")
    .with_cache(64)
    .expect("cache attaches");

    let (burst_lines, burst_labels) = burst(&test);
    let line = test[0].as_str();
    let v0 = front.score_line(line).expect("first score");
    let v1 = front.score_line(line).expect("second score");
    assert_eq!(v0, v1);
    let s = front.cache().expect("cache").stats();
    assert_eq!((s.hits, s.misses), (1, 1), "second lookup must hit");

    // The append invalidates (its own epoch bump, the pre-existing
    // behaviour, now routed through the shared counter) and leaves a
    // non-empty log for the refit to consume.
    front.append(&burst_lines, &burst_labels).expect("append");
    let v_appended = front.score_line(line).expect("post-append score");
    assert_eq!(front.cache().expect("cache").stats().misses, 2);

    // The refit swap alone — no interleaving append — must advance
    // the same counter: the epoch-0 verdict cached above cannot
    // survive into epoch 1.
    let cache_epoch = front.cache().expect("cache").epoch();
    assert_eq!(front.refit().expect("refit"), 1);
    assert!(
        front.cache().expect("cache").epoch() > cache_epoch,
        "refit swap must advance the shared invalidation epoch"
    );
    let v2 = front.score_line(line).expect("post-refit score");
    let s = front.cache().expect("cache").stats();
    assert_eq!(
        (s.hits, s.misses),
        (1, 3),
        "post-refit lookup must miss the stale epoch"
    );
    assert_ne!(v2, v_appended, "the fresh verdict comes from the new epoch");

    // And the fresh verdict is cached under the new epoch.
    let v3 = front.score_line(line).expect("cached post-refit score");
    assert_eq!(v3, v2);
    assert_eq!(front.cache().expect("cache").stats().hits, 2);
    front.shutdown();
}

#[test]
fn snapshot_racing_refits_is_atomic_or_typed() {
    let (pipeline, train, labels, test) = fixture();
    let (burst_lines, burst_labels) = burst(&test);
    let service = Frontend::spawn_with_lifecycle(
        pipeline.clone(),
        fit(&pipeline, &train, &labels, IndexConfig::Exact),
        1,
        ServeConfig::default(),
        manual_lifecycle(&train, &labels),
    )
    .expect("service spawns");

    let rounds = 12 * stress_factor();
    let done = AtomicBool::new(false);
    let (mut clean, mut raced) = (0usize, 0usize);
    std::thread::scope(|scope| {
        let writer = scope.spawn(|| {
            for _ in 0..rounds {
                service
                    .append(&burst_lines, &burst_labels)
                    .expect("writer append");
                service.refit().expect("writer refit");
            }
            done.store(true, Ordering::Release);
        });
        loop {
            let finished = done.load(Ordering::Acquire);
            match service.snapshot() {
                Ok((snapshot, skipped)) => {
                    clean += 1;
                    assert_eq!(skipped, ["pca"], "resident pca refits from data");
                    assert_eq!(snapshot.len(), 2, "both neighbour methods captured");
                }
                Err(ServeError::SnapshotRace { before, after }) => {
                    raced += 1;
                    assert!(
                        after > before,
                        "a snapshot race must come from an advancing epoch"
                    );
                }
                Err(other) => panic!("snapshot failed with a non-race error: {other}"),
            }
            if finished {
                break;
            }
        }
        writer.join().expect("writer survives");
    });
    // The final round ran after the writer finished, so a consistent
    // capture is guaranteed at least once.
    assert!(
        clean >= 1,
        "no consistent snapshot in {} attempts",
        clean + raced
    );
    assert_eq!(service.engine_epoch(), rounds as u64);
    service.shutdown();
}

#[test]
fn router_refit_matches_the_unsharded_service_refit() {
    let (pipeline, train, labels, test) = fixture();
    let (burst_lines, burst_labels) = burst(&test);

    let single = Frontend::spawn_with_lifecycle(
        pipeline.clone(),
        fit(&pipeline, &train, &labels, IndexConfig::Exact),
        1,
        ServeConfig::default(),
        manual_lifecycle(&train, &labels),
    )
    .expect("single front spawns");
    let sharded = Frontend::spawn_with_lifecycle(
        pipeline.clone(),
        fit(
            &pipeline,
            &train,
            &labels,
            IndexConfig::Exact.with_shards(3),
        ),
        3,
        ServeConfig::default(),
        manual_lifecycle(&train, &labels),
    )
    .expect("sharded front spawns");

    for front in [&single, &sharded] {
        front.append(&burst_lines, &burst_labels).expect("append");
        assert_eq!(front.refit().expect("refit"), 1);
        assert_eq!(front.engine_epoch(), 1);
        let stats = front.lifecycle_stats().expect("stats");
        assert_eq!(stats.refits, 1);
        assert_eq!(stats.appends_since_refit, 0);
    }
    let want = single.score_batch(&test).expect("single scores");
    let got = sharded.score_batch(&test).expect("sharded scores");
    assert_eq!(
        got, want,
        "the router's refit path must keep scatter/merge bit-parity"
    );
    single.shutdown();
    sharded.shutdown();
}
