//! The shard-aware serving stack's keystone claims, end to end:
//!
//! * a [`ShardRouter`] over exact shards returns verdicts
//!   **bit-identical** to the same service with `shards == 1` —
//!   scatter, per-shard top-k, k-way merge and all — for every method, with
//!   resident (non-partitioned) detectors interleaved in registration
//!   order;
//! * live supervision routed to owning shards keeps that parity;
//! * the router's snapshot (manifest + N shard frames) cold-starts a
//!   new router with **zero** index construction passes and identical
//!   verdicts.

use cmdline_ids::embed::Pooling;
use cmdline_ids::engine::{EmbeddingStore, FittedEngine, IndexConfig, ScoringEngine};
use cmdline_ids::pipeline::{IdsPipeline, PipelineConfig};
use corpus::dedup_records;
use ids_rules::RuleIds;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serve::{Frontend, RouterConfig, ServeConfig, ServeError, ShardRouter};

use anomaly::{PcaMethod, RetrievalMethod, VanillaKnnMethod};

const SHARDS: usize = 3;

fn fixture() -> (IdsPipeline, Vec<String>, Vec<bool>, Vec<String>) {
    let mut config = PipelineConfig::fast();
    config.train_size = 600;
    config.test_size = 250;
    config.attack_prob = 0.25;
    let mut rng = StdRng::seed_from_u64(777);
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

/// Fits the three-method set (two partitionable neighbour methods
/// around a resident PCA, so plan-order interleaving is exercised)
/// over the given index config.
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

#[test]
fn sharded_router_is_bit_identical_to_the_unsharded_service() {
    let (pipeline, train_lines, labels, test_lines) = fixture();

    // Reference: the single resident service over unsharded exact.
    let service = Frontend::spawn(
        pipeline.clone(),
        fit(&pipeline, &train_lines, &labels, IndexConfig::Exact),
        1,
        ServeConfig::default(),
    )
    .expect("reference service spawns");
    let want: Vec<Vec<f32>> = service
        .score_batch(&test_lines)
        .expect("reference service scores");

    // Under test: the shard router over a 3-way exact partition.
    let sharded = fit(
        &pipeline,
        &train_lines,
        &labels,
        IndexConfig::Exact.with_shards(SHARDS),
    );
    let router = ShardRouter::spawn(pipeline.clone(), sharded, RouterConfig::with_shards(SHARDS))
        .expect("router spawns");
    assert_eq!(router.method_names(), ["retrieval", "pca", "vanilla-knn"]);

    // The partition actually spread exemplars over shards.
    let counts = router
        .shard_row_counts("vanilla-knn")
        .expect("vanilla-knn is partitioned");
    assert_eq!(counts.len(), SHARDS);
    assert_eq!(counts.iter().sum::<usize>(), train_lines.len());
    assert!(
        counts.iter().filter(|&&c| c > 0).count() >= 2,
        "hash partitioner left everything on one shard: {counts:?}"
    );
    assert!(router.shard_row_counts("pca").is_none(), "pca is resident");

    let got = router.score_batch(&test_lines).expect("router scores");
    assert_eq!(got, want, "scatter/merge verdicts must be bit-identical");

    // Live supervision keeps parity: same batch into both, rescore.
    let burst: Vec<String> = test_lines.iter().take(12).cloned().collect();
    let burst_labels = vec![
        true, false, true, true, false, false, true, false, false, true, false, true,
    ];
    let absorbed_service = service
        .append(&burst, &burst_labels)
        .expect("service append");
    let absorbed_router = router.append(&burst, &burst_labels).expect("router append");
    assert_eq!(absorbed_router, absorbed_service);
    let want_after: Vec<Vec<f32>> = service.score_batch(&test_lines).expect("service rescores");
    let got_after = router.score_batch(&test_lines).expect("router rescores");
    assert_eq!(got_after, want_after, "parity must survive routed appends");
    assert_ne!(want_after, want, "the appended exemplars must matter");

    // The stats counters move like a service's.
    let stats = router.stats();
    assert!(stats.lines >= 2 * test_lines.len());
    assert!(stats.batches >= 2);

    service.shutdown();
    router.shutdown();
}

#[test]
fn router_snapshot_cold_starts_all_shards_without_construction() {
    let (pipeline, train_lines, labels, test_lines) = fixture();
    // HNSW shards: the backend where skipping construction is the
    // whole point of persistence.
    let engine = fit(
        &pipeline,
        &train_lines,
        &labels,
        IndexConfig::hnsw().with_shards(SHARDS),
    );
    let router = ShardRouter::spawn(pipeline.clone(), engine, RouterConfig::with_shards(SHARDS))
        .expect("router spawns");
    let want: Vec<Vec<f32>> = test_lines
        .iter()
        .take(40)
        .map(|l| router.score_line(l).expect("warm router scores"))
        .collect();

    let (snapshot, skipped) = router.snapshot().expect("no appends in flight");
    assert_eq!(snapshot.len(), 2, "both neighbour methods captured");
    assert_eq!(skipped, ["pca"], "resident pca refits from data");
    let bytes = snapshot.to_bytes();
    router.shutdown();

    // Cold start: decode → restore (adopting every shard graph) →
    // re-split across fresh pools. Not a single construction pass.
    let passes = index::construction_passes();
    let restored = serve::ServiceSnapshot::from_bytes(&bytes)
        .expect("snapshot decodes")
        .restore();
    let cold = ShardRouter::spawn(pipeline, restored, RouterConfig::with_shards(SHARDS))
        .expect("cold router spawns");
    assert_eq!(
        index::construction_passes(),
        passes,
        "cold start must adopt all {SHARDS} shard graphs, not rebuild them"
    );

    // PCA was skipped, so the cold verdict vectors are the two
    // neighbour methods — in the original registration order.
    assert_eq!(cold.method_names(), ["retrieval", "vanilla-knn"]);
    for (line, want_scores) in test_lines.iter().take(40).zip(&want) {
        let got = cold.score_line(line).expect("cold router scores");
        assert_eq!(got[0], want_scores[0], "retrieval drifted for {line:?}");
        assert_eq!(got[1], want_scores[2], "vanilla-knn drifted for {line:?}");
    }

    // The restored partition keeps absorbing supervision.
    let absorbed = cold
        .append(&test_lines[..4], &[true, true, false, true])
        .expect("cold append");
    assert_eq!(absorbed, 2);
    cold.shutdown();
}

#[test]
fn quantized_shards_serve_identically_to_the_quantized_unsharded_service() {
    // The quantization knob threaded through the serving stack: an
    // i8-sharded router must reproduce the i8 unsharded service bit
    // for bit (both score against the same quantized codes and
    // f32-norm cache; scatter/merge adds nothing), and routed appends
    // must quantize into the owning shard exactly as the unsharded
    // index would.
    let (pipeline, train_lines, labels, test_lines) = fixture();
    let quant = cmdline_ids::engine::Quantization::I8;
    let service = Frontend::spawn(
        pipeline.clone(),
        fit(
            &pipeline,
            &train_lines,
            &labels,
            IndexConfig::Exact.with_quant(quant),
        ),
        1,
        ServeConfig::default(),
    )
    .expect("quantized reference service spawns");
    let want: Vec<Vec<f32>> = service.score_batch(&test_lines).expect("service scores");

    let sharded = fit(
        &pipeline,
        &train_lines,
        &labels,
        IndexConfig::Exact.with_quant(quant).with_shards(SHARDS),
    );
    let router = ShardRouter::spawn(pipeline, sharded, RouterConfig::with_shards(SHARDS))
        .expect("quantized router spawns");
    let got = router.score_batch(&test_lines).expect("router scores");
    assert_eq!(got, want, "i8 scatter/merge verdicts must be bit-identical");

    // Appends quantize on insert along both paths; parity must hold
    // afterwards too.
    let burst: Vec<String> = test_lines.iter().take(8).cloned().collect();
    let burst_labels = vec![true, false, true, false, true, true, false, true];
    service
        .append(&burst, &burst_labels)
        .expect("service append");
    router.append(&burst, &burst_labels).expect("router append");
    let want_after: Vec<Vec<f32>> = service.score_batch(&test_lines).expect("service rescores");
    let got_after = router.score_batch(&test_lines).expect("router rescores");
    assert_eq!(
        got_after, want_after,
        "parity must survive quantized appends"
    );

    // The quantized partition snapshots and restores with its format —
    // and the frame says so up front: quantized detector payloads bump
    // the service-snapshot version to 2, so a pre-quantization reader
    // fails with a typed version error instead of a mid-payload tag
    // error.
    let (snapshot, _) = router.snapshot().expect("no appends in flight");
    let bytes = snapshot.to_bytes();
    assert_eq!(
        u32::from_le_bytes(bytes[4..8].try_into().unwrap()),
        2,
        "quantized payloads must bump the service frame version"
    );
    let restored = serve::ServiceSnapshot::from_bytes(&bytes)
        .expect("quantized snapshot decodes")
        .restore();
    for det in restored.detectors() {
        let state = cmdline_ids::engine::DetectorState::capture(det.as_ref())
            .expect("neighbour methods capture");
        let split = state.split_shards().expect("still sharded");
        assert_eq!(split.quant, quant, "{}", det.name());
    }
    service.shutdown();
    router.shutdown();
}

#[test]
fn live_reshard_is_bit_identical_to_stop_the_world() {
    const NEW_SHARDS: usize = 5;
    const PRODUCERS: usize = 4;
    let (pipeline, train_lines, labels, test_lines) = fixture();
    let burst: Vec<String> = test_lines.iter().rev().take(10).cloned().collect();
    let burst_labels = vec![
        true, false, false, true, true, false, true, false, true, false,
    ];

    // Stop-the-world comparator: quiesce, split 3 → 5, then append.
    let quiet = ShardRouter::spawn(
        pipeline.clone(),
        fit(
            &pipeline,
            &train_lines,
            &labels,
            IndexConfig::Exact.with_shards(SHARDS),
        ),
        RouterConfig::with_shards(SHARDS),
    )
    .expect("comparator router spawns");
    assert_eq!(quiet.shards(), SHARDS);
    quiet.reshard(NEW_SHARDS).expect("quiet split");
    assert_eq!(quiet.shards(), NEW_SHARDS);
    quiet.append(&burst, &burst_labels).expect("quiet append");
    let want: Vec<Vec<f32>> = quiet.score_batch(&test_lines).expect("comparator scores");
    quiet.shutdown();

    // Under test: the same split races live score traffic and an
    // append submitted mid-split (appends serialize with the split on
    // the ownership lock; whichever order they land in, exact
    // backends are partition-invariant and global exemplar ids are
    // dense by arrival, so the converged state is identical).
    let live = ShardRouter::spawn(
        pipeline.clone(),
        fit(
            &pipeline,
            &train_lines,
            &labels,
            IndexConfig::Exact.with_shards(SHARDS),
        ),
        RouterConfig::with_shards(SHARDS),
    )
    .expect("live router spawns");
    let barrier = std::sync::Barrier::new(PRODUCERS + 2);
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for p in 0..PRODUCERS {
            let client = live.client();
            let (barrier, test_lines) = (&barrier, &test_lines);
            handles.push(scope.spawn(move || {
                let mine: Vec<String> = test_lines
                    .iter()
                    .skip(p)
                    .step_by(PRODUCERS)
                    .take(40)
                    .cloned()
                    .collect();
                barrier.wait();
                let mut seen = 0usize;
                for chunk in mine.chunks(4) {
                    let replies = client.score_batch(chunk).expect("router alive mid-split");
                    assert_eq!(replies.len(), chunk.len(), "one reply per line");
                    for verdict in &replies {
                        assert_eq!(verdict.len(), 3, "every method answers mid-split");
                    }
                    seen += replies.len();
                }
                seen
            }));
        }
        let appender = scope.spawn(|| {
            barrier.wait();
            live.append(&burst, &burst_labels)
                .expect("append lands mid-split")
        });
        barrier.wait();
        live.reshard(NEW_SHARDS).expect("live split");
        let mut total = 0usize;
        for handle in handles {
            total += handle.join().expect("producer survived the split");
        }
        let expected: usize = (0..PRODUCERS)
            .map(|p| {
                test_lines
                    .iter()
                    .skip(p)
                    .step_by(PRODUCERS)
                    .take(40)
                    .count()
            })
            .sum();
        assert_eq!(total, expected, "a line was dropped or double-scored");
        assert_eq!(appender.join().expect("appender survived"), 2);
    });
    assert_eq!(live.shards(), NEW_SHARDS);

    // The new partition actually owns every exemplar — baseline and
    // the mid-split burst — across 5 shards.
    let counts = live
        .shard_row_counts("vanilla-knn")
        .expect("vanilla-knn is partitioned");
    assert_eq!(counts.len(), NEW_SHARDS);
    assert_eq!(
        counts.iter().sum::<usize>(),
        train_lines.len() + burst.len()
    );
    assert!(
        counts.iter().filter(|&&c| c > 0).count() >= 2,
        "the re-partition left everything on one shard: {counts:?}"
    );

    // Converged: live split + racing append ≡ stop-the-world, bit for
    // bit, and the router keeps absorbing supervision afterwards.
    let got = live.score_batch(&test_lines).expect("post-split scores");
    assert_eq!(got, want, "live reshard diverged from stop-the-world");
    live.append(&test_lines[..4], &[true, false, true, false])
        .expect("post-split append");
    live.shutdown();
}

#[test]
fn reshard_rejects_zero_shards() {
    let (pipeline, train_lines, labels, _) = fixture();
    let router = ShardRouter::spawn(
        pipeline.clone(),
        fit(
            &pipeline,
            &train_lines,
            &labels,
            IndexConfig::Exact.with_shards(SHARDS),
        ),
        RouterConfig::with_shards(SHARDS),
    )
    .expect("router spawns");
    assert!(matches!(
        router.reshard(0),
        Err(ServeError::InvalidConfig(_))
    ));
    // Resharding to the current count is a no-op, not an error.
    router.reshard(SHARDS).expect("no-op reshard");
    assert_eq!(router.shards(), SHARDS);
    router.shutdown();
}

#[test]
fn shard_shape_mismatches_are_typed_errors() {
    let (pipeline, train_lines, labels, _) = fixture();
    // Unsharded fit + multi-shard router: rejected, not mis-served.
    let engine = fit(&pipeline, &train_lines, &labels, IndexConfig::Exact);
    match ShardRouter::spawn(pipeline.clone(), engine, RouterConfig::with_shards(2)) {
        Err(ServeError::InvalidConfig(why)) => {
            assert!(why.contains("with_shards"), "unhelpful message: {why}")
        }
        Err(other) => panic!("expected InvalidConfig, got {other:?}"),
        Ok(_) => panic!("router spawned over an unsharded fit"),
    }
    // Shard-count disagreement between fit and router: same.
    let engine = fit(
        &pipeline,
        &train_lines,
        &labels,
        IndexConfig::Exact.with_shards(4),
    );
    assert!(matches!(
        ShardRouter::spawn(pipeline, engine, RouterConfig::with_shards(2)),
        Err(ServeError::InvalidConfig(_))
    ));
}
