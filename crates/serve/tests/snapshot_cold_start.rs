//! Cold-start persistence: a `ServiceSnapshot` save → load round trip
//! restores the fitted neighbour detectors with their graphs adopted
//! as-is — zero construction passes (asserted via the index crate's
//! build-pass counter) — and the restored service answers
//! bit-identically to the original, then keeps absorbing supervision.

use cmdline_ids::embed::Pooling;
use cmdline_ids::engine::{EmbeddingStore, IndexConfig, ScoringEngine};
use cmdline_ids::pipeline::{IdsPipeline, PipelineConfig};
use corpus::dedup_records;
use ids_rules::RuleIds;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serve::{Frontend, ServeConfig, ServiceSnapshot};

use anomaly::{PcaMethod, RetrievalMethod, VanillaKnnMethod};

fn fixture() -> (IdsPipeline, Vec<String>, Vec<bool>, Vec<String>) {
    let mut config = PipelineConfig::fast();
    config.train_size = 600;
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
    let train: Vec<String> = dataset.train.iter().map(|r| r.line.clone()).collect();
    let test: Vec<String> = dedup_records(&dataset.test)
        .iter()
        .map(|r| r.line.clone())
        .collect();
    (pipeline, train, labels, test)
}

#[test]
fn snapshot_round_trip_skips_graph_construction_and_preserves_scores() {
    let (pipeline, train_lines, labels, test_lines) = fixture();
    let store = EmbeddingStore::new(&pipeline);
    let train = store.view_of(&train_lines, Pooling::Mean);
    let fitted = ScoringEngine::new()
        .with_index_config(IndexConfig::hnsw())
        .register(Box::new(RetrievalMethod::new(1)))
        .register(Box::new(VanillaKnnMethod::new(3)))
        .register(Box::new(PcaMethod::new(0.95)))
        .fit(&train, &labels)
        .expect("fit succeeds");

    // Capture: the two neighbour methods snapshot; PCA (which refits
    // from data in milliseconds) is reported as skipped.
    let (snapshot, skipped) = ServiceSnapshot::capture(&fitted);
    assert_eq!(snapshot.len(), 2);
    assert_eq!(skipped, ["pca"]);

    let path =
        std::env::temp_dir().join(format!("cmdline-ids-snapshot-{}.bin", std::process::id()));
    snapshot.save(&path).expect("snapshot saves");

    // Baseline verdicts from the original resident set.
    let service = Frontend::spawn(pipeline.clone(), fitted, 1, ServeConfig::default())
        .expect("service spawns");
    let want: Vec<Vec<f32>> = test_lines
        .iter()
        .map(|l| service.score_line(l).expect("original service scores"))
        .collect();
    service.shutdown();

    // Cold start: load + restore must adopt the saved HNSW graphs
    // without a single construction pass.
    let passes_before = index::construction_passes();
    let restored = ServiceSnapshot::load(&path)
        .expect("snapshot loads")
        .restore();
    assert_eq!(
        index::construction_passes(),
        passes_before,
        "cold start must skip the O(n·ef_construction) build"
    );
    std::fs::remove_file(&path).ok();

    assert_eq!(restored.method_names(), ["retrieval", "vanilla-knn"]);
    let cold = Frontend::spawn(pipeline, restored, 1, ServeConfig::default())
        .expect("cold service spawns");
    for (line, want_scores) in test_lines.iter().zip(&want) {
        let got = cold.score_line(line).expect("cold service scores");
        // The cold service dropped PCA (index 2); the neighbour
        // verdicts must be bit-identical.
        assert_eq!(&got[..], &want_scores[..2], "line {line:?}");
    }

    // The restored detectors stay live: supervision keeps flowing into
    // the adopted graphs through the incremental insert path.
    let absorbed = cold
        .append(&test_lines[..4], &[true, true, false, true])
        .expect("append succeeds");
    assert_eq!(absorbed, 2, "both neighbour methods absorb");
    let rescored = cold.score_line(&test_lines[0]).expect("still serving");
    assert!(rescored.iter().all(|s| s.is_finite()));
    cold.shutdown();
}
