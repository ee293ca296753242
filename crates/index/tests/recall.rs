//! Approximate HNSW search keeps high recall against the exact
//! backend: as a property on random Gaussian embeddings, and at serving
//! scale on cluster-structured ones.

use index::{ExactIndex, HnswIndex, HnswParams, ShardedIndex, ShardedParams, VectorIndex};
use linalg::rng::{clustered_around, randn};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

proptest! {
    /// recall@k of HNSW vs exact stays ≥ 0.9 across candidate-set
    /// sizes, dimensionalities, and k — on *unstructured* Gaussian
    /// data, the hardest case for a navigable-small-world graph
    /// (production command-line embeddings cluster far more tightly).
    #[test]
    fn hnsw_recall_at_k_is_at_least_090(
        seed in 0u64..1_000,
        n in 50usize..400,
        dim in 4usize..24,
        k in 1usize..6,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let data = randn(&mut rng, n, dim, 1.0);
        let queries = randn(&mut rng, 12, dim, 1.0);
        let exact = ExactIndex::build(data.clone());
        let hnsw = HnswIndex::build(data, HnswParams::default());
        let mut found = 0usize;
        let mut wanted = 0usize;
        for r in 0..queries.rows() {
            let q = queries.row(r);
            let want = exact.query(q, k);
            let got = hnsw.query(q, k);
            prop_assert_eq!(got.len(), want.len());
            let got_ids: Vec<usize> = got.iter().map(|nb| nb.id).collect();
            wanted += want.len();
            found += want.iter().filter(|nb| got_ids.contains(&nb.id)).count();
        }
        let recall = found as f64 / wanted as f64;
        prop_assert!(
            recall >= 0.9,
            "recall@{} = {:.3} ({}/{}) at n={} dim={}",
            k, recall, found, wanted, n, dim
        );
    }
}

/// The measurement `HnswParams::default()` was tuned on: 10 000 × 64
/// cluster-structured rows. One graph needs its full default beam for
/// recall@1 ≥ 0.99; a 4-way partition holds the same tier at a beam
/// of 8 per shard — each shard only has to find its *local* top-1 in a
/// graph a quarter the size, and four entry points cannot all miss.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "serving scale: runs in the release fidelity job"
)]
fn hnsw_recall_at_1_is_at_least_099_at_serving_scale() {
    let mut rng = StdRng::seed_from_u64(17);
    let centers = randn(&mut rng, 250, 64, 1.0);
    let data = clustered_around(&mut rng, &centers, 10_000, 0.25);
    let queries = clustered_around(&mut rng, &centers, 256, 0.25);
    let truth = ExactIndex::build(data.clone()).query_batch(&queries, 1);
    let single = HnswIndex::build(data.clone(), HnswParams::default());
    let per_shard = HnswParams::default().with_ef_search(8);
    let sharded = ShardedIndex::build(data, ShardedParams::hnsw(4, per_shard));
    for (name, idx) in [
        ("hnsw", &single as &dyn VectorIndex),
        ("4-shard hnsw, ef_search 8", &sharded),
    ] {
        let hits = truth
            .iter()
            .zip(idx.query_batch(&queries, 1))
            .filter(|(want, got)| got.first().map(|n| n.id) == Some(want[0].id))
            .count();
        assert!(
            hits as f64 >= 0.99 * truth.len() as f64,
            "{name}: recall@1 {hits}/{}",
            truth.len()
        );
    }
}
