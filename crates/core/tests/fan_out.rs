//! A serving-size scoring pass spawns no threads: two neighbour
//! detectors over a 4-line micro-batch and 700 exemplars are worth far
//! less than one spawn. Counted in `linalg::par` spawns on a dedicated
//! thread (this binary's only test, so the count is exact).

use anomaly::{RetrievalMethod, VanillaKnnMethod};
use cmdline_ids::engine::{Detector, EmbeddingView, FittedEngine};
use linalg::par;
use linalg::rng::randn;
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn a_micro_batch_scores_on_the_calling_thread() {
    let mut rng = StdRng::seed_from_u64(3);
    let train = EmbeddingView::from_matrix(randn(&mut rng, 700, 32, 1.0));
    let labels: Vec<bool> = (0..700).map(|i| i % 3 == 0).collect();
    let mut detectors: Vec<Box<dyn Detector>> = vec![
        Box::new(RetrievalMethod::new(1)),
        Box::new(VanillaKnnMethod::new(3)),
    ];
    for det in &mut detectors {
        det.fit(&train, &labels).expect("fit succeeds");
    }
    let engine = FittedEngine::from_detectors(detectors);
    let batch = EmbeddingView::from_matrix(randn(&mut rng, 4, 32, 1.0));

    let (spawned, run) = std::thread::scope(|s| {
        s.spawn(|| {
            let before = par::spawned();
            let run = engine.score_each(|_| batch.clone());
            (par::spawned() - before, run)
        })
        .join()
        .expect("scoring panicked")
    });
    assert_eq!(run.outputs().len(), 2);
    assert!(run.outputs().iter().all(|m| m.scores.len() == 4));
    assert_eq!(spawned, 0);
}
