//! The encoder's serving-size forwards spawn no threads and a batch
//! that pays for two splits once, over whole lines — pinned by
//! counting `linalg::par` spawns, not by a clock. Each case runs alone
//! on a dedicated thread so the count is exact.

use linalg::par;
use nn::{Encoder, ModelConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Mutex;

static ALONE: Mutex<()> = Mutex::new(());

fn spawns<R: Send>(f: impl FnOnce() -> R + Send) -> (usize, R) {
    let _alone = ALONE.lock().unwrap_or_else(|e| e.into_inner());
    std::thread::scope(|s| {
        s.spawn(|| {
            let before = par::spawned();
            let out = f();
            (par::spawned() - before, out)
        })
        .join()
        .expect("case panicked")
    })
}

fn tiny_encoder() -> Encoder {
    Encoder::new(ModelConfig::tiny(500), &mut StdRng::seed_from_u64(7))
}

fn line(len: usize, salt: usize) -> Vec<u32> {
    (0..len)
        .map(|t| ((t * 37 + salt * 11) % 500) as u32)
        .collect()
}

#[test]
fn one_max_len_line_forwards_on_the_calling_thread() {
    // The widest matmul of a 64-token line (64 × 128 · 128 × 32) is
    // 2¹⁸ multiply-adds, a thirty-second of what a second thread costs.
    let encoder = tiny_encoder();
    let ids = line(encoder.config().max_len, 0);
    let (spawned, hidden) = spawns(|| encoder.forward(&ids));
    assert_eq!(hidden.rows(), ids.len());
    assert_eq!(spawned, 0);
}

/// `n` lines cycling through the 8 even lengths 2..=16.
fn ragged(n: usize) -> Vec<Vec<u32>> {
    (0..n).map(|i| line(2 * (i % 8) + 2, i)).collect()
}

#[test]
fn a_micro_batch_of_short_lines_embeds_on_the_calling_thread() {
    // 32 lines in 8 equal-length buckets of 4: no bucket's attention
    // core or stacked matmul is worth a spawn, and the whole batch's
    // 7.5 M multiply-adds stay under the 2²³ a second thread costs.
    let encoder = tiny_encoder();
    let seqs = ragged(32);
    let (spawned, pooled) = spawns(|| encoder.embed_mean_batch(&seqs));
    assert_eq!(pooled.rows(), 32);
    assert_eq!(spawned, 0);
}

#[test]
fn a_batch_past_the_threshold_splits_once_over_whole_lines() {
    // 40 such lines are 9.4 M multiply-adds: two threads' worth (not
    // three), so one spawn for the whole batch wherever there is a
    // second core — none per bucket, layer or matmul inside it — and
    // every line still embeds to the bits it embeds to alone.
    let encoder = tiny_encoder();
    let seqs = ragged(40);
    let (spawned, pooled) = spawns(|| encoder.embed_mean_batch(&seqs));
    let two_way = std::thread::available_parallelism().map_or(1, |n| n.get().min(2));
    assert_eq!(spawned, two_way - 1);
    for (i, ids) in seqs.iter().enumerate() {
        assert_eq!(pooled.row(i), encoder.embed_mean(ids), "line {i}");
    }
}
