//! Pins `linalg::par`'s fan-out rule by counting spawned threads —
//! no clock. Each case runs alone (a lock holds the binary's other
//! tests off) on a dedicated thread, so `par::spawned()` deltas are
//! exact.

use linalg::{par, Matrix};
use std::sync::Mutex;

static ALONE: Mutex<()> = Mutex::new(());

/// `f`'s result beside the threads the harness spawned while it ran.
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

/// Threads a call just past the threshold may use: it pays for two.
fn two_way() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(2))
}

/// Runs `f` from inside a harness worker (every chunk of a two-chunk
/// split runs it; the first result is returned).
fn from_a_worker<R: Send>(f: impl Fn() -> R + Sync) -> R {
    let mut slots = [None, None];
    par::for_each_chunk_mut(&mut slots, 1, usize::MAX, |_, chunk| {
        for slot in chunk {
            *slot = Some(f());
        }
    });
    slots[0].take().expect("first chunk ran")
}

fn pattern(rows: usize, cols: usize, seed: usize) -> Matrix {
    Matrix::from_fn(rows, cols, |r, c| {
        ((r * 31 + c * 17 + seed) % 13) as f32 * 0.37 - 2.0
    })
}

#[test]
fn a_call_from_inside_a_worker_never_spawns() {
    let (spawned, ()) = spawns(|| {
        from_a_worker(|| {
            let mut items = vec![0u8; 64];
            par::for_each_chunk_mut(&mut items, 1, usize::MAX, |first, chunk| {
                assert_eq!((first, chunk.len()), (0, 64), "nested call runs inline");
            });
        })
    });
    // Only the outer split's own second chunk.
    assert_eq!(spawned, two_way() - 1);
}

#[test]
fn matmul_splits_from_the_threshold_and_matches_inline() {
    // 2²³ multiply-adds is the threshold: 256·128·256.
    let (a, b) = (pattern(257, 128, 1), pattern(128, 256, 2));
    let (spawned, split) = spawns(|| a.matmul(&b));
    assert_eq!(spawned, two_way() - 1, "just above: one thread per 2²²");
    let (nested, inline) = spawns(|| from_a_worker(|| a.matmul(&b)));
    assert_eq!(nested, two_way() - 1, "the matmuls themselves spawn none");
    assert_eq!(split, inline, "chunking must not change a single bit");

    let below = pattern(255, 128, 1);
    assert_eq!(spawns(|| below.matmul(&b)).0, 0, "just below: inline");
}

#[test]
fn a_panicking_chunk_propagates_and_leaves_the_harness_usable() {
    // Item 0 is the caller's own chunk, item 1 the spawned worker's.
    for panicking in [0usize, 1] {
        let (spawned, (failed, items)) = spawns(|| {
            let failed = std::panic::catch_unwind(|| {
                par::for_each_chunk_mut(&mut [0u8; 2], 1, usize::MAX, |first, chunk| {
                    let owned = first..first + chunk.len();
                    assert!(!owned.contains(&panicking), "chunk failed");
                });
            });
            // The same thread, straight after: it must split again
            // (not be left marked as a worker) and cover the slice
            // exactly once. 2²³ multiply-adds pay for two threads on
            // any host, so the three units make chunks of 4 and 1.
            let mut items = vec![0usize; 5];
            par::for_each_chunk_mut(&mut items, 2, 1 << 23, |first, chunk| {
                for (i, v) in chunk.iter_mut().enumerate() {
                    *v += first + i + 1;
                }
            });
            (failed, items)
        });
        assert!(
            failed.is_err(),
            "item {panicking}'s panic reaches the caller"
        );
        assert_eq!(items, vec![1, 2, 3, 4, 5]);
        assert_eq!(spawned, 2 * (two_way() - 1), "both calls split");
    }
}
