//! Both sides of the one fan-out rule on the index scans: a batch just
//! past `linalg::par`'s threshold splits in two, returns what the same
//! call returns inline, and never stacks shard threads on query-block
//! threads. Counted in spawned threads, each case alone on a dedicated
//! thread so the count is exact.

use index::{ExactIndex, HnswIndex, HnswParams, ShardedIndex, ShardedParams, VectorIndex};
use linalg::par;
use linalg::rng::randn;
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

/// Threads a call just past the threshold may use: it pays for two.
fn two_way() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(2))
}

/// Runs `f` from inside a harness worker, where every scan is inline.
fn from_a_worker<R: Send>(f: impl Fn() -> R + Sync) -> R {
    let mut slots = [None, None];
    par::for_each_chunk_mut(&mut slots, 1, usize::MAX, |_, chunk| {
        for slot in chunk {
            *slot = Some(f());
        }
    });
    slots[0].take().expect("first chunk ran")
}

#[test]
fn scans_split_from_the_threshold_and_match_inline() {
    // 2¹⁸ row·queries at 32 dims (2²³ multiply-adds) is the threshold:
    // 128 queries × 2 048 rows. One more query is just above it.
    let mut rng = StdRng::seed_from_u64(41);
    let data = randn(&mut rng, 2048, 32, 1.0);
    let queries = randn(&mut rng, 129, 32, 1.0);
    let exact = ExactIndex::build(data.clone());
    let sharded = ShardedIndex::build(data, ShardedParams::exact(4));
    let indexes: [&dyn VectorIndex; 2] = [&exact, &sharded];

    let mut answers = Vec::new();
    for index in indexes {
        let (spawned, split) = spawns(|| index.query_batch(&queries, 3));
        // Four shards still make one spawn: two chunks of two shards,
        // each shard's own batch scanned inline by its worker.
        assert_eq!(spawned, two_way() - 1);
        let (nested, inline) = spawns(|| from_a_worker(|| index.query_batch(&queries, 3)));
        assert_eq!(nested, two_way() - 1, "the scans themselves spawn none");
        assert_eq!(split, inline, "chunking must not change a single bit");

        let below = queries.row_block(0, 127);
        assert_eq!(spawns(|| index.query_batch(&below, 3)).0, 0, "just below");
        answers.push(split);
    }
    assert_eq!(answers[0], answers[1], "sharded-exact ≡ exact");
}

#[test]
fn graph_searches_split_on_their_own_work_estimate() {
    // A default-parameter beam over 700 rows evaluates every node:
    // 700 · 2¹⁰ per query, so 12 queries are just past 2²³ and 11 just
    // short of it — thirty times fewer than a scan of this shape needs.
    let mut rng = StdRng::seed_from_u64(43);
    let hnsw = HnswIndex::build(randn(&mut rng, 700, 32, 1.0), HnswParams::default());
    let queries = randn(&mut rng, 12, 32, 1.0);

    let (spawned, split) = spawns(|| hnsw.query_batch(&queries, 3));
    assert_eq!(spawned, two_way() - 1);
    let (_, inline) = spawns(|| from_a_worker(|| hnsw.query_batch(&queries, 3)));
    assert_eq!(split, inline, "chunking must not change a single bit");

    let below = queries.row_block(0, 11);
    assert_eq!(spawns(|| hnsw.query_batch(&below, 3)).0, 0, "just below");
}
