//! The workspace's one fan-out rule: whether a piece of work is split
//! over threads, over how many, and never from inside a worker.
//!
//! Every scoped-thread split below the serving layer — `Matrix::matmul`
//! row blocks, the batched attention core, the encoder's batched
//! forward (whole lines), the exact, sharded and HNSW index batch
//! queries — is one call of [`for_each_chunk_mut`] carrying the
//! caller's estimate of its single-thread work. What a
//! thread costs is known here and nowhere else; what the work costs is
//! the caller's knowledge.
//!
//! **The unit** is one multiply-add through a tiled kernel: `m·k·n` for
//! a matmul, `heads·2·T²·head_dim` per attention sequence, the sum of
//! both over a line's forward, `queries·rows·dim` for a candidate scan. A kernel whose cost is not
//! its multiply-adds keeps one documented conversion next to its code
//! (the HNSW beam search: 2¹⁰ per candidate it evaluates).
//!
//! **The rule.** A call uses `min(cores, work / MIN_WORK_PER_THREAD,
//! chunks)` threads — every thread, the caller included, must own at
//! least `MIN_WORK_PER_THREAD` (2²²) multiply-adds. One thread means the
//! closure runs inline on the whole slice; otherwise the slice is cut
//! into that many contiguous `align`-multiple chunks, the caller runs
//! the first and only the rest are spawned (`std::thread::scope`), so a
//! two-way split costs one spawn, not two plus a sleeping caller.
//! Chunking never changes the order in which any one output
//! accumulates, so results are bit-identical on every core count.
//!
//! **Sized from three measurements** on the reference container (2
//! SMT-sibling vCPUs, whose speed drifts between a fast and a slow
//! state):
//!
//! * *Spawn + join.* Spawning and joining 2 idle scoped workers takes
//!   35–80 µs at the median (26 µs at best, 110–120 µs at p90), 4
//!   workers 65–124 µs; the one worker a two-way split spawns beside
//!   its working caller, 16–64 µs.
//! * *The i8-scan calibration point.* The cheapest kernel — the i8 tile
//!   scan at 32 dims — costs ≈ 2.1 ns per row·query (0.066 ns per
//!   multiply-add; 21 µs per query at 10 000 rows), so a split over two
//!   cores breaks even near 70 000 row·queries. At 2¹⁸ row·queries
//!   (2²³ multiply-adds, ≈ 550 µs) the spawns are at most a fifth of
//!   the scan they split, a clear win from the first batch that takes
//!   it: that is the threshold, two threads' worth of
//!   `MIN_WORK_PER_THREAD`. Before this module `index` kept it as a
//!   private `MIN_FAN_OUT_WORK = 2¹⁸` row·queries; at 32 dims the exact
//!   scan fans out at the same 2¹⁸ now, and at other widths in
//!   proportion. f32 GEMM runs 0.11–0.21 ns per multiply-add and the
//!   f32/f16 scans up to 12× the i8 figure per row·query; they merely
//!   start fanning out later than they could.
//! * *`available_parallelism`.* std does not cache it: each call
//!   re-reads the cgroup files and takes 13–16 µs — more than the i8
//!   scan of a 4-line request against a 700-row index (≈ 9 µs). It is
//!   read once here; an unreadable count means one core.
//!
//! **Workers never fan out again.** A thread running a chunk (the
//! caller included, for the duration of its split) is marked with a
//! thread-local, and a nested call from it runs inline whatever its
//! work: the outer split already owns every core, so a second level —
//! shards × query blocks × matmul rows — would only stack spawn costs
//! and oversubscribe two vCPUs.

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Multiply-adds each thread of a split must own (see the module doc's
/// calibration point): a call fans out from twice this.
const MIN_WORK_PER_THREAD: usize = 1 << 22;

static SPAWNED: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static IN_FAN_OUT: Cell<bool> = const { Cell::new(false) };
}

/// Threads this process has spawned through [`for_each_chunk_mut`] so
/// far. Monotonic; a statistic that lets tests (and a benchmark) pin
/// the fan-out policy without a clock.
pub fn spawned() -> usize {
    SPAWNED.load(Ordering::Relaxed)
}

fn cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Marks the current thread as running a chunk until dropped — also on
/// unwind, so a panicking chunk leaves the caller's thread able to fan
/// out again.
struct InFanOut;

impl InFanOut {
    fn enter() -> Self {
        IN_FAN_OUT.set(true);
        InFanOut
    }
}

impl Drop for InFanOut {
    fn drop(&mut self) {
        IN_FAN_OUT.set(false);
    }
}

/// Runs `f(first_index, chunk)` over contiguous chunks of `items` that
/// together cover it once, on as many threads as `work` — the caller's
/// estimate of the whole call's multiply-adds — pays for (the module
/// doc has the rule). Chunk lengths are multiples of `align` (the last
/// takes the remainder); `first_index` is the chunk's offset in
/// `items`. A single thread runs `f(0, items)` inline; an empty
/// `items` never calls `f`.
///
/// # Panics
///
/// Panics if `align == 0` while `items` is non-empty, and re-raises a
/// panicking chunk's panic after every other chunk has finished.
pub fn for_each_chunk_mut<T, F>(items: &mut [T], align: usize, work: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    if items.is_empty() {
        return;
    }
    assert!(align > 0, "chunk alignment must be positive");
    let units = items.len().div_ceil(align);
    let threads = if IN_FAN_OUT.get() {
        1
    } else {
        cores().min(work / MIN_WORK_PER_THREAD).min(units)
    };
    if threads <= 1 {
        return f(0, items);
    }
    let chunk = units.div_ceil(threads) * align;
    let (head, rest) = items.split_at_mut(chunk);
    let _caller = InFanOut::enter();
    std::thread::scope(|scope| {
        for (i, tail) in rest.chunks_mut(chunk).enumerate() {
            SPAWNED.fetch_add(1, Ordering::Relaxed);
            let f = &f;
            scope.spawn(move || {
                let _worker = InFanOut::enter();
                f((i + 1) * chunk, tail)
            });
        }
        f(0, head);
    });
}
