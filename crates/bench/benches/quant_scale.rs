//! Criterion bench: quantized candidate storage at serving scale —
//! f32 vs f16 vs i8 exact scans over 10k indexed exemplars (dim 64,
//! cluster-structured like production command-line embeddings).
//!
//! What the gates pin before any timing:
//!
//! * **f16 recall@1 ≥ 0.999 vs the f32 exact scan** — binary16 keeps
//!   ~11 bits of mantissa, so a top-1 flip needs two candidates within
//!   ≈ 5·10⁻⁴ cosine of each other; a "hit" is the same exemplar id
//!   *or* a tie within 10⁻³ true cosine (the standard ε-recall tie
//!   tolerance, since bit-equal ranks over near-duplicates are not a
//!   meaningful fidelity signal).
//! * **i8 Spearman ≥ 0.97 vs the f32 scan** — re-pinned under the
//!   exact-integer accumulation rule (i8×i8 → i16 widening multiplies
//!   summed in i32, dequantized once at the end), which perturbs
//!   scores by ~1%; the *ranking* of retrieval scores (what every
//!   downstream PO@v metric consumes) must survive nearly intact.
//! * **Kernel parity** — the blocked batch scan and every i8 kernel
//!   (scalar / SWAR / `core::arch`) must return results identical to
//!   the per-row reference `query` loop: f32 and f16 scores are
//!   bit-identical by construction, and i8 integer accumulation is
//!   exact, so this is an equality assert, not a tolerance.
//! * **Reduced bytes/query** — the point of the axis: every query
//!   streams the whole candidate store once, so bytes-per-query ==
//!   candidate-store bytes; f16 must halve it and i8 roughly quarter
//!   it (codes + one f32 scale per row).
//! * **i8 q/ms ≥ f32 q/ms** — with the blocked + SIMD kernels, the
//!   3.8× bandwidth cut must show up as throughput, not just bytes.
//! * **Blocking pays on one thread** — on i8, 16-query blocks through
//!   `query_batch` (each below the fan-out gate, so scanned inline)
//!   must answer at least as many q/ms as one `query` call per row:
//!   the block amortizes each tile over 16 queries, and if it does
//!   not beat 16 single scans the batch path has no reason to exist.
//!
//! The per-format per-row / blocked / SIMD q/ms table is also written
//! to `BENCH_quant.json` at the workspace root (see `bench::perf`).

use bench::perf::{self, Value};
use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use index::{ExactIndex, Neighbor, Quantization, VectorIndex};
use linalg::kernels::{arch_kernel_name, I8Kernel};
use linalg::ops::{row_norms, spearman};
use linalg::rng::{clustered_around, randn};
use linalg::Matrix;
use rand::{rngs::StdRng, SeedableRng};

const INDEXED: usize = 10_000;
const DIM: usize = 64;
const CLUSTERS: usize = 250;
const QUERIES: usize = 1_024;
const NOISE: f32 = 0.25;
/// Queries per single-threaded batch: one scan block, far below the
/// index's fan-out gate at [`INDEXED`] candidates.
const BLOCK: usize = 16;

fn timed(reps: usize, mut f: impl FnMut()) -> f64 {
    let t0 = std::time::Instant::now();
    for _ in 0..reps {
        f();
    }
    t0.elapsed().as_secs_f64() / reps as f64
}

/// The unbatched reference path: one `query` call per row.
fn per_row_queries(idx: &ExactIndex, queries: &Matrix, k: usize) -> Vec<Vec<Neighbor>> {
    (0..queries.rows())
        .map(|q| idx.query(queries.row(q), k))
        .collect()
}

/// q/ms for the scan strategies on one index.
struct ScanTimings {
    /// One `query` call per row: every scan is a block of one.
    scalar: f64,
    /// Whole-batch scan on the scalar i8 kernel.
    blocked: f64,
    /// Whole-batch scan on the best `core::arch`/SWAR kernel (fans
    /// out over the available cores).
    simd: f64,
    /// The same kernel fed one [`BLOCK`]-query batch at a time, each
    /// scanned inline — the blocked scan on a single thread.
    blocked_1t: f64,
}

fn time_scans(idx: &ExactIndex, queries: &Matrix) -> ScanTimings {
    let reps = 3;
    let q_per_ms = |t: f64| QUERIES as f64 / (t * 1000.0);
    let blocks: Vec<Matrix> = (0..QUERIES)
        .step_by(BLOCK)
        .map(|start| queries.row_block(start, BLOCK.min(QUERIES - start)))
        .collect();
    ScanTimings {
        scalar: q_per_ms(timed(reps, || {
            black_box(per_row_queries(idx, queries, 1));
        })),
        blocked: q_per_ms(timed(reps, || {
            black_box(idx.query_batch_with_kernel(I8Kernel::Scalar, queries, 1));
        })),
        simd: q_per_ms(timed(reps, || {
            black_box(idx.query_batch_with_kernel(I8Kernel::Arch, queries, 1));
        })),
        blocked_1t: q_per_ms(timed(reps, || {
            for block in &blocks {
                black_box(idx.query_batch(block, 1));
            }
        })),
    }
}

fn bench_quant_scale(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(19);
    let centers = randn(&mut rng, CLUSTERS, DIM, 1.0);
    let data = clustered_around(&mut rng, &centers, INDEXED, NOISE);
    let queries = clustered_around(&mut rng, &centers, QUERIES, NOISE);

    let f32_idx = ExactIndex::build(data.clone());
    let f16_idx = ExactIndex::build_quantized(data.clone(), row_norms(&data), Quantization::F16);
    let i8_idx = ExactIndex::build_quantized(data.clone(), row_norms(&data), Quantization::I8);

    // ── Correctness gates before any timing. ──
    let truth = f32_idx.query_batch(&queries, 1);
    let f16_top = f16_idx.query_batch(&queries, 1);
    let i8_top = i8_idx.query_batch(&queries, 1);

    // Blocked + SIMD scans are asserted *equal* to the per-row
    // reference loop — no follow-up caveat, no tolerance: f32/f16
    // values are bit-identical and i8 accumulation is exact integers.
    for (idx, name) in [(&f32_idx, "f32"), (&f16_idx, "f16"), (&i8_idx, "i8")] {
        let reference = per_row_queries(idx, &queries, 1);
        for kernel in [I8Kernel::Scalar, I8Kernel::Swar, I8Kernel::Arch] {
            let batched = idx.query_batch_with_kernel(kernel, &queries, 1);
            assert_eq!(
                batched,
                reference,
                "{name} blocked scan ({} kernel) diverged from the per-row reference",
                kernel.name()
            );
        }
    }
    println!(
        "quant_scale: blocked/SWAR/{} scans identical to the per-row scalar reference \
         on all three formats (asserted, exact equality)",
        arch_kernel_name()
    );

    // True (f32) cosine of the exemplar each backend chose — a hit is
    // the same id or an ε-tie in true cosine.
    let true_sim =
        |q: usize, id: usize| linalg::ops::cosine_similarity(data.row(id), queries.row(q));
    let eps = 1e-3;
    let f16_hits = (0..QUERIES)
        .filter(|&q| {
            f16_top[q][0].id == truth[q][0].id
                || (true_sim(q, f16_top[q][0].id) - truth[q][0].similarity).abs() <= eps
        })
        .count();
    let f16_recall = f16_hits as f64 / QUERIES as f64;
    assert!(
        f16_recall >= 0.999,
        "f16 recall@1 {f16_recall:.4} ({f16_hits}/{QUERIES}) below the 0.999 gate"
    );

    let f32_scores: Vec<f32> = truth.iter().map(|n| n[0].similarity).collect();
    let i8_scores: Vec<f32> = i8_top.iter().map(|n| n[0].similarity).collect();
    let rho = spearman(&f32_scores, &i8_scores);
    assert!(
        rho >= 0.97,
        "i8 score Spearman {rho:.4} below the 0.97 gate"
    );

    // ── Bytes per query: one full candidate-store stream per scan. ──
    let (b32, b16, b8) = (
        f32_idx.candidate_bytes(),
        f16_idx.candidate_bytes(),
        i8_idx.candidate_bytes(),
    );
    assert_eq!(b16 * 2, b32, "f16 must halve candidate bytes");
    assert!(
        b8 * 3 < b32,
        "i8 (+ scales) must cut candidate bytes at least 3x: {b8} vs {b32}"
    );

    // ── The measured table: per-format scalar vs blocked vs SIMD. ──
    let t32 = time_scans(&f32_idx, &queries);
    let t16 = time_scans(&f16_idx, &queries);
    let t8 = time_scans(&i8_idx, &queries);
    println!(
        "quant_scale: {INDEXED}×{DIM}, {QUERIES} queries, arch kernel = {} —\n\
         \x20 format  B/query     per-row     blocked        SIMD  blocked/1 thread\n\
         \x20 f32  {b32:>9}  {:>7.1} q/ms {:>7.1} q/ms {:>7.1} q/ms {:>7.1} q/ms (reference)\n\
         \x20 f16  {b16:>9}  {:>7.1} q/ms {:>7.1} q/ms {:>7.1} q/ms {:>7.1} q/ms ({:.2}× fewer bytes), recall@1 {f16_recall:.4} (gate ≥ 0.999)\n\
         \x20 i8   {b8:>9}  {:>7.1} q/ms {:>7.1} q/ms {:>7.1} q/ms {:>7.1} q/ms ({:.2}× fewer bytes), Spearman {rho:.4} (gate ≥ 0.97)",
        arch_kernel_name(),
        t32.scalar, t32.blocked, t32.simd, t32.blocked_1t,
        t16.scalar, t16.blocked, t16.simd, t16.blocked_1t,
        b32 as f64 / b16 as f64,
        t8.scalar, t8.blocked, t8.simd, t8.blocked_1t,
        b32 as f64 / b8 as f64,
    );

    // The floor this PR's axis exists to clear: quantized bytes must
    // now buy throughput. Print the measured figure *and* the floor
    // the assertion below enforces.
    println!(
        "quant_scale: i8 SIMD {:.1} q/ms vs f32 SIMD {:.1} q/ms (floor: i8 ≥ f32)",
        t8.simd, t32.simd
    );
    assert!(
        t8.simd >= t32.simd,
        "i8 blocked+SIMD scan ({:.1} q/ms) must not be slower than the f32 scan ({:.1} q/ms)",
        t8.simd,
        t32.simd
    );

    println!(
        "quant_scale: i8 on one thread — {BLOCK}-query blocks {:.1} q/ms vs per-row `query` \
         {:.1} q/ms (floor: blocked ≥ per-row)",
        t8.blocked_1t, t8.scalar
    );
    assert!(
        t8.blocked_1t >= t8.scalar,
        "i8 blocked batch on one thread ({:.1} q/ms) must not be slower than per-row \
         `query` calls ({:.1} q/ms)",
        t8.blocked_1t,
        t8.scalar
    );

    // ── Machine-readable record for CI/roadmap diffing. ──
    let row = |name: &str, bytes: usize, t: &ScanTimings| {
        let mut r = Value::object();
        r.push("format", Value::Str(name.into()))
            .push("bytes_per_query", Value::Int(bytes as i64))
            .push("q_per_ms_scalar", Value::Float(t.scalar))
            .push("q_per_ms_blocked", Value::Float(t.blocked))
            .push("q_per_ms_simd", Value::Float(t.simd))
            .push("q_per_ms_blocked_1t", Value::Float(t.blocked_1t));
        r
    };
    let mut gates = Value::object();
    gates
        .push("f16_recall_at_1", Value::Float(f16_recall))
        .push("f16_recall_floor", Value::Float(0.999))
        .push("i8_spearman", Value::Float(rho as f64))
        .push("i8_spearman_floor", Value::Float(0.97))
        .push("kernel_parity_exact", Value::Bool(true))
        .push("i8_simd_q_per_ms_floor", Value::Str("f32_simd".into()))
        .push(
            "i8_blocked_1t_q_per_ms_floor",
            Value::Str("i8_scalar".into()),
        );
    let mut record = Value::object();
    record
        .push("bench", Value::Str("quant_scale".into()))
        .push("indexed", Value::Int(INDEXED as i64))
        .push("dim", Value::Int(DIM as i64))
        .push("queries", Value::Int(QUERIES as i64))
        .push("arch_kernel", Value::Str(arch_kernel_name().into()))
        .push("gates", gates)
        .push(
            "formats",
            Value::Array(vec![
                row("f32", b32, &t32),
                row("f16", b16, &t16),
                row("i8", b8, &t8),
            ]),
        );
    let path = perf::write_report("BENCH_quant.json", &record);
    println!("quant_scale: wrote {}", path.display());

    let mut group = c.benchmark_group("quant_scale");
    group.sample_size(10);
    group.throughput(Throughput::Elements(QUERIES as u64));
    group.bench_function("exact_f32", |b| {
        b.iter(|| f32_idx.query_batch(black_box(&queries), 1))
    });
    group.bench_function("exact_f16", |b| {
        b.iter(|| f16_idx.query_batch(black_box(&queries), 1))
    });
    group.bench_function("exact_i8", |b| {
        b.iter(|| i8_idx.query_batch(black_box(&queries), 1))
    });
    group.finish();
}

criterion_group!(benches, bench_quant_scale);
criterion_main!(benches);
