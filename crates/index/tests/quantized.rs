//! Property tests for the quantized candidate-storage axis:
//!
//! * encode→decode error bounds — f16 within 1 ulp of f16, i8 within
//!   `scale/2` per element — on arbitrary in-range inputs;
//! * a [`ShardedIndex`] with quantized shards is **identical** to N
//!   independently-built quantized shards merged by hand (per-row
//!   scales make quantization row-local, so the partition cannot
//!   change any code);
//! * quantized round trips through the persistence codec are
//!   bit-exact and version-negotiated;
//! * at serving scale (10 000 × 64 clustered rows) f16 keeps the f32
//!   scan's top-1 and i8 keeps its score ranking, at half and under a
//!   third of the candidate bytes.

use index::{
    merge_shard_topk, shard_for_row, ExactIndex, IndexConfig, IndexSnapshot, Neighbor,
    Quantization, ShardedIndex, ShardedParams, VectorIndex,
};
use linalg::ops::{cosine_similarity, row_norms, spearman};
use linalg::quant::{f16_to_f32, f32_to_f16, i8_encode_row};
use linalg::rng::{clustered_around, randn};
use linalg::Matrix;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One f16 unit-in-the-last-place at magnitude `x` (subnormal floor
/// 2^-24).
fn f16_ulp(x: f32) -> f32 {
    let ax = x.abs();
    if ax < 2f32.powi(-14) {
        2f32.powi(-24)
    } else {
        2f32.powi(ax.log2().floor() as i32 - 10)
    }
}

proptest! {
    /// f16 encode→decode lands within 1 ulp of the input for every
    /// value inside f16 range (round-to-nearest-even guarantees ½ ulp;
    /// the bound leaves headroom for the ulp estimate at exponent
    /// boundaries).
    #[test]
    fn f16_round_trip_error_is_within_one_ulp(x in -60000.0f32..60000.0) {
        let decoded = f16_to_f32(f32_to_f16(x));
        let err = (x - decoded).abs();
        prop_assert!(
            err <= f16_ulp(x) * 1.000_001,
            "x={x} decoded={decoded} err={err}"
        );
    }

    /// i8 encode→decode error is bounded by half the row scale per
    /// element, and the scale itself is `max|x| / 127`.
    #[test]
    fn i8_round_trip_error_is_within_half_scale(
        row in prop::collection::vec(-100.0f32..100.0, 1..64),
    ) {
        let (codes, scale) = i8_encode_row(&row);
        let max_abs = row.iter().fold(0.0f32, |m, &x| m.max(x.abs()));
        prop_assert!((scale - max_abs / 127.0).abs() <= max_abs * 1e-6);
        for (&x, &q) in row.iter().zip(&codes) {
            let err = (x - q as f32 * scale).abs();
            prop_assert!(
                err <= scale / 2.0 + scale * 1e-5,
                "x={x} q={q} scale={scale} err={err}"
            );
        }
    }

    /// A sharded index with quantized shards answers exactly like N
    /// independent quantized shards built and merged by hand: same
    /// partition, same per-shard codes (row-local scales), same k-way
    /// merge order.
    #[test]
    fn sharded_i8_equals_manually_merged_i8_shards(
        seed in 0u64..300,
        n in 1usize..100,
        shards in 2usize..5,
        k in 1usize..6,
        quant_tag in 0u8..2,
    ) {
        let quant = if quant_tag == 0 { Quantization::I8 } else { Quantization::F16 };
        let mut rng = StdRng::seed_from_u64(seed);
        let dim = 8;
        let data = randn(&mut rng, n, dim, 1.0);
        let queries = randn(&mut rng, 5, dim, 1.0);

        let params = ShardedParams::exact(shards);
        let sharded = ShardedIndex::build_quantized(
            data.clone(),
            linalg::ops::row_norms(&data),
            params,
            quant,
        );

        // Hand-rolled reference: partition by the same content hash,
        // build each shard's quantized ExactIndex independently, query
        // every shard, map local→global ids, k-way merge.
        let mut rows_per_shard: Vec<Vec<usize>> = vec![Vec::new(); shards];
        for r in 0..n {
            rows_per_shard[shard_for_row(params.seed, shards, data.row(r))].push(r);
        }
        let manual: Vec<(ExactIndex, &[usize])> = rows_per_shard
            .iter()
            .map(|rows| {
                let mut sub = Matrix::zeros(0, dim);
                for &g in rows {
                    sub.push_row(data.row(g));
                }
                let norms = linalg::ops::row_norms(&sub);
                (
                    ExactIndex::build_quantized(sub, norms, quant),
                    rows.as_slice(),
                )
            })
            .collect();

        for qr in 0..queries.rows() {
            let q = queries.row(qr);
            let per_shard: Vec<Vec<Neighbor>> = manual
                .iter()
                .map(|(idx, map)| {
                    let mut out = idx.query(q, k);
                    for nb in &mut out {
                        nb.id = map[nb.id];
                    }
                    out
                })
                .collect();
            let lists: Vec<&[Neighbor]> = per_shard.iter().map(Vec::as_slice).collect();
            let want = merge_shard_topk(&lists, k);
            prop_assert_eq!(sharded.query(q, k), want);
        }
    }

    /// Quantized snapshots round-trip bit-exactly through the V2 frame
    /// for every backend shape.
    #[test]
    fn quantized_round_trip_is_bit_exact(
        seed in 0u64..200,
        n in 1usize..80,
        backend in 0u8..3,
        quant_tag in 0u8..2,
    ) {
        let quant = if quant_tag == 0 { Quantization::I8 } else { Quantization::F16 };
        let config = match backend {
            0 => IndexConfig::Exact,
            1 => IndexConfig::hnsw(),
            _ => IndexConfig::Exact.with_shards(3),
        }
        .with_quant(quant);
        let mut rng = StdRng::seed_from_u64(seed);
        let data = randn(&mut rng, n, 6, 1.0);
        let idx = config.build(data.clone());
        prop_assert_eq!(idx.quantization(), quant);
        let bytes = IndexSnapshot::capture(idx.as_ref()).expect("capturable").to_bytes();
        let restored = IndexSnapshot::from_bytes(&bytes).expect("decodes").restore();
        prop_assert_eq!(restored.quantization(), quant);
        for r in (0..n).step_by(1 + n / 6) {
            prop_assert_eq!(restored.query(data.row(r), 3), idx.query(data.row(r), 3));
        }
    }
}

#[test]
fn quantized_inserts_continue_identically_after_restore() {
    // save → load → insert ≡ never-saved → insert, in every format
    // (the restored quantized storage and RNG replay line up).
    let mut rng = StdRng::seed_from_u64(8);
    let data = randn(&mut rng, 60, 6, 1.0);
    let extra = randn(&mut rng, 8, 6, 1.0);
    for quant in [Quantization::F16, Quantization::I8] {
        for config in [
            IndexConfig::Exact.with_quant(quant),
            IndexConfig::hnsw().with_quant(quant),
            IndexConfig::hnsw().with_quant(quant).with_shards(3),
        ] {
            let mut live = config.build(data.clone());
            let bytes = IndexSnapshot::capture(live.as_ref()).unwrap().to_bytes();
            let mut restored = IndexSnapshot::from_bytes(&bytes).unwrap().restore();
            for r in 0..extra.rows() {
                assert_eq!(
                    live.insert(extra.row(r)),
                    restored.insert(extra.row(r)),
                    "{}",
                    config.name()
                );
            }
            for r in 0..extra.rows() {
                assert_eq!(
                    live.query(extra.row(r), 3),
                    restored.query(extra.row(r), 3),
                    "{}",
                    config.name()
                );
            }
        }
    }
}

/// What a narrower format must keep for the bytes it saves, on data
/// shaped like deduplicated command-line embeddings (many variants of
/// few templates). Every query streams the whole candidate store, so
/// candidate bytes are bytes per query.
#[test]
fn quantized_scans_keep_f32_fidelity_at_serving_scale() {
    let mut rng = StdRng::seed_from_u64(19);
    let centers = randn(&mut rng, 250, 64, 1.0);
    let data = clustered_around(&mut rng, &centers, 10_000, 0.25);
    let queries = clustered_around(&mut rng, &centers, 256, 0.25);
    let build = |quant| ExactIndex::build_quantized(data.clone(), row_norms(&data), quant);
    let (f32_idx, f16_idx, i8_idx) = (
        build(Quantization::F32),
        build(Quantization::F16),
        build(Quantization::I8),
    );
    let truth = f32_idx.query_batch(&queries, 1);

    // binary16 keeps ~11 mantissa bits, so a top-1 flip needs two
    // candidates within ≈ 5e-4 cosine: a hit is the same exemplar or
    // a tie within 1e-3 *true* cosine (ε-recall).
    let f16_hits = (0..queries.rows())
        .zip(f16_idx.query_batch(&queries, 1))
        .filter(|(q, got)| {
            let true_sim = cosine_similarity(data.row(got[0].id), queries.row(*q));
            got[0].id == truth[*q][0].id || (true_sim - truth[*q][0].similarity).abs() <= 1e-3
        })
        .count();
    assert!(
        f16_hits as f64 >= 0.999 * queries.rows() as f64,
        "f16 recall@1 {f16_hits}/{}",
        queries.rows()
    );

    // Integer accumulation perturbs i8 scores by ~1 %; their ranking
    // (what every downstream metric consumes) must survive.
    let top_scores =
        |top: &[Vec<Neighbor>]| -> Vec<f32> { top.iter().map(|n| n[0].similarity).collect() };
    let rho = spearman(
        &top_scores(&truth),
        &top_scores(&i8_idx.query_batch(&queries, 1)),
    );
    assert!(rho >= 0.97, "i8 top-1 score Spearman {rho:.4}");

    let b32 = f32_idx.candidate_bytes();
    assert_eq!(f16_idx.candidate_bytes() * 2, b32);
    // Codes plus one f32 scale per row.
    assert!(i8_idx.candidate_bytes() * 3 < b32);
}
