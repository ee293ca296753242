//! The transformer encoder: blocks and full model.

use crate::attention::{AttentionCache, MultiHeadAttention};
use crate::config::ModelConfig;
use crate::embedding::{EmbeddingCache, Embeddings};
use crate::ffn::{FeedForward, FeedForwardCache};
use crate::layernorm::{LayerNorm, LayerNormCache};
use crate::param::Param;
use linalg::Matrix;
use rand::Rng;

/// One post-layer-norm transformer block (the BERT arrangement):
/// `x ← LN(x + Attn(x))`, then `x ← LN(x + FFN(x))`.
#[derive(Debug, Clone)]
pub struct EncoderBlock {
    attn: MultiHeadAttention,
    ln1: LayerNorm,
    ffn: FeedForward,
    ln2: LayerNorm,
}

/// Forward cache for [`EncoderBlock::backward`].
#[derive(Debug)]
pub struct BlockCache {
    ca: AttentionCache,
    cl1: LayerNormCache,
    cf: FeedForwardCache,
    cl2: LayerNormCache,
}

impl EncoderBlock {
    /// Creates a block for the given configuration.
    pub fn new<R: Rng + ?Sized>(rng: &mut R, config: &ModelConfig) -> Self {
        EncoderBlock {
            attn: MultiHeadAttention::new(rng, config.hidden, config.heads),
            ln1: LayerNorm::new(config.hidden),
            ffn: FeedForward::new(rng, config.hidden, config.ff_dim()),
            ln2: LayerNorm::new(config.hidden),
        }
    }

    /// Forward pass over `(s, hidden)`.
    pub fn forward(&self, x: &Matrix) -> (Matrix, BlockCache) {
        let (a, ca) = self.attn.forward(x);
        let sum1 = x + &a;
        let (n1, cl1) = self.ln1.forward(&sum1);
        let (f, cf) = self.ffn.forward(&n1);
        let sum2 = &n1 + &f;
        let (y, cl2) = self.ln2.forward(&sum2);
        (y, BlockCache { ca, cl1, cf, cl2 })
    }

    /// Backward pass: returns `dx`.
    pub fn backward(&mut self, cache: &BlockCache, dy: &Matrix) -> Matrix {
        let dsum2 = self.ln2.backward(&cache.cl2, dy);
        // sum2 = n1 + f
        let df = dsum2.clone();
        let dn1_from_ffn = self.ffn.backward(&cache.cf, &df);
        let mut dn1 = dsum2;
        dn1 += &dn1_from_ffn;
        let dsum1 = self.ln1.backward(&cache.cl1, &dn1);
        // sum1 = x + a
        let da = dsum1.clone();
        let dx_from_attn = self.attn.backward(&cache.ca, &da);
        let mut dx = dsum1;
        dx += &dx_from_attn;
        dx
    }

    /// Inference-only forward over stacked equal-length sequences
    /// (`seq_len` rows each); bit-identical to per-sequence
    /// [`EncoderBlock::forward`] since layer norm and the FFN are
    /// row-wise and attention is confined to row blocks.
    pub fn apply_batched(&self, x: &Matrix, seq_len: usize) -> Matrix {
        let a = self.attn.apply_batched(x, seq_len);
        let sum1 = x + &a;
        let n1 = self.ln1.apply(&sum1);
        let f = self.ffn.apply(&n1);
        let sum2 = &n1 + &f;
        self.ln2.apply(&sum2)
    }

    /// Visits all parameters in stable order.
    pub fn visit_params(&mut self, f: &mut impl FnMut(&mut Param)) {
        self.attn.visit_params(f);
        self.ln1.visit_params(f);
        self.ffn.visit_params(f);
        self.ln2.visit_params(f);
    }
}

/// The full encoder: embeddings plus a stack of blocks.
///
/// This is the paper's command-line language model backbone `f(·)`.
#[derive(Debug, Clone)]
pub struct Encoder {
    config: ModelConfig,
    embeddings: Embeddings,
    blocks: Vec<EncoderBlock>,
}

/// Forward cache for [`Encoder::backward`].
#[derive(Debug)]
pub struct EncoderCache {
    ce: EmbeddingCache,
    blocks: Vec<BlockCache>,
}

impl Encoder {
    /// Creates a randomly initialized encoder.
    pub fn new<R: Rng + ?Sized>(config: ModelConfig, rng: &mut R) -> Self {
        let embeddings = Embeddings::new(rng, config.vocab_size, config.max_len, config.hidden);
        let blocks = (0..config.layers)
            .map(|_| EncoderBlock::new(rng, &config))
            .collect();
        Encoder {
            config,
            embeddings,
            blocks,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &ModelConfig {
        &self.config
    }

    /// Inference forward: no backward caches are built (training goes
    /// through [`Encoder::forward_cached`]). Float-for-float identical
    /// to the cached pass — both run the same row-wise ops in the same
    /// order.
    pub fn forward(&self, ids: &[u32]) -> Matrix {
        let hidden = self.config.hidden;
        let mut x = Matrix::zeros(ids.len(), hidden);
        self.embeddings.lookup_into(ids, x.as_mut_slice());
        for block in &self.blocks {
            x = block.apply_batched(&x, ids.len());
        }
        x
    }

    /// Forward pass returning hidden states `(s, hidden)` and the cache
    /// needed for [`Encoder::backward`].
    pub fn forward_cached(&self, ids: &[u32]) -> (Matrix, EncoderCache) {
        let (mut x, ce) = self.embeddings.forward(ids);
        let mut caches = Vec::with_capacity(self.blocks.len());
        for block in &self.blocks {
            let (y, cache) = block.forward(&x);
            x = y;
            caches.push(cache);
        }
        (x, EncoderCache { ce, blocks: caches })
    }

    /// Backward pass from a gradient on the output hidden states.
    /// Accumulates gradients in every parameter (including embeddings).
    pub fn backward(&mut self, cache: &EncoderCache, dhidden: &Matrix) {
        let mut d = dhidden.clone();
        for (block, bc) in self.blocks.iter_mut().zip(&cache.blocks).rev() {
            d = block.backward(bc, &d);
        }
        self.embeddings.backward(&cache.ce, &d);
    }

    /// Batched inference forward: hidden states for every sequence,
    /// bit-identical to calling [`Encoder::forward`] per sequence.
    ///
    /// Sequences are bucketed by exact length and each bucket is
    /// stacked into one `(batch·len, hidden)` matrix, so the embedding
    /// lookup, Q/K/V/O projections, feed-forward, and layer norms run
    /// as a few large row-wise operations instead of thousands of tiny
    /// ones; the attention core stays per-sequence on row blocks
    /// ([`EncoderBlock::apply_batched`]), which doubles as the
    /// attention mask — no token can attend across a sequence
    /// boundary, and equal-length bucketing means no padding is ever
    /// inserted. The projection/FFN matmuls run on the register-tiled
    /// GEMM micro-kernels in `linalg::kernels`, which keep each
    /// output's k-accumulation order — that is what preserves the
    /// bit-identity guarantee above (the load benchmark reads the
    /// batched forward as `nn.forward_us_per_line_b32`, line by line as
    /// `_b1`).
    pub fn forward_batch(&self, seqs: &[Vec<u32>]) -> Vec<Matrix> {
        let mut out: Vec<Option<Matrix>> = (0..seqs.len()).map(|_| None).collect();
        self.forward_batch_visit(seqs, &mut out, 1, |slot, stacked, row0, len| {
            slot[0] = Some(stacked.row_block(row0, len));
        });
        out.into_iter()
            .map(|m| m.expect("every sequence visited"))
            .collect()
    }

    /// Mean-pooled embeddings of a batch `(n, hidden)` — the batched
    /// equivalent of [`Encoder::embed_mean`] per row, bit-identically.
    pub fn embed_mean_batch(&self, seqs: &[Vec<u32>]) -> Matrix {
        let hidden = self.config.hidden;
        let mut out = Matrix::zeros(seqs.len(), hidden);
        self.forward_batch_visit(
            seqs,
            out.as_mut_slice(),
            hidden,
            |dst, stacked, row0, len| {
                for r in 0..len {
                    for (o, v) in dst.iter_mut().zip(stacked.row(row0 + r)) {
                        *o += v;
                    }
                }
                let n = len as f32;
                for o in dst.iter_mut() {
                    *o /= n;
                }
            },
        );
        out
    }

    /// `[CLS]` embeddings of a batch `(n, hidden)` — the batched
    /// equivalent of [`Encoder::embed_cls`] per row, bit-identically.
    pub fn embed_cls_batch(&self, seqs: &[Vec<u32>]) -> Matrix {
        let hidden = self.config.hidden;
        let mut out = Matrix::zeros(seqs.len(), hidden);
        self.forward_batch_visit(seqs, out.as_mut_slice(), hidden, |dst, stacked, row0, _| {
            dst.copy_from_slice(stacked.row(row0));
        });
        out
    }

    /// Multiply-adds of one `len`-token forward, the unit
    /// [`linalg::par`] counts work in: per block the Q/K/V/O
    /// projections (`4·h²` a token), the FFN (`2·h·ff`) and the
    /// attention core (`2·len·h`). The row-wise rest — layer norms,
    /// GELU, softmax, residuals — is not counted, so a forward costs
    /// more time than this says and merely splits later than it could.
    fn forward_work(&self, len: usize) -> usize {
        let (h, ff) = (self.config.hidden, self.config.ff_dim());
        self.blocks.len() * len * (4 * h * h + 2 * h * ff + 2 * len * h)
    }

    /// Shared batched-forward core. `out` holds `width` slots per
    /// sequence; the batch is split over whole sequences when its
    /// forwards together pay for threads ([`linalg::par`] — one split
    /// per batch, inside which no matmul splits again; a sequence's
    /// output does not depend on what it is stacked with, so neither on
    /// the split). Each part buckets its sequences by exact length,
    /// stacks each bucket (capped at its share of
    /// [`Encoder::MAX_BATCH_ROWS`] rows, so the call's peak memory is
    /// the same on any thread count), runs the blocks, and hands
    /// `visit` each sequence's slots and hidden-state rows as
    /// `(slots, stacked_matrix, first_row, seq_len)`.
    fn forward_batch_visit<T: Send>(
        &self,
        seqs: &[Vec<u32>],
        out: &mut [T],
        width: usize,
        visit: impl Fn(&mut [T], &Matrix, usize, usize) + Sync,
    ) {
        use std::collections::BTreeMap;
        let hidden = self.config.hidden;
        let work = seqs.iter().map(|ids| self.forward_work(ids.len())).sum();
        linalg::par::for_each_chunk_mut(out, width, work, |first, out| {
            let batch = seqs.len();
            let seqs = &seqs[first / width..][..out.len() / width];
            let max_rows = Self::MAX_BATCH_ROWS * seqs.len() / batch;
            let mut buckets: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
            for (i, ids) in seqs.iter().enumerate() {
                buckets.entry(ids.len()).or_default().push(i);
            }
            for (len, idxs) in buckets {
                let per_batch = (max_rows / len.max(1)).max(1);
                for chunk in idxs.chunks(per_batch) {
                    let mut x = Matrix::zeros(chunk.len() * len, hidden);
                    for (b, &i) in chunk.iter().enumerate() {
                        self.embeddings.lookup_into(
                            &seqs[i],
                            &mut x.as_mut_slice()[b * len * hidden..(b + 1) * len * hidden],
                        );
                    }
                    for block in &self.blocks {
                        x = block.apply_batched(&x, len);
                    }
                    for (b, &i) in chunk.iter().enumerate() {
                        visit(&mut out[i * width..(i + 1) * width], &x, b * len, len);
                    }
                }
            }
        });
    }

    /// Upper bound on the rows a batched forward has stacked at once,
    /// over all its threads: bounds the transient Q/K/V/context/FFN
    /// matrices to ≈ 3 MB at hidden 32. Sized by resident memory, not
    /// speed — embedding 40 000 lines takes the same 2.8 s at 1 024,
    /// 2 048, 4 096 and 8 192 rows, while the process peaks at 41–43,
    /// 43, 45 and 48–55 MiB: what a thread frees stays in its own
    /// allocator arena, so multi-MB transients on two threads are held
    /// twice.
    const MAX_BATCH_ROWS: usize = 2_048;

    /// Mean-pooled sequence embedding — the paper's average pooling over
    /// token embeddings for PCA detection (Section III).
    pub fn embed_mean(&self, ids: &[u32]) -> Vec<f32> {
        let h = self.forward(ids);
        let mut out = vec![0.0f32; h.cols()];
        for r in 0..h.rows() {
            for (o, v) in out.iter_mut().zip(h.row(r)) {
                *o += v;
            }
        }
        let n = h.rows() as f32;
        for o in &mut out {
            *o /= n;
        }
        out
    }

    /// `[CLS]` embedding: the hidden state of position 0 (the paper's
    /// probing target, Section IV-B). The caller is responsible for
    /// having `[CLS]` first, which `bpe::Tokenizer::encode_for_model`
    /// guarantees.
    pub fn embed_cls(&self, ids: &[u32]) -> Vec<f32> {
        let h = self.forward(ids);
        h.row(0).to_vec()
    }

    /// Visits every parameter in stable order (embeddings first).
    pub fn visit_params(&mut self, f: &mut impl FnMut(&mut Param)) {
        self.embeddings.visit_params(f);
        for block in &mut self.blocks {
            block.visit_params(f);
        }
    }

    /// Zeroes all gradients.
    pub fn zero_grad(&mut self) {
        self.visit_params(&mut |p| p.zero_grad());
    }

    /// Total scalar parameter count.
    pub fn num_params(&mut self) -> usize {
        let mut n = 0;
        self.visit_params(&mut |p| n += p.len());
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tiny() -> (Encoder, StdRng) {
        let mut rng = StdRng::seed_from_u64(1);
        let config = ModelConfig {
            vocab_size: 50,
            hidden: 8,
            layers: 2,
            heads: 2,
            ff_mult: 2,
            max_len: 16,
        };
        let enc = Encoder::new(config, &mut rng);
        (enc, rng)
    }

    fn loss(y: &Matrix) -> f32 {
        0.5 * y.as_slice().iter().map(|v| v * v).sum::<f32>()
    }

    #[test]
    fn forward_shape() {
        let (enc, _) = tiny();
        let h = enc.forward(&[2, 7, 8, 9, 3]);
        assert_eq!(h.shape(), (5, 8));
    }

    #[test]
    fn block_gradient_check() {
        let mut rng = StdRng::seed_from_u64(2);
        let config = ModelConfig {
            vocab_size: 10,
            hidden: 8,
            layers: 1,
            heads: 2,
            ff_mult: 2,
            max_len: 8,
        };
        let mut block = EncoderBlock::new(&mut rng, &config);
        let x = linalg::rng::randn(&mut rng, 4, 8, 0.7);
        let (y, cache) = block.forward(&x);
        let dx = block.backward(&cache, &y);

        let eps = 1e-2;
        for idx in [(0usize, 0usize), (1, 4), (3, 7)] {
            let mut xp = x.clone();
            xp[idx] += eps;
            let (yp, _) = block.forward(&xp);
            let mut xm = x.clone();
            xm[idx] -= eps;
            let (ym, _) = block.forward(&xm);
            let numeric = (loss(&yp) - loss(&ym)) / (2.0 * eps);
            assert!(
                (numeric - dx[idx]).abs() < 8e-2 * (1.0 + numeric.abs()),
                "block dx{idx:?}: numeric {numeric} vs analytic {}",
                dx[idx]
            );
        }
    }

    #[test]
    fn full_encoder_gradient_check_on_embedding_table() {
        let (mut enc, _) = tiny();
        let ids = [2u32, 7, 8, 3];
        let (h, cache) = enc.forward_cached(&ids);
        enc.zero_grad();
        enc.backward(&cache, &h);

        // Finite-difference check on the token-embedding entry of id 7.
        let eps = 1e-2;
        let idx = (7usize, 3usize);
        let orig = enc.embeddings.tokens.value[idx];
        enc.embeddings.tokens.value[idx] = orig + eps;
        let hp = enc.forward(&ids);
        enc.embeddings.tokens.value[idx] = orig - eps;
        let hm = enc.forward(&ids);
        enc.embeddings.tokens.value[idx] = orig;
        let numeric = (loss(&hp) - loss(&hm)) / (2.0 * eps);
        let analytic = enc.embeddings.tokens.grad[idx];
        assert!(
            (numeric - analytic).abs() < 8e-2 * (1.0 + numeric.abs()),
            "dE{idx:?}: numeric {numeric} vs analytic {analytic}"
        );
    }

    #[test]
    fn mean_and_cls_embeddings() {
        let (enc, _) = tiny();
        let mean = enc.embed_mean(&[2, 5, 3]);
        let cls = enc.embed_cls(&[2, 5, 3]);
        assert_eq!(mean.len(), 8);
        assert_eq!(cls.len(), 8);
        let h = enc.forward(&[2, 5, 3]);
        assert_eq!(cls, h.row(0).to_vec());
        // Mean is the column average.
        let expect: Vec<f32> = (0..8)
            .map(|c| (h[(0, c)] + h[(1, c)] + h[(2, c)]) / 3.0)
            .collect();
        for (a, b) in mean.iter().zip(&expect) {
            assert!((a - b).abs() < 1e-5);
        }
    }

    #[test]
    fn param_count_matches_config_estimate() {
        let (mut enc, _) = tiny();
        let estimate = enc.config().param_count();
        let actual = enc.num_params();
        assert_eq!(actual, estimate);
    }

    #[test]
    fn zero_grad_clears_everything() {
        let (mut enc, _) = tiny();
        let ids = [2u32, 4, 3];
        let (h, cache) = enc.forward_cached(&ids);
        enc.backward(&cache, &h);
        enc.zero_grad();
        let mut all_zero = true;
        enc.visit_params(&mut |p| {
            if p.grad.as_slice().iter().any(|&g| g != 0.0) {
                all_zero = false;
            }
        });
        assert!(all_zero);
    }

    #[test]
    fn forward_batch_matches_forward_across_ragged_lengths() {
        let (enc, _) = tiny();
        // Ragged lengths, duplicate lengths, single-token sequences.
        let seqs: Vec<Vec<u32>> = vec![
            vec![2, 7, 8, 9, 3],
            vec![2, 5, 3],
            vec![2, 7, 8, 9, 3],
            vec![2, 10, 11, 3],
            vec![7],
            vec![2, 4, 6, 8, 10, 12, 14, 3],
            vec![2, 3],
        ];
        let batched = enc.forward_batch(&seqs);
        for (i, ids) in seqs.iter().enumerate() {
            let single = enc.forward(ids);
            assert_eq!(batched[i], single, "sequence {i} diverged");
        }
    }

    #[test]
    fn embed_batch_matches_pooled_singles() {
        let (enc, _) = tiny();
        let seqs: Vec<Vec<u32>> = vec![vec![2, 7, 8, 3], vec![2, 9, 3], vec![2, 7, 8, 9, 10, 3]];
        let mean = enc.embed_mean_batch(&seqs);
        let cls = enc.embed_cls_batch(&seqs);
        for (i, ids) in seqs.iter().enumerate() {
            assert_eq!(mean.row(i), enc.embed_mean(ids), "mean row {i}");
            assert_eq!(cls.row(i), enc.embed_cls(ids), "cls row {i}");
        }
    }

    #[test]
    fn forward_batch_empty_input() {
        let (enc, _) = tiny();
        assert!(enc.forward_batch(&[]).is_empty());
        assert_eq!(enc.embed_mean_batch(&[]).rows(), 0);
    }

    #[test]
    fn deterministic_construction() {
        let config = ModelConfig::tiny(64);
        let a = Encoder::new(config, &mut StdRng::seed_from_u64(5));
        let b = Encoder::new(config, &mut StdRng::seed_from_u64(5));
        let ha = a.forward(&[2, 10, 3]);
        let hb = b.forward(&[2, 10, 3]);
        assert_eq!(ha, hb);
    }
}
