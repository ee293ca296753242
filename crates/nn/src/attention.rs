//! Multi-head self-attention with manual backprop.

use crate::linear::{Linear, LinearCache};
use linalg::ops::softmax_rows_inplace;
use linalg::Matrix;
use rand::Rng;

/// Multi-head scaled-dot-product self-attention over one sequence
/// `(seq_len, hidden)`.
#[derive(Debug, Clone)]
pub struct MultiHeadAttention {
    wq: Linear,
    wk: Linear,
    wv: Linear,
    wo: Linear,
    heads: usize,
    head_dim: usize,
}

/// Forward cache for [`MultiHeadAttention::backward`].
#[derive(Debug)]
pub struct AttentionCache {
    q: Matrix,
    k: Matrix,
    v: Matrix,
    /// Per-head post-softmax attention probabilities `(s, s)`.
    probs: Vec<Matrix>,
    cq: LinearCache,
    ck: LinearCache,
    cv: LinearCache,
    co: LinearCache,
}

impl MultiHeadAttention {
    /// Creates attention with `heads` heads over `hidden` channels.
    ///
    /// # Panics
    ///
    /// Panics if `hidden % heads != 0`.
    pub fn new<R: Rng + ?Sized>(rng: &mut R, hidden: usize, heads: usize) -> Self {
        assert_eq!(hidden % heads, 0, "hidden must divide by heads");
        MultiHeadAttention {
            wq: Linear::new(rng, hidden, hidden),
            wk: Linear::new(rng, hidden, hidden),
            wv: Linear::new(rng, hidden, hidden),
            wo: Linear::new(rng, hidden, hidden),
            heads,
            head_dim: hidden / heads,
        }
    }

    /// Returns the attention probabilities of the last forward pass'
    /// cache, one `(s, s)` matrix per head — useful for inspection.
    pub fn probs<'c>(&self, cache: &'c AttentionCache) -> &'c [Matrix] {
        &cache.probs
    }

    /// Forward pass over one sequence `x: (s, hidden)`.
    pub fn forward(&self, x: &Matrix) -> (Matrix, AttentionCache) {
        let s = x.rows();
        let (q, cq) = self.wq.forward(x);
        let (k, ck) = self.wk.forward(x);
        let (v, cv) = self.wv.forward(x);
        let scale = 1.0 / (self.head_dim as f32).sqrt();

        let mut ctx = Matrix::zeros(s, self.heads * self.head_dim);
        let mut probs = Vec::with_capacity(self.heads);
        for h in 0..self.heads {
            let off = h * self.head_dim;
            let qh = q.col_block(off, self.head_dim);
            let kh = k.col_block(off, self.head_dim);
            let vh = v.col_block(off, self.head_dim);
            let mut scores = qh.matmul_transposed(&kh);
            scores.map_inplace(|v| v * scale);
            softmax_rows_inplace(&mut scores);
            let ctx_h = scores.matmul(&vh);
            ctx.set_col_block(off, &ctx_h);
            probs.push(scores);
        }
        let (out, co) = self.wo.forward(&ctx);
        (
            out,
            AttentionCache {
                q,
                k,
                v,
                probs,
                cq,
                ck,
                cv,
                co,
            },
        )
    }

    /// Inference-only forward over `nseq = x.rows() / seq_len`
    /// equal-length sequences stacked row-wise (`seq_len == x.rows()`
    /// is the one-sequence case).
    ///
    /// The Q/K/V/O projections run as single large matmuls over the
    /// whole stack (the O(s·d²) bulk of the layer); the O(s²·d)
    /// attention core runs per sequence on row blocks, so no token
    /// attends across sequence boundaries and no padding mask is
    /// needed. Every per-row float operation matches
    /// [`MultiHeadAttention::forward`] exactly, making the batched
    /// output bit-identical to sequence-at-a-time forwards.
    ///
    /// # Panics
    ///
    /// Panics if `x.rows()` is not a multiple of `seq_len`.
    pub fn apply_batched(&self, x: &Matrix, seq_len: usize) -> Matrix {
        assert!(seq_len > 0, "seq_len must be positive");
        assert_eq!(
            x.rows() % seq_len,
            0,
            "stacked rows {} not a multiple of seq_len {seq_len}",
            x.rows()
        );
        let q = self.wq.apply(x);
        let k = self.wk.apply(x);
        let v = self.wv.apply(x);
        let scale = 1.0 / (self.head_dim as f32).sqrt();
        let (heads, head_dim) = (self.heads, self.head_dim);
        let width = heads * head_dim;

        let mut ctx = Matrix::zeros(x.rows(), width);
        // Sequences are independent, so the core splits on whole
        // sequences of ctx rows. Its multiply-adds: per sequence and
        // head, scores (T²·head_dim) plus context (T²·head_dim).
        let work = x.rows() * 2 * seq_len * width;
        linalg::par::for_each_chunk_mut(
            ctx.as_mut_slice(),
            seq_len * width,
            work,
            |first, chunk| {
                let first_row = first / width;
                for (local, seq) in chunk.chunks_exact_mut(seq_len * width).enumerate() {
                    let row0 = first_row + local * seq_len;
                    for h in 0..heads {
                        let off = h * head_dim;
                        // Contiguous per-sequence, per-head views, then
                        // the same matmuls the training forward runs.
                        let qh = q.sub_block(row0, seq_len, off, head_dim);
                        let kh = k.sub_block(row0, seq_len, off, head_dim);
                        let vh = v.sub_block(row0, seq_len, off, head_dim);
                        let mut scores = qh.matmul_transposed(&kh);
                        scores.map_inplace(|s| s * scale);
                        softmax_rows_inplace(&mut scores);
                        let ctx_h = scores.matmul(&vh);
                        for (r, dst) in seq.chunks_exact_mut(width).enumerate() {
                            dst[off..off + head_dim].copy_from_slice(ctx_h.row(r));
                        }
                    }
                }
            },
        );
        self.wo.apply(&ctx)
    }

    /// Backward pass: accumulates all projection grads, returns `dx`.
    pub fn backward(&mut self, cache: &AttentionCache, dout: &Matrix) -> Matrix {
        let s = dout.rows();
        let scale = 1.0 / (self.head_dim as f32).sqrt();
        let dctx = self.wo.backward(&cache.co, dout);

        let mut dq = Matrix::zeros(s, self.heads * self.head_dim);
        let mut dk = Matrix::zeros(s, self.heads * self.head_dim);
        let mut dv = Matrix::zeros(s, self.heads * self.head_dim);

        for h in 0..self.heads {
            let off = h * self.head_dim;
            let dctx_h = dctx.col_block(off, self.head_dim);
            let probs = &cache.probs[h];
            let kh = cache.k.col_block(off, self.head_dim);
            let qh = cache.q.col_block(off, self.head_dim);
            let vh = cache.v.col_block(off, self.head_dim);

            // dV_h = probsᵀ · dctx_h
            let dvh = probs.transpose().matmul(&dctx_h);
            dv.set_col_block(off, &dvh);

            // dprobs = dctx_h · V_hᵀ
            let dprobs = dctx_h.matmul_transposed(&vh);

            // Softmax backward per row: ds = p ⊙ (dp − Σ dp⊙p).
            let mut dscores = Matrix::zeros(s, s);
            for r in 0..s {
                let p = probs.row(r);
                let dp = dprobs.row(r);
                let dot: f32 = p.iter().zip(dp).map(|(a, b)| a * b).sum();
                let out = dscores.row_mut(r);
                for c in 0..s {
                    out[c] = p[c] * (dp[c] - dot);
                }
            }
            dscores.map_inplace(|v| v * scale);

            // dQ_h = dscores · K_h ;  dK_h = dscoresᵀ · Q_h
            dq.set_col_block(off, &dscores.matmul(&kh));
            dk.set_col_block(off, &dscores.transpose().matmul(&qh));
        }

        let dx_q = self.wq.backward(&cache.cq, &dq);
        let dx_k = self.wk.backward(&cache.ck, &dk);
        let dx_v = self.wv.backward(&cache.cv, &dv);
        let mut dx = dx_q;
        dx += &dx_k;
        dx += &dx_v;
        dx
    }

    /// Visits all projection parameters in stable order.
    pub fn visit_params(&mut self, f: &mut impl FnMut(&mut crate::param::Param)) {
        self.wq.visit_params(f);
        self.wk.visit_params(f);
        self.wv.visit_params(f);
        self.wo.visit_params(f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use linalg::rng::randn;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn loss(y: &Matrix) -> f32 {
        0.5 * y.as_slice().iter().map(|v| v * v).sum::<f32>()
    }

    #[test]
    fn forward_shape() {
        let mut rng = StdRng::seed_from_u64(1);
        let attn = MultiHeadAttention::new(&mut rng, 16, 4);
        let x = randn(&mut rng, 5, 16, 1.0);
        let (y, cache) = attn.forward(&x);
        assert_eq!(y.shape(), (5, 16));
        assert_eq!(attn.probs(&cache).len(), 4);
        assert_eq!(attn.probs(&cache)[0].shape(), (5, 5));
    }

    #[test]
    fn attention_rows_sum_to_one() {
        let mut rng = StdRng::seed_from_u64(2);
        let attn = MultiHeadAttention::new(&mut rng, 8, 2);
        let x = randn(&mut rng, 6, 8, 1.0);
        let (_, cache) = attn.forward(&x);
        for p in attn.probs(&cache) {
            for r in 0..p.rows() {
                let sum: f32 = p.row(r).iter().sum();
                assert!((sum - 1.0).abs() < 1e-4);
            }
        }
    }

    #[test]
    fn gradient_check_input() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut attn = MultiHeadAttention::new(&mut rng, 8, 2);
        let x = randn(&mut rng, 4, 8, 0.8);
        let (y, cache) = attn.forward(&x);
        let dx = attn.backward(&cache, &y);

        let eps = 1e-2;
        for idx in [(0usize, 0usize), (1, 5), (3, 7), (2, 3)] {
            let mut xp = x.clone();
            xp[idx] += eps;
            let (yp, _) = attn.forward(&xp);
            let mut xm = x.clone();
            xm[idx] -= eps;
            let (ym, _) = attn.forward(&xm);
            let numeric = (loss(&yp) - loss(&ym)) / (2.0 * eps);
            assert!(
                (numeric - dx[idx]).abs() < 5e-2 * (1.0 + numeric.abs()),
                "dx{idx:?}: numeric {numeric} vs analytic {}",
                dx[idx]
            );
        }
    }

    #[test]
    fn gradient_check_query_weight() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut attn = MultiHeadAttention::new(&mut rng, 8, 2);
        let x = randn(&mut rng, 4, 8, 0.8);
        let (y, cache) = attn.forward(&x);
        let _ = attn.backward(&cache, &y);

        let eps = 1e-2;
        for idx in [(0usize, 0usize), (3, 6)] {
            let orig = attn.wq.w.value[idx];
            attn.wq.w.value[idx] = orig + eps;
            let (yp, _) = attn.forward(&x);
            attn.wq.w.value[idx] = orig - eps;
            let (ym, _) = attn.forward(&x);
            attn.wq.w.value[idx] = orig;
            let numeric = (loss(&yp) - loss(&ym)) / (2.0 * eps);
            let analytic = attn.wq.w.grad[idx];
            assert!(
                (numeric - analytic).abs() < 5e-2 * (1.0 + numeric.abs()),
                "dWq{idx:?}: numeric {numeric} vs analytic {analytic}"
            );
        }
    }

    #[test]
    fn gradient_check_output_weight() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut attn = MultiHeadAttention::new(&mut rng, 8, 2);
        let x = randn(&mut rng, 3, 8, 0.8);
        let (y, cache) = attn.forward(&x);
        let _ = attn.backward(&cache, &y);

        let eps = 1e-2;
        let idx = (2usize, 4usize);
        let orig = attn.wo.w.value[idx];
        attn.wo.w.value[idx] = orig + eps;
        let (yp, _) = attn.forward(&x);
        attn.wo.w.value[idx] = orig - eps;
        let (ym, _) = attn.forward(&x);
        attn.wo.w.value[idx] = orig;
        let numeric = (loss(&yp) - loss(&ym)) / (2.0 * eps);
        assert!((numeric - attn.wo.w.grad[idx]).abs() < 5e-2 * (1.0 + numeric.abs()));
    }

    #[test]
    fn single_token_sequence_works() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut attn = MultiHeadAttention::new(&mut rng, 8, 2);
        let x = randn(&mut rng, 1, 8, 1.0);
        let (y, cache) = attn.forward(&x);
        assert_eq!(y.shape(), (1, 8));
        // Softmax over a single position is 1.0.
        assert!((attn.probs(&cache)[0][(0, 0)] - 1.0).abs() < 1e-6);
        let dx = attn.backward(&cache, &y);
        assert_eq!(dx.shape(), (1, 8));
    }

    #[test]
    fn visit_params_counts_eight_tensors() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut attn = MultiHeadAttention::new(&mut rng, 8, 2);
        let mut n = 0;
        attn.visit_params(&mut |_| n += 1);
        assert_eq!(n, 8); // 4 linears × (W, b)
    }
}
