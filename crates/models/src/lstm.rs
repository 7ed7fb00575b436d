//! Next-character LSTM language model (the paper's WikiText-2 model).
//!
//! Architecture, following the paper §5.1: an embedding layer, a single
//! LSTM layer, and a fully-connected layer producing a distribution over
//! the character vocabulary. Trained with truncated BPTT; gradients are
//! globally norm-clipped.

use rand::rngs::StdRng;
use rand::SeedableRng;
use spyker_tensor::{cross_entropy_from_logits_into, scalar_sigmoid, xavier_init, Matrix};

use crate::model::{clip_global_norm, pull_matrix, pull_vec, push_matrix, push_vec, SeqModel};

/// Persistent temporaries for [`CharLstm`] steps; reused across windows so
/// the BPTT hot loop is allocation-free after warm-up.
#[derive(Default)]
struct LstmScratch {
    /// Per-timestep forward caches (grown to the longest window seen).
    caches: Vec<StepCache>,
    /// Per-timestep loss gradients w.r.t. the logits.
    dlogits_all: Vec<Matrix>,
    /// Pre-gate buffer for the current step.
    pre: Vec<f32>,
    /// `1 x hidden` staging row for the output projection.
    hrow: Matrix,
    logits: Matrix,
    delta: Matrix,
    /// Streaming hidden/cell state for evaluation.
    h: Vec<f32>,
    c: Vec<f32>,
    /// All-zero initial state (sized `hidden`).
    zeros: Vec<f32>,
    // Gradient accumulators.
    d_embed: Matrix,
    d_wx: Matrix,
    d_wh: Matrix,
    d_b: Vec<f32>,
    d_wo: Matrix,
    d_bo: Vec<f32>,
    // BPTT carry and per-step buffers.
    dh_next: Vec<f32>,
    dc_next: Vec<f32>,
    dh: Vec<f32>,
    dgates_pre: Vec<f32>,
    dc_prev: Vec<f32>,
    dh_prev: Vec<f32>,
}

/// Character-level LSTM: embedding → LSTM → FC softmax head.
pub struct CharLstm {
    vocab: usize,
    embed_dim: usize,
    hidden: usize,
    /// Embedding table: `vocab x embed_dim`.
    embed: Matrix,
    /// Input-to-gates weights: `embed_dim x 4*hidden` (gate order i,f,g,o).
    w_x: Matrix,
    /// Hidden-to-gates weights: `hidden x 4*hidden`.
    w_h: Matrix,
    /// Gate biases: `4*hidden` (forget-gate bias initialised to 1).
    b: Vec<f32>,
    /// Output projection: `hidden x vocab`.
    w_o: Matrix,
    b_o: Vec<f32>,
    clip: f32,
    scratch: LstmScratch,
}

#[derive(Default)]
struct StepCache {
    token: usize,
    /// Gates after nonlinearity: i, f, g, o (each `hidden` wide).
    gates: Vec<f32>,
    c: Vec<f32>,
    h: Vec<f32>,
    tanh_c: Vec<f32>,
}

impl CharLstm {
    /// Creates a model with the given vocabulary size, embedding width and
    /// hidden width, initialised from `seed`.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    pub fn new(vocab: usize, embed_dim: usize, hidden: usize, seed: u64) -> Self {
        assert!(
            vocab > 0 && embed_dim > 0 && hidden > 0,
            "dimensions must be positive"
        );
        let mut rng = StdRng::seed_from_u64(seed ^ 0xd1b5_4a32_d192_ed03);
        let mut b = vec![0.0; 4 * hidden];
        // Forget-gate bias 1.0: standard trick for gradient flow early on.
        for v in &mut b[hidden..2 * hidden] {
            *v = 1.0;
        }
        Self {
            vocab,
            embed_dim,
            hidden,
            embed: xavier_init(vocab, embed_dim, &mut rng),
            w_x: xavier_init(embed_dim, 4 * hidden, &mut rng),
            w_h: xavier_init(hidden, 4 * hidden, &mut rng),
            b,
            w_o: xavier_init(hidden, vocab, &mut rng),
            b_o: vec![0.0; vocab],
            clip: 5.0,
            scratch: LstmScratch::default(),
        }
    }

    /// Vocabulary size.
    pub fn vocab(&self) -> usize {
        self.vocab
    }

    /// One LSTM step into a caller-owned cache.
    ///
    /// Note there is no `== 0.0` skip on the input or hidden values: the
    /// embedding and hidden state are dense, so the branch only cost a
    /// mispredict per element (the dense matmul kernels dropped the same
    /// branch).
    fn step_into(
        &self,
        token: usize,
        h_prev: &[f32],
        c_prev: &[f32],
        pre: &mut Vec<f32>,
        cache: &mut StepCache,
    ) {
        let hid = self.hidden;
        let x = self.embed.row(token);
        // pre-gates = x W_x + h W_h + b
        pre.clear();
        pre.extend_from_slice(&self.b);
        for (k, &xv) in x.iter().enumerate() {
            let row = self.w_x.row(k);
            for (p, &wv) in pre.iter_mut().zip(row) {
                *p += xv * wv;
            }
        }
        for (k, &hv) in h_prev.iter().enumerate() {
            let row = self.w_h.row(k);
            for (p, &wv) in pre.iter_mut().zip(row) {
                *p += hv * wv;
            }
        }
        cache.token = token;
        let gates = &mut cache.gates;
        gates.clear();
        gates.resize(4 * hid, 0.0);
        for j in 0..hid {
            gates[j] = scalar_sigmoid(pre[j]); // i
            gates[hid + j] = scalar_sigmoid(pre[hid + j]); // f
            gates[2 * hid + j] = pre[2 * hid + j].tanh(); // g
            gates[3 * hid + j] = scalar_sigmoid(pre[3 * hid + j]); // o
        }
        cache.c.clear();
        cache.c.resize(hid, 0.0);
        cache.tanh_c.clear();
        cache.tanh_c.resize(hid, 0.0);
        cache.h.clear();
        cache.h.resize(hid, 0.0);
        let gates = &cache.gates;
        for (j, ((c, tc), h)) in cache
            .c
            .iter_mut()
            .zip(cache.tanh_c.iter_mut())
            .zip(cache.h.iter_mut())
            .enumerate()
        {
            *c = gates[hid + j] * c_prev[j] + gates[j] * gates[2 * hid + j];
            *tc = c.tanh();
            *h = gates[3 * hid + j] * *tc;
        }
    }

    /// Output-layer logits for a hidden state, staged through `hrow`.
    fn logits_from_h_into(&self, h: &[f32], hrow: &mut Matrix, out: &mut Matrix) {
        hrow.reset_dims(1, self.hidden);
        hrow.as_mut_slice().copy_from_slice(h);
        hrow.matmul_into(&self.w_o, out);
        out.add_row_broadcast(&self.b_o);
    }
}

impl SeqModel for CharLstm {
    fn num_params(&self) -> usize {
        self.embed.len()
            + self.w_x.len()
            + self.w_h.len()
            + self.b.len()
            + self.w_o.len()
            + self.b_o.len()
    }

    fn write_params(&self, out: &mut [f32]) {
        assert_eq!(out.len(), self.num_params(), "parameter length mismatch");
        let mut off = 0;
        push_matrix(out, &mut off, &self.embed);
        push_matrix(out, &mut off, &self.w_x);
        push_matrix(out, &mut off, &self.w_h);
        push_vec(out, &mut off, &self.b);
        push_matrix(out, &mut off, &self.w_o);
        push_vec(out, &mut off, &self.b_o);
    }

    fn read_params(&mut self, src: &[f32]) {
        assert_eq!(src.len(), self.num_params(), "parameter length mismatch");
        let mut off = 0;
        pull_matrix(src, &mut off, &mut self.embed);
        pull_matrix(src, &mut off, &mut self.w_x);
        pull_matrix(src, &mut off, &mut self.w_h);
        pull_vec(src, &mut off, &mut self.b);
        pull_matrix(src, &mut off, &mut self.w_o);
        pull_vec(src, &mut off, &mut self.b_o);
    }

    fn train_window(&mut self, tokens: &[u8], lr: f32) -> f32 {
        assert!(tokens.len() >= 2, "window must contain at least two tokens");
        let hid = self.hidden;
        let steps = tokens.len() - 1;
        let mut scratch = std::mem::take(&mut self.scratch);
        // Forward.
        if scratch.caches.len() < steps {
            scratch.caches.resize_with(steps, StepCache::default);
        }
        if scratch.dlogits_all.len() < steps {
            scratch.dlogits_all.resize_with(steps, Matrix::default);
        }
        scratch.zeros.clear();
        scratch.zeros.resize(hid, 0.0);
        let mut loss = 0.0f32;
        for t in 0..steps {
            let (done, todo) = scratch.caches.split_at_mut(t);
            let cache = &mut todo[0];
            let (h_prev, c_prev): (&[f32], &[f32]) = match done.last() {
                Some(prev) => (&prev.h, &prev.c),
                None => (&scratch.zeros, &scratch.zeros),
            };
            self.step_into(tokens[t] as usize, h_prev, c_prev, &mut scratch.pre, cache);
            self.logits_from_h_into(&cache.h, &mut scratch.hrow, &mut scratch.logits);
            loss += cross_entropy_from_logits_into(
                &scratch.logits,
                &[tokens[t + 1] as usize],
                &mut scratch.dlogits_all[t],
            );
        }
        // Backward through time.
        scratch.d_embed.reset_dims(self.vocab, self.embed_dim);
        scratch.d_embed.as_mut_slice().fill(0.0);
        scratch.d_wx.reset_dims(self.embed_dim, 4 * hid);
        scratch.d_wx.as_mut_slice().fill(0.0);
        scratch.d_wh.reset_dims(hid, 4 * hid);
        scratch.d_wh.as_mut_slice().fill(0.0);
        scratch.d_b.clear();
        scratch.d_b.resize(4 * hid, 0.0);
        scratch.d_wo.reset_dims(hid, self.vocab);
        scratch.d_wo.as_mut_slice().fill(0.0);
        scratch.d_bo.clear();
        scratch.d_bo.resize(self.vocab, 0.0);
        scratch.dh_next.clear();
        scratch.dh_next.resize(hid, 0.0);
        scratch.dc_next.clear();
        scratch.dc_next.resize(hid, 0.0);
        let LstmScratch {
            caches,
            dlogits_all,
            zeros,
            d_embed,
            d_wx,
            d_wh,
            d_b,
            d_wo,
            d_bo,
            dh_next,
            dc_next,
            dh,
            dgates_pre,
            dc_prev,
            dh_prev,
            ..
        } = &mut scratch;
        let inv = 1.0 / steps as f32;
        for t in (0..steps).rev() {
            let cache = &caches[t];
            let dl = &dlogits_all[t];
            // Output layer grads.
            for j in 0..hid {
                for v in 0..self.vocab {
                    d_wo[(j, v)] += cache.h[j] * dl[(0, v)] * inv;
                }
            }
            for v in 0..self.vocab {
                d_bo[v] += dl[(0, v)] * inv;
            }
            // dh = W_o dl + dh_next.
            dh.clear();
            dh.extend_from_slice(dh_next);
            for (j, dh_j) in dh.iter_mut().enumerate().take(hid) {
                let row = self.w_o.row(j);
                let mut acc = 0.0;
                for (v, &wv) in row.iter().enumerate() {
                    acc += wv * dl[(0, v)];
                }
                *dh_j += acc * inv;
            }
            // Through the LSTM cell.
            let (i_g, f_g, g_g, o_g) = (
                &cache.gates[..hid],
                &cache.gates[hid..2 * hid],
                &cache.gates[2 * hid..3 * hid],
                &cache.gates[3 * hid..4 * hid],
            );
            let (c_prev, h_prev): (&[f32], &[f32]) = if t > 0 {
                (&caches[t - 1].c, &caches[t - 1].h)
            } else {
                (&zeros[..], &zeros[..])
            };
            dgates_pre.clear();
            dgates_pre.resize(4 * hid, 0.0);
            dc_prev.clear();
            dc_prev.resize(hid, 0.0);
            for j in 0..hid {
                let do_ = dh[j] * cache.tanh_c[j];
                let dc = dc_next[j] + dh[j] * o_g[j] * (1.0 - cache.tanh_c[j] * cache.tanh_c[j]);
                let di = dc * g_g[j];
                let df = dc * c_prev[j];
                let dg = dc * i_g[j];
                dc_prev[j] = dc * f_g[j];
                dgates_pre[j] = di * i_g[j] * (1.0 - i_g[j]);
                dgates_pre[hid + j] = df * f_g[j] * (1.0 - f_g[j]);
                dgates_pre[2 * hid + j] = dg * (1.0 - g_g[j] * g_g[j]);
                dgates_pre[3 * hid + j] = do_ * o_g[j] * (1.0 - o_g[j]);
            }
            // Accumulate parameter grads.
            let x = self.embed.row(cache.token);
            for (k, &xv) in x.iter().enumerate() {
                let row = d_wx.row_mut(k);
                for (rv, &dg) in row.iter_mut().zip(dgates_pre.iter()) {
                    *rv += xv * dg;
                }
            }
            for (k, &hv) in h_prev.iter().enumerate() {
                let row = d_wh.row_mut(k);
                for (rv, &dg) in row.iter_mut().zip(dgates_pre.iter()) {
                    *rv += hv * dg;
                }
            }
            for (bv, &dg) in d_b.iter_mut().zip(dgates_pre.iter()) {
                *bv += dg;
            }
            // dx -> embedding grad.
            {
                let erow = d_embed.row_mut(cache.token);
                for (k, ev) in erow.iter_mut().enumerate() {
                    let wrow = self.w_x.row(k);
                    let mut acc = 0.0;
                    for (wv, &dg) in wrow.iter().zip(dgates_pre.iter()) {
                        acc += wv * dg;
                    }
                    *ev += acc;
                }
            }
            // dh_prev for the next (earlier) step.
            dh_prev.clear();
            dh_prev.resize(hid, 0.0);
            for (k, dhp) in dh_prev.iter_mut().enumerate() {
                let wrow = self.w_h.row(k);
                let mut acc = 0.0;
                for (wv, &dg) in wrow.iter().zip(dgates_pre.iter()) {
                    acc += wv * dg;
                }
                *dhp = acc;
            }
            std::mem::swap(dh_next, dh_prev);
            std::mem::swap(dc_next, dc_prev);
        }
        // Clip and apply.
        {
            let mut grads: [&mut [f32]; 6] = [
                d_embed.as_mut_slice(),
                d_wx.as_mut_slice(),
                d_wh.as_mut_slice(),
                d_b.as_mut_slice(),
                d_wo.as_mut_slice(),
                d_bo.as_mut_slice(),
            ];
            clip_global_norm(&mut grads, self.clip);
        }
        self.embed.axpy(-lr, d_embed);
        self.w_x.axpy(-lr, d_wx);
        self.w_h.axpy(-lr, d_wh);
        for (b, g) in self.b.iter_mut().zip(d_b.iter()) {
            *b -= lr * g;
        }
        self.w_o.axpy(-lr, d_wo);
        for (b, g) in self.b_o.iter_mut().zip(d_bo.iter()) {
            *b -= lr * g;
        }
        self.scratch = scratch;
        loss / steps as f32
    }

    fn eval_stream(&mut self, tokens: &[u8]) -> f64 {
        if tokens.len() < 2 {
            return 0.0;
        }
        let hid = self.hidden;
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.h.clear();
        scratch.h.resize(hid, 0.0);
        scratch.c.clear();
        scratch.c.resize(hid, 0.0);
        if scratch.caches.is_empty() {
            scratch.caches.resize_with(1, StepCache::default);
        }
        let mut loss = 0.0f64;
        let steps = tokens.len() - 1;
        for t in 0..steps {
            let (head, _) = scratch.caches.split_at_mut(1);
            let cache = &mut head[0];
            self.step_into(
                tokens[t] as usize,
                &scratch.h,
                &scratch.c,
                &mut scratch.pre,
                cache,
            );
            self.logits_from_h_into(&cache.h, &mut scratch.hrow, &mut scratch.logits);
            loss += cross_entropy_from_logits_into(
                &scratch.logits,
                &[tokens[t + 1] as usize],
                &mut scratch.delta,
            ) as f64;
            scratch.h.copy_from_slice(&cache.h);
            scratch.c.copy_from_slice(&cache.c);
        }
        self.scratch = scratch;
        loss / steps as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::check_gradient;
    use crate::model::SeqModel;
    use spyker_data::synth::{SynthText, SynthTextSpec};

    #[test]
    fn params_round_trip() {
        let m = CharLstm::new(6, 3, 4, 1);
        let flat = m.params_vec();
        assert_eq!(flat.len(), m.num_params());
        let mut m2 = CharLstm::new(6, 3, 4, 2);
        m2.read_params(&flat);
        assert_eq!(flat, m2.params_vec());
    }

    #[test]
    fn gradient_matches_finite_differences() {
        let mut model = CharLstm::new(5, 3, 4, 9);
        model.clip = 1e9; // disable clipping for the check
        let window = [0u8, 2, 4, 1, 3, 0];
        let before = model.params_vec();
        let mut stepped = CharLstm::new(5, 3, 4, 9);
        stepped.clip = 1e9;
        stepped.read_params(&before);
        stepped.train_window(&window, 1.0);
        let after = stepped.params_vec();
        let analytic: Vec<f32> = before.iter().zip(&after).map(|(b, a)| b - a).collect();
        let mut probe = CharLstm::new(5, 3, 4, 9);
        check_gradient(
            &before,
            |p| {
                probe.read_params(p);
                probe.eval_stream(&window) as f32
            },
            &analytic,
            1e-2,
            3e-2,
        );
    }

    #[test]
    fn learns_a_deterministic_cycle() {
        // Sequence 0 1 2 3 0 1 2 3 ... must become fully predictable.
        let stream: Vec<u8> = (0..400).map(|i| (i % 4) as u8).collect();
        let mut model = CharLstm::new(4, 4, 8, 3);
        for _ in 0..30 {
            for win in stream.chunks(20) {
                model.train_window(win, 0.5);
            }
        }
        let ce = model.eval_stream(&stream);
        let ppl = ce.exp();
        assert!(ppl < 1.5, "perplexity {ppl} on a deterministic cycle");
    }

    #[test]
    fn perplexity_improves_on_synthetic_text() {
        let ds = SynthText::generate(&SynthTextSpec::wikitext_like(4000), 4);
        let mut model = CharLstm::new(28, 12, 16, 7);
        let uniform = (28.0f64).ln();
        let n = ds.test.len().min(400);
        let before = model.eval_stream(&ds.test.tokens()[..n]);
        assert!(
            (before - uniform).abs() < 1.0,
            "untrained CE should be near ln(V)"
        );
        for _ in 0..3 {
            for win in ds.train.tokens().chunks(32) {
                if win.len() >= 2 {
                    model.train_window(win, 1.0);
                }
            }
        }
        let after = model.eval_stream(&ds.test.tokens()[..n]);
        let (before_ppl, after_ppl) = (before.exp(), after.exp());
        assert!(
            after_ppl < before_ppl / 3.0,
            "perplexity did not improve enough: {before_ppl} -> {after_ppl}"
        );
    }

    #[test]
    #[should_panic(expected = "at least two tokens")]
    fn train_window_rejects_tiny_windows() {
        let mut model = CharLstm::new(4, 2, 2, 0);
        model.train_window(&[1], 0.1);
    }
}
