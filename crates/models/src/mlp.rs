//! Multi-layer perceptron with ReLU activations.

use rand::rngs::StdRng;
use rand::SeedableRng;
use spyker_tensor::{
    apply_relu_grad_mask, cross_entropy_from_logits_into, he_init, relu_into, Matrix,
};

use crate::model::{pull_matrix, pull_vec, push_matrix, push_vec, DenseModel};

/// Persistent temporaries for [`Mlp`] forward/backward passes.
///
/// Every buffer is reused across steps via the `_into` kernels, so from the
/// second step on a train or eval batch of the same shape allocates nothing.
#[derive(Debug, Clone, Default)]
struct MlpScratch {
    /// Per-layer pre-activations; the last entry holds the logits.
    pre: Vec<Matrix>,
    /// Post-ReLU activations of the hidden layers (`acts[i] = relu(pre[i])`).
    acts: Vec<Matrix>,
    /// Gradient w.r.t. the current layer's pre-activation.
    delta: Matrix,
    /// Gradient being propagated to the previous layer.
    next_delta: Matrix,
    /// Bias-gradient accumulator.
    db: Vec<f32>,
}

/// A fully-connected ReLU network with a softmax head.
///
/// `layer_sizes` gives the full pipeline including input and output, e.g.
/// `[64, 32, 10]` is one hidden layer of 32 units.
#[derive(Debug, Clone)]
pub struct Mlp {
    weights: Vec<Matrix>,
    biases: Vec<Vec<f32>>,
    scratch: MlpScratch,
}

impl Mlp {
    /// Creates an MLP with the given layer sizes, He-initialised from
    /// `seed`.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two sizes are given or any size is zero.
    pub fn new(layer_sizes: &[usize], seed: u64) -> Self {
        assert!(
            layer_sizes.len() >= 2,
            "need at least input and output sizes"
        );
        assert!(
            layer_sizes.iter().all(|&s| s > 0),
            "layer sizes must be positive"
        );
        let mut rng = StdRng::seed_from_u64(seed ^ 0x2545_f491_4f6c_dd1d);
        let mut weights = Vec::new();
        let mut biases = Vec::new();
        for win in layer_sizes.windows(2) {
            weights.push(he_init(win[0], win[1], &mut rng));
            biases.push(vec![0.0; win[1]]);
        }
        Self {
            weights,
            biases,
            scratch: MlpScratch::default(),
        }
    }

    /// Number of layers (weight matrices).
    pub fn num_layers(&self) -> usize {
        self.weights.len()
    }

    /// Forward pass into the scratch buffers: fills `scratch.pre` (the last
    /// entry holds the logits) and `scratch.acts`.
    fn forward(&mut self, x: &Matrix) {
        let Self {
            weights,
            biases,
            scratch,
        } = self;
        let n = weights.len();
        scratch.pre.resize_with(n, Matrix::default);
        scratch.acts.resize_with(n - 1, Matrix::default);
        for i in 0..n {
            let z = &mut scratch.pre[i];
            let input: &Matrix = if i == 0 { x } else { &scratch.acts[i - 1] };
            input.matmul_into(&weights[i], z);
            z.add_row_broadcast(&biases[i]);
            if i + 1 < n {
                relu_into(z, &mut scratch.acts[i]);
            }
        }
    }
}

impl DenseModel for Mlp {
    fn num_params(&self) -> usize {
        self.weights.iter().map(Matrix::len).sum::<usize>()
            + self.biases.iter().map(Vec::len).sum::<usize>()
    }

    fn write_params(&self, out: &mut [f32]) {
        assert_eq!(out.len(), self.num_params(), "parameter length mismatch");
        let mut off = 0;
        for (w, b) in self.weights.iter().zip(&self.biases) {
            push_matrix(out, &mut off, w);
            push_vec(out, &mut off, b);
        }
    }

    fn read_params(&mut self, src: &[f32]) {
        assert_eq!(src.len(), self.num_params(), "parameter length mismatch");
        let mut off = 0;
        for (w, b) in self.weights.iter_mut().zip(&mut self.biases) {
            pull_matrix(src, &mut off, w);
            pull_vec(src, &mut off, b);
        }
    }

    fn train_batch(&mut self, x: &Matrix, y: &[usize], lr: f32) -> f32 {
        self.forward(x);
        let Self {
            weights,
            biases,
            scratch,
        } = self;
        let n = weights.len();
        let MlpScratch {
            pre,
            acts,
            delta,
            next_delta,
            db,
        } = scratch;
        let loss = cross_entropy_from_logits_into(&pre[n - 1], y, delta);
        for i in (0..n).rev() {
            let input: &Matrix = if i == 0 { x } else { &acts[i - 1] };
            db.clear();
            db.resize(delta.cols(), 0.0);
            delta.sum_rows_into(db);
            // The delta goes back through the weights before they step.
            if i > 0 {
                delta.matmul_nt_into(&weights[i], next_delta);
                apply_relu_grad_mask(next_delta, &pre[i - 1]);
            }
            weights[i].axpy_tn(-lr, input, delta);
            for (b, g) in biases[i].iter_mut().zip(db.iter()) {
                *b -= lr * g;
            }
            if i > 0 {
                std::mem::swap(delta, next_delta);
            }
        }
        loss
    }

    fn eval_batch(&mut self, x: &Matrix, y: &[usize]) -> (f32, usize) {
        self.forward(x);
        let scratch = &mut self.scratch;
        let logits = scratch.pre.last().expect("at least one layer");
        let loss = cross_entropy_from_logits_into(logits, y, &mut scratch.delta);
        let mut correct = 0;
        for (r, &t) in y.iter().enumerate() {
            let row = logits.row(r);
            let mut best = 0;
            for (j, &v) in row.iter().enumerate() {
                if v > row[best] {
                    best = j;
                }
            }
            if best == t {
                correct += 1;
            }
        }
        (loss, correct)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::check_gradient;
    use spyker_data::synth::{SynthImages, SynthImagesSpec};

    #[test]
    fn params_round_trip() {
        let m = Mlp::new(&[5, 7, 3], 1);
        let flat = m.params_vec();
        assert_eq!(flat.len(), 5 * 7 + 7 + 7 * 3 + 3);
        let mut m2 = Mlp::new(&[5, 7, 3], 99);
        m2.read_params(&flat);
        assert_eq!(m2.params_vec(), flat);
    }

    #[test]
    fn gradient_matches_finite_differences() {
        let model = Mlp::new(&[3, 5, 4], 11);
        let x = Matrix::from_rows(&[&[0.4, -0.2, 0.9], &[-1.1, 0.6, 0.1]]);
        let y = [1usize, 3];
        let before = model.params_vec();
        let mut stepped = model.clone();
        stepped.train_batch(&x, &y, 1.0);
        let analytic: Vec<f32> = before
            .iter()
            .zip(&stepped.params_vec())
            .map(|(b, a)| b - a)
            .collect();
        let mut probe = model.clone();
        check_gradient(
            &before,
            |p| {
                probe.read_params(p);
                probe.eval_batch(&x, &y).0
            },
            &analytic,
            1e-2,
            3e-2,
        );
    }

    #[test]
    fn learns_xor_like_nonlinear_structure() {
        // Class = parity of signs, not linearly separable.
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for &a in &[-1.0f32, 1.0] {
            for &b in &[-1.0f32, 1.0] {
                for k in 0..8 {
                    let jit = (k as f32) * 0.02;
                    xs.push(vec![a + jit, b - jit]);
                    ys.push(usize::from((a > 0.0) != (b > 0.0)));
                }
            }
        }
        let rows: Vec<&[f32]> = xs.iter().map(Vec::as_slice).collect();
        let x = Matrix::from_rows(&rows);
        let mut model = Mlp::new(&[2, 16, 2], 3);
        for _ in 0..400 {
            model.train_batch(&x, &ys, 0.1);
        }
        let (_, correct) = model.eval_batch(&x, &ys);
        assert_eq!(correct, ys.len(), "failed to fit XOR");
    }

    #[test]
    fn learns_the_synthetic_task_better_than_chance() {
        let ds = SynthImages::generate(&SynthImagesSpec::mnist_like_scaled(300), 9);
        let mut model = Mlp::new(&[ds.train.feature_len(), 32, 10], 5);
        let idx: Vec<usize> = (0..ds.train.len()).collect();
        for chunk in idx.chunks(30).cycle().take(100) {
            let (x, y) = ds.train.gather_batch(chunk);
            model.train_batch(&x, &y, 0.05);
        }
        let all: Vec<usize> = (0..ds.test.len()).collect();
        let (x, y) = ds.test.gather_batch(&all);
        let (_, correct) = model.eval_batch(&x, &y);
        let acc = correct as f64 / y.len() as f64;
        assert!(acc > 0.7, "accuracy only {acc}");
    }
}
