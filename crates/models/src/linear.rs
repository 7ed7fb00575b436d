//! Softmax (multinomial logistic) regression.

use rand::rngs::StdRng;
use rand::SeedableRng;
use spyker_tensor::{cross_entropy_from_logits_into, xavier_init, Matrix};

use crate::model::{pull_matrix, pull_vec, push_matrix, push_vec, DenseModel};

/// Persistent temporaries for [`SoftmaxRegression`] steps.
#[derive(Debug, Clone, Default)]
struct LinearScratch {
    logits: Matrix,
    dlogits: Matrix,
    db: Vec<f32>,
}

/// A linear classifier with softmax output and cross-entropy loss.
///
/// Fast enough to run the large federated sweeps of the evaluation section
/// while remaining a genuine gradient-descent learner; the MNIST-like
/// synthetic task is linearly separable, mirroring how easy real MNIST is
/// for the paper's small CNN.
#[derive(Debug, Clone)]
pub struct SoftmaxRegression {
    w: Matrix,
    b: Vec<f32>,
    scratch: LinearScratch,
}

impl SoftmaxRegression {
    /// Creates a model for `features`-dimensional inputs and `classes`
    /// outputs, Xavier-initialised from `seed`.
    pub fn new(features: usize, classes: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x51_7c_c1_b7_27_22_0a_95);
        Self {
            w: xavier_init(features, classes, &mut rng),
            b: vec![0.0; classes],
            scratch: LinearScratch::default(),
        }
    }

    /// Class logits for a batch (rows are samples).
    pub fn logits(&self, x: &Matrix) -> Matrix {
        let mut out = Matrix::default();
        self.logits_into(x, &mut out);
        out
    }

    /// [`SoftmaxRegression::logits`] into a caller-owned output.
    pub fn logits_into(&self, x: &Matrix, out: &mut Matrix) {
        x.matmul_into(&self.w, out);
        out.add_row_broadcast(&self.b);
    }
}

impl DenseModel for SoftmaxRegression {
    fn num_params(&self) -> usize {
        self.w.len() + self.b.len()
    }

    fn write_params(&self, out: &mut [f32]) {
        assert_eq!(out.len(), self.num_params(), "parameter length mismatch");
        let mut off = 0;
        push_matrix(out, &mut off, &self.w);
        push_vec(out, &mut off, &self.b);
    }

    fn read_params(&mut self, src: &[f32]) {
        assert_eq!(src.len(), self.num_params(), "parameter length mismatch");
        let mut off = 0;
        pull_matrix(src, &mut off, &mut self.w);
        pull_vec(src, &mut off, &mut self.b);
    }

    fn train_batch(&mut self, x: &Matrix, y: &[usize], lr: f32) -> f32 {
        let mut scratch = std::mem::take(&mut self.scratch);
        self.logits_into(x, &mut scratch.logits);
        let loss = cross_entropy_from_logits_into(&scratch.logits, y, &mut scratch.dlogits);
        // W -= lr * x^T * dlogits; db = column sums of dlogits.
        self.w.axpy_tn(-lr, x, &scratch.dlogits);
        scratch.db.clear();
        scratch.db.resize(scratch.dlogits.cols(), 0.0);
        scratch.dlogits.sum_rows_into(&mut scratch.db);
        for (b, g) in self.b.iter_mut().zip(&scratch.db) {
            *b -= lr * g;
        }
        self.scratch = scratch;
        loss
    }

    fn eval_batch(&mut self, x: &Matrix, y: &[usize]) -> (f32, usize) {
        let mut scratch = std::mem::take(&mut self.scratch);
        self.logits_into(x, &mut scratch.logits);
        let loss = cross_entropy_from_logits_into(&scratch.logits, y, &mut scratch.dlogits);
        let mut correct = 0;
        for (r, &t) in y.iter().enumerate() {
            let row = scratch.logits.row(r);
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
        self.scratch = scratch;
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
        let m = SoftmaxRegression::new(4, 3, 1);
        let flat = m.params_vec();
        assert_eq!(flat.len(), 4 * 3 + 3);
        let mut m2 = SoftmaxRegression::new(4, 3, 2);
        m2.read_params(&flat);
        assert_eq!(m2.params_vec(), flat);
    }

    #[test]
    fn gradient_matches_finite_differences() {
        let model = SoftmaxRegression::new(3, 4, 7);
        let x = Matrix::from_rows(&[&[0.2, -0.5, 1.0], &[1.5, 0.3, -0.2]]);
        let y = [2usize, 0];
        // Recover the analytic gradient from one SGD step with lr 1.
        let before = model.params_vec();
        let mut stepped = model.clone();
        stepped.train_batch(&x, &y, 1.0);
        let after = stepped.params_vec();
        let analytic: Vec<f32> = before.iter().zip(&after).map(|(b, a)| b - a).collect();
        let mut probe = model.clone();
        check_gradient(
            &before,
            |p| {
                probe.read_params(p);
                probe.eval_batch(&x, &y).0
            },
            &analytic,
            1e-2,
            2e-2,
        );
    }

    #[test]
    fn learns_the_synthetic_mnist_task() {
        let ds = SynthImages::generate(&SynthImagesSpec::mnist_like_scaled(600), 3);
        let mut model = SoftmaxRegression::new(ds.train.feature_len(), 10, 0);
        let idx: Vec<usize> = (0..ds.train.len()).collect();
        for chunk in idx.chunks(32).cycle().take(120) {
            let (x, y) = ds.train.gather_batch(chunk);
            model.train_batch(&x, &y, 0.1);
        }
        let all: Vec<usize> = (0..ds.test.len()).collect();
        let (x, y) = ds.test.gather_batch(&all);
        let (_, correct) = model.eval_batch(&x, &y);
        let acc = correct as f64 / y.len() as f64;
        assert!(acc > 0.9, "accuracy only {acc}");
    }

    #[test]
    fn training_reduces_loss_monotonically_at_small_lr() {
        let ds = SynthImages::generate(&SynthImagesSpec::mnist_like_scaled(100), 5);
        let (x, y) = ds.train.gather_batch(&(0..50).collect::<Vec<_>>());
        let mut model = SoftmaxRegression::new(ds.train.feature_len(), 10, 1);
        let mut prev = f32::INFINITY;
        for _ in 0..10 {
            let loss = model.train_batch(&x, &y, 0.02);
            assert!(loss < prev + 1e-4, "loss increased: {loss} > {prev}");
            prev = loss;
        }
    }
}
