//! Model traits and parameter (un)flattening helpers.

use spyker_tensor::Matrix;

/// A classification model over dense feature vectors (rows of a batch
/// matrix).
///
/// Implementations own their parameters; [`DenseModel::write_params`] /
/// [`DenseModel::read_params`] flatten them into the `ParamVec`
/// representation the FL protocol exchanges.
pub trait DenseModel: Send {
    /// Total number of scalar parameters.
    fn num_params(&self) -> usize;

    /// Writes all parameters (in a fixed, stable order) into `out`.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != self.num_params()`.
    fn write_params(&self, out: &mut [f32]);

    /// Loads parameters previously produced by [`DenseModel::write_params`].
    ///
    /// # Panics
    ///
    /// Panics if `src.len() != self.num_params()`.
    fn read_params(&mut self, src: &[f32]);

    /// Performs one SGD step on the batch and returns the mean loss.
    fn train_batch(&mut self, x: &Matrix, y: &[usize], lr: f32) -> f32;

    /// Returns `(mean loss, #correct)` on the batch without updating the
    /// parameters. Takes `&mut self` so implementations can reuse their
    /// persistent scratch buffers (the hot path is allocation-free).
    fn eval_batch(&mut self, x: &Matrix, y: &[usize]) -> (f32, usize);

    /// Convenience: parameters as a fresh vector.
    fn params_vec(&self) -> Vec<f32> {
        let mut out = vec![0.0; self.num_params()];
        self.write_params(&mut out);
        out
    }
}

/// A next-token language model over `u8` token streams.
pub trait SeqModel: Send {
    /// Total number of scalar parameters.
    fn num_params(&self) -> usize;

    /// Writes all parameters (in a fixed, stable order) into `out`.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != self.num_params()`.
    fn write_params(&self, out: &mut [f32]);

    /// Loads parameters previously produced by [`SeqModel::write_params`].
    ///
    /// # Panics
    ///
    /// Panics if `src.len() != self.num_params()`.
    fn read_params(&mut self, src: &[f32]);

    /// One truncated-BPTT SGD step over the window `tokens` (predicting
    /// each next token). Returns the mean per-token cross-entropy.
    ///
    /// # Panics
    ///
    /// Panics if the window has fewer than 2 tokens.
    fn train_window(&mut self, tokens: &[u8], lr: f32) -> f32;

    /// Mean per-token cross-entropy over `tokens` without updating the
    /// parameters. Takes `&mut self` for the same scratch-reuse reason as
    /// [`DenseModel::eval_batch`].
    fn eval_stream(&mut self, tokens: &[u8]) -> f64;

    /// Convenience: parameters as a fresh vector.
    fn params_vec(&self) -> Vec<f32> {
        let mut out = vec![0.0; self.num_params()];
        self.write_params(&mut out);
        out
    }
}

/// Writes `m`'s values into `out` at `*offset`, advancing the offset
/// (helper for `write_params`).
pub(crate) fn push_matrix(out: &mut [f32], offset: &mut usize, m: &Matrix) {
    push_vec(out, offset, m.as_slice());
}

/// Reads `m.len()` values from `src` at `*offset` into `m`, advancing the
/// offset (helper for `read_params`).
pub(crate) fn pull_matrix(src: &[f32], offset: &mut usize, m: &mut Matrix) {
    let len = m.len();
    m.as_mut_slice()
        .copy_from_slice(&src[*offset..*offset + len]);
    *offset += len;
}

/// Writes a plain vector (bias) into `out` at `*offset`.
pub(crate) fn push_vec(out: &mut [f32], offset: &mut usize, v: &[f32]) {
    out[*offset..*offset + v.len()].copy_from_slice(v);
    *offset += v.len();
}

/// Reads `v.len()` values from `src` at `*offset` into `v`.
pub(crate) fn pull_vec(src: &[f32], offset: &mut usize, v: &mut [f32]) {
    v.copy_from_slice(&src[*offset..*offset + v.len()]);
    *offset += v.len();
}

/// Rescales `grads` in place so their global L2 norm is at most `max_norm`
/// (standard recurrent-network gradient clipping). Returns the number of
/// non-finite entries zeroed.
///
/// Non-finite gradients (`NaN`/`±Inf` from an exploding recurrent backward
/// pass) are zeroed *before* the norm is computed: a single `NaN` would
/// otherwise poison the norm, make every comparison false, skip the clip
/// and spread through all weights on the next SGD step. The squared norm
/// accumulates in `f64` so large-but-finite gradients cannot overflow it
/// to `Inf` (which would zero the entire gradient instead of clipping it).
pub(crate) fn clip_global_norm(grads: &mut [&mut [f32]], max_norm: f32) -> usize {
    let mut zeroed = 0usize;
    let mut sq = 0.0f64;
    for g in grads.iter_mut() {
        for v in g.iter_mut() {
            if v.is_finite() {
                sq += f64::from(*v) * f64::from(*v);
            } else {
                *v = 0.0;
                zeroed += 1;
            }
        }
    }
    let norm = sq.sqrt();
    if norm > f64::from(max_norm) && norm > 0.0 {
        let scale = (f64::from(max_norm) / norm) as f32;
        for g in grads.iter_mut() {
            for v in g.iter_mut() {
                *v *= scale;
            }
        }
    }
    zeroed
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_pull_matrix_round_trips() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let mut flat = [0.0; 6];
        let mut off = 0;
        push_matrix(&mut flat, &mut off, &m);
        push_vec(&mut flat, &mut off, &[5.0, 6.0]);
        assert_eq!(off, 6);
        let mut m2 = Matrix::zeros(2, 2);
        let mut b = [0.0; 2];
        let mut off = 0;
        pull_matrix(&flat, &mut off, &mut m2);
        pull_vec(&flat, &mut off, &mut b);
        assert_eq!(m2, m);
        assert_eq!(b, [5.0, 6.0]);
        assert_eq!(off, 6);
    }

    #[test]
    fn clip_leaves_small_gradients_alone() {
        let mut a = vec![0.3, 0.4];
        clip_global_norm(&mut [&mut a], 1.0);
        assert_eq!(a, vec![0.3, 0.4]);
    }

    #[test]
    fn clip_rescales_large_gradients_to_max_norm() {
        let mut a = vec![3.0, 0.0];
        let mut b = vec![0.0, 4.0];
        clip_global_norm(&mut [&mut a, &mut b], 1.0);
        let norm = (a[0] * a[0] + a[1] * a[1] + b[0] * b[0] + b[1] * b[1]).sqrt();
        assert!((norm - 1.0).abs() < 1e-5);
        // Direction preserved.
        assert!((a[0] / b[1] - 0.75).abs() < 1e-5);
    }

    #[test]
    fn clip_zeroes_nan_and_inf_entries_and_counts_them() {
        let mut a = vec![f32::NAN, 3.0];
        let mut b = vec![f32::INFINITY, 4.0, f32::NEG_INFINITY];
        let zeroed = clip_global_norm(&mut [&mut a, &mut b], 10.0);
        assert_eq!(zeroed, 3);
        // The poisoned entries are gone and the finite ones, whose norm
        // (5.0) is under the bound, survive untouched.
        assert_eq!(a, vec![0.0, 3.0]);
        assert_eq!(b, vec![0.0, 4.0, 0.0]);
    }

    #[test]
    fn clip_still_rescales_after_zeroing_nonfinite_entries() {
        let mut a = vec![f32::NAN, 30.0, 40.0];
        let zeroed = clip_global_norm(&mut [&mut a], 5.0);
        assert_eq!(zeroed, 1);
        let norm = (a[1] * a[1] + a[2] * a[2]).sqrt();
        assert!((norm - 5.0).abs() < 1e-4, "norm {norm}");
        assert_eq!(a[0], 0.0);
    }

    #[test]
    fn huge_finite_gradients_are_clipped_not_zeroed() {
        // 3e30^2 overflows an f32 accumulator to Inf, which would turn the
        // clip scale into 0 and silently erase the gradient; the f64
        // accumulator keeps the direction.
        let mut a = vec![3e30f32, 4e30];
        let zeroed = clip_global_norm(&mut [&mut a], 1.0);
        assert_eq!(zeroed, 0);
        assert!((a[0] - 0.6).abs() < 1e-5, "got {}", a[0]);
        assert!((a[1] - 0.8).abs() < 1e-5, "got {}", a[1]);
    }
}
