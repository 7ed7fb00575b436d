//! Flat model parameter vectors.

use std::fmt;

/// A model's parameters as a flat `f32` vector.
///
/// All protocol-level aggregation (client-update integration, server-model
/// merging) is expressed over `ParamVec`, keeping the protocol independent
/// of the model architecture. `spyker-models` flattens its networks into
/// and out of this representation.
///
/// # Example
///
/// ```
/// use spyker_core::ParamVec;
/// let mut w = ParamVec::zeros(3);
/// let target = ParamVec::from_vec(vec![1.0, 2.0, 3.0]);
/// w.lerp_toward(&target, 0.5);
/// assert_eq!(w.as_slice(), &[0.5, 1.0, 1.5]);
/// ```
#[derive(Clone, PartialEq)]
pub struct ParamVec(Vec<f32>);

impl ParamVec {
    /// Creates a zeroed vector of dimension `n`.
    pub fn zeros(n: usize) -> Self {
        Self(vec![0.0; n])
    }

    /// Wraps an existing vector.
    pub fn from_vec(v: Vec<f32>) -> Self {
        Self(v)
    }

    /// Dimension of the vector.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Returns `true` for the zero-dimensional vector.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Immutable view of the raw values.
    pub fn as_slice(&self) -> &[f32] {
        &self.0
    }

    /// Mutable view of the raw values.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.0
    }

    /// Consumes self and returns the raw vector.
    pub fn into_vec(self) -> Vec<f32> {
        self.0
    }

    /// Resizes to dimension `n` in place (new coordinates are zero),
    /// reusing the existing capacity where possible.
    pub fn resize(&mut self, n: usize) {
        self.0.resize(n, 0.0);
    }

    /// Moves `self` a fraction `t` of the way toward `other`:
    /// `self += t * (other - self)`.
    ///
    /// This single primitive is the paper's universal aggregation step: both
    /// Alg. 1 l. 15 (client-update integration with `t = η_i · w_k`) and
    /// Alg. 2 l. 49 (server-model merging with `t = η_a · w_ij`) have this
    /// shape.
    ///
    /// # Panics
    ///
    /// Panics if the dimensions differ.
    pub fn lerp_toward(&mut self, other: &ParamVec, t: f32) {
        assert_eq!(self.len(), other.len(), "dimension mismatch in lerp");
        for (a, &b) in self.0.iter_mut().zip(&other.0) {
            *a += t * (b - *a);
        }
    }

    /// Computes `self += alpha * other`.
    ///
    /// # Panics
    ///
    /// Panics if the dimensions differ.
    pub fn axpy(&mut self, alpha: f32, other: &ParamVec) {
        assert_eq!(self.len(), other.len(), "dimension mismatch in axpy");
        for (a, &b) in self.0.iter_mut().zip(&other.0) {
            *a += alpha * b;
        }
    }

    /// Multiplies every component by `factor`.
    pub fn scale(&mut self, factor: f32) {
        for a in &mut self.0 {
            *a *= factor;
        }
    }

    /// Data-size weighted mean of several vectors (FedAvg's Eq. 2).
    ///
    /// # Panics
    ///
    /// Panics if `items` is empty, dimensions differ, or all weights are 0.
    pub fn weighted_mean(items: &[(&ParamVec, f64)]) -> ParamVec {
        assert!(!items.is_empty(), "weighted_mean of nothing");
        let dim = items[0].0.len();
        let total: f64 = items.iter().map(|(_, w)| *w).sum();
        assert!(total > 0.0, "weights must not sum to zero");
        let mut out = vec![0.0f32; dim];
        for (v, w) in items {
            assert_eq!(v.len(), dim, "dimension mismatch in weighted_mean");
            let c = (*w / total) as f32;
            for (o, &x) in out.iter_mut().zip(&v.0) {
                *o += c * x;
            }
        }
        ParamVec(out)
    }

    /// Euclidean distance to `other`.
    ///
    /// # Panics
    ///
    /// Panics if the dimensions differ.
    pub fn l2_distance(&self, other: &ParamVec) -> f32 {
        assert_eq!(self.len(), other.len(), "dimension mismatch in l2_distance");
        self.0
            .iter()
            .zip(&other.0)
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f32>()
            .sqrt()
    }

    /// Euclidean norm.
    pub fn l2_norm(&self) -> f32 {
        self.0.iter().map(|v| v * v).sum::<f32>().sqrt()
    }

    /// `true` when every component is finite (no `NaN`/`Inf`).
    ///
    /// A value is non-finite exactly when its exponent bits are all ones.
    /// Each chunk ORs that test over its values with no early exit inside
    /// the chunk, so the scan vectorises where `iter().all(is_finite)`
    /// branches per element; the exit between chunks keeps a poisoned
    /// vector cheap to reject.
    pub fn is_finite(&self) -> bool {
        const EXPONENT: u32 = 0x7f80_0000;
        self.0.chunks(256).all(|chunk| {
            !chunk
                .iter()
                .fold(false, |bad, v| bad | (v.to_bits() & EXPONENT == EXPONENT))
        })
    }

    /// Serialized size in bytes (4 bytes per component plus a small header),
    /// used for bandwidth accounting and the wire codec.
    pub fn wire_size(&self) -> usize {
        4 * self.0.len() + 8
    }
}

impl fmt::Debug for ParamVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.len() <= 8 {
            write!(f, "ParamVec({:?})", self.0)
        } else {
            write!(
                f,
                "ParamVec(dim={}, norm={:.4})",
                self.0.len(),
                self.l2_norm()
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lerp_toward_zero_and_one() {
        let target = ParamVec::from_vec(vec![2.0, 4.0]);
        let mut a = ParamVec::zeros(2);
        a.lerp_toward(&target, 0.0);
        assert_eq!(a.as_slice(), &[0.0, 0.0]);
        a.lerp_toward(&target, 1.0);
        assert_eq!(a.as_slice(), &[2.0, 4.0]);
    }

    #[test]
    fn lerp_is_convex_combination() {
        let target = ParamVec::from_vec(vec![10.0]);
        let mut a = ParamVec::from_vec(vec![0.0]);
        a.lerp_toward(&target, 0.25);
        assert_eq!(a.as_slice(), &[2.5]);
    }

    #[test]
    fn weighted_mean_matches_fedavg_formula() {
        let a = ParamVec::from_vec(vec![0.0, 0.0]);
        let b = ParamVec::from_vec(vec![4.0, 8.0]);
        // weights 1:3 -> 0.75 of b.
        let m = ParamVec::weighted_mean(&[(&a, 1.0), (&b, 3.0)]);
        assert_eq!(m.as_slice(), &[3.0, 6.0]);
    }

    #[test]
    fn weighted_mean_of_identical_vectors_is_identity() {
        let a = ParamVec::from_vec(vec![1.5, -2.5]);
        let m = ParamVec::weighted_mean(&[(&a, 0.3), (&a, 0.7)]);
        assert!(m.l2_distance(&a) < 1e-6);
    }

    #[test]
    fn l2_distance_and_norm() {
        let a = ParamVec::from_vec(vec![3.0, 4.0]);
        let b = ParamVec::zeros(2);
        assert!((a.l2_distance(&b) - 5.0).abs() < 1e-6);
        assert!((a.l2_norm() - 5.0).abs() < 1e-6);
    }

    #[test]
    fn wire_size_scales_with_dimension() {
        assert_eq!(ParamVec::zeros(100).wire_size(), 408);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn lerp_rejects_dimension_mismatch() {
        let mut a = ParamVec::zeros(2);
        a.lerp_toward(&ParamVec::zeros(3), 0.5);
    }

    #[test]
    fn axpy_and_scale() {
        let mut a = ParamVec::from_vec(vec![1.0, 2.0]);
        a.axpy(2.0, &ParamVec::from_vec(vec![1.0, 1.0]));
        assert_eq!(a.as_slice(), &[3.0, 4.0]);
        a.scale(0.5);
        assert_eq!(a.as_slice(), &[1.5, 2.0]);
    }

    #[test]
    fn debug_is_compact_for_large_vectors() {
        let a = ParamVec::zeros(1000);
        let s = format!("{a:?}");
        assert!(s.contains("dim=1000"));
        assert!(s.len() < 60);
    }

    #[test]
    fn nonfinite_scan_sees_every_position() {
        // The scan works chunk by chunk; plant the poison at chunk edges.
        for len in [1, 255, 256, 257, 1000] {
            assert!(ParamVec::zeros(len).is_finite());
            for at in [0, len / 2, len - 1] {
                for poison in [f32::NAN, -f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
                    let mut v = ParamVec::from_vec(vec![f32::MAX; len]);
                    v.as_mut_slice()[at] = poison;
                    assert!(!v.is_finite(), "len {len} at {at}: {poison}");
                }
            }
        }
    }
}
