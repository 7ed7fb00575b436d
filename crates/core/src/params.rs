//! Flat model parameter vectors.
//!
//! A [`ParamVec`] keeps its values in one of two stores, which no API can
//! tell apart:
//!
//! * **owned** — a plain `Vec`, for vectors below 1 024 coordinates
//!   (`SHARE_FROM`);
//! * **shared** — copy-on-write storage behind an `Arc`, for larger ones,
//!   so a model version exists once however many handles hold it.
//!
//! A client round that trains off the event loop is a pending *send*, not
//! a pending vector: the runtime holds it until the update is delivered
//! (`spyker_simnet::Env::send_computed`, DESIGN.md §10.5).

use std::borrow::Borrow;
use std::fmt;
use std::sync::{Arc, OnceLock};

use crate::update_codec::param_hash;

/// Vectors of at least this many coordinates share their storage between
/// clones; shorter ones are plain owned `Vec`s, for which a copy is cheaper
/// than the reference counting (measured: DESIGN.md §10.3). A client only
/// trains off the event loop at this dimension and above (§10.5).
pub(crate) const SHARE_FROM: usize = 1024;

/// A model's parameters as a flat `f32` vector.
///
/// All protocol-level aggregation (client-update integration, server-model
/// merging) is expressed over `ParamVec`, keeping the protocol independent
/// of the model architecture. `spyker-models` flattens its networks into
/// and out of this representation.
///
/// # Cost of `clone` and of mutation
///
/// A model is handed out far more often than it changes — to every client
/// after every update, to every peer on every exchange — so the storage of
/// a large vector is shared and copy-on-write: `clone()` is a
/// reference-count bump, and the first mutation through a handle that is
/// not the only one gives that handle storage of its own: `lerp_toward`,
/// `axpy` and `scale` write their result there in one pass, `for_overwrite`
/// hands out zeroed storage for a writer that sets every value, and
/// `as_mut_slice` and `resize` copy the values first. A model version
/// therefore exists once however many messages, histories and peers hold
/// it, and so does its [`content_hash`](Self::content_hash), computed at
/// most once per version. Small vectors are copied outright, which is
/// cheaper than counting references to them. Which of the two a value is
/// follows from its dimension alone, is not observable through any API, and
/// never changes what an operation computes: handles behave as independent
/// values.
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
#[derive(Clone)]
pub struct ParamVec(Store);

#[derive(Clone)]
enum Store {
    Owned(Vec<f32>),
    Shared(Arc<Version>),
}

/// One shared model version. `values` is a `Vec`, not a `[f32]`: a unique
/// handle must give it back without a copy ([`ParamVec::into_vec`] feeds
/// the buffer-recycling paths). `hash` is set by the first
/// [`ParamVec::content_hash`] and cleared by every mutable access.
#[derive(Clone)]
struct Version {
    values: Vec<f32>,
    hash: OnceLock<u64>,
}

impl PartialEq for ParamVec {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl ParamVec {
    /// Creates a zeroed vector of dimension `n`.
    pub fn zeros(n: usize) -> Self {
        Self::from_vec(vec![0.0; n])
    }

    /// Wraps an existing vector.
    pub fn from_vec(v: Vec<f32>) -> Self {
        Self(if v.len() < SHARE_FROM {
            Store::Owned(v)
        } else {
            Store::Shared(Arc::new(Version {
                values: v,
                hash: OnceLock::new(),
            }))
        })
    }

    /// Dimension of the vector.
    pub fn len(&self) -> usize {
        self.as_slice().len()
    }

    /// Returns `true` for the zero-dimensional vector.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Immutable view of the raw values.
    pub fn as_slice(&self) -> &[f32] {
        match &self.0 {
            Store::Owned(v) => v,
            Store::Shared(v) => &v.values,
        }
    }

    /// [`param_hash`] of the values, computed once per shared version
    /// however many handles and threads ask for it.
    pub fn content_hash(&self) -> u64 {
        match &self.0 {
            Store::Owned(v) => param_hash(v),
            Store::Shared(v) => *v.hash.get_or_init(|| param_hash(&v.values)),
        }
    }

    /// Mutable view of the raw values (copies them first if another handle
    /// shares them).
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        match &mut self.0 {
            Store::Owned(v) => v,
            Store::Shared(v) => {
                let v = Arc::make_mut(v);
                v.hash.take();
                &mut v.values
            }
        }
    }

    /// Mutable view for a caller that overwrites every value: storage of
    /// this handle's own, written in place when no other handle shares it,
    /// and otherwise fresh zeroed storage — the shared version is neither
    /// copied nor touched.
    pub fn for_overwrite(&mut self) -> &mut [f32] {
        if let Store::Shared(v) = &self.0 {
            if Arc::strong_count(v) > 1 {
                *self = Self::zeros(v.values.len());
            }
        }
        self.as_mut_slice()
    }

    /// Consumes self and returns the raw vector — without a copy unless
    /// another handle shares the values.
    pub fn into_vec(self) -> Vec<f32> {
        match self.0 {
            Store::Owned(v) => v,
            Store::Shared(v) => {
                Arc::try_unwrap(v).map_or_else(|shared| shared.values.clone(), |v| v.values)
            }
        }
    }

    /// Resizes to dimension `n` in place (new coordinates are zero),
    /// reusing the existing capacity where possible.
    pub fn resize(&mut self, n: usize) {
        if n != self.len() {
            let mut v = std::mem::replace(self, Self::zeros(0)).into_vec();
            v.resize(n, 0.0);
            *self = Self::from_vec(v);
        }
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
        self.zip_with(other.as_slice().iter().copied(), |a, b| a + t * (b - a));
    }

    /// Computes `self += alpha * other`.
    ///
    /// # Panics
    ///
    /// Panics if the dimensions differ.
    pub fn axpy(&mut self, alpha: f32, other: &ParamVec) {
        assert_eq!(self.len(), other.len(), "dimension mismatch in axpy");
        self.zip_with(other.as_slice().iter().copied(), |a, b| a + alpha * b);
    }

    /// Multiplies every component by `factor`.
    pub fn scale(&mut self, factor: f32) {
        self.zip_with(std::iter::repeat(factor), |a, f| a * f);
    }

    /// Sets every value `a` to `f(a, b)`, `b` drawn from `other`: in place
    /// on storage of its own, and on a version another handle shares, into
    /// new storage in the same one pass (no copy first).
    fn zip_with(&mut self, other: impl Iterator<Item = f32>, f: impl Fn(f32, f32) -> f32) {
        if let Store::Shared(v) = &self.0 {
            if Arc::strong_count(v) > 1 {
                *self = Self::from_vec(v.values.iter().zip(other).map(|(&a, b)| f(a, b)).collect());
                return;
            }
        }
        for (a, b) in self.as_mut_slice().iter_mut().zip(other) {
            *a = f(*a, b);
        }
    }

    /// Data-size weighted mean of several vectors (FedAvg's Eq. 2), owned
    /// or borrowed.
    ///
    /// # Panics
    ///
    /// Panics if `items` is empty, dimensions differ, or all weights are 0.
    pub fn weighted_mean<P: Borrow<ParamVec>>(items: &[(P, f64)]) -> ParamVec {
        assert!(!items.is_empty(), "weighted_mean of nothing");
        let dim = items[0].0.borrow().len();
        let total: f64 = items.iter().map(|(_, w)| *w).sum();
        assert!(total > 0.0, "weights must not sum to zero");
        let mut out = vec![0.0f32; dim];
        for (v, w) in items {
            let v = v.borrow();
            assert_eq!(v.len(), dim, "dimension mismatch in weighted_mean");
            let c = (*w / total) as f32;
            for (o, &x) in out.iter_mut().zip(v.as_slice()) {
                *o += c * x;
            }
        }
        ParamVec::from_vec(out)
    }

    /// Euclidean distance to `other`.
    ///
    /// # Panics
    ///
    /// Panics if the dimensions differ.
    pub fn l2_distance(&self, other: &ParamVec) -> f32 {
        assert_eq!(self.len(), other.len(), "dimension mismatch in l2_distance");
        self.as_slice()
            .iter()
            .zip(other.as_slice())
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f32>()
            .sqrt()
    }

    /// Euclidean norm.
    pub fn l2_norm(&self) -> f32 {
        self.as_slice().iter().map(|v| v * v).sum::<f32>().sqrt()
    }

    /// `true` when every component is finite (no `NaN`/`Inf`).
    ///
    /// A value is non-finite exactly when its exponent bits are all ones.
    /// Each chunk ORs that test over its values with no early exit inside
    /// the chunk, so the scan vectorises where `iter().all(is_finite)`
    /// branches per element; the exit between chunks keeps a poisoned
    /// vector cheap to reject.
    pub fn is_finite(&self) -> bool {
        all_finite(self.as_slice())
    }

    /// Serialized size in bytes (4 bytes per component plus a small header),
    /// used for bandwidth accounting and the wire codec.
    pub fn wire_size(&self) -> usize {
        4 * self.len() + 8
    }
}

/// [`ParamVec::is_finite`] of a slice.
pub(crate) fn all_finite(values: &[f32]) -> bool {
    const EXPONENT: u32 = 0x7f80_0000;
    values.chunks(256).all(|chunk| {
        !chunk
            .iter()
            .fold(false, |bad, v| bad | (v.to_bits() & EXPONENT == EXPONENT))
    })
}

impl fmt::Debug for ParamVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.len() <= 8 {
            write!(f, "ParamVec({:?})", self.as_slice())
        } else {
            write!(
                f,
                "ParamVec(dim={}, norm={:.4})",
                self.len(),
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
