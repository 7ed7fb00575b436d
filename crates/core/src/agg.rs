//! Byzantine-robust aggregation: robust strategies and update validation.
//!
//! The paper's Alg. 1 folds every client update into the server model with
//! an age-weighted `lerp` and no checks — one client emitting `NaN`s or
//! sign-flipped gradients poisons every server through the token exchange.
//! This module adds the two defence layers production async-FL systems
//! deploy (Papaya; the follow-up Byzantine FL work by the same group):
//!
//! 1. an **update validation gate** ([`validate_update`]) that rejects
//!    non-finite, norm-exploded, or over-stale updates before they touch
//!    the model, recording every rejection in the `agg.*` metrics;
//! 2. a **robust aggregation strategy** ([`AggregationStrategy`]) that
//!    replaces the per-update lerp with a batched robust estimator —
//!    coordinate-wise trimmed mean, coordinate-wise median, or
//!    norm-clipped mean — over the last `batch` accepted update deltas.
//!    The set of strategies is closed: [`RobustBuffer`] is the one way to
//!    apply one, for streaming servers and FedAvg's rounds alike.
//!
//! The default strategy, [`AggregationStrategy::Mean`], keeps the
//! paper-exact per-update path: no buffering, no reordering, bit-identical
//! behaviour.
//!
//! Rejections and robust flushes are reported through these counters:
//!
//! | counter                  | meaning                                    |
//! |--------------------------|--------------------------------------------|
//! | `agg.rejected`           | updates rejected by the gate (all causes)  |
//! | `agg.rejected.nonfinite` | … carrying `NaN`/`Inf` parameters or age   |
//! | `agg.rejected.norm`      | … whose delta norm exceeded the bound      |
//! | `agg.rejected.stale`     | … staler than the configured maximum       |
//! | `agg.rejected.peer`      | unmergeable *server* models dropped at merge|
//! | `agg.robust.flushes`     | robust batches folded into the model       |

use spyker_tensor::{coordinate_median, coordinate_trimmed_mean, Scratch};

use crate::params::ParamVec;

/// How a server combines accepted client updates into its model.
///
/// `Mean` is the paper-exact default: each update is integrated immediately
/// with the age-weighted lerp of Alg. 1. The robust variants instead buffer
/// the last `batch` accepted update *deltas* (update − current model) and
/// fold one robust estimate of the batch into the model, which bounds the
/// influence of any single client at the cost of larger, less frequent
/// steps.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum AggregationStrategy {
    /// Paper-exact age-weighted mean: integrate every update on arrival
    /// (Alg. 1 l. 15). No robustness; zero overhead.
    #[default]
    Mean,
    /// Coordinate-wise trimmed mean over batches of `batch` deltas,
    /// discarding the `floor(trim_ratio * batch)` smallest and largest
    /// values per coordinate. Tolerates up to that many Byzantine updates
    /// per batch.
    TrimmedMean {
        /// Number of accepted deltas per robust step.
        batch: usize,
        /// Fraction of the batch to trim from *each* tail, in `[0, 0.5)`.
        trim_ratio: f32,
    },
    /// Coordinate-wise median over batches of `batch` deltas — the maximal
    /// trim; tolerates just under half the batch being Byzantine, with the
    /// highest variance on honest data.
    Median {
        /// Number of accepted deltas per robust step.
        batch: usize,
    },
    /// Mean of deltas individually rescaled to L2 norm at most `max_norm`.
    /// Bounds the *magnitude* a single client can contribute (the Papaya /
    /// norm-bounding defence) but not the direction; cheapest robust
    /// option.
    ClippedMean {
        /// Number of accepted deltas per robust step.
        batch: usize,
        /// Maximum per-delta L2 norm.
        max_norm: f32,
    },
}

/// Combines `rows` (one delta per accepted update, all `out.len()` long)
/// into the robust estimate `strategy` makes of them, written to `out`.
fn combine(strategy: AggregationStrategy, rows: &[&[f32]], out: &mut [f32]) {
    match strategy {
        AggregationStrategy::Mean => unreachable!("Mean combines nothing"),
        AggregationStrategy::TrimmedMean { trim_ratio, .. } => {
            coordinate_trimmed_mean(rows, trim_count(rows.len(), trim_ratio), out);
        }
        AggregationStrategy::Median { .. } => coordinate_median(rows, out),
        AggregationStrategy::ClippedMean { max_norm, .. } => clipped_mean(rows, max_norm, out),
    }
}

/// The lerp step equivalent to `n` sequential per-update lerps of rate `r`
/// toward a common target: `1 − (1 − r)^n`.
///
/// A robust flush folds a whole batch of `n` deltas into the model in one
/// step. The paper-exact Mean path would have applied `n` individual lerps
/// over the same span, each closing fraction `r` of the remaining gap —
/// compounding to `1 − (1 − r)^n` of the gap in total. Applying the robust
/// estimate at bare rate `r` would therefore integrate ~`n`× slower than
/// the default path; servers scale the flush by this compounded step so a
/// robust run converges at the same rate as the paper-exact one.
pub fn compounded_step(r: f32, n: usize) -> f32 {
    let r = r.clamp(0.0, 1.0);
    1.0 - (1.0 - r).powi(n.min(i32::MAX as usize) as i32)
}

/// Per-coordinate trim count for a batch of `n` rows: `floor(ratio * n)`,
/// clamped so at least one value survives.
fn trim_count(n: usize, ratio: f32) -> usize {
    let trim = (ratio * n as f32).floor() as usize;
    trim.min(n.saturating_sub(1) / 2)
}

/// The mean of `rows`, each first rescaled to L2 norm at most `max_norm`.
fn clipped_mean(rows: &[&[f32]], max_norm: f32, out: &mut [f32]) {
    assert!(!rows.is_empty(), "mean of no rows");
    out.fill(0.0);
    let inv = 1.0 / rows.len() as f32;
    for row in rows {
        assert_eq!(row.len(), out.len(), "row length differs from the output");
        let norm = row.iter().map(|v| v * v).sum::<f32>().sqrt();
        let scale = if norm > max_norm && norm.is_finite() {
            max_norm / norm
        } else {
            1.0
        };
        let c = scale * inv;
        for (o, &x) in out.iter_mut().zip(*row) {
            *o += c * x;
        }
    }
}

/// Buffers accepted update deltas for a robust [`AggregationStrategy`] and
/// flushes a combined estimate once `batch` deltas have accumulated.
pub struct RobustBuffer {
    strategy: AggregationStrategy,
    batch: usize,
    deltas: Vec<ParamVec>,
    weights: Vec<f32>,
    /// Recycles the dim-sized delta buffers across flushes so a long run
    /// stops allocating them once the buffer has seen one full batch.
    scratch: Scratch,
}

impl RobustBuffer {
    /// Builds the buffer for `strategy`; `None` for the paper-exact
    /// [`AggregationStrategy::Mean`], which needs no buffering.
    ///
    /// # Panics
    ///
    /// Panics on a zero `batch`, a `trim_ratio` outside `[0, 0.5)`, or a
    /// non-positive `max_norm`.
    pub fn from_strategy(strategy: AggregationStrategy) -> Option<Self> {
        let batch = match strategy {
            AggregationStrategy::Mean => return None,
            AggregationStrategy::TrimmedMean { batch, trim_ratio } => {
                assert!(
                    (0.0..0.5).contains(&trim_ratio),
                    "trim_ratio must be in [0, 0.5)"
                );
                batch
            }
            AggregationStrategy::Median { batch } => batch,
            AggregationStrategy::ClippedMean { batch, max_norm } => {
                assert!(
                    max_norm > 0.0 && max_norm.is_finite(),
                    "max_norm must be positive and finite"
                );
                batch
            }
        };
        assert!(batch >= 1, "robust batch must be at least 1");
        Some(Self {
            strategy,
            batch,
            deltas: Vec::with_capacity(batch),
            weights: Vec::with_capacity(batch),
            scratch: Scratch::new(),
        })
    }

    /// Takes a zeroed, `dim`-length delta buffer — recycled from a previous
    /// flush when one of the right size is parked, freshly allocated
    /// otherwise. Callers build the next delta in it and hand it back via
    /// [`RobustBuffer::push`].
    pub fn take_delta(&mut self, dim: usize) -> ParamVec {
        ParamVec::from_vec(self.scratch.take_vec(dim))
    }

    /// Number of deltas currently buffered.
    pub fn len(&self) -> usize {
        self.deltas.len()
    }

    /// `true` when nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.deltas.is_empty()
    }

    /// Buffers one accepted update delta and its aggregation weight.
    pub fn push(&mut self, delta: ParamVec, weight: f32) {
        self.deltas.push(delta);
        self.weights.push(weight);
    }

    /// Buffers the delta `update − base` at `weight`, written in one pass
    /// straight into a recycled buffer: the result of
    /// [`take_delta`](Self::take_delta), copying `update` in, `axpy(-1.0,
    /// base)` and [`push`](Self::push), without the zero-fill and the
    /// second sweep.
    ///
    /// # Panics
    ///
    /// Panics if the dimensions differ.
    pub fn push_difference(&mut self, update: &ParamVec, base: &ParamVec, weight: f32) {
        assert_eq!(update.len(), base.len(), "dimension mismatch in delta");
        let mut delta = self.scratch.take_vec(0);
        delta.extend(
            update
                .as_slice()
                .iter()
                .zip(base.as_slice())
                .map(|(u, b)| u - b),
        );
        self.push(ParamVec::from_vec(delta), weight);
    }

    /// `true` once `batch` deltas are buffered and
    /// [`RobustBuffer::flush_into`] should run.
    pub fn is_ready(&self) -> bool {
        self.deltas.len() >= self.batch
    }

    /// Combines the buffered deltas into one robust estimate, written into
    /// `out` (resized to the delta dimension), and returns the mean of
    /// their aggregation weights, clearing the buffer. The flushed deltas'
    /// storage is recycled for future [`take_delta`](Self::take_delta)
    /// calls, so a server that builds deltas from recycled buffers and
    /// reuses `out` flushes without allocating a dim-sized buffer.
    ///
    /// # Panics
    ///
    /// Panics if the buffer is empty.
    pub fn flush_into(&mut self, out: &mut ParamVec) -> f32 {
        assert!(!self.deltas.is_empty(), "flush of an empty robust buffer");
        let dim = self.deltas[0].len();
        out.resize(dim);
        let rows: Vec<&[f32]> = self.deltas.iter().map(ParamVec::as_slice).collect();
        combine(self.strategy, &rows, out.as_mut_slice());
        drop(rows);
        let mean_w = self.weights.iter().sum::<f32>() / self.weights.len() as f32;
        for delta in self.deltas.drain(..) {
            self.scratch.recycle_vec(delta.into_vec());
        }
        self.weights.clear();
        mean_w
    }
}

/// The server-side update validation gate.
///
/// Checked *before* an update reaches the aggregation path (robust or not).
/// The default gate only rejects non-finite payloads — a check that can
/// never fire on an honest run, so enabling it keeps default behaviour
/// byte-identical to the paper-exact implementation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ValidationConfig {
    /// Reject updates whose parameters or age contain `NaN`/`Inf`.
    pub reject_nonfinite: bool,
    /// Reject updates whose delta from the current model exceeds this L2
    /// norm (`None` disables the check).
    pub max_delta_norm: Option<f32>,
    /// Reject updates computed from a model more than this many age units
    /// behind the current one (`None` disables the check).
    pub max_staleness: Option<f64>,
}

impl Default for ValidationConfig {
    fn default() -> Self {
        Self {
            reject_nonfinite: true,
            max_delta_norm: None,
            max_staleness: None,
        }
    }
}

/// Why the validation gate rejected an update.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// The update carried `NaN`/`Inf` parameters or a non-finite age.
    NonFinite,
    /// The update's delta norm exceeded
    /// [`ValidationConfig::max_delta_norm`].
    NormExploded,
    /// The update was staler than [`ValidationConfig::max_staleness`].
    Stale,
}

impl RejectReason {
    /// The per-cause metric counter, under the `agg.rejected.*` prefix.
    pub fn counter(self) -> &'static str {
        match self {
            RejectReason::NonFinite => "agg.rejected.nonfinite",
            RejectReason::NormExploded => "agg.rejected.norm",
            RejectReason::Stale => "agg.rejected.stale",
        }
    }
}

/// Runs the validation gate on one client update.
///
/// `current` is the server's model, `update` the client's trained
/// parameters, `model_age` the server's age `A_i`, and `update_age` the age
/// echoed by the client (the age of the model it trained from).
///
/// Cheap checks run first; the O(dim) finiteness/norm scans are skipped
/// when their check is disabled, so a fully disabled gate costs nothing.
pub fn validate_update(
    cfg: &ValidationConfig,
    current: &ParamVec,
    update: &ParamVec,
    model_age: f64,
    update_age: f64,
) -> Result<(), RejectReason> {
    let (finite, distance) = (|| update.is_finite(), || update.l2_distance(current));
    gate(cfg, finite, distance, model_age, update_age)
}

/// [`validate_update`]'s rules over what they read of the update's values,
/// each asked for only when its check is on.
pub(crate) fn gate(
    cfg: &ValidationConfig,
    finite: impl FnOnce() -> bool,
    distance: impl FnOnce() -> f32,
    model_age: f64,
    update_age: f64,
) -> Result<(), RejectReason> {
    if cfg.reject_nonfinite && !(update_age.is_finite() && finite()) {
        return Err(RejectReason::NonFinite);
    }
    if let Some(max) = cfg.max_staleness {
        if model_age - update_age > max {
            return Err(RejectReason::Stale);
        }
    }
    if let Some(max) = cfg.max_delta_norm {
        if distance() > max {
            return Err(RejectReason::NormExploded);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pv(v: &[f32]) -> ParamVec {
        ParamVec::from_vec(v.to_vec())
    }

    fn flush(buf: &mut RobustBuffer) -> (ParamVec, f32) {
        let mut out = ParamVec::zeros(0);
        let mean_w = buf.flush_into(&mut out);
        (out, mean_w)
    }

    #[test]
    fn default_strategy_is_paper_exact_mean_with_no_buffer() {
        assert_eq!(AggregationStrategy::default(), AggregationStrategy::Mean);
        assert!(RobustBuffer::from_strategy(AggregationStrategy::Mean).is_none());
    }

    #[test]
    fn trimmed_mean_buffer_discards_a_sign_flipped_delta() {
        let mut buf = RobustBuffer::from_strategy(AggregationStrategy::TrimmedMean {
            batch: 5,
            trim_ratio: 0.2,
        })
        .unwrap();
        for _ in 0..4 {
            buf.push(pv(&[1.0, -1.0]), 1.0);
            assert!(!buf.is_ready() || buf.len() == 5);
        }
        // The attacker's flipped, boosted delta.
        buf.push(pv(&[-50.0, 50.0]), 1.0);
        assert!(buf.is_ready());
        let (est, w) = flush(&mut buf);
        assert_eq!(est.as_slice(), &[1.0, -1.0]);
        assert_eq!(w, 1.0);
        assert!(buf.is_empty());
    }

    #[test]
    fn median_buffer_survives_nan_injection() {
        let mut buf =
            RobustBuffer::from_strategy(AggregationStrategy::Median { batch: 3 }).unwrap();
        buf.push(pv(&[1.0]), 1.0);
        buf.push(pv(&[3.0]), 1.0);
        buf.push(pv(&[f32::NAN]), 1.0);
        let (est, _) = flush(&mut buf);
        assert_eq!(est.as_slice(), &[3.0]);
    }

    #[test]
    fn clipped_mean_bounds_a_boosted_delta() {
        let mut buf = RobustBuffer::from_strategy(AggregationStrategy::ClippedMean {
            batch: 2,
            max_norm: 1.0,
        })
        .unwrap();
        buf.push(pv(&[0.6, 0.8]), 1.0); // norm 1.0: untouched
        buf.push(pv(&[600.0, 800.0]), 1.0); // norm 1000: scaled to 1.0
        let (est, _) = flush(&mut buf);
        assert!((est.as_slice()[0] - 0.6).abs() < 1e-6);
        assert!((est.as_slice()[1] - 0.8).abs() < 1e-6);
    }

    #[test]
    fn push_difference_is_the_take_copy_axpy_push_it_replaces() {
        let update = pv(&[1.5, -0.0, 0.0, 3.0e-39, -7.25, 1.0e30, 0.1]);
        let base = pv(&[0.25, 0.0, 0.0, 1.0e-39, -7.25, -1.0e30, 0.3]);
        let batch_of_one =
            || RobustBuffer::from_strategy(AggregationStrategy::Median { batch: 1 }).unwrap();
        let mut fused = batch_of_one();
        let mut stepwise = batch_of_one();
        // Twice, so that the second delta lands in recycled storage.
        for _ in 0..2 {
            fused.push_difference(&update, &base, 1.0);
            let mut delta = stepwise.take_delta(update.len());
            delta.as_mut_slice().copy_from_slice(update.as_slice());
            delta.axpy(-1.0, &base);
            stepwise.push(delta, 1.0);
            let (a, b) = (flush(&mut fused).0, flush(&mut stepwise).0);
            let bits = |v: &ParamVec| v.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&a), bits(&b));
        }
    }

    #[test]
    fn flush_reports_the_mean_weight() {
        let mut buf =
            RobustBuffer::from_strategy(AggregationStrategy::Median { batch: 2 }).unwrap();
        buf.push(pv(&[0.0]), 0.2);
        buf.push(pv(&[0.0]), 0.6);
        let (_, w) = flush(&mut buf);
        assert!((w - 0.4).abs() < 1e-6);
    }

    #[test]
    fn compounded_step_matches_sequential_lerps() {
        // One batch-of-4 step at the compounded rate lands exactly where
        // four sequential lerps of rate 0.3 toward the same target would.
        let (mut x, target, r) = (0.0f32, 1.0f32, 0.3f32);
        for _ in 0..4 {
            x += r * (target - x);
        }
        let step = compounded_step(r, 4);
        assert!((step - x).abs() < 1e-6, "step {step} vs sequential {x}");
        // A batch of one is the plain rate; rates ≥ 1 saturate.
        assert_eq!(compounded_step(0.3, 1), 0.3);
        assert_eq!(compounded_step(1.5, 7), 1.0);
        assert_eq!(compounded_step(-0.2, 3), 0.0);
    }

    #[test]
    fn trim_count_clamps_to_keep_one_value() {
        assert_eq!(trim_count(6, 0.34), 2);
        assert_eq!(trim_count(5, 0.2), 1);
        assert_eq!(trim_count(3, 0.49), 1);
        assert_eq!(trim_count(1, 0.49), 0);
        // floor(0.45 * 4) = 1 even though 2 a side would empty the batch.
        assert_eq!(trim_count(4, 0.45), 1);
    }

    #[test]
    #[should_panic(expected = "trim_ratio must be in [0, 0.5)")]
    fn half_trim_is_rejected() {
        let _ = RobustBuffer::from_strategy(AggregationStrategy::TrimmedMean {
            batch: 4,
            trim_ratio: 0.5,
        });
    }

    #[test]
    fn default_gate_rejects_only_nonfinite() {
        let cfg = ValidationConfig::default();
        let cur = pv(&[0.0, 0.0]);
        assert_eq!(
            validate_update(&cfg, &cur, &pv(&[1.0, 2.0]), 10.0, 0.0),
            Ok(())
        );
        assert_eq!(
            validate_update(&cfg, &cur, &pv(&[1.0, f32::NAN]), 0.0, 0.0),
            Err(RejectReason::NonFinite)
        );
        assert_eq!(
            validate_update(&cfg, &cur, &pv(&[1.0, f32::INFINITY]), 0.0, 0.0),
            Err(RejectReason::NonFinite)
        );
        assert_eq!(
            validate_update(&cfg, &cur, &pv(&[1.0, 2.0]), 0.0, f64::NAN),
            Err(RejectReason::NonFinite)
        );
    }

    #[test]
    fn norm_and_staleness_bounds_fire_when_configured() {
        let cfg = ValidationConfig {
            reject_nonfinite: true,
            max_delta_norm: Some(5.0),
            max_staleness: Some(100.0),
        };
        let cur = pv(&[0.0, 0.0]);
        assert_eq!(
            validate_update(&cfg, &cur, &pv(&[3.0, 4.0]), 0.0, 0.0),
            Ok(())
        );
        assert_eq!(
            validate_update(&cfg, &cur, &pv(&[30.0, 40.0]), 0.0, 0.0),
            Err(RejectReason::NormExploded)
        );
        assert_eq!(
            validate_update(&cfg, &cur, &pv(&[1.0, 1.0]), 200.0, 50.0),
            Err(RejectReason::Stale)
        );
    }

    #[test]
    fn reject_reasons_map_to_agg_counters() {
        assert_eq!(RejectReason::NonFinite.counter(), "agg.rejected.nonfinite");
        assert_eq!(RejectReason::NormExploded.counter(), "agg.rejected.norm");
        assert_eq!(RejectReason::Stale.counter(), "agg.rejected.stale");
    }
}
