//! Training and evaluation injection points.
//!
//! The protocol layer never sees a model architecture: clients call a
//! [`LocalTrainer`] to turn a parameter vector into a locally-trained one,
//! and the experiment harness calls an [`Evaluator`] to score server models.
//! `spyker-models` provides the real neural-network implementations; this
//! module also ships [`MeanTargetTrainer`], a tiny analytic "model" used by
//! protocol tests to reason about convergence without any ML.

use crate::params::ParamVec;

/// Local training over a client's private dataset (Alg. 1, ll. 4–10).
///
/// [`crate::client::FlClient`] may call `train` on a `spyker_tensor::pool`
/// worker rather than on the thread running its handlers (DESIGN.md
/// §10.5). Calls on one trainer never overlap and come in round order, so a
/// trainer needs nothing but `Send`; it must not share mutable state with
/// other trainers, whose rounds may run at the same time.
pub trait LocalTrainer: Send {
    /// Trains `params` in place for `epochs` passes at learning rate `lr`.
    fn train(&mut self, params: &mut ParamVec, lr: f32, epochs: usize);

    /// Number of local data points `d_k` (used by data-size weighted
    /// aggregation in the FedAvg family). Read before the round it is sent
    /// with, so it must not change with training.
    fn num_samples(&self) -> usize;
}

/// Whether an [`EvalReport::metric`] is higher-better accuracy or
/// lower-better perplexity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MetricKind {
    /// Classification accuracy in `[0, 1]`; higher is better.
    Accuracy,
    /// Language-model perplexity; lower is better.
    Perplexity,
}

impl MetricKind {
    /// `true` if larger metric values are better.
    pub fn higher_is_better(self) -> bool {
        matches!(self, MetricKind::Accuracy)
    }
}

/// Result of evaluating a model on held-out data.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EvalReport {
    /// Mean loss on the evaluation set.
    pub loss: f64,
    /// Task metric (see [`MetricKind`]).
    pub metric: f64,
    /// Interpretation of `metric`.
    pub kind: MetricKind,
}

/// Model evaluation on held-out data (runs outside virtual time).
pub trait Evaluator: Send + Sync {
    /// Scores `params` on the evaluation set.
    fn evaluate(&self, params: &ParamVec) -> EvalReport;
}

/// An analytic trainer for protocol tests: gradient descent on
/// `0.5 * ||params - target||^2`, so local training pulls the model toward
/// the client's `target` vector and the fixed point of any sensible
/// aggregation is (a weighted mean of) the client targets.
///
/// # Example
///
/// ```
/// use spyker_core::params::ParamVec;
/// use spyker_core::training::{LocalTrainer, MeanTargetTrainer};
///
/// let mut t = MeanTargetTrainer::new(vec![1.0, 1.0], 10);
/// let mut w = ParamVec::zeros(2);
/// t.train(&mut w, 0.5, 5);
/// assert!(w.l2_distance(&ParamVec::from_vec(vec![1.0, 1.0])) < 0.1);
/// ```
#[derive(Debug, Clone)]
pub struct MeanTargetTrainer {
    target: ParamVec,
    samples: usize,
    steps_taken: u64,
}

impl MeanTargetTrainer {
    /// Creates a trainer pulling toward `target`, reporting `samples` local
    /// data points.
    pub fn new(target: Vec<f32>, samples: usize) -> Self {
        Self {
            target: ParamVec::from_vec(target),
            samples,
            steps_taken: 0,
        }
    }

    /// Number of gradient steps performed so far (test instrumentation).
    pub fn steps_taken(&self) -> u64 {
        self.steps_taken
    }
}

impl LocalTrainer for MeanTargetTrainer {
    fn train(&mut self, params: &mut ParamVec, lr: f32, epochs: usize) {
        assert_eq!(params.len(), self.target.len(), "dimension mismatch");
        let lr = lr.clamp(0.0, 1.0);
        for _ in 0..epochs {
            // `p + lr·(t − p)`: a first step on a shared model writes new
            // storage in one pass.
            params.lerp_toward(&self.target, lr);
            self.steps_taken += 1;
        }
    }

    fn num_samples(&self) -> usize {
        self.samples
    }
}

/// An [`Evaluator`] that scores a model by (negated, rescaled) distance to a
/// known optimum — used in protocol tests where the "task" is reaching the
/// mean of the client targets.
#[derive(Debug, Clone)]
pub struct DistanceEvaluator {
    optimum: ParamVec,
    scale: f64,
}

impl DistanceEvaluator {
    /// Creates an evaluator; `scale` is the distance at which the reported
    /// pseudo-accuracy hits zero.
    pub fn new(optimum: ParamVec, scale: f64) -> Self {
        assert!(scale > 0.0, "scale must be positive");
        Self { optimum, scale }
    }
}

impl Evaluator for DistanceEvaluator {
    fn evaluate(&self, params: &ParamVec) -> EvalReport {
        let d = params.l2_distance(&self.optimum) as f64;
        EvalReport {
            loss: d,
            metric: (1.0 - d / self.scale).max(0.0),
            kind: MetricKind::Accuracy,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_target_trainer_converges_to_target() {
        let mut t = MeanTargetTrainer::new(vec![3.0, -1.0], 4);
        let mut w = ParamVec::zeros(2);
        t.train(&mut w, 0.5, 20);
        assert!(w.l2_distance(&ParamVec::from_vec(vec![3.0, -1.0])) < 1e-3);
        assert_eq!(t.steps_taken(), 20);
    }

    #[test]
    fn zero_lr_is_a_no_op() {
        let mut t = MeanTargetTrainer::new(vec![3.0], 4);
        let mut w = ParamVec::from_vec(vec![1.0]);
        t.train(&mut w, 0.0, 5);
        assert_eq!(w.as_slice(), &[1.0]);
    }

    #[test]
    fn distance_evaluator_is_one_at_optimum() {
        let e = DistanceEvaluator::new(ParamVec::from_vec(vec![1.0, 2.0]), 5.0);
        let r = e.evaluate(&ParamVec::from_vec(vec![1.0, 2.0]));
        assert_eq!(r.metric, 1.0);
        assert_eq!(r.loss, 0.0);
        assert_eq!(r.kind, MetricKind::Accuracy);
    }

    #[test]
    fn distance_evaluator_clamps_at_zero() {
        let e = DistanceEvaluator::new(ParamVec::zeros(1), 1.0);
        let r = e.evaluate(&ParamVec::from_vec(vec![100.0]));
        assert_eq!(r.metric, 0.0);
    }

    #[test]
    fn metric_kind_direction() {
        assert!(MetricKind::Accuracy.higher_is_better());
        assert!(!MetricKind::Perplexity.higher_is_better());
    }
}
