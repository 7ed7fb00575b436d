//! Bridges between the model zoo and the FL protocol traits.
//!
//! The FL actors in `spyker-core` only know [`spyker_core::LocalTrainer`]
//! and [`spyker_core::Evaluator`]; these adapters bind a model architecture
//! to a client's dataset shard (training) or to the global test set
//! (evaluation).

use std::sync::Mutex;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use spyker_core::cluster::ClusterTrainer;
use spyker_core::params::ParamVec;
use spyker_core::training::{EvalReport, Evaluator, LocalTrainer, MetricKind};
use spyker_data::dataset::{DenseDataset, TextDataset};
use spyker_tensor::Matrix;

use crate::model::{DenseModel, SeqModel};

/// Trains a [`DenseModel`] on one client's dataset shard.
///
/// One `train` call is one local round: `epochs` passes over the shard in
/// shuffled mini-batches of `batch_size`.
pub struct DenseShardTrainer<M> {
    model: M,
    shard: DenseDataset,
    batch_size: usize,
    rng: StdRng,
    // Persistent buffers: one local round gathers hundreds of mini-batches,
    // and these keep that loop free of per-batch heap allocations.
    batch_x: Matrix,
    batch_y: Vec<usize>,
    idx: Vec<usize>,
}

impl<M: DenseModel> DenseShardTrainer<M> {
    /// Creates a trainer over `shard`.
    ///
    /// # Panics
    ///
    /// Panics if the shard is empty or `batch_size == 0`.
    pub fn new(model: M, shard: DenseDataset, batch_size: usize, seed: u64) -> Self {
        assert!(!shard.is_empty(), "client shard must not be empty");
        assert!(batch_size > 0, "batch size must be positive");
        Self {
            model,
            shard,
            batch_size,
            rng: StdRng::seed_from_u64(seed ^ 0x853c_49e6_748f_ea9b),
            batch_x: Matrix::default(),
            batch_y: Vec::new(),
            idx: Vec::new(),
        }
    }
}

impl<M: DenseModel> LocalTrainer for DenseShardTrainer<M> {
    fn train(&mut self, params: &mut ParamVec, lr: f32, epochs: usize) {
        self.model.read_params(params.as_slice());
        self.idx.clear();
        self.idx.extend(0..self.shard.len());
        for _ in 0..epochs {
            self.idx.shuffle(&mut self.rng);
            for chunk in self.idx.chunks(self.batch_size) {
                self.shard
                    .gather_batch_into(chunk, &mut self.batch_x, &mut self.batch_y);
                self.model.train_batch(&self.batch_x, &self.batch_y, lr);
            }
        }
        self.model.write_params(params.for_overwrite());
    }

    fn num_samples(&self) -> usize {
        self.shard.len()
    }
}

/// Clustered-FL trainer over a [`DenseModel`]: scores every candidate
/// model on (a sample of) the local shard and trains the lowest-loss one
/// (the client half of the IFCA-style extension in
/// [`spyker_core::cluster`]).
pub struct DenseClusterTrainer<M> {
    model: M,
    shard: DenseDataset,
    batch_size: usize,
    /// How many shard samples are used to score each candidate.
    score_samples: usize,
    /// Last chosen candidate index (hysteresis: a different candidate must
    /// beat the incumbent by a clear margin to win, which stops noisy
    /// scores from flapping clients between centers).
    last_choice: Option<usize>,
    /// Local rounds completed so far (gates distress exploration: early on
    /// *everyone* is near chance loss and exploring then just blends the
    /// centers together).
    rounds: usize,
    rng: StdRng,
    // Persistent buffers reused across rounds (scoring + training batches).
    batch_x: Matrix,
    batch_y: Vec<usize>,
    idx: Vec<usize>,
    losses: Vec<f32>,
}

impl<M: DenseModel> DenseClusterTrainer<M> {
    /// Creates a clustered trainer over `shard`.
    ///
    /// # Panics
    ///
    /// Panics if the shard is empty or `batch_size == 0`.
    pub fn new(model: M, shard: DenseDataset, batch_size: usize, seed: u64) -> Self {
        assert!(!shard.is_empty(), "client shard must not be empty");
        assert!(batch_size > 0, "batch size must be positive");
        Self {
            model,
            shard,
            batch_size,
            score_samples: 64,
            last_choice: None,
            rounds: 0,
            rng: StdRng::seed_from_u64(seed ^ 0xc4ce_b9fe_1a85_ec53),
            batch_x: Matrix::default(),
            batch_y: Vec::new(),
            idx: Vec::new(),
            losses: Vec::new(),
        }
    }
}

impl<M: DenseModel> ClusterTrainer for DenseClusterTrainer<M> {
    fn train_best(&mut self, candidates: &mut [ParamVec], lr: f32, epochs: usize) -> usize {
        assert!(!candidates.is_empty(), "no candidate models");
        let n = self.shard.len().min(self.score_samples);
        self.idx.clear();
        self.idx.extend(0..n);
        self.shard
            .gather_batch_into(&self.idx, &mut self.batch_x, &mut self.batch_y);
        self.losses.clear();
        for candidate in candidates.iter() {
            self.model.read_params(candidate.as_slice());
            self.losses
                .push(self.model.eval_batch(&self.batch_x, &self.batch_y).0);
        }
        let losses = &self.losses;
        let mut best = (0..candidates.len())
            .min_by(|&a, &b| losses[a].partial_cmp(&losses[b]).expect("finite losses"))
            .expect("non-empty");
        // Hysteresis: keep the incumbent unless the challenger is clearly
        // better. Under asynchronous integration the offered centers
        // fluctuate with every interleaved client update, so a small
        // margin has clients chasing that noise from round to round —
        // every center then receives every population's updates and none
        // can specialise. Migration should only follow a persistent gap.
        if let Some(prev) = self.last_choice {
            if prev < candidates.len() && best != prev && losses[best] > 0.98 * losses[prev] {
                best = prev;
            }
        }
        self.last_choice = Some(best);
        // Distress exploration: a client whose *best* loss is still near
        // the random-guess level (ln C for C-class softmax) is served by
        // no center — typically because every center specialised on other
        // clients' labels before this one could leave a mark, so argmin
        // keeps it trapped forever. Such a client trains a random
        // non-incumbent center instead: its updates seed labels the other
        // center has never seen, and once that center scores better the
        // migration sticks through the ordinary argmin path. Clients a
        // center genuinely serves have losses far below chance and never
        // explore, so specialised centers stay clean (unconditional
        // ε-exploration was tried and blends every center back together).
        // Exploration only arms after a warmup: in the first rounds every
        // client is near chance loss and exploring then would blend the
        // centers before they can specialise at all.
        const CHANCE_LOSS_FRAC: f32 = 0.40;
        const WARMUP_ROUNDS: usize = 15;
        self.rounds += 1;
        let chance = (self.shard.num_classes().max(2) as f32).ln();
        let mut train_on = best;
        if candidates.len() > 1
            && self.rounds > WARMUP_ROUNDS
            && losses[best] > CHANCE_LOSS_FRAC * chance
            && self.rng.gen_range(0..100u32) < 50
        {
            let mut alt = self.rng.gen_range(0..candidates.len() - 1);
            if alt >= best {
                alt += 1;
            }
            train_on = alt;
        }
        let best = train_on;
        self.model.read_params(candidates[best].as_slice());
        self.idx.clear();
        self.idx.extend(0..self.shard.len());
        for _ in 0..epochs {
            self.idx.shuffle(&mut self.rng);
            for chunk in self.idx.chunks(self.batch_size) {
                self.shard
                    .gather_batch_into(chunk, &mut self.batch_x, &mut self.batch_y);
                self.model.train_batch(&self.batch_x, &self.batch_y, lr);
            }
        }
        self.model.write_params(candidates[best].for_overwrite());
        best
    }

    fn num_samples(&self) -> usize {
        self.shard.len()
    }
}

/// Evaluates a [`DenseModel`] on a held-out test set (accuracy).
///
/// Evaluation needs `&self` (probes run concurrently with nothing, but the
/// trait is `Sync`) while loading parameters mutates the model, so the
/// model sits behind a mutex.
pub struct DenseEvaluator<M> {
    // Batch buffers live under the same lock as the model so repeated
    // evaluations reuse them instead of re-gathering into fresh Vecs.
    state: Mutex<DenseEvalState<M>>,
    test: DenseDataset,
    max_samples: usize,
}

struct DenseEvalState<M> {
    model: M,
    x: Matrix,
    y: Vec<usize>,
    idx: Vec<usize>,
}

impl<M: DenseModel> DenseEvaluator<M> {
    /// Creates an evaluator over `test`; at most `max_samples` samples are
    /// scored per call (evaluation happens outside virtual time but costs
    /// real CPU, so sweeps cap it).
    ///
    /// # Panics
    ///
    /// Panics if the test set is empty or `max_samples == 0`.
    pub fn new(model: M, test: DenseDataset, max_samples: usize) -> Self {
        assert!(!test.is_empty(), "test set must not be empty");
        assert!(max_samples > 0, "max_samples must be positive");
        Self {
            state: Mutex::new(DenseEvalState {
                model,
                x: Matrix::default(),
                y: Vec::new(),
                idx: Vec::new(),
            }),
            test,
            max_samples,
        }
    }
}

impl<M: DenseModel> Evaluator for DenseEvaluator<M> {
    fn evaluate(&self, params: &ParamVec) -> EvalReport {
        let n = self.test.len().min(self.max_samples);
        let mut state = self.state.lock().expect("evaluator poisoned");
        let DenseEvalState { model, x, y, idx } = &mut *state;
        idx.clear();
        idx.extend(0..n);
        self.test.gather_batch_into(idx, x, y);
        model.read_params(params.as_slice());
        let (loss, correct) = model.eval_batch(x, y);
        EvalReport {
            loss: loss as f64,
            metric: correct as f64 / n as f64,
            kind: MetricKind::Accuracy,
        }
    }
}

/// Trains a [`SeqModel`] on one client's slice of the token stream.
///
/// One `train` call runs `epochs` passes over the shard in consecutive
/// windows of `window` tokens.
pub struct SeqShardTrainer<M> {
    model: M,
    shard: TextDataset,
    window: usize,
}

impl<M: SeqModel> SeqShardTrainer<M> {
    /// Creates a trainer over `shard` with BPTT windows of `window` tokens.
    ///
    /// # Panics
    ///
    /// Panics if the shard has fewer than `window` tokens or `window < 2`.
    pub fn new(model: M, shard: TextDataset, window: usize) -> Self {
        assert!(window >= 2, "window must be at least 2");
        assert!(shard.len() >= window, "shard smaller than one window");
        Self {
            model,
            shard,
            window,
        }
    }
}

impl<M: SeqModel> LocalTrainer for SeqShardTrainer<M> {
    fn train(&mut self, params: &mut ParamVec, lr: f32, epochs: usize) {
        self.model.read_params(params.as_slice());
        for _ in 0..epochs {
            for win in self.shard.tokens().chunks(self.window) {
                if win.len() >= 2 {
                    self.model.train_window(win, lr);
                }
            }
        }
        self.model.write_params(params.for_overwrite());
    }

    fn num_samples(&self) -> usize {
        self.shard.len()
    }
}

/// Evaluates a [`SeqModel`] on a held-out stream (perplexity).
pub struct SeqEvaluator<M> {
    model: Mutex<M>,
    test: TextDataset,
    max_tokens: usize,
}

impl<M: SeqModel> SeqEvaluator<M> {
    /// Creates an evaluator scoring at most `max_tokens` of `test` per call.
    ///
    /// # Panics
    ///
    /// Panics if the test stream has fewer than 2 tokens or
    /// `max_tokens < 2`.
    pub fn new(model: M, test: TextDataset, max_tokens: usize) -> Self {
        assert!(test.len() >= 2, "test stream too short");
        assert!(max_tokens >= 2, "max_tokens must be at least 2");
        Self {
            model: Mutex::new(model),
            test,
            max_tokens,
        }
    }
}

impl<M: SeqModel> Evaluator for SeqEvaluator<M> {
    fn evaluate(&self, params: &ParamVec) -> EvalReport {
        let n = self.test.len().min(self.max_tokens);
        let mut model = self.model.lock().expect("evaluator poisoned");
        model.read_params(params.as_slice());
        let ce = model.eval_stream(&self.test.tokens()[..n]);
        EvalReport {
            loss: ce,
            metric: ce.exp(),
            kind: MetricKind::Perplexity,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linear::SoftmaxRegression;
    use crate::lstm::CharLstm;
    use spyker_data::synth::{SynthImages, SynthImagesSpec, SynthText, SynthTextSpec};

    #[test]
    fn dense_trainer_improves_the_model_params() {
        let ds = SynthImages::generate(&SynthImagesSpec::mnist_like_scaled(200), 1);
        let model = SoftmaxRegression::new(ds.train.feature_len(), 10, 0);
        let evaluator = DenseEvaluator::new(
            SoftmaxRegression::new(ds.train.feature_len(), 10, 0),
            ds.test.clone(),
            200,
        );
        let mut params = ParamVec::from_vec(model.params_vec());
        let before = evaluator.evaluate(&params);
        let mut trainer = DenseShardTrainer::new(model, ds.train.clone(), 16, 7);
        for _ in 0..5 {
            trainer.train(&mut params, 0.1, 1);
        }
        let after = evaluator.evaluate(&params);
        assert!(
            after.metric > before.metric + 0.2,
            "{before:?} -> {after:?}"
        );
        assert_eq!(after.kind, MetricKind::Accuracy);
        assert_eq!(trainer.num_samples(), ds.train.len());
    }

    #[test]
    fn dense_trainer_is_deterministic_given_seed() {
        let ds = SynthImages::generate(&SynthImagesSpec::mnist_like_scaled(100), 2);
        let run = |seed| {
            let model = SoftmaxRegression::new(ds.train.feature_len(), 10, 0);
            let mut trainer = DenseShardTrainer::new(model, ds.train.clone(), 8, seed);
            let mut params = ParamVec::zeros(trainer.model.num_params());
            trainer.train(&mut params, 0.1, 1);
            params
        };
        assert_eq!(run(5).as_slice(), run(5).as_slice());
        assert_ne!(run(5).as_slice(), run(6).as_slice());
    }

    #[test]
    fn seq_trainer_reduces_perplexity() {
        let ds = SynthText::generate(&SynthTextSpec::wikitext_like(3000), 3);
        let model = CharLstm::new(28, 12, 16, 1);
        let evaluator = SeqEvaluator::new(CharLstm::new(28, 12, 16, 1), ds.test.clone(), 400);
        let mut params = ParamVec::from_vec(model.params_vec());
        let before = evaluator.evaluate(&params);
        assert_eq!(before.kind, MetricKind::Perplexity);
        let mut trainer = SeqShardTrainer::new(model, ds.train.clone(), 32);
        for _ in 0..4 {
            trainer.train(&mut params, 1.0, 1);
        }
        let after = evaluator.evaluate(&params);
        assert!(
            after.metric < before.metric * 0.8,
            "perplexity {} -> {}",
            before.metric,
            after.metric
        );
    }

    #[test]
    fn cluster_trainer_picks_the_matching_candidate() {
        let ds = SynthImages::generate(&SynthImagesSpec::mnist_like_scaled(300), 4);
        // Train a "good" candidate on the task; pair it with an untrained one.
        let mut good = SoftmaxRegression::new(ds.train.feature_len(), 10, 0);
        let idx: Vec<usize> = (0..ds.train.len()).collect();
        for chunk in idx.chunks(32).cycle().take(80) {
            let (x, y) = ds.train.gather_batch(chunk);
            good.train_batch(&x, &y, 0.1);
        }
        let bad = SoftmaxRegression::new(ds.train.feature_len(), 10, 99);
        let mut candidates = vec![
            ParamVec::from_vec(bad.params_vec()),
            ParamVec::from_vec(good.params_vec()),
        ];
        let mut trainer = DenseClusterTrainer::new(
            SoftmaxRegression::new(ds.train.feature_len(), 10, 0),
            ds.train.clone(),
            16,
            7,
        );
        let choice = trainer.train_best(&mut candidates, 0.05, 1);
        assert_eq!(choice, 1, "should pick the trained candidate");
    }

    #[test]
    #[should_panic(expected = "client shard must not be empty")]
    fn dense_trainer_rejects_empty_shard() {
        let ds = SynthImages::generate(&SynthImagesSpec::mnist_like_scaled(100), 2);
        let empty = ds.train.subset(&[]);
        let model = SoftmaxRegression::new(ds.train.feature_len(), 10, 0);
        let _ = DenseShardTrainer::new(model, empty, 8, 0);
    }
}
