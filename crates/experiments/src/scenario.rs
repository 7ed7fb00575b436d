//! Workload scenarios: dataset + model + client population.

use rand::rngs::StdRng;
use rand::SeedableRng;
use spyker_core::params::ParamVec;
use spyker_core::training::{Evaluator, LocalTrainer, MetricKind};
use spyker_data::dataset::{DenseDataset, TextDataset};
use spyker_data::partition::label_partition;
use spyker_data::synth::{SynthImages, SynthImagesSpec, SynthText, SynthTextSpec};
use spyker_models::bridge::{DenseEvaluator, DenseShardTrainer, SeqEvaluator, SeqShardTrainer};
use spyker_models::linear::SoftmaxRegression;
use spyker_models::lstm::CharLstm;
use spyker_models::mlp::Mlp;
use spyker_models::model::{DenseModel, SeqModel};
use spyker_simnet::SimTime;
use spyker_tensor::sample_normal;

/// Which of the paper's three tasks a scenario runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TaskKind {
    /// MNIST stand-in: 1x8x8 synthetic images, softmax-regression model.
    MnistLike,
    /// CIFAR-10 stand-in: 3x8x8 noisier synthetic images, MLP model.
    CifarLike,
    /// WikiText-2 stand-in: synthetic character stream, char-LSTM model.
    WikiText,
}

impl TaskKind {
    /// The largest client count a scenario of this task supports: the
    /// corpus is a fixed size (the paper splits one dataset among all
    /// clients), so beyond this every client's shard would be too small to
    /// train on.
    pub fn max_clients(self) -> usize {
        match self {
            // 4000 samples, l=2 non-IID: each label pool (400) is dealt to
            // the clients holding it; keep >= 4 samples per client.
            TaskKind::MnistLike | TaskKind::CifarLike => 1000,
            // 8000 tokens, one 32-token BPTT window minimum per client.
            TaskKind::WikiText => 250,
        }
    }

    /// Metric reported for this task.
    pub fn metric_kind(self) -> MetricKind {
        match self {
            TaskKind::MnistLike | TaskKind::CifarLike => MetricKind::Accuracy,
            TaskKind::WikiText => MetricKind::Perplexity,
        }
    }
}

/// A fully-built experiment workload.
///
/// Construction is deterministic from the seed: dataset generation,
/// non-IID partition and per-client training delays all derive from it, so
/// two algorithms run against byte-identical client populations.
pub struct Scenario {
    /// The task.
    pub task: TaskKind,
    /// Number of clients.
    pub n_clients: usize,
    /// Number of (edge) servers for multi-server algorithms.
    pub n_servers: usize,
    /// Base client learning rate handed out by servers.
    pub client_lr: f32,
    /// Local epochs per client round.
    pub client_epochs: usize,
    /// Mini-batch size for dense tasks.
    pub batch_size: usize,
    /// Master seed.
    pub seed: u64,
    dense: Option<SynthImages>,
    text: Option<SynthText>,
    dense_shards: Vec<DenseDataset>,
    text_shards: Vec<TextDataset>,
    delays: Vec<SimTime>,
    init_params: ParamVec,
}

impl Scenario {
    /// The paper's main image scenario: non-IID (`l = 2`) MNIST-like data.
    ///
    /// The training corpus has a *fixed* size (4000 samples) split equally
    /// among however many clients participate, exactly like the paper's
    /// MNIST experiments: more clients means smaller shards, so each
    /// update carries less progress — the mechanism behind Tab. 5's
    /// scaling factors.
    pub fn mnist(n_clients: usize, n_servers: usize, seed: u64) -> Self {
        Self::build(
            TaskKind::MnistLike,
            n_clients,
            n_servers,
            seed,
            0.05,
            Some(2),
            150.0,
            7.5,
        )
    }

    /// The CIFAR-like scenario (harder task, MLP model).
    pub fn cifar(n_clients: usize, n_servers: usize, seed: u64) -> Self {
        Self::build(
            TaskKind::CifarLike,
            n_clients,
            n_servers,
            seed,
            0.05,
            Some(2),
            150.0,
            7.5,
        )
    }

    /// The WikiText-like language-modelling scenario (char-LSTM).
    pub fn wikitext(n_clients: usize, n_servers: usize, seed: u64) -> Self {
        Self::build(
            TaskKind::WikiText,
            n_clients,
            n_servers,
            seed,
            1.0,
            None,
            150.0,
            7.5,
        )
    }

    /// Fully parameterised constructor.
    ///
    /// `labels_per_client = None` gives IID shards; `Some(l)` gives the
    /// paper's non-IID scheme. Training delays are sampled per client from
    /// `N(delay_mean_ms, delay_std_ms²)` (paper §5.1) and fixed for the
    /// scenario's lifetime.
    ///
    /// # Panics
    ///
    /// Panics if `n_clients` or `n_servers` is zero.
    #[allow(clippy::too_many_arguments)]
    pub fn build(
        task: TaskKind,
        n_clients: usize,
        n_servers: usize,
        seed: u64,
        client_lr: f32,
        labels_per_client: Option<usize>,
        delay_mean_ms: f64,
        delay_std_ms: f64,
    ) -> Self {
        assert!(n_clients > 0, "need at least one client");
        assert!(n_servers > 0, "need at least one server");
        assert!(
            n_clients <= task.max_clients(),
            "{n_clients} clients exceed the fixed corpus capacity for {task:?} \
             (max {}); reduce the client count",
            task.max_clients()
        );
        let mut rng = StdRng::seed_from_u64(seed ^ 0x94d0_49bb_1331_11eb);
        let delays: Vec<SimTime> = (0..n_clients)
            .map(|_| {
                let ms = sample_normal(delay_mean_ms as f32, delay_std_ms as f32, &mut rng).max(1.0)
                    as f64;
                SimTime::from_millis_f64(ms)
            })
            .collect();
        let mut scenario = Self {
            task,
            n_clients,
            n_servers,
            client_lr,
            client_epochs: 1,
            batch_size: 10,
            seed,
            dense: None,
            text: None,
            dense_shards: Vec::new(),
            text_shards: Vec::new(),
            delays,
            init_params: ParamVec::zeros(0),
        };
        match task {
            TaskKind::MnistLike | TaskKind::CifarLike => {
                // Fixed-size corpus regardless of the client count (the
                // paper splits one dataset among all clients).
                let spec = if task == TaskKind::MnistLike {
                    SynthImagesSpec::mnist_like_scaled(4000)
                } else {
                    SynthImagesSpec::cifar_like_scaled(4000)
                };
                let images = SynthImages::generate(&spec, seed);
                let shards: Vec<DenseDataset> = match labels_per_client {
                    Some(l) => label_partition(images.train.labels(), n_clients, l, seed)
                        .into_iter()
                        .map(|idx| images.train.subset(&idx))
                        .collect(),
                    None => {
                        spyker_data::partition::iid_partition(images.train.len(), n_clients, seed)
                            .into_iter()
                            .map(|idx| images.train.subset(&idx))
                            .collect()
                    }
                };
                scenario.init_params =
                    ParamVec::from_vec(scenario.fresh_dense_model().params_vec());
                scenario.dense = Some(images);
                scenario.dense_shards = shards;
            }
            TaskKind::WikiText => {
                let spec = SynthTextSpec::wikitext_like(8000);
                let text = SynthText::generate(&spec, seed);
                scenario.text_shards = text.train.shards(n_clients);
                scenario.init_params = ParamVec::from_vec(scenario.fresh_seq_model().params_vec());
                scenario.text = Some(text);
            }
        }
        scenario
    }

    fn fresh_dense_model(&self) -> Box<dyn DenseModel> {
        match self.task {
            TaskKind::MnistLike => Box::new(SoftmaxRegression::new(64, 10, self.seed)),
            TaskKind::CifarLike => Box::new(Mlp::new(&[192, 32, 10], self.seed)),
            TaskKind::WikiText => unreachable!("dense model on a text task"),
        }
    }

    fn fresh_seq_model(&self) -> CharLstm {
        CharLstm::new(28, 12, 16, self.seed)
    }

    /// One trainer per client (fresh model instances; the parameters are
    /// always overwritten from the server's model before training).
    pub fn trainers(&self) -> Vec<Box<dyn LocalTrainer>> {
        match self.task {
            TaskKind::MnistLike => self
                .dense_shards
                .iter()
                .enumerate()
                .map(|(i, shard)| {
                    Box::new(DenseShardTrainer::new(
                        SoftmaxRegression::new(64, 10, self.seed),
                        shard.clone(),
                        self.batch_size,
                        self.seed.wrapping_add(i as u64),
                    )) as Box<dyn LocalTrainer>
                })
                .collect(),
            TaskKind::CifarLike => self
                .dense_shards
                .iter()
                .enumerate()
                .map(|(i, shard)| {
                    Box::new(DenseShardTrainer::new(
                        Mlp::new(&[192, 32, 10], self.seed),
                        shard.clone(),
                        self.batch_size,
                        self.seed.wrapping_add(i as u64),
                    )) as Box<dyn LocalTrainer>
                })
                .collect(),
            TaskKind::WikiText => self
                .text_shards
                .iter()
                .map(|shard| {
                    Box::new(SeqShardTrainer::new(
                        self.fresh_seq_model(),
                        shard.clone(),
                        32,
                    )) as Box<dyn LocalTrainer>
                })
                .collect(),
        }
    }

    /// The global evaluator (held-out test split; `eval_max` caps the
    /// per-probe evaluation cost).
    pub fn evaluator(&self, eval_max: usize) -> Box<dyn Evaluator> {
        match self.task {
            TaskKind::MnistLike => Box::new(DenseEvaluator::new(
                SoftmaxRegression::new(64, 10, self.seed),
                self.dense.as_ref().expect("dense task").test.clone(),
                eval_max,
            )),
            TaskKind::CifarLike => Box::new(DenseEvaluator::new(
                Mlp::new(&[192, 32, 10], self.seed),
                self.dense.as_ref().expect("dense task").test.clone(),
                eval_max,
            )),
            TaskKind::WikiText => Box::new(SeqEvaluator::new(
                self.fresh_seq_model(),
                self.text.as_ref().expect("text task").test.clone(),
                eval_max.max(2),
            )),
        }
    }

    /// The shared initial model every server starts from.
    pub fn init_params(&self) -> ParamVec {
        self.init_params.clone()
    }

    /// Per-client training delays.
    pub fn delays(&self) -> &[SimTime] {
        &self.delays
    }

    /// Overrides the per-client delays (e.g. Fig. 9 uses N(150, 60²)).
    ///
    /// # Panics
    ///
    /// Panics if the length differs from `n_clients`.
    pub fn set_delays(&mut self, delays: Vec<SimTime>) {
        assert_eq!(delays.len(), self.n_clients, "one delay per client");
        self.delays = delays;
    }

    /// The set of labels present in each client's shard (dense tasks).
    pub fn shard_label_sets(&self) -> Vec<Vec<usize>> {
        self.dense_shards
            .iter()
            .map(|shard| {
                let mut labels: Vec<usize> = shard.labels().to_vec();
                labels.sort_unstable();
                labels.dedup();
                labels
            })
            .collect()
    }

    /// Heterogeneity stressor for the Fig. 11 decay experiment: takes the
    /// cohort of clients that share client 0's exact label set (the non-IID
    /// partition gives every label pair to a whole cohort) and makes every
    /// second member of that cohort fast; everyone else is slow. Fast
    /// clients then flood the servers with updates biased toward one label
    /// pair, while the slow half of the same cohort keeps those labels
    /// covered — so learning-rate decay can mute the flood without losing
    /// any class. Returns the number of fast clients.
    pub fn correlate_speed_with_labels(&mut self, fast_ms: f64, slow_ms: f64) -> usize {
        let sets = self.shard_label_sets();
        let reference = sets.first().cloned().unwrap_or_default();
        let mut cohort_rank = 0usize;
        let mut fast_count = 0usize;
        self.delays = sets
            .iter()
            .map(|labels| {
                let fast = if *labels == reference {
                    cohort_rank += 1;
                    cohort_rank % 2 == 1
                } else {
                    false
                };
                if fast {
                    fast_count += 1;
                }
                SimTime::from_millis_f64(if fast { fast_ms } else { slow_ms })
            })
            .collect();
        fast_count
    }

    /// Resamples delays from `N(mean_ms, std_ms²)` with the scenario seed.
    pub fn resample_delays(&mut self, mean_ms: f64, std_ms: f64) {
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0x7f4a_7c15_9e37_79b9);
        self.delays = (0..self.n_clients)
            .map(|_| {
                let ms = sample_normal(mean_ms as f32, std_ms as f32, &mut rng).max(1.0) as f64;
                SimTime::from_millis_f64(ms)
            })
            .collect();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mnist_scenario_is_deterministic() {
        let a = Scenario::mnist(10, 2, 3);
        let b = Scenario::mnist(10, 2, 3);
        assert_eq!(a.delays(), b.delays());
        assert_eq!(a.init_params().as_slice(), b.init_params().as_slice());
        assert_eq!(a.dense_shards.len(), 10);
    }

    #[test]
    fn shards_are_non_iid_with_two_labels() {
        let s = Scenario::mnist(10, 2, 3);
        for shard in &s.dense_shards {
            let mut labels: Vec<usize> = shard.labels().to_vec();
            labels.sort_unstable();
            labels.dedup();
            assert!(labels.len() <= 2, "shard has {} labels", labels.len());
        }
    }

    #[test]
    fn trainer_count_matches_clients() {
        let s = Scenario::mnist(8, 4, 1);
        assert_eq!(s.trainers().len(), 8);
        let w = Scenario::wikitext(6, 2, 1);
        assert_eq!(w.trainers().len(), 6);
    }

    #[test]
    fn delays_follow_the_configured_gaussian() {
        let s = Scenario::mnist(200, 4, 9);
        let mean_ms: f64 = s.delays().iter().map(|d| d.as_millis_f64()).sum::<f64>() / 200.0;
        assert!((mean_ms - 150.0).abs() < 3.0, "mean {mean_ms}");
    }

    #[test]
    fn evaluator_scores_the_initial_model_poorly() {
        let s = Scenario::mnist(10, 2, 3);
        let eval = s.evaluator(100);
        let r = eval.evaluate(&s.init_params());
        assert!(r.metric < 0.4, "untrained accuracy {}", r.metric);
    }

    #[test]
    fn wikitext_initial_perplexity_is_near_uniform() {
        let s = Scenario::wikitext(5, 2, 3);
        let eval = s.evaluator(300);
        let r = eval.evaluate(&s.init_params());
        assert!(r.metric > 20.0 && r.metric < 40.0, "ppl {}", r.metric);
    }
}
