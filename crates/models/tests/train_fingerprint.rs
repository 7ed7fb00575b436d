//! Pins local training bit-for-bit across versions of the tensor kernels.
//!
//! The per-figure accuracy tables in EXPERIMENTS.md are the output of real
//! SGD through `spyker-tensor`'s GEMM, and nothing else holds that
//! arithmetic still from one commit to the next: the pinned end-state
//! fingerprints in the umbrella crate's `tests/determinism.rs` and the
//! goldens train with `MeanTargetTrainer` (no GEMM), and the `Scenario`
//! cases there compare two runs of one build. A kernel change that rounds
//! one product differently would pass all of them and silently move every
//! table. These fingerprints — FNV-1a over the `to_bits()` of the trained
//! parameters after a fixed number of seeded rounds — were recorded before
//! the kernel they guard was touched, and a kernel PR must leave them alone
//! (DESIGN.md §10.2).
//!
//! The constants belong to the FMA build `.cargo/config.toml` selects
//! (`fma_row` documents that the fused and unfused forms round
//! differently); a build without FMA only checks run-to-run equality.

use spyker_core::params::ParamVec;
use spyker_core::training::LocalTrainer;
use spyker_data::synth::{SynthImages, SynthImagesSpec, SynthText, SynthTextSpec};
use spyker_models::model::{DenseModel, SeqModel};
use spyker_models::{CharLstm, Cnn, DenseShardTrainer, Mlp, SeqShardTrainer, SoftmaxRegression};

fn fnv1a(params: &[f32]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for v in params {
        for byte in v.to_bits().to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Trains `rounds` local rounds from `init` and fingerprints the result.
fn trained(mut trainer: impl LocalTrainer, init: Vec<f32>, lr: f32, rounds: usize) -> u64 {
    let mut params = ParamVec::from_vec(init);
    for _ in 0..rounds {
        trainer.train(&mut params, lr, 1);
    }
    assert!(params.as_slice().iter().all(|v| v.is_finite()));
    fnv1a(params.as_slice())
}

fn check(name: &str, run: impl Fn() -> u64, pinned: u64) {
    let got = run();
    assert_eq!(got, run(), "{name}: two runs of one build disagree");
    if cfg!(target_feature = "fma") {
        assert_eq!(
            got, pinned,
            "{name}: trained parameters moved ({got:#018x} vs pinned {pinned:#018x}) — a kernel \
             changed its rounding"
        );
    }
}

/// The `des_train_4s100c` client: `Mlp [192, 32, 10]`, a 40-sample shard,
/// batch 10, lr 0.05 (`Scenario::cifar`).
#[test]
fn mlp_cifar_client_rounds_are_pinned() {
    let ds = SynthImages::generate(&SynthImagesSpec::cifar_like_scaled(400), 5);
    let shard = ds
        .train
        .subset(&(0..40).map(|i| i * 10).collect::<Vec<_>>());
    let run = || {
        let model = Mlp::new(&[192, 32, 10], 5);
        let init = model.params_vec();
        trained(
            DenseShardTrainer::new(model, shard.clone(), 10, 17),
            init,
            0.05,
            8,
        )
    };
    check("mlp", run, 0x6bbc_abd8_b754_090c);
}

/// The MNIST-like scenarios' client: `SoftmaxRegression 64→10`.
#[test]
fn softmax_mnist_client_rounds_are_pinned() {
    let ds = SynthImages::generate(&SynthImagesSpec::mnist_like_scaled(400), 6);
    let run = || {
        let model = SoftmaxRegression::new(64, 10, 6);
        let init = model.params_vec();
        trained(
            DenseShardTrainer::new(model, ds.train.clone(), 40, 18),
            init,
            0.05,
            4,
        )
    };
    check("softmax", run, 0xaf11_50d6_0fe8_1dca);
}

/// The small CNN (im2col GEMMs, pooled, dense head), ragged last batch.
#[test]
fn cnn_rounds_are_pinned() {
    let ds = SynthImages::generate(&SynthImagesSpec::mnist_like_scaled(100), 7);
    let shard = ds
        .train
        .subset(&(0..36).map(|i| (i * 7) % 100).collect::<Vec<_>>());
    let run = || {
        let model = Cnn::mnist_like((1, 8, 8), 10, 7);
        let init = model.params_vec();
        trained(
            DenseShardTrainer::new(model, shard.clone(), 8, 19),
            init,
            0.05,
            2,
        )
    };
    check("cnn", run, 0x062e_35b9_583b_eab2);
}

/// The WikiText-like scenario's client: `CharLstm(28, 12, 16)`, BPTT
/// windows of 32 tokens, lr 1.0 (`Scenario::wikitext`).
#[test]
fn char_lstm_windows_are_pinned() {
    let ds = SynthText::generate(&SynthTextSpec::wikitext_like(1500), 8);
    let run = || {
        let model = CharLstm::new(28, 12, 16, 8);
        let init = model.params_vec();
        trained(
            SeqShardTrainer::new(model, ds.train.clone(), 32),
            init,
            1.0,
            2,
        )
    };
    check("lstm", run, 0x4cc1_5bc0_9832_7655);
}
