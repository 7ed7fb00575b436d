//! Smoke benchmark: times the GEMM family against the frozen naive kernel,
//! the products and the whole step of the `des_train_4s100c` model, one
//! end-to-end client round per dense scenario model, the codec-path kernels,
//! the server's model hand-out and one encoded update at each end at the
//! `des_bigmodel_codec` dimension,
//! the aggregation procedures of paper Tab. 3, and a loss and an LSTM step,
//! and writes the results to `BENCH_tensor.json`.
//!
//! `scripts/check.sh` asserts the headline regression bounds in a few
//! seconds: the tiled-vs-naive GEMM ratio on 128×128, the
//! network-vs-scalar trimmed-mean ratio on 8 × 65 536 and the
//! sampled-vs-full-histogram top-k ratio on an encoder's 65 536-entry input
//! must not fall below 0.75× the ratios recorded in the output file it is
//! about to replace (the committed `BENCH_tensor.json`). A ratio is a
//! property of the host and of the build as much as of the kernel — the
//! GEMM one read 2.1–3.9× across
//! machines while 128² was packed and 4.5–6.8× since it runs in place, the
//! naive side alone moving 25 % between builds of unchanged source — so the
//! gate is regress-only against the last recorded run, not an absolute
//! floor. Run it from the repo root:
//!
//! ```text
//! cargo run --release -p spyker-bench --bin bench_smoke [OUT.json]
//! ```

use std::time::Instant;

use spyker_bench::random_params;
use spyker_data::synth::{SynthImages, SynthImagesSpec};
use spyker_models::bridge::DenseShardTrainer;
use spyker_models::linear::SoftmaxRegression;
use spyker_models::lstm::CharLstm;
use spyker_models::mlp::Mlp;
use spyker_models::model::{DenseModel, SeqModel};
use spyker_tensor::{
    coordinate_trimmed_mean, cross_entropy_from_logits, im2col_into, top_k_indices,
    top_k_indices_with, trimmed_mean_inplace, Conv2dShape, Matrix,
};

use spyker_core::agg::AggregationStrategy;
use spyker_core::config::SpykerConfig;
use spyker_core::ingest::{UpdateIngest, Upload};
use spyker_core::msg::FlMsg;
use spyker_core::params::ParamVec;
use spyker_core::staleness::{blended_age, server_agg_weight};
use spyker_core::training::{LocalTrainer, MeanTargetTrainer};
use spyker_core::update_codec::{param_hash, CodecConfig, UpdateDecoder, UpdateEncoder};
use spyker_simnet::{Env, NodeId, SimTime};

/// One timed benchmark: median-ish ns/iter over an adaptive iteration count.
struct Sample {
    name: String,
    iters: u64,
    ns_per_iter: f64,
}

/// Times `f` with enough iterations to fill ~150 ms of wall clock (after a
/// warm-up pass that also sizes the iteration count).
fn time_it(name: &str, mut f: impl FnMut()) -> Sample {
    // Warm-up + calibration: how long does one call take?
    let t0 = Instant::now();
    f();
    let once = t0.elapsed().as_nanos().max(1) as u64;
    let iters = (150_000_000 / once).clamp(3, 10_000);
    // Best-of-3 batches shields the figure from scheduler noise.
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let t = Instant::now();
        for _ in 0..iters {
            f();
        }
        let per = t.elapsed().as_nanos() as f64 / iters as f64;
        best = best.min(per);
    }
    Sample {
        name: name.to_string(),
        iters,
        ns_per_iter: best,
    }
}

/// Times two kernels in interleaved batches and reports the *median of
/// per-batch ratios* alongside best-of ns figures.
///
/// The machine this runs on is a shared vCPU whose effective frequency
/// drifts between batches; timing the two kernels in separate blocks lets a
/// frequency step land between them and pollute the ratio. Back-to-back
/// batches see the same machine state, so each batch's ratio is clean, and
/// the median discards the batches a context switch landed in.
fn time_paired(
    name_a: &str,
    name_b: &str,
    mut a: impl FnMut(),
    mut b: impl FnMut(),
) -> (Sample, Sample, f64) {
    const ROUNDS: usize = 9;
    const BATCH_NS: u64 = 25_000_000;
    let t0 = Instant::now();
    a();
    let once_a = t0.elapsed().as_nanos().max(1) as u64;
    let t0 = Instant::now();
    b();
    let once_b = t0.elapsed().as_nanos().max(1) as u64;
    let iters_a = (BATCH_NS / once_a).clamp(3, 10_000);
    let iters_b = (BATCH_NS / once_b).clamp(3, 10_000);
    let mut ratios = [0.0f64; ROUNDS];
    let (mut best_a, mut best_b) = (f64::INFINITY, f64::INFINITY);
    for ratio in ratios.iter_mut() {
        let t = Instant::now();
        for _ in 0..iters_a {
            a();
        }
        let per_a = t.elapsed().as_nanos() as f64 / iters_a as f64;
        let t = Instant::now();
        for _ in 0..iters_b {
            b();
        }
        let per_b = t.elapsed().as_nanos() as f64 / iters_b as f64;
        best_a = best_a.min(per_a);
        best_b = best_b.min(per_b);
        *ratio = per_b / per_a;
    }
    ratios.sort_by(f64::total_cmp);
    let sa = Sample {
        name: name_a.to_string(),
        iters: iters_a,
        ns_per_iter: best_a,
    };
    let sb = Sample {
        name: name_b.to_string(),
        iters: iters_b,
        ns_per_iter: best_b,
    };
    (sa, sb, ratios[ROUNDS / 2])
}

/// An [`Env`] that swallows everything: the server-side rows time what a
/// handler does up to and including building its messages.
struct Sink;

impl Env<FlMsg> for Sink {
    fn now(&self) -> SimTime {
        SimTime::ZERO
    }
    fn me(&self) -> NodeId {
        0
    }
    fn num_nodes(&self) -> usize {
        1
    }
    fn send(&mut self, _to: NodeId, msg: FlMsg) {
        std::hint::black_box(msg);
    }
    fn set_timer(&mut self, _delay: SimTime, _tag: u64) {}
    fn busy(&mut self, _duration: SimTime) {}
    fn record(&mut self, _series: &str, _value: f64) {}
    fn add_counter(&mut self, _name: &str, _delta: u64) {}
}

fn fill(rows: usize, cols: usize, seed: u64) -> Matrix {
    Matrix::from_vec(rows, cols, random_params(rows * cols, seed).into_vec())
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// The paired ratios the gate compares, each against its recorded value.
const GATED: [&str; 3] = [
    "matmul_128x128_speedup_vs_naive",
    "trimmed_mean_8x65536_speedup_vs_scalar",
    "topk_1pct_65536_residual_speedup_vs_histogram",
];
/// A fresh gated ratio may fall to this share of the recorded one before
/// the gate fails (paired ratios on one host spread about ±15 %).
const REGRESS_SHARE: f64 = 0.75;
/// Model dimension of the codec-path rows (`des_bigmodel_codec`'s).
const CODEC_DIM: usize = 65_536;
/// Model dimension of the Tab. 3 procedure rows (the order of the paper's
/// small CNNs).
const TAB3_DIM: usize = 100_000;

/// The number recorded under top-level key `key` of a JSON file this
/// runner wrote earlier, if the file and the key exist.
fn recorded(path: &str, key: &str) -> Option<f64> {
    let text = std::fs::read_to_string(path).ok()?;
    let after = text.split(&format!("\"{key}\":")).nth(1)?;
    let number = after.split([',', '}', '\n']).next()?;
    number.trim().parse().ok()
}

/// What stage 2 of a `des_bigmodel_codec` client's encoder selects from
/// after `rounds` paper-pipeline rounds: the delta of the next local step
/// plus the error-feedback residual. The client is one of the workload's
/// `MeanTargetTrainer`s, pulled toward a target spread ±0.25 around a
/// centre, and receives its own decoded update back each round.
fn encoder_input(dim: usize, rounds: usize) -> Vec<f32> {
    let target: Vec<f32> = random_params(dim, 22)
        .as_slice()
        .iter()
        .map(|w| 0.4 + 0.5 * w)
        .collect();
    let mut trainer = MeanTargetTrainer::new(target, 8);
    let mut step = |model: &[f32]| -> Vec<f32> {
        let mut params = ParamVec::from_vec(model.to_vec());
        trainer.train(&mut params, 0.1, 1);
        params.into_vec()
    };
    let mut model = vec![0.0f32; dim];
    let mut encoder = UpdateEncoder::new(CodecConfig::paper_pipeline());
    let mut decoder = UpdateDecoder::new();
    let (mut payload, mut received) = (Vec::new(), Vec::new());
    for _ in 0..rounds {
        let trained = step(&model);
        encoder.encode(7, &trained, &model, param_hash(&model), &mut payload);
        decoder
            .decode(&payload, Some(&model), &mut received)
            .expect("own payload decodes");
        std::mem::swap(&mut model, &mut received);
    }
    step(&model)
        .iter()
        .zip(&model)
        .zip(encoder.residual())
        .map(|((&u, &m), &r)| (u - m) + r)
        .collect()
}

/// The top-k kernel before the sampled floor, frozen as this runner's
/// reference: a histogram of every entry's magnitude bucket sets the floor,
/// and the gather tests eight entries at a time, then each singly. Kept out
/// of line: inlined into its timing loop, its time moved between 75 and
/// 102 µs with edits elsewhere in this file.
#[inline(never)]
fn top_k_full_histogram(values: &[f32], k: usize, keys: &mut Vec<u64>, idx: &mut Vec<u32>) {
    const MAGNITUDE: u32 = 0x7fff_ffff;
    const BUCKET_SHIFT: u32 = 19;
    const BUCKETS: usize = 1 << (31 - BUCKET_SHIFT);
    const GATHER_CHUNK: usize = 8;
    idx.clear();
    let k = k.min(values.len());
    if k == 0 {
        return;
    }
    if k == values.len() {
        idx.extend(0..k as u32);
        return;
    }
    let magnitude = |v: &f32| v.to_bits() & MAGNITUDE;
    let mut counts = [0u32; BUCKETS];
    for v in values {
        counts[(magnitude(v) >> BUCKET_SHIFT) as usize] += 1;
    }
    let mut bucket = BUCKETS;
    let mut covered = 0;
    while covered < k {
        bucket -= 1;
        covered += counts[bucket] as usize;
    }
    let floor = (bucket as u32) << BUCKET_SHIFT;
    keys.clear();
    for (c, chunk) in values.chunks(GATHER_CHUNK).enumerate() {
        if chunk.iter().map(magnitude).fold(0, u32::max) < floor {
            continue;
        }
        for (i, v) in chunk.iter().enumerate() {
            if magnitude(v) >= floor {
                let rank = u64::from(MAGNITUDE - magnitude(v));
                keys.push(rank << 32 | (c * GATHER_CHUNK + i) as u64);
            }
        }
    }
    keys.select_nth_unstable(k - 1);
    idx.extend(keys[..k].iter().map(|&key| key as u32));
    idx.sort_unstable();
}

/// The documented top-k set by brute force: descending magnitude,
/// ascending index on ties, the first `k` returned ascending.
fn full_sort_head(values: &[f32], k: usize) -> Vec<u32> {
    let mut order: Vec<u32> = (0..values.len() as u32).collect();
    order.sort_by(|&a, &b| {
        values[b as usize]
            .abs()
            .total_cmp(&values[a as usize].abs())
            .then(a.cmp(&b))
    });
    order.truncate(k);
    order.sort_unstable();
    order
}

/// The aggregation procedures of paper Tab. 3 at 100 000 parameters —
/// Spyker/FedAsync integrate one update or one peer model at a time,
/// FedAvg/HierFAVG and Sync-Spyker average a whole round — then a loss and
/// an LSTM step no other row covers. Timed after every gated pair, so the
/// gated kernels keep the heap layout they were recorded with.
fn procedure_and_step_rows() -> Vec<Sample> {
    let mut rows = Vec::new();
    let mut model = random_params(TAB3_DIM, 2);
    let update = random_params(TAB3_DIM, 1);
    rows.push(time_it("tab3_client_update_lerp_100000", || {
        model.lerp_toward(&update, 0.6 * 0.5)
    }));
    let peer = random_params(TAB3_DIM, 3);
    let mut model = random_params(TAB3_DIM, 4);
    rows.push(time_it("tab3_spyker_server_merge_100000", || {
        let age = 120.0;
        let w = server_agg_weight(1.5, age, 150.0);
        model.lerp_toward(&peer, 0.6 * w);
        std::hint::black_box(blended_age(0.6, w, age, 150.0));
    }));
    let updates: Vec<ParamVec> = (0..100).map(|i| random_params(TAB3_DIM, 10 + i)).collect();
    rows.push(time_it("tab3_fedavg_round_100x100000", || {
        let weighted: Vec<(&ParamVec, f64)> = updates.iter().map(|p| (p, 1.0)).collect();
        std::hint::black_box(ParamVec::weighted_mean(&weighted));
    }));
    let models: Vec<ParamVec> = (0..4).map(|i| random_params(TAB3_DIM, 200 + i)).collect();
    rows.push(time_it("tab3_sync_spyker_round_4x100000", || {
        let weighted: Vec<(&ParamVec, f64)> = models.iter().map(|p| (p, 1.0)).collect();
        std::hint::black_box(ParamVec::weighted_mean(&weighted));
    }));

    let logits = fill(32, 10, 40);
    let targets: Vec<usize> = (0..32).map(|i| i % 10).collect();
    rows.push(time_it("cross_entropy_32x10", || {
        std::hint::black_box(cross_entropy_from_logits(&logits, &targets));
    }));
    // One BPTT window of the WikiText scenario's LSTM.
    let window: Vec<u8> = (0..32u8).map(|i| i % 28).collect();
    let mut lstm = CharLstm::new(28, 12, 16, 1);
    rows.push(time_it("char_lstm_train_window32", || {
        std::hint::black_box(lstm.train_window(&window, 1.0));
    }));
    rows
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_tensor.json".to_string());
    let mut samples = Vec::new();

    // --- GEMM vs the frozen pre-optimisation kernel: 64² and 128² run the
    // in-place regime, 256² the blocked one. ---------------------------------
    let mut speedups = Vec::new();
    for &n in &[64usize, 128, 256] {
        let a = fill(n, n, 1);
        let b = fill(n, n, 2);
        let mut out = Matrix::zeros(n, n);
        let (tiled, naive, speedup) = time_paired(
            &format!("matmul_{n}x{n}"),
            &format!("matmul_naive_{n}x{n}"),
            || a.matmul_into(&b, &mut out),
            || {
                std::hint::black_box(a.matmul_naive(&b));
            },
        );
        println!(
            "matmul_{n}x{n}: tiled {:>10.0} ns  naive {:>10.0} ns  speedup {speedup:.2}x",
            tiled.ns_per_iter, naive.ns_per_iter
        );
        samples.push(tiled);
        samples.push(naive);
        speedups.push((format!("matmul_{n}x{n}_speedup_vs_naive"), speedup));
    }

    // --- Transposed-operand paths (backward-pass shapes). ------------------
    let a = fill(128, 64, 3);
    let g = fill(128, 32, 4);
    let mut out = Matrix::zeros(64, 32);
    samples.push(time_it("matmul_tn_128x64_128x32", || {
        a.matmul_tn_into(&g, &mut out)
    }));
    let d = fill(128, 32, 5);
    let w = fill(64, 32, 6);
    let mut out2 = Matrix::zeros(128, 64);
    samples.push(time_it("matmul_nt_128x32_64x32", || {
        d.matmul_nt_into(&w, &mut out2)
    }));

    // --- One `Mlp [192, 32, 10]` step at batch 10: `des_train_4s100c`. -------
    // The forward product is the shape `bench_e2e` times as
    // `tensor.matmul_us`; the two backward ones and the whole step are rows
    // its ledger cannot see.
    let x = fill(10, 192, 30);
    let w0 = fill(192, 32, 31);
    let mut z = Matrix::zeros(10, 32);
    samples.push(time_it("matmul_10x192_192x32", || {
        x.matmul_into(&w0, &mut z)
    }));
    let delta0 = fill(10, 32, 32);
    let mut dw0 = Matrix::zeros(192, 32);
    samples.push(time_it("matmul_tn_10x192_10x32", || {
        x.matmul_tn_into(&delta0, &mut dw0)
    }));
    // The same product applied to the weights in its write-back, as the
    // step runs it (no `dW0` is written).
    let mut w0_step = fill(192, 32, 36);
    samples.push(time_it("axpy_tn_192x32_k10", || {
        w0_step.axpy_tn(-1e-6, &x, &delta0)
    }));
    let delta1 = fill(10, 10, 33);
    let w1 = fill(32, 10, 34);
    let mut back = Matrix::zeros(10, 32);
    samples.push(time_it("matmul_nt_10x10_32x10", || {
        delta1.matmul_nt_into(&w1, &mut back)
    }));
    let mut mlp = Mlp::new(&[192, 32, 10], 35);
    let labels: Vec<usize> = (0..10).collect();
    samples.push(time_it("mlp_step_192x32x10_b10", || {
        std::hint::black_box(mlp.train_batch(&x, &labels, 0.05));
    }));

    // --- Blocked transpose. -------------------------------------------------
    let t = fill(512, 256, 7);
    let mut tout = Matrix::zeros(256, 512);
    samples.push(time_it("transpose_512x256", || t.transpose_into(&mut tout)));

    // --- im2col (CNN hot loop). ---------------------------------------------
    let shape = Conv2dShape {
        in_channels: 3,
        in_h: 32,
        in_w: 32,
        kh: 3,
        kw: 3,
        stride: 1,
        pad: 1,
    };
    let input: Vec<f32> = (0..shape.input_len()).map(|i| i as f32 * 0.01).collect();
    let mut cols = Matrix::default();
    samples.push(time_it("im2col_3x32x32_k3", || {
        im2col_into(&input, &shape, &mut cols)
    }));

    // --- One end-to-end client step. -----------------------------------------
    // A full local round of the MNIST-like scenario's default model: the
    // number the DES charges a client for, now measured on the real stack.
    let ds = SynthImages::generate(&SynthImagesSpec::mnist_like_scaled(400), 1);
    let model = SoftmaxRegression::new(ds.train.feature_len(), 10, 1);
    let num_params = model.num_params();
    let mut trainer = DenseShardTrainer::new(model, ds.train.clone(), 40, 7);
    let mut params = ParamVec::from_vec(random_params(num_params, 8).into_vec());
    samples.push(time_it("client_step_softmax_mnist400_b40", || {
        trainer.train(&mut params, 0.05, 1);
    }));

    // The same for the benchmark's client: one local round of the MLP over
    // a 40-sample CIFAR-like shard in batches of 10 (`Scenario::cifar` at
    // 100 clients).
    let ds = SynthImages::generate(&SynthImagesSpec::cifar_like_scaled(40), 2);
    let model = Mlp::new(&[ds.train.feature_len(), 32, 10], 2);
    let mut params = ParamVec::from_vec(model.params_vec());
    let mut trainer = DenseShardTrainer::new(model, ds.train.clone(), 10, 9);
    samples.push(time_it("client_round_mlp_cifar40_b10", || {
        trainer.train(&mut params, 0.05, 1);
    }));

    // --- Codec path, at the `des_bigmodel_codec` shapes. ----------------------
    // What `bench_e2e` times but cannot be edited to split further: the
    // reference id (hashed twice per update and absent from its ledger), the
    // 8-row robust flush kernel against the per-coordinate scalar reference
    // it replaced, top-k at 1 %, and one whole paper-pipeline encode.
    let model = random_params(CODEC_DIM, 9).into_vec();
    samples.push(time_it("param_hash_65536", || {
        std::hint::black_box(param_hash(std::hint::black_box(&model)));
    }));
    let rows: Vec<Vec<f32>> = (0..8)
        .map(|r| random_params(CODEC_DIM, 10 + r).into_vec())
        .collect();
    let row_refs: Vec<&[f32]> = rows.iter().map(Vec::as_slice).collect();
    let mut combined = vec![0.0f32; CODEC_DIM];
    let mut reference = vec![0.0f32; CODEC_DIM];
    let (network, scalar, speedup) = time_paired(
        "trimmed_mean_8x65536_trim2",
        "trimmed_mean_scalar_8x65536_trim2",
        || coordinate_trimmed_mean(std::hint::black_box(&row_refs), 2, &mut combined),
        || {
            let mut column = [0.0f32; 8];
            for (j, slot) in reference.iter_mut().enumerate() {
                for (c, row) in column.iter_mut().zip(&row_refs) {
                    *c = row[j];
                }
                *slot = trimmed_mean_inplace(&mut column, 2);
            }
        },
    );
    println!(
        "trimmed_mean_8x65536: network {:>9.0} ns  scalar {:>10.0} ns  speedup {speedup:.2}x",
        network.ns_per_iter, scalar.ns_per_iter
    );
    assert!(
        combined
            .iter()
            .zip(&reference)
            .all(|(a, b)| a.to_bits() == b.to_bits()),
        "network and scalar trimmed means disagree"
    );
    samples.push(network);
    samples.push(scalar);
    speedups.push((
        "trimmed_mean_8x65536_speedup_vs_scalar".to_string(),
        speedup,
    ));
    let mut idx = Vec::new();
    samples.push(time_it("topk_1pct_65536", || {
        top_k_indices(std::hint::black_box(&model), CODEC_DIM / 100 + 1, &mut idx)
    }));
    // Top-k on what the encoder's stage 2 actually selects from, against
    // the full-histogram kernel it replaced.
    let x = encoder_input(CODEC_DIM, 6);
    let k = UpdateEncoder::new(CodecConfig::paper_pipeline()).kept(CODEC_DIM);
    let (mut keys, mut reference_keys, mut reference_idx) = (Vec::new(), Vec::new(), Vec::new());
    top_k_indices_with(&x, k, &mut keys, &mut idx);
    top_k_full_histogram(&x, k, &mut reference_keys, &mut reference_idx);
    let want = full_sort_head(&x, k);
    assert!(
        idx == want && reference_idx == want,
        "top-k disagrees with a full sort"
    );
    let (sampled, histogram, speedup) = time_paired(
        "topk_1pct_65536_residual",
        "topk_histogram_1pct_65536_residual",
        || top_k_indices_with(std::hint::black_box(&x), k, &mut keys, &mut idx),
        || {
            top_k_full_histogram(
                std::hint::black_box(&x),
                k,
                &mut reference_keys,
                &mut reference_idx,
            )
        },
    );
    println!(
        "topk_1pct_65536_residual: sampled {:>8.0} ns  histogram {:>8.0} ns  speedup {speedup:.2}x",
        sampled.ns_per_iter, histogram.ns_per_iter
    );
    samples.push(sampled);
    samples.push(histogram);
    speedups.push((
        "topk_1pct_65536_residual_speedup_vs_histogram".to_string(),
        speedup,
    ));
    let trained = random_params(CODEC_DIM, 20).into_vec();
    let mut encoder = UpdateEncoder::new(CodecConfig::paper_pipeline());
    let ref_hash = param_hash(&model);
    let mut payload = Vec::new();
    samples.push(time_it("codec_encode_paper_65536", || {
        encoder.encode(7, &trained, &model, ref_hash, &mut payload)
    }));

    // --- Handing the model out, under the delta codec. -----------------------
    // Every send records the model in the receiver's reference history and
    // builds a `ModelToClient`. A reply re-sends a version the server
    // already handed out (the robust buffer steps the model every 8th
    // update); a broadcast here is of a version nobody has seen yet, so it
    // also pays for the server's step having to leave the old version
    // intact for whoever still refers to it.
    let clients: Vec<NodeId> = (1..=32).collect();
    let delta = CodecConfig::parse("delta").expect("valid spec");
    let cfg = SpykerConfig::paper_defaults(clients.len(), 1).with_codec(delta);
    let mut ingest = UpdateIngest::from_config(clients, &cfg);
    let mut current = random_params(CODEC_DIM, 21);
    ingest.broadcast(&mut Sink, &current, 0.0);
    samples.push(time_it("reply_delta_65536", || {
        ingest.reply(&mut Sink, 1, &current, 0.0)
    }));
    samples.push(time_it("broadcast_delta_32x65536", || {
        current.as_mut_slice()[0] += 1.0;
        ingest.broadcast(&mut Sink, &current, 0.0);
    }));

    // --- One encoded update at each end, under the paper pipeline. ---------
    // The client trains a model it shares with its server (the first write
    // gives the round storage of its own), takes the reference's hash (the
    // server's, memoised when it sent the model) and encodes. The server
    // decodes the upload straight into its delta against the current model,
    // gates it and buffers it as a trimmed-mean row; every 8th update
    // flushes, onto a model the replies in flight still hold.
    let served = random_params(CODEC_DIM, 23);
    let robust = AggregationStrategy::TrimmedMean {
        batch: 8,
        trim_ratio: 0.25,
    };
    let cfg = SpykerConfig::paper_defaults(1, 1)
        .with_codec(CodecConfig::paper_pipeline())
        .with_aggregation(robust);
    let mut server = UpdateIngest::from_config(vec![1], &cfg);
    server.reply(&mut Sink, 1, &served, 0.0);
    let mut trainer = MeanTargetTrainer::new(random_params(CODEC_DIM, 24).into_vec(), 8);
    let mut encoder = UpdateEncoder::new(CodecConfig::paper_pipeline());
    let mut upload = Vec::new();
    samples.push(time_it("client_round_codec_65536", || {
        let (reference, mut params) = (served.clone(), served.clone());
        trainer.train(&mut params, 0.1, 1);
        let hash = reference.content_hash();
        encoder.encode(
            7,
            params.as_slice(),
            reference.as_slice(),
            hash,
            &mut upload,
        );
    }));
    let (mut params, mut age) = (served.clone(), 0.0);
    let mut in_flight = params.clone();
    samples.push(time_it("server_ingest_codec_65536", || {
        // No reply: it would record each new version, and the upload's
        // reference would leave the history.
        if let Some((delta, finite)) =
            server.encoded_update(&mut Sink, 1, &upload, &params, age, true)
        {
            let delta = Upload::Delta(delta, finite);
            server.client_update(&mut Sink, &mut params, &mut age, 0, delta, 0.0, false);
        }
        in_flight = params.clone();
    }));
    std::hint::black_box(&in_flight);

    samples.extend(procedure_and_step_rows());

    // --- Hand-rolled JSON (no serde in the image). ---------------------------
    let mut json = String::from("{\n  \"benchmarks\": [\n");
    for (i, s) in samples.iter().enumerate() {
        let comma = if i + 1 < samples.len() { "," } else { "" };
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"iters\": {}, \"ns_per_iter\": {:.1}}}{comma}\n",
            json_escape(&s.name),
            s.iters,
            s.ns_per_iter
        ));
    }
    json.push_str("  ],\n");
    for (i, (name, speedup)) in speedups.iter().enumerate() {
        let comma = if i + 1 < speedups.len() { "," } else { "" };
        json.push_str(&format!("  \"{name}\": {speedup:.3}{comma}\n"));
    }
    json.push_str("}\n");

    // CI gate: each optimised kernel must keep its lead over its frozen
    // reference. Exit non-zero so scripts/check.sh fails loudly — and leave
    // the recorded file alone, so a rerun is judged against the same
    // baseline rather than against the regressed figure. The recorded file
    // is read only now: read before the timing, its length moved where the
    // allocator put the GEMM operands and outputs, and a naive 128² product
    // whose output lands 64-byte aligned ran ≈ 20 % faster than one 16
    // bytes off — the gated ratio moved with the length of the JSON.
    let baselines = GATED.map(|key| recorded(&out_path, key));
    let mut failed = false;
    for (key, baseline) in GATED.iter().zip(baselines) {
        let fresh = speedups
            .iter()
            .find(|(n, _)| n == key)
            .map(|&(_, s)| s)
            .expect("gated ratio present");
        match baseline {
            Some(recorded) if fresh < REGRESS_SHARE * recorded => {
                eprintln!(
                    "FAIL: {key} {fresh:.2}x < {REGRESS_SHARE} x the {recorded:.2}x recorded in \
                     {out_path}"
                );
                failed = true;
            }
            Some(recorded) => {
                println!("ok: {key} {fresh:.2}x >= {REGRESS_SHARE} x the recorded {recorded:.2}x")
            }
            None => {
                println!("ok: {key} {fresh:.2}x (nothing recorded in {out_path} to compare with)")
            }
        }
    }
    if failed {
        std::process::exit(1);
    }
    std::fs::write(&out_path, &json).expect("write benchmark JSON");
    println!("wrote {out_path}");
}
