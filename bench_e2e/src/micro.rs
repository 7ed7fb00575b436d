//! Unit costs: medians of direct calls into the kernels a workload's
//! handlers run, at the workload's own model dimension and message shapes.
//!
//! A handler span cannot be split from outside (the encoder runs inside
//! `FlClient::on_message`, the decoder, the validation gate and the robust
//! buffer inside `SpykerServer::on_message`), so the ledger reports these
//! per-call costs beside the catalog counts they multiply.

use std::hint::black_box;
use std::time::Instant;

use bytes::Bytes;
use spyker_core::agg::{validate_update, AggregationStrategy, RobustBuffer, ValidationConfig};
use spyker_core::codec::{self, FrameAccumulator};
use spyker_core::msg::FlMsg;
use spyker_core::params::ParamVec;
use spyker_core::update_codec::{param_hash, CodecConfig, UpdateDecoder, UpdateEncoder};
use spyker_data::partition::label_partition;
use spyker_data::synth::{SynthImages, SynthImagesSpec};
use spyker_tensor::{coordinate_trimmed_mean, quantize_into, top_k_indices, Matrix};

use crate::stats::median;

/// Batches timed per kernel; the reported cost is the median batch.
const BATCHES: usize = 9;
/// Wall time one batch is sized to fill.
const BATCH_NS: u128 = 2_000_000;
/// Rows of the robust buffer (the `des_bigmodel_codec` batch size).
const ROWS: usize = 8;

/// One unit cost: metric name, unit, value.
pub type UnitCost = (&'static str, &'static str, f64);

/// Median nanoseconds per call of `f`, over [`BATCHES`] batches sized to
/// about [`BATCH_NS`] each.
fn ns_per_call(mut f: impl FnMut()) -> f64 {
    let t = Instant::now();
    f();
    let once = t.elapsed().as_nanos().max(1);
    let iters = (BATCH_NS / once).clamp(1, 100_000) as usize;
    let batches: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..iters {
                f();
            }
            t.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    median(&batches)
}

/// A deterministic, well-spread value in `[-1, 1)` for slot `i`.
fn wave(i: usize, salt: u64) -> f32 {
    let mut x = (i as u64 ^ salt).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x ^= x >> 29;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 32;
    (x >> 40) as f32 / (1u64 << 23) as f32 - 1.0
}

fn vector(dim: usize, salt: u64) -> Vec<f32> {
    (0..dim).map(|i| wave(i, salt)).collect()
}

/// Measures every unit cost at model dimension `dim`.
pub fn unit_costs(dim: usize, seed: u64) -> Vec<UnitCost> {
    let mut out: Vec<UnitCost> = Vec::new();
    let per_param = |ns: f64| ns / dim as f64;

    // tensor: the MLP's first-layer product for one mini-batch.
    let (x, w) = (
        Matrix::from_vec(10, 192, vector(10 * 192, seed)),
        Matrix::from_vec(192, 32, vector(192 * 32, seed ^ 1)),
    );
    let mut y = Matrix::zeros(10, 32);
    out.push((
        "tensor.matmul_us",
        "us",
        ns_per_call(|| black_box(&x).matmul_into(black_box(&w), &mut y)) * 1e-3,
    ));

    let values = vector(dim, seed ^ 2);
    let kept = (dim.div_ceil(100)).max(1);
    let mut idx = Vec::new();
    out.push((
        "tensor.topk_ns_per_param",
        "ns",
        per_param(ns_per_call(|| {
            top_k_indices(black_box(&values), kept, &mut idx)
        })),
    ));

    let mut codes = Vec::new();
    let mut lcg = seed | 1;
    let mut draw = move || {
        lcg = lcg.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
        (lcg >> 40) as f32 / (1u64 << 24) as f32
    };
    out.push((
        "tensor.quantize_ns_per_param",
        "ns",
        per_param(ns_per_call(|| {
            black_box(quantize_into(
                black_box(&values),
                127,
                true,
                &mut draw,
                &mut codes,
            ));
        })),
    ));

    let rows: Vec<Vec<f32>> = (0..ROWS)
        .map(|r| vector(dim, seed ^ (r as u64 + 3)))
        .collect();
    let row_refs: Vec<&[f32]> = rows.iter().map(Vec::as_slice).collect();
    let mut combined = vec![0.0; dim];
    out.push((
        "tensor.trimmed_mean_ns_per_param",
        "ns",
        per_param(ns_per_call(|| {
            coordinate_trimmed_mean(black_box(&row_refs), ROWS / 4, &mut combined);
        })),
    ));

    // data: what `Scenario::cifar(100, ..)` generates and partitions.
    let t = Instant::now();
    let images = SynthImages::generate(&SynthImagesSpec::cifar_like_scaled(4000), seed);
    black_box(label_partition(images.train.labels(), 100, 2, seed));
    out.push(("data.build_s", "s", t.elapsed().as_secs_f64()));

    // core, wire framing: a dense client update of this dimension.
    let update = ParamVec::from_vec(vector(dim, seed ^ 20));
    let current = ParamVec::from_vec(vector(dim, seed ^ 21));
    let msg = FlMsg::ClientUpdate {
        params: update.clone(),
        age: 3.0,
        num_samples: 8,
    };
    let mut frame = Vec::new();
    out.push((
        "core.wire_encode_us",
        "us",
        ns_per_call(|| {
            frame.clear();
            codec::frame_into(black_box(&msg), &mut frame);
        }) * 1e-3,
    ));
    let mut acc = FrameAccumulator::new(codec::MAX_FRAME_LEN);
    out.push((
        "core.wire_decode_us",
        "us",
        ns_per_call(|| {
            acc.feed(black_box(&frame));
            let payload = acc
                .next_frame()
                .expect("well-formed frame")
                .expect("one complete frame was fed");
            black_box(codec::decode(&Bytes::from(payload)).expect("round trip"));
        }) * 1e-3,
    ));

    // core, update codec: the paper pipeline against the model received.
    let mut encoder = UpdateEncoder::new(CodecConfig::paper_pipeline());
    let ref_hash = param_hash(current.as_slice());
    let mut payload = Vec::new();
    out.push((
        "core.update_encode_us",
        "us",
        ns_per_call(|| {
            payload.clear();
            encoder.encode(
                7,
                update.as_slice(),
                current.as_slice(),
                ref_hash,
                &mut payload,
            );
        }) * 1e-3,
    ));
    let mut decoder = UpdateDecoder::new();
    let mut decoded = Vec::new();
    out.push((
        "core.update_decode_us",
        "us",
        ns_per_call(|| {
            decoder
                .decode(black_box(&payload), Some(current.as_slice()), &mut decoded)
                .expect("round trip");
        }) * 1e-3,
    ));

    // core, aggregation path.
    let gate = ValidationConfig::default();
    out.push((
        "core.validate_us",
        "us",
        ns_per_call(|| {
            black_box(validate_update(
                &gate,
                &current,
                black_box(&update),
                5.0,
                3.0,
            ))
            .ok();
        }) * 1e-3,
    ));
    let mut buffer = RobustBuffer::from_strategy(AggregationStrategy::TrimmedMean {
        batch: ROWS,
        trim_ratio: 0.25,
    })
    .expect("trimmed mean buffers");
    let mut flushed = ParamVec::zeros(0);
    out.push((
        "core.robust_flush_us",
        "us",
        ns_per_call(|| {
            for row in &rows {
                let mut delta = buffer.take_delta(dim);
                delta.as_mut_slice().copy_from_slice(row);
                buffer.push(delta, 1.0);
            }
            black_box(buffer.flush_into(&mut flushed));
        }) * 1e-3,
    ));
    let mut model = current.clone();
    out.push((
        "core.lerp_us",
        "us",
        ns_per_call(|| model.lerp_toward(black_box(&update), 0.01)) * 1e-3,
    ));
    out.push((
        "core.model_clone_us",
        "us",
        ns_per_call(|| {
            black_box(black_box(&current).clone());
        }) * 1e-3,
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_costs_are_positive_and_named_once() {
        let costs = unit_costs(64, 1);
        assert_eq!(costs.len(), 13);
        for (name, _, value) in &costs {
            assert!(value.is_finite() && *value > 0.0, "{name} = {value}");
            assert_eq!(costs.iter().filter(|(n, ..)| n == name).count(), 1);
        }
    }

    #[test]
    fn wave_is_deterministic_and_in_range() {
        for i in 0..1000 {
            let v = wave(i, 9);
            assert!((-1.0..1.0).contains(&v));
            assert_eq!(v, wave(i, 9));
        }
    }
}
