//! Property tests for the update-compression codec (DESIGN.md §16).
//!
//! Four families of properties:
//!
//! 1. **Round-trip bounds**: the identity pipeline is exact; delta alone
//!    is exact on well-conditioned values; top-k preserves the k
//!    largest-magnitude coordinates verbatim; quantization error is
//!    bounded by the step size (half a step for nearest rounding).
//! 2. **Determinism**: two encoders with the same config produce
//!    bit-identical payloads for the same (stream, state, input) — the
//!    seeded stochastic rounding stream is reproducible.
//! 3. **Composability**: the stacked `delta → topk → q8` pipeline decodes
//!    to a bounded-support correction of the reference, with the exact
//!    wire size the header layout predicts.
//! 4. **Hostile input**: truncated prefixes are rejected with typed
//!    errors; single-byte corruption never panics; error feedback
//!    conserves the dropped mass exactly.
//! 5. **Reference id**: `param_hash` tells apart any two vectors of one
//!    length that differ in one coordinate, by as little as one bit, and
//!    vectors that differ only in length, order or the sign of a zero.
//! 6. **Pinned bytes**: 24 error-feedback rounds of the paper pipeline at
//!    dim 65 536 reproduce one recorded fingerprint.
//! 7. **Decoding into the difference**: `decode_minus` against a base is
//!    `decode` followed by `u − b`, with the same finiteness flag and the
//!    same errors, on every pipeline and on hostile payloads.

use proptest::prelude::*;
use spyker_core::update_codec::{
    corrupt_payload, param_hash, CodecConfig, CodecError, QuantBits, Rounding, UpdateDecoder,
    UpdateEncoder,
};
use spyker_simnet::ByzantineAttack;

/// Arbitrary finite values, wide enough to exercise scale selection.
fn values(dim: usize) -> impl Strategy<Value = Vec<f32>> {
    prop::collection::vec(-1e4f32..1e4, dim..=dim)
}

/// Integer-valued f32s: subtraction and re-addition are exact for these
/// (|a - b| < 2^21 fits the 24-bit mantissa), so delta round-trips must be
/// bit-perfect rather than merely close.
fn integer_values(dim: usize) -> impl Strategy<Value = Vec<f32>> {
    prop::collection::vec(-1_000_000i32..1_000_000, dim..=dim)
        .prop_map(|v| v.into_iter().map(|i| i as f32).collect())
}

fn lossless_cfg() -> CodecConfig {
    CodecConfig::identity()
}

fn delta_cfg() -> CodecConfig {
    CodecConfig {
        delta: true,
        ..CodecConfig::identity()
    }
}

fn topk_cfg(ratio: f32) -> CodecConfig {
    CodecConfig {
        topk: Some(ratio),
        error_feedback: false,
        ..CodecConfig::identity()
    }
}

fn quant_cfg(bits: QuantBits, rounding: Rounding) -> CodecConfig {
    CodecConfig {
        quant: Some(bits),
        rounding,
        error_feedback: false,
        ..CodecConfig::identity()
    }
}

fn encode_once(cfg: CodecConfig, stream: u64, update: &[f32], reference: &[f32]) -> Vec<u8> {
    let mut enc = UpdateEncoder::new(cfg);
    let mut payload = Vec::new();
    enc.encode(
        stream,
        update,
        reference,
        param_hash(reference),
        &mut payload,
    );
    payload
}

fn decode_once(payload: &[u8], reference: Option<&[f32]>) -> Vec<f32> {
    let mut dec = UpdateDecoder::new();
    let mut out = Vec::new();
    dec.decode(payload, reference, &mut out).expect("decodes");
    out
}

proptest! {
    /// The identity pipeline (no stages enabled) round-trips arbitrary
    /// finite values exactly.
    #[test]
    fn identity_pipeline_round_trips_exactly(update in (1usize..64).prop_flat_map(values)) {
        let payload = encode_once(lossless_cfg(), 7, &update, &[]);
        let out = decode_once(&payload, None);
        prop_assert_eq!(out, update);
    }

    /// Delta encoding alone is exactly invertible: on integer-valued
    /// parameters (where f32 subtraction is exact) decode(encode(u, r), r)
    /// reproduces `u` bit for bit.
    #[test]
    fn delta_round_trip_is_exact(
        pair in (1usize..64).prop_flat_map(|d| (integer_values(d), integer_values(d))),
    ) {
        let (update, reference) = pair;
        let payload = encode_once(delta_cfg(), 7, &update, &reference);
        let out = decode_once(&payload, Some(&reference));
        prop_assert_eq!(out, update);
    }

    /// Top-k keeps at least `k = ⌈ratio·dim⌉` coordinates verbatim, zeros
    /// the rest, and never drops a coordinate whose magnitude exceeds a
    /// kept one.
    #[test]
    fn topk_preserves_the_k_largest_magnitudes(
        update in (2usize..64).prop_flat_map(values),
        ratio in 0.05f32..1.0,
    ) {
        let cfg = topk_cfg(ratio);
        let k = UpdateEncoder::new(cfg).kept(update.len());
        let payload = encode_once(cfg, 7, &update, &[]);
        let out = decode_once(&payload, None);
        prop_assert_eq!(out.len(), update.len());
        let mut changed = 0usize;
        let mut min_kept = f32::INFINITY;
        let mut max_dropped = 0.0f32;
        for (o, u) in out.iter().zip(&update) {
            if o == u {
                min_kept = min_kept.min(u.abs());
            } else {
                prop_assert_eq!(*o, 0.0, "dropped coordinate must decode to zero");
                changed += 1;
                max_dropped = max_dropped.max(u.abs());
            }
        }
        // At least k coordinates survive (more if dropped ones were zero
        // already), and the kept set dominates the dropped set.
        prop_assert!(changed <= update.len() - k);
        prop_assert!(
            max_dropped <= min_kept,
            "dropped |{max_dropped}| exceeds kept |{min_kept}|"
        );
    }

    /// Nearest-rounding q8 error is at most half a quantization step,
    /// stochastic at most a full step (`step = max|x| / 127`).
    #[test]
    fn q8_error_is_bounded_by_the_step_size(
        update in (1usize..64).prop_flat_map(values),
        stochastic in 0u8..2,
    ) {
        let stochastic = stochastic == 1;
        let rounding = if stochastic { Rounding::Stochastic } else { Rounding::Nearest };
        let payload = encode_once(quant_cfg(QuantBits::Q8, rounding), 7, &update, &[]);
        let out = decode_once(&payload, None);
        let step = update.iter().fold(0.0f32, |m, v| m.max(v.abs())) / 127.0;
        let bound = if stochastic { step } else { step / 2.0 };
        for (o, u) in out.iter().zip(&update) {
            prop_assert!(
                (o - u).abs() <= bound * (1.0 + 1e-5) + f32::EPSILON,
                "error {} above bound {bound}", (o - u).abs()
            );
        }
    }

    /// Same bound for q4 with its 15-level grid (`step = max|x| / 7`).
    #[test]
    fn q4_error_is_bounded_by_the_step_size(update in (1usize..64).prop_flat_map(values)) {
        let payload = encode_once(
            quant_cfg(QuantBits::Q4, Rounding::Nearest), 7, &update, &[],
        );
        let out = decode_once(&payload, None);
        let step = update.iter().fold(0.0f32, |m, v| m.max(v.abs())) / 7.0;
        for (o, u) in out.iter().zip(&update) {
            prop_assert!(
                (o - u).abs() <= step / 2.0 * (1.0 + 1e-5) + f32::EPSILON,
                "error {} above bound {}", (o - u).abs(), step / 2.0
            );
        }
    }

    /// Two encoders with the same config produce bit-identical payloads
    /// for the same sequence of inputs: the stochastic rounding stream is
    /// a pure function of (seed, stream, update counter).
    #[test]
    fn same_seed_re_encodings_are_bit_identical(
        rounds in (1usize..32).prop_flat_map(|d| {
            prop::collection::vec((values(d), values(d)), 1..4)
        }),
        stream in 0u64..1000,
        seed in 0u64..u64::MAX,
    ) {
        let cfg = CodecConfig::paper_pipeline().with_seed(seed);
        let mut a = UpdateEncoder::new(cfg);
        let mut b = UpdateEncoder::new(cfg);
        for (update, reference) in &rounds {
            let h = param_hash(reference);
            let mut pa = Vec::new();
            let mut pb = Vec::new();
            a.encode(stream, update, reference, h, &mut pa);
            b.encode(stream, update, reference, h, &mut pb);
            prop_assert_eq!(pa, pb, "same state, same input, different bytes");
        }
    }

    /// The stacked `delta → topk → q8` pipeline composes: the decoded
    /// model differs from the reference on at most k coordinates, and the
    /// payload has exactly the size the layout predicts
    /// (1 flags + 4 dim + 8 hash + 4 k + 4k indices + 4 scale + k codes).
    #[test]
    fn stacked_pipeline_composes(
        pair in (4usize..128).prop_flat_map(|d| (values(d), values(d))),
        ratio in 0.05f32..0.5,
    ) {
        let (update, reference) = pair;
        let cfg = CodecConfig {
            delta: true,
            topk: Some(ratio),
            error_feedback: false,
            rounding: Rounding::Nearest,
            ..CodecConfig::identity()
        }
        .with_quant(QuantBits::Q8);
        let k = UpdateEncoder::new(cfg).kept(update.len());
        let payload = encode_once(cfg, 7, &update, &reference);
        prop_assert_eq!(payload.len(), 1 + 4 + 8 + 4 + 4 * k + 4 + k);
        let out = decode_once(&payload, Some(&reference));
        let changed = out
            .iter()
            .zip(&reference)
            .filter(|(o, r)| o != r)
            .count();
        prop_assert!(changed <= k, "{changed} coordinates touched, k = {k}");
    }

    /// Every strict prefix of a valid payload is rejected with a typed
    /// error — truncation can never decode to a bogus update.
    #[test]
    fn truncated_payloads_are_rejected(
        pair in (2usize..32).prop_flat_map(|d| (values(d), values(d))),
        cut_seed in 0u64..u64::MAX,
    ) {
        let (update, reference) = pair;
        let payload = encode_once(CodecConfig::paper_pipeline(), 7, &update, &reference);
        let cut = (cut_seed % payload.len() as u64) as usize;
        let mut dec = UpdateDecoder::new();
        let mut out = Vec::new();
        prop_assert!(UpdateDecoder::ref_hash(&payload[..cut]).is_err());
        prop_assert!(dec.decode(&payload[..cut], Some(&reference), &mut out).is_err());
    }

    /// Flipping any single byte of a valid payload never panics — the
    /// decoder either rejects it or produces some (garbage but bounded)
    /// update of the declared dimension.
    #[test]
    fn single_byte_corruption_never_panics(
        pair in (2usize..32).prop_flat_map(|d| (values(d), values(d))),
        pos_seed in 0u64..u64::MAX,
        flip in 1u8..=255,
    ) {
        let (update, reference) = pair;
        let mut payload = encode_once(CodecConfig::paper_pipeline(), 7, &update, &reference);
        let pos = (pos_seed % payload.len() as u64) as usize;
        payload[pos] ^= flip;
        let mut dec = UpdateDecoder::new();
        let mut out = Vec::new();
        if dec.decode(&payload, Some(&reference), &mut out).is_ok() {
            prop_assert_eq!(out.len(), update.len());
        }
    }

    /// Error feedback conserves mass exactly for the (unquantized) top-k
    /// stage: after each encode, `decoded_delta + residual` equals the
    /// pre-compression vector coordinate for coordinate — nothing is ever
    /// silently lost, only deferred.
    #[test]
    fn error_feedback_conserves_dropped_mass(
        rounds in (2usize..32).prop_flat_map(|d| {
            prop::collection::vec(values(d), 1..4)
        }),
        ratio in 0.05f32..0.5,
    ) {
        let cfg = CodecConfig {
            topk: Some(ratio),
            error_feedback: true,
            ..CodecConfig::identity()
        };
        let mut enc = UpdateEncoder::new(cfg);
        let mut payload = Vec::new();
        let mut carried: Vec<f32> = vec![0.0; rounds[0].len()];
        for update in &rounds {
            // What the encoder should compress this round: the update plus
            // the residual it carried in from the previous round.
            let x: Vec<f32> = update
                .iter()
                .zip(&carried)
                .map(|(u, c)| u + c)
                .collect();
            enc.encode(7, update, &[], 0, &mut payload);
            let out = decode_once(&payload, None);
            let residual = enc.residual().to_vec();
            for i in 0..x.len() {
                prop_assert_eq!(
                    out[i] + residual[i],
                    x[i],
                    "mass not conserved at coordinate {}", i
                );
            }
            carried = residual;
        }
    }

    /// Flipping any single bit of any single coordinate changes the hash,
    /// at every length up to and just past one 32-coordinate block.
    #[test]
    fn param_hash_sees_every_single_bit(seed in 0u64..u64::MAX) {
        for len in 1usize..=40 {
            let params: Vec<f32> = (0..len as u64)
                .map(|i| f32::from_bits((seed ^ i.wrapping_mul(0x9e37_79b9_7f4a_7c15)) as u32))
                .collect();
            let h = param_hash(&params);
            for i in 0..len {
                for bit in 0..32 {
                    let mut flipped = params.clone();
                    flipped[i] = f32::from_bits(params[i].to_bits() ^ 1 << bit);
                    prop_assert_ne!(param_hash(&flipped), h, "len {} coordinate {} bit {}", len, i, bit);
                }
            }
        }
    }

    /// Swapping two unequal coordinates changes the hash, wherever the
    /// two sit relative to the hash's lanes and blocks.
    #[test]
    fn param_hash_sees_order(params in values(70), i in 0usize..70, j in 0usize..70) {
        prop_assume!(params[i].to_bits() != params[j].to_bits());
        let mut swapped = params.clone();
        swapped.swap(i, j);
        prop_assert_ne!(param_hash(&swapped), param_hash(&params));
    }
}

/// Pins the paper pipeline's bytes at the `des_bigmodel_codec` dimension,
/// where top-k selection's sampled floor narrows the candidates (the
/// property battery above stays at dims < 128, whose sample of at most eight
/// entries never covers the floor's target, so every entry is a candidate
/// there). Twenty-four rounds of one client with error
/// feedback: each trains a seeded drift on top of the model it received —
/// per-coordinate scales spread over three decades, a slow shared trend and
/// a few outsized coordinates per round — and receives back its own decoded
/// update, so the delta reference and the residual both evolve the way
/// they do in a run. Every payload is folded into one FNV-1a constant,
/// recorded before the selection kernel was touched: a kernel change that
/// picks a different index set, or orders it differently, moves it.
#[test]
fn paper_pipeline_bytes_are_pinned_at_dim_65536() {
    const DIM: usize = 65_536;
    let mut state = 0x5eed_c0de_u64;
    let mut next = move || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    // Uniform in [-1, 1).
    let mut unit = move || (next() >> 40) as f32 / (1u64 << 23) as f32 - 1.0;
    let scales: Vec<f32> = (0..DIM).map(|_| 10f32.powf(-3.0 * unit().abs())).collect();
    let mut model: Vec<f32> = (0..DIM).map(|_| unit()).collect();
    let mut enc = UpdateEncoder::new(CodecConfig::paper_pipeline());
    let mut dec = UpdateDecoder::new();
    let (mut payload, mut received) = (Vec::new(), Vec::new());
    let mut folded = 0xcbf2_9ce4_8422_2325u64;
    for round in 0..24 {
        let trend = 1e-3 * (round as f32 * 0.37).sin();
        let trained: Vec<f32> = model
            .iter()
            .zip(&scales)
            .enumerate()
            .map(|(i, (&m, &s))| {
                let kick = if i % 4099 == round { 0.5 } else { 0.0 };
                m + 0.01 * s * unit() + trend + kick
            })
            .collect();
        enc.encode(3, &trained, &model, param_hash(&model), &mut payload);
        for byte in (payload.len() as u64).to_le_bytes().iter().chain(&payload) {
            folded ^= u64::from(*byte);
            folded = folded.wrapping_mul(0x0000_0100_0000_01b3);
        }
        dec.decode(&payload, Some(&model), &mut received)
            .expect("decodes");
        std::mem::swap(&mut model, &mut received);
    }
    assert!(enc.residual().iter().all(|v| v.is_finite()));
    assert_eq!(
        folded, 0x6480_f4fe_f110_4a07,
        "paper-pipeline bytes at dim {DIM} moved ({folded:#018x})"
    );
}

#[test]
fn param_hash_sees_length_and_the_sign_of_zero() {
    assert_ne!(param_hash(&[0.0; 8]), param_hash(&[0.0; 9]));
    assert_ne!(param_hash(&[0.0; 31]), param_hash(&[0.0; 32]));
    assert_ne!(param_hash(&[0.0; 32]), param_hash(&[0.0; 33]));
    assert_ne!(param_hash(&[]), param_hash(&[0.0]));
    assert_ne!(param_hash(&[0.0]), param_hash(&[-0.0]));
    assert_eq!(param_hash(&[1.5, -2.0]), param_hash(&[1.5, -2.0]));
}

/// Every pipeline the codec composes, without error feedback.
fn pipelines() -> Vec<CodecConfig> {
    let mut all = Vec::new();
    for delta in [false, true] {
        for topk in [None, Some(0.3)] {
            for quant in [None, Some(QuantBits::Q8), Some(QuantBits::Q4)] {
                all.push(CodecConfig {
                    delta,
                    topk,
                    quant,
                    error_feedback: false,
                    ..CodecConfig::identity()
                });
            }
        }
    }
    all
}

/// Values planted into a reference or a base.
const SPECIALS: [f32; 7] = [
    0.0,
    -0.0,
    f32::NAN,
    f32::INFINITY,
    f32::NEG_INFINITY,
    f32::MAX,
    -f32::MAX,
];

/// Bits, with every `NaN` one pattern: which `NaN` an operation on two
/// of them returns is the hardware's choice, not the codec's.
fn canonical(v: &[f32]) -> Vec<u32> {
    v.iter()
        .map(|x| if x.is_nan() { f32::NAN } else { *x }.to_bits())
        .collect()
}

/// `decode`, then `u − b` and whether every decoded value is finite.
fn decode_then_subtract(
    payload: &[u8],
    reference: &[f32],
    base: &[f32],
) -> Result<(Vec<u32>, bool), CodecError> {
    let mut out = Vec::new();
    UpdateDecoder::new().decode(payload, Some(reference), &mut out)?;
    let finite = out.iter().all(|v| v.is_finite());
    let delta: Vec<f32> = out.iter().zip(base).map(|(u, b)| u - b).collect();
    Ok((canonical(&delta), finite))
}

proptest! {
    /// The base-taking kernel is `decode` then `u − b`, on every pipeline,
    /// with `NaN`/`±∞` in the payload's values (through a Byzantine
    /// attack), in the reference or in the base, with sparse indices out of
    /// order or repeated, and truncated. Without a base, or with one of
    /// another dimension, it is `decode`, flag included.
    #[test]
    fn decoding_into_the_difference_is_decode_then_subtract(
        vectors in (2usize..48).prop_flat_map(|d| (values(d), values(d), values(d))),
        spikes in prop::collection::vec((0usize..48, 0usize..SPECIALS.len(), 0u8..2), 0..4),
        attack in 0usize..4,
        reorder in 0u8..3,
        cut_seed in 0u64..u64::MAX,
    ) {
        let (update, clean_reference, mut base) = vectors;
        let dim = update.len();
        let mut reference = clean_reference.clone();
        for &(at, special, in_base) in &spikes {
            let target = if in_base == 1 { &mut base } else { &mut reference };
            target[at % dim] = SPECIALS[special];
        }
        let attacks = [
            ByzantineAttack::NanInject { prob: 0.3 },
            ByzantineAttack::Scale { factor: f32::INFINITY },
            ByzantineAttack::Scale { factor: 1e30 },
        ];
        for cfg in pipelines() {
            let mut payload = encode_once(cfg, 7, &update, &clean_reference);
            if let Some(attack) = attacks.get(attack) {
                let mut draws = 0.0;
                corrupt_payload(&mut payload, attack, &mut || {
                    draws += 0.37;
                    draws % 1.0
                });
            }
            // The sparse index block: after the flags, the dimension, the
            // reference hash of a delta payload and the count.
            let off = 9 + if cfg.delta { 8 } else { 0 };
            if cfg.topk.is_some() && reorder > 0 {
                let k = u32::from_le_bytes(payload[off - 4..off].try_into().unwrap());
                if k >= 2 {
                    let first: [u8; 4] = payload[off..off + 4].try_into().unwrap();
                    if reorder == 1 {
                        payload.copy_within(off + 4..off + 8, off);
                    }
                    payload[off + 4..off + 8].copy_from_slice(&first);
                }
            }
            let want = decode_then_subtract(&payload, &reference, &base);
            let mut dec = UpdateDecoder::new();
            let mut out = vec![1.0; 3];
            let got = dec
                .decode_minus(&payload, Some(&reference), Some(&base), &mut out)
                .map(|finite| (canonical(&out), finite));
            prop_assert_eq!(&got, &want, "{:?}", cfg);

            let mut plain = Vec::new();
            let flag = UpdateDecoder::new().decode(&payload, Some(&reference), &mut plain);
            prop_assert_eq!(flag, want.map(|(_, finite)| finite), "{:?}", cfg);
            let other_dim = &base[..dim - 1];
            let unapplied = dec.decode_minus(&payload, Some(&reference), Some(other_dim), &mut out);
            prop_assert_eq!(unapplied, flag, "{:?}", cfg);
            prop_assert_eq!(canonical(&out), canonical(&plain), "{:?}", cfg);

            let cut = &payload[..(cut_seed % payload.len() as u64) as usize];
            let err = dec.decode(cut, Some(&reference), &mut plain);
            prop_assert!(err.is_err());
            prop_assert_eq!(dec.decode_minus(cut, Some(&reference), Some(&base), &mut out), err);
        }
    }
}
