//! Pluggable lossy/lossless compression of client model updates.
//!
//! At 100 Mbps the dense `ClientUpdate` transfer dominates geo-distributed
//! round time (paper Fig. 12). This module provides the communication-
//! efficiency layer between client and server: a composable pipeline of
//!
//! 1. **delta encoding** — send the trained model as a difference against
//!    the exact model the client received (identified by a 64-bit content
//!    hash, so the server can resolve the reference even with several
//!    models in flight);
//! 2. **top-k sparsification** — keep only the `⌈ratio·dim⌉` largest-
//!    magnitude coordinates, with per-client *error feedback*: the dropped
//!    mass is carried in a residual and added to the next update, which is
//!    what makes sparsified SGD converge;
//! 3. **int8 / int4 quantization** — symmetric linear quantization with
//!    nearest or stochastic rounding. Stochastic rounding draws from a
//!    splitmix64 stream seeded by `(config seed, client node, update
//!    index)`, so re-encoding the same update under the same run seed is
//!    bit-identical.
//!
//! The encoded payload travels as [`crate::msg::FlMsg::EncodedUpdate`];
//! its `WireSize` is the actual compressed byte count, so every existing
//! `net.bytes` account reflects the compression with no extra plumbing.
//! That count is known before the bytes exist
//! ([`UpdateEncoder::encoded_len`]), so a client can send the message while
//! a pool worker still trains and encodes (DESIGN.md §10.5).
//! Decoding happens server-side **before** the validation gate and robust
//! aggregation — Byzantine defenses always see dequantized values
//! (DESIGN.md §16). Encoding stages go through a [`Scratch`] arena plus
//! persistent index/code buffers, so the per-update hot path performs no
//! heap allocation once the working set has converged.

use spyker_simnet::ByzantineAttack;
use spyker_tensor::{
    dequantize_into, pack_nibbles, quantize_into, top_k_indices_with, unpack_nibbles, Scratch,
};

use crate::msg::attack_value;
use crate::params::all_finite;

/// Hard cap on the model dimension a payload may declare — matches the
/// wire codec's 64 MiB frame cap for dense f32 payloads, so a hostile
/// length prefix cannot drive a huge allocation.
pub const MAX_CODEC_DIM: usize = 16 << 20;

const FLAG_DELTA: u8 = 1 << 0;
const FLAG_TOPK: u8 = 1 << 1;
const FLAG_QUANT: u8 = 1 << 2;
const FLAG_Q4: u8 = 1 << 3;
const FLAG_ALL: u8 = FLAG_DELTA | FLAG_TOPK | FLAG_QUANT | FLAG_Q4;

/// Quantization width of the pipeline's final stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QuantBits {
    /// 8-bit codes in `[-127, 127]`, one byte per kept coordinate.
    Q8,
    /// 4-bit codes in `[-7, 7]`, two coordinates per byte.
    Q4,
}

impl QuantBits {
    /// Largest code magnitude of this width.
    pub fn qmax(self) -> i8 {
        match self {
            QuantBits::Q8 => 127,
            QuantBits::Q4 => 7,
        }
    }
}

/// Rounding mode of the quantization stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rounding {
    /// Round to nearest: worst-case error `step / 2`, biased toward zero
    /// error but not unbiased per coordinate.
    Nearest,
    /// Stochastic rounding: round up with probability equal to the
    /// fractional part. Unbiased (`E[decode] = value`), worst-case error
    /// `< step`; draws are seeded so runs stay bit-reproducible.
    Stochastic,
}

/// Configuration of the update-compression pipeline, selected via
/// [`crate::config::SpykerConfig::codec`]. `None` there keeps every run
/// byte-identical to the pre-codec protocol; each stage here is also
/// individually optional, composing as `delta → topk → quant`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CodecConfig {
    /// Encode the update as a difference against the model the client
    /// received (lossless by itself; makes top-k meaningful).
    pub delta: bool,
    /// Keep only the `⌈ratio·dim⌉` largest-magnitude coordinates
    /// (`Some(ratio)` with `0 < ratio ≤ 1`).
    pub topk: Option<f32>,
    /// Carry the mass dropped by lossy stages in a per-client residual
    /// added to the next update (error-feedback compression).
    pub error_feedback: bool,
    /// Quantize the surviving values to int8 or int4.
    pub quant: Option<QuantBits>,
    /// Rounding mode of the quantization stage.
    pub rounding: Rounding,
    /// Seed of the stochastic-rounding stream (mixed with the client node
    /// id and a per-client update counter).
    pub seed: u64,
}

impl CodecConfig {
    /// The identity pipeline: nothing enabled. Useful as a parse/builder
    /// starting point; selecting it behaves like dense updates with a
    /// small framing overhead.
    pub fn identity() -> Self {
        Self {
            delta: false,
            topk: None,
            error_feedback: true,
            quant: None,
            rounding: Rounding::Stochastic,
            seed: 0xC0DEC,
        }
    }

    /// The headline pipeline from the issue: `delta → topk(1%) → q8`,
    /// stochastic rounding, error feedback on.
    pub fn paper_pipeline() -> Self {
        Self {
            delta: true,
            topk: Some(0.01),
            ..Self::identity()
        }
        .with_quant(QuantBits::Q8)
    }

    /// Sets the quantization stage (builder style).
    pub fn with_quant(mut self, bits: QuantBits) -> Self {
        self.quant = Some(bits);
        self
    }

    /// Sets the stochastic-rounding seed (builder style).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the quantizer rounding mode (builder style).
    pub fn with_rounding(mut self, rounding: Rounding) -> Self {
        self.rounding = rounding;
        self
    }

    /// `true` when some stage discards information (top-k or
    /// quantization); delta alone is exactly invertible.
    pub fn is_lossy(&self) -> bool {
        self.topk.is_some() || self.quant.is_some()
    }

    /// Checks the invariants a config must satisfy.
    pub fn validate(&self) -> Result<(), String> {
        if let Some(r) = self.topk {
            if !(r > 0.0 && r <= 1.0) {
                return Err(format!("topk ratio must be in (0, 1], got {r}"));
            }
        }
        Ok(())
    }

    /// Human-readable pipeline description, e.g. `delta→topk(1%)→q8`.
    pub fn describe(&self) -> String {
        let mut stages = Vec::new();
        if self.delta {
            stages.push("delta".to_string());
        }
        if let Some(r) = self.topk {
            stages.push(format!("topk({}%)", r * 100.0));
        }
        match self.quant {
            Some(QuantBits::Q8) => stages.push("q8".to_string()),
            Some(QuantBits::Q4) => stages.push("q4".to_string()),
            None => {}
        }
        if stages.is_empty() {
            return "identity".to_string();
        }
        stages.join("→")
    }

    /// Parses a comma-separated pipeline spec, e.g.
    /// `delta,topk=0.01,q8,stochastic` or the shorthand `paper`.
    /// Recognized tokens: `paper`, `delta`, `topk=<ratio>`, `q8`, `q4`,
    /// `nearest`, `stochastic`, `ef`, `noef`, `seed=<n>`.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let mut cfg = Self::identity();
        for tok in spec.split(',').map(str::trim).filter(|t| !t.is_empty()) {
            match tok {
                "paper" => cfg = Self::paper_pipeline(),
                "delta" => cfg.delta = true,
                "q8" => cfg.quant = Some(QuantBits::Q8),
                "q4" => cfg.quant = Some(QuantBits::Q4),
                "nearest" => cfg.rounding = Rounding::Nearest,
                "stochastic" => cfg.rounding = Rounding::Stochastic,
                "ef" => cfg.error_feedback = true,
                "noef" => cfg.error_feedback = false,
                _ => {
                    if let Some(r) = tok.strip_prefix("topk=") {
                        cfg.topk =
                            Some(r.parse::<f32>().map_err(|e| format!("topk=<ratio>: {e}"))?);
                    } else if let Some(s) = tok.strip_prefix("seed=") {
                        cfg.seed = s.parse::<u64>().map_err(|e| format!("seed=<n>: {e}"))?;
                    } else {
                        return Err(format!("unknown codec token '{tok}'"));
                    }
                }
            }
        }
        cfg.validate()?;
        Ok(cfg)
    }
}

/// Independent multiply chains of [`param_hash`]. A 64-bit vector multiply
/// has several times the latency of the scalar one, so it takes this many
/// lanes in flight — two 512-bit registers of state — to keep it fed.
const HASH_LANES: usize = 16;

/// Coordinates one [`param_hash`] block holds: one 64-bit word of two
/// coordinates per lane.
const HASH_BLOCK: usize = 2 * HASH_LANES;

/// Per-lane odd multipliers of [`param_hash`], which double as the lanes'
/// initial states: consecutive splitmix64 outputs with the low bit set.
const HASH_MUL: [u64; HASH_LANES] = {
    let mut out = [0; HASH_LANES];
    let mut l = 0;
    while l < HASH_LANES {
        out[l] = mix64((l as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15)) | 1;
        l += 1;
    }
    out
};

/// splitmix64's finaliser: a bijection of `u64` that spreads every input
/// bit over the whole word.
const fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// 64-bit content hash of a parameter vector's bit pattern — how an
/// encoded delta names its reference model on the wire.
///
/// Word-wise: every block of 32 coordinates forms sixteen `u64` words, each
/// folded into its own `state = rotl((state ^ word) · odd, 29)` lane, so
/// sixteen multiply chains run independently instead of one byte-serial
/// one; a ragged tail is zero-padded to a block, and the length and the
/// lanes are mixed together at the end. Every step is a bijection of its
/// lane for a fixed word and of the word for a fixed lane, so two vectors
/// of one length that differ in a single coordinate never collide.
///
/// Not cryptographic and not a stable format: the value is only ever
/// compared for equality between a client and the server that sent it the
/// model, within one client's few-entry history (DESIGN.md §16.1), so both
/// ends must come from the same build.
pub fn param_hash(params: &[f32]) -> u64 {
    fn absorb(lanes: &mut [u64; HASH_LANES], block: &[f32; HASH_BLOCK]) {
        for (l, lane) in lanes.iter_mut().enumerate() {
            let word =
                u64::from(block[2 * l].to_bits()) | u64::from(block[2 * l + 1].to_bits()) << 32;
            *lane = (*lane ^ word).wrapping_mul(HASH_MUL[l]).rotate_left(29);
        }
    }
    let mut lanes = HASH_MUL;
    let mut blocks = params.chunks_exact(HASH_BLOCK);
    for block in &mut blocks {
        absorb(&mut lanes, block.try_into().expect("a full block"));
    }
    let tail = blocks.remainder();
    if !tail.is_empty() {
        let mut block = [0.0f32; HASH_BLOCK];
        block[..tail.len()].copy_from_slice(tail);
        absorb(&mut lanes, &block);
    }
    // Each fold is a bijection of the running hash and of the lane folded
    // in, so a difference confined to one lane survives to the end.
    lanes
        .iter()
        .fold(params.len() as u64, |h, &lane| mix64(h ^ lane))
}

/// Why an encoded payload could not be decoded. Hostile or corrupted
/// payloads surface here instead of panicking the server.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CodecError {
    /// The payload ends before its header says it should.
    Truncated,
    /// Unknown flag bits, an oversized declaration or trailing bytes.
    BadHeader,
    /// A sparse index points outside the declared dimension.
    IndexOutOfRange,
    /// A delta payload arrived but the reference model is unknown.
    RefMissing,
    /// The resolved reference has a different dimension than declared.
    RefMismatch,
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            CodecError::Truncated => "payload truncated",
            CodecError::BadHeader => "malformed codec header",
            CodecError::IndexOutOfRange => "sparse index out of range",
            CodecError::RefMissing => "delta reference model unknown",
            CodecError::RefMismatch => "delta reference dimension mismatch",
        };
        f.write_str(s)
    }
}

/// Parsed offsets of one encoded payload (header validated, values not
/// yet read). Shared by [`UpdateDecoder::decode`] and
/// [`corrupt_payload`] so the two can never disagree about the layout.
struct Layout {
    dim: usize,
    delta: bool,
    ref_hash: u64,
    /// Offset of the `k` sparse indices; `None` for dense payloads.
    idx: Option<(usize, usize)>,
    /// Offset of the quantization scale.
    scale_off: Option<usize>,
    quant: Option<QuantBits>,
    /// Offset of the value block (codes or f32s).
    vals_off: usize,
    /// Number of encoded values.
    n: usize,
}

impl Layout {
    fn parse(payload: &[u8]) -> Result<Self, CodecError> {
        let get_u32 = |off: usize| -> Result<u32, CodecError> {
            payload
                .get(off..off + 4)
                .map(|b| u32::from_le_bytes(b.try_into().expect("4 bytes")))
                .ok_or(CodecError::Truncated)
        };
        let flags = *payload.first().ok_or(CodecError::Truncated)?;
        if flags & !FLAG_ALL != 0 || (flags & FLAG_Q4 != 0 && flags & FLAG_QUANT == 0) {
            return Err(CodecError::BadHeader);
        }
        let dim = get_u32(1)? as usize;
        if dim > MAX_CODEC_DIM {
            return Err(CodecError::BadHeader);
        }
        let mut off = 5;
        let delta = flags & FLAG_DELTA != 0;
        let mut ref_hash = 0;
        if delta {
            ref_hash = u64::from_le_bytes(
                payload
                    .get(off..off + 8)
                    .ok_or(CodecError::Truncated)?
                    .try_into()
                    .expect("8 bytes"),
            );
            off += 8;
        }
        let (idx, n) = if flags & FLAG_TOPK != 0 {
            let k = get_u32(off)? as usize;
            if k > dim {
                return Err(CodecError::BadHeader);
            }
            off += 4;
            let idx = (off, k);
            off = off.checked_add(4 * k).ok_or(CodecError::BadHeader)?;
            (Some(idx), k)
        } else {
            (None, dim)
        };
        let quant = match (flags & FLAG_QUANT != 0, flags & FLAG_Q4 != 0) {
            (false, _) => None,
            (true, false) => Some(QuantBits::Q8),
            (true, true) => Some(QuantBits::Q4),
        };
        let mut scale_off = None;
        if quant.is_some() {
            scale_off = Some(off);
            off += 4;
        }
        let vals_off = off;
        let vals_len = match quant {
            Some(QuantBits::Q8) => n,
            Some(QuantBits::Q4) => n.div_ceil(2),
            None => 4 * n,
        };
        let total = vals_off
            .checked_add(vals_len)
            .ok_or(CodecError::BadHeader)?;
        match payload.len().cmp(&total) {
            std::cmp::Ordering::Less => return Err(CodecError::Truncated),
            std::cmp::Ordering::Greater => return Err(CodecError::BadHeader),
            std::cmp::Ordering::Equal => {}
        }
        Ok(Self {
            dim,
            delta,
            ref_hash,
            idx,
            scale_off,
            quant,
            vals_off,
            n,
        })
    }

    fn index(&self, payload: &[u8], j: usize) -> usize {
        let (off, _) = self.idx.expect("sparse payload");
        let o = off + 4 * j;
        u32::from_le_bytes(payload[o..o + 4].try_into().expect("4 bytes")) as usize
    }

    fn scale(&self, payload: &[u8]) -> f32 {
        let o = self.scale_off.expect("quantized payload");
        f32::from_le_bytes(payload[o..o + 4].try_into().expect("4 bytes"))
    }
}

/// A tiny splitmix64 stream for stochastic rounding — dependency-free and
/// bit-stable, seeded per `(config, client, update)` triple.
struct SplitMix(u64);

impl SplitMix {
    fn new(seed: u64) -> Self {
        Self(seed)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        mix64(self.0)
    }

    /// Uniform in `[0, 1)` with 24 bits of resolution.
    fn next_f32(&mut self) -> f32 {
        (self.next_u64() >> 40) as f32 * (1.0 / (1u64 << 24) as f32)
    }
}

/// Per-client encoder state: the pipeline configuration, the
/// error-feedback residual, and every work buffer the stages reuse.
#[derive(Debug)]
pub struct UpdateEncoder {
    cfg: CodecConfig,
    /// Error-feedback residual in the delta domain (zeros when feedback
    /// is off or the pipeline is lossless).
    residual: Vec<f32>,
    scratch: Scratch,
    /// Top-k selection keys, one per coordinate.
    topk_keys: Vec<u64>,
    idx: Vec<u32>,
    codes: Vec<i8>,
    packed: Vec<u8>,
    updates: u64,
}

/// Stage 1 of [`UpdateEncoder::encode`], one fused pass over zipped slices:
/// `x = (update − reference) + residual`, either term optional, in that
/// operation order. Non-finite results are dropped to zero here, before
/// selection: a `NaN` left in `x` would win every later top-k through the
/// residual, quantise to code 0 and mute the client for good
/// (DESIGN.md §16.4).
fn delta_domain(x: &mut [f32], update: &[f32], reference: Option<&[f32]>, carry_residual: bool) {
    fn finite(v: f32) -> f32 {
        if v.is_finite() {
            v
        } else {
            0.0
        }
    }
    match (reference, carry_residual) {
        (Some(reference), true) => {
            for ((x, &u), &r) in x.iter_mut().zip(update).zip(reference) {
                *x = finite((u - r) + *x);
            }
        }
        (Some(reference), false) => {
            for ((x, &u), &r) in x.iter_mut().zip(update).zip(reference) {
                *x = finite(u - r);
            }
        }
        (None, true) => {
            for (x, &u) in x.iter_mut().zip(update) {
                *x = finite(u + *x);
            }
        }
        (None, false) => {
            for (x, &u) in x.iter_mut().zip(update) {
                *x = finite(u);
            }
        }
    }
}

impl UpdateEncoder {
    /// Creates an encoder for `cfg`.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails [`CodecConfig::validate`].
    pub fn new(cfg: CodecConfig) -> Self {
        if let Err(e) = cfg.validate() {
            panic!("invalid codec config: {e}");
        }
        Self {
            cfg,
            residual: Vec::new(),
            scratch: Scratch::new(),
            topk_keys: Vec::new(),
            idx: Vec::new(),
            codes: Vec::new(),
            packed: Vec::new(),
            updates: 0,
        }
    }

    /// The pipeline this encoder runs.
    pub fn config(&self) -> &CodecConfig {
        &self.cfg
    }

    /// Number of kept coordinates for a `dim`-sized model under this
    /// pipeline (always at least 1).
    pub fn kept(&self, dim: usize) -> usize {
        match self.cfg.topk {
            Some(r) => (((dim as f64) * f64::from(r)).ceil() as usize).clamp(1, dim.max(1)),
            None => dim,
        }
    }

    /// Length in bytes of every payload [`UpdateEncoder::encode`] writes
    /// for a `dim`-sized model: a function of the pipeline and `dim` alone,
    /// so a message can be sized before its bytes exist. The 5-byte header
    /// (flags, dim), the 8-byte reference hash with delta encoding, a `u32`
    /// count and one `u32` index per kept coordinate with top-k, a 4-byte
    /// scale with quantization, then the values: one byte each for q8, two
    /// to a byte for q4, four bytes each unquantized.
    pub fn encoded_len(&self, dim: usize) -> usize {
        let cfg = &self.cfg;
        let n = self.kept(dim).min(dim);
        let delta = if cfg.delta { 8 } else { 0 };
        let indices = if cfg.topk.is_some() { 4 + 4 * n } else { 0 };
        let values = match cfg.quant {
            Some(QuantBits::Q8) => 4 + n,
            Some(QuantBits::Q4) => 4 + n.div_ceil(2),
            None => 4 * n,
        };
        5 + delta + indices + values
    }

    /// Encodes `update` (the trained model) against `reference` (the exact
    /// model the client received, hashed as `ref_hash`) into `out`.
    /// `stream` decorrelates the rounding RNG between clients — pass the
    /// client's node id. Re-invoking with identical state and inputs
    /// produces identical bytes.
    ///
    /// # Panics
    ///
    /// Panics if `reference` has a different length than `update` while
    /// delta encoding is on.
    pub fn encode(
        &mut self,
        stream: u64,
        update: &[f32],
        reference: &[f32],
        ref_hash: u64,
        out: &mut Vec<u8>,
    ) {
        let cfg = self.cfg;
        let dim = update.len();
        if cfg.delta {
            assert_eq!(reference.len(), dim, "delta reference dimension mismatch");
        }
        let feedback = cfg.error_feedback && cfg.is_lossy();

        // Stage 1: move to the delta domain and add the carried residual.
        // With feedback `x` is built in place in the residual buffer, which
        // is what it turns back into once the sent mass is taken out below.
        let mut x = if feedback {
            let mut carried = std::mem::take(&mut self.residual);
            if carried.len() != dim {
                carried.clear();
                carried.resize(dim, 0.0);
            }
            carried
        } else {
            self.scratch.take_vec(dim)
        };
        delta_domain(&mut x, update, cfg.delta.then_some(reference), feedback);

        // Stage 2: top-k gather.
        let sparse = cfg.topk.is_some();
        let n = self.kept(dim).min(dim);
        let mut kept = self.scratch.take_vec(if sparse { n } else { 0 });
        if sparse {
            top_k_indices_with(&x, n, &mut self.topk_keys, &mut self.idx);
            for (slot, &i) in kept.iter_mut().zip(&self.idx) {
                *slot = x[i as usize];
            }
        }
        let values: &[f32] = if sparse { &kept } else { &x };

        // Header.
        let mut flags = 0u8;
        if cfg.delta {
            flags |= FLAG_DELTA;
        }
        if sparse {
            flags |= FLAG_TOPK;
        }
        if cfg.quant.is_some() {
            flags |= FLAG_QUANT;
        }
        if cfg.quant == Some(QuantBits::Q4) {
            flags |= FLAG_Q4;
        }
        out.clear();
        out.push(flags);
        out.extend_from_slice(&(dim as u32).to_le_bytes());
        if cfg.delta {
            out.extend_from_slice(&ref_hash.to_le_bytes());
        }
        if sparse {
            out.extend_from_slice(&(n as u32).to_le_bytes());
            for &i in &self.idx {
                out.extend_from_slice(&i.to_le_bytes());
            }
        }

        // Stage 3: quantize and emit the value block.
        let mut deq = self.scratch.take_vec(if feedback && cfg.quant.is_some() {
            values.len()
        } else {
            0
        });
        match cfg.quant {
            Some(bits) => {
                let mut rng = SplitMix::new(
                    cfg.seed
                        ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15)
                        ^ self.updates.wrapping_mul(0xc2b2_ae3d_27d4_eb4f),
                );
                let stochastic = cfg.rounding == Rounding::Stochastic;
                let scale = quantize_into(
                    values,
                    bits.qmax(),
                    stochastic,
                    &mut || rng.next_f32(),
                    &mut self.codes,
                );
                out.extend_from_slice(&scale.to_le_bytes());
                match bits {
                    QuantBits::Q8 => out.extend(self.codes.iter().map(|&c| c as u8)),
                    QuantBits::Q4 => {
                        pack_nibbles(&self.codes, &mut self.packed);
                        out.extend_from_slice(&self.packed);
                    }
                }
                if feedback {
                    dequantize_into(&self.codes, scale, &mut deq);
                }
            }
            None => {
                for &v in values {
                    out.extend_from_slice(&v.to_le_bytes());
                }
            }
        }

        // Error feedback: the residual becomes x minus what actually went
        // on the wire (dropped coordinates keep their full value; kept
        // coordinates keep only their quantization error).
        if feedback {
            // Lossy without quantization means top-k: `values` is `kept`.
            let sent: &[f32] = if cfg.quant.is_some() { &deq } else { &kept };
            if sparse {
                for (&i, &s) in self.idx.iter().zip(sent) {
                    x[i as usize] -= s;
                }
            } else {
                for (r, &s) in x.iter_mut().zip(sent) {
                    *r -= s;
                }
            }
        }

        self.updates += 1;
        self.scratch.recycle_vec(deq);
        self.scratch.recycle_vec(kept);
        if feedback {
            self.residual = x;
        } else {
            self.scratch.recycle_vec(x);
        }
    }

    /// Current error-feedback residual (test instrumentation).
    pub fn residual(&self) -> &[f32] {
        &self.residual
    }
}

/// Server-side decoder: stateless apart from reusable work buffers.
#[derive(Debug, Default)]
pub struct UpdateDecoder {
    codes: Vec<i8>,
    vals: Vec<f32>,
}

impl UpdateDecoder {
    /// A decoder with empty work buffers.
    pub fn new() -> Self {
        Self::default()
    }

    /// The reference-model hash a payload names, `Some(hash)` for delta
    /// payloads and `None` for self-contained ones. Validates the whole
    /// header, so a hostile payload fails here before any allocation.
    pub fn ref_hash(payload: &[u8]) -> Result<Option<u64>, CodecError> {
        let lay = Layout::parse(payload)?;
        Ok(lay.delta.then_some(lay.ref_hash))
    }

    /// Decodes `payload` into a dense parameter vector in `out` and returns
    /// whether every decoded value is finite. Delta payloads need
    /// `reference` (the model named by [`UpdateDecoder::ref_hash`]);
    /// self-contained payloads ignore it.
    pub fn decode(
        &mut self,
        payload: &[u8],
        reference: Option<&[f32]>,
        out: &mut Vec<f32>,
    ) -> Result<bool, CodecError> {
        self.decode_minus(payload, reference, None, out)
    }

    /// [`UpdateDecoder::decode`] less `base`: `out` holds `decoded − base`,
    /// written without building `decoded` when sparse indices strictly
    /// ascend (as the encoder writes them; a dense payload is decoded in
    /// `out` first), and the flag still speaks of `decoded`. A `base` of
    /// another dimension than the payload's is not applied: `out` then
    /// holds `decoded`, and its length tells.
    pub fn decode_minus(
        &mut self,
        payload: &[u8],
        reference: Option<&[f32]>,
        base: Option<&[f32]>,
        out: &mut Vec<f32>,
    ) -> Result<bool, CodecError> {
        let lay = Layout::parse(payload)?;
        // What a coordinate decodes to before the payload's values land.
        let start = match reference {
            _ if !lay.delta => None,
            None => return Err(CodecError::RefMissing),
            Some(r) if r.len() != lay.dim => return Err(CodecError::RefMismatch),
            r => r,
        };
        // With each index once (strictly ascending, as the encoder writes
        // them), a coordinate decodes to its start value `s` and a kept one
        // to `s + v`, so the difference needs no `u`. Other payloads decode
        // `u` first and subtract in place.
        let two_passes = |_: &&[f32]| {
            lay.idx.is_none()
                || (1..lay.n).any(|j| lay.index(payload, j - 1) >= lay.index(payload, j))
        };
        let base = base.filter(|b| b.len() == lay.dim);
        if let Some(b) = base.filter(two_passes) {
            let finite = self.decode_minus(payload, reference, None, out)?;
            out.iter_mut().zip(b).for_each(|(o, &b)| *o -= b);
            return Ok(finite);
        }

        match lay.quant {
            Some(bits) => {
                let scale = lay.scale(payload);
                match bits {
                    QuantBits::Q8 => {
                        self.codes.clear();
                        self.codes
                            .extend(payload[lay.vals_off..].iter().map(|&b| b as i8));
                    }
                    QuantBits::Q4 => {
                        unpack_nibbles(&payload[lay.vals_off..], lay.n, &mut self.codes);
                    }
                }
                dequantize_into(&self.codes, scale, &mut self.vals);
            }
            None => {
                self.vals.clear();
                self.vals.extend(
                    payload[lay.vals_off..]
                        .chunks_exact(4)
                        .map(|b| f32::from_le_bytes(b.try_into().expect("4 bytes"))),
                );
            }
        }

        out.clear();
        match (start, base) {
            (Some(r), Some(b)) => out.extend(r.iter().zip(b).map(|(&s, &b)| s - b)),
            (None, Some(b)) => out.extend(b.iter().map(|&b| 0.0 - b)),
            (Some(r), None) => out.extend_from_slice(r),
            (None, None) => out.resize(lay.dim, 0.0),
        }
        // A pass of its own: folded into the one above, it kept that loop
        // from vectorising (≈ 13× slower).
        let mut finite = base.is_none() || start.is_none_or(all_finite);
        if lay.idx.is_none() {
            for (o, &v) in out.iter_mut().zip(&self.vals) {
                *o += v;
            }
        }
        for (j, &v) in self.vals.iter().enumerate().filter(|_| lay.idx.is_some()) {
            let i = lay.index(payload, j);
            if i >= lay.dim {
                return Err(CodecError::IndexOutOfRange);
            }
            match base {
                Some(b) => {
                    let u = start.map_or(0.0, |r| r[i]) + v;
                    finite &= u.is_finite();
                    out[i] = u - b[i];
                }
                None => out[i] += v,
            }
        }
        if base.is_none() {
            finite = all_finite(out);
        }
        Ok(finite)
    }
}

/// Applies a Byzantine sender's attack to an encoded payload in flight,
/// mutating it in place without changing its length (so byte accounting
/// is unaffected). The corrupted payload stays structurally valid — the
/// poison lives purely in the *values*, so it can only be caught after
/// decoding (the decode-before-validate rule, DESIGN.md §16). A sign
/// flip negates the quantized codes (decoding to an exactly negated
/// delta); scale and noise attacks go through the scale factor; NaN
/// injection poisons the scale since `i8` codes cannot carry a NaN.
/// Unquantized payloads are attacked value by value like a dense update.
/// Returns `true` if the payload was altered; unparseable payloads are
/// left alone (they are already garbage).
pub fn corrupt_payload(
    payload: &mut [u8],
    attack: &ByzantineAttack,
    draw: &mut dyn FnMut() -> f64,
) -> bool {
    let Ok(lay) = Layout::parse(payload) else {
        return false;
    };
    if lay.n == 0 {
        return false;
    }
    if let Some(off) = lay.scale_off {
        if let ByzantineAttack::SignFlip = attack {
            // Negate every code: two's-complement per byte for q8, per
            // nibble for q4. The result is a payload the encoder could
            // have produced, decoding to the exact negation of the delta.
            let q4 = lay.quant == Some(QuantBits::Q4);
            for b in &mut payload[lay.vals_off..] {
                if q4 {
                    let lo = 16u8.wrapping_sub(*b & 0x0F) & 0x0F;
                    let hi = 16u8.wrapping_sub(*b >> 4) & 0x0F;
                    *b = (hi << 4) | lo;
                } else {
                    *b = b.wrapping_neg();
                }
            }
            return true;
        }
        let scale = f32::from_le_bytes(payload[off..off + 4].try_into().expect("4 bytes"));
        let Some(new) = attack_value(scale, attack, draw) else {
            return false;
        };
        payload[off..off + 4].copy_from_slice(&new.to_le_bytes());
        return true;
    }
    // Unquantized values: one f32 per kept coordinate.
    let mut hit = false;
    for j in 0..lay.n {
        let o = lay.vals_off + 4 * j;
        let v = f32::from_le_bytes(payload[o..o + 4].try_into().expect("4 bytes"));
        if let Some(new) = attack_value(v, attack, draw) {
            payload[o..o + 4].copy_from_slice(&new.to_le_bytes());
            hit = true;
        }
    }
    hit
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model(dim: usize, f: impl Fn(usize) -> f32) -> Vec<f32> {
        (0..dim).map(f).collect()
    }

    #[test]
    fn delta_only_round_trip_is_exact() {
        let cfg = CodecConfig {
            delta: true,
            ..CodecConfig::identity()
        };
        let reference = model(32, |i| (i as f32 * 0.3).sin());
        let update = model(32, |i| (i as f32 * 0.3).sin() + 0.25 * (i as f32).cos());
        let mut enc = UpdateEncoder::new(cfg);
        let mut payload = Vec::new();
        enc.encode(7, &update, &reference, param_hash(&reference), &mut payload);
        assert_eq!(
            UpdateDecoder::ref_hash(&payload).unwrap(),
            Some(param_hash(&reference))
        );
        let mut dec = UpdateDecoder::new();
        let mut out = Vec::new();
        dec.decode(&payload, Some(&reference), &mut out).unwrap();
        assert_eq!(out, update, "delta+dense must be the exact inverse");
    }

    #[test]
    fn paper_pipeline_round_trip_is_bounded_and_small() {
        let cfg = CodecConfig::paper_pipeline();
        let dim = 1000;
        let reference = model(dim, |i| (i as f32 * 0.1).sin());
        let update: Vec<f32> = reference.iter().map(|v| v + 0.01).collect();
        let mut enc = UpdateEncoder::new(cfg);
        let mut payload = Vec::new();
        enc.encode(3, &update, &reference, param_hash(&reference), &mut payload);
        // 1% of 1000 = 10 kept coords: header 13 + 4 + 40 idx + 4 scale + 10 codes.
        assert_eq!(payload.len(), 13 + 4 + 40 + 4 + 10);
        let mut dec = UpdateDecoder::new();
        let mut out = Vec::new();
        dec.decode(&payload, Some(&reference), &mut out).unwrap();
        assert_eq!(out.len(), dim);
        assert!(out.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn same_seed_and_state_re_encode_bit_identically() {
        let cfg = CodecConfig::paper_pipeline().with_seed(99);
        let reference = model(64, |i| i as f32 * 0.01);
        let update = model(64, |i| i as f32 * 0.01 + (i as f32).sin());
        let run = || {
            let mut enc = UpdateEncoder::new(cfg);
            let mut payload = Vec::new();
            enc.encode(5, &update, &reference, param_hash(&reference), &mut payload);
            let mut second = Vec::new();
            enc.encode(5, &update, &reference, param_hash(&reference), &mut second);
            (payload, second)
        };
        let (a1, a2) = run();
        let (b1, b2) = run();
        assert_eq!(a1, b1, "first encode must be reproducible");
        assert_eq!(a2, b2, "second encode must be reproducible");
        assert_ne!(a1, a2, "the rounding stream advances per update");
    }

    #[test]
    fn error_feedback_carries_dropped_mass() {
        let cfg = CodecConfig {
            delta: true,
            topk: Some(0.25),
            quant: None,
            ..CodecConfig::identity()
        };
        let reference = vec![0.0f32; 4];
        let update = vec![1.0f32, 0.1, 0.1, 0.1];
        let mut enc = UpdateEncoder::new(cfg);
        let mut payload = Vec::new();
        enc.encode(0, &update, &reference, param_hash(&reference), &mut payload);
        // k = 1 keeps only the 1.0; the three 0.1s land in the residual.
        assert_eq!(enc.residual(), &[0.0, 0.1, 0.1, 0.1]);
        // The next encode adds the residual back in: coordinate 1 has now
        // accumulated 0.2 and wins the top-1 slot over a fresh 0.15.
        let update2 = vec![0.05f32, 0.1, 0.0, 0.0];
        enc.encode(
            0,
            &update2,
            &reference,
            param_hash(&reference),
            &mut payload,
        );
        let mut dec = UpdateDecoder::new();
        let mut out = Vec::new();
        dec.decode(&payload, Some(&reference), &mut out).unwrap();
        assert_eq!(out, vec![0.0, 0.2, 0.0, 0.0]);
    }

    #[test]
    fn a_diverged_round_does_not_mute_the_client() {
        let dim = 1000;
        let reference = vec![0.0f32; dim];
        let mut enc = UpdateEncoder::new(CodecConfig::paper_pipeline());
        let mut dec = UpdateDecoder::new();
        let (mut payload, mut out) = (Vec::new(), Vec::new());
        // One diverged local training: 20 NaN coordinates, twice the k = 10
        // the pipeline keeps.
        let diverged = model(dim, |i| if i < 20 { f32::NAN } else { 0.001 });
        enc.encode(1, &diverged, &reference, 0, &mut payload);
        assert!(enc.residual().iter().all(|v| v.is_finite()));
        // The next, healthy round must get its k largest coordinates out.
        let healthy = model(dim, |i| if i % 100 == 50 { 1.0 + i as f32 } else { 0.001 });
        enc.encode(1, &healthy, &reference, 0, &mut payload);
        assert!(enc.residual().iter().all(|v| v.is_finite()));
        dec.decode(&payload, Some(&reference), &mut out).unwrap();
        let sent: Vec<usize> = (0..dim).filter(|&i| out[i] != 0.0).collect();
        assert_eq!(sent, (0..10).map(|j| 100 * j + 50).collect::<Vec<_>>());
    }

    #[test]
    fn hostile_payloads_fail_clean() {
        let mut dec = UpdateDecoder::new();
        let mut out = Vec::new();
        assert_eq!(
            dec.decode(&[], None, &mut out),
            Err(CodecError::Truncated),
            "empty"
        );
        // Unknown flag bit.
        assert_eq!(
            dec.decode(&[0x80, 1, 0, 0, 0, 0, 0, 0, 0], None, &mut out),
            Err(CodecError::BadHeader)
        );
        // Oversized dimension declaration.
        let mut huge = vec![0u8];
        huge.extend_from_slice(&(u32::MAX).to_le_bytes());
        assert_eq!(
            dec.decode(&huge, None, &mut out),
            Err(CodecError::BadHeader)
        );
        // k > dim.
        let mut bad = vec![FLAG_TOPK];
        bad.extend_from_slice(&2u32.to_le_bytes());
        bad.extend_from_slice(&3u32.to_le_bytes());
        assert_eq!(dec.decode(&bad, None, &mut out), Err(CodecError::BadHeader));
        // Index out of range.
        let mut oob = vec![FLAG_TOPK];
        oob.extend_from_slice(&2u32.to_le_bytes());
        oob.extend_from_slice(&1u32.to_le_bytes());
        oob.extend_from_slice(&9u32.to_le_bytes());
        oob.extend_from_slice(&1.0f32.to_le_bytes());
        assert_eq!(
            dec.decode(&oob, None, &mut out),
            Err(CodecError::IndexOutOfRange)
        );
        // Trailing bytes.
        let cfg = CodecConfig::identity();
        let mut enc = UpdateEncoder::new(cfg);
        let mut payload = Vec::new();
        enc.encode(0, &[1.0, 2.0], &[], 0, &mut payload);
        payload.push(0);
        assert_eq!(
            dec.decode(&payload, None, &mut out),
            Err(CodecError::BadHeader)
        );
        // Missing reference.
        let cfg = CodecConfig {
            delta: true,
            ..CodecConfig::identity()
        };
        let mut enc = UpdateEncoder::new(cfg);
        enc.encode(0, &[1.0], &[0.5], 42, &mut payload);
        assert_eq!(
            dec.decode(&payload, None, &mut out),
            Err(CodecError::RefMissing)
        );
        assert_eq!(
            dec.decode(&payload, Some(&[0.0, 0.0]), &mut out),
            Err(CodecError::RefMismatch)
        );
    }

    #[test]
    fn corruption_transforms_decoded_values() {
        let cfg = CodecConfig::paper_pipeline().with_seed(1);
        let reference = model(100, |_| 0.0);
        let update = model(100, |i| if i == 7 { 2.0 } else { 0.001 });
        let mut enc = UpdateEncoder::new(cfg);
        let mut payload = Vec::new();
        enc.encode(0, &update, &reference, param_hash(&reference), &mut payload);
        let clean_len = payload.len();

        let mut flipped = payload.clone();
        assert!(corrupt_payload(
            &mut flipped,
            &ByzantineAttack::SignFlip,
            &mut || 0.0
        ));
        assert_eq!(flipped.len(), clean_len, "length must not change");
        let mut dec = UpdateDecoder::new();
        let (mut clean, mut poisoned) = (Vec::new(), Vec::new());
        dec.decode(&payload, Some(&reference), &mut clean).unwrap();
        dec.decode(&flipped, Some(&reference), &mut poisoned)
            .unwrap();
        for (c, p) in clean.iter().zip(&poisoned) {
            assert_eq!(*p, -*c, "sign flip negates the decoded delta");
        }

        let mut nan = payload.clone();
        assert!(corrupt_payload(
            &mut nan,
            &ByzantineAttack::NanInject { prob: 0.9 },
            &mut || 0.0
        ));
        dec.decode(&nan, Some(&reference), &mut poisoned).unwrap();
        assert!(poisoned.iter().any(|v| v.is_nan()));

        // Garbage payloads are not touched.
        let mut garbage = vec![0xff, 1, 2, 3];
        assert!(!corrupt_payload(
            &mut garbage,
            &ByzantineAttack::SignFlip,
            &mut || 0.0
        ));
    }

    #[test]
    fn q4_packs_two_coords_per_byte() {
        let cfg = CodecConfig {
            quant: Some(QuantBits::Q4),
            ..CodecConfig::identity()
        };
        let update = model(16, |i| (i as f32 - 8.0) / 4.0);
        let mut enc = UpdateEncoder::new(cfg);
        let mut payload = Vec::new();
        enc.encode(0, &update, &[], 0, &mut payload);
        // 1 flag + 4 dim + 4 scale + 8 packed bytes.
        assert_eq!(payload.len(), 17);
        let mut dec = UpdateDecoder::new();
        let mut out = Vec::new();
        dec.decode(&payload, None, &mut out).unwrap();
        let step = update.iter().fold(0.0f32, |m, v| m.max(v.abs())) / 7.0;
        for (a, b) in update.iter().zip(&out) {
            assert!((a - b).abs() < step + 1e-6);
        }
    }

    #[test]
    fn config_parse_and_describe_round_trip_the_spec() {
        let cfg = CodecConfig::parse("delta,topk=0.01,q8,stochastic,seed=7").unwrap();
        assert_eq!(
            cfg,
            CodecConfig::paper_pipeline().with_seed(7),
            "explicit spec matches the paper preset"
        );
        assert_eq!(cfg.describe(), "delta→topk(1%)→q8");
        assert_eq!(
            CodecConfig::parse("paper").unwrap().describe(),
            "delta→topk(1%)→q8"
        );
        assert_eq!(CodecConfig::parse("").unwrap().describe(), "identity");
        assert!(CodecConfig::parse("topk=0").is_err());
        assert!(CodecConfig::parse("warp9").is_err());
        let noef = CodecConfig::parse("q4,nearest,noef").unwrap();
        assert_eq!(noef.quant, Some(QuantBits::Q4));
        assert_eq!(noef.rounding, Rounding::Nearest);
        assert!(!noef.error_feedback);
    }
}
