//! The encoded-upload path decoded straight into the delta
//! (`UpdateIngest::encoded_update` with `delta`, as `SpykerServer` runs it)
//! against the dense decode (without, as Sync-Spyker runs it), each fed to
//! `UpdateIngest::client_update`: the same uploads, honest and hostile, must
//! leave the same model bits, ages, counters and replies, under the Mean
//! and trimmed-mean strategies with the norm and staleness bounds on.
//!
//! A second case drives a `SpykerServer`: an upload from a client it does
//! not serve still hands its decode buffer back.

mod support;

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use spyker_core::agg::{AggregationStrategy, ValidationConfig};
use spyker_core::config::SpykerConfig;
use spyker_core::ingest::{UpdateIngest, Upload};
use spyker_core::msg::FlMsg;
use spyker_core::params::ParamVec;
use spyker_core::server::SpykerServer;
use spyker_core::update_codec::{corrupt_payload, CodecConfig, UpdateEncoder};
use spyker_simnet::{ByzantineAttack, Node, NodeId};
use support::MockEnv;

/// Counts the allocations of at least `BIG_FROM` bytes the armed thread
/// makes; the other test of this file may run on another thread meanwhile.
struct CountingAlloc;

const BIG_FROM: usize = 4 * 1024;

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static BIG: Cell<usize> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if layout.size() >= BIG_FROM && ARMED.try_with(Cell::get).unwrap_or(false) {
            BIG.with(|n| n.set(n.get() + 1));
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Allocations of at least `BIG_FROM` bytes this thread makes while `f`
/// runs.
fn big_allocations_by(f: impl FnOnce()) -> usize {
    BIG.with(|n| n.set(0));
    ARMED.with(|a| a.set(true));
    f();
    ARMED.with(|a| a.set(false));
    BIG.with(Cell::get)
}

const CLIENTS: [NodeId; 3] = [1, 2, 3];

const COUNTERS: [&str; 10] = [
    "updates.processed",
    "agg.rejected",
    "agg.rejected.nonfinite",
    "agg.rejected.norm",
    "agg.rejected.stale",
    "agg.robust.flushes",
    "net.unexpected",
    "codec.decoded",
    "codec.decode_error",
    "codec.ref_miss",
];

/// One server's side: its ingest path, model, age and environment.
struct Side {
    ingest: UpdateIngest,
    params: ParamVec,
    age: f64,
    env: MockEnv,
}

impl Side {
    fn new(cfg: &SpykerConfig, dim: usize) -> Self {
        Self {
            ingest: UpdateIngest::from_config(CLIENTS.to_vec(), cfg),
            params: ParamVec::from_vec((0..dim).map(|i| (i as f32 * 0.01).cos()).collect()),
            age: 10.0,
            env: MockEnv::new(0, 4),
        }
    }

    /// The encoded path, as `SpykerServer` takes an `EncodedUpdate`.
    fn delta(&mut self, k: usize, payload: &[u8], update_age: f64) {
        let Side {
            ingest,
            params,
            age,
            env,
        } = self;
        if let Some((delta, finite)) =
            ingest.encoded_update(env, CLIENTS[k], payload, params, *age, true)
        {
            let delta = Upload::Delta(delta, finite);
            ingest.client_update(env, params, age, k, delta, update_age, true);
        }
    }

    /// The dense path, gated by its own finite scan: the reference side
    /// does not trust the decoder's flag that the delta side relies on.
    fn dense(&mut self, k: usize, payload: &[u8], update_age: f64) {
        let Side {
            ingest,
            params,
            age,
            env,
        } = self;
        if let Some((update, finite)) =
            ingest.encoded_update(env, CLIENTS[k], payload, params, *age, false)
        {
            let scanned = update.as_slice().iter().all(|v| v.is_finite());
            assert_eq!(finite, scanned, "the decoder's finite flag is wrong");
            let model = Upload::Model(&update, None);
            ingest.client_update(env, params, age, k, model, update_age, true);
            ingest.recycle_update(update);
        }
    }
}

fn bits(p: &ParamVec) -> Vec<u32> {
    p.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// xorshift64*: a deterministic stream without external deps.
struct Rng(u64);

impl Rng {
    fn unit(&mut self) -> f32 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        (self.0.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 40) as f32 / (1u64 << 24) as f32 - 0.5
    }
}

/// What a client does with the model it was sent.
#[derive(Clone, Copy, Debug)]
enum Kind {
    Honest,
    /// Values turned to `NaN` in flight.
    Poisoned,
    /// A step far past the norm bound.
    Exploded,
    /// Trained from a model far older than the server's.
    Stale,
    /// An identity-pipeline payload one coordinate short.
    OtherDim,
    /// The first two sparse indices swapped.
    Unordered,
    /// A reference this server never sent.
    Unknown,
    /// Cut short.
    Truncated,
}

fn run(aggregation: AggregationStrategy, codec: CodecConfig, dim: usize) {
    let validation = ValidationConfig {
        reject_nonfinite: true,
        max_delta_norm: Some(0.05 * (dim as f32).sqrt()),
        max_staleness: Some(6.0),
    };
    let cfg = SpykerConfig::paper_defaults(3, 1)
        .with_codec(codec)
        .with_validation(validation)
        .with_aggregation(aggregation);
    let (mut a, mut b) = (Side::new(&cfg, dim), Side::new(&cfg, dim));
    let mut encoders: Vec<UpdateEncoder> =
        CLIENTS.iter().map(|_| UpdateEncoder::new(codec)).collect();
    let mut rng = Rng(0x9e37_79b9_7f4a_7c15 ^ dim as u64);
    let script = [
        Kind::Honest,
        Kind::Honest,
        Kind::Poisoned,
        Kind::Honest,
        Kind::Exploded,
        Kind::Stale,
        Kind::Honest,
        Kind::OtherDim,
        Kind::Unordered,
        Kind::Honest,
        Kind::Unknown,
        Kind::Truncated,
    ];
    for round in 0..3 * script.len() {
        let kind = script[round % script.len()];
        let k = round % CLIENTS.len();
        // Both servers hand client k their current model (recording it as
        // the client's reference), which must be the same bits.
        a.ingest.reply(&mut a.env, CLIENTS[k], &a.params, a.age);
        b.ingest.reply(&mut b.env, CLIENTS[k], &b.params, b.age);
        let sent = match a.env.sent.last() {
            Some((_, FlMsg::ModelToClient { params, age, .. })) => (params.clone(), *age),
            other => panic!("expected a model, got {other:?}"),
        };
        let (model, model_age) = sent;
        let step = match kind {
            Kind::Exploded => 10.0,
            _ => 0.01,
        };
        let trained: Vec<f32> = model
            .as_slice()
            .iter()
            .map(|&m| m + step * rng.unit())
            .collect();
        let reference = match kind {
            Kind::Unknown => ParamVec::zeros(dim),
            _ => model.clone(),
        };
        let mut payload = Vec::new();
        if let Kind::OtherDim = kind {
            UpdateEncoder::new(CodecConfig::identity()).encode(
                9,
                &trained[1..],
                &[],
                0,
                &mut payload,
            );
        } else {
            // A hostile round does not carry its residual into honest ones.
            let mut fresh = UpdateEncoder::new(codec);
            let encoder = match kind {
                Kind::Honest => &mut encoders[k],
                _ => &mut fresh,
            };
            encoder.encode(
                CLIENTS[k] as u64,
                &trained,
                reference.as_slice(),
                reference.content_hash(),
                &mut payload,
            );
        }
        match kind {
            Kind::Unordered if codec.topk.is_some() => {
                // Flags, dimension, reference hash of a delta payload, count.
                let off = 9 + if codec.delta { 8 } else { 0 };
                let k = u32::from_le_bytes(payload[off - 4..off].try_into().unwrap());
                if k >= 2 {
                    let first: [u8; 4] = payload[off..off + 4].try_into().unwrap();
                    payload.copy_within(off + 4..off + 8, off);
                    payload[off + 4..off + 8].copy_from_slice(&first);
                }
            }
            Kind::Truncated => payload.truncate(payload.len() / 2),
            Kind::Poisoned => {
                let nan = ByzantineAttack::NanInject { prob: 1.0 };
                assert!(corrupt_payload(&mut payload, &nan, &mut || 0.0));
            }
            _ => {}
        }
        let update_age = match kind {
            Kind::Stale => model_age - 20.0,
            _ => model_age - (round % 3) as f64,
        };
        a.delta(k, &payload, update_age);
        b.dense(k, &payload, update_age);
        let what = format!("{aggregation:?}, {codec:?}, dim {dim}, round {round} ({kind:?})");
        assert_eq!(bits(&a.params), bits(&b.params), "{what}");
        assert_eq!(a.age.to_bits(), b.age.to_bits(), "{what}");
        assert_eq!(a.ingest.processed(), b.ingest.processed(), "{what}");
        assert_eq!(a.ingest.rejected(), b.ingest.rejected(), "{what}");
        for name in COUNTERS {
            assert_eq!(a.env.counter(name), b.env.counter(name), "{name}: {what}");
        }
        assert_eq!(a.env.sent.len(), b.env.sent.len(), "{what}");
    }
    // Every kind of upload was seen. A sparse upload without delta
    // encoding zeroes most of the model, so the norm bound rejects it.
    let mut seen = vec![
        "agg.rejected.nonfinite",
        "agg.rejected.norm",
        "agg.rejected.stale",
        "net.unexpected",
        "codec.decode_error",
    ];
    if codec.delta {
        seen.extend(["updates.processed", "codec.ref_miss"]);
    }
    for name in seen {
        let what = format!("{aggregation:?}, {codec:?}, dim {dim}");
        assert!(a.env.counter(name) > 0, "{name} never counted: {what}");
    }
}

#[test]
fn the_encoded_path_integrates_as_the_dense_one() {
    let trimmed = AggregationStrategy::TrimmedMean {
        batch: 3,
        trim_ratio: 0.25,
    };
    for aggregation in [AggregationStrategy::Mean, trimmed] {
        for codec in [
            CodecConfig::paper_pipeline(),
            CodecConfig::parse("delta").expect("valid spec"),
            CodecConfig::parse("delta,topk=0.05,q4").expect("valid spec"),
            CodecConfig::parse("q8").expect("valid spec"),
            CodecConfig::parse("topk=0.05").expect("valid spec"),
        ] {
            // Below and above the dimension that shares storage.
            for dim in [64, 2048] {
                run(aggregation, codec, dim);
            }
        }
    }
}

/// An encoded upload from a node the server does not serve (and, without
/// membership, will not adopt) decodes — a payload without a reference
/// needs no history — and is then dropped as `net.unexpected`. Its decoded
/// buffer goes back to the ingest path: the next served upload allocates
/// no more model-sized buffers than one in the steady state does (the
/// model's own next version), where it used to allocate a decode buffer
/// too.
#[test]
fn a_misrouted_upload_hands_its_decode_buffer_back() {
    const DIM: usize = 2048;
    const SERVED: NodeId = 1;
    const STRANGER: NodeId = 2;
    const { assert!(4 * DIM >= BIG_FROM) };
    let codec = CodecConfig::parse("q8").expect("valid spec");
    let cfg = SpykerConfig::paper_defaults(1, 1).with_codec(codec);
    let init = ParamVec::from_vec((0..DIM).map(|i| (i as f32 * 0.01).cos()).collect());
    let mut server = SpykerServer::new(0, vec![0], vec![SERVED], init, cfg);
    let mut env = MockEnv::new(0, 3);
    server.on_start(&mut env);
    let mut rng = Rng(0x5eed);
    let mut upload = |from: NodeId| {
        let trained: Vec<f32> = (0..DIM).map(|_| rng.unit()).collect();
        let mut payload = Vec::new();
        UpdateEncoder::new(codec).encode(from as u64, &trained, &[], 0, &mut payload);
        FlMsg::EncodedUpdate {
            payload,
            age: 0.0,
            num_samples: 1,
        }
    };
    // Warm-up: the first decode allocates the buffer.
    let (first, second) = (upload(SERVED), upload(SERVED));
    server.on_message(&mut env, SERVED, first);
    let steady = big_allocations_by(|| server.on_message(&mut env, SERVED, second));

    let misrouted = upload(STRANGER);
    server.on_message(&mut env, STRANGER, misrouted);
    assert_eq!(env.counter("net.unexpected"), 1);
    assert_eq!(env.counter("codec.decoded"), 3);
    assert_eq!(env.counter("updates.processed"), 2);

    let next = upload(SERVED);
    let after = big_allocations_by(|| server.on_message(&mut env, SERVED, next));
    assert_eq!(env.counter("updates.processed"), 3);
    assert_eq!(
        after, steady,
        "the served upload after a misrouted one allocated anew"
    );
}
