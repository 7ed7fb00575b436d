//! Adversarial property tests for the wire codec (see DESIGN.md §13).
//!
//! Three families of properties:
//!
//! 1. **Round-trip through a byte stream**: random messages, framed and
//!    split at arbitrary chunk boundaries, reassemble and decode to the
//!    same messages, whether the bytes are fed in or read from a stream
//!    that returns short reads.
//! 2. **Canonical form**: whenever `decode` accepts bytes, re-encoding
//!    reproduces them exactly — there are no "don't care" bytes a peer
//!    could smuggle data in.
//! 3. **Hostile input**: random garbage, truncated prefixes, single-byte
//!    corruption and oversize length prefixes return typed errors; no
//!    input panics or triggers large speculative allocations.

use std::any::Any;
use std::io::{self, Read};

use bytes::Bytes;
use proptest::prelude::*;
use spyker_core::codec::{
    decode, encode, frame_into, DecodeError, FrameAccumulator, MAX_FRAME_LEN,
};
use spyker_core::membership::{RingMember, RingView};
use spyker_core::msg::FlMsg;
use spyker_core::params::ParamVec;
use spyker_core::token::Token;
use spyker_core::update_codec::{
    param_hash, CodecConfig, QuantBits, Rounding, UpdateDecoder, UpdateEncoder,
};
use spyker_simnet::{Env, NetworkConfig, Node, NodeId, Region, SimTime, Simulation, WireSize};

/// Parameter vectors of 0 to 1 100 coordinates, which cross the encoder's
/// 256-coordinate conversion blocks, and now and then a 16 384-dim model.
fn params() -> impl Strategy<Value = ParamVec> {
    (0usize..1_132)
        .prop_flat_map(|n| prop::collection::vec(-1e6f32..1e6, if n > 1_100 { 16_384 } else { n }))
        .prop_map(ParamVec::from_vec)
}

/// One random message of any protocol kind.
fn message() -> impl Strategy<Value = FlMsg> {
    (
        0u8..9,
        params(),
        (0.0f64..1e6, 0.0f32..1.0, 0u64..(1 << 40)),
        prop::collection::vec(0.0f64..1e4, 0..5),
    )
        .prop_map(|(kind, p, (age, lr, big), ages)| build_message(kind, p, age, lr, big, ages))
}

fn build_message(kind: u8, p: ParamVec, age: f64, lr: f32, big: u64, ages: Vec<f64>) -> FlMsg {
    let small = (big % 16) as usize;
    match kind {
        0 => FlMsg::ModelToClient { params: p, age, lr },
        1 => FlMsg::ClientUpdate {
            params: p,
            age,
            num_samples: (big % 10_000) as usize,
        },
        2 => FlMsg::ServerModel {
            params: p,
            age,
            bid: big,
            server_idx: small,
        },
        3 => FlMsg::AgeGossip {
            age,
            server_idx: small,
        },
        4 => FlMsg::TokenPass(Token { bid: big, ages }),
        5 => FlMsg::HierModel {
            params: p,
            round: big,
            weight: age,
        },
        6 => FlMsg::ClusterModel {
            params: p,
            age,
            center: small,
            server_idx: small / 2,
        },
        7 => {
            let centers = ages.iter().map(|_| p.clone()).collect();
            FlMsg::CentersToClient { centers, ages, lr }
        }
        _ => FlMsg::ClusterUpdate {
            params: p,
            age,
            center: small,
            num_samples: (big % 1000) as usize,
        },
    }
}

/// Deterministic chunk-size sequence so each case exercises a different
/// segmentation of the same stream.
fn next_chunk(state: &mut u64) -> usize {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    1 + ((*state >> 33) % 7) as usize
}

fn framed(msgs: &[FlMsg]) -> Vec<u8> {
    let mut stream = Vec::new();
    for msg in msgs {
        frame_into(msg, &mut stream);
    }
    stream
}

/// A stream that hands out its bytes in seeded reads of 1 to 70 000 bytes,
/// so frames straddle reads.
struct ShortReads<'a> {
    data: &'a [u8],
    state: u64,
}

impl Read for ShortReads<'_> {
    fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
        self.state = self
            .state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let most = [16, 4096, 70_000][(self.state >> 60) as usize % 3];
        let n = (1 + (self.state >> 20) as usize % most)
            .min(out.len())
            .min(self.data.len());
        out[..n].copy_from_slice(&self.data[..n]);
        self.data = &self.data[n..];
        Ok(n)
    }
}

proptest! {
    /// Random valid messages survive encode → frame → split at arbitrary
    /// boundaries → reassemble → decode.
    #[test]
    fn messages_survive_chunked_framing(
        msgs in prop::collection::vec(message(), 1..6),
        split_seed in 0u64..u64::MAX,
    ) {
        let stream = framed(&msgs);
        let mut acc = FrameAccumulator::new(MAX_FRAME_LEN);
        let mut state = split_seed;
        let mut decoded = Vec::new();
        let mut at = 0;
        while at < stream.len() {
            let take = next_chunk(&mut state).min(stream.len() - at);
            acc.feed(&stream[at..at + take]);
            at += take;
            while let Some(frame) = acc.next_frame().expect("well-formed stream") {
                decoded.push(decode(&Bytes::from(frame)).expect("valid frame"));
            }
        }
        prop_assert_eq!(decoded.len(), msgs.len());
        for (got, want) in decoded.iter().zip(&msgs) {
            prop_assert_eq!(encode(got), encode(want));
        }
        prop_assert_eq!(acc.buffered(), 0);
    }

    /// The same, read from a stream straight into the accumulator and
    /// decoded from the borrowed payloads.
    #[test]
    fn messages_survive_short_reads(
        msgs in prop::collection::vec(message(), 1..6),
        read_seed in 0u64..u64::MAX,
    ) {
        let stream = framed(&msgs);
        let mut src = ShortReads { data: &stream, state: read_seed };
        let mut acc = FrameAccumulator::new(MAX_FRAME_LEN);
        let mut decoded = Vec::new();
        while acc.read_from(&mut src).expect("in-memory reads succeed") > 0 {
            while let Some(frame) = acc.next_frame_ref().expect("well-formed stream") {
                decoded.push(decode(frame).expect("valid frame"));
            }
        }
        prop_assert_eq!(decoded.len(), msgs.len());
        for (got, want) in decoded.iter().zip(&msgs) {
            prop_assert_eq!(encode(got), encode(want));
        }
        prop_assert_eq!(acc.buffered(), 0);
    }

    /// Every strict prefix of a valid frame is rejected with an error,
    /// never a panic and never a bogus message.
    #[test]
    fn truncated_prefixes_error(msg in message(), cut_seed in 0u64..u64::MAX) {
        let frame = encode(&msg);
        let cut = (cut_seed % frame.len() as u64) as usize;
        prop_assert!(decode(&frame.slice(0..cut)).is_err());
    }

    /// Random garbage either errors or decodes to a message whose
    /// canonical re-encoding is byte-identical to the input — `decode`
    /// accepts nothing it cannot reproduce.
    #[test]
    fn garbage_decodes_to_error_or_canonical_form(
        bytes in prop::collection::vec(0u8..=255, 0..256),
    ) {
        let input = Bytes::from(bytes);
        if let Ok(msg) = decode(&input) {
            prop_assert_eq!(encode(&msg), input);
        }
    }

    /// Flipping a single byte of a valid frame never panics, and any
    /// still-accepted result re-encodes to exactly the corrupted bytes.
    #[test]
    fn single_byte_corruption_is_contained(
        msg in message(),
        pos_seed in 0u64..u64::MAX,
        flip in 1u8..=255,
    ) {
        let mut bytes = encode(&msg).as_ref().to_vec();
        let pos = (pos_seed % bytes.len() as u64) as usize;
        bytes[pos] ^= flip;
        let corrupted = Bytes::from(bytes);
        if let Ok(m) = decode(&corrupted) {
            prop_assert_eq!(encode(&m), corrupted);
        }
    }

    /// Garbage fed to the accumulator never panics: frames pop out while
    /// length prefixes stay within the cap, and an oversize prefix is the
    /// only (typed) failure.
    #[test]
    fn accumulator_handles_garbage(bytes in prop::collection::vec(0u8..=255, 0..512)) {
        let mut acc = FrameAccumulator::new(1024);
        acc.feed(&bytes);
        loop {
            match acc.next_frame() {
                Ok(Some(frame)) => {
                    prop_assert!(frame.len() <= 1024);
                    let _ = decode(&Bytes::from(frame));
                }
                Ok(None) => break,
                Err(e) => {
                    prop_assert!(matches!(e, DecodeError::Oversize { .. }));
                    break;
                }
            }
        }
    }

    /// A length prefix above the cap is rejected before any payload
    /// bytes arrive.
    #[test]
    fn oversize_prefix_rejected(extra in 1u64..u64::from(u32::MAX) - 4096) {
        let cap = 4096usize;
        let len = (cap as u64 + extra) as u32;
        let mut acc = FrameAccumulator::new(cap);
        acc.feed(&len.to_le_bytes());
        prop_assert!(matches!(
            acc.next_frame(),
            Err(DecodeError::Oversize { .. })
        ));
    }
}

/// Coordinates whose bits a codec must carry exactly: both zeros, the
/// smallest subnormal, both infinities and NaNs with payload bits.
const EDGE_BITS: [u32; 7] = [
    0x0000_0000,
    0x8000_0000,
    0x0000_0001,
    0x7f80_0000,
    0xff80_0000,
    0x7fc0_1234,
    0xffc0_0001,
];

/// `n` seeded coordinates with [`EDGE_BITS`] spread through them.
fn edge_params(n: usize, seed: u64) -> ParamVec {
    let mut state = seed;
    let mut v: Vec<f32> = (0..n)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            f32::from_bits((state >> 32) as u32 & 0xbfff_ffff)
        })
        .collect();
    for (i, &bits) in EDGE_BITS.iter().enumerate() {
        if n > 0 {
            v[(i * 2_347 + 1) % n] = f32::from_bits(bits);
        }
    }
    ParamVec::from_vec(v)
}

/// One message of every `FlMsg` kind, then a 16 384-dim model and a
/// client update of the same size.
fn pinned_messages() -> Vec<FlMsg> {
    vec![
        FlMsg::ModelToClient {
            params: edge_params(9, 1),
            age: 17.5,
            lr: 0.05,
        },
        FlMsg::ClientUpdate {
            params: edge_params(10, 2),
            age: 3.0,
            num_samples: 40,
        },
        FlMsg::ServerModel {
            params: ParamVec::from_vec(vec![f32::MIN, f32::MAX, -0.0]),
            age: 123.456,
            bid: 42,
            server_idx: 3,
        },
        FlMsg::AgeGossip {
            age: -0.0,
            server_idx: 7,
        },
        FlMsg::TokenPass(Token {
            bid: 7,
            ages: vec![
                1.0,
                f64::INFINITY,
                3.0,
                f64::from_bits(0x7ff8_0000_0000_00ab),
            ],
        }),
        FlMsg::HierModel {
            params: edge_params(1, 3),
            round: 9,
            weight: 1000.0,
        },
        FlMsg::ClusterModel {
            params: edge_params(2, 4),
            age: 11.0,
            center: 1,
            server_idx: 2,
        },
        FlMsg::CentersToClient {
            centers: vec![edge_params(3, 5), edge_params(7, 6)],
            ages: vec![4.0, 5.0],
            lr: 0.25,
        },
        FlMsg::ClusterUpdate {
            params: edge_params(5, 7),
            age: 2.0,
            center: 1,
            num_samples: 33,
        },
        FlMsg::JoinRequest { region: 2 },
        FlMsg::JoinAccept {
            ring: RingView::fixed(&[0, 1]).splice(5, Region::Sydney),
            params: edge_params(8, 8),
            age: 9.5,
            ages: vec![9.5, 3.0, 0.0],
            bid_floor: 17,
        },
        FlMsg::RingUpdate {
            ring: RingView::fixed(&[0, 1, 2]).unsplice(1),
            bid_floor: 21,
        },
        FlMsg::Rehome { server: 4 },
        FlMsg::ClientHello,
        FlMsg::RedirectedUpdate {
            client: 8,
            params: edge_params(11, 9),
            age: 6.0,
            num_samples: 12,
        },
        FlMsg::ScaleUp { sponsor: 0 },
        FlMsg::ScaleDown,
        FlMsg::EncodedUpdate {
            payload: (0..=255u8).rev().collect(),
            age: 4.0,
            num_samples: 25,
        },
        FlMsg::ModelToClient {
            params: edge_params(16_384, 10),
            age: 1e9,
            lr: 1e-3,
        },
        FlMsg::ClientUpdate {
            params: edge_params(16_384, 11),
            age: 2.5,
            num_samples: 64,
        },
    ]
}

fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Pins the wire bytes themselves. The round-trip and canonical-form
/// properties cannot see a change made consistently on both sides, such
/// as a byte-order swap, yet processes built before and after such a
/// change could no longer talk to each other. These constants were
/// recorded before the parameter codec was rewritten for bulk copies.
#[test]
fn wire_bytes_are_pinned() {
    let msgs = pinned_messages();
    let mut tags: Vec<u8> = Vec::new();
    let mut folded = 0xcbf2_9ce4_8422_2325u64;
    let mut stream = Vec::new();
    for msg in &msgs {
        let bytes = encode(msg);
        let back = decode(&bytes).expect("pinned message decodes");
        assert_eq!(encode(&back), bytes, "decode keeps every bit");
        tags.push(bytes[0]);
        folded = fnv1a(folded, &(bytes.len() as u64).to_le_bytes());
        folded = fnv1a(folded, &bytes);
        frame_into(msg, &mut stream);
    }
    tags.sort_unstable();
    tags.dedup();
    assert_eq!(tags, (0..18).collect::<Vec<u8>>(), "every tag is covered");
    let framed = fnv1a(0xcbf2_9ce4_8422_2325, &stream);
    assert_eq!(
        (folded, framed),
        (0x10ad_c636_7d6b_6a85, 0x2ed2_dd86_9b11_59b5),
        "wire bytes moved ({folded:#018x}, {framed:#018x})"
    );
}

/// A ring view is checked where it enters the process: members out of
/// slot order, a repeated slot, a member on a slot the view does not
/// have, or a slot space no frame could carry ages for are a typed error
/// in both messages that carry a view. Every shape the membership
/// protocol builds still decodes.
#[test]
fn adversarial_ring_views_are_refused_at_decode() {
    let member = |slot, node| RingMember {
        slot,
        node,
        region: Region::Paris,
    };
    let view = |members, slots| RingView {
        epoch: 1,
        members,
        slots,
    };
    let hostile = [
        // The frame that used to panic a standby server: it is placed on
        // slot 7 of a one-slot ring.
        view(vec![member(7, 0)], 1),
        view(vec![member(1, 0), member(0, 1)], 2),
        view(vec![member(0, 0), member(0, 1)], 2),
        view(Vec::new(), MAX_FRAME_LEN),
    ];
    for ring in hostile {
        let accept = FlMsg::JoinAccept {
            ring: ring.clone(),
            params: ParamVec::zeros(2),
            age: 1.0,
            ages: vec![0.0],
            bid_floor: 3,
        };
        let update = FlMsg::RingUpdate { ring, bid_floor: 3 };
        for msg in [accept, update] {
            assert_eq!(decode(&encode(&msg)).unwrap_err(), DecodeError::BadRing);
        }
    }
    let mut ring = RingView::fixed(&[0, 1, 2]);
    for step in 0..8 {
        ring = match step % 3 {
            0 => ring.splice(10 + step, Region::Sydney),
            _ => ring.unsplice(step),
        };
        let msg = FlMsg::RingUpdate {
            ring: ring.clone(),
            bid_floor: step as u64,
        };
        let bytes = encode(&msg);
        assert_eq!(
            encode(&decode(&bytes).expect("a built ring decodes")),
            bytes
        );
    }
}

/// `feed` and `read_from` append to one buffer: alternating them on one
/// accumulator reassembles the same frames, 64 KiB models included.
#[test]
fn feed_and_read_from_interleave() {
    let msgs = pinned_messages();
    let stream = framed(&msgs);
    let mut src = ShortReads {
        data: &stream,
        state: 7,
    };
    let mut acc = FrameAccumulator::new(MAX_FRAME_LEN);
    let mut chunk = vec![0u8; 70_000];
    let mut decoded = Vec::new();
    for turn in 0.. {
        let n = if turn % 2 == 0 {
            acc.read_from(&mut src).expect("in-memory reads succeed")
        } else {
            let n = src.read(&mut chunk).expect("in-memory reads succeed");
            acc.feed(&chunk[..n]);
            n
        };
        if n == 0 {
            break;
        }
        while let Some(frame) = acc.next_frame().expect("well-formed stream") {
            decoded.push(decode(&frame).expect("valid frame"));
        }
    }
    assert_eq!(decoded.len(), msgs.len());
    for (got, want) in decoded.iter().zip(&msgs) {
        assert_eq!(encode(got), encode(want));
    }
    assert_eq!(acc.buffered(), 0);
}

/// Records how large a buffer each read lands in: the bytes already
/// handed out plus the room offered after them.
struct Trickle<'a> {
    data: &'a [u8],
    given: usize,
    spans: Vec<usize>,
}

impl Read for Trickle<'_> {
    fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
        self.spans.push(self.given + out.len());
        let n = self.data.len().min(1);
        out[..n].copy_from_slice(&self.data[..n]);
        self.data = &self.data[n..];
        self.given += n;
        Ok(n)
    }
}

/// A length prefix claiming almost `MAX_FRAME_LEN` buys no memory: the
/// buffer grows with the bytes that arrive, one at a time here, and stays
/// within two read chunks (the room offered to the first read).
#[test]
fn a_hostile_length_prefix_does_not_grow_the_buffer() {
    let mut bytes = ((MAX_FRAME_LEN - 1) as u32).to_le_bytes().to_vec();
    bytes.extend_from_slice(&[0xab; 16]);
    let mut src = Trickle {
        data: &bytes,
        given: 0,
        spans: Vec::new(),
    };
    let mut acc = FrameAccumulator::new(MAX_FRAME_LEN);
    while acc.read_from(&mut src).expect("in-memory reads succeed") > 0 {
        assert_eq!(acc.next_frame_ref(), Ok(None));
    }
    assert_eq!(acc.buffered(), 20);
    let chunk = src.spans[0];
    assert!(
        src.spans.iter().all(|&span| span <= 2 * chunk),
        "buffer outgrew two read chunks of {chunk}: {:?}",
        src.spans
    );
}

/// Every pipeline the update encoder runs: delta on or off, top-k off or
/// at 1 %, 30 % or 100 %, no quantization, q8 or q4, error feedback on or
/// off, each rounding mode.
fn every_pipeline() -> Vec<CodecConfig> {
    let mut out = Vec::new();
    for delta in [false, true] {
        for topk in [None, Some(0.01), Some(0.3), Some(1.0)] {
            for quant in [None, Some(QuantBits::Q8), Some(QuantBits::Q4)] {
                for error_feedback in [false, true] {
                    for rounding in [Rounding::Nearest, Rounding::Stochastic] {
                        out.push(CodecConfig {
                            delta,
                            topk,
                            error_feedback,
                            quant,
                            rounding,
                            ..CodecConfig::identity()
                        });
                    }
                }
            }
        }
    }
    out
}

/// A message is sized before its payload exists (DESIGN.md §10.5), so
/// every payload must be exactly as long as `encoded_len` said, and
/// well-formed. Two rounds per encoder: the second starts from a carried
/// residual and a later rounding stream.
#[test]
fn every_payload_is_as_long_as_encoded_len_says() {
    for cfg in every_pipeline() {
        for dim in [0, 1, 2, 31, 1_023, 1_024, 4_097] {
            let mut encoder = UpdateEncoder::new(cfg);
            let want = encoder.encoded_len(dim);
            let reference: Vec<f32> = (0..dim).map(|i| (i as f32 * 0.37).sin()).collect();
            let hash = param_hash(&reference);
            let mut payload = Vec::new();
            for round in 0..2 {
                let update: Vec<f32> = reference
                    .iter()
                    .enumerate()
                    .map(|(i, r)| r + ((i * 7 + round) % 13) as f32 * 0.01 - 0.06)
                    .collect();
                encoder.encode(3, &update, &reference, hash, &mut payload);
                let at = format!("{cfg:?} at dim {dim}, round {round}");
                assert_eq!(payload.len(), want, "{at}");
                let named = UpdateDecoder::ref_hash(&payload);
                assert_eq!(named, Ok(cfg.delta.then_some(hash)), "{at}");
            }
        }
    }
}

proptest! {
    /// The same for arbitrary values, non-finite ones included, at any
    /// dimension up to 2 100.
    #[test]
    fn encoded_len_holds_for_any_values(
        pipeline in 0usize..96,
        update in (0usize..2_100).prop_flat_map(|n| prop::collection::vec(
            (-1e6f32..1e6, 0u8..10).prop_map(|(v, kind)| match kind {
                0 => f32::NAN,
                1 => f32::INFINITY,
                _ => v,
            }),
            n,
        )),
    ) {
        let cfg = every_pipeline()[pipeline];
        let reference = vec![0.5f32; update.len()];
        let mut encoder = UpdateEncoder::new(cfg);
        let mut payload = Vec::new();
        encoder.encode(1, &update, &reference, 9, &mut payload);
        prop_assert_eq!(payload.len(), encoder.encoded_len(update.len()));
        prop_assert!(UpdateDecoder::ref_hash(&payload).is_ok());
    }
}

/// An encoded update sent through a computed send is booked at its
/// declared size and travels as exactly the bytes its job writes.
#[test]
fn a_computed_encoded_update_travels_as_its_bytes() {
    struct Upload(Option<FlMsg>);
    impl Node<FlMsg> for Upload {
        fn on_start(&mut self, env: &mut dyn Env<FlMsg>) {
            if let Some(msg) = self.0.take() {
                let (bytes, kind) = (msg.wire_size(), msg.kind());
                env.send_computed(1, bytes, kind, Box::new(move || msg));
            }
        }
        fn on_message(&mut self, env: &mut dyn Env<FlMsg>, _from: NodeId, msg: FlMsg) {
            assert_eq!(env.me(), 1);
            self.0 = Some(msg);
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }
    let message = || FlMsg::EncodedUpdate {
        payload: (0..=255u8).rev().collect(),
        age: 4.0,
        num_samples: 25,
    };
    let mut sim = Simulation::new(NetworkConfig::uniform_all(SimTime::from_millis(10)), 0);
    sim.add_node(Box::new(Upload(Some(message()))), Region::Paris);
    sim.add_node(Box::new(Upload(None)), Region::Paris);
    sim.run(SimTime::from_secs(1));
    let ready = message();
    assert_eq!(sim.metrics().counter("net.bytes"), ready.wire_size() as u64);
    let received = sim.node(1).as_any().downcast_ref::<Upload>().unwrap();
    assert_eq!(encode(received.0.as_ref().unwrap()), encode(&ready));
}
