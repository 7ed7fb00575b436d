//! Binary wire codec for [`FlMsg`].
//!
//! The simulator moves messages as Rust values; a real network deployment
//! needs bytes. This module defines the canonical little-endian framing for
//! every protocol message. The encoded size matches
//! [`spyker_simnet::WireSize::wire_size`] closely (within the fixed
//! per-message header), so the bandwidth numbers measured in the simulator
//! carry over to a wire deployment.
//!
//! Frame layout: a 1-byte message tag followed by the message fields, in
//! the order one table in this module (`wire_table!`) lists them; every
//! vector is a `u32` count followed by its little-endian elements.
//!
//! For stream transports (TCP), [`frame_into`] prefixes a frame with its
//! `u32` little-endian length and [`FrameAccumulator`] reassembles frames
//! from arbitrarily-chunked reads. Decoding is hardened against hostile
//! input: every length field is validated against the remaining bytes
//! before any allocation, frames longer than [`MAX_FRAME_LEN`] are
//! rejected, and trailing garbage after a complete message is an error —
//! no code path reachable from network bytes panics.
//!
//! A model is copied once in user space per side: encoding converts
//! coordinates a block at a time, one `put_slice` per block, and [`decode`]
//! reads a borrowed `&[u8]`, so a reader decodes each frame where
//! [`FrameAccumulator::read_from`] put it.
//!
//! # Example
//!
//! ```
//! use spyker_core::codec::{decode, encode};
//! use spyker_core::msg::FlMsg;
//! use spyker_core::params::ParamVec;
//!
//! let msg = FlMsg::AgeGossip { age: 12.5, server_idx: 3 };
//! let bytes = encode(&msg);
//! let back = decode(&bytes).unwrap();
//! assert!(matches!(back, FlMsg::AgeGossip { age, server_idx: 3 } if age == 12.5));
//! # let _ = ParamVec::zeros(0);
//! ```

use std::fmt;
use std::io::{self, Read};

use bytes::{Buf, BufMut, Bytes, BytesMut};

use spyker_simnet::Region;

use crate::membership::{RingMember, RingView};
use crate::msg::FlMsg;
use crate::params::ParamVec;
use crate::token::Token;

/// Hard upper bound on the length of a single frame (64 MiB).
///
/// A length prefix above this cap is treated as a protocol violation
/// rather than an allocation request: a peer must never be able to make
/// the receiver reserve unbounded memory with four cheap bytes.
pub const MAX_FRAME_LEN: usize = 64 << 20;

/// Decoding failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The buffer ended before the frame was complete.
    Truncated,
    /// The first byte is not a known message tag.
    UnknownTag(u8),
    /// A length prefix exceeds the configured maximum frame length.
    Oversize {
        /// Length claimed by the frame header.
        len: u64,
        /// Maximum length the decoder accepts.
        max: u64,
    },
    /// The frame decoded to a complete message with bytes left over.
    TrailingBytes(usize),
    /// A ring view whose members are not strictly increasing by slot, or
    /// name a slot outside the view, or whose slot space would not fit
    /// one frame's age vector.
    BadRing,
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "frame truncated"),
            DecodeError::UnknownTag(t) => write!(f, "unknown message tag {t}"),
            DecodeError::Oversize { len, max } => {
                write!(f, "frame length {len} exceeds cap {max}")
            }
            DecodeError::TrailingBytes(n) => {
                write!(f, "{n} trailing bytes after complete message")
            }
            DecodeError::BadRing => write!(f, "malformed ring view"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Encodes a message into a standalone frame.
pub fn encode(msg: &FlMsg) -> Bytes {
    let mut buf = BytesMut::with_capacity(frame_capacity(msg));
    encode_body(msg, &mut buf);
    buf.freeze()
}

/// Encodes a message into a caller-owned buffer, appending to it.
///
/// This is the allocation-free path for the TCP transport: the buffer is
/// rented from a [`Scratch`](spyker_tensor::Scratch)-style pool and reused
/// across sends, so steady-state encoding performs no heap allocation.
pub fn encode_into(msg: &FlMsg, out: &mut Vec<u8>) {
    out.reserve(frame_capacity(msg));
    encode_body(msg, out);
}

/// Appends `[u32 LE length][frame]` to `out` — the stream framing consumed
/// by [`FrameAccumulator`] on the receiving side.
pub fn frame_into(msg: &FlMsg, out: &mut Vec<u8>) {
    let at = out.len();
    out.extend_from_slice(&[0u8; 4]);
    encode_body(msg, out);
    let len = (out.len() - at - 4) as u32;
    out[at..at + 4].copy_from_slice(&len.to_le_bytes());
}

/// Tags of the two variants `wire_table!` writes out by hand.
const TOKEN_PASS: u8 = 4;
const CENTERS_TO_CLIENT: u8 = 7;

/// Writes `encode_body` and `decode_body` from one table. A row gives a
/// variant's tag byte and its fields in wire order; each field is written
/// and read by its type's [`Field`] impl, and a `usize` field names its
/// wire width (`as u32`, `as u64`). `TokenPass`, a tuple variant, and
/// `CentersToClient`, whose centers and ages share one count, are written
/// out by hand.
macro_rules! wire_table {
    ($($tag:literal => $variant:ident { $($field:ident: $ty:ty $(as $wire:ty)?),* },)*) => {
        fn encode_body<B: BufMut>(msg: &FlMsg, buf: &mut B) {
            match msg {
                $(FlMsg::$variant { $($field),* } => {
                    buf.put_u8($tag);
                    $(wire_field!(put buf, $field: $ty $(as $wire)?);)*
                })*
                FlMsg::TokenPass(token) => {
                    buf.put_u8(TOKEN_PASS);
                    token.put(buf);
                }
                FlMsg::CentersToClient { centers, ages, lr } => {
                    buf.put_u8(CENTERS_TO_CLIENT);
                    (centers.len() as u32).put(buf);
                    for c in centers {
                        c.put(buf);
                    }
                    for a in ages {
                        a.put(buf);
                    }
                    lr.put(buf);
                }
            }
        }

        fn decode_body(tag: u8, buf: &mut &[u8]) -> Result<FlMsg, DecodeError> {
            Ok(match tag {
                $($tag => {
                    $(let $field = wire_field!(get buf, $ty $(as $wire)?);)*
                    FlMsg::$variant { $($field),* }
                })*
                TOKEN_PASS => FlMsg::TokenPass(Token::get(buf)?),
                CENTERS_TO_CLIENT => {
                    let k = u32::get(buf)? as usize;
                    // Each centre costs at least a 4-byte length plus an
                    // 8-byte age; a hostile `k` fails here, before any
                    // allocation.
                    if buf.len() < k.saturating_mul(12) {
                        return Err(DecodeError::Truncated);
                    }
                    let centers = (0..k).map(|_| ParamVec::get(buf)).collect::<Result<_, _>>()?;
                    let ages = (0..k).map(|_| f64::get(buf)).collect::<Result<_, _>>()?;
                    let lr = f32::get(buf)?;
                    FlMsg::CentersToClient { centers, ages, lr }
                }
                other => return Err(DecodeError::UnknownTag(other)),
            })
        }
    };
}

/// One field of a [`wire_table!`] row: `put` writes it, `get` reads it.
macro_rules! wire_field {
    (put $buf:ident, $f:ident: $ty:ty as $wire:ty) => {
        (*$f as $wire).put($buf)
    };
    (put $buf:ident, $f:ident: $ty:ty) => {
        Field::put($f, $buf)
    };
    (get $buf:ident, $ty:ty as $wire:ty) => {
        <$wire>::get($buf)? as $ty
    };
    (get $buf:ident, $ty:ty) => {
        <$ty>::get($buf)?
    };
}

wire_table! {
    0 => ModelToClient { params: ParamVec, age: f64, lr: f32 },
    1 => ClientUpdate { params: ParamVec, age: f64, num_samples: usize as u64 },
    2 => ServerModel { params: ParamVec, age: f64, bid: u64, server_idx: usize as u32 },
    3 => AgeGossip { age: f64, server_idx: usize as u32 },
    5 => HierModel { params: ParamVec, round: u64, weight: f64 },
    6 => ClusterModel { params: ParamVec, age: f64, center: usize as u32, server_idx: usize as u32 },
    8 => ClusterUpdate { params: ParamVec, age: f64, center: usize as u32, num_samples: usize as u64 },
    9 => JoinRequest { region: usize as u32 },
    10 => JoinAccept { ring: RingView, params: ParamVec, age: f64, ages: Vec<f64>, bid_floor: u64 },
    11 => RingUpdate { ring: RingView, bid_floor: u64 },
    12 => Rehome { server: usize as u32 },
    13 => ClientHello {},
    14 => RedirectedUpdate { client: usize as u32, params: ParamVec, age: f64, num_samples: usize as u64 },
    15 => ScaleUp { sponsor: usize as u32 },
    16 => ScaleDown {},
    17 => EncodedUpdate { payload: Vec<u8>, age: f64, num_samples: usize as u64 },
}

/// Decodes one frame produced by [`encode`].
///
/// The frame must contain exactly one message: short input yields
/// [`DecodeError::Truncated`], an unrecognised tag byte yields
/// [`DecodeError::UnknownTag`], and bytes left over after a complete
/// message yield [`DecodeError::TrailingBytes`].
///
/// # Errors
///
/// Returns a [`DecodeError`] as described above; never panics, whatever
/// the input bytes.
pub fn decode(frame: &[u8]) -> Result<FlMsg, DecodeError> {
    let mut buf = frame;
    let [tag] = take_n(&mut buf)?;
    let msg = decode_body(tag, &mut buf)?;
    if !buf.is_empty() {
        return Err(DecodeError::TrailingBytes(buf.len()));
    }
    Ok(msg)
}

/// Room [`FrameAccumulator::read_from`] makes before each read.
const READ_CHUNK: usize = 16 * 1024;

/// Reassembles length-prefixed frames from arbitrarily-chunked stream
/// reads.
///
/// Read a stream straight into the accumulator with
/// [`read_from`](Self::read_from), or push bytes with [`feed`](Self::feed),
/// then drain complete frames in place with
/// [`next_frame_ref`](Self::next_frame_ref) or as owned copies with
/// [`next_frame`](Self::next_frame). The accumulator never trusts a length
/// prefix beyond its configured cap, and its buffer grows only with the
/// bytes that arrived plus one read chunk, never towards a claimed length,
/// so a malicious peer cannot force an unbounded buffer.
#[derive(Debug)]
pub struct FrameAccumulator {
    /// `buf[start..end]` arrived and is not yet returned as a frame; the
    /// initialised space after `end` is room for the next read.
    buf: Vec<u8>,
    start: usize,
    end: usize,
    max_frame: usize,
}

impl FrameAccumulator {
    /// Creates an accumulator that rejects frames longer than `max_frame`.
    pub fn new(max_frame: usize) -> Self {
        Self {
            buf: Vec::new(),
            start: 0,
            end: 0,
            max_frame,
        }
    }

    /// Appends freshly-read bytes to the internal buffer.
    pub fn feed(&mut self, chunk: &[u8]) {
        self.make_room(chunk.len());
        self.buf[self.end..self.end + chunk.len()].copy_from_slice(chunk);
        self.end += chunk.len();
    }

    /// Performs one `read` from `src` straight into the internal buffer and
    /// returns its byte count (0 at end of stream).
    ///
    /// # Errors
    ///
    /// Whatever `src.read` returns; the buffered bytes are kept.
    pub fn read_from(&mut self, src: &mut impl Read) -> io::Result<usize> {
        self.make_room(READ_CHUNK);
        let n = src.read(&mut self.buf[self.end..])?;
        self.end += n;
        Ok(n)
    }

    /// Number of buffered bytes not yet returned as a frame.
    pub fn buffered(&self) -> usize {
        self.end - self.start
    }

    /// Pops the next complete frame payload, if one has fully arrived.
    ///
    /// Returns `Ok(None)` when more bytes are needed.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError::Oversize`] when a length prefix exceeds the
    /// cap; the stream is desynchronised at that point and the connection
    /// should be dropped.
    pub fn next_frame(&mut self) -> Result<Option<Vec<u8>>, DecodeError> {
        Ok(self.next_frame_ref()?.map(<[u8]>::to_vec))
    }

    /// [`next_frame`](Self::next_frame) without the copy: the payload is
    /// borrowed where it lies in the buffer.
    ///
    /// # Errors
    ///
    /// As for [`next_frame`](Self::next_frame).
    pub fn next_frame_ref(&mut self) -> Result<Option<&[u8]>, DecodeError> {
        let Ok(header) = take_n(&mut &self.buf[self.start..self.end]) else {
            return Ok(None);
        };
        let len = u32::from_le_bytes(header) as usize;
        if len > self.max_frame {
            return Err(DecodeError::Oversize {
                len: len as u64,
                max: self.max_frame as u64,
            });
        }
        if self.buffered() < 4 + len {
            return Ok(None);
        }
        let at = self.start + 4;
        self.start = at + len;
        if self.start == self.end {
            // Drained: the next read starts at the front, nothing to move.
            (self.start, self.end) = (0, 0);
        }
        Ok(Some(&self.buf[at..at + len]))
    }

    /// Makes room for `k` bytes after the write cursor, first by moving
    /// the unconsumed tail to the front, then by growing to the bytes held
    /// plus `k`.
    fn make_room(&mut self, k: usize) {
        if self.buf.len() - self.end >= k {
            return;
        }
        if self.start > 0 {
            self.buf.copy_within(self.start..self.end, 0);
            (self.start, self.end) = (0, self.end - self.start);
        }
        if self.buf.len() - self.end < k {
            self.buf.resize(self.end + k, 0);
        }
    }
}

fn frame_capacity(msg: &FlMsg) -> usize {
    use spyker_simnet::WireSize;
    msg.wire_size() + 16
}

/// How one field type travels. `get` checks every length against the
/// bytes left before it allocates, so a peer's length field can reserve
/// no more memory than its frame holds.
trait Field: Sized {
    fn put<B: BufMut>(&self, buf: &mut B);
    fn get(buf: &mut &[u8]) -> Result<Self, DecodeError>;
}

/// Fixed-width little-endian scalars.
macro_rules! le_field {
    ($($t:ty),*) => {$(
        impl Field for $t {
            fn put<B: BufMut>(&self, buf: &mut B) {
                buf.put_slice(&self.to_le_bytes());
            }

            fn get(buf: &mut &[u8]) -> Result<Self, DecodeError> {
                take_n(buf).map(<$t>::from_le_bytes)
            }
        }
    )*};
}

le_field!(u32, u64, f32, f64);

/// Ages: a `u32` count, then that many `f64`s.
impl Field for Vec<f64> {
    fn put<B: BufMut>(&self, buf: &mut B) {
        (self.len() as u32).put(buf);
        for a in self {
            a.put(buf);
        }
    }

    fn get(buf: &mut &[u8]) -> Result<Self, DecodeError> {
        let n = u32::get(buf)? as usize;
        let (ages, _) = take(buf, n.saturating_mul(8))?.as_chunks::<8>();
        Ok(ages.iter().map(|&le| f64::from_le_bytes(le)).collect())
    }
}

/// An opaque payload: a `u32` length, then the bytes. The update codec
/// checks the contents when it decodes them.
impl Field for Vec<u8> {
    fn put<B: BufMut>(&self, buf: &mut B) {
        (self.len() as u32).put(buf);
        buf.put_slice(self);
    }

    fn get(buf: &mut &[u8]) -> Result<Self, DecodeError> {
        let n = u32::get(buf)? as usize;
        Ok(take(buf, n)?.to_vec())
    }
}

impl Field for Token {
    fn put<B: BufMut>(&self, buf: &mut B) {
        self.bid.put(buf);
        self.ages.put(buf);
    }

    fn get(buf: &mut &[u8]) -> Result<Self, DecodeError> {
        let bid = u64::get(buf)?;
        let ages = Vec::get(buf)?;
        Ok(Token { bid, ages })
    }
}

impl Field for RingView {
    fn put<B: BufMut>(&self, buf: &mut B) {
        self.epoch.put(buf);
        (self.slots as u64).put(buf);
        (self.members.len() as u32).put(buf);
        for m in &self.members {
            (m.slot as u32).put(buf);
            (m.node as u32).put(buf);
            buf.put_u8(m.region.index() as u8);
        }
    }

    fn get(buf: &mut &[u8]) -> Result<Self, DecodeError> {
        let epoch = u64::get(buf)?;
        let slots = u64::get(buf)? as usize;
        let n = u32::get(buf)? as usize;
        // Each member costs 9 bytes; validate before allocating.
        if buf.len() < n.saturating_mul(9) {
            return Err(DecodeError::Truncated);
        }
        let mut members = Vec::with_capacity(n);
        for _ in 0..n {
            let slot = buf.get_u32_le() as usize;
            let node = buf.get_u32_le() as usize;
            let r = buf.get_u8();
            // A region byte outside the enum is an unknown discriminant, the
            // same class of violation as an unknown message tag.
            let region = *Region::ALL
                .get(r as usize)
                .ok_or(DecodeError::UnknownTag(r))?;
            members.push(RingMember { slot, node, region });
        }
        // The trust boundary for ring views: every receiver indexes its age
        // vectors by member slot after growing them to `slots`, so members
        // must be sorted by slot without repeats and below `slots`, and a
        // `slots`-long age vector must fit in one frame (a `TokenPass`
        // carries one). Every view `fixed`, `splice` and `unsplice` build
        // passes.
        let sorted = members.windows(2).all(|w| w[0].slot < w[1].slot);
        let in_range = members.last().is_none_or(|m| m.slot < slots);
        if !sorted || !in_range || slots > MAX_FRAME_LEN / 8 {
            return Err(DecodeError::BadRing);
        }
        Ok(RingView {
            epoch,
            members,
            slots,
        })
    }
}

/// Coordinates converted per `put_slice` by the [`ParamVec`] writer.
const PARAM_BLOCK: usize = 256;

/// A `u32` count, then that many `f32`s.
impl Field for ParamVec {
    fn put<B: BufMut>(&self, buf: &mut B) {
        (self.len() as u32).put(buf);
        let mut block = [[0u8; 4]; PARAM_BLOCK];
        for coords in self.as_slice().chunks(PARAM_BLOCK) {
            for (le, v) in block.iter_mut().zip(coords) {
                *le = v.to_le_bytes();
            }
            buf.put_slice(block[..coords.len()].as_flattened());
        }
    }

    fn get(buf: &mut &[u8]) -> Result<Self, DecodeError> {
        let n = u32::get(buf)? as usize;
        let (coords, _) = take(buf, n.saturating_mul(4))?.as_chunks::<4>();
        let data = coords.iter().map(|&le| f32::from_le_bytes(le)).collect();
        Ok(ParamVec::from_vec(data))
    }
}

/// Splits the next `n` bytes off `buf`, or fails without consuming any.
fn take<'a>(buf: &mut &'a [u8], n: usize) -> Result<&'a [u8], DecodeError> {
    let (head, rest) = buf.split_at_checked(n).ok_or(DecodeError::Truncated)?;
    *buf = rest;
    Ok(head)
}

/// [`take`] for a fixed-width field.
fn take_n<const N: usize>(buf: &mut &[u8]) -> Result<[u8; N], DecodeError> {
    let (head, rest) = buf.split_first_chunk().ok_or(DecodeError::Truncated)?;
    *buf = rest;
    Ok(*head)
}

#[cfg(test)]
mod tests {
    use super::*;
    use spyker_simnet::WireSize;

    fn sample_messages() -> Vec<FlMsg> {
        vec![
            FlMsg::ModelToClient {
                params: ParamVec::from_vec(vec![1.0, -2.5, 3.25]),
                age: 17.5,
                lr: 0.05,
            },
            FlMsg::ClientUpdate {
                params: ParamVec::from_vec(vec![0.0; 10]),
                age: 3.0,
                num_samples: 40,
            },
            FlMsg::ServerModel {
                params: ParamVec::from_vec(vec![f32::MIN, f32::MAX, 0.0]),
                age: 123.456,
                bid: 42,
                server_idx: 3,
            },
            FlMsg::AgeGossip {
                age: 0.0,
                server_idx: 0,
            },
            FlMsg::TokenPass(Token {
                bid: 7,
                ages: vec![1.0, 2.0, 3.0, 4.5],
            }),
            FlMsg::HierModel {
                params: ParamVec::zeros(1),
                round: 9,
                weight: 1000.0,
            },
            FlMsg::ClusterModel {
                params: ParamVec::from_vec(vec![0.5, -0.5]),
                age: 11.0,
                center: 1,
                server_idx: 2,
            },
            FlMsg::CentersToClient {
                centers: vec![ParamVec::zeros(3), ParamVec::from_vec(vec![1.0, 2.0, 3.0])],
                ages: vec![4.0, 5.0],
                lr: 0.25,
            },
            FlMsg::ClusterUpdate {
                params: ParamVec::from_vec(vec![7.0]),
                age: 2.0,
                center: 1,
                num_samples: 33,
            },
            FlMsg::JoinRequest { region: 2 },
            FlMsg::JoinAccept {
                ring: RingView::fixed(&[0, 1]).splice(5, Region::Sydney),
                params: ParamVec::from_vec(vec![1.0, -1.0]),
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
                params: ParamVec::from_vec(vec![0.25; 5]),
                age: 6.0,
                num_samples: 12,
            },
            FlMsg::ScaleUp { sponsor: 0 },
            FlMsg::ScaleDown,
            FlMsg::EncodedUpdate {
                payload: vec![0x07, 2, 0, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8],
                age: 4.0,
                num_samples: 25,
            },
        ]
    }

    fn assert_round_trip(msg: &FlMsg) {
        let frame = encode(msg);
        let back = decode(&frame).expect("decode");
        // FlMsg has no PartialEq (ParamVec NaN semantics); compare the
        // re-encoding instead.
        assert_eq!(encode(&back), frame);
    }

    #[test]
    fn all_message_kinds_round_trip() {
        for msg in sample_messages() {
            assert_round_trip(&msg);
        }
    }

    #[test]
    fn encode_into_matches_encode() {
        for msg in sample_messages() {
            let mut out = Vec::new();
            encode_into(&msg, &mut out);
            assert_eq!(out.as_slice(), encode(&msg).as_ref());
        }
    }

    #[test]
    fn encoded_size_tracks_wire_size() {
        for msg in sample_messages() {
            let frame = encode(&msg);
            let declared = msg.wire_size();
            let actual = frame.len();
            assert!(
                actual.abs_diff(declared) <= 16,
                "{msg:?}: declared {declared}, encoded {actual}"
            );
        }
    }

    #[test]
    fn truncated_frames_are_rejected_not_panicked() {
        for msg in sample_messages() {
            let frame = encode(&msg);
            for cut in 0..frame.len() {
                let partial = frame.slice(0..cut);
                match decode(&partial) {
                    Err(_) => {}
                    Ok(m) => panic!("decoded {m:?} from a {cut}-byte prefix"),
                }
            }
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        for msg in sample_messages() {
            let mut padded = encode(&msg).as_ref().to_vec();
            padded.push(0);
            assert_eq!(
                decode(&Bytes::from(padded)).unwrap_err(),
                DecodeError::TrailingBytes(1)
            );
        }
    }

    #[test]
    fn hostile_length_prefix_does_not_allocate() {
        // CentersToClient claiming u32::MAX centres off a tiny frame must
        // fail fast instead of reserving memory for 4 billion entries.
        let mut frame = vec![CENTERS_TO_CLIENT];
        frame.extend_from_slice(&u32::MAX.to_le_bytes());
        frame.extend_from_slice(&[0u8; 8]);
        assert_eq!(
            decode(&Bytes::from(frame)).unwrap_err(),
            DecodeError::Truncated
        );
    }

    #[test]
    fn hostile_ring_member_count_and_region_are_rejected() {
        // A RingUpdate claiming u32::MAX members off a short frame.
        let mut frame = vec![11]; // RingUpdate
        frame.extend_from_slice(&0u64.to_le_bytes()); // epoch
        frame.extend_from_slice(&3u64.to_le_bytes()); // slots
        frame.extend_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(
            decode(&Bytes::from(frame)).unwrap_err(),
            DecodeError::Truncated
        );
        // A valid-length member with a region byte outside the enum.
        let mut ring = RingView::fixed(&[0, 1]);
        ring.members[1].region = Region::California;
        let mut frame = encode(&FlMsg::RingUpdate { ring, bid_floor: 1 })
            .as_ref()
            .to_vec();
        let region_at = frame.len() - 8 - 1; // last member's region byte
        frame[region_at] = 200;
        assert_eq!(
            decode(&Bytes::from(frame)).unwrap_err(),
            DecodeError::UnknownTag(200)
        );
    }

    #[test]
    fn unknown_tag_is_reported() {
        // Tags 0..=17 name the 18 variants; every other byte is unknown.
        for tag in 18..=u8::MAX {
            let frame = [tag, 0, 0, 0];
            assert_eq!(decode(&frame).unwrap_err(), DecodeError::UnknownTag(tag));
        }
    }

    #[test]
    fn empty_frame_is_truncated() {
        assert_eq!(decode(&Bytes::new()).unwrap_err(), DecodeError::Truncated);
    }

    #[test]
    fn accumulator_reassembles_byte_by_byte() {
        let msgs = sample_messages();
        let mut stream = Vec::new();
        for msg in &msgs {
            frame_into(msg, &mut stream);
        }
        let mut acc = FrameAccumulator::new(MAX_FRAME_LEN);
        let mut out = Vec::new();
        for &b in &stream {
            acc.feed(&[b]);
            while let Some(frame) = acc.next_frame().expect("well-formed stream") {
                out.push(decode(&Bytes::from(frame)).expect("decode"));
            }
        }
        assert_eq!(out.len(), msgs.len());
        for (a, b) in out.iter().zip(&msgs) {
            assert_eq!(encode(a), encode(b));
        }
        assert_eq!(acc.buffered(), 0);
    }

    #[test]
    fn accumulator_rejects_oversize_length() {
        let mut acc = FrameAccumulator::new(1024);
        acc.feed(&(2048u32).to_le_bytes());
        assert!(matches!(
            acc.next_frame(),
            Err(DecodeError::Oversize {
                len: 2048,
                max: 1024
            })
        ));
    }
}
