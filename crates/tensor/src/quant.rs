//! Lossy-compression kernels for communication-efficient model updates.
//!
//! These are the numeric primitives under `spyker-core`'s update codec:
//! magnitude top-k selection, symmetric int8/int4 quantization (nearest or
//! stochastic rounding) and 4-bit nibble packing. They are pure slice
//! functions — randomness comes in through a caller-supplied `draw`
//! closure, so the protocol layer owns seeding and the kernels stay
//! bit-deterministic under test. All `_into` variants write into
//! caller-owned buffers and never allocate once those buffers have
//! converged on their working size, matching the `Scratch` discipline of
//! the rest of the crate (DESIGN.md §10.3).

/// Writes the indices of the `k` largest-magnitude entries of `values`
/// into `idx`, ascending. Ties break toward the lower index, so selection
/// is fully deterministic even with repeated magnitudes. `k` is clamped
/// to `values.len()`; `idx` is reused without reallocating once its
/// capacity has converged.
///
/// Allocates the candidate buffer of [`top_k_indices_with`] on every call;
/// a caller on a hot path keeps one and calls that instead.
pub fn top_k_indices(values: &[f32], k: usize, idx: &mut Vec<u32>) {
    top_k_indices_with(values, k, &mut Vec::new(), idx);
}

/// The sign-less bits of an `f32`: as integers they order like
/// [`f32::total_cmp`] orders `|v|`, `NaN` above `+inf`.
const MAGNITUDE: u32 = 0x7fff_ffff;
/// [`top_k_indices_with`] buckets magnitudes by their top 12 bits — the
/// exponent and four mantissa bits, sixteen buckets to a binade.
const BUCKET_SHIFT: u32 = 19;
const BUCKETS: usize = 1 << (31 - BUCKET_SHIFT);
/// The floor estimate histograms every `STRIDE`-th entry.
const STRIDE: usize = 16;
/// Sampled entries the estimated floor covers beyond the `⌈2k / STRIDE⌉`
/// that stand for twice `k` in the whole input.
const MARGIN: usize = 8;
/// Entries the candidate gather tests into one bit mask.
const BLOCK: usize = 64;

/// [`top_k_indices`] with the selection's work buffer lent by the caller:
/// `keys` is overwritten and reused without reallocating once its capacity
/// has converged.
///
/// A magnitude floor narrows the input before anything is selected. It is
/// estimated from every `STRIDE`-th entry — the lowest histogram bucket
/// that, with the ones above it, holds `⌈2k / STRIDE⌉ + MARGIN` of the
/// sampled entries, or zero when the sample is smaller than that — and only
/// entries at or above it become candidates, a few times `k` of them. When
/// fewer than `k` clear it (the largest magnitudes sit where the sample did
/// not look), the floor is taken again from a histogram of every entry,
/// which always lets `k` through. Either floor yields the same set: any
/// floor at or below the `k`-th largest magnitude lets every winner through.
/// Candidate `i` packs to the key `(0x7fff_ffff − |bits|) << 32 | i`: a
/// larger magnitude is a smaller key and the index breaks ties, so a plain
/// integer quickselect over the keys picks the documented set with no
/// comparator callback and no indirection through `values`.
///
/// # Panics
///
/// Panics if `values` has more than `u32::MAX` entries.
pub fn top_k_indices_with(values: &[f32], k: usize, keys: &mut Vec<u64>, idx: &mut Vec<u32>) {
    assert!(
        u32::try_from(values.len()).is_ok(),
        "top-k over more than u32::MAX entries"
    );
    idx.clear();
    let k = k.min(values.len());
    if k == 0 {
        return;
    }
    if k == values.len() {
        idx.extend(0..k as u32);
        return;
    }
    keys.clear();
    let sampled = values.iter().step_by(STRIDE);
    let floor = floor_covering(sampled, (2 * k).div_ceil(STRIDE) + MARGIN);
    gather_candidates(values, floor, keys);
    if keys.len() < k {
        keys.clear();
        gather_candidates(values, floor_covering(values.iter(), k), keys);
    }
    keys.select_nth_unstable(k - 1);
    idx.extend(keys[..k].iter().map(|&key| key as u32));
    idx.sort_unstable();
}

fn magnitude(v: &f32) -> u32 {
    v.to_bits() & MAGNITUDE
}

/// The lower edge of the lowest magnitude bucket that, with the buckets
/// above it, holds at least `want` of `values` — zero when they all hold
/// fewer.
fn floor_covering<'a>(values: impl Iterator<Item = &'a f32>, want: usize) -> u32 {
    let mut counts = [0u32; BUCKETS];
    for v in values {
        counts[(magnitude(v) >> BUCKET_SHIFT) as usize] += 1;
    }
    let mut bucket = BUCKETS;
    let mut covered = 0;
    while covered < want && bucket > 0 {
        bucket -= 1;
        covered += counts[bucket] as usize;
    }
    (bucket as u32) << BUCKET_SHIFT
}

/// Appends the packed key of every entry of `values` whose magnitude is at
/// least `floor`. Each block of 64 entries is compared into one `u64` mask
/// first — a fixed-length loop with no branch, so it vectorises — and only
/// its set bits are visited, so per-entry work is done for candidates alone
/// and the one data-dependent branch is the mask walk's exit.
fn gather_candidates(values: &[f32], floor: u32, keys: &mut Vec<u64>) {
    fn mask(block: &[f32; BLOCK], floor: u32) -> u64 {
        let mut mask = 0;
        for (j, v) in block.iter().enumerate() {
            mask |= u64::from(magnitude(v) >= floor) << j;
        }
        mask
    }
    fn push_set(block: &[f32], mut mask: u64, base: usize, keys: &mut Vec<u64>) {
        while mask != 0 {
            let j = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            let rank = u64::from(MAGNITUDE - magnitude(&block[j]));
            keys.push(rank << 32 | (base + j) as u64);
        }
    }
    let (blocks, rest) = values.as_chunks::<BLOCK>();
    for (b, block) in blocks.iter().enumerate() {
        push_set(block, mask(block, floor), b * BLOCK, keys);
    }
    // The ragged tail, padded to a block; the padding's bits are cut off.
    let mut tail = [0.0; BLOCK];
    tail[..rest.len()].copy_from_slice(rest);
    let live = (1u64 << rest.len()) - 1;
    push_set(rest, mask(&tail, floor) & live, blocks.len() * BLOCK, keys);
}

/// Symmetric linear quantization of `src` onto `{-qmax, …, qmax}`.
///
/// Returns the step size `scale = max|src| / qmax`; each entry decodes as
/// `q * scale`. With `stochastic = false` values round to nearest (error
/// ≤ `scale / 2`); with `stochastic = true` each value rounds up with
/// probability equal to its fractional part (unbiased, error < `scale`),
/// drawing one uniform `[0, 1)` sample from `draw` per entry. An all-zero
/// (or empty) input returns a zero scale and all-zero codes.
pub fn quantize_into(
    src: &[f32],
    qmax: i8,
    stochastic: bool,
    draw: &mut dyn FnMut() -> f32,
    out: &mut Vec<i8>,
) -> f32 {
    assert!(qmax > 0, "quantization range must be positive");
    out.clear();
    let max_abs = src.iter().fold(0.0f32, |m, v| m.max(v.abs()));
    if max_abs == 0.0 || !max_abs.is_finite() {
        out.resize(src.len(), 0);
        return 0.0;
    }
    let scale = max_abs / f32::from(qmax);
    let lim = f32::from(qmax);
    for &v in src {
        let t = v / scale;
        let q = if stochastic {
            let f = t.floor();
            f + f32::from(draw() < t - f)
        } else {
            t.round()
        };
        out.push(q.clamp(-lim, lim) as i8);
    }
    scale
}

/// Decodes [`quantize_into`] output: `out[i] = q[i] * scale`.
pub fn dequantize_into(q: &[i8], scale: f32, out: &mut Vec<f32>) {
    out.clear();
    out.extend(q.iter().map(|&v| f32::from(v) * scale));
}

/// Packs 4-bit two's-complement codes (each in `[-8, 7]`) two per byte,
/// low nibble first. The final nibble of an odd-length input is padded
/// with zero.
pub fn pack_nibbles(q: &[i8], out: &mut Vec<u8>) {
    out.clear();
    for pair in q.chunks(2) {
        let lo = (pair[0] as u8) & 0x0f;
        let hi = (pair.get(1).copied().unwrap_or(0) as u8) & 0x0f;
        out.push(lo | (hi << 4));
    }
}

/// Unpacks `n` 4-bit codes written by [`pack_nibbles`], sign-extending
/// each nibble back to `i8`.
pub fn unpack_nibbles(bytes: &[u8], n: usize, out: &mut Vec<i8>) {
    out.clear();
    for i in 0..n {
        let b = bytes[i / 2];
        let nib = if i % 2 == 0 { b & 0x0f } else { b >> 4 };
        // Sign-extend: shift the nibble to the top of the byte and back.
        out.push(((nib << 4) as i8) >> 4);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn top_k_picks_the_largest_magnitudes() {
        let v = [0.1, -5.0, 2.0, 0.0, -2.5, 4.0];
        let mut idx = Vec::new();
        top_k_indices(&v, 3, &mut idx);
        assert_eq!(idx, vec![1, 4, 5]);
        top_k_indices(&v, 0, &mut idx);
        assert!(idx.is_empty());
        top_k_indices(&v, 99, &mut idx);
        assert_eq!(idx, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn top_k_ties_break_toward_lower_indices() {
        let v = [1.0, -1.0, 1.0, 1.0];
        let mut idx = Vec::new();
        top_k_indices(&v, 2, &mut idx);
        assert_eq!(idx, vec![0, 1]);
    }

    #[test]
    fn nearest_quantization_error_is_within_half_a_step() {
        let src: Vec<f32> = (0..100).map(|i| (i as f32 * 0.37).sin() * 3.0).collect();
        let mut q = Vec::new();
        let scale = quantize_into(&src, 127, false, &mut || 0.0, &mut q);
        let mut back = Vec::new();
        dequantize_into(&q, scale, &mut back);
        for (a, b) in src.iter().zip(&back) {
            assert!((a - b).abs() <= scale / 2.0 + 1e-7, "{a} vs {b}");
        }
    }

    #[test]
    fn stochastic_quantization_error_is_within_a_step() {
        let src: Vec<f32> = (0..100).map(|i| (i as f32 * 0.71).cos() * 2.0).collect();
        let mut state = 0.5f32;
        let mut draw = move || {
            state = (state * 997.0 + 0.123).fract();
            state
        };
        let mut q = Vec::new();
        let scale = quantize_into(&src, 127, true, &mut draw, &mut q);
        let mut back = Vec::new();
        dequantize_into(&q, scale, &mut back);
        for (a, b) in src.iter().zip(&back) {
            assert!((a - b).abs() < scale + 1e-7, "{a} vs {b}");
        }
    }

    #[test]
    fn zero_input_quantizes_to_zero_scale() {
        let mut q = Vec::new();
        let scale = quantize_into(&[0.0; 8], 7, false, &mut || 0.0, &mut q);
        assert_eq!(scale, 0.0);
        assert_eq!(q, vec![0i8; 8]);
    }

    #[test]
    fn nibble_pack_round_trips_the_q4_range() {
        let q: Vec<i8> = (-8..=7).collect();
        let mut bytes = Vec::new();
        pack_nibbles(&q, &mut bytes);
        assert_eq!(bytes.len(), 8);
        let mut back = Vec::new();
        unpack_nibbles(&bytes, q.len(), &mut back);
        assert_eq!(back, q);
        // Odd length pads cleanly.
        pack_nibbles(&q[..5], &mut bytes);
        assert_eq!(bytes.len(), 3);
        unpack_nibbles(&bytes, 5, &mut back);
        assert_eq!(back, &q[..5]);
    }
}
