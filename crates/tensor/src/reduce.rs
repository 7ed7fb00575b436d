//! Coordinate-wise robust reduction kernels (median, trimmed mean).
//!
//! Byzantine-robust aggregation over `n` candidate vectors needs, per
//! coordinate, an order statistic of `n` values. Two paths compute it, the
//! one dispatch being on the row count:
//!
//! * up to 16 rows — every streaming robust buffer — the `coordinate_*`
//!   drivers sort 16 columns at a time with a data-oblivious
//!   compare-exchange network over integer keys (DESIGN.md §10.4): no
//!   gather, no data-dependent branch, a few vector `min`/`max` per column
//!   block;
//! * above that (a whole FedAvg round) they gather one column at a time and
//!   run the scalar kernels [`median_inplace`] / [`trimmed_mean_inplace`],
//!   quickselect (`select_nth_unstable_by`) for `O(n)` expected work per
//!   coordinate.
//!
//! Both paths return the same bits for the same input; the scalar kernels
//! are the reference the differential tests hold the network against.
//!
//! Comparison uses [`f32::total_cmp`], which orders `NaN` above `+inf`:
//! `NaN`s injected by an attacker land in the upper tail, so a trimmed mean
//! with `trim >= #NaNs` and a median with `#NaNs <= (n-1)/2` stay finite
//! without any special casing.

/// Median of `values`, reordering the slice in place (quickselect).
///
/// For an even count the result is the midpoint of the two middle values.
///
/// # Panics
///
/// Panics if `values` is empty.
pub fn median_inplace(values: &mut [f32]) -> f32 {
    assert!(!values.is_empty(), "median of an empty slice");
    let n = values.len();
    let (lower, mid, _) = values.select_nth_unstable_by(n / 2, f32::total_cmp);
    let hi = *mid;
    if n % 2 == 1 {
        hi
    } else {
        // Largest element of the lower half (lower is non-empty: n >= 2).
        let lo = lower
            .iter()
            .copied()
            .max_by(f32::total_cmp)
            .expect("lower half is non-empty");
        (lo + hi) / 2.0
    }
}

/// Mean of `values` after discarding the `trim` smallest and `trim` largest
/// entries, reordering the slice in place (two quickselect partitions, no
/// full sort).
///
/// # Panics
///
/// Panics if `2 * trim >= values.len()`.
pub fn trimmed_mean_inplace(values: &mut [f32], trim: usize) -> f32 {
    let n = values.len();
    assert!(2 * trim < n, "trim {trim} discards all of {n} values");
    let kept = if trim == 0 {
        &values[..]
    } else {
        // Partition the `trim` smallest to the front...
        values.select_nth_unstable_by(trim, f32::total_cmp);
        let upper = &mut values[trim..];
        // ...and the `trim` largest (including any NaNs) to the back.
        let keep = upper.len() - trim;
        upper.select_nth_unstable_by(keep, f32::total_cmp);
        &upper[..keep]
    };
    kept.iter().sum::<f32>() / kept.len() as f32
}

/// Most rows the lane-blocked network kernel handles; above it the
/// `coordinate_*` drivers fall back to the per-coordinate quickselect path.
/// The cut-over is also the bit-compatibility boundary: up to 16 elements
/// `select_nth_unstable_by` sorts outright, so "sum the kept values in
/// ascending order" reproduces [`trimmed_mean_inplace`] exactly; above it the
/// kept values are left in a partition order only quickselect itself knows.
const NETWORK_MAX_ROWS: usize = 16;

/// Columns one block of the network kernel sorts side by side: one 512-bit
/// (two 256-bit) vector of `i32` keys per row.
const LANES: usize = 16;

/// The keys of one lane block, row-major: `keys.0[r][l]` belongs to row
/// `r`, column `block start + l`. Aligned so that a row is one cache line:
/// left to the `i32`'s own alignment the array lands wherever the stack
/// happens to be, and every vector access of a run then splits two lines
/// (measured: the same binary at 3.6 or 8 ns a parameter from one process
/// to the next).
#[repr(align(64))]
struct KeyBlock([[i32; LANES]; NETWORK_MAX_ROWS]);

/// Flips the magnitude bits of a negative float's bit pattern and leaves a
/// non-negative one alone. The sign bit survives, so the flip is its own
/// inverse.
#[inline(always)]
fn flip_negative(bits: i32) -> i32 {
    bits ^ ((bits >> 31) as u32 >> 1) as i32
}

/// Maps an `f32` to the `i32` whose signed order is [`f32::total_cmp`]:
/// with a negative float's magnitude flipped, more negative means smaller.
#[inline(always)]
fn to_key(v: f32) -> i32 {
    flip_negative(v.to_bits() as i32)
}

/// Inverse of [`to_key`].
#[inline(always)]
fn from_key(key: i32) -> f32 {
    f32::from_bits(flip_negative(key) as u32)
}

/// Batcher's odd–even merge sort for `n` wires as a list of
/// compare-exchange pairs `(lo, hi)`, `lo < hi`: running them in order
/// sorts any input ascending. The network is data-oblivious — the same
/// pairs whatever the values — which is what lets one pass sort [`LANES`]
/// columns at once.
fn sorting_network(n: usize) -> Vec<(usize, usize)> {
    let mut pairs = Vec::new();
    let mut p = 1;
    while p < n {
        let mut k = p;
        while k >= 1 {
            for j in (k % p..n.saturating_sub(k)).step_by(2 * k) {
                for i in 0..k.min(n - j - k) {
                    if (i + j) / (2 * p) == (i + j + k) / (2 * p) {
                        pairs.push((i + j, i + j + k));
                    }
                }
            }
            k /= 2;
        }
        p *= 2;
    }
    pairs
}

/// The lane-blocked driver for at most [`NETWORK_MAX_ROWS`] rows: per block
/// of [`LANES`] columns, load every row's keys, run `network` across the
/// rows with lane-wise integer `min`/`max`, and let `finish` reduce the
/// (now column-wise ascending) block to one value per lane. Every loop has
/// a compile-time lane count and no data-dependent branch, so the whole
/// block step vectorises.
fn for_each_lane_block(
    rows: &[&[f32]],
    out: &mut [f32],
    network: &[(usize, usize)],
    finish: impl Fn(&[[i32; LANES]; NETWORK_MAX_ROWS]) -> [f32; LANES],
) {
    let mut aligned = KeyBlock([[0; LANES]; NETWORK_MAX_ROWS]);
    let keys = &mut aligned.0;
    for (i, block) in out.chunks_mut(LANES).enumerate() {
        let start = i * LANES;
        for (key_row, row) in keys.iter_mut().zip(rows) {
            match <&[f32; LANES]>::try_from(&row[start..start + block.len()]) {
                Ok(lanes) => *key_row = lanes.map(to_key),
                // The ragged last block: its unused lanes hold zero keys,
                // and their results are never written.
                Err(_) => {
                    *key_row = [0; LANES];
                    for (key, &v) in key_row.iter_mut().zip(&row[start..]) {
                        *key = to_key(v);
                    }
                }
            }
        }
        for &(lo, hi) in network {
            let (x, y) = (keys[lo], keys[hi]);
            for l in 0..LANES {
                keys[lo][l] = x[l].min(y[l]);
                keys[hi][l] = x[l].max(y[l]);
            }
        }
        block.copy_from_slice(&finish(keys)[..block.len()]);
    }
}

/// Writes the coordinate-wise median of `rows` into `out`.
///
/// `rows[i]` is one candidate vector; all rows and `out` must share one
/// length. Bit-identical to [`median_inplace`] per coordinate.
///
/// # Panics
///
/// Panics if `rows` is empty or any length differs from `out.len()`.
pub fn coordinate_median(rows: &[&[f32]], out: &mut [f32]) {
    check_rows(rows, out);
    let n = rows.len();
    if n > NETWORK_MAX_ROWS {
        return for_each_coordinate(rows, out, median_inplace);
    }
    for_each_lane_block(rows, out, &sorting_network(n), |keys| {
        let hi = keys[n / 2].map(from_key);
        if n % 2 == 1 {
            return hi;
        }
        let lo = keys[n / 2 - 1].map(from_key);
        std::array::from_fn(|l| (lo[l] + hi[l]) / 2.0)
    });
}

/// Writes the coordinate-wise `trim`-trimmed mean of `rows` into `out`.
///
/// Per coordinate the `trim` smallest and `trim` largest candidate values
/// are discarded and the rest averaged. Bit-identical to
/// [`trimmed_mean_inplace`] per coordinate.
///
/// # Panics
///
/// Panics if `rows` is empty, any length differs from `out.len()`, or
/// `2 * trim >= rows.len()`.
pub fn coordinate_trimmed_mean(rows: &[&[f32]], trim: usize, out: &mut [f32]) {
    assert!(
        2 * trim < rows.len(),
        "trim {trim} discards all of {} rows",
        rows.len()
    );
    check_rows(rows, out);
    let n = rows.len();
    if n > NETWORK_MAX_ROWS {
        return for_each_coordinate(rows, out, |s| trimmed_mean_inplace(s, trim));
    }
    // An untrimmed mean sums the rows as they come: no network at all.
    let network = if trim == 0 {
        Vec::new()
    } else {
        sorting_network(n)
    };
    let kept = (n - 2 * trim) as f32;
    for_each_lane_block(rows, out, &network, |keys| {
        // `-0.0` is where `Iterator::sum` starts, and ascending is the
        // order the scalar path's kept values are left in.
        let mut sum = [-0.0f32; LANES];
        for key_row in &keys[trim..n - trim] {
            for l in 0..LANES {
                sum[l] += from_key(key_row[l]);
            }
        }
        sum.map(|s| s / kept)
    });
}

fn check_rows(rows: &[&[f32]], out: &[f32]) {
    assert!(!rows.is_empty(), "reduction over no rows");
    for (i, row) in rows.iter().enumerate() {
        assert_eq!(
            row.len(),
            out.len(),
            "row {i} length differs from the output"
        );
    }
}

/// The per-coordinate path for more than [`NETWORK_MAX_ROWS`] rows: gather
/// one column into a scratch buffer, reduce it in place.
fn for_each_coordinate(
    rows: &[&[f32]],
    out: &mut [f32],
    mut reduce: impl FnMut(&mut [f32]) -> f32,
) {
    let mut scratch = vec![0.0f32; rows.len()];
    for (j, slot) in out.iter_mut().enumerate() {
        for (s, row) in scratch.iter_mut().zip(rows) {
            *s = row[j];
        }
        *slot = reduce(&mut scratch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median_inplace(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median_inplace(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median_inplace(&mut [7.0]), 7.0);
    }

    #[test]
    fn median_matches_sort_reference_on_scrambled_data() {
        // Deterministic pseudo-random values via a linear congruence.
        let mut vals: Vec<f32> = (0..101u32)
            .map(|i| ((i.wrapping_mul(48_271) % 997) as f32) - 500.0)
            .collect();
        let mut sorted = vals.clone();
        sorted.sort_by(f32::total_cmp);
        assert_eq!(median_inplace(&mut vals), sorted[50]);
    }

    #[test]
    fn trimmed_mean_drops_both_tails() {
        // Outliers at both ends must not move the estimate.
        let mut vals = [1.0, 2.0, 3.0, -1e9, 1e9];
        assert_eq!(trimmed_mean_inplace(&mut vals, 1), 2.0);
    }

    #[test]
    fn trim_zero_is_the_plain_mean() {
        let mut vals = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(trimmed_mean_inplace(&mut vals, 0), 2.5);
    }

    #[test]
    fn nans_land_in_the_trimmed_tail() {
        // Both NaNs sort into the upper tail; trimming 2 a side keeps {3}.
        let mut vals = [f32::NAN, 1.0, 2.0, 3.0, f32::NAN];
        let m = trimmed_mean_inplace(&mut vals, 2);
        assert_eq!(m, 3.0);
        // With one NaN a side-1 trim keeps the honest middle {1, 2, 3}.
        let mut vals = [f32::NAN, 1.0, 2.0, 3.0, 0.0];
        let m = trimmed_mean_inplace(&mut vals, 1);
        assert_eq!(m, 2.0);
        let mut vals = [f32::NAN, 1.0, 2.0, 3.0, 4.0];
        assert_eq!(median_inplace(&mut vals), 3.0);
    }

    #[test]
    #[should_panic(expected = "discards all")]
    fn over_trimming_is_rejected() {
        let _ = trimmed_mean_inplace(&mut [1.0, 2.0], 1);
    }

    #[test]
    fn networks_sort_every_zero_one_input() {
        // The 0-1 principle: a comparator network that sorts every input
        // of zeros and ones sorts every input.
        for n in 1..=NETWORK_MAX_ROWS {
            let network = sorting_network(n);
            assert!(network.iter().all(|&(lo, hi)| lo < hi && hi < n));
            for pattern in 0u32..1 << n {
                let mut wires: Vec<u32> = (0..n).map(|i| pattern >> i & 1).collect();
                for &(lo, hi) in &network {
                    if wires[lo] > wires[hi] {
                        wires.swap(lo, hi);
                    }
                }
                assert!(wires.windows(2).all(|w| w[0] <= w[1]), "n = {n}");
            }
        }
    }

    #[test]
    fn keys_order_like_total_cmp_and_invert() {
        let nan = f32::NAN;
        let ladder = [
            -nan,
            f32::NEG_INFINITY,
            -1.0,
            -f32::MIN_POSITIVE,
            -0.0,
            0.0,
            1e-40,
            2.5,
            f32::INFINITY,
            nan,
        ];
        for pair in ladder.windows(2) {
            assert!(to_key(pair[0]) < to_key(pair[1]), "{pair:?}");
        }
        for v in ladder {
            assert_eq!(from_key(to_key(v)).to_bits(), v.to_bits());
        }
    }

    #[test]
    fn coordinate_median_is_per_coordinate() {
        let rows: Vec<&[f32]> = vec![&[0.0, 10.0], &[1.0, -10.0], &[2.0, 0.0]];
        let mut out = [0.0; 2];
        coordinate_median(&rows, &mut out);
        assert_eq!(out, [1.0, 0.0]);
    }

    #[test]
    fn coordinate_trimmed_mean_survives_one_adversarial_row() {
        let rows: Vec<&[f32]> = vec![&[1.0, 1.0], &[1.1, 0.9], &[0.9, 1.1], &[-1e6, f32::NAN]];
        let mut out = [0.0; 2];
        coordinate_trimmed_mean(&rows, 1, &mut out);
        assert!((out[0] - 1.0).abs() < 0.11, "got {}", out[0]);
        assert!((out[1] - 1.0).abs() < 0.11, "got {}", out[1]);
        assert!(out.iter().all(|v| v.is_finite()));
    }

    #[test]
    #[should_panic(expected = "length differs")]
    fn mismatched_rows_are_rejected() {
        let rows: Vec<&[f32]> = vec![&[1.0, 2.0], &[1.0]];
        let mut out = [0.0; 2];
        coordinate_median(&rows, &mut out);
    }
}
