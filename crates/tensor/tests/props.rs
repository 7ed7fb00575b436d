//! Property-based tests for the tensor kernels.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use spyker_tensor::{
    col2im, coordinate_median, coordinate_trimmed_mean, cross_entropy_from_logits, im2col,
    median_inplace, softmax_rows, top_k_indices, top_k_indices_with, trimmed_mean_inplace,
    Conv2dShape, Matrix,
};

fn small_matrix(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    prop::collection::vec(-10.0f32..10.0, rows * cols)
        .prop_map(move |v| Matrix::from_vec(rows, cols, v))
}

/// Values that stress an order statistic: both NaN signs, both infinities,
/// both zeros, a subnormal, and a handful of ordinary values few enough
/// that most columns hold ties.
const SALTED: [f32; 14] = [
    f32::NAN,
    -f32::NAN,
    f32::INFINITY,
    f32::NEG_INFINITY,
    0.0,
    -0.0,
    1e-40,
    1.0,
    -1.0,
    0.1,
    0.7,
    -2.5,
    3.0e8,
    -1.0e-3,
];

/// `rows` vectors of `dim` salted values each.
fn salted_rows(rows: usize, dim: usize) -> impl Strategy<Value = Vec<Vec<f32>>> {
    prop::collection::vec(
        prop::collection::vec((0..SALTED.len()).prop_map(|i| SALTED[i]), dim),
        rows,
    )
}

/// Holds a `coordinate_*` driver to the scalar kernel applied column by
/// column, bit for bit.
fn assert_columns_match(
    rows: &[Vec<f32>],
    what: &str,
    driver: impl Fn(&[&[f32]], &mut [f32]),
    scalar: impl Fn(&mut [f32]) -> f32,
) -> Result<(), TestCaseError> {
    let refs: Vec<&[f32]> = rows.iter().map(Vec::as_slice).collect();
    let mut got = vec![0.0f32; rows[0].len()];
    driver(&refs, &mut got);
    for (j, got) in got.iter().enumerate() {
        let mut column: Vec<f32> = rows.iter().map(|row| row[j]).collect();
        let shown = column.clone();
        let want = scalar(&mut column);
        prop_assert_eq!(
            got.to_bits(),
            want.to_bits(),
            "{} of column {} {:?}: got {}, want {}",
            what,
            j,
            shown,
            got,
            want
        );
    }
    Ok(())
}

/// Every row count the network kernel takes (2..=16) and two beyond the
/// cut-over to the per-coordinate path.
fn row_counts() -> impl Iterator<Item = usize> {
    (2..=16).chain([17, 40])
}

/// The documented top-k set by brute force: every index sorted by
/// descending magnitude, ascending index on ties, the first `k` kept and
/// returned ascending.
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

/// Runs `top_k_indices_with` on the lent buffers and holds it to the
/// brute-force reference.
fn assert_top_k(values: &[f32], k: usize, keys: &mut Vec<u64>, idx: &mut Vec<u32>, what: &str) {
    top_k_indices_with(values, k, keys, idx);
    assert!(
        *idx == full_sort_head(values, k),
        "{what}: top-{k} of {} entries differs from the full sort",
        values.len()
    );
}

/// The `k` values worth pinning for an input of `n`: the extremes and the
/// codec's 1 %.
fn ks(n: usize) -> [usize; 5] {
    [1, n / 100 + 1, n / 7, n / 2, n - 1]
}

#[test]
fn top_k_finds_winners_the_sample_never_visits() {
    let (mut keys, mut idx) = (Vec::new(), Vec::new());
    for n in [300, 1024, 4133, 8192 + 37] {
        // Every large magnitude sits where the sample does not look and the
        // sampled entries are all zero: the sampled floor drops to zero.
        let hidden: Vec<f32> = (0..n)
            .map(|i| match i % 16 {
                0 => 0.0,
                r => (i as f32 * 0.37).sin() * r as f32,
            })
            .collect();
        // The sample sees only its own entries, each larger than anything
        // else, so its floor lets through n/16 < k candidates and the full
        // histogram has to be taken; the rest of the winners sit where the
        // sample never looks, tied, so the lower indices must win.
        let decoy: Vec<f32> = (0..n)
            .map(|i| match i % 16 {
                0 => -2.0,
                r if r % 3 == 0 => 1.5,
                _ => 1e-3 * (i % 97) as f32,
            })
            .collect();
        for k in ks(n) {
            assert_top_k(&hidden, k, &mut keys, &mut idx, "hidden winners");
            assert_top_k(&decoy, k, &mut keys, &mut idx, "decoy sample");
        }
        assert_top_k(&decoy, n / 16 + 1, &mut keys, &mut idx, "decoy sample");
    }
}

#[test]
fn top_k_over_all_equal_magnitudes_takes_the_lowest_indices() {
    let (mut keys, mut idx) = (Vec::new(), Vec::new());
    for n in [100, 1023, 1024, 3000 + 17] {
        let values: Vec<f32> = (0..n)
            .map(|i| if i % 2 == 0 { 1.5 } else { -1.5 })
            .collect();
        for k in ks(n) {
            top_k_indices_with(&values, k, &mut keys, &mut idx);
            assert_eq!(idx, (0..k as u32).collect::<Vec<_>>(), "k = {k} of {n}");
        }
    }
}

#[test]
fn top_k_orders_specials_like_total_cmp_on_long_inputs() {
    let (mut keys, mut idx) = (Vec::new(), Vec::new());
    for n in [1024 + 5, 5000 + 63] {
        // The salt scattered over a spread of ordinary magnitudes, so that
        // some specials are sampled and some are not.
        let values: Vec<f32> = (0..n)
            .map(|i| match (i * 7919) % 61 {
                j if j < SALTED.len() => SALTED[j],
                j => (i as f32 * 0.013).cos() * j as f32,
            })
            .collect();
        for k in ks(n) {
            assert_top_k(&values, k, &mut keys, &mut idx, "salted");
        }
    }
}

#[test]
fn top_k_buffers_survive_shrinking_and_growing_inputs() {
    let (mut keys, mut idx) = (vec![7; 3], vec![99; 5]);
    for (round, n) in [
        70_000, 1_100, 64, 1, 3_000, 1_023, 1_024, 1_025, 200, 65_536,
    ]
    .into_iter()
    .enumerate()
    {
        let values: Vec<f32> = (0..n)
            .map(|i| ((i * 31 + round * 17) as f32 * 0.01).sin() * (1 + i % 5) as f32)
            .collect();
        for k in [1, n / 100 + 1, n - 1] {
            assert_top_k(&values, k, &mut keys, &mut idx, "reused buffers");
        }
    }
}

/// Salted values, and a narrow band of near-equal magnitudes of both signs
/// that crowd into a few of the selection's buckets.
fn top_k_input(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<f32>> {
    prop::collection::vec(
        (0..SALTED.len() + 48).prop_map(|i| match SALTED.get(i) {
            Some(&v) => v,
            None => (1.0 + i as f32 * 1e-3) * if i % 2 == 0 { 1.0 } else { -1.0 },
        }),
        len,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn top_k_is_the_head_of_a_full_sort_on_long_inputs(
        // Long enough for the sample to hold a few times `k` at the codec's
        // 1 %, with every ragged 64-entry block remainder.
        values in top_k_input(900..1200),
        pick in 0usize..7,
    ) {
        let n = values.len();
        let k = [0, 1, n / 100 + 1, n / 3, n - 1, n, n + 3][pick];
        let mut idx = vec![99; 3];
        top_k_indices(&values, k, &mut idx);
        prop_assert_eq!(idx, full_sort_head(&values, k), "k = {} of {:?}", k, values);
    }
}

proptest! {
    #[test]
    fn coordinate_trimmed_mean_is_the_scalar_kernel_per_column(
        pool in (1usize..40).prop_flat_map(|dim| salted_rows(40, dim)),
    ) {
        // Every legal trim, on dims that leave a ragged lane block.
        for n in row_counts() {
            for trim in 0..=(n - 1) / 2 {
                assert_columns_match(
                    &pool[..n],
                    &format!("{n}-row trim-{trim} mean"),
                    |r, out| coordinate_trimmed_mean(r, trim, out),
                    |column| trimmed_mean_inplace(column, trim),
                )?;
            }
        }
    }

    #[test]
    fn coordinate_median_is_the_scalar_kernel_per_column(
        pool in (1usize..40).prop_flat_map(|dim| salted_rows(40, dim)),
    ) {
        for n in row_counts() {
            assert_columns_match(
                &pool[..n],
                &format!("{n}-row median"),
                coordinate_median,
                median_inplace,
            )?;
        }
    }

    #[test]
    fn top_k_is_the_head_of_a_full_sort(values in top_k_input(1..200), pick in 0usize..5) {
        let n = values.len();
        let k = [0, 1, n - 1, n, n + 3][pick];
        let mut idx = vec![99; 3];
        top_k_indices(&values, k, &mut idx);
        prop_assert_eq!(idx, full_sort_head(&values, k), "k = {} of {:?}", k, values);
    }

    #[test]
    fn matmul_identity_is_neutral(m in small_matrix(4, 4)) {
        let id = Matrix::identity(4);
        prop_assert_eq!(m.matmul(&id), m.clone());
        prop_assert_eq!(id.matmul(&m), m);
    }

    #[test]
    fn matmul_distributes_over_addition(
        a in small_matrix(3, 4),
        b in small_matrix(4, 2),
        c in small_matrix(4, 2),
    ) {
        // a(b + c) == ab + ac, within f32 tolerance.
        let mut bc = b.clone();
        bc.add_assign(&c);
        let lhs = a.matmul(&bc);
        let mut rhs = a.matmul(&b);
        rhs.add_assign(&a.matmul(&c));
        for (x, y) in lhs.as_slice().iter().zip(rhs.as_slice()) {
            prop_assert!((x - y).abs() < 1e-3, "{x} vs {y}");
        }
    }

    #[test]
    fn transpose_swaps_matmul_order(a in small_matrix(3, 4), b in small_matrix(4, 2)) {
        // (ab)^T == b^T a^T
        let lhs = a.matmul(&b).transpose();
        let rhs = b.transpose().matmul(&a.transpose());
        for (x, y) in lhs.as_slice().iter().zip(rhs.as_slice()) {
            prop_assert!((x - y).abs() < 1e-3);
        }
    }

    #[test]
    fn matmul_tn_and_nt_match_explicit_transposes(
        a in small_matrix(3, 4),
        b in small_matrix(3, 2),
        c in small_matrix(5, 4),
    ) {
        prop_assert_eq!(a.matmul_tn(&b), a.transpose().matmul(&b));
        prop_assert_eq!(a.matmul_nt(&c), a.matmul(&c.transpose()));
    }

    #[test]
    fn softmax_rows_are_distributions(m in small_matrix(5, 7)) {
        let s = softmax_rows(&m);
        for r in 0..5 {
            let row = s.row(r);
            prop_assert!(row.iter().all(|&v| (0.0..=1.0).contains(&v)));
            let sum: f32 = row.iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-4, "row {r} sums to {sum}");
        }
    }

    #[test]
    fn softmax_is_shift_invariant(m in small_matrix(2, 5), shift in -5.0f32..5.0) {
        let shifted = m.map(|v| v + shift);
        let a = softmax_rows(&m);
        let b = softmax_rows(&shifted);
        for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
            prop_assert!((x - y).abs() < 1e-4);
        }
    }

    #[test]
    fn cross_entropy_is_nonnegative(m in small_matrix(4, 6), targets in prop::collection::vec(0usize..6, 4)) {
        let (loss, grad) = cross_entropy_from_logits(&m, &targets);
        prop_assert!(loss >= 0.0);
        // Gradient rows sum to ~0 (softmax minus one-hot).
        for r in 0..4 {
            let sum: f32 = grad.row(r).iter().sum();
            prop_assert!(sum.abs() < 1e-4);
        }
    }

    #[test]
    fn im2col_col2im_adjoint_for_random_geometry(
        in_h in 3usize..7,
        in_w in 3usize..7,
        k in 2usize..4,
        pad in 0usize..2,
        seed in 0u64..100,
    ) {
        prop_assume!(in_h + 2 * pad >= k && in_w + 2 * pad >= k);
        let shape = Conv2dShape {
            in_channels: 2,
            in_h,
            in_w,
            kh: k,
            kw: k,
            stride: 1,
            pad,
        };
        // Pseudo-random but deterministic contents.
        let x: Vec<f32> = (0..shape.input_len())
            .map(|i| (((i as u64 + seed) * 2654435761 % 1000) as f32) / 500.0 - 1.0)
            .collect();
        let cols = im2col(&x, &shape);
        let rows = shape.out_h() * shape.out_w();
        let y: Vec<f32> = (0..rows * shape.patch_len())
            .map(|i| (((i as u64 * 40503 + seed) % 1000) as f32) / 500.0 - 1.0)
            .collect();
        let y = Matrix::from_vec(rows, shape.patch_len(), y);
        let lhs: f64 = cols
            .as_slice()
            .iter()
            .zip(y.as_slice())
            .map(|(a, b)| (*a as f64) * (*b as f64))
            .sum();
        let back = col2im(&y, &shape);
        let rhs: f64 = x
            .iter()
            .zip(&back)
            .map(|(a, b)| (*a as f64) * (*b as f64))
            .sum();
        prop_assert!((lhs - rhs).abs() < 1e-2, "adjoint broken: {lhs} vs {rhs}");
    }
}
