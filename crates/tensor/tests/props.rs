//! Property-based tests for the tensor kernels.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use spyker_tensor::{
    col2im, coordinate_median, coordinate_trimmed_mean, cross_entropy_from_logits, im2col,
    median_inplace, softmax_rows, top_k_indices, trimmed_mean_inplace, Conv2dShape, Matrix,
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
    fn top_k_is_the_head_of_a_full_sort(
        // Salted values, and a narrow band of near-equal magnitudes of both
        // signs that crowd into a few of the selection's buckets.
        values in prop::collection::vec(
            (0..SALTED.len() + 48).prop_map(|i| match SALTED.get(i) {
                Some(&v) => v,
                None => (1.0 + i as f32 * 1e-3) * if i % 2 == 0 { 1.0 } else { -1.0 },
            }),
            1..200,
        ),
        pick in 0usize..5,
    ) {
        let n = values.len();
        let k = [0, 1, n - 1, n, n + 3][pick];
        // Reference: sort every index by descending magnitude, ascending
        // index on ties, and keep the first k.
        let mut order: Vec<u32> = (0..n as u32).collect();
        order.sort_by(|&a, &b| {
            values[b as usize]
                .abs()
                .total_cmp(&values[a as usize].abs())
                .then(a.cmp(&b))
        });
        order.truncate(k);
        order.sort_unstable();
        let mut idx = vec![99; 3];
        top_k_indices(&values, k, &mut idx);
        prop_assert_eq!(idx, order, "k = {} of {:?}", k, values);
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
