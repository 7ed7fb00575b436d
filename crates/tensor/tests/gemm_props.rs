//! Property-based and differential tests for the GEMM engine.
//!
//! Three invariants matter:
//!
//! 1. **Accuracy** — the kernel agrees with the frozen naive reference
//!    within `1e-4` across random shapes, including degenerate ones
//!    (`1 x N`, `N x 1`) and sizes that are not multiples of any tile
//!    dimension.
//! 2. **Determinism across threads** — the parallel row-band driver is
//!    *bit-identical* to the serial kernel at every thread count, because
//!    parallelism only partitions output rows and never changes any
//!    element's accumulation order.
//! 3. **Determinism across regimes** — the in-place regime is
//!    *bit-identical* to the blocked one on every shape and every
//!    normal/transposed operand combination, so which side of the cut-over
//!    a product falls on can never move a trained parameter.
//!
//! `Matrix::axpy_tn` (the SGD step with the product written straight into
//! the weights) is held to the two-step `matmul_tn_into` + `axpy` bit for
//! bit, in both regimes and at 1, 2 and 4 threads.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use spyker_tensor::gemm::{axpy_tn_in_regime, product_in_regime, Regime};
use spyker_tensor::Matrix;

/// Deterministic pseudo-random matrix (avoids depending on an RNG here).
fn mk(rows: usize, cols: usize, seed: u64) -> Matrix {
    let data = (0..rows * cols)
        .map(|i| ((i as u64 * 2654435761 + seed * 97) % 2000) as f32 / 500.0 - 2.0)
        .collect();
    Matrix::from_vec(rows, cols, data)
}

fn assert_close(got: &Matrix, want: &Matrix) -> Result<(), TestCaseError> {
    prop_assert_eq!(got.shape(), want.shape());
    for (g, w) in got.as_slice().iter().zip(want.as_slice()) {
        prop_assert!(
            (g - w).abs() < 1e-4 * (1.0 + w.abs()),
            "blocked {g} vs naive {w}"
        );
    }
    Ok(())
}

proptest! {
    /// Random shapes spanning sub-tile, exact-tile and off-tile sizes.
    #[test]
    fn blocked_matches_naive_on_random_shapes(
        m in 1usize..40,
        k in 1usize..40,
        n in 1usize..40,
        seed in 0u64..1000,
    ) {
        let a = mk(m, k, seed);
        let b = mk(k, n, seed + 1);
        assert_close(&a.matmul(&b), &a.matmul_naive(&b))?;
    }

    /// Edge geometries: single-row and single-column operands.
    #[test]
    fn blocked_matches_naive_on_degenerate_shapes(
        k in 1usize..70,
        n in 1usize..70,
        seed in 0u64..1000,
    ) {
        // 1 x N times N x M.
        let a = mk(1, k, seed);
        let b = mk(k, n, seed + 2);
        assert_close(&a.matmul(&b), &a.matmul_naive(&b))?;
        // N x 1 times 1 x M.
        let c = mk(k, 1, seed + 3);
        let d = mk(1, n, seed + 4);
        assert_close(&c.matmul(&d), &c.matmul_naive(&d))?;
    }

    /// Sizes straddling the register tile (4x8) and cache blocks (64/256/128)
    /// by one element in each direction.
    #[test]
    fn blocked_matches_naive_beyond_tile_boundaries(
        dm in 0usize..3,
        dk in 0usize..3,
        dn in 0usize..3,
        seed in 0u64..100,
    ) {
        // 63..=65 x 255..=257 x 127..=129 crosses MC, KC and NC edges.
        let (m, k, n) = (63 + dm, 255 + dk, 127 + dn);
        let a = mk(m, k, seed);
        let b = mk(k, n, seed + 5);
        assert_close(&a.matmul(&b), &a.matmul_naive(&b))?;
    }

    /// The transpose-free tn/nt paths agree with the reference too.
    #[test]
    fn tn_and_nt_match_naive_with_explicit_transposes(
        m in 1usize..24,
        k in 1usize..24,
        n in 1usize..24,
        seed in 0u64..1000,
    ) {
        let a = mk(k, m, seed);
        let b = mk(k, n, seed + 6);
        assert_close(&a.matmul_tn(&b), &a.transpose().matmul_naive(&b))?;
        let c = mk(m, k, seed + 7);
        let d = mk(n, k, seed + 8);
        assert_close(&c.matmul_nt(&d), &c.matmul_naive(&d.transpose()))?;
    }

    /// Bit-exact equality of the parallel row-band driver against the
    /// serial blocked kernel at 1, 2 and 4 threads. This is the determinism
    /// guarantee the federated-learning reproducibility tests rely on.
    #[test]
    fn parallel_gemm_is_bit_identical_to_serial(
        m in 1usize..80,
        k in 1usize..48,
        n in 1usize..48,
        seed in 0u64..1000,
    ) {
        let a = mk(m, k, seed);
        let b = mk(k, n, seed + 9);
        let mut serial = Matrix::default();
        a.matmul_into_threads(&b, &mut serial, 1);
        for threads in [2usize, 4] {
            let mut par = Matrix::default();
            a.matmul_into_threads(&b, &mut par, threads);
            // Bit-for-bit, not approximately: compare the raw f32s exactly.
            prop_assert_eq!(par.as_slice(), serial.as_slice(),
                "thread count {} changed results for {}x{}x{}", threads, m, k, n);
        }
    }
}

/// Large-size spot check (outside proptest: one deterministic case big
/// enough that the parallel driver actually splits into multiple bands).
#[test]
fn parallel_bands_are_bit_identical_on_a_large_product() {
    let a = mk(256, 128, 42);
    let b = mk(128, 96, 43);
    let mut serial = Matrix::default();
    a.matmul_into_threads(&b, &mut serial, 1);
    for threads in [2usize, 3, 4, 8] {
        let mut par = Matrix::default();
        a.matmul_into_threads(&b, &mut par, threads);
        assert_eq!(
            par.as_slice(),
            serial.as_slice(),
            "thread count {threads} changed results"
        );
    }
}

/// Like `mk`, salted with exact `+0.0` runs (what a ReLU leaves behind),
/// `-0.0` and forced negatives, so products of every sign — `-0.0` among
/// them — enter the chains. Both regimes start each chain at `+0.0` and
/// write back `0.0 + sum`, which keeps every zero positive; a shortcut that
/// seeds a chain with its first product or skips the zeroed output shows
/// up here as a sign bit.
fn mk_salted(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut m = mk(rows, cols, seed);
    for (i, v) in m.as_mut_slice().iter_mut().enumerate() {
        match (i as u64 * 31 + seed) % 11 {
            0..=2 => *v = 0.0,
            3 => *v = -0.0,
            4 => *v = -v.abs(),
            _ => {}
        }
    }
    m
}

fn bits(m: &Matrix) -> Vec<u32> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// `op(a) · op(b)` through both regimes, for all four operand layouts,
/// compared bit for bit.
fn assert_regimes_agree(m: usize, n: usize, k: usize, seed: u64) {
    for (a_t, b_t) in [(false, false), (true, false), (false, true), (true, true)] {
        let a = if a_t {
            mk_salted(k, m, seed)
        } else {
            mk_salted(m, k, seed)
        };
        let b = if b_t {
            mk_salted(n, k, seed + 1)
        } else {
            mk_salted(k, n, seed + 1)
        };
        let in_place = product_in_regime(Regime::InPlace, &a, a_t, &b, b_t, 1);
        let blocked = product_in_regime(Regime::Blocked, &a, a_t, &b, b_t, 1);
        assert_eq!(in_place.shape(), (m, n));
        assert!(
            bits(&in_place) == bits(&blocked),
            "{m}x{n}x{k} (A transposed: {a_t}, B transposed: {b_t}): regimes disagree"
        );
    }
}

/// Every live-row count of the last band (1..=8, and 9..=17 for a full
/// band plus a ragged one) against tile-edge widths and panel-edge depths.
#[test]
fn in_place_regime_is_bit_identical_to_blocked_on_the_shape_grid() {
    for m in 1..=17 {
        for n in [1, 5, 31, 32, 33, 64, 65] {
            for k in [1, 2, 127, 128, 129, 260] {
                assert_regimes_agree(m, n, k, (m * 1000 + n * 10 + k) as u64);
            }
        }
    }
}

/// The five products of one `Mlp [192, 32, 10]` step at batch 10 (forward
/// ×2, `dW` ×2, the back-propagated delta), the `bench_smoke` squares, and
/// one shape either side of the cut-over.
#[test]
fn in_place_regime_is_bit_identical_to_blocked_on_the_training_shapes() {
    for (m, n, k) in [
        (10, 32, 192),
        (10, 10, 32),
        (32, 10, 10),
        (10, 32, 10),
        (192, 32, 10),
        (64, 64, 64),
        (128, 128, 128),
        (128, 128, 129),
    ] {
        assert_regimes_agree(m, n, k, (m + n + k) as u64);
    }
    assert_eq!(Regime::for_shape(128, 128, 128), Regime::InPlace);
    assert_eq!(Regime::for_shape(128, 128, 129), Regime::Blocked);
}

/// The shape-driven entry points land on the regime `for_shape` names, and
/// the blocked regime forced onto a small product is still band-invariant.
#[test]
fn public_products_match_the_forced_regimes() {
    for (m, n, k) in [
        (10, 32, 192),
        (128, 128, 128),
        (128, 128, 129),
        (40, 70, 800),
    ] {
        let a = mk_salted(m, k, 3);
        let b = mk_salted(k, n, 4);
        let at = a.transpose();
        let bt = b.transpose();
        for regime in [Regime::InPlace, Regime::Blocked] {
            for threads in [1, 2, 4] {
                let forced = product_in_regime(regime, &a, false, &b, false, threads);
                assert_eq!(bits(&forced), bits(&a.matmul(&b)));
                assert_eq!(bits(&forced), bits(&at.matmul_tn(&b)));
                assert_eq!(bits(&forced), bits(&a.matmul_nt(&bt)));
            }
        }
    }
}

/// Like `mk_salted`, further salted with `NaN`, `±∞` and tiny `±1e-30`
/// entries. The tiny ones fill whole columns, so where a column of `a`
/// meets one of `b`, every product of the chain underflows: under fused
/// multiply-adds the chain ends at a zero of its last product's sign, and a
/// `-0.0` there is what the two-step path's zeroed product turns into
/// `+0.0` before the axpy sees it. The rare non-finite entries poison
/// single chains, not whole products.
fn mk_hostile(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut m = mk_salted(rows, cols, seed);
    for r in 0..rows {
        for c in 0..cols {
            let v = &mut m[(r, c)];
            if (c as u64 + seed).is_multiple_of(5) {
                let negative = (r as u64 * 7 + c as u64 + seed).is_multiple_of(3);
                *v = if negative { -1e-30 } else { 1e-30 };
                continue;
            }
            match (r as u64 * 131 + c as u64 * 17 + seed) % 211 {
                0 => *v = f32::NAN,
                1 => *v = f32::INFINITY,
                2 => *v = f32::NEG_INFINITY,
                _ => {}
            }
        }
    }
    m
}

/// `w + alpha · aᵀ·b` the two-step way: the product into its own matrix,
/// then `Matrix::axpy`.
fn two_step(w: &Matrix, alpha: f32, a: &Matrix, b: &Matrix) -> Matrix {
    let mut g = Matrix::default();
    a.matmul_tn_into(b, &mut g);
    let mut want = w.clone();
    want.axpy(alpha, &g);
    want
}

/// Every `axpy_tn` route for one shape against the two-step reference, by
/// `to_bits()`, at each `alpha`: the public entry, the in-place regime and
/// the blocked one at 1, 2 and 4 threads. At `alpha = 1` it must also equal
/// the product added with `add_assign`, the accumulation the CNN uses.
fn assert_axpy_tn_matches(m: usize, n: usize, k: usize, seed: u64) {
    let a = mk_hostile(k, m, seed);
    let b = mk_hostile(k, n, seed + 1);
    let w = mk_hostile(m, n, seed + 2);
    for alpha in [-0.05f32, 1.0, 0.0, -0.0] {
        let want = bits(&two_step(&w, alpha, &a, &b));
        let what = format!("{m}x{n}x{k}, alpha {alpha}");
        let mut got = w.clone();
        got.axpy_tn(alpha, &a, &b);
        assert!(bits(&got) == want, "{what}: Matrix::axpy_tn");
        let routes = [
            (Regime::InPlace, 1),
            (Regime::Blocked, 1),
            (Regime::Blocked, 2),
            (Regime::Blocked, 4),
        ];
        for (regime, threads) in routes {
            let mut got = w.clone();
            axpy_tn_in_regime(regime, &mut got, alpha, &a, &b, threads);
            assert!(
                bits(&got) == want,
                "{what}: {regime:?} at {threads} threads"
            );
        }
        if alpha == 1.0 {
            let mut summed = w.clone();
            summed.add_assign(&a.matmul_tn(&b));
            assert!(bits(&summed) == want, "{what}: add_assign");
        }
    }
}

/// Every live-row count of the last band plus the `Mlp` layer-0 height,
/// against tile-edge widths and panel-edge depths (one panel, exactly one,
/// and two or three, where the in-place regime sums a tile's panels before
/// its one write-back).
#[test]
fn axpy_tn_is_bit_identical_to_product_then_axpy() {
    let ms = (1..=17).chain([192]);
    for m in ms {
        for n in [1, 5, 10, 31, 32, 33, 64] {
            for k in [1, 2, 10, 127, 128, 129, 260] {
                assert_axpy_tn_matches(m, n, k, (m * 1000 + n * 10 + k) as u64);
            }
        }
    }
}

/// A depth of zero adds `alpha * 0.0` to every weight, as the two-step
/// path's zeroed product does (it turns a `-0.0` weight into `+0.0`, and
/// every weight into `NaN` at an infinite `alpha`).
#[test]
fn axpy_tn_at_depth_zero_adds_a_zero_product() {
    let (a, b) = (Matrix::zeros(0, 3), Matrix::zeros(0, 4));
    let w = mk_hostile(3, 4, 9);
    for alpha in [-0.05f32, 1.0, -0.0, f32::INFINITY] {
        let mut got = w.clone();
        got.axpy_tn(alpha, &a, &b);
        assert_eq!(
            bits(&got),
            bits(&two_step(&w, alpha, &a, &b)),
            "alpha {alpha}"
        );
    }
}
