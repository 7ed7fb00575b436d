//! A parallel region started inside a detached pool job runs on that
//! worker alone.
//!
//! This is its own test binary so that the global pool is fresh: under a
//! budget of two threads it has exactly one worker, the one the detached
//! job occupies, and a blocked-regime product that queued a band for
//! another worker would wait for it forever.

use std::sync::mpsc;
use std::time::Duration;

use spyker_tensor::gemm::{product_in_regime, Regime};
use spyker_tensor::{pool, Matrix};

fn filled(rows: usize, cols: usize, salt: u32) -> Matrix {
    let data = (0..rows * cols)
        .map(|i| ((i as u32).wrapping_mul(2_654_435_761) ^ salt) as f32 / u32::MAX as f32 - 0.5)
        .collect();
    Matrix::from_vec(rows, cols, data)
}

#[test]
fn a_blocked_product_inside_a_pool_job_returns_the_serial_bits() {
    // Before anything reads the budget: one worker beside this thread.
    std::env::set_var("SPYKER_THREADS", "2");
    assert_eq!(pool::configured_threads(), 2);
    let (m, n, k) = (160, 150, 140);
    assert_eq!(Regime::for_shape(m, n, k), Regime::Blocked);
    let (a, b) = (filled(m, k, 1), filled(k, n, 2));
    let serial = product_in_regime(Regime::Blocked, &a, false, &b, false, 1);

    let (tx, rx) = mpsc::channel();
    pool::global().spawn(move || {
        let banded = product_in_regime(Regime::Blocked, &a, false, &b, false, 2);
        tx.send(banded).expect("the test is waiting");
    });
    let banded = rx
        .recv_timeout(Duration::from_secs(30))
        .expect("the nested region never finished: it waited for a busy worker");
    assert_eq!(banded, serial);
}
