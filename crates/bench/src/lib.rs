//! Shared helpers for the micro-benchmark runners in `src/bin/`:
//!
//! * `bench_smoke` — kernel, procedure-cost (the measured counterpart of
//!   paper Tab. 3) and client-step timings, with regress-only CI gates;
//! * `bench_simnet` — scheduler throughput, heap vs timer wheel.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use spyker_core::params::ParamVec;

/// A deterministic pseudo-random parameter vector of dimension `n`.
pub fn random_params(n: usize, seed: u64) -> ParamVec {
    let mut state = seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(1);
    let data = (0..n)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            ((state >> 40) as f32 / (1 << 24) as f32) - 0.5
        })
        .collect();
    ParamVec::from_vec(data)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_params_are_deterministic_and_bounded() {
        let a = random_params(100, 7);
        let b = random_params(100, 7);
        assert_eq!(a.as_slice(), b.as_slice());
        assert!(a.as_slice().iter().all(|v| v.abs() <= 0.5));
        assert!(a.l2_norm() > 0.0);
    }
}
