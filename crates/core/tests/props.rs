//! Property-based tests for the protocol math.

use proptest::prelude::*;
use spyker_core::codec::{decode, encode};
use spyker_core::decay::{DecayConfig, UpdateCounts};
use spyker_core::msg::FlMsg;
use spyker_core::params::ParamVec;
use spyker_core::staleness::{blended_age, server_agg_weight, ClientStaleness};
use spyker_core::token::Token;
use spyker_core::update_codec::param_hash;

fn params(n: usize) -> impl Strategy<Value = ParamVec> {
    prop::collection::vec(-100.0f32..100.0, n).prop_map(ParamVec::from_vec)
}

proptest! {
    /// `lerp_toward` with t in [0,1] stays inside the segment: every
    /// coordinate lands between the endpoints.
    #[test]
    fn lerp_stays_on_the_segment(a in params(8), b in params(8), t in 0.0f32..=1.0) {
        let mut x = a.clone();
        x.lerp_toward(&b, t);
        for ((xa, xb), xv) in a.as_slice().iter().zip(b.as_slice()).zip(x.as_slice()) {
            let (lo, hi) = if xa <= xb { (xa, xb) } else { (xb, xa) };
            prop_assert!(
                *xv >= lo - 1e-3 && *xv <= hi + 1e-3,
                "left the segment: {xv} not in [{lo}, {hi}]"
            );
        }
    }

    /// `lerp_toward` is exact at the endpoints.
    #[test]
    fn lerp_endpoints(a in params(4), b in params(4)) {
        let mut x0 = a.clone();
        x0.lerp_toward(&b, 0.0);
        prop_assert_eq!(x0.as_slice(), a.as_slice());
        let mut x1 = a.clone();
        x1.lerp_toward(&b, 1.0);
        for (v, bv) in x1.as_slice().iter().zip(b.as_slice()) {
            prop_assert!((v - bv).abs() < 1e-3);
        }
    }

    /// The weighted mean is permutation-invariant and bounded by the
    /// coordinate-wise min/max of its inputs.
    #[test]
    fn weighted_mean_is_convex_and_symmetric(
        a in params(6),
        b in params(6),
        c in params(6),
        wa in 0.1f64..10.0,
        wb in 0.1f64..10.0,
        wc in 0.1f64..10.0,
    ) {
        let m1 = ParamVec::weighted_mean(&[(&a, wa), (&b, wb), (&c, wc)]);
        let m2 = ParamVec::weighted_mean(&[(&c, wc), (&a, wa), (&b, wb)]);
        for (x, y) in m1.as_slice().iter().zip(m2.as_slice()) {
            prop_assert!((x - y).abs() < 1e-3);
        }
        for i in 0..6 {
            let vals = [a.as_slice()[i], b.as_slice()[i], c.as_slice()[i]];
            let lo = vals.iter().cloned().fold(f32::MAX, f32::min);
            let hi = vals.iter().cloned().fold(f32::MIN, f32::max);
            prop_assert!(m1.as_slice()[i] >= lo - 1e-2 && m1.as_slice()[i] <= hi + 1e-2);
        }
    }

    /// Every staleness policy yields weights in [0,1] that are
    /// non-increasing in the staleness (except the documented literal
    /// formula, which increases — asserted explicitly).
    #[test]
    fn staleness_weights_bounded_and_monotone(age in 0.0f64..10_000.0) {
        for policy in [
            ClientStaleness::InverseLinear,
            ClientStaleness::Polynomial { alpha: 0.5 },
            ClientStaleness::None,
        ] {
            let mut prev = f32::INFINITY;
            for tau in 0..50 {
                let w = policy.weight(age + tau as f64, age);
                prop_assert!((0.0..=1.0).contains(&w));
                prop_assert!(w <= prev + 1e-6, "{policy:?} increased at tau {tau}");
                prev = w;
            }
        }
        // The literal formula is non-DEcreasing in staleness: the defect.
        let literal = ClientStaleness::PaperLiteral { cap: 1.0 };
        let w0 = literal.weight(age, age);
        let w5 = literal.weight(age + 5.0, age);
        prop_assert!(w0 <= w5);
    }

    /// The server-merge sigmoid weight is in (0,1), is ½ for equal ages,
    /// and increases with the peer's age advantage.
    #[test]
    fn server_agg_weight_properties(
        phi in 0.1f32..10.0,
        age_i in 0.0f64..100_000.0,
        advantage in -1_000.0f64..1_000.0,
    ) {
        let w = server_agg_weight(phi, age_i, age_i + advantage);
        // The sigmoid saturates to exactly 0/1 in f32 for extreme age
        // gaps — the paper calls this out explicitly ("results in a
        // weight of 1 when the relative model age difference is too
        // large"), so the closed interval is the correct bound.
        prop_assert!((0.0..=1.0).contains(&w));
        let w_eq = server_agg_weight(phi, age_i, age_i);
        prop_assert!((w_eq - 0.5).abs() < 1e-6);
        if advantage > 0.0 {
            prop_assert!(w >= w_eq);
        } else if advantage < 0.0 {
            prop_assert!(w <= w_eq);
        }
    }

    /// The blended age is a convex combination: between the two input ages.
    #[test]
    fn blended_age_is_bounded(
        eta_a in 0.0f32..=1.0,
        w in 0.0f32..=1.0,
        a in 0.0f64..100_000.0,
        b in 0.0f64..100_000.0,
    ) {
        let out = blended_age(eta_a, w, a, b);
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(out >= lo - 1e-6 && out <= hi + 1e-6);
    }

    /// Decay: never exceeds the base rate, never drops below the floor,
    /// and is monotone non-increasing in the update count.
    #[test]
    fn decay_bounds_and_monotonicity(
        eta_init in 0.001f32..1.0,
        beta in 0.0001f32..0.5,
        u_mean in 0.0f64..1_000.0,
    ) {
        let cfg = DecayConfig { eta_init, eta_min: 1e-6, beta, enabled: true };
        let mut prev = f32::INFINITY;
        for u in 0..2_000u64 {
            let eta = cfg.decay(u, u_mean);
            prop_assert!(eta <= eta_init + 1e-6);
            prop_assert!(eta >= 1e-6);
            prop_assert!(eta <= prev + 1e-6);
            prev = eta;
        }
    }

    /// UpdateCounts: the mean is always total/n and within [min, max].
    #[test]
    fn update_counts_mean_is_consistent(events in prop::collection::vec(0usize..8, 0..200)) {
        let mut counts = UpdateCounts::new(8);
        for &k in &events {
            counts.record(k);
        }
        let total: u64 = counts.counts().iter().sum();
        prop_assert_eq!(total, events.len() as u64);
        let mean = counts.mean();
        prop_assert!((mean - total as f64 / 8.0).abs() < 1e-9);
        let min = *counts.counts().iter().min().unwrap() as f64;
        let max = *counts.counts().iter().max().unwrap() as f64;
        prop_assert!(mean >= min && mean <= max);
    }

    /// Token age merging is idempotent and monotone.
    #[test]
    fn token_merge_is_idempotent_and_monotone(
        ages_a in prop::collection::vec(0.0f64..1e6, 4),
        ages_b in prop::collection::vec(0.0f64..1e6, 4),
    ) {
        let mut t = Token { bid: 1, ages: ages_a.clone() };
        t.merge_ages(&ages_b);
        let after_once = t.ages.clone();
        t.merge_ages(&ages_b);
        prop_assert_eq!(&t.ages, &after_once, "merge not idempotent");
        for ((m, a), b) in after_once.iter().zip(&ages_a).zip(&ages_b) {
            prop_assert!(*m >= *a && *m >= *b);
            prop_assert!(*m == *a || *m == *b);
        }
    }

    /// Token age merging is commutative: merging A's knowledge into B
    /// yields the same age vector as merging B's into A. This is what
    /// makes the ring tolerate tokens arriving in any order after a
    /// regeneration race.
    #[test]
    fn token_merge_is_commutative(
        ages_a in prop::collection::vec(0.0f64..1e6, 4),
        ages_b in prop::collection::vec(0.0f64..1e6, 4),
    ) {
        let mut ab = Token { bid: 1, ages: ages_a.clone() };
        ab.merge_ages(&ages_b);
        let mut ba = Token { bid: 1, ages: ages_b };
        ba.merge_ages(&ages_a);
        prop_assert_eq!(ab.ages, ba.ages);
    }

    /// Merging a token with its own age vector is the identity.
    #[test]
    fn token_merge_with_self_is_identity(
        ages in prop::collection::vec(0.0f64..1e6, 1..8),
    ) {
        let mut t = Token { bid: 7, ages: ages.clone() };
        let snapshot = t.ages.clone();
        t.merge_ages(&snapshot);
        prop_assert_eq!(t.ages, ages);
    }

    /// Every staleness policy (including the literal paper formula with a
    /// convex cap, and negative staleness from out-of-order test inputs)
    /// produces a weight in [0, 1] — the aggregation step stays a convex
    /// combination no matter which policy is configured.
    #[test]
    fn staleness_weights_are_always_convex(
        server_age in -10.0f64..1e6,
        update_age in -10.0f64..1e6,
        alpha in 0.01f32..4.0,
    ) {
        for policy in [
            ClientStaleness::InverseLinear,
            ClientStaleness::Polynomial { alpha },
            ClientStaleness::PaperLiteral { cap: 1.0 },
            ClientStaleness::None,
        ] {
            let w = policy.weight(server_age, update_age);
            prop_assert!(
                (0.0..=1.0).contains(&w),
                "{policy:?} gave weight {w} for ages {server_age}/{update_age}"
            );
        }
    }

    /// Codec: encode/decode round-trips arbitrary protocol messages.
    #[test]
    fn codec_round_trips_arbitrary_messages(
        kind in 0u8..6,
        values in prop::collection::vec(-1e6f32..1e6, 0..64),
        age in 0.0f64..1e9,
        idx in 0usize..64,
        bid in 0u64..u32::MAX as u64,
        lr in 0.0f32..1.0,
        ages in prop::collection::vec(0.0f64..1e9, 1..8),
    ) {
        let params = ParamVec::from_vec(values);
        let msg = match kind {
            0 => FlMsg::ModelToClient { params, age, lr },
            1 => FlMsg::ClientUpdate { params, age, num_samples: idx },
            2 => FlMsg::ServerModel { params, age, bid, server_idx: idx },
            3 => FlMsg::AgeGossip { age, server_idx: idx },
            4 => FlMsg::TokenPass(spyker_core::token::Token { bid, ages }),
            _ => FlMsg::HierModel { params, round: bid, weight: age },
        };
        let frame = encode(&msg);
        let back = decode(&frame).expect("decode failed");
        prop_assert_eq!(encode(&back), frame);
    }
}

/// Dimensions on, and on both sides of, every power of two the storage
/// cut-over of `ParamVec` could plausibly be (the constant is private:
/// nothing outside `params.rs` may depend on which it is).
const DIMS: [usize; 17] = [
    0, 1, 8, 255, 256, 257, 1023, 1024, 1025, 2047, 2048, 2049, 4095, 4096, 4097, 8192, 8193,
];

fn tiled(seed: &[f32], n: usize) -> Vec<f32> {
    seed.iter().cycle().take(n).copied().collect()
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

proptest! {
    /// The aliasing contract: handles behave as independent values. Clone
    /// a vector, mutate one of the two handles through each mutator; the
    /// other handle is bit-unchanged and the mutated one equals the same
    /// operation on a plain `Vec<f32>`. So does a mutated handle that was
    /// never cloned. The memoised `content_hash`, taken before the
    /// mutation, is `param_hash` of each handle's values after it.
    #[test]
    fn mutating_one_handle_never_shows_through_its_clone(
        seed in prop::collection::vec(-100.0f32..100.0, 1..16),
        other_seed in prop::collection::vec(-100.0f32..100.0, 1..16),
        t in -1.0f32..2.0,
        mutate_the_clone in 0u8..2,
        target_dim in 0usize..DIMS.len(),
    ) {
        // Each mutator, and the same operation on a plain `Vec<f32>`.
        type OnParams = fn(&mut ParamVec, &ParamVec, f32, usize);
        type OnVec = fn(&mut Vec<f32>, &[f32], f32, usize);
        let mutators: [(&str, OnParams, OnVec); 5] = [
            (
                "as_mut_slice",
                |p, _, t, _| p.as_mut_slice().iter_mut().for_each(|v| *v = t - *v),
                |v, _, t, _| v.iter_mut().for_each(|v| *v = t - *v),
            ),
            (
                "lerp_toward",
                |p, o, t, _| p.lerp_toward(o, t),
                |v, o, t, _| v.iter_mut().zip(o).for_each(|(a, b)| *a += t * (b - *a)),
            ),
            (
                "axpy",
                |p, o, t, _| p.axpy(t, o),
                |v, o, t, _| v.iter_mut().zip(o).for_each(|(a, b)| *a += t * b),
            ),
            ("scale", |p, _, t, _| p.scale(t), |v, _, t, _| v.iter_mut().for_each(|v| *v *= t)),
            ("resize", |p, _, _, n| p.resize(n), |v, _, _, n| v.resize(n, 0.0)),
        ];
        let resize_to = DIMS[target_dim];
        for dim in DIMS {
            let values = tiled(&seed, dim);
            let other = tiled(&other_seed, dim);
            for (name, on_params, on_vec) in mutators {
                let mut want = values.clone();
                on_vec(&mut want, &other, t, resize_to);
                let other = ParamVec::from_vec(other.clone());
                let mut a = ParamVec::from_vec(values.clone());
                prop_assert_eq!(a.content_hash(), param_hash(&values));
                let mut b = a.clone();
                let (written, kept) = if mutate_the_clone == 1 { (&mut b, &a) } else { (&mut a, &b) };
                on_params(written, &other, t, resize_to);
                prop_assert_eq!(bits(written.as_slice()), bits(&want), "{} at dim {}", name, dim);
                prop_assert_eq!(bits(kept.as_slice()), bits(&values), "{} at dim {}", name, dim);
                prop_assert_eq!(written.content_hash(), param_hash(&want), "{} at dim {}", name, dim);
                prop_assert_eq!(kept.content_hash(), param_hash(&values), "{} at dim {}", name, dim);

                let mut unique = ParamVec::from_vec(values.clone());
                prop_assert_eq!(unique.content_hash(), param_hash(&values));
                on_params(&mut unique, &other, t, resize_to);
                prop_assert_eq!(bits(unique.as_slice()), bits(&want), "{} at dim {}", name, dim);
                prop_assert_eq!(unique.content_hash(), param_hash(&want), "{} at dim {}", name, dim);
            }
        }
    }

    /// `into_vec` returns the contents whether or not the handle is the
    /// only one, and leaves the other handle intact; of a unique handle it
    /// returns the very buffer it was built from.
    #[test]
    fn into_vec_of_unique_and_shared_handles(
        seed in prop::collection::vec(-100.0f32..100.0, 1..16),
    ) {
        for dim in DIMS {
            let values = tiled(&seed, dim);
            let buffer = values.clone();
            let at = buffer.as_ptr();
            let back = ParamVec::from_vec(buffer).into_vec();
            prop_assert_eq!(bits(&back), bits(&values));
            prop_assert!(dim == 0 || back.as_ptr() == at, "unique into_vec copied at dim {}", dim);

            let a = ParamVec::from_vec(values.clone());
            let b = a.clone();
            prop_assert_eq!(bits(&b.into_vec()), bits(&values));
            prop_assert_eq!(bits(a.as_slice()), bits(&values));
            prop_assert_eq!(bits(&a.into_vec()), bits(&values));
        }
    }

    /// `for_overwrite` is `as_mut_slice` for a writer that sets every
    /// value, as a trainer writing its model back does: the written handle
    /// ends with the bits the old path left and hashes to them, the other
    /// handle is untouched, and a handle no other shares is written in
    /// place.
    #[test]
    fn for_overwrite_writes_what_as_mut_slice_wrote(
        seed in prop::collection::vec(-100.0f32..100.0, 1..16),
        written_seed in prop::collection::vec(-100.0f32..100.0, 1..16),
    ) {
        for dim in DIMS {
            let values = tiled(&seed, dim);
            let written = tiled(&written_seed, dim);
            let mut old = ParamVec::from_vec(values.clone());
            let old_kept = old.clone();
            old.as_mut_slice().copy_from_slice(&written);

            let mut new = ParamVec::from_vec(values.clone());
            prop_assert_eq!(new.content_hash(), param_hash(&values));
            let kept = new.clone();
            new.for_overwrite().copy_from_slice(&written);
            prop_assert_eq!(bits(new.as_slice()), bits(old.as_slice()), "dim {}", dim);
            prop_assert_eq!(bits(kept.as_slice()), bits(old_kept.as_slice()), "dim {}", dim);
            prop_assert_eq!(new.content_hash(), param_hash(&written), "dim {}", dim);
            prop_assert_eq!(kept.content_hash(), param_hash(&values), "dim {}", dim);

            drop(kept);
            let at = new.as_slice().as_ptr();
            new.for_overwrite().copy_from_slice(&values);
            prop_assert!(new.as_slice().as_ptr() == at, "unique handle moved at dim {}", dim);
            prop_assert_eq!(new.content_hash(), param_hash(&values), "dim {}", dim);
        }
    }

    /// Equality is by contents, however a value came to hold them.
    #[test]
    fn equality_is_by_contents(
        seed in prop::collection::vec(-100.0f32..100.0, 1..16),
        grow_to in 0usize..DIMS.len(),
    ) {
        for dim in DIMS {
            let values = tiled(&seed, dim);
            let built = ParamVec::from_vec(values.clone());
            let cloned = built.clone();
            let mut written = ParamVec::zeros(dim);
            written.as_mut_slice().copy_from_slice(&values);
            let mut resized = built.clone();
            resized.resize(dim.max(DIMS[grow_to]));
            resized.resize(dim);
            for same in [&cloned, &written, &resized] {
                prop_assert!(&built == same, "dim {}", dim);
            }
            if dim > 0 {
                let mut differs = built.clone();
                differs.as_mut_slice()[dim - 1] += 1.0;
                prop_assert!(built != differs, "dim {}", dim);
            }
            let mut longer = built.clone();
            longer.resize(dim + 1);
            prop_assert!(built != longer, "dim {}", dim);
        }
    }
}

/// Two threads asking one shared version for its hash at once both get
/// `param_hash` of it, before and after a write through one handle.
#[test]
fn content_hash_is_one_value_across_threads() {
    for dim in DIMS {
        let values: Vec<f32> = (0..dim).map(|i| (i as f32 * 0.37).sin()).collect();
        let mut a = ParamVec::from_vec(values.clone());
        let b = a.clone();
        let both = |p: &ParamVec| {
            std::thread::scope(|s| {
                let (x, y) = (s.spawn(|| p.content_hash()), s.spawn(|| p.content_hash()));
                [
                    x.join().expect("hash thread"),
                    y.join().expect("hash thread"),
                ]
            })
        };
        assert_eq!(both(&b), [param_hash(&values); 2], "dim {dim}");
        a.as_mut_slice().iter_mut().for_each(|v| *v += 1.0);
        let written = a.as_slice().to_vec();
        assert_eq!(both(&a), [param_hash(&written); 2], "dim {dim}");
        assert_eq!(both(&b), [param_hash(&values); 2], "dim {dim}");
    }
}

/// The memo rides the shared storage, not the handle.
#[test]
fn a_handle_is_three_words() {
    assert_eq!(std::mem::size_of::<ParamVec>(), 24);
}
