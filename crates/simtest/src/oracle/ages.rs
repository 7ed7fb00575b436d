//! The age and model-hull oracles.

use super::adapter::{ServerFold, ServerSnapshot as Snap, Verdict};
use super::counters::Counters;
use super::OracleCtx;

/// Slack for `f64` age comparisons (ages are sums of `f32`-derived
/// weights; exact equality is still expected for the integer counters).
pub(super) const AGE_EPS: f64 = 1e-6;
/// Slack for `f32` model-coordinate hull checks (lerp rounding).
pub(super) const HULL_EPS: f32 = 1e-3;

/// A server's knowledge of *peer* ages only moves forward (entries are
/// exclusively max-merged), and every age stays finite and non-negative.
/// Two exemptions: a server's own slot (the sigmoid-weighted exchange
/// blends its live age *toward* a peer's, which may lower it), and a
/// membership transition — a join-accept replaces the whole vector with
/// the sponsor's view and a stand-down re-keys the slot, so monotonicity
/// only binds within one stable incarnation (detected as an unchanged
/// slot between snapshots).
#[derive(Default)]
pub(super) struct AgeMonotonicity;

impl ServerFold for AgeMonotonicity {
    const NAME: &'static str = "age-monotonicity";

    fn step(&mut self, i: usize, was: Option<&Snap>, now: &Snap, _: &OracleCtx<'_>) -> Verdict {
        for (j, &a) in now.known.iter().enumerate() {
            if !a.is_finite() || a < 0.0 {
                return Err(format!("server {i}'s age entry for {j} is {a}"));
            }
        }
        // Same incarnation (unchanged slot): peer entries are max-merged
        // only, so they must not have decreased.
        let Some(was) = was.filter(|was| was.slot == now.slot) else {
            return Ok(());
        };
        for (j, (pa, na)) in was.known.iter().zip(&now.known).enumerate() {
            if j != now.slot && na < pa {
                return Err(format!(
                    "server {i}'s knowledge of slot {j}'s age decreased: {pa} -> {na}"
                ));
            }
        }
        Ok(())
    }
}

/// Ages are conserved: one processed update grows exactly one server's age
/// by at most 1, and exchanges only blend ages convexly — so no age entry
/// anywhere can exceed the global count of processed updates.
///
/// The bound only rises (counters only accumulate), so a server no event
/// touched still meets it: only the event's server is re-read.
pub(super) struct AgeConservation {
    pub(super) counters: Counters<1>,
}

impl Default for AgeConservation {
    fn default() -> Self {
        Self {
            counters: Counters::new(["updates.processed"]),
        }
    }
}

impl ServerFold for AgeConservation {
    const NAME: &'static str = "age-conservation";

    fn step(&mut self, i: usize, _: Option<&Snap>, s: &Snap, ctx: &OracleCtx<'_>) -> Verdict {
        let [processed] = self.counters.read(Self::NAME, ctx.metrics)?;
        let bound = processed as f64 + AGE_EPS;
        if s.age > bound {
            return Err(format!(
                "server {i}'s age {} exceeds the {processed} updates processed globally",
                s.age,
            ));
        }
        for (j, &a) in s.known.iter().enumerate() {
            if a > bound {
                return Err(format!(
                    "server {i} believes server {j}'s age is {a}, above the \
                     {processed} updates processed globally",
                ));
            }
        }
        Ok(())
    }

    /// A counter name the registry does not know fails the first check,
    /// servers or none.
    fn settle(&mut self, _: &[Snap], ctx: &OracleCtx<'_>) -> Verdict {
        self.counters.resolve(Self::NAME, ctx.metrics).map(drop)
    }
}

/// Without Byzantine clients every update is a convex pull toward some
/// client target, and every merge (robust or not) is a convex combination
/// — so each model coordinate stays inside the hull spanned by the zero
/// initialisation and the client targets.
#[derive(Default)]
pub(super) struct ModelHull {
    /// Cached `(lo, hi)` hull bounds: the targets are fixed for the whole
    /// run, so folding over all of them (`O(n_clients)`) on every event is
    /// pure waste at 10⁵+ clients.
    hull: Option<(f32, f32)>,
}

impl ModelHull {
    /// Whether the invariant binds: no Byzantine client, targets to span
    /// the hull, and no lossy codec. A lossy codec adds bounded
    /// quantization/sparsification error on top of every honest update,
    /// and error feedback re-injects the dropped mass later — both can
    /// legitimately push a coordinate a step past the hull. The snapshots
    /// copy the model only while it binds.
    pub(super) fn binds(ctx: &OracleCtx<'_>) -> bool {
        ctx.byzantine_free && !ctx.targets.is_empty() && !ctx.codec.is_some_and(|c| c.is_lossy())
    }
}

impl ServerFold for ModelHull {
    const NAME: &'static str = "model-hull";

    fn step(&mut self, i: usize, _: Option<&Snap>, now: &Snap, ctx: &OracleCtx<'_>) -> Verdict {
        if !Self::binds(ctx) {
            return Ok(());
        }
        let (lo, hi) = *self.hull.get_or_insert_with(|| {
            (
                ctx.targets.iter().copied().fold(0.0f32, f32::min) - HULL_EPS,
                ctx.targets.iter().copied().fold(0.0f32, f32::max) + HULL_EPS,
            )
        });
        for (c, &v) in now.model.iter().enumerate() {
            if !(lo..=hi).contains(&v) {
                return Err(format!(
                    "server {i}'s model coordinate {c} is {v}, outside the honest \
                     hull [{lo}, {hi}]"
                ));
            }
        }
        Ok(())
    }
}
