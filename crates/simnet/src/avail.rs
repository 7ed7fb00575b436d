//! Client availability schedules and compute-speed tiers.
//!
//! Real federated-learning populations are dominated by *availability*
//! dynamics, not crashes: devices come and go on diurnal cycles, and their
//! compute speeds span tiers (paper Tab. 3). An [`AvailabilityPlan`]
//! expresses both as first-class simulation inputs, distinct from the
//! [`crate::fault::FaultPlan`] fault machinery:
//!
//! - **Offline windows** take a node off the air for `[start, end)` of
//!   virtual time. The node's events (deliveries, timers) waiting for it
//!   or due while offline are silently discarded — it neither trains nor
//!   transmits — and at `end` it comes back with its state intact and gets
//!   a [`crate::Node::on_restart`] call. Unlike a crash, an offline window
//!   is an *expected* absence: it is scheduled up front, counted under
//!   `sim.availability.*` rather than `fault.*`, and never interacts with
//!   the fault RNG stream.
//! - **Compute multipliers** scale every [`crate::Env::busy`] charge a
//!   node takes, in thousandths: `1000` is the neutral tier, `2000` runs
//!   at half speed (busy time doubles), `500` at double speed. The
//!   multiplier is exact integer math (`micros * mul / 1000`), so the
//!   neutral tier is bit-identical to a simulation without the feature.
//!
//! An empty plan ([`AvailabilityPlan::none`]) is byte-identical to a
//! simulation without availability support — the same no-op guarantee the
//! fault plan gives.
//!
//! Counters:
//!
//! | counter | meaning |
//! |---|---|
//! | `sim.availability.offline` | offline transitions (windows opened) |
//! | `sim.availability.online` | online transitions (windows closed) |
//! | `sim.availability.discarded` | events discarded at offline nodes |

use crate::runtime::NodeId;
use crate::time::SimTime;

/// One scheduled offline window: `node` is unavailable during
/// `[start, end)` of virtual time (half-open, like
/// [`crate::fault::ConnWindow`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AvailWindow {
    /// The node the window applies to.
    pub node: NodeId,
    /// First instant the node is offline.
    pub start: SimTime,
    /// First instant the node is back online.
    pub end: SimTime,
}

/// A full availability schedule: offline windows plus per-node compute
/// multipliers. Built builder-style and attached with
/// [`crate::Simulation::with_availability`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AvailabilityPlan {
    /// Scheduled offline windows, in insertion order. Windows of the same
    /// node must not overlap (checked when the plan is attached).
    pub offline: Vec<AvailWindow>,
    /// Per-node compute-speed multipliers in thousandths (`1000` =
    /// neutral). Nodes not listed run at the neutral tier.
    pub compute: Vec<(NodeId, u64)>,
}

impl AvailabilityPlan {
    /// The empty plan — byte-identical to a simulation without
    /// availability support.
    pub fn none() -> Self {
        Self::default()
    }

    /// `true` when the plan schedules nothing and scales nothing.
    pub fn is_none(&self) -> bool {
        self.offline.is_empty() && self.compute.is_empty()
    }

    /// Schedules `node` offline during `[start, end)`.
    ///
    /// # Panics
    ///
    /// Panics if the window is empty (`end <= start`).
    pub fn offline_window(mut self, node: NodeId, start: SimTime, end: SimTime) -> Self {
        assert!(end > start, "offline window must be non-empty");
        self.offline.push(AvailWindow { node, start, end });
        self
    }

    /// Sets `node`'s compute multiplier in thousandths (`2000` = half
    /// speed, `500` = double speed).
    ///
    /// # Panics
    ///
    /// Panics if `thousandths` is zero (a node that never finishes any
    /// work is expressed with an offline window, not an infinite slowdown).
    pub fn compute_speed(mut self, node: NodeId, thousandths: u64) -> Self {
        assert!(thousandths > 0, "compute multiplier must be positive");
        self.compute.push((node, thousandths));
        self
    }

    /// `true` while `node` is inside one of its offline windows at `at`.
    pub fn offline_at(&self, node: NodeId, at: SimTime) -> bool {
        self.offline
            .iter()
            .any(|w| w.node == node && at >= w.start && at < w.end)
    }

    /// Checks that no two windows of the same node overlap (half-open
    /// intervals touching at an endpoint are fine). Returns the offending
    /// pair's node on violation.
    pub fn overlapping_node(&self) -> Option<NodeId> {
        for (i, a) in self.offline.iter().enumerate() {
            for b in &self.offline[i + 1..] {
                if a.node == b.node && a.start < b.end && b.start < a.end {
                    return Some(a.node);
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_is_none() {
        assert!(AvailabilityPlan::none().is_none());
        assert!(!AvailabilityPlan::none()
            .offline_window(0, SimTime::ZERO, SimTime::from_secs(1))
            .is_none());
        assert!(!AvailabilityPlan::none().compute_speed(0, 2000).is_none());
    }

    #[test]
    fn offline_at_respects_half_open_windows() {
        let plan = AvailabilityPlan::none().offline_window(
            3,
            SimTime::from_secs(1),
            SimTime::from_secs(2),
        );
        assert!(!plan.offline_at(3, SimTime::from_millis(999)));
        assert!(plan.offline_at(3, SimTime::from_secs(1)));
        assert!(plan.offline_at(3, SimTime::from_millis(1999)));
        assert!(!plan.offline_at(3, SimTime::from_secs(2)));
        assert!(!plan.offline_at(4, SimTime::from_millis(1500)));
    }

    #[test]
    fn overlap_detection_allows_touching_windows() {
        let ok = AvailabilityPlan::none()
            .offline_window(0, SimTime::ZERO, SimTime::from_secs(1))
            .offline_window(0, SimTime::from_secs(1), SimTime::from_secs(2))
            .offline_window(1, SimTime::ZERO, SimTime::from_secs(2));
        assert_eq!(ok.overlapping_node(), None);
        let bad = ok.offline_window(1, SimTime::from_secs(1), SimTime::from_secs(3));
        assert_eq!(bad.overlapping_node(), Some(1));
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_window_panics() {
        let _ = AvailabilityPlan::none().offline_window(0, SimTime::from_secs(1), SimTime::ZERO);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_multiplier_panics() {
        let _ = AvailabilityPlan::none().compute_speed(0, 0);
    }
}
