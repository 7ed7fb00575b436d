//! Availability windows: `availability`.

use std::collections::BTreeSet;

use spyker_simnet::{NodeId, TapKind};

use super::counters::Counters;
use super::{Oracle, OracleCtx};

/// Availability windows are airtight: an offline node never runs a
/// handler, transitions alternate (no double-offline, no online without a
/// matching offline), discards only happen at nodes that are actually
/// offline, and the `sim.availability.*` counters agree with the
/// transition events the tap reported.
///
/// The oracle reconstructs the offline set purely from
/// [`TapKind::Offline`] / [`TapKind::Online`] events, so it is an
/// *independent* witness of the DES bookkeeping rather than a readback of
/// it.
pub(super) struct AvailabilityOracle {
    /// Nodes currently tracked offline (reconstructed from tap events).
    offline: BTreeSet<NodeId>,
    /// Offline / online / discarded transitions witnessed so far.
    pub(super) tally: [u64; 3],
    /// The `sim.availability.*` counters the tallies must equal, in tally
    /// order.
    counters: Counters<3>,
}

impl AvailabilityOracle {
    pub(super) fn new() -> Self {
        AvailabilityOracle {
            offline: BTreeSet::new(),
            tally: [0; 3],
            counters: Counters::new([
                "sim.availability.offline",
                "sim.availability.online",
                "sim.availability.discarded",
            ]),
        }
    }

    fn check_tallies(&mut self, ctx: &OracleCtx<'_>) -> Result<(), String> {
        let counted = self.counters.read("availability", ctx.metrics)?;
        for ((name, got), want) in self.counters.names.iter().zip(counted).zip(self.tally) {
            if got != want {
                return Err(format!(
                    "counter {name} is {got} but the tap reported {want} such events"
                ));
            }
        }
        Ok(())
    }

    /// Folds the event into the reconstructed offline set and tallies,
    /// flagging a transition or handler the set forbids.
    pub(super) fn witness(&mut self, ctx: &OracleCtx<'_>) -> Result<(), String> {
        let Some(e) = ctx.event else { return Ok(()) };
        match e.kind {
            TapKind::Offline => {
                if !self.offline.insert(e.node) {
                    return Err(format!(
                        "node {} went offline while already offline",
                        e.node
                    ));
                }
                self.tally[0] += 1;
            }
            TapKind::Online => {
                if !self.offline.remove(&e.node) {
                    return Err(format!(
                        "node {} came online with no matching offline transition",
                        e.node
                    ));
                }
                self.tally[1] += 1;
            }
            TapKind::OfflineDiscarded => {
                if !self.offline.contains(&e.node) {
                    return Err(format!(
                        "an event was availability-discarded at node {}, which is \
                         not offline",
                        e.node
                    ));
                }
                self.tally[2] += 1;
            }
            TapKind::Start | TapKind::Deliver | TapKind::Timer => {
                if self.offline.contains(&e.node) {
                    return Err(format!(
                        "offline node {} ran a {:?} handler",
                        e.node, e.kind
                    ));
                }
            }
            // Crash faults are orthogonal to availability: a crash or
            // restart may land inside an offline window (the DES defers
            // the restart hook to the Online edge), and crash discards
            // are the fault layer's business.
            TapKind::Crash | TapKind::Restart | TapKind::Discarded => {}
        }
        Ok(())
    }
}

impl Oracle for AvailabilityOracle {
    fn name(&self) -> &'static str {
        "availability"
    }

    fn check(&mut self, ctx: &OracleCtx<'_>) -> Result<(), String> {
        self.witness(ctx)?;
        self.check_tallies(ctx)
    }

    fn at_end(&mut self, ctx: &OracleCtx<'_>) -> Result<(), String> {
        // Nodes may legitimately end the run offline (a window crossing the
        // horizon), so only the books are re-checked here.
        self.check_tallies(ctx)
    }
}
