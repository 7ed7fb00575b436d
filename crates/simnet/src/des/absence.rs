//! Crash and offline windows: the two ways a node is absent. Both void
//! the node's pending busy time, discard the inputs that were waiting for
//! it to finish, and discard every input that reaches it while absent;
//! when one ends, a node not absent for the other reason keeps its state
//! and gets one [`crate::runtime::Node::on_restart`] call. They differ
//! only in the names they are counted and reported under, one [`Row`] each.

use std::ops::ControlFlow;

use super::{EventTap, Simulation, TapKind};
use crate::runtime::{NodeId, WireSize};

/// Why a node is absent. A crash is a fault; an offline window is an
/// expected absence from the availability schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Absence {
    Crash,
    Offline,
}

/// The names one absence is counted and reported under: the counter and
/// tap kind of it beginning, of it ending and of an input it discards.
struct Row {
    begin: (&'static str, TapKind),
    end: (&'static str, TapKind),
    discard: (&'static str, TapKind),
    /// The span a node sits in while absent.
    span: &'static str,
}

/// Indexed by [`Absence`]. Where both apply, the first row's discard wins.
const ROWS: [Row; 2] = [
    Row {
        begin: ("fault.crashes", TapKind::Crash),
        end: ("fault.restarts", TapKind::Restart),
        discard: ("fault.discarded", TapKind::Discarded),
        span: "node.down",
    },
    Row {
        begin: ("sim.availability.offline", TapKind::Offline),
        end: ("sim.availability.online", TapKind::Online),
        discard: ("sim.availability.discarded", TapKind::OfflineDiscarded),
        span: "node.offline",
    },
];

impl Absence {
    fn row(self) -> &'static Row {
        &ROWS[self as usize]
    }
}

impl<M: WireSize> Simulation<M> {
    /// `node` becomes absent now: whatever it was busy with is void, and
    /// the inputs waiting for it are lost, each reported while it is absent.
    pub(super) fn leave(
        &mut self,
        absence: Absence,
        node: NodeId,
        tap: &mut dyn EventTap<M>,
    ) -> ControlFlow<()> {
        let st = &mut self.core.state[node];
        st.absent[absence as usize] = true;
        st.avail = self.core.now;
        let lost = self.core.void_queue(node);
        let (row, at) = (absence.row(), self.core.now);
        self.core.metrics.add_counter(row.begin.0, 1);
        self.core.metrics.span_enter(node as u32, row.span, at);
        self.processed(tap, node, row.begin.1)?;
        for _ in 0..lost {
            let kind = self.discard(node);
            self.processed(tap, node, kind)?;
        }
        ControlFlow::Continue(())
    }

    /// `node`'s absence ends now; a node absent for no other reason
    /// re-announces itself via `on_restart`.
    pub(super) fn back(
        &mut self,
        absence: Absence,
        node: NodeId,
        tap: &mut dyn EventTap<M>,
    ) -> ControlFlow<()> {
        let st = &mut self.core.state[node];
        st.absent[absence as usize] = false;
        let (row, at) = (absence.row(), self.core.now);
        self.core.metrics.add_counter(row.end.0, 1);
        self.core.metrics.span_exit(node as u32, row.span, at);
        if self.core.state[node].absent == [false; 2] {
            let actor = &mut self.nodes[node];
            self.core.dispatch(node, at, |env| actor.on_restart(env));
        }
        self.processed(tap, node, row.end.1)
    }

    /// An input reached absent `node` and is lost: deliveries, timers and
    /// even the start event evaporate.
    pub(super) fn discard(&mut self, node: NodeId) -> TapKind {
        // The first absence in force picks the row: a crash wins.
        let first = self.core.state[node].absent.iter().position(|&a| a);
        let (counter, kind) = ROWS[first.expect("discard at a present node")].discard;
        self.core.metrics.add_counter(counter, 1);
        kind
    }
}
