//! Drives an oracle suite over a run: the [`EventTap`] that re-checks every
//! oracle after every event, and the end-of-run pass. Scenario runs
//! ([`crate::harness`]) and scale runs ([`crate::scale`]) differ only in the
//! [`Deployment`] they describe.

use std::ops::ControlFlow;

use spyker_core::msg::FlMsg;
use spyker_core::update_codec::CodecConfig;
use spyker_simnet::{EventTap, Metrics, Node, NodeId, SimTime, Simulation, TapCtx, TapKind};

use crate::harness::Violation;
use crate::oracle::{EventInfo, Oracle, OracleCtx};

/// What the oracles are told about a run besides the live simulation state
/// — the run-constant fields of [`OracleCtx`].
pub(crate) struct Deployment<'a> {
    pub server_ids: Vec<NodeId>,
    pub n_clients: usize,
    pub clean: bool,
    pub byzantine_free: bool,
    pub targets: &'a [f32],
    pub codec: Option<CodecConfig>,
}

pub(crate) struct OracleDriver<'a> {
    deployment: Deployment<'a>,
    oracles: Vec<Box<dyn Oracle>>,
    budget: u64,
    /// Set by `on_deliver` when the in-flight message is a `TokenPass`;
    /// consumed by the matching `after_event`.
    pending_token_to: Option<NodeId>,
    /// Events observed so far, across all run segments.
    pub events: u64,
    /// `true` once the run was cut off at `budget` events.
    pub budget_exhausted: bool,
    /// The first oracle failure; nothing is checked after it.
    pub violation: Option<Violation>,
}

impl<'a> OracleDriver<'a> {
    pub fn new(deployment: Deployment<'a>, oracles: Vec<Box<dyn Oracle>>, budget: u64) -> Self {
        Self {
            deployment,
            oracles,
            budget,
            pending_token_to: None,
            events: 0,
            budget_exhausted: false,
            violation: None,
        }
    }

    /// One pass over the suite: `check` after an event, `at_end` without
    /// one. Records the first failure.
    fn sweep(
        &mut self,
        time: SimTime,
        nodes: &[Box<dyn Node<FlMsg>>],
        metrics: &Metrics,
        event: Option<EventInfo>,
    ) {
        let d = &self.deployment;
        let octx = OracleCtx {
            time,
            nodes,
            server_nodes: &d.server_ids,
            metrics,
            n_clients: d.n_clients,
            event,
            clean: d.clean,
            byzantine_free: d.byzantine_free,
            targets: d.targets,
            budget_exhausted: self.budget_exhausted,
            codec: d.codec,
        };
        for oracle in &mut self.oracles {
            let verdict = match event {
                Some(_) => oracle.check(&octx),
                None => oracle.at_end(&octx),
            };
            if let Err(message) = verdict {
                self.violation = Some(Violation {
                    oracle: oracle.name(),
                    message,
                    time,
                    events: self.events,
                });
                return;
            }
        }
    }

    /// The end-of-run pass (whole-run invariants: liveness, finiteness,
    /// ledger reconciliation), unless an event already failed.
    pub fn finish(&mut self, sim: &Simulation<FlMsg>) {
        if self.violation.is_none() {
            self.sweep(sim.now(), sim.nodes(), sim.metrics(), None);
        }
    }
}

impl EventTap<FlMsg> for OracleDriver<'_> {
    fn on_deliver(
        &mut self,
        _from: NodeId,
        to: NodeId,
        msg: &FlMsg,
        _ctx: &TapCtx<'_, FlMsg>,
    ) -> ControlFlow<()> {
        self.pending_token_to = matches!(msg, FlMsg::TokenPass(_)).then_some(to);
        ControlFlow::Continue(())
    }

    fn after_event(
        &mut self,
        node: NodeId,
        kind: TapKind,
        ctx: &TapCtx<'_, FlMsg>,
    ) -> ControlFlow<()> {
        self.events += 1;
        let token_delivered =
            kind == TapKind::Deliver && self.pending_token_to.take() == Some(node);
        let event = EventInfo {
            node,
            kind,
            token_delivered,
        };
        self.sweep(ctx.time(), ctx.nodes(), ctx.metrics(), Some(event));
        if self.violation.is_some() {
            return ControlFlow::Break(());
        }
        if self.events >= self.budget {
            self.budget_exhausted = true;
            return ControlFlow::Break(());
        }
        ControlFlow::Continue(())
    }
}
