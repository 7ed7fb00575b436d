//! Which servers a per-event check has to read again.
//!
//! The simulator runs exactly one node's handler or transition between two
//! tap callbacks. So once a check has read every server, only the server at
//! [`EventInfo::node`](super::EventInfo::node) can differ from what that
//! check saw, and an event at any other node leaves every server as it was:
//! re-reading that one server is as strong as re-reading all of them. A
//! server mutated between events breaks that premise; whoever mutates it
//! says so through [`Oracle::servers_mutated`](super::Oracle::servers_mutated).

use std::ops::Range;

use spyker_core::server::SpykerServer;
use spyker_simnet::NodeId;

use super::OracleCtx;

/// One oracle's record of the servers it has read.
#[derive(Default)]
pub(super) struct ServerScope {
    /// The server ids of the last check that read every server; `None`
    /// before it and after [`ServerScope::invalidate`].
    walked: Option<Vec<NodeId>>,
}

impl ServerScope {
    /// The positions in [`OracleCtx::server_nodes`] this check must read:
    /// every server on the first check, outside any event, when the server
    /// set changed and after [`ServerScope::invalidate`]; otherwise the
    /// event's server, or none when the event ran at another node.
    pub(super) fn positions(&mut self, ctx: &OracleCtx<'_>) -> Range<usize> {
        match (&self.walked, ctx.event) {
            (Some(walked), Some(event)) if walked[..] == *ctx.server_nodes => {
                match ctx.server_nodes.iter().position(|&id| id == event.node) {
                    Some(i) => i..i + 1,
                    None => 0..0,
                }
            }
            _ => {
                self.walked = Some(ctx.server_nodes.to_vec());
                0..ctx.server_nodes.len()
            }
        }
    }

    /// Server state moved outside any event: the next check reads every
    /// server.
    pub(super) fn invalidate(&mut self) {
        self.walked = None;
    }
}

/// Sums over every server of `N` per-server readings, kept exact while
/// re-reading only the servers a [`ServerScope`] names.
pub(super) struct ServerSums<const N: usize> {
    pub(super) scope: ServerScope,
    /// Each server's readings at the check that last read it.
    each: Vec<[u64; N]>,
    /// Column sums of `each`, in wrapping arithmetic: a reading may go
    /// down as well as up, and the true sums fit.
    total: [u64; N],
}

impl<const N: usize> ServerSums<N> {
    pub(super) fn new() -> Self {
        Self {
            scope: ServerScope::default(),
            each: Vec::new(),
            total: [0; N],
        }
    }

    /// Re-reads the servers in scope through `read` and returns the sums
    /// over every server.
    pub(super) fn update(
        &mut self,
        ctx: &OracleCtx<'_>,
        read: impl Fn(&SpykerServer) -> [u64; N],
    ) -> [u64; N] {
        let positions = self.scope.positions(ctx);
        if positions.len() == ctx.server_nodes.len() {
            self.each.clear();
            self.each.resize(positions.len(), [0; N]);
            self.total = [0; N];
        }
        for i in positions {
            let now = read(ctx.server(i));
            let was = std::mem::replace(&mut self.each[i], now);
            for ((total, was), now) in self.total.iter_mut().zip(was).zip(now) {
                *total = total.wrapping_sub(was).wrapping_add(now);
            }
        }
        self.total
    }
}
