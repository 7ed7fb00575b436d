//! The DES adapter behind the nine server-state oracles.
//!
//! Each of those invariants is a [`ServerFold`] over readings of the
//! server fields it reads, and never touches a node, so a test can feed it
//! hand-built readings. [`PerServer`] runs a fold on simulator state and
//! alone holds the downcast to [`SpykerServer`], each server's last reading
//! and which servers a check reads again: once a check has read every
//! server, only the event's server, since the simulator runs one node
//! between two checks (DESIGN.md §11.1); every server after
//! [`Oracle::servers_mutated`], against the readings it last had.

use spyker_core::server::SpykerServer;
use spyker_simnet::NodeId;

use super::{Oracle, OracleCtx};

impl<'a> OracleCtx<'a> {
    pub(super) fn n_servers(&self) -> usize {
        self.server_nodes.len()
    }

    /// The `i`-th server actor (position in [`OracleCtx::server_nodes`]).
    ///
    /// # Panics
    ///
    /// Panics if the node at that id is not a [`SpykerServer`].
    pub fn server(&self, i: usize) -> &'a SpykerServer {
        self.nodes[self.server_nodes[i]]
            .as_any()
            .downcast_ref::<SpykerServer>()
            .expect("server node ids are SpykerServers")
    }

    /// Every server actor, in [`OracleCtx::server_nodes`] order.
    pub fn servers(&self) -> impl Iterator<Item = &'a SpykerServer> + '_ {
        (0..self.server_nodes.len()).map(move |i| self.server(i))
    }
}

/// What a fold's step or settle finds: `Err` names the violation.
pub(super) type Verdict = Result<(), String>;

/// One server-state invariant, as a fold over per-server readings.
pub(super) trait ServerFold: Default {
    /// The oracle's name in violation reports.
    const NAME: &'static str;
    /// The fields of one server that the invariant reads.
    type Reading: Default;

    /// Overwrites `reading` with `server`'s current fields, reusing any
    /// buffer it holds.
    fn read(reading: &mut Self::Reading, server: &SpykerServer);

    /// Folds in server `i`'s new reading. `was` is its reading at the
    /// check that last read it; `None` when the readings start, at the
    /// first check and after the server set changed.
    fn step(
        &mut self,
        i: usize,
        was: Option<&Self::Reading>,
        now: &Self::Reading,
        ctx: &OracleCtx<'_>,
    ) -> Verdict;

    /// Runs after the steps of every check, with every server's latest
    /// reading.
    fn settle(&mut self, _: &[Self::Reading], _: &OracleCtx<'_>) -> Verdict {
        Ok(())
    }
}

/// `read` of every server, in [`OracleCtx::server_nodes`] order: for the
/// end-of-run pass, which reads every server once.
pub(super) fn read_every<R>(ctx: &OracleCtx<'_>, read: fn(&SpykerServer) -> R) -> Vec<R> {
    ctx.servers().map(read).collect()
}

/// A [`ServerFold`] run as an [`Oracle`] on simulator state.
#[derive(Default)]
pub(super) struct PerServer<F: ServerFold> {
    pub(super) fold: F,
    /// The server ids `readings` were taken of.
    servers: Vec<NodeId>,
    /// Each server's reading at the check that last read it.
    readings: Vec<F::Reading>,
    /// The reading being taken; swapped with the server's last one, so
    /// their buffers are reused and the steady-state check allocates
    /// nothing.
    now: F::Reading,
    /// Set by [`Oracle::servers_mutated`]: the next check reads them all.
    widen: bool,
}

impl<F: ServerFold> Oracle for PerServer<F> {
    fn name(&self) -> &'static str {
        F::NAME
    }

    fn check(&mut self, ctx: &OracleCtx<'_>) -> Verdict {
        let n = ctx.n_servers();
        // The readings start at the first check and over a new server set,
        // which a fold built over other servers starts over.
        let fresh = self.servers[..] != *ctx.server_nodes;
        if fresh {
            if !self.readings.is_empty() {
                self.fold = F::default();
            }
            self.readings.clear();
            self.readings.resize_with(n, F::Reading::default);
            self.servers = ctx.server_nodes.to_vec();
        }
        let positions = match ctx.event {
            Some(event) if !fresh && !self.widen => {
                let i = ctx.server_nodes.iter().position(|&id| id == event.node);
                i.map_or(0..0, |i| i..i + 1)
            }
            _ => 0..n,
        };
        for i in positions {
            F::read(&mut self.now, ctx.server(i));
            let was = (!fresh).then_some(&self.readings[i]);
            self.fold.step(i, was, &self.now, ctx)?;
            std::mem::swap(&mut self.readings[i], &mut self.now);
        }
        self.widen = false;
        self.fold.settle(&self.readings, ctx)
    }

    fn servers_mutated(&mut self) {
        self.widen = true;
    }
}
