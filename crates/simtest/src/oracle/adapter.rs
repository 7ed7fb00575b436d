//! The DES adapter behind the nine server-state oracles.
//!
//! Each of those invariants is a [`ServerFold`] over [`ServerSnapshot`]s,
//! plain copies of a server's protocol state, and never touches a node, so
//! a test can feed it hand-built snapshots. [`PerServer`] runs a fold on
//! simulator state over a [`Snapshots`] store: the nine folds of
//! [`super::default_suite`] share one, which the first of them takes at
//! each check. The take alone holds the downcast to [`SpykerServer`] and
//! decides which servers a check reads again: every server at the first
//! check, then only the event's server, since the simulator runs one node
//! between two checks (DESIGN.md §11.1); every server after
//! [`Oracle::servers_mutated`], against the snapshots it last had.

use std::cell::RefCell;
use std::ops::Range;
use std::rc::Rc;

use spyker_core::server::SpykerServer;
use spyker_simnet::NodeId;

use super::ages::ModelHull;
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

/// One server's protocol state as plain data: what the server-state folds
/// and the run fingerprint read of a [`SpykerServer`], a field a getter.
#[derive(Debug, Default, Clone, PartialEq)]
pub(crate) struct ServerSnapshot {
    pub held: bool,
    /// The held token's bid.
    pub bid: Option<u64>,
    pub highest_bid_seen: u64,
    /// Models counted under the held bid (0 without one).
    pub counted: usize,
    /// Whether the server broadcast under the held bid.
    pub broadcast: bool,
    pub synchronising: bool,
    /// Ring slot, own age and knowledge of every slot's age.
    pub slot: usize,
    pub age: f64,
    pub known: Vec<f64>,
    pub epoch: u64,
    pub phase: &'static str,
    pub processed: u64,
    pub syncs: u64,
    pub aggs: u64,
    pub regenerated: u64,
    pub degraded: u64,
    pub rejected: u64,
    /// Model coordinates; empty unless read with the model.
    pub model: Vec<f32>,
}

impl ServerSnapshot {
    /// Overwrites this snapshot with `s`'s current state, reusing its
    /// buffers; copies the model only `with_model`.
    pub(crate) fn read(&mut self, s: &SpykerServer, with_model: bool) {
        self.held = s.has_token();
        self.bid = s.token_bid();
        self.highest_bid_seen = s.highest_bid_seen();
        self.counted = self.bid.map_or(0, |bid| s.models_counted(bid));
        self.broadcast = self.bid.is_some_and(|bid| s.has_broadcast(bid));
        self.synchronising = s.is_synchronising();
        self.slot = s.server_idx();
        self.age = s.age();
        self.known.clear();
        self.known.extend_from_slice(s.known_ages());
        self.epoch = s.ring_epoch();
        self.phase = s.membership_phase();
        self.processed = s.processed_updates();
        self.syncs = s.syncs_triggered();
        self.aggs = s.server_aggs();
        self.regenerated = s.tokens_regenerated();
        self.degraded = s.degraded_syncs();
        self.rejected = s.rejected_updates();
        self.model.clear();
        if with_model {
            self.model.extend_from_slice(s.params().as_slice());
        }
    }
}

/// What a fold's step or settle finds: `Err` names the violation.
pub(super) type Verdict = Result<(), String>;

/// One server-state invariant, as a fold over per-server snapshots.
pub(super) trait ServerFold: Default {
    /// The oracle's name in violation reports.
    const NAME: &'static str;

    /// Folds in server `i`'s new snapshot. `was` is its snapshot at the
    /// check that last read it; `None` at the first check.
    fn step(
        &mut self,
        i: usize,
        was: Option<&ServerSnapshot>,
        now: &ServerSnapshot,
        ctx: &OracleCtx<'_>,
    ) -> Verdict;

    /// Runs after the steps of every check, with every server's latest
    /// snapshot.
    fn settle(&mut self, _: &[ServerSnapshot], _: &OracleCtx<'_>) -> Verdict {
        Ok(())
    }
}

/// Every server's last two snapshots, shared by the folds of one suite.
#[derive(Default)]
pub(super) struct Snapshots {
    /// The run's server ids, fixed at the first take.
    servers: Option<Vec<NodeId>>,
    /// Each server's snapshot before the take that last read it.
    last: Vec<ServerSnapshot>,
    /// Each server's snapshot at the take that last read it; swapped with
    /// its last one before a read, so their buffers are reused and the
    /// steady-state take allocates nothing.
    pub(super) latest: Vec<ServerSnapshot>,
    /// The positions the latest take read.
    read: Range<usize>,
    /// The latest take was the first.
    first: bool,
    /// Set by [`Oracle::servers_mutated`]: the next take reads them all.
    widen: bool,
}

impl Snapshots {
    /// Reads again the servers whose state may have moved since the last
    /// take, keeping what each read last.
    fn take(&mut self, ctx: &OracleCtx<'_>) {
        let n = ctx.n_servers();
        self.first = self.servers.is_none();
        let servers = self.servers.get_or_insert_with(|| ctx.server_nodes.into());
        assert!(*servers == ctx.server_nodes, "a run's server set is fixed");
        self.read = match ctx.event {
            Some(event) if !self.first && !self.widen => {
                let i = ctx.server_nodes.iter().position(|&id| id == event.node);
                i.map_or(0..0, |i| i..i + 1)
            }
            _ => 0..n,
        };
        self.widen = false;
        self.last.resize_with(n, ServerSnapshot::default);
        self.latest.resize_with(n, ServerSnapshot::default);
        let with_model = ModelHull::binds(ctx);
        for i in self.read.clone() {
            std::mem::swap(&mut self.last[i], &mut self.latest[i]);
            self.latest[i].read(ctx.server(i), with_model);
        }
    }
}

/// A [`ServerFold`] run as an [`Oracle`] on simulator state.
pub(super) struct PerServer<F: ServerFold> {
    pub(super) fold: F,
    store: Rc<RefCell<Snapshots>>,
    /// Takes the store at each check, before the folds that share it.
    takes: bool,
}

impl<F: ServerFold> PerServer<F> {
    pub(super) fn new(store: &Rc<RefCell<Snapshots>>, takes: bool) -> Self {
        let (fold, store) = (F::default(), Rc::clone(store));
        Self { fold, store, takes }
    }
}

/// A fold that takes a store of its own.
impl<F: ServerFold> Default for PerServer<F> {
    fn default() -> Self {
        Self::new(&Rc::default(), true)
    }
}

impl<F: ServerFold> Oracle for PerServer<F> {
    fn name(&self) -> &'static str {
        F::NAME
    }

    fn check(&mut self, ctx: &OracleCtx<'_>) -> Verdict {
        if self.takes {
            self.store.borrow_mut().take(ctx);
        }
        let store = self.store.borrow();
        for i in store.read.clone() {
            let was = (!store.first).then_some(&store.last[i]);
            self.fold.step(i, was, &store.latest[i], ctx)?;
        }
        self.fold.settle(&store.latest, ctx)
    }

    fn servers_mutated(&mut self) {
        self.store.borrow_mut().widen = true;
    }
}
