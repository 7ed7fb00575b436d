//! The token and the exchange oracles.

use super::adapter::{ServerFold, ServerSnapshot as Snap, Verdict};
use super::OracleCtx;

/// A server may only *acquire* the token through a `TokenPass` delivery,
/// a watchdog regeneration, or holding it from the start — never out of
/// thin air. This is the oracle the `debug_force_token` injection trips:
/// the forged token appears between events, so the first event after the
/// injection sees an acquisition with no qualifying cause.
#[derive(Default)]
pub(super) struct TokenConservation;

impl ServerFold for TokenConservation {
    const NAME: &'static str = "token-conservation";

    fn step(&mut self, i: usize, was: Option<&Snap>, now: &Snap, ctx: &OracleCtx<'_>) -> Verdict {
        let Some(was) = was else { return Ok(()) };
        if now.held && !was.held {
            let caused_by_pass = ctx
                .event
                .is_some_and(|e| e.token_delivered && e.node == ctx.server_nodes[i]);
            let caused_by_regen = now.regenerated > was.regenerated;
            if !caused_by_pass && !caused_by_regen {
                return Err(format!(
                    "server {i} acquired a token (bid {:?}) without a TokenPass \
                     delivery or a regeneration",
                    now.bid
                ));
            }
        }
        Ok(())
    }
}

/// At most one live token per regeneration epoch: the number of
/// simultaneous holders never exceeds `1 + Σ tokens_regenerated` (each
/// regeneration can at worst coexist with one stale token until the stale
/// copy is dropped). Both sides are running sums over the servers.
#[derive(Default)]
pub(super) struct TokenUniqueness {
    holders: u64,
    regenerated: u64,
}

impl ServerFold for TokenUniqueness {
    const NAME: &'static str = "token-uniqueness";

    fn step(&mut self, _: usize, was: Option<&Snap>, now: &Snap, _: &OracleCtx<'_>) -> Verdict {
        let (held, regenerated) = was.map_or((false, 0), |was| (was.held, was.regenerated));
        self.holders = self.holders - u64::from(held) + u64::from(now.held);
        self.regenerated = self.regenerated - regenerated + now.regenerated;
        Ok(())
    }

    fn settle(&mut self, snapshots: &[Snap], _: &OracleCtx<'_>) -> Verdict {
        let (n_holders, regenerated) = (self.holders, self.regenerated);
        if n_holders > 1 + regenerated {
            let holders: Vec<usize> = (0..snapshots.len())
                .filter(|&i| snapshots[i].held)
                .collect();
            return Err(format!(
                "{n_holders} servers hold a token simultaneously ({holders:?}) with only \
                 {regenerated} regenerations"
            ));
        }
        Ok(())
    }
}

/// Each server's `highest_bid_seen` is monotone non-decreasing.
#[derive(Default)]
pub(super) struct BidMonotonicity;

impl ServerFold for BidMonotonicity {
    const NAME: &'static str = "bid-monotonicity";

    fn step(&mut self, i: usize, was: Option<&Snap>, now: &Snap, _: &OracleCtx<'_>) -> Verdict {
        let now = now.highest_bid_seen;
        match was.map(|was| was.highest_bid_seen) {
            Some(p) if now < p => Err(format!(
                "server {i}'s highest_bid_seen decreased: {p} -> {now}"
            )),
            _ => Ok(()),
        }
    }
}

/// The exchange ledger stays coherent: a synchronising server holds the
/// token and has broadcast under its bid, a held bid never exceeds the
/// highest bid seen, and no exchange collects more models than there are
/// servers.
#[derive(Default)]
pub(super) struct ExchangeLedger;

impl ServerFold for ExchangeLedger {
    const NAME: &'static str = "exchange-ledger";

    fn step(&mut self, i: usize, _: Option<&Snap>, s: &Snap, ctx: &OracleCtx<'_>) -> Verdict {
        let n = ctx.n_servers();
        if s.bid.is_none() && s.synchronising {
            return Err(format!(
                "server {i} is synchronising without holding the token"
            ));
        }
        let Some(bid) = s.bid else { return Ok(()) };
        if bid > s.highest_bid_seen {
            return Err(format!(
                "server {i} holds bid {bid} above its highest_bid_seen {}",
                s.highest_bid_seen
            ));
        }
        if s.counted > n {
            return Err(format!(
                "server {i} counted {} models for bid {bid} in a ring of {n}",
                s.counted
            ));
        }
        if s.synchronising && !s.broadcast {
            return Err(format!(
                "server {i} is synchronising under bid {bid} without having \
                 broadcast its model"
            ));
        }
        Ok(())
    }
}
