//! The token and the exchange oracles.

use spyker_core::server::SpykerServer;

use super::adapter::{ServerFold, Verdict};
use super::OracleCtx;

/// What the two token oracles read of a server.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub(super) struct Token {
    pub held: bool,
    pub regenerated: u64,
    /// The held token's bid, for the report.
    pub bid: Option<u64>,
}

/// A server may only *acquire* the token through a `TokenPass` delivery,
/// a watchdog regeneration, or holding it from the start — never out of
/// thin air. This is the oracle the `debug_force_token` injection trips:
/// the forged token appears between events, so the first event after the
/// injection sees an acquisition with no qualifying cause.
#[derive(Default)]
pub(super) struct TokenConservation;

impl ServerFold for TokenConservation {
    const NAME: &'static str = "token-conservation";
    type Reading = Token;

    fn read(r: &mut Token, s: &SpykerServer) {
        r.held = s.has_token();
        r.regenerated = s.tokens_regenerated();
        r.bid = s.token_bid();
    }

    fn step(&mut self, i: usize, was: Option<&Token>, now: &Token, ctx: &OracleCtx<'_>) -> Verdict {
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
    type Reading = Token;

    fn read(r: &mut Token, s: &SpykerServer) {
        TokenConservation::read(r, s);
    }

    fn step(&mut self, _: usize, was: Option<&Token>, now: &Token, _: &OracleCtx<'_>) -> Verdict {
        let was = was.copied().unwrap_or_default();
        self.holders = self.holders - u64::from(was.held) + u64::from(now.held);
        self.regenerated = self.regenerated - was.regenerated + now.regenerated;
        Ok(())
    }

    fn settle(&mut self, readings: &[Token], _: &OracleCtx<'_>) -> Verdict {
        let (n_holders, regenerated) = (self.holders, self.regenerated);
        if n_holders > 1 + regenerated {
            let holders: Vec<usize> = (0..readings.len()).filter(|&i| readings[i].held).collect();
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
    type Reading = u64;

    fn read(r: &mut u64, s: &SpykerServer) {
        *r = s.highest_bid_seen();
    }

    fn step(&mut self, i: usize, was: Option<&u64>, &now: &u64, _: &OracleCtx<'_>) -> Verdict {
        match was {
            Some(&p) if now < p => Err(format!(
                "server {i}'s highest_bid_seen decreased: {p} -> {now}"
            )),
            _ => Ok(()),
        }
    }
}

/// What `exchange-ledger` reads of a server: the held bid and its ledger
/// entries.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub(super) struct Ledger {
    pub bid: Option<u64>,
    pub highest_bid_seen: u64,
    /// Models counted under the held bid (0 without one).
    pub counted: usize,
    /// Whether the server broadcast under the held bid.
    pub broadcast: bool,
    pub synchronising: bool,
}

/// The exchange ledger stays coherent: a synchronising server holds the
/// token and has broadcast under its bid, a held bid never exceeds the
/// highest bid seen, and no exchange collects more models than there are
/// servers.
#[derive(Default)]
pub(super) struct ExchangeLedger;

impl ServerFold for ExchangeLedger {
    const NAME: &'static str = "exchange-ledger";
    type Reading = Ledger;

    fn read(r: &mut Ledger, s: &SpykerServer) {
        r.bid = s.token_bid();
        r.highest_bid_seen = s.highest_bid_seen();
        r.counted = r.bid.map_or(0, |bid| s.models_counted(bid));
        r.broadcast = r.bid.is_some_and(|bid| s.has_broadcast(bid));
        r.synchronising = s.is_synchronising();
    }

    fn step(&mut self, i: usize, _: Option<&Ledger>, s: &Ledger, ctx: &OracleCtx<'_>) -> Verdict {
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
