//! Ring membership: `membership`.

use super::adapter::{ServerFold, ServerSnapshot as Snap, Verdict};
use super::OracleCtx;

/// Membership stays sane across ring epochs: each server's epoch is
/// monotone non-decreasing, lifecycle phases only move along the legal
/// edges of the state machine (`standby → live` on join, `live →
/// draining → departed` on a voluntary leave, `live → standby` when an
/// evicted-but-alive server stands down, `departed → standby` on
/// recommission), and only a live member ever holds the ring token —
/// a leaver hands its token off *before* it starts draining.
#[derive(Default)]
pub(super) struct Membership;

impl ServerFold for Membership {
    const NAME: &'static str = "membership";

    fn step(&mut self, i: usize, was: Option<&Snap>, now: &Snap, _: &OracleCtx<'_>) -> Verdict {
        if now.phase != "live" && now.held {
            return Err(format!("server {i} holds the token while {}", now.phase));
        }
        let Some(was) = was else { return Ok(()) };
        if now.epoch < was.epoch {
            return Err(format!(
                "server {i}'s ring epoch decreased: {} -> {}",
                was.epoch, now.epoch
            ));
        }
        let legal = matches!(
            (was.phase, now.phase),
            ("standby", "live")
                | ("live", "draining")
                | ("live", "standby")
                | ("draining", "departed")
                | ("departed", "standby")
        );
        if was.phase != now.phase && !legal {
            return Err(format!(
                "server {i} made an illegal phase transition: {} -> {}",
                was.phase, now.phase
            ));
        }
        Ok(())
    }
}
