//! The clock and progress: `virtual-clock` and `liveness`.

use spyker_simnet::SimTime;

use super::counters::Counters;
use super::{Oracle, OracleCtx};

/// Virtual time is monotone: the DES must never hand events out of order.
#[derive(Default)]
pub(super) struct VirtualClockOracle {
    pub(super) last: SimTime,
}

impl Oracle for VirtualClockOracle {
    fn name(&self) -> &'static str {
        "virtual-clock"
    }

    fn check(&mut self, ctx: &OracleCtx<'_>) -> Result<(), String> {
        if ctx.time < self.last {
            return Err(format!(
                "virtual clock went backwards: {} after {}",
                ctx.time, self.last
            ));
        }
        self.last = ctx.time;
        Ok(())
    }
}

/// End-of-run sanity for clean scenarios: the system made progress, no
/// update was rejected (nothing dishonest ran), models and ages are
/// consistent with the work done, and no more updates are in flight than
/// clients exist to have sent them.
pub(super) struct LivenessOracle {
    pub(super) counters: Counters<3>,
}

impl LivenessOracle {
    pub(super) fn new() -> Self {
        Self {
            counters: Counters::new(["updates.sent", "updates.processed", "agg.rejected"]),
        }
    }
}

impl Oracle for LivenessOracle {
    fn name(&self) -> &'static str {
        "liveness"
    }

    fn check(&mut self, ctx: &OracleCtx<'_>) -> Result<(), String> {
        // Nothing to check mid-run, but a counter name the registry does
        // not know should fail the first event, not the end of a long run.
        self.counters.resolve(self.name(), ctx.metrics).map(drop)
    }

    fn at_end(&mut self, ctx: &OracleCtx<'_>) -> Result<(), String> {
        for (i, s) in ctx.servers().enumerate() {
            let (processed, age) = (s.processed_updates(), s.age());
            if !s.params().is_finite() {
                return Err(format!("server {i} ended with a non-finite model"));
            }
            if processed > 0 && age <= 0.0 {
                return Err(format!(
                    "server {i} processed {processed} updates but its age is {age}"
                ));
            }
        }
        if !ctx.clean {
            return Ok(());
        }
        let [sent, processed, rejected] = self.counters.read(self.name(), ctx.metrics)?;
        if rejected != 0 {
            return Err(format!("a clean run rejected {rejected} updates"));
        }
        if sent < processed {
            return Err(format!(
                "{processed} updates processed but only {sent} were ever sent"
            ));
        }
        // Each client has at most one update in flight at a time.
        if sent - processed > ctx.n_clients as u64 {
            return Err(format!(
                "{} updates lost in a clean run ({sent} sent, {processed} processed, \
                 {} clients)",
                sent - processed,
                ctx.n_clients
            ));
        }
        if !ctx.budget_exhausted && processed == 0 {
            return Err("a clean full-horizon run processed zero updates".to_string());
        }
        Ok(())
    }
}
