//! Runs a [`SimScenario`] under the oracle suite and fingerprints the
//! result.
//!
//! The harness attaches an [`EventTap`](spyker_simnet::EventTap) to the
//! deterministic simulation and re-checks every oracle after every event,
//! so a violation is pinned to
//! the exact event that introduced it (not merely discovered later). Runs
//! are segmented around scenario [`Injection`]s: the simulation pauses at
//! the injection time, the test-only mutation is applied through
//! [`Simulation::node_mut`], and the run resumes — event order and RNG
//! streams are unaffected, so injected runs stay bit-reproducible too.

use spyker_core::msg::FlMsg;
use spyker_core::server::SpykerServer;
use spyker_simnet::{NodeId, SimTime, Simulation};

use crate::driver::{Deployment, OracleDriver};
use crate::oracle::{default_suite, Oracle, ServerSnapshot};
use crate::scenario::{Injection, SimScenario};

/// The bid `debug_force_token` stamps on an injected token — far above any
/// bid a real run reaches, so repro files are self-describing.
const FORGED_BID: u64 = 1_000_000;

/// One oracle failure, pinned to the event that exposed it.
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    /// Name of the oracle that fired ([`Oracle::name`]).
    pub oracle: &'static str,
    /// What was observed vs expected.
    pub message: String,
    /// Virtual time of the offending event.
    pub time: SimTime,
    /// How many events had been processed when the oracle fired.
    pub events: u64,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "[{}] {} (at {}, event #{})",
            self.oracle, self.message, self.time, self.events
        )
    }
}

/// Summary of a run that passed every oracle.
#[derive(Debug, Clone, PartialEq)]
pub struct RunStats {
    /// Events processed across all run segments.
    pub events: u64,
    /// Virtual time when the run stopped.
    pub end_time: SimTime,
    /// FNV-1a digest of the full observable end state: every metric
    /// counter, then each server's snapshot taken with its model (model
    /// bits, ages, processed updates, bids, ring epoch and phase).
    /// Two invocations of the same scenario must produce the same value —
    /// this is the repo's bit-reproducibility check.
    pub fingerprint: u64,
    /// Convenience copy of the `updates.processed` counter.
    pub updates_processed: u64,
    /// `true` when the run stopped on the event budget, not the horizon.
    pub budget_exhausted: bool,
}

/// What [`run_scenario`] observed.
#[derive(Debug, Clone, PartialEq)]
pub enum RunOutcome {
    /// Every oracle held for the whole run.
    Clean(RunStats),
    /// An oracle fired; the run stopped at that event.
    Violated(Violation),
}

impl RunOutcome {
    /// `true` for [`RunOutcome::Violated`].
    pub fn is_violated(&self) -> bool {
        matches!(self, RunOutcome::Violated(_))
    }

    /// The violation, if any.
    pub fn violation(&self) -> Option<&Violation> {
        match self {
            RunOutcome::Violated(v) => Some(v),
            RunOutcome::Clean(_) => None,
        }
    }
}

/// Runs `sc` to its horizon (or until `budget_events` events) with the
/// full oracle suite attached, applying the scenario's injection (if any)
/// at its scheduled virtual time.
pub fn run_scenario(sc: &SimScenario, budget_events: u64) -> RunOutcome {
    run_with_suite(sc, budget_events, default_suite())
}

/// [`run_scenario`] under a caller-chosen suite.
pub(crate) fn run_with_suite(
    sc: &SimScenario,
    budget_events: u64,
    suite: Vec<Box<dyn Oracle>>,
) -> RunOutcome {
    let mut sim = sc.build();
    let deployment = Deployment {
        server_ids: sc.server_node_ids(),
        n_clients: sc.n_clients,
        clean: sc.fault_count() == 0 && sc.inject.is_none() && sc.avail_windows.is_empty(),
        byzantine_free: sc.faults.byzantine.is_empty(),
        targets: &sc.targets,
        codec: sc.codec,
    };
    let mut tap = OracleDriver::new(deployment, suite, budget_events);
    match &sc.inject {
        Some(Injection::DuplicateToken { at, server }) => {
            sim.run_with_tap(*at, &mut tap);
            if tap.violation.is_none() && !tap.budget_exhausted {
                sim.node_mut(*server)
                    .as_any_mut()
                    .downcast_mut::<SpykerServer>()
                    .expect("injection target is a server")
                    .debug_force_token(FORGED_BID);
                tap.servers_mutated();
                sim.run_with_tap(sc.horizon, &mut tap);
            }
        }
        None => {
            sim.run_with_tap(sc.horizon, &mut tap);
        }
    }
    tap.finish(&sim);
    if let Some(v) = tap.violation {
        return RunOutcome::Violated(v);
    }
    RunOutcome::Clean(RunStats {
        events: tap.events,
        end_time: sim.now(),
        fingerprint: fingerprint(&sim, &sc.server_node_ids(), tap.events),
        updates_processed: sim.metrics().counter("updates.processed"),
        budget_exhausted: tap.budget_exhausted,
    })
}

/// FNV-1a, the classic 64-bit variant — small, dependency-free, and more
/// than enough to detect any divergence between two runs.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }
}

/// Digests the complete observable end state of a finished run whose
/// servers are the nodes `server_ids`.
pub(crate) fn fingerprint(sim: &Simulation<FlMsg>, server_ids: &[NodeId], events: u64) -> u64 {
    let mut h = Fnv::new();
    h.write_u64(events);
    h.write_u64(sim.now().as_micros());
    // Counters iterate in BTreeMap (name) order — stable across runs.
    for (name, value) in sim.metrics().counters() {
        h.write(name.as_bytes());
        h.write_u64(value);
    }
    let mut s = ServerSnapshot::default();
    for &i in server_ids {
        let server = sim.node(i).as_any().downcast_ref::<SpykerServer>();
        s.read(server.expect("server node"), true);
        for &p in &s.model {
            h.write(&p.to_bits().to_le_bytes());
        }
        h.write_u64(s.age.to_bits());
        for &a in &s.known {
            h.write_u64(a.to_bits());
        }
        h.write_u64(s.processed);
        h.write_u64(s.highest_bid_seen);
        h.write_u64(s.bid.unwrap_or(u64::MAX));
        h.write_u64(s.epoch);
        h.write(s.phase.as_bytes());
    }
    h.0
}
