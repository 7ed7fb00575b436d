//! Seed-reproducible random scenarios and their RON serialization.
//!
//! A [`SimScenario`] is the *complete* description of one simulation run:
//! topology, latency model, protocol knobs, client targets/delays, the
//! fault schedule, and an optional test-only violation injection. It is a
//! plain data struct so the shrinker can mutate it field by field, and it
//! round-trips through RON by one field table (see [`crate::ron`]) —
//! `repro_<seed>.ron` files are self-contained and replayable.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use spyker_core::agg::AggregationStrategy;
use spyker_core::agg::ValidationConfig;
use spyker_core::config::{RecoveryConfig, SpykerConfig};
use spyker_core::deploy::{
    elastic_spyker_deployment, even_assignment, spyker_deployment_assigned, ElasticSpec,
    SpykerDeploymentSpec,
};
use spyker_core::membership::MembershipConfig;
use spyker_core::msg::FlMsg;
use spyker_core::params::ParamVec;
use spyker_core::training::{LocalTrainer, MeanTargetTrainer};
use spyker_core::update_codec::{CodecConfig, QuantBits, Rounding};
use spyker_simnet::fault::{
    ByzantineAttack, ByzantineClient, ConnWindow, CrashEvent, PartitionWindow, ScriptedDrop,
};
use spyker_simnet::{
    AvailWindow, AvailabilityPlan, FaultPlan, NetworkConfig, NodeId, Region, SimTime, Simulation,
};

use crate::ron::{self, ron_enum, ron_record, ron_tuple, Ron, Value};

/// A deliberate, test-only invariant violation injected mid-run.
///
/// Injections are part of the scenario so a shrunk reproducer still
/// reproduces: the harness replays them at the same virtual time on every
/// run. They exist to prove the oracles *catch* what they claim to catch —
/// never to model real behaviour.
#[derive(Debug, Clone, PartialEq)]
pub enum Injection {
    /// At virtual time `at`, hand server `server` a forged token (via
    /// `SpykerServer::debug_force_token`), duplicating the ring token.
    DuplicateToken {
        /// When to inject.
        at: SimTime,
        /// Which server (ring index) receives the forged token.
        server: usize,
    },
}

/// One fully-specified randomized scenario, generated from a single seed.
#[derive(Debug, Clone, PartialEq)]
pub struct SimScenario {
    /// The generating seed (also seeds the simulation's jitter/fault RNGs).
    pub seed: u64,
    /// Number of Spyker servers (node ids `0..n_servers`).
    pub n_servers: usize,
    /// Number of clients (node ids `n_servers..n_servers + n_clients`).
    pub n_clients: usize,
    /// Model dimension of the linear (mean-target) task.
    pub dim: usize,
    /// Virtual-time budget of the run.
    pub horizon: SimTime,
    /// `Some(ms)` for a uniform all-pairs latency, `None` for the AWS
    /// inter-region matrix (paper Tab. 4).
    pub uniform_latency_ms: Option<u64>,
    /// Max link jitter in milliseconds (0 disables the jitter RNG draw).
    pub jitter_ms: u64,
    /// Inter-server sync threshold `h_inter`.
    pub h_inter: f64,
    /// Intra-server gossip threshold `h_intra`.
    pub h_intra: f64,
    /// Age-gossip backoff (updates between gossip rounds).
    pub gossip_backoff: u64,
    /// Whether the self-healing recovery protocol is enabled.
    pub recovery: bool,
    /// Server-side aggregation strategy.
    pub aggregation: AggregationStrategy,
    /// Optional L2 delta-norm validation gate.
    pub max_delta_norm: Option<f32>,
    /// Per-client local training delay in milliseconds.
    pub train_delay_ms: Vec<u64>,
    /// Per-client scalar target (the client's trainer pulls every
    /// coordinate toward this value).
    pub targets: Vec<f32>,
    /// The fault schedule.
    pub faults: FaultPlan,
    /// Optional test-only violation injection.
    pub inject: Option<Injection>,
    /// Scheduled membership growth: one standby server is appended to the
    /// node space per entry (after the clients, in id order) and splices
    /// into the ring at the given virtual time. Empty on non-elastic
    /// scenarios — the build then routes through the fixed deployment,
    /// byte-identical to pre-membership runs.
    pub joins: Vec<SimTime>,
    /// Scheduled membership shrink: base server `idx` voluntarily leaves
    /// (token handoff, client re-homing, drain) at the given time.
    pub leaves: Vec<(usize, SimTime)>,
    /// Optional update-compression pipeline the clients encode with
    /// (DESIGN.md §16). `None` keeps the run byte-identical to the dense
    /// protocol; [`SimScenario::generate`] never sets it, so the plain
    /// sweeps are unchanged — codec sweeps go through
    /// [`SimScenario::generate_codec`].
    pub codec: Option<CodecConfig>,
    /// Scheduled client availability windows (node goes offline during
    /// `[start, end)`, distinct from crash faults — see
    /// [`spyker_simnet::avail`]). Node ids, like the fault plan. Empty
    /// keeps the run byte-identical to pre-availability builds.
    pub avail_windows: Vec<AvailWindow>,
    /// Per-client compute-speed multipliers in thousandths (`1000` =
    /// neutral), indexed like `train_delay_ms`. Empty means every client
    /// runs at the neutral tier (byte-identical to pre-tier builds).
    pub compute_mul: Vec<u64>,
    /// Overrides the network's link bandwidth in bits/second (`None`
    /// keeps the paper default). Lower values inflate serialization
    /// delays and thus update staleness.
    pub bandwidth_bps: Option<u64>,
    /// Name of the scenario-library preset this scenario was derived from
    /// (`None` for plain random draws). Stamped onto the run as the
    /// `scenario.preset` gauge so run reports identify the workload.
    pub preset: Option<String>,
}

impl SimScenario {
    /// Expands `seed` into a full random scenario, deterministically: the
    /// same seed always yields the same scenario, byte for byte.
    pub fn generate(seed: u64) -> Self {
        // Decorrelate from the simulation's own RNG streams (which are
        // seeded from `seed ^ <other constants>` inside simnet).
        let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
        let n_servers = rng.gen_range(1..=4usize);
        let n_clients = rng.gen_range(n_servers..=(3 * n_servers).min(12));
        let dim = rng.gen_range(2..=6usize);
        let horizon = SimTime::from_secs(rng.gen_range(8..=20u64));
        let uniform_latency_ms = if rng.gen_bool(0.5) {
            Some(rng.gen_range(5..=80u64))
        } else {
            None
        };
        let jitter_ms = if rng.gen_bool(0.5) {
            rng.gen_range(1..=20u64)
        } else {
            0
        };
        let h_inter = rng.gen_range(1..=5u32) as f64;
        let h_intra = rng.gen_range(1..=50u32) as f64;
        let gossip_backoff = rng.gen_range(1..=4u64);
        let aggregation = match rng.gen_range(0..10u32) {
            0 => AggregationStrategy::TrimmedMean {
                batch: rng.gen_range(2..=4usize),
                trim_ratio: 0.25,
            },
            1 => AggregationStrategy::Median {
                batch: rng.gen_range(2..=4usize),
            },
            2 => AggregationStrategy::ClippedMean {
                batch: rng.gen_range(2..=4usize),
                max_norm: rng.gen_range(2.0..=10.0f32),
            },
            _ => AggregationStrategy::Mean,
        };
        // Honest deltas live inside the target hull (diameter ~2·√dim), so
        // a gate at ≥ 10 never fires on an honest run.
        let max_delta_norm = if rng.gen_bool(0.3) {
            Some(rng.gen_range(10.0..=50.0f32))
        } else {
            None
        };
        let train_delay_ms = (0..n_clients).map(|_| rng.gen_range(50..=500u64)).collect();
        let targets = (0..n_clients)
            .map(|_| rng.gen_range(-1.0..=1.0f32))
            .collect();
        let (faults, recovery) = Self::generate_faults(&mut rng, n_servers, n_clients, horizon);
        Self {
            seed,
            n_servers,
            n_clients,
            dim,
            horizon,
            uniform_latency_ms,
            jitter_ms,
            h_inter,
            h_intra,
            gossip_backoff,
            recovery,
            aggregation,
            max_delta_norm,
            train_delay_ms,
            targets,
            faults,
            inject: None,
            joins: Vec::new(),
            leaves: Vec::new(),
            codec: None,
            avail_windows: Vec::new(),
            compute_mul: Vec::new(),
            bandwidth_bps: None,
            preset: None,
        }
    }

    /// Expands `seed` into a membership-churn scenario: the plain
    /// [`SimScenario::generate`] expansion plus scheduled server joins
    /// (and, when the base ring can spare one, a voluntary leave), drawn
    /// from a decorrelated RNG stream so the underlying scenario for a
    /// given seed is unchanged.
    ///
    /// Recovery is forced on: the eviction path (a crashed member is
    /// unspliced after repeated exchange misses) runs on the recovery
    /// watchdogs, so a churn sweep without them would not exercise it.
    pub fn generate_churn(seed: u64) -> Self {
        let mut sc = Self::generate(seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xc2b2_ae3d_27d4_eb4f);
        sc.recovery = true;
        let horizon_us = sc.horizon.as_micros();
        // Joins land in the first half so the joiner has time to serve;
        // leaves in the third quarter so the drain completes in-horizon.
        for _ in 0..rng.gen_range(1..=2u32) {
            let at = rng.gen_range(horizon_us / 8..horizon_us / 2);
            sc.joins.push(SimTime::from_micros(at));
        }
        sc.joins.sort();
        if sc.n_servers >= 2 && rng.gen_bool(0.6) {
            let idx = rng.gen_range(0..sc.n_servers);
            let at = rng.gen_range(horizon_us / 2..3 * horizon_us / 4);
            sc.leaves.push((idx, SimTime::from_micros(at)));
        }
        sc
    }

    /// Expands `seed` into a codec scenario: the plain
    /// [`SimScenario::generate`] expansion plus a randomized
    /// update-compression pipeline, drawn from a decorrelated RNG stream
    /// so the underlying scenario for a given seed is unchanged.
    ///
    /// Every generated pipeline quantizes (q8 or q4), so at the dimensions
    /// drawn here (≥ 32) the encoded upload is strictly smaller than the
    /// dense one — the byte-accounting oracle's `encoded ≤ raw` invariant
    /// holds by construction, framing overhead included. (An identity or
    /// delta-only pipeline would *add* bytes and is deliberately never
    /// generated.) The model dimension is re-drawn upward because at the
    /// base scenarios' 2–6 coordinates the fixed header dwarfs the values,
    /// and the norm gate is disabled: its `≥ 10` floor was calibrated for
    /// the small-dim hull, and honest deltas at dim ≈ 96 can reach it.
    pub fn generate_codec(seed: u64) -> Self {
        let mut sc = Self::generate(seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xa076_1d64_78bd_642f);
        sc.dim = rng.gen_range(32..=96usize);
        sc.max_delta_norm = None;
        let topk = if rng.gen_bool(0.6) {
            Some(rng.gen_range(0.05..=0.4f32))
        } else {
            None
        };
        sc.codec = Some(
            CodecConfig {
                delta: rng.gen_bool(0.5),
                topk,
                // Error feedback only matters when something is dropped.
                error_feedback: topk.is_some(),
                quant: None,
                rounding: if rng.gen_bool(0.5) {
                    Rounding::Stochastic
                } else {
                    Rounding::Nearest
                },
                seed: rng.gen(),
            }
            .with_quant(if rng.gen_bool(0.7) {
                QuantBits::Q8
            } else {
                QuantBits::Q4
            }),
        );
        sc
    }

    /// Draws the fault schedule; returns it with the recovery decision
    /// (recovery is forced on whenever a fault can silence a server,
    /// because without it a dead token holder legitimately stalls the
    /// ring — that is the documented non-recovery behaviour, not a bug).
    fn generate_faults(
        rng: &mut StdRng,
        n_servers: usize,
        n_clients: usize,
        horizon: SimTime,
    ) -> (FaultPlan, bool) {
        let mut plan = FaultPlan::none();
        let mut servers_at_risk = false;
        if rng.gen_bool(0.4) {
            // Clean scenario: the stricter invariants apply.
            return (plan, rng.gen_bool(0.3));
        }
        let horizon_us = horizon.as_micros();
        let window = |rng: &mut StdRng| {
            let start = rng.gen_range(0..horizon_us / 2);
            let end = rng.gen_range(start + 1..=horizon_us);
            (SimTime::from_micros(start), SimTime::from_micros(end))
        };
        for _ in 0..rng.gen_range(1..=3u32) {
            match rng.gen_range(0..6u32) {
                0 => {
                    plan.loss_prob = rng.gen_range(0.01..0.10f64);
                    servers_at_risk = true;
                }
                1 => {
                    let a = Region::ALL[rng.gen_range(0..4usize)];
                    let b = Region::ALL[rng.gen_range(0..4usize)];
                    let (start, end) = window(rng);
                    plan = plan.partition(a, b, start, end);
                    servers_at_risk = true;
                }
                2 => {
                    // Server crash with restart.
                    let node = rng.gen_range(0..n_servers);
                    let (at, restart) = window(rng);
                    plan = plan.crash(node, at, Some(restart));
                    servers_at_risk = true;
                }
                3 => {
                    // Client churn (leave + rejoin).
                    let node = n_servers + rng.gen_range(0..n_clients);
                    let (leave, rejoin) = window(rng);
                    plan = plan.churn(node, leave, rejoin);
                }
                4 => {
                    // Connection outage between two distinct nodes — the
                    // deterministic twin of a TCP disconnect/reconnect.
                    let total = n_servers + n_clients;
                    let a = rng.gen_range(0..total);
                    let b = (a + 1 + rng.gen_range(0..total - 1)) % total;
                    let (start, end) = window(rng);
                    plan = plan.conn_drop(a, b, start, end);
                    servers_at_risk |= a < n_servers || b < n_servers;
                }
                _ => {
                    let node = n_servers + rng.gen_range(0..n_clients);
                    let attack = match rng.gen_range(0..4u32) {
                        0 => ByzantineAttack::SignFlip,
                        1 => ByzantineAttack::Scale {
                            factor: rng.gen_range(2.0..=20.0f32),
                        },
                        2 => ByzantineAttack::GaussianNoise {
                            sigma: rng.gen_range(0.1..=2.0f32),
                        },
                        _ => ByzantineAttack::NanInject {
                            prob: rng.gen_range(0.05..=0.5f64),
                        },
                    };
                    plan = plan.byzantine(node, attack);
                }
            }
        }
        let recovery = servers_at_risk || rng.gen_bool(0.3);
        (plan, recovery)
    }

    /// The protocol configuration this scenario runs with.
    pub fn config(&self) -> SpykerConfig {
        let mut cfg = SpykerConfig::paper_defaults(self.n_clients, self.n_servers)
            .with_thresholds(self.h_inter, self.h_intra)
            .with_aggregation(self.aggregation)
            .with_validation(ValidationConfig {
                reject_nonfinite: true,
                max_delta_norm: self.max_delta_norm,
                max_staleness: None,
            });
        cfg.gossip_backoff = self.gossip_backoff;
        if self.recovery {
            cfg = cfg.with_recovery(RecoveryConfig::default());
        }
        if self.elastic() {
            cfg = cfg.with_membership(MembershipConfig::default());
        }
        if let Some(codec) = self.codec {
            cfg = cfg.with_codec(codec);
        }
        cfg
    }

    /// `true` when the scenario schedules membership churn (and the build
    /// therefore routes through the elastic deployment).
    pub fn elastic(&self) -> bool {
        !self.joins.is_empty() || !self.leaves.is_empty()
    }

    /// Node ids of every server actor: the base ring `0..n_servers`, then
    /// one standby per scheduled join (standbys sit after the clients in
    /// the elastic node layout). The oracles watch all of them.
    pub fn server_node_ids(&self) -> Vec<NodeId> {
        (0..self.n_servers)
            .chain((0..self.joins.len()).map(|k| self.n_servers + self.n_clients + k))
            .collect()
    }

    /// The network model this scenario runs on.
    pub fn net(&self) -> NetworkConfig {
        let net = match self.uniform_latency_ms {
            Some(ms) => NetworkConfig::uniform_all(SimTime::from_millis(ms)),
            None => NetworkConfig::aws(),
        };
        let net = match self.bandwidth_bps {
            Some(bps) => net.with_bandwidth_bps(bps),
            None => net,
        };
        if self.jitter_ms > 0 {
            net.with_jitter(SimTime::from_millis(self.jitter_ms))
        } else {
            net
        }
    }

    /// The availability schedule this scenario attaches: the scheduled
    /// offline windows plus one compute-tier entry per non-neutral client
    /// multiplier (client `i` is node `n_servers + i`).
    pub fn availability(&self) -> AvailabilityPlan {
        let mut plan = AvailabilityPlan::none();
        plan.offline = self.avail_windows.clone();
        for (i, &mul) in self.compute_mul.iter().enumerate() {
            if mul != 1000 {
                plan = plan.compute_speed(self.n_servers + i, mul);
            }
        }
        plan
    }

    /// Builds the ready-to-run simulation (faults attached): servers at
    /// node ids `0..n_servers`, clients following, split evenly.
    pub fn build(&self) -> Simulation<FlMsg> {
        let trainers: Vec<Box<dyn LocalTrainer>> = self
            .targets
            .iter()
            .map(|&t| {
                Box::new(MeanTargetTrainer::new(vec![t; self.dim], 8)) as Box<dyn LocalTrainer>
            })
            .collect();
        let spec = SpykerDeploymentSpec {
            config: self.config(),
            trainers,
            num_servers: self.n_servers,
            init_params: ParamVec::zeros(self.dim),
            train_delay: self
                .train_delay_ms
                .iter()
                .map(|&ms| SimTime::from_millis(ms))
                .collect(),
        };
        let sim = if self.elastic() {
            let elastic = ElasticSpec {
                standby_regions: (0..self.joins.len())
                    .map(|k| Region::ALL[(self.n_servers + k) % Region::ALL.len()])
                    .collect(),
                join_after: self.joins.iter().map(|&t| Some(t)).collect(),
                leave_at: self.leaves.clone(),
                failover_timeout: MembershipConfig::default().client_failover_timeout,
                autoscaler: None,
            };
            elastic_spyker_deployment(self.net(), self.seed, spec, elastic)
                .sim
                .with_faults(self.faults.clone())
        } else {
            let assignment = even_assignment(self.n_clients, self.n_servers);
            spyker_deployment_assigned(self.net(), self.seed, assignment, spec)
                .with_faults(self.faults.clone())
        };
        // Only attach the plan when it schedules or scales something, so
        // plain scenarios stay byte-identical to pre-availability builds.
        let plan = self.availability();
        let mut sim = if plan.is_none() {
            sim
        } else {
            sim.with_availability(plan)
        };
        if let Some(name) = &self.preset {
            let idx = crate::presets::ScenarioPreset::from_name(name)
                .map(|p| p.index() as f64)
                .unwrap_or(-1.0);
            sim.metrics_mut().gauge_set("scenario.preset", idx);
        }
        sim
    }

    /// Number of individual faults in the plan (each loss rule, drop,
    /// partition, crash and Byzantine client counts as one).
    pub fn fault_count(&self) -> usize {
        usize::from(self.faults.loss_prob > 0.0)
            + self.faults.link_loss.len()
            + self.faults.drops.len()
            + self.faults.partitions.len()
            + self.faults.conns.len()
            + self.faults.crashes.len()
            + self.faults.byzantine.len()
    }

    /// Scenario "size" for shrinking: nodes + weighted faults + horizon
    /// seconds. The shrinker minimizes this; the acceptance bar is a
    /// reproducer at ≤ half the original size.
    pub fn size(&self) -> u64 {
        (self.n_servers + self.n_clients + self.joins.len()) as u64
            + 2 * (self.fault_count() + self.joins.len() + self.leaves.len()) as u64
            + 2 * self.avail_windows.len() as u64
            + self.horizon.as_micros() / 1_000_000
    }

    /// `true` when a fault references node id `node` directly (region
    /// partitions and global loss are node-agnostic).
    pub fn fault_references_node(&self, node: NodeId) -> bool {
        self.node_refs().any(|(_, id)| id == node)
    }

    /// `true` when any fault references *any* node id (shrinking the node
    /// count renumbers clients, so it is only attempted when this is
    /// false).
    pub fn faults_reference_nodes(&self) -> bool {
        self.node_refs().next().is_some()
    }

    /// Every node id the faults and the availability windows name, with
    /// the field that names it.
    fn node_refs(&self) -> impl Iterator<Item = (&'static str, NodeId)> + '_ {
        let f = &self.faults;
        let pair = |field, a, b| [(field, a), (field, b)];
        let drops = f.drops.iter().map(move |d| match *d {
            ScriptedDrop::NthOnLink { from, to, .. }
            | ScriptedDrop::LinkWindow { from, to, .. } => pair("faults: drops", from, to),
        });
        (f.link_loss.iter())
            .map(move |&(from, to, _)| pair("faults: link_loss", from, to))
            .chain(drops)
            .chain(f.conns.iter().map(move |c| pair("faults: conns", c.a, c.b)))
            .flatten()
            .chain(f.crashes.iter().map(|c| ("faults: crashes", c.node)))
            .chain(f.byzantine.iter().map(|b| ("faults: byzantine", b.node)))
            .chain(self.avail_windows.iter().map(|w| ("avail", w.node)))
    }

    /// Serializes the scenario as RON (round-trips through
    /// [`SimScenario::from_ron`]).
    pub fn to_ron(&self) -> String {
        ron::write(&self.to_value())
    }

    /// Parses a scenario back from [`SimScenario::to_ron`] output. Fields
    /// may come in any order, the `late` ones of the table below may be
    /// absent, and `//`-comment lines are skipped, so annotated repro files
    /// parse directly. What the run would assert on — a node, server or
    /// per-client list the topology does not have, a probability outside
    /// [0, 1], an empty window — is an error here instead.
    pub fn from_ron(text: &str) -> Result<Self, String> {
        let sc = Self::from_value(ron::read(text)?)?;
        sc.check().map(|()| sc)
    }

    /// Rejects what the fault-plan builders, the deployment and the
    /// simulator assert on, naming the offending field.
    fn check(&self) -> Result<(), String> {
        let (f, servers, clients) = (&self.faults, self.n_servers, self.n_clients);
        let nodes = servers + clients + self.joins.len();
        if servers == 0 {
            return Err("n_servers: a run needs a server".to_string());
        }
        if self.compute_mul.contains(&0) {
            return Err("compute_mul: a multiplier is zero".to_string());
        }
        let mut lists = vec![
            ("train_delay_ms", self.train_delay_ms.len()),
            ("targets", self.targets.len()),
        ];
        // An empty tier list runs every client at the neutral speed.
        if !self.compute_mul.is_empty() {
            lists.push(("compute_mul", self.compute_mul.len()));
        }
        if let Some(&(field, len)) = lists.iter().find(|&&(_, len)| len != clients) {
            return Err(format!("{field}: {len} entries for {clients} clients"));
        }
        if let Some((field, id)) = self.node_refs().find(|&(_, id)| id >= nodes) {
            return Err(format!("{field}: node {id} of {nodes} does not exist"));
        }
        let inject = self
            .inject
            .iter()
            .map(|Injection::DuplicateToken { server, .. }| *server);
        let leaves = self.leaves.iter().map(|&(idx, _)| ("leaves", idx));
        let mut refs = leaves.chain(inject.map(|idx| ("inject", idx)));
        if let Some((field, idx)) = refs.find(|&(_, idx)| idx >= servers) {
            return Err(format!("{field}: server {idx} of {servers} does not exist"));
        }
        let nan = f.byzantine.iter().filter_map(|b| match b.attack {
            ByzantineAttack::NanInject { prob } => Some(("byzantine: NanInject", prob)),
            _ => None,
        });
        let links = f.link_loss.iter().map(|l| ("link_loss", l.2));
        let mut probs = [("loss_prob", f.loss_prob)]
            .into_iter()
            .chain(links)
            .chain(nan);
        if let Some((field, p)) = probs.find(|(_, p)| !(0.0..=1.0).contains(p)) {
            return Err(format!(
                "faults: {field}: probability {p:?} is not in [0, 1]"
            ));
        }
        let drops = f.drops.iter().filter_map(|d| match *d {
            ScriptedDrop::LinkWindow { start, end, .. } => Some(("faults: drops", start, end)),
            ScriptedDrop::NthOnLink { .. } => None,
        });
        let parts = f
            .partitions
            .iter()
            .map(|p| ("faults: partitions", p.start, p.end));
        let conns = f.conns.iter().map(|c| ("faults: conns", c.start, c.end));
        let crashes = f
            .crashes
            .iter()
            .filter_map(|c| Some(("faults: crashes", c.at, c.restart?)));
        let avail = self.avail_windows.iter().map(|w| ("avail", w.start, w.end));
        let mut windows = drops.chain(parts).chain(conns).chain(crashes).chain(avail);
        match windows.find(|&(_, start, end)| end <= start) {
            Some((field, start, end)) => {
                let (start, end) = (start.as_micros(), end.as_micros());
                Err(format!(
                    "{field}: {start} us to {end} us is an empty window"
                ))
            }
            None => Ok(()),
        }
    }
}

// The scenario file format, one row per field in output order (see
// `crate::ron`). Times are written in microseconds, regions by name and the
// codec as its pipeline spec string.
ron_record! { SimScenario {
    seed,
    n_servers,
    n_clients,
    dim,
    horizon: "horizon_us",
    uniform_latency_ms,
    jitter_ms,
    h_inter,
    h_intra,
    gossip_backoff,
    recovery,
    aggregation,
    max_delta_norm,
    train_delay_ms,
    targets,
    faults,
    inject,
} late {
    // Membership churn, then the codec, then the scenario library: files
    // written before them end earlier and replay as before.
    joins: "joins_us",
    leaves,
    codec,
    avail_windows: "avail",
    compute_mul,
    bandwidth_bps,
    preset,
} }
ron_record! { FaultPlan { loss_prob, link_loss, drops, partitions, conns, crashes, byzantine } }
ron_tuple! { (NodeId, NodeId, f64) { 0: from, 1: to, 2: p } }
ron_enum! { ScriptedDrop {
    NthOnLink { from, to, nth },
    LinkWindow { from, to, start: "start_us", end: "end_us" },
} }
ron_record! { PartitionWindow { a, b, start: "start_us", end: "end_us" } }
ron_record! { ConnWindow { a, b, start: "start_us", end: "end_us" } }
ron_record! { CrashEvent { node, at: "at_us", restart: "restart_us" } }
ron_record! { ByzantineClient { node, attack } }
ron_enum! { ByzantineAttack {
    SignFlip,
    Scale { factor },
    GaussianNoise { sigma },
    NanInject { prob },
} }
ron_enum! { AggregationStrategy {
    Mean,
    TrimmedMean { batch, trim_ratio },
    Median { batch },
    ClippedMean { batch, max_norm },
} }
ron_enum! { Injection { DuplicateToken { at: "at_us", server } } }
ron_tuple! { (usize, SimTime) { 0: server, 1: at_us } }
ron_record! { AvailWindow { node, start: "start_us", end: "end_us" } }

impl Ron for SimTime {
    fn to_value(&self) -> Value {
        self.as_micros().to_value()
    }

    fn from_value(value: Value) -> Result<Self, String> {
        u64::from_value(value).map(SimTime::from_micros)
    }
}

impl Ron for Region {
    fn to_value(&self) -> Value {
        Value::Atom(self.name().to_string())
    }

    fn from_value(value: Value) -> Result<Self, String> {
        let name = value.atom()?;
        let region = Region::ALL.into_iter().find(|r| r.name() == name);
        region.ok_or_else(|| format!("unknown region `{name}`"))
    }
}

/// The codec is written as the canonical pipeline spec [`CodecConfig::parse`]
/// accepts, every field explicit, so `parse(spec(c)) == c` for any config.
impl Ron for CodecConfig {
    fn to_value(&self) -> Value {
        let quant = match self.quant {
            Some(QuantBits::Q8) => "q8,",
            Some(QuantBits::Q4) => "q4,",
            None => "",
        };
        let rounding = match self.rounding {
            Rounding::Nearest => "nearest",
            Rounding::Stochastic => "stochastic",
        };
        Value::Str(format!(
            "{}{}{quant}{rounding},{},seed={}",
            if self.delta { "delta," } else { "" },
            self.topk.map_or(String::new(), |r| format!("topk={r:?},")),
            if self.error_feedback { "ef" } else { "noef" },
            self.seed
        ))
    }

    fn from_value(value: Value) -> Result<Self, String> {
        CodecConfig::parse(&String::from_value(value)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        for seed in 0..32 {
            assert_eq!(SimScenario::generate(seed), SimScenario::generate(seed));
        }
        assert_ne!(SimScenario::generate(1), SimScenario::generate(2));
    }

    #[test]
    fn generated_scenarios_are_well_formed() {
        for seed in 0..64 {
            let s = SimScenario::generate(seed);
            assert!(s.n_servers >= 1 && s.n_servers <= 4, "seed {seed}");
            assert!(s.n_clients >= s.n_servers, "seed {seed}");
            assert_eq!(s.train_delay_ms.len(), s.n_clients);
            assert_eq!(s.targets.len(), s.n_clients);
            assert!(s.horizon >= SimTime::from_secs(8));
            // Every referenced node must exist.
            let n = s.n_servers + s.n_clients;
            for c in &s.faults.crashes {
                assert!(c.node < n, "seed {seed}: crash of unknown node");
            }
            for b in &s.faults.byzantine {
                assert!(b.node < n, "seed {seed}: byzantine unknown node");
            }
        }
    }

    #[test]
    fn ron_round_trips_every_generated_scenario() {
        for seed in 0..128 {
            let mut s = SimScenario::generate(seed);
            if seed % 3 == 0 {
                s.inject = Some(Injection::DuplicateToken {
                    at: SimTime::from_secs(3),
                    server: 0,
                });
            }
            let ron = s.to_ron();
            let back = SimScenario::from_ron(&ron)
                .unwrap_or_else(|e| panic!("seed {seed}: parse failed: {e}\n{ron}"));
            assert_eq!(back, s, "seed {seed} did not round-trip\n{ron}");
        }
    }

    #[test]
    fn ron_parser_skips_comment_lines() {
        let s = SimScenario::generate(5);
        let annotated = format!("// a repro header\n// more\n{}", s.to_ron());
        assert_eq!(SimScenario::from_ron(&annotated).unwrap(), s);
    }

    #[test]
    fn build_produces_the_right_topology() {
        let s = SimScenario::generate(3);
        let sim = s.build();
        assert_eq!(sim.num_nodes(), s.n_servers + s.n_clients);
    }

    #[test]
    fn churn_generation_is_deterministic_and_well_formed() {
        for seed in 0..32 {
            let a = SimScenario::generate_churn(seed);
            assert_eq!(a, SimScenario::generate_churn(seed));
            assert!(a.elastic() && !a.joins.is_empty(), "seed {seed}");
            assert!(a.recovery, "seed {seed}: churn needs recovery");
            for t in &a.joins {
                assert!(*t < a.horizon, "seed {seed}: join after horizon");
            }
            for &(idx, t) in &a.leaves {
                assert!(idx < a.n_servers, "seed {seed}: leave of unknown server");
                assert!(t < a.horizon, "seed {seed}: leave after horizon");
            }
            // The underlying scenario is the plain expansion of the seed.
            let mut base = a.clone();
            base.joins.clear();
            base.leaves.clear();
            base.recovery = SimScenario::generate(seed).recovery;
            assert_eq!(base, SimScenario::generate(seed), "seed {seed}");
        }
    }

    #[test]
    fn ron_round_trips_churn_scenarios() {
        for seed in 0..32 {
            let s = SimScenario::generate_churn(seed);
            let ron = s.to_ron();
            let back = SimScenario::from_ron(&ron)
                .unwrap_or_else(|e| panic!("seed {seed}: parse failed: {e}\n{ron}"));
            assert_eq!(back, s, "seed {seed} did not round-trip\n{ron}");
        }
    }

    #[test]
    fn codec_generation_is_deterministic_and_always_quantizes() {
        for seed in 0..32 {
            let a = SimScenario::generate_codec(seed);
            assert_eq!(a, SimScenario::generate_codec(seed));
            let codec = a.codec.expect("codec scenarios carry a codec");
            // The compression guarantee the byte oracle relies on: every
            // generated pipeline quantizes, at a dimension where the
            // encoded payload is strictly below the dense wire size.
            assert!(codec.quant.is_some(), "seed {seed}: no quant stage");
            assert!(a.dim >= 32, "seed {seed}: dim {} too small", a.dim);
            assert!(a.max_delta_norm.is_none(), "seed {seed}: gate left on");
            if let Some(r) = codec.topk {
                assert!(r > 0.0 && r <= 0.5, "seed {seed}: topk ratio {r}");
            }
            // The underlying scenario for the seed is otherwise unchanged.
            let mut base = a.clone();
            base.codec = None;
            base.dim = SimScenario::generate(seed).dim;
            base.max_delta_norm = SimScenario::generate(seed).max_delta_norm;
            assert_eq!(base, SimScenario::generate(seed), "seed {seed}");
        }
    }

    #[test]
    fn ron_round_trips_codec_scenarios() {
        for seed in 0..32 {
            let s = SimScenario::generate_codec(seed);
            let ron = s.to_ron();
            let back = SimScenario::from_ron(&ron)
                .unwrap_or_else(|e| panic!("seed {seed}: parse failed: {e}\n{ron}"));
            assert_eq!(back, s, "seed {seed} did not round-trip\n{ron}");
        }
    }

    #[test]
    fn elastic_build_appends_standbys_after_the_clients() {
        let s = SimScenario::generate_churn(3);
        let sim = s.build();
        assert_eq!(sim.num_nodes(), s.n_servers + s.n_clients + s.joins.len());
        assert_eq!(s.server_node_ids().len(), s.n_servers + s.joins.len());
        assert_eq!(
            s.server_node_ids().last().copied(),
            Some(s.n_servers + s.n_clients + s.joins.len() - 1)
        );
    }
}
