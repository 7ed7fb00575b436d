//! Bit-level determinism of the whole stack: identical seeds must give
//! identical runs, different seeds must not.

use spyker_repro::baselines::deploy::fedasync_deployment;
use spyker_repro::baselines::fedasync::{FedAsyncConfig, FedAsyncServer};
use spyker_repro::core::agg::AggregationStrategy;
use spyker_repro::core::cluster::{
    ClusterTrainer, ClusteredFlClient, ClusteredSpykerServer, MeanTargetClusterTrainer,
};
use spyker_repro::core::config::{RecoveryConfig, SpykerConfig};
use spyker_repro::core::deploy::{
    elastic_spyker_deployment, spyker_deployment, sync_spyker_deployment, ElasticSpec,
    SpykerDeploymentSpec,
};
use spyker_repro::core::membership::MembershipConfig;
use spyker_repro::core::msg::FlMsg;
use spyker_repro::core::params::ParamVec;
use spyker_repro::core::server::SpykerServer;
use spyker_repro::core::sync_spyker::SyncSpykerServer;
use spyker_repro::core::training::{LocalTrainer, MeanTargetTrainer};
use spyker_repro::core::update_codec::CodecConfig;
use spyker_repro::experiments::runner::default_spyker_config;
use spyker_repro::experiments::{run_algorithm, Algorithm, RunOptions, Scenario};
use spyker_repro::simnet::{
    ByzantineAttack, FaultPlan, NetworkConfig, NodeId, Region, SimTime, Simulation,
};

fn opts() -> RunOptions {
    RunOptions::standard().with_max_time(SimTime::from_secs(12))
}

#[test]
fn all_algorithms_are_deterministic_per_seed() {
    for alg in Algorithm::ALL {
        let scenario_a = Scenario::mnist(10, 2, 77);
        let scenario_b = Scenario::mnist(10, 2, 77);
        let a = run_algorithm(alg, &scenario_a, &opts());
        let b = run_algorithm(alg, &scenario_b, &opts());
        assert_eq!(a.samples, b.samples, "{alg}: samples diverged");
        assert_eq!(
            a.client_updates, b.client_updates,
            "{alg}: clients diverged"
        );
        assert_eq!(
            a.metrics.counter("net.bytes"),
            b.metrics.counter("net.bytes"),
            "{alg}: traffic diverged"
        );
    }
}

#[test]
fn different_seeds_give_different_runs() {
    let a = run_algorithm(Algorithm::Spyker, &Scenario::mnist(10, 2, 1), &opts());
    let b = run_algorithm(Algorithm::Spyker, &Scenario::mnist(10, 2, 2), &opts());
    assert_ne!(a.samples, b.samples, "seeds should matter");
}

#[test]
fn fault_injection_is_deterministic_per_seed() {
    // Probabilistic loss, a partition-style link cut and a crash all draw
    // from the fault RNG stream, which is derived from the scenario seed:
    // re-running the same plan must reproduce every drop, every recovery
    // action and hence the exact same model trajectory.
    let plan = FaultPlan::none()
        .with_loss(0.05)
        .drop_link_window(0, 1, SimTime::ZERO, SimTime::from_secs(4))
        .crash(1, SimTime::from_secs(6), Some(SimTime::from_secs(9)));
    let run = |(): ()| {
        let scenario = Scenario::mnist(10, 2, 31);
        let opts = opts().with_faults(plan.clone()).with_spyker_config(
            default_spyker_config(&scenario).with_recovery(RecoveryConfig::default()),
        );
        run_algorithm(Algorithm::Spyker, &scenario, &opts)
    };
    let a = run(());
    let b = run(());
    assert!(
        a.metrics.counter("fault.dropped") > 0,
        "the plan never dropped anything"
    );
    for counter in [
        "fault.dropped",
        "fault.crashes",
        "fault.restarts",
        "net.bytes",
        "updates.processed",
        "syncs.triggered",
        "token.regenerated",
    ] {
        assert_eq!(
            a.metrics.counter(counter),
            b.metrics.counter(counter),
            "{counter} diverged between identical fault runs"
        );
    }
    // Samples carry the evaluated metric/loss, i.e. the model bits.
    assert_eq!(a.samples, b.samples, "model trajectory diverged");
    assert_eq!(
        a.client_updates, b.client_updates,
        "client traffic diverged"
    );
}

#[test]
fn an_empty_fault_plan_changes_nothing() {
    let base = run_algorithm(Algorithm::Spyker, &Scenario::mnist(10, 2, 77), &opts());
    let with_plan = run_algorithm(
        Algorithm::Spyker,
        &Scenario::mnist(10, 2, 77),
        &opts().with_faults(FaultPlan::none()),
    );
    assert_eq!(base.samples, with_plan.samples);
    assert_eq!(
        base.metrics.counter("net.bytes"),
        with_plan.metrics.counter("net.bytes")
    );
}

#[test]
fn scenario_construction_is_pure() {
    let a = Scenario::mnist(10, 2, 42);
    let b = Scenario::mnist(10, 2, 42);
    assert_eq!(a.delays(), b.delays());
    assert_eq!(a.init_params().as_slice(), b.init_params().as_slice());
}

// ---- End-state fingerprints of the per-update servers the golden -----
// ---- traces do not cover (Sync-Spyker, FedAsync, Clustered Spyker) ---
//
// Each run is short, seeded and built from the analytic mean-target
// trainer, so the final model bits are a pure function of the protocol
// code. The pinned values were recorded before the servers moved onto
// the shared `core::ingest` path; a change here means the refactor (or
// any later edit) altered floating-point operation order, the reply
// sequence or the rejection accounting of one of these servers.

/// FNV-1a over the final model bits of every server plus the two
/// counters that summarise the ingest path's decisions.
fn end_state_fingerprint(models: &[&ParamVec], sim: &Simulation<FlMsg>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for model in models {
        for v in model.as_slice() {
            eat(&v.to_bits().to_le_bytes());
        }
    }
    eat(&sim.metrics().counter("updates.processed").to_le_bytes());
    eat(&sim.metrics().counter("agg.rejected").to_le_bytes());
    h
}

const PIN_DIM: usize = 32;

fn mean_target_trainers(n: usize) -> Vec<Box<dyn LocalTrainer>> {
    (0..n)
        .map(|i| {
            let target = (0..PIN_DIM)
                .map(|d| (i * PIN_DIM + d) as f32 * 0.01)
                .collect();
            Box::new(MeanTargetTrainer::new(target, 8 + i)) as Box<dyn LocalTrainer>
        })
        .collect()
}

/// Per-client training delays spread enough that updates arrive with
/// non-trivial staleness and the decay schedule kicks in.
fn pin_delays(n: usize) -> Vec<SimTime> {
    (0..n)
        .map(|i| SimTime::from_millis(60 + 35 * i as u64))
        .collect()
}

fn sync_spyker_fingerprint(codec: Option<CodecConfig>) -> u64 {
    let n = 6;
    let mut config = SpykerConfig::paper_defaults(n, 2);
    config.codec = codec;
    let mut sim = sync_spyker_deployment(
        NetworkConfig::aws(),
        41,
        SimTime::from_millis(500),
        SpykerDeploymentSpec {
            config,
            trainers: mean_target_trainers(n),
            num_servers: 2,
            init_params: ParamVec::zeros(PIN_DIM),
            train_delay: pin_delays(n),
        },
    );
    sim.run(SimTime::from_secs(8));
    assert!(sim.metrics().counter("updates.processed") > 50);
    assert!(sim.metrics().counter("syncs.triggered") > 5);
    if codec.is_some() {
        assert!(sim.metrics().counter("codec.decoded") > 50);
    }
    let models: Vec<&ParamVec> = (0..2)
        .map(|id| {
            sim.node(id)
                .as_any()
                .downcast_ref::<SyncSpykerServer>()
                .expect("Sync-Spyker server")
                .params()
        })
        .collect();
    end_state_fingerprint(&models, &sim)
}

fn fedasync_fingerprint(aggregation: AggregationStrategy) -> u64 {
    let n = 6;
    // Client node 3 NaN-injects half its coordinates: the pinned
    // `agg.rejected` is non-zero and the reject-and-reply path runs.
    let plan = FaultPlan::none().byzantine(3, ByzantineAttack::NanInject { prob: 0.5 });
    let mut sim = fedasync_deployment(
        NetworkConfig::aws(),
        43,
        FedAsyncConfig::paper_defaults()
            .with_client_lr(0.5)
            .with_aggregation(aggregation),
        mean_target_trainers(n),
        ParamVec::zeros(PIN_DIM),
        pin_delays(n),
        1,
    )
    .with_faults(plan);
    sim.run(SimTime::from_secs(8));
    assert!(sim.metrics().counter("updates.processed") > 50);
    assert!(sim.metrics().counter("agg.rejected") > 5);
    let server = sim
        .node(0)
        .as_any()
        .downcast_ref::<FedAsyncServer>()
        .expect("FedAsync server");
    end_state_fingerprint(&[server.params()], &sim)
}

fn clustered_spyker_fingerprint() -> u64 {
    let n_clients = 8;
    let cfg = SpykerConfig::paper_defaults(n_clients, 2);
    let inits = vec![
        ParamVec::from_vec(vec![0.05, -0.05]),
        ParamVec::from_vec(vec![-0.05, 0.05]),
    ];
    // Client node 4 NaN-injects every upload (gate + offer reply).
    let plan = FaultPlan::none().byzantine(4, ByzantineAttack::NanInject { prob: 1.0 });
    let mut sim = Simulation::new(NetworkConfig::aws(), 47).with_faults(plan);
    for s in 0..2usize {
        let clients = (0..n_clients)
            .filter(|i| i % 2 == s)
            .map(|i| 2 + i)
            .collect();
        sim.add_node(
            Box::new(ClusteredSpykerServer::new(
                s,
                vec![0, 1],
                clients,
                inits.clone(),
                cfg.clone(),
                SimTime::from_millis(500),
            )),
            Region::ALL[s],
        );
    }
    for i in 0..n_clients {
        let t = if i % 4 < 2 { 1.0 } else { -1.0 };
        let trainer: Box<dyn ClusterTrainer> =
            Box::new(MeanTargetClusterTrainer::new(vec![t, t], 8));
        sim.add_node(
            Box::new(ClusteredFlClient::new(
                i % 2,
                trainer,
                1,
                SimTime::from_millis(120 + 20 * i as u64),
            )),
            Region::ALL[i % 2],
        );
    }
    sim.run(SimTime::from_secs(8));
    assert!(sim.metrics().counter("updates.processed") > 50);
    assert!(sim.metrics().counter("agg.rejected") > 5);
    let models: Vec<&ParamVec> = (0..2)
        .flat_map(|id| {
            sim.node(id)
                .as_any()
                .downcast_ref::<ClusteredSpykerServer>()
                .expect("clustered server")
                .centers()
                .centers()
        })
        .collect();
    end_state_fingerprint(&models, &sim)
}

#[test]
fn non_spyker_servers_reproduce_their_pinned_end_states() {
    let codec = CodecConfig::parse("delta,topk=0.25,q8").expect("valid spec");
    let trimmed = AggregationStrategy::TrimmedMean {
        batch: 4,
        trim_ratio: 0.25,
    };
    let got = [
        ("sync-spyker dense", sync_spyker_fingerprint(None)),
        (
            "sync-spyker delta,topk,q8",
            sync_spyker_fingerprint(Some(codec)),
        ),
        (
            "fedasync mean",
            fedasync_fingerprint(AggregationStrategy::Mean),
        ),
        ("fedasync trimmed-mean", fedasync_fingerprint(trimmed)),
        ("clustered spyker k=2", clustered_spyker_fingerprint()),
    ];
    let pinned: [u64; 5] = [
        0x168d_e7fa_7ed5_c092,
        0x91f2_1aaa_3fd6_ac92,
        0x5c7f_8afe_7f01_a713,
        0x976b_23a4_01a8_c6db,
        0xe774_387b_af2d_f7d4,
    ];
    let drifted: Vec<String> = got
        .iter()
        .zip(pinned)
        .filter(|((_, fp), want)| fp != want)
        .map(|((name, fp), want)| format!("{name}: got {fp:#018x}, pinned {want:#018x}"))
        .collect();
    assert!(
        drifted.is_empty(),
        "end state drifted:\n{}",
        drifted.join("\n")
    );
}

// ---- End-state fingerprints of Spyker's elastic and recovery paths ----
//
// The golden traces and the scenario presets run fixed rings without
// membership, so nothing else pins what a join, a leave with drain, a
// crash eviction or a token regeneration does to the servers. These were
// recorded before the server actor was split into its exchange and
// membership parts; a change here means a later edit altered one of
// those paths.

/// FNV-1a over every server's model bits, age knowledge and ring epoch,
/// then every touched `membership.*`, `token.*` and `sync*` counter (name
/// and value, in name order) and the two per-update counters.
fn elastic_fingerprint(sim: &Simulation<FlMsg>, servers: &[NodeId]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for &id in servers {
        let s = sim
            .node(id)
            .as_any()
            .downcast_ref::<SpykerServer>()
            .expect("Spyker server");
        for v in s.params().as_slice() {
            eat(&v.to_bits().to_le_bytes());
        }
        for a in s.known_ages() {
            eat(&a.to_bits().to_le_bytes());
        }
        eat(&s.ring_epoch().to_le_bytes());
    }
    let m = sim.metrics();
    for (name, value) in m.counters() {
        if ["membership.", "token.", "sync"]
            .iter()
            .any(|p| name.starts_with(p))
        {
            eat(name.as_bytes());
            eat(&value.to_le_bytes());
        }
    }
    eat(&m.counter("updates.processed").to_le_bytes());
    eat(&m.counter("server.aggs").to_le_bytes());
    h
}

fn elastic_spec(num_servers: usize) -> SpykerDeploymentSpec {
    let n = 6;
    SpykerDeploymentSpec {
        config: SpykerConfig::paper_defaults(n, num_servers)
            .with_thresholds(2.0, 10.0)
            .with_recovery(RecoveryConfig::default())
            .with_membership(MembershipConfig::default()),
        trainers: mean_target_trainers(n),
        num_servers,
        init_params: ParamVec::zeros(PIN_DIM),
        train_delay: pin_delays(n),
    }
}

/// An elastic deployment of `num_servers` base servers and six clients,
/// with `standbys` and `leave_at` as given, run for `secs` under `plan`.
fn run_elastic(
    num_servers: usize,
    standbys: Vec<(Region, Option<SimTime>)>,
    leave_at: Vec<(usize, SimTime)>,
    plan: FaultPlan,
    secs: u64,
) -> (Simulation<FlMsg>, Vec<NodeId>) {
    let (standby_regions, join_after) = standbys.into_iter().unzip();
    let deployment = elastic_spyker_deployment(
        NetworkConfig::aws(),
        53,
        elastic_spec(num_servers),
        ElasticSpec {
            standby_regions,
            join_after,
            leave_at,
            failover_timeout: SimTime::from_secs(4),
            autoscaler: None,
        },
    );
    let servers = (0..num_servers).chain(deployment.standby_ids).collect();
    let mut sim = deployment.sim.with_faults(plan);
    sim.run(SimTime::from_secs(secs));
    assert!(sim.metrics().counter("updates.processed") > 50);
    (sim, servers)
}

fn timed_join_fingerprint() -> u64 {
    let standby = vec![(Region::California, Some(SimTime::from_secs(3)))];
    let (sim, servers) = run_elastic(2, standby, Vec::new(), FaultPlan::none(), 20);
    assert_eq!(sim.metrics().counter("membership.joins"), 1);
    elastic_fingerprint(&sim, &servers)
}

fn voluntary_leave_fingerprint() -> u64 {
    let leave = vec![(2, SimTime::from_secs(6))];
    let (sim, servers) = run_elastic(3, Vec::new(), leave, FaultPlan::none(), 20);
    assert_eq!(sim.metrics().counter("membership.leaves"), 1);
    assert!(sim.metrics().counter("membership.client_rehomes") > 0);
    elastic_fingerprint(&sim, &servers)
}

fn crash_eviction_fingerprint() -> u64 {
    let plan = FaultPlan::none().crash(2, SimTime::from_secs(5), None);
    let (sim, servers) = run_elastic(3, Vec::new(), Vec::new(), plan, 40);
    assert!(sim.metrics().counter("membership.evictions") > 0);
    assert!(sim.metrics().counter("membership.client_failovers") > 0);
    elastic_fingerprint(&sim, &servers)
}

/// A fixed two-server ring that loses every `TokenPass` from server 0 to
/// server 1 for its first 12 s: the token watchdog has to regenerate it.
fn token_regeneration_fingerprint() -> u64 {
    let n = 6;
    let config = SpykerConfig::paper_defaults(n, 2)
        .with_thresholds(3.0, 20.0)
        .with_recovery(RecoveryConfig {
            token_timeout: SimTime::from_secs(2),
            exchange_timeout: SimTime::from_secs(1),
            client_timeout: SimTime::from_secs(1),
        });
    let spec = SpykerDeploymentSpec {
        config,
        trainers: mean_target_trainers(n),
        num_servers: 2,
        init_params: ParamVec::zeros(PIN_DIM),
        train_delay: pin_delays(n),
    };
    let plan = FaultPlan::none().drop_link_window(0, 1, SimTime::ZERO, SimTime::from_secs(12));
    let mut sim = spyker_deployment(NetworkConfig::aws(), 59, spec).with_faults(plan);
    sim.run(SimTime::from_secs(30));
    assert!(sim.metrics().counter("token.regenerated") > 0);
    assert!(sim.metrics().counter("syncs.triggered") > 5);
    elastic_fingerprint(&sim, &[0, 1])
}

#[test]
fn elastic_and_recovery_runs_reproduce_their_pinned_end_states() {
    let got = [
        ("timed join", timed_join_fingerprint()),
        ("voluntary leave", voluntary_leave_fingerprint()),
        ("crash eviction", crash_eviction_fingerprint()),
        ("token regeneration", token_regeneration_fingerprint()),
    ];
    let pinned: [u64; 4] = [
        0xecb3_120d_0a31_3a1d,
        0x9a62_51fc_c81f_a2a3,
        0xcf35_6edb_8609_c5dc,
        0x720c_4ef9_4776_bd36,
    ];
    let drifted: Vec<String> = got
        .iter()
        .zip(pinned)
        .filter(|((_, fp), want)| fp != want)
        .map(|((name, fp), want)| format!("{name}: got {fp:#018x}, pinned {want:#018x}"))
        .collect();
    assert!(
        drifted.is_empty(),
        "end state drifted:\n{}",
        drifted.join("\n")
    );
}
