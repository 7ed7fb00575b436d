//! Adverse-condition tests: extreme stragglers, network jitter, overload,
//! and injected faults (message loss, token drops, server crashes).

use spyker_repro::baselines::deploy::fedasync_deployment;
use spyker_repro::baselines::fedasync::FedAsyncConfig;
use spyker_repro::core::client::FlClient;
use spyker_repro::core::config::{RecoveryConfig, SpykerConfig};
use spyker_repro::core::deploy::{sync_spyker_deployment, SpykerDeploymentSpec};
use spyker_repro::core::msg::FlMsg;
use spyker_repro::core::params::ParamVec;
use spyker_repro::core::training::{LocalTrainer, MeanTargetTrainer};
use spyker_repro::experiments::runner::default_spyker_config;
use spyker_repro::experiments::{run_algorithm, Algorithm, RunOptions, Scenario};
use spyker_repro::simnet::{FaultPlan, NetworkConfig, SimTime, Simulation};

#[test]
fn spyker_survives_an_extreme_straggler_population() {
    // One server's clients are 20x slower than everyone else's.
    let mut scenario = Scenario::mnist(16, 4, 9);
    let mut delays = scenario.delays().to_vec();
    for (i, d) in delays.iter_mut().enumerate() {
        if i % 4 == 0 {
            // all clients of server 0
            *d = SimTime::from_secs(3);
        }
    }
    scenario.set_delays(delays);
    let run = run_algorithm(
        Algorithm::Spyker,
        &scenario,
        &RunOptions::standard().with_max_time(SimTime::from_secs(40)),
    );
    // The slow quarter must not stop the rest of the system from learning.
    assert!(
        run.best_metric().expect("metric") > 0.8,
        "stragglers sank accuracy: {:?}",
        run.best_metric()
    );
    // And the stragglers still participate.
    let straggler_updates: u64 = run
        .client_updates
        .iter()
        .enumerate()
        .filter(|(i, _)| i % 4 == 0)
        .map(|(_, &u)| u)
        .sum();
    assert!(straggler_updates > 0, "stragglers were starved entirely");
}

#[test]
fn heavy_jitter_does_not_break_liveness_or_fifo_assumptions() {
    let scenario = Scenario::mnist(12, 4, 4);
    let opts = RunOptions::standard()
        .with_max_time(SimTime::from_secs(30))
        .with_net(NetworkConfig::aws().with_jitter(SimTime::from_millis(200)));
    let run = run_algorithm(Algorithm::Spyker, &scenario, &opts);
    assert!(run.best_metric().expect("metric") > 0.7);
    assert!(run.metrics.counter("updates.processed") > 100);
}

#[test]
fn fedasync_overload_queues_but_keeps_processing() {
    // Many fast clients saturate the single 2 ms/update server.
    let mut scenario = Scenario::mnist(60, 1, 8);
    scenario.set_delays(vec![SimTime::from_millis(20); 60]);
    let opts = RunOptions {
        probe_interval: SimTime::from_millis(200),
        ..RunOptions::standard().with_max_time(SimTime::from_secs(10))
    };
    let run = run_algorithm(Algorithm::FedAsync, &scenario, &opts);
    let max_queue = run
        .metrics
        .series("queue.max")
        .iter()
        .map(|(_, v)| *v)
        .fold(0.0f64, f64::max);
    assert!(max_queue >= 1.0, "expected queueing under overload");
    // Saturated, the server still processes at its service rate
    // (~500 updates/s for 10 s).
    let processed = run.metrics.counter("updates.processed");
    assert!(processed > 3000, "server stalled: {processed} updates");
}

#[test]
fn sync_spyker_tolerates_a_slow_inter_server_link() {
    // Uniform 400 ms everywhere: synchronous exchanges become expensive
    // but must still complete and buffered updates must not be lost.
    let scenario = Scenario::mnist(12, 4, 6);
    let opts = RunOptions::standard()
        .with_max_time(SimTime::from_secs(30))
        .with_net(NetworkConfig::uniform_all(SimTime::from_millis(400)));
    let run = run_algorithm(Algorithm::SyncSpyker, &scenario, &opts);
    assert!(run.metrics.counter("syncs.triggered") > 0);
    assert!(run.best_metric().expect("metric") > 0.6);
    let sent = run.metrics.counter("updates.sent");
    let processed = run.metrics.counter("updates.processed");
    assert!(
        sent - processed <= 16 + 4,
        "updates lost during buffering: sent {sent}, processed {processed}"
    );
}

/// Recovery-enabled options for a fault run: paper config plus the three
/// watchdogs, and the given fault plan.
fn recovery_opts(scenario: &Scenario, faults: FaultPlan, max: u64) -> RunOptions {
    RunOptions::standard()
        .with_max_time(SimTime::from_secs(max))
        .with_faults(faults)
        .with_spyker_config(
            default_spyker_config(scenario).with_recovery(RecoveryConfig::default()),
        )
}

#[test]
fn spyker_converges_under_five_percent_message_loss() {
    // Every message (client updates, models, tokens, gossip) has a 5%
    // chance of vanishing. The watchdogs must paper over the holes.
    let scenario = Scenario::mnist(12, 4, 11);
    let run = run_algorithm(
        Algorithm::Spyker,
        &scenario,
        &recovery_opts(&scenario, FaultPlan::none().with_loss(0.05), 40),
    );
    assert!(
        run.metrics.counter("fault.dropped") > 0,
        "the loss plan never fired"
    );
    assert!(
        run.best_metric().expect("metric") > 0.8,
        "5% loss sank accuracy: {:?}",
        run.best_metric()
    );
    assert!(run.metrics.counter("updates.processed") > 100);
}

#[test]
fn dropped_token_regenerates_and_synchronisation_resumes() {
    // Cut the server 0 -> server 1 ring link for the first 10 s: the very
    // first token forward dies. Without recovery no exchange would ever
    // complete again; the token watchdog must mint a replacement.
    let scenario = Scenario::mnist(12, 4, 13);
    let faults = FaultPlan::none().drop_link_window(0, 1, SimTime::ZERO, SimTime::from_secs(10));
    let with_recovery = run_algorithm(
        Algorithm::Spyker,
        &scenario,
        &recovery_opts(&scenario, faults.clone(), 40),
    );
    assert!(
        with_recovery.metrics.counter("token.regenerated") > 0,
        "watchdog never regenerated the token"
    );
    assert!(
        with_recovery.metrics.counter("syncs.triggered") > 3,
        "synchronisation did not resume: {} syncs",
        with_recovery.metrics.counter("syncs.triggered")
    );
    // The same cut without recovery strands the ring.
    let without = run_algorithm(
        Algorithm::Spyker,
        &scenario,
        &RunOptions::standard()
            .with_max_time(SimTime::from_secs(40))
            .with_faults(faults),
    );
    assert!(
        with_recovery.metrics.counter("syncs.triggered")
            > without.metrics.counter("syncs.triggered"),
        "recovery did not add syncs over the stranded baseline"
    );
}

#[test]
fn crashed_server_does_not_stop_the_survivors_from_learning() {
    // Server 1 dies at t = 10 s and never comes back. The other three
    // servers must keep exchanging (degraded) and keep improving.
    let scenario = Scenario::mnist(16, 4, 17);
    let faults = FaultPlan::none().crash(1, SimTime::from_secs(10), None);
    let run = run_algorithm(
        Algorithm::Spyker,
        &scenario,
        &recovery_opts(&scenario, faults.clone(), 40),
    );
    assert_eq!(run.metrics.counter("fault.crashes"), 1);
    assert!(
        run.metrics.counter("sync.degraded") > 0,
        "no degraded exchange despite a dead ring member"
    );
    // The probe averages all four server models (including the corpse's
    // frozen one), so the bar is lower than in the healthy runs.
    assert!(
        run.best_metric().expect("metric") > 0.6,
        "survivors stopped learning: {:?}",
        run.best_metric()
    );
    // Syncs must keep flowing after the crash; the stranded-ring baseline
    // stops at whatever it reached by t = 10 s.
    let without = run_algorithm(
        Algorithm::Spyker,
        &scenario,
        &RunOptions::standard()
            .with_max_time(SimTime::from_secs(40))
            .with_faults(faults),
    );
    assert!(
        run.metrics.counter("syncs.triggered") > without.metrics.counter("syncs.triggered"),
        "recovery did not keep the ring turning past the crash"
    );
}

/// Updates client node `client` has sent by the end of `sim`'s run.
fn updates_sent(sim: &Simulation<FlMsg>, client: usize) -> u64 {
    sim.node(client)
        .as_any()
        .downcast_ref::<FlClient>()
        .expect("client node")
        .updates_sent()
}

fn toy_trainers(n: usize) -> Vec<Box<dyn LocalTrainer>> {
    (0..n)
        .map(|i| Box::new(MeanTargetTrainer::new(vec![i as f32], 8)) as Box<dyn LocalTrainer>)
        .collect()
}

#[test]
fn restarted_client_rejoins_fedasync_and_sync_spyker() {
    // A client that crashes at 1 s and restarts at 2 s lost its in-flight
    // round; `FlClient::on_restart` knocks with a `ClientHello`. Every
    // per-update server must answer a *known* client's knock with the
    // current model, or the device idles for the rest of the run (about
    // six rounds fit in the first second at 150 ms per round).
    let restart = |client| {
        FaultPlan::none().crash(client, SimTime::from_secs(1), Some(SimTime::from_secs(2)))
    };
    let delays = vec![SimTime::from_millis(150); 2];

    let mut fedasync = fedasync_deployment(
        NetworkConfig::aws(),
        3,
        FedAsyncConfig::paper_defaults().with_client_lr(0.5),
        toy_trainers(2),
        ParamVec::zeros(1),
        delays.clone(),
        1,
    )
    .with_faults(restart(1));
    fedasync.run(SimTime::from_secs(10));
    assert_eq!(fedasync.metrics().counter("fault.restarts"), 1);
    let sent = updates_sent(&fedasync, 1);
    assert!(sent > 20, "FedAsync never re-admitted the client: {sent}");

    let mut sync_spyker = sync_spyker_deployment(
        NetworkConfig::aws(),
        3,
        SimTime::from_millis(500),
        SpykerDeploymentSpec {
            config: SpykerConfig::paper_defaults(2, 1),
            trainers: toy_trainers(2),
            num_servers: 1,
            init_params: ParamVec::zeros(1),
            train_delay: delays,
        },
    )
    .with_faults(restart(1));
    sync_spyker.run(SimTime::from_secs(10));
    assert_eq!(sync_spyker.metrics().counter("fault.restarts"), 1);
    let sent = updates_sent(&sync_spyker, 1);
    assert!(
        sent > 20,
        "Sync-Spyker never re-admitted the client: {sent}"
    );
    // A knock from a node the server does not serve stays a counted drop.
    assert_eq!(sync_spyker.metrics().counter("net.unexpected"), 0);
}
