//! Byzantine-robustness integration tests: sign-flip attackers against the
//! full defence pipeline (validation gate + robust aggregation), and
//! bit-reproducibility of seeded adversarial runs.

use spyker_repro::core::agg::{AggregationStrategy, ValidationConfig};
use spyker_repro::core::client::FlClient;
use spyker_repro::core::config::SpykerConfig;
use spyker_repro::core::deploy::{sync_spyker_deployment, SpykerDeploymentSpec};
use spyker_repro::core::params::ParamVec;
use spyker_repro::core::sync_spyker::SyncSpykerServer;
use spyker_repro::core::training::{LocalTrainer, MeanTargetTrainer};
use spyker_repro::core::update_codec::CodecConfig;
use spyker_repro::experiments::runner::default_spyker_config;
use spyker_repro::experiments::{
    run_algorithm, Algorithm, RunOptions, RunResult, Scenario, TaskKind,
};
use spyker_repro::simnet::{ByzantineAttack, FaultPlan, NetworkConfig, SimTime};

/// Paper config with the decay schedule frozen: decay-weighted aggregation
/// would anneal a sustained attack toward zero along with every honest
/// client, hiding the damage the aggregator is supposed to prevent.
fn base_config(scenario: &Scenario) -> SpykerConfig {
    let cfg = default_spyker_config(scenario);
    let decay = cfg.decay.disabled();
    cfg.with_decay(decay)
}

/// `k` sign-flip attackers on the first `k` clients (nodes `n_servers..`).
fn sign_flip_plan(n_servers: usize, k: usize) -> FaultPlan {
    let mut plan = FaultPlan::none();
    for i in 0..k {
        plan = plan.byzantine(n_servers + i, ByzantineAttack::SignFlip);
    }
    plan
}

fn run(scenario: &Scenario, cfg: SpykerConfig, faults: FaultPlan) -> RunResult {
    run_algorithm(
        Algorithm::Spyker,
        scenario,
        &RunOptions::standard()
            .with_max_time(SimTime::from_secs(40))
            .with_spyker_config(cfg)
            .with_faults(faults),
    )
}

/// Mean accuracy over the second half of the probe series — the converged
/// regime, where an un-defended run keeps getting re-poisoned.
fn late_accuracy(run: &RunResult) -> f64 {
    let half = &run.samples[run.samples.len() / 2..];
    half.iter().map(|s| s.metric).sum::<f64>() / half.len() as f64
}

#[test]
fn sign_flip_attackers_break_plain_mean_but_not_the_robust_pipeline() {
    // 12 clients on 2 servers, k = 3 < n/3 attackers. Even assignment puts
    // two attackers on server 0 (a third of its clients) and one on
    // server 1; the token exchange spreads whatever poison lands.
    let scenario = Scenario::mnist(12, 2, 9);
    let k = 3;
    let plan = sign_flip_plan(scenario.n_servers, k);
    let batch = scenario.n_clients / scenario.n_servers;
    let trimmed = AggregationStrategy::TrimmedMean {
        batch,
        trim_ratio: 0.25,
    };
    // The full pipeline: norm gate plus trimmed-mean for whatever slips
    // under the bound. In this scenario honest deltas stay under norm ~3
    // while a sign-flipped model sits ~2 model norms (~7) away from the
    // server's, so the bound separates them with margin on both sides (a
    // tighter bound starts gating out honest minority-label clients).
    let gate = ValidationConfig {
        max_delta_norm: Some(4.0),
        ..ValidationConfig::default()
    };

    let fault_free = run(&scenario, base_config(&scenario), FaultPlan::none());
    let attacked_mean = run(&scenario, base_config(&scenario), plan.clone());
    let attacked_trimmed = run(
        &scenario,
        base_config(&scenario)
            .with_aggregation(trimmed)
            .with_validation(gate),
        plan,
    );

    let baseline = late_accuracy(&fault_free);
    let mean_late = late_accuracy(&attacked_mean);
    let trimmed_late = late_accuracy(&attacked_trimmed);
    assert!(baseline > 0.9, "fault-free baseline too weak: {baseline}");
    // The attack actually ran, corrupting updates in flight.
    assert!(attacked_mean.metrics.counter("fault.byzantine") > 50);
    // Plain mean degrades: constant re-poisoning keeps knocking the model
    // off its converged point.
    assert!(
        mean_late < baseline - 0.04,
        "plain mean did not degrade under attack: {mean_late} vs fault-free {baseline}"
    );
    // The robust pipeline stays within 5% of the fault-free run...
    assert!(
        trimmed_late > baseline - 0.05,
        "trimmed mean lost more than 5%: {trimmed_late} vs fault-free {baseline}"
    );
    // ...and clearly beats the undefended mean.
    assert!(trimmed_late > mean_late);
    // Every rejection is visible in the agg.* metrics, and the gate (not
    // silent luck) did the filtering.
    let rejected = attacked_trimmed.metrics.counter("agg.rejected");
    assert!(rejected > 50, "gate never fired: {rejected} rejections");
    assert_eq!(
        rejected,
        attacked_trimmed.metrics.counter("agg.rejected.norm")
            + attacked_trimmed.metrics.counter("agg.rejected.nonfinite")
            + attacked_trimmed.metrics.counter("agg.rejected.stale"),
        "rejection causes do not add up to the total"
    );
    // The undefended run rejected nothing (finite payloads, trusting gate).
    assert_eq!(attacked_mean.metrics.counter("agg.rejected"), 0);
}

#[test]
fn median_aggregation_also_converges_under_attack() {
    let scenario = Scenario::mnist(12, 2, 9);
    let plan = sign_flip_plan(scenario.n_servers, 3);
    let gate = ValidationConfig {
        max_delta_norm: Some(4.0),
        ..ValidationConfig::default()
    };
    let median = AggregationStrategy::Median {
        batch: scenario.n_clients / scenario.n_servers,
    };
    let attacked = run(
        &scenario,
        base_config(&scenario)
            .with_aggregation(median)
            .with_validation(gate),
        plan,
    );
    // The median pays a heterogeneity penalty on non-IID shards (it damps
    // minority-label coordinates), so the bar is "converges", not "matches
    // the fault-free mean".
    assert!(
        late_accuracy(&attacked) > 0.85,
        "median failed to converge under attack: {}",
        late_accuracy(&attacked)
    );
    assert!(attacked.metrics.counter("agg.robust.flushes") > 10);
}

#[test]
fn sign_flip_through_the_codec_pipeline_is_still_defeated() {
    // Same attack family, but every client update now rides the stacked
    // `delta → topk → q8` wire format. A sign-flip on an encoded payload
    // negates the quantized codes, so the server decodes an exactly
    // negated delta — a *small-norm* anti-training step the norm gate
    // cannot see, which the trimmed mean must absorb *after* decoding
    // (decode-before-validate, DESIGN.md §16).
    //
    // Two deliberate calibration choices:
    //  * IID shards: coordinate-wise trimming needs an honest majority
    //    per coordinate. Under the l=2 non-IID partition a flipped client
    //    is the *only* voice for its minority labels, so no coordinate
    //    statistic can separate its poison from honest minority signal
    //    (the dense test dodges this via the norm gate, which the coded
    //    attack evades by construction).
    //  * topk = 10%, not the headline 1%: robust batching degenerates
    //    when updates are so sparse that trimming discards the few
    //    honest movers per coordinate (see DESIGN.md §16).
    let scenario = Scenario::build(TaskKind::MnistLike, 12, 2, 9, 0.05, None, 150.0, 7.5);
    // Attackers spread over both servers (clients of server 0 are nodes
    // 2..8): per-batch poison stays below the trim depth.
    let mut plan = FaultPlan::none();
    for id in [2usize, 3, 8] {
        plan = plan.byzantine(id, ByzantineAttack::SignFlip);
    }
    let trimmed = AggregationStrategy::TrimmedMean {
        batch: scenario.n_clients / scenario.n_servers,
        trim_ratio: 0.34,
    };
    let gate = ValidationConfig {
        max_delta_norm: Some(4.0),
        ..ValidationConfig::default()
    };
    let codec = CodecConfig::parse("delta,topk=0.1,q8").expect("valid spec");
    let defence = || {
        base_config(&scenario)
            .with_codec(codec)
            .with_aggregation(trimmed)
            .with_validation(gate)
    };

    let fault_free = run(&scenario, defence(), FaultPlan::none());
    let defended = run(&scenario, defence(), plan.clone());
    let undefended = run(&scenario, base_config(&scenario).with_codec(codec), plan);

    let baseline = late_accuracy(&fault_free);
    let defended_late = late_accuracy(&defended);
    let undefended_late = late_accuracy(&undefended);
    assert!(
        baseline > 0.9,
        "coded fault-free defence baseline too weak: {baseline}"
    );
    // The attack fired on encoded payloads, and the server really decoded
    // them (no silent fallback to the dense path).
    assert!(defended.metrics.counter("fault.byzantine") > 50);
    assert!(defended.metrics.counter("codec.decoded") > 100);
    // A code-negated payload still parses — the poison is only visible
    // in the decoded values, which is exactly where the defence looks.
    assert_eq!(defended.metrics.counter("codec.decode_error"), 0);
    // Undefended, the coded sign-flip does real damage...
    assert!(
        undefended_late < baseline - 0.1,
        "the coded attack was toothless: {undefended_late} vs {baseline}"
    );
    // ...the gated trimmed mean absorbs it.
    assert!(
        defended_late > baseline - 0.05,
        "defence lost more than 5% under coded sign-flip: {defended_late} vs {baseline}"
    );
    assert!(defended_late > undefended_late);
}

#[test]
fn nan_injection_in_encoded_payloads_is_caught_after_decoding() {
    // NaN injection on an encoded update corrupts the payload's scale
    // field: the bytes still parse, so the only place the poison can be
    // caught is the validation gate running on the *decoded* parameters.
    // A rejected-nonfinite count proves the decode-before-validate order.
    let scenario = Scenario::mnist(8, 2, 21);
    let plan = FaultPlan::none()
        .byzantine(2, ByzantineAttack::NanInject { prob: 0.5 })
        .byzantine(3, ByzantineAttack::NanInject { prob: 0.5 });
    let attacked = run(
        &scenario,
        base_config(&scenario).with_codec(CodecConfig::paper_pipeline()),
        plan,
    );
    assert!(attacked.metrics.counter("fault.byzantine") > 0);
    // The payloads parsed fine; the gate caught the NaNs post-decode.
    assert_eq!(attacked.metrics.counter("codec.decode_error"), 0);
    assert!(
        attacked.metrics.counter("agg.rejected.nonfinite") > 0,
        "the gate never saw the decoded NaNs"
    );
    // The honest majority still converges; no NaN ever reached the model.
    assert!(
        late_accuracy(&attacked) > 0.85,
        "honest clients failed to converge: {}",
        late_accuracy(&attacked)
    );
}

#[test]
fn seeded_byzantine_run_is_bit_reproducible() {
    // Every stochastic attack (noise draws, NaN coin flips) comes from the
    // deterministic per-node fault RNG stream, so two identical runs must
    // agree on every probe sample and every metric — bit for bit.
    let once = || {
        let scenario = Scenario::mnist(8, 2, 21);
        let plan = FaultPlan::none()
            .byzantine(2, ByzantineAttack::GaussianNoise { sigma: 0.5 })
            .byzantine(3, ByzantineAttack::NanInject { prob: 0.3 })
            .byzantine(4, ByzantineAttack::SignFlip);
        let gate = ValidationConfig {
            max_delta_norm: Some(4.0),
            ..ValidationConfig::default()
        };
        let trimmed = AggregationStrategy::TrimmedMean {
            batch: 4,
            trim_ratio: 0.25,
        };
        run_algorithm(
            Algorithm::Spyker,
            &scenario,
            &RunOptions::standard()
                .with_max_time(SimTime::from_secs(15))
                .with_spyker_config(
                    base_config(&scenario)
                        .with_aggregation(trimmed)
                        .with_validation(gate),
                )
                .with_faults(plan),
        )
    };
    let a = once();
    let b = once();
    assert!(
        a.metrics.counter("fault.byzantine") > 0,
        "the byzantine plan never fired"
    );
    assert!(
        a.metrics.counter("agg.rejected.nonfinite") > 0,
        "NaN injection never reached the gate"
    );
    assert_eq!(a.samples, b.samples, "probe series diverged between runs");
    let counters = |r: &RunResult| -> Vec<(String, u64)> {
        r.metrics
            .counters()
            .map(|(k, v)| (k.to_string(), v))
            .collect()
    };
    assert_eq!(counters(&a), counters(&b), "metrics diverged between runs");
    assert_eq!(a.client_updates, b.client_updates);
}

#[test]
fn sync_spyker_gates_nan_updates_like_every_other_server() {
    // Sync-Spyker integrates client updates through the same ingest path
    // as Spyker, so `SpykerConfig::validation` (default: reject
    // non-finite) applies: a client NaN-injecting every upload must not
    // poison either server, every rejection must be counted, and the
    // attacker must still be answered (the protocol is reactive — a
    // silent reject would starve the device forever).
    let n = 4;
    let trainers = (0..n)
        .map(|i| Box::new(MeanTargetTrainer::new(vec![i as f32; 4], 8)) as Box<dyn LocalTrainer>)
        .collect();
    let attacker = 2; // first client node (servers are 0 and 1)
    let mut sim = sync_spyker_deployment(
        NetworkConfig::aws(),
        5,
        SimTime::from_millis(500),
        SpykerDeploymentSpec {
            config: SpykerConfig::paper_defaults(n, 2),
            trainers,
            num_servers: 2,
            init_params: ParamVec::zeros(4),
            train_delay: vec![SimTime::from_millis(150); n],
        },
    )
    .with_faults(FaultPlan::none().byzantine(attacker, ByzantineAttack::NanInject { prob: 1.0 }));
    sim.run(SimTime::from_secs(10));
    assert!(sim.metrics().counter("fault.byzantine.nan") > 0);
    for id in 0..2 {
        let server = sim
            .node(id)
            .as_any()
            .downcast_ref::<SyncSpykerServer>()
            .expect("Sync-Spyker server");
        assert!(server.params().is_finite(), "server {id} was poisoned");
    }
    let rejected = sim.metrics().counter("agg.rejected.nonfinite");
    assert!(rejected > 0, "the gate never fired");
    assert_eq!(rejected, sim.metrics().counter("agg.rejected"));
    let sent = sim
        .node(attacker)
        .as_any()
        .downcast_ref::<FlClient>()
        .expect("client")
        .updates_sent();
    assert!(
        sent > 10,
        "rejected client was starved after {sent} updates"
    );
}
