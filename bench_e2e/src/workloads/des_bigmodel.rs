//! `des_bigmodel_codec`: 4 servers and 32 clients exchanging a 65 536-dim
//! model through `CodecConfig::paper_pipeline()` (delta → top-k 1 % → q8,
//! error feedback) into a trimmed-mean robust buffer, on the AWS network.
//!
//! Why it is here: it is the encoded-update path. Client-side
//! `UpdateEncoder::encode` and the server's decode + `validate_update` +
//! coordinate-wise trimmed mean + lerp + model clones split the time about
//! evenly and `simnet` is below 1 %. The servers ingest `EncodedUpdate`
//! here and dense `ClientUpdate` everywhere else, so a gain on one path
//! that costs the other shows.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use spyker_core::agg::AggregationStrategy;
use spyker_core::client::FlClient;
use spyker_core::config::SpykerConfig;
use spyker_core::deploy::{clients_of_servers, even_assignment, server_region};
use spyker_core::params::ParamVec;
use spyker_core::server::SpykerServer;
use spyker_core::training::MeanTargetTrainer;
use spyker_core::update_codec::CodecConfig;
use spyker_simnet::{NetworkConfig, SimTime, Simulation};

use super::Rep;
use crate::trace::{self, Name, Role};

const SERVERS: usize = 4;
const CLIENTS: usize = 32;
/// Model dimension.
pub const DIM: usize = 65_536;
/// Virtual horizon of one repetition (≈ 1.2 s of wall time).
const HORIZON: SimTime = SimTime::from_secs(4);
/// Robust-buffer batch size.
const BATCH: usize = 8;
/// How far beyond the per-coordinate range of the client targets a server
/// coordinate may sit, in units of that range's own width. The exact hull
/// is not an invariant here: a coordinate top-k keeps skipping piles up
/// error-feedback residual round after round and overshoots when it is
/// finally sent (up to 0.7 beyond a range 2.4 wide over seeds 101–125).
/// One range width of slack lets that pass and still catches a model that
/// diverges.
const HULL_SLACK: f32 = 1.0;

/// The protocol configuration of this workload.
fn config() -> SpykerConfig {
    SpykerConfig::paper_defaults(CLIENTS, SERVERS)
        .with_codec(CodecConfig::paper_pipeline())
        .with_aggregation(AggregationStrategy::TrimmedMean {
            batch: BATCH,
            trim_ratio: 0.25,
        })
}

/// One repetition.
pub fn rep(seed: u64, traced: bool) -> Rep {
    let t0 = Instant::now();
    if traced {
        trace::start(t0);
    }
    // Client `i` pulls coordinate `j` towards `centre_i + wobble_ij`: the
    // centres spread the clients out, the wobble gives top-k distinct
    // magnitudes to select among.
    let mut rng = StdRng::seed_from_u64(seed ^ 0xb16_0de1);
    let targets: Vec<Vec<f32>> = (0..CLIENTS)
        .map(|_| {
            let centre = rng.gen_range(-1.0..=1.0f32);
            (0..DIM)
                .map(|_| centre + rng.gen_range(-0.25..=0.25f32))
                .collect()
        })
        .collect();
    // The same 32 training delays for every seed, dealt to the clients in
    // a seeded order: the seed moves who is fast, not how much work a
    // virtual second holds, so throughput compares across seeds.
    let mut delays: Vec<SimTime> = (0..CLIENTS as u64)
        .map(|i| SimTime::from_micros(100_000 + i * 100_000 / (CLIENTS as u64 - 1)))
        .collect();
    delays.shuffle(&mut rng);
    let mut lo = vec![f32::INFINITY; DIM];
    let mut hi = vec![f32::NEG_INFINITY; DIM];
    for target in &targets {
        for ((lo, hi), &t) in lo.iter_mut().zip(&mut hi).zip(target) {
            *lo = lo.min(t);
            *hi = hi.max(t);
        }
    }

    let config = config();
    let codec = config.codec.expect("this workload is the codec path");
    let assignment = even_assignment(CLIENTS, SERVERS);
    let mut sim = Simulation::new(NetworkConfig::aws(), seed);
    let server_nodes: Vec<usize> = (0..SERVERS).collect();
    for (i, clients) in clients_of_servers(&assignment, SERVERS)
        .into_iter()
        .enumerate()
    {
        let server = SpykerServer::new(
            i,
            server_nodes.clone(),
            clients,
            ParamVec::zeros(DIM),
            config.clone(),
        );
        sim.add_node(
            trace::node(Box::new(server), Role::Server, traced),
            server_region(i),
        );
    }
    for (i, target) in targets.into_iter().enumerate() {
        let trainer = Box::new(MeanTargetTrainer::new(target, 8));
        let client = FlClient::new(
            assignment[i],
            trace::trainer(trainer, traced),
            config.client_epochs,
            delays[i],
        )
        .with_update_codec(codec);
        sim.add_node(
            trace::node(Box::new(client), Role::Client, traced),
            server_region(assignment[i]),
        );
    }
    let setup_s = t0.elapsed().as_secs_f64();

    let timed = Instant::now();
    let report = {
        let _run = trace::span(Name::Loop);
        sim.run(HORIZON)
    };
    let wall_s = timed.elapsed().as_secs_f64();

    let mut problems = Vec::new();
    let m = sim.metrics();
    if m.counter("codec.decode_error") != 0 {
        problems.push(format!(
            "{} updates failed to decode",
            m.counter("codec.decode_error")
        ));
    }
    let (raw, encoded) = (m.counter("net.bytes.raw"), m.counter("net.bytes.encoded"));
    if raw < 30 * encoded {
        problems.push(format!(
            "codec compressed {raw} raw bytes to {encoded}, less than 30x"
        ));
    }
    for s in 0..SERVERS {
        let params = sim
            .node(s)
            .as_any()
            .downcast_ref::<SpykerServer>()
            .expect("servers occupy the first node ids")
            .params()
            .as_slice();
        let outside = params
            .iter()
            .zip(lo.iter().zip(&hi))
            .filter(|(&p, (&lo, &hi))| {
                let slack = HULL_SLACK * (hi - lo);
                !(lo - slack..=hi + slack).contains(&p)
            })
            .count();
        if outside > 0 {
            problems.push(format!(
                "server {s}: {outside} coordinates are not finite or outside the client-target range"
            ));
        }
    }
    Rep {
        setup_s,
        setup_parts: Vec::new(),
        wall_s,
        events: report.events_processed,
        quality: None,
        time_to_target_s: None,
        rtt_ms: Vec::new(),
        metrics: sim.into_metrics(),
        problems,
        spans: vec![trace::finish()],
    }
}
