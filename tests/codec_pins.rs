//! Pins encoded client rounds large enough to leave the event loop.
//!
//! The golden codec report and the simtest corpus stay below 1 024
//! coordinates, so none of them reaches an encoded round that a DES client
//! hands to a pool worker (DESIGN.md §10.5). These runs do: `run_algorithm`
//! for Spyker and Sync-Spyker on the 6 506-parameter cifar-like MLP under
//! three pipelines, and a `MeanTargetTrainer` deployment at dimension 1 000
//! (inline), 1 024 and 4 096 under the same three. Each run is reduced to
//! one FNV-1a fingerprint: the evaluation samples, the update and byte
//! counters and the per-client update counts for the former; every server
//! model's bits, the byte counters, `codec.decoded` and every client's
//! `codec_ledger()` for the latter. The deployment aggregates with `Mean`:
//! under a trimmed mean with 1 % top-k the server models never leave zero
//! (DESIGN.md §16.3), and a pin would hash zeros.
//!
//! The constants were computed before encoded rounds could run off the
//! event loop, and hold under every thread budget: `scripts/check.sh` runs
//! this test a second time with `SPYKER_THREADS=1`, where every round is
//! inline. Never edit a constant to make this test pass — a mismatch means
//! a run's arithmetic or its event order changed.

use spyker_repro::core::client::FlClient;
use spyker_repro::core::config::SpykerConfig;
use spyker_repro::core::deploy::{spyker_deployment, SpykerDeploymentSpec};
use spyker_repro::core::server::SpykerServer;
use spyker_repro::core::training::{LocalTrainer, MeanTargetTrainer};
use spyker_repro::core::update_codec::{CodecConfig, QuantBits};
use spyker_repro::core::ParamVec;
use spyker_repro::experiments::runner::{default_spyker_config, RunResult};
use spyker_repro::experiments::{run_algorithm, Algorithm, RunOptions, Scenario};
use spyker_repro::simnet::{Metrics, NetworkConfig, SimTime};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv(h: &mut u64, word: u64) {
    for b in word.to_le_bytes() {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(FNV_PRIME);
    }
}

/// The three pipelines every run is pinned under.
fn pipelines() -> [(&'static str, CodecConfig); 3] {
    [
        ("paper", CodecConfig::paper_pipeline()),
        ("q4", CodecConfig::identity().with_quant(QuantBits::Q4)),
        (
            "delta",
            CodecConfig {
                delta: true,
                ..CodecConfig::identity()
            },
        ),
    ]
}

/// The update and byte counters both kinds of run fold in.
fn fold_counters(h: &mut u64, metrics: &Metrics) {
    for name in [
        "updates.sent",
        "updates.processed",
        "net.bytes",
        "net.bytes.raw",
        "net.bytes.encoded",
        "net.bytes.saved",
        "codec.decoded",
    ] {
        fnv(h, metrics.counter(name));
    }
}

fn run_fingerprint(run: &RunResult) -> u64 {
    let mut h = FNV_OFFSET;
    fnv(&mut h, run.samples.len() as u64);
    for s in &run.samples {
        fnv(&mut h, s.time.as_micros());
        fnv(&mut h, s.updates);
        fnv(&mut h, s.metric.to_bits());
        fnv(&mut h, s.loss.to_bits());
    }
    fold_counters(&mut h, &run.metrics);
    fnv(&mut h, run.client_updates.len() as u64);
    for &n in &run.client_updates {
        fnv(&mut h, n);
    }
    h
}

/// Asserts `got` against `pins`, naming every run on a mismatch.
fn assert_pinned(got: &[(String, u64)], pins: &[u64]) {
    assert_eq!(got.len(), pins.len());
    for ((name, have), &want) in got.iter().zip(pins) {
        assert_eq!(
            *have, want,
            "{name}: fingerprint {have:#018x}, pinned {want:#018x}; all: {got:#x?}"
        );
    }
}

#[test]
fn encoded_cifar_runs_are_pinned() {
    let scenario = Scenario::cifar(20, 2, 5);
    let mut got = Vec::new();
    for (name, codec) in pipelines() {
        for alg in [Algorithm::Spyker, Algorithm::SyncSpyker] {
            let opts = RunOptions::standard()
                .with_max_time(SimTime::from_secs(5))
                .with_probe_interval(SimTime::from_secs(1))
                .with_spyker_config(default_spyker_config(&scenario).with_codec(codec));
            let run = run_algorithm(alg, &scenario, &opts);
            assert!(
                run.metrics.counter("codec.decoded") > 0,
                "{alg} {name}: no encoded update was decoded"
            );
            got.push((format!("{alg} {name}"), run_fingerprint(&run)));
        }
    }
    assert_pinned(
        &got,
        &[
            0x0d11_cd0b_0ad7_695e, // Spyker paper
            0x8ccb_ebd9_46b4_bb0d, // Sync-Spyker paper
            0x05c8_06d5_4295_9d79, // Spyker q4
            0x4e75_b42d_a1ba_7390, // Sync-Spyker q4
            0x8ca3_a00f_f5d8_3da6, // Spyker delta
            0xa114_e62b_7133_d088, // Sync-Spyker delta
        ],
    );
}

const SERVERS: usize = 4;
const CLIENTS: usize = 16;

/// One `MeanTargetTrainer` deployment at `dim` under `codec`, reduced to
/// its fingerprint.
fn mean_target_fingerprint(dim: usize, codec: CodecConfig) -> u64 {
    let trainers: Vec<Box<dyn LocalTrainer>> = (0..CLIENTS)
        .map(|i| {
            let target = (0..dim)
                .map(|j| ((i * 31 + j * 7) % 17) as f32 / 8.0 - 1.0)
                .collect();
            Box::new(MeanTargetTrainer::new(target, 4 + i)) as Box<dyn LocalTrainer>
        })
        .collect();
    let spec = SpykerDeploymentSpec {
        config: SpykerConfig::paper_defaults(CLIENTS, SERVERS).with_codec(codec),
        trainers,
        num_servers: SERVERS,
        init_params: ParamVec::zeros(dim),
        train_delay: (0..CLIENTS as u64)
            .map(|i| SimTime::from_millis(100 + 7 * i))
            .collect(),
    };
    let mut sim = spyker_deployment(NetworkConfig::aws(), 7, spec);
    sim.run(SimTime::from_secs(3));
    let mut h = FNV_OFFSET;
    for i in 0..SERVERS {
        let server = sim.node(i).as_any().downcast_ref::<SpykerServer>();
        let params = server.expect("a server").params();
        fnv(&mut h, params.len() as u64);
        for v in params.as_slice() {
            fnv(&mut h, u64::from(v.to_bits()));
        }
    }
    fold_counters(&mut h, sim.metrics());
    for i in SERVERS..SERVERS + CLIENTS {
        let client = sim.node(i).as_any().downcast_ref::<FlClient>();
        let (raw, encoded) = client.expect("a client").codec_ledger().expect("a codec");
        fnv(&mut h, raw);
        fnv(&mut h, encoded);
    }
    assert!(
        sim.metrics().counter("codec.decoded") > 0,
        "nothing decoded"
    );
    h
}

#[test]
fn encoded_mean_target_deployments_are_pinned() {
    let mut got = Vec::new();
    for dim in [1000, 1024, 4096] {
        for (name, codec) in pipelines() {
            got.push((
                format!("dim {dim} {name}"),
                mean_target_fingerprint(dim, codec),
            ));
        }
    }
    assert_pinned(
        &got,
        &[
            0xbd9a_159b_f7e1_cf01, // dim 1 000 paper
            0x86ff_9dc6_71de_f105, // dim 1 000 q4
            0xf749_313b_5adb_3bf7, // dim 1 000 delta
            0x15a1_0625_9d74_8120, // dim 1 024 paper
            0x08ba_1615_b952_e45d, // dim 1 024 q4
            0x38b9_3cfa_5176_08fb, // dim 1 024 delta
            0xdeab_9fb5_bf7f_a3dc, // dim 4 096 paper
            0x2a69_0a84_63d0_d557, // dim 4 096 q4
            0xa0cc_ca83_d799_e470, // dim 4 096 delta
        ],
    );
}
