//! The tracing wrappers must not change what they wrap: a wrapped run is
//! bit-identical to the bare one, and downcasts reach through them.

use std::time::Instant;

use bench_e2e::trace::{self, Name, Role, TracedNode, NONE};
use spyker_core::client::FlClient;
use spyker_core::cohort::CohortClient;
use spyker_core::config::SpykerConfig;
use spyker_core::deploy::{clients_of_servers, even_assignment, server_region};
use spyker_core::msg::FlMsg;
use spyker_core::params::ParamVec;
use spyker_core::server::SpykerServer;
use spyker_core::training::{LocalTrainer, MeanTargetTrainer};
use spyker_simnet::{NetworkConfig, Node, SimTime, Simulation};

const SERVERS: usize = 2;
const CLIENTS: usize = 6;
const DIM: usize = 16;

/// A 2-server, 6-client deployment, wrapped for tracing or bare.
fn deployment(traced: bool) -> Simulation<FlMsg> {
    let config = SpykerConfig::paper_defaults(CLIENTS, SERVERS);
    let assignment = even_assignment(CLIENTS, SERVERS);
    let mut sim = Simulation::new(NetworkConfig::aws(), 11);
    for (i, clients) in clients_of_servers(&assignment, SERVERS)
        .into_iter()
        .enumerate()
    {
        let server = SpykerServer::new(
            i,
            (0..SERVERS).collect(),
            clients,
            ParamVec::zeros(DIM),
            config.clone(),
        );
        sim.add_node(
            trace::node(Box::new(server), Role::Server, traced),
            server_region(i),
        );
    }
    for (i, &server) in assignment.iter().enumerate() {
        let target: Vec<f32> = (0..DIM).map(|j| i as f32 - 0.1 * j as f32).collect();
        let trainer: Box<dyn LocalTrainer> = Box::new(MeanTargetTrainer::new(target, 8));
        let client = FlClient::new(
            server,
            trace::trainer(trainer, traced),
            config.client_epochs,
            SimTime::from_millis(100 + 17 * i as u64),
        );
        sim.add_node(
            trace::node(Box::new(client), Role::Client, traced),
            server_region(server),
        );
    }
    sim
}

/// Events, processed updates, every counter and the final server models.
type Outcome = (u64, u64, Vec<(String, u64)>, Vec<Vec<u32>>);

fn run(traced: bool) -> Outcome {
    let mut sim = deployment(traced);
    let report = sim.run(SimTime::from_secs(20));
    let params = (0..SERVERS)
        .map(|s| {
            let server = sim
                .node(s)
                .as_any()
                .downcast_ref::<SpykerServer>()
                .expect("downcast reaches through the wrapper");
            server
                .params()
                .as_slice()
                .iter()
                .map(|v| v.to_bits())
                .collect()
        })
        .collect();
    let counters = sim
        .metrics()
        .counters()
        .map(|(name, value)| (name.to_string(), value))
        .collect();
    (
        report.events_processed,
        sim.metrics().counter("updates.processed"),
        counters,
        params,
    )
}

#[test]
fn wrapped_run_is_bit_identical_to_the_bare_run() {
    let bare = run(false);
    assert!(
        bare.1 > 100,
        "the run must do real work, processed {}",
        bare.1
    );

    // Wrappers installed and recording.
    trace::start(Instant::now());
    let wrapped = run(true);
    let spans = trace::finish();
    assert_eq!(wrapped, bare);

    // Every handler, trainer call and effect left a span, properly nested.
    let count = |name: Name| spans.iter().filter(|s| s.name == name).count() as u64;
    assert_eq!(count(Name::Server) + count(Name::Client), bare.0);
    assert_eq!(
        count(Name::Train),
        wrapped.2.iter().find(|c| c.0 == "updates.sent").unwrap().1
    );
    assert!(count(Name::Send) > 0 && count(Name::Metric) > 0);
    for s in &spans {
        assert!(s.start_ns <= s.end_ns);
        if s.parent != NONE {
            let p = &spans[s.parent as usize];
            assert!(
                p.start_ns <= s.start_ns && s.end_ns <= p.end_ns,
                "{s:?} outside {p:?}"
            );
        }
    }
    // A client round and the server handler that consumed its update share
    // an update id.
    let round = spans
        .iter()
        .find(|s| s.name == Name::Client && s.update != 0)
        .expect("a client trained");
    assert!(spans
        .iter()
        .any(|s| s.name == Name::Server && s.update == round.update));

    // Wrappers installed, not recording: still identical.
    assert_eq!(run(true), bare);
}

#[test]
fn downcasts_pass_through_the_wrapper() {
    let config = SpykerConfig::paper_defaults(1, 1);
    let server = SpykerServer::new(0, vec![0], vec![1], ParamVec::zeros(DIM), config);
    let mut wrapped = TracedNode::new(Box::new(server), Role::Server);
    assert!(wrapped.as_any().downcast_ref::<SpykerServer>().is_some());
    assert!(wrapped
        .as_any_mut()
        .downcast_mut::<SpykerServer>()
        .is_some());
    assert!(wrapped.as_any().downcast_ref::<TracedNode>().is_none());

    let trainer = Box::new(MeanTargetTrainer::new(vec![0.0; DIM], 8));
    let client = FlClient::new(0, trainer, 1, SimTime::from_millis(5));
    let mut wrapped = TracedNode::new(Box::new(CohortClient::new(client, 128)), Role::Client);
    let cohort = wrapped.as_any().downcast_ref::<CohortClient>();
    assert_eq!(cohort.map(CohortClient::size), Some(128));
    assert!(wrapped
        .as_any_mut()
        .downcast_mut::<CohortClient>()
        .is_some());
}
