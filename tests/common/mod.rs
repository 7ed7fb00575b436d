//! Helpers shared by the live-transport tests: localhost addresses, node
//! configs with fast heartbeats, and a whole in-process TCP deployment.

use std::net::{SocketAddr, TcpListener};
use std::thread;
use std::time::Duration;

use spyker_repro::core::client::FlClient;
use spyker_repro::core::config::SpykerConfig;
use spyker_repro::core::params::ParamVec;
use spyker_repro::core::server::SpykerServer;
use spyker_repro::core::training::{LocalTrainer, MeanTargetTrainer};
use spyker_repro::simnet::SimTime;
use spyker_repro::transport::tcp::{run_node, TcpNodeConfig, TcpReport};

/// An ephemeral localhost address that was free a moment ago.
pub fn free_addr() -> SocketAddr {
    TcpListener::bind("127.0.0.1:0")
        .expect("bind ephemeral")
        .local_addr()
        .expect("local addr")
}

pub fn node_cfg(me: usize, num_nodes: usize) -> TcpNodeConfig {
    let mut cfg = TcpNodeConfig::new(me, num_nodes);
    cfg.heartbeat = Duration::from_millis(200);
    cfg.liveness_timeout = Duration::from_secs(1);
    cfg
}

/// Spawns servers 0..S (listening, dialing lower-indexed servers) and
/// clients S..S+N (dialing their server) as one `run_node` thread each,
/// runs for `secs` under `cfg`, and returns all reports in node-id order.
/// Client `i` trains towards the target `i % 4`.
pub fn run_deployment(
    num_servers: usize,
    num_clients: usize,
    secs: u64,
    cfg: SpykerConfig,
) -> Vec<TcpReport> {
    let addrs: Vec<SocketAddr> = (0..num_servers).map(|_| free_addr()).collect();
    let num_nodes = num_servers + num_clients;
    let mut handles = Vec::new();
    for s in 0..num_servers {
        let server_nodes: Vec<usize> = (0..num_servers).collect();
        let clients: Vec<usize> = (0..num_clients)
            .filter(|i| i % num_servers == s)
            .map(|i| num_servers + i)
            .collect();
        let node = Box::new(SpykerServer::new(
            s,
            server_nodes,
            clients,
            ParamVec::zeros(1),
            cfg.clone(),
        ));
        let mut ncfg = node_cfg(s, num_nodes);
        ncfg.listen = Some(addrs[s]);
        ncfg.peers = (0..s).map(|j| (j, addrs[j])).collect();
        handles.push(thread::spawn(move || {
            run_node(node, &ncfg, Duration::from_secs(secs)).expect("server bind")
        }));
    }
    for i in 0..num_clients {
        let server = i % num_servers;
        let trainer: Box<dyn LocalTrainer> =
            Box::new(MeanTargetTrainer::new(vec![(i % 4) as f32], 8));
        let node = Box::new(FlClient::new(server, trainer, 1, SimTime::from_millis(150)));
        let mut ncfg = node_cfg(num_servers + i, num_nodes);
        ncfg.peers = vec![(server, addrs[server])];
        handles.push(thread::spawn(move || {
            run_node(node, &ncfg, Duration::from_secs(secs)).expect("client run")
        }));
    }
    handles
        .into_iter()
        .map(|h| h.join().expect("node thread panicked"))
        .collect()
}
