//! Deployment builders for the baseline algorithms.
//!
//! Each builder produces the same client population layout as
//! [`spyker_core::deploy`]: client `i` gets `trainers[i]` and
//! `train_delay[i]`. Single-server algorithms place the server in the first
//! region and spread clients round-robin over all four regions (they are
//! geo-distributed but have no nearby server — the disadvantage the paper
//! quantifies). HierFAVG co-locates clients with their edge server and puts
//! the cloud in the first region.

use spyker_core::client::FlClient;
use spyker_core::deploy::{clients_of_servers, even_assignment, server_region};
use spyker_core::msg::FlMsg;
use spyker_core::params::ParamVec;
use spyker_core::training::LocalTrainer;
use spyker_simnet::{NetworkConfig, Node, Region, SimTime, Simulation};

use crate::fedasync::{FedAsyncConfig, FedAsyncServer};
use crate::fedavg::{FedAvgConfig, FedAvgServer};
use crate::hierfavg::{CloudServer, EdgeServer, HierFavgConfig};

/// The single-server layout: `server` at node 0 in the first region, its
/// clients on ids `1..=n` spread round-robin over all four regions.
fn single_server_deployment(
    net: NetworkConfig,
    seed: u64,
    server: impl Node<FlMsg> + 'static,
    trainers: Vec<Box<dyn LocalTrainer>>,
    train_delay: Vec<SimTime>,
    epochs: usize,
) -> Simulation<FlMsg> {
    assert_eq!(trainers.len(), train_delay.len(), "one delay per trainer");
    let mut sim = Simulation::new(net, seed);
    sim.add_node(Box::new(server), Region::ALL[0]);
    for (i, trainer) in trainers.into_iter().enumerate() {
        sim.add_node(
            Box::new(FlClient::new(0, trainer, epochs, train_delay[i])),
            Region::ALL[i % 4],
        );
    }
    sim
}

/// Builds a FedAvg deployment: server at node 0 (first region), clients
/// `1..=n` spread over the four regions.
///
/// # Panics
///
/// Panics if inputs are inconsistent.
pub fn fedavg_deployment(
    net: NetworkConfig,
    seed: u64,
    cfg: FedAvgConfig,
    trainers: Vec<Box<dyn LocalTrainer>>,
    init_params: ParamVec,
    train_delay: Vec<SimTime>,
    epochs: usize,
) -> Simulation<FlMsg> {
    let server = FedAvgServer::new((1..=trainers.len()).collect(), init_params, cfg);
    single_server_deployment(net, seed, server, trainers, train_delay, epochs)
}

/// Builds a FedAsync deployment: server at node 0 (first region), clients
/// `1..=n` spread over the four regions.
///
/// # Panics
///
/// Panics if inputs are inconsistent.
pub fn fedasync_deployment(
    net: NetworkConfig,
    seed: u64,
    cfg: FedAsyncConfig,
    trainers: Vec<Box<dyn LocalTrainer>>,
    init_params: ParamVec,
    train_delay: Vec<SimTime>,
    epochs: usize,
) -> Simulation<FlMsg> {
    let server = FedAsyncServer::new((1..=trainers.len()).collect(), init_params, cfg);
    single_server_deployment(net, seed, server, trainers, train_delay, epochs)
}

/// Builds a HierFAVG deployment: cloud at node 0 (first region), edges at
/// nodes `1..=num_edges` (round-robin regions), clients co-located with
/// their edge.
///
/// Client `i` reports to edge `i % num_edges`, mirroring the Spyker client
/// assignment so comparisons use identical populations.
///
/// # Panics
///
/// Panics if inputs are inconsistent.
#[allow(clippy::too_many_arguments)] // deployment spec, mirrors the paper's parameter list
pub fn hierfavg_deployment(
    net: NetworkConfig,
    seed: u64,
    cfg: HierFavgConfig,
    num_edges: usize,
    trainers: Vec<Box<dyn LocalTrainer>>,
    init_params: ParamVec,
    train_delay: Vec<SimTime>,
    epochs: usize,
) -> Simulation<FlMsg> {
    assert!(num_edges > 0, "need at least one edge server");
    assert_eq!(trainers.len(), train_delay.len(), "one delay per trainer");
    let mut sim = Simulation::new(net, seed);
    let edges: Vec<usize> = (1..=num_edges).collect();
    sim.add_node(
        Box::new(CloudServer::new(edges, init_params.clone(), cfg)),
        Region::ALL[0],
    );
    let assignment = even_assignment(trainers.len(), num_edges);
    // Client node ids start after cloud + edges.
    let client_ids: Vec<Vec<usize>> = clients_of_servers(&assignment, num_edges)
        .into_iter()
        .map(|v| v.into_iter().map(|id| id + 1).collect())
        .collect();
    for (e, ids) in client_ids.iter().enumerate() {
        sim.add_node(
            Box::new(EdgeServer::new(0, ids.clone(), init_params.clone(), cfg)),
            server_region(e),
        );
    }
    for (i, trainer) in trainers.into_iter().enumerate() {
        let edge = assignment[i];
        sim.add_node(
            Box::new(FlClient::new(1 + edge, trainer, epochs, train_delay[i])),
            server_region(edge),
        );
    }
    sim
}

#[cfg(test)]
mod tests {
    use super::*;
    use spyker_core::training::MeanTargetTrainer;

    fn trainers(n: usize) -> Vec<Box<dyn LocalTrainer>> {
        (0..n)
            .map(|i| Box::new(MeanTargetTrainer::new(vec![i as f32], 8)) as Box<dyn LocalTrainer>)
            .collect()
    }

    #[test]
    fn fedavg_deployment_runs() {
        let mut sim = fedavg_deployment(
            NetworkConfig::aws(),
            1,
            FedAvgConfig::paper_defaults().with_client_lr(0.5),
            trainers(8),
            ParamVec::zeros(1),
            vec![SimTime::from_millis(150); 8],
            1,
        );
        sim.run(SimTime::from_secs(5));
        assert!(sim.metrics().counter("rounds") > 0);
    }

    #[test]
    fn fedasync_deployment_runs() {
        let mut sim = fedasync_deployment(
            NetworkConfig::aws(),
            1,
            FedAsyncConfig::paper_defaults().with_client_lr(0.5),
            trainers(8),
            ParamVec::zeros(1),
            vec![SimTime::from_millis(150); 8],
            1,
        );
        sim.run(SimTime::from_secs(5));
        assert!(sim.metrics().counter("updates.processed") > 8);
    }

    #[test]
    fn hierfavg_deployment_runs() {
        let mut sim = hierfavg_deployment(
            NetworkConfig::aws(),
            1,
            HierFavgConfig::paper_defaults().with_client_lr(0.5),
            4,
            trainers(8),
            ParamVec::zeros(1),
            vec![SimTime::from_millis(150); 8],
            1,
        );
        sim.run(SimTime::from_secs(10));
        assert!(sim.metrics().counter("cloud.rounds") > 0);
        assert_eq!(sim.num_nodes(), 13);
    }

    #[test]
    fn all_deployments_use_identical_client_populations() {
        // Node counts: fedavg/fedasync = 1 + n; hierfavg = 1 + e + n.
        let n = 6;
        let a = fedavg_deployment(
            NetworkConfig::aws(),
            1,
            FedAvgConfig::paper_defaults(),
            trainers(n),
            ParamVec::zeros(1),
            vec![SimTime::from_millis(100); n],
            1,
        );
        assert_eq!(a.num_nodes(), 1 + n);
    }
}
