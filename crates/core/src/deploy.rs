//! Convenience builders that wire a Spyker deployment into a simulation.
//!
//! The experiment harness builds richer topologies directly; these helpers
//! cover the common case — `n` servers spread round-robin over the four AWS
//! regions, clients split (evenly or per an explicit assignment) among the
//! servers and co-located with them.

use spyker_simnet::{NetworkConfig, Node, NodeId, Region, SimTime, Simulation};

use crate::autoscale::{Autoscaler, AutoscalerConfig};
use crate::client::{FailoverConfig, FlClient};
use crate::config::SpykerConfig;
use crate::msg::FlMsg;
use crate::params::ParamVec;
use crate::server::SpykerServer;
use crate::sync_spyker::SyncSpykerServer;
use crate::training::LocalTrainer;

/// Specification of a Spyker deployment.
pub struct SpykerDeploymentSpec {
    /// Protocol configuration.
    pub config: SpykerConfig,
    /// One trainer per client (client `i` runs `trainers[i]`).
    pub trainers: Vec<Box<dyn LocalTrainer>>,
    /// Number of servers (spread round-robin over the four regions).
    pub num_servers: usize,
    /// Initial model, shared by all servers.
    pub init_params: ParamVec,
    /// Per-client local training delay (same length as `trainers`).
    pub train_delay: Vec<SimTime>,
}

impl SpykerDeploymentSpec {
    fn validate(&self, assignment: &[usize]) {
        assert!(self.num_servers > 0, "need at least one server");
        assert_eq!(
            self.train_delay.len(),
            self.trainers.len(),
            "one train delay per client"
        );
        assert_eq!(
            assignment.len(),
            self.trainers.len(),
            "one assignment per client"
        );
        assert!(
            assignment.iter().all(|&s| s < self.num_servers),
            "assignment references unknown server"
        );
    }
}

/// Which server each client reports to: by default client `i` goes to
/// server `i % n`, which splits clients evenly among servers.
pub fn even_assignment(num_clients: usize, num_servers: usize) -> Vec<usize> {
    (0..num_clients).map(|i| i % num_servers).collect()
}

/// Region of server `i` in the round-robin layout used by the builders.
pub fn server_region(i: usize) -> Region {
    Region::ALL[i % 4]
}

/// Node ids of the clients of each server, given an assignment, in a layout
/// where servers occupy ids `0..n` and client `i` has id `n + i`.
pub fn clients_of_servers(assignment: &[usize], num_servers: usize) -> Vec<Vec<usize>> {
    let mut out = vec![Vec::new(); num_servers];
    for (i, &s) in assignment.iter().enumerate() {
        out[s].push(num_servers + i);
    }
    out
}

/// Builds a ready-to-run Spyker simulation.
///
/// Node ids: servers occupy `0..num_servers`, clients follow. Each client is
/// placed in its server's region (the paper assigns clients to their
/// *nearest* server).
///
/// # Panics
///
/// Panics if the spec is inconsistent (empty servers, mismatched lengths).
pub fn spyker_deployment(
    net: NetworkConfig,
    seed: u64,
    spec: SpykerDeploymentSpec,
) -> Simulation<FlMsg> {
    let assignment = even_assignment(spec.trainers.len(), spec.num_servers);
    spyker_deployment_assigned(net, seed, assignment, spec)
}

/// [`spyker_deployment`] with an explicit client→server assignment
/// (`assignment[i]` is the server index of client `i`) — used by the
/// client-imbalance experiment (paper Tab. 7).
///
/// # Panics
///
/// Panics if the spec is inconsistent.
pub fn spyker_deployment_assigned(
    net: NetworkConfig,
    seed: u64,
    assignment: Vec<usize>,
    spec: SpykerDeploymentSpec,
) -> Simulation<FlMsg> {
    deployment_with(net, seed, assignment, spec, None, SpykerServer::new)
}

/// Builds a Sync-Spyker deployment (synchronous server exchange every
/// `sync_period`).
///
/// # Panics
///
/// Panics if the spec is inconsistent.
pub fn sync_spyker_deployment(
    net: NetworkConfig,
    seed: u64,
    sync_period: SimTime,
    spec: SpykerDeploymentSpec,
) -> Simulation<FlMsg> {
    let assignment = even_assignment(spec.trainers.len(), spec.num_servers);
    deployment_with(
        net,
        seed,
        assignment,
        spec,
        None,
        |i, servers, clients, init, cfg| {
            SyncSpykerServer::new(i, servers, clients, init, cfg, sync_period)
        },
    )
}

/// The layout every builder shares: servers (one `server(idx,
/// server_nodes, clients, init_params, config)` each) on ids
/// `0..num_servers`, then client `i` on id `num_servers + i`, attached to
/// server `assignment[i]`, placed in that server's region, and given
/// `failover` when there is one.
fn deployment_with<S: Node<FlMsg> + 'static>(
    net: NetworkConfig,
    seed: u64,
    assignment: Vec<usize>,
    spec: SpykerDeploymentSpec,
    failover: Option<FailoverConfig>,
    server: impl Fn(usize, Vec<NodeId>, Vec<NodeId>, ParamVec, SpykerConfig) -> S,
) -> Simulation<FlMsg> {
    spec.validate(&assignment);
    let n = spec.num_servers;
    let mut sim = Simulation::new(net, seed);
    let server_nodes: Vec<usize> = (0..n).collect();
    for (i, clients) in clients_of_servers(&assignment, n).into_iter().enumerate() {
        let node = server(
            i,
            server_nodes.clone(),
            clients,
            spec.init_params.clone(),
            spec.config.clone(),
        );
        sim.add_node(Box::new(node), server_region(i));
    }
    for (i, trainer) in spec.trainers.into_iter().enumerate() {
        let home = assignment[i];
        let epochs = spec.config.client_epochs;
        let mut client = FlClient::new(home, trainer, epochs, spec.train_delay[i]);
        if let Some(failover) = &failover {
            client = client.with_failover(failover.clone());
        }
        if let Some(codec) = spec.config.codec {
            client = client.with_update_codec(codec);
        }
        sim.add_node(Box::new(client), server_region(home));
    }
    sim
}

/// Elastic extras layered on top of a [`SpykerDeploymentSpec`]: standby
/// servers, scheduled voluntary leaves, client failover, and the
/// autoscaler. Requires `config.membership` to be enabled.
pub struct ElasticSpec {
    /// One standby server per entry, placed in that region, appended to
    /// the node space after the clients.
    pub standby_regions: Vec<Region>,
    /// Per-standby timed join (`Some(t)` splices in at `t`; `None` waits
    /// for the autoscaler). Same length as `standby_regions`.
    pub join_after: Vec<Option<SimTime>>,
    /// Scheduled voluntary leaves: `(server_idx, at)` for base servers.
    pub leave_at: Vec<(usize, SimTime)>,
    /// Client liveness timeout (crash failover). Candidates are every
    /// base and standby server, in id order.
    pub failover_timeout: SimTime,
    /// Deploy an [`Autoscaler`] (as the last node) with this config,
    /// sponsoring through server 0 and activating the standbys in order.
    pub autoscaler: Option<AutoscalerConfig>,
}

/// Node-id map of an elastic deployment (see
/// [`elastic_spyker_deployment`]).
pub struct ElasticDeployment {
    /// The ready-to-run simulation.
    pub sim: Simulation<FlMsg>,
    /// Ids of the standby servers, in `standby_regions` order.
    pub standby_ids: Vec<NodeId>,
    /// Id of the autoscaler node, when one was requested.
    pub autoscaler_id: Option<NodeId>,
}

/// Builds an elastic Spyker deployment: base servers on ids
/// `0..num_servers`, clients next, standby servers after them, the
/// autoscaler (if any) last. Every client gets failover candidates
/// covering all base and standby servers.
///
/// # Panics
///
/// Panics if the spec is inconsistent, membership is not enabled, or the
/// elastic spec's lengths/indices do not line up.
pub fn elastic_spyker_deployment(
    net: NetworkConfig,
    seed: u64,
    spec: SpykerDeploymentSpec,
    elastic: ElasticSpec,
) -> ElasticDeployment {
    assert!(
        spec.config.membership.is_some(),
        "elastic deployment needs membership enabled"
    );
    assert_eq!(
        elastic.standby_regions.len(),
        elastic.join_after.len(),
        "one join_after per standby"
    );
    assert!(
        elastic.leave_at.iter().all(|&(s, _)| s < spec.num_servers),
        "leave_at references unknown server"
    );
    let n = spec.num_servers;
    let num_clients = spec.trainers.len();
    let standby_ids: Vec<NodeId> = (0..elastic.standby_regions.len())
        .map(|k| n + num_clients + k)
        .collect();
    let failover = FailoverConfig {
        candidates: (0..n).chain(standby_ids.iter().copied()).collect(),
        timeout: elastic.failover_timeout,
    };
    let (init_params, config) = (spec.init_params.clone(), spec.config.clone());
    let mut sim = deployment_with(
        net,
        seed,
        even_assignment(num_clients, n),
        spec,
        Some(failover),
        |i, servers, clients, init, cfg| {
            let server = SpykerServer::new(i, servers, clients, init, cfg);
            match elastic.leave_at.iter().find(|&&(s, _)| s == i) {
                Some(&(_, at)) => server.with_leave_at(at),
                None => server,
            }
        },
    );
    for (k, &region) in elastic.standby_regions.iter().enumerate() {
        let standby = SpykerServer::standby(
            region,
            init_params.clone(),
            config.clone(),
            Some(0),
            elastic.join_after[k],
        );
        let id = sim.add_node(Box::new(standby), region);
        debug_assert_eq!(id, standby_ids[k]);
    }
    let autoscaler_id = elastic.autoscaler.map(|cfg| {
        sim.add_node(
            Box::new(Autoscaler::new(cfg, 0, standby_ids.clone())),
            server_region(0),
        )
    });
    ElasticDeployment {
        sim,
        standby_ids,
        autoscaler_id,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::training::MeanTargetTrainer;

    fn toy_spec(num_clients: usize, num_servers: usize) -> SpykerDeploymentSpec {
        SpykerDeploymentSpec {
            config: SpykerConfig::paper_defaults(num_clients, num_servers)
                .with_thresholds(2.0, 50.0),
            trainers: (0..num_clients)
                .map(|i| {
                    Box::new(MeanTargetTrainer::new(vec![i as f32], 8)) as Box<dyn LocalTrainer>
                })
                .collect(),
            num_servers,
            init_params: ParamVec::zeros(1),
            train_delay: vec![SimTime::from_millis(150); num_clients],
        }
    }

    #[test]
    fn even_assignment_is_balanced() {
        let a = even_assignment(10, 4);
        let counts: Vec<usize> = (0..4)
            .map(|s| a.iter().filter(|&&x| x == s).count())
            .collect();
        assert_eq!(counts, vec![3, 3, 2, 2]);
    }

    #[test]
    fn clients_of_servers_uses_offset_node_ids() {
        let of = clients_of_servers(&[0, 1, 0], 2);
        assert_eq!(of[0], vec![2, 4]);
        assert_eq!(of[1], vec![3]);
    }

    #[test]
    fn spyker_deployment_runs_and_processes_updates() {
        let mut sim = spyker_deployment(NetworkConfig::aws(), 11, toy_spec(8, 4));
        assert_eq!(sim.num_nodes(), 12);
        sim.run(SimTime::from_secs(5));
        assert!(sim.metrics().counter("updates.processed") > 8);
    }

    #[test]
    fn sync_spyker_deployment_runs() {
        let mut sim = sync_spyker_deployment(
            NetworkConfig::aws(),
            11,
            SimTime::from_millis(500),
            toy_spec(8, 4),
        );
        sim.run(SimTime::from_secs(5));
        assert!(sim.metrics().counter("updates.processed") > 8);
        assert!(sim.metrics().counter("syncs.triggered") > 0);
    }

    #[test]
    fn imbalanced_assignment_is_respected() {
        // 6 clients, server 0 takes 4 of them.
        let assignment = vec![0, 0, 0, 0, 1, 1];
        let mut spec = toy_spec(6, 2);
        spec.config = SpykerConfig::paper_defaults(6, 2).with_thresholds(2.0, 50.0);
        let mut sim = spyker_deployment_assigned(NetworkConfig::aws(), 2, assignment, spec);
        sim.run(SimTime::from_secs(5));
        let s0 = sim.node(0).as_any().downcast_ref::<SpykerServer>().unwrap();
        let s1 = sim.node(1).as_any().downcast_ref::<SpykerServer>().unwrap();
        assert!(s0.processed_updates() > s1.processed_updates());
    }

    #[test]
    fn elastic_deployment_joins_leaves_and_keeps_training() {
        // 2 base servers, 6 clients, 1 standby joining at t=2, server 1
        // leaving at t=8: two membership epochs in one run.
        let mut spec = toy_spec(6, 2);
        spec.config = SpykerConfig::paper_defaults(6, 2)
            .with_thresholds(2.0, 50.0)
            .with_recovery(crate::config::RecoveryConfig::default())
            .with_membership(crate::membership::MembershipConfig::default());
        let elastic = ElasticSpec {
            standby_regions: vec![Region::California],
            join_after: vec![Some(SimTime::from_secs(2))],
            leave_at: vec![(1, SimTime::from_secs(8))],
            failover_timeout: SimTime::from_secs(4),
            autoscaler: None,
        };
        let mut dep = elastic_spyker_deployment(NetworkConfig::aws(), 5, spec, elastic);
        assert_eq!(dep.standby_ids, vec![8]);
        dep.sim.run(SimTime::from_secs(30));
        let m = dep.sim.metrics();
        assert_eq!(m.counter("membership.joins"), 1);
        assert_eq!(m.counter("membership.leaves"), 1);
        assert_eq!(m.gauge("membership.ring_size"), Some(2.0));
        // Epoch 2: one join + one leave.
        let joiner = dep
            .sim
            .node(8)
            .as_any()
            .downcast_ref::<SpykerServer>()
            .unwrap();
        assert_eq!(joiner.ring_epoch(), 2);
        assert!(joiner.is_ring_member());
        assert!(m.counter("membership.client_rehomes") >= 1);
        assert!(m.counter("updates.processed") > 20);
        for id in [0usize, 8] {
            let s = dep
                .sim
                .node(id)
                .as_any()
                .downcast_ref::<SpykerServer>()
                .unwrap();
            assert_eq!(s.tokens_regenerated(), 0, "server {id} lost the token");
        }
    }

    #[test]
    fn elastic_deployment_with_autoscaler_places_it_last() {
        let mut spec = toy_spec(4, 2);
        spec.config = SpykerConfig::paper_defaults(4, 2)
            .with_thresholds(2.0, 50.0)
            .with_membership(crate::membership::MembershipConfig::default());
        let elastic = ElasticSpec {
            standby_regions: vec![Region::Paris, Region::Sydney],
            join_after: vec![None, None],
            leave_at: Vec::new(),
            failover_timeout: SimTime::from_secs(4),
            autoscaler: Some(AutoscalerConfig::defaults()),
        };
        let dep = elastic_spyker_deployment(NetworkConfig::aws(), 5, spec, elastic);
        assert_eq!(dep.standby_ids, vec![6, 7]);
        assert_eq!(dep.autoscaler_id, Some(8));
        assert_eq!(dep.sim.num_nodes(), 9);
    }

    #[test]
    #[should_panic(expected = "one train delay per client")]
    fn deployment_rejects_mismatched_delays() {
        let mut spec = toy_spec(4, 2);
        spec.train_delay.pop();
        let _ = spyker_deployment(NetworkConfig::aws(), 1, spec);
    }
}
