//! The protocol actors on the real TCP transport: one `run_node` per
//! thread, localhost sockets in between. The full multi-process story
//! (SIGKILL + restart) lives in `scripts/soak.sh`; this covers the
//! in-process end of the same code path.

mod common;

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::thread;
use std::time::{Duration, Instant};

use spyker_repro::core::client::{FailoverConfig, FlClient};
use spyker_repro::core::codec;
use spyker_repro::core::config::{RecoveryConfig, SpykerConfig};
use spyker_repro::core::membership::{MembershipConfig, RingMember, RingView};
use spyker_repro::core::msg::FlMsg;
use spyker_repro::core::params::ParamVec;
use spyker_repro::core::server::SpykerServer;
use spyker_repro::core::training::{LocalTrainer, MeanTargetTrainer};
use spyker_repro::simnet::{Region, SimTime};
use spyker_repro::transport::tcp::{run_malformed_client, run_node, TcpReport};

use common::{free_addr, node_cfg, run_deployment};

fn config(num_clients: usize, num_servers: usize) -> SpykerConfig {
    SpykerConfig::paper_defaults(num_clients, num_servers)
        .with_thresholds(2.0, 25.0)
        .with_recovery(RecoveryConfig::default())
}

#[test]
fn spyker_trains_over_tcp_sockets() {
    let reports = run_deployment(2, 4, 6, config(4, 2));
    let processed: u64 = reports[..2]
        .iter()
        .map(|r| r.metrics.counter("updates.processed"))
        .sum();
    assert!(processed > 10, "too few updates over TCP: {processed}");
    for (s, report) in reports[..2].iter().enumerate() {
        assert!(
            report.metrics.counter("net.conn.accepted") > 0,
            "server {s} accepted no connections"
        );
        let server = report
            .node
            .as_any()
            .downcast_ref::<SpykerServer>()
            .expect("server");
        let v = server.params().as_slice()[0];
        assert!(v > 0.0 && v < 3.0, "server {s} model off at {v}");
        assert!(server.age() > 0.0, "server {s} model never aged");
    }
    for (c, report) in reports[2..].iter().enumerate() {
        assert!(
            report.metrics.counter("net.conn.dialed") > 0,
            "client {c} never connected"
        );
        assert!(report.metrics.counter("net.bytes") > 0);
    }
}

#[test]
fn malformed_frames_do_not_panic_the_server() {
    let addr = free_addr();
    let cfg = config(2, 1);
    let node = Box::new(SpykerServer::new(
        0,
        vec![0],
        vec![1, 2],
        ParamVec::zeros(1),
        cfg,
    ));
    let mut ncfg = node_cfg(0, 3);
    ncfg.listen = Some(addr);
    let server =
        thread::spawn(move || run_node(node, &ncfg, Duration::from_secs(4)).expect("server bind"));
    let mut clients = Vec::new();
    for i in 0..2 {
        let trainer: Box<dyn LocalTrainer> = Box::new(MeanTargetTrainer::new(vec![1.0], 8));
        let node = Box::new(FlClient::new(0, trainer, 1, SimTime::from_millis(150)));
        let mut ccfg = node_cfg(1 + i, 3);
        ccfg.peers = vec![(0, addr)];
        clients.push(thread::spawn(move || {
            run_node(node, &ccfg, Duration::from_secs(4)).expect("client run")
        }));
    }
    let attacker = thread::spawn(move || run_malformed_client(addr, Duration::from_secs(3), 99));
    let attack = attacker.join().expect("attacker panicked");
    assert!(
        attack.counter("net.frames.sent") > 0,
        "attacker sent nothing"
    );
    let report = server.join().expect("server panicked under attack");
    assert!(
        report.metrics.counter("net.frames.corrupt") > 0,
        "server never saw the malformed frames"
    );
    assert!(
        report.metrics.counter("updates.processed") > 0,
        "training stalled under attack"
    );
    for c in clients {
        c.join().expect("client panicked");
    }
}

/// Any socket that says Hello to an elastic standby server can hand it a
/// `JoinAccept`. One whose ring places the standby on a slot the ring does
/// not have must be refused as a corrupt frame at decode, not reach the
/// server (which indexes its age vector by that slot).
#[test]
fn a_hostile_ring_view_does_not_panic_a_standby_server() {
    let addr = free_addr();
    let cfg = config(1, 1).with_membership(MembershipConfig::default());
    let node = Box::new(SpykerServer::standby(
        Region::Paris,
        ParamVec::zeros(1),
        cfg,
        None,
        None,
    ));
    let mut ncfg = node_cfg(0, 2);
    ncfg.listen = Some(addr);
    let server = thread::spawn(move || {
        run_node(node, &ncfg, Duration::from_millis(1500)).expect("server bind")
    });
    let ring = RingView {
        epoch: 1,
        members: vec![RingMember {
            slot: 7,
            node: 0,
            region: Region::Paris,
        }],
        slots: 1,
    };
    let accept = codec::encode(&FlMsg::JoinAccept {
        ring,
        params: ParamVec::zeros(1),
        age: 1.0,
        ages: vec![0.0],
        bid_floor: 1,
    });
    // The envelope: `[u32 LE length][kind][body]`, kind 1 a Hello naming
    // the sender's node id, kind 0 a protocol message.
    let mut bytes = 5u32.to_le_bytes().to_vec();
    bytes.push(1);
    bytes.extend_from_slice(&1u32.to_le_bytes());
    bytes.extend_from_slice(&(accept.len() as u32 + 1).to_le_bytes());
    bytes.push(0);
    bytes.extend_from_slice(&accept);
    // The standby may not be listening yet: retry until it is.
    let deadline = Instant::now() + Duration::from_secs(1);
    let mut peer = loop {
        match TcpStream::connect(addr) {
            Ok(stream) => break stream,
            Err(_) if Instant::now() < deadline => thread::sleep(Duration::from_millis(10)),
            Err(e) => panic!("the standby never listened: {e}"),
        }
    };
    peer.write_all(&bytes).expect("send Hello and JoinAccept");
    let report = server.join().expect("standby server panicked");
    assert!(
        report.metrics.counter("net.frames.corrupt") >= 1,
        "the hostile ring view was not refused at decode"
    );
    let standby = report
        .node
        .as_any()
        .downcast_ref::<SpykerServer>()
        .expect("server");
    assert_eq!(standby.membership_phase(), "standby");
}

/// The elastic acceptance path over real sockets: a standby server joins
/// a running 2-server deployment via a sponsor, one of the original
/// servers then dies, and the ring heals — the joiner splices in (epoch
/// 1), the dead server is evicted (epoch 2), its clients re-home to a
/// live server, and training keeps going end to end.
#[test]
fn a_server_joins_a_live_deployment_and_the_ring_survives_a_crash() {
    let num_servers = 2;
    let num_clients = 4;
    let joiner_id = num_servers + num_clients; // elastic layout: last node
    let num_nodes = joiner_id + 1;
    let addrs: Vec<SocketAddr> = (0..num_servers).map(|_| free_addr()).collect();
    let joiner_addr = free_addr();
    let membership = MembershipConfig {
        evict_after_misses: 2,
        drain_timeout: SimTime::from_secs(1),
        client_failover_timeout: SimTime::from_millis(1500),
    };
    // Tighter recovery than the defaults: misses are only counted when an
    // exchange times out, and the token alternates holders, so the wall
    // clock has to fit several timed-out exchanges after the crash.
    let cfg = SpykerConfig::paper_defaults(num_clients, num_servers)
        .with_thresholds(2.0, 25.0)
        .with_recovery(RecoveryConfig {
            token_timeout: SimTime::from_millis(1500),
            exchange_timeout: SimTime::from_millis(700),
            client_timeout: SimTime::from_secs(2),
        })
        .with_membership(membership);

    let mut servers = Vec::new();
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
        ncfg.addr_book = vec![(joiner_id, joiner_addr)];
        // Server 1 "crashes" partway through: its thread simply stops,
        // sockets close, heartbeats cease — indistinguishable from a kill
        // as far as the survivors are concerned.
        let secs = if s == 1 { 6 } else { 15 };
        servers.push(thread::spawn(move || {
            run_node(node, &ncfg, Duration::from_secs(secs)).expect("server bind")
        }));
    }

    let mut clients = Vec::new();
    for i in 0..num_clients {
        let server = i % num_servers;
        let trainer: Box<dyn LocalTrainer> =
            Box::new(MeanTargetTrainer::new(vec![(i % 4) as f32], 8));
        let node = Box::new(
            FlClient::new(server, trainer, 1, SimTime::from_millis(150)).with_failover(
                FailoverConfig {
                    candidates: vec![0, 1, joiner_id],
                    timeout: SimTime::from_millis(1500),
                },
            ),
        );
        let mut ncfg = node_cfg(num_servers + i, num_nodes);
        // The joiner is dialed eagerly even though nothing listens there
        // yet — the dialer retries with backoff until the joiner boots, so
        // the connection is warm by the time failover needs it. The other
        // base server stays in the address book (dialed on demand).
        ncfg.peers = vec![(server, addrs[server]), (joiner_id, joiner_addr)];
        ncfg.addr_book = (0..num_servers)
            .filter(|&j| j != server)
            .map(|j| (j, addrs[j]))
            .collect();
        clients.push(thread::spawn(move || {
            run_node(node, &ncfg, Duration::from_secs(15)).expect("client run")
        }));
    }

    // The joiner arrives three seconds into the run: a standby sponsored
    // by server 0, asking to splice in half a second after booting.
    let join_cfg = cfg.clone();
    let base_addrs = addrs.clone();
    let joiner = thread::spawn(move || {
        thread::sleep(Duration::from_secs(3));
        let node = Box::new(SpykerServer::standby(
            Region::ALL[joiner_id % Region::ALL.len()],
            ParamVec::zeros(1),
            join_cfg,
            Some(0),
            Some(SimTime::from_millis(500)),
        ));
        let mut ncfg = node_cfg(joiner_id, num_nodes);
        ncfg.listen = Some(joiner_addr);
        ncfg.peers = (0..num_servers).map(|j| (j, base_addrs[j])).collect();
        run_node(node, &ncfg, Duration::from_secs(12)).expect("joiner bind")
    });

    let server_reports: Vec<TcpReport> = servers
        .into_iter()
        .map(|h| h.join().expect("server thread panicked"))
        .collect();
    let joiner_report = joiner.join().expect("joiner thread panicked");
    let client_reports: Vec<TcpReport> = clients
        .into_iter()
        .map(|h| h.join().expect("client thread panicked"))
        .collect();

    // The surviving original server saw both membership transitions:
    // the join (epoch 1) and the crash eviction (epoch 2).
    let s0 = server_reports[0]
        .node
        .as_any()
        .downcast_ref::<SpykerServer>()
        .expect("server 0");
    assert!(s0.is_ring_member(), "server 0 fell out of its own ring");
    assert!(
        s0.ring_epoch() >= 2,
        "server 0 saw only epoch {} (wanted join + eviction)",
        s0.ring_epoch()
    );
    let m0 = &server_reports[0].metrics;
    assert!(m0.counter("membership.joins") >= 1, "join never landed");
    assert!(
        m0.counter("membership.evictions") >= 1,
        "crashed server was never evicted"
    );

    // The joiner spliced in, reached Live, and kept the ring running
    // after the crash: it processed client updates and exchanged models.
    let j = joiner_report
        .node
        .as_any()
        .downcast_ref::<SpykerServer>()
        .expect("joiner");
    assert!(
        j.is_ring_member(),
        "joiner stuck in phase {}",
        j.membership_phase()
    );
    assert!(j.ring_epoch() >= 2, "joiner ring epoch {}", j.ring_epoch());
    assert!(
        j.processed_updates() > 0,
        "no client updates reached the joiner"
    );
    assert!(
        j.syncs_triggered() + j.server_aggs() > 0,
        "joiner never took part in a ring exchange"
    );

    // The dead server's clients re-homed to a live server and kept
    // training; every client stayed connected to the end.
    for (i, report) in client_reports.iter().enumerate() {
        let c = report
            .node
            .as_any()
            .downcast_ref::<FlClient>()
            .expect("client");
        if i % num_servers == 1 {
            assert!(c.rehomed() >= 1, "client {i} never left the crashed server");
        }
        assert!(
            report.metrics.counter("updates.sent") > 0,
            "client {i} sent nothing"
        );
    }
    let processed_total: u64 = server_reports[0].metrics.counter("updates.processed")
        + joiner_report.metrics.counter("updates.processed");
    assert!(
        processed_total > 20,
        "training stalled across the churn: {processed_total} updates"
    );
}

/// A peer listed only in the address book (no eager dial at startup) is
/// dialed lazily on the first send — the elastic-membership path for
/// talking to a node that did not exist when this one booted. Here the
/// server knows its client only by address: its very first
/// `ModelToClient` is dropped but starts the dialer, the client-side
/// watchdog re-poke then crosses the fresh connection, and training runs.
#[test]
fn a_peer_known_only_by_address_book_is_dialed_on_demand() {
    let server_addr = free_addr();
    let client_addr = free_addr();
    let cfg = config(1, 1);
    let server = {
        let node = Box::new(SpykerServer::new(
            0,
            vec![0],
            vec![1],
            ParamVec::zeros(1),
            cfg,
        ));
        let mut ncfg = node_cfg(0, 2);
        ncfg.listen = Some(server_addr);
        ncfg.addr_book = vec![(1, client_addr)];
        thread::spawn(move || run_node(node, &ncfg, Duration::from_secs(5)).expect("server bind"))
    };
    let trainer: Box<dyn LocalTrainer> = Box::new(MeanTargetTrainer::new(vec![1.0], 8));
    let node = Box::new(FlClient::new(0, trainer, 1, SimTime::from_millis(150)));
    let mut ncfg = node_cfg(1, 2);
    ncfg.listen = Some(client_addr);
    ncfg.peers = Vec::new();
    let creport = run_node(node, &ncfg, Duration::from_secs(5)).expect("client run");
    let sreport = server.join().expect("server panicked");
    assert!(
        sreport.metrics.counter("net.conn.ondemand") >= 1,
        "first send never started a lazy dialer"
    );
    assert!(
        sreport.metrics.counter("net.conn.dialed") >= 1,
        "lazy dialer never connected"
    );
    assert!(
        sreport.metrics.counter("updates.processed") > 0,
        "no update crossed the on-demand connection"
    );
    assert!(
        creport.metrics.counter("updates.sent") > 0,
        "training never started over the on-demand connection"
    );
}

#[test]
fn dialing_a_dead_peer_retries_with_backoff() {
    // Nothing listens on this address; the dialer must keep retrying
    // (bounded by backoff) rather than erroring out or spinning.
    let addr = free_addr();
    let trainer: Box<dyn LocalTrainer> = Box::new(MeanTargetTrainer::new(vec![1.0], 8));
    let node = Box::new(FlClient::new(0, trainer, 1, SimTime::from_millis(50)));
    let mut ncfg = node_cfg(1, 2);
    ncfg.peers = vec![(0, addr)];
    let report = run_node(node, &ncfg, Duration::from_millis(1500)).expect("client run");
    let retries = report.metrics.counter("net.conn.retries");
    assert!(retries >= 2, "expected repeated redials, got {retries}");
    assert!(
        report.metrics.counter("net.conn.dialed") == 0,
        "nothing should have connected"
    );
    // Messages to the dead peer degrade into counted drops, not errors.
    assert!(
        report.metrics.counter("fault.dropped.conn") <= report.metrics.counter("fault.dropped")
    );
}

/// A socket that connects but never sends its Hello must not outlive the
/// server. `run_node` ends the handshake at shutdown instead of waiting out
/// the liveness timeout, so the socket sees EOF by the time `run_node`
/// returns, and `run_node` returns on time.
#[test]
fn a_silent_handshake_ends_with_run_node() {
    let addr = free_addr();
    let node = Box::new(SpykerServer::new(
        0,
        vec![0],
        vec![1],
        ParamVec::zeros(1),
        config(1, 1),
    ));
    let mut ncfg = node_cfg(0, 2);
    ncfg.listen = Some(addr);
    ncfg.liveness_timeout = Duration::from_secs(5);
    let budget = ncfg.connect_grace + Duration::from_millis(800) + Duration::from_secs(1);
    let started = Instant::now();
    let server = thread::spawn(move || {
        run_node(node, &ncfg, Duration::from_millis(800)).expect("server bind");
        Instant::now()
    });
    thread::sleep(Duration::from_millis(400));
    let mut silent = TcpStream::connect(addr).expect("connect to the server");
    silent
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("set read timeout");
    let got = silent.read(&mut [0u8; 1]);
    let eof_at = Instant::now();
    let returned_at = server.join().expect("server panicked");
    assert!(matches!(got, Ok(0)), "expected EOF, got {got:?}");
    let late = eof_at.saturating_duration_since(returned_at);
    assert!(
        late < Duration::from_secs(1),
        "EOF came {late:?} after run_node returned"
    );
    let took = returned_at - started;
    assert!(took < budget, "run_node took {took:?}");
}
