use spyker_core::config::SpykerConfig;
use spyker_core::params::ParamVec;
use spyker_simnet::SpanStore;

use super::*;

fn ctx(metrics: &Metrics) -> OracleCtx<'_> {
    OracleCtx {
        time: SimTime::ZERO,
        nodes: &[],
        server_nodes: &[],
        metrics,
        n_clients: 0,
        event: None,
        clean: true,
        byzantine_free: true,
        targets: &[],
        budget_exhausted: false,
        codec: None,
    }
}

fn metrics_oracle() -> MetricsConsistencyOracle {
    MetricsConsistencyOracle::new()
}

fn at(metrics: &Metrics, node: NodeId) -> OracleCtx<'_> {
    OracleCtx {
        event: Some(EventInfo {
            node,
            kind: TapKind::Deliver,
            token_delivered: false,
        }),
        ..ctx(metrics)
    }
}

/// A collector holding a span completed once more than it was entered
/// on `node`. `enter`/`exit` cannot produce that, so it is merged in
/// from a store built from doctored aggregates.
fn over_complete(metrics: &mut Metrics, node: u32) {
    let doctored = SpanStat {
        entered: 1,
        completed: 2,
        total_us: 10,
    };
    metrics.spans_mut().merge(&SpanStore::from_stats([(
        node,
        "server.aggregate",
        doctored,
    )]));
}

#[test]
fn over_completion_on_the_event_node_is_flagged_at_that_event() {
    let mut m = Metrics::new();
    m.span_enter(2, "client.round", SimTime::ZERO);
    let mut o = metrics_oracle();
    o.check(&at(&m, 2)).unwrap();
    over_complete(&mut m, 4);
    let err = o.check(&at(&m, 4)).unwrap_err();
    assert!(
        err.contains("span server.aggregate on node 4 completed 2 times"),
        "{err}"
    );
}

#[test]
fn over_completion_on_another_node_is_flagged_by_the_next_full_pass() {
    let mut m = Metrics::new();
    let mut o = metrics_oracle();
    o.check(&at(&m, 2)).unwrap();
    // No event the simulator runs can do this: node 4's row changes
    // while node 2 is the one handling the event.
    over_complete(&mut m, 4);
    o.check(&at(&m, 2)).unwrap();
    let err = o.at_end(&ctx(&m)).unwrap_err();
    assert!(err.contains("on node 4 completed 2 times"), "{err}");
    // A check outside any event walks every row too, and so does the
    // first check of a fresh oracle whatever its event says.
    let err = o.check(&ctx(&m)).unwrap_err();
    assert!(err.contains("on node 4"), "{err}");
    let err = metrics_oracle().check(&at(&m, 2)).unwrap_err();
    assert!(err.contains("on node 4"), "{err}");
}

#[test]
fn a_counter_first_seen_mid_run_is_tracked_from_first_sight() {
    let mut m = Metrics::new();
    let mut o = metrics_oracle();
    m.add_counter("updates.sent", 1);
    o.check(&at(&m, 0)).unwrap();
    let slots = m.registry().counter_values().len();
    // A family name (`net.bytes.<kind>`) registers on first use and
    // appends a slot to the counter slab.
    m.add_counter_suffixed("net.bytes.", "token", 64);
    assert_eq!(m.registry().counter_values().len(), slots + 1);
    o.check(&at(&m, 0)).unwrap();
    assert_eq!(o.last_counters.len(), slots + 1);
    m.add_counter_suffixed("net.bytes.", "token", 64);
    o.check(&at(&m, 0)).unwrap();
    // The same history replayed into a second collector up to a lower
    // value: the new slot is compared like any other.
    let mut rewound = Metrics::new();
    rewound.add_counter("updates.sent", 1);
    rewound.add_counter_suffixed("net.bytes.", "token", 100);
    let err = o.check(&at(&rewound, 0)).unwrap_err();
    assert_eq!(err, "counter net.bytes.token decreased: 128 -> 100");
}

#[test]
fn a_counter_nobody_registers_fails_the_first_check() {
    let m = Metrics::new();
    let mut o = AgeConservationOracle {
        counters: Counters::new(["updates.procesed"]),
        scope: ServerScope::default(),
    };
    let err = o.check(&ctx(&m)).unwrap_err();
    assert_eq!(
        err,
        "oracle age-conservation reads `updates.procesed`, which is not a registered counter"
    );
    // A registered name of another kind is no better than a typo.
    let mut o = LivenessOracle {
        counters: Counters::new(["updates.sent", "agg.staleness", "agg.rejected"]),
    };
    let err = o.check(&ctx(&m)).unwrap_err();
    assert!(err.contains("liveness reads `agg.staleness`"), "{err}");
    // Every name the suite really reads resolves.
    for oracle in &mut default_suite() {
        oracle.check(&ctx(&m)).unwrap();
    }
}

#[test]
fn metrics_oracle_accepts_balanced_activity() {
    let mut m = Metrics::new();
    let mut o = metrics_oracle();
    m.span_enter(1, "client.round", SimTime::ZERO);
    m.add_counter("updates.sent", 1);
    o.check(&ctx(&m)).unwrap();
    m.span_exit(1, "client.round", SimTime::from_micros(10));
    m.add_counter("updates.sent", 1);
    o.check(&ctx(&m)).unwrap();
    o.at_end(&ctx(&m)).unwrap();
}

#[test]
fn metrics_oracle_flags_an_unbalanced_span_exit() {
    let mut m = Metrics::new();
    m.span_exit(0, "server.exchange", SimTime::ZERO);
    let err = metrics_oracle().check(&ctx(&m)).unwrap_err();
    assert!(err.contains("no matching span open"), "{err}");
}

#[test]
fn codec_oracle_flags_an_inflating_quantized_pipeline() {
    let mut m = Metrics::new();
    m.add_counter("net.bytes.raw", 100);
    m.add_counter("net.bytes.encoded", 140);
    let mut c = ctx(&m);
    c.codec = Some(CodecConfig::paper_pipeline());
    let err = CodecByteOracle::new().check(&c).unwrap_err();
    assert!(err.contains("inflated the wire"), "{err}");
    // Without a codec the same counters are nobody's business.
    c.codec = None;
    CodecByteOracle::new().check(&c).unwrap();
}

#[test]
fn codec_oracle_flags_a_broken_saved_identity() {
    let mut m = Metrics::new();
    m.add_counter("net.bytes.raw", 100);
    m.add_counter("net.bytes.encoded", 40);
    m.add_counter("net.bytes.saved", 59);
    let mut c = ctx(&m);
    c.codec = Some(CodecConfig::paper_pipeline());
    let err = CodecByteOracle::new().check(&c).unwrap_err();
    assert!(err.contains("ledger identity"), "{err}");
}

fn avail_event(node: NodeId, kind: TapKind) -> EventInfo {
    EventInfo {
        node,
        kind,
        token_delivered: false,
    }
}

#[test]
fn availability_oracle_accepts_a_legal_window() {
    let mut m = Metrics::new();
    let mut o = AvailabilityOracle::new();
    let mut c = ctx(&m);
    c.event = Some(avail_event(3, TapKind::Deliver));
    o.check(&c).unwrap();
    m.add_counter("sim.availability.offline", 1);
    let mut c = ctx(&m);
    c.event = Some(avail_event(3, TapKind::Offline));
    o.check(&c).unwrap();
    m.add_counter("sim.availability.discarded", 1);
    let mut c = ctx(&m);
    c.event = Some(avail_event(3, TapKind::OfflineDiscarded));
    o.check(&c).unwrap();
    m.add_counter("sim.availability.online", 1);
    let mut c = ctx(&m);
    c.event = Some(avail_event(3, TapKind::Online));
    o.check(&c).unwrap();
    let mut c = ctx(&m);
    c.event = Some(avail_event(3, TapKind::Timer));
    o.check(&c).unwrap();
    o.at_end(&ctx(&m)).unwrap();
}

#[test]
fn availability_oracle_flags_a_handler_on_an_offline_node() {
    let mut m = Metrics::new();
    let mut o = AvailabilityOracle::new();
    m.add_counter("sim.availability.offline", 1);
    let mut c = ctx(&m);
    c.event = Some(avail_event(5, TapKind::Offline));
    o.check(&c).unwrap();
    let mut c = ctx(&m);
    c.event = Some(avail_event(5, TapKind::Timer));
    let err = o.check(&c).unwrap_err();
    assert!(err.contains("offline node 5 ran a Timer handler"), "{err}");
}

#[test]
fn availability_oracle_flags_unpaired_transitions_and_bad_discards() {
    // Online with no matching offline.
    let mut m = Metrics::new();
    m.add_counter("sim.availability.online", 1);
    let mut c = ctx(&m);
    c.event = Some(avail_event(2, TapKind::Online));
    let err = AvailabilityOracle::new().check(&c).unwrap_err();
    assert!(err.contains("no matching offline"), "{err}");
    // A discard at a node the tap never reported offline.
    let mut m = Metrics::new();
    m.add_counter("sim.availability.discarded", 1);
    let mut c = ctx(&m);
    c.event = Some(avail_event(2, TapKind::OfflineDiscarded));
    let err = AvailabilityOracle::new().check(&c).unwrap_err();
    assert!(err.contains("not offline"), "{err}");
    // Double offline.
    let mut m = Metrics::new();
    m.add_counter("sim.availability.offline", 2);
    let mut o = AvailabilityOracle::new();
    let mut c = ctx(&m);
    c.event = Some(avail_event(2, TapKind::Offline));
    // First transition trips the tally check (counter says 2, tap saw 1)
    // only after the state update, so feed matching counters instead.
    let mut m1 = Metrics::new();
    m1.add_counter("sim.availability.offline", 1);
    c.metrics = &m1;
    o.check(&c).unwrap();
    let mut c = ctx(&m);
    c.event = Some(avail_event(2, TapKind::Offline));
    let err = o.check(&c).unwrap_err();
    assert!(err.contains("already offline"), "{err}");
}

#[test]
fn availability_oracle_flags_counter_drift() {
    let m = Metrics::new();
    let mut o = AvailabilityOracle::new();
    o.check(&ctx(&m)).unwrap();
    let mut m = Metrics::new();
    m.add_counter("sim.availability.offline", 1);
    let err = o.at_end(&ctx(&m)).unwrap_err();
    assert!(
        err.contains("sim.availability.offline is 1 but the tap reported 0"),
        "{err}"
    );
}

#[test]
fn metrics_oracle_flags_a_decreasing_counter() {
    // Two *independent* collectors stand in for an impossible rewind of
    // one counter (the accumulate-only API cannot produce it directly).
    let mut o = metrics_oracle();
    let mut a = Metrics::new();
    a.add_counter("updates.sent", 5);
    o.check(&ctx(&a)).unwrap();
    let mut b = Metrics::new();
    b.add_counter("updates.sent", 3);
    let err = o.check(&ctx(&b)).unwrap_err();
    assert!(err.contains("decreased"), "{err}");
}

/// Two live servers at node ids 0 and 1, before any handler ran: neither
/// holds a token.
fn two_servers() -> Vec<Box<dyn Node<FlMsg>>> {
    let config = SpykerConfig::paper_defaults(2, 2);
    (0..2)
        .map(|i| {
            let server =
                SpykerServer::new(i, vec![0, 1], vec![i], ParamVec::zeros(4), config.clone());
            Box::new(server) as Box<dyn Node<FlMsg>>
        })
        .collect()
}

fn forge_token(nodes: &mut [Box<dyn Node<FlMsg>>], node: NodeId) {
    let server = nodes[node].as_any_mut().downcast_mut::<SpykerServer>();
    server.expect("a server").debug_force_token(1_000_000);
}

/// A check after an event at `node` of a run whose servers are nodes 0 and 1.
fn servers_at<'a>(
    m: &'a Metrics,
    nodes: &'a [Box<dyn Node<FlMsg>>],
    node: NodeId,
) -> OracleCtx<'a> {
    OracleCtx {
        nodes,
        server_nodes: &[0, 1],
        ..at(m, node)
    }
}

/// The first oracle of `suite` that fails, with its message.
fn first_failure(suite: &mut [Box<dyn Oracle>], ctx: &OracleCtx<'_>) -> Option<String> {
    suite
        .iter_mut()
        .find_map(|o| o.check(ctx).err().map(|e| format!("{}: {e}", o.name())))
}

#[test]
fn a_token_forged_away_from_the_next_event_is_flagged_at_that_event() {
    let m = Metrics::new();
    let mut nodes = two_servers();
    let (mut told, mut untold) = (default_suite(), default_suite());
    assert_eq!(first_failure(&mut told, &servers_at(&m, &nodes, 0)), None);
    assert_eq!(first_failure(&mut untold, &servers_at(&m, &nodes, 0)), None);
    // Between two events, as the harness's injection does: node 1 is not
    // the node the next event runs at.
    forge_token(&mut nodes, 1);
    told.iter_mut().for_each(|o| o.servers_mutated());
    let err = first_failure(&mut told, &servers_at(&m, &nodes, 0)).expect("flagged");
    assert!(
        err.starts_with("token-conservation: server 1 acquired a token"),
        "{err}"
    );
    // A suite nobody told re-reads only the event's server, so it sees the
    // forged token only once an event runs at that server.
    assert_eq!(first_failure(&mut untold, &servers_at(&m, &nodes, 0)), None);
    let err = first_failure(&mut untold, &servers_at(&m, &nodes, 1)).expect("flagged");
    assert!(err.contains("server 1 acquired a token"), "{err}");
}

#[test]
fn a_scope_reads_every_server_until_it_may_read_one() {
    let m = Metrics::new();
    let ids = [0, 1, 7];
    let ctx = |node: Option<NodeId>, server_nodes| OracleCtx {
        server_nodes,
        event: node.map(|node| EventInfo {
            node,
            kind: TapKind::Deliver,
            token_delivered: false,
        }),
        ..ctx(&m)
    };
    let mut scope = ServerScope::default();
    assert_eq!(scope.positions(&ctx(Some(7), &ids)), 0..3, "first check");
    assert_eq!(
        scope.positions(&ctx(Some(7), &ids)),
        2..3,
        "a server's event"
    );
    assert_eq!(
        scope.positions(&ctx(Some(4), &ids)),
        0..0,
        "a client's event"
    );
    assert_eq!(scope.positions(&ctx(None, &ids)), 0..3, "outside any event");
    assert_eq!(
        scope.positions(&ctx(Some(4), &ids[..2])),
        0..2,
        "new server set"
    );
    assert_eq!(scope.positions(&ctx(Some(1), &ids[..2])), 1..2);
    scope.invalidate();
    assert_eq!(
        scope.positions(&ctx(Some(1), &ids[..2])),
        0..2,
        "invalidated"
    );
}
