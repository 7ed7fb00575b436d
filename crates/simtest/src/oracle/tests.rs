use spyker_core::config::SpykerConfig;
use spyker_core::params::ParamVec;
use spyker_core::server::SpykerServer;
use spyker_simnet::{SpanStat, SpanStore};

use super::adapter::{ServerFold, ServerSnapshot};
use super::counters::Counters;
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
    MetricsConsistencyOracle::default()
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
    let mut o = PerServer::<AgeConservation>::default();
    o.fold.counters = Counters::new(["updates.procesed"]);
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
fn a_snapshot_holds_what_each_getter_says() {
    let mut nodes = two_servers();
    forge_token(&mut nodes, 1);
    let m = Metrics::new();
    let c = servers_at(&m, &nodes, 0);
    let mut snap = ServerSnapshot::default();
    for s in c.servers() {
        let bid = s.token_bid();
        let want = ServerSnapshot {
            held: s.has_token(),
            bid,
            highest_bid_seen: s.highest_bid_seen(),
            counted: bid.map_or(0, |bid| s.models_counted(bid)),
            broadcast: bid.is_some_and(|bid| s.has_broadcast(bid)),
            synchronising: s.is_synchronising(),
            slot: s.server_idx(),
            age: s.age(),
            known: s.known_ages().to_vec(),
            epoch: s.ring_epoch(),
            phase: s.membership_phase(),
            processed: s.processed_updates(),
            syncs: s.syncs_triggered(),
            aggs: s.server_aggs(),
            regenerated: s.tokens_regenerated(),
            degraded: s.degraded_syncs(),
            rejected: s.rejected_updates(),
            model: Vec::new(),
        };
        snap.read(s, true);
        assert_eq!(snap.model, s.params().as_slice());
        // Read again without the model, into the same buffers.
        snap.read(s, false);
        assert_eq!(snap, want);
    }
    // The forged token is what tells the two servers apart.
    assert_eq!((snap.held, snap.bid), (true, Some(1_000_000)));
    assert!(snap.highest_bid_seen >= 1_000_000, "{snap:?}");
}

#[test]
fn the_shared_snapshots_hold_a_model_only_while_model_hull_binds() {
    let m = Metrics::new();
    let nodes = two_servers();
    let targets = [0.5];
    let dense = OracleCtx {
        targets: &targets,
        ..servers_at(&m, &nodes, 0)
    };
    let lossy = OracleCtx {
        codec: Some(CodecConfig::paper_pipeline()),
        ..dense
    };
    let byzantine = OracleCtx {
        byzantine_free: false,
        ..dense
    };
    for (c, dim) in [(dense, 4), (lossy, 0), (byzantine, 0)] {
        let store = Rc::default();
        let mut taker = PerServer::<TokenConservation>::new(&store, true);
        let mut hull = PerServer::<ModelHull>::new(&store, false);
        taker.check(&c).unwrap();
        hull.check(&c).unwrap();
        let store = store.borrow();
        assert_eq!(store.latest.len(), 2);
        assert!(store.latest.iter().all(|s| s.model.len() == dim));
    }
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

/// Steps of a fold: which positions a check stepped, and whether each had
/// a last snapshot.
#[derive(Default)]
struct Steps(Vec<(usize, bool)>);

impl ServerFold for Steps {
    const NAME: &'static str = "steps";

    fn step(
        &mut self,
        i: usize,
        last: Option<&ServerSnapshot>,
        _: &ServerSnapshot,
        _: &OracleCtx<'_>,
    ) -> Result<(), String> {
        self.0.push((i, last.is_some()));
        Ok(())
    }
}

#[test]
fn the_adapter_reads_every_server_until_it_may_read_one() {
    let m = Metrics::new();
    let config = SpykerConfig::paper_defaults(2, 8);
    let nodes: Vec<Box<dyn Node<FlMsg>>> = (0..8)
        .map(|i| {
            let ring = (0..8).collect();
            let server = SpykerServer::new(i, ring, vec![], ParamVec::zeros(2), config.clone());
            Box::new(server) as Box<dyn Node<FlMsg>>
        })
        .collect();
    let ids = [0, 1, 7];
    let ctx = |node: Option<NodeId>, server_nodes| OracleCtx {
        nodes: &nodes,
        server_nodes,
        event: node.map(|node| EventInfo {
            node,
            kind: TapKind::Deliver,
            token_delivered: false,
        }),
        ..ctx(&m)
    };
    let mut o = PerServer::<Steps>::default();
    let steps = |o: &mut PerServer<Steps>, ctx: &OracleCtx<'_>| {
        o.check(ctx).unwrap();
        std::mem::take(&mut o.fold.0)
    };
    let all_new = vec![(0, false), (1, false), (2, false)];
    assert_eq!(steps(&mut o, &ctx(Some(7), &ids)), all_new, "first check");
    assert_eq!(
        steps(&mut o, &ctx(Some(7), &ids)),
        [(2, true)],
        "a server's event"
    );
    assert_eq!(steps(&mut o, &ctx(Some(4), &ids)), [], "a client's event");
    let all = vec![(0, true), (1, true), (2, true)];
    assert_eq!(steps(&mut o, &ctx(None, &ids)), all, "outside any event");
    assert_eq!(steps(&mut o, &ctx(Some(1), &ids)), [(1, true)]);
    o.servers_mutated();
    assert_eq!(steps(&mut o, &ctx(Some(1), &ids)), all, "invalidated");
    assert_eq!(steps(&mut o, &ctx(Some(1), &ids)), [(1, true)]);
}

#[test]
#[should_panic(expected = "a run's server set is fixed")]
fn a_server_set_that_changes_mid_run_is_a_harness_bug() {
    let m = Metrics::new();
    let nodes = two_servers();
    let mut o = PerServer::<Steps>::default();
    o.check(&servers_at(&m, &nodes, 0)).unwrap();
    let one = OracleCtx {
        server_nodes: &[0],
        ..servers_at(&m, &nodes, 0)
    };
    let _ = o.check(&one);
}

/// A fresh `F` stepped at position 0 from `last` (its first snapshot) to
/// `now`, then settled over `now` alone.
fn verdict<F: ServerFold>(
    last: Option<&ServerSnapshot>,
    now: &ServerSnapshot,
    ctx: &OracleCtx<'_>,
) -> Result<(), String> {
    let mut fold = F::default();
    if let Some(last) = last {
        fold.step(0, None, last, ctx)?;
    }
    fold.step(0, last, now, ctx)?;
    fold.settle(std::slice::from_ref(now), ctx)
}

/// One table row: what it shows, the last and the new snapshot, and the
/// message part of the violation it must raise (`None`: it must hold).
type Row<'a> = (
    &'a str,
    Option<ServerSnapshot>,
    ServerSnapshot,
    Option<&'a str>,
);

fn check_rows<F: ServerFold>(ctx: &OracleCtx<'_>, rows: &[Row<'_>]) {
    for (what, last, now, want) in rows {
        let got = verdict::<F>(last.as_ref(), now, ctx);
        match (want, &got) {
            (None, Ok(())) => {}
            (Some(want), Err(err)) if err.contains(want) => {}
            _ => panic!("{} {what}: want {want:?}, got {got:?}", F::NAME),
        }
    }
}

fn token(held: bool, regenerated: u64) -> ServerSnapshot {
    ServerSnapshot {
        held,
        regenerated,
        bid: held.then_some(9),
        ..ServerSnapshot::default()
    }
}

#[test]
fn token_conservation_folds_both_ways() {
    let m = Metrics::new();
    let delivered = |node| OracleCtx {
        server_nodes: &[5],
        event: Some(EventInfo {
            node,
            kind: TapKind::Deliver,
            token_delivered: true,
        }),
        ..ctx(&m)
    };
    let fired = Some("server 0 acquired a token (bid Some(9)) without a TokenPass");
    check_rows::<TokenConservation>(
        &ctx(&m),
        &[
            ("held from the start", None, token(true, 0), None),
            ("kept", Some(token(true, 0)), token(true, 0), None),
            ("let go", Some(token(true, 0)), token(false, 0), None),
            ("regenerated", Some(token(false, 0)), token(true, 1), None),
            (
                "from thin air",
                Some(token(false, 1)),
                token(true, 1),
                fired,
            ),
        ],
    );
    let (was, now) = (token(false, 0), token(true, 0));
    assert_eq!(
        verdict::<TokenConservation>(Some(&was), &now, &delivered(5)),
        Ok(())
    );
    let err = verdict::<TokenConservation>(Some(&was), &now, &delivered(6)).unwrap_err();
    assert!(
        err.contains("acquired a token"),
        "a pass to another node: {err}"
    );
}

/// A fresh `F` stepped over every server's first snapshot, then settled.
fn settled<F: ServerFold>(
    snapshots: &[ServerSnapshot],
    ctx: &OracleCtx<'_>,
) -> (F, Result<(), String>) {
    let mut fold = F::default();
    for (i, now) in snapshots.iter().enumerate() {
        fold.step(i, None, now, ctx).unwrap();
    }
    let verdict = fold.settle(snapshots, ctx);
    (fold, verdict)
}

#[test]
fn token_uniqueness_folds_both_ways() {
    let m = Metrics::new();
    let c = ctx(&m);
    let (_, ok) = settled::<TokenUniqueness>(&[token(true, 0), token(false, 0)], &c);
    assert_eq!(ok, Ok(()), "one holder");
    let (_, ok) = settled::<TokenUniqueness>(&[token(true, 0), token(true, 1)], &c);
    assert_eq!(ok, Ok(()), "a regeneration beside the stale token");
    let two = [token(true, 0), token(false, 0), token(true, 0)];
    let (mut fold, err) = settled::<TokenUniqueness>(&two, &c);
    assert_eq!(
        err.unwrap_err(),
        "2 servers hold a token simultaneously ([0, 2]) with only 0 regenerations"
    );
    // The running sums follow a server's snapshot down as well as up.
    let mut after = two.clone();
    after[2] = token(false, 0);
    fold.step(2, Some(&two[2]), &after[2], &c).unwrap();
    assert_eq!(fold.settle(&after, &c), Ok(()), "server 2 passed it on");
}

#[test]
fn bid_monotonicity_folds_both_ways() {
    let m = Metrics::new();
    let bid = |highest_bid_seen| ServerSnapshot {
        highest_bid_seen,
        ..ServerSnapshot::default()
    };
    check_rows::<BidMonotonicity>(
        &ctx(&m),
        &[
            ("first snapshot", None, bid(4), None),
            ("unchanged", Some(bid(4)), bid(4), None),
            ("raised", Some(bid(4)), bid(7), None),
            (
                "lowered",
                Some(bid(7)),
                bid(4),
                Some("server 0's highest_bid_seen decreased: 7 -> 4"),
            ),
        ],
    );
}

fn ages(slot: usize, known: &[f64]) -> ServerSnapshot {
    ServerSnapshot {
        slot,
        known: known.to_vec(),
        ..ServerSnapshot::default()
    }
}

#[test]
fn age_monotonicity_folds_both_ways() {
    let m = Metrics::new();
    check_rows::<AgeMonotonicity>(
        &ctx(&m),
        &[
            (
                "peer ages rise",
                Some(ages(0, &[1.0, 2.0])),
                ages(0, &[1.0, 3.0]),
                None,
            ),
            (
                "own slot falls",
                Some(ages(0, &[3.0, 2.0])),
                ages(0, &[1.0, 2.0]),
                None,
            ),
            (
                "slot changes",
                Some(ages(0, &[1.0, 5.0])),
                ages(1, &[1.0, 2.0]),
                None,
            ),
            (
                "peer age falls",
                Some(ages(0, &[1.0, 5.0])),
                ages(0, &[1.0, 2.0]),
                Some("server 0's knowledge of slot 1's age decreased: 5 -> 2"),
            ),
            (
                "negative",
                None,
                ages(0, &[1.0, -1.0]),
                Some("server 0's age entry for 1 is -1"),
            ),
            (
                "not finite",
                Some(ages(0, &[1.0, 2.0])),
                ages(0, &[f64::NAN, 2.0]),
                Some("server 0's age entry for 0 is NaN"),
            ),
        ],
    );
}

#[test]
fn age_conservation_folds_both_ways() {
    let mut m = Metrics::new();
    m.add_counter("updates.processed", 3);
    let book = |age: f64, known: &[f64]| ServerSnapshot {
        age,
        ..ages(0, known)
    };
    check_rows::<AgeConservation>(
        &ctx(&m),
        &[
            ("at the bound", None, book(3.0, &[3.0, 1.0]), None),
            (
                "own age above",
                None,
                book(3.5, &[1.0]),
                Some("server 0's age 3.5 exceeds the 3 updates processed globally"),
            ),
            (
                "a known age above",
                Some(book(1.0, &[1.0, 1.0])),
                book(1.0, &[1.0, 4.0]),
                Some("server 0 believes server 1's age is 4, above the 3 updates"),
            ),
        ],
    );
}

#[test]
fn exchange_ledger_folds_both_ways() {
    let m = Metrics::new();
    let c = OracleCtx {
        server_nodes: &[0, 1],
        ..ctx(&m)
    };
    let ledger = ServerSnapshot {
        bid: Some(3),
        highest_bid_seen: 3,
        counted: 2,
        broadcast: true,
        synchronising: true,
        ..ServerSnapshot::default()
    };
    check_rows::<ExchangeLedger>(
        &c,
        &[
            ("synchronising", None, ledger.clone(), None),
            ("idle", None, ServerSnapshot::default(), None),
            (
                "bid above the highest seen",
                None,
                ServerSnapshot {
                    highest_bid_seen: 2,
                    ..ledger.clone()
                },
                Some("server 0 holds bid 3 above its highest_bid_seen 2"),
            ),
            (
                "more models than servers",
                None,
                ServerSnapshot {
                    counted: 3,
                    ..ledger.clone()
                },
                Some("server 0 counted 3 models for bid 3 in a ring of 2"),
            ),
            (
                "synchronising without a broadcast",
                None,
                ServerSnapshot {
                    broadcast: false,
                    ..ledger
                },
                Some("synchronising under bid 3 without having broadcast"),
            ),
            (
                "synchronising without the token",
                None,
                ServerSnapshot {
                    synchronising: true,
                    ..ServerSnapshot::default()
                },
                Some("server 0 is synchronising without holding the token"),
            ),
        ],
    );
}

fn member(epoch: u64, phase: &'static str, held: bool) -> ServerSnapshot {
    ServerSnapshot {
        epoch,
        phase,
        held,
        ..ServerSnapshot::default()
    }
}

#[test]
fn membership_folds_both_ways() {
    let m = Metrics::new();
    let live = || member(2, "live", true);
    check_rows::<Membership>(
        &ctx(&m),
        &[
            ("a live holder", None, live(), None),
            ("epoch rises", Some(live()), member(3, "live", false), None),
            (
                "joins",
                Some(member(2, "standby", false)),
                member(3, "live", false),
                None,
            ),
            ("leaves", Some(live()), member(2, "draining", false), None),
            (
                "departs",
                Some(member(2, "draining", false)),
                member(2, "departed", false),
                None,
            ),
            (
                "stands down",
                Some(live()),
                member(2, "standby", false),
                None,
            ),
            (
                "recommissioned",
                Some(member(2, "departed", false)),
                member(2, "standby", false),
                None,
            ),
            (
                "holds the token while not live",
                Some(live()),
                member(2, "draining", true),
                Some("server 0 holds the token while draining"),
            ),
            (
                "epoch falls",
                Some(live()),
                member(1, "live", true),
                Some("server 0's ring epoch decreased: 2 -> 1"),
            ),
            (
                "an illegal phase edge",
                Some(member(2, "standby", false)),
                member(2, "departed", false),
                Some("server 0 made an illegal phase transition: standby -> departed"),
            ),
        ],
    );
}

#[test]
fn model_hull_folds_both_ways() {
    let m = Metrics::new();
    let targets = [-1.0, 0.5];
    let dense = OracleCtx {
        targets: &targets,
        ..ctx(&m)
    };
    let model = |model: &[f32]| ServerSnapshot {
        model: model.to_vec(),
        ..ServerSnapshot::default()
    };
    let outside = model(&[0.2, -1.5, 0.6]);
    check_rows::<ModelHull>(
        &dense,
        &[
            ("inside", None, model(&[-1.0, 0.0, 0.5]), None),
            (
                "outside",
                Some(model(&[0.0; 3])),
                outside.clone(),
                Some("server 0's model coordinate 1 is -1.5, outside the honest hull"),
            ),
        ],
    );
    // A lossless codec keeps the invariant; a lossy one or a Byzantine
    // client suspends it.
    let lossless = OracleCtx {
        codec: Some(CodecConfig::identity()),
        ..dense
    };
    assert!(verdict::<ModelHull>(None, &outside, &lossless).is_err());
    let lossy = OracleCtx {
        codec: Some(CodecConfig::paper_pipeline()),
        ..dense
    };
    let byzantine = OracleCtx {
        byzantine_free: false,
        ..dense
    };
    for suspended in [lossy, byzantine] {
        assert_eq!(verdict::<ModelHull>(None, &outside, &suspended), Ok(()));
    }
}

/// A snapshot whose six ledgers are `books`, in `CounterConsistency` order.
fn books([processed, syncs, aggs, regenerated, degraded, rejected]: [u64; 6]) -> ServerSnapshot {
    ServerSnapshot {
        processed,
        syncs,
        aggs,
        regenerated,
        degraded,
        rejected,
        ..ServerSnapshot::default()
    }
}

#[test]
fn counter_consistency_folds_both_ways() {
    let mut m = Metrics::new();
    m.add_counter("updates.processed", 5);
    m.add_counter("server.aggs", 1);
    let c = ctx(&m);
    let (mut fold, ok) =
        settled::<CounterConsistency>(&[books([2, 0, 1, 0, 0, 0]), books([3, 0, 0, 0, 0, 0])], &c);
    assert_eq!(ok, Ok(()), "the ledgers sum to the counters");
    // Server 1 reports one update more than the counter saw.
    let now = books([4, 0, 0, 0, 0, 0]);
    fold.step(1, Some(&books([3, 0, 0, 0, 0, 0])), &now, &c)
        .unwrap();
    assert_eq!(
        fold.settle(&[], &c).unwrap_err(),
        "counter updates.processed is 5 but the actor ledgers sum to 6"
    );
    let (_, err) = settled::<CounterConsistency>(&[books([5, 0, 0, 0, 0, 0])], &c);
    assert_eq!(
        err.unwrap_err(),
        "counter server.aggs is 1 but the actor ledgers sum to 0"
    );
}
