//! The span store against a model of its predecessor.
//!
//! `SpanStore` used to keep two ordered maps keyed by `(node, name id)`;
//! it now keeps one dense row per node. Reports, golden traces and the
//! simtest fingerprints read `stats()` in `(node, interning)` order and
//! rely on a pair being listed from its first entry on, so the rewrite
//! must be indistinguishable through the public API. `Model` below is the
//! old implementation, map for map; the tests drive both with the same
//! operations — a hand-written interleaved sequence, random sequences, and
//! merges of two independently driven stores — and compare everything a
//! caller can observe.

use std::collections::BTreeMap;

use proptest::prelude::*;
use spyker_obs::{SpanStat, SpanStore};

const NAMES: [&str; 4] = [
    "client.round",
    "server.aggregate",
    "server.exchange",
    "node.down",
];

#[derive(Default)]
struct Model {
    names: Vec<&'static str>,
    /// `(start_us, depth)` of every open pair.
    open: BTreeMap<(u32, u16), (u64, u32)>,
    stats: BTreeMap<(u32, u16), SpanStat>,
    unbalanced_exits: u64,
    /// Span name of every event, in record order: with the `trace` feature
    /// the store keeps the event stream and a merge interns its names too.
    events: Vec<&'static str>,
}

impl Model {
    fn intern(&mut self, name: &'static str) -> u16 {
        if let Some(id) = self.names.iter().position(|&n| n == name) {
            return id as u16;
        }
        self.names.push(name);
        (self.names.len() - 1) as u16
    }

    fn enter(&mut self, node: u32, name: &'static str, at_us: u64) {
        let id = self.intern(name);
        self.events.push(name);
        let open = self.open.entry((node, id)).or_insert((at_us, 0));
        if open.1 == 0 {
            open.0 = at_us;
            self.stats.entry((node, id)).or_default().entered += 1;
        }
        open.1 += 1;
    }

    fn exit(&mut self, node: u32, name: &'static str, at_us: u64) {
        let id = self.intern(name);
        self.events.push(name);
        let Some(open) = self.open.get_mut(&(node, id)) else {
            self.unbalanced_exits += 1;
            return;
        };
        open.1 -= 1;
        if open.1 == 0 {
            let start = open.0;
            self.open.remove(&(node, id));
            let stat = self.stats.entry((node, id)).or_default();
            stat.completed += 1;
            stat.total_us += at_us.saturating_sub(start);
        }
    }

    fn merge(&mut self, other: &Model) {
        for (&(node, id), stat) in &other.stats {
            let my_id = self.intern(other.names[id as usize]);
            let mine = self.stats.entry((node, my_id)).or_default();
            mine.entered += stat.entered;
            mine.completed += stat.completed;
            mine.total_us += stat.total_us;
        }
        for (&(node, id), &(start_us, depth)) in &other.open {
            let my_id = self.intern(other.names[id as usize]);
            let mine = self.open.entry((node, my_id)).or_insert((start_us, 0));
            mine.0 = mine.0.min(start_us);
            mine.1 += depth;
        }
        self.unbalanced_exits += other.unbalanced_exits;
        if cfg!(feature = "trace") {
            for name in &other.events {
                self.intern(name);
            }
            self.events.extend(&other.events);
        }
    }

    fn stats(&self) -> Vec<(u32, &'static str, SpanStat)> {
        self.stats
            .iter()
            .map(|(&(node, id), stat)| (node, self.names[id as usize], *stat))
            .collect()
    }

    fn open_depth(&self, node: u32, name: &str) -> u32 {
        let Some(id) = self.names.iter().position(|&n| n == name) else {
            return 0;
        };
        self.open.get(&(node, id as u16)).map_or(0, |o| o.1)
    }
}

/// `(enter?, node, name index)`; the op's position is its timestamp.
type Op = (bool, u32, usize);

fn drive(ops: &[Op]) -> (SpanStore, Model) {
    let (mut store, mut model) = (SpanStore::new(), Model::default());
    for (at, &(enter, node, name)) in ops.iter().enumerate() {
        let (name, at_us) = (NAMES[name], 10 * at as u64);
        if enter {
            store.enter(node, name, at_us);
            model.enter(node, name, at_us);
        } else {
            store.exit(node, name, at_us);
            model.exit(node, name, at_us);
        }
    }
    (store, model)
}

fn assert_same(store: &SpanStore, model: &Model) {
    let got: Vec<_> = store.stats().map(|(n, name, s)| (n, name, *s)).collect();
    assert_eq!(got, model.stats(), "stats() content or order");
    assert_eq!(store.names(), &model.names[..], "interning order");
    assert_eq!(store.unbalanced_exits(), model.unbalanced_exits);
    let entered: u64 = model.stats.values().map(|s| s.entered).sum();
    assert_eq!(store.total_entered(), entered);
    for node in 0..8 {
        for name in NAMES {
            assert_eq!(
                store.open_depth(node, name),
                model.open_depth(node, name),
                "open depth of {name} on node {node}"
            );
        }
        let row: Vec<_> = store.node_stats(node).map(|(n, s)| (node, n, *s)).collect();
        let want: Vec<_> = model
            .stats()
            .into_iter()
            .filter(|&(n, _, _)| n == node)
            .collect();
        assert_eq!(row, want, "node_stats({node}) is that node's stats() rows");
    }
}

/// Nodes out of order, names first used on different nodes, a nested pair,
/// a span left open, a stray exit on a node with no row and one on a node
/// whose row is too short for the name.
const INTERLEAVED: [Op; 14] = [
    (true, 5, 1),
    (true, 0, 0),
    (true, 5, 2),
    (false, 0, 0),
    (true, 2, 3),
    (true, 2, 3),
    (false, 5, 2),
    (false, 2, 3),
    (true, 0, 0),
    (false, 5, 1),
    (false, 7, 1),
    (false, 0, 2),
    (false, 2, 3),
    (true, 3, 0),
];

#[test]
fn interleaved_multi_node_sequence_reads_as_before() {
    let (store, model) = drive(&INTERLEAVED);
    assert_same(&store, &model);
    let listed: Vec<_> = store.stats().map(|(n, name, _)| (n, name)).collect();
    assert_eq!(
        listed,
        vec![
            (0, "client.round"),
            (2, "node.down"),
            (3, "client.round"),
            (5, "server.aggregate"),
            (5, "server.exchange"),
        ],
        "(node, interning) order; node 5's row has an unseen client.round cell"
    );
    assert_eq!(store.unbalanced_exits(), 2);
}

#[cfg(feature = "trace")]
#[test]
fn interleaved_multi_node_sequence_traces_as_before() {
    let (store, _) = drive(&INTERLEAVED);
    assert_eq!(
        store.render_trace(),
        "0 n5 enter server.aggregate\n\
         10 n0 enter client.round\n\
         20 n5 enter server.exchange\n\
         30 n0 exit client.round\n\
         40 n2 enter node.down\n\
         50 n2 enter node.down\n\
         60 n5 exit server.exchange\n\
         70 n2 exit node.down\n\
         80 n0 enter client.round\n\
         90 n5 exit server.aggregate\n\
         100 n7 exit server.aggregate\n\
         110 n0 exit server.exchange\n\
         120 n2 exit node.down\n\
         130 n3 enter client.round\n"
    );
}

#[test]
fn from_stats_is_the_inverse_of_stats() {
    let (store, model) = drive(&INTERLEAVED);
    let rebuilt = SpanStore::from_stats(store.stats().map(|(n, name, s)| (n, name, *s)));
    let got: Vec<_> = rebuilt.stats().map(|(n, name, s)| (n, name, *s)).collect();
    assert_eq!(got, model.stats());
    assert_eq!(
        rebuilt.open_depth(3, "client.round"),
        0,
        "every span closed"
    );
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    let op = (0u8..2, 0u32..8, 0usize..NAMES.len());
    prop::collection::vec(
        op.prop_map(|(enter, node, name)| (enter == 1, node, name)),
        0..60,
    )
}

proptest! {
    #[test]
    fn random_sequences_read_as_before(ops in ops()) {
        let (store, model) = drive(&ops);
        assert_same(&store, &model);
    }

    /// Two collectors that traced overlapping nodes, open spans included:
    /// the merged store equals the merged model, new names interned in the
    /// same order.
    #[test]
    fn merge_of_two_stores_equals_the_old_result(a in ops(), b in ops()) {
        let (mut store, mut model) = drive(&a);
        let (other_store, other_model) = drive(&b);
        store.merge(&other_store);
        model.merge(&other_model);
        assert_same(&store, &model);
        // Spans left open by either side close against the merged depth.
        for node in 0..8 {
            for name in NAMES {
                store.exit(node, name, 10_000);
                model.exit(node, name, 10_000);
            }
        }
        assert_same(&store, &model);
    }
}
