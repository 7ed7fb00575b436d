//! Virtual-time tracing spans.
//!
//! A span marks a named activity on one node — a client training round, a
//! server aggregation, a token exchange, a fault outage — between an
//! `enter` and an `exit` stamped with simulation virtual time. The store
//! always keeps per-`(node, span)` aggregates (entries, completions, total
//! duration); with the `trace` cargo feature it additionally retains the
//! raw event stream for golden trace dumps.
//!
//! Same-name spans nest: only the outermost enter/exit pair contributes
//! duration. An exit with no matching enter is never allowed to drive the
//! depth negative — it is counted in [`SpanStore::unbalanced_exits`]
//! instead, which the simtest metrics-consistency oracle pins to zero.

/// Aggregate statistics of one `(node, span)` pair.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanStat {
    /// Outermost span entries observed.
    pub entered: u64,
    /// Outermost span exits observed.
    pub completed: u64,
    /// Total virtual microseconds across completed outermost spans.
    pub total_us: u64,
}

/// One raw span event (retained only with the `trace` feature).
#[cfg(feature = "trace")]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanEvent {
    /// Virtual time of the event in microseconds.
    pub at_us: u64,
    /// Node the span runs on.
    pub node: u32,
    /// `true` for enter, `false` for exit.
    pub enter: bool,
    /// Index into [`SpanStore::names`].
    pub name_id: u16,
}

/// Everything the store keeps about one `(node, span)` pair.
#[derive(Debug, Clone, Copy, Default)]
struct SpanCell {
    stat: SpanStat,
    /// Start of the open outermost span; only meaningful while `depth > 0`.
    start_us: u64,
    /// Current nesting depth (0 when closed).
    depth: u32,
    /// `true` once the pair was entered (or merged in). A column has a
    /// cell for every node up to the highest that used its name, including
    /// nodes that never did; only seen cells are reported.
    seen: bool,
}

/// Collects span enter/exit events per node, keyed by interned span name.
///
/// Storage is a dense table indexed by the span name's interning id and
/// the node id, so `enter`/`exit` are two index operations and everything
/// one node recorded is one probe per name ([`SpanStore::node_stats`]) —
/// a run uses a handful of span names. Node ids are deployment indices;
/// each name's column is as long as the highest node id that entered it,
/// which keeps the server-only spans of a deployment with thousands of
/// clients a few cells long.
#[derive(Debug, Clone, Default)]
pub struct SpanStore {
    /// Interned names; a span's id is its position. Interning is a linear
    /// scan.
    names: Vec<&'static str>,
    /// `columns[name id][node]`, one column per interned name, grown on a
    /// node's first enter.
    columns: Vec<Vec<SpanCell>>,
    unbalanced_exits: u64,
    #[cfg(feature = "trace")]
    events: Vec<SpanEvent>,
}

impl SpanStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Rebuilds a store from reported aggregates, every span closed — the
    /// inverse of [`SpanStore::stats`]. This is the one way to hold
    /// aggregates that `enter`/`exit` cannot produce (a span completed more
    /// often than it was entered), which is what the tests of the balance
    /// checks downstream need.
    pub fn from_stats(stats: impl IntoIterator<Item = (u32, &'static str, SpanStat)>) -> Self {
        let mut store = Self::new();
        for (node, name, stat) in stats {
            let id = store.intern(name);
            store.cell_mut(node, id).absorb(&stat);
        }
        store
    }

    fn id_of(&self, name: &str) -> Option<usize> {
        self.names.iter().position(|&n| n == name)
    }

    /// One past the highest node id that ever entered a span.
    fn node_bound(&self) -> u32 {
        self.columns.iter().map(Vec::len).max().unwrap_or(0) as u32
    }

    fn intern(&mut self, name: &'static str) -> u16 {
        if let Some(id) = self.id_of(name) {
            return id as u16;
        }
        let id = u16::try_from(self.names.len()).expect("too many span names");
        self.names.push(name);
        self.columns.push(Vec::new());
        id
    }

    fn cell_mut(&mut self, node: u32, id: u16) -> &mut SpanCell {
        let (column, node) = (&mut self.columns[usize::from(id)], node as usize);
        if column.len() <= node {
            column.resize(node + 1, SpanCell::default());
        }
        &mut column[node]
    }

    /// Registered span names, in interning order.
    pub fn names(&self) -> &[&'static str] {
        &self.names
    }

    /// Enters span `name` on `node` at virtual time `at_us`.
    pub fn enter(&mut self, node: u32, name: &'static str, at_us: u64) {
        let id = self.intern(name);
        let cell = self.cell_mut(node, id);
        if cell.depth == 0 {
            cell.start_us = at_us;
            cell.stat.entered += 1;
            cell.seen = true;
        }
        cell.depth += 1;
        #[cfg(feature = "trace")]
        self.events.push(SpanEvent {
            at_us,
            node,
            enter: true,
            name_id: id,
        });
    }

    /// Exits span `name` on `node` at virtual time `at_us`. An exit
    /// without a matching enter only bumps the unbalanced-exit count.
    pub fn exit(&mut self, node: u32, name: &'static str, at_us: u64) {
        let id = self.intern(name);
        #[cfg(feature = "trace")]
        self.events.push(SpanEvent {
            at_us,
            node,
            enter: false,
            name_id: id,
        });
        let open = self.columns[usize::from(id)]
            .get_mut(node as usize)
            .filter(|cell| cell.depth > 0);
        let Some(cell) = open else {
            self.unbalanced_exits += 1;
            return;
        };
        cell.depth -= 1;
        if cell.depth == 0 {
            cell.stat.completed += 1;
            cell.stat.total_us += at_us.saturating_sub(cell.start_us);
        }
    }

    /// Current nesting depth of span `name` on `node` (0 when closed).
    pub fn open_depth(&self, node: u32, name: &str) -> u32 {
        let Some(id) = self.id_of(name) else {
            return 0;
        };
        self.columns[id]
            .get(node as usize)
            .map_or(0, |cell| cell.depth)
    }

    /// Exits observed with no span open. Always zero under balanced
    /// instrumentation; the simtest oracle asserts it stays zero.
    pub fn unbalanced_exits(&self) -> u64 {
        self.unbalanced_exits
    }

    /// Aggregate stats per `(node, span name)`, in `(node, intern)` order.
    pub fn stats(&self) -> impl Iterator<Item = (u32, &'static str, &SpanStat)> {
        (0..self.node_bound()).flat_map(move |node| {
            self.node_stats(node)
                .map(move |(name, stat)| (node, name, stat))
        })
    }

    /// The [`SpanStore::stats`] entries of one node, in interning order —
    /// one probe per span name, whatever the number of nodes in the store.
    pub fn node_stats(&self, node: u32) -> impl Iterator<Item = (&'static str, &SpanStat)> {
        self.cells_of(node).map(|(name, cell)| (name, &cell.stat))
    }

    /// The seen cells of `node`, in interning order.
    fn cells_of(&self, node: u32) -> impl Iterator<Item = (&'static str, &SpanCell)> {
        self.columns
            .iter()
            .zip(&self.names)
            .filter_map(move |(column, &name)| Some((name, column.get(node as usize)?)))
            .filter(|(_, cell)| cell.seen)
    }

    /// Total entered count across all spans (cheap emptiness probe).
    pub fn total_entered(&self) -> u64 {
        self.stats().map(|(_, _, stat)| stat.entered).sum()
    }

    /// Folds another store into this one. Open spans merge by summing
    /// depths and keeping the earlier start (collisions only arise when
    /// two collectors traced the same node, which the transports never
    /// do).
    pub fn merge(&mut self, other: &SpanStore) {
        for node in 0..other.node_bound() {
            for (name, cell) in other.cells_of(node) {
                let id = self.intern(name);
                let mine = self.cell_mut(node, id);
                mine.absorb(&cell.stat);
                if cell.depth > 0 {
                    mine.start_us = if mine.depth > 0 {
                        mine.start_us.min(cell.start_us)
                    } else {
                        cell.start_us
                    };
                    mine.depth += cell.depth;
                }
            }
        }
        self.unbalanced_exits += other.unbalanced_exits;
        #[cfg(feature = "trace")]
        {
            for ev in &other.events {
                let name_id = self.intern(other.names[ev.name_id as usize]);
                self.events.push(SpanEvent { name_id, ..*ev });
            }
            self.events.sort_by_key(|e| (e.at_us, e.node, !e.enter));
        }
    }

    /// The raw event stream, in record order.
    #[cfg(feature = "trace")]
    pub fn events(&self) -> &[SpanEvent] {
        &self.events
    }

    /// Renders the raw event stream as one line per event:
    /// `<at_us> n<node> enter|exit <name>`.
    #[cfg(feature = "trace")]
    pub fn render_trace(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for ev in &self.events {
            let verb = if ev.enter { "enter" } else { "exit" };
            writeln!(
                out,
                "{} n{} {verb} {}",
                ev.at_us, ev.node, self.names[ev.name_id as usize]
            )
            .expect("writing to String");
        }
        out
    }
}

impl SpanCell {
    fn absorb(&mut self, stat: &SpanStat) {
        self.seen = true;
        self.stat.entered += stat.entered;
        self.stat.completed += stat.completed;
        self.stat.total_us += stat.total_us;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn durations_accumulate_per_node_and_span() {
        let mut s = SpanStore::new();
        s.enter(0, "client.round", 100);
        s.exit(0, "client.round", 250);
        s.enter(0, "client.round", 300);
        s.exit(0, "client.round", 450);
        s.enter(1, "client.round", 0);
        let stats: Vec<_> = s.stats().collect();
        assert_eq!(stats.len(), 2);
        let (node, name, stat) = stats[0];
        assert_eq!((node, name), (0, "client.round"));
        assert_eq!(stat.entered, 2);
        assert_eq!(stat.completed, 2);
        assert_eq!(stat.total_us, 300);
        assert_eq!(s.open_depth(1, "client.round"), 1);
        assert_eq!(s.unbalanced_exits(), 0);
    }

    #[test]
    fn nested_same_name_spans_count_the_outermost_only() {
        let mut s = SpanStore::new();
        s.enter(3, "node.down", 10);
        s.enter(3, "node.down", 20); // double crash: nested outage
        s.exit(3, "node.down", 50);
        assert_eq!(s.open_depth(3, "node.down"), 1);
        s.exit(3, "node.down", 70);
        let (_, _, stat) = s.stats().next().unwrap();
        assert_eq!(stat.entered, 1);
        assert_eq!(stat.completed, 1);
        assert_eq!(stat.total_us, 60);
    }

    #[test]
    fn unmatched_exit_is_counted_not_underflowed() {
        let mut s = SpanStore::new();
        s.exit(0, "server.exchange", 5);
        assert_eq!(s.unbalanced_exits(), 1);
        assert_eq!(s.open_depth(0, "server.exchange"), 0);
    }

    #[test]
    fn merge_sums_stats_across_stores() {
        let mut a = SpanStore::new();
        a.enter(0, "x", 0);
        a.exit(0, "x", 10);
        let mut b = SpanStore::new();
        b.enter(1, "y", 0);
        b.enter(1, "x", 5);
        b.exit(1, "x", 9);
        a.merge(&b);
        let stats: Vec<_> = a.stats().collect();
        assert_eq!(stats.len(), 3);
        assert_eq!(a.open_depth(1, "y"), 1);
        assert_eq!(a.total_entered(), 3);
    }
}
