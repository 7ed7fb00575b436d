//! The typed metric registry.

use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::hash::{BuildHasherDefault, Hasher};

use crate::catalog;
use crate::hist::Histogram;
use crate::id::{MetricId, MetricKind};
use crate::series::TimeSeries;
use crate::span::SpanStore;

/// Hasher of the name index: a multiply-rotate over 8-byte words. Metric
/// names are written by this program, not taken from outside it, so the
/// index needs no protection against crafted collisions — and SipHash
/// would cost as much as the ordered-map lookup the index replaces.
#[derive(Debug, Clone, Copy, Default)]
struct NameHasher(u64);

impl NameHasher {
    fn mix(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

fn le_word(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes.try_into().expect("8 bytes"))
}

impl Hasher for NameHasher {
    fn write(&mut self, bytes: &[u8]) {
        let len = bytes.len();
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            self.mix(le_word(word));
        }
        let tail = words.remainder();
        if tail.is_empty() {
            return;
        }
        // The ragged end as one word: the last 8 bytes (re-reading some
        // already mixed — cheaper than assembling a padded word, which
        // needs a variable-length copy), or all of a shorter input. The
        // length keeps inputs that end in the same bytes apart.
        let word = match len.checked_sub(8) {
            Some(start) => le_word(&bytes[start..]),
            None => tail.iter().fold(0, |word, &b| (word << 8) | u64::from(b)),
        };
        self.mix(word ^ ((len as u64) << 56));
    }

    // `str` hashes as its bytes plus one 0xff terminator byte.
    fn write_u8(&mut self, byte: u8) {
        self.mix(u64::from(byte));
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct GaugeCell {
    value: f64,
    set: bool,
}

/// Typed metric storage behind interned [`MetricId`] keys.
///
/// Emission sites address metrics by name; the registry resolves a name
/// through one allocation-free hashed borrow-lookup and then touches a
/// dense `Vec` slot. Unknown names auto-register on first use — names
/// matching a [`catalog::FAMILIES`] prefix take the family's kind,
/// anything else is recorded as *dynamic* so tests can reject typo'd
/// emission sites via [`Registry::dynamic_names`].
///
/// Ids are catalog-stable: [`Registry::new`] registers the catalog in
/// declaration order before anything else, so a catalog name resolves to
/// the same [`MetricId`] in every registry and an id cached against one
/// may be read against another. Ids of auto-registered names are not.
#[derive(Debug, Clone)]
pub struct Registry {
    /// Name → id in name order: what every iterator walks, so reports,
    /// traces and fingerprints do not depend on the hashed index. Catalog
    /// names are borrowed from the catalog; only auto-registered ones are
    /// owned.
    names: BTreeMap<Cow<'static, str>, MetricId>,
    /// The same mapping hashed, for point lookups. Never iterated.
    index: HashMap<Cow<'static, str>, MetricId, BuildHasherDefault<NameHasher>>,
    /// Counter values by [`MetricId::index`] — a dense slab a reader can
    /// compare wholesale ([`Registry::counter_values`]).
    counter_values: Vec<u64>,
    /// `true` once any add touched the counter — only touched counters
    /// are iterated, so pre-registering the catalog does not change what
    /// golden traces and fingerprints observe.
    counter_touched: Vec<bool>,
    gauges: Vec<GaugeCell>,
    hists: Vec<Histogram>,
    series: Vec<TimeSeries>,
    dynamic: BTreeSet<String>,
    spans: SpanStore,
}

impl Default for Registry {
    fn default() -> Self {
        Self::new()
    }
}

impl Registry {
    /// Creates a registry with the whole [`catalog::CATALOG`]
    /// pre-registered.
    ///
    /// # Panics
    ///
    /// Panics if the catalog declares a name twice.
    pub fn new() -> Self {
        let mut reg = Registry {
            names: BTreeMap::new(),
            index: HashMap::with_capacity_and_hasher(
                2 * catalog::CATALOG.len(),
                BuildHasherDefault::default(),
            ),
            counter_values: Vec::new(),
            counter_touched: Vec::new(),
            gauges: Vec::new(),
            hists: Vec::new(),
            series: Vec::new(),
            dynamic: BTreeSet::new(),
            spans: SpanStore::new(),
        };
        for entry in catalog::CATALOG {
            reg.register_new(Cow::Borrowed(entry.name), entry.kind);
        }
        reg
    }

    /// Explicitly registers `name` with `kind`, returning its id.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered (catches duplicate
    /// declarations at construction time).
    pub fn register(&mut self, name: &str, kind: MetricKind) -> MetricId {
        self.register_new(Cow::Owned(name.to_owned()), kind)
    }

    fn register_new(&mut self, name: Cow<'static, str>, kind: MetricKind) -> MetricId {
        assert!(
            self.lookup(&name).is_none(),
            "metric `{name}` registered twice"
        );
        self.insert(name, kind)
    }

    fn insert(&mut self, name: Cow<'static, str>, kind: MetricKind) -> MetricId {
        let index = match kind {
            MetricKind::Counter => {
                self.counter_values.push(0);
                self.counter_touched.push(false);
                self.counter_values.len() - 1
            }
            MetricKind::Gauge => {
                self.gauges.push(GaugeCell::default());
                self.gauges.len() - 1
            }
            MetricKind::Histogram => {
                self.hists.push(Histogram::new());
                self.hists.len() - 1
            }
            MetricKind::Series => {
                self.series.push(TimeSeries::new());
                self.series.len() - 1
            }
        };
        let id = MetricId::new(kind, index);
        self.names.insert(name.clone(), id);
        self.index.insert(name, id);
        id
    }

    /// The id of `name`, if registered.
    pub fn lookup(&self, name: &str) -> Option<MetricId> {
        self.index.get(name).copied()
    }

    /// Resolves `name` for an emission of `kind`: an allocation-free index
    /// hit on the fast path, an auto-registration on first use. Returns
    /// `None` (debug-asserting) when `name` is registered under a
    /// different kind — a typed registry must not let a counter write
    /// scribble over a series.
    fn resolve(&mut self, name: &str, kind: MetricKind) -> Option<MetricId> {
        if let Some(id) = self.lookup(name) {
            debug_assert!(
                id.kind() == kind,
                "metric `{name}` is a {}, emitted as a {}",
                id.kind().label(),
                kind.label()
            );
            return (id.kind() == kind).then_some(id);
        }
        if let Some(family) = catalog::family_for(name) {
            debug_assert!(
                family.kind == kind,
                "metric `{name}` belongs to the {} family `{}`, emitted as a {}",
                family.kind.label(),
                family.prefix,
                kind.label()
            );
            if family.kind != kind {
                return None;
            }
        } else {
            self.dynamic.insert(name.to_owned());
        }
        Some(self.insert(Cow::Owned(name.to_owned()), kind))
    }

    /// Names that auto-registered without matching the catalog or any
    /// family — in a fully-instrumented run this is empty, and the
    /// metric-name tests assert exactly that.
    pub fn dynamic_names(&self) -> impl Iterator<Item = &str> {
        self.dynamic.iter().map(String::as_str)
    }

    // ----- counters ------------------------------------------------------

    /// Adds `delta` to counter `name` (registering it on first use).
    pub fn counter_add(&mut self, name: &str, delta: u64) {
        if let Some(id) = self.resolve(name, MetricKind::Counter) {
            self.counter_add_id(id, delta);
        }
    }

    /// [`Registry::counter_add`] for a `prefix + suffix` name, built in a
    /// stack buffer so hot paths never allocate for cause/kind-suffixed
    /// counters.
    pub fn counter_add_suffixed(&mut self, prefix: &str, suffix: &str, delta: u64) {
        let mut buf = [0u8; 64];
        let total = prefix.len() + suffix.len();
        if total <= buf.len() {
            buf[..prefix.len()].copy_from_slice(prefix.as_bytes());
            buf[prefix.len()..total].copy_from_slice(suffix.as_bytes());
            let name = std::str::from_utf8(&buf[..total]).expect("two strs concatenate to utf8");
            self.counter_add(name, delta);
        } else {
            let name = format!("{prefix}{suffix}");
            self.counter_add(&name, delta);
        }
    }

    /// Resolves `name` as a counter once, returning its id for repeated
    /// [`Registry::counter_add_id`] calls — hot emission sites cache the
    /// id and skip the per-emission name lookup entirely. Resolving alone
    /// does not mark the counter touched, so pre-resolving ids never
    /// changes what golden traces and fingerprints iterate.
    pub fn counter_id(&mut self, name: &str) -> Option<MetricId> {
        self.resolve(name, MetricKind::Counter)
    }

    /// Adds `delta` to the counter behind a cached id (see
    /// [`Registry::counter_id`]).
    ///
    /// # Panics
    ///
    /// Panics if `id` was not issued by this registry for a counter.
    pub fn counter_add_id(&mut self, id: MetricId, delta: u64) {
        assert!(id.kind() == MetricKind::Counter, "not a counter id");
        self.counter_values[id.index()] += delta;
        self.counter_touched[id.index()] = true;
    }

    /// Current value of counter `name` (zero if never touched).
    pub fn counter(&self, name: &str) -> u64 {
        match self.lookup(name) {
            Some(id) if id.kind() == MetricKind::Counter => self.counter_values[id.index()],
            _ => 0,
        }
    }

    /// Current value of the counter behind `id` — the read-side twin of
    /// [`Registry::counter_add_id`], for readers that resolved their names
    /// once ([`Registry::lookup`]).
    ///
    /// # Panics
    ///
    /// Panics if `id` is not the id of a counter of this registry.
    pub fn counter_value(&self, id: MetricId) -> u64 {
        assert!(id.kind() == MetricKind::Counter, "not a counter id");
        self.counter_values[id.index()]
    }

    /// Every counter's current value, indexed by [`MetricId::index`]
    /// (untouched counters read zero). Registration only ever appends, so
    /// a slot keeps its meaning for the registry's lifetime and a reader
    /// tracking the slab sees it grow at the end.
    pub fn counter_values(&self) -> &[u64] {
        &self.counter_values
    }

    /// Iterates all *touched* counters in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.names.iter().filter_map(|(name, &id)| {
            if id.kind() != MetricKind::Counter {
                return None;
            }
            self.counter_touched[id.index()].then_some((&**name, self.counter_values[id.index()]))
        })
    }

    // ----- gauges --------------------------------------------------------

    /// Sets gauge `name` to `value` (last write wins).
    pub fn gauge_set(&mut self, name: &str, value: f64) {
        if let Some(id) = self.resolve(name, MetricKind::Gauge) {
            self.gauges[id.index()] = GaugeCell { value, set: true };
        }
    }

    /// Resolves `name` as a gauge once for [`Registry::gauge_set_id`]
    /// (the gauge analogue of [`Registry::counter_id`]). Resolving does
    /// not mark the gauge set.
    pub fn gauge_id(&mut self, name: &str) -> Option<MetricId> {
        self.resolve(name, MetricKind::Gauge)
    }

    /// Sets the gauge behind a cached id to `value` (last write wins).
    ///
    /// # Panics
    ///
    /// Panics if `id` was not issued by this registry for a gauge.
    pub fn gauge_set_id(&mut self, id: MetricId, value: f64) {
        assert!(id.kind() == MetricKind::Gauge, "not a gauge id");
        self.gauges[id.index()] = GaugeCell { value, set: true };
    }

    /// Current value of gauge `name`, if ever set.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        match self.lookup(name) {
            Some(id) if id.kind() == MetricKind::Gauge => {
                let cell = &self.gauges[id.index()];
                cell.set.then_some(cell.value)
            }
            _ => None,
        }
    }

    /// Iterates all set gauges in name order.
    pub fn gauges(&self) -> impl Iterator<Item = (&str, f64)> {
        self.names.iter().filter_map(|(name, &id)| {
            if id.kind() != MetricKind::Gauge {
                return None;
            }
            let cell = &self.gauges[id.index()];
            cell.set.then_some((&**name, cell.value))
        })
    }

    // ----- histograms ----------------------------------------------------

    /// Records `value` into histogram `name`.
    pub fn observe(&mut self, name: &str, value: f64) {
        if let Some(id) = self.resolve(name, MetricKind::Histogram) {
            self.hists[id.index()].observe(value);
        }
    }

    /// Histogram `name`, if registered as one.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        match self.lookup(name) {
            Some(id) if id.kind() == MetricKind::Histogram => Some(&self.hists[id.index()]),
            _ => None,
        }
    }

    /// Iterates all non-empty histograms in name order.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &Histogram)> {
        self.names.iter().filter_map(|(name, &id)| {
            if id.kind() != MetricKind::Histogram {
                return None;
            }
            let h = &self.hists[id.index()];
            (h.count() > 0).then_some((&**name, h))
        })
    }

    // ----- series --------------------------------------------------------

    /// Appends `(at_us, value)` to series `name`.
    pub fn series_push(&mut self, name: &str, at_us: u64, value: f64) {
        if let Some(id) = self.resolve(name, MetricKind::Series) {
            self.series[id.index()].push(at_us, value);
        }
    }

    /// The samples of series `name` (empty if absent).
    pub fn series(&self, name: &str) -> &[(u64, f64)] {
        match self.lookup(name) {
            Some(id) if id.kind() == MetricKind::Series => self.series[id.index()].samples(),
            _ => &[],
        }
    }

    /// Timestamp of the latest sample of series `name`.
    pub fn series_last_stamp(&self, name: &str) -> Option<u64> {
        match self.lookup(name) {
            Some(id) if id.kind() == MetricKind::Series => self.series[id.index()].last_stamp(),
            _ => None,
        }
    }

    /// Iterates all non-empty series in name order.
    pub fn series_iter(&self) -> impl Iterator<Item = (&str, &TimeSeries)> {
        self.names.iter().filter_map(|(name, &id)| {
            if id.kind() != MetricKind::Series {
                return None;
            }
            let s = &self.series[id.index()];
            (!s.is_empty()).then_some((&**name, s))
        })
    }

    // ----- spans ---------------------------------------------------------

    /// The span store (read access for reports and oracles).
    pub fn spans(&self) -> &SpanStore {
        &self.spans
    }

    /// Write access to the span store ([`SpanStore::merge`] of spans
    /// recorded elsewhere).
    pub fn spans_mut(&mut self) -> &mut SpanStore {
        &mut self.spans
    }

    /// Enters span `name` on `node` at `at_us`.
    pub fn span_enter(&mut self, node: u32, name: &'static str, at_us: u64) {
        self.spans.enter(node, name, at_us);
    }

    /// Exits span `name` on `node` at `at_us`.
    pub fn span_exit(&mut self, node: u32, name: &'static str, at_us: u64) {
        self.spans.exit(node, name, at_us);
    }

    // ----- merge ---------------------------------------------------------

    /// Folds another registry into this one: counters add, gauges take the
    /// other's value where set, histograms and spans merge, series samples
    /// sort in at their timestamps.
    pub fn merge(&mut self, other: &Registry) {
        for (name, &id) in &other.names {
            match id.kind() {
                MetricKind::Counter => {
                    if other.counter_touched[id.index()] {
                        self.counter_add(name, other.counter_values[id.index()]);
                    }
                }
                MetricKind::Gauge => {
                    let cell = &other.gauges[id.index()];
                    if cell.set {
                        self.gauge_set(name, cell.value);
                    }
                }
                MetricKind::Histogram => {
                    let h = &other.hists[id.index()];
                    if h.count() > 0 {
                        if let Some(my_id) = self.resolve(name, MetricKind::Histogram) {
                            self.hists[my_id.index()].merge(h);
                        }
                    }
                }
                MetricKind::Series => {
                    let s = &other.series[id.index()];
                    if !s.is_empty() {
                        if let Some(my_id) = self.resolve(name, MetricKind::Series) {
                            self.series[my_id.index()].merge(s);
                        }
                    }
                }
            }
        }
        for name in &other.dynamic {
            self.dynamic.insert(name.clone());
        }
        self.spans.merge(&other.spans);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_only_iterate_once_touched() {
        let mut r = Registry::new();
        assert_eq!(r.counters().count(), 0, "pre-registered but untouched");
        r.counter_add("net.messages", 2);
        r.counter_add("updates.sent", 0);
        let got: Vec<(String, u64)> = r.counters().map(|(n, v)| (n.to_string(), v)).collect();
        assert_eq!(
            got,
            vec![
                ("net.messages".to_string(), 2),
                ("updates.sent".to_string(), 0)
            ]
        );
        assert_eq!(r.counter("net.messages"), 2);
        assert_eq!(r.counter("fault.crashes"), 0);
    }

    #[test]
    fn cached_ids_add_without_lookup_and_resolving_does_not_touch() {
        let mut r = Registry::new();
        let id = r.counter_id("net.messages").unwrap();
        assert_eq!(r.counters().count(), 0, "resolving must not touch");
        r.counter_add_id(id, 3);
        r.counter_add_id(id, 4);
        assert_eq!(r.counter("net.messages"), 7);
        assert_eq!(r.counters().count(), 1);
        let gid = r.gauge_id("sync.token_holder").unwrap();
        assert_eq!(r.gauge("sync.token_holder"), None, "resolving is not a set");
        r.gauge_set_id(gid, 2.5);
        assert_eq!(r.gauge("sync.token_holder"), Some(2.5));
    }

    #[test]
    fn family_names_register_without_being_dynamic() {
        let mut r = Registry::new();
        r.counter_add_suffixed("net.bytes.", "token", 64);
        r.series_push("queue.s3", 10, 2.0);
        assert_eq!(r.counter("net.bytes.token"), 64);
        assert_eq!(r.dynamic_names().count(), 0);
        r.counter_add("totally.unknown", 1);
        let dynamic: Vec<&str> = r.dynamic_names().collect();
        assert_eq!(dynamic, vec!["totally.unknown"]);
    }

    #[test]
    fn catalog_names_resolve_to_the_same_id_in_every_registry() {
        // One registry with a history of auto-registrations, one fresh: a
        // reader that cached ids against either may read the other.
        let mut used = Registry::new();
        used.counter_add_suffixed("net.bytes.", "token", 64);
        used.series_push("queue.s3", 10, 2.0);
        used.counter_add("totally.unknown", 1);
        let fresh = Registry::new();
        for entry in catalog::CATALOG {
            let id = fresh
                .lookup(entry.name)
                .expect("catalog names are registered");
            assert_eq!(id.kind(), entry.kind, "{}", entry.name);
            assert_eq!(used.lookup(entry.name), Some(id), "{}", entry.name);
        }
        assert_eq!(fresh.lookup("net.bytes.token"), None);
    }

    #[test]
    fn the_counter_slab_is_dense_indexed_by_id_and_grows_at_the_end() {
        let mut r = Registry::new();
        let id = r.lookup("net.messages").unwrap();
        r.counter_add("net.messages", 3);
        assert_eq!(r.counter_value(id), 3);
        assert_eq!(r.counter_values()[id.index()], 3);
        let before = r.counter_values().to_vec();
        r.counter_add_suffixed("net.bytes.", "token", 64);
        let token = r.lookup("net.bytes.token").unwrap();
        assert_eq!(token.index(), before.len(), "new counters append");
        assert_eq!(r.counter_values()[..before.len()], before[..]);
        assert_eq!(r.counter_value(token), 64);
    }

    #[test]
    fn hashed_and_ordered_name_maps_agree() {
        let mut r = Registry::new();
        r.counter_add_suffixed("net.bytes.", "server-server", 1);
        r.gauge_set("scale.load.s12", 4.0);
        assert_eq!(r.names.len(), r.index.len());
        for (name, &id) in &r.names {
            assert_eq!(r.lookup(name), Some(id), "{name}");
        }
        // Names differing only past an 8-byte word boundary, or only in
        // length, hash through the tail path.
        for name in ["abcdefgh", "abcdefghi", "abcdefghj", "abcdefg"] {
            r.counter_add(name, 1);
        }
        for name in ["abcdefgh", "abcdefghi", "abcdefghj", "abcdefg"] {
            assert_eq!(r.counter(name), 1, "{name}");
        }
    }

    #[test]
    #[should_panic(expected = "registered twice")]
    fn double_registration_panics() {
        let mut r = Registry::new();
        r.register("net.messages", MetricKind::Counter);
    }

    #[test]
    fn kind_mismatch_is_rejected_without_corruption() {
        let mut r = Registry::new();
        r.series_push("metric", 5, 0.5);
        // `metric` is a series; a counter write against it must not land.
        let res =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| r.counter_add("metric", 1)));
        if cfg!(debug_assertions) {
            assert!(res.is_err(), "debug builds assert on kind mismatch");
        } else {
            assert_eq!(r.counter("metric"), 0);
        }
        assert_eq!(r.series("metric"), &[(5, 0.5)]);
    }

    #[test]
    fn merge_combines_every_kind() {
        let mut a = Registry::new();
        a.counter_add("net.messages", 1);
        a.observe("agg.staleness", 2.0);
        a.series_push("metric", 30, 0.3);
        let mut b = Registry::new();
        b.counter_add("net.messages", 2);
        b.gauge_set("sync.token_holder", 1.0);
        b.observe("agg.staleness", 8.0);
        b.series_push("metric", 10, 0.1);
        b.span_enter(0, "client.round", 0);
        b.span_exit(0, "client.round", 7);
        a.merge(&b);
        assert_eq!(a.counter("net.messages"), 3);
        assert_eq!(a.gauge("sync.token_holder"), Some(1.0));
        assert_eq!(a.histogram("agg.staleness").unwrap().count(), 2);
        assert_eq!(a.series("metric"), &[(10, 0.1), (30, 0.3)]);
        let (_, _, stat) = a.spans().stats().next().unwrap();
        assert_eq!(stat.total_us, 7);
    }
}
