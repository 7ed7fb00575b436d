//! Counters and time series collected during a run.
//!
//! `Metrics` is now a thin façade over the typed [`spyker_obs::Registry`]:
//! the stringly-keyed API the simulator and transports always used stays
//! intact (and golden traces iterate the same counter set in the same
//! order), while storage, span tracing and run reports live in the
//! `spyker-obs` crate.

use spyker_obs::{Histogram, MetricId, Registry, SpanStore};

use crate::time::SimTime;

/// Metrics sink shared by the simulator and the TCP transport.
///
/// Four kinds of metrics are supported: monotonically-increasing counters
/// (bytes sent, updates processed), last-write-wins gauges (current token
/// holder), log-bucketed histograms (update staleness) and time series of
/// `(time, value)` samples (accuracy curves, queue lengths). Virtual-time
/// tracing spans ride along in the embedded [`SpanStore`].
#[derive(Debug, Clone, Default)]
pub struct Metrics {
    registry: Registry,
    /// The `net.bytes` and `net.messages` ids [`Metrics::count_sent`]
    /// books through, resolved on its first call.
    sent_ids: Option<[MetricId; 2]>,
    /// Its `net.bytes.<kind>` ids, keyed by the `&'static str` kind: kinds
    /// are a handful, so a linear scan beats hashing.
    kind_ids: Vec<(&'static str, MetricId)>,
}

impl Metrics {
    /// Creates an empty collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `delta` to counter `name` (creating it at zero).
    pub fn add_counter(&mut self, name: &str, delta: u64) {
        self.registry.counter_add(name, delta);
    }

    /// Adds `delta` to the counter named `prefix + suffix` without
    /// allocating the concatenation on the hot path.
    pub fn add_counter_suffixed(&mut self, prefix: &str, suffix: &str, delta: u64) {
        self.registry.counter_add_suffixed(prefix, suffix, delta);
    }

    /// Current value of counter `name` (zero if never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.registry.counter(name)
    }

    /// Books one message of `kind` and `bytes` on the wire: `net.bytes`,
    /// `net.bytes.<kind>` and `net.messages` — the one send ledger of the
    /// simulator and the TCP transport. The ids are cached, so the per-send
    /// path looks no name up after the first message of each kind.
    pub fn count_sent(&mut self, kind: &'static str, bytes: u64) {
        let registry = &mut self.registry;
        let [total, messages] = *self.sent_ids.get_or_insert_with(|| {
            ["net.bytes", "net.messages"].map(|name| registry.counter_id(name).expect("a counter"))
        });
        let by_kind = match self.kind_ids.iter().find(|(k, _)| *k == kind) {
            Some(&(_, id)) => id,
            None => {
                let name = format!("net.bytes.{kind}");
                let id = registry.counter_id(&name).expect("a counter");
                self.kind_ids.push((kind, id));
                id
            }
        };
        for (id, delta) in [(total, bytes), (by_kind, bytes), (messages, 1)] {
            registry.counter_add_id(id, delta);
        }
    }

    /// Books `n` messages lost to `cause`: `fault.dropped` and
    /// `fault.dropped.<cause>`, on either runtime.
    pub fn count_dropped(&mut self, cause: &str, n: u64) {
        self.registry.counter_add("fault.dropped", n);
        self.registry
            .counter_add_suffixed("fault.dropped.", cause, n);
    }

    /// Current value of the counter behind `id` — for readers (the simtest
    /// oracles) that resolve their names once through
    /// [`Registry::lookup`] and then read by index after every event.
    /// Catalog names resolve to the same id in every collector.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a counter id.
    pub fn counter_value(&self, id: MetricId) -> u64 {
        self.registry.counter_value(id)
    }

    /// Resolves `name` as a gauge for [`Metrics::gauge_set_id`].
    pub fn gauge_handle(&mut self, name: &str) -> Option<MetricId> {
        self.registry.gauge_id(name)
    }

    /// Sets the gauge behind a cached handle (last write wins).
    pub fn gauge_set_id(&mut self, id: MetricId, value: f64) {
        self.registry.gauge_set_id(id, value);
    }

    /// Appends `(time, value)` to series `name`.
    ///
    /// Under a single simulation clock, appends must be monotone; a
    /// rewinding timestamp indicates a bug at the emission site (debug
    /// builds assert). Merging independently-clocked collectors goes
    /// through [`Metrics::merge`], which sorts samples in instead.
    pub fn record(&mut self, name: &str, time: SimTime, value: f64) {
        debug_assert!(
            self.registry
                .series_last_stamp(name)
                .is_none_or(|last| time.as_micros() >= last),
            "non-monotone record into series `{name}` at {time}"
        );
        self.registry.series_push(name, time.as_micros(), value);
    }

    /// The samples of series `name` (empty if absent), sorted by time.
    pub fn series(&self, name: &str) -> Vec<(SimTime, f64)> {
        self.registry
            .series(name)
            .iter()
            .map(|&(t, v)| (SimTime::from_micros(t), v))
            .collect()
    }

    /// Records `value` into histogram `name`.
    pub fn observe(&mut self, name: &str, value: f64) {
        self.registry.observe(name, value);
    }

    /// Histogram `name`, if any observation registered it.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.registry.histogram(name)
    }

    /// Sets gauge `name` to `value` (last write wins).
    pub fn gauge_set(&mut self, name: &str, value: f64) {
        self.registry.gauge_set(name, value);
    }

    /// Current value of gauge `name`, if ever set.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.registry.gauge(name)
    }

    /// Enters tracing span `name` on `node` at virtual time `at`.
    pub fn span_enter(&mut self, node: u32, name: &'static str, at: SimTime) {
        self.registry.span_enter(node, name, at.as_micros());
    }

    /// Exits tracing span `name` on `node` at virtual time `at`.
    pub fn span_exit(&mut self, node: u32, name: &'static str, at: SimTime) {
        self.registry.span_exit(node, name, at.as_micros());
    }

    /// The span store (aggregates, balance counters, trace events).
    pub fn spans(&self) -> &SpanStore {
        self.registry.spans()
    }

    /// Write access to the span store, for folding in spans recorded
    /// elsewhere ([`SpanStore::merge`]).
    pub fn spans_mut(&mut self) -> &mut SpanStore {
        self.registry.spans_mut()
    }

    /// The underlying typed registry (for reports and catalog checks).
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Iterates over all touched counters in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.registry.counters()
    }

    /// First time at which `series` reaches `threshold` (values are compared
    /// with `>=`), if it ever does. The workhorse behind every
    /// "time to reach 90% accuracy" number in the evaluation.
    pub fn time_to_threshold(&self, series: &str, threshold: f64) -> Option<SimTime> {
        self.registry
            .series(series)
            .iter()
            .find(|(_, v)| *v >= threshold)
            .map(|&(t, _)| SimTime::from_micros(t))
    }

    /// Merges another collector into this one (counters add, series sort
    /// in at their timestamps, histograms and spans merge). Used by the
    /// TCP transport to fold its connection threads' shared collector
    /// into the node's.
    pub fn merge(&mut self, other: &Metrics) {
        self.registry.merge(&other.registry);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut m = Metrics::new();
        m.add_counter("bytes", 10);
        m.add_counter("bytes", 5);
        assert_eq!(m.counter("bytes"), 15);
        assert_eq!(m.counter("missing"), 0);
    }

    #[test]
    fn series_record_and_query() {
        let mut m = Metrics::new();
        m.record("acc", SimTime::from_secs(1), 0.5);
        m.record("acc", SimTime::from_secs(2), 0.92);
        assert_eq!(m.series("acc").len(), 2);
    }

    #[test]
    fn time_to_threshold_finds_first_crossing() {
        let mut m = Metrics::new();
        m.record("acc", SimTime::from_secs(1), 0.5);
        m.record("acc", SimTime::from_secs(2), 0.91);
        m.record("acc", SimTime::from_secs(3), 0.89);
        m.record("acc", SimTime::from_secs(4), 0.95);
        assert_eq!(m.time_to_threshold("acc", 0.9), Some(SimTime::from_secs(2)));
        assert_eq!(m.time_to_threshold("acc", 0.99), None);
    }

    #[test]
    fn merge_adds_counters_and_sorts_series() {
        let mut a = Metrics::new();
        a.add_counter("n", 1);
        a.record("s", SimTime::from_secs(3), 3.0);
        let mut b = Metrics::new();
        b.add_counter("n", 2);
        b.record("s", SimTime::from_secs(1), 1.0);
        a.merge(&b);
        assert_eq!(a.counter("n"), 3);
        let times: Vec<u64> = a.series("s").iter().map(|(t, _)| t.as_micros()).collect();
        assert_eq!(times, vec![1_000_000, 3_000_000]);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "non-monotone")]
    fn non_monotone_record_asserts_in_debug() {
        let mut m = Metrics::new();
        m.record("acc", SimTime::from_secs(2), 0.5);
        m.record("acc", SimTime::from_secs(1), 0.6);
    }

    #[test]
    fn suffixed_counters_join_prefix_and_suffix() {
        let mut m = Metrics::new();
        m.add_counter_suffixed("net.bytes.", "token", 128);
        m.add_counter_suffixed("net.bytes.", "token", 64);
        assert_eq!(m.counter("net.bytes.token"), 192);
    }

    #[test]
    fn gauges_histograms_and_spans_ride_along() {
        let mut m = Metrics::new();
        m.gauge_set("sync.token_holder", 2.0);
        assert_eq!(m.gauge("sync.token_holder"), Some(2.0));
        m.observe("agg.staleness", 3.0);
        assert_eq!(m.histogram("agg.staleness").unwrap().count(), 1);
        m.span_enter(4, "client.round", SimTime::from_millis(1));
        m.span_exit(4, "client.round", SimTime::from_millis(3));
        let (_, name, stat) = m.spans().stats().next().unwrap();
        assert_eq!(name, "client.round");
        assert_eq!(stat.total_us, 2_000);
        assert_eq!(m.spans().unbalanced_exits(), 0);
    }
}
