//! Counter reads by cached id.

use spyker_simnet::{MetricId, MetricKind, Metrics};

/// The counters an oracle reads, named once and resolved to [`MetricId`]s
/// on the oracle's first check, so the per-event read is an indexed load
/// instead of a name lookup.
///
/// Every name must be a catalog counter: the registry pre-registers the
/// catalog in a fixed order, so the cached ids hold against any collector
/// the oracle is later shown. `Metrics::counter` answers 0 for a name
/// nobody registered, which would let a typo'd identity check `0 == 0`
/// forever; here such a name is an error from the first read.
pub(super) struct Counters<const N: usize> {
    pub(super) names: [&'static str; N],
    ids: Option<[MetricId; N]>,
}

impl<const N: usize> Counters<N> {
    pub(super) const fn new(names: [&'static str; N]) -> Self {
        Self { names, ids: None }
    }

    /// The ids of the named counters, looked up in `metrics` on first use.
    pub(super) fn resolve(
        &mut self,
        oracle: &str,
        metrics: &Metrics,
    ) -> Result<[MetricId; N], String> {
        if let Some(ids) = self.ids {
            return Ok(ids);
        }
        let registry = metrics.registry();
        let counter = |name: &str| {
            registry
                .lookup(name)
                .filter(|id| id.kind() == MetricKind::Counter)
        };
        if let Some(name) = self.names.iter().find(|name| counter(name).is_none()) {
            return Err(format!(
                "oracle {oracle} reads `{name}`, which is not a registered counter"
            ));
        }
        let ids = self.names.map(|name| counter(name).expect("checked above"));
        Ok(*self.ids.insert(ids))
    }

    /// The counters' current values, in the order they were named.
    pub(super) fn read(&mut self, oracle: &str, metrics: &Metrics) -> Result<[u64; N], String> {
        let ids = self.resolve(oracle, metrics)?;
        Ok(ids.map(|id| metrics.counter_value(id)))
    }
}
