//! One measurement: warm up, repeat a workload for the requested time,
//! check the outputs, and turn the repetitions into metrics.

use spyker_simnet::peak_rss_bytes;

use crate::json::Json;
use crate::ledger::{ledger, top_layers, Metric};
use crate::micro::unit_costs;
use crate::stats::{median, Summary};
use crate::trace::Span;
use crate::workloads::{Reference, Rep, Workload};

/// The end-to-end metrics, `(name, unit)`, as listed in `BENCHMARK.json`.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("updates_per_s", "1/s"),
    ("events_per_s", "1/s"),
    ("wire_mb_per_s", "MB/s"),
    ("peak_rss_mib", "MiB"),
];

/// Fewest repetitions a measurement reports a median over.
const MIN_REPS: usize = 5;
/// Most repetitions one measurement makes, whatever `--seconds` says.
const MAX_REPS: usize = 64;

/// What one `(workload, seed, seconds, trace)` measurement produced.
pub struct Measurement {
    /// The workload measured.
    pub workload: Workload,
    /// Seed the inputs were generated from.
    pub seed: u64,
    /// `true` for the traced (per-layer) pass.
    pub trace: bool,
    /// Operations attempted over all repetitions.
    pub attempted: u64,
    /// Operations that failed (all of them, if an output check failed).
    pub failed: u64,
    /// Output checks that failed.
    pub problems: Vec<String>,
    /// End-to-end pass: one summary per [`END_TO_END`] metric.
    pub end_to_end: Vec<(&'static str, &'static str, Summary)>,
    /// Traced pass: the per-layer ledger.
    pub per_layer: Vec<Metric>,
    /// Events and processed updates of one repetition (identical across
    /// repetitions where the workload is deterministic).
    pub counts: (u64, u64),
    /// Traced pass: the traced repetition's spans, one list per thread.
    pub spans: Vec<Vec<Span>>,
}

fn rate(rep: &Rep) -> f64 {
    rep.updates_processed() as f64 / rep.wall_s
}

fn check_against(what: &str, rep: &Rep, first: &Rep, reference: Option<&Reference>) -> Vec<String> {
    let mut out = Vec::new();
    let got = (rep.events, rep.updates_processed(), rep.quality);
    let want = (first.events, first.updates_processed(), first.quality);
    if got != want {
        out.push(format!(
            "{what}: (events, updates, quality) = {got:?}, the first repetition had {want:?}"
        ));
    }
    if let Some(r) = reference {
        if r.updates_processed != rep.updates_processed()
            || r.events.is_some_and(|e| e != rep.events)
            || r.quality.is_some_and(|q| Some(q) != rep.quality)
        {
            out.push(format!(
                "{what}: (events, updates, quality) = {got:?}, the reference path gives {r:?}"
            ));
        }
    }
    out
}

/// Runs `workload` until its timed sections add up to `seconds` and
/// derives the metrics of the requested pass. The traced pass alternates
/// untraced and traced repetitions, so that tracing overhead is a median
/// of paired ratios (this box's speed drifts by more than the overhead
/// from one second to the next); the ledger reads the last traced one.
pub fn measure(workload: Workload, seed: u64, seconds: f64, trace: bool) -> Measurement {
    let rep_seconds = seconds / if trace { 2 * MIN_REPS } else { MIN_REPS } as f64;
    let reference = workload.reference(seed, rep_seconds);

    let mut reps: Vec<Rep> = Vec::new();
    let mut traced: Option<Rep> = None;
    let mut slowdowns = Vec::new();
    let mut timed = 0.0;
    // A fixed-window repetition measures a few milliseconds less than it
    // was given (its nodes wake up late); 1 % of slack keeps that from
    // buying a whole extra repetition.
    while reps.len() < MIN_REPS || (timed < 0.99 * seconds && reps.len() < MAX_REPS) {
        let rep = workload.rep(seed, false, rep_seconds);
        timed += rep.wall_s;
        if trace {
            // Free the previous traced repetition's spans first.
            drop(traced.take());
            let t = traced.insert(workload.rep(seed, true, rep_seconds));
            timed += t.wall_s;
            slowdowns.push(rate(&rep) / rate(t));
        }
        reps.push(rep);
    }

    let mut problems = Vec::new();
    for (i, rep) in reps.iter().chain(&traced).enumerate() {
        let what = if i < reps.len() {
            format!("repetition {i}")
        } else {
            "traced repetition".to_string()
        };
        problems.extend(rep.problems.iter().map(|p| format!("{what}: {p}")));
        if workload.deterministic() {
            problems.extend(check_against(&what, rep, &reps[0], reference.as_ref()));
        }
    }
    let attempted: u64 = reps.iter().chain(&traced).map(Rep::attempted).sum();
    let failed = if problems.is_empty() {
        reps.iter().chain(&traced).map(Rep::failed).sum()
    } else {
        attempted.max(1)
    };

    let mut end_to_end = Vec::new();
    let mut per_layer = Vec::new();
    if let Some(traced) = &traced {
        per_layer = ledger(
            workload,
            &reps,
            traced,
            &unit_costs(workload.dim(), seed),
            median(&slowdowns) - 1.0,
        );
    } else {
        let per_rep = |f: &dyn Fn(&Rep) -> f64| -> Summary {
            Summary::of(&reps.iter().map(f).collect::<Vec<f64>>())
        };
        let rss_mib = peak_rss_bytes().map_or(f64::NAN, |b| b as f64 / (1u64 << 20) as f64);
        let values = [
            per_rep(&|r| r.setup_s),
            per_rep(&rate),
            per_rep(&|r| r.events as f64 / r.wall_s),
            per_rep(&|r| r.metrics.counter("net.bytes") as f64 / r.wall_s * 1e-6),
            Summary::of(&[rss_mib]),
        ];
        end_to_end = END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), summary)| (name, unit, summary))
            .collect();
    }
    Measurement {
        workload,
        seed,
        trace,
        attempted,
        failed,
        problems,
        end_to_end,
        per_layer,
        counts: (reps[0].events, reps[0].updates_processed()),
        spans: traced.map_or_else(Vec::new, |t| t.spans),
    }
}

impl Measurement {
    /// `true` when every output check passed and no operation failed.
    pub fn correct(&self) -> bool {
        self.problems.is_empty() && self.failed == 0
    }

    /// The driver's result line: `correct`, `attempted`, `failed` and the
    /// metrics of this pass by name.
    pub fn result_line(&self) -> String {
        let value =
            |unit: &str, v: f64| Json::obj([("value", Json::Num(v)), ("unit", Json::str(unit))]);
        let metrics: Vec<(String, Json)> = if self.trace {
            self.per_layer
                .iter()
                .map(|m| (m.name.to_string(), value(m.unit, m.value)))
                .collect()
        } else {
            self.end_to_end
                .iter()
                .map(|&(name, unit, s)| (name.to_string(), value(unit, s.median)))
                .collect()
        };
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted.max(1) as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::Obj(metrics)),
        ])
        .render()
    }

    /// Everything measured, for `results.json` and `compare`.
    pub fn detail(&self) -> Json {
        let end_to_end = self.end_to_end.iter().map(|&(name, unit, s)| {
            (
                name,
                Json::obj([
                    ("unit", Json::str(unit)),
                    ("median", Json::Num(s.median)),
                    ("q1", Json::Num(s.q1)),
                    ("q3", Json::Num(s.q3)),
                    ("n", Json::Num(s.n as f64)),
                ]),
            )
        });
        let per_layer = self.per_layer.iter().map(|m| {
            (
                m.name,
                Json::obj([("unit", Json::str(m.unit)), ("value", Json::Num(m.value))]),
            )
        });
        Json::obj([
            ("workload", Json::str(self.workload.name())),
            ("seed", Json::Num(self.seed as f64)),
            ("trace", Json::Num(f64::from(u8::from(self.trace)))),
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "problems",
                Json::Arr(self.problems.iter().map(Json::str).collect()),
            ),
            ("deterministic", Json::Bool(self.workload.deterministic())),
            ("events", Json::Num(self.counts.0 as f64)),
            ("updates_processed", Json::Num(self.counts.1 as f64)),
            ("end_to_end", Json::obj(end_to_end)),
            ("per_layer", Json::obj(per_layer)),
        ])
    }

    /// The human-readable report: every metric by name with its unit.
    pub fn table(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let pass = if self.trace {
            "per-layer"
        } else {
            "end-to-end"
        };
        writeln!(
            out,
            "{} seed {} ({pass}): {} ops attempted, {} failed, outputs {}",
            self.workload.name(),
            self.seed,
            self.attempted,
            self.failed,
            if self.correct() { "correct" } else { "WRONG" },
        )
        .expect("write to String");
        for p in &self.problems {
            writeln!(out, "  check failed: {p}").expect("write to String");
        }
        for &(name, unit, s) in &self.end_to_end {
            writeln!(
                out,
                "  {name:<34} {:>16.6} {unit:<6} q1 {:.6} q3 {:.6} n {}",
                s.median, s.q1, s.q3, s.n
            )
            .expect("write to String");
        }
        for m in &self.per_layer {
            writeln!(out, "  {:<34} {:>16.6} {}", m.name, m.value, m.unit)
                .expect("write to String");
        }
        for (name, s, share) in top_layers(&self.per_layer) {
            writeln!(
                out,
                "  top layer: {name} {s:.3} s ({:.1} % of self time)",
                share * 100.0
            )
            .expect("write to String");
        }
        out
    }
}
