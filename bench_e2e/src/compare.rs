//! `compare <a.json> <b.json>`: two result files of `run`, one row per
//! workload × end-to-end metric, judged against the bounds fixed in
//! `BENCHMARK.json`.

use std::fmt::Write as _;

use crate::json::Json;
use crate::stats::Summary;

/// How `b` stands against `a` on one metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Better by more than the bound.
    Improved,
    /// Within the bound either way.
    Unchanged,
    /// Worse by more than the bound.
    Regressed,
    /// A run-to-run spread wider than the bound: the medians cannot be
    /// told apart at this resolution.
    Unresolved,
}

impl Verdict {
    /// Lower-case label.
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges `b` against `a`: `higher_is_better` gives the metric's
/// direction, `bound` the share of `a`'s median it may worsen by.
pub fn verdict(a: Summary, b: Summary, higher_is_better: bool, bound: f64) -> Verdict {
    if a.spread() > bound || b.spread() > bound {
        return Verdict::Unresolved;
    }
    let change = (b.median - a.median) / a.median.abs();
    let gain = if higher_is_better { change } else { -change };
    if gain > bound {
        Verdict::Improved
    } else if gain < -bound {
        Verdict::Regressed
    } else {
        Verdict::Unchanged
    }
}

fn summary(metric: &Json) -> Option<Summary> {
    Some(Summary {
        median: metric.get("median")?.as_f64()?,
        q1: metric.get("q1")?.as_f64()?,
        q3: metric.get("q3")?.as_f64()?,
        n: metric.get("n")?.as_f64()? as usize,
    })
}

fn workload<'a>(results: &'a Json, name: &str) -> Option<&'a Json> {
    results
        .get("workloads")?
        .as_array()?
        .iter()
        .find(|w| w.get("workload").and_then(Json::as_str) == Some(name))
}

/// Renders the comparison table of result files `a` and `b` under the
/// metric definitions of `benchmark` (`BENCHMARK.json`), and reports
/// whether any row regressed.
///
/// # Errors
///
/// Returns a message naming the first missing or malformed field.
pub fn compare(benchmark: &Json, a: &Json, b: &Json) -> Result<(String, bool), String> {
    let list = |key: &str| {
        benchmark
            .get(key)
            .and_then(Json::as_array)
            .ok_or_else(|| format!("BENCHMARK.json: no `{key}` list"))
    };
    let mut out = String::new();
    let mut regressed = false;
    writeln!(
        out,
        "{:<20} {:<14} {:>14} {:>14} {:>9}  {:<10} a [q1, q3] | b [q1, q3]",
        "workload", "metric", "a median", "b median", "b/a", "verdict"
    )
    .expect("write to String");
    for w in list("workloads")? {
        let wname = w
            .get("name")
            .and_then(Json::as_str)
            .ok_or("BENCHMARK.json: workload without a name")?;
        let (Some(wa), Some(wb)) = (workload(a, wname), workload(b, wname)) else {
            writeln!(out, "{wname:<20} missing from a result file").expect("write to String");
            regressed = true;
            continue;
        };
        for m in list("end_to_end")? {
            let field = |key: &str| {
                m.get(key)
                    .ok_or_else(|| format!("BENCHMARK.json: end_to_end metric without `{key}`"))
            };
            let name = field("name")?
                .as_str()
                .ok_or("metric name is not a string")?;
            let unit = field("unit")?
                .as_str()
                .ok_or("metric unit is not a string")?;
            let bound = field("bound")?
                .as_f64()
                .ok_or("metric bound is not a number")?;
            let higher = field("better")?.as_str() == Some("higher");
            let get = |w: &Json, which: &str| {
                w.get("end_to_end")
                    .and_then(|e| e.get(name))
                    .and_then(summary)
                    .ok_or_else(|| format!("{which}: {wname} has no `{name}`"))
            };
            let (sa, sb) = (get(wa, "a")?, get(wb, "b")?);
            let v = verdict(sa, sb, higher, bound);
            regressed |= v == Verdict::Regressed;
            writeln!(
                out,
                "{wname:<20} {name:<14} {:>14.4} {:>14.4} {:>8.4}x  {:<10} [{:.4}, {:.4}] | [{:.4}, {:.4}] {unit}, bound {bound}",
                sa.median,
                sb.median,
                sb.median / sa.median,
                v.as_str(),
                sa.q1,
                sa.q3,
                sb.q1,
                sb.q3,
            )
            .expect("write to String");
        }
        // Deterministic counts compare two runs of one program exactly.
        let deterministic = |w: &Json| w.get("deterministic") == Some(&Json::Bool(true));
        if !(deterministic(wa) && deterministic(wb)) {
            continue;
        }
        let same_seed = a.get("seed") == b.get("seed");
        for count in ["events", "updates_processed"] {
            let (ca, cb) = (wa.get(count), wb.get(count));
            let word = if !same_seed {
                "seeds differ"
            } else if ca == cb {
                "identical"
            } else {
                "different"
            };
            let num = |c: Option<&Json>| c.and_then(Json::as_f64).unwrap_or(f64::NAN);
            writeln!(
                out,
                "{wname:<20} {count:<14} {:>14} {:>14} {:>9}  {word}",
                num(ca),
                num(cb),
                ""
            )
            .expect("write to String");
        }
    }
    Ok((out, regressed))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flat(median: f64) -> Summary {
        Summary {
            median,
            q1: median * 0.99,
            q3: median * 1.01,
            n: 5,
        }
    }

    #[test]
    fn verdict_follows_direction_and_bound() {
        // Throughput, bound 10 %.
        assert_eq!(
            verdict(flat(100.0), flat(105.0), true, 0.1),
            Verdict::Unchanged
        );
        assert_eq!(
            verdict(flat(100.0), flat(115.0), true, 0.1),
            Verdict::Improved
        );
        assert_eq!(
            verdict(flat(100.0), flat(85.0), true, 0.1),
            Verdict::Regressed
        );
        // Latency: the same numbers read the other way round.
        assert_eq!(
            verdict(flat(100.0), flat(115.0), false, 0.1),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(flat(100.0), flat(85.0), false, 0.1),
            Verdict::Improved
        );
    }

    #[test]
    fn wide_spread_is_unresolved_whatever_the_medians() {
        let noisy = Summary {
            median: 100.0,
            q1: 90.0,
            q3: 112.0,
            n: 5,
        };
        assert_eq!(verdict(noisy, flat(150.0), true, 0.1), Verdict::Unresolved);
        assert_eq!(verdict(flat(100.0), noisy, true, 0.1), Verdict::Unresolved);
        assert_eq!(verdict(noisy, flat(150.0), true, 0.25), Verdict::Improved);
    }

    fn results(seed: f64, rate: f64, events: f64) -> Json {
        let m = |v: f64| {
            Json::obj([
                ("unit", Json::str("1/s")),
                ("median", Json::Num(v)),
                ("q1", Json::Num(v * 0.99)),
                ("q3", Json::Num(v * 1.01)),
                ("n", Json::Num(5.0)),
            ])
        };
        Json::obj([
            ("seed", Json::Num(seed)),
            (
                "workloads",
                Json::Arr(vec![Json::obj([
                    ("workload", Json::str("w")),
                    ("deterministic", Json::Bool(true)),
                    ("events", Json::Num(events)),
                    ("updates_processed", Json::Num(7.0)),
                    ("end_to_end", Json::obj([("rate", m(rate))])),
                ])]),
            ),
        ])
    }

    #[test]
    fn compare_prints_one_row_per_workload_and_metric() {
        let benchmark = Json::parse(
            r#"{"workloads": [{"name": "w", "why": "x"}],
                "end_to_end": [{"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.1}]}"#,
        )
        .unwrap();
        let (table, regressed) = compare(
            &benchmark,
            &results(1.0, 100.0, 50.0),
            &results(1.0, 80.0, 50.0),
        )
        .unwrap();
        assert!(regressed);
        assert!(table.contains("regressed"), "{table}");
        assert!(table.contains("0.8000x"), "{table}");
        assert!(table.contains("identical"), "{table}");

        let (table, regressed) = compare(
            &benchmark,
            &results(1.0, 100.0, 50.0),
            &results(1.0, 101.0, 51.0),
        )
        .unwrap();
        assert!(!regressed);
        assert!(
            table.contains("unchanged") && table.contains("different"),
            "{table}"
        );

        let (table, _) = compare(
            &benchmark,
            &results(1.0, 100.0, 50.0),
            &results(2.0, 100.0, 60.0),
        )
        .unwrap();
        assert!(table.contains("seeds differ"), "{table}");
    }

    #[test]
    fn compare_reports_a_missing_metric() {
        let benchmark = Json::parse(
            r#"{"workloads": [{"name": "w", "why": "x"}],
                "end_to_end": [{"name": "other", "unit": "s", "better": "lower", "bound": 0.1}]}"#,
        )
        .unwrap();
        let err =
            compare(&benchmark, &results(1.0, 1.0, 1.0), &results(1.0, 1.0, 1.0)).unwrap_err();
        assert!(err.contains("no `other`"), "{err}");
    }
}
