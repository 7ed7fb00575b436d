//! One function per table/figure of the paper's evaluation section.
//!
//! Each function runs the experiment, prints the rows/series the paper
//! reports, writes raw series under `results/`, and returns its data so
//! `run_all` and the integration tests can assert on the shape. Scale is
//! controlled by [`Scale`] (`SPYKER_SCALE=small` shrinks every experiment
//! for CI-class machines; the default is the paper's scale).

use spyker_core::config::SpykerConfig;
use spyker_core::staleness::ClientStaleness;
use spyker_simnet::net::AWS_LATENCY_MS;
use spyker_simnet::{NetworkConfig, SimTime};
use spyker_tensor::sample_normal;

use crate::report::{
    fmt_count, fmt_ratio, fmt_time, kde, results_dir, write_series_csv, write_text, Table,
};
use crate::runner::{default_spyker_config, run_algorithm, Algorithm, RunOptions, RunResult};
use crate::scenario::{Scenario, TaskKind};

/// Experiment scale knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scale {
    /// Base client count (the paper's 100).
    pub clients: usize,
    /// Server count (the paper's 4).
    pub servers: usize,
    /// Client count for the WikiText runs (LSTM training is costlier).
    pub wikitext_clients: usize,
    /// Time budget for convergence figures.
    pub horizon: SimTime,
    /// Accuracy target used by the time-to-accuracy tables.
    pub target_accuracy: f64,
    /// Master seed.
    pub seed: u64,
}

impl Scale {
    /// The paper's scale: 100 clients, 4 servers.
    pub fn paper() -> Self {
        Self {
            clients: 100,
            servers: 4,
            wikitext_clients: 40,
            horizon: SimTime::from_secs(60),
            target_accuracy: 0.9,
            seed: 42,
        }
    }

    /// A CI-friendly scale.
    pub fn small() -> Self {
        Self {
            clients: 24,
            servers: 4,
            wikitext_clients: 8,
            horizon: SimTime::from_secs(25),
            target_accuracy: 0.85,
            seed: 42,
        }
    }

    /// Reads `SPYKER_SCALE` (`small` or `paper`; default `paper`).
    pub fn from_env() -> Self {
        match std::env::var("SPYKER_SCALE").as_deref() {
            Ok("small") => Self::small(),
            _ => Self::paper(),
        }
    }
}

fn standard_opts(scale: &Scale) -> RunOptions {
    RunOptions::standard().with_max_time(scale.horizon)
}

/// Paper Tab. 4: prints the AWS inter-region latency matrix driving every
/// geo-distributed experiment.
pub fn tab4_latency() -> String {
    let regions = ["Hongkong", "Paris", "Sydney", "California"];
    let mut table = Table::new(&[
        "from\\to (ms)",
        regions[0],
        regions[1],
        regions[2],
        regions[3],
    ]);
    for (i, name) in regions.iter().enumerate() {
        let mut row = vec![name.to_string()];
        for lat in &AWS_LATENCY_MS[i] {
            row.push(format!("{lat:.2}"));
        }
        table.row(&row);
    }
    let out = format!("# Tab. 4 — AWS inter-region latency\n{}", table.render());
    println!("{out}");
    write_text(&results_dir().join("tab4_latency.txt"), &out);
    out
}

/// Paper Figs. 3–8: convergence of all five algorithms on one task, both
/// against virtual time and against processed updates.
///
/// Returns one result per algorithm (paper order).
pub fn fig_convergence(task: TaskKind, scale: &Scale) -> Vec<RunResult> {
    let (scenario, name, target) = match task {
        TaskKind::MnistLike => (
            Scenario::mnist(scale.clients, scale.servers, scale.seed),
            "fig5_6_mnist",
            Some(scale.target_accuracy),
        ),
        TaskKind::CifarLike => (
            Scenario::cifar(scale.clients, scale.servers, scale.seed),
            "fig7_8_cifar",
            None,
        ),
        TaskKind::WikiText => (
            Scenario::wikitext(scale.wikitext_clients, scale.servers, scale.seed),
            "fig3_4_wikitext",
            Some(6.0), // perplexity target (lower is better)
        ),
    };
    let opts = standard_opts(scale);
    let mut runs = Vec::new();
    let metric_name = match task {
        TaskKind::WikiText => "perplexity",
        _ => "accuracy",
    };
    let mut table = Table::new(&[
        "algorithm",
        &format!("best {metric_name}"),
        &format!("final {metric_name}"),
        "time@target",
        "updates@target",
    ]);
    for alg in Algorithm::ALL {
        let run = run_algorithm(alg, &scenario, &opts);
        let (t, u) = match target {
            Some(target) => (run.time_to_target(target), run.updates_to_target(target)),
            None => (None, None),
        };
        table.row(&[
            alg.name().to_string(),
            fmt_ratio(run.best_metric()),
            fmt_ratio(run.final_metric()),
            fmt_time(t),
            fmt_count(u),
        ]);
        runs.push(run);
    }
    let csv = write_series_csv(name, &runs);
    let out = format!(
        "# {name} — {task:?} convergence ({} clients, {} servers, target {:?})\n{}series: {}\n",
        scenario.n_clients,
        scenario.n_servers,
        target,
        table.render(),
        csv.display()
    );
    println!("{out}");
    write_text(&results_dir().join(format!("{name}.txt")), &out);
    runs
}

/// Paper Tab. 5: multiplicative scaling factors of time/updates to reach
/// the target accuracy at 2x and 3x the base client count.
///
/// Returns `(algorithm, [t1, u1, t2/t1, u2/u1, t3/t1, u3/u1])` rows.
pub fn tab5_scalability(scale: &Scale) -> Vec<(Algorithm, Vec<Option<f64>>)> {
    let sizes = [scale.clients, 2 * scale.clients, 3 * scale.clients];
    let target = scale.target_accuracy;
    // Give larger populations a longer budget: more clients need more time.
    let opts = standard_opts(scale)
        .with_stop_at(target)
        .with_max_time(scale.horizon * 4);
    let mut rows = Vec::new();
    let mut table = Table::new(&[
        "algorithm",
        "x-time(2x)",
        "x-updates(2x)",
        "x-time(3x)",
        "x-updates(3x)",
    ]);
    for alg in Algorithm::ALL {
        let mut times: Vec<Option<f64>> = Vec::new();
        let mut updates: Vec<Option<f64>> = Vec::new();
        for &n in &sizes {
            let scenario = Scenario::mnist(n, scale.servers, scale.seed);
            let run = run_algorithm(alg, &scenario, &opts);
            times.push(run.time_to_target(target).map(|t| t.as_secs_f64()));
            updates.push(run.updates_to_target(target).map(|u| u as f64));
        }
        let ratio = |v: &[Option<f64>], i: usize| match (v[0], v[i]) {
            (Some(base), Some(x)) if base > 0.0 => Some(x / base),
            _ => None,
        };
        let row = vec![
            ratio(&times, 1),
            ratio(&updates, 1),
            ratio(&times, 2),
            ratio(&updates, 2),
        ];
        table.row(&[
            alg.name().to_string(),
            fmt_ratio(row[0]),
            fmt_ratio(row[1]),
            fmt_ratio(row[2]),
            fmt_ratio(row[3]),
        ]);
        rows.push((alg, row));
    }
    let out = format!(
        "# Tab. 5 — scalability with client count (target {:.0}% accuracy, base {} clients)\n{}",
        target * 100.0,
        scale.clients,
        table.render()
    );
    println!("{out}");
    write_text(&results_dir().join("tab5_scalability.txt"), &out);
    rows
}

/// Paper Tab. 6: time for FedAsync and Spyker to reach the target and the
/// stretch accuracy, with AWS latency and with a flat (equal-average)
/// network.
///
/// Returns `[(label, fedasync_t90, spyker_t90, fedasync_t95, spyker_t95)]`.
#[allow(clippy::type_complexity)]
pub fn tab6_latency(
    scale: &Scale,
) -> Vec<(
    String,
    Option<SimTime>,
    Option<SimTime>,
    Option<SimTime>,
    Option<SimTime>,
)> {
    let t_lo = scale.target_accuracy;
    let t_hi = (scale.target_accuracy + 0.05).min(0.99);
    let scenario = Scenario::mnist(scale.clients, scale.servers, scale.seed);
    // "No lat." removes geography: every link (client-server and
    // server-server) gets the same small latency, the AWS intra-region
    // mean. What remains is resource heterogeneity and the single-server
    // processing bottleneck — the effects §5.3 isolates.
    let flat = SimTime::from_micros(
        (AWS_LATENCY_MS[0][0] + AWS_LATENCY_MS[1][1] + AWS_LATENCY_MS[2][2] + AWS_LATENCY_MS[3][3])
            as u64
            * 250,
    );
    let nets = [
        ("Lat.".to_string(), NetworkConfig::aws()),
        ("No lat.".to_string(), NetworkConfig::uniform_all(flat)),
    ];
    let mut rows = Vec::new();
    let mut table = Table::new(&[
        "network",
        "method",
        &format!("time {:.0}%", t_lo * 100.0),
        &format!("time {:.0}%", t_hi * 100.0),
    ]);
    for (label, net) in nets {
        let opts = standard_opts(scale)
            .with_net(net)
            .with_stop_at(t_hi)
            .with_max_time(scale.horizon * 4);
        let fa = run_algorithm(Algorithm::FedAsync, &scenario, &opts);
        let sp = run_algorithm(Algorithm::Spyker, &scenario, &opts);
        let (fa90, fa95) = (fa.time_to_target(t_lo), fa.time_to_target(t_hi));
        let (sp90, sp95) = (sp.time_to_target(t_lo), sp.time_to_target(t_hi));
        table.row(&[
            label.clone(),
            "FedAsync".into(),
            fmt_time(fa90),
            fmt_time(fa95),
        ]);
        table.row(&[
            label.clone(),
            "Spyker".into(),
            fmt_time(sp90),
            fmt_time(sp95),
        ]);
        let improvement = |a: Option<SimTime>, b: Option<SimTime>| match (a, b) {
            (Some(a), Some(b)) if a.as_micros() > 0 => {
                format!("{:+.0}%", (b.as_secs_f64() / a.as_secs_f64() - 1.0) * 100.0)
            }
            _ => "-".to_string(),
        };
        table.row(&[
            label.clone(),
            "Improvement".into(),
            improvement(fa90, sp90),
            improvement(fa95, sp95),
        ]);
        rows.push((label, fa90, sp90, fa95, sp95));
    }
    let out = format!(
        "# Tab. 6 — time to target accuracy, FedAsync vs Spyker\n{}",
        table.render()
    );
    println!("{out}");
    write_text(&results_dir().join("tab6_latency.txt"), &out);
    rows
}

/// Paper Fig. 9: server queue lengths over time with Spyker (n servers) vs
/// FedAsync (1 server) at 2x client scale and wide training-delay spread
/// (N(150 ms, 60 ms²)).
///
/// Returns `(spyker_run, fedasync_run)`; the `queue.max` series carries the
/// figure's curves.
pub fn fig9_queue(scale: &Scale) -> (RunResult, RunResult) {
    let n = 2 * scale.clients;
    let mut scenario = Scenario::mnist(n, scale.servers, scale.seed);
    scenario.resample_delays(150.0, 60.0);
    let opts = RunOptions {
        probe_interval: SimTime::from_millis(100),
        ..standard_opts(scale)
    }
    .with_max_time(SimTime::from_secs(20));
    let spyker = run_algorithm(Algorithm::Spyker, &scenario, &opts);
    let fedasync = run_algorithm(Algorithm::FedAsync, &scenario, &opts);
    let summarize = |r: &RunResult| {
        let series = r.metrics.series("queue.max");
        let max = series.iter().map(|(_, v)| *v).fold(0.0f64, f64::max);
        let mean = if series.is_empty() {
            0.0
        } else {
            series.iter().map(|(_, v)| *v).sum::<f64>() / series.len() as f64
        };
        (max, mean)
    };
    let (smax, smean) = summarize(&spyker);
    let (fmax, fmean) = summarize(&fedasync);
    let mut csv = String::from("algorithm,time_s,queue_len\n");
    for (alg, run) in [("Spyker", &spyker), ("FedAsync", &fedasync)] {
        for (t, v) in run.metrics.series("queue.max") {
            csv.push_str(&format!("{alg},{:.3},{v}\n", t.as_secs_f64()));
        }
    }
    let path = write_text(&results_dir().join("fig9_queue.csv"), &csv);
    let mut table = Table::new(&["algorithm", "max queue", "mean queue"]);
    table.row(&["Spyker".into(), format!("{smax:.0}"), format!("{smean:.2}")]);
    table.row(&[
        "FedAsync".into(),
        format!("{fmax:.0}"),
        format!("{fmean:.2}"),
    ]);
    let out = format!(
        "# Fig. 9 — update queue at servers ({n} clients)\n{}series: {}\n",
        table.render(),
        path.display()
    );
    println!("{out}");
    write_text(&results_dir().join("fig9_queue.txt"), &out);
    (spyker, fedasync)
}

/// Paper Fig. 10: kernel density of per-client update counts under Spyker
/// vs FedAsync.
///
/// Returns the two runs; `results/fig10_density.csv` holds the KDE curves.
pub fn fig10_update_density(scale: &Scale) -> (RunResult, RunResult) {
    let n = 2 * scale.clients;
    let mut scenario = Scenario::mnist(n, scale.servers, scale.seed);
    scenario.resample_delays(150.0, 60.0);
    let opts = standard_opts(scale);
    let spyker = run_algorithm(Algorithm::Spyker, &scenario, &opts);
    let fedasync = run_algorithm(Algorithm::FedAsync, &scenario, &opts);
    let mut csv = String::from("algorithm,updates,density\n");
    let mut table = Table::new(&["algorithm", "min", "median", "max", "mean"]);
    for (name, run) in [("Spyker", &spyker), ("FedAsync", &fedasync)] {
        let values: Vec<f64> = run.client_updates.iter().map(|&u| u as f64).collect();
        let (grid, density) = kde(&values, 200);
        for (x, d) in grid.iter().zip(&density) {
            csv.push_str(&format!("{name},{x:.2},{d:.6}\n"));
        }
        let mut sorted = values.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        table.row(&[
            name.into(),
            format!("{:.0}", sorted.first().unwrap()),
            format!("{:.0}", sorted[sorted.len() / 2]),
            format!("{:.0}", sorted.last().unwrap()),
            format!("{:.1}", values.iter().sum::<f64>() / values.len() as f64),
        ]);
    }
    let path = write_text(&results_dir().join("fig10_density.csv"), &csv);
    let out = format!(
        "# Fig. 10 — per-client update distribution ({n} clients)\n{}kde: {}\n",
        table.render(),
        path.display()
    );
    println!("{out}");
    write_text(&results_dir().join("fig10_density.txt"), &out);
    (spyker, fedasync)
}

/// Builds the paper Tab. 7 assignment: `big` clients on server 0, the rest
/// split evenly over the remaining servers.
pub fn imbalanced_assignment(n_clients: usize, n_servers: usize, big: usize) -> Vec<usize> {
    assert!(big <= n_clients, "big exceeds client count");
    assert!(n_servers >= 2, "need a second server for the remainder");
    let mut out = vec![0; n_clients];
    let rest = n_clients - big;
    for i in 0..rest {
        out[big + i] = 1 + (i % (n_servers - 1));
    }
    out
}

/// Paper Tab. 7: effect of imbalanced clients-per-server on accuracy and
/// convergence duration.
///
/// Returns `(big_server_clients, best_accuracy, time_to_target)` rows.
pub fn tab7_imbalance(scale: &Scale) -> Vec<(usize, f64, Option<SimTime>)> {
    let n = scale.clients;
    let quarter = n / scale.servers;
    // The paper's scenarios scaled to the configured client count:
    // balanced, then ~52%, ~63%, ~70% of clients on one server.
    let bigs = [quarter, n * 52 / 100, n * 63 / 100, n * 70 / 100];
    let mut scenario = Scenario::mnist(n, scale.servers, scale.seed);
    // Fast clients (80 ms rounds): with a quarter of the clients per server
    // everyone stays below the 2 ms/update service capacity, but piling
    // 52-70% of the clients onto one server saturates it — its clients
    // queue, their data is underrepresented and convergence slows. This is
    // the overload mechanism behind the paper's Tab. 7 degradation.
    scenario.resample_delays(80.0, 10.0);
    // A harder target and a finer probe expose the slowdown caused by the
    // overloaded server.
    let target = (scale.target_accuracy + 0.05).min(0.99);
    let mut rows = Vec::new();
    let mut table = Table::new(&["clients@server0", "best accuracy", "time@target"]);
    for &big in &bigs {
        let opts = RunOptions {
            assignment: Some(imbalanced_assignment(n, scale.servers, big)),
            probe_interval: SimTime::from_millis(250),
            ..standard_opts(scale)
        };
        let run = run_algorithm(Algorithm::Spyker, &scenario, &opts);
        let best = run.best_metric().unwrap_or(0.0);
        let t = run.time_to_target(target);
        table.row(&[big.to_string(), format!("{best:.3}"), fmt_time(t)]);
        rows.push((big, best, t));
    }
    let out = format!(
        "# Tab. 7 — client imbalance ({} clients, {} servers)\n{}",
        n,
        scale.servers,
        table.render()
    );
    println!("{out}");
    write_text(&results_dir().join("tab7_imbalance.txt"), &out);
    rows
}

/// Paper Fig. 11: Spyker with and without the learning-rate decay, under
/// wide client heterogeneity.
///
/// Returns `(with_decay, without_decay)`.
pub fn fig11_decay(scale: &Scale) -> (RunResult, RunResult) {
    let mut scenario = Scenario::mnist(scale.clients, scale.servers, scale.seed);
    // Heterogeneity stressor: half of one label-pair cohort is ~30x
    // faster than everyone else, so without the decay that pair dominates
    // every server model (the bias §5.5 describes); the slow half of the
    // cohort keeps the pair covered, so muting the flood loses nothing.
    scenario.correlate_speed_with_labels(30.0, 1000.0);
    let base = default_spyker_config(&scenario);
    let opts_on = RunOptions {
        spyker_config: Some(base.clone()),
        ..standard_opts(scale)
    };
    let opts_off = RunOptions {
        spyker_config: Some(base.clone().with_decay(base.decay.disabled())),
        ..standard_opts(scale)
    };
    let with_decay = run_algorithm(Algorithm::Spyker, &scenario, &opts_on);
    let without_decay = run_algorithm(Algorithm::Spyker, &scenario, &opts_off);
    let mut table = Table::new(&["variant", "best accuracy", "final accuracy", "time@target"]);
    for (name, run) in [("decay on", &with_decay), ("decay off", &without_decay)] {
        table.row(&[
            name.into(),
            fmt_ratio(run.best_metric()),
            fmt_ratio(run.final_metric()),
            fmt_time(run.time_to_target(scale.target_accuracy)),
        ]);
    }
    let csv = write_series_csv("fig11_decay", &[with_decay.clone(), without_decay.clone()]);
    let out = format!(
        "# Fig. 11 — learning-rate decay ablation\n{}series: {}\n",
        table.render(),
        csv.display()
    );
    println!("{out}");
    write_text(&results_dir().join("fig11_decay.txt"), &out);
    (with_decay, without_decay)
}

/// Paper Fig. 12: bytes transferred over a 110 s window by every algorithm,
/// split into client-server and server-server traffic.
///
/// Returns `(algorithm, total_mb, client_server_mb, server_server_mb)`.
pub fn fig12_bandwidth(scale: &Scale) -> Vec<(Algorithm, f64, f64, f64)> {
    let scenario = Scenario::mnist(scale.clients, scale.servers, scale.seed);
    let window = SimTime::from_secs(110).min(scale.horizon * 2);
    let opts = standard_opts(scale).with_max_time(window);
    let mut rows = Vec::new();
    let mut table = Table::new(&[
        "algorithm",
        "total MB",
        "client-server MB",
        "server-server MB",
    ]);
    let mut csv = String::from("algorithm,time_s,total_bytes\n");
    for alg in Algorithm::ALL {
        let run = run_algorithm(alg, &scenario, &opts);
        let mb = |c: &str| run.metrics.counter(c) as f64 / 1e6;
        let (total, cs, ss) = (
            mb("net.bytes"),
            mb("net.bytes.client-server"),
            mb("net.bytes.server-server"),
        );
        for (t, v) in run.metrics.series("bytes.total") {
            csv.push_str(&format!("{},{:.3},{v}\n", alg.name(), t.as_secs_f64()));
        }
        table.row(&[
            alg.name().to_string(),
            format!("{total:.2}"),
            format!("{cs:.2}"),
            format!("{ss:.2}"),
        ]);
        rows.push((alg, total, cs, ss));
    }
    let path = write_text(&results_dir().join("fig12_bandwidth.csv"), &csv);
    let out = format!(
        "# Fig. 12 — network consumption over {window}\n{}series: {}\n",
        table.render(),
        path.display()
    );
    println!("{out}");
    write_text(&results_dir().join("fig12_bandwidth.txt"), &out);
    rows
}

/// Codec × bandwidth sweep: Spyker dense vs Spyker uploading through
/// update-compression pipelines (DESIGN.md §16), on the Fig. 12 window.
///
/// For every codec variant the client-side byte ledger gives both sides of
/// the trade in one run: `net.bytes.raw` is what the same updates would
/// have cost dense, `net.bytes.encoded` is what actually crossed the wire.
/// The headline row is the paper pipeline (`delta → topk(1%) → q8`), which
/// must clear an ≥ 8× reduction at accuracy within 1% of the dense run.
///
/// Returns `(variant, best_accuracy, encoded_mb, compression_ratio)`.
pub fn codec_bandwidth(scale: &Scale) -> Vec<(String, f64, f64, f64)> {
    use spyker_core::update_codec::{CodecConfig, QuantBits};

    let scenario = Scenario::mnist(scale.clients, scale.servers, scale.seed);
    let window = SimTime::from_secs(110).min(scale.horizon * 2);
    let base = default_spyker_config(&scenario);
    let variants: Vec<(String, Option<CodecConfig>)> = vec![
        ("dense".into(), None),
        (
            "q8".into(),
            Some(CodecConfig::identity().with_quant(QuantBits::Q8)),
        ),
        (
            "delta+q8".into(),
            Some(CodecConfig {
                topk: None,
                ..CodecConfig::paper_pipeline()
            }),
        ),
        (
            CodecConfig::paper_pipeline().describe(),
            Some(CodecConfig::paper_pipeline()),
        ),
    ];

    let mut rows = Vec::new();
    let mut table = Table::new(&[
        "variant",
        "best accuracy",
        "client-server MB",
        "dense-equiv MB",
        "encoded MB",
        "ratio",
    ]);
    let mut dense_best = f64::NAN;
    for (name, codec) in &variants {
        let mut config = base.clone();
        if let Some(codec) = codec {
            config = config.with_codec(*codec);
        }
        let opts = RunOptions {
            spyker_config: Some(config),
            ..standard_opts(scale).with_max_time(window)
        };
        let run = run_algorithm(Algorithm::Spyker, &scenario, &opts);
        let best = run.best_metric().unwrap_or(f64::NAN);
        if codec.is_none() {
            dense_best = best;
        }
        let mb = |c: &str| run.metrics.counter(c) as f64 / 1e6;
        let (cs, raw, encoded) = (
            mb("net.bytes.client-server"),
            mb("net.bytes.raw"),
            mb("net.bytes.encoded"),
        );
        let ratio = run.metrics.counter("net.bytes.raw") as f64
            / run.metrics.counter("net.bytes.encoded").max(1) as f64;
        table.row(&[
            name.clone(),
            fmt_ratio(Some(best)),
            format!("{cs:.2}"),
            if codec.is_some() {
                format!("{raw:.2}")
            } else {
                format!("{cs:.2}")
            },
            if codec.is_some() {
                format!("{encoded:.2}")
            } else {
                format!("{cs:.2}")
            },
            if codec.is_some() {
                format!("{ratio:.1}x")
            } else {
                "1.0x".into()
            },
        ]);
        rows.push((
            name.clone(),
            best,
            if codec.is_some() { encoded } else { cs },
            ratio,
        ));
    }
    let (_, paper_best, _, paper_ratio) = rows.last().expect("paper pipeline row");
    let verdict = format!(
        "paper pipeline: {paper_ratio:.1}x upload reduction at accuracy \
         {paper_best:.4} vs dense {dense_best:.4} (target: >= 8x within 1%)\n"
    );
    let out = format!(
        "# Codec × bandwidth — upload compression over {window}\n{}{verdict}",
        table.render(),
    );
    println!("{out}");
    write_text(&results_dir().join("codec_bandwidth.txt"), &out);
    rows
}

/// Ablation: sigmoid activation rate `φ` (design choice of Alg. 2).
pub fn ablate_phi(scale: &Scale) -> Vec<(f32, Option<SimTime>, f64)> {
    ablate_config(scale, "ablate_phi", &[0.5, 1.5, 3.0, 6.0], |cfg, v| {
        cfg.clone().with_phi(v)
    })
}

/// Ablation: server aggregation rate `η_a`.
pub fn ablate_eta_a(scale: &Scale) -> Vec<(f32, Option<SimTime>, f64)> {
    ablate_config(scale, "ablate_eta_a", &[0.2, 0.4, 0.6, 0.9], |cfg, v| {
        cfg.clone().with_eta_a(v)
    })
}

/// Ablation: synchronisation thresholds (`h_inter` scaled, `h_intra`
/// effectively disabled so `h_inter` dominates).
pub fn ablate_thresholds(scale: &Scale) -> Vec<(f32, Option<SimTime>, f64)> {
    ablate_config(
        scale,
        "ablate_thresholds",
        &[1.0, 5.0, 25.0, 1e9],
        |cfg, v| cfg.clone().with_thresholds(v as f64, 1e12),
    )
}

/// Ablation: client staleness policy, including the literal printed
/// formula of Alg. 1.
pub fn ablate_staleness(scale: &Scale) -> Vec<(String, Option<SimTime>, f64)> {
    let scenario = Scenario::mnist(scale.clients, scale.servers, scale.seed);
    let base = default_spyker_config(&scenario);
    let policies: Vec<(String, ClientStaleness)> = vec![
        (
            "polynomial(0.5)".into(),
            ClientStaleness::Polynomial { alpha: 0.5 },
        ),
        ("inverse-linear".into(), ClientStaleness::InverseLinear),
        (
            "paper-literal(cap=1)".into(),
            ClientStaleness::PaperLiteral { cap: 1.0 },
        ),
        ("none".into(), ClientStaleness::None),
    ];
    let mut rows = Vec::new();
    let mut table = Table::new(&["staleness policy", "time@target", "best accuracy"]);
    for (name, policy) in policies {
        let opts = RunOptions {
            spyker_config: Some(base.clone().with_staleness(policy)),
            ..standard_opts(scale)
        };
        let run = run_algorithm(Algorithm::Spyker, &scenario, &opts);
        let t = run.time_to_target(scale.target_accuracy);
        let best = run.best_metric().unwrap_or(0.0);
        table.row(&[name.clone(), fmt_time(t), format!("{best:.3}")]);
        rows.push((name, t, best));
    }
    let out = format!("# Ablation — client staleness policy\n{}", table.render());
    println!("{out}");
    write_text(&results_dir().join("ablate_staleness.txt"), &out);
    rows
}

/// Client→server assignment that groups clients by their first label, so
/// each server's population is label-skewed and the server models drift
/// apart without exchanges. Used by the ablations, where the interesting
/// regime is the one in which server-model synchronisation matters.
pub fn label_skewed_assignment(scenario: &Scenario) -> Vec<usize> {
    scenario
        .shard_label_sets()
        .iter()
        .map(|labels| labels.first().copied().unwrap_or(0) % scenario.n_servers)
        .collect()
}

fn ablate_config(
    scale: &Scale,
    name: &str,
    values: &[f32],
    mutate: impl Fn(&SpykerConfig, f32) -> SpykerConfig,
) -> Vec<(f32, Option<SimTime>, f64)> {
    let scenario = Scenario::mnist(scale.clients, scale.servers, scale.seed);
    let base = default_spyker_config(&scenario);
    let assignment = label_skewed_assignment(&scenario);
    let mut rows = Vec::new();
    let mut table = Table::new(&["value", "time@target", "best accuracy"]);
    for &v in values {
        let opts = RunOptions {
            spyker_config: Some(mutate(&base, v)),
            assignment: Some(assignment.clone()),
            ..standard_opts(scale)
        };
        let run = run_algorithm(Algorithm::Spyker, &scenario, &opts);
        let t = run.time_to_target(scale.target_accuracy);
        let best = run.best_metric().unwrap_or(0.0);
        table.row(&[format!("{v}"), fmt_time(t), format!("{best:.3}")]);
        rows.push((v, t, best));
    }
    let out = format!("# Ablation — {name}\n{}", table.render());
    println!("{out}");
    write_text(&results_dir().join(format!("{name}.txt")), &out);
    rows
}

/// Paper Tab. 3 companion: the aggregation *procedure costs* are inputs to
/// the simulation (charged via `Env::busy`), not measurements of this
/// machine. This prints the configured values; the `tab3_*` rows of
/// `bench_smoke` measure the real cost of our implementations.
pub fn tab3_procedure_costs() -> String {
    let mut table = Table::new(&["procedure", "virtual cost (ms)"]);
    table.row(&["Local training (mean, N(150, 7.5^2))".into(), "150".into()]);
    table.row(&["Model aggregation in Sync-Spyker".into(), "2".into()]);
    table.row(&["Model aggregation in Spyker".into(), "2".into()]);
    table.row(&["Model aggregation in FedAvg".into(), "15".into()]);
    table.row(&["Model aggregation in HierFAVG".into(), "15".into()]);
    table.row(&["Model aggregation in FedAsync".into(), "2".into()]);
    let out = format!(
        "# Tab. 3 — per-procedure computation time charged in the emulation\n{}",
        table.render()
    );
    println!("{out}");
    write_text(&results_dir().join("tab3_procedures.txt"), &out);
    out
}

/// Extension experiment (the paper's §7 future work): multi-center
/// clustered Spyker vs vanilla Spyker on two client populations whose
/// labels *contradict* each other (population B permutes every label by
/// +5 mod 10 on identically distributed features). A single global model
/// can only satisfy one population at a time; two centers separate them.
///
/// Returns `(clustered_accuracy, vanilla_accuracy)` — mean per-population
/// accuracy, each population scored under its own labelling.
pub fn ext_clustering(scale: &Scale) -> (f64, f64) {
    use spyker_core::cluster::{ClusterTrainer, ClusteredFlClient, ClusteredSpykerServer};
    use spyker_core::deploy::{even_assignment, server_region};
    use spyker_core::params::ParamVec;
    use spyker_core::training::{Evaluator, LocalTrainer};
    use spyker_data::dataset::DenseDataset;
    use spyker_data::partition::label_partition;
    use spyker_data::synth::{SynthImages, SynthImagesSpec};
    use spyker_models::bridge::{DenseClusterTrainer, DenseEvaluator, DenseShardTrainer};
    use spyker_models::linear::SoftmaxRegression;
    use spyker_models::model::DenseModel;
    use spyker_simnet::Simulation;

    let n_clients = scale.clients.min(40);
    let n_servers = 2usize;
    let seed = scale.seed;
    let images = SynthImages::generate(&SynthImagesSpec::mnist_like_scaled(2000), seed);
    let permute = |l: usize| (l + 5) % 10;
    let relabel = |ds: &DenseDataset| {
        DenseDataset::new(
            ds.features().clone(),
            ds.labels().iter().map(|&l| permute(l)).collect(),
            ds.num_classes(),
            ds.sample_shape(),
        )
    };
    // l = 5 labels per client: a client can only tell a specialist center
    // from a mixed one on classes it actually holds, so the clustering
    // experiment needs shards that span enough of the label space (with
    // the main experiments' l = 2 the populations are indistinguishable
    // *to individual clients* and no clustering method can separate them).
    // Shuffle the shard -> client mapping: label_partition hands out
    // label-sorted shards, and with the deterministic client -> server
    // assignment that concentrates each server's clients on a contiguous
    // half of the label space, capping every per-server model at ~50%
    // accuracy no matter how well clustering works. Shuffling spreads the
    // labels so each (server, population) group sees most of the classes.
    let shards: Vec<DenseDataset> = {
        use rand::seq::SliceRandom;
        use rand::SeedableRng;
        let mut raw = label_partition(images.train.labels(), n_clients, 5, seed);
        raw.shuffle(&mut rand::rngs::StdRng::seed_from_u64(
            seed ^ 0x9d2c_5680_5a17_39e3,
        ));
        raw.into_iter()
            .map(|idx| images.train.subset(&idx))
            .collect()
    };
    // Population B (i % 4 >= 2): same features, permuted labels. The
    // population pattern is deliberately offset from the client->server
    // assignment (i % 2) so every server serves both populations.
    let is_pop_b = |i: usize| i % 4 >= 2;
    let make_trainers = || -> Vec<Box<dyn LocalTrainer>> {
        shards
            .iter()
            .enumerate()
            .map(|(i, shard)| {
                let shard = if is_pop_b(i) {
                    relabel(shard)
                } else {
                    shard.clone()
                };
                Box::new(DenseShardTrainer::new(
                    SoftmaxRegression::new(64, 10, seed),
                    shard,
                    10,
                    seed.wrapping_add(i as u64),
                )) as Box<dyn LocalTrainer>
            })
            .collect()
    };
    let delays = vec![SimTime::from_millis(150); n_clients];
    let assignment = even_assignment(n_clients, n_servers);
    let horizon = scale.horizon;

    // Clustered deployment: 2 centers per server, distinct inits.
    let inits = vec![
        ParamVec::from_vec(SoftmaxRegression::new(64, 10, seed).params_vec()),
        ParamVec::from_vec(SoftmaxRegression::new(64, 10, seed + 1).params_vec()),
    ];
    let cfg = spyker_core::config::SpykerConfig::paper_defaults(n_clients, n_servers);
    let mut clustered_sim: Simulation<spyker_core::msg::FlMsg> =
        Simulation::new(NetworkConfig::aws(), seed);
    let clients_of = spyker_core::deploy::clients_of_servers(&assignment, n_servers);
    for (i, clients) in clients_of.iter().enumerate() {
        clustered_sim.add_node(
            Box::new(ClusteredSpykerServer::new(
                i,
                (0..n_servers).collect(),
                clients.clone(),
                inits.clone(),
                cfg.clone(),
                SimTime::from_millis(500),
            )),
            server_region(i),
        );
    }
    for (i, shard) in shards.iter().enumerate() {
        let shard = if is_pop_b(i) {
            relabel(shard)
        } else {
            shard.clone()
        };
        let trainer: Box<dyn ClusterTrainer> = Box::new(DenseClusterTrainer::new(
            SoftmaxRegression::new(64, 10, seed),
            shard,
            10,
            seed.wrapping_add(i as u64),
        ));
        clustered_sim.add_node(
            Box::new(ClusteredFlClient::new(assignment[i], trainer, 1, delays[i])),
            server_region(assignment[i]),
        );
    }
    clustered_sim.run(horizon);

    // Vanilla Spyker on the identical population.
    let scenario_like_opts = RunOptions::standard().with_max_time(horizon);
    let mut vanilla_sim = spyker_core::deploy::spyker_deployment(
        scenario_like_opts.net.clone(),
        seed,
        spyker_core::deploy::SpykerDeploymentSpec {
            config: cfg.clone(),
            trainers: make_trainers(),
            num_servers: n_servers,
            init_params: inits[0].clone(),
            train_delay: delays.clone(),
        },
    );
    vanilla_sim.run(horizon);

    // Score: each population under its own labelling; clustered picks the
    // best center per population, vanilla has one model.
    let eval_a = DenseEvaluator::new(
        SoftmaxRegression::new(64, 10, seed),
        images.test.clone(),
        300,
    );
    let eval_b = DenseEvaluator::new(
        SoftmaxRegression::new(64, 10, seed),
        relabel(&images.test),
        300,
    );
    let score_params =
        |p: &ParamVec, eval: &DenseEvaluator<SoftmaxRegression>| -> f64 { eval.evaluate(p).metric };
    let mut clustered_scores = Vec::new();
    for s in 0..n_servers {
        let server = clustered_sim
            .node(s)
            .as_any()
            .downcast_ref::<ClusteredSpykerServer>()
            .expect("clustered server");
        let centers = server.centers();
        let best_a = (0..centers.k())
            .map(|c| score_params(centers.center(c), &eval_a))
            .fold(0.0f64, f64::max);
        let best_b = (0..centers.k())
            .map(|c| score_params(centers.center(c), &eval_b))
            .fold(0.0f64, f64::max);
        clustered_scores.push((best_a + best_b) / 2.0);
    }
    let clustered_acc = clustered_scores.iter().sum::<f64>() / clustered_scores.len() as f64;

    let mut vanilla_scores = Vec::new();
    for s in 0..n_servers {
        let server = vanilla_sim
            .node(s)
            .as_any()
            .downcast_ref::<spyker_core::server::SpykerServer>()
            .expect("spyker server");
        let a = score_params(server.params(), &eval_a);
        let b = score_params(server.params(), &eval_b);
        vanilla_scores.push((a + b) / 2.0);
    }
    let vanilla_acc = vanilla_scores.iter().sum::<f64>() / vanilla_scores.len() as f64;

    let mut table = Table::new(&["variant", "mean per-population accuracy"]);
    table.row(&["clustered (K=2)".into(), format!("{clustered_acc:.3}")]);
    table.row(&["vanilla Spyker".into(), format!("{vanilla_acc:.3}")]);
    let out = format!(
        "# Extension — client clustering (paper §7 future work), {n_clients} clients, contradictory labels\n{}",
        table.render()
    );
    println!("{out}");
    write_text(&results_dir().join("ext_clustering.txt"), &out);
    (clustered_acc, vanilla_acc)
}

/// One row of [`byzantine_ablation`]: a strategy's outcome under attack.
#[derive(Debug, Clone, PartialEq)]
pub struct ByzantineRow {
    /// Strategy label (first row is the fault-free baseline).
    pub label: String,
    /// Best test accuracy over the run.
    pub best_accuracy: f64,
    /// Final test accuracy.
    pub final_accuracy: f64,
    /// Model-update sends corrupted in flight (`fault.byzantine`).
    pub corrupted: u64,
    /// Updates the validation gate rejected (`agg.rejected`).
    pub rejected: u64,
}

/// Robustness extension (beyond the paper): Spyker under `k = n/4`
/// sign-flip Byzantine clients, one run per aggregation strategy, against
/// a fault-free plain-mean baseline.
///
/// The paper's Alg. 1 trusts every update; this ablation measures how much
/// accuracy each robust configuration recovers when a quarter of the
/// clients upload sign-flipped (gradient-ascent) models. The robust rows
/// run the full defence pipeline — norm-validation gate plus robust
/// aggregator — while the `mean` rows keep the paper's trust-everything
/// path; the contrast between the attacked `mean` row and everything else
/// is the headline. Set `SPYKER_BYZ_DEBUG=1` to print each run's accuracy
/// series.
pub fn byzantine_ablation(scale: &Scale) -> Vec<ByzantineRow> {
    use spyker_core::agg::{AggregationStrategy, ValidationConfig};
    use spyker_simnet::{ByzantineAttack, FaultPlan};

    let n = scale.clients;
    let n_servers = scale.servers;
    let scenario = Scenario::mnist(n, n_servers, scale.seed);
    // Hold the client learning rate constant: with the decay schedule on,
    // decay-weighted aggregation anneals *attacker* updates toward zero
    // along with everyone else's, so a sustained attack fades out of the
    // plain-mean run and the strategies become indistinguishable.
    let base = {
        let b = default_spyker_config(&scenario);
        let decay = b.decay.disabled();
        b.with_decay(decay)
    };
    let k = n / 4;
    // Clients are nodes `n_servers..n_servers + n` in the Spyker layout;
    // mark the first k as sign-flippers (even_assignment spreads them
    // round-robin over the servers).
    let mut plan = FaultPlan::none();
    for i in 0..k {
        plan = plan.byzantine(n_servers + i, ByzantineAttack::SignFlip);
    }
    // One "round" of a server's clients per robust batch. The trim is
    // mild (one value per tail at this batch size): on non-IID shards a
    // coordinate's signal often lives in just a couple of clients, so an
    // aggressive trim throws the minority-label gradient away with the
    // attacker — the gate below removes most Byzantine mass, and the trim
    // only has to absorb what slips through.
    let batch = (n / n_servers).max(4);
    let trimmed = AggregationStrategy::TrimmedMean {
        batch,
        trim_ratio: 0.25,
    };
    // The robust rows run the *full* pipeline: norm gate + robust
    // aggregator. A sign-flipped model sits at distance ~2‖W‖ from the
    // server model while honest deltas are small local corrections, so the
    // gate rejects mature attacks outright; the trim absorbs the early
    // ones that pass (and anything an adaptive attacker keeps under the
    // bound). The `mean` rows keep the paper's trust-everything gate.
    let gate = ValidationConfig {
        max_delta_norm: Some(2.0),
        ..ValidationConfig::default()
    };
    let trusting = ValidationConfig::default();
    let strategies: Vec<(&str, AggregationStrategy, ValidationConfig, bool)> = vec![
        (
            "mean (fault-free)",
            AggregationStrategy::Mean,
            trusting,
            false,
        ),
        ("trimmed-mean (fault-free)", trimmed, gate, false),
        ("mean", AggregationStrategy::Mean, trusting, true),
        ("trimmed-mean", trimmed, gate, true),
        ("median", AggregationStrategy::Median { batch }, gate, true),
        (
            "clipped-mean",
            AggregationStrategy::ClippedMean {
                batch,
                max_norm: 1.0,
            },
            gate,
            true,
        ),
    ];
    let mut rows = Vec::new();
    let mut table = Table::new(&[
        "aggregation",
        "best accuracy",
        "final accuracy",
        "corrupted sends",
        "rejected updates",
    ]);
    for (label, aggregation, validation, attacked) in strategies {
        let opts = RunOptions {
            spyker_config: Some(
                base.clone()
                    .with_aggregation(aggregation)
                    .with_validation(validation),
            ),
            faults: if attacked {
                plan.clone()
            } else {
                FaultPlan::none()
            },
            ..standard_opts(scale)
        };
        let run = run_algorithm(Algorithm::Spyker, &scenario, &opts);
        if std::env::var("SPYKER_BYZ_DEBUG").is_ok() {
            let series: Vec<String> = run
                .samples
                .iter()
                .map(|s| format!("{:.2}", s.metric))
                .collect();
            println!("{label}: {}", series.join(" "));
        }
        let row = ByzantineRow {
            label: label.to_string(),
            best_accuracy: run.best_metric().unwrap_or(0.0),
            final_accuracy: run.final_metric().unwrap_or(0.0),
            corrupted: run.metrics.counter("fault.byzantine"),
            rejected: run.metrics.counter("agg.rejected"),
        };
        table.row(&[
            row.label.clone(),
            format!("{:.3}", row.best_accuracy),
            format!("{:.3}", row.final_accuracy),
            row.corrupted.to_string(),
            row.rejected.to_string(),
        ]);
        rows.push(row);
    }
    let out = format!(
        "# Byzantine robustness — {k}/{n} sign-flip clients, {n_servers} servers, batch {batch}\n{}",
        table.render()
    );
    println!("{out}");
    write_text(&results_dir().join("byzantine_ablation.txt"), &out);
    rows
}

/// Sanity helper shared by tests: a tiny end-to-end Spyker run.
pub fn smoke_run() -> RunResult {
    let scale = Scale::small();
    let scenario = Scenario::mnist(12, 2, 7);
    run_algorithm(
        Algorithm::Spyker,
        &scenario,
        &standard_opts(&scale).with_max_time(SimTime::from_secs(10)),
    )
}

/// Gaussian helper re-exported for binaries that build custom delay sets.
pub fn gaussian_delays(n: usize, mean_ms: f64, std_ms: f64, seed: u64) -> Vec<SimTime> {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let ms = sample_normal(mean_ms as f32, std_ms as f32, &mut rng).max(1.0) as f64;
            SimTime::from_millis_f64(ms)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn imbalanced_assignment_matches_spec() {
        let a = imbalanced_assignment(100, 4, 52);
        assert_eq!(a.iter().filter(|&&s| s == 0).count(), 52);
        let rest: Vec<usize> = (1..4)
            .map(|s| a.iter().filter(|&&x| x == s).count())
            .collect();
        assert_eq!(rest.iter().sum::<usize>(), 48);
        assert!(rest.iter().max().unwrap() - rest.iter().min().unwrap() <= 1);
    }

    #[test]
    fn scale_from_env_defaults_to_paper() {
        // Do not set the env var here (tests run in one process); just
        // check the presets are sane.
        assert!(Scale::paper().clients > Scale::small().clients);
        assert_eq!(Scale::paper().servers, 4);
    }

    #[test]
    fn smoke_run_improves_accuracy() {
        let run = smoke_run();
        assert!(run.best_metric().unwrap() > run.samples[0].metric);
    }

    #[test]
    fn gaussian_delays_have_requested_mean() {
        let d = gaussian_delays(500, 150.0, 60.0, 1);
        let mean: f64 = d.iter().map(|t| t.as_millis_f64()).sum::<f64>() / 500.0;
        assert!((mean - 150.0).abs() < 10.0, "mean {mean}");
    }
}
