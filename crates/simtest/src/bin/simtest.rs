//! Seed-sweep driver for the simulation-test harness.
//!
//! ```text
//! simtest [--seeds N] [--start-seed S] [--budget-events N[k|m]]
//!         [--out DIR] [--time-cap-secs N] [--replay FILE] [--churn]
//!         [--codec] [--scale N[k|m]] [--cohort K] [--preset NAME]
//!         [--min-events-per-sec N[k|m]] [--scenarios DIR]
//!         [--check-pinned] [--update-pinned] [--write-scenarios DIR]
//! ```
//!
//! Sweeps `N` seeds starting at `S`: each seed expands into a random
//! scenario that runs under the full oracle suite. On the first violation
//! the scenario is shrunk to a minimal reproducer, written to
//! `--out` as `repro_<seed>.ron`, and the sweep aborts with exit code 1.
//! `--replay FILE` runs one reproducer instead of sweeping.
//!
//! Exactly one *workload mode* drives scenario expansion; the flags that
//! select one are validated centrally (see [`Mode`]) instead of pairwise:
//!
//! - *(default)* — `SimScenario::generate`: random faults, no churn.
//! - `--churn` — scheduled server joins/leaves on top of random faults.
//! - `--codec` — a randomized update-compression pipeline per seed.
//! - `--scale N` — one cohort-batched scalability run with `N` logical
//!   clients (cohorts of `--cohort`, default 128); `--min-events-per-sec`
//!   turns the printed throughput into a CI floor.
//! - `--preset NAME` — a named workload from the scenario library
//!   (`diurnal`, `device_tiers`, `flash_crowd`, `regional_outage`,
//!   `staleness_storm`): a deterministic transform over the seed's base
//!   scenario.
//!
//! `--codec` *composes* with `--scale` (cohorts encode through the paper
//! pipeline) and with `--preset` (the preset transform runs on top of the
//! codec expansion). It conflicts with `--churn`, and `--preset` conflicts
//! with `--churn`/`--scale` — each owns the scenario's dynamics.
//!
//! The pinned regression corpus: `--check-pinned` replays every preset's
//! committed scenario file from `--scenarios DIR` (default `scenarios/`),
//! verifies the file is still byte-for-byte its generator's RON, and
//! compares the run's end-state fingerprint against the constant pinned in
//! the catalog — exit 1 on any drift. After an *intentional* behavior change, regenerate
//! with `--write-scenarios DIR` and refresh the constants printed by
//! `--check-pinned --update-pinned`.
//!
//! `--time-cap-secs` bounds wall-clock time (for CI): the sweep stops
//! early — cleanly, reporting how many seeds it covered — when the cap is
//! reached. Determinism is per-seed, so a capped sweep checks a prefix of
//! exactly the same runs a full sweep would.

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use spyker_simtest::{
    run_scenario, shrink, write_repro, RunOutcome, ScaleSpec, ScenarioPreset, SimScenario,
};

/// The resolved workload mode — the single place mode-flag exclusivity
/// lives. Every combination either maps to exactly one variant or is
/// rejected with a message naming the clash.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Mode {
    /// Plain random scenarios (`SimScenario::generate`).
    Plain,
    /// Random scenarios plus scheduled membership churn.
    Churn,
    /// Random scenarios plus a randomized compression pipeline.
    Codec,
    /// One cohort-batched scalability run (optionally codec-encoded).
    Scale { logical: u64, codec: bool },
    /// A scenario-library preset (optionally over the codec expansion).
    Preset { preset: ScenarioPreset, codec: bool },
}

impl Mode {
    /// Resolves the raw mode flags into one workload mode.
    fn resolve(
        churn: bool,
        codec: bool,
        scale: Option<u64>,
        preset: Option<&str>,
    ) -> Result<Mode, String> {
        let preset = match preset {
            None => None,
            Some(name) => Some(ScenarioPreset::from_name(name).ok_or_else(|| {
                let names: Vec<&str> = ScenarioPreset::ALL.iter().map(|p| p.name()).collect();
                format!("unknown preset '{name}' (catalog: {})", names.join(", "))
            })?),
        };
        match (churn, scale, preset) {
            (true, Some(_), _) => Err("--churn and --scale are mutually exclusive".into()),
            (true, _, Some(_)) => {
                Err("--preset owns the scenario's dynamics; it cannot combine with --churn".into())
            }
            (_, Some(_), Some(_)) => Err("--preset and --scale are mutually exclusive".into()),
            (true, None, None) if codec => Err(
                "--churn and --codec are mutually exclusive (a re-homed client legitimately \
                 misses delta references, which the codec oracle flags)"
                    .into(),
            ),
            (true, None, None) => Ok(Mode::Churn),
            (false, Some(logical), None) => Ok(Mode::Scale { logical, codec }),
            (false, None, Some(preset)) => Ok(Mode::Preset { preset, codec }),
            (false, None, None) if codec => Ok(Mode::Codec),
            (false, None, None) => Ok(Mode::Plain),
        }
    }

    /// Expands one seed under this mode (sweep modes only).
    fn expand(self, seed: u64) -> SimScenario {
        match self {
            Mode::Plain => SimScenario::generate(seed),
            Mode::Churn => SimScenario::generate_churn(seed),
            Mode::Codec => SimScenario::generate_codec(seed),
            Mode::Preset { preset, codec } => {
                if codec {
                    preset.apply(SimScenario::generate_codec(seed))
                } else {
                    preset.generate(seed)
                }
            }
            Mode::Scale { .. } => unreachable!("scale mode does not sweep seeds"),
        }
    }
}

struct Opts {
    seeds: u64,
    start_seed: u64,
    budget_events: u64,
    out: PathBuf,
    time_cap_secs: Option<u64>,
    replay: Option<PathBuf>,
    churn: bool,
    codec: bool,
    scale: Option<u64>,
    preset: Option<String>,
    cohort: u64,
    min_events_per_sec: Option<u64>,
    scenarios: PathBuf,
    check_pinned: bool,
    update_pinned: bool,
    write_scenarios: Option<PathBuf>,
}

fn usage() -> ! {
    eprintln!(
        "usage: simtest [--seeds N] [--start-seed S] [--budget-events N[k|m]]\n\
         \x20              [--out DIR] [--time-cap-secs N] [--replay FILE] [--churn]\n\
         \x20              [--codec] [--scale N[k|m]] [--cohort K] [--preset NAME]\n\
         \x20              [--min-events-per-sec N[k|m]] [--scenarios DIR]\n\
         \x20              [--check-pinned] [--update-pinned] [--write-scenarios DIR]"
    );
    std::process::exit(2)
}

fn parse_count(s: &str) -> Option<u64> {
    let (num, mult) = match s.to_ascii_lowercase() {
        ref l if l.ends_with('k') => (l[..l.len() - 1].to_string(), 1_000),
        ref l if l.ends_with('m') => (l[..l.len() - 1].to_string(), 1_000_000),
        l => (l, 1),
    };
    num.parse::<u64>().ok().map(|n| n * mult)
}

fn parse_opts() -> Opts {
    let mut opts = Opts {
        seeds: 64,
        start_seed: 0,
        budget_events: 200_000,
        out: PathBuf::from("target/simtest"),
        time_cap_secs: None,
        replay: None,
        churn: false,
        codec: false,
        scale: None,
        preset: None,
        cohort: 128,
        min_events_per_sec: None,
        scenarios: PathBuf::from("scenarios"),
        check_pinned: false,
        update_pinned: false,
        write_scenarios: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = || args.next().unwrap_or_else(|| usage());
        match arg.as_str() {
            "--seeds" => opts.seeds = parse_count(&value()).unwrap_or_else(|| usage()),
            "--start-seed" => opts.start_seed = parse_count(&value()).unwrap_or_else(|| usage()),
            "--budget-events" => {
                opts.budget_events = parse_count(&value()).unwrap_or_else(|| usage())
            }
            "--out" => opts.out = PathBuf::from(value()),
            "--time-cap-secs" => {
                opts.time_cap_secs = Some(parse_count(&value()).unwrap_or_else(|| usage()))
            }
            "--replay" => opts.replay = Some(PathBuf::from(value())),
            "--churn" => opts.churn = true,
            "--codec" => opts.codec = true,
            "--scale" => opts.scale = Some(parse_count(&value()).unwrap_or_else(|| usage())),
            "--preset" => opts.preset = Some(value()),
            "--cohort" => opts.cohort = parse_count(&value()).unwrap_or_else(|| usage()),
            "--min-events-per-sec" => {
                opts.min_events_per_sec = Some(parse_count(&value()).unwrap_or_else(|| usage()))
            }
            "--scenarios" => opts.scenarios = PathBuf::from(value()),
            "--check-pinned" => opts.check_pinned = true,
            "--update-pinned" => opts.update_pinned = true,
            "--write-scenarios" => opts.write_scenarios = Some(PathBuf::from(value())),
            "--help" | "-h" => usage(),
            _ => usage(),
        }
    }
    opts
}

/// Writes every preset's pinned-seed expansion to `dir` and prints the
/// fingerprint constants to pin in the catalog.
fn write_scenarios(dir: &Path, budget_events: u64) -> ExitCode {
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("simtest: cannot create {}: {e}", dir.display());
        return ExitCode::from(2);
    }
    for p in ScenarioPreset::ALL {
        let sc = p.generate(p.pinned_seed());
        let path = dir.join(format!("{}.ron", p.name()));
        if let Err(e) = std::fs::write(&path, sc.to_ron()) {
            eprintln!("simtest: cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
        match run_scenario(&sc, budget_events) {
            RunOutcome::Clean(stats) => println!(
                "{}: seed {} -> {} ({} events, fingerprint {:#018x})",
                p.name(),
                p.pinned_seed(),
                path.display(),
                stats.events,
                stats.fingerprint
            ),
            RunOutcome::Violated(v) => {
                println!("{}: seed {} VIOLATION {v}", p.name(), p.pinned_seed());
                return ExitCode::from(1);
            }
        }
    }
    ExitCode::SUCCESS
}

/// Replays the committed corpus: every `scenarios/<name>.ron` must still
/// be byte-for-byte its generator's RON and reproduce its pinned
/// fingerprint.
fn check_pinned(dir: &Path, budget_events: u64, update: bool) -> ExitCode {
    let mut drifted = false;
    for p in ScenarioPreset::ALL {
        let path = dir.join(format!("{}.ron", p.name()));
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("simtest: cannot read {}: {e}", path.display());
                return ExitCode::from(2);
            }
        };
        let sc = match SimScenario::from_ron(&text) {
            Ok(sc) => sc,
            Err(e) => {
                eprintln!("simtest: cannot parse {}: {e}", path.display());
                return ExitCode::from(2);
            }
        };
        let generated = p.generate(p.pinned_seed());
        if sc != generated || generated.to_ron() != text {
            println!(
                "{}: {} is no longer byte-for-byte generate({}) — the preset generator \
                 or the RON writer changed; regenerate with --write-scenarios",
                p.name(),
                path.display(),
                p.pinned_seed()
            );
            drifted = true;
            continue;
        }
        match run_scenario(&sc, budget_events) {
            RunOutcome::Violated(v) => {
                println!("{}: VIOLATION {v}", p.name());
                drifted = true;
            }
            RunOutcome::Clean(stats) if update => {
                println!("ScenarioPreset::{:?} => {:#018x},", p, stats.fingerprint)
            }
            RunOutcome::Clean(stats) if stats.fingerprint != p.pinned_fingerprint() => {
                println!(
                    "{}: fingerprint {:#018x} != pinned {:#018x} — protocol behavior \
                     changed under this workload (if intentional, refresh with \
                     --check-pinned --update-pinned)",
                    p.name(),
                    stats.fingerprint,
                    p.pinned_fingerprint()
                );
                drifted = true;
            }
            RunOutcome::Clean(stats) => println!(
                "{}: pinned fingerprint {:#018x} reproduced ({} events)",
                p.name(),
                stats.fingerprint,
                stats.events
            ),
        }
    }
    if drifted {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}

fn main() -> ExitCode {
    let opts = parse_opts();
    let mode = match Mode::resolve(opts.churn, opts.codec, opts.scale, opts.preset.as_deref()) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("simtest: {e}");
            return ExitCode::from(2);
        }
    };

    if let Some(dir) = &opts.write_scenarios {
        return write_scenarios(dir, opts.budget_events);
    }
    if opts.check_pinned {
        return check_pinned(&opts.scenarios, opts.budget_events, opts.update_pinned);
    }

    if let Mode::Scale { logical, codec } = mode {
        let spec = ScaleSpec {
            logical_clients: logical,
            cohort_size: opts.cohort.max(1),
            codec: codec.then(spyker_core::update_codec::CodecConfig::paper_pipeline),
            ..ScaleSpec::ci_smoke()
        };
        println!(
            "scale run: {} logical clients in {} cohorts of ≤{} on {} servers \
             (horizon {}, wheel scheduler, flow-shared links{})",
            spec.logical_clients,
            spec.n_cohorts(),
            spec.cohort_size,
            spec.n_servers,
            spec.horizon,
            spec.codec
                .map_or_else(String::new, |c| format!(", codec {}", c.describe())),
        );
        let stats = spyker_simtest::run_scale(&spec, opts.budget_events);
        println!(
            "events {}  end {}  updates {}  throughput {:.0} events/sec  peak RSS {}",
            stats.events,
            stats.end_time,
            stats.updates_processed,
            stats.events_per_sec,
            stats.peak_rss_bytes.map_or_else(
                || "n/a".to_string(),
                |b| format!("{:.1} MiB", b as f64 / (1024.0 * 1024.0))
            ),
        );
        // Everything on this line is virtual-world state: two builds that
        // run the same protocol print it byte for byte.
        println!(
            "scale: {} events, {} updates, fingerprint {:016x}",
            stats.events, stats.updates_processed, stats.fingerprint
        );
        if let Some(v) = &stats.violation {
            println!("VIOLATION {v}");
            return ExitCode::from(1);
        }
        if stats.updates_processed == 0 {
            println!("FAIL: scale run processed zero updates");
            return ExitCode::from(1);
        }
        if let Some(floor) = opts.min_events_per_sec {
            if stats.events_per_sec < floor as f64 {
                println!(
                    "FAIL: throughput {:.0} events/sec below the {floor} floor",
                    stats.events_per_sec
                );
                return ExitCode::from(1);
            }
            println!("ok: throughput above the {floor} events/sec floor");
        }
        println!("scale run oracle-green");
        return ExitCode::SUCCESS;
    }

    if let Some(path) = &opts.replay {
        let sc = match spyker_simtest::load_repro(path) {
            Ok(sc) => sc,
            Err(e) => {
                eprintln!("simtest: cannot load {}: {e}", path.display());
                return ExitCode::from(2);
            }
        };
        println!(
            "replaying {} (seed {}, {} servers, {} clients)",
            path.display(),
            sc.seed,
            sc.n_servers,
            sc.n_clients
        );
        return match run_scenario(&sc, opts.budget_events) {
            RunOutcome::Clean(stats) => {
                println!(
                    "clean: {} events, fingerprint {:016x}",
                    stats.events, stats.fingerprint
                );
                ExitCode::SUCCESS
            }
            RunOutcome::Violated(v) => {
                println!("violation reproduced: {v}");
                ExitCode::from(1)
            }
        };
    }

    let started = Instant::now();
    let mut swept = 0u64;
    for seed in opts.start_seed..opts.start_seed + opts.seeds {
        if let Some(cap) = opts.time_cap_secs {
            if started.elapsed().as_secs() >= cap {
                println!(
                    "time cap reached after {swept}/{} seeds — stopping early (all clean)",
                    opts.seeds
                );
                return ExitCode::SUCCESS;
            }
        }
        let sc = mode.expand(seed);
        match run_scenario(&sc, opts.budget_events) {
            RunOutcome::Clean(stats) => {
                swept += 1;
                println!(
                    "seed {seed}: clean ({} servers, {} clients, {} faults, {} joins, \
                     {} leaves, {} offline windows{}, {} events, fingerprint {:016x})",
                    sc.n_servers,
                    sc.n_clients,
                    sc.fault_count(),
                    sc.joins.len(),
                    sc.leaves.len(),
                    sc.avail_windows.len(),
                    sc.preset
                        .as_deref()
                        .map_or_else(String::new, |p| format!(", preset {p}")),
                    stats.events,
                    stats.fingerprint
                );
            }
            RunOutcome::Violated(v) => {
                println!("seed {seed}: VIOLATION {v}");
                println!("shrinking (size {})...", sc.size());
                let small = shrink(&sc, opts.budget_events);
                let small_v = match run_scenario(&small, opts.budget_events) {
                    RunOutcome::Violated(v) => v,
                    RunOutcome::Clean(_) => unreachable!("shrink returns a failing scenario"),
                };
                println!("shrunk to size {}: {small_v}", small.size());
                match write_repro(&opts.out, &small, &small_v) {
                    Ok(path) => println!("reproducer written to {}", path.display()),
                    Err(e) => eprintln!("simtest: cannot write reproducer: {e}"),
                }
                return ExitCode::from(1);
            }
        }
    }
    println!("{swept} seeds clean");
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_resolution_accepts_every_legal_combination() {
        assert_eq!(Mode::resolve(false, false, None, None), Ok(Mode::Plain));
        assert_eq!(Mode::resolve(true, false, None, None), Ok(Mode::Churn));
        assert_eq!(Mode::resolve(false, true, None, None), Ok(Mode::Codec));
        assert_eq!(
            Mode::resolve(false, false, Some(4096), None),
            Ok(Mode::Scale {
                logical: 4096,
                codec: false
            })
        );
        assert_eq!(
            Mode::resolve(false, true, Some(4096), None),
            Ok(Mode::Scale {
                logical: 4096,
                codec: true
            })
        );
        assert_eq!(
            Mode::resolve(false, false, None, Some("diurnal")),
            Ok(Mode::Preset {
                preset: ScenarioPreset::Diurnal,
                codec: false
            })
        );
        // --codec composes with --preset: the transform runs on top of the
        // codec expansion.
        assert_eq!(
            Mode::resolve(false, true, None, Some("device_tiers")),
            Ok(Mode::Preset {
                preset: ScenarioPreset::DeviceTiers,
                codec: true
            })
        );
    }

    #[test]
    fn mode_resolution_rejects_every_clash_with_a_specific_message() {
        let err = Mode::resolve(true, true, None, None).unwrap_err();
        assert!(err.contains("--churn and --codec"), "{err}");
        let err = Mode::resolve(true, false, None, Some("diurnal")).unwrap_err();
        assert!(err.contains("cannot combine with --churn"), "{err}");
        let err = Mode::resolve(false, false, Some(1024), Some("diurnal")).unwrap_err();
        assert!(err.contains("--preset and --scale"), "{err}");
        let err = Mode::resolve(true, false, Some(1024), None).unwrap_err();
        assert!(err.contains("--churn and --scale"), "{err}");
        let err = Mode::resolve(false, false, None, Some("nope")).unwrap_err();
        assert!(err.contains("unknown preset 'nope'"), "{err}");
        assert!(err.contains("diurnal"), "catalog missing from error: {err}");
    }

    #[test]
    fn preset_mode_expansion_matches_the_catalog() {
        let m = Mode::resolve(false, false, None, Some("flash_crowd")).unwrap();
        assert_eq!(m.expand(7), ScenarioPreset::FlashCrowd.generate(7));
        let m = Mode::resolve(false, true, None, Some("flash_crowd")).unwrap();
        assert_eq!(
            m.expand(7),
            ScenarioPreset::FlashCrowd.apply(SimScenario::generate_codec(7))
        );
        assert!(m.expand(7).codec.is_some(), "codec lost in composition");
    }
}
