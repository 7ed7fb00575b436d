//! The `bench_e2e` command line. See `README.md`.

use std::fs;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::thread;
use std::time::{Duration, Instant};

use bench_e2e::compare::compare;
use bench_e2e::json::Json;
use bench_e2e::measure::measure;
use bench_e2e::trace::write_tsv;
use bench_e2e::workloads::Workload;

const USAGE: &str = "\
usage: bench_e2e run [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--out DIR]
       bench_e2e compare A.json B.json [--benchmark BENCHMARK.json]

run      measures the named workload (default: all four) in the named pass
         (0 = end-to-end, 1 = traced per-layer; default: both), each
         measurement in a child process of its own with a hard timeout.
         Measuring more than one, it also writes DIR/results.json.
compare  judges result file B against A with the bounds of BENCHMARK.json.

Run from the repository root. DIR defaults to bench_e2e/out.";

/// A child that has not finished by then is killed and reported failed.
/// Below the 180 s a benchmark run may take, with room to report.
const CHILD_TIMEOUT: Duration = Duration::from_secs(150);

struct RunArgs {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: Option<bool>,
    out: PathBuf,
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut parsed = RunArgs {
        workload: None,
        seed: 1,
        seconds: 16.0,
        trace: None,
        out: PathBuf::from("bench_e2e/out"),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                parsed.workload = Some(Workload::from_name(value).ok_or_else(|| {
                    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {value}; one of {}", names.join(", "))
                })?);
            }
            "--seed" => parsed.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                parsed.seconds = value.parse().map_err(|_| bad())?;
                if !(parsed.seconds.is_finite() && parsed.seconds > 0.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                parsed.trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                });
            }
            "--out" => parsed.out = PathBuf::from(value),
            _ => return Err(format!("unknown option {flag}")),
        }
    }
    Ok(parsed)
}

fn detail_path(out: &Path, workload: Workload, trace: bool) -> PathBuf {
    out.join(format!("{}.trace{}.json", workload.name(), u8::from(trace)))
}

/// The child: one measurement in this process. Prints the report, writes
/// the detail file (and the spans of a traced pass), and ends with the
/// result line.
fn rep(args: &RunArgs) -> Result<(), String> {
    let workload = args.workload.ok_or("rep needs --workload")?;
    let trace = args.trace.ok_or("rep needs --trace")?;
    let m = measure(workload, args.seed, args.seconds, trace);
    let io = |e: std::io::Error| format!("writing under {}: {e}", args.out.display());
    fs::create_dir_all(args.out.join("trace")).map_err(io)?;
    fs::write(
        detail_path(&args.out, workload, trace),
        m.detail().render() + "\n",
    )
    .map_err(io)?;
    if trace {
        let path = args
            .out
            .join("trace")
            .join(format!("{}.spans.tsv", workload.name()));
        let mut file = BufWriter::new(fs::File::create(path).map_err(io)?);
        write_tsv(&m.spans, &mut file).map_err(io)?;
        file.flush().map_err(io)?;
    }
    print!("{}", m.table());
    println!("{}", m.result_line());
    Ok(())
}

/// Runs one measurement in a child process; `Err` if it could not be
/// started, failed, or had to be killed.
fn spawn_rep(args: &RunArgs, workload: Workload, trace: bool) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this program: {e}"))?;
    let mut child = Command::new(exe)
        .arg("rep")
        .args(["--workload", workload.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out")
        .arg(&args.out)
        .stdin(Stdio::null())
        .spawn()
        .map_err(|e| format!("starting the child: {e}"))?;
    let started = Instant::now();
    loop {
        match child.try_wait() {
            Ok(Some(status)) if status.success() => return Ok(()),
            Ok(Some(status)) => return Err(format!("child ended with {status}")),
            Ok(None) if started.elapsed() < CHILD_TIMEOUT => {
                thread::sleep(Duration::from_millis(20))
            }
            Ok(None) => {
                // Kill, then reap, so no process outlives this one.
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!("killed after {} s", CHILD_TIMEOUT.as_secs()));
            }
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!("waiting for the child: {e}"));
            }
        }
    }
}

fn read_json(path: &Path) -> Result<Json, String> {
    let text = fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Merges a workload's two detail files into its `results.json` entry:
/// the end-to-end pass, with the traced pass's ledger beside it.
fn merged(out: &Path, workload: Workload) -> Result<Json, String> {
    let Json::Obj(mut entry) = read_json(&detail_path(out, workload, false))? else {
        return Err(format!("{}: not an object", workload.name()));
    };
    let traced = read_json(&detail_path(out, workload, true))?;
    for (key, value) in &mut entry {
        if key == "per_layer" {
            *value = traced.get("per_layer").cloned().unwrap_or(Json::Null);
        } else if key == "correct" {
            let both =
                *value == Json::Bool(true) && traced.get("correct") == Some(&Json::Bool(true));
            *value = Json::Bool(both);
        }
    }
    Ok(Json::Obj(entry))
}

fn run(args: &RunArgs) -> Result<bool, String> {
    let workloads = args.workload.map_or(Workload::ALL.to_vec(), |w| vec![w]);
    let passes = args.trace.map_or(vec![false, true], |t| vec![t]);
    let single = workloads.len() * passes.len() == 1;
    let mut all_ok = true;
    let mut entries = Vec::new();
    for &workload in &workloads {
        let mut measured = true;
        for &trace in &passes {
            if let Err(e) = spawn_rep(args, workload, trace) {
                eprintln!(
                    "{} (trace {}): FAILED: {e}",
                    workload.name(),
                    u8::from(trace)
                );
                measured = false;
            }
        }
        all_ok &= measured;
        if measured && passes.len() == 2 {
            let entry = merged(&args.out, workload)?;
            all_ok &= entry.get("correct") == Some(&Json::Bool(true));
            entries.push(entry);
        }
    }
    if !single && passes.len() == 2 {
        let results = Json::obj([
            ("seed", Json::Num(args.seed as f64)),
            ("seconds", Json::Num(args.seconds)),
            ("workloads", Json::Arr(entries)),
        ]);
        let path = args.out.join("results.json");
        fs::write(&path, results.render() + "\n")
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!("wrote {}", path.display());
    }
    Ok(all_ok)
}

fn compare_files(args: &[String]) -> Result<bool, String> {
    let mut benchmark = PathBuf::from("BENCHMARK.json");
    let mut files = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if arg == "--benchmark" {
            benchmark = PathBuf::from(it.next().ok_or("--benchmark needs a value")?);
        } else {
            files.push(PathBuf::from(arg));
        }
    }
    let [a, b] = files.as_slice() else {
        return Err("compare takes exactly two result files".to_string());
    };
    let (table, regressed) = compare(&read_json(&benchmark)?, &read_json(a)?, &read_json(b)?)?;
    print!("{table}");
    Ok(!regressed)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.split_first() {
        Some((cmd, rest)) if cmd == "run" => parse_run(rest).and_then(|a| run(&a)),
        Some((cmd, rest)) if cmd == "rep" => parse_run(rest).and_then(|a| rep(&a)).map(|()| true),
        Some((cmd, rest)) if cmd == "compare" => compare_files(rest),
        _ => Err(USAGE.to_string()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(2)
        }
    }
}
