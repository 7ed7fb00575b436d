//! Scheduler benchmark: heap vs timer wheel at 1k/10k/100k
//! clients, written to `BENCH_simnet.json`.
//!
//! The workload mirrors the million-client regime the simulator targets:
//! every node parks [`BALLAST`] far-future wake-up timers (the idle
//! population — at 100k nodes, a million pending timers) and keeps one
//! hot timer re-arming at 1–260 ms horizons. The event queue is the run
//! loop: the heap pays a cold-cache `O(log n)` sift against the full
//! million-entry pending set on *every* hot push/pop, while the wheel
//! parks the idle timers in high-level slots it never touches and stays
//! amortized `O(1)` on the hot path. Each measurement runs in a fresh
//! subprocess (the binary re-execs itself in `worker` mode) so peak-RSS
//! figures are isolated per configuration, and heap/wheel batches run
//! back-to-back per round with the *median of per-round ratios* as the
//! headline — the same frequency-drift defence `bench_smoke` uses.
//!
//! ```text
//! cargo run --release -p spyker-bench --bin bench_simnet [OUT.json]
//! ```
//!
//! CI gate (`scripts/check.sh`): the wheel must beat the heap by ≥ 5× on
//! events/sec at 100k clients.

use std::any::Any;
use std::process::Command;
use std::time::Instant;

use spyker_simnet::{
    peak_rss_bytes, Env, NetworkConfig, Node, NodeId, Region, SchedulerKind, SimTime, Simulation,
    WireSize,
};

/// Parked far-future timers per node (the pending set is `BALLAST * n` —
/// two million timers at the headline size, far past every cache level,
/// the regime the heap's pointer-chasing sift paths collapse in).
const BALLAST: usize = 20;
/// Re-arms of each node's single hot timer.
const ROUNDS: u32 = 30;
/// Paired heap/wheel rounds per configuration.
const PAIRED_ROUNDS: usize = 3;
/// The CI gate: wheel/heap events-per-second ratio at the headline size.
const GATE_RATIO: f64 = 5.0;
const GATE_SIZE: usize = 100_000;
/// Virtual-time cap: past every hot chain, short of every idle timer.
const HORIZON: SimTime = SimTime::from_secs(3_600);

#[derive(Debug, Clone)]
struct NoMsg;

impl WireSize for NoMsg {
    fn wire_size(&self) -> usize {
        0
    }
}

/// One node of the timer storm: parks [`BALLAST`] idle wake-ups at start
/// (they never fire — the run stops at [`HORIZON`] first), then re-arms
/// one hot timer until its round budget runs out.
struct TimerStorm {
    rounds_left: u32,
    rng: u64,
}

impl TimerStorm {
    fn new(seed: u64) -> Self {
        Self {
            rounds_left: ROUNDS,
            // xorshift state must be non-zero.
            rng: seed | 1,
        }
    }

    /// xorshift64* — cheap deterministic horizons without pulling a full
    /// RNG into the hot loop.
    fn next_raw(&mut self) -> u64 {
        let mut x = self.rng;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.rng = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// 1 ms … ~5 ms: the hot timer stays within the wheel's first three
    /// levels (at most two cascades per arming), and the fires are dense
    /// enough — tens per microsecond tick at the headline size — that
    /// cursor advances amortize over many events.
    fn hot_delay(&mut self) -> SimTime {
        SimTime::from_micros(1_000 + (self.next_raw() >> 52))
    }

    /// ~1 … ~2 "years" out: far beyond [`HORIZON`], spread across the
    /// wheel's high-level slots.
    fn idle_delay(&mut self) -> SimTime {
        SimTime::from_micros((1 << 45) + (self.next_raw() >> 19))
    }
}

impl Node<NoMsg> for TimerStorm {
    fn on_start(&mut self, env: &mut dyn Env<NoMsg>) {
        for _ in 0..BALLAST {
            let d = self.idle_delay();
            env.set_timer(d, 0);
        }
        let d = self.hot_delay();
        env.set_timer(d, 0);
    }

    fn on_message(&mut self, _env: &mut dyn Env<NoMsg>, _from: NodeId, _msg: NoMsg) {}

    fn on_timer(&mut self, env: &mut dyn Env<NoMsg>, _tag: u64) {
        if self.rounds_left > 0 {
            self.rounds_left -= 1;
            let d = self.hot_delay();
            env.set_timer(d, 0);
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// One measured run (subprocess `worker` mode): `n` storm nodes to
/// completion under `kind`, reporting events, wall time and peak RSS on
/// stdout as `key=value` pairs.
fn worker(kind: SchedulerKind, n: usize) {
    let mut sim = Simulation::new(NetworkConfig::uniform_all(SimTime::from_millis(5)), 42)
        .with_scheduler(kind);
    for i in 0..n {
        sim.add_node(
            Box::new(TimerStorm::new(0x9e37_79b9 ^ (i as u64) << 17)),
            Region::ALL[i % 4],
        );
    }
    let t = Instant::now();
    // Long enough for every hot chain (≤ ~8 s of virtual time), far short
    // of the idle ballast (~1 year out): the pending set stays at
    // `BALLAST * n` for the whole measured window.
    let report = sim.run(HORIZON);
    let wall_ns = t.elapsed().as_nanos();
    println!(
        "events={} wall_ns={} peak_rss={}",
        report.events_processed,
        wall_ns,
        peak_rss_bytes().unwrap_or(0),
    );
}

#[derive(Debug, Clone, Copy)]
struct WorkerOut {
    events: u64,
    wall_ns: u64,
    peak_rss: u64,
}

impl WorkerOut {
    fn events_per_sec(&self) -> f64 {
        self.events as f64 / (self.wall_ns.max(1) as f64 / 1e9)
    }
}

/// Spawns one isolated measurement run.
fn spawn_worker(kind: &str, n: usize) -> WorkerOut {
    let exe = std::env::current_exe().expect("own executable path");
    let out = Command::new(exe)
        .args(["worker", kind, &n.to_string()])
        .output()
        .expect("spawn bench worker");
    assert!(
        out.status.success(),
        "worker {kind}/{n} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut parsed = WorkerOut {
        events: 0,
        wall_ns: 0,
        peak_rss: 0,
    };
    for token in stdout.split_whitespace() {
        let Some((key, value)) = token.split_once('=') else {
            continue;
        };
        let value: u64 = value.parse().unwrap_or(0);
        match key {
            "events" => parsed.events = value,
            "wall_ns" => parsed.wall_ns = value,
            "peak_rss" => parsed.peak_rss = value,
            _ => {}
        }
    }
    assert!(parsed.events > 0, "worker {kind}/{n} reported no events");
    parsed
}

fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

fn main() {
    let mut args = std::env::args().skip(1);
    let first = args.next();
    if first.as_deref() == Some("worker") {
        let kind = match args.next().as_deref() {
            Some("heap") => SchedulerKind::Heap,
            Some("wheel") => SchedulerKind::Wheel,
            other => panic!("unknown scheduler {other:?}"),
        };
        let n: usize = args
            .next()
            .and_then(|s| s.parse().ok())
            .expect("worker node count");
        worker(kind, n);
        return;
    }
    let out_path = first.unwrap_or_else(|| "BENCH_simnet.json".to_string());

    let sizes = [1_000usize, 10_000, 100_000];
    let mut json = String::from("{\n  \"benchmarks\": [\n");
    let mut ratios_by_size = Vec::new();
    for (si, &n) in sizes.iter().enumerate() {
        let mut ratios = Vec::with_capacity(PAIRED_ROUNDS);
        let mut best: Option<(WorkerOut, WorkerOut)> = None;
        for _ in 0..PAIRED_ROUNDS {
            // Back-to-back per round so a machine frequency step lands
            // between rounds, not between the two schedulers.
            let heap = spawn_worker("heap", n);
            let wheel = spawn_worker("wheel", n);
            assert_eq!(
                heap.events, wheel.events,
                "schedulers diverged on event count at n={n}"
            );
            ratios.push(wheel.events_per_sec() / heap.events_per_sec());
            let better = best.is_none_or(|(h, _)| heap.events_per_sec() > h.events_per_sec());
            if better {
                best = Some((heap, wheel));
            }
        }
        let (heap, wheel) = best.expect("at least one round");
        let ratio = median(&mut ratios);
        println!(
            "simnet_{n}: heap {:>12.0} ev/s  wheel {:>12.0} ev/s  speedup {ratio:.2}x  \
             (heap RSS {:.1} MiB, wheel RSS {:.1} MiB, {} events)",
            heap.events_per_sec(),
            wheel.events_per_sec(),
            heap.peak_rss as f64 / (1024.0 * 1024.0),
            wheel.peak_rss as f64 / (1024.0 * 1024.0),
            heap.events,
        );
        for (kind, w) in [("heap", heap), ("wheel", wheel)] {
            json.push_str(&format!(
                "    {{\"name\": \"simnet_{kind}_{n}\", \"events\": {}, \
                 \"events_per_sec\": {:.1}, \"peak_rss_bytes\": {}}},\n",
                w.events,
                w.events_per_sec(),
                w.peak_rss
            ));
        }
        ratios_by_size.push((n, ratio));
        if si + 1 == sizes.len() {
            // Strip the trailing comma of the final benchmark entry.
            json.truncate(json.trim_end_matches(",\n").len());
            json.push('\n');
        }
    }
    json.push_str("  ],\n");
    for (i, (n, ratio)) in ratios_by_size.iter().enumerate() {
        let comma = if i + 1 < ratios_by_size.len() {
            ","
        } else {
            ""
        };
        json.push_str(&format!(
            "  \"simnet_{n}_wheel_speedup_vs_heap\": {ratio:.3}{comma}\n"
        ));
    }
    json.push_str("}\n");
    std::fs::write(&out_path, &json).expect("write benchmark JSON");
    println!("wrote {out_path}");

    let headline = ratios_by_size
        .iter()
        .find(|&&(n, _)| n == GATE_SIZE)
        .map(|&(_, r)| r)
        .expect("headline size present");
    if headline < GATE_RATIO {
        eprintln!("FAIL: wheel speedup at {GATE_SIZE} clients {headline:.2}x < {GATE_RATIO:.1}x");
        std::process::exit(1);
    }
    println!("ok: wheel speedup at {GATE_SIZE} clients {headline:.2}x >= {GATE_RATIO:.1}x");
}
