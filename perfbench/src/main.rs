//! `perfbench` — the repository benchmark.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1
//!           [--floodd PATH] [--out DIR] [--tiny] [--rev REV] [--rustc VERSION]
//! ```
//!
//! Runs one workload (`sparse-suburb`, `faulted-city-t2`,
//! `floodd-loopback`, `connectivity-threshold`) for about `S` seconds
//! through the public API of the workspace crates and the real `floodd`
//! binary, checks every output, and prints the end-to-end metrics
//! (`--trace 0`) or the per-layer metrics (`--trace 1`) as the last
//! stdout line. `--tiny` shrinks every size for the self-test. See
//! `README.md` next to this crate.

mod connectivity;
mod flood;
mod floodd;
mod probes;
mod report;
mod trace;

use fastflood_service::Json;
use report::{median, Report};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;
use trace::Tracer;

/// The workloads, in the order `BENCHMARK.json` lists them.
const WORKLOADS: [&str; 4] = [
    "sparse-suburb",
    "faulted-city-t2",
    "floodd-loopback",
    "connectivity-threshold",
];

/// Fewest repetitions of a timed pass: the digest check compares them.
pub const MIN_REPS: usize = 2;

/// `k` input seeds derived from the run's seed, the first being it.
pub fn trajectory_seeds(seed: u64, k: usize) -> Vec<u64> {
    (0..k as u64).map(|i| seed.wrapping_add(i << 32)).collect()
}

/// End-to-end metrics, reported by every workload with tracing off.
const E2E_METRICS: [(&str, &str); 3] = [("op_s", "s"), ("peak_rss_mb", "MB"), ("setup_s", "s")];

/// Per-layer metrics, reported by every workload with tracing on. A
/// layer the workload does not reach reports 0.
const LAYER_METRICS: [(&str, &str); 39] = [
    ("mobility.move_ns_per_step", "ns"),
    ("mobility.boundary_ns_per_step", "ns"),
    ("mobility.sample_ms", "ms"),
    ("spatial.join_ns_per_step", "ns"),
    ("spatial.refresh_ns_per_step", "ns"),
    ("core.step_p50_ns", "ns"),
    ("core.step_p99_ns", "ns"),
    ("core.flood_steps", "count"),
    ("core.full_rebuilds", "count"),
    ("core.spike_rebuilds", "count"),
    ("core.incremental_diff_steps", "count"),
    ("scenario.driver_new_ms", "ms"),
    ("scenario.pump_ns_per_step", "ns"),
    ("graph.giant_build_ms", "ms"),
    ("graph.probe_ms", "ms"),
    ("graph.snapshots", "count"),
    ("parallel.dispatch_ns", "ns"),
    ("checkpoint.snapshot_ms_n2k", "ms"),
    ("checkpoint.encode_ms_n2k", "ms"),
    ("checkpoint.write_ms_n2k", "ms"),
    ("checkpoint.read_ms_n2k", "ms"),
    ("checkpoint.restore_ms_n2k", "ms"),
    ("checkpoint.bytes_n2k", "bytes"),
    ("checkpoint.snapshot_ms_n100k", "ms"),
    ("checkpoint.encode_ms_n100k", "ms"),
    ("checkpoint.write_ms_n100k", "ms"),
    ("checkpoint.read_ms_n100k", "ms"),
    ("checkpoint.restore_ms_n100k", "ms"),
    ("checkpoint.bytes_n100k", "bytes"),
    ("checkpoint.files_per_job", "count"),
    ("service.ping_rtt_ms", "ms"),
    ("service.json_parse_us", "us"),
    ("service.json_encode_us", "us"),
    ("service.restarts", "count"),
    ("service.rejected", "count"),
    ("service.degraded", "count"),
    ("trace.overhead_ms", "ms"),
    ("trace.overhead_frac", "ratio"),
    ("trace.spans", "count"),
];

/// What one timed pass over a workload measured.
#[derive(Debug, Default)]
pub struct Pass {
    /// Wall time of each operation (flood, job, search pair), in s; for
    /// the compute-bound workloads, the mean operation of each repetition.
    pub op_s: Vec<f64>,
    /// Compute-bound workloads only: the fastest time of each part of a
    /// repetition (a flood step, a search probe) over all repetitions.
    /// Every repetition of a seed does identical work, so part `i` is the
    /// same work in each. On a shared host the same work swings by ±25%
    /// with the neighbours' load; a short part's fastest time is the
    /// code's speed with the least of that load.
    pub fastest: Vec<f64>,
    /// Operations one repetition counts as (the fastest parts sum to
    /// this many).
    pub ops_per_rep: f64,
    /// Work completed per second, one value per repetition. Printed,
    /// not gated: it follows the seed's trajectory more than the code.
    pub work_per_s: Vec<f64>,
    /// Set-up time of each repetition, in s.
    pub setup_s: Vec<f64>,
    /// Output digest of each repetition; all must be equal.
    pub digests: Vec<u64>,
    /// Peak RSS of the process doing the work after its first
    /// repetition (later repetitions only add allocator fragmentation).
    pub peak_rss_mb: Option<f64>,
}

impl Pass {
    /// A pass of a compute-bound workload whose repetitions count as
    /// `ops_per_rep` operations.
    pub fn compute(ops_per_rep: f64) -> Pass {
        Pass {
            ops_per_rep,
            ..Pass::default()
        }
    }

    /// Records one timing of part `part` of a repetition.
    pub fn keep_fastest(&mut self, part: usize, t: f64) {
        if part == self.fastest.len() {
            self.fastest.push(t);
        }
        self.fastest[part] = self.fastest[part].min(t);
    }

    /// The reported operation time: the summed fastest parts per
    /// operation for compute-bound workloads (see [`Pass::fastest`]),
    /// else the median operation.
    pub fn op_value(&self) -> f64 {
        if self.fastest.is_empty() {
            median(&self.op_s)
        } else {
            self.fastest.iter().sum::<f64>() / self.ops_per_rep
        }
    }
}

/// Cuts a repetition's timed work into consecutive parts for
/// [`Pass::keep_fastest`]; part numbers run on across the repetition.
#[derive(Debug)]
pub struct Parts {
    next: usize,
    last: Instant,
}

/// Numbering from part 0; the clock starts at [`Parts::resume`].
impl Default for Parts {
    fn default() -> Parts {
        Parts {
            next: 0,
            last: Instant::now(),
        }
    }
}

impl Parts {
    /// Starts timing the next part now (after untimed work).
    pub fn resume(&mut self) {
        self.last = Instant::now();
    }

    /// Ends the current part and starts the next.
    pub fn cut(&mut self, p: &mut Pass) {
        let now = Instant::now();
        p.keep_fastest(self.next, (now - self.last).as_secs_f64());
        self.next += 1;
        self.last = now;
    }
}

/// Per-layer values: each key is the mean of what was added to it.
#[derive(Debug, Default)]
pub struct Layers {
    values: BTreeMap<&'static str, (f64, f64)>,
    samples: BTreeMap<&'static str, usize>,
}

impl Layers {
    /// Adds one observation of `key`.
    pub fn add(&mut self, key: &'static str, v: f64) {
        let e = self.values.entry(key).or_insert((0.0, 0.0));
        e.0 += v;
        e.1 += 1.0;
    }

    /// Sets `key` to `v`.
    pub fn set(&mut self, key: &'static str, v: f64) {
        self.values.insert(key, (v, 1.0));
    }

    /// Records the sample count behind a percentile.
    pub fn samples(&mut self, key: &'static str, n: usize) {
        self.samples.insert(key, n);
    }

    fn get(&self, key: &str) -> Option<f64> {
        self.values.get(key).map(|&(s, c)| s / c)
    }
}

/// Settings shared by every workload.
#[derive(Debug)]
pub struct Ctx {
    /// Input seed.
    pub seed: u64,
    /// Measuring time of one run.
    pub seconds: f64,
    /// Traced run.
    pub trace: bool,
    /// Self-test sizes.
    pub tiny: bool,
    /// The `floodd` binary.
    pub floodd: Option<PathBuf>,
    /// Directory for span dumps, result records and scratch files.
    pub out: PathBuf,
}

/// A timed pass: runs repetitions for about `secs` seconds with the
/// given tracer and records checks in the report.
pub type PassFn<'a> = dyn FnMut(&mut Tracer, f64, &mut Report) -> Pass + 'a;

impl Ctx {
    /// Runs the untraced pass, and with `--trace 1` a traced pass after
    /// it (each on half the time). Checks that every repetition of both
    /// produced the same digest: tracing must not perturb the output.
    pub fn passes(&self, r: &mut Report, pass: &mut PassFn<'_>) -> (Pass, Option<(Pass, Tracer)>) {
        let share = if self.trace {
            self.seconds / 2.0
        } else {
            self.seconds
        };
        let untraced = pass(&mut Tracer::new(false), share, r);
        let traced = self.trace.then(|| {
            let mut tr = Tracer::new(true);
            let p = pass(&mut tr, share, r);
            (p, tr)
        });
        let mut digests = untraced.digests.clone();
        if let Some((p, _)) = &traced {
            digests.extend(&p.digests);
        }
        let distinct = {
            let mut d = digests.clone();
            d.sort_unstable();
            d.dedup();
            d.len()
        };
        r.check(
            distinct <= 1,
            format!(
                "{distinct} distinct output digests over {} repetitions of one seed",
                digests.len()
            ),
        );
        r.line(format!(
            "digest {:016x} repeated over {} repetitions",
            digests.first().copied().unwrap_or(0),
            digests.len()
        ));
        (untraced, traced)
    }

    /// Records the end-to-end metrics of `p` under the workload's own
    /// names for the human-readable lines.
    pub fn finish_e2e(&self, r: &mut Report, p: &Pass, op_name: &str, work_name: &str) {
        let op_s = p.op_value();
        let work = median(&p.work_per_s);
        let setup = median(&p.setup_s);
        let rss = p.peak_rss_mb.unwrap_or(0.0);
        r.line(format!(
            "{op_name:<18} {:>14.6} s      (median of {})",
            median(&p.op_s),
            p.op_s.len()
        ));
        if !p.fastest.is_empty() {
            r.line(format!(
                "{:<18} {:>14.6} s      (each of {} parts at its fastest of {})",
                "op_s",
                op_s,
                p.fastest.len(),
                p.op_s.len()
            ));
        }
        r.line(format!(
            "{work_name:<18} {:>14.1} 1/s    (median of {})",
            work,
            p.work_per_s.len()
        ));
        r.line(format!(
            "{:<18} {:>14.6} s      (median of {})",
            "setup_s",
            setup,
            p.setup_s.len()
        ));
        r.line(format!("{:<18} {:>14.1} MB", "peak_rss_mb", rss));
        for ((name, unit), v) in E2E_METRICS.into_iter().zip([op_s, rss, setup]) {
            r.metric(name, v, unit);
        }
        let shown: Vec<String> = p.op_s.iter().take(12).map(|x| format!("{x:.4}")).collect();
        r.line(format!(
            "op_s samples: [{}]{}",
            shown.join(", "),
            if p.op_s.len() > 12 { ", ..." } else { "" }
        ));
        r.meta("samples_op", Json::num(p.op_s.len() as u64));
        r.meta("samples_setup", Json::num(p.setup_s.len() as u64));
    }

    /// Finishes a traced run: tracing overhead, the layer probes shared by
    /// every workload, the span dump, and every per-layer metric.
    pub fn finish_layers(
        &self,
        r: &mut Report,
        mut layers: Layers,
        untraced: &Pass,
        traced: &Pass,
        tr: &Tracer,
    ) {
        let (u, t) = (untraced.op_value(), traced.op_value());
        layers.set("trace.overhead_ms", (t - u) * 1e3);
        layers.set(
            "trace.overhead_frac",
            if u > 0.0 { (t - u) / u } else { 0.0 },
        );
        r.meta("tracing_overhead_ms", Json::Num((t - u) * 1e3));
        r.meta("samples_untraced_op", Json::num(untraced.op_s.len() as u64));
        r.meta("samples_traced_op", Json::num(traced.op_s.len() as u64));
        r.line(format!(
            "tracing overhead: {:+.3} ms per operation ({:+.2}%; untraced {:.3} ms over {}, traced {:.3} ms over {})",
            (t - u) * 1e3,
            if u > 0.0 { (t - u) / u * 100.0 } else { 0.0 },
            u * 1e3,
            untraced.op_s.len(),
            t * 1e3,
            traced.op_s.len()
        ));

        probes::run(self, r, &mut layers);

        let stats = tr.stats();
        let spans: u64 = stats.values().map(|s| s.count).sum();
        layers.set("trace.spans", spans as f64);
        r.line("spans (name, count, total ms, self ms):");
        for (name, s) in &stats {
            r.line(format!(
                "  {name:<24} {:>8} {:>12.3} {:>12.3}",
                s.count,
                s.total_ns as f64 / 1e6,
                s.self_ns as f64 / 1e6
            ));
        }
        let dump = self.out.join(format!("spans-{}.jsonl", std::process::id()));
        match tr.write_jsonl(&dump) {
            Ok(()) => r.line(format!("span dump: {}", dump.display())),
            Err(e) => r.line(format!("span dump not written: {e}")),
        }

        let samples = layers
            .samples
            .iter()
            .map(|(key, n)| (*key, Json::num(*n as u64)));
        r.meta("samples_percentile", Json::obj(samples.collect()));
        for (name, unit) in LAYER_METRICS {
            let v = layers.get(name).unwrap_or(0.0);
            r.line(format!("{name:<32} {v:>16.4} {unit}"));
            r.metric(name, v, unit);
        }
        for key in layers.values.keys() {
            assert!(
                LAYER_METRICS.iter().any(|(name, _)| name == key),
                "layer metric {key} is not declared"
            );
        }
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload {{{}}} --seed N --seconds S --trace 0|1 [--floodd PATH] [--out DIR] [--tiny]",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn main() {
    let mut workload = String::new();
    let (mut seed, mut seconds, mut trace, mut tiny) = (1u64, 10.0f64, false, false);
    let (mut floodd, mut out) = (None, PathBuf::from(".bench_out"));
    let (mut rev, mut rustc) = ("unknown".to_string(), "unknown".to_string());
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut val = || it.next().unwrap_or_else(|| usage());
        match arg.as_str() {
            "--workload" => workload = val(),
            "--seed" => seed = val().parse().unwrap_or_else(|_| usage()),
            "--seconds" => seconds = val().parse().unwrap_or_else(|_| usage()),
            "--trace" => trace = val() == "1",
            "--floodd" => floodd = Some(PathBuf::from(val())),
            "--out" => out = PathBuf::from(val()),
            "--rev" => rev = val(),
            "--rustc" => rustc = val(),
            "--tiny" => tiny = true,
            _ => usage(),
        }
    }
    if !WORKLOADS.contains(&workload.as_str()) || seconds.is_nan() || seconds <= 0.0 {
        usage();
    }
    std::fs::create_dir_all(&out)
        .unwrap_or_else(|e| panic!("cannot create {}: {e}", out.display()));
    let ctx = Ctx {
        seed,
        seconds,
        trace,
        tiny,
        floodd,
        out,
    };

    let mut r = Report::default();
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .map(|l| l.split(':').nth(1).unwrap_or("").trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    r.meta("workload", Json::str(&workload));
    r.meta("seed", Json::num(seed));
    r.meta("seconds", Json::Num(seconds));
    r.meta("trace", Json::Bool(trace));
    r.meta("tiny", Json::Bool(tiny));
    r.meta("rev", Json::str(rev));
    r.meta("rustc", Json::str(rustc));
    r.meta("nproc", Json::num(nproc as u64));
    r.meta("cpu", Json::str(cpu));
    println!(
        "perfbench {workload} seed={seed} seconds={seconds} trace={}",
        u8::from(trace)
    );

    match workload.as_str() {
        "sparse-suburb" => flood::sparse_suburb(&ctx, &mut r),
        "faulted-city-t2" => flood::faulted_city(&ctx, &mut r),
        "floodd-loopback" => floodd::run(&ctx, &mut r),
        _ => connectivity::run(&ctx, &mut r),
    }

    let frac = r.failed as f64 / r.attempted.max(1) as f64;
    r.line(format!(
        "{:<18} {:>14.4} ratio  ({} failed of {} attempted)",
        "ops_failed_frac", frac, r.failed, r.attempted
    ));
    for f in r.failures.clone() {
        r.line(format!("FAILED: {f}"));
    }
    for l in &r.lines {
        println!("  {l}");
    }
    let record = ctx.out.join(format!(
        "result-{workload}-s{seed}-t{}-{}.json",
        u8::from(trace),
        std::process::id()
    ));
    if let Err(e) = std::fs::write(&record, format!("{}\n", r.record_json())) {
        println!("  result record not written: {e}");
    }
    println!("meta {}", Json::obj(r.meta.clone()));
    println!("{}", r.result_line());
    if !r.correct() {
        std::process::exit(1);
    }
}
