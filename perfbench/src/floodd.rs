//! `floodd-loopback`: the real `floodd` daemon over loopback TCP.
//!
//! The daemon runs with 2 workers and `--checkpoint-every 25` on a fresh
//! checkpoint root per pass, deleted afterwards. Two closed-loop clients
//! each submit a library scenario at n = 2 000 and `wait` for it before
//! sending the next; one job in ten carries `chaos_panic_at`, so it
//! restarts from its checkpoint. Every job must end `done` with the
//! digest of the in-process `run_scenario` for the same (scenario, n,
//! seed), after 1 attempt (clean) or 2 (chaos).

use crate::report::{median, peak_rss_mb, quantile, Fnv, Report};
use crate::trace::{SpanId, Tracer};
use crate::{Ctx, Layers, Pass};
use fastflood_bench::scenario::{run_scenario, scenario_by_name, trace_digest};
use fastflood_core::{EngineMode, Parallelism};
use fastflood_service::Json;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Library scenarios the clean jobs cycle through.
const JOB_SCENARIOS: [&str; 4] = [
    "uniform-baseline",
    "churn-spike",
    "partition-heal",
    "dense-core-sparse-fringe",
];

/// Every `CHAOS_EVERY`-th job panics once at `CHAOS_AT`, past the first
/// checkpoint, so its restart resumes from a snapshot. Chaos jobs run
/// `partition-heal`, whose 30-step partition from step 4 keeps every
/// flood going past `CHAOS_AT`.
const CHAOS_EVERY: u64 = 10;
const CHAOS_AT: u64 = 30;
const CHAOS_SCENARIO: &str = "partition-heal";
const CHECKPOINT_EVERY: u32 = 25;

/// Daemons started per pass to time set-up; the last one serves the load.
const SETUP_SPAWNS: usize = 15;

/// Longest wait for any daemon reply or exit.
const TIMEOUT: Duration = Duration::from_secs(30);

/// A spawned daemon with its stdout drained by a helper thread.
struct Daemon {
    child: Child,
    addr: String,
    drain: Option<std::thread::JoinHandle<()>>,
}

impl Daemon {
    /// Spawns `floodd` and waits for its `listening` line; its stderr
    /// (chaos panics included) is appended to `log`.
    fn spawn(bin: &Path, root: &Path, log: &Path) -> Result<Daemon, String> {
        let log = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(log)
            .map_err(|e| format!("cannot open {}: {e}", log.display()))?;
        let mut child = Command::new(bin)
            .args(["--addr", "127.0.0.1:0", "--workers", "2"])
            .args(["--checkpoint-every", &CHECKPOINT_EVERY.to_string()])
            .arg("--checkpoint-root")
            .arg(root)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(log)
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", bin.display()))?;
        let stdout = child.stdout.take().expect("piped stdout");
        let (tx, rx) = mpsc::channel();
        let drain = std::thread::spawn(move || {
            let mut lines = BufReader::new(stdout).lines();
            if let Some(Ok(first)) = lines.next() {
                let _ = tx.send(first);
            }
            // keep the pipe drained until the daemon exits
            for _ in lines {}
        });
        let mut d = Daemon {
            child,
            addr: String::new(),
            drain: Some(drain),
        };
        let line = match rx.recv_timeout(TIMEOUT) {
            Ok(line) => line,
            Err(_) => {
                d.kill();
                return Err("floodd printed no listening line".into());
            }
        };
        match Json::parse(&line).ok().and_then(|j| {
            j.get("listening")
                .and_then(Json::as_str)
                .map(str::to_string)
        }) {
            Some(addr) => {
                d.addr = addr;
                Ok(d)
            }
            None => {
                d.kill();
                Err(format!("unexpected first line from floodd: {line}"))
            }
        }
    }

    fn pid(&self) -> String {
        self.child.id().to_string()
    }

    /// Sends `shutdown` on a fresh connection and waits for the exit;
    /// kills the daemon when it outlives the timeout. `Err` when it had
    /// to be killed.
    fn shutdown(mut self) -> Result<(), String> {
        let sent = Client::connect(&self.addr)
            .and_then(|mut c| c.call(&Json::obj(vec![("op", Json::str("shutdown"))])));
        let deadline = Instant::now() + Duration::from_secs(20);
        let exited = loop {
            match self.child.try_wait() {
                Ok(Some(_)) => break true,
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => break false,
            }
        };
        if !exited {
            self.kill();
            return Err(format!(
                "floodd did not exit within 20 s of shutdown (shutdown reply: {sent:?})"
            ));
        }
        if let Some(h) = self.drain.take() {
            let _ = h.join();
        }
        Ok(())
    }

    fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(h) = self.drain.take() {
            let _ = h.join();
        }
    }
}

/// A daemon abandoned by a panic is killed, never left running.
impl Drop for Daemon {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            self.kill();
        }
    }
}

/// One newline-delimited JSON connection.
struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: &str) -> Result<Client, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream
            .set_read_timeout(Some(TIMEOUT))
            .map_err(|e| e.to_string())?;
        let writer = stream.try_clone().map_err(|e| e.to_string())?;
        Ok(Client {
            reader: BufReader::new(stream),
            writer,
        })
    }

    /// Sends one request line and reads one reply line.
    fn call(&mut self, req: &Json) -> Result<Json, String> {
        self.writer
            .write_all(format!("{req}\n").as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(0) => Err("connection closed".into()),
            Ok(_) => Json::parse(&line).map_err(|e| format!("bad reply {line:?}: {e}")),
            Err(e) => Err(format!("receive: {e}")),
        }
    }
}

/// What one job was and how it ended.
#[derive(Debug)]
struct Job {
    k: u64,
    scenario: &'static str,
    seed: u64,
    chaos: bool,
    latency_s: f64,
    reply: Result<Json, String>,
}

/// Submits job `k` and waits for it.
fn run_job(c: &mut Client, tr: &mut Tracer, k: u64, bench_seed: u64, n: usize) -> Job {
    let chaos = k % CHAOS_EVERY == CHAOS_EVERY - 1;
    let scenario = if chaos {
        CHAOS_SCENARIO
    } else {
        JOB_SCENARIOS[((k + bench_seed) % JOB_SCENARIOS.len() as u64) as usize]
    };
    let mut h = Fnv::new();
    h.eat(bench_seed);
    h.eat(k);
    let seed = h.value() >> 11;
    let mut submit = vec![
        ("op", Json::str("submit")),
        ("scenario", Json::str(scenario)),
        ("n", Json::num(n as u64)),
        ("seed", Json::num(seed)),
    ];
    if chaos {
        submit.push(("chaos_panic_at", Json::num(CHAOS_AT)));
    }
    let submit = Json::obj(submit);
    let job_span = tr.begin("job", k, SpanId::NONE);
    let t0 = Instant::now();
    let reply = (|| {
        let s = tr.begin("service.submit", k, job_span);
        let accepted = c.call(&submit);
        tr.end(s);
        let accepted = accepted?;
        if accepted.get("degraded").is_some() {
            return Err(format!("degraded instead of queued: {accepted}"));
        }
        let Some(id) = accepted.get("job").and_then(Json::as_u64) else {
            return Err(format!("not accepted: {accepted}"));
        };
        let wait = Json::obj(vec![
            ("op", Json::str("wait")),
            ("job", Json::num(id)),
            ("timeout_ms", Json::num(TIMEOUT.as_millis() as u64)),
        ]);
        let s = tr.begin("service.wait", k, job_span);
        let done = c.call(&wait);
        tr.end(s);
        done
    })();
    let latency_s = t0.elapsed().as_secs_f64();
    tr.end(job_span);
    Job {
        k,
        scenario,
        seed,
        chaos,
        latency_s,
        reply,
    }
}

/// `*.ckpt` files per job directory under `root`.
fn files_per_job(root: &Path) -> f64 {
    let Ok(dirs) = std::fs::read_dir(root) else {
        return 0.0;
    };
    let counts: Vec<f64> = dirs
        .flatten()
        .filter(|d| d.path().is_dir())
        .map(|d| {
            std::fs::read_dir(d.path()).map_or(0, |files| {
                files
                    .flatten()
                    .filter(|f| f.path().extension().is_some_and(|e| e == "ckpt"))
                    .count()
            }) as f64
        })
        .collect();
    counts.iter().sum::<f64>() / counts.len().max(1) as f64
}

/// Digests of the in-process reference runs, computed on 2 threads.
fn reference_digests(jobs: &[Job], n: usize) -> Vec<String> {
    let digest = |j: &Job| {
        let sc = scenario_by_name(j.scenario)
            .expect("library scenario")
            .scaled(n);
        let run = run_scenario(&sc, EngineMode::Adaptive, Parallelism::Sequential, j.seed)
            .expect("reference run");
        format!("{:016x}", trace_digest(&run.trace))
    };
    let (a, b) = jobs.split_at(jobs.len() / 2);
    std::thread::scope(|s| {
        let first = s.spawn(|| a.iter().map(digest).collect::<Vec<_>>());
        let mut out = b.iter().map(digest).collect::<Vec<_>>();
        let mut all = first.join().expect("reference thread");
        all.append(&mut out);
        all
    })
}

/// Checks one job against its reference digest; `None` when it passes.
fn job_problem(j: &Job, reference: &str) -> Option<String> {
    let reply = match &j.reply {
        Ok(r) => r,
        Err(e) => return Some(e.clone()),
    };
    let state = reply.get("state").and_then(Json::as_str).unwrap_or("?");
    if state != "done" {
        return Some(format!("ended {state}: {reply}"));
    }
    let digest = reply.get("digest").and_then(Json::as_str).unwrap_or("?");
    if digest != reference {
        return Some(format!("digest {digest} != in-process {reference}"));
    }
    let attempts = reply.get("attempts").and_then(Json::as_u64).unwrap_or(0);
    let want = if j.chaos { 2 } else { 1 };
    (attempts != want).then(|| format!("{attempts} attempts, expected {want}"))
}

/// Runs the workload.
pub fn run(ctx: &Ctx, r: &mut Report) {
    let Some(bin) = ctx.floodd.clone() else {
        r.check_op("floodd-loopback", Some("no --floodd binary given".into()));
        return;
    };
    let n = if ctx.tiny { 200 } else { 2_000 };
    r.line(format!(
        "setup: floodd --workers 2 --checkpoint-every {CHECKPOINT_EVERY}; 2 closed-loop clients; jobs at n={n} over {}; \
         every {CHAOS_EVERY}th job runs {CHAOS_SCENARIO} and panics once at step {CHAOS_AT}",
        JOB_SCENARIOS.join(", ")
    ));
    let mut layers = Layers::default();
    let mut pass_no = 0;
    let mut pass = |tr: &mut Tracer, secs: f64, r: &mut Report| {
        let mut p = Pass::default();
        pass_no += 1;
        let root: PathBuf = ctx
            .out
            .join(format!("floodd-ckpt-{}-{pass_no}", std::process::id()));
        let log = ctx
            .out
            .join(format!("floodd-{}-{pass_no}.log", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);

        let mut daemon = None;
        for i in 0..SETUP_SPAWNS {
            let t0 = Instant::now();
            let s = tr.begin("service.spawn", 0, SpanId::NONE);
            let spawned = Daemon::spawn(&bin, &root, &log);
            tr.end(s);
            p.setup_s.push(t0.elapsed().as_secs_f64());
            match spawned {
                Ok(d) if i + 1 < SETUP_SPAWNS => {
                    if let Err(e) = d.shutdown() {
                        r.check(false, e);
                    }
                }
                Ok(d) => daemon = Some(d),
                Err(e) => {
                    r.check_op("floodd spawn", Some(e));
                    return p;
                }
            }
        }
        let daemon = daemon.expect("spawned");

        // closed-loop load: client c submits jobs c, c+2, c+4, ...
        let started = Instant::now();
        let mut tracers = [tr.child(), tr.child()];
        let mut jobs: Vec<Job> = std::thread::scope(|s| {
            let handles: Vec<_> = tracers
                .iter_mut()
                .enumerate()
                .map(|(c, ctr)| {
                    let addr = daemon.addr.clone();
                    s.spawn(move || {
                        let mut done = Vec::new();
                        let mut client = match Client::connect(&addr) {
                            Ok(cl) => cl,
                            Err(e) => {
                                done.push(Job {
                                    k: c as u64,
                                    scenario: JOB_SCENARIOS[0],
                                    seed: 0,
                                    chaos: false,
                                    latency_s: 0.0,
                                    reply: Err(e),
                                });
                                return done;
                            }
                        };
                        let mut k = c as u64;
                        while done.len() < crate::MIN_REPS || started.elapsed().as_secs_f64() < secs
                        {
                            let job = run_job(&mut client, ctr, k, ctx.seed, n);
                            let failed = job.reply.is_err();
                            done.push(job);
                            if failed {
                                break;
                            }
                            k += 2;
                        }
                        // the connection closes here, before shutdown
                        done
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("client thread"))
                .collect()
        });
        let load_s = started.elapsed().as_secs_f64();
        for ctr in &tracers {
            tr.absorb(ctr);
        }
        jobs.sort_by_key(|j| j.k);

        if tr.on() {
            match Client::connect(&daemon.addr) {
                Ok(mut c) => {
                    let ping = Json::obj(vec![("op", Json::str("ping"))]);
                    let mut rtts = Vec::new();
                    for _ in 0..50 {
                        let t0 = Instant::now();
                        if c.call(&ping).is_err() {
                            break;
                        }
                        rtts.push(t0.elapsed().as_secs_f64() * 1e3);
                    }
                    layers.set("service.ping_rtt_ms", median(&rtts));
                    layers.samples("service.ping_rtt", rtts.len());
                }
                Err(e) => r.check(false, e),
            }
        }
        let stats = Client::connect(&daemon.addr)
            .and_then(|mut c| c.call(&Json::obj(vec![("op", Json::str("stats"))])));
        match &stats {
            Ok(s) => {
                let get = |k: &str| s.get(k).and_then(Json::as_u64).unwrap_or(0) as f64;
                r.check(
                    get("rejected") == 0.0 && get("degraded") == 0.0,
                    format!("floodd refused work: {s}"),
                );
                layers.set("service.rejected", get("rejected"));
                layers.set("service.degraded", get("degraded"));
            }
            Err(e) => r.check(false, format!("stats: {e}")),
        }
        p.peak_rss_mb = peak_rss_mb(&daemon.pid());
        if let Err(e) = daemon.shutdown() {
            r.check(false, e);
        }
        layers.set("checkpoint.files_per_job", files_per_job(&root));
        if let Err(e) = std::fs::remove_dir_all(&root) {
            r.check(
                !root.exists(),
                format!("cannot delete {}: {e}", root.display()),
            );
        }

        let refs = reference_digests(&jobs, n);
        let mut restarts = 0;
        for (j, reference) in jobs.iter().zip(&refs) {
            r.check_op(
                &format!("job {} ({} seed {})", j.k, j.scenario, j.seed),
                job_problem(j, reference),
            );
            if let Ok(reply) = &j.reply {
                restarts += reply
                    .get("attempts")
                    .and_then(Json::as_u64)
                    .unwrap_or(1)
                    .saturating_sub(1);
            }
            p.op_s.push(j.latency_s);
        }
        // jobs 0 and 1 are submitted in every run of a seed
        let mut h = Fnv::new();
        for j in jobs.iter().take(2) {
            let digest = j
                .reply
                .as_ref()
                .ok()
                .and_then(|rep| rep.get("digest").and_then(Json::as_str));
            for b in digest.unwrap_or("-").bytes() {
                h.eat(u64::from(b));
            }
        }
        p.digests.push(h.value());
        layers.set("service.restarts", restarts as f64);
        p.work_per_s.push(jobs.len() as f64 / load_s);
        p
    };
    let (untraced, traced) = ctx.passes(r, &mut pass);
    if let Some((traced, tr)) = &traced {
        ctx.finish_layers(r, layers, &untraced, traced, tr);
    } else {
        let lat_ms: Vec<f64> = untraced.op_s.iter().map(|s| s * 1e3).collect();
        let p95 = quantile(&lat_ms, 0.95);
        let beyond = lat_ms.iter().filter(|&&x| x > p95).count();
        r.line(format!(
            "{:<18} {:>14.3} ms     (median of {})",
            "job_p50_ms",
            median(&lat_ms),
            lat_ms.len()
        ));
        if beyond >= 10 {
            r.line(format!(
                "{:<18} {:>14.3} ms     ({beyond} samples beyond it)",
                "job_p95_ms", p95
            ));
        } else {
            r.line(format!(
                "{:<18} {:>14} ms     (unresolved: {beyond} samples beyond p95, 10 needed)",
                "job_p95_ms", "-"
            ));
        }
        r.meta("samples_job_p95_beyond", Json::num(beyond as u64));
        ctx.finish_e2e(r, &untraced, "job_s", "jobs_per_s");
    }
}
