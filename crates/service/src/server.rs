//! The `floodd` wire protocol: newline-delimited JSON over TCP.
//!
//! One request object per line, one response object per line, std-only
//! (no async runtime — a thread per connection; the supervisor behind
//! it is the bounded resource, not the socket count). Every response
//! carries `"ok": true|false`; errors carry `"error"`.
//!
//! Ops (see `docs/SERVICE.md` for the full reference):
//!
//! | op | request fields | response |
//! |---|---|---|
//! | `ping` | — | `{"ok":true,"pong":true}` |
//! | `submit` | `scenario` (library name) or `scenario_toml`, `seed`, `engine`, `parallelism`, `n`, `steps`, `deadline_ms`, `step_delay_ms`, `chaos_panic_at`, `chaos_every_attempt` | accepted `{"ok":true,"job":id}`, degraded `{"ok":true,"degraded":true,…}`, or rejection |
//! | `status` | `job` | the job's status object |
//! | `wait` | `job`, `timeout_ms` | final status, or `{"ok":false,"error":"timeout",…}` |
//! | `list` | — | `{"ok":true,"jobs":[…]}` |
//! | `stats` | — | queue/memory/counter snapshot |
//! | `cancel` | `job` | `{"ok":true,"cancelled":bool}` |
//! | `drain` | — | stop admitting, settle everything, report resumable state |
//! | `shutdown` | — | respond, then drain and exit the accept loop |

use crate::json::{Json, MAX_LINE_BYTES};
use crate::supervisor::{Chaos, JobSpec, JobStatus, Submission, Supervisor};
use fastflood_bench::scenario::{parse_scenario, scenario_by_name, Scenario};
use fastflood_core::{EngineMode, Parallelism};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Runs the accept loop until `stop` is raised (by the `shutdown` op or
/// by the caller's signal handler), then drains the supervisor and
/// returns the final state of every job — the resumable set. The
/// listener is switched to non-blocking so the stop flag is observed
/// within ~20 ms even with no traffic. After the drain every open
/// connection's read half is shut down, so a client that never sends
/// another line cannot keep the daemon alive.
///
/// # Errors
///
/// `std::io::Error` when the listener cannot be configured; per-
/// connection errors are logged to stderr and never fatal.
pub fn serve(
    listener: TcpListener,
    supervisor: Arc<Supervisor>,
    stop: Arc<AtomicBool>,
) -> std::io::Result<Vec<JobStatus>> {
    listener.set_nonblocking(true)?;
    // each connection thread with a handle on its socket, so shutdown
    // can unblock a reader parked on an idle client
    let mut conns: Vec<(std::thread::JoinHandle<()>, TcpStream)> = Vec::new();
    while !stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _addr)) => {
                let handle = match stream.try_clone() {
                    Ok(handle) => handle,
                    Err(e) => {
                        eprintln!("floodd: connection error: {e}");
                        continue;
                    }
                };
                let sup = Arc::clone(&supervisor);
                let stop = Arc::clone(&stop);
                let thread = std::thread::spawn(move || {
                    if let Err(e) = handle_connection(stream, &sup, &stop) {
                        eprintln!("floodd: connection error: {e}");
                    }
                });
                conns.push((thread, handle));
                conns.retain(|(h, _)| !h.is_finished());
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(20));
            }
            Err(e) => {
                eprintln!("floodd: accept error: {e}");
                std::thread::sleep(Duration::from_millis(20));
            }
        }
    }
    let drained = supervisor.drain();
    // end every connection's reads (its reader sees EOF) but leave the
    // write half open, then join so in-flight responses flush before
    // exit
    for (_, stream) in &conns {
        let _ = stream.shutdown(Shutdown::Read);
    }
    for (h, _) in conns {
        let _ = h.join();
    }
    Ok(drained)
}

fn handle_connection(
    stream: TcpStream,
    sup: &Supervisor,
    stop: &AtomicBool,
) -> std::io::Result<()> {
    let writer = stream.try_clone()?;
    let result = serve_lines(stream, &writer, sup, stop);
    // `serve` keeps its own handle on the socket until the next accept
    // or the drain, so dropping ours would not close it: end the peer's
    // reads here, on every exit
    let _ = writer.shutdown(Shutdown::Write);
    result
}

/// Answers request lines until the peer closes, the daemon stops, or
/// the peer stops speaking the protocol (a line over
/// [`MAX_LINE_BYTES`] or not UTF-8: one error reply, then the close).
fn serve_lines(
    stream: TcpStream,
    mut writer: &TcpStream,
    sup: &Supervisor,
    stop: &AtomicBool,
) -> std::io::Result<()> {
    let mut reader = BufReader::new(stream);
    let mut buf = Vec::new();
    loop {
        buf.clear();
        // one byte past the cap tells an over-long line from one that
        // just fits
        let limit = MAX_LINE_BYTES as u64 + 1;
        match (&mut reader).take(limit).read_until(b'\n', &mut buf) {
            Ok(0) => break,
            Ok(_) => {}
            // a dying peer is normal connection teardown
            Err(_) => break,
        }
        if buf.last() == Some(&b'\n') {
            buf.pop();
            if buf.last() == Some(&b'\r') {
                buf.pop();
            }
        }
        let line = if buf.len() > MAX_LINE_BYTES {
            Err(format!("request line longer than {MAX_LINE_BYTES} bytes"))
        } else {
            std::str::from_utf8(&buf).map_err(|_| "request line is not UTF-8".to_string())
        };
        let line = match line {
            Ok(line) => line,
            Err(error) => {
                writeln!(writer, "{}", fail(error))?;
                writer.flush()?;
                linger_close(&mut reader, writer);
                break;
            }
        };
        if line.trim().is_empty() {
            continue;
        }
        let response = handle_request(line, sup, stop);
        writeln!(writer, "{response}")?;
        writer.flush()?;
        if stop.load(Ordering::SeqCst) {
            break;
        }
    }
    Ok(())
}

/// Ends a connection whose peer may still be sending: closes the write
/// half, so the peer sees EOF after the reply, then reads and drops
/// input, into a fixed buffer, until the peer closes or for at most half
/// a second. A socket closed with unread input is reset, and the reset
/// can discard the reply before the peer reads it.
fn linger_close(reader: &mut impl Read, stream: &TcpStream) {
    let _ = stream.shutdown(Shutdown::Write);
    let deadline = Instant::now() + Duration::from_millis(500);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(100)));
    let mut scratch = [0u8; 8192];
    while Instant::now() < deadline {
        match reader.read(&mut scratch) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
    }
}

fn ok(mut pairs: Vec<(&str, Json)>) -> Json {
    pairs.insert(0, ("ok", Json::Bool(true)));
    Json::obj(pairs)
}

fn fail(error: impl Into<String>) -> Json {
    Json::obj(vec![
        ("ok", Json::Bool(false)),
        ("error", Json::Str(error.into())),
    ])
}

/// Dispatches one request line; always returns a response object.
pub fn handle_request(line: &str, sup: &Supervisor, stop: &AtomicBool) -> Json {
    let req = match Json::parse(line) {
        Ok(v) => v,
        Err(e) => return fail(format!("bad request: {e}")),
    };
    let Some(op) = req.get("op").and_then(Json::as_str) else {
        return fail("missing op");
    };
    match op {
        "ping" => ok(vec![("pong", Json::Bool(true))]),
        "submit" => match build_spec(&req) {
            Ok(spec) => match sup.submit(spec) {
                Submission::Accepted { id } => {
                    ok(vec![("job", Json::num(id)), ("state", Json::str("queued"))])
                }
                Submission::Degraded(a) => ok(vec![
                    ("degraded", Json::Bool(true)),
                    ("n", Json::num(a.n as u64)),
                    ("outcome", Json::str(&a.outcome)),
                    (
                        "flooding_time",
                        a.flooding_time.map_or(Json::Null, |t| Json::num(t as u64)),
                    ),
                    ("digest", Json::str(&a.digest)),
                ]),
                Submission::Rejected { reason } => fail(reason),
            },
            Err(e) => fail(e),
        },
        "status" => match job_id(&req) {
            Ok(id) => match sup.status(id) {
                Some(s) => with_ok(s.to_json()),
                None => fail(format!("unknown job {id}")),
            },
            Err(e) => fail(e),
        },
        "wait" => match job_id(&req) {
            Ok(id) => {
                let timeout = req
                    .get("timeout_ms")
                    .and_then(Json::as_u64)
                    .unwrap_or(60_000);
                match sup.wait(id, Duration::from_millis(timeout)) {
                    Ok(s) => with_ok(s.to_json()),
                    Err(Some(s)) => {
                        let mut obj = fail("timeout");
                        if let (Json::Obj(pairs), Json::Obj(extra)) = (&mut obj, s.to_json()) {
                            pairs.push(("status".to_string(), Json::Obj(extra)));
                        }
                        obj
                    }
                    Err(None) => fail(format!("unknown job {id}")),
                }
            }
            Err(e) => fail(e),
        },
        "list" => ok(vec![(
            "jobs",
            Json::Arr(sup.list().iter().map(JobStatus::to_json).collect()),
        )]),
        "stats" => {
            let s = sup.stats();
            ok(vec![
                ("workers", Json::num(s.workers as u64)),
                ("queue_len", Json::num(s.queue_len as u64)),
                ("running", Json::num(s.running as u64)),
                ("draining", Json::Bool(s.draining)),
                ("memory_in_use", Json::num(s.memory_in_use)),
                ("memory_budget", Json::num(s.memory_budget)),
                ("accepted", Json::num(s.accepted)),
                ("degraded", Json::num(s.degraded)),
                ("rejected", Json::num(s.rejected)),
            ])
        }
        "cancel" => match job_id(&req) {
            Ok(id) => ok(vec![("cancelled", Json::Bool(sup.cancel(id)))]),
            Err(e) => fail(e),
        },
        "drain" => ok(vec![(
            "drained",
            Json::Arr(sup.drain().iter().map(JobStatus::to_json).collect()),
        )]),
        "shutdown" => {
            stop.store(true, Ordering::SeqCst);
            ok(vec![("stopping", Json::Bool(true))])
        }
        other => fail(format!("unknown op {other:?}")),
    }
}

/// Prepends `"ok": true` to a status object.
fn with_ok(status: Json) -> Json {
    match status {
        Json::Obj(mut pairs) => {
            pairs.insert(0, ("ok".to_string(), Json::Bool(true)));
            Json::Obj(pairs)
        }
        other => other,
    }
}

fn job_id(req: &Json) -> Result<u64, String> {
    req.get("job")
        .and_then(Json::as_u64)
        .ok_or_else(|| "missing job id".to_string())
}

fn build_spec(req: &Json) -> Result<JobSpec, String> {
    let mut sc: Scenario = match (
        req.get("scenario").and_then(Json::as_str),
        req.get("scenario_toml").and_then(Json::as_str),
    ) {
        (Some(name), _) => {
            scenario_by_name(name).ok_or_else(|| format!("unknown scenario {name:?}"))?
        }
        (None, Some(text)) => parse_scenario(text).map_err(|e| format!("scenario_toml: {e}"))?,
        (None, None) => return Err("missing scenario or scenario_toml".to_string()),
    };
    if let Some(n) = req.get("n").and_then(Json::as_u64) {
        // density-preserving rescale, same as the CLI's --quick
        sc = sc.scaled(n as usize);
    }
    if let Some(steps) = req.get("steps").and_then(Json::as_u64) {
        sc.steps = steps as u32;
    }
    let engine = match req.get("engine").and_then(Json::as_str) {
        None => EngineMode::Adaptive,
        Some(name) => name.parse::<EngineMode>().map_err(|e| e.to_string())?,
    };
    let parallelism = match req.get("parallelism").and_then(Json::as_str) {
        None | Some("seq") | Some("sequential") => Parallelism::Sequential,
        Some("chunked") => Parallelism::Chunked { threads: 0 },
        Some(other) => return Err(format!("unknown parallelism {other:?} (seq|chunked)")),
    };
    let chaos = match req.get("chaos_panic_at").and_then(Json::as_u64) {
        None => Chaos::None,
        Some(at) => {
            let every = req
                .get("chaos_every_attempt")
                .and_then(Json::as_bool)
                .unwrap_or(false);
            if every {
                Chaos::PanicAlways { at: at as u32 }
            } else {
                Chaos::PanicOnce { at: at as u32 }
            }
        }
    };
    Ok(JobSpec {
        scenario: sc,
        engine,
        parallelism,
        seed: req.get("seed").and_then(Json::as_u64).unwrap_or(0),
        deadline_ms: req.get("deadline_ms").and_then(Json::as_u64),
        chaos,
        step_delay_ms: req.get("step_delay_ms").and_then(Json::as_u64).unwrap_or(0),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::supervisor::SupervisorConfig;

    #[test]
    fn submit_rejects_unknown_parallelism() {
        let root = std::env::temp_dir().join(format!("floodd-parse-{}", std::process::id()));
        let sup = Supervisor::new(SupervisorConfig {
            workers: 1,
            checkpoint_root: root.clone(),
            ..SupervisorConfig::default()
        });
        let stop = AtomicBool::new(false);
        for par in ["sharded", "threads:2"] {
            let line = format!(
                r#"{{"op":"submit","scenario":"uniform-baseline","n":60,"parallelism":"{par}"}}"#
            );
            let response = handle_request(&line, &sup, &stop);
            assert_eq!(response.get("ok").and_then(Json::as_bool), Some(false));
            let error = response.get("error").and_then(Json::as_str).unwrap();
            assert!(
                error.contains(par) && error.contains("seq|chunked"),
                "{par}: {error}"
            );
        }
        assert_eq!(sup.stats().accepted, 0, "nothing may be admitted");
        let _ = std::fs::remove_dir_all(root);
    }

    #[test]
    fn submit_rejects_unknown_engine() {
        let root = std::env::temp_dir().join(format!("floodd-engine-{}", std::process::id()));
        let sup = Supervisor::new(SupervisorConfig {
            workers: 1,
            checkpoint_root: root.clone(),
            ..SupervisorConfig::default()
        });
        let stop = AtomicBool::new(false);
        for engine in ["rebuild", "bucket-join", "incremental", "Adaptive"] {
            let line = format!(
                r#"{{"op":"submit","scenario":"uniform-baseline","n":60,"engine":"{engine}"}}"#
            );
            let response = handle_request(&line, &sup, &stop);
            assert_eq!(response.get("ok").and_then(Json::as_bool), Some(false));
            let error = response.get("error").and_then(Json::as_str).unwrap();
            assert!(
                error.contains(engine) && error.contains("adaptive|oracle"),
                "{engine}: {error}"
            );
        }
        assert_eq!(sup.stats().accepted, 0, "nothing may be admitted");
        let _ = std::fs::remove_dir_all(root);
    }
}
