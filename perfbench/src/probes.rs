//! Layer probes that every traced run measures, whatever its workload:
//! checkpoint snapshot/encode/write/read/restore at the job size and at
//! 100k, empty-task pool dispatch, and the service JSON codec.

use crate::report::{median, Report};
use crate::{Ctx, Layers};
use fastflood_bench::scenario::{scenario_by_name, Driver, ModelSpec};
use fastflood_core::{EngineMode, Parallelism, Snapshot};
use fastflood_mobility::Mrwp;
use fastflood_service::{JobPhase, JobStatus, Json};
use std::hint::black_box;
use std::time::Instant;

/// Timed repetitions of each checkpoint operation.
const CHECKPOINT_REPS: usize = 5;

/// Runs every probe and records its per-layer values.
pub fn run(ctx: &Ctx, r: &mut Report, layers: &mut Layers) {
    let (small, large) = if ctx.tiny {
        (200, 2_000)
    } else {
        (2_000, 100_000)
    };
    checkpoint(ctx, r, layers, small, "_n2k");
    checkpoint(ctx, r, layers, large, "_n100k");
    dispatch(layers);
    json_codec(layers);
}

fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Snapshot, encode, atomic write (fsyncs included), read and restore
/// of a `uniform-baseline` driver at `n` agents, 25 steps into its flood.
fn checkpoint(ctx: &Ctx, r: &mut Report, layers: &mut Layers, n: usize, suffix: &str) {
    let sc = scenario_by_name("uniform-baseline")
        .expect("library scenario")
        .scaled(n);
    let ModelSpec::Mrwp { side, speed, pause } = sc.model else {
        panic!("uniform-baseline is MRWP");
    };
    let model = Mrwp::new(side, speed)
        .expect("valid MRWP")
        .with_pause(pause);
    let mut d = Driver::new(
        &sc,
        model,
        EngineMode::Adaptive,
        Parallelism::Sequential,
        ctx.seed,
    )
    .expect("library scenario compiles");
    while d.time() < 25 && !d.pump() {
        d.step();
    }
    let path = ctx
        .out
        .join(format!("probe-{}{suffix}.ckpt", std::process::id()));
    let before = d.digest();
    let mut t = [const { Vec::new() }; 5];
    let mut bytes = 0;
    for _ in 0..CHECKPOINT_REPS {
        let t0 = Instant::now();
        let snap = d.snapshot();
        t[0].push(ms(t0));
        let t0 = Instant::now();
        let encoded = black_box(snap.encode());
        t[1].push(ms(t0));
        bytes = encoded.len();
        let t0 = Instant::now();
        snap.write_atomic(&path).expect("probe checkpoint write");
        t[2].push(ms(t0));
        let t0 = Instant::now();
        let back = Snapshot::read_file(&path).expect("probe checkpoint read");
        t[3].push(ms(t0));
        let t0 = Instant::now();
        d.restore(&back).expect("probe checkpoint restore");
        t[4].push(ms(t0));
    }
    let _ = std::fs::remove_file(&path);
    r.check(
        d.digest() == before,
        format!("checkpoint probe at n={n}: restore changed the state digest"),
    );
    let names: [&'static str; 5] = match suffix {
        "_n2k" => [
            "checkpoint.snapshot_ms_n2k",
            "checkpoint.encode_ms_n2k",
            "checkpoint.write_ms_n2k",
            "checkpoint.read_ms_n2k",
            "checkpoint.restore_ms_n2k",
        ],
        _ => [
            "checkpoint.snapshot_ms_n100k",
            "checkpoint.encode_ms_n100k",
            "checkpoint.write_ms_n100k",
            "checkpoint.read_ms_n100k",
            "checkpoint.restore_ms_n100k",
        ],
    };
    for (name, xs) in names.iter().zip(&t) {
        layers.set(name, median(xs));
    }
    let bytes_name = if suffix == "_n2k" {
        "checkpoint.bytes_n2k"
    } else {
        "checkpoint.bytes_n100k"
    };
    layers.set(bytes_name, bytes as f64);
    r.line(format!(
        "checkpoint probe n={n}: {bytes} bytes, medians of {CHECKPOINT_REPS}"
    ));
}

/// Median cost of `shared_pool(2).run(2, <empty task>)`, in ns.
fn dispatch(layers: &mut Layers) {
    let pool = fastflood_parallel::shared_pool(2);
    let empty = |i: usize| {
        black_box(i);
    };
    for _ in 0..1_000 {
        pool.run(2, &empty);
    }
    const PER_BATCH: usize = 2_000;
    let batches: Vec<f64> = (0..15)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..PER_BATCH {
                pool.run(2, &empty);
            }
            t0.elapsed().as_nanos() as f64 / PER_BATCH as f64
        })
        .collect();
    layers.set("parallel.dispatch_ns", median(&batches));
}

/// Parse and encode cost of one `done` status line, in µs.
fn json_codec(layers: &mut Layers) {
    let status = JobStatus {
        id: 4242,
        scenario: "dense-core-sparse-fringe".to_string(),
        seed: 0x5EED_0000_1234,
        phase: JobPhase::Done {
            digest: format!("{:016x}", 0x0123_4567_89AB_CDEFu64),
            outcome: "flooded".to_string(),
            flooding_time: Some(187),
            attempts: 2,
        },
        attempts: 2,
    };
    let json = status.to_json();
    let line = json.to_string();
    const PER_BATCH: usize = 2_000;
    let time_us = |f: &dyn Fn()| {
        let batches: Vec<f64> = (0..15)
            .map(|_| {
                let t0 = Instant::now();
                for _ in 0..PER_BATCH {
                    f();
                }
                t0.elapsed().as_secs_f64() * 1e6 / PER_BATCH as f64
            })
            .collect();
        median(&batches)
    };
    let parse = time_us(&|| {
        black_box(Json::parse(black_box(&line)).expect("valid status line"));
    });
    let encode = time_us(&|| {
        black_box(black_box(&json).to_string());
    });
    layers.set("service.json_parse_us", parse);
    layers.set("service.json_encode_us", encode);
}
