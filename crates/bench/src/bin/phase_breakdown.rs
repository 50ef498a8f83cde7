//! Per-phase breakdown of the sustained step protocol: move pass vs
//! transmit vs incremental-grid refresh, per step, on the production
//! adaptive engine.
//!
//! The protocol warms a flood to ~50% informed, then times a long
//! `step()` loop through completion into the cheap post-completion
//! steps, with `FloodingSim`'s phase timing enabled, and prints one JSON
//! object — so a regression in the move pass (or a refresh-cadence
//! change in the staleness accounting) shows up as a shifted share, not
//! just a slower total. Schema in `docs/BENCHMARKING.md`.
//!
//! `FASTFLOOD_BENCH_LARGE=1` adds the n = 300k row.
//! `--threads <T>` runs the chunked-parallel engine on a `T`-thread
//! pool instead of the sequential default.

use fastflood_core::{EngineMode, FloodingSim, Parallelism, SimConfig, SimParams, SourcePlacement};
use fastflood_mobility::Mrwp;
use std::hint::black_box;
use std::time::Instant;

fn main() {
    let large =
        std::env::var_os("FASTFLOOD_BENCH_LARGE").is_some_and(|v| v != "0" && !v.is_empty());
    let mut threads = 0usize;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--threads" => {
                let v = args.next().expect("--threads requires a value");
                threads = v.parse().expect("--threads must be a usize");
                assert!(threads > 0, "--threads must be positive");
            }
            other => panic!("unknown argument {other:?}; supported: --threads <n>"),
        }
    }
    let parallelism = if threads == 0 {
        Parallelism::Sequential
    } else {
        Parallelism::Chunked { threads }
    };
    let mut sizes = vec![1_000usize, 10_000, 100_000];
    if large {
        sizes.push(300_000);
    }
    println!("{{");
    println!(
        "  \"protocol\": \"sustained step (adaptive engine{}, warm to ~50% informed, \
         fixed timed step loop through completion); ns per step, refresh is the subset of \
         transmit spent synchronizing the incremental grids, boundary is the move-pass time \
         in the scalar leg-boundary pass (CPU time summed over chunks in parallel mode)\",",
        if threads == 0 {
            String::from(", sequential")
        } else {
            format!(", chunked-parallel on {threads} threads")
        }
    );
    for (k, &n) in sizes.iter().enumerate() {
        let scale = SimParams::standard(n, 1.0, 0.0)
            .expect("valid")
            .radius_scale();
        let radius = 0.4 * scale;
        let params = SimParams::standard(n, radius, 0.2 * radius).expect("valid");
        let model = Mrwp::new(params.side(), params.speed()).expect("valid");
        let mut sim = FloodingSim::new(
            model,
            SimConfig::new(params.n(), params.radius())
                .seed(1)
                .source(SourcePlacement::Center)
                .engine(EngineMode::Adaptive)
                .parallelism(parallelism),
        )
        .expect("valid config");
        sim.reserve_steps(1 << 22);
        let mut guard = 0u32;
        while 2 * sim.informed_count() < sim.n() && guard < 20_000 {
            sim.step();
            guard += 1;
        }
        assert!(
            2 * sim.informed_count() >= sim.n(),
            "warm-up exhausted its step guard before 50% informed \
             ({} of {}): the timed window would measure the wrong flood \
             regime — recalibrate the guard for these parameters",
            sim.informed_count(),
            sim.n()
        );
        sim.enable_phase_timing(true);
        let steps: u32 = if n >= 100_000 { 4_000 } else { 40_000 };
        let started = Instant::now();
        for _ in 0..steps {
            black_box(sim.step());
        }
        let total_ns = started.elapsed().as_nanos() as f64 / steps as f64;
        let ph = sim.phase_times();
        let per = |ns: u64| ns as f64 / steps as f64;
        let sep = if k + 1 == sizes.len() { "" } else { "," };
        println!(
            "  \"{n}\": {{\"steps_timed\": {steps}, \"ns_per_step\": {total_ns:.1}, \
             \"move_ns\": {:.1}, \"boundary_ns\": {:.1}, \"transmit_ns\": {:.1}, \
             \"refresh_ns\": {:.1}}}{sep}",
            per(ph.move_ns),
            per(ph.boundary_ns),
            per(ph.transmit_ns),
            per(ph.refresh_ns),
        );
    }
    println!("}}");
}
