//! Panic-recovery coverage for the shared `WorkerPool` under
//! `Parallelism::Chunked` — the supervisor's survival story at the
//! engine layer:
//!
//! * a task panic on the pool a chunked sim is about to use (or is in
//!   the middle of using) leaves the pool fully reusable, and
//! * the sim's trajectory stays **bitwise identical** to the
//!   `Chunked { threads: 1 }` reference — thread-count invariance is
//!   the chunked engine's determinism contract, so any scheduling
//!   fallout from the panic (dead workers, inline fallbacks at the
//!   wrong moment) would show up as a fingerprint mismatch here.
//!
//! The pool under test is obtained through `shared_pool(threads)` —
//! the same registry `FloodingSim` construction resolves through — so
//! these tests exercise the actual sharing seam the job runtime in
//! `crates/service` rides, not a private look-alike pool. Both tests
//! wound the same 2-thread registry pool, so they hold a lock to keep
//! one test's chaos out of the other's pool-sharing assertions.

use fastflood_core::{EngineMode, FloodingSim, Parallelism, SimConfig, SourcePlacement};
use fastflood_mobility::{Mrwp, MOVE_CHUNK};
use fastflood_parallel::shared_pool;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

static SERIAL: Mutex<()> = Mutex::new(());

/// Serializes the tests (a panicking test must not block the other).
fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// Populations span several [`MOVE_CHUNK`]s so every move pass really
/// dispatches on the pool; the side keeps the density of a 700-agent
/// 30×30 square.
fn sim(n: usize, seed: u64, parallelism: Parallelism) -> FloodingSim<Mrwp> {
    assert!(n > 2 * MOVE_CHUNK, "the move pass must span several chunks");
    let model = Mrwp::new(30.0 * (n as f64 / 700.0).sqrt(), 0.5).unwrap();
    FloodingSim::new(
        model,
        SimConfig::new(n, 2.0)
            .seed(seed)
            .source(SourcePlacement::Agent(0))
            .engine(EngineMode::Adaptive)
            .parallelism(parallelism),
    )
    .unwrap()
}

/// Bitwise trajectory fingerprint: position bits, inform times, spread.
#[allow(clippy::type_complexity)]
fn fingerprint(sim: &FloodingSim<Mrwp>) -> (Vec<(u64, u64)>, Vec<Option<u32>>, Vec<u32>) {
    (
        sim.positions()
            .iter()
            .map(|p| (p.x.to_bits(), p.y.to_bits()))
            .collect(),
        (0..sim.n()).map(|a| sim.inform_time(a)).collect(),
        sim.report().spread,
    )
}

/// A panicking dispatch before and another mid-run must leave the
/// shared pool serving the chunked sim with unchanged results.
#[test]
fn chunked_run_is_bitwise_correct_after_pool_task_panics() {
    let _serial = serial();
    // the reference runs on its own (sequentially-chunked) universe
    let reference = {
        let mut s = sim(9_000, 77, Parallelism::Chunked { threads: 1 });
        let report = s.run(5_000);
        assert!(report.completed, "reference flood must complete");
        fingerprint(&s)
    };

    // hold the shared pool the chunked sim will resolve to, and prove
    // the sim actually shares it (construction bumps the Arc count)
    let pool = shared_pool(2);
    let before = Arc::strong_count(&pool);

    // wound the pool before the sim exists: a task panic mid-dispatch
    let hurt = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        pool.run(64, &|i| {
            if i == 13 {
                panic!("pre-run task panic");
            }
        });
    }));
    assert!(hurt.is_err(), "the panic must reach the dispatcher");

    let mut s = sim(9_000, 77, Parallelism::Chunked { threads: 2 });
    assert!(
        Arc::strong_count(&pool) > before,
        "the chunked sim must share the registry pool, not build its own"
    );

    // run half the flood, panic another dispatch on the *same* pool
    // (mid-flood from the sim's point of view: its next
    // step dispatches on a pool that just unwound), then finish
    for _ in 0..40 {
        if s.all_informed() {
            break;
        }
        s.step();
    }
    let hurt = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        pool.run(32, &|i| {
            if i == 7 {
                panic!("mid-run task panic");
            }
        });
    }));
    assert!(hurt.is_err(), "the mid-run panic must reach the dispatcher");

    let report = s.run(5_000);
    assert!(report.completed, "chunked flood must complete");
    assert_eq!(
        fingerprint(&s),
        reference,
        "panics on the shared pool must not change the trajectory"
    );
}

/// Panicking dispatches hammering the shared pool *concurrently* from
/// another thread (the sim's dispatches fall back to inline execution
/// whenever the pool is busy) must not perturb the trajectory either.
#[test]
fn chunked_run_survives_concurrent_panicking_dispatches() {
    let _serial = serial();
    let reference = {
        let mut s = sim(8_500, 910, Parallelism::Chunked { threads: 1 });
        let report = s.run(5_000);
        assert!(report.completed, "reference flood must complete");
        fingerprint(&s)
    };

    let pool = shared_pool(2);
    let stop = Arc::new(AtomicBool::new(false));
    let chaos = {
        let pool = Arc::clone(&pool);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut panics = 0u32;
            while !stop.load(Ordering::Relaxed) {
                let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    pool.run(16, &|i| {
                        if i == 3 {
                            panic!("chaos dispatch");
                        }
                    });
                }));
                if r.is_err() {
                    panics += 1;
                }
                std::thread::yield_now();
            }
            panics
        })
    };

    let mut s = sim(8_500, 910, Parallelism::Chunked { threads: 2 });
    let report = s.run(5_000);
    stop.store(true, Ordering::Relaxed);
    let panics = chaos.join().expect("chaos thread must not die");
    assert!(panics > 0, "the chaos loop must actually have panicked");
    assert!(report.completed, "chunked flood must complete");
    assert_eq!(
        fingerprint(&s),
        reference,
        "concurrent pool panics must not change the trajectory"
    );
}
