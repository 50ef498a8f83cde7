//! `connectivity-threshold`: `fastflood_graph::connectivity_threshold`
//! on MRWP-stationary and uniform clouds at n = 1 000, with E11's quick
//! search settings (7 snapshots per radius, tolerance 0.004). One
//! repetition runs one search pair on the run's seed.

use crate::report::{median, peak_rss_mb, Fnv, Report};
use crate::trace::{SpanId, Tracer};
use crate::{Ctx, Layers, Parts, Pass};
use fastflood_geom::{Point, Rect};
use fastflood_graph::{connectivity_threshold, ThresholdSearch};
use fastflood_mobility::distributions::sample_spatial;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// Set-up repetitions per search pair; the median is kept.
const SETUP_REPS: usize = 25;

/// Search pairs per repetition, each on its own seed. One keeps a
/// repetition short, so that each probe is timed dozens of times per run:
/// with two pairs of 2 000-agent clouds, a run timed each probe ~8 times
/// and ten runs spread 13–22% (quartile distance over median).
const PAIRS_PER_REP: usize = 1;

/// One MRWP-stationary cloud of `n` agents on the square of side `side`.
fn mrwp_cloud(n: usize, side: f64, rng: &mut StdRng) -> Vec<Point> {
    (0..n).map(|_| sample_spatial(side, rng)).collect()
}

/// One uniform cloud of `n` agents on the square of side `side`.
fn uniform_cloud(n: usize, side: f64, rng: &mut StdRng) -> Vec<Point> {
    (0..n)
        .map(|_| Point::new(side * rng.gen::<f64>(), side * rng.gen::<f64>()))
        .collect()
}

/// The set-up of one search pair: region, search settings, and the two
/// samplers, each seeded and warmed by one discarded cloud.
fn setup(n: usize, seed: u64) -> (Rect, ThresholdSearch, StdRng, StdRng) {
    let side = (n as f64).sqrt();
    let region = Rect::square(side).expect("valid side");
    let search = ThresholdSearch {
        trials_per_radius: 7,
        relative_tolerance: 0.004,
        target_probability: 0.5,
    };
    let mut rng_m = StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let mut rng_u = StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 1);
    std::hint::black_box(mrwp_cloud(n, side, &mut rng_m));
    std::hint::black_box(uniform_cloud(n, side, &mut rng_u));
    (region, search, rng_m, rng_u)
}

/// One threshold search whose sampler calls are counted and, when
/// tracing, timed as `mobility.sample` child spans. Each probe snapshot
/// ends a timed part.
#[allow(clippy::too_many_arguments)]
fn search(
    tr: &mut Tracer,
    p: &mut Pass,
    parts: &mut Parts,
    op: u64,
    parent: SpanId,
    name: &'static str,
    region: Rect,
    cfg: ThresholdSearch,
    mut sample: impl FnMut() -> Vec<Point>,
) -> (f64, u64, u64) {
    let span = tr.begin(name, op, parent);
    let (mut calls, mut sample_ns) = (0u64, 0u64);
    parts.resume();
    let threshold = connectivity_threshold(region, cfg, || {
        parts.cut(p);
        calls += 1;
        if !tr.on() {
            return sample();
        }
        let t0 = Instant::now();
        let pts = sample();
        let ns = t0.elapsed().as_nanos() as u64;
        sample_ns += ns;
        tr.record("mobility.sample", op, span, t0, ns);
        pts
    });
    parts.cut(p);
    tr.end(span);
    (threshold, calls, sample_ns)
}

/// Runs the workload.
pub fn run(ctx: &Ctx, r: &mut Report) {
    let n = if ctx.tiny { 200 } else { 1_000 };
    r.line(format!(
        "setup: n={n} L={:.2}, 7 snapshots per radius, tolerance 0.004",
        (n as f64).sqrt()
    ));
    let mut layers = Layers::default();
    let seeds = crate::trajectory_seeds(ctx.seed, PAIRS_PER_REP);
    let mut pass = |tr: &mut Tracer, secs: f64, r: &mut Report| {
        let mut p = Pass::compute(seeds.len() as f64);
        let started = Instant::now();
        let mut op = 0u64;
        while p.op_s.len() < crate::MIN_REPS || started.elapsed().as_secs_f64() < secs {
            let (mut rep_s, mut points, mut h) = (0.0, 0.0, Fnv::new());
            let mut parts = Parts::default();
            for &seed in &seeds {
                op += 1;
                let mut setups = Vec::with_capacity(SETUP_REPS);
                let mut set = None;
                for _ in 0..SETUP_REPS {
                    let t0 = Instant::now();
                    set = Some(std::hint::black_box(setup(n, seed)));
                    setups.push(t0.elapsed().as_secs_f64());
                }
                p.setup_s.push(median(&setups));
                let (region, cfg, mut rng_m, mut rng_u) = set.expect("set up at least once");
                let side = region.width();

                let pair_span = tr.begin("search", op, SpanId::NONE);
                let t0 = Instant::now();
                let (r_m, calls_m, ns_m) = search(
                    tr,
                    &mut p,
                    &mut parts,
                    op,
                    pair_span,
                    "graph.threshold_mrwp",
                    region,
                    cfg,
                    || mrwp_cloud(n, side, &mut rng_m),
                );
                let (r_u, calls_u, ns_u) = search(
                    tr,
                    &mut p,
                    &mut parts,
                    op,
                    pair_span,
                    "graph.threshold_uniform",
                    region,
                    cfg,
                    || uniform_cloud(n, side, &mut rng_u),
                );
                rep_s += t0.elapsed().as_secs_f64();
                let pair_ns = tr.end(pair_span);

                let problem = (r_m <= r_u)
                    .then(|| format!("MRWP threshold {r_m:.4} not above uniform {r_u:.4}"));
                r.check_op(&format!("connectivity search pair, seed {seed}"), problem);
                let calls = calls_m + calls_u;
                points += (n as u64 * calls) as f64;
                h.eat(r_m.to_bits());
                h.eat(r_u.to_bits());
                if p.op_s.is_empty() {
                    r.line(format!(
                        "seed {seed}: thresholds MRWP {r_m:.4}, uniform {r_u:.4} ({calls} snapshots)"
                    ));
                }
                if tr.on() {
                    let sample_ns = (ns_m + ns_u) as f64;
                    layers.add("mobility.sample_ms", sample_ns / calls as f64 / 1e6);
                    layers.add(
                        "graph.probe_ms",
                        (pair_ns as f64 - sample_ns) / calls as f64 / 1e6,
                    );
                    layers.add("graph.snapshots", calls as f64 / 2.0);
                }
            }
            p.op_s.push(rep_s / seeds.len() as f64);
            p.work_per_s.push(points / rep_s);
            p.digests.push(h.value());
            p.peak_rss_mb = p.peak_rss_mb.or_else(|| peak_rss_mb("self"));
        }
        p
    };
    let (untraced, traced) = ctx.passes(r, &mut pass);
    if let Some((traced, tr)) = &traced {
        ctx.finish_layers(r, layers, &untraced, traced, tr);
    } else {
        ctx.finish_e2e(r, &untraced, "threshold_s", "sampled_points_per_s");
    }
}
