//! The two whole-flood workloads: `sparse-suburb` (the paper's setting,
//! sequential engine) and `faulted-city-t2` (three faulted library
//! scenarios on the 2-thread chunked engine, through `Driver`).

use crate::report::{median, peak_rss_mb, quantile, Fnv, Report};
use crate::trace::{SpanId, Tracer};
use crate::{Ctx, Layers, Parts, Pass};
use fastflood_bench::scenario::{
    scenario_by_name, trace_digest, Driver, ModelSpec, Outcome, Scenario,
};
use fastflood_core::{EngineMode, FloodingSim, Parallelism, SimConfig, SimParams, SourcePlacement};
use fastflood_geom::{Point, Rect};
use fastflood_graph::DiskGraph;
use fastflood_mobility::{Mobility, Mrwp};
use std::time::Instant;

/// Agents in a sparse-suburb flood. Paper-scale floods (n = 100 000,
/// ~44 MB resident) slowed by up to 2x with the neighbours' cache load on
/// a shared host, often for a whole run; at this size the summed fastest
/// parts repeat within ±6% across runs and seeds.
const SUBURB_N: usize = 5_000;

/// Trajectories one sparse-suburb repetition floods. At `SUBURB_N` the
/// flooding time alone differs by up to ±12% between seeds, so a
/// repetition averages many.
const SUBURB_TRAJECTORIES: usize = 16;

/// Agents in a faulted-city flood, for the reason given at `SUBURB_N`.
const CITY_N: usize = 5_000;

/// Seeds each faulted-city scenario floods under per repetition. The
/// cost of a faulted flood depends on its seed far more than a plain
/// one's: at n = 10 000 with 4 seeds per scenario, ten runs on ten seeds
/// spread 19% (quartile distance over median), five runs of one seed ±5%.
const CITY_SEEDS: usize = 16;

/// Per-step figures gathered by a traced flood pass.
#[derive(Debug, Default)]
struct StepTotals {
    steps: f64,
    move_ns: f64,
    boundary_ns: f64,
    transmit_ns: f64,
    refresh_ns: f64,
}

/// Times `DiskGraph::build` + `components()` on `positions`, in ms.
fn giant_build_ms(
    tr: &mut Tracer,
    op: u64,
    parent: SpanId,
    region: Rect,
    radius: f64,
    positions: &[Point],
) -> f64 {
    let s = tr.begin("graph.giant_build", op, parent);
    let giant = DiskGraph::build(region, radius, positions)
        .expect("finite positions")
        .components()
        .giant_fraction();
    std::hint::black_box(giant);
    tr.end(s) as f64 / 1e6
}

/// `sparse-suburb`: MRWP at n = `SUBURB_N`, R = 0.4·L·√(ln n / n) (below
/// the connectivity threshold), v = 0.2·R, source at the SW corner,
/// adaptive sequential engine, stationary start flooded to completion.
/// One repetition floods `SUBURB_TRAJECTORIES` trajectories, seeded from
/// the run's seed.
pub fn sparse_suburb(ctx: &Ctx, r: &mut Report) {
    let n = if ctx.tiny { 2_000 } else { SUBURB_N };
    let radius = 0.4
        * SimParams::standard(n, 1.0, 0.0)
            .expect("valid n")
            .radius_scale();
    let speed = 0.2 * radius;
    let side = (n as f64).sqrt();
    let model = Mrwp::new(side, speed).expect("valid MRWP");
    let config = SimConfig::new(n, radius)
        .source(SourcePlacement::SwCorner)
        .engine(EngineMode::Adaptive)
        .parallelism(Parallelism::Sequential);
    let seeds = crate::trajectory_seeds(ctx.seed, SUBURB_TRAJECTORIES);
    let budget = 200_000;
    r.line(format!(
        "setup: MRWP n={n} L={side:.1} R={radius:.4} v={speed:.4} source=sw-corner adaptive sequential \
         budget={budget} seeds={seeds:?}"
    ));

    let mut totals = StepTotals::default();
    let mut layers = Layers::default();
    let mut pass = |tr: &mut Tracer, secs: f64, r: &mut Report| {
        let mut p = Pass::compute(seeds.len() as f64);
        let started = Instant::now();
        let mut op = 0u64;
        while p.op_s.len() < crate::MIN_REPS || started.elapsed().as_secs_f64() < secs {
            let (mut flood, mut agent_steps, mut h) = (0.0, 0.0, Fnv::new());
            let mut parts = Parts::default();
            for &seed in &seeds {
                op += 1;
                let flood_span = tr.begin("flood", op, SpanId::NONE);
                let t0 = Instant::now();
                let s = tr.begin("core.sim_new", op, flood_span);
                let mut sim = FloodingSim::new(model.clone(), config.clone().seed(seed))
                    .expect("valid config");
                tr.end(s);
                p.setup_s.push(t0.elapsed().as_secs_f64());
                if tr.on() {
                    sim.enable_phase_timing(true);
                    let region = sim.model().region();
                    layers.add(
                        "graph.giant_build_ms",
                        giant_build_ms(tr, op, flood_span, region, radius, sim.positions()),
                    );
                }

                let t1 = Instant::now();
                parts.resume();
                while !sim.all_informed() && sim.time() < budget {
                    let s = tr.begin("core.step", op, flood_span);
                    sim.step();
                    tr.end(s);
                    parts.cut(&mut p);
                }
                let report = sim.report();
                flood += t1.elapsed().as_secs_f64();
                tr.end(flood_span);

                let problem = (!report.completed
                    || report.live as usize != n - sim.crashed_count())
                .then(|| format!("incomplete after {} steps", report.steps_run));
                r.check_op(&format!("sparse-suburb flood, seed {seed}"), problem);
                if p.op_s.is_empty() {
                    r.line(format!(
                        "seed {seed}: flooding time {} steps",
                        report.steps_run
                    ));
                }
                agent_steps += n as f64 * f64::from(report.steps_run);
                h.eat(sim.source() as u64);
                for i in 0..n {
                    h.eat(u64::from(sim.inform_time(i).unwrap_or(u32::MAX)));
                }
                for &c in &report.spread {
                    h.eat(u64::from(c));
                }
                for q in sim.positions() {
                    h.eat(q.x.to_bits());
                    h.eat(q.y.to_bits());
                }

                if tr.on() {
                    let ph = sim.phase_times();
                    totals.steps += f64::from(report.steps_run);
                    totals.move_ns += ph.move_ns as f64;
                    totals.boundary_ns += ph.boundary_ns as f64;
                    totals.transmit_ns += ph.transmit_ns as f64;
                    totals.refresh_ns += ph.refresh_ns as f64;
                    layers.add(
                        "core.flood_steps",
                        f64::from(report.flooding_time.unwrap_or(0)),
                    );
                    layers.add(
                        "core.full_rebuilds",
                        f64::from(sim.incremental_full_rebuilds()),
                    );
                    layers.add(
                        "core.spike_rebuilds",
                        f64::from(sim.incremental_spike_rebuilds()),
                    );
                    layers.add(
                        "core.incremental_diff_steps",
                        f64::from(sim.incremental_diff_steps()),
                    );
                }
            }
            p.op_s.push(flood / seeds.len() as f64);
            p.work_per_s.push(agent_steps / flood);
            p.digests.push(h.value());
            p.peak_rss_mb = p.peak_rss_mb.or_else(|| peak_rss_mb("self"));
        }
        p
    };
    let (untraced, traced) = ctx.passes(r, &mut pass);
    if let Some((traced, tr)) = &traced {
        phase_layers(&totals, &mut layers);
        step_layers(tr, &mut layers);
        ctx.finish_layers(r, layers, &untraced, traced, tr);
    } else {
        ctx.finish_e2e(r, &untraced, "flood_s", "agent_steps_per_s");
    }
}

/// `mobility.*` and `spatial.*` per-step figures from phase timing.
fn phase_layers(t: &StepTotals, layers: &mut Layers) {
    if t.steps > 0.0 {
        layers.set("mobility.move_ns_per_step", t.move_ns / t.steps);
        layers.set("mobility.boundary_ns_per_step", t.boundary_ns / t.steps);
        layers.set(
            "spatial.join_ns_per_step",
            (t.transmit_ns - t.refresh_ns) / t.steps,
        );
        layers.set("spatial.refresh_ns_per_step", t.refresh_ns / t.steps);
    }
}

/// `core.step_p50_ns` / `core.step_p99_ns` from the step spans.
fn step_layers(tr: &Tracer, layers: &mut Layers) {
    let steps = tr.durations("core.step");
    layers.set("core.step_p50_ns", median(&steps));
    layers.set("core.step_p99_ns", quantile(&steps, 0.99));
    layers.samples("core.step", steps.len());
}

/// The three faulted library scenarios of `faulted-city-t2`.
pub const CITY_SCENARIOS: [&str; 3] = ["churn-spike", "partition-heal", "dense-core-sparse-fringe"];

/// The MRWP model a library scenario declares.
fn mrwp_of(sc: &Scenario) -> Mrwp {
    match sc.model {
        ModelSpec::Mrwp { side, speed, pause } => Mrwp::new(side, speed)
            .expect("valid MRWP")
            .with_pause(pause),
        ref other => panic!("scenario {} is not MRWP: {other:?}", sc.name),
    }
}

/// `faulted-city-t2`: `churn-spike`, `partition-heal` and
/// `dense-core-sparse-fringe` at `Scenario::scaled(CITY_N)`, adaptive
/// engine on `Parallelism::Chunked { threads: 2 }`, through `Driver` so
/// set-up and flood are timed apart. One repetition floods all three
/// under `CITY_SEEDS` seeds derived from the run's seed; `flood_s` is the mean
/// flood time of a repetition, and the per-layer counts are means per
/// scenario flood.
pub fn faulted_city(ctx: &Ctx, r: &mut Report) {
    let n = if ctx.tiny { 1_000 } else { CITY_N };
    let scenarios: Vec<Scenario> = CITY_SCENARIOS
        .iter()
        .map(|name| scenario_by_name(name).expect("library scenario").scaled(n))
        .collect();
    let parallelism = Parallelism::Chunked { threads: 2 };
    let seeds = crate::trajectory_seeds(ctx.seed, CITY_SEEDS);
    r.line(format!(
        "setup: {} at n={n}, seeds {seeds:?}, adaptive, chunked threads=2",
        CITY_SCENARIOS.join(" + ")
    ));

    let mut layers = Layers::default();
    let mut pass = |tr: &mut Tracer, secs: f64, r: &mut Report| {
        let mut p = Pass::compute((scenarios.len() * seeds.len()) as f64);
        let started = Instant::now();
        let mut op = 0u64;
        while p.op_s.len() < crate::MIN_REPS || started.elapsed().as_secs_f64() < secs {
            let (mut setup, mut flood, mut agent_steps) = (0.0, 0.0, 0.0);
            let mut h = Fnv::new();
            let mut parts = Parts::default();
            for (sc, &seed) in scenarios
                .iter()
                .flat_map(|sc| seeds.iter().map(move |seed| (sc, seed)))
            {
                op += 1;
                let flood_span = tr.begin("flood", op, SpanId::NONE);
                let t0 = Instant::now();
                let s = tr.begin("scenario.driver_new", op, flood_span);
                let mut d = Driver::new(sc, mrwp_of(sc), EngineMode::Adaptive, parallelism, seed)
                    .expect("library scenario compiles");
                let new_ns = tr.end(s);
                setup += t0.elapsed().as_secs_f64();
                if tr.on() {
                    layers.add("scenario.driver_new_ms", new_ns as f64 / 1e6);
                    let pts: Vec<Point> = d
                        .finish()
                        .trace
                        .position_bits
                        .iter()
                        .map(|&(x, y)| Point::new(f64::from_bits(x), f64::from_bits(y)))
                        .collect();
                    let region = Rect::square(sc.model.side()).expect("valid side");
                    layers.add(
                        "graph.giant_build_ms",
                        giant_build_ms(tr, op, flood_span, region, sc.radius, &pts),
                    );
                }

                let t1 = Instant::now();
                parts.resume();
                loop {
                    let s = tr.begin("scenario.pump", op, flood_span);
                    let done = d.pump();
                    tr.end(s);
                    if done {
                        break;
                    }
                    let s = tr.begin("core.step", op, flood_span);
                    d.step();
                    tr.end(s);
                    parts.cut(&mut p);
                }
                parts.cut(&mut p);
                flood += t1.elapsed().as_secs_f64();
                tr.end(flood_span);

                let run = d.finish();
                let problem = match run.outcome {
                    Outcome::Flooded { .. } => None,
                    other => Some(format!(
                        "{} after {} steps",
                        other.label(),
                        run.report.steps_run
                    )),
                };
                r.check_op(&format!("faulted-city-t2 {}", sc.name), problem);
                agent_steps += n as f64 * f64::from(run.report.steps_run);
                h.eat(trace_digest(&run.trace));
                if tr.on() {
                    layers.add(
                        "core.flood_steps",
                        f64::from(run.report.flooding_time.unwrap_or(0)),
                    );
                    layers.add("core.full_rebuilds", f64::from(run.fallback.full_rebuilds));
                    layers.add(
                        "core.spike_rebuilds",
                        f64::from(run.fallback.spike_rebuilds),
                    );
                    layers.add(
                        "core.incremental_diff_steps",
                        f64::from(run.fallback.diff_steps),
                    );
                }
            }
            let k = (scenarios.len() * seeds.len()) as f64;
            p.setup_s.push(setup / k);
            p.op_s.push(flood / k);
            p.work_per_s.push(agent_steps / flood);
            p.digests.push(h.value());
            p.peak_rss_mb = p.peak_rss_mb.or_else(|| peak_rss_mb("self"));
        }
        p
    };
    let (untraced, traced) = ctx.passes(r, &mut pass);
    if let Some((traced, tr)) = &traced {
        let pumps = tr.durations("scenario.pump");
        layers.set(
            "scenario.pump_ns_per_step",
            pumps.iter().sum::<f64>() / pumps.len().max(1) as f64,
        );
        step_layers(tr, &mut layers);
        ctx.finish_layers(r, layers, &untraced, traced, tr);
    } else {
        ctx.finish_e2e(r, &untraced, "flood_s", "agent_steps_per_s");
    }
}
