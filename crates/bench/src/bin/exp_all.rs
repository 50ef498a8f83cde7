//! Runs the paper experiments (E1–E17) and prints their tables — the
//! single command that regenerates all of EXPERIMENTS.md.
//!
//! Usage: `cargo run --release -p fastflood-bench --bin exp_all -- [NAME ...] [--quick] [--seed N] [--trials N] [--threads N]`
//!
//! With no `NAME` every experiment runs in order, each under a banner
//! with its wall time. Otherwise only the named experiments run, in the
//! order given; a `NAME` is the experiment's module name under
//! [`fastflood_bench::experiments`] (`exp_all protocols thm3_sweep`),
//! and an unknown one panics with the list of valid names. A single
//! `NAME` prints its table alone, without banner or timing.
//!
//! `--trials` overrides the trial count of the experiments that have
//! one: protocols, model_comparison, suburb_vs_center, thm10_cor12,
//! thm3_sweep and thm18_lower (its flooding trials).

use fastflood_bench::cli::ExpArgs;
use fastflood_bench::experiments::*;

/// One experiment: its E-number, its module name (the `NAME` argument)
/// and how [`ExpArgs`] configure and run it.
struct Experiment {
    id: &'static str,
    name: &'static str,
    run: fn(&ExpArgs) -> String,
}

/// Builds an [`Experiment`] for `$module`, starting from its quick or
/// default `Config` and applying `$tweak` with `$c` bound to the config
/// and `$a` to the arguments.
macro_rules! exp {
    ($id:literal, $module:ident, |$c:ident, $a:ident| $tweak:expr) => {
        Experiment {
            id: $id,
            name: stringify!($module),
            run: |$a: &ExpArgs| {
                #[allow(unused_mut)]
                let mut $c = if $a.quick {
                    $module::Config::quick()
                } else {
                    $module::Config::default()
                };
                $tweak;
                $module::run(&$c).to_string()
            },
        }
    };
}

fn main() {
    let args = ExpArgs::parse();
    let experiments = [
        exp!("E1", fig1_density, |c, a| c.seed = a.seed),
        exp!("E2", fig1_destination, |c, a| c.seed = a.seed),
        exp!("E3", thm1_marginals, |c, a| c.seed = a.seed),
        exp!("E4", thm3_sweep, |c, a| {
            c.seed = a.seed;
            c.threads = a.threads;
            c.trials = a.trials_or(c.trials);
        }),
        exp!("E5", suburb_vs_center, |c, a| {
            c.seed = a.seed;
            c.threads = a.threads;
            c.trials = a.trials_or(c.trials);
        }),
        exp!("E6", thm10_cor12, |c, a| {
            c.seed = a.seed;
            c.threads = a.threads;
            c.trials = a.trials_or(c.trials);
        }),
        exp!("E7", lemma7_density, |c, a| c.seed = a.seed),
        exp!("E8", lemma13_turns, |c, a| c.seed = a.seed),
        exp!("E9", lemma15_suburb, |c, a| {}),
        exp!("E10", thm18_lower, |c, a| {
            c.seed = a.seed;
            c.threads = a.threads;
            c.flood_trials = a.trials_or(c.flood_trials);
        }),
        exp!("E11", connectivity, |c, a| c.seed = a.seed),
        exp!("E12", convergence, |c, a| c.seed = a.seed),
        exp!("E13", model_comparison, |c, a| {
            c.seed = a.seed;
            c.threads = a.threads;
            c.trials = a.trials_or(c.trials);
        }),
        exp!("E14", lemma9_expansion, |c, a| c.seed = a.seed),
        exp!("E15", protocols, |c, a| {
            c.seed = a.seed;
            c.threads = a.threads;
            c.trials = a.trials_or(c.trials);
        }),
        exp!("E17", lemma14_segments, |c, a| c.seed = a.seed),
        exp!("E16", lemma16_meeting, |c, a| c.seed = a.seed),
    ];

    // resolve every name before running anything
    let selected: Vec<&Experiment> = if args.names.is_empty() {
        experiments.iter().collect()
    } else {
        args.names
            .iter()
            .map(|name| {
                experiments
                    .iter()
                    .find(|e| e.name == name)
                    .unwrap_or_else(|| {
                        let valid: Vec<&str> = experiments.iter().map(|e| e.name).collect();
                        panic!("unknown experiment {name:?}; valid: {}", valid.join(" "))
                    })
            })
            .collect()
    };
    if let [only] = selected[..] {
        println!("{}", (only.run)(&args));
        return;
    }

    let started = std::time::Instant::now();
    for e in selected {
        let label = format!("{} {}", e.id, e.name);
        println!("==================================================================");
        println!("== {label}");
        println!("==================================================================");
        let t = std::time::Instant::now();
        println!("{}", (e.run)(&args));
        println!("[{label} finished in {:.1?}]\n", t.elapsed());
    }
    println!("all experiments done in {:.1?}", started.elapsed());
}
