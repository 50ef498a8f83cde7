//! Experiment harness for the *Fast Flooding over Manhattan* reproduction.
//!
//! Each module under [`experiments`] reproduces one figure or
//! theorem-level claim of the paper (the mapping lives in `DESIGN.md` §3
//! and the measured outcomes in `EXPERIMENTS.md`). Every experiment
//! exposes a `Config` (with a `Default` sized for a laptop run and a
//! `quick()` variant for smoke tests) and a `run` function returning a
//! structured, `Display`able result. The `exp_all` binary runs them by
//! name: parse [`cli::ExpArgs`], run, print.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod experiments;
pub mod scenario;
pub mod table;
