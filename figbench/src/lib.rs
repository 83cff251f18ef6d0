//! # figbench — the mncube figure-regeneration benchmark
//!
//! Measures, in host time, what a user of mncube waits for when they
//! regenerate the paper's figure grids, and attributes it to the
//! simulator's layers. Three workloads (see `PREDICTIONS.md`):
//!
//! - `figs-cold` — Figs. 10–12 from an empty cache (the kernel works);
//! - `figs-warm` — twelve figures replayed from a full cache (the
//!   campaign layer works);
//! - `closed-loop` — the closed-loop sweep, cache detached (the kernel in
//!   its closed-loop, telemetry-on mode).
//!
//! Every pass runs in its own process with every `MN_*` knob removed,
//! works only in private directories under `figbench/target/bench/`, and
//! has its rendered tables compared with the committed goldens (at the
//! golden seed) or with the run's first rendering (at any other seed).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod calib;
pub mod drives;
pub mod figures;
pub mod pass;
pub mod run;
pub mod stats;
pub mod trace;
