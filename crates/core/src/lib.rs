//! # mn-core — the memory-network system simulator
//!
//! This crate assembles the substrates of the `mncube` workspace into the
//! complete system evaluated by *"There and Back Again: Optimizing the
//! Interconnect in Networks of Memory Cubes"* (ISCA 2017):
//!
//! - an APU host with multiple memory ports, each serving a **disjoint**
//!   slice of physical memory through its own memory network (§2.3);
//! - address interleaving at 256-byte granularity across ports and,
//!   capacity-weighted, across the cubes of each port's MN (§5);
//! - memory cubes with four quadrants of banks behind an on-package
//!   switch, paying a 1 ns penalty when a request lands in the wrong
//!   quadrant (§5);
//! - the network layer (`mn-noc`), memory devices (`mn-mem`), topologies
//!   (`mn-topo`), and workload proxies (`mn-workloads`).
//!
//! The primary entry point is [`SystemConfig`] + [`simulate`]:
//!
//! ```
//! use mn_core::{SystemConfig, simulate};
//! use mn_topo::TopologyKind;
//! use mn_workloads::Workload;
//!
//! // A small configuration for a quick, deterministic run.
//! let mut config = SystemConfig::paper_baseline(TopologyKind::Tree, 1.0).unwrap();
//! config.requests_per_port = 2_000;
//! let result = simulate(&config, Workload::Dct);
//!
//! assert_eq!(result.reads + result.writes, 2_000);
//! // Under load, network latency dominates array latency (the paper's
//! // central observation).
//! let b = &result.breakdown;
//! assert!(b.to_memory.mean_ns() + b.from_memory.mean_ns() > b.in_memory.mean_ns());
//! ```
//!
//! Each figure and table of the paper maps to a binary in `mn-bench`; see
//! `DESIGN.md` for the experiment index and `EXPERIMENTS.md` for measured
//! results.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![warn(missing_debug_implementations)]

mod address;
mod config;
mod error;
mod experiment;
mod port;
mod stats;
mod system;

pub use address::{AddressMap, DecodedAddress};
pub use config::{ConfigError, SystemConfig};
pub use error::SimError;
pub use experiment::{mix_grid, ratio_label, speedup_pct, ConfigPoint, MixSpec};
pub use mn_host::{HostConfig, WindowPolicyKind};
pub use mn_telemetry::{HostSummary, TelemetrySummary, TraceConfig};
pub use port::{PortObservation, PortTelemetry};
pub use stats::{EnergyBreakdown, LatencyBreakdown, RunResult};
pub use system::{
    merge_port_observations, port_count, simulate, simulate_port, try_build_network, try_simulate,
    try_simulate_port,
};
