//! # mn-campaign — the experiment-campaign engine
//!
//! Every results figure of the paper sweeps a `{topology} × {DRAM:NVM mix}
//! × {arbitration} × {workload}` grid through `mn_core::simulate`. This
//! crate owns that execution end-to-end, so the 14 `mn-bench` binaries and
//! the CLI stay declarative descriptions of *what* to run:
//!
//! - **Scheduling** — [`Campaign`] fans independent [`CampaignPoint`]s
//!   through a shared FIFO [`Engine`] (plain `std::thread` + a
//!   `Mutex<VecDeque>` queue + channels; the build is offline and
//!   dependency-free). Any number of concurrently submitted campaigns
//!   share one `MN_JOBS`-sized worker pool. Each point carries its own
//!   seed, so results are bit-identical to a serial run at any worker
//!   count and any interleaving of submitters, and duplicate points
//!   within a campaign (shared baselines) fold into one simulation.
//! - **Caching** — a content-addressed on-disk cache ([`DiskCache`],
//!   default `results/cache/`) keyed by a stable hash of
//!   `(config, workload, requests, seed, sim-version)`, with a
//!   process-wide decoded hot tier for warm replays. Entries are written
//!   once; `mncube cache gc --budget` evicts the oldest-written.
//!   Re-running a figure, or sharing the `100%-C` chain baseline across
//!   figures, skips finished points.
//! - **Sinks** — alongside the binaries' text tables, per-point JSON-lines
//!   and CSV records ([`write_point_records`]) with metadata: cache
//!   hit/miss, host wall-clock, per-class latency stats.
//! - **Reporting** — live progress on a terminal and a closing
//!   [`CampaignSummary`] line (points done/total, cache hits, aggregate
//!   sim-throughput) on stderr.
//! - **Robustness** — panic isolation (`catch_unwind` per point), a
//!   crash-consistent run journal with `MN_RESUME` replay, bounded
//!   per-point retry (`MN_RETRIES`) with watchdog escalation, and a
//!   seeded [`ChaosPlan`] harness proving every recovery path converges
//!   to byte-identical results (DESIGN.md §"Robustness & recovery").
//!
//! ## Example
//!
//! ```
//! use mn_campaign::{Campaign, CampaignPoint};
//! use mn_core::SystemConfig;
//! use mn_topo::TopologyKind;
//! use mn_workloads::Workload;
//!
//! let mut config = SystemConfig::paper_baseline(TopologyKind::Tree, 1.0).unwrap();
//! config.requests_per_port = 500;
//! let points = vec![
//!     CampaignPoint::new(config.clone(), Workload::Dct),
//!     CampaignPoint::new(config, Workload::Nw),
//! ];
//! let outcome = Campaign::new(2).quiet().run(points);
//! assert_eq!(outcome.outcomes.len(), 2);
//! assert_eq!(outcome.summary.fresh, 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![warn(clippy::too_many_lines)]

mod cache;
mod campaign;
mod chaos;
pub mod codec;
mod engine;
mod error;
mod journal;
mod knobs;
mod point;
mod report;
pub mod sink;

pub use cache::{CacheStats, DiskCache, GcReport};
pub use campaign::{Campaign, CampaignOutcome, PointOutcome};
pub use chaos::ChaosPlan;
pub use engine::Engine;
pub use error::CampaignError;
pub use knobs::{parse_size, Knob, Knobs, CLOSED_LOOP_ECN_THRESHOLD, KNOBS};
pub use point::{CampaignPoint, SIM_VERSION};
pub use report::CampaignSummary;
pub use sink::{write_point_records, write_records, OutputFormat, Record, Value};
