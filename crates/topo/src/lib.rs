//! # mn-topo — memory-network topologies and routing
//!
//! This crate models the *structure* of a Memory Network (MN): which memory
//! cubes exist, what technology each is built from, how the point-to-point
//! links connect them to each other and to the host memory port, and which
//! path each class of traffic takes.
//!
//! It implements every topology evaluated in the ISCA 2017 paper
//! *"There and Back Again: Optimizing the Interconnect in Networks of Memory
//! Cubes"*:
//!
//! - [`TopologyKind::Chain`] — the baseline: cubes daisy-chained off the port
//!   (§3, Fig. 3b).
//! - [`TopologyKind::Ring`] — the host closes the chain into a cycle, halving
//!   the average hop count (Fig. 3c).
//! - [`TopologyKind::Tree`] — a ternary tree making full use of the four
//!   links per cube (Fig. 3d).
//! - [`TopologyKind::SkipList`] — the paper's proposed topology (§4.2,
//!   Fig. 8): a central sequential chain augmented with cascading skip links.
//!   Reads route over shortest paths using the skips; writes are shunted onto
//!   the chain.
//! - [`TopologyKind::MetaCube`] — "cube of cubes" (§4.3, Fig. 9): four cubes
//!   plus an interface chip on a silicon interposer per package, packages
//!   chained to the host.
//!
//! The crate is purely structural: link *latencies* and *bandwidths* are
//! assigned by the network layer (`mn-noc`), and memory timings by `mn-mem`.
//!
//! ## Example
//!
//! ```
//! use mn_topo::{Topology, TopologyKind, CubeTech, Placement, NvmPlacement};
//!
//! // 16 all-DRAM cubes as a skip list, like Fig. 8 of the paper.
//! let placement = Placement::homogeneous(16, CubeTech::Dram);
//! let topo = Topology::build(TopologyKind::SkipList, &placement).unwrap();
//! let routes = topo.routing();
//!
//! // The farthest cube is reachable in 5 hops (logarithmic, like a tree)...
//! let farthest = topo.cube_at_position(16).unwrap();
//! assert_eq!(routes.read_hops(topo.host(), farthest), 5);
//!
//! // ...while writes ride the full-length chain.
//! assert_eq!(routes.write_hops(topo.host(), farthest), 16);
//!
//! // Heterogeneous mixes place NVM cubes first or last (§3.3):
//! let half = Placement::mixed_by_capacity(0.5, NvmPlacement::Last).unwrap();
//! assert_eq!(half.cube_count(), 10); // 8 DRAM + 2 NVM (4x capacity)
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![warn(missing_debug_implementations)]

mod builders;
mod error;
mod graph;
mod metrics;
mod placement;
mod routing;

pub use error::TopologyError;
pub use graph::{LinkClass, LinkId, LinkInfo, NodeId, NodeInfo, NodeKind, Topology, TopologyKind};
pub use metrics::{render_ascii, TopologyMetrics};
pub use placement::{CubeTech, NvmPlacement, Placement};
pub use routing::{PathClass, RoutingTable, NO_PORT};
