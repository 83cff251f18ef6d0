//! # mn-noc — the memory-network interconnect model
//!
//! A packet-level, event-driven model of the point-to-point network that
//! binds memory cubes together. This is the substrate the paper's analysis
//! (§3) identifies as the dominant source of end-to-end memory latency, and
//! the layer where two of its three proposals live:
//!
//! - **Virtual channels with response priority** — requests and responses
//!   travel in separate virtual networks; responses have strict priority at
//!   link egress "to prevent deadlocks from older responses being blocked by
//!   newer requests" (§3.2). This is also what makes the *to-memory* latency
//!   exceed the *from-memory* latency under load.
//! - **Arbitration schemes** (§4.1) — the baseline locally-fair
//!   [`ArbiterKind::RoundRobin`] (which causes the parking-lot problem: a
//!   chain cube serves its four local vault ports 80% of the time),
//!   [`ArbiterKind::Distance`] (weighted by hops traveled, a proxy for age),
//!   and [`ArbiterKind::AdaptiveDistance`] (§5.3: additionally aware of the
//!   source cube's memory technology and of request type, so NVM responses
//!   are not starved and writes can be deferred).
//! - **Read/write differentiated routing** — each packet carries a
//!   [`mn_topo::PathClass`]; on a skip-list topology writes ride the chain
//!   while reads use the skip links (§4.2). The [`WriteBurstDetector`]
//!   implements the §5.3 hysteresis that lets writes use the short paths
//!   during write bursts.
//!
//! The model is packet-granular (not flit-granular): a packet occupies a
//! link for its serialization time (16 lanes x 15 Gbps => 30 GB/s), pays a
//! 2 ns SerDes latency per traversal, and buffers are credit-backpressured
//! packet slots. All effects the paper measures — queuing unfairness, hop
//! count scaling, 5x data-vs-control packet sizes — exist at this
//! granularity.
//!
//! ## Example
//!
//! ```
//! use mn_noc::{Network, NocConfig, Packet, PacketKind};
//! use mn_topo::{Topology, TopologyKind, Placement, CubeTech, PathClass};
//! use mn_sim::SimTime;
//!
//! let topo = Topology::build(
//!     TopologyKind::Chain,
//!     &Placement::homogeneous(4, CubeTech::Dram),
//! ).unwrap();
//! let mut net = Network::new(&topo, NocConfig::default());
//!
//! // Host sends a read request to the last cube in the chain.
//! let dst = topo.cube_at_position(4).unwrap();
//! let pkt = Packet::request(0, PacketKind::ReadRequest, topo.host(), dst);
//! net.inject(topo.host(), 0, pkt, SimTime::ZERO).unwrap();
//!
//! // Drive the network until the packet arrives. The `ready` buffer is
//! // caller-owned so the hot loop never reallocates it.
//! let mut deliveries = Vec::new();
//! let mut ready = Vec::new();
//! while let Some(t) = net.next_event_time() {
//!     net.advance(t, &mut ready);
//!     for &node in &ready {
//!         while let Some(d) = net.take_delivery(node, t) {
//!             deliveries.push(d);
//!         }
//!     }
//! }
//! assert_eq!(deliveries.len(), 1);
//! assert_eq!(deliveries[0].node, dst);
//! assert_eq!(deliveries[0].packet.hops(), 4);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![warn(missing_debug_implementations)]

mod arbiter;
mod config;
mod fault;
mod network;
mod packet;
mod policy;
mod stats;
mod telem;

pub use arbiter::{
    Arbiter, ArbiterImpl, ArbiterKind, Candidate, DistanceArbiter, OldestFirstArbiter,
    RoundRobinArbiter,
};
pub use config::{LinkDuplex, LinkTiming, NocConfig};
pub use fault::{FaultConfig, FaultModel};
pub use mn_telemetry::TraceConfig;
pub use network::{
    Delivery, IntoSharedTopology, Network, NetworkError, NetworkFull, MAX_NODE_PORTS,
};
pub use packet::{Packet, PacketId, PacketKind, VirtualChannel};
pub use policy::WriteBurstDetector;
pub use stats::NetStats;
pub use telem::NetTelemetry;
