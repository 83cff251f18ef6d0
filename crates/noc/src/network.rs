//! The network state machine: input-buffered routers joined by
//! bandwidth-modeled links, driven by an internal event queue.
//!
//! ## Model
//!
//! Every node (host, cube, interface chip) is a router with:
//!
//! - one **input buffer per (port, virtual channel)** — ports are the
//!   node's links plus its *local* injection ports (1 for the host, 4 for a
//!   cube: its four quadrant controllers, reproducing the §3.2 arbitration
//!   imbalance where local vaults outnumber the through port);
//! - one **ejection buffer per virtual channel**, from which the owner
//!   (host core or cube logic) pulls packets — a full ejection buffer backs
//!   pressure up into the network;
//! - one **arbiter per output** (each link, plus ejection), implementing
//!   the configured [`crate::ArbiterKind`].
//!
//! Links are full-duplex; each direction carries one packet at a time and
//! is occupied for the packet's serialization time, with a fixed SerDes
//! latency added on top before the packet lands in the neighbor's input
//! buffer. Buffer space is reserved at send time (credit-based flow
//! control), so packets are never dropped.
//!
//! Responses have strict priority over requests at every output, but a
//! blocked response never blocks a request: candidates that lack downstream
//! space simply do not contend.

use std::collections::VecDeque;
use std::error::Error;
use std::fmt;
use std::ops::Range;
use std::sync::Arc;

use mn_sim::shard::AbortFlag;
use mn_sim::{ArenaRef, EventQueue, GenArena, KernelCounters, SimTime};
use mn_topo::{NodeId, NodeKind, PathClass, RoutingTable, Topology};

use crate::arbiter::{ArbiterImpl, Candidate};
use crate::config::{LinkDuplex, NocConfig};
use crate::fault::{FaultModel, FaultStats};
use crate::packet::{Packet, PacketId, VirtualChannel};
use crate::pool::{self, NetworkStorage, StorageShape};
use crate::shard::{CutMsg, CutReceiver, CutSender, PopLog};
use crate::stats::NetStats;
use crate::telem::{FlightEntry, NetTelem, NetTelemetry};

const VC: usize = VirtualChannel::COUNT;

/// The most ports (links plus local injection ports) one node may have:
/// each (output, VC) head mask is one `u64` with a bit per input port.
pub const MAX_NODE_PORTS: usize = u64::BITS as usize;

/// Conversion into a shared topology handle for [`Network`] construction.
///
/// Campaigns fan thousands of short per-port jobs over the same topology;
/// passing an `Arc<Topology>` (or a reference to one) shares it, while a
/// plain `&Topology` clones once for callers that don't care.
pub trait IntoSharedTopology {
    /// Produces the shared handle.
    fn into_shared(self) -> Arc<Topology>;
}

impl IntoSharedTopology for Arc<Topology> {
    fn into_shared(self) -> Arc<Topology> {
        self
    }
}

impl IntoSharedTopology for &Arc<Topology> {
    fn into_shared(self) -> Arc<Topology> {
        Arc::clone(self)
    }
}

impl IntoSharedTopology for Topology {
    fn into_shared(self) -> Arc<Topology> {
        Arc::new(self)
    }
}

impl IntoSharedTopology for &Topology {
    fn into_shared(self) -> Arc<Topology> {
        Arc::new(self.clone())
    }
}

/// Error returned when a local injection buffer has no space; retry after
/// the network drains.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetworkFull;

impl fmt::Display for NetworkFull {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "injection buffer is full")
    }
}

impl Error for NetworkFull {}

/// Error building a [`Network`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetworkError {
    /// Hard link failures severed the network: the listed cubes cannot
    /// exchange traffic with the host on every path class even after
    /// routing around the dead links. Reported at construction — a
    /// partitioned network would otherwise strand packets forever and
    /// present as a hang.
    Partitioned {
        /// Cubes unreachable from the host (ascending id order).
        unreachable: Vec<NodeId>,
    },
    /// A node has more ports than the router's per-output head masks can
    /// index (see [`MAX_NODE_PORTS`]).
    TooManyPorts {
        /// The first node over the bound (ascending id order).
        node: NodeId,
        /// Its link ports plus local injection ports.
        ports: usize,
    },
}

impl fmt::Display for NetworkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetworkError::Partitioned { unreachable } => {
                write!(
                    f,
                    "dead links partition the network: {} cube(s) unreachable (",
                    unreachable.len()
                )?;
                for (i, node) in unreachable.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{node}")?;
                }
                write!(f, ")")
            }
            NetworkError::TooManyPorts { node, ports } => write!(
                f,
                "node {node} has {ports} ports; a router supports at most {MAX_NODE_PORTS}"
            ),
        }
    }
}

impl Error for NetworkError {}

/// Fails with [`NetworkError::TooManyPorts`] when `node`'s `ports` exceed
/// the head masks' [`MAX_NODE_PORTS`] bits.
fn check_port_bound(node: NodeId, ports: usize) -> Result<(), NetworkError> {
    if ports > MAX_NODE_PORTS {
        return Err(NetworkError::TooManyPorts { node, ports });
    }
    Ok(())
}

/// A packet pulled from a node's ejection buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Delivery {
    /// The node that received the packet.
    pub node: NodeId,
    /// The packet itself.
    pub packet: Packet,
    /// When the packet entered the ejection buffer.
    pub arrived_at: SimTime,
}

#[derive(Debug, Default)]
pub(crate) struct Buf {
    /// Handles into the network's packet arena, with arrival timestamps.
    queue: VecDeque<(ArenaRef, SimTime)>,
    reserved: usize,
    capacity: usize,
}

impl Buf {
    fn with_capacity(capacity: usize) -> Buf {
        Buf {
            // Buffers are small and bounded; allocating them up front keeps
            // the simulation loop free of growth reallocations.
            queue: VecDeque::with_capacity(capacity),
            reserved: 0,
            capacity,
        }
    }

    /// Empties the buffer for pooled reuse, keeping its backing storage.
    pub(crate) fn reset(&mut self) {
        self.queue.clear();
        self.reserved = 0;
    }

    fn has_space(&self) -> bool {
        self.queue.len() + self.reserved < self.capacity
    }

    fn head(&self) -> Option<ArenaRef> {
        self.queue.front().map(|&(h, _)| h)
    }
}

/// Per-node geometry into the struct-of-arrays router state: all input
/// buffers live in one flat `Vec<Buf>` (indexed
/// `buf_base + port * VC + vc`), all arbiters in one flat
/// `Vec<ArbiterImpl>` (indexed `arb_base + output`, ejection last), so a
/// node's hot state is contiguous instead of scattered behind per-node
/// `Vec`s and boxed trait objects. Ports are externals first (in adjacency
/// order) then locals.
#[derive(Debug, Clone, Copy)]
struct NodeMeta {
    ext_ports: u32,
    local_ports: u32,
    buf_base: u32,
    arb_base: u32,
}

impl NodeMeta {
    #[cfg(debug_assertions)]
    fn total_ports(self) -> usize {
        (self.ext_ports + self.local_ports) as usize
    }

    #[inline]
    fn buf_idx(self, port: usize, vc: usize) -> usize {
        self.buf_base as usize + port * VC + vc
    }

    /// Arbiter index for external output `out` (`out == ext_ports` is the
    /// ejection output).
    #[inline]
    fn arb_idx(self, out: usize) -> usize {
        self.arb_base as usize + out
    }

    /// Head-mask index for (output `out`, VC `vc`); masks share the
    /// arbiters' per-node layout, VC-minor.
    #[inline]
    fn mask_idx(self, out: usize, vc: usize) -> usize {
        self.arb_idx(out) * VC + vc
    }

    /// The ejection output's index (after every link output).
    #[inline]
    fn eject_out(self) -> usize {
        self.ext_ports as usize
    }
}

#[derive(Debug, Clone, Copy)]
pub(crate) enum NetEvent {
    /// A packet finishes traversing a link and lands in `node`'s input
    /// buffer at `port`.
    Arrive {
        node: NodeId,
        port: usize,
        packet: ArenaRef,
    },
    /// Run arbitration at `node`.
    TryArb { node: NodeId },
}

/// One outgoing boundary link of a shard, for [`Network::attach_shard`]:
/// the channel packets leave through and the receiver's pop log that
/// feeds this side's occupancy mirror.
#[derive(Debug)]
pub struct OutBinding {
    /// Sending node (owned by this shard).
    pub node: NodeId,
    /// Output-port index of the cut link at `node`.
    pub port: usize,
    /// Channel to the owning shard of the other endpoint.
    pub tx: CutSender,
    /// Pop log published by the receiving shard for the remote buffer.
    pub pops: Arc<PopLog>,
    /// Capacity of the remote input buffer, packets per VC.
    pub capacity: usize,
}

/// One incoming boundary link of a shard, for [`Network::attach_shard`].
#[derive(Debug)]
pub struct InBinding {
    /// Receiving node (owned by this shard).
    pub node: NodeId,
    /// Input-port index of the cut link at `node`.
    pub port: usize,
    /// Channel from the owning shard of the other endpoint.
    pub rx: CutReceiver,
    /// Pop log this shard publishes its consumption through.
    pub pops: Arc<PopLog>,
}

/// Everything a [`Network`] needs to act as one shard of a partitioned
/// run: the node range it owns, its boundary channels, and the shared
/// abort flag. Built by the sharded driver from a
/// [`crate::ShardPlan`].
#[derive(Debug)]
pub struct ShardBinding {
    /// Nodes (by index) this shard owns.
    pub range: Range<u32>,
    /// Outgoing cuts.
    pub outs: Vec<OutBinding>,
    /// Incoming cuts.
    pub ins: Vec<InBinding>,
    /// Run-wide abort flag, raised on any protocol anomaly.
    pub abort: AbortFlag,
}

/// An outgoing cut with the sender-side occupancy mirror: the remote
/// buffer holds `sent − pops` packets per VC, where `pops` comes from the
/// receiver's time-tagged log (so the mirror is evaluated *at this
/// shard's instant*, never at the receiver's possibly-ahead clock).
#[derive(Debug)]
struct OutCut {
    tx: CutSender,
    pops: Arc<PopLog>,
    /// Packets sent into the remote buffer so far, per VC.
    sent: [u64; VC],
    /// Pop count at the last log refresh, per VC. Stale values only
    /// *over*-estimate occupancy (pops monotonically increase), so the
    /// cached fast path can prove "has space" without touching the log.
    seen_pops: [u64; VC],
    /// Remote input-buffer capacity per VC.
    cap: usize,
}

/// Sharded-execution state attached to a [`Network`] that owns one shard
/// of a partitioned topology.
#[derive(Debug)]
struct ShardNetCtx {
    /// Node indices this shard owns; everything outside is remote.
    range: Range<u32>,
    /// `(node, out_port) → outs index`, sorted for binary search.
    out_lookup: Vec<((u32, u32), u32)>,
    outs: Vec<OutCut>,
    /// `(node, in_port) → ins index`, sorted for binary search.
    in_lookup: Vec<((u32, u32), u32)>,
    ins: Vec<(CutReceiver, Arc<PopLog>)>,
    abort: AbortFlag,
    /// Drain scratch for incoming cut messages.
    msgs: Vec<CutMsg>,
}

impl ShardNetCtx {
    fn out_index(&self, node: NodeId, port: usize) -> Option<usize> {
        let key = (node.index() as u32, port as u32);
        self.out_lookup
            .binary_search_by_key(&key, |&(k, _)| k)
            .ok()
            .map(|i| self.out_lookup[i].1 as usize)
    }

    fn in_index(&self, node: NodeId, port: usize) -> Option<usize> {
        let key = (node.index() as u32, port as u32);
        self.in_lookup
            .binary_search_by_key(&key, |&(k, _)| k)
            .ok()
            .map(|i| self.in_lookup[i].1 as usize)
    }
}

/// The memory-network interconnect behind one host port.
///
/// Drive it like the other components in this workspace: inject packets,
/// call [`Network::advance`] whenever simulated time reaches
/// [`Network::next_event_time`], and pull [`Delivery`]s from nodes it
/// reports ready.
///
/// See the crate-level docs for an end-to-end example.
#[derive(Debug)]
pub struct Network {
    topo: Arc<Topology>,
    routes: RoutingTable,
    config: NocConfig,
    /// Per-node geometry into the flat state vectors below.
    meta: Vec<NodeMeta>,
    /// All input buffers, struct-of-arrays: `meta[n].buf_idx(port, vc)`.
    bufs: Vec<Buf>,
    /// All ejection buffers: `node * VC + vc`.
    eject: Vec<Buf>,
    /// All arbiters: `meta[n].arb_idx(output)`, ejection last per node.
    arbiters: Vec<ArbiterImpl>,
    /// Every packet inside the network (buffered or in flight) lives here;
    /// buffers and events carry 8-byte [`ArenaRef`] handles. Slots recycle
    /// through a free list, so past the high-water mark the steady-state
    /// path allocates nothing per packet.
    packets: GenArena<Packet>,
    /// `link_free_at[link][dir]`; dir 0 is a→b.
    link_free_at: Vec<[SimTime; 2]>,
    /// `neighbor_ports[node][out_port]`: the input-port index our link
    /// occupies at the neighbor on the other end, precomputed so the send
    /// path never searches the adjacency lists.
    neighbor_ports: Vec<Vec<usize>>,
    events: EventQueue<NetEvent>,
    /// Lazy arbitration-coalescing state: `arb_clean[n]` is true when node
    /// `n` has arbitrated at `last_arb[n]` and no state change that could
    /// enable new movement *at that same instant* has happened since. A
    /// `TryArb` firing for a clean node at exactly `last_arb[n]` is a
    /// provable no-op and its arbitration is skipped. The
    /// events themselves are never dropped: which packet wins an output
    /// depends on how same-instant arbitrations interleave with arrivals,
    /// so removing or reordering pushes would perturb results — the skip
    /// happens at fire time, where no-op-ness is certain.
    arb_clean: Vec<bool>,
    /// Instant of each node's most recent arbitration (paired with
    /// `arb_clean`; meaningless while the flag is false).
    last_arb: Vec<SimTime>,
    /// Per-node membership flag for the in-progress `advance` ready list —
    /// structural dedup instead of a sort+dedup pass per call.
    ready_pending: Vec<bool>,
    /// Packets currently sitting in each node's *input* buffers (not
    /// ejection). A `TryArb` on a node with zero buffered packets has no
    /// head to move, so `arbitrate` returns after this one load instead
    /// of checking the node's head masks. Wake cascades re-arm nodes
    /// aggressively, making empty-node arbitrations the most common event
    /// in a steady-state run.
    buffered: Vec<u32>,
    /// Route-indexed head masks, `meta[n].mask_idx(output, vc)`: bit `p`
    /// is set exactly when input buffer (`p`, `vc`) holds a head packet
    /// that routes to `output` (ejection when it is addressed to `n`).
    /// Kept current wherever a buffer's head changes, so arbitration
    /// visits only outputs with a candidate and reads candidates off the
    /// set bits instead of scanning every port and looking up each head's
    /// route.
    head_mask: Vec<u64>,
    /// Reusable arbitration candidate buffer (cleared before each use).
    scratch: Vec<Candidate>,
    /// Reusable same-instant event batch for [`Network::advance`].
    batch: Vec<NetEvent>,
    /// Sharded-execution context; `None` on the serial path, where every
    /// shard-aware branch below folds to its original form.
    shard: Option<Box<ShardNetCtx>>,
    next_packet_id: u64,
    stats: NetStats,
    /// Fault injection state; `None` on the zero-fault path, which then
    /// executes exactly the pre-fault-model arithmetic (the bit-identical
    /// baseline contract).
    faults: Option<FaultModel>,
    /// Telemetry state. Every hook early-returns on the mode enum
    /// (`Off` by default), so the instrumented hot path costs one
    /// predictable branch; rings and series are pre-sized here at
    /// construction so even `Full` tracing allocates nothing per event.
    telem: NetTelem,
}

impl Network {
    /// Builds the network for `topo` with the given configuration.
    ///
    /// # Panics
    ///
    /// Panics if `config` fails validation (see [`NocConfig::validate`])
    /// or if fault injection partitioned the network — use
    /// [`Network::try_new`] to handle partitions structurally.
    pub fn new(topo: impl IntoSharedTopology, config: NocConfig) -> Network {
        Network::try_new(topo, config).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Builds the network, reporting a [`NetworkError::Partitioned`] when
    /// hard link faults leave some cube with no route to the host.
    ///
    /// Accepts an `Arc<Topology>` (shared — campaigns fanning out per-port
    /// jobs reuse one topology allocation) or a `&Topology` (cloned once).
    ///
    /// # Panics
    ///
    /// Panics if `config` fails validation (see [`NocConfig::validate`]).
    pub fn try_new(
        topo: impl IntoSharedTopology,
        config: NocConfig,
    ) -> Result<Network, NetworkError> {
        let topo = topo.into_shared();
        config.validate();
        let config_trace = config.trace;
        let faults = config
            .fault
            .enabled()
            .then(|| FaultModel::build(&topo, config.fault.clone()));
        let dead = faults.as_ref().map_or(&[][..], |fm| fm.dead_links());
        let routes = if dead.is_empty() {
            topo.routing()
        } else {
            let routes = RoutingTable::compute_avoiding(&topo, dead);
            // Every cube must exchange traffic with the host on both path
            // classes (after the write→read degradation inside
            // `compute_avoiding`); anything less would strand packets.
            let unreachable: Vec<NodeId> = topo
                .cubes()
                .map(|(cube, _)| cube)
                .filter(|&cube| {
                    PathClass::ALL.iter().any(|&class| {
                        !routes.reachable(class, topo.host(), cube)
                            || !routes.reachable(class, cube, topo.host())
                    })
                })
                .collect();
            if !unreachable.is_empty() {
                return Err(NetworkError::Partitioned { unreachable });
            }
            routes
        };
        let mut meta = Vec::with_capacity(topo.node_count());
        let mut arbiters = Vec::new();
        let mut link_ports = vec![Vec::new(); topo.node_count()];
        let mut buf_count = 0usize;
        for id in topo.node_ids() {
            let ext_ports = topo.degree(id);
            let local_ports = match topo.node(id).kind {
                NodeKind::Host => 1,
                // Four quadrant controllers inject responses (§3.2: "four
                // of the input queues come from the cube's local vaults").
                NodeKind::Cube(_) => 4,
                NodeKind::Interface => 0,
            };
            for (port, &(_, link)) in topo.neighbors(id).iter().enumerate() {
                link_ports[id.index()].push((link, port));
            }
            let total_ports = ext_ports + local_ports;
            check_port_bound(id, total_ports)?;
            let buf_base = u32::try_from(buf_count).expect("buffer count fits u32");
            buf_count += total_ports * VC;
            // One arbiter per external output port plus one for ejection.
            let arb_base = u32::try_from(arbiters.len()).expect("arbiter count fits u32");
            for _ in 0..=ext_ports {
                arbiters.push(config.arbiter.instantiate(total_ports));
            }
            meta.push(NodeMeta {
                ext_ports: ext_ports as u32,
                local_ports: local_ports as u32,
                buf_base,
                arb_base,
            });
        }
        // The struct-of-arrays storage — hundreds of pre-sized buffer
        // deques plus the packet arena — is the dominant construction
        // cost, so a previous same-shape network's donated storage is
        // reused when the thread-local pool has one. The arena is sized
        // so every live packet (some buffer slot, or in flight on a link
        // — a handful per direction at most) fits without slot-vector
        // growth in the steady state.
        let shape = StorageShape {
            buf_count,
            buffer_packets: config.buffer_packets,
            eject_count: topo.node_count() * VC,
            ejection_packets: config.ejection_packets,
            links: topo.link_count(),
            nodes: topo.node_count(),
            outputs: arbiters.len(),
        };
        let mut storage = pool::take(shape).unwrap_or_else(|| NetworkStorage {
            shape,
            bufs: (0..shape.buf_count)
                .map(|_| Buf::with_capacity(config.buffer_packets))
                .collect(),
            eject: (0..shape.eject_count)
                .map(|_| Buf::with_capacity(config.ejection_packets))
                .collect(),
            packets: GenArena::with_capacity(shape.arena_capacity()),
            link_free_at: vec![[SimTime::ZERO; 2]; shape.links],
            neighbor_ports: vec![Vec::new(); shape.nodes],
            arb_clean: vec![false; shape.nodes],
            last_arb: vec![SimTime::ZERO; shape.nodes],
            ready_pending: vec![false; shape.nodes],
            buffered: vec![0; shape.nodes],
            head_mask: vec![0; shape.outputs * VC],
            scratch: Vec::with_capacity(16),
            batch: Vec::with_capacity(64),
        });
        // Adjacency wiring can differ between same-shape topologies, so
        // `neighbor_ports[node][out_port]` — the input-port index our link
        // occupies at the neighbor — is (re)computed every construction;
        // pooling only spares the vector allocations.
        for id in topo.node_ids() {
            let ports = &mut storage.neighbor_ports[id.index()];
            debug_assert!(ports.is_empty());
            for &(neighbor, link) in topo.neighbors(id) {
                let port = link_ports[neighbor.index()]
                    .iter()
                    .find(|(l, _)| *l == link)
                    .map(|&(_, p)| p)
                    .expect("link attaches to both endpoints");
                ports.push(port);
            }
        }
        let NetworkStorage {
            shape: _,
            bufs,
            eject,
            packets,
            link_free_at,
            neighbor_ports,
            arb_clean,
            last_arb,
            ready_pending,
            buffered,
            head_mask,
            scratch,
            batch,
        } = storage;
        let stats = NetStats::new(topo.link_count());
        // Pre-size the heap for the common working set — order one
        // arbitration event per node plus one in-flight packet per link
        // direction, doubled for wake cascades. The heap still grows past
        // this under heavy transients; the hint only avoids the early
        // doubling reallocations in every simulation's warm-up.
        let event_capacity = 2 * (topo.node_count() + 2 * topo.link_count());
        // Tune the ladder bucket width to the topology's event horizon:
        // the minimum single-link traversal (fixed latency + control-
        // packet serialization) is the shortest interval the simulation
        // routinely schedules across, so one 256-bucket window then spans
        // a few hundred of the *fastest* hops regardless of the SerDes
        // timing swept. Clamped to [128, 65536] ps so degenerate timings
        // neither collapse the window nor blow up bucket granularity;
        // linkless topologies keep the kernel default. Pop order — and
        // hence every result byte — is width-independent (see
        // `mn_sim::ladder`); only the spill/rewindow counters move.
        let bucket_ps = topo
            .link_ids()
            .map(|l| {
                let timing = config.link_timing(topo.link(l).class);
                (timing.fixed_latency + timing.serialize(config.control_bytes)).as_ps()
            })
            .min()
            .map_or(mn_sim::ladder::BUCKET_PS, |ps| ps.clamp(128, 65_536));
        Ok(Network {
            routes,
            config,
            meta,
            bufs,
            eject,
            arbiters,
            packets,
            link_free_at,
            neighbor_ports,
            events: EventQueue::with_capacity_and_bucket(event_capacity, bucket_ps),
            arb_clean,
            last_arb,
            ready_pending,
            buffered,
            head_mask,
            scratch,
            batch,
            shard: None,
            next_packet_id: 0,
            stats,
            faults,
            telem: NetTelem::new(config_trace, &topo),
            topo,
        })
    }

    /// Donates this network's struct-of-arrays storage (input/ejection
    /// buffers, packet arena, per-node vectors) to the thread-local
    /// construction pool, where the next same-shape [`Network::try_new`]
    /// reuses it instead of allocating. Call once a run is finished with
    /// the network; reuse is invisible to results (see [`crate::pool`]).
    pub fn recycle(self) {
        let shape = StorageShape {
            buf_count: self.bufs.len(),
            buffer_packets: self.config.buffer_packets,
            eject_count: self.eject.len(),
            ejection_packets: self.config.ejection_packets,
            links: self.link_free_at.len(),
            nodes: self.buffered.len(),
            outputs: self.arbiters.len(),
        };
        pool::put(NetworkStorage {
            shape,
            bufs: self.bufs,
            eject: self.eject,
            packets: self.packets,
            link_free_at: self.link_free_at,
            neighbor_ports: self.neighbor_ports,
            arb_clean: self.arb_clean,
            last_arb: self.last_arb,
            ready_pending: self.ready_pending,
            buffered: self.buffered,
            head_mask: self.head_mask,
            scratch: self.scratch,
            batch: self.batch,
        });
    }

    /// Attaches sharded-execution state: after this call the network
    /// treats the nodes outside `binding.range` as remote — packets
    /// crossing a cut leave through the binding's channels, downstream
    /// space on cut links is judged from the receiver-published pop logs,
    /// and [`Network::drain_shard_inputs`] must be called to admit
    /// incoming boundary packets before processing each instant.
    ///
    /// # Panics
    ///
    /// Panics if a binding names a (node, port) that is not a boundary of
    /// `range`.
    pub fn attach_shard(&mut self, binding: ShardBinding) {
        let ShardBinding {
            range,
            outs,
            ins,
            abort,
        } = binding;
        let mut out_lookup = Vec::with_capacity(outs.len());
        let mut out_cuts = Vec::with_capacity(outs.len());
        for (i, out) in outs.into_iter().enumerate() {
            assert!(
                range.contains(&(out.node.index() as u32)),
                "out-cut sender {} is not owned by this shard",
                out.node
            );
            let (neighbor, _) = self.topo.neighbors(out.node)[out.port];
            assert!(
                !range.contains(&(neighbor.index() as u32)),
                "out-cut {}:{} does not cross the shard boundary",
                out.node,
                out.port
            );
            out_lookup.push(((out.node.index() as u32, out.port as u32), i as u32));
            out_cuts.push(OutCut {
                tx: out.tx,
                pops: out.pops,
                sent: [0; VC],
                seen_pops: [0; VC],
                cap: out.capacity,
            });
        }
        out_lookup.sort_unstable();
        let mut in_lookup = Vec::with_capacity(ins.len());
        let mut in_cuts = Vec::with_capacity(ins.len());
        for (i, cut) in ins.into_iter().enumerate() {
            assert!(
                range.contains(&(cut.node.index() as u32)),
                "in-cut receiver {} is not owned by this shard",
                cut.node
            );
            in_lookup.push(((cut.node.index() as u32, cut.port as u32), i as u32));
            in_cuts.push((cut.rx, cut.pops));
        }
        in_lookup.sort_unstable();
        self.shard = Some(Box::new(ShardNetCtx {
            range,
            out_lookup,
            outs: out_cuts,
            in_lookup,
            ins: in_cuts,
            abort,
            msgs: Vec::with_capacity(64),
        }));
    }

    /// Admits every queued boundary packet from the incoming cut
    /// channels: each is placed in the network's packet arena, its
    /// reservation taken on the destination input buffer, and its arrival
    /// event scheduled at the instant and causal stamp it carried — i.e.
    /// exactly where a single global event queue would have held it.
    /// Returns the number admitted. No-op on serial networks.
    ///
    /// The sharded driver calls this after reading its upstream clocks
    /// and before processing each instant; the conservative horizon
    /// guarantees every message that could fire below it is already in
    /// its channel by then.
    pub fn drain_shard_inputs(&mut self) -> usize {
        let Some(mut ctx) = self.shard.take() else {
            return 0;
        };
        for (rx, _) in ctx.ins.iter() {
            rx.drain_into(&mut ctx.msgs);
        }
        let n = ctx.msgs.len();
        for msg in ctx.msgs.drain(..) {
            debug_assert!(
                ctx.range.contains(&(msg.node.index() as u32)),
                "boundary packet addressed to a node this shard does not own"
            );
            let meta = self.meta[msg.node.index()];
            let vc = msg.packet.kind.virtual_channel().index();
            debug_assert!(
                msg.arrive > self.events.now() || self.events.now() == SimTime::ZERO,
                "boundary packet arrives at {} but shard already processed {}",
                msg.arrive,
                self.events.now()
            );
            let handle = self.packets.insert(msg.packet);
            // The sender reserved space in this buffer on its own side of
            // the cut (via the occupancy mirror); materialize that
            // reservation here so local space accounting matches serial.
            self.bufs[meta.buf_idx(msg.port, vc)].reserved += 1;
            self.events.push_at(
                msg.arrive,
                msg.sent_at,
                NetEvent::Arrive {
                    node: msg.node,
                    port: msg.port,
                    packet: handle,
                },
            );
        }
        self.shard = Some(ctx);
        n
    }

    /// True when sharded execution is attached and some shard has raised
    /// the run-wide abort flag.
    pub fn shard_aborted(&self) -> bool {
        self.shard.as_ref().is_some_and(|ctx| ctx.abort.is_raised())
    }

    /// The routing table the network forwards with.
    pub fn routes(&self) -> &RoutingTable {
        &self.routes
    }

    /// Statistics gathered so far.
    pub fn stats(&self) -> &NetStats {
        &self.stats
    }

    /// Fault activity so far; `None` when fault injection is disabled.
    pub fn fault_stats(&self) -> Option<&FaultStats> {
        self.faults.as_ref().map(|fm| fm.stats())
    }

    /// Number of local injection ports at `node` (1 for the host, 4 for
    /// cubes, 0 for interface chips).
    pub fn local_ports(&self, node: NodeId) -> usize {
        self.meta[node.index()].local_ports as usize
    }

    /// True if `packet` could be injected at `node`/`local_port` right now.
    pub fn can_inject(&self, node: NodeId, local_port: usize, packet: &Packet) -> bool {
        let meta = self.meta[node.index()];
        assert!(
            local_port < meta.local_ports as usize,
            "node {node} has {} local ports, got {local_port}",
            meta.local_ports
        );
        let port = meta.ext_ports as usize + local_port;
        self.bufs[meta.buf_idx(port, packet.kind.virtual_channel().index())].has_space()
    }

    /// Injects `packet` into `node`'s local port.
    ///
    /// # Errors
    ///
    /// Returns [`NetworkFull`] when the injection buffer has no space.
    ///
    /// # Panics
    ///
    /// Panics if `local_port` is out of range or the packet is addressed to
    /// its own injection node.
    pub fn inject(
        &mut self,
        node: NodeId,
        local_port: usize,
        mut packet: Packet,
        now: SimTime,
    ) -> Result<PacketId, NetworkFull> {
        assert!(packet.dst != node, "packet addressed to its own node");
        if !self.can_inject(node, local_port, &packet) {
            return Err(NetworkFull);
        }
        let id = PacketId(self.next_packet_id);
        self.next_packet_id += 1;
        packet.assign_id(id, now);
        // Stamp subsequent pushes with the injection instant. The clock
        // is monotone across a run (drivers inject at their current
        // time), so the refined (time, push, seq) pop order stays
        // identical to the classic (time, seq) order — see
        // `mn_sim::ladder` — while giving boundary messages from other
        // shards a causal stamp to sort against.
        self.events.set_clock(now);
        let meta = self.meta[node.index()];
        let port = meta.ext_ports as usize + local_port;
        let vc = packet.kind.virtual_channel().index();
        let handle = self.packets.insert(packet);
        let buf = &mut self.bufs[meta.buf_idx(port, vc)];
        buf.queue.push_back((handle, now));
        let depth = buf.queue.len();
        if depth == 1 {
            self.mark_head(node, meta, port, vc);
        }
        self.buffered[node.index()] += 1;
        self.stats.injected.incr();
        self.telem.on_inject(now, node, id, depth);
        self.request_arb(node, now);
        Ok(id)
    }

    /// The next instant at which [`Network::advance`] can make progress.
    pub fn next_event_time(&self) -> Option<SimTime> {
        self.events.peek_time()
    }

    /// Schedules an arbitration for `node` at `time` and marks the node
    /// dirty, so the pending-event skip in [`Network::advance`] cannot
    /// treat it as a no-op. Every push site goes through here: the pushed
    /// stream (and hence the FIFO sequence numbering that orders
    /// same-instant events) is exactly the pre-optimization one, which is
    /// what keeps results bit-identical.
    fn request_arb(&mut self, node: NodeId, time: SimTime) {
        self.arb_clean[node.index()] = false;
        self.events.push(time, NetEvent::TryArb { node });
    }

    /// Processes all internal events up to and including `now`, appending
    /// the nodes whose ejection buffers gained packets to `ready` (cleared
    /// first, each node at most once, in ascending order); pull them with
    /// [`Network::take_delivery`].
    ///
    /// The caller owns — and should reuse — the `ready` buffer: the hot
    /// loop of a port simulation calls this every iteration, and
    /// re-allocating the list per call was a measurable tax.
    pub fn advance(&mut self, now: SimTime, ready: &mut Vec<NodeId>) {
        ready.clear();
        let mut batch = std::mem::take(&mut self.batch);
        while self.events.peek_time().is_some_and(|t| t <= now) {
            // Take the entire same-instant run in one call: the ladder's
            // per-pop bucket bookkeeping is amortized over the run, and
            // the flattened sequence is identical to popping one at a
            // time. Events pushed at `t` *while processing the batch*
            // carry later sequence numbers than every batch member, so
            // they fire in a follow-up batch at the same `t`, exactly
            // where repeated `pop` would have delivered them.
            let (t, _) = self
                .events
                .pop_batch_into(&mut batch)
                .expect("peeked non-empty");
            // Pushes from the handlers below are stamped with the instant
            // being processed (see the ordering note in `inject`).
            self.events.set_clock(t);
            for event in batch.drain(..) {
                if self.telem.tracing() {
                    self.telem.on_kernel_event(match event {
                        NetEvent::Arrive { node, port, packet } => FlightEntry::Arrive {
                            at: t,
                            node,
                            port,
                            packet: self
                                .packets
                                .get(packet)
                                .map_or(PacketId(u64::MAX), |p| p.id),
                        },
                        NetEvent::TryArb { node } => FlightEntry::TryArb { at: t, node },
                    });
                }
                match event {
                    NetEvent::Arrive { node, port, packet } => {
                        self.handle_arrival(node, port, packet, t);
                    }
                    NetEvent::TryArb { node } => {
                        // Skip arbitration when it is provably a no-op: the
                        // node already arbitrated at this exact instant and
                        // nothing has changed since. At a *later* instant a
                        // busy link may have freed, so the flag only holds
                        // within one timestamp. The flag is set before
                        // arbitrating: packet movement inside `arbitrate`
                        // re-dirties the node (via `wake_upstream`), exactly
                        // like the self-wake events the original kernel
                        // relied on.
                        if !(self.arb_clean[node.index()] && self.last_arb[node.index()] == t) {
                            self.arb_clean[node.index()] = true;
                            self.last_arb[node.index()] = t;
                            self.arbitrate(node, t, ready);
                        }
                    }
                }
            }
        }
        self.batch = batch;
        // Membership is already unique (structural dedup via
        // `ready_pending`); the sort stays because callers drain nodes in
        // ascending order and the drain order is part of the deterministic,
        // bit-reproducible behavior the result cache depends on.
        ready.sort_unstable();
        for &node in ready.iter() {
            self.ready_pending[node.index()] = false;
        }
    }

    /// Pops the oldest deliverable packet at `node` (responses before
    /// requests), freeing ejection space — which may unblock the network.
    pub fn take_delivery(&mut self, node: NodeId, now: SimTime) -> Option<Delivery> {
        for vc in VirtualChannel::PRIORITY_ORDER {
            if let Some((handle, arrived_at)) =
                self.eject[node.index() * VC + vc.index()].queue.pop_front()
            {
                let packet = self.packets.remove(handle);
                self.stats.delivered.incr();
                self.events.set_clock(now);
                self.request_arb(node, now);
                return Some(Delivery {
                    node,
                    packet,
                    arrived_at,
                });
            }
        }
        None
    }

    /// The packet [`Network::take_delivery`] would return next at `node`,
    /// without removing it. Lets cube logic check controller space before
    /// committing — the backpressure path.
    pub fn peek_delivery(&self, node: NodeId) -> Option<&Packet> {
        VirtualChannel::PRIORITY_ORDER.iter().find_map(|vc| {
            self.eject[node.index() * VC + vc.index()]
                .head()
                .map(|h| self.packets.get(h).expect("ejected packet is live"))
        })
    }

    /// True if `node` has a deliverable packet waiting.
    pub fn has_delivery(&self, node: NodeId) -> bool {
        self.eject[node.index() * VC..node.index() * VC + VC]
            .iter()
            .any(|b| !b.queue.is_empty())
    }

    /// Total packets currently inside the network (buffered or in flight).
    pub fn in_flight(&self) -> u64 {
        self.stats.injected.value() - self.stats.delivered.value()
    }

    fn handle_arrival(&mut self, node: NodeId, port: usize, handle: ArenaRef, now: SimTime) {
        let packet = self
            .packets
            .get_mut(handle)
            .expect("in-flight packet is live");
        packet.record_hop();
        let kind = packet.kind;
        let id = packet.id;
        self.stats.hops.incr();
        self.stats.bit_hops += u64::from(self.config.packet_bytes(kind)) * 8;
        let vc = kind.virtual_channel().index();
        let meta = self.meta[node.index()];
        let buf = &mut self.bufs[meta.buf_idx(port, vc)];
        debug_assert!(buf.reserved > 0, "arrival without reservation");
        buf.reserved -= 1;
        buf.queue.push_back((handle, now));
        let depth = buf.queue.len();
        if depth == 1 {
            self.mark_head(node, meta, port, vc);
        }
        self.buffered[node.index()] += 1;
        self.telem.on_enqueue(now, node, id, depth);
        self.request_arb(node, now);
    }

    /// The output the head packet `handle` at `node` routes to: ejection
    /// when it is addressed to `node`, else its next-hop link port. `None`
    /// for a head no output can select (the routing table's `NO_PORT`
    /// sentinel for an unreachable destination).
    #[inline]
    fn head_output(&self, node: NodeId, meta: NodeMeta, handle: ArenaRef) -> Option<usize> {
        let head = self.packets.get(handle).expect("buffered packet is live");
        if head.dst == node {
            return Some(meta.eject_out());
        }
        let port = usize::from(self.routes.next_port(head.class, node, head.dst));
        (port < meta.ext_ports as usize).then_some(port)
    }

    /// Sets `port`'s bit in the head mask of the output that the packet
    /// now at the front of input buffer (`port`, `vc`) routes to. Called
    /// when the buffer gains a head: a push into an empty buffer, or a
    /// pop that exposes the next packet.
    #[inline]
    fn mark_head(&mut self, node: NodeId, meta: NodeMeta, port: usize, vc: usize) {
        if let Some(handle) = self.bufs[meta.buf_idx(port, vc)].head() {
            if let Some(out) = self.head_output(node, meta, handle) {
                self.head_mask[meta.mask_idx(out, vc)] |= 1 << port;
            }
        }
    }

    /// Pops the head of input buffer (`port`, `vc`), which routes to
    /// output `out`, and moves `port`'s mask bit to the next head's output.
    fn pop_head(&mut self, node: NodeId, out: usize, port: usize, vc: usize) -> ArenaRef {
        let meta = self.meta[node.index()];
        let (handle, _) = self.bufs[meta.buf_idx(port, vc)]
            .queue
            .pop_front()
            .expect("selected head exists");
        self.head_mask[meta.mask_idx(out, vc)] &= !(1 << port);
        self.mark_head(node, meta, port, vc);
        self.buffered[node.index()] -= 1;
        handle
    }

    /// True when some input head routes to output `out` on any VC.
    #[inline]
    fn has_heads(&self, meta: NodeMeta, out: usize) -> bool {
        let base = meta.mask_idx(out, 0);
        self.head_mask[base..base + VC].iter().any(|&m| m != 0)
    }

    /// Runs arbitration for every output of `node` that has a candidate.
    /// An output whose head masks are all zero has nothing to move: its
    /// arbitration would end with no candidate, no packet moved and no
    /// counter touched, so skipping it changes nothing.
    fn arbitrate(&mut self, node: NodeId, now: SimTime, ready: &mut Vec<NodeId>) {
        let meta = self.meta[node.index()];
        if self.buffered[node.index()] > 0 {
            if self.has_heads(meta, meta.eject_out()) {
                self.arbitrate_ejection(node, now, ready);
            }
            // Masks are read as each output comes up, not up front: a
            // packet moved by an earlier output can expose a head for a
            // later one, and that output must still see it.
            for out_port in 0..meta.ext_ports as usize {
                if self.has_heads(meta, out_port) {
                    self.arbitrate_link_output(node, out_port, now);
                }
            }
        }
        #[cfg(debug_assertions)]
        self.assert_head_masks(node);
    }

    /// Recomputes `node`'s head masks from its input buffers and checks
    /// them against the maintained ones. Every mask update is caused by
    /// a buffer change at `node`, and each such change is followed by an
    /// arbitration at `node`, so checking after each arbitration covers
    /// every update site.
    #[cfg(debug_assertions)]
    fn assert_head_masks(&self, node: NodeId) {
        let meta = self.meta[node.index()];
        for out in 0..=meta.eject_out() {
            for vc in 0..VC {
                let want = (0..meta.total_ports())
                    .filter(|&port| {
                        self.bufs[meta.buf_idx(port, vc)]
                            .head()
                            .and_then(|h| self.head_output(node, meta, h))
                            == Some(out)
                    })
                    .fold(0u64, |mask, port| mask | 1 << port);
                assert_eq!(
                    self.head_mask[meta.mask_idx(out, vc)],
                    want,
                    "stale head mask at node {node}, output {out}, vc {vc}"
                );
            }
        }
    }

    /// Moves packets destined for `node` itself from input buffers into the
    /// ejection buffers (intra-router, no link time).
    fn arbitrate_ejection(&mut self, node: NodeId, now: SimTime, ready: &mut Vec<NodeId>) {
        let n = node.index();
        let meta = self.meta[n];
        let eject = meta.eject_out();
        let eject_arb = meta.arb_idx(eject);
        let mut candidates = std::mem::take(&mut self.scratch);
        loop {
            let mut chosen: Option<(usize, usize)> = None; // (port, vc)
            for vc in VirtualChannel::PRIORITY_ORDER {
                let mut mask = self.head_mask[meta.mask_idx(eject, vc.index())];
                if mask == 0 || !self.eject[n * VC + vc.index()].has_space() {
                    continue;
                }
                // Set bits in ascending port order: the candidate order
                // a scan over every port would produce.
                candidates.clear();
                while mask != 0 {
                    let port = mask.trailing_zeros() as usize;
                    mask &= mask - 1;
                    let handle = self.bufs[meta.buf_idx(port, vc.index())]
                        .head()
                        .expect("masked buffer has a head");
                    let head = self.packets.get(handle).expect("buffered packet is live");
                    candidates.push(Candidate {
                        input_port: port,
                        weight: self.arbiters[eject_arb].weigh(head),
                    });
                }
                self.stats.arbitration_rounds.incr();
                let i = self.arbiters[eject_arb].pick(&candidates);
                chosen = Some((candidates[i].input_port, vc.index()));
                break;
            }
            let Some((port, vc)) = chosen else { break };
            let handle = self.pop_head(node, eject, port, vc);
            if self.telem.tracing() {
                let id = self.packets.get(handle).expect("ejected packet is live").id;
                self.telem.on_eject(now, node, id);
            }
            self.eject[n * VC + vc].queue.push_back((handle, now));
            if !self.ready_pending[n] {
                self.ready_pending[n] = true;
                ready.push(node);
            }
            self.wake_upstream(node, port, vc, now);
        }
        candidates.clear();
        self.scratch = candidates;
    }

    /// Tries to send one packet out of `out_port`; reschedules itself when
    /// the link frees.
    fn arbitrate_link_output(&mut self, node: NodeId, out_port: usize, now: SimTime) {
        let (neighbor, link) = self.topo.neighbors(node)[out_port];
        // Dead links never carry traffic. Routing already avoids them, so
        // no head's mask bit can select this output; the guard keeps that
        // invariant explicit.
        if self.faults.as_ref().is_some_and(|fm| fm.is_dead(link)) {
            return;
        }
        let link_info = self.topo.link(link);
        let dir = usize::from(link_info.a != node);
        let busy = match self.config.duplex {
            LinkDuplex::Half => {
                // One shared channel: either direction occupies the link.
                self.link_free_at[link.index()][0].max(self.link_free_at[link.index()][1])
            }
            LinkDuplex::Full => self.link_free_at[link.index()][dir],
        };
        if busy > now {
            // Busy; a TryArb is already scheduled for when it frees.
            return;
        }
        // Which port does this link occupy at the neighbor?
        let neighbor_port = self.neighbor_ports[node.index()][out_port];
        let meta = self.meta[node.index()];
        let neighbor_meta = self.meta[neighbor.index()];
        let out_arb = meta.arb_idx(out_port);
        // Sharded runs send across a cut when this output's neighbor is
        // remote; downstream space is then judged from the occupancy
        // mirror instead of the (unowned) neighbor buffer.
        let cut = self
            .shard
            .as_ref()
            .and_then(|ctx| ctx.out_index(node, out_port));

        let mut candidates = std::mem::take(&mut self.scratch);
        let mut selection: Option<(usize, usize)> = None; // (input port, vc)
        for vc in VirtualChannel::PRIORITY_ORDER {
            // The mask holds exactly the heads routed to this output, in
            // ascending port order; a head that arrived on this very link
            // never turns back through it.
            let mut mask = self.head_mask[meta.mask_idx(out_port, vc.index())] & !(1 << out_port);
            // Candidates need downstream buffer space on their VC. For a
            // local neighbor that is one flag read; for a cut the check
            // can raise the run-wide abort, so it is deferred until a
            // candidate actually wants the space (`weigh` is pure, so the
            // extra work is invisible).
            if mask == 0
                || cut.is_none()
                    && !self.bufs[neighbor_meta.buf_idx(neighbor_port, vc.index())].has_space()
            {
                continue;
            }
            candidates.clear();
            while mask != 0 {
                let port = mask.trailing_zeros() as usize;
                mask &= mask - 1;
                let handle = self.bufs[meta.buf_idx(port, vc.index())]
                    .head()
                    .expect("masked buffer has a head");
                let head = self.packets.get(handle).expect("buffered packet is live");
                candidates.push(Candidate {
                    input_port: port,
                    weight: self.arbiters[out_arb].weigh(head),
                });
            }
            if let Some(c) = cut {
                if !self.cut_has_space(c, vc.index(), now) {
                    // No space in the mirror. Serial would retry this
                    // candidate via a cross-boundary wake when the remote
                    // buffer frees — a wake this shard cannot receive — so
                    // `cut_has_space` has raised the abort flag and the
                    // run will be redone serially.
                    continue;
                }
            }
            self.stats.arbitration_rounds.incr();
            let i = self.arbiters[out_arb].pick(&candidates);
            selection = Some((candidates[i].input_port, vc.index()));
            break;
        }
        candidates.clear();
        self.scratch = candidates;
        let Some((in_port, vc)) = selection else {
            return;
        };

        let handle = self.pop_head(node, out_port, in_port, vc);
        let departed_depth = self.bufs[meta.buf_idx(in_port, vc)].queue.len() + 1;
        match cut {
            // The receiving shard materializes the reservation when it
            // drains the boundary channel; the occupancy mirror carries
            // it on this side until then.
            Some(c) => {
                let ctx = self.shard.as_mut().expect("cut implies shard ctx");
                ctx.outs[c].sent[vc] += 1;
            }
            None => self.bufs[neighbor_meta.buf_idx(neighbor_port, vc)].reserved += 1,
        }

        let moved = self
            .packets
            .get_mut(handle)
            .expect("selected packet is live");
        // ECN: forwarding out of a congested input buffer stamps the
        // packet (depth measured including the departing packet, so a
        // threshold equal to the buffer capacity is still reachable).
        // Threshold 0 — the default — never marks, keeping the open-loop
        // byte-identity contract.
        if self.config.ecn_threshold > 0
            && departed_depth >= self.config.ecn_threshold as usize
            && !moved.marked
        {
            moved.marked = true;
            self.stats.marked.incr();
        }
        let kind = moved.kind;
        let id = moved.id;
        let timing = self.config.link_timing(link_info.class);
        let base_ser = timing.serialize(self.config.packet_bytes(kind));
        let mut ser = base_ser;
        if let Some(fm) = &mut self.faults {
            // Lane degradation and CRC retry/replay stretch the occupancy;
            // the packet itself always gets through (latency, not loss).
            ser = fm.traverse(link, ser);
        }
        self.telem.on_link_send(now, link, id, ser, ser != base_ser);
        let free_at = now + ser;
        self.link_free_at[link.index()][dir] = free_at;
        self.stats.link_busy[link.index() * 2 + dir] += ser;

        match cut {
            Some(c) => {
                // The packet leaves this shard: hand it (with its arrival
                // instant and causal stamp) to the owning shard, which
                // re-creates the Arrive event in its own queue. A full
                // channel is a protocol anomaly — abort, never block.
                let packet = self.packets.remove(handle);
                let ctx = self.shard.as_mut().expect("cut implies shard ctx");
                let msg = CutMsg {
                    arrive: free_at + timing.fixed_latency,
                    sent_at: now,
                    node: neighbor,
                    port: neighbor_port,
                    packet,
                };
                if ctx.outs[c].tx.send(msg).is_err() {
                    ctx.abort.raise();
                }
            }
            None => self.events.push(
                free_at + timing.fixed_latency,
                NetEvent::Arrive {
                    node: neighbor,
                    port: neighbor_port,
                    packet: handle,
                },
            ),
        }
        // Try to use the link again the moment it frees — from both ends
        // when the channel is shared. (Sharded runs are full-duplex only,
        // so the neighbor-side wake never needs to cross a cut.)
        self.request_arb(node, free_at);
        if self.config.duplex == LinkDuplex::Half {
            self.request_arb(neighbor, free_at);
        }
        self.wake_upstream(node, in_port, vc, now);
    }

    /// Conservative space check for an outgoing cut: the remote buffer's
    /// occupancy mirror is `sent − pops-through(now)`. The cached pop
    /// count is refreshed from the receiver's log only when the cached
    /// mirror looks full — a stale count only over-estimates occupancy,
    /// so a cached "< capacity" is already definitive. A *fresh* mirror
    /// at capacity raises the run-wide abort: the wake that would retry
    /// this send fires on the receiving shard and cannot be delivered
    /// back at the correct instant.
    fn cut_has_space(&mut self, cut: usize, vc: usize, now: SimTime) -> bool {
        let ctx = self.shard.as_mut().expect("cut implies shard ctx");
        let out = &mut ctx.outs[cut];
        if ((out.sent[vc] - out.seen_pops[vc]) as usize) < out.cap {
            return true;
        }
        out.seen_pops[vc] = out.pops.through(vc, now);
        if ((out.sent[vc] - out.seen_pops[vc]) as usize) < out.cap {
            true
        } else {
            ctx.abort.raise();
            false
        }
    }

    /// Freed a slot in `node`'s input buffer at `port`: wake whoever feeds
    /// that buffer so they can arbitrate for the space. When the feeder is
    /// a remote shard, the wake becomes a pop-log entry instead: the
    /// sender's occupancy mirror observes it (time-tagged with this
    /// instant) and the sender re-arbitrates on its own schedule.
    fn wake_upstream(&mut self, node: NodeId, port: usize, vc: usize, now: SimTime) {
        if port < self.meta[node.index()].ext_ports as usize {
            if let Some(i) = self.shard.as_ref().and_then(|ctx| ctx.in_index(node, port)) {
                let ctx = self.shard.as_ref().expect("in-cut implies shard ctx");
                ctx.ins[i].1.record(vc, now);
            } else {
                let (upstream, _) = self.topo.neighbors(node)[port];
                self.request_arb(upstream, now);
            }
        }
        // Local ports are fed by the host core / cube logic, which polls
        // `can_inject` — nothing to wake inside the network.
        self.request_arb(node, now);
    }

    /// Extracts the telemetry collected so far (lifecycle tracer, link
    /// utilization series, queue-depth distribution), or `None` when the
    /// configured mode was [`mn_telemetry::TraceConfig::Off`]. Intended
    /// to be called once, after the run completes.
    pub fn take_telemetry(&mut self) -> Option<NetTelemetry> {
        self.telem.take(&self.topo)
    }

    /// The flight recorder's retained kernel events, oldest first,
    /// rendered for a stall post-mortem. Empty unless the configured
    /// mode was [`mn_telemetry::TraceConfig::Full`].
    pub fn flight_dump(&self) -> Vec<String> {
        self.telem.flight_dump()
    }

    /// Total internal events processed since construction — the denominator
    /// of the kernel's events/sec throughput metric.
    pub fn events_processed(&self) -> u64 {
        self.events.events_processed()
    }

    /// High-water mark of the internal event queue — how large a working
    /// set the heap had to sustain (coalescing drives this down).
    pub fn event_queue_peak(&self) -> usize {
        self.events.peak_len()
    }

    /// The ladder bucket width the event queue was tuned to at
    /// construction: the topology's minimum link traversal time, clamped
    /// to [128, 65536] ps (kernel default for linkless topologies).
    pub fn event_bucket_width_ps(&self) -> u64 {
        self.events.bucket_width_ps()
    }

    /// Snapshot of the kernel-level performance counters: event-queue
    /// traffic, ladder spill/rewindow activity, and the packet arena's
    /// high-water mark. `steady_heap_allocs` is left at zero — only the
    /// driving binary can observe the global allocator.
    pub fn kernel_counters(&self) -> KernelCounters {
        KernelCounters {
            events_scheduled: self.events.events_scheduled(),
            events_processed: self.events.events_processed(),
            queue_peak: self.events.peak_len() as u64,
            bucket_spills: self.events.bucket_spills(),
            rewindows: self.events.rewindow_count(),
            arena_high_water: self.packets.high_water() as u64,
            steady_heap_allocs: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arbiter::ArbiterKind;
    use crate::packet::PacketKind;
    use mn_topo::{CubeTech, PathClass, Placement, TopologyKind};

    fn chain(n: usize) -> Topology {
        Topology::build(
            TopologyKind::Chain,
            &Placement::homogeneous(n, CubeTech::Dram),
        )
        .unwrap()
    }

    /// Drives the network until quiescent, returning every delivery.
    fn run_to_quiescence(net: &mut Network) -> Vec<Delivery> {
        let mut out = Vec::new();
        let mut ready = Vec::new();
        let mut now = SimTime::ZERO;
        loop {
            net.advance(now, &mut ready);
            for &node in &ready {
                while let Some(d) = net.take_delivery(node, now) {
                    out.push(d);
                }
            }
            match net.next_event_time() {
                Some(t) => now = t,
                None => break,
            }
        }
        out
    }

    #[test]
    fn single_packet_end_to_end() {
        let topo = chain(4);
        let mut net = Network::new(&topo, NocConfig::default());
        let dst = topo.cube_at_position(4).unwrap();
        let pkt = Packet::request(7, PacketKind::ReadRequest, topo.host(), dst);
        net.inject(topo.host(), 0, pkt, SimTime::ZERO).unwrap();

        let deliveries = run_to_quiescence(&mut net);
        assert_eq!(deliveries.len(), 1);
        let d = &deliveries[0];
        assert_eq!(d.node, dst);
        assert_eq!(d.packet.token, 7);
        assert_eq!(d.packet.hops(), 4);
        // 4 hops x (16B x 33 ps + 2 ns serdes) ≈ 10.1 ns.
        let expect = SimTime::from_ps(4 * (16 * 33 + 2000));
        assert_eq!(d.arrived_at, expect);
        assert_eq!(net.in_flight(), 0);
    }

    #[test]
    fn full_tracing_observes_without_perturbing() {
        let topo = chain(4);
        let dst = topo.cube_at_position(4).unwrap();
        let run = |trace| {
            let cfg = NocConfig {
                trace,
                ..NocConfig::default()
            };
            let mut net = Network::new(&topo, cfg);
            for t in 0..3 {
                let pkt = Packet::request(t, PacketKind::ReadRequest, topo.host(), dst);
                net.inject(topo.host(), 0, pkt, SimTime::ZERO).unwrap();
            }
            let deliveries = run_to_quiescence(&mut net);
            let telemetry = net.take_telemetry();
            (deliveries, telemetry)
        };
        let (off, off_telemetry) = run(mn_telemetry::TraceConfig::Off);
        let (full, full_telemetry) = run(mn_telemetry::TraceConfig::Full);
        // Identical deliveries (packets, nodes, timestamps) either way.
        assert_eq!(off, full);
        assert!(off_telemetry.is_none());
        let telemetry = full_telemetry.expect("full mode collects telemetry");
        // Lifecycle: 3 injects, ejects, and one traverse span per hop.
        let events: Vec<_> = telemetry.tracer.events().collect();
        use mn_telemetry::TraceEventKind as K;
        let count = |k: K| events.iter().filter(|e| e.kind == k).count();
        assert_eq!(count(K::Inject), 3);
        assert_eq!(count(K::Eject), 3);
        assert_eq!(count(K::Traverse), 12);
        assert_eq!(count(K::Retry), 0);
        // Spans carry the serialization occupancy.
        let span = events.iter().find(|e| e.kind == K::Traverse).unwrap();
        assert_eq!(span.dur_ps, 16 * 33);
        // Link metrics saw the same busy time the stats counters did.
        assert_eq!(telemetry.link_util.len(), topo.link_count());
        assert!(telemetry.peak_link_utilization() > 0.0);
        assert!(telemetry.queue_depth.peak() >= 1);
        // The flight recorder retained the tail of the kernel stream.
        // (It lives in the network, so dump it from a fresh traced run.)
        let cfg = NocConfig {
            trace: mn_telemetry::TraceConfig::Full,
            ..NocConfig::default()
        };
        let mut net = Network::new(&topo, cfg);
        let pkt = Packet::request(0, PacketKind::ReadRequest, topo.host(), dst);
        net.inject(topo.host(), 0, pkt, SimTime::ZERO).unwrap();
        run_to_quiescence(&mut net);
        let dump = net.flight_dump();
        assert!(!dump.is_empty());
        assert!(dump.iter().any(|line| line.contains("arrive")));
        assert!(dump.iter().any(|line| line.contains("try-arb")));
    }

    #[test]
    fn response_travels_back() {
        let topo = chain(3);
        let mut net = Network::new(&topo, NocConfig::default());
        let cube = topo.cube_at_position(3).unwrap();
        let req = Packet::request(1, PacketKind::ReadRequest, topo.host(), cube);
        let resp = Packet::response_to(&req, false);
        net.inject(cube, 0, resp, SimTime::ZERO).unwrap();
        let deliveries = run_to_quiescence(&mut net);
        assert_eq!(deliveries.len(), 1);
        assert_eq!(deliveries[0].node, topo.host());
        assert_eq!(deliveries[0].packet.kind, PacketKind::ReadResponse);
    }

    #[test]
    fn injection_backpressure() {
        let topo = chain(2);
        let cfg = NocConfig {
            buffer_packets: 2,
            ..NocConfig::default()
        };
        let mut net = Network::new(&topo, cfg);
        let dst = topo.cube_at_position(2).unwrap();
        // The host injection buffer holds 2 packets; more must fail until
        // the network drains.
        let mut accepted = 0;
        for t in 0..10 {
            let pkt = Packet::request(t, PacketKind::ReadRequest, topo.host(), dst);
            if net.inject(topo.host(), 0, pkt, SimTime::ZERO).is_ok() {
                accepted += 1;
            }
        }
        assert_eq!(accepted, 2);
        let deliveries = run_to_quiescence(&mut net);
        assert_eq!(deliveries.len(), 2);
    }

    #[test]
    fn ecn_marks_congested_forwards_without_perturbing_timing() {
        let topo = chain(6);
        let dst = topo.cube_at_position(6).unwrap();
        let run = |ecn_threshold| {
            let cfg = NocConfig {
                ecn_threshold,
                ..NocConfig::default()
            };
            let mut net = Network::new(&topo, cfg);
            for t in 0..6 {
                let pkt = Packet::request(t, PacketKind::ReadRequest, topo.host(), dst);
                net.inject(topo.host(), 0, pkt, SimTime::ZERO).unwrap();
            }
            let deliveries = run_to_quiescence(&mut net);
            let marked = net.stats().marked.value();
            (deliveries, marked)
        };
        let (plain, none_marked) = run(0);
        assert_eq!(none_marked, 0);
        assert!(plain.iter().all(|d| !d.packet.marked));
        // A burst of 6 through one host port queues well past depth 2.
        let (marked_run, marked) = run(2);
        assert!(marked > 0, "burst traffic must trip a threshold of 2");
        assert!(marked_run.iter().any(|d| d.packet.marked));
        // Marking is observational: identical nodes and arrival times.
        for (a, b) in plain.iter().zip(&marked_run) {
            assert_eq!(a.node, b.node);
            assert_eq!(a.arrived_at, b.arrived_at);
            assert_eq!(a.packet.id, b.packet.id);
        }
    }

    #[test]
    fn bucket_width_derives_from_fastest_link() {
        // Default chain: external links only, min traversal
        // 16 B x 33 ps/B + 2 ns = 2528 ps.
        let topo = chain(3);
        let net = Network::new(&topo, NocConfig::default());
        assert_eq!(net.event_bucket_width_ps(), 16 * 33 + 2000);
        // Sub-128 ps traversals clamp up so the window stays useful.
        let cfg = NocConfig {
            external_link: crate::config::LinkTiming {
                ps_per_byte: 1,
                fixed_latency: mn_sim::SimDuration::ZERO,
            },
            ..NocConfig::default()
        };
        let net = Network::new(&topo, cfg);
        assert_eq!(net.event_bucket_width_ps(), 128);
    }

    #[test]
    fn data_packets_occupy_longer() {
        let topo = chain(1);
        let mut net = Network::new(&topo, NocConfig::default());
        let dst = topo.cube_at_position(1).unwrap();
        let w = Packet::request(0, PacketKind::WriteRequest, topo.host(), dst);
        net.inject(topo.host(), 0, w, SimTime::ZERO).unwrap();
        let deliveries = run_to_quiescence(&mut net);
        // 80 B x 33 ps + 2 ns = 4.64 ns.
        assert_eq!(deliveries[0].arrived_at, SimTime::from_ps(80 * 33 + 2000));
    }

    #[test]
    fn serialization_pipelines_across_hops() {
        // Two packets to the far cube: the second starts serializing as
        // soon as the first link frees, well before the first delivers.
        let topo = chain(8);
        let mut net = Network::new(&topo, NocConfig::default());
        let dst = topo.cube_at_position(8).unwrap();
        for t in 0..2 {
            let pkt = Packet::request(t, PacketKind::ReadRequest, topo.host(), dst);
            net.inject(topo.host(), 0, pkt, SimTime::ZERO).unwrap();
        }
        let deliveries = run_to_quiescence(&mut net);
        assert_eq!(deliveries.len(), 2);
        let gap = deliveries[1].arrived_at - deliveries[0].arrived_at;
        // The gap is one serialization time (528 ps), not a full traversal.
        assert_eq!(gap, mn_sim::SimDuration::from_ps(16 * 33));
    }

    #[test]
    fn responses_have_priority_over_requests() {
        // A cube in the middle forwards both a downstream request and its
        // own response; the response must win the shared link first.
        let topo = chain(3);
        let mut net = Network::new(&topo, NocConfig::default());
        let mid = topo.cube_at_position(2).unwrap();
        let _far = topo.cube_at_position(3).unwrap();

        // Preload: a response at the middle cube heading to the host and a
        // request at the host heading to the far cube. Both need link
        // host—c1—c2 segments in opposite directions, so instead contend at
        // c1? Responses and requests travel opposite directions on a chain;
        // contention happens for the c1→host link only among responses.
        // For a same-direction test, race two responses from mid: one from
        // the local port, one arriving from far. Distance arbitration is
        // tested elsewhere; here we check response-vs-request at the host's
        // single link: inject a request while a response stream flows in.
        let req = Packet::request(0, PacketKind::ReadRequest, topo.host(), mid);
        let resp_src = Packet::request(1, PacketKind::ReadRequest, topo.host(), mid);
        let resp = Packet::response_to(&resp_src, false);
        net.inject(mid, 0, resp, SimTime::ZERO).unwrap();
        net.inject(topo.host(), 0, req, SimTime::ZERO).unwrap();
        let deliveries = run_to_quiescence(&mut net);
        assert_eq!(deliveries.len(), 2);
        // Both complete; full-duplex links mean no head-on blocking.
        assert!(deliveries.iter().any(|d| d.node == topo.host()));
        assert!(deliveries.iter().any(|d| d.node == mid));
    }

    #[test]
    fn skip_list_writes_ride_the_chain() {
        let topo = Topology::build(
            TopologyKind::SkipList,
            &Placement::homogeneous(16, CubeTech::Dram),
        )
        .unwrap();
        let mut net = Network::new(&topo, NocConfig::default());
        let far = topo.cube_at_position(16).unwrap();
        let w = Packet::request(0, PacketKind::WriteRequest, topo.host(), far);
        let r = Packet::request(1, PacketKind::ReadRequest, topo.host(), far);
        net.inject(topo.host(), 0, w, SimTime::ZERO).unwrap();
        net.inject(topo.host(), 0, r, SimTime::ZERO).unwrap();
        let deliveries = run_to_quiescence(&mut net);
        let write = deliveries
            .iter()
            .find(|d| d.packet.kind == PacketKind::WriteRequest)
            .unwrap();
        let read = deliveries
            .iter()
            .find(|d| d.packet.kind == PacketKind::ReadRequest)
            .unwrap();
        assert_eq!(write.packet.hops(), 16, "writes take the chain");
        assert_eq!(read.packet.hops(), 5, "reads take the skips");
    }

    #[test]
    fn write_upgraded_to_read_path() {
        let topo = Topology::build(
            TopologyKind::SkipList,
            &Placement::homogeneous(16, CubeTech::Dram),
        )
        .unwrap();
        let mut net = Network::new(&topo, NocConfig::default());
        let far = topo.cube_at_position(16).unwrap();
        let w = Packet::request(0, PacketKind::WriteRequest, topo.host(), far)
            .with_class(PathClass::Read);
        net.inject(topo.host(), 0, w, SimTime::ZERO).unwrap();
        let deliveries = run_to_quiescence(&mut net);
        assert_eq!(deliveries[0].packet.hops(), 5);
    }

    #[test]
    fn ring_uses_both_branches() {
        let topo = Topology::build(
            TopologyKind::Ring,
            &Placement::homogeneous(16, CubeTech::Dram),
        )
        .unwrap();
        let mut net = Network::new(&topo, NocConfig::default());
        let near = topo.cube_at_position(1).unwrap();
        let back = topo.cube_at_position(16).unwrap();
        for (t, dst) in [(0u64, near), (1, back)] {
            let pkt = Packet::request(t, PacketKind::ReadRequest, topo.host(), dst);
            net.inject(topo.host(), 0, pkt, SimTime::ZERO).unwrap();
        }
        let deliveries = run_to_quiescence(&mut net);
        // Cube 1 is one hop; the "last" cube is reached around the back in
        // two hops, not 16 down the chain.
        let hops: Vec<u32> = deliveries.iter().map(|d| d.packet.hops()).collect();
        assert!(hops.contains(&1) && hops.contains(&2), "{hops:?}");
    }

    #[test]
    fn stats_count_traffic() {
        let topo = chain(4);
        let mut net = Network::new(&topo, NocConfig::default());
        let dst = topo.cube_at_position(4).unwrap();
        let pkt = Packet::request(0, PacketKind::ReadRequest, topo.host(), dst);
        net.inject(topo.host(), 0, pkt, SimTime::ZERO).unwrap();
        let _ = run_to_quiescence(&mut net);
        assert_eq!(net.stats().injected.value(), 1);
        assert_eq!(net.stats().delivered.value(), 1);
        assert_eq!(net.stats().hops.value(), 4);
        assert_eq!(net.stats().bit_hops, 4 * 16 * 8);
        assert!(net.stats().transport_energy_pj(5.0) > 0.0);
    }

    #[test]
    fn distance_arbiter_network_builds() {
        let topo = chain(4);
        let cfg = NocConfig::default().with_arbiter(ArbiterKind::AdaptiveDistance);
        let mut net = Network::new(&topo, cfg);
        let dst = topo.cube_at_position(2).unwrap();
        let pkt = Packet::request(0, PacketKind::ReadRequest, topo.host(), dst);
        net.inject(topo.host(), 0, pkt, SimTime::ZERO).unwrap();
        assert_eq!(run_to_quiescence(&mut net).len(), 1);
    }

    #[test]
    #[should_panic(expected = "addressed to its own node")]
    fn self_injection_rejected() {
        let topo = chain(2);
        let mut net = Network::new(&topo, NocConfig::default());
        let pkt = Packet::request(0, PacketKind::ReadRequest, topo.host(), topo.host());
        let _ = net.inject(topo.host(), 0, pkt, SimTime::ZERO);
    }

    #[test]
    fn take_delivery_empty_is_none() {
        let topo = chain(2);
        let mut net = Network::new(&topo, NocConfig::default());
        assert_eq!(net.take_delivery(topo.host(), SimTime::ZERO), None);
        assert!(!net.has_delivery(topo.host()));
    }

    #[test]
    fn partitioned_chain_reports_unreachable_cubes() {
        // A chain has zero path diversity: any hard link failure cuts off
        // every cube behind it, and construction must say so instead of
        // letting traffic strand.
        let topo = chain(8);
        let cfg = NocConfig {
            fault: crate::FaultConfig {
                link_kill_rate: 0.3,
                seed: 1,
                ..crate::FaultConfig::none()
            },
            ..NocConfig::default()
        };
        // Some seed in a small range kills at least one link of eight.
        let err = (0..50)
            .find_map(|seed| {
                let mut cfg = cfg.clone();
                cfg.fault.seed = seed;
                Network::try_new(&topo, cfg).err()
            })
            .expect("some seed kills a chain link");
        let NetworkError::Partitioned { unreachable } = err else {
            panic!("expected a partition, got {err}");
        };
        assert!(!unreachable.is_empty());
        // Everything behind the first dead link is gone: the unreachable
        // set is a suffix of the chain.
        let first = unreachable[0];
        let expected: Vec<NodeId> = topo
            .cubes()
            .map(|(c, _)| c)
            .filter(|&c| c >= first)
            .collect();
        assert_eq!(unreachable, expected);
        // And the error formats with the cube list.
        let msg = NetworkError::Partitioned {
            unreachable: unreachable.clone(),
        }
        .to_string();
        assert!(msg.contains("partition"), "{msg}");
    }

    #[test]
    fn ring_survives_a_dead_link() {
        // A ring has two disjoint branches: one hard failure degrades hop
        // counts but every cube still completes its traffic.
        let topo = Topology::build(
            TopologyKind::Ring,
            &Placement::homogeneous(16, CubeTech::Dram),
        )
        .unwrap();
        let mut cfg = NocConfig {
            fault: crate::FaultConfig {
                link_kill_rate: 0.1,
                ..crate::FaultConfig::none()
            },
            ..NocConfig::default()
        };
        let seed = (0..50)
            .find(|&seed| {
                let fm = crate::FaultModel::build(
                    &topo,
                    crate::FaultConfig {
                        seed,
                        ..cfg.fault.clone()
                    },
                );
                fm.dead_links().len() == 1
            })
            .expect("some seed kills exactly one ring link");
        cfg.fault.seed = seed;
        let mut net = Network::try_new(&topo, cfg).expect("ring routes around one dead link");
        let mut deliveries = Vec::new();
        let mut ready = Vec::new();
        let mut now = SimTime::ZERO;
        for (t, p) in (1..=16).enumerate() {
            let dst = topo.cube_at_position(p).unwrap();
            let pkt = Packet::request(t as u64, PacketKind::ReadRequest, topo.host(), dst);
            // Drain between injections: the host buffer is smaller than 16.
            net.inject(topo.host(), 0, pkt, now).unwrap();
            loop {
                net.advance(now, &mut ready);
                for &node in &ready {
                    while let Some(d) = net.take_delivery(node, now) {
                        deliveries.push(d);
                    }
                }
                match net.next_event_time() {
                    Some(t) => now = t,
                    None => break,
                }
            }
        }
        assert_eq!(deliveries.len(), 16, "every cube still reachable");
        assert_eq!(net.fault_stats().unwrap().dead_links, 1);
    }

    #[test]
    fn transient_faults_add_latency_not_loss() {
        let topo = chain(4);
        let cfg = NocConfig {
            fault: crate::FaultConfig {
                transient_rate: 0.5,
                seed: 11,
                ..crate::FaultConfig::none()
            },
            ..NocConfig::default()
        };
        let healthy_arrival = {
            let mut net = Network::new(&topo, NocConfig::default());
            let dst = topo.cube_at_position(4).unwrap();
            let pkt = Packet::request(0, PacketKind::ReadRequest, topo.host(), dst);
            net.inject(topo.host(), 0, pkt, SimTime::ZERO).unwrap();
            run_to_quiescence(&mut net)[0].arrived_at
        };
        let mut net = Network::new(&topo, cfg);
        let dst = topo.cube_at_position(4).unwrap();
        let pkt = Packet::request(0, PacketKind::ReadRequest, topo.host(), dst);
        net.inject(topo.host(), 0, pkt, SimTime::ZERO).unwrap();
        let deliveries = run_to_quiescence(&mut net);
        assert_eq!(deliveries.len(), 1, "no data loss");
        let stats = net.fault_stats().unwrap();
        assert!(stats.replays > 0, "at 50% CRC rate some hop replays");
        assert!(
            deliveries[0].arrived_at > healthy_arrival,
            "replays cost latency"
        );
    }

    #[test]
    fn zero_fault_config_builds_no_model() {
        let topo = chain(2);
        let net = Network::new(&topo, NocConfig::default());
        assert!(net.fault_stats().is_none());
    }

    #[test]
    fn recycled_storage_reproduces_a_fresh_network() {
        let topo = chain(4);
        let dst = topo.cube_at_position(4).unwrap();
        let run = |net: &mut Network| {
            for t in 0..3 {
                let pkt = Packet::request(t, PacketKind::ReadRequest, topo.host(), dst);
                net.inject(topo.host(), 0, pkt, SimTime::ZERO).unwrap();
            }
            run_to_quiescence(net)
        };
        let mut fresh = Network::new(&topo, NocConfig::default());
        let baseline = run(&mut fresh);
        fresh.recycle();
        // Donate a mid-run storage too: packets still buffered, so its
        // head masks are set until the pool clears them.
        let mut busy = Network::new(&topo, NocConfig::default());
        let pkt = Packet::request(9, PacketKind::ReadRequest, topo.host(), dst);
        busy.inject(topo.host(), 0, pkt, SimTime::ZERO).unwrap();
        assert!(busy.head_mask.iter().any(|&m| m != 0));
        busy.recycle();
        let pooled = crate::pool::pooled_count();
        assert!(pooled > 0, "recycle must donate storage");
        let mut reused = Network::new(&topo, NocConfig::default());
        assert_eq!(
            crate::pool::pooled_count(),
            pooled - 1,
            "a same-shape construction must take the pooled storage"
        );
        assert!(
            reused.head_mask.iter().all(|&m| m == 0),
            "a pooled network must start with all-zero head masks"
        );
        // A different shape must not match the pooled entry.
        let other = chain(7);
        let taken_for_other = Network::new(&other, NocConfig::default());
        drop(taken_for_other);
        // Pooled storage replays the exact packet-id/handle sequence and
        // delivery stream of a fresh network.
        assert_eq!(run(&mut reused), baseline);
        reused.recycle();
    }

    #[test]
    fn every_topology_fits_the_port_bound_at_the_largest_figure_sizes() {
        // 32 cubes behind one port (Fig. 13's four-port study) is the most
        // any committed figure builds; 16 is the paper baseline.
        for kind in TopologyKind::ALL_EXTENDED {
            for cubes in [16, 32] {
                let topo =
                    Topology::build(kind, &Placement::homogeneous(cubes, CubeTech::Dram)).unwrap();
                let net = Network::try_new(&topo, NocConfig::default())
                    .unwrap_or_else(|e| panic!("{kind:?} x {cubes}: {e}"));
                let ports = net.meta.iter().map(|m| m.ext_ports + m.local_ports);
                let widest = ports.max().unwrap() as usize;
                assert!(
                    widest <= MAX_NODE_PORTS,
                    "{kind:?} x {cubes}: a node has {widest} ports"
                );
            }
        }
    }

    #[test]
    fn too_many_ports_is_a_structured_error() {
        assert_eq!(check_port_bound(NodeId(3), MAX_NODE_PORTS), Ok(()));
        let err = check_port_bound(NodeId(3), MAX_NODE_PORTS + 1).unwrap_err();
        assert_eq!(
            err,
            NetworkError::TooManyPorts {
                node: NodeId(3),
                ports: MAX_NODE_PORTS + 1
            }
        );
        assert!(err.to_string().contains("65 ports"), "{err}");
    }

    #[test]
    fn metacube_interposer_is_faster() {
        let topo = Topology::build(
            TopologyKind::MetaCube,
            &Placement::homogeneous(16, CubeTech::Dram),
        )
        .unwrap();
        let mut net = Network::new(&topo, NocConfig::default());
        let first = topo.cube_at_position(1).unwrap();
        let pkt = Packet::request(0, PacketKind::ReadRequest, topo.host(), first);
        net.inject(topo.host(), 0, pkt, SimTime::ZERO).unwrap();
        let deliveries = run_to_quiescence(&mut net);
        // host→IF (external) + IF→cube (interposer): under two full
        // external traversals.
        assert!(deliveries[0].arrived_at < SimTime::from_ps(2 * (16 * 33 + 2000)));
        assert_eq!(deliveries[0].packet.hops(), 2);
    }
}
