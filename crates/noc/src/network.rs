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
//!
//! ## Time
//!
//! Link arrivals and link-free events wait in an [`EventQueue`], all due
//! strictly after the network's clock. Wakes due at the instant being
//! processed go to the same-instant *lane*, one FIFO of nodes that is
//! drained in place after the queue's run at that instant and emptied
//! when the instant is done. A caller drives the network with
//! [`Network::advance`], which processes every instant up to and
//! including `now`.

use std::collections::VecDeque;
use std::error::Error;
use std::fmt;
use std::sync::Arc;

use mn_sim::{ArenaRef, EventQueue, GenArena, KernelCounters, SimTime};
use mn_topo::{LinkId, NodeId, NodeKind, PathClass, RoutingTable, Topology};

use crate::arbiter::{ArbiterImpl, Candidate};
use crate::config::{LinkDuplex, NocConfig};
use crate::fault::FaultModel;
use crate::packet::{Packet, PacketId, PacketKind, VirtualChannel};
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
struct Buf {
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
enum NetEvent {
    /// A packet finishes traversing a link and lands in `node`'s input
    /// buffer at `port`.
    Arrive {
        node: NodeId,
        /// A `u8` holds any port: a node has at most [`MAX_NODE_PORTS`].
        /// It keeps a queue entry at 24 bytes instead of 32.
        port: u8,
        packet: ArenaRef,
    },
    /// A link send's occupancy ends: arbitrate `node`, then `other` (the
    /// far end, when the link is half-duplex and both ends share it).
    /// One event is exact for both ends' wakes: pushed separately they
    /// would carry consecutive sequence numbers at one instant, so
    /// nothing could pop between them.
    LinkFree { node: NodeId, other: Option<NodeId> },
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
    /// Link arrivals and link-free events, all due strictly after
    /// `clock`: every send occupies its link for a positive time.
    events: EventQueue<NetEvent>,
    /// The same-instant lane: one FIFO of nodes to arbitrate at `clock`,
    /// in wake order. Every wake due at the instant being processed lands
    /// here, never in `events`. [`Network::advance`] runs `events`' run at
    /// an instant first, then drains the lane in place, batch by batch,
    /// which is the `(time, seq)` order a single queue gives: every
    /// queued event at `t` was pushed before the clock reached `t`. The
    /// lane is emptied once the instant is done.
    lane: Vec<NodeId>,
    /// End of the lane batch being drained: entries before it are popped
    /// (fired or about to be), entries from it on are pending. Zero
    /// outside a drain.
    lane_head: usize,
    /// The instant the network is processing, or last injected or
    /// delivered at; the lane's entries are due at it. Never moves
    /// backwards.
    clock: SimTime,
    /// Per node, the arrivals still unprocessed in the `events` batch
    /// being handled (zero outside that batch). See [`Network::wake`].
    inbound: Vec<u32>,
    /// Lane entries popped so far; with the queue's pops this gives the
    /// kernel's event count.
    lane_popped: u64,
    /// Most entries ever pending at once in `events` and the lane
    /// together.
    peak: usize,
    /// Test-only reference wake path: every wake is pushed (no no-op
    /// drop) and a half-duplex send pushes one link-free event per end.
    #[cfg(test)]
    every_wake: bool,
    /// Lazy arbitration-coalescing state: `arb_clean[n]` is true when node
    /// `n` has arbitrated at `last_arb[n]` and no state change that could
    /// enable new movement *at that same instant* has happened since. A
    /// wake firing for a clean node at exactly `last_arb[n]` is a
    /// provable no-op and its arbitration is skipped. Wakes are dropped
    /// at push time only where the node provably stays empty until the
    /// wake would fire (see [`Network::wake`]); every other wake is
    /// pushed and this fire-time skip decides, because which packet wins
    /// an output depends on how same-instant arbitrations interleave with
    /// arrivals and injections.
    arb_clean: Vec<bool>,
    /// Instant of each node's most recent arbitration (paired with
    /// `arb_clean`; meaningless while the flag is false).
    last_arb: Vec<SimTime>,
    /// Per-node membership flag for the in-progress `advance` ready list —
    /// structural dedup instead of a sort+dedup pass per call.
    ready_pending: Vec<bool>,
    /// Packets currently sitting in each node's *input* buffers (not
    /// ejection). A wake on a node with zero buffered packets has no
    /// head to move, so `arbitrate` returns after this one load instead
    /// of checking the node's head masks, and a same-instant wake pushed
    /// inside [`Network::advance`] for such a node is not pushed at all.
    buffered: Vec<u32>,
    /// Route-indexed head masks, `meta[n].mask_idx(output, vc)`: bit `p`
    /// is set exactly when input buffer (`p`, `vc`) holds a head packet
    /// that routes to `output` (ejection when it is addressed to `n`).
    /// Kept current wherever a buffer's head changes, so arbitration
    /// visits only outputs with a candidate and reads candidates off the
    /// set bits instead of scanning every port and looking up each head's
    /// route.
    head_mask: Vec<u64>,
    /// Per node, bit `out` is set exactly when some head mask of link
    /// output `out` is non-zero, so arbitration finds the link outputs
    /// with a candidate without reading every output's masks.
    link_heads: Vec<u64>,
    /// Per output (`meta[n].arb_idx(output)`), the link it sends on and
    /// the direction (0 is a→b). Unused for ejection outputs.
    out_link: Vec<(LinkId, usize)>,
    /// Reusable arbitration candidate buffer (cleared before each use).
    scratch: Vec<Candidate>,
    /// Reusable same-instant event batch for [`Network::advance`].
    batch: Vec<NetEvent>,
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
        // Per router output, its link and direction, in `arb_idx` order.
        let mut out_link = Vec::with_capacity(2 * topo.link_count() + topo.node_count());
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
                out_link.push((link, usize::from(topo.link(link).a != id)));
            }
            // The ejection output sends on no link.
            out_link.push((LinkId(u32::MAX), 0));
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
        // The arena is sized so every live packet (some buffer slot, or in
        // flight on a link — a handful per direction at most) fits without
        // slot-vector growth in the steady state.
        let nodes = topo.node_count();
        let bufs: Vec<Buf> = (0..buf_count)
            .map(|_| Buf::with_capacity(config.buffer_packets))
            .collect();
        let eject: Vec<Buf> = (0..nodes * VC)
            .map(|_| Buf::with_capacity(config.ejection_packets))
            .collect();
        let arena_capacity = bufs.len() * config.buffer_packets
            + eject.len() * config.ejection_packets
            + 8 * topo.link_count();
        // `neighbor_ports[node][out_port]`: the input-port index our link
        // occupies at the neighbor.
        let neighbor_ports = topo
            .node_ids()
            .map(|id| {
                topo.neighbors(id)
                    .iter()
                    .map(|&(neighbor, link)| {
                        link_ports[neighbor.index()]
                            .iter()
                            .find(|(l, _)| *l == link)
                            .map(|&(_, p)| p)
                            .expect("link attaches to both endpoints")
                    })
                    .collect()
            })
            .collect();
        // Pre-size the queue for the common working set — order one
        // link-free event per node plus one in-flight packet per link
        // direction, doubled for transients. The queue still grows past
        // this under heavy load; the hint only avoids the early doubling
        // reallocations in every simulation's warm-up.
        let event_capacity = 2 * (topo.node_count() + 2 * topo.link_count());
        Ok(Network {
            routes,
            config,
            meta,
            bufs,
            eject,
            head_mask: vec![0; arbiters.len() * VC],
            arbiters,
            packets: GenArena::with_capacity(arena_capacity),
            link_free_at: vec![[SimTime::ZERO; 2]; topo.link_count()],
            neighbor_ports,
            events: EventQueue::with_capacity(event_capacity),
            lane: Vec::with_capacity(64),
            lane_head: 0,
            clock: SimTime::ZERO,
            inbound: vec![0; nodes],
            lane_popped: 0,
            peak: 0,
            #[cfg(test)]
            every_wake: false,
            arb_clean: vec![false; nodes],
            last_arb: vec![SimTime::ZERO; nodes],
            ready_pending: vec![false; nodes],
            buffered: vec![0; nodes],
            link_heads: vec![0; nodes],
            out_link,
            scratch: Vec::with_capacity(16),
            batch: Vec::with_capacity(64),
            next_packet_id: 0,
            stats: NetStats::new(topo.link_count()),
            faults,
            telem: NetTelem::new(config_trace, &topo),
            topo,
        })
    }

    /// The routing table the network forwards with.
    pub fn routes(&self) -> &RoutingTable {
        &self.routes
    }

    /// Statistics gathered so far.
    pub fn stats(&self) -> &NetStats {
        &self.stats
    }

    /// True if a packet of `kind` could be injected at
    /// `node`/`local_port` right now: its virtual channel's injection
    /// buffer has space. Only the kind matters, so a caller can ask
    /// before it builds the packet.
    pub fn can_inject(&self, node: NodeId, local_port: usize, kind: PacketKind) -> bool {
        let meta = self.meta[node.index()];
        assert!(
            local_port < meta.local_ports as usize,
            "node {node} has {} local ports, got {local_port}",
            meta.local_ports
        );
        let port = meta.ext_ports as usize + local_port;
        self.bufs[meta.buf_idx(port, kind.virtual_channel().index())].has_space()
    }

    /// Injects `packet` into `node`'s local port at `now`, the caller's
    /// current instant. The network must have no work due before `now`:
    /// advance it to `now` first.
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
        if !self.can_inject(node, local_port, packet.kind) {
            return Err(NetworkFull);
        }
        let id = PacketId(self.next_packet_id);
        self.next_packet_id += 1;
        packet.assign_id(id, now);
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
        self.wake_from_outside(node, now);
        Ok(id)
    }

    /// The next instant at which [`Network::advance`] can make progress.
    pub fn next_event_time(&self) -> Option<SimTime> {
        if self.lane.len() == self.lane_head {
            self.events.peek_time()
        } else {
            Some(self.clock)
        }
    }

    /// Records the combined depth of the queue and the lane's pending
    /// entries after a push.
    #[inline]
    fn note_depth(&mut self) {
        self.peak = self
            .peak
            .max(self.events.len() + self.lane.len() - self.lane_head);
    }

    /// Appends a wake for `node` to the same-instant lane and marks the
    /// node dirty, so the fire-time skip in [`Network::fire`] cannot
    /// treat its arbitration as a no-op.
    fn push_lane(&mut self, node: NodeId) {
        self.arb_clean[node.index()] = false;
        self.lane.push(node);
        self.note_depth();
    }

    /// A wake for `node` at the instant being processed, requested inside
    /// [`Network::advance`]. It is dropped when `node` has nothing
    /// buffered and no arrival for it is left in the `events` batch being
    /// handled. That is exact: the wake would fire before `advance`
    /// returns, and until then only those arrivals can add packets to the
    /// node (arbitration moves packets onto links, which take time, or
    /// into ejection buffers; injections happen outside `advance`). So
    /// its arbitration would find the node empty and change nothing, not
    /// even the coalescing flags that matter: any later change re-dirties
    /// the node.
    fn wake(&mut self, node: NodeId) {
        let n = node.index();
        if self.buffered[n] > 0 || self.inbound[n] > 0 || self.keeps_every_wake() {
            self.push_lane(node);
        }
    }

    /// A wake for `node` at `now` requested from outside
    /// [`Network::advance`] (an injection or a delivery). Always pushed: a
    /// local injection can land before it fires, and then the node's
    /// arbitration must keep its place among the instant's wakes.
    fn wake_from_outside(&mut self, node: NodeId, now: SimTime) {
        debug_assert!(
            self.next_event_time().is_none_or(|t| t >= now),
            "woken at {now} with work due at {:?}; advance first",
            self.next_event_time()
        );
        debug_assert!(now >= self.clock, "clock moved backwards");
        self.clock = now;
        self.push_lane(node);
    }

    /// Schedules the wakes at `free_at`, when a send's link frees:
    /// `node`, then `other` if the link is shared.
    fn push_link_free(&mut self, free_at: SimTime, node: NodeId, other: Option<NodeId>) {
        debug_assert!(free_at > self.clock, "a send occupies its link");
        self.arb_clean[node.index()] = false;
        if let Some(other) = other {
            self.arb_clean[other.index()] = false;
        }
        if self.keeps_every_wake() {
            self.events
                .push(free_at, NetEvent::LinkFree { node, other: None });
            if let Some(other) = other {
                self.note_depth();
                self.events.push(
                    free_at,
                    NetEvent::LinkFree {
                        node: other,
                        other: None,
                    },
                );
            }
        } else {
            self.events
                .push(free_at, NetEvent::LinkFree { node, other });
        }
        self.note_depth();
    }

    /// True on the test-only reference wake path (see `every_wake`).
    #[inline]
    fn keeps_every_wake(&self) -> bool {
        #[cfg(test)]
        return self.every_wake;
        #[cfg(not(test))]
        false
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
        while let Some(t) = self.next_event_time().filter(|&t| t <= now) {
            debug_assert!(t >= self.clock, "clock moved backwards");
            self.clock = t;
            // The queue's run at `t` was pushed before the clock reached
            // `t`, so it goes before every lane entry.
            if self.events.peek_time() == Some(t) {
                self.run_queue_batch(t, ready);
            }
            // Wakes pushed while a batch drains are due at `t` too; they
            // form the next batch. `lane_head` marks the batch as popped,
            // so the depth a push records counts only the wakes behind it.
            let mut next = 0;
            while next < self.lane.len() {
                self.lane_head = self.lane.len();
                self.lane_popped += (self.lane_head - next) as u64;
                while next < self.lane_head {
                    let node = self.lane[next];
                    next += 1;
                    self.fire(node, t, ready);
                }
            }
            self.lane.clear();
            self.lane_head = 0;
        }
        // Membership is already unique (structural dedup via
        // `ready_pending`); the sort stays because callers drain nodes in
        // ascending order and the drain order is part of the
        // deterministic, bit-reproducible behavior the result cache
        // depends on.
        ready.sort_unstable();
        for &node in ready.iter() {
            self.ready_pending[node.index()] = false;
        }
    }

    /// Handles the queue's entire run at `t`. The run leaves the queue
    /// before its handlers push, which the pinned queue peaks count on.
    /// A run of one event needs neither the batch buffer nor `inbound`:
    /// a lone arrival's increment and decrement would cancel with no
    /// wake between them to read it.
    fn run_queue_batch(&mut self, t: SimTime, ready: &mut Vec<NodeId>) {
        let (_, first) = self.events.pop().expect("the queue has a run at t");
        if self.events.peek_time() != Some(t) {
            self.handle_event(first, t, false, ready);
            return;
        }
        let mut batch = std::mem::take(&mut self.batch);
        batch.push(first);
        self.events.pop_batch_into(&mut batch);
        for event in &batch {
            if let NetEvent::Arrive { node, .. } = *event {
                self.inbound[node.index()] += 1;
            }
        }
        for event in batch.drain(..) {
            self.handle_event(event, t, true, ready);
        }
        self.batch = batch;
    }

    /// Handles one queued event at `t`; `counted` says its arrival is
    /// counted in `inbound`.
    fn handle_event(
        &mut self,
        event: NetEvent,
        t: SimTime,
        counted: bool,
        ready: &mut Vec<NodeId>,
    ) {
        match event {
            NetEvent::Arrive { node, port, packet } => {
                if self.telem.tracing() {
                    let id = self
                        .packets
                        .get(packet)
                        .map_or(PacketId(u64::MAX), |p| p.id);
                    self.telem.on_kernel_event(FlightEntry::Arrive {
                        at: t,
                        node,
                        port: usize::from(port),
                        packet: id,
                    });
                }
                if counted {
                    self.inbound[node.index()] -= 1;
                }
                self.handle_arrival(node, usize::from(port), packet, t);
            }
            NetEvent::LinkFree { node, other } => {
                self.fire(node, t, ready);
                if let Some(other) = other {
                    self.fire(other, t, ready);
                }
            }
        }
    }

    /// Fires one wake: arbitrates `node` at `t` unless that is provably a
    /// no-op — the node has nothing buffered, or it already arbitrated at
    /// this exact instant and nothing has changed since. At a *later*
    /// instant a busy link may have freed, so the flag only holds within
    /// one timestamp. The flag is set before arbitrating: packet movement
    /// inside `arbitrate` re-dirties the node (via `wake_upstream`). An
    /// empty node leaves the flags as they are: a packet can reach it
    /// only by an arrival or an injection, and both dirty it again.
    fn fire(&mut self, node: NodeId, t: SimTime, ready: &mut Vec<NodeId>) {
        if self.telem.tracing() {
            self.telem
                .on_kernel_event(FlightEntry::TryArb { at: t, node });
        }
        let n = node.index();
        if self.buffered[n] == 0 {
            return;
        }
        if !(self.arb_clean[n] && self.last_arb[n] == t) {
            self.arb_clean[n] = true;
            self.last_arb[n] = t;
            self.arbitrate(node, t, ready);
        }
    }

    /// Pops the oldest deliverable packet at `node` (responses before
    /// requests), freeing ejection space — which may unblock the network.
    /// As with [`Network::inject`], `now` must have no network work due
    /// before it.
    pub fn take_delivery(&mut self, node: NodeId, now: SimTime) -> Option<Delivery> {
        for vc in VirtualChannel::PRIORITY_ORDER {
            if let Some((handle, arrived_at)) =
                self.eject[node.index() * VC + vc.index()].queue.pop_front()
            {
                let packet = self.packets.remove(handle);
                self.stats.delivered.incr();
                self.wake_from_outside(node, now);
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
        self.push_lane(node);
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
                if out != meta.eject_out() {
                    self.link_heads[node.index()] |= 1 << out;
                }
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
        if out != meta.eject_out() && !self.has_heads(meta, out) {
            self.link_heads[node.index()] &= !(1 << out);
        }
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

    /// The instant the link under (`link`, `dir`) can take a send: a
    /// half-duplex link is one channel that either direction occupies.
    #[inline]
    fn link_busy_until(&self, link: LinkId, dir: usize) -> SimTime {
        let free_at = self.link_free_at[link.index()];
        match self.config.duplex {
            LinkDuplex::Half => free_at[0].max(free_at[1]),
            LinkDuplex::Full => free_at[dir],
        }
    }

    /// Runs arbitration for every output of `node` that can move a
    /// packet. An output whose head masks are all zero, or whose link is
    /// still busy, has nothing to move: its arbitration would end with no
    /// packet moved and no counter touched, so skipping it changes
    /// nothing. (A busy link's link-free event is already scheduled.)
    fn arbitrate(&mut self, node: NodeId, now: SimTime, ready: &mut Vec<NodeId>) {
        let meta = self.meta[node.index()];
        if self.has_heads(meta, meta.eject_out()) {
            self.arbitrate_ejection(node, now, ready);
        }
        // The link-output mask is re-read after each output, not taken
        // up front: a packet moved by an earlier output can expose a head
        // for a later one, and that output must still see it.
        let mut from = 0;
        loop {
            let pending = self.link_heads[node.index()] & u64::MAX.checked_shl(from).unwrap_or(0);
            if pending == 0 {
                break;
            }
            let out = pending.trailing_zeros();
            from = out + 1;
            let out = out as usize;
            let (link, dir) = self.out_link[meta.arb_idx(out)];
            if self.link_busy_until(link, dir) <= now {
                self.arbitrate_link_output(node, out, link, dir, now);
            }
        }
        #[cfg(debug_assertions)]
        self.assert_head_masks(node);
    }

    /// Recomputes `node`'s head masks and link-output mask from its input
    /// buffers and checks them against the maintained ones. Every mask
    /// update is caused by a buffer change at `node`, and each such change
    /// is followed by an arbitration at `node`, so checking after each
    /// arbitration covers every update site.
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
        let links = (0..meta.eject_out())
            .filter(|&out| self.has_heads(meta, out))
            .fold(0u64, |mask, out| mask | 1 << out);
        assert_eq!(
            self.link_heads[node.index()],
            links,
            "stale link-output mask at node {node}"
        );
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
            self.wake_upstream(node, port);
        }
        candidates.clear();
        self.scratch = candidates;
    }

    /// Tries to send one packet out of `out_port`, whose link (`link`,
    /// direction `dir`) is free at `now`; reschedules itself when the
    /// link frees.
    fn arbitrate_link_output(
        &mut self,
        node: NodeId,
        out_port: usize,
        link: LinkId,
        dir: usize,
        now: SimTime,
    ) {
        // Dead links never carry traffic. Routing already avoids them, so
        // no head's mask bit can select this output; the guard keeps that
        // invariant explicit.
        if self.faults.as_ref().is_some_and(|fm| fm.is_dead(link)) {
            return;
        }
        let neighbor = self.topo.neighbors(node)[out_port].0;
        let link_info = self.topo.link(link);
        // Which port does this link occupy at the neighbor?
        let neighbor_port = self.neighbor_ports[node.index()][out_port];
        let meta = self.meta[node.index()];
        let neighbor_meta = self.meta[neighbor.index()];
        let out_arb = meta.arb_idx(out_port);

        let mut candidates = std::mem::take(&mut self.scratch);
        let mut selection: Option<(usize, usize)> = None; // (input port, vc)
        for vc in VirtualChannel::PRIORITY_ORDER {
            // The mask holds exactly the heads routed to this output, in
            // ascending port order; a head that arrived on this very link
            // never turns back through it.
            let mut mask = self.head_mask[meta.mask_idx(out_port, vc.index())] & !(1 << out_port);
            // Candidates need downstream buffer space on their VC.
            if mask == 0 || !self.bufs[neighbor_meta.buf_idx(neighbor_port, vc.index())].has_space()
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
        self.bufs[neighbor_meta.buf_idx(neighbor_port, vc)].reserved += 1;

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

        self.events.push(
            free_at + timing.fixed_latency,
            NetEvent::Arrive {
                node: neighbor,
                port: neighbor_port as u8,
                packet: handle,
            },
        );
        self.note_depth();
        // Try to use the link again the moment it frees — from both ends
        // when the channel is shared.
        let other = (self.config.duplex == LinkDuplex::Half).then_some(neighbor);
        self.push_link_free(free_at, node, other);
        self.wake_upstream(node, in_port);
    }

    /// Freed a slot in `node`'s input buffer at `port`: wake whoever feeds
    /// that buffer so they can arbitrate for the space.
    fn wake_upstream(&mut self, node: NodeId, port: usize) {
        if port < self.meta[node.index()].ext_ports as usize {
            let (upstream, _) = self.topo.neighbors(node)[port];
            self.wake(upstream);
        }
        // Local ports are fed by the host core / cube logic, which polls
        // `can_inject` — nothing to wake inside the network.
        self.wake(node);
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
    /// of the kernel's events/sec throughput metric: queue pops (an
    /// arrival, or a link-free event however many ends it wakes) plus
    /// lane pops.
    pub fn events_processed(&self) -> u64 {
        self.events.events_processed() + self.lane_popped
    }

    /// Snapshot of the kernel-level performance counters: event-queue
    /// traffic and the packet arena's high-water mark. `steady_heap_allocs`
    /// is left at zero — only the driving binary can observe the global
    /// allocator.
    pub fn kernel_counters(&self) -> KernelCounters {
        KernelCounters {
            events_processed: self.events_processed(),
            queue_peak: self.peak as u64,
            arena_high_water: self.packets.high_water() as u64,
            ..KernelCounters::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arbiter::ArbiterKind;
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

    /// Drives `net` with `SimRng`-seeded traffic and returns every
    /// delivery as (node, packet id, arrival time), in take order. Each
    /// instant alternates host-model passes with advances until nothing
    /// moves, as a port simulation does. A pass takes every ready
    /// delivery (cubes answer requests with responses), injects the
    /// responses in a seeded order, holding some back, and injects the
    /// host's new requests last. So a node's delivery and a later
    /// injection at the same node and instant straddle other nodes'
    /// wakes — the interleaving a wake pushed from outside `advance` must
    /// keep its place in. Every choice depends only on the seed and on
    /// what the network returned, so two networks that behave alike see
    /// the same traffic.
    fn drive_seeded(net: &mut Network, topo: &Topology, seed: u64) -> Vec<(NodeId, u64, SimTime)> {
        let mut rng = mn_sim::SimRng::seed_from(seed);
        let cubes: Vec<NodeId> = topo.cubes().map(|(c, _)| c).collect();
        let host = topo.host();
        let total = 300u64;
        let mut issued = 0u64;
        let mut responses: Vec<(NodeId, usize, Packet)> = Vec::new();
        let mut out = Vec::new();
        let mut ready = Vec::new();
        let mut now = SimTime::ZERO;
        loop {
            net.advance(now, &mut ready);
            loop {
                let mut moved = false;
                for &node in &ready {
                    while let Some(d) = net.take_delivery(node, now) {
                        out.push((node, d.packet.id.0, d.arrived_at));
                        moved = true;
                        if node != host {
                            let resp = Packet::response_to(&d.packet, false);
                            responses.push((node, rng.below(4) as usize, resp));
                        }
                    }
                }
                let mut i = 0;
                while i < responses.len() {
                    let j = i + rng.below((responses.len() - i) as u64) as usize;
                    responses.swap(i, j);
                    let (node, port, ref resp) = responses[i];
                    if rng.chance(0.7) && net.can_inject(node, port, resp.kind) {
                        let (node, port, resp) = responses.swap_remove(i);
                        net.inject(node, port, resp, now).unwrap();
                        moved = true;
                    } else {
                        i += 1;
                    }
                }
                for _ in 0..rng.below(4) {
                    let dst = cubes[rng.below(cubes.len() as u64) as usize];
                    let kind = if rng.chance(0.3) {
                        PacketKind::WriteRequest
                    } else {
                        PacketKind::ReadRequest
                    };
                    let pkt = Packet::request(issued, kind, host, dst);
                    if issued < total && net.can_inject(host, 0, pkt.kind) {
                        net.inject(host, 0, pkt, now).unwrap();
                        issued += 1;
                        moved = true;
                    }
                }
                if !moved {
                    break;
                }
                net.advance(now, &mut ready);
            }
            let step = SimTime::from_ps(now.as_ps() + 1 + rng.below(600));
            now = match net.next_event_time() {
                Some(t) => t.min(step),
                None if issued < total || !responses.is_empty() => step,
                None => break,
            };
        }
        assert_eq!(net.in_flight(), 0, "seed {seed}: traffic stranded");
        out
    }

    /// The wake path against a reference that pushes every wake — no
    /// drop of no-op same-instant wakes, and one link-free event per
    /// woken end of a half-duplex send. Over seeded traffic on chain,
    /// ring, tree and skip-list networks, in half and full duplex, both
    /// must deliver the same packets at the same nodes and times in the
    /// same order, record the same lifecycle trace (which orders every
    /// injection, link send and ejection) and end with identical
    /// statistics, while the reference dispatches more events.
    #[test]
    fn wake_path_matches_the_every_wake_reference() {
        let kinds = [
            TopologyKind::Chain,
            TopologyKind::Ring,
            TopologyKind::Tree,
            TopologyKind::SkipList,
        ];
        let arbiters = [
            ArbiterKind::RoundRobin,
            ArbiterKind::Distance,
            ArbiterKind::AdaptiveDistance,
        ];
        for (k, kind) in kinds.into_iter().enumerate() {
            let topo = Topology::build(kind, &Placement::homogeneous(8, CubeTech::Dram)).unwrap();
            for duplex in [LinkDuplex::Half, LinkDuplex::Full] {
                for seed in 0..3u64 {
                    let cfg = NocConfig {
                        duplex,
                        buffer_packets: 1 + seed as usize * 2,
                        ejection_packets: 2,
                        trace: mn_telemetry::TraceConfig::Full,
                        ..NocConfig::default().with_arbiter(arbiters[(k + seed as usize) % 3])
                    };
                    let seed = 0x3A4E_0000 + 16 * k as u64 + seed;
                    let mut reference = Network::new(&topo, cfg.clone());
                    reference.every_wake = true;
                    let mut net = Network::new(&topo, cfg);
                    let want = drive_seeded(&mut reference, &topo, seed);
                    let got = drive_seeded(&mut net, &topo, seed);
                    let case = format!("{kind:?} {duplex:?} seed {seed:#x}");
                    assert_eq!(got, want, "{case}: deliveries diverged");
                    let trace = |net: &mut Network| {
                        let telemetry = net.take_telemetry().expect("full tracing");
                        format!("{:?}", telemetry.tracer.events().collect::<Vec<_>>())
                    };
                    assert!(
                        trace(&mut net) == trace(&mut reference),
                        "{case}: traces diverged"
                    );
                    assert_eq!(
                        format!("{:?}", net.stats()),
                        format!("{:?}", reference.stats()),
                        "{case}: statistics diverged"
                    );
                    assert!(
                        net.events_processed() < reference.events_processed(),
                        "{case}: no wake was saved"
                    );
                }
            }
        }
    }

    /// `Arrive` carries its port as a `u8`, so a queue entry (instant
    /// and event) is 24 bytes.
    #[test]
    fn a_queue_entry_is_24_bytes() {
        assert_eq!(std::mem::size_of::<(SimTime, NetEvent)>(), 24);
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
        assert!(net.peek_delivery(topo.host()).is_none());
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
        assert_eq!(net.faults.as_ref().unwrap().dead_links().len(), 1);
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
        assert!(
            deliveries[0].arrived_at > healthy_arrival,
            "at 50% CRC rate some hop replays, and replays cost latency"
        );
    }

    #[test]
    fn zero_fault_config_builds_no_model() {
        let topo = chain(2);
        let net = Network::new(&topo, NocConfig::default());
        assert!(net.faults.is_none());
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
