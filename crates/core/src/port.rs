//! One host memory port and its memory network, simulated end to end.
//!
//! Ports serve disjoint address slices (§2.3), so the system simulates each
//! port's MN independently. `PortSim` owns the network, the per-cube
//! quadrant controllers, the workload trace, and the host-side request
//! window, and advances them in lockstep:
//!
//! ```text
//! trace ──▶ host queue ──▶ inject ──▶ network ──▶ cube ejection
//!                ▲  window                             │ (+1 ns wrong-quadrant)
//!                │                                     ▼
//! response ◀── network ◀── inject ◀── completion ◀── controller
//! ```
//!
//! The latency of each phase is recorded against the three-way breakdown of
//! Fig. 5: *to memory* (offer → cube arrival, including host queuing),
//! *in memory* (cube arrival → data ready), *from memory* (data ready →
//! response back at the host).
//!
//! ## Host model
//!
//! The host behaves like the paper's GPU: `window` wavefront-like slots,
//! each cycling **think → issue a coalesced burst of misses → wait for the
//! burst's last read response**. Think times are the burst's trace gaps
//! scaled by the slot count, so the aggregate offered load matches the
//! workload's intensity when memory is fast — and degrades smoothly as
//! round-trip latency grows. Burst issue is what creates the deep,
//! transient queues (and the arbitration pressure) the paper measures,
//! without saturating the network's long-term bandwidth.
//!
//! Writes follow §4.2's "off the critical path" assumption: a slot does
//! not wait for write acknowledgments — but the host tracks them against a
//! bounded write buffer, so sustained write bursts eventually stall issue
//! (BACKPROP's failure mode on slow write paths).

use std::collections::VecDeque;
use std::sync::Arc;

use mn_host::WindowPolicyImpl;
use mn_mem::{Completion, EnergyPj, MemAccess, MemTechSpec, QuadrantController};
use mn_noc::{NetTelemetry, Network, Packet, PacketKind, WriteBurstDetector};
use mn_sim::{
    counters, Histogram, KernelCounters, SeqSlab, SimDuration, SimRng, SimTime, Watchdog,
};
use mn_telemetry::{
    Decomposition, FairnessTracker, HostSummary, LifecycleTracer, TelemetrySummary, TraceConfig,
    TraceEvent, TraceEventKind,
};
use mn_topo::{CubeTech, NodeId, PathClass, Topology, TopologyKind};
use mn_workloads::{MemRef, TraceGenerator};

use crate::address::{AddressMap, DecodedAddress};
use crate::config::SystemConfig;
use crate::error::SimError;
use crate::stats::{EnergyBreakdown, LatencyBreakdown};

/// Quadrants per cube (Table 2's 256 banks in 4 quadrants).
pub(crate) const QUADRANTS: u32 = 4;

/// Intra-cube penalty when a request enters via the "wrong" quadrant (§5).
pub(crate) const WRONG_QUADRANT_PENALTY: SimDuration = SimDuration::from_ns(1);

/// Payload bits per access, for array energy (64 B lines).
pub(crate) const ACCESS_BITS: u64 = 64 * 8;

/// `BankAccess` spans retained per port under `Full` tracing (a ring:
/// long runs keep the tail).
const CTRL_TRACER_CAPACITY: usize = 1 << 16;

#[derive(Debug)]
struct Inflight {
    offered_at: SimTime,
    arrived_at_cube: SimTime,
    mem_done: SimTime,
    decoded: DecodedAddress,
    request: Packet,
    tech: CubeTech,
    burst: u64,
}

#[derive(Debug)]
struct PendingResponse {
    ready_at: SimTime,
    cube: NodeId,
    quadrant: u32,
    packet: Packet,
}

/// Everything one port's run observed beyond its headline statistics:
/// the cross-port-mergeable rollup plus the raw per-event material
/// (lifecycle tracers, per-link utilization series) a trace export
/// needs. Present only when the run's [`mn_telemetry::TraceConfig`]
/// was not `Off`.
#[derive(Debug)]
pub struct PortTelemetry {
    /// The mergeable rollup: latency decomposition, fairness, queue
    /// depth, peak link utilization.
    pub summary: TelemetrySummary,
    /// Network-side telemetry (link tracer, link utilization series,
    /// queue-depth distribution).
    pub net: NetTelemetry,
    /// Memory-side lifecycle tracer: one `BankAccess` span track per
    /// (cube, quadrant) controller. Empty unless tracing was `Full`.
    pub ctrl_tracer: LifecycleTracer,
}

/// Zero-contention path cost between the host and one node: the sum of
/// per-byte serialization rates and of fixed per-traversal latencies
/// over the routed path's links. `wire = bytes * byte_ps + fixed_ps`.
#[derive(Debug, Clone, Copy, Default)]
struct WireCost {
    byte_ps: u64,
    fixed_ps: u64,
}

impl WireCost {
    #[inline]
    fn wire(&self, bytes: u64) -> SimDuration {
        SimDuration::from_ps(bytes * self.byte_ps + self.fixed_ps)
    }
}

/// Raw result of simulating one port to trace completion.
///
/// Produced by [`crate::simulate_port`]; merge a config's worth of these
/// (in ascending port order) with [`crate::merge_port_observations`]. The
/// type is opaque on purpose: it exists so schedulers can fan per-port
/// simulations out to worker threads and still produce results
/// bit-identical to the serial [`crate::simulate`].
#[derive(Debug)]
pub struct PortObservation {
    pub(crate) wall: SimTime,
    pub(crate) breakdown: LatencyBreakdown,
    pub(crate) read_latency: Histogram,
    pub(crate) energy: EnergyBreakdown,
    pub(crate) reads: u64,
    pub(crate) writes: u64,
    pub(crate) row_hit_rate: f64,
    pub(crate) avg_hops: f64,
    pub(crate) kernel: KernelCounters,
    pub(crate) telemetry: Option<Box<PortTelemetry>>,
}

impl PortObservation {
    /// Discrete events the port's network kernel processed to completion:
    /// link arrivals, link-free events and same-instant wakes (see
    /// [`Network::events_processed`]).
    ///
    /// The count is pinned (`event_stream_is_pinned`, `BENCH_kernel.json`),
    /// so a kernel change that moves it shows up as a diff in the same
    /// change. It is the denominator `kernel_bench` uses to turn wall time
    /// into events/sec.
    pub fn kernel_events(&self) -> u64 {
        self.kernel.events_processed
    }

    /// High-water mark of the network's event queue over the run.
    pub fn event_queue_peak(&self) -> usize {
        self.kernel.queue_peak as usize
    }

    /// The full kernel counter snapshot for this port: queue traffic,
    /// arena high-water mark, and the steady-state heap-allocation tally
    /// (non-zero only under a counting allocator, e.g. `kernel_bench`).
    pub fn kernel_counters(&self) -> KernelCounters {
        self.kernel
    }

    /// The port's telemetry, when the run's trace mode was not `Off`.
    pub fn telemetry(&self) -> Option<&PortTelemetry> {
        self.telemetry.as_deref()
    }

    /// Extracts the port's telemetry, leaving `None` behind (the merge
    /// into a [`crate::RunResult`] consumes it this way so the rollup
    /// is moved, not copied).
    pub fn take_telemetry(&mut self) -> Option<Box<PortTelemetry>> {
        self.telemetry.take()
    }
}

/// The end-to-end simulator for one port's memory network.
#[derive(Debug)]
pub(crate) struct PortSim {
    topo: Arc<Topology>,
    net: Network,
    addr_map: AddressMap,
    /// Quadrant controllers for every cube, flattened into one dense array
    /// (`QUADRANTS` consecutive entries per cube, in node order).
    ctrl: Vec<QuadrantController>,
    /// Per-node base index into `ctrl`; `u32::MAX` for host/interface
    /// nodes, which have no memory behind them.
    ctrl_base: Vec<u32>,
    /// The cube each controller sits in, indexed like `ctrl`.
    ctrl_cube: Vec<NodeId>,
    /// Each controller's `next_event_time`, indexed like `ctrl`
    /// (`SimTime::MAX` = idle): one dense array the controller pass
    /// walks instead of asking every controller.
    ctrl_next: Vec<SimTime>,
    /// Exact minimum of `ctrl_next`. `enqueue` only moves a controller's
    /// next event earlier, so it min-merges there, and the pass that
    /// advances controllers recomputes it from `ctrl_next`; an instant
    /// with no controller due skips the pass on one comparison.
    ctrl_min: SimTime,
    cube_tech: Vec<Option<CubeTech>>,
    trace: TraceGenerator,
    detector: WriteBurstDetector,
    intensity_scale: f64,

    total_requests: u64,
    window: usize,
    write_burst_routing: bool,
    transport_pj_per_bit_hop: f64,
    watchdog_limit: u64,

    /// Wavefront slots waiting out their think time: (due, burst refs).
    thinking: Vec<(SimTime, Vec<MemRef>)>,
    /// Recycled burst buffers: issued bursts return their (emptied) `Vec`
    /// here so the steady state never allocates a fresh one.
    ref_pool: Vec<Vec<MemRef>>,
    /// Reusable completion buffer for controller ticks.
    completions: Vec<Completion>,
    /// Remaining responses per in-flight burst, keyed by the sequential
    /// burst id (a ring-buffer slab, not a hash map — burst ids are issued
    /// monotonically, so lookup is an array index).
    bursts: SeqSlab<u32>,
    next_burst: u64,
    burst_rng: SimRng,
    pulled: u64,
    host_queue: VecDeque<(u64, MemRef, SimTime, u64)>,
    next_token: u64,
    outstanding: usize,
    outstanding_writes: usize,
    write_cap: usize,
    /// Closed-loop congestion window gating injection; `None` is the
    /// open loop (the default), where injection is bounded only by the
    /// wavefront slots and network backpressure — the hot path then pays
    /// a single predicted-not-taken branch.
    window_policy: Option<WindowPolicyImpl>,
    /// Closed-loop rollup (window series, RTT, mark fraction); populated
    /// only when a policy is active *and* telemetry is enabled.
    host_summary: Option<HostSummary>,
    /// In-flight request state keyed by the sequential token. Tokens are
    /// issued FIFO through `host_queue`, so insertion is monotonic and the
    /// slab's window stays proportional to the outstanding count.
    in_flight: SeqSlab<Inflight>,
    pending_responses: Vec<PendingResponse>,
    /// Earliest `ready_at` in `pending_responses` (`SimTime::MAX` when
    /// empty). Pushes min-merge it; it is recomputed only after an
    /// injection pass removed an entry.
    responses_min: SimTime,

    completed: u64,
    reads: u64,
    writes: u64,
    hop_sum: u64,
    breakdown: LatencyBreakdown,
    read_latency: Histogram,
    read_energy: EnergyPj,
    write_energy: EnergyPj,
    last_response_at: SimTime,

    /// Telemetry mode for this run (`Off` keeps every hook below to a
    /// single predicted-not-taken branch).
    telem_mode: TraceConfig,
    /// Latency decomposition folded as phases complete (enabled modes).
    decomp: Decomposition,
    /// Per-source-cube completion/latency tallies (enabled modes).
    fairness: FairnessTracker,
    /// `BankAccess` span tracer, one track per controller (`Full` only).
    ctrl_tracer: LifecycleTracer,
    /// Tracer track per controller, indexed like `ctrl`.
    ctrl_tracks: Vec<u32>,
    /// Host→node zero-contention path cost, `class_idx * n + node`
    /// (populated for cube nodes in enabled modes; zeros otherwise).
    wire_to: Vec<WireCost>,
    /// Node→host zero-contention path cost, same indexing.
    wire_from: Vec<WireCost>,
    /// Control/data packet sizes, for wire-cost evaluation.
    control_bytes: u64,
    data_bytes: u64,
}

/// Dense index for the two routing planes in the wire-cost tables.
#[inline]
fn class_idx(class: PathClass) -> usize {
    match class {
        PathClass::Read => 0,
        PathClass::Write => 1,
    }
}

/// Sums link timing over a routed path.
fn path_cost(topo: &Topology, noc: &mn_noc::NocConfig, links: &[mn_topo::LinkId]) -> WireCost {
    let mut cost = WireCost::default();
    for &l in links {
        let timing = noc.link_timing(topo.link(l).class);
        cost.byte_ps += timing.ps_per_byte;
        cost.fixed_ps += timing.fixed_latency.as_ps();
    }
    cost
}

impl PortSim {
    /// Builds the simulator for one port of `config` running `trace`,
    /// reporting [`SimError::Partitioned`] when fault injection severed
    /// the topology.
    pub(crate) fn try_new(
        config: &SystemConfig,
        trace: TraceGenerator,
    ) -> Result<PortSim, SimError> {
        let placement = config
            .placement()
            .expect("config validated before simulation");
        let topo = Arc::new(
            Topology::build(config.topology, &placement)
                .expect("placement is valid for every topology"),
        );
        // The network shares the topology (`Arc::clone` bumps a refcount;
        // the old path deep-cloned the adjacency and link tables per port).
        let net = Network::try_new(Arc::clone(&topo), config.noc.clone())?;
        let addr_map = AddressMap::new(
            &topo,
            &placement,
            config.interleave_bytes,
            config.banks_per_quadrant,
        );
        let trace_mode = config.noc.trace;
        let mut ctrl = Vec::new();
        let mut ctrl_cube = Vec::new();
        let mut ctrl_base = Vec::with_capacity(topo.node_count());
        let mut cube_tech = Vec::with_capacity(topo.node_count());
        let mut ctrl_tracer = LifecycleTracer::new(if trace_mode.tracing() {
            CTRL_TRACER_CAPACITY
        } else {
            1
        });
        let mut ctrl_tracks = Vec::new();
        for id in topo.node_ids() {
            match topo.node(id).kind {
                mn_topo::NodeKind::Cube(tech) => {
                    let spec = match tech {
                        CubeTech::Dram => MemTechSpec::dram_hbm(),
                        CubeTech::Nvm => MemTechSpec::nvm_pcm(),
                    };
                    ctrl_base.push(u32::try_from(ctrl.len()).expect("controller count fits u32"));
                    for q in 0..QUADRANTS {
                        if trace_mode.tracing() {
                            ctrl_tracks.push(ctrl_tracer.add_track(format!("cube {id} q{q}")));
                        }
                        ctrl.push(QuadrantController::new(
                            spec,
                            config.banks_per_quadrant,
                            config.controller_queue,
                        ));
                        ctrl_cube.push(id);
                    }
                    cube_tech.push(Some(tech));
                }
                _ => {
                    ctrl_base.push(u32::MAX);
                    cube_tech.push(None);
                }
            }
        }
        // Zero-contention wire costs per (routing plane, cube), from the
        // routed paths the network will actually use (fault rerouting
        // included). The decomposition subtracts these from measured
        // phase latencies to expose the queuing component.
        let mut wire_to = Vec::new();
        let mut wire_from = Vec::new();
        if trace_mode.enabled() {
            let n = topo.node_count();
            let host = topo.host();
            wire_to = vec![WireCost::default(); 2 * n];
            wire_from = vec![WireCost::default(); 2 * n];
            for class in [PathClass::Read, PathClass::Write] {
                for id in topo.node_ids() {
                    if cube_tech[id.index()].is_none() {
                        continue;
                    }
                    let slot = class_idx(class) * n + id.index();
                    let to = net.routes().path_links(&topo, class, host, id);
                    let from = net.routes().path_links(&topo, class, id, host);
                    wire_to[slot] = path_cost(&topo, &config.noc, &to);
                    wire_from[slot] = path_cost(&topo, &config.noc, &from);
                }
            }
        }
        let decomp = if trace_mode.enabled() {
            Decomposition::with_max_hops(topo.node_count())
        } else {
            Decomposition::default()
        };
        let fairness = FairnessTracker::new(if trace_mode.enabled() {
            topo.node_count()
        } else {
            0
        });
        // Steady-state sizing: every host-side container is reserved to
        // its backpressure bound up front, so the simulation loop itself
        // never grows one. A burst is at most `1 + 4 * burst_mean` refs
        // (the geometric draw is capped there), `window` slots can each
        // hold one burst, and tokens live from injection to response.
        let burst_hint = (4.0 * trace.profile().burst_mean.max(1.0)) as usize + 1;
        let slot_hint = config.window.max(1);
        Ok(PortSim {
            topo,
            net,
            addr_map,
            ctrl_next: vec![SimTime::MAX; ctrl.len()],
            ctrl,
            ctrl_base,
            ctrl_cube,
            ctrl_min: SimTime::MAX,
            cube_tech,
            trace,
            detector: WriteBurstDetector::paper_default(),
            intensity_scale: config.intensity_scale(),
            total_requests: config.requests_per_port,
            window: config.window,
            write_burst_routing: config.write_burst_routing
                && config.topology == TopologyKind::SkipList,
            transport_pj_per_bit_hop: config.noc.transport_pj_per_bit_hop,
            watchdog_limit: config.watchdog_limit,
            thinking: Vec::with_capacity(slot_hint),
            ref_pool: (0..=slot_hint)
                .map(|_| Vec::with_capacity(burst_hint))
                .collect(),
            completions: Vec::with_capacity(config.controller_queue.max(16)),
            bursts: SeqSlab::with_capacity(2 * slot_hint),
            next_burst: 0,
            burst_rng: SimRng::seed_from(config.seed ^ 0xB0B5_7EA5),
            pulled: 0,
            host_queue: VecDeque::with_capacity(slot_hint * burst_hint),
            next_token: 0,
            outstanding: 0,
            outstanding_writes: 0,
            write_cap: config.host_write_buffer,
            window_policy: config.host.enabled().then(|| {
                config.host.validate();
                config.host.policy.instantiate(&config.host)
            }),
            host_summary: (config.host.enabled() && trace_mode.enabled()).then(HostSummary::new),
            in_flight: SeqSlab::with_capacity(2 * slot_hint * burst_hint),
            pending_responses: Vec::with_capacity(slot_hint * burst_hint),
            responses_min: SimTime::MAX,
            completed: 0,
            reads: 0,
            writes: 0,
            hop_sum: 0,
            breakdown: LatencyBreakdown::default(),
            read_latency: Histogram::new(),
            read_energy: EnergyPj::ZERO,
            write_energy: EnergyPj::ZERO,
            last_response_at: SimTime::ZERO,
            telem_mode: trace_mode,
            decomp,
            fairness,
            ctrl_tracer,
            ctrl_tracks,
            wire_to,
            wire_from,
            control_bytes: u64::from(config.noc.control_bytes),
            data_bytes: u64::from(config.noc.data_bytes),
        })
    }

    /// Runs the port to trace completion.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Stalled`] when the simulation wedges — no
    /// component can make progress while requests remain (deadlock), or
    /// the completion count stays flat for the configured watchdog limit
    /// (livelock). Either way the error carries a state snapshot instead
    /// of hanging the calling worker.
    pub(crate) fn run(mut self) -> Result<PortObservation, SimError> {
        // Steady-state allocation accounting starts here: construction
        // (buffers, arenas, routing tables) is excluded, the simulation
        // loop itself is what must not allocate. The tally is zero unless
        // the binary installed a counting allocator.
        let allocs_at_start = counters::heap_allocs();
        let mut now = SimTime::ZERO;
        // One ready buffer for the whole run; `Network::advance` refills it
        // in place every iteration of the hot loop.
        let mut ready = Vec::new();
        // The watchdog backstops *livelock*: time keeps advancing but no
        // request ever completes (deadlock is caught by `next_time`
        // returning `None`). One observation per simulated instant.
        let mut watchdog = Watchdog::new(self.watchdog_limit.max(1));
        // True when `ready` already holds the network's advance to `now`.
        let mut advanced = false;
        self.spawn_threads();
        while self.completed < self.total_requests {
            self.fixpoint(now, &mut ready, advanced);
            if self.completed >= self.total_requests {
                break;
            }
            if watchdog.observe(self.completed) {
                return Err(self.stall_snapshot(now));
            }
            // Network-only instants: before `external`, only the network
            // has work. A fixpoint there stages and injects nothing, and
            // unless its advance leaves a delivery, it drains, advances
            // controllers and injects responses nothing too. So the network
            // advances alone until a node has a delivery (the fixpoint then
            // takes over at that instant with `ready` in hand) or external
            // work is due. The watchdog observes each such instant, as it
            // would after a fixpoint.
            advanced = false;
            let external = self.external_due();
            while let Some(t) = self.net.next_event_time().filter(|&t| t < external) {
                debug_assert!(t > now && self.external_due() > t);
                now = t;
                self.net.advance(now, &mut ready);
                if !ready.is_empty() {
                    advanced = true;
                    break;
                }
                if watchdog.observe(self.completed) {
                    return Err(self.stall_snapshot(now));
                }
            }
            if !advanced {
                now = match self.next_time(now) {
                    Some(t) => t,
                    None => return Err(self.stall_snapshot(now)),
                };
            }
        }

        let (hits, accesses) = self.row_hit_counts();
        let delivered = self.net.stats().delivered.value().max(1);
        let mut kernel = self.net.kernel_counters();
        kernel.steady_heap_allocs = counters::heap_allocs() - allocs_at_start;
        // Telemetry extraction (labels, rollup) happens after the
        // steady-state allocation tally is frozen: export cost is
        // end-of-run, not hot-loop.
        let telemetry = self.net.take_telemetry().map(|net| {
            Box::new(PortTelemetry {
                summary: TelemetrySummary {
                    decomp: self.decomp,
                    fairness: self.fairness,
                    queue_depth: net.queue_depth.clone(),
                    peak_link_utilization: net.peak_link_utilization(),
                    host: self.host_summary.take(),
                },
                net,
                ctrl_tracer: self.ctrl_tracer,
            })
        });
        Ok(PortObservation {
            wall: self.last_response_at,
            breakdown: self.breakdown,
            read_latency: self.read_latency,
            energy: EnergyBreakdown {
                network: EnergyPj::from_pj(
                    self.net
                        .stats()
                        .transport_energy_pj(self.transport_pj_per_bit_hop),
                ),
                read: self.read_energy,
                write: self.write_energy,
            },
            reads: self.reads,
            writes: self.writes,
            row_hit_rate: if accesses == 0 {
                0.0
            } else {
                hits as f64 / accesses as f64
            },
            avg_hops: self.hop_sum as f64 / delivered as f64,
            kernel,
            telemetry,
        })
    }

    /// One instant's fixpoint: keep moving work between the host model,
    /// the network, and the controllers until nothing changes at `now`.
    /// With `advanced`, `ready` already holds the network's advance to
    /// `now` and the first pass skips it; its stage and inject steps are
    /// then no-ops, as nothing external is due before `now`.
    fn fixpoint(&mut self, now: SimTime, ready: &mut Vec<NodeId>, mut advanced: bool) {
        loop {
            let mut progress = false;
            progress |= self.stage_and_offer(now);
            progress |= self.inject_host(now);
            if !std::mem::take(&mut advanced) {
                self.net.advance(now, ready);
            }
            if !ready.is_empty() {
                progress = true;
                for &node in ready.iter() {
                    self.drain_node(node, now);
                }
            }
            progress |= self.advance_controllers(now);
            progress |= self.inject_responses(now);
            if !progress {
                break;
            }
        }
    }

    /// The [`SimError::Stalled`] snapshot for the current wedged state.
    fn stall_snapshot(&self, now: SimTime) -> SimError {
        SimError::Stalled {
            at: now,
            completed: self.completed,
            total: self.total_requests,
            outstanding: self.outstanding,
            queued: self.host_queue.len(),
            // `outstanding` counts host tokens; packets parked in the
            // network arena with no pending event (e.g. waiting on
            // credits nobody will return) only show up here.
            in_network: self.net.in_flight(),
            flight: self.net.flight_dump(),
        }
    }

    /// Pulls one coalesced burst from the trace: a geometric number of
    /// references (mean = the workload's `burst_mean`) issued back to back.
    /// The burst's think time is the sum of its references' trace gaps
    /// scaled by the slot count (so `window` slots collectively offer the
    /// workload's intensity) and by the §6.1 port-concentration factor.
    fn pull_burst(&mut self) -> Option<(Vec<MemRef>, SimDuration)> {
        if self.pulled >= self.total_requests {
            return None;
        }
        let remaining = self.total_requests - self.pulled;
        let mean = self.trace.profile().burst_mean.max(1.0);
        let p_stop = 1.0 / mean;
        let len = (1 + self.burst_rng.geometric(p_stop, (4.0 * mean) as u64)).min(remaining);
        let mut refs = self.ref_pool.pop().unwrap_or_default();
        refs.reserve(len as usize);
        let mut gap_sum = SimDuration::ZERO;
        for _ in 0..len {
            let r = self.trace.next().expect("trace is infinite");
            gap_sum += r.gap;
            refs.push(r);
        }
        self.pulled += len;
        let think = gap_sum.as_ps() as f64 * self.window as f64 / self.intensity_scale;
        Some((refs, SimDuration::from_ps(think.round() as u64)))
    }

    /// Seeds each wavefront slot with its first burst, staggered by a
    /// think-time sample (the memoryless steady state).
    fn spawn_threads(&mut self) {
        for _ in 0..self.window {
            let Some((refs, think)) = self.pull_burst() else {
                break;
            };
            self.thinking.push((SimTime::ZERO + think, refs));
        }
    }

    /// A slot's burst fully completed at `at`: think toward the next one.
    fn recycle_thread(&mut self, at: SimTime) {
        if let Some((refs, think)) = self.pull_burst() {
            self.thinking.push((at + think, refs));
        }
    }

    /// Moves slots whose think time has elapsed into the host issue queue,
    /// issuing their whole burst back to back.
    fn stage_and_offer(&mut self, now: SimTime) -> bool {
        let mut progress = false;
        let mut i = 0;
        while i < self.thinking.len() {
            if self.thinking[i].0 <= now {
                let (due, mut refs) = self.thinking.swap_remove(i);
                let burst = self.next_burst;
                self.next_burst += 1;
                // A slot waits only for its reads (§4.2: writes are off
                // the critical path). All-write bursts recycle as soon as
                // the writes have been issued.
                let reads = refs.iter().filter(|r| !r.is_write).count() as u32;
                self.bursts.insert(burst, reads);
                for r in refs.drain(..) {
                    let token = self.next_token;
                    self.next_token += 1;
                    self.host_queue.push_back((token, r, due, burst));
                }
                self.ref_pool.push(refs);
                progress = true;
            } else {
                i += 1;
            }
        }
        progress
    }

    /// Injects queued host requests while the window and buffers allow.
    fn inject_host(&mut self, now: SimTime) -> bool {
        let mut progress = false;
        while let Some(&(token, r, offered_at, burst)) = self.host_queue.front() {
            if offered_at > now {
                break;
            }
            // Closed loop: the congestion window caps outstanding
            // requests. `window()` is always ≥ 1, so the gate re-opens
            // as soon as a response drains — no deadlock is possible.
            if let Some(policy) = &self.window_policy {
                if self.outstanding >= policy.window() as usize {
                    break;
                }
            }
            // The host write buffer is full: stall issue until acks drain.
            if r.is_write && self.outstanding_writes >= self.write_cap {
                break;
            }
            let decoded = self.addr_map.decode(r.addr);
            let kind = if r.is_write {
                PacketKind::WriteRequest
            } else {
                PacketKind::ReadRequest
            };
            let mut packet = Packet::request(token, kind, self.topo.host(), decoded.cube);
            if r.is_write && self.write_burst_routing && self.detector.in_burst() {
                packet = packet.with_class(PathClass::Read);
            }
            if !self.net.can_inject(self.topo.host(), 0, &packet) {
                break;
            }
            self.detector.observe(r.is_write);
            let tech = self.cube_tech[decoded.cube.index()].expect("request targets a cube");
            self.in_flight.insert(
                token,
                Inflight {
                    offered_at,
                    arrived_at_cube: SimTime::ZERO,
                    mem_done: SimTime::ZERO,
                    decoded,
                    request: packet.clone(),
                    tech,
                    burst,
                },
            );
            self.net
                .inject(self.topo.host(), 0, packet, now)
                .expect("can_inject checked");
            self.outstanding += 1;
            if r.is_write {
                self.outstanding_writes += 1;
            }
            self.host_queue.pop_front();
            // A burst with no reads frees its slot once fully issued.
            let burst_fully_issued = self
                .host_queue
                .front()
                .is_none_or(|&(_, _, _, b)| b != burst);
            if burst_fully_issued && self.bursts.get(burst) == Some(&0) {
                self.bursts.remove(burst);
                self.recycle_thread(now);
            }
            progress = true;
        }
        progress
    }

    /// Consumes deliveries at `node`: responses at the host, requests at
    /// cubes (respecting controller backpressure).
    fn drain_node(&mut self, node: NodeId, now: SimTime) {
        if node == self.topo.host() {
            while let Some(d) = self.net.take_delivery(node, now) {
                self.finish_request(d.packet, d.arrived_at);
            }
            return;
        }
        // A cube: admit requests while their quadrant controller has room.
        let base = self.ctrl_base[node.index()] as usize;
        debug_assert!(base != u32::MAX as usize, "deliveries only at cubes");
        while let Some(head) = self.net.peek_delivery(node) {
            let token = head.token;
            let rec = self.in_flight.get(token).expect("request is in flight");
            let quadrant = rec.decoded.quadrant;
            let is_write = head.kind == PacketKind::WriteRequest;
            if !self.ctrl[base + quadrant as usize].has_space(is_write) {
                break;
            }
            let d = self.net.take_delivery(node, now).expect("peeked");
            self.hop_sum += u64::from(d.packet.hops());
            let rec = self.in_flight.get_mut(token).expect("in flight");
            rec.arrived_at_cube = d.arrived_at;
            // Carry any ECN mark picked up en route onto the stored
            // request, so `Packet::response_to` echoes it back to the
            // host (marks can also be added on the return path).
            rec.request.marked |= d.packet.marked;
            self.breakdown
                .to_memory
                .record(d.arrived_at.saturating_since(rec.offered_at));
            if self.telem_mode.enabled() {
                let phase = d.arrived_at.saturating_since(rec.offered_at);
                let bytes = if d.packet.kind.carries_data() {
                    self.data_bytes
                } else {
                    self.control_bytes
                };
                let slot = class_idx(d.packet.class) * self.topo.node_count() + node.index();
                // Clamp so queue + wire always reconstruct the phase.
                let wire = self.wire_to[slot].wire(bytes).min(phase);
                self.decomp.record_request(phase.saturating_sub(wire), wire);
            }
            // Requests entering via the wrong quadrant pay 1 ns to cross
            // the cube-internal switch (§5). With four quadrants, three of
            // four uniformly interleaved requests pay it; quadrant 0 is the
            // link-adjacent one in this model.
            let penalty = if quadrant == 0 {
                SimDuration::ZERO
            } else {
                WRONG_QUADRANT_PENALTY
            };
            let access = if d.packet.kind == PacketKind::WriteRequest {
                MemAccess::write(token, rec.decoded.bank, rec.decoded.row)
            } else {
                MemAccess::read(token, rec.decoded.bank, rec.decoded.row)
            };
            let i = base + quadrant as usize;
            self.ctrl[i]
                .enqueue(access, now + penalty)
                .expect("has_space checked");
            // Enqueueing can only move this controller's next event
            // earlier, so a min-merge keeps the cache exact.
            let next = self.ctrl[i].next_event_time().unwrap_or(SimTime::MAX);
            self.ctrl_next[i] = next;
            self.ctrl_min = self.ctrl_min.min(next);
        }
    }

    /// Advances every controller that can act at `now`; queues responses.
    fn advance_controllers(&mut self, now: SimTime) -> bool {
        // No controller is due: the pass below would only skip each one.
        // The cache is the exact minimum, so this early-out is
        // behavior-preserving.
        if self.ctrl_min > now {
            return false;
        }
        let mut progress = false;
        let mut min = SimTime::MAX;
        // One completion buffer for the whole pass (and, via the struct
        // field, for the whole run) — `advance_into` appends in place.
        let mut done = std::mem::take(&mut self.completions);
        // Ascending controller index is node order, then quadrant order.
        for i in 0..self.ctrl.len() {
            if self.ctrl_next[i] > now {
                min = min.min(self.ctrl_next[i]);
                continue;
            }
            let ctrl = &mut self.ctrl[i];
            done.clear();
            ctrl.advance_into(now, &mut done);
            let next = ctrl.next_event_time().unwrap_or(SimTime::MAX);
            self.ctrl_next[i] = next;
            min = min.min(next);
            let spec = *ctrl.spec();
            for c in done.drain(..) {
                progress = true;
                let rec = self
                    .in_flight
                    .get_mut(c.token)
                    .expect("completion maps to in-flight request");
                rec.mem_done = c.completed_at;
                self.breakdown
                    .in_memory
                    .record(c.completed_at.saturating_since(rec.arrived_at_cube));
                if self.telem_mode.enabled() {
                    let service = c.completed_at.saturating_since(rec.arrived_at_cube);
                    self.decomp.record_array(service);
                    if self.telem_mode.tracing() {
                        self.ctrl_tracer.record(TraceEvent {
                            ts_ps: rec.arrived_at_cube.as_ps(),
                            dur_ps: service.as_ps(),
                            track: self.ctrl_tracks[i],
                            kind: TraceEventKind::BankAccess,
                            packet: c.token,
                        });
                    }
                }
                let energy = EnergyPj::array_access(&spec.energy, ACCESS_BITS, c.is_write);
                if c.is_write {
                    self.write_energy += energy;
                } else {
                    self.read_energy += energy;
                }
                let response = Packet::response_to(&rec.request, rec.tech == CubeTech::Nvm);
                self.responses_min = self.responses_min.min(c.completed_at);
                self.pending_responses.push(PendingResponse {
                    ready_at: c.completed_at,
                    cube: self.ctrl_cube[i],
                    quadrant: i as u32 % QUADRANTS,
                    packet: response,
                });
            }
        }
        self.completions = done;
        // Advancing pushes next-event times later (or to idle); the pass
        // folded the new minimum from `ctrl_next` as it went.
        self.ctrl_min = min;
        #[cfg(debug_assertions)]
        self.assert_ctrl_next();
        progress
    }

    /// Checks `ctrl_next` and `ctrl_min` against the controllers' own
    /// memoized next-event times.
    #[cfg(debug_assertions)]
    fn assert_ctrl_next(&self) {
        for (i, ctrl) in self.ctrl.iter().enumerate() {
            assert_eq!(
                self.ctrl_next[i],
                ctrl.next_event_time().unwrap_or(SimTime::MAX),
                "stale wake time for controller {i}"
            );
        }
        assert_eq!(
            self.ctrl_min,
            self.ctrl_next.iter().copied().min().unwrap_or(SimTime::MAX)
        );
    }

    /// Injects completed responses whose data is ready and whose local
    /// injection buffer has space.
    fn inject_responses(&mut self, now: SimTime) -> bool {
        if self.responses_min > now {
            return false;
        }
        let mut progress = false;
        let mut i = 0;
        while i < self.pending_responses.len() {
            let p = &self.pending_responses[i];
            if p.ready_at <= now && self.net.can_inject(p.cube, p.quadrant as usize, &p.packet) {
                let p = self.pending_responses.swap_remove(i);
                self.net
                    .inject(p.cube, p.quadrant as usize, p.packet, now)
                    .expect("can_inject checked");
                progress = true;
            } else {
                i += 1;
            }
        }
        if progress {
            self.responses_min = self
                .pending_responses
                .iter()
                .map(|p| p.ready_at)
                .min()
                .unwrap_or(SimTime::MAX);
        }
        progress
    }

    fn finish_request(&mut self, response: Packet, at: SimTime) {
        self.hop_sum += u64::from(response.hops());
        let rec = self
            .in_flight
            .remove(response.token)
            .expect("response maps to in-flight request");
        let mem_done = rec.mem_done;
        self.breakdown
            .from_memory
            .record(at.saturating_since(mem_done));
        if self.telem_mode.enabled() {
            let phase = at.saturating_since(mem_done);
            let bytes = if response.kind.carries_data() {
                self.data_bytes
            } else {
                self.control_bytes
            };
            let slot =
                class_idx(response.class) * self.topo.node_count() + rec.decoded.cube.index();
            let wire = self.wire_from[slot].wire(bytes).min(phase);
            self.decomp
                .record_response(phase.saturating_sub(wire), wire);
            let total = at.saturating_since(rec.offered_at);
            self.decomp.record_total(response.hops() as usize, total);
            self.fairness.record(rec.decoded.cube.index(), total);
        }
        self.outstanding -= 1;
        self.completed += 1;
        // Closed loop: every completion — reads and write acks alike —
        // feeds its RTT and ECN mark back into the window policy.
        if let Some(policy) = &mut self.window_policy {
            let rtt = at.saturating_since(rec.offered_at);
            policy.on_response(rtt, response.marked);
            if let Some(summary) = &mut self.host_summary {
                summary.record(at.as_ps(), policy.window(), rtt, response.marked);
            }
        }
        self.last_response_at = self.last_response_at.max(at);
        if response.kind == PacketKind::WriteAck {
            self.writes += 1;
            self.outstanding_writes -= 1;
            // Writes do not hold their slot (§4.2).
            return;
        }
        self.reads += 1;
        self.read_latency
            .record(at.saturating_since(rec.offered_at));
        // The slot recycles when its last read returns; any writes of the
        // burst still queued follow on their own.
        if let Some(remaining) = self.bursts.get_mut(rec.burst) {
            *remaining -= 1;
            if *remaining == 0 {
                self.bursts.remove(rec.burst);
                self.recycle_thread(at);
            }
        }
    }

    /// The earliest instant at which anything outside the network can
    /// act: a controller, a pending response, the host queue's front, or
    /// a thinking slot.
    fn external_due(&self) -> SimTime {
        let host = self
            .host_queue
            .front()
            .map_or(SimTime::MAX, |&(_, _, offered_at, _)| offered_at);
        self.thinking.iter().fold(
            self.ctrl_min.min(self.responses_min).min(host),
            |t, &(due, _)| t.min(due),
        )
    }

    /// The earliest instant any component can make further progress.
    fn next_time(&self, now: SimTime) -> Option<SimTime> {
        let mut next: Option<SimTime> = None;
        let mut consider = |t: SimTime| {
            // `SimTime::MAX` marks an idle component.
            if t > now && t != SimTime::MAX {
                next = Some(next.map_or(t, |n| n.min(t)));
            }
        };
        for &(due, _) in &self.thinking {
            consider(due.max(now + SimDuration::from_ps(1)));
        }
        if let Some(t) = self.net.next_event_time() {
            consider(t.max(now + SimDuration::from_ps(1)));
        }
        consider(self.ctrl_min.max(now + SimDuration::from_ps(1)));
        if self.responses_min > now {
            consider(self.responses_min);
        } else {
            // A due response is still pending only because its cube's
            // injection buffer refused it, and only a network event can
            // free that buffer: the responses that wake the port are the
            // ones not ready yet.
            for p in &self.pending_responses {
                consider(p.ready_at);
            }
        }
        next
    }

    fn row_hit_counts(&self) -> (u64, u64) {
        let mut hits = 0;
        let mut total = 0;
        for ctrl in &self.ctrl {
            total += ctrl.accesses();
            hits += ctrl.row_hits();
        }
        (hits, total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mn_workloads::Workload;

    fn quick_config(topology: TopologyKind, dram_fraction: f64) -> SystemConfig {
        let mut c = SystemConfig::paper_baseline(topology, dram_fraction).unwrap();
        c.requests_per_port = 500;
        c
    }

    fn try_run(config: &SystemConfig, workload: Workload) -> Result<PortObservation, SimError> {
        let space = config.capacity_per_port_gb() * (1 << 30);
        let mut profile = workload.profile();
        profile.footprint_fraction = 1.0;
        let trace = TraceGenerator::new(profile, space, config.seed);
        PortSim::try_new(config, trace)?.run()
    }

    fn run(config: &SystemConfig, workload: Workload) -> PortObservation {
        try_run(config, workload).expect("simulation completes")
    }

    #[test]
    fn completes_all_requests() {
        let c = quick_config(TopologyKind::Chain, 1.0);
        let r = run(&c, Workload::Dct);
        assert_eq!(r.reads + r.writes, 500);
        assert!(r.wall > SimTime::ZERO);
        assert!(r.breakdown.to_memory.count() == 500);
        assert!(r.breakdown.in_memory.count() == 500);
        assert!(r.breakdown.from_memory.count() == 500);
    }

    /// Pins the kernel's event stream: the number of events a run
    /// dispatches and the high-water mark of the network's queue and lane.
    /// A changed count means the event stream itself moved, and with it,
    /// possibly, every result byte: a change that moves it re-pins it here
    /// and shows every result unchanged.
    #[test]
    fn event_stream_is_pinned() {
        for (topology, workload, events, peak) in [
            (TopologyKind::Chain, Workload::Dct, 30_097, 34),
            (TopologyKind::SkipList, Workload::Kmeans, 17_608, 34),
        ] {
            let r = run(&quick_config(topology, 1.0), workload);
            assert_eq!(r.kernel_events(), events, "{topology:?} events");
            assert_eq!(r.event_queue_peak(), peak, "{topology:?} queue peak");
        }
    }

    #[test]
    fn tree_beats_chain() {
        let chain = run(&quick_config(TopologyKind::Chain, 1.0), Workload::Bit);
        let tree = run(&quick_config(TopologyKind::Tree, 1.0), Workload::Bit);
        assert!(
            tree.wall < chain.wall,
            "tree {} vs chain {}",
            tree.wall,
            chain.wall
        );
        assert!(tree.avg_hops < chain.avg_hops);
    }

    #[test]
    fn deterministic_across_runs() {
        let c = quick_config(TopologyKind::Ring, 1.0);
        let a = run(&c, Workload::Kmeans);
        let b = run(&c, Workload::Kmeans);
        assert_eq!(a.wall, b.wall);
        assert_eq!(a.reads, b.reads);
    }

    #[test]
    fn read_write_mix_matches_workload() {
        let c = quick_config(TopologyKind::Tree, 1.0);
        let r = run(&c, Workload::Kmeans);
        let frac = r.reads as f64 / 500.0;
        assert!((frac - 0.8).abs() < 0.06, "read fraction {frac}");
    }

    #[test]
    fn nvm_write_energy_dominates_all_nvm() {
        let c = quick_config(TopologyKind::Chain, 0.0);
        let r = run(&c, Workload::Bit); // 50% writes
        assert!(r.energy.write > r.energy.read * 5.0);
    }

    #[test]
    fn energy_components_positive() {
        let c = quick_config(TopologyKind::Tree, 1.0);
        let r = run(&c, Workload::Dct);
        assert!(r.energy.network.as_pj() > 0.0);
        assert!(r.energy.read.as_pj() > 0.0);
        assert!(r.energy.write.as_pj() > 0.0);
    }

    #[test]
    fn all_nvm_has_higher_memory_latency() {
        let dram = run(&quick_config(TopologyKind::Tree, 1.0), Workload::Nw);
        let nvm = run(&quick_config(TopologyKind::Tree, 0.0), Workload::Nw);
        assert!(nvm.breakdown.in_memory.mean_ns() > dram.breakdown.in_memory.mean_ns());
    }

    #[test]
    fn skiplist_write_burst_routing_runs() {
        let mut c = quick_config(TopologyKind::SkipList, 1.0);
        c.write_burst_routing = true;
        let r = run(&c, Workload::Backprop);
        assert_eq!(r.reads + r.writes, 500);
    }

    #[test]
    fn tight_write_cap_throttles_write_heavy_traffic() {
        let mut loose = quick_config(TopologyKind::SkipList, 1.0);
        loose.host_write_buffer = 64;
        let mut tight = loose.clone();
        tight.host_write_buffer = 2;
        let fast = run(&loose, Workload::Backprop);
        let slow = run(&tight, Workload::Backprop);
        assert!(
            slow.wall > fast.wall,
            "a 2-entry write buffer must stall issue: {} vs {}",
            slow.wall,
            fast.wall
        );
    }

    #[test]
    fn mesh_extension_runs_end_to_end() {
        let r = run(&quick_config(TopologyKind::Mesh, 1.0), Workload::Dct);
        assert_eq!(r.reads + r.writes, 500);
        // A 4x4 mesh averages more hops than a ternary tree.
        let tree = run(&quick_config(TopologyKind::Tree, 1.0), Workload::Dct);
        assert!(r.avg_hops > tree.avg_hops);
    }

    #[test]
    fn oracle_age_arbitration_runs() {
        let c = quick_config(TopologyKind::Chain, 1.0).with_arbiter(mn_noc::ArbiterKind::OracleAge);
        let r = run(&c, Workload::Bit);
        assert_eq!(r.reads + r.writes, 500);
    }

    #[test]
    fn metacube_runs_all_mixes() {
        for frac in [1.0, 0.5, 0.0] {
            let r = run(&quick_config(TopologyKind::MetaCube, frac), Workload::Buff);
            assert_eq!(r.reads + r.writes, 500, "fraction {frac}");
        }
    }

    #[test]
    fn full_tracing_does_not_perturb_results() {
        let c = quick_config(TopologyKind::SkipList, 0.5);
        let base = run(&c, Workload::Kmeans);
        let mut traced_cfg = c.clone();
        traced_cfg.noc.trace = TraceConfig::Full;
        let traced = run(&traced_cfg, Workload::Kmeans);
        // Observation must not perturb: identical event stream, wall
        // clock, and statistics with telemetry fully armed.
        assert_eq!(base.wall, traced.wall);
        assert_eq!(base.kernel_events(), traced.kernel_events());
        assert_eq!(base.reads, traced.reads);
        assert_eq!(
            base.breakdown.to_memory.mean_ns(),
            traced.breakdown.to_memory.mean_ns()
        );
        assert!(base.telemetry().is_none());

        let t = traced.telemetry().expect("full mode collects telemetry");
        let d = &t.summary.decomp;
        // The three decomposition components reconstruct the measured
        // end-to-end mean exactly (each phase is split losslessly).
        let sum = d.request_ns() + d.array_ns() + d.response_ns();
        let measured = d.end_to_end().mean_ns();
        assert!(
            (sum - measured).abs() < 1e-6,
            "components {sum} vs end-to-end {measured}"
        );
        assert_eq!(d.end_to_end().count(), 500);
        let jain = t.summary.fairness.jain();
        assert!(jain > 0.0 && jain <= 1.0, "jain {jain}");
        assert!(t.summary.fairness.active_sources() > 1);
        assert!(t.summary.queue_depth.total() > 0);
        assert!(t.summary.peak_link_utilization > 0.0);
        assert!(!t.net.tracer.is_empty(), "link tracer saw events");
        assert!(!t.ctrl_tracer.is_empty(), "bank spans recorded");
    }

    #[test]
    fn counters_mode_skips_rings_but_keeps_rollup() {
        let mut c = quick_config(TopologyKind::Chain, 1.0);
        c.noc.trace = TraceConfig::Counters;
        let r = run(&c, Workload::Dct);
        let t = r.telemetry().expect("counters mode collects the rollup");
        assert!(!t.summary.decomp.is_empty());
        assert!(
            t.net.tracer.is_empty(),
            "no per-event rings in counters mode"
        );
        assert!(t.ctrl_tracer.is_empty());
    }

    #[test]
    fn wedged_network_returns_stalled() {
        // A zero-entry write buffer blocks the first write forever: issue
        // deadlocks once a write reaches the queue head and nothing is in
        // flight. The driver must diagnose the wedge, not hang or panic.
        let mut c = quick_config(TopologyKind::Chain, 1.0);
        c.total_capacity_gb = 16 * c.ports as u64 * 2; // two-cube chain
        c.host_write_buffer = 0;
        let err = try_run(&c, Workload::Backprop).expect_err("write-heavy trace must wedge");
        match err {
            SimError::Stalled {
                completed,
                total,
                queued,
                ..
            } => {
                assert!(completed < total, "stall means incomplete");
                assert!(queued > 0, "the blocked write sits in the queue");
            }
            other => panic!("expected Stalled, got {other:?}"),
        }
    }

    #[test]
    fn partitioned_chain_returns_partitioned() {
        let mut c = quick_config(TopologyKind::Chain, 1.0);
        c.noc.fault.link_kill_rate = 0.3;
        let err = (0..50)
            .find_map(|seed| {
                let mut c = c.clone();
                c.noc.fault.seed = seed;
                try_run(&c, Workload::Dct).err()
            })
            .expect("some seed kills a chain link");
        match err {
            SimError::Partitioned { unreachable } => assert!(!unreachable.is_empty()),
            other => panic!("expected Partitioned, got {other:?}"),
        }
    }

    #[test]
    fn faulted_run_completes_with_extra_latency() {
        // Transient CRC faults slow a ring down but never lose requests.
        let c = quick_config(TopologyKind::Ring, 1.0);
        let healthy = run(&c, Workload::Dct);
        let mut faulty_cfg = c.clone();
        faulty_cfg.noc.fault.transient_rate = 0.05;
        faulty_cfg.noc.fault.seed = 7;
        let faulty = run(&faulty_cfg, Workload::Dct);
        assert_eq!(faulty.reads + faulty.writes, 500);
        assert!(
            faulty.wall > healthy.wall,
            "faults cost latency: {} vs {}",
            faulty.wall,
            healthy.wall
        );
    }

    #[test]
    fn faulted_run_is_deterministic() {
        let mut c = quick_config(TopologyKind::SkipList, 1.0);
        c.noc.fault.transient_rate = 0.02;
        c.noc.fault.degrade_rate = 0.1;
        c.noc.fault.seed = 3;
        let a = run(&c, Workload::Kmeans);
        let b = run(&c, Workload::Kmeans);
        assert_eq!(a.wall, b.wall);
        assert_eq!(a.kernel_events(), b.kernel_events());
    }

    #[test]
    fn open_loop_default_has_no_policy_and_identical_results() {
        // A config whose host block is the default must behave byte-for-
        // byte like one that never heard of mn-host: same wall clock and
        // event stream as the pinned expectations of the other tests.
        let c = quick_config(TopologyKind::Chain, 1.0);
        assert!(!c.host.enabled());
        let r = run(&c, Workload::Dct);
        assert_eq!(r.reads + r.writes, 500);
    }

    /// A due response that its cube's full injection buffer refuses
    /// waits for the next network event, not for the next picosecond:
    /// under a watchdog limit far below the picoseconds such waits span,
    /// the run completes exactly as it does under the default limit.
    #[test]
    fn refused_responses_wait_for_the_network_not_each_picosecond() {
        let mut c = quick_config(TopologyKind::Chain, 1.0);
        c.requests_per_port = 1_000;
        c.window = 16;
        c.noc.buffer_packets = 1;
        let unbounded = run(&c, Workload::Nw);
        c.watchdog_limit = 2_000;
        let tight = try_run(&c, Workload::Nw).expect("no stall under a 2,000-instant watchdog");
        assert_eq!(tight.wall, unbounded.wall);
        assert_eq!(
            tight.row_hit_rate.to_bits(),
            unbounded.row_hit_rate.to_bits()
        );
        assert_eq!(tight.kernel_events(), unbounded.kernel_events());
    }

    #[test]
    fn fixed_window_throttles_and_completes() {
        use mn_host::WindowPolicyKind;
        let open = run(&quick_config(TopologyKind::Chain, 1.0), Workload::Bit);
        let mut c = quick_config(TopologyKind::Chain, 1.0);
        c.host.policy = WindowPolicyKind::Fixed(1);
        let throttled = run(&c, Workload::Bit);
        // One outstanding request at a time still finishes the trace —
        // the gate can never deadlock — but serializes the round trips.
        assert_eq!(throttled.reads + throttled.writes, 500);
        assert!(
            throttled.wall > open.wall,
            "window of 1 must stretch the run: {} vs {}",
            throttled.wall,
            open.wall
        );
    }

    #[test]
    fn closed_loop_run_is_deterministic() {
        use mn_host::WindowPolicyKind;
        let mut c = quick_config(TopologyKind::SkipList, 1.0);
        c.host.policy = WindowPolicyKind::Aimd;
        let a = run(&c, Workload::Kmeans);
        let b = run(&c, Workload::Kmeans);
        assert_eq!(a.wall, b.wall);
        assert_eq!(a.kernel_events(), b.kernel_events());
    }

    #[test]
    fn closed_loop_rollup_rides_on_telemetry() {
        use mn_host::WindowPolicyKind;
        let mut c = quick_config(TopologyKind::Chain, 1.0);
        c.host.policy = WindowPolicyKind::Ecn;
        c.noc.ecn_threshold = 4;
        c.noc.trace = TraceConfig::Counters;
        let r = run(&c, Workload::Bit);
        let t = r.telemetry().expect("counters mode collects the rollup");
        let host = t.summary.host.as_ref().expect("closed loop records");
        assert_eq!(host.responses, 500);
        assert!(host.peak_window >= host.min_window);
        assert!(host.min_window >= 1);
        assert!(host.rtt.mean_ns() > 0.0);
        assert!(host.window.total_samples() == 500);
        // The report grows a closed-loop section.
        assert!(t.summary.report().contains("closed loop"));

        // Open-loop telemetry keeps host: None.
        let mut c = quick_config(TopologyKind::Chain, 1.0);
        c.noc.trace = TraceConfig::Counters;
        let r = run(&c, Workload::Bit);
        assert!(r.telemetry().unwrap().summary.host.is_none());
    }

    /// Satellite property: AIMD/ECN windows stay within `[1, cap]` under
    /// random fault schedules (the in-tree xoshiro seed loop).
    #[test]
    fn adaptive_windows_bounded_under_fault_schedules() {
        use mn_host::WindowPolicyKind;
        for seed in 0..6u64 {
            let mut sr = SimRng::seed_from(0xFA11_0000 ^ seed);
            for kind in [WindowPolicyKind::Aimd, WindowPolicyKind::Ecn] {
                let mut c = quick_config(TopologyKind::Ring, 1.0);
                c.requests_per_port = 300;
                c.host.policy = kind;
                c.host.window_cap = 16;
                c.noc.ecn_threshold = 3;
                c.noc.trace = TraceConfig::Counters;
                c.noc.fault.transient_rate = sr.unit() * 0.05;
                c.noc.fault.degrade_rate = sr.unit() * 0.1;
                c.noc.fault.seed = sr.next_u64();
                let r = run(&c, Workload::Kmeans);
                let t = r.telemetry().expect("rollup present");
                let host = t.summary.host.as_ref().expect("closed loop records");
                assert!(
                    host.min_window >= 1 && host.peak_window <= c.host.window_cap,
                    "{kind:?} window range [{}, {}] escapes [1, {}] (seed {seed})",
                    host.min_window,
                    host.peak_window,
                    c.host.window_cap
                );
            }
        }
    }
}
