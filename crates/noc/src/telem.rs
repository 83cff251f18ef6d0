//! Network-side telemetry: lifecycle tracing hooks, link/buffer metrics,
//! and the kernel-event flight recorder.
//!
//! Every hook is an `#[inline]` method that returns immediately unless
//! the configured [`TraceConfig`] asks for its data — one predictable
//! branch on an enum, never a virtual call — and all rings and series
//! are pre-sized at network construction, so even `Full` tracing stays
//! allocation-free in the steady state. With tracing `Off` the hooks
//! read no state and write no state: the kernel's event stream and
//! results are byte-identical to an uninstrumented build.

use mn_sim::{SimDuration, SimTime};
use mn_telemetry::{
    FlightRecorder, LifecycleTracer, QueueDepthStats, TimeSeries, TraceConfig, TraceEvent,
    TraceEventKind,
};
use mn_topo::{LinkId, NodeId, Topology};

use crate::packet::PacketId;

/// Lifecycle events retained per network (the tail of the run when the
/// ring wraps; ~10 MB at 40 bytes/event).
const TRACER_CAPACITY: usize = 1 << 18;

/// Kernel events retained for stall post-mortems.
const FLIGHT_CAPACITY: usize = 256;

/// Initial [`TimeSeries`] bucket width (4 ns; the window widens itself
/// for longer runs).
const UTIL_BUCKET_PS: u64 = 4_096;

/// One kernel event retained by the flight recorder. `Copy` — it is
/// formatted only when a watchdog dump actually happens.
#[derive(Debug, Clone, Copy)]
pub(crate) enum FlightEntry {
    /// A packet landed in an input buffer.
    Arrive {
        at: SimTime,
        node: NodeId,
        port: usize,
        packet: PacketId,
    },
    /// A node ran (or skipped) arbitration.
    TryArb { at: SimTime, node: NodeId },
}

impl FlightEntry {
    fn render(&self) -> String {
        match self {
            FlightEntry::Arrive {
                at,
                node,
                port,
                packet,
            } => format!("{at} arrive {packet} at {node} port {port}"),
            FlightEntry::TryArb { at, node } => format!("{at} try-arb {node}"),
        }
    }
}

/// Telemetry collected by one [`crate::Network`], handed to the port
/// simulator when the run ends.
#[derive(Debug)]
pub struct NetTelemetry {
    /// Lifecycle tracer with one track per link and one per node
    /// (empty unless the mode was [`TraceConfig::Full`]).
    pub tracer: LifecycleTracer,
    /// Per-link `(label, busy-time series)` pairs.
    pub link_util: Vec<(String, TimeSeries)>,
    /// Occupancy distribution across every input buffer.
    pub queue_depth: QueueDepthStats,
}

impl NetTelemetry {
    /// Highest per-bucket utilization across all links (0..=1).
    pub fn peak_link_utilization(&self) -> f64 {
        self.link_util
            .iter()
            .map(|(_, ts)| ts.peak())
            .fold(0.0, f64::max)
    }
}

/// The network's internal telemetry state. All storage is sized at
/// construction according to the mode: `Off` allocates nothing beyond
/// three empty vectors.
#[derive(Debug)]
pub(crate) struct NetTelem {
    mode: TraceConfig,
    tracer: LifecycleTracer,
    flight: FlightRecorder<FlightEntry>,
    link_util: Vec<TimeSeries>,
    queue_depth: QueueDepthStats,
    /// Tracer track per link / per node (`Full` only; empty otherwise).
    link_tracks: Vec<u32>,
    node_tracks: Vec<u32>,
}

impl NetTelem {
    pub(crate) fn new(mode: TraceConfig, topo: &Topology) -> NetTelem {
        let mut tracer = LifecycleTracer::new(if mode.tracing() { TRACER_CAPACITY } else { 1 });
        let mut link_tracks = Vec::new();
        let mut node_tracks = Vec::new();
        if mode.tracing() {
            link_tracks = topo
                .link_ids()
                .map(|l| {
                    let info = topo.link(l);
                    tracer.add_track(format!("link {}-{}", info.a, info.b))
                })
                .collect();
            node_tracks = topo
                .node_ids()
                .map(|n| tracer.add_track(format!("node {n}")))
                .collect();
        }
        let link_util = if mode.enabled() {
            vec![TimeSeries::new(UTIL_BUCKET_PS); topo.link_count()]
        } else {
            Vec::new()
        };
        NetTelem {
            mode,
            tracer,
            flight: FlightRecorder::new(if mode.tracing() { FLIGHT_CAPACITY } else { 1 }),
            link_util,
            queue_depth: QueueDepthStats::new(),
            link_tracks,
            node_tracks,
        }
    }

    /// True when per-event rings are armed (mode `Full`).
    #[inline]
    pub(crate) fn tracing(&self) -> bool {
        self.mode.tracing()
    }

    /// A packet entered the network at a local injection port.
    #[inline]
    pub(crate) fn on_inject(&mut self, now: SimTime, node: NodeId, packet: PacketId, depth: usize) {
        if !self.mode.enabled() {
            return;
        }
        self.queue_depth.record(depth as u64);
        if self.mode.tracing() {
            self.tracer.record(TraceEvent {
                ts_ps: now.as_ps(),
                dur_ps: 0,
                track: self.node_tracks[node.index()],
                kind: TraceEventKind::Inject,
                packet: packet.0,
            });
        }
    }

    /// A packet landed in `node`'s input buffer (post-traversal).
    #[inline]
    pub(crate) fn on_enqueue(
        &mut self,
        now: SimTime,
        node: NodeId,
        packet: PacketId,
        depth: usize,
    ) {
        if !self.mode.enabled() {
            return;
        }
        self.queue_depth.record(depth as u64);
        if self.mode.tracing() {
            self.tracer.record(TraceEvent {
                ts_ps: now.as_ps(),
                dur_ps: 0,
                track: self.node_tracks[node.index()],
                kind: TraceEventKind::Enqueue,
                packet: packet.0,
            });
        }
    }

    /// A packet won link-output arbitration and occupies `link` for
    /// `ser`; `stretched` marks fault-stretched occupancy (CRC retry or
    /// lane degradation).
    #[inline]
    pub(crate) fn on_link_send(
        &mut self,
        now: SimTime,
        link: LinkId,
        packet: PacketId,
        ser: SimDuration,
        stretched: bool,
    ) {
        if !self.mode.enabled() {
            return;
        }
        self.link_util[link.index()].record(now.as_ps(), ser.as_ps());
        if self.mode.tracing() {
            let track = self.link_tracks[link.index()];
            self.tracer.record(TraceEvent {
                ts_ps: now.as_ps(),
                dur_ps: 0,
                track,
                kind: TraceEventKind::ArbWin,
                packet: packet.0,
            });
            self.tracer.record(TraceEvent {
                ts_ps: now.as_ps(),
                dur_ps: ser.as_ps(),
                track,
                kind: TraceEventKind::Traverse,
                packet: packet.0,
            });
            if stretched {
                self.tracer.record(TraceEvent {
                    ts_ps: now.as_ps(),
                    dur_ps: 0,
                    track,
                    kind: TraceEventKind::Retry,
                    packet: packet.0,
                });
            }
        }
    }

    /// A packet moved into `node`'s ejection buffer. `Full` only (there
    /// is no counters-mode aggregate for ejection).
    #[inline]
    pub(crate) fn on_eject(&mut self, now: SimTime, node: NodeId, packet: PacketId) {
        if !self.mode.tracing() {
            return;
        }
        self.tracer.record(TraceEvent {
            ts_ps: now.as_ps(),
            dur_ps: 0,
            track: self.node_tracks[node.index()],
            kind: TraceEventKind::Eject,
            packet: packet.0,
        });
    }

    /// A kernel event was popped; retain it for stall post-mortems.
    /// `Full` only — the caller gates on [`NetTelem::tracing`] to avoid
    /// building the entry at all otherwise.
    #[inline]
    pub(crate) fn on_kernel_event(&mut self, entry: FlightEntry) {
        self.flight.push(entry);
    }

    /// Formats the flight recorder's contents, oldest first (empty
    /// unless the mode was `Full`).
    pub(crate) fn flight_dump(&self) -> Vec<String> {
        self.flight.iter().map(FlightEntry::render).collect()
    }

    /// Extracts the collected telemetry, labeling link series from the
    /// topology. `None` when the mode was `Off`.
    pub(crate) fn take(&mut self, topo: &Topology) -> Option<NetTelemetry> {
        if !self.mode.enabled() {
            return None;
        }
        let link_util = std::mem::take(&mut self.link_util)
            .into_iter()
            .zip(topo.link_ids())
            .map(|(ts, l)| {
                let info = topo.link(l);
                (format!("link {}-{}", info.a, info.b), ts)
            })
            .collect();
        Some(NetTelemetry {
            tracer: std::mem::replace(&mut self.tracer, LifecycleTracer::new(1)),
            link_util,
            queue_depth: std::mem::take(&mut self.queue_depth),
        })
    }
}
