//! Structured simulation failures.
//!
//! A simulation that cannot complete must say *why* — a worker pool that
//! sees a panic (or worse, a hang) has nothing to report against the grid
//! point that caused it. [`SimError`] is the diagnosis: construction-time
//! partitions (fault injection severed the topology) and runtime stalls
//! (the driver stopped making progress, caught either by event-queue
//! exhaustion or by the livelock watchdog) both surface as values that
//! travel through channels, format into campaign records, and compare in
//! tests.

use std::error::Error;
use std::fmt;

use mn_noc::NetworkError;
use mn_sim::SimTime;
use mn_topo::NodeId;

/// Why a port simulation could not produce an observation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// Hard link faults partitioned the memory network at construction:
    /// the listed cubes have no route to the host on some path class, so
    /// the configured traffic can never complete.
    Partitioned {
        /// Cubes unreachable from the host (ascending id order).
        unreachable: Vec<NodeId>,
    },
    /// The simulation stopped making progress with requests outstanding —
    /// either no component had a next event (deadlock) or the completion
    /// count stayed flat past the watchdog limit (livelock). The snapshot
    /// captures the wedged state for diagnosis.
    Stalled {
        /// Simulated time at which progress stopped.
        at: SimTime,
        /// Requests completed before the stall.
        completed: u64,
        /// Requests the run was configured to complete.
        total: u64,
        /// Requests in flight (injected, no response) at the stall.
        outstanding: usize,
        /// Requests still queued at the host at the stall.
        queued: usize,
        /// Packets resident in the network (injected, not delivered) at
        /// the stall. This includes arena-resident packets with **no
        /// pending kernel event** — packets parked on backpressured
        /// buffers waiting for credits — which the host-side counts
        /// above cannot see, and which are exactly what a credit
        /// deadlock strands.
        in_network: u64,
        /// The last kernel events before the stall, oldest first, from
        /// the network's flight recorder. Empty unless the run traced
        /// with [`mn_noc::TraceConfig::Full`].
        flight: Vec<String>,
        /// Final per-shard progress counters from a sharded attempt that
        /// aborted before this (authoritative) serial rerun also stalled.
        /// Empty for serial runs and for sharded runs that never engaged
        /// the parallel path — when present, it shows *where* the
        /// conservative-PDES execution wedged without rerunning serial.
        shard_progress: Vec<u64>,
    },
    /// A router node has more ports than the network model supports (see
    /// [`mn_noc::MAX_NODE_PORTS`]); reported at construction.
    TooManyPorts {
        /// The first node over the bound.
        node: NodeId,
        /// Its link ports plus local injection ports.
        ports: usize,
    },
}

impl SimError {
    /// Whether a retry of the same point could plausibly succeed.
    ///
    /// A [`SimError::Stalled`] run is retryable: livelock trips depend on
    /// the watchdog budget, which a retrying scheduler escalates (see
    /// [`crate::SystemConfig::escalate_watchdog`]). A
    /// [`SimError::Partitioned`] network is deterministic in the fault
    /// schedule — the same configuration partitions on every attempt — so
    /// retrying it only burns cycles.
    pub fn is_retryable(&self) -> bool {
        match self {
            SimError::Partitioned { .. } | SimError::TooManyPorts { .. } => false,
            SimError::Stalled { .. } => true,
        }
    }

    /// Attaches an aborted sharded attempt's per-shard progress counters
    /// to a [`SimError::Stalled`] snapshot (identity on other variants).
    #[must_use]
    pub fn with_shard_progress(mut self, progress: Vec<u64>) -> SimError {
        if let SimError::Stalled { shard_progress, .. } = &mut self {
            *shard_progress = progress;
        }
        self
    }
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Partitioned { unreachable } => {
                write!(
                    f,
                    "network partitioned: {} cube(s) unreachable from the host (",
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
            SimError::Stalled {
                at,
                completed,
                total,
                outstanding,
                queued,
                in_network,
                flight,
                shard_progress,
            } => {
                write!(
                    f,
                    "simulation stalled at {at}: {completed} of {total} requests \
                     complete, {outstanding} outstanding, {queued} queued, \
                     {in_network} in network"
                )?;
                if !shard_progress.is_empty() {
                    write!(f, "; aborted shard progress [")?;
                    for (i, p) in shard_progress.iter().enumerate() {
                        if i > 0 {
                            write!(f, ", ")?;
                        }
                        write!(f, "{p}")?;
                    }
                    write!(f, "]")?;
                }
                if !flight.is_empty() {
                    write!(f, "\nlast kernel events:")?;
                    for line in flight {
                        write!(f, "\n  {line}")?;
                    }
                }
                Ok(())
            }
            SimError::TooManyPorts { node, ports } => write!(
                f,
                "node {node} has {ports} ports; the network model supports at most {}",
                mn_noc::MAX_NODE_PORTS
            ),
        }
    }
}

impl Error for SimError {}

impl From<NetworkError> for SimError {
    fn from(e: NetworkError) -> Self {
        match e {
            NetworkError::Partitioned { unreachable } => SimError::Partitioned { unreachable },
            NetworkError::TooManyPorts { node, ports } => SimError::TooManyPorts { node, ports },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partitioned_display_lists_cubes() {
        let e = SimError::Partitioned {
            unreachable: vec![NodeId(3), NodeId(4)],
        };
        let msg = e.to_string();
        assert!(msg.contains("2 cube(s)"), "{msg}");
    }

    fn stalled() -> SimError {
        SimError::Stalled {
            at: SimTime::from_ns(5),
            completed: 10,
            total: 100,
            outstanding: 2,
            queued: 7,
            in_network: 3,
            flight: Vec::new(),
            shard_progress: Vec::new(),
        }
    }

    #[test]
    fn stalled_display_has_snapshot() {
        let msg = stalled().to_string();
        assert!(msg.contains("10 of 100"), "{msg}");
        assert!(msg.contains("2 outstanding"), "{msg}");
        assert!(msg.contains("7 queued"), "{msg}");
        assert!(msg.contains("3 in network"), "{msg}");
        assert!(!msg.contains("last kernel events"), "{msg}");
        assert!(!msg.contains("shard progress"), "{msg}");
    }

    #[test]
    fn stalled_display_appends_flight_recorder() {
        let e = SimError::Stalled {
            at: SimTime::from_ns(5),
            completed: 0,
            total: 1,
            outstanding: 1,
            queued: 0,
            in_network: 1,
            flight: vec!["2ns arrive p0 at n1 port 0".into(), "2ns try-arb n1".into()],
            shard_progress: Vec::new(),
        };
        let msg = e.to_string();
        assert!(msg.contains("last kernel events:"), "{msg}");
        assert!(msg.contains("\n  2ns try-arb n1"), "{msg}");
    }

    #[test]
    fn stalled_display_includes_aborted_shard_progress() {
        let e = stalled().with_shard_progress(vec![40, 12, 0, 3]);
        let msg = e.to_string();
        assert!(
            msg.contains("aborted shard progress [40, 12, 0, 3]"),
            "{msg}"
        );
    }

    #[test]
    fn retry_classification() {
        // A stall depends on the watchdog budget; a partition is baked
        // into the fault schedule. Only the former earns a retry.
        assert!(stalled().is_retryable());
        let partitioned = SimError::Partitioned {
            unreachable: vec![NodeId(1)],
        };
        assert!(!partitioned.is_retryable());
        // Attaching shard progress to a partition is a no-op.
        assert_eq!(
            partitioned.clone().with_shard_progress(vec![1]),
            partitioned
        );
    }

    #[test]
    fn network_error_converts() {
        let net = NetworkError::Partitioned {
            unreachable: vec![NodeId(1)],
        };
        let sim: SimError = net.into();
        assert_eq!(
            sim,
            SimError::Partitioned {
                unreachable: vec![NodeId(1)]
            }
        );
    }
}
