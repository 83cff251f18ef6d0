//! Campaign-level failures: one grid point failing must be a diagnosable
//! record, not a dead worker pool. Every failure is final. A point is a
//! pure function of its config, workload and seed, so a second run of
//! it would fail the same way; the campaign records the error once and
//! moves on.

use std::error::Error;
use std::fmt;

use mn_core::SimError;

/// Why one campaign point has no result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CampaignError {
    /// A port simulation of the point failed (partitioned network,
    /// stalled driver). The other points of the grid are unaffected.
    Sim {
        /// Which port failed first.
        port: u32,
        /// The structured simulation failure.
        error: SimError,
    },
    /// A job was dropped unrun — its worker died outside the panic
    /// isolation — so not every port observation landed. This is a
    /// scheduler or environment defect (a killed thread, not a simulation
    /// outcome), reported per point so the rest of the grid still
    /// completes.
    LostWorker {
        /// Port observations that did arrive.
        landed: usize,
        /// Port observations the point needed.
        expected: usize,
    },
    /// The point's simulation panicked. The panic was caught at the
    /// worker loop (`catch_unwind`), so the worker thread survives and
    /// the rest of the grid completes; the payload is preserved for
    /// diagnosis. Distinct from [`CampaignError::LostWorker`], which
    /// covers only genuinely-dead threads.
    PointPanicked {
        /// The panicking point's configuration label.
        label: String,
        /// The panic payload, rendered as a string (`"<non-string
        /// panic payload>"` when the payload was not a string).
        payload: String,
    },
}

impl fmt::Display for CampaignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CampaignError::Sim { port, error } => write!(f, "port {port}: {error}"),
            CampaignError::LostWorker { landed, expected } => write!(
                f,
                "worker lost: {landed} of {expected} port observations landed"
            ),
            CampaignError::PointPanicked { label, payload } => {
                write!(f, "point {label} panicked: {payload}")
            }
        }
    }
}

impl Error for CampaignError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CampaignError::Sim { error, .. } => Some(error),
            CampaignError::LostWorker { .. } | CampaignError::PointPanicked { .. } => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mn_topo::NodeId;

    #[test]
    fn sim_error_display_names_the_port() {
        let e = CampaignError::Sim {
            port: 3,
            error: SimError::Partitioned {
                unreachable: vec![NodeId(2)],
            },
        };
        let msg = e.to_string();
        assert!(msg.starts_with("port 3:"), "{msg}");
        assert!(msg.contains("partitioned"), "{msg}");
    }

    #[test]
    fn lost_worker_display_counts() {
        let e = CampaignError::LostWorker {
            landed: 2,
            expected: 8,
        };
        assert_eq!(
            e.to_string(),
            "worker lost: 2 of 8 port observations landed"
        );
    }

    #[test]
    fn point_panicked_display_names_label_and_payload() {
        let e = CampaignError::PointPanicked {
            label: "100%-C".into(),
            payload: "index out of bounds".into(),
        };
        assert_eq!(e.to_string(), "point 100%-C panicked: index out of bounds");
    }
}
