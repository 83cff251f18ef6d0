//! Progress and summary reporting, on stderr so it never pollutes the
//! figure tables or the JSON/CSV record streams on stdout.

use std::io::{IsTerminal, Write};
use std::time::{Duration, Instant};

/// What one campaign run did, in aggregate. Returned as data (the tests
/// assert on it) and rendered as the closing stderr line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignSummary {
    /// Points submitted, including duplicates of shared baselines.
    pub total: usize,
    /// Distinct points actually executed (duplicates are folded).
    pub unique: usize,
    /// Unique points served from the on-disk cache.
    pub cache_hits: usize,
    /// Unique points freshly simulated.
    pub fresh: usize,
    /// Unique points that produced an error record instead of a result
    /// (partitioned by fault injection, stalled, or lost to a dead
    /// worker). Failures are never served from cache, but a point whose
    /// fault schedule partitions its network fails in the cache probe
    /// without being simulated, so this can exceed `fresh`.
    pub failed: usize,
    /// Worker threads used.
    pub jobs: usize,
    /// Host wall-clock for the whole run.
    pub host_wall: Duration,
    /// Memory requests completed by fresh simulations.
    pub fresh_requests: u64,
    /// Always zero: campaigns no longer hand results to each other. Kept
    /// only because the frozen benchmark package reads it; retire it
    /// with the next benchmark change.
    pub coalesced: usize,
}

impl CampaignSummary {
    /// Fresh-simulated requests per host-second — the aggregate
    /// simulation throughput the scheduler achieved.
    pub(crate) fn sim_throughput_per_sec(&self) -> f64 {
        let secs = self.host_wall.as_secs_f64();
        if secs == 0.0 {
            0.0
        } else {
            self.fresh_requests as f64 / secs
        }
    }

    /// The one-line human rendering. The failure segment appears only
    /// when nonzero, so the common clean run reads exactly as it always
    /// has (CI greps this line).
    pub fn line(&self) -> String {
        let failed = if self.failed == 0 {
            String::new()
        } else {
            format!(", {} FAILED", self.failed)
        };
        format!(
            "campaign: {}/{} points in {:.2} s — {} cached, {} simulated{failed}, \
             {} worker{}, {:.0} req/s",
            self.total,
            self.total,
            self.host_wall.as_secs_f64(),
            self.cache_hits,
            self.fresh,
            self.jobs,
            if self.jobs == 1 { "" } else { "s" },
            self.sim_throughput_per_sec(),
        )
    }
}

/// Live progress on a terminal; a single summary line otherwise.
pub(crate) struct Progress {
    total: usize,
    done: usize,
    hits: usize,
    start: Instant,
    live: bool,
    quiet: bool,
}

impl Progress {
    pub(crate) fn new(total: usize, quiet: bool) -> Progress {
        Progress {
            total,
            done: 0,
            hits: 0,
            start: Instant::now(),
            live: !quiet && std::io::stderr().is_terminal(),
            quiet,
        }
    }

    pub(crate) fn started(&self) -> Instant {
        self.start
    }

    pub(crate) fn tick(&mut self, cached: bool) {
        self.done += 1;
        self.hits += usize::from(cached);
        if self.live {
            let mut err = std::io::stderr().lock();
            let _ = write!(
                err,
                "\rcampaign: {}/{} points ({} cached, {:.1} s)  ",
                self.done,
                self.total,
                self.hits,
                self.start.elapsed().as_secs_f64(),
            );
            let _ = err.flush();
        }
    }

    pub(crate) fn finish(&self, summary: &CampaignSummary) {
        if self.live {
            eprint!("\r{:<60}\r", "");
        }
        if !self.quiet {
            eprintln!("{}", summary.line());
        }
    }
}
