//! The per-bank state machine: open-page policy with
//! tRCD/tCL/tRP/tRAS/tWR enforcement.

use mn_sim::{SimDuration, SimTime};

use crate::tech::MemTimings;

/// What an access did at the bank.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BankAccessOutcome {
    /// When the data transfer completed (read data available / write data
    /// accepted). The response packet can depart at this time.
    pub completed_at: SimTime,
    /// When the bank can issue its next access (includes write recovery).
    pub bank_free_at: SimTime,
    /// True if the access hit the open row.
    pub row_hit: bool,
}

/// One memory bank with an open-row (page) policy.
///
/// The state machine tracks the open row, when the bank becomes free, and
/// the earliest time a precharge may begin (tRAS after the last activate).
///
/// # Example
///
/// ```
/// use mn_mem::{Bank, MemTechSpec};
/// use mn_sim::SimTime;
///
/// let spec = MemTechSpec::dram_hbm();
/// let mut bank = Bank::new();
/// let miss = bank.access(SimTime::ZERO, 5, false, &spec.timings);
/// assert!(!miss.row_hit);
/// let hit = bank.access(miss.bank_free_at, 5, false, &spec.timings);
/// assert!(hit.row_hit);
/// assert!(hit.completed_at - miss.bank_free_at < miss.completed_at - SimTime::ZERO);
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct Bank {
    open_row: Option<u64>,
    free_at: SimTime,
    last_activate: SimTime,
    activated_once: bool,
    dirty: bool,
}

impl Bank {
    /// A fresh bank with all rows closed.
    pub fn new() -> Bank {
        Bank::default()
    }

    /// The earliest time the bank can begin a new access.
    pub fn free_at(&self) -> SimTime {
        self.free_at
    }

    /// True if an access to `row` would hit the open row.
    pub(crate) fn would_hit(&self, row: u64) -> bool {
        self.open_row == Some(row)
    }

    /// True if the open row holds data not yet written back to the array.
    pub(crate) fn is_dirty(&self) -> bool {
        self.dirty
    }

    /// Writes a dirty row buffer back to the array during idle time, so a
    /// later row miss does not pay `tWR` on the critical path. The row
    /// stays open (and clean); the bank is busy for the write-back.
    ///
    /// # Panics
    ///
    /// Panics if the bank is not dirty or not yet free at `now`.
    pub fn flush(&mut self, now: SimTime, t: &MemTimings) {
        assert!(self.dirty, "flush on a clean bank");
        assert!(self.free_at <= now, "flush on a busy bank");
        self.free_at = now + t.t_wr;
        self.dirty = false;
    }

    /// Blocks the bank until `until` (used for refresh).
    pub(crate) fn block_until(&mut self, until: SimTime) {
        self.free_at = self.free_at.max(until);
        // Refresh closes the row (and flushes any pending write-back as
        // part of the blocked window).
        self.open_row = None;
        self.dirty = false;
    }

    /// Performs one access to `row` starting no earlier than `now`,
    /// returning its completion time and the bank's next-free time.
    ///
    /// Latency cases:
    /// - row hit: `tCL + burst`
    /// - row miss, bank open: `tRP (after tRAS satisfied) + tRCD + tCL + burst`
    /// - bank closed: `tRCD + tCL + burst`
    ///
    /// Writes land in the open row buffer and mark it dirty; the write
    /// recovery `tWR` (the dominant PCM cost — 320 ns) is charged when a
    /// *dirty* row is evicted by a row miss, i.e. consecutive writes into
    /// one row coalesce in the buffer and pay the array write-back once.
    pub fn access(
        &mut self,
        now: SimTime,
        row: u64,
        is_write: bool,
        t: &MemTimings,
    ) -> BankAccessOutcome {
        let start = now.max(self.free_at);
        let (ready, row_hit) = match self.open_row {
            Some(open) if open == row => (start + t.t_cl + t.t_burst, true),
            Some(_) => {
                // Precharge may not begin until tRAS after the activate,
                // and a dirty row pays the array write-back first.
                let ras_ok = if self.activated_once {
                    self.last_activate + t.t_ras
                } else {
                    start
                };
                let writeback = if self.dirty {
                    t.t_wr
                } else {
                    SimDuration::ZERO
                };
                let pre_start = start.max(ras_ok) + writeback;
                self.dirty = false;
                let act_at = pre_start + t.t_rp;
                self.last_activate = act_at;
                self.activated_once = true;
                (act_at + t.t_rcd + t.t_cl + t.t_burst, false)
            }
            None => {
                self.last_activate = start;
                self.activated_once = true;
                (start + t.t_rcd + t.t_cl + t.t_burst, false)
            }
        };
        self.open_row = Some(row);
        if is_write {
            self.dirty = true;
        }
        self.free_at = ready;
        BankAccessOutcome {
            completed_at: ready,
            bank_free_at: self.free_at,
            row_hit,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tech::MemTechSpec;

    fn dram() -> MemTimings {
        MemTechSpec::dram_hbm().timings
    }

    fn nvm() -> MemTimings {
        MemTechSpec::nvm_pcm().timings
    }

    #[test]
    fn closed_bank_read_is_rcd_plus_cl() {
        let mut b = Bank::new();
        let out = b.access(SimTime::ZERO, 1, false, &dram());
        // 12 + 6 + 2 = 20 ns
        assert_eq!(out.completed_at, SimTime::from_ns(20));
        assert!(!out.row_hit);
        assert_eq!(out.bank_free_at, out.completed_at);
    }

    #[test]
    fn open_row_hit_is_cl_only() {
        let mut b = Bank::new();
        let first = b.access(SimTime::ZERO, 1, false, &dram());
        let hit = b.access(first.bank_free_at, 1, false, &dram());
        assert!(hit.row_hit);
        assert_eq!(
            hit.completed_at - first.bank_free_at,
            SimDuration::from_ns(8) // tCL + burst
        );
    }

    #[test]
    fn row_conflict_pays_ras_rp_rcd() {
        let mut b = Bank::new();
        let first = b.access(SimTime::ZERO, 1, false, &dram());
        let conflict = b.access(first.bank_free_at, 2, false, &dram());
        assert!(!conflict.row_hit);
        // The precharge cannot start until tRAS (33 ns) after the activate
        // at t=0, then tRP(14) + tRCD(12) + tCL(6) + burst(2) = 67 ns.
        assert_eq!(conflict.completed_at, SimTime::from_ns(67));
    }

    #[test]
    fn writes_coalesce_in_row_buffer() {
        let mut b = Bank::new();
        let w = b.access(SimTime::ZERO, 1, true, &nvm());
        // Completes at tRCD(40)+tCL(10)+burst(2) = 52; the bank is NOT
        // blocked for tWR — the dirty row sits in the row buffer.
        assert_eq!(w.completed_at, SimTime::from_ns(52));
        assert_eq!(w.bank_free_at, w.completed_at);
        // A row-hit write right behind it is cheap too.
        let w2 = b.access(w.bank_free_at, 1, true, &nvm());
        assert!(w2.row_hit);
        assert_eq!(w2.completed_at - w.bank_free_at, SimDuration::from_ns(12));
    }

    #[test]
    fn dirty_row_eviction_pays_twr() {
        let mut b = Bank::new();
        let w = b.access(SimTime::ZERO, 1, true, &nvm());
        // A read to a different row must write the dirty row back first:
        // tWR(320) + tRP(2) + tRCD(40) + tCL(10) + burst(2).
        let r = b.access(w.bank_free_at, 2, false, &nvm());
        assert!(!r.row_hit);
        assert_eq!(
            r.completed_at - w.bank_free_at,
            SimDuration::from_ns(320 + 2 + 40 + 10 + 2)
        );
        // The row is now clean: the next eviction is cheap.
        let r2 = b.access(r.bank_free_at, 3, false, &nvm());
        assert_eq!(
            r2.completed_at - r.bank_free_at,
            SimDuration::from_ns(2 + 40 + 10 + 2)
        );
    }

    #[test]
    fn access_before_free_time_is_deferred() {
        let mut b = Bank::new();
        let first = b.access(SimTime::ZERO, 1, false, &dram());
        // Request arrives while the bank is still busy.
        let second = b.access(SimTime::ZERO, 1, false, &dram());
        assert!(second.completed_at >= first.bank_free_at);
    }

    #[test]
    fn refresh_blocks_and_closes_row() {
        let mut b = Bank::new();
        b.access(SimTime::ZERO, 1, false, &dram());
        b.block_until(SimTime::from_ns(1000));
        assert_eq!(b.free_at(), SimTime::from_ns(1000));
        assert_eq!(b.open_row, None);
        let after = b.access(SimTime::from_ns(500), 1, false, &dram());
        assert!(!after.row_hit, "refresh closed the row");
        assert!(after.completed_at >= SimTime::from_ns(1020));
    }

    #[test]
    fn would_hit_reports_open_row() {
        let mut b = Bank::new();
        assert!(!b.would_hit(3));
        b.access(SimTime::ZERO, 3, false, &dram());
        assert!(b.would_hit(3));
        assert!(!b.would_hit(4));
    }

    #[test]
    fn nvm_conflict_cheaper_precharge() {
        let mut b = Bank::new();
        let first = b.access(SimTime::ZERO, 1, false, &nvm());
        let conflict = b.access(first.bank_free_at, 2, false, &nvm());
        // tRAS=0, tRP=2, tRCD=40, tCL=10, burst=2 after free at 52.
        assert_eq!(conflict.completed_at, SimTime::from_ns(52 + 54));
    }
}
