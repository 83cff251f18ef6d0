//! The quadrant memory controller: a bounded FR-FCFS read scheduler plus a
//! write buffer, over the quadrant's banks.
//!
//! Each memory cube contains four quadrants (§5); each quadrant owns 64 of
//! the stack's 256 banks and one controller. The controller models the
//! "latency in memory" component of the paper's Fig. 5 breakdown, and its
//! bounded queues are what back requests up into the network when a cube
//! is oversubscribed.
//!
//! Writes follow the paper's §4.2 assumption that they are off the
//! program's critical path: a write is acknowledged as soon as its data is
//! accepted into the controller's **write buffer**, and drains to the
//! banks in the background — only when no read wants the bank, unless the
//! buffer passes its high watermark and draining becomes urgent. The slow
//! part of an NVM write (tWR = 320 ns of array programming) therefore
//! delays later reads only on a bank collision, not every dependent
//! operation.

use std::collections::VecDeque;

use mn_sim::SimTime;

use crate::bank::Bank;
use crate::tech::MemTechSpec;

/// A decoded memory access handed to a controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemAccess {
    /// Caller-chosen token returned in the [`Completion`]; the core maps it
    /// back to the originating network packet.
    pub token: u64,
    /// Bank index within this quadrant.
    pub bank: u32,
    /// Row within the bank.
    pub row: u64,
    /// True for writes.
    pub is_write: bool,
}

impl MemAccess {
    /// A read access.
    pub fn read(token: u64, bank: u32, row: u64) -> MemAccess {
        MemAccess {
            token,
            bank,
            row,
            is_write: false,
        }
    }

    /// A write access.
    pub fn write(token: u64, bank: u32, row: u64) -> MemAccess {
        MemAccess {
            token,
            bank,
            row,
            is_write: true,
        }
    }
}

/// A finished access: read data ready, or write data accepted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Completion {
    /// The token from the originating [`MemAccess`].
    pub token: u64,
    /// When the access finished from the requester's point of view.
    pub completed_at: SimTime,
    /// Whether the access hit an open row (always `false` for write
    /// acceptances — the array access happens later, at drain time).
    pub row_hit: bool,
    /// Whether it was a write.
    pub is_write: bool,
}

/// Error returned when the relevant controller queue is full; the caller
/// must retry after draining completions (this is the backpressure path).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ControllerFull;

impl std::fmt::Display for ControllerFull {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "controller queue is full")
    }
}

impl std::error::Error for ControllerFull {}

#[derive(Debug, Clone, Copy)]
struct Pending {
    access: MemAccess,
    arrival: SimTime,
    seq: u64,
}

/// An FR-FCFS memory controller for one cube quadrant.
///
/// Scheduling policy: among *reads* whose bank is free, prefer row hits,
/// then oldest (First-Ready, First-Come-First-Served). Buffered writes
/// drain to banks the same way but only yield to no pending read for the
/// bank — unless the write buffer exceeds its high watermark, when writes
/// become urgent and drain ahead of reads (the standard write-drain
/// policy).
///
/// The controller is event-driven: callers [`QuadrantController::enqueue`]
/// accesses, then call [`QuadrantController::advance`] whenever simulated
/// time reaches [`QuadrantController::next_event_time`].
#[derive(Debug, Clone)]
pub struct QuadrantController {
    spec: MemTechSpec,
    banks: Vec<Bank>,
    reads: VecDeque<Pending>,
    read_capacity: usize,
    /// Writes awaiting acknowledgment (arrival in the future relative to
    /// the last `advance`), then buffered for background drain.
    writes_unacked: VecDeque<Pending>,
    writes_buffered: VecDeque<Pending>,
    write_capacity: usize,
    next_seq: u64,
    next_refresh: Option<SimTime>,
    /// One bit per bank, set while the bank's open row is dirty. Kept in
    /// step with [`Bank::is_dirty`] at the three places the flag changes
    /// (an access, a flush, a refresh), so the flush search and the
    /// next-event computation visit only dirty banks instead of all 64.
    dirty: Vec<u64>,
    /// Memoized [`QuadrantController::next_event_time`]: recomputed at the
    /// end of `advance`, and min-merged with the new entry's wake time on
    /// `enqueue` (adding an entry can only move the next event earlier).
    /// The port simulator reads it after every controller pass.
    next_cache: Option<SimTime>,
    stats_row_hits: u64,
    stats_accesses: u64,
    stats_drained_writes: u64,
}

impl QuadrantController {
    /// Creates a controller over `banks` banks with a read queue of
    /// `capacity` entries and a write buffer twice that size.
    ///
    /// # Panics
    ///
    /// Panics if `banks` or `capacity` is zero.
    pub fn new(spec: MemTechSpec, banks: u32, capacity: usize) -> QuadrantController {
        assert!(banks > 0, "a quadrant needs at least one bank");
        assert!(capacity > 0, "queue capacity must be positive");
        QuadrantController {
            spec,
            banks: vec![Bank::new(); banks as usize],
            reads: VecDeque::with_capacity(capacity),
            read_capacity: capacity,
            // Full-capacity reserves: `has_space` bounds the queues, so a
            // controller sized here never reallocates mid-simulation.
            writes_unacked: VecDeque::with_capacity(capacity * 2),
            writes_buffered: VecDeque::with_capacity(capacity * 2),
            write_capacity: capacity * 2,
            next_seq: 0,
            next_refresh: spec.timings.refresh_interval.map(|i| SimTime::ZERO + i),
            dirty: vec![0; (banks as usize).div_ceil(64)],
            next_cache: None,
            stats_row_hits: 0,
            stats_accesses: 0,
            stats_drained_writes: 0,
        }
    }

    /// The technology this controller drives.
    pub fn spec(&self) -> &MemTechSpec {
        &self.spec
    }

    /// True if an access of the given kind can be enqueued.
    pub fn has_space(&self, is_write: bool) -> bool {
        if is_write {
            self.writes_unacked.len() + self.writes_buffered.len() < self.write_capacity
        } else {
            self.reads.len() < self.read_capacity
        }
    }

    /// Number of queued reads (not yet issued).
    pub fn queue_len(&self) -> usize {
        self.reads.len()
    }

    /// Number of buffered writes (acked or not) awaiting drain.
    pub fn write_buffer_len(&self) -> usize {
        self.writes_unacked.len() + self.writes_buffered.len()
    }

    /// Adds an access.
    ///
    /// # Errors
    ///
    /// Returns [`ControllerFull`] when the relevant queue is at capacity.
    ///
    /// # Panics
    ///
    /// Panics if `access.bank` is out of range for this quadrant.
    pub fn enqueue(&mut self, access: MemAccess, now: SimTime) -> Result<(), ControllerFull> {
        assert!(
            (access.bank as usize) < self.banks.len(),
            "bank {} out of range ({} banks)",
            access.bank,
            self.banks.len()
        );
        if !self.has_space(access.is_write) {
            return Err(ControllerFull);
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        let pending = Pending {
            access,
            arrival: now,
            seq,
        };
        // The new entry's term in `compute_next_event_time`: an unacked
        // write wakes at its arrival, a read once its bank is also free.
        let wake = if access.is_write {
            self.writes_unacked.push_back(pending);
            now
        } else {
            self.reads.push_back(pending);
            self.banks[access.bank as usize].free_at().max(now)
        };
        self.next_cache = Some(self.next_cache.map_or(wake, |t| t.min(wake)));
        Ok(())
    }

    /// Issues every access that can start at or before `now`, returning
    /// read completions and write acknowledgments.
    pub fn advance(&mut self, now: SimTime) -> Vec<Completion> {
        let mut done = Vec::new();
        self.advance_into(now, &mut done);
        done
    }

    /// Like [`QuadrantController::advance`], but appends completions to a
    /// caller-owned buffer so the simulation hot loop can reuse one
    /// allocation across every controller tick.
    pub fn advance_into(&mut self, now: SimTime, done: &mut Vec<Completion>) {
        self.maybe_refresh(now);

        // Acknowledge arrived writes: data accepted after one burst time.
        let mut i = 0;
        while i < self.writes_unacked.len() {
            if self.writes_unacked[i].arrival <= now {
                let p = self.writes_unacked.remove(i).expect("index valid");
                done.push(Completion {
                    token: p.access.token,
                    completed_at: p.arrival + self.spec.timings.t_burst,
                    row_hit: false,
                    is_write: true,
                });
                self.writes_buffered.push_back(p);
            } else {
                i += 1;
            }
        }

        loop {
            let urgent_writes = self.writes_buffered.len() * 4 >= self.write_capacity * 3;
            let mut issued = false;
            if urgent_writes {
                issued = self.drain_one_write(now, false);
            }
            if !issued {
                if let Some(completion) = self.issue_one_read(now) {
                    done.push(completion);
                    issued = true;
                }
            }
            if !issued {
                // Opportunistic drain: only to banks no queued read wants.
                issued = self.drain_one_write(now, true);
            }
            if !issued {
                // Idle time: write dirty row buffers back to the arrays so
                // later row misses do not pay tWR inline (the policy that
                // keeps PCM's 320 ns writes off the read critical path).
                issued = self.flush_one_dirty(now);
            }
            if !issued {
                break;
            }
        }
        self.next_cache = self.compute_next_event_time();
        #[cfg(debug_assertions)]
        self.assert_dirty_bits();
    }

    /// Mirrors bank `b`'s dirty flag into the bitset.
    fn sync_dirty(&mut self, b: usize) {
        let bit = 1u64 << (b % 64);
        if self.banks[b].is_dirty() {
            self.dirty[b / 64] |= bit;
        } else {
            self.dirty[b / 64] &= !bit;
        }
    }

    /// The dirty banks, in ascending index order.
    fn dirty_banks(&self) -> impl Iterator<Item = usize> + '_ {
        self.dirty.iter().enumerate().flat_map(|(w, &word)| {
            let mut bits = word;
            std::iter::from_fn(move || {
                (bits != 0).then(|| {
                    let b = w * 64 + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    b
                })
            })
        })
    }

    /// The lowest-indexed dirty bank that is free at `now` and that no
    /// arrived read or buffered write wants.
    fn flush_candidate(&self, now: SimTime) -> Option<usize> {
        let wanted = |bank: usize, q: &VecDeque<Pending>| {
            q.iter()
                .any(|p| p.access.bank as usize == bank && p.arrival <= now)
        };
        self.dirty_banks().find(|&b| {
            self.banks[b].free_at() <= now
                && !wanted(b, &self.reads)
                && !wanted(b, &self.writes_buffered)
        })
    }

    /// Flushes one dirty, free, unwanted bank. Returns true if one flushed.
    fn flush_one_dirty(&mut self, now: SimTime) -> bool {
        let candidate = self.flush_candidate(now);
        // The choice is made inside `advance`, out of a test's sight, so
        // unit tests check it against the full bank walk here.
        #[cfg(test)]
        assert_eq!(candidate, self.flush_candidate_by_scan(now));
        let Some(b) = candidate else {
            return false;
        };
        self.banks[b].flush(now, &self.spec.timings);
        self.sync_dirty(b);
        true
    }

    /// FR-FCFS over the read queue; returns the completion if one issued.
    fn issue_one_read(&mut self, now: SimTime) -> Option<Completion> {
        let mut best: Option<(usize, bool, u64)> = None;
        for (i, p) in self.reads.iter().enumerate() {
            if p.arrival > now {
                continue;
            }
            let bank = &self.banks[p.access.bank as usize];
            if bank.free_at() > now {
                continue;
            }
            let hit = bank.would_hit(p.access.row);
            let better = match best {
                None => true,
                Some((_, best_hit, best_seq)) => {
                    (hit && !best_hit) || (hit == best_hit && p.seq < best_seq)
                }
            };
            if better {
                best = Some((i, hit, p.seq));
            }
        }
        let (idx, _, _) = best?;
        let p = self.reads.remove(idx).expect("index valid");
        let start = now.max(p.arrival);
        let outcome = self.banks[p.access.bank as usize].access(
            start,
            p.access.row,
            false,
            &self.spec.timings,
        );
        self.sync_dirty(p.access.bank as usize);
        self.stats_accesses += 1;
        if outcome.row_hit {
            self.stats_row_hits += 1;
        }
        Some(Completion {
            token: p.access.token,
            completed_at: outcome.completed_at,
            row_hit: outcome.row_hit,
            is_write: false,
        })
    }

    /// Drains one buffered write to its bank. When `yield_to_reads` is
    /// true, banks wanted by any queued read are off limits.
    fn drain_one_write(&mut self, now: SimTime, yield_to_reads: bool) -> bool {
        let read_wants_bank = |bank: u32, reads: &VecDeque<Pending>| {
            reads
                .iter()
                .any(|r| r.access.bank == bank && r.arrival <= now)
        };
        let mut candidate: Option<(usize, bool, u64)> = None;
        for (i, p) in self.writes_buffered.iter().enumerate() {
            if p.arrival > now {
                continue;
            }
            let bank = &self.banks[p.access.bank as usize];
            if bank.free_at() > now {
                continue;
            }
            if yield_to_reads && read_wants_bank(p.access.bank, &self.reads) {
                continue;
            }
            let hit = bank.would_hit(p.access.row);
            let better = match candidate {
                None => true,
                Some((_, best_hit, best_seq)) => {
                    (hit && !best_hit) || (hit == best_hit && p.seq < best_seq)
                }
            };
            if better {
                candidate = Some((i, hit, p.seq));
            }
        }
        let Some((idx, _, _)) = candidate else {
            return false;
        };
        let p = self.writes_buffered.remove(idx).expect("index valid");
        let start = now.max(p.arrival);
        let outcome = self.banks[p.access.bank as usize].access(
            start,
            p.access.row,
            true,
            &self.spec.timings,
        );
        self.sync_dirty(p.access.bank as usize);
        self.stats_accesses += 1;
        if outcome.row_hit {
            self.stats_row_hits += 1;
        }
        self.stats_drained_writes += 1;
        true
    }

    fn maybe_refresh(&mut self, now: SimTime) {
        let (Some(due), Some(interval)) = (self.next_refresh, self.spec.timings.refresh_interval)
        else {
            return;
        };
        let mut due = due;
        while due <= now {
            let until = due + self.spec.timings.refresh_penalty;
            for bank in &mut self.banks {
                bank.block_until(until);
            }
            // Refresh writes every open row back: no bank stays dirty.
            self.dirty.fill(0);
            due += interval;
        }
        self.next_refresh = Some(due);
    }

    /// The next instant at which calling [`QuadrantController::advance`]
    /// could make progress, or `None` when fully idle.
    ///
    /// O(1): returns the value memoized by the last mutation.
    pub fn next_event_time(&self) -> Option<SimTime> {
        self.next_cache
    }

    fn compute_next_event_time(&self) -> Option<SimTime> {
        let read_next = self
            .reads
            .iter()
            .map(|p| self.banks[p.access.bank as usize].free_at().max(p.arrival))
            .min();
        let ack_next = self.writes_unacked.iter().map(|p| p.arrival).min();
        let drain_next = self
            .writes_buffered
            .iter()
            .map(|p| self.banks[p.access.bank as usize].free_at().max(p.arrival))
            .min();
        // Dirty banks want a flush as soon as they free up.
        let flush_next = self.dirty_banks().map(|b| self.banks[b].free_at()).min();
        [read_next, ack_next, drain_next, flush_next]
            .into_iter()
            .flatten()
            .min()
    }

    /// Checks the dirty bitset against the banks' own flags.
    #[cfg(debug_assertions)]
    fn assert_dirty_bits(&self) {
        for (b, bank) in self.banks.iter().enumerate() {
            assert_eq!(
                self.dirty[b / 64] >> (b % 64) & 1 == 1,
                bank.is_dirty(),
                "stale dirty bit for bank {b}"
            );
        }
    }

    /// Reference for [`QuadrantController::next_event_time`]: the full
    /// scan over every bank that the dirty bitset replaced.
    #[cfg(test)]
    fn next_event_time_by_scan(&self) -> Option<SimTime> {
        let read_next = self
            .reads
            .iter()
            .map(|p| self.banks[p.access.bank as usize].free_at().max(p.arrival))
            .min();
        let ack_next = self.writes_unacked.iter().map(|p| p.arrival).min();
        let drain_next = self
            .writes_buffered
            .iter()
            .map(|p| self.banks[p.access.bank as usize].free_at().max(p.arrival))
            .min();
        let flush_next = self
            .banks
            .iter()
            .filter(|b| b.is_dirty())
            .map(|b| b.free_at())
            .min();
        [read_next, ack_next, drain_next, flush_next]
            .into_iter()
            .flatten()
            .min()
    }

    /// Reference for [`QuadrantController::flush_candidate`]: the walk
    /// over every bank that the dirty bitset replaced.
    #[cfg(test)]
    fn flush_candidate_by_scan(&self, now: SimTime) -> Option<usize> {
        let wanted = |bank: usize, q: &VecDeque<Pending>| {
            q.iter()
                .any(|p| p.access.bank as usize == bank && p.arrival <= now)
        };
        (0..self.banks.len()).find(|&b| {
            self.banks[b].is_dirty()
                && self.banks[b].free_at() <= now
                && !wanted(b, &self.reads)
                && !wanted(b, &self.writes_buffered)
        })
    }

    /// Fraction of bank accesses that hit an open row so far.
    pub fn row_hit_rate(&self) -> f64 {
        if self.stats_accesses == 0 {
            0.0
        } else {
            self.stats_row_hits as f64 / self.stats_accesses as f64
        }
    }

    /// Total bank accesses issued so far (reads plus drained writes).
    pub fn accesses(&self) -> u64 {
        self.stats_accesses
    }

    /// Bank accesses that hit an open row so far.
    pub fn row_hits(&self) -> u64 {
        self.stats_row_hits
    }

    /// Writes written back to the arrays so far.
    pub fn drained_writes(&self) -> u64 {
        self.stats_drained_writes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mn_sim::{SimDuration, SimRng};

    fn ctrl() -> QuadrantController {
        QuadrantController::new(MemTechSpec::dram_hbm(), 4, 8)
    }

    #[test]
    fn single_read_completes() {
        let mut c = ctrl();
        c.enqueue(MemAccess::read(7, 0, 1), SimTime::ZERO).unwrap();
        let done = c.advance(SimTime::ZERO);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].token, 7);
        assert_eq!(done[0].completed_at, SimTime::from_ns(20));
        assert!(!done[0].row_hit);
    }

    #[test]
    fn writes_ack_immediately() {
        let mut c = QuadrantController::new(MemTechSpec::nvm_pcm(), 4, 8);
        c.enqueue(MemAccess::write(3, 0, 1), SimTime::ZERO).unwrap();
        let done = c.advance(SimTime::ZERO);
        assert_eq!(done.len(), 1);
        assert!(done[0].is_write);
        // Acked after one burst time, NOT after the 320 ns array write.
        assert_eq!(done[0].completed_at, SimTime::from_ns(2));
        // The drain happened in the background.
        assert_eq!(c.drained_writes(), 1);
    }

    #[test]
    fn reads_have_priority_over_write_drain() {
        let mut c = ctrl();
        c.enqueue(MemAccess::write(0, 0, 1), SimTime::ZERO).unwrap();
        c.enqueue(MemAccess::read(1, 0, 2), SimTime::ZERO).unwrap();
        let done = c.advance(SimTime::ZERO);
        // Both produce completions (the write is just an ack) but the bank
        // is used by the read first: the write has not drained.
        assert_eq!(done.len(), 2);
        assert_eq!(c.drained_writes(), 0);
        // Once the read finishes, the write drains.
        let t = c.next_event_time().unwrap();
        c.advance(t);
        assert_eq!(c.drained_writes(), 1);
    }

    #[test]
    fn urgent_drain_when_buffer_fills() {
        // Write capacity is 2*capacity = 4; watermark at 3.
        let mut c = QuadrantController::new(MemTechSpec::dram_hbm(), 2, 2);
        for t in 0..3 {
            c.enqueue(MemAccess::write(t, 0, t), SimTime::ZERO).unwrap();
        }
        c.enqueue(MemAccess::read(9, 0, 99), SimTime::ZERO).unwrap();
        c.advance(SimTime::ZERO);
        // Urgent mode: at least one write drained ahead of the read.
        assert!(c.drained_writes() >= 1);
    }

    #[test]
    fn fr_fcfs_prefers_row_hit() {
        let mut c = ctrl();
        c.enqueue(MemAccess::read(0, 0, 1), SimTime::ZERO).unwrap();
        let first = c.advance(SimTime::ZERO);
        let t = first[0].completed_at;
        c.enqueue(MemAccess::read(1, 0, 2), t).unwrap();
        c.enqueue(MemAccess::read(2, 0, 1), t).unwrap();
        let done = c.advance(t);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].token, 2, "row hit scheduled first");
        assert!(done[0].row_hit);
        let t2 = c.next_event_time().unwrap();
        let done2 = c.advance(t2);
        assert_eq!(done2.len(), 1);
        assert_eq!(done2[0].token, 1);
    }

    #[test]
    fn fcfs_within_same_hit_class() {
        let mut c = ctrl();
        c.enqueue(MemAccess::read(0, 0, 1), SimTime::ZERO).unwrap();
        c.enqueue(MemAccess::read(1, 1, 2), SimTime::ZERO).unwrap();
        let done = c.advance(SimTime::ZERO);
        assert_eq!(done[0].token, 0);
        assert_eq!(done[1].token, 1);
    }

    #[test]
    fn read_queue_backpressure() {
        let mut c = QuadrantController::new(MemTechSpec::dram_hbm(), 1, 2);
        assert!(c.has_space(false));
        c.enqueue(MemAccess::read(0, 0, 1), SimTime::ZERO).unwrap();
        c.enqueue(MemAccess::read(1, 0, 2), SimTime::ZERO).unwrap();
        assert!(!c.has_space(false));
        assert_eq!(
            c.enqueue(MemAccess::read(2, 0, 3), SimTime::ZERO),
            Err(ControllerFull)
        );
        // The write buffer is separate and still has space.
        assert!(c.has_space(true));
    }

    #[test]
    fn write_buffer_backpressure() {
        let mut c = QuadrantController::new(MemTechSpec::nvm_pcm(), 1, 1);
        c.enqueue(MemAccess::write(0, 0, 1), SimTime::ZERO).unwrap();
        c.enqueue(MemAccess::write(1, 0, 2), SimTime::ZERO).unwrap();
        assert!(!c.has_space(true));
        assert_eq!(
            c.enqueue(MemAccess::write(2, 0, 3), SimTime::ZERO),
            Err(ControllerFull)
        );
        assert_eq!(c.write_buffer_len(), 2);
    }

    #[test]
    fn banks_work_in_parallel() {
        let mut c = ctrl();
        for b in 0..4 {
            c.enqueue(MemAccess::read(b as u64, b, 1), SimTime::ZERO)
                .unwrap();
        }
        let done = c.advance(SimTime::ZERO);
        assert_eq!(done.len(), 4);
        assert!(done.iter().all(|d| d.completed_at == SimTime::from_ns(20)));
    }

    #[test]
    fn serialization_on_one_bank() {
        let mut c = ctrl();
        c.enqueue(MemAccess::read(0, 0, 1), SimTime::ZERO).unwrap();
        c.enqueue(MemAccess::read(1, 0, 1), SimTime::ZERO).unwrap();
        let done = c.advance(SimTime::ZERO);
        assert_eq!(done.len(), 1);
        let t = c.next_event_time().unwrap();
        assert_eq!(t, SimTime::from_ns(20));
        let done2 = c.advance(t);
        assert_eq!(done2.len(), 1);
        assert!(done2[0].row_hit);
    }

    #[test]
    fn next_event_time_none_when_idle() {
        let c = ctrl();
        assert_eq!(c.next_event_time(), None);
    }

    #[test]
    fn refresh_fires_periodically() {
        let mut c = QuadrantController::new(MemTechSpec::dram_hbm(), 1, 4);
        let late = SimTime::from_us(7) + SimDuration::from_ns(1);
        c.enqueue(MemAccess::read(0, 0, 1), late).unwrap();
        assert!(c.advance(late).is_empty());
        let t = c.next_event_time().unwrap();
        assert_eq!(t, SimTime::from_us(7) + SimDuration::from_ns(350));
        let done = c.advance(t);
        assert!(done[0].completed_at >= SimTime::from_us(7) + SimDuration::from_ns(350));
    }

    #[test]
    fn nvm_has_no_refresh() {
        let mut c = QuadrantController::new(MemTechSpec::nvm_pcm(), 1, 4);
        let late = SimTime::from_us(100);
        c.enqueue(MemAccess::read(0, 0, 1), late).unwrap();
        let done = c.advance(late);
        assert_eq!(done[0].completed_at, late + SimDuration::from_ns(52));
    }

    #[test]
    fn row_hit_rate_tracks() {
        let mut c = ctrl();
        c.enqueue(MemAccess::read(0, 0, 1), SimTime::ZERO).unwrap();
        c.advance(SimTime::ZERO);
        c.enqueue(MemAccess::read(1, 0, 1), SimTime::from_ns(30))
            .unwrap();
        c.advance(SimTime::from_ns(30));
        assert_eq!(c.accesses(), 2);
        assert!((c.row_hit_rate() - 0.5).abs() < 1e-12);
    }

    /// Drives seeded random traffic through DRAM and NVM controllers and
    /// checks the incremental indexes against the full scans they replace:
    /// `next_event_time` after every enqueue and advance, and (inside
    /// `flush_one_dirty`) every flush choice. Few banks and rows plus a
    /// write share keep several banks dirty at once, the 70-bank case
    /// spans two bitset words, and the time jumps cross DRAM refreshes.
    #[test]
    fn indexes_match_the_full_scans() {
        let mut rng = SimRng::seed_from(0xD127_B175);
        let mut dirty_passes = 0;
        for case in 0..48 {
            let spec = if case % 2 == 0 {
                MemTechSpec::dram_hbm()
            } else {
                MemTechSpec::nvm_pcm()
            };
            let banks = [1, 3, 8, 70][case / 2 % 4];
            let mut c = QuadrantController::new(spec, banks, rng.range(1, 9) as usize);
            let rows = rng.range(1, 4);
            let write_share = 0.2 + 0.6 * rng.unit();
            let mut now = SimTime::ZERO;
            let mut token = 0;
            for step in 0..400 {
                for _ in 0..rng.below(4) {
                    let is_write = rng.chance(write_share);
                    if !c.has_space(is_write) {
                        continue;
                    }
                    let access = MemAccess {
                        token,
                        bank: rng.below(u64::from(banks)) as u32,
                        row: rng.below(rows),
                        is_write,
                    };
                    token += 1;
                    let arrival = now + SimDuration::from_ns(rng.below(3));
                    c.enqueue(access, arrival).unwrap();
                    assert_eq!(
                        c.next_event_time(),
                        c.next_event_time_by_scan(),
                        "case {case} step {step}: after enqueue"
                    );
                }
                dirty_passes += u32::from(c.dirty.iter().any(|&w| w != 0));
                c.advance(now);
                assert_eq!(
                    c.next_event_time(),
                    c.next_event_time_by_scan(),
                    "case {case} step {step}: after advance"
                );
                now = match c.next_event_time() {
                    Some(t) if rng.chance(0.8) => t.max(now),
                    _ => now + SimDuration::from_ns(rng.range(1, 1500)),
                };
            }
        }
        assert!(dirty_passes > 1000, "too few dirty passes: {dirty_passes}");
    }

    #[test]
    #[should_panic(expected = "bank 9 out of range")]
    fn bank_out_of_range_panics() {
        let mut c = QuadrantController::new(MemTechSpec::dram_hbm(), 4, 8);
        let _ = c.enqueue(MemAccess::read(0, 9, 1), SimTime::ZERO);
    }

    #[test]
    fn future_arrivals_not_issued_early() {
        let mut c = ctrl();
        c.enqueue(MemAccess::read(0, 0, 1), SimTime::from_ns(100))
            .unwrap();
        assert!(c.advance(SimTime::ZERO).is_empty());
        assert_eq!(c.advance(SimTime::from_ns(100)).len(), 1);
    }

    #[test]
    fn nvm_write_then_read_same_bank_blocks_once() {
        let mut c = QuadrantController::new(MemTechSpec::nvm_pcm(), 1, 8);
        c.enqueue(MemAccess::write(0, 0, 1), SimTime::ZERO).unwrap();
        c.advance(SimTime::ZERO); // ack + background drain to row 1
        assert_eq!(c.drained_writes(), 1);
        // A read to a *different* row must evict the dirty row: pays tWR.
        c.enqueue(MemAccess::read(1, 0, 2), SimTime::from_ns(60))
            .unwrap();
        let t = c.next_event_time().unwrap();
        let done = c.advance(t.max(SimTime::from_ns(60)));
        assert!(done[0].completed_at > SimTime::from_ns(320));
    }
}
