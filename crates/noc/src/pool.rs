//! Thread-local construction pooling for [`crate::Network`] storage.
//!
//! Campaigns and sharded runs construct thousands of short-lived networks
//! over a handful of topology shapes. Construction cost is dominated by
//! the struct-of-arrays router state — hundreds of pre-sized `VecDeque`
//! input buffers plus the packet arena — so a finished network can donate
//! that storage back (see `Network::recycle`) and the next construction
//! of the same shape takes it from a thread-local free list instead of
//! allocating.
//!
//! Reuse is invisible to results: every container is cleared, the arena's
//! [`GenArena::reset`] replays the fresh handle order, and anything whose
//! *values* depend on the concrete topology (adjacency wiring, arbiter
//! state, routing) is rebuilt from scratch by the constructor. The shape
//! key pins every pooled size, so a taken storage always fits exactly.

use std::cell::RefCell;

use mn_sim::{GenArena, SimTime};

use crate::arbiter::Candidate;
use crate::network::{Buf, NetEvent};
use crate::packet::Packet;

/// The sizes that define a reusable storage layout. Two networks with
/// equal shapes have identical buffer counts and capacities; everything
/// else about them (wiring, routing, arbitration) lives outside the pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct StorageShape {
    /// Total input buffers (Σ over nodes of ports × VCs).
    pub(crate) buf_count: usize,
    /// Capacity of each input buffer, packets.
    pub(crate) buffer_packets: usize,
    /// Total ejection buffers (nodes × VCs).
    pub(crate) eject_count: usize,
    /// Capacity of each ejection buffer, packets.
    pub(crate) ejection_packets: usize,
    /// Link count (sizes `link_free_at`).
    pub(crate) links: usize,
    /// Node count (sizes the per-node vectors).
    pub(crate) nodes: usize,
    /// Router outputs, links plus one ejection per node (sizes the head
    /// masks, one per output and VC).
    pub(crate) outputs: usize,
}

impl StorageShape {
    /// The packet-arena capacity this shape implies (every buffer slot
    /// plus a small in-flight allowance per link — the same formula the
    /// constructor uses).
    pub(crate) fn arena_capacity(&self) -> usize {
        self.buf_count * self.buffer_packets
            + self.eject_count * self.ejection_packets
            + 8 * self.links
    }
}

/// The poolable portion of a network's state.
#[derive(Debug)]
pub(crate) struct NetworkStorage {
    pub(crate) shape: StorageShape,
    pub(crate) bufs: Vec<Buf>,
    pub(crate) eject: Vec<Buf>,
    pub(crate) packets: GenArena<Packet>,
    pub(crate) link_free_at: Vec<[SimTime; 2]>,
    pub(crate) neighbor_ports: Vec<Vec<usize>>,
    pub(crate) arb_clean: Vec<bool>,
    pub(crate) last_arb: Vec<SimTime>,
    pub(crate) ready_pending: Vec<bool>,
    pub(crate) buffered: Vec<u32>,
    pub(crate) head_mask: Vec<u64>,
    pub(crate) scratch: Vec<Candidate>,
    pub(crate) batch: Vec<NetEvent>,
}

impl NetworkStorage {
    /// Clears every container for a fresh run. Values that depend on the
    /// concrete topology (`neighbor_ports` wiring) are emptied; the
    /// constructor refills them. The arena reset replays the fresh
    /// handle-allocation order, so a pooled network assigns the exact
    /// handle sequence a newly built one would.
    fn reset(&mut self) {
        for buf in self.bufs.iter_mut().chain(self.eject.iter_mut()) {
            buf.reset();
        }
        self.packets.reset();
        self.link_free_at.fill([SimTime::ZERO; 2]);
        for ports in self.neighbor_ports.iter_mut() {
            ports.clear();
        }
        self.arb_clean.fill(false);
        self.last_arb.fill(SimTime::ZERO);
        self.ready_pending.fill(false);
        self.buffered.fill(0);
        self.head_mask.fill(0);
        self.scratch.clear();
        self.batch.clear();
    }
}

/// Storages retained per thread. Small: a campaign thread works one shape
/// at a time, and a sharded run donates at most one storage per shard.
const POOL_LIMIT: usize = 8;

thread_local! {
    static POOL: RefCell<Vec<NetworkStorage>> = const { RefCell::new(Vec::new()) };
}

/// Takes a reset storage of exactly `shape` from this thread's pool, if
/// one is available.
pub(crate) fn take(shape: StorageShape) -> Option<NetworkStorage> {
    POOL.with(|pool| {
        let mut pool = pool.borrow_mut();
        let idx = pool.iter().position(|s| s.shape == shape)?;
        let mut storage = pool.swap_remove(idx);
        storage.reset();
        Some(storage)
    })
}

/// Donates `storage` to this thread's pool (dropped when the pool is at
/// its retention limit).
pub(crate) fn put(storage: NetworkStorage) {
    POOL.with(|pool| {
        let mut pool = pool.borrow_mut();
        if pool.len() < POOL_LIMIT {
            pool.push(storage);
        }
    });
}

/// Number of storages currently pooled on this thread (test hook).
#[cfg(test)]
pub(crate) fn pooled_count() -> usize {
    POOL.with(|pool| pool.borrow().len())
}
