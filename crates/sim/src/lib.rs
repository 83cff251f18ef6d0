//! # mn-sim — discrete-event simulation kernel
//!
//! This crate provides the time base, event queue, deterministic random
//! number generation, and statistics primitives shared by every other crate
//! in the `mncube` workspace (the reproduction of *"There and Back Again:
//! Optimizing the Interconnect in Networks of Memory Cubes"*, ISCA 2017).
//!
//! The kernel is deliberately generic: it knows nothing about memory cubes,
//! routers, or packets. Higher layers define their own event payload types
//! and drive an [`EventQueue`] to completion.
//!
//! ## Time base
//!
//! Simulated time is measured in **picoseconds** stored in a `u64`. At
//! picosecond resolution a `u64` covers ~213 days of simulated time, far
//! beyond any experiment in this workspace, while still resolving the
//! sub-nanosecond serialization delays of 15 Gbps SerDes lanes
//! (one byte at 30 GB/s ≈ 33 ps).
//!
//! ## Example
//!
//! ```
//! use mn_sim::{EventQueue, SimTime, SimDuration};
//!
//! let mut queue: EventQueue<&'static str> = EventQueue::new();
//! queue.push(SimTime::ZERO + SimDuration::from_ns(5), "second");
//! queue.push(SimTime::ZERO + SimDuration::from_ns(2), "first");
//!
//! let (t, ev) = queue.pop().unwrap();
//! assert_eq!(ev, "first");
//! assert_eq!(t, SimTime::from_ns(2));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![warn(missing_debug_implementations)]

mod arena;
pub mod counters;
mod event;
pub mod ladder;
mod rng;
mod slab;
mod stats;
mod time;
mod watchdog;

pub use arena::{ArenaRef, GenArena};
pub use counters::KernelCounters;
pub use event::{EventQueue, Scheduled};
pub use ladder::LadderQueue;
pub use rng::SimRng;
pub use slab::SeqSlab;
pub use stats::{Accumulator, Counter, Histogram, RunningStats};
pub use time::{SimDuration, SimTime};
pub use watchdog::Watchdog;
