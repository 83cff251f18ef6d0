//! # mn-mem — memory device models for memory cubes
//!
//! The "in-memory" third of the paper's latency breakdown (Fig. 5) comes
//! from the device models in this crate:
//!
//! - [`MemTechSpec`] — timing and energy parameters for the two cube
//!   technologies in the paper's Table 2: HBM-like DRAM stacks and PCM-like
//!   NVM stacks (4x capacity, slower arrays, 10x write energy).
//! - [`Bank`] — an open-page bank state machine honoring
//!   tRCD/tCL/tRP/tRAS/tWR.
//! - [`QuadrantController`] — an FR-FCFS memory controller for one quadrant
//!   of a cube (64 banks of the 256 per stack), with a bounded request
//!   queue providing backpressure into the network, and periodic refresh
//!   for DRAM.
//! - [`ddr`] — the conventional DDR3/DDR4 bus model behind Table 1
//!   (maximum bus speed vs. DIMMs-per-channel), used to motivate memory
//!   networks in the first place.
//!
//! The crate deliberately knows nothing about networks: a controller
//! receives decoded `(bank, row)` accesses and reports completion times.
//! Address decoding and the network round trip live in `mn-core`.
//!
//! ## Example
//!
//! ```
//! use mn_mem::{MemTechSpec, QuadrantController, MemAccess};
//! use mn_sim::SimTime;
//!
//! let mut ctrl = QuadrantController::new(MemTechSpec::dram_hbm(), 64, 32);
//! let t0 = SimTime::ZERO;
//! ctrl.enqueue(MemAccess::read(1, 7, 100), t0).unwrap();
//! let done = ctrl.advance(t0);
//! assert_eq!(done.len(), 1);
//! // A closed-bank read costs tRCD + tCL + burst.
//! assert!(done[0].completed_at > SimTime::from_ns(18));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![warn(missing_debug_implementations)]

mod bank;
mod controller;
pub mod ddr;
mod energy;
mod tech;

pub use bank::{Bank, BankAccessOutcome};
pub use controller::{Completion, ControllerFull, MemAccess, QuadrantController};
pub use energy::EnergyPj;
pub use tech::{MemEnergy, MemTechSpec, MemTimings};
