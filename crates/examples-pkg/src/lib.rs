//! Carrier crate for the workspace's runnable examples (in `/examples`)
//! and cross-crate integration tests (in `/tests`). It re-exports the
//! public crates so example code can be read top-to-bottom without a
//! dependency scavenger hunt.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub use mn_core as core;
pub use mn_mem as mem;
pub use mn_noc as noc;
pub use mn_sim as sim;
pub use mn_topo as topo;
pub use mn_workloads as workloads;
