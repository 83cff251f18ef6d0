//! # mn-workloads — synthetic workload proxies
//!
//! The paper evaluates its memory networks with AMD SDK and Rodinia GPGPU
//! kernels running on a simulated 32-CU APU. That substrate is not
//! available here, but the memory network only ever observes the *memory
//! request stream* that survives the cache hierarchy — and the paper
//! characterizes those streams precisely:
//!
//! - **BACKPROP** "has significantly more writes than reads" and is "by far
//!   the most write intensive workload in our suite" (§3.2, §5.3);
//! - **KMEANS, MATRIXMUL, NW** "have at least two reads for every one
//!   write", with KMEANS "the most read intensive" (§3.2, §5.3);
//! - **NW** "has the lowest network load of all the workloads" (§3.2);
//! - the remaining workloads (BIT, BUFF, DCT, HOTSPOT) "have nearly
//!   identical numbers of read and write requests".
//!
//! This crate substitutes each kernel with a parameterized stochastic
//! stream ([`TraceGenerator`]) matching those characteristics: read
//! fraction, injection intensity, spatial locality (sequential-run length
//! and a Zipf-hot working set), and footprint. The substitution preserves
//! exactly the properties the paper's analysis depends on; DESIGN.md
//! documents it.
//!
//! ## Example
//!
//! ```
//! use mn_workloads::{Workload, TraceGenerator};
//!
//! let profile = Workload::Backprop.profile();
//! assert!(profile.read_fraction < 0.5); // write-heavy
//!
//! let mut gen = TraceGenerator::new(profile, 1 << 30, 42);
//! let first = gen.next().unwrap();
//! assert!(first.addr < (1 << 30));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![warn(missing_debug_implementations)]

mod generator;
mod profile;

pub use generator::{MemRef, TraceGenerator};
pub use profile::{Workload, WorkloadProfile};
