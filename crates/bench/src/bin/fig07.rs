//! Fig. 7: the tree topology under different DRAM:NVM capacity ratios,
//! normalized to the 100%-DRAM chain.
//!
//! Expected shape (§3.3): using some NVM remains well above the chain
//! baseline; the all-NVM point varies most by workload and is weakest for
//! low-contention workloads (NW).

use mn_bench::{fig07_report, Harness};

fn main() {
    let mut harness = Harness::new();
    print!("{}", fig07_report(&mut harness));
    harness.finish();
}
