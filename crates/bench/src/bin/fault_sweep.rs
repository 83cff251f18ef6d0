//! Fault sweep: wall-time sensitivity of every topology to link faults.
//! Its grid, table and expected shape: [`mn_bench::figures::fault_sweep`].

fn main() {
    mn_bench::run(mn_bench::figures::fault_sweep());
}
