//! Fig. 4: speedup of all-DRAM ring and tree MNs over the chain.
//! Its grid, table and expected shape: [`mn_bench::figures::fig04`].

fn main() {
    mn_bench::run(mn_bench::figures::fig04());
}
