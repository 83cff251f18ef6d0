//! Fig. 5: latency breakdown to, in and from memory for chain, ring and tree.
//! Its grid, table and expected shape: [`mn_bench::figures::fig05`].

fn main() {
    mn_bench::run(mn_bench::figures::fig05());
}
