//! Fig. 15: network and read/write energy breakdown.
//! Its grid, table and expected shape: [`mn_bench::figures::fig15`].

fn main() {
    mn_bench::run(mn_bench::figures::fig15());
}
