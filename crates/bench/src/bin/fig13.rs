//! Fig. 13: sensitivity to the number of host memory ports.
//! Its grid, table and expected shape: [`mn_bench::figures::fig13`].

fn main() {
    mn_bench::run(mn_bench::figures::fig13());
}
