//! Fig. 10: distance-based arbitration on the twelve baseline configurations.
//! Its grid, table and expected shape: [`mn_bench::figures::fig10`].

fn main() {
    mn_bench::run(mn_bench::figures::fig10());
}
