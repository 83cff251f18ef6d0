//! Fig. 11: tree vs skip-list vs MetaCube, round-robin arbitration.
//! Its grid, table and expected shape: [`mn_bench::figures::fig11`].

fn main() {
    mn_bench::run(mn_bench::figures::fig11());
}
