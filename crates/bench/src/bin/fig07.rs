//! Fig. 7: the tree under every DRAM:NVM capacity ratio.
//! Its grid, table and expected shape: [`mn_bench::figures::fig07`].

fn main() {
    mn_bench::run(mn_bench::figures::fig07());
}
