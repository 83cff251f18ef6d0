//! Fig. 14: sensitivity to total capacity (1 TB vs 2 TB).
//! Its grid, table and expected shape: [`mn_bench::figures::fig14`].

fn main() {
    mn_bench::run(mn_bench::figures::fig14());
}
