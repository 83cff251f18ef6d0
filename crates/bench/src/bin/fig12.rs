//! Fig. 12: all techniques combined.
//! Its grid, table and expected shape: [`mn_bench::figures::fig12`].

fn main() {
    mn_bench::run(mn_bench::figures::fig12());
}
