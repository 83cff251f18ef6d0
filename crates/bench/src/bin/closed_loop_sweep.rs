//! Closed-loop sweep: offered load x window policy.
//! Its grid, table and expected shape: [`mn_bench::figures::closed_loop`].

fn main() {
    mn_bench::run(mn_bench::figures::closed_loop());
}
