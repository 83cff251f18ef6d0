//! §5's interleave-granularity sweep.
//! Its grid, table and expected shape: [`mn_bench::figures::sweep_interleave`].

fn main() {
    mn_bench::run(mn_bench::figures::sweep_interleave());
}
