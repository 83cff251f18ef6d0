//! §5's SerDes per-hop latency sweep.
//! Its grid, table and expected shape: [`mn_bench::figures::sweep_serdes`].

fn main() {
    mn_bench::run(mn_bench::figures::sweep_serdes());
}
