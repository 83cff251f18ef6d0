//! Extensions: oracle age arbitration and the excluded mesh.
//! Its grid, table and expected shape: [`mn_bench::figures::ext_oracle_mesh`].

fn main() {
    mn_bench::run(mn_bench::figures::ext_oracle_mesh());
}
