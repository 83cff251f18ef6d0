//! Ablation benchmarks for the design choices DESIGN.md calls out:
//! half- vs full-duplex links, arbitration schemes, and skip-list write
//! routing. These run short end-to-end simulations and report their wall
//! clock; the *simulated* outcomes of the same ablations are what the
//! fig10/fig12 binaries report. Self-contained harness, no external crates.

#![warn(unreachable_pub)]

use std::hint::black_box;
use std::time::Instant;

use mn_core::{simulate, SystemConfig};
use mn_noc::{ArbiterKind, LinkDuplex};
use mn_topo::TopologyKind;
use mn_workloads::Workload;

fn quick(topology: TopologyKind) -> SystemConfig {
    let mut c = SystemConfig::paper_baseline(topology, 1.0).expect("valid");
    c.requests_per_port = 600;
    c
}

fn bench<T>(name: &str, iters: u32, mut f: impl FnMut() -> T) {
    black_box(f()); // warm up
    let start = Instant::now();
    for _ in 0..iters {
        black_box(f());
    }
    let per_iter = start.elapsed().as_secs_f64() / f64::from(iters);
    println!("{name:<44} {:>10.2} ms/iter", per_iter * 1e3);
}

fn main() {
    for duplex in [LinkDuplex::Half, LinkDuplex::Full] {
        let mut config = quick(TopologyKind::Chain);
        config.noc.duplex = duplex;
        bench(&format!("duplex_ablation/{duplex:?}"), 10, || {
            simulate(&config, Workload::Dct)
        });
    }

    for arbiter in [
        ArbiterKind::RoundRobin,
        ArbiterKind::Distance,
        ArbiterKind::AdaptiveDistance,
    ] {
        let config = quick(TopologyKind::Chain).with_arbiter(arbiter);
        bench(&format!("arbiter_ablation/{arbiter:?}"), 10, || {
            simulate(&config, Workload::Dct)
        });
    }

    for burst_routing in [false, true] {
        let mut config = quick(TopologyKind::SkipList);
        config.write_burst_routing = burst_routing;
        bench(
            &format!("skiplist_write_routing/burst_routing_{burst_routing}"),
            10,
            || simulate(&config, Workload::Backprop),
        );
    }
}
