//! Topology tour: renders every MN topology the paper evaluates (the
//! structures of Figs. 3, 8 and 9) with its structural metrics — hop
//! counts, diameters, and the skip-list's write-only "dashed" links.
//!
//! ```sh
//! cargo run -p mn-examples --example topology_tour
//! ```

use mn_topo::{
    render_ascii, CubeTech, NvmPlacement, Placement, Topology, TopologyKind, TopologyMetrics,
};

fn main() {
    println!("=== All-DRAM topologies (16 cubes per port) ===");
    let all_dram = Placement::homogeneous(16, CubeTech::Dram);
    for kind in TopologyKind::ALL {
        let topo = Topology::build(kind, &all_dram).expect("valid placement");
        let routes = topo.routing();
        let m = TopologyMetrics::with_routing(&topo, &routes);
        println!("{}", render_ascii(&topo, &routes));
        println!(
            "  avg read hops {:.2} | max read {} | max write {} | links {} ({} unused by reads)\n",
            m.avg_read_hops, m.max_read_hops, m.max_write_hops, m.total_links, m.read_unused_links,
        );
    }

    println!("=== Heterogeneous 50% DRAM / 50% NVM placements (Fig. 6) ===");
    for (placement, name) in [
        (NvmPlacement::Last, "NVM-L (far from the host)"),
        (NvmPlacement::First, "NVM-F (next to the host)"),
    ] {
        let mix = Placement::mixed_by_capacity(0.5, placement).expect("realizable");
        let topo = Topology::build(TopologyKind::Chain, &mix).expect("valid");
        let routes = topo.routing();
        let m = TopologyMetrics::with_routing(&topo, &routes);
        println!("--- {name} ---");
        println!("{}", render_ascii(&topo, &routes));
        println!(
            "  capacity-weighted read hops: {:.2} (uniform-address traffic)\n",
            m.capacity_weighted_read_hops
        );
    }
}
