//! Structural metrics and ASCII rendering of topologies.
//!
//! These feed the analysis in §3 of the paper (hop counts explain the
//! speedup ordering) and the `topology_tour` example.

use crate::graph::{NodeKind, Topology};
use crate::placement::CubeTech;
use crate::routing::{PathClass, RoutingTable};

/// Summary statistics about a topology's read-path structure.
///
/// # Example
///
/// ```
/// use mn_topo::{Topology, TopologyKind, Placement, CubeTech, TopologyMetrics};
///
/// let topo = Topology::build(
///     TopologyKind::Tree,
///     &Placement::homogeneous(16, CubeTech::Dram),
/// ).unwrap();
/// let m = TopologyMetrics::compute(&topo);
/// assert!(m.max_read_hops <= 4);
/// assert!(m.avg_read_hops < 4.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TopologyMetrics {
    /// Mean host→cube hop count over cubes (read paths).
    pub avg_read_hops: f64,
    /// Mean host→cube hop count weighted by cube capacity, i.e. the
    /// expected hop count of a uniformly interleaved request (§3's
    /// assumption that requests are uniform in the address space).
    pub capacity_weighted_read_hops: f64,
    /// Worst-case host→cube read hop count (the network "diameter" as seen
    /// by the host).
    pub max_read_hops: u32,
    /// Worst-case host→cube hop count for write traffic.
    pub max_write_hops: u32,
    /// Number of links that no host↔cube read shortest path uses — the
    /// paper's "dashed" write-only links (zero except for skip lists).
    pub read_unused_links: usize,
    /// Total number of links.
    pub total_links: usize,
}

impl TopologyMetrics {
    /// Computes metrics for `topo` (internally builds a routing table;
    /// reuse [`TopologyMetrics::with_routing`] if you already have one).
    pub fn compute(topo: &Topology) -> TopologyMetrics {
        Self::with_routing(topo, &topo.routing())
    }

    /// Computes metrics given an existing routing table.
    pub fn with_routing(topo: &Topology, routes: &RoutingTable) -> TopologyMetrics {
        let host = topo.host();
        let mut sum = 0u64;
        let mut weighted_sum = 0u64;
        let mut weight = 0u64;
        let mut max_read = 0u32;
        let mut max_write = 0u32;
        let mut count = 0u64;
        for (cube, tech) in topo.cubes() {
            let rh = routes.read_hops(host, cube);
            let wh = routes.write_hops(host, cube);
            sum += u64::from(rh);
            let w = u64::from(tech.capacity_units());
            weighted_sum += u64::from(rh) * w;
            weight += w;
            max_read = max_read.max(rh);
            max_write = max_write.max(wh);
            count += 1;
        }
        let read_unused_links = routes
            .host_route_links(topo, PathClass::Read)
            .iter()
            .filter(|&&used| !used)
            .count();
        TopologyMetrics {
            avg_read_hops: sum as f64 / count.max(1) as f64,
            capacity_weighted_read_hops: weighted_sum as f64 / weight.max(1) as f64,
            max_read_hops: max_read,
            max_write_hops: max_write,
            read_unused_links,
            total_links: topo.link_count(),
        }
    }
}

/// Renders a topology as a human-readable adjacency listing, one node per
/// line, marking cube technologies and skip links. Used by the
/// `topology_tour` example to stand in for the paper's schematic figures.
/// `routes` must be `topo`'s routing table; each cube's line shows its
/// read hop count from the host.
pub fn render_ascii(topo: &Topology, routes: &RoutingTable) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{} ({} cubes, {} links)",
        topo.kind(),
        topo.cube_count(),
        topo.link_count()
    );
    for id in topo.node_ids() {
        let info = topo.node(id);
        let label = match info.kind {
            NodeKind::Host => "HOST".to_string(),
            NodeKind::Cube(CubeTech::Dram) => format!("c{:<2} DRAM", info.position),
            NodeKind::Cube(CubeTech::Nvm) => format!("c{:<2} NVM ", info.position),
            NodeKind::Interface => "IF      ".to_string(),
        };
        let mut nbrs: Vec<String> = topo
            .neighbors(id)
            .iter()
            .map(|&(nb, link)| {
                let mark = if topo.link(link).skip { "~" } else { "-" };
                format!("{mark}{nb}")
            })
            .collect();
        nbrs.sort();
        let hops = if info.kind.is_cube() {
            format!("  [{} read hops]", routes.read_hops(topo.host(), id))
        } else {
            String::new()
        };
        let _ = writeln!(out, "  {id:>4} {label}: {}{hops}", nbrs.join(" "));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::TopologyKind;
    use crate::placement::{NvmPlacement, Placement};

    fn metrics(kind: TopologyKind, n: usize) -> TopologyMetrics {
        let t = Topology::build(kind, &Placement::homogeneous(n, CubeTech::Dram)).unwrap();
        TopologyMetrics::compute(&t)
    }

    #[test]
    fn hop_ordering_matches_paper_intuition() {
        let chain = metrics(TopologyKind::Chain, 16);
        let ring = metrics(TopologyKind::Ring, 16);
        let tree = metrics(TopologyKind::Tree, 16);
        let skip = metrics(TopologyKind::SkipList, 16);
        let meta = metrics(TopologyKind::MetaCube, 16);

        // §3: ring halves the chain's average hop count; tree is lowest.
        assert!((chain.avg_read_hops - 8.5).abs() < 1e-9);
        assert!(ring.avg_read_hops < chain.avg_read_hops * 0.6);
        assert!(tree.avg_read_hops < ring.avg_read_hops);
        // §5.2: skip-list average hop count is similar to the tree's.
        assert!((skip.avg_read_hops - tree.avg_read_hops).abs() < 1.5);
        // MetaCube has the smallest worst case apart from tree-level.
        assert!(meta.max_read_hops <= 5);
    }

    #[test]
    fn chain_metrics_exact() {
        let m = metrics(TopologyKind::Chain, 16);
        assert_eq!(m.max_read_hops, 16);
        assert_eq!(m.max_write_hops, 16);
        assert_eq!(m.read_unused_links, 0);
        assert_eq!(m.total_links, 16);
    }

    #[test]
    fn skiplist_has_unused_read_links() {
        let m = metrics(TopologyKind::SkipList, 16);
        assert!(m.read_unused_links > 0);
        assert_eq!(m.max_write_hops, 16);
        assert_eq!(m.max_read_hops, 5);
    }

    #[test]
    fn capacity_weighting_reflects_nvm_placement() {
        let last = Placement::mixed_by_capacity(0.5, NvmPlacement::Last).unwrap();
        let first = Placement::mixed_by_capacity(0.5, NvmPlacement::First).unwrap();
        let t_last = Topology::build(TopologyKind::Chain, &last).unwrap();
        let t_first = Topology::build(TopologyKind::Chain, &first).unwrap();
        let m_last = TopologyMetrics::compute(&t_last);
        let m_first = TopologyMetrics::compute(&t_first);
        // NVM-L pushes half the capacity (and thus half the requests) to the
        // far end: its weighted hop count must exceed NVM-F's.
        assert!(m_last.capacity_weighted_read_hops > m_first.capacity_weighted_read_hops);
        // Unweighted averages are identical (same structure).
        assert!((m_last.avg_read_hops - m_first.avg_read_hops).abs() < 1e-12);
    }

    #[test]
    fn render_lists_every_node() {
        let t = Topology::build(
            TopologyKind::SkipList,
            &Placement::mixed_by_capacity(0.5, NvmPlacement::Last).unwrap(),
        )
        .unwrap();
        let s = render_ascii(&t, &t.routing());
        assert!(s.contains("HOST"));
        assert!(s.contains("NVM"));
        assert!(s.contains('~'), "skip links are marked with ~");
        assert_eq!(s.lines().count(), t.node_count() + 1);
    }
}
