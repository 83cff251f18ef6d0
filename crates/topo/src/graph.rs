//! The topology graph: nodes (host, cubes, interface chips) and links.

use std::fmt;

use crate::builders;
use crate::error::TopologyError;
use crate::placement::{CubeTech, Placement};
use crate::routing::RoutingTable;

/// Identifies a node within one memory network. Node 0 is always the host
/// memory port.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The host memory port.
    pub const HOST: NodeId = NodeId(0);

    /// The raw index, usable for dense per-node arrays.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Identifies an undirected link within one memory network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LinkId(pub u32);

impl LinkId {
    /// The raw index, usable for dense per-link arrays.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for LinkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "l{}", self.0)
    }
}

/// What a node is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NodeKind {
    /// The host processor's memory port (the root of every MN).
    Host,
    /// A memory cube of the given technology.
    Cube(CubeTech),
    /// A MetaCube interface chip: a router on the silicon interposer with no
    /// memory of its own (§4.3).
    Interface,
}

impl NodeKind {
    /// True for memory cubes.
    pub const fn is_cube(self) -> bool {
        matches!(self, NodeKind::Cube(_))
    }
}

/// The physical class of a link, which determines its latency/width model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LinkClass {
    /// A package-to-package high-speed SerDes link (16 lanes at 15 Gbps,
    /// 2 ns SerDes latency per traversal — §5).
    External,
    /// A short, wide link across a silicon interposer inside a MetaCube
    /// package; no SerDes (de)serialization penalty.
    Interposer,
}

/// Full description of a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeInfo {
    /// What the node is.
    pub kind: NodeKind,
    /// 1-based placement position for cubes (0 for host and interface
    /// chips). Position 1 is the cube closest to the host in placement
    /// order; this is the ordering [`Placement`] uses.
    pub position: u32,
}

/// Full description of an undirected link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkInfo {
    /// One endpoint.
    pub a: NodeId,
    /// The other endpoint.
    pub b: NodeId,
    /// Physical class.
    pub class: LinkClass,
    /// True for skip-list bypass links. Write traffic never uses these
    /// (§4.2); on other topologies every link has `skip == false`.
    pub skip: bool,
}

impl LinkInfo {
    /// The endpoint opposite `from`.
    ///
    /// # Panics
    ///
    /// Panics if `from` is not an endpoint of this link.
    pub fn other_end(&self, from: NodeId) -> NodeId {
        if from == self.a {
            self.b
        } else if from == self.b {
            self.a
        } else {
            panic!("{from} is not an endpoint of this link");
        }
    }
}

/// The topology families evaluated in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TopologyKind {
    /// Daisy chain (Fig. 3b) — the normalization baseline.
    Chain,
    /// Ring through the host (Fig. 3c).
    Ring,
    /// Ternary tree (Fig. 3d).
    Tree,
    /// Skip-list chain with cascading bypass links (Fig. 8).
    SkipList,
    /// Chain of MetaCube packages, four cubes per package (Fig. 9c).
    MetaCube,
    /// A 2-D mesh (extension). The paper *excludes* meshes because their
    /// average hop count exceeds a tree's no matter which cube hosts the
    /// port (§3); this builder exists to let the claim be checked.
    Mesh,
}

impl TopologyKind {
    /// The paper's five topologies, in its presentation order.
    pub const ALL: [TopologyKind; 5] = [
        TopologyKind::Chain,
        TopologyKind::Ring,
        TopologyKind::Tree,
        TopologyKind::SkipList,
        TopologyKind::MetaCube,
    ];

    /// The paper's five plus this crate's extensions.
    pub const ALL_EXTENDED: [TopologyKind; 6] = [
        TopologyKind::Chain,
        TopologyKind::Ring,
        TopologyKind::Tree,
        TopologyKind::SkipList,
        TopologyKind::MetaCube,
        TopologyKind::Mesh,
    ];

    /// The short label used in the paper's figures (`C`, `R`, `T`, `SL`,
    /// `MC`).
    pub const fn label(self) -> &'static str {
        match self {
            TopologyKind::Chain => "C",
            TopologyKind::Ring => "R",
            TopologyKind::Tree => "T",
            TopologyKind::SkipList => "SL",
            TopologyKind::MetaCube => "MC",
            TopologyKind::Mesh => "M",
        }
    }
}

impl fmt::Display for TopologyKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            TopologyKind::Chain => "Chain",
            TopologyKind::Ring => "Ring",
            TopologyKind::Tree => "Tree",
            TopologyKind::SkipList => "SkipList",
            TopologyKind::MetaCube => "MetaCube",
            TopologyKind::Mesh => "Mesh",
        };
        f.write_str(name)
    }
}

/// The memory network behind one host memory port.
///
/// Construct with [`Topology::build`]; inspect with the accessors; compute
/// paths with [`Topology::routing`].
#[derive(Debug, Clone)]
pub struct Topology {
    kind: TopologyKind,
    nodes: Vec<NodeInfo>,
    links: Vec<LinkInfo>,
    /// adjacency: for each node, its (neighbor, link) pairs.
    adj: Vec<Vec<(NodeId, LinkId)>>,
}

/// External-link budget per memory-cube package (§3: "HMC-like memory
/// packages with 4 ports per package").
pub(crate) const CUBE_PORT_BUDGET: u32 = 4;

impl Topology {
    /// Builds the given topology kind over the given cube placement.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::EmptyPlacement`] if `placement` has no cubes,
    /// or [`TopologyError::PortBudgetExceeded`] if the construction cannot
    /// respect the 4-links-per-cube budget (cannot happen for the built-in
    /// builders, but the invariant is always checked).
    pub fn build(kind: TopologyKind, placement: &Placement) -> Result<Topology, TopologyError> {
        if placement.is_empty() {
            return Err(TopologyError::EmptyPlacement);
        }
        let topo = match kind {
            TopologyKind::Chain => builders::chain(placement),
            TopologyKind::Ring => builders::ring(placement),
            TopologyKind::Tree => builders::ternary_tree(placement),
            TopologyKind::SkipList => builders::skip_list(placement),
            TopologyKind::MetaCube => builders::metacube(placement),
            TopologyKind::Mesh => builders::mesh(placement),
        };
        topo.check_port_budget()?;
        Ok(topo)
    }

    /// Internal constructor used by the builders.
    pub(crate) fn from_parts(
        kind: TopologyKind,
        nodes: Vec<NodeInfo>,
        links: Vec<LinkInfo>,
    ) -> Topology {
        let mut adj = vec![Vec::new(); nodes.len()];
        for (i, l) in links.iter().enumerate() {
            let id = LinkId(i as u32);
            adj[l.a.index()].push((l.b, id));
            adj[l.b.index()].push((l.a, id));
        }
        Topology {
            kind,
            nodes,
            links,
            adj,
        }
    }

    fn check_port_budget(&self) -> Result<(), TopologyError> {
        for (i, node) in self.nodes.iter().enumerate() {
            if node.kind.is_cube() {
                let used = self.adj[i].len() as u32;
                if used > CUBE_PORT_BUDGET {
                    return Err(TopologyError::PortBudgetExceeded {
                        position: node.position,
                        needed: used,
                        budget: CUBE_PORT_BUDGET,
                    });
                }
            }
        }
        Ok(())
    }

    /// Which topology family this is.
    pub fn kind(&self) -> TopologyKind {
        self.kind
    }

    /// The host memory port node.
    pub fn host(&self) -> NodeId {
        NodeId::HOST
    }

    /// Number of nodes, including the host and any interface chips.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of undirected links.
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// Information about a node.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn node(&self, id: NodeId) -> NodeInfo {
        self.nodes[id.index()]
    }

    /// Information about a link.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[inline]
    pub fn link(&self, id: LinkId) -> LinkInfo {
        self.links[id.index()]
    }

    /// Iterator over all node ids.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> {
        (0..self.nodes.len() as u32).map(NodeId)
    }

    /// Iterator over all link ids.
    pub fn link_ids(&self) -> impl Iterator<Item = LinkId> {
        (0..self.links.len() as u32).map(LinkId)
    }

    /// Iterator over memory-cube nodes with their technologies.
    pub fn cubes(&self) -> impl Iterator<Item = (NodeId, CubeTech)> + '_ {
        self.nodes
            .iter()
            .enumerate()
            .filter_map(|(i, n)| match n.kind {
                NodeKind::Cube(t) => Some((NodeId(i as u32), t)),
                _ => None,
            })
    }

    /// Number of memory cubes.
    pub fn cube_count(&self) -> usize {
        self.nodes.iter().filter(|n| n.kind.is_cube()).count()
    }

    /// The cube at 1-based placement position `pos`, if it exists.
    pub fn cube_at_position(&self, pos: u32) -> Option<NodeId> {
        self.nodes
            .iter()
            .position(|n| n.kind.is_cube() && n.position == pos)
            .map(|i| NodeId(i as u32))
    }

    /// Neighbors of a node as (neighbor, link) pairs.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[inline]
    pub fn neighbors(&self, id: NodeId) -> &[(NodeId, LinkId)] {
        &self.adj[id.index()]
    }

    /// Number of links attached to a node.
    pub fn degree(&self, id: NodeId) -> usize {
        self.adj[id.index()].len()
    }

    /// Computes the routing tables (read and write path classes) for this
    /// topology.
    pub fn routing(&self) -> RoutingTable {
        RoutingTable::compute(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::placement::NvmPlacement;

    fn dram(n: usize) -> Placement {
        Placement::homogeneous(n, CubeTech::Dram)
    }

    #[test]
    fn empty_placement_is_rejected() {
        let p = Placement::from_techs(vec![]);
        assert!(matches!(
            Topology::build(TopologyKind::Chain, &p),
            Err(TopologyError::EmptyPlacement)
        ));
    }

    #[test]
    fn chain_structure() {
        let t = Topology::build(TopologyKind::Chain, &dram(16)).unwrap();
        assert_eq!(t.cube_count(), 16);
        assert_eq!(t.node_count(), 17);
        assert_eq!(t.link_count(), 16);
        assert_eq!(t.degree(t.host()), 1);
        // Interior cubes have exactly 2 links; the tail has 1.
        let tail = t.cube_at_position(16).unwrap();
        assert_eq!(t.degree(tail), 1);
        let mid = t.cube_at_position(8).unwrap();
        assert_eq!(t.degree(mid), 2);
    }

    #[test]
    fn ring_cycles_through_first_cube() {
        let t = Topology::build(TopologyKind::Ring, &dram(16)).unwrap();
        assert_eq!(t.link_count(), 17);
        // The host keeps its single MN link; cube 1 closes the cycle.
        assert_eq!(t.degree(t.host()), 1);
        assert_eq!(t.degree(t.cube_at_position(1).unwrap()), 3);
        let tail = t.cube_at_position(16).unwrap();
        assert_eq!(t.degree(tail), 2);
    }

    #[test]
    fn tree_respects_port_budget() {
        let t = Topology::build(TopologyKind::Tree, &dram(16)).unwrap();
        for (id, _) in t.cubes() {
            assert!(t.degree(id) <= 4, "cube {id} has degree {}", t.degree(id));
        }
        assert_eq!(t.degree(t.host()), 1);
        assert_eq!(t.link_count(), 16); // a tree over 17 nodes
    }

    #[test]
    fn skiplist_has_skip_links() {
        let t = Topology::build(TopologyKind::SkipList, &dram(16)).unwrap();
        let skips = t.link_ids().filter(|&l| t.link(l).skip).count();
        assert!(skips >= 3, "expected cascading skip links, got {skips}");
        for (id, _) in t.cubes() {
            assert!(t.degree(id) <= 4);
        }
    }

    #[test]
    fn metacube_has_interface_chips() {
        let t = Topology::build(TopologyKind::MetaCube, &dram(16)).unwrap();
        let interfaces = t
            .node_ids()
            .filter(|&n| t.node(n).kind == NodeKind::Interface)
            .count();
        assert_eq!(interfaces, 4);
        assert_eq!(t.cube_count(), 16);
        // Interposer links connect cubes to their interface chip.
        let interposer = t
            .link_ids()
            .filter(|&l| t.link(l).class == LinkClass::Interposer)
            .count();
        assert_eq!(interposer, 16);
    }

    #[test]
    fn positions_map_to_techs() {
        let p = Placement::mixed_by_capacity(0.5, NvmPlacement::Last).unwrap();
        let t = Topology::build(TopologyKind::Chain, &p).unwrap();
        let last = t.cube_at_position(10).unwrap();
        assert_eq!(t.node(last).kind, NodeKind::Cube(CubeTech::Nvm));
        let first = t.cube_at_position(1).unwrap();
        assert_eq!(t.node(first).kind, NodeKind::Cube(CubeTech::Dram));
    }

    #[test]
    fn other_end_works() {
        let t = Topology::build(TopologyKind::Chain, &dram(2)).unwrap();
        let l = t.link(LinkId(0));
        assert_eq!(l.other_end(l.a), l.b);
        assert_eq!(l.other_end(l.b), l.a);
    }

    #[test]
    #[should_panic(expected = "not an endpoint")]
    fn other_end_panics_for_non_endpoint() {
        let t = Topology::build(TopologyKind::Chain, &dram(3)).unwrap();
        let l = t.link(LinkId(0)); // host—cube1
        l.other_end(NodeId(3));
    }

    #[test]
    fn labels_and_display() {
        assert_eq!(TopologyKind::SkipList.label(), "SL");
        assert_eq!(TopologyKind::MetaCube.to_string(), "MetaCube");
        assert_eq!(NodeId(3).to_string(), "n3");
        assert_eq!(LinkId(2).to_string(), "l2");
    }

    #[test]
    fn single_cube_all_topologies() {
        for kind in TopologyKind::ALL {
            let t = Topology::build(kind, &dram(1)).unwrap();
            assert_eq!(t.cube_count(), 1, "{kind}");
        }
    }
}
