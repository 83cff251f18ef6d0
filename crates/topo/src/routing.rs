//! All-pairs shortest-path routing over a topology.
//!
//! Two path classes exist, mirroring the paper's read/write differentiated
//! routing (§4.2):
//!
//! - [`PathClass::Read`] — shortest paths over **all** links, including
//!   skip-list bypass links.
//! - [`PathClass::Write`] — shortest paths excluding skip links, i.e. write
//!   requests ride the central sequential chain of a skip-list MN. On every
//!   other topology the two classes coincide.
//!
//! The host is never used as a transit node: paths between two cubes cannot
//! route through the processor (traffic in this system is host↔cube only,
//! but the invariant is enforced for safety).

use crate::graph::{LinkId, NodeId, Topology};

/// Which routing plane a packet uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PathClass {
    /// Shortest path over every link (reads and read responses).
    Read,
    /// Chain-only path on skip lists (writes and write acknowledgments).
    Write,
}

impl PathClass {
    /// Both classes.
    pub const ALL: [PathClass; 2] = [PathClass::Read, PathClass::Write];
}

/// Sentinel in a routing entry: no next hop exists (the packet is at its
/// destination, or the pair is unreachable). As a distance it marks an
/// unreachable pair.
pub const NO_PORT: u16 = u16::MAX;

/// Precomputed routing tables for one topology.
///
/// # Example
///
/// ```
/// use mn_topo::{Topology, TopologyKind, Placement, CubeTech, PathClass};
///
/// let topo = Topology::build(
///     TopologyKind::Ring,
///     &Placement::homogeneous(16, CubeTech::Dram),
/// ).unwrap();
/// let routes = topo.routing();
///
/// // On a ring the "last" cube is reached the short way around: through
/// // cube 1 and backwards along the cycle, not 16 hops down the chain.
/// let c16 = topo.cube_at_position(16).unwrap();
/// assert_eq!(routes.hops(PathClass::Read, topo.host(), c16), 2);
/// ```
#[derive(Debug, Clone)]
pub struct RoutingTable {
    /// Node count, the row stride of the tables.
    n: usize,
    /// Dense `src * n + dst -> (out_port, dist)` table per class.
    /// `out_port` is `src`'s adjacency index toward the next hop, so a
    /// router's candidate scan costs one indexed load; it is [`NO_PORT`]
    /// when `src == dst` (distance 0) or the pair is unreachable
    /// (distance [`NO_PORT`]).
    read: Vec<(u16, u16)>,
    write: Vec<(u16, u16)>,
}

impl RoutingTable {
    /// Computes routing tables for `topo` with breadth-first search from
    /// every node (link hops are uniform cost). Neighbor exploration order
    /// is the topology's deterministic adjacency order, so routes are
    /// reproducible.
    ///
    /// # Panics
    ///
    /// Panics if `topo` has [`NO_PORT`] or more nodes: entries hold ports
    /// and hop counts as `u16`, with [`NO_PORT`] reserved.
    pub fn compute(topo: &Topology) -> RoutingTable {
        Self::compute_avoiding(topo, &[])
    }

    /// Computes routing tables for `topo` treating every link in `dead` as
    /// nonexistent — the fault-recovery path. Where the topology has path
    /// diversity (ring, skip-list, MetaCube) routes bend around the dead
    /// links; where it does not, destinations become unreachable (query
    /// with [`RoutingTable::reachable`] before forwarding).
    ///
    /// Graceful degradation for the write class: skip-list writes normally
    /// ride the chain only, but when a dead chain link severs the
    /// chain-only plane for some pair while the read plane (skip links
    /// included) still connects it, the write entries for that pair fall
    /// back to the read route. A degraded MN keeps serving writes over the
    /// skip links rather than reporting a partition the hardware could
    /// route around.
    ///
    /// # Panics
    ///
    /// As [`RoutingTable::compute`].
    pub fn compute_avoiding(topo: &Topology, dead: &[LinkId]) -> RoutingTable {
        let n = topo.node_count();
        assert!(
            n < usize::from(NO_PORT),
            "routing tables hold ports and hop counts as u16: {n} nodes is at or above the limit of {NO_PORT}"
        );
        let mut live = vec![true; topo.link_count()];
        for link in dead {
            live[link.index()] = false;
        }
        let read = Self::compute_class(topo, &live);
        let chain_only: Vec<bool> = topo
            .link_ids()
            .map(|l| live[l.index()] && !topo.link(l).skip)
            .collect();
        let mut write = Self::compute_class(topo, &chain_only);
        for (w, &r) in write.iter_mut().zip(&read) {
            if w.1 == NO_PORT && r.1 != NO_PORT {
                *w = r;
            }
        }
        RoutingTable { n, read, write }
    }

    /// One class's table: a BFS from every source over the links `usable`
    /// marks, carrying the source's adjacency index of the first hop
    /// forward to every node it discovers, so each entry is final the
    /// moment its node is reached. O(n·(n + links)).
    fn compute_class(topo: &Topology, usable: &[bool]) -> Vec<(u16, u16)> {
        let n = topo.node_count();
        let mut table = vec![(NO_PORT, NO_PORT); n * n];
        let mut queue = Vec::with_capacity(n);
        for src in topo.node_ids() {
            let row = &mut table[src.index() * n..][..n];
            row[src.index()] = (NO_PORT, 0);
            queue.clear();
            queue.push(src);
            let mut head = 0;
            while let Some(&u) = queue.get(head) {
                head += 1;
                // The host may originate/terminate but never forward.
                if u != src && u == topo.host() {
                    continue;
                }
                let (first, d) = row[u.index()];
                for (port, &(v, link)) in topo.neighbors(u).iter().enumerate() {
                    if usable[link.index()] && row[v.index()].1 == NO_PORT {
                        let first = if u == src {
                            u16::try_from(port).expect("adjacency index fits u16")
                        } else {
                            first
                        };
                        row[v.index()] = (first, d + 1);
                        queue.push(v);
                    }
                }
            }
        }
        table
    }

    #[inline]
    fn entry(&self, class: PathClass, src: NodeId, dst: NodeId) -> (u16, u16) {
        let table = match class {
            PathClass::Read => &self.read,
            PathClass::Write => &self.write,
        };
        table[src.index() * self.n + dst.index()]
    }

    /// Hop count from `src` to `dst` on the given class.
    ///
    /// # Panics
    ///
    /// Panics if `dst` is unreachable from `src` on that class (cannot
    /// happen for the built-in topologies, whose chain keeps every class
    /// connected).
    pub fn hops(&self, class: PathClass, src: NodeId, dst: NodeId) -> u32 {
        let d = self.entry(class, src, dst).1;
        assert!(d != NO_PORT, "{dst} unreachable from {src}");
        u32::from(d)
    }

    /// True when `dst` is reachable from `src` on `class`.
    pub fn reachable(&self, class: PathClass, src: NodeId, dst: NodeId) -> bool {
        self.entry(class, src, dst).1 != NO_PORT
    }

    /// Convenience for [`RoutingTable::hops`] with [`PathClass::Read`].
    pub fn read_hops(&self, src: NodeId, dst: NodeId) -> u32 {
        self.hops(PathClass::Read, src, dst)
    }

    /// Convenience for [`RoutingTable::hops`] with [`PathClass::Write`].
    pub fn write_hops(&self, src: NodeId, dst: NodeId) -> u32 {
        self.hops(PathClass::Write, src, dst)
    }

    /// The output port a packet at `at` takes toward `dst`: the position
    /// of the next-hop link in `topo.neighbors(at)`, or [`NO_PORT`] when
    /// `at == dst` or the pair is unreachable.
    #[inline]
    pub fn next_port(&self, class: PathClass, at: NodeId, dst: NodeId) -> u16 {
        self.entry(class, at, dst).0
    }

    /// The neighbor and link a packet at `at` should take toward `dst`,
    /// or `None` if `at == dst` or the pair is unreachable. `topo` must be
    /// the topology this table was computed for.
    pub fn next_hop(
        &self,
        topo: &Topology,
        class: PathClass,
        at: NodeId,
        dst: NodeId,
    ) -> Option<(NodeId, LinkId)> {
        let port = self.next_port(class, at, dst);
        (port != NO_PORT).then(|| topo.neighbors(at)[usize::from(port)])
    }

    /// The full node sequence from `src` to `dst` (inclusive of both).
    pub fn path(&self, topo: &Topology, class: PathClass, src: NodeId, dst: NodeId) -> Vec<NodeId> {
        std::iter::once(src)
            .chain(self.hops_along(topo, class, src, dst).map(|(node, _)| node))
            .collect()
    }

    /// The links traversed from `src` to `dst`.
    pub fn path_links(
        &self,
        topo: &Topology,
        class: PathClass,
        src: NodeId,
        dst: NodeId,
    ) -> Vec<LinkId> {
        self.hops_along(topo, class, src, dst)
            .map(|(_, link)| link)
            .collect()
    }

    /// The `(node entered, link taken)` steps from `src` to `dst`.
    fn hops_along<'a>(
        &'a self,
        topo: &'a Topology,
        class: PathClass,
        src: NodeId,
        dst: NodeId,
    ) -> impl Iterator<Item = (NodeId, LinkId)> + 'a {
        let mut cur = src;
        std::iter::from_fn(move || {
            (cur != dst).then(|| {
                let step = self
                    .next_hop(topo, class, cur, dst)
                    .expect("next_hop exists while cur != dst");
                cur = step.0;
                step
            })
        })
    }

    /// Marks, per [`LinkId`], the links on some host→cube or cube→host
    /// route of `class`. Links left unmarked under [`PathClass::Read`]
    /// are the paper's "dashed" links, used only by writes (Fig. 8).
    pub fn host_route_links(&self, topo: &Topology, class: PathClass) -> Vec<bool> {
        let mut used = vec![false; topo.link_count()];
        let host = topo.host();
        for (cube, _) in topo.cubes() {
            for (src, dst) in [(host, cube), (cube, host)] {
                for (_, link) in self.hops_along(topo, class, src, dst) {
                    used[link.index()] = true;
                }
            }
        }
        used
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::TopologyKind;
    use crate::placement::{CubeTech, Placement};

    fn build(kind: TopologyKind, n: usize) -> (Topology, RoutingTable) {
        let t = Topology::build(kind, &Placement::homogeneous(n, CubeTech::Dram)).unwrap();
        let r = t.routing();
        (t, r)
    }

    #[test]
    fn chain_distances_are_positions() {
        let (t, r) = build(TopologyKind::Chain, 16);
        for p in 1..=16 {
            let c = t.cube_at_position(p).unwrap();
            assert_eq!(r.read_hops(t.host(), c), p);
            assert_eq!(r.write_hops(t.host(), c), p);
        }
    }

    #[test]
    fn ring_takes_shorter_branch() {
        let (t, r) = build(TopologyKind::Ring, 16);
        // The host enters at cube 1; the diametrically opposite cube of
        // the 16-cycle is 8 further hops away.
        let max = (1..=16)
            .map(|p| r.read_hops(t.host(), t.cube_at_position(p).unwrap()))
            .max()
            .unwrap();
        assert_eq!(max, 9);
        // The "last" cube is adjacent to cube 1 around the back.
        assert_eq!(r.read_hops(t.host(), t.cube_at_position(16).unwrap()), 2);
        // Average hops roughly halve versus the chain (§3).
        let avg: f64 = (1..=16)
            .map(|p| f64::from(r.read_hops(t.host(), t.cube_at_position(p).unwrap())))
            .sum::<f64>()
            / 16.0;
        assert!((avg - 5.0).abs() < 1e-9, "got {avg}");
    }

    #[test]
    fn skiplist_reads_logarithmic_writes_linear() {
        let (t, r) = build(TopologyKind::SkipList, 16);
        let far = t.cube_at_position(16).unwrap();
        assert_eq!(r.read_hops(t.host(), far), 5);
        assert_eq!(r.write_hops(t.host(), far), 16);
        // Every cube within 5 read hops.
        for p in 1..=16 {
            let c = t.cube_at_position(p).unwrap();
            assert!(r.read_hops(t.host(), c) <= 5, "position {p}");
        }
    }

    #[test]
    fn skiplist_has_write_only_links() {
        let (t, r) = build(TopologyKind::SkipList, 16);
        let read = r.host_route_links(&t, PathClass::Read);
        let write = r.host_route_links(&t, PathClass::Write);
        let write_only = read.iter().zip(&write).filter(|&(&r, &w)| !r && w).count();
        assert!(write_only > 0, "expected dashed write-only links (Fig. 8)");
    }

    #[test]
    fn metacube_worst_case_is_small() {
        let (t, r) = build(TopologyKind::MetaCube, 16);
        let max = (1..=16)
            .map(|p| r.read_hops(t.host(), t.cube_at_position(p).unwrap()))
            .max()
            .unwrap();
        // Star of interface chips: host → IF₁ → IF_k → cube.
        assert_eq!(max, 3);
        let min = (1..=16)
            .map(|p| r.read_hops(t.host(), t.cube_at_position(p).unwrap()))
            .min()
            .unwrap();
        assert_eq!(min, 2);
    }

    #[test]
    fn paths_are_consistent_with_hops() {
        for kind in TopologyKind::ALL {
            let (t, r) = build(kind, 16);
            for p in 1..=16 {
                let c = t.cube_at_position(p).unwrap();
                for class in PathClass::ALL {
                    let path = r.path(&t, class, t.host(), c);
                    assert_eq!(path.len() as u32 - 1, r.hops(class, t.host(), c));
                    assert_eq!(*path.first().unwrap(), t.host());
                    assert_eq!(*path.last().unwrap(), c);
                    let links = r.path_links(&t, class, t.host(), c);
                    assert_eq!(links.len() + 1, path.len());
                }
            }
        }
    }

    #[test]
    fn paths_are_symmetric_in_length() {
        for kind in TopologyKind::ALL {
            let (t, r) = build(kind, 10);
            for p in 1..=10 {
                let c = t.cube_at_position(p).unwrap();
                assert_eq!(
                    r.read_hops(t.host(), c),
                    r.read_hops(c, t.host()),
                    "{kind} position {p}"
                );
            }
        }
    }

    #[test]
    fn host_is_not_transit() {
        // Cube-to-cube paths never cut through the host's router.
        let (t, r) = build(TopologyKind::Ring, 16);
        for p in 3..=16 {
            let src = t.cube_at_position(2).unwrap();
            let dst = t.cube_at_position(p).unwrap();
            let path = r.path(&t, PathClass::Read, src, dst);
            assert!(!path[1..path.len() - 1].contains(&t.host()));
        }
        // Around the back: cube 2 to cube 16 is three hops (2→1→16).
        let c2 = t.cube_at_position(2).unwrap();
        let c16 = t.cube_at_position(16).unwrap();
        assert_eq!(r.read_hops(c2, c16), 2);
    }

    #[test]
    fn next_hop_none_for_self() {
        let (t, r) = build(TopologyKind::Chain, 4);
        assert_eq!(r.next_hop(&t, PathClass::Read, t.host(), t.host()), None);
    }

    /// The link joining `a` and `b`, which must exist.
    fn link_between(t: &Topology, a: NodeId, b: NodeId) -> LinkId {
        t.neighbors(a)
            .iter()
            .find(|&&(n, _)| n == b)
            .map(|&(_, l)| l)
            .expect("nodes are adjacent")
    }

    #[test]
    fn dead_link_partitions_a_chain() {
        let (t, _) = build(TopologyKind::Chain, 8);
        let c4 = t.cube_at_position(4).unwrap();
        let c5 = t.cube_at_position(5).unwrap();
        let dead = link_between(&t, c4, c5);
        let r = RoutingTable::compute_avoiding(&t, &[dead]);
        // Positions 1..=4 stay reachable, 5..=8 are cut off.
        for p in 1..=4 {
            let c = t.cube_at_position(p).unwrap();
            assert!(r.reachable(PathClass::Read, t.host(), c), "position {p}");
            assert_eq!(r.hops(PathClass::Read, t.host(), c), p);
        }
        for p in 5..=8 {
            let c = t.cube_at_position(p).unwrap();
            assert!(!r.reachable(PathClass::Read, t.host(), c), "position {p}");
        }
    }

    #[test]
    fn ring_routes_around_a_dead_link() {
        let (t, healthy) = build(TopologyKind::Ring, 16);
        // Cut close to the host, where shortest paths actually cross: the
        // cube just behind the cut must detour the long way around.
        let c1 = t.cube_at_position(1).unwrap();
        let c2 = t.cube_at_position(2).unwrap();
        let dead = link_between(&t, c1, c2);
        let r = RoutingTable::compute_avoiding(&t, &[dead]);
        // Every cube stays reachable; paths avoid the dead link; no cube
        // gets closer than it was on the healthy ring.
        for p in 1..=16 {
            let c = t.cube_at_position(p).unwrap();
            assert!(r.reachable(PathClass::Read, t.host(), c), "position {p}");
            assert!(!r
                .path_links(&t, PathClass::Read, t.host(), c)
                .contains(&dead));
            assert!(
                r.hops(PathClass::Read, t.host(), c) >= healthy.read_hops(t.host(), c),
                "position {p}"
            );
        }
        assert!(
            r.read_hops(t.host(), c2) > healthy.read_hops(t.host(), c2),
            "the cube behind the cut detours the long way around"
        );
    }

    #[test]
    fn skiplist_writes_fall_back_to_skip_links_past_a_dead_chain_link() {
        let (t, _) = build(TopologyKind::SkipList, 16);
        let c8 = t.cube_at_position(8).unwrap();
        let c9 = t.cube_at_position(9).unwrap();
        let dead = link_between(&t, c8, c9);
        assert!(!t.link(dead).skip, "the chain link, not a bypass");
        let r = RoutingTable::compute_avoiding(&t, &[dead]);
        let far = t.cube_at_position(16).unwrap();
        // Reads detour over skips as usual; writes — normally chain-only —
        // degrade onto the read plane instead of partitioning.
        assert!(r.reachable(PathClass::Read, t.host(), far));
        assert!(r.reachable(PathClass::Write, t.host(), far));
        assert!(r
            .path_links(&t, PathClass::Write, t.host(), far)
            .iter()
            .any(|&l| t.link(l).skip));
        // Pairs the chain still serves keep their chain-only write routes.
        let near = t.cube_at_position(2).unwrap();
        assert!(r
            .path_links(&t, PathClass::Write, t.host(), near)
            .iter()
            .all(|&l| !t.link(l).skip));
    }

    #[test]
    #[should_panic(expected = "at or above the limit")]
    fn node_counts_past_the_u16_entries_are_rejected() {
        // 65535 cubes plus the host: the check fires before the 34 GB
        // tables would be allocated.
        let big = Topology::build(
            TopologyKind::Chain,
            &Placement::homogeneous(usize::from(NO_PORT), CubeTech::Dram),
        )
        .unwrap();
        RoutingTable::compute(&big);
    }

    #[test]
    fn compute_avoiding_with_no_dead_links_matches_compute() {
        for kind in TopologyKind::ALL {
            let (t, healthy) = build(kind, 16);
            let r = RoutingTable::compute_avoiding(&t, &[]);
            for p in 1..=16 {
                let c = t.cube_at_position(p).unwrap();
                for class in PathClass::ALL {
                    assert_eq!(
                        r.path(&t, class, t.host(), c),
                        healthy.path(&t, class, t.host(), c),
                        "{kind} position {p}"
                    );
                }
            }
        }
    }
}
