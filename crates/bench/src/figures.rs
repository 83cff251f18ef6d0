//! The figure registry: every simulating output of `mn-bench`, each
//! defined once as the campaigns its binary submits and a pure render of
//! their results to the binary's exact stdout.
//!
//! The binaries are one-line `main`s over [`crate::run`], the golden
//! tests replay [`ALL`] against the committed `results/*.txt`, and
//! `hotspots` profiles Figs. 10–12 from here.

use std::fmt::{self, Write as _};

use mn_campaign::{CampaignError, CampaignPoint};
use mn_core::{mix_grid, ratio_label, speedup_pct, RunResult, SystemConfig, WindowPolicyKind};
use mn_noc::{ArbiterKind, FaultConfig};
use mn_sim::SimDuration;
use mn_topo::{CubeTech, NvmPlacement, Placement, Topology, TopologyKind, TopologyMetrics};
use mn_workloads::Workload;

use crate::{
    baseline_config, config_for, mix_topology_grid, twelve_config_grid, CLOSED_LOOP_ECN_THRESHOLD,
};

/// One point's result, or why it has none.
pub type PointResult = Result<RunResult, CampaignError>;

/// Renders a figure's text from its campaigns' results, in campaign
/// order.
pub type Render = fn(&[Vec<PointResult>]) -> String;

/// One figure: the campaigns its binary submits, and its render.
pub struct Figure {
    /// The figure's name; its golden output is `results/<name>.txt`.
    pub name: &'static str,
    /// The grids the binary submits, one campaign each, in order.
    pub campaigns: Vec<Vec<CampaignPoint>>,
    /// Renders the binary's stdout from the campaigns' results.
    pub render: Render,
    /// Whether the campaigns run with the result cache detached.
    detached: bool,
}

impl Figure {
    fn new(name: &'static str, campaigns: Vec<Vec<CampaignPoint>>, render: Render) -> Figure {
        Figure {
            name,
            campaigns,
            render,
            detached: false,
        }
    }

    /// Whether the figure's binary runs with the result cache attached.
    /// Only the closed-loop sweep does not: its render reads the
    /// telemetry rollup, which cache hits never carry.
    pub fn cached(&self) -> bool {
        !self.detached
    }
}

/// Every registry figure: the paper's figures in order, then the
/// extensions.
pub const ALL: [fn() -> Figure; 14] = [
    fig04,
    fig05,
    fig07,
    fig10,
    fig11,
    fig12,
    fig13,
    fig14,
    fig15,
    sweep_interleave,
    sweep_serdes,
    ext_oracle_mesh,
    fault_sweep,
    closed_loop,
];

/// A campaign's results when every point must succeed: a table with no
/// row for a failure panics with the point's error.
fn ok(campaign: &[PointResult]) -> Vec<&RunResult> {
    campaign
        .iter()
        .map(|r| {
            r.as_ref()
                .unwrap_or_else(|e| panic!("figure point failed: {e}"))
        })
        .collect()
}

/// A table's `== title ==` line and its column-header line.
fn heading(title: &str, columns: fmt::Arguments<'_>) -> String {
    format!("== {title} ==\n{columns}\n")
}

/// One row of a speedup table: workload label plus `(config label, %)`.
#[derive(Debug, Clone)]
pub struct SpeedupRow {
    /// Workload label.
    pub workload: String,
    /// `(configuration label, speedup percent)` pairs in column order.
    pub entries: Vec<(String, f64)>,
}

/// The points of one speedup table: the shared `100%-C` baseline per
/// workload, then every configuration per workload, optionally with the
/// arbitration scheme overridden on every configuration.
pub(crate) fn speedup_points(
    configs: &[SystemConfig],
    workloads: &[Workload],
    arbiter: Option<ArbiterKind>,
) -> Vec<CampaignPoint> {
    let Some(template) = configs.first() else {
        return Vec::new();
    };
    let base = baseline_config(template);
    let mut points: Vec<CampaignPoint> = workloads
        .iter()
        .map(|&wl| CampaignPoint::new(base.clone(), wl))
        .collect();
    for &wl in workloads {
        for config in configs {
            let mut config = config.clone();
            if let Some(arb) = arbiter {
                config.noc.arbiter = arb;
            }
            points.push(CampaignPoint::new(config, wl));
        }
    }
    points
}

/// The paper's speedup rows from the results of [`speedup_points`].
pub(crate) fn speedup_rows(results: &[&RunResult], workloads: &[Workload]) -> Vec<SpeedupRow> {
    if results.is_empty() {
        return Vec::new();
    }
    let (baselines, grid) = results.split_at(workloads.len());
    let configs = grid.len() / workloads.len();
    workloads
        .iter()
        .enumerate()
        .map(|(w, wl)| SpeedupRow {
            workload: wl.label().to_string(),
            entries: grid[w * configs..(w + 1) * configs]
                .iter()
                .map(|r| (r.label.clone(), speedup_pct(baselines[w].wall, r.wall)))
                .collect(),
        })
        .collect()
}

/// Renders a speedup table with an `average` row, matching the paper's
/// figure layout (workloads as rows, configurations as columns).
pub fn render_speedup_table(title: &str, rows: &[SpeedupRow]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "\n== {title} ==");
    let Some(first) = rows.first() else {
        let _ = writeln!(out, "(no data)");
        return out;
    };
    let _ = write!(out, "{:<10}", "workload");
    for (label, _) in &first.entries {
        let _ = write!(out, " {label:>16}");
    }
    let _ = writeln!(out);
    let cols = first.entries.len();
    let mut sums = vec![0.0; cols];
    for row in rows {
        let _ = write!(out, "{:<10}", row.workload);
        for (i, (_, pct)) in row.entries.iter().enumerate() {
            let _ = write!(out, " {pct:>+15.1}%");
            sums[i] += pct;
        }
        let _ = writeln!(out);
    }
    let _ = write!(out, "{:<10}", "average");
    for sum in sums {
        let _ = write!(out, " {:>+15.1}%", sum / rows.len() as f64);
    }
    let _ = writeln!(out);
    out
}

/// A figure of one speedup table over every workload.
fn speedup_figure(
    name: &'static str,
    configs: &[SystemConfig],
    arbiter: Option<ArbiterKind>,
    render: Render,
) -> Figure {
    Figure::new(
        name,
        vec![speedup_points(configs, &Workload::ALL, arbiter)],
        render,
    )
}

/// The one table of a [`speedup_figure`].
fn speedup_table(title: &str, r: &[Vec<PointResult>]) -> String {
    render_speedup_table(title, &speedup_rows(&ok(&r[0]), &Workload::ALL))
}

fn dram(topology: TopologyKind) -> SystemConfig {
    config_for(topology, 1.0, NvmPlacement::Last)
}

const BASELINE_TOPOLOGIES: [TopologyKind; 3] =
    [TopologyKind::Chain, TopologyKind::Ring, TopologyKind::Tree];

const NEW_TOPOLOGIES: [TopologyKind; 3] = [
    TopologyKind::Tree,
    TopologyKind::SkipList,
    TopologyKind::MetaCube,
];

/// Fig. 4: speedup of all-DRAM ring and tree MNs over the chain.
///
/// Expected shape (§3.1): the tree (fewest hops) wins everywhere, the
/// ring sits between tree and chain, and NW (lowest network load) moves
/// least.
pub fn fig04() -> Figure {
    const TITLE: &str = "Fig. 4: speedup of DRAM memory networks over a chain topology";
    let configs = [dram(TopologyKind::Ring), dram(TopologyKind::Tree)];
    speedup_figure("fig04", &configs, None, |r| speedup_table(TITLE, r))
}

/// The Fig. 5 grid: every workload on the all-DRAM chain, ring, and tree
/// (sized from the environment like every figure).
pub fn fig05_points() -> Vec<CampaignPoint> {
    Workload::ALL
        .into_iter()
        .flat_map(|wl| {
            BASELINE_TOPOLOGIES
                .into_iter()
                .map(move |topo| CampaignPoint::new(dram(topo), wl))
        })
        .collect()
}

/// Renders the Fig. 5 latency-breakdown table from the results of
/// [`fig05_points`] — byte-identical to the `fig05` binary's stdout.
pub fn fig05_table(results: &[RunResult]) -> String {
    let mut out = heading(
        "Fig. 5: latency breakdown relative to chain total",
        format_args!(
            "{:<10} {:<6} {:>10} {:>10} {:>10} {:>10}",
            "workload", "topo", "to-mem", "in-mem", "from-mem", "total(ns)"
        ),
    );
    for (w, wl) in Workload::ALL.into_iter().enumerate() {
        let mut chain_total = None;
        for (t, topo) in BASELINE_TOPOLOGIES.into_iter().enumerate() {
            let result = &results[w * BASELINE_TOPOLOGIES.len() + t];
            let b = &result.breakdown;
            let total = b.total_mean_ns();
            let base = *chain_total.get_or_insert(total);
            let _ = writeln!(
                out,
                "{:<10} {:<6} {:>9.3} {:>10.3} {:>10.3} {:>9.1}ns",
                wl.label(),
                topo.label(),
                b.to_memory.mean_ns() / base,
                b.in_memory.mean_ns() / base,
                b.from_memory.mean_ns() / base,
                total,
            );
        }
    }
    out
}

/// Fig. 5: breakdown of memory request latency (to memory / in memory /
/// from memory) for chain, ring, and tree, normalized to the chain's
/// total.
///
/// Expected shape (§3.2): network latency dominates array latency under
/// load; the request (to-memory) path out-queues the response path
/// because responses are prioritized on the shared links; NW has the
/// largest in-memory share.
pub fn fig05() -> Figure {
    Figure::new("fig05", vec![fig05_points()], |r| {
        let results: Vec<RunResult> = ok(&r[0]).into_iter().cloned().collect();
        fig05_table(&results)
    })
}

/// Fig. 7: the tree topology under different DRAM:NVM capacity ratios,
/// normalized to the 100%-DRAM chain.
///
/// Expected shape (§3.3): using some NVM remains well above the chain
/// baseline; the all-NVM point varies most by workload and is weakest
/// for low-contention workloads (NW).
pub fn fig07() -> Figure {
    let configs: Vec<SystemConfig> = mix_grid()
        .into_iter()
        .map(|mix| config_for(TopologyKind::Tree, mix.dram_fraction, mix.placement))
        .collect();
    const TITLE: &str = "Fig. 7: tree topology with different DRAM:NVM ratios (vs 100%-Chain)";
    speedup_figure("fig07", &configs, None, |r| speedup_table(TITLE, r))
}

/// Fig. 10: distance-based arbitration alone, on the twelve baseline
/// configurations (chain/ring/tree x DRAM:NVM mixes), normalized to the
/// 100%-Chain round-robin baseline. A second table isolates the
/// arbitration delta (distance vs round-robin per configuration).
///
/// Expected shape (§5.1): "mixed results" — distance-as-age helps most
/// all-DRAM and NVM-L configurations but can invert on NVM-F, where
/// nearby slow arrays make young-looking responses actually old.
pub fn fig10() -> Figure {
    let grid = twelve_config_grid(BASELINE_TOPOLOGIES);
    Figure::new(
        "fig10",
        vec![
            speedup_points(&grid, &Workload::ALL, Some(ArbiterKind::Distance)),
            speedup_points(&grid, &Workload::ALL, Some(ArbiterKind::RoundRobin)),
        ],
        |r| {
            let distance = speedup_rows(&ok(&r[0]), &Workload::ALL);
            let rr = speedup_rows(&ok(&r[1]), &Workload::ALL);
            let mut delta = distance.clone();
            for (d, r) in delta.iter_mut().zip(&rr) {
                for ((_, dp), (_, rp)) in d.entries.iter_mut().zip(&r.entries) {
                    *dp -= rp;
                }
            }
            let mut out = render_speedup_table(
                "Fig. 10: distance-based arbitration on baseline topologies (vs 100%-C RR)",
                &distance,
            );
            out.push_str(&render_speedup_table(
                "Fig. 10 (delta view): distance arbitration minus round-robin, percentage points",
                &delta,
            ));
            out
        },
    )
}

/// Fig. 11: tree vs skip-list vs MetaCube with the default round-robin
/// arbitration, across the DRAM:NVM mixes, normalized to 100%-Chain.
///
/// Expected shape (§5.2): MetaCube wins essentially everywhere and is
/// the one topology where 100% DRAM beats every NVM mix; skip-list
/// trails the tree on write-heavy workloads (its writes ride the long
/// chain) and shows its best relative results on NVM-L mixes.
pub fn fig11() -> Figure {
    const TITLE: &str =
        "Fig. 11: Tree vs SkipList vs MetaCube, round-robin arbitration (vs 100%-C)";
    let grid = twelve_config_grid(NEW_TOPOLOGIES);
    speedup_figure("fig11", &grid, None, |r| speedup_table(TITLE, r))
}

/// Fig. 12: all techniques combined — tree/skip-list/MetaCube with
/// adaptive (technology- and type-aware) distance arbitration, plus the
/// write-burst routing policy on skip lists — normalized to 100%-Chain.
///
/// Expected shape (§5.3): every configuration improves on its Fig. 11
/// counterpart or holds; the skip-list regains the write-heavy losses
/// (BACKPROP benefits most of all workloads); MetaCube stays on top.
pub fn fig12() -> Figure {
    let mut grid = twelve_config_grid(NEW_TOPOLOGIES);
    for config in &mut grid {
        config.write_burst_routing = true; // only skip lists act on this
    }
    const TITLE: &str = "Fig. 12: all techniques combined — adaptive distance arbitration + write-burst routing (vs 100%-C)";
    let arbiter = Some(ArbiterKind::AdaptiveDistance);
    speedup_figure("fig12", &grid, arbiter, |r| speedup_table(TITLE, r))
}

/// Fig. 13: sensitivity to the number of host memory ports — the 2 TB
/// system served by four ports instead of eight (twice the cubes, and
/// twice the traffic, per port). Reported as the change in speedup when
/// moving from eight to four ports, per configuration.
///
/// Expected shape (§6.1): linear topologies (chain, ring) degrade most
/// as their hop counts double; 50% NVM-L suffers the worst of the mixes;
/// all-NVM configurations move least (memory-latency-bound); MetaCube is
/// nearly flat on some workloads.
pub fn fig13() -> Figure {
    // Two points per (workload, configuration): the eight-port baseline
    // and the four-port variant.
    let mut points = Vec::new();
    for wl in Workload::ALL {
        for (mix, topo) in mix_topology_grid() {
            let eight = config_for(topo, mix.dram_fraction, mix.placement);
            let mut four = eight.clone();
            four.ports = 4;
            // Hold total system work constant: each of the four ports
            // serves twice the address space and twice the requests.
            four.requests_per_port = eight.requests_per_port * 2;
            points.push(CampaignPoint::new(eight, wl));
            points.push(CampaignPoint::new(four, wl));
        }
    }
    Figure::new("fig13", vec![points], |r| {
        let results = ok(&r[0]);
        let configs = results.len() / (2 * Workload::ALL.len());
        let rows: Vec<SpeedupRow> = Workload::ALL
            .into_iter()
            .zip(results.chunks_exact(2 * configs))
            .map(|(wl, per_wl)| SpeedupRow {
                workload: wl.label().to_string(),
                // The four-port system's speedup relative to the same
                // configuration at eight ports.
                entries: per_wl
                    .chunks_exact(2)
                    .map(|p| (p[0].label.clone(), speedup_pct(p[0].wall, p[1].wall)))
                    .collect(),
            })
            .collect();
        render_speedup_table(
            "Fig. 13: speedup change moving from eight to four host ports (2 TB fixed)",
            &rows,
        )
    })
}

/// Fig. 14: sensitivity to total capacity — a 1 TB system (half the
/// cubes behind each port, same footprint pressure) versus the 2 TB
/// baseline. Reported as the average speedup of 1 TB over 2 TB per
/// configuration, averaged across workloads, as in the paper's figure.
///
/// Expected shape (§6.2): all-DRAM configurations gain (shorter
/// networks, memory latency roughly constant); the 50% and especially 0%
/// NVM configurations lose — fewer cubes means less memory-level
/// parallelism and more queuing inside the (slower) cubes.
pub fn fig14() -> Figure {
    let mut points = Vec::new();
    for (mix, topo) in mix_topology_grid() {
        let two_tb = config_for(topo, mix.dram_fraction, mix.placement);
        let mut one_tb = two_tb.clone();
        one_tb.total_capacity_gb = 1024;
        for wl in Workload::ALL {
            points.push(CampaignPoint::new(two_tb.clone(), wl));
            points.push(CampaignPoint::new(one_tb.clone(), wl));
        }
    }
    Figure::new("fig14", vec![points], |r| {
        let results = ok(&r[0]);
        let mut out = heading(
            "Fig. 14: average speedup of a 1 TB system over the 2 TB baseline",
            format_args!("{:<14} {:<10} {:>12}", "mix", "topology", "avg speedup"),
        );
        let per_config = Workload::ALL.len() * 2;
        for ((mix, topo), per_wl) in mix_topology_grid()
            .into_iter()
            .zip(results.chunks_exact(per_config))
        {
            let sum: f64 = per_wl
                .chunks_exact(2)
                .map(|p| speedup_pct(p[0].wall, p[1].wall))
                .sum();
            let _ = writeln!(
                out,
                "{:<14} {:<10} {:>+11.2}%",
                ratio_label(mix),
                topo.to_string(),
                sum / Workload::ALL.len() as f64
            );
        }
        out
    })
}

/// Fig. 15: breakdown of network (transport) energy and read/write
/// (memory access) energy, averaged across workloads, normalized to the
/// total energy of the 100%-Chain MN.
///
/// Expected shape (§6.3): network energy dominates all-DRAM MNs and
/// grows with hop count (chain worst, tree least among cube-only
/// topologies; skip-list above tree because writes detour); the all-NVM
/// chain cuts network energy roughly 3x but its write energy pushes the
/// total above the baseline.
pub fn fig15() -> Figure {
    let mut points = Vec::new();
    for (mix, topo) in mix_topology_grid() {
        let config = config_for(topo, mix.dram_fraction, mix.placement);
        for wl in Workload::ALL {
            points.push(CampaignPoint::new(config.clone(), wl));
        }
    }
    Figure::new("fig15", vec![points], |r| {
        // Average energy per configuration across all workloads.
        let n = Workload::ALL.len();
        let table: Vec<(String, f64, f64, f64)> = ok(&r[0])
            .chunks_exact(n)
            .map(|per_wl| {
                let network: f64 = per_wl.iter().map(|r| r.energy.network.as_pj()).sum();
                let read: f64 = per_wl.iter().map(|r| r.energy.read.as_pj()).sum();
                let write: f64 = per_wl.iter().map(|r| r.energy.write.as_pj()).sum();
                let n = n as f64;
                (per_wl[0].label.clone(), network / n, read / n, write / n)
            })
            .collect();
        let baseline_total: f64 = table
            .iter()
            .find(|(label, ..)| label == "100%-C")
            .map(|(_, n, r, w)| n + r + w)
            .expect("baseline present");
        let mut out = heading(
            "Fig. 15: energy breakdown relative to 100%-C total",
            format_args!(
                "{:<18} {:>9} {:>9} {:>9} {:>9}",
                "config", "network", "read", "write", "total"
            ),
        );
        for (label, n, r, w) in table {
            let _ = writeln!(
                out,
                "{label:<18} {:>8.1}% {:>8.1}% {:>8.1}% {:>8.1}%",
                n / baseline_total * 100.0,
                r / baseline_total * 100.0,
                w / baseline_total * 100.0,
                (n + r + w) / baseline_total * 100.0,
            );
        }
        out
    })
}

const INTERLEAVE_WORKLOADS: [Workload; 3] =
    [Workload::Dct, Workload::Matrixmul, Workload::Backprop];
const INTERLEAVE_BYTES: [u64; 3] = [64, 256, 1024];

/// Reproduces §5's interleave-granularity claim: "addresses are mapped
/// to ports at a 256 byte granularity... chosen empirically based on a
/// sweep of various mapping sizes. In the presence of spatial locality,
/// larger mapping granularities (e.g., 1024 bytes) caused increases in
/// network latency large enough for performance degradation. The
/// smallest size, 64 bytes, caused reduction in row-buffer hits within
/// the memory cubes."
pub fn sweep_interleave() -> Figure {
    let points = INTERLEAVE_WORKLOADS
        .into_iter()
        .flat_map(|wl| {
            INTERLEAVE_BYTES.into_iter().map(move |bytes| {
                let mut config = dram(TopologyKind::Tree);
                config.interleave_bytes = bytes;
                CampaignPoint::new(config, wl)
            })
        })
        .collect();
    Figure::new("sweep_interleave", vec![points], |r| {
        let mut out = heading(
            "interleave-granularity sweep (tree, all-DRAM)",
            format_args!(
                "{:<10} {:>8} {:>12} {:>12} {:>12}",
                "workload", "bytes", "wall", "net lat(ns)", "row hits"
            ),
        );
        let results = ok(&r[0]);
        for (wl, per_wl) in INTERLEAVE_WORKLOADS
            .into_iter()
            .zip(results.chunks_exact(INTERLEAVE_BYTES.len()))
        {
            for (r, bytes) in per_wl.iter().zip(INTERLEAVE_BYTES) {
                let b = &r.breakdown;
                let _ = writeln!(
                    out,
                    "{:<10} {:>8} {:>12} {:>12.1} {:>11.1}%",
                    wl.label(),
                    bytes,
                    format!("{}", r.wall),
                    b.to_memory.mean_ns() + b.from_memory.mean_ns(),
                    r.row_hit_rate * 100.0,
                );
            }
            let _ = writeln!(out);
        }
        out.push_str(
            "expected shape: 64 B loses row-buffer hits; 1024 B concentrates\n\
             bursts onto single cubes and raises network latency; 256 B balances.\n",
        );
        out
    })
}

const SERDES_WORKLOADS: [Workload; 2] = [Workload::Dct, Workload::Kmeans];
const SERDES_NS: [u64; 3] = [0, 2, 10];

/// Reproduces §5's SerDes-latency claim: "we experimented modifying this
/// parameter and found that 2 ns made little difference compared to no
/// latency, however larger values (e.g., 10 ns) have a large impact on
/// network latency."
pub fn sweep_serdes() -> Figure {
    let points = SERDES_WORKLOADS
        .into_iter()
        .flat_map(|wl| {
            SERDES_NS.into_iter().map(move |ns| {
                let mut config = dram(TopologyKind::Chain);
                config.noc.external_link.fixed_latency = SimDuration::from_ns(ns);
                CampaignPoint::new(config, wl)
            })
        })
        .collect();
    Figure::new("sweep_serdes", vec![points], |r| {
        let mut out = heading(
            "SerDes per-hop latency sweep (chain, all-DRAM)",
            format_args!(
                "{:<10} {:>8} {:>12} {:>14} {:>12}",
                "workload", "serdes", "wall", "net lat(ns)", "vs 2ns"
            ),
        );
        let results = ok(&r[0]);
        for (wl, per_wl) in SERDES_WORKLOADS
            .into_iter()
            .zip(results.chunks_exact(SERDES_NS.len()))
        {
            let base = per_wl[1].wall; // the 2 ns row
            for (r, ns) in per_wl.iter().zip(SERDES_NS) {
                let b = &r.breakdown;
                let _ = writeln!(
                    out,
                    "{:<10} {:>6}ns {:>12} {:>14.1} {:>+11.1}%",
                    wl.label(),
                    ns,
                    format!("{}", r.wall),
                    b.to_memory.mean_ns() + b.from_memory.mean_ns(),
                    speedup_pct(r.wall, base),
                );
            }
            let _ = writeln!(out);
        }
        out.push_str("expected shape: 0 ns ≈ 2 ns (small deltas); 10 ns much slower.\n");
        out
    })
}

const ORACLE_WORKLOADS: [Workload; 3] = [Workload::Backprop, Workload::Dct, Workload::Kmeans];

/// Extensions beyond the paper's evaluation:
///
/// 1. **Oracle age arbitration** — §4.1 proposes distance as a proxy for
///    a packet's age because true timestamps do not fit in flit headers.
///    The simulator can cheat: how much of the ideal does the proxy
///    capture?
/// 2. **Mesh topology** — §3 excludes meshes ("the average hop count is
///    larger than a tree no matter which memory cube is connected to the
///    host"). Verify the exclusion was justified end to end.
pub fn ext_oracle_mesh() -> Figure {
    let grid = BASELINE_TOPOLOGIES.map(dram);
    let mesh = [dram(TopologyKind::Mesh), dram(TopologyKind::Tree)];
    Figure::new(
        "ext_oracle_mesh",
        vec![
            speedup_points(&grid, &ORACLE_WORKLOADS, Some(ArbiterKind::Distance)),
            speedup_points(&grid, &ORACLE_WORKLOADS, Some(ArbiterKind::OracleAge)),
            speedup_points(&mesh, &ORACLE_WORKLOADS, None),
        ],
        |r| {
            let mut out = String::new();
            for (results, title) in r.iter().zip([
                "distance-as-age proxy (§4.1)",
                "oracle true-age arbitration (ideal)",
            ]) {
                out.push_str(&render_speedup_table(
                    &format!("Extension: {title}, vs 100%-C RR"),
                    &speedup_rows(&ok(results), &ORACLE_WORKLOADS),
                ));
            }
            let metrics = |kind| {
                let topo = Topology::build(kind, &Placement::homogeneous(16, CubeTech::Dram))
                    .expect("16 DRAM cubes build every topology");
                TopologyMetrics::compute(&topo)
            };
            let (mesh_m, tree_m) = (metrics(TopologyKind::Mesh), metrics(TopologyKind::Tree));
            let _ = writeln!(
                out,
                "\n== Extension: the excluded mesh (§3) ==\n\
                 avg read hops: mesh {:.2} vs tree {:.2}; max: {} vs {}",
                mesh_m.avg_read_hops,
                tree_m.avg_read_hops,
                mesh_m.max_read_hops,
                tree_m.max_read_hops
            );
            out.push_str(&render_speedup_table(
                "mesh vs tree, end to end (vs 100%-C RR)",
                &speedup_rows(&ok(&r[2]), &ORACLE_WORKLOADS),
            ));
            out.push_str("\nexpected: the tree wins — the paper was right to exclude the mesh.\n");
            out
        },
    )
}

/// The fault-schedule seed the sweep pins, so the committed
/// `results/fault_sweep.txt` regenerates deterministically.
const FAULT_SWEEP_SEED: u64 = 0xFA01;

/// The scenarios the fault sweep drives through every topology: a
/// healthy reference, escalating transient-CRC rates, lane degradation,
/// and hard link kills, all on the pinned [`FAULT_SWEEP_SEED`].
fn fault_scenarios() -> [(&'static str, FaultConfig); 6] {
    let with = |f: fn(&mut FaultConfig)| {
        let mut config = FaultConfig::none();
        config.seed = FAULT_SWEEP_SEED;
        f(&mut config);
        config
    };
    [
        // All rates zero: fault injection disabled, so this row shares
        // fingerprints (and cache entries) with the paper figures.
        ("healthy", FaultConfig::none()),
        ("tr=1e-4", with(|c| c.transient_rate = 1e-4)),
        ("tr=1e-3", with(|c| c.transient_rate = 1e-3)),
        ("tr=1e-2", with(|c| c.transient_rate = 1e-2)),
        ("degrade=10%", with(|c| c.degrade_rate = 0.10)),
        ("kill=8%", with(|c| c.link_kill_rate = 0.08)),
    ]
}

/// Fault sweep: wall-time sensitivity of every topology to injected link
/// faults — transient CRC errors (replayed from the retry buffer), lane
/// degradation (links fall to half/quarter width), and hard link kills
/// (routed around where the topology has path diversity). All-DRAM, NW.
///
/// Not a figure from the paper: this is the robustness harness for the
/// fault-injection subsystem. Expected shape: transient rates up to 1e-3
/// are nearly free (replays add serialization, not loss); 1e-2 visibly
/// stretches wall time; degraded lanes hurt bandwidth-bound topologies
/// (chain) most; killed links are absorbed by ring/skip-list/tree path
/// diversity but *partition* the chain, which shows up as a structured
/// `ERROR` row — the rest of the sweep still completes.
pub fn fault_sweep() -> Figure {
    let mut points = Vec::new();
    for topo in TopologyKind::ALL {
        for (_, fault) in fault_scenarios() {
            let mut config = dram(topo);
            config.noc.fault = fault;
            points.push(CampaignPoint::new(config, Workload::Nw));
        }
    }
    Figure::new("fault_sweep", vec![points], |r| {
        let scenarios = fault_scenarios();
        let mut out = heading(
            "Fault sweep: wall-time sensitivity to link faults (all-DRAM, NW)",
            format_args!(
                "{:<6} {:<12} {:>14} {:>12}",
                "topo", "scenario", "wall(ns)", "vs healthy"
            ),
        );
        for (topo, row) in TopologyKind::ALL
            .into_iter()
            .zip(r[0].chunks_exact(scenarios.len()))
        {
            let healthy_wall = row[0].as_ref().ok().map(|r| r.wall);
            for ((name, _), result) in scenarios.iter().zip(row) {
                let measured = match result {
                    Ok(result) => {
                        let delta = healthy_wall
                            .map(|base| format!("{:>+11.1}%", speedup_pct(base, result.wall)))
                            .unwrap_or_else(|| format!("{:>12}", "n/a"));
                        format!("{:>14.1} {delta}", result.wall.as_ns_f64())
                    }
                    Err(e) => format!("{:>14} ERROR: {e}", "-"),
                };
                let _ = writeln!(out, "{:<6} {:<12} {measured}", topo.label(), name);
            }
        }
        out
    })
}

/// The offered-load axis of the closed-loop sweep: wavefront issue slots
/// per port (`SystemConfig::window`, the host's intensity knob) — more
/// slots offer more concurrent bursts, independent of the congestion
/// window that gates how many may be in flight.
pub const CLOSED_LOOP_SLOTS: [usize; 3] = [1, 4, 16];

/// The window policies the closed-loop sweep drives through every
/// topology: the open-loop reference, tight and generous fixed windows,
/// and the two adaptive policies.
pub fn closed_loop_policies() -> Vec<WindowPolicyKind> {
    vec![
        WindowPolicyKind::Open,
        WindowPolicyKind::Fixed(1),
        WindowPolicyKind::Fixed(32),
        WindowPolicyKind::Aimd,
        WindowPolicyKind::Ecn,
    ]
}

/// One closed-loop sweep point: the paper's all-DRAM baseline on
/// `topology` with `slots` issue slots and the given window policy.
/// Telemetry is at least `Counters` (the report needs the host rollup and
/// fairness), and `ecn` rows get marking links.
pub fn closed_loop_config(
    topology: TopologyKind,
    policy: WindowPolicyKind,
    slots: usize,
) -> SystemConfig {
    let mut config = dram(topology);
    config.window = slots;
    if !config.noc.trace.enabled() {
        config.noc.trace = mn_core::TraceConfig::Counters;
    }
    config.host.policy = policy;
    if policy == WindowPolicyKind::Ecn {
        config.noc.ecn_threshold = CLOSED_LOOP_ECN_THRESHOLD;
    }
    config
}

const LOOP_TOPOLOGIES: [TopologyKind; 3] = [
    TopologyKind::Chain,
    TopologyKind::Tree,
    TopologyKind::SkipList,
];

/// Closed-loop sweep: offered load ([`CLOSED_LOOP_SLOTS`]) x window
/// policy ([`closed_loop_policies`]) on chain, tree and skip-list,
/// all-DRAM, NW — the host-model harness for the `mn-host` subsystem. The
/// `closed_loop_sweep` binary prints it.
///
/// Not a figure from the paper: the paper's hosts are open-loop.
/// Expected shape: goodput saturates as issue slots grow, and where the
/// knee lands depends on the policy — `fixed:1` serializes (lowest
/// goodput, earliest knee), `fixed:32` barely gates, `aimd` converges
/// near the uncongested window, and `ecn` backs off on marked responses
/// (nonzero marked fraction, fairest under load). The per-policy Jain
/// index and steady-state window columns come from telemetry, so the
/// sweep runs with the cache detached (cache hits carry no telemetry).
pub fn closed_loop() -> Figure {
    let mut points = Vec::new();
    for topo in LOOP_TOPOLOGIES {
        for policy in closed_loop_policies() {
            for slots in CLOSED_LOOP_SLOTS {
                points.push(CampaignPoint::new(
                    closed_loop_config(topo, policy, slots),
                    Workload::Nw,
                ));
            }
        }
    }
    let render: Render = |r| {
        let results = ok(&r[0]);
        let policies = closed_loop_policies();
        // One row of results per (topology, policy), one per slot count.
        let rows: Vec<_> = LOOP_TOPOLOGIES
            .into_iter()
            .flat_map(|topo| policies.iter().map(move |policy| (topo, policy)))
            .zip(results.chunks_exact(CLOSED_LOOP_SLOTS.len()))
            .collect();
        let mut out = heading(
            "Closed loop: offered load x window policy (all-DRAM, NW)",
            format_args!(
                "{:<6} {:<9} {:>5} {:>12} {:>10} {:>6} {:>7} {:>7}",
                "topo", "policy", "slots", "goodput/us", "p99(ns)", "jain", "window", "marked"
            ),
        );
        let opt = |v: Option<f64>| match v {
            Some(x) if x.is_finite() => format!("{x:>7.1}"),
            _ => format!("{:>7}", "-"),
        };
        for ((topo, policy), row) in &rows {
            for (result, slots) in row.iter().zip(CLOSED_LOOP_SLOTS) {
                let tele = result.telemetry.as_deref();
                let host = tele.and_then(|t| t.host.as_ref());
                let _ = writeln!(
                    out,
                    "{:<6} {:<9} {:>5} {:>12.3} {:>10.1} {:>6.3} {} {}",
                    topo.label(),
                    policy.label(),
                    slots,
                    result.throughput_per_us(),
                    result.read_latency_quantile(0.99).as_ns_f64(),
                    tele.map_or(f64::NAN, |t| t.fairness.jain()),
                    opt(host.map(|h| h.steady_window())),
                    opt(host.map(|h| h.marked_fraction() * 100.0)),
                );
            }
        }

        // The knee: the smallest offered load whose goodput is within 5%
        // of this (topology, policy)'s peak — where adding slots stops
        // paying.
        out.push_str("\n-- saturation knee: smallest slot count within 5% of peak goodput --\n");
        let _ = writeln!(
            out,
            "{:<6} {:<9} {:>10} {:>15}",
            "topo", "policy", "knee", "peak goodput/us"
        );
        for ((topo, policy), row) in &rows {
            let goodput: Vec<f64> = row.iter().map(|r| r.throughput_per_us()).collect();
            let peak = goodput.iter().copied().fold(f64::MIN, f64::max);
            let knee = CLOSED_LOOP_SLOTS
                .into_iter()
                .zip(&goodput)
                .find(|&(_, &g)| g >= 0.95 * peak)
                .map_or(CLOSED_LOOP_SLOTS[CLOSED_LOOP_SLOTS.len() - 1], |(n, _)| n);
            let _ = writeln!(
                out,
                "{:<6} {:<9} {:>10} {:>15.3}",
                topo.label(),
                policy.label(),
                knee,
                peak,
            );
        }
        out
    };
    Figure {
        detached: true,
        ..Figure::new("closed_loop", vec![points], render)
    }
}
