//! The figure grids each benchmark workload regenerates, and their table
//! renderers.
//!
//! Every grid is built from the public `mn-bench` constructors in the same
//! campaign order the figure binaries use, and every renderer reproduces
//! its binary's stdout byte for byte, so a pass's tables can be compared
//! with the committed `results/*.txt`.

use std::fmt::Write as _;

use mn_bench::{
    baseline_config, closed_loop_config, closed_loop_policies, config_for, fig05_points,
    fig05_table, mix_topology_grid, render_speedup_table, twelve_config_grid, SpeedupRow,
    CLOSED_LOOP_SLOTS,
};
use mn_campaign::CampaignPoint;
use mn_core::{mix_grid, ratio_label, speedup_pct, RunResult, SystemConfig};
use mn_noc::ArbiterKind;
use mn_sim::SimDuration;
use mn_topo::{CubeTech, NvmPlacement, Placement, Topology, TopologyKind, TopologyMetrics};
use mn_workloads::Workload as Wl;

/// Renders a figure's text from its campaigns' results, in campaign order.
pub type Render = fn(&[Vec<RunResult>]) -> String;

/// One figure: the campaigns its binary submits, and its table renderer.
pub struct Figure {
    /// The binary's name; its golden output is `results/<name>.txt`.
    pub name: &'static str,
    /// The grids the binary submits, one campaign each, in order.
    pub campaigns: Vec<Vec<CampaignPoint>>,
    /// Renders the binary's stdout from the campaigns' results.
    pub render: Render,
}

impl Figure {
    fn new(name: &'static str, campaigns: Vec<Vec<CampaignPoint>>, render: Render) -> Figure {
        Figure {
            name,
            campaigns,
            render,
        }
    }

    /// Grid points over all campaigns, duplicates included.
    pub fn points(&self) -> usize {
        self.campaigns.iter().map(Vec::len).sum()
    }

    /// Every point of every campaign, mutably.
    pub fn points_mut(&mut self) -> impl Iterator<Item = &mut CampaignPoint> {
        self.campaigns.iter_mut().flatten()
    }
}

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scenario {
    /// Figs. 10–12 from an empty cache: every point is simulated.
    FigsCold,
    /// The twelve cached figures replayed from a full cache.
    FigsWarm,
    /// The closed-loop sweep with the cache detached.
    ClosedLoop,
}

impl Scenario {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Scenario; 3] = [Scenario::FigsCold, Scenario::FigsWarm, Scenario::ClosedLoop];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Scenario::FigsCold => "figs-cold",
            Scenario::FigsWarm => "figs-warm",
            Scenario::ClosedLoop => "closed-loop",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Scenario> {
        Scenario::ALL.into_iter().find(|s| s.name() == name)
    }

    /// Whether the workload's campaigns run with a result cache attached.
    pub fn cached(self) -> bool {
        self != Scenario::ClosedLoop
    }

    /// The workload's figures at the golden inputs (built-in seed and
    /// request count).
    pub fn figures(self) -> Vec<Figure> {
        match self {
            Scenario::FigsCold => vec![fig10(), fig11(), fig12()],
            Scenario::FigsWarm => vec![
                fig04(),
                fig05(),
                fig07(),
                fig10(),
                fig11(),
                fig12(),
                fig13(),
                fig14(),
                fig15(),
                sweep_serdes(),
                sweep_interleave(),
                ext_oracle_mesh(),
            ],
            Scenario::ClosedLoop => vec![closed_loop()],
        }
    }
}

/// The seed every baseline configuration carries, which produced the
/// committed goldens.
pub fn golden_seed() -> u64 {
    SystemConfig::paper_baseline(TopologyKind::Chain, 1.0)
        .expect("the all-DRAM chain is always realizable")
        .seed
}

/// The points of one speedup table, in `Harness::speedup_table` order:
/// the shared `100%-C` baseline per workload, then every configuration
/// per workload.
fn speedup_points(
    configs: &[SystemConfig],
    workloads: &[Wl],
    arbiter: Option<ArbiterKind>,
) -> Vec<CampaignPoint> {
    let base = baseline_config(&configs[0]);
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

/// The speedup rows of [`speedup_points`]' results.
fn speedup_rows(results: &[RunResult], workloads: &[Wl]) -> Vec<SpeedupRow> {
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

fn dram(topology: TopologyKind) -> SystemConfig {
    config_for(topology, 1.0, NvmPlacement::Last)
}

const FIG04_TITLE: &str = "Fig. 4: speedup of DRAM memory networks over a chain topology";

fn fig04() -> Figure {
    let configs = [dram(TopologyKind::Ring), dram(TopologyKind::Tree)];
    Figure::new(
        "fig04",
        vec![speedup_points(&configs, &Wl::ALL, None)],
        |r| render_speedup_table(FIG04_TITLE, &speedup_rows(&r[0], &Wl::ALL)),
    )
}

fn fig05() -> Figure {
    Figure::new("fig05", vec![fig05_points()], |r| fig05_table(&r[0]))
}

const FIG07_TITLE: &str = "Fig. 7: tree topology with different DRAM:NVM ratios (vs 100%-Chain)";

fn fig07() -> Figure {
    let configs: Vec<SystemConfig> = mix_grid()
        .into_iter()
        .map(|mix| config_for(TopologyKind::Tree, mix.dram_fraction, mix.placement))
        .collect();
    Figure::new(
        "fig07",
        vec![speedup_points(&configs, &Wl::ALL, None)],
        |r| render_speedup_table(FIG07_TITLE, &speedup_rows(&r[0], &Wl::ALL)),
    )
}

const BASELINE_TOPOLOGIES: [TopologyKind; 3] =
    [TopologyKind::Chain, TopologyKind::Ring, TopologyKind::Tree];
const NEW_TOPOLOGIES: [TopologyKind; 3] = [
    TopologyKind::Tree,
    TopologyKind::SkipList,
    TopologyKind::MetaCube,
];

fn fig10() -> Figure {
    let grid = twelve_config_grid(BASELINE_TOPOLOGIES);
    Figure::new(
        "fig10",
        vec![
            speedup_points(&grid, &Wl::ALL, Some(ArbiterKind::Distance)),
            speedup_points(&grid, &Wl::ALL, Some(ArbiterKind::RoundRobin)),
        ],
        |r| {
            let distance = speedup_rows(&r[0], &Wl::ALL);
            let rr = speedup_rows(&r[1], &Wl::ALL);
            let delta: Vec<SpeedupRow> = distance
                .iter()
                .zip(&rr)
                .map(|(d, r)| SpeedupRow {
                    workload: d.workload.clone(),
                    entries: d
                        .entries
                        .iter()
                        .zip(&r.entries)
                        .map(|((label, dp), (_, rp))| (label.clone(), dp - rp))
                        .collect(),
                })
                .collect();
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

fn fig11() -> Figure {
    let grid = twelve_config_grid(NEW_TOPOLOGIES);
    Figure::new("fig11", vec![speedup_points(&grid, &Wl::ALL, None)], |r| {
        render_speedup_table(
            "Fig. 11: Tree vs SkipList vs MetaCube, round-robin arbitration (vs 100%-C)",
            &speedup_rows(&r[0], &Wl::ALL),
        )
    })
}

fn fig12() -> Figure {
    let mut grid = twelve_config_grid(NEW_TOPOLOGIES);
    for config in &mut grid {
        config.write_burst_routing = true;
    }
    Figure::new(
        "fig12",
        vec![speedup_points(
            &grid,
            &Wl::ALL,
            Some(ArbiterKind::AdaptiveDistance),
        )],
        |r| {
            render_speedup_table(
                "Fig. 12: all techniques combined — adaptive distance arbitration + write-burst routing (vs 100%-C)",
                &speedup_rows(&r[0], &Wl::ALL),
            )
        },
    )
}

fn fig13() -> Figure {
    let mut points = Vec::new();
    for wl in Wl::ALL {
        for (mix, topo) in mix_topology_grid() {
            let eight = config_for(topo, mix.dram_fraction, mix.placement);
            let mut four = eight.clone();
            four.ports = 4;
            four.requests_per_port = eight.requests_per_port * 2;
            points.push(CampaignPoint::new(eight, wl));
            points.push(CampaignPoint::new(four, wl));
        }
    }
    Figure::new("fig13", vec![points], |r| {
        let results = &r[0];
        let configs = mix_topology_grid().len();
        let rows: Vec<SpeedupRow> = Wl::ALL
            .into_iter()
            .enumerate()
            .map(|(w, wl)| SpeedupRow {
                workload: wl.label().to_string(),
                entries: (0..configs)
                    .map(|g| {
                        let eight = &results[(w * configs + g) * 2];
                        let four = &results[(w * configs + g) * 2 + 1];
                        (eight.label.clone(), speedup_pct(eight.wall, four.wall))
                    })
                    .collect(),
            })
            .collect();
        render_speedup_table(
            "Fig. 13: speedup change moving from eight to four host ports (2 TB fixed)",
            &rows,
        )
    })
}

fn fig14() -> Figure {
    let mut points = Vec::new();
    for (mix, topo) in mix_topology_grid() {
        let two_tb = config_for(topo, mix.dram_fraction, mix.placement);
        let mut one_tb = two_tb.clone();
        one_tb.total_capacity_gb = 1024;
        for wl in Wl::ALL {
            points.push(CampaignPoint::new(two_tb.clone(), wl));
            points.push(CampaignPoint::new(one_tb.clone(), wl));
        }
    }
    Figure::new("fig14", vec![points], |r| {
        let results = &r[0];
        let mut out = String::new();
        let _ = writeln!(
            out,
            "== Fig. 14: average speedup of a 1 TB system over the 2 TB baseline =="
        );
        let _ = writeln!(
            out,
            "{:<14} {:<10} {:>12}",
            "mix", "topology", "avg speedup"
        );
        let per_config = Wl::ALL.len() * 2;
        for (g, (mix, topo)) in mix_topology_grid().into_iter().enumerate() {
            let pairs = results[g * per_config..(g + 1) * per_config].chunks_exact(2);
            let sum: f64 = pairs.map(|p| speedup_pct(p[0].wall, p[1].wall)).sum();
            let _ = writeln!(
                out,
                "{:<14} {:<10} {:>+11.2}%",
                ratio_label(mix),
                topo.to_string(),
                sum / Wl::ALL.len() as f64
            );
        }
        out
    })
}

fn fig15() -> Figure {
    let mut points = Vec::new();
    for (mix, topo) in mix_topology_grid() {
        let config = config_for(topo, mix.dram_fraction, mix.placement);
        for wl in Wl::ALL {
            points.push(CampaignPoint::new(config.clone(), wl));
        }
    }
    Figure::new("fig15", vec![points], |r| {
        let n = Wl::ALL.len();
        let table: Vec<(String, f64, f64, f64)> = r[0]
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
            .map_or(f64::NAN, |(_, n, r, w)| n + r + w);
        let mut out = String::new();
        let _ = writeln!(
            out,
            "== Fig. 15: energy breakdown relative to 100%-C total =="
        );
        let _ = writeln!(
            out,
            "{:<18} {:>9} {:>9} {:>9} {:>9}",
            "config", "network", "read", "write", "total"
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

const SERDES_WORKLOADS: [Wl; 2] = [Wl::Dct, Wl::Kmeans];
const SERDES_NS: [u64; 3] = [0, 2, 10];

fn sweep_serdes() -> Figure {
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
        let mut out = String::new();
        let _ = writeln!(out, "== SerDes per-hop latency sweep (chain, all-DRAM) ==");
        let _ = writeln!(
            out,
            "{:<10} {:>8} {:>12} {:>14} {:>12}",
            "workload", "serdes", "wall", "net lat(ns)", "vs 2ns"
        );
        for (wl, per_wl) in SERDES_WORKLOADS.into_iter().zip(r[0].chunks_exact(3)) {
            let base = per_wl[1].wall;
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
        let _ = writeln!(
            out,
            "expected shape: 0 ns ≈ 2 ns (small deltas); 10 ns much slower."
        );
        out
    })
}

const INTERLEAVE_WORKLOADS: [Wl; 3] = [Wl::Dct, Wl::Matrixmul, Wl::Backprop];
const INTERLEAVE_BYTES: [u64; 3] = [64, 256, 1024];

fn sweep_interleave() -> Figure {
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
        let mut out = String::new();
        let _ = writeln!(out, "== interleave-granularity sweep (tree, all-DRAM) ==");
        let _ = writeln!(
            out,
            "{:<10} {:>8} {:>12} {:>12} {:>12}",
            "workload", "bytes", "wall", "net lat(ns)", "row hits"
        );
        for (wl, per_wl) in INTERLEAVE_WORKLOADS.into_iter().zip(r[0].chunks_exact(3)) {
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
        let _ = writeln!(
            out,
            "expected shape: 64 B loses row-buffer hits; 1024 B concentrates"
        );
        let _ = writeln!(
            out,
            "bursts onto single cubes and raises network latency; 256 B balances."
        );
        out
    })
}

const ORACLE_WORKLOADS: [Wl; 3] = [Wl::Backprop, Wl::Dct, Wl::Kmeans];

fn ext_oracle_mesh() -> Figure {
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
                    &speedup_rows(results, &ORACLE_WORKLOADS),
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
                &speedup_rows(&r[2], &ORACLE_WORKLOADS),
            ));
            let _ = writeln!(
                out,
                "\nexpected: the tree wins — the paper was right to exclude the mesh."
            );
            out
        },
    )
}

const LOOP_TOPOLOGIES: [TopologyKind; 3] = [
    TopologyKind::Chain,
    TopologyKind::Tree,
    TopologyKind::SkipList,
];

fn closed_loop() -> Figure {
    let mut points = Vec::new();
    for topo in LOOP_TOPOLOGIES {
        for policy in closed_loop_policies() {
            for slots in CLOSED_LOOP_SLOTS {
                points.push(CampaignPoint::new(
                    closed_loop_config(topo, policy, slots),
                    Wl::Nw,
                ));
            }
        }
    }
    Figure::new("closed_loop", vec![points], |r| {
        let results = &r[0];
        let policies = closed_loop_policies();
        let slots = CLOSED_LOOP_SLOTS.len();
        let at = |t: usize, p: usize, s: usize| &results[(t * policies.len() + p) * slots + s];
        let mut out = String::new();
        let _ = writeln!(
            out,
            "== Closed loop: offered load x window policy (all-DRAM, NW) =="
        );
        let _ = writeln!(
            out,
            "{:<6} {:<9} {:>5} {:>12} {:>10} {:>6} {:>7} {:>7}",
            "topo", "policy", "slots", "goodput/us", "p99(ns)", "jain", "window", "marked"
        );
        let opt = |v: Option<f64>| match v {
            Some(x) if x.is_finite() => format!("{x:>7.1}"),
            _ => format!("{:>7}", "-"),
        };
        for (t, topo) in LOOP_TOPOLOGIES.into_iter().enumerate() {
            for (p, policy) in policies.iter().enumerate() {
                for (s, slot_count) in CLOSED_LOOP_SLOTS.into_iter().enumerate() {
                    let result = at(t, p, s);
                    let tele = result.telemetry.as_ref();
                    let host = tele.and_then(|t| t.host.as_ref());
                    let _ = writeln!(
                        out,
                        "{:<6} {:<9} {:>5} {:>12.3} {:>10.1} {:>6.3} {} {}",
                        topo.label(),
                        policy.label(),
                        slot_count,
                        result.throughput_per_us(),
                        result.read_latency_quantile(0.99).as_ns_f64(),
                        tele.map_or(f64::NAN, |t| t.fairness.jain()),
                        opt(host.map(|h| h.steady_window())),
                        opt(host.map(|h| h.marked_fraction() * 100.0)),
                    );
                }
            }
        }
        let _ = writeln!(
            out,
            "\n-- saturation knee: smallest slot count within 5% of peak goodput --"
        );
        let _ = writeln!(
            out,
            "{:<6} {:<9} {:>10} {:>15}",
            "topo", "policy", "knee", "peak goodput/us"
        );
        for (t, topo) in LOOP_TOPOLOGIES.into_iter().enumerate() {
            for (p, policy) in policies.iter().enumerate() {
                let goodput = |s: usize| at(t, p, s).throughput_per_us();
                let peak = (0..slots).map(goodput).fold(f64::MIN, f64::max);
                let knee = CLOSED_LOOP_SLOTS
                    .into_iter()
                    .enumerate()
                    .find(|&(s, _)| goodput(s) >= 0.95 * peak)
                    .map_or(CLOSED_LOOP_SLOTS[slots - 1], |(_, n)| n);
                let _ = writeln!(
                    out,
                    "{:<6} {:<9} {:>10} {:>15.3}",
                    topo.label(),
                    policy.label(),
                    knee,
                    peak,
                );
            }
        }
        out
    })
}
