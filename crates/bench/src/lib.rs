//! # mn-bench — the experiment harness
//!
//! One binary per table/figure of the paper (see `DESIGN.md` for the
//! index). Each binary declares its grid of `(configuration, workload)`
//! points and submits it to the `mn-campaign` engine through a
//! [`Harness`], which runs points across `MN_JOBS` workers, serves
//! finished points from the on-disk result cache (`results/cache/`), and
//! can append machine-readable per-point records after the text tables.
//!
//! Every binary reads the `MN_*` knobs through [`mn_campaign::Knobs`];
//! the knob table ([`mn_campaign::KNOBS`], mirrored by the README) lists
//! each one with its default. [`tune`] applies the ones that shape a
//! configuration (`MN_REQUESTS`, `MN_SEED`, `MN_FAULT_*`, `MN_TRACE`,
//! `MN_HOST_*`) and [`Harness`] the ones that shape execution. The binaries
//! also take `--format text|json|csv` to append per-point records to the
//! tables. Malformed values are reported on stderr and the default applies.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::HashMap;

pub use mn_campaign::CLOSED_LOOP_ECN_THRESHOLD;
use mn_campaign::{
    write_point_records, Campaign, CampaignPoint, Knobs, OutputFormat, PointOutcome,
};
use mn_core::{mix_grid, speedup_pct, MixSpec, RunResult, SystemConfig, WindowPolicyKind};
use mn_noc::{ArbiterKind, FaultConfig};
use mn_sim::SimTime;
use mn_topo::{NvmPlacement, TopologyKind};
use mn_workloads::Workload;

/// Requests per port for experiment runs (`MN_REQUESTS`, default 6000).
pub fn requests_per_port() -> u64 {
    Knobs::get().requests
}

/// Applies the harness knobs to a config: `MN_REQUESTS`, `MN_SEED`, then
/// [`Knobs::apply`]. With `MN_FAULT_RATE` unset (the default), fault
/// injection stays disabled and results remain on the committed-golden
/// fingerprints.
pub fn tune(mut config: SystemConfig) -> SystemConfig {
    let knobs = Knobs::get();
    config.requests_per_port = knobs.requests;
    if let Some(seed) = knobs.seed {
        config.seed = seed;
    }
    knobs.apply(&mut config);
    config
}

/// Builds the paper's configuration for (topology, DRAM fraction,
/// placement) with the baseline round-robin arbitration.
///
/// # Panics
///
/// Panics if the mix is unrealizable (the paper's grid never is).
pub fn config_for(
    topology: TopologyKind,
    dram_fraction: f64,
    placement: NvmPlacement,
) -> SystemConfig {
    tune(
        SystemConfig::paper_baseline(topology, dram_fraction)
            .expect("paper grid mixes are realizable")
            .with_nvm_placement(placement),
    )
}

/// The 12-configuration grid of Figs. 10–12: three topologies x the four
/// DRAM:NVM mixes, in the paper's column order.
pub fn twelve_config_grid(topologies: [TopologyKind; 3]) -> Vec<SystemConfig> {
    let mut grid = Vec::new();
    for mix in mix_grid() {
        for topo in topologies {
            grid.push(config_for(topo, mix.dram_fraction, mix.placement));
        }
    }
    grid
}

/// The full `{mix} × {topology}` grid of Figs. 13–15: the paper's four
/// DRAM:NVM mixes crossed with all five topologies, mix-major. The mixes
/// come from [`mn_core::mix_grid`] and the topologies from
/// [`TopologyKind::ALL`], so the figure binaries can no longer drift from
/// the paper's grid (or from each other).
pub fn mix_topology_grid() -> Vec<(MixSpec, TopologyKind)> {
    let mut grid = Vec::new();
    for mix in mix_grid() {
        for topo in TopologyKind::ALL {
            grid.push((mix, topo));
        }
    }
    grid
}

/// The `100%-C` round-robin baseline every speedup figure normalizes
/// against, sized (requests, seed) like `template` so the comparison is
/// apples-to-apples without consulting the environment. The telemetry
/// mode is inherited too, so under `MN_TRACE` the baseline's records
/// carry the same columns as the grid's (it cannot affect the numbers).
pub fn baseline_config(template: &SystemConfig) -> SystemConfig {
    let mut base = SystemConfig::paper_baseline(TopologyKind::Chain, 1.0)
        .expect("the all-DRAM chain is always realizable");
    base.requests_per_port = template.requests_per_port;
    base.seed = template.seed;
    base.noc.trace = template.noc.trace;
    base
}

/// One row of a speedup table: workload label plus `(config label, %)`.
#[derive(Debug, Clone)]
pub struct SpeedupRow {
    /// Workload label.
    pub workload: String,
    /// `(configuration label, speedup percent)` pairs in column order.
    pub entries: Vec<(String, f64)>,
}

/// The per-binary front end to the campaign engine: builds grids, runs
/// them (parallel + cached, per the environment), accumulates every
/// outcome, and emits the optional `--format json|csv` records at the end.
#[derive(Debug)]
pub struct Harness {
    campaign: Campaign,
    format: OutputFormat,
    outcomes: Vec<PointOutcome>,
}

impl Default for Harness {
    fn default() -> Self {
        Harness::new()
    }
}

impl Harness {
    /// A harness configured from the environment (`MN_JOBS`, cache knobs)
    /// and the process arguments (`--format`).
    pub fn new() -> Harness {
        Harness {
            campaign: Campaign::from_env(),
            format: OutputFormat::from_args(),
            outcomes: Vec::new(),
        }
    }

    /// A harness configured from the environment but with the result
    /// cache detached — what instrumented sweeps (`closed_loop_sweep`)
    /// use, since cache hits come back without the telemetry their
    /// reports are built from.
    pub fn uncached() -> Harness {
        Harness {
            campaign: Campaign::from_env().no_cache(),
            format: OutputFormat::from_args(),
            outcomes: Vec::new(),
        }
    }

    /// A harness for tests: explicit worker count, no cache, no stderr
    /// reporting, no argument parsing.
    pub fn bare(jobs: usize) -> Harness {
        Harness {
            campaign: Campaign::new(jobs).quiet(),
            format: OutputFormat::Text,
            outcomes: Vec::new(),
        }
    }

    /// A quiet harness backed by an explicit cache directory — what the
    /// golden tests use to replay a committed `results/cache/` without
    /// consulting the environment.
    pub fn cached(jobs: usize, dir: impl Into<std::path::PathBuf>) -> Harness {
        Harness {
            campaign: Campaign::new(jobs).quiet().cache_dir(dir),
            format: OutputFormat::Text,
            outcomes: Vec::new(),
        }
    }

    /// Runs a grid of points through the engine; results come back in
    /// submission order.
    ///
    /// # Panics
    ///
    /// Panics — naming the failing point and its error — if any point
    /// failed. The figure binaries need complete grids to render their
    /// tables; sweeps that expect failures (e.g. `fault_sweep`, where a
    /// killed link may partition a chain) use
    /// [`Harness::run_grid_outcomes`] instead.
    pub fn run_grid(&mut self, points: Vec<CampaignPoint>) -> Vec<RunResult> {
        let results: Vec<RunResult> = self
            .run_grid_outcomes(points)
            .iter()
            .map(|o| match &o.result {
                Ok(result) => result.clone(),
                Err(e) => panic!(
                    "campaign point {} / {} failed: {e}",
                    o.point.config.label(),
                    o.point.workload.label()
                ),
            })
            .collect();
        results
    }

    /// Runs a grid and returns the full per-point outcomes, failures
    /// included: a point whose fault schedule breaks its topology comes
    /// back as an error record while the rest of the grid completes.
    pub fn run_grid_outcomes(&mut self, points: Vec<CampaignPoint>) -> Vec<PointOutcome> {
        let outcome = self.campaign.run(points);
        self.outcomes.extend(outcome.outcomes.iter().cloned());
        outcome.outcomes
    }

    /// Runs `configs` x `workloads` (plus the shared `100%-C` baseline per
    /// workload) as one campaign and returns the paper's speedup rows,
    /// optionally overriding the arbitration scheme on every grid config.
    pub fn speedup_table(
        &mut self,
        configs: &[SystemConfig],
        workloads: &[Workload],
        arbiter: Option<ArbiterKind>,
    ) -> Vec<SpeedupRow> {
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
        let results = self.run_grid(points);

        let (baselines, grid) = results.split_at(workloads.len());
        let mut rows = Vec::new();
        for (w, &wl) in workloads.iter().enumerate() {
            let base_wall = baselines[w].wall;
            let entries = grid[w * configs.len()..(w + 1) * configs.len()]
                .iter()
                .map(|r| (r.label.clone(), speedup_pct(base_wall, r.wall)))
                .collect();
            rows.push(SpeedupRow {
                workload: wl.label().to_string(),
                entries,
            });
        }
        rows
    }

    /// Runs the `100%-C` baseline (sized like `template`) for every
    /// workload and returns its wall times, keyed by workload label.
    pub fn chain_baselines(
        &mut self,
        workloads: &[Workload],
        template: &SystemConfig,
    ) -> HashMap<String, SimTime> {
        let base = baseline_config(template);
        let points = workloads
            .iter()
            .map(|&wl| CampaignPoint::new(base.clone(), wl))
            .collect();
        self.run_grid(points)
            .into_iter()
            .map(|r| (r.workload.clone(), r.wall))
            .collect()
    }

    /// Emits the accumulated per-point records in the requested format
    /// (nothing, for the default text format). Call last, after the text
    /// tables.
    ///
    /// # Panics
    ///
    /// Panics when stdout is gone (a broken pipe mid-emission).
    pub fn finish(self) {
        write_point_records(self.format, &self.outcomes).expect("stdout closed mid-emission");
    }
}

/// The Fig. 5 grid: every workload on the all-DRAM chain, ring, and tree
/// (sized from the environment like every figure binary).
pub fn fig05_points() -> Vec<CampaignPoint> {
    const TOPOLOGIES: [TopologyKind; 3] =
        [TopologyKind::Chain, TopologyKind::Ring, TopologyKind::Tree];
    Workload::ALL
        .into_iter()
        .flat_map(|wl| {
            TOPOLOGIES
                .into_iter()
                .map(move |topo| CampaignPoint::new(config_for(topo, 1.0, NvmPlacement::Last), wl))
        })
        .collect()
}

/// Renders the Fig. 5 latency-breakdown table from the results of
/// [`fig05_points`] — byte-identical to the `fig05` binary's stdout, so
/// the golden test can diff it against `results/fig05.txt`.
pub fn fig05_table(results: &[RunResult]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "== Fig. 5: latency breakdown relative to chain total =="
    );
    let _ = writeln!(
        out,
        "{:<10} {:<6} {:>10} {:>10} {:>10} {:>10}",
        "workload", "topo", "to-mem", "in-mem", "from-mem", "total(ns)"
    );
    let topologies = [TopologyKind::Chain, TopologyKind::Ring, TopologyKind::Tree];
    for (w, wl) in Workload::ALL.into_iter().enumerate() {
        let mut chain_total = None;
        for (t, topo) in topologies.into_iter().enumerate() {
            let result = &results[w * topologies.len() + t];
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

/// Runs the Fig. 10 experiment (distance arbitration on the twelve
/// baseline configurations, plus the round-robin delta view) and renders
/// both tables — exactly the `fig10` binary's stdout.
pub fn fig10_report(harness: &mut Harness) -> String {
    let grid = twelve_config_grid([TopologyKind::Chain, TopologyKind::Ring, TopologyKind::Tree]);
    let with_distance = harness.speedup_table(&grid, &Workload::ALL, Some(ArbiterKind::Distance));
    let mut out = render_speedup_table(
        "Fig. 10: distance-based arbitration on baseline topologies (vs 100%-C RR)",
        &with_distance,
    );

    let with_rr = harness.speedup_table(&grid, &Workload::ALL, Some(ArbiterKind::RoundRobin));
    let delta_rows: Vec<SpeedupRow> = with_distance
        .iter()
        .zip(&with_rr)
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
    out.push_str(&render_speedup_table(
        "Fig. 10 (delta view): distance arbitration minus round-robin, percentage points",
        &delta_rows,
    ));
    out
}

/// Renders Fig. 7: the tree under every DRAM:NVM capacity mix, against
/// the 100%-DRAM chain.
pub fn fig07_report(harness: &mut Harness) -> String {
    let configs: Vec<_> = mix_grid()
        .into_iter()
        .map(|mix| config_for(TopologyKind::Tree, mix.dram_fraction, mix.placement))
        .collect();
    let rows = harness.speedup_table(&configs, &Workload::ALL, None);
    render_speedup_table(
        "Fig. 7: tree topology with different DRAM:NVM ratios (vs 100%-Chain)",
        &rows,
    )
}

/// Prints a speedup table with an `average` row, matching the paper's
/// figure layout (workloads as rows, configurations as columns).
pub fn print_speedup_table(title: &str, rows: &[SpeedupRow]) {
    print!("{}", render_speedup_table(title, rows));
}

/// Renders a speedup table to a string, byte-identical to what
/// [`print_speedup_table`] emits — the golden tests diff this against the
/// committed `results/*.txt`.
pub fn render_speedup_table(title: &str, rows: &[SpeedupRow]) -> String {
    use std::fmt::Write as _;
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

/// The fault-schedule seed the sweep pins, so the committed
/// `results/fault_sweep.txt` regenerates deterministically.
pub const FAULT_SWEEP_SEED: u64 = 0xFA01;

/// The scenarios the `fault_sweep` binary drives through every topology: a
/// healthy reference, escalating transient-CRC rates, lane degradation,
/// and hard link kills, all on the pinned [`FAULT_SWEEP_SEED`].
pub fn fault_scenarios() -> Vec<(&'static str, FaultConfig)> {
    let with = |f: fn(&mut FaultConfig)| {
        let mut config = FaultConfig::none();
        config.seed = FAULT_SWEEP_SEED;
        f(&mut config);
        config
    };
    vec![
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

/// Runs the fault sweep (every topology x [`fault_scenarios`], all-DRAM,
/// NW workload) and renders the sensitivity table — exactly the
/// `fault_sweep` binary's stdout. Points whose fault schedule breaks their
/// topology (a killed link partitions the chain) come back as `ERROR` rows
/// instead of aborting the sweep.
pub fn fault_sweep_report(harness: &mut Harness) -> String {
    use std::fmt::Write as _;
    let scenarios = fault_scenarios();
    let mut points = Vec::new();
    for topo in TopologyKind::ALL {
        for (_, fault) in &scenarios {
            let mut config = config_for(topo, 1.0, NvmPlacement::Last);
            config.noc.fault = fault.clone();
            points.push(CampaignPoint::new(config, Workload::Nw));
        }
    }
    let outcomes = harness.run_grid_outcomes(points);

    let mut out = String::new();
    let _ = writeln!(
        out,
        "== Fault sweep: wall-time sensitivity to link faults (all-DRAM, NW) =="
    );
    let _ = writeln!(
        out,
        "{:<6} {:<12} {:>14} {:>12}",
        "topo", "scenario", "wall(ns)", "vs healthy"
    );
    for (t, topo) in TopologyKind::ALL.into_iter().enumerate() {
        let row = &outcomes[t * scenarios.len()..(t + 1) * scenarios.len()];
        let healthy_wall = row[0].result.as_ref().ok().map(|r| r.wall);
        for ((name, _), outcome) in scenarios.iter().zip(row) {
            match &outcome.result {
                Ok(result) => {
                    let delta = healthy_wall
                        .map(|base| format!("{:>+11.1}%", speedup_pct(base, result.wall)))
                        .unwrap_or_else(|| format!("{:>12}", "n/a"));
                    let _ = writeln!(
                        out,
                        "{:<6} {:<12} {:>14.1} {delta}",
                        topo.label(),
                        name,
                        result.wall.as_ns_f64(),
                    );
                }
                Err(e) => {
                    let _ = writeln!(
                        out,
                        "{:<6} {:<12} {:>14} ERROR: {e}",
                        topo.label(),
                        name,
                        "-",
                    );
                }
            }
        }
    }
    out
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
    let mut config = config_for(topology, 1.0, NvmPlacement::Last);
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

/// Runs the closed-loop sweep (chain / tree / skip-list x
/// [`closed_loop_policies`] x [`CLOSED_LOOP_SLOTS`], all-DRAM, NW
/// workload) and renders the offered-load table plus the per-policy
/// saturation-knee summary — exactly the `closed_loop_sweep` binary's
/// stdout.
pub fn closed_loop_report(harness: &mut Harness) -> String {
    use std::fmt::Write as _;
    const TOPOLOGIES: [TopologyKind; 3] = [
        TopologyKind::Chain,
        TopologyKind::Tree,
        TopologyKind::SkipList,
    ];
    let policies = closed_loop_policies();
    let mut points = Vec::new();
    for topo in TOPOLOGIES {
        for &policy in &policies {
            for slots in CLOSED_LOOP_SLOTS {
                points.push(CampaignPoint::new(
                    closed_loop_config(topo, policy, slots),
                    Workload::Nw,
                ));
            }
        }
    }
    let results = harness.run_grid(points);

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
    for (t, topo) in TOPOLOGIES.into_iter().enumerate() {
        for (p, policy) in policies.iter().enumerate() {
            for (s, slots) in CLOSED_LOOP_SLOTS.into_iter().enumerate() {
                let result = &results[(t * policies.len() + p) * CLOSED_LOOP_SLOTS.len() + s];
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
    }

    // The knee: the smallest offered load whose goodput is within 5% of
    // this (topology, policy)'s peak — where adding slots stops paying.
    let _ = writeln!(
        out,
        "\n-- saturation knee: smallest slot count within 5% of peak goodput --"
    );
    let _ = writeln!(
        out,
        "{:<6} {:<9} {:>10} {:>15}",
        "topo", "policy", "knee", "peak goodput/us"
    );
    for (t, topo) in TOPOLOGIES.into_iter().enumerate() {
        for (p, policy) in policies.iter().enumerate() {
            let goodput = |s: usize| {
                results[(t * policies.len() + p) * CLOSED_LOOP_SLOTS.len() + s].throughput_per_us()
            };
            let peak = (0..CLOSED_LOOP_SLOTS.len())
                .map(goodput)
                .fold(f64::MIN, f64::max);
            let knee = CLOSED_LOOP_SLOTS
                .into_iter()
                .enumerate()
                .find(|&(s, _)| goodput(s) >= 0.95 * peak)
                .map_or(*CLOSED_LOOP_SLOTS.last().unwrap(), |(_, slots)| slots);
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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_has_twelve_configs() {
        let grid =
            twelve_config_grid([TopologyKind::Chain, TopologyKind::Ring, TopologyKind::Tree]);
        assert_eq!(grid.len(), 12);
        assert_eq!(grid[0].label(), "100%-C");
        assert_eq!(grid[5].label(), "50%-T (NVM-L)");
        assert_eq!(grid[11].label(), "0%-T");
    }

    #[test]
    fn mix_topology_grid_covers_the_paper() {
        let grid = mix_topology_grid();
        assert_eq!(grid.len(), 20); // 4 mixes x 5 topologies
        assert_eq!(grid[0].1, TopologyKind::Chain);
        assert!((grid[0].0.dram_fraction - 1.0).abs() < 1e-12);
        assert!((grid[19].0.dram_fraction).abs() < 1e-12);
        assert_eq!(grid[19].1, TopologyKind::MetaCube);
    }

    #[test]
    fn tune_applies_env_defaults() {
        let c = config_for(TopologyKind::Chain, 1.0, NvmPlacement::Last);
        assert!(c.requests_per_port > 0);
    }

    #[test]
    fn speedup_table_is_consistent() {
        // The request count is threaded through the configs (and from
        // there into the shared baseline) — no process-global environment
        // mutation, which raced with other tests under the parallel
        // harness.
        let mut config = SystemConfig::paper_baseline(TopologyKind::Tree, 1.0).unwrap();
        config.requests_per_port = 300;
        let rows = Harness::bare(2).speedup_table(&[config], &[Workload::Nw], None);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].entries.len(), 1);
        assert_eq!(rows[0].entries[0].0, "100%-T");
    }

    #[test]
    fn baseline_inherits_template_sizing() {
        let mut template = SystemConfig::paper_baseline(TopologyKind::MetaCube, 0.5).unwrap();
        template.requests_per_port = 777;
        template.seed = 42;
        let base = baseline_config(&template);
        assert_eq!(base.label(), "100%-C");
        assert_eq!(base.requests_per_port, 777);
        assert_eq!(base.seed, 42);
    }

    #[test]
    fn closed_loop_configs_wire_the_policies() {
        let c = closed_loop_config(TopologyKind::Chain, WindowPolicyKind::Ecn, 4);
        assert_eq!(c.window, 4);
        assert_eq!(c.noc.ecn_threshold, CLOSED_LOOP_ECN_THRESHOLD);
        assert!(c.host.enabled());
        assert!(c.noc.trace.enabled());
        let open = closed_loop_config(TopologyKind::Chain, WindowPolicyKind::Open, 1);
        assert!(!open.host.enabled());
        assert_eq!(open.noc.ecn_threshold, 0);
        assert_eq!(closed_loop_policies().len(), 5);
    }

    #[test]
    fn empty_speedup_table() {
        assert!(Harness::bare(1)
            .speedup_table(&[], &[Workload::Nw], None)
            .is_empty());
    }
}
