//! # mn-bench — the experiment harness
//!
//! Every simulating figure of the paper, and the extensions beyond it, is
//! one entry of the [`figures`] registry: the grids of
//! `(configuration, workload)` points its binary submits and a pure
//! render of their results to the binary's stdout (see `DESIGN.md` for
//! the index). Each figure binary is a one-line `main` over [`run`],
//! which submits the grids to the `mn-campaign` engine through a
//! [`Harness`]: points run across `MN_JOBS` workers, finished points are
//! served from the on-disk result cache (`results/cache/`), and
//! machine-readable per-point records can follow the text tables. The
//! golden tests replay the same registry against the committed
//! `results/*.txt`.
//!
//! Every binary reads the `MN_*` knobs through [`mn_campaign::Knobs`];
//! the knob table ([`mn_campaign::KNOBS`], mirrored by the README) lists
//! each one with its default. [`config_for`] applies the ones that shape a
//! configuration (`MN_REQUESTS`, `MN_SEED`, `MN_FAULT_*`, `MN_TRACE`,
//! `MN_HOST_*`) and [`Harness`] the ones that shape execution. The binaries
//! also take `--format text|json|csv` to append per-point records to the
//! tables. Malformed values are reported on stderr and the default applies.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod figures;

use figures::Figure;
pub use figures::{
    closed_loop_config, closed_loop_policies, fig05_points, fig05_table, render_speedup_table,
    SpeedupRow, CLOSED_LOOP_SLOTS,
};
pub use mn_campaign::CLOSED_LOOP_ECN_THRESHOLD;
use mn_campaign::{write_point_records, Campaign, Knobs, OutputFormat, PointOutcome};
use mn_core::{mix_grid, MixSpec, SystemConfig};
use mn_topo::{NvmPlacement, TopologyKind};

/// Requests per port for experiment runs (`MN_REQUESTS`, default 6000).
pub fn requests_per_port() -> u64 {
    Knobs::get().requests
}

/// Applies the harness knobs to a config: `MN_REQUESTS`, `MN_SEED`, then
/// [`Knobs::apply`]. With `MN_FAULT_RATE` unset (the default), fault
/// injection stays disabled and results remain on the committed-golden
/// fingerprints.
pub(crate) fn tune(mut config: SystemConfig) -> SystemConfig {
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
/// [`TopologyKind::ALL`], so the figures can no longer drift from the
/// paper's grid (or from each other).
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

/// Runs `figure` as its binary does: a [`Harness`] configured from the
/// environment (`MN_JOBS`, cache knobs; the cache detached when the
/// figure is not [`Figure::cached`]) and the process arguments
/// (`--format`), each campaign in order, the render on stdout, then the
/// per-point records.
pub fn run(figure: Figure) {
    let campaign = Campaign::from_env();
    let campaign = if figure.cached() {
        campaign
    } else {
        campaign.no_cache()
    };
    let mut harness = Harness::with(campaign, OutputFormat::from_args());
    print!("{}", harness.render(figure));
    harness.finish();
}

/// The front end to the campaign engine: runs a figure's campaigns,
/// keeps the outcomes the output format needs, and emits the optional
/// `--format json|csv` records at the end.
#[derive(Debug)]
pub struct Harness {
    campaign: Campaign,
    format: OutputFormat,
    outcomes: Vec<PointOutcome>,
}

impl Harness {
    fn with(campaign: Campaign, format: OutputFormat) -> Harness {
        Harness {
            campaign,
            format,
            outcomes: Vec::new(),
        }
    }

    /// A harness for tests: explicit worker count, no cache, no stderr
    /// reporting, no argument parsing.
    pub fn bare(jobs: usize) -> Harness {
        Harness::with(Campaign::new(jobs).quiet(), OutputFormat::Text)
    }

    /// A quiet harness backed by an explicit cache directory, without
    /// consulting the environment.
    pub fn cached(jobs: usize, dir: impl Into<std::path::PathBuf>) -> Harness {
        Harness::with(
            Campaign::new(jobs).quiet().cache_dir(dir),
            OutputFormat::Text,
        )
    }

    /// Runs each of `figure`'s campaigns in order and renders its text.
    /// A failed point reaches the render as its error: a figure that
    /// cannot show one panics with it, while the fault sweep prints an
    /// `ERROR` row. The figure's cache mark ([`Figure::cached`]) is
    /// [`run`]'s to apply: this harness serves every figure from its own
    /// cache, if it has one.
    pub fn render(&mut self, figure: Figure) -> String {
        let results: Vec<Vec<figures::PointResult>> = figure
            .campaigns
            .into_iter()
            .map(|points| {
                let outcomes = self.campaign.run(points).outcomes;
                if self.format != OutputFormat::Text {
                    self.outcomes.extend(outcomes.iter().cloned());
                }
                outcomes.into_iter().map(|o| o.result).collect()
            })
            .collect();
        (figure.render)(&results)
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

#[cfg(test)]
mod tests {
    use super::*;
    use figures::{speedup_points, speedup_rows};
    use mn_core::{RunResult, WindowPolicyKind};
    use mn_workloads::Workload;

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
        let points = speedup_points(&[config], &[Workload::Nw], None);
        assert_eq!(points.len(), 2, "the baseline, then the configuration");
        let outcomes = Campaign::new(2).quiet().run(points).outcomes;
        let results: Vec<&RunResult> = outcomes
            .iter()
            .map(|o| o.result.as_ref().unwrap())
            .collect();
        let rows = speedup_rows(&results, &[Workload::Nw]);
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
        assert!(speedup_points(&[], &[Workload::Nw], None).is_empty());
        assert!(speedup_rows(&[], &[Workload::Nw]).is_empty());
    }
}
