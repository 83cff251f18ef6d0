//! Execution of parsed commands.
//!
//! Every simulation a command needs goes through the `mn-campaign` engine,
//! so CLI runs parallelize across `MN_JOBS` workers and share the on-disk
//! result cache with the figure binaries. Only `trace` simulates its one
//! port directly, for the tracers a merged result does not carry.

use std::fmt::Write as _;

use mn_campaign::{Campaign, CampaignPoint, Knobs};
use mn_core::{speedup_pct, RunResult, SystemConfig};
use mn_topo::{render_ascii, Placement, Topology, TopologyKind, TopologyMetrics};
use mn_workloads::Workload;

use crate::args::{
    ArgError, CacheAction, CacheArgs, ClosedLoopArgs, Command, CompareArgs, RunArgs, SweepArgs,
    TopoArgs, TraceArgs, USAGE,
};

/// The paper's configuration for one point, shaped by the knobs: the
/// resolved `requests` and `seed` first, then [`Knobs::apply`] (fault,
/// telemetry and host knobs).
fn build_config(
    knobs: &Knobs,
    topology: TopologyKind,
    dram_pct: u32,
    placement: mn_topo::NvmPlacement,
    requests: u64,
    seed: Option<u64>,
) -> Result<SystemConfig, ArgError> {
    let mut config = SystemConfig::paper_baseline(topology, f64::from(dram_pct) / 100.0)
        .map_err(|e| ArgError(e.to_string()))?
        .with_nvm_placement(placement);
    config.requests_per_port = requests;
    if let Some(seed) = seed {
        config.seed = seed;
    }
    knobs.apply(&mut config);
    Ok(config)
}

/// Runs `configs` under `workload` as one campaign; the first failed
/// point becomes the command's error.
fn run_grid(
    campaign: &Campaign,
    configs: Vec<SystemConfig>,
    workload: Workload,
) -> Result<Vec<RunResult>, ArgError> {
    let points = configs.into_iter().map(|c| CampaignPoint::new(c, workload));
    let outcomes = campaign.run(points.collect()).outcomes.into_iter();
    outcomes
        .map(|o| {
            o.result
                .map_err(|e| ArgError(format!("{}: {e}", o.point.config.label())))
        })
        .collect()
}

fn report(result: &RunResult) -> String {
    let b = &result.breakdown;
    let (to, inm, from) = b.fractions();
    let mut out = String::new();
    let _ = writeln!(out, "configuration   {}", result.label);
    let _ = writeln!(out, "workload        {}", result.workload);
    let _ = writeln!(out, "wall time       {}", result.wall);
    let _ = writeln!(
        out,
        "requests        {} reads, {} writes",
        result.reads, result.writes
    );
    let _ = writeln!(
        out,
        "throughput      {:.1} requests/us",
        result.throughput_per_us()
    );
    let _ = writeln!(
        out,
        "latency         to {:.1} ns ({:.0}%) | in {:.1} ns ({:.0}%) | from {:.1} ns ({:.0}%)",
        b.to_memory.mean_ns(),
        to * 100.0,
        b.in_memory.mean_ns(),
        inm * 100.0,
        b.from_memory.mean_ns(),
        from * 100.0,
    );
    let _ = writeln!(
        out,
        "read latency    p50 {} | p95 {} | p99 {}",
        result.read_latency_quantile(0.50),
        result.read_latency_quantile(0.95),
        result.read_latency_quantile(0.99),
    );
    let _ = writeln!(out, "avg hops        {:.2}", result.avg_hops);
    let _ = writeln!(out, "row-buffer hits {:.0}%", result.row_hit_rate * 100.0);
    let e = &result.energy;
    let _ = writeln!(
        out,
        "energy          network {:.1} uJ | reads {:.1} uJ | writes {:.1} uJ | total {:.1} uJ",
        e.network.as_uj(),
        e.read.as_uj(),
        e.write.as_uj(),
        e.total().as_uj(),
    );
    out
}

fn run(campaign: &Campaign, knobs: &Knobs, args: &RunArgs) -> Result<String, ArgError> {
    let mut config = build_config(
        knobs,
        args.topology,
        args.dram_pct,
        args.placement,
        args.requests,
        args.seed,
    )?;
    config.noc.arbiter = args.arbiter;
    config.write_burst_routing = args.write_burst;
    let results = run_grid(campaign, vec![config], args.workload)?;
    Ok(report(&results[0]))
}

fn compare(campaign: &Campaign, knobs: &Knobs, args: &CompareArgs) -> Result<String, ArgError> {
    let mut configs = Vec::new();
    for topology in TopologyKind::ALL_EXTENDED {
        let last = mn_topo::NvmPlacement::Last;
        let mut config = build_config(knobs, topology, 100, last, args.requests, knobs.seed)?;
        config.noc.arbiter = args.arbiter;
        configs.push(config);
    }
    let results = run_grid(campaign, configs, args.workload)?;

    let mut out = String::new();
    let _ = writeln!(
        out,
        "{} under every topology (all-DRAM, {:?} arbitration):\n",
        args.workload.label(),
        args.arbiter
    );
    let _ = writeln!(
        out,
        "{:<10} {:>12} {:>10} {:>12}",
        "topology", "wall", "vs chain", "energy (uJ)"
    );
    let base = results[0].wall; // ALL_EXTENDED starts with the chain
    for (topology, result) in TopologyKind::ALL_EXTENDED.into_iter().zip(&results) {
        let _ = writeln!(
            out,
            "{:<10} {:>12} {:>+9.1}% {:>12.1}",
            topology.to_string(),
            format!("{}", result.wall),
            speedup_pct(base, result.wall),
            result.energy.total().as_uj(),
        );
    }
    Ok(out)
}

fn topo(args: &TopoArgs) -> Result<String, ArgError> {
    let placement = if args.dram_pct == 100 {
        Placement::homogeneous(args.cubes as usize, mn_topo::CubeTech::Dram)
    } else {
        Placement::mixed_by_capacity(f64::from(args.dram_pct) / 100.0, args.placement)
            .map_err(|e| ArgError(e.to_string()))?
    };
    let topology =
        Topology::build(args.topology, &placement).map_err(|e| ArgError(e.to_string()))?;
    let routes = topology.routing();
    let metrics = TopologyMetrics::with_routing(&topology, &routes);
    let mut out = render_ascii(&topology, &routes);
    let _ = writeln!(
        out,
        "\navg read hops {:.2} | max read {} | max write {} | {} links ({} unused by reads)",
        metrics.avg_read_hops,
        metrics.max_read_hops,
        metrics.max_write_hops,
        metrics.total_links,
        metrics.read_unused_links,
    );
    Ok(out)
}

fn sweep(campaign: &Campaign, knobs: &Knobs, args: &SweepArgs) -> Result<String, ArgError> {
    let mut configs = Vec::new();
    let mut cube_counts = Vec::new();
    for dram_pct in [100u32, 75, 50, 25, 0] {
        let config = build_config(
            knobs,
            args.topology,
            dram_pct,
            mn_topo::NvmPlacement::Last,
            args.requests,
            knobs.seed,
        )?;
        cube_counts.push(
            config
                .placement()
                .map_err(|e| ArgError(e.to_string()))?
                .cube_count(),
        );
        configs.push(config);
    }
    let results = run_grid(campaign, configs, args.workload)?;

    let mut out = String::new();
    let _ = writeln!(
        out,
        "DRAM:NVM ratio sweep, {} on {}:\n",
        args.workload.label(),
        args.topology
    );
    let _ = writeln!(
        out,
        "{:<16} {:>7} {:>12} {:>10} {:>12}",
        "mix", "cubes", "wall", "vs 100%", "energy (uJ)"
    );
    let base_wall = results[0].wall;
    for (result, cubes) in results.iter().zip(cube_counts) {
        let _ = writeln!(
            out,
            "{:<16} {:>7} {:>12} {:>+9.1}% {:>12.1}",
            result.label,
            cubes,
            format!("{}", result.wall),
            speedup_pct(base_wall, result.wall),
            result.energy.total().as_uj(),
        );
    }
    Ok(out)
}

fn trace(knobs: &Knobs, args: &TraceArgs) -> Result<String, ArgError> {
    let mut config = build_config(
        knobs,
        args.topology,
        args.dram_pct,
        args.placement,
        args.requests,
        args.seed,
    )?;
    config.noc.trace = mn_core::TraceConfig::Full;

    // Tracing simulates one port directly, outside the campaign: the
    // export needs that port's `Full` network and controller tracers,
    // which no merged `RunResult` carries (ports are independent; port 0
    // is representative).
    let started = std::time::Instant::now();
    let mut observation = mn_core::try_simulate_port(&config, args.workload, 0)
        .map_err(|e| ArgError(e.to_string()))?;
    // The simulation renders as the one service span on a third process
    // row beside the kernel events, starting the timeline.
    let spans = [mn_telemetry::NamedSpan {
        name: "trace.simulate".to_string(),
        track: 0,
        ts_ps: 0,
        dur_ps: u64::try_from(started.elapsed().as_nanos())
            .map_or(u64::MAX, |ns| ns.saturating_mul(1000)),
    }];
    let telemetry = observation
        .take_telemetry()
        .ok_or_else(|| ArgError("tracing produced no telemetry".into()))?;

    let path = &args.out;
    let mut file = std::fs::File::create(path)
        .map_err(|e| ArgError(format!("cannot create {}: {e}", path.display())))?;
    let tracks = ["service".to_string()];
    mn_telemetry::write_chrome_trace_with_spans(
        &mut file,
        &[
            mn_telemetry::TraceProcess {
                pid: 1,
                name: "network",
                tracer: &telemetry.net.tracer,
            },
            mn_telemetry::TraceProcess {
                pid: 2,
                name: "memory controllers",
                tracer: &telemetry.ctrl_tracer,
            },
        ],
        &[mn_telemetry::SpanProcess {
            pid: 3,
            name: "engine services",
            tracks: &tracks,
            spans: &spans,
        }],
    )
    .map_err(|e| ArgError(format!("cannot write {}: {e}", path.display())))?;

    let mut out = telemetry.summary.report();
    let events = telemetry.net.tracer.len() + telemetry.ctrl_tracer.len();
    let dropped = telemetry.net.tracer.dropped() + telemetry.ctrl_tracer.dropped();
    let _ = writeln!(
        out,
        "trace           {} events ({} dropped) -> {}",
        events,
        dropped,
        path.display()
    );
    let _ = writeln!(out, "service spans   {}", spans.len());
    Ok(out)
}

fn closedloop(
    campaign: &Campaign,
    knobs: &Knobs,
    args: &ClosedLoopArgs,
) -> Result<String, ArgError> {
    // `--policy`/`--window` already fell back to their knobs; applying
    // them as knobs gives `ecn` the same marking links as everywhere.
    let knobs = Knobs {
        host_policy: Some(args.policy),
        host_window: args.window,
        ..knobs.clone()
    };
    let mut config = build_config(
        &knobs,
        args.topology,
        100,
        mn_topo::NvmPlacement::Last,
        args.requests,
        args.seed,
    )?;
    if !config.noc.trace.enabled() {
        config.noc.trace = mn_core::TraceConfig::Counters;
    }
    let result = &run_grid(campaign, vec![config], args.workload)?[0];
    let mut out = report(result);
    let _ = writeln!(out, "window policy   {}", args.policy);
    if let Some(telemetry) = &result.telemetry {
        out.push_str(&telemetry.report());
    }
    Ok(out)
}

fn human_bytes(bytes: u64) -> String {
    match bytes {
        b if b >= 1 << 30 => format!("{:.1} GiB", b as f64 / (1u64 << 30) as f64),
        b if b >= 1 << 20 => format!("{:.1} MiB", b as f64 / (1u64 << 20) as f64),
        b if b >= 1 << 10 => format!("{:.1} KiB", b as f64 / 1024.0),
        b => format!("{b} B"),
    }
}

fn cache(args: &CacheArgs) -> Result<String, ArgError> {
    let dir = &args.dir;
    let cache = mn_campaign::DiskCache::new(dir);
    let mut out = String::new();
    match args.action {
        CacheAction::Stats => {
            let s = cache.stats();
            let _ = writeln!(out, "cache           {}", dir.display());
            let _ = writeln!(
                out,
                "entries         {} ({})",
                s.entries,
                human_bytes(s.bytes)
            );
            let _ = writeln!(out, "quarantined     {}", s.corrupt);
            let _ = writeln!(
                out,
                "hits            {} ({} served hot, no read/decode)",
                s.hits, s.hot_hits
            );
            let _ = writeln!(out, "misses          {}", s.misses);
            let _ = writeln!(out, "stores          {}", s.stores);
            let _ = writeln!(
                out,
                "evicted         {} ({})",
                s.evicted_entries,
                human_bytes(s.evicted_bytes)
            );
        }
        CacheAction::Gc => {
            let report = cache.gc(args.budget);
            if !report.ran {
                return Err(ArgError(format!(
                    "another gc holds {}/gc.lock; retry once it finishes",
                    dir.display()
                )));
            }
            let _ = writeln!(out, "cache           {}", dir.display());
            let _ = writeln!(
                out,
                "evicted         {} ({})",
                report.evicted_entries,
                human_bytes(report.evicted_bytes)
            );
            let _ = writeln!(out, "quarantine      {} removed", report.corrupt_removed);
            let _ = writeln!(
                out,
                "remaining       {} ({}){}",
                report.entries,
                human_bytes(report.bytes),
                match args.budget {
                    Some(b) => format!(" of {} budget", human_bytes(b)),
                    None => " (no budget: debris sweep only)".to_string(),
                }
            );
        }
    }
    Ok(out)
}

/// Executes a parsed command against an explicit campaign engine and
/// knobs, returning the text to print.
///
/// # Errors
///
/// Returns [`ArgError`] when the configuration cannot be built (e.g. an
/// unrealizable DRAM percentage) or a simulated point fails.
pub fn execute_with(
    campaign: &Campaign,
    knobs: &Knobs,
    command: &Command,
) -> Result<String, ArgError> {
    match command {
        Command::Help => Ok(USAGE.to_string()),
        Command::Run(args) => run(campaign, knobs, args),
        Command::Compare(args) => compare(campaign, knobs, args),
        Command::Topo(args) => topo(args),
        Command::Sweep(args) => sweep(campaign, knobs, args),
        Command::Trace(args) => trace(knobs, args),
        Command::ClosedLoop(args) => closedloop(campaign, knobs, args),
        Command::Cache(args) => cache(args),
    }
}

/// Executes a parsed command with the process's knobs and the
/// knob-configured campaign (`MN_JOBS` workers, shared `results/cache/`).
///
/// # Errors
///
/// Returns [`ArgError`] when the configuration cannot be built or a
/// simulated point fails.
pub fn execute(command: &Command) -> Result<String, ArgError> {
    execute_with(&Campaign::from_env(), Knobs::get(), command)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::RunArgs;
    use mn_noc::ArbiterKind;
    use mn_topo::NvmPlacement;
    use mn_workloads::Workload;

    fn bare() -> Campaign {
        Campaign::new(2).quiet()
    }

    #[test]
    fn help_prints_usage() {
        let text = execute_with(&bare(), &Knobs::default(), &Command::Help).unwrap();
        assert!(text.contains("mncube run"));
        assert!(text.contains("skiplist"));
    }

    #[test]
    fn run_produces_report() {
        let text = execute_with(
            &bare(),
            &Knobs::default(),
            &Command::Run(RunArgs {
                topology: TopologyKind::Chain,
                workload: Workload::Nw,
                dram_pct: 100,
                placement: NvmPlacement::Last,
                arbiter: ArbiterKind::RoundRobin,
                requests: 300,
                write_burst: false,
                seed: Some(1),
            }),
        )
        .unwrap();
        assert!(text.contains("configuration   100%-C"));
        assert!(text.contains("workload        NW"));
        assert!(text.contains("row-buffer hits"));
    }

    #[test]
    fn bad_mix_is_an_error_not_a_panic() {
        let result = execute_with(
            &bare(),
            &Knobs::default(),
            &Command::Run(RunArgs {
                topology: TopologyKind::Chain,
                workload: Workload::Nw,
                dram_pct: 90, // 90% does not divide into whole cubes
                placement: NvmPlacement::Last,
                arbiter: ArbiterKind::RoundRobin,
                requests: 100,
                write_burst: false,
                seed: None,
            }),
        );
        assert!(result.is_err());
    }

    #[test]
    fn compare_runs_as_one_campaign() {
        let text = execute_with(
            &bare(),
            &Knobs::default(),
            &Command::Compare(crate::args::CompareArgs {
                workload: Workload::Nw,
                arbiter: ArbiterKind::RoundRobin,
                requests: 150,
            }),
        )
        .unwrap();
        assert!(text.contains("chain"));
        assert!(text.contains("vs chain"));
    }

    #[test]
    fn trace_writes_perfetto_json_and_reports() {
        let path =
            std::env::temp_dir().join(format!("mncube-trace-test-{}.json", std::process::id()));
        let text = execute_with(
            &bare(),
            &Knobs::default(),
            &Command::Trace(crate::args::TraceArgs {
                topology: TopologyKind::Chain,
                workload: Workload::Kmeans,
                dram_pct: 100,
                placement: NvmPlacement::Last,
                requests: 200,
                seed: Some(1),
                out: path.clone(),
            }),
        )
        .unwrap();
        assert!(text.contains("latency decomposition"));
        assert!(text.contains("request network"));
        assert!(text.contains("fairness"));
        assert!(text.contains("trace           "));
        assert!(text.contains("service spans   1"));

        let json = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"name\":\"network\""));
        assert!(json.contains("\"name\":\"memory controllers\""));
        assert!(json.contains("\"BankAccess\""));
        // The simulation's own wall-clock span, on its own process row.
        assert!(json.contains("\"name\":\"engine services\""));
        assert!(json.contains("\"name\":\"trace.simulate\""));
    }

    #[test]
    fn closedloop_reports_the_window_rollup() {
        let text = execute_with(
            &bare(),
            &Knobs::default(),
            &Command::ClosedLoop(crate::args::ClosedLoopArgs {
                topology: TopologyKind::Chain,
                workload: Workload::Nw,
                policy: mn_core::WindowPolicyKind::Ecn,
                window: Some(4),
                requests: 300,
                seed: Some(1),
            }),
        )
        .unwrap();
        assert!(text.contains("configuration   100%-C"));
        assert!(text.contains("window policy   ecn"));
        assert!(text.contains("closed loop"));
        assert!(text.contains("window steady"));
    }

    #[test]
    fn a_failed_point_is_an_error_not_a_panic() {
        // A chain whose fault schedule kills a link is partitioned.
        let mut config = SystemConfig::paper_baseline(TopologyKind::Chain, 1.0).unwrap();
        config.requests_per_port = 100;
        config.noc.fault.link_kill_rate = 0.9;
        config.noc.fault.seed = (0..64)
            .find(|&seed| {
                config.noc.fault.seed = seed;
                mn_core::try_build_network(&config).is_err()
            })
            .expect("some fault seed kills a chain link");
        let Err(ArgError(message)) = run_grid(&bare(), vec![config], Workload::Nw) else {
            panic!("a partitioned point returned a result");
        };
        assert!(
            message.starts_with("100%-C: port 0: network partitioned"),
            "{message}"
        );
    }

    #[test]
    fn cache_stats_and_gc_report_and_converge() {
        let dir = std::env::temp_dir().join(format!("mncube-cache-cmd-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);

        // An empty (nonexistent) directory reports cleanly.
        let stats_cmd = Command::Cache(CacheArgs {
            action: CacheAction::Stats,
            dir: dir.clone(),
            budget: None,
        });
        let text = execute_with(&bare(), &Knobs::default(), &stats_cmd).unwrap();
        assert!(text.contains("entries         0 (0 B)"));

        // Populate it through a real campaign, then stats must count the
        // stored entry and the run's recorded miss/store.
        let mut config = SystemConfig::paper_baseline(TopologyKind::Chain, 1.0).unwrap();
        config.requests_per_port = 200;
        let campaign = Campaign::new(1).quiet().cache_dir(&dir);
        campaign.run(vec![CampaignPoint::new(config, Workload::Nw)]);
        let text = execute_with(&bare(), &Knobs::default(), &stats_cmd).unwrap();
        assert!(text.contains("entries         1"), "{text}");
        assert!(text.contains("stores          1"), "{text}");

        // gc is the only evictor: with a one-byte budget it evicts the
        // entry the campaign above just stored.
        let text = execute_with(
            &bare(),
            &Knobs::default(),
            &Command::Cache(CacheArgs {
                action: CacheAction::Gc,
                dir: dir.clone(),
                budget: Some(1),
            }),
        )
        .unwrap();
        assert!(text.contains("evicted         1"), "{text}");
        assert!(
            text.contains("remaining       0 (0 B) of 1 B budget"),
            "{text}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn topo_renders() {
        let text = execute_with(
            &bare(),
            &Knobs::default(),
            &Command::Topo(crate::args::TopoArgs {
                topology: TopologyKind::SkipList,
                cubes: 16,
                dram_pct: 100,
                placement: NvmPlacement::Last,
            }),
        )
        .unwrap();
        assert!(text.contains("HOST"));
        assert!(text.contains("max write 16"));
    }
}
