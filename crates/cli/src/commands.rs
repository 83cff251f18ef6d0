//! Execution of parsed commands.
//!
//! Every simulation a command needs goes through the `mn-campaign` engine,
//! so CLI runs parallelize across `MN_JOBS` workers and share the on-disk
//! result cache with the figure binaries.

use std::fmt::Write as _;

use mn_campaign::{Campaign, CampaignPoint, Knobs};
use mn_core::{speedup_pct, RunResult, SystemConfig};
use mn_topo::{render_ascii, Placement, Topology, TopologyKind, TopologyMetrics};
use mn_workloads::Workload;

use crate::args::{
    ArgError, CacheAction, CacheArgs, ClosedLoopArgs, Command, CompareArgs, RunArgs, StatsArgs,
    SweepArgs, TopoArgs, TraceArgs, USAGE,
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

fn run_grid(campaign: &Campaign, configs: Vec<SystemConfig>, workload: Workload) -> Vec<RunResult> {
    let points = configs
        .into_iter()
        .map(|config| CampaignPoint::new(config, workload))
        .collect();
    campaign.run(points).into_results()
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
    let results = run_grid(campaign, vec![config], args.workload);
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
    let results = run_grid(campaign, configs, args.workload);

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
    let results = run_grid(campaign, configs, args.workload);

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

    // Tracing bypasses the campaign engine on purpose: a cache hit
    // returns the simulated result without the telemetry rollup, and a
    // trace run exists precisely for that rollup. One port is simulated
    // directly (ports are independent; port 0 is representative).
    let started = mn_telemetry::registry::metrics_enabled().then(std::time::Instant::now);
    let mut observation = mn_core::try_simulate_port(&config, args.workload, 0)
        .map_err(|e| ArgError(e.to_string()))?;
    // With metrics on, the simulation renders as the one service span on a
    // third process row beside the kernel events, starting the timeline.
    let spans: Vec<mn_telemetry::NamedSpan> = started
        .iter()
        .map(|start| mn_telemetry::NamedSpan {
            name: "trace.simulate".to_string(),
            track: 0,
            ts_ps: 0,
            dur_ps: u64::try_from(start.elapsed().as_nanos())
                .map_or(u64::MAX, |ns| ns.saturating_mul(1000)),
        })
        .collect();
    let telemetry = observation
        .take_telemetry()
        .ok_or_else(|| ArgError("tracing produced no telemetry".into()))?;

    let path = &args.out;
    let mut file = std::fs::File::create(path)
        .map_err(|e| ArgError(format!("cannot create {}: {e}", path.display())))?;
    let tracks = ["service".to_string()];
    let span_processes = if spans.is_empty() {
        Vec::new()
    } else {
        vec![mn_telemetry::SpanProcess {
            pid: 3,
            name: "engine services",
            tracks: &tracks,
            spans: &spans,
        }]
    };
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
        &span_processes,
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
    if !spans.is_empty() {
        let _ = writeln!(out, "service spans   {}", spans.len());
    }
    Ok(out)
}

fn closedloop(knobs: &Knobs, args: &ClosedLoopArgs) -> Result<String, ArgError> {
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

    // Like `trace`, this bypasses the campaign engine: the closed-loop
    // rollup (window series, RTT, marked fraction) rides on telemetry,
    // which cache hits drop.
    let result =
        mn_core::try_simulate(&config, args.workload).map_err(|e| ArgError(e.to_string()))?;
    let mut out = report(&result);
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

/// Renders a Prometheus text snapshot as the `mncube stats` table:
/// families grouped by type in snapshot order, histograms collapsed to
/// their exact count/sum.
fn render_stats(text: &str) -> String {
    let mut types: Vec<(&str, &str)> = Vec::new();
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut it = rest.split_whitespace();
            if let (Some(name), Some(kind)) = (it.next(), it.next()) {
                types.push((name, kind));
            }
        }
    }
    let samples: Vec<(&str, &str)> = text
        .lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .filter_map(|l| l.rsplit_once(' '))
        .collect();
    fn family_of(series: &str) -> &str {
        series.split('{').next().unwrap_or(series)
    }
    let mut out = String::new();
    for kind in ["counter", "gauge", "histogram"] {
        let families: Vec<&str> = types
            .iter()
            .filter(|(_, k)| *k == kind)
            .map(|(n, _)| *n)
            .collect();
        if families.is_empty() {
            continue;
        }
        let _ = writeln!(out, "{kind}s:");
        for family in families {
            if kind == "histogram" {
                let find = |suffix: &str| {
                    let name = format!("{family}{suffix}");
                    samples
                        .iter()
                        .find(|(s, _)| family_of(s) == name)
                        .map_or("0", |(_, v)| *v)
                };
                let _ = writeln!(
                    out,
                    "  {:<46} count {:>10}  sum {}",
                    family,
                    find("_count"),
                    find("_sum")
                );
            } else {
                for (series, value) in samples.iter().filter(|(s, _)| family_of(s) == family) {
                    let _ = writeln!(out, "  {series:<46} {value:>12}");
                }
            }
        }
    }
    if out.is_empty() {
        out.push_str("(no metric families in snapshot)\n");
    }
    out
}

fn stats(args: &StatsArgs) -> Result<String, ArgError> {
    let file = args.file.as_ref().ok_or_else(|| {
        ArgError("no snapshot file: pass --file FILE or set MN_METRICS_FILE".into())
    })?;
    if !args.watch {
        let text = std::fs::read_to_string(file).map_err(|e| {
            ArgError(format!(
                "cannot read {}: {e} (produce one with MN_METRICS=on \
                 MN_METRICS_FILE={} mncube run ...)",
                file.display(),
                file.display()
            ))
        })?;
        let mut out = String::new();
        let _ = writeln!(out, "metrics         {}", file.display());
        out.push_str(&render_stats(&text));
        return Ok(out);
    }
    // Redraw until interrupted; a missing snapshot is a waiting state,
    // not an error, so `mncube stats --watch` can be started before the
    // campaign it observes.
    loop {
        let mut frame = String::from("\x1b[2J\x1b[H");
        let _ = writeln!(
            frame,
            "metrics         {} (every {}ms, Ctrl-C to exit)",
            file.display(),
            args.interval.as_millis()
        );
        match std::fs::read_to_string(file) {
            Ok(text) => frame.push_str(&render_stats(&text)),
            Err(err) => {
                let _ = writeln!(frame, "(waiting for snapshot: {err})");
            }
        }
        {
            use std::io::Write as _;
            let mut stdout = std::io::stdout().lock();
            let _ = stdout.write_all(frame.as_bytes());
            let _ = stdout.flush();
        }
        std::thread::sleep(args.interval);
    }
}

/// Executes a parsed command against an explicit campaign engine and
/// knobs, returning the text to print. The campaign carries any run
/// journal; [`execute`] attaches `run --resume`'s.
///
/// # Errors
///
/// Returns [`ArgError`] when the configuration cannot be built (e.g. an
/// unrealizable DRAM percentage).
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
        Command::ClosedLoop(args) => closedloop(knobs, args),
        Command::Cache(args) => cache(args),
        Command::Stats(args) => stats(args),
    }
}

/// Executes a parsed command with the process's knobs and the
/// knob-configured campaign (`MN_JOBS` workers, shared `results/cache/`),
/// journaling to the resolved `run --resume` path when there is one.
///
/// # Errors
///
/// Returns [`ArgError`] when the configuration cannot be built.
pub fn execute(command: &Command) -> Result<String, ArgError> {
    let mut campaign = Campaign::from_env();
    if let Command::Run(RunArgs {
        resume: Some(path), ..
    }) = command
    {
        campaign = campaign.journal(path);
    }
    execute_with(&campaign, Knobs::get(), command)
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
    fn stats_renders_snapshot_table() {
        let prom = "\
# HELP mn_engine_parks_total Worker parks.
# TYPE mn_engine_parks_total counter
mn_engine_parks_total 7
# HELP mn_engine_jobs_executed_total Jobs executed.
# TYPE mn_engine_jobs_executed_total counter
mn_engine_jobs_executed_total{pool=\"global\"} 42
# HELP mn_engine_workers Worker threads.
# TYPE mn_engine_workers gauge
mn_engine_workers 8
# HELP mn_point_resolve_latency_us Dispatch-to-resolution latency.
# TYPE mn_point_resolve_latency_us histogram
mn_point_resolve_latency_us_bucket{le=\"1\"} 0
mn_point_resolve_latency_us_bucket{le=\"+Inf\"} 3
mn_point_resolve_latency_us_sum 1500
mn_point_resolve_latency_us_count 3
";
        let table = render_stats(prom);
        assert!(table.contains("counters:"), "{table}");
        assert!(table.contains("mn_engine_parks_total"), "{table}");
        assert!(table.contains("mn_engine_jobs_executed_total{pool=\"global\"}"));
        assert!(table.contains("gauges:"));
        assert!(table.contains("histograms:"));
        // Histograms collapse to count/sum; bucket rows never leak.
        assert!(table.contains("count          3  sum 1500"), "{table}");
        assert!(!table.contains("le="), "{table}");

        let dir = std::env::temp_dir().join(format!("mn-stats-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("metrics.prom");
        std::fs::write(&file, prom).unwrap();
        let text = execute_with(
            &bare(),
            &Knobs::default(),
            &Command::Stats(crate::args::StatsArgs {
                file: Some(file.clone()),
                watch: false,
                interval: std::time::Duration::from_secs(1),
            }),
        )
        .unwrap();
        assert!(text.contains("metrics"));
        assert!(text.contains("mn_engine_workers"));
        let missing = execute_with(
            &bare(),
            &Knobs::default(),
            &Command::Stats(crate::args::StatsArgs {
                file: Some(dir.join("absent.prom")),
                watch: false,
                interval: std::time::Duration::from_secs(1),
            }),
        );
        assert!(missing.is_err());
        let _ = std::fs::remove_dir_all(&dir);
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
                resume: None,
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
                resume: None,
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

        let json = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"name\":\"network\""));
        assert!(json.contains("\"name\":\"memory controllers\""));
        assert!(json.contains("\"BankAccess\""));
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
