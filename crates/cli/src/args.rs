//! Argument parsing for the `mncube` binary.
//!
//! Deliberately hand-rolled: the workspace keeps its dependencies to the
//! simulation essentials, and the grammar is small — five subcommands with
//! `--flag value` options.

use std::error::Error;
use std::fmt;
use std::path::PathBuf;
use std::time::Duration;

use mn_campaign::Knobs;
use mn_core::WindowPolicyKind;
use mn_noc::ArbiterKind;
use mn_topo::{NvmPlacement, TopologyKind};
use mn_workloads::Workload;

/// A bad invocation, with a message suitable for direct printing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArgError(pub String);

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl Error for ArgError {}

fn err(msg: impl Into<String>) -> ArgError {
    ArgError(msg.into())
}

/// Arguments of `mncube run`.
#[derive(Debug, Clone, PartialEq)]
pub struct RunArgs {
    /// MN topology.
    pub topology: TopologyKind,
    /// Workload proxy.
    pub workload: Workload,
    /// DRAM capacity percentage (100, 50, 0, ...).
    pub dram_pct: u32,
    /// NVM placement.
    pub placement: NvmPlacement,
    /// Arbitration scheme.
    pub arbiter: ArbiterKind,
    /// Requests per port.
    pub requests: u64,
    /// Enable write-burst routing on skip lists.
    pub write_burst: bool,
    /// RNG seed override.
    pub seed: Option<u64>,
    /// Resume journal path: completed points recorded there are skipped
    /// and this run's progress is appended.
    pub resume: Option<PathBuf>,
}

/// Arguments of `mncube compare`.
#[derive(Debug, Clone, PartialEq)]
pub struct CompareArgs {
    /// Workload proxy.
    pub workload: Workload,
    /// Arbitration scheme.
    pub arbiter: ArbiterKind,
    /// Requests per port.
    pub requests: u64,
}

/// Arguments of `mncube topo`.
#[derive(Debug, Clone, PartialEq)]
pub struct TopoArgs {
    /// MN topology.
    pub topology: TopologyKind,
    /// Number of cubes.
    pub cubes: u32,
    /// DRAM capacity percentage.
    pub dram_pct: u32,
    /// NVM placement.
    pub placement: NvmPlacement,
}

/// Arguments of `mncube sweep`.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepArgs {
    /// MN topology.
    pub topology: TopologyKind,
    /// Workload proxy.
    pub workload: Workload,
    /// Requests per port.
    pub requests: u64,
}

/// Arguments of `mncube trace`.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceArgs {
    /// MN topology.
    pub topology: TopologyKind,
    /// Workload proxy.
    pub workload: Workload,
    /// DRAM capacity percentage.
    pub dram_pct: u32,
    /// NVM placement.
    pub placement: NvmPlacement,
    /// Requests per port.
    pub requests: u64,
    /// RNG seed override.
    pub seed: Option<u64>,
    /// Output path for the Perfetto trace (defaults to `trace.json` in
    /// `MN_TRACE_DIR`, itself defaulting to the current directory).
    pub out: PathBuf,
}

/// Arguments of `mncube closedloop`.
#[derive(Debug, Clone, PartialEq)]
pub struct ClosedLoopArgs {
    /// MN topology.
    pub topology: TopologyKind,
    /// Workload proxy.
    pub workload: Workload,
    /// Congestion-control window policy.
    pub policy: WindowPolicyKind,
    /// Initial window override in outstanding requests (the cap is raised
    /// to match when needed).
    pub window: Option<u32>,
    /// Requests per port.
    pub requests: u64,
    /// RNG seed override.
    pub seed: Option<u64>,
}

/// What `mncube cache` should do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheAction {
    /// Print entry/byte totals and the lifetime hit/miss/store/eviction
    /// counters.
    Stats,
    /// Remove quarantined debris and evict the oldest-written entries
    /// under the budget.
    Gc,
}

/// Arguments of `mncube cache`.
#[derive(Debug, Clone, PartialEq)]
pub struct CacheArgs {
    /// Stats or gc.
    pub action: CacheAction,
    /// Cache directory.
    pub dir: PathBuf,
    /// Eviction budget for `gc`; without one, gc only removes
    /// quarantined debris.
    pub budget: Option<u64>,
}

/// Arguments of `mncube stats`.
#[derive(Debug, Clone, PartialEq)]
pub struct StatsArgs {
    /// Snapshot file.
    pub file: Option<PathBuf>,
    /// Redraw the view once per interval instead of printing once.
    pub watch: bool,
    /// Redraw interval for `--watch`.
    pub interval: Duration,
}

/// A parsed `mncube` invocation.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Simulate one configuration and print its full report.
    Run(RunArgs),
    /// Compare every topology under one workload.
    Compare(CompareArgs),
    /// Render a topology and its structural metrics.
    Topo(TopoArgs),
    /// Sweep the DRAM:NVM ratio for one topology.
    Sweep(SweepArgs),
    /// Simulate one port with full tracing and export a Perfetto trace
    /// plus a latency-decomposition report.
    Trace(TraceArgs),
    /// Simulate one configuration with the closed-loop host model and
    /// report window/RTT/goodput alongside the usual run report.
    ClosedLoop(ClosedLoopArgs),
    /// Inspect or garbage-collect the on-disk result cache.
    Cache(CacheArgs),
    /// Render the engine metrics snapshot (`MN_METRICS_FILE`) as a
    /// terminal table, optionally redrawing live with `--watch`.
    Stats(StatsArgs),
    /// Print usage.
    Help,
}

/// The usage text.
pub const USAGE: &str = "\
mncube — memory-network simulator (ISCA'17 'There and Back Again')

USAGE:
    mncube run     [--topology T] [--workload W] [--dram PCT] [--placement P]
                   [--arbiter A] [--requests N] [--write-burst] [--seed S]
                   [--resume FILE]
    mncube compare [--workload W] [--arbiter A] [--requests N]
    mncube topo    [--topology T] [--cubes N] [--dram PCT] [--placement P]
    mncube sweep   [--topology T] [--workload W] [--requests N]
    mncube trace   [--topology T] [--workload W] [--dram PCT] [--placement P]
                   [--requests N] [--seed S] [--out FILE]
    mncube closedloop [--topology T] [--workload W] [--policy PO]
                   [--window N] [--requests N] [--seed S]
    mncube cache   <stats|gc> [--dir DIR] [--budget SIZE]
    mncube stats   [--file FILE] [--watch] [--interval MS]
    mncube help

VALUES:
    T:   chain | ring | tree | skiplist | metacube | mesh
    W:   backprop | bit | buff | dct | hotspot | kmeans | matrixmul | nw
    PCT: 100 | 75 | 50 | 25 | 0       (DRAM share of capacity)
    P:   first | last                 (NVM placement)
    A:   rr | distance | adaptive | oracle
    PO:  open | fixed:<n> | aimd | ecn (congestion-control window policy)

'trace' writes a Chrome/Perfetto trace.json (open in ui.perfetto.dev);
--out overrides the destination, else $MN_TRACE_DIR/trace.json is used.
'closedloop' gates injection on an outstanding-request window and reports
the steady-state window, RTT, and goodput (ecn also enables link marking).
'run --resume FILE' (or MN_RESUME=FILE) journals progress to FILE and, on
rerun, skips points the journal already completed — a killed run restarts
where it died with byte-identical results.
'cache stats' prints the result cache's entry/byte totals and lifetime
hit/miss/store/eviction counters; 'cache gc' removes quarantined debris and
evicts the oldest-written entries until the directory fits --budget
(sizes accept K/M/G suffixes, e.g. 512M; without it, nothing is evicted).
'stats' renders the Prometheus snapshot a metrics-enabled run writes
(MN_METRICS=on MN_METRICS_FILE=FILE) as a terminal table; --watch
redraws it once per --interval milliseconds until interrupted.
Flags override their MN_* knobs, which fill in for absent flags:
--requests (MN_REQUESTS), --seed (MN_SEED), --resume (MN_RESUME),
--policy/--window (MN_HOST_POLICY/MN_HOST_WINDOW), --dir (MN_CACHE_DIR),
--file (MN_METRICS_FILE) and --interval (MN_METRICS_INTERVAL).
MN_FAULT_*, MN_TRACE and MN_HOST_* shape every simulated configuration,
as in the figure binaries.
";

fn parse_topology(s: &str) -> Result<TopologyKind, ArgError> {
    match s.to_ascii_lowercase().as_str() {
        "chain" | "c" => Ok(TopologyKind::Chain),
        "ring" | "r" => Ok(TopologyKind::Ring),
        "tree" | "t" => Ok(TopologyKind::Tree),
        "skiplist" | "skip-list" | "sl" => Ok(TopologyKind::SkipList),
        "metacube" | "mc" => Ok(TopologyKind::MetaCube),
        "mesh" | "m" => Ok(TopologyKind::Mesh),
        other => Err(err(format!("unknown topology '{other}'"))),
    }
}

fn parse_workload(s: &str) -> Result<Workload, ArgError> {
    Workload::ALL
        .into_iter()
        .find(|w| w.label().eq_ignore_ascii_case(s))
        .ok_or_else(|| err(format!("unknown workload '{s}'")))
}

fn parse_placement(s: &str) -> Result<NvmPlacement, ArgError> {
    match s.to_ascii_lowercase().as_str() {
        "first" | "f" | "nvm-f" => Ok(NvmPlacement::First),
        "last" | "l" | "nvm-l" => Ok(NvmPlacement::Last),
        other => Err(err(format!("unknown placement '{other}'"))),
    }
}

fn parse_arbiter(s: &str) -> Result<ArbiterKind, ArgError> {
    match s.to_ascii_lowercase().as_str() {
        "rr" | "roundrobin" | "round-robin" => Ok(ArbiterKind::RoundRobin),
        "distance" | "dist" => Ok(ArbiterKind::Distance),
        "adaptive" | "adaptive-distance" => Ok(ArbiterKind::AdaptiveDistance),
        "oracle" | "age" => Ok(ArbiterKind::OracleAge),
        other => Err(err(format!("unknown arbiter '{other}'"))),
    }
}

fn parse_u64(flag: &str, s: &str) -> Result<u64, ArgError> {
    s.parse()
        .map_err(|_| err(format!("{flag} expects a number, got '{s}'")))
}

fn parse_u32(flag: &str, s: &str) -> Result<u32, ArgError> {
    parse_at_most(flag, s, u32::MAX)
}

fn parse_at_most(flag: &str, s: &str, max: u32) -> Result<u32, ArgError> {
    u32::try_from(parse_u64(flag, s)?)
        .ok()
        .filter(|&n| n <= max)
        .ok_or_else(|| err(format!("{flag} {s} is out of range (at most {max})")))
}

/// The most cubes `mncube topo --cubes` accepts. Routing keeps one
/// dense `(port, dist)` table per path class, 4 bytes per node pair
/// each, so two classes cost 8·n² bytes for n nodes and the build is
/// one BFS per source, O(n·(n + links)). Memory binds long before the
/// `u16` entries do (they cap a topology below 65535 nodes, which
/// would need 34 GB): at 4096 cubes the tables take 134 MB, or 210 MB
/// for MetaCube's extra interface chips. Measured on a 2-core host,
/// `mncube topo --cubes 4096` takes 1.1 s and 131 MB peak RSS on a
/// chain, 0.6 s and 132 MB on a skip list, and 0.8 s and 204 MB on
/// MetaCube.
const MAX_TOPO_CUBES: u32 = 4096;

fn parse_policy(s: &str) -> Result<WindowPolicyKind, ArgError> {
    s.parse().map_err(|e| err(format!("{e}")))
}

/// A tiny `--flag value` cursor.
struct Cursor<'a> {
    args: &'a [String],
    index: usize,
}

impl<'a> Cursor<'a> {
    fn next_flag(&mut self) -> Option<&'a str> {
        let arg = self.args.get(self.index)?;
        self.index += 1;
        Some(arg.as_str())
    }

    fn value(&mut self, flag: &str) -> Result<&'a str, ArgError> {
        let value = self
            .args
            .get(self.index)
            .ok_or_else(|| err(format!("{flag} expects a value")))?;
        self.index += 1;
        Ok(value.as_str())
    }
}

impl Command {
    /// Parses a full argument list (without the program name). Flags
    /// that mirror a knob (`--requests`, `--seed`, `--resume`, `--out`,
    /// `--policy`, `--window`, `--dir`, `--file`, `--interval`) default
    /// to that knob's value in `knobs`, so a flag overrides its knob and
    /// an absent flag falls back to it.
    ///
    /// # Errors
    ///
    /// Returns [`ArgError`] with a human-readable message on any unknown
    /// subcommand, flag, or malformed value.
    pub fn parse(args: &[String], knobs: &Knobs) -> Result<Command, ArgError> {
        let Some(sub) = args.first() else {
            return Ok(Command::Help);
        };
        let mut cursor = Cursor {
            args: &args[1..],
            index: 0,
        };
        match sub.as_str() {
            "help" | "--help" | "-h" => Ok(Command::Help),
            "run" => {
                let mut parsed = RunArgs {
                    topology: TopologyKind::Tree,
                    workload: Workload::Dct,
                    dram_pct: 100,
                    placement: NvmPlacement::Last,
                    arbiter: ArbiterKind::RoundRobin,
                    requests: knobs.requests,
                    write_burst: false,
                    seed: knobs.seed,
                    resume: knobs.resume.clone(),
                };
                while let Some(flag) = cursor.next_flag() {
                    match flag {
                        "--topology" => parsed.topology = parse_topology(cursor.value(flag)?)?,
                        "--workload" => parsed.workload = parse_workload(cursor.value(flag)?)?,
                        "--dram" => parsed.dram_pct = parse_u32(flag, cursor.value(flag)?)?,
                        "--placement" => parsed.placement = parse_placement(cursor.value(flag)?)?,
                        "--arbiter" => parsed.arbiter = parse_arbiter(cursor.value(flag)?)?,
                        "--requests" => parsed.requests = parse_u64(flag, cursor.value(flag)?)?,
                        "--write-burst" => parsed.write_burst = true,
                        "--seed" => parsed.seed = Some(parse_u64(flag, cursor.value(flag)?)?),
                        "--resume" => parsed.resume = Some(cursor.value(flag)?.into()),
                        other => return Err(err(format!("unknown flag '{other}' for run"))),
                    }
                }
                Ok(Command::Run(parsed))
            }
            "compare" => {
                let mut parsed = CompareArgs {
                    workload: Workload::Dct,
                    arbiter: ArbiterKind::RoundRobin,
                    requests: knobs.requests,
                };
                while let Some(flag) = cursor.next_flag() {
                    match flag {
                        "--workload" => parsed.workload = parse_workload(cursor.value(flag)?)?,
                        "--arbiter" => parsed.arbiter = parse_arbiter(cursor.value(flag)?)?,
                        "--requests" => parsed.requests = parse_u64(flag, cursor.value(flag)?)?,
                        other => return Err(err(format!("unknown flag '{other}' for compare"))),
                    }
                }
                Ok(Command::Compare(parsed))
            }
            "topo" => {
                let mut parsed = TopoArgs {
                    topology: TopologyKind::SkipList,
                    cubes: 16,
                    dram_pct: 100,
                    placement: NvmPlacement::Last,
                };
                let mut explicit_cubes = false;
                while let Some(flag) = cursor.next_flag() {
                    match flag {
                        "--topology" => parsed.topology = parse_topology(cursor.value(flag)?)?,
                        "--cubes" => {
                            parsed.cubes =
                                parse_at_most(flag, cursor.value(flag)?, MAX_TOPO_CUBES)?;
                            explicit_cubes = true;
                        }
                        "--dram" => parsed.dram_pct = parse_u32(flag, cursor.value(flag)?)?,
                        "--placement" => parsed.placement = parse_placement(cursor.value(flag)?)?,
                        other => return Err(err(format!("unknown flag '{other}' for topo"))),
                    }
                }
                if parsed.dram_pct != 100 && explicit_cubes {
                    return Err(err("--cubes applies to all-DRAM views; with --dram the cube count follows the mix"));
                }
                Ok(Command::Topo(parsed))
            }
            "sweep" => {
                let mut parsed = SweepArgs {
                    topology: TopologyKind::Tree,
                    workload: Workload::Dct,
                    requests: knobs.requests,
                };
                while let Some(flag) = cursor.next_flag() {
                    match flag {
                        "--topology" => parsed.topology = parse_topology(cursor.value(flag)?)?,
                        "--workload" => parsed.workload = parse_workload(cursor.value(flag)?)?,
                        "--requests" => parsed.requests = parse_u64(flag, cursor.value(flag)?)?,
                        other => return Err(err(format!("unknown flag '{other}' for sweep"))),
                    }
                }
                Ok(Command::Sweep(parsed))
            }
            "trace" => {
                let mut parsed = TraceArgs {
                    topology: TopologyKind::Tree,
                    workload: Workload::Dct,
                    dram_pct: 100,
                    placement: NvmPlacement::Last,
                    requests: knobs.requests,
                    seed: knobs.seed,
                    out: knobs.trace_dir.join("trace.json"),
                };
                while let Some(flag) = cursor.next_flag() {
                    match flag {
                        "--topology" => parsed.topology = parse_topology(cursor.value(flag)?)?,
                        "--workload" => parsed.workload = parse_workload(cursor.value(flag)?)?,
                        "--dram" => parsed.dram_pct = parse_u32(flag, cursor.value(flag)?)?,
                        "--placement" => parsed.placement = parse_placement(cursor.value(flag)?)?,
                        "--requests" => parsed.requests = parse_u64(flag, cursor.value(flag)?)?,
                        "--seed" => parsed.seed = Some(parse_u64(flag, cursor.value(flag)?)?),
                        "--out" => parsed.out = cursor.value(flag)?.into(),
                        other => return Err(err(format!("unknown flag '{other}' for trace"))),
                    }
                }
                Ok(Command::Trace(parsed))
            }
            "closedloop" | "closed-loop" => {
                let mut parsed = ClosedLoopArgs {
                    topology: TopologyKind::Tree,
                    workload: Workload::Dct,
                    policy: knobs.host_policy.unwrap_or(WindowPolicyKind::Aimd),
                    window: knobs.host_window,
                    requests: knobs.requests,
                    seed: knobs.seed,
                };
                while let Some(flag) = cursor.next_flag() {
                    match flag {
                        "--topology" => parsed.topology = parse_topology(cursor.value(flag)?)?,
                        "--workload" => parsed.workload = parse_workload(cursor.value(flag)?)?,
                        "--policy" => parsed.policy = parse_policy(cursor.value(flag)?)?,
                        "--window" => {
                            let window = parse_u32(flag, cursor.value(flag)?)?;
                            if window == 0 {
                                return Err(err("--window must admit at least one request"));
                            }
                            parsed.window = Some(window);
                        }
                        "--requests" => parsed.requests = parse_u64(flag, cursor.value(flag)?)?,
                        "--seed" => parsed.seed = Some(parse_u64(flag, cursor.value(flag)?)?),
                        other => return Err(err(format!("unknown flag '{other}' for closedloop"))),
                    }
                }
                Ok(Command::ClosedLoop(parsed))
            }
            "cache" => {
                let action = match cursor.next_flag() {
                    Some("stats") => CacheAction::Stats,
                    Some("gc") => CacheAction::Gc,
                    Some(other) => {
                        return Err(err(format!(
                            "unknown cache action '{other}' (expected stats or gc)"
                        )))
                    }
                    None => return Err(err("cache expects an action: stats or gc")),
                };
                let mut parsed = CacheArgs {
                    action,
                    dir: knobs.cache_dir.clone(),
                    budget: None,
                };
                while let Some(flag) = cursor.next_flag() {
                    match flag {
                        "--dir" => parsed.dir = cursor.value(flag)?.into(),
                        "--budget" => {
                            let text = cursor.value(flag)?;
                            if action != CacheAction::Gc {
                                return Err(err("--budget applies to cache gc only"));
                            }
                            parsed.budget =
                                Some(mn_campaign::parse_size(text).ok_or_else(|| {
                                    err(format!(
                                        "--budget expects a positive byte size \
                                         (e.g. 512M), got '{text}'"
                                    ))
                                })?);
                            if parsed.budget == Some(0) {
                                return Err(err("--budget must be positive"));
                            }
                        }
                        other => return Err(err(format!("unknown flag '{other}' for cache"))),
                    }
                }
                Ok(Command::Cache(parsed))
            }
            "stats" => {
                let mut parsed = StatsArgs {
                    file: knobs.metrics_file.clone(),
                    watch: false,
                    interval: knobs.metrics_interval,
                };
                while let Some(flag) = cursor.next_flag() {
                    match flag {
                        "--file" => parsed.file = Some(cursor.value(flag)?.into()),
                        "--watch" => parsed.watch = true,
                        "--interval" => {
                            let ms = parse_u64(flag, cursor.value(flag)?)?;
                            if ms == 0 {
                                return Err(err("--interval must be positive"));
                            }
                            parsed.interval = Duration::from_millis(ms);
                        }
                        other => return Err(err(format!("unknown flag '{other}' for stats"))),
                    }
                }
                Ok(Command::Stats(parsed))
            }
            other => Err(err(format!(
                "unknown subcommand '{other}' (try 'mncube help')"
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Command, ArgError> {
        parse_with(args, &Knobs::default())
    }

    fn parse_with(args: &[&str], knobs: &Knobs) -> Result<Command, ArgError> {
        let owned: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        Command::parse(&owned, knobs)
    }

    #[test]
    fn empty_is_help() {
        assert_eq!(parse(&[]), Ok(Command::Help));
        assert_eq!(parse(&["help"]), Ok(Command::Help));
        assert_eq!(parse(&["--help"]), Ok(Command::Help));
    }

    #[test]
    fn run_defaults() {
        let Command::Run(a) = parse(&["run"]).unwrap() else {
            panic!("expected run");
        };
        assert_eq!(a.topology, TopologyKind::Tree);
        assert_eq!(a.workload, Workload::Dct);
        assert_eq!(a.dram_pct, 100);
        assert!(!a.write_burst);
        assert_eq!(a.resume, None);
    }

    #[test]
    fn run_full_flags() {
        let Command::Run(a) = parse(&[
            "run",
            "--topology",
            "skiplist",
            "--workload",
            "BACKPROP",
            "--dram",
            "50",
            "--placement",
            "first",
            "--arbiter",
            "adaptive",
            "--requests",
            "1234",
            "--write-burst",
            "--seed",
            "9",
            "--resume",
            "/tmp/run.journal",
        ])
        .unwrap() else {
            panic!("expected run");
        };
        assert_eq!(a.topology, TopologyKind::SkipList);
        assert_eq!(a.workload, Workload::Backprop);
        assert_eq!(a.dram_pct, 50);
        assert_eq!(a.placement, NvmPlacement::First);
        assert_eq!(a.arbiter, ArbiterKind::AdaptiveDistance);
        assert_eq!(a.requests, 1234);
        assert!(a.write_burst);
        assert_eq!(a.seed, Some(9));
        assert_eq!(a.resume, Some(PathBuf::from("/tmp/run.journal")));
    }

    #[test]
    fn resume_needs_a_value_and_belongs_to_run() {
        let e = parse(&["run", "--resume"]).unwrap_err();
        assert!(e.to_string().contains("expects a value"));
        assert!(parse(&["sweep", "--resume", "x.journal"]).is_err());
    }

    #[test]
    fn topology_aliases() {
        for (s, k) in [
            ("c", TopologyKind::Chain),
            ("MC", TopologyKind::MetaCube),
            ("skip-list", TopologyKind::SkipList),
            ("mesh", TopologyKind::Mesh),
        ] {
            assert_eq!(parse_topology(s).unwrap(), k);
        }
    }

    #[test]
    fn arbiter_aliases() {
        assert_eq!(parse_arbiter("rr").unwrap(), ArbiterKind::RoundRobin);
        assert_eq!(parse_arbiter("oracle").unwrap(), ArbiterKind::OracleAge);
    }

    #[test]
    fn errors_are_informative() {
        let e = parse(&["run", "--topology", "torus"]).unwrap_err();
        assert!(e.to_string().contains("torus"));
        let e = parse(&["run", "--requests"]).unwrap_err();
        assert!(e.to_string().contains("expects a value"));
        let e = parse(&["fly"]).unwrap_err();
        assert!(e.to_string().contains("fly"));
        let e = parse(&["run", "--bogus", "1"]).unwrap_err();
        assert!(e.to_string().contains("bogus"));
    }

    #[test]
    fn compare_and_sweep_parse() {
        assert!(matches!(
            parse(&["compare", "--workload", "nw"]),
            Ok(Command::Compare(_))
        ));
        assert!(matches!(
            parse(&["sweep", "--topology", "ring"]),
            Ok(Command::Sweep(_))
        ));
    }

    #[test]
    fn trace_parses_flags_and_defaults() {
        let Command::Trace(a) = parse(&["trace"]).unwrap() else {
            panic!("expected trace");
        };
        assert_eq!(a.topology, TopologyKind::Tree);
        assert_eq!(a.out, PathBuf::from("trace.json"));

        let Command::Trace(a) = parse(&[
            "trace",
            "--topology",
            "chain",
            "--workload",
            "kmeans",
            "--dram",
            "50",
            "--requests",
            "640",
            "--out",
            "/tmp/t.json",
        ])
        .unwrap() else {
            panic!("expected trace");
        };
        assert_eq!(a.topology, TopologyKind::Chain);
        assert_eq!(a.workload, Workload::Kmeans);
        assert_eq!(a.dram_pct, 50);
        assert_eq!(a.requests, 640);
        assert_eq!(a.out, PathBuf::from("/tmp/t.json"));

        // The arbiter knob belongs to run/compare, not trace.
        assert!(parse(&["trace", "--arbiter", "rr"]).is_err());
    }

    #[test]
    fn closedloop_parses_flags_and_defaults() {
        let Command::ClosedLoop(a) = parse(&["closedloop"]).unwrap() else {
            panic!("expected closedloop");
        };
        assert_eq!(a.topology, TopologyKind::Tree);
        assert_eq!(a.policy, WindowPolicyKind::Aimd);
        assert_eq!(a.window, None);

        let Command::ClosedLoop(a) = parse(&[
            "closed-loop",
            "--topology",
            "ring",
            "--workload",
            "nw",
            "--policy",
            "fixed:8",
            "--window",
            "16",
            "--requests",
            "500",
            "--seed",
            "7",
        ])
        .unwrap() else {
            panic!("expected closedloop");
        };
        assert_eq!(a.topology, TopologyKind::Ring);
        assert_eq!(a.workload, Workload::Nw);
        assert_eq!(a.policy, WindowPolicyKind::Fixed(8));
        assert_eq!(a.window, Some(16));
        assert_eq!(a.requests, 500);
        assert_eq!(a.seed, Some(7));

        let e = parse(&["closedloop", "--policy", "tcp"]).unwrap_err();
        assert!(e.to_string().contains("tcp"));
        let e = parse(&["closedloop", "--window", "0"]).unwrap_err();
        assert!(e.to_string().contains("at least one"));
    }

    #[test]
    fn cache_parses_actions_and_flags() {
        let Command::Cache(a) = parse(&["cache", "stats"]).unwrap() else {
            panic!("expected cache");
        };
        assert_eq!(a.action, CacheAction::Stats);
        assert_eq!(a.dir, PathBuf::from("results/cache"));
        assert_eq!(a.budget, None);

        let Command::Cache(a) =
            parse(&["cache", "gc", "--dir", "/tmp/c", "--budget", "2M"]).unwrap()
        else {
            panic!("expected cache");
        };
        assert_eq!(a.action, CacheAction::Gc);
        assert_eq!(a.dir, PathBuf::from("/tmp/c"));
        assert_eq!(a.budget, Some(2 << 20));

        let e = parse(&["cache"]).unwrap_err();
        assert!(e.to_string().contains("stats or gc"));
        let e = parse(&["cache", "purge"]).unwrap_err();
        assert!(e.to_string().contains("purge"));
        let e = parse(&["cache", "gc", "--budget", "lots"]).unwrap_err();
        assert!(e.to_string().contains("lots"));
        let e = parse(&["cache", "gc", "--budget", "0"]).unwrap_err();
        assert!(e.to_string().contains("positive"));
        // --budget steers eviction; stats never evicts.
        assert!(parse(&["cache", "stats", "--budget", "1M"]).is_err());
    }

    #[test]
    fn stats_parses_flags() {
        let Command::Stats(a) = parse(&["stats"]).unwrap() else {
            panic!("expected stats");
        };
        assert_eq!(a.file, None);
        assert!(!a.watch);
        assert_eq!(a.interval, Duration::from_millis(1000));

        let Command::Stats(a) =
            parse(&["stats", "--file", "m.prom", "--watch", "--interval", "250"]).unwrap()
        else {
            panic!("expected stats");
        };
        assert_eq!(a.file, Some(PathBuf::from("m.prom")));
        assert!(a.watch);
        assert_eq!(a.interval, Duration::from_millis(250));

        let e = parse(&["stats", "--interval", "0"]).unwrap_err();
        assert!(e.to_string().contains("positive"));
        assert!(parse(&["stats", "--refresh"]).is_err());
    }

    #[test]
    fn out_of_range_numbers_are_errors_not_wrapped() {
        // 4294967396 and 4294967312 wrap to 100 and 16 under `as u32`.
        let e = parse(&["topo", "--dram", "4294967396"]).unwrap_err();
        assert!(
            e.to_string().contains("--dram 4294967396 is out of range"),
            "{e}"
        );
        let e = parse(&["topo", "--cubes", "4294967312"]).unwrap_err();
        assert!(
            e.to_string().contains("--cubes 4294967312 is out of range"),
            "{e}"
        );
        let e = parse(&["run", "--dram", "4294967396"]).unwrap_err();
        assert!(e.to_string().contains("out of range"), "{e}");
        let e = parse(&["closedloop", "--window", "4294967296"]).unwrap_err();
        assert!(e.to_string().contains("out of range"), "{e}");
        let Command::Topo(a) = parse(&["topo", "--dram", "4294967295"]).unwrap() else {
            panic!("expected topo");
        };
        assert_eq!(a.dram_pct, u32::MAX);
        // --cubes stops at the route tables' limit: 100000 cubes passed
        // the u32 check and aborted on allocation.
        let e = parse(&["topo", "--cubes", "100000"]).unwrap_err();
        assert!(e.to_string().contains("(at most 4096)"), "{e}");
        assert!(parse(&["topo", "--cubes", "4097"]).is_err());
        let Command::Topo(a) = parse(&["topo", "--cubes", "4096"]).unwrap() else {
            panic!("expected topo");
        };
        assert_eq!(a.cubes, MAX_TOPO_CUBES);
    }

    #[test]
    fn flags_fall_back_to_knobs_and_override_them() {
        let knobs = Knobs {
            requests: 300,
            seed: Some(5),
            resume: Some(PathBuf::from("env.journal")),
            trace_dir: PathBuf::from("/tmp/traces"),
            host_policy: Some(WindowPolicyKind::Ecn),
            host_window: Some(4),
            cache_dir: PathBuf::from("/tmp/env-cache"),
            metrics_file: Some(PathBuf::from("env.prom")),
            metrics_interval: Duration::from_millis(50),
            ..Knobs::default()
        };
        let Command::Run(a) = parse_with(&["run"], &knobs).unwrap() else {
            panic!("expected run");
        };
        assert_eq!((a.requests, a.seed), (300, Some(5)));
        assert_eq!(a.resume, Some(PathBuf::from("env.journal")));
        let Command::Run(a) = parse_with(
            &[
                "run",
                "--requests",
                "7",
                "--seed",
                "8",
                "--resume",
                "flag.journal",
            ],
            &knobs,
        )
        .unwrap() else {
            panic!("expected run");
        };
        assert_eq!((a.requests, a.seed), (7, Some(8)));
        assert_eq!(a.resume, Some(PathBuf::from("flag.journal")));

        let Command::Trace(a) = parse_with(&["trace"], &knobs).unwrap() else {
            panic!("expected trace");
        };
        assert_eq!(a.out, PathBuf::from("/tmp/traces/trace.json"));
        assert_eq!(a.requests, 300);

        let Command::ClosedLoop(a) = parse_with(&["closedloop"], &knobs).unwrap() else {
            panic!("expected closedloop");
        };
        assert_eq!((a.policy, a.window), (WindowPolicyKind::Ecn, Some(4)));
        let Command::ClosedLoop(a) =
            parse_with(&["closedloop", "--policy", "aimd", "--window", "9"], &knobs).unwrap()
        else {
            panic!("expected closedloop");
        };
        assert_eq!((a.policy, a.window), (WindowPolicyKind::Aimd, Some(9)));

        let Command::Cache(a) = parse_with(&["cache", "gc"], &knobs).unwrap() else {
            panic!("expected cache");
        };
        assert_eq!(a.dir, PathBuf::from("/tmp/env-cache"));
        assert_eq!(a.budget, None, "--budget mirrors no knob");

        let Command::Stats(a) = parse_with(&["stats", "--interval", "75"], &knobs).unwrap() else {
            panic!("expected stats");
        };
        assert_eq!(a.file, Some(PathBuf::from("env.prom")));
        assert_eq!(a.interval, Duration::from_millis(75));
    }

    #[test]
    fn topo_cube_mix_conflict() {
        assert!(parse(&["topo", "--cubes", "8", "--dram", "50"]).is_err());
        assert!(parse(&["topo", "--cubes", "8"]).is_ok());
        assert!(parse(&["topo", "--dram", "50"]).is_ok());
    }
}
