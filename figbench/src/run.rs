//! The driving process: runs a fixed number of passes, checks every
//! pass's tables and work counts, and turns the reports into metrics.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

use crate::figures::{golden_seed, Scenario};
use crate::pass::{fnv1a, unix_now_s, Mode, PassSpec, Report};
use crate::stats::{median, overhead_pct, percentile, pointwise_median};

/// What one benchmark run was asked to do.
#[derive(Debug, Clone)]
pub struct RunArgs {
    /// The workload.
    pub scenario: Scenario,
    /// The seed every point carries.
    pub seed: u64,
    /// The run's nominal length; sets the pass count (see [`pass_count`]).
    pub seconds: u64,
    /// Whether this is the traced run (per-layer metrics).
    pub trace: bool,
    /// Request scaling for quick checks (see [`PassSpec::requests`]).
    pub requests: Option<u64>,
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Its name in `BENCHMARK.json`.
    pub name: &'static str,
    /// Its value.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

/// A finished run: the correctness verdict, the metrics, and notes for
/// the human-readable summary.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Points attempted over all passes.
    pub attempted: u64,
    /// Points that failed: errors, figures whose tables differ from the
    /// reference, and passes whose work counts or cache behaviour differ.
    pub failed: u64,
    /// The metrics, in `BENCHMARK.json` order.
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

impl Outcome {
    /// The result line: one JSON object.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                // `+ 0.0` turns an empty sum's -0 into 0.
                let value = if m.value.is_finite() {
                    m.value + 0.0
                } else {
                    0.0
                };
                format!(
                    "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Which reference a pass's tables are compared with: traced and
/// untraced passes render identical tables; telemetry-off passes differ.
fn table_family(mode: Mode) -> &'static str {
    match mode {
        Mode::Untraced | Mode::Traced => "tables",
        Mode::TelemetryOff => "tables-off",
    }
}

/// Work counts that must repeat exactly from pass to pass.
fn repeated_counts(mode: Mode) -> &'static [&'static str] {
    match mode {
        Mode::Untraced | Mode::TelemetryOff => {
            &["points", "fresh", "cached", "coalesced", "unique", "jobs"]
        }
        Mode::Traced => &[
            "points",
            "fresh",
            "events",
            "queue_peak",
            "spills",
            "rewindows",
            "arena",
        ],
    }
}

/// The correctness ledger: reference tables and counts, and the tally of
/// attempted and failed points.
#[derive(Debug, Default)]
pub struct Ledger {
    tables: BTreeMap<(&'static str, String), u64>,
    counts: BTreeMap<&'static str, Vec<f64>>,
    /// Points attempted.
    pub attempted: u64,
    /// Points failed.
    pub failed: u64,
    /// Why points failed.
    pub notes: Vec<String>,
}

impl Ledger {
    /// Pins the reference hash of one figure's tables.
    pub fn expect_table(&mut self, family: &'static str, figure: &str, hash: u64) {
        self.tables.insert((family, figure.to_string()), hash);
    }

    /// Checks one pass. A figure whose tables differ from the reference
    /// fails all its points; a pass whose work counts differ from the
    /// first pass of its kind, or whose cache behaviour is wrong, fails
    /// all of the pass's points. The first pass to render a figure with
    /// no reference pins it. Returns the points failed.
    pub fn check(&mut self, report: &Report, family: &'static str, counts: Option<Mode>) -> u64 {
        let points = report.get("points") as u64;
        let mut failed = 0;
        for (name, hash, figure_points) in &report.figures {
            // Hash 0: the figure could not be rendered (a point failed).
            let key = (family, name.clone());
            if *hash == 0 || *self.tables.entry(key).or_insert(*hash) != *hash {
                failed += figure_points;
                self.notes
                    .push(format!("{name}: tables differ from the reference"));
            }
        }
        if report.get("violations") > 0.0 {
            failed = points;
            self.notes
                .push("cache served or simulated points it must not have".into());
        }
        if report.scalars.get("hot_ok") == Some(&0.0) || report.get("failed_ports") > 0.0 {
            failed = points;
            self.notes
                .push("traced pass disagreed with the cache or failed a port".into());
        }
        if let Some(mode) = counts {
            let now: Vec<f64> = repeated_counts(mode)
                .iter()
                .map(|k| report.get(k))
                .collect();
            let first = self
                .counts
                .entry(mode.name())
                .or_insert_with(|| now.clone());
            if *first != now {
                failed = points;
                self.notes.push(format!(
                    "{} work counts changed between passes",
                    mode.name()
                ));
            }
        }
        let failed = failed.min(points);
        self.attempted += points;
        self.failed += failed;
        failed
    }

    /// Records a pass that produced no report.
    pub fn lost(&mut self, points: u64, why: String) {
        self.attempted += points;
        self.failed += points;
        self.notes.push(why);
    }
}

/// Removes its directory when dropped.
struct TempDir(PathBuf);

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

/// Runs one pass in a child process of this binary. The report's
/// `setup_s` runs from the launch to the end of the pass's set-up:
/// process start, grid construction, the private cache directory, and
/// the engine.
fn spawn(spec: &PassSpec) -> Result<Report, String> {
    let launched = unix_now_s();
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let out = Command::new(exe)
        .arg("pass")
        .args(spec.to_args())
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn pass: {e}"))?;
    if !out.status.success() {
        return Err(format!("pass exited with {}", out.status));
    }
    let mut report = Report::parse(&String::from_utf8_lossy(&out.stdout))?;
    let setup_s = (report.get("ready_s") - launched).max(0.0);
    report.scalars.insert("setup_s".to_string(), setup_s);
    Ok(report)
}

/// How many untraced passes a run of `seconds` makes: as many as fit at
/// the workload's nominal pass time on the development host, and at
/// least three. The count depends on the workload and `--seconds` only,
/// never on how fast the passes run, so a faster change gets no more
/// samples than its parent.
pub fn pass_count(scenario: Scenario, seconds: u64) -> usize {
    let nominal_s = match scenario {
        Scenario::FigsCold => 10.0,
        Scenario::FigsWarm => 0.5,
        Scenario::ClosedLoop => 1.5,
    };
    ((seconds as f64 / nominal_s).round() as usize).max(3)
}

/// The run's passes, by mode.
#[derive(Debug, Default)]
struct Passes {
    untraced: Vec<Report>,
    traced: Vec<Report>,
    off: Vec<Report>,
}

/// Runs the benchmark from `root` (the repository checkout).
pub fn run(root: &Path, args: &RunArgs) -> Result<Outcome, String> {
    let scenario = args.scenario;
    let golden = args.seed == golden_seed() && args.requests.is_none();
    let figures = scenario.figures();
    let expected_points: u64 = figures.iter().map(|f| f.points() as u64).sum();
    // The goldens must be present at any seed: without them this is not
    // a checkout of the repository.
    let mut ledger = Ledger::default();
    for figure in &figures {
        let path = root.join("results").join(format!("{}.txt", figure.name));
        let text = fs::read(&path).map_err(|e| format!("golden {}: {e}", path.display()))?;
        if golden {
            ledger.expect_table("tables", figure.name, fnv1a(&text));
        }
    }
    let state = root.join("figbench").join("target").join("bench");
    let tmp = TempDir(state.join(format!("run-{}", std::process::id())));
    fs::create_dir_all(&tmp.0).map_err(|e| format!("create {}: {e}", tmp.0.display()))?;
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut next_dir = 0;
    let mut spec = |mode: Mode, source: Option<PathBuf>| {
        next_dir += 1;
        PassSpec {
            scenario,
            seed: args.seed,
            requests: args.requests,
            mode,
            workers,
            dir: tmp.0.join(format!("pass-{next_dir}")),
            source,
            spans: (mode == Mode::Traced)
                .then(|| state.join(format!("spans-{}.json", scenario.name()))),
        }
    };

    // figs-warm replays a full cache: the committed one at the golden
    // inputs, else one a cold pass fills now (counted as set-up).
    let mut fill_s = 0.0;
    let source = match scenario {
        Scenario::FigsWarm if golden => Some(root.join("results").join("cache")),
        Scenario::FigsWarm => {
            let fill = spec(Mode::Untraced, None);
            let report = spawn(&fill).map_err(|e| format!("filling the cache: {e}"))?;
            fill_s = (report.get("setup_s") + report.get("wall_s")) * report.get("speed");
            ledger.check(&report, "tables", None);
            Some(fill.dir)
        }
        _ => None,
    };

    let mut modes = vec![Mode::Untraced];
    if args.trace {
        modes.push(Mode::Traced);
        if scenario == Scenario::ClosedLoop {
            modes.push(Mode::TelemetryOff);
        }
    }
    // A traced round makes two or three passes; two rounds suffice to
    // check that its work counts repeat.
    let rounds = if args.trace {
        2
    } else {
        pass_count(scenario, args.seconds)
    };
    let mut passes = Passes::default();
    for _ in 0..rounds {
        for &mode in &modes {
            let pass = spec(mode, source.clone());
            match spawn(&pass) {
                Ok(report) => {
                    ledger.check(&report, table_family(mode), Some(mode));
                    match mode {
                        Mode::Untraced => passes.untraced.push(report),
                        Mode::Traced => passes.traced.push(report),
                        Mode::TelemetryOff => passes.off.push(report),
                    }
                }
                Err(why) => ledger.lost(expected_points, why),
            }
            let _ = fs::remove_dir_all(&pass.dir);
        }
    }

    let mut outcome = Outcome {
        attempted: ledger.attempted,
        failed: ledger.failed,
        notes: ledger.notes.clone(),
        ..Outcome::default()
    };
    outcome.notes.push(format!(
        "{} seed {}{}: {} untraced, {} traced, {} telemetry-off passes on {workers} workers",
        scenario.name(),
        args.seed,
        if golden { " (golden)" } else { "" },
        passes.untraced.len(),
        passes.traced.len(),
        passes.off.len(),
    ));
    outcome.metrics = if args.trace {
        layer_metrics(scenario, &passes, &mut outcome.notes)
    } else {
        end_to_end_metrics(scenario, &passes.untraced, fill_s, &mut outcome.notes)
    };
    Ok(outcome)
}

fn each(reports: &[Report], f: impl Fn(&Report) -> f64) -> Vec<f64> {
    reports.iter().map(f).collect()
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// A pass's host time under `key`, scaled to the reference speed by the
/// pass's own calibration (see [`crate::calib`]).
fn scaled(report: &Report, key: &str) -> f64 {
    report.get(key) * report.get("speed")
}

/// The end-to-end metrics from the untraced passes: the median over
/// passes, of the rates per pass and of the per-point times per point,
/// with every host time scaled to the reference speed by the run's median
/// calibration. One short calibration is noisier than the host phase it
/// tracks, so the run pools all of its passes' calibrations.
fn end_to_end_metrics(
    scenario: Scenario,
    passes: &[Report],
    fill_s: f64,
    notes: &mut Vec<String>,
) -> Vec<Metric> {
    let speed = median(&each(passes, |r| r.get("speed")));
    let rate = |key: &str| median(&each(passes, |r| r.get(key) / r.get("wall_s"))) / speed;
    // A warm replay simulates nothing; it reports the requests behind
    // the results it served instead.
    let requests = if scenario == Scenario::FigsWarm {
        "served_requests"
    } else {
        "fresh_requests"
    };
    let samples: Vec<Vec<f64>> = passes
        .iter()
        .map(|r| r.point_us.iter().map(|us| us * speed).collect())
        .collect();
    let point_us = pointwise_median(&samples);
    let (p50, p95) = (percentile(&point_us, 0.5), percentile(&point_us, 0.95));
    notes.push(format!(
        "point_us: p50 {:.3} / p95 {:.3} over {} points, each the median of {} passes",
        p50.value,
        p95.value,
        p50.samples,
        passes.len(),
    ));
    let round = |v: f64| (v * 1e3).round() / 1e3;
    notes.push(format!(
        "pass walls (s): {:?}",
        each(passes, |r| round(r.get("wall_s")))
    ));
    notes.push(format!(
        "host speed per pass: {:?}",
        each(passes, |r| round(r.get("speed")))
    ));
    vec![
        metric("points_per_s", rate("points"), "1/s"),
        metric("sim_requests_per_s", rate(requests), "1/s"),
        metric("point_us_p50", p50.value, "us"),
        metric("point_us_p95", p95.value, "us"),
        metric(
            "setup_s",
            fill_s + median(&each(passes, |r| r.get("setup_s"))) * speed,
            "s",
        ),
        metric(
            "peak_rss_mb",
            median(&each(passes, |r| r.get("rss_mb"))),
            "MB",
        ),
    ]
}

/// The per-layer metrics from a traced run. The self times all come from
/// one traced pass, the one with the median wall time, so that they and
/// the residual sum exactly to the reported wall. The isolated drives are
/// medians over the traced passes.
fn layer_metrics(scenario: Scenario, passes: &Passes, notes: &mut Vec<String>) -> Vec<Metric> {
    let (untraced, traced) = (&passes.untraced, &passes.traced);
    let first = |reports: &[Report], key: &str| reports.first().map_or(0.0, |r| r.get(key));
    let mid = |reports: &[Report], key: &str| median(&each(reports, |r| r.get(key)));
    let mut by_wall: Vec<&Report> = traced.iter().collect();
    by_wall.sort_by(|a, b| a.get("wall_s").total_cmp(&b.get("wall_s")));
    let typical = by_wall.get(by_wall.len().saturating_sub(1) / 2).copied();
    let own = |key: &str| typical.map_or(0.0, |r| r.get(key));
    let self_us = |stage: &str| own(&format!("self.{stage}_us"));
    let port_ms: Vec<f64> = traced
        .iter()
        .flat_map(|r| r.port_ms.iter().copied())
        .collect();
    let (port50, port95) = (percentile(&port_ms, 0.5), percentile(&port_ms, 0.95));
    let wall_us = own("wall_s") * 1e6;
    let residual_us = self_us("trace.residual");
    let wall = |reports: &[Report]| median(&each(reports, |r| scaled(r, "wall_s")));
    let overhead = overhead_pct(wall(traced), wall(untraced));
    let counters_overhead = if scenario == Scenario::ClosedLoop {
        // Interleaved pairs: each telemetry-on pass against the
        // telemetry-off pass that ran next to it.
        let pairs: Vec<f64> = untraced
            .iter()
            .zip(&passes.off)
            .map(|(on, off)| overhead_pct(scaled(on, "wall_s"), scaled(off, "wall_s")))
            .collect();
        median(&pairs)
    } else {
        0.0
    };
    for report in traced {
        let attributed: f64 = report
            .scalars
            .iter()
            .filter(|(k, _)| k.starts_with("self."))
            .map(|(_, v)| v)
            .sum();
        notes.push(format!(
            "traced pass: self times + residual = {attributed:.1} us of {:.1} us wall",
            report.get("wall_s") * 1e6
        ));
    }
    notes.push(format!(
        "core.port_ms: p50 {:.3} / p95 {:.3} over {} samples",
        port50.value, port95.value, port50.samples
    ));
    let unique = first(untraced, "unique");
    vec![
        metric("campaign.key_us", self_us("campaign.key"), "us"),
        metric(
            "campaign.probe_disk_us",
            self_us("campaign.probe_disk"),
            "us",
        ),
        metric("campaign.probe_hot_us", self_us("campaign.probe_hot"), "us"),
        metric(
            "campaign.probe_miss_us",
            self_us("campaign.probe_miss"),
            "us",
        ),
        metric("campaign.store_us", self_us("campaign.store"), "us"),
        metric("campaign.persist_us", self_us("campaign.persist"), "us"),
        metric("campaign.collect_us", self_us("campaign.collect"), "us"),
        metric("campaign.decode_us", mid(traced, "iso.decode_us"), "us"),
        metric("campaign.encode_us", mid(traced, "iso.encode_us"), "us"),
        metric(
            "campaign.hit_ratio",
            if unique > 0.0 {
                first(untraced, "cached") / unique
            } else {
                0.0
            },
            "ratio",
        ),
        metric("campaign.points_fresh", first(untraced, "fresh"), "count"),
        metric("campaign.points_cached", first(untraced, "cached"), "count"),
        metric(
            "campaign.points_coalesced",
            first(untraced, "coalesced"),
            "count",
        ),
        metric("bench.render_us", self_us("bench.render"), "us"),
        metric("engine.busy_frac", mid(untraced, "busy_frac"), "ratio"),
        metric("engine.jobs_executed", first(untraced, "jobs"), "count"),
        metric("core.sim_wait_us", self_us("core.sim_wait"), "us"),
        metric("core.merge_us", self_us("core.merge"), "us"),
        metric("core.port_ms_p50", port50.value, "ms"),
        metric("core.port_ms_p95", port95.value, "ms"),
        metric("core.ns_per_event", mid(traced, "ns_per_event"), "ns"),
        metric("core.events", first(traced, "events"), "count"),
        metric("sim.hold_ns_per_op", mid(traced, "iso.hold_ns"), "ns"),
        metric("sim.queue_peak", first(traced, "queue_peak"), "count"),
        metric("sim.bucket_spills", first(traced, "spills"), "count"),
        metric("sim.rewindows", first(traced, "rewindows"), "count"),
        metric("noc.build_us", mid(traced, "iso.noc_build_us"), "us"),
        metric("topo.build_us", mid(traced, "iso.topo_build_us"), "us"),
        metric("noc.arena_high_water", first(traced, "arena"), "count"),
        metric("noc.avg_hops", first(traced, "avg_hops"), "hops"),
        metric(
            "mem.read_ns_per_access",
            mid(traced, "iso.mem_read_ns"),
            "ns",
        ),
        metric(
            "mem.write_ns_per_access",
            mid(traced, "iso.mem_write_ns"),
            "ns",
        ),
        metric("mem.row_hit_rate", first(traced, "row_hit_rate"), "ratio"),
        metric("workloads.ns_per_ref", mid(traced, "iso.ref_ns"), "ns"),
        metric("telemetry.counters_overhead_pct", counters_overhead, "%"),
        metric("trace.overhead_pct", overhead, "%"),
        metric(
            "trace.unattributed_frac",
            if wall_us > 0.0 {
                residual_us / wall_us
            } else {
                0.0
            },
            "ratio",
        ),
        metric("trace.residual_us", residual_us, "us"),
        metric("trace.pass_wall_us", wall_us, "us"),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(figures: &[(&str, &str, u64)]) -> Report {
        let mut report = Report::default();
        let points: u64 = figures.iter().map(|f| f.2).sum();
        report.scalars.insert("points".into(), points as f64);
        report.scalars.insert("wall_s".into(), 1.0);
        for &(name, text, points) in figures {
            report
                .figures
                .push((name.into(), fnv1a(text.as_bytes()), points));
        }
        report
    }

    #[test]
    fn a_changed_golden_byte_fails_that_figures_points() {
        let golden =
            fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../results/fig04.txt"))
                .expect("the committed fig04 golden");
        let mut changed = golden.clone().into_bytes();
        let last = changed.len() - 2;
        changed[last] ^= 1;
        let changed = String::from_utf8(changed).unwrap();

        let mut ledger = Ledger::default();
        ledger.expect_table("tables", "fig04", fnv1a(golden.as_bytes()));
        ledger.expect_table("tables", "fig05", fnv1a(b"fig05"));
        let good = report(&[("fig04", &golden, 24), ("fig05", "fig05", 24)]);
        assert_eq!(ledger.check(&good, "tables", Some(Mode::Untraced)), 0);
        let bad = report(&[("fig04", &changed, 24), ("fig05", "fig05", 24)]);
        assert_eq!(ledger.check(&bad, "tables", Some(Mode::Untraced)), 24);
        assert_eq!((ledger.attempted, ledger.failed), (96, 24));
    }

    #[test]
    fn changed_work_counts_fail_the_whole_pass() {
        let mut ledger = Ledger::default();
        let mut a = report(&[("fig10", "t", 208)]);
        a.scalars.insert("events".into(), 1_000.0);
        assert_eq!(ledger.check(&a, "tables", Some(Mode::Traced)), 0);
        let mut b = a.clone();
        b.scalars.insert("events".into(), 1_001.0);
        assert_eq!(ledger.check(&b, "tables", Some(Mode::Traced)), 208);
    }

    #[test]
    fn cache_violations_fail_the_whole_pass() {
        let mut ledger = Ledger::default();
        let mut warm = report(&[("fig04", "t", 24)]);
        warm.scalars.insert("violations".into(), 1.0);
        assert_eq!(ledger.check(&warm, "tables", None), 24);
    }

    #[test]
    fn the_result_line_is_json_with_every_metric() {
        let outcome = Outcome {
            attempted: 10,
            failed: 0,
            metrics: vec![metric("setup_s", 0.5, "s"), metric("x", f64::NAN, "us")],
            notes: Vec::new(),
        };
        assert_eq!(
            outcome.to_json(),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}, \"x\": {\"value\": 0, \"unit\": \"us\"}}}"
        );
    }
}
