//! One benchmark pass, run in a process of its own.
//!
//! A fresh process per pass gives every pass what a fresh
//! `cargo run --bin figNN` gets: an empty hot tier, a new engine, and a
//! peak resident set of its own. The pass reports back to the driving
//! process as plain text on stdout (see [`Report`]).
//!
//! An *untraced* pass submits each figure's campaigns to
//! `Campaign::run`, exactly as the figure binaries do. A *traced* pass
//! calls the stages `Campaign::run` hides — fingerprint and cache key,
//! `DiskCache::load_keyed`, `try_simulate_port` per port on the same
//! number of workers, `merge_port_observations`, `DiskCache::store` — in
//! the same order on the same points, and records a span around each
//! call. After the traced pass, isolated drives time single kernel layers
//! on what the pass simulated.

use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Instant;

use mn_campaign::codec::{decode_result, encode_result};
use mn_campaign::{Campaign, CampaignPoint, DiskCache, Engine};
use mn_core::{merge_port_observations, port_count, try_simulate_port, RunResult, TraceConfig};

use crate::calib;
use crate::drives::{self, PortJob};
use crate::figures::{Figure, Scenario};
use crate::trace::{self, Recorder};

/// How a pass runs its campaigns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Through `Campaign::run`, as the figure binaries do.
    Untraced,
    /// Stage by stage, with spans and the isolated layer drives.
    Traced,
    /// Untraced, with every point's telemetry switched off.
    TelemetryOff,
}

impl Mode {
    /// The mode's name on a pass's command line.
    pub fn name(self) -> &'static str {
        match self {
            Mode::Untraced => "untraced",
            Mode::Traced => "traced",
            Mode::TelemetryOff => "telemetry-off",
        }
    }

    fn parse(name: &str) -> Option<Mode> {
        [Mode::Untraced, Mode::Traced, Mode::TelemetryOff]
            .into_iter()
            .find(|m| m.name() == name)
    }
}

/// Everything one pass needs to know.
#[derive(Debug, Clone)]
pub struct PassSpec {
    /// The benchmark workload.
    pub scenario: Scenario,
    /// The seed every point's configuration carries.
    pub seed: u64,
    /// Scales every point's request count to `requests` per 6000 (quick
    /// checks only; the figures use the built-in count).
    pub requests: Option<u64>,
    /// How the campaigns run.
    pub mode: Mode,
    /// Campaign workers.
    pub workers: usize,
    /// The pass's private cache directory; created by the pass.
    pub dir: PathBuf,
    /// A cache whose entries the pass copies into `dir` first.
    pub source: Option<PathBuf>,
    /// Where a traced pass writes its spans.
    pub spans: Option<PathBuf>,
}

impl PassSpec {
    /// The spec as command-line arguments for [`PassSpec::from_args`].
    pub fn to_args(&self) -> Vec<String> {
        let mut args = vec![
            "--workload".to_string(),
            self.scenario.name().to_string(),
            "--seed".to_string(),
            self.seed.to_string(),
            "--mode".to_string(),
            self.mode.name().to_string(),
            "--workers".to_string(),
            self.workers.to_string(),
            "--dir".to_string(),
            self.dir.display().to_string(),
        ];
        let optional = [
            ("--requests", self.requests.map(|r| r.to_string())),
            (
                "--source",
                self.source.as_ref().map(|p| p.display().to_string()),
            ),
            (
                "--spans",
                self.spans.as_ref().map(|p| p.display().to_string()),
            ),
        ];
        for (flag, value) in optional {
            if let Some(value) = value {
                args.push(flag.to_string());
                args.push(value);
            }
        }
        args
    }

    /// Parses the arguments [`PassSpec::to_args`] produces.
    pub fn from_args(args: &[String]) -> Result<PassSpec, String> {
        let mut flags: HashMap<&str, &str> = HashMap::new();
        for pair in args.chunks(2) {
            match pair {
                [flag, value] => {
                    flags.insert(flag.as_str(), value.as_str());
                }
                _ => return Err(format!("flag {} has no value", pair[0])),
            }
        }
        let get = |flag: &str| flags.get(flag).copied().ok_or(format!("missing {flag}"));
        let number = |flag: &str| {
            get(flag)?
                .parse::<u64>()
                .map_err(|e| format!("bad {flag}: {e}"))
        };
        Ok(PassSpec {
            scenario: Scenario::parse(get("--workload")?).ok_or("unknown workload")?,
            seed: number("--seed")?,
            requests: flags
                .contains_key("--requests")
                .then(|| number("--requests"))
                .transpose()?,
            mode: Mode::parse(get("--mode")?).ok_or("unknown mode")?,
            workers: usize::try_from(number("--workers")?).map_err(|e| e.to_string())?,
            dir: PathBuf::from(get("--dir")?),
            source: flags.get("--source").map(PathBuf::from),
            spans: flags.get("--spans").map(PathBuf::from),
        })
    }
}

/// What a pass reports: named scalars, one check line per figure, and
/// the per-point and per-port host-time samples.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Report {
    /// Named scalar results (times, counts, ratios).
    pub scalars: BTreeMap<String, f64>,
    /// Per figure: name, FNV-1a hash of its rendered tables (0 when it
    /// could not be rendered), and its grid points.
    pub figures: Vec<(String, u64, u64)>,
    /// Host time of every resolved point, µs.
    pub point_us: Vec<f64>,
    /// Host time of every simulated port (traced passes), ms.
    pub port_ms: Vec<f64>,
}

impl Report {
    /// A scalar, 0 when absent.
    pub fn get(&self, key: &str) -> f64 {
        self.scalars.get(key).copied().unwrap_or(0.0)
    }

    fn set(&mut self, key: &str, value: f64) {
        self.scalars.insert(key.to_string(), value);
    }

    fn add(&mut self, key: &str, value: f64) {
        *self.scalars.entry(key.to_string()).or_insert(0.0) += value;
    }

    /// Sets `points` to the figures' total.
    fn tally_figures(&mut self) {
        let points: u64 = self.figures.iter().map(|f| f.2).sum();
        self.set("points", points as f64);
    }

    /// The line format the pass prints.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for (key, value) in &self.scalars {
            let _ = writeln!(out, "s {key} {value}");
        }
        for (name, hash, points) in &self.figures {
            let _ = writeln!(out, "f {name} {hash:016x} {points}");
        }
        for (tag, samples) in [("h", &self.point_us), ("p", &self.port_ms)] {
            out.push_str(tag);
            for v in samples {
                let _ = write!(out, " {v}");
            }
            out.push('\n');
        }
        out
    }

    /// Parses [`Report::to_text`] output.
    pub fn parse(text: &str) -> Result<Report, String> {
        let mut report = Report::default();
        for line in text.lines() {
            let mut words = line.split_whitespace();
            let bad = || format!("malformed report line: {line}");
            let float = |w: Option<&str>| w.and_then(|w| w.parse::<f64>().ok()).ok_or_else(bad);
            match words.next() {
                Some("s") => {
                    let key = words.next().ok_or_else(bad)?;
                    report.set(key, float(words.next())?);
                }
                Some("f") => {
                    let name = words.next().ok_or_else(bad)?.to_string();
                    let hash = words
                        .next()
                        .and_then(|h| u64::from_str_radix(h, 16).ok())
                        .ok_or_else(bad)?;
                    let points = words.next().and_then(|p| p.parse().ok()).ok_or_else(bad)?;
                    report.figures.push((name, hash, points));
                }
                Some(tag @ ("h" | "p")) => {
                    let samples = words
                        .map(|w| w.parse::<f64>().map_err(|_| bad()))
                        .collect::<Result<Vec<f64>, String>>()?;
                    if tag == "h" {
                        report.point_us = samples;
                    } else {
                        report.port_ms = samples;
                    }
                }
                None => {}
                Some(_) => return Err(bad()),
            }
        }
        if !report.scalars.contains_key("wall_s") {
            return Err("report has no wall_s".to_string());
        }
        Ok(report)
    }
}

/// FNV-1a 64 over `bytes`: the table hash figures are compared by.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Re-seeds and re-sizes every point of `figures`, and switches telemetry
/// off when asked.
pub fn shape(figures: &mut [Figure], seed: u64, requests: Option<u64>, telemetry_off: bool) {
    let base = mn_bench::requests_per_port();
    for point in figures.iter_mut().flat_map(Figure::points_mut) {
        point.config.seed = seed;
        if let Some(requests) = requests {
            point.config.requests_per_port =
                (point.config.requests_per_port * requests / base).max(1);
        }
        if telemetry_off {
            point.config.noc.trace = TraceConfig::Off;
        }
    }
}

/// Creates `dir` and copies the `.mnres` entries of `source` into it.
fn prepare_dir(dir: &Path, source: Option<&Path>) -> Result<(), String> {
    fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let Some(source) = source else {
        return Ok(());
    };
    let entries = fs::read_dir(source).map_err(|e| format!("read {}: {e}", source.display()))?;
    for entry in entries {
        let path = entry.map_err(|e| e.to_string())?.path();
        if path.extension().is_some_and(|ext| ext == "mnres") {
            let name = path.file_name().expect("an entry has a name");
            fs::copy(&path, dir.join(name)).map_err(|e| format!("copy {}: {e}", path.display()))?;
        }
    }
    Ok(())
}

/// Peak resident set of this process, MB (0 where `/proc` is absent).
fn peak_rss_mb() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Wall-clock time as seconds since the Unix epoch: the one clock the
/// driving process and a pass process share.
pub fn unix_now_s() -> f64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0.0, |d| d.as_secs_f64())
}

/// Runs one pass and returns its report. The report's `ready_s` is when
/// set-up ended (see [`unix_now_s`]), so the driving process can time
/// set-up from the moment it launched the pass.
pub fn run_pass(spec: &PassSpec) -> Result<Report, String> {
    let mut figures = spec.scenario.figures();
    shape(
        &mut figures,
        spec.seed,
        spec.requests,
        spec.mode == Mode::TelemetryOff,
    );
    let cache_dir = spec.scenario.cached().then_some(spec.dir.as_path());
    if let Some(dir) = cache_dir {
        prepare_dir(dir, spec.source.as_deref())?;
    }
    let engine = Arc::new(Engine::new(spec.workers));
    let ready_s = unix_now_s();

    // The benchmark's own bookkeeping, outside both timed regions.
    let keys: Vec<Vec<Vec<String>>> = figures
        .iter()
        .map(|f| {
            f.campaigns
                .iter()
                .map(|c| c.iter().map(CampaignPoint::cache_key).collect())
                .collect()
        })
        .collect();

    let before = calib::reference_ns(spec.workers);
    let mut report = match spec.mode {
        Mode::Traced => traced_pass(spec, figures, cache_dir)?,
        Mode::Untraced | Mode::TelemetryOff => {
            untraced_pass(spec, figures, &keys, cache_dir, &engine)
        }
    };
    let after = calib::reference_ns(spec.workers);
    report.set("speed", calib::speed(&[before, after]));
    report.set("ready_s", ready_s);
    Ok(report)
}

/// Which cache behaviour a pass must show.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Expect {
    /// Nothing cached before the pass: no point may come from disk
    /// unless this pass stored it.
    Cold,
    /// A full cache: no point may be simulated.
    Warm,
    /// No cache attached.
    Uncached,
}

fn expectation(spec: &PassSpec) -> Expect {
    match (spec.scenario.cached(), spec.source.is_some()) {
        (false, _) => Expect::Uncached,
        (true, false) => Expect::Cold,
        (true, true) => Expect::Warm,
    }
}

fn untraced_pass(
    spec: &PassSpec,
    figures: Vec<Figure>,
    keys: &[Vec<Vec<String>>],
    cache_dir: Option<&Path>,
    engine: &Arc<Engine>,
) -> Report {
    let shapes: Vec<(&'static str, u64)> = figures
        .iter()
        .map(|f| (f.name, f.points() as u64))
        .collect();
    let start = Instant::now();
    let mut runs = Vec::new();
    for figure in figures {
        let mut outcomes = Vec::new();
        for points in figure.campaigns {
            let mut campaign = Campaign::new(spec.workers)
                .quiet()
                .on_engine(Arc::clone(engine));
            if let Some(dir) = cache_dir {
                campaign = campaign.cache_dir(dir);
            }
            outcomes.push(campaign.run(points));
        }
        let results: Option<Vec<Vec<RunResult>>> = outcomes
            .iter()
            .map(|o| o.outcomes.iter().map(|p| p.result.clone().ok()).collect())
            .collect();
        let text = results.map(|r| (figure.render)(&r));
        runs.push((outcomes, text));
    }
    let wall_s = start.elapsed().as_secs_f64();
    let rss_mb = peak_rss_mb();

    let expect = expectation(spec);
    let mut report = Report::default();
    let mut fresh_keys: HashSet<&str> = HashSet::new();
    let mut busy = Vec::new();
    for (((outcomes, text), (name, points)), fig_keys) in runs.iter().zip(&shapes).zip(keys) {
        let hash = text.as_deref().map_or(0, |t| fnv1a(t.as_bytes()));
        report.figures.push((name.to_string(), hash, *points));
        for (outcome, campaign_keys) in outcomes.iter().zip(fig_keys) {
            let s = &outcome.summary;
            report.add("fresh", s.fresh as f64);
            report.add("cached", s.cache_hits as f64);
            report.add("coalesced", s.coalesced as f64);
            report.add("unique", s.unique as f64);
            report.add("fresh_requests", s.fresh_requests as f64);
            if expect == Expect::Warm {
                report.add("violations", s.fresh as f64);
            }
            let mut seen = HashSet::new();
            for (point, key) in outcome.outcomes.iter().zip(campaign_keys) {
                report.point_us.push(point.host.as_secs_f64() * 1e6);
                if let Ok(r) = &point.result {
                    report.add("served_requests", (r.reads + r.writes) as f64);
                }
                if expect == Expect::Cold && point.cached && !fresh_keys.contains(key.as_str()) {
                    report.add("violations", 1.0);
                }
                if !point.cached && !point.coalesced && seen.insert(key.as_str()) {
                    busy.push(point.host.as_secs_f64());
                }
            }
            fresh_keys.extend(seen);
        }
    }
    report.tally_figures();
    report.set("jobs", engine.jobs_executed() as f64);
    report.set("wall_s", wall_s);
    report.set("rss_mb", rss_mb);
    report.set(
        "busy_frac",
        crate::stats::busy_frac(&busy, wall_s, spec.workers),
    );
    report
}

/// What the traced pass accumulates across its campaigns.
#[derive(Default)]
struct Traced {
    /// Keys resident in the cache's hot tier (loaded or stored earlier in
    /// this process).
    hot: HashSet<String>,
    hot_hits: u64,
    /// Keys served from disk, for the isolated decode drive.
    disk_keys: Vec<String>,
    /// Results this pass simulated, for the isolated encode drive.
    fresh_results: Vec<RunResult>,
    fresh_ports: Vec<PortJob>,
    port_ms: Vec<f64>,
    port_ns: u64,
    events: u64,
    spills: u64,
    rewindows: u64,
    arena: u64,
    /// The deepest event queue and the port that reached it.
    queue_peak: (u64, Option<usize>),
    failed_ports: u64,
}

fn traced_pass(
    spec: &PassSpec,
    figures: Vec<Figure>,
    cache_dir: Option<&Path>,
) -> Result<Report, String> {
    let rec = Recorder::new();
    let mut st = Traced::default();
    let mut report = Report::default();
    let root = rec.open("pass", None);
    for figure in figures {
        let mut results = Vec::new();
        for points in &figure.campaigns {
            let cache = cache_dir.map(DiskCache::new);
            results.push(traced_campaign(
                points,
                cache.as_ref(),
                spec.workers,
                &rec,
                root,
                &mut st,
            ));
        }
        let results: Option<Vec<Vec<RunResult>>> = results
            .into_iter()
            .map(|c| c.into_iter().collect())
            .collect();
        let text = results.map(|r| rec.span("bench.render", root, || (figure.render)(&r)));
        let points = figure.points() as u64;
        let hash = text.as_deref().map_or(0, |t| fnv1a(t.as_bytes()));
        report.figures.push((figure.name.to_string(), hash, points));
    }
    rec.close(root);
    let spans = rec.spans();

    report.tally_figures();
    report.set("wall_s", spans[root].duration() as f64 / 1e9);
    for (name, ns) in trace::self_times(&spans, root) {
        let metric = if name == "pass" {
            "trace.residual"
        } else {
            name
        };
        report.set(&format!("self.{metric}_us"), ns as f64 / 1e3);
    }
    // The hot-tier model behind the probe classification must agree with
    // the cache's own count of hot hits.
    let hot_ok = cache_dir.is_none_or(|dir| DiskCache::new(dir).stats().hot_hits == st.hot_hits);
    report.set("hot_ok", f64::from(u8::from(hot_ok)));
    report.set("fresh", st.fresh_results.len() as f64);
    report.set("failed_ports", st.failed_ports as f64);
    for (key, value) in [
        ("events", st.events),
        ("queue_peak", st.queue_peak.0),
        ("spills", st.spills),
        ("rewindows", st.rewindows),
        ("arena", st.arena),
    ] {
        report.set(key, value as f64);
    }
    let mean = |v: Vec<f64>| v.iter().sum::<f64>() / v.len().max(1) as f64;
    report.set(
        "avg_hops",
        mean(st.fresh_results.iter().map(|r| r.avg_hops).collect()),
    );
    report.set(
        "row_hit_rate",
        mean(st.fresh_results.iter().map(|r| r.row_hit_rate).collect()),
    );
    report.set("ns_per_event", st.port_ns as f64 / st.events.max(1) as f64);
    report.port_ms = std::mem::take(&mut st.port_ms);
    isolated_drives(spec, cache_dir, &st, &mut report);

    if let Some(path) = &spec.spans {
        fs::write(path, trace::to_trace_json(&spans))
            .map_err(|e| format!("write {}: {e}", path.display()))?;
    }
    Ok(report)
}

/// One campaign, stage by stage, in `Campaign::run`'s order. Returns one
/// result per submitted point (`None` where the point failed).
fn traced_campaign(
    points: &[CampaignPoint],
    cache: Option<&DiskCache>,
    workers: usize,
    rec: &Recorder,
    root: usize,
    st: &mut Traced,
) -> Vec<Option<RunResult>> {
    let (unique, canonical, prints, keys) = rec.span("campaign.key", root, || {
        let mut first: HashMap<String, usize> = HashMap::new();
        let mut unique: Vec<&CampaignPoint> = Vec::new();
        let mut canonical = Vec::with_capacity(points.len());
        for point in points {
            let next = unique.len();
            let slot = *first.entry(point.fingerprint()).or_insert(next);
            if slot == next {
                unique.push(point);
            }
            canonical.push(slot);
        }
        let prints: Vec<String> = unique.iter().map(|p| p.fingerprint()).collect();
        let keys: Vec<String> = unique.iter().map(|p| p.cache_key()).collect();
        (unique, canonical, prints, keys)
    });

    let mut slots: Vec<Option<RunResult>> = vec![None; unique.len()];
    let mut misses = Vec::new();
    for u in 0..unique.len() {
        let Some(cache) = cache else {
            misses.push(u);
            continue;
        };
        let start = rec.now();
        let loaded = cache.load_keyed(&prints[u], &keys[u]);
        let end = rec.now();
        let stage = match (&loaded, st.hot.contains(&keys[u])) {
            (Some(_), true) => "campaign.probe_hot",
            (Some(_), false) => "campaign.probe_disk",
            (None, _) => "campaign.probe_miss",
        };
        rec.record(stage, 0, start, end, Some(root));
        match loaded {
            Some(result) => {
                if st.hot.insert(keys[u].clone()) {
                    st.disk_keys.push(keys[u].clone());
                } else {
                    st.hot_hits += 1;
                }
                slots[u] = Some(result);
            }
            None => misses.push(u),
        }
    }

    if !misses.is_empty() {
        let wait = rec.open("core.sim_wait", Some(root));
        let jobs: Mutex<VecDeque<(usize, u32)>> = Mutex::new(
            misses
                .iter()
                .flat_map(|&u| (0..port_count(&unique[u].config)).map(move |port| (u, port)))
                .collect(),
        );
        let mut pending: HashMap<usize, Vec<Option<mn_core::PortObservation>>> = misses
            .iter()
            .map(|&u| {
                (
                    u,
                    (0..port_count(&unique[u].config)).map(|_| None).collect(),
                )
            })
            .collect();
        let mut broken: HashSet<usize> = HashSet::new();
        let total = jobs.lock().expect("unshared").len();
        let (tx, rx) = mpsc::channel();
        std::thread::scope(|scope| {
            for worker in 0..workers.min(total) {
                let (tx, jobs, unique) = (tx.clone(), &jobs, &unique);
                scope.spawn(move || loop {
                    let Some((u, port)) = jobs.lock().expect("no job holder panics").pop_front()
                    else {
                        break;
                    };
                    let point = unique[u];
                    let start = rec.now();
                    let observed = try_simulate_port(&point.config, point.workload, port);
                    let end = rec.now();
                    rec.record("core.port", worker as u32 + 1, start, end, Some(wait));
                    if tx.send((u, port, observed, end - start)).is_err() {
                        break;
                    }
                });
            }
            drop(tx);
            for (u, port, observed, ns) in rx {
                st.port_ms.push(ns as f64 / 1e6);
                st.port_ns += ns;
                let point = unique[u];
                match observed {
                    Ok(obs) => {
                        let k = obs.kernel_counters();
                        st.events += k.events_processed;
                        st.spills += k.bucket_spills;
                        st.rewindows += k.rewindows;
                        st.arena = st.arena.max(k.arena_high_water);
                        if st.queue_peak.1.is_none() || k.queue_peak > st.queue_peak.0 {
                            st.queue_peak = (k.queue_peak, Some(st.fresh_ports.len()));
                        }
                        st.fresh_ports.push(PortJob {
                            config: point.config.clone(),
                            workload: point.workload,
                            port,
                        });
                        pending.get_mut(&u).expect("a miss is pending")[port as usize] = Some(obs);
                    }
                    Err(_) => {
                        st.failed_ports += 1;
                        broken.insert(u);
                    }
                }
                let landed = pending[&u].iter().filter(|o| o.is_some()).count();
                if broken.contains(&u) || landed < pending[&u].len() {
                    continue;
                }
                let observations = pending.remove(&u).expect("pending").into_iter().flatten();
                let result = rec.span("core.merge", wait, || {
                    merge_port_observations(&point.config, point.workload, observations)
                });
                if let Some(cache) = cache {
                    if rec
                        .span("campaign.store", wait, || cache.store(point, &result))
                        .is_ok()
                    {
                        st.hot.insert(keys[u].clone());
                    }
                }
                st.fresh_results.push(result.clone());
                slots[u] = Some(result);
            }
        });
        rec.close(wait);
    }
    if let Some(cache) = cache {
        rec.span("campaign.persist", root, || cache.persist_counters());
    }
    rec.span("campaign.collect", root, || {
        canonical.iter().map(|&slot| slots[slot].clone()).collect()
    })
}

/// Times single layers, outside the traced pass, on what it simulated
/// (and the codec on what it read and wrote). Every drive reports 0 when
/// the pass simulated nothing.
fn isolated_drives(spec: &PassSpec, cache_dir: Option<&Path>, st: &Traced, report: &mut Report) {
    let mut decode_ns = 0u128;
    if let Some(dir) = cache_dir {
        for key in &st.disk_keys {
            let Ok(text) = fs::read_to_string(dir.join(format!("{key}.mnres"))) else {
                continue;
            };
            let Some(body) = text.splitn(3, '\n').nth(2) else {
                continue;
            };
            let start = Instant::now();
            std::hint::black_box(decode_result(body));
            decode_ns += start.elapsed().as_nanos();
        }
    }
    let mut encode_ns = 0u128;
    for result in &st.fresh_results {
        let start = Instant::now();
        std::hint::black_box(encode_result(result));
        encode_ns += start.elapsed().as_nanos();
    }
    report.set("iso.decode_us", decode_ns as f64 / 1e3);
    report.set("iso.encode_us", encode_ns as f64 / 1e3);

    let ports = &st.fresh_ports;
    let (mut hold, mut read, mut write, mut refs, mut topo, mut noc) =
        (0.0, 0.0, 0.0, 0.0, 0.0, 0.0);
    if let Some(deepest) = st.queue_peak.1.and_then(|i| ports.get(i)) {
        let bucket = drives::bucket_width_ps(&deepest.config);
        hold = drives::ladder_hold_ns(st.queue_peak.0 as usize, bucket, 1 << 21, spec.seed);
        read = drives::controller_ns(&deepest.config, 1 << 17, 0.0, spec.seed);
        write = drives::controller_ns(&deepest.config, 1 << 17, 0.7, spec.seed);
        refs = drives::trace_ns_per_ref(ports);
        (topo, noc) = drives::build_us(ports);
    }
    for (key, value) in [
        ("iso.hold_ns", hold),
        ("iso.mem_read_ns", read),
        ("iso.mem_write_ns", write),
        ("iso.ref_ns", refs),
        ("iso.topo_build_us", topo),
        ("iso.noc_build_us", noc),
    ] {
        report.set(key, value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reports_round_trip_through_text() {
        let mut report = Report::default();
        report.set("wall_s", 1.25);
        report.set("points", 416.0);
        report.figures.push(("fig10".to_string(), 0xdead_beef, 208));
        report.point_us = vec![1.5, 2.0e-3, 17.0];
        let parsed = Report::parse(&report.to_text()).unwrap();
        assert_eq!(parsed, report);
        assert!(Report::parse("s points 3\n").is_err());
        assert!(Report::parse("x\n").is_err());
    }

    #[test]
    fn pass_specs_round_trip_through_arguments() {
        let spec = PassSpec {
            scenario: Scenario::FigsWarm,
            seed: 7,
            requests: Some(300),
            mode: Mode::Traced,
            workers: 2,
            dir: PathBuf::from("a/b"),
            source: Some(PathBuf::from("c")),
            spans: None,
        };
        let back = PassSpec::from_args(&spec.to_args()).unwrap();
        assert_eq!(back.to_args(), spec.to_args());
        assert!(PassSpec::from_args(&["--seed".to_string()]).is_err());
    }
}
