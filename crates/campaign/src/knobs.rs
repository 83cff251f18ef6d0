//! The `MN_*` environment knobs: one table, parsed once.
//!
//! Every knob is one row of [`KNOBS`]: its name, its default as the
//! README shows it, whether it changes simulated results, its README
//! text, and the parser that writes it into a [`Knobs`] field (with its
//! range checks). [`Knobs::parse`] runs the table over any lookup, so
//! tests drive it with a map; [`Knobs::get`] runs it once over the real
//! environment and is the only reader of `MN_*` variables.
//!
//! A malformed or out-of-range value warns on stderr, naming the variable
//! and the rejected value, and the default applies: a typo'd
//! `MN_REQUESTS=60000q` used to quietly run a 6 000-request experiment.
//! An empty value counts as unset.

use std::ffi::{OsStr, OsString};
use std::fmt::Display;
use std::path::PathBuf;
use std::str::FromStr;
use std::sync::OnceLock;
use std::time::Duration;

use mn_core::{SystemConfig, TraceConfig, WindowPolicyKind};

use crate::chaos::ChaosPlan;

/// ECN mark threshold (in buffered packets at a link output) that
/// `MN_HOST_POLICY=ecn` gives a config which leaves marking off; the
/// closed-loop sweep's `ecn` rows use it too.
pub const CLOSED_LOOP_ECN_THRESHOLD: u32 = 6;

/// Every knob's value for one process. A `None` field is unset: its
/// consumer (a [`SystemConfig`] field, for [`Knobs::apply`]) keeps its
/// own default.
#[derive(Debug, Clone, PartialEq)]
pub struct Knobs {
    /// Requests per simulated port (`MN_REQUESTS`).
    pub requests: u64,
    /// Workload RNG seed override (`MN_SEED`).
    pub seed: Option<u64>,
    /// Campaign worker threads (`MN_JOBS`), at least one; `None` means
    /// the machine's available parallelism (see [`Knobs::jobs`]).
    pub jobs: Option<usize>,
    /// Whether campaigns attach the result cache (`MN_CACHE`).
    pub cache: bool,
    /// Result-cache directory (`MN_CACHE_DIR`).
    pub cache_dir: PathBuf,
    /// Per-point retry budget (`MN_RETRIES`).
    pub retries: u32,
    /// Run-journal path (`MN_RESUME`).
    pub resume: Option<PathBuf>,
    /// Chaos-injection probability (`MN_CHAOS_RATE`).
    pub chaos_rate: Option<f64>,
    /// Chaos schedule seed (`MN_CHAOS_SEED`).
    pub chaos_seed: u64,
    /// Transient-CRC probability per link traversal (`MN_FAULT_RATE`).
    pub fault_rate: Option<f64>,
    /// Fault-schedule seed (`MN_FAULT_SEED`).
    pub fault_seed: Option<u64>,
    /// Telemetry mode (`MN_TRACE`).
    pub trace: Option<TraceConfig>,
    /// Directory `mncube trace` writes `trace.json` to (`MN_TRACE_DIR`).
    pub trace_dir: PathBuf,
    /// Closed-loop window policy (`MN_HOST_POLICY`).
    pub host_policy: Option<WindowPolicyKind>,
    /// Initial closed-loop window, at least one (`MN_HOST_WINDOW`).
    pub host_window: Option<u32>,
    /// Whether the metrics registry is on (`MN_METRICS`).
    pub metrics: bool,
    /// Prometheus snapshot path (`MN_METRICS_FILE`).
    pub metrics_file: Option<PathBuf>,
    /// Metrics sampling period, positive (`MN_METRICS_INTERVAL`, in ms).
    pub metrics_interval: Duration,
    /// Where the kernel and campaign benches write JSON (`MN_BENCH_OUT`).
    pub bench_out: Option<PathBuf>,
}

impl Default for Knobs {
    fn default() -> Knobs {
        Knobs {
            requests: 6_000,
            seed: None,
            jobs: None,
            cache: true,
            cache_dir: PathBuf::from("results/cache"),
            retries: 2,
            resume: None,
            chaos_rate: None,
            chaos_seed: 0,
            fault_rate: None,
            fault_seed: None,
            trace: None,
            trace_dir: PathBuf::new(),
            host_policy: None,
            host_window: None,
            metrics: false,
            metrics_file: None,
            metrics_interval: Duration::from_millis(1000),
            bench_out: None,
        }
    }
}

/// One row of the knob table.
#[derive(Debug)]
pub struct Knob {
    /// The environment variable.
    pub name: &'static str,
    /// The default, as the README's knob table shows it.
    pub default: &'static str,
    /// True when the knob changes simulated results (and so the result
    /// fingerprint); false for execution policy and observation.
    pub results: bool,
    /// The README's description of the knob.
    pub doc: &'static str,
    /// Parses a non-empty value into its field, or says why it is
    /// rejected (the field is then left at its default).
    set: fn(&mut Knobs, &OsStr) -> Result<(), String>,
}

/// The knob table, in README order.
pub const KNOBS: &[Knob] = &[
    Knob {
        name: "MN_REQUESTS",
        default: "6000",
        results: true,
        doc: "requests per simulated port (longer = smoother)",
        set: |k, v| parsed(v).map(|n| k.requests = n),
    },
    Knob {
        name: "MN_SEED",
        default: "per-config",
        results: true,
        doc: "RNG seed for the workload streams",
        set: |k, v| parsed(v).map(|n| k.seed = Some(n)),
    },
    Knob {
        name: "MN_JOBS",
        default: "available parallelism",
        results: false,
        doc: "campaign worker threads",
        set: |k, v| positive(parsed(v)?, "need at least one worker").map(|n| k.jobs = Some(n)),
    },
    Knob {
        name: "MN_CACHE_DIR",
        default: "`results/cache`",
        results: false,
        doc: "result-cache location",
        set: |k, v| path(v).map(|p| k.cache_dir = p),
    },
    Knob {
        name: "MN_CACHE",
        default: "on",
        results: false,
        doc: "`off`/`0`/`no`/`false` (any case) disables the cache",
        set: |k, v| switch(v).map(|on| k.cache = on),
    },
    Knob {
        name: "MN_FAULT_RATE",
        default: "0 (off)",
        results: true,
        doc: "per-traversal transient-CRC probability in `[0, 1]`",
        set: |k, v| probability(v).map(|p| k.fault_rate = Some(p)),
    },
    Knob {
        name: "MN_FAULT_SEED",
        default: "0",
        results: true,
        doc: "fault-schedule seed (same seed ⇒ same faults)",
        set: |k, v| parsed(v).map(|n| k.fault_seed = Some(n)),
    },
    Knob {
        name: "MN_TRACE",
        default: "`off`",
        results: false,
        doc: "telemetry: `off` \\| `counters` (rollups) \\| `full` (+ event rings)",
        set: |k, v| parsed(v).map(|mode| k.trace = Some(mode)),
    },
    Knob {
        name: "MN_TRACE_DIR",
        default: "`.`",
        results: false,
        doc: "where `mncube trace` writes `trace.json` when `--out` is absent",
        set: |k, v| path(v).map(|p| k.trace_dir = p),
    },
    Knob {
        name: "MN_HOST_POLICY",
        default: "`open`",
        results: true,
        doc: "closed-loop window policy: `open` \\| `fixed:<n>` \\| `aimd` \\| `ecn`",
        set: |k, v| parsed(v).map(|policy| k.host_policy = Some(policy)),
    },
    Knob {
        name: "MN_HOST_WINDOW",
        default: "8",
        results: true,
        doc: "initial outstanding-request window (the cap is raised to match)",
        set: |k, v| {
            positive(parsed(v)?, "the window must admit a request").map(|n| k.host_window = Some(n))
        },
    },
    Knob {
        name: "MN_RETRIES",
        default: "2",
        results: false,
        doc: "per-point retry budget for retryable failures (stalls, lost workers, \
              caught panics); stalls rerun with a doubled watchdog per attempt",
        set: |k, v| parsed(v).map(|n| k.retries = n),
    },
    Knob {
        name: "MN_RESUME",
        default: "unset",
        results: false,
        doc: "run-journal path (`mncube run --resume FILE` overrides); reruns replay \
              the journal's completed points, even with `MN_CACHE=off`",
        set: |k, v| path(v).map(|p| k.resume = Some(p)),
    },
    Knob {
        name: "MN_CHAOS_RATE",
        default: "0 (off)",
        results: false,
        doc: "*test harness*: per-site fault-injection probability in `[0, 1]` \
              (worker panics, cache damage, torn journals)",
        set: |k, v| probability(v).map(|p| k.chaos_rate = Some(p)),
    },
    Knob {
        name: "MN_CHAOS_SEED",
        default: "0",
        results: false,
        doc: "chaos-schedule seed (same seed ⇒ same injections at any `MN_JOBS`)",
        set: |k, v| parsed(v).map(|n| k.chaos_seed = n),
    },
    Knob {
        name: "MN_METRICS",
        default: "`off`",
        results: false,
        doc: "`on`/`1`/`true`/`yes` (any case) enables the engine-layer metrics \
              registry (counters, gauges, histograms); off costs one relaxed load \
              per hook",
        set: |k, v| switch(v).map(|on| k.metrics = on),
    },
    Knob {
        name: "MN_METRICS_FILE",
        default: "unset",
        results: false,
        doc: "Prometheus text snapshot destination; a sampler thread rewrites it \
              every interval and appends one JSON line per sample to `<file>.jsonl` \
              (`mncube stats` renders it)",
        set: |k, v| path(v).map(|p| k.metrics_file = Some(p)),
    },
    Knob {
        name: "MN_METRICS_INTERVAL",
        default: "1000",
        results: false,
        doc: "sampler period in milliseconds (must be positive)",
        set: |k, v| {
            let ms = positive(parsed(v)?, "need a positive period in milliseconds")?;
            k.metrics_interval = Duration::from_millis(ms);
            Ok(())
        },
    },
    Knob {
        name: "MN_BENCH_OUT",
        default: "`BENCH_<suite>.json`",
        results: false,
        doc: "where `kernel_bench` and `campaign_bench` write their JSON report",
        set: |k, v| path(v).map(|p| k.bench_out = Some(p)),
    },
];

fn text(value: &OsStr) -> Result<&str, String> {
    value.to_str().ok_or_else(|| "not valid UTF-8".to_string())
}

fn path(value: &OsStr) -> Result<PathBuf, String> {
    Ok(PathBuf::from(value))
}

fn parsed<T>(value: &OsStr) -> Result<T, String>
where
    T: FromStr,
    T::Err: Display,
{
    text(value)?.parse().map_err(|e: T::Err| e.to_string())
}

fn positive<T: Default + PartialEq>(value: T, why: &str) -> Result<T, String> {
    if value == T::default() {
        Err(why.to_string())
    } else {
        Ok(value)
    }
}

fn probability(value: &OsStr) -> Result<f64, String> {
    let p: f64 = parsed(value)?;
    if p.is_finite() && (0.0..=1.0).contains(&p) {
        Ok(p)
    } else {
        Err("need a probability in [0, 1]".to_string())
    }
}

/// Parses an on/off switch, case-insensitively: `on`/`1`/`true`/`yes`
/// or `off`/`0`/`false`/`no`.
fn switch(value: &OsStr) -> Result<bool, String> {
    match text(value)?.to_ascii_lowercase().as_str() {
        "1" | "on" | "true" | "yes" => Ok(true),
        "0" | "off" | "false" | "no" => Ok(false),
        _ => Err("use on or off".to_string()),
    }
}

/// Parses a byte size with an optional `K`/`M`/`G` suffix
/// (case-insensitive, powers of 1024): `"4096"`, `"256K"`, `"1g"`.
/// Returns `None` for anything else (empty, negative, overflow,
/// unknown suffix).
pub fn parse_size(text: &str) -> Option<u64> {
    let text = text.trim();
    let (digits, shift) = match text.as_bytes().last()? {
        b'k' | b'K' => (&text[..text.len() - 1], 10),
        b'm' | b'M' => (&text[..text.len() - 1], 20),
        b'g' | b'G' => (&text[..text.len() - 1], 30),
        _ => (text, 0),
    };
    let base: u64 = digits.trim().parse().ok()?;
    base.checked_shl(shift)
        .filter(|v| v >> shift == base || base == 0)
}

impl Knobs {
    /// Builds the knobs from `lookup` (a variable name to its value),
    /// printing one stderr warning per rejected variable.
    pub fn parse(lookup: impl Fn(&str) -> Option<OsString>) -> Knobs {
        let (knobs, warnings) = Knobs::read(lookup);
        for warning in warnings {
            eprintln!("warning: {warning}");
        }
        knobs
    }

    /// [`Knobs::parse`] without the printing: the knobs, plus one
    /// message per rejected variable.
    fn read(lookup: impl Fn(&str) -> Option<OsString>) -> (Knobs, Vec<String>) {
        let mut knobs = Knobs::default();
        let mut warnings = Vec::new();
        for knob in KNOBS {
            let Some(value) = lookup(knob.name).filter(|v| !v.is_empty()) else {
                continue;
            };
            if let Err(why) = (knob.set)(&mut knobs, &value) {
                warnings.push(format!("ignoring {}={value:?}: {why}", knob.name));
            }
        }
        (knobs, warnings)
    }

    /// The process's knobs, parsed from the environment on first use.
    pub fn get() -> &'static Knobs {
        static KNOBS_FROM_ENV: OnceLock<Knobs> = OnceLock::new();
        KNOBS_FROM_ENV.get_or_init(|| Knobs::parse(|name| std::env::var_os(name)))
    }

    /// Applies the config-shaping knobs: fault rate and seed, telemetry
    /// mode, host policy and window. An `ecn` policy on a config whose
    /// links never mark gets [`CLOSED_LOOP_ECN_THRESHOLD`]. Requests and
    /// seed are the caller's: each front end decides between its own
    /// flags and [`Knobs::requests`]/[`Knobs::seed`].
    pub fn apply(&self, config: &mut SystemConfig) {
        if let Some(rate) = self.fault_rate {
            config.noc.fault.transient_rate = rate;
        }
        if let Some(seed) = self.fault_seed {
            config.noc.fault.seed = seed;
        }
        if let Some(mode) = self.trace {
            config.noc.trace = mode;
        }
        if let Some(policy) = self.host_policy {
            config.host.policy = policy;
            if policy == WindowPolicyKind::Ecn && config.noc.ecn_threshold == 0 {
                config.noc.ecn_threshold = CLOSED_LOOP_ECN_THRESHOLD;
            }
        }
        if let Some(window) = self.host_window {
            config.host.initial_window = window;
            config.host.window_cap = config.host.window_cap.max(window);
        }
    }

    /// The worker count: `MN_JOBS`, else the machine's available
    /// parallelism (asked only here: it reads cgroup files).
    pub fn jobs(&self) -> usize {
        self.jobs
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, usize::from))
    }

    /// The chaos plan, engaged only by a positive `MN_CHAOS_RATE`.
    pub(crate) fn chaos(&self) -> Option<ChaosPlan> {
        let rate = self.chaos_rate.filter(|&rate| rate > 0.0)?;
        Some(ChaosPlan::new(self.chaos_seed, rate))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reads `vars` as the whole environment.
    fn read(vars: &[(&str, &str)]) -> (Knobs, Vec<String>) {
        Knobs::read(|name| {
            vars.iter()
                .find(|(var, _)| *var == name)
                .map(|(_, value)| OsString::from(value))
        })
    }

    /// The knobs for one variable, asserting it was accepted.
    fn accepted(name: &str, value: &str) -> Knobs {
        let (knobs, warnings) = read(&[(name, value)]);
        assert!(warnings.is_empty(), "{name}={value:?} warned: {warnings:?}");
        knobs
    }

    fn defaults() -> Knobs {
        Knobs::default()
    }

    #[test]
    fn unset_and_empty_knobs_keep_their_defaults() {
        let (unset, warnings) = read(&[]);
        assert!(warnings.is_empty());
        assert_eq!(unset, defaults());
        // The documented defaults, spelled out.
        assert_eq!(unset.requests, 6_000);
        assert_eq!(unset.seed, None);
        assert_eq!(unset.jobs, None);
        assert!(unset.jobs() >= 1);
        assert!(unset.cache);
        assert_eq!(unset.cache_dir, PathBuf::from("results/cache"));
        assert_eq!(unset.retries, 2);
        assert_eq!(unset.resume, None);
        assert_eq!(unset.chaos_rate, None);
        assert_eq!(unset.chaos_seed, 0);
        assert_eq!(unset.fault_rate, None); // fault injection stays off
        assert_eq!(unset.fault_seed, None);
        assert_eq!(unset.trace, None);
        assert_eq!(unset.trace_dir, PathBuf::new());
        assert_eq!(unset.host_policy, None);
        assert_eq!(unset.host_window, None);
        assert!(!unset.metrics);
        assert_eq!(unset.metrics_file, None);
        assert_eq!(unset.metrics_interval, Duration::from_millis(1000));
        assert_eq!(unset.bench_out, None);

        for knob in KNOBS {
            let (empty, warnings) = read(&[(knob.name, "")]);
            assert!(warnings.is_empty(), "{}: {warnings:?}", knob.name);
            assert_eq!(empty, defaults(), "{} empty", knob.name);
        }
    }

    /// Every row, through values it accepts and values it rejects
    /// (malformed or out of range). A rejected value warns once, naming
    /// the variable, and leaves every field at its default.
    #[test]
    fn every_row_accepts_valid_and_rejects_bad_values() {
        // (variable, value, the field it sets on top of the defaults)
        type Set = fn(&mut Knobs);
        let valid: [(&str, &str, Set); 26] = [
            ("MN_REQUESTS", "1234", |k| k.requests = 1234),
            ("MN_SEED", "42", |k| k.seed = Some(42)),
            ("MN_JOBS", "3", |k| k.jobs = Some(3)),
            ("MN_CACHE", "off", |k| k.cache = false),
            ("MN_CACHE", "0", |k| k.cache = false),
            ("MN_CACHE", "yes", |_| {}),
            ("MN_CACHE_DIR", "/tmp/c", |k| k.cache_dir = "/tmp/c".into()),
            ("MN_RETRIES", "0", |k| k.retries = 0), // 0 disables retries
            ("MN_RETRIES", "5", |k| k.retries = 5),
            ("MN_RESUME", "/tmp/j", |k| k.resume = Some("/tmp/j".into())),
            ("MN_CHAOS_RATE", "0.25", |k| k.chaos_rate = Some(0.25)),
            ("MN_CHAOS_SEED", "99", |k| k.chaos_seed = 99),
            ("MN_FAULT_RATE", "0.05", |k| k.fault_rate = Some(0.05)),
            ("MN_FAULT_SEED", "42", |k| k.fault_seed = Some(42)),
            ("MN_TRACE", "Counters", |k| {
                k.trace = Some(TraceConfig::Counters)
            }),
            ("MN_TRACE", "full", |k| k.trace = Some(TraceConfig::Full)),
            ("MN_TRACE_DIR", "/tmp/t", |k| k.trace_dir = "/tmp/t".into()),
            ("MN_HOST_POLICY", "aimd", |k| {
                k.host_policy = Some(WindowPolicyKind::Aimd)
            }),
            ("MN_HOST_POLICY", "Fixed:12", |k| {
                k.host_policy = Some(WindowPolicyKind::Fixed(12))
            }),
            ("MN_HOST_WINDOW", "24", |k| k.host_window = Some(24)),
            ("MN_METRICS", "on", |k| k.metrics = true),
            ("MN_METRICS", "1", |k| k.metrics = true),
            ("MN_METRICS", "off", |_| {}),
            ("MN_METRICS_FILE", "/tmp/m", |k| {
                k.metrics_file = Some("/tmp/m".into())
            }),
            ("MN_METRICS_INTERVAL", "250", |k| {
                k.metrics_interval = Duration::from_millis(250)
            }),
            ("MN_BENCH_OUT", "/tmp/b", |k| {
                k.bench_out = Some("/tmp/b".into())
            }),
        ];
        for (name, value, set) in valid {
            let mut want = defaults();
            set(&mut want);
            assert_eq!(accepted(name, value), want, "{name}={value:?}");
        }

        let rejected = [
            ("MN_REQUESTS", "60000q"),
            ("MN_REQUESTS", "-1"),
            ("MN_SEED", "seven"),
            ("MN_JOBS", "0"), // need a worker
            ("MN_JOBS", "many"),
            ("MN_CACHE", "disable"),
            ("MN_RETRIES", "many"),
            ("MN_RETRIES", "4294967296"),
            ("MN_CHAOS_RATE", "2.0"),
            ("MN_CHAOS_RATE", "NaN"),
            ("MN_CHAOS_SEED", "x"),
            ("MN_FAULT_RATE", "1.5"),
            ("MN_FAULT_RATE", "NaN"),
            ("MN_FAULT_RATE", "often"),
            ("MN_FAULT_SEED", "-3"),
            ("MN_TRACE", "loud"),
            ("MN_HOST_POLICY", "closed"),
            ("MN_HOST_WINDOW", "0"), // the window must admit a request
            ("MN_HOST_WINDOW", "wide"),
            ("MN_METRICS", "loudly"),
            ("MN_METRICS_INTERVAL", "0"),
            ("MN_METRICS_INTERVAL", "soon"),
        ];
        for (name, value) in rejected {
            let (knobs, warnings) = read(&[(name, value)]);
            assert_eq!(knobs, defaults(), "{name}={value:?} changed a knob");
            assert_eq!(warnings.len(), 1, "{name}={value:?}: {warnings:?}");
            assert!(warnings[0].contains(name), "{}", warnings[0]);
            assert!(warnings[0].contains(value), "{}", warnings[0]);
        }

        // Every row has an accepted case; every row that can reject a
        // value has a rejected case (path knobs accept any path).
        for knob in KNOBS {
            assert!(
                valid.iter().any(|(name, ..)| *name == knob.name),
                "{} has no valid case",
                knob.name
            );
            let takes_any_path = (knob.set)(&mut defaults(), OsStr::new("?")).is_ok()
                && (knob.set)(&mut defaults(), OsStr::new("-1.5")).is_ok();
            assert!(
                takes_any_path || rejected.iter().any(|(name, _)| *name == knob.name),
                "{} has no rejected case",
                knob.name
            );
        }
    }

    #[test]
    fn one_warning_per_rejected_variable() {
        let (knobs, warnings) = read(&[
            ("MN_JOBS", "0"),
            ("MN_RETRIES", "many"),
            ("MN_REQUESTS", "300"),
        ]);
        assert_eq!(knobs.requests, 300);
        assert_eq!(knobs.retries, 2);
        assert_eq!(warnings.len(), 2, "{warnings:?}");
        assert!(warnings[0].contains("MN_JOBS"));
        assert!(warnings[1].contains("MN_RETRIES"));
    }

    #[test]
    fn boolean_knobs_are_case_insensitive_and_loud() {
        assert!(!accepted("MN_CACHE", "OFF").cache);
        assert!(!accepted("MN_CACHE", "False").cache);
        assert!(accepted("MN_METRICS", "ON").metrics);
        assert!(accepted("MN_METRICS", "Yes").metrics);
        let (knobs, warnings) = read(&[("MN_CACHE", "disable")]);
        assert!(knobs.cache, "an unknown value keeps the default");
        assert_eq!(warnings.len(), 1);
        assert!(
            warnings[0].contains("MN_CACHE=\"disable\""),
            "{}",
            warnings[0]
        );
    }

    #[test]
    fn chaos_engages_only_on_a_positive_rate() {
        assert_eq!(defaults().chaos(), None);
        assert_eq!(accepted("MN_CHAOS_RATE", "0").chaos(), None);
        let (knobs, _) = read(&[("MN_CHAOS_RATE", "0.5"), ("MN_CHAOS_SEED", "7")]);
        assert_eq!(knobs.chaos(), Some(ChaosPlan::new(7, 0.5)));
    }

    #[test]
    fn apply_shapes_the_config_only_when_set() {
        let base = SystemConfig::paper_baseline(mn_topo::TopologyKind::Chain, 1.0).unwrap();
        let mut untouched = base.clone();
        defaults().apply(&mut untouched);
        assert_eq!(format!("{untouched:?}"), format!("{base:?}"));

        let (knobs, _) = read(&[
            ("MN_FAULT_RATE", "0.01"),
            ("MN_FAULT_SEED", "9"),
            ("MN_TRACE", "counters"),
            ("MN_HOST_POLICY", "ecn"),
            ("MN_HOST_WINDOW", "64"),
        ]);
        let mut config = base.clone();
        knobs.apply(&mut config);
        assert_eq!(config.noc.fault.transient_rate, 0.01);
        assert_eq!(config.noc.fault.seed, 9);
        assert_eq!(config.noc.trace, TraceConfig::Counters);
        assert_eq!(config.host.policy, WindowPolicyKind::Ecn);
        assert_eq!(config.noc.ecn_threshold, CLOSED_LOOP_ECN_THRESHOLD);
        assert_eq!(config.host.initial_window, 64);
        assert!(config.host.window_cap >= 64);
    }

    #[test]
    fn parse_size_accepts_suffixes_and_rejects_junk() {
        assert_eq!(parse_size("4096"), Some(4096));
        assert_eq!(parse_size("256K"), Some(256 << 10));
        assert_eq!(parse_size("64m"), Some(64 << 20));
        assert_eq!(parse_size(" 2G "), Some(2 << 30));
        assert_eq!(parse_size("0"), Some(0));
        assert_eq!(parse_size(""), None);
        assert_eq!(parse_size("-5"), None);
        assert_eq!(parse_size("1T"), None); // unknown suffix
        assert_eq!(parse_size("99999999999999999999G"), None); // overflow
    }

    /// The README's knob table is this table: same names, same order,
    /// same defaults and text.
    #[test]
    fn readme_knob_table_matches_the_table() {
        let readme = include_str!("../../../README.md");
        let rows: Vec<&str> = readme
            .lines()
            .filter(|line| line.starts_with("| `MN_"))
            .collect();
        let want: Vec<String> = KNOBS
            .iter()
            .map(|k| format!("| `{}` | {} | {} |", k.name, k.default, k.doc))
            .collect();
        assert_eq!(rows, want);
    }
}
