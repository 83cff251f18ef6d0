//! Environment knobs, parsed loudly.
//!
//! Every harness knob (`MN_JOBS` here; `MN_REQUESTS` / `MN_SEED` in
//! `mn-bench`) goes through [`env_parse`], which reports malformed values
//! on stderr instead of silently falling back — a typo'd
//! `MN_REQUESTS=60000q` used to quietly run a 6 000-request experiment.

use std::collections::HashSet;
use std::fmt::Display;
use std::str::FromStr;
use std::sync::Mutex;

/// Variables already warned about, so grid builders that re-read a knob
/// per config don't repeat the same warning.
static WARNED: Mutex<Option<HashSet<String>>> = Mutex::new(None);

/// Prints `warning: {message}` to stderr the first time `name` trips it;
/// later calls for the same variable are silent. Every knob's
/// rejected-value path — malformed, out-of-range, or degenerate — goes
/// through here, so "warn once per variable" is one piece of state and
/// one policy instead of a copy per knob.
pub(crate) fn warn_once(name: &str, message: &str) {
    let mut warned = WARNED.lock().unwrap_or_else(|p| p.into_inner());
    if warned
        .get_or_insert_with(HashSet::new)
        .insert(name.to_string())
    {
        eprintln!("warning: {message}");
    }
}

/// Reads and parses `name` from the environment. Returns `None` when the
/// variable is unset; when it is set but malformed, prints a warning to
/// stderr naming the variable and the rejected value (once per variable),
/// then returns `None` so the caller's default applies.
pub fn env_parse<T>(name: &str) -> Option<T>
where
    T: FromStr,
    T::Err: Display,
{
    let value = std::env::var(name).ok()?;
    match value.parse() {
        Ok(parsed) => Some(parsed),
        Err(err) => {
            warn_once(name, &format!("ignoring malformed {name}={value:?}: {err}"));
            None
        }
    }
}

/// Worker count for campaign execution: `MN_JOBS`, defaulting to the
/// machine's available parallelism. A value of 0 is treated as malformed.
pub fn jobs_from_env() -> usize {
    match env_parse::<usize>("MN_JOBS") {
        Some(0) => {
            warn_once("MN_JOBS", "ignoring MN_JOBS=0 (need at least one worker)");
            default_jobs()
        }
        Some(jobs) => jobs,
        None => default_jobs(),
    }
}

fn default_jobs() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Fault-injection transient-CRC rate override: `MN_FAULT_RATE`, a
/// probability in `[0, 1]` applied per link traversal. Out-of-range or
/// non-finite values warn (once) and are ignored, like a malformed one.
pub fn fault_rate_from_env() -> Option<f64> {
    let rate: f64 = env_parse("MN_FAULT_RATE")?;
    if rate.is_finite() && (0.0..=1.0).contains(&rate) {
        Some(rate)
    } else {
        warn_once(
            "MN_FAULT_RATE",
            &format!("ignoring MN_FAULT_RATE={rate} (need a probability in [0, 1])"),
        );
        None
    }
}

/// Fault-schedule seed override: `MN_FAULT_SEED`. The seed feeds the
/// fault model's private RNG stream (and, when faults are enabled, the
/// result fingerprint), so rerunning with the same seed replays the same
/// link kills, degradations, and transient errors.
pub fn fault_seed_from_env() -> Option<u64> {
    env_parse("MN_FAULT_SEED")
}

/// Telemetry mode override: `MN_TRACE`, one of `off`, `counters`,
/// `full` (case-insensitive). Telemetry is observational — it never
/// changes simulated results or cache keys — so this knob is safe to
/// set on any figure binary. Unset or malformed (warned once) means
/// "leave the config's mode alone".
pub fn trace_from_env() -> Option<mn_noc::TraceConfig> {
    env_parse("MN_TRACE")
}

/// Trace output directory: `MN_TRACE_DIR`. Where trace exports (e.g.
/// `mncube trace`'s Perfetto JSON) land when the caller doesn't give an
/// explicit path; defaults to the current directory when unset.
pub fn trace_dir_from_env() -> Option<std::path::PathBuf> {
    let dir = std::env::var_os("MN_TRACE_DIR")?;
    Some(std::path::PathBuf::from(dir))
}

/// Per-point retry budget: `MN_RETRIES`, the number of re-dispatches a
/// retryable failure (stall, lost worker, caught panic) earns beyond the
/// first attempt. 0 disables retries. Execution policy only — the knob
/// never joins the result fingerprint.
pub fn retries_from_env() -> u32 {
    env_parse("MN_RETRIES").unwrap_or(2)
}

/// Resume journal path: `MN_RESUME`. When set (and non-empty), the
/// campaign replays the journal's completed points before dispatching and
/// appends this run's events to the same file, so a killed sweep restarts
/// where it died. The `--resume` CLI flag takes precedence.
pub fn resume_from_env() -> Option<std::path::PathBuf> {
    let path = std::env::var_os("MN_RESUME")?;
    if path.is_empty() {
        return None;
    }
    Some(std::path::PathBuf::from(path))
}

/// Chaos-injection rate: `MN_CHAOS_RATE`, a probability in `[0, 1]`
/// applied per injection opportunity (worker panic, cache damage, torn
/// journal tail). Unset or 0 means no chaos. Out-of-range or non-finite
/// values warn (once) and are ignored, like a malformed one. Test
/// harness only — injected faults are always recovered from, so results
/// are unchanged and the knob never joins the fingerprint.
pub fn chaos_rate_from_env() -> Option<f64> {
    let rate: f64 = env_parse("MN_CHAOS_RATE")?;
    if rate.is_finite() && (0.0..=1.0).contains(&rate) {
        Some(rate)
    } else {
        warn_once(
            "MN_CHAOS_RATE",
            &format!("ignoring MN_CHAOS_RATE={rate} (need a probability in [0, 1])"),
        );
        None
    }
}

/// Chaos schedule seed: `MN_CHAOS_SEED` (default 0). Injection decisions
/// are pure functions of (seed, injection site), so the same seed replays
/// the same chaos schedule regardless of worker scheduling.
pub fn chaos_seed_from_env() -> u64 {
    env_parse("MN_CHAOS_SEED").unwrap_or(0)
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

/// Cache size budget: `MN_CACHE_BUDGET`, total bytes of `.mnres` entries
/// the cache directory may hold before LRU eviction engages (plain bytes
/// or `K`/`M`/`G` suffixed). Unset means unbounded. 0 or malformed warns
/// (once) and is ignored — an accidental `MN_CACHE_BUDGET=0` must not
/// evict the whole committed cache.
pub fn cache_budget_from_env() -> Option<u64> {
    let value = std::env::var("MN_CACHE_BUDGET").ok()?;
    match parse_size(&value) {
        Some(0) | None => {
            warn_once(
                "MN_CACHE_BUDGET",
                &format!(
                    "ignoring MN_CACHE_BUDGET={value:?} (need a positive byte size, e.g. 512M)"
                ),
            );
            None
        }
        budget => budget,
    }
}

/// Whether cross-campaign coalescing is enabled: `MN_COALESCE`, default
/// on; `0`/`off`/`no`/`false` disables it (each campaign then probes the
/// cache and simulates independently, as before the shared engine).
pub fn coalesce_from_env() -> bool {
    !matches!(
        std::env::var("MN_COALESCE").as_deref(),
        Ok("0") | Ok("off") | Ok("no") | Ok("false")
    )
}

/// Service-layer metrics switch: `MN_METRICS`, `on`/`1`/`true`/`yes` to
/// enable the mn-metrics registry (DESIGN.md §12), anything in
/// `off`/`0`/`false`/`no` (or unset/empty) to keep every hook a free
/// early return. Other values warn (once) and mean off. Observational
/// only — never joins the result fingerprint.
pub fn metrics_from_env() -> bool {
    let Ok(value) = std::env::var("MN_METRICS") else {
        return false;
    };
    match value.to_ascii_lowercase().as_str() {
        "1" | "on" | "true" | "yes" => true,
        "" | "0" | "off" | "false" | "no" => false,
        _ => {
            warn_once(
                "MN_METRICS",
                &format!("ignoring malformed MN_METRICS={value:?} (use on or off)"),
            );
            false
        }
    }
}

/// Metrics snapshot path: `MN_METRICS_FILE`, where the Prometheus
/// text-exposition snapshot is (re)written while metrics are on (the
/// JSON-lines sample stream lands next to it with `.jsonl` appended).
/// Empty means unset.
pub fn metrics_file_from_env() -> Option<std::path::PathBuf> {
    let path = std::env::var_os("MN_METRICS_FILE")?;
    if path.is_empty() {
        return None;
    }
    Some(std::path::PathBuf::from(path))
}

/// Metrics sampling period: `MN_METRICS_INTERVAL`, in milliseconds
/// (default 1000). 0 is treated as malformed — a spin-writing sampler
/// helps nobody.
pub fn metrics_interval_from_env() -> std::time::Duration {
    const DEFAULT_MS: u64 = 1000;
    let ms = match env_parse::<u64>("MN_METRICS_INTERVAL") {
        Some(0) => {
            warn_once(
                "MN_METRICS_INTERVAL",
                "ignoring MN_METRICS_INTERVAL=0 (need a positive period in milliseconds)",
            );
            DEFAULT_MS
        }
        Some(ms) => ms,
        None => DEFAULT_MS,
    };
    std::time::Duration::from_millis(ms)
}

/// Closed-loop host policy override: `MN_HOST_POLICY`, one of `open`,
/// `fixed:<n>`, `aimd`, `ecn` (case-insensitive). Anything other than
/// `open` engages the closed loop and joins the result fingerprint, so
/// cached open-loop results are never served for closed-loop runs.
pub fn host_policy_from_env() -> Option<mn_host::WindowPolicyKind> {
    env_parse("MN_HOST_POLICY")
}

/// Closed-loop window override: `MN_HOST_WINDOW`, the initial window in
/// outstanding requests (the cap is raised to match when needed). A value
/// of 0 is treated as malformed — the gate must always admit one request.
pub fn host_window_from_env() -> Option<u32> {
    match env_parse::<u32>("MN_HOST_WINDOW") {
        Some(0) => {
            warn_once(
                "MN_HOST_WINDOW",
                "ignoring MN_HOST_WINDOW=0 (the window must admit a request)",
            );
            None
        }
        other => other,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Environment mutation is process-global, so these tests go through a
    // single #[test] to stay race-free under the parallel test harness --
    // and they use a variable name nothing else reads.
    #[test]
    fn parses_warns_and_defaults() {
        let name = "MN_CAMPAIGN_ENV_TEST_ONLY";
        assert_eq!(env_parse::<u64>(name), None);

        std::env::set_var(name, "1234");
        assert_eq!(env_parse::<u64>(name), Some(1234));

        std::env::set_var(name, "not-a-number");
        assert_eq!(env_parse::<u64>(name), None); // warned on stderr

        std::env::remove_var(name);
        assert!(jobs_from_env() >= 1);

        // Fault knobs, same single-test discipline. The unset case must
        // not engage fault injection at all.
        std::env::remove_var("MN_FAULT_RATE");
        std::env::remove_var("MN_FAULT_SEED");
        assert_eq!(fault_rate_from_env(), None);
        assert_eq!(fault_seed_from_env(), None);

        std::env::set_var("MN_FAULT_RATE", "0.05");
        assert_eq!(fault_rate_from_env(), Some(0.05));
        std::env::set_var("MN_FAULT_RATE", "1.5");
        assert_eq!(fault_rate_from_env(), None); // out of range: warned
        std::env::set_var("MN_FAULT_RATE", "NaN");
        assert_eq!(fault_rate_from_env(), None);
        std::env::remove_var("MN_FAULT_RATE");

        std::env::set_var("MN_FAULT_SEED", "42");
        assert_eq!(fault_seed_from_env(), Some(42));
        std::env::remove_var("MN_FAULT_SEED");

        // Telemetry knobs, same single-test discipline.
        std::env::remove_var("MN_TRACE");
        std::env::remove_var("MN_TRACE_DIR");
        assert_eq!(trace_from_env(), None);
        assert_eq!(trace_dir_from_env(), None);

        std::env::set_var("MN_TRACE", "Counters");
        assert_eq!(trace_from_env(), Some(mn_noc::TraceConfig::Counters));
        std::env::set_var("MN_TRACE", "full");
        assert_eq!(trace_from_env(), Some(mn_noc::TraceConfig::Full));
        std::env::set_var("MN_TRACE", "loud");
        assert_eq!(trace_from_env(), None); // malformed: warned
        std::env::remove_var("MN_TRACE");

        std::env::set_var("MN_TRACE_DIR", "/tmp/traces");
        assert_eq!(
            trace_dir_from_env(),
            Some(std::path::PathBuf::from("/tmp/traces"))
        );
        std::env::remove_var("MN_TRACE_DIR");

        // Closed-loop host knobs, same single-test discipline.
        std::env::remove_var("MN_HOST_POLICY");
        std::env::remove_var("MN_HOST_WINDOW");
        assert_eq!(host_policy_from_env(), None);
        assert_eq!(host_window_from_env(), None);

        std::env::set_var("MN_HOST_POLICY", "aimd");
        assert_eq!(
            host_policy_from_env(),
            Some(mn_host::WindowPolicyKind::Aimd)
        );
        std::env::set_var("MN_HOST_POLICY", "Fixed:12");
        assert_eq!(
            host_policy_from_env(),
            Some(mn_host::WindowPolicyKind::Fixed(12))
        );
        std::env::set_var("MN_HOST_POLICY", "closed"); // malformed: warned
        assert_eq!(host_policy_from_env(), None);
        std::env::remove_var("MN_HOST_POLICY");

        std::env::set_var("MN_HOST_WINDOW", "24");
        assert_eq!(host_window_from_env(), Some(24));
        std::env::set_var("MN_HOST_WINDOW", "0"); // degenerate: warned
        assert_eq!(host_window_from_env(), None);
        std::env::remove_var("MN_HOST_WINDOW");

        // Robustness knobs, same single-test discipline.
        std::env::remove_var("MN_RETRIES");
        std::env::remove_var("MN_RESUME");
        std::env::remove_var("MN_CHAOS_RATE");
        std::env::remove_var("MN_CHAOS_SEED");
        assert_eq!(retries_from_env(), 2); // documented default
        assert_eq!(resume_from_env(), None);
        assert_eq!(chaos_rate_from_env(), None);
        assert_eq!(chaos_seed_from_env(), 0);

        std::env::set_var("MN_RETRIES", "0");
        assert_eq!(retries_from_env(), 0); // 0 disables retries
        std::env::set_var("MN_RETRIES", "5");
        assert_eq!(retries_from_env(), 5);
        std::env::set_var("MN_RETRIES", "many"); // malformed: warned
        assert_eq!(retries_from_env(), 2);
        std::env::remove_var("MN_RETRIES");

        std::env::set_var("MN_RESUME", "/tmp/run.journal");
        assert_eq!(
            resume_from_env(),
            Some(std::path::PathBuf::from("/tmp/run.journal"))
        );
        std::env::set_var("MN_RESUME", ""); // empty means unset
        assert_eq!(resume_from_env(), None);
        std::env::remove_var("MN_RESUME");

        std::env::set_var("MN_CHAOS_RATE", "0.25");
        assert_eq!(chaos_rate_from_env(), Some(0.25));
        std::env::set_var("MN_CHAOS_RATE", "2.0"); // out of range: warned
        assert_eq!(chaos_rate_from_env(), None);
        std::env::set_var("MN_CHAOS_RATE", "NaN");
        assert_eq!(chaos_rate_from_env(), None);
        std::env::remove_var("MN_CHAOS_RATE");

        std::env::set_var("MN_CHAOS_SEED", "99");
        assert_eq!(chaos_seed_from_env(), 99);
        std::env::remove_var("MN_CHAOS_SEED");

        // Cache-budget and coalescing knobs, same single-test discipline.
        // parse_size itself is pure — exercised here alongside its knob.
        assert_eq!(parse_size("4096"), Some(4096));
        assert_eq!(parse_size("256K"), Some(256 << 10));
        assert_eq!(parse_size("64m"), Some(64 << 20));
        assert_eq!(parse_size(" 2G "), Some(2 << 30));
        assert_eq!(parse_size("0"), Some(0));
        assert_eq!(parse_size(""), None);
        assert_eq!(parse_size("-5"), None);
        assert_eq!(parse_size("1T"), None); // unknown suffix
        assert_eq!(parse_size("99999999999999999999G"), None); // overflow

        std::env::remove_var("MN_CACHE_BUDGET");
        assert_eq!(cache_budget_from_env(), None);
        std::env::set_var("MN_CACHE_BUDGET", "512M");
        assert_eq!(cache_budget_from_env(), Some(512 << 20));
        std::env::set_var("MN_CACHE_BUDGET", "0"); // degenerate: warned
        assert_eq!(cache_budget_from_env(), None);
        std::env::set_var("MN_CACHE_BUDGET", "lots"); // malformed: warned
        assert_eq!(cache_budget_from_env(), None);
        std::env::remove_var("MN_CACHE_BUDGET");

        std::env::remove_var("MN_COALESCE");
        assert!(coalesce_from_env()); // default on
        std::env::set_var("MN_COALESCE", "off");
        assert!(!coalesce_from_env());
        std::env::set_var("MN_COALESCE", "0");
        assert!(!coalesce_from_env());
        std::env::set_var("MN_COALESCE", "1");
        assert!(coalesce_from_env());
        std::env::remove_var("MN_COALESCE");

        // Metrics knobs, same single-test discipline. The gate itself is
        // exercised through mn-telemetry's registry tests; here we only
        // validate the env readers (including the warn-once path for
        // malformed values).
        std::env::remove_var("MN_METRICS");
        std::env::remove_var("MN_METRICS_FILE");
        std::env::remove_var("MN_METRICS_INTERVAL");
        assert!(!metrics_from_env());
        assert_eq!(metrics_file_from_env(), None);
        assert_eq!(
            metrics_interval_from_env(),
            std::time::Duration::from_millis(1000)
        );

        std::env::set_var("MN_METRICS", "on");
        assert!(metrics_from_env());
        std::env::set_var("MN_METRICS", "1");
        assert!(metrics_from_env());
        std::env::set_var("MN_METRICS", "off");
        assert!(!metrics_from_env());
        std::env::set_var("MN_METRICS", "loudly"); // malformed: warned
        assert!(!metrics_from_env());
        std::env::remove_var("MN_METRICS");

        std::env::set_var("MN_METRICS_FILE", "/tmp/metrics.prom");
        assert_eq!(
            metrics_file_from_env(),
            Some(std::path::PathBuf::from("/tmp/metrics.prom"))
        );
        std::env::set_var("MN_METRICS_FILE", ""); // empty means unset
        assert_eq!(metrics_file_from_env(), None);
        std::env::remove_var("MN_METRICS_FILE");

        std::env::set_var("MN_METRICS_INTERVAL", "250");
        assert_eq!(
            metrics_interval_from_env(),
            std::time::Duration::from_millis(250)
        );
        std::env::set_var("MN_METRICS_INTERVAL", "0"); // degenerate: warned
        assert_eq!(
            metrics_interval_from_env(),
            std::time::Duration::from_millis(1000)
        );
        std::env::set_var("MN_METRICS_INTERVAL", "soon"); // malformed: warned
        assert_eq!(
            metrics_interval_from_env(),
            std::time::Duration::from_millis(1000)
        );
        std::env::remove_var("MN_METRICS_INTERVAL");

        // ChaosPlan::from_env engages only on a positive rate. Lives
        // here (not chaos.rs) because it reads the process environment.
        assert_eq!(crate::ChaosPlan::from_env(), None);
        std::env::set_var("MN_CHAOS_RATE", "0");
        assert_eq!(crate::ChaosPlan::from_env(), None);
        std::env::set_var("MN_CHAOS_RATE", "0.5");
        std::env::set_var("MN_CHAOS_SEED", "7");
        assert_eq!(
            crate::ChaosPlan::from_env(),
            Some(crate::ChaosPlan::new(7, 0.5))
        );
        std::env::remove_var("MN_CHAOS_RATE");
        std::env::remove_var("MN_CHAOS_SEED");
    }
}
