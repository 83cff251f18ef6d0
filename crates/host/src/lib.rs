//! # mn-host — closed-loop host models for the memory-network simulator
//!
//! Every generator in the workspace is open-loop by default: ports push
//! their trace into the NoC at the workload's offered rate regardless of
//! what the network is doing, so "heavy traffic" degenerates into
//! unbounded host queues instead of the saturation curves a real APU port
//! (finite MSHRs, stalls feeding back into issue) would show. This crate
//! adds the feedback path: an **outstanding-request window** that gates
//! injection in the port simulator, with a pluggable policy deciding how
//! the window reacts to completions.
//!
//! Three policies (plus the pass-through default):
//!
//! - [`WindowPolicyKind::Open`] — no gate; the open-loop behavior every
//!   committed golden was produced with. The default.
//! - [`WindowPolicyKind::Fixed`] — a hard cap of `n` outstanding
//!   requests, MSHR-style.
//! - [`WindowPolicyKind::Aimd`] — additive increase while completed RTTs
//!   stay at or below the target, multiplicative decrease (halving, at
//!   most once per window of completions) when they exceed it.
//! - [`WindowPolicyKind::Ecn`] — links mark packets whose departure
//!   buffer is congested (`NocConfig::ecn_threshold` in `mn-noc`); the
//!   host halves the window on marked responses and opens additively on
//!   unmarked ones.
//!
//! Dispatch mirrors the NoC's arbiters: [`WindowPolicyKind::instantiate`]
//! produces a closed [`WindowPolicyImpl`] enum with inherent `#[inline]`
//! methods — no virtual calls on the per-response path.
//!
//! Determinism: the policies are pure integer state machines (windows are
//! fixed-point `u64`s, no floats) driven only by the completion stream,
//! which is itself deterministic, so closed-loop runs are bit-identical
//! at any worker count. Host parameters join a run's result fingerprint
//! **only when [`HostConfig::enabled`] holds** — the open-loop default
//! leaves every committed fingerprint and cache byte untouched, exactly
//! the discipline the fault model established.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![warn(missing_debug_implementations)]

use std::error::Error;
use std::fmt;
use std::str::FromStr;

use mn_sim::SimDuration;

/// Fixed-point scale for adaptive windows: 1 window slot = `FP` units.
/// Additive increase grows the window by ~1 slot per window of
/// completions (`FP * FP / window_fp` per completion), entirely in
/// integer arithmetic so the trajectory is bit-reproducible.
const FP: u64 = 256;

/// Which congestion-control policy drives the outstanding-request window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WindowPolicyKind {
    /// Open loop: no injection gate (the default; preserves the
    /// open-loop goldens byte for byte).
    Open,
    /// A fixed window of `n` outstanding requests (MSHR-like).
    Fixed(u32),
    /// Additive-increase / multiplicative-decrease on completed RTT
    /// versus [`HostConfig::target_rtt`].
    Aimd,
    /// Halve on ECN-marked responses, open additively otherwise.
    Ecn,
}

impl WindowPolicyKind {
    /// Short label for tables and fingerprints.
    pub fn label(&self) -> String {
        match self {
            WindowPolicyKind::Open => "open".to_string(),
            WindowPolicyKind::Fixed(n) => format!("fixed:{n}"),
            WindowPolicyKind::Aimd => "aimd".to_string(),
            WindowPolicyKind::Ecn => "ecn".to_string(),
        }
    }

    /// Builds the policy's runtime state for `config`.
    pub fn instantiate(&self, config: &HostConfig) -> WindowPolicyImpl {
        let cap_fp = u64::from(config.window_cap.max(1)) * FP;
        let init_fp = (u64::from(config.initial_window.max(1)) * FP).min(cap_fp);
        match self {
            WindowPolicyKind::Open => WindowPolicyImpl::Open,
            WindowPolicyKind::Fixed(n) => WindowPolicyImpl::Fixed {
                window: (*n).clamp(1, config.window_cap.max(1)),
            },
            WindowPolicyKind::Aimd => WindowPolicyImpl::Aimd(AdaptiveState {
                window_fp: init_fp,
                cap_fp,
                target_ps: config.target_rtt.as_ps(),
                since_decrease: 0,
            }),
            WindowPolicyKind::Ecn => WindowPolicyImpl::Ecn(AdaptiveState {
                window_fp: init_fp,
                cap_fp,
                target_ps: 0,
                since_decrease: 0,
            }),
        }
    }
}

impl fmt::Display for WindowPolicyKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.label())
    }
}

/// Error parsing a [`WindowPolicyKind`] from a string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseWindowPolicyError(String);

impl fmt::Display for ParseWindowPolicyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown window policy {:?} (expected open | fixed:<n> | aimd | ecn)",
            self.0
        )
    }
}

impl Error for ParseWindowPolicyError {}

impl FromStr for WindowPolicyKind {
    type Err = ParseWindowPolicyError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let lower = s.trim().to_ascii_lowercase();
        if let Some(n) = lower.strip_prefix("fixed:") {
            return match n.parse::<u32>() {
                Ok(n) if n >= 1 => Ok(WindowPolicyKind::Fixed(n)),
                _ => Err(ParseWindowPolicyError(s.to_string())),
            };
        }
        match lower.as_str() {
            "open" | "off" => Ok(WindowPolicyKind::Open),
            "aimd" => Ok(WindowPolicyKind::Aimd),
            "ecn" => Ok(WindowPolicyKind::Ecn),
            _ => Err(ParseWindowPolicyError(s.to_string())),
        }
    }
}

/// Host-model tunables. The default ([`HostConfig::open`]) disables the
/// closed loop entirely: the port simulator then skips every gate and
/// its behavior — and its result fingerprint — is bit-identical to a
/// build without this crate.
#[derive(Debug, Clone, PartialEq)]
pub struct HostConfig {
    /// The window policy ([`WindowPolicyKind::Open`] = no gate).
    pub policy: WindowPolicyKind,
    /// Hard upper bound on any policy's window, in requests.
    pub window_cap: u32,
    /// Starting window for the adaptive policies (clamped to the cap).
    pub initial_window: u32,
    /// AIMD's RTT setpoint: completions at or below it grow the window,
    /// above it shrink it.
    pub target_rtt: SimDuration,
}

impl HostConfig {
    /// The open-loop configuration: no gate, adaptive defaults left in
    /// place for when a policy is selected.
    pub fn open() -> HostConfig {
        HostConfig {
            policy: WindowPolicyKind::Open,
            window_cap: 64,
            initial_window: 8,
            target_rtt: SimDuration::from_ns(600),
        }
    }

    /// True when the closed loop actually gates injection. The port
    /// simulator only instantiates a policy (and only extends the result
    /// fingerprint) when this holds.
    pub fn enabled(&self) -> bool {
        self.policy != WindowPolicyKind::Open
    }

    /// Validates the configuration.
    ///
    /// # Panics
    ///
    /// Panics if the cap or initial window is zero, the initial window
    /// exceeds the cap, or a fixed window is zero.
    pub fn validate(&self) {
        assert!(self.window_cap >= 1, "window_cap must be at least 1");
        assert!(
            (1..=self.window_cap).contains(&self.initial_window),
            "initial_window must be in [1, window_cap], got {} (cap {})",
            self.initial_window,
            self.window_cap
        );
        if let WindowPolicyKind::Fixed(n) = self.policy {
            assert!(n >= 1, "fixed window must be at least 1");
        }
        if self.policy == WindowPolicyKind::Aimd {
            assert!(
                self.target_rtt > SimDuration::ZERO,
                "aimd needs a positive target_rtt"
            );
        }
    }
}

impl Default for HostConfig {
    fn default() -> Self {
        HostConfig::open()
    }
}

/// Shared state of the two adaptive policies: a fixed-point window, its
/// cap, the (AIMD-only) RTT setpoint, and a completion counter enforcing
/// at most one multiplicative decrease per window of completions — the
/// standard "once per RTT" rule that keeps a burst of bad feedback from
/// collapsing the window to 1 instantly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdaptiveState {
    window_fp: u64,
    cap_fp: u64,
    target_ps: u64,
    since_decrease: u64,
}

impl AdaptiveState {
    #[inline]
    fn window(&self) -> u32 {
        (self.window_fp / FP).max(1) as u32
    }

    #[inline]
    fn grow(&mut self) {
        self.window_fp = (self.window_fp + FP * FP / self.window_fp).min(self.cap_fp);
    }

    /// Halves the window if a full window of completions has passed
    /// since the last decrease; returns whether it fired.
    #[inline]
    fn try_halve(&mut self) -> bool {
        if self.since_decrease >= u64::from(self.window()) {
            self.window_fp = (self.window_fp / 2).max(FP);
            self.since_decrease = 0;
            true
        } else {
            false
        }
    }
}

/// The instantiated window policy: a closed enum with inherent inlined
/// methods, mirroring the NoC's `ArbiterImpl` (no `dyn` on the
/// per-response path).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WindowPolicyImpl {
    /// No gate.
    Open,
    /// Hard cap.
    Fixed {
        /// The window, in outstanding requests.
        window: u32,
    },
    /// AIMD on completed RTT.
    Aimd(AdaptiveState),
    /// Halve on ECN marks.
    Ecn(AdaptiveState),
}

impl WindowPolicyImpl {
    /// The current injection window in outstanding requests
    /// (`u32::MAX` for the open loop — never a binding constraint).
    #[inline]
    pub fn window(&self) -> u32 {
        match self {
            WindowPolicyImpl::Open => u32::MAX,
            WindowPolicyImpl::Fixed { window } => *window,
            WindowPolicyImpl::Aimd(s) | WindowPolicyImpl::Ecn(s) => s.window(),
        }
    }

    /// Feeds one completed request into the policy: its measured
    /// round-trip time and whether its response carried an ECN mark.
    #[inline]
    pub fn on_response(&mut self, rtt: SimDuration, marked: bool) {
        match self {
            WindowPolicyImpl::Open | WindowPolicyImpl::Fixed { .. } => {}
            WindowPolicyImpl::Aimd(s) => {
                s.since_decrease += 1;
                if rtt.as_ps() > s.target_ps {
                    if !s.try_halve() {
                        // Holdoff window not yet elapsed: absorb the
                        // signal without growing.
                    }
                } else {
                    s.grow();
                }
            }
            WindowPolicyImpl::Ecn(s) => {
                s.since_decrease += 1;
                if marked {
                    let _ = s.try_halve();
                } else {
                    s.grow();
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mn_sim::SimRng;

    fn cfg(policy: WindowPolicyKind) -> HostConfig {
        HostConfig {
            policy,
            ..HostConfig::open()
        }
    }

    #[test]
    fn open_never_binds() {
        let mut p = WindowPolicyKind::Open.instantiate(&cfg(WindowPolicyKind::Open));
        assert_eq!(p.window(), u32::MAX);
        p.on_response(SimDuration::from_ns(10_000), true);
        assert_eq!(p.window(), u32::MAX);
    }

    #[test]
    fn fixed_is_fixed() {
        let mut p = WindowPolicyKind::Fixed(7).instantiate(&cfg(WindowPolicyKind::Fixed(7)));
        assert_eq!(p.window(), 7);
        for _ in 0..100 {
            p.on_response(SimDuration::from_ns(10_000), true);
        }
        assert_eq!(p.window(), 7);
    }

    #[test]
    fn fixed_clamps_to_cap() {
        let c = HostConfig {
            policy: WindowPolicyKind::Fixed(500),
            window_cap: 32,
            ..HostConfig::open()
        };
        assert_eq!(c.policy.instantiate(&c).window(), 32);
    }

    #[test]
    fn aimd_grows_on_fast_rtt_and_halves_on_slow() {
        let c = cfg(WindowPolicyKind::Aimd);
        let mut p = c.policy.instantiate(&c);
        let start = p.window();
        // A long run of on-target completions opens the window to cap.
        for _ in 0..10_000 {
            p.on_response(SimDuration::from_ns(100), false);
        }
        assert!(p.window() > start);
        assert_eq!(p.window(), c.window_cap);
        // Sustained over-target RTTs halve it (at most once per window
        // of completions), eventually down to the floor of 1.
        for _ in 0..10_000 {
            p.on_response(SimDuration::from_ns(5_000), false);
        }
        assert_eq!(p.window(), 1);
    }

    #[test]
    fn aimd_decrease_holds_off_one_window() {
        let c = cfg(WindowPolicyKind::Aimd);
        let mut p = c.policy.instantiate(&c);
        let w0 = p.window() as u64;
        // Fewer than a window of bad completions: no decrease yet.
        for _ in 0..w0 - 1 {
            p.on_response(SimDuration::from_ns(5_000), false);
        }
        assert_eq!(p.window() as u64, w0);
        p.on_response(SimDuration::from_ns(5_000), false);
        assert!(u64::from(p.window()) < w0);
    }

    #[test]
    fn ecn_halves_on_marks_and_grows_otherwise() {
        let c = cfg(WindowPolicyKind::Ecn);
        let mut p = c.policy.instantiate(&c);
        let start = p.window();
        for _ in 0..10_000 {
            p.on_response(SimDuration::from_ns(100), false);
        }
        assert_eq!(p.window(), c.window_cap);
        for _ in 0..10_000 {
            p.on_response(SimDuration::from_ns(100), true);
        }
        assert_eq!(p.window(), 1);
        // Recovery: unmarked responses reopen it past the start.
        for _ in 0..10_000 {
            p.on_response(SimDuration::from_ns(100), false);
        }
        assert!(p.window() >= start);
    }

    /// Property (seed-looped, like the rest of the workspace): under any
    /// random feedback stream — RTTs scattered around the target, marks
    /// at any rate — adaptive windows stay within `[1, cap]`.
    #[test]
    fn adaptive_windows_stay_in_bounds_under_random_feedback() {
        for seed in 0..32u64 {
            let mut rng = SimRng::seed_from(0xD0C5_0000 ^ seed);
            for kind in [WindowPolicyKind::Aimd, WindowPolicyKind::Ecn] {
                let c = HostConfig {
                    policy: kind,
                    window_cap: 1 + (seed as u32 % 63),
                    initial_window: 1,
                    ..HostConfig::open()
                };
                c.validate();
                let mut p = kind.instantiate(&c);
                for _ in 0..4_000 {
                    let rtt = SimDuration::from_ps(rng.below(2_000_000));
                    let marked = rng.chance(0.3);
                    p.on_response(rtt, marked);
                    let w = p.window();
                    assert!(
                        (1..=c.window_cap).contains(&w),
                        "{kind:?} window {w} out of [1, {}] (seed {seed})",
                        c.window_cap
                    );
                }
            }
        }
    }

    #[test]
    fn policies_parse_and_round_trip() {
        for (s, want) in [
            ("open", WindowPolicyKind::Open),
            ("OFF", WindowPolicyKind::Open),
            ("fixed:12", WindowPolicyKind::Fixed(12)),
            (" Aimd ", WindowPolicyKind::Aimd),
            ("ecn", WindowPolicyKind::Ecn),
        ] {
            assert_eq!(s.parse::<WindowPolicyKind>().unwrap(), want);
        }
        for s in ["", "fixed", "fixed:0", "fixed:x", "reno"] {
            assert!(s.parse::<WindowPolicyKind>().is_err(), "{s:?} parsed");
        }
        // Display round-trips through FromStr.
        for kind in [
            WindowPolicyKind::Open,
            WindowPolicyKind::Fixed(3),
            WindowPolicyKind::Aimd,
            WindowPolicyKind::Ecn,
        ] {
            assert_eq!(kind.label().parse::<WindowPolicyKind>().unwrap(), kind);
        }
    }

    #[test]
    fn default_is_disabled_and_valid() {
        let c = HostConfig::default();
        assert!(!c.enabled());
        c.validate();
        assert!(cfg(WindowPolicyKind::Ecn).enabled());
    }

    #[test]
    #[should_panic(expected = "initial_window")]
    fn initial_window_above_cap_rejected() {
        HostConfig {
            initial_window: 100,
            window_cap: 10,
            ..HostConfig::open()
        }
        .validate();
    }
}
