//! Deterministic fault injection for the campaign engine itself.
//!
//! The simulator's `FaultModel` breaks links; [`ChaosPlan`] breaks the
//! *harness* — worker panics, corrupt cache entries, stale temp files,
//! torn journal tails — so the recovery machinery (`catch_unwind`, retry,
//! quarantine, sweep, torn-tail-tolerant replay) is exercised under test
//! instead of trusted on faith.
//!
//! Determinism discipline: every injection decision is a **pure function
//! of (seed, injection-site coordinates)** — a splitmix64 hash of the
//! seed mixed with a per-site salt — never a draw from a sequential RNG
//! stream. Worker scheduling therefore cannot reorder or change the
//! chaos schedule: the same seed injects the same faults at the same
//! sites at any `MN_JOBS`, which is what makes the differential suite
//! (`chaos_diff.rs`) meaningful.

use std::path::Path;

use crate::point::fnv1a64;

/// Domain-separation constants, one per injection site kind, so the same
/// (seed, salt) pair decides each kind independently.
const DOMAIN_PANIC: u64 = 0x0050_414e_4943; // "PANIC"
const DOMAIN_CORRUPT: u64 = 0x434f_5252; // "CORR"
const DOMAIN_TRUNCATE: u64 = 0x5452_554e; // "TRUN"
const DOMAIN_LITTER: u64 = 0x4c49_5454; // "LITT"
const DOMAIN_TEAR: u64 = 0x5445_4152; // "TEAR"

/// A seeded schedule of harness faults. `Copy`, so workers carry it by
/// value; all decisions are derived, no mutable state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChaosPlan {
    /// Seed for the schedule (`MN_CHAOS_SEED`).
    pub seed: u64,
    /// Per-opportunity injection probability in `[0, 1]`
    /// (`MN_CHAOS_RATE`).
    pub rate: f64,
}

impl ChaosPlan {
    /// Builds a plan with the given seed and rate (clamped to `[0, 1]`).
    pub fn new(seed: u64, rate: f64) -> ChaosPlan {
        ChaosPlan {
            seed,
            rate: rate.clamp(0.0, 1.0),
        }
    }

    /// The core decision: does this (domain, salt) site inject? Pure in
    /// (seed, domain, salt); the top 53 bits of a splitmix64 mix become
    /// a uniform draw in `[0, 1)` compared against the rate.
    fn chance(self, domain: u64, salt: u64) -> bool {
        let mixed = splitmix64(self.seed ^ splitmix64(domain) ^ splitmix64(salt));
        let unit = (mixed >> 11) as f64 / (1u64 << 53) as f64;
        unit < self.rate
    }

    /// Whether the worker simulating `port` of the point with cache key
    /// hash `key_hash` should panic on attempt `attempt`.
    ///
    /// Panics are only injected while `attempt < budget`: the retry
    /// budget always outlasts the chaos schedule for a given point, so
    /// every chaos run converges to the clean run's results. (A point
    /// whose *every* attempt panicked could never converge.)
    pub(crate) fn injects_panic(self, key_hash: u64, port: u32, attempt: u32, budget: u32) -> bool {
        attempt < budget
            && self.chance(
                DOMAIN_PANIC,
                key_hash ^ (u64::from(port) << 32) ^ u64::from(attempt),
            )
    }

    /// Damages the cache entry for `key` in `dir` before a read, if the
    /// schedule says so and the entry exists: either truncates it to half
    /// (torn write) or overwrites the header (bit rot). Both damages are
    /// ones the cache's quarantine path must absorb as a miss.
    pub(crate) fn damage_cache_entry(self, dir: &Path, key: &str) {
        let salt = fnv1a64(key.as_bytes());
        let truncate = self.chance(DOMAIN_TRUNCATE, salt);
        let corrupt = self.chance(DOMAIN_CORRUPT, salt);
        if !truncate && !corrupt {
            return;
        }
        let path = dir.join(format!("{key}.mnres"));
        let Ok(body) = std::fs::read(&path) else {
            return; // no entry to damage
        };
        let damaged: Vec<u8> = if truncate {
            body[..body.len() / 2].to_vec()
        } else {
            let mut b = b"mncampaign-cache v0-rotten\n".to_vec();
            b.extend_from_slice(&body);
            b
        };
        let _ = std::fs::write(&path, damaged);
    }

    /// Litters `dir` with stale `.*.tmp` files mimicking a killed run's
    /// leaked temp files, which the cache's open-time sweep must remove.
    pub fn litter_cache_dir(self, dir: &Path) {
        if !self.chance(DOMAIN_LITTER, 0) {
            return;
        }
        let _ = std::fs::create_dir_all(dir);
        for i in 0..3u64 {
            let name = format!(".stale{:016x}.{}.tmp", splitmix64(self.seed ^ i), i);
            let _ = std::fs::write(dir.join(name), b"torn half-written cache entry");
        }
    }

    /// Tears the journal's tail: appends a partial line *without* a
    /// trailing newline, mimicking a crash mid-append. Replay must skip
    /// it and the next run's appends must not concatenate with it.
    pub fn tear_journal(self, path: &Path) {
        if !self.chance(DOMAIN_TEAR, 0) {
            return;
        }
        if !path.exists() {
            return;
        }
        use std::io::Write as _;
        if let Ok(mut file) = std::fs::OpenOptions::new().append(true).open(path) {
            let _ = file.write_all(br#"{"event":"done","fp":"torn-mid-"#);
        }
    }
}

/// splitmix64's finalizer: a strong 64-bit mixing function, used here as
/// a stateless hash (not as the sequential generator it usually seeds).
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decisions_are_pure_and_seed_dependent() {
        let plan = ChaosPlan::new(42, 0.5);
        // Pure: the same site decides the same way every time.
        for port in 0..8 {
            assert_eq!(
                plan.injects_panic(0xDEAD, port, 0, 2),
                plan.injects_panic(0xDEAD, port, 0, 2),
            );
        }
        // Seed-dependent: across many sites, two seeds must disagree
        // somewhere (overwhelming probability at rate 0.5).
        let other = ChaosPlan::new(43, 0.5);
        let disagree = (0..64)
            .any(|p| plan.injects_panic(0xDEAD, p, 0, 2) != other.injects_panic(0xDEAD, p, 0, 2));
        assert!(disagree, "seeds 42 and 43 produced identical schedules");
    }

    #[test]
    fn rate_bounds_hold() {
        let never = ChaosPlan::new(7, 0.0);
        let always = ChaosPlan::new(7, 1.0);
        for salt in 0..256u64 {
            assert!(!never.chance(DOMAIN_PANIC, salt));
            assert!(always.chance(DOMAIN_PANIC, salt));
        }
        // Rate roughly tracks frequency (no distributional precision
        // needed — just "not degenerate").
        let half = ChaosPlan::new(7, 0.5);
        let hits = (0..1000u64)
            .filter(|&s| half.chance(DOMAIN_PANIC, s))
            .count();
        assert!((300..=700).contains(&hits), "rate 0.5 hit {hits}/1000");
    }

    #[test]
    fn panics_respect_the_retry_budget() {
        // Attempts at or beyond the budget never panic, so retries
        // always converge.
        let plan = ChaosPlan::new(1, 1.0);
        assert!(plan.injects_panic(0xBEEF, 0, 0, 2));
        assert!(plan.injects_panic(0xBEEF, 0, 1, 2));
        assert!(!plan.injects_panic(0xBEEF, 0, 2, 2));
        assert!(!plan.injects_panic(0xBEEF, 0, 0, 0), "no budget, no chaos");
    }

    #[test]
    fn damage_and_litter_tolerate_missing_paths() {
        let plan = ChaosPlan::new(9, 1.0);
        let dir = std::env::temp_dir().join("mn-chaos-missing-paths-test");
        let _ = std::fs::remove_dir_all(&dir);
        // No entry, no journal: all no-ops, no panics.
        plan.damage_cache_entry(&dir, "0123456789abcdef");
        plan.tear_journal(&dir.join("absent.journal"));
        // Litter creates the dir and drops sweepable files.
        plan.litter_cache_dir(&dir);
        let litter: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        assert!(!litter.is_empty());
        assert!(litter
            .iter()
            .all(|n| n.starts_with('.') && n.ends_with(".tmp")));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
