//! Concurrent-submitter determinism, end to end: N threads submitting
//! overlapping grids through one shared [`Engine`] and one cache
//! directory must
//!
//! 1. produce byte-identical results to a serial, cache-less run of the
//!    same grids (scheduling and cache races change wall-clock time,
//!    never outcomes), and
//! 2. resolve each of a run's unique points exactly once, either freshly
//!    simulated or from the cache. Submitters do not coordinate, so a
//!    point two of them miss at the same moment may simulate in both;
//!    their cache stores write identical bytes by tmp+rename.

use std::path::PathBuf;
use std::sync::Arc;

use mn_campaign::{codec, Campaign, CampaignPoint, DiskCache, Engine};
use mn_core::SystemConfig;
use mn_topo::TopologyKind;
use mn_workloads::Workload;

/// Chain points varying only by seed: cheap, uniform cost, and trivially
/// overlappable by seed range.
fn seeded_grid(seeds: std::ops::Range<u64>) -> Vec<CampaignPoint> {
    seeds
        .map(|seed| {
            let mut config =
                SystemConfig::paper_baseline(TopologyKind::Chain, 1.0).expect("baseline is valid");
            config.requests_per_port = 200;
            config.seed = 0xC0A1_0000 + seed;
            CampaignPoint::new(config, Workload::Nw)
        })
        .collect()
}

/// `RunResult` has no `PartialEq`; the lossless cache codec is an exact,
/// field-complete rendering, so encoded equality is result equality.
fn encode_all(outcomes: &[mn_campaign::PointOutcome]) -> Vec<String> {
    outcomes
        .iter()
        .map(|o| codec::encode_result(o.result.as_ref().expect("point succeeded")))
        .collect()
}

fn scratch_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("mn-campaign-conc-{tag}-{}", std::process::id()))
}

#[test]
fn concurrent_overlapping_campaigns_are_serial_identical_and_exactly_once() {
    // Grid A and grid B overlap on seeds 3..6; the union is seeds 0..9.
    let grid_a = seeded_grid(0..6);
    let grid_b = seeded_grid(3..9);
    let distinct = 9usize;

    // The serial reference: each grid alone, no cache, one worker.
    let reference_a = encode_all(&Campaign::new(1).quiet().run(grid_a.clone()).outcomes);
    let reference_b = encode_all(&Campaign::new(1).quiet().run(grid_b.clone()).outcomes);

    // Four submitters (two per grid) on one fresh engine and one cache
    // directory, all racing.
    let dir = scratch_dir("overlap");
    let _ = std::fs::remove_dir_all(&dir);
    let engine = Arc::new(Engine::new(2));

    let runs = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|submitter| {
                let grid = if submitter % 2 == 0 { &grid_a } else { &grid_b };
                let engine = Arc::clone(&engine);
                let dir = dir.clone();
                scope.spawn(move || {
                    Campaign::new(2)
                        .quiet()
                        .cache_dir(dir)
                        .on_engine(engine)
                        .run(grid.clone())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("submitter panicked"))
            .collect::<Vec<_>>()
    });

    // 1. Byte identity: every concurrent run matches its serial
    //    reference, in submission order, regardless of which campaign
    //    simulated or cache-hit each point.
    for (submitter, run) in runs.iter().enumerate() {
        let reference = if submitter % 2 == 0 {
            &reference_a
        } else {
            &reference_b
        };
        assert_eq!(
            &encode_all(&run.outcomes),
            reference,
            "submitter {submitter} diverged from the serial reference"
        );
    }

    // 2. Exactly once: every run resolves each of its unique points
    //    once, fresh or from the cache, and none fails.
    for (submitter, run) in runs.iter().enumerate() {
        assert_eq!(run.summary.failed, 0, "submitter {submitter} failed points");
        assert_eq!(
            run.summary.fresh + run.summary.cache_hits,
            run.summary.unique,
            "submitter {submitter} left a unique point unaccounted for"
        );
        assert_eq!(run.summary.coalesced, 0, "the shim is always zero");
    }
    // The cache started empty, so every distinct point simulated at
    // least once, and each landed in the directory as one entry.
    let fresh: usize = runs.iter().map(|r| r.summary.fresh).sum();
    assert!(
        fresh >= distinct,
        "{fresh} fresh for {distinct} distinct points"
    );
    assert_eq!(DiskCache::new(&dir).stats().entries, distinct as u64);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn identical_grids_from_many_threads_match_each_other() {
    // The degenerate overlap: every submitter asks for the same grid.
    let grid = seeded_grid(40..46);
    let reference = encode_all(&Campaign::new(1).quiet().run(grid.clone()).outcomes);

    let dir = scratch_dir("identical");
    let _ = std::fs::remove_dir_all(&dir);
    let engine = Arc::new(Engine::new(2));

    let runs = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..3)
            .map(|_| {
                let grid = grid.clone();
                let engine = Arc::clone(&engine);
                let dir = dir.clone();
                scope.spawn(move || {
                    Campaign::new(2)
                        .quiet()
                        .cache_dir(dir)
                        .on_engine(engine)
                        .run(grid)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("submitter panicked"))
            .collect::<Vec<_>>()
    });

    // Every submitter resolved every point, and all three returned the
    // serial results, bit for bit.
    for run in &runs {
        assert_eq!(
            run.summary.fresh + run.summary.cache_hits,
            run.summary.unique
        );
        assert_eq!(encode_all(&run.outcomes), reference);
    }

    let _ = std::fs::remove_dir_all(&dir);
}
