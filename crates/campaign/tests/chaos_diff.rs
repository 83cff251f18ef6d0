//! Differential proof of the crash-safety contract (`DESIGN.md`
//! §"Robustness & recovery"): every recovery path — caught panics with
//! retry, cache corruption with quarantine, stale temp litter with the
//! open-time sweep, kill-and-rerun against the same cache — converges
//! to results **byte-identical** to an undisturbed run. Proven
//! differentially: run both sides and compare the rendered sink records
//! byte for byte.
//!
//! Only provenance columns may differ between a disturbed run and a clean
//! one (`cached`, `attempts`, `host_ms` — *how* a result was obtained);
//! every measurement column must not. `stable_render` strips exactly
//! those three and nothing else.

use std::path::PathBuf;

use mn_campaign::sink::{point_record, write_records, OutputFormat, Record};
use mn_campaign::{Campaign, CampaignPoint, ChaosPlan, PointOutcome};
use mn_core::SystemConfig;
use mn_topo::TopologyKind;
use mn_workloads::Workload;

/// The provenance columns that legitimately differ between a disturbed
/// run and a clean one. Everything else is a measurement and must match.
const VOLATILE: &[&str] = &["cached", "attempts", "host_ms"];

/// The full sink rendering of a run minus the volatile columns: the byte
/// string two equivalent runs must agree on.
fn stable_render(outcomes: &[PointOutcome]) -> String {
    let records: Vec<Record> = outcomes
        .iter()
        .map(|o| {
            point_record(o)
                .into_iter()
                .filter(|(key, _)| !VOLATILE.contains(key))
                .collect()
        })
        .collect();
    let mut bytes = Vec::new();
    write_records(&mut bytes, OutputFormat::Json, &records).unwrap();
    String::from_utf8(bytes).unwrap()
}

fn point(topology: TopologyKind, workload: Workload, seed: u64) -> CampaignPoint {
    let mut config = SystemConfig::paper_baseline(topology, 1.0).unwrap();
    config.requests_per_port = 150;
    config.seed = seed;
    CampaignPoint::new(config, workload)
}

/// A small mixed grid: four distinct points plus a duplicate of the
/// first (the folded-baseline path must survive chaos too).
fn grid() -> Vec<CampaignPoint> {
    vec![
        point(TopologyKind::Chain, Workload::Nw, 1),
        point(TopologyKind::Tree, Workload::Dct, 2),
        point(TopologyKind::Ring, Workload::Nw, 3),
        point(TopologyKind::Chain, Workload::Dct, 4),
        point(TopologyKind::Chain, Workload::Nw, 1),
    ]
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mn-chaos-diff-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The core differential: seeded chaos schedules (worker panics, cache
/// damage, litter) × worker counts × cache on/off, every combination
/// byte-identical to the one undisturbed run. The cache-on arm runs
/// twice on one directory so the second pass reads — and chaos damages —
/// entries the first pass stored, driving the quarantine path. Both
/// passes share this process, so the second names the directory another
/// way: its hot tier starts empty and every load reads the disk, as a
/// second process would.
#[test]
fn chaos_schedules_converge_to_clean_bytes() {
    let clean = stable_render(&Campaign::new(1).quiet().run(grid()).outcomes);
    for seed in [1u64, 0xBEEF, 0x5EED42] {
        for rate in [0.3, 1.0] {
            for jobs in [1usize, 8] {
                let plan = ChaosPlan::new(seed, rate);
                let tag = format!("seed {seed:#x} rate {rate} jobs {jobs}");

                let chaotic = Campaign::new(jobs)
                    .quiet()
                    .retries(3)
                    .chaos(plan)
                    .run(grid());
                assert_eq!(chaotic.summary.failed, 0, "{tag} (no cache)");
                assert_eq!(
                    stable_render(&chaotic.outcomes),
                    clean,
                    "{tag} (no cache) diverged from the undisturbed run"
                );

                let dir = scratch(&format!("s{seed:x}-r{}-j{jobs}", (rate * 10.0) as u32));
                let second_name = dir.join("..").join(dir.file_name().unwrap());
                for (pass, cache_dir) in [&dir, &second_name].into_iter().enumerate() {
                    let out = Campaign::new(jobs)
                        .quiet()
                        .retries(3)
                        .cache_dir(cache_dir)
                        .chaos(plan)
                        .run(grid());
                    assert_eq!(out.summary.failed, 0, "{tag} (cache pass {pass})");
                    assert_eq!(
                        stable_render(&out.outcomes),
                        clean,
                        "{tag} (cache pass {pass}) diverged from the undisturbed run"
                    );
                }
                // At rate 1.0 chaos damages every entry the second pass
                // reads, so each one must have been quarantined.
                if rate == 1.0 {
                    let quarantined = std::fs::read_dir(&dir)
                        .unwrap()
                        .filter(|e| {
                            let path = e.as_ref().unwrap().path();
                            path.extension().is_some_and(|x| x == "corrupt")
                        })
                        .count();
                    assert_eq!(quarantined, 4, "{tag}: quarantined entries");
                }
                let _ = std::fs::remove_dir_all(&dir);
            }
        }
    }
}

/// Kill-and-resume: a run that died partway left its first points in
/// the cache, stored as each landed, and the temp files of the stores it
/// was cut off in. Rerunning the full grid against the same cache serves
/// those points, simulates the rest and lands on the clean run's exact
/// bytes; a further rerun simulates nothing. Each rerun names the
/// directory another way, so its hot tier starts empty and every load
/// reads the disk, as a new process would.
#[test]
fn kill_and_resume_matches_the_undisturbed_run() {
    let dir = scratch("resume");
    let cache = dir.join("cache");
    let clean = stable_render(&Campaign::new(2).quiet().run(grid()).outcomes);

    // The "killed" run: only the first two points completed.
    let partial: Vec<CampaignPoint> = grid().into_iter().take(2).collect();
    let first = Campaign::new(2).quiet().cache_dir(&cache).run(partial);
    assert_eq!(first.summary.fresh, 2);

    // The crash left half-written temp files beside the stored entries.
    ChaosPlan::new(7, 1.0).litter_cache_dir(&cache);
    let litter = || {
        let entries = std::fs::read_dir(&cache).unwrap().flatten();
        let names = entries.map(|e| e.file_name().to_string_lossy().into_owned());
        names.filter(|name| name.ends_with(".tmp")).count()
    };
    assert!(litter() > 0);

    // Rerun the full grid: stored points are served, the rest simulate.
    let rerun = dir.join("..").join(dir.file_name().unwrap()).join("cache");
    let resumed = Campaign::new(2).quiet().cache_dir(&rerun).run(grid());
    let s = &resumed.summary;
    assert_eq!((s.cache_hits, s.fresh, s.failed), (2, 2, 0));
    assert_eq!(stable_render(&resumed.outcomes), clean);
    assert_eq!(litter(), 0, "the rerun swept the dead run's temp files");

    // Third run: everything is cached, nothing simulates.
    let again = cache.join("..").join("cache");
    let replayed = Campaign::new(2).quiet().cache_dir(&again).run(grid());
    assert_eq!(
        (replayed.summary.cache_hits, replayed.summary.fresh),
        (4, 0)
    );
    assert_eq!(stable_render(&replayed.outcomes), clean);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The zero-chaos path is inert and fingerprint-invisible: a rate-0 plan
/// never touches disk, and none of the robustness machinery (retry
/// budgets, watchdog escalation) shifts the pinned golden cache key.
#[test]
fn zero_chaos_leaves_the_pinned_fingerprint_untouched() {
    let dir = scratch("zero");
    let plan = ChaosPlan::new(123, 0.0);
    plan.litter_cache_dir(&dir);
    assert!(
        std::fs::read_dir(&dir).unwrap().next().is_none(),
        "a rate-0 plan must not touch the filesystem"
    );
    let _ = std::fs::remove_dir_all(&dir);

    // The same literal `mn-bench`'s golden suite pins: robustness rode
    // in without moving a single committed cache key.
    let mut config = SystemConfig::paper_baseline(TopologyKind::Chain, 1.0).unwrap();
    config.requests_per_port = 6_000;
    let point = CampaignPoint::new(config.clone(), Workload::Dct);
    assert_eq!(point.cache_key(), "348808c871d2e161");

    // Watchdog escalation is outside the fingerprint: a retried attempt
    // addresses the same cache entry its first attempt would have.
    let mut escalated = config;
    escalated.escalate_watchdog(3);
    assert_eq!(
        CampaignPoint::new(escalated, Workload::Dct).cache_key(),
        "348808c871d2e161"
    );
}

/// The soak behind EXPERIMENTS.md's chaos table: a 500-point grid swept
/// across injection rates, each run byte-compared to the clean one, with
/// the attempt distribution printed for the record.
#[test]
#[ignore = "chaos soak for EXPERIMENTS.md; run with --ignored --nocapture"]
fn chaos_soak_500_points() {
    let topologies = [
        TopologyKind::Chain,
        TopologyKind::Tree,
        TopologyKind::Ring,
        TopologyKind::SkipList,
    ];
    let workloads = [Workload::Nw, Workload::Dct];
    let soak: Vec<CampaignPoint> = (0..125u64)
        .flat_map(|i| {
            topologies
                .into_iter()
                .map(move |t| point(t, workloads[(i % 2) as usize], 1_000 + i))
        })
        .collect();
    assert_eq!(soak.len(), 500);

    let clean = stable_render(&Campaign::new(8).quiet().run(soak.clone()).outcomes);
    println!("rate   diverged  retried  attempts histogram (attempts: points)");
    for rate in [0.0, 0.2, 0.5, 0.8] {
        let out = Campaign::new(8)
            .quiet()
            .retries(3)
            .chaos(ChaosPlan::new(0x50AC, rate))
            .run(soak.clone());
        let render = stable_render(&out.outcomes);
        let mut histogram = std::collections::BTreeMap::new();
        for o in &out.outcomes {
            *histogram.entry(o.attempts).or_insert(0u32) += 1;
        }
        let histogram: Vec<String> = histogram
            .iter()
            .map(|(attempts, n)| format!("{attempts}: {n}"))
            .collect();
        println!(
            "{rate:<6} {:>8} {:>8}  {}",
            u32::from(render != clean),
            out.summary.retried,
            histogram.join(", "),
        );
        assert_eq!(out.summary.failed, 0, "rate {rate}");
        assert_eq!(render, clean, "rate {rate} diverged from the clean run");
    }
}
