//! Differential proof of the crash-safety contract (`DESIGN.md`
//! §"Robustness & recovery"): every recovery path — cache corruption
//! with quarantine, stale temp litter with the open-time sweep,
//! kill-and-rerun against the same cache — converges to results
//! **byte-identical** to an undisturbed run. Proven differentially: run
//! both sides and compare the rendered sink records byte for byte.
//!
//! Only provenance columns may differ between a disturbed run and a clean
//! one (`cached`, `host_ms` — *how* a result was obtained); every
//! measurement column must not. `stable_render` strips exactly those two
//! and nothing else.

use std::path::{Path, PathBuf};

use mn_campaign::sink::{point_record, write_records, OutputFormat, Record};
use mn_campaign::{Campaign, CampaignPoint, PointOutcome};
use mn_core::SystemConfig;
use mn_topo::TopologyKind;
use mn_workloads::Workload;

/// The provenance columns that legitimately differ between a disturbed
/// run and a clean one. Everything else is a measurement and must match.
const VOLATILE: &[&str] = &["cached", "host_ms"];

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
/// first (the folded-baseline path must survive damage too).
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

/// The files in `dir` whose names end with `suffix`, sorted.
fn files_ending(dir: &Path, suffix: &str) -> Vec<PathBuf> {
    let mut found: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.to_string_lossy().ends_with(suffix))
        .collect();
    found.sort();
    found
}

/// Damages every stored entry in `dir`, taking three kinds of damage in
/// turn: truncated to half (a torn write), a rotten header (a writer of
/// another version) and a trailing byte that is not UTF-8 (bit rot).
/// Returns how many entries it damaged.
fn damage_entries(dir: &Path) -> usize {
    let entries = files_ending(dir, ".mnres");
    for (i, path) in entries.iter().enumerate() {
        let mut body = std::fs::read(path).unwrap();
        match i % 3 {
            0 => body.truncate(body.len() / 2),
            1 => drop(body.splice(0..0, *b"mncampaign-cache v0-rotten\n")),
            _ => body.push(0xFF),
        };
        std::fs::write(path, body).unwrap();
    }
    entries.len()
}

/// Leaves the half-written temp files a killed store would have left in
/// `dir`.
fn litter(dir: &Path) {
    for i in 0..3 {
        let name = format!(".stale{i:016x}.{i}.tmp");
        std::fs::write(dir.join(name), b"torn half-written cache entry").unwrap();
    }
}

/// Cache damage, differentially: a run over a cache whose every entry
/// was damaged, with stale temp files beside them, lands on the
/// undisturbed run's bytes at any worker count. Each damaged entry is
/// quarantined to `<key>.corrupt` as a miss and simulated again, and the
/// open-time sweep removes the litter. The damaged pass names the
/// directory another way, so its hot tier starts empty and every load
/// reads the disk, as a second process would.
#[test]
fn damaged_entries_are_quarantined_to_clean_bytes() {
    let clean = stable_render(&Campaign::new(1).quiet().run(grid()).outcomes);
    for jobs in [1usize, 8] {
        let dir = scratch(&format!("damage-j{jobs}"));
        let run = |cache_dir: &Path| Campaign::new(jobs).quiet().cache_dir(cache_dir).run(grid());
        let stored = run(&dir);
        assert_eq!(
            stable_render(&stored.outcomes),
            clean,
            "jobs {jobs}: first pass"
        );

        assert_eq!(
            damage_entries(&dir),
            4,
            "jobs {jobs}: one entry per distinct point"
        );
        litter(&dir);
        let damaged = run(&dir.join("..").join(dir.file_name().unwrap()));
        let s = &damaged.summary;
        assert_eq!((s.cache_hits, s.fresh, s.failed), (0, 4, 0), "jobs {jobs}");
        assert_eq!(
            stable_render(&damaged.outcomes),
            clean,
            "jobs {jobs}: the damaged pass diverged from the undisturbed run"
        );
        assert_eq!(
            files_ending(&dir, ".corrupt").len(),
            4,
            "jobs {jobs}: quarantined"
        );
        assert_eq!(
            files_ending(&dir, ".tmp").len(),
            0,
            "jobs {jobs}: litter swept"
        );
        let _ = std::fs::remove_dir_all(&dir);
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
    litter(&cache);
    let litter = || files_ending(&cache, ".tmp").len();
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

/// Undisturbed runs keep the committed cache keys: the literal
/// `mn-bench`'s golden suite pins, which no robustness work may move.
#[test]
fn zero_chaos_leaves_the_pinned_fingerprint_untouched() {
    let mut config = SystemConfig::paper_baseline(TopologyKind::Chain, 1.0).unwrap();
    config.requests_per_port = 6_000;
    let point = CampaignPoint::new(config, Workload::Dct);
    assert_eq!(point.cache_key(), "348808c871d2e161");
}
