//! Golden checks for the kernel's bit-reproducibility contract.
//!
//! The committed `results/*.txt` and the 716-entry `results/cache/` are
//! the regression oracle for every kernel optimization: hot-path changes
//! must leave both the simulated numbers and the config fingerprints
//! untouched. Three layers of defense:
//!
//! 1. `cache_key` is pinned to a literal — silent fingerprint drift fails
//!    with a readable diff.
//! 2. The committed cache must *hit* for the whole Fig. 5 grid, and every
//!    registry figure but the closed-loop sweep (whose telemetry no entry
//!    holds) is re-rendered from loaded entries alone, the fault sweep's
//!    partitioned points from building their networks, and must match its
//!    committed text byte for byte. Loads are re-verified against the
//!    stored full fingerprint, so this breaks if either the fingerprint or
//!    the result encoding changes.
//! 3. Eight sampled Figs. 10–12 points are re-simulated and must encode
//!    to their committed entries' bytes, so a kernel change that moves a
//!    result fails plain `cargo test`, not only the ignored loop below.
//! 4. The `#[ignore]`d loop re-simulates every registry figure from
//!    scratch (no cache) and proves the kernel itself still produces the
//!    bytes.

use mn_bench::figures::{self, Figure};
use mn_bench::{fig05_points, fig05_table, Harness};
use mn_campaign::codec::encode_result;
use mn_campaign::{CampaignError, CampaignPoint, DiskCache};
use mn_core::SystemConfig;
use mn_noc::ArbiterKind;
use mn_topo::TopologyKind;
use mn_workloads::Workload;

const RESULTS: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results");

fn committed_cache() -> DiskCache {
    DiskCache::new(format!("{RESULTS}/cache"))
}

fn golden(figure: &Figure) -> String {
    let path = format!("{RESULTS}/{}.txt", figure.name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

/// The knobs that change simulated results (the knob table's `results`
/// rows: requests, seed, the fault overrides and the closed-loop host
/// knobs) reshape every figure grid; the goldens were produced with their
/// defaults. Observational knobs such as `MN_TRACE` never change the
/// numbers, so the goldens must hold under them too.
fn env_is_default() -> bool {
    mn_campaign::KNOBS
        .iter()
        .filter(|knob| knob.results)
        .all(|knob| std::env::var_os(knob.name).is_none_or(|value| value.is_empty()))
}

#[test]
fn fingerprints_survive_kernel_changes() {
    // One fully specified point, pinned end to end. If this fails, cached
    // results can no longer be served and every figure regenerates from
    // scratch — that is a behavior change, not a refactor; either restore
    // the fingerprint or bump `SIM_VERSION` and regenerate the goldens.
    let mut config = SystemConfig::paper_baseline(TopologyKind::Chain, 1.0).unwrap();
    config.requests_per_port = 6_000;
    let point = CampaignPoint::new(config, Workload::Dct);
    assert_eq!(point.cache_key(), "348808c871d2e161");
}

/// Telemetry's zero-perturbation contract, checked against the committed
/// goldens themselves: a full-tracing run of the pinned point must encode
/// to exactly the bytes stored in `results/cache/` by an untraced run.
#[test]
#[ignore = "re-simulates the pinned chain point; run with --ignored"]
fn full_tracing_reproduces_the_committed_golden_bytes() {
    if !env_is_default() {
        eprintln!("skipping: MN_REQUESTS/MN_SEED override the golden grid");
        return;
    }
    let mut config = SystemConfig::paper_baseline(TopologyKind::Chain, 1.0).unwrap();
    config.requests_per_port = 6_000;
    config.noc.trace = mn_core::TraceConfig::Full;
    let point = CampaignPoint::new(config.clone(), Workload::Dct);
    // Tracing is excluded from the fingerprint, so the traced point still
    // addresses the committed entry...
    assert_eq!(point.cache_key(), "348808c871d2e161");
    let cached = committed_cache().load(&point).expect("committed entry");
    // ...and a traced re-simulation must reproduce its exact bytes.
    let traced = mn_core::try_simulate(&config, Workload::Dct).expect("simulates");
    assert!(traced.telemetry.is_some(), "tracing was on");
    assert_eq!(
        mn_campaign::codec::encode_result(&traced),
        mn_campaign::codec::encode_result(&cached),
    );
}

#[test]
fn committed_cache_serves_the_fig05_grid() {
    if !env_is_default() {
        eprintln!("skipping: MN_REQUESTS/MN_SEED override the golden grid");
        return;
    }
    let cache = committed_cache();
    for point in fig05_points() {
        assert!(
            cache.load(&point).is_some(),
            "cache miss for {} / {} (key {}): kernel changes altered the \
             fingerprint or the stored results",
            point.config.label(),
            point.workload.label(),
            point.cache_key(),
        );
    }
}

/// Fig. 5 through its own table renderer rather than the registry's
/// `render`, so the exported `fig05_table` stays pinned to the golden.
#[test]
fn fig05_regenerates_byte_identically_from_cache() {
    if !env_is_default() {
        eprintln!("skipping: MN_REQUESTS/MN_SEED override the golden grid");
        return;
    }
    let cache = committed_cache();
    let results: Vec<_> = fig05_points()
        .iter()
        .map(|p| cache.load(p).expect("covered by the cache-hit test"))
        .collect();
    let want = std::fs::read_to_string(format!("{RESULTS}/fig05.txt")).expect("fig05 golden");
    assert_eq!(fig05_table(&results), want);
}

/// The registry and the committed goldens name the same figures: every
/// registry figure has a `results/<name>.txt`, and every committed text
/// but the two non-simulating tables comes from a registry figure.
#[test]
fn every_golden_is_a_registry_figure() {
    let mut registry: Vec<String> = figures::ALL
        .iter()
        .map(|build| build().name.to_string())
        .collect();
    registry.sort();
    let mut goldens: Vec<String> = std::fs::read_dir(RESULTS)
        .expect("results/ is committed")
        .filter_map(|entry| {
            let name = entry.ok()?.file_name().into_string().ok()?;
            Some(name.strip_suffix(".txt")?.to_string())
        })
        .filter(|name| name != "table1" && name != "table2")
        .collect();
    goldens.sort();
    assert_eq!(registry, goldens);
}

/// Whether the committed cache can replay `figure`. The closed-loop
/// sweep cannot: its render reads telemetry, which no cache entry holds,
/// so the campaign simulates every one of its points.
fn replayable(figure: &Figure) -> bool {
    figure.name != "closed_loop"
}

/// `point`'s result as a warm campaign resolves it without simulating:
/// its committed entry, or, for a missed point with a fault schedule, the
/// error building its network reports (the error every port reports).
fn replay(cache: &DiskCache, point: &CampaignPoint) -> Option<figures::PointResult> {
    if let Some(result) = cache.load(point) {
        return Some(Ok(result));
    }
    if !point.config.noc.fault.enabled() {
        return None;
    }
    let error = mn_core::try_build_network(&point.config).err()?;
    Some(Err(CampaignError::Sim { port: 0, error }))
}

/// Every file in the committed cache directory as `(name, len, mtime)`.
fn cache_listing() -> Vec<(String, u64, std::time::SystemTime)> {
    let mut files: Vec<_> = std::fs::read_dir(format!("{RESULTS}/cache"))
        .expect("results/cache is committed")
        .map(|entry| {
            let entry = entry.unwrap();
            let meta = entry.metadata().unwrap();
            let name = entry.file_name().to_string_lossy().into_owned();
            (name, meta.len(), meta.modified().unwrap())
        })
        .collect();
    files.sort();
    files
}

/// Every replayable registry figure, rendered from the committed cache
/// alone (the fault sweep's three partitioned points from building their
/// networks, as a warm campaign resolves them): a missing entry fails the
/// test instead of simulating, so this stays cheap in a debug build. The
/// replay only reads: it leaves every file in `results/cache/` as it
/// found it.
#[test]
fn cached_figures_replay_byte_identically() {
    if !env_is_default() {
        eprintln!("skipping: result-changing knobs override the golden grids");
        return;
    }
    let before = cache_listing();
    let cache = committed_cache();
    let figures = figures::ALL.map(|build| build());
    let replayed: Vec<_> = figures.into_iter().filter(replayable).collect();
    assert_eq!(replayed.len(), 13, "every figure but the closed-loop sweep");
    for figure in replayed {
        let results: Vec<Vec<figures::PointResult>> = figure
            .campaigns
            .iter()
            .map(|points| {
                points
                    .iter()
                    .map(|point| {
                        replay(&cache, point).unwrap_or_else(|| {
                            panic!(
                                "{}: cache miss for {} / {} (key {}): kernel changes \
                                 altered the fingerprint or the stored results",
                                figure.name,
                                point.config.label(),
                                point.workload.label(),
                                point.cache_key(),
                            )
                        })
                    })
                    .collect()
            })
            .collect();
        assert_eq!(
            (figure.render)(&results),
            golden(&figure),
            "{}: the replay differs from results/{}.txt",
            figure.name,
            figure.name,
        );
    }
    assert!(
        cache_listing() == before,
        "the replay wrote to results/cache/"
    );
}

/// The kernel's drift check in tier-1: the replays above only decode
/// committed bytes, so they pass whatever the kernel now computes. Eight
/// Figs. 10–12 points are re-simulated instead, and each must encode to
/// its committed entry's exact bytes. Together they cover the chain,
/// ring, tree, skip-list (with write-burst routing) and MetaCube
/// networks, the round-robin, distance and adaptive arbiters, and an
/// all-NVM mix; each takes well under a second even in a debug build.
#[test]
fn sampled_points_resimulate_to_their_committed_bytes() {
    if !env_is_default() {
        eprintln!("skipping: result-changing knobs override the golden grids");
        return;
    }
    use ArbiterKind::{AdaptiveDistance, Distance, RoundRobin};
    use TopologyKind::{Chain, MetaCube, Ring, SkipList, Tree};
    let (fig10, fig11, fig12) = (figures::fig10(), figures::fig11(), figures::fig12());
    // (campaign, topology, DRAM share, arbiter, workload)
    let picks = [
        (&fig10.campaigns[0], Chain, 1.0, Distance, Workload::Dct),
        (&fig10.campaigns[0], Ring, 0.0, Distance, Workload::Kmeans),
        (&fig10.campaigns[1], Tree, 1.0, RoundRobin, Workload::Bit),
        (&fig10.campaigns[1], Chain, 1.0, RoundRobin, Workload::Nw),
        (
            &fig11.campaigns[0],
            MetaCube,
            1.0,
            RoundRobin,
            Workload::Buff,
        ),
        (
            &fig11.campaigns[0],
            SkipList,
            1.0,
            RoundRobin,
            Workload::Dct,
        ),
        (
            &fig12.campaigns[0],
            SkipList,
            1.0,
            AdaptiveDistance,
            Workload::Backprop,
        ),
        (
            &fig12.campaigns[0],
            Tree,
            0.0,
            AdaptiveDistance,
            Workload::Kmeans,
        ),
    ];
    let cache = committed_cache();
    for (points, topology, dram, arbiter, workload) in picks {
        let point = points
            .iter()
            .find(|p| {
                p.config.topology == topology
                    && p.config.dram_fraction == dram
                    && p.config.noc.arbiter == arbiter
                    && p.workload == workload
            })
            .unwrap_or_else(|| panic!("no {topology:?} {dram} {arbiter:?} {workload:?} point"));
        let label = format!("{} / {}", point.config.label(), workload.label());
        let committed = cache
            .load(point)
            .unwrap_or_else(|| panic!("{label}: no committed entry"));
        let fresh = mn_core::try_simulate(&point.config, workload).expect("simulates");
        assert!(
            encode_result(&fresh) == encode_result(&committed),
            "{label}: the re-simulated result differs from its committed entry"
        );
    }
}

/// The closed-loop sweep is never cached (its points ask for telemetry),
/// so no replay above covers its host-window path. Three of its points
/// are re-simulated here instead: a serializing fixed window on the
/// chain, AIMD on the tree and ECN on the skip-list, the last two at 16
/// issue slots. Each must encode to the pinned bytes and report the
/// pinned Jain index, steady-state window and marked fraction, the three
/// telemetry values its row prints.
#[test]
fn closed_loop_points_resimulate_to_their_pinned_values() {
    if !env_is_default() {
        eprintln!("skipping: result-changing knobs override the golden grids");
        return;
    }
    use mn_core::WindowPolicyKind::{Aimd, Ecn, Fixed};
    use TopologyKind::{Chain, SkipList, Tree};
    let sweep = figures::closed_loop();
    // (topology, policy, slots, encoded-result hash, Jain, window, marked)
    let picks = [
        (
            Chain,
            Fixed(1),
            4,
            11_833_552_045_737_147_453,
            0.973_465_311_763_911_2_f64,
            1.0_f64,
            0.0_f64,
        ),
        (
            Tree,
            Aimd,
            16,
            2_101_850_845_358_898_125,
            0.914_356_327_204_451,
            64.0,
            0.0,
        ),
        (
            SkipList,
            Ecn,
            16,
            3_104_580_970_701_344_184,
            0.902_725_827_960_291,
            6.455_186_304_128_902,
            0.059_166_666_666_666_666,
        ),
    ];
    for (topology, policy, slots, hash, jain, window, marked) in picks {
        let point = sweep.campaigns[0]
            .iter()
            .find(|p| {
                p.config.topology == topology
                    && p.config.host.policy == policy
                    && p.config.window == slots
            })
            .unwrap_or_else(|| panic!("no {topology:?} {policy:?} {slots}-slot point"));
        let label = format!("{} / {slots} slots", point.config.label());
        let result = mn_core::try_simulate(&point.config, point.workload).expect("simulates");
        let tele = result
            .telemetry
            .as_deref()
            .expect("the sweep runs with telemetry");
        let host = tele
            .host
            .as_ref()
            .expect("a closed-loop point records its host");
        let got = (
            fnv1a64(encode_result(&result).as_bytes()),
            tele.fairness.jain(),
            host.steady_window(),
            host.marked_fraction(),
        );
        assert_eq!(
            (got.0, got.1.to_bits(), got.2.to_bits(), got.3.to_bits()),
            (hash, jain.to_bits(), window.to_bits(), marked.to_bits()),
            "{label}: (hash, jain, window, marked) read {got:?}"
        );
    }
}

/// 64-bit FNV-1a, enough to pin an encoded result in one literal.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// From-scratch variant: re-simulates every registry figure with no
/// cache and demands the committed bytes. `#[ignore]`d for local `cargo
/// test` speed; CI's golden step runs it.
#[test]
#[ignore = "re-simulates every figure; run with --ignored"]
fn every_figure_regenerates_from_scratch() {
    if !env_is_default() {
        eprintln!("skipping: result-changing knobs override the golden grids");
        return;
    }
    for figure in figures::ALL.map(|build| build()) {
        let (name, want) = (figure.name, golden(&figure));
        assert_eq!(
            Harness::bare(2).render(figure),
            want,
            "{name}: the regeneration differs from results/{name}.txt",
        );
    }
}
