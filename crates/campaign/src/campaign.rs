//! The deterministic campaign front-end.
//!
//! A [`Campaign`] takes a list of [`CampaignPoint`]s and produces one
//! [`PointOutcome`] per point, in input order, with four guarantees:
//!
//! 1. **Bit-identical to serial.** Points never share mutable state — each
//!    carries its own seed inside its config, and `mn_core::simulate_port`
//!    is a pure function of `(config, workload, port)` — so the worker
//!    count only changes wall-clock time, never results. Cache misses are
//!    decomposed into *per-port* jobs (ports serve disjoint address
//!    slices), executed on a shared FIFO [`Engine`], and merged
//!    in ascending port order, so even a single huge multi-port point
//!    parallelizes without perturbing a bit of output. The determinism
//!    test in `tests/determinism.rs` pins this.
//! 2. **Duplicates are folded.** Points with equal fingerprints (e.g. the
//!    `100%-C` baseline submitted once per workload-normalized figure) are
//!    simulated once and replicated.
//! 3. **Finished points are cached.** With a [`DiskCache`] attached,
//!    points are served from disk when a prior run — this figure binary or
//!    any other — already simulated them. A point that asks for telemetry
//!    is neither served nor stored, since no entry holds telemetry: it
//!    simulates on every run.
//! 4. **Failures are contained and final.** A panicking point is caught
//!    at the worker loop and becomes a structured
//!    [`CampaignError::PointPanicked`] record; a stall, a partition and a
//!    lost worker become records too, and none is re-run: a point is a
//!    pure function of its config, so a second run would fail the same
//!    way. A killed run resumes by rerunning against the same cache,
//!    which stored each finished point as it landed, and damaged entries
//!    are quarantined as misses; both land on results byte-identical to
//!    an undisturbed run (`tests/chaos_diff.rs` pins this).
//!
//! Campaigns submitted concurrently to one [`Engine`] share its workers
//! and stay byte-identical to serial runs (`tests/concurrent.rs` pins
//! this). They do not coordinate: a point two of them miss at the same
//! moment simulates in both, and both cache stores write the same bytes
//! by tmp+rename. Every caller in the repo runs its campaigns one after
//! another, so the cache serves any overlap.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::panic;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, OnceLock};
use std::time::{Duration, Instant};

use mn_core::{merge_port_observations, port_count, PortObservation, RunResult, SimError};

use crate::cache::DiskCache;
use crate::engine::{Delivery, Engine, Job, Reply};
use crate::error::CampaignError;
use crate::knobs::Knobs;
use crate::point::{fnv1a64, CampaignPoint, WordMap};
use crate::report::{CampaignSummary, Progress};

/// The outcome of one grid point.
#[derive(Debug, Clone)]
pub struct PointOutcome {
    /// The point that was executed.
    pub point: CampaignPoint,
    /// Its simulation result (fresh or from the cache), or why this
    /// point has none. A failed point never aborts the grid: the other
    /// points complete and the error travels with its point.
    pub result: Result<RunResult, CampaignError>,
    /// True when the result came from the result cache rather than a
    /// fresh simulation.
    pub cached: bool,
    /// Always false: campaigns no longer hand results to each other.
    /// Kept only because the frozen benchmark package reads it; retire it
    /// with the next benchmark change.
    pub coalesced: bool,
    /// Host wall-clock spent obtaining this result (near zero for cache
    /// hits and folded duplicates).
    pub host: Duration,
}

/// Everything a campaign run produced.
#[derive(Debug)]
pub struct CampaignOutcome {
    /// One outcome per submitted point, in submission order.
    pub outcomes: Vec<PointOutcome>,
    /// Aggregate counters for reporting and tests.
    pub summary: CampaignSummary,
}

impl CampaignOutcome {
    /// Just the results, in submission order.
    ///
    /// # Panics
    ///
    /// Panics with the failing point's label, workload, and error if any
    /// point failed — the figure binaries expect complete grids; inspect
    /// `outcomes` directly when failures are expected.
    pub fn into_results(self) -> Vec<RunResult> {
        self.outcomes
            .into_iter()
            .map(|o| {
                o.result.unwrap_or_else(|e| {
                    panic!(
                        "campaign point {} / {} failed: {e}",
                        o.point.config.label(),
                        o.point.workload.label()
                    )
                })
            })
            .collect()
    }
}

/// The campaign configuration (builder-style).
#[derive(Debug)]
pub struct Campaign {
    jobs: usize,
    cache: Option<DiskCache>,
    quiet: bool,
    engine: OnceLock<Arc<Engine>>,
}

impl Campaign {
    /// The knob-driven campaign every figure binary uses ([`Knobs::get`]):
    /// the process-global [`Engine`] sized by `MN_JOBS` (default:
    /// available parallelism) and the cache in `MN_CACHE_DIR` (default
    /// `results/cache/`; `MN_CACHE=off` detaches it).
    pub fn from_env() -> Campaign {
        let knobs = Knobs::get();
        let campaign = Campaign::new(knobs.jobs());
        let _ = campaign.engine.set(Engine::global());
        if knobs.cache {
            campaign.cache_dir(&knobs.cache_dir)
        } else {
            campaign
        }
    }

    /// A campaign with an explicit worker count and no cache. It runs on
    /// a private engine unless one is attached with
    /// [`Campaign::on_engine`].
    pub fn new(jobs: usize) -> Campaign {
        Campaign {
            jobs: jobs.max(1),
            cache: None,
            quiet: false,
            engine: OnceLock::new(),
        }
    }

    /// Attaches an on-disk result cache rooted at `dir`.
    pub fn cache_dir(mut self, dir: impl Into<PathBuf>) -> Campaign {
        self.cache = Some(DiskCache::new(dir));
        self
    }

    /// Suppresses the stderr progress/summary reporting.
    pub fn quiet(mut self) -> Campaign {
        self.quiet = true;
        self
    }

    /// Runs this campaign on `engine` instead of a private pool, so
    /// concurrent campaigns share workers. [`Campaign::from_env`]
    /// attaches [`Engine::global`] automatically.
    pub fn on_engine(self, engine: Arc<Engine>) -> Campaign {
        let slot = OnceLock::new();
        let _ = slot.set(engine);
        Campaign {
            engine: slot,
            ..self
        }
    }

    /// Runs every point and returns outcomes in submission order.
    ///
    /// The run is four stages over one record per distinct point: `fold`
    /// the duplicates, `probe` the cache, `simulate` the misses and
    /// `tally` the summary; then every submitted point receives its
    /// record's result.
    ///
    /// Simulation failures (a fault schedule that partitions a topology, a
    /// stalled port, a panicking point) are confined to their point: the
    /// affected [`PointOutcome`] carries the [`CampaignError`] and every
    /// other point still completes. Every failure is final: the point ran
    /// once and is not re-dispatched. Failed points are never written to
    /// the cache; a missed point whose fault schedule partitions its
    /// network fails in the probe, without a job.
    /// Every other point without telemetry is stored as it lands, so
    /// rerunning a killed run against the same cache resumes it.
    ///
    /// # Panics
    ///
    /// Panics if a point's configuration panics the merge itself;
    /// per-point simulation panics are caught and recorded instead.
    pub fn run(&self, points: Vec<CampaignPoint>) -> CampaignOutcome {
        let mut progress = Progress::new(points.len(), self.quiet);
        let (mut records, canonical) = Campaign::fold(&points);
        self.probe(&mut records, &mut progress);
        let jobs = self.simulate(&mut records, &mut progress);
        let mut filled: Vec<Option<Filled>> =
            records.into_iter().map(Record::into_filled).collect();
        let summary = tally(&filled, points.len(), jobs, progress.started().elapsed());
        progress.finish(&summary);
        if let Some(cache) = &self.cache {
            // Fold this run's activity into the directory's lifetime
            // counters (best-effort; `mncube cache stats` reads them).
            cache.persist_counters();
        }
        // Each record's last submitted point takes its result by move;
        // only the true duplicates before it clone.
        let mut last = vec![0; filled.len()];
        for (index, &slot) in canonical.iter().enumerate() {
            last[slot] = index;
        }
        let outcomes = points.into_iter().zip(canonical).enumerate();
        let outcomes = outcomes.map(|(index, (point, slot))| {
            let filled = if last[slot] == index {
                filled[slot].take()
            } else {
                filled[slot].clone()
            };
            let filled = filled.expect("a record's last point takes its result");
            PointOutcome {
                point,
                result: filled.result,
                cached: filled.source == Source::Cached,
                coalesced: false,
                host: filled.host,
            }
        });
        CampaignOutcome {
            outcomes: outcomes.collect(),
            summary,
        }
    }

    /// Stage 1: one record per distinct fingerprint (formatted once, the
    /// cache key rendered from its FNV-1a word), and for each submitted
    /// point the index of the record whose result it receives.
    fn fold<'p>(points: &'p [CampaignPoint]) -> (Vec<Record<'p>>, Vec<usize>) {
        let prints = points.iter().map(CampaignPoint::fingerprint);
        let (distinct, canonical) = dedupe(prints, |print| fnv1a64(print.as_bytes()));
        let records = distinct
            .into_iter()
            .map(|d| Record {
                point: &points[d.first],
                fingerprint: d.print,
                key: format!("{:016x}", d.word),
                state: State::Unresolved,
            })
            .collect();
        (records, canonical)
    }

    /// Stage 2: serves every cacheable point the cache holds, and fails
    /// a missed point whose fault schedule partitions its network without
    /// simulating it (building the network decides that, the same way for
    /// every port); the rest stay unresolved for [`Campaign::simulate`].
    fn probe(&self, records: &mut [Record], progress: &mut Progress) {
        let Some(cache) = &self.cache else { return };
        for record in records.iter_mut().filter(|r| r.point.cacheable()) {
            let start = Instant::now();
            if let Some(result) = cache.load_keyed(&record.fingerprint, &record.key) {
                progress.tick(true);
                record.fill(Ok(result), Source::Cached, start.elapsed());
            } else if let Some(error) = build_failure(record.point) {
                progress.tick(false);
                let error = CampaignError::Sim { port: 0, error };
                record.fill(Err(error), Source::Built, start.elapsed());
            }
        }
    }

    /// Stage 3: simulates every unresolved point as one job per port (ports
    /// serve disjoint address slices, so a point's ports run concurrently)
    /// and returns the worker count the summary reports. Every job replies
    /// exactly once: a job its worker lost replies `LostWorker` as it is
    /// dropped, so the loop always ends with every point filled.
    fn simulate(&self, records: &mut [Record], progress: &mut Progress) -> usize {
        let (tx, rx) = mpsc::channel::<Delivery>();
        let mut jobs = Vec::new();
        for (slot, record) in records.iter_mut().enumerate() {
            if matches!(record.state, State::Unresolved) {
                let point = Arc::new(record.point.clone());
                let ports = port_count(&point.config);
                jobs.extend((0..ports).map(|port| Job {
                    point: Arc::clone(&point),
                    reply: Reply::new(slot, port, &tx),
                }));
                record.state = State::Gathering(Gather {
                    ports: (0..ports).map(|_| None).collect(),
                    host: Duration::ZERO,
                });
            }
        }
        let workers = self.jobs.min(jobs.len()).max(1);
        let engine = self.engine.get_or_init(|| Arc::new(Engine::new(self.jobs)));
        let outstanding = jobs.len();
        engine.submit(jobs);
        for delivery in rx.iter().take(outstanding) {
            self.land(&mut records[delivery.slot], delivery, progress);
        }
        workers
    }

    /// Lands one port. After the point's last port it is merged (in
    /// ascending port order, as the serial `simulate` merges) and cached,
    /// or recorded failed. Waiting for every port makes the error
    /// attribution deterministic: the lowest-numbered failing port speaks
    /// for the point.
    fn land(&self, record: &mut Record, delivery: Delivery, progress: &mut Progress) {
        let State::Gathering(gather) = &mut record.state else {
            unreachable!("only gathering points have jobs in flight")
        };
        gather.host += delivery.host;
        gather.ports[delivery.port as usize] = Some(delivery.outcome);
        if gather.ports.iter().any(Option::is_none) {
            return; // the point's other ports are still in flight
        }
        let host = gather.host;
        let (ok, expected) = (
            gather.ports.iter().flatten().filter(|p| p.is_ok()).count(),
            gather.ports.len(),
        );
        let landed: Result<Vec<_>, _> = gather.ports.iter_mut().flat_map(Option::take).collect();
        // A lost job reports only its own port; the point's error counts
        // every port.
        let landed = landed.map_err(|error| match error {
            CampaignError::LostWorker { .. } => CampaignError::LostWorker {
                landed: ok,
                expected,
            },
            error => error,
        });
        let result = landed.map(|obs| {
            let point = record.point;
            let result = merge_port_observations(&point.config, point.workload, obs);
            if let Some(cache) = self.cache.as_ref().filter(|_| point.cacheable()) {
                if let Err(err) = cache.store_keyed(&record.fingerprint, &record.key, &result) {
                    // Warn once, not per point: the point itself
                    // completed, uncached.
                    static STORE_WARNED: AtomicBool = AtomicBool::new(false);
                    if !STORE_WARNED.swap(true, Ordering::Relaxed) {
                        let dir = cache.dir().display();
                        eprintln!("warning: could not cache result in {dir}: {err}");
                    }
                }
            }
            result
        });
        progress.tick(false);
        record.fill(result, Source::Simulated, host);
    }
}

/// The failure building `point`'s network reports (a partition or an
/// over-ported node, both deterministic), if its fault schedule can fail
/// at all. An invalid configuration is left to the simulation, whose
/// worker records the panic against the point.
fn build_failure(point: &CampaignPoint) -> Option<SimError> {
    if !point.config.noc.fault.enabled() || point.config.placement().is_err() {
        return None;
    }
    panic::catch_unwind(|| mn_core::try_build_network(&point.config))
        .ok()?
        .err()
}

/// Stage 4: the run's summary, from every distinct point's result.
fn tally(
    filled: &[Option<Filled>],
    total: usize,
    jobs: usize,
    host_wall: Duration,
) -> CampaignSummary {
    let filled = || filled.iter().flatten();
    let count = |source| filled().filter(|f| f.source == source).count();
    CampaignSummary {
        total,
        unique: filled().count(),
        cache_hits: count(Source::Cached),
        fresh: count(Source::Simulated),
        failed: filled().filter(|f| f.result.is_err()).count(),
        jobs,
        host_wall,
        fresh_requests: filled()
            .filter(|f| f.source == Source::Simulated)
            .flat_map(|f| &f.result)
            .map(|r| r.reads + r.writes)
            .sum(),
        coalesced: 0,
    }
}

/// The first submitted point with a distinct fingerprint.
struct Distinct {
    /// Its index among the submitted points.
    first: usize,
    print: String,
    /// The fingerprint's 64-bit word, which the cache key renders.
    word: u64,
}

/// Folds `prints` into their distinct fingerprints, in first-occurrence
/// order, and maps each print to the index of its distinct entry.
///
/// Prints are looked up by `word`; full fingerprints are compared only
/// when two words are equal. Distinct fingerprints that share a word (a
/// 64-bit collision) still get an entry each, found by the full string;
/// they share a cache key, so the cache serves neither (its entry holds
/// one fingerprint, and a mismatch is a plain miss).
fn dedupe(
    prints: impl IntoIterator<Item = String>,
    word: impl Fn(&str) -> u64,
) -> (Vec<Distinct>, Vec<usize>) {
    let mut by_word: WordMap<usize> = WordMap::default();
    let mut collided: HashMap<String, usize> = HashMap::new();
    let (mut distinct, mut canonical) = (Vec::<Distinct>::new(), Vec::new());
    for (index, print) in prints.into_iter().enumerate() {
        let (word, next) = (word(&print), distinct.len());
        let slot = match by_word.entry(word) {
            Entry::Vacant(first) => *first.insert(next),
            Entry::Occupied(first) if distinct[*first.get()].print == print => *first.get(),
            Entry::Occupied(_) => *collided.entry(print.clone()).or_insert(next),
        };
        if slot == next {
            distinct.push(Distinct {
                first: index,
                print,
                word,
            });
        }
        canonical.push(slot);
    }
    (distinct, canonical)
}

/// One distinct point of a run — one per fingerprint — and how far it
/// has got.
struct Record<'p> {
    point: &'p CampaignPoint,
    fingerprint: String,
    key: String,
    state: State,
}

impl Record<'_> {
    fn fill(&mut self, result: PointResult, source: Source, host: Duration) {
        self.state = State::Filled(Filled {
            result,
            source,
            host,
        });
    }

    fn into_filled(self) -> Option<Filled> {
        match self.state {
            State::Filled(filled) => Some(filled),
            _ => unreachable!("every distinct point is resolved"),
        }
    }
}

// A filled record (336 bytes, the 304-byte result inline) outweighs a
// gathering one (40 bytes). Boxing it would cost an allocation per cache
// hit on the warm replay path; a run holds one record per distinct point.
#[allow(clippy::large_enum_variant)]
enum State {
    /// Not cached or simulated yet.
    Unresolved,
    /// Dispatched to the engine; ports are landing.
    Gathering(Gather),
    /// Resolved, by any source.
    Filled(Filled),
}

/// Where a distinct point's result came from.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Source {
    Simulated,
    Cached,
    /// Failed while the probe built its network.
    Built,
}

type PointResult = Result<RunResult, CampaignError>;

/// A resolved point: its result and how it was obtained.
#[derive(Clone)]
struct Filled {
    result: PointResult,
    source: Source,
    host: Duration,
}

/// The ports of a dispatched point, as they land.
struct Gather {
    /// Each port's observation or error, once it lands; the point is
    /// pending while any is `None`.
    ports: Vec<Option<Result<PortObservation, CampaignError>>>,
    host: Duration,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec;
    use mn_core::SystemConfig;
    use mn_topo::TopologyKind;
    use mn_workloads::Workload;

    fn tiny(topology: TopologyKind, seed: u64) -> CampaignPoint {
        let mut config = SystemConfig::paper_baseline(topology, 1.0).unwrap();
        config.requests_per_port = 150;
        config.seed = seed;
        CampaignPoint::new(config, Workload::Nw)
    }

    /// A fresh, empty directory for one test.
    fn scratch(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "mn-campaign-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn preserves_submission_order() {
        let points = vec![
            tiny(TopologyKind::Chain, 1),
            tiny(TopologyKind::Tree, 2),
            tiny(TopologyKind::Ring, 3),
        ];
        let outcome = Campaign::new(2).quiet().run(points);
        assert_eq!(outcome.summary.total, 3);
        assert_eq!(outcome.summary.unique, 3);
        assert_eq!(outcome.summary.fresh, 3);
        assert_eq!(outcome.summary.coalesced, 0);
        let labels: Vec<&str> = outcome
            .outcomes
            .iter()
            .map(|o| o.result.as_ref().unwrap().label.as_str())
            .collect();
        assert_eq!(labels, ["100%-C", "100%-T", "100%-R"]);
    }

    #[test]
    fn duplicate_points_fold_into_one_simulation() {
        let points = vec![
            tiny(TopologyKind::Chain, 7),
            tiny(TopologyKind::Chain, 7),
            tiny(TopologyKind::Chain, 7),
        ];
        let outcome = Campaign::new(3).quiet().run(points);
        assert_eq!(outcome.summary.total, 3);
        assert_eq!(outcome.summary.unique, 1);
        let walls: Vec<_> = outcome
            .outcomes
            .iter()
            .map(|o| o.result.as_ref().unwrap().wall)
            .collect();
        assert_eq!(walls[0], walls[1]);
        assert_eq!(walls[1], walls[2]);
    }

    #[test]
    fn empty_campaign_is_fine() {
        let outcome = Campaign::new(4).quiet().run(Vec::new());
        assert!(outcome.outcomes.is_empty());
        assert_eq!(outcome.summary.total, 0);
        assert_eq!(outcome.summary.sim_throughput_per_sec(), 0.0);
    }

    /// A point whose fault schedule partitions its chain. Every chain link
    /// is load-bearing, so any killed link severs the topology; a high
    /// kill rate makes the first seeds near-certain to do so.
    fn partitioned(seed: u64) -> CampaignPoint {
        let mut point = tiny(TopologyKind::Chain, seed);
        point.config.noc.fault.link_kill_rate = 0.9;
        point.config.noc.fault.seed = (0..64)
            .find(|&s| {
                let mut probe = point.clone();
                probe.config.noc.fault.seed = s;
                mn_core::try_simulate_port(&probe.config, probe.workload, 0).is_err()
            })
            .expect("some fault seed kills a chain link");
        point
    }

    #[test]
    fn a_failed_point_does_not_sink_the_grid() {
        let points = vec![
            tiny(TopologyKind::Tree, 11),
            partitioned(12),
            tiny(TopologyKind::Ring, 13),
        ];
        let outcome = Campaign::new(2).quiet().run(points);
        assert_eq!(outcome.summary.total, 3);
        assert_eq!(outcome.summary.failed, 1);
        assert!(outcome.outcomes[0].result.is_ok());
        assert!(matches!(
            outcome.outcomes[1].result,
            Err(CampaignError::Sim { .. })
        ));
        assert!(outcome.outcomes[2].result.is_ok());
    }

    #[test]
    #[should_panic(expected = "failed")]
    fn into_results_panics_diagnosably_on_failure() {
        let outcome = Campaign::new(1).quiet().run(vec![partitioned(21)]);
        let _ = outcome.into_results();
    }

    #[test]
    fn failed_points_are_not_cached() {
        let dir = scratch("fail-cache");
        let run = |seed| {
            Campaign::new(1)
                .cache_dir(&dir)
                .quiet()
                .run(vec![partitioned(seed), tiny(TopologyKind::Tree, 31)])
        };
        let first = run(30);
        assert_eq!(first.summary.failed, 1);
        assert_eq!(first.summary.cache_hits, 0);
        // Second run: the healthy point is served from cache, the failed
        // point fails again rather than being served a poisoned entry.
        let second = run(30);
        assert_eq!(second.summary.cache_hits, 1);
        assert_eq!(second.summary.failed, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_partitioned_miss_fails_in_the_probe_without_a_job() {
        // With a cache attached, the partition is found by building the
        // network: the error every port reports, and no job dispatched.
        let dir = scratch("partition-probe");
        let point = partitioned(35);
        let engine = Arc::new(Engine::new(1));
        let cached = Campaign::new(1)
            .quiet()
            .cache_dir(&dir)
            .on_engine(Arc::clone(&engine))
            .run(vec![point.clone()]);
        assert_eq!(engine.jobs_executed(), 0);
        let s = &cached.summary;
        assert_eq!((s.cache_hits, s.fresh, s.failed), (0, 0, 1));
        // Without a cache the workers simulate it and fail the same way.
        let simulated = Campaign::new(1).quiet().run(vec![point]);
        assert_eq!(simulated.summary.fresh, 1);
        let error = |o: &CampaignOutcome| o.outcomes[0].result.clone().unwrap_err();
        assert_eq!(error(&cached), error(&simulated));
        assert!(matches!(error(&cached), CampaignError::Sim { port: 0, .. }));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn telemetry_points_are_simulated_and_never_cached() {
        // A point that asks for telemetry is neither served nor stored,
        // so each run returns its own telemetry; the same point untraced
        // (the same cache key) is stored, then served.
        let dir = scratch("telemetry-uncached");
        let mut traced = tiny(TopologyKind::Chain, 121);
        traced.config.noc.trace = mn_core::TraceConfig::Counters;
        let untraced = tiny(TopologyKind::Chain, 121);
        assert_eq!(traced.cache_key(), untraced.cache_key());
        let entry = dir.join(format!("{}.mnres", traced.cache_key()));
        let run = |point: &CampaignPoint| {
            let mut outcome = Campaign::new(1)
                .quiet()
                .cache_dir(&dir)
                .run(vec![point.clone()]);
            outcome.outcomes.remove(0)
        };
        for _ in 0..2 {
            let outcome = run(&traced);
            assert!(!outcome.cached);
            assert!(outcome.result.unwrap().telemetry.is_some());
            assert!(!entry.exists(), "a traced point was stored");
        }
        let (first, second) = (run(&untraced), run(&untraced));
        assert!(!first.cached && entry.exists());
        assert!(second.cached);
        assert!(second.result.unwrap().telemetry.is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_warm_rerun_writes_one_counter_line_and_no_file() {
        // The warm replay's syscall floor, structurally: a fully cached
        // rerun creates, renames, removes and rewrites nothing in the
        // cache directory, and its only write is one appended
        // `cache.stats` line.
        let dir = scratch("warm-floor");
        let run = |dir: &std::path::Path| {
            Campaign::new(1).cache_dir(dir).quiet().run(vec![
                tiny(TopologyKind::Chain, 41),
                tiny(TopologyKind::Tree, 42),
                tiny(TopologyKind::Chain, 41),
            ])
        };
        // Every file's name, and each entry's length and mtime.
        let listing = || {
            let mut files: Vec<(String, Option<(u64, std::time::SystemTime)>)> =
                std::fs::read_dir(&dir)
                    .unwrap()
                    .map(|e| {
                        let e = e.unwrap();
                        let name = e.file_name().to_string_lossy().into_owned();
                        let meta = e.metadata().unwrap();
                        let identity = name
                            .ends_with(".mnres")
                            .then(|| (meta.len(), meta.modified().unwrap()));
                        (name, identity)
                    })
                    .collect();
            files.sort();
            files
        };
        let stats_lines = || {
            std::fs::read_to_string(dir.join("cache.stats"))
                .unwrap()
                .lines()
                .count()
        };
        let cold = run(&dir);
        assert_eq!(cold.summary.fresh, 2);
        let (files, lines) = (listing(), stats_lines());
        assert_eq!(files.len(), 3, "two entries and the counter log: {files:?}");

        // The same directory under another name has its own, empty hot
        // tier, so every load is a disk hit, as in a fresh process.
        let warm = run(&dir.join("..").join(dir.file_name().unwrap()));
        assert_eq!((warm.summary.cache_hits, warm.summary.fresh), (2, 0));
        assert_eq!(listing(), files);
        assert_eq!(stats_lines(), lines + 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn panicking_points_are_isolated_and_recorded() {
        // An invalid placement makes `try_simulate_port` panic. The
        // worker must catch it, record it against the point, and keep
        // serving the rest of the grid.
        let mut broken = tiny(TopologyKind::Chain, 41);
        broken.config.total_capacity_gb = 100; // 12.5 GB/port: unrealizable
        let points = vec![tiny(TopologyKind::Tree, 42), broken];
        let outcome = Campaign::new(2).quiet().run(points);
        assert_eq!(outcome.summary.failed, 1);
        assert!(outcome.outcomes[0].result.is_ok());
        let Err(CampaignError::PointPanicked { label, payload }) = &outcome.outcomes[1].result
        else {
            panic!(
                "expected PointPanicked, got {:?}",
                outcome.outcomes[1].result
            );
        };
        assert_eq!(label, "100%-C");
        assert!(payload.contains("invalid configuration"), "{payload}");
    }

    /// `point` under a one-instant watchdog, which trips at the first
    /// instant without a completion. The limit is not fingerprinted, so
    /// the cache key is `point`'s own.
    fn stalls(mut point: CampaignPoint) -> CampaignPoint {
        point.config.watchdog_limit = 1;
        point
    }

    #[test]
    fn every_failure_runs_its_ports_once() {
        // A partition, a stall and a panic are each deterministic: every
        // port of the failing point runs exactly once and the point is
        // recorded failed, never dispatched again.
        let mut broken = tiny(TopologyKind::Tree, 52);
        broken.config.total_capacity_gb = 100; // unrealizable placement
        let points = vec![
            partitioned(51),
            stalls(tiny(TopologyKind::Ring, 53)),
            broken,
        ];
        let ports: u64 = points
            .iter()
            .map(|p| u64::from(port_count(&p.config)))
            .sum();
        let engine = Arc::new(Engine::new(2));
        let outcome = Campaign::new(2)
            .quiet()
            .on_engine(Arc::clone(&engine))
            .run(points);
        assert_eq!(engine.jobs_executed(), ports);
        let s = &outcome.summary;
        assert_eq!((s.fresh, s.failed), (3, 3));
        let errors: Vec<_> = outcome.outcomes.iter().map(|o| &o.result).collect();
        assert!(matches!(
            errors[0],
            Err(CampaignError::Sim {
                error: SimError::Partitioned { .. },
                ..
            })
        ));
        assert!(matches!(
            errors[1],
            Err(CampaignError::Sim {
                error: SimError::Stalled { .. },
                ..
            })
        ));
        assert!(matches!(
            errors[2],
            Err(CampaignError::PointPanicked { .. })
        ));
    }

    #[test]
    fn one_run_mixes_every_source() {
        let dir = scratch("mixed");
        let p1 = stalls(tiny(TopologyKind::Chain, 91));
        let p2 = tiny(TopologyKind::Tree, 92);
        let p3 = tiny(TopologyKind::Ring, 93);
        let campaign = || Campaign::new(2).quiet().cache_dir(&dir);
        // An earlier run cached P2.
        assert_eq!(campaign().run(vec![p2.clone()]).summary.fresh, 1);

        let c = campaign().run(vec![p1.clone(), p2, p3.clone(), p3, partitioned(94)]);
        let seen = |o: &PointOutcome| (o.cached, o.result.is_ok());
        let seen: Vec<_> = c.outcomes.iter().map(seen).collect();
        let (failed, cached, fresh) = ((false, false), (true, true), (false, true));
        assert_eq!(seen, [failed, cached, fresh, fresh, failed]);
        assert!(matches!(
            c.outcomes[0].result,
            Err(CampaignError::Sim {
                error: SimError::Stalled { .. },
                ..
            })
        ));
        let s = &c.summary;
        assert_eq!((s.total, s.unique, s.failed), (5, 4, 2));
        // The partitioned point fails in the probe, so it is not fresh.
        assert_eq!((s.cache_hits, s.fresh), (1, 2));
        let line = s.line();
        assert!(line.starts_with("campaign: 5/5 points in "), "{line}");
        let tail = " — 1 cached, 2 simulated, 2 FAILED, 2 workers, ";
        assert!(line.contains(tail), "{line}");

        // The stalled point stored nothing, so a rerun simulates it again.
        let entry = dir.join(format!("{}.mnres", p1.cache_key()));
        assert!(!entry.exists(), "a stalled point was stored");
        let d = campaign().run(vec![p1]);
        let s = &d.summary;
        assert_eq!((s.cache_hits, s.fresh, s.failed), (0, 1, 1));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fingerprints_sharing_a_word_fold_apart() {
        // "a" and "b" collide under this word function; "c" does not.
        // Each distinct fingerprint gets its own record in first-seen
        // order, and every repeat finds its own record.
        let word = |print: &str| u64::from(print == "c");
        let prints = ["a", "b", "a", "c", "b", "b", "a"].map(String::from);
        let (distinct, canonical) = dedupe(prints, word);
        let seen: Vec<_> = distinct
            .iter()
            .map(|d| (d.first, d.print.as_str()))
            .collect();
        assert_eq!(seen, [(0, "a"), (1, "b"), (3, "c")]);
        assert_eq!(distinct[0].word, distinct[1].word);
        assert_eq!(canonical, [0, 1, 0, 2, 1, 1, 0]);
    }

    #[test]
    fn colliding_points_stay_plain_cache_misses() {
        // Two distinct points forced onto one word share a cache key:
        // the cache serves neither, so each simulates on every run,
        // exactly as a real FNV collision behaves.
        let dir = scratch("collide");
        let (p, q) = (
            tiny(TopologyKind::Chain, 101),
            tiny(TopologyKind::Tree, 102),
        );
        let (distinct, canonical) = dedupe([p.fingerprint(), q.fingerprint()], |_| 7);
        assert_eq!((distinct.len(), canonical), (2, vec![0, 1]));
        let cache = DiskCache::new(&dir);
        let key = format!("{:016x}", distinct[0].word);
        let result = mn_core::simulate(&p.config, p.workload);
        cache
            .store_keyed(&distinct[0].print, &key, &result)
            .unwrap();
        assert!(cache.load_keyed(&distinct[1].print, &key).is_none());
        assert!(cache.load_keyed(&distinct[0].print, &key).is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn lost_jobs_are_reported_lost() {
        // Every job is dropped unrun, as if its worker died outside the
        // panic isolation: the point fails with `LostWorker` instead of
        // hanging the run.
        let point = tiny(TopologyKind::Tree, 111);
        let ports = port_count(&point.config) as usize;
        let engine = Arc::new(Engine::losing_jobs(2));
        let outcome = Campaign::new(2)
            .quiet()
            .on_engine(Arc::clone(&engine))
            .run(vec![point.clone(), point]);
        assert_eq!(engine.jobs_executed(), 0);
        let s = &outcome.summary;
        assert_eq!((s.unique, s.fresh, s.failed), (1, 1, 1));
        for o in &outcome.outcomes {
            assert_eq!(
                o.result.as_ref().unwrap_err(),
                &CampaignError::LostWorker {
                    landed: 0,
                    expected: ports,
                }
            );
        }
    }

    #[test]
    fn campaigns_sharing_an_engine_match_serial() {
        // Two campaigns on one engine, overlapping on one point, no
        // cache: each resolves every one of its points itself, and both
        // see the serial run's bytes.
        let engine = Arc::new(Engine::new(2));
        let shared = || tiny(TopologyKind::Chain, 81);
        let solo = tiny(TopologyKind::Tree, 82);
        let serial = Campaign::new(1).quiet().run(vec![shared()]);
        let expected = codec::encode_result(serial.outcomes[0].result.as_ref().unwrap());

        let (a, b) = std::thread::scope(|scope| {
            let engine_a = Arc::clone(&engine);
            let engine_b = Arc::clone(&engine);
            let a = scope.spawn(move || {
                Campaign::new(2)
                    .quiet()
                    .on_engine(engine_a)
                    .run(vec![shared()])
            });
            let b = scope.spawn(move || {
                Campaign::new(2)
                    .quiet()
                    .on_engine(engine_b)
                    .run(vec![shared(), solo])
            });
            (a.join().unwrap(), b.join().unwrap())
        });
        assert_eq!(a.summary.fresh, 1);
        assert_eq!(b.summary.fresh, 2);
        let ports = u64::from(port_count(&shared().config));
        assert_eq!(
            engine.jobs_executed(),
            2 * ports + u64::from(port_count(&tiny(TopologyKind::Tree, 82).config))
        );
        for outcome in a.outcomes.iter().chain(&b.outcomes) {
            assert!(!outcome.coalesced, "the shim is always false");
            if outcome.point.config.topology == TopologyKind::Chain {
                assert_eq!(
                    codec::encode_result(outcome.result.as_ref().unwrap()),
                    expected
                );
            }
        }
    }
}
