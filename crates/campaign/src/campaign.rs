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
//!    any other — already simulated them.
//! 4. **Failures are contained and recovered.** A panicking point is
//!    caught at the worker loop and becomes a structured
//!    [`CampaignError::PointPanicked`] record; retryable failures
//!    (stalls, lost workers, caught panics) are re-dispatched up to the
//!    [retry budget](Campaign::retries) with an escalated watchdog; and
//!    an attached [run journal](Campaign::journal) makes a killed run
//!    resumable. Every recovery path converges to results byte-identical
//!    to an undisturbed run (`tests/chaos_diff.rs` pins this).
//!
//! Campaigns submitted concurrently to one [`Engine`] share its workers
//! and stay byte-identical to serial runs (`tests/concurrent.rs` pins
//! this). They do not coordinate: a point two of them miss at the same
//! moment simulates in both, and both cache stores write the same bytes
//! by tmp+rename. Every caller in the repo runs its campaigns one after
//! another, so the cache serves any overlap.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, OnceLock};
use std::time::{Duration, Instant};

use mn_core::{merge_port_observations, port_count, PortObservation, RunResult};
use mn_telemetry::registry;

use crate::cache::DiskCache;
use crate::chaos::ChaosPlan;
use crate::engine::{Delivery, Engine, Job};
use crate::error::CampaignError;
use crate::journal::{self, RunJournal};
use crate::knobs::Knobs;
use crate::point::{fnv1a64, key_of, CampaignPoint};
use crate::report::{CampaignSummary, Progress};

/// The outcome of one grid point.
#[derive(Debug, Clone)]
pub struct PointOutcome {
    /// The point that was executed.
    pub point: CampaignPoint,
    /// Its simulation result (fresh, from cache, or replayed from a
    /// resume journal), or why this point has none. A failed point never
    /// aborts the grid: the other points complete and the error travels
    /// with its point.
    pub result: Result<RunResult, CampaignError>,
    /// True when the result came from disk — the result cache or a
    /// resume journal — rather than a fresh simulation.
    pub cached: bool,
    /// Always false: campaigns no longer hand results to each other.
    /// Kept only because the frozen benchmark package reads it; retire it
    /// with the next benchmark change.
    pub coalesced: bool,
    /// Simulation attempts this run spent on the point: 0 for cache
    /// hits and folded duplicates, 1 for a clean first run, more when
    /// retryable failures earned re-dispatches. Replayed points report
    /// the attempts the journaling run recorded.
    pub attempts: u32,
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
    /// point failed — the figure binaries expect complete grids; use
    /// [`CampaignOutcome::try_into_results`] (or inspect `outcomes`
    /// directly) when failures are expected.
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

    /// The results in submission order, or the first point failure.
    pub fn try_into_results(self) -> Result<Vec<RunResult>, CampaignError> {
        self.outcomes.into_iter().map(|o| o.result).collect()
    }
}

/// The campaign configuration (builder-style).
#[derive(Debug)]
pub struct Campaign {
    jobs: usize,
    cache: Option<DiskCache>,
    quiet: bool,
    retries: u32,
    journal: Option<PathBuf>,
    chaos: Option<ChaosPlan>,
    engine: OnceLock<Arc<Engine>>,
}

impl Campaign {
    /// The knob-driven campaign every figure binary uses ([`Knobs::get`]):
    /// the process-global [`Engine`] sized by `MN_JOBS` (default:
    /// available parallelism), the cache in `MN_CACHE_DIR` (default
    /// `results/cache/`; `MN_CACHE=off` detaches it, `MN_CACHE_BUDGET`
    /// bounds it), the `MN_RETRIES` retry budget (default 2), an
    /// `MN_RESUME` journal when set, and — for harness testing only —
    /// `MN_CHAOS_RATE`/`MN_CHAOS_SEED` fault injection. It also sets the
    /// metrics gate from `MN_METRICS`.
    pub fn from_env() -> Campaign {
        let knobs = Knobs::get();
        registry::set_metrics_enabled(knobs.metrics);
        let mut campaign = Campaign::new(knobs.jobs());
        campaign.retries = knobs.retries;
        campaign.journal = knobs.resume.clone();
        campaign.chaos = knobs.chaos();
        let _ = campaign.engine.set(Engine::global());
        if knobs.cache {
            campaign.cache_dir(&knobs.cache_dir)
        } else {
            campaign
        }
    }

    /// A campaign with an explicit worker count, no cache, no journal,
    /// and no retries (embedding and tests want every dispatch visible;
    /// [`Campaign::from_env`] applies the `MN_RETRIES` default). The
    /// campaign runs on a private engine unless one is attached with
    /// [`Campaign::on_engine`].
    pub fn new(jobs: usize) -> Campaign {
        Campaign {
            jobs: jobs.max(1),
            cache: None,
            quiet: false,
            retries: 0,
            journal: None,
            chaos: None,
            engine: OnceLock::new(),
        }
    }

    /// Attaches an on-disk result cache rooted at `dir`.
    pub fn cache_dir(mut self, dir: impl Into<PathBuf>) -> Campaign {
        self.cache = Some(DiskCache::new(dir));
        self
    }

    /// Detaches the cache (every point simulates fresh).
    pub fn no_cache(mut self) -> Campaign {
        self.cache = None;
        self
    }

    /// Suppresses the stderr progress/summary reporting.
    pub fn quiet(mut self) -> Campaign {
        self.quiet = true;
        self
    }

    /// Sets the per-point retry budget: how many re-dispatches a
    /// retryable failure (stall, lost worker, caught panic) earns beyond
    /// the first attempt. `Stalled` retries re-run with an escalated
    /// watchdog limit (doubled per attempt); fatal failures
    /// (`Partitioned`) are never retried.
    pub fn retries(mut self, retries: u32) -> Campaign {
        self.retries = retries;
        self
    }

    /// Attaches a crash-consistent run journal at `path`: completed
    /// points recorded there by any earlier run are replayed (even with
    /// the cache detached) instead of re-simulated, and this run appends
    /// its own events so *it* can be resumed in turn.
    pub fn journal(mut self, path: impl Into<PathBuf>) -> Campaign {
        self.journal = Some(path.into());
        self
    }

    /// Arms the deterministic chaos harness (test infrastructure): the
    /// plan injects worker panics, cache damage, and journal tears on a
    /// seeded schedule that the recovery machinery must absorb without
    /// changing a byte of output.
    pub fn chaos(mut self, plan: ChaosPlan) -> Campaign {
        self.chaos = Some(plan);
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

    /// The configured worker count.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    fn engine_handle(&self) -> Arc<Engine> {
        Arc::clone(self.engine.get_or_init(|| Arc::new(Engine::new(self.jobs))))
    }

    /// Runs every point and returns outcomes in submission order.
    ///
    /// Simulation failures (a fault schedule that partitions a topology, a
    /// stalled port, a panicking point) are confined to their point: the
    /// affected [`PointOutcome`] carries the [`CampaignError`] and every
    /// other point still completes. Retryable failures are re-dispatched
    /// up to the [retry budget](Campaign::retries) first. Failed points
    /// are never written to the cache, so a later run retries them.
    ///
    /// # Panics
    ///
    /// Panics if a point's configuration panics the merge itself;
    /// per-point simulation panics are caught and recorded instead.
    pub fn run(&self, points: Vec<CampaignPoint>) -> CampaignOutcome {
        let total = points.len();
        let run_span = registry::span_begin();
        if registry::metrics_enabled() {
            let m = registry::metrics();
            m.campaign_runs.inc();
            m.campaign_points.add(total as u64);
            let knobs = Knobs::get();
            registry::configure_export(knobs.metrics_file.clone(), knobs.metrics_interval);
            registry::sample_now("campaign-start");
        }
        let mut progress = Progress::new(total, self.quiet);

        // Fold duplicate fingerprints: `canonical[i]` is the index into
        // `unique` whose result point `i` will receive. Each point's
        // fingerprint is formatted exactly once; the unique points keep
        // theirs, and their cache keys are hashed from them.
        let mut first_by_print: HashMap<String, usize> = HashMap::new();
        let mut unique: Vec<&CampaignPoint> = Vec::new();
        let mut fingerprints: Vec<String> = Vec::new();
        let mut canonical = Vec::with_capacity(total);
        for point in &points {
            let slot = match first_by_print.entry(point.fingerprint()) {
                Entry::Occupied(first) => *first.get(),
                Entry::Vacant(first) => {
                    fingerprints.push(first.key().clone());
                    unique.push(point);
                    *first.insert(unique.len() - 1)
                }
            };
            canonical.push(slot);
        }
        let cache_keys: Vec<String> = fingerprints.iter().map(|f| key_of(f)).collect();

        // Cache hits return results without telemetry (the codec stores
        // only simulated quantities), so an instrumented campaign served
        // from cache would silently lose its traces. Warn once per
        // process instead of dropping them quietly.
        if self.cache.is_some()
            && !self.quiet
            && unique.iter().any(|p| p.config.noc.trace.enabled())
        {
            static WARNED: AtomicBool = AtomicBool::new(false);
            if !WARNED.swap(true, Ordering::Relaxed) {
                eprintln!(
                    "warning: telemetry requested with the result cache enabled; \
                     cache hits carry no telemetry (set MN_CACHE=off for instrumented runs)"
                );
            }
        }

        // Chaos strikes the durable state first — litter the cache
        // directory with stale temp files, tear the journal tail — so
        // the sweep and the torn-tail-tolerant replay below are the code
        // paths that actually run under test.
        if let Some(chaos) = self.chaos {
            if let Some(cache) = &self.cache {
                chaos.litter_cache_dir(cache.dir());
            }
            if let Some(path) = &self.journal {
                chaos.tear_journal(path);
            }
        }

        // Replay the resume journal: points a previous run completed are
        // served from their journaled (lossless) encodings — even with
        // the cache detached — and everything else re-dispatches.
        let replayed = match &self.journal {
            Some(path) => match journal::replay(path) {
                Ok(map) => map,
                Err(err) => {
                    eprintln!(
                        "warning: could not replay journal {}: {err}; \
                         starting from scratch",
                        path.display()
                    );
                    HashMap::new()
                }
            },
            None => HashMap::new(),
        };
        let journal = self
            .journal
            .as_ref()
            .and_then(|path| match RunJournal::open(path) {
                Ok(journal) => Some(journal),
                Err(err) => {
                    eprintln!(
                        "warning: could not open journal {}: {err}; \
                         this run will not be resumable",
                        path.display()
                    );
                    None
                }
            });

        /// Where a unique point's result came from.
        #[derive(Clone, Copy, PartialEq, Eq)]
        enum Source {
            Simulated,
            Cached,
            Resumed,
        }
        #[derive(Clone)]
        struct Filled {
            result: Result<RunResult, CampaignError>,
            source: Source,
            attempts: u32,
            host: Duration,
        }
        let mut slots: Vec<Option<Filled>> = vec![None; unique.len()];
        for (i, fp) in fingerprints.iter().enumerate() {
            if let Some(done) = replayed.get(fp) {
                progress.tick(true);
                slots[i] = Some(Filled {
                    result: Ok(done.result.clone()),
                    source: Source::Resumed,
                    attempts: done.attempts,
                    host: Duration::ZERO,
                });
            }
        }

        // Probe the cache (cheap, I/O-bound) so only true misses are
        // fanned out to the workers. Chaos may damage an entry first;
        // the quarantine path must turn that into a clean miss.
        let mut misses: Vec<usize> = Vec::new();
        for i in 0..unique.len() {
            if slots[i].is_some() {
                continue; // already replayed from the journal
            }
            if let Some(cache) = &self.cache {
                if let Some(chaos) = self.chaos {
                    chaos.damage_cache_entry(cache.dir(), &cache_keys[i]);
                }
                let start = Instant::now();
                if let Some(result) = cache.load_keyed(&fingerprints[i], &cache_keys[i]) {
                    progress.tick(true);
                    slots[i] = Some(Filled {
                        result: Ok(result),
                        source: Source::Cached,
                        attempts: 0,
                        host: start.elapsed(),
                    });
                    continue;
                }
                // A miss this campaign will simulate: protect its entry
                // from LRU eviction until the process exits (in-flight
                // and just-written entries are never evicted).
                cache.protect(&cache_keys[i]);
            }
            misses.push(i);
        }

        // Decompose each miss into per-port jobs — ports serve disjoint
        // address slices, so each is an independent simulation — and fan
        // those out to the engine instead of whole points. A multi-port
        // grid point no longer bounds the tail: its ports run
        // concurrently on different workers (of any campaign).
        // Observations are merged in ascending port order, which keeps
        // every aggregate bit-identical to the serial `simulate`.
        let mut arcs: Vec<Option<Arc<CampaignPoint>>> = vec![None; unique.len()];
        for &i in &misses {
            arcs[i] = Some(Arc::new(unique[i].clone()));
            if let Some(journal) = &journal {
                journal.start(&fingerprints[i], &cache_keys[i]);
            }
        }
        let engine = self.engine_handle();
        let (tx, rx) = mpsc::channel::<Delivery>();
        let retries = self.retries;
        let chaos = self.chaos;
        let job = |slot: usize, port: u32, attempt: u32| Job {
            slot,
            port,
            attempt,
            point: Arc::clone(arcs[slot].as_ref().expect("miss has an arc")),
            // Chaos panic decisions key on a scheduling-independent
            // identity of the point, never on dispatch order.
            chaos_panic: chaos.is_some_and(|c| {
                c.injects_panic(fnv1a64(cache_keys[slot].as_bytes()), port, attempt, retries)
            }),
            reply: tx.clone(),
        };
        let initial: Vec<Job> = misses
            .iter()
            .flat_map(|&i| (0..port_count(&unique[i].config)).map(move |port| job(i, port, 0)))
            .collect();
        let mut outstanding = initial.len();
        let jobs = self.jobs.min(outstanding).max(1);
        engine.submit(initial);

        // Gather deliveries; a point settles — merged and cached, or
        // retried, or recorded failed — the moment the last port of its
        // current attempt lands. Waiting for *every* port (not bailing
        // on the first error) is what makes the error attribution
        // deterministic: the lowest-numbered failing port speaks for the
        // point at any worker count.
        struct Gather {
            obs: Vec<Option<PortObservation>>,
            errors: Vec<Option<CampaignError>>,
            pending: usize,
            attempt: u32,
            host: Duration,
            // Dispatch-to-settle span start (None with metrics off):
            // feeds the `point.resolve` span and the resolve latency
            // histogram when the point lands.
            span: Option<Instant>,
        }
        let mut gathering: HashMap<usize, Gather> = misses
            .iter()
            .map(|&i| {
                let ports = port_count(&unique[i].config) as usize;
                (
                    i,
                    Gather {
                        obs: (0..ports).map(|_| None).collect(),
                        errors: (0..ports).map(|_| None).collect(),
                        pending: ports,
                        attempt: 0,
                        host: Duration::ZERO,
                        span: registry::span_begin(),
                    },
                )
            })
            .collect();
        while outstanding > 0 {
            let Ok(Delivery {
                slot,
                port,
                host,
                outcome,
            }) = rx.recv()
            else {
                break; // workers died; leftovers become LostWorker
            };
            outstanding -= 1;
            let gather = gathering.get_mut(&slot).expect("point is gathering");
            gather.host += host;
            match outcome {
                Ok(obs) => gather.obs[port as usize] = Some(obs),
                Err(error) => gather.errors[port as usize] = Some(error),
            }
            gather.pending -= 1;
            if gather.pending > 0 {
                continue;
            }
            let point = unique[slot];
            let error = gather.errors.iter_mut().find_map(Option::take);
            match error {
                None => {
                    let gather = gathering.remove(&slot).expect("present");
                    let attempts = gather.attempt + 1;
                    let result = merge_port_observations(
                        &point.config,
                        point.workload,
                        gather.obs.into_iter().flatten(),
                    );
                    if let Some(cache) = &self.cache {
                        let stored =
                            cache.store_keyed(&fingerprints[slot], &cache_keys[slot], &result);
                        if let Err(err) = stored {
                            // Warn once: an unwritable cache dir
                            // would otherwise repeat per point. The
                            // point itself completed — uncached.
                            static STORE_WARNED: AtomicBool = AtomicBool::new(false);
                            if !STORE_WARNED.swap(true, Ordering::Relaxed) {
                                eprintln!(
                                    "warning: could not cache result in {}: {err}",
                                    cache.dir().display()
                                );
                            }
                        }
                    }
                    if let Some(journal) = &journal {
                        journal.done(&fingerprints[slot], attempts, &result);
                    }
                    if let Some(start) = gather.span {
                        registry::metrics()
                            .point_resolve_latency_us
                            .observe_since(start);
                    }
                    registry::span_end(gather.span, "campaign", "point.resolve");
                    progress.tick(false);
                    slots[slot] = Some(Filled {
                        result: Ok(result),
                        source: Source::Simulated,
                        attempts,
                        host: gather.host,
                    });
                }
                Some(error) if error.is_retryable() && gather.attempt < retries => {
                    // Re-dispatch the whole point: a fresh attempt
                    // for every port, so the retried run is the same
                    // computation a clean run would perform.
                    let attempt = gather.attempt + 1;
                    registry::metrics().engine_retry_attempts.inc();
                    if let Some(journal) = &journal {
                        journal.retry(&fingerprints[slot], attempt, &error.to_string());
                    }
                    let ports = gather.obs.len();
                    gather.obs.iter_mut().for_each(|o| *o = None);
                    gather.errors.iter_mut().for_each(|e| *e = None);
                    gather.pending = ports;
                    gather.attempt = attempt;
                    outstanding += ports;
                    engine.submit((0..ports as u32).map(|port| job(slot, port, attempt)));
                }
                Some(error) => {
                    let gather = gathering.remove(&slot).expect("present");
                    let attempts = gather.attempt + 1;
                    if let Some(journal) = &journal {
                        journal.failed(&fingerprints[slot], attempts, &error.to_string());
                    }
                    registry::span_end(gather.span, "campaign", "point.resolve");
                    progress.tick(false);
                    slots[slot] = Some(Filled {
                        result: Err(error),
                        source: Source::Simulated,
                        attempts,
                        host: gather.host,
                    });
                }
            }
        }

        // The channel closed with points still gathering: a worker
        // died without delivering its jobs. Report each such point as
        // lost instead of panicking away the rest of the grid.
        for (i, gather) in gathering {
            let landed = gather.obs.iter().filter(|o| o.is_some()).count();
            let expected = gather.obs.len();
            progress.tick(false);
            slots[i] = Some(Filled {
                result: Err(CampaignError::LostWorker { landed, expected }),
                source: Source::Simulated,
                attempts: gather.attempt + 1,
                host: gather.host,
            });
        }

        // Every unique point was replayed, served from the cache, or
        // gathered above, and every gathered point was filled.
        let executed: Vec<Filled> = slots
            .into_iter()
            .map(|s| s.expect("every unique point is resolved"))
            .collect();

        let mut summary = CampaignSummary {
            total,
            unique: unique.len(),
            cache_hits: 0,
            fresh: 0,
            failed: 0,
            jobs,
            host_wall: progress.started().elapsed(),
            fresh_requests: 0,
            resumed: 0,
            retried: 0,
            coalesced: 0,
        };
        for filled in &executed {
            summary.failed += usize::from(filled.result.is_err());
            match filled.source {
                Source::Cached => summary.cache_hits += 1,
                Source::Resumed => summary.resumed += 1,
                Source::Simulated => {
                    summary.fresh += 1;
                    summary.retried += usize::from(filled.attempts > 1);
                    if let Ok(result) = &filled.result {
                        summary.fresh_requests += result.reads + result.writes;
                    }
                }
            }
        }
        progress.finish(&summary);
        if let Some(cache) = &self.cache {
            // Fold this run's activity into the directory's lifetime
            // counters (best-effort; `mncube cache stats` reads them).
            cache.persist_counters();
        }
        registry::span_end(run_span, "campaign", "campaign.run");
        if registry::metrics_enabled() {
            registry::sample_now("campaign-end");
        }

        let outcomes = points
            .into_iter()
            .zip(canonical)
            .map(|(point, slot)| {
                let filled = executed[slot].clone();
                PointOutcome {
                    point,
                    result: filled.result,
                    cached: filled.source != Source::Simulated,
                    coalesced: false,
                    attempts: filled.attempts,
                    host: filled.host,
                }
            })
            .collect();
        CampaignOutcome { outcomes, summary }
    }
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
        assert_eq!(outcome.summary.retried, 0);
        assert_eq!(outcome.summary.resumed, 0);
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
        assert!(outcome.try_into_results().is_err());
    }

    #[test]
    #[should_panic(expected = "failed")]
    fn into_results_panics_diagnosably_on_failure() {
        let outcome = Campaign::new(1).quiet().run(vec![partitioned(21)]);
        let _ = outcome.into_results();
    }

    #[test]
    fn failed_points_are_not_cached() {
        let dir = std::env::temp_dir().join(format!(
            "mn-campaign-fail-cache-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
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
        // point is retried (and fails again) rather than being served a
        // poisoned entry.
        let second = run(30);
        assert_eq!(second.summary.cache_hits, 1);
        assert_eq!(second.summary.failed, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_warm_rerun_writes_one_counter_line_and_no_file() {
        // The warm replay's syscall floor, structurally: a fully cached
        // rerun creates, renames and removes nothing in the cache
        // directory, and its only write is one appended `cache.stats`
        // line.
        let dir = std::env::temp_dir().join(format!(
            "mn-campaign-warm-floor-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let run = || {
            Campaign::new(1).cache_dir(&dir).quiet().run(vec![
                tiny(TopologyKind::Chain, 41),
                tiny(TopologyKind::Tree, 42),
                tiny(TopologyKind::Chain, 41),
            ])
        };
        let listing = || {
            let mut names: Vec<String> = std::fs::read_dir(&dir)
                .unwrap()
                .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
                .collect();
            names.sort();
            names
        };
        let stats_lines = || {
            std::fs::read_to_string(dir.join("cache.stats"))
                .unwrap()
                .lines()
                .count()
        };
        let cold = run();
        assert_eq!(cold.summary.fresh, 2);
        let (files, lines) = (listing(), stats_lines());
        assert_eq!(files.len(), 3, "two entries and the counter log: {files:?}");

        let warm = run();
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
        // One attempt: Campaign::new has no retry budget.
        assert_eq!(outcome.outcomes[1].attempts, 1);
    }

    #[test]
    fn fatal_failures_are_not_retried() {
        let outcome = Campaign::new(1)
            .quiet()
            .retries(5)
            .run(vec![partitioned(51)]);
        assert_eq!(outcome.summary.failed, 1);
        assert_eq!(outcome.summary.retried, 0);
        assert_eq!(
            outcome.outcomes[0].attempts, 1,
            "a partitioned network is deterministic; retrying burns cycles"
        );
    }

    #[test]
    fn chaos_panics_are_retried_to_convergence() {
        // Rate 1.0: every attempt below the budget panics, so each point
        // burns the full budget and then succeeds — and the results are
        // byte-identical to an undisturbed run.
        let points = || vec![tiny(TopologyKind::Chain, 61), tiny(TopologyKind::Tree, 62)];
        let clean = Campaign::new(2).quiet().run(points());
        let chaotic = Campaign::new(2)
            .quiet()
            .retries(2)
            .chaos(ChaosPlan::new(0xC0, 1.0))
            .run(points());
        assert_eq!(chaotic.summary.failed, 0);
        assert_eq!(chaotic.summary.retried, 2);
        for (c, d) in clean.outcomes.iter().zip(&chaotic.outcomes) {
            assert_eq!(d.attempts, 3, "budget 2 = two panics + one success");
            assert_eq!(
                codec::encode_result(c.result.as_ref().unwrap()),
                codec::encode_result(d.result.as_ref().unwrap()),
            );
        }
    }

    #[test]
    fn journal_resume_skips_completed_points_without_a_cache() {
        let dir = std::env::temp_dir().join(format!(
            "mn-campaign-resume-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.journal");
        let points = || vec![tiny(TopologyKind::Chain, 71), tiny(TopologyKind::Ring, 72)];

        // First run journals both points (no cache attached).
        let first = Campaign::new(2).quiet().journal(&path).run(points());
        assert_eq!(first.summary.fresh, 2);
        assert_eq!(first.summary.resumed, 0);

        // Second run replays them — zero fresh simulations, identical
        // results, attempts carried over from the journal.
        let second = Campaign::new(2).quiet().journal(&path).run(points());
        assert_eq!(second.summary.fresh, 0);
        assert_eq!(second.summary.resumed, 2);
        for (a, b) in first.outcomes.iter().zip(&second.outcomes) {
            assert!(b.cached, "replayed points are served from disk");
            assert_eq!(b.attempts, 1);
            assert_eq!(
                codec::encode_result(a.result.as_ref().unwrap()),
                codec::encode_result(b.result.as_ref().unwrap()),
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
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
