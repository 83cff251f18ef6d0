//! The content-addressed on-disk result cache, shared safely by
//! concurrent campaigns.
//!
//! Layout: one file per point under the cache directory (default
//! `results/cache/`, override with `MN_CACHE_DIR`, disable with
//! `MN_CACHE=off`), named by the point's 16-hex-digit
//! [cache key](crate::CampaignPoint::cache_key):
//!
//! ```text
//! results/cache/
//!   1f2e3d4c5b6a7980.mnres
//!   cache.stats        — append-only log of hit/miss/store/eviction deltas
//!   gc.lock            — present only while an eviction pass runs
//! ```
//!
//! Each entry stores a version header, the full fingerprint, and the
//! exactly-encoded result. An entry is written once: after its rename
//! into place nothing writes to it again — a load only reads it — until
//! `gc` evicts it. Loads re-verify both the header and the fingerprint,
//! so version skew or a hash collision degrades to a cache miss instead
//! of a wrong result. An entry that is actually *corrupt* — bytes that
//! are not UTF-8, a bad header, or an undecodable body — is quarantined:
//! renamed to `<key>.corrupt` (with a once-per-process warning) so it
//! stops masquerading as a miss on every run and stays on disk for
//! diagnosis.
//!
//! # Concurrency protocol
//!
//! *Many writers, many readers, one evictor.* Stores write to a unique
//! temporary sibling and `rename` into place — POSIX rename atomicity
//! means concurrent writers (parallel workers, or two figure binaries
//! sharing the chain baseline) never expose a torn file, and readers
//! never need a lock. Eviction ([`DiskCache::gc`]) is the only multi-file
//! mutation, so it is single-writer: a pass holds `gc.lock` (created with
//! `create_new`, stolen only when stale) for its whole scan-and-remove,
//! and a contended pass simply skips eviction — the next pass converges.
//!
//! Stores also leave `.*.tmp` debris when a process dies between write
//! and rename. The first load or store on a directory sweeps it, once per
//! directory per process: every `DiskCache` on that path shares the
//! sweep, so a second cache (or a second campaign) never lists the
//! directory again.
//!
//! # The counter log
//!
//! `cache.stats` is an append-only log: each
//! [`persist_counters`](DiskCache::persist_counters) appends one JSON
//! line holding this process's deltas since the last persist, in one
//! `O_APPEND` write — no re-read, no temp file, no rename. Readers sum
//! the complete lines, each judged alone, and skip a torn last one, so
//! the old one-line totals file is simply a log of one line. A
//! [`gc`](DiskCache::gc), while it holds `gc.lock`, folds the log back
//! into a single totals line (temp + rename); between folds the log
//! grows by one line per persisting campaign.
//!
//! # The warm-replay hot tier
//!
//! Repeated grid replays used to pay a full read + decode per hit. Every
//! `DiskCache` on the same directory now shares a process-wide *hot
//! tier*: up to [`HOT_CAP`] decoded results, keyed by cache key, each
//! decoded and fingerprint-checked when it entered — a warm hit costs no
//! system call, no read and no decode. A resident copy is never checked
//! against its file again: entries are write-once, so the file cannot
//! come to hold a different result for the same fingerprint, and every
//! read from disk still verifies and quarantines. A file deleted or
//! damaged after its copy entered keeps serving the copy until the
//! process ends. (A true `mmap(2)` region was considered and rejected:
//! this workspace is dependency-free and `#![forbid(unsafe_code)]`, and
//! what replays actually pay for is decode, which a mapped file would
//! still do per hit. See DESIGN.md §11.)
//!
//! The syscalls of each path:
//!
//! - *hot hit*: none;
//! - *disk hit*: a read-only `openat`, `read` until end of file, `close`;
//! - *miss*: one failed `openat`.
//!
//! # Oldest-written eviction
//!
//! Only [`DiskCache::gc`] (`mncube cache gc --budget SIZE`) evicts: it
//! removes entries oldest-written first (by the mtime their store left)
//! until the directory fits the budget. Loads never move that order and
//! stores never evict, so a directory grows until the next `gc`.

use std::collections::HashMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, SystemTime};

use mn_core::RunResult;

use crate::codec::{decode_result, encode_result};
use crate::point::{key_of, CampaignPoint, WordMap};

const HEADER: &str = "mncampaign-cache v1";

/// Decoded results the hot tier keeps per cache directory.
const HOT_CAP: usize = 1024;

/// A `gc.lock` older than this is a crashed evictor's debris: steal it.
const LOCK_STALE: Duration = Duration::from_secs(300);

/// A decoded, fingerprint-checked entry resident in the hot tier.
struct HotEntry {
    fingerprint: String,
    result: Arc<RunResult>,
    used: u64,
}

/// Resident entries by the FNV word their cache key renders: hashing
/// that word again would be pure overhead.
type HotMap = WordMap<HotEntry>;

/// Parses a 16-hex cache key back to the FNV word it renders (falling
/// back to hashing the text, so an unexpected key shape still indexes).
fn key_word(key: &str) -> u64 {
    u64::from_str_radix(key, 16).unwrap_or_else(|_| crate::point::fnv1a64(key.as_bytes()))
}

/// Process-wide per-directory state: the hot tier and the live
/// counters. Shared by every `DiskCache` opened on the same path, so
/// concurrent campaigns pool their warmth.
///
/// The counters are plain relaxed atomics, always on: they back
/// `cache.stats` persistence and `mncube cache stats`.
#[derive(Default)]
struct DirState {
    hot: Mutex<HotMap>,
    hot_clock: AtomicU64,
    /// Set once this process has swept the directory's stale temps.
    swept: OnceLock<()>,
    hits: AtomicU64,
    hot_hits: AtomicU64,
    misses: AtomicU64,
    stores: AtomicU64,
    evicted_entries: AtomicU64,
    evicted_bytes: AtomicU64,
    /// Serializes this process's `cache.stats` appends and folds with
    /// each other and with readers of persisted-plus-live totals. A
    /// persist moves its deltas from the live counters into the file;
    /// without the lock a reader between the take and the append sees
    /// neither, and a fold between them rewrites the log without them.
    persist: Mutex<()>,
}

fn dir_registry() -> &'static Mutex<HashMap<PathBuf, Arc<DirState>>> {
    static REGISTRY: OnceLock<Mutex<HashMap<PathBuf, Arc<DirState>>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(HashMap::new()))
}

fn dir_state(dir: &Path) -> Arc<DirState> {
    let mut map = dir_registry().lock().unwrap_or_else(|e| e.into_inner());
    Arc::clone(map.entry(dir.to_path_buf()).or_default())
}

impl DirState {
    /// The lifetime counters of `dir`: its persisted totals plus this
    /// process's unpersisted deltas, read as one consistent state.
    fn totals(&self, dir: &Path) -> CacheStats {
        let _persist = self.persist.lock().unwrap_or_else(|e| e.into_inner());
        let mut stats = read_persisted(dir);
        self.add_live(&mut stats);
        stats
    }

    /// Adds this process's unpersisted counter deltas onto `stats`.
    fn add_live(&self, stats: &mut CacheStats) {
        stats.add(&self.live(|counter| counter.load(Ordering::Relaxed)));
    }

    /// Swaps this process's unpersisted counter deltas out, leaving zero.
    fn take_live(&self) -> CacheStats {
        self.live(|counter| counter.swap(0, Ordering::Relaxed))
    }

    /// This process's unpersisted counter deltas, each read by `read`.
    fn live(&self, read: impl Fn(&AtomicU64) -> u64) -> CacheStats {
        CacheStats {
            hits: read(&self.hits),
            hot_hits: read(&self.hot_hits),
            misses: read(&self.misses),
            stores: read(&self.stores),
            evicted_entries: read(&self.evicted_entries),
            evicted_bytes: read(&self.evicted_bytes),
            ..CacheStats::default()
        }
    }
}

/// A point-in-time view of a cache directory and its lifetime counters
/// (persisted ones from `cache.stats` plus this process's unpersisted
/// activity).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Live `.mnres` entries on disk.
    pub entries: u64,
    /// Total bytes of live entries.
    pub bytes: u64,
    /// Quarantined `.corrupt` files awaiting diagnosis or `gc`.
    pub corrupt: u64,
    /// Loads served from disk or the hot tier.
    pub hits: u64,
    /// The subset of `hits` served by the hot tier (no read, no decode).
    pub hot_hits: u64,
    /// Loads that found no usable entry.
    pub misses: u64,
    /// Results written.
    pub stores: u64,
    /// Entries removed by budget eviction.
    pub evicted_entries: u64,
    /// Bytes reclaimed by budget eviction.
    pub evicted_bytes: u64,
}

impl CacheStats {
    /// Adds `other`'s lifetime counters onto these (the directory scan
    /// fields are left alone). The sums saturate: `cache.stats` is read
    /// from disk, and any digit run that fits a `u64` parses, so two
    /// huge lines must not overflow.
    fn add(&mut self, other: &CacheStats) {
        self.hits = self.hits.saturating_add(other.hits);
        self.hot_hits = self.hot_hits.saturating_add(other.hot_hits);
        self.misses = self.misses.saturating_add(other.misses);
        self.stores = self.stores.saturating_add(other.stores);
        self.evicted_entries = self.evicted_entries.saturating_add(other.evicted_entries);
        self.evicted_bytes = self.evicted_bytes.saturating_add(other.evicted_bytes);
    }
}

/// What one eviction pass did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GcReport {
    /// Live entries remaining after the pass.
    pub entries: u64,
    /// Bytes remaining after the pass.
    pub bytes: u64,
    /// Entries evicted by this pass.
    pub evicted_entries: u64,
    /// Bytes reclaimed by this pass.
    pub evicted_bytes: u64,
    /// Quarantined `.corrupt` files removed by this pass.
    pub corrupt_removed: u64,
    /// False when another process held `gc.lock` and this pass skipped
    /// eviction (the scan numbers are still accurate).
    pub ran: bool,
}

/// A directory of finished results, keyed by point fingerprint.
pub struct DiskCache {
    dir: PathBuf,
    tmp_counter: AtomicU64,
    state: Arc<DirState>,
}

impl std::fmt::Debug for DiskCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DiskCache").field("dir", &self.dir).finish()
    }
}

impl DiskCache {
    /// Opens (lazily — nothing is created until the first store) a cache
    /// rooted at `dir`.
    pub fn new(dir: impl Into<PathBuf>) -> DiskCache {
        let dir = dir.into();
        let state = dir_state(&dir);
        DiskCache {
            dir,
            tmp_counter: AtomicU64::new(0),
            state,
        }
    }

    /// The cache directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn key_path(&self, key: &str) -> PathBuf {
        self.dir.join(format!("{key}.mnres"))
    }

    #[cfg(test)]
    fn entry_path(&self, point: &CampaignPoint) -> PathBuf {
        self.key_path(&point.cache_key())
    }

    /// Removes stale `.*.tmp` files leaked by a killed run (a process
    /// that died between `fs::write` and `fs::rename` in [`store`]).
    /// Runs once per directory per process, on the first load or store
    /// of any `DiskCache` on it; the others wait for that sweep to end.
    /// Safe against live writers: a temp name embeds its writer's pid
    /// and a per-process counter, and *this* process has written nothing
    /// to the directory yet; another live process's window between write
    /// and rename is nanoseconds wide, and losing a store is just
    /// "uncached".
    ///
    /// [`store`]: DiskCache::store
    fn sweep_stale_tmp(&self) {
        self.state.swept.get_or_init(|| {
            let Ok(entries) = fs::read_dir(&self.dir) else {
                return; // nothing to sweep (directory not created yet)
            };
            for entry in entries.flatten() {
                let name = entry.file_name();
                let Some(name) = name.to_str() else { continue };
                if name.starts_with('.') && name.ends_with(".tmp") {
                    let _ = fs::remove_file(entry.path());
                }
            }
        });
    }

    /// Loads the finished result for `point`, or `None` on a miss (absent,
    /// corrupt, version-skewed, or fingerprint-mismatched entry). Corrupt
    /// entries are quarantined to `<key>.corrupt` on the way out.
    ///
    /// Warm path: a hot-tier entry with this fingerprint serves the
    /// decoded result with no system call. Cold path, through one
    /// read-only descriptor: read, verify, decode, and promote into the
    /// hot tier. Neither path writes to the entry.
    pub fn load(&self, point: &CampaignPoint) -> Option<RunResult> {
        self.load_keyed(&point.fingerprint(), &point.cache_key())
    }

    /// [`DiskCache::load`] with the fingerprint and cache key already in
    /// hand. The campaign formats both once per distinct point while
    /// folding duplicates, so a load never formats either again.
    pub fn load_keyed(&self, fingerprint: &str, key: &str) -> Option<RunResult> {
        self.sweep_stale_tmp();
        let word = key_word(key);
        {
            let mut hot = self.state.hot.lock().unwrap_or_else(|e| e.into_inner());
            // A resident entry under another fingerprint is an FNV
            // collision: the disk path below decides that point.
            if let Some(entry) = hot.get_mut(&word).filter(|e| e.fingerprint == fingerprint) {
                entry.used = self.state.hot_clock.fetch_add(1, Ordering::Relaxed);
                self.state.hits.fetch_add(1, Ordering::Relaxed);
                self.state.hot_hits.fetch_add(1, Ordering::Relaxed);
                return Some((*entry.result).clone());
            }
        }

        match self.read_entry(fingerprint, key) {
            Some(result) => {
                self.hot_insert(word, fingerprint.to_string(), Arc::new(result.clone()));
                self.state.hits.fetch_add(1, Ordering::Relaxed);
                Some(result)
            }
            None => {
                self.state.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// The cold hit path alone, with the fingerprint and cache key
    /// already in hand: read, verify, decode — no hot tier, no counters.
    /// This is the disk hit [`DiskCache::load_keyed`] makes on a hot-tier
    /// miss; `campaign_bench` measures the two against each other to
    /// keep the warm-replay speedup honest.
    pub fn load_uncached_keyed(&self, fingerprint: &str, key: &str) -> Option<RunResult> {
        self.read_entry(fingerprint, key)
    }

    /// Reads the entry for `key` through one read-only descriptor
    /// (`openat`, `read` to EOF, `close`), then verifies and decodes it;
    /// a corrupt entry is quarantined.
    fn read_entry(&self, fingerprint: &str, key: &str) -> Option<RunResult> {
        let path = self.key_path(key);
        let file = fs::File::open(&path).ok()?;
        let Ok(text) = String::from_utf8(read_all(&file).ok()?) else {
            self.quarantine(&path, "non-UTF-8 bytes");
            return None;
        };
        self.verify_entry(fingerprint, &path, &text)
    }

    /// Checks an entry's header and fingerprint and decodes its body;
    /// quarantines the entry at `path` when it is corrupt.
    fn verify_entry(
        &self,
        expected_fingerprint: &str,
        path: &Path,
        text: &str,
    ) -> Option<RunResult> {
        let mut lines = text.splitn(3, '\n');
        if lines.next() != Some(HEADER) {
            self.quarantine(path, "unrecognized header");
            return None;
        }
        let Some(fingerprint) = lines.next().and_then(|l| l.strip_prefix("key=")) else {
            self.quarantine(path, "missing fingerprint line");
            return None;
        };
        if fingerprint != expected_fingerprint {
            // A well-formed entry for a *different* point sharing this
            // FNV key: a hash collision, which is a legitimate miss — the
            // entry is some other point's valid result, not corruption.
            return None;
        }
        match lines.next().and_then(decode_result) {
            Some(result) => Some(result),
            None => {
                self.quarantine(path, "undecodable body");
                None
            }
        }
    }

    fn hot_insert(&self, word: u64, fingerprint: String, result: Arc<RunResult>) {
        let mut hot = self.state.hot.lock().unwrap_or_else(|e| e.into_inner());
        if hot.len() >= HOT_CAP && !hot.contains_key(&word) {
            // Count-bounded LRU: drop the least-recently-used resident.
            if let Some(coldest) = hot.iter().min_by_key(|(_, e)| e.used).map(|(k, _)| *k) {
                hot.remove(&coldest);
            }
        }
        hot.insert(
            word,
            HotEntry {
                fingerprint,
                result,
                used: self.state.hot_clock.fetch_add(1, Ordering::Relaxed),
            },
        );
    }

    /// Renames a corrupt entry to `<key>.corrupt` so the next run misses
    /// cleanly (no re-read, no re-warn) and the bytes survive for
    /// inspection. Warns once per process; repeat corruption is almost
    /// always one underlying cause (disk damage, version-skewed writer).
    fn quarantine(&self, path: &Path, why: &str) {
        static WARNED: AtomicBool = AtomicBool::new(false);
        let dest = path.with_extension("corrupt");
        let renamed = fs::rename(path, &dest);
        if !WARNED.swap(true, Ordering::Relaxed) {
            match renamed {
                Ok(()) => eprintln!(
                    "warning: quarantined corrupt cache entry ({why}): {} -> {}",
                    path.display(),
                    dest.display()
                ),
                Err(err) => eprintln!(
                    "warning: corrupt cache entry ({why}) at {} could not be quarantined: {err}",
                    path.display()
                ),
            }
        }
    }

    /// Stores a finished result atomically (write-to-temp + rename) and
    /// promotes it into the hot tier.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors; callers treat a failed store as
    /// "uncached" rather than fatal.
    pub fn store(&self, point: &CampaignPoint, result: &RunResult) -> io::Result<()> {
        let fingerprint = point.fingerprint();
        self.store_keyed(&fingerprint, &key_of(&fingerprint), result)
    }

    /// [`DiskCache::store`] with the fingerprint and cache key already in
    /// hand, as [`DiskCache::load_keyed`] takes them.
    ///
    /// # Errors
    ///
    /// As [`DiskCache::store`].
    pub(crate) fn store_keyed(
        &self,
        fingerprint: &str,
        key: &str,
        result: &RunResult,
    ) -> io::Result<()> {
        self.sweep_stale_tmp();
        fs::create_dir_all(&self.dir)?;
        let body = format!("{HEADER}\nkey={fingerprint}\n{}", encode_result(result));
        // Unique per process *and* per call, so parallel workers never
        // share a temp file.
        let tmp = self.dir.join(format!(
            ".{key}.{}.{}.tmp",
            std::process::id(),
            self.tmp_counter.fetch_add(1, Ordering::Relaxed),
        ));
        fs::write(&tmp, &body)?;
        fs::rename(&tmp, self.key_path(key))?;

        self.state.stores.fetch_add(1, Ordering::Relaxed);
        self.hot_insert(
            key_word(key),
            fingerprint.to_string(),
            Arc::new(result.clone()),
        );
        Ok(())
    }

    /// Scans the directory: live `.mnres` entries as `(key, bytes,
    /// mtime)`, plus the quarantined `.corrupt` count.
    #[allow(clippy::type_complexity)]
    fn scan(&self) -> (Vec<(String, u64, Option<SystemTime>)>, u64) {
        let mut live = Vec::new();
        let mut corrupt = 0u64;
        let Ok(entries) = fs::read_dir(&self.dir) else {
            return (live, corrupt);
        };
        for entry in entries.flatten() {
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if let Some(key) = name.strip_suffix(".mnres") {
                let Ok(meta) = entry.metadata() else { continue };
                live.push((key.to_string(), meta.len(), meta.modified().ok()));
            } else if name.ends_with(".corrupt") {
                corrupt += 1;
            }
        }
        (live, corrupt)
    }

    /// The eviction loop; callers hold `gc.lock`. Removes entries of
    /// `live` oldest-mtime-first until the live bytes fit
    /// `budget`, drops each from the hot tier, and adds them to the
    /// eviction counters. `live` keeps the survivors. Returns the evicted
    /// entry count and the bytes reclaimed, or `None` (no pass) when
    /// `live` already fits.
    fn evict_oldest(
        &self,
        live: &mut Vec<(String, u64, Option<SystemTime>)>,
        budget: u64,
    ) -> Option<(u64, u64)> {
        let mut total: u64 = live.iter().map(|(_, len, _)| len).sum();
        if total <= budget {
            return None;
        }
        // Oldest first; name breaks mtime ties so the order is stable
        // across runs on coarse-mtime filesystems.
        live.sort_by(|a, b| (a.2, &a.0).cmp(&(b.2, &b.0)));
        let mut evicted = 0u64;
        let mut reclaimed = 0u64;
        live.retain(|(key, len, _)| {
            if total <= budget || fs::remove_file(self.key_path(key)).is_err() {
                return true;
            }
            self.state
                .hot
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .remove(&key_word(key));
            total -= len;
            evicted += 1;
            reclaimed += len;
            false
        });
        self.state
            .evicted_entries
            .fetch_add(evicted, Ordering::Relaxed);
        self.state
            .evicted_bytes
            .fetch_add(reclaimed, Ordering::Relaxed);
        Some((evicted, reclaimed))
    }

    /// A full garbage-collection pass, and the cache's only evictor:
    /// removes quarantined `.corrupt` files, evicts the oldest-written
    /// entries until the directory fits `budget` (`None` evicts nothing),
    /// and folds the counter log, with this process's deltas, into one
    /// totals line.
    pub fn gc(&self, budget: Option<u64>) -> GcReport {
        let mut report = GcReport::default();

        // Corrupt debris first: quarantine preserved it for diagnosis;
        // an explicit gc is the signal that diagnosis is over.
        let Some(_lock) = GcLock::acquire(&self.dir) else {
            let (live, _) = self.scan();
            report.entries = live.len() as u64;
            report.bytes = live.iter().map(|(_, len, _)| len).sum();
            return report; // contended: scan-only, ran stays false
        };
        if let Ok(entries) = fs::read_dir(&self.dir) {
            for entry in entries.flatten() {
                let name = entry.file_name();
                let is_corrupt = name.to_str().is_some_and(|n| n.ends_with(".corrupt"));
                if is_corrupt && fs::remove_file(entry.path()).is_ok() {
                    report.corrupt_removed += 1;
                }
            }
        }

        let (mut live, _) = self.scan();
        if let Some((evicted, reclaimed)) = budget.and_then(|b| self.evict_oldest(&mut live, b)) {
            report.evicted_entries = evicted;
            report.evicted_bytes = reclaimed;
        }
        report.entries = live.len() as u64;
        report.bytes = live.iter().map(|(_, len, _)| len).sum();
        report.ran = true;

        self.fold_counters();
        report
    }

    /// The directory's current contents and lifetime counters: the
    /// persisted totals from `cache.stats` plus this process's
    /// not-yet-persisted activity.
    pub fn stats(&self) -> CacheStats {
        let (live, corrupt) = self.scan();
        let mut stats = self.state.totals(&self.dir);
        stats.entries = live.len() as u64;
        stats.bytes = live.iter().map(|(_, len, _)| len).sum();
        stats.corrupt = corrupt;
        stats
    }

    /// Appends this process's counter deltas to the `cache.stats` log
    /// as one line (best-effort; the campaign calls this at the end of
    /// each run). Deltas are swapped out atomically, so concurrent
    /// persists from several caches on one directory never double-count;
    /// the single `O_APPEND` write keeps other processes' lines whole;
    /// and persists within one process are serialized with folds and
    /// total reads, so every delta is counted exactly once.
    pub fn persist_counters(&self) {
        let _persist = self.state.persist.lock().unwrap_or_else(|e| e.into_inner());
        let deltas = self.state.take_live();
        if deltas == CacheStats::default() {
            return;
        }
        let append = || {
            fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(self.dir.join("cache.stats"))
        };
        let file = append().or_else(|err| {
            // The directory is created lazily: a run that only missed
            // has not made it yet.
            if err.kind() != io::ErrorKind::NotFound {
                return Err(err);
            }
            fs::create_dir_all(&self.dir)?;
            append()
        });
        if let Ok(mut file) = file {
            use io::Write as _;
            let _ = file.write_all(counter_line(&deltas).as_bytes());
        }
    }

    /// Folds the `cache.stats` log and this process's deltas into one
    /// totals line, written by temp + rename. Callers hold `gc.lock`, so
    /// folds never race each other; another process's append that lands
    /// between the read and the rename is lost (counters are
    /// diagnostics, never load-bearing).
    fn fold_counters(&self) {
        let _persist = self.state.persist.lock().unwrap_or_else(|e| e.into_inner());
        let mut totals = read_persisted(&self.dir);
        let deltas = self.state.take_live();
        if totals == CacheStats::default()
            && deltas == CacheStats::default()
            && !self.dir.join("cache.stats").exists()
        {
            return;
        }
        totals.add(&deltas);
        let _ = write_atomic(
            &self.dir,
            "cache.stats",
            counter_line(&totals).as_bytes(),
            &self.tmp_counter,
        );
    }
}

/// One `cache.stats` line: the six persisted counters as a JSON object.
fn counter_line(c: &CacheStats) -> String {
    format!(
        "{{\"version\":1,\"hits\":{},\"hot_hits\":{},\"misses\":{},\"stores\":{},\
         \"evicted_entries\":{},\"evicted_bytes\":{}}}\n",
        c.hits, c.hot_hits, c.misses, c.stores, c.evicted_entries, c.evicted_bytes,
    )
}

/// Reads an open entry to its end. A plain `read` loop: `File`'s own
/// `read_to_string` first `statx`es and seeks the descriptor for a size
/// hint, two syscalls an entry of under a page does not need.
fn read_all(mut file: &fs::File) -> io::Result<Vec<u8>> {
    use io::Read as _;
    let mut bytes = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        match file.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => bytes.extend_from_slice(&chunk[..n]),
            Err(err) if err.kind() == io::ErrorKind::Interrupted => {}
            Err(err) => return Err(err),
        }
    }
    Ok(bytes)
}

/// Atomic sibling-file write (same temp + rename protocol as entries).
fn write_atomic(dir: &Path, name: &str, bytes: &[u8], counter: &AtomicU64) -> io::Result<()> {
    let tmp = dir.join(format!(
        ".{name}.{}.{}.tmp",
        std::process::id(),
        counter.fetch_add(1, Ordering::Relaxed),
    ));
    fs::write(&tmp, bytes)?;
    fs::rename(&tmp, dir.join(name))
}

/// Reads the persisted counter totals: the sum of the `cache.stats`
/// log's lines (zeroes when absent — counters are diagnostics, never
/// load-bearing). Only newline-terminated lines count, so a torn last
/// line is skipped, and each line is judged alone: a byte that is not
/// UTF-8 reads as U+FFFD and costs only the field it sits in. Within a
/// line only the text from its last `{` is read, so a torn line that a
/// later append completed still yields that append's record. Fields are
/// found by name, so a line that still carries the retired `"coalesced"`
/// counter reads its other counters unchanged.
fn read_persisted(dir: &Path) -> CacheStats {
    let mut totals = CacheStats::default();
    let Ok(bytes) = fs::read(dir.join("cache.stats")) else {
        return totals;
    };
    let text = String::from_utf8_lossy(&bytes);
    let Some(complete) = text.rfind('\n') else {
        return totals;
    };
    for line in text[..complete].split('\n') {
        let record = line.rfind('{').map_or(line, |start| &line[start..]);
        let field = |name: &str| -> u64 {
            let needle = format!("\"{name}\":");
            let Some(start) = record.find(&needle) else {
                return 0;
            };
            let digits = &record[start + needle.len()..];
            let end = digits
                .find(|c: char| !c.is_ascii_digit())
                .unwrap_or(digits.len());
            digits[..end].parse().unwrap_or(0)
        };
        totals.add(&CacheStats {
            hits: field("hits"),
            hot_hits: field("hot_hits"),
            misses: field("misses"),
            stores: field("stores"),
            evicted_entries: field("evicted_entries"),
            evicted_bytes: field("evicted_bytes"),
            ..CacheStats::default()
        });
    }
    totals
}

/// The single-writer eviction lock: `gc.lock` created with `create_new`,
/// removed on drop, stolen when older than [`LOCK_STALE`] (a crashed
/// evictor must not wedge eviction forever).
struct GcLock {
    path: PathBuf,
}

impl GcLock {
    fn acquire(dir: &Path) -> Option<GcLock> {
        let path = dir.join("gc.lock");
        for attempt in 0..2 {
            match fs::OpenOptions::new()
                .write(true)
                .create_new(true)
                .open(&path)
            {
                Ok(mut file) => {
                    use io::Write as _;
                    let _ = writeln!(file, "{}", std::process::id());
                    return Some(GcLock { path });
                }
                Err(e) if e.kind() == io::ErrorKind::AlreadyExists && attempt == 0 => {
                    let stale = fs::metadata(&path)
                        .and_then(|m| m.modified())
                        .ok()
                        .and_then(|m| SystemTime::now().duration_since(m).ok())
                        .is_some_and(|age| age > LOCK_STALE);
                    if !stale {
                        return None; // a live evictor holds it: skip
                    }
                    let _ = fs::remove_file(&path); // crashed evictor: steal
                }
                Err(_) => return None,
            }
        }
        None
    }
}

impl Drop for GcLock {
    fn drop(&mut self) {
        let _ = fs::remove_file(&self.path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mn_core::SystemConfig;
    use mn_topo::TopologyKind;
    use mn_workloads::Workload;

    fn scratch_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "mncampaign-cache-test-{}-{tag}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn tiny_point() -> CampaignPoint {
        let mut config = SystemConfig::paper_baseline(TopologyKind::Chain, 1.0).unwrap();
        config.requests_per_port = 200;
        CampaignPoint::new(config, Workload::Nw)
    }

    fn seeded_point(seed: u64) -> CampaignPoint {
        let mut point = tiny_point();
        point.config.seed = seed;
        point
    }

    #[test]
    fn store_then_load_roundtrips() {
        let dir = scratch_dir("roundtrip");
        let cache = DiskCache::new(&dir);
        let point = tiny_point();
        assert!(cache.load(&point).is_none());

        let result = mn_core::simulate(&point.config, point.workload);
        cache.store(&point, &result).unwrap();
        let loaded = cache.load(&point).expect("hit");
        assert_eq!(encode_result(&loaded), encode_result(&result));

        // A different seed is a different point: still a miss.
        let mut other = tiny_point();
        other.config.seed ^= 0xDEAD;
        assert!(cache.load(&other).is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    /// Empties the hot tier `cache` shares with every cache on its
    /// directory, so the next load reads the disk, as in a fresh process.
    fn empty_hot_tier(cache: &DiskCache) {
        cache.state.hot.lock().unwrap().clear();
    }

    #[test]
    fn hot_tier_serves_without_reread_or_stat() {
        let dir = scratch_dir("hot");
        let cache = DiskCache::new(&dir);
        let point = tiny_point();
        let result = mn_core::simulate(&point.config, point.workload);
        cache.store(&point, &result).unwrap();
        let before = cache.stats();

        // The store promoted the entry; this hit is resident.
        let loaded = cache.load(&point).expect("warm hit");
        assert_eq!(encode_result(&loaded), encode_result(&result));
        let after = cache.stats();
        assert_eq!(after.hits, before.hits + 1);
        assert_eq!(after.hot_hits, before.hot_hits + 1);

        // A second cache on the same directory shares the hot tier.
        let sibling = DiskCache::new(&dir);
        assert!(sibling.load(&point).is_some());
        assert_eq!(sibling.stats().hot_hits, after.hot_hits + 1);

        // A resident copy is never checked against its file again: it
        // keeps serving after the file is deleted, and once the tier is
        // emptied the load reads the disk and misses.
        fs::remove_file(cache.entry_path(&point)).unwrap();
        let resident = cache.load(&point).expect("resident copy");
        assert_eq!(encode_result(&resident), encode_result(&result));
        empty_hot_tier(&cache);
        assert!(cache.load(&point).is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_entries_are_misses() {
        let dir = scratch_dir("corrupt");
        let cache = DiskCache::new(&dir);
        let point = tiny_point();
        let result = mn_core::simulate(&point.config, point.workload);
        cache.store(&point, &result).unwrap();

        let path = cache.entry_path(&point);
        fs::write(&path, "mncampaign-cache v0\ngarbage").unwrap();
        // The resident copy still serves; with the tier emptied, the load
        // reads the damaged bytes and misses.
        assert!(cache.load(&point).is_some());
        empty_hot_tier(&cache);
        assert!(cache.load(&point).is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_entries_are_quarantined_not_reread() {
        let dir = scratch_dir("quarantine");
        let cache = DiskCache::new(&dir);
        let point = tiny_point();
        let result = mn_core::simulate(&point.config, point.workload);

        // Truncated body: valid header + fingerprint, undecodable payload.
        cache.store(&point, &result).unwrap();
        let path = cache.entry_path(&point);
        fs::write(
            &path,
            format!("{HEADER}\nkey={}\nnot-a-result", point.fingerprint()),
        )
        .unwrap();
        empty_hot_tier(&cache);
        assert!(cache.load(&point).is_none());
        assert!(!path.exists(), "corrupt entry should have been moved");
        assert!(path.with_extension("corrupt").exists());
        // Moved, so the next load is a clean miss, not a re-read.
        assert!(cache.load(&point).is_none());

        // The quarantined name never collides with a fresh store: the
        // point re-simulates and caches cleanly next to the evidence.
        cache.store(&point, &result).unwrap();
        empty_hot_tier(&cache);
        assert!(cache.load(&point).is_some());
        assert!(path.with_extension("corrupt").exists());

        // gc removes the quarantined debris.
        let report = cache.gc(None);
        assert!(report.ran);
        assert_eq!(report.corrupt_removed, 1);
        assert!(!path.with_extension("corrupt").exists());
        assert_eq!(report.entries, 1);

        // A byte that is not UTF-8 is corruption too, not a plain miss
        // that every later run would re-read.
        let mut bytes = fs::read(&path).unwrap();
        bytes[HEADER.len() + 1] = 0xFF;
        fs::write(&path, &bytes).unwrap();
        empty_hot_tier(&cache);
        assert!(cache.load(&point).is_none());
        assert!(!path.exists(), "a non-UTF-8 entry should have been moved");
        assert_eq!(fs::read(path.with_extension("corrupt")).unwrap(), bytes);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_tmp_files_are_swept_on_open() {
        let dir = scratch_dir("sweep");
        fs::create_dir_all(&dir).unwrap();
        // Debris from a killed run: write-to-temp happened, rename never
        // did. Plus a live-looking entry and a dotless decoy that must
        // both survive the sweep.
        fs::write(dir.join(".1234abcd.9999.0.tmp"), "torn half-write").unwrap();
        fs::write(dir.join(".deadbeef.42.7.tmp"), "more debris").unwrap();
        fs::write(dir.join("keepme.tmp"), "no leading dot: not ours").unwrap();

        let cache = DiskCache::new(&dir);
        let point = tiny_point();
        assert!(cache.load(&point).is_none()); // first use triggers the sweep
        assert!(!dir.join(".1234abcd.9999.0.tmp").exists());
        assert!(!dir.join(".deadbeef.42.7.tmp").exists());
        assert!(dir.join("keepme.tmp").exists());

        // And the swept cache still works end to end.
        let result = mn_core::simulate(&point.config, point.workload);
        cache.store(&point, &result).unwrap();
        assert!(cache.load(&point).is_some());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn unwritable_dir_fails_store_but_not_the_point() {
        // An unwritable cache directory, simulated portably (mode-bit
        // tricks are bypassed when tests run as root): the directory
        // path is occupied by a regular file, so `create_dir_all` — and
        // therefore every write — fails with a real filesystem error.
        let dir = scratch_dir("unwritable");
        fs::create_dir_all(dir.parent().unwrap()).unwrap();
        fs::write(&dir, "a file squatting on the cache dir path").unwrap();

        let cache = DiskCache::new(&dir);
        let point = tiny_point();
        let result = mn_core::simulate(&point.config, point.workload);
        // The store fails with a structured error the campaign reports
        // (warn-once) and otherwise ignores: the point completed, it is
        // just not cached — and the load stays a clean miss.
        assert!(cache.store(&point, &result).is_err());
        assert!(cache.load(&point).is_none());
        let _ = fs::remove_file(&dir);
    }

    #[test]
    fn quarantine_racing_a_fresh_store_is_benign() {
        // One thread loads a corrupt entry (quarantining it) while
        // another stores a fresh result under the same key — the exact
        // interleaving two processes racing one directory produce. Any
        // interleaving must end with no panic and a loadable-or-missing
        // entry that, when present, is exactly the fresh result. The hot
        // tier is emptied before the race and before the check, so the
        // loader reads the rotten bytes (unless the store lands first)
        // and the check reads what survived on disk.
        let dir = scratch_dir("quarantine-race");
        let point = tiny_point();
        let result = mn_core::simulate(&point.config, point.workload);
        let mut quarantined = 0;
        for round in 0..16 {
            let cache = DiskCache::new(&dir);
            cache.store(&point, &result).unwrap();
            let path = cache.entry_path(&point);
            fs::write(&path, "mncampaign-cache v0-rotten\ngarbage").unwrap();
            let _ = fs::remove_file(path.with_extension("corrupt"));
            empty_hot_tier(&cache);

            std::thread::scope(|scope| {
                let loader = DiskCache::new(&dir);
                let storer = DiskCache::new(&dir);
                let (p1, r1) = (&point, &result);
                scope.spawn(move || {
                    let _ = loader.load(p1); // may quarantine
                });
                scope.spawn(move || {
                    storer.store(p1, r1).unwrap();
                });
            });

            if path.with_extension("corrupt").exists() {
                quarantined += 1;
            }
            empty_hot_tier(&cache);
            if let Some(loaded) = cache.load(&point) {
                assert_eq!(
                    encode_result(&loaded),
                    encode_result(&result),
                    "round {round}: surviving entry must be the fresh result"
                );
            }
            // Either way the next store must recover the key.
            cache.store(&point, &result).unwrap();
            assert!(cache.load(&point).is_some(), "round {round}");
        }
        assert!(quarantined > 0, "no round raced a quarantine");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn fingerprint_collisions_are_plain_misses() {
        let dir = scratch_dir("collision");
        let cache = DiskCache::new(&dir);
        let point = tiny_point();
        let result = mn_core::simulate(&point.config, point.workload);
        cache.store(&point, &result).unwrap();

        // Simulate an FNV collision: a well-formed entry whose fingerprint
        // belongs to a different point. That entry is someone's valid
        // result — it must stay in place, not be quarantined.
        let path = cache.entry_path(&point);
        fs::write(
            &path,
            format!("{HEADER}\nkey=some-other-fingerprint\n{}", {
                crate::codec::encode_result(&result)
            }),
        )
        .unwrap();
        empty_hot_tier(&cache);
        assert!(cache.load(&point).is_none());
        assert!(path.exists(), "collision entry must not be quarantined");
        assert!(!path.with_extension("corrupt").exists());
        // The entry serves the point it belongs to, and a resident copy
        // under one fingerprint never serves another: the third point
        // reads the disk and misses there too.
        let key = point.cache_key();
        assert!(cache.load_keyed("some-other-fingerprint", &key).is_some());
        assert!(cache.load_keyed("some-third-fingerprint", &key).is_none());
        assert!(path.exists());
        let _ = fs::remove_dir_all(&dir);
    }

    /// Plants an entry that looks like another run's: valid format, with
    /// a controlled mtime.
    fn plant_cold_entry(
        cache: &DiskCache,
        point: &CampaignPoint,
        result: &RunResult,
        age: Duration,
    ) {
        fs::create_dir_all(cache.dir()).unwrap();
        let path = cache.entry_path(point);
        fs::write(
            &path,
            format!(
                "{HEADER}\nkey={}\n{}",
                point.fingerprint(),
                encode_result(result)
            ),
        )
        .unwrap();
        let file = fs::OpenOptions::new().append(true).open(&path).unwrap();
        file.set_times(fs::FileTimes::new().set_modified(SystemTime::now() - age))
            .unwrap();
    }

    #[test]
    fn eviction_takes_the_oldest_written_first() {
        let dir = scratch_dir("eviction");
        let cache = DiskCache::new(&dir);
        let point = tiny_point();
        let result = mn_core::simulate(&point.config, point.workload);
        let entry_len = {
            // Measure one encoded entry so the budget below is exact.
            plant_cold_entry(&cache, &seeded_point(900), &result, Duration::from_secs(1));
            fs::metadata(cache.entry_path(&seeded_point(900)))
                .unwrap()
                .len()
        };
        let _ = fs::remove_file(cache.entry_path(&seeded_point(900)));

        // Six cold entries from "another run", oldest first.
        for i in 0..6u64 {
            plant_cold_entry(
                &cache,
                &seeded_point(1000 + i),
                &result,
                Duration::from_secs(3600 - i * 60),
            );
        }

        // A store never evicts: all seven entries stay until a gc.
        cache.store(&point, &result).unwrap();
        assert_eq!(cache.stats().entries, 7);

        // Budget fits three entries: the gc reclaims the four oldest
        // (1000..=1003) and keeps the newer ones and the stored entry.
        let report = cache.gc(Some(entry_len * 3));
        assert_eq!(report.evicted_entries, 4);
        for i in [1000u64, 1001, 1002, 1003] {
            assert!(
                !cache.entry_path(&seeded_point(i)).exists(),
                "oldest entry {i} must be evicted"
            );
        }
        for i in [1004u64, 1005] {
            assert!(
                cache.entry_path(&seeded_point(i)).exists(),
                "newer entry {i} fits the budget and must survive"
            );
        }
        assert!(cache.entry_path(&point).exists(), "newest entry survives");
        let stats = cache.stats();
        assert_eq!(stats.evicted_entries, 4);
        assert_eq!(stats.evicted_bytes, entry_len * 4);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn gc_converges_under_budget() {
        let dir = scratch_dir("gc");
        let cache = DiskCache::new(&dir);
        let point = tiny_point();
        let result = mn_core::simulate(&point.config, point.workload);
        for i in 0..5u64 {
            plant_cold_entry(
                &cache,
                &seeded_point(2000 + i),
                &result,
                Duration::from_secs(600 - i * 60),
            );
        }
        let entry_len = fs::metadata(cache.entry_path(&seeded_point(2000)))
            .unwrap()
            .len();

        let report = cache.gc(Some(entry_len * 2));
        assert!(report.ran);
        assert_eq!(report.evicted_entries, 3);
        assert_eq!(report.entries, 2);
        assert!(report.bytes <= entry_len * 2);
        // The survivors are the two newest.
        assert!(cache.entry_path(&seeded_point(2003)).exists());
        assert!(cache.entry_path(&seeded_point(2004)).exists());

        // Idempotent: a second pass under the same budget evicts nothing.
        let again = cache.gc(Some(entry_len * 2));
        assert!(again.ran);
        assert_eq!(again.evicted_entries, 0);
        assert_eq!(again.entries, 2);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn gc_lock_contention_skips_eviction() {
        let dir = scratch_dir("gc-lock");
        let cache = DiskCache::new(&dir);
        let point = tiny_point();
        let result = mn_core::simulate(&point.config, point.workload);
        plant_cold_entry(&cache, &point, &result, Duration::from_secs(60));

        // A live evictor holds the lock: the pass is scan-only.
        fs::write(dir.join("gc.lock"), "12345\n").unwrap();
        let report = cache.gc(Some(1));
        assert!(!report.ran);
        assert_eq!(report.entries, 1);
        assert!(cache.entry_path(&point).exists());

        // A *stale* lock (crashed evictor) is stolen and the pass runs.
        let lock = fs::OpenOptions::new()
            .append(true)
            .open(dir.join("gc.lock"))
            .unwrap();
        lock.set_times(
            fs::FileTimes::new().set_modified(SystemTime::now() - Duration::from_secs(3600)),
        )
        .unwrap();
        drop(lock);
        let report = cache.gc(Some(1));
        assert!(report.ran);
        assert_eq!(report.evicted_entries, 1);
        assert!(!dir.join("gc.lock").exists(), "lock released after gc");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn counters_persist_and_merge_across_instances() {
        let dir = scratch_dir("stats");
        let cache = DiskCache::new(&dir);
        let point = tiny_point();
        let result = mn_core::simulate(&point.config, point.workload);

        assert!(cache.load(&point).is_none()); // miss 1
        cache.store(&point, &result).unwrap(); // store 1
        assert!(cache.load(&point).is_some()); // hit 1 (hot)
        cache.persist_counters();

        // A fresh instance reads the persisted totals.
        let fresh = DiskCache::new(&dir);
        let stats = fresh.stats();
        assert_eq!(stats.entries, 1);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.stores, 1);
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.hot_hits, 1);

        // Live (unpersisted) activity joins the persisted totals, and a
        // second persist folds — never double-counts — the deltas.
        assert!(fresh.load(&point).is_some());
        assert_eq!(fresh.stats().hits, 2);
        fresh.persist_counters();
        fresh.persist_counters(); // all-zero deltas: no-op
        assert_eq!(DiskCache::new(&dir).stats().hits, 2);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn stats_files_with_the_retired_coalesced_counter_still_merge() {
        // `cache.stats` files written before the coalesced counter was
        // retired carry a `"coalesced"` key; the other counters still
        // read, the next persist appends onto them, and the next gc
        // folds the log into one line without the retired key.
        let dir = scratch_dir("old-stats");
        fs::create_dir_all(&dir).unwrap();
        fs::write(
            dir.join("cache.stats"),
            "{\"version\":1,\"hits\":5,\"hot_hits\":2,\"misses\":3,\"stores\":4,\
             \"coalesced\":7,\"evicted_entries\":1,\"evicted_bytes\":64}\n",
        )
        .unwrap();
        let cache = DiskCache::new(&dir);
        let point = tiny_point();
        assert!(cache.load(&point).is_none()); // one more miss
        cache.persist_counters();

        let merged = |dir: &Path| {
            let stats = DiskCache::new(dir).stats();
            assert_eq!(
                (stats.hits, stats.hot_hits, stats.misses, stats.stores),
                (5, 2, 4, 4)
            );
            assert_eq!((stats.evicted_entries, stats.evicted_bytes), (1, 64));
        };
        merged(&dir);
        assert_eq!(stats_lines(&dir).len(), 2, "a persist appends");

        assert!(cache.gc(None).ran);
        merged(&dir);
        let lines = stats_lines(&dir);
        assert_eq!(lines.len(), 1, "gc folds the log: {lines:?}");
        assert!(!lines[0].contains("coalesced"), "{lines:?}");
        let _ = fs::remove_dir_all(&dir);
    }

    fn stats_lines(dir: &Path) -> Vec<String> {
        fs::read_to_string(dir.join("cache.stats"))
            .unwrap()
            .lines()
            .map(str::to_string)
            .collect()
    }

    #[test]
    fn concurrent_persists_through_two_caches_sum_exactly() {
        // Eight threads, split over two `DiskCache`s on one directory,
        // each count misses and persist them while the others do: every
        // delta lands in the log exactly once.
        let dir = scratch_dir("stats-threads");
        fs::create_dir_all(&dir).unwrap();
        let caches = [DiskCache::new(&dir), DiskCache::new(&dir)];
        let point = tiny_point();
        const ROUNDS: u64 = 40;
        std::thread::scope(|scope| {
            for t in 0..8 {
                let (cache, point) = (&caches[t % 2], &point);
                scope.spawn(move || {
                    for _ in 0..ROUNDS {
                        assert!(cache.load(point).is_none());
                        cache.persist_counters();
                    }
                });
            }
        });
        let stats = DiskCache::new(&dir).stats();
        assert_eq!(stats.misses, 8 * ROUNDS);
        assert_eq!(stats.hits, 0);
        let lines = stats_lines(&dir);
        assert!(
            !lines.is_empty() && lines.len() as u64 <= 8 * ROUNDS,
            "{} lines",
            lines.len()
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_torn_last_line_is_skipped() {
        let dir = scratch_dir("stats-torn");
        fs::create_dir_all(&dir).unwrap();
        let mut log = counter_line(&CacheStats {
            hits: 3,
            misses: 1,
            ..CacheStats::default()
        })
        .into_bytes();
        // A damaged line, which costs only itself, and a damaged torn
        // prefix, which costs nothing once a later append completes it.
        log.extend_from_slice(b"{\"version\":1,\"hits\":\xFF7}\n");
        log.extend_from_slice(b"{\"hits\":\xFF");
        log.extend_from_slice(
            counter_line(&CacheStats {
                stores: 2,
                ..CacheStats::default()
            })
            .as_bytes(),
        );
        // A crash mid-append: the last line has no newline.
        log.extend_from_slice(b"{\"version\":1,\"hits\":1000");
        fs::write(dir.join("cache.stats"), &log).unwrap();

        let stats = DiskCache::new(&dir).stats();
        assert_eq!((stats.hits, stats.misses, stats.stores), (3, 1, 2));

        // The next append completes the torn line; only its own record
        // counts, not the torn prefix.
        let cache = DiskCache::new(&dir);
        assert!(cache.load(&tiny_point()).is_none());
        cache.persist_counters();
        let stats = DiskCache::new(&dir).stats();
        assert_eq!((stats.hits, stats.misses, stats.stores), (3, 2, 2));

        // A gc folds what the log holds, not just this process's deltas.
        assert!(cache.gc(None).ran);
        assert_eq!(stats_lines(&dir).len(), 1);
        let stats = DiskCache::new(&dir).stats();
        assert_eq!((stats.hits, stats.misses, stats.stores), (3, 2, 2));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn gc_folds_the_counter_log_into_one_totals_line() {
        let dir = scratch_dir("stats-fold");
        let cache = DiskCache::new(&dir);
        let point = tiny_point();
        let result = mn_core::simulate(&point.config, point.workload);
        assert!(cache.load(&point).is_none());
        cache.persist_counters();
        cache.store(&point, &result).unwrap();
        cache.persist_counters();
        assert!(cache.load(&point).is_some());
        cache.persist_counters();
        assert_eq!(stats_lines(&dir).len(), 3);
        // Live deltas fold in as well.
        assert!(cache.load(&point).is_some());
        let before = cache.stats();

        assert!(cache.gc(None).ran);
        assert_eq!(stats_lines(&dir).len(), 1);
        assert_eq!(DiskCache::new(&dir).stats(), before);
        assert_eq!((before.misses, before.stores, before.hits), (1, 1, 2));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn counter_sums_saturate_instead_of_overflowing() {
        // Two lines that each fit a u64 but sum past it.
        let dir = scratch_dir("stats-overflow");
        fs::create_dir_all(&dir).unwrap();
        let line = "{\"version\":1,\"hits\":9999999999999999999}\n";
        fs::write(dir.join("cache.stats"), line.repeat(2)).unwrap();
        let cache = DiskCache::new(&dir);
        assert_eq!(cache.stats().hits, u64::MAX);
        assert!(cache.gc(None).ran);
        assert_eq!(stats_lines(&dir).len(), 1);
        assert_eq!(DiskCache::new(&dir).stats().hits, u64::MAX);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn mutated_counter_logs_read_and_fold_without_panicking() {
        // Seeded edits of a valid three-line log: `stats` and `gc` never
        // panic, and folding the log into one line keeps every counter
        // that `stats` reported before the fold.
        use crate::codec::tests::mutate;
        let dir = scratch_dir("stats-mutate");
        fs::create_dir_all(&dir).unwrap();
        let valid: String = [(3, 1, 2, 0), (7, 7, 0, 1), (0, 0, 5, 2)]
            .into_iter()
            .map(|(hits, hot_hits, misses, stores)| {
                counter_line(&CacheStats {
                    hits,
                    hot_hits,
                    misses,
                    stores,
                    evicted_entries: stores,
                    evicted_bytes: 512 * stores,
                    ..CacheStats::default()
                })
            })
            .collect();
        let mut rng = mn_sim::SimRng::seed_from(0xCA_C4E5);
        let cache = DiskCache::new(&dir);
        for _ in 0..10_000 {
            let mut chars: Vec<char> = valid.chars().collect();
            for _ in 0..rng.range(1, 6) {
                mutate(&mut chars, &mut rng);
            }
            let log: String = chars.into_iter().collect();
            fs::write(dir.join("cache.stats"), &log).unwrap();
            let before = cache.stats();
            assert!(cache.gc(None).ran);
            assert_eq!(cache.stats(), before, "{log:?}");
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[cfg(unix)]
    #[test]
    fn read_only_entries_serve_from_disk_then_hot() {
        use std::os::unix::fs::PermissionsExt as _;
        let dir = scratch_dir("read-only");
        let cache = DiskCache::new(&dir);
        let point = tiny_point();
        let result = mn_core::simulate(&point.config, point.workload);
        // Planted, not stored, so the first load is a disk hit.
        plant_cold_entry(&cache, &point, &result, Duration::from_secs(60));
        let path = cache.entry_path(&point);
        fs::set_permissions(&path, fs::Permissions::from_mode(0o444)).unwrap();

        let loaded = cache.load(&point).expect("disk hit on a 0444 entry");
        assert_eq!(encode_result(&loaded), encode_result(&result));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.hot_hits), (1, 0));
        // The disk hit promoted the entry: the next load is a hot hit.
        assert!(cache.load(&point).is_some());
        assert_eq!(cache.stats().hot_hits, 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_second_cache_on_a_swept_directory_does_not_list_it_again() {
        let dir = scratch_dir("sweep-once");
        fs::create_dir_all(&dir).unwrap();
        let point = tiny_point();
        assert!(DiskCache::new(&dir).load(&point).is_none()); // sweeps

        // Debris that appears after this process's sweep stays: no
        // other cache on the directory lists it again.
        fs::write(dir.join(".late.1.0.tmp"), "after the sweep").unwrap();
        let second = DiskCache::new(&dir);
        assert!(second.load(&point).is_none());
        let result = mn_core::simulate(&point.config, point.workload);
        second.store(&point, &result).unwrap();
        assert!(dir.join(".late.1.0.tmp").exists());
        assert!(second.load(&point).is_some());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn disk_hits_leave_the_entry_as_it_was() {
        let dir = scratch_dir("disk-hit");
        let cache = DiskCache::new(&dir);
        let point = tiny_point();
        let result = mn_core::simulate(&point.config, point.workload);
        let path = cache.entry_path(&point);

        // A disk hit leaves the entry's mtime as it was and promotes the
        // result, so the next load serves hot.
        plant_cold_entry(&cache, &point, &result, Duration::from_secs(60));
        let planted = fs::metadata(&path).unwrap().modified().unwrap();
        assert!(cache.load(&point).is_some());
        assert_eq!(cache.stats().hot_hits, 0);
        assert_eq!(fs::metadata(&path).unwrap().modified().unwrap(), planted);
        assert!(cache.load(&point).is_some());
        assert_eq!(cache.stats().hot_hits, 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn an_entry_with_an_impossible_energy_is_quarantined() {
        // A well-formed entry whose network energy has its sign bit set:
        // the decoder refuses it, so the load quarantines it instead of
        // panicking in `EnergyPj::from_pj`.
        let dir = scratch_dir("energy");
        let cache = DiskCache::new(&dir);
        let point = tiny_point();
        let result = mn_core::simulate(&point.config, point.workload);
        let bits = result.energy.network.as_pj().to_bits();
        assert!(
            result.energy.network.as_pj() > 0.0,
            "a sign bit must make it negative"
        );
        plant_cold_entry(&cache, &point, &result, Duration::from_secs(60));
        let path = cache.entry_path(&point);
        let text = fs::read_to_string(&path).unwrap();
        let damaged = text.replacen(
            &format!("energy={bits:016x}"),
            &format!("energy={:016x}", bits | 1 << 63),
            1,
        );
        assert_ne!(damaged, text);
        fs::write(&path, &damaged).unwrap();

        assert!(cache.load(&point).is_none());
        assert!(!path.exists(), "the entry should have been moved");
        assert_eq!(
            fs::read_to_string(path.with_extension("corrupt")).unwrap(),
            damaged
        );
        let _ = fs::remove_dir_all(&dir);
    }
}
