//! Persistent, content-addressed solution cache.
//!
//! Solved encodings are stored as one JSON file per problem fingerprint
//! (`<sha256>.json` under the cache directory), so a repeated compilation
//! of the same model is served in microseconds instead of re-running the
//! SAT portfolio. Entries record their optimality status: an *optimal*
//! entry is final, a *best-so-far* entry (budget-terminated run) is still
//! useful as a warm start and upgraded in place when a later run does
//! better.
//!
//! Writes go through a temp file + rename, so a crashed writer never
//! leaves a torn entry; a corrupt or unreadable entry is treated as a miss.
//!
//! A companion [`SizeIndex`] groups entries *across mode counts* by their
//! problem family (same objective, constraints, and Hamiltonian shape),
//! powering the engine's cross-size warm-start transfer: a cached `M`-mode
//! optimum embeds into the `N > M`-mode search as a feasible starting
//! point ([`encodings::embed`]).

use crate::fingerprint::Fingerprint;
use crate::problemio::{strings_from_json, strings_to_json};
use jsonkit::{obj, Value};
use pauli::PauliString;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::SystemTime;

/// Schema version; bump to invalidate all existing entries.
const CACHE_VERSION: usize = 1;

/// Snapshot of a cache handle's traffic counters (cumulative over the
/// handle's lifetime; clones share counters).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheCounters {
    /// Lookups that found an optimal (final) entry.
    pub hit_optimal: u64,
    /// Lookups that found a best-so-far entry usable as a warm start.
    pub hit_warm_start: u64,
    /// Same-size lookups that missed but were answered by embedding a
    /// cached *smaller*-mode solution ([`SizeIndex`]) as a warm start.
    pub hit_cross_size: u64,
    /// Lookups that found nothing (or a torn/mismatched entry).
    pub misses: u64,
    /// Entries written (including upgrades of existing entries).
    pub stores: u64,
    /// Entries deleted by the byte-cap LRU eviction.
    pub evictions: u64,
}

#[derive(Debug, Default)]
struct CounterCells {
    hit_optimal: AtomicU64,
    hit_warm_start: AtomicU64,
    hit_cross_size: AtomicU64,
    misses: AtomicU64,
    stores: AtomicU64,
    evictions: AtomicU64,
}

/// A cached solution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheEntry {
    /// The `2N` Majorana strings of the encoding.
    pub strings: Vec<PauliString>,
    /// Objective weight of the encoding.
    pub weight: usize,
    /// True when an UNSAT certificate proved this weight optimal.
    pub optimal: bool,
    /// Name of the strategy that produced the encoding (provenance only).
    pub strategy: String,
}

/// A directory of cached solutions keyed by problem fingerprint.
#[derive(Debug, Clone)]
pub struct SolutionCache {
    dir: PathBuf,
    byte_cap: Option<u64>,
    counters: Arc<CounterCells>,
}

impl SolutionCache {
    /// Opens (creating if needed) a cache directory.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation failures.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<SolutionCache> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(SolutionCache {
            dir,
            byte_cap: None,
            counters: Arc::new(CounterCells::default()),
        })
    }

    /// Bounds the cache directory to roughly `max_bytes` of entry files;
    /// every store then evicts least-recently-written entries (oldest
    /// file mtime first) until the total fits. The newest entry is never
    /// evicted, so a cap smaller than one entry degrades to "keep only
    /// the latest". `None` disables eviction.
    pub fn with_byte_cap(mut self, max_bytes: Option<u64>) -> SolutionCache {
        self.byte_cap = max_bytes;
        self
    }

    /// The backing directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Traffic counters of this handle (and all of its clones).
    pub fn counters(&self) -> CacheCounters {
        CacheCounters {
            hit_optimal: self.counters.hit_optimal.load(Ordering::Relaxed),
            hit_warm_start: self.counters.hit_warm_start.load(Ordering::Relaxed),
            hit_cross_size: self.counters.hit_cross_size.load(Ordering::Relaxed),
            misses: self.counters.misses.load(Ordering::Relaxed),
            stores: self.counters.stores.load(Ordering::Relaxed),
            evictions: self.counters.evictions.load(Ordering::Relaxed),
        }
    }

    /// Records that a same-size miss was answered by embedding a smaller
    /// cached solution. Counted by the engine (which owns the embedding),
    /// surfaced alongside the other traffic counters.
    pub fn note_cross_size_hit(&self) {
        self.counters.hit_cross_size.fetch_add(1, Ordering::Relaxed);
    }

    fn path_for(&self, fp: &Fingerprint) -> PathBuf {
        self.dir.join(format!("{}.json", fp.to_hex()))
    }

    /// Looks up a fingerprint. Missing, torn, or schema-mismatched entries
    /// are all misses. Updates the hit/miss counters.
    pub fn lookup(&self, fp: &Fingerprint) -> Option<CacheEntry> {
        match self.read_entry(fp) {
            Some(entry) => {
                if entry.optimal {
                    self.counters.hit_optimal.fetch_add(1, Ordering::Relaxed);
                } else {
                    self.counters.hit_warm_start.fetch_add(1, Ordering::Relaxed);
                }
                Some(entry)
            }
            None => {
                self.counters.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// [`lookup`](Self::lookup) without touching the hit/miss counters —
    /// for serving-path probes that would otherwise double-count a request
    /// the engine's own cache probe already counts.
    pub fn peek(&self, fp: &Fingerprint) -> Option<CacheEntry> {
        self.read_entry(fp)
    }

    /// `lookup` without touching the counters (internal compare paths).
    fn read_entry(&self, fp: &Fingerprint) -> Option<CacheEntry> {
        let text = fs::read_to_string(self.path_for(fp)).ok()?;
        let doc = jsonkit::parse(&text).ok()?;
        if doc.get("version")?.as_usize()? != CACHE_VERSION {
            return None;
        }
        let weight = doc.get("weight")?.as_usize()?;
        let optimal = doc.get("optimal")?.as_bool()?;
        let strategy = doc.get("strategy")?.as_str()?.to_string();
        let strings = strings_from_json(&doc, "strings").ok()??;
        if strings.is_empty() {
            return None;
        }
        Some(CacheEntry {
            strings,
            weight,
            optimal,
            strategy,
        })
    }

    /// Stores an entry, atomically replacing any previous one.
    ///
    /// Safe against concurrent writers in other threads *and* processes:
    /// each write goes through a writer-unique temp file, and the final
    /// rename is atomic, so readers never observe a torn entry.
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures.
    pub fn store(&self, fp: &Fingerprint, entry: &CacheEntry) -> io::Result<()> {
        let doc = obj([
            ("version", Value::Num(CACHE_VERSION as f64)),
            ("fingerprint", Value::Str(fp.to_hex())),
            ("weight", Value::Num(entry.weight as f64)),
            ("optimal", Value::Bool(entry.optimal)),
            ("strategy", Value::Str(entry.strategy.clone())),
            ("strings", strings_to_json(&entry.strings)),
        ]);
        // Writer-unique temp name: two concurrent writers of the same
        // fingerprint must never interleave writes into one file.
        let nonce = WRITE_NONCE.fetch_add(1, Ordering::Relaxed);
        let tmp = self.dir.join(format!(
            ".{}.{}.{}.tmp",
            fp.to_hex(),
            std::process::id(),
            nonce
        ));
        fs::write(&tmp, doc.to_json())?;
        let dest = self.path_for(fp);
        fs::rename(&tmp, &dest)?;
        self.counters.stores.fetch_add(1, Ordering::Relaxed);
        // Eviction failure must not fail the store.
        self.enforce_byte_cap(&dest);
        Ok(())
    }

    /// Deletes least-recently-written entries until the directory's entry
    /// files fit the byte cap (no-op without one). The just-written entry
    /// (`spare`) is never evicted — mtime order alone cannot guarantee
    /// that on filesystems with coarse timestamp granularity.
    fn enforce_byte_cap(&self, spare: &Path) {
        let Some(cap) = self.byte_cap else {
            return;
        };
        let Ok(listing) = fs::read_dir(&self.dir) else {
            return;
        };
        let mut entries: Vec<(SystemTime, u64, PathBuf)> = Vec::new();
        let mut total = 0u64;
        for item in listing.flatten() {
            let path = item.path();
            if path.extension().and_then(|e| e.to_str()) != Some("json") {
                continue; // locks and temp files are not entries
            }
            let Ok(meta) = item.metadata() else {
                continue;
            };
            total += meta.len();
            if path != spare {
                entries.push((
                    meta.modified().unwrap_or(SystemTime::UNIX_EPOCH),
                    meta.len(),
                    path,
                ));
            }
        }
        if total <= cap {
            return;
        }
        entries.sort_by_key(|(mtime, _, _)| *mtime);
        for (_, size, path) in &entries {
            if total <= cap {
                break;
            }
            if fs::remove_file(path).is_ok() {
                total = total.saturating_sub(*size);
                self.counters.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Deletes an entry the caller found to be invalid (strings failing
    /// validation for the fingerprinted problem). Leaving such a file in
    /// place would be worse than a plain miss: its — possibly understated
    /// — weight makes [`store_if_better`](Self::store_if_better) refuse
    /// every genuine later result, a permanent cache miss.
    ///
    /// Runs under the same per-fingerprint lock as the compare-and-store
    /// path, so it never interleaves with a write in progress. A writer
    /// that fully replaced the entry between the caller's read and this
    /// call still loses its file — a benign race: deleting a good entry
    /// only costs the next compile a re-solve, while keeping a poisoned
    /// one costs every future compile, forever.
    ///
    /// # Errors
    ///
    /// Propagates lock-file failures; a missing entry file is not an
    /// error.
    pub fn invalidate(&self, fp: &Fingerprint) -> io::Result<()> {
        let _lock = LockFile::acquire(self.dir.join(format!(".{}.lock", fp.to_hex())))?;
        match fs::remove_file(self.path_for(fp)) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(e),
        }
    }

    /// Stores only when `entry` improves on the current content: better
    /// weight, or equal weight with optimality newly proved. Returns
    /// whether a write happened.
    ///
    /// The compare-and-store runs under a per-fingerprint advisory file
    /// lock, so a concurrent writer cannot sneak a *better* entry in
    /// between the comparison and the rename (which would downgrade the
    /// cache, e.g. losing an UNSAT certificate). Locks abandoned by a
    /// crashed process are stolen after `LOCK_STALE`.
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures from the write path.
    pub fn store_if_better(&self, fp: &Fingerprint, entry: &CacheEntry) -> io::Result<bool> {
        let _lock = LockFile::acquire(self.dir.join(format!(".{}.lock", fp.to_hex())))?;
        match self.read_entry(fp) {
            Some(existing)
                if existing.weight < entry.weight
                    || (existing.weight == entry.weight && existing.optimal >= entry.optimal) =>
            {
                Ok(false)
            }
            _ => {
                self.store(fp, entry)?;
                Ok(true)
            }
        }
    }
}

/// Schema version of the size-index files; bump to invalidate them.
const INDEX_VERSION: usize = 1;

/// Cross-fingerprint index of the cache by mode count.
///
/// A solution-cache lookup is exact: a 5-mode problem misses even when
/// the 4-mode instance of the *same family* (same objective, constraint
/// toggles, Hamiltonian shape — the [`size_key`](crate::fingerprint::size_key))
/// sits fully solved next to it. This index closes that gap: one file
/// per size-key (`size-<sha256>.index` in the cache directory, an
/// extension the byte-cap eviction ignores) mapping mode counts to entry
/// fingerprints, so the engine can find the largest cached `M < N`
/// solution and lift it into the `N`-mode search
/// ([`encodings::embed`]) as a warm start.
///
/// Index entries are hints, not truths: an entry may point at an evicted
/// or torn cache file (eviction does not rewrite indexes), so consumers
/// re-resolve through [`SolutionCache::peek`] and skip dangling entries.
/// Writes use the same temp-file + rename + per-key flock discipline as
/// the cache itself.
#[derive(Debug, Clone)]
pub struct SizeIndex {
    dir: PathBuf,
}

impl SizeIndex {
    /// An index over a cache directory (typically
    /// [`SolutionCache::dir`]). No I/O happens until the first record or
    /// lookup.
    pub fn open(dir: impl Into<PathBuf>) -> SizeIndex {
        SizeIndex { dir: dir.into() }
    }

    fn path_for(&self, key: &str) -> PathBuf {
        let digest = crate::fingerprint::sha256(key.as_bytes());
        let hex: String = digest.iter().map(|b| format!("{b:02x}")).collect();
        self.dir.join(format!("size-{hex}.index"))
    }

    fn lock_path_for(&self, key: &str) -> PathBuf {
        let digest = crate::fingerprint::sha256(key.as_bytes());
        let hex: String = digest.iter().map(|b| format!("{b:02x}")).collect();
        self.dir.join(format!(".size-{hex}.lock"))
    }

    /// Parses an index file into its `(modes, fingerprint)` entries.
    /// Missing, torn, or schema-mismatched files — and individual
    /// malformed entries — read as empty/absent.
    fn read_entries(&self, key: &str) -> Vec<(usize, Fingerprint)> {
        let Ok(text) = fs::read_to_string(self.path_for(key)) else {
            return Vec::new();
        };
        let Ok(doc) = jsonkit::parse(&text) else {
            return Vec::new();
        };
        if doc.get("version").and_then(Value::as_usize) != Some(INDEX_VERSION) {
            return Vec::new();
        }
        let Some(Value::Obj(entries)) = doc.get("entries") else {
            return Vec::new();
        };
        let mut out: Vec<(usize, Fingerprint)> = entries
            .iter()
            .filter_map(|(modes, fp)| {
                Some((
                    modes.parse::<usize>().ok().filter(|&m| m > 0)?,
                    Fingerprint::from_hex(fp.as_str()?)?,
                ))
            })
            .collect();
        out.sort_unstable_by_key(|(modes, _)| *modes);
        out
    }

    /// Records that `problem`'s solution is cached under `fp`.
    /// Read-modify-write under a per-key advisory lock; a no-op when the
    /// entry is already present and identical.
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures from the write path (a missing or
    /// torn existing index is *not* an error — it is rebuilt).
    pub fn record(
        &self,
        problem: &fermihedral::EncodingProblem,
        fp: &Fingerprint,
    ) -> io::Result<bool> {
        let key = crate::fingerprint::size_key(problem);
        let modes = problem.num_modes();
        let _lock = LockFile::acquire(self.lock_path_for(&key))?;
        let mut entries = self.read_entries(&key);
        match entries.iter_mut().find(|(m, _)| *m == modes) {
            Some((_, existing)) if existing == fp => return Ok(false),
            Some((_, existing)) => *existing = *fp,
            None => entries.push((modes, *fp)),
        }
        entries.sort_unstable_by_key(|(m, _)| *m);
        let doc = obj([
            ("version", Value::Num(INDEX_VERSION as f64)),
            ("key", Value::Str(key.clone())),
            (
                "entries",
                Value::Obj(
                    entries
                        .iter()
                        .map(|(m, f)| (m.to_string(), Value::Str(f.to_hex())))
                        .collect(),
                ),
            ),
        ]);
        let nonce = WRITE_NONCE.fetch_add(1, Ordering::Relaxed);
        let tmp = self
            .dir
            .join(format!(".size.{}.{}.tmp", std::process::id(), nonce));
        fs::write(&tmp, doc.to_json())?;
        fs::rename(&tmp, self.path_for(&key))?;
        Ok(true)
    }

    /// The indexed fingerprints of the problem's family with mode count
    /// strictly below the problem's, **largest first** — the order a
    /// warm-start probe wants to try embeddings in. Entries may dangle
    /// (point at evicted files); resolve each via
    /// [`SolutionCache::peek`].
    pub fn fingerprints_below(
        &self,
        problem: &fermihedral::EncodingProblem,
    ) -> Vec<(usize, Fingerprint)> {
        let key = crate::fingerprint::size_key(problem);
        let mut entries = self.read_entries(&key);
        entries.retain(|(m, _)| *m < problem.num_modes());
        entries.reverse();
        entries
    }
}

use std::sync::atomic::{AtomicU64, Ordering};

static WRITE_NONCE: AtomicU64 = AtomicU64::new(0);

/// Advisory per-fingerprint file lock, released on drop.
///
/// On Unix this is a kernel `flock(2)` on the lock file's open descriptor.
/// That closes every hole the earlier create-exclusive scheme had:
///
/// * **No staleness.** The kernel drops the lock when the holder's
///   descriptor closes — including on crash — so a leftover lock *file*
///   is inert litter, not a held lock. The old scheme had to age-out
///   "stale" files, which (a) made every writer behind a crashed one wait
///   out the staleness window, and (b) let two stealers both remove-and-
///   recreate the file and *both* enter the critical section, so a slower
///   writer could clobber a just-stored optimal entry with a worse one.
/// * **Atomic handoff.** Release is the kernel's, not an `unlink` by path
///   that could delete a lock file some third writer had just created.
///
/// One subtlety remains because `Drop` unlinks the lock file (the
/// concurrency tests assert the directory ends clean): a waiter may have
/// opened the old inode before it was unlinked and then acquire a lock
/// that guards nothing. [`acquire`](LockFile::acquire) therefore re-checks
/// after locking that the path still names its inode, and retries if not.
struct LockFile {
    path: PathBuf,
    // Held for the flock; dropped (= unlocked) after the unlink in `Drop`.
    _file: fs::File,
}

#[cfg(unix)]
mod lock_sys {
    use std::fs::File;
    use std::io;
    use std::os::fd::AsRawFd;

    // Directly against the libc std already links; the container has no
    // crates.io access for the `libc` crate.
    extern "C" {
        fn flock(fd: i32, operation: i32) -> i32;
    }
    const LOCK_EX: i32 = 2;

    pub fn lock_exclusive(file: &File) -> io::Result<()> {
        loop {
            if unsafe { flock(file.as_raw_fd(), LOCK_EX) } == 0 {
                return Ok(());
            }
            let e = io::Error::last_os_error();
            if e.kind() != io::ErrorKind::Interrupted {
                return Err(e);
            }
        }
    }
}

impl LockFile {
    #[cfg(unix)]
    fn acquire(path: PathBuf) -> io::Result<LockFile> {
        use std::os::unix::fs::MetadataExt;
        loop {
            let file = fs::OpenOptions::new()
                .write(true)
                .create(true)
                .truncate(false)
                .open(&path)?;
            lock_sys::lock_exclusive(&file)?;
            // The previous holder may have unlinked the path between our
            // open and our lock; a lock on an unlinked inode excludes
            // nobody who opens the path afresh. Re-verify and retry.
            let held = file.metadata()?;
            match fs::metadata(&path) {
                Ok(cur) if cur.ino() == held.ino() && cur.dev() == held.dev() => {
                    return Ok(LockFile { path, _file: file });
                }
                _ => continue,
            }
        }
    }

    /// Portable fallback: create-exclusive spin lock. Weaker than the Unix
    /// path (a crashed holder blocks successors until the stale age-out),
    /// kept only for non-Unix builds.
    #[cfg(not(unix))]
    fn acquire(path: PathBuf) -> io::Result<LockFile> {
        const LOCK_STALE: std::time::Duration = std::time::Duration::from_secs(5);
        loop {
            match fs::OpenOptions::new()
                .write(true)
                .create_new(true)
                .open(&path)
            {
                Ok(file) => return Ok(LockFile { path, _file: file }),
                Err(e) if e.kind() == io::ErrorKind::AlreadyExists => {
                    let stale = fs::metadata(&path)
                        .and_then(|m| m.modified())
                        .map(|t| t.elapsed().unwrap_or_default() > LOCK_STALE)
                        .unwrap_or(false);
                    if stale {
                        let _ = fs::remove_file(&path);
                        continue;
                    }
                    std::thread::sleep(std::time::Duration::from_millis(2));
                }
                Err(e) => return Err(e),
            }
        }
    }
}

impl Drop for LockFile {
    fn drop(&mut self) {
        // Unlink *while still holding* the lock: a waiter blocked on our
        // inode will acquire it, notice the path no longer matches, and
        // retry on the fresh path (see `acquire`).
        let _ = fs::remove_file(&self.path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fingerprint::fingerprint;
    use fermihedral::{EncodingProblem, Objective};
    use std::str::FromStr;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "fermihedral-cache-test-{tag}-{}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn entry(weight: usize, optimal: bool) -> CacheEntry {
        CacheEntry {
            strings: ["XZ", "YZ", "IX", "IY"]
                .iter()
                .map(|s| PauliString::from_str(s).unwrap())
                .collect(),
            weight,
            optimal,
            strategy: "test".into(),
        }
    }

    #[test]
    fn round_trips_after_reopen() {
        let dir = tmp_dir("roundtrip");
        let fp = fingerprint(&EncodingProblem::new(2, Objective::MajoranaWeight));
        {
            let cache = SolutionCache::open(&dir).unwrap();
            assert!(cache.lookup(&fp).is_none());
            cache.store(&fp, &entry(6, true)).unwrap();
        }
        // A fresh handle (≈ process restart) sees the entry.
        let cache = SolutionCache::open(&dir).unwrap();
        assert_eq!(cache.lookup(&fp), Some(entry(6, true)));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn different_objectives_do_not_collide() {
        let dir = tmp_dir("objectives");
        let cache = SolutionCache::open(&dir).unwrap();
        let maj = fingerprint(&EncodingProblem::new(2, Objective::MajoranaWeight));
        let ham = fingerprint(&EncodingProblem::new(
            2,
            Objective::HamiltonianWeight(vec![fermion::MajoranaMonomial::from_sorted(vec![0, 1])]),
        ));
        cache.store(&maj, &entry(6, true)).unwrap();
        assert!(
            cache.lookup(&ham).is_none(),
            "changing the objective must miss"
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_entries_are_misses() {
        let dir = tmp_dir("corrupt");
        let cache = SolutionCache::open(&dir).unwrap();
        let fp = fingerprint(&EncodingProblem::new(3, Objective::MajoranaWeight));
        cache.store(&fp, &entry(10, false)).unwrap();
        fs::write(cache.path_for(&fp), "{ not json").unwrap();
        assert!(cache.lookup(&fp).is_none());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn concurrent_writers_never_downgrade_the_entry() {
        // Threads racing mixed-quality entries on one fingerprint: the
        // surviving entry must be the best one (weight 10, optimal), and
        // it must never be torn. Catches both the shared-temp-file
        // clobbering and the lookup-then-store race.
        let dir = tmp_dir("concurrent");
        let fp = fingerprint(&EncodingProblem::new(5, Objective::MajoranaWeight));
        let cache = SolutionCache::open(&dir).unwrap();
        std::thread::scope(|scope| {
            for t in 0..8u64 {
                let cache = cache.clone();
                scope.spawn(move || {
                    for round in 0..30u64 {
                        let weight = 10 + ((t + round) % 4) as usize;
                        let optimal = weight == 10;
                        cache.store_if_better(&fp, &entry(weight, optimal)).unwrap();
                    }
                });
            }
        });
        let survivor = cache.lookup(&fp).expect("entry must parse (not torn)");
        assert_eq!(survivor.weight, 10);
        assert!(survivor.optimal);
        // No temp or lock litter left behind.
        let litter: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| {
                let name = e.file_name().to_string_lossy().to_string();
                name.ends_with(".tmp") || name.ends_with(".lock")
            })
            .collect();
        assert!(litter.is_empty(), "leftover files: {litter:?}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn counters_track_hits_misses_and_stores() {
        let dir = tmp_dir("counters");
        let cache = SolutionCache::open(&dir).unwrap();
        let fp = fingerprint(&EncodingProblem::new(6, Objective::MajoranaWeight));
        assert_eq!(cache.counters(), CacheCounters::default());

        assert!(cache.lookup(&fp).is_none());
        cache.store(&fp, &entry(12, false)).unwrap();
        assert!(cache.lookup(&fp).is_some());
        cache.store(&fp, &entry(10, true)).unwrap();
        assert!(cache.lookup(&fp).is_some());

        let c = cache.counters();
        assert_eq!(c.misses, 1);
        assert_eq!(c.hit_warm_start, 1);
        assert_eq!(c.hit_optimal, 1);
        assert_eq!(c.stores, 2);
        assert_eq!(c.evictions, 0);
        // Clones share the cells.
        assert_eq!(cache.clone().counters(), c);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn byte_cap_evicts_oldest_entries_first() {
        let dir = tmp_dir("evict");
        // One entry serializes to a few hundred bytes; cap to roughly two.
        let probe = SolutionCache::open(&dir).unwrap();
        let fingerprints: Vec<_> = (1..=4usize)
            .map(|n| fingerprint(&EncodingProblem::new(n, Objective::MajoranaWeight)))
            .collect();
        probe.store(&fingerprints[0], &entry(9, true)).unwrap();
        let entry_size = fs::metadata(probe.path_for(&fingerprints[0]))
            .unwrap()
            .len();
        fs::remove_dir_all(&dir).unwrap();

        let cache = SolutionCache::open(&dir)
            .unwrap()
            .with_byte_cap(Some(entry_size * 2 + entry_size / 2));
        for fp in &fingerprints {
            cache.store(fp, &entry(9, true)).unwrap();
            // Distinct mtimes (LRU order is by file modification time).
            std::thread::sleep(std::time::Duration::from_millis(20));
        }
        // The two oldest entries were evicted, the two newest survive.
        assert!(cache.read_entry(&fingerprints[0]).is_none());
        assert!(cache.read_entry(&fingerprints[1]).is_none());
        assert!(cache.read_entry(&fingerprints[2]).is_some());
        assert!(cache.read_entry(&fingerprints[3]).is_some());
        assert_eq!(cache.counters().evictions, 2);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn tiny_byte_cap_always_keeps_the_newest_entry() {
        let dir = tmp_dir("evict-newest");
        let cache = SolutionCache::open(&dir).unwrap().with_byte_cap(Some(1));
        let a = fingerprint(&EncodingProblem::new(2, Objective::MajoranaWeight));
        let b = fingerprint(&EncodingProblem::new(3, Objective::MajoranaWeight));
        cache.store(&a, &entry(9, true)).unwrap();
        std::thread::sleep(std::time::Duration::from_millis(20));
        cache.store(&b, &entry(9, true)).unwrap();
        assert!(
            cache.read_entry(&b).is_some(),
            "the just-written entry must survive any cap"
        );
        assert!(cache.read_entry(&a).is_none());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    #[cfg(unix)]
    fn leftover_lock_litter_neither_blocks_nor_breaks_exclusion() {
        // Regression test for the create-exclusive locking scheme. A lock
        // file abandoned by a crashed writer used to (a) stall every later
        // writer for the 5 s staleness window, and (b) open a steal race:
        // two writers could both remove-and-recreate the "stale" file,
        // both enter the compare-and-store critical section, and the
        // slower one could clobber a just-stored optimal entry with a
        // worse best-so-far one. With flock-based locking the litter file
        // is inert: nobody holds a kernel lock on it.
        use std::sync::Barrier;
        let dir = tmp_dir("lock-litter");
        let fp = fingerprint(&EncodingProblem::new(4, Objective::MajoranaWeight));
        let cache = SolutionCache::open(&dir).unwrap();
        let lock_path = dir.join(format!(".{}.lock", fp.to_hex()));

        let started = std::time::Instant::now();
        for round in 0..25u64 {
            let _ = fs::remove_file(cache.path_for(&fp));
            // Simulate the crashed holder: litter present, aged past the
            // old staleness window (so the old code would steal — racily —
            // rather than merely stall).
            fs::write(&lock_path, b"crashed-holder").unwrap();
            let _ = fs::File::options()
                .write(true)
                .open(&lock_path)
                .unwrap()
                .set_modified(SystemTime::now() - std::time::Duration::from_secs(60));

            // One fast optimal writer races one slower, worse writer.
            let barrier = Barrier::new(2);
            std::thread::scope(|scope| {
                let optimal_writer = cache.clone();
                let worse_writer = cache.clone();
                let b1 = &barrier;
                let b2 = &barrier;
                scope.spawn(move || {
                    b1.wait();
                    optimal_writer
                        .store_if_better(&fp, &entry(10, true))
                        .unwrap();
                });
                scope.spawn(move || {
                    b2.wait();
                    if round % 3 == 0 {
                        std::thread::sleep(std::time::Duration::from_micros(50 * round));
                    }
                    worse_writer
                        .store_if_better(&fp, &entry(12, false))
                        .unwrap();
                });
            });

            let survivor = cache.read_entry(&fp).expect("entry must exist");
            assert_eq!(
                (survivor.weight, survivor.optimal),
                (10, true),
                "round {round}: worse writer clobbered the optimal entry"
            );
        }
        assert!(
            started.elapsed() < std::time::Duration::from_secs(30),
            "writers stalled on inert lock litter: {:?}",
            started.elapsed()
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn size_index_records_and_looks_up_below() {
        let dir = tmp_dir("size-index");
        fs::create_dir_all(&dir).unwrap();
        let index = SizeIndex::open(&dir);
        let problems: Vec<_> = (2..=5usize)
            .map(|n| EncodingProblem::full_sat(n, Objective::MajoranaWeight))
            .collect();
        for p in &problems {
            assert!(index.record(p, &fingerprint(p)).unwrap());
            // Idempotent: identical re-record writes nothing.
            assert!(!index.record(p, &fingerprint(p)).unwrap());
        }
        // Largest-first, strictly below.
        let below = index.fingerprints_below(&problems[3]); // N=5
        assert_eq!(
            below.iter().map(|(m, _)| *m).collect::<Vec<_>>(),
            vec![4, 3, 2]
        );
        assert_eq!(below[0].1, fingerprint(&problems[2]));
        // Nothing below the smallest.
        assert!(index.fingerprints_below(&problems[0]).is_empty());
        // A different family (constraint toggle) sees none of these.
        let other =
            EncodingProblem::full_sat(5, Objective::MajoranaWeight).with_vacuum_condition(false);
        assert!(index.fingerprints_below(&other).is_empty());
        // No lock or temp litter.
        let litter: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| {
                let name = e.file_name().to_string_lossy().to_string();
                name.ends_with(".tmp") || name.ends_with(".lock")
            })
            .collect();
        assert!(litter.is_empty(), "leftover files: {litter:?}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn size_index_tolerates_missing_torn_and_mismatched_files() {
        let dir = tmp_dir("size-index-torn");
        fs::create_dir_all(&dir).unwrap();
        let index = SizeIndex::open(&dir);
        let problem = EncodingProblem::full_sat(4, Objective::MajoranaWeight);
        let key = crate::fingerprint::size_key(&problem);

        // Missing: empty, not an error.
        assert!(index.fingerprints_below(&problem).is_empty());

        // Torn (half-written JSON): read as empty, and `record` rebuilds it.
        fs::write(index.path_for(&key), "{\"version\": 1, \"entr").unwrap();
        assert!(index.fingerprints_below(&problem).is_empty());
        let small = EncodingProblem::full_sat(3, Objective::MajoranaWeight);
        assert!(index.record(&small, &fingerprint(&small)).unwrap());
        assert_eq!(index.fingerprints_below(&problem).len(), 1);

        // Schema mismatch (future version): whole file reads as empty.
        let current = fs::read_to_string(index.path_for(&key)).unwrap();
        fs::write(
            index.path_for(&key),
            current.replace("\"version\": 1", "\"version\": 99"),
        )
        .unwrap();
        assert!(index.fingerprints_below(&problem).is_empty());

        // Individually malformed entries are skipped, valid ones survive.
        let doc = obj([
            ("version", Value::Num(INDEX_VERSION as f64)),
            (
                "entries",
                Value::Obj(
                    [
                        ("3".to_string(), Value::Str(fingerprint(&small).to_hex())),
                        ("zero".to_string(), Value::Str("ab".repeat(32))),
                        ("0".to_string(), Value::Str("ab".repeat(32))),
                        ("2".to_string(), Value::Str("not-hex".into())),
                        ("1".to_string(), Value::Num(7.0)),
                    ]
                    .into_iter()
                    .collect(),
                ),
            ),
        ]);
        fs::write(index.path_for(&key), doc.to_json()).unwrap();
        let below = index.fingerprints_below(&problem);
        assert_eq!(below, vec![(3, fingerprint(&small))]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn size_index_entries_may_dangle_after_eviction() {
        // Eviction deletes cache entry files without rewriting indexes;
        // the index keeps listing the fingerprint, and resolving it
        // through the cache simply misses. Consumers (the engine's
        // warm-start probe) skip such dangling entries.
        let dir = tmp_dir("size-index-dangle");
        let cache = SolutionCache::open(&dir).unwrap();
        let index = SizeIndex::open(&dir);
        let small = EncodingProblem::full_sat(2, Objective::MajoranaWeight);
        let fp = fingerprint(&small);
        cache.store(&fp, &entry(6, true)).unwrap();
        index.record(&small, &fp).unwrap();

        // Evict by hand (what the byte cap does).
        fs::remove_file(cache.path_for(&fp)).unwrap();

        let larger = EncodingProblem::full_sat(3, Objective::MajoranaWeight);
        let below = index.fingerprints_below(&larger);
        assert_eq!(below, vec![(2, fp)], "index still lists the entry");
        assert!(
            cache.peek(&below[0].1).is_none(),
            "resolution through the cache misses"
        );
        // Index files themselves are never byte-cap eviction fodder:
        // they don't carry the .json entry extension.
        let survives = fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .any(|e| e.file_name().to_string_lossy().ends_with(".index"));
        assert!(survives);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn store_if_better_upgrades_and_refuses() {
        let dir = tmp_dir("upgrade");
        let cache = SolutionCache::open(&dir).unwrap();
        let fp = fingerprint(&EncodingProblem::new(4, Objective::MajoranaWeight));

        assert!(cache.store_if_better(&fp, &entry(20, false)).unwrap());
        // Worse weight: refused.
        assert!(!cache.store_if_better(&fp, &entry(22, false)).unwrap());
        // Same weight, optimality proved: upgraded.
        assert!(cache.store_if_better(&fp, &entry(20, true)).unwrap());
        // Same again: refused (no downgrade of the optimal flag either).
        assert!(!cache.store_if_better(&fp, &entry(20, false)).unwrap());
        // Strictly better weight: accepted.
        assert!(cache.store_if_better(&fp, &entry(18, true)).unwrap());
        assert_eq!(cache.lookup(&fp), Some(entry(18, true)));
        fs::remove_dir_all(&dir).unwrap();
    }
}
