//! Persistent, content-addressed solution cache.
//!
//! Solved encodings are stored as one JSON file per problem fingerprint
//! (`<sha256>.json` under the cache directory), so a repeated compilation
//! of the same model is served in microseconds instead of re-running the
//! SAT portfolio. Each entry records the strongest [`Floor`] proved for
//! its problem, if any: an entry whose floor meets its weight is the
//! optimum and final; any other (a budget-terminated best-so-far) is still
//! useful as a warm start and upgraded in place when a later run does
//! better. A file is a claim, not a fact: only [`SolutionCache::checked`],
//! which re-validates and re-measures it, may answer a compilation.
//!
//! Writes go through a temp file + rename, so a crashed writer never
//! leaves a torn entry; a corrupt or unreadable entry is treated as a miss.
//! Every compare-and-store and every deletion of a lying entry runs under
//! one `flock` on the cache directory itself (see `DirLock`), so a stored
//! answer leaves exactly one file behind: its entry. The directory lock
//! needs a local filesystem; NFS and other network mounts may not honour
//! `flock` across hosts.
//!
//! [`SizeIndex`] finds entries *across mode counts* of one problem family
//! (same objective, constraints, and Hamiltonian shape) by computing each
//! smaller member's fingerprint ([`fingerprint_at`]) and looking for its
//! entry file. It powers the engine's cross-size warm-start transfer: a
//! cached `M`-mode optimum embeds into the `N > M`-mode search as a
//! feasible starting point ([`encodings::embed`]).

use crate::fingerprint::{fingerprint_at, Fingerprint};
use crate::floor::Floor;
use crate::portfolio::check_encoding;
use crate::problemio::{strings_from_json, strings_to_json};
use crate::report::CacheStatus;
use fermihedral::{EncodingProblem, Objective};
use jsonkit::{obj, Value};
use pauli::PauliString;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::SystemTime;

/// Schema version; bump to invalidate all existing entries.
const CACHE_VERSION: usize = 2;

/// Makes temp file names unique among this process's writers.
static WRITE_NONCE: AtomicU64 = AtomicU64::new(0);

/// Snapshot of a cache handle's traffic counters (cumulative over the
/// handle's lifetime; clones share counters).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheCounters {
    /// Lookups that found an optimal entry (the engine's: a checked one).
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

impl CacheCounters {
    /// The counters as one JSON object keyed by field name.
    pub fn to_json(&self) -> Value {
        let n = |count: u64| Value::Num(count as f64);
        obj([
            ("hit_optimal", n(self.hit_optimal)),
            ("hit_warm_start", n(self.hit_warm_start)),
            ("hit_cross_size", n(self.hit_cross_size)),
            ("misses", n(self.misses)),
            ("stores", n(self.stores)),
            ("evictions", n(self.evictions)),
        ])
    }
}

/// A cached solution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheEntry {
    /// The `2N` Majorana strings of the encoding.
    pub strings: Vec<PauliString>,
    /// Objective weight of the encoding.
    pub weight: usize,
    /// The strongest floor proved for the problem, if any.
    pub floor: Option<Floor>,
    /// Name of the strategy that produced the encoding (provenance only).
    pub strategy: String,
}

impl CacheEntry {
    /// The entry's floor meets its weight.
    pub fn is_optimal(&self) -> bool {
        self.floor.is_some_and(|floor| floor.pins(self.weight))
    }
}

/// A directory of cached solutions keyed by problem fingerprint.
#[derive(Debug, Clone)]
pub struct SolutionCache {
    dir: PathBuf,
    byte_cap: Option<u64>,
    counters: Arc<Mutex<CacheCounters>>,
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
            counters: Arc::default(),
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
        *self.counters.lock().unwrap()
    }

    /// Counts one lookup that ended as `status`.
    pub(crate) fn count(&self, status: CacheStatus) {
        let mut counters = self.counters.lock().unwrap();
        match status {
            CacheStatus::Disabled => {}
            CacheStatus::Miss => counters.misses += 1,
            CacheStatus::HitOptimal => counters.hit_optimal += 1,
            CacheStatus::HitWarmStart => counters.hit_warm_start += 1,
            CacheStatus::HitCrossSize => counters.hit_cross_size += 1,
        }
    }

    fn path_for(&self, fp: &Fingerprint) -> PathBuf {
        entry_path(&self.dir, fp)
    }

    /// Raw counted read, for a caller with no problem to check the entry
    /// against (`GET /v1/solution`): a hit counts as what the file claims.
    /// Missing, torn, or schema-mismatched entries are all misses.
    pub fn lookup(&self, fp: &Fingerprint) -> Option<CacheEntry> {
        let entry = self.peek(fp);
        self.count(match &entry {
            None => CacheStatus::Miss,
            Some(entry) if entry.is_optimal() => CacheStatus::HitOptimal,
            Some(_) => CacheStatus::HitWarmStart,
        });
        entry
    }

    /// [`lookup`](Self::lookup) without touching the counters.
    pub fn peek(&self, fp: &Fingerprint) -> Option<CacheEntry> {
        let text = fs::read_to_string(self.path_for(fp)).ok()?;
        let doc = jsonkit::parse(&text).ok()?;
        if doc.get("version")?.as_usize()? != CACHE_VERSION {
            return None;
        }
        let strings = strings_from_json(&doc, "strings").ok()??;
        if strings.is_empty() {
            return None;
        }
        Some(CacheEntry {
            strings,
            weight: doc.get("weight")?.as_usize()?,
            floor: Floor::from_json(&doc)?,
            strategy: doc.get("strategy")?.as_str()?.to_string(),
        })
    }

    /// The one uncounted read of `problem`'s entry (fingerprint `fp`) that
    /// may answer a compilation or seed a race: its strings must pass
    /// [`check_encoding`]. A file that lies is deleted — an understated
    /// weight or an overstated floor would make
    /// [`store_if_better`](Self::store_if_better) refuse every genuine
    /// later result. Failing strings read as a miss; a wrong weight or a
    /// floor above the measured weight demote the strings to a warm start
    /// at the measured weight, with no floor.
    pub fn checked(&self, problem: &EncodingProblem, fp: &Fingerprint) -> Option<CacheEntry> {
        let entry = self.peek(fp)?;
        let Some(weight) = check_encoding(problem, &entry.strings) else {
            let _ = self.invalidate(fp);
            return None;
        };
        if weight == entry.weight && entry.floor.is_none_or(|floor| floor.value <= weight) {
            return Some(entry);
        }
        let _ = self.invalidate(fp);
        Some(CacheEntry {
            weight,
            floor: None,
            ..entry
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
        let fields = [
            ("version", Value::Num(CACHE_VERSION as f64)),
            ("fingerprint", Value::Str(fp.to_hex())),
            ("weight", Value::Num(entry.weight as f64)),
            ("strategy", Value::Str(entry.strategy.clone())),
            ("strings", strings_to_json(&entry.strings)),
        ];
        let doc = obj(fields.into_iter().chain(Floor::to_json(entry.floor)));
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
        self.counters.lock().unwrap().stores += 1;
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
                continue; // temp files are not entries
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
                self.counters.lock().unwrap().evictions += 1;
            }
        }
    }

    /// Deletes a lying entry (see [`checked`](Self::checked)), under the
    /// compare-and-store lock so it never interleaves with a write. A
    /// writer that replaced the entry since the caller's read still loses
    /// its file: a benign race, since a deleted good entry costs one
    /// re-solve and a kept poisoned one costs every future compile.
    fn invalidate(&self, fp: &Fingerprint) -> io::Result<()> {
        let _lock = DirLock::acquire(&self.dir)?;
        match fs::remove_file(self.path_for(fp)) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(e),
        }
    }

    /// Stores only when `entry` improves on the current content: better
    /// weight, or equal weight with a stronger floor. Returns whether a
    /// write happened.
    ///
    /// The compare-and-store (read, temp write, rename, byte cap) runs
    /// under the cache directory's advisory lock, so a concurrent writer
    /// cannot sneak a *better* entry in between the comparison and the
    /// rename (which would downgrade the cache, e.g. losing a floor). On
    /// Unix the lock is an `flock` the kernel releases when its holder
    /// exits, so a crashed writer leaves nothing to wait out (see
    /// `DirLock`).
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures from the write path.
    pub fn store_if_better(&self, fp: &Fingerprint, entry: &CacheEntry) -> io::Result<bool> {
        let _lock = DirLock::acquire(&self.dir)?;
        let value = |e: &CacheEntry| e.floor.map(|f| f.value);
        match self.peek(fp) {
            Some(existing)
                if existing.weight < entry.weight
                    || (existing.weight == entry.weight && value(&existing) >= value(entry)) =>
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

/// The entry file of fingerprint `fp` in cache directory `dir`.
fn entry_path(dir: &Path, fp: &Fingerprint) -> PathBuf {
    dir.join(format!("{}.json", fp.to_hex()))
}

/// Cross-size view of the cache by mode count.
///
/// A solution-cache lookup is exact: a 5-mode problem misses even when
/// the 4-mode instance of the *same family* (same objective, constraint
/// toggles, Hamiltonian shape — the [`size_key`](crate::fingerprint::size_key))
/// sits fully solved next to it. This view closes that gap without a file
/// of its own: a family member at `M` modes has the problem's canonical
/// form with `modes=M`, so its fingerprint is computed
/// ([`fingerprint_at`]) and its entry file looked up, and the engine can
/// lift the largest cached `M < N` solution into the `N`-mode search
/// ([`encodings::embed`]) as a warm start.
///
/// A listed entry may still be evicted, torn, or foreign by the time it is
/// read, so consumers re-resolve through [`SolutionCache::peek`] and skip
/// what does not parse. `size-*.index` files that older versions wrote
/// are ignored.
#[derive(Debug, Clone)]
pub struct SizeIndex {
    dir: PathBuf,
}

impl SizeIndex {
    /// The view over a cache directory (typically [`SolutionCache::dir`]).
    /// No I/O happens until the first lookup.
    pub fn open(dir: impl Into<PathBuf>) -> SizeIndex {
        SizeIndex { dir: dir.into() }
    }

    /// Writes nothing and returns `Ok(false)`: an entry file is its own
    /// record, found by [`fingerprints_below`](Self::fingerprints_below).
    /// Kept only because the benchmark's `serve_miss` probe
    /// (`crates/ledger`) still times it; it goes with the next change to
    /// the benchmark.
    ///
    /// # Errors
    ///
    /// None; the `Result` keeps the signature callers compile against.
    pub fn record(&self, _problem: &EncodingProblem, _fp: &Fingerprint) -> io::Result<bool> {
        Ok(false)
    }

    /// The fingerprints of the problem's family members with mode count
    /// strictly below the problem's whose entry file exists, **largest
    /// first** — the order a warm-start probe wants to try embeddings in.
    /// The walk starts no lower than the smallest mode count at which
    /// every monomial index is legal. Resolve each via
    /// [`SolutionCache::peek`].
    pub fn fingerprints_below(&self, problem: &EncodingProblem) -> Vec<(usize, Fingerprint)> {
        let smallest = match problem.objective() {
            Objective::MajoranaWeight => 1,
            Objective::HamiltonianWeight(monomials) => monomials
                .iter()
                .flat_map(|m| m.indices())
                .max()
                .map_or(1, |&top| top as usize / 2 + 1),
        };
        (smallest..problem.num_modes())
            .rev()
            .map(|modes| (modes, fingerprint_at(problem, modes)))
            .filter(|(_, fp)| entry_path(&self.dir, fp).exists())
            .collect()
    }
}

/// The cache directory's advisory lock, released on drop.
///
/// On Unix this is a kernel `flock(2)` on a descriptor of the directory
/// itself, opened afresh by every acquisition: `flock` excludes open file
/// descriptions, so two threads of one process exclude each other just as
/// two processes do. Nothing is created or unlinked, and:
///
/// * **No staleness.** The kernel drops the lock when the holder's
///   descriptor closes — including on crash — so nothing is left to age
///   out, and a `.lock` file some older version left behind is inert.
/// * **Atomic handoff.** Release is the kernel's, not an `unlink` by path.
///
/// One lock per directory serialises stores of different fingerprints
/// too; a store holds it for one small write and a rename. `flock` is
/// only as good as the filesystem: keep the cache directory local.
struct DirLock {
    // Held for the lock; dropping it unlocks.
    _file: fs::File,
    #[cfg(not(unix))]
    path: PathBuf,
}

#[cfg(unix)]
mod lock_sys {
    use std::fs::File;
    use std::io;
    use std::os::fd::AsRawFd;

    // Directly against the libc std already links: the workspace builds
    // offline, without the `libc` crate.
    extern "C" {
        fn flock(fd: i32, operation: i32) -> i32;
    }
    const LOCK_EX: i32 = 2;

    pub fn lock_exclusive(file: &File) -> io::Result<()> {
        loop {
            // SAFETY: `flock` reads only the descriptor number, and `file`
            // keeps that descriptor open for the whole call.
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

impl DirLock {
    #[cfg(unix)]
    fn acquire(dir: &Path) -> io::Result<DirLock> {
        let file = fs::File::open(dir)?;
        lock_sys::lock_exclusive(&file)?;
        Ok(DirLock { _file: file })
    }

    /// Portable fallback: a create-exclusive spin on `dir/.lock`. Weaker
    /// than the Unix path (a crashed holder blocks successors until the
    /// stale age-out), kept only for non-Unix builds.
    #[cfg(not(unix))]
    fn acquire(dir: &Path) -> io::Result<DirLock> {
        const LOCK_STALE: std::time::Duration = std::time::Duration::from_secs(5);
        let path = dir.join(".lock");
        loop {
            match fs::OpenOptions::new()
                .write(true)
                .create_new(true)
                .open(&path)
            {
                Ok(file) => return Ok(DirLock { _file: file, path }),
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

#[cfg(not(unix))]
impl Drop for DirLock {
    fn drop(&mut self) {
        let _ = fs::remove_file(&self.path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fingerprint::fingerprint;
    use crate::floor::FloorSource;
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

    fn entry(weight: usize, proved: bool) -> CacheEntry {
        CacheEntry {
            strings: ["XZ", "YZ", "IX", "IY"]
                .iter()
                .map(|s| PauliString::from_str(s).unwrap())
                .collect(),
            weight,
            floor: proved.then_some(Floor {
                value: weight,
                source: FloorSource::Unsat,
            }),
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
        assert!(survivor.is_optimal());
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
        assert!(cache.peek(&fingerprints[0]).is_none());
        assert!(cache.peek(&fingerprints[1]).is_none());
        assert!(cache.peek(&fingerprints[2]).is_some());
        assert!(cache.peek(&fingerprints[3]).is_some());
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
            cache.peek(&b).is_some(),
            "the just-written entry must survive any cap"
        );
        assert!(cache.peek(&a).is_none());
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

            let survivor = cache.peek(&fp).expect("entry must exist");
            assert_eq!(
                (survivor.weight, survivor.is_optimal()),
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

    /// Every file name in `dir`, sorted.
    fn listing(dir: &Path) -> Vec<String> {
        let mut names: Vec<String> = fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        names
    }

    #[test]
    fn fingerprints_below_finds_the_family_by_entry_file() {
        let dir = tmp_dir("size-index");
        let majorana = |n| EncodingProblem::full_sat(n, Objective::MajoranaWeight);
        // Each size stored through its own handle, as separate processes
        // would; nothing but the entry files is shared.
        for n in 2..=4 {
            let fp = fingerprint(&majorana(n));
            SolutionCache::open(&dir)
                .unwrap()
                .store(&fp, &entry(9, true))
                .unwrap();
        }
        let index = SizeIndex::open(&dir);
        // An index file an older version wrote is ignored, and `record`
        // writes nothing.
        fs::write(dir.join(format!("size-{}.index", "ab".repeat(32))), "{}").unwrap();
        let before = listing(&dir);
        assert!(!index
            .record(&majorana(5), &fingerprint(&majorana(5)))
            .unwrap());
        assert_eq!(listing(&dir), before);

        // Largest first, strictly below.
        let below = index.fingerprints_below(&majorana(5));
        let expected: Vec<_> = [4, 3, 2]
            .into_iter()
            .map(|m| (m, fingerprint(&majorana(m))))
            .collect();
        assert_eq!(below, expected);
        assert_eq!(index.fingerprints_below(&majorana(4)), expected[1..]);
        assert!(index.fingerprints_below(&majorana(2)).is_empty());
        // A different family (constraint toggle) sees none of these.
        let other = majorana(5).with_vacuum_condition(false);
        assert!(index.fingerprints_below(&other).is_empty());

        // An evicted entry is no longer listed.
        fs::remove_file(entry_path(&dir, &expected[1].1)).unwrap();
        assert_eq!(
            index.fingerprints_below(&majorana(5)),
            vec![expected[0], expected[2]]
        );

        // A Hamiltonian family starts where every index is legal: γ₄
        // needs three modes, so an entry under the two-mode fingerprint
        // is not a member.
        let chain =
            |n| EncodingProblem::new(n, fermihedral::fixtures::hamiltonian(&[[0, 1], [0, 4]]));
        for m in [2, 3] {
            let fp = crate::fingerprint::fingerprint_at(&chain(5), m);
            SolutionCache::open(&dir)
                .unwrap()
                .store(&fp, &entry(2, true))
                .unwrap();
        }
        assert_eq!(
            index.fingerprints_below(&chain(5)),
            vec![(3, fingerprint(&chain(3)))]
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_cross_size_hit_finds_an_entry_another_handle_wrote() {
        let dir = tmp_dir("cross-size");
        let small = EncodingProblem::new(2, Objective::MajoranaWeight);
        let solved = crate::compile(
            &small,
            &crate::EngineConfig {
                cache_dir: Some(dir.clone()),
                ..crate::EngineConfig::default()
            },
        );
        assert!(solved.optimal_proved);
        let reader = SolutionCache::open(&dir).unwrap();
        let larger = EncodingProblem::new(3, Objective::MajoranaWeight);
        let (lifted, from_modes) =
            crate::portfolio::cross_size_warm_start(&reader, &larger).expect("a cross-size hit");
        assert_eq!(from_modes, 2);
        assert_eq!(lifted.strings.len(), 6);
        assert_eq!(lifted.floor, None);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn separately_opened_handles_exclude_each_other() {
        // Like `concurrent_writers_never_downgrade_the_entry`, but every
        // thread opens its own handle: the exclusion is the directory's
        // kernel lock, not anything a handle shares in memory. While the
        // test holds that lock, no writer may get as far as a file.
        let dir = tmp_dir("handles");
        let fp = fingerprint(&EncodingProblem::new(5, Objective::MajoranaWeight));
        fs::create_dir_all(&dir).unwrap();
        let held = DirLock::acquire(&dir).unwrap();
        let (ready, waiting) = std::sync::mpsc::channel();
        let while_held = std::thread::scope(|scope| {
            for t in 0..6u64 {
                let (dir, ready) = (&dir, ready.clone());
                scope.spawn(move || {
                    let cache = SolutionCache::open(dir).unwrap();
                    ready.send(()).unwrap();
                    for round in 0..30u64 {
                        let weight = 10 + ((t + round) % 4) as usize;
                        cache
                            .store_if_better(&fp, &entry(weight, weight == 10))
                            .unwrap();
                    }
                });
            }
            for _ in 0..6 {
                waiting.recv().unwrap();
            }
            std::thread::sleep(std::time::Duration::from_millis(50));
            let while_held = listing(&dir);
            drop(held);
            while_held
        });
        assert!(
            while_held.is_empty(),
            "written under a held lock: {while_held:?}"
        );
        let survivor = SolutionCache::open(&dir)
            .unwrap()
            .peek(&fp)
            .expect("not torn");
        assert_eq!((survivor.weight, survivor.is_optimal()), (10, true));
        assert_eq!(listing(&dir), vec![format!("{}.json", fp.to_hex())]);
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
        // Same weight: stored only with a stronger floor — not a weaker
        // one, none, or an equal one from the other prover.
        let floor = |value, source| CacheEntry {
            floor: Some(Floor { value, source }),
            ..entry(20, false)
        };
        for (entry, stored) in [
            (floor(19, FloorSource::Unsat), true),
            (floor(20, FloorSource::Bound), true),
            (floor(19, FloorSource::Unsat), false),
            (entry(20, false), false),
            (entry(20, true), false),
        ] {
            assert_eq!(cache.store_if_better(&fp, &entry).unwrap(), stored);
        }
        assert_eq!(cache.peek(&fp), Some(floor(20, FloorSource::Bound)));
        // Strictly better weight: accepted.
        assert!(cache.store_if_better(&fp, &entry(18, true)).unwrap());
        assert_eq!(cache.lookup(&fp), Some(entry(18, true)));
        fs::remove_dir_all(&dir).unwrap();
    }
}
