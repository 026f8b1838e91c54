//! Flat two-watched-literal occurrence lists.
//!
//! One `Vec<Watcher>` holds every watch list back to back; each literal
//! owns a segment described by `(offset, len, cap)`. The propagation
//! inner loop then scans one contiguous run of 8-byte `{cref, blocker}`
//! entries per literal — no per-literal `Vec` header chasing, and the
//! blocking-literal fast path stays on hot cache lines.
//!
//! Growth relocates a full segment to the end of the buffer (doubling its
//! capacity) and abandons the old slot; the abandoned words are counted in
//! [`WatchLists::wasted`] and reclaimed by [`WatchLists::rebuild`], which
//! the solver calls at `reduce_db` time (never mid-propagation).
//!
//! Safety of in-loop pushes: while propagating literal `p` the solver
//! scans `p`'s segment by index and may push replacement watches onto
//! *other* literals' segments. A replacement watch for clause `c` targets
//! `!new_watch` where `new_watch` is a non-false literal of `c` — never
//! `!p` itself (`!p` is false right now) — so `p`'s own segment never
//! relocates or grows under the scan, and index-based access stays valid
//! even when the backing buffer reallocates.

use crate::arena::CRef;
use crate::types::Lit;

/// One watch-list entry: the clause plus a cached "blocking" literal; if
/// the blocker is already true the clause is satisfied and the record
/// need not be touched at all.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Watcher {
    pub cref: CRef,
    pub blocker: Lit,
}

#[derive(Debug, Clone, Copy, Default)]
struct Segment {
    off: u32,
    len: u32,
    cap: u32,
}

/// Flat per-literal watcher lists, indexed by `Lit::code()`.
#[derive(Debug, Clone, Default)]
pub(crate) struct WatchLists {
    data: Vec<Watcher>,
    seg: Vec<Segment>,
    /// Entries abandoned by segment relocations (reclaimed by `rebuild`).
    wasted: usize,
}

const MIN_CAP: u32 = 4;
/// Filler for the unused capacity of a segment.
const VACANT: Watcher = Watcher {
    cref: 0,
    blocker: Lit::from_code(0),
};

impl WatchLists {
    pub fn new() -> WatchLists {
        WatchLists::default()
    }

    /// Number of literal slots.
    pub fn num_lits(&self) -> usize {
        self.seg.len()
    }

    /// Extends the list table to cover `n` literal codes.
    pub fn grow_to(&mut self, n: usize) {
        if self.seg.len() < n {
            self.seg.resize(n, Segment::default());
        }
    }

    /// Lays out empty segments of exactly `counts[code]` entries each, in
    /// literal order, so the pushes of a bulk load whose watcher counts
    /// were taken beforehand never relocate a segment. Only valid while
    /// every list is still empty.
    pub fn presize(&mut self, counts: &[u32]) {
        debug_assert!(self.data.is_empty() && counts.len() <= self.seg.len());
        let mut off = 0u32;
        for (seg, &cap) in self.seg.iter_mut().zip(counts) {
            *seg = Segment { off, len: 0, cap };
            off = off.checked_add(cap).expect("watcher offsets fit u32");
        }
        self.data.resize(off as usize, VACANT);
    }

    #[inline]
    pub fn len_of(&self, lit_code: usize) -> usize {
        self.seg[lit_code].len as usize
    }

    #[inline]
    pub fn get(&self, lit_code: usize, i: usize) -> Watcher {
        let s = self.seg[lit_code];
        debug_assert!((i as u32) < s.len);
        self.data[s.off as usize + i]
    }

    #[inline]
    pub fn set(&mut self, lit_code: usize, i: usize, w: Watcher) {
        let s = self.seg[lit_code];
        debug_assert!((i as u32) < s.len);
        self.data[s.off as usize + i] = w;
    }

    /// Shortens a segment to `len` entries (propagation's in-place
    /// compaction after dropping moved watchers).
    #[inline]
    pub fn truncate(&mut self, lit_code: usize, len: usize) {
        debug_assert!(len <= self.seg[lit_code].len as usize);
        self.seg[lit_code].len = len as u32;
    }

    /// Appends a watcher to a literal's segment, relocating the segment to
    /// the end of the buffer when it is full.
    pub fn push(&mut self, lit_code: usize, w: Watcher) {
        let s = self.seg[lit_code];
        if s.len == s.cap {
            let new_cap = (s.cap * 2).max(MIN_CAP);
            let new_off = self.data.len() as u32;
            self.data.reserve(new_cap as usize);
            for i in 0..s.len {
                let entry = self.data[(s.off + i) as usize];
                self.data.push(entry);
            }
            self.data.push(w);
            // The abandoned slot plus the spare capacity of the new slot
            // both sit unused in `data` until the next rebuild.
            self.wasted += s.cap as usize;
            for _ in s.len + 1..new_cap {
                self.data.push(VACANT);
            }
            self.seg[lit_code] = Segment {
                off: new_off,
                len: s.len + 1,
                cap: new_cap,
            };
        } else {
            self.data[(s.off + s.len) as usize] = w;
            self.seg[lit_code].len += 1;
        }
    }

    /// Watches clause `cref` on its first two literals `w0` and `w1`: each
    /// literal's negation lists the clause with the other as blocker.
    #[inline]
    pub fn watch(&mut self, cref: CRef, w0: Lit, w1: Lit) {
        self.push((!w0).code(), Watcher { cref, blocker: w1 });
        self.push((!w1).code(), Watcher { cref, blocker: w0 });
    }

    /// Entries lost to abandoned segments (a rebuild-trigger signal).
    #[cfg(test)]
    pub fn wasted(&self) -> usize {
        self.wasted
    }

    /// Remaps every watcher's clause reference through `f`, dropping
    /// entries whose clause is gone (`None`). Order within a list is not
    /// preserved — watch lists are unordered sets.
    pub fn retain_map(&mut self, mut f: impl FnMut(CRef) -> Option<CRef>) {
        for code in 0..self.seg.len() {
            let mut i = 0;
            while i < self.seg[code].len as usize {
                let off = self.seg[code].off as usize;
                match f(self.data[off + i].cref) {
                    Some(new) => {
                        self.data[off + i].cref = new;
                        i += 1;
                    }
                    None => {
                        let last = self.seg[code].len as usize - 1;
                        self.data.swap(off + i, off + last);
                        self.seg[code].len = last as u32;
                    }
                }
            }
        }
    }

    /// Repacks every segment contiguously (capacity = length), dropping
    /// the waste accumulated by relocations and deletions.
    pub fn rebuild(&mut self) {
        let live: usize = self.seg.iter().map(|s| s.len as usize).sum();
        let mut data = Vec::with_capacity(live);
        for s in self.seg.iter_mut() {
            let off = data.len() as u32;
            data.extend_from_slice(&self.data[s.off as usize..(s.off + s.len) as usize]);
            *s = Segment {
                off,
                len: s.len,
                cap: s.len,
            };
        }
        self.data = data;
        self.wasted = 0;
    }

    /// Iterates one literal's current watchers (diagnostic use).
    pub fn iter_list(&self, lit_code: usize) -> impl Iterator<Item = Watcher> + '_ {
        let s = self.seg[lit_code];
        self.data[s.off as usize..(s.off + s.len) as usize]
            .iter()
            .copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn w(cref: CRef) -> Watcher {
        Watcher {
            cref,
            blocker: Lit::from_code(0),
        }
    }

    fn crefs(lists: &WatchLists, code: usize) -> Vec<CRef> {
        lists.iter_list(code).map(|w| w.cref).collect()
    }

    #[test]
    fn push_and_read_across_relocations() {
        let mut wl = WatchLists::new();
        wl.grow_to(4);
        for i in 0..40 {
            wl.push(i as usize % 4, w(i));
        }
        for code in 0..4 {
            let got = crefs(&wl, code);
            assert_eq!(got.len(), 10);
            assert!(got.iter().all(|&c| c as usize % 4 == code));
        }
        assert!(wl.wasted() > 0, "relocations must be accounted");
    }

    #[test]
    fn truncate_compacts_in_place() {
        let mut wl = WatchLists::new();
        wl.grow_to(1);
        for i in 0..6 {
            wl.push(0, w(i));
        }
        // Keep entries 0 and 2 (as propagation's kept-prefix would).
        let keep: Vec<Watcher> = [0, 2].iter().map(|&i| wl.get(0, i)).collect();
        for (i, &entry) in keep.iter().enumerate() {
            wl.set(0, i, entry);
        }
        wl.truncate(0, keep.len());
        assert_eq!(crefs(&wl, 0), vec![0, 2]);
    }

    #[test]
    fn retain_map_drops_and_remaps() {
        let mut wl = WatchLists::new();
        wl.grow_to(2);
        for i in 0..8 {
            wl.push(i as usize % 2, w(i));
        }
        // Drop odd crefs, halve even ones.
        wl.retain_map(|c| (c % 2 == 0).then_some(c / 2));
        let mut all: Vec<CRef> = crefs(&wl, 0);
        all.extend(crefs(&wl, 1));
        all.sort_unstable();
        assert_eq!(all, vec![0, 1, 2, 3]);
    }

    #[test]
    fn rebuild_reclaims_waste() {
        let mut wl = WatchLists::new();
        wl.grow_to(3);
        for i in 0..60 {
            wl.push(i as usize % 3, w(i));
        }
        let before: Vec<Vec<CRef>> = (0..3).map(|c| crefs(&wl, c)).collect();
        assert!(wl.wasted() > 0);
        wl.rebuild();
        assert_eq!(wl.wasted(), 0);
        let after: Vec<Vec<CRef>> = (0..3).map(|c| crefs(&wl, c)).collect();
        assert_eq!(before, after);
        // Still writable after a rebuild.
        wl.push(1, w(99));
        assert!(crefs(&wl, 1).contains(&99));
    }
}
