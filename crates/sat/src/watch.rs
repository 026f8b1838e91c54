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
//! reads `p`'s segment position `(off, len)` once ([`WatchLists::span`])
//! and scans and compacts the entries by flat index, `off..off + len`,
//! through [`WatchLists::at`] and [`WatchLists::put`]. Meanwhile it may
//! push replacement watches onto *other* literals' segments. A
//! replacement watch for clause `c` targets `!new_watch` where
//! `new_watch` is a non-false literal of `c` — never `!p` itself (`!p` is
//! false right now) — so `p`'s own segment never relocates or grows under
//! the scan: its `off` and `len` stay those read at the start. A push
//! that relocates another segment may reallocate the backing buffer, but
//! it moves every entry to the same flat index in the new buffer, so the
//! scan's indices stay valid; only a reference into the buffer would
//! not, and the scan holds none across a push.

use crate::arena::{CRef, ClauseArena};
use crate::par;
use crate::types::Lit;
use std::mem::MaybeUninit;

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

    /// Watches every record of a freshly loaded `arena` on its first two
    /// literals, in record order — what [`watch`](Self::watch) on each
    /// would leave, without a relocation: `counts[code]` (exact, from
    /// [`ClauseArena::load`]) sizes each segment, laid out in literal
    /// order. The literal codes are cut into `parts` runs of about equal
    /// watcher count, each filled by its own thread ([`par::fork`]) from a
    /// full scan of the arena. Only valid while every list is empty.
    pub fn watch_all(&mut self, arena: &ClauseArena, counts: &[u32], parts: usize) {
        debug_assert!(self.data.is_empty() && counts.len() <= self.seg.len());
        let mut off = 0u32;
        for (seg, &cap) in self.seg.iter_mut().zip(counts) {
            *seg = Segment { off, len: 0, cap };
            off = off.checked_add(cap).expect("watcher offsets fit u32");
        }
        let total = off as usize;
        let segs = &mut self.seg[..counts.len()];
        let mut cuts = vec![0];
        for k in 1..parts {
            let target = (total * k / parts) as u32;
            cuts.push(segs.partition_point(|s| s.off < target));
        }
        cuts.push(segs.len());

        self.data.reserve(total);
        let mut spare = &mut self.data.spare_capacity_mut()[..total];
        let mut segs = segs;
        let mut inputs = Vec::with_capacity(parts);
        for w in cuts.windows(2) {
            let (mine, rest) = std::mem::take(&mut segs).split_at_mut(w[1] - w[0]);
            segs = rest;
            let size = mine.iter().map(|s| s.cap as usize).sum();
            let (slots, rest) = std::mem::take(&mut spare).split_at_mut(size);
            spare = rest;
            inputs.push((w[0], mine, slots));
        }
        let filled = par::fork(inputs, |(first_code, segs, slots)| {
            fill_run(arena, first_code, segs, slots)
        });
        assert!(
            filled.into_iter().all(|full| full),
            "watcher counts disagree with the arena"
        );
        // SAFETY: the segments tile `data[..total]` (offsets are prefix
        // sums of the caps), each run's slots are exactly its segments'
        // span, and every run reported each of its segments full — every
        // slot written once.
        unsafe { self.data.set_len(total) };
    }

    /// Where a literal's segment sits in the flat buffer, as
    /// `(offset, len)`: a scan reads it once and then addresses the
    /// entries by flat index through [`at`](Self::at) and
    /// [`put`](Self::put).
    #[inline]
    pub fn span(&self, lit_code: usize) -> (usize, usize) {
        let s = self.seg[lit_code];
        (s.off as usize, s.len as usize)
    }

    /// The entry at flat index `idx`.
    #[inline]
    pub fn at(&self, idx: usize) -> Watcher {
        self.data[idx]
    }

    /// Overwrites the entry at flat index `idx`.
    #[inline]
    pub fn put(&mut self, idx: usize, w: Watcher) {
        self.data[idx] = w;
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

/// Pushes, record by record, every watcher of `arena` that lands on a
/// literal code in `first_code..first_code + segs.len()`: `segs` are those
/// codes' segments and `slots` their storage, starting at `segs[0].off`.
/// `true` when that filled every segment to its capacity.
fn fill_run(
    arena: &ClauseArena,
    first_code: usize,
    segs: &mut [Segment],
    slots: &mut [MaybeUninit<Watcher>],
) -> bool {
    let Some(base) = segs.first().map(|s| s.off) else {
        return true;
    };
    let codes = first_code..first_code + segs.len();
    for cref in arena.iter() {
        let (w0, w1) = (arena.lit(cref, 0), arena.lit(cref, 1));
        for (watched, blocker) in [(w0, w1), (w1, w0)] {
            let code = (!watched).code();
            if codes.contains(&code) {
                let s = &mut segs[code - first_code];
                assert!(s.len < s.cap, "watcher counts disagree with the arena");
                slots[(s.off - base + s.len) as usize].write(Watcher { cref, blocker });
                s.len += 1;
            }
        }
    }
    segs.iter().all(|s| s.len == s.cap)
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
        let (off, len) = wl.span(0);
        assert_eq!(len, 6);
        let keep: Vec<Watcher> = [0, 2].iter().map(|&i| wl.at(off + i)).collect();
        for (i, &entry) in keep.iter().enumerate() {
            wl.put(off + i, entry);
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
