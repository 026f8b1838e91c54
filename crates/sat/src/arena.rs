//! Flat clause storage: one contiguous `u32` buffer for every clause.
//!
//! The previous layout stored each clause as its own heap-allocated
//! `Vec<Lit>` behind a `Vec<Clause>`, so every clause visit in propagation
//! chased a pointer to a separately allocated block. Here all clauses live
//! in a single arena of `u32` words, addressed by a [`CRef`] (a word
//! offset), so walking a clause is a linear scan of memory the prefetcher
//! already has in flight, and neighbouring clauses share cache lines.
//!
//! Record layout, starting at the clause's `CRef`:
//!
//! ```text
//! word 0   header: len << 3 | dead << 2 | imported << 1 | learnt
//! word 1   LBD (glue) of the clause
//! word 2   activity, stored as f32 bits
//! word 3.. the literals, one Lit::code() per word
//! ```
//!
//! Garbage collection is an in-place sliding compaction
//! ([`ClauseArena::collect`]): records marked dead are skipped, live
//! records are copied down (destinations never overtake sources, so the
//! copy is overlap-safe), and the caller receives a [`GcMap`] to remap
//! every outstanding `CRef` (watcher lists, reason references).

use crate::types::Lit;

/// Reference to a clause: the word offset of its record in the arena.
pub(crate) type CRef = u32;

const LEARNT_BIT: u32 = 1;
const IMPORTED_BIT: u32 = 1 << 1;
const DEAD_BIT: u32 = 1 << 2;
const LEN_SHIFT: u32 = 3;
/// Words of metadata before the literals of a record.
const HEADER_WORDS: usize = 3;

/// The flat clause store.
#[derive(Debug, Clone, Default)]
pub(crate) struct ClauseArena {
    words: Vec<u32>,
    /// Words occupied by records marked dead (reclaimable by [`collect`]).
    wasted: usize,
}

impl ClauseArena {
    pub fn new() -> ClauseArena {
        ClauseArena::default()
    }

    /// Reserves room for `clauses` more records holding `literals`
    /// literals in total, so a bulk load grows the buffer once.
    pub fn reserve(&mut self, clauses: usize, literals: usize) {
        self.words.reserve(HEADER_WORDS * clauses + literals);
    }

    /// Appends a record and returns its reference.
    pub fn alloc(&mut self, lits: &[Lit], learnt: bool, imported: bool, lbd: u32) -> CRef {
        debug_assert!(lits.len() >= 2, "unit/empty clauses never hit the arena");
        let cref = self.words.len() as CRef;
        let mut header = (lits.len() as u32) << LEN_SHIFT;
        if learnt {
            header |= LEARNT_BIT;
        }
        if imported {
            header |= IMPORTED_BIT;
        }
        self.words.reserve(HEADER_WORDS + lits.len());
        self.words.push(header);
        self.words.push(lbd);
        self.words.push(0f32.to_bits());
        self.words.extend(lits.iter().map(|l| l.code() as u32));
        cref
    }

    #[inline]
    pub fn len(&self, c: CRef) -> usize {
        (self.words[c as usize] >> LEN_SHIFT) as usize
    }

    #[inline]
    pub fn is_learnt(&self, c: CRef) -> bool {
        self.words[c as usize] & LEARNT_BIT != 0
    }

    #[inline]
    pub fn is_imported(&self, c: CRef) -> bool {
        self.words[c as usize] & IMPORTED_BIT != 0
    }

    #[inline]
    pub fn is_dead(&self, c: CRef) -> bool {
        self.words[c as usize] & DEAD_BIT != 0
    }

    #[inline]
    pub fn lbd(&self, c: CRef) -> u32 {
        self.words[c as usize + 1]
    }

    #[inline]
    pub fn activity(&self, c: CRef) -> f32 {
        f32::from_bits(self.words[c as usize + 2])
    }

    #[inline]
    pub fn set_activity(&mut self, c: CRef, a: f32) {
        self.words[c as usize + 2] = a.to_bits();
    }

    #[inline]
    pub fn lit(&self, c: CRef, i: usize) -> Lit {
        debug_assert!(i < self.len(c));
        Lit::from_code(self.words[c as usize + HEADER_WORDS + i] as usize)
    }

    #[cfg(test)]
    pub fn set_lit(&mut self, c: CRef, i: usize, l: Lit) {
        debug_assert!(i < self.len(c));
        self.words[c as usize + HEADER_WORDS + i] = l.code() as u32;
    }

    #[inline]
    pub fn swap_lits(&mut self, c: CRef, i: usize, j: usize) {
        debug_assert!(i < self.len(c) && j < self.len(c));
        let base = c as usize + HEADER_WORDS;
        self.words.swap(base + i, base + j);
    }

    /// The literals of a clause as an iterator (no per-clause allocation).
    #[inline]
    pub fn lits(&self, c: CRef) -> impl Iterator<Item = Lit> + '_ {
        let base = c as usize + HEADER_WORDS;
        self.words[base..base + self.len(c)]
            .iter()
            .map(|&w| Lit::from_code(w as usize))
    }

    /// Scales every live record's activity by `factor` (EVSIDS rescale).
    pub fn scale_activities(&mut self, factor: f32) {
        let mut at = 0usize;
        while at < self.words.len() {
            let len = (self.words[at] >> LEN_SHIFT) as usize;
            let a = f32::from_bits(self.words[at + 2]);
            self.words[at + 2] = (a * factor).to_bits();
            at += HEADER_WORDS + len;
        }
    }

    /// Marks a record dead; its words are reclaimed by the next
    /// [`collect`](Self::collect).
    pub fn mark_dead(&mut self, c: CRef) {
        debug_assert!(!self.is_dead(c));
        self.words[c as usize] |= DEAD_BIT;
        self.wasted += HEADER_WORDS + self.len(c);
    }

    /// Words currently wasted on dead records.
    #[cfg(test)]
    pub fn wasted(&self) -> usize {
        self.wasted
    }

    /// Walks every live record in address order.
    pub fn iter(&self) -> impl Iterator<Item = CRef> + '_ {
        ArenaIter {
            arena: self,
            next: 0,
        }
        .filter(|&c| !self.is_dead(c))
    }

    /// In-place sliding compaction: copies live records down over dead
    /// ones and returns the old→new reference map. Destinations never
    /// pass sources, so the copy stays within the existing buffer.
    pub fn collect(&mut self) -> GcMap {
        let mut map = GcMap::default();
        let mut src = 0usize;
        let mut dst = 0usize;
        let end = self.words.len();
        while src < end {
            let record = HEADER_WORDS + (self.words[src] >> LEN_SHIFT) as usize;
            if self.words[src] & DEAD_BIT == 0 {
                if dst != src {
                    self.words.copy_within(src..src + record, dst);
                }
                map.old.push(src as CRef);
                map.new.push(dst as CRef);
                dst += record;
            }
            src += record;
        }
        self.words.truncate(dst);
        self.wasted = 0;
        map
    }
}

struct ArenaIter<'a> {
    arena: &'a ClauseArena,
    next: usize,
}

impl Iterator for ArenaIter<'_> {
    type Item = CRef;
    fn next(&mut self) -> Option<CRef> {
        if self.next >= self.arena.words.len() {
            return None;
        }
        let c = self.next as CRef;
        self.next += HEADER_WORDS + self.arena.len(c);
        Some(c)
    }
}

/// Old→new `CRef` translation produced by a compaction. Both columns are
/// sorted ascending (records are visited in address order), so lookup is
/// a binary search.
#[derive(Debug, Default)]
pub(crate) struct GcMap {
    old: Vec<CRef>,
    new: Vec<CRef>,
}

impl GcMap {
    /// The post-compaction address of a clause, or `None` if it was dead.
    #[inline]
    pub fn lookup(&self, old: CRef) -> Option<CRef> {
        self.old.binary_search(&old).ok().map(|i| self.new[i])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Var;

    fn lits(codes: &[usize]) -> Vec<Lit> {
        codes.iter().map(|&c| Lit::from_code(c)).collect()
    }

    #[test]
    fn alloc_and_read_back() {
        let mut a = ClauseArena::new();
        let c1 = a.alloc(&lits(&[0, 3]), false, false, 0);
        let c2 = a.alloc(&lits(&[2, 5, 7]), true, true, 4);
        assert_eq!(a.len(c1), 2);
        assert!(!a.is_learnt(c1) && !a.is_imported(c1));
        assert_eq!(a.len(c2), 3);
        assert!(a.is_learnt(c2) && a.is_imported(c2));
        assert_eq!(a.lbd(c2), 4);
        assert_eq!(a.lit(c2, 1), Lit::from_code(5));
        assert_eq!(a.lits(c2).collect::<Vec<_>>(), lits(&[2, 5, 7]));
    }

    #[test]
    fn activity_round_trips_through_bits() {
        let mut a = ClauseArena::new();
        let c = a.alloc(&lits(&[0, 2]), true, false, 2);
        assert_eq!(a.activity(c), 0.0);
        a.set_activity(c, 3.25);
        assert_eq!(a.activity(c), 3.25);
    }

    #[test]
    fn swap_and_set_lits() {
        let mut a = ClauseArena::new();
        let c = a.alloc(&lits(&[0, 2, 4]), false, false, 0);
        a.swap_lits(c, 0, 2);
        assert_eq!(a.lits(c).collect::<Vec<_>>(), lits(&[4, 2, 0]));
        a.set_lit(c, 1, Var::new(9).positive());
        assert_eq!(a.lit(c, 1), Var::new(9).positive());
    }

    #[test]
    fn collect_compacts_and_remaps() {
        let mut a = ClauseArena::new();
        let c1 = a.alloc(&lits(&[0, 2]), false, false, 0);
        let c2 = a.alloc(&lits(&[4, 6, 8]), true, false, 3);
        let c3 = a.alloc(&lits(&[1, 3]), true, false, 2);
        a.mark_dead(c2);
        assert!(a.wasted() > 0);
        let map = a.collect();
        assert_eq!(map.lookup(c1), Some(c1), "first record does not move");
        assert_eq!(map.lookup(c2), None, "dead record dropped");
        let c3_new = map.lookup(c3).expect("live record survives");
        assert!(c3_new < c3);
        assert_eq!(a.lits(c3_new).collect::<Vec<_>>(), lits(&[1, 3]));
        assert_eq!(a.lbd(c3_new), 2);
        assert_eq!(a.wasted(), 0);
        assert_eq!(a.iter().count(), 2);
    }

    #[test]
    fn iter_walks_live_records_in_order() {
        let mut a = ClauseArena::new();
        let mut expect = Vec::new();
        for i in 0..10usize {
            expect.push(a.alloc(&lits(&[2 * i, 2 * i + 4]), i % 2 == 0, false, i as u32));
        }
        a.mark_dead(expect[3]);
        a.mark_dead(expect[7]);
        expect.remove(7);
        expect.remove(3);
        assert_eq!(a.iter().collect::<Vec<_>>(), expect);
    }
}
