//! A minimal word-packed bitset for the solver's per-variable side arrays.
//!
//! `saved_phase`, the analyzer's `seen` marks, and [`Model`] values were
//! `Vec<bool>` — one byte per variable. Packing them 64-per-word shrinks
//! the propagation/analysis working set eightfold, which matters because
//! these arrays are touched on every enqueue and every conflict.
//!
//! Unlike `mathkit::gf2::BitVec`, accesses here are `debug_assert`-checked
//! only: these arrays sit on the solver's hottest paths, and the solver
//! already guarantees indices are in range (they are variable indices it
//! allocated itself).

/// Word-packed vector of booleans, indexed like a `Vec<bool>`.
#[derive(Debug, Clone, Default)]
pub(crate) struct BitSet {
    words: Vec<u64>,
    len: usize,
}

impl BitSet {
    pub fn new() -> BitSet {
        BitSet::default()
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Appends one bit.
    pub fn push(&mut self, value: bool) {
        let (word, bit) = (self.len / 64, self.len % 64);
        if bit == 0 {
            self.words.push(0);
        }
        if value {
            self.words[word] |= 1 << bit;
        }
        self.len += 1;
    }

    /// Appends `false` bits until the set holds at least `len` of them.
    pub fn grow_to(&mut self, len: usize) {
        if len > self.len {
            self.words.resize(len.div_ceil(64), 0);
            self.len = len;
        }
    }

    #[inline]
    pub fn get(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        self.words[i / 64] >> (i % 64) & 1 == 1
    }

    #[inline]
    pub fn set(&mut self, i: usize, value: bool) {
        debug_assert!(i < self.len);
        let mask = 1u64 << (i % 64);
        if value {
            self.words[i / 64] |= mask;
        } else {
            self.words[i / 64] &= !mask;
        }
    }

    /// The bits unpacked into a `Vec<bool>` (cold-path interop).
    pub fn to_vec(&self) -> Vec<bool> {
        (0..self.len).map(|i| self.get(i)).collect()
    }
}

impl FromIterator<bool> for BitSet {
    fn from_iter<I: IntoIterator<Item = bool>>(iter: I) -> BitSet {
        let mut b = BitSet::new();
        for v in iter {
            b.push(v);
        }
        b
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_get_set_round_trip() {
        let mut b = BitSet::new();
        for i in 0..200 {
            b.push(i % 3 == 0);
        }
        assert_eq!(b.len(), 200);
        for i in 0..200 {
            assert_eq!(b.get(i), i % 3 == 0, "bit {i}");
        }
        b.set(100, true);
        b.set(99, false);
        assert!(b.get(100));
        assert!(!b.get(99));
        // Neighbours across the word boundary untouched.
        assert_eq!(b.get(63), 63 % 3 == 0);
        assert_eq!(b.get(64), 64 % 3 == 0);
    }

    #[test]
    fn collect_and_unpack() {
        let pattern: Vec<bool> = (0..130).map(|i| i % 7 < 3).collect();
        let b: BitSet = pattern.iter().copied().collect();
        assert_eq!(b.to_vec(), pattern);
    }
}
