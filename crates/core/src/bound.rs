//! A floor that does not go through the CNF: depth-first branch and bound
//! over sets of pairwise-anticommuting Pauli strings.
//!
//! # The relaxed problem
//!
//! An encoding of `N` modes is `2N` Pauli strings on `N` qubits that
//! pairwise anticommute, are algebraically independent and (by default)
//! meet the vacuum condition. Independence follows from anticommutation
//! (an even number of pairwise-anticommuting strings is GF(2)-independent;
//! see [`crate::instance`]), so dropping only the vacuum condition leaves
//! the problem this module solves:
//!
//! > the minimum total weight of `2N` pairwise-anticommuting, non-identity
//! > Pauli strings on `N` qubits.
//!
//! Every encoding is such a set, so the minimum is a lower bound on the
//! `MajoranaWeight` optimum with or without the vacuum condition. A
//! checked encoding whose weight equals it is therefore optimal: that is
//! how the engine decides a race before any lane starts. The search shares
//! no code with the clause generator, so the two certificates check each
//! other.
//!
//! # The search
//!
//! * The `4^N − 1` non-identity strings are `(x, z)` bit masks, sorted by
//!   weight, then by `z`, then by `x`.
//! * A set is built in increasing index order, so each set is visited
//!   once, lightest string first. Qubit permutations and per-qubit Pauli
//!   relabellings keep both weight and anticommutation, and map any string
//!   of weight `w` to `X^w I^{N−w}`, so the first string is fixed to that
//!   one, for `w = 1 … N`. The sort puts it first among the strings of its
//!   weight, so every other member of the set comes after it.
//! * The candidates of a node are the strings after its last member that
//!   anticommute with every member, held as a bitset. The bitsets live on
//!   one stack of `2N − 1` levels allocated up front; a node allocates
//!   nothing.
//! * A node is pruned when its weight plus the `k` lightest candidates,
//!   with `k` strings still to place, reaches the weight to beat. Since the
//!   candidates are in weight order, those are the first `k` set bits.
//! * A complete set below the weight to beat becomes the new weight to
//!   beat, so the search ends at the lightest set below the asked weight.

use pauli::PauliString;

/// The largest number of modes the search accepts: the masks pack `x` and
/// `z` into one byte each. Proving the floor takes 1.5 ms at `N = 5`,
/// 14 ms at `N = 6`, 0.24 s at `N = 7` and 38 s at `N = 8` (one core,
/// release build).
pub const MAX_BOUND_MODES: usize = 8;

/// What [`lightest_below`] found.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BoundOutcome {
    /// The lightest set of `2N` pairwise-anticommuting strings of total
    /// weight below the asked weight, lightest string first, or `None`
    /// when no such set exists.
    pub witness: Option<Vec<PauliString>>,
    /// No set of `2N` pairwise-anticommuting strings weighs less than
    /// this: the witness's weight, or the asked weight when there is no
    /// witness.
    pub floor: usize,
    /// Strings placed by the search (its node count).
    pub nodes: u64,
}

/// Is there a set of `2N` pairwise-anticommuting Pauli strings on `n`
/// qubits that weighs less than `below`? Returns the lightest such set, or
/// none, with the floor that answer proves. Asked with `below` one above a
/// known set's weight, `floor` is the minimum.
///
/// # Panics
///
/// When `n` is 0 or above [`MAX_BOUND_MODES`].
///
/// # Example
///
/// ```
/// use fermihedral::bound::lightest_below;
///
/// // Jordan-Wigner's 6 is the least at N = 2: nothing weighs 5 or less.
/// assert_eq!(lightest_below(2, 6).witness, None);
/// assert_eq!(lightest_below(2, 7).floor, 6);
/// ```
pub fn lightest_below(n: usize, below: usize) -> BoundOutcome {
    assert!(
        (1..=MAX_BOUND_MODES).contains(&n),
        "the bound search takes 1 to {MAX_BOUND_MODES} modes, not {n}"
    );
    let mut span = telemetry::span("core.bound.search");
    let mut search = Search::new(n, below);
    search.run();
    let witness = search.witness.as_ref().map(|members| {
        members
            .iter()
            .map(|&i| search.strings[i].pauli(n))
            .collect::<Vec<_>>()
    });
    if span.active() {
        span.attr("modes", n as u64);
        span.attr("floor", search.best as u64);
        span.attr("nodes", search.nodes);
    }
    BoundOutcome {
        witness,
        floor: search.best,
        nodes: search.nodes,
    }
}

/// One non-identity string: `x` in the low byte of `packed` and `z` in the
/// next, plus the same halves swapped, so `a` and `b` anticommute exactly
/// when `a.packed & b.swapped` has odd parity.
#[derive(Debug, Clone, Copy)]
struct Candidate {
    packed: u32,
    swapped: u32,
    weight: usize,
}

impl Candidate {
    fn new(x: u32, z: u32) -> Candidate {
        Candidate {
            packed: x | z << 8,
            swapped: z | x << 8,
            weight: (x | z).count_ones() as usize,
        }
    }

    fn anticommutes(&self, other: &Candidate) -> bool {
        (self.packed & other.swapped).count_ones() & 1 == 1
    }

    fn pauli(&self, n: usize) -> PauliString {
        PauliString::from_masks(n, (self.packed & 0xff) as u128, (self.packed >> 8) as u128)
    }
}

struct Search {
    n: usize,
    /// Every non-identity string, in weight order.
    strings: Vec<Candidate>,
    /// 64-bit words per candidate bitset.
    words: usize,
    /// The members placed so far.
    path: Vec<usize>,
    /// The weight to beat.
    best: usize,
    witness: Option<Vec<usize>>,
    nodes: u64,
}

impl Search {
    fn new(n: usize, below: usize) -> Search {
        let mut strings: Vec<Candidate> = (1u32..1 << (2 * n))
            .map(|bits| Candidate::new(bits & ((1 << n) - 1), bits >> n))
            .collect();
        strings.sort_by_key(|c| (c.weight, c.packed >> 8, c.packed & 0xff));
        let words = strings.len().div_ceil(64);
        Search {
            n,
            strings,
            words,
            path: Vec::with_capacity(2 * n),
            best: below,
            witness: None,
            nodes: 0,
        }
    }

    fn run(&mut self) {
        let size = 2 * self.n;
        // The candidate bitsets of levels 1 … 2N − 1 (members placed), one
        // after the other.
        let mut levels = vec![0u64; (size - 1) * self.words];
        for w in 1..=self.n {
            // Every member weighs at least the first one's `w`.
            if size * w >= self.best {
                break;
            }
            let first = (self.strings.iter())
                .position(|c| c.packed == (1 << w) - 1)
                .expect("X^w I^(N-w) is a candidate");
            self.nodes += 1;
            // Level 1: every later string that anticommutes with the first.
            let level = &mut levels[..self.words];
            level.fill(0);
            let head = self.strings[first];
            for (j, c) in self.strings.iter().enumerate().skip(first + 1) {
                if head.anticommutes(c) {
                    level[j / 64] |= 1 << (j % 64);
                }
            }
            self.path.push(first);
            self.descend(&mut levels, 1, w);
            self.path.pop();
        }
    }

    /// Extends the `depth` members on the path, of total `weight`, with the
    /// candidates in `levels[..words]`; the deeper levels follow them.
    fn descend(&mut self, levels: &mut [u64], depth: usize, weight: usize) {
        let left = 2 * self.n - depth;
        let (parent, deeper) = levels.split_at_mut(self.words);
        let parent = &*parent;
        for (word_index, &word) in parent.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let i = word_index * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let candidate = self.strings[i];
                // Every candidate from `i` on weighs at least `i`'s weight.
                if weight + left * candidate.weight >= self.best {
                    return;
                }
                self.nodes += 1;
                let weight = weight + candidate.weight;
                if left == 1 {
                    self.best = weight;
                    let mut members = self.path.clone();
                    members.push(i);
                    self.witness = Some(members);
                    continue;
                }
                // The child's candidates: later parent candidates that
                // anticommute with `i`; the `left − 1` lightest of them
                // are the first ones found.
                let mut need = left - 1;
                let mut lightest = 0;
                let child = &mut deeper[..self.words];
                child.fill(0);
                for (k, &later) in parent.iter().enumerate().skip(word_index) {
                    let mut later_bits = if k == word_index { bits } else { later };
                    while later_bits != 0 {
                        let j = k * 64 + later_bits.trailing_zeros() as usize;
                        later_bits &= later_bits - 1;
                        let c = &self.strings[j];
                        if candidate.anticommutes(c) {
                            child[k] |= 1 << (j % 64);
                            if need > 0 {
                                need -= 1;
                                lightest += c.weight;
                            }
                        }
                    }
                }
                if need > 0 || weight + lightest >= self.best {
                    continue;
                }
                self.path.push(i);
                self.descend(deeper, depth + 1, weight);
                self.path.pop();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_first_string_of_each_weight_is_x_on_the_low_qubits() {
        let search = Search::new(4, usize::MAX);
        for w in 1..=4 {
            let first = (search.strings.iter()).position(|c| c.weight == w).unwrap();
            assert_eq!(search.strings[first].packed, (1 << w) - 1, "w={w}");
        }
    }

    #[test]
    fn candidates_anticommute_as_their_pauli_strings_do() {
        let search = Search::new(2, usize::MAX);
        for a in &search.strings {
            for b in &search.strings {
                assert_eq!(a.anticommutes(b), a.pauli(2).anticommutes(&b.pauli(2)));
            }
        }
    }
}
