//! A floor that does not go through the CNF: depth-first branch and bound
//! over pairwise-anticommuting Pauli strings, in one of two modes chosen by
//! the problem's objective.
//!
//! An encoding of `N` modes is `2N` Pauli strings on `N` qubits that
//! pairwise anticommute, are algebraically independent and (by default)
//! meet the vacuum condition. Independence follows from anticommutation
//! (an even number of pairwise-anticommuting strings is GF(2)-independent;
//! see [`crate::instance`]), and the identity commutes with everything, so
//! the search only ever places non-identity strings that anticommute with
//! every string already placed. It shares no code with the clause
//! generator, so its certificates and the CNF's check each other. A
//! checked encoding whose weight equals its floor is optimal: that is how
//! the engine decides a race before any lane starts.
//!
//! # `MajoranaWeight`: unordered sets, vacuum relaxed
//!
//! The Hamiltonian-independent weight does not depend on which string is
//! which Majorana operator, so the search solves
//!
//! > the minimum total weight of `2N` pairwise-anticommuting, non-identity
//! > Pauli strings on `N` qubits,
//!
//! a lower bound on the optimum with or without the vacuum condition.
//!
//! * A set is built in increasing string index, so each set is visited
//!   once, lightest string first. Qubit permutations and per-qubit Pauli
//!   relabellings keep both weight and anticommutation, and map any string
//!   of weight `w` to `X^w I^{N−w}`, so the first string is fixed to that
//!   one, for `w = 1 … N`. The sort puts it first among the strings of its
//!   weight, so every other member of the set comes after it.
//! * A node's candidates are the strings after its last member that
//!   anticommute with every member.
//! * A node is pruned when its weight plus the `k` lightest candidates,
//!   with `k` strings still to place, reaches the weight to beat. Since the
//!   candidates are in weight order, those are the first `k` set bits.
//!
//! # `HamiltonianWeight`: ordered assignments, exact
//!
//! The Hamiltonian-dependent weight (paper §3.7) is the summed weight of
//! each de-duplicated monomial's product string, so it depends on which
//! string is `γ_i`: the search places `γ_0, γ_1, …` in index order, and a
//! complete assignment is an encoding. Nothing is relaxed.
//!
//! * A candidate for `γ_i` is any string that anticommutes with
//!   `γ_0 … γ_{i−1}`; with the vacuum condition, `γ_{2j+1}` must also hold
//!   `Y` where `γ_{2j}` holds `X` on some qubit (the XY-pair condition of
//!   [`crate::instance`]).
//! * Qubit permutations keep anticommutation, the XY-pair condition and
//!   the weight of every product, so `γ_0` is fixed to strings whose
//!   letters do not decrease over the qubits (in the order `X, Y, Z, I`).
//!   Without the vacuum condition per-qubit relabellings of `X, Y, Z` keep
//!   all of that too, and `γ_0` is `X^w I^{N−w}`. Every encoding maps to
//!   one with such a `γ_0` and the same weight, so the minimum is exact.
//! * Each monomial's product weight is added when its largest index is
//!   placed. Its members are distinct strings of an anticommuting set, so
//!   by independence the product is never the identity: each monomial
//!   still open adds at least one, and a node is pruned when its weight
//!   plus one per open monomial reaches the weight to beat. Once every
//!   monomial is closed the weight is final, so the first feasible
//!   completion becomes the weight to beat and prunes the rest.
//! * A node is also pruned when fewer candidates remain than strings still
//!   to place.
//!
//! # Shared by both
//!
//! * The `4^N − 1` non-identity strings are `(x, z)` bit masks, sorted by
//!   weight, then by `z`, then by `x`: one candidate table.
//! * A node's candidates are a bitset over that table. The bitsets live on
//!   one stack of `2N − 1` levels allocated up front; a node allocates
//!   nothing.
//! * A complete set below the weight to beat becomes the new weight to
//!   beat, so the search ends at the lightest one below the asked weight.

use crate::{EncodingProblem, Objective};
use fermion::MajoranaMonomial;
use pauli::PauliString;
use std::collections::BTreeSet;

/// The largest number of modes the search accepts: the masks pack `x` and
/// `z` into one byte each. For `MajoranaWeight`, proving the floor takes
/// 1.5 ms at `N = 5`, 14 ms at `N = 6`, 0.24 s at `N = 7` and 38 s at
/// `N = 8`. For `HamiltonianWeight`, finding the optimum takes 0.1 ms in
/// the median over the 455 three-pair Hamiltonians at `N = 3`, 0.19 s for
/// the 2-site Hubbard model and 2.6 s for H₂ at `N = 4` (one core, release
/// build).
pub const MAX_BOUND_MODES: usize = 8;

/// What [`search`] found.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BoundOutcome {
    /// The lightest strings below the asked weight, or `None` when none
    /// weigh less. For `MajoranaWeight`, `2N` pairwise-anticommuting
    /// strings, lightest first; for `HamiltonianWeight`, an encoding,
    /// `γ_0` first.
    pub witness: Option<Vec<PauliString>>,
    /// Nothing the search covers weighs less than this: the witness's
    /// weight, or the asked weight when there is no witness.
    pub floor: usize,
    /// Strings placed by the search (its node count).
    pub nodes: u64,
}

/// [`search`] on the Hamiltonian-independent problem at `n` modes: is
/// there a set of `2N` pairwise-anticommuting Pauli strings on `n` qubits
/// that weighs less than `below`?
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
    search(&EncodingProblem::new(n, Objective::MajoranaWeight), below)
}

/// Is there anything lighter than `below` for `problem`? Returns the
/// lightest witness below it, or none, with the floor that answer proves.
/// Asked with `below` one above a known encoding's weight, `floor` is the
/// minimum. For `MajoranaWeight` the vacuum condition is relaxed and the
/// witness is a set, not an encoding; for `HamiltonianWeight` the witness
/// is an encoding of `problem` and the floor is exact (see the module
/// docs).
///
/// # Panics
///
/// When the problem has more than [`MAX_BOUND_MODES`] modes, or a monomial
/// names a Majorana operator it does not have.
///
/// # Example
///
/// ```
/// use fermihedral::{bound, fixtures};
///
/// // γ₀γ₁ + γ₂γ₃ + γ₀γ₃ at N = 2 weighs 4 at best.
/// let outcome = bound::search(&fixtures::chain(2), usize::MAX);
/// assert_eq!(outcome.floor, 4);
/// assert_eq!(outcome.witness.map(|w| w.len()), Some(4));
/// ```
pub fn search(problem: &EncodingProblem, below: usize) -> BoundOutcome {
    let n = problem.num_modes();
    assert!(
        n <= MAX_BOUND_MODES,
        "the bound search takes 1 to {MAX_BOUND_MODES} modes, not {n}"
    );
    let mut span = telemetry::span("core.bound.search");
    let mut search = Search::new(n, below);
    let objective = match problem.objective() {
        Objective::MajoranaWeight => {
            search.sets();
            "majorana"
        }
        Objective::HamiltonianWeight(monomials) => {
            let order = Order::new(n, monomials, problem.has_vacuum_condition());
            search.assignments(&order);
            "hamiltonian"
        }
    };
    let witness = search.witness.as_ref().map(|members| {
        members
            .iter()
            .map(|&i| search.strings[i].pauli(n))
            .collect::<Vec<_>>()
    });
    if span.active() {
        span.attr("modes", n as u64);
        span.attr("objective", objective);
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

    /// The qubits holding `X`.
    fn xs(&self) -> u32 {
        self.packed & !(self.packed >> 8) & 0xff
    }

    /// The qubits holding `Y`.
    fn ys(&self) -> u32 {
        self.packed & (self.packed >> 8) & 0xff
    }

    fn pauli(&self, n: usize) -> PauliString {
        PauliString::from_masks(n, (self.packed & 0xff) as u128, (self.packed >> 8) as u128)
    }
}

/// Weight of the string whose packed masks are `packed`.
fn packed_weight(packed: u32) -> usize {
    ((packed | packed >> 8) & 0xff).count_ones() as usize
}

/// What an ordered `HamiltonianWeight` search needs beyond the candidate
/// table.
struct Order {
    /// Per Majorana index, the de-duplicated monomials whose largest index
    /// it is, each as a bitmask of its indices.
    closing: Vec<Vec<u32>>,
    /// Per Majorana index, the monomials still open once it is placed.
    open: Vec<usize>,
    vacuum: bool,
}

impl Order {
    fn new(n: usize, monomials: &[MajoranaMonomial], vacuum: bool) -> Order {
        let size = 2 * n;
        let unique: BTreeSet<&MajoranaMonomial> =
            monomials.iter().filter(|m| !m.is_identity()).collect();
        let mut closing = vec![Vec::new(); size];
        for m in unique {
            let last = *m.indices().last().expect("not the identity") as usize;
            assert!(
                last < size,
                "monomial index {last} out of range for {n} modes"
            );
            closing[last].push(m.indices().iter().fold(0, |mask, &i| mask | 1 << i));
        }
        let mut open = vec![0; size];
        let mut left: usize = closing.iter().map(Vec::len).sum();
        for (index, monomials) in closing.iter().enumerate() {
            left -= monomials.len();
            open[index] = left;
        }
        Order {
            closing,
            open,
            vacuum,
        }
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

    /// The stack of candidate bitsets of levels 1 … 2N − 1 (members
    /// placed), one after the other.
    fn levels(&self) -> Vec<u64> {
        vec![0u64; (2 * self.n - 1) * self.words]
    }

    /// The `MajoranaWeight` search over unordered sets.
    fn sets(&mut self) {
        let size = 2 * self.n;
        let mut levels = self.levels();
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
            self.extend_set(&mut levels, 1, w);
            self.path.pop();
        }
    }

    /// Extends the `depth` members on the path, of total `weight`, with the
    /// candidates in `levels[..words]`; the deeper levels follow them.
    fn extend_set(&mut self, levels: &mut [u64], depth: usize, weight: usize) {
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
                self.extend_set(deeper, depth + 1, weight);
                self.path.pop();
            }
        }
    }

    /// Whether `c` may be `γ_0`: its letters do not decrease over the
    /// qubits in the order `X, Y, Z, I` — with the vacuum condition off,
    /// it is `X^w I^{N−w}`.
    fn canonical_first(&self, c: &Candidate, vacuum: bool) -> bool {
        if !vacuum {
            return c.packed >> 8 == 0 && c.packed & (c.packed + 1) == 0;
        }
        let (x, z) = (c.packed & 0xff, c.packed >> 8);
        let letter = |q: usize| match (x >> q & 1, z >> q & 1) {
            (1, 0) => 0,
            (1, 1) => 1,
            (0, 1) => 2,
            _ => 3,
        };
        (1..self.n).all(|q| letter(q - 1) <= letter(q))
    }

    /// The weight the monomials closing at `index` add, with `γ_0 …
    /// γ_index` on the path.
    fn closing_weight(&self, order: &Order, index: usize) -> usize {
        (order.closing[index].iter())
            .map(|&members| {
                let mut product = 0;
                let mut bits = members;
                while bits != 0 {
                    product ^= self.strings[self.path[bits.trailing_zeros() as usize]].packed;
                    bits &= bits - 1;
                }
                packed_weight(product)
            })
            .sum()
    }

    /// The `HamiltonianWeight` search over ordered assignments.
    fn assignments(&mut self, order: &Order) {
        let mut levels = self.levels();
        for first in 0..self.strings.len() {
            let head = self.strings[first];
            if !self.canonical_first(&head, order.vacuum) {
                continue;
            }
            self.nodes += 1;
            self.path.push(first);
            let weight = self.closing_weight(order, 0);
            if weight + order.open[0] < self.best {
                let level = &mut levels[..self.words];
                level.fill(0);
                for (j, c) in self.strings.iter().enumerate() {
                    if head.anticommutes(c) {
                        level[j / 64] |= 1 << (j % 64);
                    }
                }
                self.assign(order, &mut levels, 1, weight);
            }
            self.path.pop();
        }
    }

    /// Places `γ_depth` after the `depth` strings on the path, of total
    /// `weight`, from the candidates in `levels[..words]`; the deeper
    /// levels follow them.
    fn assign(&mut self, order: &Order, levels: &mut [u64], depth: usize, weight: usize) {
        let size = 2 * self.n;
        let (parent, deeper) = levels.split_at_mut(self.words);
        let parent = &*parent;
        // The XY-pair condition: the qubits where `γ_{depth−1}` holds `X`,
        // one of which must hold `Y` here.
        let pair_xs =
            (order.vacuum && depth % 2 == 1).then(|| self.strings[self.path[depth - 1]].xs());
        for (word_index, &word) in parent.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                // Placing anything closes its monomials, each of weight at
                // least the one it was counted at while open.
                if weight + order.open[depth - 1] >= self.best {
                    return;
                }
                let i = word_index * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let candidate = self.strings[i];
                if pair_xs.is_some_and(|xs| xs & candidate.ys() == 0) {
                    continue;
                }
                self.nodes += 1;
                self.path.push(i);
                let weight = weight + self.closing_weight(order, depth);
                if weight + order.open[depth] < self.best {
                    if depth + 1 == size {
                        self.best = weight;
                        self.witness = Some(self.path.clone());
                    } else {
                        // The child's candidates: parent candidates that
                        // anticommute with `i`, enough for what is left.
                        let child = &mut deeper[..self.words];
                        let mut count = 0;
                        for (k, &p) in parent.iter().enumerate() {
                            let mut word = 0;
                            let mut p_bits = p;
                            while p_bits != 0 {
                                let j = k * 64 + p_bits.trailing_zeros() as usize;
                                p_bits &= p_bits - 1;
                                if candidate.anticommutes(&self.strings[j]) {
                                    word |= 1 << (j % 64);
                                }
                            }
                            child[k] = word;
                            count += word.count_ones() as usize;
                        }
                        if count >= size - depth - 1 {
                            self.assign(order, deeper, depth + 1, weight);
                        }
                    }
                }
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
