//! The vacuum-preserving ternary-tree encoding of Jiang, Kalev,
//! Mruczkiewicz & Neven, Quantum 4, 276 (2020), arXiv:1910.10746.
//!
//! Qubits are nodes of a complete ternary tree (array layout: node `k` has
//! child slots `3k+1`, `3k+2`, `3k+3`; a slot `≥ n` is a leaf slot). Every
//! node labels its three child slots `X`, `Y` and `Z`, and every
//! root-to-leaf-slot path is a Pauli string: the label of the branch taken
//! at each node on the path. A tree with `n` nodes has exactly `2n+1` leaf
//! slots, and the resulting strings pairwise anticommute (any two diverge
//! at exactly one node, where they carry different labels).
//!
//! * **Pairing.** Mode `k` is node `k`. Its even Majorana takes node `k`'s
//!   `X` branch and its odd Majorana the `Y` branch; each branch then
//!   continues down `Z`-labelled children to a leaf slot. The two strings
//!   agree above node `k`, carry `X`/`Y` there and only `Z` below, so
//!   `(γ_{2k} + iγ_{2k+1})/2` annihilates `|0…0⟩`: the encoding preserves
//!   the vacuum. The one path left over — the root's all-`Z` chain — is
//!   diagonal and dropped.
//! * **Spine choice.** At every node, `Z` labels the child slot whose
//!   subtree holds a deepest leaf slot (ties go to the lower slot index);
//!   `X` and `Y` take the other two slots in slot order. The dropped chain
//!   therefore ends at a deepest leaf slot.
//! * **Closed form.** Every leaf slot but the dropped one ends exactly one
//!   Majorana string, whose weight is the slot's depth (the number of nodes
//!   on its path), so the total Majorana weight is the sum of leaf-slot
//!   depths minus the deepest one: 2, 6, 11, 16, 22, 29, 36, 43 at
//!   N = 1…8. At N ≤ 5 that is the SAT-certified optimum of the paper's
//!   Hamiltonian-independent problem.
//!
//! Every string weighs at most the tree depth `⌈log₃(2n+1)⌉`, the
//! asymptotically optimal per-Majorana Pauli weight the paper cites as the
//! best Hamiltonian-independent construction.

use crate::Encoding;
use pauli::{Pauli, PauliString, PhasedString};

/// The balanced, vacuum-preserving ternary-tree encoding on `n` qubits.
///
/// # Example
///
/// ```
/// use encodings::{Encoding, TernaryTreeEncoding};
///
/// let tt = TernaryTreeEncoding::new(4);
/// let ms = tt.majoranas();
/// assert_eq!(ms.len(), 8);
/// // Depth of a balanced ternary tree with 4 nodes is 2, so no string
/// // weighs more than 2.
/// assert!(ms.iter().all(|m| m.weight() <= 2));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TernaryTreeEncoding {
    num_modes: usize,
}

impl TernaryTreeEncoding {
    /// Creates the encoding for `n` modes (= qubits).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize) -> TernaryTreeEncoding {
        assert!(n > 0, "need at least one mode");
        TernaryTreeEncoding { num_modes: n }
    }

    /// All `2n+1` root-to-leaf-slot strings: mode `k`'s `X` and `Y` branches
    /// for `k = 0, 1, …`, then the root's all-`Z` chain that
    /// [`majoranas`](Encoding::majoranas) drops.
    pub fn all_paths(&self) -> Vec<PauliString> {
        let labels = self.labels();
        let mut out = Vec::with_capacity(2 * self.num_modes + 1);
        for node in 0..self.num_modes {
            out.push(self.path(&labels, node, Pauli::X));
            out.push(self.path(&labels, node, Pauli::Y));
        }
        out.push(self.path(&labels, 0, Pauli::Z));
        out
    }

    /// `labels[k][s]`: the operator node `k` applies on paths through its
    /// child slot `s`.
    fn labels(&self) -> Vec<[Pauli; 3]> {
        let n = self.num_modes;
        // height[c]: nodes on the longest path from slot `c` down to a leaf
        // slot (0 at a leaf slot). A child's index exceeds its parent's, so
        // one reverse pass fills it.
        let mut height = vec![0usize; 3 * n + 1];
        let mut labels = vec![[Pauli::Z; 3]; n];
        for k in (0..n).rev() {
            let slots = [1, 2, 3].map(|s| height[3 * k + s]);
            // `max_by_key` keeps the last maximum; scanning high to low
            // gives Z to the lowest deepest slot.
            let z = (0..3).rev().max_by_key(|&s| slots[s]).unwrap();
            height[k] = 1 + slots[z];
            let mut xy = [Pauli::X, Pauli::Y].into_iter();
            for s in (0..3).filter(|&s| s != z) {
                labels[k][s] = xy.next().unwrap();
            }
        }
        labels
    }

    /// The string that leaves `node` through its `branch`-labelled slot and
    /// then follows `Z` labels down to a leaf slot.
    fn path(&self, labels: &[[Pauli; 3]], node: usize, branch: Pauli) -> PauliString {
        let mut s = PauliString::identity(self.num_modes);
        let mut child = node;
        while child > 0 {
            let parent = (child - 1) / 3;
            s.set(parent, labels[parent][(child - 1) % 3]);
            child = parent;
        }
        let (mut at, mut op) = (node, branch);
        loop {
            s.set(at, op);
            let slot = labels[at].iter().position(|&l| l == op).unwrap();
            at = 3 * at + 1 + slot;
            if at >= self.num_modes {
                return s;
            }
            op = Pauli::Z;
        }
    }
}

impl Encoding for TernaryTreeEncoding {
    fn num_modes(&self) -> usize {
        self.num_modes
    }

    fn majoranas(&self) -> Vec<PhasedString> {
        let mut paths = self.all_paths();
        paths.pop(); // drop the root's all-Z chain
        paths.into_iter().map(PhasedString::from).collect()
    }

    fn name(&self) -> &str {
        "ternary-tree"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::weight::majorana_weight;

    #[test]
    fn single_qubit_tree_is_xyz() {
        let tt = TernaryTreeEncoding::new(1);
        let paths: Vec<String> = tt.all_paths().iter().map(|p| p.to_string()).collect();
        assert_eq!(paths, ["X", "Y", "Z"]);
        let ms = tt.majoranas();
        assert_eq!(ms.len(), 2);
        assert_eq!(ms[0].string().to_string(), "X");
        assert_eq!(ms[1].string().to_string(), "Y");
    }

    #[test]
    fn path_count_is_2n_plus_1() {
        for n in 1..20 {
            let tt = TernaryTreeEncoding::new(n);
            assert_eq!(tt.all_paths().len(), 2 * n + 1, "n = {n}");
        }
    }

    #[test]
    fn all_paths_pairwise_anticommute() {
        for n in [1usize, 2, 4, 7, 13] {
            let paths = TernaryTreeEncoding::new(n).all_paths();
            for i in 0..paths.len() {
                for j in (i + 1)..paths.len() {
                    assert!(
                        paths[i].anticommutes(&paths[j]),
                        "n={n}: {} vs {}",
                        paths[i],
                        paths[j]
                    );
                }
            }
        }
    }

    #[test]
    fn last_path_is_z_spine() {
        let tt = TernaryTreeEncoding::new(5);
        let last = tt.all_paths().pop().unwrap();
        // All non-identity sites are Z.
        for (_, op) in last.support() {
            assert_eq!(op, Pauli::Z);
        }
    }

    #[test]
    fn weight_is_leaf_depths_minus_the_deepest() {
        let weight = |n| majorana_weight(&TernaryTreeEncoding::new(n).majoranas());
        for n in 1..=16 {
            // Nodes on the path to every node, then to every leaf slot,
            // from the array layout alone.
            let mut depth = vec![1usize; n];
            let mut leaves = Vec::new();
            for k in 0..n {
                if k > 0 {
                    depth[k] = depth[(k - 1) / 3] + 1;
                }
                leaves.extend((1..=3).filter(|s| 3 * k + s >= n).map(|_| depth[k]));
            }
            assert_eq!(leaves.len(), 2 * n + 1, "n = {n}");
            let closed = leaves.iter().sum::<usize>() - leaves.iter().max().unwrap();
            assert_eq!(weight(n), closed, "n = {n}");
        }
        let small: Vec<usize> = (1..=8).map(weight).collect();
        assert_eq!(small, [2, 6, 11, 16, 22, 29, 36, 43]);
    }

    #[test]
    fn depth_is_log3() {
        // With 13 nodes the complete ternary tree has depth 3.
        let tt = TernaryTreeEncoding::new(13);
        let max_w = tt.majoranas().iter().map(|m| m.weight()).max().unwrap();
        assert!(max_w <= 3, "max weight {max_w}");
        // Beats Jordan-Wigner's maximum weight (N) by a wide margin.
        assert!(max_w < 13);
    }

    #[test]
    fn weight_beats_bk_at_moderate_size() {
        use crate::linear::LinearEncoding;
        let n = 9;
        let tt: usize = TernaryTreeEncoding::new(n)
            .majoranas()
            .iter()
            .map(|m| m.weight())
            .sum();
        let bk: usize = LinearEncoding::bravyi_kitaev(n)
            .majoranas()
            .iter()
            .map(|m| m.weight())
            .sum();
        assert!(tt <= bk, "ternary tree {tt} vs BK {bk}");
    }
}
