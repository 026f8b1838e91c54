//! Executable validity checks for Fermion-to-qubit encodings.
//!
//! The paper's constraints on the `2N` Majorana strings (Section 3.1):
//!
//! 1. **Anticommutativity** — all pairs anticommute (Eq. 3). This subsumes
//!    linear independence (Eq. 4), since anticommuting strings are distinct
//!    and Pauli strings form a basis.
//! 2. **Algebraic independence** (Eq. 5) — no subset multiplies to the
//!    identity, which over the symplectic GF(2) representation is exactly
//!    *linear independence of the bit rows*; checked here by Gaussian
//!    elimination in polynomial time (the SAT encoding needs `4^N` clauses
//!    for the same property — Section 4.1 is about dropping them).
//! 3. **Vacuum preservation** (Eq. 6, optional) — each mapped annihilation
//!    operator kills `|0…0⟩`. We check both the paper's sufficient XY-pair
//!    condition (Section 3.5) and the exact condition.

use crate::Encoding;
use mathkit::gf2::BitMatrix;
use mathkit::Complex64;
use pauli::{Pauli, PhasedString};

/// Outcome of [`validate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ValidationReport {
    /// Every pair of Majorana strings anticommutes.
    pub anticommuting: bool,
    /// The symplectic rows are GF(2)-linearly independent (no subset
    /// product equals identity).
    pub algebraically_independent: bool,
    /// All strings are Hermitian operators (real phases).
    pub hermitian: bool,
    /// Exact check: every `a_j = (M_{2j} + i·M_{2j+1})/2` annihilates
    /// `|0…0⟩`.
    pub vacuum_preserving: bool,
    /// The paper's SAT-encoded sufficient condition: each pair has an index
    /// `k` where `(M_{2j})_k = X` and `(M_{2j+1})_k = Y`.
    pub xy_pair_condition: bool,
}

impl ValidationReport {
    /// True when the mandatory constraints hold (vacuum preservation is
    /// optional in the paper and does not affect correctness/optimality).
    pub fn is_valid(&self) -> bool {
        self.anticommuting && self.algebraically_independent && self.hermitian
    }
}

/// Validates an encoding.
pub fn validate(encoding: &impl Encoding) -> ValidationReport {
    validate_strings(&encoding.majoranas())
}

/// Validates raw Majorana strings (the SAT pipeline's working form).
pub fn validate_strings(strings: &[PhasedString]) -> ValidationReport {
    ValidationReport {
        anticommuting: all_anticommute(strings),
        algebraically_independent: algebraically_independent(strings),
        hermitian: strings.iter().all(PhasedString::is_hermitian),
        vacuum_preserving: preserves_vacuum(strings),
        xy_pair_condition: xy_pair_condition(strings),
    }
}

/// Pairwise anticommutativity of all strings.
pub fn all_anticommute(strings: &[PhasedString]) -> bool {
    for (i, a) in strings.iter().enumerate() {
        for b in strings.iter().skip(i + 1) {
            if !a.string().anticommutes(b.string()) {
                return false;
            }
        }
    }
    true
}

/// Algebraic independence via GF(2) rank of the symplectic rows.
pub fn algebraically_independent(strings: &[PhasedString]) -> bool {
    if strings.is_empty() {
        return true;
    }
    let rows = strings
        .iter()
        .map(|s| s.string().symplectic_row())
        .collect();
    BitMatrix::from_rows(rows).rows_independent()
}

/// Amplitude and basis state of `P|0…0⟩` for a phased string: each `X`
/// flips a bit, each `Y` flips with a factor `i`, `Z`/`I` contribute
/// nothing on `|0⟩`.
fn action_on_vacuum(p: &PhasedString) -> (Complex64, u128) {
    let s = p.string();
    let y_count = (s.x_mask() & s.z_mask()).count_ones() as i64;
    let amp = p.coefficient() * Complex64::i_pow(y_count);
    (amp, s.x_mask())
}

/// Exact vacuum-preservation check: `(M_{2j} + i·M_{2j+1})|0…0⟩ = 0` for
/// every mode `j`.
pub fn preserves_vacuum(strings: &[PhasedString]) -> bool {
    strings.chunks_exact(2).all(|pair| {
        let (amp_even, state_even) = action_on_vacuum(&pair[0]);
        let (amp_odd, state_odd) = action_on_vacuum(&pair[1]);
        state_even == state_odd && (amp_even + Complex64::I * amp_odd).is_zero(1e-12)
    })
}

/// The paper's XY-pair condition (Section 3.5): for every mode there is an
/// index `k` where the even string has `X` and the odd string has `Y`.
pub fn xy_pair_condition(strings: &[PhasedString]) -> bool {
    strings.chunks_exact(2).all(|pair| {
        let even = pair[0].string();
        let odd = pair[1].string();
        (0..even.num_qubits()).any(|k| even.get(k) == Pauli::X && odd.get(k) == Pauli::Y)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::custom::MajoranaEncoding;
    use crate::linear::LinearEncoding;
    use crate::ternary_tree::TernaryTreeEncoding;
    use pauli::{PauliString, Phase};

    fn strings(list: &[&str]) -> Vec<PhasedString> {
        list.iter()
            .map(|s| PhasedString::from(s.parse::<PauliString>().unwrap()))
            .collect()
    }

    #[test]
    fn linear_encodings_fully_valid() {
        for n in 1..=6 {
            for enc in [
                LinearEncoding::jordan_wigner(n),
                LinearEncoding::parity(n),
                LinearEncoding::bravyi_kitaev(n),
            ] {
                let r = validate(&enc);
                assert!(r.is_valid(), "{} n={n}: {r:?}", Encoding::name(&enc));
                // Linear encodings preserve the vacuum by construction.
                assert!(r.vacuum_preserving, "{} n={n}: {r:?}", Encoding::name(&enc));
            }
        }
    }

    #[test]
    fn jw_satisfies_xy_pair_condition() {
        for n in 1..=5 {
            let r = validate(&LinearEncoding::jordan_wigner(n));
            assert!(r.xy_pair_condition);
        }
    }

    #[test]
    fn ternary_tree_is_valid_and_vacuum_paired() {
        let r = validate(&TernaryTreeEncoding::new(4));
        assert!(r.is_valid());
        // Each mode pairs one node's X and Y branches (Jiang et al.'s
        // vacuum-preserving pairing).
        assert!(r.vacuum_preserving);
    }

    #[test]
    fn detects_commuting_pair() {
        // XX and YY commute (two anticommuting sites).
        let enc = MajoranaEncoding::new("bad", strings(&["XX", "YY", "ZI", "IZ"])).unwrap();
        let r = validate(&enc);
        assert!(!r.anticommuting);
        assert!(!r.is_valid());
    }

    #[test]
    fn detects_algebraic_dependence() {
        // X·Y = iZ site-wise: {XI, YI, ZI, IZ}… product of first three on
        // qubit 1 is identity-up-to-phase ⇒ dependent.
        let enc = MajoranaEncoding::new("dep", strings(&["XI", "YI", "ZI", "IX"])).unwrap();
        let r = validate(&enc);
        assert!(!r.algebraically_independent);
        // They do pairwise anticommute on qubit 1 except… XI vs IX commute,
        // so also not anticommuting.
        assert!(!r.is_valid());
    }

    #[test]
    fn detects_non_hermitian() {
        let mut ss = strings(&["IX", "IY", "XZ", "YZ"]);
        ss[2] = ss[2].scaled(Phase::PlusI);
        let enc = MajoranaEncoding::new("phase", ss).unwrap();
        let r = validate(&enc);
        assert!(!r.hermitian);
        assert!(!r.is_valid());
    }

    #[test]
    fn vacuum_check_exact_vs_xy_condition() {
        // JW pair (X, Y) on one qubit: a = (X + iY)/2 = |0⟩⟨1| kills |0⟩. ✓
        let good = strings(&["X", "Y"]);
        assert!(preserves_vacuum(&good));
        assert!(xy_pair_condition(&good));
        // Swapped pair (Y, X): a = (Y + iX)/2 — does NOT kill |0⟩.
        let swapped = strings(&["Y", "X"]);
        assert!(!preserves_vacuum(&swapped));
        assert!(!xy_pair_condition(&swapped));
    }

    #[test]
    fn xy_condition_is_not_sufficient_in_general() {
        // Construct a pair with an XY index but unequal X∪Y supports:
        // even = XX, odd = YI. Index 1 (leftmost char) is an (X,Y) pair,
        // but the supports {0,1} vs {1} differ ⇒ vacuum violated.
        let pair = strings(&["XX", "YI"]);
        assert!(xy_pair_condition(&pair));
        assert!(!preserves_vacuum(&pair));
    }

    #[test]
    fn empty_set_trivially_independent() {
        assert!(algebraically_independent(&[]));
    }
}
