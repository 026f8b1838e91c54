//! Core SAT types: variables and literals.

use std::fmt;

/// A propositional variable, indexed from 0.
///
/// # Example
///
/// ```
/// use sat::Var;
///
/// let v = Var::new(3);
/// assert_eq!(v.index(), 3);
/// assert_eq!(v.positive().var(), v);
/// assert_eq!(v.negative().var(), v);
/// assert!(v.negative().is_negative());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Var(u32);

impl Var {
    /// Creates a variable with the given 0-based index.
    #[inline]
    pub fn new(index: usize) -> Var {
        debug_assert!(index < u32::MAX as usize / 2, "variable index too large");
        Var(index as u32)
    }

    /// The 0-based index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// The positive literal of this variable.
    #[inline]
    pub fn positive(self) -> Lit {
        Lit(self.0 << 1)
    }

    /// The negative literal of this variable.
    #[inline]
    pub fn negative(self) -> Lit {
        Lit(self.0 << 1 | 1)
    }

    /// The literal of this variable with the given polarity
    /// (`true` ↦ positive).
    #[inline]
    pub fn lit(self, polarity: bool) -> Lit {
        if polarity {
            self.positive()
        } else {
            self.negative()
        }
    }
}

impl fmt::Display for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "x{}", self.0)
    }
}

/// A literal: a variable or its negation, packed as `var·2 + negated`.
///
/// # Example
///
/// ```
/// use sat::{Lit, Var};
///
/// let l = Var::new(5).negative();
/// assert_eq!(!l, Var::new(5).positive());
/// assert_eq!(l.to_dimacs(), -6);
/// assert_eq!(Lit::from_dimacs(-6), l);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Lit(u32);

impl Lit {
    /// The underlying variable.
    #[inline]
    pub fn var(self) -> Var {
        Var(self.0 >> 1)
    }

    /// True when this is the negated literal.
    #[inline]
    pub fn is_negative(self) -> bool {
        self.0 & 1 == 1
    }

    /// True when this is the positive literal.
    #[inline]
    pub fn is_positive(self) -> bool {
        self.0 & 1 == 0
    }

    /// Packed code (`var·2 + negated`), usable as a dense array index.
    #[inline]
    pub fn code(self) -> usize {
        self.0 as usize
    }

    /// Reconstructs from [`code`](Self::code).
    #[inline]
    pub const fn from_code(code: usize) -> Lit {
        Lit(code as u32)
    }

    /// Converts to the DIMACS convention: 1-based, negative = negated.
    #[inline]
    pub fn to_dimacs(self) -> i64 {
        let v = (self.0 >> 1) as i64 + 1;
        if self.is_negative() {
            -v
        } else {
            v
        }
    }

    /// Parses the DIMACS convention.
    ///
    /// # Panics
    ///
    /// Panics if `value == 0` (DIMACS uses 0 as the clause terminator).
    #[inline]
    pub fn from_dimacs(value: i64) -> Lit {
        assert!(value != 0, "DIMACS literal cannot be zero");
        let var = Var::new(value.unsigned_abs() as usize - 1);
        var.lit(value > 0)
    }

    /// Evaluates the literal under an assignment of its variable.
    #[inline]
    pub fn eval(self, var_value: bool) -> bool {
        var_value ^ self.is_negative()
    }
}

impl std::ops::Not for Lit {
    type Output = Lit;
    #[inline]
    fn not(self) -> Lit {
        Lit(self.0 ^ 1)
    }
}

impl fmt::Display for Lit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_negative() {
            write!(f, "¬x{}", self.0 >> 1)
        } else {
            write!(f, "x{}", self.0 >> 1)
        }
    }
}

/// Three-valued assignment state used inside the solver.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) enum LBool {
    /// Assigned true.
    True,
    /// Assigned false.
    False,
    /// Not assigned.
    #[default]
    Undef,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn literal_packing_round_trips() {
        for i in [0usize, 1, 2, 63, 1000] {
            let v = Var::new(i);
            assert_eq!(v.positive().var(), v);
            assert_eq!(v.negative().var(), v);
            assert!(v.positive().is_positive());
            assert!(v.negative().is_negative());
            assert_eq!(Lit::from_code(v.positive().code()), v.positive());
        }
    }

    #[test]
    fn negation_is_involution() {
        let l = Var::new(9).positive();
        assert_eq!(!!l, l);
        assert_ne!(!l, l);
        assert_eq!((!l).var(), l.var());
    }

    #[test]
    fn dimacs_round_trip() {
        for d in [1i64, -1, 5, -42] {
            assert_eq!(Lit::from_dimacs(d).to_dimacs(), d);
        }
    }

    #[test]
    #[should_panic(expected = "cannot be zero")]
    fn dimacs_zero_panics() {
        let _ = Lit::from_dimacs(0);
    }

    #[test]
    fn eval_respects_polarity() {
        let v = Var::new(0);
        assert!(v.positive().eval(true));
        assert!(!v.positive().eval(false));
        assert!(v.negative().eval(false));
        assert!(!v.negative().eval(true));
    }

    #[test]
    fn polarity_helper() {
        let v = Var::new(4);
        assert_eq!(v.lit(true), v.positive());
        assert_eq!(v.lit(false), v.negative());
    }
}
