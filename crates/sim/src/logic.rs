//! Three-valued logic, packed 64 simulation slots per word.
//!
//! A [`W3`] holds one net's value in 64 independent simulation slots
//! ("machines"). Each slot is 0, 1, or X (unknown), encoded dual-rail: bit
//! `s` of [`W3::zero`] is set when slot `s` is known-0, bit `s` of
//! [`W3::one`] when it is known-1, and neither for X. The invariant
//! `zero & one == 0` holds for every value produced by this module.

use std::fmt;

use atspeed_circuit::GateKind;

/// A scalar 3-valued logic value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum V3 {
    /// Logic 0.
    Zero,
    /// Logic 1.
    One,
    /// Unknown.
    #[default]
    X,
}

impl V3 {
    /// Converts a boolean to a binary logic value.
    #[inline]
    pub fn from_bool(b: bool) -> Self {
        if b {
            V3::One
        } else {
            V3::Zero
        }
    }

    /// Returns the boolean value if binary, `None` for X.
    #[inline]
    pub fn to_bool(self) -> Option<bool> {
        match self {
            V3::Zero => Some(false),
            V3::One => Some(true),
            V3::X => None,
        }
    }

    /// Returns `true` for 0 or 1, `false` for X.
    #[inline]
    pub fn is_known(self) -> bool {
        !matches!(self, V3::X)
    }

    /// Logical complement; X stays X.
    #[inline]
    #[allow(clippy::should_implement_trait)] // domain name; `V3: !` would be odd
    pub fn not(self) -> Self {
        match self {
            V3::Zero => V3::One,
            V3::One => V3::Zero,
            V3::X => V3::X,
        }
    }

    /// 3-valued AND (0 dominates X).
    #[inline]
    pub fn and(self, rhs: V3) -> V3 {
        match (self, rhs) {
            (V3::Zero, _) | (_, V3::Zero) => V3::Zero,
            (V3::One, V3::One) => V3::One,
            _ => V3::X,
        }
    }

    /// 3-valued OR (1 dominates X).
    #[inline]
    pub fn or(self, rhs: V3) -> V3 {
        match (self, rhs) {
            (V3::One, _) | (_, V3::One) => V3::One,
            (V3::Zero, V3::Zero) => V3::Zero,
            _ => V3::X,
        }
    }

    /// 3-valued XOR (X absorbs).
    #[inline]
    pub fn xor(self, rhs: V3) -> V3 {
        match (self.to_bool(), rhs.to_bool()) {
            (Some(a), Some(b)) => V3::from_bool(a ^ b),
            _ => V3::X,
        }
    }

    /// Evaluates a gate of the given kind over scalar inputs.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `inputs` is empty.
    pub fn eval_gate(kind: GateKind, inputs: &[V3]) -> V3 {
        debug_assert!(!inputs.is_empty(), "gate with no inputs");
        let first = inputs[0];
        let base = match kind {
            GateKind::And | GateKind::Nand => inputs[1..].iter().fold(first, |acc, &v| acc.and(v)),
            GateKind::Or | GateKind::Nor => inputs[1..].iter().fold(first, |acc, &v| acc.or(v)),
            GateKind::Xor | GateKind::Xnor => inputs[1..].iter().fold(first, |acc, &v| acc.xor(v)),
            GateKind::Not | GateKind::Buf => first,
        };
        if kind.inverts() {
            base.not()
        } else {
            base
        }
    }
}

impl fmt::Display for V3 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            V3::Zero => "0",
            V3::One => "1",
            V3::X => "x",
        })
    }
}

impl From<bool> for V3 {
    fn from(b: bool) -> Self {
        V3::from_bool(b)
    }
}

/// 64 packed 3-valued slots (see the module docs for the encoding).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct W3 {
    /// Bit set ⇒ slot is known-0.
    pub zero: u64,
    /// Bit set ⇒ slot is known-1.
    pub one: u64,
}

impl W3 {
    /// All 64 slots X.
    pub const ALL_X: W3 = W3 { zero: 0, one: 0 };
    /// All 64 slots 0.
    pub const ALL_ZERO: W3 = W3 {
        zero: u64::MAX,
        one: 0,
    };
    /// All 64 slots 1.
    pub const ALL_ONE: W3 = W3 {
        zero: 0,
        one: u64::MAX,
    };

    /// Broadcasts a scalar value to all 64 slots.
    #[inline]
    pub fn broadcast(v: V3) -> Self {
        match v {
            V3::Zero => W3::ALL_ZERO,
            V3::One => W3::ALL_ONE,
            V3::X => W3::ALL_X,
        }
    }

    /// Reads one slot.
    #[inline]
    pub fn get(self, slot: usize) -> V3 {
        debug_assert!(slot < 64);
        let bit = 1u64 << slot;
        if self.one & bit != 0 {
            V3::One
        } else if self.zero & bit != 0 {
            V3::Zero
        } else {
            V3::X
        }
    }

    /// Writes one slot.
    #[inline]
    pub fn set(&mut self, slot: usize, v: V3) {
        debug_assert!(slot < 64);
        let bit = 1u64 << slot;
        self.zero &= !bit;
        self.one &= !bit;
        match v {
            V3::Zero => self.zero |= bit,
            V3::One => self.one |= bit,
            V3::X => {}
        }
    }

    /// Mask of slots holding a binary (non-X) value.
    #[inline]
    pub fn known(self) -> u64 {
        self.zero | self.one
    }

    /// Forces the slots in `mask` to the binary value `v`.
    #[inline]
    pub fn force(self, v: bool, mask: u64) -> Self {
        if v {
            W3 {
                zero: self.zero & !mask,
                one: self.one | mask,
            }
        } else {
            W3 {
                zero: self.zero | mask,
                one: self.one & !mask,
            }
        }
    }

    /// Mask of slots that differ from `other` where **both** are binary.
    #[inline]
    pub fn diff_known(self, other: W3) -> u64 {
        (self.zero & other.one) | (self.one & other.zero)
    }

    /// 3-valued AND.
    #[inline]
    pub fn and(self, rhs: W3) -> Self {
        W3 {
            zero: self.zero | rhs.zero,
            one: self.one & rhs.one,
        }
    }

    /// 3-valued OR.
    #[inline]
    pub fn or(self, rhs: W3) -> Self {
        W3 {
            zero: self.zero & rhs.zero,
            one: self.one | rhs.one,
        }
    }

    /// 3-valued XOR.
    #[inline]
    pub fn xor(self, rhs: W3) -> Self {
        W3 {
            zero: (self.zero & rhs.zero) | (self.one & rhs.one),
            one: (self.zero & rhs.one) | (self.one & rhs.zero),
        }
    }

    /// 3-valued complement.
    #[inline]
    #[allow(clippy::should_implement_trait)] // mirrors the scalar `V3::not`
    pub fn not(self) -> Self {
        W3 {
            zero: self.one,
            one: self.zero,
        }
    }

    /// Evaluates a gate of the given kind over its input words.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `inputs` is empty.
    #[inline]
    pub fn eval_gate(kind: GateKind, inputs: &[W3]) -> W3 {
        debug_assert!(!inputs.is_empty(), "gate with no inputs");
        let first = inputs[0];
        let base = match kind {
            GateKind::And | GateKind::Nand => inputs[1..].iter().fold(first, |acc, &w| acc.and(w)),
            GateKind::Or | GateKind::Nor => inputs[1..].iter().fold(first, |acc, &w| acc.or(w)),
            GateKind::Xor | GateKind::Xnor => inputs[1..].iter().fold(first, |acc, &w| acc.xor(w)),
            GateKind::Not | GateKind::Buf => first,
        };
        if kind.inverts() {
            base.not()
        } else {
            base
        }
    }

    /// Checks the dual-rail invariant (`zero & one == 0`).
    #[inline]
    pub fn is_consistent(self) -> bool {
        self.zero & self.one == 0
    }
}

impl fmt::Debug for W3 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "W3(zero={:#018x}, one={:#018x})", self.zero, self.one)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_not_and_known() {
        assert_eq!(V3::Zero.not(), V3::One);
        assert_eq!(V3::X.not(), V3::X);
        assert!(V3::One.is_known());
        assert!(!V3::X.is_known());
        assert_eq!(V3::from_bool(true), V3::One);
        assert_eq!(V3::One.to_bool(), Some(true));
        assert_eq!(V3::X.to_bool(), None);
    }

    #[test]
    fn get_set_round_trip() {
        let mut w = W3::ALL_X;
        w.set(0, V3::One);
        w.set(5, V3::Zero);
        w.set(63, V3::One);
        assert_eq!(w.get(0), V3::One);
        assert_eq!(w.get(5), V3::Zero);
        assert_eq!(w.get(63), V3::One);
        assert_eq!(w.get(1), V3::X);
        w.set(0, V3::X);
        assert_eq!(w.get(0), V3::X);
        assert!(w.is_consistent());
    }

    /// Exhaustive check of the packed ops against scalar 3-valued truth
    /// tables, one (a,b) pair per slot.
    #[test]
    fn packed_ops_match_scalar_semantics() {
        let vals = [V3::Zero, V3::One, V3::X];
        let mut a = W3::ALL_X;
        let mut b = W3::ALL_X;
        let mut cases = Vec::new();
        for (i, &va) in vals.iter().enumerate() {
            for (j, &vb) in vals.iter().enumerate() {
                let slot = i * 3 + j;
                a.set(slot, va);
                b.set(slot, vb);
                cases.push((slot, va, vb));
            }
        }
        let scalar_and = |x: V3, y: V3| match (x, y) {
            (V3::Zero, _) | (_, V3::Zero) => V3::Zero,
            (V3::One, V3::One) => V3::One,
            _ => V3::X,
        };
        let scalar_or = |x: V3, y: V3| match (x, y) {
            (V3::One, _) | (_, V3::One) => V3::One,
            (V3::Zero, V3::Zero) => V3::Zero,
            _ => V3::X,
        };
        let scalar_xor = |x: V3, y: V3| match (x.to_bool(), y.to_bool()) {
            (Some(p), Some(q)) => V3::from_bool(p ^ q),
            _ => V3::X,
        };
        for &(slot, va, vb) in &cases {
            assert_eq!(a.and(b).get(slot), scalar_and(va, vb), "AND {va}{vb}");
            assert_eq!(a.or(b).get(slot), scalar_or(va, vb), "OR {va}{vb}");
            assert_eq!(a.xor(b).get(slot), scalar_xor(va, vb), "XOR {va}{vb}");
            assert_eq!(a.not().get(slot), va.not(), "NOT {va}");
        }
        assert!(a.and(b).is_consistent());
        assert!(a.xor(b).is_consistent());
    }

    #[test]
    fn eval_gate_all_kinds() {
        let t = W3::ALL_ONE;
        let f = W3::ALL_ZERO;
        assert_eq!(W3::eval_gate(GateKind::And, &[t, f]), f);
        assert_eq!(W3::eval_gate(GateKind::Nand, &[t, f]), t);
        assert_eq!(W3::eval_gate(GateKind::Or, &[t, f]), t);
        assert_eq!(W3::eval_gate(GateKind::Nor, &[t, f]), f);
        assert_eq!(W3::eval_gate(GateKind::Xor, &[t, f, t]), f);
        assert_eq!(W3::eval_gate(GateKind::Xnor, &[t, f]), f);
        assert_eq!(W3::eval_gate(GateKind::Not, &[t]), f);
        assert_eq!(W3::eval_gate(GateKind::Buf, &[f]), f);
    }

    #[test]
    fn controlling_value_dominates_x() {
        let x = W3::ALL_X;
        assert_eq!(
            W3::eval_gate(GateKind::And, &[W3::ALL_ZERO, x]),
            W3::ALL_ZERO
        );
        assert_eq!(W3::eval_gate(GateKind::Or, &[W3::ALL_ONE, x]), W3::ALL_ONE);
        assert_eq!(W3::eval_gate(GateKind::Xor, &[W3::ALL_ONE, x]), W3::ALL_X);
        assert_eq!(
            W3::eval_gate(GateKind::Nand, &[W3::ALL_ZERO, x]),
            W3::ALL_ONE
        );
    }

    #[test]
    fn force_overrides_slots() {
        let w = W3::ALL_X.force(true, 0b1010);
        assert_eq!(w.get(1), V3::One);
        assert_eq!(w.get(3), V3::One);
        assert_eq!(w.get(0), V3::X);
        let w2 = w.force(false, 0b0010);
        assert_eq!(w2.get(1), V3::Zero);
        assert!(w2.is_consistent());
    }

    #[test]
    fn diff_known_ignores_x() {
        let mut a = W3::ALL_X;
        let mut b = W3::ALL_X;
        a.set(0, V3::One);
        b.set(0, V3::Zero); // differ, both known
        a.set(1, V3::One);
        b.set(1, V3::One); // equal
        a.set(2, V3::One); // b unknown
        b.set(3, V3::Zero); // a unknown
        assert_eq!(a.diff_known(b), 0b0001);
    }

    #[test]
    fn broadcast_matches_constants() {
        assert_eq!(W3::broadcast(V3::Zero), W3::ALL_ZERO);
        assert_eq!(W3::broadcast(V3::One), W3::ALL_ONE);
        assert_eq!(W3::broadcast(V3::X), W3::ALL_X);
    }
}
