//! Reduction operators: the analogue of `MPI_Op`.
//!
//! Built-in operators ([`Op`]) cover the module needs (`Sum` for Module 2's
//! checksum and Module 5's weighted means, `Max`/`MinLoc`-style queries for
//! Module 3's bucket loads). Custom operators are closures passed to
//! `reduce_with`/`allreduce_with`, the analogue of `MPI_Op_create`.

use crate::datatype::Loc;

/// Built-in reduction operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum Op {
    /// Elementwise sum.
    Sum,
    /// Elementwise product.
    Prod,
    /// Elementwise minimum.
    Min,
    /// Elementwise maximum.
    Max,
}

/// Element types that support the built-in operators.
pub trait Reducible: Copy {
    /// Combine two elements under `op`. Must be associative and (for the
    /// tree algorithms used by the collectives) commutative.
    fn reduce(op: Op, a: Self, b: Self) -> Self;

    /// Is `op` defined for this element type? Collectives check this on
    /// every rank *before* communicating, so an undefined combination
    /// surfaces as a typed [`Error::InvalidOp`](crate::Error::InvalidOp)
    /// on all ranks instead of a panic inside one rank thread that
    /// strands its peers until the world deadlocks.
    fn supports(_op: Op) -> bool {
        true
    }

    /// Does `op` on this type give *bit-identical* results under any
    /// re-association of the fold? Integer wrapping arithmetic, logical
    /// ops, and min/max are exactly reassociative; floating-point `Sum`
    /// and `Prod` are not (rounding depends on evaluation order). The
    /// collectives consult this before switching to an algorithm whose
    /// combine tree differs from the flat binomial one, so every
    /// [`CollAlgo`](crate::tune::CollAlgo) produces byte-identical
    /// results.
    fn exact_reassoc(_op: Op) -> bool {
        true
    }
}

macro_rules! impl_reducible_int {
    ($($t:ty),*) => {$(
        impl Reducible for $t {
            fn reduce(op: Op, a: Self, b: Self) -> Self {
                match op {
                    Op::Sum => a.wrapping_add(b),
                    Op::Prod => a.wrapping_mul(b),
                    Op::Min => a.min(b),
                    Op::Max => a.max(b),
                }
            }
        }
    )*};
}

impl_reducible_int!(u8, i8, u16, i16, u32, i32, u64, i64);

macro_rules! impl_reducible_float {
    ($($t:ty),*) => {$(
        impl Reducible for $t {
            fn reduce(op: Op, a: Self, b: Self) -> Self {
                match op {
                    Op::Sum => a + b,
                    Op::Prod => a * b,
                    Op::Min => a.min(b),
                    Op::Max => a.max(b),
                }
            }

            /// Float add/mul round per-operation, so the result depends
            /// on association; only min/max are order-insensitive.
            fn exact_reassoc(op: Op) -> bool {
                matches!(op, Op::Min | Op::Max)
            }
        }
    )*};
}

impl_reducible_float!(f32, f64);

impl Reducible for bool {
    fn reduce(op: Op, a: Self, b: Self) -> Self {
        match op {
            // Logical OR / AND; Min/Max coincide with AND/OR on booleans.
            Op::Sum => a || b,
            Op::Prod => a && b,
            Op::Min => a && b,
            Op::Max => a || b,
        }
    }
}

impl Reducible for Loc {
    /// Only `Min`/`Max` (MPI's `MINLOC`/`MAXLOC`) are defined; the
    /// collectives reject `Sum`/`Prod` before communicating.
    fn supports(op: Op) -> bool {
        matches!(op, Op::Min | Op::Max)
    }

    /// `Min`/`Max` give MPI's `MINLOC`/`MAXLOC`: compare values, carry the
    /// index of the winner; ties resolve to the smaller index, as MPI does.
    fn reduce(op: Op, a: Self, b: Self) -> Self {
        match op {
            Op::Min => match a.value.partial_cmp(&b.value) {
                Some(std::cmp::Ordering::Less) => a,
                Some(std::cmp::Ordering::Greater) => b,
                _ => {
                    if a.index <= b.index {
                        a
                    } else {
                        b
                    }
                }
            },
            Op::Max => match a.value.partial_cmp(&b.value) {
                Some(std::cmp::Ordering::Greater) => a,
                Some(std::cmp::Ordering::Less) => b,
                _ => {
                    if a.index <= b.index {
                        a
                    } else {
                        b
                    }
                }
            },
            Op::Sum | Op::Prod => {
                panic!("Sum/Prod are not defined for Loc; use Min (MINLOC) or Max (MAXLOC)")
            }
        }
    }
}

/// Elementwise in-place fold: `acc[i] = combine(acc[i], other[i])`.
///
/// # Panics
/// Panics on length mismatch — a collective contract violation.
pub fn fold_into<T, F: Fn(&T, &T) -> T>(acc: &mut [T], other: &[T], combine: &F) {
    assert_eq!(
        acc.len(),
        other.len(),
        "reduction buffers must have equal length"
    );
    for (a, b) in acc.iter_mut().zip(other) {
        *a = combine(a, b);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numeric_ops() {
        assert_eq!(i64::reduce(Op::Sum, 3, 4), 7);
        assert_eq!(i64::reduce(Op::Prod, 3, 4), 12);
        assert_eq!(i64::reduce(Op::Min, 3, 4), 3);
        assert_eq!(i64::reduce(Op::Max, 3, 4), 4);
        assert_eq!(f64::reduce(Op::Sum, 0.5, 0.25), 0.75);
        assert_eq!(u8::reduce(Op::Sum, 255, 1), 0, "integer sum wraps");
    }

    #[test]
    fn bool_ops_are_logical() {
        assert!(bool::reduce(Op::Max, false, true));
        assert!(!bool::reduce(Op::Min, false, true));
    }

    #[test]
    fn minloc_carries_index() {
        let a = Loc::new(2.0, 4);
        let b = Loc::new(1.0, 9);
        assert_eq!(Loc::reduce(Op::Min, a, b).index, 9);
        assert_eq!(Loc::reduce(Op::Max, a, b).index, 4);
    }

    #[test]
    fn minloc_ties_prefer_lower_index() {
        let a = Loc::new(1.0, 7);
        let b = Loc::new(1.0, 2);
        assert_eq!(Loc::reduce(Op::Min, a, b).index, 2);
        assert_eq!(Loc::reduce(Op::Max, a, b).index, 2);
    }

    #[test]
    #[should_panic(expected = "not defined for Loc")]
    fn loc_sum_is_rejected() {
        let _ = Loc::reduce(Op::Sum, Loc::new(1.0, 0), Loc::new(2.0, 1));
    }

    #[test]
    fn supports_reflects_operator_domains() {
        assert!(i64::supports(Op::Sum) && f64::supports(Op::Prod));
        assert!(Loc::supports(Op::Min) && Loc::supports(Op::Max));
        assert!(!Loc::supports(Op::Sum) && !Loc::supports(Op::Prod));
    }

    #[test]
    fn exact_reassoc_guards_float_rounding() {
        assert!(i64::exact_reassoc(Op::Sum) && u8::exact_reassoc(Op::Prod));
        assert!(bool::exact_reassoc(Op::Sum) && Loc::exact_reassoc(Op::Min));
        assert!(!f64::exact_reassoc(Op::Sum) && !f32::exact_reassoc(Op::Prod));
        assert!(f64::exact_reassoc(Op::Min) && f32::exact_reassoc(Op::Max));
    }

    #[test]
    fn fold_into_combines_elementwise() {
        let mut acc = vec![1.0, 2.0, 3.0];
        fold_into(&mut acc, &[10.0, 20.0, 30.0], &|a, b| a + b);
        assert_eq!(acc, vec![11.0, 22.0, 33.0]);
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn fold_into_rejects_mismatch() {
        let mut acc = vec![1.0];
        fold_into(&mut acc, &[1.0, 2.0], &|a, b| a + b);
    }
}
