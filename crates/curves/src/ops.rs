//! Pointwise curve operations: linear combination, minimum, maximum.
//!
//! All operations are exact **on the integer tick lattice**. Pointwise
//! min/max of two linear pieces may cross at a fractional instant; the
//! breakpoint of the result is placed at the first integer tick past the
//! crossing, which leaves the value at every integer tick exact (see the
//! crate-level discussion of the lattice exactness model).

use crate::curve::push_normalized;
use crate::util::div_floor;
use crate::{Curve, Segment, Time};

/// Walk two segment lists over their merged breakpoints in one streaming
/// O(n + m) pass, yielding at each interval start the active segment of
/// each operand. No intermediate breakpoint list is materialized; each
/// binary operation writes only its output. Taking raw slices (not
/// `&Curve`) lets the clamp kernels pass a stack-allocated constant
/// segment as one operand.
fn zip_pieces<'a>(
    sa: &'a [Segment],
    sb: &'a [Segment],
) -> impl Iterator<Item = (Time, Option<Time>, &'a Segment, &'a Segment)> {
    let mut ia = 0usize;
    let mut ib = 0usize;
    let mut cur = Some(Time::ZERO);
    std::iter::from_fn(move || {
        let t = cur?;
        while ia + 1 < sa.len() && sa[ia + 1].start <= t {
            ia += 1;
        }
        while ib + 1 < sb.len() && sb[ib + 1].start <= t {
            ib += 1;
        }
        let next = match (sa.get(ia + 1), sb.get(ib + 1)) {
            (Some(x), Some(y)) => Some(x.start.min(y.start)),
            (Some(x), None) => Some(x.start),
            (None, Some(y)) => Some(y.start),
            (None, None) => None,
        };
        cur = next;
        Some((t, next, &sa[ia], &sb[ib]))
    })
}

/// The pointwise linear combination `ca·a + cb·b`.
#[must_use]
pub fn linear_combine(a: &Curve, ca: i64, b: &Curve, cb: i64) -> Curve {
    let mut segs = Vec::with_capacity(a.num_segments() + b.num_segments());
    for (t, _next, sa, sb) in zip_pieces(a.segments(), b.segments()) {
        push_normalized(
            &mut segs,
            Segment::new(
                t,
                ca * sa.eval(t) + cb * sb.eval(t),
                ca * sa.slope + cb * sb.slope,
            ),
        );
    }
    Curve::from_pushed(segs)
}

/// Shared min/max kernel. With `max = false` this is the lattice-exact
/// minimum logic verbatim; `max = true` flips the sign of every comparison,
/// which computes `−min(−a, −b)` without materializing either negation —
/// the crossing offsets and tie-breaks come out identical because
/// `div_floor` sees the same (negated-twice) operands.
fn pointwise_extremum(sa: &[Segment], sb: &[Segment], max: bool) -> Curve {
    let sign: i64 = if max { -1 } else { 1 };
    let mut segs = Vec::with_capacity(2 * (sa.len() + sb.len()));
    for (t0, next, pa, pb) in zip_pieces(sa, sb) {
        let e0 = sign * (pa.eval(t0) - pb.eval(t0)); // ±(a − b) at interval start
        let es = sign * (pa.slope - pb.slope);
        // The currently-extremal piece, then a possible single switch.
        let (first, second, take_a) = if e0 <= 0 {
            (pa, pb, true)
        } else {
            (pb, pa, false)
        };
        push_normalized(&mut segs, Segment::new(t0, first.eval(t0), first.slope));
        // Does the sign of e = ±(a − b) flip inside this interval?
        let cross_off = if take_a && es > 0 {
            // first integer offset with e0 + es·off > 0
            Some(div_floor(-e0, es) + 1)
        } else if !take_a && es < 0 {
            // first integer offset with e0 + es·off < 0  ⇔  (−es)·off > e0
            Some(div_floor(e0, -es) + 1)
        } else {
            None
        };
        if let Some(off) = cross_off {
            debug_assert!(off >= 1);
            let tc = t0 + Time(off);
            if next.is_none_or(|t1| tc < t1) {
                push_normalized(&mut segs, Segment::new(tc, second.eval(tc), second.slope));
            }
        }
    }
    Curve::from_pushed(segs)
}

/// Pointwise minimum, exact at every integer tick.
#[must_use]
pub fn pointwise_min(a: &Curve, b: &Curve) -> Curve {
    pointwise_extremum(a.segments(), b.segments(), false)
}

/// Pointwise maximum, exact at every integer tick.
#[must_use]
pub fn pointwise_max(a: &Curve, b: &Curve) -> Curve {
    pointwise_extremum(a.segments(), b.segments(), true)
}

impl Curve {
    /// Pointwise sum `self + rhs`.
    #[must_use]
    pub fn add(&self, rhs: &Curve) -> Curve {
        linear_combine(self, 1, rhs, 1)
    }

    /// Pointwise difference `self − rhs`.
    #[must_use]
    pub fn sub(&self, rhs: &Curve) -> Curve {
        linear_combine(self, 1, rhs, -1)
    }

    /// Rewrite every segment's `(value, slope)` pair, keeping the starts.
    fn map_pieces(&self, f: impl Fn(i64, i64) -> (i64, i64)) -> Curve {
        let mut segs = Vec::with_capacity(self.num_segments());
        for s in self.segments() {
            let (value, slope) = f(s.value, s.slope);
            push_normalized(&mut segs, Segment::new(s.start, value, slope));
        }
        Curve::from_pushed(segs)
    }

    /// Pointwise negation.
    #[must_use]
    pub fn neg(&self) -> Curve {
        self.map_pieces(|v, m| (-v, -m))
    }

    /// Pointwise scaling `k·self` — e.g. the workload function
    /// `c(t) = f_arr(t) · τ` of Definition 3.
    #[must_use]
    pub fn scale(&self, k: i64) -> Curve {
        self.map_pieces(|v, m| (k * v, k * m))
    }

    /// Pointwise constant offset `self + v`.
    #[must_use]
    pub fn add_const(&self, v: i64) -> Curve {
        self.map_pieces(|value, m| (value + v, m))
    }

    /// Pointwise minimum with another curve.
    #[must_use]
    pub fn min_with(&self, rhs: &Curve) -> Curve {
        pointwise_min(self, rhs)
    }

    /// Pointwise maximum with another curve.
    #[must_use]
    pub fn max_with(&self, rhs: &Curve) -> Curve {
        pointwise_max(self, rhs)
    }

    /// Clamp below: `max(self, v)` — e.g. forcing a service lower bound to be
    /// nonnegative. The constant operand is a stack segment, never a heap
    /// curve.
    #[must_use]
    pub fn clamp_min(&self, v: i64) -> Curve {
        pointwise_extremum(self.segments(), &[Segment::new(Time::ZERO, v, 0)], true)
    }

    /// Clamp above: `min(self, v)`.
    #[must_use]
    pub fn clamp_max(&self, v: i64) -> Curve {
        pointwise_extremum(self.segments(), &[Segment::new(Time::ZERO, v, 0)], false)
    }
}

// Operator sugar: `&a + &b`, `&a - &b`, `-&a` delegate to the exact
// pointwise operations above.
impl std::ops::Add for &Curve {
    type Output = Curve;
    fn add(self, rhs: &Curve) -> Curve {
        Curve::add(self, rhs)
    }
}

impl std::ops::Sub for &Curve {
    type Output = Curve;
    fn sub(self, rhs: &Curve) -> Curve {
        Curve::sub(self, rhs)
    }
}

impl std::ops::Neg for &Curve {
    type Output = Curve;
    fn neg(self) -> Curve {
        Curve::neg(self)
    }
}

impl std::ops::Mul<i64> for &Curve {
    type Output = Curve;
    fn mul(self, k: i64) -> Curve {
        self.scale(k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn steps() -> Curve {
        Curve::from_segments(vec![
            Segment::new(Time(0), 0, 0),
            Segment::new(Time(3), 2, 0),
            Segment::new(Time(6), 5, 1),
        ])
    }

    #[test]
    fn add_and_sub_are_pointwise() {
        let a = steps();
        let b = Curve::identity();
        let sum = a.add(&b);
        let diff = a.sub(&b);
        for t in 0..12 {
            let t = Time(t);
            assert_eq!(sum.eval(t), a.eval(t) + b.eval(t));
            assert_eq!(diff.eval(t), a.eval(t) - b.eval(t));
        }
    }

    #[test]
    fn scale_and_const_offset() {
        let a = steps();
        let s = a.scale(3).add_const(7);
        for t in 0..12 {
            assert_eq!(s.eval(Time(t)), 3 * a.eval(Time(t)) + 7);
        }
    }

    #[test]
    fn neg_roundtrip() {
        let a = steps();
        assert_eq!(a.neg().neg(), a);
    }

    #[test]
    fn min_of_crossing_lines() {
        // f = t, g = 10 − t: crossing at t = 5 exactly.
        let f = Curve::identity();
        let g = Curve::affine(10, -1);
        let m = pointwise_min(&f, &g);
        for t in 0..=12 {
            assert_eq!(m.eval(Time(t)), t.min(10 - t), "t={t}");
        }
    }

    #[test]
    fn min_with_fractional_crossing_is_lattice_exact() {
        // f = 2t, g = 7 (crossing at t = 3.5).
        let f = Curve::affine(0, 2);
        let g = Curve::constant(7);
        let m = pointwise_min(&f, &g);
        for t in 0..=10 {
            assert_eq!(m.eval(Time(t)), (2 * t).min(7), "t={t}");
        }
    }

    #[test]
    fn min_and_max_against_staircase() {
        let a = steps();
        let b = Curve::affine(1, 0);
        let mn = a.min_with(&b);
        let mx = a.max_with(&b);
        for t in 0..15 {
            let t = Time(t);
            assert_eq!(mn.eval(t), a.eval(t).min(1), "min t={t}");
            assert_eq!(mx.eval(t), a.eval(t).max(1), "max t={t}");
        }
    }

    #[test]
    fn clamp_bounds() {
        let a = Curve::affine(-5, 1); // −5, −4, …
        let c = a.clamp_min(0);
        for t in 0..12 {
            assert_eq!(c.eval(Time(t)), (t - 5).max(0));
        }
        let d = a.clamp_max(2);
        for t in 0..12 {
            assert_eq!(d.eval(Time(t)), (t - 5).min(2));
        }
    }

    #[test]
    fn operator_sugar_matches_methods() {
        let a = steps();
        let b = Curve::identity();
        assert_eq!(&a + &b, a.add(&b));
        assert_eq!(&a - &b, a.sub(&b));
        assert_eq!(-&a, a.neg());
        assert_eq!(&a * 3, a.scale(3));
    }

    #[test]
    fn min_handles_multiple_intervals() {
        // Staircase vs slope-1 line starting above then catching up repeatedly.
        let a = steps();
        let b = Curve::affine(4, 0);
        let m = pointwise_min(&a, &b);
        for t in 0..20 {
            let t = Time(t);
            assert_eq!(m.eval(t), a.eval(t).min(4));
        }
    }
}
