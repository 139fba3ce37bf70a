//! Prefix ("running") extrema of a curve.
//!
//! The heart of Theorem 3 of the paper: the exact SPP service function is
//! `S(t) = A(t) + min_{0 ≤ s ≤ t} ( c(s) − A(s) )` — an availability curve
//! plus a *running minimum*. Running extrema are computed here exactly on the
//! integer tick lattice: `running_min(f)(t) = min { f(s) : s ∈ ℤ, 0 ≤ s ≤ t }`.
//!
//! On the lattice this coincides with the continuous prefix-infimum for every
//! curve produced by the analysis, because those curves are linear between
//! integer breakpoints, so the infimum over a piece is attained at an integer
//! endpoint.

use crate::curve::push_normalized;
use crate::util::div_floor;
use crate::{Curve, Segment, Time};

impl Curve {
    /// Shared prefix-extremum kernel. The minimum logic runs verbatim in a
    /// sign-folded domain (`max = true` negates every sample on read and
    /// every output on write), which is exactly `−running_min(−f)` without
    /// materializing either negation.
    fn running_extremum(&self, max: bool) -> Curve {
        let sign: i64 = if max { -1 } else { 1 };
        let segs_in = self.segments();
        let mut segs = Vec::with_capacity(2 * segs_in.len());
        // Extremum (folded: minimum) over all lattice points strictly
        // before the current segment.
        let mut m = i64::MAX;
        for (i, s) in segs_in.iter().enumerate() {
            let next_start = segs_in.get(i + 1).map(|n| n.start);
            let (value, slope) = (sign * s.value, sign * s.slope);
            if slope >= 0 {
                // The piece is (folded) nondecreasing: its lattice minimum
                // is at its start, so the running min is flat across it.
                let new_m = m.min(value);
                push_normalized(&mut segs, Segment::new(s.start, sign * new_m, 0));
                m = new_m;
            } else {
                // Decreasing piece: the running min eventually follows it.
                if value <= m {
                    push_normalized(&mut segs, Segment::new(s.start, s.value, s.slope));
                } else {
                    push_normalized(&mut segs, Segment::new(s.start, sign * m, 0));
                    // First integer offset where the line dips below m:
                    // value − |slope|·off < m  ⇔  off > (value − m)/|slope|.
                    let off = div_floor(value - m, -slope) + 1;
                    let tc = s.start + Time(off);
                    if next_start.is_none_or(|t1| tc < t1) {
                        push_normalized(&mut segs, Segment::new(tc, s.eval(tc), s.slope));
                    }
                }
                if let Some(t1) = next_start {
                    // Update m with the last lattice point of this piece.
                    let last = t1 - Time(1);
                    if last >= s.start {
                        m = m.min(sign * s.eval(last));
                    }
                }
            }
        }
        Curve::from_pushed(segs)
    }

    /// The running minimum `t ↦ min_{0 ≤ s ≤ t} f(s)` over the lattice.
    #[must_use]
    pub fn running_min(&self) -> Curve {
        self.running_extremum(false)
    }

    /// The running maximum `t ↦ max_{0 ≤ s ≤ t} f(s)` over the lattice.
    #[must_use]
    pub fn running_max(&self) -> Curve {
        self.running_extremum(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference implementation by explicit lattice scan.
    fn brute_running_min(c: &Curve, horizon: i64) -> Vec<i64> {
        let mut best = i64::MAX;
        (0..=horizon)
            .map(|t| {
                best = best.min(c.eval(Time(t)));
                best
            })
            .collect()
    }

    fn check(c: &Curve, horizon: i64) {
        let r = c.running_min();
        let expect = brute_running_min(c, horizon);
        for t in 0..=horizon {
            assert_eq!(
                r.eval(Time(t)),
                expect[t as usize],
                "running_min mismatch at t={t} for {c}"
            );
        }
    }

    #[test]
    fn monotone_curve_is_fixed_point() {
        let c = Curve::from_segments(vec![
            Segment::new(Time(0), 1, 0),
            Segment::new(Time(4), 3, 1),
        ]);
        // running_min of a nondecreasing curve is the constant f(0).
        let r = c.running_min();
        assert_eq!(r, Curve::constant(1));
    }

    #[test]
    fn sawtooth() {
        // Rises then falls below previous minimum.
        let c = Curve::from_segments(vec![
            Segment::new(Time(0), 5, 1),   // 5,6,7
            Segment::new(Time(3), 8, -2),  // 8,6,4,2 on [3,7)
            Segment::new(Time(7), 10, 0),  // plateau above the min
            Segment::new(Time(9), -1, -1), // dives further
        ]);
        check(&c, 15);
    }

    #[test]
    fn decreasing_piece_starting_above_running_min() {
        // First piece establishes m = 0; second piece starts at 10 and
        // decreases with slope −3 (fractional crossing of m).
        let c = Curve::from_segments(vec![
            Segment::new(Time(0), 0, 0),
            Segment::new(Time(2), 10, -3),
        ]);
        check(&c, 10);
    }

    #[test]
    fn decreasing_final_piece_followed_forever() {
        let c = Curve::from_segments(vec![
            Segment::new(Time(0), 4, 0),
            Segment::new(Time(1), 9, -1),
        ]);
        check(&c, 20);
        // Far out, running min follows the line exactly.
        assert_eq!(c.running_min().eval(Time(100)), 9 - 99);
    }

    #[test]
    fn jumps_up_do_not_disturb_min() {
        let c = Curve::from_segments(vec![
            Segment::new(Time(0), 3, -1), // 3,2,1 on [0,3)
            Segment::new(Time(3), 50, 0), // big up-jump
        ]);
        check(&c, 8);
        // Last lattice point of the decreasing piece (t=2, value 1) must be
        // the permanent minimum.
        assert_eq!(c.running_min().eval(Time(8)), 1);
    }

    #[test]
    fn running_max_mirrors_running_min() {
        let c = Curve::from_segments(vec![
            Segment::new(Time(0), 0, 2),
            Segment::new(Time(4), 1, 0),
        ]);
        let r = c.running_max();
        let mut best = i64::MIN;
        for t in 0..=10 {
            best = best.max(c.eval(Time(t)));
            assert_eq!(r.eval(Time(t)), best, "t={t}");
        }
    }
}
