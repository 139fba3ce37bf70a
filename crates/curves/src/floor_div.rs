//! Departure extraction: `f_dep(t) = ⌊S(t)/τ⌋` (Theorem 2).
//!
//! Given the (nondecreasing) service function `S` of a subjob and its
//! execution time `τ`, the departure function counts completed instances: the
//! `m`-th instance completes the moment the subjob has accumulated `m·τ`
//! ticks of service. The result is a counting step curve whose jumps sit at
//! the exact instants `S` crosses multiples of `τ`.

use crate::curve::push_normalized;
use crate::util::{div_ceil, div_floor};
use crate::{Curve, CurveError, Segment, Time};

impl Curve {
    /// Compute `t ↦ ⌊self(t)/τ⌋` on `[0, horizon]` as a counting curve.
    ///
    /// `self` must be nondecreasing and nonnegative at 0 (a service
    /// function); `τ ≥ 1`. Beyond `horizon` the result is frozen at its
    /// horizon value (departures past the analysis horizon are not
    /// enumerated — callers treat instances outside the horizon as
    /// unresolved).
    pub fn floor_div(&self, tau: i64, horizon: Time) -> Result<Curve, CurveError> {
        assert!(tau >= 1, "execution time must be at least one tick");
        self.require_nondecreasing()?;
        let v0 = self.segments()[0].value;
        if v0 < 0 {
            return Err(CurveError::NegativeAtZero { value: v0 });
        }

        let segs = self.segments();
        let mut out_segs = Vec::with_capacity(segs.len() + 4);
        let mut count = div_floor(v0, tau);
        // The counting values are strictly increasing, so direct pushes
        // produce the same normalized staircase `step_from_points` would.
        push_normalized(&mut out_segs, Segment::new(Time::ZERO, count, 0));
        for (i, s) in segs.iter().enumerate() {
            if s.start > horizon {
                break;
            }
            // Count at the piece start (captures jumps at breakpoints).
            let c0 = div_floor(s.value, tau);
            if c0 > count {
                push_normalized(&mut out_segs, Segment::new(s.start, c0, 0));
                count = c0;
            }
            if s.slope > 0 {
                // Enumerate crossings of successive multiples of τ inside
                // the piece, clipped to the horizon.
                let end = segs
                    .get(i + 1)
                    .map(|n| n.start - Time(1))
                    .unwrap_or(Time::MAX)
                    .min(horizon);
                loop {
                    let level = (count + 1) * tau;
                    let off = div_ceil(level - s.value, s.slope);
                    let t = s.start + Time(off);
                    if t > end {
                        break;
                    }
                    // S may cross several multiples within one tick when the
                    // slope exceeds τ.
                    let c = div_floor(s.eval(t), tau);
                    debug_assert!(c > count);
                    push_normalized(&mut out_segs, Segment::new(t, c, 0));
                    count = c;
                }
            }
        }
        Ok(Curve::from_pushed(out_segs))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Segment;

    fn check(s: &Curve, tau: i64, horizon: i64) {
        let d = s
            .floor_div(tau, Time(horizon))
            .expect("valid service curve");
        for t in 0..=horizon {
            assert_eq!(
                d.eval(Time(t)),
                s.eval(Time(t)).div_euclid(tau),
                "t={t} tau={tau} for {s}"
            );
        }
    }

    #[test]
    fn pure_rate_service() {
        // S(t) = t, τ = 4: one departure every 4 ticks.
        check(&Curve::identity(), 4, 30);
        let d = Curve::identity().floor_div(4, Time(30)).unwrap();
        assert_eq!(d.event_time(1), Some(Time(4)));
        assert_eq!(d.event_time(3), Some(Time(12)));
    }

    #[test]
    fn gated_service() {
        // Idle until 5, then serves at rate 1 with a pause.
        let s = Curve::from_segments(vec![
            Segment::new(Time(0), 0, 0),
            Segment::new(Time(5), 0, 1),
            Segment::new(Time(11), 6, 0),
            Segment::new(Time(20), 6, 1),
        ]);
        check(&s, 3, 40);
    }

    #[test]
    fn jump_crossing_multiple_levels() {
        // Upper-bound service curves can jump by more than τ (Theorem 9 adds
        // +τ), crossing several completion levels at one instant.
        let s = Curve::from_segments(vec![
            Segment::new(Time(0), 0, 0),
            Segment::new(Time(3), 10, 0),
        ]);
        let d = s.floor_div(3, Time(10)).unwrap();
        assert_eq!(d.eval(Time(2)), 0);
        assert_eq!(d.eval(Time(3)), 3);
        check(&s, 3, 10);
    }

    #[test]
    fn steep_slope_crosses_multiple_levels_per_tick() {
        let s = Curve::affine(0, 7);
        check(&s, 2, 12);
    }

    #[test]
    fn horizon_freezes_departures() {
        let d = Curve::identity().floor_div(5, Time(12)).unwrap();
        assert_eq!(d.eval(Time(12)), 2);
        // Frozen past the horizon even though S keeps rising.
        assert_eq!(d.eval(Time(1000)), 2);
    }

    #[test]
    fn nonzero_initial_service() {
        let s = Curve::affine(9, 1);
        check(&s, 4, 20);
    }

    #[test]
    fn rejects_decreasing_service() {
        assert!(Curve::affine(5, -1).floor_div(2, Time(10)).is_err());
        assert!(matches!(
            Curve::affine(-5, 1).floor_div(2, Time(10)),
            Err(CurveError::NegativeAtZero { value: -5 })
        ));
    }
}
