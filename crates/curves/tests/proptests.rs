//! Property-based tests for the curve algebra.
//!
//! Every operation is checked against a brute-force lattice evaluation on a
//! bounded horizon: the segment-walking algorithms must agree with the
//! definitionally-obvious per-tick computation at every integer tick.

use proptest::prelude::*;
use rta_curves::ops::{linear_combine, pointwise_max, pointwise_min};
use rta_curves::{Curve, Segment, Time};

const HORIZON: i64 = 60;

/// Strategy: an arbitrary PWL curve with small integer breakpoints, values
/// and slopes (possibly negative, possibly with jumps).
fn arb_curve() -> impl Strategy<Value = Curve> {
    (
        -20i64..20,
        -3i64..4,
        prop::collection::vec((1i64..12, -20i64..20, -3i64..4), 0..6),
    )
        .prop_map(|(v0, k0, rest)| {
            let mut segs = vec![Segment::new(Time(0), v0, k0)];
            let mut t = 0i64;
            for (gap, v, k) in rest {
                t += gap;
                segs.push(Segment::new(Time(t), v, k));
            }
            Curve::from_segments(segs)
        })
}

/// Strategy: a nondecreasing curve with nonnegative values (a cumulative
/// function such as an arrival, workload or service curve).
fn arb_cumulative() -> impl Strategy<Value = Curve> {
    (
        0i64..10,
        0i64..3,
        prop::collection::vec((1i64..10, 0i64..8, 0i64..3), 0..6),
    )
        .prop_map(|(v0, k0, rest)| {
            let mut segs = vec![Segment::new(Time(0), v0, k0)];
            let mut t = 0i64;
            for (gap, jump, k) in rest {
                t += gap;
                let prev = *segs.last().unwrap();
                let base = prev.eval(Time(t));
                segs.push(Segment::new(Time(t), base + jump, k));
            }
            Curve::from_segments(segs)
        })
}

/// Strategy: a nondecreasing curve with slopes in {0, 1} — the shape of all
/// service and utilization functions. (Unbounded slope-≥2 tails have no
/// finite inverse representation and are rejected by `inverse_curve`.)
fn arb_service_shape() -> impl Strategy<Value = Curve> {
    (
        0i64..10,
        0i64..2,
        prop::collection::vec((1i64..10, 0i64..8, 0i64..2), 0..6),
    )
        .prop_map(|(v0, k0, rest)| {
            let mut segs = vec![Segment::new(Time(0), v0, k0)];
            let mut t = 0i64;
            for (gap, jump, k) in rest {
                t += gap;
                let prev = *segs.last().unwrap();
                let base = prev.eval(Time(t));
                segs.push(Segment::new(Time(t), base + jump, k));
            }
            Curve::from_segments(segs)
        })
}

fn lattice(c: &Curve) -> Vec<i64> {
    (0..=HORIZON).map(|t| c.eval(Time(t))).collect()
}

proptest! {
    #[test]
    fn linear_combine_matches_lattice(a in arb_curve(), b in arb_curve(),
                                      ca in -3i64..4, cb in -3i64..4) {
        let r = linear_combine(&a, ca, &b, cb);
        let (la, lb) = (lattice(&a), lattice(&b));
        for t in 0..=HORIZON as usize {
            prop_assert_eq!(r.eval(Time(t as i64)), ca * la[t] + cb * lb[t]);
        }
    }

    #[test]
    fn min_max_match_lattice(a in arb_curve(), b in arb_curve()) {
        let mn = pointwise_min(&a, &b);
        let mx = pointwise_max(&a, &b);
        let (la, lb) = (lattice(&a), lattice(&b));
        for t in 0..=HORIZON as usize {
            prop_assert_eq!(mn.eval(Time(t as i64)), la[t].min(lb[t]), "min at t={}", t);
            prop_assert_eq!(mx.eval(Time(t as i64)), la[t].max(lb[t]), "max at t={}", t);
        }
    }

    #[test]
    fn running_min_matches_lattice(a in arb_curve()) {
        let r = a.running_min();
        let mut best = i64::MAX;
        for (t, v) in lattice(&a).into_iter().enumerate() {
            best = best.min(v);
            prop_assert_eq!(r.eval(Time(t as i64)), best, "t={}", t);
        }
    }

    #[test]
    fn running_min_is_idempotent(a in arb_curve()) {
        let r = a.running_min();
        let rr = r.running_min();
        for t in 0..=HORIZON {
            prop_assert_eq!(r.eval(Time(t)), rr.eval(Time(t)));
        }
    }

    #[test]
    fn galois_connection(c in arb_cumulative(), y in 0i64..40) {
        // g(t) ≥ y  ⇔  g⁻¹(y) ≤ t  for nondecreasing g.
        let inv = c.inverse_at(y);
        for t in 0..=HORIZON {
            let reached = c.eval(Time(t)) >= y;
            let inv_le = inv.is_some_and(|i| i <= Time(t));
            prop_assert_eq!(reached, inv_le, "y={} t={}", y, t);
        }
    }

    #[test]
    fn inverse_curve_agrees_with_inverse_at(c in arb_service_shape()) {
        let sup = c.sup_on(Time(HORIZON));
        let inv = c.inverse_curve().unwrap();
        for y in 0..=sup {
            let expect = c.inverse_at(y).unwrap();
            prop_assert_eq!(Time(inv.eval(Time(y))), expect, "y={}", y);
        }
    }

    #[test]
    fn compose_matches_lattice(f in arb_curve(), g in arb_cumulative()) {
        let h = rta_curves::compose::compose(&f, &g).unwrap();
        for t in 0..=HORIZON {
            let expect = f.eval(Time(g.eval(Time(t))));
            prop_assert_eq!(h.eval(Time(t)), expect, "t={}", t);
        }
    }

    #[test]
    fn floor_div_matches_lattice(c in arb_cumulative(), tau in 1i64..7) {
        let d = c.floor_div(tau, Time(HORIZON)).unwrap();
        for t in 0..=HORIZON {
            prop_assert_eq!(
                d.eval(Time(t)),
                c.eval(Time(t)).div_euclid(tau),
                "t={} tau={}", t, tau
            );
        }
    }

    #[test]
    fn shift_right_matches_lattice(c in arb_curve(), d in 0i64..15, fill in -5i64..5) {
        let s = c.shift_right(Time(d), fill);
        for t in 0..=HORIZON {
            let expect = if t < d { fill } else { c.eval(Time(t - d)) };
            prop_assert_eq!(s.eval(Time(t)), expect, "t={}", t);
        }
    }

    #[test]
    fn truncate_agrees_before_horizon(c in arb_curve(), h in 0i64..HORIZON) {
        let tr = c.truncate_after(Time(h));
        for t in 0..=h {
            prop_assert_eq!(tr.eval(Time(t)), c.eval(Time(t)));
        }
    }

    #[test]
    fn mask_before_matches_lattice(c in arb_curve(), t0 in 0i64..30, fill in -5i64..5) {
        let m = c.mask_before(Time(t0), fill);
        for t in 0..=HORIZON {
            let expect = if t < t0 { fill } else { c.eval(Time(t)) };
            prop_assert_eq!(m.eval(Time(t)), expect, "t={}", t);
        }
    }

    #[test]
    fn monotone_ops_preserve_monotonicity(a in arb_cumulative(), b in arb_cumulative()) {
        prop_assert!(a.add(&b).is_nondecreasing());
        prop_assert!(pointwise_min(&a, &b).is_nondecreasing());
        prop_assert!(pointwise_max(&a, &b).is_nondecreasing());
        prop_assert!(a.running_min().neg().is_nondecreasing());
        prop_assert!(a.running_max().is_nondecreasing());
    }

    #[test]
    fn arrival_envelope_dominates_all_windows(
        times in prop::collection::vec(0i64..50, 0..10)
    ) {
        let mut ts: Vec<Time> = times.into_iter().map(Time).collect();
        ts.sort();
        let env = rta_curves::envelope::arrival_envelope(&ts);
        prop_assert!(rta_curves::envelope::is_envelope_of(&env, &ts));
        prop_assert!(env.is_nondecreasing());
        // Total count is reached at the full span.
        if let (Some(&first), Some(&last)) = (ts.first(), ts.last()) {
            prop_assert_eq!(env.eval(last - first), ts.len() as i64);
        }
    }

    #[test]
    fn eval_left_and_jumps_consistent(c in arb_curve()) {
        for t in 1..=HORIZON {
            let t = Time(t);
            prop_assert_eq!(c.eval(t) - c.eval_left(t), c.jump_at(t));
        }
        // Continuous curves report no jumps anywhere.
        if c.is_continuous() {
            for t in 1..=HORIZON {
                prop_assert_eq!(c.jump_at(Time(t)), 0);
            }
        }
    }

    #[test]
    fn counting_roundtrip(times in prop::collection::vec(0i64..40, 0..12)) {
        let mut ts: Vec<Time> = times.into_iter().map(Time).collect();
        ts.sort();
        let c = Curve::from_event_times(&ts);
        prop_assert_eq!(c.to_event_times(), ts.clone());
        // Event times are the pseudo-inverse at each count.
        for (i, &t) in ts.iter().enumerate() {
            let m = i as i64 + 1;
            let et = c.event_time(m).unwrap();
            prop_assert!(et <= t);
            prop_assert_eq!(c.eval(et), c.eval(t).min(c.eval(et).max(m)));
        }
    }

    #[test]
    fn convex_convolution_matches_oracle(
        lens in prop::collection::vec(1i64..8, 0..4),
        slopes_base in 0i64..3,
        lens2 in prop::collection::vec(1i64..8, 0..4),
        slopes_base2 in 0i64..3,
        v0 in 0i64..5,
        w0 in 0i64..5,
    ) {
        // Build convex curves: increasing slopes piece by piece.
        fn build(v0: i64, base: i64, lens: &[i64]) -> Curve {
            let mut segs = vec![Segment::new(Time(0), v0, base)];
            let mut t = 0i64;
            let mut v = v0;
            let mut k = base;
            for &len in lens {
                t += len;
                v += k * len;
                k += 1;
                segs.push(Segment::new(Time(t), v, k));
            }
            Curve::from_segments(segs)
        }
        let f = build(v0, slopes_base, &lens);
        let g = build(w0, slopes_base2, &lens2);
        prop_assert!(f.is_convex() && g.is_convex());
        let fast = rta_curves::convolution::convolve_convex(&f, &g);
        let slow = rta_curves::convolution::min_plus_convolve_lattice(&f, &g, Time(40));
        for t in 0..=40 {
            prop_assert_eq!(fast.eval(Time(t)), slow.eval(Time(t)), "t={}", t);
        }
    }
}

/// Degenerate inputs the strategies cannot hit deterministically (the zero
/// curve, constants, empty traces, a bounded slope-2 piece) and the error
/// paths of the fallible kernels.
#[test]
fn degenerate_and_error_inputs() {
    use rta_curves::convolution::convolve;
    use rta_curves::envelope::arrival_envelope;
    use rta_curves::CurveError;

    let zero = Curve::zero();
    let konst = Curve::constant(-4);
    assert_eq!(
        zero.shift_right(Time(5), 3),
        Curve::step_from_points(3, &[(Time(5), 0)])
    );
    assert_eq!(zero.add(&konst), konst);
    assert_eq!(konst.running_min(), konst);
    assert_eq!(zero.floor_div(3, Time(20)).unwrap(), zero);
    assert_eq!(zero.inverse_curve().unwrap(), zero);
    assert_eq!(arrival_envelope(&[]), zero);
    assert_eq!(convolve(&zero, &zero, Time(10)), zero);

    // Slope ≥ 2 on a bounded piece: the staircase expansion.
    let stair = Curve::from_segments(vec![
        Segment::new(Time(0), 0, 2),
        Segment::new(Time(4), 8, 1),
    ]);
    let inv = stair.inverse_curve().unwrap();
    for y in 0..=12 {
        assert_eq!(Some(Time(inv.eval(Time(y)))), stair.inverse_at(y), "y={y}");
    }

    let decreasing = Curve::affine(3, -1);
    let negative = Curve::affine(-2, 1);
    let unbounded_steep = Curve::affine(0, 3);
    assert!(matches!(
        decreasing.floor_div(2, Time(20)),
        Err(CurveError::NotMonotone { .. })
    ));
    assert_eq!(
        negative.floor_div(2, Time(20)),
        Err(CurveError::NegativeAtZero { value: -2 })
    );
    assert!(matches!(
        decreasing.inverse_curve(),
        Err(CurveError::NotMonotone { .. })
    ));
    assert_eq!(
        negative.inverse_curve(),
        Err(CurveError::NegativeAtZero { value: -2 })
    );
    assert_eq!(
        unbounded_steep.inverse_curve(),
        Err(CurveError::UnsupportedSlope { slope: 3 })
    );
}
