//! Minimal arrival envelopes from concrete traces.
//!
//! The paper analyzes *concrete* arrival functions; classical network
//! calculus (its refs [20, 21]) abstracts traces into time-invariant
//! envelopes `α(Δ) = max #events in any window of length Δ`. This module
//! extracts the **minimal** such envelope from a finite trace — the bridge
//! between the two worlds: any shifted replay of the trace is bounded by
//! `α`, and `α` can be fed to the [`crate::bounds`] machinery (e.g. fitted
//! by a token bucket) for compositional reasoning.
//!
//! ```
//! use rta_curves::envelope::arrival_envelope;
//! use rta_curves::Time;
//!
//! // A burst of three, then a straggler.
//! let env = arrival_envelope(&[Time(0), Time(1), Time(2), Time(50)]);
//! assert_eq!(env.eval(Time(0)), 1);  // no simultaneous arrivals
//! assert_eq!(env.eval(Time(2)), 3);  // the burst fits a 2-tick window
//! assert_eq!(env.eval(Time(50)), 4); // everything fits the full span
//! ```

use crate::{Curve, Segment, Time};

/// The minimal sliding-window arrival envelope of a sorted trace:
/// `α(Δ) = max_t #{ i : t ≤ times[i] ≤ t + Δ }`, returned as a staircase
/// curve over window length `Δ` (so `α(0)` is the largest simultaneous
/// burst).
///
/// `O(n²)` over the trace length — envelopes are extracted once per trace,
/// not in analysis inner loops.
#[must_use]
pub fn arrival_envelope(times: &[Time]) -> Curve {
    let n = times.len();
    if n == 0 {
        return Curve::zero();
    }
    debug_assert!(
        times.windows(2).all(|w| w[0] <= w[1]),
        "trace must be sorted"
    );
    // w_min(c) = smallest window containing c+1 consecutive events; it is
    // nondecreasing in c, and α(Δ) = max { c+1 : w_min(c) ≤ Δ } is the
    // staircase through the points (w_min(c), c+1), keeping the largest
    // count per distinct window length. w_min(0) = 0, so the first segment
    // sits at Δ = 0 and counts strictly increase — the pushes are already
    // a normalized staircase.
    let mut segs: Vec<Segment> = Vec::with_capacity(n + 1);
    for c in 0..n {
        let w_min = (0..n - c)
            .map(|i| times[i + c] - times[i])
            .min()
            .expect("non-empty range");
        let count = c as i64 + 1;
        match segs.last_mut() {
            Some(last) if last.start == w_min => last.value = count,
            _ => segs.push(Segment::new(w_min, count, 0)),
        }
    }
    Curve::from_pushed(segs)
}

/// Check that `envelope` dominates every window of the trace:
/// `#{ i : t ≤ times[i] ≤ t + Δ } ≤ envelope(Δ)` for all `t` in the trace
/// and all `Δ`. Used in tests and debug assertions.
pub fn is_envelope_of(envelope: &Curve, times: &[Time]) -> bool {
    let n = times.len();
    for i in 0..n {
        for j in i..n {
            let window = times[j] - times[i];
            let count = (j - i + 1) as i64;
            if envelope.eval(window) < count {
                return false;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn periodic_trace_envelope() {
        let times: Vec<Time> = (0..6).map(|i| Time(i * 10)).collect();
        let a = arrival_envelope(&times);
        // α(Δ) = 1 + ⌊Δ/10⌋ up to the trace length.
        assert_eq!(a.eval(Time(0)), 1);
        assert_eq!(a.eval(Time(9)), 1);
        assert_eq!(a.eval(Time(10)), 2);
        assert_eq!(a.eval(Time(35)), 4);
        assert_eq!(a.eval(Time(50)), 6);
        assert_eq!(a.eval(Time(500)), 6);
        assert!(is_envelope_of(&a, &times));
    }

    #[test]
    fn bursty_trace_envelope() {
        // Burst of 3 at t=0..2, then a lone event at 50.
        let times = vec![Time(0), Time(1), Time(2), Time(50)];
        let a = arrival_envelope(&times);
        assert_eq!(a.eval(Time(0)), 1);
        assert_eq!(a.eval(Time(1)), 2);
        assert_eq!(a.eval(Time(2)), 3);
        assert_eq!(a.eval(Time(49)), 3);
        assert_eq!(a.eval(Time(50)), 4); // the full span [0, 50]
        assert!(is_envelope_of(&a, &times));
    }

    #[test]
    fn simultaneous_events() {
        let times = vec![Time(5), Time(5), Time(5)];
        let a = arrival_envelope(&times);
        assert_eq!(a.eval(Time(0)), 3);
        assert!(is_envelope_of(&a, &times));
    }

    #[test]
    fn empty_and_singleton() {
        assert_eq!(arrival_envelope(&[]), Curve::zero());
        let a = arrival_envelope(&[Time(7)]);
        assert_eq!(a.eval(Time(0)), 1);
        assert_eq!(a.eval(Time(1000)), 1);
    }

    #[test]
    fn envelope_is_minimal() {
        // For every jump (Δ, c) of the envelope there is a real window of
        // length Δ holding c events — no slack anywhere.
        let times = vec![Time(0), Time(3), Time(4), Time(11), Time(12), Time(30)];
        let a = arrival_envelope(&times);
        for (delta, _) in a.jumps() {
            let c = a.eval(delta);
            let exists = (0..times.len()).any(|i| {
                (i + c as usize - 1) < times.len() && times[i + c as usize - 1] - times[i] <= delta
            });
            assert!(exists, "no witness window for ({delta}, {c})");
        }
        assert!(is_envelope_of(&a, &times));
    }

    #[test]
    fn token_bucket_fits_envelope() {
        // The envelope composes with the (σ,ρ) machinery.
        let times: Vec<Time> = vec![Time(0), Time(1), Time(2), Time(20), Time(40)];
        let a = arrival_envelope(&times);
        let tb = crate::bounds::TokenBucket::enclosing(&a, 1, Time(60));
        for d in 0..=60 {
            assert!(tb.curve().eval(Time(d)) >= a.eval(Time(d)), "Δ={d}");
        }
    }
}
