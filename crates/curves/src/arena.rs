//! Buffer reuse for the structure-of-arrays kernels.
//!
//! The SoA kernels ([`crate::soa`]) write their results into
//! caller-provided [`SoaCurve`]s, reusing the column buffers already
//! allocated there. Chains of them (the Theorem 5/6 bounds, the
//! decomposed convolution's tree fold) also need temporaries, and
//! [`Scratch`] keeps those alive across calls: a free-list of SoA curve
//! buffers plus the piece staging area of the convex slope merge. After a
//! warm-up pass over representative inputs, a take/compute/put cycle
//! performs no heap allocation.
//!
//! One `Scratch` per worker thread is the intended granularity (the
//! analysis drivers in `rta-core` keep one in thread-local storage); the
//! type is not `Sync`, so sharing one across threads is a compile error,
//! not a data race.
//!
//! Reusing buffers can change *where* a result lives, never what it is:
//! `tests/soa_kernels.rs` pins every SoA kernel, run on dirty reused
//! buffers, segment for segment against its allocating [`crate::Curve`]
//! counterpart.
//!
//! A kernel that panics mid-write (e.g. a debug assertion) can leave the
//! output curve holding a partial, invariant-violating column set; the
//! output must be treated as poisoned and not reused after a caught panic.

use crate::{SoaCurve, Time};

/// Reusable scratch space for the SoA kernel chains: a free-list of
/// curve buffers plus the typed staging buffer of the convex convolution.
///
/// Kernels borrow it mutably for the duration of a call and leave all
/// buffers parked but capacity-warm.
#[derive(Default)]
pub struct Scratch {
    /// Piece staging for the convex slope-merge: `(length, slope)` with
    /// `None` marking the unbounded tail piece.
    pub(crate) pieces: Vec<(Option<Time>, i64)>,
    /// Free-list of structure-of-arrays curve buffers.
    soa_pool: Vec<SoaCurve>,
}

impl Scratch {
    /// A fresh, empty scratch space.
    pub fn new() -> Scratch {
        Scratch::default()
    }

    /// Borrow a temporary SoA curve buffer. The returned curve is the zero
    /// curve; its columns keep whatever capacity they had when the buffer
    /// was put back, so warm takes allocate nothing.
    pub fn take_soa(&mut self) -> SoaCurve {
        match self.soa_pool.pop() {
            Some(mut c) => {
                c.set_affine(0, 0);
                c
            }
            None => SoaCurve::zero(),
        }
    }

    /// Return a temporary SoA curve buffer to the arena.
    pub fn put_soa(&mut self, c: SoaCurve) {
        self.soa_pool.push(c);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scratch_round_trips_capacity() {
        let mut s = Scratch::new();
        let mut c = s.take_soa();
        assert_eq!(c, SoaCurve::zero());
        // Grow the buffer, return it, take it back: still the zero curve.
        c.copy_from_curve(&crate::Curve::from_event_times(
            &(0..64).map(Time).collect::<Vec<_>>(),
        ));
        s.put_soa(c);
        assert_eq!(s.take_soa(), SoaCurve::zero());
    }
}
