//! Allocation budget of the warm analysis path.
//!
//! Run with `cargo test -p rta-bench --features alloc_stats --release
//! --test alloc_budget`. The tests below are alone in their binary on
//! purpose, and each holds [`SERIAL`] for its whole body: the counter is
//! process-global, so no other test may allocate concurrently while a
//! budget window is open.

#![cfg(feature = "alloc_stats")]

use std::sync::Mutex;

use rta_bench::alloc_stats::alloc_count;
use rta_core::sensitivity::Oracle;
use rta_core::{bounds_schedulable, AnalysisConfig, AnalysisSession};
use rta_curves::Time;
use rta_model::priority::{assign_priorities, PriorityPolicy};
use rta_model::{ArrivalPattern, SchedulerKind, SystemBuilder, TaskSystem};

/// Serializes the budget windows of the tests in this binary.
static SERIAL: Mutex<()> = Mutex::new(());

fn pipeline() -> TaskSystem {
    let mut b = SystemBuilder::new();
    let p1 = b.add_processor("P1", SchedulerKind::Spp);
    let p2 = b.add_processor("P2", SchedulerKind::Spp);
    b.add_job(
        "T1",
        Time(80),
        ArrivalPattern::Periodic {
            period: Time(40),
            offset: Time::ZERO,
        },
        vec![(p1, Time(4)), (p2, Time(6))],
    );
    b.add_job(
        "T2",
        Time(90),
        ArrivalPattern::Periodic {
            period: Time(45),
            offset: Time::ZERO,
        },
        vec![(p1, Time(5))],
    );
    let mut sys = b.build().unwrap();
    assign_priorities(&mut sys, PriorityPolicy::RelativeDeadlineMonotonic).unwrap();
    sys
}

/// After warm-up, a seeded loop analysis must do O(1) heap allocations —
/// the arena/workspace discipline of the fixpoint driver. The budget of 8
/// covers the report assembly (one jobs `Vec`, one hop-delay `Vec` per
/// job) plus the per-round peer-reference scratch; everything else comes
/// from the thread-local workspace and the carried seed.
#[test]
fn warm_seeded_analysis_stays_within_allocation_budget() {
    let _serial = SERIAL.lock().unwrap();
    let sys = pipeline();
    let base = AnalysisConfig::default();
    let (window, horizon) = base.resolve(&sys);
    // Pin the frame so the carried seed stays valid run over run.
    let cfg = AnalysisConfig {
        arrival_window: Some(window),
        horizon: Some(horizon),
        ..base
    };
    let mut session = AnalysisSession::pinned(sys, cfg);

    // Warm-up: builds the thread-local workspace and converges the seed.
    for _ in 0..3 {
        assert!(session.analyze_with_loops(16).unwrap().all_schedulable());
    }

    const RUNS: u64 = 64;
    let before = alloc_count();
    for _ in 0..RUNS {
        session.analyze_with_loops(16).unwrap();
    }
    let per_call = (alloc_count() - before) as f64 / RUNS as f64;
    assert!(
        per_call <= 8.0,
        "warm seeded analyze allocates {per_call} times per call (budget 8)"
    );

    // Memoized verdicts are cheaper still: answered from the verdict table
    // without running the driver at all.
    session
        .schedulable(Oracle::Loops { max_rounds: 16 })
        .unwrap();
    let before = alloc_count();
    for _ in 0..RUNS {
        session
            .schedulable(Oracle::Loops { max_rounds: 16 })
            .unwrap();
    }
    let per_probe = (alloc_count() - before) as f64 / RUNS as f64;
    assert!(
        per_probe <= 4.0,
        "memoized verdict allocates {per_probe} times per probe"
    );
}

/// A two-stage SPP → SPNP pipeline with a competing job on each processor.
fn spp_spnp_pipeline() -> TaskSystem {
    let mut b = SystemBuilder::new();
    let p1 = b.add_processor("P1", SchedulerKind::Spp);
    let p2 = b.add_processor("P2", SchedulerKind::Spnp);
    let periodic = |p: i64| ArrivalPattern::Periodic {
        period: Time(p),
        offset: Time::ZERO,
    };
    b.add_job(
        "T1",
        Time(120),
        periodic(40),
        vec![(p1, Time(4)), (p2, Time(6))],
    );
    b.add_job("T2", Time(90), periodic(45), vec![(p1, Time(5))]);
    b.add_job("T3", Time(150), periodic(50), vec![(p2, Time(7))]);
    let mut sys = b.build().unwrap();
    assign_priorities(&mut sys, PriorityPolicy::RelativeDeadlineMonotonic).unwrap();
    sys
}

/// After warm-up, the verdict-only bounds pass must do O(1) heap
/// allocations: every curve, table and peer slice comes from the
/// thread-local workspace, and no report is assembled. The system is
/// schedulable, so every call runs the whole pass (no early exit).
#[test]
fn warm_bounds_verdict_stays_within_allocation_budget() {
    let _serial = SERIAL.lock().unwrap();
    let sys = spp_spnp_pipeline();
    let cfg = AnalysisConfig::default();
    for _ in 0..3 {
        assert!(bounds_schedulable(&sys, &cfg).unwrap());
    }

    const RUNS: u64 = 64;
    let before = alloc_count();
    for _ in 0..RUNS {
        bounds_schedulable(&sys, &cfg).unwrap();
    }
    let per_call = (alloc_count() - before) as f64 / RUNS as f64;
    assert!(
        per_call <= 2.0,
        "warm bounds verdict allocates {per_call} times per call (budget 2)"
    );
}
