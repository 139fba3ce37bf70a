//! Driver-level oracle for the structure-of-arrays fixpoint: for every
//! scheduling policy and both workload shapes from the paper's evaluation
//! (periodic job-shop, Eq. 25; bursty, Eq. 27), at the 2-stage and the
//! 8-stage (48-subjob) shop sizes, and on the cyclic figure-eight system,
//! `analyze_with_loops` — whose rounds run entirely on SoA curve buffers
//! in a reused per-thread workspace — must produce a report
//! **bit-identical** to `analyze_with_loops_reference`, the sequential,
//! allocating AoS Jacobi iteration in `reference/mod.rs`.
//!
//! `crates/curves/tests/soa_kernels.rs` pins each SoA kernel to its AoS
//! oracle; this test pins the composition end to end, through ingest,
//! fixpoint rounds, warm starts and report assembly.

mod reference;

use bursty_rta::analysis::depgraph::{evaluation_order, SubjobIndex};
use bursty_rta::analysis::fixpoint::{analyze_with_loops, analyze_with_loops_seeded};
use bursty_rta::analysis::{AnalysisConfig, AnalysisError, AnalysisSession};
use bursty_rta::curves::Time;
use bursty_rta::model::distributions::Dist;
use bursty_rta::model::jobshop::{generate, ShopArrivals, ShopConfig};
use bursty_rta::model::priority::{assign_priorities, PriorityPolicy};
use bursty_rta::model::{ArrivalPattern, SchedulerKind, SubjobRef, SystemBuilder, TaskSystem};
use rand::rngs::StdRng;
use rand::SeedableRng;
use reference::analyze_with_loops_reference;

const POLICIES: [SchedulerKind; 4] = [
    SchedulerKind::Spp,
    SchedulerKind::Spnp,
    SchedulerKind::Fcfs,
    SchedulerKind::Iwrr,
];

fn shop(scheduler: SchedulerKind, stages: usize, arrivals: ShopArrivals, seed: u64) -> TaskSystem {
    let cfg = ShopConfig {
        stages,
        procs_per_stage: 2,
        n_jobs: 6,
        scheduler,
        utilization: 0.6,
        arrivals,
        x_min: 0.2,
        ticks_per_unit: 8,
    };
    let mut sys = generate(&cfg, &mut StdRng::seed_from_u64(seed)).unwrap();
    assign_priorities(&mut sys, PriorityPolicy::RelativeDeadlineMonotonic).unwrap();
    sys
}

fn periodic(stages: usize) -> ShopArrivals {
    ShopArrivals::Periodic {
        deadline_factor: 2.0 * stages as f64,
    }
}

fn bursty() -> ShopArrivals {
    ShopArrivals::Bursty {
        deadline: Dist::Exponential { mean: 6.0 },
    }
}

/// The two paths must agree on the whole report: window, horizon, every
/// hop delay, every end-to-end bound. `BoundsReport` has no `Eq` impl, so
/// the comparison goes through `Debug`, which prints every field.
fn assert_reports_identical(sys: &TaskSystem, rounds: usize, label: &str) {
    let cfg = AnalysisConfig::default();
    let soa = analyze_with_loops(sys, &cfg, rounds).unwrap();
    let aos = analyze_with_loops_reference(sys, &cfg, rounds).unwrap();
    assert_eq!(format!("{soa:?}"), format!("{aos:?}"), "{label}");
}

#[test]
fn soa_pipeline_matches_aos_reference_on_periodic_shops() {
    for (i, kind) in POLICIES.into_iter().enumerate() {
        let sys = shop(kind, 2, periodic(2), 42 + i as u64);
        assert_reports_identical(&sys, 8, &format!("{kind:?} periodic"));
    }
}

#[test]
fn soa_pipeline_matches_aos_reference_on_bursty_shops() {
    for (i, kind) in POLICIES.into_iter().enumerate() {
        let sys = shop(kind, 2, bursty(), 1042 + i as u64);
        assert_reports_identical(&sys, 8, &format!("{kind:?} bursty"));
    }
}

/// 8-stage shops with 48 subjobs: deep higher-priority chains, so the
/// rounds run long enough for the staleness memo to skip subjobs. Both a
/// budget the iteration exhausts and one it converges within are checked.
#[test]
fn soa_pipeline_matches_aos_reference_on_48_subjob_shops() {
    for (i, kind) in POLICIES.into_iter().enumerate() {
        for (arrivals, seed, label) in [
            (periodic(8), 42 + i as u64, "periodic"),
            (bursty(), 1042 + i as u64, "bursty"),
        ] {
            let sys = shop(kind, 8, arrivals, seed);
            assert_eq!(SubjobIndex::new(&sys).len(), 48);
            for rounds in [3, 24] {
                assert_reports_identical(
                    &sys,
                    rounds,
                    &format!("{kind:?} {label} 8-stage/{rounds}"),
                );
            }
        }
    }
}

/// The figure-eight: two SPP processors and two opposite 2-hop jobs with
/// crossed priorities, so the subjob dependency graph is cyclic.
fn figure_eight() -> TaskSystem {
    let periodic = ArrivalPattern::Periodic {
        period: Time(40),
        offset: Time::ZERO,
    };
    let mut b = SystemBuilder::new();
    let p1 = b.add_processor("P1", SchedulerKind::Spp);
    let p2 = b.add_processor("P2", SchedulerKind::Spp);
    let t1 = b.add_job(
        "T1",
        Time(200),
        periodic.clone(),
        vec![(p1, Time(4)), (p2, Time(4))],
    );
    let t2 = b.add_job(
        "T2",
        Time(200),
        periodic,
        vec![(p2, Time(4)), (p1, Time(4))],
    );
    b.set_priority(SubjobRef { job: t1, index: 0 }, 2);
    b.set_priority(SubjobRef { job: t2, index: 1 }, 1);
    b.set_priority(SubjobRef { job: t1, index: 1 }, 1);
    b.set_priority(SubjobRef { job: t2, index: 0 }, 2);
    b.build().unwrap()
}

/// The cyclic system, cold at several budgets and warm from its own
/// converged seed: a seeded run converges within one round onto the
/// reference's fixed point.
#[test]
fn figure_eight_matches_aos_reference_cold_and_seeded() {
    let sys = figure_eight();
    assert!(matches!(
        evaluation_order(&sys, &SubjobIndex::new(&sys)),
        Err(AnalysisError::CyclicDependency { .. })
    ));
    let cfg = AnalysisConfig::default();
    for rounds in [1, 2, 16] {
        assert_reports_identical(&sys, rounds, &format!("figure-eight cold/{rounds}"));
    }
    let reference = format!(
        "{:?}",
        analyze_with_loops_reference(&sys, &cfg, 16).unwrap()
    );
    let (cold, seed) = analyze_with_loops_seeded(&sys, &cfg, 16, None).unwrap();
    assert_eq!(format!("{cold:?}"), reference);
    let (warm, _) = analyze_with_loops_seeded(&sys, &cfg, 1, Some(&seed)).unwrap();
    assert_eq!(
        format!("{warm:?}"),
        reference,
        "figure-eight from its own seed"
    );
}

/// Warm sessions reuse SoA iterate buffers across calls; every warm report
/// must still match the cold AoS reference bit for bit.
#[test]
fn warm_session_matches_aos_reference() {
    for kind in POLICIES {
        let sys = shop(kind, 2, periodic(2), 7);
        let cfg = AnalysisConfig::default();
        let aos = analyze_with_loops_reference(&sys, &cfg, 8).unwrap();
        let (w, h) = cfg.resolve(&sys);
        let pinned = AnalysisConfig {
            arrival_window: Some(w),
            horizon: Some(h),
            ..AnalysisConfig::default()
        };
        let mut session = AnalysisSession::pinned(sys, pinned);
        for pass in 0..3 {
            let warm = session.analyze_with_loops(8).unwrap();
            assert_eq!(
                format!("{warm:?}"),
                format!("{aos:?}"),
                "{kind:?} warm pass {pass}"
            );
        }
    }
}
