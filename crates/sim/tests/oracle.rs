//! Event-core ↔ legacy-loop oracle.
//!
//! The calendar-queue event core replaced a three-phase timestep loop that
//! the agreement suite had validated against the ICPP'98 theorems. That
//! loop is kept (as the `legacy` module in `tests/oracle/`) purely so these
//! tests can pin the new core **event for event** against it: same seeds, same tie-break
//! order, bit-identical [`rta_sim::SimResult`] — releases, every per-hop
//! completion time, and (under the `trace` feature, via full-struct
//! `PartialEq`) every serving interval and hop record.
//!
//! Coverage: all four registered scheduler kinds × {periodic, bursty}
//! arrivals × many generator seeds, several stage counts and utilizations,
//! plus hand-built mixed-scheduler systems exercising cross-processor
//! chains and simultaneous releases.

#[path = "oracle/legacy.rs"]
mod legacy;

use rand::rngs::StdRng;
use rand::SeedableRng;
use rta_curves::Time;
use rta_model::jobshop::{generate, ShopArrivals, ShopConfig};
use rta_model::priority::{assign_priorities, PriorityPolicy};
use rta_model::{ArrivalPattern, SchedulerKind, SubjobRef, SystemBuilder, TaskSystem};
use rta_sim::{simulate, SimConfig};

const KINDS: [SchedulerKind; 4] = [
    SchedulerKind::Spp,
    SchedulerKind::Spnp,
    SchedulerKind::Fcfs,
    SchedulerKind::Iwrr,
];

fn prepared(cfg: &ShopConfig, seed: u64) -> TaskSystem {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut sys = generate(cfg, &mut rng).expect("valid shop");
    if cfg.scheduler.uses_priorities() {
        assign_priorities(&mut sys, PriorityPolicy::RelativeDeadlineMonotonic).unwrap();
    }
    sys
}

fn assert_identical(sys: &TaskSystem, label: &str) {
    let acfg = rta_core::AnalysisConfig::default();
    let (window, horizon) = acfg.resolve(sys);
    let cfg = SimConfig { window, horizon };
    let new = simulate(sys, &cfg);
    let old = legacy::simulate(sys, &cfg);
    assert_eq!(new, old, "{label}: event core diverged from legacy loop");
}

#[test]
fn shops_match_legacy_across_policies_and_arrivals() {
    for kind in KINDS {
        for bursty in [false, true] {
            for (stages, util) in [(1usize, 0.6f64), (2, 0.7), (3, 0.5)] {
                for seed in 0..8u64 {
                    let cfg = ShopConfig {
                        stages,
                        procs_per_stage: 2,
                        n_jobs: 5,
                        scheduler: kind,
                        utilization: util,
                        arrivals: if bursty {
                            ShopArrivals::Bursty {
                                deadline: rta_model::distributions::Dist::Exponential { mean: 6.0 },
                            }
                        } else {
                            ShopArrivals::Periodic {
                                deadline_factor: 2.0 * stages as f64,
                            }
                        },
                        x_min: 0.25,
                        ticks_per_unit: 100,
                    };
                    let sys = prepared(&cfg, seed);
                    assert_identical(
                        &sys,
                        &format!(
                            "{kind:?} stages={stages} util={util} bursty={bursty} seed={seed}"
                        ),
                    );
                }
            }
        }
    }
}

#[test]
fn mixed_scheduler_chain_matches_legacy() {
    // Two jobs crossing an SPP processor and an FCFS processor in opposite
    // order, plus a bursty interferer — exercises chain releases landing on
    // a different discipline and same-instant completion/release ordering.
    let mut b = SystemBuilder::new();
    let p0 = b.add_processor("spp", SchedulerKind::Spp);
    let p1 = b.add_processor("fcfs", SchedulerKind::Fcfs);
    let a = b.add_job(
        "a",
        Time(40),
        ArrivalPattern::Periodic {
            period: Time(20),
            offset: Time(0),
        },
        vec![(p0, Time(4)), (p1, Time(3))],
    );
    let c = b.add_job(
        "c",
        Time(50),
        ArrivalPattern::Periodic {
            period: Time(25),
            offset: Time(2),
        },
        vec![(p1, Time(5)), (p0, Time(2))],
    );
    b.add_job(
        "bursty",
        Time(60),
        ArrivalPattern::Hyperbolic {
            x: 0.3,
            ticks_per_unit: 10,
        },
        vec![(p0, Time(3))],
    );
    b.set_priority(SubjobRef { job: a, index: 0 }, 1);
    b.set_priority(SubjobRef { job: c, index: 1 }, 2);
    b.set_priority(
        SubjobRef {
            job: rta_model::JobId(2),
            index: 0,
        },
        3,
    );
    let sys = b.build().unwrap();
    assert_identical(&sys, "mixed spp/fcfs chains");
}

#[test]
fn simultaneous_releases_match_legacy() {
    // Every job released at t=0 with identical periods: maximal same-instant
    // contention, so any tie-break divergence between the cores shows up.
    for kind in KINDS {
        let mut b = SystemBuilder::new();
        let p0 = b.add_processor("p0", kind);
        let p1 = b.add_processor("p1", kind);
        for k in 0..4 {
            let job = b.add_job(
                format!("j{k}"),
                Time(100),
                ArrivalPattern::Periodic {
                    period: Time(10),
                    offset: Time(0),
                },
                vec![(p0, Time(2)), (p1, Time(2))],
            );
            if kind.uses_priorities() {
                b.set_priority(SubjobRef { job, index: 0 }, k as u32 + 1);
                b.set_priority(SubjobRef { job, index: 1 }, k as u32 + 1);
            }
        }
        let sys = b.build().unwrap();
        assert_identical(&sys, &format!("{kind:?} simultaneous releases"));
    }
}
