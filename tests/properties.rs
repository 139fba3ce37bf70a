//! Property-based end-to-end tests: random small systems, structural
//! invariants checked against the simulator and across analyses.

mod reference;

use bursty_rta::analysis::depgraph::{evaluation_order, SubjobIndex};
use bursty_rta::analysis::{
    analyze_bounds, analyze_exact_spp, bounds_schedulable, AnalysisConfig, SpnpAvailability,
};
use bursty_rta::curves::Time;
use bursty_rta::model::{
    ArrivalPattern, JobId, SchedulerKind, SubjobRef, SystemBuilder, TaskSystem,
};
use bursty_rta::sim::{simulate, SimConfig};
use proptest::prelude::*;
use reference::analyze_bounds_reference;

/// One drawn job: a chain of `(processor, exec)` hops, its arrival pattern
/// and its deadline.
type JobDraw = (Vec<(usize, i64)>, ArrivalPattern, i64);

fn arb_job(arrival: impl Strategy<Value = ArrivalPattern>) -> impl Strategy<Value = JobDraw> {
    (
        prop::collection::vec((0usize..3, 1i64..12), 1..4), // chain (proc, exec)
        arrival,
        20i64..200, // deadline
    )
}

/// Periodic patterns and arbitrary traces.
fn arb_arrival() -> impl Strategy<Value = ArrivalPattern> {
    prop_oneof![
        (1i64..40).prop_map(|p| ArrivalPattern::Periodic {
            period: Time(p + 10),
            offset: Time::ZERO,
        }),
        prop::collection::vec(0i64..80, 1..5).prop_map(|mut ts| {
            ts.sort();
            ArrivalPattern::Trace(ts.into_iter().map(Time).collect())
        }),
    ]
}

/// Three processors running `kinds`, one job per draw; job `k`'s hops get
/// round-robin weight `weights[k]` (1 is the default; only IWRR reads it).
fn build_system(kinds: &[SchedulerKind], jobs: Vec<JobDraw>, weights: &[u32]) -> TaskSystem {
    let mut b = SystemBuilder::new();
    let procs = [
        b.add_processor("P1", kinds[0]),
        b.add_processor("P2", kinds[1]),
        b.add_processor("P3", kinds[2]),
    ];
    for (k, (chain, arrival, deadline)) in jobs.into_iter().enumerate() {
        // Avoid physical loops: route hops through distinct processors.
        let mut chain: Vec<(usize, i64)> = chain;
        chain.dedup_by_key(|(p, _)| *p);
        let hops: Vec<_> = chain
            .into_iter()
            .map(|(p, e)| (procs[p], Time(e)))
            .collect();
        let n_hops = hops.len();
        let id = b.add_job(format!("T{k}"), Time(deadline), arrival, hops);
        if weights[k] != 1 {
            for index in 0..n_hops {
                b.set_weight(SubjobRef { job: id, index }, weights[k]);
            }
        }
    }
    b.build().unwrap()
}

/// Strategy: a random small distributed system.
///
/// 2–3 processors, 2–4 jobs of 1–3 hops each, arbitrary traces or periodic
/// patterns, strict per-processor priorities assigned by enumeration order.
fn arb_system(scheduler: SchedulerKind) -> impl Strategy<Value = TaskSystem> {
    prop::collection::vec(arb_job(arb_arrival()), 2..5)
        .prop_map(move |jobs| build_system(&[scheduler; 3], jobs, &[1; 4]))
}

/// Strategy: [`arb_system`] with every processor drawing its own scheduler
/// among SPP, SPNP, FCFS and IWRR, bursty burst-train arrivals besides
/// periodic ones and traces, and per-job round-robin weights of 1–3.
fn arb_mixed_system() -> impl Strategy<Value = TaskSystem> {
    let kind = prop_oneof![
        Just(SchedulerKind::Spp),
        Just(SchedulerKind::Spnp),
        Just(SchedulerKind::Fcfs),
        Just(SchedulerKind::Iwrr),
    ];
    let arrival = prop_oneof![
        arb_arrival(),
        (2u64..5, 0i64..4, 30i64..70).prop_map(|(burst_len, gap, period)| {
            ArrivalPattern::BurstTrain {
                burst_len: burst_len as u32,
                intra_gap: Time(gap),
                train_period: Time(period),
                offset: Time::ZERO,
            }
        }),
    ];
    (
        prop::collection::vec(kind, 3..4),
        prop::collection::vec(arb_job(arrival), 2..5),
        prop::collection::vec(1u64..4, 4..5),
    )
        .prop_map(
            |(kinds, jobs, weights): (Vec<SchedulerKind>, Vec<JobDraw>, Vec<u64>)| {
                let weights: Vec<u32> = weights.into_iter().map(|w| w as u32).collect();
                build_system(&kinds, jobs, &weights)
            },
        )
}

fn with_priorities(mut sys: TaskSystem) -> Option<TaskSystem> {
    use bursty_rta::model::priority::{assign_priorities, PriorityPolicy};
    assign_priorities(&mut sys, PriorityPolicy::DeadlineMonotonic).ok()?;
    Some(sys)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Exact SPP analysis equals simulation on arbitrary random systems
    /// whose dependency graph is acyclic.
    #[test]
    fn exact_equals_sim(sys in arb_system(SchedulerKind::Spp)) {
        let Some(sys) = with_priorities(sys) else { return Ok(()) };
        let cfg = AnalysisConfig { arrival_window: Some(Time(120)), ..Default::default() };
        let Ok(report) = analyze_exact_spp(&sys, &cfg) else {
            return Ok(()); // cyclic topology — out of scope here
        };
        let (window, horizon) = cfg.resolve(&sys);
        let sim = simulate(&sys, &SimConfig { window, horizon });
        for (k, jr) in report.jobs.iter().enumerate() {
            prop_assert_eq!(jr.responses.len(), sim.instances(JobId(k)));
            for m in 1..=sim.instances(JobId(k)) {
                prop_assert_eq!(jr.responses[m - 1], sim.response(JobId(k), m), "job {} m {}", k, m);
            }
        }
    }

    /// Departures never precede arrivals, and service stays within
    /// [0, min(t, workload)] — Definition-level invariants on every curve
    /// the exact analysis produces.
    #[test]
    fn curve_invariants(sys in arb_system(SchedulerKind::Spp)) {
        let Some(sys) = with_priorities(sys) else { return Ok(()) };
        let cfg = AnalysisConfig { arrival_window: Some(Time(120)), ..Default::default() };
        let Ok(report) = analyze_exact_spp(&sys, &cfg) else { return Ok(()) };
        for (i, r) in sys.all_subjobs().enumerate() {
            let c = &report.curves[i];
            let tau = sys.subjob(r).exec.ticks();
            for t in (0..=report.horizon.ticks()).step_by(7) {
                let t = Time(t);
                prop_assert!(c.departure.eval(t) <= c.arrival.eval(t), "dep>arr at {} for {}", t, r);
                let s = c.service.eval(t);
                prop_assert!(s >= 0 && s <= t.ticks().max(0));
                prop_assert!(s <= c.arrival.eval(t) * tau);
            }
        }
    }

    /// The bounds driver on mixed SPP/SPNP/FCFS/IWRR systems, under both
    /// SPNP availability readings:
    ///
    /// * a cyclic topology is rejected with the `CyclicDependency` error
    ///   `evaluation_order` derives from the topology alone — so before any
    ///   node is computed — identically by `analyze_bounds`,
    ///   `bounds_schedulable` and the reference pass;
    /// * otherwise `analyze_bounds` equals the reference pass hop for hop
    ///   (or fails with the same error), and the early-exit verdict equals
    ///   the report's;
    /// * hop delays, when finite, are at least the hop execution time, and
    ///   the e2e bound is their sum.
    #[test]
    fn bounds_structure(
        sys in arb_mixed_system(),
        variant in prop_oneof![
            Just(SpnpAvailability::AsPrinted),
            Just(SpnpAvailability::Conservative),
        ],
    ) {
        let Some(sys) = with_priorities(sys) else { return Ok(()) };
        let cfg = AnalysisConfig {
            arrival_window: Some(Time(120)),
            spnp_availability: variant,
            ..Default::default()
        };
        if let Err(cyclic) = evaluation_order(&sys, &SubjobIndex::new(&sys)) {
            prop_assert_eq!(analyze_bounds(&sys, &cfg).unwrap_err(), cyclic.clone());
            prop_assert_eq!(bounds_schedulable(&sys, &cfg).unwrap_err(), cyclic.clone());
            prop_assert_eq!(analyze_bounds_reference(&sys, &cfg).unwrap_err(), cyclic);
            return Ok(());
        }
        let report = match (analyze_bounds(&sys, &cfg), analyze_bounds_reference(&sys, &cfg)) {
            (Ok(report), Ok(oracle)) => {
                prop_assert_eq!(report.jobs.len(), oracle.jobs.len());
                for (k, (jb, ob)) in report.jobs.iter().zip(&oracle.jobs).enumerate() {
                    prop_assert_eq!(&jb.hop_delays, &ob.hop_delays, "job {} hop delays", k);
                    prop_assert_eq!(jb.e2e_bound, ob.e2e_bound, "job {} e2e", k);
                }
                report
            }
            (Err(e), Err(oracle)) => {
                prop_assert_eq!(e, oracle);
                return Ok(());
            }
            (got, oracle) => {
                return Err(TestCaseError::fail(format!(
                    "driver {:?} vs reference {:?}",
                    got.map(|r| r.all_schedulable()),
                    oracle.map(|r| r.all_schedulable())
                )));
            }
        };
        prop_assert_eq!(bounds_schedulable(&sys, &cfg), Ok(report.all_schedulable()));
        for (k, jb) in report.jobs.iter().enumerate() {
            let job = &sys.jobs()[k];
            let has_arrivals = !job.arrival.release_times(report.window).is_empty();
            for (j, d) in jb.hop_delays.iter().enumerate() {
                if let Some(d) = d {
                    if has_arrivals {
                        prop_assert!(*d >= job.subjobs[j].exec, "hop {} delay {} < exec", j, d);
                    }
                }
            }
            let sum: Option<Time> = jb.hop_delays.iter().try_fold(Time::ZERO, |a, d| d.map(|d| a + d));
            prop_assert_eq!(sum, jb.e2e_bound);
        }
    }
}
