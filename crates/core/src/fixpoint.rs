//! Loop-tolerant bounds analysis — the Section 6 extension.
//!
//! When a job visits the same processor twice ("physical loop") or two jobs
//! interfere with each other's upstream hops ("logical loop"), the subjob
//! dependency relation is cyclic and the one-pass analyses fail with
//! [`AnalysisError::CyclicDependency`]. Section 6 of the paper sketches the
//! remedy: treat the unknown quantities as a vector `X` and iterate
//! `Xⁿ⁺¹ = F(Xⁿ)` from `X¹ = 0̄`.
//!
//! This module implements that scheme over *service-curve* unknowns:
//!
//! * Arrival envelopes never need peer services: instance `m` reaches hop
//!   `j` no earlier than its release plus the minimum processing of the
//!   upstream hops, so `f̄_{arr,j}(t) = f_{arr,1}(t − Σ_{i<j} τ_i)` is a
//!   sound (cycle-free) envelope.
//! * Higher-priority interference starts from the information-free bounds
//!   `S̄_h⁰ = min(t, c̄_h(t))`, `S̲_h⁰ = 0`, and each round recomputes every
//!   subjob's Theorem 5/6 (or 8/9) bounds from the previous round's values.
//!   Every round's output is sound, and rounds only tighten, so the
//!   iteration can stop at any budget; it converges when no curve changes.
//!
//! The result is looser than [`crate::analyze_bounds`] on acyclic systems
//! (which chains the tighter Lemma-2 envelopes hop by hop) but is defined
//! for arbitrary topologies.
//!
//! ## Warm starts
//!
//! The only cross-subjob inputs of a round are the service bounds of
//! strictly higher-priority peers on the same processor. Priorities are a
//! strict order per processor, so that input relation is a DAG even when the
//! full subjob dependency graph (with chain edges) is cyclic — the arrival
//! envelopes above are computed once, outside the iteration. A DAG of pure
//! per-node functions has exactly one fixed point, reached from *any*
//! starting vector within `depth + 1` rounds. [`analyze_with_loops_seeded`]
//! exploits this: seeding the iteration with the converged bounds of a
//! nearby system (e.g. the previous bisection step of
//! [`crate::sensitivity::critical_scaling`]) starts next to the new fixed
//! point and typically converges in one verification round, while producing
//! bit-identical reports to a cold start whenever the round budget lets the
//! cold run converge. The cold entry point [`analyze_with_loops`] is kept
//! unchanged as the correctness oracle.
//!
//! ## Memory discipline
//!
//! All interior state — dense subjob tables, arrival/workload curves,
//! double-buffered bound iterates and the curve [`Scratch`] — lives in a
//! per-thread [`LoopWorkspace`] that is reused across calls, in
//! structure-of-arrays layout from model ingest to the Eq. 12 sweep
//! (DESIGN.md §4g). Every system, whatever its size, runs its Jacobi
//! rounds sequentially in that workspace: after a warm-up call on the same
//! frame, a seeded re-analysis performs O(1) heap allocations (see
//! DESIGN.md §4d and the `alloc_budget` test in `rta-bench`). The
//! sequential, allocating reference these rounds are pinned against lives
//! with the tests (`tests/reference/mod.rs`, checked by
//! `tests/soa_pipeline_oracle.rs`).

use std::cell::RefCell;
use std::sync::Arc;

use crate::bounds::{ensure_len, rebind};
use crate::config::AnalysisConfig;
use crate::depgraph::DensePlan;
use crate::error::AnalysisError;
use crate::policy::{policy_for, PeerInputs, ProcessorContexts, ServicePolicy, SoaBoundsInputs};
use crate::report::{BoundsReport, JobBound};
use crate::spnp::SoaServiceBounds;
use rta_curves::{Scratch, SoaCurve, Time};
use rta_model::{JobId, ProcessorId, TaskSystem};

/// Converged interior state of a loop-tolerant run, reusable as the seed of
/// the next run on a system with the same topology and analysis frame.
///
/// The bounds are shared (`Arc`) and stored in structure-of-arrays layout —
/// the working representation of the rounds (DESIGN.md §4g), so
/// re-seeding copies flat arrays (or, for an unchanged system, returns a
/// handle to the same vector) without ever materializing AoS segments.
#[derive(Clone, Debug)]
pub struct LoopSeed {
    pub(crate) window: Time,
    pub(crate) horizon: Time,
    pub(crate) bounds: Arc<Vec<SoaServiceBounds>>,
}

impl LoopSeed {
    /// `true` when this seed can start an analysis at frame
    /// `(window, horizon)` over `n` subjobs.
    pub fn matches(&self, window: Time, horizon: Time, n: usize) -> bool {
        self.window == window && self.horizon == horizon && self.bounds.len() == n
    }
}

/// Per-thread state of the fixpoint driver, reused across calls so a warm
/// seeded re-analysis allocates nothing: dense subjob tables (the `i`-th
/// entry of every vector describes subjob `plan.refs[i]`, in
/// `all_subjobs` order), the cycle-free envelopes and workloads, the
/// double-buffered bound iterates (`cur`/`next`), and the curve scratch
/// arena.
#[derive(Default)]
struct LoopWorkspace {
    scratch: Scratch,
    /// Subjob tables and each node's higher-priority peers — the only
    /// cross-subjob inputs of a round (`plan.hp_flat[plan.hp_start[i]..
    /// plan.hp_start[i + 1]]`), so they drive the staleness tracking.
    plan: DensePlan,
    times: Vec<Time>,
    /// Staging pair: the release curve at ingest, the round-0 cold-init
    /// temporaries, then the Eq. 12 `floor_div` departure curve.
    stage: SoaCurve,
    dep: SoaCurve,
    /// Per-subjob cycle-free arrival envelopes and workloads, built once
    /// at model ingest.
    arr_env: Vec<SoaCurve>,
    workload: Vec<SoaCurve>,
    policy: Vec<&'static dyn ServicePolicy>,
    tau: Vec<Time>,
    weight: Vec<u32>,
    blocking: Vec<Time>,
    processor: Vec<usize>,
    /// Double-buffered bound iterates.
    cur: Vec<SoaServiceBounds>,
    next: Vec<SoaServiceBounds>,
    stale: Vec<bool>,
    changed: Vec<bool>,
    /// Emptied peer-reference buffers, kept for their capacity.
    hp_lower: Vec<&'static SoaCurve>,
    hp_upper: Vec<&'static SoaCurve>,
}

thread_local! {
    static LOOP_WS: RefCell<LoopWorkspace> = RefCell::new(LoopWorkspace::default());
}

/// Run the loop-tolerant fixed-point analysis for at most `max_rounds`
/// refinement rounds (each round is a full sweep over all subjobs).
pub fn analyze_with_loops(
    sys: &TaskSystem,
    cfg: &AnalysisConfig,
    max_rounds: usize,
) -> Result<BoundsReport, AnalysisError> {
    analyze_with_loops_seeded(sys, cfg, max_rounds, None).map(|(report, _)| report)
}

/// [`analyze_with_loops`] with an optional warm-start seed; also returns the
/// converged bounds as the seed for the next run.
///
/// A seed is used only when [`LoopSeed::matches`] the resolved frame and
/// subjob count; otherwise the run silently falls back to the cold round-0
/// bounds. See the module docs for why seeding cannot change the converged
/// result.
pub fn analyze_with_loops_seeded(
    sys: &TaskSystem,
    cfg: &AnalysisConfig,
    max_rounds: usize,
    seed: Option<&LoopSeed>,
) -> Result<(BoundsReport, LoopSeed), AnalysisError> {
    LOOP_WS.with(|ws| analyze_seeded_in(sys, cfg, max_rounds, seed, &mut ws.borrow_mut()))
}

fn analyze_seeded_in(
    sys: &TaskSystem,
    cfg: &AnalysisConfig,
    max_rounds: usize,
    seed: Option<&LoopSeed>,
    ws: &mut LoopWorkspace,
) -> Result<(BoundsReport, LoopSeed), AnalysisError> {
    sys.validate(true)?;
    assert!(max_rounds >= 1);
    let (window, horizon) = cfg.resolve(sys);

    // ---- Dense subjob tables (all_subjobs order) and higher-priority
    // peer slots. ----
    ws.plan.fill_tables(sys);
    let n = ws.plan.refs.len();

    // ---- Cycle-free arrival envelopes and workloads, built straight
    // into the SoA slots. ----
    ensure_len(&mut ws.arr_env, n, SoaCurve::zero);
    ensure_len(&mut ws.workload, n, SoaCurve::zero);
    for i in 0..n {
        let r = ws.plan.refs[i];
        let job = sys.job(r.job);
        job.arrival.release_times_into(window, &mut ws.times);
        SoaCurve::from_event_times_into(&ws.times, &mut ws.stage);
        let min_shift: Time = job.subjobs[..r.index].iter().map(|s| s.exec).sum();
        ws.stage.shift_right_into(min_shift, 0, &mut ws.arr_env[i]);
        ws.arr_env[i].scale_into(sys.subjob(r).exec.ticks(), &mut ws.workload[i]);
    }

    // ---- Per-node policy metadata. ----
    ws.policy.clear();
    ws.tau.clear();
    ws.weight.clear();
    ws.blocking.clear();
    ws.processor.clear();
    for i in 0..n {
        let r = ws.plan.refs[i];
        let s = sys.subjob(r);
        let policy = policy_for(sys.processor(s.processor).scheduler);
        ws.policy.push(policy);
        ws.tau.push(s.exec);
        ws.weight.push(s.weight());
        ws.blocking.push(policy.blocking(sys, r));
        ws.processor.push(s.processor.0);
    }

    // Shared-workload policy contexts (FCFS, IWRR) depend only on the
    // (round-invariant) peer workloads: build each processor's context
    // once, before the rounds, converting the peer workloads to AoS at
    // this boundary. Priority policies never enter this branch, so the
    // warm path allocates nothing here.
    let mut ctxs = ProcessorContexts::new();
    for i in 0..n {
        if ws.policy[i].peer_inputs() == PeerInputs::SharedWorkloads {
            let p = ProcessorId(ws.processor[i]);
            let workload = &ws.workload;
            let job_start = &ws.plan.job_start;
            ctxs.ensure(sys, p, horizon, &mut |o| {
                workload[job_start[o.job.0] + o.index].to_curve()
            })?;
        }
    }

    // ---- Round 0: the seed when it fits the frame, information-free
    // otherwise. ----
    ensure_len(&mut ws.cur, n, SoaServiceBounds::zeroed);
    ensure_len(&mut ws.next, n, SoaServiceBounds::zeroed);
    let seeded = seed.filter(|s| s.matches(window, horizon, n));
    if let Some(s) = seeded {
        for i in 0..n {
            ws.cur[i].lower.copy_from(&s.bounds[i].lower);
            ws.cur[i].upper.copy_from(&s.bounds[i].upper);
        }
    } else {
        for i in 0..n {
            ws.cur[i].lower.set_affine(0, 0);
            ws.stage.set_affine(0, 1);
            ws.stage.min_with_into(&ws.workload[i], &mut ws.dep);
            ws.dep.clamp_min_into(0, &mut ws.cur[i].upper);
        }
    }

    // ---- Jacobi rounds, double-buffered through `cur`/`next` with all
    // curve temporaries drawn from the scratch arena. Subjob `i`'s
    // round-r bounds are a pure function of the round-(r−1) bounds of its
    // higher-priority peers (and round-invariant workloads), so a subjob
    // whose inputs did not change in the previous round keeps its
    // memoized bounds. FCFS bounds have no cross-subjob inputs at all:
    // they are computed once in the first round and never again. ----
    let mut any_change_ever = false;
    {
        let LoopWorkspace {
            scratch,
            workload,
            policy,
            tau,
            weight,
            blocking,
            processor,
            plan: DensePlan {
                hp_flat, hp_start, ..
            },
            cur,
            next,
            stale,
            changed,
            hp_lower: hp_lower_buf,
            hp_upper: hp_upper_buf,
            ..
        } = &mut *ws;
        stale.clear();
        stale.resize(n, true);
        changed.clear();
        changed.resize(n, false);
        for _round in 0..max_rounds {
            let mut any_changed = false;
            let mut hp_lower = rebind(std::mem::take(hp_lower_buf));
            let mut hp_upper = rebind(std::mem::take(hp_upper_buf));
            for i in 0..n {
                if !stale[i] {
                    changed[i] = false;
                    next[i].lower.copy_from(&cur[i].lower);
                    next[i].upper.copy_from(&cur[i].upper);
                    continue;
                }
                hp_lower.clear();
                hp_upper.clear();
                for &h in &hp_flat[hp_start[i]..hp_start[i + 1]] {
                    hp_lower.push(&cur[h].lower);
                    hp_upper.push(&cur[h].upper);
                }
                policy[i].service_bounds_soa_into(
                    &SoaBoundsInputs {
                        workload: &workload[i],
                        tau: tau[i],
                        weight: weight[i],
                        blocking: blocking[i],
                        hp_lower: &hp_lower,
                        hp_upper: &hp_upper,
                        variant: cfg.spnp_availability,
                        ctx: ctxs.get(ProcessorId(processor[i])),
                        horizon,
                        processor: ProcessorId(processor[i]),
                    },
                    scratch,
                    &mut next[i],
                )?;
                changed[i] = next[i] != cur[i];
                any_changed |= changed[i];
            }
            *hp_lower_buf = rebind(hp_lower);
            *hp_upper_buf = rebind(hp_upper);
            std::mem::swap(cur, next);
            if !any_changed {
                break;
            }
            any_change_ever = true;
            for i in 0..n {
                stale[i] = hp_flat[hp_start[i]..hp_start[i + 1]]
                    .iter()
                    .any(|&h| changed[h]);
            }
        }
    }

    // ---- Per-hop delays (Eq. 12) against the cycle-free envelopes. ----
    let mut jobs = Vec::with_capacity(sys.jobs().len());
    for (k, job) in sys.jobs().iter().enumerate() {
        let job_id = JobId(k);
        job.arrival.release_times_into(window, &mut ws.times);
        let n_instances = ws.times.len() as i64;
        let mut hop_delays = Vec::with_capacity(job.subjobs.len());
        for j in 0..job.subjobs.len() {
            let i = ws.plan.job_start[k] + j;
            ws.cur[i]
                .lower
                .floor_div_into(job.subjobs[j].exec.ticks(), horizon, &mut ws.dep)?;
            hop_delays.push(crate::bounds::hop_delay_soa(
                &ws.arr_env[i],
                &ws.dep,
                n_instances,
            ));
        }
        let e2e_bound = hop_delays
            .iter()
            .try_fold(Time::ZERO, |acc, d| d.map(|d| acc + d));
        jobs.push(JobBound {
            job: job_id,
            hop_delays,
            e2e_bound,
            deadline: job.deadline,
        });
    }
    let report = BoundsReport {
        window,
        horizon,
        jobs,
    };
    // An unchanged seeded run converged onto its own seed: hand the same
    // Arc back instead of cloning every curve.
    let next_seed = match seeded {
        Some(s) if !any_change_ever => LoopSeed {
            window,
            horizon,
            bounds: Arc::clone(&s.bounds),
        },
        _ => LoopSeed {
            window,
            horizon,
            bounds: Arc::new(ws.cur[..n].to_vec()),
        },
    };
    Ok((report, next_seed))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::depgraph::{evaluation_order, SubjobIndex};
    use rta_model::priority::{assign_priorities, PriorityPolicy};
    use rta_model::{ArrivalPattern, SchedulerKind, SubjobRef, SystemBuilder};

    fn periodic(p: i64) -> ArrivalPattern {
        ArrivalPattern::Periodic {
            period: Time(p),
            offset: Time::ZERO,
        }
    }

    /// The figure-eight system whose dependency graph is cyclic.
    fn looped_system() -> TaskSystem {
        let mut b = SystemBuilder::new();
        let p1 = b.add_processor("P1", SchedulerKind::Spp);
        let p2 = b.add_processor("P2", SchedulerKind::Spp);
        let t1 = b.add_job(
            "T1",
            Time(200),
            periodic(40),
            vec![(p1, Time(4)), (p2, Time(4))],
        );
        let t2 = b.add_job(
            "T2",
            Time(200),
            periodic(40),
            vec![(p2, Time(4)), (p1, Time(4))],
        );
        b.set_priority(SubjobRef { job: t1, index: 0 }, 2);
        b.set_priority(SubjobRef { job: t2, index: 1 }, 1);
        b.set_priority(SubjobRef { job: t1, index: 1 }, 1);
        b.set_priority(SubjobRef { job: t2, index: 0 }, 2);
        b.build().unwrap()
    }

    #[test]
    fn handles_cyclic_topologies() {
        let sys = looped_system();
        let idx = SubjobIndex::new(&sys);
        assert!(matches!(
            evaluation_order(&sys, &idx),
            Err(AnalysisError::CyclicDependency { .. })
        ));
        let r = analyze_with_loops(&sys, &AnalysisConfig::default(), 8).unwrap();
        // Light load (8/40 per processor): everything comfortably bounded.
        for j in &r.jobs {
            let d = j.e2e_bound.expect("bounded");
            assert!(d >= Time(8), "at least the execution demand: {d:?}");
            assert!(j.schedulable(), "loop at low load must admit: {d:?}");
        }
    }

    #[test]
    fn rounds_only_tighten() {
        let sys = looped_system();
        let cfg = AnalysisConfig::default();
        let r1 = analyze_with_loops(&sys, &cfg, 1).unwrap();
        let r4 = analyze_with_loops(&sys, &cfg, 6).unwrap();
        for k in 0..sys.jobs().len() {
            let (a, b) = (r1.jobs[k].e2e_bound, r4.jobs[k].e2e_bound);
            match (a, b) {
                (Some(a), Some(b)) => assert!(b <= a, "job {k}: {b:?} > {a:?}"),
                (None, _) => {}
                (Some(_), None) => panic!("refinement lost a bound"),
            }
        }
    }

    #[test]
    fn acyclic_systems_also_work() {
        let mut b = SystemBuilder::new();
        let p1 = b.add_processor("P1", SchedulerKind::Spp);
        let p2 = b.add_processor("P2", SchedulerKind::Spnp);
        b.add_job(
            "T1",
            Time(100),
            periodic(25),
            vec![(p1, Time(3)), (p2, Time(4))],
        );
        b.add_job("T2", Time(100), periodic(30), vec![(p2, Time(5))]);
        let mut sys = b.build().unwrap();
        assign_priorities(&mut sys, PriorityPolicy::RelativeDeadlineMonotonic).unwrap();
        let lo = analyze_with_loops(&sys, &AnalysisConfig::default(), 6).unwrap();
        let direct = crate::analyze_bounds(&sys, &AnalysisConfig::default()).unwrap();
        for k in 0..2 {
            let (a, b) = (
                lo.jobs[k].e2e_bound.expect("bounded"),
                direct.jobs[k].e2e_bound.expect("bounded"),
            );
            // Both sound; the fixpoint variant may be looser but must agree
            // on schedulability here.
            assert!(lo.jobs[k].schedulable() && direct.jobs[k].schedulable());
            let _ = (a, b);
        }
    }

    #[test]
    fn overloaded_loop_is_rejected() {
        let mut b = SystemBuilder::new();
        let p1 = b.add_processor("P1", SchedulerKind::Spp);
        let p2 = b.add_processor("P2", SchedulerKind::Spp);
        let t1 = b.add_job(
            "T1",
            Time(20),
            periodic(10),
            vec![(p1, Time(6)), (p2, Time(6))],
        );
        let t2 = b.add_job(
            "T2",
            Time(20),
            periodic(10),
            vec![(p2, Time(6)), (p1, Time(6))],
        );
        b.set_priority(SubjobRef { job: t1, index: 0 }, 2);
        b.set_priority(SubjobRef { job: t2, index: 1 }, 1);
        b.set_priority(SubjobRef { job: t1, index: 1 }, 1);
        b.set_priority(SubjobRef { job: t2, index: 0 }, 2);
        let sys = b.build().unwrap();
        let r = analyze_with_loops(&sys, &AnalysisConfig::default(), 8).unwrap();
        assert!(!r.all_schedulable());
    }

    #[test]
    fn warm_start_from_own_solution_is_identical_and_converges_in_one_round() {
        let sys = looped_system();
        let cfg = AnalysisConfig::default();
        let (cold, seed) = analyze_with_loops_seeded(&sys, &cfg, 16, None).unwrap();
        // Re-analyzing the same system from its converged seed must converge
        // immediately (a 1-round budget suffices) to the same report.
        let (warm, seed2) = analyze_with_loops_seeded(&sys, &cfg, 1, Some(&seed)).unwrap();
        assert_eq!(format!("{cold}"), format!("{warm}"));
        for (a, b) in seed.bounds.iter().zip(seed2.bounds.iter()) {
            assert_eq!(a.lower, b.lower);
            assert_eq!(a.upper, b.upper);
        }
        // The converged warm seed shares storage with its input seed.
        assert!(Arc::ptr_eq(&seed.bounds, &seed2.bounds));
    }

    #[test]
    fn mismatched_seed_falls_back_to_cold() {
        let sys = looped_system();
        let cfg = AnalysisConfig::default();
        let (_, seed) = analyze_with_loops_seeded(&sys, &cfg, 16, None).unwrap();
        // A frame the seed does not match: different arrival window.
        let other = AnalysisConfig {
            arrival_window: Some(Time(777)),
            ..AnalysisConfig::default()
        };
        let cold = analyze_with_loops(&sys, &other, 16).unwrap();
        let (warm, _) = analyze_with_loops_seeded(&sys, &other, 16, Some(&seed)).unwrap();
        assert_eq!(format!("{cold}"), format!("{warm}"));
    }
}
