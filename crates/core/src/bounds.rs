//! Approximate end-to-end analysis for heterogeneous systems
//! (Section 4.2: Theorem 4, Lemmas 1 and 2).
//!
//! For schedulers whose exact service functions are out of reach (SPNP,
//! FCFS — and SPP hops inside such systems), the analysis propagates
//! *bounds*: an upper-bounded arrival function into each hop, a service
//! bound pair at the hop, a lower-bounded departure function out of it
//! (Lemma 1), and the next hop's upper-bounded arrival function (Lemma 2).
//! The per-hop worst-case delay is the horizontal deviation of Equation 12,
//!
//! ```text
//! d_{k,j} = max_m ( f̲⁻¹_{k,j,dep}(m) − f̄⁻¹_{k,j,arr}(m) )
//! ```
//!
//! and the end-to-end bound is their sum (Equation 11). The bound is
//! *envelope-relative*: each hop is charged as if its arrivals were the
//! earliest the envelope admits, which dominates every conforming trace —
//! the classical network-calculus delay argument (Cruz).
//!
//! ## One pass, three entry points
//!
//! [`analyze_bounds`], the verdict-only [`bounds_schedulable`] and the
//! network-calculus composition ([`crate::nc`]) share one node pass. It
//! visits the subjobs in dependency order and, per hop, computes the
//! service bounds, the Eq. 12 delay against the hop's arrival envelope,
//! and the successor hop's envelope. Each delay is folded into its job's
//! Eq. 11 sum as soon as it is known. A delay is never negative, so a
//! job's partial sum only grows: the first unresolved hop or partial sum
//! past the deadline already decides the verdict, and
//! [`bounds_schedulable`] stops there (DESIGN.md §4j).
//!
//! All interior state lives in a per-thread workspace reused across calls
//! (the fixpoint driver's discipline): dense subjob tables, the dependency
//! order, each node's envelope and bounds, the staging curves, and the
//! curve [`Scratch`]. SPP/SPNP hops run the native structure-of-arrays
//! Theorem 5/6 chain ([`crate::spnp::spnp_bounds_soa_into`]) and read their
//! Eq. 12 delay straight off the SoA departure bound, so a warm verdict on
//! a same-shaped SPP/SPNP system allocates nothing. A call that leaves
//! more than `RETAIN_LIMIT` curve entries behind releases the workspace
//! when it returns, so a thread never holds a large system's buffers
//! between calls. The allocating pass this replaced lives with the tests
//! as the reference oracle (`tests/reference/mod.rs`), and
//! `tests/properties.rs` pins the two hop for hop.

use std::cell::RefCell;

use crate::config::AnalysisConfig;
use crate::depgraph::DensePlan;
use crate::error::AnalysisError;
use crate::policy::{policy_for, PeerInputs, ProcessorContexts, SoaBoundsInputs};
use crate::report::{BoundsReport, JobBound};
use crate::spnp::SoaServiceBounds;
use rta_curves::{Curve, Scratch, SoaCursor, SoaCurve, Time};
use rta_model::{JobId, TaskSystem};

/// The per-hop worst-case delay of Equation 12: the maximal horizontal
/// deviation `max_m ( f̲⁻¹_dep(m) − f̄⁻¹_arr(m) )` over the first
/// `n_instances` instances, or `None` if any instance is unresolved within
/// the horizon. Both curves are in structure-of-arrays form, so the
/// drivers read the envelope and the `floor_div` result straight out of
/// their workspace buffers. The sweep is cursor-based: amortized O(1) per
/// instance. [`SoaCursor`] is pinned step-identical to the AoS
/// [`rta_curves::CurveCursor`], so both resolve the same instants.
pub(crate) fn hop_delay_soa(
    arr_env: &SoaCurve,
    dep_lower: &SoaCurve,
    n_instances: i64,
) -> Option<Time> {
    let mut arr_cur = SoaCursor::new(arr_env);
    let mut dep_cur = SoaCursor::new(dep_lower);
    let mut d = Time::ZERO;
    for m in 1..=n_instances {
        let early = arr_cur.inverse_at(m)?;
        let late = dep_cur.inverse_at(m)?;
        d = d.max(late - early);
    }
    Some(d)
}

/// Per-thread state of the node pass, reused across calls: the `i`-th
/// entry of every per-node vector describes subjob `plan.refs[i]`, in
/// `TaskSystem::all_subjobs` order.
#[derive(Default)]
struct BoundsWorkspace {
    scratch: Scratch,
    /// Subjob tables, peer lists and the dependency order.
    plan: DensePlan,
    times: Vec<Time>,
    /// Per job: the instances released in the window.
    n_instances: Vec<i64>,
    /// Per node: the upper-bounded arrival envelope (the release curve on a
    /// first hop, the predecessor's Lemma 2 output otherwise) and the
    /// service bounds — the only per-node curves later nodes read.
    arr_env: Vec<SoaCurve>,
    bounds: Vec<SoaServiceBounds>,
    /// Staging buffers for the node being computed: its workload, the
    /// kernel's output pair, and the `floor_div` departure /
    /// next-arrival curve.
    workload: SoaCurve,
    out: SoaServiceBounds,
    dep_soa: SoaCurve,
    /// Emptied peer-reference buffers, kept for their capacity.
    hp_lower: Vec<&'static SoaCurve>,
    hp_upper: Vec<&'static SoaCurve>,
    /// Per node: the Eq. 12 delay. Per job: the Eq. 11 running sum.
    hop_delay: Vec<Option<Time>>,
    e2e: Vec<Option<Time>>,
}

thread_local! {
    static BOUNDS_WS: RefCell<BoundsWorkspace> = RefCell::new(BoundsWorkspace::default());
}

/// The most curve entries (segments, summed over the per-node envelopes
/// and bounds) a thread keeps warm between calls; a call on a larger
/// system releases the whole workspace when it returns. Keeping large
/// systems warm made the Figure 3/4 sweep faster but raised its peak
/// memory above the allocating pass's, since the exact and holistic
/// analyses then allocate on top of the retained buffers (DESIGN.md §4j).
const RETAIN_LIMIT: usize = 512;

impl BoundsWorkspace {
    /// Curve entries held in the per-node slots.
    fn retained_len(&self) -> usize {
        let arr: usize = self.arr_env.iter().map(SoaCurve::len).sum();
        let bounds: usize = self
            .bounds
            .iter()
            .map(|b| b.lower.len() + b.upper.len())
            .sum();
        arr + bounds
    }
}

/// Grow `v` to at least `n` slots, filling new ones with `fill()`; existing
/// slots keep their buffers.
pub(crate) fn ensure_len<T>(v: &mut Vec<T>, n: usize, fill: impl FnMut() -> T) {
    if v.len() < n {
        v.resize_with(n, fill);
    }
}

/// Run `f` on this thread's workspace, releasing the workspace afterwards
/// when the call left more than [`RETAIN_LIMIT`] curve entries in it.
fn with_workspace<T>(f: impl FnOnce(&mut BoundsWorkspace) -> T) -> T {
    BOUNDS_WS.with(|ws| {
        let mut ws = ws.borrow_mut();
        let out = f(&mut ws);
        if ws.retained_len() > RETAIN_LIMIT {
            *ws = BoundsWorkspace::default();
        }
        out
    })
}

/// Rebind an emptied peer-reference buffer to a new borrow. The in-place
/// `collect` keeps the allocation (the element layout is unchanged), so
/// the per-node peer slices cost no heap traffic once the buffer has grown.
pub(crate) fn rebind<'b>(mut v: Vec<&SoaCurve>) -> Vec<&'b SoaCurve> {
    v.clear();
    v.into_iter()
        .map(|_| -> &'b SoaCurve { unreachable!() })
        .collect()
}

/// Run the node pass in `ws` and return the verdict: `true` iff every job's
/// Eq. 11 sum is resolved and within its deadline. With `early_exit` the
/// pass returns `Ok(false)` at the first hop that settles a miss (an
/// unresolved delay, or a partial sum past the deadline); otherwise it
/// computes every node and leaves the per-hop delays, per-job sums and
/// service bounds in `ws`.
fn run_pass(
    sys: &TaskSystem,
    cfg: &AnalysisConfig,
    ws: &mut BoundsWorkspace,
    early_exit: bool,
) -> Result<bool, AnalysisError> {
    sys.validate(true)?;
    let (window, horizon) = cfg.resolve(sys);
    ws.plan.plan(sys)?;
    let n = ws.plan.refs.len();
    let n_jobs = sys.jobs().len();

    let BoundsWorkspace {
        scratch,
        plan:
            DensePlan {
                refs,
                job_start,
                hp_flat,
                hp_start,
                order,
                ..
            },
        times,
        n_instances,
        arr_env,
        workload,
        bounds,
        out,
        dep_soa,
        hp_lower: hp_lower_buf,
        hp_upper: hp_upper_buf,
        hop_delay,
        e2e,
        ..
    } = ws;
    ensure_len(arr_env, n, SoaCurve::zero);
    ensure_len(bounds, n, SoaServiceBounds::zeroed);
    hop_delay.clear();
    hop_delay.resize(n, None);
    e2e.clear();
    e2e.resize(n_jobs, Some(Time::ZERO));

    // First-hop envelopes: the release curves over the window. Later hops'
    // envelopes are written by their predecessor (Lemma 2), which the
    // dependency order visits first.
    n_instances.clear();
    for (k, job) in sys.jobs().iter().enumerate() {
        job.arrival.release_times_into(window, times);
        n_instances.push(times.len() as i64);
        SoaCurve::from_event_times_into(times, &mut arr_env[job_start[k]]);
    }

    let mut ctxs = ProcessorContexts::new();
    let mut verdict = true;
    for &i in order.iter() {
        let r = refs[i];
        let subjob = sys.subjob(r);
        let tau = subjob.exec;
        let policy = policy_for(sys.processor(subjob.processor).scheduler);
        arr_env[i].scale_into(tau.ticks(), workload);
        if policy.peer_inputs() == PeerInputs::SharedWorkloads {
            // Shared-workload contexts (FCFS, IWRR) are built on AoS
            // curves, converted at this boundary.
            let arr_env = &*arr_env;
            let job_start = &*job_start;
            ctxs.ensure(sys, subjob.processor, horizon, &mut |o| {
                arr_env[job_start[o.job.0] + o.index]
                    .to_curve()
                    .scale(sys.subjob(o).exec.ticks())
            })?;
        }

        let mut hp_lower = rebind(std::mem::take(hp_lower_buf));
        let mut hp_upper = rebind(std::mem::take(hp_upper_buf));
        for &h in &hp_flat[hp_start[i]..hp_start[i + 1]] {
            hp_lower.push(&bounds[h].lower);
            hp_upper.push(&bounds[h].upper);
        }
        let computed = policy.service_bounds_soa_into(
            &SoaBoundsInputs {
                workload,
                tau,
                weight: subjob.weight(),
                blocking: policy.blocking(sys, r),
                hp_lower: &hp_lower,
                hp_upper: &hp_upper,
                variant: cfg.spnp_availability,
                ctx: ctxs.get(subjob.processor),
                horizon,
                processor: subjob.processor,
            },
            scratch,
            out,
        );
        *hp_lower_buf = rebind(hp_lower);
        *hp_upper_buf = rebind(hp_upper);
        computed?;
        // Copy rather than swap: the kernels reserve generously, and only
        // the staging pair should carry that slack, not every node's slot.
        bounds[i].lower.copy_from(&out.lower);
        bounds[i].upper.copy_from(&out.upper);

        // Lemma 1 departure bound and the Eq. 12 delay, folded straight
        // into the job's Eq. 11 sum.
        let k = r.job.0;
        bounds[i]
            .lower
            .floor_div_into(tau.ticks(), horizon, dep_soa)?;
        let d = hop_delay_soa(&arr_env[i], dep_soa, n_instances[k]);
        hop_delay[i] = d;
        e2e[k] = e2e[k].zip(d).map(|(sum, d)| sum + d);
        if !matches!(e2e[k], Some(sum) if sum <= sys.job(r.job).deadline) {
            verdict = false;
            if early_exit {
                return Ok(false);
            }
        }

        // Lemma 2: the successor hop's arrival envelope. A last hop has no
        // successor, so its upper departure bound is never needed.
        if r.index + 1 < sys.job(r.job).subjobs.len() {
            bounds[i]
                .upper
                .floor_div_into(tau.ticks(), horizon, &mut arr_env[i + 1])?;
        }
    }
    Ok(verdict)
}

/// Per-subjob lower service bounds in `SubjobIndex` order — consumed by
/// the network-calculus composition in [`crate::nc`].
pub(crate) fn lower_service_curves(
    sys: &TaskSystem,
    cfg: &AnalysisConfig,
) -> Result<Vec<Curve>, AnalysisError> {
    with_workspace(|ws| {
        run_pass(sys, cfg, ws, false)?;
        let n = ws.plan.refs.len();
        Ok(ws.bounds[..n].iter().map(|b| b.lower.to_curve()).collect())
    })
}

/// Run the approximate (bounds) analysis on a system whose processors may
/// mix SPP, SPNP and FCFS scheduling.
pub fn analyze_bounds(
    sys: &TaskSystem,
    cfg: &AnalysisConfig,
) -> Result<BoundsReport, AnalysisError> {
    with_workspace(|ws| {
        run_pass(sys, cfg, ws, false)?;
        let (window, horizon) = cfg.resolve(sys);
        let jobs = sys
            .jobs()
            .iter()
            .enumerate()
            .map(|(k, job)| {
                let start = ws.plan.job_start[k];
                JobBound {
                    job: JobId(k),
                    hop_delays: ws.hop_delay[start..start + job.subjobs.len()].to_vec(),
                    e2e_bound: ws.e2e[k],
                    deadline: job.deadline,
                }
            })
            .collect();
        Ok(BoundsReport {
            window,
            horizon,
            jobs,
        })
    })
}

/// Verdict-only bounds analysis: `true` iff every job's end-to-end bound is
/// resolved and within its deadline. The verdict agrees with
/// `analyze_bounds(..)?.all_schedulable()` whenever that report is `Ok`;
/// the pass stops at the first hop that settles a miss and assembles no
/// report, so a warm call on a same-shaped SPP/SPNP system allocates
/// nothing — the form the Monte-Carlo admission sweeps want. A miss found
/// early can turn an error a later hop would have raised into `Ok(false)`;
/// cyclic topologies are rejected before any hop is computed, exactly as
/// by [`analyze_bounds`].
pub fn bounds_schedulable(sys: &TaskSystem, cfg: &AnalysisConfig) -> Result<bool, AnalysisError> {
    with_workspace(|ws| run_pass(sys, cfg, ws, true))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::analyze_exact_spp;
    use rta_model::priority::{assign_priorities, PriorityPolicy};
    use rta_model::{ArrivalPattern, SchedulerKind, SubjobRef, SystemBuilder};

    fn periodic(p: i64) -> ArrivalPattern {
        ArrivalPattern::Periodic {
            period: Time(p),
            offset: Time::ZERO,
        }
    }

    #[test]
    fn single_hop_spp_bound_matches_exact() {
        // On one processor with exact (first-hop) arrivals the bounds method
        // degenerates to the exact service functions.
        let mut b = SystemBuilder::new();
        let p = b.add_processor("P1", SchedulerKind::Spp);
        b.add_job("T1", Time(5), periodic(5), vec![(p, Time(2))]);
        b.add_job("T2", Time(10), periodic(10), vec![(p, Time(3))]);
        let mut sys = b.build().unwrap();
        assign_priorities(&mut sys, PriorityPolicy::DeadlineMonotonic).unwrap();
        let exact = analyze_exact_spp(&sys, &AnalysisConfig::default()).unwrap();
        let bound = analyze_bounds(&sys, &AnalysisConfig::default()).unwrap();
        for k in 0..2 {
            assert!(bound.jobs[k].e2e_bound.unwrap() >= exact.jobs[k].wcrt.unwrap());
        }
        assert_eq!(bound.jobs[0].e2e_bound, Some(Time(2)));
        assert_eq!(bound.jobs[1].e2e_bound, Some(Time(5)));
    }

    #[test]
    fn multi_hop_bound_dominates_exact() {
        let mut b = SystemBuilder::new();
        let p1 = b.add_processor("P1", SchedulerKind::Spp);
        let p2 = b.add_processor("P2", SchedulerKind::Spp);
        b.add_job(
            "T1",
            Time(100),
            periodic(20),
            vec![(p1, Time(2)), (p2, Time(4))],
        );
        b.add_job(
            "T2",
            Time(100),
            periodic(25),
            vec![(p2, Time(3)), (p1, Time(5))],
        );
        let mut sys = b.build().unwrap();
        assign_priorities(&mut sys, PriorityPolicy::RelativeDeadlineMonotonic).unwrap();
        let exact = analyze_exact_spp(&sys, &AnalysisConfig::default()).unwrap();
        let bound = analyze_bounds(&sys, &AnalysisConfig::default()).unwrap();
        for k in 0..2 {
            let e = exact.jobs[k].wcrt.unwrap();
            let ub = bound.jobs[k].e2e_bound.unwrap();
            assert!(ub >= e, "job {k}: bound {ub:?} < exact {e:?}");
        }
    }

    #[test]
    fn spnp_blocking_inflates_bound() {
        // T1 (high prio, τ=2) can be blocked by T2 (τ=9) under SPNP.
        let mut b = SystemBuilder::new();
        let p = b.add_processor("P1", SchedulerKind::Spnp);
        b.add_job("T1", Time(20), periodic(20), vec![(p, Time(2))]);
        b.add_job("T2", Time(40), periodic(40), vec![(p, Time(9))]);
        let mut sys = b.build().unwrap();
        assign_priorities(&mut sys, PriorityPolicy::DeadlineMonotonic).unwrap();
        let bound = analyze_bounds(&sys, &AnalysisConfig::default()).unwrap();
        // T1's hop delay includes the 9-tick blocking: ≥ 11.
        assert!(bound.jobs[0].e2e_bound.unwrap() >= Time(11));
    }

    #[test]
    fn fcfs_two_flows() {
        let mut b = SystemBuilder::new();
        let p = b.add_processor("P1", SchedulerKind::Fcfs);
        b.add_job("T1", Time(30), periodic(20), vec![(p, Time(4))]);
        b.add_job("T2", Time(30), periodic(20), vec![(p, Time(5))]);
        let sys = b.build().unwrap();
        let bound = analyze_bounds(&sys, &AnalysisConfig::default()).unwrap();
        // Simultaneous release: either can wait for the other ⇒ both hop
        // delays ≥ 9 (= 4 + 5), and both bounded within 30.
        for k in 0..2 {
            let d = bound.jobs[k].e2e_bound.unwrap();
            assert!(d >= Time(9), "job {k}: {d:?}");
            assert!(bound.jobs[k].schedulable());
        }
    }

    #[test]
    fn iwrr_two_flows_bounded_without_driver_edits() {
        // IWRR reaches the bounds driver purely through the policy seam:
        // no scheduler-specific code exists in this module.
        let mut b = SystemBuilder::new();
        let p = b.add_processor("P1", SchedulerKind::Iwrr);
        let t1 = b.add_job("T1", Time(60), periodic(20), vec![(p, Time(4))]);
        b.add_job("T2", Time(60), periodic(20), vec![(p, Time(5))]);
        b.set_weight(rta_model::SubjobRef { job: t1, index: 0 }, 2);
        let sys = b.build().unwrap();
        let bound = analyze_bounds(&sys, &AnalysisConfig::default()).unwrap();
        for k in 0..2 {
            let d = bound.jobs[k].e2e_bound.unwrap();
            // A round is L = 2·4 + 1·5 = 13 ticks; service certainly
            // arrives within two rounds plus the instance itself.
            assert!(
                d >= sys
                    .subjob(SubjobRef {
                        job: JobId(k),
                        index: 0
                    })
                    .exec
            );
            assert!(bound.jobs[k].schedulable(), "job {k}: {d:?}");
        }
    }

    #[test]
    fn heterogeneous_pipeline() {
        // SPP → SPNP → FCFS chain plus a competing local job on each hop.
        let mut b = SystemBuilder::new();
        let p1 = b.add_processor("P1", SchedulerKind::Spp);
        let p2 = b.add_processor("P2", SchedulerKind::Spnp);
        let p3 = b.add_processor("P3", SchedulerKind::Fcfs);
        b.add_job(
            "T1",
            Time(200),
            periodic(40),
            vec![(p1, Time(4)), (p2, Time(5)), (p3, Time(6))],
        );
        b.add_job("T2", Time(200), periodic(50), vec![(p1, Time(3))]);
        b.add_job("T3", Time(200), periodic(60), vec![(p2, Time(7))]);
        b.add_job("T4", Time(200), periodic(70), vec![(p3, Time(8))]);
        let mut sys = b.build().unwrap();
        assign_priorities(&mut sys, PriorityPolicy::RelativeDeadlineMonotonic).unwrap();
        let bound = analyze_bounds(&sys, &AnalysisConfig::default()).unwrap();
        let j = &bound.jobs[0];
        assert_eq!(j.hop_delays.len(), 3);
        assert!(j.hop_delays.iter().all(Option::is_some));
        // Each hop costs at least its own execution time.
        assert!(j.hop_delays[0].unwrap() >= Time(4));
        assert!(j.hop_delays[1].unwrap() >= Time(5));
        assert!(j.hop_delays[2].unwrap() >= Time(6));
        assert!(j.e2e_bound.unwrap() >= Time(15));
    }

    #[test]
    fn overload_yields_unbounded_hop() {
        let mut b = SystemBuilder::new();
        let p = b.add_processor("P1", SchedulerKind::Spp);
        b.add_job("T1", Time(10), periodic(10), vec![(p, Time(7))]);
        b.add_job("T2", Time(10), periodic(10), vec![(p, Time(7))]);
        let mut sys = b.build().unwrap();
        assign_priorities(&mut sys, PriorityPolicy::DeadlineMonotonic).unwrap();
        let bound = analyze_bounds(&sys, &AnalysisConfig::default()).unwrap();
        assert!(!bound.all_schedulable());
    }

    #[test]
    fn variant_choice_is_respected() {
        let mut b = SystemBuilder::new();
        let p = b.add_processor("P1", SchedulerKind::Spnp);
        b.add_job("T1", Time(60), periodic(15), vec![(p, Time(3))]);
        b.add_job("T2", Time(60), periodic(20), vec![(p, Time(4))]);
        b.add_job("T3", Time(60), periodic(30), vec![(p, Time(5))]);
        let mut sys = b.build().unwrap();
        assign_priorities(&mut sys, PriorityPolicy::DeadlineMonotonic).unwrap();
        let printed = analyze_bounds(
            &sys,
            &AnalysisConfig {
                spnp_availability: crate::SpnpAvailability::AsPrinted,
                ..Default::default()
            },
        )
        .unwrap();
        let conserv = analyze_bounds(
            &sys,
            &AnalysisConfig {
                spnp_availability: crate::SpnpAvailability::Conservative,
                ..Default::default()
            },
        )
        .unwrap();
        // The printed variant assumes less interference ⇒ bounds no larger.
        for k in 0..3 {
            let (a, b) = (
                printed.jobs[k].e2e_bound.unwrap(),
                conserv.jobs[k].e2e_bound.unwrap(),
            );
            assert!(a <= b, "job {k}: printed {a:?} > conservative {b:?}");
        }
    }
}
