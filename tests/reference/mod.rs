//! Reference oracle for the Theorem 4 bounds driver: the allocating node
//! pass that `analyze_bounds` ran before it moved onto a reused
//! workspace, kept verbatim on the public API.
//!
//! Every hop gets fresh curves: the arrival envelope, the workload, the
//! policy's allocating `service_bounds` (the AoS Theorem 5/6 chain for
//! SPP/SPNP), the AoS `floor_div` departures and an AoS-cursor Eq. 12
//! sweep, all computed for every node before any delay is summed. The
//! production driver must match it hop for hop.

use bursty_rta::analysis::depgraph::{evaluation_order, SubjobIndex};
use bursty_rta::analysis::policy::{policy_for, BoundsInputs, PeerInputs, ProcessorContexts};
use bursty_rta::analysis::spnp::ServiceBounds;
use bursty_rta::analysis::{AnalysisConfig, AnalysisError, BoundsReport, JobBound};
use bursty_rta::curves::{Curve, CurveCursor, Time};
use bursty_rta::model::{JobId, SubjobRef, TaskSystem};

/// Equation 12 on AoS curves.
fn hop_delay(arr_env: &Curve, dep_lower: &Curve, n_instances: i64) -> Option<Time> {
    let mut arr_cur = CurveCursor::new(arr_env);
    let mut dep_cur = CurveCursor::new(dep_lower);
    let mut d = Time::ZERO;
    for m in 1..=n_instances {
        let early = arr_cur.inverse_at(m)?;
        let late = dep_cur.inverse_at(m)?;
        d = d.max(late - early);
    }
    Some(d)
}

struct NodeData {
    arr_env: Curve,
    bounds: ServiceBounds,
    dep_lower: Curve,
    arr_next: Curve,
}

fn compute_nodes(
    sys: &TaskSystem,
    cfg: &AnalysisConfig,
    idx: &SubjobIndex,
) -> Result<Vec<NodeData>, AnalysisError> {
    let (window, horizon) = cfg.resolve(sys);
    let order = evaluation_order(sys, idx)?;

    let mut nodes: Vec<Option<NodeData>> = Vec::with_capacity(idx.len());
    nodes.resize_with(idx.len(), || None);
    let mut ctxs = ProcessorContexts::new();

    let arr_env_of = |nodes: &[Option<NodeData>], r: SubjobRef| -> Curve {
        if r.index == 0 {
            sys.job(r.job).arrival.arrival_curve(window)
        } else {
            let pred = SubjobRef {
                job: r.job,
                index: r.index - 1,
            };
            nodes[idx.index(pred)]
                .as_ref()
                .expect("dependency order")
                .arr_next
                .clone()
        }
    };

    for i in order {
        let r = idx.subjob(i);
        let subjob = sys.subjob(r);
        let tau = subjob.exec;
        let arr_env = arr_env_of(&nodes, r);
        let workload = arr_env.scale(tau.ticks());

        let policy = policy_for(sys.processor(subjob.processor).scheduler);

        let (hp_lower, hp_upper): (Vec<&Curve>, Vec<&Curve>) = match policy.peer_inputs() {
            PeerInputs::HigherPriorityServices => {
                let hp = sys.higher_priority_peers(r);
                (
                    hp.iter()
                        .map(|h| &nodes[idx.index(*h)].as_ref().expect("order").bounds.lower)
                        .collect(),
                    hp.iter()
                        .map(|h| &nodes[idx.index(*h)].as_ref().expect("order").bounds.upper)
                        .collect(),
                )
            }
            PeerInputs::SharedWorkloads => {
                let mut workload_of =
                    |o: SubjobRef| arr_env_of(&nodes, o).scale(sys.subjob(o).exec.ticks());
                ctxs.ensure(sys, subjob.processor, horizon, &mut workload_of)?;
                (Vec::new(), Vec::new())
            }
        };
        let bounds = policy.service_bounds(&BoundsInputs {
            workload: &workload,
            tau,
            weight: subjob.weight(),
            blocking: policy.blocking(sys, r),
            hp_lower: &hp_lower,
            hp_upper: &hp_upper,
            variant: cfg.spnp_availability,
            ctx: ctxs.get(subjob.processor),
            horizon,
            processor: subjob.processor,
        })?;

        let dep_lower = bounds.lower.floor_div(tau.ticks(), horizon)?;
        let arr_next = bounds.upper.floor_div(tau.ticks(), horizon)?;
        nodes[i] = Some(NodeData {
            arr_env,
            bounds,
            dep_lower,
            arr_next,
        });
    }
    Ok(nodes
        .into_iter()
        .map(|n| n.expect("all computed"))
        .collect())
}

/// The reference `analyze_bounds`: every node first, then Equations 11
/// and 12 per job.
pub fn analyze_bounds_reference(
    sys: &TaskSystem,
    cfg: &AnalysisConfig,
) -> Result<BoundsReport, AnalysisError> {
    sys.validate(true)?;
    let (window, horizon) = cfg.resolve(sys);
    let idx = SubjobIndex::new(sys);
    let nodes = compute_nodes(sys, cfg, &idx)?;

    let mut jobs = Vec::with_capacity(sys.jobs().len());
    for (k, job) in sys.jobs().iter().enumerate() {
        let job_id = JobId(k);
        let n_instances = job.arrival.release_times(window).len() as i64;
        let mut hop_delays = Vec::with_capacity(job.subjobs.len());
        for j in 0..job.subjobs.len() {
            let node = &nodes[idx.index(SubjobRef {
                job: job_id,
                index: j,
            })];
            hop_delays.push(hop_delay(&node.arr_env, &node.dep_lower, n_instances));
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

    Ok(BoundsReport {
        window,
        horizon,
        jobs,
    })
}
