//! The retired three-phase simulation loop, kept verbatim as the oracle
//! for the indexed event core.
//!
//! `tests/oracle.rs` pins [`rta_sim::simulate`] to this implementation —
//! same seeds, same tie-break order, identical [`SimResult`]s — across
//! every registered policy. It builds on the crate's public API only.

use rta_core::policy::{policy_for, ReadyInstance, ReadySet, SimScheduler};
use rta_curves::Time;
use rta_model::{JobId, ProcessorId, SubjobRef, TaskSystem};
use rta_sim::{SimConfig, SimResult};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

/// A live instance working through its chain.
#[derive(Clone, Debug)]
struct Instance {
    job: JobId,
    m: usize, // 1-based instance index
    hop: usize,
    remaining: Time,
    hop_release: Time,
    seq: u64, // global release sequence for deterministic tie-breaks
    #[cfg(feature = "trace")]
    started: Time, // first dispatch at the current hop; Time(-1) until then
}

/// The policy-facing view of an [`Instance`].
fn view(sys: &TaskSystem, inst: &Instance) -> ReadyInstance {
    let subjob = SubjobRef {
        job: inst.job,
        index: inst.hop,
    };
    ReadyInstance {
        subjob,
        hop_release: inst.hop_release,
        seq: inst.seq,
        prio: sys.subjob(subjob).priority.unwrap_or(u32::MAX),
    }
}

/// Per-processor run state: the policy's dispatcher plus the queues.
struct Proc {
    scheduler: Box<dyn SimScheduler>,
    ready: Vec<Instance>,
    running: Option<(Instance, Time)>, // (instance, started_at)
    /// Policy-facing views of `ready`, rebuilt in place per decision.
    views: Vec<ReadyInstance>,
}

impl Proc {
    fn fill_views(&mut self, sys: &TaskSystem) {
        self.views.clear();
        self.views.extend(self.ready.iter().map(|i| view(sys, i)));
    }

    /// Pick the index of the next ready instance per policy.
    fn pick(&mut self, sys: &TaskSystem) -> Option<usize> {
        if self.ready.is_empty() {
            return None;
        }
        self.fill_views(sys);
        self.scheduler.pick_idx(sys, &ReadySet::new(&self.views))
    }

    /// Would any ready instance preempt the running one?
    fn preempts(&mut self, sys: &TaskSystem, running: &Instance) -> bool {
        if self.ready.is_empty() {
            return false;
        }
        self.fill_views(sys);
        self.scheduler
            .preempts(sys, &view(sys, running), &ReadySet::new(&self.views))
    }
}

/// Run the simulation through the retired loop.
pub fn simulate(sys: &TaskSystem, cfg: &SimConfig) -> SimResult {
    sys.validate(true).expect("system must be valid");
    let njobs = sys.jobs().len();

    // Primary releases.
    let mut releases: Vec<Vec<Time>> = Vec::with_capacity(njobs);
    let mut heap: BinaryHeap<Reverse<(Time, u64)>> = BinaryHeap::new();
    let mut pending: HashMap<u64, Instance> = HashMap::new();
    let mut seq: u64 = 0;
    for (k, job) in sys.jobs().iter().enumerate() {
        let times = job.arrival.release_times(cfg.window);
        for (i, &t) in times.iter().enumerate() {
            let inst = Instance {
                job: JobId(k),
                m: i + 1,
                hop: 0,
                remaining: job.subjobs[0].exec,
                hop_release: t,
                seq,
                #[cfg(feature = "trace")]
                started: Time(-1),
            };
            heap.push(Reverse((t, seq)));
            pending.insert(seq, inst);
            seq += 1;
        }
        releases.push(times);
    }

    let mut out = SimResult {
        hop_completions: sys
            .jobs()
            .iter()
            .enumerate()
            .map(|(k, job)| vec![vec![None; job.subjobs.len()]; releases[k].len()])
            .collect(),
        releases,
        #[cfg(feature = "trace")]
        service_intervals: HashMap::new(),
        #[cfg(feature = "trace")]
        hop_records: Vec::new(),
        horizon: cfg.horizon,
    };

    let mut procs: Vec<Proc> = sys
        .processors()
        .iter()
        .enumerate()
        .map(|(i, p)| Proc {
            scheduler: policy_for(p.scheduler).sim_scheduler(sys, ProcessorId(i)),
            ready: Vec::new(),
            running: None,
            views: Vec::new(),
        })
        .collect();

    loop {
        // Next event time: earliest pending release or earliest completion.
        let next_release = heap.peek().map(|Reverse((t, _))| *t);
        let next_completion = procs
            .iter()
            .filter_map(|p| p.running.as_ref().map(|(inst, at)| *at + inst.remaining))
            .min();
        let t = match (next_release, next_completion) {
            (Some(a), Some(b)) => a.min(b),
            (Some(a), None) => a,
            (None, Some(b)) => b,
            (None, None) => break,
        };
        if t > cfg.horizon {
            break;
        }

        // 1. Completions at t.
        for (pidx, p) in procs.iter_mut().enumerate() {
            let done = matches!(&p.running, Some((inst, at)) if *at + inst.remaining == t);
            if !done {
                continue;
            }
            let (mut inst, at) = p.running.take().expect("checked");
            let r = SubjobRef {
                job: inst.job,
                index: inst.hop,
            };
            debug_assert_eq!(sys.subjob(r).processor.0, pidx);
            #[cfg(feature = "trace")]
            {
                if at < t {
                    out.service_intervals.entry(r).or_default().push((at, t));
                }
                out.hop_records.push(rta_sim::HopRecord {
                    job: inst.job,
                    m: inst.m as u32,
                    hop: inst.hop as u32,
                    release: inst.hop_release,
                    start: inst.started,
                    finish: t,
                });
            }
            #[cfg(not(feature = "trace"))]
            let _ = at;
            out.hop_completions[inst.job.0][inst.m - 1][inst.hop] = Some(t);
            let job = sys.job(inst.job);
            if inst.hop + 1 < job.subjobs.len() {
                // Direct synchronization: release the next hop immediately.
                inst.hop += 1;
                inst.remaining = job.subjobs[inst.hop].exec;
                inst.hop_release = t;
                inst.seq = seq;
                #[cfg(feature = "trace")]
                {
                    inst.started = Time(-1);
                }
                heap.push(Reverse((t, seq)));
                pending.insert(seq, inst);
                seq += 1;
            }
        }

        // 2. Releases at t.
        while matches!(heap.peek(), Some(Reverse((rt, _))) if *rt == t) {
            let Reverse((_, s)) = heap.pop().expect("peeked");
            let inst = pending.remove(&s).expect("pending");
            let r = SubjobRef {
                job: inst.job,
                index: inst.hop,
            };
            let pidx = sys.subjob(r).processor.0;
            procs[pidx].ready.push(inst);
        }

        // 3. Re-dispatch.
        for p in procs.iter_mut() {
            // Preemption (SPP only).
            if let Some((inst, at)) = p.running.take() {
                if p.preempts(sys, &inst) {
                    #[cfg(feature = "trace")]
                    if at < t {
                        let r = SubjobRef {
                            job: inst.job,
                            index: inst.hop,
                        };
                        out.service_intervals.entry(r).or_default().push((at, t));
                    }
                    let mut inst = inst;
                    inst.remaining -= t - at;
                    debug_assert!(inst.remaining > Time::ZERO);
                    p.ready.push(inst);
                } else {
                    p.running = Some((inst, at));
                }
            }
            if p.running.is_none() {
                if let Some(i) = p.pick(sys) {
                    #[allow(unused_mut)]
                    let mut inst = p.ready.swap_remove(i);
                    #[cfg(feature = "trace")]
                    if inst.started < Time::ZERO {
                        inst.started = t;
                    }
                    p.running = Some((inst, t));
                }
            }
        }
    }

    out
}
