//! Seeded inputs of the socket workloads: tenant systems in the
//! `rta-admit` text format and the `ADMIT` probe stream.

use std::fmt::Write as _;

use bursty_rta::textfmt::{format_arrival, format_job_draft, parse_system, HopSpec, JobDraft};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rta_core::service::{AdmissionService, ServiceConfig};
use rta_curves::Time;
use rta_model::jobshop::{generate, ShopArrivals, ShopConfig};
use rta_model::{ArrivalPattern, SchedulerKind, TaskSystem};

/// Which oracle the admit tenants exercise.
#[derive(Copy, Clone, PartialEq, Eq)]
pub enum Flavor {
    /// All-SPP shops: the exact analysis behind the session cache.
    Exact,
    /// SPP and FCFS processors alternate: every verdict runs the Section 6
    /// fixed point on the SoA pipeline.
    Loops,
}

/// Tenants of the admit workloads: the service's default `max_tenants`, so
/// none is evicted. Many tenants keep a run's cost from hinging on a few
/// costly draws.
pub const ADMIT_TENANTS: usize = 64;

/// The Eq. 25/26 job shop of the admit tenants: 2 stages × 2 processors,
/// 6 periodic jobs, deadline 4 periods, utilization 0.5 per processor.
/// Periods stay within a factor of 2 (`x_min` 0.5): the analysis horizon
/// follows the longest period, so a wider spread makes a tenant's cost,
/// and with it a run's, depend mostly on which fleet the seed drew.
fn shop() -> ShopConfig {
    ShopConfig {
        stages: 2,
        procs_per_stage: 2,
        n_jobs: 6,
        scheduler: SchedulerKind::Spp,
        utilization: 0.5,
        arrivals: ShopArrivals::Periodic {
            deadline_factor: 4.0,
        },
        x_min: 0.5,
        ticks_per_unit: 500,
    }
}

/// Render a system in the description format. Priorities are left to the
/// parser's deadline-monotonic rule (the generator's own rule); processor
/// `i` runs FCFS for odd `i` under [`Flavor::Loops`].
fn describe(sys: &TaskSystem, flavor: Flavor) -> String {
    let mut text = String::new();
    for (i, p) in sys.processors().iter().enumerate() {
        let kind = if flavor == Flavor::Loops && i % 2 == 1 {
            "fcfs"
        } else {
            "spp"
        };
        let _ = writeln!(text, "processor {} {kind}", p.name);
    }
    for job in sys.jobs() {
        let _ = writeln!(
            text,
            "job {} deadline {} {}",
            job.name,
            job.deadline.ticks(),
            format_arrival(&job.arrival)
        );
        for s in &job.subjobs {
            let _ = writeln!(
                text,
                "hop {} {}",
                sys.processor(s.processor).name,
                s.exec.ticks()
            );
        }
    }
    text.trim_end().to_string()
}

/// The `LOAD` request for a tenant.
pub fn load_request(tenant: &str, system: &str) -> String {
    format!("LOAD {tenant} {}\n{system}", system.lines().count())
}

/// `ADMIT_TENANTS` schedulable shop descriptions drawn from `seed`; a draw
/// the service would load as unschedulable is skipped (no probe could be
/// admitted into it).
pub fn admit_tenants(seed: u64, flavor: Flavor) -> Vec<String> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x7E4A_17C0);
    let mut svc = AdmissionService::new(ServiceConfig::default());
    let mut out = Vec::with_capacity(ADMIT_TENANTS);
    while out.len() < ADMIT_TENANTS {
        let sys = generate(&shop(), &mut rng).expect("shop template is valid");
        let text = describe(&sys, flavor);
        let parsed = parse_system(&text).expect("rendered system parses");
        if svc.load("probe", parsed).is_ok_and(|o| o.schedulable) {
            out.push(text);
        }
    }
    out
}

pub fn tenant_name(i: usize) -> String {
    format!("t{i}")
}

/// One `ADMIT` probe: which tenant, and the request line.
pub struct Probe {
    pub tenant: usize,
    pub job: String,
    pub line: String,
}

/// A seeded probe stream: a two-hop periodic job through one processor of
/// each stage, with a period in the tenants' range and per-hop load drawn
/// so that a share of probes overloads its tenant and is rejected.
pub fn probes(seed: u64, n: usize) -> Vec<Probe> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0AD_317);
    (0..n)
        .map(|k| {
            let tenant = rng.gen_range(0..ADMIT_TENANTS);
            let period: i64 = rng.gen_range(500..1000);
            let deadline = (period as f64 * rng.gen_range(0.6..2.5)) as i64;
            let hops = (1..=2)
                .map(|stage| HopSpec {
                    processor: format!("S{stage}P{}", rng.gen_range(1..=2)),
                    exec: ((period as f64) * rng.gen_range(0.05..0.5)).max(1.0) as i64,
                    priority: None,
                    weight: None,
                })
                .collect();
            let job = JobDraft {
                name: format!("p{k}"),
                deadline,
                arrival: ArrivalPattern::Periodic {
                    period: Time(period),
                    offset: Time(0),
                },
                hops,
            };
            Probe {
                tenant,
                job: job.name.clone(),
                line: format!(
                    "ADMIT {} job {}",
                    tenant_name(tenant),
                    format_job_draft(&job)
                ),
            }
        })
        .collect()
}

/// Tenants of the `wcdfp-socket` workload: as many as the service keeps,
/// so that a cold start is mostly their `LOAD`s rather than process start,
/// whose time follows the host's busy stretches most.
pub const WCDFP_TENANTS: usize = 64;

/// The jobs of every `wcdfp-socket` tenant, in description order.
pub const WCDFP_JOBS: [&str; 3] = ["jit", "spo", "steady"];

/// Small jitter/sporadic systems drawn from `seed`: a jittered two-hop job
/// whose deadline it misses in a fraction of draws, a sporadic two-hop job
/// in the opposite direction, and a comfortable periodic job that never
/// misses.
pub fn wcdfp_tenants(seed: u64) -> Vec<String> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0C_DF9);
    (0..WCDFP_TENANTS)
        .map(|_| {
            let jitter: i64 = rng.gen_range(6..=10);
            let offset: i64 = rng.gen_range(0..=8);
            let jit_deadline: i64 = rng.gen_range(10..=11);
            let spo_deadline: i64 = rng.gen_range(12..=14);
            format!(
                "processor P1 fcfs\n\
                 processor P2 spp\n\
                 job jit deadline {jit_deadline} jitter 20 {jitter} {offset}\n\
                 hop P1 6\n\
                 hop P2 3\n\
                 job spo deadline {spo_deadline} sporadic 20\n\
                 hop P2 4\n\
                 hop P1 3\n\
                 job steady deadline 100 periodic 25 0\n\
                 hop P1 2"
            )
        })
        .collect()
}
