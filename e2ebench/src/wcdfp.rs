//! `wcdfp-socket`: closed-loop `WCDFP <tenant> fixed <draws> <seed>`
//! requests over one connection to a real `rta-admit --serve-unix` daemon.

use std::time::Instant;

use bursty_rta::proto::{Response, WcdfpJobLine};
use bursty_rta::textfmt::parse_system;
use rta_core::par::pool_threads;
use rta_core::service::{AdmissionService, ServiceConfig};
use rta_core::wcdfp::WcdfpAccum;
use rta_sim::wcdfp::{accumulate_range, estimate_fixed, DrawModel, WcdfpConfig};
use rta_sim::{simulate, SimConfig};

use crate::client::{replay, sample_cold_start, start_measured};
use crate::stats::{best_of_passes, setup_figure, summarize, Outcome, Pass};
use crate::tenants::{tenant_name, wcdfp_tenants, WCDFP_JOBS, WCDFP_TENANTS};
use crate::{Args, PASSES};

/// Draws per request. A request takes about 2.5 ms on one CPU; at 4000
/// draws (about 5 ms) a request met a quiet moment of the host too seldom
/// and the run's figures followed the host's busy stretches.
const DRAWS: u64 = 2000;

/// Requests per second of `--seconds`, over all passes: each of the
/// `PASSES` passes sends the same `1/PASSES` share.
const REQUESTS_PER_SECOND: usize = 300;

/// The traced run times the sequential fold on every `SEQUENTIAL_EVERY`-th
/// request.
const SEQUENTIAL_EVERY: usize = 4;

struct Query {
    tenant: usize,
    seed: u64,
    line: String,
}

fn queries(seed: u64, n: usize) -> Vec<Query> {
    (0..n)
        .map(|k| {
            let tenant = k % WCDFP_TENANTS;
            let seed = seed.wrapping_mul(1_000_003).wrapping_add(k as u64);
            Query {
                tenant,
                seed,
                line: format!("WCDFP {} fixed {DRAWS} {seed}", tenant_name(tenant)),
            }
        })
        .collect()
}

/// The checks every reply must pass on its own: the requested draw count,
/// a converged fixed run, one line per job of the tenant, and each `p` an
/// exact ratio of misses to draws inside its interval's bracket.
fn check_reply(reply: &str, out: &mut Outcome) -> Option<Vec<WcdfpJobLine>> {
    let Ok(Response::Wcdfp {
        draws,
        converged,
        jobs,
        ..
    }) = Response::parse(reply)
    else {
        out.failed += 1;
        out.mismatch(format!("not a WCDFP reply: '{reply}'"));
        return None;
    };
    let mut bad = draws != DRAWS || !converged || jobs.len() != WCDFP_JOBS.len();
    for (j, name) in jobs.iter().zip(WCDFP_JOBS) {
        let misses = (j.p * DRAWS as f64).round();
        bad |= j.name != *name
            || misses / DRAWS as f64 != j.p
            || !(0.0..=1.0).contains(&j.lo)
            || !(0.0..=1.0).contains(&j.hi)
            || j.lo > j.hi
            || j.p > j.hi;
    }
    if bad {
        out.failed += 1;
        out.mismatch(format!("WCDFP reply fails its checks: '{reply}'"));
    }
    Some(jobs)
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let block = queries(
        args.seed,
        REQUESTS_PER_SECOND * args.seconds as usize / PASSES,
    );
    let systems = wcdfp_tenants(args.seed);
    let Some((bin, loads, mut warm)) = start_measured(args, &systems, &mut out) else {
        return out;
    };
    let mut setups = vec![warm.setup_s];
    let mut transcript = std::mem::take(&mut warm.transcript);

    let mut passes = Vec::with_capacity(PASSES);
    let mut first: Vec<String> = Vec::with_capacity(block.len());
    'passes: for pass in 0..PASSES {
        let mut timed = Pass::default();
        let mut replies = Vec::with_capacity(block.len());
        for q in &block {
            out.attempted += 1;
            let a0 = Instant::now();
            match warm.conn.request(&q.line) {
                Ok(r) => {
                    timed.record(a0.elapsed().as_secs_f64() * 1e6);
                    replies.push(r);
                }
                Err(e) => {
                    out.failed += 1;
                    out.mismatch(format!("{}: {e}", q.line));
                    break 'passes;
                }
            }
        }
        passes.push(timed);
        // Fixed seeds make every pass's replies identical to the first's.
        if pass == 0 {
            first = replies;
        } else if replies != first {
            let differing = replies.iter().zip(&first).filter(|(a, b)| a != b).count();
            out.failed += differing as u64;
            out.mismatch(format!(
                "pass {pass}: {differing} replies differ from pass 0"
            ));
        }
        sample_cold_start(&bin, &loads, pass + 1, &transcript, &mut setups, &mut out);
    }
    let rss = warm.daemon.peak_rss_mb();
    drop(warm);

    let mut lo_above_p = 0u64;
    for reply in &first {
        if let Some(jobs) = check_reply(reply, &mut out) {
            lo_above_p += jobs.iter().filter(|j| j.lo > j.p).count() as u64;
        }
    }
    transcript.extend(block.iter().map(|q| q.line.clone()).zip(first));
    replay(&transcript, &mut out);

    let figs = best_of_passes(&passes);
    if args.trace {
        traced_layers(&systems, &block, lo_above_p, &mut out);
    } else {
        eprintln!(
            "wcdfp-socket: {PASSES} passes x {} requests x {DRAWS} draws, tail = p{} of {} requests' best times",
            block.len(),
            figs.tail_pct,
            figs.n
        );
        out.metric("setup_s", setup_figure(&setups), "s");
        out.metric("ops_per_s", figs.ops_per_s * DRAWS as f64, "1/s");
        out.metric("p50_us", figs.p50, "us");
        out.metric("tail_us", figs.tail, "us");
        out.metric("rss_mb", rss, "MB");
        out.metric("ok_frac", out.ok_frac(), "fraction");
    }
    out
}

/// The verdict-only configuration the daemon's `WCDFP` handler uses.
fn daemon_config(seed: u64) -> WcdfpConfig {
    WcdfpConfig {
        base_seed: seed,
        sketches: false,
        ..WcdfpConfig::default()
    }
}

/// Time the simulator layers from outside: `estimate_fixed` (pooled) per
/// request, the sequential `accumulate_range` per draw on every
/// `SEQUENTIAL_EVERY`-th request, the cold loads, and the nominal event count.
fn traced_layers(systems: &[String], stream: &[Query], lo_above_p: u64, out: &mut Outcome) {
    let models: Vec<DrawModel> = systems
        .iter()
        .map(|s| DrawModel::Arrivals(parse_system(s).expect("tenant system parses")))
        .collect();

    let mut core = AdmissionService::new(ServiceConfig::default());
    let mut load_us = Vec::with_capacity(systems.len());
    for (i, s) in systems.iter().enumerate() {
        let t0 = Instant::now();
        let loaded = parse_system(s)
            .map_err(|e| e.to_string())
            .and_then(|sys| core.load(&tenant_name(i), sys).map_err(|e| e.to_string()));
        load_us.push(t0.elapsed().as_secs_f64() * 1e6);
        if let Err(e) = loaded {
            out.mismatch(format!("replica LOAD: {e}"));
        }
    }

    let (mut est_us, mut par_s, mut seq_s, mut seq_draws) = (Vec::new(), 0.0, 0.0, 0u64);
    let (mut censored, mut cells) = (0u64, 0u64);
    for (k, q) in stream.iter().enumerate() {
        let cfg = daemon_config(q.seed);
        let t0 = Instant::now();
        let rep = estimate_fixed(&models[q.tenant], &cfg, DRAWS);
        let dt = t0.elapsed().as_secs_f64();
        est_us.push(dt * 1e6);
        censored += rep.accum.jobs.iter().map(|j| j.censored).sum::<u64>();
        cells += rep.draws * rep.accum.jobs.len() as u64;
        if k % SEQUENTIAL_EVERY == 0 {
            par_s += dt;
            let mut acc = WcdfpAccum::new(cfg.mode, rep.accum.jobs.len());
            let t0 = Instant::now();
            accumulate_range(&models[q.tenant], &cfg, 0, DRAWS, &mut acc);
            seq_s += t0.elapsed().as_secs_f64();
            seq_draws += DRAWS;
            let seq_misses: Vec<u64> = acc.jobs.iter().map(|j| j.misses).collect();
            let par_misses: Vec<u64> = rep.accum.jobs.iter().map(|j| j.misses).collect();
            if seq_misses != par_misses {
                out.mismatch(format!(
                    "{}: pooled misses {par_misses:?}, sequential {seq_misses:?}",
                    q.line
                ));
            }
        }
    }

    let mut events = 0.0;
    for m in &models {
        let DrawModel::Arrivals(sys) = m else {
            continue;
        };
        let r = simulate(sys, &SimConfig::defaults_for(sys));
        let released: usize = r.releases.iter().map(Vec::len).sum();
        let completed: usize = r
            .hop_completions
            .iter()
            .flatten()
            .flatten()
            .filter(|c| c.is_some())
            .count();
        events += (released + completed) as f64;
    }

    out.metric(
        "core.pool_eff",
        seq_s / (par_s * pool_threads() as f64),
        "ratio",
    );
    out.metric(
        "core.load_us",
        load_us.iter().sum::<f64>() / load_us.len().max(1) as f64,
        "us",
    );
    out.metric("sim.estimate_us", summarize(&est_us).p50, "us");
    out.metric("sim.draw_ns", seq_s * 1e9 / seq_draws.max(1) as f64, "ns");
    out.metric("sim.events_per_draw", events / models.len() as f64, "count");
    out.metric(
        "wcdfp.censored_frac",
        censored as f64 / cells.max(1) as f64,
        "ratio",
    );
    out.metric("wcdfp.lo_above_p", lo_above_p as f64, "count");
}
