//! `admit-exact` / `admit-loops`: a closed-loop stream of `ADMIT` probes
//! (each admitted probe followed by its `REMOVE`) over one connection to a
//! real `rta-admit --serve-unix` daemon holding warm tenants.

use std::time::Instant;

use bursty_rta::proto::Response;
use bursty_rta::textfmt::{parse_system, resolve_job};
use rta_core::service::{AdmissionService, ServiceConfig};

use crate::client::{parse_request, replay, sample_cold_start, start_measured, LayerTimes};
use crate::stats::{best_of_passes, best_of_passes_p50, setup_figure, Outcome, Pass};
use crate::tenants::{admit_tenants, probes, tenant_name, Flavor, ADMIT_TENANTS};
use crate::{Args, PASSES};

/// Probes per second of `--seconds` over all passes, per flavor (the
/// exact oracle answers faster than the fixed point); each of the
/// `PASSES` passes sends the same block of `1/PASSES` of them.
fn probes_per_second(flavor: Flavor) -> usize {
    match flavor {
        Flavor::Exact => 4000,
        Flavor::Loops => 2400,
    }
}

/// The tenant fleet is the same for every `--seed`; the seed draws the
/// probe stream. About one probe in a hundred lands on the fleet's
/// costliest tenant, so the p99 of a fleet drawn per seed was mostly that
/// tenant's cost, and it varied from seed to seed more than the host did.
const FLEET_SEED: u64 = 0;

pub fn run(args: &Args, flavor: Flavor) -> Outcome {
    let mut out = Outcome::default();
    let block = probes(
        args.seed,
        probes_per_second(flavor) * args.seconds as usize / PASSES,
    );
    let systems = admit_tenants(FLEET_SEED, flavor);
    let Some((bin, loads, mut warm)) = start_measured(args, &systems, &mut out) else {
        return out;
    };
    for (_, reply) in &warm.transcript {
        if !reply.ends_with("verdict=schedulable") {
            out.mismatch(format!("LOAD answered '{reply}'"));
        }
    }
    let mut setups = vec![warm.setup_s];
    let loaded = warm.transcript.clone();
    let mut transcript = std::mem::take(&mut warm.transcript);

    // The measured closed loop: one ADMIT at a time, its REMOVE if
    // admitted, so every pass starts from the loaded tenants.
    let mut passes = Vec::with_capacity(PASSES);
    let mut admitted = 0usize;
    'passes: for pass in 0..PASSES {
        let mut timed = Pass::default();
        for probe in &block {
            out.attempted += 1;
            let a0 = Instant::now();
            let reply = match warm.conn.request(&probe.line) {
                Ok(r) => r,
                Err(e) => {
                    out.failed += 1;
                    out.mismatch(format!("ADMIT {}: {e}", probe.job));
                    break 'passes;
                }
            };
            let lat_us = a0.elapsed().as_secs_f64() * 1e6;
            if reply.starts_with("ERR") {
                out.failed += 1;
            }
            let ok = matches!(
                Response::parse(&reply),
                Ok(Response::Admitted { admitted: true, .. })
            );
            transcript.push((probe.line.clone(), reply));
            if ok {
                admitted += 1;
                let remove = format!("REMOVE {} {}", tenant_name(probe.tenant), probe.job);
                match warm.conn.request(&remove) {
                    Ok(r) => transcript.push((remove, r)),
                    Err(e) => {
                        out.failed += 1;
                        out.mismatch(format!("REMOVE {}: {e}", probe.job));
                        break 'passes;
                    }
                }
            }
            timed.record_cycle(lat_us, a0.elapsed().as_secs_f64() * 1e6);
        }
        passes.push(timed);
        sample_cold_start(&bin, &loads, pass + 1, &loaded, &mut setups, &mut out);
    }

    // Session counters after the stream (untimed; also replay-checked).
    let mut stats = Vec::with_capacity(ADMIT_TENANTS);
    for i in 0..ADMIT_TENANTS {
        let req = format!("STATS {}", tenant_name(i));
        match warm.conn.request(&req) {
            Ok(r) => {
                stats.push(r.clone());
                transcript.push((req, r));
            }
            Err(e) => out.mismatch(format!("{req}: {e}")),
        }
    }
    let rss = warm.daemon.peak_rss_mb();
    drop(warm);

    let probes = block.len() * PASSES;
    eprintln!(
        "{}: {PASSES} passes x {} probes, {admitted} of {probes} admitted",
        args.workload,
        block.len()
    );
    if admitted == 0 || admitted == probes {
        out.mismatch(format!(
            "probe stream must both admit and reject ({admitted} of {probes} admitted)"
        ));
    }

    let figs = best_of_passes(&passes);
    let times = replay(&transcript, &mut out);
    if args.trace {
        traced_layers(&transcript, &times, block.len(), figs.p50, &stats, &mut out);
    } else {
        eprintln!("tail = p{} of {} ADMITs' best times", figs.tail_pct, figs.n);
        out.metric("setup_s", setup_figure(&setups), "s");
        out.metric("ops_per_s", figs.ops_per_s, "1/s");
        out.metric("p50_us", figs.p50, "us");
        out.metric("tail_us", figs.tail, "us");
        out.metric("rss_mb", rss, "MB");
        out.metric("ok_frac", out.ok_frac(), "fraction");
    }
    out
}

/// Sum a `key=<n>` field over `OK STATS` replies.
fn stat_sum(stats: &[String], key: &str) -> f64 {
    stats
        .iter()
        .filter_map(|line| {
            line.split_whitespace()
                .find_map(|w| w.strip_prefix(key)?.strip_prefix('='))
                .and_then(|v| v.parse::<u64>().ok())
        })
        .sum::<u64>() as f64
}

/// Read the layer times the replay took per `ADMIT` (`Request::parse`,
/// `ShardedService::apply`, the `Response` display), and time from
/// outside what the replay does not cover: `AdmissionService::admit` on
/// an unsharded replica, and the cold loads.
fn traced_layers(
    transcript: &[(String, String)],
    times: &[LayerTimes],
    block: usize,
    socket_p50: f64,
    stats: &[String],
    out: &mut Outcome,
) {
    let us = |t: Instant| t.elapsed().as_secs_f64() * 1e6;
    let admits: Vec<&LayerTimes> = transcript
        .iter()
        .zip(times)
        .filter(|((req, _), _)| req.starts_with("ADMIT"))
        .map(|(_, t)| t)
        .collect();
    let parse: Vec<f64> = admits.iter().map(|t| t.parse_us).collect();
    let apply: Vec<f64> = admits.iter().map(|t| t.apply_us).collect();
    let format: Vec<f64> = admits.iter().map(|t| t.format_us).collect();

    let mut core = AdmissionService::new(ServiceConfig::default());
    let mut load_us = Vec::new();
    let mut admit_us = Vec::new();
    for (req, _) in transcript {
        match parse_request(req) {
            Ok(bursty_rta::proto::Request::Load { tenant, system }) => {
                let t0 = Instant::now();
                let loaded = parse_system(&system)
                    .map_err(|e| e.to_string())
                    .and_then(|sys| core.load(&tenant, sys).map_err(|e| e.to_string()));
                load_us.push(us(t0));
                if let Err(e) = loaded {
                    out.mismatch(format!("replica LOAD {tenant}: {e}"));
                }
            }
            Ok(bursty_rta::proto::Request::Admit { tenant, job }) => {
                let Some(sys) = core.tenant_system(&tenant) else {
                    continue;
                };
                let Ok(job) = resolve_job(sys, &job) else {
                    continue;
                };
                let t0 = Instant::now();
                let r = core.admit(&tenant, job);
                admit_us.push(us(t0));
                std::hint::black_box(r.ok());
            }
            Ok(bursty_rta::proto::Request::Remove { tenant, job }) => {
                std::hint::black_box(core.remove(&tenant, &job).ok());
            }
            _ => {}
        }
    }

    let p50 = |v: &[f64]| best_of_passes_p50(v, block);
    let (parse, apply, format) = (p50(&parse), p50(&apply), p50(&format));
    out.metric("proto.parse_us", parse, "us");
    out.metric("daemon.apply_us", apply, "us");
    out.metric("core.admit_us", p50(&admit_us), "us");
    out.metric("proto.format_us", format, "us");
    out.metric("transport_us", socket_p50 - (parse + apply + format), "us");
    out.metric(
        "core.load_us",
        load_us.iter().sum::<f64>() / load_us.len().max(1) as f64,
        "us",
    );
    let recomputed = stat_sum(stats, "recomputed");
    let reused = stat_sum(stats, "reused");
    out.metric("session.analyses", stat_sum(stats, "analyses"), "count");
    out.metric("session.recomputed", recomputed, "count");
    out.metric("session.reused", reused, "count");
    out.metric(
        "session.reuse_frac",
        reused / (reused + recomputed).max(1.0),
        "ratio",
    );
    out.metric(
        "session.verdict_hits",
        stat_sum(stats, "verdict_hits"),
        "count",
    );
    out.metric(
        "session.verdict_misses",
        stat_sum(stats, "verdict_misses"),
        "count",
    );
    out.metric(
        "session.warm_starts",
        stat_sum(stats, "warm_starts"),
        "count",
    );
}
