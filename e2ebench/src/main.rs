//! End-to-end and per-layer benchmark of bursty-rta.
//!
//! ```text
//! e2ebench --workload <fig-grid|admit-exact|admit-loops|wcdfp-socket>
//!          --seed <n> --seconds <s> --trace <0|1> --daemon <rta-admit>
//! ```
//!
//! Every workload performs a fixed number of operations for a given
//! `--seconds` (the count scales with it; the clock never stops a run) in
//! identical passes, checks every output, and prints one JSON object as its
//! last stdout line. With `--trace 0` it reports the end-to-end metrics;
//! with `--trace 1` it runs the same workload and then times the calls into
//! each layer's public functions from outside, reporting the per-layer
//! metrics. `NOTES.md` explains the workloads and what each metric should
//! move.

mod admit;
mod client;
mod grid;
mod stats;
mod tenants;
mod wcdfp;

use std::path::PathBuf;

use stats::Outcome;

/// Identical passes over a workload's block of operations (see
/// `stats::best_of_passes`); `setup_s` comes from one cold start before
/// the first pass and one after each (see `stats::setup_figure`).
pub const PASSES: usize = 36;

/// End-to-end metrics, in output order.
const END_TO_END: [&str; 6] = [
    "setup_s",
    "ops_per_s",
    "p50_us",
    "tail_us",
    "rss_mb",
    "ok_frac",
];

/// Per-layer metrics with their units, in output order. A workload that
/// does not reach a layer reports 0 for it.
const PER_LAYER: [(&str, &str); 24] = [
    ("model.sample_us", "us"),
    ("model.priority_us", "us"),
    ("core.bounds_us", "us"),
    ("core.exact_us", "us"),
    ("core.holistic_us", "us"),
    ("core.pool_eff", "ratio"),
    ("proto.parse_us", "us"),
    ("daemon.apply_us", "us"),
    ("core.admit_us", "us"),
    ("proto.format_us", "us"),
    ("transport_us", "us"),
    ("core.load_us", "us"),
    ("session.analyses", "count"),
    ("session.recomputed", "count"),
    ("session.reused", "count"),
    ("session.reuse_frac", "ratio"),
    ("session.verdict_hits", "count"),
    ("session.verdict_misses", "count"),
    ("session.warm_starts", "count"),
    ("sim.estimate_us", "us"),
    ("sim.draw_ns", "ns"),
    ("sim.events_per_draw", "count"),
    ("wcdfp.censored_frac", "ratio"),
    ("wcdfp.lo_above_p", "count"),
];

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub daemon: Option<PathBuf>,
    pub write_golden: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
        daemon: None,
        write_golden: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = val()?,
            "--seed" => args.seed = val()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => args.seconds = val()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                args.trace = match val()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--daemon" => args.daemon = Some(PathBuf::from(val()?)),
            "--write-golden" => args.write_golden = Some(PathBuf::from(val()?)),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if args.seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(args)
}

/// Peak resident set of a process, from `/proc/<pid>/status` (`VmHWM`).
pub fn peak_rss_mb(pid: u32) -> f64 {
    std::fs::read_to_string(format!("/proc/{pid}/status"))
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// Pin this process to the highest-numbered CPU it may run on, before the
/// worker pool starts, and return that CPU. The daemons and set-up
/// children it spawns inherit the mask. On one CPU a closed loop never
/// leaves a CPU idle: the client and the daemon hand the CPU to each other
/// instead of waking a halted virtual CPU, whose wake-up time depends on
/// the rest of the host. The pool then has one participant
/// (`available_parallelism` follows the mask).
fn pin_to_one_cpu() -> Result<usize, String> {
    let mut mask = [0u64; 16];
    let size = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is a writable `cpu_set_t`-sized buffer of `size` bytes.
    if unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } != 0 {
        return Err(format!(
            "sched_getaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    let cpu = (0..size * 8)
        .rev()
        .find(|&c| mask[c / 64] >> (c % 64) & 1 == 1)
        .ok_or("no CPU in the affinity mask")?;
    let mut one = [0u64; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a readable `cpu_set_t`-sized buffer of `size` bytes.
    if unsafe { sched_setaffinity(0, size, one.as_ptr()) } != 0 {
        return Err(format!(
            "sched_setaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(cpu)
}

/// Order the reported metrics as `END_TO_END` and `PER_LAYER` list them,
/// filling per-layer metrics of layers the workload does not reach with 0.
fn finish(mut out: Outcome, trace: bool) -> Outcome {
    let mut ordered = Vec::new();
    if trace {
        for (name, unit) in PER_LAYER {
            let v = out
                .metrics
                .iter()
                .find(|m| m.0 == name)
                .map_or(0.0, |m| m.1);
            ordered.push((name, v, unit));
        }
    } else {
        for name in END_TO_END {
            match out.metrics.iter().find(|m| m.0 == name) {
                Some(&m) => ordered.push(m),
                None => out.mismatch(format!("metric {name} was not measured")),
            }
        }
    }
    out.metrics = ordered;
    out
}

fn main() {
    let argv: Vec<String> = std::env::args().collect();
    if let [_, flag, seed] = argv.as_slice() {
        if flag == "--setup-child" {
            grid::setup_child(seed.parse().expect("setup child seed"));
            return;
        }
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            std::process::exit(2);
        }
    };
    match pin_to_one_cpu() {
        Ok(cpu) => eprintln!(
            "e2ebench: pinned to CPU {cpu}, pool_threads() = {}",
            rta_core::par::pool_threads()
        ),
        Err(e) => {
            eprintln!("e2ebench: cannot pin to one CPU: {e}");
            std::process::exit(2);
        }
    }
    let out = match args.workload.as_str() {
        "fig-grid" => grid::run(&args),
        "admit-exact" => admit::run(&args, tenants::Flavor::Exact),
        "admit-loops" => admit::run(&args, tenants::Flavor::Loops),
        "wcdfp-socket" => wcdfp::run(&args),
        other => {
            eprintln!("e2ebench: unknown workload '{other}'");
            std::process::exit(2);
        }
    };
    let out = finish(out, args.trace);
    for m in out.mismatches.iter().take(10) {
        eprintln!("e2ebench: MISMATCH {m}");
    }
    for (name, value, unit) in &out.metrics {
        eprintln!("  {name:<24} {value:>14.4} {unit}");
    }
    println!("{}", out.json());
}
