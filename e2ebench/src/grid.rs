//! `fig-grid`: every cell of Figures 3 and 4 through
//! `admission_probability` on the default worker pool.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use rta_bench::admission::{admission_probability, admission_probability_strided, Method};
use rta_bench::figures::{fig3_panels, fig4_panels, utilization_sweep};
use rta_core::holistic::holistic_schedulable;
use rta_core::{analyze_bounds, analyze_exact_spp, AnalysisConfig};
use rta_model::jobshop::{ShopConfig, ShopSampler};
use rta_model::priority::{assign_priorities, PriorityPolicy};

use crate::stats::{best_of_passes, setup_figure, Outcome, Pass};
use crate::{peak_rss_mb, Args, PASSES};

/// Job sets analysed per cell per second of `--seconds`, over all passes:
/// 30 s gives 36 passes of 14 sets in each of the 378 cells.
const SETS_PER_CELL_PER_SECOND: u32 = 16;

/// The committed golden: per-cell admitted counts for one seed and size.
const GOLDEN: &str = include_str!("../golden/fig-grid.txt");

struct Cell {
    label: String,
    base: ShopConfig,
    method: Method,
    seed: u64,
}

/// The 378 cells in panel, method, utilization order. Like
/// `figures::run_panel`, every method of a panel sees the same sets at a
/// given utilization.
fn cells(master: u64) -> Vec<Cell> {
    let mut out = Vec::new();
    for (fig, panels) in [(3, fig3_panels()), (4, fig4_panels())] {
        for (pi, panel) in panels.iter().enumerate() {
            for &method in &panel.methods {
                for u in utilization_sweep() {
                    let mut base = panel.base.clone();
                    base.utilization = u;
                    out.push(Cell {
                        label: format!("fig{fig} panel {pi} {} U={u}", method.label()),
                        base,
                        method,
                        seed: master ^ ((u * 1000.0) as u64),
                    });
                }
            }
        }
    }
    out
}

/// The grid's master seed for a workload seed.
fn master_seed(seed: u64) -> u64 {
    seed.wrapping_mul(0xD1B5_4A32_D192_ED03) ^ 0x05EE_DF16_u64
}

/// Sets per cell in one pass.
fn sets_per_cell(seconds: u64) -> u32 {
    (SETS_PER_CELL_PER_SECOND * seconds as u32).div_ceil(PASSES as u32)
}

/// The cold start `setup_s` times, run in a child process: start the
/// pool and analyse the first set of every cell.
pub fn setup_child(seed: u64) {
    let acfg = AnalysisConfig::default();
    let mut admitted = 0u32;
    for cell in cells(master_seed(seed)) {
        let p = admission_probability(&cell.base, cell.method, 1, cell.seed, 0, &acfg);
        admitted += u32::from(p > 0.0);
    }
    println!("ready {admitted}");
}

/// Time one cold start in a child process.
fn sample_cold_start(args: &Args, setups: &mut Vec<f64>, out: &mut Outcome) {
    let exe = std::env::current_exe().expect("own executable path");
    let t0 = Instant::now();
    let child = std::process::Command::new(&exe)
        .args(["--setup-child", &args.seed.to_string()])
        .stderr(std::process::Stdio::inherit())
        .output();
    setups.push(t0.elapsed().as_secs_f64());
    match child {
        Ok(o) if o.status.success() && o.stdout.starts_with(b"ready ") => {}
        Ok(o) => out.mismatch(format!("setup child exited with {}", o.status)),
        Err(e) => out.mismatch(format!("setup child did not start: {e}")),
    }
}

/// Golden counts for (`seed`, `sets`), if the committed file holds them.
fn golden_counts(seed: u64, sets: u32) -> Option<Vec<u32>> {
    let mut lines = GOLDEN.lines().filter(|l| !l.starts_with('#'));
    let header: Vec<u64> = lines
        .next()?
        .split_whitespace()
        .filter_map(|w| w.split_once('=').and_then(|(_, v)| v.parse().ok()))
        .collect();
    if header != [seed, u64::from(sets)] {
        return None;
    }
    lines
        .map(|l| l.rsplit(' ').next().and_then(|v| v.parse().ok()))
        .collect()
}

/// Render the golden file for the current run (`--write-golden`).
fn golden_text(seed: u64, sets: u32, cells: &[Cell], counts: &[u32]) -> String {
    let mut s = String::from(
        "# Admitted sets per Figure 3/4 cell, from the pooled admission_probability\n\
         # sweep, checked against the sequential admission_probability_strided.\n",
    );
    s.push_str(&format!("seed={seed} sets={sets}\n"));
    for (c, n) in cells.iter().zip(counts) {
        s.push_str(&format!("{} {n}\n", c.label));
    }
    s
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let acfg = AnalysisConfig::default();
    let sets = sets_per_cell(args.seconds);
    let cells = cells(master_seed(args.seed));
    let mut setups = Vec::with_capacity(PASSES + 1);
    sample_cold_start(args, &mut setups, &mut out);

    // The measured sweep, one cell at a time like the figure binaries, in
    // identical passes.
    let mut passes = Vec::with_capacity(PASSES);
    let mut counts: Vec<u32> = Vec::with_capacity(cells.len());
    for pass in 0..PASSES {
        let mut timed = Pass::default();
        for (k, cell) in cells.iter().enumerate() {
            let c0 = Instant::now();
            let p = admission_probability(&cell.base, cell.method, sets, cell.seed, 0, &acfg);
            timed.record(c0.elapsed().as_secs_f64() * 1e6);
            let admitted = (p * f64::from(sets)).round() as u32;
            if p != f64::from(admitted) / f64::from(sets) {
                out.mismatch(format!("{}: probability {p} is not a ratio", cell.label));
            }
            if pass == 0 {
                counts.push(admitted);
            } else if counts[k] != admitted {
                out.failed += 1;
                out.mismatch(format!("{}: pass {pass} admitted {admitted}", cell.label));
            }
        }
        passes.push(timed);
        sample_cold_start(args, &mut setups, &mut out);
    }
    let figs = best_of_passes(&passes);
    let rss = peak_rss_mb(std::process::id());
    out.attempted = u64::from(sets) * cells.len() as u64 * PASSES as u64;

    // Output checks, untimed: the committed golden when it covers this
    // seed and size, and always the sequential estimator below.
    if let Some(golden) = golden_counts(args.seed, sets) {
        if golden.len() != cells.len() {
            out.mismatch(format!("golden has {} cells", golden.len()));
        }
        for ((cell, &got), &want) in cells.iter().zip(&counts).zip(&golden) {
            if got != want {
                out.failed += u64::from(got.abs_diff(want));
                out.mismatch(format!("{}: {got} admitted, golden {want}", cell.label));
            }
        }
    }
    // The reference: the sequential pre-pool estimator, which builds each
    // set with `generate` rather than the pooled sampler.
    for (cell, &got) in cells.iter().zip(&counts) {
        let p = admission_probability_strided(&cell.base, cell.method, sets, cell.seed, 1, &acfg);
        let want = (p * f64::from(sets)).round() as u32;
        if got != want {
            out.failed += u64::from(got.abs_diff(want));
            out.mismatch(format!(
                "{}: pooled {got} admitted, sequential {want}",
                cell.label
            ));
        }
    }
    if let Some(path) = &args.write_golden {
        std::fs::write(path, golden_text(args.seed, sets, &cells, &counts))
            .expect("write golden file");
    }

    if args.trace {
        // `core.pool_eff` comes from `wcdfp-socket` alone.
        traced_replay(&cells, sets, &acfg, &mut out);
    } else {
        eprintln!(
            "fig-grid: {PASSES} passes x {} cells x {sets} sets, tail = p{} of {} cells' best times",
            cells.len(),
            figs.tail_pct,
            figs.n
        );
        out.metric("setup_s", setup_figure(&setups), "s");
        out.metric("ops_per_s", f64::from(sets) * figs.ops_per_s, "1/s");
        out.metric("p50_us", figs.p50, "us");
        out.metric("tail_us", figs.tail, "us");
        out.metric("rss_mb", rss, "MB");
        out.metric("ok_frac", out.ok_frac(), "fraction");
    }
    out
}

/// Per-layer accumulators of the traced sequential pass.
#[derive(Default)]
struct Layer {
    total_s: f64,
    calls: u64,
}

impl Layer {
    fn add(&mut self, t0: Instant) {
        self.total_s += t0.elapsed().as_secs_f64();
        self.calls += 1;
    }

    fn mean_us(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.total_s * 1e6 / self.calls as f64
        }
    }
}

/// A sequential sweep of the grid split at the layer boundaries: draw a
/// set (`ShopSampler::sample`), assign priorities, run the method's
/// analysis. It times the layers on `sets` sets per cell drawn from one
/// generator per cell. The measured sweep's outputs are checked against
/// `admission_probability_strided`, not against this sweep.
fn traced_replay(cells: &[Cell], sets: u32, acfg: &AnalysisConfig, out: &mut Outcome) {
    let (mut sample, mut prio) = (Layer::default(), Layer::default());
    let (mut bounds, mut exact, mut holistic) =
        (Layer::default(), Layer::default(), Layer::default());
    for cell in cells {
        let mut shop = cell.base.clone();
        shop.scheduler = cell.method.scheduler();
        let mut sampler = ShopSampler::new(shop).expect("figure shop template");
        let mut rng = StdRng::seed_from_u64(cell.seed);
        for _ in 0..sets {
            let t0 = Instant::now();
            let drawn = sampler.sample(&mut rng);
            sample.add(t0);
            let Ok(sys) = drawn else { continue };
            if cell.method.scheduler().uses_priorities() {
                let t0 = Instant::now();
                let ranked = assign_priorities(sys, PriorityPolicy::RelativeDeadlineMonotonic);
                prio.add(t0);
                if ranked.is_err() {
                    continue;
                }
            }
            let t0 = Instant::now();
            match cell.method {
                Method::SppExact => {
                    std::hint::black_box(analyze_exact_spp(sys, acfg).ok());
                    exact.add(t0);
                }
                Method::SpnpApp | Method::FcfsApp => {
                    std::hint::black_box(analyze_bounds(sys, acfg).ok());
                    bounds.add(t0);
                }
                Method::SppSL => {
                    std::hint::black_box(holistic_schedulable(sys, acfg).ok());
                    holistic.add(t0);
                }
            }
        }
    }
    out.metric("model.sample_us", sample.mean_us(), "us");
    out.metric("model.priority_us", prio.mean_us(), "us");
    out.metric("core.bounds_us", bounds.mean_us(), "us");
    out.metric("core.exact_us", exact.mean_us(), "us");
    out.metric("core.holistic_us", holistic.mean_us(), "us");
}
