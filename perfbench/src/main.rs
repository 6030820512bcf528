//! `perfbench` — the SmartDPSS workspace benchmark.
//!
//! ```text
//! perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//! perfbench manifest
//! ```
//!
//! A run builds the workload's inputs from the seed, makes one warm-up
//! pass per input realization, then repeats passes for `--seconds`
//! (rebuilding one realization before each, so set-up is sampled across
//! the run), and checks the outputs. With `--trace 0` it prints the
//! end-to-end metrics, timed at reference host speed (see `speed`);
//! with `--trace 1` it alternates untraced and traced passes and prints
//! the per-layer metrics. The last line of standard output is one JSON
//! object: `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`.
//!
//! `manifest` prints the `BENCHMARK.json` these definitions describe.

#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]

mod clock;
mod fleet;
mod harness;
mod metrics;
mod paper;
mod serve;
mod speed;
mod stats;
mod trace;

use clock::Stamp;
use harness::{Pass, Workload};
use metrics::{Metric, END_TO_END, PER_LAYER, WORKLOADS};
use stats::{median, quantile};
use std::process::ExitCode;

const USAGE: &str = "\
usage: perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
       perfbench manifest

workloads: paper-figures | fleet-512-month | fleet-routed-year | serve-closed-loop
";

#[derive(Debug)]
struct Options {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        workload: String::new(),
        seed: 42,
        seconds: metrics::RUN_SECONDS,
        trace: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => opts.workload = value()?.clone(),
            "--seed" => opts.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                opts.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                opts.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                };
            }
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    if !WORKLOADS.iter().any(|w| w.name == opts.workload) {
        return Err(format!("unknown workload: {:?}", opts.workload));
    }
    if opts.seconds == 0 {
        return Err("--seconds must be at least 1".to_owned());
    }
    Ok(opts)
}

/// Builds the named workload once.
fn setup(name: &str, seed: u64) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "paper-figures" => Box::new(paper::PaperFigures::setup(seed)?),
        "fleet-512-month" => Box::new(fleet::Fleet::month_512(seed)?),
        "fleet-routed-year" => Box::new(fleet::Fleet::routed_year(seed)?),
        "serve-closed-loop" => Box::new(serve::Serve::setup(seed)?),
        other => return Err(format!("unknown workload: {other}")),
    })
}

/// How many times a run builds each realization up front; every pass
/// adds one more build.
fn setup_repeats(name: &str) -> usize {
    match name {
        "paper-figures" => 10,
        "fleet-routed-year" => 2,
        // The daemon's set-up is timed per session, inside each pass.
        _ => 1,
    }
}

/// How many input realizations one pass covers. Realization 0 is built
/// from `--seed` itself, the others from seeds derived from it. A
/// workload's speed and outcome depend on its inputs (the 512-site
/// month's kernel time moves by a fifth between seeds, the daemon's
/// peak memory by a quarter), so its passes average over three. Traced
/// runs profile realization 0 alone.
fn realizations(trace: bool) -> usize {
    if trace {
        1
    } else {
        3
    }
}

fn realization_seed(seed: u64, k: usize) -> u64 {
    seed ^ (k as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// What a run reports.
#[derive(Debug)]
struct Outcome {
    attempted: u64,
    failed: u64,
    pass_ms: Vec<f64>,
    scaled_ms: Vec<f64>,
    metrics: Vec<(&'static Metric, f64, String)>,
}

/// One realization of the workload: its seed and current build.
struct Realization {
    seed: u64,
    build: Option<Box<dyn Workload>>,
    reference: Pass,
}

impl Realization {
    /// Drops the current build, then builds afresh and records how long
    /// that took.
    fn rebuild(&mut self, name: &str, setups: &mut Vec<f64>) -> Result<(), String> {
        drop(self.build.take());
        let (build, ns) = speed::timed(|| setup(name, self.seed));
        self.build = Some(build?);
        setups.push(ns / 1e9);
        Ok(())
    }

    fn workload(&mut self) -> Result<&mut dyn Workload, String> {
        Ok(self.build.as_mut().ok_or("no set-up ran")?.as_mut())
    }
}

/// Sums the passes over each realization into one pass.
fn combine(parts: Vec<Pass>) -> Pass {
    let mut out = Pass::default();
    for p in parts {
        out.wall_ns += p.wall_ns;
        out.scaled_ns += p.scaled_ns;
        out.ops_ns.extend(p.ops_ns);
        out.kinds.extend(p.kinds);
        out.setup_ns.extend(p.setup_ns);
        out.requests += p.requests;
        out.site_frames += p.site_frames;
        out.errors += p.errors;
        out.peak_rss_mb = out.peak_rss_mb.max(p.peak_rss_mb);
        out.layers.extend(p.layers);
    }
    out
}

fn run(opts: &Options) -> Result<Outcome, String> {
    let name = opts.workload.as_str();
    let mut setups = Vec::new();
    let mut set: Vec<Realization> = (0..realizations(opts.trace))
        .map(|k| Realization {
            seed: realization_seed(opts.seed, k),
            build: None,
            reference: Pass::default(),
        })
        .collect();
    for (k, r) in set.iter_mut().enumerate() {
        for _ in 0..setup_repeats(name) {
            r.rebuild(name, &mut setups)?;
        }
        // Warm-up pass: fills caches, and its outputs are the reference.
        // Traced passes and the costliest checks compare every byte with
        // realization 0's.
        r.reference = r.workload()?.pass(k == 0)?;
    }
    let deadline = Stamp::in_seconds(opts.seconds);
    let mut passes = Vec::new();
    let mut traced = Vec::new();
    let mut repeats = Vec::new();
    let mut keep = |p: Pass, reference: &Pass, what: &str, full: bool| {
        let same = p.output == reference.output && (!full || p.full == reference.full);
        repeats.push(harness::Check::new(
            &format!("{what} outputs equal the warm-up pass"),
            same,
        ));
        p
    };
    for iteration in 0.. {
        // One fresh build before every pass spreads the set-up samples
        // over the run, as the passes are.
        let k = iteration % set.len();
        if let Some(r) = set.get_mut(k) {
            r.rebuild(name, &mut setups)?;
        }
        let mut parts = Vec::with_capacity(set.len());
        let mut traced_parts = Vec::new();
        for r in &mut set {
            let what = format!("pass {} (seed {})", iteration + 1, r.seed);
            let pass = r.workload()?.pass(false)?;
            parts.push(keep(pass, &r.reference, &what, false));
            if opts.trace {
                let pass = r.workload()?.traced_pass()?;
                let what = format!("traced {what} (every byte)");
                traced_parts.push(keep(pass, &r.reference, &what, true));
            }
        }
        passes.push(combine(parts));
        if opts.trace {
            traced.push(combine(traced_parts));
        }
        if deadline.passed() {
            break;
        }
    }
    let self_rss = stats::peak_rss_mb("self");

    let mut checks = Vec::new();
    let (mut cost, mut delay) = (0.0, 0.0);
    let share = 1.0 / set.len() as f64;
    for (k, r) in set.iter_mut().enumerate() {
        let reference = std::mem::take(&mut r.reference);
        let w = r.workload()?;
        checks.extend(w.checks(&reference, k)?);
        let (c, d) = w.outcome(&reference);
        cost += c;
        delay += d * share;
        r.reference = reference;
    }
    checks.append(&mut repeats);
    for c in checks.iter().filter(|c| !c.ok) {
        eprintln!("perfbench: check failed: {}", c.name);
    }
    let all = || {
        passes
            .iter()
            .chain(&traced)
            .chain(set.iter().map(|r| &r.reference))
    };
    let requests: u64 = all().map(|p| p.requests).sum();
    let errors: u64 = all().map(|p| p.errors).sum();
    let attempted = requests + checks.len() as u64;
    let failed = errors + checks.iter().filter(|c| !c.ok).count() as u64;

    let metrics = if opts.trace {
        per_layer(&passes, &traced)
    } else {
        let pass_setups: Vec<f64> = all()
            .flat_map(|p| p.setup_ns.iter().map(|ns| ns / 1e9))
            .collect();
        if !pass_setups.is_empty() {
            setups = pass_setups;
        }
        let rss = passes.iter().map(|p| p.peak_rss_mb).fold(0.0, f64::max);
        end_to_end(
            &passes,
            &setups,
            cost,
            delay,
            if rss > 0.0 { rss } else { self_rss },
        )
    };
    drop(set);
    Ok(Outcome {
        attempted,
        failed,
        pass_ms: passes.iter().map(|p| p.wall_ns / 1e6).collect(),
        scaled_ms: passes.iter().map(|p| p.scaled_ns / 1e6).collect(),
        metrics,
    })
}

fn metric(name: &str, defs: &'static [Metric]) -> Result<&'static Metric, String> {
    defs.iter()
        .find(|m| m.name == name)
        .ok_or_else(|| format!("undefined metric {name}"))
}

/// The end-to-end metrics of a run. Timings are at reference host speed
/// (see `speed`) and are medians: set-up over every build of the run,
/// rates over its passes.
fn end_to_end(
    passes: &[Pass],
    setups: &[f64],
    cost: f64,
    delay: f64,
    rss: f64,
) -> Vec<(&'static Metric, f64, String)> {
    let first = passes.first().cloned().unwrap_or_default();
    let scaled: Vec<f64> = passes.iter().map(|p| p.scaled_ns).collect();
    let pass_s = median(&scaled) / 1e9;
    let rate = |count: u64| count as f64 / pass_s;
    let n = passes.len();
    let values = [
        (
            "setup_s",
            median(setups),
            format!("median of {} set-ups", setups.len()),
        ),
        (
            "site_frames_per_s",
            rate(first.site_frames),
            format!("median of {n} passes"),
        ),
        (
            "requests_per_s",
            rate(first.requests),
            format!("median of {n} passes"),
        ),
        ("cost_usd", cost, "per pass".to_owned()),
        ("delay_slots", delay, "per pass".to_owned()),
        ("peak_rss_mb", rss, "VmHWM".to_owned()),
    ];
    values
        .into_iter()
        .filter_map(|(name, v, note)| metric(name, &END_TO_END).ok().map(|m| (m, v, note)))
        .collect()
}

/// Each operation's fastest latency over the passes, in operation order
/// (inputs repeat exactly, so operation `k` does the same work in every
/// pass).
fn best_per_op(passes: &[Pass]) -> Vec<f64> {
    let mut best: Vec<f64> = Vec::new();
    for p in passes {
        if best.is_empty() {
            best.clone_from(&p.ops_ns);
        } else {
            for (b, &x) in best.iter_mut().zip(&p.ops_ns) {
                *b = b.min(x);
            }
        }
    }
    best
}

fn per_layer(untraced: &[Pass], traced: &[Pass]) -> Vec<(&'static Metric, f64, String)> {
    let (n, u) = (traced.len(), untraced.len());
    let layer = |name: &str| -> f64 {
        let values: Vec<f64> = traced
            .iter()
            .filter_map(|p| p.layers.iter().find(|(l, _)| l == name).map(|(_, v)| *v))
            .collect();
        median(&values)
    };
    let ops = best_per_op(untraced);
    let fastest = |ps: &[Pass]| ps.iter().map(|p| p.wall_ns).fold(f64::INFINITY, f64::min);
    let overhead = fastest(traced) / fastest(untraced) - 1.0;
    let kind = |k: &str, q: f64, scale: f64| -> f64 {
        let xs: Vec<f64> = untraced
            .iter()
            .flat_map(|p| p.kinds.iter().filter(|(name, _)| *name == k))
            .flat_map(|(_, v)| v.iter().copied())
            .collect();
        quantile(&xs, q) / scale
    };
    let best_ops = format!("n={} operations, fastest of {u} untraced passes", ops.len());
    let wire = format!("pooled over {u} untraced passes");
    PER_LAYER
        .iter()
        .map(|m| {
            let (v, note) = match m.name {
                "op_p50_us" => (quantile(&ops, 0.5) / 1e3, best_ops.clone()),
                "op_p90_us" => (quantile(&ops, 0.9) / 1e3, best_ops.clone()),
                "serve.wire.tick_p50_us" => (kind("tick", 0.5, 1e3), wire.clone()),
                "serve.wire.tick_p99_us" => (kind("tick", 0.99, 1e3), wire.clone()),
                "serve.wire.step_p50_us" => (kind("step", 0.5, 1e3), wire.clone()),
                "serve.wire.step_p95_us" => (kind("step", 0.95, 1e3), wire.clone()),
                "serve.wire.snapshot_p50_ms" => (kind("snapshot", 0.5, 1e6), wire.clone()),
                "trace_overhead_frac" => (
                    overhead,
                    "fastest traced over fastest untraced pass".to_owned(),
                ),
                name => (layer(name), format!("median of {n} traced passes")),
            };
            (m, v, note)
        })
        .collect()
}

/// Renders a finite number as JSON (non-finite values become 0).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("manifest") {
        print!("{}", metrics::manifest());
        return ExitCode::SUCCESS;
    }
    let opts = match parse_args(&argv) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: error: {e}");
            eprint!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match run(&opts) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: error: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "workload {} seed {} ({}s, trace {})",
        opts.workload,
        opts.seed,
        opts.seconds,
        u8::from(opts.trace)
    );
    let walls = |ms: &[f64]| -> String {
        let text: Vec<String> = ms.iter().map(|ms| format!("{ms:.1}")).collect();
        text.join(" ")
    };
    println!("  untraced pass walls (ms): {}", walls(&outcome.pass_ms));
    println!("  at reference speed (ms):  {}", walls(&outcome.scaled_ms));
    let mut fields = Vec::new();
    for (m, v, note) in &outcome.metrics {
        println!("  {:<32} {:>18.6} {:<8} {note}", m.name, v, m.unit);
        fields.push(format!(
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            json_number(*v),
            m.unit
        ));
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed,
        fields.join(", ")
    );
    ExitCode::SUCCESS
}
