//! The repository benchmark: runs one workload for a fixed host time,
//! checks its simulated outputs, and prints every metric by name with its
//! unit and direction. The last stdout line is the JSON result.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <studies|grid|telemetry> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` is the end-to-end run (tracing and profiling off);
//! `--trace 1` is the layer run (see `layers.rs`). README.md describes the
//! workloads, metrics and loops.

mod cells;
mod digest;
mod layers;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use layers::{quantile, Spec};
use workloads::{Iteration, Prepared, Workload};

/// Sweep workers: one per core of the 2-core host the benchmark targets.
pub const JOBS: usize = 2;
/// Set-ups per end-to-end run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Timed iterations per run at least, so every run can check that
/// repeated iterations give identical simulated outputs.
const MIN_ITERATIONS: usize = 2;

/// The paper's headline gains (§VII-B), for the accuracy context line.
const PAPER_GAIN_VS_ALLAU: f64 = 0.088;
const PAPER_GAIN_VS_OBLIVIOUS: f64 = 0.047;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    layer_run: bool,
}

const USAGE: &str = "usage: aum-perfbench --workload <studies|grid|telemetry> [--seed <n>] \
                     [--seconds <s>] [--trace <0|1>]";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: Workload::Grid,
        seed: digest::DEFAULT_SEED,
        seconds: 10.0,
        layer_run: false,
    };
    let mut workload = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value).ok_or_else(bad)?),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad())?;
                if !(args.seconds >= 0.0 && args.seconds.is_finite()) {
                    return Err(bad());
                }
            }
            "--trace" => {
                args.layer_run = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    args.workload = workload.ok_or("--workload is required")?;
    Ok(args)
}

/// Benchmark scratch output (the `telemetry` trace and incident dumps),
/// inside the checkout the benchmark was built from.
fn out_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
}

/// Peak resident set of this process, MiB (`VmHWM`).
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// Quartiles and median of host-time samples, with the sample count.
fn spread(samples: &[f64]) -> String {
    format!(
        "median of {} (q1 {:.4}, q3 {:.4})",
        samples.len(),
        quantile(samples, 0.25),
        quantile(samples, 0.75)
    )
}

/// Everything a run decides about correctness.
#[derive(Default)]
struct Verdict {
    attempted: u64,
    failures: Vec<String>,
    problems: Vec<String>,
}

impl Verdict {
    fn add(&mut self, it: &Iteration, first_digest: u64) {
        self.attempted += it.attempted;
        self.failures.extend(it.failures.iter().cloned());
        if it.digest != first_digest {
            self.problems.push(format!(
                "iterations disagree: digest {:016x} vs {first_digest:016x}",
                it.digest
            ));
        }
    }

    fn check_reference(&mut self, w: Workload, seed: u64, digest: u64) -> String {
        match w.reference_digest(seed) {
            Some(reference) if reference == digest => {
                format!("digest {digest:016x} matches the committed one")
            }
            Some(reference) => {
                self.problems.push(format!(
                    "digest {digest:016x} differs from the committed {reference:016x}"
                ));
                format!("digest {digest:016x} DIFFERS from the committed {reference:016x}")
            }
            None => format!("digest {digest:016x} (no committed digest for seed {seed})"),
        }
    }

    fn correct(&self) -> bool {
        self.failures.is_empty() && self.problems.is_empty()
    }
}

fn accuracy_line(sim: &cells::SimSummary) -> String {
    let pp = |v: f64, paper: f64| (v - paper) * 100.0;
    format!(
        "accuracy (not gated): AUM vs ALL-AU {:+.1}% (paper {:+.1}%, gap {:+.1} pp); \
         vs best AUV-oblivious {:+.1}% (paper {:+.1}%, gap {:+.1} pp)",
        sim.gain_vs_allau * 100.0,
        PAPER_GAIN_VS_ALLAU * 100.0,
        pp(sim.gain_vs_allau, PAPER_GAIN_VS_ALLAU),
        sim.gain_vs_oblivious * 100.0,
        PAPER_GAIN_VS_OBLIVIOUS * 100.0,
        pp(sim.gain_vs_oblivious, PAPER_GAIN_VS_OBLIVIOUS),
    )
}

/// Whether to start another round: always until `MIN_ITERATIONS` rounds
/// are done, then only while a round as long as the last one still ends
/// within the run's `seconds`.
fn another_round(done: usize, t0: Instant, last_round_s: f64, seconds: f64) -> bool {
    done < MIN_ITERATIONS || t0.elapsed().as_secs_f64() + last_round_s <= seconds
}

/// A metric for the JSON line: name, value, unit.
type Metric = (String, f64, &'static str);

fn end_to_end_run(args: &Args, verdict: &mut Verdict) -> Result<Vec<Metric>, String> {
    let w = args.workload;
    let mut setup_s = Vec::new();
    let mut prep: Option<Prepared> = None;
    for _ in 0..SETUP_REPS {
        drop(prep.take());
        let t = Instant::now();
        prep = Some(workloads::setup(w));
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let prep = prep.expect("at least one set-up");
    let t0 = Instant::now();
    let mut walls = Vec::new();
    let mut first: Option<Iteration> = None;
    let mut round_s = 0.0;
    while another_round(walls.len(), t0, round_s, args.seconds) {
        let t = Instant::now();
        let it = workloads::iterate(w, &prep, args.seed, false, &out_dir());
        round_s = t.elapsed().as_secs_f64();
        eprintln!("iteration {}: {:.4} s", walls.len() + 1, it.wall_s);
        let first_digest = first.as_ref().map_or(it.digest, |f| f.digest);
        verdict.add(&it, first_digest);
        walls.push(it.wall_s);
        first.get_or_insert(it);
    }
    let first = first.expect("at least one iteration");
    let digest_line = verdict.check_reference(w, args.seed, first.digest);
    let rss = peak_rss_mib()?;
    let wall = quantile(&walls, 0.5);
    let setup = quantile(&setup_s, 0.5);
    println!(
        "  {:<12} {wall:>10.4} s    lower  {}",
        "wall_s",
        spread(&walls)
    );
    println!(
        "  {:<12} {setup:>10.4} s    lower  {}",
        "setup_s",
        spread(&setup_s)
    );
    println!(
        "  {:<12} {rss:>10.1} MiB  lower  VmHWM of the run",
        "peak_rss_mb"
    );
    println!(
        "  {:<12} {:>10} share lower  {} of {} operations failed",
        "ops_failed",
        share(verdict.failures.len() as u64, verdict.attempted),
        verdict.failures.len(),
        verdict.attempted
    );
    if w == Workload::Grid {
        println!("{}", accuracy_line(&first.layer.sim));
    }
    println!("correctness: {digest_line}");
    Ok(vec![
        ("wall_s".into(), wall, "s"),
        ("setup_s".into(), setup, "s"),
        ("peak_rss_mb".into(), rss, "MiB"),
    ])
}

fn share(failed: u64, attempted: u64) -> f64 {
    if attempted == 0 {
        0.0
    } else {
        failed as f64 / attempted as f64
    }
}

fn layer_run(args: &Args, verdict: &mut Verdict) -> Vec<Metric> {
    let w = args.workload;
    let prep = workloads::setup(w);
    let t0 = Instant::now();
    let mut plain_walls = Vec::new();
    let mut layer_walls = Vec::new();
    let mut layer_values = Vec::new();
    let mut first_digest = None;
    let mut first_sim = None;
    let mut round_s = 0.0;
    while another_round(layer_walls.len(), t0, round_s, args.seconds) {
        let t = Instant::now();
        let plain = workloads::iterate(w, &prep, args.seed, false, &out_dir());
        let digest = *first_digest.get_or_insert(plain.digest);
        verdict.add(&plain, digest);
        plain_walls.push(plain.wall_s);
        first_sim.get_or_insert(plain.layer.sim);

        aum_sim::prof::reset();
        aum_sim::prof::set_enabled(true);
        // The layer iteration repeats set-up so model builds are measured;
        // its snapshot feeds only the model-cache and profiler layers.
        let layer_prep = (w != Workload::Studies).then(|| workloads::setup(w));
        let setup_snap = layer_prep.is_some().then(|| {
            let snap = aum_sim::prof::snapshot();
            aum_sim::prof::reset();
            snap
        });
        let it = workloads::iterate(
            w,
            layer_prep.as_ref().unwrap_or(&prep),
            args.seed,
            true,
            &out_dir(),
        );
        aum_sim::prof::set_enabled(false);
        let snap = aum_sim::prof::snapshot();
        verdict.add(&it, digest);
        layer_walls.push(it.wall_s);
        round_s = t.elapsed().as_secs_f64();
        layer_values.push(layers::values(&it.layer, setup_snap.as_ref(), &snap));
    }
    let digest_line =
        verdict.check_reference(w, args.seed, first_digest.expect("at least one iteration"));

    let overhead = quantile(&layer_walls, 0.5) / quantile(&plain_walls, 0.5);
    let failed_share = share(verdict.failures.len() as u64, verdict.attempted);
    let mut out = Vec::new();
    let mut missing = Vec::new();
    println!(
        "  layer run: {} layer iterations vs {} untraced; values are medians, counts must repeat \
         exactly; prof self-times are CPU time summed over workers",
        layer_walls.len(),
        plain_walls.len()
    );
    println!(
        "  {:<32} {:>14} {:<6} {:<6} {:<6} {:<16} on (little on)",
        "metric", "value", "unit", "better", "source", "should move"
    );
    for spec in layers::specs() {
        let (value, source) = match spec.name.as_str() {
            "layer_run.overhead" => (overhead, "bench"),
            "ops_failed" => (failed_share, "bench"),
            name => {
                let samples: Vec<&layers::Value> = layer_values
                    .iter()
                    .map(|vals| {
                        &vals
                            .iter()
                            .find(|(n, _)| n == name)
                            .expect("every spec has a value")
                            .1
                    })
                    .collect();
                if let Some(m) = samples[0].missing.as_ref() {
                    missing.push(format!("{name} ({m})"));
                }
                let values: Vec<f64> = samples.iter().map(|v| v.value).collect();
                if spec.count && values.iter().any(|v| v.to_bits() != values[0].to_bits()) {
                    verdict.problems.push(format!(
                        "count {name} differs between layer runs: {values:?}"
                    ));
                }
                (quantile(&values, 0.5), samples[0].source)
            }
        };
        print_layer_row(&spec, value, source);
        out.push((spec.name, value, spec.unit));
    }
    if !missing.is_empty() {
        println!(
            "  missing prof scopes (reported as 0): {}",
            missing.join(", ")
        );
    }
    if w == Workload::Grid {
        println!("{}", accuracy_line(&first_sim.unwrap_or_default()));
    }
    println!("correctness: {digest_line}");
    out
}

fn print_layer_row(spec: &Spec, value: f64, source: &str) {
    println!(
        "  {:<32} {:>14.4} {:<6} {:<6} {:<6} {:<16} {}",
        spec.name,
        value,
        spec.unit,
        if spec.higher_is_better {
            "higher"
        } else {
            "lower"
        },
        source,
        spec.moves,
        spec.on
    );
}

fn json_line(verdict: &Verdict, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        verdict.correct(),
        verdict.attempted.max(1),
        verdict.failures.len(),
        body.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("aum-perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    aum_sim::exec::set_jobs(JOBS);
    println!(
        "perfbench: workload {}, seed {}{}, {} s, jobs {JOBS}, {} \
         (host loop closed: {JOBS} workers claim a fixed cell set; simulated requests \
         open-loop at the Table IV scenario rates)",
        args.workload.name(),
        args.seed,
        if args.workload == Workload::Studies {
            " (unused: the studies keep the paper's fixed seeds)"
        } else {
            ""
        },
        args.seconds,
        if args.layer_run {
            "layer run (prof on, benchmark timers)"
        } else {
            "end-to-end run (profiler and layer timers off)"
        }
    );
    let mut verdict = Verdict::default();
    let metrics = if args.layer_run {
        layer_run(&args, &mut verdict)
    } else {
        match end_to_end_run(&args, &mut verdict) {
            Ok(m) => m,
            Err(e) => {
                eprintln!("aum-perfbench: {e}");
                return ExitCode::FAILURE;
            }
        }
    };
    for m in &metrics {
        if !m.1.is_finite() {
            verdict.problems.push(format!("{} is not finite", m.0));
        }
    }
    for f in verdict.failures.iter().chain(&verdict.problems) {
        println!("FAILED: {f}");
    }
    println!("{}", json_line(&verdict, &metrics));
    ExitCode::SUCCESS
}
