//! The three workloads: set-up and one timed iteration each.

use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use aum_bench::common::{install_tracer, ModelCache, Scheme};
use aum_llm::traces::Scenario;
use aum_platform::spec::PlatformSpec;
use aum_sim::flight::{FlightConfig, FlightRecorder};
use aum_sim::telemetry::{parse_jsonl, JsonlSink, OrderingSink, TraceRecord, TraceSink, Tracer};
use aum_workloads::be::BeKind;

use crate::cells::{self, CellResult};
use crate::digest::{mask_host_times, Fnv};
use crate::layers::LayerSample;

/// Trace-seed replicas of the Fig 14 grid per `grid` iteration.
const GRID_REPLICAS: u64 = 3;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Every study of `aum_bench::experiments()`, in order.
    Studies,
    /// The Fig 14 grid over trace-seed replicas, untraced.
    Grid,
    /// The grid's AUM cells plus the fleet-chaos matrix, traced to JSONL
    /// with the flight recorder on, then read back and summarised.
    Telemetry,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "studies" => Some(Workload::Studies),
            "grid" => Some(Workload::Grid),
            "telemetry" => Some(Workload::Telemetry),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Studies => "studies",
            Workload::Grid => "grid",
            Workload::Telemetry => "telemetry",
        }
    }

    /// The committed digest of simulated outputs at the default seed; the
    /// studies use fixed seeds, so theirs holds at every seed.
    pub fn reference_digest(self, seed: u64) -> Option<u64> {
        match self {
            Workload::Studies => Some(crate::digest::STUDIES),
            Workload::Grid if seed == crate::digest::DEFAULT_SEED => Some(crate::digest::GRID),
            Workload::Telemetry if seed == crate::digest::DEFAULT_SEED => {
                Some(crate::digest::TELEMETRY)
            }
            _ => None,
        }
    }
}

/// What set-up leaves for the timed phase.
pub struct Prepared {
    /// AUV models every AUM cell (and the fleet matrix) needs; `None` for
    /// `studies`, whose studies each build their own.
    cache: Option<ModelCache>,
    build_s: Vec<f64>,
}

/// The AUV models a workload's cells need: the grid's nine GenA models,
/// plus, for `telemetry`, the chatbot + SPECjbb model of every platform
/// preset the fleet matrix routes over.
fn model_keys(w: Workload) -> Vec<(PlatformSpec, Scenario, BeKind)> {
    let gen_a = PlatformSpec::gen_a();
    let mut keys: Vec<_> = Scenario::ALL
        .into_iter()
        .flat_map(|sc| BeKind::ALL.map(|be| (gen_a.clone(), sc, be)))
        .collect();
    if w == Workload::Telemetry {
        for spec in PlatformSpec::presets() {
            let key = (spec, Scenario::Chatbot, BeKind::SpecJbb);
            if !keys
                .iter()
                .any(|k| k.0.name == key.0.name && (k.1, k.2) == (key.1, key.2))
            {
                keys.push(key);
            }
        }
    }
    keys
}

/// Set-up: everything before the first timed call.
///
/// `grid`/`telemetry` build their AUV models into a fresh cache, one timed
/// build per model. `studies` has no set-up of its own (each study profiles
/// its models inside the timed call), so it runs a warm-up pass instead:
/// `fig14` in quick mode (smoke-scale profiler, 30 s cells), which goes
/// through every layer once before timing starts.
pub fn setup(w: Workload) -> Prepared {
    if w == Workload::Studies {
        aum_bench::common::set_quick(true);
        std::hint::black_box(aum_bench::evaluation::fig14());
        aum_bench::common::set_quick(false);
        return Prepared {
            cache: None,
            build_s: Vec::new(),
        };
    }
    let cache = ModelCache::new();
    let build_s = model_keys(w)
        .iter()
        .map(|(spec, sc, be)| {
            let t = Instant::now();
            cache.model(spec, *sc, *be);
            t.elapsed().as_secs_f64()
        })
        .collect();
    Prepared {
        cache: Some(cache),
        build_s,
    }
}

/// One timed iteration's results.
pub struct Iteration {
    /// Host seconds of the timed phase.
    pub wall_s: f64,
    /// Digest of the simulated outputs (host times masked).
    pub digest: u64,
    /// Operations attempted (studies, cells, fleet matrices, trace
    /// read-backs) and the failures among them, with their reasons.
    pub attempted: u64,
    pub failures: Vec<String>,
    /// The benchmark's own measurements, for the layer run and the
    /// simulated outcomes.
    pub layer: LayerSample,
}

pub fn iterate(w: Workload, prep: &Prepared, seed: u64, layer: bool, out_dir: &Path) -> Iteration {
    let mut it = match w {
        Workload::Studies => studies(),
        Workload::Grid => grid(prep, seed, layer),
        Workload::Telemetry => telemetry(prep, seed, layer, out_dir),
    };
    it.layer.build_s.clone_from(&prep.build_s);
    it.layer.pinned_runs = prep.cache.as_ref().map_or(0, |c| c.total_runs() as u64);
    it
}

fn studies() -> Iteration {
    let mut h = Fnv::default();
    let mut layer = LayerSample::default();
    let mut failures = Vec::new();
    let experiments = aum_bench::experiments();
    let t0 = Instant::now();
    for &(id, run) in &experiments {
        let t = Instant::now();
        let out = std::panic::catch_unwind(run);
        layer.study_s.push((id, t.elapsed().as_secs_f64()));
        h.write_str(id);
        match out {
            Ok(text) => h.write_str(&mask_host_times(&text)),
            Err(_) => failures.push(format!("study {id} panicked")),
        }
    }
    Iteration {
        wall_s: t0.elapsed().as_secs_f64(),
        digest: h.finish(),
        attempted: experiments.len() as u64,
        failures,
        layer,
    }
}

/// Runs `cells` through one sweep the benchmark dispatches, recording the
/// sweep and per-cell figures.
fn sweep_cells(
    prep: &Prepared,
    cells: Vec<cells::Cell>,
    layer: bool,
    tracer: &Tracer,
    sample: &mut LayerSample,
) -> Vec<CellResult> {
    let cache = prep.cache.as_ref().expect("grid workloads prepare a cache");
    let spec = PlatformSpec::gen_a();
    let n = cells.len() as u64;
    let t0 = Instant::now();
    let results = aum_sim::exec::sweep_traced(tracer, cells, |_, cell, t| {
        cells::run(&spec, cell, cache, layer, t)
    });
    sample.sweeps += 1;
    sample.sweep_cells += n;
    sample.sweep_wall_s += t0.elapsed().as_secs_f64();
    for r in &results {
        sample.sweep_busy_s += r.host_s;
        sample.cell_ms.push(r.host_s * 1e3);
        sample.decides_timed += r.decides;
        sample.decide_ns += r.decide_ns;
        sample.switches += r.switches;
        sample.tunes += r.tunes;
        sample.safe_mode_entries += r.safe_mode_entries;
    }
    sample.sim = cells::summarize(&results);
    results
}

fn cell_failures(results: &[CellResult]) -> Vec<String> {
    results
        .iter()
        .filter_map(|r| r.outcome.as_ref().err().cloned())
        .collect()
}

fn grid(prep: &Prepared, seed: u64, layer: bool) -> Iteration {
    let seeds: Vec<u64> = (0..GRID_REPLICAS).map(|r| seed.wrapping_add(r)).collect();
    let cells = cells::grid(&seeds, &Scheme::ALL);
    let mut sample = LayerSample::default();
    let t0 = Instant::now();
    let results = sweep_cells(prep, cells, layer, &Tracer::disabled(), &mut sample);
    let wall_s = t0.elapsed().as_secs_f64();
    let mut h = Fnv::default();
    cells::digest(&results, &mut h);
    Iteration {
        wall_s,
        digest: h.finish(),
        attempted: results.len() as u64,
        failures: cell_failures(&results),
        layer: sample,
    }
}

/// Times every record entering the JSONL chain; layer run only.
struct TimedSink<S> {
    inner: S,
    nanos: Arc<AtomicU64>,
}

impl<S: TraceSink> TimedSink<S> {
    fn timed(&mut self, f: impl FnOnce(&mut S)) {
        let t = Instant::now();
        f(&mut self.inner);
        self.nanos
            .fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }
}

impl<S: TraceSink> TraceSink for TimedSink<S> {
    fn record(&mut self, record: &TraceRecord) {
        self.timed(|s| s.record(record));
    }

    fn flush_sink(&mut self) {
        self.timed(TraceSink::flush_sink);
    }
}

fn telemetry(prep: &Prepared, seed: u64, layer: bool, out_dir: &Path) -> Iteration {
    let dir = out_dir.join(format!("telemetry-{}", std::process::id()));
    let trace = dir.join("trace.jsonl");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create the trace directory");
    let chain = OrderingSink::new(JsonlSink::create(&trace).expect("create the trace file"));
    let it = if layer {
        let nanos = Arc::new(AtomicU64::new(0));
        let sink = TimedSink {
            inner: chain,
            nanos: Arc::clone(&nanos),
        };
        let mut it = traced(prep, seed, true, sink, &dir, &trace);
        it.layer.sink_ns = nanos.load(Ordering::Relaxed);
        it
    } else {
        traced(prep, seed, false, chain, &dir, &trace)
    };
    let _ = std::fs::remove_dir_all(&dir);
    it
}

/// The `telemetry` timed phase: traced AUM cells and fleet matrix (write),
/// then `parse_jsonl` + `summarize` over the written trace (read-back).
fn traced<S>(
    prep: &Prepared,
    seed: u64,
    layer: bool,
    chain: S,
    dir: &Path,
    trace: &Path,
) -> Iteration
where
    S: TraceSink + Send + 'static,
{
    let cache = prep.cache.as_ref().expect("telemetry prepares a cache");
    let mut sample = LayerSample::default();
    let mut failures = Vec::new();
    let mut h = Fnv::default();

    let (tracer, recorder) = Tracer::shared(FlightRecorder::with_inner(
        FlightConfig::new(dir.join("flight")),
        chain,
    ));
    let t0 = Instant::now();
    install_tracer(tracer.clone());
    let cells = cells::grid(&[seed], &[Scheme::Aum]);
    let results = sweep_cells(prep, cells, layer, &tracer, &mut sample);
    let t_fleet = Instant::now();
    let fleet = aum_bench::fleetchaos::run_with(false, cache);
    sample.fleet_s = t_fleet.elapsed().as_secs_f64();
    install_tracer(Tracer::disabled());
    tracer.flush();
    {
        let rec = recorder.lock().expect("flight recorder lock");
        let stats = rec.stats();
        sample.flight_triggers = stats.triggers;
        sample.flight_incidents = stats.incidents as u64;
        failures.extend(rec.errors().iter().map(|e| format!("flight dump: {e}")));
    }
    drop((tracer, recorder));
    let write_s = t0.elapsed().as_secs_f64();

    // Reading the file counts as part of parsing.
    let t_parse = Instant::now();
    let parsed = std::fs::read_to_string(trace)
        .map_err(|e| e.to_string())
        .and_then(|text| {
            sample.bytes = text.len() as u64;
            parse_jsonl(&text).map_err(|e| e.to_string())
        });
    sample.parse_s = t_parse.elapsed().as_secs_f64();
    let t_summary = Instant::now();
    let summary = parsed
        .as_ref()
        .map(|records| aum_bench::tracereport::summarize(records));
    sample.summarize_s = t_summary.elapsed().as_secs_f64();
    let readback_s = sample.parse_s + sample.summarize_s;

    cells::digest(&results, &mut h);
    h.write_str(&fleet.text);
    match (&parsed, &summary) {
        (Ok(records), Ok(summary)) if !records.is_empty() && !summary.is_empty() => {
            sample.events = records.len() as u64;
            h.write_str(&records.len().to_string());
            h.write_str(summary);
        }
        (Err(e), _) => failures.push(format!("trace read-back: {e}")),
        _ => failures.push("trace read-back: empty trace or summary".to_string()),
    }
    failures.extend(cell_failures(&results));
    if fleet.degenerate {
        failures.push("fleet-chaos report is degenerate".to_string());
    }
    Iteration {
        wall_s: write_s + readback_s,
        digest: h.finish(),
        attempted: results.len() as u64 + 2,
        failures,
        layer: sample,
    }
}
