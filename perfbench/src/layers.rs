//! Per-layer metrics of the layer run.
//!
//! Two sources, tagged in the report:
//! - `bench`: the benchmark's own timers and counters around the calls it
//!   makes (studies, sweeps it dispatches, cells, `decide` through a timed
//!   manager, the JSONL sink chain through a timed sink, AUV-model builds
//!   in set-up, the fleet matrix, the trace read-back);
//! - `prof`: the program's `aum_sim::prof` snapshot, for layers reachable
//!   only inside a cell. Its self-times are CPU time summed over workers.
//!   A scope that is not in the snapshot (renamed or removed) is reported
//!   as missing with value 0; the run does not fail on it.

use aum_sim::prof::Snapshot;

use crate::cells::SimSummary;

/// Studies timed one by one in the layer run: every study of
/// `aum_bench::experiments()` that took over 0.1 s when the benchmark was
/// defined. Other workloads report 0 for these.
pub const TIMED_STUDIES: [&str; 15] = [
    "fig1", "fig10", "fig12", "table3", "fig14", "fig15", "fig16", "fig17", "fig18", "sens",
    "overhead", "tco", "ablate", "adapt", "cluster",
];

/// What the benchmark measured itself during one layer iteration.
#[derive(Debug, Clone, Default)]
pub struct LayerSample {
    pub study_s: Vec<(&'static str, f64)>,
    /// Sweeps the benchmark dispatched: count, cells, wall and summed cell
    /// seconds.
    pub sweeps: u64,
    pub sweep_cells: u64,
    pub sweep_wall_s: f64,
    pub sweep_busy_s: f64,
    pub cell_ms: Vec<f64>,
    pub decides_timed: u64,
    pub decide_ns: u64,
    pub switches: u64,
    pub tunes: u64,
    pub safe_mode_entries: u64,
    pub build_s: Vec<f64>,
    pub pinned_runs: u64,
    pub events: u64,
    pub bytes: u64,
    pub sink_ns: u64,
    pub flight_triggers: u64,
    pub flight_incidents: u64,
    pub parse_s: f64,
    pub summarize_s: f64,
    pub fleet_s: f64,
    pub sim: SimSummary,
}

/// One per-layer metric: name, unit, direction, whether it is a
/// deterministic count that must repeat exactly across layer runs, the
/// end-to-end metric it should move, and the workloads it is on (in
/// parentheses: little on).
pub struct Spec {
    pub name: String,
    pub unit: &'static str,
    pub higher_is_better: bool,
    pub count: bool,
    pub moves: &'static str,
    pub on: &'static str,
}

/// A per-layer value with its source; `missing` names prof scopes absent
/// from the snapshot.
pub struct Value {
    pub value: f64,
    pub source: &'static str,
    pub missing: Option<String>,
}

const LOWER: bool = false;
const HIGHER: bool = true;
const COUNT: bool = true;
const TIME: bool = false;

/// Every per-layer metric after the study timers: name, unit, higher is
/// better, deterministic count, the end-to-end metric it should move, and
/// the workloads it is on (in parentheses: little on).
#[rustfmt::skip]
const LAYERS: &[(&str, &str, bool, bool, &str, &str)] = &[
    ("exec.sweeps", "count", LOWER, COUNT, "wall_s", "grid, telemetry (studies: -)"),
    ("exec.cells", "count", LOWER, COUNT, "wall_s", "grid, telemetry (studies: -)"),
    ("exec.busy_s", "s", LOWER, TIME, "wall_s", "grid, telemetry (studies: -)"),
    ("exec.idle_s", "s", LOWER, TIME, "wall_s", "grid tail (studies: -)"),
    ("exec.speedup", "ratio", HIGHER, TIME, "wall_s", "grid, telemetry (studies: -)"),
    ("model_cache.lookups", "count", LOWER, COUNT, "wall_s, setup_s", "studies, grid set-up"),
    ("model_cache.builds", "count", LOWER, COUNT, "wall_s, setup_s", "studies, grid set-up"),
    ("model_cache.hit_rate", "share", HIGHER, COUNT, "wall_s, setup_s", "studies, grid set-up"),
    ("profiler.builds", "count", LOWER, COUNT, "setup_s, wall_s", "grid set-up, studies"),
    ("profiler.build_s_p50", "s", LOWER, TIME, "setup_s", "grid, telemetry set-up"),
    ("profiler.pinned_runs", "count", LOWER, COUNT, "setup_s", "grid, telemetry set-up"),
    ("experiment.cells", "count", LOWER, COUNT, "wall_s", "grid, telemetry"),
    ("experiment.cell_ms_p50", "ms", LOWER, TIME, "wall_s", "grid, telemetry"),
    ("experiment.cell_ms_p90", "ms", LOWER, TIME, "wall_s", "grid, telemetry"),
    ("experiment.intervals", "count", LOWER, COUNT, "wall_s", "grid, studies (telemetry)"),
    ("experiment.us_per_interval", "us", LOWER, TIME, "wall_s", "grid, studies (telemetry)"),
    ("experiment.interval_self_ms", "ms", LOWER, TIME, "wall_s", "grid, studies (telemetry)"),
    ("controller.decides", "count", LOWER, COUNT, "wall_s, sim_*", "grid (studies: static manager)"),
    ("controller.decide_ns_mean", "ns", LOWER, TIME, "wall_s", "grid, telemetry"),
    ("controller.switches", "count", LOWER, COUNT, "sim_*", "grid, telemetry"),
    ("controller.tunes", "count", LOWER, COUNT, "sim_*", "grid, telemetry"),
    ("controller.safe_mode_entries", "count", LOWER, COUNT, "sim_*", "grid, telemetry"),
    ("engine.decode_iters", "count", LOWER, COUNT, "wall_s", "grid, studies"),
    ("engine.prefill_steps", "count", LOWER, COUNT, "wall_s", "grid, studies"),
    ("engine.self_ms", "ms", LOWER, TIME, "wall_s", "grid, studies"),
    ("batching.ms", "ms", LOWER, TIME, "wall_s", "grid, studies"),
    ("cost.evals", "count", LOWER, COUNT, "wall_s", "studies, grid"),
    ("cost.self_ms", "ms", LOWER, TIME, "wall_s", "studies, grid"),
    ("cost.ns_per_eval", "ns", LOWER, TIME, "wall_s", "studies, grid"),
    ("platform.steps", "count", LOWER, COUNT, "wall_s", "grid"),
    ("platform.self_ms", "ms", LOWER, TIME, "wall_s", "grid"),
    ("telemetry.events", "count", LOWER, COUNT, "wall_s", "telemetry (grid, studies: off)"),
    ("telemetry.bytes", "B", LOWER, COUNT, "wall_s", "telemetry (grid, studies: off)"),
    ("telemetry.sink_ms", "ms", LOWER, TIME, "wall_s", "telemetry (grid, studies: off)"),
    ("flight.triggers", "count", LOWER, COUNT, "wall_s", "telemetry (grid, studies: off)"),
    ("flight.incidents", "count", LOWER, COUNT, "wall_s", "telemetry (grid, studies: off)"),
    ("tracereport.parse_ms", "ms", LOWER, TIME, "wall_s", "telemetry"),
    ("tracereport.summarize_ms", "ms", LOWER, TIME, "wall_s", "telemetry"),
    ("tracereport.mb_per_s", "MB/s", HIGHER, TIME, "wall_s", "telemetry"),
    ("readback_s", "s", LOWER, TIME, "wall_s", "telemetry"),
    ("fleet.matrix_ms", "ms", LOWER, TIME, "wall_s", "telemetry"),
    ("layer_run.overhead", "ratio", LOWER, TIME, "-", "all"),
    ("ops_failed", "share", LOWER, COUNT, "-", "all"),
    ("sim_gain_vs_allau", "ratio", HIGHER, COUNT, "-", "grid"),
    ("sim_gain_vs_oblivious", "ratio", HIGHER, COUNT, "-", "grid"),
    ("sim_ttft_slo_met", "share", HIGHER, COUNT, "-", "grid, telemetry"),
    ("sim_tpot_slo_met", "share", HIGHER, COUNT, "-", "grid, telemetry"),
];

/// Every per-layer metric, in report order. `BENCHMARK.json` lists the same
/// names (checked by a test).
pub fn specs() -> Vec<Spec> {
    let studies = TIMED_STUDIES.iter().map(|id| Spec {
        name: format!("study.{id}_s"),
        unit: "s",
        higher_is_better: false,
        count: false,
        moves: "wall_s",
        on: "studies",
    });
    let layers = LAYERS
        .iter()
        .map(|&(name, unit, higher_is_better, count, moves, on)| Spec {
            name: name.to_string(),
            unit,
            higher_is_better,
            count,
            moves,
            on,
        });
    studies.chain(layers).collect()
}

/// Reads one layer iteration into values keyed like [`specs`], except
/// `layer_run.overhead` and `ops_failed`, which the caller adds. The
/// model-cache and profiler layers count set-up (`setup`) and timed phase
/// (`snap`) together; every other prof layer is the timed phase alone.
pub fn values(s: &LayerSample, setup: Option<&Snapshot>, snap: &Snapshot) -> Vec<(String, Value)> {
    let both: Vec<&Snapshot> = setup.into_iter().chain([snap]).collect();
    let bench = |v: f64| Value {
        value: v,
        source: "bench",
        missing: None,
    };
    let prof = |r: Result<f64, String>| match r {
        Ok(v) => Value {
            value: v,
            source: "prof",
            missing: None,
        },
        Err(scope) => Value {
            value: 0.0,
            source: "prof",
            missing: Some(scope),
        },
    };
    let calls = |name: &str| scope_sum(snap, name, |n| n.calls).map(|c| c as f64);
    let self_ms = |names: &[&str]| -> Result<f64, String> {
        let mut ns = 0;
        for name in names {
            ns += scope_sum(snap, name, |n| n.self_nanos)?;
        }
        Ok(ns as f64 / 1e6)
    };
    let counter = |name: &str| {
        let found: Vec<u64> = both
            .iter()
            .flat_map(|sn| sn.counters.iter().filter(|(n, _)| *n == name))
            .map(|&(_, v)| v)
            .collect();
        if found.is_empty() {
            Err(format!("counter {name}"))
        } else {
            Ok(found.iter().sum::<u64>() as f64)
        }
    };
    let per = |num: Result<f64, String>, den: Result<f64, String>| {
        let (num, den) = (num?, den?);
        Ok(if den > 0.0 { num / den } else { 0.0 })
    };
    let study = |id: &str| {
        s.study_s
            .iter()
            .filter(|(n, _)| *n == id)
            .map(|(_, t)| t)
            .sum::<f64>()
    };
    let cost_ms = self_ms(&["cost.iteration", "cost.eval_ops"]);
    let evals = calls("cost.eval_ops");
    let lookups = counter("model_cache.lookup");
    let builds = counter("model_cache.build");
    let sweeps: Vec<f64> = both.iter().filter_map(|sn| profiler_sweeps(sn)).collect();
    let profiler_builds = if sweeps.is_empty() {
        Err("scope exec.sweep;exec.cell;profiler.cell".to_string())
    } else {
        Ok(sweeps.iter().sum())
    };
    let hits = lookups.clone().and_then(|l| Ok(l - builds.clone()?));
    let readback = s.parse_s + s.summarize_s;

    let mut out: Vec<(String, Value)> = TIMED_STUDIES
        .iter()
        .map(|id| (format!("study.{id}_s"), bench(study(id))))
        .collect();
    let busy = s.sweep_busy_s;
    let wall = s.sweep_wall_s;
    let rows: Vec<(&str, Value)> = vec![
        ("exec.sweeps", bench(s.sweeps as f64)),
        ("exec.cells", bench(s.sweep_cells as f64)),
        ("exec.busy_s", bench(busy)),
        (
            "exec.idle_s",
            bench((crate::JOBS as f64 * wall - busy).max(0.0)),
        ),
        (
            "exec.speedup",
            bench(if wall > 0.0 { busy / wall } else { 0.0 }),
        ),
        ("model_cache.lookups", prof(lookups.clone())),
        ("model_cache.builds", prof(builds.clone())),
        ("model_cache.hit_rate", prof(per(hits, lookups))),
        ("profiler.builds", prof(profiler_builds)),
        ("profiler.build_s_p50", bench(quantile(&s.build_s, 0.5))),
        ("profiler.pinned_runs", bench(s.pinned_runs as f64)),
        ("experiment.cells", bench(s.cell_ms.len() as f64)),
        ("experiment.cell_ms_p50", bench(quantile(&s.cell_ms, 0.5))),
        ("experiment.cell_ms_p90", bench(quantile(&s.cell_ms, 0.9))),
        ("experiment.intervals", prof(calls("ctrl.interval"))),
        (
            "experiment.us_per_interval",
            prof(per(
                scope_sum(snap, "ctrl.interval", |n| n.total_nanos).map(|ns| ns as f64 / 1e3),
                calls("ctrl.interval"),
            )),
        ),
        (
            "experiment.interval_self_ms",
            prof(self_ms(&["ctrl.interval"])),
        ),
        ("controller.decides", prof(calls("ctrl.decide"))),
        (
            "controller.decide_ns_mean",
            bench(if s.decides_timed > 0 {
                s.decide_ns as f64 / s.decides_timed as f64
            } else {
                0.0
            }),
        ),
        ("controller.switches", bench(s.switches as f64)),
        ("controller.tunes", bench(s.tunes as f64)),
        (
            "controller.safe_mode_entries",
            bench(s.safe_mode_entries as f64),
        ),
        ("engine.decode_iters", prof(calls("engine.decode_iter"))),
        ("engine.prefill_steps", prof(calls("engine.prefill_step"))),
        (
            "engine.self_ms",
            prof(self_ms(&[
                "engine.interval",
                "engine.decode_iter",
                "engine.prefill_step",
            ])),
        ),
        ("batching.ms", prof(self_ms(&["batch.pop", "batch.step"]))),
        ("cost.evals", prof(evals.clone())),
        ("cost.self_ms", prof(cost_ms.clone())),
        (
            "cost.ns_per_eval",
            prof(per(cost_ms.map(|ms| ms * 1e6), evals)),
        ),
        ("platform.steps", prof(calls("platform.step"))),
        ("platform.self_ms", prof(self_ms(&["platform.step"]))),
        ("telemetry.events", bench(s.events as f64)),
        ("telemetry.bytes", bench(s.bytes as f64)),
        ("telemetry.sink_ms", bench(s.sink_ns as f64 / 1e6)),
        ("flight.triggers", bench(s.flight_triggers as f64)),
        ("flight.incidents", bench(s.flight_incidents as f64)),
        ("tracereport.parse_ms", bench(s.parse_s * 1e3)),
        ("tracereport.summarize_ms", bench(s.summarize_s * 1e3)),
        (
            "tracereport.mb_per_s",
            bench(if readback > 0.0 {
                s.bytes as f64 / 1e6 / readback
            } else {
                0.0
            }),
        ),
        ("readback_s", bench(readback)),
        ("fleet.matrix_ms", bench(s.fleet_s * 1e3)),
        ("sim_gain_vs_allau", bench(s.sim.gain_vs_allau)),
        ("sim_gain_vs_oblivious", bench(s.sim.gain_vs_oblivious)),
        ("sim_ttft_slo_met", bench(s.sim.ttft_slo_met)),
        ("sim_tpot_slo_met", bench(s.sim.tpot_slo_met)),
    ];
    out.extend(rows.into_iter().map(|(n, v)| (n.to_string(), v)));
    out
}

/// Sums `f` over every snapshot node named `name` (a scope appears once
/// per distinct call path); `Err` names the scope when it is absent.
fn scope_sum(
    snap: &Snapshot,
    name: &str,
    f: impl Fn(&aum_sim::prof::SnapshotNode) -> u64,
) -> Result<u64, String> {
    let mut found = false;
    let mut sum = 0;
    for n in snap.nodes.iter().filter(|n| n.name == name) {
        found = true;
        sum += f(n);
    }
    if found {
        Ok(sum)
    } else {
        Err(format!("scope {name}"))
    }
}

/// AUV-model builds: calls of every sweep that hosts `profiler.cell`
/// cells (path `…;exec.sweep;exec.cell;profiler.cell`). Counts builds made
/// through a `ModelCache` and direct `build_model` calls alike.
fn profiler_sweeps(snap: &Snapshot) -> Option<f64> {
    let mut sweeps: Vec<&str> = snap
        .nodes
        .iter()
        .filter(|n| n.name == "profiler.cell")
        .filter_map(|n| {
            let cell = n.path.strip_suffix(";exec.cell;profiler.cell")?;
            cell.ends_with("exec.sweep").then_some(cell)
        })
        .collect();
    if sweeps.is_empty() {
        return None;
    }
    sweeps.sort_unstable();
    sweeps.dedup();
    Some(
        snap.nodes
            .iter()
            .filter(|n| sweeps.contains(&n.path.as_str()))
            .map(|n| n.calls as f64)
            .sum(),
    )
}

/// Quantile with linear interpolation between closest ranks; 0 for no
/// samples.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_lists_every_per_layer_metric() {
        let json = include_str!("../../BENCHMARK.json");
        let specs = specs();
        for s in &specs {
            let better = if s.higher_is_better {
                "higher"
            } else {
                "lower"
            };
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{better}\"}}",
                s.name, s.unit
            );
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let per_layer = json
            .lines()
            .filter(|l| l.contains("\"better\"") && !l.contains("\"bound\""))
            .count();
        assert_eq!(per_layer, specs.len());
    }

    #[test]
    fn quantile_interpolates_between_ranks() {
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(quantile(&[3.0, 1.0], 0.5), 2.0);
        assert_eq!(quantile(&[4.0, 1.0, 2.0, 3.0], 0.25), 1.75);
    }
}
