//! The Fig 14 serving grid as benchmark cells: GenA, every scenario ×
//! co-runner × scheme, 300 simulated seconds per cell, 500 ms control
//! interval, with the experiment seed taken from the workload seed.

use std::time::Instant;

use aum::controller::AumController;
use aum::experiment::{try_run_experiment_traced, ExperimentConfig, Outcome};
use aum::manager::{Decision, ResourceManager, SystemState};
use aum_bench::common::{make_manager, ModelCache, Scheme};
use aum_llm::traces::Scenario;
use aum_platform::spec::PlatformSpec;
use aum_sim::telemetry::{ResilienceMode, Tracer};
use aum_workloads::be::BeKind;

use crate::digest::Fnv;

/// One simulated experiment of the grid.
#[derive(Debug, Clone, Copy)]
pub struct Cell {
    pub seed: u64,
    pub scenario: Scenario,
    pub be: BeKind,
    pub scheme: Scheme,
}

/// Every (scenario, co-runner, scheme) cell for each replica seed, in
/// replica-major order — the order `scheme_grid` uses within a replica.
pub fn grid(seeds: &[u64], schemes: &[Scheme]) -> Vec<Cell> {
    let mut cells = Vec::new();
    for &seed in seeds {
        for scenario in Scenario::ALL {
            for be in BeKind::ALL {
                for &scheme in schemes {
                    cells.push(Cell {
                        seed,
                        scenario,
                        be,
                        scheme,
                    });
                }
            }
        }
    }
    cells
}

/// The simulated values of one cell that the benchmark checks and reports.
#[derive(Debug, Clone, Copy)]
pub struct CellOutcome {
    pub efficiency: f64,
    pub be_rate: f64,
    pub avg_power_w: f64,
    pub completed: u64,
    pub ttft_guarantee: f64,
    pub tpot_guarantee: f64,
    /// Requests the TTFT guarantee is taken over.
    pub ttft_requests: u64,
    /// Requests the TPOT guarantee is taken over.
    pub tpot_requests: u64,
}

impl CellOutcome {
    fn of(o: &Outcome) -> Self {
        CellOutcome {
            efficiency: o.efficiency,
            be_rate: o.be_rate,
            avg_power_w: o.avg_power_w,
            completed: o.completed,
            ttft_guarantee: o.slo.ttft_guarantee,
            tpot_guarantee: o.slo.tpot_guarantee,
            ttft_requests: o.slo.ttft_hist.count(),
            tpot_requests: o.slo.tpot_req_hist.count(),
        }
    }

    fn is_finite(&self) -> bool {
        [
            self.efficiency,
            self.be_rate,
            self.avg_power_w,
            self.ttft_guarantee,
            self.tpot_guarantee,
        ]
        .iter()
        .all(|v| v.is_finite())
    }
}

/// A cell's result plus what the benchmark measured around it.
#[derive(Debug, Clone)]
pub struct CellResult {
    pub cell: Cell,
    /// `Err` when the run returned an error (e.g. a ledger conservation
    /// failure) or produced a non-finite value.
    pub outcome: Result<CellOutcome, String>,
    /// Host seconds of the whole cell.
    pub host_s: f64,
    /// `decide` calls and host nanoseconds inside them (layer run only).
    pub decides: u64,
    pub decide_ns: u64,
    /// AUM controller actions (zero for baselines).
    pub switches: u64,
    pub tunes: u64,
    pub safe_mode_entries: u64,
}

/// Times every `decide` of the manager it wraps; used in the layer run only.
struct TimedManager<'a> {
    inner: &'a mut dyn ResourceManager,
    calls: u64,
    nanos: u64,
}

impl ResourceManager for TimedManager<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn decide(&mut self, state: &SystemState) -> Decision {
        let t = Instant::now();
        let d = self.inner.decide(state);
        self.nanos += t.elapsed().as_nanos() as u64;
        self.calls += 1;
        d
    }

    fn attach_tracer(&mut self, tracer: Tracer) {
        self.inner.attach_tracer(tracer);
    }

    fn resilience(&self) -> Option<ResilienceMode> {
        self.inner.resilience()
    }
}

/// Runs one cell the way `scheme_outcome_cell` does, but with the cell's
/// seed, a fallible entry point, and (in the layer run) a timed manager.
/// ALL-AU runs without a co-runner, as in the paper.
pub fn run(
    spec: &PlatformSpec,
    cell: Cell,
    cache: &ModelCache,
    layer: bool,
    tracer: Tracer,
) -> CellResult {
    let t0 = Instant::now();
    let be = (cell.scheme != Scheme::AllAu).then_some(cell.be);
    let mut cfg = ExperimentConfig::paper_default(spec.clone(), cell.scenario, be);
    cfg.seed = cell.seed;
    let mut aum = None;
    let mut baseline = None;
    let manager: &mut dyn ResourceManager = if cell.scheme == Scheme::Aum {
        aum.insert(AumController::new(cache.model(
            spec,
            cell.scenario,
            cell.be,
        )))
    } else {
        baseline
            .insert(make_manager(cell.scheme, spec, cell.scenario, be, cache))
            .as_mut()
    };
    let (run, decides, decide_ns) = if layer {
        let mut timed = TimedManager {
            inner: manager,
            calls: 0,
            nanos: 0,
        };
        let run = try_run_experiment_traced(&cfg, &mut timed, tracer);
        (run, timed.calls, timed.nanos)
    } else {
        (try_run_experiment_traced(&cfg, manager, tracer), 0, 0)
    };
    let outcome = match run {
        Ok(o) => Some(CellOutcome::of(&o))
            .filter(CellOutcome::is_finite)
            .ok_or_else(|| "non-finite outcome".to_string()),
        Err(e) => Err(e.to_string()),
    };
    let (switches, tunes, safe_mode_entries) = aum.map_or((0, 0, 0), |c| {
        (c.switch_count(), c.tune_count(), c.safe_mode_entries())
    });
    CellResult {
        cell,
        outcome: outcome.map_err(|e| {
            format!(
                "cell seed {} {}+{} {}: {e}",
                cell.seed,
                cell.scenario.code(),
                cell.be,
                cell.scheme.name()
            )
        }),
        host_s: t0.elapsed().as_secs_f64(),
        decides,
        decide_ns,
        switches,
        tunes,
        safe_mode_entries,
    }
}

/// Digest of every cell's simulated values, in cell order. `{:?}` prints
/// an `f64` in its shortest exact round-trip form, so any bit change shows.
pub fn digest(results: &[CellResult], h: &mut Fnv) {
    for r in results {
        let c = r.cell;
        let values = match &r.outcome {
            Ok(o) => format!(
                "{:?} {:?} {:?} {} {:?} {:?} {} {}",
                o.efficiency,
                o.be_rate,
                o.avg_power_w,
                o.completed,
                o.ttft_guarantee,
                o.tpot_guarantee,
                o.ttft_requests,
                o.tpot_requests
            ),
            Err(e) => e.clone(),
        };
        h.write_str(&format!(
            "{} {}+{} {} {values}",
            c.seed,
            c.scenario.code(),
            c.be,
            c.scheme.name()
        ));
    }
}

/// The simulated end results the paper reports, over the cells present.
/// Gains need every scheme of a (seed, scenario, co-runner) group and are
/// 0 where the cells do not include the baselines.
#[derive(Debug, Clone, Copy, Default)]
pub struct SimSummary {
    /// Mean of AUM / ALL-AU − 1 over groups (paper: 8.8%).
    pub gain_vs_allau: f64,
    /// Mean of AUM / max(SMT-AU, RP-AU) − 1 over groups (paper: 4.7%).
    pub gain_vs_oblivious: f64,
    /// AUM cells' TTFT guarantee, weighted by requests.
    pub ttft_slo_met: f64,
    /// AUM cells' TPOT guarantee, weighted by requests.
    pub tpot_slo_met: f64,
}

pub fn summarize(results: &[CellResult]) -> SimSummary {
    let ok: Vec<(Cell, CellOutcome)> = results
        .iter()
        .filter_map(|r| r.outcome.as_ref().ok().map(|o| (r.cell, *o)))
        .collect();
    let eff = |c: &Cell, scheme: Scheme| {
        ok.iter()
            .find(|(o, _)| {
                (o.seed, o.scenario, o.be, o.scheme) == (c.seed, c.scenario, c.be, scheme)
            })
            .map(|(_, v)| v.efficiency)
    };
    let (mut vs_allau, mut vs_obl) = (Vec::new(), Vec::new());
    let (mut ttft, mut ttft_n, mut tpot, mut tpot_n) = (0.0, 0u64, 0.0, 0u64);
    for (c, o) in ok.iter().filter(|(c, _)| c.scheme == Scheme::Aum) {
        ttft += o.ttft_guarantee * o.ttft_requests as f64;
        ttft_n += o.ttft_requests;
        tpot += o.tpot_guarantee * o.tpot_requests as f64;
        tpot_n += o.tpot_requests;
        if let Some(all_au) = eff(c, Scheme::AllAu) {
            vs_allau.push(o.efficiency / all_au - 1.0);
        }
        if let (Some(smt), Some(rp)) = (eff(c, Scheme::SmtAu), eff(c, Scheme::RpAu)) {
            vs_obl.push(o.efficiency / smt.max(rp) - 1.0);
        }
    }
    let mean = |v: &[f64]| {
        if v.is_empty() {
            0.0
        } else {
            v.iter().sum::<f64>() / v.len() as f64
        }
    };
    let share = |sum: f64, n: u64| if n == 0 { 0.0 } else { sum / n as f64 };
    SimSummary {
        gain_vs_allau: mean(&vs_allau),
        gain_vs_oblivious: mean(&vs_obl),
        ttft_slo_met: share(ttft, ttft_n),
        tpot_slo_met: share(tpot, tpot_n),
    }
}
