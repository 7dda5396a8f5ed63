//! The co-location experiment harness.
//!
//! Runs an AU-accelerated LLM serving workload (optionally sharing the
//! platform with one best-effort application) under a given resource
//! manager, coupling the substrates each control interval:
//!
//! 1. the manager observes serving/platform telemetry and decides a
//!    [`crate::manager::Decision`] (division, RDT allocation, SMT sharing,
//!    engine mode);
//! 2. the platform model resolves frequencies, bandwidth grants and power
//!    for the described loads (including SMT sibling power);
//! 3. the serving engine advances with the granted resources, and the BE
//!    throughput model integrates its progress;
//! 4. telemetry feeds back into the next decision.
//!
//! This is the reproduction's equivalent of the paper's testbed runs behind
//! Figures 14-18.
//!
//! One harness run simulates one server. Cluster-scale composition lives
//! in [`crate::cluster`] (steady-state split across servers) and
//! [`crate::fleet`] (the epoch-based resilient router above those
//! servers); both reuse this harness per node.

use std::collections::VecDeque;

use serde::{Deserialize, Serialize};

use aum_au::topdown::{signature, SignatureKind};
use aum_au::unit::Precision;
use aum_llm::config::ModelConfig;
use aum_llm::engine::{
    EngineConfig, EngineMode, EngineResources, IntervalStats, LlmEngine, RegionResources,
};
use aum_llm::kv::KvBudget;
use aum_llm::slo::SloReport;
use aum_llm::traces::{RateProfile, Scenario, TraceGenerator};
use aum_platform::power::ActivityClass;
use aum_platform::rdt::RdtAllocation;
use aum_platform::smt::{smt_impact, SmtImpact};
use aum_platform::spec::PlatformSpec;
use aum_platform::state::{
    PlatformSim, PlatformSnapshot, RegionLoad, SmtSibling, SMT_POWER_FACTOR,
};
use aum_platform::topology::{AuUsageLevel, ProcessorDivision};
use aum_platform::units::GbPerSec;
use aum_sim::attrib::{self, IntervalLedger, Ledger, RegionSample, WorkFractions};
use aum_sim::rng::DetRng;
use aum_sim::series::TimeSeries;
use aum_sim::span::{SpanId, SpanKind};
use aum_sim::stats::Samples;
use aum_sim::telemetry::{Event, MetricsRegistry, MetricsSnapshot, ResilienceMode, Tracer};
use aum_sim::time::{SimDuration, SimTime};
use aum_workloads::be::{BeKind, BeProfile};

use crate::error::AumError;
use crate::fault::{Edge, Replay};
use crate::manager::{Decision, ResourceManager, SystemState};
use crate::prices::{e_cpu, Prices};

pub use crate::fault::{Fault, FaultEvent, FaultPlan};

/// Load indices in the platform step.
const IDX_HIGH: usize = 0;
const IDX_LOW: usize = 1;
const IDX_NONE: usize = 2;
const IDX_SIBLING: usize = 3;

/// Configuration of one co-location experiment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExperimentConfig {
    /// Platform under test.
    pub platform: PlatformSpec,
    /// Serving scenario.
    pub scenario: Scenario,
    /// Co-located best-effort application (None = exclusive).
    pub be: Option<BeKind>,
    /// Simulated duration.
    pub duration: SimDuration,
    /// Control interval of the manager.
    pub control_interval: SimDuration,
    /// Experiment seed (trace + any stochastic components).
    pub seed: u64,
    /// Request rate override (req/s); scenario default when `None`.
    pub rate: Option<f64>,
    /// Time profile of the offered rate (diurnal/step studies).
    #[serde(default)]
    pub rate_profile: RateProfile,
    /// Scripted platform faults injected mid-run (empty = healthy run).
    /// Legacy single-`fault` JSON configs deserialize into a one-event
    /// plan; see [`FaultPlan`].
    #[serde(default)]
    pub fault: FaultPlan,
    /// Efficiency prices.
    pub prices: Prices,
    /// Served model.
    pub model: ModelConfig,
}

impl ExperimentConfig {
    /// The paper's default setup: llama2-7b on the given platform and
    /// scenario for 120 simulated seconds, 500 ms control interval.
    #[must_use]
    pub fn paper_default(platform: PlatformSpec, scenario: Scenario, be: Option<BeKind>) -> Self {
        ExperimentConfig {
            platform,
            scenario,
            be,
            duration: SimDuration::from_secs(300),
            control_interval: SimDuration::from_millis(500),
            seed: 42,
            rate: None,
            rate_profile: RateProfile::Constant,
            fault: FaultPlan::none(),
            prices: Prices::paper_default(),
            model: ModelConfig::llama2_7b(),
        }
    }
}

/// Aggregated result of one experiment run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Outcome {
    /// Manager scheme name.
    pub scheme: String,
    /// SLO guarantee report (Fig 17 inputs).
    pub slo: SloReport,
    /// Prefill tokens per second (`P_H`).
    pub prefill_tps: f64,
    /// Decode tokens per second (`P_L`).
    pub decode_tps: f64,
    /// Best-effort throughput units per second (`P_N`).
    pub be_rate: f64,
    /// Average package power, W.
    pub avg_power_w: f64,
    /// Weighted performance-per-watt (`E_CPU`).
    pub efficiency: f64,
    /// Completed requests.
    pub completed: u64,
    /// Per-interval samples of the shared class's LLC ways (Fig 18 CDF).
    pub shared_llc_samples: Samples,
    /// Per-interval samples of the shared class's bandwidth fraction ×100.
    pub shared_bw_samples: Samples,
    /// Low-region frequency telemetry.
    pub freq_low: TimeSeries,
    /// The run's metrics at its end: counters over the whole run (tokens,
    /// completions) and the last interval's gauges (power, utilization,
    /// queue depth, recent latency quantiles). `None` for a run with no
    /// control interval.
    #[serde(default)]
    pub final_metrics: Option<MetricsSnapshot>,
    /// Per-interval, per-region time/energy attribution (see
    /// [`aum_sim::attrib`]). Verified against the conservation invariants
    /// before the run returns; pre-ledger outcomes deserialize empty.
    #[serde(default)]
    pub ledger: Ledger,
}

impl Outcome {
    /// Normalized efficiency against a baseline outcome.
    #[must_use]
    pub fn efficiency_vs(&self, baseline: &Outcome) -> f64 {
        self.efficiency / baseline.efficiency.max(1e-12)
    }
}

/// Splits overlapping CAT masks into effective capacities: when the two
/// classes' ways oversubscribe the cache (overlapping masks, as in the
/// unpartitioned SMT-AU setup), each class effectively holds a
/// proportional share.
fn effective_ways(au: u32, shared: u32, total: u32, be_present: bool) -> (u32, u32) {
    if !be_present {
        return (au.min(total), 0);
    }
    let sum = au + shared;
    if sum <= total {
        (au, shared)
    } else {
        let au_eff = ((f64::from(au) * f64::from(total)) / f64::from(sum)).round() as u32;
        (
            au_eff.clamp(1, total - 1),
            total - au_eff.clamp(1, total - 1),
        )
    }
}

/// Runs one experiment under `manager`, with `tracer` threaded through the
/// whole stack: the engine (request lifecycle, iterations), the platform
/// (frequency/thermal transitions), the manager (decisions with reasons)
/// and this harness (RDT reallocations, fault injection). Pass
/// [`Tracer::disabled`] for an untraced run.
///
/// # Errors
///
/// [`AumError::ZeroControlInterval`] or [`AumError::FaultPlan`] for a
/// malformed config, [`AumError::DivisionMismatch`] when the manager's
/// division does not cover the platform's cores, and
/// [`AumError::Attribution`] when the attribution ledger does not close.
pub fn run_experiment(
    cfg: &ExperimentConfig,
    manager: &mut dyn ResourceManager,
    tracer: Tracer,
) -> Result<Outcome, AumError> {
    let mut run = Run::new(cfg, manager, tracer)?;
    for step in 0..run.steps {
        run.interval(step)?;
    }
    run.finish()
}

#[doc(hidden)]
pub use self::run_experiment as try_run_experiment_traced;

/// The state of one harness run: the coupled substrates, the fault plane,
/// the previous interval's feedback and the accumulators the [`Outcome`]
/// is built from.
struct Run<'a> {
    cfg: &'a ExperimentConfig,
    manager: &'a mut dyn ResourceManager,
    tracer: Tracer,
    engine: LlmEngine,
    platform: PlatformSim,
    span_track: String,
    be_profile: Option<BeProfile>,
    dt: SimDuration,
    steps: usize,

    // Fault plane.
    fault_replay: Replay,
    fault_active: Vec<bool>,
    sensor_rng: DetRng,
    frozen_sensors: Option<SystemState>,
    // What the RDT MSRs actually hold vs. what the manager last requested:
    // under an RdtWriteFailure the two diverge.
    applied_alloc: Option<RdtAllocation>,
    rdt_pending: VecDeque<(usize, RdtAllocation)>,
    last_alloc: Option<RdtAllocation>,
    // Scratch for the recent-latency windows, reused every interval.
    window_buf: Vec<f64>,
    stall_intervals: u32,

    // Feedback from the previous interval.
    last_stats: IntervalStats,
    last_power: f64,
    last_bw_util: f64,

    // Accumulators.
    energy_j: f64,
    be_units: f64,
    prefill_tokens: u64,
    decode_tokens: u64,
    shared_llc_samples: Samples,
    shared_bw_samples: Samples,
    freq_low: TimeSeries,
    requests_completed: u64,
    /// The registry gauges as the latest interval left them; the final
    /// metrics snapshot publishes them.
    gauges: [(&'static str, f64); 8],
    ledger: Ledger,
}

/// The faults active in one interval, composed by worst effect per
/// subsystem, as the phases after the fault plane read them.
#[derive(Default)]
struct FaultEffects {
    offline_cores: usize,
    be_surge: f64,
    sensor_sigma: f64,
    sensor_dropout: bool,
    rdt_failure: Option<u32>,
}

/// One interval's observation, its decision as the hardware runs it, and
/// the platform loads that decision describes.
struct Interval {
    /// What the manager observed (`state.now` is the interval's start).
    state: SystemState,
    /// The division after any core-offline shadow, the allocation the RDT
    /// MSRs hold.
    decision: Decision,
    au_llc: u32,
    shared_llc: u32,
    shared_l2: u32,
    prefill_amp: f64,
    decode_amp: f64,
    loads: [RegionLoad; 4],
    /// Thermal drops of the High/Low/None regions before the step.
    pre_drop: [f64; 3],
    /// SMT impacts on the High and Low regions when the BE shares cores.
    smt: Option<(SmtImpact, SmtImpact)>,
}

impl<'a> Run<'a> {
    /// Set-up: builds the engine and platform, attaches the tracer,
    /// validates the config and arms the fault replay.
    fn new(
        cfg: &'a ExperimentConfig,
        manager: &'a mut dyn ResourceManager,
        tracer: Tracer,
    ) -> Result<Self, AumError> {
        let spec = &cfg.platform;
        let total_cores = spec.total_cores();
        let rate = cfg.rate.unwrap_or_else(|| cfg.scenario.default_rate());
        let rng = DetRng::from_seed(cfg.seed);
        let trace = TraceGenerator::new(cfg.scenario, rate)
            .with_profile(cfg.rate_profile)
            .generate(&rng, cfg.duration);
        let engine_cfg = EngineConfig {
            model: cfg.model.clone(),
            precision: Precision::Bf16,
            max_batch: 16,
            prefill_batch: 1,
            scenario: cfg.scenario,
            kv_budget: Some(KvBudget::for_platform(spec, &cfg.model, Precision::Bf16)),
            prefill_chunk: None,
        };
        let mut engine = LlmEngine::new(engine_cfg, spec, trace);
        let mut platform = PlatformSim::new(spec.clone());
        engine.set_tracer(tracer.clone());
        platform.attach_tracer(tracer.clone());
        manager.attach_tracer(tracer.clone());
        // The span track names this run; every distinguishing knob is
        // folded in so concurrent cells sharing one sink never collide on
        // span ids (ids are unique per track only).
        let span_track = format!(
            "{}/{}+{} c{} r{} s{} d{} f{}",
            manager.name(),
            cfg.scenario.code(),
            cfg.be.map_or_else(|| "none".to_string(), |b| b.to_string()),
            total_cores,
            rate,
            cfg.seed,
            cfg.duration.as_secs_f64(),
            cfg.fault.events.len(),
        );
        engine.set_span_track(span_track.clone());
        // The run's SLO deadlines, once, so the trace is self-contained
        // for burn-rate analysis in `trace-summary`.
        let slo = cfg.scenario.slo();
        tracer.emit(SimTime::ZERO, || Event::SloTargets {
            ttft_secs: slo.ttft.as_secs_f64(),
            tpot_secs: slo.tpot.as_secs_f64(),
        });

        // Hand-edited JSON can carry a zero interval or a malformed fault
        // script: both fail the run cleanly before any work happens.
        let dt = cfg.control_interval;
        if dt.as_nanos() == 0 {
            return Err(AumError::ZeroControlInterval);
        }
        cfg.fault.validate().map_err(AumError::FaultPlan)?;
        let steps = (cfg.duration.as_nanos() / dt.as_nanos()) as usize;
        // Events no control boundary reaches are warned about rather than
        // silently dropped.
        let duration_secs = cfg.duration.as_secs_f64();
        let last_boundary = steps
            .checked_sub(1)
            .map(|last| (SimTime::ZERO + dt * last as u64).as_secs_f64());
        let (fault_replay, outside) = cfg.fault.replay(last_boundary);
        for i in outside {
            let ev = &cfg.fault.events[i];
            tracer.emit(SimTime::ZERO, || Event::FaultOutsideWindow {
                kind: ev.fault.kind_label().to_string(),
                at_secs: ev.at_secs,
                duration_secs,
            });
        }

        Ok(Run {
            cfg,
            manager,
            tracer,
            engine,
            platform,
            span_track,
            be_profile: cfg.be.map(BeProfile::of),
            dt,
            steps,
            fault_replay,
            fault_active: vec![false; cfg.fault.events.len()],
            sensor_rng: rng.stream("sensor-faults"),
            frozen_sensors: None,
            applied_alloc: None,
            rdt_pending: VecDeque::new(),
            last_alloc: None,
            window_buf: Vec::with_capacity(TTFT_WINDOW.max(TPOT_WINDOW)),
            stall_intervals: 0,
            last_stats: IntervalStats {
                prefill_busy: 0.5,
                decode_busy: 0.8,
                prefill_bw_demand: GbPerSec(90.0),
                decode_bw_demand: GbPerSec(spec.mem_bw.value() * 1.2),
                ..Default::default()
            },
            last_power: 120.0,
            last_bw_util: 0.5,
            energy_j: 0.0,
            be_units: 0.0,
            prefill_tokens: 0,
            decode_tokens: 0,
            shared_llc_samples: Samples::new(),
            shared_bw_samples: Samples::new(),
            freq_low: TimeSeries::new("freq_low_ghz"),
            requests_completed: 0,
            gauges: [("", 0.0); 8],
            ledger: Ledger::new(),
        })
    }

    /// The sim time of control boundary `step`.
    fn boundary(&self, step: usize) -> SimTime {
        SimTime::ZERO + self.dt * step as u64
    }

    /// One control interval, one call per phase.
    fn interval(&mut self, step: usize) -> Result<(), AumError> {
        let _prof = aum_sim::prof::scope("ctrl.interval");
        let now = self.boundary(step);
        let until = now + self.dt;
        let span = SpanId::derive(SpanKind::ControllerInterval, step as u64).0;
        self.tracer.emit(now, || Event::SpanOpen {
            id: span,
            parent: None,
            kind: SpanKind::ControllerInterval,
            track: self.span_track.clone(),
            label: format!("interval {step}"),
        });
        let faults = self.fault_edges(now)?;
        let state = self.observe(now, &faults, step + 1 == self.steps);
        let mut decision = self.decide(&state, faults.offline_cores)?;
        self.rdt_write(step, &mut decision, faults.rdt_failure);
        let iv = self.platform_loads(state, decision, faults.be_surge);
        let snap = self.platform_step(&iv.loads);
        let res = self.engine_resources(&iv, &snap);
        let stats = self.engine_run(until, &res);
        self.be_progress(&iv, &snap);
        self.attribute(&iv, &snap);
        self.account(&iv, &snap, &stats);
        self.tracer.emit(until, || Event::SpanClose {
            id: span,
            kind: SpanKind::ControllerInterval,
            track: self.span_track.clone(),
        });
        Ok(())
    }

    /// Fault plane: fires every edge due at this boundary, each exactly
    /// once, in (time, script index) order, then composes what is active.
    fn fault_edges(&mut self, now: SimTime) -> Result<FaultEffects, AumError> {
        let _prof = aum_sim::prof::scope("ctrl.fault");
        let events = &self.cfg.fault.events;
        let due = self.fault_replay.due(now.as_secs_f64());
        let faults_changed = !due.is_empty();
        for &Edge { index, apply, .. } in due {
            let ev = &events[index];
            self.fault_active[index] = apply;
            let id = SpanId::derive(SpanKind::FaultWindow, index as u64).0;
            if apply {
                self.tracer.emit(now, || Event::FaultInjected {
                    kind: ev.fault.kind_label().to_string(),
                    detail: ev.fault.detail(),
                });
                self.tracer.emit(now, || Event::SpanOpen {
                    id,
                    parent: None,
                    kind: SpanKind::FaultWindow,
                    track: self.span_track.clone(),
                    label: format!("fault {}", ev.fault.kind_label()),
                });
            } else {
                self.tracer.emit(now, || Event::FaultRecovered {
                    kind: ev.fault.kind_label().to_string(),
                });
                self.tracer.emit(now, || Event::SpanClose {
                    id,
                    kind: SpanKind::FaultWindow,
                    track: self.span_track.clone(),
                });
            }
        }
        let mut bw_frac = 1.0f64;
        let mut cooling = 0.0f64;
        let mut lock: Option<AuUsageLevel> = None;
        let mut fx = FaultEffects {
            be_surge: 1.0,
            ..FaultEffects::default()
        };
        for (ev, active) in events.iter().zip(&self.fault_active) {
            if !*active {
                continue;
            }
            match ev.fault {
                Fault::BandwidthDegrade { frac } => bw_frac = bw_frac.min(frac),
                Fault::ThermalRunaway { severity } => cooling = cooling.max(severity),
                // A High lock caps frequency lower than a Low lock.
                Fault::FrequencyLicenseLock { level } => lock = lock.max(Some(level)),
                Fault::CoreOffline { count } => fx.offline_cores += count,
                Fault::BeSurge { factor } => fx.be_surge *= factor,
                Fault::SensorNoise { sigma } => fx.sensor_sigma = fx.sensor_sigma.max(sigma),
                Fault::SensorDropout => fx.sensor_dropout = true,
                Fault::RdtWriteFailure { delay_intervals: d } => {
                    fx.rdt_failure = Some(fx.rdt_failure.map_or(d, |f| f.min(d)));
                }
            }
        }
        if faults_changed {
            self.platform.degrade_bandwidth(bw_frac)?;
            self.platform.set_cooling_loss(cooling);
            self.platform.set_license_lock(lock);
        }
        Ok(fx)
    }

    /// Observe: the telemetry the manager sees, as sensor faults corrupt
    /// it (the ground truth driving the engine and platform stays intact).
    /// The latency windows are selected only when read: by the manager,
    /// by a sensor dropout's frozen frame, or by the final snapshot in the
    /// `last` interval. Skipping them is exact (DESIGN.md §16.1).
    fn observe(&mut self, now: SimTime, faults: &FaultEffects, last: bool) -> SystemState {
        let _prof = aum_sim::prof::scope("ctrl.observe");
        let (mut ttft, mut tpot) = ((0.0, 0.0), (0.0, 0.0));
        if last || faults.sensor_dropout || self.manager.observes_latency() {
            ttft = recent_quantiles(
                self.engine.ttft_records(),
                TTFT_WINDOW,
                |r| r.ttft.as_secs_f64(),
                &mut self.window_buf,
            );
            tpot = recent_quantiles(
                self.engine.token_records(),
                TPOT_WINDOW,
                |r| r.exec.as_secs_f64(),
                &mut self.window_buf,
            );
        }
        let mut state = SystemState {
            now,
            scenario: self.cfg.scenario,
            be: self.cfg.be,
            queue_len: self.engine.queue_len(),
            head_wait: self.engine.head_wait(),
            decode_batch: self.engine.decode_batch(),
            worst_lag_secs: self.engine.worst_lag_secs(),
            recent_ttft_p50: ttft.0,
            recent_ttft_p90: ttft.1,
            recent_tpot_p50: tpot.0,
            recent_tpot_p90: tpot.1,
            power_w: self.last_power,
            bw_utilization: self.last_bw_util,
        };
        if faults.sensor_dropout {
            // Stale readback: the manager keeps seeing the last frame from
            // before the dropout, only the clock advances.
            let mut stale = self.frozen_sensors.get_or_insert(state).clone();
            stale.now = now;
            return stale;
        }
        self.frozen_sensors = None;
        let sigma = faults.sensor_sigma;
        if sigma > 0.0 {
            // Multiplicative lognormal noise on the continuous sensors:
            // stays positive, is unbiased in log space, and scales with
            // the reading's magnitude like real measurement jitter. Every
            // sensor draws, skipped windows included, so the noise stream
            // stays in step whatever the manager reads.
            let mut jitter = |v: f64| v * self.sensor_rng.normal(0.0, sigma).exp();
            state.recent_ttft_p50 = jitter(state.recent_ttft_p50);
            state.recent_ttft_p90 = jitter(state.recent_ttft_p90);
            state.recent_tpot_p50 = jitter(state.recent_tpot_p50);
            state.recent_tpot_p90 = jitter(state.recent_tpot_p90);
            state.power_w = jitter(state.power_w);
            state.bw_utilization = jitter(state.bw_utilization);
        }
        state
    }

    /// Decide: the manager's decision, its division checked against the
    /// platform. A CoreOffline fault shadows the division the hardware
    /// runs: the manager's view stays full-width (it cannot see the dead
    /// cores), the hardware comes up short.
    fn decide(&mut self, state: &SystemState, offline: usize) -> Result<Decision, AumError> {
        let _prof = aum_sim::prof::scope("ctrl.decide");
        let decision = self.manager.decide(state);
        let total_cores = self.cfg.platform.total_cores();
        if decision.division.total_cores() != total_cores {
            return Err(AumError::DivisionMismatch {
                manager: self.manager.name(),
                division: decision.division,
                total_cores,
            });
        }
        let division = apply_core_offline(decision.division, offline);
        Ok(Decision {
            division,
            ..decision
        })
    }

    /// RDT write path: under an RdtWriteFailure the requested allocation
    /// is silently dropped (delay 0) or lands late, and the hardware keeps
    /// its previous programming meanwhile. Leaves in `decision` what the
    /// MSRs hold.
    fn rdt_write(&mut self, step: usize, decision: &mut Decision, failure: Option<u32>) {
        let _prof = aum_sim::prof::scope("ctrl.rdt");
        let requested = decision.allocation;
        let alloc = match failure {
            None => {
                self.rdt_pending.clear();
                self.applied_alloc = Some(requested);
                requested
            }
            Some(0) => self.applied_alloc.unwrap_or(requested),
            Some(delay) => {
                let due = step + delay as usize;
                if self.rdt_pending.back().map(|&(_, a)| a) != Some(requested) {
                    self.rdt_pending.push_back((due, requested));
                }
                while self.rdt_pending.front().is_some_and(|&(d, _)| d <= step) {
                    let (_, a) = self.rdt_pending.pop_front().expect("front exists");
                    self.applied_alloc = Some(a);
                }
                self.applied_alloc.unwrap_or(requested)
            }
        };
        if let Some(prev) = self.last_alloc.filter(|&prev| prev != alloc) {
            self.tracer
                .emit(self.boundary(step), || Event::RdtReallocation {
                    llc_ways_from: prev.au.llc_ways,
                    llc_ways_to: alloc.au.llc_ways,
                    l2_ways_from: prev.au.l2_ways,
                    l2_ways_to: alloc.au.l2_ways,
                    mem_bw_from: prev.au.mem_bw_frac,
                    mem_bw_to: alloc.au.mem_bw_frac,
                });
        }
        self.last_alloc = Some(alloc);
        decision.allocation = alloc;
    }

    /// Platform loads: each region's load for the platform step, from the
    /// decision, the effective cache capacities and the previous
    /// interval's duty and demand.
    fn platform_loads(&self, state: SystemState, decision: Decision, be_surge: f64) -> Interval {
        let _prof = aum_sim::prof::scope("ctrl.loads");
        let spec = &self.cfg.platform;
        let (div, alloc) = (decision.division, decision.allocation);
        let ways = |au, shared, total| effective_ways(au, shared, total, self.be_profile.is_some());
        let (au_llc, shared_llc) = ways(alloc.au.llc_ways, alloc.shared.llc_ways, spec.llc_ways);
        let (_, shared_l2) = ways(alloc.au.l2_ways, alloc.shared.l2_ways, spec.l2_ways);
        let amp =
            |level| crate::calib::au_cache_profile(level).bandwidth_amplification(spec, au_llc);
        let (prefill_amp, decode_amp) = (amp(AuUsageLevel::High), amp(AuUsageLevel::Low));
        // A BE on the AU cores' SMT siblings.
        let smt_be = self.be_profile.as_ref().filter(|_| decision.smt_sharing);
        let sibling = smt_be.map(|p| SmtSibling {
            class: p.activity,
            duty: 0.9,
        });
        // Demands are duty-weighted: a phase that is busy 20% of the time
        // draws 20% of its running bandwidth on average — in the
        // time-multiplexed mode this is exactly what makes prefill and
        // decode share the pool correctly (they never run simultaneously).
        let last = &self.last_stats;
        let prefill_duty = last.prefill_busy.clamp(0.05, 1.0);
        let decode_duty = last.decode_busy.clamp(0.05, 1.0);
        let mut loads = [
            RegionLoad {
                level: AuUsageLevel::High,
                cores: div.cores(AuUsageLevel::High),
                class: ActivityClass::Amx,
                duty: prefill_duty,
                bw_demand: GbPerSec(last.prefill_bw_demand.value() * prefill_amp * prefill_duty),
                bw_cap: alloc.au.mem_bw_frac,
                smt_sibling: sibling,
            },
            RegionLoad {
                level: AuUsageLevel::Low,
                cores: div.cores(AuUsageLevel::Low),
                class: ActivityClass::Avx,
                duty: decode_duty,
                bw_demand: GbPerSec(last.decode_bw_demand.value() * decode_amp * decode_duty),
                bw_cap: alloc.au.mem_bw_frac,
                smt_sibling: sibling,
            },
            RegionLoad::idle(AuUsageLevel::None, div.cores(AuUsageLevel::None)),
            // Bandwidth placeholder for an SMT-sibling BE (no physical cores).
            RegionLoad::idle(AuUsageLevel::None, 0),
        ];
        if let Some(be) = &self.be_profile {
            let fluct = be.demand_multiplier(state.now.as_secs_f64(), be_surge);
            if div.cores(AuUsageLevel::None) > 0 {
                let cores = div.cores(AuUsageLevel::None);
                loads[IDX_NONE] = RegionLoad {
                    level: AuUsageLevel::None,
                    cores,
                    class: be.activity,
                    duty: 1.0,
                    bw_demand: GbPerSec(be.bw_demand(spec, cores, shared_llc).value() * fluct),
                    bw_cap: alloc.shared.mem_bw_frac,
                    smt_sibling: None,
                };
            }
            if decision.smt_sharing {
                // Sibling threads run at SMT efficiency: their achievable
                // bandwidth demand shrinks with their own slowdown.
                let smt_cores = div.au_cores();
                loads[IDX_SIBLING].bw_demand =
                    GbPerSec(be.bw_demand(spec, smt_cores, shared_llc).value() * fluct * 0.6);
                loads[IDX_SIBLING].bw_cap = alloc.shared.mem_bw_frac;
            }
        }
        // Thermal drops must be read *before* the step: `PlatformSim::step`
        // resolves this interval's frequencies against the pre-advance
        // thermal state, and the attribution ledger charges the same drop.
        let thermal = self.platform.thermal();
        let pre_drop = [AuUsageLevel::High, AuUsageLevel::Low, AuUsageLevel::None]
            .map(|level| thermal.drop_for(level).value());
        let smt = smt_be.map(|p| {
            (
                smt_impact(p.smt, AuUsageLevel::High, 1.0),
                smt_impact(p.smt, AuUsageLevel::Low, 1.0),
            )
        });
        Interval {
            state,
            decision,
            au_llc,
            shared_llc,
            shared_l2,
            prefill_amp,
            decode_amp,
            loads,
            pre_drop,
            smt,
        }
    }

    /// Platform step: resolves frequencies, bandwidth grants and power.
    fn platform_step(&mut self, loads: &[RegionLoad]) -> PlatformSnapshot {
        let _prof = aum_sim::prof::scope("platform.step");
        self.platform.step(self.dt, loads)
    }

    /// Engine resources: what each serving phase gets from the granted
    /// cores, frequencies and bandwidth.
    fn engine_resources(&self, iv: &Interval, snap: &PlatformSnapshot) -> EngineResources {
        let _prof = aum_sim::prof::scope("ctrl.resources");
        let spec = &self.cfg.platform;
        let (div, mode) = (iv.decision.division, iv.decision.engine_mode);
        let engine_cores = |own: usize| match mode {
            EngineMode::TimeMultiplexed => div.au_cores(),
            EngineMode::Partitioned => own,
        };
        let sustainable = self.platform.pool().sustainable().value();
        let region = |level, idx: usize, smt: Option<SmtImpact>| {
            let (compute, memory) = smt.map_or((1.0, 1.0), |i| {
                (i.au_compute_slowdown, i.au_memory_slowdown)
            });
            // While a phase actually runs it gets its time-averaged grant
            // compressed into its busy window, capped by the pool.
            let grant = snap.bw_grants[idx].granted.value() / iv.loads[idx].duty.max(0.05);
            RegionResources {
                cores: engine_cores(div.cores(level)),
                freq_ghz: snap.freqs[idx].value(),
                bandwidth: GbPerSec(grant.clamp(2.0, sustainable)),
                memory_penalty: crate::calib::au_llc_penalty(spec, level, iv.au_llc) * memory,
                compute_penalty: compute,
            }
        };
        EngineResources {
            prefill: region(AuUsageLevel::High, IDX_HIGH, iv.smt.map(|(high, _)| high)),
            decode: region(AuUsageLevel::Low, IDX_LOW, iv.smt.map(|(_, low)| low)),
            mode,
        }
    }

    /// Engine run: advances the serving engine to `until`, with the
    /// sim-time stall watchdog.
    fn engine_run(&mut self, until: SimTime, res: &EngineResources) -> IntervalStats {
        let stats = self.engine.run_interval(until, res);
        // Wall-clock heartbeat for the run-health watchdog: a long single
        // cell still counts as progress once per control interval.
        aum_sim::live::heartbeat();
        // Sim-time stall detection: work queued but zero tokens served for
        // WATCHDOG_STALL_INTERVALS consecutive intervals is a stall —
        // reported as a typed event (and a flight-recorder trigger) once
        // per episode, re-arming when progress resumes.
        if self.engine.queue_len() > 0 && stats.prefill_tokens == 0 && stats.decode_tokens == 0 {
            self.stall_intervals += 1;
            if self.stall_intervals == WATCHDOG_STALL_INTERVALS {
                let queue_len = self.engine.queue_len();
                let detail = format!(
                    "no serving progress for {:.1}s with {queue_len} request(s) queued",
                    f64::from(WATCHDOG_STALL_INTERVALS) * self.dt.as_secs_f64()
                );
                self.tracer.emit(until, || Event::WatchdogStall {
                    intervals: WATCHDOG_STALL_INTERVALS,
                    queue_len,
                    detail,
                });
            }
        } else {
            self.stall_intervals = 0;
        }
        stats
    }

    /// BE progress: the co-runner's throughput on its own cores and on the
    /// AU cores' SMT siblings.
    fn be_progress(&mut self, iv: &Interval, snap: &PlatformSnapshot) {
        let _prof = aum_sim::prof::scope("ctrl.be");
        let Some(be) = &self.be_profile else {
            return;
        };
        let div = iv.decision.division;
        let units = |level, idx: usize, grant: usize, smt_slowdown: f64| {
            let slowdown = snap.bw_grants[grant].slowdown.max(1.0);
            let freq = snap.freqs[idx].value();
            be.throughput(
                &self.cfg.platform,
                div.cores(level),
                freq,
                iv.shared_llc,
                iv.shared_l2,
                slowdown,
                smt_slowdown,
            ) * self.dt.as_secs_f64()
        };
        let mut total = 0.0;
        if div.cores(AuUsageLevel::None) > 0 {
            total += units(AuUsageLevel::None, IDX_NONE, IDX_NONE, 1.0);
        }
        if iv.decision.smt_sharing {
            let (high_i, low_i) = iv.smt.expect("smt impacts exist when smt_sharing");
            total += units(
                AuUsageLevel::High,
                IDX_HIGH,
                IDX_SIBLING,
                high_i.be_slowdown,
            );
            total += units(AuUsageLevel::Low, IDX_LOW, IDX_SIBLING, low_i.be_slowdown);
        }
        self.be_units += total;
    }

    /// Attribution ledger: this interval's time and energy per region,
    /// appended to the run's ledger.
    fn attribute(&mut self, iv: &Interval, snap: &PlatformSnapshot) {
        let _prof = aum_sim::prof::scope("ctrl.ledger");
        let (spec, dt_secs, now) = (&self.cfg.platform, self.dt.as_secs_f64(), iv.state.now);
        let div = iv.decision.division;
        // Decompose this interval's package power into per-region static
        // and dynamic watts, mirroring `PlatformSim`'s power closure term
        // by term: the ledger rows must re-derive `snap.power` so the
        // energy-conservation check cross-validates two independent
        // summations of the same model.
        let pm = self.platform.power_model();
        let idle_w = pm.idle_core_power().value();
        // Indexed AuHigh / AuLow / Shared / Uncore: the load slots map
        // one-to-one, the SMT-sibling slot books to Shared.
        let mut static_w = [0.0f64; 4];
        let mut dynamic_w = [0.0f64; 4];
        let mut claimed = 0usize;
        for (i, l) in iv.loads.iter().enumerate() {
            let r = i.min(IDX_NONE);
            claimed += l.cores;
            let core_w = pm.core_power(snap.freqs[i], l.class, l.duty).value();
            static_w[r] += idle_w * l.cores as f64;
            dynamic_w[r] += (core_w - idle_w) * l.cores as f64;
            if let Some(sib) = l.smt_sibling {
                // Sibling-thread BE work runs on AU cores but belongs to
                // the shared class's account.
                dynamic_w[2] += (pm.core_power(snap.freqs[i], sib.class, sib.duty).value()
                    - idle_w)
                    * SMT_POWER_FACTOR
                    * l.cores as f64;
            }
        }
        // Cores no load claims (e.g. offlined by a fault) idle on the
        // shared account; the uncore splits into its static floor plus the
        // bandwidth-proportional remainder.
        static_w[2] += idle_w * spec.total_cores().saturating_sub(claimed) as f64;
        static_w[3] += pm.uncore_power(0.0).value();
        dynamic_w[3] += pm.uncore_power(snap.bw_utilization).value() - pm.uncore_power(0.0).value();

        let turbo = self.platform.governor().turbo().value();
        let to_fractions = |w: aum_au::topdown::WorkSplit| WorkFractions {
            compute: w.compute,
            l1: w.l1,
            l2: w.l2,
            llc: w.llc,
            dram: w.dram,
            contention: w.contention,
        };
        let be_present = self.be_profile.is_some();
        let au_work = |kind: SignatureKind, idx: usize, amp: f64| -> WorkFractions {
            let split =
                signature(kind, spec).work_split(snap.bw_grants[idx].slowdown.max(1.0), amp);
            let mut w = to_fractions(split);
            if !be_present {
                // No co-runner: pool pressure is self-inflicted (prefill
                // and decode competing), not contention.
                w.dram += w.contention;
                w.contention = 0.0;
            }
            w
        };
        let (shared_busy, shared_work) = match &self.be_profile {
            Some(be) if div.cores(AuUsageLevel::None) > 0 || iv.decision.smt_sharing => {
                let (duty, idx) = if div.cores(AuUsageLevel::None) > 0 {
                    (1.0, IDX_NONE)
                } else {
                    (0.9, IDX_SIBLING)
                };
                let kind = match be.activity {
                    ActivityClass::MemoryBound => SignatureKind::Mcf,
                    _ => SignatureKind::Ads,
                };
                let split =
                    signature(kind, spec).work_split(snap.bw_grants[idx].slowdown.max(1.0), 1.0);
                (duty, to_fractions(split))
            }
            _ => (0.0, WorkFractions::all_compute()),
        };
        let shed = self.manager.resilience() == Some(ResilienceMode::SafeMode);
        // The High/Low/Shared rows read load slot, power row and thermal
        // drop at the same index.
        let sample = |region, idx: usize, busy_frac, work, shed| RegionSample {
            region,
            busy_frac,
            freq_ghz: snap.freqs[idx].value(),
            unlicensed_ghz: turbo,
            thermal_drop_ghz: iv.pre_drop[idx],
            work,
            static_j: static_w[idx] * dt_secs,
            dynamic_j: dynamic_w[idx] * dt_secs,
            shed,
        };
        let high_work = au_work(SignatureKind::Prefill, IDX_HIGH, iv.prefill_amp);
        let low_work = au_work(SignatureKind::Decode, IDX_LOW, iv.decode_amp);
        let region_samples = [
            sample(
                attrib::Region::AuHigh,
                IDX_HIGH,
                iv.loads[IDX_HIGH].duty,
                high_work,
                false,
            ),
            sample(
                attrib::Region::AuLow,
                IDX_LOW,
                iv.loads[IDX_LOW].duty,
                low_work,
                false,
            ),
            sample(
                attrib::Region::Shared,
                IDX_NONE,
                shared_busy,
                shared_work,
                shed,
            ),
            RegionSample {
                region: attrib::Region::Uncore,
                busy_frac: snap.bw_utilization.clamp(0.0, 1.0),
                freq_ghz: 1.0,
                unlicensed_ghz: 1.0,
                thermal_drop_ghz: 0.0,
                work: WorkFractions::all_dram(),
                static_j: static_w[3] * dt_secs,
                dynamic_j: dynamic_w[3] * dt_secs,
                shed: false,
            },
        ];
        let interval =
            IntervalLedger::build(now, dt_secs, snap.power.value() * dt_secs, &region_samples);
        if self.tracer.is_enabled() {
            for row in &interval.regions {
                let (region, time, energy) = (row.region, row.time, row.energy);
                self.tracer.emit(now, || Event::AttributionSample {
                    region,
                    dt_secs,
                    time,
                    energy,
                });
            }
        }
        self.ledger.intervals.push(interval);
    }

    /// Accounting and feedback: folds the interval into the accumulators,
    /// keeps its registry gauges for the final snapshot, and keeps the
    /// demands observed while busy for the next interval's loads.
    fn account(&mut self, iv: &Interval, snap: &PlatformSnapshot, stats: &IntervalStats) {
        let _prof = aum_sim::prof::scope("ctrl.accounting");
        let (state, now) = (&iv.state, iv.state.now);
        let power = snap.power.value();
        let freq_low = snap.freqs[IDX_LOW].value();
        let shared_llc = f64::from(iv.shared_llc);
        self.energy_j += power * self.dt.as_secs_f64();
        self.prefill_tokens += stats.prefill_tokens;
        self.decode_tokens += stats.decode_tokens;
        self.requests_completed += stats.completed;
        self.shared_llc_samples.record(shared_llc);
        let shared_bw = iv.decision.allocation.shared.mem_bw_frac;
        self.shared_bw_samples.record(shared_bw * 100.0);
        self.freq_low.push(now, freq_low);
        self.gauges = [
            ("power_w", power),
            ("bw_utilization", snap.bw_utilization),
            ("queue_len", state.queue_len as f64),
            ("decode_batch", state.decode_batch as f64),
            ("freq_low_ghz", freq_low),
            ("shared_llc_ways", shared_llc),
            ("recent_ttft_p90", state.recent_ttft_p90),
            ("recent_tpot_p50", state.recent_tpot_p50),
        ];

        // Feedback for the next interval: demands observed while busy.
        let last = &mut self.last_stats;
        if stats.prefill_bw_demand.value() > 0.0 {
            last.prefill_bw_demand = stats.prefill_bw_demand;
        }
        if stats.decode_bw_demand.value() > 0.0 {
            last.decode_bw_demand = stats.decode_bw_demand;
        }
        last.prefill_busy = stats.prefill_busy;
        last.decode_busy = stats.decode_busy;
        self.last_power = power;
        self.last_bw_util = snap.bw_utilization;
    }

    /// Finish: verifies the ledger, balances the span forest, takes the
    /// final metrics snapshot and builds the [`Outcome`].
    fn finish(mut self) -> Result<Outcome, AumError> {
        let cfg = self.cfg;
        let secs = cfg.duration.as_secs_f64();
        let p_h = self.prefill_tokens as f64 / secs;
        let p_l = self.decode_tokens as f64 / secs;
        let p_n = self.be_units / secs;
        let avg_power = self.energy_j / secs;
        let gamma = cfg.be.map_or(0.0, Prices::gamma);
        // Conservation gate: a ledger that does not close is a modeling
        // bug, not a reporting nuisance — fail the run with the typed
        // violation.
        self.ledger.verify(attrib::EPSILON)?;
        // Balance the span ledger: requests still in flight and fault
        // windows that never recovered close at the end of the run window,
        // so every trace yields a well-formed span forest.
        let end = self.boundary(self.steps);
        self.engine.close_open_spans(end);
        for (idx, active) in self.fault_active.iter().enumerate() {
            if *active {
                self.tracer.emit(end, || Event::SpanClose {
                    id: SpanId::derive(SpanKind::FaultWindow, idx as u64).0,
                    kind: SpanKind::FaultWindow,
                    track: self.span_track.clone(),
                });
            }
        }
        self.tracer.flush();
        let final_metrics = (self.steps > 0).then(|| {
            let mut registry = MetricsRegistry::new();
            registry.counter_add("prefill_tokens", self.prefill_tokens);
            registry.counter_add("decode_tokens", self.decode_tokens);
            registry.counter_add("requests_completed", self.requests_completed);
            for (name, value) in self.gauges {
                registry.gauge_set(name, value);
            }
            registry.snapshot(end)
        });
        let outcome = Outcome {
            scheme: self.manager.name().to_owned(),
            slo: self.engine.slo_report(),
            prefill_tps: p_h,
            decode_tps: p_l,
            be_rate: p_n,
            avg_power_w: avg_power,
            efficiency: e_cpu(cfg.prices, p_h, p_l, gamma, p_n, avg_power),
            completed: self.engine.completed(),
            shared_llc_samples: self.shared_llc_samples,
            shared_bw_samples: self.shared_bw_samples,
            freq_low: self.freq_low,
            final_metrics,
            ledger: self.ledger,
        };
        publish_live(&outcome);
        Ok(outcome)
    }
}

/// Consecutive zero-progress control intervals (with work queued) before
/// the sim-time watchdog reports a stall. At the default 500 ms interval
/// this is 8 s of simulated dead air — far beyond any healthy pause.
const WATCHDOG_STALL_INTERVALS: u32 = 16;

/// Publishes this run's final Prometheus exposition — the final metrics
/// snapshot plus the SLO latency histograms — to the live `/metrics`
/// endpoint, when one is installed ([`aum_sim::live`]). Runs executed as
/// sweep cells call this on completion, which is exactly the "refresh per
/// completed cell" contract of the live plane. Wall-clock observability
/// only: the published text never feeds back into the simulation.
fn publish_live(outcome: &Outcome) {
    let Some(live) = aum_sim::live::installed() else {
        return;
    };
    let mut text = String::new();
    if let Some(last) = &outcome.final_metrics {
        text.push_str(&aum_sim::prom::render_registry(last));
    }
    text.push_str(&aum_sim::prom::render_histogram(
        "aum_ttft_seconds",
        "Time-to-first-token distribution of the last completed cell.",
        &[("scheme", &outcome.scheme)],
        &outcome.slo.ttft_hist,
    ));
    text.push_str(&aum_sim::prom::render_histogram(
        "aum_tpot_request_seconds",
        "Per-request mean token-time distribution of the last completed cell.",
        &[("scheme", &outcome.scheme)],
        &outcome.slo.tpot_req_hist,
    ));
    live.publish_exposition(text);
}

/// Removes `count` cores from a division: spare (None) cores go first,
/// then decode (Low), then prefill (High); each AU region keeps at least
/// one core so serving degrades instead of disappearing outright.
fn apply_core_offline(div: ProcessorDivision, count: usize) -> ProcessorDivision {
    if count == 0 {
        return div;
    }
    let mut high = div.cores(AuUsageLevel::High);
    let mut low = div.cores(AuUsageLevel::Low);
    let mut none = div.cores(AuUsageLevel::None);
    let mut remaining = count;
    let take = |region: &mut usize, floor: usize, remaining: &mut usize| {
        let taken = region.saturating_sub(floor).min(*remaining);
        *region -= taken;
        *remaining -= taken;
    };
    take(&mut none, 0, &mut remaining);
    take(&mut low, 1, &mut remaining);
    take(&mut high, 1, &mut remaining);
    ProcessorDivision::new(high, low, none)
}

/// Recent TTFT records the manager's p50/p90 observation covers.
const TTFT_WINDOW: usize = 30;
/// Recent decode-token records the manager's p50/p90 observation covers.
const TPOT_WINDOW: usize = 300;

/// p50 and p90 of `secs` over the last `window` of `records` (finite
/// values only, as [`Samples::record`] keeps), or zeros when there are
/// none. Reads only the tail and fills the caller's reused `buf`, so the
/// cost is O(window) however long the run has been.
fn recent_quantiles<R>(
    records: &[R],
    window: usize,
    secs: impl Fn(&R) -> f64,
    buf: &mut Vec<f64>,
) -> (f64, f64) {
    let tail = &records[records.len().saturating_sub(window)..];
    buf.clear();
    buf.extend(tail.iter().map(secs).filter(|v| v.is_finite()));
    let [p50, p90] = aum_sim::stats::select_quantiles(buf, [0.5, 0.9]);
    (p50, p90)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manager::Decision;
    use aum_llm::engine::EngineMode;
    use aum_platform::rdt::{RdtAllocation, ResourceVector};

    /// A static manager for harness tests.
    struct Static {
        name: &'static str,
        decision: Decision,
    }

    impl ResourceManager for Static {
        fn name(&self) -> &'static str {
            self.name
        }
        fn decide(&mut self, _: &SystemState) -> Decision {
            self.decision
        }
    }

    fn exclusive_manager(total: usize) -> Static {
        Static {
            name: "exclusive",
            decision: Decision {
                division: ProcessorDivision::exclusive(total, total / 3),
                allocation: RdtAllocation::new(
                    ResourceVector::new(15, 15, 1.0),
                    ResourceVector::new(1, 1, 0.1),
                ),
                smt_sharing: false,
                engine_mode: EngineMode::TimeMultiplexed,
            },
        }
    }

    fn shared_manager(total: usize) -> Static {
        Static {
            name: "shared",
            decision: Decision {
                division: ProcessorDivision::new(
                    total / 3,
                    total / 4,
                    total - total / 3 - total / 4,
                ),
                allocation: RdtAllocation::new(
                    ResourceVector::new(10, 10, 0.8),
                    ResourceVector::new(6, 6, 0.3),
                ),
                smt_sharing: false,
                engine_mode: EngineMode::Partitioned,
            },
        }
    }

    fn short_cfg(be: Option<BeKind>) -> ExperimentConfig {
        let mut cfg = ExperimentConfig::paper_default(PlatformSpec::gen_a(), Scenario::Chatbot, be);
        cfg.duration = SimDuration::from_secs(60);
        cfg
    }

    #[test]
    fn exclusive_run_produces_serving_metrics() {
        let cfg = short_cfg(None);
        let mut mgr = exclusive_manager(cfg.platform.total_cores());
        let out = run_experiment(&cfg, &mut mgr, Tracer::disabled()).expect("run");
        // 60 s window at 0.4 req/s × 200 tokens includes ramp-up, so the
        // emitted-token rate sits below the 80 tokens/s offered load.
        assert!(out.decode_tps > 40.0, "decode tps {}", out.decode_tps);
        assert!(out.prefill_tps > 200.0, "prefill tps {}", out.prefill_tps);
        assert!(
            (150.0..=350.0).contains(&out.avg_power_w),
            "power {}",
            out.avg_power_w
        );
        assert!(out.efficiency > 0.0);
        assert_eq!(out.be_rate, 0.0);
        assert_eq!(out.scheme, "exclusive");
    }

    #[test]
    fn short_division_is_a_typed_error() {
        let cfg = short_cfg(None);
        let total = cfg.platform.total_cores();
        let mut mgr = shared_manager(total);
        mgr.name = "short";
        mgr.decision.division = ProcessorDivision::new(total / 3, total / 4, 1);
        let err = run_experiment(&cfg, &mut mgr, Tracer::disabled()).expect_err("short division");
        assert!(
            matches!(
                err,
                AumError::DivisionMismatch { manager: "short", total_cores, .. }
                    if total_cores == total
            ),
            "{err:?}"
        );
    }

    #[test]
    fn zero_control_interval_is_a_typed_error() {
        let mut cfg = short_cfg(None);
        cfg.control_interval = SimDuration::ZERO;
        let mut mgr = exclusive_manager(cfg.platform.total_cores());
        let err = run_experiment(&cfg, &mut mgr, Tracer::disabled())
            .expect_err("a zero control interval never finishes");
        assert!(matches!(err, AumError::ZeroControlInterval), "{err:?}");
    }

    #[test]
    fn sharing_adds_be_throughput() {
        let cfg = short_cfg(Some(BeKind::SpecJbb));
        let mut mgr = shared_manager(cfg.platform.total_cores());
        let out = run_experiment(&cfg, &mut mgr, Tracer::disabled()).expect("run");
        assert!(out.be_rate > 0.0, "BE work should progress");
        assert!(out.decode_tps > 35.0, "serving continues under sharing");
    }

    #[test]
    fn sharing_with_spatial_partition_can_beat_exclusive_efficiency() {
        // The paper's core claim: harvesting idle resources for BE work
        // improves performance-per-watt despite a small serving hit.
        let excl_cfg = short_cfg(None);
        let excl =
            run_experiment(&excl_cfg, &mut exclusive_manager(96), Tracer::disabled()).expect("run");
        let share_cfg = short_cfg(Some(BeKind::SpecJbb));
        let shared =
            run_experiment(&share_cfg, &mut shared_manager(96), Tracer::disabled()).expect("run");
        let gain = shared.efficiency_vs(&excl);
        assert!(
            gain > 1.0,
            "static sharing should already improve efficiency somewhat, got {gain}"
        );
        assert!(gain < 1.5, "gain should be moderate, got {gain}");
    }

    #[test]
    fn smt_sharing_degrades_slos_more_than_partitioned() {
        let total = 96;
        let smt = Static {
            name: "smt",
            decision: Decision {
                division: ProcessorDivision::exclusive(total, total / 3),
                allocation: RdtAllocation::unpartitioned(&PlatformSpec::gen_a()),
                smt_sharing: true,
                engine_mode: EngineMode::TimeMultiplexed,
            },
        };
        let cfg = short_cfg(Some(BeKind::Olap));
        let mut smt = smt;
        let smt_out = run_experiment(&cfg, &mut smt, Tracer::disabled()).expect("run");
        let part_out =
            run_experiment(&cfg, &mut shared_manager(total), Tracer::disabled()).expect("run");
        assert!(
            smt_out.slo.tpot_guarantee < part_out.slo.tpot_guarantee,
            "OLAP on hyperthreads should hurt decode more: smt={} part={}",
            smt_out.slo.tpot_guarantee,
            part_out.slo.tpot_guarantee
        );
    }

    #[test]
    fn determinism_same_seed_same_outcome() {
        let cfg = short_cfg(Some(BeKind::SpecJbb));
        let a = run_experiment(&cfg, &mut shared_manager(96), Tracer::disabled()).expect("run");
        let b = run_experiment(&cfg, &mut shared_manager(96), Tracer::disabled()).expect("run");
        assert_eq!(a.decode_tps.to_bits(), b.decode_tps.to_bits());
        assert_eq!(a.efficiency.to_bits(), b.efficiency.to_bits());
        assert_eq!(a.completed, b.completed);
    }

    #[test]
    fn effective_ways_handles_overlap() {
        assert_eq!(effective_ways(8, 8, 16, true), (8, 8));
        assert_eq!(effective_ways(16, 16, 16, true), (8, 8));
        assert_eq!(effective_ways(12, 4, 16, true), (12, 4));
        assert_eq!(effective_ways(16, 16, 16, false), (16, 0));
    }

    #[test]
    fn telemetry_series_are_recorded() {
        let cfg = short_cfg(Some(BeKind::SpecJbb));
        let out = run_experiment(&cfg, &mut shared_manager(96), Tracer::disabled()).expect("run");
        assert_eq!(out.freq_low.len(), 120); // 60 s / 500 ms
        assert_eq!(out.shared_llc_samples.len(), 120);
    }

    #[test]
    fn final_metrics_close_the_run() {
        let cfg = short_cfg(Some(BeKind::SpecJbb));
        let out = run_experiment(&cfg, &mut shared_manager(96), Tracer::disabled()).expect("run");
        let last = out.final_metrics.expect("a run with intervals snapshots");
        assert_eq!(last.at, SimTime::from_secs(60));
        assert_eq!(last.counters["requests_completed"], out.completed);
        let decode = (out.decode_tps * cfg.duration.as_secs_f64()).round() as u64;
        assert_eq!(last.counters["decode_tokens"], decode);
        assert!(last.gauges["power_w"] > 100.0);
        assert_eq!(last.gauges.len(), 8);
    }

    #[test]
    fn observation_sees_only_the_last_window_of_records() {
        use aum_llm::request::{RequestId, TokenRecord, TtftRecord};
        // Record i has latency i ms. Latencies rise, so any record older
        // than the window would drag both quantiles down.
        let latency = |i: usize| SimDuration::from_millis(i as u64);
        let expected = |n: usize, window: usize| {
            let recent: Samples = (n.saturating_sub(window)..n)
                .map(|i| latency(i).as_secs_f64())
                .collect();
            (recent.quantile(0.5), recent.quantile(0.9))
        };
        let mut buf = Vec::new();
        for n in [0, 7, TTFT_WINDOW, TTFT_WINDOW + 1, 4 * TTFT_WINDOW] {
            let ttfts: Vec<TtftRecord> = (0..n)
                .map(|i| TtftRecord {
                    id: RequestId(i as u64),
                    arrival: SimTime::ZERO,
                    ttft: latency(i),
                })
                .collect();
            let got = recent_quantiles(&ttfts, TTFT_WINDOW, |r| r.ttft.as_secs_f64(), &mut buf);
            assert_eq!(got, expected(n, TTFT_WINDOW), "{n} TTFT records");
        }
        for n in [0, 120, TPOT_WINDOW, TPOT_WINDOW + 1, 4 * TPOT_WINDOW] {
            let tokens: Vec<TokenRecord> = (0..n)
                .map(|i| TokenRecord {
                    id: RequestId(0),
                    emitted: SimTime::ZERO,
                    exec: latency(i),
                })
                .collect();
            let got = recent_quantiles(&tokens, TPOT_WINDOW, |r| r.exec.as_secs_f64(), &mut buf);
            assert_eq!(got, expected(n, TPOT_WINDOW), "{n} token records");
        }
        // 100 TTFTs: only 70..=99 ms count, so p50 sits between 84 and 85 ms.
        let ttfts: Vec<TtftRecord> = (0..100)
            .map(|i| TtftRecord {
                id: RequestId(i as u64),
                arrival: SimTime::ZERO,
                ttft: latency(i),
            })
            .collect();
        let (p50, _) = recent_quantiles(&ttfts, TTFT_WINDOW, |r| r.ttft.as_secs_f64(), &mut buf);
        assert!((p50 - 0.0845).abs() < 1e-12, "p50 {p50}");
    }
}
