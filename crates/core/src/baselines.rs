//! Baseline resource managers (paper Table V).
//!
//! Three families:
//!
//! - **AU-exclusive** — [`AllAu`]: the whole processor serves the LLM, no
//!   sharing (current industry practice, §III-B);
//! - **AUV-oblivious sharing** — [`SmtAu`] (Holmes-style SMT co-location)
//!   and [`RpAu`] (PARTIES-style feedback resource partitioning); both are
//!   blind to AU usage, frequency coupling and AU resource bounds;
//! - **single-dimension AUM variants** — [`AuUp`] (usage pattern only),
//!   [`AuFi`] (frequency-aware division only), [`AuRb`] (bound-aware
//!   partitioning only) — the paper's ablations of three-dimensional
//!   awareness (Fig 14/16).

use aum_llm::engine::EngineMode;
use aum_platform::rdt::{RdtAllocation, ResourceVector};
use aum_platform::spec::PlatformSpec;
use aum_platform::topology::ProcessorDivision;

use crate::manager::{Decision, ResourceManager, SystemState};

fn au_favoring_alloc(spec: &PlatformSpec) -> RdtAllocation {
    RdtAllocation::new(
        ResourceVector::new(spec.l2_ways - 4, spec.llc_ways - 4, 0.9),
        ResourceVector::new(4, 4, 0.1),
    )
}

/// AU-exclusive deployment: all cores serve the LLM in the time-multiplexed
/// xFasterTransformer fashion, all resources belong to the AU class.
#[derive(Debug, Clone)]
pub struct AllAu {
    spec: PlatformSpec,
}

impl AllAu {
    /// Creates the scheme for a platform.
    #[must_use]
    pub fn new(spec: &PlatformSpec) -> Self {
        AllAu { spec: spec.clone() }
    }
}

impl ResourceManager for AllAu {
    fn name(&self) -> &'static str {
        "ALL-AU"
    }

    fn decide(&mut self, _state: &SystemState) -> Decision {
        let total = self.spec.total_cores();
        Decision {
            division: ProcessorDivision::exclusive(total, total / 3),
            allocation: RdtAllocation::new(
                ResourceVector::new(self.spec.l2_ways - 1, self.spec.llc_ways - 1, 1.0),
                ResourceVector::new(1, 1, 0.1),
            ),
            smt_sharing: false,
            engine_mode: EngineMode::TimeMultiplexed,
        }
    }

    fn observes_latency(&self) -> bool {
        false
    }
}

/// AUV-oblivious SMT sharing (Holmes-style): serving keeps every physical
/// core; the best-effort application rides the hyperthread siblings with no
/// cache/bandwidth partitioning.
#[derive(Debug, Clone)]
pub struct SmtAu {
    spec: PlatformSpec,
}

impl SmtAu {
    /// Creates the scheme for a platform.
    #[must_use]
    pub fn new(spec: &PlatformSpec) -> Self {
        SmtAu { spec: spec.clone() }
    }
}

impl ResourceManager for SmtAu {
    fn name(&self) -> &'static str {
        "SMT-AU"
    }

    fn decide(&mut self, _state: &SystemState) -> Decision {
        let total = self.spec.total_cores();
        Decision {
            division: ProcessorDivision::exclusive(total, total / 3),
            allocation: RdtAllocation::unpartitioned(&self.spec),
            smt_sharing: true,
            engine_mode: EngineMode::TimeMultiplexed,
        }
    }

    fn observes_latency(&self) -> bool {
        false
    }
}

/// AUV-oblivious workload-aware resource partitioning (PARTIES-style): a
/// static spatial split plus slow feedback that returns one resource step
/// to the latency-critical class on violation and harvests one step when
/// comfortable. Oblivious means: it cycles resources round-robin with no
/// notion of which resource the AU phases actually need, keeps a fixed
/// division, and never touches frequency regions.
#[derive(Debug, Clone)]
pub struct RpAu {
    spec: PlatformSpec,
    /// Harvest level 0..=4: how much has been given to the shared class.
    level: usize,
    /// Intervals to wait between adjustments (PARTIES settles slowly).
    cooldown: u32,
}

impl RpAu {
    /// Creates the scheme for a platform.
    #[must_use]
    pub fn new(spec: &PlatformSpec) -> Self {
        RpAu {
            spec: spec.clone(),
            level: 2,
            cooldown: 0,
        }
    }

    fn alloc_for_level(&self, level: usize) -> RdtAllocation {
        // Round-robin ladder over (llc, l2, bw) with equal-step treatment
        // of every resource — the oblivious part.
        let llc = [14, 12, 10, 8, 6][level];
        let l2 = [14, 12, 10, 8, 6][level];
        let bw = [0.9, 0.8, 0.7, 0.6, 0.5][level];
        RdtAllocation::new(
            ResourceVector::new(l2, llc, bw),
            ResourceVector::new(self.spec.l2_ways - l2, self.spec.llc_ways - llc, 1.0 - bw),
        )
    }
}

impl ResourceManager for RpAu {
    fn name(&self) -> &'static str {
        "RP-AU"
    }

    fn decide(&mut self, state: &SystemState) -> Decision {
        let slo = state.scenario.slo();
        let violated = state.recent_tpot_p90 > slo.tpot.as_secs_f64()
            || state.recent_ttft_p90 > slo.ttft.as_secs_f64();
        if self.cooldown > 0 {
            self.cooldown -= 1;
        } else if violated && self.level > 0 {
            self.level -= 1;
            self.cooldown = 4;
        } else if !violated && self.level < 4 {
            self.level += 1;
            self.cooldown = 4;
        }
        let total = self.spec.total_cores();
        let none = total / 4;
        let high = total / 3;
        Decision {
            division: ProcessorDivision::new(high, total - high - none, none),
            allocation: self.alloc_for_level(self.level),
            smt_sharing: false,
            engine_mode: EngineMode::Partitioned,
        }
    }
}

/// AUM variant with only Variation-1 (usage pattern) awareness: it sizes
/// the High/Low regions from observed phase pressure, but shares timidly
/// and keeps a static AU-favoring allocation — "AU-UP only optimizes
/// manipulation of AU applications rather than sharing" (§VII-B).
#[derive(Debug, Clone)]
pub struct AuUp {
    spec: PlatformSpec,
}

impl AuUp {
    /// Creates the scheme for a platform.
    #[must_use]
    pub fn new(spec: &PlatformSpec) -> Self {
        AuUp { spec: spec.clone() }
    }
}

impl ResourceManager for AuUp {
    fn name(&self) -> &'static str {
        "AU-UP"
    }

    fn decide(&mut self, state: &SystemState) -> Decision {
        let total = self.spec.total_cores();
        // Usage-aware split: queue pressure grows the High region; decode
        // batch sizes the Low region (it only needs enough cores to reach
        // the bandwidth ceiling).
        let high = if state.queue_len > 1 {
            total / 2
        } else {
            total * 2 / 5
        };
        let low = (total / 3).min(total - high);
        let none = total - high - low;
        Decision {
            division: ProcessorDivision::new(high, low, none),
            allocation: au_favoring_alloc(&self.spec),
            smt_sharing: false,
            engine_mode: EngineMode::Partitioned,
        }
    }

    fn observes_latency(&self) -> bool {
        false
    }
}

/// AUM variant with only Variation-2 (frequency interference) awareness:
/// it divides the processor into frequency regions and maximizes the
/// sharing region — "AU-FI splits the processor to mostly improve sharing
/// performance" (§VII-B) — with an unpartitioned-ish resource split.
#[derive(Debug, Clone)]
pub struct AuFi {
    spec: PlatformSpec,
}

impl AuFi {
    /// Creates the scheme for a platform.
    #[must_use]
    pub fn new(spec: &PlatformSpec) -> Self {
        AuFi { spec: spec.clone() }
    }
}

impl ResourceManager for AuFi {
    fn name(&self) -> &'static str {
        "AU-FI"
    }

    fn decide(&mut self, _state: &SystemState) -> Decision {
        let total = self.spec.total_cores();
        let none = total * 2 / 5;
        let high = total * 3 / 10;
        Decision {
            division: ProcessorDivision::new(high, total - high - none, none),
            allocation: RdtAllocation::new(
                ResourceVector::new(10, 10, 0.7),
                ResourceVector::new(6, 6, 0.3),
            ),
            smt_sharing: false,
            engine_mode: EngineMode::Partitioned,
        }
    }

    fn observes_latency(&self) -> bool {
        false
    }
}

/// AUM variant with only Variation-3 (resource bound) awareness: fixed
/// division, but the partition respects AU affinities — LLC is harvested
/// aggressively (decode barely needs it, Fig 13) while bandwidth is
/// protected, with feedback only on the bandwidth knob.
#[derive(Debug, Clone)]
pub struct AuRb {
    spec: PlatformSpec,
    shared_bw: f64,
    cooldown: u32,
}

impl AuRb {
    /// Creates the scheme for a platform.
    #[must_use]
    pub fn new(spec: &PlatformSpec) -> Self {
        AuRb {
            spec: spec.clone(),
            shared_bw: 0.2,
            cooldown: 0,
        }
    }
}

impl ResourceManager for AuRb {
    fn name(&self) -> &'static str {
        "AU-RB"
    }

    fn decide(&mut self, state: &SystemState) -> Decision {
        let slo = state.scenario.slo();
        let violated = state.recent_tpot_p90 > slo.tpot.as_secs_f64()
            || state.recent_ttft_p90 > slo.ttft.as_secs_f64();
        if self.cooldown > 0 {
            self.cooldown -= 1;
        } else if violated {
            self.shared_bw = (self.shared_bw - 0.05).max(0.05);
            self.cooldown = 2;
        } else {
            self.shared_bw = (self.shared_bw + 0.05).min(0.35);
            self.cooldown = 2;
        }
        let total = self.spec.total_cores();
        let none = total / 4;
        let high = total / 3;
        Decision {
            division: ProcessorDivision::new(high, total - high - none, none),
            allocation: RdtAllocation::new(
                // Bound-aware: AU keeps little LLC (it streams), most bw.
                ResourceVector::new(8, 4, 1.0 - self.shared_bw),
                ResourceVector::new(8, 12, self.shared_bw),
            ),
            smt_sharing: false,
            engine_mode: EngineMode::Partitioned,
        }
    }
}

/// Hindsight static-best: picks the single most efficient SLO-feasible
/// bucket from a profiled AUV model once and never adapts. The gap between
/// this scheme and AUM isolates the value of *runtime* adaptation (LAG
/// slack, collision response) from the value of offline profiling.
#[derive(Debug, Clone)]
pub struct StaticBest {
    decision: Decision,
}

impl StaticBest {
    /// Creates the scheme from a profiled model.
    #[must_use]
    pub fn new(model: &crate::profiler::AuvModel) -> Self {
        let slo = model.scenario.slo();
        let (d, c) = model.best_bucket(slo.ttft.as_secs_f64(), slo.tpot.as_secs_f64());
        let bucket = model.bucket(d, c);
        StaticBest {
            decision: Decision {
                division: bucket.division,
                allocation: bucket.allocation,
                smt_sharing: false,
                engine_mode: EngineMode::Partitioned,
            },
        }
    }
}

impl ResourceManager for StaticBest {
    fn name(&self) -> &'static str {
        "STATIC-BEST"
    }

    fn decide(&mut self, _state: &SystemState) -> Decision {
        self.decision
    }

    fn observes_latency(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aum_llm::traces::Scenario;
    use aum_sim::time::{SimDuration, SimTime};
    use aum_workloads::be::BeKind;

    fn state(tpot_p90: f64) -> SystemState {
        SystemState {
            now: SimTime::from_secs(10),
            scenario: Scenario::Chatbot,
            be: Some(BeKind::SpecJbb),
            queue_len: 0,
            head_wait: SimDuration::ZERO,
            decode_batch: 8,
            worst_lag_secs: 0.0,
            recent_ttft_p50: 0.1,
            recent_ttft_p90: 0.2,
            recent_tpot_p50: tpot_p90 * 0.9,
            recent_tpot_p90: tpot_p90,
            power_w: 220.0,
            bw_utilization: 0.9,
        }
    }

    #[test]
    fn all_au_takes_everything() {
        let spec = PlatformSpec::gen_a();
        let d = AllAu::new(&spec).decide(&state(0.08));
        assert_eq!(
            d.division.cores(aum_platform::topology::AuUsageLevel::None),
            0
        );
        assert!(!d.smt_sharing);
        assert_eq!(d.engine_mode, EngineMode::TimeMultiplexed);
    }

    #[test]
    fn smt_au_shares_hyperthreads_without_partitioning() {
        let spec = PlatformSpec::gen_a();
        let d = SmtAu::new(&spec).decide(&state(0.08));
        assert!(d.smt_sharing);
        assert_eq!(d.allocation.au.llc_ways, spec.llc_ways);
        assert_eq!(d.allocation.shared.llc_ways, spec.llc_ways);
    }

    #[test]
    fn rp_au_returns_resources_on_violation() {
        let spec = PlatformSpec::gen_a();
        let mut rp = RpAu::new(&spec);
        let comfortable = rp.decide(&state(0.05));
        // Drive several violated intervals (cooldown in between).
        let mut violated = comfortable;
        for _ in 0..12 {
            violated = rp.decide(&state(0.5));
        }
        assert!(
            violated.allocation.au.llc_ways > comfortable.allocation.au.llc_ways,
            "violation should win LLC back for the AU class"
        );
    }

    #[test]
    fn rp_au_harvests_when_comfortable() {
        let spec = PlatformSpec::gen_a();
        let mut rp = RpAu::new(&spec);
        let first = rp.decide(&state(0.05));
        let mut later = first;
        for _ in 0..12 {
            later = rp.decide(&state(0.05));
        }
        assert!(later.allocation.shared.llc_ways > first.allocation.shared.llc_ways);
    }

    #[test]
    fn au_up_grows_high_region_under_queue_pressure() {
        let spec = PlatformSpec::gen_a();
        let mut up = AuUp::new(&spec);
        let calm = up.decide(&state(0.08));
        let mut pressured_state = state(0.08);
        pressured_state.queue_len = 5;
        let pressured = up.decide(&pressured_state);
        use aum_platform::topology::AuUsageLevel::High;
        assert!(pressured.division.cores(High) > calm.division.cores(High));
    }

    #[test]
    fn au_fi_maximizes_sharing_region() {
        let spec = PlatformSpec::gen_a();
        let d = AuFi::new(&spec).decide(&state(0.08));
        use aum_platform::topology::AuUsageLevel::None;
        let others = [
            AuUp::new(&spec).decide(&state(0.08)),
            RpAu::new(&spec).decide(&state(0.08)),
        ];
        for o in others {
            assert!(d.division.cores(None) > o.division.cores(None));
        }
    }

    #[test]
    fn au_rb_harvests_llc_first() {
        let spec = PlatformSpec::gen_a();
        let d = AuRb::new(&spec).decide(&state(0.08));
        assert!(
            d.allocation.shared.llc_ways > d.allocation.au.llc_ways,
            "bound-aware: LLC goes to the shared class"
        );
        assert!(
            d.allocation.au.mem_bw_frac > 0.6,
            "bandwidth stays with the AU class"
        );
    }

    #[test]
    fn static_best_is_frozen() {
        let model = crate::profiler::build_model(&crate::profiler::ProfilerConfig::smoke(
            PlatformSpec::gen_a(),
            aum_llm::traces::Scenario::Chatbot,
            aum_workloads::be::BeKind::SpecJbb,
        ));
        let mut sb = StaticBest::new(&model);
        let a = sb.decide(&state(0.05));
        let b = sb.decide(&state(0.5));
        assert_eq!(a, b, "static-best never reacts to telemetry");
        assert_eq!(a.division.total_cores(), 96);
    }

    #[test]
    fn divisions_cover_all_platforms() {
        for spec in PlatformSpec::presets() {
            let total = spec.total_cores();
            let s = state(0.08);
            for d in [
                AllAu::new(&spec).decide(&s),
                SmtAu::new(&spec).decide(&s),
                RpAu::new(&spec).decide(&s),
                AuUp::new(&spec).decide(&s),
                AuFi::new(&spec).decide(&s),
                AuRb::new(&spec).decide(&s),
            ] {
                assert_eq!(d.division.total_cores(), total, "{}", spec.name);
            }
        }
    }
}
