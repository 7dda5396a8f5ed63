//! The resource-manager interface all schemes implement.
//!
//! A manager observes the [`SystemState`] each control interval and returns
//! a [`Decision`]: processor division, RDT allocation, SMT sharing and
//! engine mode. AUM, the AUV-oblivious baselines (SMT-AU, RP-AU) and the
//! single-dimension AUM variants (AU-UP/AU-FI/AU-RB) all speak this
//! interface, so the experiment harness treats them identically.

use aum_llm::engine::EngineMode;
use aum_llm::traces::Scenario;
use aum_platform::rdt::RdtAllocation;
use aum_platform::topology::ProcessorDivision;
use aum_sim::telemetry::{ResilienceMode, Tracer};
use aum_sim::time::{SimDuration, SimTime};
use aum_workloads::be::BeKind;

/// Everything a manager may observe at a control boundary.
///
/// Mirrors what the paper's runtime controller reads in production:
/// lightweight serving telemetry (queue, LAG, recent latency percentiles)
/// plus platform telemetry (power, bandwidth utilization). No ground-truth
/// simulator internals are exposed.
#[derive(Debug, Clone, PartialEq)]
pub struct SystemState {
    /// Current time.
    pub now: SimTime,
    /// Serving scenario (SLOs).
    pub scenario: Scenario,
    /// Co-located application, if sharing.
    pub be: Option<BeKind>,
    /// Requests waiting for prefill.
    pub queue_len: usize,
    /// Waiting time of the oldest queued request (`t_wait`).
    pub head_wait: SimDuration,
    /// Active decode batch size.
    pub decode_batch: usize,
    /// Worst LAG across decode requests, seconds (+∞ when idle).
    pub worst_lag_secs: f64,
    /// Recent-window median TTFT, seconds (0 if no data yet).
    pub recent_ttft_p50: f64,
    /// Recent-window 90th-percentile TTFT, seconds.
    pub recent_ttft_p90: f64,
    /// Recent-window median token time, seconds.
    pub recent_tpot_p50: f64,
    /// Recent-window 90th-percentile token time, seconds.
    pub recent_tpot_p90: f64,
    /// Package power of the last interval, W.
    pub power_w: f64,
    /// Memory-pool utilization of the last interval.
    pub bw_utilization: f64,
}

/// A manager's resource decision for the next control interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Decision {
    /// Core division into High/Low/None regions (must cover the platform).
    pub division: ProcessorDivision,
    /// CAT/MBA allocation for the AU and shared classes. Overlapping masks
    /// (e.g. [`RdtAllocation::unpartitioned`]) are allowed and modeled as
    /// capacity contention.
    pub allocation: RdtAllocation,
    /// Whether the best-effort application also runs on the hyperthread
    /// siblings of AU cores (the SMT-AU deployment).
    pub smt_sharing: bool,
    /// How the serving engine uses its cores.
    pub engine_mode: EngineMode,
}

/// A resource manager scheme (Table V).
pub trait ResourceManager {
    /// Scheme name as printed in tables (e.g. "AUM", "SMT-AU").
    fn name(&self) -> &'static str;

    /// Produces the decision for the next control interval.
    fn decide(&mut self, state: &SystemState) -> Decision;

    /// Attaches a trace handle so the manager can explain its decisions
    /// ([`aum_sim::telemetry::Event::ControllerDecision`]). Managers without
    /// internal reasoning worth tracing keep this default no-op.
    fn attach_tracer(&mut self, _tracer: Tracer) {}

    /// The manager's current resilience state, if it has one. The
    /// attribution ledger uses this to label deliberately shed capacity
    /// as [`aum_sim::attrib::Cause::SafeModeShed`] rather than plain idle.
    /// Managers without a resilience layer keep this default.
    fn resilience(&self) -> Option<ResilienceMode> {
        None
    }

    /// Whether [`Self::decide`] reads the `recent_*` latency fields of
    /// [`SystemState`]. If not, the harness leaves them at 0.0 in the
    /// intervals where nothing else reads them (DESIGN.md §16.1).
    fn observes_latency(&self) -> bool {
        true
    }
}

/// A manager that always returns the same decision — used by the background
/// profiler to pin one configuration per profiling run, and handy in tests.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StaticManager {
    name: &'static str,
    decision: Decision,
}

impl StaticManager {
    /// Creates a static manager.
    #[must_use]
    pub fn new(name: &'static str, decision: Decision) -> Self {
        StaticManager { name, decision }
    }

    /// The pinned decision.
    #[must_use]
    pub fn decision(&self) -> Decision {
        self.decision
    }
}

impl ResourceManager for StaticManager {
    fn name(&self) -> &'static str {
        self.name
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
    use aum_platform::rdt::ResourceVector;

    struct Fixed(Decision);
    impl ResourceManager for Fixed {
        fn name(&self) -> &'static str {
            "fixed"
        }
        fn decide(&mut self, _state: &SystemState) -> Decision {
            self.0
        }
    }

    #[test]
    fn trait_objects_work() {
        let d = Decision {
            division: ProcessorDivision::new(32, 32, 32),
            allocation: RdtAllocation::new(
                ResourceVector::new(8, 8, 0.8),
                ResourceVector::new(8, 8, 0.2),
            ),
            smt_sharing: false,
            engine_mode: EngineMode::Partitioned,
        };
        let mut mgr: Box<dyn ResourceManager> = Box::new(Fixed(d));
        let state = SystemState {
            now: SimTime::ZERO,
            scenario: Scenario::Chatbot,
            be: Some(BeKind::SpecJbb),
            queue_len: 0,
            head_wait: SimDuration::ZERO,
            decode_batch: 0,
            worst_lag_secs: f64::INFINITY,
            recent_ttft_p50: 0.0,
            recent_ttft_p90: 0.0,
            recent_tpot_p50: 0.0,
            recent_tpot_p90: 0.0,
            power_w: 100.0,
            bw_utilization: 0.0,
        };
        let got = mgr.decide(&state);
        assert_eq!(got, d);
        assert_eq!(mgr.name(), "fixed");
    }
}
