//! Implementing your own resource manager against the `ResourceManager`
//! trait: a "bandwidth guardian" that only throttles the shared class when
//! memory-pool utilization runs hot, and compares itself against AUM.
//!
//! Run with: `cargo run --release -p aum --example custom_manager`

use aum::controller::AumController;
use aum::experiment::{run_experiment, ExperimentConfig};
use aum::manager::{Decision, ResourceManager, SystemState};
use aum::profiler::{build_model, ProfilerConfig};
use aum_llm::engine::EngineMode;
use aum_llm::traces::Scenario;
use aum_platform::rdt::{RdtAllocation, ResourceVector};
use aum_platform::spec::PlatformSpec;
use aum_platform::topology::ProcessorDivision;
use aum_sim::telemetry::Tracer;
use aum_workloads::be::BeKind;

/// Throttles the shared class's MBA allocation when the pool runs hot;
/// otherwise splits the machine statically.
struct BandwidthGuardian {
    division: ProcessorDivision,
    shared_bw: f64,
}

impl BandwidthGuardian {
    fn new(spec: &PlatformSpec) -> Self {
        let total = spec.total_cores();
        BandwidthGuardian {
            division: ProcessorDivision::new(total / 2, total / 4, total - total / 2 - total / 4),
            shared_bw: 0.3,
        }
    }
}

impl ResourceManager for BandwidthGuardian {
    fn name(&self) -> &'static str {
        "BW-GUARD"
    }

    fn decide(&mut self, state: &SystemState) -> Decision {
        // Simple feedback on pool utilization: hot pool → shrink the
        // shared class's bandwidth, cool pool → grow it.
        if state.bw_utilization > 0.95 {
            self.shared_bw = (self.shared_bw - 0.05).max(0.05);
        } else if state.bw_utilization < 0.8 {
            self.shared_bw = (self.shared_bw + 0.05).min(0.45);
        }
        Decision {
            division: self.division,
            allocation: RdtAllocation::new(
                ResourceVector::new(10, 10, 1.0 - self.shared_bw),
                ResourceVector::new(6, 6, self.shared_bw),
            ),
            smt_sharing: false,
            engine_mode: EngineMode::Partitioned,
        }
    }
}

fn main() -> Result<(), aum::AumError> {
    let spec = PlatformSpec::gen_a();
    let scenario = Scenario::Chatbot;
    let be = BeKind::SpecJbb;
    let cfg = ExperimentConfig::paper_default(spec.clone(), scenario, Some(be));

    let mut guardian = BandwidthGuardian::new(&spec);
    let guard_out = run_experiment(&cfg, &mut guardian, Tracer::disabled())?;

    let model = build_model(&ProfilerConfig::paper_default(spec.clone(), scenario, be));
    let aum_out = run_experiment(&cfg, &mut AumController::new(model), Tracer::disabled())?;

    for o in [&guard_out, &aum_out] {
        println!(
            "{:<10} efficiency {:.3} | TPOT-G {:.2} | BE {:>9.0}/s | {:.0} W",
            o.scheme, o.efficiency, o.slo.tpot_guarantee, o.be_rate, o.avg_power_w,
        );
    }
    println!(
        "\nAUM vs custom guardian: {:+.1}% efficiency — the AUV model's usage/frequency/bound\n\
         awareness beats single-signal feedback.",
        (aum_out.efficiency / guard_out.efficiency - 1.0) * 100.0
    );
    Ok(())
}
