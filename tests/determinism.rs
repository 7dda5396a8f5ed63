//! Bit-for-bit determinism of the full stack: the same seed must reproduce
//! identical outcomes — traces, platform evolution, controller decisions,
//! and final metrics.

use aum::controller::AumController;
use aum::experiment::{run_experiment, ExperimentConfig};
use aum::profiler::{build_model, ProfilerConfig};
use aum_llm::traces::Scenario;
use aum_platform::spec::PlatformSpec;
use aum_sim::telemetry::Tracer;
use aum_sim::time::SimDuration;
use aum_workloads::be::BeKind;

fn cfg(seed: u64) -> ExperimentConfig {
    let mut cfg = ExperimentConfig::paper_default(
        PlatformSpec::gen_a(),
        Scenario::Chatbot,
        Some(BeKind::SpecJbb),
    );
    cfg.duration = SimDuration::from_secs(90);
    cfg.seed = seed;
    cfg
}

#[test]
fn profiler_is_deterministic() {
    let pc = ProfilerConfig::smoke(PlatformSpec::gen_a(), Scenario::Chatbot, BeKind::SpecJbb);
    let a = build_model(&pc);
    let b = build_model(&pc);
    assert_eq!(
        a, b,
        "two profiling sweeps with the same seed must agree exactly"
    );
}

#[test]
fn aum_controller_runs_are_bit_identical() {
    let pc = ProfilerConfig::smoke(PlatformSpec::gen_a(), Scenario::Chatbot, BeKind::SpecJbb);
    let run = || {
        let model = build_model(&pc);
        run_experiment(&cfg(7), &mut AumController::new(model), Tracer::disabled()).expect("run")
    };
    let a = run();
    let b = run();
    assert_eq!(a.efficiency.to_bits(), b.efficiency.to_bits());
    assert_eq!(a.decode_tps.to_bits(), b.decode_tps.to_bits());
    assert_eq!(a.avg_power_w.to_bits(), b.avg_power_w.to_bits());
    assert_eq!(a.completed, b.completed);
    assert_eq!(
        a.slo.tpot_guarantee.to_bits(),
        b.slo.tpot_guarantee.to_bits()
    );
    assert_eq!(a.shared_llc_samples.values(), b.shared_llc_samples.values());
}

#[test]
fn different_seeds_differ() {
    let pc = ProfilerConfig::smoke(PlatformSpec::gen_a(), Scenario::Chatbot, BeKind::SpecJbb);
    let model = build_model(&pc);
    let a = run_experiment(
        &cfg(7),
        &mut AumController::new(model.clone()),
        Tracer::disabled(),
    )
    .expect("run");
    let b =
        run_experiment(&cfg(8), &mut AumController::new(model), Tracer::disabled()).expect("run");
    assert_ne!(
        a.decode_tps.to_bits(),
        b.decode_tps.to_bits(),
        "different seeds must produce different traces"
    );
}
