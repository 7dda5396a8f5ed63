//! End-to-end reproduction of the paper's headline claims on a reduced
//! scale: profile, serve under AUM, and compare with the exclusive and
//! AUV-oblivious deployments.

use aum::baselines::{AllAu, SmtAu};
use aum::controller::AumController;
use aum::experiment::{run_experiment, ExperimentConfig};
use aum::profiler::{build_model, ProfilerConfig};
use aum_llm::traces::Scenario;
use aum_platform::spec::PlatformSpec;
use aum_sim::telemetry::Tracer;
use aum_sim::time::SimDuration;
use aum_workloads::be::BeKind;

fn short(mut cfg: ExperimentConfig) -> ExperimentConfig {
    cfg.duration = SimDuration::from_secs(120);
    cfg
}

#[test]
fn aum_beats_exclusive_efficiency_with_specjbb() {
    let spec = PlatformSpec::gen_a();
    let model = build_model(&ProfilerConfig::paper_default(
        spec.clone(),
        Scenario::Chatbot,
        BeKind::SpecJbb,
    ));
    let exclusive = run_experiment(
        &short(ExperimentConfig::paper_default(
            spec.clone(),
            Scenario::Chatbot,
            None,
        )),
        &mut AllAu::new(&spec),
        Tracer::disabled(),
    )
    .expect("run");
    let aum = run_experiment(
        &short(ExperimentConfig::paper_default(
            spec.clone(),
            Scenario::Chatbot,
            Some(BeKind::SpecJbb),
        )),
        &mut AumController::new(model),
        Tracer::disabled(),
    )
    .expect("run");
    let gain = aum.efficiency_vs(&exclusive);
    // Paper: +8.8% on average; our simulated exclusive baseline wastes more
    // decode power, so the same mechanism lands somewhat higher. The claim
    // under test: a positive, bounded improvement.
    assert!(gain > 1.03, "AUM must beat exclusive serving, got {gain}");
    assert!(
        gain < 1.45,
        "gain should stay physically plausible, got {gain}"
    );
    assert!(aum.be_rate > 0.0, "AUM must actually run the co-runner");
    // Serving must not collapse: decode throughput within 10% of exclusive.
    assert!(
        aum.decode_tps > exclusive.decode_tps * 0.9,
        "AUM decode {} vs exclusive {}",
        aum.decode_tps,
        exclusive.decode_tps
    );
}

#[test]
fn aum_reduces_violations_vs_oblivious_smt() {
    let spec = PlatformSpec::gen_a();
    let model = build_model(&ProfilerConfig::paper_default(
        spec.clone(),
        Scenario::Chatbot,
        BeKind::SpecJbb,
    ));
    let cfg = short(ExperimentConfig::paper_default(
        spec.clone(),
        Scenario::Chatbot,
        Some(BeKind::SpecJbb),
    ));
    let smt = run_experiment(&cfg, &mut SmtAu::new(&spec), Tracer::disabled()).expect("run");
    let aum =
        run_experiment(&cfg, &mut AumController::new(model), Tracer::disabled()).expect("run");
    assert!(
        aum.slo.violation_rate() < smt.slo.violation_rate() - 0.05,
        "paper: AUM reduces SLO violations vs AUV-oblivious sharing; got AUM {} vs SMT {}",
        aum.slo.violation_rate(),
        smt.slo.violation_rate()
    );
}

#[test]
fn code_completion_ttft_is_unattainable_even_exclusively() {
    // §VII-C: for cc with its 75 ms TTFT, even exclusive prefill misses.
    let spec = PlatformSpec::gen_a();
    let cc_exclusive = run_experiment(
        &short(ExperimentConfig::paper_default(
            spec.clone(),
            Scenario::CodeCompletion,
            None,
        )),
        &mut AllAu::new(&spec),
        Tracer::disabled(),
    )
    .expect("run");
    assert!(
        cc_exclusive.slo.ttft_guarantee < 0.3,
        "cc TTFT is unattainable even exclusively, got {}",
        cc_exclusive.slo.ttft_guarantee
    );
    assert!(
        cc_exclusive.slo.tpot_guarantee > 0.9,
        "cc TPOT (150 ms) is loose, got {}",
        cc_exclusive.slo.tpot_guarantee
    );
}

#[test]
fn power_stays_within_physical_envelope() {
    let spec = PlatformSpec::gen_a();
    let out = run_experiment(
        &short(ExperimentConfig::paper_default(
            spec.clone(),
            Scenario::Chatbot,
            None,
        )),
        &mut AllAu::new(&spec),
        Tracer::disabled(),
    )
    .expect("run");
    // §III-B anchors GenA serving at ≈270 W; idle floor is ≈138 W.
    assert!(
        (140.0..=320.0).contains(&out.avg_power_w),
        "package power {} outside the physical envelope",
        out.avg_power_w
    );
}
