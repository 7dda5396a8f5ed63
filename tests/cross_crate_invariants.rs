//! Invariants that span crate boundaries: the Table I specs must flow
//! consistently through the AU cost model, the LLM engine, and the
//! platform model — the chain every experiment depends on.

use aum_au::counters::PmuCounters;
use aum_au::gemm::{gemm_time, ExecContext, GemmShape};
use aum_au::unit::{AuKind, AuSpec, Precision};
use aum_llm::config::ModelConfig;
use aum_llm::cost::{iteration_cost, AuKernels};
use aum_llm::ops::Phase;
use aum_platform::power::ActivityClass;
use aum_platform::spec::PlatformSpec;
use aum_platform::state::{PlatformSim, RegionLoad};
use aum_platform::topology::AuUsageLevel;
use aum_platform::units::GbPerSec;
use aum_sim::time::SimDuration;

#[test]
fn paper_gemm_anchors_hold_on_gen_a() {
    // §IV-A3: prefill GEMM ≈40.57 TFLOPS, decode GEMM ≈3.87 TFLOPS.
    let spec = PlatformSpec::gen_a();
    let amx = AuSpec::for_platform(&spec, AuKind::Amx);
    let ctx = ExecContext::new(spec.total_cores(), 2.5, spec.mem_bw);
    let prefill = gemm_time(
        GemmShape::new(8192, 4096, 22016),
        Precision::Bf16,
        &amx,
        &ctx,
    );
    let decode = gemm_time(GemmShape::new(16, 4096, 22016), Precision::Bf16, &amx, &ctx);
    assert!(
        (34.0..48.0).contains(&prefill.achieved_tflops),
        "{}",
        prefill.achieved_tflops
    );
    assert!(
        (2.5..5.5).contains(&decode.achieved_tflops),
        "{}",
        decode.achieved_tflops
    );
    let ratio = prefill.achieved_tflops / decode.achieved_tflops;
    assert!(
        ratio > 7.0,
        "the phase gap is an order of magnitude, got {ratio}"
    );
}

#[test]
fn serving_throughput_anchor_holds() {
    // §III-B: GenA ≈188 tokens/s at batch 16.
    let spec = PlatformSpec::gen_a();
    let kernels = AuKernels::for_platform(&spec);
    let ctx = ExecContext::new(spec.total_cores(), 3.1, spec.mem_bw * 0.95);
    let mut pmu = PmuCounters::new();
    let cost = iteration_cost(
        &ModelConfig::llama2_7b(),
        Phase::Decode,
        16,
        855,
        Precision::Bf16,
        &kernels,
        &ctx,
        &mut pmu,
    );
    let tps = 16.0 / cost.time.as_secs_f64();
    assert!(
        (130.0..230.0).contains(&tps),
        "expected ≈188 tokens/s, got {tps}"
    );
}

#[test]
fn faster_platforms_serve_faster() {
    let run = |spec: &PlatformSpec| {
        let kernels = AuKernels::for_platform(spec);
        let gov = aum_platform::freq::FrequencyGovernor::for_spec(spec);
        let f = gov.license_frequency(AuUsageLevel::Low).value();
        let ctx = ExecContext::new(spec.total_cores(), f, spec.mem_bw * 0.95);
        let mut pmu = PmuCounters::new();
        iteration_cost(
            &ModelConfig::llama2_7b(),
            Phase::Decode,
            16,
            855,
            Precision::Bf16,
            &kernels,
            &ctx,
            &mut pmu,
        )
        .time
        .as_secs_f64()
    };
    let a = run(&PlatformSpec::gen_a());
    let b = run(&PlatformSpec::gen_b());
    let c = run(&PlatformSpec::gen_c());
    assert!(b < a * 0.6, "HBM must accelerate decode: {b} vs {a}");
    assert!(c < a * 0.6, "MCR must accelerate decode: {c} vs {a}");
}

#[test]
fn license_frequencies_feed_the_cost_model_consistently() {
    // The same AMX license frequency the governor reports must make prefill
    // slower than a hypothetical turbo-clocked run — the Variation-2 tax.
    let spec = PlatformSpec::gen_a();
    let kernels = AuKernels::for_platform(&spec);
    let at = |freq: f64| {
        let mut pmu = PmuCounters::new();
        iteration_cost(
            &ModelConfig::llama2_7b(),
            Phase::Prefill,
            755,
            755,
            Precision::Bf16,
            &kernels,
            &ExecContext::new(96, freq, spec.mem_bw),
            &mut pmu,
        )
        .time
        .as_secs_f64()
    };
    let licensed = at(2.5);
    let hypothetical_turbo = at(3.2);
    let tax = licensed / hypothetical_turbo;
    assert!(
        (1.15..1.35).contains(&tax),
        "AMX license costs ≈ 3.2/2.5 = 1.28× on compute-bound prefill, got {tax}"
    );
}

#[test]
fn platform_power_responds_to_engine_shaped_loads() {
    let spec = PlatformSpec::gen_a();
    let mut sim = PlatformSim::new(spec.clone());
    let serving = [
        RegionLoad::new(
            AuUsageLevel::High,
            32,
            ActivityClass::Amx,
            0.4,
            GbPerSec(40.0),
        ),
        RegionLoad::new(
            AuUsageLevel::Low,
            64,
            ActivityClass::Avx,
            0.9,
            GbPerSec(190.0),
        ),
    ];
    let idle = [RegionLoad::idle(AuUsageLevel::None, 96)];
    let p_serving = sim.step(SimDuration::from_millis(500), &serving).power;
    let p_idle = sim.step(SimDuration::from_millis(500), &idle).power;
    assert!(p_serving.value() > p_idle.value() + 50.0);
    assert!(p_idle.value() > 100.0, "static floor exists");
}

#[test]
fn public_types_are_send_and_sync() {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<PlatformSpec>();
    assert_send_sync::<aum::profiler::AuvModel>();
    assert_send_sync::<aum::controller::AumController>();
    assert_send_sync::<aum::experiment::Outcome>();
    assert_send_sync::<aum_llm::engine::LlmEngine>();
    assert_send_sync::<PlatformSim>();
}

#[test]
fn experiments_can_run_concurrently() {
    // The whole stack is value-oriented: experiments on different threads
    // must not interfere (no hidden globals).
    use aum::baselines::AllAu;
    use aum::experiment::{run_experiment, ExperimentConfig};
    use aum_llm::traces::Scenario;
    use aum_sim::telemetry::Tracer;
    let handles: Vec<_> = (0..4)
        .map(|seed| {
            std::thread::spawn(move || {
                let spec = PlatformSpec::gen_a();
                let mut cfg =
                    ExperimentConfig::paper_default(spec.clone(), Scenario::Chatbot, None);
                cfg.duration = SimDuration::from_secs(60);
                cfg.seed = seed;
                run_experiment(&cfg, &mut AllAu::new(&spec), Tracer::disabled())
                    .expect("run")
                    .decode_tps
            })
        })
        .collect();
    for h in handles {
        let tps = h.join().expect("no panic");
        assert!(tps > 10.0);
    }
}
