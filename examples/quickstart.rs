//! Quickstart: profile a platform, serve a chatbot workload alongside
//! SPECjbb under AUM, and compare against the exclusive deployment.
//!
//! Run with: `cargo run --release -p aum --example quickstart`

use aum::baselines::AllAu;
use aum::controller::AumController;
use aum::experiment::{run_experiment, ExperimentConfig};
use aum::profiler::{build_model, ProfilerConfig};
use aum_llm::traces::Scenario;
use aum_platform::spec::PlatformSpec;
use aum_sim::telemetry::Tracer;
use aum_workloads::be::BeKind;

fn main() -> Result<(), aum::AumError> {
    let spec = PlatformSpec::gen_a();
    println!(
        "platform: {} ({} cores, {} memory)",
        spec.name,
        spec.total_cores(),
        spec.memory
    );

    // 1. Background profiling: characterize the accelerator-unit variations
    //    into the discrete AUV model (offline, amortized across the fleet).
    println!("profiling AUV model...");
    let model = build_model(&ProfilerConfig::paper_default(
        spec.clone(),
        Scenario::Chatbot,
        BeKind::SpecJbb,
    ));
    println!(
        "  {} buckets from {} pinned executions",
        model.buckets.len(),
        model.profiling_runs
    );

    // 2. Serve exclusively (today's practice) and with AUM sharing.
    let exclusive_cfg = ExperimentConfig::paper_default(spec.clone(), Scenario::Chatbot, None);
    let shared_cfg =
        ExperimentConfig::paper_default(spec.clone(), Scenario::Chatbot, Some(BeKind::SpecJbb));

    let exclusive = run_experiment(&exclusive_cfg, &mut AllAu::new(&spec), Tracer::disabled())?;
    let mut controller = AumController::new(model);
    let aum = run_experiment(&shared_cfg, &mut controller, Tracer::disabled())?;

    // 3. Compare.
    println!("\n{:<22}{:>12}{:>12}", "", "ALL-AU", "AUM");
    let rows: [(&str, f64, f64); 6] = [
        ("prefill tokens/s", exclusive.prefill_tps, aum.prefill_tps),
        ("decode tokens/s", exclusive.decode_tps, aum.decode_tps),
        ("SPECjbb jOPS/s", exclusive.be_rate, aum.be_rate),
        ("package power (W)", exclusive.avg_power_w, aum.avg_power_w),
        (
            "TPOT guarantee",
            exclusive.slo.tpot_guarantee,
            aum.slo.tpot_guarantee,
        ),
        ("efficiency E_CPU", exclusive.efficiency, aum.efficiency),
    ];
    for (label, a, b) in rows {
        println!("{label:<22}{a:>12.2}{b:>12.2}");
    }
    println!(
        "\nAUM improves performance-per-watt by {:+.1}% while co-locating SPECjbb.",
        (aum.efficiency_vs(&exclusive) - 1.0) * 100.0
    );
    Ok(())
}
