//! Capacity planning: which platform and co-runner pairing yields the best
//! performance-per-watt for a target scenario, and how far from the GPU
//! reference it lands — the operator-facing use of the library.
//!
//! Run with: `cargo run --release -p aum --example capacity_planning`

use aum::controller::AumController;
use aum::experiment::{run_experiment, ExperimentConfig};
use aum::prices::Prices;
use aum::profiler::{build_model, ProfilerConfig};
use aum::tco::{tco_report, TcoInputs};
use aum_llm::traces::Scenario;
use aum_platform::spec::PlatformSpec;
use aum_sim::telemetry::Tracer;
use aum_workloads::be::BeKind;

fn main() -> Result<(), aum::AumError> {
    let scenario = Scenario::Chatbot;
    let mut best: Option<(String, BeKind, f64)> = None;
    for spec in PlatformSpec::presets() {
        for be in BeKind::ALL {
            let model = build_model(&ProfilerConfig::paper_default(spec.clone(), scenario, be));
            let cfg = ExperimentConfig::paper_default(spec.clone(), scenario, Some(be));
            let out = run_experiment(&cfg, &mut AumController::new(model), Tracer::disabled())?;
            let value_per_watt = out.efficiency;
            println!(
                "{:<6} + {:<8}: E_CPU {:.3} | decode {:>5.0} tok/s | BE {:>9.0}/s | {:.0} W | TPOT-G {:.2}",
                spec.name, be.to_string(), value_per_watt, out.decode_tps, out.be_rate,
                out.avg_power_w, out.slo.tpot_guarantee,
            );
            if best.as_ref().is_none_or(|(_, _, e)| value_per_watt > *e) {
                best = Some((spec.name.clone(), be, value_per_watt));
            }
        }
    }
    let (platform, be, eff) = best.expect("grid is non-empty");
    println!("\nbest pairing: {platform} + {be} (E_CPU {eff:.3})");

    // Where does an AUM-managed GenA land against the GPU reference?
    let report = tco_report(&TcoInputs::gen_a_with_gain(1.15));
    println!(
        "GenA + AUM vs A100 reference: {:.0}% perf-per-CapEx, {:.0}% perf-per-watt",
        report.perf_per_capex_vs_gpu * 100.0,
        report.perf_per_watt_vs_gpu * 100.0,
    );
    let _ = Prices::paper_default();
    Ok(())
}
