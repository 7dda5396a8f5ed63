//! Co-location study: every scheme of the paper's Table V against every
//! co-runner for one scenario — a miniature Fig 14/16/17.
//!
//! Run with: `cargo run --release -p aum --example colocation_study [cb|cc|sm]`

use aum::baselines::{AllAu, AuFi, AuRb, AuUp, RpAu, SmtAu};
use aum::controller::AumController;
use aum::experiment::{run_experiment, ExperimentConfig, Outcome};
use aum::manager::ResourceManager;
use aum::profiler::{build_model, ProfilerConfig};
use aum_llm::traces::Scenario;
use aum_platform::spec::PlatformSpec;
use aum_sim::telemetry::Tracer;
use aum_workloads::be::BeKind;

fn main() -> Result<(), aum::AumError> {
    let scenario = match std::env::args().nth(1).as_deref() {
        Some("cc") => Scenario::CodeCompletion,
        Some("sm") => Scenario::Summarization,
        _ => Scenario::Chatbot,
    };
    let spec = PlatformSpec::gen_a();
    println!("scenario: {scenario} on {}", spec.name);

    let exclusive_cfg = ExperimentConfig::paper_default(spec.clone(), scenario, None);
    let baseline = run_experiment(&exclusive_cfg, &mut AllAu::new(&spec), Tracer::disabled())?;
    print_row("ALL-AU (exclusive)", &baseline, &baseline);

    for be in BeKind::ALL {
        println!("\n--- sharing with {be} ---");
        let cfg = ExperimentConfig::paper_default(spec.clone(), scenario, Some(be));
        let model = build_model(&ProfilerConfig::paper_default(spec.clone(), scenario, be));
        let mut managers: Vec<Box<dyn ResourceManager>> = vec![
            Box::new(SmtAu::new(&spec)),
            Box::new(RpAu::new(&spec)),
            Box::new(AuUp::new(&spec)),
            Box::new(AuFi::new(&spec)),
            Box::new(AuRb::new(&spec)),
            Box::new(AumController::new(model)),
        ];
        for mgr in managers.iter_mut() {
            let out = run_experiment(&cfg, mgr.as_mut(), Tracer::disabled())?;
            print_row(&out.scheme.clone(), &out, &baseline);
        }
    }
    Ok(())
}

fn print_row(name: &str, o: &Outcome, base: &Outcome) {
    println!(
        "{name:<20} eff {:+6.1}% | TTFT-G {:.2} TPOT-G {:.2} | BE {:>9.0}/s | {:>5.0} W",
        (o.efficiency / base.efficiency - 1.0) * 100.0,
        o.slo.ttft_guarantee,
        o.slo.tpot_guarantee,
        o.be_rate,
        o.avg_power_w,
    );
}
