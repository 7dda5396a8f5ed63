//! The Table V baselines, exercised end-to-end: every scheme must produce
//! valid decisions on every platform, and their relative behaviours must
//! match the paper's characterization (Fig 9, 14, 16, 17).

use aum::baselines::{AllAu, AuFi, AuRb, AuUp, RpAu, SmtAu};
use aum::experiment::{run_experiment, ExperimentConfig, Outcome};
use aum::manager::ResourceManager;
use aum_llm::traces::Scenario;
use aum_platform::spec::PlatformSpec;
use aum_sim::telemetry::Tracer;
use aum_sim::time::SimDuration;
use aum_workloads::be::BeKind;

fn run(mgr: &mut dyn ResourceManager, spec: &PlatformSpec, be: Option<BeKind>) -> Outcome {
    let mut cfg = ExperimentConfig::paper_default(spec.clone(), Scenario::Chatbot, be);
    cfg.duration = SimDuration::from_secs(120);
    run_experiment(&cfg, mgr, Tracer::disabled()).expect("run")
}

#[test]
fn every_baseline_serves_on_every_platform() {
    for spec in PlatformSpec::presets() {
        let mut managers: Vec<Box<dyn ResourceManager>> = vec![
            Box::new(AllAu::new(&spec)),
            Box::new(SmtAu::new(&spec)),
            Box::new(RpAu::new(&spec)),
            Box::new(AuUp::new(&spec)),
            Box::new(AuFi::new(&spec)),
            Box::new(AuRb::new(&spec)),
        ];
        for mgr in managers.iter_mut() {
            let be = if mgr.name() == "ALL-AU" {
                None
            } else {
                Some(BeKind::SpecJbb)
            };
            let out = run(mgr.as_mut(), &spec, be);
            assert!(
                out.decode_tps > 10.0,
                "{} on {}: serving collapsed ({} tokens/s)",
                out.scheme,
                spec.name,
                out.decode_tps
            );
            assert!(out.avg_power_w > 100.0, "{}: implausible power", out.scheme);
        }
    }
}

#[test]
fn exclusive_has_best_au_performance_and_no_sharing() {
    let spec = PlatformSpec::gen_a();
    let excl = run(&mut AllAu::new(&spec), &spec, None);
    assert_eq!(excl.be_rate, 0.0);
    for mgr in [
        Box::new(SmtAu::new(&spec)) as Box<dyn ResourceManager>,
        Box::new(AuFi::new(&spec)),
    ] {
        let mut mgr = mgr;
        let out = run(mgr.as_mut(), &spec, Some(BeKind::Olap));
        assert!(
            out.decode_tps <= excl.decode_tps * 1.05,
            "{} cannot beat exclusive AU performance",
            out.scheme
        );
        assert!(out.be_rate > 0.0, "{} must share", out.scheme);
    }
}

#[test]
fn smt_with_olap_devastates_decode() {
    // Fig 9a: memory-intensive SMT siblings degrade AU latency >200%.
    let spec = PlatformSpec::gen_a();
    let excl = run(&mut AllAu::new(&spec), &spec, None);
    let smt = run(&mut SmtAu::new(&spec), &spec, Some(BeKind::Olap));
    assert!(
        smt.decode_tps < excl.decode_tps * 0.7,
        "OLAP hyperthreads must hurt decode: {} vs {}",
        smt.decode_tps,
        excl.decode_tps
    );
    assert!(
        smt.slo.tpot_guarantee < 0.2,
        "and its TPOT SLO: {}",
        smt.slo.tpot_guarantee
    );
}

#[test]
fn smt_with_compute_hurts_via_frequency_not_memory() {
    // Fig 9b: a compute sibling interferes little directly; its damage is
    // the license frequency drop, so decode (memory-bound) survives better
    // than with OLAP.
    let spec = PlatformSpec::gen_a();
    let olap = run(&mut SmtAu::new(&spec), &spec, Some(BeKind::Olap));
    let compute = run(&mut SmtAu::new(&spec), &spec, Some(BeKind::Compute));
    assert!(
        compute.decode_tps > olap.decode_tps * 1.3,
        "Compute sibling must hurt decode far less than OLAP: {} vs {}",
        compute.decode_tps,
        olap.decode_tps
    );
}

#[test]
fn au_fi_shares_most_cores_au_up_protects_serving() {
    // Fig 16: AU-FI maximizes sharing, AU-UP maximizes AU performance.
    let spec = PlatformSpec::gen_a();
    let fi = run(&mut AuFi::new(&spec), &spec, Some(BeKind::SpecJbb));
    let up = run(&mut AuUp::new(&spec), &spec, Some(BeKind::SpecJbb));
    assert!(
        fi.be_rate > up.be_rate * 1.5,
        "AU-FI shares more: {} vs {}",
        fi.be_rate,
        up.be_rate
    );
    assert!(
        up.slo.tpot_guarantee > fi.slo.tpot_guarantee,
        "AU-UP protects serving better: {} vs {}",
        up.slo.tpot_guarantee,
        fi.slo.tpot_guarantee
    );
}

#[test]
fn rp_au_feedback_converges_without_oscillating_wildly() {
    let spec = PlatformSpec::gen_a();
    let out = run(&mut RpAu::new(&spec), &spec, Some(BeKind::SpecJbb));
    // The PARTIES-style ladder must settle into a sane band: both classes
    // make progress and the shared LLC allocation varies by at most the
    // ladder's span.
    assert!(out.be_rate > 0.0);
    assert!(out.decode_tps > 40.0);
    let spread = out.shared_llc_samples.quantile(1.0) - out.shared_llc_samples.quantile(0.0);
    assert!(
        spread <= 8.0 + 1e-9,
        "ladder spread {spread} exceeds its design range"
    );
}

#[test]
fn au_rb_protects_bandwidth_over_llc() {
    let spec = PlatformSpec::gen_a();
    let out = run(&mut AuRb::new(&spec), &spec, Some(BeKind::SpecJbb));
    // Bound-aware partitioning gives the shared class most of the LLC
    // while protecting the AU's bandwidth: good TPOT, real sharing.
    assert!(
        out.slo.tpot_guarantee > 0.8,
        "TPOT guarantee {}",
        out.slo.tpot_guarantee
    );
    assert!(out.shared_llc_samples.quantile(0.5) >= 10.0);
}
