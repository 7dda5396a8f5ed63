//! Exactness of the harness's latency-window skip: a manager that reports
//! `observes_latency() == false` must get a bit-identical `Outcome` to the
//! same manager run with the windows selected every interval, with and
//! without sensor faults.

use aum::baselines::{AllAu, AuFi, AuUp, SmtAu, StaticBest};
use aum::experiment::{run_experiment, ExperimentConfig, Fault, FaultEvent, FaultPlan, Outcome};
use aum::manager::{Decision, ResourceManager, StaticManager, SystemState};
use aum::profiler::{build_model, ProfilerConfig};
use aum_llm::engine::EngineMode;
use aum_llm::traces::Scenario;
use aum_platform::rdt::{RdtAllocation, ResourceVector};
use aum_platform::spec::PlatformSpec;
use aum_platform::topology::ProcessorDivision;
use aum_sim::telemetry::{ResilienceMode, Tracer};
use aum_sim::time::SimDuration;
use aum_workloads::be::BeKind;

/// Makes the same decisions as the manager it wraps, but reports that it
/// reads the latency windows, so the harness selects them every interval.
struct Reading(Box<dyn ResourceManager>);

impl ResourceManager for Reading {
    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn decide(&mut self, state: &SystemState) -> Decision {
        self.0.decide(state)
    }

    fn attach_tracer(&mut self, tracer: Tracer) {
        self.0.attach_tracer(tracer);
    }

    fn resilience(&self) -> Option<ResilienceMode> {
        self.0.resilience()
    }
}

const SECS: u64 = 40;

/// No faults; sensor noise from 5 s on; a sensor dropout that spans the
/// last interval; one that ends mid-run.
fn fault_plans() -> [(&'static str, FaultPlan); 4] {
    [
        ("none", FaultPlan::none()),
        (
            "noise",
            FaultPlan::single(FaultEvent::permanent(
                5.0,
                Fault::SensorNoise { sigma: 0.3 },
            )),
        ),
        (
            "dropout to the end",
            FaultPlan::single(FaultEvent::permanent(30.0, Fault::SensorDropout)),
        ),
        (
            "dropout mid-run",
            FaultPlan::single(FaultEvent::windowed(10.0, 20.0, Fault::SensorDropout)),
        ),
    ]
}

fn skipping_managers(spec: &PlatformSpec) -> Vec<Box<dyn Fn() -> Box<dyn ResourceManager>>> {
    let model = build_model(&ProfilerConfig::smoke(
        spec.clone(),
        Scenario::Chatbot,
        BeKind::SpecJbb,
    ));
    let pinned = StaticManager::new(
        "pinned",
        Decision {
            division: ProcessorDivision::new(32, 24, 40),
            allocation: RdtAllocation::new(
                ResourceVector::new(10, 10, 0.8),
                ResourceVector::new(6, 6, 0.2),
            ),
            smt_sharing: false,
            engine_mode: EngineMode::Partitioned,
        },
    );
    let (a, b, c, d) = (spec.clone(), spec.clone(), spec.clone(), spec.clone());
    vec![
        Box::new(move || Box::new(pinned)),
        Box::new(move || Box::new(AllAu::new(&a))),
        Box::new(move || Box::new(SmtAu::new(&b))),
        Box::new(move || Box::new(AuUp::new(&c))),
        Box::new(move || Box::new(AuFi::new(&d))),
        Box::new(move || Box::new(StaticBest::new(&model))),
    ]
}

fn assert_identical(skipped: &Outcome, read: &Outcome, what: &str) {
    assert_eq!(skipped.scheme, read.scheme, "{what}");
    for (name, x, y) in [
        ("prefill_tps", skipped.prefill_tps, read.prefill_tps),
        ("decode_tps", skipped.decode_tps, read.decode_tps),
        ("be_rate", skipped.be_rate, read.be_rate),
        ("avg_power_w", skipped.avg_power_w, read.avg_power_w),
        ("efficiency", skipped.efficiency, read.efficiency),
    ] {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}: {name} {x} vs {y}");
    }
    assert_eq!(skipped.completed, read.completed, "{what}");
    assert_eq!(skipped.slo, read.slo, "{what}: SLO report");
    assert_eq!(skipped.ledger, read.ledger, "{what}: ledger");
    let (s, r) = (
        skipped.final_metrics.as_ref().expect("snapshot"),
        read.final_metrics.as_ref().expect("snapshot"),
    );
    assert_eq!(s.at, r.at, "{what}");
    assert_eq!(s.counters, r.counters, "{what}: counters");
    let bits = |m: &std::collections::BTreeMap<String, f64>| {
        m.iter()
            .map(|(k, v)| (k.clone(), v.to_bits()))
            .collect::<Vec<_>>()
    };
    assert_eq!(bits(&s.gauges), bits(&r.gauges), "{what}: gauges");
    // Everything else the outcome carries, down to the last sample.
    let json = |o: &Outcome| serde_json::to_string(o).expect("outcome serializes");
    assert_eq!(json(skipped), json(read), "{what}: full outcome");
}

#[test]
fn skipping_the_latency_windows_changes_no_outcome() {
    let spec = PlatformSpec::gen_a();
    for make in skipping_managers(&spec) {
        for (plan_name, plan) in fault_plans() {
            let mut cfg = ExperimentConfig::paper_default(
                spec.clone(),
                Scenario::Chatbot,
                Some(BeKind::SpecJbb),
            );
            cfg.duration = SimDuration::from_secs(SECS);
            cfg.fault = plan;
            let mut skipping = make();
            assert!(
                !skipping.observes_latency(),
                "{} should skip the windows",
                skipping.name()
            );
            let skipped = run_experiment(&cfg, skipping.as_mut(), Tracer::disabled()).expect("run");
            let mut reading = Reading(make());
            assert!(reading.observes_latency());
            let read = run_experiment(&cfg, &mut reading, Tracer::disabled()).expect("run");
            assert_identical(
                &skipped,
                &read,
                &format!("{} under {plan_name}", skipped.scheme),
            );
        }
    }
}
