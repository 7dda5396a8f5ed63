//! End-to-end co-location experiment throughput: 60 simulated seconds of
//! chatbot + SPECjbb under a static partitioned manager.

use criterion::{criterion_group, criterion_main, Criterion};

use aum::experiment::{run_experiment, ExperimentConfig};
use aum::manager::{Decision, StaticManager};
use aum_llm::engine::EngineMode;
use aum_llm::traces::Scenario;
use aum_platform::rdt::{RdtAllocation, ResourceVector};
use aum_platform::spec::PlatformSpec;
use aum_platform::topology::ProcessorDivision;
use aum_sim::telemetry::Tracer;
use aum_sim::time::SimDuration;
use aum_workloads::be::BeKind;

fn bench(c: &mut Criterion) {
    let spec = PlatformSpec::gen_a();
    let mut cfg =
        ExperimentConfig::paper_default(spec.clone(), Scenario::Chatbot, Some(BeKind::SpecJbb));
    cfg.duration = SimDuration::from_secs(60);
    let decision = Decision {
        division: ProcessorDivision::new(48, 24, 24),
        allocation: RdtAllocation::new(
            ResourceVector::new(10, 10, 0.85),
            ResourceVector::new(6, 6, 0.15),
        ),
        smt_sharing: false,
        engine_mode: EngineMode::Partitioned,
    };
    let mut group = c.benchmark_group("e2e");
    group.sample_size(20);
    group.bench_function("colocation_60s", |b| {
        b.iter(|| {
            let mut mgr = StaticManager::new("static", decision);
            run_experiment(&cfg, &mut mgr, Tracer::disabled()).expect("run")
        })
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
