//! Serving-iteration cost evaluation: one decode and one prefill step of
//! llama2-7b through the full op-graph + roofline + PMU pipeline on a
//! fresh evaluator (the cold path), and a steady decode loop on one
//! `CostModel` under a fixed grant (the engine's pattern, where the weight
//! GEMMs hit the kernel memo).

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use aum_au::counters::PmuCounters;
use aum_au::gemm::ExecContext;
use aum_au::unit::Precision;
use aum_llm::config::ModelConfig;
use aum_llm::cost::{iteration_cost, AuKernels, CostModel};
use aum_llm::ops::Phase;
use aum_platform::spec::PlatformSpec;

fn bench(c: &mut Criterion) {
    let spec = PlatformSpec::gen_a();
    let kernels = AuKernels::for_platform(&spec);
    let model = ModelConfig::llama2_7b();
    let decode_ctx = ExecContext::new(96, 3.1, spec.mem_bw);
    let prefill_ctx = ExecContext::new(96, 2.5, spec.mem_bw);
    c.bench_function("llm_iteration/decode_bs16", |b| {
        b.iter(|| {
            let mut pmu = PmuCounters::new();
            iteration_cost(
                black_box(&model),
                Phase::Decode,
                16,
                855,
                Precision::Bf16,
                &kernels,
                &decode_ctx,
                &mut pmu,
            )
        })
    });
    c.bench_function("llm_iteration/prefill_755", |b| {
        b.iter(|| {
            let mut pmu = PmuCounters::new();
            iteration_cost(
                black_box(&model),
                Phase::Prefill,
                755,
                755,
                Precision::Bf16,
                &kernels,
                &prefill_ctx,
                &mut pmu,
            )
        })
    });
    c.bench_function("llm_iteration/decode_bs16_steady", |b| {
        let mut memo = CostModel::new(kernels);
        let mut pmu = PmuCounters::new();
        let mut context = 855;
        b.iter(|| {
            // Context grows by one token per step, as in a decode loop,
            // and wraps so a long measurement stays at realistic lengths.
            context = if context < 1879 { context + 1 } else { 855 };
            memo.iteration(
                black_box(&model),
                Phase::Decode,
                16,
                context,
                Precision::Bf16,
                &decode_ctx,
                &mut pmu,
            )
        })
    });
}

criterion_group!(benches, bench);
criterion_main!(benches);
