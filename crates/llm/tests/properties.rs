//! Property-based tests of the LLM serving substrate: conservation laws of
//! continuous batching, trace-generation statistics, cost-model
//! monotonicity under arbitrary workloads, and exactness of the cost
//! model's kernel memo.

use proptest::prelude::*;

use aum_au::counters::PmuCounters;
use aum_au::gemm::ExecContext;
use aum_au::unit::Precision;
use aum_llm::batching::{ActiveRequest, DecodePool, PrefillQueue};
use aum_llm::config::ModelConfig;
use aum_llm::cost::{iteration_cost, AuKernels, CostModel, IterationCost};
use aum_llm::engine::{EngineConfig, EngineMode, EngineResources, LlmEngine, RegionResources};
use aum_llm::ops::{iteration_ops, IterOp, Phase};
use aum_llm::request::Request;
use aum_llm::traces::{Scenario, TraceGenerator};
use aum_platform::spec::PlatformSpec;
use aum_platform::units::GbPerSec;
use aum_sim::rng::DetRng;
use aum_sim::time::{SimDuration, SimTime};

fn any_scenario() -> impl Strategy<Value = Scenario> {
    prop_oneof![
        Just(Scenario::Chatbot),
        Just(Scenario::CodeCompletion),
        Just(Scenario::Summarization)
    ]
}

/// Grants the memo property switches between: a base grant, one a single
/// ulp of bandwidth above it, one differing only in `compute_penalty`, and
/// a smaller contended one.
fn memo_grants(spec: &PlatformSpec) -> [ExecContext; 4] {
    let base = ExecContext::new(96, 3.1, spec.mem_bw);
    let ulp = GbPerSec(f64::from_bits(spec.mem_bw.value().to_bits() + 1));
    [
        base,
        ExecContext::new(96, 3.1, ulp),
        base.with_penalties(1.0, 1.25),
        ExecContext::new(24, 2.5, GbPerSec(spec.mem_bw.value() / 2.0)).with_penalties(1.3, 1.0),
    ]
}

fn cost_bits(c: &IterationCost) -> [u64; 6] {
    [
        c.time.as_nanos(),
        c.flops.to_bits(),
        c.bytes.to_bits(),
        c.bw_demand_gbs.to_bits(),
        c.memory_bound_frac.to_bits(),
        c.amx_flop_frac.to_bits(),
    ]
}

fn pmu_bits(p: &PmuCounters) -> [u64; 6] {
    [
        p.cycles,
        p.amx_busy_cycles,
        p.amx_fp_uops,
        p.avx_fp_uops,
        p.scalar_fp_uops,
        p.total_uops,
    ]
    .map(f64::to_bits)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// One `CostModel` stepped through a call sequence returns, bit for
    /// bit, what fresh `iteration_cost` calls return, and accumulates the
    /// same PMU counters. Phases interleave on one memo (harsher than the
    /// engine's one memo per phase); the grant and precision change only
    /// now and then, so most steps run against filled slots.
    #[test]
    fn cost_model_memo_matches_fresh_evaluation(
        steps in prop::collection::vec(
            (any::<bool>(), 1usize..8, 1usize..2048, 0u8..5, 0usize..4, any::<bool>()),
            1..48,
        ),
    ) {
        let spec = PlatformSpec::gen_a();
        let kernels = AuKernels::for_platform(&spec);
        let model = ModelConfig::llama2_7b();
        let grants = memo_grants(&spec);
        let mut memo = CostModel::new(kernels);
        let mut memo_pmu = PmuCounters::new();
        let mut fresh_pmu = PmuCounters::new();
        let (mut grant, mut prec) = (&grants[0], Precision::Bf16);
        for (prefill, tokens, context, regrant, g, int8) in steps {
            if regrant == 0 {
                grant = &grants[g];
                prec = if int8 { Precision::Int8 } else { Precision::Bf16 };
            }
            let phase = if prefill { Phase::Prefill } else { Phase::Decode };
            let a = memo.iteration(&model, phase, tokens, context, prec, grant, &mut memo_pmu);
            let b = iteration_cost(&model, phase, tokens, context, prec, &kernels, grant, &mut fresh_pmu);
            prop_assert_eq!(cost_bits(&a), cost_bits(&b));
            prop_assert_eq!(pmu_bits(&memo_pmu), pmu_bits(&fresh_pmu));
        }
    }

    #[test]
    fn traces_are_sorted_sized_and_bounded(
        scenario in any_scenario(),
        seed in any::<u64>(),
        rate in 0.1f64..5.0,
        secs in 1u64..120,
    ) {
        let trace = TraceGenerator::new(scenario, rate)
            .generate(&DetRng::from_seed(seed), SimDuration::from_secs(secs));
        for w in trace.windows(2) {
            prop_assert!(w[0].arrival <= w[1].arrival);
            prop_assert!(w[0].id < w[1].id);
        }
        for r in &trace {
            prop_assert!(r.arrival < SimTime::from_secs(secs));
            prop_assert!(r.input_len >= 16 && r.input_len <= scenario.mean_input() * 4);
            prop_assert!(r.output_len >= 4 && r.output_len <= scenario.mean_output() * 4);
        }
    }

    #[test]
    fn decode_pool_conserves_tokens(
        outputs in prop::collection::vec(2usize..50, 1..16),
        iter_ms in 10u64..200,
    ) {
        let mut pool = DecodePool::new(outputs.len());
        let total_expected: usize = outputs.iter().map(|&o| o - 1).sum();
        for (i, &out) in outputs.iter().enumerate() {
            pool.admit(ActiveRequest::start(&Request::new(i as u64, SimTime::ZERO, 100, out)));
        }
        let mut emitted = 0usize;
        let mut finished = 0usize;
        let mut guard = 0;
        while !pool.is_empty() {
            emitted += pool.batch();
            finished += pool.step(SimDuration::from_millis(iter_ms)).len();
            guard += 1;
            prop_assert!(guard < 10_000, "pool must drain");
        }
        prop_assert_eq!(emitted, total_expected, "every remaining token emitted exactly once");
        prop_assert_eq!(finished, outputs.len(), "every request retires exactly once");
    }

    #[test]
    fn lag_matches_its_definition(
        exec_ms in prop::collection::vec(1u64..400, 1..50),
        d_tpot_ms in 10u64..300,
    ) {
        // LAG_i = Σ (d_TPOT − e_token) over completed tokens.
        let mut pool = DecodePool::new(1);
        pool.admit(ActiveRequest::start(&Request::new(0, SimTime::ZERO, 10, exec_ms.len() + 1)));
        let mut expected = 0.0;
        for &ms in &exec_ms {
            let _ = pool.step(SimDuration::from_millis(ms));
            expected += (d_tpot_ms as f64 - ms as f64) / 1000.0;
            if !pool.is_empty() {
                let lag = pool.worst_lag_secs(SimDuration::from_millis(d_tpot_ms));
                prop_assert!((lag - expected).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn prefill_queue_is_fifo(arrivals in prop::collection::vec(0u64..10_000, 1..50), batch in 1usize..8) {
        let mut sorted = arrivals.clone();
        sorted.sort_unstable();
        let mut q = PrefillQueue::new();
        for (i, &a) in sorted.iter().enumerate() {
            q.push(Request::new(i as u64, SimTime::from_millis(a), 10, 10));
        }
        let mut last = None;
        while !q.is_empty() {
            for r in q.pop_batch(batch) {
                if let Some(prev) = last {
                    prop_assert!(r.id.0 > prev);
                }
                last = Some(r.id.0);
            }
        }
    }

    #[test]
    fn iteration_cost_monotone_in_tokens_and_context(
        tokens in 1usize..64,
        ctx_len in 16usize..4096,
    ) {
        let spec = PlatformSpec::gen_a();
        let kernels = AuKernels::for_platform(&spec);
        let exec_ctx = ExecContext::new(96, 3.1, spec.mem_bw);
        let mut pmu = PmuCounters::new();
        let model = ModelConfig::llama2_7b();
        let small = iteration_cost(&model, Phase::Decode, tokens, ctx_len,
            Precision::Bf16, &kernels, &exec_ctx, &mut pmu);
        let more_tokens = iteration_cost(&model, Phase::Decode, tokens + 8, ctx_len,
            Precision::Bf16, &kernels, &exec_ctx, &mut pmu);
        let more_ctx = iteration_cost(&model, Phase::Decode, tokens, ctx_len + 512,
            Precision::Bf16, &kernels, &exec_ctx, &mut pmu);
        prop_assert!(more_tokens.time >= small.time);
        prop_assert!(more_ctx.time >= small.time, "longer context reads more KV");
        prop_assert!(more_tokens.flops > small.flops);
        prop_assert!(more_ctx.bytes > small.bytes);
    }

    #[test]
    fn op_graphs_are_consistent(
        tokens in 1usize..64,
        ctx_len in 16usize..4096,
        phase in prop_oneof![Just(Phase::Prefill), Just(Phase::Decode)],
    ) {
        let model = ModelConfig::llama2_7b();
        let tokens = if phase == Phase::Prefill { tokens * ctx_len } else { tokens };
        let ops = iteration_ops(&model, phase, tokens, ctx_len);
        prop_assert!(!ops.is_empty());
        let flops: f64 = ops.iter().map(IterOp::total_flops).sum();
        prop_assert!(flops > 0.0);
        for op in &ops {
            prop_assert!(op.repeat >= 1);
            prop_assert!(!op.shape.is_empty(), "{}: degenerate shape", op.label);
        }
    }

    #[test]
    fn engine_never_loses_requests(
        seed in any::<u64>(),
        rate in 0.2f64..2.0,
        secs in 5u64..40,
    ) {
        let spec = PlatformSpec::gen_a();
        let trace = TraceGenerator::new(Scenario::CodeCompletion, rate)
            .generate(&DetRng::from_seed(seed), SimDuration::from_secs(secs));
        let n = trace.len() as u64;
        let mut engine = LlmEngine::new(
            EngineConfig::paper_default(Scenario::CodeCompletion), &spec, trace);
        let res = EngineResources {
            prefill: RegionResources::new(96, 2.5, spec.mem_bw),
            decode: RegionResources::new(96, 3.1, spec.mem_bw),
            mode: EngineMode::TimeMultiplexed,
        };
        let mut t = 0;
        while !engine.drained() && t < 10 * secs + 600 {
            t += 1;
            let _ = engine.run_interval(SimTime::from_secs(t), &res);
        }
        prop_assert!(engine.drained(), "engine must drain all {n} requests");
        prop_assert_eq!(engine.completed(), n);
        // Every request produced exactly one TTFT record.
        prop_assert_eq!(engine.ttft_records().len() as u64, n);
    }
}
