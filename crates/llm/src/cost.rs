//! Iteration cost evaluation.
//!
//! Folds an operator list ([`crate::ops::iteration_ops`]) through the
//! roofline cost model under a concrete execution context, picking the best
//! AU per operator and accumulating PMU counters — the serving-engine
//! analogue of running one xFasterTransformer step under `perf`.

use serde::{Deserialize, Serialize};

use aum_au::counters::PmuCounters;
use aum_au::gemm::{gemm_time, pick_unit, Bound, ExecContext, GemmExecution, GemmShape};
use aum_au::unit::{AuKind, AuSpec, Precision};
use aum_platform::spec::PlatformSpec;
use aum_sim::time::SimDuration;

use crate::config::ModelConfig;
use crate::ops::{iteration_ops, IterOp, Phase, OPS_PER_ITERATION};

/// Per-region AU kernel set for a platform.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AuKernels {
    /// AMX spec of the platform.
    pub amx: AuSpec,
    /// AVX-512 spec of the platform.
    pub avx: AuSpec,
}

impl AuKernels {
    /// Derives both kernel specs from a platform.
    #[must_use]
    pub fn for_platform(spec: &PlatformSpec) -> Self {
        AuKernels {
            amx: AuSpec::for_platform(spec, AuKind::Amx),
            avx: AuSpec::for_platform(spec, AuKind::Avx512),
        }
    }

    /// Evaluates `op` on its forced unit, or on the faster of AMX and
    /// AVX-512 when it has none.
    fn evaluate(&self, op: &IterOp, prec: Precision, ctx: &ExecContext) -> (AuKind, GemmExecution) {
        let (unit, exec) = match op.unit {
            Some(AuKind::Avx512) => (&self.avx, gemm_time(op.shape, prec, &self.avx, ctx)),
            Some(AuKind::Amx) => (&self.amx, gemm_time(op.shape, prec, &self.amx, ctx)),
            Some(AuKind::Scalar) | None => pick_unit(op.shape, prec, &self.amx, &self.avx, ctx),
        };
        (unit.kind, exec)
    }
}

/// Cost-model output for one serving iteration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct IterationCost {
    /// Wall time of the iteration.
    pub time: SimDuration,
    /// Total floating-point work.
    pub flops: f64,
    /// Total DRAM traffic.
    pub bytes: f64,
    /// Bandwidth the iteration *could* consume if the memory leg were free —
    /// the demand reported to the platform's bandwidth pool.
    pub bw_demand_gbs: f64,
    /// Fraction of wall time spent on memory-bound operators.
    pub memory_bound_frac: f64,
    /// Fraction of flops executed on AMX.
    pub amx_flop_frac: f64,
}

/// Iteration cost evaluator that remembers each op position's last kernel
/// evaluation.
///
/// An engine re-costs the same weight GEMMs every step: their shapes depend
/// only on the batch size, and the grant changes at most once per control
/// interval. Slot `i` holds op `i`'s shape, forced unit, picked unit and
/// [`GemmExecution`], all valid under one stored (grant, precision) key; a
/// new key clears every slot. A slot whose shape and forced unit match the
/// op skips [`gemm_time`]/[`pick_unit`]. Everything after the kernel
/// evaluation still runs per op and in op order, so every
/// [`IterationCost`] field and PMU counter is bit-identical to a fresh
/// [`iteration_cost`] call.
#[derive(Debug, Clone)]
pub struct CostModel {
    kernels: AuKernels,
    /// Grant and precision every filled slot was evaluated under.
    key: Option<(ExecContext, Precision)>,
    slots: [Option<Slot>; OPS_PER_ITERATION],
}

/// One op position's last kernel evaluation.
#[derive(Debug, Clone, Copy)]
struct Slot {
    shape: GemmShape,
    forced: Option<AuKind>,
    kind: AuKind,
    exec: GemmExecution,
}

impl CostModel {
    /// An evaluator over `kernels` with every slot empty.
    #[must_use]
    pub fn new(kernels: AuKernels) -> Self {
        CostModel {
            kernels,
            key: None,
            slots: [None; OPS_PER_ITERATION],
        }
    }

    /// Evaluates one iteration of `model` in `phase` with `tokens`/`context`
    /// (see [`iteration_ops`]) under the execution context, and accumulates
    /// PMU counters into `pmu`.
    #[allow(clippy::too_many_arguments)]
    #[must_use]
    pub fn iteration(
        &mut self,
        model: &ModelConfig,
        phase: Phase,
        tokens: usize,
        context: usize,
        prec: Precision,
        ctx: &ExecContext,
        pmu: &mut PmuCounters,
    ) -> IterationCost {
        let _prof = aum_sim::prof::scope("cost.iteration");
        let ops = iteration_ops(model, phase, tokens, context);
        self.cost_of_ops(&ops, prec, ctx, pmu)
    }

    fn cost_of_ops(
        &mut self,
        ops: &[IterOp; OPS_PER_ITERATION],
        prec: Precision,
        ctx: &ExecContext,
        pmu: &mut PmuCounters,
    ) -> IterationCost {
        let _prof = aum_sim::prof::scope("cost.eval_ops");
        // `==` is false on NaN, so a NaN grant never hits. It equates `0.0`
        // with `-0.0`, which no valid grant has: `ExecContext::new` asserts
        // every field positive.
        if self.key != Some((*ctx, prec)) {
            self.key = Some((*ctx, prec));
            self.slots = [None; OPS_PER_ITERATION];
        }
        let mut total = SimDuration::ZERO;
        let mut flops = 0.0;
        let mut bytes = 0.0;
        let mut compute_secs = 0.0;
        let mut memory_bound_secs = 0.0;
        let mut amx_flops = 0.0;
        for (op, slot) in ops.iter().zip(&mut self.slots) {
            let (kind, exec) = match slot {
                Some(s) if s.shape == op.shape && s.forced == op.unit => (s.kind, s.exec),
                _ => {
                    let (kind, exec) = self.kernels.evaluate(op, prec, ctx);
                    *slot = Some(Slot {
                        shape: op.shape,
                        forced: op.unit,
                        kind,
                        exec,
                    });
                    (kind, exec)
                }
            };
            let repeat = op.repeat as f64;
            // Repeats share one launch; scale the steady-state legs.
            let op_time = SimDuration::from_secs_f64(exec.time.as_secs_f64() * repeat);
            total += op_time;
            let op_flops = op.shape.flops() * repeat;
            flops += op_flops;
            bytes += op.shape.bytes(prec) * repeat;
            compute_secs += exec.compute_time.as_secs_f64() * repeat;
            if exec.bound == Bound::Memory {
                memory_bound_secs += op_time.as_secs_f64();
            }
            if kind == AuKind::Amx {
                amx_flops += op_flops;
            }
            // PMU: record one scaled execution. `record_gemm` reads only the
            // wall time, throughput and AU-busy cycles, so the legs pass
            // through per instance.
            let scaled = GemmExecution {
                time: op_time,
                au_busy_cycles_per_core: exec.au_busy_cycles_per_core * repeat,
                ..exec
            };
            pmu.record_gemm(&scaled, kind, ctx.cores, ctx.freq_ghz);
        }
        let wall = total.as_secs_f64().max(1e-12);
        IterationCost {
            time: total,
            flops,
            bytes,
            bw_demand_gbs: bytes / compute_secs.max(1e-9) / 1e9,
            memory_bound_frac: (memory_bound_secs / wall).clamp(0.0, 1.0),
            amx_flop_frac: if flops > 0.0 { amx_flops / flops } else { 0.0 },
        }
    }
}

/// Evaluates one iteration like [`CostModel::iteration`], on a fresh
/// evaluator: the one-shot entry point for callers that do not step an
/// engine.
///
/// # Examples
///
/// ```
/// use aum_au::counters::PmuCounters;
/// use aum_au::gemm::ExecContext;
/// use aum_au::unit::Precision;
/// use aum_llm::config::ModelConfig;
/// use aum_llm::cost::{iteration_cost, AuKernels};
/// use aum_llm::ops::Phase;
/// use aum_platform::spec::PlatformSpec;
///
/// let spec = PlatformSpec::gen_a();
/// let kernels = AuKernels::for_platform(&spec);
/// let ctx = ExecContext::new(96, 3.1, spec.mem_bw);
/// let mut pmu = PmuCounters::new();
/// let cost = iteration_cost(
///     &ModelConfig::llama2_7b(), Phase::Decode, 16, 855,
///     Precision::Bf16, &kernels, &ctx, &mut pmu,
/// );
/// assert!(cost.time.as_millis_f64() > 10.0);
/// ```
#[allow(clippy::too_many_arguments)]
#[must_use]
pub fn iteration_cost(
    model: &ModelConfig,
    phase: Phase,
    tokens: usize,
    context: usize,
    prec: Precision,
    kernels: &AuKernels,
    ctx: &ExecContext,
    pmu: &mut PmuCounters,
) -> IterationCost {
    CostModel::new(*kernels).iteration(model, phase, tokens, context, prec, ctx, pmu)
}

#[cfg(test)]
mod tests {
    use super::*;
    use aum_platform::units::GbPerSec;

    fn setup() -> (ModelConfig, AuKernels, PlatformSpec) {
        let spec = PlatformSpec::gen_a();
        (
            ModelConfig::llama2_7b(),
            AuKernels::for_platform(&spec),
            spec,
        )
    }

    #[test]
    fn memo_reuses_matching_slots_until_the_grant_changes() {
        let (model, kernels, spec) = setup();
        let ctx = ExecContext::new(96, 3.1, spec.mem_bw);
        let mut memo = CostModel::new(kernels);
        let mut pmu = PmuCounters::new();
        let mut decode = |memo: &mut CostModel, context, ctx: &ExecContext| {
            memo.iteration(
                &model,
                Phase::Decode,
                16,
                context,
                Precision::Bf16,
                ctx,
                &mut pmu,
            )
            .time
            .as_secs_f64()
        };
        let clean = decode(&mut memo, 855, &ctx);
        // Poison qkv_proj's slot: the next step has the same projection
        // shape, so it must read the slot back instead of re-evaluating.
        memo.slots[0].as_mut().expect("filled").exec.time = SimDuration::from_secs(1);
        assert!(
            decode(&mut memo, 856, &ctx) > 30.0,
            "one poisoned launch per layer"
        );
        // A grant one ulp of bandwidth away clears every slot.
        let ulp = GbPerSec(f64::from_bits(spec.mem_bw.value().to_bits() + 1));
        let fresh = decode(&mut memo, 855, &ExecContext::new(96, 3.1, ulp));
        assert!((fresh - clean).abs() < 1e-3, "{fresh} vs {clean}");
    }

    #[test]
    fn decode_iteration_time_is_realistic() {
        // §III-B: GenA serves ≈188 tokens/s at bs16 → iteration ≈85 ms.
        let (model, kernels, spec) = setup();
        let ctx = ExecContext::new(96, 3.1, spec.mem_bw);
        let mut pmu = PmuCounters::new();
        let cost = iteration_cost(
            &model,
            Phase::Decode,
            16,
            855,
            Precision::Bf16,
            &kernels,
            &ctx,
            &mut pmu,
        );
        let ms = cost.time.as_millis_f64();
        assert!(
            (60.0..=140.0).contains(&ms),
            "decode iteration ≈85-100 ms, got {ms}"
        );
    }

    #[test]
    fn prefill_of_755_tokens_takes_fraction_of_second() {
        // TTFT for the chatbot scenario: ≈0.25-0.4 s on the full machine.
        let (model, kernels, spec) = setup();
        let ctx = ExecContext::new(96, 2.5, spec.mem_bw);
        let mut pmu = PmuCounters::new();
        let cost = iteration_cost(
            &model,
            Phase::Prefill,
            755,
            755,
            Precision::Bf16,
            &kernels,
            &ctx,
            &mut pmu,
        );
        let s = cost.time.as_secs_f64();
        assert!(
            (0.15..=0.6).contains(&s),
            "prefill of 755 tokens ≈0.25-0.4 s, got {s}"
        );
    }

    #[test]
    fn decode_is_memory_dominated_prefill_is_not() {
        let (model, kernels, spec) = setup();
        let mut pmu = PmuCounters::new();
        let decode = iteration_cost(
            &model,
            Phase::Decode,
            16,
            855,
            Precision::Bf16,
            &kernels,
            &ExecContext::new(96, 3.1, spec.mem_bw),
            &mut pmu,
        );
        let prefill = iteration_cost(
            &model,
            Phase::Prefill,
            8192,
            512,
            Precision::Bf16,
            &kernels,
            &ExecContext::new(96, 2.5, spec.mem_bw),
            &mut pmu,
        );
        assert!(
            decode.memory_bound_frac > 0.8,
            "decode mem frac {}",
            decode.memory_bound_frac
        );
        assert!(
            prefill.memory_bound_frac < 0.4,
            "prefill mem frac {}",
            prefill.memory_bound_frac
        );
    }

    #[test]
    fn decode_demands_more_bandwidth_than_pool() {
        let (model, kernels, spec) = setup();
        let mut pmu = PmuCounters::new();
        let cost = iteration_cost(
            &model,
            Phase::Decode,
            16,
            855,
            Precision::Bf16,
            &kernels,
            &ExecContext::new(96, 3.1, spec.mem_bw),
            &mut pmu,
        );
        assert!(
            cost.bw_demand_gbs > spec.mem_bw.value(),
            "decode saturates the pool"
        );
    }

    #[test]
    fn prefill_flops_mostly_on_amx() {
        let (model, kernels, spec) = setup();
        let mut pmu = PmuCounters::new();
        let cost = iteration_cost(
            &model,
            Phase::Prefill,
            8192,
            512,
            Precision::Bf16,
            &kernels,
            &ExecContext::new(96, 2.5, spec.mem_bw),
            &mut pmu,
        );
        assert!(
            cost.amx_flop_frac > 0.9,
            "prefill amx flop frac {}",
            cost.amx_flop_frac
        );
    }

    #[test]
    fn pmu_ratios_match_table2_shape() {
        // llama2-7b Table II: prefill amx cycle ratio 14.4%, decode 1.5%.
        let (model, kernels, spec) = setup();
        let mut prefill_pmu = PmuCounters::new();
        let _ = iteration_cost(
            &model,
            Phase::Prefill,
            8192,
            512,
            Precision::Bf16,
            &kernels,
            &ExecContext::new(96, 2.5, spec.mem_bw),
            &mut prefill_pmu,
        );
        let mut decode_pmu = PmuCounters::new();
        let _ = iteration_cost(
            &model,
            Phase::Decode,
            16,
            855,
            Precision::Bf16,
            &kernels,
            &ExecContext::new(96, 3.1, spec.mem_bw),
            &mut decode_pmu,
        );
        let p = prefill_pmu.amx_cycle_ratio();
        let d = decode_pmu.amx_cycle_ratio();
        assert!((0.08..=0.25).contains(&p), "prefill cycle ratio {p}");
        assert!((0.004..=0.04).contains(&d), "decode cycle ratio {d}");
        assert!(p > 5.0 * d, "prefill uses AMX far more than decode");
        assert!(
            decode_pmu.avx_inst_ratio() > prefill_pmu.avx_inst_ratio(),
            "decode leans on AVX more (§IV-A1)"
        );
    }

    #[test]
    fn throttled_bandwidth_slows_decode() {
        let (model, kernels, spec) = setup();
        let mut pmu = PmuCounters::new();
        let full = iteration_cost(
            &model,
            Phase::Decode,
            16,
            855,
            Precision::Bf16,
            &kernels,
            &ExecContext::new(96, 3.1, spec.mem_bw),
            &mut pmu,
        );
        let half = iteration_cost(
            &model,
            Phase::Decode,
            16,
            855,
            Precision::Bf16,
            &kernels,
            &ExecContext::new(96, 3.1, GbPerSec(spec.mem_bw.value() / 2.0)),
            &mut pmu,
        );
        let ratio = half.time.as_secs_f64() / full.time.as_secs_f64();
        assert!(
            ratio > 1.6,
            "halving bandwidth nearly doubles decode, got {ratio}"
        );
    }

    #[test]
    fn fewer_cores_barely_hurt_decode_but_hurt_prefill() {
        let (model, kernels, spec) = setup();
        let mut pmu = PmuCounters::new();
        let run = |phase, tokens, ctx_len, cores| {
            iteration_cost(
                &model,
                phase,
                tokens,
                ctx_len,
                Precision::Bf16,
                &kernels,
                &ExecContext::new(cores, 2.8, spec.mem_bw),
                &mut PmuCounters::new(),
            )
            .time
            .as_secs_f64()
        };
        let _ = &mut pmu;
        let decode_ratio = run(Phase::Decode, 16, 855, 24) / run(Phase::Decode, 16, 855, 96);
        assert!(
            decode_ratio < 1.35,
            "decode is core-insensitive, got {decode_ratio}"
        );
        let prefill_ratio = run(Phase::Prefill, 755, 755, 24) / run(Phase::Prefill, 755, 755, 96);
        assert!(
            prefill_ratio > 2.0,
            "prefill is core-hungry, got {prefill_ratio}"
        );
    }
}
