//! Property-based conservation tests of the attribution ledger over live
//! experiments: for random platform presets, co-runners, fault plans,
//! rates and seeds, every run's ledger must close — attributed time equals
//! wall time and attributed joules equal modeled package energy within
//! [`aum_sim::attrib::EPSILON`] — with no negative cell, and the ledger
//! must survive a serde round trip. Case counts are kept low because each
//! case is a full (short) experiment.

use proptest::prelude::*;

use aum::baselines::{AllAu, RpAu, SmtAu};
use aum::experiment::{run_experiment, ExperimentConfig, Fault, FaultEvent, FaultPlan, Outcome};
use aum::manager::ResourceManager;
use aum_llm::traces::Scenario;
use aum_platform::spec::PlatformSpec;
use aum_platform::topology::AuUsageLevel;
use aum_sim::attrib::{Ledger, EPSILON};
use aum_sim::telemetry::Tracer;
use aum_sim::time::SimDuration;
use aum_workloads::be::BeKind;

fn platform() -> impl Strategy<Value = PlatformSpec> {
    prop_oneof![
        Just(PlatformSpec::gen_a()),
        Just(PlatformSpec::gen_b()),
        Just(PlatformSpec::gen_c()),
    ]
}

fn scenario() -> impl Strategy<Value = Scenario> {
    prop_oneof![Just(Scenario::Chatbot), Just(Scenario::Summarization)]
}

fn be() -> impl Strategy<Value = Option<BeKind>> {
    prop_oneof![
        Just(None),
        Just(Some(BeKind::SpecJbb)),
        Just(Some(BeKind::Olap)),
        Just(Some(BeKind::Compute)),
    ]
}

fn fault_plan() -> impl Strategy<Value = FaultPlan> {
    prop_oneof![
        Just(FaultPlan::none()),
        (0.3f64..0.95).prop_map(|frac| {
            FaultPlan::single(FaultEvent::permanent(4.0, Fault::BandwidthDegrade { frac }))
        }),
        (0.8f64..1.4).prop_map(|severity| {
            FaultPlan::single(FaultEvent::windowed(
                3.0,
                10.0,
                Fault::ThermalRunaway { severity },
            ))
        }),
        (1usize..24).prop_map(|count| {
            FaultPlan::single(FaultEvent::permanent(5.0, Fault::CoreOffline { count }))
        }),
        Just(FaultPlan::single(FaultEvent::permanent(
            4.0,
            Fault::FrequencyLicenseLock {
                level: AuUsageLevel::High,
            },
        ))),
        (1.5f64..4.0).prop_map(|factor| {
            FaultPlan::single(FaultEvent::windowed(3.0, 9.0, Fault::BeSurge { factor }))
        }),
    ]
}

/// One randomly drawn experiment: platform, workload, fault plan and the
/// knobs that vary run length, load and the manager under test.
#[derive(Debug, Clone)]
struct RandomCase {
    spec: PlatformSpec,
    scenario: Scenario,
    be: Option<BeKind>,
    fault: FaultPlan,
    rate_scale: f64,
    seed: u64,
    duration_secs: u64,
    manager_pick: u8,
}

fn run_random(case: &RandomCase) -> Outcome {
    let mut cfg = ExperimentConfig::paper_default(case.spec.clone(), case.scenario, case.be);
    cfg.duration = SimDuration::from_secs(case.duration_secs);
    cfg.seed = case.seed;
    cfg.rate = Some(case.scenario.default_rate() * case.rate_scale);
    cfg.fault = case.fault.clone();
    let mut mgr: Box<dyn ResourceManager> = match case.manager_pick % 3 {
        0 => Box::new(AllAu::new(&case.spec)),
        1 => Box::new(SmtAu::new(&case.spec)),
        _ => Box::new(RpAu::new(&case.spec)),
    };
    // ALL-AU runs exclusively by definition; drop the co-runner for it.
    if case.manager_pick.is_multiple_of(3) {
        cfg.be = None;
    }
    run_experiment(&cfg, mgr.as_mut(), Tracer::disabled())
        .expect("conservation must hold for every random configuration")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn ledger_closes_for_random_experiments(
        spec in platform(),
        scenario in scenario(),
        be in be(),
        fault in fault_plan(),
        rate_scale in 0.3f64..1.5,
        seed in 0u64..1000,
        duration_secs in 8u64..20,
        manager_pick in 0u8..3,
    ) {
        let case = RandomCase {
            spec, scenario, be, fault, rate_scale, seed, duration_secs, manager_pick,
        };
        let outcome = run_random(&case);
        let ledger = &outcome.ledger;

        // The run already passed the in-harness gate; re-verify explicitly
        // and check the stronger cell-level facts the gate implies.
        prop_assert!(ledger.verify(EPSILON).is_ok());
        prop_assert!(!ledger.is_empty(), "a run must produce intervals");
        prop_assert!(
            (ledger.wall_secs() - duration_secs as f64).abs() < 1e-6,
            "ledger wall time {} must cover the configured duration {duration_secs}",
            ledger.wall_secs()
        );
        for iv in &ledger.intervals {
            prop_assert!(iv.energy_j >= 0.0);
            for region in &iv.regions {
                for (cause, v) in region.time.iter().chain(region.energy.iter()) {
                    prop_assert!(v >= 0.0, "negative {cause}: {v}");
                }
            }
        }

        // Average ledger power is consistent with the outcome's own power
        // accounting (same model, independent summation paths).
        let ledger_avg_w = ledger.energy_j() / ledger.wall_secs();
        prop_assert!(
            (ledger_avg_w - outcome.avg_power_w).abs() <= 1e-6 * outcome.avg_power_w.max(1.0),
            "ledger avg power {ledger_avg_w} vs outcome {}",
            outcome.avg_power_w
        );

        // The ledger survives serialization inside the outcome.
        let json = serde_json::to_string(&outcome.ledger).expect("serializes");
        let back: Ledger = serde_json::from_str(&json).expect("deserializes");
        prop_assert!(back.verify(EPSILON).is_ok());
        prop_assert!((back.energy_j() - ledger.energy_j()).abs() < 1e-9);
    }
}
