//! Scripted fault-injection plane.
//!
//! The paper's promise (§VI–VII) is a controller that keeps SLOs intact
//! when the platform misbehaves. This module scripts that misbehaviour: a
//! [`FaultPlan`] is an ordered list of timed [`FaultEvent`]s, each naming a
//! [`Fault`] with an activation time and an optional recovery time. The
//! experiment harness (`crate::experiment`) replays the plan exactly at
//! control-interval boundaries, emitting `FaultInjected` / `FaultRecovered`
//! telemetry, and warns (`FaultOutsideWindow`) about events no boundary
//! can reach instead of silently dropping them.
//!
//! The script and its replay are generic: [`FaultScript`] holds any
//! [`ScriptEvent`] (construction, validation, serde), and its replay
//! turns it into apply/revert edges fired at each boundary, in (time,
//! event index, apply before revert) order. An edge fires at the first
//! boundary `>=` its time; an event with no such boundary is outside the
//! window. Both fault planes use this one definition and keep only their
//! effects.
//!
//! The taxonomy covers every failure mode the platform model already
//! simulates — memory RAS events, cooling loss, stuck license firmware,
//! dead cores, failed RDT MSR writes, best-effort load spikes, and lying
//! or frozen sensors. Faults against the same subsystem compose by taking
//! the *worst* active effect (minimum bandwidth fraction, maximum cooling
//! loss, lowest license class), so overlapping chaos scripts stay
//! physically meaningful.
//!
//! This plane stops at the node boundary: every fault here degrades *one*
//! server from the inside. Node-scoped failures — whole-node crashes,
//! stragglers, router partitions, rolling-restart drains — live in the
//! fleet resilience plane, whose [`crate::fleet::NodeFaultPlan`] is this
//! module's script over node-scoped events, replayed at router-epoch
//! boundaries by the same replay.
//!
//! Serde: every script renders empty as `null` and decodes `null`,
//! `{"events": [...]}` or a bare event list. Older experiment configs
//! also carried `"fault": {"BandwidthDegrade": {"at_secs": 120.0, "frac":
//! 0.6}}`; [`FaultPlan`] accepts that legacy shape through
//! [`ScriptEvent::legacy_events`], so existing experiment JSON keeps
//! loading.

use std::cmp::Ordering;

use serde::{content_get, Content, DeError, Deserialize, Serialize};

use aum_platform::topology::AuUsageLevel;

/// One platform failure mode the fault plane can inject.
///
/// Parameters describe the fault's magnitude only; *when* it strikes and
/// heals lives on the enclosing [`FaultEvent`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Fault {
    /// Memory bandwidth collapses to `frac` of the platform spec — a DIMM
    /// failure or memory-RAS throttling event. Recovery restores the full
    /// pool.
    BandwidthDegrade {
        /// Remaining bandwidth fraction, `(0, 1]`.
        frac: f64,
    },
    /// Package cooling loss (failed fan / blocked airflow): every region
    /// accumulates ambient heat regardless of load and — unlike the healthy
    /// Fig 6b hotspot — AU license caps no longer protect High/Low regions
    /// from thermal throttling.
    ThermalRunaway {
        /// Cooling-loss severity: 1.0 alone holds a reservoir exactly at
        /// the throttle-on threshold; above 1 throttles even idle regions.
        severity: f64,
    },
    /// PCU/firmware bug pins every AU core's license class, so e.g. AVX
    /// decode cores run at the AMX license frequency. None-AU cores hold no
    /// license and are unaffected.
    FrequencyLicenseLock {
        /// The stuck license level.
        level: AuUsageLevel,
    },
    /// Physical cores drop out of the schedulable set (MCE offlining).
    /// Cores are removed from the None region first, then Low, then High,
    /// always leaving at least one core per serving region.
    CoreOffline {
        /// Number of cores taken offline.
        count: usize,
    },
    /// CAT/MBA reconfiguration writes fail: the manager's allocation
    /// requests either vanish silently (`delay_intervals = 0`) or take
    /// effect late. The platform keeps running on the last allocation that
    /// actually landed.
    RdtWriteFailure {
        /// Control intervals a write is delayed by; `0` = writes are
        /// silently dropped for the fault's duration.
        delay_intervals: u32,
    },
    /// The best-effort co-runner's offered load spikes, multiplying its
    /// duty/bandwidth demand.
    BeSurge {
        /// Demand multiplier; `> 1` is a surge.
        factor: f64,
    },
    /// Multiplicative noise on the manager's sensor readings (latency
    /// percentiles, power, bandwidth utilization) — a flaky PMU. Noise is
    /// drawn from the experiment's deterministic RNG.
    SensorNoise {
        /// Standard deviation of the log-normal multiplicative noise.
        sigma: f64,
    },
    /// Sensor readback freezes: the manager keeps seeing the last values
    /// observed before the fault struck.
    SensorDropout,
}

impl Fault {
    /// Stable label for telemetry and reports.
    #[must_use]
    pub fn kind_label(&self) -> &'static str {
        match self {
            Fault::BandwidthDegrade { .. } => "BandwidthDegrade",
            Fault::ThermalRunaway { .. } => "ThermalRunaway",
            Fault::FrequencyLicenseLock { .. } => "FrequencyLicenseLock",
            Fault::CoreOffline { .. } => "CoreOffline",
            Fault::RdtWriteFailure { .. } => "RdtWriteFailure",
            Fault::BeSurge { .. } => "BeSurge",
            Fault::SensorNoise { .. } => "SensorNoise",
            Fault::SensorDropout => "SensorDropout",
        }
    }

    /// Human-readable parameter summary for telemetry.
    #[must_use]
    pub fn detail(&self) -> String {
        match self {
            Fault::BandwidthDegrade { frac } => {
                format!("bandwidth to {:.0}% of spec", frac * 100.0)
            }
            Fault::ThermalRunaway { severity } => format!("cooling loss severity {severity:.2}"),
            Fault::FrequencyLicenseLock { level } => format!("AU license pinned to {level:?}"),
            Fault::CoreOffline { count } => format!("{count} cores offline"),
            Fault::RdtWriteFailure { delay_intervals: 0 } => "RDT writes silently dropped".into(),
            Fault::RdtWriteFailure { delay_intervals } => {
                format!("RDT writes delayed {delay_intervals} intervals")
            }
            Fault::BeSurge { factor } => format!("BE load x{factor:.2}"),
            Fault::SensorNoise { sigma } => format!("sensor noise sigma {sigma:.2}"),
            Fault::SensorDropout => "sensor readback frozen".into(),
        }
    }

    /// Checks the fault's parameters are physically meaningful.
    fn validate(&self) -> Result<(), String> {
        match *self {
            Fault::BandwidthDegrade { frac } => {
                if frac > 0.0 && frac <= 1.0 {
                    Ok(())
                } else {
                    Err(format!(
                        "BandwidthDegrade frac must be in (0, 1], got {frac}"
                    ))
                }
            }
            Fault::ThermalRunaway { severity } => {
                if severity.is_finite() && severity >= 0.0 {
                    Ok(())
                } else {
                    Err(format!(
                        "ThermalRunaway severity must be finite and >= 0, got {severity}"
                    ))
                }
            }
            Fault::BeSurge { factor } => {
                if factor.is_finite() && factor > 0.0 {
                    Ok(())
                } else {
                    Err(format!(
                        "BeSurge factor must be finite and positive, got {factor}"
                    ))
                }
            }
            Fault::SensorNoise { sigma } => {
                if sigma.is_finite() && sigma >= 0.0 {
                    Ok(())
                } else {
                    Err(format!(
                        "SensorNoise sigma must be finite and >= 0, got {sigma}"
                    ))
                }
            }
            Fault::CoreOffline { count: 0 } => Err("CoreOffline count must be > 0".into()),
            Fault::FrequencyLicenseLock { .. }
            | Fault::CoreOffline { .. }
            | Fault::RdtWriteFailure { .. }
            | Fault::SensorDropout => Ok(()),
        }
    }
}

/// One scheduled fault: what, when, and (optionally) until when.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultEvent {
    /// Activation time, seconds from run start. The harness applies the
    /// fault at the first control-interval boundary `t >= at_secs`.
    pub at_secs: f64,
    /// The failure mode.
    pub fault: Fault,
    /// Recovery time, seconds; the fault's effect is reversed at the first
    /// boundary `t >= recover_at_secs`. `None` = permanent.
    #[serde(default)]
    pub recover_at_secs: Option<f64>,
}

impl FaultEvent {
    /// A permanent fault striking at `at_secs`.
    #[must_use]
    pub fn permanent(at_secs: f64, fault: Fault) -> Self {
        FaultEvent {
            at_secs,
            fault,
            recover_at_secs: None,
        }
    }

    /// A fault active over `[at_secs, recover_at_secs)`.
    #[must_use]
    pub fn windowed(at_secs: f64, recover_at_secs: f64, fault: Fault) -> Self {
        FaultEvent {
            at_secs,
            fault,
            recover_at_secs: Some(recover_at_secs),
        }
    }
}

/// One entry of a [`FaultScript`]: when it strikes, when (if ever) it
/// heals, and whether its own fault parameters are meaningful.
pub trait ScriptEvent: Sized {
    /// Name of the plan type, for error messages.
    const PLAN: &'static str;

    /// Activation time, seconds from run start.
    fn at_secs(&self) -> f64;

    /// Recovery time, seconds; `None` = permanent.
    fn recover_at_secs(&self) -> Option<f64>;

    /// Checks the fault's own parameters; timing is checked by
    /// [`FaultScript::validate`].
    ///
    /// # Errors
    ///
    /// Returns a description of the malformed parameter.
    fn validate_fault(&self) -> Result<(), String>;

    /// Decodes script shapes only this event type accepts, beyond `null`,
    /// `{"events": [...]}` and a bare list; `None` = not such a shape.
    fn legacy_events(_content: &Content) -> Option<Result<Vec<Self>, DeError>> {
        None
    }
}

/// An ordered script of timed events, shared by the server fault plane
/// ([`FaultPlan`]) and the fleet fault plane
/// ([`crate::fleet::NodeFaultPlan`]).
#[derive(Debug, Clone, PartialEq)]
pub struct FaultScript<E> {
    /// The scripted events, sorted by activation time.
    pub events: Vec<E>,
}

impl<E> Default for FaultScript<E> {
    fn default() -> Self {
        FaultScript { events: Vec::new() }
    }
}

impl<E: ScriptEvent> FaultScript<E> {
    /// A healthy run: no faults.
    #[must_use]
    pub fn none() -> Self {
        FaultScript::default()
    }

    /// A plan of the given events, sorted by activation time (stable for
    /// ties, so same-instant events apply in authoring order).
    #[must_use]
    pub fn new(mut events: Vec<E>) -> Self {
        events.sort_by(|a, b| {
            a.at_secs()
                .partial_cmp(&b.at_secs())
                .unwrap_or(Ordering::Equal)
        });
        FaultScript { events }
    }

    /// A single-event plan.
    #[must_use]
    pub fn single(event: E) -> Self {
        FaultScript {
            events: vec![event],
        }
    }

    /// Whether the plan schedules anything.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Checks every event for meaningful parameters and sane timing.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed event.
    pub fn validate(&self) -> Result<(), String> {
        for (i, ev) in self.events.iter().enumerate() {
            let at = ev.at_secs();
            if !(at.is_finite() && at >= 0.0) {
                return Err(format!(
                    "event {i}: at_secs must be finite and >= 0, got {at}"
                ));
            }
            if let Some(rec) = ev.recover_at_secs() {
                if !(rec.is_finite() && rec > at) {
                    return Err(format!(
                        "event {i}: recover_at_secs must be finite and > at_secs ({at}), got {rec}"
                    ));
                }
            }
            ev.validate_fault().map_err(|e| format!("event {i}: {e}"))?;
        }
        Ok(())
    }

    /// Plans this script's replay over a run whose last boundary is
    /// `last_boundary` seconds (`None` = the run has no boundary).
    ///
    /// Returns the replay and, in script order, the indices of events
    /// outside the window — no boundary `>=` their activation time
    /// remains, so they never fire. A recovery after the last boundary
    /// never fires either: the fault stays active to the end of the run.
    #[must_use]
    pub(crate) fn replay(&self, last_boundary: Option<f64>) -> (Replay, Vec<usize>) {
        let reaches = |secs: f64| last_boundary.is_some_and(|last| secs <= last);
        let mut edges = Vec::new();
        let mut outside = Vec::new();
        for (index, ev) in self.events.iter().enumerate() {
            if !reaches(ev.at_secs()) {
                outside.push(index);
                continue;
            }
            edges.push(Edge {
                at_secs: ev.at_secs(),
                index,
                apply: true,
            });
            if let Some(rec) = ev.recover_at_secs().filter(|&rec| reaches(rec)) {
                edges.push(Edge {
                    at_secs: rec,
                    index,
                    apply: false,
                });
            }
        }
        edges.sort_by(|a, b| {
            a.at_secs
                .partial_cmp(&b.at_secs)
                .unwrap_or(Ordering::Equal)
                .then(a.index.cmp(&b.index))
                .then(b.apply.cmp(&a.apply))
        });
        (Replay { edges, next: 0 }, outside)
    }
}

/// One edge of a replayed script: event `index` strikes (`apply`) or
/// heals at `at_secs`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Edge {
    /// Scripted time of the edge, seconds.
    pub(crate) at_secs: f64,
    /// Index of the event in [`FaultScript::events`].
    pub(crate) index: usize,
    /// `true` = the fault strikes, `false` = it heals.
    pub(crate) apply: bool,
}

/// Edge-exact replay of a [`FaultScript`] at a run's boundaries (control
/// intervals or router epochs), built by [`FaultScript::replay`].
///
/// Edges are ordered by (time, event index, apply before revert), so
/// same-instant edges fire in script order and a window that opens and
/// closes between two boundaries applies and then reverts at the next
/// one. Every edge fires exactly once.
#[derive(Debug, Clone)]
pub(crate) struct Replay {
    edges: Vec<Edge>,
    next: usize,
}

impl Replay {
    /// Fires every edge not fired yet whose time is `<=` `boundary`, in
    /// replay order. Boundaries must be passed in ascending order.
    pub(crate) fn due(&mut self, boundary: f64) -> &[Edge] {
        let start = self.next;
        self.next += self.edges[start..].partition_point(|e| e.at_secs <= boundary);
        &self.edges[start..self.next]
    }
}

impl<E: Serialize> Serialize for FaultScript<E> {
    fn to_content(&self) -> Content {
        if self.events.is_empty() {
            // Keep the healthy default rendering as `null`, the shape
            // pre-plan configs used (and legacy ClusterConfig JSON without
            // fleet fields degrades to).
            return Content::Null;
        }
        Content::Map(vec![(
            "events".to_string(),
            Content::Seq(self.events.iter().map(Serialize::to_content).collect()),
        )])
    }
}

impl<E: ScriptEvent + Deserialize> Deserialize for FaultScript<E> {
    fn from_content(content: &Content) -> Result<Self, DeError> {
        let list = |items: &[Content]| items.iter().map(E::from_content).collect::<Result<_, _>>();
        let events: Vec<E> = match content {
            // Old configs: `null`.
            Content::Null => Vec::new(),
            // `{"events": [...]}`.
            Content::Map(entries) if content_get(entries, "events").is_some() => {
                match content_get(entries, "events").expect("checked") {
                    Content::Seq(items) => list(items)?,
                    other => {
                        let when = format!("{}.events", E::PLAN);
                        return Err(DeError::expected("sequence", &when, other));
                    }
                }
            }
            // Bare list of events.
            Content::Seq(items) => list(items)?,
            other => match E::legacy_events(other) {
                Some(events) => events?,
                None => return Err(DeError::expected("fault plan", E::PLAN, other)),
            },
        };
        let plan = FaultScript::new(events);
        plan.validate()
            .map_err(|e| DeError::custom(format!("invalid {}: {e}", E::PLAN)))?;
        Ok(plan)
    }
}

impl ScriptEvent for FaultEvent {
    const PLAN: &'static str = "FaultPlan";

    fn at_secs(&self) -> f64 {
        self.at_secs
    }

    fn recover_at_secs(&self) -> Option<f64> {
        self.recover_at_secs
    }

    fn validate_fault(&self) -> Result<(), String> {
        self.fault.validate()
    }

    fn legacy_events(content: &Content) -> Option<Result<Vec<Self>, DeError>> {
        let at_secs = match content {
            // Legacy single-fault shape, externally tagged:
            // `{"BandwidthDegrade": {"at_secs": 120.0, "frac": 0.6}}`.
            // The timing field lived inside the variant body back then, so
            // it is lifted out here; the Fault derive ignores the extra key.
            Content::Map(entries) if entries.len() == 1 => match &entries[0].1 {
                Content::Map(body) => content_get(body, "at_secs"),
                _ => None,
            },
            // Legacy unit-variant string (future-proofing the same shape).
            Content::Str(_) => None,
            _ => return None,
        };
        let decode = || -> Result<Vec<Self>, DeError> {
            let fault = Fault::from_content(content)?;
            let at_secs = at_secs.map(f64::from_content).transpose()?;
            Ok(vec![FaultEvent::permanent(at_secs.unwrap_or(0.0), fault)])
        };
        Some(decode())
    }
}

/// An ordered script of timed fault events — the chaos run's screenplay.
pub type FaultPlan = FaultScript<FaultEvent>;

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn plans_sort_events_by_time() {
        let plan = FaultPlan::new(vec![
            FaultEvent::permanent(200.0, Fault::SensorDropout),
            FaultEvent::windowed(50.0, 80.0, Fault::BeSurge { factor: 2.0 }),
        ]);
        assert_eq!(plan.events[0].at_secs, 50.0);
        assert_eq!(plan.events[1].at_secs, 200.0);
    }

    #[test]
    fn validate_rejects_bad_parameters() {
        let bad = [
            Fault::BandwidthDegrade { frac: 0.0 },
            Fault::BandwidthDegrade { frac: 1.5 },
            Fault::ThermalRunaway { severity: -1.0 },
            Fault::BeSurge { factor: 0.0 },
            Fault::SensorNoise { sigma: f64::NAN },
            Fault::CoreOffline { count: 0 },
        ];
        for fault in bad {
            let plan = FaultPlan::single(FaultEvent::permanent(1.0, fault));
            assert!(plan.validate().is_err(), "{fault:?} must be rejected");
        }
        let ok = FaultPlan::single(FaultEvent::permanent(
            1.0,
            Fault::BandwidthDegrade { frac: 0.5 },
        ));
        assert!(ok.validate().is_ok());
    }

    #[test]
    fn validate_rejects_bad_timing() {
        let negative = FaultPlan::single(FaultEvent::permanent(-1.0, Fault::SensorDropout));
        assert!(negative.validate().is_err());
        let inverted = FaultPlan::single(FaultEvent::windowed(10.0, 5.0, Fault::SensorDropout));
        assert!(inverted.validate().is_err());
    }

    #[test]
    fn labels_and_details_cover_every_kind() {
        let all = [
            Fault::BandwidthDegrade { frac: 0.6 },
            Fault::ThermalRunaway { severity: 1.2 },
            Fault::FrequencyLicenseLock {
                level: AuUsageLevel::High,
            },
            Fault::CoreOffline { count: 8 },
            Fault::RdtWriteFailure { delay_intervals: 0 },
            Fault::RdtWriteFailure { delay_intervals: 4 },
            Fault::BeSurge { factor: 2.5 },
            Fault::SensorNoise { sigma: 0.4 },
            Fault::SensorDropout,
        ];
        for f in all {
            assert!(!f.kind_label().is_empty());
            assert!(!f.detail().is_empty());
        }
    }

    #[test]
    fn a_window_between_two_boundaries_applies_then_reverts() {
        let plan = FaultPlan::new(vec![
            FaultEvent::windowed(10.2, 10.8, Fault::SensorDropout),
            FaultEvent::permanent(10.5, Fault::BeSurge { factor: 2.0 }),
        ]);
        let (mut replay, outside) = plan.replay(Some(20.0));
        assert!(outside.is_empty());
        assert!(replay.due(10.0).is_empty());
        let fired: Vec<(usize, bool)> = replay
            .due(11.0)
            .iter()
            .map(|e| (e.index, e.apply))
            .collect();
        // Time order first; the window's revert follows its apply.
        assert_eq!(fired, vec![(0, true), (1, true), (0, false)]);
        assert!(replay.due(20.0).is_empty(), "every edge fires once");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// After each boundary, the replayed active set equals the direct
        /// rule: an event is active once the first boundary at or after its
        /// start has passed, until the first boundary at or after its
        /// recovery.
        #[test]
        fn replay_matches_the_first_boundary_rule(
            boundaries in 0usize..12,
            raw in prop::collection::vec((0u32..56, 0u32..10), 0..8),
        ) {
            // Eighth-second event times against half-second boundaries:
            // many windows open and close between two boundaries.
            let at = |b: usize| b as f64 * 0.5;
            let plan = FaultPlan::new(
                raw.iter()
                    .map(|&(start, len)| {
                        let start = f64::from(start) * 0.125;
                        let recover = (len > 0).then(|| start + f64::from(len) * 0.125);
                        FaultEvent {
                            at_secs: start,
                            fault: Fault::SensorDropout,
                            recover_at_secs: recover,
                        }
                    })
                    .collect(),
            );
            let first_boundary = |secs: f64| (0..boundaries).find(|&b| secs <= at(b));
            let (mut replay, outside) = plan.replay(boundaries.checked_sub(1).map(at));
            let expected_outside: Vec<usize> = (0..plan.events.len())
                .filter(|&i| first_boundary(plan.events[i].at_secs).is_none())
                .collect();
            prop_assert_eq!(outside, expected_outside);
            let mut active = vec![false; plan.events.len()];
            for b in 0..boundaries {
                for edge in replay.due(at(b)) {
                    active[edge.index] = edge.apply;
                }
                for (i, ev) in plan.events.iter().enumerate() {
                    let expected = first_boundary(ev.at_secs).is_some_and(|s| s <= b)
                        && ev
                            .recover_at_secs
                            .is_none_or(|r| first_boundary(r).is_none_or(|r| r > b));
                    prop_assert_eq!(active[i], expected, "event {} at boundary {}", i, b);
                }
            }
        }
    }
}
