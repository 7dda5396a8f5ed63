//! `repro perf-report` — self-performance profile of the simulator.
//!
//! Runs one registered study under the [`aum_sim::prof`] self-profiling
//! plane and renders where *host* wall-clock went: a self-time tree over
//! the instrumented hot paths (cost-model evaluation, engine stepping,
//! profiler cells, executor claim/merge), `ModelCache` hit/miss
//! accounting, and the executor's claim/compute/merge/idle breakdown.
//!
//! The output is split along the repository's determinism contract:
//!
//! * [`PerfReport::deterministic`] — tree shape, call counts, cache and
//!   copy-on-write counters. Byte-identical at any `--jobs` level; the
//!   `parallel_determinism` suite gates on it.
//! * [`PerfReport::timing`] — host-nanosecond totals, shares, cells/sec,
//!   exec speedup. Nondeterministic by nature; never part of identity
//!   comparisons.
//! * [`PerfReport::folded`] — collapsed-stack flamegraph lines
//!   (`a;b;c <µs>`, `inferno`/speedscope input format).
//! * [`PerfReport::bench`] — the machine-readable [`BenchSummary`] that
//!   `repro` writes to `BENCH_<sha>.json` so CI can diff consecutive
//!   runs and fail on a >20% cells/sec regression
//!   ([`BenchSummary::regression_against`]).

use std::time::Instant;

use serde::{Deserialize, Serialize};

use crate::common::set_quick;

/// Cells/sec may regress by at most this factor before
/// [`BenchSummary::regression_against`] reports a failure (>20% drop).
pub const REGRESSION_TOLERANCE: f64 = 0.80;

/// A non-leaf scope whose self-time exceeds this share of the profiled
/// total is flagged in the host-timing section: that much time goes
/// unexplained by any child scope.
pub const HIDDEN_SELF_SHARE: f64 = 0.10;

/// One entry of the top-self-time table in [`BenchSummary`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PhaseShare {
    /// `;`-joined scope path (collapsed-stack syntax).
    pub path: String,
    /// Fraction of the profiled run's top-level self time.
    pub share: f64,
}

/// Machine-readable summary written to `BENCH_<sha>.json`.
///
/// Scalar throughput and cache figures only — everything CI needs to
/// diff two commits without parsing a rendered report.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BenchSummary {
    /// Commit this run measured (`GITHUB_SHA`, `git rev-parse`, or
    /// `"local"`).
    pub sha: String,
    /// Study id the profile ran.
    pub study: String,
    /// Whether the study ran in `--quick` mode.
    pub quick: bool,
    /// Worker count the executor resolved to.
    pub jobs: u64,
    /// Executor cells completed during the profiled run.
    pub cells: u64,
    /// Host wall-clock of the whole profiled study, in seconds.
    pub wall_seconds: f64,
    /// Cells completed per host wall-clock second — the headline
    /// throughput number the regression gate compares.
    pub cells_per_sec: f64,
    /// Executor speedup (Σ cell compute time / Σ sweep wall time).
    pub exec_speedup: f64,
    /// `ModelCache` lookups during the run.
    pub cache_lookups: u64,
    /// `ModelCache` profiling sweeps actually executed.
    pub cache_builds: u64,
    /// Fraction of lookups served from cache.
    pub cache_hit_rate: f64,
    /// Top-5 scopes by self time, as shares of the profiled total.
    pub top_phases: Vec<PhaseShare>,
}

impl BenchSummary {
    /// Compares this run's throughput against a `baseline` summary.
    ///
    /// Returns `Err` with a human-readable message when cells/sec
    /// dropped below [`REGRESSION_TOLERANCE`] × baseline, `Ok` with a
    /// one-line comparison otherwise. Baselines without throughput
    /// (zero-cell runs) always pass.
    pub fn regression_against(&self, baseline: &BenchSummary) -> Result<String, String> {
        if baseline.cells_per_sec <= 0.0 {
            return Ok(format!(
                "baseline {} has no throughput data; skipping regression gate",
                baseline.sha
            ));
        }
        let ratio = self.cells_per_sec / baseline.cells_per_sec;
        let line = format!(
            "cells/sec {:.1} vs baseline {:.1} ({} → {}): {:+.1}%",
            self.cells_per_sec,
            baseline.cells_per_sec,
            baseline.sha,
            self.sha,
            (ratio - 1.0) * 100.0,
        );
        if ratio < REGRESSION_TOLERANCE {
            Err(format!(
                "{line} — regression beyond {:.0}% tolerance",
                (1.0 - REGRESSION_TOLERANCE) * 100.0
            ))
        } else {
            Ok(line)
        }
    }
}

/// A complete perf-report run: the study's own output plus the three
/// rendered sections and the machine-readable summary.
#[derive(Debug, Clone)]
pub struct PerfReport {
    /// The study's normal rendered tables (unchanged by profiling).
    pub study_output: String,
    /// Deterministic section: tree shape, call counts, counters.
    pub deterministic: String,
    /// Host-timing section (nondeterministic, excluded from gates).
    pub timing: String,
    /// Collapsed-stack flamegraph lines.
    pub folded: String,
    /// Machine-readable summary for `BENCH_<sha>.json`.
    pub bench: BenchSummary,
    /// Executor figures of the profiled study ([`aum_sim::exec::measure`]).
    pub exec: aum_sim::exec::ExecStats,
}

/// The commit id for [`BenchSummary::sha`]: `GITHUB_SHA` if set (CI),
/// else `git rev-parse --short HEAD`, else `"local"`.
#[must_use]
pub fn current_sha() -> String {
    if let Ok(sha) = std::env::var("GITHUB_SHA") {
        let sha = sha.trim().to_string();
        if !sha.is_empty() {
            return sha;
        }
    }
    if let Ok(out) = std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
    {
        if out.status.success() {
            let sha = String::from_utf8_lossy(&out.stdout).trim().to_string();
            if !sha.is_empty() {
                return sha;
            }
        }
    }
    "local".to_string()
}

/// Runs `study` (an id from [`crate::experiments`]) under the
/// self-profiling plane and collects the report.
///
/// Resets the profiling tree first, so the report covers exactly this
/// study; profiling is switched off again before returning.
pub fn collect(study: &str, quick: bool) -> Result<PerfReport, String> {
    let run = crate::experiments()
        .into_iter()
        .find(|(id, _)| *id == study)
        .map(|(_, f)| f)
        .ok_or_else(|| {
            let ids: Vec<&str> = crate::experiments().iter().map(|(id, _)| *id).collect();
            format!(
                "unknown study `{study}` (expected one of: {})",
                ids.join(", ")
            )
        })?;
    set_quick(quick);

    aum_sim::prof::reset();
    aum_sim::prof::set_enabled(true);
    let t0 = Instant::now();
    let (study_output, exec) = aum_sim::exec::measure(|| {
        let _study_scope = aum_sim::prof::scope("study");
        run()
    });
    let wall = t0.elapsed();
    aum_sim::prof::set_enabled(false);
    let snap = aum_sim::prof::snapshot();

    let cache = crate::common::CacheStats {
        lookups: snap.counter("model_cache.lookup"),
        builds: snap.counter("model_cache.build"),
    };

    let mut deterministic = String::new();
    deterministic.push_str(&format!("== perf-report: {study} (deterministic) ==\n"));
    deterministic.push_str(&format!("quick: {quick}\n"));
    deterministic.push_str(&format!(
        "exec: sweeps={} cells={}\n",
        exec.sweeps, exec.cells
    ));
    deterministic.push_str(&format!(
        "model cache: lookups={} builds={} hits={} hit_rate={:.1}%\n",
        cache.lookups,
        cache.builds,
        cache.hits(),
        100.0 * cache.hit_rate(),
    ));
    deterministic.push_str(&snap.render_deterministic());

    let wall_secs = wall.as_secs_f64();
    let covered = snap.top_level_nanos() as f64 / 1e9;
    let mut timing = String::new();
    timing.push_str(&format!(
        "== perf-report: {study} (host timing, nondeterministic) ==\n"
    ));
    timing.push_str(&format!(
        "study wall: {:.3}s   profiled coverage: {:.3}s ({:.1}%)\n",
        wall_secs,
        covered,
        100.0 * covered / wall_secs.max(1e-9),
    ));
    timing.push_str(&format!(
        "throughput: {:.1} cells/sec   exec speedup: {:.2}x (busy {:.3}s / sweep wall {:.3}s)\n",
        exec.cells as f64 / wall_secs.max(1e-9),
        exec.speedup(),
        exec.busy.as_secs_f64(),
        exec.wall.as_secs_f64(),
    ));
    timing.push_str(&format!(
        "exec breakdown: claim {:.1}ms   merge {:.1}ms   worker idle {:.1}ms\n",
        exec.claim.as_secs_f64() * 1e3,
        exec.merge.as_secs_f64() * 1e3,
        exec.idle.as_secs_f64() * 1e3,
    ));
    timing.push_str(
        "note: scopes on pool workers aggregate CPU time across threads, so shares \
         under parallel sweeps can exceed 100% of wall.\n",
    );
    timing.push_str(&snap.render_timing());
    timing.push_str(&render_hidden_self_time(&snap));

    let bench = BenchSummary {
        sha: current_sha(),
        study: study.to_string(),
        quick,
        jobs: aum_sim::exec::jobs() as u64,
        cells: exec.cells,
        wall_seconds: wall_secs,
        cells_per_sec: exec.cells as f64 / wall_secs.max(1e-9),
        exec_speedup: exec.speedup(),
        cache_lookups: cache.lookups,
        cache_builds: cache.builds,
        cache_hit_rate: cache.hit_rate(),
        top_phases: snap
            .top_self_phases(5)
            .into_iter()
            .map(|(path, share)| PhaseShare { path, share })
            .collect(),
    };

    Ok(PerfReport {
        study_output,
        deterministic,
        timing,
        folded: snap.render_folded(),
        bench,
        exec,
    })
}

/// The host-timing lines flagging [`HIDDEN_SELF_SHARE`] breaches.
fn render_hidden_self_time(snap: &aum_sim::prof::Snapshot) -> String {
    let hidden = snap.hidden_self_time(HIDDEN_SELF_SHARE);
    let mut out = format!(
        "hidden self-time (non-leaf scopes above {:.0}% of profiled total): {}\n",
        100.0 * HIDDEN_SELF_SHARE,
        if hidden.is_empty() { "none" } else { "FLAGGED" },
    );
    for (path, share) in hidden {
        out.push_str(&format!(
            "  FLAG {path}: self {:.1}% is outside every child scope\n",
            100.0 * share
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use aum_sim::prof::{Snapshot, SnapshotNode};

    fn summary(cps: f64) -> BenchSummary {
        BenchSummary {
            sha: "abc".into(),
            study: "fig14".into(),
            quick: true,
            jobs: 4,
            cells: 100,
            wall_seconds: 1.0,
            cells_per_sec: cps,
            exec_speedup: 3.0,
            cache_lookups: 10,
            cache_builds: 2,
            cache_hit_rate: 0.8,
            top_phases: vec![PhaseShare {
                path: "study;exec.sweep".into(),
                share: 0.9,
            }],
        }
    }

    #[test]
    fn hidden_self_time_flags_only_heavy_non_leaf_scopes() {
        // Shaped like a fig14 profile before the interval body had phase
        // scopes: the interval's own body dominates, its children do not.
        // Name and depth follow from the `;`-joined path.
        let node = |path: &'static str, total_ms: u64, self_ms: u64| SnapshotNode {
            name: path.rsplit(';').next().expect("non-empty path"),
            path: path.into(),
            depth: path.matches(';').count(),
            calls: 1,
            total_nanos: total_ms * 1_000_000,
            self_nanos: self_ms * 1_000_000,
        };
        let mut snap = Snapshot {
            nodes: vec![
                node("study", 1000, 50),
                node("study;exec.cell", 950, 20),
                node("study;exec.cell;ctrl.interval", 930, 400),
                node("study;exec.cell;ctrl.interval;ctrl.decide", 30, 30),
                // A leaf may be as heavy as it likes: its time is its own.
                node("study;exec.cell;ctrl.interval;engine.interval", 500, 500),
                node("study;exec.cell;ctrl.interval;platform.step", 10, 10),
            ],
            counters: Vec::new(),
        };
        let out = render_hidden_self_time(&snap);
        assert!(out.contains("FLAGGED"), "{out}");
        assert!(
            out.contains("FLAG study;exec.cell;ctrl.interval: self 40.0%"),
            "{out}"
        );
        assert_eq!(out.matches("FLAG ").count(), 1, "only the interval: {out}");

        // Once its body is under child scopes, nothing is flagged.
        snap.nodes[2].self_nanos = 90_000_000;
        let out = render_hidden_self_time(&snap);
        assert!(out.ends_with("of profiled total): none\n"), "{out}");
    }

    #[test]
    fn unknown_study_is_a_clean_error() {
        let err = collect("not-a-study", true).expect_err("must fail");
        assert!(err.contains("unknown study"));
        assert!(err.contains("fig14"));
    }

    #[test]
    fn bench_summary_round_trips_through_json() {
        let json = serde_json::to_string_pretty(&summary(250.0)).expect("serialize");
        let back: BenchSummary = serde_json::from_str(&json).expect("parse");
        assert_eq!(back.cells, 100);
        assert_eq!(back.top_phases.len(), 1);
        assert_eq!(back.top_phases[0].path, "study;exec.sweep");
    }

    #[test]
    fn regression_gate_trips_only_beyond_tolerance() {
        let base = summary(100.0);
        assert!(summary(95.0).regression_against(&base).is_ok());
        assert!(summary(81.0).regression_against(&base).is_ok());
        let err = summary(79.0).regression_against(&base).expect_err("trip");
        assert!(err.contains("regression"));
        assert!(summary(0.1).regression_against(&summary(0.0)).is_ok());
    }
}
