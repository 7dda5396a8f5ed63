//! Shared infrastructure of the reproduction harness: scheme construction,
//! AUV-model caching, and experiment execution.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use aum::baselines::{AllAu, AuFi, AuRb, AuUp, RpAu, SmtAu};
use aum::controller::AumController;
use aum::experiment::{run_experiment, ExperimentConfig, Outcome};
use aum::manager::ResourceManager;
use aum::profiler::{build_model_traced, AuvModel, ProfilerConfig};
use aum_llm::traces::Scenario;
use aum_platform::spec::PlatformSpec;
use aum_sim::telemetry::Tracer;
use aum_sim::time::SimDuration;
use aum_workloads::be::BeKind;

/// The harness-wide tracer consulted by AUM-scheme runs and profiler
/// sweeps. Disabled by default; `repro --trace <file>` installs a
/// [`aum_sim::telemetry::JsonlSink`]-backed tracer here. Process-global
/// (not thread-local) so sweep-executor worker threads observe it too.
static HARNESS_TRACER: Mutex<Option<Tracer>> = Mutex::new(None);

/// Installs the tracer consulted by subsequent AUM-scheme experiment runs
/// and profiling sweeps. Baseline schemes stay untraced so a figure-wide
/// trace stays bounded and focused on the controller under study.
pub fn install_tracer(tracer: Tracer) {
    *HARNESS_TRACER.lock().expect("harness tracer lock") = Some(tracer);
}

/// The currently installed harness tracer (disabled unless
/// [`install_tracer`] was called).
#[must_use]
pub fn harness_tracer() -> Tracer {
    HARNESS_TRACER
        .lock()
        .expect("harness tracer lock")
        .clone()
        .unwrap_or_else(Tracer::disabled)
}

/// Harness-wide quick mode, set by `repro --quick`: experiments that
/// consult it (currently `fig14`) run at smoke-profiler scale with short
/// cells, matching the CI trace-export smoke configuration.
static QUICK: AtomicBool = AtomicBool::new(false);

/// Enables or disables quick mode for subsequent experiment runs.
pub fn set_quick(on: bool) {
    QUICK.store(on, Ordering::SeqCst);
}

/// Whether quick mode is on.
#[must_use]
pub fn quick() -> bool {
    QUICK.load(Ordering::SeqCst)
}

/// Process-wide platform-name intern table. Platform specs are a handful of
/// static presets, so a linear scan under a mutex is cheaper than hashing
/// the name — and interning makes every [`ModelCache`] key `Copy`, so cache
/// hits allocate nothing.
static PLATFORM_NAMES: Mutex<Vec<String>> = Mutex::new(Vec::new());

/// Interns a platform name, returning its stable dense id.
#[must_use]
pub fn intern_platform(name: &str) -> usize {
    let mut names = PLATFORM_NAMES.lock().expect("platform intern lock");
    if let Some(id) = names.iter().position(|n| n == name) {
        return id;
    }
    names.push(name.to_string());
    names.len() - 1
}

/// The seven evaluated schemes (paper Table V).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scheme {
    /// AU-exclusive, no sharing.
    AllAu,
    /// AUV-oblivious SMT sharing.
    SmtAu,
    /// AUV-oblivious resource partitioning.
    RpAu,
    /// Usage-pattern-aware variant.
    AuUp,
    /// Frequency-interference-aware variant.
    AuFi,
    /// Resource-bound-aware variant.
    AuRb,
    /// The full three-dimensional proposal.
    Aum,
}

impl Scheme {
    /// All schemes in Table V order.
    pub const ALL: [Scheme; 7] = [
        Scheme::AllAu,
        Scheme::SmtAu,
        Scheme::RpAu,
        Scheme::AuUp,
        Scheme::AuFi,
        Scheme::AuRb,
        Scheme::Aum,
    ];

    /// Printable scheme name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Scheme::AllAu => "ALL-AU",
            Scheme::SmtAu => "SMT-AU",
            Scheme::RpAu => "RP-AU",
            Scheme::AuUp => "AU-UP",
            Scheme::AuFi => "AU-FI",
            Scheme::AuRb => "AU-RB",
            Scheme::Aum => "AUM",
        }
    }
}

/// Cache key: interned platform id + scenario + co-runner. `Copy`, so
/// lookups are allocation-free (the old key cloned `spec.name` per call).
type CacheKey = (usize, Scenario, BeKind);

/// Caches profiled AUV models across experiments (one offline profile can
/// drive thousands of cores, §VII-D).
///
/// Concurrency-safe: lookups take `&self`, the map lock is held only long
/// enough to fetch/insert a per-key latch, and the actual profiling sweep
/// runs under the key's [`OnceLock`] — concurrent requests for the *same*
/// model block until the single build finishes, while requests for
/// *different* models proceed independently. Models are returned as
/// [`Arc<AuvModel>`] clones (pointer bumps), never deep bucket copies.
pub struct ModelCache {
    models: Mutex<HashMap<CacheKey, Arc<OnceLock<Arc<AuvModel>>>>>,
    /// Builds the profiling sweep for a key — `paper_default` in studies;
    /// tests substitute `ProfilerConfig::smoke` to keep runtimes sane while
    /// exercising the identical cache/executor code path.
    profile: fn(PlatformSpec, Scenario, BeKind) -> ProfilerConfig,
    lookups: std::sync::atomic::AtomicU64,
    builds: std::sync::atomic::AtomicU64,
}

/// A point-in-time copy of one [`ModelCache`]'s hit/miss accounting.
///
/// `hits = lookups − builds`: a lookup counts as a *hit* unless this very
/// call ran the profiling sweep. A caller that blocks on another thread's
/// in-flight build is a hit — the work was shared — which keeps the counts
/// deterministic at every `--jobs` level (one lookup per call site, one
/// build per distinct key).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Model requests served ([`ModelCache::model`] calls).
    pub lookups: u64,
    /// Requests that ran the profiling sweep (distinct keys built).
    pub builds: u64,
}

impl CacheStats {
    /// Lookups served without running a profiling sweep.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.lookups.saturating_sub(self.builds)
    }

    /// Fraction of lookups served from cache (1.0 for an idle cache).
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        if self.lookups == 0 {
            1.0
        } else {
            self.hits() as f64 / self.lookups as f64
        }
    }
}

impl Default for ModelCache {
    fn default() -> Self {
        ModelCache::new()
    }
}

impl ModelCache {
    /// Creates an empty cache profiling at paper scale.
    #[must_use]
    pub fn new() -> Self {
        Self::with_profile(ProfilerConfig::paper_default)
    }

    /// Creates an empty cache with a custom profiling-sweep factory.
    #[must_use]
    pub fn with_profile(profile: fn(PlatformSpec, Scenario, BeKind) -> ProfilerConfig) -> Self {
        ModelCache {
            models: Mutex::new(HashMap::new()),
            profile,
            lookups: std::sync::atomic::AtomicU64::new(0),
            builds: std::sync::atomic::AtomicU64::new(0),
        }
    }

    /// Returns (building if necessary) the AUV model for a configuration.
    ///
    /// The build itself is traced through the harness tracer and
    /// parallelized internally by the profiler's sweep; callers that
    /// dispatch traced cells through the executor should [`Self::warm`]
    /// every needed model first so profiler events keep their serial
    /// position in the merged trace.
    pub fn model(&self, spec: &PlatformSpec, scenario: Scenario, be: BeKind) -> Arc<AuvModel> {
        use std::sync::atomic::Ordering;
        let _prof = aum_sim::prof::scope("model_cache.lookup");
        self.lookups.fetch_add(1, Ordering::Relaxed);
        aum_sim::prof::count("model_cache.lookup", 1);
        let key = (intern_platform(&spec.name), scenario, be);
        let slot = {
            let mut models = self.models.lock().expect("model cache lock");
            Arc::clone(models.entry(key).or_default())
        };
        Arc::clone(slot.get_or_init(|| {
            let _prof = aum_sim::prof::scope("model_cache.build");
            self.builds.fetch_add(1, Ordering::Relaxed);
            aum_sim::prof::count("model_cache.build", 1);
            Arc::new(build_model_traced(
                &(self.profile)(spec.clone(), scenario, be),
                harness_tracer(),
            ))
        }))
    }

    /// Hit/miss accounting for this cache instance (see [`CacheStats`]).
    pub fn stats(&self) -> CacheStats {
        use std::sync::atomic::Ordering;
        CacheStats {
            lookups: self.lookups.load(Ordering::Relaxed),
            builds: self.builds.load(Ordering::Relaxed),
        }
    }

    /// Eagerly builds the models for every listed configuration, in order.
    /// Called before a parallel study sweep so cells only ever *hit* the
    /// cache and the profiler's own trace events land deterministically
    /// ahead of the study's.
    pub fn warm<'a>(
        &self,
        configs: impl IntoIterator<Item = (&'a PlatformSpec, Scenario, BeKind)>,
    ) {
        for (spec, scenario, be) in configs {
            let _ = self.model(spec, scenario, be);
        }
    }

    /// Total profiling executions performed so far.
    #[must_use]
    pub fn total_runs(&self) -> usize {
        self.models
            .lock()
            .expect("model cache lock")
            .values()
            .filter_map(|slot| slot.get().map(|m| m.profiling_runs))
            .sum()
    }
}

/// Builds the manager for a scheme (profiling first for AUM).
pub fn make_manager(
    scheme: Scheme,
    spec: &PlatformSpec,
    scenario: Scenario,
    be: Option<BeKind>,
    cache: &ModelCache,
) -> Box<dyn ResourceManager> {
    match scheme {
        Scheme::AllAu => Box::new(AllAu::new(spec)),
        Scheme::SmtAu => Box::new(SmtAu::new(spec)),
        Scheme::RpAu => Box::new(RpAu::new(spec)),
        Scheme::AuUp => Box::new(AuUp::new(spec)),
        Scheme::AuFi => Box::new(AuFi::new(spec)),
        Scheme::AuRb => Box::new(AuRb::new(spec)),
        Scheme::Aum => {
            let model = cache.model(spec, scenario, be.unwrap_or(BeKind::SpecJbb));
            Box::new(AumController::new(model))
        }
    }
}

/// Runs one scheme on one (platform, scenario, co-runner) cell. ALL-AU runs
/// exclusively (no co-runner) by definition.
pub fn scheme_outcome(
    scheme: Scheme,
    spec: &PlatformSpec,
    scenario: Scenario,
    be: BeKind,
    cache: &ModelCache,
) -> Outcome {
    scheme_outcome_cell(
        scheme,
        spec,
        scenario,
        be,
        None,
        None,
        cache,
        &harness_tracer(),
    )
}

/// The fully-parameterized scheme cell: explicit tracer (so parallel sweep
/// cells can capture into per-cell sinks) and optional duration override
/// (so the determinism tests drive the exact study code path at reduced
/// scale). `rate = None` uses the scenario default; `duration = None` uses
/// the paper default.
#[allow(clippy::too_many_arguments)]
pub fn scheme_outcome_cell(
    scheme: Scheme,
    spec: &PlatformSpec,
    scenario: Scenario,
    be: BeKind,
    rate: Option<f64>,
    duration: Option<SimDuration>,
    cache: &ModelCache,
    tracer: &Tracer,
) -> Outcome {
    let be_opt = if scheme == Scheme::AllAu {
        None
    } else {
        Some(be)
    };
    let mut cfg = ExperimentConfig::paper_default(spec.clone(), scenario, be_opt);
    cfg.rate = rate;
    if let Some(d) = duration {
        cfg.duration = d;
    }
    let mut mgr = make_manager(scheme, spec, scenario, be_opt, cache);
    let tracer = if scheme == Scheme::Aum {
        tracer.clone()
    } else {
        Tracer::disabled()
    };
    run_experiment(&cfg, mgr.as_mut(), tracer).expect("scheme cell")
}

/// Offered request rate scaled to a platform's serving capacity relative to
/// GenA — the binding resource is memory bandwidth for decode and AMX
/// throughput for prefill, so the scale takes the smaller of the two
/// (GenB's HBM triples bandwidth but keeps GenA's AU, GenC improves both).
#[must_use]
pub fn platform_scaled_rate(spec: &PlatformSpec, scenario: Scenario) -> f64 {
    let gen_a = PlatformSpec::gen_a();
    let bw_ratio = spec.mem_bw.value() / gen_a.mem_bw.value();
    let amx_ratio = spec.amx_peak.value() / gen_a.amx_peak.value();
    scenario.default_rate() * bw_ratio.min(amx_ratio)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Hand-counted cache accounting: 6 lookups over 2 distinct keys must
    /// report exactly 6 lookups, 2 builds, 4 hits — the counts are defined
    /// by which lookups actually ran the build closure, so they hold at
    /// any worker count (the profiling sweep runs once per key).
    #[test]
    fn model_cache_hit_miss_counts_are_exact() {
        let cache = ModelCache::with_profile(ProfilerConfig::smoke);
        let start = cache.stats();
        assert_eq!((start.lookups, start.builds), (0, 0));
        assert!((start.hit_rate() - 1.0).abs() < f64::EPSILON);

        let spec = PlatformSpec::gen_a();
        for _ in 0..3 {
            cache.model(&spec, Scenario::Chatbot, BeKind::SpecJbb);
        }
        for _ in 0..3 {
            cache.model(&spec, Scenario::Chatbot, BeKind::Olap);
        }
        let stats = cache.stats();
        assert_eq!(stats.lookups, 6, "every model() call is a lookup");
        assert_eq!(stats.builds, 2, "one profiling sweep per distinct key");
        assert_eq!(stats.hits(), 4, "hits = lookups - builds");
        assert!((stats.hit_rate() - 4.0 / 6.0).abs() < 1e-12);
    }
}
