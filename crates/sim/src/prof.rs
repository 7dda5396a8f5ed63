//! Host-wall-clock self-profiling plane.
//!
//! Everything else in `aum-sim` measures **simulated** time; this module
//! measures the *simulator itself* — where host wall-clock goes while a
//! study runs (roofline cost evaluation? `ModelCache` misses? executor
//! idle? trace merging?). ROADMAP item 1 (event-driven core + cost
//! memoization) needs that answer before any rewrite, and `repro
//! perf-report` is built on this module.
//!
//! # Design
//!
//! * **Scoped timers.** [`scope("name")`](scope) returns a guard; the
//!   elapsed host time and one call are flushed into a global tree node
//!   keyed by `(parent, name)` when the guard drops — exactly two relaxed
//!   `fetch_add`s per scope exit. Nodes are resolved through a
//!   thread-local cache, so the global registry mutex is only touched the
//!   first time a thread sees a `(parent, name)` pair.
//! * **Off by default, near-zero disabled cost.** When disabled (the
//!   default), [`scope`] is a single relaxed atomic load returning an
//!   empty guard — no thread-local access, no clock read. The
//!   `telemetry_overhead` bench holds the disabled path to ≤ 1.05× of a
//!   no-timer baseline.
//! * **Deterministic tree shape.** The *shape* of the tree (node paths),
//!   call counts, and named [`count`]ers are functions of the simulated
//!   work only, so they are byte-identical at any `--jobs` level —
//!   [`Snapshot::render_deterministic`] renders exactly that subset and is
//!   what the determinism gates compare. Host *timings*
//!   ([`Snapshot::render_timing`], [`Snapshot::render_folded`]) are
//!   inherently nondeterministic and are excluded from identity checks.
//! * **Re-rooting across worker threads.** Worker threads start with an
//!   empty scope stack, which would make a parallel run's tree differ
//!   from a serial run's. The executor captures [`current_parent`] on the
//!   calling thread and wraps each cell in [`with_parent`], so cell-level
//!   scopes attach to the same node at `--jobs 1` and `--jobs 8`.
//!
//! # Clock domains
//!
//! Scoped-timer durations are [`Instant`] deltas (host monotonic clock)
//! and have no relation to [`crate::time::SimTime`]. A cheap simulated
//! minute and an expensive simulated minute look identical to sim-time
//! telemetry but completely different here — that contrast is the point.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Global enable gate. The disabled fast path of [`scope`] and [`count`]
/// is one relaxed load of this flag.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Enables or disables self-profiling process-wide.
///
/// Enabling is cheap; scopes created while disabled remain no-ops for
/// their whole lifetime (a guard never changes mode mid-flight).
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether self-profiling is currently enabled.
#[must_use]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Sentinel node id for the implicit root of the self-time tree.
const ROOT: u32 = 0;

struct Node {
    id: u32,
    parent: u32,
    name: &'static str,
    calls: AtomicU64,
    nanos: AtomicU64,
}

struct Registry {
    nodes: Vec<Arc<Node>>,
    index: HashMap<(u32, &'static str), u32>,
    counters: BTreeMap<&'static str, Arc<AtomicU64>>,
    /// Bumped by [`reset`]; thread-local caches holding node handles from
    /// an older epoch discard them on first use.
    epoch: u64,
}

impl Registry {
    fn new(epoch: u64) -> Self {
        let root = Arc::new(Node {
            id: ROOT,
            parent: ROOT,
            name: "",
            calls: AtomicU64::new(0),
            nanos: AtomicU64::new(0),
        });
        Registry {
            nodes: vec![root],
            index: HashMap::new(),
            counters: BTreeMap::new(),
            epoch,
        }
    }

    fn child(&mut self, parent: u32, name: &'static str) -> Arc<Node> {
        if let Some(&id) = self.index.get(&(parent, name)) {
            return Arc::clone(&self.nodes[id as usize]);
        }
        let id = u32::try_from(self.nodes.len()).expect("node table overflow");
        let node = Arc::new(Node {
            id,
            parent,
            name,
            calls: AtomicU64::new(0),
            nanos: AtomicU64::new(0),
        });
        self.nodes.push(Arc::clone(&node));
        self.index.insert((parent, name), id);
        node
    }
}

fn registry() -> &'static Mutex<Registry> {
    static REGISTRY: OnceLock<Mutex<Registry>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Registry::new(0)))
}

struct TlState {
    epoch: u64,
    current: u32,
    nodes: HashMap<(u32, &'static str), Arc<Node>>,
    counters: HashMap<&'static str, Arc<AtomicU64>>,
}

thread_local! {
    static TL: RefCell<TlState> = RefCell::new(TlState {
        epoch: 0,
        current: ROOT,
        nodes: HashMap::new(),
        counters: HashMap::new(),
    });
}

/// Clears the whole self-time tree and every named counter, and detaches
/// all thread-local caches (they re-sync lazily via an epoch check).
///
/// Call this from a single-threaded control point — between studies, not
/// while scopes are live on other threads; a scope spanning a reset
/// flushes into the discarded tree and is simply lost.
pub fn reset() {
    let mut reg = registry().lock().expect("prof registry lock");
    let next = reg.epoch + 1;
    *reg = Registry::new(next);
}

fn sync_epoch(tl: &mut TlState, reg_epoch: u64) {
    if tl.epoch != reg_epoch {
        tl.epoch = reg_epoch;
        tl.current = ROOT;
        tl.nodes.clear();
        tl.counters.clear();
    }
}

fn resolve(parent: u32, name: &'static str) -> Arc<Node> {
    let mut reg = registry().lock().expect("prof registry lock");
    reg.child(parent, name)
}

/// RAII guard for one timed scope; see [`scope`].
pub struct Scope {
    inner: Option<ScopeInner>,
}

struct ScopeInner {
    node: Arc<Node>,
    prev: u32,
    t0: Instant,
    /// Registry epoch the scope opened under; a reset mid-scope must not
    /// let the drop clobber the fresh thread-local stack.
    epoch: u64,
}

impl Drop for Scope {
    fn drop(&mut self) {
        if let Some(inner) = self.inner.take() {
            let dt = inner.t0.elapsed().as_nanos() as u64;
            inner.node.calls.fetch_add(1, Ordering::Relaxed);
            inner.node.nanos.fetch_add(dt, Ordering::Relaxed);
            TL.with(|tl| {
                let mut tl = tl.borrow_mut();
                if tl.epoch == inner.epoch {
                    tl.current = inner.prev;
                }
            });
        }
    }
}

/// Opens a named, timed scope under the current thread's innermost open
/// scope. Dropping the returned guard flushes `(1 call, elapsed nanos)`
/// into the `(parent, name)` tree node.
///
/// Names must be `'static` literals; the tree is keyed by pointer-free
/// `(parent id, name)` pairs, so dynamic strings are deliberately
/// unrepresentable (they would unbound the node table).
#[inline]
pub fn scope(name: &'static str) -> Scope {
    if !ENABLED.load(Ordering::Relaxed) {
        return Scope { inner: None };
    }
    Scope {
        inner: Some(enter(name)),
    }
}

fn enter(name: &'static str) -> ScopeInner {
    let reg_epoch = registry().lock().expect("prof registry lock").epoch;
    TL.with(|tl| {
        let mut tl = tl.borrow_mut();
        sync_epoch(&mut tl, reg_epoch);
        let parent = tl.current;
        let node = if let Some(node) = tl.nodes.get(&(parent, name)) {
            Arc::clone(node)
        } else {
            let node = resolve(parent, name);
            tl.nodes.insert((parent, name), Arc::clone(&node));
            node
        };
        tl.current = node.id;
        ScopeInner {
            node,
            prev: parent,
            t0: Instant::now(),
            epoch: reg_epoch,
        }
    })
}

/// A capture of the calling thread's innermost open scope, used to
/// re-root work that migrates to another thread (see [`with_parent`]).
#[derive(Debug, Clone, Copy)]
pub struct ParentHandle {
    id: u32,
    epoch: u64,
}

/// Captures the calling thread's current scope as a [`ParentHandle`].
///
/// Cheap when disabled (returns a root handle without touching
/// thread-local state).
#[must_use]
pub fn current_parent() -> ParentHandle {
    if !ENABLED.load(Ordering::Relaxed) {
        return ParentHandle { id: ROOT, epoch: 0 };
    }
    let reg_epoch = registry().lock().expect("prof registry lock").epoch;
    TL.with(|tl| {
        let mut tl = tl.borrow_mut();
        sync_epoch(&mut tl, reg_epoch);
        ParentHandle {
            id: tl.current,
            epoch: reg_epoch,
        }
    })
}

/// Runs `f` with the thread's scope stack rooted at `parent`, restoring
/// the previous root afterwards.
///
/// This is how the sweep executor keeps the self-time tree's *shape*
/// independent of the worker count: it captures [`current_parent`] on the
/// calling thread and wraps every cell in `with_parent`, so scopes opened
/// inside a cell attach to the same node whether the cell ran inline
/// (`--jobs 1`) or on a pool thread (`--jobs 8`).
pub fn with_parent<R>(parent: ParentHandle, f: impl FnOnce() -> R) -> R {
    if !ENABLED.load(Ordering::Relaxed) {
        return f();
    }
    let reg_epoch = registry().lock().expect("prof registry lock").epoch;
    if parent.epoch != reg_epoch {
        // A reset invalidated the handle; run unrooted rather than attach
        // to an arbitrary node of the new tree.
        return f();
    }
    let prev = TL.with(|tl| {
        let mut tl = tl.borrow_mut();
        sync_epoch(&mut tl, reg_epoch);
        std::mem::replace(&mut tl.current, parent.id)
    });
    let out = f();
    TL.with(|tl| {
        let mut tl = tl.borrow_mut();
        if tl.epoch == reg_epoch {
            tl.current = prev;
        }
    });
    out
}

/// Adds `delta` to the named global counter (no-op while disabled).
///
/// Counters carry deterministic event counts — `ModelCache` lookups and
/// builds, controller copy-on-write refinements — that the perf report
/// folds into its deterministic section and the live endpoint exports as
/// `aum_cache_*` gauges.
#[inline]
pub fn count(name: &'static str, delta: u64) {
    if !ENABLED.load(Ordering::Relaxed) {
        return;
    }
    let reg_epoch = registry().lock().expect("prof registry lock").epoch;
    TL.with(|tl| {
        let mut tl = tl.borrow_mut();
        sync_epoch(&mut tl, reg_epoch);
        if let Some(c) = tl.counters.get(name) {
            c.fetch_add(delta, Ordering::Relaxed);
            return;
        }
        let counter = {
            let mut reg = registry().lock().expect("prof registry lock");
            Arc::clone(
                reg.counters
                    .entry(name)
                    .or_insert_with(|| Arc::new(AtomicU64::new(0))),
            )
        };
        counter.fetch_add(delta, Ordering::Relaxed);
        tl.counters.insert(name, counter);
    });
}

/// One node of a [`Snapshot`] self-time tree, in DFS pre-order with
/// children sorted by name (registration order is racy under parallel
/// sweeps; the sort makes the rendered shape canonical).
#[derive(Debug, Clone)]
pub struct SnapshotNode {
    /// Scope name (the `'static` literal passed to [`scope`]).
    pub name: &'static str,
    /// `;`-joined path from the first real scope down to this node —
    /// exactly the stack syntax of collapsed-stack flamegraph lines.
    pub path: String,
    /// Nesting depth (top-level scopes are depth 0).
    pub depth: usize,
    /// Times this scope was entered.
    pub calls: u64,
    /// Total host nanoseconds spent inside this scope (children
    /// included).
    pub total_nanos: u64,
    /// Host nanoseconds attributable to this scope alone
    /// (`total − Σ children`, clamped at 0).
    pub self_nanos: u64,
}

/// A point-in-time copy of the self-time tree and counters. Cheap to
/// take; all rendering works off the copy.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// Tree nodes in canonical (DFS, name-sorted) order.
    pub nodes: Vec<SnapshotNode>,
    /// Named counters, sorted by name.
    pub counters: Vec<(&'static str, u64)>,
}

/// Takes a [`Snapshot`] of the current tree and counters.
#[must_use]
pub fn snapshot() -> Snapshot {
    struct Raw {
        parent: u32,
        name: &'static str,
        calls: u64,
        nanos: u64,
    }
    let (raws, counters) = {
        let reg = registry().lock().expect("prof registry lock");
        let raws: Vec<Raw> = reg
            .nodes
            .iter()
            .map(|n| Raw {
                parent: n.parent,
                name: n.name,
                calls: n.calls.load(Ordering::Relaxed),
                nanos: n.nanos.load(Ordering::Relaxed),
            })
            .collect();
        let counters: Vec<(&'static str, u64)> = reg
            .counters
            .iter()
            .map(|(name, c)| (*name, c.load(Ordering::Relaxed)))
            .collect();
        (raws, counters)
    };

    let mut children: Vec<Vec<u32>> = vec![Vec::new(); raws.len()];
    for (id, raw) in raws.iter().enumerate() {
        if id as u32 != ROOT {
            children[raw.parent as usize].push(id as u32);
        }
    }
    for kids in &mut children {
        kids.sort_by_key(|&id| raws[id as usize].name);
    }

    let mut nodes = Vec::with_capacity(raws.len().saturating_sub(1));
    let mut stack: Vec<(u32, usize, String)> = children[ROOT as usize]
        .iter()
        .rev()
        .map(|&id| (id, 0, String::new()))
        .collect();
    while let Some((id, depth, prefix)) = stack.pop() {
        let raw = &raws[id as usize];
        let path = if prefix.is_empty() {
            raw.name.to_string()
        } else {
            format!("{prefix};{}", raw.name)
        };
        let child_nanos: u64 = children[id as usize]
            .iter()
            .map(|&c| raws[c as usize].nanos)
            .sum();
        nodes.push(SnapshotNode {
            name: raw.name,
            path: path.clone(),
            depth,
            calls: raw.calls,
            total_nanos: raw.nanos,
            self_nanos: raw.nanos.saturating_sub(child_nanos),
        });
        for &c in children[id as usize].iter().rev() {
            stack.push((c, depth + 1, path.clone()));
        }
    }
    Snapshot { nodes, counters }
}

impl Snapshot {
    /// Sum of top-level (`depth == 0`) scope totals, in nanoseconds —
    /// the tree's account of the whole profiled region.
    #[must_use]
    pub fn top_level_nanos(&self) -> u64 {
        self.nodes
            .iter()
            .filter(|n| n.depth == 0)
            .map(|n| n.total_nanos)
            .sum()
    }

    /// Looks up a counter by name.
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0, |(_, v)| *v)
    }

    /// Renders the **deterministic** subset: tree shape and call counts
    /// plus named counters. Byte-identical at any `--jobs` level for the
    /// same simulated work; never includes host timings.
    #[must_use]
    pub fn render_deterministic(&self) -> String {
        let mut out = String::new();
        out.push_str("self-time tree (shape and call counts):\n");
        for n in &self.nodes {
            out.push_str(&format!(
                "  {:indent$}{name}  calls={calls}\n",
                "",
                indent = n.depth * 2,
                name = n.name,
                calls = n.calls,
            ));
        }
        out.push_str("counters:\n");
        if self.counters.is_empty() {
            out.push_str("  (none)\n");
        }
        for (name, v) in &self.counters {
            out.push_str(&format!("  {name} = {v}\n"));
        }
        out
    }

    /// Renders the **timing** section: per-node total/self host time and
    /// shares of the top-level total. Nondeterministic by nature —
    /// excluded from every identity gate.
    #[must_use]
    pub fn render_timing(&self) -> String {
        let top = self.top_level_nanos().max(1);
        let mut out = String::new();
        out.push_str(&format!(
            "{:<42} {:>10} {:>12} {:>12} {:>7}\n",
            "phase", "calls", "total_ms", "self_ms", "share"
        ));
        for n in &self.nodes {
            out.push_str(&format!(
                "{:<42} {:>10} {:>12.3} {:>12.3} {:>6.1}%\n",
                format!("{:indent$}{name}", "", indent = n.depth * 2, name = n.name),
                n.calls,
                n.total_nanos as f64 / 1e6,
                n.self_nanos as f64 / 1e6,
                100.0 * n.total_nanos as f64 / top as f64,
            ));
        }
        out
    }

    /// Renders collapsed-stack flamegraph lines (`a;b;c <weight>`, one
    /// per node with self-time, weight = self-time in microseconds) —
    /// the input format of `inferno-flamegraph` and speedscope.
    ///
    /// Nodes with calls but sub-microsecond self-time are emitted with
    /// weight 1 so every visited scope survives into the graph.
    #[must_use]
    pub fn render_folded(&self) -> String {
        let mut out = String::new();
        for n in &self.nodes {
            if n.calls == 0 {
                continue;
            }
            let micros = (n.self_nanos / 1_000).max(1);
            out.push_str(&format!("{} {micros}\n", n.path));
        }
        out
    }

    /// Non-leaf nodes whose self-time exceeds `max_share` of the
    /// top-level total, as `(path, share_of_top_level)` pairs in tree
    /// order. Such self-time is spent outside every child scope, so no
    /// row below the node explains it.
    #[must_use]
    pub fn hidden_self_time(&self, max_share: f64) -> Vec<(String, f64)> {
        let top = self.top_level_nanos().max(1) as f64;
        // DFS pre-order: a node has children iff the next node is deeper.
        self.nodes
            .windows(2)
            .filter(|w| w[1].depth > w[0].depth)
            .map(|w| (w[0].path.clone(), w[0].self_nanos as f64 / top))
            .filter(|&(_, share)| share > max_share)
            .collect()
    }

    /// The top `k` nodes by self-time, as `(path, share_of_top_level)`
    /// pairs — the "top-5 phase shares" of `BENCH_<sha>.json`.
    #[must_use]
    pub fn top_self_phases(&self, k: usize) -> Vec<(String, f64)> {
        let top = self.top_level_nanos().max(1);
        let mut by_self: Vec<&SnapshotNode> = self.nodes.iter().filter(|n| n.calls > 0).collect();
        by_self.sort_by(|a, b| b.self_nanos.cmp(&a.self_nanos).then(a.path.cmp(&b.path)));
        by_self
            .into_iter()
            .take(k)
            .map(|n| (n.path.clone(), n.self_nanos as f64 / top as f64))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The registry and enable flag are process-global; serialize the
    /// tests that mutate them.
    fn lock() -> std::sync::MutexGuard<'static, ()> {
        static GATE: Mutex<()> = Mutex::new(());
        GATE.lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn disabled_scope_records_nothing() {
        let _g = lock();
        reset();
        set_enabled(false);
        {
            let _s = scope("never");
        }
        assert!(snapshot().nodes.is_empty());
    }

    #[test]
    fn nested_scopes_build_a_tree_with_self_time() {
        let _g = lock();
        reset();
        set_enabled(true);
        {
            let _a = scope("outer");
            for _ in 0..3 {
                let _b = scope("inner");
            }
        }
        set_enabled(false);
        let snap = snapshot();
        let paths: Vec<&str> = snap.nodes.iter().map(|n| n.path.as_str()).collect();
        assert_eq!(paths, vec!["outer", "outer;inner"]);
        assert_eq!(snap.nodes[0].calls, 1);
        assert_eq!(snap.nodes[1].calls, 3);
        assert!(snap.nodes[0].total_nanos >= snap.nodes[1].total_nanos);
        let folded = snap.render_folded();
        assert!(folded.contains("outer;inner "));
    }

    #[test]
    fn with_parent_reroots_worker_scopes() {
        let _g = lock();
        reset();
        set_enabled(true);
        {
            let _a = scope("sweep");
            let parent = current_parent();
            std::thread::scope(|s| {
                s.spawn(|| {
                    with_parent(parent, || {
                        let _c = scope("cell");
                    });
                });
            });
        }
        set_enabled(false);
        let snap = snapshot();
        let paths: Vec<&str> = snap.nodes.iter().map(|n| n.path.as_str()).collect();
        assert_eq!(paths, vec!["sweep", "sweep;cell"]);
    }

    #[test]
    fn counters_accumulate_and_render_deterministically() {
        let _g = lock();
        reset();
        set_enabled(true);
        count("cache.hit", 2);
        count("cache.hit", 1);
        count("cache.miss", 1);
        set_enabled(false);
        let snap = snapshot();
        assert_eq!(snap.counter("cache.hit"), 3);
        assert_eq!(snap.counter("cache.miss"), 1);
        let det = snap.render_deterministic();
        assert!(det.contains("cache.hit = 3"));
        assert!(!det.contains("ms"), "no timings in deterministic section");
    }

    #[test]
    fn sibling_order_is_name_sorted_not_registration_order() {
        let _g = lock();
        reset();
        set_enabled(true);
        {
            let _z = scope("zeta");
        }
        {
            let _a = scope("alpha");
        }
        set_enabled(false);
        let names: Vec<&str> = snapshot().nodes.iter().map(|n| n.name).collect();
        assert_eq!(names, vec!["alpha", "zeta"]);
    }

    #[test]
    fn reset_clears_tree_and_counters() {
        let _g = lock();
        reset();
        set_enabled(true);
        {
            let _s = scope("gone");
        }
        count("gone.count", 5);
        reset();
        {
            let _s = scope("kept");
        }
        set_enabled(false);
        let snap = snapshot();
        assert_eq!(snap.nodes.len(), 1);
        assert_eq!(snap.nodes[0].name, "kept");
        assert!(snap.counters.is_empty());
    }
}
