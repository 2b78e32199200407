//! # spmlab-obs — structured instrumentation for the whole toolchain
//!
//! A zero-dependency observability layer the pipeline, analyzer, simulator
//! and sweep engine report through: hierarchical **spans** (scoped RAII
//! timers with parent/child nesting per thread), named **counters** and
//! periodic **progress** events — dispatched to pluggable [`Sink`]s.
//!
//! The design centre is the *disabled* case: with no sink installed every
//! hook is one relaxed atomic load ([`enabled`]) and an early return, so
//! instrumented hot paths cost nothing measurable and a lazily labelled
//! span ([`span_with`]) never renders its label.
//!
//! Two sinks ship with the crate:
//!
//! | sink | purpose |
//! |------|---------|
//! | [`collector::MemorySink`] | in-memory span tree + counter totals for programmatic access (per-phase breakdowns, tests) |
//! | [`jsonl::JsonlSink`] | JSON-lines event stream to a file or stderr (`experiments --profile`) |
//!
//! Sinks *stack*: [`add_sink`] registers one more recipient and returns a
//! guard that unregisters it on drop, so a scoped collector composes with
//! a process-wide stream writer.
//!
//! ```
//! use std::sync::Arc;
//! let sink = Arc::new(spmlab_obs::collector::MemorySink::default());
//! {
//!     let _guard = spmlab_obs::add_sink(sink.clone());
//!     assert!(spmlab_obs::enabled());
//!     let _outer = spmlab_obs::span("experiment");
//!     {
//!         let _inner = spmlab_obs::span("simulate");
//!         spmlab_obs::counter("instructions", 1000);
//!     }
//! }
//! assert_eq!(sink.counter_total("instructions"), 1000);
//! let spans = sink.spans();
//! assert_eq!(spans.len(), 2);
//! assert_eq!(spans[1].parent, Some(spans[0].id), "simulate nests under experiment");
//! ```

pub mod collector;
pub mod jsonl;

use std::cell::RefCell;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock};
use std::time::Instant;

/// Metadata of one open span, handed to sinks on open and close.
#[derive(Debug, Clone)]
pub struct SpanMeta {
    /// Process-unique span id (monotonically allocated, never 0).
    pub id: u64,
    /// Enclosing span on the same thread, if any.
    pub parent: Option<u64>,
    /// Static span name (the phase: `"simulate"`, `"analyze"`, …).
    pub name: &'static str,
    /// Free-form instance label (a config label, a function name); may
    /// be empty.
    pub label: String,
    /// Open timestamp, nanoseconds since the process epoch.
    pub open_ns: u64,
    /// Small process-unique id of the emitting thread.
    pub tid: u64,
}

/// An event recipient. All methods take `&self`: sinks are shared
/// across threads and synchronise internally.
pub trait Sink: Send + Sync {
    /// A span opened.
    fn span_open(&self, span: &SpanMeta);
    /// A span closed (the same `span` passed to [`Sink::span_open`]).
    fn span_close(&self, span: &SpanMeta, close_ns: u64);
    /// A counter was incremented by `delta`.
    fn counter(&self, name: &'static str, delta: u64, t_ns: u64, tid: u64);
    /// Progress: `done` of `total` work items, with a free-form detail
    /// (typically a throughput rendering).
    fn progress(&self, done: u64, total: u64, detail: &str, t_ns: u64, tid: u64);
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_SINK_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_THREAD_ID: AtomicU64 = AtomicU64::new(1);

/// Counts entries into the sink-dispatch path. Exists so tests can
/// prove the disabled fast path never reaches dispatch.
#[cfg(test)]
pub(crate) static DISPATCH_ENTRIES: AtomicU64 = AtomicU64::new(0);

/// The installed sinks, newest last, keyed by their uninstall id.
type SinkRegistry = RwLock<Vec<(u64, Arc<dyn Sink>)>>;

fn registry() -> &'static SinkRegistry {
    static REGISTRY: OnceLock<SinkRegistry> = OnceLock::new();
    REGISTRY.get_or_init(|| RwLock::new(Vec::new()))
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the process epoch (first observability call).
/// Monotonic: `Instant` is guaranteed non-decreasing.
pub fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

thread_local! {
    static SPAN_STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    static THREAD_ID: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

fn thread_id() -> u64 {
    THREAD_ID.with(|t| {
        if t.get() == 0 {
            t.set(NEXT_THREAD_ID.fetch_add(1, Ordering::Relaxed));
        }
        t.get()
    })
}

/// Whether at least one sink is installed. One relaxed atomic load —
/// the whole cost of every hook when observability is off.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

fn dispatch(f: impl Fn(&dyn Sink)) {
    #[cfg(test)]
    DISPATCH_ENTRIES.fetch_add(1, Ordering::Relaxed);
    for (_, sink) in registry().read().expect("sink registry").iter() {
        f(&**sink);
    }
}

/// Unregisters its sink when dropped.
#[must_use = "dropping the guard immediately uninstalls the sink"]
pub struct SinkGuard {
    id: u64,
}

impl Drop for SinkGuard {
    fn drop(&mut self) {
        let mut reg = registry().write().expect("sink registry");
        reg.retain(|(id, _)| *id != self.id);
        if reg.is_empty() {
            ENABLED.store(false, Ordering::Relaxed);
        }
    }
}

/// Installs `sink` (in addition to any already installed) and returns
/// the guard that uninstalls it. The epoch is pinned on first install,
/// so timestamps are comparable across sinks.
pub fn add_sink(sink: Arc<dyn Sink>) -> SinkGuard {
    epoch();
    let id = NEXT_SINK_ID.fetch_add(1, Ordering::Relaxed);
    let mut reg = registry().write().expect("sink registry");
    reg.push((id, sink));
    ENABLED.store(true, Ordering::Relaxed);
    SinkGuard { id }
}

/// Serialises test sections that install sinks and assert on what they
/// collected — the registry is process-global, so concurrently running
/// tests would otherwise see each other's events.
pub fn exclusive() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Scoped RAII span. Opened by [`span`] / [`span_with`]; emits the close
/// event (and pops the per-thread nesting stack) on drop. Deliberately
/// `!Send`: a span measures a scope on the thread that opened it.
pub struct Span {
    meta: Option<SpanMeta>,
    _not_send: PhantomData<*const ()>,
}

impl Span {
    /// The span id, when observability was enabled at open.
    pub fn id(&self) -> Option<u64> {
        self.meta.as_ref().map(|m| m.id)
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(meta) = self.meta.take() {
            SPAN_STACK.with(|s| {
                let mut s = s.borrow_mut();
                if s.last() == Some(&meta.id) {
                    s.pop();
                }
            });
            let close_ns = now_ns();
            dispatch(|sink| sink.span_close(&meta, close_ns));
        }
    }
}

fn open_span(name: &'static str, label: String) -> Span {
    let tid = thread_id();
    let meta = SPAN_STACK.with(|s| {
        let mut s = s.borrow_mut();
        let meta = SpanMeta {
            id: NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed),
            parent: s.last().copied(),
            name,
            label,
            open_ns: now_ns(),
            tid,
        };
        s.push(meta.id);
        meta
    });
    dispatch(|sink| sink.span_open(&meta));
    Span {
        meta: Some(meta),
        _not_send: PhantomData,
    }
}

/// Opens a span named `name`, nested under the thread's innermost open
/// span. No-op (and no allocation) when no sink is installed.
#[inline]
pub fn span(name: &'static str) -> Span {
    span_with(name, String::new)
}

/// Opens a span with an instance label (a config label, a function
/// name). The label is only *computed* when a sink is installed, so an
/// uninstrumented run renders none.
#[inline]
pub fn span_with(name: &'static str, label: impl FnOnce() -> String) -> Span {
    if !enabled() {
        return Span {
            meta: None,
            _not_send: PhantomData,
        };
    }
    open_span(name, label())
}

/// Increments counter `name` by `delta`. Counters aggregate by name
/// across the whole process (the in-memory collector sums them).
#[inline]
pub fn counter(name: &'static str, delta: u64) {
    if !enabled() {
        return;
    }
    let (t, tid) = (now_ns(), thread_id());
    dispatch(|sink| sink.counter(name, delta, t, tid));
}

/// Emits a progress event: `done` of `total` items, plus a free-form
/// detail string (typically `"x.y points/s"`).
#[inline]
pub fn progress(done: u64, total: u64, detail: &str) {
    if !enabled() {
        return;
    }
    let (t, tid) = (now_ns(), thread_id());
    dispatch(|sink| sink.progress(done, total, detail, t, tid));
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::Ordering;
    use std::sync::Arc;

    /// The disabled fast path must never reach the dispatch layer: the
    /// cfg-gated [`DISPATCH_ENTRIES`] counter stays frozen across
    /// thousands of hook calls with no sink installed.
    #[test]
    fn disabled_hooks_never_dispatch() {
        let _x = exclusive();
        assert!(!enabled());
        let before = DISPATCH_ENTRIES.load(Ordering::Relaxed);
        for i in 0..1000 {
            let _s = span("noop");
            let _l = span_with("noop-labeled", || unreachable!("label must stay lazy"));
            counter("c", i);
            progress(i, 1000, "detail");
        }
        assert_eq!(
            DISPATCH_ENTRIES.load(Ordering::Relaxed),
            before,
            "no sink installed ⇒ zero dispatch entries"
        );
    }

    #[test]
    fn sinks_stack_and_uninstall() {
        let _x = exclusive();
        let a = Arc::new(collector::MemorySink::default());
        let b = Arc::new(collector::MemorySink::default());
        let ga = add_sink(a.clone());
        counter("k", 1);
        {
            let _gb = add_sink(b.clone());
            counter("k", 2);
        }
        counter("k", 4);
        drop(ga);
        assert!(!enabled());
        counter("k", 8); // Dropped on the floor.
        assert_eq!(a.counter_total("k"), 7);
        assert_eq!(b.counter_total("k"), 2);
    }

    #[test]
    fn span_nesting_and_cross_thread_roots() {
        let _x = exclusive();
        let sink = Arc::new(collector::MemorySink::default());
        let guard = add_sink(sink.clone());
        {
            let outer = span("outer");
            let outer_id = outer.id().unwrap();
            {
                let inner = span_with("inner", || "first".to_string());
                assert_eq!(
                    sink.spans()
                        .iter()
                        .find(|s| s.id == inner.id().unwrap())
                        .unwrap()
                        .parent,
                    Some(outer_id)
                );
            }
            // A span opened on another thread is a root (no parent) with
            // its own thread id.
            std::thread::scope(|scope| {
                scope.spawn(|| {
                    let _worker = span("worker");
                });
            });
        }
        drop(guard);
        let spans = sink.spans();
        assert_eq!(spans.len(), 3);
        let worker = spans.iter().find(|s| s.name == "worker").unwrap();
        assert_eq!(worker.parent, None);
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        assert_ne!(worker.tid, outer.tid);
        assert!(sink.validate().is_ok());
    }
}
