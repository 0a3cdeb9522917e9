//! A sampling, process-local span recorder for distributed traces.
//!
//! Each process records [`Span`]s into a fixed-size ring of slots (a
//! "lock-free-ish" ring: an atomic cursor claims a slot, a per-slot
//! mutex guards the short write), so tracing never allocates unbounded
//! memory and never blocks the pipeline on a reader. Cross-process
//! causality travels *with the data*: the pipeline serializes a
//! `TraceContext` (defined in `sdci-types`, since this crate sits
//! below it) onto events and wire frames, and each hop opens its span
//! with [`child_of`] using the carried ids. Within a process, spans
//! nest through a thread-local current context — [`child`] parents
//! itself automatically, so e.g. store-middleware layers need no
//! plumbing to appear under the aggregator's ingest span.
//!
//! # Sampling
//!
//! Head-based: [`root`] samples every Nth trace per thread (set via
//! [`set_sample_every`], `0` disables tracing entirely and makes every
//! guard inert; the tick is thread-local so the per-event decision
//! never touches a shared cache line). Only sampled roots propagate context; unsampled
//! roots are still *timed*, feeding a small tail-capture buffer of the
//! slowest root spans — so a latency outlier is visible on `/tracez`
//! even when head sampling missed it (with root-only detail; full span
//! trees exist only for head-sampled traces).
//!
//! # Exposition
//!
//! [`render_tracez`] serializes the ring and the slow buffer as JSON;
//! the obs HTTP server serves it at `/tracez`. Ids render as 16-digit
//! hex strings so no JSON consumer has to worry about u64 precision.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// How many spans the per-process ring retains.
pub const RING_CAPACITY: usize = 4096;

/// How many slowest root spans the tail-capture buffer retains.
pub const SLOW_CAPACITY: usize = 32;

/// A span's identity: which trace it belongs to and its own id, plus
/// the head-sampling decision. This is the process-local twin of
/// `sdci_types::TraceContext` (which carries the *parent* id across a
/// hop); conversions happen at the call sites that bridge the two.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanContext {
    /// Identifier shared by every span of one end-to-end trace.
    pub trace_id: u64,
    /// This span's own id — the parent id of anything opened under it.
    pub span_id: u64,
    /// Whether the trace was head-sampled at its root.
    pub sampled: bool,
}

/// One recorded span, as it lands in the ring.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Trace this span belongs to.
    pub trace_id: u64,
    /// This span's id.
    pub span_id: u64,
    /// Parent span id; `0` for a root.
    pub parent_span_id: u64,
    /// Static operation name (`collector.extract`, `store_rpc.serve`...).
    pub name: &'static str,
    /// Free-form annotation (cache hit/miss, batch size...).
    pub detail: String,
    /// Wall-clock start, nanoseconds since the UNIX epoch.
    pub start_unix_ns: u64,
    /// Span duration in nanoseconds.
    pub duration_ns: u64,
}

// ---------------------------------------------------------------------------
// Globals
// ---------------------------------------------------------------------------

static SAMPLE_EVERY: AtomicU64 = AtomicU64::new(0);
static ID_COUNTER: AtomicU64 = AtomicU64::new(0);
static SLOW_FLOOR: AtomicU64 = AtomicU64::new(0);

fn process_name() -> &'static Mutex<String> {
    static NAME: OnceLock<Mutex<String>> = OnceLock::new();
    NAME.get_or_init(|| Mutex::new(String::new()))
}

struct Ring {
    slots: Vec<Mutex<Option<Span>>>,
    cursor: AtomicUsize,
}

fn ring() -> &'static Ring {
    static RING: OnceLock<Ring> = OnceLock::new();
    RING.get_or_init(|| Ring {
        slots: (0..RING_CAPACITY).map(|_| Mutex::new(None)).collect(),
        cursor: AtomicUsize::new(0),
    })
}

fn slow_buffer() -> &'static Mutex<Vec<Span>> {
    static SLOW: OnceLock<Mutex<Vec<Span>>> = OnceLock::new();
    SLOW.get_or_init(|| Mutex::new(Vec::new()))
}

thread_local! {
    static CURRENT: std::cell::Cell<Option<SpanContext>> = const { std::cell::Cell::new(None) };
    // Head-sampling tick, kept per thread so the every-event sampling
    // decision is a plain cell bump instead of a fetch_add on a cache
    // line shared by every extraction thread. Each long-lived thread
    // still samples exactly one root in N.
    static HEAD_TICK: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Enables tracing, sampling one trace root in every `n` (`1` samples
/// everything, `0` disables tracing and makes every guard inert).
pub fn set_sample_every(n: u64) {
    SAMPLE_EVERY.store(n, Ordering::Relaxed);
}

/// The current head-sampling rate (`0` = tracing disabled).
pub fn sample_every() -> u64 {
    SAMPLE_EVERY.load(Ordering::Relaxed)
}

/// Reads the `SDCI_TRACE_SAMPLE` environment variable (`N` or `1/N`)
/// and enables sampling accordingly; absent or malformed leaves
/// tracing as it was.
pub fn init_from_env() {
    if let Ok(raw) = std::env::var("SDCI_TRACE_SAMPLE") {
        let n = raw.trim();
        let n = n.strip_prefix("1/").unwrap_or(n);
        if let Ok(n) = n.parse::<u64>() {
            set_sample_every(n);
        }
    }
}

/// Names this process on `/tracez` output (`collector`, `aggregator`...).
pub fn set_process(name: impl Into<String>) {
    *process_name().lock().unwrap_or_else(|e| e.into_inner()) = name.into();
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A fresh nonzero id, unique enough across processes: a splitmix64
/// stream seeded from the wall clock and pid at first use.
fn next_id() -> u64 {
    static SEED: OnceLock<u64> = OnceLock::new();
    let seed =
        *SEED.get_or_init(|| (crate::unix_now_ns() ^ (u64::from(std::process::id()) << 32)) | 1);
    let n = ID_COUNTER.fetch_add(1, Ordering::Relaxed);
    splitmix64(seed.wrapping_add(n)).max(1)
}

/// The context of the innermost live sampled span on this thread, if
/// any — what a span opened right now would have as its parent, and
/// what gets serialized onto outbound RPCs.
pub fn current() -> Option<SpanContext> {
    CURRENT.with(|c| c.get())
}

// ---------------------------------------------------------------------------
// Guards
// ---------------------------------------------------------------------------

struct LiveSpan {
    ctx: SpanContext,
    parent_span_id: u64,
    name: &'static str,
    detail: String,
    start: Instant,
    prev: Option<SpanContext>,
    is_root: bool,
}

/// An open span; recording happens on drop. Inert guards (tracing
/// disabled, or no sampled parent for [`child`]) cost nothing.
pub struct SpanGuard {
    live: Option<LiveSpan>,
}

impl SpanGuard {
    const INERT: SpanGuard = SpanGuard { live: None };

    fn open(
        trace_id: u64,
        parent_span_id: u64,
        sampled: bool,
        name: &'static str,
        is_root: bool,
    ) -> SpanGuard {
        // A root reuses its (freshly minted) trace id as its span id —
        // still unique, and one fewer contended atomic on the
        // every-event head-sampling path. An *unsampled* root arrives
        // with `trace_id == 0`: its ids are minted lazily on drop, and
        // only if it proves slow enough for tail capture.
        let span_id = if is_root { trace_id } else { next_id() };
        let ctx = SpanContext { trace_id, span_id, sampled };
        // Only sampled spans become the thread's current context:
        // children of an unsampled (tail-timed) root stay inert, and
        // drop never restores `prev` for them either.
        let prev = if sampled { CURRENT.with(|c| c.replace(Some(ctx))) } else { None };
        SpanGuard {
            live: Some(LiveSpan {
                ctx,
                parent_span_id,
                name,
                detail: String::new(),
                start: Instant::now(),
                prev,
                is_root,
            }),
        }
    }

    /// The opened span's context, for attaching to outbound payloads —
    /// `None` when the guard is inert or the trace is unsampled.
    pub fn context(&self) -> Option<SpanContext> {
        self.live.as_ref().map(|l| l.ctx).filter(|c| c.sampled)
    }

    /// Annotates the span (hit/miss, batch size...). `detail`
    /// runs only on a sampled span: an inert guard, and an unsampled
    /// root that is live only to be timed for tail capture, format
    /// nothing — so a per-event call site allocates nothing for the
    /// N-1 of every N roots that are not recorded.
    pub fn set_detail(&mut self, detail: impl FnOnce() -> String) {
        if let Some(live) = self.live.as_mut().filter(|l| l.ctx.sampled) {
            live.detail = detail();
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(live) = self.live.take() else { return };
        if live.ctx.sampled {
            CURRENT.with(|c| c.set(live.prev));
        }
        let duration_ns = u64::try_from(live.start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        // Unsampled roots exist only to feed tail capture; when they
        // beat the slow floor there is nothing to record at all, so
        // skip building the span (and its wall-clock read) entirely —
        // this is the head-sampled hot path, N-1 of every N roots.
        if !live.ctx.sampled && (!live.is_root || duration_ns <= SLOW_FLOOR.load(Ordering::Relaxed))
        {
            return;
        }
        // An unsampled root deferred its id mint to here — the one
        // case that reaches this point is a tail-capture candidate.
        let (trace_id, span_id) = if live.ctx.trace_id == 0 {
            let id = next_id();
            (id, id)
        } else {
            (live.ctx.trace_id, live.ctx.span_id)
        };
        let span = Span {
            trace_id,
            span_id,
            parent_span_id: live.parent_span_id,
            name: live.name,
            detail: live.detail,
            start_unix_ns: crate::unix_now_ns().saturating_sub(duration_ns),
            duration_ns,
        };
        if live.is_root {
            record_slow(&span);
        }
        if live.ctx.sampled {
            record(span);
        }
    }
}

fn record(span: Span) {
    let ring = ring();
    let slot = ring.cursor.fetch_add(1, Ordering::Relaxed) % ring.slots.len();
    *ring.slots[slot].lock().unwrap_or_else(|e| e.into_inner()) = Some(span);
}

/// Tail capture: keep the `SLOW_CAPACITY` slowest root spans seen so
/// far. The atomic floor makes the common case (span faster than the
/// slowest retained) a single load, no lock.
fn record_slow(span: &Span) {
    if span.duration_ns <= SLOW_FLOOR.load(Ordering::Relaxed) {
        return;
    }
    let mut slow = slow_buffer().lock().unwrap_or_else(|e| e.into_inner());
    if slow.len() >= SLOW_CAPACITY {
        // Replace the current fastest entry, then re-derive the floor.
        if let Some(idx) = (0..slow.len())
            .min_by_key(|&i| slow[i].duration_ns)
            .filter(|&i| slow[i].duration_ns < span.duration_ns)
        {
            slow[idx] = span.clone();
        } else {
            return;
        }
    } else {
        slow.push(span.clone());
    }
    if slow.len() >= SLOW_CAPACITY {
        let floor = slow.iter().map(|s| s.duration_ns).min().unwrap_or(0);
        SLOW_FLOOR.store(floor, Ordering::Relaxed);
    }
}

/// Opens a trace root, applying head sampling. With sampling disabled
/// the guard is fully inert; with sampling on, every root is timed
/// (for tail capture) but only every Nth propagates context and
/// records its tree.
pub fn root(name: &'static str) -> SpanGuard {
    let every = SAMPLE_EVERY.load(Ordering::Relaxed);
    if every == 0 {
        return SpanGuard::INERT;
    }
    let sampled = HEAD_TICK
        .with(|c| {
            let n = c.get();
            c.set(n.wrapping_add(1));
            n
        })
        .is_multiple_of(every);
    // Unsampled roots are timed but almost never recorded; they get
    // ids on drop iff they prove slow, so N-1 of every N roots skip
    // the id counter entirely.
    let trace_id = if sampled { next_id() } else { 0 };
    SpanGuard::open(trace_id, 0, sampled, name, true)
}

/// Opens a span under the thread's current context; inert when there
/// is none (so unsampled paths cost one thread-local read).
pub fn child(name: &'static str) -> SpanGuard {
    match current() {
        Some(parent) if parent.sampled => {
            SpanGuard::open(parent.trace_id, parent.span_id, true, name, false)
        }
        _ => SpanGuard::INERT,
    }
}

/// Opens a span under an explicitly carried parent — the receive side
/// of a process boundary, where the parent arrived inside a payload.
/// Inert when tracing is disabled in *this* process (a peer's sampling
/// decision cannot force a process that opted out to record).
pub fn child_of(trace_id: u64, parent_span_id: u64, name: &'static str) -> SpanGuard {
    if SAMPLE_EVERY.load(Ordering::Relaxed) == 0 {
        return SpanGuard::INERT;
    }
    SpanGuard::open(trace_id, parent_span_id, true, name, false)
}

// ---------------------------------------------------------------------------
// Exposition
// ---------------------------------------------------------------------------

/// Every span currently retained in the ring (arbitrary order).
pub fn snapshot() -> Vec<Span> {
    ring()
        .slots
        .iter()
        .filter_map(|slot| slot.lock().unwrap_or_else(|e| e.into_inner()).clone())
        .collect()
}

/// The tail-capture buffer: the slowest root spans seen so far.
pub fn slow_snapshot() -> Vec<Span> {
    slow_buffer().lock().unwrap_or_else(|e| e.into_inner()).clone()
}

fn escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
}

fn span_json(out: &mut String, span: &Span) {
    out.push_str(&format!(
        "{{\"trace_id\":\"{:016x}\",\"span_id\":\"{:016x}\",\"parent_span_id\":\"{:016x}\",\
         \"name\":\"{}\",\"detail\":\"",
        span.trace_id, span.span_id, span.parent_span_id, span.name
    ));
    escape_into(out, &span.detail);
    out.push_str(&format!(
        "\",\"start_unix_ns\":{},\"duration_ns\":{}}}",
        span.start_unix_ns, span.duration_ns
    ));
}

/// Serializes the ring and slow buffer as the `/tracez` JSON document:
/// `{"process", "sample_every", "spans": [...], "slow": [...]}` with
/// ids as 16-digit hex strings.
pub fn render_tracez() -> String {
    let mut out = String::with_capacity(16 * 1024);
    out.push_str("{\"process\":\"");
    escape_into(&mut out, &process_name().lock().unwrap_or_else(|e| e.into_inner()));
    out.push_str(&format!("\",\"sample_every\":{},\"spans\":[", sample_every()));
    for (i, span) in snapshot().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        span_json(&mut out, span);
    }
    out.push_str("],\"slow\":[");
    for (i, span) in slow_snapshot().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        span_json(&mut out, span);
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
pub(crate) mod test_support {
    //! The sample rate is process-global; unit tests across modules
    //! serialize their mutations through this one lock.
    use std::sync::Mutex;

    pub(crate) fn rate_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Tracing state is process-global and tests run in parallel:
    // every test that touches the sample rate holds this lock, and
    // assertions filter by the ids they created rather than assuming
    // an empty ring.
    use crate::trace::test_support::rate_lock;

    #[test]
    fn disabled_tracer_is_inert() {
        let _l = rate_lock();
        set_sample_every(0);
        let g = root("test.inert");
        assert!(g.context().is_none());
        drop(g);
        assert!(child("test.inert.child").context().is_none());
    }

    #[test]
    fn detail_closure_runs_only_on_a_sampled_span() {
        let _l = rate_lock();
        set_sample_every(0);
        root("test.lazy.inert").set_detail(|| unreachable!("an inert guard formats nothing"));
        child("test.lazy.orphan").set_detail(|| unreachable!("nor does a child of nothing"));

        // At 1/2 one of two consecutive roots is live but unsampled
        // (timed for tail capture only): it formats nothing either.
        set_sample_every(2);
        for _ in 0..2 {
            let mut g = root("test.lazy.head");
            if g.context().is_none() {
                g.set_detail(|| unreachable!("an unsampled root formats nothing"));
            }
        }

        set_sample_every(1);
        let mut g = root("test.lazy.live");
        let ctx = g.context().expect("1/1 sampling samples everything");
        g.set_detail(|| format!("built {}", 1 + 1));
        drop(g);
        let span = snapshot().into_iter().find(|s| s.span_id == ctx.span_id).expect("in ring");
        assert_eq!(span.detail, "built 2");
    }

    #[test]
    fn sampled_root_records_and_nests_children() {
        let _l = rate_lock();
        set_sample_every(1);
        let (root_ctx, child_ctx) = {
            let mut g = root("test.root");
            g.set_detail(|| "outer".into());
            let root_ctx = g.context().expect("1/1 sampling samples everything");
            assert_eq!(current(), Some(root_ctx), "root becomes the thread current");
            let c = child("test.child");
            let child_ctx = c.context().expect("child of a sampled span is sampled");
            assert_eq!(child_ctx.trace_id, root_ctx.trace_id);
            drop(c);
            (root_ctx, child_ctx)
        };
        assert_eq!(current(), None, "guard drop restores the previous context");

        let spans = snapshot();
        let rec_root = spans.iter().find(|s| s.span_id == root_ctx.span_id).expect("root in ring");
        let rec_child =
            spans.iter().find(|s| s.span_id == child_ctx.span_id).expect("child in ring");
        assert_eq!(rec_root.parent_span_id, 0);
        assert_eq!(rec_root.detail, "outer");
        assert_eq!(rec_child.parent_span_id, root_ctx.span_id);
        assert_eq!(rec_child.trace_id, rec_root.trace_id);
    }

    #[test]
    fn child_of_adopts_the_carried_parent() {
        let _l = rate_lock();
        set_sample_every(1);
        let g = child_of(0xabcd, 0x1234, "test.remote");
        let ctx = g.context().unwrap();
        drop(g);
        let span = snapshot().into_iter().find(|s| s.span_id == ctx.span_id).unwrap();
        assert_eq!(span.trace_id, 0xabcd);
        assert_eq!(span.parent_span_id, 0x1234);
    }

    #[test]
    fn head_sampling_takes_every_nth() {
        let _l = rate_lock();
        set_sample_every(1);
        // With N=1 every root must sample, regardless of where the
        // shared counter sits when this test runs.
        for _ in 0..5 {
            assert!(root("test.every").context().is_some());
        }
    }

    #[test]
    fn unsampled_roots_feed_tail_capture() {
        let _l = rate_lock();
        set_sample_every(u64::MAX); // effectively: time roots, sample none (almost)
        let slow_before = slow_snapshot().len();
        {
            let _g = root("test.slow");
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let slow = slow_snapshot();
        assert!(
            slow.len() > slow_before || slow.iter().any(|s| s.name == "test.slow"),
            "a 2ms root should enter a buffer of sub-ms test spans"
        );
    }

    #[test]
    fn tracez_renders_valid_shaped_json() {
        let _l = rate_lock();
        set_sample_every(1);
        set_process("obs-test");
        drop(root("test.render"));
        let json = render_tracez();
        assert!(json.starts_with("{\"process\":"));
        assert!(json.contains("\"sample_every\":"));
        assert!(json.contains("\"spans\":["));
        assert!(json.contains("\"slow\":["));
        assert!(json.ends_with("]}"));
    }

    #[test]
    fn escape_handles_quotes_and_control_chars() {
        let mut out = String::new();
        escape_into(&mut out, "a\"b\\c\nd\u{1}");
        assert_eq!(out, "a\\\"b\\\\c\\nd\\u0001");
    }
}
