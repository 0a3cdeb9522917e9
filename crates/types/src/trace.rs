//! Distributed-tracing context that travels *with* events.
//!
//! The tracer itself (span recording, sampling, the `/tracez` ring)
//! lives in `sdci-obs::trace`; this module holds only the vocabulary
//! that must cross crate and process boundaries: [`TraceContext`], the
//! causal link serialized onto [`FileEvent`](crate::FileEvent)s and
//! wire frames. The net layer reads it off a generic payload through
//! the event the payload holds ([`BinPayload::event`]).
//!
//! [`BinPayload::event`]: crate::bin::BinPayload::event
//!
//! A context is three words: the trace id (shared by every span of one
//! end-to-end story), the span id of the *producing* span (which the
//! next hop adopts as its parent), and the head-sampling decision made
//! once at the root. Contexts are only ever attached to sampled
//! events, so `sampled` is carried mostly for forward compatibility
//! with tail-based schemes.

/// The causal link one pipeline hop hands to the next.
///
/// Carried as 17 fixed bytes inside a frame or an event member
/// ([`crate::bin::put_trace`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceContext {
    /// Identifier shared by every span of one end-to-end trace.
    pub trace_id: u64,
    /// Span id of the producing span: the parent of whatever span the
    /// receiving hop records.
    pub parent_span_id: u64,
    /// The head-sampling decision made at the trace root.
    pub sampled: bool,
}

impl TraceContext {
    /// A sampled context parented at (`trace_id`, `parent_span_id`).
    pub fn sampled(trace_id: u64, parent_span_id: u64) -> TraceContext {
        TraceContext { trace_id, parent_span_id, sampled: true }
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn plain_payloads_carry_nothing() {
        use crate::bin::BinPayload;
        assert_eq!(7u64.event().and_then(|e| e.trace), None);
        assert_eq!(String::from("x").event().and_then(|e| e.trace), None);
    }
}
