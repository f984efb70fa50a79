//! In-memory spans recorded around calls into each layer.
//!
//! A span carries its name, start and end (nanoseconds since the process's
//! trace epoch), the span that was open on the same thread when it began
//! (its parent) and the request it belongs to. Spans stay in per-thread
//! buffers until [`take`] drains them; nothing is written while measuring.
//! With tracing off, [`span`] costs one relaxed load.

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static SPANS: RefCell<Vec<Span>> = const { RefCell::new(Vec::new()) };
    static OPEN: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Unique across threads.
    pub id: u64,
    /// The span open on this thread when this one began.
    pub parent: Option<u64>,
    /// Layer-qualified name, e.g. `net.roundtrip`.
    pub name: &'static str,
    /// Request the span belongs to (0 for work outside any request).
    pub request: u64,
    /// Nanoseconds since the trace epoch.
    pub start_ns: u64,
    /// Nanoseconds since the trace epoch.
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Turns recording on or off for every thread.
pub fn set_enabled(on: bool) {
    now_ns();
    ENABLED.store(on, Ordering::SeqCst);
}

pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Records a span from now until the guard drops; `None` when tracing is off.
pub fn span(name: &'static str, request: u64) -> Option<Guard> {
    if !enabled() {
        return None;
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = OPEN.with(|open| {
        let mut open = open.borrow_mut();
        let parent = open.last().copied();
        open.push(id);
        parent
    });
    Some(Guard { id, parent, name, request, start_ns: now_ns() })
}

/// An open span; recorded when dropped.
pub struct Guard {
    id: u64,
    parent: Option<u64>,
    name: &'static str,
    request: u64,
    start_ns: u64,
}

impl Drop for Guard {
    fn drop(&mut self) {
        let end_ns = now_ns();
        OPEN.with(|open| {
            let mut open = open.borrow_mut();
            if let Some(at) = open.iter().rposition(|&id| id == self.id) {
                open.remove(at);
            }
        });
        let span = Span {
            id: self.id,
            parent: self.parent,
            name: self.name,
            request: self.request,
            start_ns: self.start_ns,
            end_ns,
        };
        SPANS.with(|spans| spans.borrow_mut().push(span));
    }
}

/// Drains the spans this thread recorded.
pub fn take() -> Vec<Span> {
    SPANS.with(|spans| std::mem::take(&mut *spans.borrow_mut()))
}

/// Each span's self time: its duration minus the part of its interval that
/// its children cover (overlapping children are counted once, and a child
/// reaching outside its parent only counts inside it). Keyed by span id.
pub fn self_times(spans: &[Span]) -> HashMap<u64, u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for span in spans {
        if let Some(parent) = span.parent {
            children.entry(parent).or_default().push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .map(|span| {
            let mut covered = 0;
            if let Some(kids) = children.get_mut(&span.id) {
                kids.sort_unstable();
                let mut reach = span.start_ns;
                for &(start, end) in kids.iter() {
                    let (start, end) = (start.max(reach), end.min(span.end_ns));
                    if end > start {
                        covered += end - start;
                        reach = end;
                    }
                }
            }
            (span.id, span.duration_ns() - covered)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, start_ns: u64, end_ns: u64) -> Span {
        Span { id, parent, name: "t", request: 0, start_ns, end_ns }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span(1, None, 0, 100),
            // Two overlapping children covering [10, 50): 40 ns.
            span(2, Some(1), 10, 40),
            span(3, Some(1), 30, 50),
            // A disjoint child [60, 70) and one leaking past the parent's end.
            span(4, Some(1), 60, 70),
            span(5, Some(1), 95, 130),
            // A grandchild only reduces its own parent.
            span(6, Some(2), 15, 25),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[&1], 100 - 40 - 10 - 5);
        assert_eq!(selfs[&2], 30 - 10);
        assert_eq!(selfs[&3], 20);
        assert_eq!(selfs[&6], 10);
    }

    #[test]
    fn guards_nest_and_record_parents() {
        set_enabled(true);
        {
            let _outer = super::span("outer", 7);
            let _inner = super::span("inner", 7);
        }
        set_enabled(false);
        assert!(super::span("off", 0).is_none());
        let spans = take();
        assert_eq!(spans.len(), 2);
        let (inner, outer) = (&spans[0], &spans[1]);
        assert_eq!((inner.name, outer.name), ("inner", "outer"));
        assert_eq!(inner.parent, Some(outer.id));
        assert_eq!(outer.parent, None);
        assert!(outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns);
        assert_eq!(inner.request, 7);
    }
}
