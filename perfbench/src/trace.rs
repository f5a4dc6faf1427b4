//! In-memory span recorder for the traced run.
//!
//! Every traced call into a layer opens a span on the calling thread's
//! own stack and closes it when the call returns; a span records its
//! layer, start, end and the enclosing traced span (its parent). Spans
//! stay in a per-thread buffer. Whenever a thread's stack empties and
//! its buffer is large, and again when the thread exits, the buffer is
//! folded into per-layer totals: call count and self time (duration
//! minus the time covered by child spans, so `storage.apply`
//! excludes the `dvv.write` nested inside it). [`collect`] gathers the
//! folded totals of every thread that has exited plus the calling one;
//! the run writes them out as the per-layer metrics when it ends.

use std::cell::RefCell;
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// A traced layer boundary.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    DvvWrite,
    DvvMerge,
    DvvRead,
    DvvMergeContexts,
    DvvEncodeState,
    DvvDecodeState,
    StorageApply,
    StorageApplySync,
    StorageReservation,
    MsgEncode,
    MsgDecode,
    FrameWrite,
    FrameRead,
}

/// Number of layers, the size of [`Totals`].
const LAYERS: usize = Layer::FrameRead as usize + 1;

/// Folded totals of one layer.
#[derive(Clone, Copy, Debug, Default)]
pub struct Stat {
    pub calls: u64,
    pub self_ns: u64,
}

impl Stat {
    /// Mean self time per call in ns (0 without calls).
    pub fn mean_self_ns(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.self_ns as f64 / self.calls as f64
        }
    }
}

/// Folded totals of every layer.
#[derive(Clone, Copy, Debug, Default)]
pub struct Totals([Stat; LAYERS]);

impl Totals {
    pub fn get(&self, layer: Layer) -> Stat {
        self.0[layer as usize]
    }

    pub fn absorb(&mut self, other: &Totals) {
        for (a, b) in self.0.iter_mut().zip(other.0.iter()) {
            a.calls += b.calls;
            a.self_ns += b.self_ns;
        }
    }
}

const NO_PARENT: u32 = u32::MAX;
/// Buffered spans a thread folds once its stack is empty.
const FOLD_AT: usize = 1 << 14;

#[derive(Clone, Copy, Debug)]
struct Span {
    start: u64,
    end: u64,
    parent: u32,
    layer: Layer,
}

struct Local {
    stack: Vec<u32>,
    spans: Vec<Span>,
    totals: Totals,
}

impl Local {
    fn fold(&mut self) {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                child_ns[s.parent as usize] += s.end - s.start;
            }
        }
        for (s, child) in self.spans.iter().zip(child_ns) {
            let stat = &mut self.totals.0[s.layer as usize];
            let dur = s.end - s.start;
            stat.calls += 1;
            stat.self_ns += dur.saturating_sub(child);
        }
        self.spans.clear();
    }

    /// Folds what is buffered and hands the totals to the global store.
    fn publish(&mut self) {
        self.fold();
        GLOBAL
            .lock()
            .expect("span totals poisoned")
            .absorb(&self.totals);
        self.totals = Totals::default();
    }
}

impl Drop for Local {
    fn drop(&mut self) {
        self.publish();
    }
}

static GLOBAL: Mutex<Totals> = Mutex::new(Totals(
    [Stat {
        calls: 0,
        self_ns: 0,
    }; LAYERS],
));

thread_local! {
    static LOCAL: RefCell<Local> = RefCell::new(Local {
        stack: Vec::new(),
        spans: Vec::new(),
        totals: Totals::default(),
    });
}

fn now_ns() -> u64 {
    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    ORIGIN.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// An open span; close it with [`exit`].
#[must_use]
pub struct Open(u32);

/// Opens a span on this thread; its layer is named when it closes.
pub fn enter() -> Open {
    LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        let idx = l.spans.len() as u32;
        let parent = l.stack.last().copied().unwrap_or(NO_PARENT);
        l.spans.push(Span {
            start: now_ns(),
            end: 0,
            parent,
            layer: Layer::DvvRead,
        });
        l.stack.push(idx);
        Open(idx)
    })
}

/// Closes `open` as a span of `layer`.
pub fn exit(open: Open, layer: Layer) {
    let end = now_ns();
    LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        let popped = l.stack.pop();
        debug_assert_eq!(popped, Some(open.0), "spans close in stack order");
        let span = &mut l.spans[open.0 as usize];
        span.end = end;
        span.layer = layer;
        if l.stack.is_empty() && l.spans.len() >= FOLD_AT {
            l.fold();
        }
    });
}

/// Runs `f` inside a span of `layer`.
pub fn span<R>(layer: Layer, f: impl FnOnce() -> R) -> R {
    let open = enter();
    let out = f();
    exit(open, layer);
    out
}

/// Takes (and resets) the totals of every exited thread plus this one.
pub fn collect() -> Totals {
    LOCAL.with(|l| l.borrow_mut().publish());
    std::mem::take(&mut *GLOBAL.lock().expect("span totals poisoned"))
}
