//! Traced wrappers around the layers' public seams: a [`Mechanism`] /
//! [`WireMechanism`] that forwards to [`DvvMechanism`] inside spans, and
//! a [`StorageEngine`] that forwards to a [`LogEngine`] inside spans and
//! keeps that log's counters where the benchmark can read them after
//! the fleet has taken ownership of the engine.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use dvv::encode::{varint_len, Decoder, Encode};
use dvv::mechanisms::{DvvMechanism, Mechanism, WireMechanism, WriteOrigin};
use dvv::{DecodeError, ReplicaId, VersionVector};
use kvstore::value::StampedValue;
use storage::{Key, LogEngine, StorageEngine};

use crate::trace::{self, Layer};

/// The per-key state both mechanisms store.
pub type DvvState = <DvvMechanism as Mechanism<StampedValue>>::State;

/// [`DvvMechanism`] with every protocol call timed as a span.
#[derive(Clone, Copy, Debug, Default)]
pub struct TracedDvv;

impl Mechanism<StampedValue> for TracedDvv {
    type State = DvvState;
    type Context = VersionVector<ReplicaId>;

    fn name(&self) -> &'static str {
        "dvv"
    }

    fn read(&self, state: &Self::State) -> (Vec<StampedValue>, Self::Context) {
        trace::span(Layer::DvvRead, || DvvMechanism.read(state))
    }

    fn write(
        &self,
        state: &mut Self::State,
        origin: WriteOrigin,
        ctx: &Self::Context,
        value: StampedValue,
    ) {
        trace::span(Layer::DvvWrite, || {
            DvvMechanism.write(state, origin, ctx, value)
        });
    }

    fn write_with_floor(
        &self,
        state: &mut Self::State,
        origin: WriteOrigin,
        ctx: &Self::Context,
        value: StampedValue,
        floor: u64,
    ) -> Option<u64> {
        trace::span(Layer::DvvWrite, || {
            DvvMechanism.write_with_floor(state, origin, ctx, value, floor)
        })
    }

    fn dot_map(&self, state: &Self::State) -> Vec<((ReplicaId, u64), StampedValue)> {
        DvvMechanism.dot_map(state)
    }

    fn merge(&self, local: &mut Self::State, remote: &Self::State) {
        trace::span(Layer::DvvMerge, || DvvMechanism.merge(local, remote));
    }

    fn merge_contexts(&self, into: &mut Self::Context, from: &Self::Context) {
        trace::span(Layer::DvvMergeContexts, || {
            Mechanism::<StampedValue>::merge_contexts(&DvvMechanism, into, from)
        });
    }

    fn metadata_size(&self, state: &Self::State) -> usize {
        DvvMechanism.metadata_size(state)
    }

    fn context_size(&self, ctx: &Self::Context) -> usize {
        Mechanism::<StampedValue>::context_size(&DvvMechanism, ctx)
    }

    fn sibling_count(&self, state: &Self::State) -> usize {
        DvvMechanism.sibling_count(state)
    }
}

impl WireMechanism<StampedValue> for TracedDvv {
    fn encode_state(&self, state: &Self::State, buf: &mut Vec<u8>) {
        trace::span(Layer::DvvEncodeState, || {
            DvvMechanism.encode_state(state, buf)
        });
    }

    fn decode_state(&self, d: &mut Decoder<'_>) -> Result<Self::State, DecodeError> {
        trace::span(Layer::DvvDecodeState, || DvvMechanism.decode_state(d))
    }

    fn encode_context(&self, ctx: &Self::Context, buf: &mut Vec<u8>) {
        WireMechanism::<StampedValue>::encode_context(&DvvMechanism, ctx, buf);
    }

    fn decode_context(&self, d: &mut Decoder<'_>) -> Result<Self::Context, DecodeError> {
        WireMechanism::<StampedValue>::decode_context(&DvvMechanism, d)
    }
}

/// What a log engine says about its own log.
#[derive(Clone, Copy, Debug, Default)]
pub struct EngineCounters {
    pub syncs: u64,
    pub compactions: u64,
    pub durable_bytes: u64,
    pub pending_bytes: u64,
    pub live_bytes: u64,
}

impl EngineCounters {
    fn of<S: Clone + Send + 'static>(log: &LogEngine<S>) -> Self {
        let stats = log.stats();
        EngineCounters {
            syncs: stats.syncs,
            compactions: stats.compactions,
            durable_bytes: log.durable_bytes(),
            pending_bytes: log.pending_bytes() as u64,
            live_bytes: log.live_bytes(),
        }
    }
}

/// One server's storage counters, shared between its traced engine and
/// the benchmark. Every field is a statistic (relaxed atomics).
#[derive(Debug, Default)]
pub struct StorageProbe {
    /// `apply` calls.
    applies: AtomicU64,
    syncs: AtomicU64,
    compactions: AtomicU64,
    /// Record bytes appended to the log (buffered or written).
    appended: AtomicU64,
    /// Bytes compactions rewrote.
    rewritten: AtomicU64,
    durable: AtomicU64,
    live: AtomicU64,
}

/// A copy of a [`StorageProbe`].
#[derive(Clone, Copy, Debug, Default)]
pub struct StorageTally {
    pub applies: u64,
    pub syncs: u64,
    pub compactions: u64,
    pub appended: u64,
    pub rewritten: u64,
    pub durable: u64,
    pub live: u64,
}

impl StorageTally {
    pub fn absorb(&mut self, o: &StorageTally) {
        self.applies += o.applies;
        self.syncs += o.syncs;
        self.compactions += o.compactions;
        self.appended += o.appended;
        self.rewritten += o.rewritten;
        self.durable += o.durable;
        self.live += o.live;
    }
}

impl StorageProbe {
    pub fn tally(&self) -> StorageTally {
        let ld = |a: &AtomicU64| a.load(Ordering::Relaxed);
        StorageTally {
            applies: ld(&self.applies),
            syncs: ld(&self.syncs),
            compactions: ld(&self.compactions),
            appended: ld(&self.appended),
            rewritten: ld(&self.rewritten),
            durable: ld(&self.durable),
            live: ld(&self.live),
        }
    }

    /// Books one engine call that moved the counters from `before` to
    /// `after`. Bytes are booked as appended when they enter the log's
    /// buffer, so a call that only flushes changes `durable + pending`
    /// by exactly the record it added. A call that compacted replaced
    /// the file, so its record length comes from `record_len` and the
    /// rewritten file counts as rewrite traffic.
    fn book(
        &self,
        before: EngineCounters,
        after: EngineCounters,
        record_len: impl FnOnce() -> u64,
    ) {
        let appended = if after.compactions > before.compactions {
            self.rewritten
                .fetch_add(after.durable_bytes, Ordering::Relaxed);
            record_len()
        } else {
            (after.durable_bytes + after.pending_bytes)
                .saturating_sub(before.durable_bytes + before.pending_bytes)
        };
        self.appended.fetch_add(appended, Ordering::Relaxed);
        self.syncs.store(after.syncs, Ordering::Relaxed);
        self.compactions.store(after.compactions, Ordering::Relaxed);
        self.durable.store(after.durable_bytes, Ordering::Relaxed);
        self.live.store(after.live_bytes, Ordering::Relaxed);
    }
}

/// Framed length of a log record whose body is `body` bytes
/// (`varint(len) · body · u64 checksum`, see `storage::log`).
fn frame_len(body: usize) -> u64 {
    (varint_len(body as u64) + body + 8) as u64
}

fn keyed_body(key: &[u8]) -> usize {
    1 + varint_len(key.len() as u64) + key.len()
}

/// A log engine whose calls run inside spans and whose counters land
/// in a shared [`StorageProbe`].
pub struct TracedEngine<S> {
    inner: LogEngine<S>,
    probe: Arc<StorageProbe>,
}

impl<S> TracedEngine<S> {
    pub fn new(inner: LogEngine<S>, probe: Arc<StorageProbe>) -> Self {
        TracedEngine { inner, probe }
    }
}

impl<S> fmt::Debug for TracedEngine<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("TracedEngine").field(&self.inner).finish()
    }
}

impl<S> StorageEngine<S> for TracedEngine<S>
where
    S: Encode + Clone + Send + 'static,
{
    fn get(&self, key: &[u8]) -> Option<&S> {
        self.inner.get(key)
    }

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn apply(
        &mut self,
        key: &[u8],
        init: &mut dyn FnMut() -> S,
        mutate: &mut dyn FnMut(&mut S),
    ) -> &S {
        let before = EngineCounters::of(&self.inner);
        let open = trace::enter();
        self.inner.apply(key, init, mutate);
        let after = EngineCounters::of(&self.inner);
        let layer = if after.syncs > before.syncs {
            Layer::StorageApplySync
        } else {
            Layer::StorageApply
        };
        trace::exit(open, layer);
        self.probe.applies.fetch_add(1, Ordering::Relaxed);
        let state = self.inner.get(key).expect("an applied key is stored");
        self.probe.book(before, after, || {
            frame_len(keyed_body(key) + state.encoded_len())
        });
        state
    }

    fn remove(&mut self, key: &[u8]) -> bool {
        let before = EngineCounters::of(&self.inner);
        let removed = self.inner.remove(key);
        self.probe
            .book(before, EngineCounters::of(&self.inner), || {
                frame_len(keyed_body(key))
            });
        removed
    }

    fn clear(&mut self) {
        let before = EngineCounters::of(&self.inner);
        self.inner.clear();
        self.probe
            .book(before, EngineCounters::of(&self.inner), || frame_len(1));
    }

    fn iter(&self) -> Box<dyn Iterator<Item = (&Key, &S)> + '_> {
        self.inner.iter()
    }

    fn snapshot(&self) -> Box<dyn StorageEngine<S>> {
        self.inner.snapshot()
    }

    fn sync(&mut self) {
        let before = EngineCounters::of(&self.inner);
        self.inner.sync();
        self.probe
            .book(before, EngineCounters::of(&self.inner), || 0);
    }

    fn load_reservation(&self) -> Option<(u64, u64)> {
        self.inner.load_reservation()
    }

    fn store_reservation(&mut self, epoch: u64, ceiling: u64) {
        let before = EngineCounters::of(&self.inner);
        trace::span(Layer::StorageReservation, || {
            self.inner.store_reservation(epoch, ceiling)
        });
        self.probe
            .book(before, EngineCounters::of(&self.inner), || {
                storage::log::frame_meta(&mut Vec::new(), epoch, ceiling)
            });
    }

    fn kind(&self) -> &'static str {
        self.inner.kind()
    }
}
