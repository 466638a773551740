//! Outside-in tracing: wrapper types around the three protocol roles
//! that time every call the driver makes into a layer.
//!
//! Nothing inside `crates/` is instrumented. The wrappers forward every
//! trait the drivers need (`Site`, `Aggregator`, `Coordinator`, the churn
//! and snapshot traits) and, when `ON`, record one span per call. With
//! `ON = false` they are transparent newtypes whose forwarding inlines
//! away, so the untraced and the traced run execute the *same* driver
//! code and differ only in the recording.
//!
//! The drivers are sequential (`Runner`, `Executor::Inline`), so spans
//! never nest: every call span is a direct child of the enclosing
//! `ingest` span and their sum can never exceed it. A layer's totals
//! (calls, busy time, messages) are exact; the individual spans kept for
//! the `.jsonl` file are a bounded sample (the first [`KEEP_FIRST`] of
//! each kind, then every [`KEEP_EVERY`]-th), because `hh-p1-tree-seq`
//! alone makes ~2·10⁷ calls.

use std::cell::RefCell;
use std::io::Write;
use std::time::Instant;

use cma_stream::{
    Aggregator, BudgetShare, ChurnBudget, ChurnCoordinator, ChurnSite, Coordinator,
    MigratableAggregator, Site, SiteId, WireCodec, WireReader,
};

/// Spans of each kind kept verbatim before sampling starts.
const KEEP_FIRST: u64 = 1024;
/// After [`KEEP_FIRST`], one span in this many is kept.
const KEEP_EVERY: u64 = 1024;
/// Up-messages the coordinator wrapper keeps for the direct wire and
/// transport timings.
const CAPTURE_CAP: usize = 256;

/// The boundaries a span can sit on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Kind {
    Ingest,
    SiteObserve,
    SiteBroadcast,
    AggAbsorb,
    AggFlush,
    AggBroadcast,
    CoordReceive,
    CoordQuery,
    /// Churn control plane: `depart`, `rebudget`, migration, snapshot
    /// encode/decode of the root complex.
    Churn,
}

const KINDS: usize = 9;
const KIND_NAMES: [&str; KINDS] = [
    "ingest",
    "site.observe",
    "site.on_broadcast",
    "aggregator.absorb",
    "aggregator.flush",
    "aggregator.on_broadcast",
    "coordinator.receive",
    "coordinator.query",
    "churn.control",
];

/// Exact per-kind totals.
#[derive(Debug, Clone, Copy, Default)]
pub struct Totals {
    pub calls: u64,
    pub busy_ns: u64,
    /// Messages the calls produced (`out` growth) — up-messages for a
    /// site, forwarded messages for an aggregator flush, broadcasts for
    /// a coordinator receive.
    pub produced: u64,
}

impl Totals {
    pub fn busy_s(&self) -> f64 {
        self.busy_ns as f64 * 1e-9
    }
}

#[derive(Debug, Clone, Copy)]
struct Span {
    kind: Kind,
    id: u64,
    parent: u64,
    start_ns: u64,
    end_ns: u64,
}

struct Recorder {
    origin: Instant,
    totals: [Totals; KINDS],
    spans: Vec<Span>,
    next_id: u64,
    /// Id of the open `ingest` span, the parent of every call span.
    /// Calls made while none is open (the direct layer timings reuse the
    /// wrapped coordinator after the run) are not part of the run and
    /// are not recorded.
    ingest: Option<u64>,
}

impl Recorder {
    fn new() -> Self {
        Recorder {
            origin: Instant::now(),
            totals: [Totals::default(); KINDS],
            spans: Vec::new(),
            next_id: 1,
            ingest: None,
        }
    }

    fn fresh_id(&mut self) -> u64 {
        self.next_id += 1;
        self.next_id - 1
    }

    fn record_as(&mut self, id: u64, parent: u64, kind: Kind, t0: Instant, t1: Instant) {
        let t = &mut self.totals[kind as usize];
        t.calls += 1;
        t.busy_ns += (t1 - t0).as_nanos() as u64;
        if t.calls <= KEEP_FIRST || t.calls.is_multiple_of(KEEP_EVERY) {
            self.spans.push(Span {
                kind,
                id,
                parent,
                start_ns: (t0 - self.origin).as_nanos() as u64,
                end_ns: (t1 - self.origin).as_nanos() as u64,
            });
        }
    }
}

thread_local! {
    static REC: RefCell<Recorder> = RefCell::new(Recorder::new());
}

/// Records one call into a layer, with the messages it produced, as a
/// child of the open `ingest` span.
fn record_call(kind: Kind, t0: Instant, t1: Instant, produced: usize) {
    REC.with(|rec| {
        let mut rec = rec.borrow_mut();
        if let Some(parent) = rec.ingest {
            let id = rec.fresh_id();
            rec.record_as(id, parent, kind, t0, t1);
            rec.totals[kind as usize].produced += produced as u64;
        }
    });
}

/// Runs `f`; when `ON`, as one call span of `kind`.
#[inline]
fn call<const ON: bool, R>(kind: Kind, f: impl FnOnce() -> R) -> R {
    if !ON {
        return f();
    }
    let t0 = Instant::now();
    let r = f();
    record_call(kind, t0, Instant::now(), 0);
    r
}

/// [`call`] for a method that pushes messages onto `out`: the growth of
/// `out` is added to the kind's `produced` total.
#[inline]
fn emitting<const ON: bool, T>(kind: Kind, out: &mut Vec<T>, f: impl FnOnce(&mut Vec<T>)) {
    if !ON {
        return f(out);
    }
    let before = out.len();
    let t0 = Instant::now();
    f(out);
    record_call(kind, t0, Instant::now(), out.len() - before);
}

/// Runs `f` as one `ingest` span (when `ON`) and returns its result with
/// its wall time in seconds. Call spans recorded inside become its
/// children.
pub fn ingest<const ON: bool, R>(f: impl FnOnce() -> R) -> (R, f64) {
    if ON {
        // The id is taken before the children run so they can name it.
        REC.with(|rec| {
            let mut rec = rec.borrow_mut();
            let id = rec.fresh_id();
            rec.ingest = Some(id);
        });
    }
    let t0 = Instant::now();
    let r = f();
    let t1 = Instant::now();
    if ON {
        REC.with(|rec| {
            let mut rec = rec.borrow_mut();
            let id = rec.ingest.take().expect("ingest spans do not nest");
            rec.record_as(id, 0, Kind::Ingest, t0, t1);
        });
    }
    (r, (t1 - t0).as_secs_f64())
}

/// Times one coordinator query (always — the end-to-end query
/// percentiles come from here) and records it as a span when `ON`.
#[inline]
pub fn query<const ON: bool, R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t0 = Instant::now();
    let r = f();
    let t1 = Instant::now();
    if ON {
        // Queries run between ingest segments: no parent.
        REC.with(|rec| {
            let mut rec = rec.borrow_mut();
            let id = rec.fresh_id();
            rec.record_as(id, 0, Kind::CoordQuery, t0, t1);
        });
    }
    (r, (t1 - t0).as_secs_f64() * 1e6)
}

/// Exact totals of one kind so far.
pub fn totals(kind: Kind) -> Totals {
    REC.with(|rec| rec.borrow().totals[kind as usize])
}

/// Sum of every call span's busy time (everything except `ingest` and
/// the queries, which run between ingest segments).
pub fn children_busy_s() -> f64 {
    REC.with(|rec| {
        let rec = rec.borrow();
        rec.totals
            .iter()
            .enumerate()
            .filter(|(k, _)| *k != Kind::Ingest as usize && *k != Kind::CoordQuery as usize)
            .map(|(_, t)| t.busy_s())
            .sum()
    })
}

/// Calls recorded (spans, counting the ones not kept verbatim).
pub fn span_count() -> u64 {
    REC.with(|rec| rec.borrow().totals.iter().map(|t| t.calls).sum())
}

/// Writes the kept spans as JSON lines: name, start, end (ns since the
/// recorder's origin), the span's id and its parent's, and the
/// repetition id shared by every span of this run. Repetition 0 starts
/// the file; later traced repetitions of the same collection append.
pub fn write_jsonl(path: &std::path::Path, workload: &str, rep: u64) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let file = std::fs::OpenOptions::new()
        .create(true)
        .write(true)
        .append(rep > 0)
        .truncate(rep == 0)
        .open(path)?;
    let mut w = std::io::BufWriter::new(file);
    REC.with(|rec| -> std::io::Result<()> {
        for s in &rec.borrow().spans {
            writeln!(
                w,
                "{{\"name\":\"{}\",\"id\":{},\"parent\":{},\"start_ns\":{},\"end_ns\":{},\"workload\":\"{}\",\"rep\":{}}}",
                KIND_NAMES[s.kind as usize], s.id, s.parent, s.start_ns, s.end_ns, workload, rep
            )?;
        }
        Ok(())
    })?;
    w.flush()
}

/// Leaf wrapper.
#[derive(Debug, Clone)]
pub struct TracedSite<S, const ON: bool>(pub S);

impl<S: Site, const ON: bool> Site for TracedSite<S, ON> {
    type Input = S::Input;
    type UpMsg = S::UpMsg;
    type Broadcast = S::Broadcast;

    #[inline]
    fn observe(&mut self, input: S::Input, out: &mut Vec<S::UpMsg>) {
        emitting::<ON, _>(Kind::SiteObserve, out, |out| self.0.observe(input, out))
    }

    #[inline]
    fn observe_batch(
        &mut self,
        inputs: impl IntoIterator<Item = S::Input>,
        out: &mut Vec<S::UpMsg>,
    ) {
        emitting::<ON, _>(Kind::SiteObserve, out, |out| {
            self.0.observe_batch(inputs, out)
        })
    }

    #[inline]
    fn on_broadcast(&mut self, b: &S::Broadcast) {
        call::<ON, _>(Kind::SiteBroadcast, || self.0.on_broadcast(b))
    }
}

impl<S: ChurnBudget, const ON: bool> ChurnBudget for TracedSite<S, ON> {
    fn rebudget(&mut self, share: &BudgetShare) {
        call::<ON, _>(Kind::Churn, || self.0.rebudget(share))
    }
}

impl<S: ChurnSite, const ON: bool> ChurnSite for TracedSite<S, ON> {
    fn depart(&mut self, out: &mut Vec<S::UpMsg>) {
        call::<ON, _>(Kind::Churn, || self.0.depart(out))
    }
}

/// Interior-node wrapper.
#[derive(Debug, Clone)]
pub struct TracedAggregator<A, const ON: bool>(pub A);

impl<A: Aggregator, const ON: bool> Aggregator for TracedAggregator<A, ON> {
    type UpMsg = A::UpMsg;
    type Broadcast = A::Broadcast;

    #[inline]
    fn absorb(&mut self, from: SiteId, msg: A::UpMsg) {
        call::<ON, _>(Kind::AggAbsorb, || self.0.absorb(from, msg))
    }

    #[inline]
    fn flush(&mut self, out: &mut Vec<(SiteId, A::UpMsg)>) {
        emitting::<ON, _>(Kind::AggFlush, out, |out| self.0.flush(out))
    }

    #[inline]
    fn on_broadcast(&mut self, b: &A::Broadcast) {
        call::<ON, _>(Kind::AggBroadcast, || self.0.on_broadcast(b))
    }
}

impl<A: MigratableAggregator, const ON: bool> MigratableAggregator for TracedAggregator<A, ON> {
    fn split_for_migration(&mut self, out: &mut Vec<(SiteId, A::UpMsg)>) {
        call::<ON, _>(Kind::Churn, || self.0.split_for_migration(out))
    }

    fn absorb_migrated(&mut self, from: SiteId, msg: A::UpMsg) {
        call::<ON, _>(Kind::Churn, || self.0.absorb_migrated(from, msg))
    }
}

impl<A: ChurnBudget, const ON: bool> ChurnBudget for TracedAggregator<A, ON> {
    fn rebudget(&mut self, share: &BudgetShare) {
        call::<ON, _>(Kind::Churn, || self.0.rebudget(share))
    }
}

impl<A: WireCodec, const ON: bool> WireCodec for TracedAggregator<A, ON> {
    fn encode(&self, out: &mut Vec<u8>) {
        call::<ON, _>(Kind::Churn, || self.0.encode(out))
    }

    fn decode(r: &mut WireReader<'_>) -> Option<Self> {
        call::<ON, _>(Kind::Churn, || A::decode(r)).map(TracedAggregator)
    }

    fn encoded_len(&self) -> u64 {
        self.0.encoded_len()
    }
}

/// Root wrapper. When `ON` it also keeps an evenly strided sample of the
/// up-messages it received, the inputs of the direct wire and transport
/// timings.
#[derive(Debug, Clone)]
pub struct TracedCoordinator<C: Coordinator, const ON: bool> {
    pub inner: C,
    captured: Vec<C::UpMsg>,
    seen: u64,
    stride: u64,
}

impl<C: Coordinator, const ON: bool> TracedCoordinator<C, ON> {
    pub fn new(inner: C) -> Self {
        TracedCoordinator {
            inner,
            captured: Vec::new(),
            seen: 0,
            stride: 1,
        }
    }

    /// The sampled up-messages (empty when tracing is off).
    pub fn captured(&self) -> &[C::UpMsg] {
        &self.captured
    }

    /// Keeps every `stride`-th message; when the sample is full, drops
    /// every other one and doubles the stride, so the kept messages stay
    /// evenly spread over the run.
    fn capture(&mut self, msg: &C::UpMsg)
    where
        C::UpMsg: Clone,
    {
        if self.seen.is_multiple_of(self.stride) && self.captured.len() == CAPTURE_CAP {
            let mut i = 0;
            self.captured.retain(|_| {
                i += 1;
                i % 2 == 1
            });
            self.stride *= 2;
        }
        if self.seen.is_multiple_of(self.stride) {
            self.captured.push(msg.clone());
        }
        self.seen += 1;
    }
}

impl<C, const ON: bool> Coordinator for TracedCoordinator<C, ON>
where
    C: Coordinator,
    C::UpMsg: Clone,
{
    type UpMsg = C::UpMsg;
    type Broadcast = C::Broadcast;

    #[inline]
    fn receive(&mut self, from: SiteId, msg: C::UpMsg, out: &mut Vec<C::Broadcast>) {
        if ON {
            self.capture(&msg);
        }
        emitting::<ON, _>(Kind::CoordReceive, out, |out| {
            self.inner.receive(from, msg, out)
        })
    }
}

impl<C: Coordinator + ChurnBudget, const ON: bool> ChurnBudget for TracedCoordinator<C, ON> {
    fn rebudget(&mut self, share: &BudgetShare) {
        call::<ON, _>(Kind::Churn, || self.inner.rebudget(share))
    }
}

impl<C, const ON: bool> ChurnCoordinator for TracedCoordinator<C, ON>
where
    C: ChurnCoordinator,
    C::UpMsg: Clone,
{
    fn current_broadcast(&self) -> Option<C::Broadcast> {
        self.inner.current_broadcast()
    }
}

impl<C: Coordinator + WireCodec, const ON: bool> WireCodec for TracedCoordinator<C, ON> {
    fn encode(&self, out: &mut Vec<u8>) {
        call::<ON, _>(Kind::Churn, || self.inner.encode(out))
    }

    /// A restored coordinator starts a fresh message sample.
    fn decode(r: &mut WireReader<'_>) -> Option<Self> {
        call::<ON, _>(Kind::Churn, || C::decode(r)).map(Self::new)
    }

    fn encoded_len(&self) -> u64 {
        self.inner.encoded_len()
    }
}
