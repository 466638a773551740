//! The pooled execution engine: deployment-shaped concurrency without
//! deployment-shaped thread counts.
//!
//! This is the one concurrent runtime: giving every site and every
//! interior [`Aggregator`] its own OS thread would be faithful to a
//! deployment but a scalability wall (an `m = 1024`, fanout-4 plan has
//! ~1360 nodes). The engine keeps the deployment *semantics* — absorb →
//! flush waves climbing the tree, broadcasts cascading down through
//! [`Aggregator::on_broadcast`], bottom-up shutdown drain, each hop's
//! [`CommStats`] recorded once by its receiving node — and makes the
//! *scheduling* a parameter: nodes are cooperative **tasks**, chunked
//! per tree level, executed by a bounded worker pool whose size is
//! chosen by the caller, not by the topology.
//!
//! [`Executor`] names the scheduling policy:
//!
//! * [`Executor::Inline`] is the synchronous schedule: a
//!   [`crate::Runner`] around the plan, the aggregators and the
//!   coordinator, fed one batch per site per round in id order on the
//!   calling thread, every broadcast reaching the nodes that hear it
//!   before the next observation. Its counts are deterministic, so the
//!   conservation audits compare the pool against it. (It is not a
//!   fixed-order walk of the pool's slots: a leaf slot observes a whole
//!   batch before it drains a broadcast, so such a walk would apply
//!   broadcasts a batch late.)
//! * [`Executor::Pool { workers }`](Executor::Pool) runs the task plan
//!   on `workers` OS threads. Total thread count is `workers + 1` (the
//!   calling thread plays root coordinator), independent of `m` and of
//!   the interior node count.
//!
//! # Tasks and the level-chunking rule
//!
//! Each tree level is split into contiguous **chunks** of at most
//! `ceil(nodes_at_level / workers)` nodes, rounded up to a multiple of
//! the fanout so that *every interior parent's full child range lands
//! in one chunk* — one worker therefore owns all senders into a given
//! parent inbox, children of one parent are served in site order, and a
//! parent's inbox disconnects at a well-defined instant (when its one
//! owning chunk retires the range). A chunk is the unit of scheduling:
//! workers pop a chunk, run one *quantum* (each owned node gets one
//! turn: drain broadcasts, ship held output, absorb available waves /
//! observe one batch), and push the chunk back until it completes.
//!
//! Every node owns its channels as a deployed node would: bounded upward
//! inboxes (backpressure walks down the tree — a task whose parent
//! inbox is full *holds* its wave and stops absorbing instead of
//! blocking its worker, so a single worker can never deadlock the
//! pool), unbounded broadcast channels (the root never blocks, so the
//! drain chain always completes).
//!
//! # The v2 scheduler: work-stealing deques + condvar wakeups
//!
//! Scheduling is **work-stealing** (engine v2): every worker owns a
//! deque of chunks — it pushes and pops at the *back* (LIFO, so the
//! chunk it just ran stays cache-warm), and an out-of-work worker
//! *steals* from the *front* of a victim's deque (FIFO — the coldest
//! chunk), scanning victims round-robin from its own index. There is no
//! global run queue and no global lock on the dispatch path.
//!
//! A chunk whose quantum makes **no progress** (its parent inbox is
//! full and nothing arrived) moves to its worker's private **held
//! shelf** instead of being re-queued: it is invisible to thieves
//! (running it would waste the steal) and is re-offered when the worker
//! runs out of runnable work or is woken. A worker with an empty deque,
//! nothing to steal and no held chunk that can move **parks on a
//! [`Condvar`]** — it burns no cycles until a task-producing event wakes
//! it. Wakeups are driven through an eventcount (epoch counter +
//! sleeper count): every event that can create runnable work — a wave
//! shipped into an inbox, an inbox drained below its bound, a broadcast
//! cascade, a chunk retiring (its parent's drain trigger), the root
//! absorbing traffic, abort, termination — bumps the epoch and wakes
//! the sleepers. A worker records the epoch *before* its futile scan
//! and re-checks it under the lock before sleeping, so a wakeup that
//! races the scan is never lost. [`EngineStats`] counts tasks, steals,
//! parks and wakeups per worker, so the scheduling win is measurable
//! rather than asserted.

use super::Runner;
use crate::aggregator::Aggregator;
use crate::broadcast::{BroadcastPlane, BroadcastState, LeafSet};
use crate::comm::{CommStats, MessageCost};
use crate::coordinator::Coordinator;
use crate::site::Site;
use crate::topology::{NodeEdges, Topology, TopologyPlan};
use crate::transport::{ChannelTransport, FaultLink, Transport};
use crate::wire::WireSized;
use crate::SiteId;
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, SyncSender, TryRecvError, TrySendError};
use std::sync::{Condvar, Mutex};

/// Batching, backpressure and broadcast-plane knobs of an engine run
/// (shared by the segmented [`super::churn`] driver, which runs its
/// segments on this engine).
#[derive(Debug, Clone)]
pub struct ThreadedConfig {
    /// Arrivals each site task processes between communication points:
    /// the site drains pending broadcasts, observes `batch_size`
    /// arrivals through [`Site::observe_batch`], and ships everything
    /// emitted as **one** wave (one `Vec` allocation per shipped batch
    /// instead of one send per message).
    ///
    /// Larger batches amortise channel synchronisation but let the
    /// coordinator's thresholds go stale for longer — which never
    /// breaks a guarantee (a stale, smaller threshold only makes sites
    /// send sooner) but does trade a little extra communication for
    /// throughput.
    pub batch_size: usize,
    /// Bound of every upward inbox, in waves. Applies backpressure: a
    /// node that outruns its parent holds its wave instead of queueing
    /// unboundedly.
    pub channel_capacity: usize,
    /// How coordinator broadcasts reach the deployment (see
    /// [`crate::broadcast`]): structural root fan-out, tree cascade
    /// (the default), or versioned push–pull gossip with
    /// `O(fanout · rounds)` per-node cost.
    pub plane: BroadcastPlane,
}

impl Default for ThreadedConfig {
    fn default() -> Self {
        ThreadedConfig {
            batch_size: 64,
            channel_capacity: 4,
            plane: BroadcastPlane::TreeCascade,
        }
    }
}

/// The pieces of a finished engine run.
///
/// Besides the `(sites, coordinator, stats)` triple, a run hands back
/// the interior [`Aggregator`] nodes — still holding whatever
/// sub-threshold partials they had not yet forwarded when their subtree
/// drained. Tests use them to audit conservation: everything a leaf
/// emitted is either in the coordinator or held by exactly one
/// aggregator.
pub struct TreeRunParts<S, C, A> {
    /// The finished sites, in site-id order.
    pub sites: Vec<S>,
    /// The interior nodes, level-major bottom-up (the
    /// [`TopologyPlan::agg_nodes`] construction order); empty for a
    /// degenerate (flat) plan.
    pub aggregators: Vec<A>,
    /// The root coordinator after every in-flight message drained.
    pub coordinator: C,
    /// Merged communication totals across all tasks.
    pub stats: CommStats,
    /// Per-worker scheduling counters of an [`Executor::Pool`] run;
    /// empty (no workers) for [`Executor::Inline`].
    pub engine: EngineStats,
}

/// How a [`run_partitioned_topology_parts`] call schedules its node
/// tasks.
///
/// # Example
///
/// Running a deployment on a 4-worker pool (5 threads total — the
/// calling thread plays root — regardless of how many sites or interior
/// nodes the plan has):
///
/// ```
/// use cma_stream::runner::engine::{self, Executor, ThreadedConfig};
/// use cma_stream::{Aggregator, Coordinator, MessageCost, Site, SiteId, Topology};
///
/// #[derive(Clone)]
/// struct Report(u64);
/// impl MessageCost for Report {
///     fn cost(&self) -> u64 { 1 }
/// }
/// struct Counter(u64);
/// impl Site for Counter {
///     type Input = u64;
///     type UpMsg = Report;
///     type Broadcast = ();
///     fn observe(&mut self, x: u64, out: &mut Vec<Report>) {
///         self.0 += x;
///         out.push(Report(x)); // report every arrival
///     }
///     fn on_broadcast(&mut self, _: &()) {}
/// }
/// struct Sum(u64);
/// impl Coordinator for Sum {
///     type UpMsg = Report;
///     type Broadcast = ();
///     fn receive(&mut self, _: SiteId, x: Report, _: &mut Vec<()>) { self.0 += x.0; }
/// }
///
/// let m = 64;
/// let sites = (0..m).map(|_| Counter(0)).collect();
/// let inputs = (0..m).map(|i| vec![i as u64; 10]).collect();
/// let parts = engine::run_partitioned_topology_parts(
///     sites,
///     Sum(0),
///     inputs,
///     &ThreadedConfig::default(),
///     Executor::Pool { workers: 4 },
///     Topology::Tree { fanout: 8 },
///     |_| cma_stream::Relay::new(),
/// );
/// assert_eq!(parts.coordinator.0, (0..64u64).map(|i| i * 10).sum());
/// assert_eq!(parts.stats.up_msgs, 640);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Executor {
    /// The synchronous schedule on the calling thread: a
    /// [`crate::Runner`] around the given plan, aggregators and
    /// coordinator, fed one `batch_size` batch per site per round in id
    /// order. Messages route synchronously and every broadcast reaches
    /// the nodes that hear it before the next observation — the
    /// idealisation the paper states its guarantees under.
    Inline,
    /// A bounded pool of `workers` OS threads executing the
    /// level-chunked task plan; the calling thread plays the root.
    /// Message timing is asynchronous, as in a real deployment:
    /// broadcasts lag, backpressure is real, and the run returns only
    /// after the bottom-up shutdown drain completes.
    Pool {
        /// Worker threads to schedule node tasks onto (`≥ 1`).
        workers: usize,
    },
}

impl Executor {
    /// Worker threads this executor brings up (`0` for
    /// [`Executor::Inline`]).
    pub fn workers(&self) -> usize {
        match *self {
            Executor::Inline => 0,
            Executor::Pool { workers } => workers,
        }
    }
}

/// How often the root re-checks the abort flag while its inbox is
/// quiet. Normal shutdown still ends by channel disconnection; the
/// poll exists only so a panicked task cannot strand the root on a
/// receive that will never complete.
const ROOT_POLL: std::time::Duration = std::time::Duration::from_millis(1);

/// One upward wave: origin-tagged messages shipped as a single send.
type Wave<M> = Vec<(SiteId, M)>;

/// What a pooled slot asks the edge rule with: the run's plan and plane.
type Wiring<'a> = (&'a TopologyPlan, BroadcastPlane);

/// Scheduling counters for one pool worker (see [`EngineStats`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WorkerStats {
    /// Chunk quanta this worker executed.
    pub tasks: u64,
    /// Quanta whose chunk was stolen from another worker's deque.
    pub steals: u64,
    /// Times this worker actually blocked on the condvar (entered a
    /// park). Under the eventcount design a blocked-but-runnable
    /// workload parks ≈ 0 times — there is no timed re-polling.
    pub parks: u64,
    /// Wake signals this worker consumed: condvar wakeups plus
    /// epoch-raced fast-path returns that avoided the sleep. Always
    /// ≥ `parks`.
    pub wakeups: u64,
}

/// Per-worker scheduling counters of one pooled run, returned in
/// [`TreeRunParts::engine`] so the scheduler's behaviour (work
/// distribution, steal traffic, idle parking) is *measured*, not
/// asserted. Empty for [`Executor::Inline`], which schedules nothing.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// One entry per pool worker, in worker-index order.
    pub workers: Vec<WorkerStats>,
}

impl EngineStats {
    /// Total quanta executed across the pool.
    pub fn total_tasks(&self) -> u64 {
        self.workers.iter().map(|w| w.tasks).sum()
    }

    /// Total chunks stolen across the pool.
    pub fn total_steals(&self) -> u64 {
        self.workers.iter().map(|w| w.steals).sum()
    }

    /// Total condvar parks across the pool.
    pub fn total_parks(&self) -> u64 {
        self.workers.iter().map(|w| w.parks).sum()
    }

    /// Total wake signals consumed across the pool.
    pub fn total_wakeups(&self) -> u64 {
        self.workers.iter().map(|w| w.wakeups).sum()
    }

    /// Folds another run's counters into this one, worker by worker
    /// (used by the segmented driver, which spreads one deployment
    /// across several engine segments). Worker lists of different
    /// lengths are merged index-wise, keeping the longer tail.
    pub fn absorb(&mut self, other: &EngineStats) {
        if self.workers.len() < other.workers.len() {
            self.workers
                .resize(other.workers.len(), WorkerStats::default());
        }
        for (mine, theirs) in self.workers.iter_mut().zip(&other.workers) {
            mine.tasks += theirs.tasks;
            mine.steals += theirs.steals;
            mine.parks += theirs.parks;
            mine.wakeups += theirs.wakeups;
        }
    }
}

/// The eventcount behind the pool's condvar wakeups.
///
/// Every task-producing event calls [`Waker::notify`]: it bumps the
/// epoch, then wakes the sleepers only if there are any (the uncontended
/// fast path is two atomic ops, no lock). A worker that found nothing
/// runnable calls [`Waker::wait`] with the epoch it read *before* its
/// scan; if any event fired since, the wait returns immediately instead
/// of sleeping — the SeqCst pairing of `epoch` and `sleepers` makes a
/// lost wakeup impossible (the notifier's epoch bump and the sleeper's
/// registration cannot both be invisible to each other).
struct Waker {
    epoch: AtomicU64,
    sleepers: AtomicUsize,
    lock: Mutex<()>,
    cv: Condvar,
}

impl Waker {
    fn new() -> Self {
        Waker {
            epoch: AtomicU64::new(0),
            sleepers: AtomicUsize::new(0),
            lock: Mutex::new(()),
            cv: Condvar::new(),
        }
    }

    fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::SeqCst)
    }

    /// Signals that runnable work may exist (wave shipped, inbox
    /// drained, broadcast cascaded, chunk retired, abort, termination).
    fn notify(&self) {
        self.epoch.fetch_add(1, Ordering::SeqCst);
        if self.sleepers.load(Ordering::SeqCst) > 0 {
            // Serialize with a registering sleeper: it holds the lock
            // from registration until the condvar releases it, so this
            // notify cannot slip into that window unseen.
            let _g = self.lock.lock().unwrap_or_else(|p| p.into_inner());
            self.cv.notify_all();
        }
    }

    /// Parks until an event fires. `seen` is the epoch read before the
    /// caller's (futile) scan for work. Returns `true` if the thread
    /// actually slept, `false` for the raced fast path.
    fn wait(&self, seen: u64) -> bool {
        self.sleepers.fetch_add(1, Ordering::SeqCst);
        let guard = self.lock.lock().unwrap_or_else(|p| p.into_inner());
        if self.epoch.load(Ordering::SeqCst) != seen {
            drop(guard);
            self.sleepers.fetch_sub(1, Ordering::SeqCst);
            return false;
        }
        // Spurious wakeups are safe: the caller re-scans and re-parks.
        let guard = self.cv.wait(guard).unwrap_or_else(|p| p.into_inner());
        drop(guard);
        self.sleepers.fetch_sub(1, Ordering::SeqCst);
        true
    }
}

/// Runs pre-partitioned per-site streams through the execution engine
/// over an arbitrary aggregation topology, returning the
/// complete [`TreeRunParts`] — sites, **interior aggregator nodes**
/// (still holding their sub-threshold partials; both executors return
/// them, so ragged-shutdown / silent-subtree conservation audits cover
/// either), the drained coordinator, and the merged [`CommStats`].
///
/// Waves climb leaf → interior → root with per-hop accounting recorded
/// by the receiving node, broadcasts reach interior nodes through
/// [`Aggregator::on_broadcast`] over the links the plane names,
/// shutdown never forces a flush, and the call returns only after the
/// root has drained every in-flight message. Only the *scheduling*
/// depends on the [`Executor`].
///
/// # Panics
/// Panics if `inputs.len() != sites.len()`, if the configured batch
/// size, channel capacity or pool size is zero, or if a task panics.
pub fn run_partitioned_topology_parts<S, C, A>(
    sites: Vec<S>,
    coordinator: C,
    inputs: Vec<Vec<S::Input>>,
    cfg: &ThreadedConfig,
    executor: Executor,
    topology: Topology,
    make_agg: impl FnMut(crate::topology::AggNode) -> A,
) -> TreeRunParts<S, C, A>
where
    S: Site + Send,
    S::Input: Send,
    S::UpMsg: MessageCost + Clone + Send,
    S::Broadcast: Clone + WireSized + Send,
    C: Coordinator<UpMsg = S::UpMsg, Broadcast = S::Broadcast>,
    A: Aggregator<UpMsg = S::UpMsg, Broadcast = S::Broadcast> + Send,
{
    run_partitioned_topology_parts_on(
        sites,
        coordinator,
        inputs,
        cfg,
        executor,
        topology,
        make_agg,
        &ChannelTransport,
    )
}

/// [`run_partitioned_topology_parts`] over an explicit [`Transport`].
///
/// With [`ChannelTransport`] (the default everywhere else) this is
/// bit-exact with the plain entry point; a [`crate::SimNet`] applies
/// per-link faults at the *receiving* side of each hop.
///
/// # Panics
/// As [`run_partitioned_topology_parts`].
#[allow(clippy::too_many_arguments)]
pub fn run_partitioned_topology_parts_on<S, C, A>(
    sites: Vec<S>,
    coordinator: C,
    inputs: Vec<Vec<S::Input>>,
    cfg: &ThreadedConfig,
    executor: Executor,
    topology: Topology,
    mut make_agg: impl FnMut(crate::topology::AggNode) -> A,
    net: &dyn Transport,
) -> TreeRunParts<S, C, A>
where
    S: Site + Send,
    S::Input: Send,
    S::UpMsg: MessageCost + Clone + Send,
    S::Broadcast: Clone + WireSized + Send,
    C: Coordinator<UpMsg = S::UpMsg, Broadcast = S::Broadcast>,
    A: Aggregator<UpMsg = S::UpMsg, Broadcast = S::Broadcast> + Send,
{
    let m = sites.len();
    let plan = topology.plan(m);
    let aggs: Vec<A> = if sites.is_empty() {
        Vec::new()
    } else {
        plan.agg_nodes().map(&mut make_agg).collect()
    };
    resume_partitioned_topology_parts_on(sites, coordinator, inputs, cfg, executor, plan, aggs, net)
}

/// Runs (or *continues*) a deployment whose interior aggregators are
/// already built — the segmented driver's entry point: after a
/// re-split migrated the interior into a new plan
/// ([`super::churn`]), the caller hands the engine the migrated
/// aggregator nodes and that plan, and the deployment picks up where
/// it left off (sites, coordinator and held partials intact) instead of
/// restarting. `net` is the [`Transport`] every hop crosses; see
/// [`run_partitioned_topology_parts_on`].
///
/// `aggs` must be in [`TopologyPlan::agg_nodes`] order (level-major
/// bottom-up) and match the plan's interior node count. The returned
/// [`CommStats`] covers only this segment; callers stitching segments
/// together fold them with
/// [`CommStats::absorb_reshaped`](crate::CommStats::absorb_reshaped)
/// when the plan changed mid-stream.
///
/// # Panics
/// As [`run_partitioned_topology_parts`], plus if `aggs.len()` does not
/// match the plan's interior node count.
#[allow(clippy::too_many_arguments)]
pub fn resume_partitioned_topology_parts_on<S, C, A>(
    sites: Vec<S>,
    coordinator: C,
    inputs: Vec<Vec<S::Input>>,
    cfg: &ThreadedConfig,
    executor: Executor,
    plan: TopologyPlan,
    aggs: Vec<A>,
    net: &dyn Transport,
) -> TreeRunParts<S, C, A>
where
    S: Site + Send,
    S::Input: Send,
    S::UpMsg: MessageCost + Clone + Send,
    S::Broadcast: Clone + WireSized + Send,
    C: Coordinator<UpMsg = S::UpMsg, Broadcast = S::Broadcast>,
    A: Aggregator<UpMsg = S::UpMsg, Broadcast = S::Broadcast> + Send,
{
    assert_eq!(
        inputs.len(),
        sites.len(),
        "engine: one input stream per site"
    );
    assert!(cfg.batch_size >= 1, "engine: batch_size must be positive");
    assert!(
        cfg.channel_capacity >= 1,
        "engine: channel_capacity must be positive"
    );
    if sites.is_empty() {
        return TreeRunParts {
            sites,
            aggregators: aggs,
            coordinator,
            stats: CommStats::default(),
            engine: EngineStats::default(),
        };
    }
    assert_eq!(
        aggs.len(),
        plan.internal_nodes(),
        "engine: one aggregator per interior node"
    );
    match executor {
        Executor::Inline => {
            let mut runner = Runner::from_parts(sites, coordinator, plan, aggs);
            runner.set_broadcast_plane(cfg.plane);
            runner.core.install_net(net);
            let mut feeds: Vec<_> = inputs.into_iter().map(Vec::into_iter).collect();
            let arrivals: usize = feeds.iter().map(ExactSizeIterator::len).sum();
            let mut live = true;
            while live {
                live = false;
                for (site, feed) in feeds.iter_mut().enumerate() {
                    if feed.len() > 0 {
                        live = true;
                        let batch = feed.by_ref().take(cfg.batch_size);
                        runner.feed_batch_inner(site, batch, net);
                    }
                }
            }
            runner.stats.arrivals += arrivals as u64;
            // The stream is exhausted: anything the simulated network
            // still holds in flight is released — late, never lost.
            runner.close_links();
            TreeRunParts {
                sites: runner.sites,
                aggregators: runner.core.aggs,
                coordinator: runner.core.coordinator,
                stats: runner.stats,
                engine: EngineStats::default(),
            }
        }
        Executor::Pool { workers } => {
            assert!(workers >= 1, "engine: pool needs at least one worker");
            run_pool(sites, coordinator, inputs, cfg, plan, workers, aggs, net)
        }
    }
}

/// The child of `to` that relays `origin`'s messages into it: the edge
/// rule's upward hops, walked from the origin leaf.
fn relay_child(plan: &TopologyPlan, plane: BroadcastPlane, origin: SiteId, to: usize) -> usize {
    let mut from = origin;
    loop {
        let up = plan.edges(plane, from).up;
        if up == to {
            return from;
        }
        from = up;
    }
}

// ---------------------------------------------------------------------
// The worker pool
// ---------------------------------------------------------------------

/// One leaf site as a cooperative task slot.
struct LeafSlot<S: Site> {
    sid: SiteId,
    site: S,
    input: std::vec::IntoIter<S::Input>,
    bc_rx: Receiver<S::Broadcast>,
    /// The downward link broadcasts arrive on (transparent under
    /// channels; a faulty link can drop a delivery).
    bc_link: FaultLink<S::Broadcast>,
    /// Hung up (set to `None`) when the slot retires — the parent's
    /// bottom-up drain trigger.
    up_tx: Option<SyncSender<Wave<S::UpMsg>>>,
    /// A wave the parent inbox had no room for; retried next quantum.
    pending: Wave<S::UpMsg>,
    done: bool,
}

/// One interior aggregator as a cooperative task slot.
struct AggSlot<A: Aggregator> {
    /// Global (level-major bottom-up) node index.
    g: usize,
    /// 0-based interior level (level 0 parents the leaves).
    level: usize,
    agg: A,
    up_rx: Receiver<Wave<A::UpMsg>>,
    bc_rx: Receiver<A::Broadcast>,
    /// Incoming fault links, keyed by the child's transport node id
    /// (empty under a transparent net).
    up_links: BTreeMap<usize, FaultLink<(SiteId, A::UpMsg)>>,
    /// The downward link broadcasts arrive on.
    bc_link: FaultLink<A::Broadcast>,
    child_bcs: Vec<mpsc::Sender<A::Broadcast>>,
    up_tx: Option<SyncSender<Wave<A::UpMsg>>>,
    pending: Wave<A::UpMsg>,
    /// Set once the children's disconnection has been observed and the
    /// fault links closed (their in-flight releases absorbed); the slot
    /// may still need quanta after this to ship a backpressured wave.
    closed: bool,
    done: bool,
}

/// The unit of scheduling: a contiguous run of same-level slots.
enum Chunk<S: Site, A: Aggregator> {
    Leaves(Vec<LeafSlot<S>>),
    Aggs {
        slots: Vec<AggSlot<A>>,
        stats: CommStats,
    },
}

/// Ships `pending` into `tx` without blocking; `false` = inbox full,
/// wave kept for the next quantum (cooperative backpressure).
fn try_ship<M>(tx: &SyncSender<Wave<M>>, pending: &mut Wave<M>) -> bool {
    match tx.try_send(std::mem::take(pending)) {
        Ok(()) => true,
        Err(TrySendError::Full(wave)) => {
            *pending = wave;
            false
        }
        // Parent gone mid-run: only happens during abnormal teardown (a
        // panicking sibling dropped the queued chunks). Treat the wave
        // as shipped so this slot can retire instead of panicking over
        // the original failure — the PR 3 drain-by-disconnection
        // contract, sender side.
        Err(TrySendError::Disconnected(_)) => true,
    }
}

impl<S: Site> LeafSlot<S> {
    /// One turn: drain broadcasts, ship any held wave, observe one
    /// batch, retire when the stream and the held wave are both empty.
    fn quantum(&mut self, batch_size: usize) -> bool {
        if self.done {
            return false;
        }
        let mut progress = false;
        while let Ok(bc) = self.bc_rx.try_recv() {
            if self.bc_link.deliver_now(0.0) {
                self.site.on_broadcast(&bc);
            }
            progress = true;
        }
        if !self.pending.is_empty() {
            let tx = self.up_tx.as_ref().expect("undone slot keeps its sender");
            if !try_ship(tx, &mut self.pending) {
                return progress; // parent full: hold, don't observe more
            }
            progress = true;
        }
        if self.input.len() > 0 {
            progress = true;
            let LeafSlot {
                sid,
                site,
                input,
                pending,
                ..
            } = self;
            let mut out: Vec<S::UpMsg> = Vec::new();
            let mut batch = input.by_ref().take(batch_size);
            loop {
                site.observe_batch(&mut batch, &mut out);
                if out.is_empty() {
                    break;
                }
                pending.extend(out.drain(..).map(|msg| (*sid, msg)));
            }
            if !self.pending.is_empty() {
                let tx = self.up_tx.as_ref().expect("undone slot keeps its sender");
                try_ship(tx, &mut self.pending);
            }
        }
        if self.input.len() == 0 && self.pending.is_empty() {
            self.up_tx = None;
            self.done = true;
        }
        progress
    }
}

impl<A: Aggregator> AggSlot<A>
where
    A::UpMsg: MessageCost + Clone,
    A::Broadcast: Clone,
{
    fn forward_broadcast(&mut self, bc: A::Broadcast) {
        self.agg.on_broadcast(&bc);
        for tx in &self.child_bcs {
            // A child may already have retired; fine.
            let _ = tx.send(bc.clone());
        }
    }

    /// Absorbs one wave, passing it through the per-child fault links
    /// first (a dropped message is never recorded; a duplicated one is
    /// recorded twice).
    fn absorb_wave(&mut self, wave: Wave<A::UpMsg>, stats: &mut CommStats, wiring: Wiring) {
        let mut delivered: Wave<A::UpMsg>;
        if self.up_links.is_empty() {
            delivered = wave;
        } else {
            delivered = Vec::with_capacity(wave.len());
            let (plan, plane) = wiring;
            let node = plan.agg_node_id(self.g);
            for (from, msg) in wave {
                let mass = msg.mass();
                match self.up_links.get_mut(&relay_child(plan, plane, from, node)) {
                    Some(l) => l.receive((from, msg), mass, &mut delivered),
                    None => delivered.push((from, msg)),
                }
            }
        }
        for (from, msg) in delivered {
            stats.record_hop(self.level, msg.cost(), msg.wire_bytes());
            stats.record_recv(self.g);
            if self.level == 0 {
                stats.record_leaf_send(from);
            }
            self.agg.absorb(from, msg);
        }
    }

    /// One turn: freshen broadcast state, ship any held wave, absorb
    /// every queued wave (flushing once per wave), retire when the
    /// children have hung up and everything queued has drained.
    fn quantum(&mut self, stats: &mut CommStats, wiring: Wiring) -> bool {
        if self.done {
            return false;
        }
        let mut progress = false;
        while let Ok(bc) = self.bc_rx.try_recv() {
            if self.bc_link.deliver_now(0.0) {
                self.forward_broadcast(bc);
            }
            progress = true;
        }
        if !self.pending.is_empty() {
            let tx = self.up_tx.as_ref().expect("undone slot keeps its sender");
            if !try_ship(tx, &mut self.pending) {
                return progress; // parent full: stop absorbing (backpressure)
            }
            progress = true;
        }
        loop {
            match self.up_rx.try_recv() {
                Ok(wave) => {
                    progress = true;
                    self.absorb_wave(wave, stats, wiring);
                    self.agg.flush(&mut self.pending);
                    if !self.pending.is_empty() {
                        let tx = self.up_tx.as_ref().expect("undone slot keeps its sender");
                        if !try_ship(tx, &mut self.pending) {
                            return progress;
                        }
                    }
                }
                Err(TryRecvError::Empty) => return progress,
                Err(TryRecvError::Disconnected) => {
                    // Children all hung up and their queue is drained.
                    // First close the fault links: anything still held
                    // in flight (delayed/reordered past the last wave)
                    // releases now as one final wave — late, never lost.
                    if !self.closed {
                        self.closed = true;
                        if !self.up_links.is_empty() {
                            let mut late: Wave<A::UpMsg> = Vec::new();
                            let mut links = std::mem::take(&mut self.up_links);
                            for link in links.values_mut() {
                                link.close(&mut late);
                            }
                            if !late.is_empty() {
                                self.absorb_wave(late, stats, wiring);
                                self.agg.flush(&mut self.pending);
                            }
                        }
                    }
                    if !self.pending.is_empty() {
                        let tx = self.up_tx.as_ref().expect("undone slot keeps its sender");
                        if !try_ship(tx, &mut self.pending) {
                            // Parent full: retry the ship next quantum
                            // (the release was absorbed exactly once —
                            // `closed` guards the re-entry).
                            return progress;
                        }
                    }
                    // Keep any held partial (never force a flush),
                    // absorb the broadcasts queued so far, retire.
                    while let Ok(bc) = self.bc_rx.try_recv() {
                        if self.bc_link.deliver_now(0.0) {
                            self.forward_broadcast(bc);
                        }
                    }
                    self.up_tx = None;
                    self.done = true;
                    return true;
                }
            }
        }
    }
}

impl<S, A> Chunk<S, A>
where
    S: Site,
    A: Aggregator<UpMsg = S::UpMsg, Broadcast = S::Broadcast>,
    S::UpMsg: MessageCost + Clone,
    S::Broadcast: Clone,
{
    fn quantum(&mut self, batch_size: usize, wiring: Wiring) -> bool {
        match self {
            Chunk::Leaves(slots) => {
                let mut progress = false;
                for slot in slots {
                    progress |= slot.quantum(batch_size);
                }
                progress
            }
            Chunk::Aggs { slots, stats } => {
                let mut progress = false;
                for slot in slots {
                    progress |= slot.quantum(stats, wiring);
                }
                progress
            }
        }
    }

    fn done(&self) -> bool {
        match self {
            Chunk::Leaves(slots) => slots.iter().all(|s| s.done),
            Chunk::Aggs { slots, .. } => slots.iter().all(|s| s.done),
        }
    }
}

/// Splits `count` same-level nodes into contiguous chunks of at most
/// `ceil(count / workers)` nodes, rounded up to a multiple of `align`
/// so a parent's child range `[j·fanout, (j+1)·fanout)` never crosses a
/// chunk boundary.
fn chunk_spans(count: usize, workers: usize, align: usize) -> Vec<(usize, usize)> {
    if count == 0 {
        return Vec::new();
    }
    let raw = count.div_ceil(workers.max(1)).max(1);
    let size = raw.div_ceil(align) * align;
    (0..count)
        .step_by(size)
        .map(|lo| (lo, (lo + size).min(count)))
        .collect()
}

/// Flips the shared abort flag if its worker unwinds (and wakes any
/// parked workers), so the other workers stop looping and the scope can
/// propagate the panic.
struct AbortOnPanic<'a> {
    flag: &'a AtomicBool,
    waker: &'a Waker,
}

impl Drop for AbortOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.flag.store(true, Ordering::Release);
            self.waker.notify();
        }
    }
}

/// The pooled runtime: one bounded inbox and one broadcast channel per
/// node, node tasks chunked per level onto `workers` threads, the root
/// coordinator on the calling thread.
#[allow(clippy::too_many_arguments)]
fn run_pool<S, C, A>(
    mut sites: Vec<S>,
    mut coordinator: C,
    inputs: Vec<Vec<S::Input>>,
    cfg: &ThreadedConfig,
    plan: TopologyPlan,
    workers: usize,
    aggs: Vec<A>,
    net: &dyn Transport,
) -> TreeRunParts<S, C, A>
where
    S: Site + Send,
    S::Input: Send,
    S::UpMsg: MessageCost + Clone + Send,
    S::Broadcast: Clone + WireSized + Send,
    C: Coordinator<UpMsg = S::UpMsg, Broadcast = S::Broadcast>,
    A: Aggregator<UpMsg = S::UpMsg, Broadcast = S::Broadcast> + Send,
{
    let m = sites.len();
    let total_arrivals: u64 = inputs.iter().map(|v| v.len() as u64).sum();
    let fanout = plan.fanout();
    let levels: Vec<usize> = plan.levels().to_vec();
    let n_levels = levels.len();
    let i_total = plan.internal_nodes();
    let root = plan.root_node_id();
    let plane = cfg.plane;
    let faulty = !net.is_transparent();

    // Bounded upward inboxes, one per aggregation point (interior `g` at
    // index `g`, the root last), and an unbounded broadcast channel per
    // non-root node (by transport node id).
    let (up_tx, mut up_rx): (Vec<_>, Vec<_>) = (0..=i_total)
        .map(|_| {
            let (tx, rx) = mpsc::sync_channel::<Wave<S::UpMsg>>(cfg.channel_capacity);
            (tx, Some(rx))
        })
        .unzip();
    let (bc_tx, mut bc_rx): (Vec<_>, Vec<_>) = (0..root)
        .map(|_| {
            let (tx, rx) = mpsc::channel::<S::Broadcast>();
            (tx, Some(rx))
        })
        .unzip();

    // Every link comes from the edge rule. Under a faulty net each
    // aggregation point owns the incoming fault links of its children,
    // and each node's broadcast sender is held by the node it hears
    // broadcasts from. Gossip leaves have no source: the root serves
    // them the plane's adopter set, with faults applied in-plane.
    // Interiors come first, so root fan-out serves them before leaves.
    let edges: Vec<NodeEdges> = (0..root).map(|node| plan.edges(plane, node)).collect();
    let mut in_links: Vec<BTreeMap<usize, _>> = (0..=i_total).map(|_| BTreeMap::new()).collect();
    let mut outlets: Vec<Vec<mpsc::Sender<S::Broadcast>>> =
        (0..=i_total).map(|_| Vec::new()).collect();
    for node in (m..root).chain(0..m) {
        let NodeEdges { up, bc_from, .. } = edges[node];
        if faulty {
            in_links[up - m].insert(node, FaultLink::new(net.link(node, up, true)));
        }
        if let Some(from) = bc_from {
            outlets[from - m].push(bc_tx[node].clone());
        }
    }
    let bc_link = |node: usize| match edges[node].bc_from {
        Some(from) => FaultLink::new(net.link(from, node, false)),
        None => FaultLink::transparent(),
    };

    // Leaf slots, in site order.
    let mut leaf_slots: Vec<LeafSlot<S>> = sites
        .drain(..)
        .zip(inputs)
        .enumerate()
        .map(|(sid, (site, local))| LeafSlot {
            sid,
            site,
            input: local.into_iter(),
            bc_rx: bc_rx[sid].take().expect("leaf bc receiver"),
            bc_link: bc_link(sid),
            up_tx: Some(up_tx[edges[sid].up - m].clone()),
            pending: Vec::new(),
            done: false,
        })
        .collect();

    // Interior slots, global (level-major bottom-up) order — the
    // caller-provided `aggs` (built or migrated) arrive in exactly the
    // `agg_nodes` construction order.
    let agg_slots: Vec<AggSlot<A>> = aggs
        .into_iter()
        .enumerate()
        .map(|(g, agg)| {
            let node = plan.agg_node_id(g);
            AggSlot {
                g,
                level: edges[node].hop - 1,
                agg,
                up_rx: up_rx[g].take().expect("agg up receiver"),
                bc_rx: bc_rx[node].take().expect("agg bc receiver"),
                up_links: std::mem::take(&mut in_links[g]),
                bc_link: bc_link(node),
                child_bcs: std::mem::take(&mut outlets[g]),
                up_tx: Some(up_tx[edges[node].up - m].clone()),
                pending: Vec::new(),
                closed: false,
                done: false,
            }
        })
        .collect();

    // Level-chunked task plan: leaves first (aligned to fanout so each
    // level-1 parent's child range stays within one chunk — align 1 for
    // a flat plan, where the root's shared inbox needs no ownership),
    // then each interior level (same alignment rule for its parents).
    let mut tasks: VecDeque<Chunk<S, A>> = VecDeque::new();
    let leaf_align = if n_levels == 0 { 1 } else { fanout };
    for (lo, hi) in chunk_spans(m, workers, leaf_align) {
        let rest = leaf_slots.split_off(hi - lo);
        tasks.push_back(Chunk::Leaves(std::mem::replace(&mut leaf_slots, rest)));
    }
    let mut remaining = agg_slots;
    for (li, &level_count) in levels.iter().enumerate() {
        let align = if li + 1 < n_levels { fanout } else { 1 };
        for (lo, hi) in chunk_spans(level_count, workers, align) {
            let rest = remaining.split_off(hi - lo);
            tasks.push_back(Chunk::Aggs {
                slots: std::mem::replace(&mut remaining, rest),
                stats: CommStats::for_plan(&plan),
            });
        }
    }
    debug_assert!(remaining.is_empty());

    // The root keeps the broadcast senders it serves directly, plus
    // (under gossip) every leaf's so adopter sets can be delivered.
    // Dropping everything else lets disconnection cascade bottom-up —
    // retirement is driven by input exhaustion and up-channel
    // disconnection, so keeping broadcast senders alive never stalls
    // shutdown.
    let root_bcs = std::mem::take(&mut outlets[i_total]);
    let gossip_bcs: Vec<mpsc::Sender<S::Broadcast>> = if plane.is_gossip() {
        bc_tx[..m].to_vec()
    } else {
        Vec::new()
    };
    let mut root_links = std::mem::take(&mut in_links[i_total]);
    let root_rx = up_rx[i_total].take().expect("root inbox");
    drop(bc_tx);
    drop(up_tx);
    let wiring: Wiring = (&plan, plane);

    let n_tasks = tasks.len();
    // Per-worker work-stealing deques, chunks dealt round-robin so the
    // initial load is spread before the first steal.
    let mut deque_init: Vec<VecDeque<Chunk<S, A>>> =
        (0..workers).map(|_| VecDeque::new()).collect();
    for (i, chunk) in tasks.into_iter().enumerate() {
        deque_init[i % workers].push_back(chunk);
    }
    let deques: Vec<Mutex<VecDeque<Chunk<S, A>>>> =
        deque_init.into_iter().map(Mutex::new).collect();
    let done_list: Mutex<Vec<Chunk<S, A>>> = Mutex::new(Vec::with_capacity(n_tasks));
    let live = AtomicUsize::new(n_tasks);
    let aborted = AtomicBool::new(false);
    let waker = Waker::new();
    let worker_stats: Vec<Mutex<WorkerStats>> = (0..workers)
        .map(|_| Mutex::new(WorkerStats::default()))
        .collect();
    let batch_size = cfg.batch_size;

    // Retires a finished chunk: parked siblings may be waiting on the
    // channel disconnections its retirement triggered.
    let finish = |chunk: Chunk<S, A>| {
        done_list.lock().expect("done list").push(chunk);
        live.fetch_sub(1, Ordering::AcqRel);
        waker.notify();
    };

    let mut stats = std::thread::scope(|scope| {
        for wid in 0..workers {
            let deques = &deques;
            let aborted = &aborted;
            let live = &live;
            let waker = &waker;
            let finish = &finish;
            let stats_slot = &worker_stats[wid];
            scope.spawn(move || {
                let _guard = AbortOnPanic {
                    flag: aborted,
                    waker,
                };
                let mut me = WorkerStats::default();
                // Blocked chunks wait on this private shelf — invisible
                // to thieves — until a wakeup re-offers them.
                let mut held: Vec<Chunk<S, A>> = Vec::new();
                loop {
                    if aborted.load(Ordering::Acquire) || live.load(Ordering::Acquire) == 0 {
                        break;
                    }
                    // Epoch *before* the scan: an event firing during
                    // the scan then aborts the park instead of racing it.
                    let seen = waker.epoch();
                    // 1. Own deque, LIFO — the freshest chunk is warm.
                    let mut next = deques[wid].lock().expect("own deque").pop_back();
                    let stolen = next.is_none();
                    // 2. Steal FIFO from a round-robin victim scan.
                    if next.is_none() {
                        for off in 1..workers {
                            let victim = (wid + off) % workers;
                            next = deques[victim].lock().expect("victim deque").pop_front();
                            if next.is_some() {
                                break;
                            }
                        }
                    }
                    if let Some(mut chunk) = next {
                        me.tasks += 1;
                        me.steals += stolen as u64;
                        let progress = chunk.quantum(batch_size, wiring);
                        if chunk.done() {
                            finish(chunk);
                        } else if progress {
                            deques[wid].lock().expect("own deque").push_back(chunk);
                            // Progress can unblock another worker's held
                            // chunk (an inbox drained, a wave shipped).
                            waker.notify();
                        } else {
                            held.push(chunk);
                        }
                        continue;
                    }
                    // 3. Deques dry: re-offer the held shelf once.
                    let mut advanced = false;
                    let mut still_held = Vec::with_capacity(held.len());
                    for mut chunk in held.drain(..) {
                        me.tasks += 1;
                        let progress = chunk.quantum(batch_size, wiring);
                        if chunk.done() {
                            advanced = true;
                            finish(chunk);
                        } else if progress {
                            advanced = true;
                            deques[wid].lock().expect("own deque").push_back(chunk);
                            waker.notify();
                        } else {
                            still_held.push(chunk);
                        }
                    }
                    held = still_held;
                    if advanced {
                        continue;
                    }
                    // 4. Nothing runnable anywhere: park until an event
                    // fires. No timed re-polling — a blocked chunk is
                    // unblocked by another node's progress, and every
                    // such progress notifies.
                    if aborted.load(Ordering::Acquire) || live.load(Ordering::Acquire) == 0 {
                        break;
                    }
                    me.wakeups += 1;
                    me.parks += waker.wait(seen) as u64;
                }
                // On abort any still-held chunks drop here, cascading
                // channel disconnection to whatever is left.
                *stats_slot.lock().expect("worker stats") = me;
            });
        }

        // ---- root on the calling thread.
        // The timeout only matters when a task panicked: chunks still
        // sitting in the queue would keep their upward senders alive
        // forever, so the root watches the abort flag instead of
        // waiting for a disconnect that cannot come.
        let mut stats = CommStats::for_plan(&plan);
        let last_hop = plan.internal_levels();
        let root_idx = plan.root_index();
        let mut bc_buf: Vec<S::Broadcast> = Vec::new();
        let mut delivered: Wave<S::UpMsg> = Vec::new();
        let mut bcast = BroadcastState::new(plane, m);
        let plan_ref = &plan;
        let root_wave = |delivered: &mut Wave<S::UpMsg>,
                         coordinator: &mut C,
                         stats: &mut CommStats,
                         bc_buf: &mut Vec<S::Broadcast>,
                         bcast: &mut BroadcastState| {
            for (from, msg) in delivered.drain(..) {
                stats.record_hop(last_hop, msg.cost(), msg.wire_bytes());
                stats.record_recv(root_idx);
                if last_hop == 0 {
                    stats.record_leaf_send(from);
                }
                coordinator.receive(from, msg, bc_buf);
                for bc in bc_buf.drain(..) {
                    // The plane charges one delivery per edge actually
                    // crossed and reports which leaves to serve;
                    // down-link faults apply at each receiving node.
                    let set = bcast.disseminate(plan_ref, bc.wire_size(), stats, net);
                    for tx in &root_bcs {
                        let _ = tx.send(bc.clone());
                    }
                    if let LeafSet::Subset(adopters) = &set {
                        for &sid in adopters {
                            // A leaf may already have retired; fine.
                            let _ = gossip_bcs[sid].send(bc.clone());
                        }
                    }
                    bcast.recycle(set);
                }
            }
        };
        loop {
            let wave = match root_rx.recv_timeout(ROOT_POLL) {
                Ok(wave) => wave,
                Err(mpsc::RecvTimeoutError::Timeout) => {
                    if aborted.load(Ordering::Acquire) {
                        break;
                    }
                    continue;
                }
                Err(mpsc::RecvTimeoutError::Disconnected) => break,
            };
            if faulty {
                for (from, msg) in wave {
                    let mass = msg.mass();
                    match root_links.get_mut(&relay_child(&plan, plane, from, root)) {
                        Some(l) => l.receive((from, msg), mass, &mut delivered),
                        None => delivered.push((from, msg)),
                    }
                }
            } else {
                delivered = wave;
            }
            root_wave(
                &mut delivered,
                &mut coordinator,
                &mut stats,
                &mut bc_buf,
                &mut bcast,
            );
            // The root drained its inbox (and possibly cascaded a
            // broadcast): both are wakeup events for parked workers
            // holding blocked chunks.
            waker.notify();
        }
        // Every child hung up (or the run aborted): release anything
        // the faulty links still held in flight — late, never lost.
        if faulty && !aborted.load(Ordering::Acquire) {
            for link in root_links.values_mut() {
                link.close(&mut delivered);
            }
            root_wave(
                &mut delivered,
                &mut coordinator,
                &mut stats,
                &mut bc_buf,
                &mut bcast,
            );
        }
        // Frames the gossip plane's links still held release now.
        bcast.close(&mut stats);
        if aborted.load(Ordering::Acquire) {
            // Drop every still-queued chunk (tolerating locks poisoned
            // by the panicking worker) so channel disconnection
            // cascades and nothing can block on the dead run.
            for deque in &deques {
                deque
                    .lock()
                    .unwrap_or_else(|poisoned| poisoned.into_inner())
                    .clear();
            }
            waker.notify();
        }
        stats
        // scope end: workers observe live == 0 (or the abort flag) and
        // exit; a worker panic propagates from the implicit join.
    });

    // Reassemble slots in id order and merge per-chunk stats.
    let mut sites_out: Vec<Option<S>> = (0..m).map(|_| None).collect();
    let mut aggs_out: Vec<Option<A>> = (0..i_total).map(|_| None).collect();
    for chunk in done_list.into_inner().expect("done list") {
        match chunk {
            Chunk::Leaves(slots) => {
                for slot in slots {
                    sites_out[slot.sid] = Some(slot.site);
                }
            }
            Chunk::Aggs {
                slots,
                stats: chunk_stats,
            } => {
                stats.absorb(&chunk_stats);
                for slot in slots {
                    aggs_out[slot.g] = Some(slot.agg);
                }
            }
        }
    }
    stats.arrivals = total_arrivals;
    TreeRunParts {
        sites: sites_out
            .into_iter()
            .map(|s| s.expect("every site retired"))
            .collect(),
        aggregators: aggs_out
            .into_iter()
            .map(|a| a.expect("every aggregator retired"))
            .collect(),
        coordinator,
        stats,
        engine: EngineStats {
            workers: worker_stats
                .into_iter()
                .map(|w| w.into_inner().unwrap_or_else(|p| p.into_inner()))
                .collect(),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregator::Relay;

    /// Deterministic toy for engine audits: every arrival is reported
    /// (so message counts are schedule-independent), the coordinator
    /// broadcasts every `K` received reports (a count-based trigger —
    /// the number of crossings is order-invariant), and sites merely
    /// record broadcasts (no behavioural feedback) — which makes the
    /// *totals* of any two correct engines exactly comparable.
    struct EchoSite {
        seen: u64,
        broadcasts: u64,
    }

    #[derive(Debug, Clone)]
    struct Ping(u64);

    impl MessageCost for Ping {
        fn cost(&self) -> u64 {
            1
        }
    }

    impl Site for EchoSite {
        type Input = u64;
        type UpMsg = Ping;
        type Broadcast = u64;

        fn observe(&mut self, x: u64, out: &mut Vec<Ping>) {
            self.seen += 1;
            out.push(Ping(x));
        }
        fn on_broadcast(&mut self, _b: &u64) {
            self.broadcasts += 1;
        }
    }

    struct CountCoord {
        received: u64,
        sum: u64,
        every: u64,
    }

    impl Coordinator for CountCoord {
        type UpMsg = Ping;
        type Broadcast = u64;

        fn receive(&mut self, _from: SiteId, msg: Ping, out: &mut Vec<u64>) {
            self.received += 1;
            self.sum += msg.0;
            if self.received.is_multiple_of(self.every) {
                out.push(self.received);
            }
        }
    }

    type EchoRelay = Relay<Ping, u64>;

    fn run_echo(
        m: usize,
        per_site: usize,
        executor: Executor,
        topology: Topology,
    ) -> TreeRunParts<EchoSite, CountCoord, EchoRelay> {
        let sites = (0..m)
            .map(|_| EchoSite {
                seen: 0,
                broadcasts: 0,
            })
            .collect();
        let inputs: Vec<Vec<u64>> = (0..m)
            .map(|sid| (0..per_site as u64).map(|i| (sid as u64) + i).collect())
            .collect();
        run_partitioned_topology_parts(
            sites,
            CountCoord {
                received: 0,
                sum: 0,
                every: 16,
            },
            inputs,
            &ThreadedConfig {
                batch_size: 8,
                channel_capacity: 2,
                plane: Default::default(),
            },
            executor,
            topology,
            |_| Relay::new(),
        )
    }

    #[test]
    fn chunk_spans_align_to_fanout() {
        // 64 leaves, 8 workers, fanout 4: ceil(64/8)=8 is already a
        // multiple of 4.
        assert_eq!(chunk_spans(64, 8, 4).len(), 8);
        for (lo, hi) in chunk_spans(64, 8, 4) {
            assert_eq!(lo % 4, 0);
            assert!(hi == 64 || hi % 4 == 0);
        }
        // 10 nodes, 4 workers, fanout 4: ceil(10/4)=3 rounds up to 4.
        assert_eq!(chunk_spans(10, 4, 4), vec![(0, 4), (4, 8), (8, 10)]);
        // Degenerate cases.
        assert!(chunk_spans(0, 4, 4).is_empty());
        assert_eq!(chunk_spans(3, 8, 1), vec![(0, 1), (1, 2), (2, 3)]);
    }

    #[test]
    fn pool_matches_inline_totals_exactly() {
        // Satellite audit: pooled m = 64 runs at fanout {2, 4} carry
        // exactly the sequential (inline) tree's totals — up messages,
        // per-level costs, broadcast deliveries — and node_in_msgs sums
        // are conserved across worker counts {1, 2, 8}.
        for fanout in [2usize, 4] {
            let topo = Topology::Tree { fanout };
            let inline = run_echo(64, 40, Executor::Inline, topo);
            assert_eq!(inline.coordinator.received, 64 * 40);
            for workers in [1usize, 2, 8] {
                let pooled = run_echo(64, 40, Executor::Pool { workers }, topo);
                assert_eq!(
                    pooled.coordinator.sum, inline.coordinator.sum,
                    "fanout={fanout} workers={workers}"
                );
                assert_eq!(pooled.stats.up_msgs, inline.stats.up_msgs);
                assert_eq!(pooled.stats.up_cost, inline.stats.up_cost);
                assert_eq!(pooled.stats.broadcast_events, inline.stats.broadcast_events);
                assert_eq!(
                    pooled.stats.broadcast_deliveries,
                    inline.stats.broadcast_deliveries
                );
                assert_eq!(pooled.stats.per_level, inline.stats.per_level);
                assert_eq!(pooled.stats.node_in_msgs, inline.stats.node_in_msgs);
                assert_eq!(pooled.stats.leaf_out_msgs, inline.stats.leaf_out_msgs);
                assert_eq!(pooled.stats.arrivals, inline.stats.arrivals);
            }
        }
    }

    #[test]
    fn pool_flat_plan_runs_without_interior_nodes() {
        let parts = run_echo(16, 30, Executor::Pool { workers: 4 }, Topology::Star);
        assert!(parts.aggregators.is_empty());
        assert_eq!(parts.stats.per_level.len(), 1);
        assert_eq!(parts.coordinator.received, 16 * 30);
        assert_eq!(parts.stats.active_leaves(), 16);
        // Broadcast cost is charged per leaf recipient.
        assert_eq!(
            parts.stats.broadcast_deliveries,
            parts.stats.broadcast_events * 16
        );
    }

    #[test]
    fn pool_returns_held_partials_in_aggregators() {
        // Aggregators that never forward: everything a leaf emitted must
        // be held by exactly one interior node — the pooled path hands
        // the nodes back for exactly this audit.
        struct Hoarder(Vec<(SiteId, Ping)>);
        impl Aggregator for Hoarder {
            type UpMsg = Ping;
            type Broadcast = u64;
            fn absorb(&mut self, from: SiteId, msg: Ping) {
                self.0.push((from, msg));
            }
            fn flush(&mut self, _out: &mut Vec<(SiteId, Ping)>) {}
        }

        let m = 8;
        let sites = (0..m)
            .map(|_| EchoSite {
                seen: 0,
                broadcasts: 0,
            })
            .collect();
        let inputs: Vec<Vec<u64>> = (0..m).map(|_| vec![1; 25]).collect();
        let parts = run_partitioned_topology_parts(
            sites,
            CountCoord {
                received: 0,
                sum: 0,
                every: 16,
            },
            inputs,
            &ThreadedConfig::default(),
            Executor::Pool { workers: 2 },
            Topology::Tree { fanout: 2 },
            |_| Hoarder(Vec::new()),
        );
        assert_eq!(parts.coordinator.received, 0, "infinite hold leaked");
        let held: usize = parts.aggregators.iter().map(|a| a.0.len()).sum();
        assert_eq!(held, 8 * 25);
        assert_eq!(*parts.stats.node_in_msgs.last().unwrap(), 0);
        assert_eq!(parts.stats.arrivals, 8 * 25);
    }

    #[test]
    fn pool_handles_ragged_and_empty_streams() {
        let m = 9;
        let sites = (0..m)
            .map(|_| EchoSite {
                seen: 0,
                broadcasts: 0,
            })
            .collect();
        let inputs: Vec<Vec<u64>> = (0..m).map(|i| vec![1; i * 7]).collect();
        let expected: u64 = (0..m as u64).map(|i| i * 7).sum();
        let parts = run_partitioned_topology_parts(
            sites,
            CountCoord {
                received: 0,
                sum: 0,
                every: 16,
            },
            inputs,
            &ThreadedConfig {
                batch_size: 3,
                channel_capacity: 1,
                plane: Default::default(),
            },
            Executor::Pool { workers: 3 },
            Topology::Tree { fanout: 4 },
            |_| EchoRelay::new(),
        );
        assert_eq!(parts.coordinator.received, expected);
        // Site 0 had an empty stream: measurably silent.
        assert_eq!(parts.stats.leaf_out_msgs[0], 0);
        assert_eq!(parts.stats.active_leaves(), m - 1);
    }

    #[test]
    fn inline_flat_matches_pool_flat() {
        let inline = run_echo(8, 50, Executor::Inline, Topology::Star);
        let pooled = run_echo(8, 50, Executor::Pool { workers: 2 }, Topology::Star);
        assert_eq!(inline.stats.up_msgs, pooled.stats.up_msgs);
        assert_eq!(inline.stats.broadcast_events, pooled.stats.broadcast_events);
        assert_eq!(inline.coordinator.sum, pooled.coordinator.sum);
    }

    /// A broadcast crosses the link the edge rule names, and a node hears
    /// it only if its source did. On `m = 16`, `Tree{4}` a dropping
    /// `root → leaf 5` link starves exactly leaf 5 under root fan-out,
    /// and a dropping `root → interior 1` link starves exactly that
    /// interior's leaves 4..8 under the cascade — on either executor.
    #[test]
    fn dropped_broadcast_link_starves_exactly_the_subtree_it_feeds() {
        use crate::transport::{FaultPlan, LinkFaults, SimNet};
        let (m, topo) = (16, Topology::Tree { fanout: 4 });
        let plan = topo.plan(m);
        let root = plan.root_node_id();
        let cells = [
            (BroadcastPlane::RootFanOut, 5, 5..6),
            (BroadcastPlane::TreeCascade, plan.agg_node_id(1), 4..8),
        ];
        for (plane, to, starved) in cells {
            for executor in [Executor::Inline, Executor::Pool { workers: 2 }] {
                let drop_all = LinkFaults {
                    drop: 1.0,
                    ..Default::default()
                };
                let net = SimNet::new(FaultPlan {
                    overrides: vec![((root, to), drop_all)],
                    ..FaultPlan::clean(7)
                });
                let sites = (0..m)
                    .map(|_| EchoSite {
                        seen: 0,
                        broadcasts: 0,
                    })
                    .collect();
                let parts = run_partitioned_topology_parts_on(
                    sites,
                    CountCoord {
                        received: 0,
                        sum: 0,
                        every: 16,
                    },
                    (0..m).map(|_| vec![1; 1_000]).collect(),
                    &ThreadedConfig {
                        plane,
                        ..ThreadedConfig::default()
                    },
                    executor,
                    topo,
                    |_| EchoRelay::new(),
                    &net,
                );
                for (sid, site) in parts.sites.iter().enumerate() {
                    let at = format!("{plane:?} {executor:?} leaf {sid}");
                    if starved.contains(&sid) {
                        assert_eq!(site.broadcasts, 0, "{at} heard through a dropping link");
                    } else {
                        assert!(site.broadcasts > 0, "{at} never heard a broadcast");
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn pool_rejects_zero_workers() {
        run_echo(4, 10, Executor::Pool { workers: 0 }, Topology::Star);
    }

    /// A panicking task must fail the run, not strand the root on a
    /// receive that can never complete: the abort flag wakes the root,
    /// the still-queued chunks are dropped, and the worker's panic
    /// propagates from the scope's implicit join (std wraps the
    /// original "poisoned arrival" payload in its own message).
    #[test]
    #[should_panic(expected = "a scoped thread panicked")]
    fn pool_propagates_task_panics_instead_of_hanging() {
        struct FaultySite;
        impl Site for FaultySite {
            type Input = u64;
            type UpMsg = Ping;
            type Broadcast = u64;
            fn observe(&mut self, x: u64, out: &mut Vec<Ping>) {
                assert!(x != 13, "poisoned arrival");
                out.push(Ping(x));
            }
            fn on_broadcast(&mut self, _b: &u64) {}
        }
        let m = 16;
        let sites = (0..m).map(|_| FaultySite).collect();
        // Site 5 hits the poisoned arrival mid-stream.
        let inputs: Vec<Vec<u64>> = (0..m)
            .map(|sid| {
                if sid == 5 {
                    vec![1, 13, 1]
                } else {
                    vec![1; 30]
                }
            })
            .collect();
        run_partitioned_topology_parts(
            sites,
            CountCoord {
                received: 0,
                sum: 0,
                every: 16,
            },
            inputs,
            &ThreadedConfig::default(),
            Executor::Pool { workers: 2 },
            Topology::Tree { fanout: 4 },
            |_| EchoRelay::new(),
        );
    }

    #[test]
    fn executor_reports_workers() {
        assert_eq!(Executor::Inline.workers(), 0);
        assert_eq!(Executor::Pool { workers: 7 }.workers(), 7);
    }

    /// The busy-spin fix, pinned: a deliberately-backpressured run
    /// (channel capacity 1, aggregators that *never* flush, so leaf
    /// waves block constantly) on a single worker must never park — the
    /// worker always owns the chunk whose progress unblocks its held
    /// chunk, so every blocked wave is re-offered by the scheduling loop
    /// itself, not by a timeout. Under the old timed-park design this
    /// workload racked up a `PARK` sleep per blocked poll; under the
    /// condvar design parks (and therefore wakeups) are exactly zero.
    #[test]
    fn backpressured_single_worker_never_parks() {
        struct Hoarder(Vec<(SiteId, Ping)>);
        impl Aggregator for Hoarder {
            type UpMsg = Ping;
            type Broadcast = u64;
            fn absorb(&mut self, from: SiteId, msg: Ping) {
                self.0.push((from, msg));
            }
            fn flush(&mut self, _out: &mut Vec<(SiteId, Ping)>) {}
        }

        let m = 16;
        let sites = (0..m)
            .map(|_| EchoSite {
                seen: 0,
                broadcasts: 0,
            })
            .collect();
        let inputs: Vec<Vec<u64>> = (0..m).map(|_| vec![1; 60]).collect();
        let parts = run_partitioned_topology_parts(
            sites,
            CountCoord {
                received: 0,
                sum: 0,
                every: 16,
            },
            inputs,
            &ThreadedConfig {
                batch_size: 2,
                channel_capacity: 1,
                plane: Default::default(),
            },
            Executor::Pool { workers: 1 },
            Topology::Tree { fanout: 2 },
            |_| Hoarder(Vec::new()),
        );
        let held: usize = parts.aggregators.iter().map(|a| a.0.len()).sum();
        assert_eq!(held, 16 * 60, "conservation under backpressure");
        let engine = &parts.engine;
        assert_eq!(engine.workers.len(), 1);
        assert!(engine.total_tasks() > 0);
        assert_eq!(engine.total_steals(), 0, "one worker has no victims");
        assert_eq!(
            engine.total_parks(),
            0,
            "a single worker always owns the unblocking chunk: parks must be 0, got {:?}",
            engine.workers
        );
        assert_eq!(engine.total_wakeups(), 0);
    }

    /// More workers than chunks: the spares either steal the one
    /// runnable chunk or park on the condvar and are woken by progress
    /// and termination events — never by a timeout. The run must
    /// terminate (a lost wakeup would hang it) with every quantum
    /// accounted to exactly one worker.
    #[test]
    fn excess_workers_park_and_terminate() {
        let parts = run_echo(4, 200, Executor::Pool { workers: 8 }, Topology::Star);
        assert_eq!(parts.coordinator.received, 4 * 200);
        let engine = &parts.engine;
        assert_eq!(engine.workers.len(), 8);
        assert!(engine.total_tasks() > 0);
        // Wake signals are only consumed by workers that went looking
        // for them; every actual park produced one.
        assert!(engine.total_wakeups() >= engine.total_parks());
    }

    /// The segmented driver's resume entry: handing the engine pre-built
    /// aggregators and a resolved plan is execution-identical to letting
    /// it build them itself.
    #[test]
    fn resume_with_prebuilt_aggregators_matches_fresh_run() {
        let fresh = run_echo(
            32,
            40,
            Executor::Pool { workers: 4 },
            Topology::Tree { fanout: 4 },
        );
        let plan = Topology::Tree { fanout: 4 }.plan(32);
        let aggs: Vec<EchoRelay> = plan.agg_nodes().map(|_| Relay::new()).collect();
        let sites = (0..32)
            .map(|_| EchoSite {
                seen: 0,
                broadcasts: 0,
            })
            .collect();
        let inputs: Vec<Vec<u64>> = (0..32)
            .map(|sid| (0..40u64).map(|i| (sid as u64) + i).collect())
            .collect();
        let resumed = resume_partitioned_topology_parts_on(
            sites,
            CountCoord {
                received: 0,
                sum: 0,
                every: 16,
            },
            inputs,
            &ThreadedConfig {
                batch_size: 8,
                channel_capacity: 2,
                plane: Default::default(),
            },
            Executor::Pool { workers: 4 },
            plan,
            aggs,
            &ChannelTransport,
        );
        assert_eq!(resumed.coordinator.sum, fresh.coordinator.sum);
        assert_eq!(resumed.stats.up_msgs, fresh.stats.up_msgs);
        assert_eq!(resumed.stats.node_in_msgs, fresh.stats.node_in_msgs);
        assert_eq!(resumed.aggregators.len(), fresh.aggregators.len());
    }

    #[test]
    fn engine_stats_absorb_folds_workerwise() {
        let mut a = EngineStats {
            workers: vec![WorkerStats {
                tasks: 3,
                steals: 1,
                parks: 0,
                wakeups: 2,
            }],
        };
        let b = EngineStats {
            workers: vec![
                WorkerStats {
                    tasks: 5,
                    steals: 0,
                    parks: 1,
                    wakeups: 1,
                },
                WorkerStats {
                    tasks: 7,
                    steals: 2,
                    parks: 0,
                    wakeups: 0,
                },
            ],
        };
        a.absorb(&b);
        assert_eq!(a.workers.len(), 2);
        assert_eq!(a.total_tasks(), 15);
        assert_eq!(a.total_steals(), 3);
        assert_eq!(a.total_parks(), 1);
        assert_eq!(a.total_wakeups(), 3);
    }
}
