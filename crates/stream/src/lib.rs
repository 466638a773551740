//! Distributed-streaming simulation substrate — **batch-first**, with a
//! **pluggable aggregation topology**.
//!
//! The paper's model (Cormode, Muthukrishnan, Yi — "distributed functional
//! monitoring") has `m` sites, each observing a disjoint stream, plus a
//! coordinator `C`; sites talk only to `C`, and the quantity to minimise
//! is the number of messages. This crate provides that model as
//! infrastructure, independent of any particular protocol:
//!
//! * [`site::Site`] / [`coordinator::Coordinator`] — the leaf and root
//!   protocol roles, as traits over arbitrary input/message/broadcast
//!   types.
//! * [`aggregator::Aggregator`] — the *interior* role of a tree
//!   deployment: merges partial summaries flowing up, observes
//!   broadcasts flowing down.
//! * [`topology::Topology`] — the deployment shape: the paper's flat
//!   [`Topology::Star`], or a k-ary [`Topology::Tree`] for `m ≫ 100`
//!   where coordinator fan-in is the scaling wall.
//! * [`comm::CommStats`] — message accounting in the paper's units,
//!   measured per hop (see below).
//! * [`runner::Runner`] — deterministic driver: feeds arrivals to sites
//!   (singly, in per-site batches, or as a partitioned stream slice),
//!   routes messages through the aggregation layer, applies broadcasts
//!   synchronously. Every experiment harness and test drives protocols
//!   through this.
//! * [`runner::engine`] — the **execution engine**, the one concurrent
//!   runtime: sites and interior tree nodes are cooperative tasks with
//!   bounded inboxes and batched message shipping, scheduled as
//!   level-chunked work onto a bounded worker pool
//!   ([`Executor::Pool`], `workers + 1` threads whatever `m` is) where
//!   broadcasts arrive with real lag — used to demonstrate that the
//!   protocols tolerate the asynchrony of an actual deployment, to
//!   measure deployment-shaped throughput and *real* root fan-in
//!   relief — or run deterministically on the calling thread
//!   ([`Executor::Inline`]) as the reference the pool is audited
//!   against.
//!   [`Topology::Adaptive`] closes the loop the other way: the
//!   deployment *measures* fan-in pressure ([`CommStats`]) and picks
//!   its own fanout within a budget.
//! * [`partition`] — stream partitioners deciding which site observes
//!   each arrival (round-robin, uniform random, skewed, by key).
//! * [`transport`] — the message plane behind the runners:
//!   [`ChannelTransport`] (perfect in-process channels, bit-exact
//!   reference) or [`SimNet`], a deterministic simulated network that
//!   drops/delays/duplicates/reorders per-link under a seeded
//!   [`FaultPlan`]. [`wire`] gives every protocol message a compact
//!   encoding so [`CommStats`] measures bytes, not just messages.
//! * [`broadcast`] — the pluggable **broadcast plane** for the fan-*out*
//!   direction: [`BroadcastPlane::RootFanOut`] (the paper's model),
//!   [`BroadcastPlane::TreeCascade`] (the default; frames cascade down
//!   the aggregation tree), or [`BroadcastPlane::Gossip`] — versioned
//!   push–pull anti-entropy rounds with seeded deterministic peer
//!   selection, making per-node dissemination cost `O(fanout · rounds)`
//!   independent of `m`.
//!
//! # The Topology / Aggregator contract
//!
//! A deployment is a tree: sites are the leaves, the coordinator is the
//! root, and — when the topology is [`Topology::Tree`] — interior
//! [`Aggregator`] nodes sit between them ([`Topology::plan`] resolves
//! the layout; `fanout ≥ m` degenerates to the star, *exactly*). The
//! runner drives interior nodes in **absorb → flush waves**: each
//! upward message is absorbed by the child's parent, the parent is
//! flushed once, and whatever it emits climbs to the next level; an
//! empty flush means the node is *holding* a sub-threshold partial to
//! coalesce with later traffic. Coordinator broadcasts fan out down the
//! same tree, passing through [`Aggregator::on_broadcast`] before
//! reaching the sites, so threshold state is as fresh at interior nodes
//! as at leaves. Origin site ids ride along with messages so
//! coordinators that key state per site (HH-P4's report table) work
//! unchanged behind relaying aggregators.
//!
//! What makes interior merging *sound* is mergeability of the protocol
//! summaries (Misra–Gries, SpaceSaving and Frequent Directions merge
//! with the error of the combined stream; sampling round state filters
//! losslessly) plus a **node-budget split**: a protocol whose guarantee
//! bounds the total mass withheld across `m` reporting sites restates
//! the same bound over the `m + I` withholding nodes of a tree with `I`
//! interior nodes, shrinking each node's hold threshold accordingly.
//! The `topology_parity` integration suite pins (a) tree(fanout = m) ≡
//! star message-for-message and (b) tree error within each protocol's
//! guarantee at fanout 2/4/8 up to m = 256.
//!
//! # Per-level communication accounting
//!
//! [`CommStats`] measures, never guesses: `per_level[h]` records the
//! up-messages/cost and broadcast deliveries crossing hop `h` (hop 0 =
//! leaf hop, last = into the root), `node_in_msgs` counts what every
//! aggregation point actually received (fan-in pressure; root last),
//! and each broadcast event is charged **one message per recipient it
//! fans out to** — `m` in a star, every interior node and leaf in a
//! tree — so star and tree costs are directly comparable via
//! [`CommStats::total`].
//!
//! # Batch-first execution
//!
//! The protocols are *stated* per-arrival, but the hot path is executed
//! in batches. The unit of work is [`site::Site::observe_batch`]: a site
//! consumes a run of arrivals in one call and only pauses when it has a
//! message for the coordinator (the *pause-on-message* contract). Since
//! the protocols exist precisely to make messages rare — communication
//! is logarithmic in the stream length — almost every batch is one
//! uninterrupted tight loop inside the site, with no per-item driver
//! dispatch, bounds re-checks or buffer probes.
//!
//! Two drivers build on that primitive, with different trade-offs:
//!
//! * **Sequential** ([`runner::Runner`]): [`Runner::feed_batch`] resumes
//!   the site after routing each pause's messages, so batched execution
//!   is *observably identical* to per-item execution — same messages,
//!   same [`CommStats`] — at every batch size. Batching here is a pure
//!   throughput win; there is no semantic trade-off, which is what the
//!   `batch_parity` integration suite pins down.
//! * **Pooled** ([`runner::engine`] on [`Executor::Pool`]): each site
//!   task applies pending broadcasts only *between* batches and ships
//!   each batch's messages as one bounded-channel send. Larger batches
//!   amortise synchronisation but let coordinator thresholds go stale
//!   for longer — a latency/communication-vs-throughput trade-off.
//!   Staleness never endangers a guarantee: every protocol's thresholds
//!   only grow, so a stale (smaller) threshold merely makes sites send
//!   *sooner* than strictly necessary. Under a tree topology every
//!   interior [`Aggregator`] node is a task of its own: upward waves
//!   hop leaf → interior → root over bounded channels (backpressure
//!   walks down the tree), broadcasts cascade back down through
//!   [`Aggregator::on_broadcast`] at every hop, shutdown drains
//!   bottom-up, and each task's [`CommStats`] are merged without
//!   double-counting when the run returns.
//!
//! Protocols opt into faster batched math by overriding
//! [`site::Site::observe_batch`] — hoisting threshold computations out
//! of the loop, fusing sampler loops — while the default implementation
//! simply loops over [`site::Site::observe`], so every `Site` is
//! batch-drivable from day one.

pub mod aggregator;
pub mod broadcast;
pub mod churn;
pub mod comm;
pub mod coordinator;
pub mod partition;
pub mod runner;
pub mod site;
pub mod snapshot;
pub mod topology;
pub mod transport;
pub mod wire;

pub use aggregator::{Aggregator, FilteredRelay, MigratableAggregator, Relay, RelayFilter};
pub use broadcast::{BroadcastPlane, BroadcastState, LeafSet};
pub use churn::{
    BudgetShare, ChurnBudget, ChurnCoordinator, ChurnEvent, ChurnSchedule, ChurnSite, Membership,
};
pub use comm::{CommStats, LevelStats, MessageCost};
pub use coordinator::Coordinator;
pub use partition::Partitioner;
pub use runner::churn::{ChurnConfig, ChurnReport};
pub use runner::engine::{EngineStats, Executor, WorkerStats};
pub use runner::Runner;
pub use site::Site;
pub use snapshot::Snapshot;
pub use topology::{AggNode, Topology, TopologyPlan};
pub use transport::{
    ChannelTransport, FaultLink, FaultPlan, FaultStats, LinkFaults, LinkPipe, SimNet, Transport,
};
pub use wire::{
    put_f64, put_u64, put_usize, GossipDigest, GossipFrame, WireCodec, WireReader, WireSized,
};

/// Identifier of a site, `0..m`.
pub type SiteId = usize;
