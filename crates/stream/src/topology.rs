//! Aggregation topologies: how site traffic reaches the coordinator.
//!
//! The paper's model is a flat star — every site talks straight to the
//! coordinator — which makes coordinator fan-in the scaling wall for
//! `m ≫ 100`. Because the protocols' summaries are *mergeable*
//! (Misra–Gries and Frequent Directions merge without error
//! growth; the sampling protocols' round state filters losslessly), the
//! star can be replaced by a k-ary aggregation tree: sites report to
//! intermediate [`crate::Aggregator`] nodes, which merge partial
//! summaries on the way up, and coordinator broadcasts fan out down the
//! same tree. [`Topology`] names the shape; [`TopologyPlan`] is the
//! resolved node layout for a concrete number of sites.
//!
//! A `Tree { fanout: m }` plan is *identical* to `Star` — no internal
//! nodes, every leaf a direct child of the root — which is what lets the
//! `topology_parity` suite pin tree execution against star execution
//! message-for-message.

use crate::broadcast::BroadcastPlane;

/// The shape of the aggregation layer between sites and coordinator.
///
/// # Example
///
/// Resolving a fanout-4 tree for 64 sites:
///
/// ```
/// use cma_stream::Topology;
///
/// let plan = Topology::Tree { fanout: 4 }.plan(64);
/// assert_eq!(plan.levels(), &[16, 4]);  // interior nodes, bottom-up
/// assert_eq!(plan.internal_nodes(), 20);
/// assert_eq!(plan.hops(), 3);           // leaf → L1 → L2 → root
/// assert_eq!(plan.max_fan_in(), 4);     // vs 64 for the star
///
/// // fanout ≥ m degenerates to the star, exactly:
/// assert_eq!(Topology::Tree { fanout: 64 }.plan(64), Topology::Star.plan(64));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Topology {
    /// The paper's flat star: all `m` sites are direct children of the
    /// coordinator.
    Star,
    /// A k-ary aggregation tree: each node has at most `fanout` children;
    /// leaves are the sites, interior nodes are [`crate::Aggregator`]s,
    /// the root is the coordinator. `fanout ≥ m` degenerates to the star.
    Tree {
        /// Maximum children per node (`≥ 2`).
        fanout: usize,
    },
    /// Let the deployment pick its own fanout from *measured* fan-in
    /// instead of a static plan.
    ///
    /// `max_fan_in` is the budget: no aggregation point of the resolved
    /// plan may have more than `max_fan_in` children. Within that
    /// budget the planner is free to choose — and chooses from
    /// measurements, not structure:
    ///
    /// * [`Topology::plan`] resolves `Adaptive` *structurally* (no
    ///   measurements yet): a star when `m ≤ max_fan_in`, otherwise a
    ///   `Tree { fanout: max_fan_in }`. This keeps every existing entry
    ///   point working before any calibration has run.
    /// * [`Topology::resolve_with`] consumes one prior
    ///   [`crate::CommStats`] (last run's, or the last *segment's* of a
    ///   running deployment): if the *measured* fan-in — the number of
    ///   leaves that actually sent anything,
    ///   [`crate::CommStats::active_leaves`] — is within budget, the
    ///   flat star stays; only real pressure buys interior nodes.
    /// * [`Topology::resolve_calibrated`] is the two-pass planner: a
    ///   star probe over a short calibration prefix, then (if the star
    ///   is over budget) one probe per candidate fanout, keeping the
    ///   one whose measured root pressure
    ///   ([`crate::CommStats::node_in_msgs`], root entry) is lowest.
    ///
    /// Re-planning during a run is restricted to *settled* boundaries —
    /// `Ŵ` re-broadcast boundaries, where threshold state is refreshed
    /// everywhere — so the parity pins of the test suite stay
    /// deterministic. The segmented driver ([`crate::runner::churn`])
    /// applies `resolve_with` to each segment's stats there and
    /// migrates the running deployment when the answer differs from
    /// the shape it is on; the calibration drivers re-plan at run
    /// boundaries, a special case of that rule.
    ///
    /// # Example
    ///
    /// ```
    /// use cma_stream::{CommStats, Topology};
    ///
    /// let adaptive = Topology::Adaptive { max_fan_in: 8 };
    ///
    /// // Structural resolution (no measurements): within budget ⇒ star,
    /// // over budget ⇒ a tree at the budget fanout.
    /// assert_eq!(adaptive.plan(8), Topology::Star.plan(8));
    /// assert_eq!(adaptive.plan(64), Topology::Tree { fanout: 8 }.plan(64));
    ///
    /// // Measured resolution: 64 sites, but only 3 ever sent — the
    /// // star's *measured* fan-in is 3 ≤ 8, so the star stays.
    /// let mut calib = CommStats::new(64);
    /// for origin in [0, 1, 2, 1, 0] {
    ///     calib.record_hop(0, 1, 8);
    ///     calib.record_recv(0);
    ///     calib.record_leaf_send(origin);
    /// }
    /// assert_eq!(adaptive.resolve_with(64, &calib), Topology::Star);
    /// ```
    Adaptive {
        /// Maximum children per aggregation point the resolved plan may
        /// have (`≥ 2`).
        max_fan_in: usize,
    },
}

impl Topology {
    /// Resolves the topology for `m` sites into a concrete node layout.
    ///
    /// # Panics
    /// Panics if `m == 0`, or on `Tree { fanout < 2 }`.
    pub fn plan(&self, m: usize) -> TopologyPlan {
        assert!(m >= 1, "Topology::plan: need at least one site");
        match *self {
            Topology::Star => TopologyPlan {
                m,
                fanout: m,
                levels: Vec::new(),
            },
            Topology::Tree { fanout } => {
                assert!(fanout >= 2, "Topology::plan: tree fanout must be ≥ 2");
                // Normalise so `Tree { fanout ≥ m }` is structurally equal
                // to `Star` (same plan, same stats shape).
                let fanout = fanout.min(m);
                let mut levels = Vec::new();
                let mut cur = m;
                loop {
                    let next = cur.div_ceil(fanout);
                    if next <= 1 {
                        break;
                    }
                    levels.push(next);
                    cur = next;
                }
                TopologyPlan { m, fanout, levels }
            }
            // The zero-knowledge resolution of an adaptive topology:
            // keep every node's child count within budget, structurally.
            // Measured resolutions go through `resolve_with` /
            // `resolve_calibrated` first and plan the concrete result.
            Topology::Adaptive { max_fan_in } => {
                assert!(
                    max_fan_in >= 2,
                    "Topology::plan: adaptive max_fan_in must be ≥ 2"
                );
                self.resolve_structural(m).plan(m)
            }
        }
    }

    /// The zero-knowledge resolution of [`Topology::Adaptive`] for
    /// `count` sites: the flat star while `count ≤ max_fan_in`, else a
    /// `Tree { fanout: max_fan_in }` (every node's child count within
    /// budget by construction). `Star` and `Tree` return themselves.
    /// `count` is clamped to ≥ 1 so a deployment everyone has left
    /// still resolves.
    pub fn resolve_structural(&self, count: usize) -> Topology {
        match *self {
            Topology::Adaptive { max_fan_in } => {
                if count.max(1) <= max_fan_in {
                    Topology::Star
                } else {
                    Topology::Tree { fanout: max_fan_in }
                }
            }
            t => t,
        }
    }

    /// Resolves this topology to a concrete (non-adaptive) shape using
    /// one prior run's — or one prior segment's — measurements. `Star`
    /// and `Tree` return themselves; `Adaptive { max_fan_in }` keeps
    /// the flat star when the *measured* fan-in — the number of leaves
    /// that actually sent messages,
    /// [`crate::CommStats::active_leaves`] — is within budget, and
    /// otherwise splits into a `Tree { fanout: max_fan_in }` (every
    /// interior node and the root then have ≤ `max_fan_in` children by
    /// construction). The answer does not depend on the shape the
    /// measurements were taken on, so a running deployment re-plans by
    /// comparing it with the shape it is on.
    ///
    /// # Panics
    /// Panics if `m == 0` or on `Adaptive { max_fan_in < 2 }`.
    pub fn resolve_with(&self, m: usize, prior: &crate::CommStats) -> Topology {
        assert!(m >= 1, "Topology::resolve_with: need at least one site");
        match *self {
            Topology::Adaptive { max_fan_in } => {
                assert!(
                    max_fan_in >= 2,
                    "Topology::resolve_with: adaptive max_fan_in must be ≥ 2"
                );
                if m <= max_fan_in || prior.active_leaves() <= max_fan_in {
                    Topology::Star
                } else {
                    Topology::Tree { fanout: max_fan_in }
                }
            }
            t => t,
        }
    }

    /// The two-pass adaptive planner: resolves `Adaptive { max_fan_in }`
    /// to a concrete shape by *measuring*, through the `measure`
    /// closure (typically: run a short calibration prefix of the
    /// workload on the given topology and return its
    /// [`crate::CommStats`]).
    ///
    /// Pass 1 probes the flat star; if its measured fan-in
    /// ([`crate::CommStats::active_leaves`]) is within budget, the star
    /// stays and no tree probe runs. Pass 2 probes each candidate
    /// fanout ([`Topology::adaptive_candidates`], all within budget by
    /// construction) and keeps the one whose measured root pressure
    /// (`node_in_msgs` root entry) is lowest, breaking ties toward the
    /// larger fanout (fewer hops at equal pressure).
    ///
    /// `Star` and `Tree` return themselves without calling `measure`.
    ///
    /// # Panics
    /// Panics if `m == 0` or on `Adaptive { max_fan_in < 2 }`.
    pub fn resolve_calibrated(
        &self,
        m: usize,
        mut measure: impl FnMut(Topology) -> crate::CommStats,
    ) -> Topology {
        assert!(
            m >= 1,
            "Topology::resolve_calibrated: need at least one site"
        );
        let Topology::Adaptive { max_fan_in } = *self else {
            return *self;
        };
        assert!(
            max_fan_in >= 2,
            "Topology::resolve_calibrated: adaptive max_fan_in must be ≥ 2"
        );
        if m <= max_fan_in {
            return Topology::Star;
        }
        let star = measure(Topology::Star);
        if star.active_leaves() <= max_fan_in {
            return Topology::Star;
        }
        let mut best: Option<(u64, usize)> = None;
        for fanout in Topology::adaptive_candidates(max_fan_in, m) {
            let stats = measure(Topology::Tree { fanout });
            let pressure = stats.node_in_msgs.last().copied().unwrap_or(0);
            let better = match best {
                None => true,
                Some((bp, bk)) => pressure < bp || (pressure == bp && fanout > bk),
            };
            if better {
                best = Some((pressure, fanout));
            }
        }
        let (_, fanout) = best.expect("adaptive_candidates is never empty");
        Topology::Tree { fanout }
    }

    /// The candidate fanouts an `Adaptive { max_fan_in }` planner
    /// probes for `m` sites: the powers of two in `[2, max_fan_in]`
    /// plus `max_fan_in` itself — a logarithmic sweep of the in-budget
    /// shapes (each doubling halves the tree depth).
    ///
    /// # Panics
    /// Panics if `max_fan_in < 2`.
    pub fn adaptive_candidates(max_fan_in: usize, m: usize) -> Vec<usize> {
        assert!(
            max_fan_in >= 2,
            "adaptive_candidates: max_fan_in must be ≥ 2"
        );
        let cap = max_fan_in.min(m);
        let mut out = Vec::new();
        let mut k = 2usize;
        while k <= cap {
            out.push(k);
            k *= 2;
        }
        if out.last() != Some(&cap) {
            out.push(cap);
        }
        out
    }
}

/// Identity of one aggregation node handed to the factory closure of
/// [`crate::Runner::with_topology`]: protocols use it to split their
/// error budget across the tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AggNode {
    /// Internal level, 1-based (level 1 parents the leaves).
    pub level: usize,
    /// Index of the node within its level.
    pub index: usize,
    /// Number of leaf sites in this node's subtree.
    pub leaves: usize,
    /// Total internal levels in the plan.
    pub total_levels: usize,
}

/// The links one non-root node sits on, as named by
/// [`TopologyPlan::edges`] (transport node ids throughout).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct NodeEdges {
    /// Hop index of the upward link (`0` for a leaf's) — the
    /// [`crate::CommStats::per_level`] slot its traffic is charged to.
    pub hop: usize,
    /// The node upward messages cross to: an interior node or the root.
    pub up: usize,
    /// The node broadcasts arrive from; `None` for a gossip leaf.
    pub bc_from: Option<usize>,
}

/// The resolved aggregation layout for `m` sites: how many interior
/// nodes exist per level and how children map to parents.
///
/// Node indexing, used consistently by [`crate::CommStats`] and the
/// runner: interior nodes are numbered level-major bottom-up (all of
/// level 1, then level 2, …), and the root coordinator takes the last
/// index, [`TopologyPlan::root_index`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TopologyPlan {
    m: usize,
    fanout: usize,
    /// Interior nodes per level, bottom-up; empty for a (degenerate)
    /// star.
    levels: Vec<usize>,
}

impl TopologyPlan {
    /// Number of leaf sites `m`.
    pub fn sites(&self) -> usize {
        self.m
    }

    /// The per-node child bound (`m` for a star).
    pub fn fanout(&self) -> usize {
        self.fanout
    }

    /// Interior node counts per level, bottom-up.
    pub fn levels(&self) -> &[usize] {
        &self.levels
    }

    /// Number of interior (aggregator) levels; 0 means every site is a
    /// direct child of the root.
    pub fn internal_levels(&self) -> usize {
        self.levels.len()
    }

    /// Total interior aggregator nodes.
    pub fn internal_nodes(&self) -> usize {
        self.levels.iter().sum()
    }

    /// Hops a site message crosses to reach the root
    /// (`internal_levels() + 1`).
    pub fn hops(&self) -> usize {
        self.levels.len() + 1
    }

    /// Stats index of the root coordinator (interior nodes come first).
    pub fn root_index(&self) -> usize {
        self.internal_nodes()
    }

    /// `true` when the plan is a flat star (no interior nodes).
    pub fn is_flat(&self) -> bool {
        self.levels.is_empty()
    }

    /// The maximum number of children any aggregation point (interior
    /// node or root) has — the structural fan-in the tree exists to
    /// bound. `m` for a star.
    pub fn max_fan_in(&self) -> usize {
        if self.levels.is_empty() {
            self.m
        } else {
            // Some level-1 parent has a full complement of `fanout`
            // children (levels non-empty ⇒ m > fanout), and no node
            // anywhere has more.
            self.fanout
        }
    }

    /// Global aggregator index and within-level index of the parent of
    /// `child_local` (a leaf id for `level_idx == 0`, a within-level
    /// interior index otherwise) at 0-based interior level `level_idx`.
    pub fn parent_of(&self, level_idx: usize, child_local: usize) -> (usize, usize) {
        debug_assert!(level_idx < self.levels.len());
        let local = child_local / self.fanout;
        debug_assert!(local < self.levels[level_idx]);
        let offset: usize = self.levels[..level_idx].iter().sum();
        (offset + local, local)
    }

    /// Transport node id of leaf site `sid` (the leaves occupy
    /// `0..m`).
    pub fn leaf_node_id(&self, sid: usize) -> usize {
        debug_assert!(sid < self.m);
        sid
    }

    /// Transport node id of the interior aggregation point with global
    /// index `g` (interior nodes occupy `m..m + internal_nodes()`).
    pub fn agg_node_id(&self, g: usize) -> usize {
        debug_assert!(g < self.internal_nodes());
        self.m + g
    }

    /// Transport node id of the root coordinator (the largest id).
    pub fn root_node_id(&self) -> usize {
        self.m + self.internal_nodes()
    }

    /// Number of leaf sites under interior node `index` of 1-based level
    /// `level`.
    pub fn leaves_under(&self, level: usize, index: usize) -> usize {
        debug_assert!(level >= 1 && level <= self.levels.len());
        // Each level-ℓ node covers a contiguous block of fanoutˡ leaves.
        let span = self.fanout.saturating_pow(level as u32);
        let lo = index.saturating_mul(span).min(self.m);
        let hi = (index + 1).saturating_mul(span).min(self.m);
        hi - lo
    }

    /// The edge rule: the links non-root transport node `node` sits on
    /// under broadcast plane `plane` — the one place every driver asks
    /// which link a hop or a broadcast crosses.
    ///
    /// The upward hop runs to the node's tree parent (the root on a flat
    /// plan). A broadcast reaches the node from the root under
    /// [`BroadcastPlane::RootFanOut`] or on a flat plan, otherwise from
    /// its cascade parent; gossip leaves have no source, because the
    /// plane carries (and faults) their frames itself.
    pub(crate) fn edges(&self, plane: BroadcastPlane, node: usize) -> NodeEdges {
        let root = self.root_node_id();
        debug_assert!(node < root, "the root has no upward edge");
        let (hop, up) = if node < self.m {
            let up = if self.is_flat() {
                root
            } else {
                self.m + node / self.fanout
            };
            (0, up)
        } else {
            let (mut li, mut offset) = (0, 0);
            let g = node - self.m;
            while g >= offset + self.levels[li] {
                offset += self.levels[li];
                li += 1;
            }
            let up = if li + 1 < self.levels.len() {
                self.m + offset + self.levels[li] + (g - offset) / self.fanout
            } else {
                root
            };
            (li + 1, up)
        };
        let bc_from = match plane {
            BroadcastPlane::Gossip { .. } if node < self.m => None,
            BroadcastPlane::RootFanOut => Some(root),
            _ => Some(up),
        };
        NodeEdges { hop, up, bc_from }
    }

    /// Iterates the [`AggNode`] descriptors in global index order
    /// (level-major, bottom-up) — the order aggregators are constructed
    /// and stored in.
    pub fn agg_nodes(&self) -> impl Iterator<Item = AggNode> + '_ {
        let total = self.levels.len();
        self.levels
            .iter()
            .enumerate()
            .flat_map(move |(li, &count)| {
                (0..count).map(move |index| AggNode {
                    level: li + 1,
                    index,
                    leaves: self.leaves_under(li + 1, index),
                    total_levels: total,
                })
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn star_has_no_interior() {
        let p = Topology::Star.plan(50);
        assert!(p.is_flat());
        assert_eq!(p.internal_nodes(), 0);
        assert_eq!(p.hops(), 1);
        assert_eq!(p.max_fan_in(), 50);
        assert_eq!(p.root_index(), 0);
    }

    #[test]
    fn tree_with_fanout_m_degenerates_to_star() {
        let star = Topology::Star.plan(16);
        let tree = Topology::Tree { fanout: 16 }.plan(16);
        assert_eq!(star, tree);
        // fanout > m too.
        assert_eq!(star, Topology::Tree { fanout: 40 }.plan(16));
    }

    #[test]
    fn binary_tree_levels() {
        // m = 16, k = 2: levels 8, 4, 2, then root parents the 2.
        let p = Topology::Tree { fanout: 2 }.plan(16);
        assert_eq!(p.levels(), &[8, 4, 2]);
        assert_eq!(p.internal_nodes(), 14);
        assert_eq!(p.hops(), 4);
        assert_eq!(p.max_fan_in(), 2);
        assert_eq!(p.root_index(), 14);
    }

    #[test]
    fn ragged_tree_levels() {
        // m = 10, k = 4: ceil(10/4) = 3 parents, then root parents the 3.
        let p = Topology::Tree { fanout: 4 }.plan(10);
        assert_eq!(p.levels(), &[3]);
        assert_eq!(p.max_fan_in(), 4);
        // Parent mapping: leaves 0–3 → node 0, 4–7 → node 1, 8–9 → node 2.
        assert_eq!(p.parent_of(0, 3), (0, 0));
        assert_eq!(p.parent_of(0, 4), (1, 1));
        assert_eq!(p.parent_of(0, 9), (2, 2));
        // Leaf coverage.
        assert_eq!(p.leaves_under(1, 0), 4);
        assert_eq!(p.leaves_under(1, 1), 4);
        assert_eq!(p.leaves_under(1, 2), 2);
    }

    #[test]
    fn agg_nodes_cover_all_leaves_per_level() {
        for (m, k) in [(16, 2), (64, 4), (256, 8), (100, 3)] {
            let p = Topology::Tree { fanout: k }.plan(m);
            for level in 1..=p.internal_levels() {
                let covered: usize = p
                    .agg_nodes()
                    .filter(|n| n.level == level)
                    .map(|n| n.leaves)
                    .sum();
                assert_eq!(covered, m, "m={m} k={k} level={level}");
            }
            assert_eq!(p.agg_nodes().count(), p.internal_nodes());
        }
    }

    #[test]
    fn ancestors_climb_contiguous_blocks() {
        // m = 16, k = 2: levels [8, 4, 2]; global indices 0..14.
        let p = Topology::Tree { fanout: 2 }.plan(16);
        // Leaf 5 climbs through interiors 2 (level 0), 8+1=9 (level 1)
        // and 12+0=12 (level 2) to the root.
        let up = |node| p.edges(BroadcastPlane::TreeCascade, node).up;
        assert_eq!(up(5), p.agg_node_id(2));
        assert_eq!(up(p.agg_node_id(2)), p.agg_node_id(9));
        assert_eq!(up(p.agg_node_id(9)), p.agg_node_id(12));
        assert_eq!(up(p.agg_node_id(12)), p.root_node_id());
        // Node-id scheme: leaves, then interior nodes, then the root.
        assert_eq!(p.leaf_node_id(5), 5);
        assert_eq!(p.agg_node_id(9), 16 + 9);
        assert_eq!(p.root_node_id(), 16 + 14);
        let star = Topology::Star.plan(4);
        assert_eq!(star.root_node_id(), 4);
    }

    /// The edge rule names, at every hop of every leaf's climb, the same
    /// `(from, to)` pair as walking `parent_of`, and each node's
    /// broadcast source follows its plane.
    #[test]
    fn edge_rule_matches_parent_walk_at_every_hop() {
        let gossip = BroadcastPlane::Gossip {
            fanout: 2,
            rounds: 4,
            seed: 1,
        };
        let planes = [
            BroadcastPlane::RootFanOut,
            BroadcastPlane::TreeCascade,
            gossip,
        ];
        for m in [1usize, 7, 64] {
            for fanout in [2usize, 4] {
                let p = Topology::Tree { fanout }.plan(m);
                let root = p.root_node_id();
                for sid in 0..m {
                    // Walk parent_of: leaf → level-0 parent → … → root.
                    let mut from = p.leaf_node_id(sid);
                    let mut child = sid;
                    for hop in 0..p.hops() {
                        let to = if hop < p.internal_levels() {
                            let (g, local) = p.parent_of(hop, child);
                            child = local;
                            p.agg_node_id(g)
                        } else {
                            root
                        };
                        for plane in planes {
                            let e = p.edges(plane, from);
                            assert_eq!((e.hop, e.up), (hop, to), "m={m} k={fanout} sid={sid}");
                            let want = match plane {
                                BroadcastPlane::Gossip { .. } if hop == 0 => None,
                                BroadcastPlane::RootFanOut => Some(root),
                                _ => Some(to),
                            };
                            assert_eq!(e.bc_from, want, "m={m} k={fanout} {plane:?}");
                        }
                        from = to;
                    }
                    assert_eq!(from, root);
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "fanout must be ≥ 2")]
    fn rejects_unary_tree() {
        Topology::Tree { fanout: 1 }.plan(4);
    }

    #[test]
    fn adaptive_plans_structurally_without_measurements() {
        let a = Topology::Adaptive { max_fan_in: 8 };
        // Within budget: the star, exactly.
        assert_eq!(a.plan(8), Topology::Star.plan(8));
        assert_eq!(a.plan(3), Topology::Star.plan(3));
        // Over budget: the budget-fanout tree, exactly.
        assert_eq!(a.plan(64), Topology::Tree { fanout: 8 }.plan(64));
        assert_eq!(a.plan(64).max_fan_in(), 8);
        // The resolver is total: an emptied deployment (churn) resolves
        // as one site would, and static shapes resolve to themselves.
        assert_eq!(a.resolve_structural(0), Topology::Star);
        assert_eq!(a.resolve_structural(9), Topology::Tree { fanout: 8 });
        let tree = Topology::Tree { fanout: 4 };
        assert_eq!(tree.resolve_structural(2), tree);
    }

    /// The measured re-plan rule, case by case: the shape a segment ran
    /// on (flat / tree) × its measured fan-in (within / over budget).
    /// `resolve_with` answers from the measurement alone, so comparing
    /// it with the running shape yields grow, collapse, or stay.
    #[test]
    fn resolve_with_covers_the_four_measured_cases() {
        use crate::CommStats;
        let (m, budget) = (16, 4);
        let adaptive = Topology::Adaptive { max_fan_in: budget };
        let tree = Topology::Tree { fanout: budget };
        for (ran_on, senders, want) in [
            (Topology::Star, budget, Topology::Star), // stay flat
            (Topology::Star, budget + 1, tree),       // grow
            (tree, budget, Topology::Star),           // collapse
            (tree, m, tree),                          // stay a tree
        ] {
            let mut seg = CommStats::for_plan(&ran_on.plan(m));
            for leaf in 0..senders {
                seg.record_leaf_send(leaf);
            }
            assert_eq!(
                adaptive.resolve_with(m, &seg),
                want,
                "ran on {ran_on:?}, {senders} senders"
            );
            // A site count within budget is flat whatever was measured,
            // and static shapes ignore measurements altogether.
            assert_eq!(adaptive.resolve_with(budget, &seg), Topology::Star);
            assert_eq!(tree.resolve_with(m, &seg), tree);
        }
    }

    #[test]
    #[should_panic(expected = "max_fan_in must be ≥ 2")]
    fn adaptive_rejects_unary_budget() {
        Topology::Adaptive { max_fan_in: 1 }.plan(4);
    }

    #[test]
    fn adaptive_candidates_are_powers_of_two_plus_budget() {
        assert_eq!(Topology::adaptive_candidates(8, 100), vec![2, 4, 8]);
        assert_eq!(Topology::adaptive_candidates(6, 100), vec![2, 4, 6]);
        assert_eq!(Topology::adaptive_candidates(2, 100), vec![2]);
        assert_eq!(Topology::adaptive_candidates(16, 100), vec![2, 4, 8, 16]);
        // Capped by m.
        assert_eq!(Topology::adaptive_candidates(16, 5), vec![2, 4, 5]);
    }

    #[test]
    fn resolve_calibrated_picks_least_measured_root_pressure() {
        use crate::CommStats;
        let m = 64;
        // Synthetic probe: all leaves active (star over budget); root
        // pressure by fanout is 30 (k=2), 10 (k=4), 20 (k=8) — the
        // planner must pick fanout 4.
        let resolved = Topology::Adaptive { max_fan_in: 8 }.resolve_calibrated(m, |t| {
            let plan = t.plan(m);
            let mut s = CommStats::for_plan(&plan);
            for leaf in 0..m {
                s.record_leaf_send(leaf);
            }
            let root = plan.root_index();
            let pressure = match t {
                Topology::Star => 100,
                Topology::Tree { fanout: 2 } => 30,
                Topology::Tree { fanout: 4 } => 10,
                _ => 20,
            };
            for _ in 0..pressure {
                s.record_recv(root);
            }
            s
        });
        assert_eq!(resolved, Topology::Tree { fanout: 4 });
        // Ties break toward the larger fanout (fewer hops).
        let resolved = Topology::Adaptive { max_fan_in: 8 }.resolve_calibrated(m, |t| {
            let plan = t.plan(m);
            let mut s = CommStats::for_plan(&plan);
            for leaf in 0..m {
                s.record_leaf_send(leaf);
            }
            for _ in 0..10 {
                s.record_recv(plan.root_index());
            }
            s
        });
        assert_eq!(resolved, Topology::Tree { fanout: 8 });
        // Concrete topologies resolve to themselves without probing.
        let resolved = Topology::Tree { fanout: 4 }
            .resolve_calibrated(m, |_| panic!("concrete topologies never probe"));
        assert_eq!(resolved, Topology::Tree { fanout: 4 });
    }
}
