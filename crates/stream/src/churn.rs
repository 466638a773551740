//! Membership churn: the vocabulary for deployments whose site set
//! changes mid-stream.
//!
//! The paper's protocols are stated for a fixed set of `m` sites, each
//! withholding a slice of the total `ε` error budget. When a site
//! *leaves*, its withheld summary must complete its climb to the root
//! (conservation — the mass re-enters the certified bound instead of
//! evaporating), and the budget must be re-split over the remaining
//! `m' + I` withholding nodes. When a site *joins*, it starts from the
//! coordinator's current broadcast state (`Ŵ`/`τ`) and picks up its
//! share of the budget at the next re-split.
//!
//! The driver (`runner::churn`) keeps the *structural* site universe
//! fixed — all `M` site slots exist for the whole run, and churn
//! toggles each slot's **activity**. That preserves `SiteId` stability
//! (messages stay origin-tagged with ids the coordinator knows) and
//! keeps [`crate::CommStats`] accounting well-formed across re-splits.
//! What changes at a churn boundary is the [`Membership`] — how many
//! slots are live — and every [`ChurnBudget`] node re-splits its
//! threshold share accordingly.
//!
//! Three traits carry the protocol-side contract:
//!
//! * [`ChurnBudget`] — re-split a node's budget share when membership
//!   changes (default: no-op, correct for the sampling protocols whose
//!   thresholds are global, not per-node).
//! * [`ChurnSite`] — a [`Site`] that can *depart*: emit every withheld
//!   partial as ordinary up-messages and go quiet.
//! * [`ChurnCoordinator`] — a [`Coordinator`] that can replay its
//!   current broadcast for a joining site.

use crate::coordinator::Coordinator;
use crate::site::Site;
use crate::SiteId;

/// A deployment's withholding-node census at one point in time: how
/// many **active** leaves and interior nodes share the `ε` budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Membership {
    /// Active leaf sites `m'`.
    pub sites: usize,
    /// Interior aggregator nodes `I` of the current plan.
    pub interior: usize,
    /// Interior levels `L` of the current plan (0 for a star).
    pub levels: usize,
    /// Whether the current plan is flat (no interior nodes).
    pub flat: bool,
}

impl Membership {
    /// A flat star over `m` active sites.
    pub fn star(sites: usize) -> Self {
        Membership {
            sites,
            interior: 0,
            levels: 0,
            flat: true,
        }
    }

    /// Total withholding nodes `m' + I`.
    pub fn nodes(&self) -> usize {
        self.sites + self.interior
    }
}

/// One budget re-split: the membership a node's current threshold was
/// budgeted for, and the membership it must now serve.
///
/// For interior nodes, `covered_prev`/`covered_next` carry the number
/// of leaves the node's subtree covers under each membership — the
/// *active* count on the `next` side, so that per-level interior shares
/// sum to exactly the level budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BudgetShare {
    /// Membership the node's current threshold fraction was split for.
    pub prev: Membership,
    /// Membership to re-split for.
    pub next: Membership,
    /// Leaves covered by this node under `prev` (structural; ≥ 1 for
    /// any real interior node). `1` for leaf sites and coordinators.
    pub covered_prev: usize,
    /// Active leaves covered by this node under `next`.
    pub covered_next: usize,
}

impl BudgetShare {
    /// A leaf-or-root share (no subtree coverage involved).
    pub fn node(prev: Membership, next: Membership) -> Self {
        BudgetShare {
            prev,
            next,
            covered_prev: 1,
            covered_next: 1,
        }
    }
}

/// A protocol node whose error-budget share can be re-split when the
/// active membership changes.
///
/// The default is a **no-op**: correct for every node whose thresholds
/// do not depend on the member count (the sampling protocols' global
/// `τ`, plain relays). Nodes whose thresholds encode a `1/(m+I)`-style
/// split override it with a pure rescale from `share.prev` to
/// `share.next` — the driver guarantees each node is re-budgeted
/// exactly once per re-split, from the membership its threshold was
/// last budgeted for.
pub trait ChurnBudget {
    /// Re-splits this node's budget share for a membership change.
    fn rebudget(&mut self, _share: &BudgetShare) {}
}

/// Relays hold no budgeted threshold state — membership changes never
/// touch them — so every filtered relay re-splits as a no-op (and plain
/// relays likewise). Blanket impls live here because the orphan rule
/// keeps downstream crates from writing them per filter type.
impl<F: crate::aggregator::RelayFilter> ChurnBudget for crate::aggregator::FilteredRelay<F> {}

impl<M, B> ChurnBudget for crate::aggregator::Relay<M, B> {}

/// A [`Site`] that participates in churn.
pub trait ChurnSite: Site + ChurnBudget {
    /// Leaves the deployment: emits **everything** the site withholds
    /// as ordinary up-messages (ignoring thresholds) and resets the
    /// local state to empty. The driver delivers the messages to the
    /// coordinator, so the departed mass re-enters the certified bound
    /// instead of being lost.
    fn depart(&mut self, out: &mut Vec<Self::UpMsg>);
}

/// A [`Coordinator`] that supports joins and recovery.
pub trait ChurnCoordinator: Coordinator + ChurnBudget {
    /// The current broadcast value (`Ŵ`, `F̂` or `τ`), replayed to a
    /// joining site so it starts from live threshold state instead of
    /// the deployment default. `None` before the first broadcast-worthy
    /// state exists.
    fn current_broadcast(&self) -> Option<Self::Broadcast>;

    /// Brings the live state to the form its [`crate::WireCodec`]
    /// encoding restores to, just before a snapshot captures it — for a
    /// coordinator whose encoding normalises state it holds in a cheaper
    /// unsettled form. Without this a crash at the snapshot boundary
    /// would resume from a different (equally certified) state than the
    /// crash-free run. The default does nothing.
    fn settle_for_snapshot(&mut self) {}
}

/// One membership event at a churn boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChurnEvent {
    /// Site slot `SiteId` becomes active (starts consuming its stream
    /// from the coordinator's current broadcast state).
    Join(SiteId),
    /// Site slot `SiteId` departs (final flush, then goes quiet).
    Leave(SiteId),
}

/// A deterministic churn schedule: events pinned to segment
/// boundaries. Boundary `k` fires *before* segment `k` is driven
/// (boundary 0 precedes all input).
#[derive(Debug, Clone, Default)]
pub struct ChurnSchedule {
    /// `(boundary, event)` pairs, in schedule order.
    pub events: Vec<(usize, ChurnEvent)>,
}

impl ChurnSchedule {
    /// An empty (zero-churn) schedule.
    pub fn new() -> Self {
        ChurnSchedule::default()
    }

    /// Builder-style: adds an event at a segment boundary.
    pub fn at(mut self, boundary: usize, event: ChurnEvent) -> Self {
        self.events.push((boundary, event));
        self
    }

    /// Events scheduled for one boundary, in schedule order.
    pub fn events_at(&self, boundary: usize) -> impl Iterator<Item = ChurnEvent> + '_ {
        self.events
            .iter()
            .filter(move |(b, _)| *b == boundary)
            .map(|&(_, e)| e)
    }

    /// The last boundary with a scheduled event, if any.
    pub fn max_boundary(&self) -> Option<usize> {
        self.events.iter().map(|&(b, _)| b).max()
    }

    /// Initial activity of each of `m` site slots: a slot starts
    /// **inactive** iff its earliest scheduled event is a
    /// [`ChurnEvent::Join`] (it joins later); every other slot starts
    /// active.
    pub fn initial_activity(&self, m: usize) -> Vec<bool> {
        let mut active = vec![true; m];
        let mut earliest: Vec<Option<(usize, usize)>> = vec![None; m];
        for (idx, &(boundary, event)) in self.events.iter().enumerate() {
            let s = match event {
                ChurnEvent::Join(s) | ChurnEvent::Leave(s) => s,
            };
            if s >= m {
                continue;
            }
            // Ties at one boundary resolve in schedule order.
            if earliest[s].is_none_or(|(b, i)| (boundary, idx) < (b, i)) {
                earliest[s] = Some((boundary, idx));
            }
        }
        for (s, first) in earliest.iter().enumerate() {
            if let Some((_, idx)) = first {
                if matches!(self.events[*idx].1, ChurnEvent::Join(_)) {
                    active[s] = false;
                }
            }
        }
        active
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn membership_counts_nodes() {
        let m = Membership::star(8);
        assert_eq!(m.nodes(), 8);
        let t = Membership {
            sites: 14,
            interior: 5,
            levels: 2,
            flat: false,
        };
        assert_eq!(t.nodes(), 19);
    }

    #[test]
    fn initial_activity_from_first_event() {
        let sched = ChurnSchedule::new()
            .at(2, ChurnEvent::Join(1))
            .at(1, ChurnEvent::Leave(2))
            .at(3, ChurnEvent::Join(2)); // leaves first, rejoins later
        let act = sched.initial_activity(4);
        assert_eq!(act, vec![true, false, true, true]);
        assert_eq!(sched.max_boundary(), Some(3));
        let at1: Vec<_> = sched.events_at(1).collect();
        assert_eq!(at1, vec![ChurnEvent::Leave(2)]);
    }

    #[test]
    fn zero_churn_schedule_is_all_active() {
        let sched = ChurnSchedule::new();
        assert_eq!(sched.initial_activity(3), vec![true; 3]);
        assert_eq!(sched.max_boundary(), None);
    }

    #[test]
    fn default_rebudget_is_noop() {
        struct Plain(u32);
        impl ChurnBudget for Plain {}
        let mut p = Plain(7);
        p.rebudget(&BudgetShare::node(Membership::star(4), Membership::star(2)));
        assert_eq!(p.0, 7);
    }
}
