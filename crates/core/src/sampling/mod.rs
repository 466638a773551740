//! The distributed sampling protocols, written once: P3 (priority
//! sampling without replacement, §4.3) and P3wr (with replacement,
//! §4.3.1).
//!
//! The paper defines MT-P3 as HH-P3 with each row `a` treated as an
//! element of weight `‖a‖²` (§5.3), and MT-P3wr the same way from
//! HH-P3wr. So each scheme here is **one deployment, generic over a
//! payload [`SampleKind`]**:
//!
//! | scheme | module | site | coordinator | relay filter | message |
//! |---|---|---|---|---|---|
//! | without replacement | [`wor`] | [`PrioritySite`] | [`RoundCoordinator`] | [`PriorityFilter`] | [`SampleEntry`] |
//! | with replacement | [`wr`] | [`WrSite`] | [`WrCoordinator`] | [`WrFilter`] | [`WrMsg`] |
//!
//! Each type is both the sampler's algorithm (usable on its own, as the
//! unit tests do) and the protocol role: every `Site`, `Coordinator`,
//! `RelayFilter`, churn and snapshot-codec impl is written once per
//! scheme, as are the message codecs in [`crate::wire`] and each
//! scheme's `deploy` / `deploy_topology` / `make_aggregator`.
//!
//! A kind supplies only what differs between the two payloads:
//!
//! * **the weight check at the site** ([`SampleKind::weigh`]):
//!   [`ItemKind`] asserts a finite positive weight; [`RowKind`] computes
//!   `‖a‖²` (asserting finite entries) and skips zero rows, which carry
//!   no weight and can never be sampled;
//! * **the payload codec**: an item label (8 bytes) or a length-prefixed
//!   row (`8 + 8d` bytes);
//! * **whether the weight travels on the wire**
//!   ([`SampleKind::IMPLIED_WEIGHT`]): HH messages carry it; MT messages
//!   omit it and the receiver recomputes `‖a‖²` from the row;
//! * **the coordinator header** ([`SampleKind::Header`]): MT's dimension
//!   `d`, which the estimator needs to shape an empty sketch and which
//!   leads the snapshot; HH has none.
//!
//! The config type picks the kind ([`SamplingConfig`]): an
//! [`HhConfig`] deploys over [`ItemKind`], a [`MatrixConfig`] over
//! [`RowKind`]. That is why `hh::p3::deploy(&cfg)` and
//! `matrix::p3::deploy(&cfg)` are the same function, [`wor::deploy`].
//! P4 ([`crate::report`]) deploys over the same two kinds.
//!
//! What stays per protocol is only the estimator: `hh::p3` and
//! `hh::p3wr` implement [`crate::hh::HhEstimator`] (a per-item estimate
//! map), `matrix::p3` and `matrix::p3wr` implement
//! [`crate::matrix::MatrixEstimator`] (the sampled rows stacked,
//! rescaled to their estimator weight), each beside type aliases under
//! the protocol's historical names (`P3Site`, `MP3wrCoordinator`, …).
//!
//! Shared behaviour, whatever the kind:
//!
//! * Batched execution is the `Site` trait's default `observe_batch`
//!   (loop `observe`, pause at the first message): the RNG is consumed
//!   in exactly the per-item order and `τ` only changes after a pause.
//! * The threshold `τ` is global — no per-node budget to re-split — and
//!   sites withhold nothing (every clearing record is forwarded on
//!   arrival), so a departing site flushes nothing and a joiner starts
//!   from the coordinator's live `τ`.
//! * Interior nodes relay exactly: sampled records are not mergeable the
//!   way sketches are, so a [`cma_stream::FilteredRelay`] forwards them
//!   verbatim, dropping only records its filter proves cannot change the
//!   root's state.

pub mod wor;
pub mod wr;

pub use wor::{PriorityAggregator, PriorityFilter, PrioritySite, RoundCoordinator, SampleEntry};
pub use wr::{WrAggregator, WrCoordinator, WrFilter, WrHit, WrMsg, WrSite, WrSlot};

use crate::config::{HhConfig, MatrixConfig};
use crate::hh::{validate_weight, Item, WeightedItem};
use crate::matrix::{row_weight, Row};
use crate::wire::{put_row, read_row, row_bytes};
use cma_stream::{put_u64, put_usize, WireReader};
use std::fmt;

/// What a sampled record carries and how it is weighed and encoded —
/// everything the two payloads of a sampling scheme differ in (module
/// docs).
pub trait SampleKind: Clone + fmt::Debug {
    /// One arrival at a site.
    type Input;
    /// What a sampled record carries to the coordinator and keeps there.
    type Payload: Clone + fmt::Debug;
    /// Deployment data the coordinator's estimator needs beyond the
    /// sample, written ahead of its snapshot.
    type Header: Copy + fmt::Debug;

    /// How a message carries the record's weight: `None` writes it as
    /// an `f64`; `Some(f)` omits it and the receiver recomputes
    /// `f(payload)`.
    const IMPLIED_WEIGHT: Option<fn(&Self::Payload) -> f64>;

    /// The site's weight check: splits an arrival into its payload and
    /// weight, or `None` for an arrival that carries no weight.
    ///
    /// # Panics
    /// Panics on a weight the protocols cannot sample.
    fn weigh(input: Self::Input) -> Option<(Self::Payload, f64)>;

    /// Appends a payload's encoding.
    fn put_payload(out: &mut Vec<u8>, payload: &Self::Payload);
    /// Inverse of [`SampleKind::put_payload`].
    fn read_payload(r: &mut WireReader<'_>) -> Option<Self::Payload>;
    /// Exact encoded size of a payload.
    fn payload_bytes(payload: &Self::Payload) -> u64;

    /// Appends a coordinator header's encoding.
    fn put_header(out: &mut Vec<u8>, header: &Self::Header);
    /// Inverse of [`SampleKind::put_header`].
    fn read_header(r: &mut WireReader<'_>) -> Option<Self::Header>;
}

/// The heavy-hitter payload: an item label, its weight sent beside it.
#[derive(Debug, Clone, Copy)]
pub struct ItemKind;

impl SampleKind for ItemKind {
    type Input = WeightedItem;
    type Payload = Item;
    type Header = ();

    const IMPLIED_WEIGHT: Option<fn(&Item) -> f64> = None;

    fn weigh((item, weight): WeightedItem) -> Option<(Item, f64)> {
        validate_weight(weight);
        Some((item, weight))
    }

    fn put_payload(out: &mut Vec<u8>, item: &Item) {
        put_u64(out, *item);
    }

    fn read_payload(r: &mut WireReader<'_>) -> Option<Item> {
        r.u64()
    }

    fn payload_bytes(_: &Item) -> u64 {
        8
    }

    fn put_header(_: &mut Vec<u8>, _: &()) {}

    fn read_header(_: &mut WireReader<'_>) -> Option<()> {
        Some(())
    }
}

/// The matrix payload: a row, weighing `‖a‖²`; the coordinator header
/// is the dimension `d`.
#[derive(Debug, Clone, Copy)]
pub struct RowKind;

impl SampleKind for RowKind {
    type Input = Row;
    type Payload = Row;
    type Header = usize;

    const IMPLIED_WEIGHT: Option<fn(&Row) -> f64> = Some(|row| row_weight(row));

    fn weigh(row: Row) -> Option<(Row, f64)> {
        let w = row_weight(&row);
        (w != 0.0).then_some((row, w))
    }

    fn put_payload(out: &mut Vec<u8>, row: &Row) {
        put_row(out, row);
    }

    fn read_payload(r: &mut WireReader<'_>) -> Option<Row> {
        read_row(r)
    }

    fn payload_bytes(row: &Row) -> u64 {
        row_bytes(row)
    }

    fn put_header(out: &mut Vec<u8>, dim: &usize) {
        put_usize(out, *dim);
    }

    /// `None` on `d = 0`, which no deployment has.
    fn read_header(r: &mut WireReader<'_>) -> Option<usize> {
        r.usize().filter(|&dim| dim >= 1)
    }
}

/// A protocol family's configuration, as the sampling deployments read
/// it. The config type picks the payload kind.
pub trait SamplingConfig {
    /// The payload the family samples.
    type Kind: SampleKind;
    /// Number of sites `m`.
    fn sites(&self) -> usize;
    /// Error parameter `ε`.
    fn epsilon(&self) -> f64;
    /// Sample size `s`.
    fn sample_size(&self) -> usize;
    /// Per-site RNG seed.
    fn site_seed(&self, site: usize) -> u64;
    /// The coordinator header.
    fn header(&self) -> <Self::Kind as SampleKind>::Header;
}

impl SamplingConfig for HhConfig {
    type Kind = ItemKind;

    fn sites(&self) -> usize {
        self.sites
    }

    fn epsilon(&self) -> f64 {
        self.epsilon
    }

    fn sample_size(&self) -> usize {
        HhConfig::sample_size(self)
    }

    fn site_seed(&self, site: usize) -> u64 {
        HhConfig::site_seed(self, site)
    }

    fn header(&self) {}
}

impl SamplingConfig for MatrixConfig {
    type Kind = RowKind;

    fn sites(&self) -> usize {
        self.sites
    }

    fn epsilon(&self) -> f64 {
        self.epsilon
    }

    fn sample_size(&self) -> usize {
        MatrixConfig::sample_size(self)
    }

    fn site_seed(&self, site: usize) -> u64 {
        MatrixConfig::site_seed(self, site)
    }

    fn header(&self) -> usize {
        self.dim
    }
}
