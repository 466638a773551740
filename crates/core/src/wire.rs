//! [`WireCodec`] implementations for every protocol message type.
//!
//! The byte layout follows the conventions of `cma_stream::wire`:
//! fixed-width little-endian scalars, `u64`-length-prefixed sequences,
//! one-byte discriminant tags for enums, and Misra–Gries counters in
//! sorted key order so encoding is a pure function of message content.
//!
//! Each message's [`cma_stream::MessageCost::wire_bytes`] override is
//! the closed-form size of the encoding here; the `wire_roundtrip`
//! suite pins the two equal and pins `encode → decode` as the identity
//! (by re-encoded byte equality — sketches and matrices carry no
//! `PartialEq`).

use crate::flush::{mass_bytes, FlushKind, FlushMsg};
use crate::hh::p2::P2Msg;
use crate::matrix::p2::MP2Msg;
use crate::matrix::Row;
use crate::report::{ReportKind, ReportMsg};
use crate::sampling::{SampleEntry, SampleKind, WrHit, WrMsg};
use crate::window::SwMsg;
use cma_linalg::Matrix;
use cma_sketch::sliding_window::WinBucket;
use cma_sketch::{FrequentDirections, Item, MgSummary};
use cma_stream::{put_f64, put_u64, put_usize, WireCodec, WireReader};

/// Upper bound accepted for decoded sequence lengths, so a corrupted
/// length prefix fails the decode instead of attempting a huge
/// allocation.
const MAX_SEQ: usize = 1 << 32;

fn read_len(r: &mut WireReader<'_>) -> Option<usize> {
    let n = r.usize()?;
    (n <= MAX_SEQ).then_some(n)
}

/// A matrix or row entry: finite, or the decode fails — one NaN or ∞
/// would silently void every bound computed from the payload.
fn read_finite(r: &mut WireReader<'_>) -> Option<f64> {
    r.f64().filter(|v| v.is_finite())
}

/// A mass or a bound on one (`frob_sq`, `shrink_loss`, a Misra–Gries
/// total or counter, a flush's mass, a P4 weight or count, a sampled
/// record's weight or priority `ρ`, in a snapshot or a message frame):
/// finite and `≥ 0`.
pub(crate) fn read_mass(r: &mut WireReader<'_>) -> Option<f64> {
    r.f64().filter(|v| v.is_finite() && *v >= 0.0)
}

/// A broadcast mass estimate `Ŵ` (or the largest one sent): finite and
/// `≥ 1`, since every estimate starts at 1 and is broadcast as
/// `max(mass, 1)`. A sampling round's threshold `τ` obeys the same rule:
/// it starts at 1 and only doubles.
pub(crate) fn read_w_hat(r: &mut WireReader<'_>) -> Option<f64> {
    r.f64().filter(|w| w.is_finite() && *w >= 1.0)
}

/// A share of the error budget (`ε`, a node's threshold fraction):
/// strictly inside `(0, 1)`, which refuses NaN too.
pub(crate) fn read_fraction(r: &mut WireReader<'_>) -> Option<f64> {
    r.f64().filter(|&f| f > 0.0 && f < 1.0)
}

/// A window bucket's `[oldest, newest]` range and mass: a range that
/// runs backwards or a mass that [`read_mass`] refuses fails the
/// decode — either would void the straddling and expiry accounting.
pub(crate) fn read_bucket_head(r: &mut WireReader<'_>) -> Option<(u64, u64, f64)> {
    let oldest = r.u64()?;
    let newest = r.u64()?;
    let mass = read_mass(r)?;
    (oldest <= newest).then_some((oldest, newest, mass))
}

// ---------------------------------------------------------------------
// Payload helpers (sketches, matrices, rows) — free functions rather
// than `WireCodec` impls because the payload types live in other
// crates (orphan rule).
// ---------------------------------------------------------------------

/// `capacity, total_weight, decrement_total, len, (item, weight)*` with
/// counters in ascending item order. 32 + 16·len bytes.
pub fn put_mg(out: &mut Vec<u8>, s: &MgSummary) {
    put_usize(out, s.capacity());
    put_f64(out, s.total_weight());
    put_f64(out, s.observed_error_bound());
    let mut counters: Vec<(Item, f64)> = s.counters().collect();
    counters.sort_unstable_by_key(|&(e, _)| e);
    put_usize(out, counters.len());
    for (e, w) in counters {
        put_u64(out, e);
        put_f64(out, w);
    }
}

/// Inverse of [`put_mg`]; `None` on a negative or non-finite total or
/// decrement total, a counter that is not finite and `> 0`, or items
/// that are not strictly ascending (a repeated item would fold two
/// counters into one while the total still counts both).
pub fn read_mg(r: &mut WireReader<'_>) -> Option<MgSummary> {
    let capacity = read_len(r)?;
    let total_weight = read_mass(r)?;
    let decrement_total = read_mass(r)?;
    let len = read_len(r)?;
    if capacity == 0 || len > capacity {
        return None;
    }
    let mut counters: Vec<(Item, f64)> = Vec::with_capacity(r.capacity_for(len));
    for _ in 0..len {
        let item = r.u64()?;
        if counters.last().is_some_and(|&(prev, _)| prev >= item) {
            return None;
        }
        counters.push((item, read_mass(r).filter(|&c| c > 0.0)?));
    }
    Some(MgSummary::from_parts(
        capacity,
        counters,
        total_weight,
        decrement_total,
    ))
}

/// Exact encoded size of a Misra–Gries summary.
pub fn mg_bytes(s: &MgSummary) -> u64 {
    32 + 16 * s.len() as u64
}

/// `rows, cols, data row-major`. 16 + 8·rows·cols bytes.
pub fn put_matrix(out: &mut Vec<u8>, m: &Matrix) {
    put_usize(out, m.rows());
    put_usize(out, m.cols());
    for row in m.iter_rows() {
        for &v in row {
            put_f64(out, v);
        }
    }
}

/// Inverse of [`put_matrix`]; `None` on a non-finite entry.
pub fn read_matrix(r: &mut WireReader<'_>) -> Option<Matrix> {
    let rows = read_len(r)?;
    let cols = read_len(r)?;
    let n = rows.checked_mul(cols)?;
    if n > MAX_SEQ {
        return None;
    }
    let mut data = Vec::with_capacity(r.capacity_for(n));
    for _ in 0..n {
        data.push(read_finite(r)?);
    }
    Some(Matrix::from_vec(rows, cols, data))
}

/// Exact encoded size of a matrix.
pub fn matrix_bytes(m: &Matrix) -> u64 {
    16 + 8 * (m.rows() * m.cols()) as u64
}

/// `d, lower triangle row by row` of a symmetric `d×d` matrix.
/// 8 + 4·d(d+1) bytes.
pub(crate) fn put_sym(out: &mut Vec<u8>, g: &Matrix) {
    put_usize(out, g.rows());
    for (i, row) in g.iter_rows().enumerate() {
        for &v in &row[..=i] {
            put_f64(out, v);
        }
    }
}

/// Inverse of [`put_sym`] for a Gram `BᵀB`: the triangle is mirrored,
/// so the result is symmetric by construction. `None` on `d = 0`, a
/// non-finite entry or a negative diagonal entry, which no Gram has.
pub(crate) fn read_gram(r: &mut WireReader<'_>) -> Option<Matrix> {
    let d = read_len(r)?;
    let entries = d.checked_mul(d + 1)? / 2;
    // Every entry is 8 bytes, so the allocation is bounded by the input.
    if d == 0 || r.remaining() / 8 < entries {
        return None;
    }
    let mut g = Matrix::zeros(d, d);
    for i in 0..d {
        for j in 0..=i {
            let v = read_finite(r)?;
            g[(i, j)] = v;
            g[(j, i)] = v;
        }
        if g[(i, i)] < 0.0 {
            return None;
        }
    }
    Some(g)
}

/// `d, ell, sketch, frob_sq, shrink_loss`. 48 + 8·rows·d bytes.
pub fn put_fd(out: &mut Vec<u8>, fd: &FrequentDirections) {
    put_usize(out, fd.dim());
    put_usize(out, fd.ell());
    put_matrix(out, fd.sketch());
    put_f64(out, fd.frob_sq_seen());
    put_f64(out, fd.shrink_loss());
}

/// Inverse of [`put_fd`]; `None` on a non-finite sketch entry or a
/// negative or non-finite `frob_sq`/`shrink_loss`.
pub fn read_fd(r: &mut WireReader<'_>) -> Option<FrequentDirections> {
    let d = read_len(r)?;
    let ell = read_len(r)?;
    let sketch = read_matrix(r)?;
    let frob_sq = read_mass(r)?;
    let shrink_loss = read_mass(r)?;
    if d == 0 || ell < 2 || sketch.cols() != d || sketch.rows() > ell {
        return None;
    }
    Some(FrequentDirections::from_parts(
        d,
        ell,
        sketch,
        frob_sq,
        shrink_loss,
    ))
}

/// Exact encoded size of a Frequent Directions sketch.
pub fn fd_bytes(fd: &FrequentDirections) -> u64 {
    32 + matrix_bytes(fd.sketch())
}

/// `len, f64*`. 8 + 8·len bytes.
pub fn put_row(out: &mut Vec<u8>, row: &[f64]) {
    put_usize(out, row.len());
    for &v in row {
        put_f64(out, v);
    }
}

/// Inverse of [`put_row`]; `None` on a non-finite entry.
pub fn read_row(r: &mut WireReader<'_>) -> Option<Row> {
    let n = read_len(r)?;
    let mut row = Vec::with_capacity(r.capacity_for(n));
    for _ in 0..n {
        row.push(read_finite(r)?);
    }
    Some(row)
}

/// Exact encoded size of a row.
pub fn row_bytes(row: &[f64]) -> u64 {
    8 + 8 * row.len() as u64
}

// ---------------------------------------------------------------------
// P1 messages: one codec over the summary kind
// ---------------------------------------------------------------------

/// `summary, mass` — the mass only where the kind does not imply it:
/// HH-P1 `32 + 16·len` bytes, MT-P1 `24 + 8·rows·d`.
impl<K: FlushKind> WireCodec for FlushMsg<K> {
    fn encode(&self, out: &mut Vec<u8>) {
        self.summary.put_summary(out);
        if K::IMPLIED_MASS.is_none() {
            put_f64(out, self.mass);
        }
    }

    fn decode(r: &mut WireReader<'_>) -> Option<Self> {
        let summary = K::Shipped::read_summary(r)?;
        let mass = match K::IMPLIED_MASS {
            Some(implied) => implied(&summary),
            None => read_mass(r)?,
        };
        Some(FlushMsg { summary, mass })
    }

    fn encoded_len(&self) -> u64 {
        self.summary.summary_bytes() + mass_bytes::<K>()
    }
}

// ---------------------------------------------------------------------
// P2 messages
// ---------------------------------------------------------------------

impl WireCodec for P2Msg {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            P2Msg::Total(w) => {
                out.push(0);
                put_f64(out, *w);
            }
            P2Msg::Element(e, w) => {
                out.push(1);
                put_u64(out, *e);
                put_f64(out, *w);
            }
        }
    }

    fn decode(r: &mut WireReader<'_>) -> Option<Self> {
        match r.u8()? {
            0 => Some(P2Msg::Total(read_mass(r)?)),
            1 => Some(P2Msg::Element(r.u64()?, read_mass(r)?)),
            _ => None,
        }
    }

    fn encoded_len(&self) -> u64 {
        match self {
            P2Msg::Total(_) => 9,
            P2Msg::Element(..) => 17,
        }
    }
}

impl WireCodec for MP2Msg {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            MP2Msg::Scalar(f) => {
                out.push(0);
                put_f64(out, *f);
            }
            MP2Msg::Direction(v) => {
                out.push(1);
                put_row(out, v);
            }
        }
    }

    fn decode(r: &mut WireReader<'_>) -> Option<Self> {
        match r.u8()? {
            0 => Some(MP2Msg::Scalar(read_mass(r)?)),
            1 => Some(MP2Msg::Direction(read_row(r)?)),
            _ => None,
        }
    }

    fn encoded_len(&self) -> u64 {
        match self {
            MP2Msg::Scalar(_) => 9,
            MP2Msg::Direction(v) => 1 + row_bytes(v),
        }
    }
}

// ---------------------------------------------------------------------
// P4 messages: one codec over the payload kind
// ---------------------------------------------------------------------

/// `tag, value`: a tracker report (tag 0, its weight) or a state report
/// (tag 1): HH-P4 `Total` 9 bytes and `(e, count)` 17, MT-P4 z
/// `9 + 8d`.
impl<K: ReportKind> WireCodec for ReportMsg<K> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            ReportMsg::Total(w) => {
                out.push(0);
                put_f64(out, *w);
            }
            ReportMsg::Report(report) => {
                out.push(1);
                K::put_report(out, report);
            }
        }
    }

    fn decode(r: &mut WireReader<'_>) -> Option<Self> {
        match r.u8()? {
            0 => Some(ReportMsg::Total(read_mass(r)?)),
            1 => Some(ReportMsg::Report(K::read_report(r)?)),
            _ => None,
        }
    }

    fn encoded_len(&self) -> u64 {
        match self {
            ReportMsg::Total(_) => 9,
            ReportMsg::Report(report) => 1 + K::report_bytes(report),
        }
    }
}

// ---------------------------------------------------------------------
// Sampling messages: one codec per scheme, over the payload kind
// ---------------------------------------------------------------------

/// Appends a record's weight unless its payload implies it.
fn put_weight<K: SampleKind>(out: &mut Vec<u8>, weight: f64) {
    if K::IMPLIED_WEIGHT.is_none() {
        put_f64(out, weight);
    }
}

/// Reads a record's weight (a mass: finite and `≥ 0`), or recomputes it
/// from the payload.
fn read_weight<K: SampleKind>(r: &mut WireReader<'_>, payload: &K::Payload) -> Option<f64> {
    match K::IMPLIED_WEIGHT {
        Some(implied) => Some(implied(payload)),
        None => read_mass(r),
    }
}

/// Encoded size of a record: payload, plus its weight unless implied.
fn record_bytes<K: SampleKind>(payload: &K::Payload) -> u64 {
    K::payload_bytes(payload) + if K::IMPLIED_WEIGHT.is_none() { 8 } else { 0 }
}

/// `payload, weight, ρ` — the weight only where the kind sends it:
/// HH-P3 24 bytes, MT-P3 `16 + 8d`.
impl<K: SampleKind> WireCodec for SampleEntry<K> {
    fn encode(&self, out: &mut Vec<u8>) {
        K::put_payload(out, &self.payload);
        put_weight::<K>(out, self.weight);
        put_f64(out, self.rho);
    }

    fn decode(r: &mut WireReader<'_>) -> Option<Self> {
        let payload = K::read_payload(r)?;
        let weight = read_weight::<K>(r, &payload)?;
        Some(SampleEntry {
            payload,
            weight,
            rho: read_mass(r)?,
        })
    }

    fn encoded_len(&self) -> u64 {
        record_bytes::<K>(&self.payload) + 8
    }
}

/// `sampler, ρ, payload, weight` — the weight only where the kind sends
/// it: HH-P3wr 32 bytes, MT-P3wr `24 + 8d`.
impl<K: SampleKind> WireCodec for WrMsg<K> {
    fn encode(&self, out: &mut Vec<u8>) {
        put_usize(out, self.hit.sampler);
        put_f64(out, self.hit.rho);
        K::put_payload(out, &self.payload);
        put_weight::<K>(out, self.weight);
    }

    fn decode(r: &mut WireReader<'_>) -> Option<Self> {
        let hit = WrHit {
            sampler: r.usize()?,
            rho: read_mass(r)?,
        };
        let payload = K::read_payload(r)?;
        let weight = read_weight::<K>(r, &payload)?;
        Some(WrMsg {
            hit,
            payload,
            weight,
        })
    }

    fn encoded_len(&self) -> u64 {
        16 + record_bytes::<K>(&self.payload)
    }
}

// ---------------------------------------------------------------------
// Sliding-window messages
// ---------------------------------------------------------------------

/// Byte-level codec for a summary — the per-family leg of the generic
/// window and P1 codecs — or for what a P1 flush ships. A local trait
/// (not `WireCodec`) because the summary types live in other crates.
pub trait SummaryCodec: Sized {
    /// Appends the summary's encoding.
    fn put_summary(&self, out: &mut Vec<u8>);
    /// Decodes one summary.
    fn read_summary(r: &mut WireReader<'_>) -> Option<Self>;
    /// Exact encoded size.
    fn summary_bytes(&self) -> u64;
    /// Elements carried, in the paper's message units: live counters or
    /// sketch rows.
    fn elements(&self) -> u64;
}

impl SummaryCodec for MgSummary {
    fn put_summary(&self, out: &mut Vec<u8>) {
        put_mg(out, self);
    }

    fn read_summary(r: &mut WireReader<'_>) -> Option<Self> {
        read_mg(r)
    }

    fn summary_bytes(&self) -> u64 {
        mg_bytes(self)
    }

    fn elements(&self) -> u64 {
        self.len() as u64
    }
}

impl SummaryCodec for FrequentDirections {
    fn put_summary(&self, out: &mut Vec<u8>) {
        put_fd(out, self);
    }

    fn read_summary(r: &mut WireReader<'_>) -> Option<Self> {
        read_fd(r)
    }

    fn summary_bytes(&self) -> u64 {
        fd_bytes(self)
    }

    fn elements(&self) -> u64 {
        self.sketch().rows() as u64
    }
}

/// FD's sketch rows, as an MT-P1 flush ships them.
impl SummaryCodec for Matrix {
    fn put_summary(&self, out: &mut Vec<u8>) {
        put_matrix(out, self);
    }

    fn read_summary(r: &mut WireReader<'_>) -> Option<Self> {
        read_matrix(r)
    }

    fn summary_bytes(&self) -> u64 {
        matrix_bytes(self)
    }

    fn elements(&self) -> u64 {
        self.rows() as u64
    }
}

impl<S: SummaryCodec> WireCodec for SwMsg<S> {
    /// `latest, nbuckets, (oldest, newest, mass, summary)*`.
    fn encode(&self, out: &mut Vec<u8>) {
        put_u64(out, self.latest);
        put_usize(out, self.buckets.len());
        for b in &self.buckets {
            put_u64(out, b.oldest);
            put_u64(out, b.newest);
            put_f64(out, b.mass);
            b.summary.put_summary(out);
        }
    }

    /// `None` on a bucket whose mass is negative or non-finite, or
    /// whose `oldest > newest`.
    fn decode(r: &mut WireReader<'_>) -> Option<Self> {
        let latest = r.u64()?;
        let n = read_len(r)?;
        let mut buckets = Vec::with_capacity(r.capacity_for(n));
        for _ in 0..n {
            let (oldest, newest, mass) = read_bucket_head(r)?;
            let summary = S::read_summary(r)?;
            buckets.push(WinBucket {
                summary,
                mass,
                oldest,
                newest,
            });
        }
        Some(SwMsg { buckets, latest })
    }

    fn encoded_len(&self) -> u64 {
        16 + self
            .buckets
            .iter()
            .map(|b| 24 + b.summary.summary_bytes())
            .sum::<u64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hh::p3::P3Msg;

    #[test]
    fn mg_roundtrip_preserves_bounds() {
        let mut s = MgSummary::new(3);
        for (e, w) in [(7u64, 2.0), (3, 1.5), (9, 4.0), (1, 0.5)] {
            s.update(e, w);
        }
        let mut buf = Vec::new();
        put_mg(&mut buf, &s);
        assert_eq!(buf.len() as u64, mg_bytes(&s));
        let mut r = WireReader::new(&buf);
        let back = read_mg(&mut r).unwrap();
        assert!(r.is_empty());
        assert_eq!(back.capacity(), s.capacity());
        assert_eq!(back.total_weight(), s.total_weight());
        assert_eq!(back.observed_error_bound(), s.observed_error_bound());
        let mut again = Vec::new();
        put_mg(&mut again, &back);
        assert_eq!(buf, again);
    }

    #[test]
    fn fd_roundtrip_preserves_error_terms() {
        let mut fd = FrequentDirections::new(4, 3);
        for i in 0..12 {
            let row: Vec<f64> = (0..4).map(|j| ((i * 4 + j) as f64).sin()).collect();
            fd.update(&row);
        }
        let mut buf = Vec::new();
        put_fd(&mut buf, &fd);
        assert_eq!(buf.len() as u64, fd_bytes(&fd));
        let mut r = WireReader::new(&buf);
        let back = read_fd(&mut r).unwrap();
        assert!(r.is_empty());
        assert_eq!(back.frob_sq_seen(), fd.frob_sq_seen());
        assert_eq!(back.shrink_loss(), fd.shrink_loss());
        let mut again = Vec::new();
        put_fd(&mut again, &back);
        assert_eq!(buf, again);
    }

    #[test]
    fn malformed_buffers_decode_to_none() {
        let msg = P3Msg {
            payload: 5,
            weight: 2.0,
            rho: 0.25,
        };
        let buf = msg.to_wire();
        assert_eq!(buf.len() as u64, msg.encoded_len());
        // Truncation at every prefix must fail cleanly.
        for cut in 0..buf.len() {
            assert!(P3Msg::decode(&mut WireReader::new(&buf[..cut])).is_none());
        }
        // Unknown enum tag.
        assert!(P2Msg::decode(&mut WireReader::new(&[9u8; 17])).is_none());
        // Absurd length prefix refuses to allocate.
        let mut huge = Vec::new();
        put_u64(&mut huge, u64::MAX);
        assert!(read_row(&mut WireReader::new(&huge)).is_none());
    }
}
