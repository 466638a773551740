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

use crate::hh::p1::P1Msg;
use crate::hh::p2::P2Msg;
use crate::hh::p3::P3Msg;
use crate::hh::p3wr::P3wrMsg;
use crate::hh::p4::P4Msg;
use crate::matrix::p1::MP1Msg;
use crate::matrix::p2::MP2Msg;
use crate::matrix::p3::MP3Msg;
use crate::matrix::p3wr::MP3wrMsg;
use crate::matrix::p4::MP4Msg;
use crate::matrix::Row;
use crate::sampling::WrHit;
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

/// A squared-norm mass (`frob_sq`, `shrink_loss`): finite and `≥ 0`.
fn read_mass(r: &mut WireReader<'_>) -> Option<f64> {
    r.f64().filter(|v| v.is_finite() && *v >= 0.0)
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

/// Inverse of [`put_mg`].
pub fn read_mg(r: &mut WireReader<'_>) -> Option<MgSummary> {
    let capacity = read_len(r)?;
    let total_weight = r.f64()?;
    let decrement_total = r.f64()?;
    let len = read_len(r)?;
    if capacity == 0 || len > capacity {
        return None;
    }
    let mut counters = Vec::with_capacity(len);
    for _ in 0..len {
        counters.push((r.u64()?, r.f64()?));
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
    let mut data = Vec::with_capacity(n);
    for _ in 0..n {
        data.push(read_finite(r)?);
    }
    Some(Matrix::from_vec(rows, cols, data))
}

/// Exact encoded size of a matrix.
pub fn matrix_bytes(m: &Matrix) -> u64 {
    16 + 8 * (m.rows() * m.cols()) as u64
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
    let mut row = Vec::with_capacity(n);
    for _ in 0..n {
        row.push(read_finite(r)?);
    }
    Some(row)
}

/// Exact encoded size of a row.
pub fn row_bytes(row: &[f64]) -> u64 {
    8 + 8 * row.len() as u64
}

fn put_hit(out: &mut Vec<u8>, hit: &WrHit) {
    put_usize(out, hit.sampler);
    put_f64(out, hit.rho);
}

fn read_hit(r: &mut WireReader<'_>) -> Option<WrHit> {
    Some(WrHit {
        sampler: r.usize()?,
        rho: r.f64()?,
    })
}

// ---------------------------------------------------------------------
// Heavy-hitter messages
// ---------------------------------------------------------------------

impl WireCodec for P1Msg {
    fn encode(&self, out: &mut Vec<u8>) {
        put_mg(out, &self.summary);
    }

    fn decode(r: &mut WireReader<'_>) -> Option<Self> {
        Some(P1Msg {
            summary: read_mg(r)?,
        })
    }

    fn encoded_len(&self) -> u64 {
        mg_bytes(&self.summary)
    }
}

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
            0 => Some(P2Msg::Total(r.f64()?)),
            1 => Some(P2Msg::Element(r.u64()?, r.f64()?)),
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

impl WireCodec for P3Msg {
    fn encode(&self, out: &mut Vec<u8>) {
        put_u64(out, self.item);
        put_f64(out, self.weight);
        put_f64(out, self.rho);
    }

    fn decode(r: &mut WireReader<'_>) -> Option<Self> {
        Some(P3Msg {
            item: r.u64()?,
            weight: r.f64()?,
            rho: r.f64()?,
        })
    }

    fn encoded_len(&self) -> u64 {
        24
    }
}

impl WireCodec for P3wrMsg {
    fn encode(&self, out: &mut Vec<u8>) {
        put_hit(out, &self.hit);
        put_u64(out, self.item);
        put_f64(out, self.weight);
    }

    fn decode(r: &mut WireReader<'_>) -> Option<Self> {
        Some(P3wrMsg {
            hit: read_hit(r)?,
            item: r.u64()?,
            weight: r.f64()?,
        })
    }

    fn encoded_len(&self) -> u64 {
        32
    }
}

impl WireCodec for P4Msg {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            P4Msg::Total(w) => {
                out.push(0);
                put_f64(out, *w);
            }
            P4Msg::Count(e, f) => {
                out.push(1);
                put_u64(out, *e);
                put_f64(out, *f);
            }
        }
    }

    fn decode(r: &mut WireReader<'_>) -> Option<Self> {
        match r.u8()? {
            0 => Some(P4Msg::Total(r.f64()?)),
            1 => Some(P4Msg::Count(r.u64()?, r.f64()?)),
            _ => None,
        }
    }

    fn encoded_len(&self) -> u64 {
        match self {
            P4Msg::Total(_) => 9,
            P4Msg::Count(..) => 17,
        }
    }
}

// ---------------------------------------------------------------------
// Matrix messages
// ---------------------------------------------------------------------

impl WireCodec for MP1Msg {
    fn encode(&self, out: &mut Vec<u8>) {
        put_matrix(out, &self.rows);
        put_f64(out, self.mass);
    }

    fn decode(r: &mut WireReader<'_>) -> Option<Self> {
        Some(MP1Msg {
            rows: read_matrix(r)?,
            mass: r.f64()?,
        })
    }

    fn encoded_len(&self) -> u64 {
        matrix_bytes(&self.rows) + 8
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
            0 => Some(MP2Msg::Scalar(r.f64()?)),
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

impl WireCodec for MP3Msg {
    fn encode(&self, out: &mut Vec<u8>) {
        put_row(out, &self.row);
        put_f64(out, self.rho);
    }

    fn decode(r: &mut WireReader<'_>) -> Option<Self> {
        Some(MP3Msg {
            row: read_row(r)?,
            rho: r.f64()?,
        })
    }

    fn encoded_len(&self) -> u64 {
        row_bytes(&self.row) + 8
    }
}

impl WireCodec for MP3wrMsg {
    fn encode(&self, out: &mut Vec<u8>) {
        put_hit(out, &self.hit);
        put_row(out, &self.row);
    }

    fn decode(r: &mut WireReader<'_>) -> Option<Self> {
        Some(MP3wrMsg {
            hit: read_hit(r)?,
            row: read_row(r)?,
        })
    }

    fn encoded_len(&self) -> u64 {
        16 + row_bytes(&self.row)
    }
}

impl WireCodec for MP4Msg {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            MP4Msg::Total(f) => {
                out.push(0);
                put_f64(out, *f);
            }
            MP4Msg::Z(z) => {
                out.push(1);
                put_row(out, z);
            }
        }
    }

    fn decode(r: &mut WireReader<'_>) -> Option<Self> {
        match r.u8()? {
            0 => Some(MP4Msg::Total(r.f64()?)),
            1 => Some(MP4Msg::Z(read_row(r)?)),
            _ => None,
        }
    }

    fn encoded_len(&self) -> u64 {
        match self {
            MP4Msg::Total(_) => 9,
            MP4Msg::Z(z) => 1 + row_bytes(z),
        }
    }
}

// ---------------------------------------------------------------------
// Sliding-window messages
// ---------------------------------------------------------------------

/// Byte-level codec for a window bucket summary — the per-family leg of
/// the generic [`SwMsg`] codec. A local trait (not `WireCodec`) because
/// the summary types live in `cma-sketch`.
pub trait SummaryCodec: Sized {
    /// Appends the summary's encoding.
    fn put_summary(&self, out: &mut Vec<u8>);
    /// Decodes one summary.
    fn read_summary(r: &mut WireReader<'_>) -> Option<Self>;
    /// Exact encoded size.
    fn summary_bytes(&self) -> u64;
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

    fn decode(r: &mut WireReader<'_>) -> Option<Self> {
        let latest = r.u64()?;
        let n = read_len(r)?;
        let mut buckets = Vec::with_capacity(n);
        for _ in 0..n {
            let oldest = r.u64()?;
            let newest = r.u64()?;
            let mass = r.f64()?;
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
            item: 5,
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
