//! Compact wire encoding for protocol messages.
//!
//! Every logical message a protocol ships — up-messages, broadcast
//! payloads, window buckets — gets a byte-level encoding so that
//! communication can be measured in *bytes*, not just in the paper's
//! message units (the distributed-PCA line of work states its one-round
//! merge bounds in communication words; see PAPERS.md). The encoding is
//! deliberately simple and deterministic:
//!
//! * scalars are fixed-width little-endian (`u64`/`f64` are 8 bytes,
//!   `u32` is 4, a discriminant tag is 1);
//! * sequences are a `u64` length followed by the elements;
//! * map-shaped payloads (Misra–Gries counters) are encoded in sorted
//!   key order, so encoding is a pure function of the summary's
//!   *contents*, never of hash-map iteration order.
//!
//! [`WireCodec`] is the encode/decode pair; [`WireSized`] is the
//! lighter "how many bytes would I be" trait used for broadcast
//! payloads, where the runners only need the size. The `wire_roundtrip`
//! suite pins `encode → decode` as the identity and pins
//! [`WireCodec::encoded_len`] equal to both the actual buffer length
//! and the bytes reported to [`crate::CommStats`] via
//! [`crate::MessageCost::wire_bytes`].

/// A type with an exact, content-determined encoded size in bytes.
///
/// Implemented by broadcast payload types: the runners charge
/// `bytes_down` structurally at fan-out time and only need the size,
/// not the bytes themselves.
pub trait WireSized {
    /// Encoded size in bytes.
    fn wire_size(&self) -> u64;
}

impl WireSized for f64 {
    fn wire_size(&self) -> u64 {
        8
    }
}

impl WireSized for u64 {
    fn wire_size(&self) -> u64 {
        8
    }
}

impl WireSized for u32 {
    fn wire_size(&self) -> u64 {
        4
    }
}

impl WireSized for () {
    fn wire_size(&self) -> u64 {
        0
    }
}

/// Cursor over an encoded buffer, consumed by [`WireCodec::decode`].
///
/// Every read returns `None` past the end instead of panicking, so a
/// truncated buffer surfaces as a decode failure, never a crash.
#[derive(Debug)]
pub struct WireReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> WireReader<'a> {
    /// Wraps an encoded buffer for reading from the start.
    pub fn new(buf: &'a [u8]) -> Self {
        WireReader { buf, pos: 0 }
    }

    /// True when every byte has been consumed.
    pub fn is_empty(&self) -> bool {
        self.pos >= self.buf.len()
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos.min(self.buf.len())
    }

    /// A safe pre-allocation for `n` decoded elements: `n` capped by the
    /// bytes left. Every element of this crate's and `cma-core`'s codecs
    /// takes at least one byte, so a larger count is corrupt and fails
    /// the decode once the bytes run out — the cap keeps it from
    /// aborting the process on an allocation first.
    pub fn capacity_for(&self, n: usize) -> usize {
        n.min(self.remaining())
    }

    /// Reads one byte (codecs use this for discriminant tags).
    pub fn u8(&mut self) -> Option<u8> {
        let b = *self.buf.get(self.pos)?;
        self.pos += 1;
        Some(b)
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Option<u64> {
        let end = self.pos.checked_add(8)?;
        let bytes = self.buf.get(self.pos..end)?;
        self.pos = end;
        Some(u64::from_le_bytes(bytes.try_into().ok()?))
    }

    /// Reads a little-endian `f64` (bit pattern preserved exactly).
    pub fn f64(&mut self) -> Option<f64> {
        self.u64().map(f64::from_bits)
    }

    /// Reads a `usize` encoded as `u64`, refusing values that do not
    /// fit the platform's pointer width.
    pub fn usize(&mut self) -> Option<usize> {
        usize::try_from(self.u64()?).ok()
    }
}

/// Little-endian `u64` append.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Little-endian `f64` append (bit pattern preserved exactly).
pub fn put_f64(out: &mut Vec<u8>, v: f64) {
    put_u64(out, v.to_bits());
}

/// `usize` appended as a `u64`.
pub fn put_usize(out: &mut Vec<u8>, v: usize) {
    put_u64(out, v as u64);
}

/// Encode/decode pair for one protocol message type.
///
/// Decoding a buffer produced by `encode` must return a message that
/// re-encodes to the same bytes (several payload types — sketches,
/// matrices — have no `PartialEq`, so byte-equality after re-encoding
/// is the canonical identity check).
pub trait WireCodec: Sized {
    /// Appends this message's encoding to `out`.
    fn encode(&self, out: &mut Vec<u8>);

    /// Decodes one message from the reader, or `None` on a malformed or
    /// truncated buffer.
    fn decode(r: &mut WireReader<'_>) -> Option<Self>;

    /// Exact number of bytes [`WireCodec::encode`] appends. The default
    /// scratch-encodes; message types override it with closed-form
    /// arithmetic where the size matters on a hot path.
    fn encoded_len(&self) -> u64 {
        let mut buf = Vec::new();
        self.encode(&mut buf);
        buf.len() as u64
    }

    /// Convenience: encodes into a fresh buffer.
    fn to_wire(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        self.encode(&mut buf);
        buf
    }
}

impl WireCodec for f64 {
    fn encode(&self, out: &mut Vec<u8>) {
        put_f64(out, *self);
    }

    fn decode(r: &mut WireReader<'_>) -> Option<Self> {
        r.f64()
    }

    fn encoded_len(&self) -> u64 {
        8
    }
}

impl WireCodec for u64 {
    fn encode(&self, out: &mut Vec<u8>) {
        put_u64(out, *self);
    }

    fn decode(r: &mut WireReader<'_>) -> Option<Self> {
        r.u64()
    }

    fn encoded_len(&self) -> u64 {
        8
    }
}

/// One versioned broadcast frame of the gossip plane: a monotone
/// version counter stamped by the coordinator, followed by the
/// broadcast payload it carried at that version.
///
/// The version makes dissemination idempotent under the faults a real
/// wire manufactures: a duplicated frame re-announces a version the
/// receiver already holds (no-op), and a delayed or reordered frame
/// arrives announcing an *older* version than the receiver's, which the
/// monotone check refuses — a stale `Ŵ` can never regress a site's
/// threshold state. See [`crate::BroadcastPlane::Gossip`].
#[derive(Debug, Clone, PartialEq)]
pub struct GossipFrame<B> {
    /// Monotone event counter: the coordinator stamps each broadcast
    /// event with the next version; receivers adopt a frame only when
    /// its version exceeds what they hold.
    pub version: u64,
    /// The broadcast payload (`Ŵ`, spectral threshold, …) as of
    /// `version`.
    pub payload: B,
}

/// The gossip plane's pull request: in a pull round every leaf sends
/// its current version to one seeded peer, and a peer holding a newer
/// version answers with its [`GossipFrame`]. Only versions cross in
/// this direction, never payloads; it rides its own links, so it can
/// never be mistaken for a frame. See [`crate::BroadcastPlane::Gossip`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GossipDigest {
    /// The sender's current version.
    pub version: u64,
}

impl<B: WireSized> WireSized for GossipFrame<B> {
    fn wire_size(&self) -> u64 {
        8 + self.payload.wire_size()
    }
}

impl<B: WireCodec> WireCodec for GossipFrame<B> {
    fn encode(&self, out: &mut Vec<u8>) {
        put_u64(out, self.version);
        self.payload.encode(out);
    }

    fn decode(r: &mut WireReader<'_>) -> Option<Self> {
        let version = r.u64()?;
        let payload = B::decode(r)?;
        Some(GossipFrame { version, payload })
    }

    fn encoded_len(&self) -> u64 {
        8 + self.payload.encoded_len()
    }
}

impl WireSized for GossipDigest {
    fn wire_size(&self) -> u64 {
        8
    }
}

impl WireCodec for GossipDigest {
    fn encode(&self, out: &mut Vec<u8>) {
        put_u64(out, self.version);
    }

    fn decode(r: &mut WireReader<'_>) -> Option<Self> {
        Some(GossipDigest { version: r.u64()? })
    }

    fn encoded_len(&self) -> u64 {
        8
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn reader_refuses_truncated_reads() {
        let mut buf = Vec::new();
        put_u64(&mut buf, 42);
        let mut r = WireReader::new(&buf[..7]);
        assert_eq!(r.u64(), None);
        let mut r = WireReader::new(&buf);
        assert_eq!(r.u64(), Some(42));
        assert!(r.is_empty());
        assert_eq!(r.u8(), None);
    }

    #[test]
    fn f64_bits_roundtrip_exactly() {
        for v in [0.0, -0.0, 1.5, f64::INFINITY, f64::MIN_POSITIVE, 1e-300] {
            let mut buf = Vec::new();
            put_f64(&mut buf, v);
            let mut r = WireReader::new(&buf);
            assert_eq!(r.f64().map(f64::to_bits), Some(v.to_bits()));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn scalar_sequences_roundtrip(vals in prop::collection::vec(-1.0e12f64..1.0e12, 0..32)) {
            let mut buf = Vec::new();
            put_usize(&mut buf, vals.len());
            for v in &vals {
                put_f64(&mut buf, *v);
            }
            prop_assert_eq!(buf.len() as u64, 8 + 8 * vals.len() as u64);
            let mut r = WireReader::new(&buf);
            let n = r.usize().unwrap();
            prop_assert_eq!(n, vals.len());
            for v in &vals {
                prop_assert_eq!(r.f64().unwrap().to_bits(), v.to_bits());
            }
            prop_assert!(r.is_empty());
        }
    }
}
