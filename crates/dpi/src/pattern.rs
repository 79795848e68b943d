//! Candidate extraction — step 1 of Algorithm 1.
//!
//! At every payload offset up to `k`, each protocol's *structural* pattern
//! is tested. Patterns accept undefined message types, attributes and
//! payload types on purpose (the paper removed Peafowl's payload-type
//! restriction for the same reason); they only encode what makes a byte
//! string *shaped like* the protocol. False positives are expected here
//! and eliminated by validation and overlap resolution.
//!
//! ## Fast path
//!
//! The five protocol patterns partition cleanly on the two top bits of the
//! first byte (the QUIC demux trick of RFC 9000 §17.2, which RTC stacks
//! exploit for single-socket multiplexing):
//!
//! | top bits | could start                              |
//! |----------|------------------------------------------|
//! | `00`     | STUN/TURN message                        |
//! | `01`     | ChannelData / QUIC short header (offset 0 only) |
//! | `10`     | RTP or RTCP (version field = 2)          |
//! | `11`     | QUIC long header (form + fixed bit)      |
//!
//! [`extract_into`] dispatches offset 0 on these two bits, since it is the
//! only offset where all five matchers are reachable. Offsets `1..=k` go
//! through this target's bulk sweep ([`crate::scan`]), which classifies 8
//! or 16 offsets at once and enters only the matchers whose leading bytes
//! could start that protocol, instead of calling all five matchers
//! everywhere. [`extract_candidates_naive`] retains the literal
//! every-matcher-at-every-offset loop as the differential-testing
//! reference; both must produce byte-identical candidate lists (see
//! `tests/differential.rs`).

use crate::scan;
use rtc_wire::stun;
use rtc_wire::{Reason, WireError, WireProtocol};
use std::borrow::Cow;

/// Inline storage for a QUIC connection ID.
///
/// RFC 9000 §17.2 caps connection IDs at 20 bytes for version 1 (and RFC
/// 9369 keeps the cap for v2); endpoints MUST drop version-1 long headers
/// declaring more. Since extraction only accepts known versions, the cap
/// lets the validation context keep each stream's CIDs inline, with no
/// heap allocation per CID.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CidBuf {
    len: u8,
    bytes: [u8; CidBuf::MAX],
}

impl CidBuf {
    /// Maximum connection-ID length (RFC 9000 §17.2).
    pub const MAX: usize = 20;

    /// An empty connection ID.
    pub const EMPTY: CidBuf = CidBuf { len: 0, bytes: [0; CidBuf::MAX] };

    /// Copy a wire CID into inline storage; `None` if it exceeds
    /// [`CidBuf::MAX`] (such packets MUST be dropped per RFC 9000 §17.2).
    pub fn try_from_slice(cid: &[u8]) -> Option<CidBuf> {
        if cid.len() > CidBuf::MAX {
            return None;
        }
        // Unused tail bytes stay zero so derived Eq/Hash see equal values.
        let mut buf = CidBuf { len: cid.len() as u8, bytes: [0; CidBuf::MAX] };
        buf.bytes[..cid.len()].copy_from_slice(cid);
        Some(buf)
    }

    /// The CID bytes.
    pub fn as_slice(&self) -> &[u8] {
        &self.bytes[..self.len as usize]
    }

    /// CID length in bytes.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether the CID is zero-length.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl std::ops::Deref for CidBuf {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for CidBuf {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl std::fmt::Debug for CidBuf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.as_slice().fmt(f)
    }
}

impl PartialEq<[u8]> for CidBuf {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_slice() == other
    }
}

impl PartialEq<&[u8]> for CidBuf {
    fn eq(&self, other: &&[u8]) -> bool {
        self.as_slice() == *other
    }
}

/// Structural details recorded when a pattern matches.
///
/// Every variant is a few scalar fields, so a kind is 8 bytes and `Copy`.
/// QUIC connection IDs are not kept here: validation re-reads them from
/// the long header at the candidate's offset (see
/// [`crate::resolve::ContextBuilder::observe`]), which costs nothing on the
/// RTP-dominated candidate stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CandidateKind {
    /// A STUN/TURN message. `modern` = carries the RFC 5389 magic cookie.
    Stun {
        /// Raw 16-bit message type.
        message_type: u16,
        /// Whether the magic cookie is present.
        modern: bool,
    },
    /// A TURN ChannelData frame.
    ChannelData {
        /// The channel number (demux prefix 0b01; may exceed the RFC range).
        channel: u16,
    },
    /// An RTP packet.
    Rtp {
        /// Synchronization source.
        ssrc: u32,
        /// Payload type.
        payload_type: u8,
        /// Sequence number.
        seq: u16,
    },
    /// A single RTCP packet (compounds produce one candidate per packet).
    Rtcp {
        /// Packet type (200–207).
        packet_type: u8,
        /// The 5-bit count/format field.
        count: u8,
    },
    /// A QUIC long-header packet.
    QuicLong {
        /// Version field (1 or the v2 identifier).
        version: u32,
    },
    /// A potential QUIC short-header packet (validated against the
    /// stream's known connection IDs).
    QuicShortProbe,
}

impl CandidateKind {
    /// Stable labels of the five protocol matchers, in extraction order
    /// (indexed by [`CandidateKind::matcher_index`]; used as metrics label
    /// values).
    pub const MATCHER_LABELS: [&'static str; 5] = ["stun", "channeldata", "rtp", "rtcp", "quic"];

    /// Index of the producing matcher into [`CandidateKind::MATCHER_LABELS`].
    pub const fn matcher_index(&self) -> usize {
        match self {
            CandidateKind::Stun { .. } => 0,
            CandidateKind::ChannelData { .. } => 1,
            CandidateKind::Rtp { .. } => 2,
            CandidateKind::Rtcp { .. } => 3,
            CandidateKind::QuicLong { .. } | CandidateKind::QuicShortProbe => 4,
        }
    }
}

/// One structural match: a protocol pattern at a payload offset.
///
/// Positions are `u32`: the extraction entry points assert that the
/// payload length fits, so no position is ever truncated. Most candidates
/// are false positives that validation drops, so their size is most of the
/// DPI's working set. A STUN message's DATA attribute range is not kept
/// either: resolution re-derives it (`stun_data_range`) for the few STUN
/// candidates it accepts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Candidate {
    /// Byte offset in the UDP payload.
    pub offset: u32,
    /// Claimed length (bytes) from `offset`.
    pub len: u32,
    /// Structural details.
    pub kind: CandidateKind,
}

const _: () = assert!(std::mem::size_of::<CandidateKind>() == 8);
const _: () = assert!(std::mem::size_of::<Candidate>() == 16);

impl Candidate {
    /// A candidate at `offset`, claiming `len` bytes. Both fit `u32`
    /// because [`assert_fits`] held for the payload.
    #[inline(always)]
    fn at(offset: usize, len: usize, kind: CandidateKind) -> Candidate {
        Candidate { offset: offset as u32, len: len as u32, kind }
    }

    /// Byte offset in the UDP payload, as an index.
    pub fn start(&self) -> usize {
        self.offset as usize
    }

    /// One past the last claimed byte.
    pub fn end(&self) -> usize {
        self.offset as usize + self.len as usize
    }
}

/// Candidate positions are `u32`; refuse a payload they cannot address
/// rather than truncate. (A UDP payload is at most 65,507 bytes.)
#[inline(always)]
fn assert_fits(payload: &[u8]) {
    assert!(u32::try_from(payload.len()).is_ok(), "a {}-byte payload overflows u32 candidate offsets", payload.len());
}

// ---- extraction entry points -----------------------------------------------

/// Extract all structural candidates from one UDP payload, scanning offsets
/// `0..=max_offset` (Algorithm 1, step 1).
///
/// Thin wrapper over [`extract_into`] that allocates a fresh vector; batch
/// callers should reuse a vector or a [`CandidateBatch`] instead.
pub fn extract_candidates(payload: &[u8], max_offset: usize) -> Vec<Candidate> {
    let mut out = Vec::new();
    extract_into(payload, max_offset, &mut out);
    out
}

/// Append all structural candidates of `payload` to `out` (fast path).
///
/// Equivalent to [`extract_candidates_naive`]; offsets past 0 run this
/// target's bulk sweep ([`scan::ScanMode::active`] names it).
pub fn extract_into(payload: &[u8], max_offset: usize, out: &mut Vec<Candidate>) {
    extract_to(payload, max_offset, out);
}

/// Where extraction puts what it finds. A `Vec<Candidate>` takes every
/// candidate as it is; the noise cut's lane store
/// ([`crate::cut::Lanes`]) keeps RTP lanes apart from the other classes.
pub(crate) trait Sink {
    /// A matched candidate.
    fn push(&mut self, c: Candidate);
    /// The RTP lane at `i`, which [`rtp_gate`] admitted iff `ok`.
    /// `tail` is the payload from `i`: at least 12 bytes, a version-2
    /// first byte and a second byte outside the RTCP range. The lane is
    /// stored without a data-dependent branch.
    fn push_rtp(&mut self, tail: &[u8], i: usize, ok: bool);
}

impl Sink for Vec<Candidate> {
    #[inline(always)]
    fn push(&mut self, c: Candidate) {
        Vec::push(self, c);
    }

    /// The candidate is written unconditionally and cut off again on
    /// reject.
    #[inline(always)]
    fn push_rtp(&mut self, tail: &[u8], i: usize, ok: bool) {
        let n = self.len();
        Vec::push(self, rtp_candidate(tail, i));
        self.truncate(n + ok as usize);
    }
}

/// [`extract_into`] into any [`Sink`].
pub(crate) fn extract_to(payload: &[u8], max_offset: usize, out: &mut impl Sink) {
    extract_into_bulk(payload, max_offset, out, |first, last, out| {
        scan::bulk_sweep(payload, first, last, |base, rtp, other| dispatch_block(payload, base, rtp, other, out))
    });
}

/// The bulk fast path: offset 0 gets the full dispatch (it is the only
/// offset where ChannelData / QUIC short probes exist), offsets
/// `1..=limit` are swept by `sweep`, and the last few offsets — where the
/// sweep's shifted loads would run past the payload — fall back to the
/// gated scalar dispatcher.
///
/// `sweep(first, last, out)` sweeps offsets `first..=last`, pushing the
/// candidates of each offset it admits, and returns one past the last
/// offset swept. Production sweeps with [`scan::bulk_sweep`]; the unit tests
/// sweep with the SWAR pass alone, which is all a non-x86-64 build runs.
fn extract_into_bulk<S: Sink>(
    payload: &[u8],
    max_offset: usize,
    out: &mut S,
    sweep: impl FnOnce(usize, usize, &mut S) -> usize,
) {
    if payload.is_empty() {
        return;
    }
    assert_fits(payload);
    let limit = max_offset.min(payload.len() - 1);
    extract_at_zero(payload, out);
    if limit == 0 {
        return;
    }
    let swept_end = sweep(1, limit, out);
    for i in swept_end.max(1)..=limit {
        dispatch_gated(payload, i, out);
    }
}

/// Dispatch one swept block. Bit `j` of `rtp` or `other` stands for
/// offset `base + j` (see [`crate::scan`]): `rtp` lanes are exactly the
/// version-2 offsets whose second byte is outside the RTCP range, each
/// with at least 12 readable bytes; `other` lanes passed the STUN, RTCP or
/// QUIC class gate.
#[inline]
fn dispatch_block(payload: &[u8], base: usize, rtp: u32, other: u32, out: &mut impl Sink) {
    if other == 0 {
        // RTP lanes only, the common block: no class to decide, and the
        // length gate is branch-free.
        let mut lanes = rtp;
        while lanes != 0 {
            let i = base + lanes.trailing_zeros() as usize;
            push_rtp_lane(&payload[i..], i, out);
            lanes &= lanes - 1;
        }
    } else {
        // Mixed block: every lane in offset order, through the exact
        // per-offset dispatcher.
        let mut lanes = rtp | other;
        while lanes != 0 {
            dispatch_gated(payload, base + lanes.trailing_zeros() as usize, out);
            lanes &= lanes - 1;
        }
    }
}

/// Hand the RTP lane at `i` to `out` with its [`rtp_gate`] verdict.
/// Caller guarantees `tail.len() >= 12` and a version-2 first byte.
#[inline(always)]
fn push_rtp_lane(tail: &[u8], i: usize, out: &mut impl Sink) {
    let ok = rtp_gate(tail);
    if ok {
        rtc_cov::probe!("dpi.match.rtp");
    }
    out.push_rtp(tail, i, ok);
}

/// Fused RTP length gate, branch-free: the same checks as [`match_rtp`] /
/// `rtp::Packet::new_checked` (header + CSRCs + declared extension fit,
/// sane padding trailer) on a version-2 `tail` of at least 12 bytes.
///
/// The extension-length word is read unconditionally, at an index clamped
/// into the tail. The clamp only bites when the extension header does not
/// fit, and then `header_len` exceeds the tail whatever the word says.
#[inline(always)]
fn rtp_gate(tail: &[u8]) -> bool {
    let len = tail.len();
    let b0 = tail[0];
    let fixed = 12 + 4 * (b0 & 0x0F) as usize;
    let at = (fixed + 2).min(len - 2);
    let words = u16::from_be_bytes([tail[at], tail[at + 1]]) as usize;
    let header_len = fixed + ((b0 >> 4) & 1) as usize * (4 + 4 * words);
    let pad = tail[len - 1] as usize;
    (header_len <= len) & ((b0 & 0x20 == 0) | ((pad != 0) & (header_len + pad <= len)))
}

/// Build the RTP candidate at `i` (an RTP message claims the whole tail).
#[inline(always)]
pub(crate) fn rtp_candidate(tail: &[u8], i: usize) -> Candidate {
    Candidate::at(
        i,
        tail.len(),
        CandidateKind::Rtp {
            ssrc: u32::from_be_bytes([tail[8], tail[9], tail[10], tail[11]]),
            payload_type: tail[1] & 0x7F,
            seq: u16::from_be_bytes([tail[2], tail[3]]),
        },
    )
}

/// Offset-0 dispatch on the first byte's two top bits (the module-level
/// table). Every class's matchers are reachable here; the classes are
/// disjoint, so at most one arm runs and the naive loop's pattern
/// priority (STUN, ChannelData, RTCP, RTP, QUIC) is preserved.
#[inline]
fn extract_at_zero(payload: &[u8], out: &mut impl Sink) {
    let b0 = payload[0];
    match b0 >> 6 {
        0b00 => {
            if let Some(c) = match_stun(payload, 0) {
                out.push(c);
            }
        }
        0b01 => {
            // Channel numbers 0x4000–0x4FFF put the first byte in
            // 0x40–0x4F; any 01-prefixed byte may start a short header.
            if b0 <= 0x4F {
                if let Some(c) = match_channeldata(payload, 0) {
                    out.push(c);
                }
            }
            if let Some(c) = match_quic_short(payload, 0) {
                out.push(c);
            }
        }
        0b10 => {
            // The standard demux rule makes RTCP and RTP mutually exclusive
            // on the second byte, so at most one matcher can accept.
            if let Some(c) = match_rtcp(payload, 0) {
                out.push(c);
            } else if let Some(c) = match_rtp(payload, 0) {
                out.push(c);
            }
        }
        _ => {
            if let Some(c) = match_quic_long(payload, 0) {
                out.push(c);
            }
        }
    }
}

/// Validate one swept (or tail) offset `i >= 1` and push its candidate.
/// Demux-01 classes never reach here (they only exist at offset 0); the
/// remaining classes re-derive from the top two bits, then run cheap
/// length gates before entering the full matcher.
#[inline]
fn dispatch_gated(payload: &[u8], i: usize, out: &mut impl Sink) {
    let tail = &payload[i..];
    match tail[0] >> 6 {
        0b00 if stun_prefilter(tail) => {
            if let Some(c) = match_stun(tail, i) {
                out.push(c);
            }
        }
        0b10 => {
            if tail.len() >= 2 && (200..=207).contains(&tail[1]) {
                if rtcp_prefilter(tail) {
                    if let Some(c) = match_rtcp(tail, i) {
                        out.push(c);
                    }
                }
            } else if tail.len() >= 12 {
                push_rtp_lane(tail, i, out);
            }
        }
        0b11 => {
            if let Some(c) = match_quic_long(tail, i) {
                out.push(c);
            }
        }
        _ => {}
    }
}

/// Necessary conditions for [`match_stun`] to accept, checked branch-lean
/// before the full header parse + TLV walk: room for the header, 4-byte
/// aligned declared length, and either the magic cookie or (cookie-less
/// RFC 3489) an exact payload cover with at least one attribute.
#[inline]
fn stun_prefilter(tail: &[u8]) -> bool {
    if tail.len() < stun::HEADER_LEN {
        return false;
    }
    let declared = u16::from_be_bytes([tail[2], tail[3]]) as usize;
    (declared & 3 == 0)
        & (tail[4..8] == stun::MAGIC_COOKIE.to_be_bytes()
            || (declared != 0 && stun::HEADER_LEN + declared == tail.len()))
}

/// Necessary conditions for [`match_rtcp`]: the declared length (in 32-bit
/// words, +1) must fit the remaining payload.
#[inline]
fn rtcp_prefilter(tail: &[u8]) -> bool {
    tail.len() >= 4 && 4 * (u16::from_be_bytes([tail[2], tail[3]]) as usize + 1) <= tail.len()
}

/// Reference extraction: the literal every-matcher-at-every-offset loop,
/// kept verbatim for differential testing against the prefiltered fast
/// path. Not used on any production path.
pub fn extract_candidates_naive(payload: &[u8], max_offset: usize) -> Vec<Candidate> {
    assert_fits(payload);
    let mut out = Vec::new();
    let limit = max_offset.min(payload.len());
    for i in 0..=limit {
        let tail = &payload[i..];
        if tail.is_empty() {
            break;
        }
        // Pattern priority at equal offset: STUN, ChannelData, RTCP, RTP, QUIC.
        if let Some(c) = match_stun(tail, i) {
            out.push(c);
        }
        if let Some(c) = match_channeldata(tail, i) {
            out.push(c);
        }
        if let Some(c) = match_rtcp(tail, i) {
            out.push(c);
        }
        if let Some(c) = match_rtp(tail, i) {
            out.push(c);
        }
        if let Some(c) = match_quic(tail, i) {
            out.push(c);
        }
    }
    out
}

/// Candidates of many datagrams in one flat allocation, with per-datagram
/// spans — avoids one `Vec<Candidate>` allocation per datagram when
/// dissecting a whole call.
#[derive(Debug, Clone, Default)]
pub struct CandidateBatch {
    pub(crate) flat: Vec<Candidate>,
    pub(crate) spans: Vec<(usize, usize)>,
}

impl CandidateBatch {
    /// An empty batch expecting `n_datagrams` payloads.
    pub fn with_capacity(n_datagrams: usize) -> CandidateBatch {
        CandidateBatch { flat: Vec::new(), spans: Vec::with_capacity(n_datagrams) }
    }

    /// Extract one payload's candidates and record their span.
    pub fn push_payload(&mut self, payload: &[u8], max_offset: usize) {
        let start = self.flat.len();
        extract_into(payload, max_offset, &mut self.flat);
        self.spans.push((start, self.flat.len()));
    }

    /// Number of datagrams extracted so far.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Whether the batch holds no datagrams.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Total candidate count across all datagrams.
    pub fn candidate_count(&self) -> usize {
        self.flat.len()
    }

    /// The candidates of datagram `i`, in extraction order.
    pub fn get(&self, i: usize) -> &[Candidate] {
        let (start, end) = self.spans[i];
        &self.flat[start..end]
    }

    /// Iterate per-datagram candidate slices in input order.
    pub fn iter(&self) -> impl Iterator<Item = &[Candidate]> {
        self.spans.iter().map(|&(start, end)| &self.flat[start..end])
    }
}

// ---- protocol matchers -----------------------------------------------------

/// STUN pattern: top two type bits zero, 4-byte-aligned length. Messages
/// with the magic cookie are accepted wherever their declared body fits;
/// cookie-less (RFC 3489 classic) matches are only accepted when the
/// message covers the remaining payload *exactly* and its attribute TLVs
/// walk cleanly — the paper's validation uses transaction-ID pairing to the
/// same end (eliminating the vast false-positive surface of the weak
/// legacy header).
fn match_stun(tail: &[u8], offset: usize) -> Option<Candidate> {
    let msg = stun::Message::new_checked(tail).ok()?;
    let modern = msg.has_magic_cookie();
    // Cookie-less candidates: exact payload cover and at least one
    // attribute. A 20-byte all-header "message" matches far too much random
    // data; no published classic-STUN usage sends attribute-less messages.
    if !modern && (msg.wire_len() != tail.len() || msg.declared_length() == 0) {
        return None;
    }
    // The TLV attributes must walk cleanly to the declared length.
    let _data_attr = walk_stun_attributes(&msg)?;
    #[cfg(feature = "cov-probes")]
    {
        if modern {
            rtc_cov::probe!("dpi.match.stun-modern");
        } else {
            rtc_cov::probe!("dpi.match.stun-legacy");
        }
        if _data_attr.is_some() {
            rtc_cov::probe!("dpi.match.stun-data-attr");
        }
    }
    Some(Candidate::at(offset, msg.wire_len(), CandidateKind::Stun { message_type: msg.message_type(), modern }))
}

/// Walk a STUN message's TLV attributes to its declared length: `None` if
/// the walk fails, otherwise the last DATA attribute's value range
/// relative to the message start, if there is one. The running offset
/// tracks each TLV's position: 4 bytes of type+length, the value, then
/// padding to the next 4-byte boundary (RFC 5389 §15).
fn walk_stun_attributes(msg: &stun::Message<'_>) -> Option<Option<(usize, usize)>> {
    let mut data_attr = None;
    let mut attr_offset = stun::HEADER_LEN;
    for a in msg.attributes() {
        let a = a.ok()?;
        let vlen = a.value.len();
        if a.typ == stun::attr::DATA {
            data_attr = Some((attr_offset + 4, attr_offset + 4 + vlen));
        }
        attr_offset += 4 + vlen + (4 - vlen % 4) % 4;
    }
    Some(data_attr)
}

/// The DATA attribute value range, relative to the message start, of the
/// STUN candidate that starts `tail` (nested messages may live there).
/// The same walk as extraction, so it re-derives what a matched candidate
/// would have recorded.
pub(crate) fn stun_data_range(tail: &[u8]) -> Option<(usize, usize)> {
    walk_stun_attributes(&stun::Message::new_checked(tail).ok()?).flatten()
}

/// ChannelData pattern: a channel number in RFC 8656's 0x4000–0x4FFF
/// range, at payload offset zero (ChannelData is the outermost TURN
/// framing), with a length field covering the remaining payload to within
/// 3 bytes. Exact coverage is the compliant case; a small shortfall is
/// still recognizably ChannelData (the compliance layer flags it), while a
/// larger one is far more likely a pattern false-positive.
fn match_channeldata(tail: &[u8], offset: usize) -> Option<Candidate> {
    if offset != 0 {
        return None;
    }
    let cd = stun::ChannelData::new_checked(tail).ok()?;
    if !stun::ChannelData::CHANNEL_RANGE.contains(&cd.channel_number()) {
        return None;
    }
    if tail.len() < cd.wire_len() || tail.len() - cd.wire_len() > 3 {
        return None;
    }
    #[cfg(feature = "cov-probes")]
    {
        if tail.len() == cd.wire_len() {
            rtc_cov::probe!("dpi.match.channeldata-exact");
        } else {
            rtc_cov::probe!("dpi.match.channeldata-shortfall");
        }
    }
    Some(Candidate::at(offset, cd.wire_len(), CandidateKind::ChannelData { channel: cd.channel_number() }))
}

/// RTCP pattern: version 2, packet type 200–207, declared length in bounds.
fn match_rtcp(tail: &[u8], offset: usize) -> Option<Candidate> {
    if tail.len() < 4 || tail[0] >> 6 != 2 || !(200..=207).contains(&tail[1]) {
        return None;
    }
    let p = rtc_wire::rtcp::Packet::new_checked(tail).ok()?;
    rtc_cov::probe!("dpi.match.rtcp");
    Some(Candidate::at(offset, p.wire_len(), CandidateKind::Rtcp { packet_type: p.packet_type(), count: p.count() }))
}

/// RTP pattern: version 2, a second byte outside the RTCP packet-type
/// range (the standard RTP/RTCP demux rule), and a header + CSRC list +
/// declared extension that fit the payload. An RTP message claims the rest
/// of the payload — RTP carries no length field — and is truncated later if
/// another RTP message follows (Zoom's double-RTP datagrams).
fn match_rtp(tail: &[u8], offset: usize) -> Option<Candidate> {
    if tail.len() < 12 || tail[0] >> 6 != 2 || (200..=207).contains(&tail[1]) {
        return None;
    }
    let p = rtc_wire::rtp::Packet::new_checked(tail).ok()?;
    Some(Candidate::at(
        offset,
        tail.len(),
        CandidateKind::Rtp { ssrc: p.ssrc(), payload_type: p.payload_type(), seq: p.sequence_number() },
    ))
}

/// QUIC pattern: long headers (form + fixed bit, known version) anywhere;
/// short headers only as an offset-0 probe, resolved against the stream's
/// connection IDs during validation.
fn match_quic(tail: &[u8], offset: usize) -> Option<Candidate> {
    if let Some(c) = match_quic_long(tail, offset) {
        return Some(c);
    }
    match_quic_short(tail, offset)
}

/// The long-header half of the QUIC pattern. Parses without allocating;
/// connection IDs longer than 20 bytes are dropped, as RFC 9000 §17.2
/// requires for the versions this pattern accepts.
fn match_quic_long(tail: &[u8], offset: usize) -> Option<Candidate> {
    if tail.first()? & 0xC0 != 0xC0 {
        return None;
    }
    let h = rtc_wire::quic::LongHeaderRef::parse(tail).ok()?;
    if h.version != rtc_wire::quic::VERSION_1 && h.version != rtc_wire::quic::VERSION_2 {
        return None;
    }
    if h.dcid.len() > CidBuf::MAX || h.scid.len() > CidBuf::MAX {
        return None;
    }
    rtc_cov::probe!("dpi.match.quic-long");
    Some(Candidate::at(offset, tail.len(), CandidateKind::QuicLong { version: h.version }))
}

/// The short-header half of the QUIC pattern (offset-0 probe only).
fn match_quic_short(tail: &[u8], offset: usize) -> Option<Candidate> {
    let b0 = *tail.first()?;
    if offset == 0 && b0 & 0xC0 == 0x40 && tail.len() >= 9 {
        rtc_cov::probe!("dpi.match.quic-short-probe");
        return Some(Candidate::at(offset, tail.len(), CandidateKind::QuicShortProbe));
    }
    None
}

/// Explain why `payload` is not a standard message at offset 0, as a
/// [`WireError`] from the parser the first-byte class selects (the same
/// partition the extraction fast path uses). Returns `None` when the
/// payload is empty or when the offset-0 parse actually *succeeds* — in
/// that case the datagram was rejected by stream validation, not by the
/// wire grammar.
pub fn explain_rejection(payload: &[u8]) -> Option<WireError> {
    let b0 = *payload.first()?;
    match b0 >> 6 {
        0b00 => stun::Message::new_checked(payload).err(),
        0b01 => stun::ChannelData::new_checked(payload).err(),
        0b10 => {
            if payload.len() >= 2 && (200..=207).contains(&payload[1]) {
                rtc_wire::rtcp::Packet::new_checked(payload).err()
            } else {
                rtc_wire::rtp::Packet::new_checked(payload).err()
            }
        }
        _ => match rtc_wire::quic::LongHeaderRef::parse(payload) {
            Err(e) => Some(e),
            Ok(h) if h.version != rtc_wire::quic::VERSION_1 && h.version != rtc_wire::quic::VERSION_2 => {
                Some(WireError::malformed(WireProtocol::Quic, 1, "unknown version"))
            }
            Ok(h) if h.dcid.len() > CidBuf::MAX || h.scid.len() > CidBuf::MAX => {
                Some(WireError::malformed(WireProtocol::Quic, 5, "connection id too long"))
            }
            Ok(_) => None,
        },
    }
}

/// The taxonomy key a fully-proprietary datagram is counted under in the
/// study report: [`WireError::taxonomy_key`] when the offset-0 parse fails,
/// or a first-byte-class fallback when the bytes parse structurally but
/// fail stream validation (seq continuity, SSRC cross-check, CID match…).
///
/// Returns a `Cow` so the (frequent) static keys cost no allocation.
/// Dissection itself tallies `Rejection`s and spells each distinct key
/// out once per call.
pub fn rejection_key(payload: &[u8]) -> Cow<'static, str> {
    Rejection::of(payload).key()
}

/// A [`rejection_key`] before it is spelled out: the failed parse's
/// protocol and reason, or a fixed key. Cheap to compare and copy, so a
/// call's fully-proprietary datagrams are counted without building a
/// string each.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Rejection {
    /// A fixed key.
    Fixed(&'static str),
    /// The offset-0 parse failed; the key is the error's taxonomy key.
    Wire(WireProtocol, Reason),
}

impl Rejection {
    /// Why `payload` was rejected (see [`rejection_key`]).
    pub(crate) fn of(payload: &[u8]) -> Rejection {
        if payload.is_empty() {
            return Rejection::Fixed("empty payload");
        }
        if let Some(e) = explain_rejection(payload) {
            return Rejection::Wire(e.protocol, e.reason);
        }
        Rejection::Fixed(match payload[0] >> 6 {
            0b00 => "stun: failed stream validation",
            0b01 => "channeldata/quic-short: failed stream validation",
            0b10 => {
                if payload.len() >= 2 && (200..=207).contains(&payload[1]) {
                    "rtcp: failed stream validation"
                } else {
                    "rtp: failed stream validation"
                }
            }
            _ => "quic: failed stream validation",
        })
    }

    /// The taxonomy key.
    pub(crate) fn key(self) -> Cow<'static, str> {
        match self {
            Rejection::Fixed(key) => Cow::Borrowed(key),
            Rejection::Wire(protocol, reason) => Cow::Owned(WireError { protocol, offset: 0, reason }.taxonomy_key()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtc_wire::rtp::PacketBuilder;
    use rtc_wire::stun::MessageBuilder;

    #[test]
    fn stun_at_offset_zero() {
        let msg = MessageBuilder::new(0x0001, [1; 12]).build();
        let c = extract_candidates(&msg, 200);
        assert!(matches!(c[0].kind, CandidateKind::Stun { message_type: 0x0001, modern: true }));
        assert_eq!(c[0].len as usize, msg.len());
    }

    #[test]
    fn stun_behind_prefix() {
        let mut p = vec![0x0B; 10];
        p.extend(MessageBuilder::new(0x0801, [2; 12]).attribute(0x4003, vec![0xFF]).build());
        let c = extract_candidates(&p, 200);
        let stun: Vec<_> = c.iter().filter(|c| matches!(c.kind, CandidateKind::Stun { .. })).collect();
        assert_eq!(stun.len(), 1);
        assert_eq!(stun[0].offset, 10);
    }

    #[test]
    fn data_attribute_range_is_recorded() {
        let inner = PacketBuilder::new(96, 1, 2, 3).payload(vec![9; 20]).build();
        let txid = [3; 12];
        let msg = MessageBuilder::new(rtc_wire::stun::msg_type::DATA_INDICATION, txid)
            .attribute(rtc_wire::stun::attr::XOR_PEER_ADDRESS, vec![0, 1, 2, 3, 4, 5, 6, 7])
            .attribute(rtc_wire::stun::attr::DATA, inner.clone())
            .build();
        let c = extract_candidates(&msg, 0);
        let stun = c.iter().find(|c| matches!(c.kind, CandidateKind::Stun { .. })).unwrap();
        let (s, e) = stun_data_range(&msg[stun.start()..]).unwrap();
        assert_eq!(&msg[s..e], &inner[..]);
    }

    #[test]
    fn legacy_stun_must_cover_exactly_with_attributes() {
        // Attribute-less legacy messages are rejected outright: the weak
        // RFC 3489 header matches too much random data.
        let bare = MessageBuilder::new_legacy(0x0001, [9, 9, 9, 9], [4; 12]).build();
        assert_eq!(
            extract_candidates(&bare, 0).iter().filter(|c| matches!(c.kind, CandidateKind::Stun { .. })).count(),
            0
        );
        let msg = MessageBuilder::new_legacy(0x0001, [9, 9, 9, 9], [4; 12])
            .attribute(0x0101, b"12345678901234567890".to_vec())
            .build();
        assert_eq!(
            extract_candidates(&msg, 0).iter().filter(|c| matches!(c.kind, CandidateKind::Stun { .. })).count(),
            1
        );
        let mut longer = msg;
        longer.extend_from_slice(&[0, 0, 0]);
        assert_eq!(
            extract_candidates(&longer, 0).iter().filter(|c| matches!(c.kind, CandidateKind::Stun { .. })).count(),
            0
        );
    }

    #[test]
    fn rtp_and_rtcp_demux_on_second_byte() {
        let rtp = PacketBuilder::new(96, 7, 8, 9).payload(vec![0; 20]).build();
        let c = extract_candidates(&rtp, 0);
        assert!(c.iter().any(|c| matches!(c.kind, CandidateKind::Rtp { payload_type: 96, .. })));
        let bye = rtc_wire::rtcp::build_bye(&[1]);
        let c = extract_candidates(&bye, 0);
        assert!(c.iter().any(|c| matches!(c.kind, CandidateKind::Rtcp { packet_type: 203, .. })));
        assert!(!c.iter().any(|c| matches!(c.kind, CandidateKind::Rtp { .. })));
    }

    #[test]
    fn compound_rtcp_yields_one_candidate_per_packet() {
        let mut p = rtc_wire::rtcp::build_bye(&[1]);
        p.extend(rtc_wire::rtcp::build_bye(&[2]));
        let c: Vec<_> = extract_candidates(&p, 200)
            .into_iter()
            .filter(|c| matches!(c.kind, CandidateKind::Rtcp { .. }))
            .collect();
        assert_eq!(c.len(), 2);
        assert_eq!(c[0].offset, 0);
        assert_eq!(c[1].offset, 8);
    }

    #[test]
    fn channeldata_length_and_range_rules() {
        let cd = rtc_wire::stun::ChannelData::build(0x4001, &[1, 2, 3, 4]);
        assert!(extract_candidates(&cd, 0).iter().any(|c| matches!(c.kind, CandidateKind::ChannelData { .. })));
        // Up to 3 trailing bytes: still recognized (compliance flags them).
        let mut shortfall = cd.clone();
        shortfall.extend_from_slice(&[0, 0]);
        assert!(extract_candidates(&shortfall, 0)
            .iter()
            .any(|c| matches!(c.kind, CandidateKind::ChannelData { .. })));
        // More than 3 trailing bytes: rejected as a false positive.
        let mut longer = cd.clone();
        longer.extend_from_slice(&[0; 8]);
        assert!(!extract_candidates(&longer, 0).iter().any(|c| matches!(c.kind, CandidateKind::ChannelData { .. })));
        // Out-of-range channel numbers are not ChannelData (FaceTime's
        // 0x6000 framing is a proprietary header, not a TURN frame).
        let bad = rtc_wire::stun::ChannelData::build(0x6000, &[1, 2, 3, 4]);
        assert!(!extract_candidates(&bad, 0).iter().any(|c| matches!(c.kind, CandidateKind::ChannelData { .. })));
        // And ChannelData is only recognized at offset zero.
        let mut prefixed = vec![0xAA, 0xBB];
        prefixed.extend_from_slice(&cd);
        assert!(!extract_candidates(&prefixed, 10)
            .iter()
            .any(|c| matches!(c.kind, CandidateKind::ChannelData { .. })));
    }

    #[test]
    fn quic_version_gate() {
        let mut h = rtc_wire::quic::LongHeader {
            fixed_bit: true,
            long_type: rtc_wire::quic::LongType::Initial,
            type_specific: 0,
            version: 0xFACE_B00C, // grease
            dcid: vec![1; 4],
            scid: vec![],
            header_len: 0,
        };
        let bytes = h.build();
        assert!(!extract_candidates(&bytes, 0).iter().any(|c| matches!(c.kind, CandidateKind::QuicLong { .. })));
        h.version = rtc_wire::quic::VERSION_1;
        let bytes = h.build();
        assert!(extract_candidates(&bytes, 0).iter().any(|c| matches!(c.kind, CandidateKind::QuicLong { .. })));
    }

    #[test]
    fn offset_limit_respected() {
        let mut p = vec![0u8; 60];
        p.extend(PacketBuilder::new(96, 7, 8, 9).payload(vec![0; 20]).build());
        assert!(extract_candidates(&p, 10).iter().all(|c| !matches!(c.kind, CandidateKind::Rtp { .. })));
        assert!(extract_candidates(&p, 60).iter().any(|c| matches!(c.kind, CandidateKind::Rtp { .. })));
    }

    #[test]
    fn rejection_key_spells_the_offset_zero_parse_error() {
        let payloads: [&[u8]; 5] =
            [&[0xDE, 0xAD, 0xBE, 0xEF, 0xCA, 0xFE, 1, 2, 3, 4], &[0x01; 1000], &[0x80, 0x00], &[0x41; 3], &[0xC5; 9]];
        for p in payloads {
            let e = explain_rejection(p).expect("each payload fails its offset-0 parse");
            assert_eq!(rejection_key(p), e.taxonomy_key(), "{p:02x?}");
        }
        assert_eq!(rejection_key(&[]), "empty payload");
    }

    #[test]
    fn branch_free_rtp_gate_agrees_with_the_parser() {
        // Every version-2 first byte (CSRC count, extension and padding
        // bits), at tail lengths on each side of the CSRC, extension-header,
        // extension-body and padding boundaries, with extension lengths 0,
        // 1, 2, the u16 overflow edge of `4 * words` and the maximum.
        for b0 in 0x80u8..=0xBF {
            let fixed = 12 + 4 * (b0 & 0x0F) as usize;
            for words in [0u16, 1, 2, 0x3FFF, 0x4000, 0xFFFF] {
                let body = fixed + 4 + 4 * words as usize;
                let mut lens: Vec<usize> = [12, fixed, fixed + 4, body, body + 1, body + 255]
                    .iter()
                    .flat_map(|&b| [b.saturating_sub(1), b, b + 1])
                    .filter(|&len| len >= 12)
                    .collect();
                lens.sort_unstable();
                lens.dedup();
                for len in lens {
                    let header_len = if b0 & 0x10 != 0 { body } else { fixed };
                    let exact = len.saturating_sub(header_len).min(255) as u8;
                    for pad in [0u8, 1, exact, exact.saturating_add(1), 255] {
                        let mut tail = vec![0x5Au8; len];
                        tail[0] = b0;
                        tail[1] = 0x60; // payload type 96: outside the RTCP range
                        if fixed + 4 <= len {
                            tail[fixed + 2..fixed + 4].copy_from_slice(&words.to_be_bytes());
                        }
                        tail[len - 1] = pad;
                        assert_eq!(
                            rtp_gate(&tail),
                            match_rtp(&tail, 0).is_some(),
                            "b0={b0:#04x} words={words} len={len} pad={pad}"
                        );
                    }
                }
            }
        }
    }

    // ---- fast-path machinery ----------------------------------------------

    #[test]
    fn cidbuf_roundtrip_and_cap() {
        let cid = CidBuf::try_from_slice(&[1, 2, 3]).unwrap();
        assert_eq!(cid.as_slice(), &[1, 2, 3]);
        assert_eq!(cid.len(), 3);
        assert!(!cid.is_empty());
        assert!(CidBuf::try_from_slice(&[0; 20]).is_some());
        assert!(CidBuf::try_from_slice(&[0; 21]).is_none());
        assert!(CidBuf::EMPTY.is_empty());
        // Equal CIDs compare equal regardless of construction path.
        assert_eq!(CidBuf::try_from_slice(&[7; 8]).unwrap(), CidBuf::try_from_slice(&[7; 8]).unwrap());
    }

    #[test]
    fn oversized_cid_long_header_is_dropped_at_extraction() {
        // RFC 9000 §17.2: a version-1 long header declaring a CID longer
        // than 20 bytes MUST be dropped.
        let h = rtc_wire::quic::LongHeader {
            fixed_bit: true,
            long_type: rtc_wire::quic::LongType::Initial,
            type_specific: 0,
            version: rtc_wire::quic::VERSION_1,
            dcid: vec![1; 21],
            scid: vec![],
            header_len: 0,
        };
        let bytes = h.build();
        assert!(!extract_candidates(&bytes, 0).iter().any(|c| matches!(c.kind, CandidateKind::QuicLong { .. })));
    }

    #[test]
    fn candidate_batch_matches_per_payload_extraction() {
        let payloads: Vec<Vec<u8>> = vec![
            PacketBuilder::new(96, 7, 8, 9).payload(vec![0; 20]).build(),
            MessageBuilder::new(0x0001, [1; 12]).build(),
            vec![0xDE, 0xAD, 0xBE, 0xEF],
            vec![],
        ];
        let mut batch = CandidateBatch::with_capacity(payloads.len());
        for p in &payloads {
            batch.push_payload(p, 200);
        }
        assert_eq!(batch.len(), payloads.len());
        for (i, p) in payloads.iter().enumerate() {
            assert_eq!(batch.get(i), &extract_candidates(p, 200)[..]);
        }
        let total: usize = batch.iter().map(|s| s.len()).sum();
        assert_eq!(total, batch.candidate_count());
    }

    /// The cut stitches separately extracted runs of datagrams (the
    /// chunked driver's chunks) back into one batch, spans in input order.
    #[test]
    fn batch_append_preserves_spans() {
        let datagram = |payload: Vec<u8>| rtc_pcap::trace::Datagram {
            ts: rtc_pcap::Timestamp::from_millis(0),
            five_tuple: rtc_wire::ip::FiveTuple::udp(
                "10.0.0.1:1000".parse().unwrap(),
                "1.2.3.4:2000".parse().unwrap(),
            ),
            payload: bytes::Bytes::from(payload),
        };
        let a = datagram(PacketBuilder::new(96, 7, 8, 9).payload(vec![0; 20]).build());
        let b = datagram(MessageBuilder::new(0x0001, [1; 12]).build());
        let mut head = crate::cut::Lanes::with_capacity(1);
        head.push_payload(&a.payload, 0, 200);
        let mut tail = crate::cut::Lanes::with_capacity(1);
        tail.push_payload(&b.payload, 0, 200);
        let (batch, _) = crate::cut::cut(&[&a, &b], vec![head, tail], 0, None);
        assert_eq!(batch.len(), 2);
        assert_eq!(batch.get(0), &extract_candidates(&a.payload, 200)[..]);
        assert_eq!(batch.get(1), &extract_candidates(&b.payload, 200)[..]);
    }

    /// [`extract_into`] with the SWAR sweep alone in place of the
    /// platform's bulk sweep: the whole bulk backend of a non-x86-64 build,
    /// run on any host.
    fn extract_swar_only(payload: &[u8], max_offset: usize) -> Vec<Candidate> {
        let mut out = Vec::new();
        extract_into_bulk(payload, max_offset, &mut out, |first, last, out| {
            scan::swar_sweep(payload, first, last, |base, rtp, other| dispatch_block(payload, base, rtp, other, out))
        });
        out
    }

    #[test]
    fn swar_only_extraction_matches_naive_on_random_payloads() {
        let mut rng: u64 = 0x2545_F491_4F6C_DD1D;
        let mut next = move || {
            rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (rng >> 33) as usize
        };
        for case in 0..600 {
            // Random bytes, or a real message behind a random prefix and
            // before a random tail, so both matcher hits and prefilter
            // rejects land in every lane position.
            let mut p: Vec<u8> = (0..next() % 48).map(|_| next() as u8).collect();
            let junk: Vec<u8> = (0..next() % 64).map(|_| next() as u8).collect();
            match case % 6 {
                0 => p.extend(PacketBuilder::new(next() as u8 & 0x7F, next() as u16, 1, 2).payload(junk).build()),
                1 => {
                    p.extend(MessageBuilder::new(0x0001, [7; 12]).attribute(rtc_wire::stun::attr::DATA, junk).build())
                }
                2 => p.extend(rtc_wire::rtcp::build_bye(&[next() as u32])),
                3 => p.extend(
                    MessageBuilder::new_legacy(0x0001, [9, 9, 9, 9], [4; 12])
                        .attribute(0x0101, b"12345678901234567890".to_vec())
                        .build(),
                ),
                4 => p.extend(rtc_wire::stun::ChannelData::build(0x4000 | (next() as u16 & 0x0FFF), &junk)),
                _ => p.extend((0..next() % 600).map(|_| next() as u8)),
            }
            for k in [0, 3, next() % 401, 400] {
                assert_eq!(extract_swar_only(&p, k), extract_candidates_naive(&p, k), "case={case} k={k}");
            }
        }
    }

    #[test]
    fn swar_only_extraction_matches_naive_across_lane_boundaries() {
        // The grid of `tests/differential.rs`'s lane-boundary test: a real
        // message at every offset around u64-lane boundaries, with every
        // short tail that hands the payload end back to the scalar loop.
        let rtp = PacketBuilder::new(96, 7, 0xABCD_EF01, 0x42).payload(vec![0x5A; 9]).build();
        let stun = MessageBuilder::new(0x0001, [9; 12]).build();
        let rtcp = rtc_wire::rtcp::build_bye(&[0xFEED_BEEF]);
        for msg in [&rtp[..], &stun[..], &rtcp[..]] {
            for prefix in 0..48usize {
                for tail in 0..24usize {
                    let mut p: Vec<u8> = (0..prefix).map(|j| (j * 7 + 1) as u8).collect();
                    p.extend_from_slice(msg);
                    p.extend((0..tail).map(|j| (j * 11 + 3) as u8));
                    assert_eq!(
                        extract_swar_only(&p, 200),
                        extract_candidates_naive(&p, 200),
                        "prefix={prefix} tail={tail}"
                    );
                }
            }
        }
    }

    #[test]
    fn fast_path_equals_naive_on_structured_payloads() {
        let mut payloads: Vec<Vec<u8>> = vec![
            PacketBuilder::new(96, 7, 8, 9).payload(vec![0x80; 64]).build(),
            MessageBuilder::new(0x0001, [1; 12]).build(),
            rtc_wire::rtcp::build_bye(&[1]),
            rtc_wire::stun::ChannelData::build(0x4001, &[1, 2, 3, 4]),
            vec![],
        ];
        // A prefix-shifted RTP packet exercises non-zero offsets.
        let mut shifted = vec![0x0B; 23];
        shifted.extend(PacketBuilder::new(111, 1, 2, 3).payload(vec![0xAA; 40]).build());
        payloads.push(shifted);
        for p in &payloads {
            for k in [0, 3, 50, 200, 400] {
                assert_eq!(extract_candidates(p, k), extract_candidates_naive(p, k), "k={k}");
            }
        }
    }
}
