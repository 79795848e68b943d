//! # rtc-dpi
//!
//! The paper's custom two-stage Deep Packet Inspection (§4.1, Algorithm 1).
//!
//! Standard DPI engines assume a protocol header at payload offset zero and
//! only accept strictly specification-conformant messages — both assumptions
//! fail on real RTC traffic, where applications prepend proprietary headers
//! and send messages with undefined types. This DPI therefore:
//!
//! 1. **Candidate extraction** — slides a window over every UDP payload
//!    (offsets `0..=k`, default `k = 200`) and records every byte range that
//!    matches the *structural* pattern of STUN/TURN (including ChannelData),
//!    RTP, RTCP or QUIC, deliberately accepting undefined message types,
//!    attributes and payload types;
//! 2. **Protocol-specific validation** — eliminates false positives using
//!    stream context: magic-cookie / exact-length / TLV-walk checks for
//!    STUN, sequence-number continuity per `(stream, SSRC)` group for RTP,
//!    sender-SSRC cross-validation against the stream's RTP sources for
//!    RTCP, and version/connection-ID consistency for QUIC;
//! 3. **Overlap and nesting resolution** — a payload byte belongs to at
//!    most one message, except for defined encapsulation (TURN ChannelData
//!    payloads and STUN DATA attributes may contain nested messages, and an
//!    RTP message is truncated where a second RTP message begins — Zoom's
//!    double-RTP datagrams, §5.3);
//! 4. **Proprietary-header detection** (§4.1.2) — datagrams whose validated
//!    messages start past unclaimed bytes are flagged as carrying a
//!    proprietary header; datagrams with no validated message at all are
//!    fully proprietary.

#![warn(missing_docs)]
// `deny`, not `forbid`: the SSE2 sweep in [`scan`] is the one module
// allowed to opt back in (`#[allow(unsafe_code)]` with documented safety
// invariants); everything else stays unsafe-free.
#![deny(unsafe_code)]

mod cut;
pub mod par;
pub mod pattern;
pub mod proprietary;
pub mod resolve;
pub mod scan;

use bytes::Bytes;
use rtc_pcap::trace::Datagram;
use rtc_pcap::Timestamp;
use rtc_wire::ip::FiveTuple;
use std::collections::{BTreeMap, HashMap, HashSet};

pub use pattern::{
    explain_rejection, extract_candidates, extract_candidates_naive, extract_into, rejection_key, Candidate,
    CandidateBatch, CandidateKind, CidBuf,
};
pub use scan::ScanMode;

/// The protocol families of the study. TURN shares the STUN message format,
/// so the paper (and this crate) reports them jointly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Protocol {
    /// STUN / TURN messages, including TURN ChannelData frames.
    StunTurn,
    /// RTP.
    Rtp,
    /// RTCP (one message per packet, compound packets yield several).
    Rtcp,
    /// QUIC v1/v2 headers.
    Quic,
}

impl Protocol {
    /// All protocols in the paper's column order.
    pub const ALL: [Protocol; 4] = [Protocol::StunTurn, Protocol::Rtp, Protocol::Rtcp, Protocol::Quic];

    /// Label as printed in the paper's tables.
    pub fn label(self) -> &'static str {
        match self {
            Protocol::StunTurn => "STUN/TURN",
            Protocol::Rtp => "RTP",
            Protocol::Rtcp => "RTCP",
            Protocol::Quic => "QUIC",
        }
    }
}

impl core::fmt::Display for Protocol {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.label())
    }
}

/// Configuration of the DPI.
#[derive(Debug, Clone, Copy)]
pub struct DpiConfig {
    /// Maximum candidate-extraction offset `k` (paper: 200; §4.1.1 shows
    /// this matches full-payload extraction on their dataset).
    pub max_offset: usize,
    /// Minimum `(stream, SSRC)` group size for RTP validation.
    pub rtp_min_group: usize,
    /// Maximum forward sequence gap still considered continuous.
    pub rtp_max_seq_gap: u16,
    /// Worker threads for candidate extraction, group validation and
    /// resolution: 0 = one per available core (see
    /// [`par::planned_threads`] and [`par::hardware_threads`]).
    pub threads: usize,
    /// Minimum datagram count before the DPI stages are parallelized;
    /// smaller calls always take the sequential path.
    pub parallel_threshold: usize,
}

impl Default for DpiConfig {
    fn default() -> DpiConfig {
        DpiConfig { max_offset: 200, rtp_min_group: 5, rtp_max_seq_gap: 128, threads: 0, parallel_threshold: 1024 }
    }
}

/// A validated message extracted from a datagram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DpiMessage {
    /// Protocol family.
    pub protocol: Protocol,
    /// Structural details captured at extraction time.
    pub kind: CandidateKind,
    /// Byte offset within the UDP payload.
    pub offset: usize,
    /// The message bytes (a cheap slice of the capture buffer).
    pub data: Bytes,
    /// Whether the message was found nested inside a container
    /// (ChannelData payload or STUN DATA attribute).
    pub nested: bool,
}

/// Figure 3's datagram classification.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DatagramClass {
    /// The payload consists entirely of standard protocol messages.
    Standard,
    /// A proprietary header (or gap) precedes at least one valid message.
    ProprietaryHeader,
    /// No recognizable standard message anywhere in the payload.
    FullyProprietary,
}

/// The dissection of one datagram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DatagramDissection {
    /// Capture time.
    pub ts: Timestamp,
    /// Stream key.
    pub stream: FiveTuple,
    /// UDP payload length.
    pub payload_len: usize,
    /// Validated messages, in offset order.
    pub messages: Vec<DpiMessage>,
    /// Unclaimed bytes before the first top-level message — the proprietary
    /// header region (the whole payload for fully proprietary datagrams).
    pub prefix: Bytes,
    /// Unclaimed bytes after the last top-level message (SRTCP trailers,
    /// Discord's direction trailer, …).
    pub trailing: Bytes,
    /// Figure 3 class.
    pub class: DatagramClass,
    /// Length of the proprietary prefix, when `class` is
    /// [`DatagramClass::ProprietaryHeader`].
    pub prop_header_len: usize,
}

/// The dissection of one call's RTC datagrams, plus the stream context the
/// compliance layer reuses.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CallDissection {
    /// Per-datagram dissections, in input order.
    pub datagrams: Vec<DatagramDissection>,
    /// RTP SSRCs observed per conversation (both directions fold into the
    /// canonical stream key).
    pub rtp_ssrcs: HashMap<FiveTuple, HashSet<u32>>,
    /// Why fully-proprietary datagrams were rejected: taxonomy key
    /// (see [`rejection_key`]) → datagram count. Lets the study report
    /// attribute *which* grammar rule the unrecognized traffic violated.
    pub rejections: BTreeMap<String, usize>,
}

impl CallDissection {
    /// Iterate over all validated messages.
    pub fn messages(&self) -> impl Iterator<Item = (&DatagramDissection, &DpiMessage)> {
        self.datagrams.iter().flat_map(|d| d.messages.iter().map(move |m| (d, m)))
    }

    /// Count messages per protocol (plus fully proprietary datagrams),
    /// the units of the paper's Table 2. Protocols iterate in their
    /// declaration order, so printed distributions are stable.
    pub fn message_distribution(&self) -> (BTreeMap<Protocol, usize>, usize) {
        let mut by_proto: BTreeMap<Protocol, usize> = BTreeMap::new();
        let mut fully = 0;
        for d in &self.datagrams {
            if d.class == DatagramClass::FullyProprietary {
                fully += 1;
            }
            for m in &d.messages {
                *by_proto.entry(m.protocol).or_default() += 1;
            }
        }
        (by_proto, fully)
    }
}

/// Run the full DPI over one call's (filtered) RTC UDP datagrams.
///
/// ```
/// use rtc_dpi::{dissect_call, DatagramClass, DpiConfig};
/// use rtc_pcap::{trace::Datagram, Timestamp};
/// use rtc_wire::ip::FiveTuple;
///
/// // An RTP stream hiding behind a 10-byte proprietary header.
/// let tuple = FiveTuple::udp("10.0.0.1:5000".parse().unwrap(), "1.2.3.4:6000".parse().unwrap());
/// let dgrams: Vec<Datagram> = (0..6u16)
///     .map(|i| {
///         let mut payload = vec![0x0B; 10];
///         payload.extend(
///             rtc_wire::rtp::PacketBuilder::new(96, 100 + i, 0, 0x42).payload(vec![0; 40]).build(),
///         );
///         Datagram { ts: Timestamp::from_millis(i as u64 * 20), five_tuple: tuple, payload: payload.into() }
///     })
///     .collect();
/// let out = dissect_call(&dgrams, &DpiConfig::default());
/// assert!(out.datagrams.iter().all(|d| d.class == DatagramClass::ProprietaryHeader));
/// assert!(out.datagrams.iter().all(|d| d.prop_header_len == 10));
/// ```
pub fn dissect_call<D: std::borrow::Borrow<Datagram> + Sync>(datagrams: &[D], config: &DpiConfig) -> CallDissection {
    dissect_call_sampled(datagrams, config, 0).0
}

/// What [`dissect_call_sampled`] observed on the way, for the metrics
/// layer: facts about the work, not about the result.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DissectStats {
    /// Candidates the extractor produced, indexed by
    /// [`CandidateKind::matcher_index`].
    pub candidates: [u64; CandidateKind::MATCHER_LABELS.len()],
    /// Candidates left for validation after the noise cut dropped the RTP
    /// candidates of groups too small to validate.
    pub kept_candidates: u64,
    /// `(datagram index, nanoseconds)`: the wall-clocked resolution of every
    /// `sample_every`-th datagram, in index order (timed in
    /// `par::resolve_interned`, the interned-stream form of
    /// [`par::resolve_all`]).
    pub resolve_ns: Vec<(usize, u64)>,
}

/// [`dissect_call`], also counting candidates per matcher and those kept
/// for validation, and clocking the resolution of every
/// `sample_every`-th datagram (0 = none). The dissection is the same at
/// every `sample_every` and thread count.
pub fn dissect_call_sampled<D: std::borrow::Borrow<Datagram> + Sync>(
    datagrams: &[D],
    config: &DpiConfig,
    sample_every: usize,
) -> (CallDissection, DissectStats) {
    dissect(datagrams, config, sample_every, None)
}

/// [`dissect_call_sampled`], with the noise cut's count table forced to
/// `cut_table` slots when given (see [`cut`]).
fn dissect<D: std::borrow::Borrow<Datagram> + Sync>(
    datagrams: &[D],
    config: &DpiConfig,
    sample_every: usize,
    cut_table: Option<usize>,
) -> (CallDissection, DissectStats) {
    let mut stats = DissectStats::default();

    // Each datagram's stream is numbered once, before extraction; the
    // noise cut, validation and resolution index by that number.
    let mut streams = resolve::StreamTable::default();
    let sids: Vec<u32> = datagrams.iter().map(|d| streams.intern(d.borrow().five_tuple)).collect();

    // ---- Step 1: candidate extraction (Algorithm 1, lines 5–13). -------
    // Most RTP candidates are offset-aliasing noise in groups too small to
    // validate; extraction holds them as 8-byte lanes and cuts them before
    // any becomes a candidate, so the batch that validation and resolution
    // read holds only the candidates that can matter. Fanned out over
    // chunked workers when the call is large enough (see [`par`]).
    let (batch, candidates) = par::extract_cut(datagrams, &sids, config, cut_table);
    stats.candidates = candidates;
    stats.kept_candidates = batch.candidate_count() as u64;

    // ---- Step 2: protocol-specific validation (lines 14–19). -----------
    let mut builder = resolve::ContextBuilder::with_streams(config, streams);
    for ((d, candidates), &sid) in datagrams.iter().zip(batch.iter()).zip(&sids) {
        builder.observe_stream(sid, d.borrow(), candidates);
    }
    let mut ctx = builder.finish();

    // ---- Step 3: per-datagram resolution and classification. -----------
    // Pure per-datagram work against the frozen context; the resolver
    // fans chunks over workers when the call is large enough.
    let (dissections, resolve_ns) = par::resolve_interned(datagrams, &sids, &batch, &ctx, config, sample_every);
    drop(batch);
    stats.resolve_ns = resolve_ns;
    let mut out = CallDissection::default();
    // Tally by (protocol, reason) — a handful of distinct values per call —
    // and spell each one out as its taxonomy key once.
    let mut tally: Vec<(pattern::Rejection, usize)> = Vec::new();
    for (dd, d) in dissections.iter().zip(datagrams) {
        if dd.class == DatagramClass::FullyProprietary {
            let why = pattern::Rejection::of(&d.borrow().payload);
            match tally.iter_mut().find(|(r, _)| *r == why) {
                Some((_, n)) => *n += 1,
                None => tally.push((why, 1)),
            }
        }
    }
    for (why, n) in tally {
        *out.rejections.entry(why.key().into_owned()).or_default() += n;
    }
    out.datagrams = dissections;
    // The context is done once every datagram is resolved; hand its SSRC
    // map to the caller instead of cloning it wholesale.
    out.rtp_ssrcs = std::mem::take(&mut ctx.rtp_ssrcs);
    (out, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use rtc_wire::rtp::PacketBuilder;
    use rtc_wire::stun::{attr, msg_type, ChannelData, MessageBuilder};

    fn dgram(ts_ms: u64, payload: Vec<u8>) -> Datagram {
        Datagram {
            ts: Timestamp::from_millis(ts_ms),
            five_tuple: FiveTuple::udp("10.0.0.1:1000".parse().unwrap(), "1.2.3.4:2000".parse().unwrap()),
            payload: Bytes::from(payload),
        }
    }

    fn rtp_stream_datagrams(n: usize, ssrc: u32, prefix: &[u8]) -> Vec<Datagram> {
        (0..n)
            .map(|i| {
                let mut p = prefix.to_vec();
                p.extend(PacketBuilder::new(96, 100 + i as u16, 1000 + i as u32, ssrc).payload(vec![7; 50]).build());
                dgram(i as u64 * 20, p)
            })
            .collect()
    }

    #[test]
    fn offset_zero_rtp_stream_is_standard() {
        let d = rtp_stream_datagrams(10, 0xAA, &[]);
        let out = dissect_call(&d, &DpiConfig::default());
        assert_eq!(out.datagrams.len(), 10);
        for dd in &out.datagrams {
            assert_eq!(dd.class, DatagramClass::Standard);
            assert_eq!(dd.messages.len(), 1);
            assert_eq!(dd.messages[0].protocol, Protocol::Rtp);
            assert_eq!(dd.prop_header_len, 0);
        }
        let ssrcs = out.rtp_ssrcs.values().next().unwrap();
        assert!(ssrcs.contains(&0xAA));
    }

    #[test]
    fn proprietary_prefix_is_detected() {
        let d = rtp_stream_datagrams(10, 0xBB, &[0x0B, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07]);
        let out = dissect_call(&d, &DpiConfig::default());
        for dd in &out.datagrams {
            assert_eq!(dd.class, DatagramClass::ProprietaryHeader, "msgs: {:?}", dd.messages.len());
            assert_eq!(dd.prop_header_len, 8);
            assert_eq!(dd.messages[0].protocol, Protocol::Rtp);
        }
    }

    #[test]
    fn short_rtp_groups_are_rejected() {
        // Two lone RTP-looking datagrams: below the validation threshold.
        let d = rtp_stream_datagrams(2, 0xCC, &[]);
        let out = dissect_call(&d, &DpiConfig::default());
        for dd in &out.datagrams {
            assert_eq!(dd.class, DatagramClass::FullyProprietary);
        }
    }

    #[test]
    fn random_seqs_are_rejected() {
        let d: Vec<Datagram> = [9000u16, 100, 42000, 7, 30000, 12]
            .iter()
            .enumerate()
            .map(|(i, &s)| dgram(i as u64 * 20, PacketBuilder::new(96, s, 0, 0xDD).payload(vec![1; 40]).build()))
            .collect();
        let out = dissect_call(&d, &DpiConfig::default());
        assert!(out.datagrams.iter().all(|dd| dd.class == DatagramClass::FullyProprietary));
    }

    #[test]
    fn modern_stun_validates_alone() {
        let msg = MessageBuilder::new(msg_type::BINDING_REQUEST, [7; 12])
            .attribute(attr::PRIORITY, vec![0, 0, 0, 1])
            .build();
        let out = dissect_call(&[dgram(0, msg)], &DpiConfig::default());
        let dd = &out.datagrams[0];
        assert_eq!(dd.class, DatagramClass::Standard);
        assert_eq!(dd.messages[0].protocol, Protocol::StunTurn);
        match dd.messages[0].kind {
            CandidateKind::Stun { message_type, modern } => {
                assert_eq!(message_type, msg_type::BINDING_REQUEST);
                assert!(modern);
            }
            _ => panic!("wrong kind"),
        }
    }

    #[test]
    fn legacy_stun_requires_exact_cover_and_repetition() {
        let build = |seed: u8| {
            MessageBuilder::new_legacy(0x0001, [1, 2, 3, seed], [seed; 12])
                .attribute(0x0101, b"12345678901234567890".to_vec())
                .build()
        };
        // A lone cookie-less match is untrusted (weak RFC 3489 header).
        let out = dissect_call(&[dgram(0, build(1))], &DpiConfig::default());
        assert_eq!(out.datagrams[0].class, DatagramClass::FullyProprietary);
        // Repetition on the stream validates the group.
        let out = dissect_call(&[dgram(0, build(1)), dgram(100, build(2))], &DpiConfig::default());
        assert!(out.datagrams.iter().all(|d| d.class == DatagramClass::Standard));
        // With trailing junk, the legacy pattern no longer matches exactly.
        let mut padded = build(1);
        padded.extend_from_slice(&[1, 2, 3]);
        let out = dissect_call(&[dgram(0, padded.clone()), dgram(100, padded)], &DpiConfig::default());
        assert_eq!(out.datagrams[0].class, DatagramClass::FullyProprietary);
    }

    #[test]
    fn channeldata_with_aligned_rtp_is_standard_nested() {
        let mut inner_dgrams = Vec::new();
        for i in 0..6 {
            let inner = PacketBuilder::new(100, 10 + i as u16, 0, 0xEE).payload(vec![3; 60]).build();
            inner_dgrams.push(dgram(i as u64 * 20, ChannelData::build(0x4001, &inner)));
        }
        let out = dissect_call(&inner_dgrams, &DpiConfig::default());
        for dd in &out.datagrams {
            assert_eq!(dd.class, DatagramClass::Standard);
            assert_eq!(dd.messages.len(), 2, "ChannelData + nested RTP");
            assert_eq!(dd.messages[0].protocol, Protocol::StunTurn);
            assert_eq!(dd.messages[1].protocol, Protocol::Rtp);
            assert!(dd.messages[1].nested);
        }
    }

    #[test]
    fn facetime_0x6000_framing_is_a_proprietary_header() {
        // FaceTime's relay framing starts 0x6000 — outside RFC 8656's
        // channel range, so it is NOT ChannelData; the embedded RTP is
        // found 8 bytes in and the prefix reported as proprietary.
        let mut dgrams = Vec::new();
        for i in 0..6 {
            let inner = PacketBuilder::new(100, 10 + i as u16, 0, 0xFF).payload(vec![3; 60]).build();
            let mut p = Vec::new();
            p.extend_from_slice(&0x6000u16.to_be_bytes());
            p.extend_from_slice(&((4 + inner.len()) as u16).to_be_bytes());
            p.extend_from_slice(&[0x01, 0x02, 0x03, 0x04]); // junk
            p.extend_from_slice(&inner);
            dgrams.push(dgram(i as u64 * 20, p));
        }
        let out = dissect_call(&dgrams, &DpiConfig::default());
        for dd in &out.datagrams {
            assert_eq!(dd.class, DatagramClass::ProprietaryHeader);
            assert_eq!(dd.prop_header_len, 8);
            assert_eq!(dd.messages.len(), 1, "only the embedded RTP message");
            assert_eq!(dd.messages[0].protocol, Protocol::Rtp);
            assert!(!dd.messages[0].nested);
        }
    }

    #[test]
    fn channeldata_with_length_shortfall_is_standard_but_trailing_is_exposed() {
        let mut dgrams = Vec::new();
        for i in 0..6 {
            let inner = PacketBuilder::new(100, 10 + i as u16, 0, 0xEE).payload(vec![3; 60]).build();
            let mut p = ChannelData::build(0x4002, &inner);
            p.extend_from_slice(&[0xAB, 0xCD]); // 2 bytes past the declared length
            dgrams.push(dgram(i as u64 * 20, p));
        }
        let out = dissect_call(&dgrams, &DpiConfig::default());
        for dd in &out.datagrams {
            assert_eq!(dd.class, DatagramClass::Standard);
            assert_eq!(dd.trailing.len(), 2);
            assert!(dd.messages.iter().any(|m| matches!(m.kind, CandidateKind::ChannelData { .. })));
        }
    }

    #[test]
    fn rtcp_compound_with_trailer() {
        let mut dgrams = Vec::new();
        for i in 0..5 {
            // First establish the RTP stream so RTCP cross-validates.
            dgrams.push(dgram(i * 20, PacketBuilder::new(96, i as u16, 0, 0x77).payload(vec![0; 40]).build()));
        }
        let sr = rtc_wire::rtcp::SenderReport {
            ssrc: 0x77,
            ntp_timestamp: 1,
            rtp_timestamp: 2,
            packet_count: 3,
            octet_count: 4,
            reports: vec![],
        }
        .build();
        let mut compound = sr;
        compound.extend_from_slice(&rtc_wire::rtcp::build_bye(&[0x77]));
        compound.extend_from_slice(&[0x00, 0x2A, 0x80]); // 3-byte trailer
        dgrams.push(dgram(200, compound));
        let out = dissect_call(&dgrams, &DpiConfig::default());
        let dd = out.datagrams.last().unwrap();
        assert_eq!(dd.class, DatagramClass::Standard);
        assert_eq!(dd.messages.len(), 2);
        assert!(dd.messages.iter().all(|m| m.protocol == Protocol::Rtcp));
        assert_eq!(&dd.trailing[..], &[0x00, 0x2A, 0x80]);
    }

    #[test]
    fn rtcp_with_foreign_ssrc_is_rejected() {
        let rr = rtc_wire::rtcp::ReceiverReport { ssrc: 0xBAD, reports: vec![] }.build();
        let out = dissect_call(&[dgram(0, rr)], &DpiConfig::default());
        assert_eq!(out.datagrams[0].class, DatagramClass::FullyProprietary);
    }

    #[test]
    fn rtcp_with_zero_ssrc_is_accepted() {
        // Discord's SSRC=0 feedback must still be recognized as RTCP (§5.3).
        let fb = rtc_wire::rtcp::Feedback {
            packet_type: rtc_wire::rtcp::packet_type::RTPFB,
            fmt: 1,
            sender_ssrc: 0,
            media_ssrc: 5,
            fci: vec![0; 4],
        }
        .build();
        let out = dissect_call(&[dgram(0, fb)], &DpiConfig::default());
        assert_eq!(out.datagrams[0].class, DatagramClass::Standard);
        assert_eq!(out.datagrams[0].messages[0].protocol, Protocol::Rtcp);
    }

    #[test]
    fn zoom_style_double_rtp_yields_two_messages() {
        let ssrc = 0x505;
        let mut dgrams = rtp_stream_datagrams(5, ssrc, &[]);
        // Runt + full in one datagram.
        let runt = PacketBuilder::new(110, 40_000, 123, ssrc).payload(vec![0x11; 7]).build();
        let full = PacketBuilder::new(110, 105, 123, ssrc).payload(vec![9; 200]).build();
        let mut both = runt;
        both.extend_from_slice(&full);
        dgrams.push(dgram(500, both));
        let out = dissect_call(&dgrams, &DpiConfig::default());
        let dd = out.datagrams.last().unwrap();
        assert_eq!(dd.messages.len(), 2, "both RTP messages recovered");
        assert_eq!(dd.messages[0].data.len(), 19, "runt truncated at the second message");
        assert_eq!(dd.class, DatagramClass::Standard);
    }

    #[test]
    fn quic_long_and_short_headers() {
        let long = |lt| {
            let mut p = rtc_wire::quic::LongHeader {
                fixed_bit: true,
                long_type: lt,
                type_specific: 0,
                version: rtc_wire::quic::VERSION_1,
                dcid: vec![9; 8],
                scid: vec![8; 8],
                header_len: 0,
            }
            .build();
            p.extend_from_slice(&[0xAB; 60]);
            p
        };
        let mut dgrams = vec![
            dgram(0, long(rtc_wire::quic::LongType::Initial)),
            dgram(10, long(rtc_wire::quic::LongType::Handshake)),
        ];
        let mut short =
            rtc_wire::quic::ShortHeader { fixed_bit: true, spin: false, dcid: vec![9; 8], header_len: 0 }.build();
        short.extend_from_slice(&[0xCD; 30]);
        dgrams.push(dgram(20, short));
        let out = dissect_call(&dgrams, &DpiConfig::default());
        assert!(out.datagrams.iter().all(|d| d.class == DatagramClass::Standard));
        assert!(out.datagrams.iter().all(|d| d.messages[0].protocol == Protocol::Quic));
    }

    /// Validation re-reads a long header's connection IDs at its
    /// candidate offset, so one behind a proprietary prefix still admits
    /// short headers on its conversation — here in the reverse direction.
    #[test]
    fn quic_long_header_behind_prefix_admits_short_headers() {
        let mut long = vec![0x0B; 5];
        long.extend(
            rtc_wire::quic::LongHeader {
                fixed_bit: true,
                long_type: rtc_wire::quic::LongType::Initial,
                type_specific: 0,
                version: rtc_wire::quic::VERSION_1,
                dcid: vec![4; 8],
                scid: vec![7; 6],
                header_len: 0,
            }
            .build(),
        );
        long.extend_from_slice(&[0xAB; 40]);
        let mut short =
            rtc_wire::quic::ShortHeader { fixed_bit: true, spin: false, dcid: vec![7; 6], header_len: 0 }.build();
        short.extend_from_slice(&[0xCD; 30]);
        let forward = dgram(0, long);
        let reverse = Datagram { five_tuple: forward.five_tuple.reversed(), ..dgram(10, short.clone()) };
        let out = dissect_call(&[forward, reverse], &DpiConfig::default());
        let (prefixed, answer) = (&out.datagrams[0], &out.datagrams[1]);
        assert_eq!(prefixed.class, DatagramClass::ProprietaryHeader);
        assert_eq!(prefixed.prop_header_len, 5);
        assert!(matches!(prefixed.messages[0].kind, CandidateKind::QuicLong { .. }));
        assert_eq!(answer.class, DatagramClass::Standard, "{answer:?}");
        assert_eq!(answer.messages[0].kind, CandidateKind::QuicShortProbe);
        // Without the long header the same short header stays unvalidated.
        let alone = dissect_call(&[dgram(10, short)], &DpiConfig::default());
        assert_eq!(alone.datagrams[0].class, DatagramClass::FullyProprietary);
    }

    #[test]
    fn fully_proprietary_datagrams() {
        let out = dissect_call(
            &[dgram(0, vec![0xDE, 0xAD, 0xBE, 0xEF, 0xCA, 0xFE, 1, 2, 3, 4]), dgram(1, vec![0x01; 1000])],
            &DpiConfig::default(),
        );
        assert!(out.datagrams.iter().all(|d| d.class == DatagramClass::FullyProprietary));
        let (by_proto, fully) = out.message_distribution();
        assert!(by_proto.is_empty());
        assert_eq!(fully, 2);
    }

    #[test]
    fn empty_payload() {
        let out = dissect_call(&[dgram(0, vec![])], &DpiConfig::default());
        assert_eq!(out.datagrams[0].class, DatagramClass::FullyProprietary);
        assert_eq!(out.rejections.get("empty payload"), Some(&1));
    }

    #[test]
    fn rejections_attribute_parse_failures() {
        // 0xDE leads with QUIC long-header bits but truncates mid-CID;
        // 0x01-filled bytes look like STUN with a misaligned length field.
        let out = dissect_call(
            &[dgram(0, vec![0xDE, 0xAD, 0xBE, 0xEF, 0xCA, 0xFE, 1, 2, 3, 4]), dgram(1, vec![0x01; 1000])],
            &DpiConfig::default(),
        );
        assert!(out.datagrams.iter().all(|d| d.class == DatagramClass::FullyProprietary));
        assert_eq!(out.rejections.get("quic: truncated"), Some(&1));
        assert_eq!(out.rejections.get("stun: length alignment"), Some(&1));
    }

    #[test]
    fn rejections_attribute_validation_failures() {
        // A lone structurally-valid RTP packet fails group validation, not
        // the wire grammar.
        let d = rtp_stream_datagrams(1, 0xCC, &[]);
        let out = dissect_call(&d, &DpiConfig::default());
        assert_eq!(out.datagrams[0].class, DatagramClass::FullyProprietary);
        assert_eq!(out.rejections.get("rtp: failed stream validation"), Some(&1));
    }

    #[test]
    fn dissect_call_accepts_borrowed_views() {
        // The filter layer hands out Vec<&Datagram>; both forms must agree.
        let owned = rtp_stream_datagrams(10, 0xAB, &[]);
        let borrowed: Vec<&Datagram> = owned.iter().collect();
        let config = DpiConfig::default();
        assert_eq!(dissect_call(&borrowed, &config), dissect_call(&owned, &config));
    }

    /// The public stepwise path with no noise cut: every candidate is
    /// pushed, observed and resolved. Returns the dissection and the
    /// per-matcher candidate counts.
    fn unpruned_stepwise(datagrams: &[Datagram], config: &DpiConfig) -> (CallDissection, [u64; 5]) {
        let mut batch = CandidateBatch::with_capacity(datagrams.len());
        for d in datagrams {
            batch.push_payload(&d.payload, config.max_offset);
        }
        let mut counts = [0u64; 5];
        let mut builder = resolve::ContextBuilder::new(config);
        for (i, d) in datagrams.iter().enumerate() {
            builder.observe(d, batch.get(i));
            for c in batch.get(i) {
                counts[c.kind.matcher_index()] += 1;
            }
        }
        let mut ctx = builder.finish();
        let (dissections, _) = par::resolve_all(datagrams, &batch, &ctx, config, 0);
        let mut out = CallDissection::default();
        for (dd, d) in dissections.iter().zip(datagrams) {
            if dd.class == DatagramClass::FullyProprietary {
                *out.rejections.entry(rejection_key(&d.payload).into_owned()).or_default() += 1;
            }
        }
        out.datagrams = dissections;
        out.rtp_ssrcs = std::mem::take(&mut ctx.rtp_ssrcs);
        (out, counts)
    }

    /// A call of RTP groups sized one below, at and one above each tested
    /// `rtp_min_group`, on three streams and both directions, some behind
    /// a proprietary prefix, some inside ChannelData or a STUN DATA
    /// attribute, with SSRCs forced to share low bits, RTCP naming group
    /// or foreign SSRCs, and random noise datagrams; the groups interleave
    /// in arrival order.
    fn grouped_call(rng: &mut rtc_conformance::SplitMix64) -> Vec<Datagram> {
        use rtc_wire::stun::{attr, msg_type, ChannelData, MessageBuilder};
        let tuples: Vec<FiveTuple> = (0..3)
            .map(|i| {
                FiveTuple::udp(format!("10.0.0.{}:1000", i + 1).parse().unwrap(), "1.2.3.4:2000".parse().unwrap())
            })
            .collect();
        let low = rng.next_u64() as u32 & 0xFFFF;
        let mut lists: Vec<Vec<(FiveTuple, Vec<u8>)>> = Vec::new();
        let mut ssrcs = Vec::new();
        for _ in 0..rng.in_range(1..=30usize) {
            let mut tuple = tuples[rng.below(tuples.len())];
            if rng.below(4) == 0 {
                tuple = tuple.reversed();
            }
            let ssrc = if rng.below(2) == 0 { (rng.below(4) as u32) << 16 | low } else { rng.next_u64() as u32 };
            ssrcs.push(ssrc);
            let prefix_max = if rng.below(3) == 0 { 12 } else { 0 };
            let prefix = rng.bytes(0..=prefix_max);
            let wrap = rng.below(6);
            let continuous = rng.below(5) != 0;
            let mut seq = rng.next_u64() as u16;
            let mut list = Vec::new();
            // m - 1, m or m + 1 members for m in {2, 5, 8}.
            for _ in 0..[1, 2, 3, 4, 5, 6, 7, 8, 9][rng.below(9)] {
                seq = if continuous { seq.wrapping_add(rng.in_range(1..=3u16)) } else { rng.next_u64() as u16 };
                let body = rng.bytes(8..=120);
                let rtp = PacketBuilder::new(96, seq, seq as u32 * 160, ssrc).payload(body).build();
                let mut p = prefix.clone();
                match wrap {
                    0 => p.extend(ChannelData::build(0x4001, &rtp)),
                    1 => p.extend(
                        MessageBuilder::new(msg_type::DATA_INDICATION, [5; 12]).attribute(attr::DATA, rtp).build(),
                    ),
                    _ => p.extend(rtp),
                }
                list.push((tuple, p));
            }
            lists.push(list);
        }
        let mut rtcp = Vec::new();
        for _ in 0..rng.in_range(0..=4usize) {
            let ssrc = if rng.below(3) == 0 { rng.next_u64() as u32 } else { ssrcs[rng.below(ssrcs.len())] };
            let sr = rtc_wire::rtcp::SenderReport {
                ssrc,
                ntp_timestamp: 1,
                rtp_timestamp: 2,
                packet_count: 3,
                octet_count: 4,
                reports: vec![],
            };
            rtcp.push((tuples[rng.below(tuples.len())].reversed(), sr.build()));
        }
        lists.push(rtcp);
        // A third of the calls carry enough noise to span several chunks
        // of the parallel driver.
        let noise = if rng.below(3) == 0 { rng.in_range(0..=700usize) } else { rng.in_range(0..=20usize) };
        lists.push((0..noise).map(|_| (tuples[rng.below(tuples.len())], rng.bytes(0..=200))).collect());
        // Merge the lists in random order, each list's own order kept.
        for list in &mut lists {
            list.reverse();
        }
        let mut out = Vec::new();
        while lists.iter().any(|l| !l.is_empty()) {
            let live: Vec<usize> = (0..lists.len()).filter(|&i| !lists[i].is_empty()).collect();
            let (tuple, payload) = lists[live[rng.below(live.len())]].pop().expect("non-empty");
            let ts = Timestamp::from_millis(out.len() as u64);
            out.push(Datagram { ts, five_tuple: tuple, payload: Bytes::from(payload) });
        }
        out
    }

    /// The noise cut changes no verdict: `dissect_call_sampled` equals the
    /// unpruned public stepwise path at every tested `rtp_min_group`, with
    /// and without forced count-table collisions, serial and on the chunked
    /// parallel path.
    #[test]
    fn noise_cut_matches_the_unpruned_stepwise_path() {
        let (mut cut, mut validated_rtp, mut chunked) = (0u64, 0usize, 0usize);
        rtc_conformance::check_cases("noise_cut_matches_the_unpruned_stepwise_path", 32, |rng| {
            let datagrams = grouped_call(rng);
            for min_group in [0usize, 1, 2, 5, 8] {
                let serial = DpiConfig { rtp_min_group: min_group, threads: 1, ..DpiConfig::default() };
                let (want, counts) = unpruned_stepwise(&datagrams, &serial);
                let total: u64 = counts.iter().sum();
                for threads in [1usize, 3] {
                    let config = DpiConfig { threads, parallel_threshold: 1, ..serial };
                    chunked += (par::planned_threads(datagrams.len(), &config) > 1) as usize;
                    for table in [None, Some(1), Some(2), Some(8)] {
                        let (out, stats) = dissect(&datagrams, &config, 0, table);
                        let at = format!("min_group {min_group}, threads {threads}, table {table:?}");
                        assert_eq!(out, want, "{at}");
                        assert_eq!(stats.candidates, counts, "{at}");
                        assert!(stats.kept_candidates <= total, "{at}");
                        if min_group <= 1 {
                            assert_eq!(stats.kept_candidates, total, "{at}");
                        }
                        if min_group == 5 && table.is_none() && threads == 1 {
                            cut += total - stats.kept_candidates;
                        }
                    }
                }
                if min_group == 5 {
                    validated_rtp += want.messages().filter(|(_, m)| m.protocol == Protocol::Rtp).count();
                }
            }
        });
        assert!(cut > 0 && validated_rtp > 0, "the cases must both cut noise and validate groups");
        assert!(chunked > 0, "some cases must run the chunked parallel path");
    }

    /// A group past the `u8` count limit saturates its slot, and a
    /// saturated slot keeps its candidates whatever `rtp_min_group` is.
    #[test]
    fn saturated_group_counts_keep_their_candidates() {
        let d = rtp_stream_datagrams(300, 0x5A7, &[]);
        for min_group in [300usize, 301] {
            let config = DpiConfig { rtp_min_group: min_group, ..DpiConfig::default() };
            let (want, _) = unpruned_stepwise(&d, &config);
            let (out, stats) = dissect_call_sampled(&d, &config, 0);
            assert_eq!(out, want, "min_group {min_group}");
            assert!(stats.kept_candidates >= 300, "min_group {min_group}: the group's 300 candidates stay");
            let standard = out.datagrams.iter().all(|dd| dd.class == DatagramClass::Standard);
            assert_eq!(standard, min_group == 300, "min_group {min_group}");
        }
    }

    #[test]
    fn max_offset_limits_depth() {
        // RTP buried 50 bytes deep: found with k=200, missed with k=8.
        let d = rtp_stream_datagrams(6, 0x99, &[0x05; 50]);
        let deep = dissect_call(&d, &DpiConfig::default());
        assert!(deep.datagrams.iter().all(|x| x.class == DatagramClass::ProprietaryHeader));
        let shallow = dissect_call(&d, &DpiConfig { max_offset: 8, ..DpiConfig::default() });
        assert!(shallow.datagrams.iter().all(|x| x.class == DatagramClass::FullyProprietary));
    }
}
