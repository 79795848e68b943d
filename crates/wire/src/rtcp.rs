//! RTCP wire format (RFC 3550 §6, RFC 4585 feedback messages, RFC 3611 XR)
//! plus the SRTCP trailer (RFC 3711 §3.4).
//!
//! RTCP packets are self-delimiting (the header carries a length in 32-bit
//! words), and several packets are usually stacked into one *compound*
//! datagram. [`CompoundIter`] walks a datagram and stops at the first byte
//! run that is not a valid RTCP header, exposing the remainder through
//! [`split_compound`] — that remainder is where SRTCP trailers and
//! proprietary trailers (e.g. Discord's direction byte, paper §5.2.3) live.

use crate::{field, Result, WireError, WireProtocol};

/// Protocol tag for every error this module raises.
const P: WireProtocol = WireProtocol::Rtcp;

/// Well-known RTCP packet types.
pub mod packet_type {
    /// Sender Report.
    pub const SR: u8 = 200;
    /// Receiver Report.
    pub const RR: u8 = 201;
    /// Source Description.
    pub const SDES: u8 = 202;
    /// Goodbye.
    pub const BYE: u8 = 203;
    /// Application-defined.
    pub const APP: u8 = 204;
    /// Transport-layer feedback (RFC 4585).
    pub const RTPFB: u8 = 205;
    /// Payload-specific feedback (RFC 4585).
    pub const PSFB: u8 = 206;
    /// Extended Reports (RFC 3611).
    pub const XR: u8 = 207;
}

/// A checked view of a single RTCP packet.
#[derive(Debug, Clone, Copy)]
pub struct Packet<'a> {
    buf: &'a [u8],
}

impl<'a> Packet<'a> {
    /// Parse an RTCP packet starting at byte 0 of `buf`.
    ///
    /// `buf` may extend past the packet (compound packets); the packet ends
    /// at [`Packet::wire_len`]. Checks version 2 and that the declared
    /// length fits the buffer.
    pub fn new_checked(buf: &'a [u8]) -> Result<Packet<'a>> {
        if buf.len() < 4 {
            return Err(WireError::truncated(P, buf.len()));
        }
        if buf[0] >> 6 != 2 {
            return Err(WireError::malformed(P, 0, "version"));
        }
        let words = field::u16_at(P, buf, 2)? as usize;
        if buf.len() < 4 * (words + 1) {
            return Err(WireError::truncated(P, buf.len()));
        }
        #[cfg(feature = "cov-probes")]
        {
            // One probe per well-known packet type keeps the per-type body
            // grammars apart in the coverage signature.
            match buf[1] {
                packet_type::SR => rtc_cov::probe!("rtcp.accept.sr"),
                packet_type::RR => rtc_cov::probe!("rtcp.accept.rr"),
                packet_type::SDES => rtc_cov::probe!("rtcp.accept.sdes"),
                packet_type::BYE => rtc_cov::probe!("rtcp.accept.bye"),
                packet_type::APP => rtc_cov::probe!("rtcp.accept.app"),
                packet_type::RTPFB => rtc_cov::probe!("rtcp.accept.rtpfb"),
                packet_type::PSFB => rtc_cov::probe!("rtcp.accept.psfb"),
                packet_type::XR => rtc_cov::probe!("rtcp.accept.xr"),
                _ => rtc_cov::probe!("rtcp.accept.other-type"),
            }
        }
        Ok(Packet { buf })
    }

    /// Protocol version (always 2 for a checked packet).
    pub fn version(&self) -> u8 {
        self.buf[0] >> 6
    }

    /// The padding (P) bit.
    pub fn has_padding(&self) -> bool {
        self.buf[0] & 0x20 != 0
    }

    /// The 5-bit count field (RC for SR/RR, SC for SDES/BYE, FMT for
    /// feedback, subtype for APP).
    pub fn count(&self) -> u8 {
        self.buf[0] & 0x1F
    }

    /// The packet type.
    pub fn packet_type(&self) -> u8 {
        self.buf[1]
    }

    /// The declared length field (32-bit words minus one).
    pub fn declared_words(&self) -> usize {
        u16::from_be_bytes([self.buf[2], self.buf[3]]) as usize
    }

    /// Total packet size on the wire.
    pub fn wire_len(&self) -> usize {
        4 * (self.declared_words() + 1)
    }

    /// The packet body (everything after the 4-byte header).
    pub fn body(&self) -> &'a [u8] {
        &self.buf[4..self.wire_len()]
    }

    /// The full packet bytes.
    pub fn as_bytes(&self) -> &'a [u8] {
        &self.buf[..self.wire_len()]
    }

    /// The SSRC in the first body word — defined for SR, RR, APP, RTPFB,
    /// PSFB and XR packets; `None` when the body is empty.
    pub fn ssrc(&self) -> Option<u32> {
        let b = self.body();
        if b.len() >= 4 {
            Some(u32::from_be_bytes([b[0], b[1], b[2], b[3]]))
        } else {
            None
        }
    }
}

/// Split a datagram region into its RTCP compound packets and the trailing
/// bytes that are not RTCP (SRTCP trailer, proprietary trailer, or nothing).
pub fn split_compound(buf: &[u8]) -> (Vec<Packet<'_>>, &[u8]) {
    let mut packets = Vec::new();
    let mut offset = 0;
    while offset < buf.len() {
        match Packet::new_checked(&buf[offset..]) {
            Ok(p) => {
                offset += p.wire_len();
                rtc_cov::probe!("rtcp.compound.step");
                packets.push(p);
            }
            Err(_) => break,
        }
    }
    #[cfg(feature = "cov-probes")]
    if offset < buf.len() {
        rtc_cov::probe!("rtcp.compound.trailing");
    }
    (packets, &buf[offset..])
}

/// Iterator form of [`split_compound`] (stops at the first non-RTCP byte).
#[derive(Debug, Clone, Copy)]
pub struct CompoundIter<'a> {
    buf: &'a [u8],
    offset: usize,
}

impl<'a> CompoundIter<'a> {
    /// Start iterating over `buf`.
    pub fn new(buf: &'a [u8]) -> CompoundIter<'a> {
        CompoundIter { buf, offset: 0 }
    }

    /// Bytes not consumed so far.
    pub fn remainder(&self) -> &'a [u8] {
        &self.buf[self.offset..]
    }
}

impl<'a> Iterator for CompoundIter<'a> {
    type Item = Packet<'a>;

    fn next(&mut self) -> Option<Self::Item> {
        let p = Packet::new_checked(&self.buf[self.offset..]).ok()?;
        self.offset += p.wire_len();
        Some(p)
    }
}

/// One report block inside an SR or RR (RFC 3550 §6.4.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReportBlock {
    /// SSRC of the reported-on source.
    pub ssrc: u32,
    /// Fraction of packets lost since the previous report (Q8).
    pub fraction_lost: u8,
    /// Cumulative number of packets lost (24-bit, sign-extended here).
    pub cumulative_lost: i32,
    /// Extended highest sequence number received.
    pub highest_seq: u32,
    /// Interarrival jitter estimate.
    pub jitter: u32,
    /// Last SR timestamp.
    pub last_sr: u32,
    /// Delay since last SR, in 1/65536 s.
    pub delay_since_last_sr: u32,
}

impl ReportBlock {
    /// Size of a report block on the wire.
    pub const WIRE_LEN: usize = 24;

    fn parse(buf: &[u8]) -> Result<ReportBlock> {
        if buf.len() < Self::WIRE_LEN {
            return Err(WireError::truncated(P, buf.len()));
        }
        let cum_raw = u32::from_be_bytes([0, buf[5], buf[6], buf[7]]);
        let cumulative_lost =
            if cum_raw & 0x0080_0000 != 0 { (cum_raw | 0xFF00_0000) as i32 } else { cum_raw as i32 };
        Ok(ReportBlock {
            ssrc: field::u32_at(P, buf, 0)?,
            fraction_lost: buf[4],
            cumulative_lost,
            highest_seq: field::u32_at(P, buf, 8)?,
            jitter: field::u32_at(P, buf, 12)?,
            last_sr: field::u32_at(P, buf, 16)?,
            delay_since_last_sr: field::u32_at(P, buf, 20)?,
        })
    }

    fn emit(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.ssrc.to_be_bytes());
        out.push(self.fraction_lost);
        out.extend_from_slice(&(self.cumulative_lost as u32).to_be_bytes()[1..]);
        out.extend_from_slice(&self.highest_seq.to_be_bytes());
        out.extend_from_slice(&self.jitter.to_be_bytes());
        out.extend_from_slice(&self.last_sr.to_be_bytes());
        out.extend_from_slice(&self.delay_since_last_sr.to_be_bytes());
    }
}

/// Parsed Sender Report contents.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SenderReport {
    /// Sender's SSRC.
    pub ssrc: u32,
    /// 64-bit NTP timestamp.
    pub ntp_timestamp: u64,
    /// RTP timestamp correlated with the NTP timestamp.
    pub rtp_timestamp: u32,
    /// Sender's packet count.
    pub packet_count: u32,
    /// Sender's octet count.
    pub octet_count: u32,
    /// Report blocks.
    pub reports: Vec<ReportBlock>,
}

impl SenderReport {
    /// Parse the body of an SR packet (`packet.count()` gives the block count).
    pub fn parse(packet: &Packet<'_>) -> Result<SenderReport> {
        if packet.packet_type() != packet_type::SR {
            return Err(WireError::malformed(P, 1, "not a sender report"));
        }
        let b = packet.body();
        let mut reports = Vec::new();
        for i in 0..packet.count() as usize {
            reports.push(ReportBlock::parse(field::slice_at(
                P,
                b,
                24 + i * ReportBlock::WIRE_LEN,
                ReportBlock::WIRE_LEN,
            )?)?);
        }
        Ok(SenderReport {
            ssrc: field::u32_at(P, b, 0)?,
            ntp_timestamp: field::u64_at(P, b, 4)?,
            rtp_timestamp: field::u32_at(P, b, 12)?,
            packet_count: field::u32_at(P, b, 16)?,
            octet_count: field::u32_at(P, b, 20)?,
            reports,
        })
    }

    /// Serialize as a complete RTCP packet.
    pub fn build(&self) -> Vec<u8> {
        let mut body = Vec::new();
        body.extend_from_slice(&self.ssrc.to_be_bytes());
        body.extend_from_slice(&self.ntp_timestamp.to_be_bytes());
        body.extend_from_slice(&self.rtp_timestamp.to_be_bytes());
        body.extend_from_slice(&self.packet_count.to_be_bytes());
        body.extend_from_slice(&self.octet_count.to_be_bytes());
        for r in &self.reports {
            r.emit(&mut body);
        }
        build_raw(self.reports.len() as u8, packet_type::SR, &body)
    }
}

/// Parsed Receiver Report contents.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReceiverReport {
    /// Reporter's SSRC.
    pub ssrc: u32,
    /// Report blocks.
    pub reports: Vec<ReportBlock>,
}

impl ReceiverReport {
    /// Parse the body of an RR packet.
    pub fn parse(packet: &Packet<'_>) -> Result<ReceiverReport> {
        if packet.packet_type() != packet_type::RR {
            return Err(WireError::malformed(P, 1, "not a receiver report"));
        }
        let b = packet.body();
        let mut reports = Vec::new();
        for i in 0..packet.count() as usize {
            reports.push(ReportBlock::parse(field::slice_at(
                P,
                b,
                4 + i * ReportBlock::WIRE_LEN,
                ReportBlock::WIRE_LEN,
            )?)?);
        }
        Ok(ReceiverReport { ssrc: field::u32_at(P, b, 0)?, reports })
    }

    /// Serialize as a complete RTCP packet.
    pub fn build(&self) -> Vec<u8> {
        let mut body = Vec::new();
        body.extend_from_slice(&self.ssrc.to_be_bytes());
        for r in &self.reports {
            r.emit(&mut body);
        }
        build_raw(self.reports.len() as u8, packet_type::RR, &body)
    }
}

/// SDES item types (RFC 3550 §6.5).
pub mod sdes_item {
    /// Canonical name.
    pub const CNAME: u8 = 1;
    /// User name.
    pub const NAME: u8 = 2;
    /// Email address.
    pub const EMAIL: u8 = 3;
    /// Phone number.
    pub const PHONE: u8 = 4;
    /// Geographic location.
    pub const LOC: u8 = 5;
    /// Tool name/version.
    pub const TOOL: u8 = 6;
    /// Notice/status.
    pub const NOTE: u8 = 7;
    /// Private extension.
    pub const PRIV: u8 = 8;
}

/// One SDES chunk: an SSRC plus its items.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SdesChunk {
    /// The SSRC/CSRC the items describe.
    pub ssrc: u32,
    /// `(item_type, value)` pairs.
    pub items: Vec<(u8, Vec<u8>)>,
}

/// Parsed Source Description packet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Sdes {
    /// The chunks.
    pub chunks: Vec<SdesChunk>,
}

/// One step of an SDES walk ([`Sdes::walk`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SdesEntry<'a> {
    /// A chunk starts; its items follow.
    Chunk {
        /// The SSRC/CSRC the chunk's items describe.
        ssrc: u32,
    },
    /// One item of the current chunk.
    Item {
        /// The item type.
        kind: u8,
        /// The item value, borrowed from the packet.
        value: &'a [u8],
    },
}

impl Sdes {
    /// Parse an SDES packet body.
    pub fn parse(packet: &Packet<'_>) -> Result<Sdes> {
        let mut chunks: Vec<SdesChunk> = Vec::new();
        Sdes::walk(packet, |entry| match entry {
            SdesEntry::Chunk { ssrc } => chunks.push(SdesChunk { ssrc, items: Vec::new() }),
            SdesEntry::Item { kind, value } => {
                if let Some(chunk) = chunks.last_mut() {
                    chunk.items.push((kind, value.to_vec()));
                }
            }
        })?;
        Ok(Sdes { chunks })
    }

    /// Walk an SDES packet's chunks and items in order without copying.
    /// Entries before a malformed field have been visited when the error
    /// returns.
    pub fn walk<'a>(packet: &Packet<'a>, mut visit: impl FnMut(SdesEntry<'a>)) -> Result<()> {
        if packet.packet_type() != packet_type::SDES {
            return Err(WireError::malformed(P, 1, "not an sdes"));
        }
        let b = packet.body();
        let mut o = 0;
        for _ in 0..packet.count() {
            visit(SdesEntry::Chunk { ssrc: field::u32_at(P, b, o)? });
            o += 4;
            loop {
                let t = field::u8_at(P, b, o)?;
                if t == 0 {
                    // End of items; chunk is padded to the next 32-bit boundary.
                    o += 1;
                    o += (4 - o % 4) % 4;
                    break;
                }
                let len = field::u8_at(P, b, o + 1)? as usize;
                visit(SdesEntry::Item { kind: t, value: field::slice_at(P, b, o + 2, len)? });
                o += 2 + len;
            }
        }
        Ok(())
    }

    /// Serialize as a complete RTCP packet.
    pub fn build(&self) -> Vec<u8> {
        let mut body = Vec::new();
        for chunk in &self.chunks {
            body.extend_from_slice(&chunk.ssrc.to_be_bytes());
            for (t, v) in &chunk.items {
                body.push(*t);
                body.push(v.len() as u8);
                body.extend_from_slice(v);
            }
            body.push(0);
            while body.len() % 4 != 0 {
                body.push(0);
            }
        }
        build_raw(self.chunks.len() as u8, packet_type::SDES, &body)
    }
}

/// Parsed APP packet (RFC 3550 §6.7).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct App {
    /// Subtype (the header count field).
    pub subtype: u8,
    /// Source SSRC.
    pub ssrc: u32,
    /// 4-character ASCII name.
    pub name: [u8; 4],
    /// Application-dependent data.
    pub data: Vec<u8>,
}

impl App {
    /// Parse an APP packet.
    pub fn parse(packet: &Packet<'_>) -> Result<App> {
        if packet.packet_type() != packet_type::APP {
            return Err(WireError::malformed(P, 1, "not an app packet"));
        }
        let b = packet.body();
        let name_slice = field::slice_at(P, b, 4, 4)?;
        let mut name = [0u8; 4];
        name.copy_from_slice(name_slice);
        Ok(App { subtype: packet.count(), ssrc: field::u32_at(P, b, 0)?, name, data: b[8..].to_vec() })
    }

    /// Serialize as a complete RTCP packet. `data` must be a 4-byte multiple.
    pub fn build(&self) -> Vec<u8> {
        let mut body = Vec::new();
        body.extend_from_slice(&self.ssrc.to_be_bytes());
        body.extend_from_slice(&self.name);
        body.extend_from_slice(&self.data);
        while body.len() % 4 != 0 {
            body.push(0);
        }
        build_raw(self.subtype, packet_type::APP, &body)
    }
}

/// Parsed feedback packet (RTPFB 205 / PSFB 206, RFC 4585 §6.1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Feedback {
    /// The packet type (205 or 206).
    pub packet_type: u8,
    /// Feedback message type (the header count field).
    pub fmt: u8,
    /// SSRC of the packet sender.
    pub sender_ssrc: u32,
    /// SSRC of the media source the feedback is about.
    pub media_ssrc: u32,
    /// Feedback Control Information.
    pub fci: Vec<u8>,
}

/// RTPFB feedback message types (FMT values, RFC 4585 / 8888 / draft-tcc).
pub mod rtpfb_fmt {
    /// Generic NACK.
    pub const NACK: u8 = 1;
    /// Temporary Maximum Media Stream Bit Rate Request (RFC 5104).
    pub const TMMBR: u8 = 3;
    /// Temporary Maximum Media Stream Bit Rate Notification (RFC 5104).
    pub const TMMBN: u8 = 4;
    /// Transport-wide congestion control (draft-holmer-rmcat-transport-wide-cc).
    pub const TRANSPORT_CC: u8 = 15;
}

/// PSFB feedback message types (FMT values, RFC 4585 / 5104).
pub mod psfb_fmt {
    /// Picture Loss Indication.
    pub const PLI: u8 = 1;
    /// Slice Loss Indication.
    pub const SLI: u8 = 2;
    /// Reference Picture Selection Indication.
    pub const RPSI: u8 = 3;
    /// Full Intra Request (RFC 5104).
    pub const FIR: u8 = 4;
    /// Receiver Estimated Max Bitrate (draft-alvestrand-rmcat-remb).
    pub const AFB_REMB: u8 = 15;
}

impl Feedback {
    /// Parse an RTPFB or PSFB packet.
    pub fn parse(packet: &Packet<'_>) -> Result<Feedback> {
        if packet.packet_type() != packet_type::RTPFB && packet.packet_type() != packet_type::PSFB {
            return Err(WireError::malformed(P, 1, "not a feedback packet"));
        }
        let b = packet.body();
        Ok(Feedback {
            packet_type: packet.packet_type(),
            fmt: packet.count(),
            sender_ssrc: field::u32_at(P, b, 0)?,
            media_ssrc: field::u32_at(P, b, 4)?,
            fci: b[8..].to_vec(),
        })
    }

    /// Serialize as a complete RTCP packet.
    pub fn build(&self) -> Vec<u8> {
        let mut body = Vec::new();
        body.extend_from_slice(&self.sender_ssrc.to_be_bytes());
        body.extend_from_slice(&self.media_ssrc.to_be_bytes());
        body.extend_from_slice(&self.fci);
        while body.len() % 4 != 0 {
            body.push(0);
        }
        build_raw(self.fmt, self.packet_type, &body)
    }
}

/// Serialize a raw RTCP packet from header fields and a 4-byte-aligned body.
pub fn build_raw(count: u8, packet_type: u8, body: &[u8]) -> Vec<u8> {
    debug_assert!(body.len().is_multiple_of(4), "rtcp body must be 32-bit aligned");
    let mut out = Vec::with_capacity(4 + body.len());
    out.push((2 << 6) | (count & 0x1F));
    out.push(packet_type);
    out.extend_from_slice(&((body.len() / 4) as u16).to_be_bytes());
    out.extend_from_slice(body);
    out
}

/// Build a BYE packet for the given sources.
pub fn build_bye(ssrcs: &[u32]) -> Vec<u8> {
    let mut body = Vec::new();
    for s in ssrcs {
        body.extend_from_slice(&s.to_be_bytes());
    }
    build_raw(ssrcs.len() as u8, packet_type::BYE, &body)
}

/// The SRTCP trailer appended to an encrypted compound packet (RFC 3711 §3.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SrtcpTrailer {
    /// The E (encryption) flag.
    pub encrypted: bool,
    /// The 31-bit SRTCP index.
    pub index: u32,
    /// Length of the authentication tag that followed the index (bytes).
    pub auth_tag_len: usize,
}

impl SrtcpTrailer {
    /// Parse a trailer from the last `4 + auth_tag_len` bytes of `trailer`.
    ///
    /// RFC 3711 mandates an authentication tag (typically 10 bytes for the
    /// default HMAC-SHA1-80). Google Meet omits it on relayed Wi-Fi calls
    /// (paper §5.2.3) — pass `auth_tag_len = 0` to parse those 4-byte
    /// trailers; the compliance layer flags the missing tag.
    pub fn parse(trailer: &[u8], auth_tag_len: usize) -> Result<SrtcpTrailer> {
        if trailer.len() < 4 + auth_tag_len {
            return Err(WireError::truncated(P, trailer.len()));
        }
        let base = trailer.len() - 4 - auth_tag_len;
        let word = field::u32_at(P, trailer, base)?;
        Ok(SrtcpTrailer { encrypted: word & 0x8000_0000 != 0, index: word & 0x7FFF_FFFF, auth_tag_len })
    }

    /// Serialize the trailer, deriving `auth_tag_len` pseudorandom tag
    /// bytes from `tag_seed` (a real tag is an HMAC — uniformly random to
    /// any observer, which matters to DPI validation realism).
    pub fn build(&self, tag_seed: u64) -> Vec<u8> {
        let mut out = Vec::with_capacity(4 + self.auth_tag_len);
        let word = (self.index & 0x7FFF_FFFF) | ((self.encrypted as u32) << 31);
        out.extend_from_slice(&word.to_be_bytes());
        let mut state = tag_seed ^ 0x9E37_79B9_7F4A_7C15;
        while out.len() < 4 + self.auth_tag_len {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            let bytes = (z ^ (z >> 31)).to_le_bytes();
            let need = 4 + self.auth_tag_len - out.len();
            out.extend_from_slice(&bytes[..need.min(8)]);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_block(ssrc: u32) -> ReportBlock {
        ReportBlock {
            ssrc,
            fraction_lost: 12,
            cumulative_lost: -3,
            highest_seq: 0x0001_F00D,
            jitter: 88,
            last_sr: 0xDEAD_BEEF,
            delay_since_last_sr: 6553,
        }
    }

    #[test]
    fn sender_report_roundtrip() {
        let sr = SenderReport {
            ssrc: 0x1234_5678,
            ntp_timestamp: 0xE000_0000_8000_0000,
            rtp_timestamp: 160_000,
            packet_count: 500,
            octet_count: 64_000,
            reports: vec![sample_block(0xAAAA_0001), sample_block(0xAAAA_0002)],
        };
        let bytes = sr.build();
        let p = Packet::new_checked(&bytes).unwrap();
        assert_eq!(p.packet_type(), packet_type::SR);
        assert_eq!(p.count(), 2);
        assert_eq!(p.wire_len(), bytes.len());
        assert_eq!(p.ssrc(), Some(0x1234_5678));
        assert_eq!(SenderReport::parse(&p).unwrap(), sr);
    }

    #[test]
    fn receiver_report_roundtrip() {
        let rr = ReceiverReport { ssrc: 42, reports: vec![sample_block(7)] };
        let bytes = rr.build();
        let p = Packet::new_checked(&bytes).unwrap();
        assert_eq!(ReceiverReport::parse(&p).unwrap(), rr);
    }

    #[test]
    fn negative_cumulative_loss_sign_extends() {
        let rr = ReceiverReport { ssrc: 1, reports: vec![sample_block(2)] };
        let parsed = ReceiverReport::parse(&Packet::new_checked(&rr.build()).unwrap()).unwrap();
        assert_eq!(parsed.reports[0].cumulative_lost, -3);
    }

    #[test]
    fn sdes_roundtrip() {
        let sdes =
            Sdes { chunks: vec![SdesChunk { ssrc: 99, items: vec![(sdes_item::CNAME, b"user@host".to_vec())] }] };
        let bytes = sdes.build();
        let p = Packet::new_checked(&bytes).unwrap();
        assert_eq!(p.packet_type(), packet_type::SDES);
        assert_eq!(Sdes::parse(&p).unwrap(), sdes);
    }

    #[test]
    fn app_roundtrip() {
        let app = App { subtype: 3, ssrc: 77, name: *b"qos ", data: vec![1, 2, 3, 4] };
        let p_bytes = app.build();
        let p = Packet::new_checked(&p_bytes).unwrap();
        assert_eq!(App::parse(&p).unwrap(), app);
    }

    #[test]
    fn feedback_roundtrip() {
        let fb = Feedback {
            packet_type: packet_type::RTPFB,
            fmt: rtpfb_fmt::TRANSPORT_CC,
            sender_ssrc: 0x0B0B_0B0B,
            media_ssrc: 0x0C0C_0C0C,
            fci: vec![0; 8],
        };
        let bytes = fb.build();
        let p = Packet::new_checked(&bytes).unwrap();
        assert_eq!(Feedback::parse(&p).unwrap(), fb);
    }

    #[test]
    fn zero_sender_ssrc_parses() {
        // Discord uses sender SSRC 0 in ~25% of type-205 feedback (paper §5.3).
        let fb = Feedback {
            packet_type: packet_type::RTPFB,
            fmt: rtpfb_fmt::NACK,
            sender_ssrc: 0,
            media_ssrc: 5,
            fci: vec![0, 1, 0, 0],
        };
        let p_bytes = fb.build();
        let parsed = Feedback::parse(&Packet::new_checked(&p_bytes).unwrap()).unwrap();
        assert_eq!(parsed.sender_ssrc, 0);
    }

    #[test]
    fn bye_parses() {
        let bytes = build_bye(&[1, 2, 3]);
        let p = Packet::new_checked(&bytes).unwrap();
        assert_eq!(p.packet_type(), packet_type::BYE);
        assert_eq!(p.count(), 3);
        assert_eq!(p.body().len(), 12);
    }

    #[test]
    fn compound_splits_and_exposes_trailer() {
        let mut dgram = SenderReport {
            ssrc: 1,
            ntp_timestamp: 2,
            rtp_timestamp: 3,
            packet_count: 4,
            octet_count: 5,
            reports: vec![],
        }
        .build();
        dgram.extend_from_slice(
            &Sdes { chunks: vec![SdesChunk { ssrc: 1, items: vec![(sdes_item::CNAME, b"x".to_vec())] }] }.build(),
        );
        // Discord-style 3-byte proprietary trailer (paper §5.3).
        dgram.extend_from_slice(&[0x00, 0x2A, 0x80]);
        let (packets, trailer) = split_compound(&dgram);
        assert_eq!(packets.len(), 2);
        assert_eq!(packets[0].packet_type(), packet_type::SR);
        assert_eq!(packets[1].packet_type(), packet_type::SDES);
        assert_eq!(trailer, &[0x00, 0x2A, 0x80]);
    }

    #[test]
    fn compound_iter_matches_split() {
        let mut dgram = build_bye(&[9]);
        dgram.extend_from_slice(&build_bye(&[10]));
        let mut it = CompoundIter::new(&dgram);
        assert_eq!(it.next().unwrap().packet_type(), packet_type::BYE);
        assert_eq!(it.next().unwrap().packet_type(), packet_type::BYE);
        assert!(it.next().is_none());
        assert!(it.remainder().is_empty());
    }

    #[test]
    fn rejects_bad_version() {
        let mut bytes = build_bye(&[1]);
        bytes[0] = (bytes[0] & 0x3F) | (1 << 6);
        assert!(Packet::new_checked(&bytes).is_err());
    }

    #[test]
    fn rejects_truncated_declared_length() {
        let bytes = build_bye(&[1, 2]);
        assert!(Packet::new_checked(&bytes[..8]).unwrap_err().is_truncated());
    }

    #[test]
    fn srtcp_trailer_roundtrip() {
        let t = SrtcpTrailer { encrypted: true, index: 1234, auth_tag_len: 10 };
        let bytes = t.build(7);
        assert_eq!(bytes.len(), 14);
        assert_eq!(SrtcpTrailer::parse(&bytes, 10).unwrap(), t);
    }

    #[test]
    fn srtcp_trailer_without_tag() {
        // Google Meet's relayed-Wi-Fi trailer: E-flag + index only (paper §5.2.3).
        let t = SrtcpTrailer { encrypted: true, index: 55, auth_tag_len: 0 };
        let bytes = t.build(0);
        assert_eq!(bytes.len(), 4);
        let parsed = SrtcpTrailer::parse(&bytes, 0).unwrap();
        assert!(parsed.encrypted);
        assert_eq!(parsed.index, 55);
        assert_eq!(parsed.auth_tag_len, 0);
    }
}
