//! Ethernet / IPv4 / IPv6 / UDP / TCP encapsulation for the trace substrate,
//! and the [`FiveTuple`] stream key the filtering pipeline groups by
//! (paper §3.2: source IP, source port, destination IP, destination port,
//! transport protocol).
//!
//! The emulated capture path writes Ethernet-framed packets into pcap files;
//! the analysis path parses them back. Only the fields the study touches are
//! modeled: there are no IP options, no IPv6 extension headers, and no
//! TCP options. The IPv4 header checksum is computed and verified; UDP/TCP
//! checksums are emitted as zero (a valid "not computed" marker for UDP over
//! IPv4, and irrelevant to the study's message-level analysis).

use crate::{field, Result, WireError, WireProtocol};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr};

/// Protocol tag for every error this module raises.
const P: WireProtocol = WireProtocol::Ip;

/// Transport-layer protocol of a stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Transport {
    /// UDP (IP protocol 17).
    Udp,
    /// TCP (IP protocol 6).
    Tcp,
}

impl Transport {
    /// The IP protocol number.
    pub fn protocol_number(self) -> u8 {
        match self {
            Transport::Udp => 17,
            Transport::Tcp => 6,
        }
    }

    /// Decode from an IP protocol number.
    pub fn from_protocol_number(n: u8) -> Option<Transport> {
        match n {
            17 => Some(Transport::Udp),
            6 => Some(Transport::Tcp),
            _ => None,
        }
    }
}

impl core::fmt::Display for Transport {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Transport::Udp => write!(f, "UDP"),
            Transport::Tcp => write!(f, "TCP"),
        }
    }
}

/// The 5-tuple identifying a transport stream (paper §3.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FiveTuple {
    /// Source endpoint.
    pub src: SocketAddr,
    /// Destination endpoint.
    pub dst: SocketAddr,
    /// Transport protocol.
    pub transport: Transport,
}

/// The destination-side 3-tuple used by the stage-2 "3-tuple timing filter"
/// (paper §3.2.2): destination IP, destination port, transport protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ThreeTuple {
    /// Destination IP address.
    pub ip: IpAddr,
    /// Destination port.
    pub port: u16,
    /// Transport protocol.
    pub transport: Transport,
}

impl FiveTuple {
    /// Construct a UDP 5-tuple.
    pub fn udp(src: SocketAddr, dst: SocketAddr) -> FiveTuple {
        FiveTuple { src, dst, transport: Transport::Udp }
    }

    /// Construct a TCP 5-tuple.
    pub fn tcp(src: SocketAddr, dst: SocketAddr) -> FiveTuple {
        FiveTuple { src, dst, transport: Transport::Tcp }
    }

    /// The same stream in the opposite direction.
    pub fn reversed(&self) -> FiveTuple {
        FiveTuple { src: self.dst, dst: self.src, transport: self.transport }
    }

    /// A direction-agnostic key: both directions of a conversation map to
    /// the same value (the lexicographically smaller orientation).
    pub fn canonical(&self) -> FiveTuple {
        let rev = self.reversed();
        if *self <= rev {
            *self
        } else {
            rev
        }
    }

    /// The destination-side 3-tuple.
    pub fn dst_three_tuple(&self) -> ThreeTuple {
        ThreeTuple { ip: self.dst.ip(), port: self.dst.port(), transport: self.transport }
    }

    /// The source-side 3-tuple (destination 3-tuple of the reverse direction).
    pub fn src_three_tuple(&self) -> ThreeTuple {
        ThreeTuple { ip: self.src.ip(), port: self.src.port(), transport: self.transport }
    }

    /// Whether either endpoint is in a private / link-local / unique-local
    /// range (the stage-2 "local IP filtering" predicate, paper §3.2.2).
    pub fn touches_local_range(&self) -> bool {
        is_local_scope(self.src.ip()) || is_local_scope(self.dst.ip())
    }
}

impl core::fmt::Display for FiveTuple {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{} {} -> {}", self.transport, self.src, self.dst)
    }
}

/// Whether `ip` falls in the address scopes the local-IP filter matches:
/// IPv4 private ranges (RFC 1918), IPv6 link-local `fe80::/10`, or IPv6
/// unique-local `fd00::/8` (paper §3.2.2).
pub fn is_local_scope(ip: IpAddr) -> bool {
    match ip {
        IpAddr::V4(v4) => v4.is_private() || v4.is_link_local(),
        IpAddr::V6(v6) => {
            let o = v6.octets();
            // fe80::/10 link-local, fd00::/8 unique-local.
            (o[0] == 0xfe && o[1] & 0xc0 == 0x80) || o[0] == 0xfd
        }
    }
}

/// EtherType for IPv4.
pub const ETHERTYPE_IPV4: u16 = 0x0800;
/// EtherType for IPv6.
pub const ETHERTYPE_IPV6: u16 = 0x86DD;
/// Length of an Ethernet II header.
pub const ETHERNET_HEADER_LEN: usize = 14;

/// A fully parsed captured packet: its stream key and transport payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsedPacket<'a> {
    /// The transport 5-tuple.
    pub five_tuple: FiveTuple,
    /// The transport payload (UDP datagram payload or TCP segment payload).
    pub payload: &'a [u8],
}

/// Longest header [`write_ethernet_packet`] emits: Ethernet, IPv6, TCP.
const MAX_HEADER_LEN: usize = ETHERNET_HEADER_LEN + 40 + 20;

fn ip_header_len(tuple: &FiveTuple) -> usize {
    if tuple.src.is_ipv4() {
        20
    } else {
        40
    }
}

fn transport_header_len(transport: Transport) -> usize {
    match transport {
        Transport::Udp => 8,
        Transport::Tcp => 20,
    }
}

/// Length of the frame [`write_ethernet_packet`] emits for `tuple`
/// carrying `payload_len` bytes.
pub fn ethernet_frame_len(tuple: &FiveTuple, payload_len: usize) -> usize {
    ETHERNET_HEADER_LEN + ip_header_len(tuple) + transport_header_len(tuple.transport) + payload_len
}

/// Offset of the 4-byte TCP sequence number within a frame for `tuple`,
/// so a writer that learns the sequence later can fill it in place.
pub fn tcp_seq_offset(tuple: &FiveTuple) -> usize {
    ETHERNET_HEADER_LEN + ip_header_len(tuple) + 4
}

/// Append the Ethernet frame for `tuple` carrying `payload` to `out`:
/// exactly [`ethernet_frame_len`] bytes, the headers from a stack buffer
/// and the payload copied once. Reallocates only when `out` lacks the
/// room.
///
/// MAC addresses are synthesized from the IP addresses (the study never
/// inspects them). IPv4 headers carry no options and a valid checksum;
/// IPv6 headers carry no extension headers. UDP checksums are zero. TCP
/// segments are emitted with the PSH+ACK flags, no options and the
/// provided `tcp_seq` sequence number.
///
/// # Panics
/// When the two endpoints are of different address families.
pub fn write_ethernet_packet(out: &mut Vec<u8>, tuple: &FiveTuple, payload: &[u8], tcp_seq: u32) {
    let mut h = [0u8; MAX_HEADER_LEN];
    h[0..6].copy_from_slice(&mac_for(tuple.dst.ip()));
    h[6..12].copy_from_slice(&mac_for(tuple.src.ip()));
    let transport_len = transport_header_len(tuple.transport) + payload.len();
    let protocol = tuple.transport.protocol_number();
    let ip = ETHERNET_HEADER_LEN;
    let l4 = match (tuple.src.ip(), tuple.dst.ip()) {
        (IpAddr::V4(s), IpAddr::V4(d)) => {
            h[12..14].copy_from_slice(&ETHERTYPE_IPV4.to_be_bytes());
            h[ip] = 0x45; // version 4, IHL 5; DSCP/ECN and identification stay 0
            h[ip + 2..ip + 4].copy_from_slice(&((20 + transport_len) as u16).to_be_bytes());
            h[ip + 6] = 0x40; // DF, no fragment offset
            h[ip + 8] = 64; // TTL
            h[ip + 9] = protocol;
            h[ip + 12..ip + 16].copy_from_slice(&s.octets());
            h[ip + 16..ip + 20].copy_from_slice(&d.octets());
            let csum = ipv4_checksum(&h[ip..ip + 20]);
            h[ip + 10..ip + 12].copy_from_slice(&csum.to_be_bytes());
            ip + 20
        }
        (IpAddr::V6(s), IpAddr::V6(d)) => {
            h[12..14].copy_from_slice(&ETHERTYPE_IPV6.to_be_bytes());
            h[ip] = 0x60; // version 6, no traffic class / flow label
            h[ip + 4..ip + 6].copy_from_slice(&(transport_len as u16).to_be_bytes());
            h[ip + 6] = protocol;
            h[ip + 7] = 64; // hop limit
            h[ip + 8..ip + 24].copy_from_slice(&s.octets());
            h[ip + 24..ip + 40].copy_from_slice(&d.octets());
            ip + 40
        }
        _ => panic!("mixed address families in one tuple"),
    };
    h[l4..l4 + 2].copy_from_slice(&tuple.src.port().to_be_bytes());
    h[l4 + 2..l4 + 4].copy_from_slice(&tuple.dst.port().to_be_bytes());
    let end = match tuple.transport {
        Transport::Udp => {
            h[l4 + 4..l4 + 6].copy_from_slice(&(transport_len as u16).to_be_bytes());
            l4 + 8
        }
        Transport::Tcp => {
            h[l4 + 4..l4 + 8].copy_from_slice(&tcp_seq.to_be_bytes()); // ack stays 0
            h[l4 + 12] = 5 << 4; // data offset 5 words
            h[l4 + 13] = 0x18; // PSH|ACK
            h[l4 + 14..l4 + 16].copy_from_slice(&0xFFFFu16.to_be_bytes()); // window
            l4 + 20
        }
    };
    out.extend_from_slice(&h[..end]);
    out.extend_from_slice(payload);
}

/// Build the Ethernet frame for `tuple` carrying `payload` in a vector of
/// its own: [`write_ethernet_packet`] into an exactly sized buffer. The
/// capture path writes frames in place instead (`rtc_netemu::TrafficSink`).
pub fn build_ethernet_packet(tuple: &FiveTuple, payload: &[u8], tcp_seq: u32) -> Vec<u8> {
    let mut out = Vec::with_capacity(ethernet_frame_len(tuple, payload.len()));
    write_ethernet_packet(&mut out, tuple, payload, tcp_seq);
    out
}

/// Parse an Ethernet-framed packet back into its 5-tuple and payload.
pub fn parse_ethernet_packet(frame: &[u8]) -> Result<ParsedPacket<'_>> {
    let ethertype = field::u16_at(P, frame, 12)?;
    let ip = if frame.len() >= ETHERNET_HEADER_LEN {
        &frame[ETHERNET_HEADER_LEN..]
    } else {
        return Err(WireError::truncated(P, frame.len()));
    };
    match ethertype {
        ETHERTYPE_IPV4 => parse_ipv4_packet(ip),
        ETHERTYPE_IPV6 => parse_ipv6_packet(ip),
        _ => Err(WireError::malformed(P, 12, "ethertype")),
    }
}

fn mac_for(ip: IpAddr) -> [u8; 6] {
    match ip {
        IpAddr::V4(v4) => {
            let o = v4.octets();
            [0x02, 0x00, o[0], o[1], o[2], o[3]]
        }
        IpAddr::V6(v6) => {
            let o = v6.octets();
            [0x02, 0x06, o[12], o[13], o[14], o[15]]
        }
    }
}

fn ipv4_checksum(header: &[u8]) -> u16 {
    let mut sum = 0u32;
    for chunk in header.chunks(2) {
        let v = if chunk.len() == 2 {
            u16::from_be_bytes([chunk[0], chunk[1]])
        } else {
            u16::from_be_bytes([chunk[0], 0])
        };
        sum += v as u32;
    }
    while sum >> 16 != 0 {
        sum = (sum & 0xFFFF) + (sum >> 16);
    }
    !(sum as u16)
}

fn parse_ipv4_packet(ip: &[u8]) -> Result<ParsedPacket<'_>> {
    if field::u8_at(P, ip, 0)? >> 4 != 4 {
        return Err(WireError::malformed(P, 0, "ip version"));
    }
    let ihl = (ip[0] & 0x0F) as usize * 4;
    if ihl < 20 {
        return Err(WireError::malformed(P, 0, "ipv4 ihl"));
    }
    let total_len = field::u16_at(P, ip, 2)? as usize;
    if total_len < ihl || ip.len() < total_len {
        return Err(WireError::truncated(P, ip.len().min(total_len)));
    }
    let protocol = field::u8_at(P, ip, 9)?;
    let header = &ip[..ihl];
    if ipv4_checksum(header) != 0 {
        return Err(WireError::malformed(P, 10, "ipv4 checksum"));
    }
    let src = Ipv4Addr::new(ip[12], ip[13], ip[14], ip[15]);
    let dst = Ipv4Addr::new(ip[16], ip[17], ip[18], ip[19]);
    parse_transport(src.into(), dst.into(), protocol, &ip[ihl..total_len])
}

fn parse_ipv6_packet(ip: &[u8]) -> Result<ParsedPacket<'_>> {
    if field::u8_at(P, ip, 0)? >> 4 != 6 {
        return Err(WireError::malformed(P, 0, "ip version"));
    }
    let payload_len = field::u16_at(P, ip, 4)? as usize;
    let next_header = field::u8_at(P, ip, 6)?;
    if ip.len() < 40 + payload_len {
        return Err(WireError::truncated(P, ip.len()));
    }
    let mut s = [0u8; 16];
    s.copy_from_slice(&ip[8..24]);
    let mut d = [0u8; 16];
    d.copy_from_slice(&ip[24..40]);
    parse_transport(Ipv6Addr::from(s).into(), Ipv6Addr::from(d).into(), next_header, &ip[40..40 + payload_len])
}

fn parse_transport(src: IpAddr, dst: IpAddr, protocol: u8, seg: &[u8]) -> Result<ParsedPacket<'_>> {
    let transport =
        Transport::from_protocol_number(protocol).ok_or(WireError::malformed(P, 0, "transport protocol"))?;
    match transport {
        Transport::Udp => {
            let src_port = field::u16_at(P, seg, 0)?;
            let dst_port = field::u16_at(P, seg, 2)?;
            let udp_len = field::u16_at(P, seg, 4)? as usize;
            if udp_len < 8 || seg.len() < udp_len {
                return Err(WireError::truncated(P, seg.len().min(udp_len)));
            }
            Ok(ParsedPacket {
                five_tuple: FiveTuple::udp(SocketAddr::new(src, src_port), SocketAddr::new(dst, dst_port)),
                payload: &seg[8..udp_len],
            })
        }
        Transport::Tcp => {
            let src_port = field::u16_at(P, seg, 0)?;
            let dst_port = field::u16_at(P, seg, 2)?;
            let data_offset = (field::u8_at(P, seg, 12)? >> 4) as usize * 4;
            if data_offset < 20 || seg.len() < data_offset {
                return Err(WireError::truncated(P, seg.len().min(data_offset)));
            }
            Ok(ParsedPacket {
                five_tuple: FiveTuple::tcp(SocketAddr::new(src, src_port), SocketAddr::new(dst, dst_port)),
                payload: &seg[data_offset..],
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v4_tuple() -> FiveTuple {
        FiveTuple::udp("10.0.0.5:50000".parse().unwrap(), "203.0.113.9:3478".parse().unwrap())
    }

    #[test]
    fn udp_ipv4_roundtrip() {
        let t = v4_tuple();
        let frame = build_ethernet_packet(&t, b"hello rtc", 0);
        let parsed = parse_ethernet_packet(&frame).unwrap();
        assert_eq!(parsed.five_tuple, t);
        assert_eq!(parsed.payload, b"hello rtc");
    }

    #[test]
    fn tcp_ipv4_roundtrip() {
        let t = FiveTuple::tcp("10.0.0.5:443".parse().unwrap(), "198.51.100.1:55000".parse().unwrap());
        let frame = build_ethernet_packet(&t, b"tls bytes", 12345);
        let parsed = parse_ethernet_packet(&frame).unwrap();
        assert_eq!(parsed.five_tuple, t);
        assert_eq!(parsed.payload, b"tls bytes");
    }

    #[test]
    fn udp_ipv6_roundtrip() {
        let t = FiveTuple::udp("[2001:db8::1]:40000".parse().unwrap(), "[2001:db8::2]:3478".parse().unwrap());
        let frame = build_ethernet_packet(&t, &[0xAB; 100], 0);
        let parsed = parse_ethernet_packet(&frame).unwrap();
        assert_eq!(parsed.five_tuple, t);
        assert_eq!(parsed.payload, &[0xAB; 100][..]);
    }

    #[test]
    fn empty_payload_roundtrip() {
        let frame = build_ethernet_packet(&v4_tuple(), &[], 0);
        let parsed = parse_ethernet_packet(&frame).unwrap();
        assert!(parsed.payload.is_empty());
    }

    #[test]
    fn checksum_corruption_detected() {
        let mut frame = build_ethernet_packet(&v4_tuple(), b"x", 0);
        frame[ETHERNET_HEADER_LEN + 12] ^= 0xFF; // flip a source-address byte
        assert!(parse_ethernet_packet(&frame).is_err());
    }

    #[test]
    fn reversed_and_canonical() {
        let t = v4_tuple();
        assert_eq!(t.reversed().reversed(), t);
        assert_eq!(t.canonical(), t.reversed().canonical());
    }

    #[test]
    fn three_tuples() {
        let t = v4_tuple();
        assert_eq!(t.dst_three_tuple().port, 3478);
        assert_eq!(t.src_three_tuple().port, 50000);
        assert_eq!(t.dst_three_tuple(), t.reversed().src_three_tuple());
    }

    #[test]
    fn local_scope_detection() {
        assert!(is_local_scope("192.168.1.1".parse().unwrap()));
        assert!(is_local_scope("10.1.2.3".parse().unwrap()));
        assert!(is_local_scope("172.16.0.1".parse().unwrap()));
        assert!(is_local_scope("fe80::1".parse().unwrap()));
        assert!(is_local_scope("fd12::1".parse().unwrap()));
        assert!(!is_local_scope("8.8.8.8".parse().unwrap()));
        assert!(!is_local_scope("2001:db8::1".parse().unwrap()));
    }

    #[test]
    fn transport_protocol_numbers() {
        assert_eq!(Transport::Udp.protocol_number(), 17);
        assert_eq!(Transport::Tcp.protocol_number(), 6);
        assert_eq!(Transport::from_protocol_number(17), Some(Transport::Udp));
        assert_eq!(Transport::from_protocol_number(6), Some(Transport::Tcp));
        assert_eq!(Transport::from_protocol_number(1), None);
    }

    /// The layered render the frame writer replaced: transport segment,
    /// then the IP packet around it, then the frame around that.
    fn layered_frame(tuple: &FiveTuple, payload: &[u8], tcp_seq: u32) -> Vec<u8> {
        let (sp, dp) = (tuple.src.port().to_be_bytes(), tuple.dst.port().to_be_bytes());
        let mut seg = [&sp[..], &dp[..]].concat();
        match tuple.transport {
            Transport::Udp => {
                seg.extend_from_slice(&((8 + payload.len()) as u16).to_be_bytes());
                seg.extend_from_slice(&[0, 0]);
            }
            Transport::Tcp => {
                seg.extend_from_slice(&tcp_seq.to_be_bytes());
                seg.extend_from_slice(&[0, 0, 0, 0, 5 << 4, 0x18, 0xFF, 0xFF, 0, 0, 0, 0]);
            }
        }
        seg.extend_from_slice(payload);
        let proto = tuple.transport.protocol_number();
        let (ethertype, mut packet) = match (tuple.src.ip(), tuple.dst.ip()) {
            (IpAddr::V4(s), IpAddr::V4(d)) => {
                let mut h = vec![0x45, 0];
                h.extend_from_slice(&((20 + seg.len()) as u16).to_be_bytes());
                h.extend_from_slice(&[0, 0, 0x40, 0, 64, proto, 0, 0]);
                h.extend_from_slice(&s.octets());
                h.extend_from_slice(&d.octets());
                let csum = ipv4_checksum(&h);
                h[10..12].copy_from_slice(&csum.to_be_bytes());
                (ETHERTYPE_IPV4, h)
            }
            (IpAddr::V6(s), IpAddr::V6(d)) => {
                let mut h = vec![0x60, 0, 0, 0];
                h.extend_from_slice(&(seg.len() as u16).to_be_bytes());
                h.extend_from_slice(&[proto, 64]);
                h.extend_from_slice(&s.octets());
                h.extend_from_slice(&d.octets());
                (ETHERTYPE_IPV6, h)
            }
            _ => unreachable!(),
        };
        packet.extend_from_slice(&seg);
        let mut frame = [mac_for(tuple.dst.ip()), mac_for(tuple.src.ip())].concat();
        frame.extend_from_slice(&ethertype.to_be_bytes());
        frame.extend_from_slice(&packet);
        frame
    }

    #[test]
    fn frame_writer_matches_the_layered_render() {
        let tuples = [
            v4_tuple(),
            FiveTuple::tcp("10.0.0.5:443".parse().unwrap(), "198.51.100.1:55000".parse().unwrap()),
            FiveTuple::udp("[2001:db8::1]:40000".parse().unwrap(), "[2001:db8::2]:3478".parse().unwrap()),
            FiveTuple::tcp("[fe80::7]:5223".parse().unwrap(), "[2001:db8::9]:443".parse().unwrap()),
        ];
        for tuple in &tuples {
            for len in [0usize, 1, 2, 3, 171, 1200, 70_000] {
                let payload: Vec<u8> = (0..len).map(|i| (i * 31 + 7) as u8).collect();
                let want = layered_frame(tuple, &payload, 0x0102_0304);
                assert_eq!(ethernet_frame_len(tuple, len), want.len(), "{tuple} len {len}");
                // The writer appends: whatever precedes the frame stays put.
                let mut out = b"prefix".to_vec();
                write_ethernet_packet(&mut out, tuple, &payload, 0x0102_0304);
                assert_eq!(&out[..6], b"prefix");
                assert_eq!(out[6..], want[..], "{tuple} len {len}");
                if tuple.transport == Transport::Tcp {
                    let at = tcp_seq_offset(tuple);
                    assert_eq!(want[at..at + 4], [1, 2, 3, 4], "{tuple}");
                }
            }
        }
    }

    #[test]
    fn rejects_unknown_ethertype() {
        let mut frame = build_ethernet_packet(&v4_tuple(), b"x", 0);
        frame[12] = 0x08;
        frame[13] = 0x06; // ARP
        assert!(parse_ethernet_packet(&frame).is_err());
    }
}
