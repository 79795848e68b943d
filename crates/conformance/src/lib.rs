//! # rtc-conformance
//!
//! Malformed-input hardening for the study's parsing stack. The paper's
//! methodology only works if the measurement tools themselves are robust:
//! every capture byte reaches [`rtc_wire`]'s parsers, the DPI extractor
//! and the compliance checkers, and a single panic poisons a whole call's
//! analysis. This crate holds the shared pieces of that hardening:
//!
//! * **Golden vectors** ([`vectors`]) — hand-built RFC edge-case packets
//!   for the five protocols of the study (STUN/RFC 5389 padding and
//!   fingerprint boundaries, TURN ChannelData/RFC 8656, RTP/RFC 3550
//!   padding and RFC 8285 extensions, RTCP SR/RR/SDES/APP/BYE packets and
//!   compound rules, QUIC long and short headers) with the exact expected
//!   parse outcome, down to the [`WireError`] offset and reason. Run by
//!   `tests/golden.rs`, and the seed corpus of the `rtc-fuzz` parser
//!   targets.
//! * **Mutation and minimization** — the structure-aware [`mutate`]
//!   operators (driven by the deterministic [`SplitMix64`]) that the
//!   coverage-guided `rtc-fuzz` loop applies to those seeds, and
//!   [`minimize_input`], which shrinks a fuzz finding or an `rtc-oracle`
//!   divergence to a short reproducer.
//! * **Seeded property runner** — [`check_cases`] runs the workspace's
//!   property tests on [`SplitMix64`] draws seeded by the property name
//!   and case index, so every run replays the same cases and a failure
//!   prints the seed that regenerates its input.
//!
//! Every parser or filter bug the fuzzer flushes out gets fixed with a
//! named regression vector in `tests/regressions.rs`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use rtc_wire::quic::{LongHeader, LongType, ShortHeader, VERSION_1, VERSION_2};
use rtc_wire::rtcp::{build_bye, App, ReceiverReport, ReportBlock, Sdes, SdesChunk, SenderReport};
use rtc_wire::rtp::PacketBuilder;
use rtc_wire::stun::{ChannelData, MessageBuilder};
use rtc_wire::{Result, WireError};
use std::ops::{Bound, RangeBounds};
use std::panic::AssertUnwindSafe;

/// Which checked parser a vector is fed to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Parser {
    /// `stun::Message::new_checked` (STUN and TURN messages).
    Stun,
    /// `stun::ChannelData::new_checked` (TURN ChannelData framing).
    ChannelData,
    /// `rtp::Packet::new_checked`.
    Rtp,
    /// `rtcp::Packet::new_checked`.
    Rtcp,
    /// `quic::Header::parse` with an 8-byte short-header DCID.
    Quic,
}

impl Parser {
    /// Every parser, in vector-suite order.
    pub const ALL: [Parser; 5] = [Parser::Stun, Parser::ChannelData, Parser::Rtp, Parser::Rtcp, Parser::Quic];

    /// The DCID length assumed when parsing short QUIC headers (callers of
    /// `ShortHeader::parse` supply it from connection state).
    pub const SHORT_DCID_LEN: usize = 8;

    /// Run the parser over `bytes`, discarding the parsed view.
    pub fn parse(self, bytes: &[u8]) -> Result<()> {
        match self {
            Parser::Stun => rtc_wire::stun::Message::new_checked(bytes).map(drop),
            Parser::ChannelData => ChannelData::new_checked(bytes).map(drop),
            Parser::Rtp => rtc_wire::rtp::Packet::new_checked(bytes).map(drop),
            Parser::Rtcp => rtc_wire::rtcp::Packet::new_checked(bytes).map(drop),
            Parser::Quic => rtc_wire::quic::Header::parse(bytes, Parser::SHORT_DCID_LEN).map(drop),
        }
    }
}

/// The expected outcome of parsing a golden vector.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Expect {
    /// The parser accepts the bytes.
    Accept,
    /// The parser rejects the bytes with exactly this error.
    Reject(WireError),
}

/// One golden vector: a named byte string with its expected outcome.
#[derive(Debug, Clone)]
pub struct Vector {
    /// Stable name, referenced from test failures and regressions.
    pub name: &'static str,
    /// The parser the bytes are fed to.
    pub parser: Parser,
    /// The wire bytes.
    pub bytes: Vec<u8>,
    /// Expected parse outcome.
    pub expect: Expect,
}

impl Vector {
    fn accept(name: &'static str, parser: Parser, bytes: Vec<u8>) -> Vector {
        Vector { name, parser, bytes, expect: Expect::Accept }
    }

    fn reject(name: &'static str, parser: Parser, bytes: Vec<u8>, error: WireError) -> Vector {
        Vector { name, parser, bytes, expect: Expect::Reject(error) }
    }
}

/// The golden-vector suite: RFC edge cases for all five protocols, each
/// with at least two accepted and two rejected vectors.
pub fn vectors() -> Vec<Vector> {
    use rtc_wire::{WireError as E, WireProtocol as P};
    let txid = [7u8; 12];
    let mut v = Vec::new();

    // ---- STUN (RFC 5389 §6, §15.5) ------------------------------------
    v.push(Vector::accept("stun-binding-request", Parser::Stun, MessageBuilder::new(0x0001, txid).build()));
    // A 5-byte attribute value forces 3 bytes of padding to the 4-byte
    // attribute boundary; the declared length covers the padding.
    v.push(Vector::accept(
        "stun-attr-padded-to-boundary",
        Parser::Stun,
        MessageBuilder::new(0x0101, txid).attribute(0x8022, b"hello".to_vec()).build(),
    ));
    v.push(Vector::accept(
        "stun-fingerprint",
        Parser::Stun,
        MessageBuilder::new(0x0001, txid).attribute(0x8022, b"rtc".to_vec()).build_with_fingerprint(),
    ));
    v.push(Vector::reject("stun-header-truncated", Parser::Stun, vec![0; 19], E::truncated(P::Stun, 19)));
    v.push(Vector::reject(
        "stun-type-top-bits",
        Parser::Stun,
        {
            let mut b = MessageBuilder::new(0x0001, txid).build();
            b[0] = 0x40;
            b
        },
        E::malformed(P::Stun, 0, "type top bits"),
    ));
    v.push(Vector::reject(
        "stun-length-unaligned",
        Parser::Stun,
        {
            // Declared length 3 is not a multiple of 4 (RFC 5389 §6).
            let mut b = MessageBuilder::new(0x0001, txid).build();
            b[3] = 3;
            b.extend_from_slice(&[0; 3]);
            b
        },
        E::malformed(P::Stun, 2, "length alignment"),
    ));
    v.push(Vector::reject(
        "stun-body-truncated",
        Parser::Stun,
        {
            let mut b = MessageBuilder::new(0x0001, txid).build();
            b[3] = 8; // declares 8 body bytes the buffer does not carry
            b
        },
        E::truncated(P::Stun, 20),
    ));

    // ---- TURN ChannelData (RFC 8656 §12.4) -----------------------------
    v.push(Vector::accept("channeldata-empty", Parser::ChannelData, ChannelData::build(0x4000, b"")));
    v.push(Vector::accept("channeldata-top-channel", Parser::ChannelData, ChannelData::build(0x4FFF, b"relayed")));
    v.push(Vector::reject(
        "channeldata-demux-prefix",
        Parser::ChannelData,
        vec![0x3F, 0xFF, 0x00, 0x00], // channel 0x3FFF lacks the 0b01 prefix
        E::malformed(P::Stun, 0, "channeldata demux prefix"),
    ));
    v.push(Vector::reject(
        "channeldata-length-overrun",
        Parser::ChannelData,
        vec![0x40, 0x01, 0x00, 0x05, b'a', b'b'],
        E::truncated(P::Stun, 6),
    ));
    v.push(Vector::reject("channeldata-truncated-header", Parser::ChannelData, vec![0x40], E::truncated(P::Stun, 1)));

    // ---- RTP (RFC 3550 §5.1, RFC 8285) ---------------------------------
    v.push(Vector::accept("rtp-minimal-header", Parser::Rtp, PacketBuilder::new(96, 1, 2, 3).build()));
    v.push(Vector::accept(
        "rtp-padding-trailer",
        Parser::Rtp,
        PacketBuilder::new(96, 1, 2, 3).payload(vec![0xAB; 8]).padding(4).build(),
    ));
    v.push(Vector::accept(
        "rtp-one-byte-extension",
        Parser::Rtp,
        PacketBuilder::new(111, 4, 5, 6)
            .one_byte_extension(&[(1, &[0x30]), (2, &[1, 2])])
            .payload(vec![0; 20])
            .build(),
    ));
    v.push(Vector::accept(
        "rtp-two-byte-extension",
        Parser::Rtp,
        PacketBuilder::new(111, 4, 5, 6).two_byte_extension(0, &[(5, &[9; 17])]).payload(vec![0; 20]).build(),
    ));
    v.push(Vector::reject(
        "rtp-version-1",
        Parser::Rtp,
        {
            let mut b = PacketBuilder::new(96, 1, 2, 3).build();
            b[0] = 0x40;
            b
        },
        E::malformed(P::Rtp, 0, "version"),
    ));
    v.push(Vector::reject(
        "rtp-csrc-overrun",
        Parser::Rtp,
        {
            // CC=15 declares 60 CSRC bytes a 12-byte packet cannot hold.
            let mut b = PacketBuilder::new(96, 1, 2, 3).build();
            b[0] |= 0x0F;
            b
        },
        E::truncated(P::Rtp, 12),
    ));
    v.push(Vector::reject(
        "rtp-extension-overrun",
        Parser::Rtp,
        {
            let mut b = PacketBuilder::new(96, 1, 2, 3).build();
            b[0] |= 0x10;
            b.extend_from_slice(&[0xBE, 0xDE, 0x00, 0xFF]); // 255 words of data, none present
            b
        },
        E::truncated(P::Rtp, 16),
    ));
    v.push(Vector::reject(
        "rtp-padding-count-zero",
        Parser::Rtp,
        {
            // P bit set but the final byte (SSRC low byte) counts 0 octets.
            let mut b = PacketBuilder::new(96, 1, 2, 0).build();
            b[0] |= 0x20;
            b
        },
        E::malformed(P::Rtp, 11, "padding"),
    ));
    v.push(Vector::reject(
        "rtp-padding-count-overrun",
        Parser::Rtp,
        {
            let mut b = PacketBuilder::new(96, 1, 2, 3).build();
            b[0] |= 0x20;
            b.push(0xFF); // claims 255 padding octets in a 13-byte packet
            b
        },
        E::malformed(P::Rtp, 12, "padding"),
    ));

    // ---- RTCP (RFC 3550 §6.4) ------------------------------------------
    v.push(Vector::accept(
        "rtcp-sender-report",
        Parser::Rtcp,
        SenderReport {
            ssrc: 7,
            ntp_timestamp: 1,
            rtp_timestamp: 2,
            packet_count: 3,
            octet_count: 4,
            reports: vec![],
        }
        .build(),
    ));
    v.push(Vector::accept(
        "rtcp-receiver-report-block",
        Parser::Rtcp,
        ReceiverReport {
            ssrc: 7,
            reports: vec![ReportBlock {
                ssrc: 9,
                fraction_lost: 1,
                cumulative_lost: -2,
                highest_seq: 1000,
                jitter: 30,
                last_sr: 5,
                delay_since_last_sr: 6,
            }],
        }
        .build(),
    ));
    // One vector per remaining RFC 3550 packet type, so the SDES/APP
    // sub-parsers are fuzzed from a valid packet, not only reached by
    // mutating an SR/RR's packet-type byte.
    v.push(Vector::accept(
        "rtcp-sdes",
        Parser::Rtcp,
        Sdes {
            chunks: vec![SdesChunk {
                ssrc: 7,
                items: vec![(rtc_wire::rtcp::sdes_item::CNAME, b"user@host".to_vec())],
            }],
        }
        .build(),
    ));
    v.push(Vector::accept(
        "rtcp-app",
        Parser::Rtcp,
        App { subtype: 1, ssrc: 7, name: *b"RTCx", data: vec![1, 2, 3, 4] }.build(),
    ));
    v.push(Vector::accept("rtcp-bye", Parser::Rtcp, build_bye(&[7])));
    v.push(Vector::reject(
        "rtcp-version-0",
        Parser::Rtcp,
        vec![0x00, 200, 0x00, 0x00],
        E::malformed(P::Rtcp, 0, "version"),
    ));
    v.push(Vector::reject("rtcp-truncated-header", Parser::Rtcp, vec![0x80, 200], E::truncated(P::Rtcp, 2)));
    v.push(Vector::reject(
        "rtcp-length-overrun",
        Parser::Rtcp,
        {
            let mut b = SenderReport {
                ssrc: 7,
                ntp_timestamp: 1,
                rtp_timestamp: 2,
                packet_count: 3,
                octet_count: 4,
                reports: vec![],
            }
            .build();
            b.truncate(b.len() - 4); // declared length now overruns the buffer
            b
        },
        E::truncated(P::Rtcp, 24),
    ));

    // ---- QUIC (RFC 9000 §17) -------------------------------------------
    v.push(Vector::accept("quic-long-initial-v1", Parser::Quic, {
        let mut b = LongHeader {
            fixed_bit: true,
            long_type: LongType::Initial,
            type_specific: 0,
            version: VERSION_1,
            dcid: vec![1; 8],
            scid: vec![2; 4],
            header_len: 0,
        }
        .build();
        b.extend_from_slice(&[0; 32]);
        b
    }));
    v.push(Vector::accept(
        "quic-long-v2-zero-cids",
        Parser::Quic,
        LongHeader {
            fixed_bit: true,
            long_type: LongType::Handshake,
            type_specific: 0,
            version: VERSION_2,
            dcid: vec![],
            scid: vec![],
            header_len: 0,
        }
        .build(),
    ));
    v.push(Vector::accept("quic-short-1rtt", Parser::Quic, {
        let mut b =
            ShortHeader { fixed_bit: true, spin: false, dcid: vec![9; Parser::SHORT_DCID_LEN], header_len: 0 }
                .build();
        b.extend_from_slice(&[0; 16]);
        b
    }));
    v.push(Vector::reject(
        "quic-long-cid-overrun",
        Parser::Quic,
        vec![0xC3, 0x00, 0x00, 0x00, 0x01, 20, 1, 2, 3], // DCID length 20, 3 bytes present
        E::truncated(P::Quic, 6),
    ));
    v.push(Vector::reject(
        "quic-short-truncated-dcid",
        Parser::Quic,
        vec![0x40, 1, 2, 3], // short header with fewer than SHORT_DCID_LEN bytes
        E::truncated(P::Quic, 1),
    ));
    v.push(Vector::reject("quic-empty", Parser::Quic, vec![], E::truncated(P::Quic, 0)));

    v
}

/// A tiny deterministic RNG (SplitMix64) for reproducible structure-aware
/// mutation without pulling in an RNG dependency.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Seed the generator.
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64 { state: seed }
    }

    /// The next 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A value in `0..bound` (0 when `bound` is 0).
    pub fn below(&mut self, bound: usize) -> usize {
        if bound == 0 {
            0
        } else {
            (self.next_u64() % bound as u64) as usize
        }
    }

    /// A value in `range` (`a..b` or `a..=b`, any primitive integer
    /// type). Panics on an empty or unbounded range.
    pub fn in_range<T>(&mut self, range: impl RangeBounds<T>) -> T
    where
        T: Copy + TryInto<i128> + TryFrom<i128>,
    {
        let wide = |x: T| x.try_into().ok().expect("primitive integers fit i128");
        let lo = match range.start_bound() {
            Bound::Included(&x) => wide(x),
            Bound::Excluded(&x) => wide(x) + 1,
            Bound::Unbounded => panic!("in_range needs a lower bound"),
        };
        let hi = match range.end_bound() {
            Bound::Included(&x) => wide(x),
            Bound::Excluded(&x) => wide(x) - 1,
            Bound::Unbounded => panic!("in_range needs an upper bound"),
        };
        assert!(lo <= hi, "in_range on an empty range");
        let span = (hi - lo + 1) as u128;
        let v = lo + (self.next_u64() as u128 % span) as i128;
        T::try_from(v).ok().expect("drawn value lies in the range")
    }

    /// Random bytes, with a length drawn from `len` as [`Self::in_range`]
    /// draws it.
    pub fn bytes(&mut self, len: impl RangeBounds<usize>) -> Vec<u8> {
        let n = self.in_range(len);
        (0..n).map(|_| self.next_u64() as u8).collect()
    }
}

/// The seed of case `case` of the property `name`: an FNV-1a hash of the
/// name with the index mixed in. Fixed per (name, index), so every run
/// replays the same cases.
fn case_seed(name: &str, case: u32) -> u64 {
    let hash = name.bytes().fold(0xCBF2_9CE4_8422_2325u64, |h, b| (h ^ b as u64).wrapping_mul(0x100_0000_01B3));
    SplitMix64::new(hash ^ case as u64).next_u64()
}

/// Run a seeded property test: `property` draws its inputs from the
/// generator it is handed and checks them with ordinary `assert!`s, once
/// per case for `cases` cases. Each case's seed is a hash of `name` and
/// the case index, so every run replays the same cases. A failing case
/// panics with the property name, the case index and the seed;
/// `SplitMix64::new(seed)` regenerates that case's input.
// rtc-conformance sits below rtc-core, so it cannot use `rtc_core::contain`.
#[allow(clippy::disallowed_methods)]
pub fn check_cases(name: &str, cases: u32, mut property: impl FnMut(&mut SplitMix64)) {
    for case in 0..cases {
        let seed = case_seed(name, case);
        let mut rng = SplitMix64::new(seed);
        if let Err(panic) = std::panic::catch_unwind(AssertUnwindSafe(|| property(&mut rng))) {
            let why = panic
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| panic.downcast_ref::<&str>().copied())
                .unwrap_or("non-string panic payload");
            panic!("property `{name}` failed at case {case} (seed {seed}): {why}");
        }
    }
}

/// Apply one structure-aware mutation to `bytes`: a bit flip, byte
/// overwrite, truncation, random extension, chunk duplication or adjacent
/// swap — the mutations that turn a valid packet into the near-valid
/// malformed inputs real captures contain.
pub fn mutate(bytes: &[u8], rng: &mut SplitMix64) -> Vec<u8> {
    let mut out = bytes.to_vec();
    match rng.next_u64() % 6 {
        0 if !out.is_empty() => {
            let i = rng.below(out.len());
            out[i] ^= 1 << rng.below(8);
        }
        1 if !out.is_empty() => {
            let i = rng.below(out.len());
            out[i] = rng.next_u64() as u8;
        }
        2 => {
            let keep = rng.below(out.len() + 1);
            out.truncate(keep);
        }
        3 => {
            for _ in 0..rng.below(16) + 1 {
                out.push(rng.next_u64() as u8);
            }
        }
        4 if out.len() >= 2 => {
            let start = rng.below(out.len() - 1);
            let len = rng.below(out.len() - start) + 1;
            let chunk = out[start..start + len].to_vec();
            let at = rng.below(out.len() + 1);
            out.splice(at..at, chunk);
        }
        _ if out.len() >= 2 => {
            let i = rng.below(out.len() - 1);
            out.swap(i, i + 1);
        }
        _ => {}
    }
    out
}

/// Shrink `bytes` while `pred` holds: truncate from the end in binary
/// steps, then remove interior chunks of halving size. `pred` must hold
/// for `bytes` itself; the result is the shortest input this schedule
/// reaches that still satisfies it, and never contains a byte the
/// original did not. The fuzzer minimizes its findings with it and the
/// differential oracle its divergence repros.
pub fn minimize_input(bytes: &[u8], mut pred: impl FnMut(&[u8]) -> bool) -> Vec<u8> {
    let mut cur = bytes.to_vec();
    let mut cut = cur.len() / 2;
    while cut >= 1 {
        if cut <= cur.len() && pred(&cur[..cur.len() - cut]) {
            cur.truncate(cur.len() - cut);
        } else {
            cut /= 2;
        }
    }
    let mut chunk = cur.len() / 2;
    while chunk >= 1 {
        let mut i = 0;
        while i + chunk <= cur.len() {
            let mut candidate = Vec::with_capacity(cur.len() - chunk);
            candidate.extend_from_slice(&cur[..i]);
            candidate.extend_from_slice(&cur[i + chunk..]);
            if pred(&candidate) {
                cur = candidate;
            } else {
                i += chunk;
            }
        }
        chunk /= 2;
    }
    cur
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic_and_spreads() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        let xs: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_eq!(xs, ys);
        let distinct: std::collections::HashSet<_> = xs.iter().collect();
        assert_eq!(distinct.len(), xs.len());
        assert!(SplitMix64::new(1).below(0) == 0);
    }

    #[test]
    fn mutation_always_changes_or_preserves_validity_checkably() {
        // The mutator must never panic, whatever the input length.
        let mut rng = SplitMix64::new(7);
        for len in [0usize, 1, 2, 3, 64] {
            let bytes = vec![0xA5; len];
            for _ in 0..64 {
                let _ = mutate(&bytes, &mut rng);
            }
        }
    }

    #[test]
    fn minimize_input_reaches_the_core() {
        // Predicate: contains the byte 0x42.
        let bytes: Vec<u8> = (0..64u8).chain([0x42]).chain(64..96u8).collect();
        let out = minimize_input(&bytes, |b| b.contains(&0x42));
        assert_eq!(out, vec![0x42]);
    }

    #[test]
    fn in_range_draws_cover_and_stay_inside_their_ranges() {
        let mut rng = SplitMix64::new(3);
        let mut seen = [false; 5];
        for _ in 0..400 {
            let v = rng.in_range(-2i32..=2);
            seen[(v + 2) as usize] = true;
            assert!((1..5u8).contains(&rng.in_range(1..5u8)));
            assert_eq!(rng.in_range(7usize..8), 7);
            let _ = rng.in_range(0..=u64::MAX);
            assert!((2..=4).contains(&rng.bytes(2..=4).len()));
        }
        assert!(seen.iter().all(|&s| s), "every value of a small range is drawn");
    }

    #[test]
    fn passing_property_runs_exactly_its_cases() {
        let mut runs = 0;
        check_cases("passing_property_runs_exactly_its_cases", 37, |_| runs += 1);
        assert_eq!(runs, 37);
    }

    #[test]
    fn two_runs_generate_byte_identical_inputs() {
        let run = || {
            let mut inputs = Vec::new();
            check_cases("two_runs_generate_byte_identical_inputs", 32, |rng| {
                inputs.push((rng.bytes(0..40), rng.in_range(0u16..1000)));
            });
            inputs
        };
        let first = run();
        assert_eq!(first, run());
        let distinct: std::collections::HashSet<_> = first.iter().collect();
        assert!(distinct.len() > 28, "cases draw independent inputs");
    }

    #[test]
    #[allow(clippy::disallowed_methods)]
    fn failure_names_property_case_and_the_seed_that_replays_it() {
        let name = "short_inputs_only";
        let mut inputs = Vec::new();
        let panic = std::panic::catch_unwind(AssertUnwindSafe(|| {
            check_cases(name, 64, |rng| {
                let bytes = rng.bytes(0..64);
                inputs.push(bytes.clone());
                assert!(bytes.len() < 40, "input too long");
            })
        }))
        .expect_err("some case draws 40 bytes or more");
        let message = panic.downcast_ref::<String>().expect("formatted panic message");
        let case = inputs.len() - 1;
        let prefix = format!("property `{name}` failed at case {case} (seed ");
        assert!(message.starts_with(&prefix), "{message}");
        assert!(message.ends_with("input too long"), "{message}");
        let seed: u64 = message[prefix.len()..].split(')').next().unwrap().parse().expect("decimal seed");
        assert_eq!(seed, case_seed(name, case as u32));
        assert_eq!(SplitMix64::new(seed).bytes(0..64), inputs[case], "the seed regenerates the failing input");
    }
}
