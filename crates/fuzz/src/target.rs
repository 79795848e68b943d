//! The fuzzable entry points: every parser-facing surface of the study
//! stack, each with its seed corpus and its divergence oracle.

use bytes::Bytes;
use rtc_compliance::findings::{Finding, FindingKind};
use rtc_compliance::{CheckedCall, CheckedMessage, Rule, TypeKey, Violation};
use rtc_conformance::{vectors, Expect, Parser};
use rtc_core::capture::ExperimentConfig;
use rtc_core::filter::{FilterConfig, StageStats};
use rtc_core::{CallRecord, FailedCall};
use rtc_dpi::{DpiConfig, Protocol};
use rtc_oracle::{differential_one, oracle_decodes};
use rtc_pcap::trace::Datagram;
use rtc_pcap::Timestamp;
use rtc_shard::{CheckpointHeader, CorpusPlan, ShardCheckpoint};
use rtc_wire::ip::FiveTuple;
use rtc_wire::{rtcp, stun};
use std::path::Path;

/// One fuzzable entry point.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Target {
    /// `stun::Message::new_checked` differentially against the oracle,
    /// then every attribute through the address and error-code decoders
    /// and the FINGERPRINT check.
    Stun,
    /// `stun::ChannelData::new_checked` differentially against the oracle.
    ChannelData,
    /// `rtp::Packet::new_checked` differentially against the oracle.
    Rtp,
    /// `rtcp::Packet::new_checked` differentially against the oracle,
    /// then the SR/RR/SDES/APP/FB/XR sub-parsers and `split_compound`.
    Rtcp,
    /// `quic::Header::parse` (and through it `LongHeaderRef::parse`)
    /// differentially against the oracle.
    Quic,
    /// The full datagram path: candidate extraction at several maximum
    /// offsets, then DPI validation, resolution and compliance checking,
    /// with every extracted message cross-checked against the reference
    /// decoders.
    Datagram,
    /// `rtc_pcap::parse_any` (classic and pcapng), per-record link-layer
    /// decoding, and the two-stage filter over the decoded datagrams.
    Pcap,
    /// `CorpusPlan::parse_text` (study plan loader).
    Plan,
    /// `ShardCheckpoint::parse_text` (shard resume loader).
    Checkpoint,
}

/// What one execution of a target reported (panics are caught separately
/// by the engine).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunOutcome {
    /// No oracle fired.
    Clean,
    /// Production and reference disagreed.
    Divergence {
        /// Disagreement category (`parse`, `verdict`, `decode`).
        kind: String,
        /// Human-readable description of both sides.
        detail: String,
    },
}

impl Target {
    /// Every target, in a fixed order (stats and corpus layout follow it).
    pub const ALL: [Target; 9] = [
        Target::Stun,
        Target::ChannelData,
        Target::Rtp,
        Target::Rtcp,
        Target::Quic,
        Target::Datagram,
        Target::Pcap,
        Target::Plan,
        Target::Checkpoint,
    ];

    /// Stable CLI / corpus-directory label.
    pub fn label(self) -> &'static str {
        match self {
            Target::Stun => "stun",
            Target::ChannelData => "channeldata",
            Target::Rtp => "rtp",
            Target::Rtcp => "rtcp",
            Target::Quic => "quic",
            Target::Datagram => "datagram",
            Target::Pcap => "pcap",
            Target::Plan => "plan",
            Target::Checkpoint => "checkpoint",
        }
    }

    /// Parse a CLI label.
    pub fn parse(s: &str) -> Option<Target> {
        Target::ALL.into_iter().find(|t| t.label() == s)
    }

    /// The wire parser behind a differential target, if it is one.
    fn parser(self) -> Option<Parser> {
        match self {
            Target::Stun => Some(Parser::Stun),
            Target::ChannelData => Some(Parser::ChannelData),
            Target::Rtp => Some(Parser::Rtp),
            Target::Rtcp => Some(Parser::Rtcp),
            Target::Quic => Some(Parser::Quic),
            _ => None,
        }
    }

    /// The seed corpus: named byte strings known to exercise the target's
    /// accept paths (plus its documented reject edges).
    pub fn seeds(self) -> Vec<(String, Vec<u8>)> {
        if let Some(parser) = self.parser() {
            // Golden vectors of this parser — accepted AND rejected, so the
            // mutator starts from both sides of every boundary.
            return vectors()
                .into_iter()
                .filter(|v| v.parser == parser)
                .map(|v| (v.name.to_string(), v.bytes))
                .collect();
        }
        match self {
            Target::Datagram => {
                // Every accepted golden vector doubles as a datagram
                // payload: the DPI must find the message at offset 0.
                let mut out: Vec<(String, Vec<u8>)> = vectors()
                    .into_iter()
                    .filter(|v| v.expect == Expect::Accept)
                    .map(|v| (v.name.to_string(), v.bytes))
                    .collect();
                // And one multi-message compound: STUN followed by trailing
                // bytes, the nested/overlap resolution paths.
                let mut compound = rtc_wire::stun::MessageBuilder::new(0x0001, [9; 12]).build_with_fingerprint();
                compound.extend_from_slice(&[0xAA; 6]);
                out.push(("stun-with-trailing".into(), compound));
                out
            }
            Target::Pcap => {
                let mut trace = rtc_pcap::Trace::new();
                trace.push(rtc_pcap::Record { ts: Timestamp::from_micros(1), data: Bytes::from_static(&[0u8; 60]) });
                trace.push(rtc_pcap::Record {
                    ts: Timestamp::from_micros(2),
                    data: Bytes::from_static(&[0xFFu8; 48]),
                });
                // A small call: two UDP streams interleaved in time, which
                // the filter must merge back into time order, and a TLS
                // ClientHello over TCP, which its SNI heuristic parses.
                let stun = rtc_wire::stun::MessageBuilder::new(0x0001, [3; 12]).build();
                let hello = rtc_wire::tls::build_client_hello(Some("media.rtc.example"), [7; 32]);
                let media = FiveTuple::udp(addr("10.0.0.1:50000"), addr("198.51.100.4:3478"));
                let relay = FiveTuple::udp(addr("10.0.0.1:50002"), addr("198.51.100.5:3478"));
                let tls = FiveTuple::tcp(addr("10.0.0.1:50001"), addr("198.51.100.4:443"));
                let mut call = rtc_pcap::Trace::new();
                for (i, (tuple, payload)) in
                    [(media, &stun), (relay, &stun), (media, &stun), (tls, &hello)].iter().enumerate()
                {
                    call.push(rtc_pcap::Record {
                        ts: Timestamp::from_micros(i as u64 + 1),
                        data: Bytes::from(rtc_wire::ip::build_ethernet_packet(tuple, payload, 1)),
                    });
                }
                vec![
                    ("classic-two-records".into(), rtc_pcap::to_bytes(&trace)),
                    ("pcapng-two-records".into(), rtc_pcap::pcapng::to_bytes(&trace)),
                    ("classic-udp-call-and-tls-hello".into(), rtc_pcap::to_bytes(&call)),
                ]
            }
            Target::Plan => {
                let plan = CorpusPlan { tier: "paper".into(), shards: 4, experiment: ExperimentConfig::smoke(7) };
                vec![(
                    "plan-smoke".into(),
                    serde_json::to_string(&plan.to_json()).expect("plan serializes").into_bytes(),
                )]
            }
            Target::Checkpoint => [
                ("checkpoint-fresh", ShardCheckpoint::fresh(expect_header())),
                ("checkpoint-one-call", one_call_checkpoint()),
            ]
            .into_iter()
            .map(|(name, ckpt)| {
                (name.into(), serde_json::to_string(&ckpt.to_json()).expect("checkpoint serializes").into_bytes())
            })
            .collect(),
            _ => unreachable!("parser targets handled above"),
        }
    }

    /// Execute the target once over `bytes`. Panics (the crash oracle)
    /// propagate to the engine, which contains them with [`rtc_core::contain`].
    pub fn run(self, bytes: &[u8]) -> RunOutcome {
        if let Some(parser) = self.parser() {
            walk_sub_parsers(parser, bytes);
            return match differential_one(parser, bytes) {
                Some(d) => RunOutcome::Divergence { kind: d.kind, detail: d.detail },
                None => RunOutcome::Clean,
            };
        }
        match self {
            Target::Datagram => run_datagram(bytes),
            Target::Pcap => run_pcap(bytes),
            Target::Plan => {
                if let Ok(text) = std::str::from_utf8(bytes) {
                    let _ = CorpusPlan::parse_text(text, Path::new("<fuzz>"));
                }
                RunOutcome::Clean
            }
            Target::Checkpoint => {
                if let Ok(text) = std::str::from_utf8(bytes) {
                    let _ = ShardCheckpoint::parse_text(text, Path::new("<fuzz>"), &expect_header());
                }
                RunOutcome::Clean
            }
            _ => unreachable!("parser targets handled above"),
        }
    }
}

/// Crash oracle over the surfaces behind a parser that the differential
/// check does not reach: the STUN attribute decoders and FINGERPRINT, and
/// the RTCP per-type sub-parsers and compound splitting.
fn walk_sub_parsers(parser: Parser, bytes: &[u8]) {
    match parser {
        Parser::Stun => {
            if let Ok(m) = stun::Message::new_checked(bytes) {
                for a in m.attributes().flatten() {
                    let _ = stun::decode_address(a.value);
                    let _ = stun::decode_error_code(a.value);
                }
                let _ = m.verify_fingerprint();
            }
        }
        Parser::Rtcp => {
            if let Ok(p) = rtcp::Packet::new_checked(bytes) {
                let _ = rtcp::SenderReport::parse(&p);
                let _ = rtcp::ReceiverReport::parse(&p);
                let _ = rtcp::Sdes::parse(&p);
                let _ = rtcp::App::parse(&p);
                let _ = rtcp::Feedback::parse(&p);
                let _ = rtc_wire::xr::Xr::parse(&p);
            }
            let _ = rtcp::split_compound(bytes);
        }
        // `quic::Header::parse` already runs `LongHeaderRef::parse` on every
        // long-form input, and short-form input fails its first check.
        Parser::Quic | Parser::ChannelData | Parser::Rtp => {}
    }
}

fn addr(s: &str) -> std::net::SocketAddr {
    s.parse().expect("literal socket address")
}

/// The fixed identity fuzzed checkpoints are validated against.
fn expect_header() -> CheckpointHeader {
    CheckpointHeader { tier: "paper".into(), seed: 42, shards: 8, shard: 3 }
}

/// A checkpoint after one absorbed call and one failed one: per-type
/// count rows, a finding, a header profile, an SSRC set and a failure,
/// so mutations start inside every decoder of the aggregator state.
fn one_call_checkpoint() -> ShardCheckpoint {
    let msg = |protocol, type_key, compliant: bool| CheckedMessage {
        protocol,
        type_key,
        datagram: 0,
        violation: (!compliant).then(|| Violation::new(Rule::StunAttrUndefined).with_ty(0x4007)),
    };
    let record = CallRecord {
        app: "Zoom".into(),
        network: "wifi-relay".into(),
        repeat: 0,
        raw_bytes: 4096,
        raw: Default::default(),
        stage1: Default::default(),
        stage2: Default::default(),
        rtc: Default::default(),
        classes: (3, 2, 1),
        checked: CheckedCall {
            messages: vec![
                msg(Protocol::StunTurn, TypeKey::Stun(0x0001), true),
                msg(Protocol::StunTurn, TypeKey::Stun(0x0001), false),
                msg(Protocol::Rtp, TypeKey::Rtp(98), true),
                msg(Protocol::Rtcp, TypeKey::Rtcp(200), true),
                msg(Protocol::Quic, TypeKey::QuicLong(0), true),
            ],
            fully_proprietary_datagrams: 1,
        },
        rejections: [("stun: truncated".to_string(), 1)].into(),
    };
    let finding = Finding { kind: FindingKind::FillerDatagrams, count: 2, detail: "2 filler datagrams".into() };
    let mut ckpt = ShardCheckpoint::fresh(expect_header());
    ckpt.aggregator.absorb_call(record, &[finding], &["hdr 4B: seq@0".into()], [0x1234_5678, 7].into());
    ckpt.cursor = 2;
    ckpt.failures.push(FailedCall { index: 9, app: "zoom".into(), network: "cellular".into(), error: "boom".into() });
    ckpt
}

/// The DPI configuration every fuzz execution uses: strictly sequential
/// (threads pinned to 1, parallel fan-out disabled) so coverage and
/// corpus evolution cannot depend on scheduling or the `RTC_DPI_THREADS`
/// environment.
pub fn dpi_config() -> DpiConfig {
    DpiConfig { threads: 1, parallel_threshold: usize::MAX, ..DpiConfig::default() }
}

/// Full pipeline over one fuzzed datagram payload. Crash oracles: every
/// candidate the extractor claims stays inside the payload and the
/// maximum offset, the dissection keeps the one datagram and files at
/// most one rejection for it, and volume compliance is a fraction.
/// Divergence oracle: every extracted message must re-decode under the
/// reference grammar (the same invariant `rtc_oracle::rejudge_call`
/// enforces on emulated captures).
fn run_datagram(bytes: &[u8]) -> RunOutcome {
    for max_offset in [0, 3, 200] {
        for c in rtc_dpi::extract_candidates(bytes, max_offset) {
            assert!(
                c.end() <= bytes.len() && c.start() <= max_offset,
                "candidate {c:?} escapes a {}-byte payload at max offset {max_offset}",
                bytes.len()
            );
        }
    }
    // Those extractions ran the matchers `dissect_call` runs below at max
    // offset 200. Forget their hits: they add no coverage, and doubling
    // every matcher count would only coarsen the engine's buckets.
    rtc_cov::reset();
    let d = Datagram {
        ts: Timestamp::ZERO,
        five_tuple: FiveTuple::udp(addr("10.0.0.1:1000"), addr("10.0.0.2:2000")),
        payload: Bytes::copy_from_slice(bytes),
    };
    let call = rtc_dpi::dissect_call(&[d], &dpi_config());
    let rejected: usize = call.rejections.values().sum();
    assert!(
        call.datagrams.len() == 1 && rejected <= 1,
        "one datagram dissected into {} with {rejected} rejections",
        call.datagrams.len()
    );
    let volume = rtc_compliance::check_call(&call).volume_compliance();
    assert!((0.0..=1.0).contains(&volume), "volume compliance {volume} is not a fraction");
    for (_dgram, msg) in call.messages() {
        if let Err(e) = oracle_decodes(msg) {
            return RunOutcome::Divergence {
                kind: "decode".into(),
                detail: format!("DPI extracted a {:?} message the reference decoder rejects: {e}", msg.protocol),
            };
        }
    }
    RunOutcome::Clean
}

/// Decode a fuzzed capture and run the production filter over its
/// datagrams and time range. Crash oracles: every stream and datagram
/// lands in exactly one filter bucket, no datagram of an RTC UDP stream
/// was dropped (the fuzz profile's debug assertions also arm the filter's
/// own check of this), and the DPI input the filter hands on is
/// time-ordered.
fn run_pcap(bytes: &[u8]) -> RunOutcome {
    let Ok(trace) = rtc_pcap::parse_any(bytes) else {
        return RunOutcome::Clean;
    };
    let datagrams: Vec<Datagram> = trace.records.iter().filter_map(rtc_pcap::decode_record).collect();
    let Some(window) = trace.time_range() else {
        return RunOutcome::Clean;
    };
    let r = rtc_core::filter::run(&datagrams, window, &FilterConfig::default());
    let (s1, s2, rtc) = (r.stage1, r.stage2, r.rtc);
    let buckets = StageStats {
        udp_streams: s1.udp_streams + s2.udp_streams + rtc.udp_streams,
        udp_datagrams: s1.udp_datagrams + s2.udp_datagrams + rtc.udp_datagrams,
        tcp_streams: s1.tcp_streams + s2.tcp_streams + rtc.tcp_streams,
        tcp_segments: s1.tcp_segments + s2.tcp_segments + rtc.tcp_segments,
    };
    assert_eq!(r.raw, buckets, "every stream and datagram in exactly one filter bucket");
    assert_eq!(r.raw.udp_datagrams + r.raw.tcp_segments, datagrams.len(), "every datagram counted once");
    assert_eq!(r.accepted_udp.len(), r.rtc.udp_datagrams, "a datagram of an RTC UDP stream was dropped");
    assert!(r.accepted_udp.windows(2).all(|w| w[0].ts <= w[1].ts), "accepted_udp out of time order");
    RunOutcome::Clean
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_target_has_seeds_and_runs_them_clean() {
        for t in Target::ALL {
            let seeds = t.seeds();
            assert!(!seeds.is_empty(), "{} has seeds", t.label());
            for (name, bytes) in &seeds {
                // Seeds must execute without panicking; golden reject
                // vectors are fine (reject agreement is Clean).
                let out = t.run(bytes);
                assert_eq!(out, RunOutcome::Clean, "{}/{name}", t.label());
            }
        }
    }

    #[test]
    fn checkpoint_seeds_are_accepted_whole() {
        let loaded: Vec<ShardCheckpoint> = Target::Checkpoint
            .seeds()
            .iter()
            .map(|(name, bytes)| {
                let text = std::str::from_utf8(bytes).unwrap();
                ShardCheckpoint::parse_text(text, Path::new("<seed>"), &expect_header())
                    .unwrap_or_else(|e| panic!("{name}: {e}"))
            })
            .collect();
        assert_eq!(loaded.len(), 2);
        assert_eq!(loaded[1].to_json(), one_call_checkpoint().to_json());
        assert_eq!(loaded[1].aggregator.snapshot().calls[0].types.len(), 4);
    }

    #[test]
    fn pcap_call_seed_reaches_the_filter_merge() {
        let (_, bytes) = Target::Pcap.seeds().pop().unwrap();
        let trace = rtc_pcap::parse_any(&bytes).unwrap();
        let datagrams: Vec<Datagram> = trace.records.iter().filter_map(rtc_pcap::decode_record).collect();
        let r = rtc_core::filter::run(&datagrams, trace.time_range().unwrap(), &FilterConfig::default());
        assert_eq!((r.rtc.udp_streams, r.rtc.tcp_streams), (2, 1), "both UDP streams and the TLS stream are kept");
        assert_eq!(r.accepted_udp.len(), 3);
    }

    #[test]
    fn labels_round_trip() {
        for t in Target::ALL {
            assert_eq!(Target::parse(t.label()), Some(t));
        }
        assert_eq!(Target::parse("nope"), None);
    }

    #[test]
    fn datagram_target_handles_arbitrary_bytes() {
        for len in [0usize, 1, 7, 64] {
            let _ = Target::Datagram.run(&vec![0x5Au8; len]);
        }
    }
}
