//! End-to-end: app models → filtering → DPI, asserting the Figure-3 shapes
//! and Table-2 protocol mixes per application.

use rtc_apps::Application;
use rtc_capture::{run_call, ExperimentConfig};
use rtc_dpi::{dissect_call, DatagramClass, DpiConfig, Protocol};
use rtc_netemu::NetworkConfig;

fn dissect(app: Application, network: NetworkConfig, secs: u64, scale: f64) -> rtc_dpi::CallDissection {
    let mut config = ExperimentConfig::smoke(77);
    config.call_secs = secs;
    config.scale = scale;
    let cap = run_call(&config, app, network, 0);
    let datagrams = cap.trace.datagrams();
    let fr = rtc_filter::run(&datagrams, cap.manifest.call_window(), &rtc_filter::FilterConfig::default());
    dissect_call(&fr.accepted_udp, &DpiConfig::default())
}

fn class_shares(d: &rtc_dpi::CallDissection) -> (f64, f64, f64) {
    let n = d.datagrams.len().max(1) as f64;
    let count = |c| d.datagrams.iter().filter(|x| x.class == c).count() as f64 / n;
    (count(DatagramClass::Standard), count(DatagramClass::ProprietaryHeader), count(DatagramClass::FullyProprietary))
}

#[test]
fn zoom_datagrams_are_proprietary_headed_with_filler() {
    let d = dissect(Application::Zoom, NetworkConfig::WifiRelay, 60, 0.3);
    let (std_share, prop, fully) = class_shares(&d);
    assert!(prop > 0.6, "prop {prop}");
    assert!(fully > 0.08, "fully {fully}");
    assert!(std_share < 0.05, "std {std_share}");
    // Inner RTP and RTCP are recovered despite the header.
    let (by_proto, _) = d.message_distribution();
    assert!(by_proto.get(&Protocol::Rtp).copied().unwrap_or(0) > 1000);
    assert!(by_proto.get(&Protocol::Rtcp).copied().unwrap_or(0) > 0);
}

#[test]
fn zoom_wifi_p2p_recovers_legacy_stun() {
    let d = dissect(Application::Zoom, NetworkConfig::WifiP2p, 60, 0.3);
    let stun: Vec<u16> = d
        .messages()
        .filter_map(|(_, m)| match m.kind {
            rtc_dpi::CandidateKind::Stun { message_type, modern: false } => Some(message_type),
            _ => None,
        })
        .collect();
    assert!(stun.contains(&0x0001));
    assert!(stun.contains(&0x0002));
}

#[test]
fn facetime_relay_is_mostly_proprietary_header() {
    let d = dissect(Application::FaceTime, NetworkConfig::WifiRelay, 60, 0.2);
    let (_, prop, _) = class_shares(&d);
    assert!(prop > 0.7, "prop {prop}");
    // The 0x6000 framing is not ChannelData (channel outside RFC 8656's
    // range); it surfaces as a proprietary header of 8-19 bytes before RTP.
    let header_lens: std::collections::HashSet<usize> = d
        .datagrams
        .iter()
        .filter(|x| x.class == DatagramClass::ProprietaryHeader)
        .map(|x| x.prop_header_len)
        .collect();
    assert!(header_lens.iter().all(|&l| (8..=19).contains(&l)), "{header_lens:?}");
    assert!(header_lens.len() > 3, "varying header lengths");
    // FaceTime's genuine ChannelData frames carry in-range channels but a
    // short length field (2 trailing bytes).
    let short_frames = d
        .datagrams
        .iter()
        .filter(|x| {
            x.messages.iter().any(|m| matches!(m.kind, rtc_dpi::CandidateKind::ChannelData { .. }))
                && x.trailing.len() == 2
        })
        .count();
    assert!(short_frames > 3, "short ChannelData frames {short_frames}");
}

#[test]
fn facetime_cellular_keepalives_are_fully_proprietary() {
    let d = dissect(Application::FaceTime, NetworkConfig::Cellular, 60, 0.2);
    let (_, _, fully) = class_shares(&d);
    assert!(fully > 0.03, "fully {fully}");
    // QUIC present and recognized.
    let (by_proto, _) = d.message_distribution();
    assert!(by_proto.get(&Protocol::Quic).copied().unwrap_or(0) >= 5);
}

#[test]
fn whatsapp_is_almost_all_standard() {
    let d = dissect(Application::WhatsApp, NetworkConfig::WifiP2p, 60, 0.2);
    let (std_share, _, fully) = class_shares(&d);
    assert!(std_share > 0.95, "std {std_share}");
    assert!(fully < 0.05, "fully {fully}");
    // The undefined 0x0801/0x0802 burst is recovered as STUN messages.
    let stun_types: std::collections::HashSet<u16> = d
        .messages()
        .filter_map(|(_, m)| match m.kind {
            rtc_dpi::CandidateKind::Stun { message_type, .. } => Some(message_type),
            _ => None,
        })
        .collect();
    assert!(stun_types.contains(&0x0801));
    assert!(stun_types.contains(&0x0802));
}

#[test]
fn messenger_rtcp_share_is_high() {
    let d = dissect(Application::Messenger, NetworkConfig::WifiP2p, 60, 0.2);
    let (by_proto, _) = d.message_distribution();
    let rtp = by_proto.get(&Protocol::Rtp).copied().unwrap_or(0) as f64;
    let rtcp = by_proto.get(&Protocol::Rtcp).copied().unwrap_or(0) as f64;
    let share = rtcp / (rtp + rtcp);
    assert!((0.04..0.25).contains(&share), "rtcp share {share}");
}

#[test]
fn discord_trailers_still_classify_standard() {
    let d = dissect(Application::Discord, NetworkConfig::WifiP2p, 60, 0.2);
    let (std_share, _, fully) = class_shares(&d);
    assert!(std_share > 0.9, "std {std_share}");
    assert!(fully > 0.0 && fully < 0.08, "fully {fully}");
    // RTCP messages carry the 3-byte proprietary trailer.
    let with_trailer = d
        .datagrams
        .iter()
        .filter(|x| x.messages.iter().any(|m| m.protocol == Protocol::Rtcp) && x.trailing.len() == 3)
        .count();
    assert!(with_trailer > 10, "trailered rtcp {with_trailer}");
}

#[test]
fn meet_relay_counts_channeldata_as_stun_turn() {
    let d = dissect(Application::GoogleMeet, NetworkConfig::WifiRelay, 60, 0.2);
    let (std_share, _, _) = class_shares(&d);
    assert!(std_share > 0.9, "std {std_share}");
    let (by_proto, _) = d.message_distribution();
    let stun = by_proto.get(&Protocol::StunTurn).copied().unwrap_or(0) as f64;
    let total: usize = by_proto.values().sum();
    let share = stun / total as f64;
    // ChannelData wrapping of all relay media pushes STUN/TURN toward the
    // paper's ~20 % aggregate (higher here: every datagram in this config
    // is relayed).
    assert!(share > 0.3, "stun share {share}");
    // Nested RTP is still extracted and counted.
    assert!(by_proto.get(&Protocol::Rtp).copied().unwrap_or(0) > 500);
}
