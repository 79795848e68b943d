//! Extending the framework with a custom application model.
//!
//! The study's pipeline is application-agnostic: anything that generates
//! traffic can be measured. This example defines `StrictApp`, a
//! hypothetical fully specification-compliant RTC application, runs it
//! through the same filtering/DPI/compliance pipeline, and verifies it
//! scores 100 % on both metrics — the baseline the paper's six real
//! applications are measured against.
//!
//! ```text
//! cargo run --release --example custom_app
//! ```

use rtc_core::apps::media::{compliant_rr, compliant_sdes, compliant_sr, pump_control, pump_rtp, RtpStream};
use rtc_core::apps::{ice, CallScenario};
use rtc_core::netemu::{NetworkConfig, TrafficSink};
use rtc_core::wire::ip::FiveTuple;
use std::net::SocketAddr;

/// A by-the-book WebRTC-style application: ICE binding checks, RTP with
/// valid one-byte extensions, compound RTCP (SR+SDES / RR), nothing else.
fn generate_strict_app(scenario: &CallScenario, sink: &mut TrafficSink) {
    let mut rng = scenario.rng().fork("strict");
    let [a, b] = scenario.device_ips();
    let mut ports = scenario.port_allocator(0);
    let a_media = SocketAddr::new(a, ports.ephemeral_port());
    let b_media = SocketAddr::new(b, ports.ephemeral_port());
    let start = scenario.call_start.plus_millis(500);
    let end = scenario.call_end();

    for (i, tuple) in [FiveTuple::udp(a_media, b_media), FiveTuple::udp(b_media, a_media)].into_iter().enumerate() {
        // ICE connectivity checks every 5 s.
        let mut t = scenario.call_start.plus_secs(1);
        while t < end {
            ice::binding_exchange(sink, &mut rng, t, tuple);
            t = t.plus_secs(5);
        }
        // Media: Opus audio + VP8 video.
        let mut audio = RtpStream::audio(111, 0x5100 + i as u32, &mut rng);
        let mut video = RtpStream::video(96, 0x5200 + i as u32, &mut rng);
        pump_rtp(sink, &mut rng, tuple, start, end, 25.0, &mut audio, |rng, b| {
            let level = rng.below(127) as u8;
            b.one_byte_extension(&[(1, &[level])]).build()
        });
        pump_rtp(sink, &mut rng, tuple, start, end, 30.0, &mut video, |_, b| b.build());
        // RTCP: SR+SDES and RR compounds.
        let ssrc = 0x5100 + i as u32;
        pump_control(sink, &mut rng, tuple, start, end, 1.0, |rng, i| {
            if i % 2 == 0 {
                let mut c = compliant_sr(rng, ssrc, ssrc ^ 1);
                c.extend_from_slice(&compliant_sdes(rng, ssrc));
                c
            } else {
                compliant_rr(rng, ssrc, ssrc ^ 1)
            }
        });
    }
}

fn main() {
    let scenario = CallScenario::new(
        rtc_core::apps::Application::WhatsApp, // only used for timing defaults
        NetworkConfig::WifiP2p,
        99,
    )
    .scaled(40, 1.0);

    let mut sink = TrafficSink::new(scenario.network.path_profile(), scenario.rng().fork("path"));
    generate_strict_app(&scenario, &mut sink);
    let trace = sink.finish();
    println!("generated {} packets for StrictApp", trace.records.len());

    let datagrams = trace.datagrams();
    let fr = rtc_core::filter::run(
        &datagrams,
        (scenario.call_start, scenario.call_end()),
        &rtc_core::filter::FilterConfig::default(),
    );
    let dissection = rtc_core::dpi::dissect_call(&fr.accepted_udp, &rtc_core::dpi::DpiConfig::default());
    let checked = rtc_core::compliance::check_call(&dissection);

    let compliant = checked.messages.iter().filter(|m| m.is_compliant()).count();
    println!(
        "StrictApp: {}/{} messages compliant ({:.2}% by volume)",
        compliant,
        checked.messages.len(),
        checked.volume_compliance() * 100.0
    );
    for m in &checked.messages {
        if let Some(v) = &m.violation {
            println!("unexpected violation on {} {}: {v}", m.protocol, m.type_key);
        }
    }
    assert!(checked.volume_compliance() > 0.999, "a strict app must be fully compliant");
    println!("100% compliance confirmed: the checker's baseline is sound.");
}
