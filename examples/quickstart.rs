//! Quickstart: run one emulated WhatsApp call through the entire pipeline
//! and print what the study sees.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use rtc_core::apps::Application;
use rtc_core::netemu::NetworkConfig;
use rtc_core::{analyze_capture, StudyConfig};

fn main() {
    let config = StudyConfig::smoke(7);

    // 1. Place one 30-second emulated call (caller, callee, relay servers,
    //    background noise — everything a capture would contain).
    let capture = rtc_core::capture::run_call(&config.experiment, Application::WhatsApp, NetworkConfig::WifiP2p, 0);
    println!(
        "captured {} link-layer records ({} bytes) for a {}s call window",
        capture.trace.records.len(),
        capture.trace.total_bytes(),
        (capture.manifest.call_end_us - capture.manifest.call_start_us) / 1_000_000,
    );

    // 2. Filter → DPI → compliance.
    let analysis = analyze_capture(&capture, &config);
    let r = &analysis.record;
    println!(
        "filtering: raw {} UDP datagrams -> stage1 removed {}, stage2 removed {}, RTC kept {}",
        r.raw.udp_datagrams, r.stage1.udp_datagrams, r.stage2.udp_datagrams, r.rtc.udp_datagrams
    );
    let (std_c, prop, fully) = r.classes;
    println!("datagram classes: {std_c} standard, {prop} proprietary-header, {fully} fully proprietary");

    // 3. Compliance verdicts.
    println!(
        "messages judged: {} ({:.1}% compliant by volume)",
        r.checked.messages.len(),
        r.checked.volume_compliance() * 100.0
    );
    let mut shown = std::collections::HashSet::new();
    for m in &r.checked.messages {
        if let Some(v) = &m.violation {
            if shown.insert((m.protocol, m.type_key)) {
                println!(
                    "  non-compliant {} type {} (criterion {}): {v}",
                    m.protocol,
                    m.type_key,
                    v.criterion().index(),
                );
            }
        }
    }
}
