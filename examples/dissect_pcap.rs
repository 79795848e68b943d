//! Dissect a pcap file the way the study does: group streams, run the
//! offset-shifting DPI, judge every message, and print a per-datagram and
//! per-type summary.
//!
//! ```text
//! cargo run --release --example dissect_pcap [file.pcap] [call_start_s call_end_s]
//! ```
//!
//! With no arguments, a demonstration capture (an emulated Zoom relay call)
//! is generated into `target/demo_zoom.pcap` first — so the example shows
//! the full disk round trip: write pcap, read pcap, analyze bytes.

use rtc_core::apps::Application;
use rtc_core::netemu::NetworkConfig;
use rtc_core::pcap::Timestamp;
use rtc_core::StudyConfig;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let config = StudyConfig::smoke(11);

    let (path, window) = if let Some(p) = args.first() {
        let window = if args.len() >= 3 {
            let a: u64 = args[1].parse().expect("call_start_s");
            let b: u64 = args[2].parse().expect("call_end_s");
            Some((Timestamp::from_secs(a), Timestamp::from_secs(b)))
        } else {
            None
        };
        (std::path::PathBuf::from(p), window)
    } else {
        let cap = rtc_core::capture::run_call(&config.experiment, Application::Zoom, NetworkConfig::WifiRelay, 0);
        let path = std::path::PathBuf::from("target/demo_zoom.pcap");
        rtc_core::pcap::write_file(&path, &cap.trace).expect("write pcap");
        println!("wrote demo capture to {}", path.display());
        (path, Some(cap.manifest.call_window()))
    };

    let trace = rtc_core::pcap::read_file_any(&path).expect("read capture (pcap or pcapng)");
    let datagrams = trace.datagrams();
    println!("{}: {} decodable transport packets", path.display(), datagrams.len());

    // Filter if a call window is known; otherwise analyze every UDP datagram.
    let rtc_udp = match window {
        Some(w) => rtc_core::filter::run(&datagrams, w, &config.filter).accepted_udp,
        None => {
            datagrams.into_iter().filter(|d| d.five_tuple.transport == rtc_core::wire::ip::Transport::Udp).collect()
        }
    };
    println!("analyzing {} RTC UDP datagrams", rtc_udp.len());

    let dissection = rtc_core::dpi::dissect_call(&rtc_udp, &config.dpi);
    let (by_proto, fully) = dissection.message_distribution();
    for (p, n) in &by_proto {
        println!("  {p}: {n} messages");
    }
    println!("  fully proprietary datagrams: {fully}");

    let checked = rtc_core::compliance::check_call(&dissection);
    println!("\nper-type compliance:");
    for ((p, t), n) in checked.type_counts() {
        println!("  {p} type {t}: {}/{} compliant instances", n.compliant, n.messages);
    }
    for f in rtc_core::compliance::findings::detect_call(&dissection) {
        println!("finding: {}", f.detail);
    }
}
