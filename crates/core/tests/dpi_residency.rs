//! Memory model of the DPI: dissecting a call holds its candidates only
//! while they can still matter. Extraction keeps each RTP lane as 8 bytes
//! in fixed-size blocks, and the noise cut builds only the lanes of groups
//! large enough to validate into 16-byte candidates, so the allocation
//! peak of one dissection stays well below the call's accepted payload
//! bytes instead of a multiple of them.
//!
//! This lives in its own test binary because `#[global_allocator]` is
//! per-binary and the measurement only tolerates one region at a time.

#[global_allocator]
static ALLOC: rtc_core::obs::alloc::CountingAlloc = rtc_core::obs::alloc::CountingAlloc;

use rtc_core::apps::Application;
use rtc_core::netemu::NetworkConfig;
use rtc_core::obs::alloc;
use rtc_core::StudyConfig;

#[test]
fn facetime_relay_dissection_peak_stays_near_its_payload() {
    let config = StudyConfig::smoke(1);
    let cap = rtc_core::capture::run_call(&config.experiment, Application::FaceTime, NetworkConfig::WifiRelay, 0);
    let datagrams = cap.trace.datagrams();
    let accepted = rtc_core::filter::run(&datagrams, cap.manifest.call_window(), &config.filter).accepted_udp;
    let payload: usize = accepted.iter().map(|d| d.payload.len()).sum();
    assert!(payload > 0);

    let dpi = rtc_core::dpi::DpiConfig { threads: 1, ..config.dpi };
    let base = alloc::reset_peak();
    let (dissection, stats) = rtc_core::dpi::dissect_call_sampled(&accepted, &dpi, 0);
    let peak = alloc::peak_since(base);
    let candidates: u64 = stats.candidates.iter().sum();
    eprintln!(
        "{} datagrams, {payload} payload bytes, {candidates} candidates, {} kept, {} messages, DPI peak {peak} B ({:.2}x payload)",
        accepted.len(),
        stats.kept_candidates,
        dissection.messages().count(),
        peak as f64 / payload as f64
    );
    assert!(dissection.messages().count() > 0);
    assert!(peak < payload, "DPI allocation peak {peak} B must stay below the {payload} B of accepted payload");
    assert!(
        peak as f64 <= 0.6 * payload as f64,
        "DPI allocation peak {peak} B must stay within 0.6x the {payload} B of accepted payload"
    );
}
