//! Memory model of capture synthesis: `TrafficSink` frames each packet
//! straight into shared 64 KiB chunks and drops the model's payload at
//! once, keeping a 24-byte index entry per packet. Generating a call
//! therefore peaks at the trace it returns plus small change: the index,
//! the record vector and one chunk's slack, not a second copy of every
//! payload.
//!
//! This lives in its own test binary because `#[global_allocator]` is
//! per-binary and the measurement only tolerates one region at a time.

#[global_allocator]
static ALLOC: rtc_core::obs::alloc::CountingAlloc = rtc_core::obs::alloc::CountingAlloc;

use rtc_core::apps::Application;
use rtc_core::capture::{run_call, ExperimentConfig};
use rtc_core::netemu::NetworkConfig;
use rtc_core::obs::alloc;

/// Generation may peak at most this many times the frame bytes it emits.
const PEAK_PER_FRAME_BYTE: f64 = 1.2;

#[test]
fn generation_peaks_near_its_frame_bytes() {
    let config = ExperimentConfig::smoke(1);
    let calls = [
        (Application::FaceTime, NetworkConfig::WifiRelay),
        (Application::Zoom, NetworkConfig::WifiRelay),
        (Application::Discord, NetworkConfig::WifiP2p),
    ];
    for (app, network) in calls {
        let base = alloc::reset_peak();
        let cap = run_call(&config, app, network, 0);
        let peak = alloc::peak_since(base);
        let frame_bytes: usize = cap.trace.records.iter().map(|r| r.data.len()).sum();
        let ratio = peak as f64 / frame_bytes as f64;
        eprintln!(
            "{} / {network}: {} records, {frame_bytes} frame bytes, run_call peak {peak} B ({ratio:.2} x)",
            app.name(),
            cap.trace.records.len()
        );
        assert!(
            ratio <= PEAK_PER_FRAME_BYTE,
            "{} / {network} peaked at {peak} B, {ratio:.2} x its {frame_bytes} frame bytes (bound {PEAK_PER_FRAME_BYTE} x)",
            app.name()
        );
    }
}
