//! Memory model of the compliance layer: judging a message allocates
//! nothing, because a verdict is a rule id and two numbers, not text. So
//! `check_call` allocates only its call context and its exactly sized
//! output vector. `rtc-compliance` const-asserts the layout behind this:
//! a `Violation` is at most 40 bytes and a `CheckedMessage` at most 64.
//!
//! This lives in its own test binary because `#[global_allocator]` is
//! per-binary and the measurement only tolerates one region at a time.

#[global_allocator]
static ALLOC: rtc_core::obs::alloc::CountingAlloc = rtc_core::obs::alloc::CountingAlloc;

use rtc_core::apps::Application;
use rtc_core::compliance::context::CallContext;
use rtc_core::compliance::{check_call, check_message, CheckedMessage};
use rtc_core::netemu::NetworkConfig;
use rtc_core::obs::alloc;
use rtc_core::StudyConfig;

#[test]
fn facetime_relay_judgment_allocates_only_its_output() {
    let config = StudyConfig::smoke(1);
    let cap = rtc_core::capture::run_call(&config.experiment, Application::FaceTime, NetworkConfig::WifiRelay, 0);
    let datagrams = cap.trace.datagrams();
    let accepted = rtc_core::filter::run(&datagrams, cap.manifest.call_window(), &config.filter).accepted_udp;
    let dpi = rtc_core::dpi::DpiConfig { threads: 1, ..config.dpi };
    let (dissection, _) = rtc_core::dpi::dissect_call_sampled(&accepted, &dpi, 0);
    let ctx = CallContext::build(&dissection);

    let base = alloc::reset_peak();
    let (mut judged, mut violations) = (0usize, 0usize);
    for (dgram, msg) in dissection.messages() {
        let m = check_message(dgram, msg, &ctx);
        judged += 1;
        violations += usize::from(!m.is_compliant());
    }
    let per_message_peak = alloc::peak_since(base);
    assert!(judged > 1000 && violations > 0, "{judged} messages, {violations} violations");
    assert_eq!(per_message_peak, 0, "judging {judged} messages one by one allocated {per_message_peak} B");

    let base = alloc::reset_peak();
    let checked = check_call(&dissection);
    let call_peak = alloc::peak_since(base);
    let output = checked.messages.capacity() * std::mem::size_of::<CheckedMessage>();
    eprintln!(
        "{judged} messages, {violations} violations, check_call peak {call_peak} B ({output} B output, {} B per message)",
        std::mem::size_of::<CheckedMessage>()
    );
    assert_eq!(checked.messages.len(), judged);
    assert!(
        call_peak <= output + (64 << 10),
        "check_call peaked at {call_peak} B, over its {output} B output vector plus 64 KiB"
    );
}
