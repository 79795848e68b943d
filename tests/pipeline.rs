//! Cross-crate pipeline tests: filtering fidelity (Table 1's shape), the
//! pcap disk round trip, and determinism of the whole study.

use rtc_core::apps::Application;
use rtc_core::netemu::NetworkConfig;
use rtc_core::{analyze_capture, Study, StudyConfig};

fn config() -> StudyConfig {
    let mut c = StudyConfig::smoke(808);
    c.experiment.call_secs = 45;
    c.experiment.scale = 0.15;
    c
}

#[test]
fn filtering_keeps_media_and_removes_noise() {
    let config = config();
    for app in [Application::Zoom, Application::GoogleMeet] {
        for network in NetworkConfig::ALL {
            let cap = rtc_core::capture::run_call(&config.experiment, app, network, 0);
            let a = analyze_capture(&cap, &config);
            let r = &a.record;
            // Stage 1 always removes something: background flows span the
            // capture by construction.
            assert!(r.stage1.udp_streams + r.stage1.tcp_streams > 0, "{app:?}/{network}");
            // Stage 2 catches in-window noise (DNS at minimum).
            assert!(r.stage2.udp_streams > 0, "{app:?}/{network}");
            // The overwhelming majority of UDP datagrams are RTC media.
            let keep_ratio = r.rtc.udp_datagrams as f64 / r.raw.udp_datagrams as f64;
            assert!(keep_ratio > 0.9, "{app:?}/{network}: keep ratio {keep_ratio}");
            // TCP is a negligible fraction, as in the paper (§3.3).
            assert!(r.rtc.tcp_segments < r.rtc.udp_datagrams / 20, "{app:?}/{network}");
            // Conservation: every stream lands in exactly one bucket.
            assert_eq!(r.raw.udp_streams, r.stage1.udp_streams + r.stage2.udp_streams + r.rtc.udp_streams);
            assert_eq!(r.raw.tcp_streams, r.stage1.tcp_streams + r.stage2.tcp_streams + r.rtc.tcp_streams);
        }
    }
}

#[test]
fn every_stage2_heuristic_fires_somewhere() {
    use rtc_core::filter::Heuristic;
    let config = config();
    let mut seen = std::collections::HashSet::new();
    for network in [NetworkConfig::WifiP2p, NetworkConfig::Cellular] {
        let cap = rtc_core::capture::run_call(&config.experiment, Application::WhatsApp, network, 0);
        let datagrams = cap.trace.datagrams();
        let fr = rtc_core::filter::run(&datagrams, cap.manifest.call_window(), &config.filter);
        seen.extend(fr.stage2_heuristics.into_keys());
    }
    for h in [Heuristic::ThreeTupleTiming, Heuristic::TlsSni, Heuristic::LocalIp, Heuristic::PortExclusion] {
        assert!(seen.contains(&h), "heuristic {h:?} never fired");
    }
}

#[test]
fn analysis_is_identical_after_disk_roundtrip() {
    let config = config();
    let cap = rtc_core::capture::run_call(&config.experiment, Application::Discord, NetworkConfig::WifiRelay, 0);
    let dir = std::env::temp_dir().join(format!("rtc-suite-roundtrip-{}", std::process::id()));
    rtc_core::capture::save_experiment(&dir, std::slice::from_ref(&cap)).unwrap();
    let loaded = rtc_core::capture::load_experiment(&dir).unwrap();
    assert_eq!(loaded.len(), 1);

    let direct = analyze_capture(&cap, &config);
    let from_disk = analyze_capture(&loaded[0], &config);
    assert_eq!(direct.record.raw.udp_datagrams, from_disk.record.raw.udp_datagrams);
    assert_eq!(direct.record.classes, from_disk.record.classes);
    assert_eq!(direct.record.checked.messages.len(), from_disk.record.checked.messages.len());
    for (a, b) in direct.record.checked.messages.iter().zip(&from_disk.record.checked.messages) {
        assert_eq!(a.type_key, b.type_key);
        assert_eq!(a.is_compliant(), b.is_compliant());
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn study_is_deterministic() {
    let mut config = config();
    config.experiment.apps = vec!["facetime".into(), "meet".into()];
    config.experiment.networks = vec!["wifi-relay".into()];
    let a = Study::run(&config);
    let b = Study::run(&config);
    assert_eq!(a.render_all(), b.render_all());
}

#[test]
fn different_seeds_preserve_qualitative_conclusions() {
    for seed in [1u64, 999, 123_456] {
        let mut config = StudyConfig::smoke(seed);
        config.experiment.apps = vec!["discord".into(), "whatsapp".into()];
        config.experiment.networks = vec!["wifi-p2p".into(), "cellular".into()];
        config.experiment.call_secs = 40;
        config.experiment.scale = 0.12;
        let report = Study::run(&config);
        let (ok, total) = report.data.app_type_ratio_all("Discord");
        assert_eq!(ok, 0, "seed {seed}: Discord has a compliant type");
        assert!(total >= 7, "seed {seed}");
        assert!(report.data.app_volume_compliance("WhatsApp") > 0.9, "seed {seed}");
    }
}

#[test]
fn dpi_offset_limit_reproduces_k200_claim() {
    // §4.1.1: k = 200 yields the same validated messages as a full-payload
    // scan; tiny k misses proprietary-headed messages.
    let config = config();
    let cap = rtc_core::capture::run_call(&config.experiment, Application::Zoom, NetworkConfig::WifiRelay, 0);
    let datagrams = cap.trace.datagrams();
    let rtc_udp = rtc_core::filter::run(&datagrams, cap.manifest.call_window(), &config.filter).accepted_udp;

    let count = |k: usize| {
        let d =
            rtc_core::dpi::dissect_call(&rtc_udp, &rtc_core::dpi::DpiConfig { max_offset: k, ..Default::default() });
        d.datagrams.iter().map(|x| x.messages.len()).sum::<usize>()
    };
    let k200 = count(200);
    let full = count(usize::MAX);
    let k8 = count(8);
    assert_eq!(k200, full, "k=200 must equal a full scan");
    assert!(k8 < k200 / 2, "k=8 should miss Zoom's proprietary-headed media: {k8} vs {k200}");
}

/// One call for the two design ablations below: the paper matrix at 60 s
/// and 20 % rate, repeat 0.
fn ablation_call(app: Application, network: NetworkConfig) -> rtc_core::CallCapture {
    let config = StudyConfig::paper_matrix(60, 0.2, 9_999);
    rtc_core::capture::run_call(&config.experiment, app, network, 0)
}

#[test]
fn rtp_group_threshold_rejects_offset_aliasing_phantoms() {
    // The `(stream, SSRC)` group-size threshold is what keeps offset
    // shifting from validating aliased RTP headers. At 1 every lone
    // candidate is accepted: phantom payload types outside Zoom's
    // inventory appear and the RTP count roughly triples; from 2 on the
    // count plateaus at the default's with no phantoms.
    let cap = ablation_call(Application::Zoom, NetworkConfig::WifiRelay);
    let datagrams = cap.trace.datagrams();
    let rtc_udp =
        rtc_core::filter::run(&datagrams, cap.manifest.call_window(), &rtc_core::filter::FilterConfig::default())
            .accepted_udp;
    let known = rtc_core::apps::zoom::ZOOM_RTP_PAYLOAD_TYPES;
    let sweep = |min_group: usize| {
        let d = rtc_core::dpi::dissect_call(
            &rtc_udp,
            &rtc_core::dpi::DpiConfig { rtp_min_group: min_group, ..Default::default() },
        );
        let mut messages = 0usize;
        let mut phantoms = std::collections::BTreeSet::new();
        for (_, m) in d.messages() {
            if let rtc_core::dpi::CandidateKind::Rtp { payload_type, .. } = m.kind {
                messages += 1;
                if !known.contains(&payload_type) {
                    phantoms.insert(payload_type);
                }
            }
        }
        (messages, phantoms.len())
    };

    let default = sweep(rtc_core::dpi::DpiConfig::default().rtp_min_group);
    assert!(default.0 > 0, "the default must validate Zoom's media");
    assert_eq!(default.1, 0, "the default threshold admits phantom payload types");
    let lax = sweep(1);
    assert!(lax.1 > 0, "min group 1 should admit phantom payload types");
    assert!(lax.0 > 2 * default.0, "min group 1 should inflate the RTP count: {} vs {}", lax.0, default.0);
    for min_group in [2usize, 3, 8, 16] {
        assert_eq!(sweep(min_group), default, "min group {min_group}");
    }
}

#[test]
fn call_window_slack_keeps_edges_and_admits_background_when_loose() {
    // Stage 1's call-window slack: WhatsApp on cellular switches relay →
    // P2P mid-call and sends a teardown burst just before the call ends.
    // Slack 0 keeps the same RTC traffic as the paper's 2 s, so the
    // call-edge traffic lies inside the window; a 60 s slack lets a
    // background stream in.
    let cap = ablation_call(Application::WhatsApp, NetworkConfig::Cellular);
    let datagrams = cap.trace.datagrams();
    let window = cap.manifest.call_window();
    let rtc = |slack_ms: u64| {
        let config = rtc_core::filter::FilterConfig { slack_us: slack_ms * 1_000, ..Default::default() };
        let r = rtc_core::filter::run(&datagrams, window, &config);
        (r.rtc.udp_datagrams, r.rtc.udp_streams)
    };
    let default = rtc(rtc_core::filter::FilterConfig::default().slack_us / 1_000);
    assert!(default.0 > 0 && default.1 > 0);
    for slack_ms in [0u64, 500, 10_000] {
        assert_eq!(rtc(slack_ms), default, "slack {slack_ms} ms");
    }
    let loose = rtc(60_000);
    assert!(loose.1 > default.1, "a 60 s slack should admit another stream: {loose:?} vs {default:?}");
    assert!(loose.0 > default.0);
}

#[test]
fn derived_blocklist_reproduces_builtin_filtering() {
    // The paper derives its SNI blocklist from idle-phone captures; doing
    // the same here must reproduce the hardcoded list's filtering outcome.
    let mut idle_datagrams = Vec::new();
    for (i, network) in NetworkConfig::ALL.iter().enumerate() {
        let idle = rtc_core::capture::record_idle(*network, 1800, 1000 + i as u64);
        idle_datagrams.extend(idle.datagrams());
    }
    let derived = rtc_core::filter::derive_sni_blocklist(&idle_datagrams);
    // Every domain the built-in noise generators use appears in the derived
    // list (sampling may take several idle sessions; three suffice here).
    for domain in rtc_core::apps::background::NOISE_SNI_DOMAINS {
        assert!(derived.contains(domain), "missing {domain} in {derived:?}");
    }

    // Analyzing with the derived list matches the default configuration.
    let config = config();
    let cap = rtc_core::capture::run_call(&config.experiment, Application::WhatsApp, NetworkConfig::WifiP2p, 0);
    let datagrams = cap.trace.datagrams();
    let with_builtin = rtc_core::filter::run(&datagrams, cap.manifest.call_window(), &config.filter);
    let derived_cfg = rtc_core::filter::FilterConfig { sni_blocklist: derived, ..Default::default() };
    let with_derived = rtc_core::filter::run(&datagrams, cap.manifest.call_window(), &derived_cfg);
    assert_eq!(with_builtin.rtc.udp_datagrams, with_derived.rtc.udp_datagrams);
    assert_eq!(with_builtin.stage2.tcp_streams, with_derived.stage2.tcp_streams);
}

/// The DPI's noise cut (RTP candidates of groups too small to validate
/// are dropped before validation) changes nothing: on every call of the
/// smoke matrix, `dissect_call_sampled` equals the unpruned public
/// stepwise path, serial and on three threads.
#[test]
fn noise_cut_matches_the_unpruned_stepwise_path_on_every_smoke_call() {
    use rtc_core::dpi::{CandidateBatch, DatagramClass, DpiConfig};
    let config = StudyConfig::smoke(4_242);
    let (mut calls, mut cut) = (0, 0);
    for app in config.experiment.applications() {
        for network in config.experiment.network_configs() {
            let cap = rtc_core::capture::run_call(&config.experiment, app, network, 0);
            let datagrams = cap.trace.datagrams();
            let rtc_udp = rtc_core::filter::run(&datagrams, cap.manifest.call_window(), &config.filter).accepted_udp;
            for threads in [1usize, 3] {
                let dpi = DpiConfig { threads, parallel_threshold: 1, ..config.dpi };
                let mut batch = CandidateBatch::with_capacity(rtc_udp.len());
                for d in &rtc_udp {
                    batch.push_payload(&d.payload, dpi.max_offset);
                }
                let mut builder = rtc_core::dpi::resolve::ContextBuilder::new(&dpi);
                for (i, d) in rtc_udp.iter().enumerate() {
                    builder.observe(d, batch.get(i));
                }
                let mut ctx = builder.finish();
                let (dissections, _) = rtc_core::dpi::par::resolve_all(&rtc_udp, &batch, &ctx, &dpi, 0);
                let mut want = rtc_core::dpi::CallDissection::default();
                for (dd, d) in dissections.iter().zip(&rtc_udp) {
                    if dd.class == DatagramClass::FullyProprietary {
                        *want.rejections.entry(rtc_core::dpi::rejection_key(&d.payload).into_owned()).or_default() +=
                            1;
                    }
                }
                want.datagrams = dissections;
                want.rtp_ssrcs = std::mem::take(&mut ctx.rtp_ssrcs);

                let (got, stats) = rtc_core::dpi::dissect_call_sampled(&rtc_udp, &dpi, 0);
                assert!(got == want, "{app:?}/{network}, threads {threads}: the cut changed the dissection");
                assert_eq!(stats.candidates.iter().sum::<u64>(), batch.candidate_count() as u64, "{app:?}/{network}");
                assert!(stats.kept_candidates <= batch.candidate_count() as u64, "{app:?}/{network}");
                cut += batch.candidate_count() as u64 - stats.kept_candidates;
            }
            calls += 1;
        }
    }
    assert_eq!(calls, 18, "the smoke matrix is 6 apps by 3 networks");
    assert!(cut > 0, "the smoke calls must carry noise for the cut to drop");
}
