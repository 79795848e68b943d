//! Differential proof that the streaming engine and the batch API are one
//! pipeline: identical `StudyData`, per-call summaries, findings, and
//! rejection taxonomy on the full smoke matrix, across random seeds,
//! app/network subsets, and chunk sizes; identical judged messages, field
//! for field, for every call of the matrix — plus the golden convergence
//! of mid-study aggregator snapshots to the final batch tables.

use rtc_conformance::check_cases;
use rtc_core::{analyze_capture, pipeline, Artifact, StreamingStudy, Study, StudyConfig, StudyReport};
use std::sync::atomic::{AtomicUsize, Ordering};

static DIR_SEQ: AtomicUsize = AtomicUsize::new(0);

/// A unique scratch directory per test case.
fn scratch_dir() -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "rtc-streaming-test-{}-{}",
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Analyze the configured experiment through both drivers: the batch one
/// over the in-memory captures in generation order (and, checked equal,
/// reversed), the streaming one over the saved campaign in directory
/// order. The orders differ, so the reports agree only because sealing
/// puts the calls in canonical order.
fn run_both(config: &StudyConfig, chunk_records: usize) -> (StudyReport, StudyReport) {
    let dir = scratch_dir();
    let mut captures = rtc_core::capture::run_experiment(&config.experiment);
    rtc_core::capture::save_experiment(&dir, &captures).unwrap();
    let batch = Study::analyze(&captures, config);
    captures.reverse();
    let reversed = Study::analyze(&captures, config);
    assert_eq!(reversed.data, batch.data, "reversing the input reordered the report");
    assert_eq!(reversed.findings, batch.findings);
    assert_eq!(reversed.header_profiles, batch.header_profiles);
    let streaming = StreamingStudy::analyze_dir(&dir, config, chunk_records, None).unwrap();
    std::fs::remove_dir_all(&dir).ok();
    (batch, streaming)
}

fn assert_reports_equal(batch: &StudyReport, streaming: &StudyReport) {
    assert!(batch.failures.is_empty(), "{:?}", batch.failures);
    assert!(streaming.failures.is_empty(), "{:?}", streaming.failures);
    assert_eq!(batch.data.calls.len(), streaming.data.calls.len());
    for (b, s) in batch.data.calls.iter().zip(streaming.data.calls.iter()) {
        assert_eq!(b, s, "call summary diverged: {} / {} #{}", b.app, b.network, b.repeat);
        assert_eq!(b.rejections, s.rejections, "rejection taxonomy diverged for {}", b.app);
    }
    assert_eq!(batch.data, streaming.data);
    assert_eq!(batch.findings, streaming.findings);
    assert_eq!(batch.header_profiles, streaming.header_profiles);
}

#[test]
fn streaming_matches_batch_on_full_smoke_matrix() {
    let config = StudyConfig::smoke(42);
    let (batch, streaming) = run_both(&config, 17);
    assert_eq!(batch.data.calls.len(), config.experiment.total_calls(), "every cell of the matrix must be analyzed");
    assert_reports_equal(&batch, &streaming);

    // The streaming run's stage accounting is coherent: every record was
    // decoded, decode can only drop items, and the filter's residency
    // high-water mark never reached the raw trace size.
    let decode = streaming.pipeline.stage(pipeline::StageKind::Decode);
    assert!(decode.items_in > 0);
    assert!(decode.items_out <= decode.items_in);
    let raw_total: usize = streaming.data.calls.iter().map(|c| c.raw_bytes).sum();
    assert!(streaming.pipeline.peak_retained_bytes > 0);
    assert!(
        streaming.pipeline.peak_retained_bytes < raw_total,
        "peak residency {} must stay below the total trace size {raw_total}",
        streaming.pipeline.peak_retained_bytes
    );
    let aggregate = streaming.pipeline.stage(pipeline::StageKind::Aggregate);
    assert_eq!(aggregate.items_in as usize, streaming.data.calls.len());
}

/// Reports keep per-type counts, so the comparison above no longer sees
/// individual messages. This one does: for every call of the smoke matrix,
/// the batch entry point (`analyze_capture`, in memory) and the streaming
/// one (`analyze_saved_call`, from disk in small chunks) judge the same
/// messages in the same order, equal in every field — protocol, type,
/// the carrying datagram's index, timestamp and five-tuple, and the
/// violation's rule, criterion, operands, rendered text and wire error.
#[test]
fn streaming_matches_batch_per_message_on_full_smoke_matrix() {
    let config = StudyConfig::smoke(42);
    let dir = scratch_dir();
    let captures = rtc_core::capture::run_experiment(&config.experiment);
    assert_eq!(captures.len(), 18, "all 6 x 3 cells");
    rtc_core::capture::save_experiment(&dir, &captures).unwrap();
    let saved = rtc_core::capture::scan_experiment(&dir).unwrap();
    let mut violations = 0;
    for cap in &captures {
        let m = &cap.manifest;
        let (pcap, manifest) = saved
            .iter()
            .find(|(_, s)| (&s.app, &s.network, s.repeat) == (&m.app, &m.network, m.repeat))
            .expect("every call was saved");
        let batch = analyze_capture(cap, &config);
        let streaming = pipeline::analyze_saved_call(pcap, manifest, &config, 17).unwrap().0;
        // A message's place: its datagram's index, capture time and stream.
        let place = |a: &rtc_core::CallAnalysis, m: &rtc_core::compliance::CheckedMessage| {
            let d = &a.dissection.datagrams[m.datagram as usize];
            (m.datagram, d.ts, d.stream)
        };
        let call = format!("{} / {} #{}", m.app, m.network, m.repeat);
        let (bm, sm) = (&batch.record.checked.messages, &streaming.record.checked.messages);
        assert_eq!(bm.len(), sm.len(), "{call}: message count");
        for (i, (b, s)) in bm.iter().zip(sm).enumerate() {
            assert_eq!(
                (b.protocol, b.type_key, place(&batch, b)),
                (s.protocol, s.type_key, place(&streaming, s)),
                "{call} #{i}"
            );
            let verdict = |v: &Option<rtc_core::compliance::Violation>| {
                v.as_ref().map(|v| (v.rule, v.criterion(), v.ty, v.n, v.to_string(), v.wire))
            };
            assert_eq!(verdict(&b.violation), verdict(&s.violation), "{call} #{i}: verdict");
            violations += b.violation.is_some() as usize;
        }
    }
    assert!(violations > 0, "the matrix exercises non-compliant verdicts");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn aggregator_snapshots_converge_to_batch_tables() {
    let mut config = StudyConfig::smoke(9);
    config.experiment.apps = vec!["zoom".into(), "discord".into(), "meet".into()];
    config.experiment.networks = vec!["wifi-relay".into()];
    config.experiment.repeats = 2;
    let captures = rtc_core::capture::run_experiment(&config.experiment);
    let batch = Study::analyze(&captures, &config);

    let mut aggregate = rtc_core::report::Aggregator::new();
    let mut absorbed = Vec::new();
    for (i, cap) in captures.iter().enumerate() {
        let analysis = analyze_capture(cap, &config);
        absorbed.push(rtc_core::CallSummary::from(analysis.record.clone()));
        let summaries: Vec<String> = analysis.header_profiles.iter().map(|p| p.summary()).collect();
        let ssrcs = rtc_core::compliance::findings::ssrc_set(&analysis.dissection);
        aggregate.absorb_call(analysis.record, &analysis.findings, &summaries, ssrcs);
        // Mid-study snapshots are exactly the absorbed prefix, and render.
        let snapshot = aggregate.snapshot();
        assert_eq!(snapshot.calls, absorbed, "snapshot after call {i}");
        let _ = rtc_core::report::tables::table1(&snapshot).to_text();
    }
    // The converged snapshot, still in absorption order, reproduces every
    // batch table verbatim.
    let snapshot = aggregate.snapshot();
    assert_ne!(snapshot, batch.data, "generation order is not canonical here");
    for (artifact, render) in Artifact::ALL.into_iter().zip(rtc_core::report::ARTIFACTS) {
        assert_eq!(render(&snapshot).to_text(), batch.render_table(artifact), "{artifact:?}");
    }
    // Finishing puts the calls in the batch report's canonical order.
    let out = aggregate.finish();
    assert_eq!(out.data, batch.data);
    assert_eq!(out.findings, batch.findings);
    assert_eq!(out.header_profiles, batch.header_profiles);
}

/// Random seeds, app/network subsets, and chunk sizes: the two drivers
/// always produce the identical study.
#[test]
fn streaming_matches_batch_randomized() {
    check_cases("streaming_matches_batch_randomized", 4, |rng| {
        const APPS: [&str; 6] = ["zoom", "facetime", "whatsapp", "messenger", "discord", "meet"];
        const NETWORKS: [&str; 3] = ["wifi-p2p", "wifi-relay", "cellular"];
        let seed = rng.in_range(0u64..10_000);
        let app_a = rng.in_range(0usize..6);
        let app_b = rng.in_range(0usize..6);
        let network = rng.in_range(0usize..3);
        let chunk_sel = rng.in_range(0usize..4);
        let mut config = StudyConfig::smoke(seed);
        let mut apps = vec![APPS[app_a].to_string()];
        if app_b != app_a {
            apps.push(APPS[app_b].to_string());
        }
        config.experiment.apps = apps;
        config.experiment.networks = vec![NETWORKS[network].to_string()];
        let chunk_records = [1, 7, 64, 0][chunk_sel];
        let (batch, streaming) = run_both(&config, chunk_records);
        assert!(batch.failures.is_empty() && streaming.failures.is_empty());
        assert_eq!(&batch.data, &streaming.data);
        assert_eq!(&batch.findings, &streaming.findings);
        assert_eq!(&batch.header_profiles, &streaming.header_profiles);
    });
}

/// A session fed one record at a time, in odd-sized chunks or in the
/// reader's default chunks analyzes every call identically and counts the
/// same items in every stage: chunking moves only the clock reads.
#[test]
fn session_chunk_size_changes_no_analysis_and_no_stage_count() {
    use rtc_core::apps::Application;
    use rtc_core::netemu::NetworkConfig;
    let config = StudyConfig::smoke(11);
    for (app, network) in
        [(Application::FaceTime, NetworkConfig::WifiRelay), (Application::Zoom, NetworkConfig::Cellular)]
    {
        let cap = rtc_core::capture::run_call(&config.experiment, app, network, 0);
        let analyze = |chunk: usize| {
            let mut session = pipeline::CallSession::new(pipeline::CallMeta::of(&cap.manifest), &config);
            for records in cap.trace.records.chunks(chunk) {
                session.push_records(records.iter().cloned());
            }
            session.finish()
        };
        let (want, want_stats) = analyze(1);
        assert!(!want.record.checked.messages.is_empty(), "{app:?}/{network}: the call must carry messages");
        for chunk in [7, 1024] {
            let (got, stats) = analyze(chunk);
            assert!(got == want, "{app:?}/{network}, chunks of {chunk}: the analysis changed");
            for kind in pipeline::StageKind::ALL {
                let (a, b) = (stats.stage(kind), want_stats.stage(kind));
                assert_eq!((a.items_in, a.items_out), (b.items_in, b.items_out), "{app:?}/{network} {kind:?}");
            }
            assert_eq!(stats.peak_retained_bytes, want_stats.peak_retained_bytes, "{app:?}/{network}");
        }
    }
}
