//! # rtc-capture
//!
//! Experiment orchestration (paper §3.1): runs the call matrix — six
//! applications × three network configurations × N repeats of 5-minute
//! calls with 60-second pre/post capture phases — through the emulated
//! substrate, and produces annotated captures.
//!
//! Each call yields a [`CallCapture`]: the pcap [`Trace`] a Wireshark
//! session would have recorded, plus a [`CallManifest`] standing in for the
//! paper's manually logged metadata (call-initiation timestamps, device
//! addresses) that downstream filtering keys on.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use rtc_apps::{generate_call_trace, Application, CallScenario};
use rtc_netemu::NetworkConfig;
use rtc_pcap::{Timestamp, Trace};
use serde::{Deserialize, Serialize};
use std::net::IpAddr;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Parameters of a full experiment campaign.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExperimentConfig {
    /// Applications to test (paper: all six).
    pub apps: Vec<String>,
    /// Network configurations (paper: all three).
    pub networks: Vec<String>,
    /// Repeats per (app, network) cell (here 6, for 6 x 3 x 6 = 108 calls;
    /// the paper reports about 90).
    pub repeats: usize,
    /// Call duration in seconds (paper: 300).
    pub call_secs: u64,
    /// Traffic-rate multiplier in (0, 1].
    pub scale: f64,
    /// Campaign seed.
    pub seed: u64,
}

impl ExperimentConfig {
    /// The paper's full matrix at the given scale.
    pub fn paper_matrix(call_secs: u64, scale: f64, seed: u64) -> ExperimentConfig {
        ExperimentConfig {
            apps: Application::ALL.iter().map(|a| a.slug().to_string()).collect(),
            networks: NetworkConfig::ALL.iter().map(|n| n.label().to_string()).collect(),
            repeats: 6,
            call_secs,
            scale,
            seed,
        }
    }

    /// A small matrix for tests: every app and network, one repeat, short
    /// calls, low rates.
    pub fn smoke(seed: u64) -> ExperimentConfig {
        let mut c = ExperimentConfig::paper_matrix(30, 0.1, seed);
        c.repeats = 1;
        c
    }

    /// Decode the application list, skipping unknown slugs. Nothing the
    /// study runs reaches here with one: [`check_names`] rejects them in the
    /// CLI's arguments, in a resumed campaign plan and in a live session's
    /// manifest.
    pub fn applications(&self) -> Vec<Application> {
        self.apps.iter().filter_map(|s| Application::from_slug(s)).collect()
    }

    /// Decode the network list, skipping unknown labels, which
    /// [`check_names`] rejects before a config is used.
    pub fn network_configs(&self) -> Vec<NetworkConfig> {
        self.networks.iter().filter_map(|s| NetworkConfig::from_label(s)).collect()
    }

    /// Total number of calls the campaign will run.
    pub fn total_calls(&self) -> usize {
        self.applications().len() * self.network_configs().len() * self.repeats
    }
}

/// Reject the first application slug or network label the study does not
/// know. The one name check: the CLI's arguments, resumed campaign plans,
/// saved manifests and live sessions all go through it.
pub fn check_names(apps: &[String], networks: &[String]) -> Result<(), String> {
    if let Some(app) = apps.iter().find(|a| Application::from_slug(a).is_none()) {
        return Err(format!("unknown app '{app}'"));
    }
    if let Some(network) = networks.iter().find(|n| NetworkConfig::from_label(n).is_none()) {
        return Err(format!("unknown network '{network}'"));
    }
    Ok(())
}

/// Ground-truth metadata logged for one call (paper §3.1.2: event
/// timestamps and device addresses recorded manually during capture).
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub struct CallManifest {
    /// Application slug.
    pub app: String,
    /// Network configuration label.
    pub network: String,
    /// Repeat index within the (app, network) cell.
    pub repeat: usize,
    /// Seed this call was generated from.
    pub seed: u64,
    /// Capture start, microseconds.
    pub capture_start_us: u64,
    /// Call initiation time, microseconds.
    pub call_start_us: u64,
    /// Call termination time, microseconds.
    pub call_end_us: u64,
    /// Capture end, microseconds.
    pub capture_end_us: u64,
    /// Device addresses (caller, callee).
    pub device_ips: [IpAddr; 2],
}

impl CallManifest {
    /// The application under test.
    pub fn application(&self) -> Application {
        Application::from_slug(&self.app).expect("manifest app slug")
    }

    /// The call window as timestamps.
    pub fn call_window(&self) -> (Timestamp, Timestamp) {
        (Timestamp::from_micros(self.call_start_us), Timestamp::from_micros(self.call_end_us))
    }
}

/// One captured call: trace + manifest.
#[derive(Debug, Clone)]
pub struct CallCapture {
    /// Ground-truth metadata.
    pub manifest: CallManifest,
    /// The merged two-device capture.
    pub trace: Trace,
}

/// Build the scenario for one cell of the matrix.
pub fn scenario_for(
    config: &ExperimentConfig,
    app: Application,
    network: NetworkConfig,
    repeat: usize,
) -> CallScenario {
    let seed = config
        .seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add((repeat as u64) << 32)
        .wrapping_add(app.slug().len() as u64 * 131)
        .wrapping_add(repeat as u64);
    CallScenario::new(app, network, seed ^ (repeat as u64 + 1)).scaled(config.call_secs, config.scale)
}

/// Run a single call and capture it.
pub fn run_call(config: &ExperimentConfig, app: Application, network: NetworkConfig, repeat: usize) -> CallCapture {
    let scenario = scenario_for(config, app, network, repeat);
    synthesize_call(&scenario, repeat)
}

/// Synthesize one call outside the experiment matrix: an explicit
/// scenario plus the repeat index recorded in its manifest. The live
/// service's fleet driver materializes planned calls with this, so a
/// fleet call is reproducible from `(app, network, seed, repeat)` alone.
pub fn synthesize_call(scenario: &CallScenario, repeat: usize) -> CallCapture {
    let trace = generate_call_trace(scenario);
    let manifest = CallManifest {
        app: scenario.app.slug().to_string(),
        network: scenario.network.label().to_string(),
        repeat,
        seed: scenario.seed,
        capture_start_us: scenario.capture_start().as_micros(),
        call_start_us: scenario.call_start.as_micros(),
        call_end_us: scenario.call_end().as_micros(),
        capture_end_us: scenario.capture_end().as_micros(),
        device_ips: scenario.device_ips(),
    };
    CallCapture { manifest, trace }
}

/// Record an idle-phone capture: background activity only, no call
/// (paper §3.1.2 collects 30 minutes of background activities per
/// configuration; §3.2.2 derives the SNI blocklist from 7.5 h of such
/// traffic).
pub fn record_idle(network: NetworkConfig, duration_secs: u64, seed: u64) -> Trace {
    // Reuse the background generators with a nominal "call window" placed
    // mid-capture; no application traffic is generated.
    let scenario = CallScenario {
        app: Application::Zoom, // background noise does not depend on the app
        network,
        call_start: Timestamp::from_secs(duration_secs / 3),
        call_secs: duration_secs / 3,
        pre_secs: duration_secs / 3,
        post_secs: duration_secs - 2 * (duration_secs / 3),
        scale: 1.0,
        seed,
    };
    let mut sink = rtc_netemu::TrafficSink::new(network.path_profile(), scenario.rng().fork("idle-path"));
    rtc_apps::background::generate(&scenario, &mut sink);
    sink.finish()
}

/// Run the full campaign, parallelized across calls with scoped threads.
pub fn run_experiment(config: &ExperimentConfig) -> Vec<CallCapture> {
    let mut cells = Vec::new();
    for app in config.applications() {
        for network in config.network_configs() {
            for repeat in 0..config.repeats {
                cells.push((app, network, repeat));
            }
        }
    }
    let workers = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4).min(cells.len().max(1));
    let next = AtomicUsize::new(0);
    let mut results: Vec<Option<CallCapture>> = (0..cells.len()).map(|_| None).collect();
    std::thread::scope(|s| {
        let mut handles = Vec::new();
        for _ in 0..workers {
            let (next, cells) = (&next, &cells);
            handles.push(s.spawn(move || {
                let mut out = Vec::new();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(&(app, network, repeat)) = cells.get(i) else { break };
                    out.push((i, run_call(config, app, network, repeat)));
                }
                out
            }));
        }
        for h in handles {
            for (i, cap) in h.join().expect("worker panicked") {
                results[i] = Some(cap);
            }
        }
    });
    results.into_iter().map(|r| r.expect("all cells ran")).collect()
}

/// Persist a campaign to `dir`: one `.pcap` plus one `.json` manifest per
/// call (the released-dataset layout the paper promises).
pub fn save_experiment(dir: impl AsRef<std::path::Path>, captures: &[CallCapture]) -> std::io::Result<()> {
    let dir = dir.as_ref();
    std::fs::create_dir_all(dir)?;
    for cap in captures {
        save_call(dir, cap)?;
    }
    Ok(())
}

/// Persist one call into a campaign directory, atomically: the `.pcap`
/// and `.json` are each written to a temporary sibling and renamed into
/// place, so a writer killed mid-save never leaves a torn capture behind.
/// The sharded study runner depends on this — after a crash, every file
/// [`scan_experiment`] discovers is complete, and re-running the call
/// simply replaces it with identical bytes (generation is deterministic).
pub fn save_call(dir: impl AsRef<std::path::Path>, cap: &CallCapture) -> std::io::Result<()> {
    let dir = dir.as_ref();
    let stem = format!("{}_{}_{}", cap.manifest.app, cap.manifest.network, cap.manifest.repeat);
    let pcap_tmp = dir.join(format!("{stem}.pcap.tmp"));
    rtc_pcap::write_file(&pcap_tmp, &cap.trace).map_err(|e| std::io::Error::other(e.to_string()))?;
    std::fs::rename(&pcap_tmp, dir.join(format!("{stem}.pcap")))?;
    // Manifest second: scan_experiment keys on `.json`, so a call becomes
    // discoverable only once its pcap is already in place.
    let json = serde_json::to_string_pretty(&cap.manifest)?;
    let json_tmp = dir.join(format!("{stem}.json.tmp"));
    std::fs::write(&json_tmp, json)?;
    std::fs::rename(&json_tmp, dir.join(format!("{stem}.json")))?;
    Ok(())
}

/// Scan a campaign directory saved by [`save_experiment`]: parse and
/// validate every `.json` manifest, and return `(pcap path, manifest)`
/// pairs sorted by `(app, network, repeat)`.
///
/// This is the single manifest→capture discovery path shared by the batch
/// loader ([`load_experiment`]), the streaming driver
/// (`rtc_core::StreamingStudy`), and the live service's offline
/// comparison runs — slug validation happens here, where the offending
/// file is known, rather than panicking deep inside the analysis.
pub fn scan_experiment(dir: impl AsRef<std::path::Path>) -> std::io::Result<Vec<(std::path::PathBuf, CallManifest)>> {
    let mut out = Vec::new();
    for entry in std::fs::read_dir(dir.as_ref())? {
        let path = entry?.path();
        if path.extension().and_then(|e| e.to_str()) != Some("json") {
            continue;
        }
        let manifest: CallManifest =
            serde_json::from_str(&std::fs::read_to_string(&path)?).map_err(std::io::Error::other)?;
        check_names(std::slice::from_ref(&manifest.app), std::slice::from_ref(&manifest.network))
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, format!("{}: {e}", path.display())))?;
        out.push((path.with_extension("pcap"), manifest));
    }
    out.sort_by(|a, b| (&a.1.app, &a.1.network, a.1.repeat).cmp(&(&b.1.app, &b.1.network, b.1.repeat)));
    Ok(out)
}

/// Load a campaign saved by [`save_experiment`].
pub fn load_experiment(dir: impl AsRef<std::path::Path>) -> std::io::Result<Vec<CallCapture>> {
    let mut out = Vec::new();
    for (pcap_path, manifest) in scan_experiment(dir)? {
        let trace = rtc_pcap::read_file(&pcap_path).map_err(|e| std::io::Error::other(e.to_string()))?;
        out.push(CallCapture { manifest, trace });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> ExperimentConfig {
        ExperimentConfig {
            apps: vec!["zoom".into(), "discord".into()],
            networks: vec!["wifi-p2p".into()],
            repeats: 2,
            call_secs: 15,
            scale: 0.05,
            seed: 9,
        }
    }

    #[test]
    fn config_decoding() {
        let c = ExperimentConfig::paper_matrix(300, 1.0, 1);
        assert_eq!(c.applications().len(), 6);
        assert_eq!(c.network_configs().len(), 3);
        assert_eq!(c.total_calls(), 6 * 3 * 6);
    }

    #[test]
    fn run_call_produces_annotated_trace() {
        let c = tiny_config();
        let cap = run_call(&c, Application::Zoom, NetworkConfig::WifiP2p, 0);
        assert!(!cap.trace.records.is_empty());
        assert_eq!(cap.manifest.app, "zoom");
        let (start, end) = cap.manifest.call_window();
        assert!(end.micros_since(start) == 15_000_000);
        // Records span pre-call through post-call.
        let (first, last) = cap.trace.time_range().unwrap();
        assert!(first < start);
        assert!(last > end);
    }

    #[test]
    fn experiment_runs_all_cells_deterministically() {
        let c = tiny_config();
        let caps1 = run_experiment(&c);
        let caps2 = run_experiment(&c);
        assert_eq!(caps1.len(), 4);
        for (a, b) in caps1.iter().zip(&caps2) {
            assert_eq!(a.manifest, b.manifest);
            assert_eq!(a.trace.records.len(), b.trace.records.len());
        }
        // Different repeats differ.
        assert_ne!(caps1[0].trace.records.len(), caps1[1].trace.records.len());
    }

    #[test]
    fn save_and_load_roundtrip() {
        let c = tiny_config();
        let caps = run_experiment(&c);
        let dir = std::env::temp_dir().join(format!("rtc-capture-test-{}", std::process::id()));
        save_experiment(&dir, &caps).unwrap();
        let loaded = load_experiment(&dir).unwrap();
        assert_eq!(loaded.len(), caps.len());
        for (a, b) in loaded.iter().zip(caps.iter().map(|c| &c.manifest)) {
            // load sorts by (app, network, repeat); compare via lookup.
            let orig = caps.iter().find(|c| c.manifest == a.manifest).unwrap();
            assert_eq!(a.trace.records.len(), orig.trace.records.len());
            let _ = b;
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn load_rejects_unknown_manifest_slugs() {
        let c = tiny_config();
        let cap = run_call(&c, Application::Zoom, NetworkConfig::WifiP2p, 0);
        for (field, value) in [("app", "zoom-web"), ("network", "starlink")] {
            let dir = std::env::temp_dir().join(format!("rtc-capture-slug-{}-{field}", std::process::id()));
            let mut bad = cap.clone();
            match field {
                "app" => bad.manifest.app = value.into(),
                _ => bad.manifest.network = value.into(),
            }
            save_experiment(&dir, &[bad]).unwrap();
            let err = load_experiment(&dir).unwrap_err();
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
            assert!(err.to_string().contains(value), "{err}");
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}
