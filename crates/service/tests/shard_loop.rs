//! The shard loop's own contract: shutdown does not wait on the idle
//! sweep period, the queue-depth count returns to zero once a fleet has
//! drained, and the engine divides the machine's DPI threads between its
//! shards.

use rtc_core::StudyConfig;
use rtc_netemu::fleet::{FleetPlan, FleetSpec};
use rtc_service::{drive_fleet, Engine, FleetDriveOptions, ServiceConfig, SessionKey};
use std::time::{Duration, Instant};

fn plan(calls: usize, tenants: usize, seed: u64) -> FleetPlan {
    FleetPlan::build(FleetSpec::new(calls, tenants, vec!["zoom".into(), "discord".into()], seed))
}

fn opts() -> FleetDriveOptions {
    FleetDriveOptions { call_secs: 6, scale: 0.04, chunk_records: 16 }
}

/// Poll `status()` until `done` holds, failing after 30 s.
fn wait_for(engine: &Engine, done: impl Fn(&rtc_service::EngineStatus) -> bool) {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let status = engine.status();
        if done(&status) {
            return;
        }
        assert!(Instant::now() < deadline, "engine did not settle: {status:?}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn shutdown_does_not_wait_out_a_long_idle_timeout() {
    let fleet = plan(1, 1, 11);
    let capture = rtc_service::fleet::materialize(&fleet.calls[0], &opts()).unwrap();
    let mut config = ServiceConfig::new(StudyConfig::smoke(11));
    config.shards = 2;
    config.idle_timeout = Duration::from_secs(40);
    let engine = Engine::start(config);
    let key = SessionKey::new("t", "c");
    engine.open(key.clone(), capture.manifest).unwrap();
    engine.push_records(&key, capture.trace.records).unwrap();
    engine.finish(&key).unwrap();
    wait_for(&engine, |s| s.finished == 1);

    let t = Instant::now();
    let summary = engine.shutdown();
    let took = t.elapsed();
    assert!(took < Duration::from_secs(1), "shutdown took {took:?} with a 40 s idle timeout");
    assert_eq!((summary.finished, summary.evicted), (1, 0));
    assert!(summary.errors.is_empty(), "{:?}", summary.errors);
}

#[test]
fn queue_depth_returns_to_zero_after_a_fleet_drains() {
    let fleet = plan(12, 3, 23);
    let study = StudyConfig::smoke(23);
    let registry = study.obs.clone();
    let mut config = ServiceConfig::new(study);
    config.shards = 3;
    // A one-message queue keeps senders blocked on full queues, the case
    // the depth count includes.
    config.queue_capacity = 1;
    let engine = Engine::start(config);
    drive_fleet(&engine, &fleet, &opts()).expect("fleet drive");
    wait_for(&engine, |s| s.finished == fleet.calls.len() as u64);

    let status = engine.status();
    assert_eq!(status.queue_depths, vec![0; 3], "{status:?}");
    for shard in ["0", "1", "2"] {
        let gauge = registry.gauge("rtc_service_queue_depth", &[("shard", shard)], "queued ingest messages");
        assert_eq!(gauge.get(), 0, "shard {shard} queue-depth gauge");
    }
    assert!(engine.shutdown().errors.is_empty());
}

#[test]
fn dpi_threads_default_to_an_equal_share_per_shard() {
    let mut config = ServiceConfig::new(StudyConfig::smoke(1));
    config.shards = 3;
    assert_eq!(config.study.dpi.threads, 0);
    let engine = Engine::start(config.clone());
    let share = (rtc_core::dpi::par::hardware_threads() / 3).max(1);
    assert_eq!(engine.config().study.dpi.threads, share);
    engine.shutdown();

    config.study.dpi.threads = 5;
    let engine = Engine::start(config);
    assert_eq!(engine.config().study.dpi.threads, 5, "an explicit DPI thread count is kept");
    engine.shutdown();
}
