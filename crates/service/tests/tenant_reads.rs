//! Live report reads: a tenant whose only session errored is listed,
//! reported and summarized like any other, and reading reports while a
//! fleet runs does not change what the service seals at shutdown.

use rtc_core::StudyConfig;
use rtc_netemu::fleet::{FleetPlan, FleetSpec};
use rtc_service::{
    drive_fleet, http_get, serve, Engine, FleetDriveOptions, ServiceConfig, ServiceFlags, ServiceSummary, SessionKey,
};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn study(seed: u64) -> StudyConfig {
    let mut config = StudyConfig::smoke(seed);
    config.obs = rtc_obs::MetricsRegistry::disabled();
    config
}

fn fleet(seed: u64) -> FleetPlan {
    FleetPlan::build(FleetSpec::new(10, 3, vec!["zoom".into(), "discord".into()], seed))
}

fn opts() -> FleetDriveOptions {
    FleetDriveOptions { call_secs: 6, scale: 0.04, chunk_records: 64 }
}

#[test]
fn tenant_whose_only_session_errored_is_listed_reported_and_summarized() {
    let mut config = ServiceConfig::new(study(4));
    config.shards = 2;
    let engine = Arc::new(Engine::start(config));
    let server = serve("127.0.0.1:0", engine.clone(), ServiceFlags::new()).expect("bind");
    let addr = server.local_addr();

    // "healthy" finishes one call; "broken" only ever sends records for a
    // session it never opened.
    let plan = FleetPlan::build(FleetSpec::new(1, 1, vec!["zoom".into()], 4));
    let capture = rtc_service::fleet::materialize(&plan.calls[0], &opts()).unwrap();
    let healthy = SessionKey::new("healthy", "c0");
    engine.open(healthy.clone(), capture.manifest.clone()).unwrap();
    engine.push_records(&healthy, capture.trace.records.clone()).unwrap();
    engine.finish(&healthy).unwrap();
    engine.push_records(&SessionKey::new("broken", "ghost"), Vec::new()).unwrap();
    let deadline = Instant::now() + Duration::from_secs(30);
    while engine.status().finished < 1 || engine.status().errors < 1 {
        assert!(Instant::now() < deadline, "engine never settled: {:?}", engine.status());
        std::thread::sleep(Duration::from_millis(10));
    }

    assert_eq!(engine.tenants(), ["broken", "healthy"]);
    let (status, tenants) = http_get(addr, "/tenants").unwrap();
    assert_eq!(status, 200);
    let tenants: Vec<String> = serde_json::from_str(&tenants).unwrap();
    assert_eq!(tenants, ["broken", "healthy"]);

    // Records for a session never opened belong to no call: the tenant
    // reports, but lists no excluded call.
    let (status, live) = http_get(addr, "/report/broken").unwrap();
    assert_eq!(status, 200, "{live}");
    assert!(!live.contains("Analysis failures"), "{live}");
    assert!(!live.contains("records for unknown session"), "{live}");
    let (_, healthy_live) = http_get(addr, "/report/healthy").unwrap();
    assert!(!healthy_live.contains("Analysis failures"), "{healthy_live}");

    server.shutdown();
    let engine = Arc::try_unwrap(engine).ok().expect("engine uniquely owned after server shutdown");
    let summary = engine.shutdown();
    assert_eq!(summary.reports.keys().collect::<Vec<_>>(), ["broken", "healthy"]);
    let broken = &summary.reports["broken"];
    assert!(broken.data.calls.is_empty());
    assert!(broken.failures.is_empty());
    assert_eq!(summary.errors.len(), 1);
    assert_eq!(
        (summary.errors[0].key.tenant.as_str(), summary.errors[0].error.as_str()),
        ("broken", "records for unknown session")
    );
    assert!(!summary.errors[0].belongs_to_call());
    assert_eq!(broken.render_all(), live, "the sealed report differs from the live read");
    assert_eq!(summary.reports["healthy"].render_all(), healthy_live);
    assert_eq!(summary.reports["healthy"].data.calls.len(), 1);
}

/// Drive `plan` on a fresh engine; when `read` is set, another thread
/// reads every tenant's report in a loop until the fleet has been driven
/// and at least one report was read.
fn drive(plan: &FleetPlan, read: bool) -> (ServiceSummary, usize) {
    let mut config = ServiceConfig::new(study(11));
    config.shards = 3;
    config.queue_capacity = 4;
    let engine = Engine::start(config);
    let done = AtomicBool::new(false);
    let reads = AtomicUsize::new(0);
    std::thread::scope(|s| {
        if read {
            s.spawn(|| {
                while !done.load(Ordering::Acquire) || reads.load(Ordering::Relaxed) == 0 {
                    for tenant in engine.tenants() {
                        let report = engine.tenant_report(&tenant).expect("a listed tenant reports");
                        assert!(report.failures.is_empty());
                        reads.fetch_add(1, Ordering::Relaxed);
                    }
                    std::thread::yield_now();
                }
            });
        }
        drive_fleet(&engine, plan, &opts()).expect("fleet drive");
        done.store(true, Ordering::Release);
    });
    assert!(engine.tenant_report("no-such-tenant").is_none());
    (engine.shutdown(), reads.into_inner())
}

#[test]
fn report_reads_mid_run_leave_the_final_summary_unchanged() {
    let plan = fleet(11);
    let (quiet, _) = drive(&plan, false);
    let (read, reads) = drive(&plan, true);
    assert!(reads > 0, "the reader never read a report");
    assert!(quiet.errors.is_empty() && read.errors.is_empty());
    assert_eq!((read.finished, read.evicted), (quiet.finished, quiet.evicted));
    assert_eq!(read.finished, plan.calls.len() as u64);
    assert_eq!(read.reports.keys().collect::<Vec<_>>(), quiet.reports.keys().collect::<Vec<_>>());
    for (tenant, report) in &quiet.reports {
        assert_eq!(read.reports[tenant].render_all(), report.render_all(), "tenant {tenant}");
    }
}
