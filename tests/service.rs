//! Multi-tenant query service: concurrency soak, admission caps,
//! graceful shutdown, fairness, and per-tenant metrics isolation.
//!
//! Tests that need particular queries in one window stage them behind
//! `QueryService::hold()`: submit while the dispatcher is held, release,
//! and the backlog leaves as deterministic windows. Nothing here sleeps
//! or relies on a timer to form a window.
#![allow(clippy::unwrap_used, clippy::panic)]

use std::sync::Arc;
use std::time::Duration;

use fusion_engine::Session;
use fusion_service::{AdmissionConfig, QueryService, ServiceConfig, TenantConfig, TenantId};
use fusion_tpcds::{all_queries, generate_catalog, TpcdsConfig};

const SCALE: f64 = 0.05;

fn tpcds_session() -> Session {
    let cfg = TpcdsConfig::with_scale(SCALE);
    let mut session = Session::new();
    for table in generate_catalog(&cfg).into_tables() {
        session.register_table(table);
    }
    session
}

fn start_service(config: ServiceConfig) -> QueryService {
    QueryService::start(Arc::new(tpcds_session()), config)
}

fn sql_of(id: &str) -> String {
    all_queries()
        .into_iter()
        .find(|q| q.id == id)
        .unwrap_or_else(|| panic!("unknown query {id}"))
        .sql
}

#[test]
fn two_tenants_share_one_window() {
    let service = start_service(ServiceConfig {
        admission: AdmissionConfig {
            max_window_queries: 2,
            ..AdmissionConfig::default()
        },
        ..ServiceConfig::default()
    });
    let sql = sql_of("C42");
    let acme = service.client("acme");
    let blox = service.client("blox");
    let hold = service.hold();
    let t1 = acme.submit(sql.clone()).unwrap();
    let t2 = blox.submit(sql).unwrap();
    drop(hold);
    let r1 = t1.wait().unwrap();
    let r2 = t2.wait().unwrap();
    assert_eq!(r1.rows, r2.rows);
    let snap = service.service_metrics();
    assert_eq!(snap.queries_admitted, 2);
    assert_eq!(snap.windows_dispatched, 1);
    assert!(
        snap.queries_coalesced_shared >= 1,
        "identical queries in one window must share: {snap:?}"
    );
    let report = service.service_report();
    assert!(report.contains("-- service --"), "report:\n{report}");
    assert!(report.contains("tenant acme:"), "report:\n{report}");
    assert!(report.contains("tenant blox:"), "report:\n{report}");
}

#[test]
fn queue_cap_rejects_typed() {
    let service = start_service(
        ServiceConfig::default().with_tenant(
            "capped",
            TenantConfig {
                max_queued: 2,
                ..TenantConfig::default()
            },
        ),
    );
    let sql = sql_of("C42");
    let client = service.client("capped");
    // Nothing dispatches while we overfill.
    let hold = service.hold();
    let _t1 = client.submit(sql.clone()).unwrap();
    let _t2 = client.submit(sql.clone()).unwrap();
    let err = client.submit(sql.clone()).unwrap_err();
    assert_eq!(err.code().as_str(), "FUSION_ADMISSION_REJECTED");
    assert!(!err.is_retryable());
    assert!(!err.allows_fallback());
    // An uncapped tenant is unaffected by the capped tenant's backlog.
    let other = service.client("roomy");
    other.submit(sql).unwrap();
    assert_eq!(service.service_metrics().queries_rejected, 1);
    let tenant = service
        .tenant_metrics(&TenantId::new("capped"))
        .unwrap();
    assert_eq!(tenant.queries_rejected, 1);
    drop(hold);
    service.shutdown();
}

#[test]
fn memory_budget_rejects_typed() {
    let service = start_service(
        ServiceConfig {
            per_query_memory_cost: 1 << 20,
            ..ServiceConfig::default()
        }
        .with_tenant(
            "frugal",
            TenantConfig {
                // Budget fits exactly two outstanding queries.
                memory_budget: Some(2 << 20),
                ..TenantConfig::default()
            },
        ),
    );
    let sql = sql_of("C42");
    let client = service.client("frugal");
    let hold = service.hold();
    let _t1 = client.submit(sql.clone()).unwrap();
    let _t2 = client.submit(sql.clone()).unwrap();
    let err = client.submit(sql).unwrap_err();
    assert_eq!(err.code().as_str(), "FUSION_ADMISSION_REJECTED");
    assert!(err.to_string().contains("memory budget"), "{err}");
    drop(hold);
    service.shutdown();
}

#[test]
fn graceful_shutdown_drains_every_waiter() {
    let service = start_service(ServiceConfig {
        admission: AdmissionConfig {
            max_window_queries: 4,
            ..AdmissionConfig::default()
        },
        ..ServiceConfig::default()
    });
    let sql = sql_of("C42");
    let mut tickets = Vec::new();
    let hold = service.hold();
    for i in 0..12 {
        let client = service.client(if i % 2 == 0 { "even" } else { "odd" });
        tickets.push(client.submit(sql.clone()).unwrap());
    }
    // Shutdown follows the release at once: whatever is still parked
    // when the queue closes must drain.
    drop(hold);
    service.shutdown();
    // Every waiter gets a response — none lost, none hung.
    for ticket in tickets {
        ticket.wait().unwrap();
    }
    assert_eq!(service.service_metrics().windows_dispatched, 3);
    // Post-shutdown admissions are refused, typed.
    let err = service.client("late").submit(sql).unwrap_err();
    assert_eq!(err.code().as_str(), "FUSION_ADMISSION_REJECTED");
    assert_eq!(service.queued_total(), 0);
}

#[test]
fn soak_mixed_tenants_bit_identical_to_standalone() {
    // Reference answers from an isolated session, one query at a time.
    let reference = tpcds_session();
    let queries: Vec<String> = ["INTRO", "C03", "C07", "C42", "C52", "C55"]
        .iter()
        .map(|id| sql_of(id))
        .collect();
    let expected: Vec<_> = queries
        .iter()
        .map(|sql| reference.sql(sql).unwrap().rows)
        .collect();

    let service = Arc::new(start_service(ServiceConfig {
        admission: AdmissionConfig {
            max_window_queries: 8,
            ..AdmissionConfig::default()
        },
        ..ServiceConfig::default()
    }));
    let threads: Vec<_> = (0..6)
        .map(|t| {
            let service = Arc::clone(&service);
            let queries = queries.clone();
            let expected = expected.clone();
            std::thread::spawn(move || {
                let client = service.client(format!("tenant-{}", t % 3).as_str());
                for round in 0..3 {
                    let i = (t + round) % queries.len();
                    let result = client.query(queries[i].clone()).unwrap();
                    assert_eq!(
                        result.rows, expected[i],
                        "thread {t} round {round} query {i} diverged from standalone"
                    );
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
    let snap = service.service_metrics();
    assert_eq!(snap.queries_admitted, 18);
    assert!(snap.windows_dispatched >= 1);
    // Mean occupancy > 1 proves real coalescing happened under load.
    assert!(
        snap.window_occupancy > snap.windows_dispatched,
        "no window carried more than one query: {snap:?}"
    );
    service.shutdown();
}

#[test]
fn soak_with_seeded_faults_keeps_errors_in_their_slot() {
    let mut session = tpcds_session();
    session.set_fault_policy(fusion_exec::FaultPolicy::transient(7, 0.05));
    session.set_retry_policy(fusion_exec::RetryPolicy::none());
    let service = Arc::new(QueryService::start(
        Arc::new(session),
        ServiceConfig {
            admission: AdmissionConfig {
                max_window_queries: 6,
                ..AdmissionConfig::default()
            },
            ..ServiceConfig::default()
        },
    ));
    let reference = tpcds_session();
    let sql = sql_of("C42");
    let expected = reference.sql(&sql).unwrap().rows;
    let threads: Vec<_> = (0..4)
        .map(|t| {
            let service = Arc::clone(&service);
            let sql = sql.clone();
            let expected = expected.clone();
            std::thread::spawn(move || {
                let client = service.client(format!("t{t}").as_str());
                let mut failures = 0usize;
                for _ in 0..4 {
                    match client.query(sql.clone()) {
                        // A success must be bit-identical to standalone.
                        Ok(r) => assert_eq!(r.rows, expected),
                        // A failure must be typed, never a poisoned slot.
                        Err(e) => {
                            assert!(!e.code().as_str().is_empty());
                            failures += 1;
                        }
                    }
                }
                failures
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
    service.shutdown();
}

#[test]
fn weighted_fair_packing_prevents_starvation() {
    let service = start_service(
        ServiceConfig {
            admission: AdmissionConfig {
                max_window_queries: 4,
                ..AdmissionConfig::default()
            },
            ..ServiceConfig::default()
        }
        .with_tenant(
            "chatty",
            TenantConfig {
                max_inflight: 2,
                ..TenantConfig::default()
            },
        ),
    );
    let sql = sql_of("C42");
    let chatty = service.client("chatty");
    let quiet = service.client("quiet");
    let mut tickets = Vec::new();
    let hold = service.hold();
    for _ in 0..6 {
        tickets.push(chatty.submit(sql.clone()).unwrap());
    }
    tickets.push(quiet.submit(sql.clone()).unwrap());
    drop(hold);
    for ticket in tickets {
        ticket.wait().unwrap();
    }
    // The chatty tenant was capped at 2 slots per window, so its 6
    // queries needed 3 windows; quiet's single query rode along in the
    // first.
    let snap = service.service_metrics();
    assert_eq!(snap.windows_dispatched, 3, "{snap:?}");
    let quiet_metrics = service.tenant_metrics(&TenantId::new("quiet")).unwrap();
    assert_eq!(quiet_metrics.queries_admitted, 1);
    service.shutdown();
}

#[test]
fn tenant_metrics_are_isolated_per_tenant_and_window() {
    let service = start_service(ServiceConfig {
        admission: AdmissionConfig {
            max_window_queries: 2,
            ..AdmissionConfig::default()
        },
        ..ServiceConfig::default()
    });
    // The light query touches only time_dim, which the heavy C42 join
    // never reads — so the tenants' scan volumes cannot mix.
    let light_sql = "SELECT COUNT(*) AS n FROM time_dim";
    let mut solo = tpcds_session();
    solo.set_reuse_enabled(false);
    let light_solo = solo.sql(light_sql).unwrap().metrics;

    let heavy = service.client("heavy");
    let light = service.client("light");
    let hold = service.hold();
    let t1 = heavy.submit(sql_of("C42")).unwrap();
    let t2 = light.submit(light_sql).unwrap();
    drop(hold);
    let heavy_rows = t1.wait().unwrap();
    t2.wait().unwrap();
    assert!(!heavy_rows.rows.is_empty());

    let heavy_window = service
        .tenant_window_metrics(&TenantId::new("heavy"))
        .unwrap();
    let light_window = service
        .tenant_window_metrics(&TenantId::new("light"))
        .unwrap();
    // The dashboards never see another tenant's counters: the light
    // tenant's window delta is exactly its own standalone scan volume,
    // none of heavy's.
    assert!(heavy_window.bytes_scanned > light_window.bytes_scanned);
    assert_eq!(light_window.bytes_scanned, light_solo.bytes_scanned);
    let light_cumulative = service.tenant_metrics(&TenantId::new("light")).unwrap();
    assert_eq!(light_cumulative.bytes_scanned, light_solo.bytes_scanned);
    assert_eq!(light_cumulative.queries_admitted, 1);
    // Both tenants were in the same window.
    assert_eq!(service.service_metrics().windows_dispatched, 1);
    service.shutdown();
}

#[test]
fn lone_query_on_idle_service_runs_at_once() {
    // `max_window_wait` is read by nothing: a lone query is a one-query
    // window the moment it arrives, not after 30 s.
    let service = start_service(ServiceConfig {
        admission: AdmissionConfig {
            max_window_wait: Duration::from_secs(30),
            ..AdmissionConfig::default()
        },
        ..ServiceConfig::default()
    });
    let (tx, rx) = std::sync::mpsc::channel();
    let client = service.client("solo");
    let worker = std::thread::spawn(move || {
        let _ = tx.send(client.query("SELECT COUNT(*) AS n FROM time_dim"));
    });
    // A watchdog, not a stage: far above the query's cost, far below 30 s.
    let result = rx
        .recv_timeout(Duration::from_secs(5))
        .expect("a lone query waited on a timer");
    assert_eq!(result.unwrap().rows.len(), 1);
    worker.join().unwrap();
    let snap = service.service_metrics();
    assert_eq!((snap.windows_dispatched, snap.window_occupancy), (1, 1));
    service.shutdown();
}

#[test]
fn staged_backlog_leaves_in_full_windows_and_coalesces_repeats() {
    let service = start_service(ServiceConfig::default());
    let sql = sql_of("C42");
    let clients: Vec<_> = (0..4).map(|t| service.client(format!("t{t}").as_str())).collect();
    const N: usize = 20;
    let hold = service.hold();
    let tickets: Vec<_> = (0..N)
        .map(|i| clients[i % 4].submit(sql.clone()).unwrap())
        .collect();
    assert_eq!(service.queued_total(), N);
    drop(hold);
    let expected = tpcds_session().sql(&sql).unwrap().rows;
    for ticket in tickets {
        assert_eq!(ticket.wait().unwrap().rows, expected);
    }
    // 20 parked = windows of 8, 8, 4. The first executes the repeated
    // plan once for all eight and admits it; the other two are warm hits.
    let snap = service.service_metrics();
    assert_eq!(snap.windows_dispatched as usize, N.div_ceil(8));
    assert_eq!(snap.window_occupancy as usize, N);
    assert_eq!(snap.queries_coalesced_shared as usize, N);
    assert_eq!(service.execution_metrics().shared_subplans_executed, 1);
    service.shutdown();
}

#[test]
fn session_queue_api_remains_a_one_tenant_wrapper() {
    // Satellite 1: `Session::enqueue`/`run_queued` rides the same
    // AdmissionQueue implementation the service uses.
    let session = tpcds_session();
    let sql = sql_of("C42");
    session.enqueue(sql.clone());
    session.enqueue(sql);
    assert_eq!(session.queued_len(), 2);
    let batch = session.run_queued().unwrap();
    assert_eq!(batch.results.len(), 2);
    assert_eq!(session.queued_len(), 0);
    assert!(batch.results.iter().all(|r| r.is_ok()));
}

#[test]
fn wire_adapter_serves_two_tenants_over_tcp() {
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpStream;

    let service = Arc::new(start_service(ServiceConfig {
        admission: AdmissionConfig {
            max_window_queries: 2,
            ..AdmissionConfig::default()
        },
        ..ServiceConfig::default()
    }));
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let _server = fusion_service::wire::serve(Arc::clone(&service), listener);

    let run_client = |tenant: &'static str| {
        let service_sql = "SELECT COUNT(*) AS n FROM time_dim";
        std::thread::spawn(move || {
            let stream = TcpStream::connect(addr).unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut writer = stream;
            writeln!(writer, "TENANT {tenant}").unwrap();
            let mut line = String::new();
            reader.read_line(&mut line).unwrap(); // OK 0
            line.clear();
            reader.read_line(&mut line).unwrap(); // .
            writeln!(writer, "{service_sql}").unwrap();
            line.clear();
            reader.read_line(&mut line).unwrap();
            assert!(line.starts_with("OK 1"), "got {line:?}");
            line.clear();
            reader.read_line(&mut line).unwrap();
            assert!(!line.trim().is_empty());
            line.clear();
            reader.read_line(&mut line).unwrap(); // end-of-result marker
            assert_eq!(line.trim(), ".");
            writeln!(writer, "QUIT").unwrap();
        })
    };
    let a = run_client("acme");
    let b = run_client("blox");
    a.join().unwrap();
    b.join().unwrap();
    assert_eq!(service.service_metrics().queries_admitted, 2);
    service.shutdown();
}
