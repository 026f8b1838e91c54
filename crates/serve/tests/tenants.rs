//! Multi-tenant auth and fair-share scheduling.
//!
//! With tenants configured, compile endpoints demand an API key (401
//! without one) while read-only endpoints stay open. The fairness half
//! pits a greedy tenant flooding its quota against a light tenant's
//! single small compile: the light tenant must complete with bounded
//! queue wait (the greedy tenant's in-flight cap keeps a worker free,
//! and deficit-round-robin dispatch never buries the light lane), while
//! the greedy overflow bounces with a per-tenant `429` carrying a
//! `retry-after` hint.

use jsonkit::Value;
use serve::client::Client;
use serve::tenant::TenantConfig;
use serve::{start, ServeConfig, ServerHandle};
use std::net::SocketAddr;
use std::time::{Duration, Instant};

fn tenanted_server(solve_workers: usize) -> ServerHandle {
    start(ServeConfig {
        solve_workers,
        queue_capacity: 64,
        tenants: vec![
            // Greedy: one solve at a time, two queued.
            TenantConfig::parse("greedy:greedy-key:1:2").unwrap(),
            // Light: modest quotas it never exhausts.
            TenantConfig::parse("light:light-key:1:4").unwrap(),
        ],
        ..ServeConfig::default()
    })
    .expect("server starts")
}

fn shutdown(handle: &ServerHandle) {
    handle.shutdown();
    let t0 = Instant::now();
    handle.join();
    assert!(t0.elapsed() < Duration::from_secs(15), "join hung");
}

fn compile_with_key(
    addr: SocketAddr,
    key: &str,
    body: &str,
) -> (u16, Vec<(String, String)>, Value) {
    Client::connect(addr)
        .expect("connect")
        .with_api_key(key)
        .request_with_headers("POST", "/v1/compile", Some(body), &[])
        .expect("POST")
}

#[test]
fn compile_endpoints_require_api_keys_when_tenants_are_configured() {
    let handle = tenanted_server(1);
    let addr = handle.local_addr();
    let mut client = Client::connect(addr).unwrap();

    // No key → 401, wrong key → 401, for both compile endpoints.
    let (status, doc) = client
        .request("POST", "/v1/compile", Some(r#"{"modes": 2}"#))
        .unwrap();
    assert_eq!(status, 401, "{}", doc.to_json());
    let (status, _) = client
        .request("POST", "/v1/compile-batch", Some(r#"{"modes": [2]}"#))
        .unwrap();
    assert_eq!(status, 401);
    let (status, _, _) = Client::connect(addr)
        .unwrap()
        .with_api_key("wrong")
        .request_with_headers("POST", "/v1/compile", Some(r#"{"modes": 2}"#), &[])
        .unwrap();
    assert_eq!(status, 401);
    assert!(handle.metrics().auth_failures.get() >= 3);

    // Read-only endpoints stay open.
    assert_eq!(client.request("GET", "/healthz", None).unwrap().0, 200);
    assert_eq!(client.request_text("GET", "/metrics", None).unwrap().0, 200);

    // `authorization: Bearer` works as well as `x-api-key`.
    let (status, _, doc) = Client::connect(addr)
        .unwrap()
        .request_with_headers(
            "POST",
            "/v1/compile",
            Some(r#"{"modes": 2, "deadline_ms": 60000}"#),
            &[("Authorization", "Bearer light-key")],
        )
        .unwrap();
    assert_eq!(status, 200, "{}", doc.to_json());

    // The per-tenant metrics surface shows who did what.
    let (_, metrics) = client.request("GET", "/metrics?format=json", None).unwrap();
    let tenants = metrics.get("tenants").expect("tenants object");
    let light = tenants.get("light").expect("light tenant");
    assert!(light.get("admitted").unwrap().as_usize().unwrap() >= 1);
    assert!(tenants.get("greedy").is_some());

    shutdown(&handle);
}

#[test]
fn greedy_tenant_cannot_starve_the_light_tenant() {
    // Two workers, but greedy's max_in_flight=1 pins it to one of them:
    // however hard greedy floods, a worker stays reachable for light.
    let handle = tenanted_server(2);
    let addr = handle.local_addr();

    // Greedy saturates: four *distinct* slow problems against quotas of
    // 1 in-flight + 2 queued. At least one must bounce with 429.
    let greedy_bodies = [
        r#"{"modes": 7, "deadline_ms": 60000}"#,
        r#"{"modes": 7, "vacuum_condition": false, "deadline_ms": 60000}"#,
        r#"{"modes": 6, "deadline_ms": 60000}"#,
        r#"{"modes": 6, "vacuum_condition": false, "deadline_ms": 60000}"#,
    ];
    let (results, light_elapsed, light_status, light_doc) = std::thread::scope(|scope| {
        let flood: Vec<_> = greedy_bodies
            .iter()
            .map(|body| scope.spawn(move || compile_with_key(addr, "greedy-key", body)))
            .collect();
        // Wait until greedy genuinely saturated its quotas (1 solving,
        // 2 queued, 1 bounced) before timing the light tenant.
        assert!(
            handle
                .metrics()
                .wait_for(Duration::from_secs(20), |m| m.tenant_rejections.get() >= 1),
            "greedy overflow never got a per-tenant 429"
        );
        let t0 = Instant::now();
        let (status, _, doc) =
            compile_with_key(addr, "light-key", r#"{"modes": 2, "deadline_ms": 30000}"#);
        let light_elapsed = t0.elapsed();
        // Shut down *before* joining the flood: greedy's 60 s solves are
        // cancelled and answer best-so-far instead of blocking the test.
        shutdown(&handle);
        let results: Vec<_> = flood.into_iter().map(|h| h.join().unwrap()).collect();
        (results, light_elapsed, status, doc)
    });

    assert_eq!(light_status, 200, "{}", light_doc.to_json());
    assert_eq!(
        light_doc.get("status").unwrap().as_str(),
        Some("optimal"),
        "{}",
        light_doc.to_json()
    );
    assert!(
        light_elapsed < Duration::from_secs(10),
        "light tenant starved behind the greedy flood: {light_elapsed:?}"
    );

    // The greedy overflow got per-tenant 429s with a retry hint; nothing
    // else leaked out of the quota (200/503 once shutdown cancels).
    let rejected: Vec<_> = results.iter().filter(|(s, _, _)| *s == 429).collect();
    assert!(
        !rejected.is_empty(),
        "greedy overflow must bounce with 429: {:?}",
        results.iter().map(|(s, _, _)| *s).collect::<Vec<_>>()
    );
    for (_, headers, doc) in &rejected {
        assert!(
            headers.iter().any(|(k, _)| k == "retry-after"),
            "429 must carry retry-after: {}",
            doc.to_json()
        );
        let error = doc.get("error").unwrap().as_str().unwrap();
        assert!(
            error.contains("greedy") && error.contains("quota"),
            "the 429 names the tenant and its quota: {error}"
        );
    }
    assert!(handle.metrics().tenant_rejections.get() >= 1);
}

#[test]
fn open_mode_still_serves_keyless_requests() {
    // No tenants configured → the pre-tenancy contract: keyless compiles
    // work, and /metrics has no tenant families.
    let handle = start(ServeConfig::default()).expect("server starts");
    let addr = handle.local_addr();
    let mut client = Client::connect(addr).unwrap();
    let (status, doc) = client
        .request(
            "POST",
            "/v1/compile",
            Some(r#"{"modes": 2, "deadline_ms": 60000}"#),
        )
        .unwrap();
    assert_eq!(status, 200, "{}", doc.to_json());
    // Open mode exports exactly one per-tenant series: the anonymous
    // tenant that accounts for all keyless traffic.
    let (_, text) = client.request_text("GET", "/metrics", None).unwrap();
    let admitted_series: Vec<&str> = text
        .lines()
        .filter(|l| l.starts_with("serve_tenant_admitted_total{"))
        .collect();
    assert_eq!(
        admitted_series,
        vec![r#"serve_tenant_admitted_total{tenant="anonymous"} 1"#],
        "open mode accounts all traffic to the anonymous tenant"
    );
    shutdown(&handle);
}
