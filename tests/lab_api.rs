//! End-to-end tests of the pdc-lab HTTP API over real sockets: duplicate
//! coalescing (one execution, N byte-identical responses), deadline
//! handling (typed `timed_out`, never a hung request), preemption, and
//! tenant policy installation.

use pdc_lab::api::{JobInfo, RunRequest, ServerStats};
use pdc_lab::http;
use pdc_lab::runner::RunResult;
use pdc_lab::server::{self, LabConfig, LabHandle};
use std::net::SocketAddr;
use std::time::{Duration, Instant};

const CLIENT_TIMEOUT: Duration = Duration::from_secs(120);

fn spawn_lab(executors: usize) -> LabHandle {
    server::start(LabConfig {
        addr: "127.0.0.1:0".into(),
        executors,
        http_workers: 8,
        cache_dir: None,
        deadline_ms: 60_000,
        ..LabConfig::default()
    })
    .expect("bind lab server")
}

/// A request slow enough (tens to hundreds of ms of real compute) that
/// concurrent duplicates reliably overlap with the first execution.
fn slow_request(seed: u64) -> RunRequest {
    let mut req = RunRequest::new("distance", 4096, 4);
    req.seed = Some(seed);
    req
}

fn post(addr: SocketAddr, path: &str, body: &str) -> http::Response {
    http::request(addr, "POST", path, body, CLIENT_TIMEOUT).expect("request")
}

fn get_stats(addr: SocketAddr) -> ServerStats {
    let resp = http::request(addr, "GET", "/stats", "", CLIENT_TIMEOUT).expect("stats");
    serde_json::from_str(&resp.body).expect("stats body")
}

fn get_job(addr: SocketAddr, id: u64) -> JobInfo {
    let resp =
        http::request(addr, "GET", &format!("/jobs/{id}"), "", CLIENT_TIMEOUT).expect("job get");
    assert_eq!(resp.status, 200, "body: {}", resp.body);
    serde_json::from_str(&resp.body).expect("job info body")
}

fn submit_async(addr: SocketAddr, req: &RunRequest) -> u64 {
    let body = serde_json::to_string(req).expect("serialize");
    let resp = post(addr, "/jobs", &body);
    assert_eq!(resp.status, 202, "body: {}", resp.body);
    resp.header("x-pdc-job")
        .expect("job header")
        .parse()
        .expect("job id")
}

fn wait_status(addr: SocketAddr, id: u64, want: &[&str], budget: Duration) -> JobInfo {
    let deadline = Instant::now() + budget;
    loop {
        let info = get_job(addr, id);
        if want.contains(&info.status.as_str()) {
            return info;
        }
        assert!(
            Instant::now() < deadline,
            "job {id} stuck in '{}' (wanted one of {want:?})",
            info.status
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn concurrent_duplicates_coalesce_onto_one_execution() {
    let lab = spawn_lab(1);
    let addr = lab.addr();
    let body = serde_json::to_string(&slow_request(1)).expect("serialize");

    let clients: Vec<_> = (0..4)
        .map(|_| {
            let body = body.clone();
            std::thread::spawn(move || post(addr, "/run", &body))
        })
        .collect();
    let responses: Vec<http::Response> = clients
        .into_iter()
        .map(|c| c.join().expect("client"))
        .collect();

    for resp in &responses {
        assert_eq!(resp.status, 200, "body: {}", resp.body);
        assert_eq!(
            resp.body, responses[0].body,
            "every duplicate gets the same bytes"
        );
    }
    let stats = get_stats(addr);
    assert_eq!(stats.runs_executed, 1, "four requests, ONE execution");
    assert_eq!(stats.cache_misses, 1);
    assert_eq!(
        stats.cache_hits + stats.coalesced,
        3,
        "the three duplicates were served without running: {stats:?}"
    );
}

#[test]
fn a_job_queued_past_its_deadline_times_out_with_a_diagnosis() {
    let lab = spawn_lab(1);
    let addr = lab.addr();

    // Occupy the only executor slot.
    let blocker = submit_async(addr, &slow_request(2));
    wait_status(addr, blocker, &["running", "done"], Duration::from_secs(30));

    // This one can never start in time.
    let mut starved = RunRequest::new("ring", 64, 4);
    starved.deadline_ms = Some(1);
    let starved_id = submit_async(addr, &starved);
    let info = wait_status(addr, starved_id, &["timed_out"], Duration::from_secs(30));
    let error = info.error.expect("timed-out jobs carry a diagnosis");
    assert!(error.contains("deadline"), "{error}");
    assert!(error.contains("queued"), "{error}");

    // The blocker itself is unharmed.
    let info = wait_status(addr, blocker, &["done"], Duration::from_secs(60));
    assert_eq!(info.status, "done");
}

#[test]
fn a_running_job_past_its_deadline_is_killed_not_hung() {
    let lab = spawn_lab(1);
    let addr = lab.addr();
    // Several hundred ms of compute, 30ms budget: the watchdog must kill
    // it and the (synchronous!) request must still come back.
    let mut req = slow_request(3);
    req.size = 8192;
    req.deadline_ms = Some(30);
    let body = serde_json::to_string(&req).expect("serialize");
    let resp = post(addr, "/run", &body);
    assert_eq!(resp.status, 504, "body: {}", resp.body);
    assert_eq!(resp.header("x-pdc-status"), Some("timed_out"));
    assert!(
        resp.body.contains("watchdog") || resp.body.contains("deadline"),
        "diagnosis names the killer: {}",
        resp.body
    );
    let stats = get_stats(addr);
    assert_eq!(stats.timed_out, 1);
    // A timed-out run is transient: the identity must not be poisoned.
    let retry_stats = get_stats(addr);
    assert_eq!(retry_stats.cache_hits, 0);
}

#[test]
fn a_high_priority_tenant_preempts_a_running_job() {
    let lab = spawn_lab(1);
    let addr = lab.addr();
    let resp = http::request(
        addr,
        "PUT",
        "/tenants/vip",
        "{\"priority\": 1000, \"weight\": 4.0}",
        CLIENT_TIMEOUT,
    )
    .expect("tenant put");
    assert_eq!(resp.status, 200, "body: {}", resp.body);

    let victim = submit_async(addr, &slow_request(4));
    wait_status(addr, victim, &["running"], Duration::from_secs(30));

    let mut vip_req = slow_request(5);
    vip_req.tenant = Some("vip".into());
    let vip = submit_async(addr, &vip_req);

    // The vip job finishes first even though it arrived second; the
    // victim restarts from scratch and still completes.
    let vip_info = wait_status(addr, vip, &["done"], Duration::from_secs(60));
    assert_eq!(vip_info.status, "done");
    let victim_info = wait_status(addr, victim, &["done"], Duration::from_secs(60));
    assert_eq!(victim_info.status, "done");
    assert!(
        victim_info.preemptions >= 1,
        "the victim was displaced at least once: {victim_info:?}"
    );
    assert!(get_stats(addr).preemptions >= 1);
}

#[test]
fn bad_requests_get_typed_errors_not_hangs() {
    let lab = spawn_lab(1);
    let addr = lab.addr();
    // Unknown module.
    let resp = post(
        addr,
        "/run",
        "{\"module\":\"warp\",\"size\":64,\"ranks\":4}",
    );
    assert_eq!(resp.status, 400);
    assert!(resp.body.contains("unknown module"), "{}", resp.body);
    // proc backend is refused with an explanation.
    let mut req = RunRequest::new("ring", 64, 4);
    req.backend = Some("proc".into());
    let resp = post(
        addr,
        "/run",
        &serde_json::to_string(&req).expect("serialize"),
    );
    assert_eq!(resp.status, 400);
    assert!(resp.body.contains("proc"), "{}", resp.body);
    // Garbage body.
    let resp = post(addr, "/run", "{not json");
    assert_eq!(resp.status, 400);
    // Unknown route.
    let resp = http::request(addr, "GET", "/nope", "", CLIENT_TIMEOUT).expect("request");
    assert_eq!(resp.status, 404);
}

#[test]
fn sort_on_more_ranks_than_histogram_bins_completes() {
    // The lab sorts with 16 histogram bins; worlds wider than that take
    // one bin per rank instead of failing a rank.
    let lab = spawn_lab(1);
    let addr = lab.addr();
    for ranks in [32u64, 64] {
        let req = RunRequest::new("sort", 4096, ranks);
        let resp = post(
            addr,
            "/run",
            &serde_json::to_string(&req).expect("serialize"),
        );
        assert_eq!(resp.status, 200, "{ranks} ranks: {}", resp.body);
        let result: RunResult = serde_json::from_str(&resp.body).expect("result body");
        assert_eq!(result.status, "done", "{ranks} ranks: {:?}", result.error);
        assert_eq!(result.values.len() as u64, ranks);
        // Each rank reports how many keys it kept, or -1 when its bucket
        // came out unordered; the kept counts conserve the input.
        assert!(result.values.iter().all(|&kept| kept >= 0.0), "ordered");
        let kept: f64 = result.values.iter().sum();
        assert_eq!(kept, 4096.0, "{ranks} ranks keep every key");
    }
}

#[test]
fn artifacts_are_served_per_job_after_completion() {
    let lab = spawn_lab(2);
    let addr = lab.addr();
    let id = submit_async(addr, &RunRequest::new("stencil", 256, 8));
    wait_status(addr, id, &["done"], Duration::from_secs(60));
    for artifact in ["result", "profile", "report", "trace"] {
        let resp = http::request(
            addr,
            "GET",
            &format!("/jobs/{id}/{artifact}"),
            "",
            CLIENT_TIMEOUT,
        )
        .expect("artifact get");
        assert_eq!(resp.status, 200, "{artifact}: {}", resp.body);
        assert!(!resp.body.is_empty(), "{artifact} has content");
    }
    let resp = http::request(addr, "GET", &format!("/jobs/{id}/nope"), "", CLIENT_TIMEOUT)
        .expect("bad artifact");
    assert_eq!(resp.status, 404);
}

#[test]
fn shutdown_drains_gracefully() {
    let mut lab = spawn_lab(1);
    let addr = lab.addr();
    let id = submit_async(addr, &slow_request(6));
    let resp = post(addr, "/shutdown", "");
    assert_eq!(resp.status, 200);
    // New work is refused while draining...
    let refused = post(
        addr,
        "/run",
        &serde_json::to_string(&RunRequest::new("ring", 64, 4)).expect("serialize"),
    );
    assert_eq!(refused.status, 503);
    // ...but the in-flight job still completes before the server exits.
    lab.shutdown();
    let stats = lab.stats();
    assert_eq!(stats.done, 1, "queued job {id} completed during drain");
    assert_eq!(stats.waiting, 0);
    assert_eq!(stats.running, 0);
}
