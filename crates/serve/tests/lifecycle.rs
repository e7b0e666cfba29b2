//! Daemon lifecycle, end to end over real sockets: submit → stream →
//! dedup (byte-identical, zero simulation) → status/report → graceful
//! drain → restart served from the disk cache.

use fairness_bench::ReproOptions;
use fairness_serve::Server;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn test_opts(dir: &Path) -> ReproOptions {
    ReproOptions {
        repetitions: 60,
        system_repetitions: 4,
        seed: 7,
        results_dir: dir.to_path_buf(),
        with_system: false,
        // jobs = 1 keeps scenario progress events in index order, so the
        // NDJSON stream itself is byte-deterministic.
        jobs: 1,
        max_miners: 10,
        disk_cache: true,
    }
}

/// One request over a fresh connection; returns (status line, body).
/// Responses are close-delimited, so read-to-EOF is the framing.
fn request(addr: SocketAddr, method: &str, path: &str, body: &str) -> (String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .expect("send");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read");
    let (head, payload) = raw.split_once("\r\n\r\n").expect("head/body split");
    let status = head.lines().next().expect("status line").to_owned();
    (status, payload.to_owned())
}

fn metric(metrics_body: &str, name: &str) -> u64 {
    metrics_body
        .lines()
        .find_map(|l| l.strip_prefix(&format!("{name} ")))
        .unwrap_or_else(|| panic!("metric {name} missing from:\n{metrics_body}"))
        .trim()
        .parse()
        .expect("metric value")
}

fn spawn(server: &Arc<Server>) -> (SocketAddr, std::thread::JoinHandle<std::io::Result<()>>) {
    let addr = server.local_addr().expect("bound");
    let handle = {
        let server = Arc::clone(server);
        std::thread::spawn(move || server.run(|| false))
    };
    (addr, handle)
}

#[test]
fn daemon_lifecycle_end_to_end() {
    let dir = std::env::temp_dir().join("fairness-serve-lifecycle");
    let _ = std::fs::remove_dir_all(&dir);
    let scn = std::fs::read_to_string(
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/selfish_sweep.scn"),
    )
    .expect("example scenario file");

    let server = Server::bind("127.0.0.1:0", test_opts(&dir)).expect("bind ephemeral");
    let (addr, run_handle) = spawn(&server);

    // --- Submit the example sweep and stream its progress. ---
    let (status, first_body) = request(addr, "POST", "/v1/scenarios", &scn);
    assert_eq!(status, "HTTP/1.1 200 OK");
    let lines: Vec<&str> = first_body.lines().collect();
    assert!(lines[0].contains("\"event\":\"queued\""), "{first_body}");
    assert!(lines[0].contains("\"scenarios\":6"));
    assert!(lines[1].contains("\"event\":\"started\""));
    assert_eq!(
        lines
            .iter()
            .filter(|l| l.contains("\"event\":\"scenario\""))
            .count(),
        6,
        "one progress event per scenario: {first_body}"
    );
    assert!(lines.last().expect("lines").contains("\"event\":\"done\""));
    // Scenario events arrive in batch order at jobs = 1.
    let indices: Vec<&str> = lines
        .iter()
        .filter(|l| l.contains("\"event\":\"scenario\""))
        .map(|l| {
            let at = l.find("\"index\":").expect("index field") + "\"index\":".len();
            &l[at..at + 1]
        })
        .collect();
    assert_eq!(indices, ["0", "1", "2", "3", "4", "5"]);
    let job_fp = {
        let at = lines[0].find("\"job\":\"").expect("job field") + "\"job\":\"".len();
        lines[0][at..at + 16].to_owned()
    };
    let (_, metrics) = request(addr, "GET", "/metrics", "");
    let misses_after_first = metric(&metrics, "fairness_ensemble_cache_misses_total");
    assert!(misses_after_first > 0, "first run simulates");
    assert_eq!(metric(&metrics, "fairness_jobs_completed_total"), 1);

    // --- The tentpole contract: a repeat submission is answered from the
    // stored job — byte-identical stream, zero new simulation work. ---
    let (status, second_body) = request(addr, "POST", "/v1/scenarios", &scn);
    assert_eq!(status, "HTTP/1.1 200 OK");
    assert_eq!(
        second_body, first_body,
        "dedup replay must be byte-identical"
    );
    let (_, metrics) = request(addr, "GET", "/metrics", "");
    assert_eq!(metric(&metrics, "fairness_jobs_deduped_total"), 1);
    assert_eq!(
        metric(&metrics, "fairness_ensemble_cache_misses_total"),
        misses_after_first,
        "second submission performs zero simulation steps"
    );
    assert_eq!(metric(&metrics, "fairness_jobs_completed_total"), 1);

    // --- Job queries. ---
    let (status, body) = request(addr, "GET", &format!("/v1/jobs/{job_fp}"), "");
    assert_eq!(status, "HTTP/1.1 200 OK");
    assert!(body.contains("\"phase\":\"done\""), "{body}");
    assert!(body.contains("\"scenarios\":6"));
    let (status, report) = request(addr, "GET", &format!("/v1/jobs/{job_fp}/report"), "");
    assert_eq!(status, "HTTP/1.1 200 OK");
    assert!(report.contains("\"selfish a=0.25 gamma=0\""), "{report}");
    assert!(report.contains("fingerprint:"));
    let (status, replay) = request(addr, "GET", &format!("/v1/jobs/{job_fp}/events"), "");
    assert_eq!(status, "HTTP/1.1 200 OK");
    assert_eq!(replay, first_body, "event replay equals the live stream");
    let (status, body) = request(addr, "GET", "/v1/jobs/0000000000000bad", "");
    assert_eq!(status, "HTTP/1.1 404 Not Found");
    assert!(body.contains("unknown-job"));
    let (status, body) = request(addr, "POST", "/v1/scenarios", "scenario \"x\" {");
    assert_eq!(status, "HTTP/1.1 400 Bad Request");
    assert!(body.contains("\"code\":\"parse\""), "{body}");

    // --- Graceful drain: work submitted just before the drain still
    // completes before the process exits. ---
    let late = "scenario \"late straggler\" {\n\
                \x20 protocol = pow(w = 0.01)\n\
                \x20 shares = [0.3, 0.7]\n\
                \x20 checkpoints = linear(500, 5)\n\
                }\n";
    // Hold the straggler's stream open: read up to its `queued` event (so
    // the job is provably enqueued), *then* drain, then read the rest.
    let mut straggler = TcpStream::connect(addr).expect("connect");
    write!(
        straggler,
        "POST /v1/scenarios HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\n\r\n{late}",
        late.len()
    )
    .expect("send straggler");
    let mut late_raw = Vec::new();
    while !String::from_utf8_lossy(&late_raw).contains("\"event\":\"queued\"") {
        let mut chunk = [0u8; 512];
        let n = straggler.read(&mut chunk).expect("stream straggler");
        assert!(n > 0, "stream ended early: {late_raw:?}");
        late_raw.extend_from_slice(&chunk[..n]);
    }
    let (status, body) = request(addr, "POST", "/admin/drain", "");
    assert_eq!(status, "HTTP/1.1 200 OK");
    assert!(body.contains("\"draining\":true"));
    straggler
        .read_to_end(&mut late_raw)
        .expect("drain straggler stream");
    let late_body = String::from_utf8(late_raw).expect("utf8");
    assert!(late_body.starts_with("HTTP/1.1 200 OK"), "{late_body}");
    assert!(
        late_body
            .lines()
            .last()
            .expect("events")
            .contains("\"event\":\"done\""),
        "drained, not dropped: {late_body}"
    );
    run_handle
        .join()
        .expect("server thread")
        .expect("clean shutdown");
    let final_metrics = server.service().metrics();
    assert_eq!(final_metrics.queue_depth, 0, "drain leaves no queued jobs");
    assert_eq!(final_metrics.jobs_inflight, 0);
    assert_eq!(final_metrics.jobs_completed, 2);

    // No orphaned temp files in the cache spill after shutdown.
    let cache_dir = dir.join(".cache");
    let temps: Vec<_> = std::fs::read_dir(&cache_dir)
        .expect("cache dir exists")
        .map(|e| e.expect("entry").file_name())
        .filter(|n| n.to_string_lossy().contains(".tmp"))
        .collect();
    assert!(temps.is_empty(), "orphaned cache temporaries: {temps:?}");

    // --- Restart over the same results dir: a fresh process answers the
    // same submission from the disk layer, byte-identically. ---
    let server2 = Server::bind("127.0.0.1:0", test_opts(&dir)).expect("rebind");
    let (addr2, run_handle2) = spawn(&server2);
    let (status, third_body) = request(addr2, "POST", "/v1/scenarios", &scn);
    assert_eq!(status, "HTTP/1.1 200 OK");
    assert_eq!(
        third_body, first_body,
        "cross-restart replay is byte-identical"
    );
    let (_, metrics) = request(addr2, "GET", "/metrics", "");
    assert_eq!(
        metric(&metrics, "fairness_ensemble_disk_hits_total"),
        metric(&metrics, "fairness_ensemble_cache_misses_total"),
        "every ensemble served from the disk spill after restart"
    );
    server2.shutdown();
    run_handle2
        .join()
        .expect("server2 thread")
        .expect("clean shutdown");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn backpressure_and_routing_errors() {
    let dir = std::env::temp_dir().join("fairness-serve-errors");
    let _ = std::fs::remove_dir_all(&dir);
    let mut opts = test_opts(&dir);
    opts.disk_cache = false;
    let server = Server::bind("127.0.0.1:0", opts).expect("bind");
    let (addr, run_handle) = spawn(&server);

    let (status, body) = request(addr, "GET", "/nope", "");
    assert_eq!(status, "HTTP/1.1 404 Not Found");
    assert!(body.contains("unknown-route"));
    let (status, body) = request(addr, "GET", "/v1/jobs/zz", "");
    assert_eq!(status, "HTTP/1.1 400 Bad Request");
    assert!(body.contains("bad-fingerprint"));
    let (status, body) = request(addr, "POST", "/v1/scenarios", "");
    assert_eq!(status, "HTTP/1.1 400 Bad Request");
    assert!(body.contains("\"code\":\"parse\""), "{body}");
    assert!(body.contains("no scenarios found"), "{body}");

    // A spec that fails typed validation surfaces its kebab-case code.
    let dup = "scenario \"dup\" {\n\
               \x20 protocol = pow(w = 0.01, w = 0.02)\n\
               \x20 shares = [0.3, 0.7]\n\
               \x20 checkpoints = linear(500, 5)\n\
               }\n";
    let (status, body) = request(addr, "POST", "/v1/scenarios", dup);
    assert_eq!(status, "HTTP/1.1 400 Bad Request", "{body}");

    let (_, metrics) = request(addr, "GET", "/metrics", "");
    assert!(metrics.contains("fairness_http_requests_total{endpoint=\"GET /metrics\"}"));
    assert!(metrics.contains("fairness_http_requests_total{endpoint=\"not-found\"} 1"));

    server.shutdown();
    run_handle.join().expect("thread").expect("clean shutdown");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn requests_and_shutdown_have_no_poll_floor() {
    let dir = std::env::temp_dir().join("fairness-serve-latency");
    let _ = std::fs::remove_dir_all(&dir);
    let mut opts = test_opts(&dir);
    opts.disk_cache = false;
    let server = Server::bind("127.0.0.1:0", opts).expect("bind");
    let (addr, run_handle) = spawn(&server);

    // Each request connects only after the previous one finished, so a
    // timer-driven accept loop would add its full poll interval (20 ms)
    // to every one of them: 400 ms in all.
    let started = Instant::now();
    for _ in 0..20 {
        let (status, _) = request(addr, "GET", "/metrics", "");
        assert_eq!(status, "HTTP/1.1 200 OK");
    }
    let elapsed = started.elapsed();
    assert!(
        elapsed < Duration::from_millis(200),
        "20 sequential GET /metrics took {elapsed:?}"
    );

    let stopping = Instant::now();
    server.shutdown();
    run_handle.join().expect("thread").expect("clean shutdown");
    let elapsed = stopping.elapsed();
    assert!(
        elapsed < Duration::from_millis(100),
        "run() returned {elapsed:?} after shutdown()"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
