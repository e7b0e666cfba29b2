#![warn(missing_docs)]

//! # fairness-serve
//!
//! Fairness-as-a-service: a resident daemon over the
//! [`fairness_bench::service::SweepService`] scheduling API. Clients POST
//! `.scn` scenario files — the existing text format **is** the wire
//! format — and get back an NDJSON progress stream; finished reports are
//! answered from the shared sweep cache (in-memory within a process,
//! disk spill across restarts), so a repeated submission performs **zero
//! simulation work** and returns a byte-identical stream.
//!
//! | Endpoint | Meaning |
//! |---|---|
//! | `POST /v1/scenarios` | submit a `.scn` body; streams NDJSON events |
//! | `GET /v1/jobs/:fp` | job status (phase, scenarios, event count) |
//! | `GET /v1/jobs/:fp/events` | replay the full event stream |
//! | `GET /v1/jobs/:fp/report` | the finished text report |
//! | `DELETE /v1/jobs/:fp` | request cancellation |
//! | `GET /metrics` | Prometheus text: service + HTTP counters |
//! | `POST /admin/drain` | finish queued work, then shut down |
//!
//! The daemon is built on `std::net` alone: the offline dependency
//! policy (see the workspace README) rules out hyper/axum, and the
//! HTTP/1.1 subset in [`http`] is all it needs.

pub mod http;

use fairness_bench::service::{SubmitError, SweepJob, SweepService};
use fairness_bench::ReproOptions;
use fairness_core::scenario::text::parse_scenarios;
use std::collections::BTreeMap;
use std::io::{self, Write};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use http::{read_request, write_response, write_stream_head, ParseError, Request};

/// Backstop for the accept loop's readiness wait. Connections and
/// [`Server::shutdown`] wake the loop at once; only a stop request that
/// arrives without a wake-up (the SIGTERM flag, set by a signal handler
/// that may run on any thread) waits out this timeout before it is seen.
const ACCEPT_POLL: Duration = Duration::from_millis(20);
/// Granularity of the event-stream wait (bounds how late a terminal
/// event can be noticed, not how early).
const STREAM_POLL: Duration = Duration::from_millis(250);

/// The resident daemon: a [`SweepService`], a listener, and per-endpoint
/// request counters.
#[derive(Debug)]
pub struct Server {
    service: SweepService,
    listener: TcpListener,
    shutdown: AtomicBool,
    http_requests: Mutex<BTreeMap<&'static str, u64>>,
}

impl Server {
    /// Binds `addr` (use port `0` for an ephemeral port) and builds the
    /// service from `opts` — same cache/pool wiring as the `repro` CLI.
    ///
    /// # Errors
    /// Any socket bind failure.
    pub fn bind<A: ToSocketAddrs>(addr: A, opts: ReproOptions) -> io::Result<Arc<Self>> {
        Self::bind_with_queue(addr, opts, fairness_bench::service::DEFAULT_QUEUE_CAPACITY)
    }

    /// Like [`bind`](Self::bind) with an explicit submission-queue bound.
    ///
    /// # Errors
    /// Any socket bind failure.
    pub fn bind_with_queue<A: ToSocketAddrs>(
        addr: A,
        opts: ReproOptions,
        queue_capacity: usize,
    ) -> io::Result<Arc<Self>> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        Ok(Arc::new(Self {
            service: SweepService::with_queue_capacity(opts, queue_capacity),
            listener,
            shutdown: AtomicBool::new(false),
            http_requests: Mutex::new(BTreeMap::new()),
        }))
    }

    /// The bound address (read the ephemeral port here).
    ///
    /// # Errors
    /// Propagates the OS's address lookup failure.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// The underlying scheduling service (tests peek at its metrics).
    #[must_use]
    pub fn service(&self) -> &SweepService {
        &self.service
    }

    /// Requests shutdown and wakes the accept loop: it stops taking
    /// connections, queued jobs finish ([`SweepService::drain`]), then
    /// [`run`](Self::run) returns.
    pub fn shutdown(&self) {
        self.shutdown.store(true, Ordering::Relaxed);
        // Wake the accept loop's readiness wait with a throwaway
        // connection to our own listener; it is never served.
        if let Ok(mut addr) = self.listener.local_addr() {
            if addr.ip().is_unspecified() {
                addr.set_ip(match addr {
                    SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                    SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
                });
            }
            let _ = TcpStream::connect_timeout(&addr, ACCEPT_POLL);
        }
    }

    /// Serves until [`shutdown`](Self::shutdown) is called or
    /// `external_stop` returns true (the binary wires SIGTERM/SIGINT in
    /// here), then drains gracefully: no new connections, queued jobs
    /// still execute, in-flight streams finish.
    ///
    /// # Errors
    /// Fatal listener errors only; per-connection failures are logged
    /// to stderr and dropped.
    pub fn run(self: &Arc<Self>, external_stop: impl Fn() -> bool) -> io::Result<()> {
        // Exactly one executor thread: jobs run serially in submission
        // order (each job still parallelizes internally over the shared
        // pool), which keeps event streams deterministic.
        let worker = {
            let server = Arc::clone(self);
            std::thread::spawn(move || server.service.serve_worker())
        };
        let mut connections: Vec<std::thread::JoinHandle<()>> = Vec::new();
        while !(self.shutdown.load(Ordering::Relaxed) || external_stop()) {
            // Accept everything pending, then sleep until the listener is
            // readable again (or the backstop elapses).
            loop {
                match self.listener.accept() {
                    Ok((stream, _peer)) => {
                        let server = Arc::clone(self);
                        connections.push(std::thread::spawn(move || {
                            if let Err(e) = server.handle_connection(stream) {
                                eprintln!("fairness-serve: connection error: {e}");
                            }
                        }));
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(e) => return Err(e),
                }
            }
            connections.retain(|h| !h.is_finished());
            wait_readable(&self.listener, ACCEPT_POLL);
        }
        // Graceful drain: accepted work completes before the process
        // exits, so no half-written cache entries or orphaned clients.
        self.service.drain();
        let _ = worker.join();
        for handle in connections {
            let _ = handle.join();
        }
        Ok(())
    }

    fn count(&self, endpoint: &'static str) {
        *self
            .http_requests
            .lock()
            .expect("requests lock")
            .entry(endpoint)
            .or_insert(0) += 1;
    }

    fn handle_connection(&self, mut stream: TcpStream) -> io::Result<()> {
        stream.set_nonblocking(false)?;
        stream.set_read_timeout(Some(Duration::from_secs(10)))?;
        let request = match read_request(&mut stream) {
            Ok(request) => request,
            Err(ParseError::Eof) => return Ok(()),
            Err(e @ (ParseError::Malformed(_) | ParseError::Io(_))) => {
                self.count("bad-request");
                return error_response(
                    &mut stream,
                    400,
                    "Bad Request",
                    "bad-request",
                    &e.to_string(),
                );
            }
            Err(e @ ParseError::TooLarge(_)) => {
                self.count("bad-request");
                return error_response(
                    &mut stream,
                    413,
                    "Payload Too Large",
                    "too-large",
                    &e.to_string(),
                );
            }
        };
        self.route(&mut stream, &request)
    }

    fn route(&self, stream: &mut TcpStream, request: &Request) -> io::Result<()> {
        let path = request.path.split('?').next().unwrap_or_default();
        match (request.method.as_str(), path) {
            ("POST", "/v1/scenarios") => {
                self.count("POST /v1/scenarios");
                self.post_scenarios(stream, &request.body)
            }
            ("GET", "/metrics") => {
                self.count("GET /metrics");
                write_response(
                    stream,
                    200,
                    "OK",
                    "text/plain; version=0.0.4",
                    self.render_metrics().as_bytes(),
                )
            }
            ("POST", "/admin/drain") => {
                self.count("POST /admin/drain");
                write_response(
                    stream,
                    200,
                    "OK",
                    "application/json",
                    b"{\"draining\":true}\n",
                )?;
                self.shutdown();
                Ok(())
            }
            (method, path) if path.starts_with("/v1/jobs/") => {
                let rest = &path["/v1/jobs/".len()..];
                let (fp_text, tail) = match rest.split_once('/') {
                    Some((fp, tail)) => (fp, Some(tail)),
                    None => (rest, None),
                };
                let Ok(fingerprint) = u64::from_str_radix(fp_text, 16) else {
                    self.count("bad-request");
                    return error_response(
                        stream,
                        400,
                        "Bad Request",
                        "bad-fingerprint",
                        "job fingerprints are 16 hex digits",
                    );
                };
                match (method, tail) {
                    ("GET", None) => {
                        self.count("GET /v1/jobs/:fp");
                        self.get_job(stream, fingerprint)
                    }
                    ("GET", Some("events")) => {
                        self.count("GET /v1/jobs/:fp/events");
                        self.get_events(stream, fingerprint)
                    }
                    ("GET", Some("report")) => {
                        self.count("GET /v1/jobs/:fp/report");
                        self.get_report(stream, fingerprint)
                    }
                    ("DELETE", None) => {
                        self.count("DELETE /v1/jobs/:fp");
                        self.delete_job(stream, fingerprint)
                    }
                    _ => {
                        self.count("not-found");
                        error_response(stream, 404, "Not Found", "unknown-route", "no such route")
                    }
                }
            }
            _ => {
                self.count("not-found");
                error_response(stream, 404, "Not Found", "unknown-route", "no such route")
            }
        }
    }

    /// `POST /v1/scenarios` — parse the `.scn` body, submit, stream the
    /// job's events as NDJSON until it is terminal. A duplicate
    /// submission attaches to the stored job and replays its log
    /// byte-for-byte with zero simulation work.
    fn post_scenarios(&self, stream: &mut TcpStream, body: &[u8]) -> io::Result<()> {
        let Ok(text) = std::str::from_utf8(body) else {
            return error_response(
                stream,
                400,
                "Bad Request",
                "bad-encoding",
                "scenario body must be UTF-8 `.scn` text",
            );
        };
        let specs = match parse_scenarios(text) {
            Ok(specs) => specs,
            Err(e) => {
                return error_response(stream, 400, "Bad Request", "parse", &e.to_string());
            }
        };
        let job = match self.service.submit(specs) {
            Ok((job, _fresh)) => job,
            Err(e @ SubmitError::Saturated { .. }) => {
                return error_response(
                    stream,
                    429,
                    "Too Many Requests",
                    "saturated",
                    &e.to_string(),
                );
            }
            Err(e @ SubmitError::Draining) => {
                return error_response(
                    stream,
                    503,
                    "Service Unavailable",
                    "draining",
                    &e.to_string(),
                );
            }
        };
        stream_events(stream, &job)
    }

    /// `GET /v1/jobs/:fp/events` — the same NDJSON stream as the POST,
    /// replayed from the job's log (and followed live if still running).
    fn get_events(&self, stream: &mut TcpStream, fingerprint: u64) -> io::Result<()> {
        match self.service.job(fingerprint) {
            Some(job) => stream_events(stream, &job),
            None => unknown_job(stream),
        }
    }

    fn get_job(&self, stream: &mut TcpStream, fingerprint: u64) -> io::Result<()> {
        let Some(job) = self.service.job(fingerprint) else {
            return unknown_job(stream);
        };
        let (_, events, _) = job.events_since(0);
        let body = format!(
            "{{\"job\":\"{:016x}\",\"phase\":\"{}\",\"scenarios\":{},\"events\":{}}}\n",
            job.fingerprint(),
            job.phase().as_str(),
            job.specs().len(),
            events,
        );
        write_response(stream, 200, "OK", "application/json", body.as_bytes())
    }

    fn get_report(&self, stream: &mut TcpStream, fingerprint: u64) -> io::Result<()> {
        let Some(job) = self.service.job(fingerprint) else {
            return unknown_job(stream);
        };
        match job.report() {
            Some(report) => write_response(
                stream,
                200,
                "OK",
                "text/plain; charset=utf-8",
                report.as_bytes(),
            ),
            None => error_response(
                stream,
                409,
                "Conflict",
                "not-done",
                &format!("job is {} — no report yet", job.phase().as_str()),
            ),
        }
    }

    fn delete_job(&self, stream: &mut TcpStream, fingerprint: u64) -> io::Result<()> {
        if self.service.job(fingerprint).is_none() {
            return unknown_job(stream);
        }
        let cancelled = self.service.cancel(fingerprint);
        let body = format!("{{\"job\":\"{fingerprint:016x}\",\"cancelled\":{cancelled}}}\n");
        write_response(stream, 200, "OK", "application/json", body.as_bytes())
    }

    /// The `/metrics` body: service counters plus the daemon's own
    /// per-endpoint request counts.
    #[must_use]
    pub fn render_metrics(&self) -> String {
        let mut out = self.service.metrics().to_prometheus();
        out.push_str("# HELP fairness_http_requests_total HTTP requests served, by endpoint.\n");
        out.push_str("# TYPE fairness_http_requests_total counter\n");
        for (endpoint, count) in self.http_requests.lock().expect("requests lock").iter() {
            out.push_str(&format!(
                "fairness_http_requests_total{{endpoint=\"{endpoint}\"}} {count}\n"
            ));
        }
        out
    }
}

/// Blocks until `listener` has a pending connection or `timeout`
/// elapses, through `poll(2)`, declared here directly like the daemon's
/// `signal` binding because the offline dependency policy rules out the
/// libc crate. An interrupted or failed wait just returns early; the
/// caller re-checks its stop flags and retries.
#[cfg(unix)]
fn wait_readable(listener: &TcpListener, timeout: Duration) {
    use std::os::unix::io::AsRawFd;

    #[repr(C)]
    struct PollFd {
        fd: i32,
        events: i16,
        revents: i16,
    }
    #[cfg(any(target_os = "linux", target_os = "android"))]
    type Nfds = std::ffi::c_ulong;
    #[cfg(not(any(target_os = "linux", target_os = "android")))]
    type Nfds = std::ffi::c_uint;
    extern "C" {
        fn poll(fds: *mut PollFd, nfds: Nfds, timeout_ms: i32) -> i32;
    }
    const POLLIN: i16 = 0x1;

    let mut fd = PollFd {
        fd: listener.as_raw_fd(),
        events: POLLIN,
        revents: 0,
    };
    let timeout_ms = i32::try_from(timeout.as_millis()).unwrap_or(i32::MAX);
    // SAFETY: `fd` is a valid, exclusively borrowed pollfd array of
    // length one for the duration of the call.
    unsafe {
        poll(&mut fd, 1, timeout_ms);
    }
}

/// Without `poll(2)`, fall back to sleeping out the backstop.
#[cfg(not(unix))]
fn wait_readable(_listener: &TcpListener, timeout: Duration) {
    std::thread::sleep(timeout);
}

/// Streams a job's NDJSON event log from the beginning, following live
/// until the job is terminal. The stream is close-delimited.
fn stream_events(stream: &mut TcpStream, job: &Arc<SweepJob>) -> io::Result<()> {
    write_stream_head(stream, "application/x-ndjson")?;
    let mut cursor = 0;
    loop {
        let (events, next, terminal) = job.wait_events(cursor, STREAM_POLL);
        for event in &events {
            stream.write_all(event.ndjson_line(job.fingerprint()).as_bytes())?;
        }
        stream.flush()?;
        cursor = next;
        if terminal {
            return Ok(());
        }
    }
}

fn unknown_job(stream: &mut TcpStream) -> io::Result<()> {
    error_response(
        stream,
        404,
        "Not Found",
        "unknown-job",
        "no job with that fingerprint",
    )
}

fn error_response(
    stream: &mut TcpStream,
    status: u16,
    reason: &str,
    code: &str,
    message: &str,
) -> io::Result<()> {
    let body = format!(
        "{{\"code\":\"{}\",\"error\":\"{}\"}}\n",
        fairness_bench::service::json_escape(code),
        fairness_bench::service::json_escape(message)
    );
    write_response(stream, status, reason, "application/json", body.as_bytes())
}
