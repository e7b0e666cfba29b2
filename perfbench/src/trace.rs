//! In-memory spans around the benchmark's calls into the program's layers.
//!
//! A span records a name, its start and end on the tracer's clock, the
//! span that caused it, the request it belongs to, and a work count
//! (steps, draws, bytes) measured at the same boundary. With tracing off,
//! [`Tracer::start`] reads no clock and [`Tracer::finish`] records
//! nothing, so an untraced run pays one branch per call. Spans are
//! written out once, when the run ends.

use std::io::Write as _;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub request: u64,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub work: u64,
}

impl Span {
    pub fn nanos(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

/// An open span: the start instant, when tracing is on.
#[derive(Debug, Clone, Copy)]
pub struct Open(Option<Instant>);

impl Tracer {
    pub fn new(on: bool) -> Self {
        Self {
            on,
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.on
    }

    pub fn start(&self) -> Open {
        Open(self.on.then(Instant::now))
    }

    /// Closes `open` as a span named `name`; returns its id (0 when off).
    pub fn finish(&self, open: Open, name: &str, parent: u64, request: u64, work: u64) -> u64 {
        let Some(start) = open.0 else {
            return 0;
        };
        let end = Instant::now();
        self.record(name, parent, request, start, end, work)
    }

    /// Records a span whose bounds were taken elsewhere (for example by
    /// a reader thread timestamping stream lines).
    pub fn record(
        &self,
        name: &str,
        parent: u64,
        request: u64,
        start: Instant,
        end: Instant,
        work: u64,
    ) -> u64 {
        if !self.on {
            return 0;
        }
        let mut spans = self.spans.lock().expect("span list lock");
        let id = spans.len() as u64 + 1;
        spans.push(Span {
            id,
            parent,
            request,
            name: name.to_owned(),
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            work,
        });
        id
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.lock().expect("span list lock").len()
    }

    /// Every closed span named `name`.
    pub fn named(&self, name: &str) -> Vec<Span> {
        self.spans
            .lock()
            .expect("span list lock")
            .iter()
            .filter(|s| s.name == name)
            .cloned()
            .collect()
    }

    /// Writes every span as one JSON object per line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let spans = self.spans.lock().expect("span list lock");
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in spans.iter() {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"request\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"work\":{}}}",
                s.id, s.parent, s.request, s.name, s.start_ns, s.end_ns, s.work
            )?;
        }
        out.flush()
    }
}
