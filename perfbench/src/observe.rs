//! Observes a worker process from outside through `/proc`: peak resident
//! memory (`VmHWM`), CPU seconds (user + system, all threads) and the
//! highest thread count seen by a sampler thread.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// `/proc/<pid>/stat` reports CPU time in clock ticks; Linux fixes the
/// user-visible tick rate (`USER_HZ`) at 100 on every architecture.
const USER_HZ: f64 = 100.0;
const SAMPLE_EVERY: Duration = Duration::from_millis(5);

#[derive(Debug, Clone, Copy, Default)]
pub struct Usage {
    pub peak_rss_mib: f64,
    pub cpu_s: f64,
    pub threads_max: u64,
}

#[derive(Debug)]
pub struct Observer {
    pid: u32,
    stop: Arc<AtomicBool>,
    threads_max: Arc<AtomicU64>,
    sampler: Option<JoinHandle<()>>,
}

impl Observer {
    pub fn start(pid: u32) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let threads_max = Arc::new(AtomicU64::new(0));
        let sampler = {
            let stop = Arc::clone(&stop);
            let threads_max = Arc::clone(&threads_max);
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    if let Some(threads) = status_field(pid, "Threads:") {
                        threads_max.fetch_max(threads, Ordering::Relaxed);
                    }
                    std::thread::sleep(SAMPLE_EVERY);
                }
            })
        };
        Self {
            pid,
            stop,
            threads_max,
            sampler: Some(sampler),
        }
    }

    /// Stops sampling and reads the totals. Call while the process is
    /// still alive: an exited process no longer reports its memory.
    pub fn finish(mut self) -> Usage {
        self.stop_sampler();
        if let Some(threads) = status_field(self.pid, "Threads:") {
            self.threads_max.fetch_max(threads, Ordering::Relaxed);
        }
        Usage {
            peak_rss_mib: status_field(self.pid, "VmHWM:").unwrap_or(0) as f64 / 1024.0,
            cpu_s: cpu_seconds(self.pid).unwrap_or(0.0),
            threads_max: self.threads_max.load(Ordering::Relaxed),
        }
    }

    fn stop_sampler(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.sampler.take() {
            handle.join().expect("process sampler thread panicked");
        }
    }
}

impl Drop for Observer {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.sampler.take() {
            let _ = handle.join();
        }
    }
}

/// A numeric field of `/proc/<pid>/status` (`VmHWM:` is in KiB).
fn status_field(pid: u32, key: &str) -> Option<u64> {
    let text = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = text.lines().find(|l| l.starts_with(key))?;
    line[key.len()..].split_whitespace().next()?.parse().ok()
}

/// User plus system CPU seconds of every thread, exited ones included.
fn cpu_seconds(pid: u32) -> Option<f64> {
    let text = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // Fields after the parenthesised command name start at field 3
    // (state); utime and stime are fields 14 and 15.
    let rest = &text[text.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) as f64 / USER_HZ)
}
