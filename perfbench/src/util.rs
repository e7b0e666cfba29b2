//! Small helpers shared by the workloads: the input generator's PRNG,
//! SHA-256 manifests, and a child-process guard.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::Child;

/// SplitMix64: the benchmark's own generator for workload inputs, so the
/// inputs a seed produces never depend on the program under test.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (the modulo bias is irrelevant for `n` this small).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

pub fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

pub fn sha256_hex(bytes: &[u8]) -> String {
    hex(&chain_sim::sha256(bytes))
}

/// Parses a `sha256sum`-style manifest: `<hex digest>  <file name>`.
pub fn parse_manifest(text: &str) -> BTreeMap<String, String> {
    text.lines()
        .filter_map(|line| {
            let (digest, name) = line.split_once("  ")?;
            Some((name.to_owned(), digest.to_owned()))
        })
        .collect()
}

pub fn render_manifest(entries: &BTreeMap<String, String>) -> String {
    entries
        .iter()
        .map(|(name, digest)| format!("{digest}  {name}\n"))
        .collect()
}

/// Digests every `*.csv` directly under `dir`, keyed by file name.
pub fn digest_csvs(dir: &Path) -> std::io::Result<BTreeMap<String, String>> {
    let mut out = BTreeMap::new();
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.extension().is_some_and(|e| e == "csv") {
            let name = path
                .file_name()
                .expect("a listed file has a name")
                .to_string_lossy()
                .into_owned();
            out.insert(name, sha256_hex(&std::fs::read(&path)?));
        }
    }
    Ok(out)
}

/// Kills and reaps a child process if it is still running when dropped,
/// so no error path leaves a process behind.
#[derive(Debug)]
pub struct Reaped(pub Child);

impl Reaped {
    /// Waits for a clean exit, killing the process after `limit`.
    pub fn wait_within(&mut self, limit: std::time::Duration) -> bool {
        let deadline = std::time::Instant::now() + limit;
        loop {
            match self.0.try_wait() {
                Ok(Some(status)) => return status.success(),
                Ok(None) if std::time::Instant::now() < deadline => {
                    std::thread::sleep(std::time::Duration::from_millis(5));
                }
                _ => {
                    let _ = self.0.kill();
                    let _ = self.0.wait();
                    return false;
                }
            }
        }
    }
}

impl Drop for Reaped {
    fn drop(&mut self) {
        if let Ok(None) = self.0.try_wait() {
            let _ = self.0.kill();
        }
        let _ = self.0.wait();
    }
}
