//! Collects a run's metrics and prints them: one human-readable line per
//! metric, then the machine-readable result as the last line of stdout.

/// Metric names and units as declared in `BENCHMARK.json`.
pub const END_TO_END: [(&str, &str); 8] = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("fresh_p50_ms", "ms"),
    ("fresh_p90_ms", "ms"),
    ("replay_p50_ms", "ms"),
    ("replay_p90_ms", "ms"),
    ("jobs_per_s", "1/s"),
];

#[derive(Debug, Default)]
pub struct Report {
    values: Vec<(String, f64, String)>,
    notes: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
}

impl Report {
    pub fn set(&mut self, name: &str, value: f64, unit: &str) {
        self.values.retain(|(n, _, _)| n != name);
        self.values.push((name.to_owned(), value, unit.to_owned()));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.iter().find(|(n, _, _)| n == name).map(|v| v.1)
    }

    /// A line printed with the metrics (sample counts, tails, findings).
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Counts one checked output, failed or not.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: check failed: {}", what());
        }
    }

    /// Prints every metric, then the result line restricted to `names`
    /// (the end-to-end set, or the per-layer set of a traced run).
    pub fn print(&self, names: &[(String, String)]) {
        for note in &self.notes {
            println!("{note}");
        }
        for (name, value, unit) in &self.values {
            println!("{name} = {value} {unit}");
        }
        let fail_frac = self.failed as f64 / self.attempted.max(1) as f64;
        println!(
            "fail_frac = {fail_frac} ({} of {} checked outputs failed)",
            self.failed, self.attempted
        );
        let metrics: Vec<String> = names
            .iter()
            .map(|(name, unit)| {
                let value = self.get(name).unwrap_or(0.0);
                let value = if value.is_finite() { value } else { 0.0 };
                format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}")
            })
            .collect();
        println!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted.max(1),
            self.failed,
            metrics.join(",")
        );
    }
}
