//! Result assembly: named metrics with units, host and run metadata,
//! recorded spans, and the one-line JSON result.

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as declared in `BENCHMARK.json`.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// Metrics plus free-form report lines for one run.
#[derive(Debug, Default)]
pub struct Sheet {
    /// End-to-end metrics (reported with `--trace 0`).
    pub e2e: Vec<Metric>,
    /// Per-layer metrics (reported with `--trace 1`).
    pub layers: Vec<Metric>,
    /// `key = value` run metadata.
    pub meta: Vec<(String, String)>,
    /// Human-readable detail lines.
    pub lines: Vec<String>,
}

impl Sheet {
    /// Adds an end-to-end metric.
    pub fn e2e(&mut self, name: &str, value: f64, unit: &'static str) {
        self.e2e.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    /// Adds a per-layer metric.
    pub fn layer(&mut self, name: &str, value: f64, unit: &'static str) {
        self.layers.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    /// Adds a metadata pair.
    pub fn meta(&mut self, key: &str, value: impl ToString) {
        self.meta.push((key.to_string(), value.to_string()));
    }

    /// Adds a detail line.
    pub fn line(&mut self, line: impl Into<String>) {
        self.lines.push(line.into());
    }
}

/// The final result line: exactly `correct`, `attempted`, `failed` and
/// `metrics`. Non-finite values cannot be written as JSON numbers; the
/// caller marks such a run incorrect before getting here.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    out.push_str("}}");
    out
}

/// Host and build metadata every result carries.
pub fn host_meta(sheet: &mut Sheet) {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    sheet.meta("nproc", nproc);
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    sheet.meta("cpu", cpu);
    sheet.meta("rustflags", rustflags());
    sheet.meta(
        "target_features",
        format!(
            "avx2={} fma={} avx512f={}",
            cfg!(target_feature = "avx2"),
            cfg!(target_feature = "fma"),
            cfg!(target_feature = "avx512f")
        ),
    );
    sheet.meta("git_commit", git_commit());
}

/// `RUSTFLAGS` from the environment, else the `rustflags` line of the
/// checkout's `.cargo/config.toml`.
fn rustflags() -> String {
    if let Ok(flags) = std::env::var("RUSTFLAGS") {
        return format!("{flags} (RUSTFLAGS)");
    }
    std::fs::read_to_string(".cargo/config.toml")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.trim_start().starts_with("rustflags"))
                .map(|l| format!("{} (.cargo/config.toml)", l.trim()))
        })
        .unwrap_or_else(|| "none".to_string())
}

/// The checked-out commit, read from `.git` without running git;
/// `unknown` outside a git checkout.
fn git_commit() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown (not a git checkout)".to_string(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(id) = std::fs::read_to_string(Path::new(".git").join(reference)) {
        return id.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Peak resident set of this process, MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// CPU time (user + system) a process has used so far, s, from
/// `/proc/<pid>/stat` (`pid` may be `self`). Time the hypervisor stole
/// from the guest is not counted; the resolution is one clock tick
/// (10 ms), so callers measure spans of seconds. `NaN` when unreadable.
pub fn cpu_s(pid: &str) -> f64 {
    const TICKS_PER_S: f64 = 100.0;
    std::fs::read_to_string(format!("/proc/{pid}/stat"))
        .ok()
        .and_then(|s| {
            // Fields after the parenthesised command name, which may
            // itself hold spaces: state is the first, utime the 12th.
            let rest = &s[s.rfind(')')? + 1..];
            let fields: Vec<&str> = rest.split_whitespace().collect();
            let utime: f64 = fields.get(11)?.parse().ok()?;
            let stime: f64 = fields.get(12)?.parse().ok()?;
            Some((utime + stime) / TICKS_PER_S)
        })
        .unwrap_or(f64::NAN)
}

/// Process ids of this process's live children, from every thread's
/// `/proc/self/task/<tid>/children`.
pub fn child_pids() -> Vec<String> {
    let mut pids = Vec::new();
    if let Ok(tasks) = std::fs::read_dir("/proc/self/task") {
        for task in tasks.flatten() {
            if let Ok(s) = std::fs::read_to_string(task.path().join("children")) {
                pids.extend(s.split_whitespace().map(str::to_string));
            }
        }
    }
    pids.sort();
    pids.dedup();
    pids
}

/// One recorded span: a timed call into a layer, relative to the run's
/// epoch. Spans of one record share its root through `parent`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Span id (1-based; 0 = no parent).
    pub id: u64,
    /// The span that caused this one.
    pub parent: u64,
    /// Layer-qualified name, e.g. `serve.submit`.
    pub name: &'static str,
    /// Start, ns since the epoch.
    pub start_ns: u64,
    /// End, ns since the epoch.
    pub end_ns: u64,
}

/// In-memory span store, written out when the run ends.
#[derive(Debug)]
pub struct Spans {
    spans: Vec<Span>,
    cap: usize,
    dropped: u64,
}

impl Spans {
    /// Keeps at most `cap` spans; the rest are counted, not stored.
    pub fn new(cap: usize) -> Self {
        Self {
            spans: Vec::new(),
            cap,
            dropped: 0,
        }
    }

    /// Records a span; returns its id (0 when over the cap).
    pub fn push(&mut self, parent: u64, name: &'static str, start_ns: u64, end_ns: u64) -> u64 {
        if self.spans.len() >= self.cap {
            self.dropped += 1;
            return 0;
        }
        let id = self.spans.len() as u64 + 1;
        self.spans.push(Span {
            id,
            parent,
            name,
            start_ns,
            end_ns,
        });
        id
    }

    /// Per-name count, total and self time (duration minus the part of
    /// it covered by child spans), ms.
    pub fn summary(&self) -> Vec<(&'static str, u64, f64, f64)> {
        let mut child_ns = vec![0u64; self.spans.len() + 1];
        for s in &self.spans {
            if let Some(c) = child_ns.get_mut(s.parent as usize) {
                if s.parent != 0 {
                    *c += s.end_ns.saturating_sub(s.start_ns);
                }
            }
        }
        let mut by_name: std::collections::BTreeMap<&'static str, (u64, u64, u64)> =
            std::collections::BTreeMap::new();
        for s in &self.spans {
            let dur = s.end_ns.saturating_sub(s.start_ns);
            let e = by_name.entry(s.name).or_default();
            e.0 += 1;
            e.1 += dur;
            e.2 += dur.saturating_sub(child_ns[s.id as usize]);
        }
        by_name
            .into_iter()
            .map(|(n, (c, t, s))| (n, c, t as f64 / 1e6, s as f64 / 1e6))
            .collect()
    }

    /// Writes every stored span as one JSON object per line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                out,
                "{{\"id\": {}, \"parent\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}",
                s.id, s.parent, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }

    /// Spans stored.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Spans over the cap that were counted but not stored.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

/// Nanoseconds between `epoch` and `t` (0 if `t` is earlier).
pub fn ns_since(epoch: Instant, t: Instant) -> u64 {
    t.saturating_duration_since(epoch).as_nanos() as u64
}

/// Measured cost of one traced call's two clock reads, ns.
pub fn clock_pair_ns() -> f64 {
    const N: u32 = 200_000;
    let t0 = Instant::now();
    let mut acc = 0u128;
    for _ in 0..N {
        let a = Instant::now();
        let b = Instant::now();
        acc += b.duration_since(a).as_nanos();
    }
    std::hint::black_box(acc);
    t0.elapsed().as_nanos() as f64 / f64::from(N)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_has_exactly_the_contract_keys() {
        let m = [Metric {
            name: "lat_p50_ms".into(),
            value: 1.25,
            unit: "ms",
        }];
        assert_eq!(
            result_json(true, 3, 0, &m),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"lat_p50_ms\": {\"value\": 1.25, \"unit\": \"ms\"}}}"
        );
    }

    #[test]
    fn self_time_subtracts_children() {
        let mut spans = Spans::new(10);
        let root = spans.push(0, "record", 0, 100);
        spans.push(root, "serve.submit", 10, 20);
        spans.push(root, "serve.server", 20, 80);
        let summary = spans.summary();
        let record = summary.iter().find(|s| s.0 == "record").expect("root");
        assert_eq!(record.1, 1);
        assert!((record.3 - 30e-6).abs() < 1e-12);
    }
}
