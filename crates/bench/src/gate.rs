//! Regression gate over the criterion-shim's `BENCH_*.json` output.
//!
//! The shim writes `{"results": [{"name": …, "ns_per_iter": …,
//! "p99_ns_per_iter": …}, …]}` on measurement runs. The `bench_gate`
//! binary parses a committed baseline and a fresh run and fails when
//!
//! * a baseline benchmark is missing from the fresh run,
//! * any fresh number is non-finite or non-positive (a NaN that
//!   slipped past the in-bench `assert_finite` guards, or a truncated
//!   file), or
//! * a fresh median is slower than its baseline by more than the
//!   tolerance (default 20% — CI runners are noisy; the committed
//!   baselines themselves are refreshed manually on a quiet machine).
//!
//! Parsing is hand-rolled over the shim's fixed shape — the workspace
//! is offline, so no JSON dependency — and deliberately strict: any
//! result object it cannot fully read is an error, not a skip.

/// One benchmark measurement from a `BENCH_*.json` document.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchResult {
    /// Benchmark name, e.g. `train/gru_epoch_pooled_t4`.
    pub name: String,
    /// Median nanoseconds per iteration.
    pub ns_per_iter: f64,
    /// 99th-percentile nanoseconds per iteration.
    pub p99_ns_per_iter: f64,
}

/// Extracts the string value of `key` from one result object.
fn field_str(obj: &str, key: &str) -> Result<String, String> {
    let pat = format!("\"{key}\"");
    let at = obj
        .find(&pat)
        .ok_or_else(|| format!("missing key {pat} in `{obj}`"))?;
    let rest = &obj[at + pat.len()..];
    let open = rest
        .find('"')
        .ok_or_else(|| format!("{pat}: no opening quote in `{obj}`"))?;
    let rest = &rest[open + 1..];
    // The shim escapes only quotes and backslashes.
    let mut out = String::new();
    let mut chars = rest.chars();
    loop {
        match chars.next() {
            Some('\\') => match chars.next() {
                Some(c) => out.push(c),
                None => return Err(format!("{pat}: unterminated escape in `{obj}`")),
            },
            Some('"') => return Ok(out),
            Some(c) => out.push(c),
            None => return Err(format!("{pat}: unterminated string in `{obj}`")),
        }
    }
}

/// Extracts the numeric value of `key` from one result object. A value
/// that does not parse as a finite number (`NaN`, `null`, garbage) is
/// reported as [`f64::NAN`] so the gate can flag it by name instead of
/// erroring out of the whole run.
fn field_num(obj: &str, key: &str) -> Result<f64, String> {
    let pat = format!("\"{key}\"");
    let at = obj
        .find(&pat)
        .ok_or_else(|| format!("missing key {pat} in `{obj}`"))?;
    let rest = obj[at + pat.len()..]
        .trim_start()
        .strip_prefix(':')
        .ok_or_else(|| format!("{pat}: expected `:` in `{obj}`"))?
        .trim_start();
    let end = rest
        .find(|c: char| c == ',' || c == '}' || c.is_whitespace())
        .unwrap_or(rest.len());
    Ok(rest[..end].parse::<f64>().unwrap_or(f64::NAN))
}

/// Parses a full `BENCH_*.json` document into its results.
///
/// # Errors
///
/// Returns a message when the document has no `results` array or a
/// result object is structurally unreadable.
pub fn parse_results(doc: &str) -> Result<Vec<BenchResult>, String> {
    let at = doc
        .find("\"results\"")
        .ok_or_else(|| "no \"results\" key in document".to_string())?;
    let mut out = Vec::new();
    let mut rest = &doc[at..];
    while let Some(open) = rest.find('{') {
        let close = rest[open..]
            .find('}')
            .ok_or_else(|| "unterminated result object".to_string())?;
        let obj = &rest[open..open + close + 1];
        out.push(BenchResult {
            name: field_str(obj, "name")?,
            ns_per_iter: field_num(obj, "ns_per_iter")?,
            p99_ns_per_iter: field_num(obj, "p99_ns_per_iter")?,
        });
        rest = &rest[open + close + 1..];
    }
    Ok(out)
}

/// Looks up a benchmark by exact name.
pub fn find<'a>(results: &'a [BenchResult], name: &str) -> Option<&'a BenchResult> {
    results.iter().find(|r| r.name == name)
}

/// Compares a fresh run against a baseline. Returns one human-readable
/// failure per violated contract; an empty vector is a pass.
pub fn compare(baseline: &[BenchResult], current: &[BenchResult], tolerance: f64) -> Vec<String> {
    let mut failures = Vec::new();
    // Every fresh number must be a real, positive duration — this is
    // the NaN gate, and it applies to benches the baseline has not
    // heard of yet, too.
    for r in current {
        if !(r.ns_per_iter.is_finite() && r.ns_per_iter > 0.0) {
            failures.push(format!(
                "{}: median is not a positive finite duration ({})",
                r.name, r.ns_per_iter
            ));
        }
        if !(r.p99_ns_per_iter.is_finite() && r.p99_ns_per_iter > 0.0) {
            failures.push(format!(
                "{}: p99 is not a positive finite duration ({})",
                r.name, r.p99_ns_per_iter
            ));
        }
    }
    for b in baseline {
        let Some(c) = find(current, &b.name) else {
            failures.push(format!("{}: present in baseline, missing from run", b.name));
            continue;
        };
        if !(b.ns_per_iter.is_finite() && b.ns_per_iter > 0.0) {
            failures.push(format!(
                "{}: baseline median is unusable ({})",
                b.name, b.ns_per_iter
            ));
            continue;
        }
        let limit = b.ns_per_iter * (1.0 + tolerance);
        if c.ns_per_iter > limit {
            failures.push(format!(
                "{}: regressed {:.1}% over baseline ({:.0} ns vs {:.0} ns, limit {:.0}%)",
                b.name,
                (c.ns_per_iter / b.ns_per_iter - 1.0) * 100.0,
                c.ns_per_iter,
                b.ns_per_iter,
                tolerance * 100.0
            ));
        }
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(entries: &[(&str, &str, &str)]) -> String {
        let body: Vec<String> = entries
            .iter()
            .map(|(n, v, p)| {
                format!("    {{\"name\": \"{n}\", \"ns_per_iter\": {v}, \"p99_ns_per_iter\": {p}}}")
            })
            .collect();
        format!("{{\n  \"results\": [\n{}\n  ]\n}}\n", body.join(",\n"))
    }

    fn results(entries: &[(&str, f64)]) -> Vec<BenchResult> {
        entries
            .iter()
            .map(|&(n, v)| BenchResult {
                name: n.to_string(),
                ns_per_iter: v,
                p99_ns_per_iter: v,
            })
            .collect()
    }

    #[test]
    fn parses_the_shim_format_round_trip() {
        let parsed = parse_results(&doc(&[
            ("train/gru_epoch_pooled_t4", "123", "456"),
            ("train/adamw_fused_step_65536", "7", "8"),
        ]))
        .unwrap();
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[0].name, "train/gru_epoch_pooled_t4");
        assert_eq!(parsed[0].ns_per_iter, 123.0);
        assert_eq!(parsed[1].p99_ns_per_iter, 8.0);
    }

    #[test]
    fn unparseable_numbers_become_nan_failures_not_parse_errors() {
        let parsed = parse_results(&doc(&[("a", "NaN", "1"), ("b", "null", "2")])).unwrap();
        assert!(parsed[0].ns_per_iter.is_nan());
        let failures = compare(&[], &parsed, 0.2);
        assert_eq!(failures.len(), 2, "{failures:?}");
        assert!(failures[0].contains('a'), "{failures:?}");
    }

    #[test]
    fn documents_without_results_are_errors() {
        assert!(parse_results("{}").is_err());
        assert!(parse_results("").is_err());
    }

    #[test]
    fn within_tolerance_passes_beyond_fails() {
        let base = results(&[("x", 100.0)]);
        assert!(compare(&base, &results(&[("x", 119.0)]), 0.2).is_empty());
        let failures = compare(&base, &results(&[("x", 121.0)]), 0.2);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains("regressed"), "{failures:?}");
    }

    #[test]
    fn missing_benchmarks_fail_extra_ones_do_not() {
        let failures = compare(&results(&[("gone", 10.0)]), &results(&[("new", 10.0)]), 0.2);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains("missing"), "{failures:?}");
    }
}
