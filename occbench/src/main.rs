//! occbench — the occusense benchmark.
//!
//! ```text
//! occbench --workload <serve-gru-open|fleet-tcp-flood|train-paper>
//!          --seed <n> --seconds <s> --trace <0|1> [--inject <control>]
//! ```
//!
//! One run sets the workload up, measures it, verifies every output,
//! prints a report and ends with one JSON result line: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics (from spans the
//! bench records around its own calls into each layer) with
//! `--trace 1`. `--inject` corrupts the finished run with one negative
//! control, which must turn the verdict to FAIL. Exit code: 0 on PASS,
//! 1 on FAIL, 2 on bad arguments.

mod fleet_tcp;
mod probes;
mod report;
mod serve_gru;
mod stats;
mod train_paper;
mod verify;

use report::{host_meta, result_json, Sheet, Spans};
use std::path::PathBuf;
use std::time::Instant;
use verify::{verify, Control, Ledger, Reference};

const USAGE: &str = "usage: occbench --workload <serve-gru-open|fleet-tcp-flood|train-paper> \
--seed <n> --seconds <s> --trace <0|1> [--inject <flip-bit|drop-prediction|duplicate-prediction|book-scored-as-dropped|accuracy-below-floor>]";

/// The latency limit every workload's capacity metric is judged by:
/// one 20 Hz frame period, after which the next frame has arrived.
pub const LIMIT_MS: f64 = 50.0;

/// Spans kept in memory per run (the rest are counted).
const SPAN_CAP: usize = 60_000;

/// What every workload receives.
pub struct RunConfig {
    /// Input seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
    /// Run epoch (span times are relative to it).
    pub epoch: Instant,
}

/// What every workload hands back.
pub struct Outcome {
    /// Metrics and report lines. The workload fills every end-to-end
    /// metric except `ok_frac`, `accuracy` and `peak_rss_mb`, which
    /// are added after verification.
    pub sheet: Sheet,
    /// What was sent and received.
    pub ledger: Ledger,
    /// Recomputes expected outputs.
    pub reference: Box<dyn Reference>,
    /// Accuracy of the delivered predictions against ground truth.
    pub accuracy: f64,
    /// The declared accuracy floor.
    pub floor: f64,
    /// Records attempted.
    pub attempted: u64,
    /// Peak RSS of the bench process, MB, taken where the workload's
    /// own buffers are fixed in size.
    pub peak_rss_mb: f64,
    /// Spans recorded by the traced run.
    pub spans: Spans,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    inject: Option<Control>,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut inject) =
        (None, None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(1.0..=600.0).contains(&s) {
                    return Err("--seconds must be within 1..=600".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--inject" => {
                inject = Some(Control::parse(&value).ok_or(format!("unknown control {value:?}"))?)
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        inject,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("occbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let config = RunConfig {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        epoch: Instant::now(),
    };
    let run = match args.workload.as_str() {
        "serve-gru-open" => serve_gru::run,
        "fleet-tcp-flood" => fleet_tcp::run,
        "train-paper" => train_paper::run,
        other => {
            eprintln!("occbench: unknown workload {other:?}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let mut out = run(&config);

    let sheet = &mut out.sheet;
    host_meta(sheet);
    sheet.meta("workload", &args.workload);
    sheet.meta("seed", args.seed);
    sheet.meta("seconds", args.seconds);
    sheet.meta("trace", u8::from(args.trace));
    if let Some(c) = args.inject {
        sheet.meta("inject", c.name());
        c.apply(&mut out.ledger, &mut out.accuracy);
    }
    let verdict = verify(&out.ledger, out.reference.as_ref(), out.accuracy, out.floor);
    let ok_frac = verdict.matched as f64 / out.attempted.max(1) as f64;
    sheet.e2e("ok_frac", ok_frac, "share");
    sheet.e2e("accuracy", out.accuracy, "share");
    sheet.e2e("peak_rss_mb", out.peak_rss_mb, "MB");

    let mut failures = verdict.failures.clone();
    let metrics = if args.trace {
        &sheet.layers
    } else {
        &sheet.e2e
    };
    failures.extend(
        metrics
            .iter()
            .filter(|m| !m.value.is_finite())
            .map(|m| format!("metric {} is not finite", m.name)),
    );
    if args.trace {
        let path = PathBuf::from(format!(
            ".bench_build/occbench-spans/{}-seed{}.jsonl",
            args.workload, args.seed
        ));
        match out.spans.write(&path) {
            Ok(()) => sheet.line(format!(
                "spans: {} kept ({} over the cap) → {}",
                out.spans.len(),
                out.spans.dropped(),
                path.display()
            )),
            Err(e) => failures.push(format!("cannot write spans to {}: {e}", path.display())),
        }
        for (name, count, total_ms, self_ms) in out.spans.summary() {
            sheet.line(format!(
                "span {name:<16} count {count:>7} total {total_ms:>11.3} ms self {self_ms:>11.3} ms"
            ));
        }
    }

    for (k, v) in &sheet.meta {
        println!("meta {k} = {v}");
    }
    for line in &sheet.lines {
        println!("{line}");
    }
    for m in &sheet.e2e {
        println!("e2e   {:<24} {:>16.6} {}", m.name, m.value, m.unit);
    }
    if args.trace {
        for m in &sheet.layers {
            println!("layer {:<32} {:>16.6} {}", m.name, m.value, m.unit);
        }
    }
    let pass = failures.is_empty();
    for f in &failures {
        println!("verify FAIL: {f}");
    }
    println!(
        "verify verdict: {} ({} of {} attempted records verified)",
        if pass { "PASS" } else { "FAIL" },
        verdict.matched,
        out.attempted
    );
    let metrics = if args.trace {
        &sheet.layers
    } else {
        &sheet.e2e
    };
    println!(
        "{}",
        result_json(
            pass,
            out.attempted.max(1),
            out.attempted.saturating_sub(verdict.matched),
            metrics
        )
    );
    std::process::exit(if pass { 0 } else { 1 });
}
