//! `train-paper`: the paper's training pipeline. The MLP detector is
//! trained with the default `DetectorConfig` (10 epochs, batch 256,
//! AdamW) on the `turetta2022` train split under the repro train cap,
//! then a GRU `TemporalDetector::train_with` phase runs, and the
//! trained MLP scores all five test folds at batch 1 (the paper's
//! per-frame deployment), 32 (the serve batch) and 256, in interleaved
//! rounds. Training is reported as CPU time, which time-slicing of a
//! shared host does not move. Every scoring call is executed three
//! times back to back and the fastest execution kept, so an interrupt
//! or a preemption that hits one execution does not set the call's
//! time. Each pass scores with its own copy of the model on fresh
//! memory, so the figures, medians over the rounds (batch 256: a mean
//! of time per record), average over where the weights land rather
//! than depend on one placement per process. `tensor` and `nn` do all
//! the work; `serve`, `wire` and `fleet` do none.

use crate::report::{cpu_s, ns_since, Sheet, Spans};
use crate::stats::{mean, median, percentile, Summary};
use crate::verify::{Delivery, Ledger, Reference};
use crate::{probes, Outcome, RunConfig, SPAN_CAP};
use occusense_core::detector::{DetectorConfig, OccupancyDetector, ScoreWorkspace};
use occusense_core::temporal::{TemporalConfig, TemporalDetector, TemporalTrainWorkspace};
use occusense_dataset::folds::split_by_folds;
use occusense_dataset::{CsiRecord, Dataset};
use occusense_sim::{simulate, ScenarioConfig};
use std::time::Instant;

/// Campaign sampling rate. The campaign spans three days; at 0.25 Hz
/// the train split still exceeds the train cap, so the MLP trains on
/// exactly as many rows as at the paper's rate.
const RATE_HZ: f64 = 0.25;
/// The repro binaries' stratified train cap.
const TRAIN_CAP: usize = 40_000;
const GRU_EPOCHS: usize = 3;
const SETUPS: usize = 3;
/// Scoring batch sizes: per frame, the serve batch, the training batch.
const BATCHES: [usize; 3] = [1, 32, 256];
/// Scoring rounds; each scores every fold once per batch size.
const ROUNDS: usize = 6;
/// Back-to-back executions of each timed call; the fastest is its
/// latency.
const REPEATS: usize = 3;
/// Mean fold accuracy below which the run fails (the paper's MLP
/// reaches ~0.98 here).
const ACCURACY_FLOOR: f64 = 0.95;

/// One scoring batch size's figures.
struct ScoringStep {
    rps: f64,
    /// Fastest-execution time per record, µs: the calls are
    /// single-threaded, so an uninterrupted execution's time is its CPU
    /// time. The mean over the rounds (each pass with the model at a
    /// different place in memory) of each round's sum.
    cpu_us_per_rec: f64,
    /// Process CPU time per record over every execution, µs.
    process_cpu_us_per_rec: f64,
    /// Medians over the rounds of each round's exact percentile.
    p50: f64,
    p90: f64,
    p99: f64,
    /// Every call of every round.
    all: Summary,
}

/// Whole-fold `predict_proba` bits — the `evaluate` path.
struct FoldReference {
    bits: Vec<Vec<u64>>,
}

impl Reference for FoldReference {
    fn expected(&self, stream: u32, seqs: &[u64]) -> Vec<u64> {
        let bits = &self.bits[stream as usize % 8];
        seqs.iter().map(|&s| bits[s as usize]).collect()
    }
}

/// Runs the workload.
pub fn run(cfg: &RunConfig) -> Outcome {
    let mut sheet = Sheet::default();
    let mut spans = Spans::new(SPAN_CAP);
    let mut setup_s = Vec::new();
    let mut split = None;
    for _ in 0..SETUPS {
        let t = Instant::now();
        let mut scenario = ScenarioConfig::turetta2022(cfg.seed);
        scenario.sample_rate_hz = RATE_HZ;
        split = Some(split_by_folds(&simulate(&scenario)));
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let (train, folds): (Dataset, Vec<Dataset>) = split.expect("at least one set-up");

    let (t, cpu) = (Instant::now(), cpu_s("self"));
    let detector = OccupancyDetector::train(
        &train,
        &DetectorConfig {
            seed: cfg.seed,
            max_train_samples: Some(TRAIN_CAP),
            ..DetectorConfig::default()
        },
    );
    let mlp_s = t.elapsed().as_secs_f64();
    let mlp_cpu_s = cpu_s("self") - cpu;
    let mlp_span = (ns_since(cfg.epoch, t), ns_since(cfg.epoch, Instant::now()));

    let (t, cpu) = (Instant::now(), cpu_s("self"));
    let gru_cfg = TemporalConfig {
        seed: cfg.seed,
        epochs: GRU_EPOCHS,
        ..TemporalConfig::default()
    };
    let gru = TemporalDetector::train_with(&train, &gru_cfg, &mut TemporalTrainWorkspace::new());
    let gru_s = t.elapsed().as_secs_f64();
    let gru_cpu_s = cpu_s("self") - cpu;
    let gru_span = (ns_since(cfg.epoch, t), ns_since(cfg.epoch, Instant::now()));

    let reference = FoldReference {
        bits: folds
            .iter()
            .map(|f| {
                detector
                    .predict_proba(f)
                    .into_iter()
                    .map(f64::to_bits)
                    .collect()
            })
            .collect(),
    };
    let fold_records: usize = folds.iter().map(Dataset::len).sum();

    // Scoring: every round scores all folds once at each batch size,
    // so a slow spell of the host hits every batch size alike.
    // Deliveries carry stream `(round · BATCHES + batch index) · 8 + fold`.
    let mut ledger = Ledger::default();
    let mut accuracy_per_fold = vec![0.0; folds.len()];
    let mut out = Vec::new();
    let (mut scoring_s, mut span_ns) = (0.0, 0u128);
    // Per round and batch size: call latencies; per batch size: rates
    // and process CPU seconds.
    let mut lat: Vec<Vec<Vec<f64>>> = vec![vec![Vec::new(); BATCHES.len()]; ROUNDS];
    let mut rates: Vec<Vec<f64>> = vec![Vec::new(); BATCHES.len()];
    let mut cpu_used = vec![0.0; BATCHES.len()];
    let mut models = Vec::with_capacity(ROUNDS * BATCHES.len());
    for (round, round_lat) in lat.iter_mut().enumerate() {
        for (b, &batch) in BATCHES.iter().enumerate() {
            let pass = (round * BATCHES.len() + b) as u32;
            // A fresh copy of the model and a fresh workspace per pass,
            // on memory no earlier pass used: where the weights land
            // moves a small call's time by up to a third, so a single
            // placement per process would make whole runs fast or slow.
            models.push(detector.clone());
            let model = &models[models.len() - 1];
            let mut ws = ScoreWorkspace::new();
            let (t, cpu) = (Instant::now(), cpu_s("self"));
            let mut call_spans = Vec::new();
            for (f, fold) in folds.iter().enumerate() {
                for (c, chunk) in fold.records().chunks(batch).enumerate() {
                    let (mut t0, mut t1) = (t, t + std::time::Duration::from_secs(3600));
                    for _ in 0..REPEATS {
                        let a = Instant::now();
                        model.predict_proba_slice_into(chunk, &mut ws, &mut out);
                        let z = Instant::now();
                        if z - a < t1 - t0 {
                            (t0, t1) = (a, z);
                        }
                    }
                    round_lat[b].push((t1 - t0).as_secs_f64() * 1e3);
                    if cfg.trace && c.is_multiple_of(64) {
                        call_spans.push((t0, t1));
                    }
                    for (i, &p) in out.iter().enumerate() {
                        ledger.deliveries.push(Delivery {
                            stream: pass * 8 + f as u32,
                            seq: (c * batch + i) as u64,
                            bits: p.to_bits(),
                        });
                    }
                }
            }
            let wall = t.elapsed().as_secs_f64();
            cpu_used[b] += cpu_s("self") - cpu;
            scoring_s += wall;
            ledger.sent += fold_records as u64;
            rates[b].push(fold_records as f64 / wall);
            let t = Instant::now();
            for (t0, t1) in call_spans {
                spans.push(
                    0,
                    "core.score",
                    ns_since(cfg.epoch, t0),
                    ns_since(cfg.epoch, t1),
                );
            }
            span_ns += t.elapsed().as_nanos();
        }
    }
    let mut steps = Vec::new();
    for (b, &batch) in BATCHES.iter().enumerate() {
        let per_round = |p: f64| -> Vec<f64> {
            lat.iter()
                .map(|r| {
                    let mut calls = r[b].clone();
                    calls.sort_by(f64::total_cmp);
                    percentile(&calls, p)
                })
                .collect()
        };
        let step = ScoringStep {
            rps: median(&rates[b]),
            cpu_us_per_rec: mean(
                &lat.iter()
                    .map(|r| r[b].iter().sum::<f64>() * 1e3 / fold_records as f64)
                    .collect::<Vec<_>>(),
            ),
            process_cpu_us_per_rec: cpu_used[b] * 1e6 / (REPEATS * ROUNDS * fold_records) as f64,
            p50: median(&per_round(50.0)),
            p90: median(&per_round(90.0)),
            p99: median(&per_round(99.0)),
            all: Summary::of(
                &mut lat
                    .iter()
                    .flat_map(|r| r[b].iter().copied())
                    .collect::<Vec<_>>(),
            ),
        };
        sheet.line(format!(
            "scoring batch {batch:>3}: {:.0} rec/s over {REPEATS} executions per call · fastest {:.4} us/rec · process CPU {:.4} us/rec · per-call latency p50 {:.4} ms · p90 {:.4} ms · p99 {:.4} ms (median of {ROUNDS} rounds; fastest of {REPEATS} executions per call) · all calls {}",
            step.rps,
            step.cpu_us_per_rec,
            step.process_cpu_us_per_rec,
            step.p50,
            step.p90,
            step.p99,
            step.all.describe("ms")
        ));
        steps.push(step);
    }
    // Accuracy of the per-frame pass against ground truth.
    for d in ledger.deliveries.iter().filter(|d| d.stream < 8) {
        let f = d.stream as usize;
        let label = folds[f].records()[d.seq as usize].occupancy();
        if u8::from(f64::from_bits(d.bits) > 0.5) == label {
            accuracy_per_fold[f] += 1.0 / folds[f].len() as f64;
        }
    }
    let accuracy = mean(&accuracy_per_fold);
    let gru_accuracy: Vec<String> = folds
        .iter()
        .map(|f| {
            let hits = gru
                .score_stream(f.records())
                .iter()
                .zip(f.records())
                .filter(|((_, p), r)| u8::from(*p > 0.5) == r.occupancy())
                .count();
            format!("{:.4}", hits as f64 / f.len() as f64)
        })
        .collect();
    sheet.line(format!(
        "MLP fold accuracy {accuracy_per_fold:.4?} (mean {accuracy:.4}) · GRU presence accuracy [{}]",
        gru_accuracy.join(", ")
    ));
    sheet.line(format!(
        "train split {} records (cap {TRAIN_CAP}) · test folds {fold_records} records · mlp_train_s {mlp_s:.4} ({mlp_cpu_s:.4} CPU) · gru_train_s {gru_s:.4} ({gru_cpu_s:.4} CPU, {GRU_EPOCHS} epochs)",
        train.len()
    ));

    sheet.e2e("setup_s", median(&setup_s), "s");
    sheet.e2e("lat_p50_ms", steps[0].p50, "ms");
    sheet.e2e("lat_p90_ms", steps[0].p90, "ms");
    sheet.e2e("lat_p50_ms.high", steps[1].p50, "ms");
    sheet.e2e("lat_p90_ms.high", steps[1].p90, "ms");
    sheet.e2e("flood_cpu_us_per_rec", steps[2].cpu_us_per_rec, "us");
    sheet.e2e("train_cpu_s", mlp_cpu_s + gru_cpu_s, "s");
    sheet.meta("rate_hz", RATE_HZ);
    sheet.meta("train_cap", TRAIN_CAP);
    sheet.meta("scoring_batches", format!("{BATCHES:?}"));
    sheet.meta("connections", 0);
    sheet.meta("generator_threads", 1);

    if cfg.trace {
        spans.push(0, "nn.train_mlp", mlp_span.0, mlp_span.1);
        spans.push(0, "nn.train_gru", gru_span.0, gru_span.1);
        probes::bypassed(&mut sheet, probes::SERVE);
        let sample: Vec<CsiRecord> = folds[0].records()[..512].to_vec();
        probes::core(&mut sheet, &gru, &detector, &sample, 32);
        probes::bypassed(&mut sheet, probes::WIRE_TRAFFIC);
        probes::codec(&mut sheet, &folds[0].records()[..2048]);
        probes::bypassed(&mut sheet, probes::FLEET);
        probes::train_step(&mut sheet);
        sheet.layer("nn.gru_epoch_ms", gru_s * 1e3 / GRU_EPOCHS as f64, "ms");
        probes::gemm(&mut sheet);
        sheet.layer("gen.lag_us.p99", 0.0, "us");
        // Scoring calls are timed in both runs; tracing adds only the
        // span bookkeeping, measured against the scoring wall time.
        sheet.layer(
            "trace.overhead_frac",
            span_ns as f64 / (scoring_s * 1e9),
            "share",
        );
    }

    let attempted = ledger.sent;
    Outcome {
        sheet,
        ledger,
        reference: Box::new(reference),
        accuracy,
        floor: ACCURACY_FLOOR,
        attempted,
        peak_rss_mb: crate::report::peak_rss_mb(),
        spans,
    }
}
