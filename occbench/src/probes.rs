//! Per-layer probes for the traced run: the bench times its own calls
//! into each layer's public functions at fixed, stated shapes. Nothing
//! here is instrumentation inside the program.

use crate::report::Sheet;
use crate::stats::median;
use occusense_core::detector::{OccupancyDetector, ScoreWorkspace};
use occusense_core::temporal::{TemporalDetector, TemporalWorkspace};
use occusense_dataset::CsiRecord;
use occusense_nn::loss::BceWithLogits;
use occusense_nn::optim::{AdamW, Optimizer};
use occusense_nn::train::{TrainConfig, TrainWorkspace, Trainer};
use occusense_nn::Mlp;
use occusense_tensor::kernels::{gemm_bias_act, gemm_nt, gemm_tn, Parallelism, Scratch};
use occusense_tensor::Matrix;
use occusense_wire::{decode_frame, BatchFrame, Encoder, Frame, DEFAULT_MAX_PAYLOAD};
use std::hint::black_box;
use std::time::Instant;

/// Timing rounds per probe; each probe reports the median round.
const ROUNDS: usize = 7;

/// The paper MLP's layer widths with the 64-subcarrier CSI input.
const PAPER_WIDTHS: [usize; 5] = [64, 128, 256, 128, 1];

/// Batch size of the paper's training loop.
const TRAIN_BATCH: usize = 256;

/// Median over [`ROUNDS`] of `f`'s per-call time, µs.
fn median_us(iters: usize, mut f: impl FnMut()) -> f64 {
    f();
    let rounds: Vec<f64> = (0..ROUNDS)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..iters {
                f();
            }
            t.elapsed().as_secs_f64() * 1e6 / iters as f64
        })
        .collect();
    median(&rounds)
}

/// The `core` probes: `core.gru_step_us_per_row` (`step_batch_into`
/// on `gru_batch` rows), `core.mlp_score_us_per_row`
/// (`predict_proba_slice_into` at batch 32) and `core.ws_reallocs`, the
/// growth of both workspaces after warm-up.
pub fn core(
    sheet: &mut Sheet,
    gru: &TemporalDetector,
    mlp: &OccupancyDetector,
    records: &[CsiRecord],
    gru_batch: usize,
) {
    let batch = gru_batch.clamp(1, records.len());
    let rows = &records[..batch];
    let mut h = gru.zero_state(batch);
    let mut ws = TemporalWorkspace::new();
    let mut out = Vec::new();
    gru.step_batch_into(rows, &mut h, &mut ws, &mut out);
    let gru_warm = ws.reallocs();
    let us = median_us(200, || {
        gru.step_batch_into(black_box(rows), &mut h, &mut ws, &mut out);
    });
    sheet.layer("core.gru_step_us_per_row", us / batch as f64, "us");

    let batch = 32.min(records.len());
    let rows = &records[..batch];
    let mut score_ws = ScoreWorkspace::new();
    mlp.predict_proba_slice_into(rows, &mut score_ws, &mut out);
    let mlp_warm = score_ws.reallocs();
    let us = median_us(300, || {
        mlp.predict_proba_slice_into(black_box(rows), &mut score_ws, &mut out);
    });
    sheet.layer("core.mlp_score_us_per_row", us / batch as f64, "us");
    let grown = ws.reallocs() - gru_warm + score_ws.reallocs() - mlp_warm;
    sheet.layer("core.ws_reallocs", grown as f64, "count");
}

/// Deterministic pseudo-random design matrix (the probes' inputs; the
/// values do not change the work done).
fn synthetic(rows: usize, cols: usize, salt: u64) -> Matrix {
    let mut state = 0x2545_f491_4f6c_dd1d_u64 ^ salt;
    Matrix::from_fn(rows, cols, |_, _| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state % 2001) as f64 / 1000.0 - 1.0
    })
}

/// `nn.train_batch_us`, `nn.train_reallocs` and `nn.adamw_step_us` on
/// the paper MLP at batch 256.
pub fn train_step(sheet: &mut Sheet) {
    let mut mlp = Mlp::paper_classifier(PAPER_WIDTHS[0], 0);
    let x = synthetic(TRAIN_BATCH, PAPER_WIDTHS[0], 1);
    let y = Matrix::from_fn(TRAIN_BATCH, 1, |r, _| (r % 2) as f64);
    let trainer = Trainer::new(TrainConfig::default());
    let mut optim = AdamW::new(5e-3, 1e-4);
    let mut ws = TrainWorkspace::new();
    // One epoch-equivalent of warm-up sizes every buffer.
    for _ in 0..4 {
        trainer.train_batch_with(&mut mlp, &x, &y, &BceWithLogits, &mut optim, &mut ws);
    }
    let warm = ws.reallocs();
    let us = median_us(20, || {
        black_box(trainer.train_batch_with(&mut mlp, &x, &y, &BceWithLogits, &mut optim, &mut ws));
    });
    sheet.layer("nn.train_batch_us", us, "us");
    sheet.layer("nn.train_reallocs", (ws.reallocs() - warm) as f64, "count");

    let grads: Vec<(Vec<f64>, Vec<f64>)> = mlp
        .layers()
        .iter()
        .enumerate()
        .map(|(i, l)| {
            let g = synthetic(1, l.weights.len() + l.bias.len(), 7 + i as u64).into_vec();
            let (gw, gb) = g.split_at(l.weights.len());
            (gw.to_vec(), gb.to_vec())
        })
        .collect();
    let us = median_us(50, || {
        for (i, (gw, gb)) in grads.iter().enumerate() {
            let layer = &mut mlp.layers_mut()[i];
            optim.update(2 * i, layer.weights.as_mut_slice(), gw);
            optim.update(2 * i + 1, &mut layer.bias, gb);
        }
    });
    sheet.layer("nn.adamw_step_us", us, "us");
    sheet.line(format!(
        "nn probe: paper MLP {PAPER_WIDTHS:?}, batch {TRAIN_BATCH}, AdamW over {} parameters",
        mlp.n_parameters()
    ));
}

fn relu(v: f64) -> f64 {
    v.max(0.0)
}

/// `tensor.gemm_gflops.fwd/.bwd` at the paper MLP's training shapes
/// (batch 256), and `tensor.pool_workers` under the default policy.
/// FLOPs are computed from shapes: `2·m·k·n` per GEMM.
pub fn gemm(sheet: &mut Sheet) {
    let m = TRAIN_BATCH;
    let mut scratch = Scratch::with_parallelism(Parallelism::default());
    let layers: Vec<(usize, usize, Matrix, Matrix, Vec<f64>)> = PAPER_WIDTHS
        .windows(2)
        .enumerate()
        .map(|(i, w)| {
            let (k, n) = (w[0], w[1]);
            let x = synthetic(m, k, 11 + i as u64);
            let wt = synthetic(k, n, 21 + i as u64);
            (k, n, x, wt, vec![0.1; n])
        })
        .collect();
    let flops_fwd: f64 = layers.iter().map(|l| 2.0 * (m * l.0 * l.1) as f64).sum();
    let mut z: Vec<Vec<f64>> = layers.iter().map(|l| vec![0.0; m * l.1]).collect();
    let mut a = z.clone();
    let fwd_us = median_us(20, || {
        for (i, (k, n, x, w, b)) in layers.iter().enumerate() {
            gemm_bias_act(
                m,
                *k,
                *n,
                x.as_slice(),
                w.as_slice(),
                b,
                &mut z[i],
                &mut a[i],
                relu,
                &mut scratch,
            );
        }
        black_box(&a);
    });
    // Backward: grad W = xᵀ·δ (gemm_tn) and grad input = δ·Wᵀ (gemm_nt).
    let deltas: Vec<Matrix> = layers
        .iter()
        .enumerate()
        .map(|(i, l)| synthetic(m, l.1, 31 + i as u64))
        .collect();
    let mut gw: Vec<Vec<f64>> = layers.iter().map(|l| vec![0.0; l.0 * l.1]).collect();
    let mut gx: Vec<Vec<f64>> = layers.iter().map(|l| vec![0.0; m * l.0]).collect();
    let flops_bwd = 2.0 * flops_fwd;
    let bwd_us = median_us(20, || {
        for (i, (k, n, x, w, _)) in layers.iter().enumerate() {
            let d = deltas[i].as_slice();
            gemm_tn(m, *k, *n, x.as_slice(), d, &mut gw[i], &mut scratch);
            gemm_nt(m, *n, *k, d, w.as_slice(), &mut gx[i], &mut scratch);
        }
        black_box(&gx);
    });
    sheet.layer(
        "tensor.gemm_gflops.fwd",
        flops_fwd / (fwd_us * 1e3),
        "GFLOP/s",
    );
    sheet.layer(
        "tensor.gemm_gflops.bwd",
        flops_bwd / (bwd_us * 1e3),
        "GFLOP/s",
    );
    sheet.layer(
        "tensor.pool_workers",
        scratch.pool_workers().unwrap_or(0) as f64,
        "count",
    );
    sheet.line(format!(
        "tensor probe: FLOPs from shapes, batch {m}, widths {PAPER_WIDTHS:?}: fwd {flops_fwd:.0} FLOP/pass (gemm_bias_act), bwd {flops_bwd:.0} FLOP/pass (gemm_tn + gemm_nt); default parallelism {:?}",
        Parallelism::default()
    ));
}

/// `wire.encode_ns_per_record` / `wire.decode_ns_per_record`: codec
/// replay of `records` as 16-record `Batch` frames.
pub fn codec(sheet: &mut Sheet, records: &[CsiRecord]) {
    let frames: Vec<Frame> = records
        .chunks(16)
        .enumerate()
        .map(|(i, chunk)| {
            Frame::Batch(BatchFrame {
                first_seq: (i * 16) as u64,
                records: chunk.iter().map(|r| (*r, None)).collect(),
            })
        })
        .collect();
    let mut encoder = Encoder::new();
    let mut bytes = Vec::new();
    let n = records.len() as f64;
    let encode_us = median_us(3, || {
        bytes.clear();
        for f in &frames {
            encoder
                .encode_into(f, &mut bytes)
                .expect("batch within protocol bounds");
        }
    });
    let decode_us = median_us(3, || {
        let mut at = 0;
        while at < bytes.len() {
            let (frame, used) =
                decode_frame(&bytes[at..], DEFAULT_MAX_PAYLOAD).expect("own encoding decodes");
            black_box(frame);
            at += used;
        }
    });
    sheet.layer("wire.encode_ns_per_record", encode_us * 1e3 / n, "ns");
    sheet.layer("wire.decode_ns_per_record", decode_us * 1e3 / n, "ns");
}

/// Traffic metrics of the wire layer (the codec replay is probed on
/// every workload).
pub const WIRE_TRAFFIC: &[(&str, &str)] = &[
    ("wire.net_us.p50", "us"),
    ("wire.net_us.p99", "us"),
    ("wire.send_us.p50", "us"),
    ("wire.records_per_frame", "records"),
    ("wire.nacks", "count"),
    ("wire.unrouted", "count"),
];

/// Metrics of the fleet layer.
pub const FLEET: &[(&str, &str)] = &[
    ("fleet.launch_s", "s"),
    ("fleet.place_us", "us"),
    ("fleet.shutdown_s", "s"),
    ("fleet.heartbeats", "count"),
    ("fleet.unaccounted", "count"),
];

/// Metrics of the serving layer's traffic.
pub const SERVE: &[(&str, &str)] = &[
    ("serve.submit_us.p50", "us"),
    ("serve.submit_us.p99", "us"),
    ("serve.server_ms.p50", "ms"),
    ("serve.server_ms.p99", "ms"),
    ("serve.handoff_us.p50", "us"),
    ("serve.batch_size.mean", "records"),
    ("serve.inference_us.mean", "us"),
    ("serve.deadline_flush_frac", "share"),
    ("serve.queue_hwm", "records"),
    ("serve.dropped", "count"),
    ("serve.state_rows", "count"),
    ("serve.unaccounted", "count"),
];

/// Reports a layer the workload bypasses: it did no work, so its
/// counts and times are 0.
pub fn bypassed(sheet: &mut Sheet, metrics: &[(&str, &'static str)]) {
    for &(name, unit) in metrics {
        sheet.layer(name, 0.0, unit);
    }
}
