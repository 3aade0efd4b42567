//! `serve-gru-open`: the in-process stateful GRU runtime under
//! open-loop 20 Hz sensors.
//!
//! Steps: `paper` (1,000 sensors, 20k rec/s) and `high` (3,000 sensors,
//! 60k rec/s, under a third of the closed-loop flood rate of a slow
//! spell of the 2-core host), then a closed-loop flood whose window
//! stays below the shards' combined queue capacity, so no step drops a
//! record. A step whose generator ran late is invalid and measured
//! again. Open-loop records are timed from their due time. Latency
//! quantiles are the quiet quartile over 32 equal sub-windows (~150 ms)
//! of their step, so a burst of interference from a shared host moves
//! the windows it hits, not the metric. The flood is reported as
//! CPU time per verified prediction, which time-slicing of a shared
//! host does not move, where a wall-clock rate would.
//! `wire` and `fleet` do no work here.

use crate::report::{cpu_s, ns_since, Sheet, Spans};
use crate::stats::{median, on_time_windows, quiet_cost_per_item, windowed_percentile, Summary};
use crate::verify::{Delivery, Ledger, Reference};
use crate::{probes, Outcome, RunConfig, LIMIT_MS, SPAN_CAP};
use occusense_core::temporal::{TemporalConfig, TemporalDetector};
use occusense_dataset::CsiRecord;
use occusense_serve::{Prediction, SensorClient, ServeConfig, ServeRuntime};
use occusense_sim::{fleet_stream, simulate, FleetScenario, ScenarioConfig};
use std::sync::mpsc::Receiver;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The paper's per-sensor sampling period (20 Hz).
const PERIOD_NS: u64 = 50_000_000;
const PAPER_SENSORS: usize = 1_000;
const HIGH_SENSORS: usize = 3_000;
/// Re-measurements of a step whose generator ran late.
const MAX_RETRIES: usize = 2;
const FLOOD_SENSORS: usize = 1_000;
/// Records in flight during the flood: below the two shards' combined
/// queue capacity, so the closed loop never drops.
const FLOOD_WINDOW: usize = 1_024;
/// Interval between the flood's CPU-time marks (25 clock ticks of the
/// two cores).
const CPU_MARK: Duration = Duration::from_millis(250);
/// Distinct input streams; sensor `i` replays stream `i % POOL_STREAMS`.
const POOL_STREAMS: usize = 8;
const POOL_LEN: usize = 2_048;
const SETUPS: usize = 5;
/// Shares of `--seconds` for each of the `paper` and `high` steps and
/// for the flood.
const STEP_SHARE: f64 = 0.3;
const FLOOD_SHARE: f64 = 0.4;
/// Sub-windows per step for the latency quantiles and the flood rate.
const WINDOWS: u64 = 32;
/// Per-shard queue capacity: about half a second of the `high` step's
/// arrivals, so a stall of the shared host delays records instead of
/// dropping them.
const QUEUE_CAPACITY: usize = 16_384;
const SHARDS: usize = 2;
/// Share of each step discarded as warm-up in the latency statistics.
const WARM_SHARE: f64 = 0.2;
/// A sub-window in which the generator ran later than this at p99 is
/// left out of the latency quantiles: the lateness is the host's, not
/// the program's.
const MAX_WINDOW_LAG_MS: f64 = 1.0;
/// A step with fewer on-time sub-windows is invalid.
const MIN_ON_TIME_WINDOWS: usize = 8;
/// Largest tolerated share of a step's records without a prediction.
const MAX_FAIL_SHARE: f64 = 0.01;
/// The GRU presence accuracy below which the run fails.
const ACCURACY_FLOOR: f64 = 0.75;

/// The served model's recipe: the default temporal configuration (24
/// hidden units, so 1,000 sensor states span ~190 KB and 3,000 ~580 KB).
fn recipe(seed: u64) -> TemporalConfig {
    TemporalConfig {
        seed,
        ..TemporalConfig::default()
    }
}

/// One scored record as the receiver saw it.
#[derive(Clone, Copy, Default)]
struct Receipt {
    step: u8,
    sensor: u32,
    seq: u32,
    recv_ns: u64,
    server_ns: u64,
    bits: u64,
}

/// Everything a finished step reports.
struct StepResult {
    name: String,
    offered_rps: f64,
    e2e: Summary,
    /// Quiet quartile of the sub-windows' exact p50s, p99s and p90s.
    e2e_p50: f64,
    e2e_p99: f64,
    e2e_p90: f64,
    server: Summary,
    lag_p99_ms: f64,
    /// Sub-windows in which the generator kept up.
    on_time: usize,
    attempted: u64,
    sent: u64,
    delivered: u64,
    dropped: u64,
    growing: bool,
    state_rows: usize,
    submit_us: Vec<f64>,
    handoff_us: Vec<f64>,
    lags_us: Vec<f64>,
}

impl StepResult {
    fn valid(&self) -> bool {
        self.on_time >= MIN_ON_TIME_WINDOWS
    }

    fn fail_share(&self) -> f64 {
        1.0 - self.delivered as f64 / self.attempted.max(1) as f64
    }

    fn passes(&self) -> bool {
        self.valid()
            && self.e2e_p99 <= LIMIT_MS
            && self.fail_share() <= MAX_FAIL_SHARE
            && !self.growing
    }

    fn describe(&self) -> String {
        format!(
            "step {:<6} offered {:>7.0} rec/s · e2e {} · windowed p50 {:.4} ms · p99 {:.4} ms · p90 {:.4} ms · server {} · gen lag p99 {:.3} ms, on time in {}/{WINDOWS} windows{} · sent {} delivered {} dropped {}{} → {}",
            self.name,
            self.offered_rps,
            self.e2e.describe("ms"),
            self.e2e_p50,
            self.e2e_p99,
            self.e2e_p90,
            self.server.describe("ms"),
            self.lag_p99_ms,
            self.on_time,
            if self.valid() { "" } else { " (INVALID: generator behind)" },
            self.sent,
            self.delivered,
            self.dropped,
            if self.growing { " · queue growing" } else { "" },
            if self.passes() { "ok" } else { "over limit" }
        )
    }
}

/// The runtime plus the one bench thread's receive side: it drains
/// predictions whenever it is not submitting, so the bench adds one
/// thread, not two, to the runtime's workers on a 2-core host.
struct Harness {
    rt: ServeRuntime,
    rx: Receiver<Prediction>,
    epoch: Instant,
    receipts: Vec<Receipt>,
    /// Queue-depth samples `(ns since the epoch, records queued)`.
    depths: Vec<(u64, u64)>,
    next_sample: Instant,
}

impl Harness {
    fn dropped_now(&self) -> u64 {
        self.rt.shard_counters().iter().map(|q| q.dropped).sum()
    }

    fn take(&mut self, p: Prediction) {
        let now = Instant::now();
        let Some((step, sensor)) = p.sensor_id.split_once('-') else {
            return;
        };
        self.receipts.push(Receipt {
            step: step.parse().unwrap_or(u8::MAX),
            sensor: sensor.parse().unwrap_or(u32::MAX),
            seq: p.seq as u32,
            recv_ns: ns_since(self.epoch, now),
            server_ns: p.latency.as_nanos() as u64,
            bits: p.proba.to_bits(),
        });
    }

    /// Receives predictions until `deadline`.
    fn receive_until(&mut self, deadline: Instant) {
        loop {
            let now = Instant::now();
            if now >= deadline {
                return;
            }
            self.receive_some(deadline - now);
        }
    }

    /// Waits up to `timeout` for predictions and takes every one that
    /// is ready; samples the queue depth every 50 ms.
    fn receive_some(&mut self, timeout: Duration) {
        if let Ok(p) = self.rx.recv_timeout(timeout) {
            self.take(p);
            while let Ok(p) = self.rx.try_recv() {
                self.take(p);
            }
        }
        let now = Instant::now();
        if now >= self.next_sample {
            let depth = self.rt.shard_counters().iter().map(|q| q.depth).sum();
            self.depths.push((ns_since(self.epoch, now), depth));
            self.next_sample = now + Duration::from_millis(50);
        }
    }

    /// Receives until every record the step sent since `first` is
    /// answered or dropped, or `grace` passes.
    fn settle(&mut self, first: usize, dropped_before: u64, sent: u64, grace: Duration) {
        let deadline = Instant::now() + grace;
        while Instant::now() < deadline {
            let answered =
                (self.receipts.len() - first) as u64 + self.dropped_now() - dropped_before;
            if answered >= sent {
                return;
            }
            self.receive_some(Duration::from_millis(2));
        }
    }
}

struct Pool {
    streams: Vec<Vec<CsiRecord>>,
}

impl Pool {
    /// Each stream is one simulated sensor, rotated so the pool starts
    /// at different points of the scenario (occupied and empty).
    fn generate(seed: u64) -> Self {
        let streams = (0..POOL_STREAMS)
            .map(|p| {
                let mut s: Vec<CsiRecord> =
                    fleet_stream(FleetScenario::duration_s(POOL_LEN), seed, p as u64)
                        .take(POOL_LEN)
                        .collect();
                s.rotate_left(p * POOL_LEN / POOL_STREAMS);
                s
            })
            .collect();
        Self { streams }
    }

    /// Record `seq` of `sensor`'s stream (replayed cyclically).
    fn record(&self, sensor: usize, seq: usize) -> &CsiRecord {
        &self.streams[sensor % POOL_STREAMS][seq % POOL_LEN]
    }
}

struct GruReference {
    detector: TemporalDetector,
    pool: Arc<Pool>,
    /// Full-stream replays, for sensors whose delivered stream is an
    /// unbroken prefix.
    prefix: Vec<Vec<u64>>,
}

impl GruReference {
    fn new(detector: TemporalDetector, pool: Arc<Pool>) -> Self {
        let prefix = pool
            .streams
            .iter()
            .map(|s| {
                detector
                    .score_stream(s)
                    .into_iter()
                    .map(|(_, p)| p.to_bits())
                    .collect()
            })
            .collect();
        Self {
            detector,
            pool,
            prefix,
        }
    }
}

/// Stream ids of this workload: `step · 100 000 + sensor`.
fn stream_id(step: u8, sensor: u32) -> u32 {
    u32::from(step) * 100_000 + sensor
}

impl Reference for GruReference {
    fn expected(&self, stream: u32, seqs: &[u64]) -> Vec<u64> {
        let sensor = (stream % 100_000) as usize;
        let contiguous = seqs.iter().enumerate().all(|(i, &s)| s == i as u64);
        let prefix = &self.prefix[sensor % POOL_STREAMS];
        if contiguous && seqs.len() <= prefix.len() {
            return prefix[..seqs.len()].to_vec();
        }
        // A gap (a dropped record) changes the carried state: replay
        // exactly the delivered records from a zero state.
        let records: Vec<CsiRecord> = seqs
            .iter()
            .map(|&s| *self.pool.record(sensor, s as usize))
            .collect();
        self.detector
            .score_stream(&records)
            .into_iter()
            .map(|(_, p)| p.to_bits())
            .collect()
    }
}

/// One open-loop step: `sensors` sensors at 20 Hz for `secs`.
#[allow(clippy::too_many_arguments)]
fn open_step(
    h: &mut Harness,
    pool: &Arc<Pool>,
    step: u8,
    name: &str,
    sensors: usize,
    secs: f64,
    seed: u64,
    trace: bool,
    spans: &mut Spans,
) -> StepResult {
    let periods = ((secs * 1e9) as u64 / PERIOD_NS).max(2) as usize;
    // Seeded random phases, stratified: sensors are shuffled into
    // `sensors` equal slots of the period and jittered within their
    // slot, so arrivals are random yet evenly spread for every seed.
    let mut state = seed ^ 0x5851_f42d_4c95_7f2d ^ u64::from(step);
    let mut next = || {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        state >> 11
    };
    let mut slots: Vec<u64> = (0..sensors as u64).collect();
    for i in (1..slots.len()).rev() {
        slots.swap(i, (next() % (i as u64 + 1)) as usize);
    }
    let slot_ns = PERIOD_NS / sensors as u64;
    let phase: Vec<u64> = slots
        .iter()
        .map(|&k| k * slot_ns + next() % slot_ns)
        .collect();
    let mut order: Vec<usize> = (0..sensors).collect();
    order.sort_by_key(|&i| phase[i]);
    let mut pos_of = vec![0usize; sensors];
    for (pos, &i) in order.iter().enumerate() {
        pos_of[i] = pos;
    }
    let clients: Vec<SensorClient> = (0..sensors)
        .map(|i| h.rt.client(&format!("{step}-{i}")))
        .collect();
    let mut clients = clients;
    let first = h.receipts.len();
    let depths_first = h.depths.len();
    let dropped_before = h.dropped_now();
    // Start 20 ms out, after every client exists.
    let t0 = Instant::now() + Duration::from_millis(20);
    let t0_ns = ns_since(h.epoch, t0);
    let n = sensors * periods;
    let mut lags = Vec::with_capacity(n);
    let mut submits = Vec::with_capacity(if trace { n } else { 0 });
    let mut sent = 0u64;
    for k in 0..periods {
        for &i in &order {
            let due = t0 + Duration::from_nanos(k as u64 * PERIOD_NS + phase[i]);
            h.receive_until(due);
            let now = Instant::now();
            lags.push(now.saturating_duration_since(due).as_nanos() as u32);
            let record = *pool.record(i, k);
            if clients[i].submit_sequenced(k as u64, record, None).is_ok() {
                sent += 1;
            }
            if trace {
                submits.push(now.elapsed().as_nanos() as u32);
            }
        }
    }
    h.settle(first, dropped_before, sent, Duration::from_secs(5));
    let warm_ns = t0_ns + (periods as f64 * WARM_SHARE) as u64 * PERIOD_NS;
    let end_ns = t0_ns + periods as u64 * PERIOD_NS;
    let mut e2e = Vec::with_capacity(sensors * periods);
    let mut timed = Vec::with_capacity(sensors * periods);
    let mut server = Vec::with_capacity(sensors * periods);
    let mut handoff_us = Vec::new();
    let mut submit_us = Vec::new();
    for r in &h.receipts[first..] {
        let (i, k) = (r.sensor as usize, r.seq as usize);
        let j = k * sensors + pos_of[i];
        let due_ns = t0_ns + k as u64 * PERIOD_NS + phase[i];
        if due_ns < warm_ns {
            continue;
        }
        let e2e_ns = r.recv_ns.saturating_sub(due_ns);
        e2e.push(e2e_ns as f64 / 1e6);
        timed.push((due_ns, e2e_ns as f64 / 1e6));
        server.push(r.server_ns as f64 / 1e6);
        if trace {
            let lag = u64::from(lags[j]);
            let submit = u64::from(submits[j]);
            submit_us.push(submit as f64 / 1e3);
            let handoff = e2e_ns as i64 - (lag + submit + r.server_ns) as i64;
            handoff_us.push(handoff as f64 / 1e3);
            if j.is_multiple_of(64) && spans.len() < SPAN_CAP {
                let start = due_ns + lag;
                let root = spans.push(0, "record", due_ns, r.recv_ns);
                spans.push(root, "gen.lag", due_ns, start);
                spans.push(root, "serve.submit", start, start + submit);
                spans.push(
                    root,
                    "serve.server",
                    start + submit,
                    start + submit + r.server_ns,
                );
                spans.push(
                    root,
                    "serve.handoff",
                    start + submit + r.server_ns,
                    r.recv_ns,
                );
            }
        }
    }
    let lags_us: Vec<f64> = lags
        .iter()
        .enumerate()
        .filter(|(j, _)| (*j / sensors) as f64 >= periods as f64 * WARM_SHARE)
        .map(|(_, &l)| f64::from(l) / 1e3)
        .collect();
    let mut lag_sorted = lags_us.clone();
    let lag = Summary::of(&mut lag_sorted);
    let growing = queue_growing(&h.depths[depths_first..], warm_ns, end_ns);
    let due_lags: Vec<(u64, f64)> = lags
        .iter()
        .enumerate()
        .map(|(j, &l)| {
            let (k, i) = (j / sensors, order[j % sensors]);
            (t0_ns + k as u64 * PERIOD_NS + phase[i], f64::from(l) / 1e3)
        })
        .collect();
    let keep = on_time_windows(&due_lags, warm_ns, end_ns, WINDOWS, MAX_WINDOW_LAG_MS * 1e3);
    let result = StepResult {
        name: name.to_string(),
        offered_rps: sensors as f64 * 1e9 / PERIOD_NS as f64,
        e2e: Summary::of(&mut e2e),
        e2e_p50: windowed_percentile(&timed, warm_ns, end_ns, WINDOWS, 50.0, &keep),
        e2e_p99: windowed_percentile(&timed, warm_ns, end_ns, WINDOWS, 99.0, &keep),
        e2e_p90: windowed_percentile(&timed, warm_ns, end_ns, WINDOWS, 90.0, &keep),
        server: Summary::of(&mut server),
        lag_p99_ms: lag.p99 / 1e3,
        on_time: keep.iter().filter(|&&k| k).count(),
        attempted: lags.len() as u64,
        sent,
        delivered: (h.receipts.len() - first) as u64,
        dropped: h.dropped_now() - dropped_before,
        growing,
        state_rows: h.rt.active_sensor_states(),
        submit_us,
        handoff_us,
        lags_us,
    };
    for i in 0..sensors {
        h.rt.evict_sensor(&format!("{step}-{i}"));
    }
    result
}

/// Whether the sampled queue depth rose over the measured window: the
/// second half's mean above the first half's by more than a quarter of
/// the shards' combined capacity.
fn queue_growing(depths: &[(u64, u64)], from_ns: u64, to_ns: u64) -> bool {
    let mid = from_ns + (to_ns - from_ns) / 2;
    let half = |lo: u64, hi: u64| {
        let v: Vec<f64> = depths
            .iter()
            .filter(|(t, _)| *t >= lo && *t < hi)
            .map(|&(_, d)| d as f64)
            .collect();
        if v.is_empty() {
            0.0
        } else {
            crate::stats::mean(&v)
        }
    };
    let capacity = (SHARDS * QUEUE_CAPACITY) as f64;
    half(mid, to_ns) > half(from_ns, mid) + capacity / 4.0
}

/// What the closed-loop flood reports.
struct FloodResult {
    /// Predictions per second (median of the sub-windows).
    rps: f64,
    /// CPU time of the whole process per prediction after warm-up, µs:
    /// the quiet quartile over intervals of `CPU_MARK`.
    cpu_us_per_rec: f64,
    /// Send-to-prediction latency after warm-up.
    lat: Summary,
    /// Records attempted.
    attempted: u64,
    /// Records accepted.
    sent: u64,
}

/// Closed-loop flood: `FLOOD_WINDOW` records in flight, round-robin
/// over `FLOOD_SENSORS`.
fn flood(h: &mut Harness, pool: &Pool, step: u8, secs: f64) -> FloodResult {
    let mut clients: Vec<SensorClient> = (0..FLOOD_SENSORS)
        .map(|i| h.rt.client(&format!("{step}-{i}")))
        .collect();
    let first = h.receipts.len();
    let dropped_before = h.dropped_now();
    let start = Instant::now();
    let warm = start + Duration::from_secs_f64(secs * WARM_SHARE);
    let warm_ns = ns_since(h.epoch, warm);
    let end = start + Duration::from_secs_f64(secs);
    let end_ns = ns_since(h.epoch, end);
    let mut sends: Vec<u64> = Vec::new();
    let mut sent = 0u64;
    // (CPU µs, predictions received) every `CPU_MARK` after warm-up.
    let mut marks: Vec<(f64, u64)> = Vec::new();
    let mut next_mark = warm;
    let mut now = start;
    while now < end {
        if now >= next_mark {
            marks.push((cpu_s("self") * 1e6, h.receipts.len() as u64));
            next_mark = now + CPU_MARK;
        }
        while sends.len().saturating_sub(h.receipts.len() - first) < FLOOD_WINDOW {
            let j = sends.len();
            let (k, i) = (j / FLOOD_SENSORS, j % FLOOD_SENSORS);
            let t = Instant::now();
            if clients[i]
                .submit_sequenced(k as u64, *pool.record(i, k), None)
                .is_ok()
            {
                sent += 1;
            }
            sends.push(ns_since(h.epoch, t));
        }
        h.receive_some(Duration::from_millis(1));
        now = Instant::now();
    }
    marks.push((cpu_s("self") * 1e6, h.receipts.len() as u64));
    let cpu_us_per_rec = quiet_cost_per_item(&marks);
    h.settle(first, dropped_before, sent, Duration::from_secs(5));
    let mut lat = Vec::new();
    let width = (end_ns - warm_ns) / WINDOWS;
    let mut per_window = vec![0u64; WINDOWS as usize];
    for r in &h.receipts[first..] {
        let j = r.seq as usize * FLOOD_SENSORS + r.sensor as usize;
        if r.recv_ns >= warm_ns && r.recv_ns < end_ns {
            if let Some(n) = per_window.get_mut(((r.recv_ns - warm_ns) / width) as usize) {
                *n += 1;
            }
            if let Some(&sent_ns) = sends.get(j) {
                lat.push(r.recv_ns.saturating_sub(sent_ns) as f64 / 1e6);
            }
        }
    }
    for i in 0..FLOOD_SENSORS {
        h.rt.evict_sensor(&format!("{step}-{i}"));
    }
    let rates: Vec<f64> = per_window
        .iter()
        .map(|&n| n as f64 / (width as f64 / 1e9))
        .collect();
    FloodResult {
        rps: median(&rates),
        cpu_us_per_rec,
        lat: Summary::of(&mut lat),
        attempted: sends.len() as u64,
        sent,
    }
}

/// Numbers the open-loop steps and re-measures a step whose generator
/// ran late: such a step says nothing about the program.
struct Steps<'a> {
    h: &'a mut Harness,
    pool: &'a Arc<Pool>,
    seed: u64,
    spans: &'a mut Spans,
    all: Vec<StepResult>,
    lines: Vec<String>,
}

impl Steps<'_> {
    /// Measures one step, retrying while it is invalid; returns the
    /// index of the attempt that counts, the one with the most on-time
    /// sub-windows (every attempt stays booked).
    fn measure(&mut self, name: &str, sensors: usize, secs: f64, trace: bool) -> usize {
        let first = self.all.len();
        for attempt in 0..=MAX_RETRIES {
            let step = open_step(
                self.h,
                self.pool,
                self.all.len() as u8,
                name,
                sensors,
                secs,
                self.seed,
                trace,
                self.spans,
            );
            self.lines.push(step.describe());
            let valid = step.valid();
            self.all.push(step);
            if valid || attempt == MAX_RETRIES {
                break;
            }
        }
        // The first attempt with the most on-time windows.
        (first..self.all.len())
            .rev()
            .max_by_key(|&i| self.all[i].on_time)
            .unwrap_or(first)
    }
}

fn serve_config() -> ServeConfig {
    ServeConfig {
        n_shards: SHARDS,
        queue_capacity: QUEUE_CAPACITY,
        online: None,
        ..ServeConfig::default()
    }
}

/// Runs the workload.
pub fn run(cfg: &RunConfig) -> Outcome {
    let mut sheet = Sheet::default();
    let mut spans = Spans::new(SPAN_CAP);
    // Set-up, several times: inputs, the served model, the runtime.
    let mut setup_s = Vec::new();
    let mut train_s = Vec::new();
    let mut train_cpu_s = Vec::new();
    let mut ready = None;
    for _ in 0..SETUPS {
        if let Some((rt, _, _, _)) = ready.take() {
            let rt: ServeRuntime = rt;
            rt.shutdown();
        }
        let t = Instant::now();
        let pool = Arc::new(Pool::generate(cfg.seed));
        let train = simulate(&ScenarioConfig::quick(1_200.0, cfg.seed ^ 0xa5a5));
        let (tt, cpu) = (Instant::now(), cpu_s("self"));
        let detector = TemporalDetector::train(&train, &recipe(cfg.seed));
        train_s.push(tt.elapsed().as_secs_f64());
        train_cpu_s.push(cpu_s("self") - cpu);
        let (rt, rx) = ServeRuntime::start_temporal(detector.clone(), serve_config())
            .expect("valid temporal serve config");
        setup_s.push(t.elapsed().as_secs_f64());
        ready = Some((rt, rx, pool, detector));
    }
    let (rt, rx, pool, detector) = ready.expect("at least one set-up");
    // Sized for every attempt at `paper` and `high` and written once, so
    // the peak RSS does not depend on how many attempts a run needed.
    let mut receipts = vec![
        Receipt::default();
        (PAPER_SENSORS + HIGH_SENSORS)
            * (1 + MAX_RETRIES)
            * (STEP_SHARE * cfg.seconds * 1e9) as usize
            / PERIOD_NS as usize
    ];
    receipts.clear();
    let mut h = Harness {
        rt,
        rx,
        epoch: cfg.epoch,
        receipts,
        depths: Vec::new(),
        next_sample: Instant::now(),
    };

    let secs = cfg.seconds;
    let mut steps = Steps {
        h: &mut h,
        pool: &pool,
        seed: cfg.seed,
        spans: &mut spans,
        all: Vec::new(),
        lines: Vec::new(),
    };
    let registry = steps.h.rt.metrics();
    let (batches0, flushes0) = (
        registry.counter("serve.batches").get(),
        registry.counter("serve.deadline_flushes").get(),
    );
    let paper = steps.measure("paper", PAPER_SENSORS, STEP_SHARE * secs, cfg.trace);
    let registry = steps.h.rt.metrics();
    let paper_flush_frac = (registry.counter("serve.deadline_flushes").get() - flushes0) as f64
        / (registry.counter("serve.batches").get() - batches0).max(1) as f64;
    let high = steps.measure("high", HIGH_SENSORS, STEP_SHARE * secs, cfg.trace);
    let peak_rss_mb = crate::report::peak_rss_mb();
    let queue_hwm = steps
        .h
        .rt
        .shard_counters()
        .iter()
        .map(|q| q.high_watermark)
        .max()
        .unwrap_or(0);
    let Steps { all, lines, .. } = steps;
    for line in lines {
        sheet.line(line);
    }
    let mut sent_total: u64 = all.iter().map(|s| s.sent).sum();
    let flood_step = all.len() as u8;
    let flood = flood(&mut h, &pool, flood_step, FLOOD_SHARE * secs);
    sent_total += flood.sent;
    sheet.line(format!(
        "step flood  closed loop, {FLOOD_SENSORS} sensors, window {FLOOD_WINDOW}: {:.0} rec/s · {:.4} CPU us/rec · latency {}",
        flood.rps,
        flood.cpu_us_per_rec,
        flood.lat.describe("ms")
    ));

    let registry = h.rt.metrics();
    let batch_mean = registry.histogram("serve.batch_size").mean();
    let inference_us = registry.histogram("serve.inference_ns").mean() / 1e3;
    let report = h.rt.shutdown();
    let dropped: u64 = report.shard_queues.iter().map(|q| q.dropped).sum();

    let (paper, high) = (&all[paper], &all[high]);
    sheet.e2e("setup_s", median(&setup_s), "s");
    sheet.e2e("lat_p50_ms", paper.e2e_p50, "ms");
    sheet.e2e("lat_p90_ms", paper.e2e_p90, "ms");
    sheet.e2e("lat_p50_ms.high", high.e2e_p50, "ms");
    sheet.e2e("lat_p90_ms.high", high.e2e_p90, "ms");
    sheet.e2e("flood_cpu_us_per_rec", flood.cpu_us_per_rec, "us");
    sheet.e2e("train_cpu_s", median(&train_cpu_s), "s");
    sheet.line(format!(
        "served GRU training: median of {SETUPS}: {:.4} s wall, {:.4} s CPU",
        median(&train_s),
        median(&train_cpu_s)
    ));
    sheet.meta(
        "offered_rps",
        all.iter()
            .map(|s| format!("{}={:.0}", s.name, s.offered_rps))
            .collect::<Vec<_>>()
            .join(" "),
    );
    sheet.meta(
        "sensors",
        format!("paper={PAPER_SENSORS} high={HIGH_SENSORS} flood={FLOOD_SENSORS}"),
    );
    sheet.meta("connections", 0);
    sheet.meta("generator_threads", 1);
    sheet.meta("shards", SHARDS);

    let mut ledger = Ledger {
        sent: sent_total,
        deliveries: Vec::with_capacity(h.receipts.len()),
        nacked: 0,
        dropped,
        residue: report.unaccounted_records(),
    };
    let mut correct = 0u64;
    for r in &h.receipts {
        ledger.deliveries.push(Delivery {
            stream: stream_id(r.step, r.sensor),
            seq: u64::from(r.seq),
            bits: r.bits,
        });
        let label = pool.record(r.sensor as usize, r.seq as usize).occupancy();
        correct += u64::from(u8::from(f64::from_bits(r.bits) > 0.5) == label);
    }
    let accuracy = correct as f64 / h.receipts.len().max(1) as f64;

    if cfg.trace {
        let open = [paper, high];
        let mut submit: Vec<f64> = open
            .iter()
            .flat_map(|s| s.submit_us.iter().copied())
            .collect();
        let submit = Summary::of(&mut submit);
        let mut handoff = paper.handoff_us.clone();
        let handoff = Summary::of(&mut handoff);
        let mut lags: Vec<f64> = open
            .iter()
            .flat_map(|s| s.lags_us.iter().copied())
            .collect();
        let lags = Summary::of(&mut lags);
        sheet.layer("serve.submit_us.p50", submit.p50, "us");
        sheet.layer("serve.submit_us.p99", submit.p99, "us");
        sheet.layer("serve.server_ms.p50", paper.server.p50, "ms");
        sheet.layer("serve.server_ms.p99", paper.server.p99, "ms");
        sheet.layer("serve.handoff_us.p50", handoff.p50, "us");
        sheet.layer("serve.batch_size.mean", batch_mean, "records");
        sheet.layer("serve.inference_us.mean", inference_us, "us");
        sheet.layer("serve.deadline_flush_frac", paper_flush_frac, "share");
        sheet.layer("serve.queue_hwm", queue_hwm as f64, "records");
        sheet.layer("serve.dropped", dropped as f64, "count");
        sheet.layer("serve.state_rows", high.state_rows as f64, "count");
        sheet.layer(
            "serve.unaccounted",
            report.unaccounted_records() as f64,
            "count",
        );
        let sample: Vec<CsiRecord> = pool
            .streams
            .iter()
            .flat_map(|s| s[..64].iter().copied())
            .collect();
        let mlp =
            occusense_fleet::bootstrap_detector(cfg.seed, occusense_dataset::FeatureView::Csi);
        probes::core(
            &mut sheet,
            &detector,
            &mlp,
            &sample,
            batch_mean.round() as usize,
        );
        probes::bypassed(&mut sheet, probes::WIRE_TRAFFIC);
        probes::codec(&mut sheet, &pool.streams[0]);
        probes::bypassed(&mut sheet, probes::FLEET);
        probes::train_step(&mut sheet);
        sheet.layer(
            "nn.gru_epoch_ms",
            median(&train_s) * 1e3 / recipe(0).epochs as f64,
            "ms",
        );
        probes::gemm(&mut sheet);
        sheet.layer("gen.lag_us.p99", lags.p99, "us");
        // The traced run's only extra work on the measured path is the
        // clock pair around each submit, on the generator thread.
        let wall_ns = 2.0 * STEP_SHARE * secs * 1e9;
        sheet.layer(
            "trace.overhead_frac",
            submit.n as f64 * crate::report::clock_pair_ns() / wall_ns,
            "share",
        );
        sheet.line(format!("serve batch size mean {batch_mean:.3} (registry sum/count), inference mean {inference_us:.3} us"));
    }

    let reference = GruReference::new(detector, Arc::clone(&pool));
    let attempted = all.iter().map(|s| s.attempted).sum::<u64>() + flood.attempted;
    Outcome {
        sheet,
        ledger,
        reference: Box::new(reference),
        accuracy,
        floor: ACCURACY_FLOOR,
        attempted,
        peak_rss_mb,
        spans,
    }
}
