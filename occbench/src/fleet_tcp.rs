//! `fleet-tcp-flood`: the deployment topology measured from a separate
//! process. One tenant (the `bootstrap_detector` MLP), one
//! `fleet_worker` process, two TCP sensor connections placed through
//! the controller, each replaying its capture cyclically in 16-record
//! `Batch` frames. One bench thread sends on both connections and one
//! thread per connection receives (it is blocked in `recv` almost all
//! the time). Two open-loop steps (`base` 10k rec/s, `high` 20k rec/s;
//! each record is sent in a frame of its own at a seeded random point
//! of its slot, alternating between the connections, and timed from
//! that due time) give the latencies; a closed-loop flood (a window of records
//! in flight per connection) gives the CPU time per prediction of the
//! bench plus the worker process. Latency quantiles are the quiet
//! quartile of the exact quantiles of 32 equal sub-windows of their
//! step. GRU state is not used.

use crate::report::{child_pids, cpu_s, ns_since, Sheet, Spans};
use crate::stats::{median, on_time_windows, quiet_cost_per_item, windowed_percentile, Summary};
use crate::verify::{Delivery, Ledger, Reference};
use crate::{probes, Outcome, RunConfig, LIMIT_MS, SPAN_CAP};
use occusense_core::detector::OccupancyDetector;
use occusense_core::temporal::{TemporalConfig, TemporalDetector};
use occusense_dataset::{CsiRecord, FeatureView};
use occusense_fleet::{
    bootstrap_detector, FleetConfig, FleetController, FleetReport, TenantRegistry, TenantSpec,
};
use occusense_serve::ServeReport;
use occusense_sim::{simulate, FleetScenario, ScenarioConfig};
use occusense_wire::{
    connect_tenant, tcp_connect, ClientEvent, TcpConfig, WireReceiver, WireSender,
};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

const TENANT: &str = "bench";
const CONNECTIONS: usize = 2;
/// Records per frame in the flood; the open-loop steps send each
/// record in a frame of its own when it is due.
const FRAME_RECORDS: usize = 16;
/// Offered rates of the open-loop steps, records/s over both
/// connections: 500 sensors at 20 Hz, and the paper's 1,000 (about a
/// quarter of the closed-loop flood rate of a slow spell of the 2-core
/// host, so queueing does not set the latency).
const BASE_RPS: f64 = 10_000.0;
const HIGH_RPS: f64 = 20_000.0;
/// Records in flight per connection during the flood.
const FLOOD_WINDOW: usize = 256;
/// Interval between the flood's CPU-time marks (25 clock ticks of the
/// two cores).
const CPU_MARK: Duration = Duration::from_millis(250);
/// Shares of `--seconds` for each of the `base` and `high` steps and
/// for the flood.
const STEP_SHARE: f64 = 0.3;
const FLOOD_SHARE: f64 = 0.4;
/// A sub-window in which the generator ran later than this at p99 is
/// left out of the latency quantiles: the lateness is the host's, not
/// the program's.
const MAX_WINDOW_LAG_MS: f64 = 2.0;
/// A step with fewer on-time sub-windows is invalid and is measured
/// again, at most `MAX_RETRIES` times.
const MIN_ON_TIME_WINDOWS: usize = 8;
const MAX_RETRIES: usize = 2;
const CAPTURE_LEN: usize = 4_096;
const SETUPS: usize = 5;
const WARM_SHARE: f64 = 0.2;
const ACCURACY_FLOOR: f64 = 0.75;
/// Reference trainings per set-up; `train_cpu_s` is the median over
/// set-ups of their mean CPU time.
const TRAININGS: usize = 3;
/// Sub-windows per step for the latency quantiles.
const SUB_WINDOWS: u64 = 32;

/// One open-loop step's statistics over both connections.
struct OpenStep {
    name: &'static str,
    offered_rps: f64,
    /// Due time to prediction.
    e2e: Summary,
    /// Quiet quartile of the sub-windows' exact p50s, p99s and p90s.
    e2e_p50: f64,
    e2e_p99: f64,
    e2e_p90: f64,
    server: Summary,
    net: Summary,
    lag: Summary,
    /// Sub-windows in which the generator kept up.
    on_time: usize,
}

impl OpenStep {
    fn valid(&self) -> bool {
        self.on_time >= MIN_ON_TIME_WINDOWS
    }
}

/// One scored record as a connection saw it.
#[derive(Clone, Copy)]
struct Receipt {
    seq: u64,
    recv_ns: u64,
    latency_ns: u64,
    bits: u64,
}

/// What one receiving thread brings home.
#[derive(Default)]
struct ConnRun {
    receipts: Vec<Receipt>,
    nacks: u64,
    /// Records still unanswered when the connection stopped waiting.
    unresolved: u64,
    errors: Vec<String>,
}

/// What the sending thread brings home.
#[derive(Default)]
struct SendLog {
    /// Due time of every record (its send time in the flood), by
    /// connection and sequence number.
    due_ns: Vec<Vec<u64>>,
    /// `send_batch` call duration of each record's frame (traced run
    /// only), by connection and sequence number.
    send_call_ns: Vec<Vec<u64>>,
    /// Per open-loop step, the attempt that counts.
    steps: Vec<SentStep>,
    /// Open-loop attempts measured again because the generator fell
    /// behind.
    retries: usize,
    /// Flood: CPU time of the bench and the worker per prediction, µs
    /// (the quiet quartile over intervals of `CPU_MARK`), and
    /// predictions per second, after warm-up.
    flood_cpu_us_per_rec: f64,
    flood_rps: f64,
    frames: u64,
    errors: Vec<String>,
}

/// One open-loop step as the sender measured it.
struct SentStep {
    /// `[from, to)` of its measured window, ns since the epoch.
    from: u64,
    to: u64,
    /// `(due time, µs the generator was late)` of each record after
    /// warm-up.
    lags: Vec<(u64, f64)>,
}

/// Counters the sender and the receivers share.
struct Shared {
    sent: [AtomicU64; CONNECTIONS],
    answered: [AtomicU64; CONNECTIONS],
    done: AtomicBool,
}

/// A connected sensor.
struct Conn {
    tx: WireSender,
    rx: WireReceiver,
}

/// Everything one set-up produced.
struct Fleet {
    controller: FleetController,
    conns: Vec<Conn>,
    captures: Vec<Vec<CsiRecord>>,
    reference: OccupancyDetector,
    launch_s: f64,
    place_us: Vec<f64>,
}

fn set_up(seed: u64, train_s: &mut Vec<f64>, train_cpu_s: &mut Vec<f64>) -> Fleet {
    let scenario = FleetScenario::storm(1, CONNECTIONS, CAPTURE_LEN, seed);
    let captures: Vec<Vec<CsiRecord>> = (0..CONNECTIONS)
        .map(|c| {
            scenario
                .sensor_stream(0, c as u64)
                .take(CAPTURE_LEN)
                .collect()
        })
        .collect();
    let model_seed = scenario.model_seed(0);
    let mut reference = None;
    let cpu = cpu_s("self");
    for _ in 0..TRAININGS {
        let t = Instant::now();
        reference = Some(bootstrap_detector(model_seed, FeatureView::Csi));
        train_s.push(t.elapsed().as_secs_f64());
    }
    train_cpu_s.push((cpu_s("self") - cpu) / TRAININGS as f64);
    let reference = reference.expect("at least one training");
    let worker_bin = std::env::current_exe()
        .expect("own executable path")
        .with_file_name("fleet_worker");
    let config = FleetConfig {
        worker_bin,
        procs: 1,
        shards: 2,
        ..FleetConfig::default()
    };
    let mut registry = TenantRegistry::new();
    registry
        .register(TenantSpec::new(TENANT, FeatureView::Csi, model_seed))
        .expect("valid tenant spec");
    let t = Instant::now();
    let mut controller = FleetController::launch(config, registry).expect("fleet launches");
    let launch_s = t.elapsed().as_secs_f64();
    let mut place_us = Vec::new();
    let conns = (0..CONNECTIONS)
        .map(|c| {
            let t = Instant::now();
            let placement = controller
                .place(TENANT, &format!("s{c}"))
                .expect("placement within budget");
            place_us.push(t.elapsed().as_secs_f64() * 1e6);
            let conn = tcp_connect(&placement.addr, TcpConfig::default()).expect("tcp connect");
            let (tx, rx) = connect_tenant(conn, TENANT, &format!("s{c}"), Duration::from_secs(10))
                .expect("handshake");
            Conn { tx, rx }
        })
        .collect();
    Fleet {
        controller,
        conns,
        captures,
        reference,
        launch_s,
        place_us,
    }
}

/// Ends both connections with a goodbye exchange and stops the fleet.
fn tear_down(mut fleet: Fleet, runs: &mut [ConnRun]) -> (FleetReport, f64) {
    for (c, (conn, run)) in fleet.conns.drain(..).zip(runs.iter_mut()).enumerate() {
        let Conn { tx, mut rx } = conn;
        if let Err(e) = tx.finish() {
            run.errors.push(format!("goodbye: {e}"));
        }
        let deadline = Instant::now() + Duration::from_secs(5);
        while Instant::now() < deadline {
            match rx.recv() {
                Ok(ClientEvent::Goodbye(_)) | Ok(ClientEvent::Closed) | Err(_) => break,
                Ok(_) => {}
            }
        }
        fleet.controller.release(TENANT, &format!("s{c}"));
    }
    let t = Instant::now();
    let report = fleet.controller.shutdown();
    (report, t.elapsed().as_secs_f64())
}

/// Receives one connection's predictions until the sender is done and
/// every record it sent is answered (or 5 s pass after that).
fn receive(
    rx: &mut WireReceiver,
    c: usize,
    shared: &Shared,
    epoch: Instant,
    bound: usize,
) -> ConnRun {
    let mut run = ConnRun {
        receipts: Vec::with_capacity(bound),
        ..ConnRun::default()
    };
    let mut done_at: Option<Instant> = None;
    loop {
        match rx.recv() {
            Ok(ClientEvent::Prediction(p)) => {
                run.receipts.push(Receipt {
                    seq: p.seq,
                    recv_ns: ns_since(epoch, Instant::now()),
                    latency_ns: p.latency_ns,
                    bits: p.proba.to_bits(),
                });
                shared.answered[c].fetch_add(1, Ordering::Release);
            }
            Ok(ClientEvent::Nack(_)) => {
                run.nacks += 1;
                shared.answered[c].fetch_add(1, Ordering::Release);
            }
            Ok(ClientEvent::TimedOut) => {}
            Ok(other) => {
                run.errors.push(format!("unexpected event {other:?}"));
                break;
            }
            Err(e) => {
                run.errors.push(format!("receive: {e}"));
                break;
            }
        }
        if shared.done.load(Ordering::Acquire) {
            let open =
                shared.sent[c].load(Ordering::Acquire) - shared.answered[c].load(Ordering::Acquire);
            if open == 0 {
                break;
            }
            if done_at.get_or_insert_with(Instant::now).elapsed() > Duration::from_secs(5) {
                run.errors
                    .push(format!("{open} records unanswered after the run"));
                run.unresolved = open;
                break;
            }
        }
    }
    run
}

/// Sends one frame of `records` records on connection `c`, booking
/// each record's due time.
#[allow(clippy::too_many_arguments)]
fn send_frame(
    tx: &mut WireSender,
    c: usize,
    capture: &[CsiRecord],
    records: usize,
    due_ns: u64,
    log: &mut SendLog,
    shared: &Shared,
    trace: bool,
    batch: &mut Vec<(CsiRecord, Option<u8>)>,
) -> bool {
    let first = log.due_ns[c].len();
    batch.clear();
    batch.extend((first..first + records).map(|s| (capture[s % CAPTURE_LEN], None)));
    let t = Instant::now();
    if let Err(e) = tx.send_batch(batch) {
        log.errors.push(format!("send: {e}"));
        return false;
    }
    if trace {
        let call = t.elapsed().as_nanos() as u64;
        log.send_call_ns[c].extend(std::iter::repeat_n(call, records));
    }
    log.due_ns[c].extend(std::iter::repeat_n(due_ns, records));
    log.frames += 1;
    shared.sent[c].fetch_add(records as u64, Ordering::Release);
    true
}

/// CPU time of this process and its children (the worker), s.
fn fleet_cpu_s() -> f64 {
    cpu_s("self") + child_pids().iter().map(|p| cpu_s(p)).sum::<f64>()
}

/// One open-loop step at `rps` records/s over both connections;
/// `None` when a send failed. Returns the step's measured window and
/// the generator's lag behind each record's due time after warm-up.
#[allow(clippy::too_many_arguments)]
fn open_step(
    txs: &mut [&mut WireSender],
    captures: &[Vec<CsiRecord>],
    shared: &Shared,
    cfg: &RunConfig,
    rps: f64,
    attempt: usize,
    log: &mut SendLog,
    batch: &mut Vec<(CsiRecord, Option<u8>)>,
) -> Option<SentStep> {
    let secs = STEP_SHARE * cfg.seconds;
    let interval_ns = 1e9 / rps;
    let records = (secs * rps) as u64;
    let warm_ns = (secs * WARM_SHARE * 1e9) as u64;
    let t0 = Instant::now() + Duration::from_millis(10);
    let t0_ns = ns_since(cfg.epoch, t0);
    let mut lags = Vec::with_capacity(records as usize);
    // Each record is due at a seeded random point of its slot, so
    // arrivals do not lock in phase with the worker's batch timer.
    let mut state = cfg.seed ^ rps.to_bits() ^ attempt as u64;
    for f in 0..records {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let jitter = (state >> 11) as f64 / (1u64 << 53) as f64;
        let c = f as usize % CONNECTIONS;
        let offset_ns = ((f as f64 + jitter) * interval_ns) as u64;
        let due = t0 + Duration::from_nanos(offset_ns);
        let wait = due.saturating_duration_since(Instant::now());
        if !wait.is_zero() {
            std::thread::sleep(wait);
        }
        if offset_ns >= warm_ns {
            let lag = Instant::now().saturating_duration_since(due);
            lags.push((t0_ns + offset_ns, lag.as_nanos() as f64 / 1e3));
        }
        let due_ns = t0_ns + offset_ns;
        if !send_frame(
            txs[c],
            c,
            &captures[c],
            1,
            due_ns,
            log,
            shared,
            cfg.trace,
            batch,
        ) {
            return None;
        }
    }
    // Let the step's last records come home before the next starts.
    let settle = Instant::now() + Duration::from_secs(2);
    while Instant::now() < settle
        && (0..CONNECTIONS).any(|c| {
            shared.sent[c].load(Ordering::Acquire) > shared.answered[c].load(Ordering::Acquire)
        })
    {
        std::thread::sleep(Duration::from_millis(1));
    }
    Some(SentStep {
        from: t0_ns + warm_ns,
        to: t0_ns + (secs * 1e9) as u64,
        lags,
    })
}

/// Drives both connections: the open-loop steps, then the flood.
fn send(
    txs: &mut [&mut WireSender],
    captures: &[Vec<CsiRecord>],
    shared: &Shared,
    cfg: &RunConfig,
) -> SendLog {
    let mut log = SendLog {
        due_ns: vec![Vec::new(); CONNECTIONS],
        send_call_ns: vec![Vec::new(); CONNECTIONS],
        ..SendLog::default()
    };
    let mut batch = Vec::with_capacity(FRAME_RECORDS);
    'steps: for rps in [BASE_RPS, HIGH_RPS] {
        // The attempt with the most on-time windows counts.
        let mut best: Option<(usize, SentStep)> = None;
        for attempt in 0..=MAX_RETRIES {
            let Some(step) = open_step(
                txs, captures, shared, cfg, rps, attempt, &mut log, &mut batch,
            ) else {
                break 'steps;
            };
            let on_time = on_time_windows(
                &step.lags,
                step.from,
                step.to,
                SUB_WINDOWS,
                MAX_WINDOW_LAG_MS * 1e3,
            )
            .iter()
            .filter(|&&k| k)
            .count();
            if best.as_ref().is_none_or(|b| on_time > b.0) {
                best = Some((on_time, step));
            }
            if on_time >= MIN_ON_TIME_WINDOWS || attempt == MAX_RETRIES {
                break;
            }
            log.retries += 1;
        }
        log.steps.extend(best.map(|b| b.1));
    }
    if log.errors.is_empty() {
        flood(txs, captures, shared, cfg, &mut log, &mut batch);
    }
    shared.done.store(true, Ordering::Release);
    log
}

/// Closed loop: keeps `FLOOD_WINDOW` records in flight per connection.
fn flood(
    txs: &mut [&mut WireSender],
    captures: &[Vec<CsiRecord>],
    shared: &Shared,
    cfg: &RunConfig,
    log: &mut SendLog,
    batch: &mut Vec<(CsiRecord, Option<u8>)>,
) {
    let answered = || -> u64 {
        shared
            .answered
            .iter()
            .map(|a| a.load(Ordering::Acquire))
            .sum()
    };
    let start = Instant::now();
    let warm = start + Duration::from_secs_f64(FLOOD_SHARE * cfg.seconds * WARM_SHARE);
    let end = start + Duration::from_secs_f64(FLOOD_SHARE * cfg.seconds);
    // (CPU µs, predictions answered) every `CPU_MARK` after warm-up.
    let mut marks: Vec<(f64, u64)> = Vec::new();
    let mut next_mark = warm;
    let mut now = start;
    while now < end {
        if now >= next_mark {
            marks.push((fleet_cpu_s() * 1e6, answered()));
            next_mark = now + CPU_MARK;
        }
        let mut sent_any = false;
        for c in 0..CONNECTIONS {
            while shared.sent[c].load(Ordering::Acquire) + FRAME_RECORDS as u64
                <= shared.answered[c].load(Ordering::Acquire) + FLOOD_WINDOW as u64
            {
                let due = ns_since(cfg.epoch, Instant::now());
                if !send_frame(
                    txs[c],
                    c,
                    &captures[c],
                    FRAME_RECORDS,
                    due,
                    log,
                    shared,
                    cfg.trace,
                    batch,
                ) {
                    return;
                }
                sent_any = true;
            }
        }
        if !sent_any {
            std::thread::sleep(Duration::from_micros(200));
        }
        now = Instant::now();
    }
    marks.push((fleet_cpu_s() * 1e6, answered()));
    log.flood_cpu_us_per_rec = quiet_cost_per_item(&marks);
    let records = marks[marks.len() - 1].1 - marks[0].1;
    log.flood_rps = records as f64 / warm.elapsed().as_secs_f64();
}

struct MlpReference {
    bits: Vec<Vec<u64>>,
}

impl Reference for MlpReference {
    fn expected(&self, stream: u32, seqs: &[u64]) -> Vec<u64> {
        let bits = &self.bits[stream as usize];
        seqs.iter()
            .map(|&s| bits[s as usize % CAPTURE_LEN])
            .collect()
    }
}

/// Runs the workload.
pub fn run(cfg: &RunConfig) -> Outcome {
    let mut sheet = Sheet::default();
    let mut spans = Spans::new(SPAN_CAP);
    let mut setup_s = Vec::new();
    let mut train_s = Vec::new();
    let mut train_cpu_s = Vec::new();
    let mut launch_s = Vec::new();
    let mut place_us = Vec::new();
    let mut shutdown_s = Vec::new();
    let mut fleet = None;
    for _ in 0..SETUPS {
        if let Some(f) = fleet.take() {
            let (_, s) = tear_down(f, &mut [ConnRun::default(), ConnRun::default()]);
            shutdown_s.push(s);
        }
        let t = Instant::now();
        let f = set_up(cfg.seed, &mut train_s, &mut train_cpu_s);
        setup_s.push(t.elapsed().as_secs_f64());
        launch_s.push(f.launch_s);
        place_us.extend(&f.place_us);
        fleet = Some(f);
    }
    let mut fleet = fleet.expect("at least one set-up");
    // Taken before the run's per-record buffers fill, so it measures the
    // client side's set-up, not how many records the run managed.
    let peak_rss_mb = crate::report::peak_rss_mb();

    // Reserved for a rate no connection reaches, so the receipt buffers
    // never double (their untouched pages are not resident).
    let bound = (150_000.0 * cfg.seconds) as usize;
    let shared = Shared {
        sent: [AtomicU64::new(0), AtomicU64::new(0)],
        answered: [AtomicU64::new(0), AtomicU64::new(0)],
        done: AtomicBool::new(false),
    };
    let shards: Vec<u32> = fleet.conns.iter().map(|c| c.rx.shard()).collect();
    let (log, mut runs) = std::thread::scope(|s| {
        let mut txs = Vec::new();
        let mut handles = Vec::new();
        for (c, conn) in fleet.conns.iter_mut().enumerate() {
            txs.push(&mut conn.tx);
            let (rx, shared) = (&mut conn.rx, &shared);
            handles.push(s.spawn(move || receive(rx, c, shared, cfg.epoch, bound)));
        }
        let log = send(&mut txs, &fleet.captures, &shared, cfg);
        let runs: Vec<ConnRun> = handles
            .into_iter()
            .map(|h| h.join().expect("receiving thread panicked"))
            .collect();
        (log, runs)
    });
    let captures = std::mem::take(&mut fleet.captures);
    let reference_det = fleet.reference.clone();
    let (mut report, s) = tear_down(fleet, &mut runs);
    shutdown_s.push(s);
    report.unresolved_records = runs.iter().map(|r| r.unresolved).sum();

    // Per-step statistics over both connections, by due time.
    let mut steps = Vec::new();
    for (sent, (name, rps)) in log
        .steps
        .iter()
        .zip([("base", BASE_RPS), ("high", HIGH_RPS)])
    {
        let (from, to, lags) = (sent.from, sent.to, &sent.lags);
        let keep = on_time_windows(lags, from, to, SUB_WINDOWS, MAX_WINDOW_LAG_MS * 1e3);
        let mut e2e = Vec::new();
        let mut timed = Vec::new();
        let mut server = Vec::new();
        let mut net = Vec::new();
        for (c, run) in runs.iter().enumerate() {
            for r in &run.receipts {
                let due = log.due_ns[c][r.seq as usize];
                if due < from || due >= to {
                    continue;
                }
                let e2e_ns = r.recv_ns.saturating_sub(due);
                e2e.push(e2e_ns as f64 / 1e6);
                timed.push((due, e2e_ns as f64 / 1e6));
                server.push(r.latency_ns as f64 / 1e6);
                net.push((e2e_ns as f64 - r.latency_ns as f64) / 1e3);
            }
        }
        let step = OpenStep {
            name,
            offered_rps: rps,
            e2e: Summary::of(&mut e2e),
            e2e_p50: windowed_percentile(&timed, from, to, SUB_WINDOWS, 50.0, &keep),
            e2e_p99: windowed_percentile(&timed, from, to, SUB_WINDOWS, 99.0, &keep),
            e2e_p90: windowed_percentile(&timed, from, to, SUB_WINDOWS, 90.0, &keep),
            server: Summary::of(&mut server),
            net: Summary::of(&mut net),
            lag: Summary::of(&mut lags.iter().map(|l| l.1).collect::<Vec<_>>()),
            on_time: keep.iter().filter(|&&k| k).count(),
        };
        sheet.line(format!(
            "step {:<6} offered {:>6.0} rec/s over {CONNECTIONS} conns · e2e {} · windowed p50 {:.4} ms · p99 {:.4} ms · p90 {:.4} ms · server {} · gen lag p99 {:.3} ms, on time in {}/{SUB_WINDOWS} windows{} → {}",
            step.name,
            step.offered_rps,
            step.e2e.describe("ms"),
            step.e2e_p50,
            step.e2e_p99,
            step.e2e_p90,
            step.server.describe("ms"),
            step.lag.p99 / 1e3,
            step.on_time,
            if step.valid() { "" } else { " (INVALID: generator behind)" },
            if step.e2e_p99 <= LIMIT_MS { "within the limit" } else { "over the limit" }
        ));
        steps.push(step);
    }
    if log.retries > 0 {
        sheet.line(format!(
            "{} open-loop attempt(s) measured again: the generator fell behind",
            log.retries
        ));
    }
    sheet.line(format!(
        "step flood  closed loop, window {FLOOD_WINDOW}/conn: {:.0} rec/s · {:.4} CPU us/rec (bench + worker)",
        log.flood_rps, log.flood_cpu_us_per_rec
    ));
    let nacks: u64 = runs.iter().map(|r| r.nacks).sum();
    let errors: Vec<&String> = log
        .errors
        .iter()
        .chain(runs.iter().flat_map(|r| &r.errors))
        .collect();
    for e in &errors {
        sheet.line(format!("connection error: {e}"));
    }
    let nan_step = || OpenStep {
        name: "missing",
        offered_rps: 0.0,
        e2e: Summary::of(&mut []),
        e2e_p50: f64::NAN,
        e2e_p99: f64::NAN,
        e2e_p90: f64::NAN,
        server: Summary::of(&mut []),
        net: Summary::of(&mut []),
        lag: Summary::of(&mut []),
        on_time: 0,
    };
    while steps.len() < 2 {
        steps.push(nan_step());
    }
    let (base, high) = (&steps[0], &steps[1]);
    sheet.e2e("setup_s", median(&setup_s), "s");
    sheet.e2e("lat_p50_ms", base.e2e_p50, "ms");
    sheet.e2e("lat_p90_ms", base.e2e_p90, "ms");
    sheet.e2e("lat_p50_ms.high", high.e2e_p50, "ms");
    sheet.e2e("lat_p90_ms.high", high.e2e_p90, "ms");
    sheet.e2e("flood_cpu_us_per_rec", log.flood_cpu_us_per_rec, "us");
    sheet.e2e("train_cpu_s", median(&train_cpu_s), "s");
    sheet.line(format!(
        "reference MLP training (bootstrap_detector): median {:.4} s wall, {:.4} s CPU",
        median(&train_s),
        median(&train_cpu_s)
    ));
    sheet.meta(
        "offered_rps",
        format!("base={BASE_RPS} high={HIGH_RPS} flood=closed-loop window {FLOOD_WINDOW}/conn"),
    );
    sheet.meta("connections", CONNECTIONS);
    sheet.meta("connection_shards", format!("{shards:?}"));
    sheet.meta("sensors", CONNECTIONS);
    sheet.meta("generator_threads", "1 sender + 1 receiver per connection");
    sheet.meta("worker_processes", 1);

    let bits: Vec<Vec<u64>> = captures
        .iter()
        .map(|c| {
            c.iter()
                .map(|r| reference_det.predict_record(r).1.to_bits())
                .collect()
        })
        .collect();
    let mut ledger = Ledger {
        sent: log.due_ns.iter().map(|d| d.len() as u64).sum(),
        nacked: nacks,
        dropped: 0,
        residue: report.unaccounted_records(),
        ..Ledger::default()
    };
    let mut correct = 0u64;
    for (c, run) in runs.iter().enumerate() {
        for r in &run.receipts {
            ledger.deliveries.push(Delivery {
                stream: c as u32,
                seq: r.seq,
                bits: r.bits,
            });
            let label = captures[c][r.seq as usize % CAPTURE_LEN].occupancy();
            correct += u64::from(u8::from(f64::from_bits(r.bits) > 0.5) == label);
        }
    }
    let accuracy = correct as f64 / ledger.deliveries.len().max(1) as f64;
    let attempted = ledger.sent;

    if cfg.trace {
        let serve: Option<&ServeReport> =
            report.tenants.get(TENANT).and_then(|t| t.reports.first());
        sheet.layer("serve.submit_us.p50", 0.0, "us");
        sheet.layer("serve.submit_us.p99", 0.0, "us");
        sheet.layer("serve.server_ms.p50", base.server.p50, "ms");
        sheet.layer("serve.server_ms.p99", base.server.p99, "ms");
        sheet.layer("serve.handoff_us.p50", 0.0, "us");
        sheet.layer("serve.batch_size.mean", 0.0, "records");
        sheet.layer("serve.inference_us.mean", 0.0, "us");
        sheet.layer("serve.deadline_flush_frac", 0.0, "share");
        let queues = serve.map(|r| r.shard_queues.clone()).unwrap_or_default();
        sheet.layer(
            "serve.queue_hwm",
            queues.iter().map(|q| q.high_watermark).max().unwrap_or(0) as f64,
            "records",
        );
        sheet.layer(
            "serve.dropped",
            queues.iter().map(|q| q.dropped).sum::<u64>() as f64,
            "count",
        );
        sheet.layer("serve.state_rows", 0.0, "count");
        sheet.layer(
            "serve.unaccounted",
            serve.map_or(0, ServeReport::unaccounted_records) as f64,
            "count",
        );
        sheet.line(
            "serve.submit_us, serve.handoff_us, serve.batch_size.mean, serve.inference_us.mean, serve.deadline_flush_frac: the submit call and the metrics registry stay inside the worker process (the report codec does not carry the registry), so they cannot be measured from outside; reported as 0",
        );
        let sample: Vec<CsiRecord> = captures[0][..256].to_vec();
        let probe_train = simulate(&ScenarioConfig::quick(1_200.0, cfg.seed ^ 0xa5a5));
        let t = Instant::now();
        // The serve-gru-open recipe, trained here only to probe `core`.
        let gru_cfg = TemporalConfig {
            seed: cfg.seed,
            ..TemporalConfig::default()
        };
        let gru = TemporalDetector::train(&probe_train, &gru_cfg);
        let gru_epoch_ms = t.elapsed().as_secs_f64() * 1e3 / gru_cfg.epochs as f64;
        probes::core(&mut sheet, &gru, &reference_det, &sample, 32);
        let mut send: Vec<f64> = log
            .send_call_ns
            .iter()
            .flat_map(|c| c.iter().map(|&n| n as f64 / 1e3))
            .collect();
        let send = Summary::of(&mut send);
        let frames = log.frames;
        sheet.layer("wire.net_us.p50", base.net.p50, "us");
        sheet.layer("wire.net_us.p99", base.net.p99, "us");
        sheet.layer("wire.send_us.p50", send.p50, "us");
        sheet.layer(
            "wire.records_per_frame",
            attempted as f64 / frames.max(1) as f64,
            "records",
        );
        sheet.layer("wire.nacks", nacks as f64, "count");
        sheet.layer(
            "wire.unrouted",
            serve.map_or(0, |r| r.wire.predictions_unrouted) as f64,
            "count",
        );
        probes::codec(&mut sheet, &captures[0]);
        sheet.layer("fleet.launch_s", median(&launch_s), "s");
        sheet.layer("fleet.place_us", median(&place_us), "us");
        sheet.layer("fleet.shutdown_s", median(&shutdown_s), "s");
        sheet.layer("fleet.heartbeats", report.heartbeats as f64, "count");
        sheet.layer(
            "fleet.unaccounted",
            report.unaccounted_records() as f64,
            "count",
        );
        probes::train_step(&mut sheet);
        sheet.layer("nn.gru_epoch_ms", gru_epoch_ms, "ms");
        probes::gemm(&mut sheet);
        let mut lags: Vec<f64> = log
            .steps
            .iter()
            .flat_map(|s| s.lags.iter().map(|l| l.1))
            .collect();
        sheet.layer("gen.lag_us.p99", Summary::of(&mut lags).p99, "us");
        // The traced run's only extra work on the measured path is the
        // clock pair around each send_batch, on the sending thread.
        sheet.layer(
            "trace.overhead_frac",
            send.n as f64 * crate::report::clock_pair_ns() / (cfg.seconds * 1e9),
            "share",
        );
        for (c, run) in runs.iter().enumerate() {
            for r in run.receipts.iter().step_by(16) {
                if spans.len() >= SPAN_CAP {
                    break;
                }
                let send_ns = log.due_ns[c][r.seq as usize];
                let call = log.send_call_ns[c]
                    .get(r.seq as usize)
                    .copied()
                    .unwrap_or(0);
                let root = spans.push(0, "record", send_ns, r.recv_ns);
                spans.push(root, "wire.send", send_ns, send_ns + call);
                spans.push(
                    root,
                    "serve.server",
                    send_ns + call,
                    send_ns + call + r.latency_ns,
                );
                spans.push(
                    root,
                    "wire.net",
                    send_ns + call + r.latency_ns,
                    r.recv_ns.max(send_ns + call + r.latency_ns),
                );
            }
        }
    }

    Outcome {
        sheet,
        ledger,
        reference: Box::new(MlpReference { bits }),
        accuracy,
        floor: ACCURACY_FLOOR,
        attempted,
        peak_rss_mb,
        spans,
    }
}
