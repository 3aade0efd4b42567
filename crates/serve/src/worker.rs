//! The worker shard: drain the queue → one batched forward, supervised
//! against panics.
//!
//! Batching is work-conserving: the moment a worker is free it takes
//! *whatever* is queued, up to `max_batch` records, in one
//! [`BoundedQueue::pop_batch`] and scores it at once. It never holds a
//! record back waiting for a fuller batch, so at low offered load a
//! record pays only its own forward pass; under saturation the queue
//! refills while a batch is scored and batches fill by themselves.
//!
//! Each worker owns its queue end and scores against an immutable
//! model snapshot re-read *between* batches (never mid-batch), so the
//! inference path shares no locks with other shards and a hot swap is
//! a single `Arc` re-read away.
//!
//! The batch loop runs under `catch_unwind`: a panic while scoring
//! quarantines exactly the popped batch into the dead-letter buffer,
//! bumps the shard's restart counter and resumes the loop on the
//! *same* queue — per-sensor ordering and the queue's exact counters
//! survive the fault. Past `max_restarts_per_shard` the shard fails
//! closed: it closes its queue (producers see `SubmitError::Shutdown`)
//! and quarantines the remnant so every accepted record stays
//! accounted.

use crate::metrics::{Counter, Histogram};
use crate::model::{ModelHandle, ServedModel};
use crate::queue::BoundedQueue;
use crate::state::{SensorState, StateTable};
use crate::supervisor::{is_scorable, panic_message, SupervisorState};
use crate::trainer::LabelledRecord;
use occusense_core::detector::ScoreWorkspace;
use occusense_core::temporal::{TemporalDetector, TemporalWorkspace};
use occusense_core::tensor::{Matrix, Parallelism};
use occusense_dataset::CsiRecord;
use occusense_sim::stream::is_worker_panic_trigger;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One record travelling through the runtime.
#[derive(Debug, Clone)]
pub(crate) struct Job {
    pub sensor_id: Arc<str>,
    pub seq: u64,
    pub record: CsiRecord,
    pub label: Option<u8>,
    pub enqueued_at: Instant,
}

/// The scored output for one ingested record.
#[derive(Debug, Clone)]
pub struct Prediction {
    /// The sensor the record came from.
    pub sensor_id: Arc<str>,
    /// Per-sensor ingestion sequence number (0-based).
    pub seq: u64,
    /// The record's scenario timestamp.
    pub timestamp_s: f64,
    /// Predicted binary occupancy.
    pub occupied: u8,
    /// Positive-class probability.
    pub proba: f64,
    /// Version of the model snapshot that scored the record.
    pub model_version: u64,
    /// Queue wait + inference time, ingest to scored.
    pub latency: Duration,
}

/// Shared instruments every worker updates lock-free.
#[derive(Debug, Clone)]
pub(crate) struct WorkerMetrics {
    pub records: Arc<Counter>,
    pub batches: Arc<Counter>,
    pub restarts: Arc<Counter>,
    pub poisoned: Arc<Counter>,
    pub state_resets: Arc<Counter>,
    pub latency_ns: Arc<Histogram>,
    pub batch_size: Arc<Histogram>,
    pub inference_ns: Arc<Histogram>,
}

/// Everything one worker thread needs.
pub(crate) struct WorkerContext {
    pub shard: usize,
    pub queue: Arc<BoundedQueue<Job>>,
    pub model: Arc<ModelHandle>,
    /// Most records one drain takes (at least 1).
    pub max_batch: usize,
    pub out: mpsc::Sender<Prediction>,
    pub trainer_queue: Option<Arc<BoundedQueue<LabelledRecord>>>,
    pub metrics: WorkerMetrics,
    pub supervision: Arc<SupervisorState>,
    pub max_restarts: u64,
    pub panic_on_trigger: bool,
    pub parallelism: Parallelism,
    /// `Some` when the runtime serves a temporal model: this shard's
    /// per-sensor hidden rows live in here.
    pub states: Option<Arc<StateTable>>,
}

/// Per-worker reusable scoring buffers: the record gather, the design
/// matrix, the MLP forward workspace and the probability vector all
/// keep their capacity across flushes, so a steady stream of batches
/// is scored without heap allocations.
struct ScoreBuffers {
    records: Vec<CsiRecord>,
    probas: Vec<f64>,
    ws: ScoreWorkspace,
    temporal: Option<TemporalBuffers>,
}

/// Reusable scratch of the temporal (stateful GRU) scoring path: the
/// per-round record gather, batch-position map, hidden-row matrix and
/// the GRU/head workspaces all keep their capacity across flushes.
struct TemporalBuffers {
    ws: TemporalWorkspace,
    /// Hidden rows of the sensors active in the current round.
    h: Matrix,
    /// Current-round records, one per active sensor.
    records: Vec<CsiRecord>,
    /// `positions[r]` = index into the flush batch of round-row `r`.
    positions: Vec<usize>,
    /// Presence probabilities of the current round's rows.
    step_probas: Vec<f64>,
}

impl WorkerContext {
    fn quarantine(&self, jobs: Vec<Job>, reason: &str) {
        let n = self.supervision.quarantine(self.shard, jobs, reason);
        self.metrics.poisoned.add(n);
    }
}

/// The supervision loop around the batch-scoring loop. Runs until the
/// queue is closed and drained, surviving up to `max_restarts` panics.
pub(crate) fn run(ctx: WorkerContext) {
    // `in_flight` lives *outside* the unwind boundary so a panic while
    // scoring cannot lose records: it holds exactly the records popped
    // for the batch being scored, and is empty between batches.
    let in_flight: RefCell<Vec<Job>> = RefCell::new(Vec::with_capacity(ctx.max_batch));
    // Scoring buffers also live outside the unwind boundary: a restart
    // keeps the warmed capacity (every flush overwrites them whole, so
    // no stale state can leak across a panic).
    let buffers = RefCell::new(ScoreBuffers {
        records: Vec::new(),
        probas: Vec::new(),
        ws: ScoreWorkspace::with_parallelism(ctx.parallelism),
        temporal: ctx.states.as_ref().map(|_| TemporalBuffers {
            ws: TemporalWorkspace::with_parallelism(ctx.parallelism),
            h: Matrix::zeros(0, 0),
            records: Vec::new(),
            positions: Vec::new(),
            step_probas: Vec::new(),
        }),
    });
    loop {
        match catch_unwind(AssertUnwindSafe(|| batch_loop(&ctx, &in_flight, &buffers))) {
            Ok(()) => return, // queue closed and fully drained
            Err(payload) => {
                let message = panic_message(payload.as_ref());
                let batch = std::mem::take(&mut *in_flight.borrow_mut());
                if !batch.is_empty() {
                    ctx.quarantine(batch, &format!("worker panic: {message}"));
                }
                let restarts = ctx.supervision.record_shard_panic(ctx.shard, &message);
                ctx.metrics.restarts.inc();
                if restarts > ctx.max_restarts {
                    fail_shard(&ctx);
                    return;
                }
                // Respawn: next iteration re-enters the batch loop on
                // the same queue.
            }
        }
    }
}

/// Permanent failure past the restart limit: stop ingestion and
/// quarantine everything still held, so the accounting identity
/// `pushed = scored + quarantined + dropped` holds even here.
fn fail_shard(ctx: &WorkerContext) {
    ctx.queue.close();
    let mut remnant = Vec::new();
    while ctx.queue.pop_batch(usize::MAX, &mut remnant) {}
    if !remnant.is_empty() {
        ctx.quarantine(remnant, "shard failed: restart limit exceeded");
    }
}

/// The batch-scoring loop (the unwind-protected region): drain
/// whatever is queued straight into `in_flight`, score it, repeat.
fn batch_loop(ctx: &WorkerContext, in_flight: &RefCell<Vec<Job>>, buffers: &RefCell<ScoreBuffers>) {
    while ctx
        .queue
        .pop_batch(ctx.max_batch, &mut in_flight.borrow_mut())
    {
        flush(ctx, in_flight, buffers);
    }
}

/// Scores the batch parked in `in_flight` with a single batched
/// forward pass and fans the results out to the prediction channel and
/// (labelled records only) the trainer queue. Non-finite records are
/// quarantined before scoring; the scorable remainder stays parked in
/// `in_flight` so the supervisor can quarantine it if the forward pass
/// panics.
fn flush(ctx: &WorkerContext, in_flight: &RefCell<Vec<Job>>, buffers: &RefCell<ScoreBuffers>) {
    let poisoned: Vec<Job> = in_flight
        .borrow_mut()
        .extract_if(.., |job| !is_scorable(&job.record))
        .collect();
    if !poisoned.is_empty() {
        ctx.quarantine(poisoned, "non-finite input record");
    }
    if in_flight.borrow().is_empty() {
        return;
    }

    let snapshot = ctx.model.current();
    let infer_start = Instant::now();
    match &snapshot.model {
        ServedModel::Frame(detector) => {
            // lint:no_alloc
            {
                let batch = in_flight.borrow();
                if ctx.panic_on_trigger && batch.iter().any(|j| is_worker_panic_trigger(&j.record))
                {
                    // lint:allow(panic, reason = "fault injection: this panic IS the feature under test; it exercises the supervisor's restart path")
                    panic!("fault injection: scripted worker panic trigger");
                }
                // One batched forward through the worker's reusable
                // buffers: records are scored in arrival order (each
                // output row depends only on its own input row, so
                // ordering cannot change scores) and steady-state
                // flushes allocate nothing.
                let ScoreBuffers {
                    records,
                    probas,
                    ws,
                    ..
                } = &mut *buffers.borrow_mut();
                records.clear();
                // lint:allow(alloc, reason = "extend into a cleared reusable buffer: capacity is retained across flushes, so steady state does not allocate")
                records.extend(batch.iter().map(|job| job.record));
                detector.predict_proba_slice_into(records, ws, probas);
            }
            // lint:end_no_alloc
        }
        ServedModel::Temporal(temporal) => {
            if !score_temporal(ctx, temporal, snapshot.version, in_flight, buffers) {
                // A temporal snapshot reached a worker without a state
                // table — a frame-mode runtime was handed a temporal
                // publish. Quarantining keeps the accounting identity
                // exact rather than scoring with fabricated state.
                let batch = std::mem::take(&mut *in_flight.borrow_mut());
                ctx.quarantine(batch, "temporal snapshot on a runtime without sensor state");
                return;
            }
        }
    }
    // The forward pass succeeded: the batch is no longer at risk.
    let mut batch = std::mem::take(&mut *in_flight.borrow_mut());

    ctx.metrics
        .inference_ns
        .record(infer_start.elapsed().as_nanos() as u64);
    ctx.metrics.batches.inc();
    ctx.metrics.batch_size.record(batch.len() as u64);

    let scored_at = Instant::now();
    let buffers = buffers.borrow();
    for (job, &proba) in batch.drain(..).zip(&buffers.probas) {
        let latency = scored_at.duration_since(job.enqueued_at);
        ctx.metrics.records.inc();
        ctx.metrics.latency_ns.record(latency.as_nanos() as u64);
        if let (Some(trainer), Some(label)) = (&ctx.trainer_queue, job.label) {
            // The trainer queue sheds (DropOldest) rather than ever
            // stalling the inference path; losses show in its counters.
            // lint:allow(swallow, reason = "shedding is the contract: DropOldest records every loss in the trainer queue's dropped counter, which the report surfaces")
            let _ = trainer.push(LabelledRecord {
                record: job.record,
                label,
            });
        }
        // A dropped receiver means the caller does not want
        // predictions; serving (and metrics) continue regardless.
        // lint:allow(swallow, reason = "send fails only when the receiver is dropped, which is the caller opting out of predictions; records/latency metrics still account the work")
        let _ = ctx.out.send(Prediction {
            sensor_id: job.sensor_id,
            seq: job.seq,
            timestamp_s: job.record.timestamp_s,
            occupied: u8::from(proba > 0.5),
            proba,
            model_version: snapshot.version,
            latency,
        });
    }
    // Hand the emptied vector back so the next drain reuses its capacity.
    *in_flight.borrow_mut() = batch;
}

/// Stateful sequence scoring of one micro-batch: records are grouped
/// per sensor (arrival order preserved within a sensor) and replayed
/// in *rounds* — round `r` takes each active sensor's `r`-th record,
/// gathers those sensors' hidden rows out of the shard's state table,
/// advances them all with **one** batched GRU step, and scatters the
/// updated rows back. Row independence of the kernels makes the
/// batched step bitwise identical to stepping each sensor alone, so
/// multiplexing sensors into shared batches never changes a score.
///
/// State lifecycle per the [`StateTable`] docs: first sight of a
/// sensor creates a zero row; a snapshot version (or hidden width)
/// mismatch zero-resets it — counted in `state_resets`, and visible to
/// replay verifiers through each prediction's `model_version`.
///
/// Fills `buffers.probas` aligned with the parked batch (position
/// `i` = job `i`'s presence probability), so the caller's fan-out is
/// shared with the frame path. Returns `false` when the worker has no
/// state table (frame-mode runtime handed a temporal snapshot).
fn score_temporal(
    ctx: &WorkerContext,
    temporal: &TemporalDetector,
    version: u64,
    in_flight: &RefCell<Vec<Job>>,
    buffers: &RefCell<ScoreBuffers>,
) -> bool {
    let Some(table) = &ctx.states else {
        return false;
    };
    let batch = in_flight.borrow();
    let ScoreBuffers {
        probas,
        temporal: bufs,
        ..
    } = &mut *buffers.borrow_mut();
    let Some(bufs) = bufs else {
        return false;
    };
    let hidden = temporal.hidden_dim();
    probas.clear();
    probas.resize(batch.len(), 0.0);

    // Per-sensor batch positions, arrival order preserved within each
    // sensor (the queue is FIFO, so this is ascending client seq).
    let mut groups: BTreeMap<&Arc<str>, Vec<usize>> = BTreeMap::new();
    for (pos, job) in batch.iter().enumerate() {
        groups.entry(&job.sensor_id).or_default().push(pos);
    }

    // One state-lock hold per flush. `lock_shard` only returns `None`
    // for an out-of-range shard index, which `ctx.shard` never is.
    let Some((mut states, wiped)) = table.lock_shard(ctx.shard) else {
        return false;
    };
    if wiped > 0 {
        // A predecessor panicked mid-flush; the shard map was cleared
        // and every sensor on it restarts from zeros.
        ctx.metrics.state_resets.add(wiped as u64);
    }
    for sensor in groups.keys() {
        let state = states
            .entry(Arc::clone(sensor))
            .or_insert_with(|| SensorState {
                h: vec![0.0; hidden],
                model_version: version,
            });
        if state.model_version != version || state.h.len() != hidden {
            // Hot swap: hidden activations of the old weights mean
            // nothing under the new ones — restart the sequence.
            state.h.clear();
            state.h.resize(hidden, 0.0);
            state.model_version = version;
            ctx.metrics.state_resets.inc();
        }
    }

    let rounds = groups.values().map(Vec::len).max().unwrap_or(0);
    for round in 0..rounds {
        bufs.records.clear();
        bufs.positions.clear();
        for positions in groups.values() {
            if let Some(&pos) = positions.get(round) {
                if let Some(job) = batch.get(pos) {
                    bufs.records.push(job.record);
                    bufs.positions.push(pos);
                }
            }
        }
        bufs.h.ensure_shape(bufs.records.len(), hidden);
        for (r, &pos) in bufs.positions.iter().enumerate() {
            if let Some(state) = batch
                .get(pos)
                .and_then(|job| states.get(job.sensor_id.as_ref()))
            {
                bufs.h.row_mut(r).copy_from_slice(&state.h);
            }
        }
        temporal.step_batch_into(
            &bufs.records,
            &mut bufs.h,
            &mut bufs.ws,
            &mut bufs.step_probas,
        );
        for (r, &pos) in bufs.positions.iter().enumerate() {
            if let Some(state) = batch
                .get(pos)
                .and_then(|job| states.get_mut(job.sensor_id.as_ref()))
            {
                state.h.copy_from_slice(bufs.h.row(r));
            }
            if let (Some(slot), Some(&p)) = (probas.get_mut(pos), bufs.step_probas.get(r)) {
                *slot = p;
            }
        }
    }
    true
}
