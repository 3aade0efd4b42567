//! Wire-layer integration tests: multi-sensor loopback soak with
//! bitwise verification against in-process scoring, NACK accounting
//! under `RejectNewest` backpressure, and a TCP-localhost gateway
//! round trip. These are the executable form of the wire contract:
//! the network boundary adds latency, never drift — and every record
//! that crosses it is accounted for in `ServeReport`.

use occusense_core::detector::{DetectorConfig, ModelKind, OccupancyDetector};
use occusense_serve::{BackpressurePolicy, ServeConfig};
use occusense_sim::{fleet_stream, simulate, ScenarioConfig};
use occusense_wire::{
    connect, loopback, tcp_connect, tcp_listen, ClientEvent, Gateway, GatewayConfig,
    LoopbackConfig, NackReason, PredictionFrame, TcpConfig,
};
use std::time::Duration;

fn quick_detector() -> OccupancyDetector {
    let train = simulate(&ScenarioConfig::quick(300.0, 7));
    OccupancyDetector::train(
        &train,
        &DetectorConfig {
            model: ModelKind::Mlp,
            mlp_epochs: 2,
            seed: 7,
            ..DetectorConfig::default()
        },
    )
}

/// Pinned-model gateway config: online training disabled so wire
/// predictions can be compared bitwise against a local clone.
fn pinned(policy: BackpressurePolicy, capacity: usize, max_batch: usize) -> ServeConfig {
    ServeConfig {
        online: None,
        policy,
        queue_capacity: capacity,
        max_batch,
        ..ServeConfig::default()
    }
}

/// Drains one receiver until the gateway's Goodbye (or Closed),
/// collecting predictions and NACK count.
fn drain(mut rx: occusense_wire::WireReceiver) -> (Vec<PredictionFrame>, u64) {
    let mut preds = Vec::new();
    let mut nacks = 0;
    loop {
        match rx.recv().expect("receive") {
            ClientEvent::Prediction(p) => preds.push(p),
            ClientEvent::Nack(_) => nacks += 1,
            ClientEvent::Goodbye(_) | ClientEvent::Closed => break,
            ClientEvent::TimedOut => continue,
        }
    }
    (preds, nacks)
}

#[test]
fn loopback_soak_is_bitwise_identical_to_direct_scoring() {
    const SENSORS: usize = 4;
    const RECORDS: usize = 200;
    let detector = quick_detector();
    let direct = detector.clone();
    let (acceptor, connector) = loopback(LoopbackConfig::default());
    let gateway = Gateway::start(
        detector,
        pinned(BackpressurePolicy::Block, 1024, 32),
        GatewayConfig {
            outbound_policy: BackpressurePolicy::Block,
            ..GatewayConfig::default()
        },
        Box::new(acceptor),
    )
    .expect("gateway");

    let handles: Vec<_> = (0..SENSORS)
        .map(|i| {
            let conn = connector.connect().expect("connect");
            std::thread::spawn(move || {
                let records: Vec<_> = fleet_stream(110.0, 500, i as u64).take(RECORDS).collect();
                let (mut tx, rx) =
                    connect(conn, &format!("s{i}"), Duration::from_secs(5)).expect("handshake");
                // Mix singles and batches on the same connection.
                let labelled: Vec<_> = records.iter().map(|r| (*r, Some(r.occupancy()))).collect();
                let (head, tail) = labelled.split_at(RECORDS / 2);
                for (r, l) in head {
                    tx.send(*r, *l).expect("send");
                }
                tx.send_batch(tail).expect("send batch");
                let sent = tx.finish().expect("finish");
                let (preds, nacks) = drain(rx);
                (records, sent, preds, nacks)
            })
        })
        .collect();

    let outcomes: Vec<_> = handles
        .into_iter()
        .map(|h| h.join().expect("sensor"))
        .collect();
    let report = gateway.shutdown();

    for (records, sent, mut preds, nacks) in outcomes {
        assert_eq!(sent as usize, RECORDS);
        assert_eq!(nacks, 0, "Block policy must never NACK");
        assert_eq!(preds.len(), RECORDS, "every record must come back scored");
        preds.sort_by_key(|p| p.seq);
        for (i, p) in preds.iter().enumerate() {
            assert_eq!(p.seq, i as u64);
            let (occupied, proba) = direct.predict_record(&records[i]);
            assert_eq!(p.occupied, occupied, "seq {i}");
            assert_eq!(
                p.proba.to_bits(),
                proba.to_bits(),
                "seq {i}: the wire must add latency, never drift"
            );
        }
    }
    assert_eq!(report.unaccounted_records(), 0);
    assert_eq!(report.wire.connections, SENSORS as u64);
    assert_eq!(report.wire.records_decoded, (SENSORS * RECORDS) as u64);
    assert_eq!(report.wire.records_ingested, (SENSORS * RECORDS) as u64);
    assert_eq!(report.wire.records_rejected, 0);
    assert_eq!(report.faults.transport_rejections, 0);
}

#[test]
fn reject_newest_surfaces_as_nacks_and_stays_accounted() {
    const RECORDS: usize = 300;
    let detector = quick_detector();
    let (acceptor, connector) = loopback(LoopbackConfig::default());
    // Capacity-1 ingress under RejectNewest with 1-record batches, so
    // the queue drains one record per forward pass while the loopback
    // delivers a whole burst: any rejection must come back as a
    // QueueFull NACK carrying the refused seq.
    let gateway = Gateway::start(
        detector,
        pinned(BackpressurePolicy::RejectNewest, 1, 1),
        GatewayConfig {
            outbound_policy: BackpressurePolicy::Block,
            ..GatewayConfig::default()
        },
        Box::new(acceptor),
    )
    .expect("gateway");

    let conn = connector.connect().expect("connect");
    let (mut tx, rx) = connect(conn, "burst", Duration::from_secs(5)).expect("handshake");
    let records: Vec<_> = fleet_stream(160.0, 900, 0).take(RECORDS).collect();
    let mut sent_seqs = Vec::new();
    for r in &records {
        sent_seqs.push(tx.send(*r, None).expect("send"));
    }
    let sent = tx.finish().expect("finish");
    assert_eq!(sent as usize, RECORDS);

    let mut preds = Vec::new();
    let mut nack_seqs = Vec::new();
    let mut rx = rx;
    loop {
        match rx.recv().expect("receive") {
            ClientEvent::Prediction(p) => preds.push(p),
            ClientEvent::Nack(n) => {
                assert_eq!(n.reason, NackReason::QueueFull);
                nack_seqs.push(n.seq);
            }
            ClientEvent::Goodbye(_) | ClientEvent::Closed => break,
            ClientEvent::TimedOut => continue,
        }
    }
    let report = gateway.shutdown();

    // Every sent record resolved exactly once: a prediction or a NACK.
    assert_eq!(preds.len() + nack_seqs.len(), RECORDS);
    let mut resolved: Vec<u64> = preds
        .iter()
        .map(|p| p.seq)
        .chain(nack_seqs.iter().copied())
        .collect();
    resolved.sort_unstable();
    assert_eq!(resolved, (0..RECORDS as u64).collect::<Vec<_>>());

    // The transport loss is visible in the report, and the extended
    // accounting identity still closes to zero.
    assert_eq!(report.wire.records_rejected, nack_seqs.len() as u64);
    assert_eq!(report.faults.transport_rejections, nack_seqs.len() as u64);
    assert_eq!(
        report.wire.records_ingested + report.wire.records_rejected,
        RECORDS as u64
    );
    assert_eq!(report.unaccounted_records(), 0);
}

#[test]
fn tcp_gateway_round_trips_bitwise_over_localhost() {
    const RECORDS: usize = 100;
    let detector = quick_detector();
    let direct = detector.clone();
    let (acceptor, addr) = tcp_listen("127.0.0.1:0", TcpConfig::default()).expect("listen");
    let gateway = Gateway::start(
        detector,
        pinned(BackpressurePolicy::Block, 1024, 32),
        GatewayConfig {
            outbound_policy: BackpressurePolicy::Block,
            ..GatewayConfig::default()
        },
        Box::new(acceptor),
    )
    .expect("gateway");

    let conn = tcp_connect(&addr.to_string(), TcpConfig::default()).expect("connect");
    let (mut tx, rx) = connect(conn, "tcp-sensor", Duration::from_secs(5)).expect("handshake");
    let records: Vec<_> = fleet_stream(60.0, 777, 0).take(RECORDS).collect();
    let labelled: Vec<_> = records.iter().map(|r| (*r, None)).collect();
    tx.send_batch(&labelled).expect("send batch");
    let sent = tx.finish().expect("finish");
    assert_eq!(sent as usize, RECORDS);
    let (mut preds, nacks) = drain(rx);
    let report = gateway.shutdown();

    assert_eq!(nacks, 0);
    assert_eq!(preds.len(), RECORDS);
    preds.sort_by_key(|p| p.seq);
    for (i, p) in preds.iter().enumerate() {
        let (occupied, proba) = direct.predict_record(&records[i]);
        assert_eq!(p.occupied, occupied);
        assert_eq!(p.proba.to_bits(), proba.to_bits(), "seq {i}");
    }
    assert_eq!(report.unaccounted_records(), 0);
    assert_eq!(report.wire.records_decoded, RECORDS as u64);
    assert_eq!(report.wire.predictions_sent, RECORDS as u64);
}

/// Reactor soak under slow-client backpressure: a tiny `Block`
/// outbound queue and a reader that naps between events force the
/// reactor through its ingress-pause path (it must never park on the
/// queue it alone drains), while capacity-1 `RejectNewest` ingress
/// guarantees a mixture of predictions and NACKs. Every submitted seq
/// must resolve exactly once — as a prediction or a QueueFull NACK —
/// and the extended accounting identity must close.
#[test]
fn slow_client_soak_resolves_every_seq_exactly_once() {
    const SENSORS: usize = 3;
    const RECORDS: usize = 150;
    let detector = quick_detector();
    let (acceptor, connector) = loopback(LoopbackConfig::default());
    let gateway = Gateway::start(
        detector,
        pinned(BackpressurePolicy::RejectNewest, 1, 1),
        GatewayConfig {
            outbound_policy: BackpressurePolicy::Block,
            outbound_capacity: 4,
            reactors: 2,
            ..GatewayConfig::default()
        },
        Box::new(acceptor),
    )
    .expect("gateway");

    let handles: Vec<_> = (0..SENSORS)
        .map(|i| {
            let conn = connector.connect().expect("connect");
            std::thread::spawn(move || {
                let (mut tx, mut rx) =
                    connect(conn, &format!("slow{i}"), Duration::from_secs(5)).expect("handshake");
                let records: Vec<_> = fleet_stream(120.0, 40 + i as u64, i as u64)
                    .take(RECORDS)
                    .collect();
                // Reader thread naps so the 4-deep Block outbound queue
                // fills; the sender keeps pushing, so the gateway must
                // pause this connection's ingress instead of stalling
                // its whole reactor.
                let reader = std::thread::spawn(move || {
                    let mut pred_seqs = Vec::new();
                    let mut nack_seqs = Vec::new();
                    loop {
                        match rx.recv().expect("receive") {
                            ClientEvent::Prediction(p) => {
                                pred_seqs.push(p.seq);
                                if pred_seqs.len() % 8 == 0 {
                                    std::thread::sleep(Duration::from_millis(2));
                                }
                            }
                            ClientEvent::Nack(n) => {
                                assert_eq!(n.reason, NackReason::QueueFull);
                                nack_seqs.push(n.seq);
                            }
                            ClientEvent::Goodbye(_) | ClientEvent::Closed => break,
                            ClientEvent::TimedOut => continue,
                        }
                    }
                    (pred_seqs, nack_seqs)
                });
                for r in &records {
                    tx.send(*r, None).expect("send");
                }
                let sent = tx.finish().expect("finish");
                let (pred_seqs, nack_seqs) = reader.join().expect("reader");
                (sent, pred_seqs, nack_seqs)
            })
        })
        .collect();

    let outcomes: Vec<_> = handles
        .into_iter()
        .map(|h| h.join().expect("sensor"))
        .collect();
    let report = gateway.shutdown();

    for (sent, pred_seqs, nack_seqs) in outcomes {
        assert_eq!(sent as usize, RECORDS);
        let mut resolved: Vec<u64> = pred_seqs.iter().chain(nack_seqs.iter()).copied().collect();
        resolved.sort_unstable();
        assert_eq!(
            resolved,
            (0..RECORDS as u64).collect::<Vec<_>>(),
            "every seq must resolve exactly once (prediction xor NACK)"
        );
    }
    assert_eq!(report.wire.connections, SENSORS as u64);
    assert_eq!(
        report.wire.records_decoded,
        (SENSORS * RECORDS) as u64,
        "pause/resume must neither drop nor double-decode"
    );
    assert_eq!(report.unaccounted_records(), 0);
}
