//! The sensor-side client library: handshake, sequenced sending,
//! prediction/NACK reception.
//!
//! [`connect`] performs the `Hello → HelloAck` handshake on any
//! [`Connection`] (loopback or TCP) and returns independently owned
//! sender/receiver halves, so a sensor can stream records from one
//! thread while a second thread consumes predictions.

use crate::codec::{
    BatchFrame, Frame, Goodbye, Hello, NackFrame, PredictionFrame, RecordFrame, MAX_BATCH_RECORDS,
    PROTOCOL_VERSION,
};
use crate::transport::{Connection, FrameSink, FrameSource, RecvOutcome};
use crate::WireError;
use occusense_dataset::CsiRecord;
use std::time::{Duration, Instant};

/// Performs the client side of the handshake and splits the
/// connection.
///
/// # Errors
///
/// [`WireError::HandshakeTimeout`] when no `HelloAck` arrives within
/// `handshake_timeout`; [`WireError::Refused`] when the gateway
/// answers with a NACK (e.g. protocol version mismatch);
/// [`WireError::Transport`] on connection failures.
pub fn connect(
    conn: Box<dyn Connection>,
    sensor_id: &str,
    handshake_timeout: Duration,
) -> Result<(WireSender, WireReceiver), WireError> {
    connect_tenant(conn, "", sensor_id, handshake_timeout)
}

/// [`connect`] with an explicit tenant claim in the `Hello`. A gateway
/// serving a specific tenant refuses mismatched claims with an
/// `Unsupported` NACK ([`WireError::Refused`]); the empty tenant is
/// the default namespace, making this a strict superset of [`connect`].
///
/// # Errors
///
/// As [`connect`], plus [`WireError::Refused`] on a tenant mismatch.
pub fn connect_tenant(
    conn: Box<dyn Connection>,
    tenant: &str,
    sensor_id: &str,
    handshake_timeout: Duration,
) -> Result<(WireSender, WireReceiver), WireError> {
    let (mut sink, mut source) = conn.split();
    sink.send(&Frame::Hello(Hello {
        protocol: PROTOCOL_VERSION,
        sensor_id: sensor_id.to_string(),
        tenant: tenant.to_string(),
    }))
    .map_err(WireError::Transport)?;
    let deadline = Instant::now() + handshake_timeout;
    loop {
        match source.recv().map_err(WireError::Transport)? {
            RecvOutcome::Frame(Frame::HelloAck(ack)) => {
                return Ok((
                    WireSender {
                        sink,
                        next_seq: 0,
                        sent: 0,
                    },
                    WireReceiver {
                        source,
                        shard: ack.shard,
                    },
                ));
            }
            RecvOutcome::Frame(Frame::Nack(n)) => return Err(WireError::Refused(n.reason)),
            RecvOutcome::Frame(f) => {
                return Err(WireError::Protocol(format!(
                    "expected HelloAck, got {}",
                    f.type_name()
                )))
            }
            RecvOutcome::TimedOut => {
                if Instant::now() >= deadline {
                    return Err(WireError::HandshakeTimeout);
                }
            }
            RecvOutcome::Closed => {
                return Err(WireError::Protocol(
                    "gateway closed during handshake".to_string(),
                ))
            }
        }
    }
}

/// The sending half: numbers every record with a strictly increasing
/// per-connection sequence, singles and batches alike, so seq `k`
/// always names the `k`-th record sent on this connection.
pub struct WireSender {
    sink: Box<dyn FrameSink>,
    next_seq: u64,
    sent: u64,
}

impl WireSender {
    /// The sequence number the next record will carry.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Records sent so far.
    pub fn sent(&self) -> u64 {
        self.sent
    }

    /// Sends one record; returns the sequence number it carried.
    ///
    /// # Errors
    ///
    /// [`WireError::Transport`] — fatal for the connection.
    pub fn send(&mut self, record: CsiRecord, label: Option<u8>) -> Result<u64, WireError> {
        let seq = self.next_seq;
        self.sink
            .send(&Frame::Record(RecordFrame { seq, label, record }))
            .map_err(WireError::Transport)?;
        self.next_seq += 1;
        self.sent += 1;
        Ok(seq)
    }

    /// Sends a run of records as one or more `Batch` frames (chunked
    /// at [`MAX_BATCH_RECORDS`]); returns the first sequence number.
    ///
    /// # Errors
    ///
    /// [`WireError::Transport`] — fatal for the connection.
    pub fn send_batch(&mut self, records: &[(CsiRecord, Option<u8>)]) -> Result<u64, WireError> {
        let first = self.next_seq;
        for chunk in records.chunks(MAX_BATCH_RECORDS.max(1)) {
            self.sink
                .send(&Frame::Batch(BatchFrame {
                    first_seq: self.next_seq,
                    records: chunk.to_vec(),
                }))
                .map_err(WireError::Transport)?;
            self.next_seq += chunk.len() as u64;
            self.sent += chunk.len() as u64;
        }
        Ok(first)
    }

    /// Announces an orderly end-of-stream (`Goodbye` with the sent
    /// count) and consumes the sender; returns how many records were
    /// sent.
    ///
    /// # Errors
    ///
    /// [`WireError::Transport`] — the goodbye could not be written.
    pub fn finish(mut self) -> Result<u64, WireError> {
        self.sink
            .send(&Frame::Goodbye(Goodbye { count: self.sent }))
            .map_err(WireError::Transport)?;
        Ok(self.sent)
    }
}

/// One server→client event.
#[derive(Debug)]
pub enum ClientEvent {
    /// A scored record.
    Prediction(PredictionFrame),
    /// An explicit per-record refusal.
    Nack(NackFrame),
    /// The gateway's end-of-stream (predictions delivered count).
    Goodbye(u64),
    /// Nothing within the read timeout; poll again.
    TimedOut,
    /// The gateway closed the connection.
    Closed,
}

/// The receiving half: predictions, NACKs and the server goodbye.
pub struct WireReceiver {
    source: Box<dyn FrameSource>,
    shard: u32,
}

impl WireReceiver {
    /// The worker shard the gateway routed this sensor to.
    pub fn shard(&self) -> u32 {
        self.shard
    }

    /// Waits up to the transport's read timeout for the next event.
    ///
    /// # Errors
    ///
    /// [`WireError::Transport`] on stream corruption or I/O failure;
    /// [`WireError::Protocol`] when the gateway sends a client-role
    /// frame.
    pub fn recv(&mut self) -> Result<ClientEvent, WireError> {
        match self.source.recv().map_err(WireError::Transport)? {
            RecvOutcome::Frame(Frame::Prediction(p)) => Ok(ClientEvent::Prediction(p)),
            RecvOutcome::Frame(Frame::Nack(n)) => Ok(ClientEvent::Nack(n)),
            RecvOutcome::Frame(Frame::Goodbye(g)) => Ok(ClientEvent::Goodbye(g.count)),
            RecvOutcome::Frame(f) => Err(WireError::Protocol(format!(
                "unexpected {} frame from the gateway",
                f.type_name()
            ))),
            RecvOutcome::TimedOut => Ok(ClientEvent::TimedOut),
            RecvOutcome::Closed => Ok(ClientEvent::Closed),
        }
    }
}
