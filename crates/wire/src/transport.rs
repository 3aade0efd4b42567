//! Transport abstraction: how framed bytes move between a sensor and
//! the gateway.
//!
//! Two implementations share the [`Connection`] / [`Acceptor`] traits:
//!
//! * **loopback** — in-process bounded byte pipes (see
//!   [`crate::pipe`]). The full codec + envelope runs on both ends (so
//!   checksums, framing *and* partial-frame reassembly are exercised),
//!   delivery is deterministic, the ring gives real backpressure, and
//!   no per-frame allocation happens in the transport itself — the
//!   right substrate for deterministic tests and in-process soaks.
//! * **TCP** — a std-only `TcpStream` transport with per-connection
//!   read/write timeouts, a max-frame-size limit enforced *before*
//!   buffering the payload, and an incremental reader that preserves
//!   partial frames across read timeouts (a slow sensor on a congested
//!   link resumes mid-frame, it does not desynchronise).
//!
//! Each connection offers two faces:
//!
//! * [`Connection::split`] — blocking, independently owned
//!   [`FrameSink`] / [`FrameSource`] halves for client threads;
//! * [`Connection::into_poll`] — a non-blocking [`PollConn`] for the
//!   gateway's readiness reactor, exposing raw byte reads and vectored
//!   writes that never park a thread.

use crate::codec::{decode_payload, DecodeError, EncodeError, Frame};
use crate::frame::{Encoder, FrameBuffer, DEFAULT_MAX_PAYLOAD};
use crate::pipe::{self, PipeReader, PipeWriter, TryRead, TryWrite};
use std::error::Error;
use std::fmt;
use std::io::{ErrorKind, IoSlice, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::mpsc;
use std::time::Duration;

/// Why a transport operation failed. Transport errors are fatal for
/// their connection: a failed send may have written a partial frame,
/// and a failed decode means the byte stream is desynchronised — the
/// only safe continuation is to close.
#[derive(Debug)]
pub enum TransportError {
    /// An OS-level I/O failure.
    Io {
        /// What the transport was doing.
        context: &'static str,
        /// The underlying error.
        error: std::io::Error,
    },
    /// The peer's bytes failed to frame or decode.
    Decode(DecodeError),
    /// A frame refused to encode (a protocol bound was exceeded).
    /// Nothing was written to the wire, but the caller was about to
    /// violate its sequencing contract, so the connection should close.
    Encode(EncodeError),
    /// The peer went away mid-conversation (EOF inside a frame, or a
    /// closed in-process channel).
    Disconnected {
        /// Where the disconnect surfaced.
        context: &'static str,
    },
    /// A send could not complete within the connection's write
    /// timeout. The frame may be partially written; the connection
    /// must be closed.
    SendTimeout,
}

impl fmt::Display for TransportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransportError::Io { context, error } => {
                write!(f, "transport i/o ({context}): {error}")
            }
            TransportError::Decode(e) => write!(f, "transport decode: {e}"),
            TransportError::Encode(e) => write!(f, "transport encode: {e}"),
            TransportError::Disconnected { context } => {
                write!(f, "peer disconnected ({context})")
            }
            TransportError::SendTimeout => write!(f, "send timed out; connection unusable"),
        }
    }
}

impl Error for TransportError {}

impl From<DecodeError> for TransportError {
    fn from(e: DecodeError) -> Self {
        TransportError::Decode(e)
    }
}

impl From<EncodeError> for TransportError {
    fn from(e: EncodeError) -> Self {
        TransportError::Encode(e)
    }
}

/// What a bounded-wait receive produced.
// Inline for the same reason as `Frame`: no per-record allocation on
// the receive path.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub enum RecvOutcome {
    /// One complete, checksum-verified frame.
    Frame(Frame),
    /// Nothing arrived within the read timeout; the connection is
    /// still healthy — poll again.
    TimedOut,
    /// The peer closed the connection cleanly (EOF between frames).
    Closed,
}

/// The sending half of a connection.
pub trait FrameSink: Send {
    /// Encodes and transmits one frame.
    ///
    /// # Errors
    ///
    /// Any [`TransportError`]; all of them are fatal for the
    /// connection (see the type's docs).
    fn send(&mut self, frame: &Frame) -> Result<(), TransportError>;
}

/// The receiving half of a connection.
pub trait FrameSource: Send {
    /// Waits up to the connection's read timeout for the next frame.
    ///
    /// # Errors
    ///
    /// [`TransportError::Decode`] when the byte stream is corrupt
    /// (fatal — the stream cannot be resynchronised), I/O errors
    /// otherwise. A timeout is *not* an error: it comes back as
    /// [`RecvOutcome::TimedOut`].
    fn recv(&mut self) -> Result<RecvOutcome, TransportError>;
}

/// What a non-blocking read observed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PollRead {
    /// `n > 0` bytes landed in the caller's buffer.
    Data(usize),
    /// Nothing available right now; poll again later.
    WouldBlock,
    /// The peer closed its sending side (clean EOF).
    Eof,
}

/// What a non-blocking vectored write observed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PollWrite {
    /// `n > 0` bytes were accepted (possibly fewer than offered).
    Wrote(usize),
    /// The peer's buffer is full; retry after it drains.
    WouldBlock,
}

/// The non-blocking face of a connection, driven by the gateway's
/// readiness reactor: raw byte reads and vectored writes that never
/// park the calling thread.
pub trait PollConn: Send {
    /// Reads whatever bytes are available into `buf` without blocking.
    ///
    /// # Errors
    ///
    /// Any fatal [`TransportError`]; a momentarily-empty peer is
    /// [`PollRead::WouldBlock`], not an error.
    fn poll_read(&mut self, buf: &mut [u8]) -> Result<PollRead, TransportError>;

    /// Writes as much of `bufs` as the peer will take without
    /// blocking. Partial writes are normal; the caller tracks its
    /// offset.
    ///
    /// # Errors
    ///
    /// Any fatal [`TransportError`]; a momentarily-full peer is
    /// [`PollWrite::WouldBlock`], not an error.
    fn poll_write(&mut self, bufs: &[IoSlice<'_>]) -> Result<PollWrite, TransportError>;

    /// A human-readable peer description (diagnostics only).
    fn peer(&self) -> String;
}

/// One established sensor↔gateway connection, not yet split.
pub trait Connection: Send {
    /// Splits the connection into independently owned blocking halves.
    fn split(self: Box<Self>) -> (Box<dyn FrameSink>, Box<dyn FrameSource>);

    /// Converts the connection into its non-blocking [`PollConn`]
    /// face for the readiness reactor.
    ///
    /// # Errors
    ///
    /// Any I/O failure while reconfiguring the underlying socket.
    fn into_poll(self: Box<Self>) -> Result<Box<dyn PollConn>, TransportError>;

    /// A human-readable peer description (diagnostics only).
    fn peer(&self) -> String;
}

/// What one bounded-wait accept produced.
pub enum Accepted {
    /// A new connection.
    Connection(Box<dyn Connection>),
    /// No connection arrived within the accept timeout; poll again.
    TimedOut,
    /// The connector side is gone; no further connections can arrive.
    Closed,
}

/// The listening side of a transport, handed to the gateway.
pub trait Acceptor: Send {
    /// Waits up to the transport's accept timeout for one connection.
    ///
    /// # Errors
    ///
    /// Any [`TransportError`] on the listener itself (not on an
    /// individual connection).
    fn accept(&mut self) -> Result<Accepted, TransportError>;
}

// ---------------------------------------------------------------------
// Generic framed halves over any blocking byte stream
// ---------------------------------------------------------------------
//
// `TcpStream` (with socket timeouts) and the pipe halves (with their
// built-in timeout) expose the same blocking `Read`/`Write` shape, so
// one framed sink and one framed source serve both transports, and the
// source parses with the same `FrameBuffer` as the reactor.

fn map_write_err(error: std::io::Error, context: &'static str) -> TransportError {
    match error.kind() {
        ErrorKind::WouldBlock | ErrorKind::TimedOut => TransportError::SendTimeout,
        ErrorKind::BrokenPipe | ErrorKind::ConnectionReset | ErrorKind::ConnectionAborted => {
            TransportError::Disconnected { context }
        }
        _ => TransportError::Io { context, error },
    }
}

struct StreamSink<W: Write + Send> {
    stream: W,
    encoder: Encoder,
    buf: Vec<u8>,
    context: &'static str,
}

impl<W: Write + Send> StreamSink<W> {
    fn new(stream: W, context: &'static str) -> Self {
        Self {
            stream,
            encoder: Encoder::new(),
            buf: Vec::new(),
            context,
        }
    }
}

impl<W: Write + Send> FrameSink for StreamSink<W> {
    fn send(&mut self, frame: &Frame) -> Result<(), TransportError> {
        self.buf.clear();
        self.encoder.encode_into(frame, &mut self.buf)?;
        self.stream
            .write_all(&self.buf)
            .map_err(|e| map_write_err(e, self.context))
    }
}

/// Blocking frame reader over the shared [`FrameBuffer`]: `peek` →
/// `decode_payload` → `consume`, reading into `spare_mut` only when no
/// complete frame is buffered. It shares the reactor's framing path —
/// oversize frames refused from the header, checksums checked, and
/// partial frames kept across timeouts, so a frame split across many
/// reads reassembles correctly.
struct StreamSource<R: Read + Send> {
    stream: R,
    inbuf: FrameBuffer,
    context: &'static str,
}

impl<R: Read + Send> StreamSource<R> {
    fn new(stream: R, max_payload: usize, context: &'static str) -> Self {
        Self {
            stream,
            inbuf: FrameBuffer::new(max_payload),
            context,
        }
    }
}

impl<R: Read + Send> FrameSource for StreamSource<R> {
    fn recv(&mut self) -> Result<RecvOutcome, TransportError> {
        loop {
            if let Some((header, payload)) = self.inbuf.peek()? {
                let frame = decode_payload(header.frame_type, payload)?;
                self.inbuf.consume(header.payload_len);
                return Ok(RecvOutcome::Frame(frame));
            }
            match self.stream.read(self.inbuf.spare_mut()) {
                Ok(0) if self.inbuf.is_empty() => return Ok(RecvOutcome::Closed),
                Ok(0) => {
                    return Err(TransportError::Disconnected {
                        context: "eof inside a frame",
                    })
                }
                Ok(n) => self.inbuf.commit(n),
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                    return Ok(RecvOutcome::TimedOut);
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(error) => {
                    return Err(TransportError::Io {
                        context: self.context,
                        error,
                    });
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Loopback
// ---------------------------------------------------------------------

/// Loopback tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct LoopbackConfig {
    /// How long a `recv` waits before reporting `TimedOut`.
    pub recv_timeout: Duration,
    /// How long a blocking `send` waits for ring space before failing
    /// with [`TransportError::SendTimeout`] — the loopback face of a
    /// sensor that stopped reading.
    pub send_timeout: Duration,
    /// How long an `accept` waits before reporting `TimedOut`.
    pub accept_timeout: Duration,
    /// Per-frame payload ceiling (same meaning as on TCP).
    pub max_payload: usize,
    /// Byte capacity of each direction's ring buffer; bounds how far a
    /// fast writer can run ahead of a slow reader.
    pub pipe_capacity: usize,
}

impl Default for LoopbackConfig {
    fn default() -> Self {
        Self {
            recv_timeout: Duration::from_millis(50),
            send_timeout: Duration::from_secs(2),
            accept_timeout: Duration::from_millis(50),
            max_payload: DEFAULT_MAX_PAYLOAD,
            pipe_capacity: pipe::DEFAULT_PIPE_CAPACITY,
        }
    }
}

/// Creates an in-process transport: the [`LoopbackAcceptor`] goes to
/// the gateway, the cloneable [`LoopbackConnector`] to any number of
/// client threads.
pub fn loopback(config: LoopbackConfig) -> (LoopbackAcceptor, LoopbackConnector) {
    let (tx, rx) = mpsc::channel();
    (
        LoopbackAcceptor { rx, config },
        LoopbackConnector { tx, config },
    )
}

/// One side of a loopback connection: a byte-pipe reader paired with a
/// byte-pipe writer, running the full framing stack on both ends.
struct LoopbackConn {
    tx: PipeWriter,
    rx: PipeReader,
    config: LoopbackConfig,
    peer: &'static str,
}

impl Connection for LoopbackConn {
    fn split(self: Box<Self>) -> (Box<dyn FrameSink>, Box<dyn FrameSource>) {
        (
            Box::new(StreamSink::new(self.tx, "loopback send")),
            Box::new(StreamSource::new(
                self.rx,
                self.config.max_payload,
                "loopback recv",
            )),
        )
    }

    fn into_poll(self: Box<Self>) -> Result<Box<dyn PollConn>, TransportError> {
        Ok(Box::new(PipePoll {
            tx: self.tx,
            rx: self.rx,
            peer: self.peer,
        }))
    }

    fn peer(&self) -> String {
        self.peer.to_string()
    }
}

/// Non-blocking face of a loopback connection.
struct PipePoll {
    tx: PipeWriter,
    rx: PipeReader,
    peer: &'static str,
}

impl PollConn for PipePoll {
    fn poll_read(&mut self, buf: &mut [u8]) -> Result<PollRead, TransportError> {
        Ok(match self.rx.try_read(buf) {
            TryRead::Read(n) => PollRead::Data(n),
            TryRead::Empty => PollRead::WouldBlock,
            TryRead::Eof => PollRead::Eof,
        })
    }

    fn poll_write(&mut self, bufs: &[IoSlice<'_>]) -> Result<PollWrite, TransportError> {
        match self.tx.try_write_vectored(bufs) {
            TryWrite::Wrote(n) => Ok(PollWrite::Wrote(n)),
            TryWrite::Full => Ok(PollWrite::WouldBlock),
            TryWrite::Closed => Err(TransportError::Disconnected {
                context: "loopback poll write",
            }),
        }
    }

    fn peer(&self) -> String {
        self.peer.to_string()
    }
}

/// The gateway's end of a loopback transport.
pub struct LoopbackAcceptor {
    rx: mpsc::Receiver<LoopbackConn>,
    config: LoopbackConfig,
}

impl Acceptor for LoopbackAcceptor {
    fn accept(&mut self) -> Result<Accepted, TransportError> {
        match self.rx.recv_timeout(self.config.accept_timeout) {
            Ok(conn) => Ok(Accepted::Connection(Box::new(conn))),
            Err(mpsc::RecvTimeoutError::Timeout) => Ok(Accepted::TimedOut),
            Err(mpsc::RecvTimeoutError::Disconnected) => Ok(Accepted::Closed),
        }
    }
}

/// The client-side factory of a loopback transport. Cloneable: hand a
/// copy to every simulated sensor thread.
#[derive(Clone)]
pub struct LoopbackConnector {
    tx: mpsc::Sender<LoopbackConn>,
    config: LoopbackConfig,
}

impl LoopbackConnector {
    /// Establishes one connection to the acceptor.
    ///
    /// # Errors
    ///
    /// [`TransportError::Disconnected`] when the acceptor is gone.
    pub fn connect(&self) -> Result<Box<dyn Connection>, TransportError> {
        // Blocking reads on the client half use the recv timeout;
        // blocking writes on either half use the send timeout. The
        // gateway half is polled non-blocking, where timeouts are moot.
        let (c2s_tx, c2s_rx) = pipe::pipe(self.config.pipe_capacity, self.config.send_timeout);
        let (s2c_tx, s2c_rx) = pipe::pipe(self.config.pipe_capacity, self.config.send_timeout);
        let mut client_rx = s2c_rx;
        client_rx.set_timeout(self.config.recv_timeout);
        let mut server_rx = c2s_rx;
        server_rx.set_timeout(self.config.recv_timeout);
        let server = LoopbackConn {
            tx: s2c_tx,
            rx: server_rx,
            config: self.config,
            peer: "loopback-client",
        };
        let client = LoopbackConn {
            tx: c2s_tx,
            rx: client_rx,
            config: self.config,
            peer: "loopback-gateway",
        };
        self.tx
            .send(server)
            .map_err(|_| TransportError::Disconnected {
                context: "loopback connect",
            })?;
        Ok(Box::new(client))
    }
}

// ---------------------------------------------------------------------
// TCP
// ---------------------------------------------------------------------

/// TCP tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct TcpConfig {
    /// Socket read timeout; bounds how long `recv` blocks and how
    /// stale a shutdown check can get.
    pub read_timeout: Duration,
    /// Socket write timeout; a sensor that stops reading for this long
    /// gets its connection dropped (the slow-client policy decides
    /// what happened to its predictions *before* this last resort).
    pub write_timeout: Duration,
    /// Per-frame payload ceiling, enforced from the header before any
    /// payload bytes are buffered.
    pub max_payload: usize,
    /// Disable Nagle's algorithm (on by default: single-record frames
    /// are latency-sensitive).
    pub nodelay: bool,
}

impl Default for TcpConfig {
    fn default() -> Self {
        Self {
            read_timeout: Duration::from_millis(50),
            write_timeout: Duration::from_secs(2),
            max_payload: DEFAULT_MAX_PAYLOAD,
            nodelay: true,
        }
    }
}

fn io_err(context: &'static str) -> impl FnOnce(std::io::Error) -> TransportError {
    move |error| TransportError::Io { context, error }
}

/// Binds a listener and returns the acceptor plus the actual local
/// address (useful with a `:0` ephemeral port).
///
/// # Errors
///
/// Any I/O failure while binding or configuring the listener.
pub fn tcp_listen(
    addr: &str,
    config: TcpConfig,
) -> Result<(TcpAcceptor, SocketAddr), TransportError> {
    let listener = TcpListener::bind(addr).map_err(io_err("bind"))?;
    listener
        .set_nonblocking(true)
        .map_err(io_err("listener nonblocking"))?;
    let local = listener.local_addr().map_err(io_err("local addr"))?;
    Ok((
        TcpAcceptor {
            listener,
            config,
            poll: Duration::from_millis(10),
        },
        local,
    ))
}

/// Connects to a gateway listener.
///
/// # Errors
///
/// Any I/O failure while connecting or configuring the socket.
pub fn tcp_connect(addr: &str, config: TcpConfig) -> Result<Box<dyn Connection>, TransportError> {
    let stream = TcpStream::connect(addr).map_err(io_err("connect"))?;
    Ok(Box::new(TcpConn::from_stream(stream, config)?))
}

/// The gateway's end of a TCP transport. The listener runs
/// non-blocking with a short sleep poll, so `accept` observes gateway
/// shutdown within one poll interval.
pub struct TcpAcceptor {
    listener: TcpListener,
    config: TcpConfig,
    poll: Duration,
}

impl Acceptor for TcpAcceptor {
    fn accept(&mut self) -> Result<Accepted, TransportError> {
        match self.listener.accept() {
            Ok((stream, _peer)) => Ok(Accepted::Connection(Box::new(TcpConn::from_stream(
                stream,
                self.config,
            )?))),
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                std::thread::sleep(self.poll);
                Ok(Accepted::TimedOut)
            }
            Err(error) => Err(TransportError::Io {
                context: "accept",
                error,
            }),
        }
    }
}

/// One TCP connection, holding two clones of the socket so the halves
/// split without locks.
pub struct TcpConn {
    read: TcpStream,
    write: TcpStream,
    peer: String,
    config: TcpConfig,
}

impl TcpConn {
    fn from_stream(stream: TcpStream, config: TcpConfig) -> Result<Self, TransportError> {
        stream
            .set_nodelay(config.nodelay)
            .map_err(io_err("nodelay"))?;
        // A zero Duration means "no timeout" to the socket API — clamp
        // so the configured bound is always a real bound.
        let read_to = config.read_timeout.max(Duration::from_millis(1));
        let write_to = config.write_timeout.max(Duration::from_millis(1));
        stream
            .set_read_timeout(Some(read_to))
            .map_err(io_err("read timeout"))?;
        stream
            .set_write_timeout(Some(write_to))
            .map_err(io_err("write timeout"))?;
        let peer = stream
            .peer_addr()
            .map(|a| a.to_string())
            .unwrap_or_else(|_| "tcp-unknown".to_string());
        let write = stream.try_clone().map_err(io_err("clone stream"))?;
        Ok(Self {
            read: stream,
            write,
            peer,
            config,
        })
    }
}

impl Connection for TcpConn {
    fn split(self: Box<Self>) -> (Box<dyn FrameSink>, Box<dyn FrameSource>) {
        (
            Box::new(StreamSink::new(self.write, "tcp send")),
            Box::new(StreamSource::new(
                self.read,
                self.config.max_payload,
                "tcp recv",
            )),
        )
    }

    fn into_poll(self: Box<Self>) -> Result<Box<dyn PollConn>, TransportError> {
        // One nonblocking socket serves both directions in the
        // reactor; the write clone is dropped (same file description,
        // so nonblocking applies to the socket as a whole).
        self.read
            .set_nonblocking(true)
            .map_err(io_err("set nonblocking"))?;
        Ok(Box::new(TcpPoll {
            stream: self.read,
            peer: self.peer,
        }))
    }

    fn peer(&self) -> String {
        self.peer.clone()
    }
}

/// Non-blocking face of a TCP connection.
struct TcpPoll {
    stream: TcpStream,
    peer: String,
}

impl PollConn for TcpPoll {
    fn poll_read(&mut self, buf: &mut [u8]) -> Result<PollRead, TransportError> {
        match self.stream.read(buf) {
            Ok(0) => Ok(PollRead::Eof),
            Ok(n) => Ok(PollRead::Data(n)),
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                Ok(PollRead::WouldBlock)
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => Ok(PollRead::WouldBlock),
            Err(e)
                if matches!(
                    e.kind(),
                    ErrorKind::ConnectionReset | ErrorKind::ConnectionAborted
                ) =>
            {
                Err(TransportError::Disconnected {
                    context: "tcp poll read",
                })
            }
            Err(error) => Err(TransportError::Io {
                context: "tcp poll read",
                error,
            }),
        }
    }

    fn poll_write(&mut self, bufs: &[IoSlice<'_>]) -> Result<PollWrite, TransportError> {
        match self.stream.write_vectored(bufs) {
            Ok(0) => Ok(PollWrite::WouldBlock),
            Ok(n) => Ok(PollWrite::Wrote(n)),
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                Ok(PollWrite::WouldBlock)
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => Ok(PollWrite::WouldBlock),
            Err(e)
                if matches!(
                    e.kind(),
                    ErrorKind::BrokenPipe
                        | ErrorKind::ConnectionReset
                        | ErrorKind::ConnectionAborted
                ) =>
            {
                Err(TransportError::Disconnected {
                    context: "tcp poll write",
                })
            }
            Err(error) => Err(TransportError::Io {
                context: "tcp poll write",
                error,
            }),
        }
    }

    fn peer(&self) -> String {
        self.peer.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{Goodbye, Hello, PredictionFrame, PROTOCOL_VERSION};
    use crate::frame::decode_frame;

    fn recv_frame(source: &mut Box<dyn FrameSource>) -> Frame {
        for _ in 0..200 {
            match source.recv().unwrap() {
                RecvOutcome::Frame(f) => return f,
                RecvOutcome::TimedOut => continue,
                RecvOutcome::Closed => panic!("peer closed early"),
            }
        }
        panic!("no frame within the polling budget");
    }

    #[test]
    fn loopback_round_trips_frames_both_ways() {
        let (mut acceptor, connector) = loopback(LoopbackConfig::default());
        let client = connector.connect().unwrap();
        let Accepted::Connection(server) = acceptor.accept().unwrap() else {
            panic!("no connection");
        };
        let (mut ctx, mut crx) = client.split();
        let (mut stx, mut srx) = server.split();

        let hello = Frame::Hello(Hello {
            protocol: PROTOCOL_VERSION,
            sensor_id: "s0".into(),
            tenant: "t0".into(),
        });
        ctx.send(&hello).unwrap();
        assert_eq!(recv_frame(&mut srx), hello);

        let pred = Frame::Prediction(PredictionFrame {
            seq: 1,
            timestamp_s: 0.5,
            occupied: 1,
            proba: 0.75,
            model_version: 1,
            latency_ns: 10,
        });
        stx.send(&pred).unwrap();
        assert_eq!(recv_frame(&mut crx), pred);
    }

    #[test]
    fn loopback_reports_closed_when_the_peer_drops() {
        let (mut acceptor, connector) = loopback(LoopbackConfig::default());
        let client = connector.connect().unwrap();
        let Accepted::Connection(server) = acceptor.accept().unwrap() else {
            panic!("no connection");
        };
        drop(server);
        let (_tx, mut rx) = client.split();
        assert!(matches!(rx.recv().unwrap(), RecvOutcome::Closed));
    }

    #[test]
    fn loopback_poll_face_moves_bytes_without_blocking() {
        let (mut acceptor, connector) = loopback(LoopbackConfig::default());
        let client = connector.connect().unwrap();
        let Accepted::Connection(server) = acceptor.accept().unwrap() else {
            panic!("no connection");
        };
        let mut poll = server.into_poll().unwrap();
        let mut scratch = [0u8; 64];
        assert_eq!(poll.poll_read(&mut scratch).unwrap(), PollRead::WouldBlock);

        let (mut ctx, mut crx) = client.split();
        let goodbye = Frame::Goodbye(Goodbye { count: 2 });
        ctx.send(&goodbye).unwrap();
        let mut collected = Vec::new();
        loop {
            match poll.poll_read(&mut scratch).unwrap() {
                PollRead::Data(n) => collected.extend_from_slice(&scratch[..n]),
                PollRead::WouldBlock => break,
                PollRead::Eof => panic!("unexpected eof"),
            }
        }
        let (frame, consumed) = decode_frame(&collected, DEFAULT_MAX_PAYLOAD).unwrap();
        assert_eq!(frame, goodbye);
        assert_eq!(consumed, collected.len());

        // Vectored write split across two slices reassembles at the
        // blocking client half.
        let bytes = Encoder::new().encode(&goodbye).unwrap();
        let (a, b) = bytes.split_at(7);
        let mut offset = 0;
        while offset < bytes.len() {
            let slices = if offset < a.len() {
                vec![IoSlice::new(&a[offset..]), IoSlice::new(b)]
            } else {
                vec![IoSlice::new(&b[offset - a.len()..])]
            };
            match poll.poll_write(&slices).unwrap() {
                PollWrite::Wrote(n) => offset += n,
                PollWrite::WouldBlock => std::thread::yield_now(),
            }
        }
        assert_eq!(recv_frame(&mut crx), goodbye);
    }

    #[test]
    fn tcp_round_trips_over_localhost() {
        let (mut acceptor, addr) = tcp_listen("127.0.0.1:0", TcpConfig::default()).unwrap();
        let client = tcp_connect(&addr.to_string(), TcpConfig::default()).unwrap();
        let server = loop {
            match acceptor.accept().unwrap() {
                Accepted::Connection(c) => break c,
                Accepted::TimedOut => continue,
                Accepted::Closed => panic!("listener closed"),
            }
        };
        let (mut ctx, crx) = client.split();
        let (_stx, mut srx) = server.split();
        let goodbye = Frame::Goodbye(Goodbye { count: 9 });
        ctx.send(&goodbye).unwrap();
        assert_eq!(recv_frame(&mut srx), goodbye);
        // Both halves hold a clone of the socket; FIN goes out only
        // when the last one drops.
        drop(ctx);
        drop(crx);
        for attempt in 0..100 {
            match srx.recv().unwrap() {
                RecvOutcome::Closed => return,
                RecvOutcome::TimedOut => continue,
                RecvOutcome::Frame(f) => panic!("unexpected frame {f:?} on attempt {attempt}"),
            }
        }
        panic!("never observed Closed after the peer dropped");
    }

    #[test]
    fn tcp_reassembles_frames_split_across_writes() {
        let (mut acceptor, addr) = tcp_listen("127.0.0.1:0", TcpConfig::default()).unwrap();
        let mut raw = TcpStream::connect(addr).unwrap();
        let server = loop {
            match acceptor.accept().unwrap() {
                Accepted::Connection(c) => break c,
                Accepted::TimedOut => continue,
                Accepted::Closed => panic!("listener closed"),
            }
        };
        let (_stx, mut srx) = server.split();
        let frame = Frame::Goodbye(Goodbye { count: 777 });
        let bytes = Encoder::new().encode(&frame).unwrap();
        // Dribble the frame one byte at a time across the socket.
        for b in &bytes {
            raw.write_all(std::slice::from_ref(b)).unwrap();
            raw.flush().unwrap();
        }
        assert_eq!(recv_frame(&mut srx), frame);
    }

    #[test]
    fn tcp_refuses_oversize_frames_from_the_header() {
        let (mut acceptor, addr) = tcp_listen(
            "127.0.0.1:0",
            TcpConfig {
                max_payload: 16,
                ..TcpConfig::default()
            },
        )
        .unwrap();
        let mut raw = TcpStream::connect(addr).unwrap();
        let server = loop {
            match acceptor.accept().unwrap() {
                Accepted::Connection(c) => break c,
                Accepted::TimedOut => continue,
                Accepted::Closed => panic!("listener closed"),
            }
        };
        let (_stx, mut srx) = server.split();
        // Header declaring a 1 MiB payload; only the header is sent.
        let mut header = Vec::new();
        header.extend_from_slice(&crate::frame::MAGIC);
        header.push(PROTOCOL_VERSION);
        header.push(7);
        header.extend_from_slice(&0u16.to_le_bytes());
        header.extend_from_slice(&(1u32 << 20).to_le_bytes());
        header.extend_from_slice(&0u64.to_le_bytes());
        raw.write_all(&header).unwrap();
        let err = loop {
            match srx.recv() {
                Ok(RecvOutcome::TimedOut) => continue,
                Ok(other) => panic!("expected oversize refusal, got {other:?}"),
                Err(e) => break e,
            }
        };
        assert!(matches!(
            err,
            TransportError::Decode(DecodeError::Oversize { max: 16, .. })
        ));
    }

    #[test]
    fn oversize_sends_are_refused_before_any_byte_moves() {
        let (mut acceptor, connector) = loopback(LoopbackConfig::default());
        let client = connector.connect().unwrap();
        let Accepted::Connection(server) = acceptor.accept().unwrap() else {
            panic!("no connection");
        };
        let (mut ctx, _crx) = client.split();
        let oversize = Frame::Hello(Hello {
            protocol: PROTOCOL_VERSION,
            sensor_id: "x".repeat(crate::codec::MAX_SENSOR_ID_BYTES + 1),
            tenant: String::new(),
        });
        assert!(matches!(
            ctx.send(&oversize),
            Err(TransportError::Encode(EncodeError::SensorIdTooLong { .. }))
        ));
        // The connection is still clean: a well-formed frame follows.
        let (_stx, mut srx) = server.split();
        let goodbye = Frame::Goodbye(Goodbye { count: 1 });
        ctx.send(&goodbye).unwrap();
        assert_eq!(recv_frame(&mut srx), goodbye);
    }
}
