//! A blocking wire-protocol client for the serve daemon, with seeded
//! exponential-backoff retry.
//!
//! [`Client`] speaks the length-prefixed JSON protocol of
//! [`crate::proto`] over one TCP connection, reconnecting and resending
//! on transient failures (connect refusals, mid-stream resets, torn
//! response frames, `queue_full`/`overloaded` rejections) under a
//! [`ClientRetry`] policy — the wall-clock mirror of the DRA's
//! `RetryPolicy` (same fields, same jittered exponential shape, seeded
//! so backoff traces are reproducible).
//!
//! **Resending a job is safe.** The daemon keys execution on the job's
//! *canonical fingerprint*: a resent spec either joins the original's
//! still-running single-flight or replays its cached record, so a retry
//! after a lost response frame never double-solves. This is the
//! client-side half of the at-most-once-execution contract; the tests
//! in `tests/serve_overload.rs` pin it.
//!
//! **Cancellation** is first-class: [`Client::submit_nowait`] sends a
//! job and returns its request id without blocking, [`Client::cancel`]
//! revokes that id (the daemon acks with an outcome —
//! `"queued"`/`"running"`/`"detached"`/`"unknown"`), and
//! [`Client::submit_within`] bounds the whole wait client-side,
//! canceling the job when the budget expires instead of abandoning it
//! on the daemon. Responses for other in-flight ids that arrive while
//! waiting are stashed and replayed by [`Client::await_report`].

use crate::job::{JobReport, JobSpec};
use crate::proto::{self, FrameDecoder, JobRequest, ServeStats, WireFrame};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::HashMap;
use std::io::Read;
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Retry policy for [`Client`]: the DRA `RetryPolicy` shape applied to
/// wall-clock waits.
#[derive(Clone, Debug)]
pub struct ClientRetry {
    /// Total attempts per operation, including the first (`1` = never
    /// retry).
    pub max_attempts: u32,
    /// Backoff before the first retry, seconds.
    pub base_backoff_s: f64,
    /// Multiplier applied to the backoff after each retry.
    pub backoff_factor: f64,
    /// Upper bound on a single backoff wait.
    pub max_backoff_s: f64,
    /// Jitter fraction in `[0, 1]`: each wait is scaled by a uniform
    /// factor from `[1 - jitter, 1 + jitter]` so retrying clients
    /// decorrelate.
    pub jitter: f64,
    /// Seed of the jitter stream.
    pub seed: u64,
}

impl Default for ClientRetry {
    fn default() -> Self {
        ClientRetry {
            max_attempts: 4,
            base_backoff_s: 0.05,
            backoff_factor: 2.0,
            max_backoff_s: 5.0,
            jitter: 0.25,
            seed: 0x7ce,
        }
    }
}

impl ClientRetry {
    /// A policy differing from the default only in its attempt count.
    pub fn with_attempts(max_attempts: u32) -> Self {
        ClientRetry {
            max_attempts,
            ..ClientRetry::default()
        }
    }

    /// Sets the jitter-stream seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// Why a client operation ultimately failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ClientError {
    /// Transport errors exhausted every retry attempt.
    Io(String),
    /// The daemon refused the job terminally (e.g. `shutting_down`),
    /// or retryable rejections (`queue_full`, `overloaded`) survived
    /// every attempt.
    Rejected(String),
    /// The daemon answered with a protocol error; retrying the same
    /// bytes would only repeat it.
    Protocol(String),
    /// The daemon is draining; no new work will be admitted.
    Draining,
    /// The job's deadline budget was already consumed by its queue wait
    /// and the daemon shed it without solving; `retry_after_ms` is the
    /// daemon's estimate of when the backlog clears.
    DeadlineUnmeetable {
        /// Backoff hint from the daemon, milliseconds.
        retry_after_ms: Option<u64>,
    },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "i/o: {e}"),
            ClientError::Rejected(reason) => write!(f, "rejected: {reason}"),
            ClientError::Protocol(reason) => write!(f, "protocol error: {reason}"),
            ClientError::Draining => write!(f, "server is shutting down"),
            ClientError::DeadlineUnmeetable { retry_after_ms } => match retry_after_ms {
                Some(ms) => write!(f, "deadline unmeetable (retry after ~{ms}ms)"),
                None => write!(f, "deadline unmeetable"),
            },
        }
    }
}

impl std::error::Error for ClientError {}

/// A blocking, retrying daemon client over one TCP connection.
pub struct Client {
    addr: String,
    retry: ClientRetry,
    rng: StdRng,
    stream: Option<TcpStream>,
    /// Reassembles frames from raw reads, so a timed-out wait never
    /// tears a partially received frame (the bytes stay buffered here).
    decoder: FrameDecoder,
    /// Terminal responses for ids other than the one being awaited,
    /// replayed by [`Client::await_report`].
    pending: HashMap<u64, PendingEnd>,
    next_id: u64,
    reconnects: u64,
    retries: u64,
}

/// A stashed terminal response for a not-currently-awaited id.
enum PendingEnd {
    Report(JobReport),
    Rejected {
        reason: String,
        retry_after_ms: Option<u64>,
    },
}

/// One step of the buffered frame reader.
enum ReadStep {
    Frame(WireFrame),
    /// The server closed the connection.
    Eof,
    /// The caller's deadline passed before a full frame arrived.
    TimedOut,
    Io(String),
    /// The decoder rejected the stream (oversized/torn frame).
    Bad(String),
}

impl Client {
    /// Creates a client for the daemon at `addr` (connections are
    /// opened lazily and re-opened transparently after failures).
    pub fn new(addr: impl Into<String>, retry: ClientRetry) -> Client {
        let rng = StdRng::seed_from_u64(retry.seed);
        Client {
            addr: addr.into(),
            retry,
            rng,
            stream: None,
            decoder: FrameDecoder::new(),
            pending: HashMap::new(),
            next_id: 1,
            reconnects: 0,
            retries: 0,
        }
    }

    /// Times the connection was (re-)established after the first.
    pub fn reconnects(&self) -> u64 {
        self.reconnects
    }

    /// Attempts beyond the first, across all operations.
    pub fn retries(&self) -> u64 {
        self.retries
    }

    /// Sleeps out the jittered exponential backoff before retry
    /// `attempt` (1-based).
    fn backoff(&mut self, attempt: u32) {
        let base = self.retry.base_backoff_s
            * self
                .retry
                .backoff_factor
                .powi(attempt.saturating_sub(1) as i32);
        let scale = if self.retry.jitter > 0.0 {
            1.0 + self.retry.jitter * (self.rng.random::<f64>() * 2.0 - 1.0)
        } else {
            1.0
        };
        let wait = (base * scale).clamp(0.0, self.retry.max_backoff_s);
        if wait > 0.0 {
            std::thread::sleep(Duration::from_secs_f64(wait));
        }
    }

    fn drop_stream(&mut self) {
        self.stream = None;
        // partial bytes from the dead connection must not prefix the
        // next connection's frames
        self.decoder = FrameDecoder::new();
    }

    /// Reads until one full frame is decoded, EOF, an error, or
    /// `deadline` passes. Timed-out reads are safe: partially received
    /// frames stay buffered in the decoder.
    fn read_next(&mut self, deadline: Option<Instant>) -> ReadStep {
        let mut buf = [0u8; 8192];
        loop {
            match self.decoder.next_frame() {
                Ok(Some(frame)) => return ReadStep::Frame(frame),
                Ok(None) => {}
                Err(reason) => return ReadStep::Bad(reason),
            }
            let Some(stream) = self.stream.as_mut() else {
                return ReadStep::Io("no connection".to_string());
            };
            let timeout = match deadline {
                Some(at) => {
                    let now = Instant::now();
                    if now >= at {
                        return ReadStep::TimedOut;
                    }
                    Some((at - now).min(Duration::from_millis(200)))
                }
                None => None,
            };
            if stream.set_read_timeout(timeout).is_err() {
                return ReadStep::Io("cannot arm read timeout".to_string());
            }
            match stream.read(&mut buf) {
                Ok(0) => return ReadStep::Eof,
                Ok(n) => self.decoder.extend(&buf[..n]),
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
                {
                    continue;
                }
                Err(e) => return ReadStep::Io(format!("read: {e}")),
            }
        }
    }

    /// Converts a stashed terminal response into the public result.
    fn take_pending(&mut self, id: u64) -> Option<Result<JobReport, ClientError>> {
        self.pending.remove(&id).map(|end| match end {
            PendingEnd::Report(report) => Ok(report),
            PendingEnd::Rejected {
                reason,
                retry_after_ms,
            } => Err(match reason.as_str() {
                "shutting_down" => ClientError::Draining,
                "deadline_unmeetable" => ClientError::DeadlineUnmeetable { retry_after_ms },
                _ => ClientError::Rejected(reason),
            }),
        })
    }

    fn ensure_stream(&mut self) -> Result<&mut TcpStream, String> {
        if self.stream.is_none() {
            let stream = TcpStream::connect(&self.addr)
                .map_err(|e| format!("connect {}: {e}", self.addr))?;
            let _ = stream.set_nodelay(true);
            if self.next_id > 1 {
                self.reconnects += 1;
            }
            self.stream = Some(stream);
        }
        Ok(self.stream.as_mut().expect("stream just ensured"))
    }

    /// Submits one job and blocks until its terminal response. Lost
    /// connections, torn frames, and `queue_full`/`overloaded`
    /// rejections are retried under the policy; resends are safe (see
    /// the module docs). Terminal rejections and protocol errors are
    /// not retried.
    pub fn submit(&mut self, spec: &JobSpec) -> Result<JobReport, ClientError> {
        let mut last_err = String::from("no attempts were made");
        for attempt in 0..self.retry.max_attempts {
            if attempt > 0 {
                self.retries += 1;
                self.backoff(attempt);
            }
            let id = self.next_id;
            self.next_id += 1;
            let stream = match self.ensure_stream() {
                Ok(s) => s,
                Err(e) => {
                    last_err = e;
                    continue;
                }
            };
            let frame = WireFrame::Job(JobRequest {
                id,
                spec: spec.clone(),
            });
            if let Err(e) = proto::write_frame(stream, &frame) {
                last_err = format!("send: {e}");
                self.drop_stream();
                continue;
            }
            match self.await_response(id) {
                Ok(Response::Report(report)) => return Ok(report),
                Ok(Response::Retryable(reason)) => last_err = format!("rejected: {reason}"),
                Err(err) => return Err(err),
                Ok(Response::ConnLost(e)) => last_err = e,
            }
        }
        Err(ClientError::Io(last_err))
    }

    /// Reads frames until job `id`'s terminal response (or a reason to
    /// retry / give up) arrives.
    fn await_response(&mut self, id: u64) -> Result<Response, ClientError> {
        loop {
            match self.read_next(None) {
                ReadStep::Frame(WireFrame::Report { id: rid, report }) if rid == id => {
                    return Ok(Response::Report(report));
                }
                ReadStep::Frame(WireFrame::Rejected {
                    id: rid,
                    reason,
                    retry_after_ms,
                }) if rid == id || rid == 0 => {
                    // id 0 is the accept-time `overloaded` refusal: the
                    // server closes right after it, so reconnect
                    if rid == 0 {
                        self.drop_stream();
                    }
                    if reason == "queue_full" || reason == "overloaded" {
                        return Ok(Response::Retryable(reason));
                    }
                    if reason == "shutting_down" {
                        return Err(ClientError::Draining);
                    }
                    if reason == "deadline_unmeetable" {
                        return Err(ClientError::DeadlineUnmeetable { retry_after_ms });
                    }
                    return Err(ClientError::Rejected(reason));
                }
                // responses for other in-flight ids are stashed for
                // their own `await_report`, not dropped
                ReadStep::Frame(WireFrame::Report { id: rid, report }) => {
                    self.pending.insert(rid, PendingEnd::Report(report));
                }
                ReadStep::Frame(WireFrame::Rejected {
                    id: rid,
                    reason,
                    retry_after_ms,
                }) => {
                    self.pending.insert(
                        rid,
                        PendingEnd::Rejected {
                            reason,
                            retry_after_ms,
                        },
                    );
                }
                ReadStep::Frame(WireFrame::ShuttingDown) => return Err(ClientError::Draining),
                ReadStep::Frame(WireFrame::ProtocolError { reason }) => {
                    self.drop_stream();
                    return Err(ClientError::Protocol(reason));
                }
                // stray acks and stats frames are skipped, not errors
                ReadStep::Frame(_) | ReadStep::TimedOut => continue,
                ReadStep::Eof => {
                    self.drop_stream();
                    return Ok(Response::ConnLost("server closed the connection".into()));
                }
                ReadStep::Io(e) => {
                    self.drop_stream();
                    return Ok(Response::ConnLost(e));
                }
                ReadStep::Bad(reason) => {
                    self.drop_stream();
                    return Err(ClientError::Protocol(format!("bad frame: {reason}")));
                }
            }
        }
    }

    /// Sends one job without waiting for its response and returns the
    /// request id for [`Client::await_report`] / [`Client::cancel`].
    /// Unlike [`Client::submit`] there is no retry: a transport failure
    /// surfaces immediately (resending around a cancel would be
    /// ambiguous).
    pub fn submit_nowait(&mut self, spec: &JobSpec) -> Result<u64, ClientError> {
        let id = self.next_id;
        self.next_id += 1;
        let frame = WireFrame::Job(JobRequest {
            id,
            spec: spec.clone(),
        });
        let sent = {
            let stream = self.ensure_stream().map_err(ClientError::Io)?;
            proto::write_frame(stream, &frame)
        };
        if let Err(e) = sent {
            self.drop_stream();
            return Err(ClientError::Io(format!("send: {e}")));
        }
        Ok(id)
    }

    /// Cancels a previously submitted job and blocks for the daemon's
    /// acknowledgement, returning its outcome: `"queued"` (dequeued
    /// before any worker started it), `"running"` (the solve will stop
    /// at its next segment boundary), `"detached"` (this job released
    /// its interest; other waiters keep the shared solve alive), or
    /// `"unknown"` (no such in-flight job). For the first three a
    /// terminal — normally `canceled` — report still follows; collect
    /// it with [`Client::await_report`].
    pub fn cancel(&mut self, id: u64) -> Result<String, ClientError> {
        let sent = {
            let stream = self.ensure_stream().map_err(ClientError::Io)?;
            proto::write_frame(stream, &WireFrame::Cancel { id })
        };
        if let Err(e) = sent {
            self.drop_stream();
            return Err(ClientError::Io(format!("send: {e}")));
        }
        loop {
            match self.read_next(None) {
                ReadStep::Frame(WireFrame::CancelAck { id: rid, outcome }) if rid == id => {
                    return Ok(outcome);
                }
                ReadStep::Frame(WireFrame::Report { id: rid, report }) => {
                    self.pending.insert(rid, PendingEnd::Report(report));
                }
                ReadStep::Frame(WireFrame::Rejected {
                    id: rid,
                    reason,
                    retry_after_ms,
                }) if rid != 0 => {
                    self.pending.insert(
                        rid,
                        PendingEnd::Rejected {
                            reason,
                            retry_after_ms,
                        },
                    );
                }
                ReadStep::Frame(WireFrame::ShuttingDown) => return Err(ClientError::Draining),
                ReadStep::Frame(WireFrame::ProtocolError { reason }) => {
                    self.drop_stream();
                    return Err(ClientError::Protocol(reason));
                }
                ReadStep::Frame(_) | ReadStep::TimedOut => continue,
                ReadStep::Eof => {
                    self.drop_stream();
                    return Err(ClientError::Io("server closed the connection".into()));
                }
                ReadStep::Io(e) => {
                    self.drop_stream();
                    return Err(ClientError::Io(e));
                }
                ReadStep::Bad(reason) => {
                    self.drop_stream();
                    return Err(ClientError::Protocol(format!("bad frame: {reason}")));
                }
            }
        }
    }

    /// Blocks until job `id`'s terminal response (stashed responses are
    /// replayed first).
    pub fn await_report(&mut self, id: u64) -> Result<JobReport, ClientError> {
        self.wait_terminal(id, None)
            .map(|r| r.expect("no deadline was armed"))
    }

    /// Submits a job and waits at most `budget` for its report; when
    /// the budget expires the job is canceled on the daemon and the
    /// (normally `canceled`) terminal report is awaited — nothing is
    /// silently abandoned server-side.
    pub fn submit_within(
        &mut self,
        spec: &JobSpec,
        budget: Duration,
    ) -> Result<JobReport, ClientError> {
        let id = self.submit_nowait(spec)?;
        match self.wait_terminal(id, Some(Instant::now() + budget))? {
            Some(report) => Ok(report),
            None => {
                self.cancel(id)?;
                self.await_report(id)
            }
        }
    }

    /// Waits for `id`'s terminal response; `Ok(None)` means `deadline`
    /// passed first.
    fn wait_terminal(
        &mut self,
        id: u64,
        deadline: Option<Instant>,
    ) -> Result<Option<JobReport>, ClientError> {
        loop {
            if let Some(end) = self.take_pending(id) {
                return end.map(Some);
            }
            match self.read_next(deadline) {
                ReadStep::Frame(WireFrame::Report { id: rid, report }) => {
                    self.pending.insert(rid, PendingEnd::Report(report));
                }
                ReadStep::Frame(WireFrame::Rejected {
                    id: rid,
                    reason,
                    retry_after_ms,
                }) => {
                    if rid == 0 {
                        self.drop_stream();
                        return Err(ClientError::Rejected(reason));
                    }
                    self.pending.insert(
                        rid,
                        PendingEnd::Rejected {
                            reason,
                            retry_after_ms,
                        },
                    );
                }
                ReadStep::Frame(WireFrame::ShuttingDown) => return Err(ClientError::Draining),
                ReadStep::Frame(WireFrame::ProtocolError { reason }) => {
                    self.drop_stream();
                    return Err(ClientError::Protocol(reason));
                }
                ReadStep::Frame(_) => {}
                ReadStep::TimedOut => return Ok(None),
                ReadStep::Eof => {
                    self.drop_stream();
                    return Err(ClientError::Io("server closed the connection".into()));
                }
                ReadStep::Io(e) => {
                    self.drop_stream();
                    return Err(ClientError::Io(e));
                }
                ReadStep::Bad(reason) => {
                    self.drop_stream();
                    return Err(ClientError::Protocol(format!("bad frame: {reason}")));
                }
            }
        }
    }

    /// Fetches a telemetry snapshot, retrying transport failures.
    pub fn stats(&mut self) -> Result<ServeStats, ClientError> {
        let mut last_err = String::from("no attempts were made");
        for attempt in 0..self.retry.max_attempts {
            if attempt > 0 {
                self.retries += 1;
                self.backoff(attempt);
            }
            let stream = match self.ensure_stream() {
                Ok(s) => s,
                Err(e) => {
                    last_err = e;
                    continue;
                }
            };
            if let Err(e) = proto::write_frame(stream, &WireFrame::Stats) {
                last_err = format!("send: {e}");
                self.drop_stream();
                continue;
            }
            loop {
                match self.read_next(None) {
                    ReadStep::Frame(WireFrame::StatsReport(stats)) => return Ok(stats),
                    ReadStep::Frame(WireFrame::ShuttingDown) => return Err(ClientError::Draining),
                    ReadStep::Frame(WireFrame::ProtocolError { reason }) => {
                        self.drop_stream();
                        return Err(ClientError::Protocol(reason));
                    }
                    ReadStep::Frame(WireFrame::Rejected { id: 0, .. }) => {
                        self.drop_stream();
                        last_err = "rejected: overloaded".into();
                        break;
                    }
                    // in-flight reports for pending ids are stashed
                    ReadStep::Frame(WireFrame::Report { id: rid, report }) => {
                        self.pending.insert(rid, PendingEnd::Report(report));
                    }
                    ReadStep::Frame(_) | ReadStep::TimedOut => continue,
                    ReadStep::Eof => {
                        self.drop_stream();
                        last_err = "server closed the connection".into();
                        break;
                    }
                    ReadStep::Io(e) | ReadStep::Bad(e) => {
                        self.drop_stream();
                        last_err = e;
                        break;
                    }
                }
            }
        }
        Err(ClientError::Io(last_err))
    }

    /// Asks the daemon to drain and shut down, and waits for its
    /// `shutting_down` acknowledgement. The daemon always sends that frame
    /// before it closes, so an EOF without it is an [`ClientError::Io`]:
    /// the request may never have arrived.
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        let stream = match self.ensure_stream() {
            Ok(s) => s,
            Err(e) => return Err(ClientError::Io(e)),
        };
        if let Err(e) = proto::write_frame(stream, &WireFrame::Shutdown) {
            self.drop_stream();
            return Err(ClientError::Io(format!("send: {e}")));
        }
        loop {
            match self.read_next(None) {
                ReadStep::Frame(WireFrame::ShuttingDown) => {
                    self.drop_stream();
                    return Ok(());
                }
                ReadStep::Eof => {
                    self.drop_stream();
                    return Err(ClientError::Io(
                        "connection closed without a shutting_down acknowledgement".into(),
                    ));
                }
                ReadStep::Frame(_) | ReadStep::TimedOut => continue, // drain-time reports
                ReadStep::Io(e) | ReadStep::Bad(e) => {
                    self.drop_stream();
                    return Err(ClientError::Io(e));
                }
            }
        }
    }
}

/// Internal verdict of one submit attempt's response wait.
enum Response {
    Report(JobReport),
    Retryable(String),
    ConnLost(String),
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_jittered_exponential_and_deterministic() {
        let policy = ClientRetry {
            base_backoff_s: 1.0,
            backoff_factor: 2.0,
            max_backoff_s: 3.0,
            jitter: 0.25,
            ..ClientRetry::default()
        };
        let waits = |seed: u64| -> Vec<f64> {
            let mut rng = StdRng::seed_from_u64(seed);
            (1u32..=4)
                .map(|attempt| {
                    let base = policy.base_backoff_s
                        * policy.backoff_factor.powi(attempt.saturating_sub(1) as i32);
                    let scale = 1.0 + policy.jitter * (rng.random::<f64>() * 2.0 - 1.0);
                    (base * scale).clamp(0.0, policy.max_backoff_s)
                })
                .collect()
        };
        let a = waits(5);
        assert_eq!(a, waits(5), "same seed, same trace");
        assert_ne!(a, waits(6));
        for (i, w) in a.iter().enumerate() {
            assert!(*w <= 3.0 + 1e-12, "capped at max_backoff_s");
            let base = 2.0f64.powi(i as i32);
            assert!(*w >= (base * 0.75).min(3.0) - 1e-12, "jitter floor");
        }
    }

    #[test]
    fn shutdown_without_acknowledgement_is_an_error() {
        // a listener that reads the shutdown frame and hangs up without
        // answering: the request may as well have been lost
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let peer = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().expect("accept");
            proto::read_frame(&mut stream).expect("frame")
        });
        let mut client = Client::new(addr.to_string(), ClientRetry::default());
        let got = client.shutdown();
        assert!(matches!(
            peer.join().expect("peer"),
            Some(WireFrame::Shutdown)
        ));
        match got {
            Err(ClientError::Io(e)) => assert!(e.contains("shutting_down"), "{e}"),
            other => panic!("expected an Io error, got {other:?}"),
        }
    }

    #[test]
    fn connect_failure_exhausts_attempts_with_io_error() {
        // a port nobody listens on: every attempt must fail fast, and
        // the terminal error must be Io, not a hang
        let retry = ClientRetry {
            max_attempts: 2,
            base_backoff_s: 0.001,
            max_backoff_s: 0.002,
            ..ClientRetry::default()
        };
        let mut client = Client::new("127.0.0.1:1", retry);
        match client.submit(&JobSpec {
            name: "nope".into(),
            program: "range i = 4\n".into(),
            mem_limit: 1024,
            test_scale: true,
            strategy: None,
            seed: None,
            budget: None,
            telemetry: false,
            objective: None,
            timeout_ms: None,
        }) {
            Err(ClientError::Io(e)) => assert!(e.contains("connect"), "{e}"),
            other => panic!("expected Io error, got {other:?}"),
        }
        assert_eq!(client.retries(), 1);
    }
}
