//! The connection runtime shared by `mqdiv serve` and `mqdiv route`:
//! acceptor, bounded admission queue, worker pool, framed request loop,
//! panic backstop, and graceful drain.
//!
//! A front end implements [`Service`] — a per-connection session plus one
//! `execute` per parsed request — and hands itself to [`run`]. Everything
//! between the socket and `execute` lives here, once: the acceptor answers
//! a full queue with a typed `-OVERLOADED`, a worker owns its connection
//! for the connection's lifetime, and every read goes through the bounded,
//! timeout-tolerant line reader (`lineio`).

use std::io::{BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, TrySendError};
use std::sync::Mutex;
use std::time::Duration;

use mqd_core::MqdError;

use crate::lineio::{idle_ticks_for, BodyEvent, LineEvent, LineReader, READ_TICK};
use crate::protocol::{
    parse_request, perr, write_err, write_ok, write_overloaded, Request, MAX_LINE_BYTES,
};

/// What the request loop does after a request was answered.
pub enum Flow {
    /// Read the next request on this connection.
    Continue,
    /// Close the connection (`QUIT`, `DRAIN`).
    Close,
}

/// A front end served by [`run`].
pub trait Service: Sync {
    /// Per-connection state, built when a worker takes a connection and
    /// dropped when the connection closes.
    type Session<'s>
    where
        Self: 's;

    /// The message of the `-OVERLOADED` reply to a connection that finds
    /// the admission queue full.
    const OVERLOADED: &'static str;

    /// The shared runtime state this service was bound with.
    fn core(&self) -> &Core;

    /// A fresh session for a newly admitted connection.
    fn session(&self) -> Self::Session<'_>;

    /// Answers one request. `body` carries the raw bytes of an `INGESTB`
    /// or `HELLO` frame, read before dispatch; it is `None` for every
    /// other verb.
    fn execute<W: Write>(
        &self,
        session: &mut Self::Session<'_>,
        req: &Request,
        body: Option<&[u8]>,
        w: &mut W,
    ) -> std::io::Result<Flow>;
}

/// Serving counters, reported as the `"served"` object of `STATS`.
#[derive(Default)]
pub struct Counters {
    /// Connections accepted, admitted or not.
    pub connections: AtomicU64,
    /// `QUERY` requests (including router-internal `COVER` halves).
    pub queries: AtomicU64,
    /// Rows acknowledged by `INGEST`/`INGESTB`.
    pub ingested_rows: AtomicU64,
    /// `SUBSCRIBE` sessions started.
    pub subscribes: AtomicU64,
    /// Typed `-ERR` answers, timeouts excepted.
    pub errors: AtomicU64,
    /// Connections turned away with `-OVERLOADED`.
    pub overloads: AtomicU64,
    /// Connections closed because a request line or body stalled.
    pub timeouts: AtomicU64,
}

impl Counters {
    /// Counts one error and answers it as `-ERR <Kind> <msg>`.
    pub fn fail<W: Write>(&self, w: &mut W, e: &MqdError) -> std::io::Result<()> {
        self.errors.fetch_add(1, Ordering::Relaxed);
        write_err(w, e)
    }

    /// Counts one stalled connection and answers it as `-ERR Timeout`.
    fn time_out<W: Write>(&self, w: &mut W, msg: String) {
        self.timeouts.fetch_add(1, Ordering::Relaxed);
        let _ = write_err(w, &MqdError::Timeout { msg });
    }

    /// The `"served":{…}` fragment of `STATS`, key order pinned.
    pub fn render(&self) -> String {
        let n = |c: &AtomicU64| c.load(Ordering::Relaxed);
        format!(
            r#""served":{{"connections":{},"queries":{},"ingested_rows":{},"subscribes":{},"errors":{},"overloads":{},"timeouts":{}}}"#,
            n(&self.connections),
            n(&self.queries),
            n(&self.ingested_rows),
            n(&self.subscribes),
            n(&self.errors),
            n(&self.overloads),
            n(&self.timeouts),
        )
    }
}

/// The bound listen socket and the runtime state every connection shares.
pub struct Core {
    listener: TcpListener,
    addr: SocketAddr,
    threads: usize,
    max_queue: usize,
    /// Idle budget in [`READ_TICK`]s for every connection's reads.
    idle_ticks: Option<u32>,
    draining: AtomicBool,
    /// Serving counters (the `"served"` object of `STATS`).
    pub counters: Counters,
}

impl Core {
    /// Binds `addr` and sizes the pool. `threads == 0` uses
    /// [`mqd_par::configured_threads`], floored at 4: a worker owns its
    /// connection for the connection's lifetime and connection handling
    /// is blocking I/O, so without the floor a single-core host serves one
    /// connection at a time and an idle-but-open client starves everyone
    /// else. `max_queue` is floored at 1.
    pub fn bind(
        addr: &str,
        threads: usize,
        max_queue: usize,
        idle_timeout: Option<Duration>,
    ) -> Result<Core, MqdError> {
        let listener = TcpListener::bind(addr)?;
        Ok(Core {
            addr: listener.local_addr()?,
            listener,
            threads: if threads == 0 {
                mqd_par::configured_threads().max(4)
            } else {
                threads
            },
            max_queue: max_queue.max(1),
            idle_ticks: idle_ticks_for(idle_timeout),
            draining: AtomicBool::new(false),
            counters: Counters::default(),
        })
    }

    /// The bound address (resolves the ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The worker count the pool runs with, after the floor.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Whether a `DRAIN` has been honored.
    pub fn draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    /// Answers `DRAIN`: sets the drain flag, runs `finish` (the service's
    /// last work before the acknowledgement), replies `+OK
    /// {"draining":true}`, and kicks the acceptor out of its blocking
    /// accept so it observes the flag; that kick connection is discarded.
    pub fn drain<W: Write>(&self, w: &mut W, finish: impl FnOnce()) -> std::io::Result<Flow> {
        self.draining.store(true, Ordering::SeqCst);
        finish();
        write_ok(w, r#"{"draining":true}"#, &[])?;
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_millis(500));
        Ok(Flow::Close)
    }
}

/// Serves `svc` until drained: the acceptor feeds a bounded channel, the
/// workers drain it, and a full channel is answered with a typed
/// `-OVERLOADED` — admission control, not a dropped connection. Returns
/// once a `DRAIN` has been honored and all in-flight work finished.
pub fn run<S: Service>(svc: &S) {
    let core = svc.core();
    let (tx, rx) = sync_channel::<TcpStream>(core.max_queue);
    let rx = Mutex::new(rx);
    std::thread::scope(|s| {
        for _ in 0..core.threads {
            s.spawn(|| worker_loop(&rx, svc));
        }
        for conn in core.listener.incoming() {
            if core.draining() {
                break;
            }
            let Ok(conn) = conn else { continue };
            core.counters.connections.fetch_add(1, Ordering::Relaxed);
            match tx.try_send(conn) {
                Ok(()) => {}
                Err(TrySendError::Full(conn)) => {
                    core.counters.overloads.fetch_add(1, Ordering::Relaxed);
                    let _ = write_overloaded(&mut BufWriter::new(conn), S::OVERLOADED);
                }
                Err(TrySendError::Disconnected(_)) => break,
            }
        }
        drop(tx);
    });
}

fn worker_loop<S: Service>(rx: &Mutex<Receiver<TcpStream>>, svc: &S) {
    loop {
        // Take the lock only to wait for the next connection; holding it
        // while serving would serialize the pool.
        let conn = {
            // A poisoned receiver mutex means a sibling worker panicked
            // mid-recv; the pool is already compromised, so this worker
            // retires instead of panicking too.
            let Ok(guard) = rx.lock() else { return };
            // lint:allow(blocking-call,guard-held-blocking): bounded by the acceptor — dropping the sender disconnects recv with Err; the lock exists only to serialize waiters on this recv
            guard.recv()
        };
        match conn {
            Ok(c) => {
                let _ = handle_conn(c, svc);
            }
            Err(_) => return, // acceptor dropped the sender: drain complete
        }
    }
}

fn handle_conn<S: Service>(conn: TcpStream, svc: &S) -> std::io::Result<()> {
    let core = svc.core();
    let counters = &core.counters;
    conn.set_read_timeout(Some(READ_TICK))?;
    let _ = conn.set_nodelay(true);
    let write_half = conn.try_clone()?;
    let mut reader = LineReader::new(BufReader::new(conn));
    reader.set_idle_ticks(core.idle_ticks);
    let mut w = BufWriter::new(write_half);
    let mut session = svc.session();

    loop {
        let line = match reader.next_line(&core.draining)? {
            LineEvent::Line(line) => line,
            LineEvent::Eof | LineEvent::Drained => return Ok(()),
            LineEvent::IdleTimeout => {
                let msg = "request line stalled; closing idle connection";
                counters.time_out(&mut w, msg.into());
                return Ok(()); // reclaim the worker; no drain for a stalled peer
            }
            LineEvent::Oversized => {
                let msg = format!("request line exceeds {MAX_LINE_BYTES} bytes");
                let _ = counters.fail(&mut w, &perr(msg));
                reader.drain_peer();
                return Ok(()); // cannot find the next request boundary
            }
        };
        if line.trim().is_empty() {
            continue;
        }

        let req = match parse_request(&line) {
            Ok(r) => r,
            Err(e) => {
                counters.fail(&mut w, &e)?;
                continue;
            }
        };

        // INGESTB/HELLO: pull the raw body before executing, so the stream
        // stays framed even when the payload turns out to be invalid (or
        // the verb is one this front end rejects).
        let body = match req {
            Request::IngestBatch { bytes } | Request::Hello { bytes } => {
                match reader.read_exact_body(bytes, &core.draining)? {
                    BodyEvent::Body(body) => Some(body),
                    BodyEvent::Truncated(got) => {
                        let msg = format!("truncated body: got {got} of {bytes} bytes");
                        let _ = counters.fail(&mut w, &perr(msg));
                        reader.drain_peer();
                        return Ok(()); // body boundary lost
                    }
                    BodyEvent::IdleTimeout(got) => {
                        counters
                            .time_out(&mut w, format!("body stalled at {got} of {bytes} bytes"));
                        return Ok(()); // body boundary lost; reclaim the worker
                    }
                }
            }
            _ => None,
        };

        let outcome = catch_unwind(AssertUnwindSafe(|| {
            svc.execute(&mut session, &req, body.as_deref(), &mut w)
        }));
        match outcome {
            Ok(Ok(Flow::Continue)) => {}
            Ok(Ok(Flow::Close)) => return Ok(()),
            Ok(Err(io)) => return Err(io),
            Err(_) => {
                // Backstop: a handler panic answers as a typed error and
                // closes this connection; the worker and process live on.
                let msg = "internal error (request handler panicked)";
                let _ = counters.fail(&mut w, &perr(msg));
                reader.drain_peer();
                return Ok(());
            }
        }
    }
}
