//! The open-loop live driver: one connection lane, a paced writer thread
//! and a response reader thread.
//!
//! `mqdiv load` discards payload lines and lumps every op into one
//! histogram; this driver keeps what the benchmark needs per op: the
//! latency from the *scheduled* send to the end of the response frame,
//! the op class, the payload's hash, and the generation and cache flags
//! stamped on the status line, so answers can be checked afterwards.
//! All ingest rides the single lane in plan order, so a stamped
//! generation maps to an exact plan prefix.

use std::collections::HashSet;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::time::{Duration, Instant};

use mqd_load::pacer::pace;
use mqd_load::{Action, Clock, Hist, Plan};

/// How long an op may wait for its response before the lane is abandoned.
const PATIENCE: Duration = Duration::from_secs(10);
/// Read poll tick while waiting for a response.
const TICK: Duration = Duration::from_millis(100);

/// A monotonic clock shared by the pacer and the latency measurements.
pub struct BenchClock {
    start: Instant,
}

impl BenchClock {
    pub fn new() -> Self {
        BenchClock {
            start: Instant::now(),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.start.elapsed().as_nanos() as u64
    }
}

impl Clock for BenchClock {
    fn now_us(&self) -> u64 {
        self.now_ns() / 1000
    }

    fn sleep_until_us(&self, t: u64) {
        loop {
            let now = self.now_us();
            if now >= t {
                return;
            }
            std::thread::sleep(Duration::from_micros(t - now));
        }
    }
}

/// One answered `QUERY`.
pub struct QueryObs {
    /// Index of the op in the plan.
    pub op: usize,
    pub latency_ns: u64,
    /// FNV-1a over the payload lines, each followed by `\n`.
    pub hash: u64,
    /// Stamped generation (a single node's watermark; `None` behind the
    /// router, which stamps a per-shard vector).
    pub generation: Option<u64>,
    pub cached: bool,
    pub stale: bool,
}

/// One acknowledged ingest op.
pub struct IngestObs {
    pub latency_ns: u64,
    pub rows: u64,
}

/// Ops that did not get a correct `+OK`, by cause.
#[derive(Default, Debug, Clone, Copy)]
pub struct Failures {
    pub errors: u64,
    pub overloaded: u64,
    pub timeouts: u64,
    pub dropped: u64,
    /// Ingest acks whose generation disagrees with the plan prefix.
    pub wrong_acks: u64,
}

impl Failures {
    pub fn total(&self) -> u64 {
        self.errors + self.overloaded + self.timeouts + self.dropped + self.wrong_acks
    }
}

/// What one live run observed.
pub struct LiveRun {
    pub queries: Vec<QueryObs>,
    pub ingests: Vec<IngestObs>,
    pub failures: Failures,
    /// Generator lateness: actual send start minus scheduled send, µs.
    pub send_lag: Hist,
}

/// FNV-1a over payload lines, each terminated by `\n`.
pub fn payload_hash<'a>(lines: impl IntoIterator<Item = &'a [u8]>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for line in lines {
        for &b in line.iter().chain(std::iter::once(&b'\n')) {
            h ^= b as u64;
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// The value of `"key":<digits>` in a status line.
pub fn json_u64(s: &str, key: &str) -> Option<u64> {
    let pat = format!("\"{key}\":");
    let at = s.find(&pat)? + pat.len();
    let digits: String = s[at..].chars().take_while(|c| c.is_ascii_digit()).collect();
    digits.parse().ok()
}

struct Sent {
    op: usize,
    deadline_ns: u64,
    is_query: bool,
    rows: u64,
}

/// Drives `plan` against `addr` open-loop on one lane. `expect_gen0` is
/// the store generation before the first plan op (the preload size): each
/// ingest ack must report it plus the rows acked so far. With
/// `corrupt_in`, the first non-empty query payload whose op index is in
/// the set gets one byte flipped before hashing — the verifier self-test.
pub fn run(
    plan: &Plan,
    addr: &str,
    expect_gen0: u64,
    corrupt_in: Option<&HashSet<usize>>,
) -> Result<LiveRun, String> {
    let conn = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    conn.set_read_timeout(Some(TICK))
        .and_then(|_| conn.set_write_timeout(Some(PATIENCE)))
        .and_then(|_| conn.set_nodelay(true))
        .map_err(|e| e.to_string())?;
    let write_half = conn.try_clone().map_err(|e| e.to_string())?;
    let wire: Vec<Vec<u8>> = plan.ops.iter().map(|o| o.action.wire_bytes()).collect();
    let deadlines: Vec<u64> = plan.ops.iter().map(|o| o.at_us).collect();
    let clock = BenchClock::new();
    let (tx, rx) = channel::<Sent>();
    std::thread::scope(|s| {
        let writer = s.spawn(|| writer(plan, &wire, &deadlines, &clock, write_half, tx));
        let reader = s.spawn(|| reader(&clock, conn, rx, expect_gen0, corrupt_in));
        let (send_lag, unsent) = writer.join().map_err(|_| "writer panicked".to_string())?;
        let mut live = reader.join().map_err(|_| "reader panicked".to_string())?;
        live.failures.dropped += unsent;
        live.send_lag = send_lag;
        Ok(live)
    })
}

fn writer(
    plan: &Plan,
    wire: &[Vec<u8>],
    deadlines: &[u64],
    clock: &BenchClock,
    mut w: TcpStream,
    tx: Sender<Sent>,
) -> (Hist, u64) {
    let mut lag = Hist::new();
    let mut unsent = 0u64;
    let mut down = false;
    pace(clock, deadlines, |i, at_us| {
        let deadline_ns = at_us * 1000;
        lag.record(clock.now_ns().saturating_sub(deadline_ns) / 1000);
        let (Some(op), Some(bytes)) = (plan.ops.get(i), wire.get(i).map(Vec::as_slice)) else {
            return;
        };
        if down || w.write_all(bytes).is_err() {
            down = true;
            unsent += 1;
            return;
        }
        let rows = match &op.action {
            Action::Ingest(_) => 1,
            Action::IngestBatch(b) => b.len() as u64,
            _ => 0,
        };
        let _ = tx.send(Sent {
            op: i,
            deadline_ns,
            is_query: matches!(op.action, Action::Query(_)),
            rows,
        });
    });
    (lag, unsent)
}

enum Frame {
    Done {
        status: String,
        payload: Vec<Vec<u8>>,
    },
    Lost,
}

/// Reads one `status … .` frame, giving up `PATIENCE` after `deadline_ns`.
fn read_frame(r: &mut BufReader<TcpStream>, clock: &BenchClock, deadline_ns: u64) -> Frame {
    let give_up = deadline_ns + PATIENCE.as_nanos() as u64;
    let mut status: Option<String> = None;
    let mut payload = Vec::new();
    let mut line = Vec::new();
    loop {
        match r.read_until(b'\n', &mut line) {
            Ok(0) => return Frame::Lost,
            Ok(_) if line.last() == Some(&b'\n') => {
                line.pop();
                let text = std::mem::take(&mut line);
                match &status {
                    None => status = Some(String::from_utf8_lossy(&text).into_owned()),
                    Some(_) if text == b"." => {
                        return Frame::Done {
                            status: status.unwrap_or_default(),
                            payload,
                        }
                    }
                    Some(_) => payload.push(text),
                }
            }
            Ok(_) => {}
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                if clock.now_ns() > give_up {
                    return Frame::Lost;
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => return Frame::Lost,
        }
    }
}

fn reader(
    clock: &BenchClock,
    conn: TcpStream,
    rx: Receiver<Sent>,
    expect_gen0: u64,
    corrupt_in: Option<&HashSet<usize>>,
) -> LiveRun {
    let mut r = BufReader::new(conn);
    let mut out = LiveRun {
        queries: Vec::new(),
        ingests: Vec::new(),
        failures: Failures::default(),
        send_lag: Hist::new(),
    };
    let mut acked_rows = 0u64;
    let mut lost = false;
    let mut corrupt_pending = corrupt_in.is_some();
    for sent in rx {
        if lost {
            out.failures.dropped += 1;
            continue;
        }
        let (status, mut payload) = match read_frame(&mut r, clock, sent.deadline_ns) {
            Frame::Done { status, payload } => (status, payload),
            Frame::Lost => {
                lost = true; // framing is gone; the rest of the lane drops
                out.failures.dropped += 1;
                continue;
            }
        };
        let latency_ns = clock.now_ns().saturating_sub(sent.deadline_ns);
        if !status.starts_with("+OK") {
            if status.starts_with("-OVERLOADED") {
                out.failures.overloaded += 1;
            } else if status.starts_with("-ERR Timeout") {
                out.failures.timeouts += 1;
            } else {
                if out.failures.errors < 3 {
                    eprintln!("livebench: op {} answered {status}", sent.op);
                }
                out.failures.errors += 1;
            }
            continue;
        }
        if sent.is_query {
            if corrupt_pending && corrupt_in.is_some_and(|set| set.contains(&sent.op)) {
                if let Some(b) = payload.first_mut().and_then(|l| l.first_mut()) {
                    *b ^= 0x01;
                    corrupt_pending = false;
                }
            }
            out.queries.push(QueryObs {
                op: sent.op,
                latency_ns,
                hash: payload_hash(payload.iter().map(Vec::as_slice)),
                generation: json_u64(&status, "generation"),
                cached: status.contains("\"cached\":true"),
                stale: status.contains("\"stale\":true"),
            });
        } else {
            acked_rows += sent.rows;
            let generation = json_u64(&status, "generation").unwrap_or(0);
            if generation != expect_gen0 + acked_rows {
                if out.failures.wrong_acks < 3 {
                    eprintln!(
                        "livebench: op {} acked generation {generation}, expected {}",
                        sent.op,
                        expect_gen0 + acked_rows
                    );
                }
                out.failures.wrong_acks += 1;
            }
            out.ingests.push(IngestObs {
                latency_ns,
                rows: sent.rows,
            });
        }
    }
    out
}
