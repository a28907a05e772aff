//! The load generator: an open loop (requests written on a seeded schedule, whatever
//! the server does) and a closed loop (a fixed number of requests kept outstanding per
//! connection). Depth comes from HTTP pipelining on at most two connections, never
//! from more threads. Replies are only timestamped and parsed here; checking them
//! against direct inference happens after the window closes (see `verify`).

use std::borrow::Cow;
use std::collections::VecDeque;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use crate::inputs::ImageRef;
use crate::wire::{self, Encoding, Reply};

/// One request as the generator hands it to a connection.
pub struct Request<'a> {
    /// The generator's own id for the op (also the wire `request_id` in traced runs).
    pub id: u64,
    pub image: ImageRef,
    pub body: Cow<'a, [u8]>,
}

/// One attempted op with the generator's own span boundaries.
#[derive(Debug)]
pub struct Op {
    pub id: u64,
    pub image: ImageRef,
    /// When the op was due: the scheduled send time (open loop) or the moment the
    /// connection was free to send it (closed loop). Latency is counted from here.
    pub due: Instant,
    pub encode_start: Instant,
    pub encode_end: Instant,
    pub write_start: Instant,
    pub write_end: Instant,
    /// When the reply's last byte was read (latency ends here).
    pub read_done: Instant,
    pub decode_end: Instant,
    /// The parsed reply, or why the op failed.
    pub outcome: Result<Reply, String>,
}

impl Op {
    /// Client-observed latency in nanoseconds.
    pub fn latency_ns(&self) -> u64 {
        self.read_done
            .saturating_duration_since(self.due)
            .as_nanos() as u64
    }

    /// How late the generator wrote the request, in nanoseconds.
    pub fn late_ns(&self) -> u64 {
        self.write_start
            .saturating_duration_since(self.due)
            .as_nanos() as u64
    }
}

/// Everything one window produced.
#[derive(Debug)]
pub struct RunLog {
    /// Start of the measured window.
    pub start: Instant,
    /// When the last reply arrived (the end of the window if nothing was sent).
    pub end: Instant,
    pub ops: Vec<Op>,
}

/// A request written but not yet answered.
struct Pending {
    id: u64,
    image: ImageRef,
    due: Instant,
    encode_start: Instant,
    encode_end: Instant,
    write_start: Instant,
    write_end: Instant,
}

impl Pending {
    /// Writes `request` and stamps the write span; a failed write comes back as the
    /// failed op.
    fn write(
        writer: &mut wire::RequestWriter,
        request: &Request<'_>,
        encoding: Encoding,
        due: Instant,
        (encode_start, encode_end): (Instant, Instant),
    ) -> Result<Pending, Box<Op>> {
        let write_start = Instant::now();
        let sent = writer.send(&request.body, encoding);
        let pending = Pending {
            id: request.id,
            image: request.image,
            due,
            encode_start,
            encode_end,
            write_start,
            write_end: Instant::now(),
        };
        match sent {
            Ok(()) => Ok(pending),
            Err(e) => Err(Box::new(pending.fail(&format!("write failed: {e}")))),
        }
    }

    fn finish(self, read_done: Instant, decode_end: Instant, outcome: Result<Reply, String>) -> Op {
        Op {
            id: self.id,
            image: self.image,
            due: self.due,
            encode_start: self.encode_start,
            encode_end: self.encode_end,
            write_start: self.write_start,
            write_end: self.write_end,
            read_done,
            decode_end,
            outcome,
        }
    }

    fn fail(self, why: &str) -> Op {
        let now = Instant::now();
        self.finish(now, now, Err(why.to_string()))
    }

    /// Blocks for this request's reply; `false` when the connection is dead.
    fn read(self, reader: &mut wire::ReplyReader) -> (Op, bool) {
        match reader.read() {
            Ok(raw) => {
                let read_done = Instant::now();
                let outcome = raw.decode();
                (self.finish(read_done, Instant::now(), outcome), true)
            }
            Err(e) => (self.fail(&format!("read failed: {e}")), false),
        }
    }
}

/// The op recorded when a connection could not even be opened.
fn connect_failure(error: &std::io::Error) -> Op {
    let now = Instant::now();
    Pending {
        id: 0,
        image: ImageRef::Pool(0),
        due: now,
        encode_start: now,
        encode_end: now,
        write_start: now,
        write_end: now,
    }
    .fail(&format!("connect failed: {error}"))
}

/// One closed-loop connection: keeps `depth` requests outstanding until `window` has
/// passed or `next` runs dry, then drains. `next` supplies each request just before
/// it is sent.
fn closed_lane<'a>(
    addr: SocketAddr,
    depth: usize,
    start: Instant,
    window: Duration,
    encoding: Encoding,
    mut next: impl FnMut() -> Option<Request<'a>>,
) -> Vec<Op> {
    let (mut writer, mut reader) = match wire::connect(addr) {
        Ok(halves) => halves,
        Err(e) => return vec![connect_failure(&e)],
    };
    let end = start + window;
    let mut ops = Vec::new();
    let mut inflight: VecDeque<Pending> = VecDeque::with_capacity(depth);
    let mut issuing = true;
    let mut alive = true;
    loop {
        while issuing && alive && inflight.len() < depth {
            let due = Instant::now();
            let Some(request) = (due < end).then(&mut next).flatten() else {
                issuing = false;
                break;
            };
            let encoded = (due, Instant::now());
            match Pending::write(&mut writer, &request, encoding, due, encoded) {
                Ok(pending) => inflight.push_back(pending),
                Err(op) => {
                    ops.push(*op);
                    alive = false;
                }
            }
        }
        let Some(pending) = inflight.pop_front() else {
            return ops;
        };
        if alive {
            let (op, ok) = pending.read(&mut reader);
            ops.push(op);
            alive = ok;
        } else {
            ops.push(pending.fail("connection failed earlier"));
        }
    }
}

/// Runs `lanes` closed-loop connections (one thread each) for `window`.
/// `source(lane)` builds the lane's request supplier; a supplier that returns `None`
/// ends its lane early (how a warm-up sends a fixed number of ops).
pub fn closed_loop<'a, S>(
    addr: SocketAddr,
    lanes: usize,
    depth: usize,
    window: Duration,
    encoding: Encoding,
    source: impl Fn(usize) -> S + Sync,
) -> RunLog
where
    S: FnMut() -> Option<Request<'a>>,
{
    let start = Instant::now();
    let per_lane: Vec<Vec<Op>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..lanes)
            .map(|lane| {
                let source = &source;
                scope.spawn(move || closed_lane(addr, depth, start, window, encoding, source(lane)))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load generator lane panicked"))
            .collect()
    });
    finish_log(start, window, per_lane.into_iter().flatten().collect())
}

/// Runs the open loop on one pipelined connection: a sender thread writes request `k`
/// at `start + schedule[k]` whatever has or has not been answered, and the calling
/// thread reads the replies. Latency counts from each request's due time, so a server
/// stall is charged to every request that was due during it.
pub fn open_loop<'a>(
    addr: SocketAddr,
    schedule: &[Duration],
    window: Duration,
    encoding: Encoding,
    mut next: impl FnMut() -> Request<'a> + Send,
) -> RunLog {
    let start = Instant::now();
    let (mut writer, mut reader) = match wire::connect(addr) {
        Ok(halves) => halves,
        Err(e) => return finish_log(start, window, vec![connect_failure(&e)]),
    };
    let reader_dead = AtomicBool::new(false);
    let (tx, rx) = mpsc::channel::<Result<Pending, Box<Op>>>();
    let ops = std::thread::scope(|scope| {
        let reader_dead = &reader_dead;
        scope.spawn(move || {
            for offset in schedule {
                if reader_dead.load(Ordering::Relaxed) {
                    return;
                }
                let due = start + *offset;
                // Encode ahead of the due time, then sleep the remainder.
                let encode_start = Instant::now();
                let request = next();
                let encoded = (encode_start, Instant::now());
                if let Some(wait) = due.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                let written = Pending::write(&mut writer, &request, encoding, due, encoded);
                let stop = written.is_err();
                if tx.send(written).is_err() || stop {
                    return;
                }
            }
        });
        let mut ops = Vec::with_capacity(schedule.len());
        let mut alive = true;
        for written in rx {
            match written {
                Ok(pending) if alive => {
                    let (op, ok) = pending.read(&mut reader);
                    ops.push(op);
                    if !ok {
                        alive = false;
                        reader_dead.store(true, Ordering::Relaxed);
                    }
                }
                Ok(pending) => ops.push(pending.fail("connection failed earlier")),
                Err(op) => ops.push(*op),
            }
        }
        ops
    });
    finish_log(start, window, ops)
}

fn finish_log(start: Instant, window: Duration, ops: Vec<Op>) -> RunLog {
    let last = ops.iter().map(|op| op.read_done).max();
    RunLog {
        start,
        end: last.unwrap_or(start + window),
        ops,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::TcpListener;
    use vitality_serve::http::{encode_response, HttpParser, ParseStatus};
    use vitality_serve::{protocol, InferReply};

    fn ok_reply() -> Vec<u8> {
        let body = protocol::infer_reply_json(&InferReply {
            model: "vit196:taylor".into(),
            prediction: 0,
            logits: vec![1.0],
            batch_size: 1,
            queue_us: 0,
        })
        .to_json();
        encode_response(200, body.as_bytes(), true, &[]).bytes
    }

    /// A stub server answering every request at once, except that it does not read
    /// the socket at all during `[stall_at, stall_at + stall]` after its first byte.
    fn stalling_server(stall_at: Duration, stall: Duration) -> SocketAddr {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let mut parser = HttpParser::new();
            let mut chunk = [0u8; 4096];
            let mut first_byte: Option<Instant> = None;
            let mut stalled = false;
            loop {
                let n = match stream.read(&mut chunk) {
                    Ok(0) | Err(_) => return,
                    Ok(n) => n,
                };
                let origin = *first_byte.get_or_insert_with(Instant::now);
                parser.feed(&chunk[..n]);
                while parser.poll(1 << 20).unwrap() == ParseStatus::Message {
                    parser.advance();
                    if !stalled && origin.elapsed() >= stall_at {
                        stalled = true;
                        std::thread::sleep(stall);
                    }
                    if stream.write_all(&ok_reply()).is_err() {
                        return;
                    }
                }
            }
        });
        addr
    }

    fn body() -> Request<'static> {
        Request {
            id: 0,
            image: ImageRef::Pool(0),
            body: Cow::Borrowed(b"{}"),
        }
    }

    #[test]
    fn open_loop_latency_counts_from_the_due_time() {
        // One request every 5 ms for 200 ms; the server stalls 50 ms from t = 50 ms.
        let schedule: Vec<Duration> = (0..40).map(|k| Duration::from_millis(5 * k)).collect();
        let addr = stalling_server(Duration::from_millis(50), Duration::from_millis(50));
        let log = open_loop(
            addr,
            &schedule,
            Duration::from_millis(200),
            Encoding::Json,
            body,
        );
        assert_eq!(log.ops.len(), 40);
        assert!(log.ops.iter().all(|op| op.outcome.is_ok()));
        // The generator kept to its schedule through the stall ...
        let max_late = log.ops.iter().map(Op::late_ns).max().unwrap();
        assert!(max_late < 20_000_000, "sender ran {max_late} ns late");
        // ... so requests due during the stall report it: the one due right as the
        // stall began waited (nearly) all of it, later ones progressively less.
        let stalled: Vec<u64> = log
            .ops
            .iter()
            .filter(|op| {
                let due = op.due.duration_since(log.start);
                due >= Duration::from_millis(55) && due < Duration::from_millis(75)
            })
            .map(Op::latency_ns)
            .collect();
        assert!(!stalled.is_empty());
        assert!(
            stalled.iter().all(|&ns| ns >= 20_000_000),
            "requests due in the stall must report it: {stalled:?}"
        );
        // Requests before the stall were answered promptly.
        let early = log.ops[..5].iter().map(Op::latency_ns).max().unwrap();
        assert!(early < 20_000_000, "pre-stall latency {early} ns");
    }

    #[test]
    fn closed_loop_keeps_depth_outstanding_and_drains() {
        let addr = stalling_server(Duration::from_secs(3600), Duration::ZERO);
        let log = closed_loop(
            addr,
            1,
            4,
            Duration::from_millis(100),
            Encoding::Json,
            |_lane| || Some(body()),
        );
        assert!(log.ops.len() >= 4, "{} ops", log.ops.len());
        assert!(log.ops.iter().all(|op| op.outcome.is_ok()));
        assert!(
            log.end >= log.start + Duration::from_millis(100),
            "the last op is sent just before the window ends"
        );
    }

    #[test]
    fn a_dead_server_fails_every_outstanding_op() {
        // Accepts, reads one request, then closes without answering.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let mut chunk = [0u8; 64];
            let _ = stream.read(&mut chunk);
        });
        let log = closed_loop(
            addr,
            1,
            3,
            Duration::from_millis(50),
            Encoding::Json,
            |_lane| || Some(body()),
        );
        assert!(!log.ops.is_empty());
        assert!(log.ops.iter().all(|op| op.outcome.is_err()));
    }
}
