//! The load generators: blocking caller threads for the in-process
//! workloads and one pipelined TCP connection (a sender thread and a
//! receiver thread over the public `serve::wire` codec) for the wire
//! workloads. Both run the same three paces and return the same
//! [`Phase`] record.
//!
//! What a phase keeps does not grow with how fast the system is: the
//! closed loop only counts, the open loop keeps one timing per request
//! of a schedule fixed beforehand. A faster system must not show as a
//! larger `peak_rss_mib`.

use crate::stats::{percentile, sorted};
use crate::trace::{now_ns, Span, SpanSink};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serve::wire::{
    decode_response, encode_request, write_frame, FrameEvent, FrameReader, NetError, WireRequest,
    WireResponse,
};
use serve::DEFAULT_MAX_FRAME;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::time::Duration;

/// How a phase offers load.
#[derive(Debug, Clone, Copy)]
pub enum Pace {
    /// Closed loop for `secs`: a fixed number of requests stays in
    /// flight (one per caller thread, or the connection's window), so a
    /// slower system receives less load.
    Sat { secs: f64 },
    /// Open loop for `secs`: request `k` is due at `k / rate` seconds
    /// whatever the system does, and its latency counts from then.
    Paced { secs: f64, rate: f64 },
    /// Closed loop over exactly `n` requests, untimed (the verify pass).
    Count { n: u64 },
}

impl Pace {
    /// When request `k` of the phase is due, for the open loop.
    fn due_ns(&self, start_ns: u64, k: u64) -> Option<u64> {
        match *self {
            Pace::Paced { rate, .. } => Some(start_ns + secs_to_ns(k as f64 / rate)),
            _ => None,
        }
    }

    /// End of the time box; `None` for the untimed pace.
    fn deadline_ns(&self, start_ns: u64) -> Option<u64> {
        match *self {
            Pace::Sat { secs } | Pace::Paced { secs, .. } => Some(start_ns + secs_to_ns(secs)),
            Pace::Count { .. } => None,
        }
    }

    /// Requests the open loop's schedule holds; 0 for the other paces.
    fn scheduled(&self) -> usize {
        match *self {
            Pace::Paced { secs, rate } => (secs * rate).ceil() as usize + 1,
            _ => 0,
        }
    }
}

/// Which requests a phase records spans for: ids start at
/// `first_request` and the first `record` of them are traced.
#[derive(Debug, Clone, Copy)]
pub struct Tracing {
    pub first_request: u64,
    pub record: u64,
}

impl Tracing {
    pub fn off(first_request: u64) -> Self {
        Tracing {
            first_request,
            record: 0,
        }
    }

    fn sink(&self) -> SpanSink {
        SpanSink::new(self.first_request..self.first_request + self.record)
    }
}

/// One open-loop request.
#[derive(Debug, Clone, Copy)]
struct Timing {
    /// Send time minus due time: how late the generator ran.
    late_ns: u64,
    /// Completion minus due time; `None` for a failed request, which
    /// misses every latency figure.
    latency_ns: Option<u64>,
}

/// Latency charged to a failed request.
const FAILED_LATENCY_US: f64 = 1e12;

/// What one phase measured.
#[derive(Debug, Default)]
pub struct Phase {
    /// Length of the time box; for [`Pace::Count`], until the last
    /// completion.
    pub box_ns: u64,
    pub attempted: u64,
    pub failed: u64,
    /// Lines whose verdicts arrived inside the time box.
    lines: u64,
    /// One entry per open-loop request.
    timings: Vec<Timing>,
    pub spans: Vec<Span>,
    /// Wire phases with capture on: the verdicts of request `i`, `None`
    /// where it failed.
    pub verdicts: Vec<Option<Vec<Vec<f32>>>>,
}

impl Phase {
    fn secs(&self) -> f64 {
        (self.box_ns as f64 / 1e9).max(1e-9)
    }

    /// Counts `lines` verdicts that arrived `offset_ns` into the box;
    /// arrivals after the box count for nothing.
    fn count_lines(&mut self, offset_ns: u64, lines: u64) {
        if offset_ns <= self.box_ns {
            self.lines += lines;
        }
    }

    fn absorb(&mut self, other: Phase) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.lines += other.lines;
        self.timings.extend(other.timings);
        self.spans.extend(other.spans);
    }

    /// Lines scored per second of the time box.
    pub fn lines_per_s(&self) -> f64 {
        self.lines as f64 / self.secs()
    }

    pub fn sent_per_s(&self) -> f64 {
        self.attempted as f64 / self.secs()
    }

    /// Open-loop latency from due time at quantile `q`.
    pub fn latency_us(&self, q: f64) -> f64 {
        let us: Vec<f64> = self
            .timings
            .iter()
            .map(|t| t.latency_ns.map_or(FAILED_LATENCY_US, |ns| ns as f64 / 1e3))
            .collect();
        percentile(&sorted(&us), q)
    }

    /// How late the open loop sent, p99 — a late generator did not
    /// offer the rate it claims.
    pub fn late_p99_us(&self) -> f64 {
        let late: Vec<f64> = self
            .timings
            .iter()
            .map(|t| t.late_ns as f64 / 1e3)
            .collect();
        percentile(&sorted(&late), 0.99)
    }
}

/// Sleeps to within `SPIN_NS` of `due_ns`, then yields until it has
/// come. `thread::sleep` alone wakes up to a timer slack (50 µs) late,
/// more than a cached request takes; yielding alone keeps one of two
/// cores busy and measures the scheduler instead of the server.
fn wait_until(due_ns: u64) {
    const SPIN_NS: u64 = 70_000;
    loop {
        let now = now_ns();
        if now >= due_ns {
            return;
        }
        let remaining = due_ns - now;
        if remaining > SPIN_NS {
            std::thread::sleep(Duration::from_nanos(remaining - SPIN_NS));
        } else {
            std::thread::yield_now();
        }
    }
}

fn secs_to_ns(secs: f64) -> u64 {
    (secs * 1e9) as u64
}

/// What one blocking operation of an in-process workload did.
#[derive(Debug, Clone, Copy)]
pub struct Outcome {
    /// Lines scored (0 for an append).
    pub lines: u32,
    pub ok: bool,
}

/// Runs `op` from `threads` blocking caller threads. Request ids are
/// `first_request + seq * threads + thread`; each thread draws its
/// inputs from its own generator seeded from `seed`. Threads are
/// joined before returning and a panic in one is re-raised here.
pub fn run_callers<F>(pace: Pace, threads: u64, seed: u64, tracing: Tracing, op: F) -> Phase
where
    F: Fn(&mut StdRng, u64, &mut SpanSink) -> Outcome + Sync,
{
    let start_ns = now_ns();
    let deadline_ns = pace.deadline_ns(start_ns);
    let box_ns = deadline_ns.map(|d| d - start_ns);
    let per_thread: Vec<Phase> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let op = &op;
                scope.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(seed ^ (t + 1).wrapping_mul(0x9E37_79B9));
                    let mut sink = tracing.sink();
                    let mut phase = Phase {
                        box_ns: box_ns.unwrap_or(u64::MAX),
                        timings: Vec::with_capacity(pace.scheduled() / threads as usize + 1),
                        ..Phase::default()
                    };
                    for seq in 0u64.. {
                        let k = seq * threads + t;
                        let due_ns = pace.due_ns(start_ns, k);
                        let over = match (pace, due_ns) {
                            (Pace::Count { n }, _) => k >= n,
                            (_, Some(due)) => due >= deadline_ns.expect("timed"),
                            (_, None) => now_ns() >= deadline_ns.expect("timed"),
                        };
                        if over {
                            break;
                        }
                        if let Some(due) = due_ns {
                            wait_until(due);
                        }
                        let request = tracing.first_request + k;
                        let sent_ns = now_ns();
                        let out = op(&mut rng, request, &mut sink);
                        let done_ns = now_ns();
                        sink.root(request, sent_ns, done_ns);
                        phase.attempted += 1;
                        phase.failed += u64::from(!out.ok);
                        if out.ok {
                            phase.count_lines(done_ns - start_ns, out.lines as u64);
                        }
                        if let Some(due) = due_ns {
                            phase.timings.push(Timing {
                                late_ns: sent_ns.saturating_sub(due),
                                latency_ns: out.ok.then(|| done_ns.saturating_sub(due)),
                            });
                        }
                    }
                    phase.spans = sink.into_spans();
                    phase
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect()
    });
    let mut phase = Phase {
        box_ns: box_ns.unwrap_or_else(|| now_ns() - start_ns),
        ..Phase::default()
    };
    for thread in per_thread {
        phase.absorb(thread);
    }
    phase
}

/// One loopback connection speaking the `serve::wire` protocol, with
/// the handshake done. The generator owns both halves; nothing runs in
/// the background between phases.
pub struct WireConn {
    writer: TcpStream,
    reader: TcpStream,
    frames: FrameReader,
    methods: Vec<String>,
}

/// How long the receiver polls before re-checking whether the sender
/// has finished.
const READ_POLL: Duration = Duration::from_millis(2);
/// How long the receiver waits for outstanding responses once the
/// sender has stopped, before charging them as failed.
const DRAIN_LIMIT_NS: u64 = 10_000_000_000;

impl WireConn {
    /// Connects and completes the `Hello` round trip — the first
    /// request the server accepts.
    pub fn connect(addr: SocketAddr) -> Result<WireConn, NetError> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        let reader = writer.try_clone()?;
        reader.set_read_timeout(Some(READ_POLL))?;
        let mut conn = WireConn {
            writer,
            reader,
            frames: FrameReader::new(),
            methods: Vec::new(),
        };
        write_frame(
            &mut conn.writer,
            &encode_request(0, &WireRequest::Hello),
            DEFAULT_MAX_FRAME,
        )?;
        let deadline = now_ns() + DRAIN_LIMIT_NS;
        loop {
            match conn
                .frames
                .read_frame(&mut conn.reader, DEFAULT_MAX_FRAME)?
            {
                FrameEvent::Frame(payload) => match decode_response(&payload)? {
                    (_, WireResponse::Hello { methods }) => {
                        conn.methods = methods;
                        return Ok(conn);
                    }
                    (_, WireResponse::Error { kind, message }) => {
                        return Err(NetError::Remote { kind, message })
                    }
                    _ => return Err(NetError::Protocol("Hello answered with another response")),
                },
                FrameEvent::Idle if now_ns() < deadline => {}
                FrameEvent::Idle | FrameEvent::Eof => return Err(NetError::Closed),
            }
        }
    }

    /// Method names the verdict vectors follow, from the handshake.
    pub fn methods(&self) -> &[String] {
        &self.methods
    }
}

/// What the sender thread hands back.
struct Sent {
    count: u64,
    /// Open loop only: how late request `seq` was sent.
    late_ns: Vec<u64>,
    /// Send times of the traced requests, by `seq`.
    traced_sent_ns: Vec<u64>,
    spans: Vec<Span>,
}

/// What the receiver thread hands back.
struct Received {
    /// Responses carrying verdicts.
    ok: u64,
    /// Lines of those that arrived inside the time box.
    lines: u64,
    /// Open loop only: `(seq, completion − due)` per good response.
    latency_ns: Vec<(u64, u64)>,
    /// `(seq, completion time)` of the traced requests.
    traced_done_ns: Vec<(u64, u64)>,
    /// With capture on: `(seq, verdicts)` per good response.
    verdicts: Vec<(u64, Vec<Vec<f32>>)>,
    spans: Vec<Span>,
}

/// Drives one pipelined connection: a sender thread writes `Score`
/// frames built from `next`'s lines, a receiver thread reads and
/// decodes the responses. In the closed-loop paces at most `window`
/// requests are in flight; the open loop sends on schedule and leaves
/// back-pressure to the server. With `capture` the verdicts are kept
/// per request. Both threads are joined before returning.
pub fn run_wire<F>(
    conn: &mut WireConn,
    pace: Pace,
    window: usize,
    seed: u64,
    tracing: Tracing,
    capture: bool,
    mut next: F,
) -> Phase
where
    F: FnMut(&mut StdRng) -> Vec<String> + Send,
{
    let start_ns = now_ns();
    let deadline_ns = pace.deadline_ns(start_ns);
    let box_ns = deadline_ns.map(|d| d - start_ns);
    let sent_count = AtomicU64::new(0);
    let sender_done = AtomicBool::new(false);
    let (permit_tx, permit_rx) = mpsc::channel::<()>();
    for _ in 0..window {
        permit_tx.send(()).expect("receiver end is held below");
    }
    let WireConn {
        writer,
        reader,
        frames,
        ..
    } = conn;

    let (sent, received) = std::thread::scope(|scope| {
        let sender = scope.spawn(|| {
            // Moved in: a `Receiver` cannot be shared by reference.
            let permit_rx = permit_rx;
            let mut rng = StdRng::seed_from_u64(seed);
            let mut sink = tracing.sink();
            let mut sent = Sent {
                count: 0,
                late_ns: Vec::with_capacity(pace.scheduled()),
                traced_sent_ns: Vec::with_capacity(tracing.record as usize),
                spans: Vec::new(),
            };
            for seq in 0u64.. {
                let due_ns = pace.due_ns(start_ns, seq);
                let go = match (pace, due_ns) {
                    // An error means the receiver gave up.
                    (Pace::Count { n }, _) => seq < n && permit_rx.recv().is_ok(),
                    (_, Some(due)) => {
                        let on_time = due < deadline_ns.expect("timed");
                        if on_time {
                            wait_until(due);
                        }
                        on_time
                    }
                    (_, None) => {
                        let left = deadline_ns.expect("timed").saturating_sub(now_ns());
                        left > 0 && permit_rx.recv_timeout(Duration::from_nanos(left)).is_ok()
                    }
                };
                if !go {
                    break;
                }
                let request = tracing.first_request + seq;
                let lines = next(&mut rng);
                let payload = sink.call(request, 1, "serve.wire.encode_request", || {
                    encode_request(request, &WireRequest::Score { lines })
                });
                let sent_ns = now_ns();
                let wrote = sink.call(request, 2, "serve.wire.write_frame", || {
                    write_frame(writer, &payload, DEFAULT_MAX_FRAME)
                });
                if wrote.is_err() {
                    break;
                }
                if let Some(due) = due_ns {
                    sent.late_ns.push(sent_ns.saturating_sub(due));
                }
                if sink.records(request) {
                    sent.traced_sent_ns.push(sent_ns);
                }
                sent.count = seq + 1;
                sent_count.store(sent.count, Ordering::SeqCst);
            }
            sender_done.store(true, Ordering::SeqCst);
            sent.spans = sink.into_spans();
            sent
        });

        let receiver = scope.spawn(|| {
            let mut sink = tracing.sink();
            let mut got = Received {
                ok: 0,
                lines: 0,
                latency_ns: Vec::with_capacity(pace.scheduled()),
                traced_done_ns: Vec::with_capacity(tracing.record as usize),
                verdicts: Vec::new(),
                spans: Vec::new(),
            };
            let mut answered = 0u64;
            let mut done_at = None;
            loop {
                if sender_done.load(Ordering::SeqCst) {
                    if answered >= sent_count.load(Ordering::SeqCst) {
                        break;
                    }
                    let since = *done_at.get_or_insert_with(now_ns);
                    if now_ns() > since + DRAIN_LIMIT_NS {
                        break;
                    }
                }
                match frames.read_frame(reader, DEFAULT_MAX_FRAME) {
                    Ok(FrameEvent::Frame(payload)) => {
                        let done_ns = now_ns();
                        let Ok((request, response)) = decode_response(&payload) else {
                            break;
                        };
                        sink.child(request, 3, "serve.wire.decode_response", done_ns, now_ns());
                        answered += 1;
                        // The sender may already have stopped.
                        let _ = permit_tx.send(());
                        let seq = request.wrapping_sub(tracing.first_request);
                        if sink.records(request) {
                            got.traced_done_ns.push((seq, done_ns));
                        }
                        let WireResponse::Scores(verdicts) = response else {
                            continue;
                        };
                        got.ok += 1;
                        if deadline_ns.is_none_or(|deadline| done_ns <= deadline) {
                            got.lines += verdicts.len() as u64;
                        }
                        if let Some(due) = pace.due_ns(start_ns, seq) {
                            got.latency_ns.push((seq, done_ns.saturating_sub(due)));
                        }
                        if capture {
                            got.verdicts.push((seq, verdicts));
                        }
                    }
                    Ok(FrameEvent::Idle) => {}
                    Ok(FrameEvent::Eof) | Err(_) => break,
                }
            }
            // Unblocks a sender still waiting for a permit.
            drop(permit_tx);
            got.spans = sink.into_spans();
            got
        });

        let sent = sender
            .join()
            .unwrap_or_else(|e| std::panic::resume_unwind(e));
        let received = receiver
            .join()
            .unwrap_or_else(|e| std::panic::resume_unwind(e));
        (sent, received)
    });

    let end_ns = now_ns();
    let mut phase = Phase {
        box_ns: box_ns.unwrap_or(end_ns - start_ns),
        attempted: sent.count,
        failed: sent.count - received.ok.min(sent.count),
        lines: received.lines,
        spans: sent.spans,
        ..Phase::default()
    };
    phase.spans.extend(received.spans);

    // Open loop: one timing per request sent; a request without a good
    // response keeps `latency_ns: None`.
    phase.timings = sent
        .late_ns
        .iter()
        .map(|&late_ns| Timing {
            late_ns,
            latency_ns: None,
        })
        .collect();
    for (seq, latency_ns) in received.latency_ns {
        if let Some(t) = phase.timings.get_mut(seq as usize) {
            t.latency_ns = Some(latency_ns);
        }
    }

    // Root spans: send → completion, or → now for a lost request.
    let mut roots = tracing.sink();
    let mut traced_done = vec![end_ns; sent.traced_sent_ns.len()];
    for (seq, done_ns) in received.traced_done_ns {
        if let Some(slot) = traced_done.get_mut(seq as usize) {
            *slot = done_ns;
        }
    }
    for ((seq, &sent_ns), done_ns) in (0u64..).zip(&sent.traced_sent_ns).zip(traced_done) {
        roots.root(tracing.first_request + seq, sent_ns, done_ns);
    }
    phase.spans.extend(roots.into_spans());

    if capture {
        phase.verdicts.resize_with(sent.count as usize, || None);
        for (seq, verdicts) in received.verdicts {
            if let Some(slot) = phase.verdicts.get_mut(seq as usize) {
                *slot = Some(verdicts);
            }
        }
    }
    phase
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throughput_ignores_arrivals_after_the_box() {
        let mut phase = Phase {
            box_ns: 2_000_000_000,
            ..Phase::default()
        };
        phase.count_lines(500, 4);
        phase.count_lines(2_000_000_000, 4);
        phase.count_lines(2_000_000_001, 100);
        assert_eq!(phase.lines_per_s(), 4.0);
    }

    #[test]
    fn a_failed_request_misses_every_latency_figure() {
        let ok = Timing {
            late_ns: 1_000,
            latency_ns: Some(2_000),
        };
        let mut timings = vec![ok; 10];
        timings.push(Timing {
            latency_ns: None,
            ..ok
        });
        let phase = Phase {
            box_ns: 1_000_000,
            timings,
            ..Phase::default()
        };
        assert_eq!(phase.latency_us(0.5), 2.0);
        assert_eq!(phase.latency_us(0.99), FAILED_LATENCY_US);
        assert_eq!(phase.late_p99_us(), 1.0);
    }

    #[test]
    fn paced_callers_keep_their_schedule_and_ids_are_unique() {
        let pace = Pace::Paced {
            secs: 0.05,
            rate: 1_000.0,
        };
        let tracing = Tracing {
            first_request: 100,
            record: 10,
        };
        let phase = run_callers(pace, 2, 7, tracing, |_, request, sink| {
            sink.call(request, 1, "noop", || ());
            Outcome { lines: 1, ok: true }
        });
        assert_eq!(phase.attempted, 50);
        assert_eq!(phase.failed, 0);
        assert_eq!(phase.lines, 50);
        assert_eq!(phase.timings.len(), 50);
        let mut ids: Vec<u64> = phase.spans.iter().map(|s| s.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), phase.spans.len());
        assert_eq!(phase.spans.len(), 20, "ten requests, root + one child each");
    }

    #[test]
    fn counted_callers_run_exactly_n_requests() {
        let phase = run_callers(Pace::Count { n: 7 }, 2, 1, Tracing::off(0), |_, _, _| {
            Outcome { lines: 3, ok: true }
        });
        assert_eq!(phase.attempted, 7);
        assert!(phase.timings.is_empty());
    }
}
