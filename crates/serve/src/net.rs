//! The TCP front-end: the wire protocol served over real sockets.
//!
//! Everything upstream of this module is in-process; this is where the
//! serving stack meets the network. The shape is deliberately small —
//! no async runtime, just the vendored channel primitives and std
//! sockets:
//!
//! * **Accept loop** ([`NetServer`]) — one thread polls a nonblocking
//!   listener, enforces `max_connections` (over-limit connections get
//!   a typed `Busy` error frame, not a silent hang), and reaps
//!   finished connection threads.
//! * **Thread-per-connection, pipelined** — each connection gets a
//!   reader and a writer thread. The reader decodes frames and routes
//!   `Score` requests straight into the existing micro-batching
//!   workers via the shared [`ServiceClient`] protocol, tagging each
//!   with its wire id; the writer delivers completions as they land.
//!   Responses may return out of submission order — that is the
//!   point: many in-flight requests share one socket, so a client
//!   keeps the micro-batching window full without opening a
//!   connection per request. `NetConfig::backlog` bounds the
//!   in-flight depth per connection (back-pressure, not memory).
//! * **Verdict cache on the wire path** — the reader consults the
//!   [`Frontend`]'s cache before submitting: an all-hit request is
//!   answered without ever touching the scoring queue, and partial
//!   hits submit only the misses (the writer reassembles and inserts
//!   fresh verdicts on completion). The wire path and the in-process
//!   path share one cache discipline, so verdicts stay bit-identical.
//!
//! Control-plane requests (`Hello`/`Append`/`Snapshot`/`Stats`/
//! `Shutdown`) run synchronously on the reader thread — they are rare
//! and ordering them with respect to the same connection's scores is
//! the useful semantics (an `Append` answered means subsequent scores
//! on that connection see the new state and a bumped cache epoch).

use crate::front::{Frontend, Submission};
use crate::service::{ConnReply, NetReply, Reply, ServeError, ServiceStats, IDLE_POLL};
use crate::wire::{
    decode_request, decode_response, encode_request, encode_response, write_frame, FrameEvent,
    FrameReader, NetError, WireErrorKind, WireRequest, WireResponse,
};
use std::collections::HashMap;
use std::net::{IpAddr, Ipv4Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Knobs for a [`NetServer`].
#[derive(Debug, Clone, Copy)]
pub struct NetConfig {
    /// Address to bind.
    pub host: IpAddr,
    /// Port to bind. Must be nonzero — a server on an ephemeral port
    /// is unreachable by configuration; tests that want one bind the
    /// listener themselves and use [`NetServer::spawn_on`].
    pub port: u16,
    /// Maximum in-flight pipelined requests per connection: a reader
    /// that gets this far ahead of its writer blocks (back-pressure)
    /// instead of buffering unbounded completions.
    pub backlog: usize,
    /// Largest accepted frame payload in bytes; oversized length
    /// prefixes are rejected before allocating.
    pub max_frame: usize,
    /// Maximum simultaneous connections; excess connections are
    /// answered with a typed `Busy` error frame and closed.
    pub max_connections: usize,
    /// Verdict-cache capacity in lines; `None` disables the cache
    /// (every request reaches the scoring workers).
    pub cache: Option<usize>,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            host: IpAddr::V4(Ipv4Addr::LOCALHOST),
            port: 7177,
            backlog: 64,
            max_frame: DEFAULT_MAX_FRAME,
            max_connections: 64,
            cache: Some(4096),
        }
    }
}

/// Default largest frame payload (8 MiB).
pub const DEFAULT_MAX_FRAME: usize = 8 << 20;

/// Smallest usable `max_frame`: every control-plane response must fit.
const MIN_MAX_FRAME: usize = 1024;
/// Largest accepted `max_frame` (1 GiB) — beyond this a length prefix
/// is a typo or an attack, not a workload.
const MAX_MAX_FRAME: usize = 1 << 30;
/// Largest accepted per-connection pipelining depth.
const MAX_BACKLOG: usize = 1 << 20;
/// Largest accepted connection limit.
const MAX_CONNECTIONS: usize = 1 << 16;
/// Largest accepted verdict-cache capacity (entries).
const MAX_CACHE: usize = 1 << 24;

impl NetConfig {
    /// Rejects shapes that cannot serve, with a typed
    /// [`ServeError::InvalidConfig`] naming the offending knob —
    /// matching [`crate::ServeConfig::validate`]; the accept loop
    /// never silently clamps.
    pub fn validate(&self) -> Result<(), ServeError> {
        if self.port == 0 {
            return Err(ServeError::InvalidConfig(
                "port must be nonzero (an ephemeral port is unreachable by configuration; \
                 bind a listener yourself and use NetServer::spawn_on)"
                    .into(),
            ));
        }
        self.validate_limits()
    }

    /// The address-independent half of [`Self::validate`] — what
    /// [`NetServer::spawn_on`] checks, since there the caller's
    /// listener already fixes the address.
    pub(crate) fn validate_limits(&self) -> Result<(), ServeError> {
        if self.backlog == 0 {
            return Err(ServeError::InvalidConfig(
                "backlog must be >= 1 (no request could ever be in flight)".into(),
            ));
        }
        if self.backlog > MAX_BACKLOG {
            return Err(ServeError::InvalidConfig(format!(
                "backlog {} is absurd (max {MAX_BACKLOG})",
                self.backlog
            )));
        }
        if self.max_frame < MIN_MAX_FRAME {
            return Err(ServeError::InvalidConfig(format!(
                "max_frame {} is below the {MIN_MAX_FRAME}-byte floor control responses need",
                self.max_frame
            )));
        }
        if self.max_frame > MAX_MAX_FRAME {
            return Err(ServeError::InvalidConfig(format!(
                "max_frame {} is absurd (max {MAX_MAX_FRAME})",
                self.max_frame
            )));
        }
        if self.max_connections == 0 {
            return Err(ServeError::InvalidConfig(
                "max_connections must be >= 1 (the server could never accept)".into(),
            ));
        }
        if self.max_connections > MAX_CONNECTIONS {
            return Err(ServeError::InvalidConfig(format!(
                "max_connections {} is absurd (max {MAX_CONNECTIONS})",
                self.max_connections
            )));
        }
        match self.cache {
            Some(0) => {
                return Err(ServeError::InvalidConfig(
                    "cache capacity must be >= 1 when enabled (use None to disable)".into(),
                ))
            }
            Some(n) if n > MAX_CACHE => {
                return Err(ServeError::InvalidConfig(format!(
                    "cache capacity {n} is absurd (max {MAX_CACHE})"
                )))
            }
            _ => {}
        }
        Ok(())
    }
}

/// How often the accept loop polls its nonblocking listener.
const ACCEPT_POLL: Duration = Duration::from_millis(5);

/// Shared per-connection state between its reader and writer threads.
struct Conn {
    front: Arc<Frontend>,
    /// Wire id → in-flight cache/miss layout, registered by the reader
    /// before submitting, consumed by the writer on completion.
    pending: Mutex<HashMap<u64, crate::front::CachedSubmission>>,
    /// In-flight pipelined request count + its back-pressure condvar.
    inflight: (Mutex<usize>, Condvar),
    /// Set when either side of the connection has failed.
    dead: AtomicBool,
    max_frame: usize,
    backlog: usize,
}

impl Conn {
    fn dec_inflight(&self) {
        let mut n = self.inflight.0.lock().unwrap();
        *n = n.saturating_sub(1);
        self.inflight.1.notify_all();
    }
}

/// A running TCP front-end serving a [`Frontend`] on a socket.
/// Construct with [`NetServer::spawn`] (binds from config) or
/// [`NetServer::spawn_on`] (adopts a caller-bound listener, e.g. an
/// ephemeral test port). Dropping the server stops accepting and
/// joins every connection thread; the [`Frontend`] keeps running —
/// [`NetServer::shutdown`] hands it back for reuse.
pub struct NetServer {
    front: Option<Arc<Frontend>>,
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    shutdown_req: Arc<(Mutex<bool>, Condvar)>,
    accept: Option<JoinHandle<()>>,
}

impl NetServer {
    /// Binds `config.host:config.port` and starts serving `front`.
    /// When `config.cache` is set and the front has no cache yet, one
    /// is attached here.
    pub fn spawn(front: Frontend, config: NetConfig) -> Result<NetServer, NetError> {
        config.validate().map_err(NetError::Serve)?;
        let listener = TcpListener::bind((config.host, config.port))?;
        Self::start(front, listener, config)
    }

    /// Starts serving on a listener the caller already bound (tests
    /// bind port 0 themselves for an ephemeral port). `config.host` /
    /// `config.port` are ignored; everything else is validated as in
    /// [`NetConfig::validate`].
    pub fn spawn_on(
        front: Frontend,
        listener: TcpListener,
        config: NetConfig,
    ) -> Result<NetServer, NetError> {
        config.validate_limits().map_err(NetError::Serve)?;
        Self::start(front, listener, config)
    }

    fn start(
        mut front: Frontend,
        listener: TcpListener,
        config: NetConfig,
    ) -> Result<NetServer, NetError> {
        if let Some(capacity) = config.cache {
            if front.cache().is_none() {
                front = front.with_cache(capacity).map_err(NetError::Serve)?;
            }
        }
        let front = Arc::new(front);
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let stop = Arc::new(AtomicBool::new(false));
        let shutdown_req = Arc::new((Mutex::new(false), Condvar::new()));
        let accept = {
            let front = front.clone();
            let stop = stop.clone();
            let shutdown_req = shutdown_req.clone();
            std::thread::spawn(move || accept_loop(&listener, &front, &stop, &shutdown_req, config))
        };
        Ok(NetServer {
            front: Some(front),
            addr,
            stop,
            shutdown_req,
            accept: Some(accept),
        })
    }

    /// The bound address (the actual port when bound ephemeral).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The served front-end (scoring, stats, snapshots stay available
    /// in-process while the server runs).
    pub fn front(&self) -> &Frontend {
        self.front.as_ref().expect("front present until shutdown")
    }

    /// Blocks until a client sends `Shutdown` (or the server is
    /// stopped some other way) — what the server example waits on
    /// before tearing down.
    pub fn wait_for_shutdown_request(&self) {
        let (lock, cv) = &*self.shutdown_req;
        let mut requested = lock.lock().unwrap();
        while !*requested && !self.stop.load(Ordering::Acquire) {
            requested = cv.wait_timeout(requested, IDLE_POLL).unwrap().0;
        }
    }

    fn stop_in_place(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
        // Wake anything blocked in `wait_for_shutdown_request`.
        self.shutdown_req.1.notify_all();
    }

    /// Stops accepting, drains every connection (in-flight requests
    /// are answered or aborted with typed errors), joins the threads,
    /// and hands the still-running [`Frontend`] back, so one fitted
    /// detector set can serve under successive server configurations.
    pub fn shutdown(mut self) -> Frontend {
        self.stop_in_place();
        let front = self.front.take().expect("front present until shutdown");
        Arc::try_unwrap(front)
            .ok()
            .expect("all connection threads joined, no front handles remain")
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        if self.front.is_some() {
            self.stop_in_place();
        }
    }
}

fn accept_loop(
    listener: &TcpListener,
    front: &Arc<Frontend>,
    stop: &Arc<AtomicBool>,
    shutdown_req: &Arc<(Mutex<bool>, Condvar)>,
    config: NetConfig,
) {
    let mut conns: Vec<(JoinHandle<()>, JoinHandle<()>)> = Vec::new();
    while !stop.load(Ordering::Acquire) {
        match listener.accept() {
            Ok((stream, _)) => {
                conns.retain(|(r, w)| !(r.is_finished() && w.is_finished()));
                if conns.len() >= config.max_connections {
                    refuse_busy(stream, config.max_frame, config.max_connections);
                    continue;
                }
                // A failed socket setup only loses that connection.
                if let Ok(pair) = spawn_connection(stream, front, stop, shutdown_req, &config) {
                    conns.push(pair);
                }
            }
            Err(_) => std::thread::sleep(ACCEPT_POLL),
        }
    }
    for (reader, writer) in conns {
        let _ = reader.join();
        let _ = writer.join();
    }
}

/// Best-effort typed refusal for a connection over the limit: better
/// one `Busy` frame than a silent hang the client cannot diagnose.
fn refuse_busy(mut stream: TcpStream, max_frame: usize, limit: usize) {
    let payload = encode_response(
        0,
        &WireResponse::Error {
            kind: WireErrorKind::Busy,
            message: format!("server at max_connections ({limit})"),
        },
    );
    let _ = write_frame(&mut stream, &payload, max_frame);
    let _ = stream.shutdown(Shutdown::Both);
}

fn spawn_connection(
    stream: TcpStream,
    front: &Arc<Frontend>,
    stop: &Arc<AtomicBool>,
    shutdown_req: &Arc<(Mutex<bool>, Condvar)>,
    config: &NetConfig,
) -> std::io::Result<(JoinHandle<()>, JoinHandle<()>)> {
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(IDLE_POLL))?;
    let write_stream = stream.try_clone()?;
    let (conn_tx, conn_rx) = mpsc::channel::<ConnReply>();
    let conn = Arc::new(Conn {
        front: front.clone(),
        pending: Mutex::new(HashMap::new()),
        inflight: (Mutex::new(0), Condvar::new()),
        dead: AtomicBool::new(false),
        max_frame: config.max_frame,
        backlog: config.backlog,
    });
    let reader = {
        let conn = conn.clone();
        let stop = stop.clone();
        let shutdown_req = shutdown_req.clone();
        std::thread::spawn(move || reader_loop(stream, &conn, &conn_tx, &stop, &shutdown_req))
    };
    let writer = std::thread::spawn(move || writer_loop(write_stream, &conn, &conn_rx));
    Ok((reader, writer))
}

/// Decodes and dispatches frames from one connection. `Score` goes to
/// the micro-batching workers (after the cache); everything else is
/// answered synchronously. Exits on EOF, socket failure, server stop,
/// or a dead writer.
fn reader_loop(
    mut stream: TcpStream,
    conn: &Conn,
    conn_tx: &mpsc::Sender<ConnReply>,
    stop: &AtomicBool,
    shutdown_req: &(Mutex<bool>, Condvar),
) {
    let mut frames = FrameReader::new();
    loop {
        match frames.read_frame(&mut stream, conn.max_frame) {
            Ok(FrameEvent::Frame(payload)) => {
                if !handle_frame(&payload, conn, conn_tx, shutdown_req) {
                    break;
                }
            }
            Ok(FrameEvent::Idle) => {
                if stop.load(Ordering::Acquire) || conn.dead.load(Ordering::Acquire) {
                    break;
                }
            }
            Ok(FrameEvent::Eof) => break,
            Err(NetError::FrameTooLarge { len, max }) => {
                // The oversized frame was never buffered, so the
                // stream cannot be resynced — answer and hang up.
                let payload = encode_response(
                    0,
                    &WireResponse::Error {
                        kind: WireErrorKind::TooLarge,
                        message: format!("frame of {len} bytes exceeds max_frame {max}"),
                    },
                );
                let _ = conn_tx.send(ConnReply::Frame(payload));
                break;
            }
            Err(_) => break,
        }
    }
    let _ = stream.shutdown(Shutdown::Read);
    // Dropping `conn_tx` (our clone lives in this scope's caller) lets
    // the writer exit once the last in-flight completion lands.
}

/// Handles one decoded frame; returns `false` when the connection
/// should close.
fn handle_frame(
    payload: &[u8],
    conn: &Conn,
    conn_tx: &mpsc::Sender<ConnReply>,
    shutdown_req: &(Mutex<bool>, Condvar),
) -> bool {
    let (id, req) = match decode_request(payload) {
        Ok(decoded) => decoded,
        Err(e) => {
            // Framing is intact (the length prefix was honored), so
            // the connection survives a malformed payload: answer a
            // typed error under the id if enough of it decoded. The
            // id sits after the magic/version prefix — but only read
            // it when that prefix is valid, since a foreign or
            // old-version frame's bytes 2..10 are not our id field.
            let id = payload
                .get(2..10)
                .filter(|_| payload[..2] == [crate::wire::WIRE_MAGIC, crate::wire::WIRE_VERSION])
                .map(|b| u64::from_le_bytes(b.try_into().expect("8 bytes")))
                .unwrap_or(0);
            return send_error(
                conn_tx,
                id,
                WireErrorKind::BadRequest,
                &format!("bad request: {e}"),
            );
        }
    };
    match req {
        WireRequest::Hello => {
            let methods = conn.front.method_names().to_vec();
            send(conn_tx, id, &WireResponse::Hello { methods })
        }
        WireRequest::Score { lines } => handle_score(id, lines, conn, conn_tx),
        WireRequest::Append { lines, labels } => {
            if lines.len() != labels.len() {
                return send_error(
                    conn_tx,
                    id,
                    WireErrorKind::BadRequest,
                    &format!(
                        "one label per line required: {} lines, {} labels",
                        lines.len(),
                        labels.len()
                    ),
                );
            }
            match conn.front.append(&lines, &labels) {
                Ok(n) => send(conn_tx, id, &WireResponse::Appended(n)),
                Err(e) => send_error(conn_tx, id, WireErrorKind::from(&e), &e.to_string()),
            }
        }
        WireRequest::Snapshot => match conn.front.snapshot() {
            Ok((snapshot, skipped)) => send(
                conn_tx,
                id,
                &WireResponse::Snapshot {
                    frame: snapshot.to_bytes(),
                    skipped,
                },
            ),
            // SnapshotRace maps to Busy: the capture raced an
            // append/refit swap past the front-end's retries, and the
            // client retries like any other transient rejection.
            Err(e) => send_error(conn_tx, id, WireErrorKind::from(&e), &e.to_string()),
        },
        // Tenant-scoped requests run synchronously on the reader
        // thread like the other control-plane requests: the tenant
        // path has its own cache discipline (tenant-keyed, per-tenant
        // epochs) inside `Frontend::score_tenant`, and ordering them
        // against the same connection's appends is the useful
        // semantics.
        WireRequest::ScoreTenant { tenant, lines } => {
            match conn.front.score_tenant(crate::TenantId(tenant), &lines) {
                Ok(scores) => send(conn_tx, id, &WireResponse::Scores(scores)),
                Err(e) => send_error(conn_tx, id, tenant_error_kind(&e), &e.to_string()),
            }
        }
        WireRequest::AppendTenant {
            tenant,
            lines,
            labels,
        } => {
            if lines.len() != labels.len() {
                return send_error(
                    conn_tx,
                    id,
                    WireErrorKind::BadRequest,
                    &format!(
                        "one label per line required: {} lines, {} labels",
                        lines.len(),
                        labels.len()
                    ),
                );
            }
            match conn
                .front
                .append_tenant(crate::TenantId(tenant), &lines, &labels)
            {
                Ok(n) => send(conn_tx, id, &WireResponse::Appended(n)),
                Err(e) => send_error(conn_tx, id, tenant_error_kind(&e), &e.to_string()),
            }
        }
        WireRequest::Stats => send(conn_tx, id, &WireResponse::Stats(conn.front.stats())),
        WireRequest::Shutdown => {
            let sent = send(conn_tx, id, &WireResponse::ShuttingDown);
            let (lock, cv) = shutdown_req;
            *lock.lock().unwrap() = true;
            cv.notify_all();
            sent
        }
    }
}

/// Routes one `Score` request: back-pressure on the pipelining depth,
/// cache lookup, then either the all-hit fast path (never touches the
/// scoring queue) or a tagged submission of the misses.
fn handle_score(
    id: u64,
    lines: Vec<String>,
    conn: &Conn,
    conn_tx: &mpsc::Sender<ConnReply>,
) -> bool {
    if lines.is_empty() {
        return send(conn_tx, id, &WireResponse::Scores(Vec::new()));
    }
    // Back-pressure: a connection at its pipelining depth waits here —
    // on its own reader thread, so other connections keep flowing.
    {
        let (lock, cv) = &conn.inflight;
        let mut n = lock.lock().unwrap();
        while *n >= conn.backlog {
            if conn.dead.load(Ordering::Acquire) {
                return false;
            }
            n = cv.wait_timeout(n, IDLE_POLL).unwrap().0;
        }
        *n += 1;
    }
    match conn.front.prepare_scored(lines) {
        Submission::AllHits(scores) => {
            conn.dec_inflight();
            send(conn_tx, id, &WireResponse::Scores(scores))
        }
        Submission::InFlight(submission) => {
            let miss_lines = submission.miss_lines().to_vec();
            conn.pending.lock().unwrap().insert(id, submission);
            // A failed submit drops the `NetReply`, whose `Drop` sends
            // the abort completion — the writer answers with a typed
            // `Closed` error and cleans up `pending`, so no extra
            // error handling is needed here.
            let reply = Reply::Net(NetReply::new(conn_tx.clone(), id));
            let _ = conn.front.client().submit(miss_lines, reply);
            true
        }
    }
}

/// Wire classification of a tenant failure: engine trouble is the
/// server's fault, everything else names something wrong with the
/// request (unknown tenant, duplicate create, malformed frame).
fn tenant_error_kind(e: &crate::TenantError) -> WireErrorKind {
    match e {
        crate::TenantError::Engine(_) => WireErrorKind::Engine,
        _ => WireErrorKind::BadRequest,
    }
}

fn send(conn_tx: &mpsc::Sender<ConnReply>, id: u64, resp: &WireResponse) -> bool {
    conn_tx
        .send(ConnReply::Frame(encode_response(id, resp)))
        .is_ok()
}

fn send_error(
    conn_tx: &mpsc::Sender<ConnReply>,
    id: u64,
    kind: WireErrorKind,
    message: &str,
) -> bool {
    send(
        conn_tx,
        id,
        &WireResponse::Error {
            kind,
            message: message.to_string(),
        },
    )
}

/// Delivers completions for one connection: pre-encoded control
/// frames verbatim, scored micro-batches merged with their cache hits
/// (inserting fresh verdicts), aborted submissions as typed `Closed`
/// errors. Exits when every sender — the reader and all in-flight
/// [`NetReply`]s — is gone, so the last pipelined response is always
/// delivered even after the reader has hung up.
fn writer_loop(mut stream: TcpStream, conn: &Conn, conn_rx: &mpsc::Receiver<ConnReply>) {
    while let Ok(reply) = conn_rx.recv() {
        let frame = match reply {
            ConnReply::Frame(frame) => frame,
            ConnReply::Scored(id, result) => {
                let submission = conn.pending.lock().unwrap().remove(&id);
                conn.dec_inflight();
                let resp = match (submission, result) {
                    (Some(submission), Some(miss_scores)) => {
                        WireResponse::Scores(conn.front.complete_cached(submission, miss_scores))
                    }
                    (_, None) => WireResponse::Error {
                        kind: WireErrorKind::Closed,
                        message: "request dropped before scoring (service shut down)".into(),
                    },
                    // A completion for an id we never registered —
                    // cannot happen (registration precedes submission)
                    // but must not kill the connection if it did.
                    (None, Some(_)) => continue,
                };
                encode_response(id, &resp)
            }
        };
        if write_frame(&mut stream, &frame, conn.max_frame).is_err() {
            break;
        }
    }
    conn.dead.store(true, Ordering::Release);
    conn.inflight.1.notify_all();
    let _ = stream.shutdown(Shutdown::Both);
}

// --- client ---------------------------------------------------------

/// What the client's demux reader shares with request callers.
struct ClientShared {
    /// Wire id → the one-shot channel its caller blocks on.
    pending: Mutex<HashMap<u64, mpsc::Sender<WireResponse>>>,
    /// Set once the connection is unusable.
    closed: AtomicBool,
    /// A connection-fatal error the server sent under id 0 (`Busy`),
    /// surfaced to every caller that finds the connection closed.
    fatal: Mutex<Option<(WireErrorKind, String)>>,
}

struct ClientInner {
    /// Write half; requests serialize their frames under this lock.
    writer: Mutex<TcpStream>,
    next_id: AtomicU64,
    shared: Arc<ClientShared>,
    max_frame: usize,
    /// Kept to shut the socket down on drop, unblocking the reader.
    stream: TcpStream,
}

impl Drop for ClientInner {
    fn drop(&mut self) {
        self.shared.closed.store(true, Ordering::Release);
        let _ = self.stream.shutdown(Shutdown::Both);
    }
}

/// A pipelining client for a [`NetServer`]. Cloneable and shareable
/// across threads: every call multiplexes over the one socket with a
/// fresh correlation id, and a background reader demuxes responses to
/// their blocked callers — N threads sharing one client is exactly
/// the connection-level pipelining the server is built for.
#[derive(Clone)]
pub struct NetClient {
    inner: Arc<ClientInner>,
    methods: Arc<[String]>,
}

impl NetClient {
    /// Connects and handshakes (the `Hello` round-trip fetches the
    /// method names verdict vectors follow).
    pub fn connect(addr: SocketAddr) -> Result<NetClient, NetError> {
        Self::connect_with(addr, DEFAULT_MAX_FRAME)
    }

    /// [`Self::connect`] with an explicit frame-size limit (must match
    /// the server's to round-trip large snapshot frames).
    pub fn connect_with(addr: SocketAddr, max_frame: usize) -> Result<NetClient, NetError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let writer = stream.try_clone()?;
        let mut reader = stream.try_clone()?;
        let shared = Arc::new(ClientShared {
            pending: Mutex::new(HashMap::new()),
            closed: AtomicBool::new(false),
            fatal: Mutex::new(None),
        });
        {
            // The reader holds only `ClientShared`: were it to hold
            // the `ClientInner`, the drop-side socket shutdown that
            // unblocks it could never run.
            let shared = shared.clone();
            std::thread::spawn(move || client_reader_loop(&mut reader, &shared, max_frame));
        }
        let client = NetClient {
            inner: Arc::new(ClientInner {
                writer: Mutex::new(writer),
                next_id: AtomicU64::new(1),
                shared,
                max_frame,
                stream,
            }),
            methods: Arc::from(Vec::new()),
        };
        let methods = match client.call(&WireRequest::Hello)? {
            WireResponse::Hello { methods } => methods,
            _ => {
                return Err(NetError::Protocol(
                    "Hello answered with a non-Hello response",
                ))
            }
        };
        Ok(NetClient {
            methods: methods.into(),
            ..client
        })
    }

    /// Names (registration order) the per-line score vectors follow,
    /// learned in the connect handshake.
    pub fn method_names(&self) -> &[String] {
        &self.methods
    }

    /// One request round-trip. Blocks this caller only — other
    /// threads' requests stay in flight on the same socket.
    fn call(&self, req: &WireRequest) -> Result<WireResponse, NetError> {
        let shared = &self.inner.shared;
        if shared.closed.load(Ordering::Acquire) {
            return Err(self.closed_error());
        }
        let id = self.inner.next_id.fetch_add(1, Ordering::Relaxed);
        let (tx, rx) = mpsc::channel();
        shared.pending.lock().unwrap().insert(id, tx);
        let payload = encode_request(id, req);
        {
            let mut writer = self.inner.writer.lock().unwrap();
            if let Err(e) = write_frame(&mut *writer, &payload, self.inner.max_frame) {
                shared.pending.lock().unwrap().remove(&id);
                return Err(e);
            }
        }
        match rx.recv() {
            Ok(WireResponse::Error { kind, message }) => Err(NetError::Remote { kind, message }),
            Ok(resp) => Ok(resp),
            Err(_) => Err(self.closed_error()),
        }
    }

    fn closed_error(&self) -> NetError {
        match self.inner.shared.fatal.lock().unwrap().take() {
            Some((kind, message)) => NetError::Remote { kind, message },
            None => NetError::Closed,
        }
    }

    /// Scores a batch of lines; one score vector per line, in input
    /// order.
    pub fn score_batch(&self, lines: &[String]) -> Result<Vec<Vec<f32>>, NetError> {
        match self.call(&WireRequest::Score {
            lines: lines.to_vec(),
        })? {
            WireResponse::Scores(scores) => Ok(scores),
            _ => Err(NetError::Protocol(
                "Score answered with a non-Scores response",
            )),
        }
    }

    /// Scores one line.
    pub fn score_line(&self, line: &str) -> Result<Vec<f32>, NetError> {
        let mut scores = self.score_batch(std::slice::from_ref(&line.to_string()))?;
        scores
            .pop()
            .ok_or(NetError::Protocol("empty verdict for one line"))
    }

    /// Scores a batch of lines against one tenant's private partition
    /// server-side; one score vector per line, in input order.
    pub fn score_tenant(&self, tenant: u64, lines: &[String]) -> Result<Vec<Vec<f32>>, NetError> {
        match self.call(&WireRequest::ScoreTenant {
            tenant,
            lines: lines.to_vec(),
        })? {
            WireResponse::Scores(scores) => Ok(scores),
            _ => Err(NetError::Protocol(
                "ScoreTenant answered with a non-Scores response",
            )),
        }
    }

    /// Absorbs freshly-labeled supervision into one tenant's partition
    /// server-side; returns how many detectors absorbed the batch.
    /// Bumps that tenant's cache epoch only.
    pub fn append_tenant(
        &self,
        tenant: u64,
        lines: &[String],
        labels: &[bool],
    ) -> Result<usize, NetError> {
        match self.call(&WireRequest::AppendTenant {
            tenant,
            lines: lines.to_vec(),
            labels: labels.to_vec(),
        })? {
            WireResponse::Appended(n) => Ok(n),
            _ => Err(NetError::Protocol(
                "AppendTenant answered with a non-Appended response",
            )),
        }
    }

    /// Absorbs freshly-labeled supervision server-side; returns how
    /// many detectors absorbed the batch. Bumps the server's
    /// verdict-cache epoch.
    pub fn append(&self, lines: &[String], labels: &[bool]) -> Result<usize, NetError> {
        match self.call(&WireRequest::Append {
            lines: lines.to_vec(),
            labels: labels.to_vec(),
        })? {
            WireResponse::Appended(n) => Ok(n),
            _ => Err(NetError::Protocol(
                "Append answered with a non-Appended response",
            )),
        }
    }

    /// The server's monotonic counters (verdict-cache overlay
    /// included).
    pub fn stats(&self) -> Result<ServiceStats, NetError> {
        match self.call(&WireRequest::Stats)? {
            WireResponse::Stats(stats) => Ok(stats),
            _ => Err(NetError::Protocol(
                "Stats answered with a non-Stats response",
            )),
        }
    }

    /// Captures the server's detector state as an encoded
    /// [`crate::ServiceSnapshot`] frame plus the names of detectors
    /// that were not capturable.
    pub fn snapshot_bytes(&self) -> Result<(Vec<u8>, Vec<String>), NetError> {
        match self.call(&WireRequest::Snapshot)? {
            WireResponse::Snapshot { frame, skipped } => Ok((frame, skipped)),
            _ => Err(NetError::Protocol(
                "Snapshot answered with a non-Snapshot response",
            )),
        }
    }

    /// Asks the server process to shut down cleanly (unblocks
    /// [`NetServer::wait_for_shutdown_request`]).
    pub fn shutdown_server(&self) -> Result<(), NetError> {
        match self.call(&WireRequest::Shutdown)? {
            WireResponse::ShuttingDown => Ok(()),
            _ => Err(NetError::Protocol("Shutdown answered unexpectedly")),
        }
    }
}

/// The client's demux reader: frames off the socket, responses to
/// their callers by id. On any terminal condition it marks the
/// connection closed and drops every pending sender, so blocked
/// callers observe [`NetError::Closed`] instead of hanging.
fn client_reader_loop(stream: &mut TcpStream, shared: &ClientShared, max_frame: usize) {
    let mut frames = FrameReader::new();
    loop {
        match frames.read_frame(stream, max_frame) {
            Ok(FrameEvent::Frame(payload)) => match decode_response(&payload) {
                Ok((0, WireResponse::Error { kind, message })) => {
                    // Connection-fatal server error (e.g. Busy at
                    // accept): remember it for the blocked callers.
                    *shared.fatal.lock().unwrap() = Some((kind, message));
                    break;
                }
                Ok((id, resp)) => {
                    if let Some(tx) = shared.pending.lock().unwrap().remove(&id) {
                        let _ = tx.send(resp);
                    }
                }
                // A frame that does not decode means the stream state
                // is unknowable; hanging up beats guessing.
                Err(_) => break,
            },
            Ok(FrameEvent::Idle) => {
                if shared.closed.load(Ordering::Acquire) {
                    break;
                }
            }
            Ok(FrameEvent::Eof) | Err(_) => break,
        }
    }
    shared.closed.store(true, Ordering::Release);
    shared.pending.lock().unwrap().clear();
}
