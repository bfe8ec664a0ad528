//! The `dco3d serve` daemon: warm state, listeners, and the executor.
//!
//! Architecture (one process, no external runtime):
//!
//! ```text
//! accept thread ──▶ per-connection reader ──▶ JobQueue ──▶ executor thread
//!                   per-connection writer ◀── mpsc<String> ◀── (responses)
//!                                              watchdog ──cancel──▶ tokens
//! ```
//!
//! The executor is the *only* thread that touches the warm state (the
//! generated design, trained predictor, and feature extractor), so jobs
//! are data-race-free by construction and execute in a deterministic
//! arrival order. Consecutive `predict` jobs are coalesced by the queue
//! into one batched UNet forward pass; because every tensor op processes
//! batch images independently, the batched results are bitwise identical
//! to serving each request alone (`dco_unet::predict_maps_batch`).
//!
//! Overload protection (see DESIGN.md, "Overload & Failure Semantics"):
//! admission is bounded per job class by the queue caps, connections are
//! bounded by `max_conns`, reads and writes carry timeouts, idle
//! connections are reaped after `idle_strikes` consecutive read timeouts,
//! and per-job deadlines are enforced by a watchdog thread cancelling a
//! cooperative token the stage loops poll. Every rejected or expired
//! request gets exactly one typed reply (`overloaded` with a
//! `retry_after_ms` hint, or `deadline-exceeded`); accepted jobs produce
//! results bitwise identical to the one-shot CLI.
//!
//! Panics inside a job body are caught per job: the client gets a typed
//! `internal` error and the daemon keeps serving. Shutdown is graceful:
//! the `shutdown` job closes the queue, the backlog drains, late requests
//! get `shutting-down` errors, and the acceptor is unblocked by a
//! self-connect poke.

use std::io::{BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use dco_features::{resize_nearest, FeatureExtractor, GridMap};
use dco_netlist::{Design, Placement3};
use dco_parallel::CancelToken;
use dco_place::{legalize, PlacementParams};
use dco_unet::{predict_maps, predict_maps_batch};
use serde_json::json;

use super::inject::{ConnInjector, ServeInjectSpec, WriteFault};
use super::protocol::{
    error_response, map_payload, ok_response, overloaded_response, parse_request,
    placement_checksum, predict_result, prediction_checksum, ErrorKind, FrameEvent, FrameReader,
    JobRequest, DEFAULT_MAX_LINE_BYTES,
};
use super::queue::{JobClass, JobQueue, QueueCaps, QueuedJob, RejectReason};
use crate::flow::{FlowConfig, FlowKind, FlowRunner, Predictor};
use crate::incremental::IncrementalEval;
use crate::resilience::{FlowError, ResilienceOptions};
use crate::stages::PlaceStage;

/// Tunables for one server instance.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Per-line byte cap (requests larger than this are rejected).
    pub max_line_bytes: usize,
    /// Maximum consecutive `predict` jobs coalesced into one forward pass
    /// (1 disables batching).
    pub max_batch: usize,
    /// Spreading iterations for `spread` jobs that don't specify `iters`.
    pub default_spread_iters: usize,
    /// Per-class admission caps for the job queue.
    pub queue_caps: QueueCaps,
    /// Upper bound a client-requested `deadline_ms` is clamped to.
    /// Requests without a deadline run unbounded.
    pub max_deadline_ms: u64,
    /// Socket read timeout, milliseconds (one timed-out read = one idle
    /// strike; partial frames survive timeouts).
    pub read_timeout_ms: u64,
    /// Socket write timeout, milliseconds.
    pub write_timeout_ms: u64,
    /// Consecutive idle strikes after which a connection is reaped.
    pub idle_strikes: u32,
    /// Maximum concurrently served connections; excess connects get one
    /// `overloaded` line and a close.
    pub max_conns: usize,
    /// Deterministic socket-fault injection (chaos testing; `None` in
    /// production).
    pub inject: Option<ServeInjectSpec>,
}

impl Default for ServeOptions {
    fn default() -> Self {
        Self {
            max_line_bytes: DEFAULT_MAX_LINE_BYTES,
            max_batch: 8,
            default_spread_iters: 4,
            queue_caps: QueueCaps::default(),
            max_deadline_ms: 300_000,
            read_timeout_ms: 30_000,
            write_timeout_ms: 30_000,
            idle_strikes: 10,
            max_conns: 64,
            inject: None,
        }
    }
}

/// Where to listen.
#[derive(Debug, Clone)]
pub enum Bind {
    /// A unix-domain socket at this path (a *dead* socket file left by a
    /// crashed daemon is probed and removed; a live one fails the bind).
    Unix(PathBuf),
    /// A TCP address, e.g. `127.0.0.1:0` (port 0 picks a free port).
    Tcp(String),
}

/// The address a server actually bound.
#[derive(Debug, Clone)]
pub enum BoundAddr {
    /// Unix-domain socket path.
    Unix(PathBuf),
    /// Resolved TCP address (with the real port when 0 was requested).
    Tcp(SocketAddr),
}

impl std::fmt::Display for BoundAddr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BoundAddr::Unix(p) => write!(f, "unix:{}", p.display()),
            BoundAddr::Tcp(a) => write!(f, "tcp:{a}"),
        }
    }
}

/// Everything the daemon holds warm between requests: the generated
/// design, the flow configuration, the trained congestion predictor, and
/// the feature extractor bound to the design's floorplan grid.
///
/// The one-shot CLI `predict` path and the served `predict` job both run
/// through this type, which is what makes their outputs bitwise identical
/// at a given seed.
#[derive(Debug)]
pub struct WarmState {
    design: Design,
    cfg: FlowConfig,
    predictor: Predictor,
    extractor: FeatureExtractor,
}

impl WarmState {
    /// Bundle pre-loaded state for serving.
    pub fn new(design: Design, cfg: FlowConfig, predictor: Predictor) -> Self {
        let extractor = FeatureExtractor::new(design.floorplan.grid);
        Self {
            design,
            cfg,
            predictor,
            extractor,
        }
    }

    /// The warm design.
    pub fn design(&self) -> &Design {
        &self.design
    }

    /// The flow configuration.
    pub fn config(&self) -> &FlowConfig {
        &self.cfg
    }

    /// The warm predictor.
    pub fn predictor(&self) -> &Predictor {
        &self.predictor
    }

    /// The deterministic baseline placement jobs fall back to when the
    /// request carries no explicit placement: Pin-3D baseline parameters,
    /// global placement at `seed`, then legalization.
    pub fn baseline_placement(&self, seed: u64) -> Placement3 {
        let params = PlacementParams::pin3d_baseline();
        let stage = self.runner().stage_place(FlowKind::Pin3d, seed);
        let mut placement = stage.placement;
        legalize(&self.design, &mut placement, params.displacement_threshold);
        placement
    }

    /// Extract the seven per-die feature channels for `placement`,
    /// resized to the configured UNet input size.
    pub fn features_for(&self, placement: &Placement3) -> [Vec<GridMap>; 2] {
        let [bottom, top] = self.extractor.extract(&self.design.netlist, placement);
        let size = self.cfg.map_size;
        let resize_all = |f: &dco_features::DieFeatures| -> Vec<GridMap> {
            f.channels()
                .iter()
                .map(|m| resize_nearest(m, size, size))
                .collect()
        };
        [resize_all(&bottom), resize_all(&top)]
    }

    /// Predict the two-die congestion map for one placement (the one-shot
    /// CLI path).
    pub fn predict(&self, placement: &Placement3) -> [GridMap; 2] {
        let f = self.features_for(placement);
        predict_maps(
            &self.predictor.unet,
            &self.predictor.normalization,
            [&f[0], &f[1]],
        )
    }

    /// Predict congestion for several placements' features in one batched
    /// forward pass (bitwise identical to per-placement [`Self::predict`]).
    pub fn predict_batch(&self, features: &[[Vec<GridMap>; 2]]) -> Vec<[GridMap; 2]> {
        let refs: Vec<[&[GridMap]; 2]> = features.iter().map(|f| [&f[0][..], &f[1][..]]).collect();
        predict_maps_batch(&self.predictor.unet, &self.predictor.normalization, &refs)
    }

    /// A flow runner borrowing the warm design.
    pub fn runner(&self) -> FlowRunner<'_> {
        FlowRunner::new(&self.design, self.cfg.clone())
    }

    /// A flow runner whose stage loops (DCO iterations, route waves) poll
    /// `token` — the deadline-enforcement path. With a never-token this is
    /// exactly [`Self::runner`], which keeps deadline-free jobs on the
    /// bitwise one-shot contract trivially.
    fn runner_cancellable(&self, token: &CancelToken) -> FlowRunner<'_> {
        FlowRunner::new(&self.design, self.cfg.clone().with_cancel(token))
    }
}

/// Job counters the executor accumulates (returned by
/// [`ServerHandle::join`] and reported by `status`).
#[derive(Debug, Clone, Copy, Default)]
pub struct ServeStats {
    /// Completed `predict` jobs.
    pub predict: u64,
    /// Completed `delta` jobs.
    pub delta: u64,
    /// Completed `spread` jobs.
    pub spread: u64,
    /// Completed `flow` jobs.
    pub flow: u64,
    /// Answered `status` jobs.
    pub status: u64,
    /// Error responses sent by the executor (bad placement, panics, ...).
    pub errors: u64,
    /// Batched forward passes executed.
    pub batches: u64,
    /// Largest predict batch observed.
    pub max_batch_observed: u64,
    /// Jobs shed by admission control (`overloaded` replies).
    pub shed: u64,
    /// Jobs answered `deadline-exceeded`.
    pub deadline_exceeded: u64,
    /// Connections refused at the `max_conns` cap.
    pub conns_rejected: u64,
    /// Connections reaped for idling past the strike budget.
    pub conns_reaped: u64,
}

/// Cross-thread overload/failure counters (reader threads shed, the
/// acceptor rejects, the executor expires); folded into [`ServeStats`]
/// when the executor exits and reported live by `status`.
#[derive(Debug, Default)]
struct ServeCounters {
    shed: AtomicU64,
    deadline: AtomicU64,
    conns_rejected: AtomicU64,
    conns_reaped: AtomicU64,
    active_conns: AtomicUsize,
}

/// A running server. Join it to wait for graceful shutdown.
#[derive(Debug)]
pub struct ServerHandle {
    addr: BoundAddr,
    accept: JoinHandle<()>,
    exec: JoinHandle<ServeStats>,
    watchdog: JoinHandle<()>,
    shutdown: Arc<AtomicBool>,
}

impl ServerHandle {
    /// The bound address (with the resolved port for `Tcp` binds).
    pub fn addr(&self) -> &BoundAddr {
        &self.addr
    }

    /// Whether a shutdown request has been accepted.
    pub fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Wait for the daemon to drain and exit (a client must send the
    /// `shutdown` job), returning the job counters.
    ///
    /// # Errors
    /// An `Err` means the executor or acceptor thread itself panicked —
    /// never a job failure, which is answered on the wire instead.
    pub fn join(self) -> std::io::Result<ServeStats> {
        let stats = self
            .exec
            .join()
            .map_err(|_| std::io::Error::other("executor thread panicked"))?;
        self.accept
            .join()
            .map_err(|_| std::io::Error::other("accept thread panicked"))?;
        self.watchdog
            .join()
            .map_err(|_| std::io::Error::other("watchdog thread panicked"))?;
        Ok(stats)
    }
}

enum Listener {
    Unix(UnixListener),
    Tcp(TcpListener),
}

/// Bind a unix socket path, probing (and removing) a stale socket file
/// left behind by a crashed daemon. A path a live daemon answers on fails
/// with `AddrInUse`; a non-socket file at the path is never deleted.
fn bind_unix(path: &std::path::Path) -> std::io::Result<UnixListener> {
    match std::fs::symlink_metadata(path) {
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
        Err(e) => return Err(e),
        Ok(meta) => {
            use std::os::unix::fs::FileTypeExt;
            if !meta.file_type().is_socket() {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::AddrInUse,
                    format!(
                        "{} exists and is not a socket; refusing to remove it",
                        path.display()
                    ),
                ));
            }
            // Probe: a live daemon accepts the connect, a dead one refuses.
            match UnixStream::connect(path) {
                Ok(_) => {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::AddrInUse,
                        format!("{} is already being served", path.display()),
                    ))
                }
                Err(_) => std::fs::remove_file(path)?,
            }
        }
    }
    UnixListener::bind(path)
}

/// Start a server over `state` on `bind`.
///
/// When `opts.inject` is `None`, the `DCO3D_SERVE_INJECT` environment
/// variable is consulted as a fallback (same `class:seed[:rate_pct]`
/// grammar); a malformed value fails the boot with `InvalidInput`.
///
/// # Errors
/// Fails when the socket cannot be bound (address actively served, bad
/// path, ...) or the injection spec is malformed.
pub fn serve(
    state: WarmState,
    bind: Bind,
    mut opts: ServeOptions,
) -> std::io::Result<ServerHandle> {
    if opts.inject.is_none() {
        if let Ok(raw) = std::env::var("DCO3D_SERVE_INJECT") {
            let trimmed = raw.trim();
            if !trimmed.is_empty() {
                opts.inject = Some(trimmed.parse::<ServeInjectSpec>().map_err(|e| {
                    std::io::Error::new(std::io::ErrorKind::InvalidInput, e.to_string())
                })?);
            }
        }
    }
    let (listener, addr) = match bind {
        Bind::Unix(path) => {
            let l = bind_unix(&path)?;
            (Listener::Unix(l), BoundAddr::Unix(path))
        }
        Bind::Tcp(spec) => {
            let l = TcpListener::bind(spec.as_str())?;
            let local = l.local_addr()?;
            (Listener::Tcp(l), BoundAddr::Tcp(local))
        }
    };

    let queue = Arc::new(JobQueue::with_caps(opts.queue_caps));
    let shutdown = Arc::new(AtomicBool::new(false));
    let counters = Arc::new(ServeCounters::default());
    let started = Instant::now();
    // bounded: one in-flight deadline per queued job, so the channel depth
    // is capped by the queue caps.
    let (watch_tx, watch_rx) = channel::<(Instant, CancelToken)>();
    let watchdog = std::thread::spawn(move || watchdog_loop(&watch_rx));

    let exec = {
        let queue = Arc::clone(&queue);
        let shutdown = Arc::clone(&shutdown);
        let counters = Arc::clone(&counters);
        let addr = addr.clone();
        let opts = opts.clone();
        std::thread::spawn(move || {
            executor_loop(
                &state, &queue, &opts, &shutdown, &addr, started, &counters, &watch_tx,
            )
        })
    };

    let accept = {
        let queue = Arc::clone(&queue);
        let shutdown = Arc::clone(&shutdown);
        let counters = Arc::clone(&counters);
        let opts = opts.clone();
        std::thread::spawn(move || accept_loop(&listener, &queue, &shutdown, &opts, &counters))
    };

    Ok(ServerHandle {
        addr,
        accept,
        exec,
        watchdog,
        shutdown,
    })
}

/// The deadline watchdog: a single thread holding every armed (deadline,
/// token) pair, sleeping until the nearest one, and cancelling tokens as
/// they expire. Cancelling a token whose job already completed is a
/// harmless no-op, so jobs never unregister. Exits when the executor
/// drops its sender.
fn watchdog_loop(rx: &Receiver<(Instant, CancelToken)>) {
    let mut armed: Vec<(Instant, CancelToken)> = Vec::new();
    loop {
        let now = Instant::now();
        armed.retain(|(deadline, token)| {
            if *deadline <= now {
                token.cancel();
                false
            } else {
                true
            }
        });
        let timeout = armed
            .iter()
            .map(|(d, _)| d.saturating_duration_since(now))
            .min()
            .unwrap_or(Duration::from_secs(3600));
        match rx.recv_timeout(timeout) {
            Ok(entry) => armed.push(entry),
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => break,
        }
    }
}

/// Decrements the active-connection count when a connection's reader
/// exits, however it exits.
struct ConnGuard(Arc<ServeCounters>);

impl Drop for ConnGuard {
    fn drop(&mut self) {
        self.0.active_conns.fetch_sub(1, Ordering::SeqCst);
    }
}

fn accept_loop(
    listener: &Listener,
    queue: &Arc<JobQueue>,
    shutdown: &Arc<AtomicBool>,
    opts: &ServeOptions,
    counters: &Arc<ServeCounters>,
) {
    let conn_ids = AtomicU64::new(1);
    loop {
        if shutdown.load(Ordering::SeqCst) {
            break;
        }
        let accepted = match listener {
            Listener::Unix(l) => l.accept().map(|(s, _)| Conn::Unix(s)),
            Listener::Tcp(l) => l.accept().map(|(s, _)| Conn::Tcp(s)),
        };
        match accepted {
            Ok(conn) => {
                if shutdown.load(Ordering::SeqCst) {
                    break;
                }
                if counters.active_conns.load(Ordering::SeqCst) >= opts.max_conns.max(1) {
                    counters.conns_rejected.fetch_add(1, Ordering::Relaxed);
                    if dco_obs::enabled() {
                        dco_obs::counter_add("serve.conns.rejected", 1);
                    }
                    // One typed line, then close: the client learns why.
                    let line = overloaded_response(0, "connection limit reached", 100);
                    conn.reject(&line);
                    continue;
                }
                counters.active_conns.fetch_add(1, Ordering::SeqCst);
                spawn_connection(
                    conn,
                    conn_ids.fetch_add(1, Ordering::Relaxed),
                    Arc::clone(queue),
                    opts,
                    Arc::clone(counters),
                );
            }
            Err(_) => {
                if shutdown.load(Ordering::SeqCst) {
                    break;
                }
            }
        }
    }
    if let Listener::Unix(l) = listener {
        if let Ok(a) = l.local_addr() {
            if let Some(p) = a.as_pathname() {
                let _ = std::fs::remove_file(p);
            }
        }
    }
}

enum Conn {
    Unix(UnixStream),
    Tcp(TcpStream),
}

impl Conn {
    /// Best-effort single-line rejection for over-cap connects.
    fn reject(self, line: &str) {
        match &self {
            Conn::Unix(s) => {
                let _ = s.write_line(line);
                s.sever();
            }
            Conn::Tcp(s) => {
                let _ = s.write_line(line);
                s.sever();
            }
        }
    }
}

/// The writer half of a connection: buffered line writes plus the ability
/// to sever the whole socket (both directions) for injected disconnects.
trait SockWrite {
    fn write_line(&self, line: &str) -> std::io::Result<()>;
    fn write_bytes(&self, bytes: &[u8]) -> std::io::Result<()>;
    fn sever(&self);
}

impl SockWrite for UnixStream {
    fn write_line(&self, line: &str) -> std::io::Result<()> {
        let mut w = self;
        w.write_all(line.as_bytes())?;
        w.write_all(b"\n")?;
        w.flush()
    }
    fn write_bytes(&self, bytes: &[u8]) -> std::io::Result<()> {
        let mut w = self;
        w.write_all(bytes)?;
        w.flush()
    }
    fn sever(&self) {
        let _ = self.shutdown(Shutdown::Both);
    }
}

impl SockWrite for TcpStream {
    fn write_line(&self, line: &str) -> std::io::Result<()> {
        let mut w = self;
        w.write_all(line.as_bytes())?;
        w.write_all(b"\n")?;
        w.flush()
    }
    fn write_bytes(&self, bytes: &[u8]) -> std::io::Result<()> {
        let mut w = self;
        w.write_all(bytes)?;
        w.flush()
    }
    fn sever(&self) {
        let _ = self.shutdown(Shutdown::Both);
    }
}

fn spawn_connection(
    conn: Conn,
    conn_id: u64,
    queue: Arc<JobQueue>,
    opts: &ServeOptions,
    counters: Arc<ServeCounters>,
) {
    // bounded: replies in flight are capped by the queue caps (one reply
    // per admitted job) plus the reader's typed rejection lines.
    let (tx, rx) = channel::<String>();
    let read_timeout = Some(Duration::from_millis(opts.read_timeout_ms.max(1)));
    let write_timeout = Some(Duration::from_millis(opts.write_timeout_ms.max(1)));
    let max_line = opts.max_line_bytes;
    let idle_strikes = opts.idle_strikes.max(1);
    let max_deadline_ms = opts.max_deadline_ms;
    let write_inj = opts.inject.map(|spec| spec.for_conn(conn_id, 1));
    let read_inj = opts.inject.map(|spec| spec.for_conn(conn_id, 0));
    let guard = ConnGuard(counters);
    match conn {
        Conn::Unix(stream) => {
            let _ = stream.set_read_timeout(read_timeout);
            let _ = stream.set_write_timeout(write_timeout);
            let Ok(write_half) = stream.try_clone() else {
                drop(guard);
                return;
            };
            std::thread::spawn(move || writer_loop(&write_half, &rx, write_inj.as_ref()));
            std::thread::spawn(move || {
                reader_loop(
                    &mut BufReader::new(stream),
                    conn_id,
                    &queue,
                    &tx,
                    max_line,
                    idle_strikes,
                    max_deadline_ms,
                    read_inj.as_ref(),
                    &guard,
                );
            });
        }
        Conn::Tcp(stream) => {
            let _ = stream.set_read_timeout(read_timeout);
            let _ = stream.set_write_timeout(write_timeout);
            let Ok(write_half) = stream.try_clone() else {
                drop(guard);
                return;
            };
            std::thread::spawn(move || writer_loop(&write_half, &rx, write_inj.as_ref()));
            std::thread::spawn(move || {
                reader_loop(
                    &mut BufReader::new(stream),
                    conn_id,
                    &queue,
                    &tx,
                    max_line,
                    idle_strikes,
                    max_deadline_ms,
                    read_inj.as_ref(),
                    &guard,
                );
            });
        }
    }
}

fn writer_loop<W: SockWrite>(
    w: &W,
    rx: &std::sync::mpsc::Receiver<String>,
    inject: Option<&ConnInjector>,
) {
    while let Ok(line) = rx.recv() {
        match inject.and_then(ConnInjector::on_write) {
            None => {
                if w.write_line(&line).is_err() {
                    // Client went away; executor sends into a dead channel,
                    // which it already tolerates.
                    break;
                }
            }
            Some(WriteFault::Delay(d)) => {
                std::thread::sleep(d);
                if w.write_line(&line).is_err() {
                    break;
                }
            }
            Some(WriteFault::Partial) => {
                // A short write then a sever: the client sees a torn frame
                // and a close — never a torn frame followed by more data.
                let bytes = line.as_bytes();
                let _ = w.write_bytes(&bytes[..bytes.len() / 2]);
                w.sever();
                break;
            }
            Some(WriteFault::Disconnect) => {
                w.sever();
                break;
            }
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn reader_loop<R: std::io::BufRead>(
    reader: &mut R,
    conn_id: u64,
    queue: &Arc<JobQueue>,
    tx: &Sender<String>,
    max_line: usize,
    idle_strikes: u32,
    max_deadline_ms: u64,
    inject: Option<&ConnInjector>,
    guard: &ConnGuard,
) {
    let counters = &guard.0;
    let mut framer = FrameReader::new(max_line);
    let mut strikes = 0u32;
    loop {
        if let Some(stall) = inject.and_then(ConnInjector::on_read) {
            std::thread::sleep(stall);
        }
        match framer.next(reader) {
            Err(_) | Ok(FrameEvent::Eof) => break, // clean EOF or disconnect
            Ok(FrameEvent::TimedOut) => {
                strikes += 1;
                if strikes >= idle_strikes {
                    // Reaped: the guard (held by this thread) frees the
                    // connection slot; dropping tx ends the writer.
                    if dco_obs::enabled() {
                        dco_obs::counter_add("serve.conns.reaped", 1);
                    }
                    counters.conns_reaped.fetch_add(1, Ordering::Relaxed);
                    break;
                }
            }
            Ok(FrameEvent::Oversized { discarded }) => {
                strikes = 0;
                let _ = tx.send(error_response(
                    0,
                    ErrorKind::Oversized,
                    &format!("request line exceeded cap ({discarded} bytes discarded)"),
                ));
            }
            Ok(FrameEvent::Line(line)) => {
                strikes = 0;
                match parse_request(&line) {
                    Err(e) => {
                        let _ = tx.send(error_response(e.id, e.kind, &e.detail));
                    }
                    Ok(request) => {
                        // Client-requested, server-clamped: a client cannot
                        // reserve the executor longer than the server allows.
                        let deadline = request.deadline_ms.map(|ms| {
                            Instant::now() + Duration::from_millis(ms.min(max_deadline_ms))
                        });
                        let job = QueuedJob {
                            conn: conn_id,
                            request,
                            reply: tx.clone(),
                            deadline,
                        };
                        if let Err(rejection) = queue.push(job) {
                            let id = rejection.job.request.id;
                            match rejection.reason {
                                RejectReason::Overloaded {
                                    class,
                                    depth,
                                    cap,
                                    retry_after_ms,
                                } => {
                                    counters.shed.fetch_add(1, Ordering::Relaxed);
                                    if dco_obs::enabled() {
                                        dco_obs::counter_add("serve.jobs.shed", 1);
                                    }
                                    let _ = tx.send(overloaded_response(
                                        id,
                                        &format!("{} queue full ({depth}/{cap})", class.label()),
                                        retry_after_ms,
                                    ));
                                }
                                RejectReason::ShuttingDown => {
                                    let _ = tx.send(error_response(
                                        id,
                                        ErrorKind::ShuttingDown,
                                        "server is draining; no new jobs accepted",
                                    ));
                                }
                            }
                        }
                    }
                }
            }
        }
    }
}

fn poke(addr: &BoundAddr) {
    // Unblock the acceptor's blocking accept() so it can observe the
    // shutdown flag; the throwaway connection is dropped immediately.
    match addr {
        BoundAddr::Unix(p) => drop(UnixStream::connect(p)),
        BoundAddr::Tcp(a) => drop(TcpStream::connect(a)),
    }
}

/// Has this job's deadline already passed?
fn expired(job: &QueuedJob) -> bool {
    job.deadline.is_some_and(|d| Instant::now() >= d)
}

/// Arm the watchdog for a deadline job; deadline-free jobs get a
/// never-token (no registration, no polling cost).
fn arm_deadline(job: &QueuedJob, watchdog: &Sender<(Instant, CancelToken)>) -> CancelToken {
    match job.deadline {
        Some(deadline) => {
            let token = CancelToken::new();
            let _ = watchdog.send((deadline, token.clone()));
            token
        }
        None => CancelToken::never(),
    }
}

#[allow(clippy::too_many_arguments)]
fn executor_loop(
    state: &WarmState,
    queue: &Arc<JobQueue>,
    opts: &ServeOptions,
    shutdown: &Arc<AtomicBool>,
    addr: &BoundAddr,
    started: Instant,
    counters: &Arc<ServeCounters>,
    watchdog: &Sender<(Instant, CancelToken)>,
) -> ServeStats {
    let mut stats = ServeStats::default();
    // The incremental-evaluation session shared by all `delta` jobs. It
    // lives on the executor thread only (like the warm state), so the
    // cached router/STA/feature/prediction state is race-free and jobs
    // see a deterministic arrival order.
    let mut delta_session: Option<IncrementalEval<'_>> = None;
    while let Some(batch) = queue.pop_batch(opts.max_batch) {
        if batch.len() > 1 || matches!(batch[0].request.job, JobRequest::Predict { .. }) {
            run_predict_batch(state, batch, &mut stats, counters);
            continue;
        }
        let Some(job) = batch.into_iter().next() else {
            continue;
        };
        // Deadline already blown while queued: answer typed, run nothing.
        if expired(&job) && !matches!(job.request.job, JobRequest::Shutdown) {
            send_deadline_exceeded(&job, &mut stats, counters);
            continue;
        }
        match &job.request.job {
            JobRequest::Predict { .. } => unreachable!("predicts route through the batch arm"),
            JobRequest::Delta { .. } => {
                run_delta(state, &job, &mut delta_session, &mut stats, counters);
            }
            JobRequest::Spread { .. } => {
                run_spread(state, &job, opts, &mut stats, counters, watchdog);
            }
            JobRequest::Flow { .. } => run_flow(state, &job, &mut stats, counters, watchdog),
            JobRequest::Status => {
                stats.status += 1;
                let mut snapshot = stats;
                fold_counters(&mut snapshot, counters);
                run_status(state, &job, queue, started, &snapshot, opts, counters);
            }
            JobRequest::Shutdown => {
                let _ = job.reply.send(ok_response(
                    job.request.id,
                    "shutdown",
                    json!({ "stopping": true }),
                ));
                shutdown.store(true, Ordering::SeqCst);
                queue.close();
                poke(addr);
            }
        }
    }
    fold_counters(&mut stats, counters);
    stats
}

/// Fold the cross-thread counters into an executor-side stats snapshot.
fn fold_counters(stats: &mut ServeStats, counters: &ServeCounters) {
    stats.shed = counters.shed.load(Ordering::Relaxed);
    stats.deadline_exceeded = counters.deadline.load(Ordering::Relaxed);
    stats.conns_rejected = counters.conns_rejected.load(Ordering::Relaxed);
    stats.conns_reaped = counters.conns_reaped.load(Ordering::Relaxed);
}

/// Reply with a typed error and count it.
fn send_error(job: &QueuedJob, kind: ErrorKind, detail: &str, stats: &mut ServeStats) {
    stats.errors += 1;
    if dco_obs::enabled() {
        dco_obs::counter_add("serve.jobs.errors", 1);
    }
    let _ = job.reply.send(error_response(job.request.id, kind, detail));
}

/// Reply `deadline-exceeded` and count it (separately from generic
/// errors, so the overload contract is observable).
fn send_deadline_exceeded(job: &QueuedJob, stats: &mut ServeStats, counters: &ServeCounters) {
    counters.deadline.fetch_add(1, Ordering::Relaxed);
    if dco_obs::enabled() {
        dco_obs::counter_add("serve.jobs.deadline", 1);
    }
    send_error(
        job,
        ErrorKind::DeadlineExceeded,
        "deadline expired; partial work abandoned and discarded",
        stats,
    );
}

/// Resolve a job's placement: the explicit one (validated against the warm
/// design's cell count) or, without one, whatever `fallback` builds.
fn resolve_placement(
    state: &WarmState,
    placement: Option<&Placement3>,
    fallback: impl FnOnce() -> Placement3,
) -> Result<Placement3, String> {
    match placement {
        Some(p) => {
            let want = state.design().netlist.num_cells();
            if p.xs().len() != want {
                return Err(format!(
                    "placement has {} cells, design has {want}",
                    p.xs().len()
                ));
            }
            Ok(p.clone())
        }
        None => Ok(fallback()),
    }
}

fn run_predict_batch(
    state: &WarmState,
    batch: Vec<QueuedJob>,
    stats: &mut ServeStats,
    counters: &ServeCounters,
) {
    let n = batch.len();
    stats.batches += 1;
    stats.max_batch_observed = stats.max_batch_observed.max(n as u64);
    let _batch_span = dco_obs::span!("serve.batch", size = n);
    if dco_obs::enabled() {
        dco_obs::histogram_observe("serve.batch.size", n as f64);
    }

    // Per-job feature extraction, each under its own job span so the
    // observability rollup attributes the cost to the request.
    let mut ready: Vec<(QueuedJob, [Vec<GridMap>; 2])> = Vec::with_capacity(n);
    for job in batch {
        if expired(&job) {
            send_deadline_exceeded(&job, stats, counters);
            continue;
        }
        let JobRequest::Predict { seed, placement } = &job.request.job else {
            send_error(&job, ErrorKind::Internal, "non-predict job in batch", stats);
            continue;
        };
        let outcome = {
            let _job_span = dco_obs::span!(
                "serve.job",
                job = job.request.id,
                kind = "predict",
                conn = job.conn
            );
            catch_unwind(AssertUnwindSafe(|| {
                resolve_placement(state, placement.as_ref(), || {
                    state.baseline_placement(*seed)
                })
                .map(|p| state.features_for(&p))
            }))
        };
        match outcome {
            Ok(Ok(features)) => ready.push((job, features)),
            Ok(Err(detail)) => send_error(&job, ErrorKind::BadRequest, &detail, stats),
            Err(_) => send_error(
                &job,
                ErrorKind::Internal,
                "feature extraction panicked",
                stats,
            ),
        }
    }
    if ready.is_empty() {
        return;
    }

    // One batched forward pass for the whole run of jobs.
    let features: Vec<[Vec<GridMap>; 2]> = ready.iter().map(|(_, f)| f.clone()).collect();
    let forward = {
        let _fwd_span = dco_obs::span!("serve.batch.forward", size = ready.len());
        catch_unwind(AssertUnwindSafe(|| state.predict_batch(&features)))
    };
    match forward {
        Ok(maps) => {
            for ((job, _), m) in ready.iter().zip(&maps) {
                stats.predict += 1;
                if dco_obs::enabled() {
                    dco_obs::counter_add("serve.jobs.predict", 1);
                }
                let _ = job
                    .reply
                    .send(ok_response(job.request.id, "predict", predict_result(m)));
            }
        }
        Err(_) => {
            for (job, _) in &ready {
                send_error(
                    job,
                    ErrorKind::Internal,
                    "predictor forward pass panicked",
                    stats,
                );
            }
        }
    }
}

/// Run a `delta` job against the executor's shared incremental session.
///
/// The session caches the previous placement's routing usage, STA arrival
/// cones, feature maps and congestion prediction; each job diffs the new
/// placement against that cache and re-evaluates only the dirtied nets,
/// cones and tiles — bitwise identical to a from-scratch evaluation (the
/// contract `crate::incremental` tests enforce). `reset: true` (or a
/// panicking job body, which may leave torn caches) drops the session so
/// the next job runs the full path.
fn run_delta<'a>(
    state: &'a WarmState,
    job: &QueuedJob,
    session: &mut Option<IncrementalEval<'a>>,
    stats: &mut ServeStats,
    counters: &ServeCounters,
) {
    let JobRequest::Delta {
        seed,
        placement,
        reset,
    } = &job.request.job
    else {
        return;
    };
    let _job_span = dco_obs::span!(
        "serve.job",
        job = job.request.id,
        kind = "delta",
        conn = job.conn
    );
    if *reset {
        *session = None;
    }
    let placement = match resolve_placement(state, placement.as_ref(), || {
        state.baseline_placement(*seed)
    }) {
        Ok(p) => p,
        Err(detail) => {
            send_error(job, ErrorKind::BadRequest, &detail, stats);
            return;
        }
    };
    let sess = session.get_or_insert_with(|| {
        IncrementalEval::new(state.design(), state.predictor(), state.config().map_size)
    });
    let outcome = catch_unwind(AssertUnwindSafe(|| sess.eval(&placement)));
    match outcome {
        Ok(report) => {
            // A blown deadline after a *completed* evaluation keeps the
            // session: the caches are consistent, only the reply is late.
            if expired(job) {
                send_deadline_exceeded(job, stats, counters);
                return;
            }
            stats.delta += 1;
            if dco_obs::enabled() {
                dco_obs::counter_add("serve.jobs.delta", 1);
            }
            let delta_stats = match &report.delta {
                Some(d) => json!({
                    "moved_cells": d.moved_cells,
                    "tiles_dirtied": d.tiles_dirtied,
                    "router_nets": d.router_nets,
                    "sta_nets": d.sta_nets,
                }),
                None => serde::Value::Null,
            };
            let result = json!({
                "incremental": report.incremental,
                "wns_ps": report.timing.wns_ps,
                "tns_ps": report.timing.tns_ps,
                "overflow": report.overflow,
                "wirelength_um": report.wirelength,
                "delta": delta_stats,
                "work": {
                    "nets_ripped": report.route_stats.nets_ripped,
                    "segments_routed": report.route_stats.segments_routed,
                    "sta_nets_changed": report.sta_stats.nets_changed,
                    "sta_cone_pins": report.sta_stats.cone_pins,
                    "unet_dirty_pixels": report.unet_stats.dirty_pixels,
                    "unet_full_fallback": report.unet_stats.full_fallback,
                },
                "congestion": [map_payload(&report.congestion[0]), map_payload(&report.congestion[1])],
                "checksum": format!("{:016x}", prediction_checksum(&report.congestion)),
            });
            let _ = job.reply.send(ok_response(job.request.id, "delta", result));
        }
        Err(_) => {
            // Torn caches are unrecoverable; the next delta job rebuilds.
            *session = None;
            send_error(
                job,
                ErrorKind::Internal,
                "delta job panicked; session reset",
                stats,
            );
        }
    }
}

fn run_spread(
    state: &WarmState,
    job: &QueuedJob,
    opts: &ServeOptions,
    stats: &mut ServeStats,
    counters: &ServeCounters,
    watchdog: &Sender<(Instant, CancelToken)>,
) {
    let JobRequest::Spread {
        seed,
        iters,
        placement,
    } = &job.request.job
    else {
        return;
    };
    let _job_span = dco_obs::span!(
        "serve.job",
        job = job.request.id,
        kind = "spread",
        conn = job.conn
    );
    let budget = iters
        .unwrap_or(opts.default_spread_iters)
        .clamp(1, state.config().dco.max_iter.max(1));
    let token = arm_deadline(job, watchdog);
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        // Spreading starts from the global placement, before legalization.
        let start = resolve_placement(state, placement.as_ref(), || {
            state.runner().stage_place(FlowKind::Pin3d, *seed).placement
        })?;
        let place = PlaceStage {
            params: PlacementParams::pin3d_baseline(),
            placement: start,
        };
        let mut dco_cfg = state.config().dco.clone();
        dco_cfg.max_iter = budget;
        dco_cfg.cancel = token.clone();
        let runner = state.runner_cancellable(&token);
        Ok::<_, String>(runner.stage_dco_with(state.predictor(), &place, *seed, dco_cfg))
    }));
    if token.is_cancelled() {
        // Whatever the body produced was computed under a blown deadline;
        // discard it rather than reply with a partial spread.
        send_deadline_exceeded(job, stats, counters);
        return;
    }
    match outcome {
        Ok(Ok(stage)) => {
            stats.spread += 1;
            if dco_obs::enabled() {
                dco_obs::counter_add("serve.jobs.spread", 1);
            }
            let result = json!({
                "placement": stage.placement,
                "divergence_events": stage.divergence_events,
                "degraded": stage.degraded,
                "iters": budget,
                "checksum": format!("{:016x}", placement_checksum(&stage.placement)),
            });
            let _ = job
                .reply
                .send(ok_response(job.request.id, "spread", result));
        }
        Ok(Err(detail)) => send_error(job, ErrorKind::BadRequest, &detail, stats),
        Err(_) => send_error(job, ErrorKind::Internal, "spread job panicked", stats),
    }
}

fn run_flow(
    state: &WarmState,
    job: &QueuedJob,
    stats: &mut ServeStats,
    counters: &ServeCounters,
    watchdog: &Sender<(Instant, CancelToken)>,
) {
    let JobRequest::Flow { kind, seed } = &job.request.job else {
        return;
    };
    let _job_span = dco_obs::span!(
        "serve.job",
        job = job.request.id,
        kind = "flow",
        conn = job.conn,
        flow = kind.slug()
    );
    let token = arm_deadline(job, watchdog);
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let opts = ResilienceOptions {
            cancel: token.clone(),
            ..ResilienceOptions::default()
        };
        state
            .runner_cancellable(&token)
            .run_resilient(*kind, *seed, Some(state.predictor()), &opts)
    }));
    if token.is_cancelled() {
        send_deadline_exceeded(job, stats, counters);
        return;
    }
    match outcome {
        Ok(Ok(r)) => {
            stats.flow += 1;
            if dco_obs::enabled() {
                dco_obs::counter_add("serve.jobs.flow", 1);
            }
            let o = &r.outcome;
            let result = json!({
                "kind": kind.slug(),
                "stage": o.placement_stage,
                "signoff": o.signoff,
                "cut_size": o.cut_size,
                "congestion": [map_payload(&o.congestion[0]), map_payload(&o.congestion[1])],
                "degraded": r.report.degraded,
                "recovery_events": r.report.events.len(),
                "checksum": format!("{:016x}", placement_checksum(&o.placement)),
            });
            let _ = job.reply.send(ok_response(job.request.id, "flow", result));
        }
        Ok(Err(FlowError::Cancelled)) => send_deadline_exceeded(job, stats, counters),
        Ok(Err(e)) => send_error(
            job,
            ErrorKind::Internal,
            &format!("flow failed: {e}"),
            stats,
        ),
        Err(_) => send_error(job, ErrorKind::Internal, "flow job panicked", stats),
    }
}

#[allow(clippy::too_many_arguments)]
fn run_status(
    state: &WarmState,
    job: &QueuedJob,
    queue: &Arc<JobQueue>,
    started: Instant,
    stats: &ServeStats,
    opts: &ServeOptions,
    counters: &ServeCounters,
) {
    let _job_span = dco_obs::span!(
        "serve.job",
        job = job.request.id,
        kind = "status",
        conn = job.conn
    );
    if dco_obs::enabled() {
        dco_obs::counter_add("serve.jobs.status", 1);
        dco_obs::gauge_set("serve.queue.depth", queue.depth() as f64);
        dco_obs::gauge_set(
            "serve.queue.depth.cheap",
            queue.depth_of(JobClass::Cheap) as f64,
        );
        dco_obs::gauge_set(
            "serve.queue.depth.expensive",
            queue.depth_of(JobClass::Expensive) as f64,
        );
        dco_obs::gauge_set(
            "serve.conns.active",
            counters.active_conns.load(Ordering::SeqCst) as f64,
        );
    }
    // The executor thread runs every predict job, so its thread-local arena
    // stats reflect how well inference scratch is being reused.
    let arena_stats = dco_tensor::arena::scratch_stats();
    let result = json!({
        "design": state.design().name,
        "cells": state.design().netlist.num_cells(),
        "nets": state.design().netlist.num_nets(),
        "map_size": state.config().map_size,
        "uptime_ms": started.elapsed().as_millis() as u64,
        "queue_depth": queue.depth(),
        "threads": dco_parallel::threads(),
        "jobs": {
            "predict": stats.predict,
            "delta": stats.delta,
            "spread": stats.spread,
            "flow": stats.flow,
            "status": stats.status,
            "errors": stats.errors,
            "batches": stats.batches,
            "max_batch": stats.max_batch_observed,
        },
        "arena": {
            "hits": arena_stats.hits,
            "misses": arena_stats.misses,
            "pooled_buffers": arena_stats.pooled_buffers,
            "pooled_bytes": arena_stats.pooled_bytes,
        },
        "overload": {
            "shed": stats.shed,
            "deadline_exceeded": stats.deadline_exceeded,
            "queue": {
                "cheap_depth": queue.depth_of(JobClass::Cheap),
                "cheap_cap": opts.queue_caps.cheap,
                "expensive_depth": queue.depth_of(JobClass::Expensive),
                "expensive_cap": opts.queue_caps.expensive,
            },
            "conns": {
                "active": counters.active_conns.load(Ordering::SeqCst),
                "rejected": stats.conns_rejected,
                "reaped": stats.conns_reaped,
                "max": opts.max_conns,
            },
        },
    });
    let _ = job
        .reply
        .send(ok_response(job.request.id, "status", result));
}
