//! The server: listener, per-connection reader/writer threads, and the
//! dispatcher workers that turn queued requests into lane groups.
//!
//! ```text
//! client ──TCP──▶ reader thread ──▶ BatchQueue ──▶ dispatcher worker
//!                     │                                  │
//!                     │    (admission rejects)           │ drive_source over
//!                     ▼                                  │ the 256-lane kernel,
//!               writer thread ◀── mpsc reply channel ◀───┘ live refill mid-run
//! ```
//!
//! Each connection gets a reader thread (decodes frames, admits requests)
//! and a writer thread (serialises responses back out). The reader hands
//! every admitted request a clone of the writer's channel sender, so a
//! dispatcher — running on a different thread, retiring lanes in an order
//! unrelated to submission order — can push each response to the right
//! socket the moment its lane retires. The `request_id` echo is what lets
//! a pipelining client demultiplex.
//!
//! Dispatchers block on [`BatchQueue::take_group`], then run the group
//! through [`StreamingEngine::drive_source`] with a [`LaneSource`] that
//! keeps topping up from the queue while lanes retire. Exact-mode groups
//! run a full-length fixed schedule with exits disabled — bit-identical
//! to `InferenceEngine::scores` by the scheduler's lane-isolation
//! invariant — while deadline-mode groups run chunked with a margin exit
//! policy, so tight-latency traffic spends only the cycles its decisions
//! need.

use std::collections::{HashMap, VecDeque};
use std::io::{self, Read};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Sender};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use aqfp_sc_network::{
    ExecPlan, ExitPolicy, InferenceEngine, LaneJob, LaneSource, ModelRegistry, StreamingEngine,
    StreamingOutcome,
};
use aqfp_sc_nn::Tensor;

use crate::protocol::{
    decode_request, encode_response, write_frame, ClassifyRequest, ClassifyResponse, Request,
    Response, Status, MAX_FRAME,
};
use crate::queue::{BatchQueue, Pending, QueueKey};
use crate::stats::{ServerStats, StatsSnapshot};

/// Tuning knobs for a [`Server`]. `Default` is sized for the 256-lane
/// striped kernel: dispatch fires when a group reaches `lane_limit`
/// requests or its oldest request has waited `max_delay_us`, whichever
/// comes first.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Coalescing latency budget in µs: the longest a queued request waits
    /// for companions before its group dispatches anyway.
    pub max_delay_us: u64,
    /// Admission bound — requests beyond this many queued are rejected
    /// with [`Status::Overloaded`].
    pub queue_capacity: usize,
    /// Lanes per dispatched group (clamped to the kernel's 256-lane max).
    pub lane_limit: usize,
    /// Dispatcher worker threads; 0 picks a small count from the
    /// machine's parallelism.
    pub dispatch_workers: usize,
    /// Margin-policy confidence multiplier for deadline-mode requests.
    pub deadline_z: f64,
    /// Chunk length (cycles) between exit checks on the deadline path.
    pub deadline_chunk: usize,
    /// Cycles a deadline-mode run must consume before it may exit.
    pub deadline_min_cycles: usize,
    /// Socket read timeout — the interval at which idle connection
    /// readers notice server shutdown.
    pub read_timeout_ms: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            max_delay_us: 2_000,
            queue_capacity: 1_024,
            lane_limit: 256,
            dispatch_workers: 0,
            deadline_z: 3.0,
            deadline_chunk: 64,
            deadline_min_cycles: 64,
            read_timeout_ms: 100,
        }
    }
}

struct Shared {
    registry: Arc<ModelRegistry>,
    queue: BatchQueue,
    stats: ServerStats,
    config: ServeConfig,
    shutdown: AtomicBool,
}

/// The dynamic-batching inference server. [`Server::start`] binds,
/// spawns the listener and dispatcher threads, and returns a
/// [`ServerHandle`] for introspection and shutdown.
pub struct Server;

impl Server {
    /// Binds `addr` (use port 0 for an OS-assigned port) and starts
    /// serving every model in `registry`.
    pub fn start(
        registry: Arc<ModelRegistry>,
        addr: impl ToSocketAddrs,
        config: ServeConfig,
    ) -> io::Result<ServerHandle> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let workers = if config.dispatch_workers > 0 {
            config.dispatch_workers
        } else {
            thread::available_parallelism().map_or(2, |n| (n.get() / 2).clamp(1, 4))
        };
        let shared = Arc::new(Shared {
            registry,
            queue: BatchQueue::new(config.queue_capacity),
            stats: ServerStats::new(),
            config,
            shutdown: AtomicBool::new(false),
        });
        let dispatchers = (0..workers)
            .map(|_| {
                let shared = Arc::clone(&shared);
                thread::spawn(move || dispatcher_loop(&shared))
            })
            .collect();
        let accept_shared = Arc::clone(&shared);
        let listener_thread = thread::spawn(move || accept_loop(&listener, &accept_shared));
        Ok(ServerHandle {
            addr: local_addr,
            shared,
            listener: Some(listener_thread),
            dispatchers,
        })
    }
}

/// Running-server handle: address, stats, graceful shutdown. Dropping the
/// handle shuts the server down (draining admitted requests first).
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    listener: Option<JoinHandle<()>>,
    dispatchers: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (resolves port 0 to the real port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// A point-in-time stats snapshot — the same data `OP_STATS` serves.
    pub fn stats(&self) -> StatsSnapshot {
        self.shared.stats.snapshot(self.shared.queue.depth())
    }

    /// Graceful shutdown: stop admitting, drain every already-admitted
    /// request through dispatch, then join the listener and dispatchers.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        if self.shared.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        self.shared.queue.shutdown();
        // A throwaway connection unblocks the accept loop so it can see
        // the flag.
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.listener.take() {
            let _ = handle.join();
        }
        for handle in self.dispatchers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop();
    }
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    for stream in listener.incoming() {
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        let Ok(stream) = stream else { continue };
        let shared = Arc::clone(shared);
        thread::spawn(move || handle_connection(&shared, stream));
    }
}

/// Runs one connection's reader loop; the paired writer thread drains the
/// reply channel until every sender (reader + in-flight requests) is gone.
fn handle_connection(shared: &Arc<Shared>, stream: TcpStream) {
    let Ok(mut write_half) = stream.try_clone() else { return };
    let (tx, rx) = channel::<Vec<u8>>();
    let writer = thread::spawn(move || {
        for payload in rx {
            if write_frame(&mut write_half, &payload).is_err() {
                return;
            }
        }
    });
    let mut read_half = stream;
    let timeout = Duration::from_millis(shared.config.read_timeout_ms.max(1));
    let _ = read_half.set_read_timeout(Some(timeout));
    let _ = read_half.set_nodelay(true);
    while let Ok(Some(payload)) = read_frame_polled(&mut read_half, &shared.shutdown) {
        handle_payload(shared, &payload, &tx);
    }
    drop(tx);
    let _ = writer.join();
}

/// Like [`read_frame`](crate::read_frame), but built on a socket with a
/// read timeout: timeouts poll the shutdown flag instead of killing the
/// connection, and a partial read survives across timeout ticks (a plain
/// `read_exact` would lose the bytes it had already consumed).
fn read_frame_polled(stream: &mut TcpStream, shutdown: &AtomicBool) -> io::Result<Option<Vec<u8>>> {
    let mut len = [0u8; 4];
    if !read_full(stream, &mut len, shutdown, true)? {
        return Ok(None);
    }
    let len = u32::from_le_bytes(len) as usize;
    if len > MAX_FRAME {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "frame over MAX_FRAME"));
    }
    let mut payload = vec![0u8; len];
    if !read_full(stream, &mut payload, shutdown, false)? {
        return Ok(None);
    }
    Ok(Some(payload))
}

/// Fills `buf`, tolerating timeout ticks. Returns `Ok(false)` on a clean
/// stop: EOF before any byte (only legal when `at_boundary`) or server
/// shutdown observed on a timeout.
fn read_full(
    stream: &mut TcpStream,
    buf: &mut [u8],
    shutdown: &AtomicBool,
    at_boundary: bool,
) -> io::Result<bool> {
    let mut pos = 0;
    while pos < buf.len() {
        match stream.read(&mut buf[pos..]) {
            Ok(0) => {
                return if pos == 0 && at_boundary {
                    Ok(false)
                } else {
                    Err(io::ErrorKind::UnexpectedEof.into())
                };
            }
            Ok(n) => pos += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock
                    || e.kind() == io::ErrorKind::TimedOut =>
            {
                if shutdown.load(Ordering::SeqCst) {
                    return Ok(false);
                }
            }
            Err(e) => return Err(e),
        }
    }
    Ok(true)
}

fn handle_payload(shared: &Arc<Shared>, payload: &[u8], reply: &Sender<Vec<u8>>) {
    match decode_request(payload) {
        Err(e) => {
            shared.stats.record_bad_request();
            send_classify(reply, ClassifyResponse::error(0, Status::BadRequest, e.to_string()));
        }
        Ok(Request::Stats) => {
            let snap = shared.stats.snapshot(shared.queue.depth());
            let _ = reply.send(encode_response(&Response::Stats(snap.to_json())));
        }
        Ok(Request::Classify(req)) => admit(shared, req, reply),
    }
}

/// Validates a classify request and either queues it (the dispatcher owes
/// the response) or answers with a typed rejection right away.
fn admit(shared: &Arc<Shared>, req: ClassifyRequest, reply: &Sender<Vec<u8>>) {
    shared.stats.record_received();
    let plan = match shared.registry.get(&req.model) {
        Ok(plan) => plan,
        Err(e) => {
            shared.stats.record_unknown_model();
            send_classify(
                reply,
                ClassifyResponse::error(req.request_id, Status::UnknownModel, e.to_string()),
            );
            return;
        }
    };
    if let Some(message) = shape_mismatch(&plan, &req.image) {
        shared.stats.record_bad_request();
        send_classify(reply, ClassifyResponse::error(req.request_id, Status::BadRequest, message));
        return;
    }
    let now = Instant::now();
    let deadline = req.deadline_us > 0;
    let key = QueueKey { model: req.model, deadline };
    let pending = Pending {
        request_id: req.request_id,
        image: req.image,
        seed: req.seed,
        expires: deadline.then(|| now + Duration::from_micros(u64::from(req.deadline_us))),
        enqueued: now,
        reply: reply.clone(),
    };
    if let Err(rejected) = shared.queue.push(key, pending) {
        shared.stats.record_overload();
        send_classify(
            reply,
            ClassifyResponse::error(
                rejected.request_id,
                Status::Overloaded,
                "batching queue at capacity",
            ),
        );
    }
}

/// Why `image` cannot run on `plan`, if it cannot: its side must be the
/// model's input side. Admission checks the plan it looks up, and dispatch
/// checks again against the plan it runs, since a registry hot swap in
/// between may change the model's input shape.
fn shape_mismatch(plan: &ExecPlan, image: &Tensor) -> Option<String> {
    let expected = plan.input_side();
    let side = image.shape().last().copied().unwrap_or(0);
    (side != expected)
        .then(|| format!("image side {side} does not match model input side {expected}"))
}

fn send_classify(reply: &Sender<Vec<u8>>, resp: ClassifyResponse) {
    // A failed send means the connection's writer is gone — nobody is
    // left to care about this response.
    let _ = reply.send(encode_response(&Response::Classify(resp)));
}

fn dispatcher_loop(shared: &Arc<Shared>) {
    let max_delay = Duration::from_micros(shared.config.max_delay_us);
    let target = shared.config.lane_limit.max(1);
    while let Some((key, batch)) = shared.queue.take_group(max_delay, target) {
        dispatch_group(shared, key, batch);
    }
}

/// Runs one coalesced group through the lane-group kernel, refilling live
/// from the queue as lanes retire.
fn dispatch_group(shared: &Arc<Shared>, key: QueueKey, batch: Vec<Pending>) {
    let plan = match shared.registry.get(&key.model) {
        Ok(plan) => plan,
        Err(e) => {
            // The model was removed between admission and dispatch.
            for pending in batch {
                shared.stats.record_unknown_model();
                let resp = ClassifyResponse::error(
                    pending.request_id,
                    Status::UnknownModel,
                    e.to_string(),
                );
                let _ = pending.reply.send(encode_response(&Response::Classify(resp)));
            }
            return;
        }
    };
    shared.stats.record_dispatch(batch.len());
    let engine = InferenceEngine::from_plan(plan);
    let cfg = &shared.config;
    let streaming = if key.deadline {
        StreamingEngine::new(&engine, cfg.deadline_chunk.max(1))
            .with_policy(ExitPolicy::Margin { z: cfg.deadline_z })
            .with_min_cycles(cfg.deadline_min_cycles)
            .with_lane_group(cfg.lane_limit)
    } else {
        // The defaults at chunk length N — one full-length chunk, exits
        // disabled: bit-identical to `InferenceEngine::scores`, whatever
        // the group composition.
        StreamingEngine::new(&engine, engine.stream_len()).with_lane_group(cfg.lane_limit)
    };
    let mut source = DispatchSource {
        shared,
        plan: engine.plan(),
        key,
        initial: batch.into(),
        inflight: HashMap::new(),
        next_tag: 0,
        // Live refill is bounded so a continuously-fed key cannot pin this
        // dispatcher forever and starve other (model, mode) queues.
        refill_budget: cfg.lane_limit.saturating_mul(4),
    };
    let group = streaming.drive_source(&mut source);
    shared.stats.merge_group(group);
    debug_assert!(source.inflight.is_empty(), "drive returned with undelivered lanes");
}

/// What a lane needs to deliver its response once it retires.
struct InFlight {
    request_id: u64,
    enqueued: Instant,
    reply: Sender<Vec<u8>>,
}

/// The [`LaneSource`] a dispatcher hands to the kernel: initial batch
/// first, then live refill via `try_pop`, answering stale deadline-mode
/// requests and images the plan in use cannot take instead of spending
/// cycles on them.
struct DispatchSource<'a> {
    shared: &'a Shared,
    /// The plan the group runs, which may have been swapped in after a
    /// request was admitted against an earlier one.
    plan: &'a ExecPlan,
    key: QueueKey,
    initial: VecDeque<Pending>,
    inflight: HashMap<u64, InFlight>,
    next_tag: u64,
    refill_budget: usize,
}

impl LaneSource for DispatchSource<'_> {
    fn next(&mut self) -> Option<LaneJob> {
        loop {
            let pending = match self.initial.pop_front() {
                Some(p) => p,
                None => {
                    if self.refill_budget == 0 {
                        return None;
                    }
                    let p = self.shared.queue.try_pop(&self.key)?;
                    self.refill_budget -= 1;
                    self.shared.stats.record_refill();
                    p
                }
            };
            let rejection = if pending.expires.is_some_and(|at| Instant::now() > at) {
                self.shared.stats.record_expired();
                Some((Status::DeadlineExpired, "latency budget expired before dispatch".into()))
            } else if let Some(message) = shape_mismatch(self.plan, &pending.image) {
                self.shared.stats.record_bad_request();
                Some((Status::BadRequest, message))
            } else {
                None
            };
            if let Some((status, message)) = rejection {
                let resp = ClassifyResponse::error(pending.request_id, status, message);
                send_classify(&pending.reply, resp);
                continue;
            }
            let tag = self.next_tag;
            self.next_tag += 1;
            let Pending { request_id, image, seed, enqueued, reply, .. } = pending;
            self.inflight.insert(tag, InFlight { request_id, enqueued, reply });
            return Some(LaneJob { image, seed, tag });
        }
    }

    fn complete(&mut self, tag: u64, outcome: StreamingOutcome) {
        let Some(flight) = self.inflight.remove(&tag) else { return };
        let latency_us = u64::try_from(flight.enqueued.elapsed().as_micros()).unwrap_or(u64::MAX);
        self.shared.stats.record_completion(
            self.key.deadline,
            outcome.cycles as u64,
            outcome.early_exit,
            latency_us,
        );
        let resp = ClassifyResponse {
            request_id: flight.request_id,
            status: Status::Ok,
            early_exit: outcome.early_exit,
            deadline_mode: self.key.deadline,
            cycles: u32::try_from(outcome.cycles).unwrap_or(u32::MAX),
            class: u16::try_from(outcome.class).unwrap_or(u16::MAX),
            scores: outcome.scores,
            error: String::new(),
        };
        let _ = flight.reply.send(encode_response(&Response::Classify(resp)));
    }
}
