//! Persistent shard-worker pools: spawn once, serve many requests.
//!
//! [`WorkerPool`] is the one parent side of process sharding. Held
//! across calls, it pays process spawn + circuit construction once —
//! the right shape for the paper's image workloads, which are streams
//! of *small* evaluations. Spawned from a [`PoolConfig`] for each call
//! and dropped afterwards, it is the spawn-per-call baseline (the
//! `gamma_64x64_order6_sharded` trajectory entry documents that
//! overhead). A [`WorkerPool`] serves one caller; a [`PoolDispatcher`] ([`PoolConfig::spawn_dispatcher`])
//! is the same pool behind a concurrent, shareable `submit(&self)`
//! front end with depth>1 pipelining per worker, a bounded fair queue
//! (overload rejected as [`ShardError::Overloaded`] values) and
//! graceful drain — the backend of
//! [`super::service::Service`]. The pool mechanics:
//!
//! - N `shard_worker` subprocesses are spawned **once**
//!   ([`PoolConfig::spawn`]) and kept alive across requests;
//! - requests are dispatched **round-robin** across the workers, each
//!   worker keeping one request in flight (depth-1 pipelining: a
//!   worker's next request is written the moment its previous response
//!   is read, so all workers compute concurrently and the pipe pair can
//!   never deadlock on a full buffer);
//! - the pool speaks the **v2 protocol family** (v3 when a request
//!   carries a fault spec): every request carries an ID the
//!   worker echoes (desyncs are detected, not silently misattributed),
//!   and repeat circuits travel as [`super::CircuitRef::Cached`] digest
//!   references — the pool mirrors each worker's LRU cache state, and a
//!   stale mirror costs one clean
//!   [`super::ShardResponseV2::CacheMiss`] + inline resend, never a
//!   wrong result;
//! - a worker that dies or speaks garbage is **respawned
//!   transparently** and its request retried ([`PoolConfig::with_retries`]
//!   attempts, default 1) — mid-stream worker death costs a respawn,
//!   not the stream. After a fatal error the pool restarts the affected
//!   workers, so it stays usable for the next call;
//! - every response read carries a **per-request timeout**
//!   ([`PoolConfig::with_read_timeout`], default 60 s): each worker's
//!   stdout is drained by a dedicated reader thread feeding a channel,
//!   and a worker that stalls without dying is killed, respawned and
//!   retried exactly like a dead one — exhaustion surfaces as
//!   [`ShardError::Timeout`], so a hung worker can never hang a client
//!   stream. Consecutive respawns of the same slot back off
//!   exponentially (10 ms doubling to a 1 s cap) so a crash-looping
//!   worker binary cannot spin the pool at full speed.
//!
//! # Determinism contract
//!
//! Unchanged from [`super`] — pooled evaluation is **byte-identical**
//! to unsharded and fused single-lane evaluation, for every worker
//! count, dispatch order, cache hit/miss pattern and
//! respawn history, because every work item's generator universe
//! depends only on `(seed, global index)`.

use super::{
    circuit_digest, circuit_key, decode_response_v2, encode_request_v2, read_frame, write_frame,
    ShardError, ShardRequest, ShardResponseV2, CIRCUIT_CACHE_CAPACITY,
};
use crate::system::OpticalRun;
use std::collections::VecDeque;
use std::io::{BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::Duration;

/// Default per-request response read timeout.
const DEFAULT_READ_TIMEOUT: Duration = Duration::from_secs(60);
/// Default per-worker pipeline depth of a [`PoolDispatcher`].
pub const DEFAULT_PIPELINE_DEPTH: usize = 2;
/// Default bound on a [`PoolDispatcher`]'s shared request queue.
pub const DEFAULT_QUEUE_CAP: usize = 64;
/// First respawn-backoff delay; doubles per consecutive respawn of the
/// same slot.
const RESPAWN_BACKOFF_BASE: Duration = Duration::from_millis(10);
/// Ceiling on the respawn-backoff delay.
const RESPAWN_BACKOFF_CAP: Duration = Duration::from_secs(1);

/// Configuration for a [`WorkerPool`], consumed by [`PoolConfig::spawn`].
#[derive(Debug, Clone, PartialEq)]
pub struct PoolConfig {
    worker: PathBuf,
    workers: usize,
    worker_threads: Option<usize>,
    retries: usize,
    read_timeout: Duration,
    pipeline_depth: usize,
    queue_cap: usize,
    response_delay: Option<Duration>,
    circuit_cache_capacity: Option<usize>,
}

impl PoolConfig {
    /// Configures a pool of `workers` processes (`0` is treated as `1`)
    /// of the given worker binary.
    pub fn new(worker: impl AsRef<Path>, workers: usize) -> Self {
        PoolConfig {
            worker: worker.as_ref().to_path_buf(),
            workers: workers.max(1),
            worker_threads: None,
            retries: 1,
            read_timeout: DEFAULT_READ_TIMEOUT,
            pipeline_depth: DEFAULT_PIPELINE_DEPTH,
            queue_cap: DEFAULT_QUEUE_CAP,
            response_delay: None,
            circuit_cache_capacity: None,
        }
    }

    /// Sets the per-request response read timeout (default 60 s). A
    /// worker that has not answered within this window is treated as
    /// stalled: killed, respawned and its request retried; exhausting
    /// retries surfaces [`ShardError::Timeout`]. Size it well above the
    /// slowest expected single-request evaluation.
    pub fn with_read_timeout(mut self, timeout: Duration) -> Self {
        self.read_timeout = timeout;
        self
    }

    /// Pins every worker's internal thread count by exporting
    /// [`crate::batch::THREADS_ENV`] (`OSC_THREADS`) into its
    /// environment. Results are identical either way; this bounds total
    /// CPU oversubscription.
    pub fn with_worker_threads(mut self, threads: usize) -> Self {
        self.worker_threads = Some(threads.max(1));
        self
    }

    /// Sets how many times a failed request is retried on a freshly
    /// respawned worker before the batch fails.
    pub fn with_retries(mut self, retries: usize) -> Self {
        self.retries = retries;
        self
    }

    /// Sets how many requests a [`PoolDispatcher`] keeps in flight on
    /// each worker's pipe (default 2, `0` is treated as `1`). Depth > 1
    /// hides the write→read turnaround: a worker starts decoding its
    /// next request while the dispatcher is still reading the previous
    /// response. Ignored by [`PoolConfig::spawn`] — the batch-oriented
    /// [`WorkerPool`] stays depth-1 by design (its callers block on the
    /// whole batch anyway).
    pub fn with_pipeline_depth(mut self, depth: usize) -> Self {
        self.pipeline_depth = depth.max(1);
        self
    }

    /// Bounds a [`PoolDispatcher`]'s shared request queue (default 64,
    /// `0` is treated as `1`). A submit past the cap is rejected
    /// immediately with [`ShardError::Overloaded`] — backpressure as a
    /// value, never a silent drop or an unbounded memory footprint. The
    /// cap counts *waiting* requests; up to `workers × depth` more are
    /// in flight on worker pipes.
    pub fn with_queue_cap(mut self, cap: usize) -> Self {
        self.queue_cap = cap.max(1);
        self
    }

    /// Sets every worker's circuit-cache capacity (default
    /// [`CIRCUIT_CACHE_CAPACITY`], `0` is treated as `1`) by exporting
    /// [`super::CIRCUIT_CACHE_ENV`] into its environment. The
    /// dispatcher's per-worker known-digest mirror is sized to match,
    /// so a cached reference is only ever sent for a circuit the worker
    /// can still hold. Design sweeps ([`crate::design::sweep`]) are the
    /// canonical caller: size the capacity to the sweep's working set
    /// (`sweep.designs().len()`) so every distinct circuit stays warm
    /// across probe revisits — an undersized cache costs rebuilds,
    /// never bytes.
    pub fn with_circuit_cache_capacity(mut self, capacity: usize) -> Self {
        self.circuit_cache_capacity = Some(capacity.max(1));
        self
    }

    /// The effective worker-side circuit-cache capacity.
    fn cache_capacity(&self) -> usize {
        self.circuit_cache_capacity
            .unwrap_or(CIRCUIT_CACHE_CAPACITY)
    }

    /// Test hook: exports [`super::SERVE_DELAY_ENV`] to every worker so
    /// each response is delayed by `delay` — a deterministically *slow*
    /// worker, byte-identical to a fast one. Used to pin pipelining
    /// timeout-attribution and drain semantics; not for production.
    #[doc(hidden)]
    pub fn with_response_delay(mut self, delay: Duration) -> Self {
        self.response_delay = Some(delay);
        self
    }

    /// Spawns the workers and returns the live pool.
    ///
    /// # Errors
    ///
    /// [`ShardError::Spawn`] when any worker process cannot be launched
    /// (the `shard` field names the worker slot).
    pub fn spawn(self) -> Result<WorkerPool, ShardError> {
        let slots = self.spawn_slots()?;
        let streaks = vec![0u32; slots.len()];
        Ok(WorkerPool {
            config: self,
            slots,
            respawn_streaks: streaks,
            next_request_id: 1,
        })
    }

    /// Spawns the workers and returns a concurrent [`PoolDispatcher`]:
    /// the serving-side pool front end, safe to share across threads,
    /// with depth-[`PoolConfig::with_pipeline_depth`] pipelining per
    /// worker and a bounded queue
    /// ([`PoolConfig::with_queue_cap`]).
    ///
    /// # Errors
    ///
    /// [`ShardError::Spawn`] as for [`PoolConfig::spawn`].
    pub fn spawn_dispatcher(self) -> Result<PoolDispatcher, ShardError> {
        let slots = self.spawn_slots()?;
        let shared = Arc::new(DispatcherShared {
            state: Mutex::new(DispatchState {
                queue: VecDeque::new(),
                draining: false,
            }),
            ready: Condvar::new(),
            queue_cap: self.queue_cap,
        });
        let workers = slots.len();
        let config = Arc::new(self);
        let pumps = slots
            .into_iter()
            .enumerate()
            .map(|(w, slot)| {
                let shared = Arc::clone(&shared);
                let config = Arc::clone(&config);
                std::thread::Builder::new()
                    .name(format!("osc-pool-pump-{w}"))
                    .spawn(move || pump(slot, &shared, &config))
                    .expect("spawning a dispatcher pump thread")
            })
            .collect();
        Ok(PoolDispatcher {
            shared,
            pumps,
            workers,
        })
    }

    /// Spawns one slot per configured worker, burning retries on
    /// transient spawn failures (EAGAIN under momentary pid/fd
    /// pressure).
    fn spawn_slots(&self) -> Result<Vec<WorkerSlot>, ShardError> {
        let mut slots = Vec::with_capacity(self.workers);
        for slot in 0..self.workers {
            let mut attempt = 0usize;
            let spawned = loop {
                match spawn_slot(self) {
                    Ok(s) => break s,
                    Err(detail) if attempt >= self.retries => {
                        return Err(ShardError::Spawn {
                            shard: slot,
                            detail,
                        })
                    }
                    Err(_) => attempt += 1,
                }
            };
            slots.push(spawned);
        }
        Ok(slots)
    }
}

/// What the reader thread hands back per frame: a payload, a clean EOF
/// (`None`), or the transport error that ended the stream.
type ReadEvent = Result<Option<Vec<u8>>, String>;

/// One live worker subprocess plus the pool's mirror of its LRU
/// circuit-cache contents.
#[derive(Debug)]
struct WorkerSlot {
    child: Child,
    stdin: ChildStdin,
    /// Frames from the dedicated reader thread draining this worker's
    /// stdout — the indirection that lets [`WorkerPool::read_response`]
    /// wait with a timeout instead of blocking forever on a stalled
    /// worker.
    frames: mpsc::Receiver<ReadEvent>,
    reader: Option<std::thread::JoinHandle<()>>,
    /// `(digest, full circuit key)` pairs this worker's cache is
    /// believed to hold, most recently used first, truncated to
    /// [`CIRCUIT_CACHE_CAPACITY`] exactly as the worker truncates. The
    /// full key is kept so a cached reference is only ever sent for
    /// the exact circuit last shipped inline under that digest —
    /// digest collisions fall back to inline, mirroring the worker's
    /// one-circuit-per-digest invariant. Advisory only: drift is
    /// healed by the cache-miss fallback.
    known: VecDeque<(u64, Vec<u8>)>,
    /// Capacity of the worker cache this mirror shadows.
    cache_capacity: usize,
}

/// Records `(digest, key)` as the most recently used entry of a
/// worker-cache mirror, exactly as the worker's own LRU does (one
/// entry per digest, move to front, truncate at `capacity` — the
/// mirror must be sized exactly like the cache it shadows, or it
/// would promise circuits the worker has already evicted). Shared with
/// [`super::service::ServiceClient`], whose mirror of the service's
/// per-connection cache follows the same algorithm.
pub(crate) fn note_digest(
    known: &mut VecDeque<(u64, Vec<u8>)>,
    digest: u64,
    key: Vec<u8>,
    capacity: usize,
) {
    known.retain(|(d, _)| *d != digest);
    known.push_front((digest, key));
    known.truncate(capacity);
}

impl Drop for WorkerSlot {
    fn drop(&mut self) {
        // `Child` does not reap on drop: kill + wait, or the worker
        // lingers as a zombie for the life of this process. This runs
        // on every exit path — normal drop, respawn, and unwinding
        // through a panicking caller — so the pool never leaks child
        // processes.
        let _ = self.child.kill();
        let _ = self.child.wait();
        // The kill closed the worker's stdout, so the reader thread
        // sees EOF (or an error) promptly and exits; join it to avoid
        // accumulating detached threads across respawns.
        if let Some(reader) = self.reader.take() {
            let _ = reader.join();
        }
    }
}

fn spawn_slot(config: &PoolConfig) -> Result<WorkerSlot, String> {
    let mut command = Command::new(&config.worker);
    command
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null());
    if let Some(threads) = config.worker_threads {
        command.env(crate::batch::THREADS_ENV, threads.to_string());
    }
    if let Some(delay) = config.response_delay {
        command.env(super::SERVE_DELAY_ENV, delay.as_millis().to_string());
    }
    if let Some(capacity) = config.circuit_cache_capacity {
        command.env(super::CIRCUIT_CACHE_ENV, capacity.to_string());
    }
    let mut child = command
        .spawn()
        .map_err(|e| format!("spawning {}: {e}", config.worker.display()))?;
    let stdin = child.stdin.take().expect("stdin was piped");
    let mut stdout = BufReader::new(child.stdout.take().expect("stdout was piped"));
    // The reader thread owns the stdout pipe and forwards every frame;
    // it ends on EOF, a transport error, or the receiver (the slot)
    // going away.
    let (tx, frames) = mpsc::channel();
    let reader = std::thread::spawn(move || loop {
        match read_frame(&mut stdout) {
            Ok(Some(payload)) => {
                if tx.send(Ok(Some(payload))).is_err() {
                    return;
                }
            }
            Ok(None) => {
                let _ = tx.send(Ok(None));
                return;
            }
            Err(e) => {
                let _ = tx.send(Err(format!("reading response: {e}")));
                return;
            }
        }
    });
    Ok(WorkerSlot {
        child,
        stdin,
        frames,
        reader: Some(reader),
        known: VecDeque::new(),
        cache_capacity: config.cache_capacity(),
    })
}

/// One request currently awaiting its response on a worker.
struct InFlight {
    /// Index into the call's request slice.
    req: usize,
    /// The ID the response must echo.
    id: u64,
    /// Transport attempts already consumed by this request.
    attempts: usize,
    /// Whether a cache-miss inline fallback already happened on this
    /// attempt — a second miss on the same attempt is a protocol
    /// violation, not a retry loop.
    inline_retry_done: bool,
}

/// A long-lived pool of `shard_worker` subprocesses serving
/// [`ShardRequest`]s over the v2 wire protocol.
///
/// Construct with [`PoolConfig::spawn`]; drive with
/// [`super::Executor::Pool`] (a single job is planned across the live
/// workers by a [`super::ShardPlan`]) or [`WorkerPool::run_requests`]
/// for pre-built request sets. Dropping the pool kills and reaps every
/// worker.
#[derive(Debug)]
pub struct WorkerPool {
    config: PoolConfig,
    slots: Vec<WorkerSlot>,
    /// Consecutive respawns per slot since its last clean response —
    /// drives the exponential backoff, reset the moment a slot answers.
    respawn_streaks: Vec<u32>,
    next_request_id: u64,
}

/// How a request attempt failed at the transport level. Timeouts are
/// tracked separately so exhausting retries on a stalled (rather than
/// dead) worker surfaces as [`ShardError::Timeout`].
enum Failure {
    Transport(String),
    Timeout(String),
}

impl Failure {
    fn into_shard_error(self, shard: usize) -> ShardError {
        match self {
            Failure::Transport(detail) => ShardError::Worker { shard, detail },
            Failure::Timeout(detail) => ShardError::Timeout { shard, detail },
        }
    }
}

impl WorkerPool {
    /// The number of live worker processes.
    pub fn workers(&self) -> usize {
        self.slots.len()
    }

    /// The configured worker binary.
    pub fn worker(&self) -> &Path {
        &self.config.worker
    }

    /// OS process IDs of the current workers, in slot order — exposed
    /// so tests (and operators) can target a specific worker, e.g. to
    /// exercise kill-mid-stream recovery.
    pub fn worker_pids(&self) -> Vec<u32> {
        self.slots.iter().map(|s| s.child.id()).collect()
    }

    /// Poisons the pool's cache mirror: every worker is assumed to
    /// hold the given circuit, so the next matching request ships as a
    /// cached reference even if the worker has never seen it. A real
    /// worker answers with a cache miss and the pool falls back to an
    /// inline resend — this hook exists to let tests pin that
    /// fallback.
    #[doc(hidden)]
    pub fn assume_cached(&mut self, params: &crate::params::CircuitParams, coeffs: &[f64]) {
        let digest = circuit_digest(params, coeffs);
        let key = circuit_key(params, coeffs);
        for slot in &mut self.slots {
            note_digest(&mut slot.known, digest, key.clone(), slot.cache_capacity);
        }
    }

    /// Runs a set of requests across the pool — request `i` is expected
    /// to produce `expected[i]` runs — and returns the per-request runs
    /// in request order. Requests are assigned round-robin (request `i`
    /// to worker `i % workers`), every worker keeps one request in
    /// flight, and failed requests are transparently retried on
    /// respawned workers.
    ///
    /// # Errors
    ///
    /// [`ShardError`] naming the failing request index in its `shard`
    /// field. After an error the pool has restarted the affected
    /// workers and remains usable.
    ///
    /// # Panics
    ///
    /// Panics if `requests` and `expected` differ in length.
    pub fn run_requests(
        &mut self,
        requests: &[ShardRequest],
        expected: &[usize],
    ) -> Result<Vec<Vec<OpticalRun>>, ShardError> {
        assert_eq!(
            requests.len(),
            expected.len(),
            "one expected count per request"
        );
        // Fail oversized shards as plan errors before any work: a
        // request (or its response) that cannot be framed would
        // otherwise cost a full evaluation per retry and surface as an
        // opaque transport error.
        for (req, &exp) in requests.iter().zip(expected) {
            super::check_frame_bounds(req, exp)?;
        }
        let n = requests.len();
        if n == 0 {
            return Ok(Vec::new());
        }
        let workers = self.slots.len();
        // queues[w] = this worker's request indices, in dispatch order.
        let queues: Vec<Vec<usize>> = (0..workers)
            .map(|w| (w..n).step_by(workers).collect())
            .collect();
        let mut cursor = vec![0usize; workers];
        let mut in_flight: Vec<Option<InFlight>> = (0..workers).map(|_| None).collect();
        let mut outputs: Vec<Option<Vec<OpticalRun>>> = (0..n).map(|_| None).collect();

        let result = self.drive(
            requests,
            expected,
            &queues,
            &mut cursor,
            &mut in_flight,
            &mut outputs,
        );
        if result.is_err() {
            // Workers with a request still in flight hold unread frames
            // (or broken pipes); restart them so the pool stays clean
            // for the next call.
            for (w, fl) in in_flight.iter_mut().enumerate() {
                if fl.take().is_some() {
                    let _ = self.respawn(w);
                }
            }
            result?;
        }
        Ok(outputs
            .into_iter()
            .map(|o| o.expect("every request settled"))
            .collect())
    }

    /// The dispatch/settle loop of [`WorkerPool::run_requests`].
    fn drive(
        &mut self,
        requests: &[ShardRequest],
        expected: &[usize],
        queues: &[Vec<usize>],
        cursor: &mut [usize],
        in_flight: &mut [Option<InFlight>],
        outputs: &mut [Option<Vec<OpticalRun>>],
    ) -> Result<(), ShardError> {
        let workers = self.slots.len();
        let mut done = 0usize;
        // Prime every worker with its first request; all workers then
        // compute concurrently.
        for w in 0..workers {
            self.send_next(w, requests, queues, cursor, in_flight)?;
        }
        while done < requests.len() {
            for w in 0..workers {
                let Some(fl) = in_flight[w].take() else {
                    continue;
                };
                let runs = self.settle(w, fl, requests, expected, &mut in_flight[w])?;
                if let Some((req, runs)) = runs {
                    outputs[req] = Some(runs);
                    done += 1;
                    self.send_next(w, requests, queues, cursor, in_flight)?;
                }
            }
        }
        Ok(())
    }

    /// Sends worker `w` its next queued request, if any, retrying on a
    /// respawned worker when the send itself fails.
    fn send_next(
        &mut self,
        w: usize,
        requests: &[ShardRequest],
        queues: &[Vec<usize>],
        cursor: &mut [usize],
        in_flight: &mut [Option<InFlight>],
    ) -> Result<(), ShardError> {
        let Some(&req_idx) = queues[w].get(cursor[w]) else {
            return Ok(());
        };
        cursor[w] += 1;
        let mut attempts = 0usize;
        loop {
            let id = self.next_request_id;
            self.next_request_id += 1;
            match self.send(w, &requests[req_idx], id, false) {
                Ok(()) => {
                    in_flight[w] = Some(InFlight {
                        req: req_idx,
                        id,
                        attempts,
                        inline_retry_done: false,
                    });
                    return Ok(());
                }
                Err(failure) => {
                    attempts += 1;
                    self.fail_or_respawn(w, req_idx, attempts, Failure::Transport(failure))?;
                }
            }
        }
    }

    /// Writes one request frame to worker `w`, as a cached reference
    /// when the pool's mirror says the worker holds the circuit (unless
    /// `force_inline`), inline otherwise.
    fn send(
        &mut self,
        w: usize,
        req: &ShardRequest,
        id: u64,
        force_inline: bool,
    ) -> Result<(), String> {
        slot_send(&mut self.slots[w], req, id, force_inline)
    }

    /// Reads and interprets the response for `fl` on worker `w`.
    /// Returns `Ok(Some(..))` when the request settled with runs,
    /// `Ok(None)` when it was re-dispatched (cache-miss fallback or
    /// respawn retry — `slot_in_flight` then holds the new in-flight
    /// state), and `Err` when the batch fails.
    fn settle(
        &mut self,
        w: usize,
        fl: InFlight,
        requests: &[ShardRequest],
        expected: &[usize],
        slot_in_flight: &mut Option<InFlight>,
    ) -> Result<Option<(usize, Vec<OpticalRun>)>, ShardError> {
        let failure = match self.read_response(w, &fl, expected[fl.req]) {
            Ok(Settled::Runs(runs)) => return Ok(Some((fl.req, runs))),
            Ok(Settled::CacheMiss { digest }) if !fl.inline_retry_done => {
                // The worker is alive and honest: our mirror was stale.
                // Drop the digest and resend inline on the same attempt.
                self.slots[w].known.retain(|(d, _)| *d != digest);
                let id = self.next_request_id;
                self.next_request_id += 1;
                match self.send(w, &requests[fl.req], id, true) {
                    Ok(()) => {
                        *slot_in_flight = Some(InFlight {
                            req: fl.req,
                            id,
                            attempts: fl.attempts,
                            inline_retry_done: true,
                        });
                        return Ok(None);
                    }
                    Err(failure) => Failure::Transport(failure),
                }
            }
            Ok(Settled::CacheMiss { digest }) => Failure::Transport(format!(
                "worker reported a cache miss for digest {digest:#018x} on an inline request"
            )),
            Ok(Settled::Remote(message)) => {
                // The worker evaluated the request and rejected it;
                // retrying cannot change a deterministic answer.
                return Err(ShardError::Remote {
                    shard: fl.req,
                    detail: message,
                });
            }
            Err(failure) => failure,
        };
        // Transport failure: burn one attempt per respawn + resend until
        // the request is back in flight or out of retries.
        let mut attempts = fl.attempts;
        let mut failure = failure;
        loop {
            attempts += 1;
            self.fail_or_respawn(w, fl.req, attempts, failure)?;
            let id = self.next_request_id;
            self.next_request_id += 1;
            // Inline by construction — the respawn cleared the mirror.
            match self.send(w, &requests[fl.req], id, false) {
                Ok(()) => {
                    *slot_in_flight = Some(InFlight {
                        req: fl.req,
                        id,
                        attempts,
                        inline_retry_done: false,
                    });
                    return Ok(None);
                }
                Err(f) => failure = Failure::Transport(f),
            }
        }
    }

    /// Converts a transport failure into the final [`ShardError`] if
    /// the request is out of retries, or respawns worker `w` so the
    /// caller can try again. A failed respawn supersedes the original
    /// failure (as [`ShardError::Spawn`]).
    fn fail_or_respawn(
        &mut self,
        w: usize,
        req: usize,
        attempts: usize,
        failure: Failure,
    ) -> Result<(), ShardError> {
        if attempts > self.config.retries {
            // Leave a fresh worker behind (best effort) so the pool
            // stays usable after the error surfaces.
            let _ = self.respawn(w);
            return Err(failure.into_shard_error(req));
        }
        self.respawn(w)
            .map_err(|detail| ShardError::Spawn { shard: req, detail })
    }

    /// Kills and replaces worker `w` with a fresh process (empty cache
    /// mirror), backing off exponentially (base 10 ms, cap 1 s) on
    /// consecutive respawns of the same slot so a crash-looping worker
    /// binary cannot spin the pool at full speed.
    fn respawn(&mut self, w: usize) -> Result<(), String> {
        let streak = self.respawn_streaks[w];
        if streak > 0 {
            let backoff = RESPAWN_BACKOFF_BASE
                .saturating_mul(1u32 << streak.saturating_sub(1).min(16))
                .min(RESPAWN_BACKOFF_CAP);
            std::thread::sleep(backoff);
        }
        self.respawn_streaks[w] = streak.saturating_add(1);
        let fresh = spawn_slot(&self.config)?;
        // Dropping the old slot kills + reaps the old process.
        self.slots[w] = fresh;
        Ok(())
    }

    /// Reads one response frame from worker `w` (waiting at most the
    /// configured read timeout) and checks it against the in-flight
    /// request.
    fn read_response(
        &mut self,
        w: usize,
        fl: &InFlight,
        expected: usize,
    ) -> Result<Settled, Failure> {
        slot_read(
            &mut self.slots[w],
            fl.id,
            expected,
            self.config.read_timeout,
            &mut self.respawn_streaks[w],
        )
    }
}

/// Writes one request frame to a slot, as a cached reference when the
/// slot's mirror says the worker holds the circuit (unless
/// `force_inline`), inline otherwise.
fn slot_send(
    slot: &mut WorkerSlot,
    req: &ShardRequest,
    id: u64,
    force_inline: bool,
) -> Result<(), String> {
    let digest = circuit_digest(&req.params, &req.coeffs);
    let key = circuit_key(&req.params, &req.coeffs);
    // Cached only on a full-key match: a digest collision with a
    // previously shipped circuit must fall back to inline, or the
    // worker would resolve the reference to the wrong system.
    let cached = !force_inline && slot.known.iter().any(|(d, k)| *d == digest && *k == key);
    let frame = encode_request_v2(req, id, cached.then_some(digest));
    write_frame(&mut slot.stdin, &frame)
        .and_then(|()| slot.stdin.flush())
        .map_err(|e| format!("writing request: {e}"))?;
    note_digest(&mut slot.known, digest, key, slot.cache_capacity);
    Ok(())
}

/// Reads one response frame from a slot (waiting at most `timeout`)
/// and checks it against the oldest in-flight request id. A clean
/// frame — any clean frame — resets the slot's respawn streak.
fn slot_read(
    slot: &mut WorkerSlot,
    expected_id: u64,
    expected_runs: usize,
    timeout: Duration,
    streak: &mut u32,
) -> Result<Settled, Failure> {
    let payload = match slot.frames.recv_timeout(timeout) {
        Ok(Ok(Some(payload))) => payload,
        Ok(Ok(None)) => {
            let status = slot
                .child
                .try_wait()
                .map(|s| match s {
                    Some(status) => status.to_string(),
                    None => "still running".to_string(),
                })
                .unwrap_or_else(|e| format!("unknown ({e})"));
            return Err(Failure::Transport(format!(
                "worker closed its pipe without responding ({status})"
            )));
        }
        Ok(Err(e)) => return Err(Failure::Transport(e)),
        Err(mpsc::RecvTimeoutError::Timeout) => {
            return Err(Failure::Timeout(format!("no response within {timeout:?}")));
        }
        Err(mpsc::RecvTimeoutError::Disconnected) => {
            return Err(Failure::Transport(
                "worker reader thread exited without a final event".to_string(),
            ));
        }
    };
    // Any clean frame proves the worker is alive and making
    // progress; the slot's respawn backoff starts over.
    *streak = 0;
    let response = match decode_response_v2(&payload) {
        Ok(response) => response,
        Err(e) => {
            return Err(Failure::Transport(format!("malformed response: {e}")));
        }
    };
    let (request_id, settled) = match response {
        ShardResponseV2::Runs { request_id, runs } => {
            if runs.len() != expected_runs {
                return Err(Failure::Transport(format!(
                    "worker returned {} runs, expected {expected_runs}",
                    runs.len()
                )));
            }
            (request_id, Settled::Runs(runs))
        }
        ShardResponseV2::Error {
            request_id,
            message,
        } => (request_id, Settled::Remote(message)),
        ShardResponseV2::CacheMiss { request_id, digest } => {
            (request_id, Settled::CacheMiss { digest })
        }
    };
    if request_id != expected_id {
        return Err(Failure::Transport(format!(
            "response echoed request id {request_id}, expected {expected_id}"
        )));
    }
    Ok(settled)
}

/// What a cleanly-read response settled to.
enum Settled {
    Runs(Vec<OpticalRun>),
    Remote(String),
    CacheMiss { digest: u64 },
}

// ---------------------------------------------------------------------
// Concurrent dispatcher: the serving-side pool front end
// ---------------------------------------------------------------------

/// One submitted request awaiting a pump thread (or its response).
struct DispatchJob {
    request: ShardRequest,
    expected: usize,
    reply: mpsc::Sender<Result<Vec<OpticalRun>, ShardError>>,
}

/// The dispatcher's shared FIFO plus its lifecycle flag.
struct DispatchState {
    queue: VecDeque<DispatchJob>,
    draining: bool,
}

struct DispatcherShared {
    state: Mutex<DispatchState>,
    /// Signalled when the queue gains work or draining begins.
    ready: Condvar,
    queue_cap: usize,
}

/// A concurrent, shareable front end over a worker pool — the serving
/// counterpart of the batch-oriented [`WorkerPool`].
///
/// Built by [`PoolConfig::spawn_dispatcher`]. Any number of threads
/// call [`PoolDispatcher::submit`] concurrently (`&self`); requests
/// enter one shared FIFO (fair: strict arrival order) and each worker
/// is driven by a dedicated *pump* thread that keeps up to
/// [`PoolConfig::with_pipeline_depth`] requests in flight on its pipe.
/// The queue is bounded ([`PoolConfig::with_queue_cap`]): a submit past
/// the cap returns [`ShardError::Overloaded`] immediately — the
/// backpressure contract is reject-with-error-value, never a silent
/// drop or an unbounded queue.
///
/// # Pipelining and timeout attribution
///
/// With depth > 1 a worker may hold several outstanding requests, but
/// responses on one pipe arrive strictly in request order, so the pump
/// always awaits the **oldest** in-flight id, and the read deadline
/// ([`PoolConfig::with_read_timeout`]) restarts at every response: the
/// deadline bounds *head-of-line service time*, not time since submit.
/// A slow response on one request id can therefore never be
/// misattributed as a timeout of a different in-flight request — each
/// request gets its own full window once it reaches the head.
///
/// # Failure semantics
///
/// A transport failure or timeout invalidates the worker's whole
/// pipeline: the pump kills + respawns the worker (same exponential
/// backoff as [`WorkerPool`]), charges **one attempt to the
/// head-of-line request only** — failing it as an error value once it
/// is out of [`PoolConfig::with_retries`] — and replays the surviving
/// in-flight requests, in order, on the fresh worker for free. Worker
/// cache misses are healed in place: the head is resent inline and
/// rotates to the back of the pipeline (its response now arrives after
/// the others). Remote errors settle just that request; the worker
/// stays up.
///
/// # Drain
///
/// [`PoolDispatcher::drain`] (also the `Drop` path) stops accepting
/// new submits ([`ShardError::Draining`]), lets every queued and
/// in-flight request finish, then joins the pumps and reaps the
/// workers.
///
/// Results are byte-identical to every other serving mode for any
/// worker count, depth, queue cap and respawn history — work-item
/// universes depend only on `(seed, global index)`.
pub struct PoolDispatcher {
    shared: Arc<DispatcherShared>,
    pumps: Vec<std::thread::JoinHandle<()>>,
    workers: usize,
}

impl std::fmt::Debug for PoolDispatcher {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PoolDispatcher")
            .field("workers", &self.workers)
            .field("queue_cap", &self.shared.queue_cap)
            .finish_non_exhaustive()
    }
}

impl PoolDispatcher {
    /// The number of worker processes (= pump threads).
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Requests currently waiting in the shared queue (excluding those
    /// already in flight on worker pipes).
    pub fn queued(&self) -> usize {
        self.shared
            .state
            .lock()
            .expect("dispatcher lock")
            .queue
            .len()
    }

    /// Evaluates one request through the pool, blocking until its
    /// response (or rejection) arrives. Safe to call from any number of
    /// threads concurrently.
    ///
    /// # Errors
    ///
    /// [`ShardError::Overloaded`] when the queue is at cap (the request
    /// was not evaluated — retry later), [`ShardError::Draining`] when
    /// the dispatcher is shutting down, [`ShardError::InvalidPlan`]
    /// when the request or its response cannot be framed, and the usual
    /// transport/remote errors once dispatched (the `shard` field is
    /// always 0 — a dispatcher request has no plan index).
    pub fn submit(&self, request: ShardRequest) -> Result<Vec<OpticalRun>, ShardError> {
        let expected = request.job.expected_runs();
        super::check_frame_bounds(&request, expected)?;
        let (reply, answer) = mpsc::channel();
        {
            let mut state = self.shared.state.lock().expect("dispatcher lock");
            if state.draining {
                return Err(ShardError::Draining);
            }
            if state.queue.len() >= self.shared.queue_cap {
                return Err(ShardError::Overloaded {
                    queued: state.queue.len(),
                    cap: self.shared.queue_cap,
                });
            }
            state.queue.push_back(DispatchJob {
                request,
                expected,
                reply,
            });
        }
        self.shared.ready.notify_all();
        answer.recv().unwrap_or_else(|_| {
            Err(ShardError::Worker {
                shard: 0,
                detail: "dispatcher pump exited before answering".to_string(),
            })
        })
    }

    /// Graceful shutdown: already-queued and in-flight requests finish
    /// (new submits are refused with [`ShardError::Draining`]), then
    /// the pumps are joined and every worker killed + reaped. Dropping
    /// the dispatcher drains it the same way.
    pub fn drain(self) {
        // Drop runs begin_drain.
    }

    fn begin_drain(&mut self) {
        {
            let mut state = self.shared.state.lock().expect("dispatcher lock");
            state.draining = true;
        }
        self.shared.ready.notify_all();
        for pump in self.pumps.drain(..) {
            let _ = pump.join();
        }
    }
}

impl Drop for PoolDispatcher {
    fn drop(&mut self) {
        self.begin_drain();
    }
}

/// One request written to a pump's worker, awaiting its response.
struct Pending {
    job: DispatchJob,
    id: u64,
    attempts: usize,
    inline_retry_done: bool,
}

/// The per-worker dispatcher loop: refill the pipeline from the shared
/// FIFO up to the configured depth, then settle the oldest in-flight
/// response; exit once draining *and* idle. Owns its [`WorkerSlot`], so
/// pump exit kills + reaps the worker.
fn pump(mut slot: WorkerSlot, shared: &DispatcherShared, config: &PoolConfig) {
    let mut inflight: VecDeque<Pending> = VecDeque::new();
    let mut streak = 0u32;
    let mut next_id: u64 = 1;
    loop {
        let fresh: Vec<DispatchJob> = {
            let mut state = shared.state.lock().expect("dispatcher lock");
            loop {
                if !state.queue.is_empty() || !inflight.is_empty() {
                    let take = config
                        .pipeline_depth
                        .saturating_sub(inflight.len())
                        .min(state.queue.len());
                    break state.queue.drain(..take).collect();
                }
                if state.draining {
                    return;
                }
                state = shared.ready.wait(state).expect("dispatcher lock");
            }
        };
        for job in fresh {
            let id = next_id;
            next_id += 1;
            let pending = Pending {
                job,
                id,
                attempts: 0,
                inline_retry_done: false,
            };
            let sent = slot_send(&mut slot, &pending.job.request, id, false);
            inflight.push_back(pending);
            if let Err(e) = sent {
                recover(
                    &mut slot,
                    &mut inflight,
                    &mut streak,
                    &mut next_id,
                    config,
                    Failure::Transport(e),
                );
            }
        }
        if inflight.is_empty() {
            continue;
        }
        settle_head(&mut slot, &mut inflight, &mut streak, &mut next_id, config);
    }
}

/// Settles the oldest in-flight request on this pump's worker: reply on
/// runs or remote errors, heal cache misses by an inline resend that
/// rotates the head to the back of the pipeline, and hand transport
/// failures/timeouts to [`recover`].
fn settle_head(
    slot: &mut WorkerSlot,
    inflight: &mut VecDeque<Pending>,
    streak: &mut u32,
    next_id: &mut u64,
    config: &PoolConfig,
) {
    let head = inflight.front().expect("settle_head on a live pipeline");
    let failure = match slot_read(
        slot,
        head.id,
        head.job.expected,
        config.read_timeout,
        streak,
    ) {
        Ok(Settled::Runs(runs)) => {
            let head = inflight.pop_front().expect("head exists");
            // A gone receiver means the client vanished mid-request;
            // the work is done and the worker is healthy either way.
            let _ = head.job.reply.send(Ok(runs));
            return;
        }
        Ok(Settled::Remote(message)) => {
            // The worker evaluated and rejected; retrying cannot change
            // a deterministic answer.
            let head = inflight.pop_front().expect("head exists");
            let _ = head.job.reply.send(Err(ShardError::Remote {
                shard: 0,
                detail: message,
            }));
            return;
        }
        Ok(Settled::CacheMiss { digest }) if !head.inline_retry_done => {
            // Stale mirror: drop the digest, resend inline. The answer
            // now arrives after the rest of the pipeline, so the head
            // rotates to the back — response order follows send order.
            slot.known.retain(|(d, _)| *d != digest);
            let mut head = inflight.pop_front().expect("head exists");
            head.id = *next_id;
            *next_id += 1;
            head.inline_retry_done = true;
            match slot_send(slot, &head.job.request, head.id, true) {
                Ok(()) => {
                    inflight.push_back(head);
                    return;
                }
                Err(e) => {
                    // Restore pipeline order before recovering: the
                    // head is still the oldest unanswered request.
                    inflight.push_front(head);
                    Failure::Transport(e)
                }
            }
        }
        Ok(Settled::CacheMiss { digest }) => Failure::Transport(format!(
            "worker reported a cache miss for digest {digest:#018x} on an inline request"
        )),
        Err(failure) => failure,
    };
    recover(slot, inflight, streak, next_id, config, failure);
}

/// Worker-level failure recovery for a pump: kill + respawn the worker
/// (exponential backoff via the slot's streak), charge one attempt to
/// the **head-of-line** request — failing it as an error value once out
/// of retries — and replay every surviving in-flight request, in order
/// and for free, on the fresh worker. Only the head pays per failure,
/// so a deep pipeline cannot burn one request's retries on a
/// neighbor's misfortune.
fn recover(
    slot: &mut WorkerSlot,
    inflight: &mut VecDeque<Pending>,
    streak: &mut u32,
    next_id: &mut u64,
    config: &PoolConfig,
    mut failure: Failure,
) {
    'respawn: loop {
        if let Some(head) = inflight.front_mut() {
            head.attempts += 1;
            if head.attempts > config.retries {
                let failed = inflight.pop_front().expect("head exists");
                // `failure` is moved here; every path that loops back
                // assigns a fresh one first, so the *next* head is
                // charged with its own failure, never a stale clone.
                let _ = failed.job.reply.send(Err(failure.into_shard_error(0)));
            }
        }
        if *streak > 0 {
            let backoff = RESPAWN_BACKOFF_BASE
                .saturating_mul(1u32 << streak.saturating_sub(1).min(16))
                .min(RESPAWN_BACKOFF_CAP);
            std::thread::sleep(backoff);
        }
        *streak = streak.saturating_add(1);
        match spawn_slot(config) {
            // Dropping the old slot kills + reaps the old process.
            Ok(fresh) => *slot = fresh,
            Err(detail) => {
                if inflight.is_empty() {
                    // Nothing to answer; the next job retries the spawn
                    // (and pays for it) when it arrives.
                    return;
                }
                failure = Failure::Transport(format!("respawning worker: {detail}"));
                continue 'respawn;
            }
        }
        // Replay the surviving pipeline oldest-first on the fresh
        // worker — inline by construction, its cache mirror is empty.
        for pending in inflight.iter_mut() {
            let id = *next_id;
            *next_id += 1;
            pending.id = id;
            pending.inline_retry_done = false;
            if let Err(e) = slot_send(slot, &pending.job.request, id, false) {
                failure = Failure::Transport(e);
                continue 'respawn;
            }
        }
        return;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_clamps_and_builds() {
        let cfg = PoolConfig::new("worker", 0)
            .with_worker_threads(0)
            .with_retries(2)
            .with_pipeline_depth(0)
            .with_queue_cap(0);
        assert_eq!(cfg.workers, 1, "0 workers → 1");
        assert_eq!(cfg.worker_threads, Some(1), "0 threads → 1");
        assert_eq!(cfg.retries, 2);
        assert_eq!(cfg.pipeline_depth, 1, "0 depth → 1");
        assert_eq!(cfg.queue_cap, 1, "0 cap → 1");
        let defaults = PoolConfig::new("worker", 2);
        assert_eq!(defaults.pipeline_depth, DEFAULT_PIPELINE_DEPTH);
        assert_eq!(defaults.queue_cap, DEFAULT_QUEUE_CAP);
        assert_eq!(defaults.response_delay, None);
    }

    #[test]
    fn spawn_failure_is_a_value() {
        let err = PoolConfig::new("/nonexistent/worker/binary", 2)
            .spawn()
            .unwrap_err();
        assert!(matches!(err, ShardError::Spawn { shard: 0, .. }), "{err}");
    }

    #[test]
    fn dispatcher_spawn_failure_is_a_value() {
        let err = PoolConfig::new("/nonexistent/worker/binary", 2)
            .spawn_dispatcher()
            .unwrap_err();
        assert!(matches!(err, ShardError::Spawn { shard: 0, .. }), "{err}");
    }

    #[test]
    fn known_digest_mirror_is_lru_bounded() {
        // The mirror must track exactly what the worker's LRU does:
        // move-to-front on reuse, truncate at capacity.
        let mut known = VecDeque::new();
        for d in 0..CIRCUIT_CACHE_CAPACITY as u64 + 3 {
            note_digest(&mut known, d, vec![d as u8], CIRCUIT_CACHE_CAPACITY);
        }
        assert_eq!(known.len(), CIRCUIT_CACHE_CAPACITY);
        assert_eq!(known[0].0, CIRCUIT_CACHE_CAPACITY as u64 + 2);
        // Reusing an old digest moves it to the front without growing —
        // and a re-ship under the same digest replaces the stored key,
        // keeping one entry per digest.
        let (tail, _) = known.back().unwrap().clone();
        note_digest(&mut known, tail, vec![0xFF], CIRCUIT_CACHE_CAPACITY);
        assert_eq!(known[0], (tail, vec![0xFF]));
        assert_eq!(known.len(), CIRCUIT_CACHE_CAPACITY);
        assert_eq!(known.iter().filter(|(d, _)| *d == tail).count(), 1);
        // A non-default capacity bounds the mirror the same way.
        let mut small = VecDeque::new();
        for d in 0..5u64 {
            note_digest(&mut small, d, vec![d as u8], 2);
        }
        assert_eq!(small.len(), 2);
        assert_eq!(small[0].0, 4);
        assert_eq!(small[1].0, 3);
    }
}
