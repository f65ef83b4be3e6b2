//! TCP front door for the worker pool: many client connections, one
//! [`PoolDispatcher`].
//!
//! A [`Service`] binds a `std::net::TcpListener` and serves each
//! accepted connection on its own thread (std-only, offline-safe —
//! no async runtime). Connections speak the exact framed v2/v3 wire
//! protocol of [`super`] (see the *Service framing* section of the
//! [`super`] module doc for the connection lifecycle, per-connection
//! version negotiation, overload and drain rules); every decoded
//! request is submitted to the shared dispatcher, which multiplexes
//! all connections onto the worker processes with pipelining, fair
//! FIFO scheduling and bounded backpressure.
//!
//! The serving-scale story rests on the determinism contract: a
//! request's result depends only on its own bytes (circuit, seed,
//! stream length, fault spec, job), never on which worker, which
//! connection, or which service *instance* evaluates it — so replicas
//! are interchangeable and any byte-level divergence between two
//! instances is a bug. `bench/tests/service_soak.rs` and the CI
//! `service-soak` job pin exactly that.
//!
//! [`ServiceClient`] is the matching blocking client: framed requests
//! over one connection, circuit-digest references with transparent
//! inline fallback on a cache miss (closed-loop), plus a split
//! send/read surface for open-loop load generation.

use super::pool::{note_digest, PoolDispatcher};
use super::{
    circuit_digest, circuit_key, decode_or_refuse, decode_response_v2, encode_request_v2,
    encode_response_v2, read_frame, write_frame, CircuitRef, ShardError, ShardRequest,
    ShardResponseV2, CIRCUIT_CACHE_CAPACITY,
};
use crate::params::CircuitParams;
use crate::system::OpticalRun;
use std::collections::VecDeque;
use std::io::{BufReader, BufWriter, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// State shared between the accept loop, the connection handlers and
/// the owning [`Service`].
struct ServiceShared {
    dispatcher: PoolDispatcher,
    draining: AtomicBool,
    /// Live connection handlers, each with a stream clone the drain
    /// path uses to shut the connection's *read* half: an idle
    /// connection blocked waiting for its next request wakes to EOF
    /// and exits, while a response in flight still goes out whole.
    handlers: Mutex<Vec<(std::thread::JoinHandle<()>, TcpStream)>>,
    served: AtomicU64,
}

/// A live TCP service over a [`PoolDispatcher`].
///
/// Built with [`Service::bind`]; runs until dropped or
/// [`Service::drain`]ed. Draining is graceful by construction: the
/// listener stops accepting, each connection finishes the request it
/// is currently answering, and the dispatcher completes everything
/// already queued or in flight before the workers are reaped — a
/// client mid-request always receives its complete response.
pub struct Service {
    shared: Arc<ServiceShared>,
    accept: Option<std::thread::JoinHandle<()>>,
    local_addr: SocketAddr,
}

impl std::fmt::Debug for Service {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Service")
            .field("local_addr", &self.local_addr)
            .field("workers", &self.shared.dispatcher.workers())
            .finish_non_exhaustive()
    }
}

impl Service {
    /// Binds `addr` (port 0 picks an ephemeral port — read it back via
    /// [`Service::local_addr`]) and starts accepting connections,
    /// serving every request through `dispatcher`.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn bind(addr: impl ToSocketAddrs, dispatcher: PoolDispatcher) -> std::io::Result<Service> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let shared = Arc::new(ServiceShared {
            dispatcher,
            draining: AtomicBool::new(false),
            handlers: Mutex::new(Vec::new()),
            served: AtomicU64::new(0),
        });
        let accept_shared = Arc::clone(&shared);
        let accept = std::thread::Builder::new()
            .name("osc-service-accept".to_string())
            .spawn(move || accept_loop(&listener, &accept_shared))?;
        Ok(Service {
            shared,
            accept: Some(accept),
            local_addr,
        })
    }

    /// The bound address (with the actual port when bound to port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Requests answered with runs so far (errors not counted).
    pub fn requests_served(&self) -> u64 {
        self.shared.served.load(Ordering::Relaxed)
    }

    /// The number of worker processes behind the service.
    pub fn workers(&self) -> usize {
        self.shared.dispatcher.workers()
    }

    /// Graceful shutdown: stop accepting, let every connection finish
    /// the request it is owed, drain the dispatcher (queued + in-flight
    /// requests complete), reap the workers. Returns the number of
    /// requests served over the service's lifetime. Dropping the
    /// service drains it the same way.
    pub fn drain(self) -> u64 {
        // Hold the shared state past the drop so the count includes
        // requests that were still in flight when the drain began.
        let shared = Arc::clone(&self.shared);
        drop(self);
        shared.served.load(Ordering::Relaxed)
    }

    fn shutdown(&mut self) {
        self.shared.draining.store(true, Ordering::SeqCst);
        // Wake the accept loop: it re-checks the flag per connection,
        // so a throwaway local connection unblocks a quiet listener.
        let _ = TcpStream::connect(self.local_addr);
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        // New handles cannot appear once the accept thread is joined.
        // Shutting each connection's read half wakes handlers blocked
        // waiting for a next request (they see EOF and exit); a handler
        // mid-request keeps its write half and finishes the response it
        // owes before observing the flag.
        let handles: Vec<_> = {
            let mut handlers = self.shared.handlers.lock().expect("handlers lock");
            handlers.drain(..).collect()
        };
        for (handle, stream) in handles {
            let _ = stream.shutdown(Shutdown::Read);
            let _ = handle.join();
        }
        // The dispatcher drains when the last Arc drops (every handler
        // held a clone; now only the service does).
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(listener: &TcpListener, shared: &Arc<ServiceShared>) {
    for stream in listener.incoming() {
        if shared.draining.load(Ordering::SeqCst) {
            // The wake-up connection (or a late client) is dropped
            // before any frame is read: reconnect-to-another-replica
            // territory, per the drain contract.
            return;
        }
        let Ok(stream) = stream else {
            // Transient accept failures (EMFILE, aborted handshakes)
            // must not kill the listener.
            continue;
        };
        let Ok(drain_half) = stream.try_clone() else {
            continue;
        };
        let conn_shared = Arc::clone(shared);
        let spawned = std::thread::Builder::new()
            .name("osc-service-conn".to_string())
            .spawn(move || handle_connection(stream, &conn_shared));
        if let Ok(handle) = spawned {
            let mut handlers = shared.handlers.lock().expect("handlers lock");
            handlers.push((handle, drain_half));
            // Reap finished handlers so a long-lived service holds
            // O(live connections) handles, not O(history).
            let mut i = 0;
            while i < handlers.len() {
                if handlers[i].0.is_finished() {
                    let _ = handlers.swap_remove(i).0.join();
                } else {
                    i += 1;
                }
            }
        }
    }
}

/// Per-connection circuit cache entry: the digest and the circuit it
/// resolves to. One circuit per digest, latest inline ship wins —
/// mirroring the worker-side cache invariant.
type ConnCircuit = (u64, CircuitParams, Vec<f64>);

fn handle_connection(stream: TcpStream, shared: &Arc<ServiceShared>) {
    // Request/response frames are small and latency-bound; don't let
    // Nagle batch them against the client's ACKs.
    let _ = stream.set_nodelay(true);
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = BufWriter::new(stream);
    let mut circuits: VecDeque<ConnCircuit> = VecDeque::new();
    // A read error or EOF ends the connection; the client owns
    // reconnection. Nothing here can poison a worker: the dispatcher
    // only ever sees complete, validated requests.
    while let Ok(Some(payload)) = read_frame(&mut reader) {
        let frame = answer_connection_frame(&payload, &mut circuits, shared);
        if write_frame(&mut writer, &frame)
            .and_then(|()| writer.flush())
            .is_err()
        {
            return;
        }
        if shared.draining.load(Ordering::SeqCst) {
            // Drain: the request above was answered in full; close
            // before reading another.
            return;
        }
    }
}

/// Answers one framed request read off a connection. Never panics the
/// handler: every failure is an error-value frame.
fn answer_connection_frame(
    payload: &[u8],
    circuits: &mut VecDeque<ConnCircuit>,
    shared: &ServiceShared,
) -> Vec<u8> {
    // Anything outside v2/v3 gets the ID-0 refusal, exactly as on a
    // worker pipe; the connection stays open either way.
    let req = match decode_or_refuse(payload) {
        Ok(req) => req,
        Err(refusal) => return encode_response_v2(&refusal),
    };
    let request_id = req.request_id;
    let (params, coeffs) = match req.circuit {
        CircuitRef::Inline { params, coeffs } => {
            let digest = circuit_digest(&params, &coeffs);
            circuits.retain(|(d, _, _)| *d != digest);
            circuits.push_front((digest, params, coeffs.clone()));
            circuits.truncate(CIRCUIT_CACHE_CAPACITY);
            (params, coeffs)
        }
        CircuitRef::Cached { digest } => {
            let Some(at) = circuits.iter().position(|(d, _, _)| *d == digest) else {
                // Same contract as a worker: a miss is answered, never
                // guessed; the client resends inline.
                return encode_response_v2(&ShardResponseV2::CacheMiss { request_id, digest });
            };
            let entry = circuits.remove(at).expect("position just found");
            let resolved = (entry.1, entry.2.clone());
            circuits.push_front(entry);
            resolved
        }
    };
    let request = ShardRequest {
        params,
        coeffs,
        sng: req.sng,
        seed: req.seed,
        stream_length: req.stream_length,
        faults: req.faults,
        job: req.job,
    };
    let response = match shared.dispatcher.submit(request) {
        Ok(runs) => {
            shared.served.fetch_add(1, Ordering::Relaxed);
            ShardResponseV2::Runs { request_id, runs }
        }
        // Overload, drain, transport exhaustion, remote rejection —
        // all cross the socket as error values with the echoed id.
        Err(e) => ShardResponseV2::Error {
            request_id,
            message: e.to_string(),
        },
    };
    encode_response_v2(&response)
}

// ---------------------------------------------------------------------
// Client side
// ---------------------------------------------------------------------

/// What a cleanly-decoded service response settled to, before cache
/// fallback.
enum ClientSettled {
    Runs(Vec<OpticalRun>),
    Remote(String),
    CacheMiss { digest: u64 },
}

/// A blocking client for one [`Service`] connection.
///
/// [`ServiceClient::request`] is the closed-loop surface: one request,
/// one response, with the same digest-reference optimization the pool
/// uses worker-side (the client mirrors the service's per-connection
/// LRU and falls back to an inline resend on a
/// [`ShardResponseV2::CacheMiss`]). [`ServiceClient::send_request`] /
/// [`ServiceClient::read_response`] split the two halves for open-loop
/// load generation; open-loop sends are always inline, so a cache miss
/// can never land in the middle of a pipelined burst.
#[derive(Debug)]
pub struct ServiceClient {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    next_id: u64,
    /// Mirror of the service's per-connection circuit cache:
    /// `(digest, full key)`, MRU-first, capacity
    /// [`CIRCUIT_CACHE_CAPACITY`].
    known: VecDeque<(u64, Vec<u8>)>,
}

impl ServiceClient {
    /// Connects to a service.
    ///
    /// # Errors
    ///
    /// Propagates the connection failure.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<ServiceClient> {
        Self::from_stream(TcpStream::connect(addr)?)
    }

    /// Connects, retrying for up to `patience` while the service is
    /// still coming up (connection refused) — the race every
    /// start-service-then-drive harness has.
    ///
    /// # Errors
    ///
    /// The last connection failure once `patience` is exhausted.
    pub fn connect_retry(
        addr: impl ToSocketAddrs + Clone,
        patience: Duration,
    ) -> std::io::Result<ServiceClient> {
        let started = Instant::now();
        loop {
            match TcpStream::connect(addr.clone()) {
                Ok(stream) => return Self::from_stream(stream),
                Err(e) if started.elapsed() >= patience => return Err(e),
                Err(_) => std::thread::sleep(Duration::from_millis(25)),
            }
        }
    }

    fn from_stream(stream: TcpStream) -> std::io::Result<ServiceClient> {
        stream.set_nodelay(true)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(ServiceClient {
            reader,
            writer: BufWriter::new(stream),
            next_id: 1,
            known: VecDeque::new(),
        })
    }

    /// Evaluates one request through the service, blocking for the
    /// response. Repeat circuits ship as digest references; a stale
    /// reference costs one clean cache-miss round trip + inline
    /// resend, never a wrong result.
    ///
    /// # Errors
    ///
    /// [`ShardError::Worker`] on transport failures (the service went
    /// away), [`ShardError::Remote`] when the service answers with an
    /// error value (overload, drain, worker-side rejection),
    /// [`ShardError::Protocol`] on malformed or desynced responses.
    pub fn request(&mut self, request: &ShardRequest) -> Result<Vec<OpticalRun>, ShardError> {
        let expected = request.job.expected_runs();
        super::check_frame_bounds(request, expected)?;
        let (id, was_cached) = self.send(request, false)?;
        match self.read(id, expected)? {
            ClientSettled::Runs(runs) => Ok(runs),
            ClientSettled::Remote(message) => Err(ShardError::Remote {
                shard: 0,
                detail: message,
            }),
            ClientSettled::CacheMiss { digest } if was_cached => {
                // The service's cache (or the connection) is younger
                // than our mirror: heal with an inline resend.
                self.known.retain(|(d, _)| *d != digest);
                let (id, _) = self.send(request, true)?;
                match self.read(id, expected)? {
                    ClientSettled::Runs(runs) => Ok(runs),
                    ClientSettled::Remote(message) => Err(ShardError::Remote {
                        shard: 0,
                        detail: message,
                    }),
                    ClientSettled::CacheMiss { digest } => Err(ShardError::Protocol(format!(
                        "service reported a cache miss for digest {digest:#018x} \
                         on an inline request"
                    ))),
                }
            }
            ClientSettled::CacheMiss { digest } => Err(ShardError::Protocol(format!(
                "service reported a cache miss for digest {digest:#018x} on an inline request"
            ))),
        }
    }

    /// Open-loop send half: writes the request (always inline) and
    /// returns `(request id, expected runs)` for the matching
    /// [`ServiceClient::read_response`]. Responses arrive in send
    /// order.
    ///
    /// # Errors
    ///
    /// As [`ServiceClient::request`] (send-side failures only).
    pub fn send_request(&mut self, request: &ShardRequest) -> Result<(u64, usize), ShardError> {
        let expected = request.job.expected_runs();
        super::check_frame_bounds(request, expected)?;
        let (id, _) = self.send(request, true)?;
        Ok((id, expected))
    }

    /// Open-loop read half: reads the next response, which must echo
    /// `id` and carry `expected` runs.
    ///
    /// # Errors
    ///
    /// As [`ServiceClient::request`] (read-side failures only).
    pub fn read_response(
        &mut self,
        id: u64,
        expected: usize,
    ) -> Result<Vec<OpticalRun>, ShardError> {
        match self.read(id, expected)? {
            ClientSettled::Runs(runs) => Ok(runs),
            ClientSettled::Remote(message) => Err(ShardError::Remote {
                shard: 0,
                detail: message,
            }),
            ClientSettled::CacheMiss { digest } => Err(ShardError::Protocol(format!(
                "service reported a cache miss for digest {digest:#018x} on an inline request"
            ))),
        }
    }

    /// Writes one request frame; returns the id used and whether it
    /// went out as a cached reference.
    fn send(
        &mut self,
        request: &ShardRequest,
        force_inline: bool,
    ) -> Result<(u64, bool), ShardError> {
        let digest = circuit_digest(&request.params, &request.coeffs);
        let key = circuit_key(&request.params, &request.coeffs);
        // Cached only on a full-key mirror hit, exactly like the pool's
        // worker mirror: digest collisions fall back to inline.
        let cached = !force_inline && self.known.iter().any(|(d, k)| *d == digest && *k == key);
        let id = self.next_id;
        self.next_id += 1;
        let frame = encode_request_v2(request, id, cached.then_some(digest));
        write_frame(&mut self.writer, &frame)
            .and_then(|()| self.writer.flush())
            .map_err(|e| ShardError::Worker {
                shard: 0,
                detail: format!("writing service request: {e}"),
            })?;
        note_digest(&mut self.known, digest, key, CIRCUIT_CACHE_CAPACITY);
        Ok((id, cached))
    }

    /// Reads and decodes one response frame, checking the echoed id
    /// and run count.
    fn read(&mut self, id: u64, expected: usize) -> Result<ClientSettled, ShardError> {
        let payload = read_frame(&mut self.reader)
            .map_err(|e| ShardError::Worker {
                shard: 0,
                detail: format!("reading service response: {e}"),
            })?
            .ok_or_else(|| ShardError::Worker {
                shard: 0,
                detail: "service closed the connection (drained or restarted); \
                         reconnect — any replica answers byte-identically"
                    .to_string(),
            })?;
        let response = decode_response_v2(&payload)
            .map_err(|e| ShardError::Protocol(format!("malformed service response: {e}")))?;
        let (request_id, settled) = match response {
            ShardResponseV2::Runs { request_id, runs } => {
                if runs.len() != expected {
                    return Err(ShardError::Protocol(format!(
                        "service returned {} runs, expected {expected}",
                        runs.len()
                    )));
                }
                (request_id, ClientSettled::Runs(runs))
            }
            ShardResponseV2::Error {
                request_id,
                message,
            } => (request_id, ClientSettled::Remote(message)),
            ShardResponseV2::CacheMiss { request_id, digest } => {
                (request_id, ClientSettled::CacheMiss { digest })
            }
        };
        if request_id != id {
            return Err(ShardError::Protocol(format!(
                "service echoed request id {request_id}, expected {id} — connection desynced"
            )));
        }
        Ok(settled)
    }
}
