//! Process-level sharding of batch evaluation.
//!
//! [`super::BatchEvaluator`] scales one process across threads; this
//! module scales a batch across **worker subprocesses** — the
//! software mirror of replicating the paper's ReSC lane bank across
//! chips. The pieces:
//!
//! - [`ShardPlan`] — splits a batch of `n` items into contiguous,
//!   balanced index ranges, one per worker;
//! - the **wire protocol** ([`ShardRequest`] / [`ShardResponseV2`], see
//!   below) — a framed, versioned binary encoding of "evaluate these
//!   items of this system" and the per-item [`OpticalRun`]s coming back;
//! - [`serve`] — the worker side: a read-request/write-response loop any
//!   binary can expose over stdin/stdout (the `osc-bench` crate ships it
//!   as the `shard_worker` binary), holding a small LRU cache of built
//!   circuits across requests;
//! - [`pool::WorkerPool`] — the one parent side: spawns N worker
//!   processes, keeps them alive across requests, dispatches
//!   round-robin, respawns + retries on worker death, and references
//!   worker-cached circuits instead of reshipping them. A
//!   spawn-per-call caller simply spawns a pool from a
//!   [`pool::PoolConfig`] for each call and drops it afterwards;
//! - [`pool::PoolDispatcher`] and [`service::Service`] — the same pool
//!   behind a concurrent front end and a TCP socket;
//! - [`Executor`] — the one dispatch point over the serving tiers
//!   (in-process, spawn-per-call, pool, TCP service): it runs [`Job`]s,
//!   each a built system plus the fields a [`ShardRequest`] carries, and
//!   every tier returns the same bytes. The apps, the soak schedule and
//!   the design sweep all evaluate through it.
//!
//! ```no_run
//! use osc_core::batch::shard::{pool::PoolConfig, Executor, Job, SngKind};
//! # fn demo(system: &osc_core::system::OpticalScSystem) -> Result<(), Box<dyn std::error::Error>> {
//! // Spawn 3 workers once, then stream jobs at them. The workers
//! // cache the built circuit, so repeat jobs skip both the spawn and
//! // the rebuild. Results are bit-identical to in-process runs.
//! let mut pool = PoolConfig::new("shard_worker", 3).spawn()?;
//! let mut executor = Executor::Pool(&mut pool);
//! for seed in 0..100u64 {
//!     let job = Job::batch(system, SngKind::Xoshiro, &[0.5], 256, seed, None);
//!     let runs = executor.run(&[job])?;
//!     assert_eq!(runs[0].len(), 1);
//! }
//! # Ok(()) }
//! ```
//!
//! # Determinism contract
//!
//! Sharding is **unobservable in the results**. Every work item derives
//! its generator universe from its *global* index —
//! [`super::mix_seed`]`(seed, global_index)` for flat batches,
//! `mix_seed(mix_seed(seed, row), column)` for image jobs — exactly as
//! the single-process paths ([`super::BatchEvaluator::evaluate_many`],
//! the row+lane image pipelines) do. A shard covering `[a, b)` runs
//! [`super::BatchEvaluator::evaluate_range_faulted`] with `first_index = a`
//! inside its own process, so concatenating shard outputs in plan order
//! is **byte-identical** to the unsharded evaluation for every worker
//! count, worker thread count and SIMD tier. The `f64` payloads travel
//! as IEEE-754 bit patterns (`to_bits`/`from_bits`), so no value is
//! perturbed in transit.
//!
//! # Wire protocol (v2/v3)
//!
//! Both directions use the same framing: a little-endian `u64` payload
//! length (capped at [`MAX_FRAME_BYTES`]; the payload buffer grows only
//! as bytes actually arrive, so a hostile prefix cannot force a large
//! allocation), then the payload. Integers are little-endian; every
//! `f64` is its IEEE-754 bit pattern as a `u64`. A worker reads frames
//! until EOF and answers each with exactly one response frame.
//!
//! One protocol family is live: version **2**, and version **3** — the
//! v2 layout plus a fault block — emitted only when a request carries a
//! fault spec. Every request carries a **request ID** echoed in its
//! response (so one worker can serve interleaved requests and desyncs
//! are detectable), and a **circuit-cache reference** lets a stream of
//! requests against the same circuit ship the parameters +
//! coefficients once.
//!
//! Request payload ([`encode_request_v2`] / [`decode_request_v2`]):
//!
//! ```text
//! u32  magic  "OSCR" (0x4F53_4352)
//! u32  version       2, or 3 when a fault block follows
//! u64  request id (opaque to the worker, echoed in the response)
//! u8   circuit kind  0 = inline, 1 = cached reference
//! u8   job kind      0 = Batch, 1 = ImageRows
//! u8   SNG kind      0 = lfsr, 1 = counter, 2 = xoshiro, 3 = chaotic
//! u8   reserved (0)
//! u64  batch seed
//! u64  stream length (bits per evaluation)
//! v3 only — fault block:
//!      u8 fault present (0/1); if present: f64 flip probability,
//!      f64 shift probability, u64 flip seed, u64 shift seed,
//!      u8 stuck-at present (0/1), then u64 mask + u64 value
//! inline:  CircuitParams — one u64: order in the low 32 bits, backend
//!          tag in the high 32 bits; then 19 f64s in declaration order
//!          (spacing, λ_last, λ_ref, MZI IL dB, MZI ER dB, modulator
//!          r1/r2/a/FSR/Δλ, filter r1/r2/a/FSR/OTE, pump mW, probe mW,
//!          responsivity, noise current) — then u64 coefficient count
//!          and that many f64 Bernstein coefficients (the worker builds,
//!          or reuses, the system and caches it under its digest)
//! cached:  u64 digest (the worker looks the system up; a miss is
//!          answered with a cache-miss response, never an evaluation)
//! Batch job:     u64 first global index, u64 count, count × f64 inputs
//! ImageRows job: u64 image width, u64 first global row, u64 pixel
//!                count, count × f64 pixels (row-major)
//! ```
//!
//! Response payload ([`encode_response_v2`] / [`decode_response_v2`]),
//! always version 2 — responses are unversioned by faults:
//!
//! ```text
//! u32  magic  "OSCA" (0x4F53_4341)
//! u32  version (2)
//! u64  request id (echoed)
//! u8   status        0 = ok, 1 = error, 2 = cache miss
//! ok:         u64 run count, then per run: estimate, ideal_estimate,
//!             exact, observed_ber (4 × f64) and stream_length (u64),
//!             in item order
//! error:      u64 message length, then that many UTF-8 bytes
//! cache miss: u64 digest that was not found (the sender falls back to
//!             an inline request; [`pool::WorkerPool`] does this
//!             transparently)
//! ```
//!
//! ## Refusals: request ID 0
//!
//! A frame outside the v2/v3 family — bad magic, the retired version 1,
//! or an unknown version — carries no request ID the receiver can trust.
//! Workers ([`serve`]) and the TCP service answer it with a v2 `Error`
//! response whose request ID is **0**, an ID the pool and every client
//! in this workspace never issue, so a refusal can never be mistaken for
//! the answer to a real request. The worker and the connection stay up
//! after a refusal. A v2/v3 frame that fails to decode further in
//! (unknown tag, invalid fault spec, truncation) is answered with an
//! `Error` echoing its own request ID.
//!
//! ## Backend tag
//!
//! The transmission backend rides in the **high 32 bits of the order
//! word** of the `CircuitParams` block, packed the same way in every
//! protocol version this code has spoken. The default backend
//! ([`crate::backend::BackendKind::MrrMzi`]) is tag **0**, so
//! default-backend traffic is byte-identical to frames produced before
//! the tag existed — digests, cache keys and recorded fixtures all
//! survive unchanged. A peer too old to know the tag decodes a
//! non-default frame as an absurd order (≥ 2³²) and fails its order
//! validation loudly; a peer receiving an unknown tag rejects the frame
//! with a clean `unknown backend tag` error. Either way a mismatch is an
//! error response, never silently-wrong physics. The tag is part of the
//! canonical circuit bytes, so [`circuit_digest`] and the full cache key
//! separate backends that share every numeric parameter.
//!
//! ## Circuit cache
//!
//! The worker keeps the last [`CIRCUIT_CACHE_CAPACITY`] built
//! [`OpticalScSystem`]s in LRU order, keyed by [`circuit_digest`]
//! (FNV-1a over the canonical encoding of params + coefficients).
//! Digest collisions cannot silently evaluate the wrong circuit: inline
//! insertions compare the full encoded key and evict any same-digest
//! entry with a different key (one circuit per digest, always), and
//! [`pool::WorkerPool`] only sends a cached reference when the full key
//! matches the circuit it last shipped inline under that digest — a
//! collision costs rebuilds, never correctness.
//!
//! **Sizing the cache for many-distinct-circuits workloads.** The
//! default capacity (8) suits serving profiles that hammer a handful of
//! circuits (the soak schedule's two-circuit repeat profile). A design
//! sweep ([`crate::design::sweep`]) is the opposite shape: thousands of
//! *distinct* circuits, each revisited once per probe input — a
//! round-robin pool with an undersized LRU evicts every entry before
//! its next hit and rebuilds on all of them. Size the capacity to the
//! sweep's working set (`designs().len()`) via
//! [`pool::PoolConfig::with_circuit_cache_capacity`] or the
//! `OSC_CIRCUIT_CACHE` env; by contract an undersized cache only costs
//! rebuild time, never bytes, so this is purely a throughput knob (the
//! `design_sweep_order_grid` bench record tracks it).
//!
//! ## Faults (v3)
//!
//! - [`encode_request_v2`] emits version **2** when the request carries
//!   no fault spec and version **3** only when one is present, so
//!   fault-free traffic is byte-identical to what a pre-fault build
//!   emits;
//! - [`decode_request_v2`] accepts versions 2 and 3 (a v2 frame simply
//!   has no fault block); [`serve`] answers both with v2 responses;
//! - the decoded [`crate::fault::FaultSpec`] is validated at decode
//!   time (probabilities finite, in `[0, 1]`): a malformed spec comes
//!   back as an error *value* with the echoed request ID, never a
//!   worker panic.
//!
//! The fault determinism contract matches the clean one: workers rebase
//! the request-level spec per item — [`crate::fault::FaultSpec::rebased`]
//! with the global index for flat batches, by row then column for image
//! jobs — so faulty pooled ≡ faulty unsharded, bit for bit, for every
//! worker count.
//!
//! Errors cross the boundary **as values**: the worker validates the
//! request, catches panics, and reports failures in an error response —
//! it never aborts on bad input. The pool treats a dead worker, a
//! truncated frame, a wrong magic/version or a short response as a
//! failed request, retries it on a respawned process
//! ([`pool::PoolConfig::with_retries`], once by default), and only then
//! surfaces a [`ShardError`].
//!
//! # Service framing (TCP front door)
//!
//! [`service::Service`] exposes the exact same framed protocol over a
//! TCP socket, multiplexing many concurrent client connections onto one
//! [`pool::PoolDispatcher`]. No new wire format is introduced — a
//! service connection is framed byte-for-byte like a worker pipe — but
//! the connection lifecycle adds these rules:
//!
//! - **Connection lifecycle.** A client connects, writes request frames
//!   and reads exactly one response frame per request, in request
//!   order. Requests from one connection may be answered with
//!   pipelining delays (they share the pool with every other
//!   connection) but never out of order. The connection ends when the
//!   client closes it (half-close or full close), when a transport
//!   error occurs, or when the service drains.
//! - **Version check per frame.** Each *frame* carries its own version
//!   word, exactly as on a worker pipe. The service accepts v2 and v3
//!   frames (v3 iff a fault block is present); anything else gets the
//!   ID-0 refusal above, and the connection stays open.
//! - **Per-connection circuit cache.** Each connection holds its own
//!   LRU of [`CIRCUIT_CACHE_CAPACITY`] circuits keyed by
//!   [`circuit_digest`]; [`CircuitRef::Cached`] references resolve
//!   against it and a miss is answered with
//!   [`ShardResponseV2::CacheMiss`] (the client resends inline),
//!   mirroring worker semantics. Connections never share cache state,
//!   so one client's evictions cannot invalidate another's references.
//! - **Overload as a value.** The dispatcher bounds its request queue;
//!   a request past the cap is answered immediately with an error
//!   response whose message names the overload
//!   ([`ShardError::Overloaded`] rendered as text) — never a silent
//!   drop, a hang, or a reset. The connection remains usable; the
//!   client retries later.
//! - **Drain semantics.** When the service drains (SIGTERM or
//!   [`service::Service::drain`]), the listener stops accepting,
//!   every in-flight request — already submitted, or mid-read on some
//!   connection — is answered completely, and each connection is closed
//!   after the response it is currently owed. Idle connections (blocked
//!   waiting for their next request) have their read half shut so they
//!   wake to EOF immediately; the drain never waits on a quiet client.
//!   A subsequent read on a
//!   drained connection sees EOF; reconnecting fails. Replicas are
//!   interchangeable by the determinism contract, so a client can
//!   reconnect to any other instance and replay the failed request
//!   byte-identically.

use super::{evaluate_lane_block, lane_blocks, mix_seed, BatchEvaluator};
use crate::backend::BackendKind;
use crate::fault::{FaultSpec, StuckAt};
use crate::params::{CircuitParams, FilterTemplate, ModulatorTemplate};
use crate::system::{OpticalRun, OpticalScSystem};
use osc_stochastic::bernstein::BernsteinPoly;
use osc_stochastic::sng::{ChaoticLaserSng, CounterSng, LfsrSng, XoshiroSng};
use osc_units::{DbRatio, Milliwatts, Nanometers};
use pool::{PoolConfig, WorkerPool};
use service::ServiceClient;
use std::io::{Read, Write};
use std::path::PathBuf;
use std::time::Duration;

pub mod pool;
pub mod service;

/// Request frame magic, `"OSCR"`.
pub const REQUEST_MAGIC: u32 = 0x4F53_4352;
/// Response frame magic, `"OSCA"`.
pub const RESPONSE_MAGIC: u32 = 0x4F53_4341;
/// Protocol version: request IDs + worker-side circuit cache: request IDs + worker-side circuit cache.
pub const PROTOCOL_VERSION_V2: u32 = 2;
/// Fault-injection protocol version: the v2 layout plus an optional
/// [`FaultSpec`] block. Emitted only when a request actually carries a
/// spec — fault-free traffic stays on v2.
pub const PROTOCOL_VERSION_V3: u32 = 3;
/// Upper bound accepted for any frame payload: a corrupted or hostile
/// length prefix is rejected with a clean protocol error **before** any
/// allocation is attempted. 256 MiB comfortably covers the largest real
/// request (a 4096×4096 image ships 128 MiB of pixels) while keeping a
/// garbled prefix from driving a multi-gigabyte allocation. Responses
/// carry 40 bytes per run, so the cap also bounds one shard to ~6.7M
/// items per response — plan more shards for batches beyond that.
pub const MAX_FRAME_BYTES: u64 = 256 * (1 << 20);
/// Initial payload buffer of [`read_frame`]; larger frames grow the
/// buffer as their bytes arrive.
const READ_CHUNK_BYTES: usize = 64 * 1024;
/// How many built [`OpticalScSystem`]s a [`serve`] loop keeps, in LRU
/// order, for v2 cached-circuit requests.
pub const CIRCUIT_CACHE_CAPACITY: usize = 8;
/// Register width used when a wire request selects the LFSR source; the
/// per-item seed is truncated to the register. Width 16 is inside the
/// supported `3..=32` range by construction, so the factory is
/// infallible.
pub const LFSR_WIRE_WIDTH: u32 = 16;
/// Environment variable overriding where [`locate_worker`] looks for
/// the worker binary.
pub const WORKER_ENV: &str = "OSC_SHARD_WORKER";
/// Environment variable (milliseconds) making [`serve`] sleep before
/// answering each frame — a deterministic way to make a worker *slow*
/// without making it incorrect. Test hook only
/// ([`pool::PoolConfig::with_response_delay`] exports it): it exists so
/// pipelining tests can pin that a slow response on one request ID is
/// never misattributed as a timeout of a different in-flight request.
pub const SERVE_DELAY_ENV: &str = "OSC_SERVE_DELAY_MS";
/// Environment variable overriding the [`serve`] loop's circuit-cache
/// capacity (positive integer; anything else falls back to
/// [`CIRCUIT_CACHE_CAPACITY`]). Exported by
/// [`pool::PoolConfig::with_circuit_cache_capacity`] so design sweeps
/// with a working set beyond 8 circuits keep their whole sweep warm.
pub const CIRCUIT_CACHE_ENV: &str = "OSC_CIRCUIT_CACHE";

/// Errors surfaced by the sharding layer.
#[derive(Debug, Clone, PartialEq)]
pub enum ShardError {
    /// A worker process could not be launched at all (missing or
    /// non-executable binary), after exhausting retries.
    Spawn {
        /// Shard index in the plan.
        shard: usize,
        /// Operating-system detail.
        detail: String,
    },
    /// A worker died, closed its pipe early, or answered with a
    /// malformed frame (after exhausting retries).
    Worker {
        /// Shard index in the plan.
        shard: usize,
        /// What the pool observed.
        detail: String,
    },
    /// A worker failed to answer within the pool's per-request read
    /// timeout (after exhausting retries) — a stalled worker, as
    /// opposed to a dead one.
    Timeout {
        /// Shard index in the plan.
        shard: usize,
        /// What the pool observed (includes the configured
        /// timeout).
        detail: String,
    },
    /// A worker answered cleanly with an error report (bad config,
    /// invalid input, caught panic).
    Remote {
        /// Shard index in the plan.
        shard: usize,
        /// The worker's message.
        detail: String,
    },
    /// A locally-detected protocol violation (encode/decode failure).
    Protocol(String),
    /// The request itself is unshardable (e.g. pixel count not a
    /// multiple of the image width).
    InvalidPlan(String),
    /// A [`pool::PoolDispatcher`] rejected the request because its
    /// bounded queue is full — backpressure as a value, never a silent
    /// drop. The request was not evaluated; retry later.
    Overloaded {
        /// Requests queued when the rejection happened.
        queued: usize,
        /// The configured queue cap.
        cap: usize,
    },
    /// A [`pool::PoolDispatcher`] rejected the request because it is
    /// draining: in-flight and already-queued requests finish, new ones
    /// are refused.
    Draining,
}

impl std::fmt::Display for ShardError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardError::Spawn { shard, detail } => {
                write!(f, "shard {shard}: failed to spawn worker: {detail}")
            }
            ShardError::Worker { shard, detail } => {
                write!(f, "shard {shard}: worker failed: {detail}")
            }
            ShardError::Timeout { shard, detail } => {
                write!(f, "shard {shard}: worker timed out: {detail}")
            }
            ShardError::Remote { shard, detail } => {
                write!(f, "shard {shard}: worker reported: {detail}")
            }
            ShardError::Protocol(msg) => write!(f, "shard protocol error: {msg}"),
            ShardError::InvalidPlan(msg) => write!(f, "invalid shard plan: {msg}"),
            ShardError::Overloaded { queued, cap } => write!(
                f,
                "service overloaded: {queued} requests queued (cap {cap}) — retry later"
            ),
            ShardError::Draining => {
                write!(f, "service draining: not accepting new requests")
            }
        }
    }
}

impl std::error::Error for ShardError {}

/// Which stochastic number generator a worker instantiates per item.
///
/// The variant, together with the per-item seed derivation, pins the
/// exact generator universe, so pooled and single-process runs
/// agree bit for bit:
///
/// - `Lfsr` → `LfsrSng::new(LFSR_WIRE_WIDTH, seed as u32)`;
/// - `Counter` → `CounterSng::new()` (seed-independent by design);
/// - `Xoshiro` → `XoshiroSng::new(seed)`;
/// - `Chaotic` → `ChaoticLaserSng::seeded(seed)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SngKind {
    /// Maximal-length LFSR comparator SNG (the CMOS baseline).
    Lfsr,
    /// Deterministic low-discrepancy van der Corput/Halton source.
    Counter,
    /// Seeded Xoshiro256++ PRNG, the software reference.
    Xoshiro,
    /// Chaotic-laser TRNG stand-in (SplitMix64-backed, seeded).
    Chaotic,
}

impl SngKind {
    /// All kinds, for sweeps.
    pub const ALL: [SngKind; 4] = [
        SngKind::Lfsr,
        SngKind::Counter,
        SngKind::Xoshiro,
        SngKind::Chaotic,
    ];

    fn as_u8(self) -> u8 {
        match self {
            SngKind::Lfsr => 0,
            SngKind::Counter => 1,
            SngKind::Xoshiro => 2,
            SngKind::Chaotic => 3,
        }
    }

    fn from_u8(v: u8) -> Result<Self, String> {
        match v {
            0 => Ok(SngKind::Lfsr),
            1 => Ok(SngKind::Counter),
            2 => Ok(SngKind::Xoshiro),
            3 => Ok(SngKind::Chaotic),
            other => Err(format!("unknown SNG kind {other}")),
        }
    }

    /// Generator name as the SNGs themselves report it.
    pub fn name(self) -> &'static str {
        match self {
            SngKind::Lfsr => "lfsr",
            SngKind::Counter => "counter",
            SngKind::Xoshiro => "xoshiro",
            SngKind::Chaotic => "chaotic-laser",
        }
    }
}

/// The per-item LFSR factory of the wire protocol.
fn lfsr_item(seed: u64) -> LfsrSng {
    // Infallible: LFSR_WIRE_WIDTH is inside the supported range and the
    // constructor remaps the one forbidden (zero) seed itself.
    LfsrSng::new(LFSR_WIRE_WIDTH, seed as u32).expect("LFSR_WIRE_WIDTH is a supported width")
}

/// Runs `$body` with `$factory` bound to the seed→generator constructor
/// of `$kind` — the one dispatch point both shard jobs share, so every
/// caller derives identical generator universes per kind.
macro_rules! dispatch_sng {
    ($kind:expr, $factory:ident => $body:expr) => {
        match $kind {
            SngKind::Lfsr => {
                let $factory = lfsr_item;
                $body
            }
            SngKind::Counter => {
                let $factory = |_seed: u64| CounterSng::new();
                $body
            }
            SngKind::Xoshiro => {
                let $factory = XoshiroSng::new;
                $body
            }
            SngKind::Chaotic => {
                let $factory = ChaoticLaserSng::seeded;
                $body
            }
        }
    };
}

/// Evaluates one flat batch **in this process** through the same
/// [`SngKind`] dispatch point the shard workers use — the in-process
/// serving tier of a design sweep or any other caller that holds an
/// [`SngKind`] value rather than a concrete generator type.
///
/// Item `i` derives its universe from [`super::mix_seed`]`(seed, i)`,
/// exactly as a [`ShardRequest::batch`] with `first_index` 0 does, so
/// the result is byte-identical to shipping the same request through a
/// [`pool::WorkerPool`] or a [`service::ServiceClient`].
///
/// # Errors
///
/// Propagates evaluation failures (e.g. inputs outside `[0, 1]`).
pub fn evaluate_batch_in_process(
    evaluator: &BatchEvaluator,
    system: &OpticalScSystem,
    sng: SngKind,
    xs: &[f64],
    stream_length: usize,
    seed: u64,
) -> Result<Vec<OpticalRun>, crate::CircuitError> {
    evaluate_job(
        evaluator,
        &Job::batch(system, sng, xs, stream_length, seed, None),
        0,
    )
}

/// A contiguous, balanced decomposition of `items` work items into at
/// most `shards` index ranges (empty trailing ranges are dropped, so
/// asking for more shards than items degrades gracefully).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardPlan {
    ranges: Vec<(usize, usize)>,
}

impl ShardPlan {
    /// Plans `items` work items across `shards` workers (`0` is treated
    /// as `1`). The first `items % shards` ranges take one extra item, so
    /// range sizes differ by at most one.
    pub fn new(items: usize, shards: usize) -> Self {
        let shards = shards.max(1);
        let base = items / shards;
        let extra = items % shards;
        let mut ranges = Vec::new();
        let mut start = 0usize;
        for s in 0..shards {
            let len = base + usize::from(s < extra);
            if len == 0 {
                break;
            }
            ranges.push((start, len));
            start += len;
        }
        ShardPlan { ranges }
    }

    /// The planned `(start, len)` ranges, contiguous and in index order.
    pub fn ranges(&self) -> &[(usize, usize)] {
        &self.ranges
    }

    /// Total items covered.
    pub fn items(&self) -> usize {
        self.ranges.iter().map(|&(_, len)| len).sum()
    }
}

/// One evaluation job, as carried by a [`ShardRequest`].
#[derive(Debug, Clone, PartialEq)]
pub enum ShardJob {
    /// Evaluate `xs[i]` with generators derived from
    /// `mix_seed(seed, first_index + i)` — one slice of a flat batch.
    Batch {
        /// Global index of `xs[0]` in the full batch.
        first_index: u64,
        /// Inputs for this shard's range.
        xs: Vec<f64>,
    },
    /// Evaluate image pixels through the row+lane pipeline derivation:
    /// the pixel at global row `y`, column `x` uses
    /// `mix_seed(mix_seed(seed, y), x)`. Pixels are row-major rows
    /// `first_row ..`, and are clamped to `[0, 1]` before evaluation
    /// exactly as the in-process image pipelines do.
    ImageRows {
        /// Image width in pixels (row stride).
        width: u64,
        /// Global row index of the first transmitted row.
        first_row: u64,
        /// Row-major pixels, `width × rows` values.
        pixels: Vec<f64>,
    },
}

impl ShardJob {
    /// How many runs this job produces — one per batch item or pixel.
    pub fn expected_runs(&self) -> usize {
        match self {
            ShardJob::Batch { xs, .. } => xs.len(),
            ShardJob::ImageRows { pixels, .. } => pixels.len(),
        }
    }
}

/// One framed request: the system to build and the job to run on it.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardRequest {
    /// Full circuit parameter set (rebuilt worker-side).
    pub params: CircuitParams,
    /// Bernstein coefficients of the programmed polynomial.
    pub coeffs: Vec<f64>,
    /// Generator kind for every item.
    pub sng: SngKind,
    /// Batch seed the per-item universes derive from.
    pub seed: u64,
    /// Stream length (bits) per evaluation.
    pub stream_length: u64,
    /// Optional fault process, rebased per item on the worker. Its
    /// presence makes the request travel as a v3 frame.
    pub faults: Option<FaultSpec>,
    /// The work itself.
    pub job: ShardJob,
}

impl ShardRequest {
    /// The wire form of one flat batch slice: evaluate `xs` with item
    /// universes derived from `mix_seed(seed, first_index + i)`. With
    /// `first_index` 0 this is a whole batch — what a
    /// [`service::ServiceClient`] ships.
    pub fn batch(
        system: &OpticalScSystem,
        sng: SngKind,
        first_index: u64,
        xs: &[f64],
        stream_length: usize,
        seed: u64,
        faults: Option<&FaultSpec>,
    ) -> ShardRequest {
        ShardRequest {
            params: *system.params(),
            coeffs: system.polynomial().coeffs().to_vec(),
            sng,
            seed,
            stream_length: stream_length as u64,
            faults: faults.copied(),
            job: ShardJob::Batch {
                first_index,
                xs: xs.to_vec(),
            },
        }
    }

    /// The wire form of one whole-image evaluation (every row, starting
    /// at global row 0) through the row+lane pixel derivation — what a
    /// [`service::ServiceClient`] ships for an image request. Evaluated
    /// anywhere, the response is byte-identical to the in-process image
    /// pipeline.
    ///
    /// # Errors
    ///
    /// [`ShardError::InvalidPlan`] when `pixels` is not a whole number
    /// of `width`-sized rows.
    pub fn whole_image(
        system: &OpticalScSystem,
        sng: SngKind,
        width: usize,
        pixels: &[f64],
        stream_length: usize,
        seed: u64,
        faults: Option<&FaultSpec>,
    ) -> Result<ShardRequest, ShardError> {
        Job::image(system, sng, width, pixels, stream_length, seed, faults).request()
    }
}

// ---------------------------------------------------------------------
// Encoding primitives
// ---------------------------------------------------------------------

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(buf: &mut Vec<u8>, v: f64) {
    put_u64(buf, v.to_bits());
}

/// Sequential reader over a payload, with truncation-safe accessors.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| format!("payload truncated at byte {}", self.pos))?;
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn f64(&mut self) -> Result<f64, String> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn f64_vec(&mut self, count: u64) -> Result<Vec<f64>, String> {
        let count = usize::try_from(count).map_err(|_| "count overflows usize".to_string())?;
        if count
            .checked_mul(8)
            .is_none_or(|bytes| bytes > self.buf.len() - self.pos)
        {
            return Err(format!("declared {count} f64s exceed the payload"));
        }
        (0..count).map(|_| self.f64()).collect()
    }

    fn finished(&self) -> bool {
        self.pos == self.buf.len()
    }
}

fn encode_params(buf: &mut Vec<u8>, p: &CircuitParams) {
    // Backend tag rides in the high 32 bits of the order word. The
    // default backend is tag 0 by construction, so default-backend
    // frames are byte-identical to every pre-tag protocol revision;
    // a non-default tag makes an old peer's order check fail loudly
    // instead of silently computing the wrong physics.
    put_u64(buf, p.order as u64 | (p.backend.tag() as u64) << 32);
    for v in [
        p.wl_spacing.as_nm(),
        p.lambda_last.as_nm(),
        p.lambda_ref.as_nm(),
        p.mzi_il.as_db(),
        p.mzi_er.as_db(),
        p.modulator.r1,
        p.modulator.r2,
        p.modulator.a,
        p.modulator.fsr.as_nm(),
        p.modulator.delta_lambda.as_nm(),
        p.filter.r1,
        p.filter.r2,
        p.filter.a,
        p.filter.fsr.as_nm(),
        p.filter.ote_nm_per_mw,
        p.pump_power.as_mw(),
        p.probe_power.as_mw(),
        p.responsivity_a_per_w,
    ] {
        put_f64(buf, v);
    }
    put_f64(buf, p.noise_current_a);
}

fn decode_params(c: &mut Cursor<'_>) -> Result<CircuitParams, String> {
    let word = c.u64()?;
    let order =
        usize::try_from(word & 0xFFFF_FFFF).map_err(|_| "order overflows usize".to_string())?;
    let backend = BackendKind::from_tag((word >> 32) as u32)
        .ok_or_else(|| format!("unknown backend tag {}", word >> 32))?;
    let mut f = [0f64; 19];
    for slot in &mut f {
        *slot = c.f64()?;
    }
    Ok(CircuitParams {
        order,
        wl_spacing: Nanometers::new(f[0]),
        lambda_last: Nanometers::new(f[1]),
        lambda_ref: Nanometers::new(f[2]),
        mzi_il: DbRatio::from_db(f[3]),
        mzi_er: DbRatio::from_db(f[4]),
        modulator: ModulatorTemplate {
            r1: f[5],
            r2: f[6],
            a: f[7],
            fsr: Nanometers::new(f[8]),
            delta_lambda: Nanometers::new(f[9]),
        },
        filter: FilterTemplate {
            r1: f[10],
            r2: f[11],
            a: f[12],
            fsr: Nanometers::new(f[13]),
            ote_nm_per_mw: f[14],
        },
        pump_power: Milliwatts::new(f[15]),
        probe_power: Milliwatts::new(f[16]),
        responsivity_a_per_w: f[17],
        noise_current_a: f[18],
        backend,
    })
}

impl ShardJob {
    fn kind(&self) -> u8 {
        match self {
            ShardJob::Batch { .. } => 0,
            ShardJob::ImageRows { .. } => 1,
        }
    }
}

fn encode_job(buf: &mut Vec<u8>, job: &ShardJob) {
    match job {
        ShardJob::Batch { first_index, xs } => {
            put_u64(buf, *first_index);
            put_u64(buf, xs.len() as u64);
            for &x in xs {
                put_f64(buf, x);
            }
        }
        ShardJob::ImageRows {
            width,
            first_row,
            pixels,
        } => {
            put_u64(buf, *width);
            put_u64(buf, *first_row);
            put_u64(buf, pixels.len() as u64);
            for &p in pixels {
                put_f64(buf, p);
            }
        }
    }
}

fn decode_job(c: &mut Cursor<'_>, job_kind: u8) -> Result<ShardJob, String> {
    match job_kind {
        0 => {
            let first_index = c.u64()?;
            let n = c.u64()?;
            Ok(ShardJob::Batch {
                first_index,
                xs: c.f64_vec(n)?,
            })
        }
        1 => {
            let width = c.u64()?;
            let first_row = c.u64()?;
            let n = c.u64()?;
            Ok(ShardJob::ImageRows {
                width,
                first_row,
                pixels: c.f64_vec(n)?,
            })
        }
        other => Err(format!("unknown job kind {other}")),
    }
}

// ---------------------------------------------------------------------
// Protocol v2: request IDs + circuit-cache references
// ---------------------------------------------------------------------

/// How a v2 request names its circuit.
#[derive(Debug, Clone, PartialEq)]
pub enum CircuitRef {
    /// Parameters + coefficients shipped in full; the worker builds (or
    /// reuses) the system and caches it under its digest.
    Inline {
        /// Full circuit parameter set.
        params: CircuitParams,
        /// Bernstein coefficients of the programmed polynomial.
        coeffs: Vec<f64>,
    },
    /// Reference to a circuit a previous inline request cached on this
    /// worker. An unknown digest is answered with
    /// [`ShardResponseV2::CacheMiss`], never an evaluation.
    Cached {
        /// [`circuit_digest`] of the referenced circuit.
        digest: u64,
    },
}

/// One decoded v2 request.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardRequestV2 {
    /// Opaque to the worker; echoed verbatim in the response.
    pub request_id: u64,
    /// The circuit, inline or by cache reference.
    pub circuit: CircuitRef,
    /// Generator kind for every item.
    pub sng: SngKind,
    /// Batch seed the per-item universes derive from.
    pub seed: u64,
    /// Stream length (bits) per evaluation.
    pub stream_length: u64,
    /// Optional fault process (v3 frames only), validated at decode and
    /// rebased per item on the worker.
    pub faults: Option<FaultSpec>,
    /// The work itself.
    pub job: ShardJob,
}

/// One v2 response, always echoing the request ID.
#[derive(Debug, Clone, PartialEq)]
pub enum ShardResponseV2 {
    /// Per-item runs, in item order.
    Runs {
        /// Echoed request ID.
        request_id: u64,
        /// Per-item runs.
        runs: Vec<OpticalRun>,
    },
    /// The worker rejected the request or failed evaluating it.
    Error {
        /// Echoed request ID.
        request_id: u64,
        /// What went wrong, as the worker saw it.
        message: String,
    },
    /// A [`CircuitRef::Cached`] digest was not in the worker's cache
    /// (evicted, or the worker was respawned). The sender retries the
    /// same request inline.
    CacheMiss {
        /// Echoed request ID.
        request_id: u64,
        /// The digest that missed.
        digest: u64,
    },
}

/// The canonical byte encoding a circuit is digested (and, for inline
/// cache insertions, compared) under.
fn circuit_key(params: &CircuitParams, coeffs: &[f64]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(176 + coeffs.len() * 8);
    encode_params(&mut buf, params);
    put_u64(&mut buf, coeffs.len() as u64);
    for &c in coeffs {
        put_f64(&mut buf, c);
    }
    buf
}

/// FNV-1a digest of the canonical circuit bytes (encoded params,
/// coefficient count, coefficients) — the key cached-circuit references
/// travel as. Workers verify inline insertions against the
/// full key, so a collision can cost a rebuild but never a wrong
/// evaluation.
pub fn circuit_digest(params: &CircuitParams, coeffs: &[f64]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for &b in &circuit_key(params, coeffs) {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Writes the v3 fault block: a presence flag, then the spec fields.
fn encode_fault_block(buf: &mut Vec<u8>, faults: Option<&FaultSpec>) {
    match faults {
        None => buf.push(0),
        Some(spec) => {
            buf.push(1);
            put_f64(buf, spec.flip_probability);
            put_f64(buf, spec.shift_probability);
            put_u64(buf, spec.flip_seed);
            put_u64(buf, spec.shift_seed);
            match spec.stuck {
                None => buf.push(0),
                Some(stuck) => {
                    buf.push(1);
                    put_u64(buf, stuck.mask);
                    put_u64(buf, stuck.value);
                }
            }
        }
    }
}

/// Reads the v3 fault block and validates the decoded spec, so a
/// malformed probability is an error value at the wire boundary.
fn decode_fault_block(c: &mut Cursor<'_>) -> Result<Option<FaultSpec>, String> {
    if c.u8()? == 0 {
        return Ok(None);
    }
    let flip_probability = c.f64()?;
    let shift_probability = c.f64()?;
    let flip_seed = c.u64()?;
    let shift_seed = c.u64()?;
    let stuck = match c.u8()? {
        0 => None,
        1 => Some(StuckAt {
            mask: c.u64()?,
            value: c.u64()?,
        }),
        other => return Err(format!("unknown stuck-at flag {other}")),
    };
    let spec = FaultSpec {
        flip_probability,
        shift_probability,
        stuck,
        flip_seed,
        shift_seed,
    };
    spec.validate()
        .map_err(|e| format!("invalid fault spec: {e}"))?;
    Ok(Some(spec))
}

/// Serializes a [`ShardRequest`] as a v2-family frame payload: version
/// 2 when the request is fault-free, version 3 (the v2 layout plus the
/// fault block) when it carries a [`FaultSpec`] — so fault-free traffic
/// stays byte-identical to pre-fault builds. With
/// `cached_digest = Some(d)` the circuit travels as a cache reference
/// `d` instead of inline parameters — the caller asserts a previous
/// inline request cached it on the receiving worker (a stale assertion
/// costs one [`ShardResponseV2::CacheMiss`] round trip, nothing more).
pub fn encode_request_v2(
    req: &ShardRequest,
    request_id: u64,
    cached_digest: Option<u64>,
) -> Vec<u8> {
    let mut buf = Vec::with_capacity(256);
    put_u32(&mut buf, REQUEST_MAGIC);
    let version = if req.faults.is_some() {
        PROTOCOL_VERSION_V3
    } else {
        PROTOCOL_VERSION_V2
    };
    put_u32(&mut buf, version);
    put_u64(&mut buf, request_id);
    buf.push(u8::from(cached_digest.is_some()));
    buf.push(req.job.kind());
    buf.push(req.sng.as_u8());
    buf.push(0); // reserved
    put_u64(&mut buf, req.seed);
    put_u64(&mut buf, req.stream_length);
    if version == PROTOCOL_VERSION_V3 {
        encode_fault_block(&mut buf, req.faults.as_ref());
    }
    match cached_digest {
        Some(digest) => put_u64(&mut buf, digest),
        None => {
            encode_params(&mut buf, &req.params);
            put_u64(&mut buf, req.coeffs.len() as u64);
            for &c in &req.coeffs {
                put_f64(&mut buf, c);
            }
        }
    }
    encode_job(&mut buf, &req.job);
    buf
}

/// Parses a v2 or v3 request frame payload (a v2 frame simply carries
/// no fault block, so `faults` comes back `None`).
///
/// # Errors
///
/// A description of the first violation (bad magic, wrong version,
/// unknown circuit/job/SNG tag, invalid fault spec, truncation,
/// trailing bytes).
pub fn decode_request_v2(payload: &[u8]) -> Result<ShardRequestV2, String> {
    let mut c = Cursor::new(payload);
    let magic = c.u32()?;
    if magic != REQUEST_MAGIC {
        return Err(format!("bad request magic {magic:#010x}"));
    }
    let version = c.u32()?;
    if version != PROTOCOL_VERSION_V2 && version != PROTOCOL_VERSION_V3 {
        return Err(format!(
            "not a v2/v3 request (version {version}, expected {PROTOCOL_VERSION_V2} or {PROTOCOL_VERSION_V3})"
        ));
    }
    let request_id = c.u64()?;
    let circuit_kind = c.u8()?;
    let job_kind = c.u8()?;
    let sng = SngKind::from_u8(c.u8()?)?;
    let _reserved = c.u8()?;
    let seed = c.u64()?;
    let stream_length = c.u64()?;
    let faults = if version == PROTOCOL_VERSION_V3 {
        decode_fault_block(&mut c)?
    } else {
        None
    };
    let circuit = match circuit_kind {
        0 => {
            let params = decode_params(&mut c)?;
            let n_coeffs = c.u64()?;
            CircuitRef::Inline {
                params,
                coeffs: c.f64_vec(n_coeffs)?,
            }
        }
        1 => CircuitRef::Cached { digest: c.u64()? },
        other => return Err(format!("unknown circuit kind {other}")),
    };
    let job = decode_job(&mut c, job_kind)?;
    if !c.finished() {
        return Err(format!(
            "{} trailing bytes after v2 request",
            payload.len() - c.pos
        ));
    }
    Ok(ShardRequestV2 {
        request_id,
        circuit,
        sng,
        seed,
        stream_length,
        faults,
        job,
    })
}

/// Serializes a v2 response into one frame payload (no length prefix).
pub fn encode_response_v2(resp: &ShardResponseV2) -> Vec<u8> {
    let mut buf = Vec::with_capacity(64);
    put_u32(&mut buf, RESPONSE_MAGIC);
    put_u32(&mut buf, PROTOCOL_VERSION_V2);
    match resp {
        ShardResponseV2::Runs { request_id, runs } => {
            put_u64(&mut buf, *request_id);
            buf.push(0);
            put_u64(&mut buf, runs.len() as u64);
            for run in runs {
                put_f64(&mut buf, run.estimate);
                put_f64(&mut buf, run.ideal_estimate);
                put_f64(&mut buf, run.exact);
                put_f64(&mut buf, run.observed_ber);
                put_u64(&mut buf, run.stream_length as u64);
            }
        }
        ShardResponseV2::Error {
            request_id,
            message,
        } => {
            put_u64(&mut buf, *request_id);
            buf.push(1);
            put_u64(&mut buf, message.len() as u64);
            buf.extend_from_slice(message.as_bytes());
        }
        ShardResponseV2::CacheMiss { request_id, digest } => {
            put_u64(&mut buf, *request_id);
            buf.push(2);
            put_u64(&mut buf, *digest);
        }
    }
    buf
}

/// Parses a v2 response frame payload.
///
/// # Errors
///
/// A description of the first violation (bad magic, wrong version,
/// unknown status, truncation, trailing bytes).
pub fn decode_response_v2(payload: &[u8]) -> Result<ShardResponseV2, String> {
    let mut c = Cursor::new(payload);
    let magic = c.u32()?;
    if magic != RESPONSE_MAGIC {
        return Err(format!("bad response magic {magic:#010x}"));
    }
    let version = c.u32()?;
    if version != PROTOCOL_VERSION_V2 {
        return Err(format!(
            "not a v2 response (version {version}, expected {PROTOCOL_VERSION_V2})"
        ));
    }
    let request_id = c.u64()?;
    let resp = match c.u8()? {
        0 => {
            let count = c.u64()?;
            let count =
                usize::try_from(count).map_err(|_| "run count overflows usize".to_string())?;
            if count
                .checked_mul(40)
                .is_none_or(|bytes| bytes > payload.len())
            {
                return Err(format!("declared {count} runs exceed the payload"));
            }
            let mut runs = Vec::with_capacity(count);
            for _ in 0..count {
                let estimate = c.f64()?;
                let ideal_estimate = c.f64()?;
                let exact = c.f64()?;
                let observed_ber = c.f64()?;
                let stream_length = usize::try_from(c.u64()?)
                    .map_err(|_| "stream length overflows usize".to_string())?;
                runs.push(OpticalRun {
                    estimate,
                    ideal_estimate,
                    exact,
                    observed_ber,
                    stream_length,
                });
            }
            ShardResponseV2::Runs { request_id, runs }
        }
        1 => {
            let len = c.u64()?;
            let bytes = c.take(
                usize::try_from(len).map_err(|_| "message length overflows usize".to_string())?,
            )?;
            ShardResponseV2::Error {
                request_id,
                message: String::from_utf8(bytes.to_vec())
                    .map_err(|_| "non-UTF-8 error message")?,
            }
        }
        2 => ShardResponseV2::CacheMiss {
            request_id,
            digest: c.u64()?,
        },
        other => return Err(format!("unknown response status {other}")),
    };
    if !c.finished() {
        return Err(format!(
            "{} trailing bytes after v2 response",
            payload.len() - c.pos
        ));
    }
    Ok(resp)
}

// ---------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------

/// Writes one length-prefixed frame.
///
/// # Errors
///
/// Propagates I/O failures.
pub fn write_frame<W: Write>(w: &mut W, payload: &[u8]) -> std::io::Result<()> {
    w.write_all(&(payload.len() as u64).to_le_bytes())?;
    w.write_all(payload)
}

/// Reads one length-prefixed frame. Returns `Ok(None)` on a clean EOF at
/// a frame boundary; EOF inside a frame is an error.
///
/// The payload buffer grows only as bytes actually arrive — at most
/// 64 KiB ahead, or twice what has arrived — so a length prefix
/// announcing a large frame costs memory only once the peer really
/// sends that much.
///
/// # Errors
///
/// Propagates I/O failures; an oversized length prefix is reported as
/// [`std::io::ErrorKind::InvalidData`], EOF inside the frame as
/// [`std::io::ErrorKind::UnexpectedEof`].
pub fn read_frame<R: Read>(r: &mut R) -> std::io::Result<Option<Vec<u8>>> {
    let mut len_bytes = [0u8; 8];
    let mut filled = 0usize;
    while filled < 8 {
        // Retry EINTR like `read_exact` does for the payload below — a
        // signal landing mid-prefix must not be mistaken for a dead
        // worker.
        let n = match r.read(&mut len_bytes[filled..]) {
            Ok(n) => n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        if n == 0 {
            if filled == 0 {
                return Ok(None);
            }
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "EOF inside a frame length prefix",
            ));
        }
        filled += n;
    }
    let len = u64::from_le_bytes(len_bytes);
    if len > MAX_FRAME_BYTES {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds the {MAX_FRAME_BYTES}-byte cap"),
        ));
    }
    let len = len as usize;
    let mut payload = Vec::new();
    while payload.len() < len {
        // Grow by at most what has already arrived (or one chunk), so the
        // buffer never runs more than twice ahead of the peer.
        let start = payload.len();
        let step = (len - start).min(start.max(READ_CHUNK_BYTES));
        payload.resize(start + step, 0);
        r.read_exact(&mut payload[start..])?;
    }
    Ok(Some(payload))
}

// ---------------------------------------------------------------------
// Worker side
// ---------------------------------------------------------------------

/// Validates parameters + coefficients and builds the system, every
/// failure as a value.
fn build_system(params: &CircuitParams, coeffs: &[f64]) -> Result<OpticalScSystem, String> {
    params.validate().map_err(|e| e.to_string())?;
    let poly = BernsteinPoly::new(coeffs.to_vec()).map_err(|e| e.to_string())?;
    OpticalScSystem::new(*params, poly).map_err(|e| e.to_string())
}

/// The worker half of a request: turns the wire job into a [`Job`] on
/// an already-built system and evaluates it, as a value — every failure
/// (oversized response, ragged image payload, out-of-range input) comes
/// back as `Err`.
fn evaluate_shard_job(
    system: &OpticalScSystem,
    sng: SngKind,
    seed: u64,
    stream_length: u64,
    faults: Option<&FaultSpec>,
    job: &ShardJob,
) -> Result<Vec<OpticalRun>, String> {
    let stream_length =
        usize::try_from(stream_length).map_err(|_| "stream length overflows usize".to_string())?;
    // Refuse upfront a job whose response could not be framed — the
    // pool side plans against the same bound, so this only
    // triggers for foreign clients, before any evaluation work.
    let runs = job.expected_runs();
    if response_frame_bound(runs) > MAX_FRAME_BYTES {
        return Err(format!(
            "a {runs}-run response would exceed the {MAX_FRAME_BYTES}-byte frame cap — \
             split the job across more requests"
        ));
    }
    let (work, first) = match job {
        ShardJob::Batch { first_index, xs } => (Work::Batch(xs), *first_index),
        ShardJob::ImageRows {
            width,
            first_row,
            pixels,
        } => {
            let width =
                usize::try_from(*width).map_err(|_| "image width overflows usize".to_string())?;
            (Work::Image { width, pixels }, *first_row)
        }
    };
    let job = Job {
        system,
        sng,
        seed,
        stream_length,
        faults,
        work,
    };
    job.check().map_err(|e| e.to_string())?;
    evaluate_job(&BatchEvaluator::new(), &job, first).map_err(|e| e.to_string())
}

/// Evaluates one job in this process — the one evaluator behind both a
/// worker's answers and [`Executor::InProcess`]. Work units are numbered
/// from `first`: the global index of `xs[0]` for a batch, the global row
/// of the first pixel row for an image. The fault spec is validated here,
/// once, before any work, so every tier rejects the same specs.
///
/// The job must already have passed [`Job::check`].
fn evaluate_job(
    evaluator: &BatchEvaluator,
    job: &Job<'_>,
    first: u64,
) -> Result<Vec<OpticalRun>, crate::CircuitError> {
    if let Some(spec) = job.faults {
        spec.validate().map_err(|e| {
            crate::CircuitError::InvalidStructure(format!("invalid fault spec: {e}"))
        })?;
    }
    match job.work {
        Work::Batch(xs) => dispatch_sng!(job.sng, factory => {
            evaluator.evaluate_range_faulted(
                job.system,
                xs,
                job.stream_length,
                factory,
                job.seed,
                first,
                job.faults,
            )
        }),
        Work::Image { width, pixels } => dispatch_sng!(job.sng, factory => {
            image_rows_eval(evaluator, job, &factory, width, first, pixels)
        }),
    }
}

/// The image half of [`evaluate_job`] — the only row+lane pixel loop in
/// the tree: evaluates row-major pixels with the per-pixel universes
/// `mix_seed(mix_seed(seed, global row), column)`, rows fanned across
/// the evaluator's threads and each row's pixels run through the
/// lane-blocked fused kernel in register groups of 8/4/2/1 (the image
/// form of the paper's Section V.C lane bank). A fault spec rebases the
/// same way (by global row, then column), so shard boundaries, thread
/// counts and lane decompositions are all invisible in the output,
/// faulty or clean.
fn image_rows_eval<S, F>(
    evaluator: &BatchEvaluator,
    job: &Job<'_>,
    factory: &F,
    width: usize,
    first_row: u64,
    pixels: &[f64],
) -> Result<Vec<OpticalRun>, crate::CircuitError>
where
    S: osc_stochastic::sng::StochasticNumberGenerator,
    F: Fn(u64) -> S + Sync,
{
    use crate::system::EvalScratch;
    let rows: Vec<usize> = (0..pixels.len() / width).collect();
    let blocks = lane_blocks(width);
    let produced = evaluator.par_map_with(&rows, EvalScratch::new, |scratch, _, &r| {
        let row_seed = mix_seed(job.seed, first_row + r as u64);
        let row_spec = job.faults.map(|spec| spec.rebased(first_row + r as u64));
        let row_pixels = &pixels[r * width..(r + 1) * width];
        let mut out_row = Vec::with_capacity(width);
        for &(start, bw) in &blocks {
            let mut xs = [0.0f64; 8];
            for (slot, &p) in xs.iter_mut().zip(&row_pixels[start..start + bw]) {
                *slot = p.clamp(0.0, 1.0);
            }
            let runs = evaluate_lane_block(
                job.system,
                &xs[..bw],
                job.stream_length,
                factory,
                |k| mix_seed(row_seed, (start + k) as u64),
                row_spec
                    .as_ref()
                    .map(|spec| move |k: usize| spec.rebased((start + k) as u64)),
                scratch,
            )?;
            out_row.extend(runs);
        }
        Ok::<Vec<OpticalRun>, crate::CircuitError>(out_row)
    });
    let mut out = Vec::with_capacity(pixels.len());
    for row in produced {
        out.extend(row?);
    }
    Ok(out)
}

/// The worker-side circuit cache: the most recently used built systems
/// (capacity [`CIRCUIT_CACHE_CAPACITY`] unless overridden via
/// [`CIRCUIT_CACHE_ENV`]), keyed by digest and (for inline insertions)
/// the full canonical key.
struct CircuitCache {
    entries: Vec<(u64, Vec<u8>, OpticalScSystem)>,
    capacity: usize,
}

impl CircuitCache {
    /// A cache holding at most `capacity` systems (at least 1 — a
    /// zero-capacity cache would make every v2 cached reference a
    /// permanent miss loop).
    fn with_capacity(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        CircuitCache {
            entries: Vec::with_capacity(capacity),
            capacity,
        }
    }

    /// Looks a digest up, refreshing its LRU position on a hit.
    fn get(&mut self, digest: u64) -> Option<&OpticalScSystem> {
        let idx = self.entries.iter().position(|&(d, _, _)| d == digest)?;
        let entry = self.entries.remove(idx);
        self.entries.insert(0, entry);
        Some(&self.entries[0].2)
    }

    /// Resolves an inline circuit: reuses a cached system whose digest
    /// AND full key match (so a digest collision rebuilds instead of
    /// evaluating the wrong circuit), building otherwise. An insertion
    /// evicts any same-digest entry with a *different* key, so a digest
    /// maps to at most one cached system at all times — the invariant
    /// that keeps [`CircuitRef::Cached`] lookups unambiguous (the
    /// pool's key-checked mirror then guarantees a cached reference
    /// can only ever resolve to the circuit it last shipped inline).
    fn resolve_inline(
        &mut self,
        params: &CircuitParams,
        coeffs: &[f64],
    ) -> Result<&OpticalScSystem, String> {
        let key = circuit_key(params, coeffs);
        let digest = circuit_digest(params, coeffs);
        match self
            .entries
            .iter()
            .position(|(d, k, _)| *d == digest && *k == key)
        {
            Some(idx) => {
                let entry = self.entries.remove(idx);
                self.entries.insert(0, entry);
            }
            None => {
                let system = build_system(params, coeffs)?;
                self.entries.retain(|(d, _, _)| *d != digest);
                self.entries.insert(0, (digest, key, system));
                self.entries.truncate(self.capacity);
            }
        }
        Ok(&self.entries[0].2)
    }
}

/// Evaluates one v2 request against the worker's circuit cache.
fn handle_request_v2(req: &ShardRequestV2, cache: &mut CircuitCache) -> ShardResponseV2 {
    let request_id = req.request_id;
    let system = match &req.circuit {
        CircuitRef::Cached { digest } => match cache.get(*digest) {
            Some(system) => system,
            None => {
                return ShardResponseV2::CacheMiss {
                    request_id,
                    digest: *digest,
                }
            }
        },
        CircuitRef::Inline { params, coeffs } => match cache.resolve_inline(params, coeffs) {
            Ok(system) => system,
            Err(message) => {
                return ShardResponseV2::Error {
                    request_id,
                    message,
                }
            }
        },
    };
    match evaluate_shard_job(
        system,
        req.sng,
        req.seed,
        req.stream_length,
        req.faults.as_ref(),
        &req.job,
    ) {
        Ok(runs) => ShardResponseV2::Runs { request_id, runs },
        Err(message) => ShardResponseV2::Error {
            request_id,
            message,
        },
    }
}

/// Decodes a request payload, or builds the error response it is owed.
///
/// A frame outside the v2/v3 family (bad magic, the retired version 1,
/// an unknown version) is refused with request ID **0** — its ID field
/// cannot be trusted, and no pool or client issues ID 0 — while a v2/v3
/// frame that fails to decode further in echoes its own ID. Shared by
/// the worker loop and the TCP service, so both refuse identically.
pub(crate) fn decode_or_refuse(payload: &[u8]) -> Result<ShardRequestV2, ShardResponseV2> {
    decode_request_v2(payload).map_err(|e| {
        let v2_family = payload.len() >= 16
            && payload[..4] == REQUEST_MAGIC.to_le_bytes()
            && (payload[4..8] == PROTOCOL_VERSION_V2.to_le_bytes()
                || payload[4..8] == PROTOCOL_VERSION_V3.to_le_bytes());
        let request_id = if v2_family {
            u64::from_le_bytes(payload[8..16].try_into().expect("8-byte slice"))
        } else {
            0
        };
        ShardResponseV2::Error {
            request_id,
            message: format!("bad request: {e}"),
        }
    })
}

/// Answers one already-read frame payload with a v2 response frame.
/// Panics inside evaluation are caught and reported as error responses.
fn answer_payload(payload: &[u8], cache: &mut CircuitCache) -> Vec<u8> {
    let response = match decode_or_refuse(payload) {
        Err(refusal) => refusal,
        Ok(req) => {
            match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                handle_request_v2(&req, cache)
            })) {
                Ok(resp) => resp,
                Err(panic) => ShardResponseV2::Error {
                    request_id: req.request_id,
                    message: format!("worker panicked: {}", panic_message(panic.as_ref())),
                },
            }
        }
    };
    encode_response_v2(&response)
}

/// The worker loop: reads request frames from `input` until EOF,
/// answering each with exactly one v2 response frame on `output`; a
/// circuit cache (capacity [`CIRCUIT_CACHE_CAPACITY`], or
/// [`CIRCUIT_CACHE_ENV`]) persists across requests for the
/// cached-circuit path.
///
/// Every failure mode that can be expressed as a value is: malformed
/// requests, invalid configurations and evaluation errors come back as
/// error responses, frames outside the v2/v3 family get the ID-0
/// refusal, and panics inside
/// evaluation are caught and reported the same way — the process
/// boundary only ever sees clean frames or EOF. The loop survives every
/// answered error, so one bad request never costs a live worker.
///
/// # Errors
///
/// Propagates I/O failures on the transport itself (a vanished pipe, a
/// truncated frame, a length prefix above [`MAX_FRAME_BYTES`]) — the
/// cases where the stream cannot be resynchronized and exiting is the
/// only safe answer; the pool sees a dead worker and retries on a
/// fresh process.
pub fn serve<R: Read, W: Write>(mut input: R, mut output: W) -> std::io::Result<()> {
    // Test hook: a positive OSC_SERVE_DELAY_MS makes this worker slow
    // (sleep before each answer) without changing a single output byte.
    let delay = std::env::var(SERVE_DELAY_ENV)
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .filter(|&ms| ms > 0)
        .map(Duration::from_millis);
    let capacity = std::env::var(CIRCUIT_CACHE_ENV)
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or(CIRCUIT_CACHE_CAPACITY);
    let mut cache = CircuitCache::with_capacity(capacity);
    while let Some(payload) = read_frame(&mut input)? {
        if let Some(delay) = delay {
            std::thread::sleep(delay);
        }
        write_frame(&mut output, &answer_payload(&payload, &mut cache))?;
        output.flush()?;
    }
    Ok(())
}

fn panic_message(panic: &(dyn std::any::Any + Send)) -> &str {
    if let Some(s) = panic.downcast_ref::<&str>() {
        s
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s
    } else {
        "non-string panic payload"
    }
}

// ---------------------------------------------------------------------
// Parent side: worker location and request planning
// ---------------------------------------------------------------------

/// Locates a worker binary named `name`: a set [`WORKER_ENV`]
/// environment variable is authoritative (a path that does not exist
/// yields `None` rather than silently falling back to a possibly stale
/// sibling binary); otherwise the directory of the current executable
/// and its parent are searched (covering `target/<profile>/` siblings
/// and `target/<profile>/deps/` test binaries).
pub fn locate_worker(name: &str) -> Option<PathBuf> {
    if let Ok(path) = std::env::var(WORKER_ENV) {
        let path = PathBuf::from(path);
        return path.is_file().then_some(path);
    }
    let file = format!("{name}{}", std::env::consts::EXE_SUFFIX);
    let exe = std::env::current_exe().ok()?;
    let dir = exe.parent()?;
    [dir.join(&file), dir.parent()?.join(&file)]
        .into_iter()
        .find(|candidate| candidate.is_file())
}

/// Conservative upper bound on a request's encoded frame size, in
/// bytes (v2 header + params + coefficients + job payload, with
/// slack).
fn request_frame_bound(req: &ShardRequest) -> u64 {
    let items = match &req.job {
        ShardJob::Batch { xs, .. } => xs.len(),
        ShardJob::ImageRows { pixels, .. } => pixels.len(),
    };
    256 + (req.coeffs.len() as u64 + items as u64) * 8
}

/// The encoded size of a runs response carrying `runs` items (header +
/// count + 40 bytes per run, with slack).
fn response_frame_bound(runs: usize) -> u64 {
    32 + runs as u64 * 40
}

/// Rejects a request whose encoded frame — or whose *response* frame —
/// would exceed [`MAX_FRAME_BYTES`], so an over-large shard fails
/// upfront as a clean plan error instead of after the worker has done
/// all the work (the response cap bounds one shard to ~6.7M items).
fn check_frame_bounds(req: &ShardRequest, expected: usize) -> Result<(), ShardError> {
    let request = request_frame_bound(req);
    if request > MAX_FRAME_BYTES {
        return Err(ShardError::InvalidPlan(format!(
            "request frame (~{request} bytes) exceeds the {MAX_FRAME_BYTES}-byte cap — \
             split the batch across more shards"
        )));
    }
    let response = response_frame_bound(expected);
    if response > MAX_FRAME_BYTES {
        return Err(ShardError::InvalidPlan(format!(
            "a {expected}-run response (~{response} bytes) would exceed the \
             {MAX_FRAME_BYTES}-byte cap — split the batch across more shards"
        )));
    }
    Ok(())
}

// ---------------------------------------------------------------------
// One dispatch point over the serving tiers
// ---------------------------------------------------------------------

/// What one [`Job`] evaluates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Work<'a> {
    /// A flat batch: item `i` evaluates `xs[i]` on generators derived
    /// from `mix_seed(seed, i)`.
    Batch(&'a [f64]),
    /// A row-major image: the pixel at row `y`, column `x` is clamped to
    /// `[0, 1]` and evaluates on generators derived from
    /// `mix_seed(mix_seed(seed, y), x)` — the row+lane pipeline
    /// derivation.
    Image {
        /// Image width in pixels (row stride).
        width: usize,
        /// Row-major pixels, a whole number of `width`-sized rows.
        pixels: &'a [f64],
    },
}

/// One evaluation an [`Executor`] runs: a built system plus every field
/// a [`ShardRequest`] carries, borrowed.
#[derive(Debug, Clone, Copy)]
pub struct Job<'a> {
    /// The circuit to evaluate.
    pub system: &'a OpticalScSystem,
    /// Generator kind for every item.
    pub sng: SngKind,
    /// Seed the per-item universes derive from.
    pub seed: u64,
    /// Stream length (bits) per evaluation.
    pub stream_length: usize,
    /// Optional fault process, rebased per item like the generators.
    pub faults: Option<&'a FaultSpec>,
    /// The inputs.
    pub work: Work<'a>,
}

impl<'a> Job<'a> {
    /// A flat-batch job (argument order of [`ShardRequest::batch`]).
    pub fn batch(
        system: &'a OpticalScSystem,
        sng: SngKind,
        xs: &'a [f64],
        stream_length: usize,
        seed: u64,
        faults: Option<&'a FaultSpec>,
    ) -> Job<'a> {
        Job {
            system,
            sng,
            seed,
            stream_length,
            faults,
            work: Work::Batch(xs),
        }
    }

    /// A whole-image job (argument order of
    /// [`ShardRequest::whole_image`]).
    pub fn image(
        system: &'a OpticalScSystem,
        sng: SngKind,
        width: usize,
        pixels: &'a [f64],
        stream_length: usize,
        seed: u64,
        faults: Option<&'a FaultSpec>,
    ) -> Job<'a> {
        Job {
            system,
            sng,
            seed,
            stream_length,
            faults,
            work: Work::Image { width, pixels },
        }
    }

    /// Rejects an image whose pixels are not a whole number of
    /// `width`-sized rows.
    fn check(&self) -> Result<(), ShardError> {
        match self.work {
            Work::Image { width, pixels } if width == 0 || !pixels.len().is_multiple_of(width) => {
                Err(ShardError::InvalidPlan(format!(
                    "pixel count {} is not a multiple of width {width}",
                    pixels.len()
                )))
            }
            _ => Ok(()),
        }
    }

    /// The units a plan splits (batch items or image rows) and the runs
    /// each produces. The job must have passed [`Job::check`].
    fn units(&self) -> (usize, usize) {
        match self.work {
            Work::Batch(xs) => (xs.len(), 1),
            Work::Image { width, pixels } => (pixels.len() / width, width),
        }
    }

    /// The wire form of units `start .. start + len`.
    fn slice(&self, start: usize, len: usize) -> ShardRequest {
        let job = match self.work {
            Work::Batch(xs) => ShardJob::Batch {
                first_index: start as u64,
                xs: xs[start..start + len].to_vec(),
            },
            Work::Image { width, pixels } => ShardJob::ImageRows {
                width: width as u64,
                first_row: start as u64,
                pixels: pixels[start * width..(start + len) * width].to_vec(),
            },
        };
        ShardRequest {
            params: *self.system.params(),
            coeffs: self.system.polynomial().coeffs().to_vec(),
            sng: self.sng,
            seed: self.seed,
            stream_length: self.stream_length as u64,
            faults: self.faults.copied(),
            job,
        }
    }

    /// The whole job as one wire request — what a
    /// [`service::ServiceClient`] ships.
    ///
    /// # Errors
    ///
    /// [`ShardError::InvalidPlan`] when an image's pixels are not a
    /// whole number of `width`-sized rows.
    pub fn request(&self) -> Result<ShardRequest, ShardError> {
        self.check()?;
        Ok(self.slice(0, self.units().0))
    }
}

/// The serving tier jobs run on — the one dispatch point over
/// in-process, spawn-per-call, pooled and TCP-served evaluation. Every
/// arm returns bit-identical runs (see the module-level determinism
/// contract).
pub enum Executor<'a> {
    /// In this process, through the workers' own job evaluator.
    InProcess(&'a BatchEvaluator),
    /// A fresh pool spawned from the config for every job and dropped
    /// after it: spawn + circuit build paid per job — the baseline a
    /// persistent pool amortizes.
    Spawn(&'a PoolConfig),
    /// A persistent pool. A single job is planned across the live
    /// workers; several jobs travel as one request each through one
    /// pipelined [`WorkerPool::run_requests`] call — the many-distinct-
    /// circuits profile the digest-keyed circuit cache was built for.
    Pool(&'a mut WorkerPool),
    /// A TCP service connection, one request per job.
    Service(&'a mut ServiceClient),
}

impl Executor<'_> {
    /// Runs every job and returns each job's runs, in job order.
    ///
    /// # Errors
    ///
    /// [`ExecError::Shard`] for a ragged image job (before any work) and
    /// for spawn, pool and service failures; [`ExecError::Circuit`] for
    /// in-process evaluation failures (an invalid fault spec included —
    /// the other tiers report that one as a remote error).
    pub fn run(&mut self, jobs: &[Job<'_>]) -> Result<Vec<Vec<OpticalRun>>, ExecError> {
        for job in jobs {
            job.check()?;
        }
        match self {
            Executor::InProcess(evaluator) => jobs
                .iter()
                .map(|job| Ok(evaluate_job(evaluator, job, 0)?))
                .collect(),
            Executor::Spawn(config) => jobs
                .iter()
                .map(|job| planned(&mut config.clone().spawn()?, job))
                .collect(),
            Executor::Pool(pool) => match jobs {
                [job] => Ok(vec![planned(pool, job)?]),
                _ => {
                    let requests = jobs
                        .iter()
                        .map(Job::request)
                        .collect::<Result<Vec<_>, _>>()?;
                    let expected: Vec<usize> =
                        requests.iter().map(|r| r.job.expected_runs()).collect();
                    Ok(pool.run_requests(&requests, &expected)?)
                }
            },
            Executor::Service(client) => jobs
                .iter()
                .map(|job| Ok(client.request(&job.request()?)?))
                .collect(),
        }
    }
}

/// Runs one job on a pool, its units planned across the live workers
/// and the shard outputs merged in plan order.
fn planned(pool: &mut WorkerPool, job: &Job<'_>) -> Result<Vec<OpticalRun>, ExecError> {
    let (units, runs_per_unit) = job.units();
    let plan = ShardPlan::new(units, pool.workers());
    let (requests, expected): (Vec<ShardRequest>, Vec<usize>) = plan
        .ranges()
        .iter()
        .map(|&(start, len)| (job.slice(start, len), len * runs_per_unit))
        .unzip();
    Ok(pool
        .run_requests(&requests, &expected)?
        .into_iter()
        .flatten()
        .collect())
}

/// Errors of an [`Executor`] run.
#[derive(Debug, Clone, PartialEq)]
pub enum ExecError {
    /// A system failed to build, or a job failed to evaluate in this
    /// process.
    Circuit(crate::CircuitError),
    /// A spawned, pooled or served evaluation failed, or the job was
    /// unplannable.
    Shard(ShardError),
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::Circuit(e) => write!(f, "circuit error: {e}"),
            ExecError::Shard(e) => write!(f, "shard error: {e}"),
        }
    }
}

impl std::error::Error for ExecError {}

impl From<crate::CircuitError> for ExecError {
    fn from(e: crate::CircuitError) -> Self {
        ExecError::Circuit(e)
    }
}

impl From<ShardError> for ExecError {
    fn from(e: ShardError) -> Self {
        ExecError::Shard(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fig5_request(job: ShardJob) -> ShardRequest {
        ShardRequest {
            params: CircuitParams::paper_fig5(),
            coeffs: vec![0.25, 0.625, 0.75],
            sng: SngKind::Xoshiro,
            seed: 42,
            stream_length: 256,
            faults: None,
            job,
        }
    }

    /// Encodes `req` as an inline frame under `id` and reassembles the
    /// decoded request.
    fn roundtrip(req: &ShardRequest, id: u64) -> ShardRequest {
        let decoded = decode_request_v2(&encode_request_v2(req, id, None)).unwrap();
        assert_eq!(decoded.request_id, id);
        let CircuitRef::Inline { params, coeffs } = decoded.circuit else {
            panic!("expected an inline circuit, got {:?}", decoded.circuit);
        };
        ShardRequest {
            params,
            coeffs,
            sng: decoded.sng,
            seed: decoded.seed,
            stream_length: decoded.stream_length,
            faults: decoded.faults,
            job: decoded.job,
        }
    }

    #[test]
    fn plan_covers_everything_contiguously_and_balanced() {
        for items in 0..40usize {
            for shards in 1..10usize {
                let plan = ShardPlan::new(items, shards);
                assert_eq!(plan.items(), items, "items={items} shards={shards}");
                let mut next = 0usize;
                let (mut min_len, mut max_len) = (usize::MAX, 0usize);
                for &(start, len) in plan.ranges() {
                    assert_eq!(start, next, "items={items} shards={shards}");
                    assert!(len > 0, "empty range must be dropped");
                    min_len = min_len.min(len);
                    max_len = max_len.max(len);
                    next = start + len;
                }
                assert_eq!(next, items);
                if !plan.ranges().is_empty() {
                    assert!(max_len - min_len <= 1, "balanced split");
                    assert_eq!(plan.ranges().len(), shards.min(items));
                }
            }
        }
        assert_eq!(ShardPlan::new(10, 0).ranges().len(), 1, "0 shards → 1");
        assert_eq!(
            ShardPlan::new(7, 3).ranges(),
            &[(0, 3), (3, 2), (5, 2)],
            "ragged split"
        );
    }

    #[test]
    fn batch_request_roundtrips_bit_exactly() {
        // Awkward payload values: signaling bit patterns must survive the
        // wire unchanged (the contract serializes f64 bit patterns).
        let req = fig5_request(ShardJob::Batch {
            first_index: 3,
            xs: vec![0.0, 1.0, 0.123_456_789, f64::MIN_POSITIVE],
        });
        assert_eq!(roundtrip(&req, 3), req);
    }

    #[test]
    fn image_request_roundtrips() {
        let mut req = fig5_request(ShardJob::ImageRows {
            width: 3,
            first_row: 7,
            pixels: vec![0.1, 0.2, 0.3, 0.4, 0.5, 0.6],
        });
        req.sng = SngKind::Counter;
        assert_eq!(roundtrip(&req, 4), req);
    }

    #[test]
    fn responses_roundtrip() {
        let runs = vec![
            OpticalRun {
                estimate: 0.5,
                ideal_estimate: 0.51,
                exact: 0.52,
                observed_ber: 1e-6,
                stream_length: 1024,
            },
            OpticalRun {
                estimate: 0.0,
                ideal_estimate: 1.0,
                exact: 0.25,
                observed_ber: 0.0,
                stream_length: 1,
            },
        ];
        let ok = ShardResponseV2::Runs {
            request_id: u64::MAX,
            runs,
        };
        assert_eq!(decode_response_v2(&encode_response_v2(&ok)).unwrap(), ok);
        let err = ShardResponseV2::Error {
            request_id: 0,
            message: String::new(),
        };
        assert_eq!(decode_response_v2(&encode_response_v2(&err)).unwrap(), err);
    }

    #[test]
    fn decode_rejects_malformed_payloads() {
        let good = encode_request_v2(
            &fig5_request(ShardJob::Batch {
                first_index: 0,
                xs: vec![0.5],
            }),
            1,
            None,
        );
        // Wrong magic.
        let mut bad = good.clone();
        bad[0] ^= 0xFF;
        assert!(decode_request_v2(&bad).unwrap_err().contains("magic"));
        // Wrong version, including the retired version 1.
        for version in [1u32, 99] {
            let mut bad = good.clone();
            bad[4..8].copy_from_slice(&version.to_le_bytes());
            assert!(decode_request_v2(&bad).unwrap_err().contains("version"));
        }
        // Truncation at every length: never a panic, always an Err.
        for cut in 0..good.len() {
            assert!(decode_request_v2(&good[..cut]).is_err(), "cut={cut}");
        }
        // Trailing garbage.
        let mut bad = good.clone();
        bad.push(0);
        assert!(decode_request_v2(&bad).unwrap_err().contains("trailing"));
        // A declared element count far beyond the payload must be
        // rejected before any allocation attempt. The coefficient count
        // follows the 36-byte header and the 160-byte params block.
        let mut huge = good.clone();
        let coeff_count_at = 4 + 4 + 8 + 4 + 8 + 8 + 8 + 19 * 8;
        assert_eq!(
            good[coeff_count_at..coeff_count_at + 8],
            3u64.to_le_bytes(),
            "coefficient-count offset moved; update the test"
        );
        huge[coeff_count_at..coeff_count_at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(decode_request_v2(&huge).is_err());
        // Response-side garbage.
        assert!(decode_response_v2(&good).unwrap_err().contains("magic"));
        assert!(decode_response_v2(&[]).is_err());
    }

    #[test]
    fn unframeable_shards_fail_as_plan_errors_before_any_work() {
        // A shard whose response could not fit in one frame must be
        // rejected upfront — not after minutes of evaluation.
        let req = fig5_request(ShardJob::Batch {
            first_index: 0,
            xs: vec![0.5], // stand-in; the expected count carries the size
        });
        let too_many_runs = (MAX_FRAME_BYTES / 40 + 1) as usize;
        let err = check_frame_bounds(&req, too_many_runs).unwrap_err();
        assert!(
            matches!(err, ShardError::InvalidPlan(ref msg) if msg.contains("response")),
            "{err}"
        );
        // A request body over the cap is equally a plan error. Claiming
        // a huge coefficient vector stands in for actually allocating
        // gigabytes of inputs.
        let mut huge = fig5_request(ShardJob::Batch {
            first_index: 0,
            xs: vec![0.5],
        });
        huge.coeffs = vec![0.5; (MAX_FRAME_BYTES / 8 + 1) as usize];
        let err = check_frame_bounds(&huge, 1).unwrap_err();
        assert!(
            matches!(err, ShardError::InvalidPlan(ref msg) if msg.contains("request")),
            "{err}"
        );
        // Ordinary shards pass with room to spare.
        check_frame_bounds(&req, 1).unwrap();
        check_frame_bounds(&req, 1_000_000).unwrap();
        // The worker enforces the same response bound as a value.
        let sys = OpticalScSystem::new(
            CircuitParams::paper_fig5(),
            BernsteinPoly::new(vec![0.25, 0.625, 0.75]).unwrap(),
        )
        .unwrap();
        let msg = evaluate_shard_job(
            &sys,
            SngKind::Xoshiro,
            1,
            64,
            None,
            &ShardJob::Batch {
                first_index: 0,
                xs: vec![0.0; too_many_runs],
            },
        )
        .unwrap_err();
        assert!(msg.contains("frame cap"), "{msg}");
    }

    #[test]
    fn v2_requests_roundtrip_inline_and_cached() {
        let base = fig5_request(ShardJob::Batch {
            first_index: 3,
            xs: vec![0.0, 1.0, 0.123_456_789, f64::MIN_POSITIVE],
        });
        // Inline: the circuit travels in full.
        let decoded = decode_request_v2(&encode_request_v2(&base, 0xFEED, None)).unwrap();
        assert_eq!(decoded.request_id, 0xFEED);
        assert_eq!(decoded.sng, base.sng);
        assert_eq!(decoded.seed, base.seed);
        assert_eq!(decoded.stream_length, base.stream_length);
        assert_eq!(decoded.job, base.job);
        match &decoded.circuit {
            CircuitRef::Inline { params, coeffs } => {
                assert_eq!(*params, base.params);
                assert_eq!(*coeffs, base.coeffs);
            }
            other => panic!("expected inline circuit, got {other:?}"),
        }
        // Cached: only the digest travels.
        let digest = circuit_digest(&base.params, &base.coeffs);
        let frame = encode_request_v2(&base, 7, Some(digest));
        assert!(
            frame.len() < encode_request_v2(&base, 7, None).len(),
            "cached reference must be smaller than the inline form"
        );
        let decoded = decode_request_v2(&frame).unwrap();
        assert_eq!(decoded.circuit, CircuitRef::Cached { digest });
        // Image jobs ride v2 unchanged.
        let img = fig5_request(ShardJob::ImageRows {
            width: 3,
            first_row: 7,
            pixels: vec![0.1, 0.2, 0.3, 0.4, 0.5, 0.6],
        });
        let decoded = decode_request_v2(&encode_request_v2(&img, 1, None)).unwrap();
        assert_eq!(decoded.job, img.job);
    }

    #[test]
    fn v2_responses_roundtrip_all_statuses() {
        let runs = ShardResponseV2::Runs {
            request_id: 42,
            runs: vec![OpticalRun {
                estimate: 0.5,
                ideal_estimate: 0.51,
                exact: 0.52,
                observed_ber: 1e-6,
                stream_length: 1024,
            }],
        };
        assert_eq!(
            decode_response_v2(&encode_response_v2(&runs)).unwrap(),
            runs
        );
        let err = ShardResponseV2::Error {
            request_id: 43,
            message: "no circuit for you".into(),
        };
        assert_eq!(decode_response_v2(&encode_response_v2(&err)).unwrap(), err);
        let miss = ShardResponseV2::CacheMiss {
            request_id: 44,
            digest: 0xDEAD_BEEF,
        };
        assert_eq!(
            decode_response_v2(&encode_response_v2(&miss)).unwrap(),
            miss
        );
        // A response with any other version word is rejected.
        let mut v1 = encode_response_v2(&miss);
        v1[4..8].copy_from_slice(&1u32.to_le_bytes());
        assert!(decode_response_v2(&v1).unwrap_err().contains("version"));
    }

    #[test]
    fn faulted_requests_negotiate_v3_and_roundtrip() {
        let mut req = fig5_request(ShardJob::Batch {
            first_index: 2,
            xs: vec![0.25, 0.75],
        });
        // Fault-free traffic must stay byte-for-byte on version 2.
        let clean = encode_request_v2(&req, 5, None);
        assert_eq!(clean[4..8], PROTOCOL_VERSION_V2.to_le_bytes());
        // A fault spec upgrades the frame to v3 and roundtrips exactly,
        // including the stuck-at block and both seeds.
        req.faults = Some(FaultSpec {
            flip_probability: 0.01,
            shift_probability: 0.001,
            stuck: Some(StuckAt {
                mask: 0x8000_0000_0000_0001,
                value: 1,
            }),
            ..FaultSpec::with_seed(99)
        });
        let frame = encode_request_v2(&req, 5, None);
        assert_eq!(frame[4..8], PROTOCOL_VERSION_V3.to_le_bytes());
        let decoded = decode_request_v2(&frame).unwrap();
        assert_eq!(decoded.request_id, 5);
        assert_eq!(decoded.faults, req.faults);
        assert_eq!(decoded.job, req.job);
        // Cached circuit references compose with the fault block.
        let digest = circuit_digest(&req.params, &req.coeffs);
        let cached = decode_request_v2(&encode_request_v2(&req, 6, Some(digest))).unwrap();
        assert_eq!(cached.circuit, CircuitRef::Cached { digest });
        assert_eq!(cached.faults, req.faults);
        // Flip-only specs roundtrip without a stuck-at block.
        req.faults = Some(FaultSpec::flips(0.05, 7));
        let decoded = decode_request_v2(&encode_request_v2(&req, 7, None)).unwrap();
        assert_eq!(decoded.faults, req.faults);
        // Truncation inside the fault block: never a panic, always Err.
        let frame = encode_request_v2(&req, 7, None);
        for cut in 0..frame.len() {
            assert!(decode_request_v2(&frame[..cut]).is_err(), "cut={cut}");
        }
    }

    #[test]
    fn malformed_fault_specs_are_decode_errors_not_panics() {
        let mut req = fig5_request(ShardJob::Batch {
            first_index: 0,
            xs: vec![0.5],
        });
        req.faults = Some(FaultSpec::flips(0.5, 1));
        let good = encode_request_v2(&req, 1, None);
        // The flip probability sits directly after the 1-byte presence
        // flag at offset 37 (4 magic + 4 version + 8 id + 4 tag bytes +
        // 8 seed + 8 stream length + 1 flag).
        let prob_at = 37;
        assert_eq!(
            f64::from_bits(u64::from_le_bytes(
                good[prob_at..prob_at + 8].try_into().unwrap()
            )),
            0.5,
            "fault-block offset moved; update the test"
        );
        for bad_prob in [f64::NAN, f64::INFINITY, -0.25, 1.5] {
            let mut bad = good.clone();
            bad[prob_at..prob_at + 8].copy_from_slice(&bad_prob.to_bits().to_le_bytes());
            let err = decode_request_v2(&bad).unwrap_err();
            assert!(err.contains("fault"), "{err}");
        }
        // The serve loop answers the malformed spec as an error value in
        // a clean v2 response frame — never a worker death.
        let mut bad = good.clone();
        bad[prob_at..prob_at + 8].copy_from_slice(&f64::NAN.to_bits().to_le_bytes());
        let mut input = Vec::new();
        write_frame(&mut input, &bad).unwrap();
        let mut output = Vec::new();
        serve(&input[..], &mut output).unwrap();
        let payload = read_frame(&mut &output[..]).unwrap().unwrap();
        match decode_response_v2(&payload).unwrap() {
            ShardResponseV2::Error {
                request_id,
                message,
            } => {
                assert_eq!(request_id, 1, "request ID echoed on decode failure");
                assert!(message.contains("fault"), "{message}");
            }
            other => panic!("expected an error response, got {other:?}"),
        }
    }

    #[test]
    fn circuit_digest_separates_circuits() {
        let params = CircuitParams::paper_fig5();
        let coeffs = [0.25, 0.625, 0.75];
        let d = circuit_digest(&params, &coeffs);
        assert_eq!(d, circuit_digest(&params, &coeffs), "digest is stable");
        assert_ne!(d, circuit_digest(&params, &[0.25, 0.625, 0.76]));
        let mut other = params;
        other.order = 3;
        assert_ne!(d, circuit_digest(&other, &coeffs));
    }

    #[test]
    fn backend_tag_separates_digests_and_cache_entries() {
        use crate::backend::BackendKind;
        let mrr = CircuitParams::paper_fig5();
        let nano = mrr.with_backend(BackendKind::Nanocavity);
        let coeffs = [0.25, 0.625, 0.75];
        // Identical numeric params + coefficients, different physics:
        // the canonical bytes and the digest must differ.
        assert_ne!(circuit_key(&mrr, &coeffs), circuit_key(&nano, &coeffs));
        assert_ne!(
            circuit_digest(&mrr, &coeffs),
            circuit_digest(&nano, &coeffs)
        );
        // Backward-compat rule: the default backend's tag bits are all
        // zero, so the order word encodes exactly as before the tag.
        let key = circuit_key(&mrr, &coeffs);
        assert_eq!(&key[..8], &(mrr.order as u64).to_le_bytes());
        // The worker-side cache therefore holds both as distinct
        // entries, each resolving to its own physics — the regression
        // this pins: without the tag these two would collide and the
        // second request would silently reuse the first's tables.
        let mut cache = CircuitCache::with_capacity(4);
        cache.resolve_inline(&mrr, &coeffs).unwrap();
        cache.resolve_inline(&nano, &coeffs).unwrap();
        assert_eq!(cache.entries.len(), 2);
        let mrr_hit = cache.get(circuit_digest(&mrr, &coeffs)).unwrap();
        assert_eq!(mrr_hit.backend_kind(), BackendKind::MrrMzi);
        let nano_hit = cache.get(circuit_digest(&nano, &coeffs)).unwrap();
        assert_eq!(nano_hit.backend_kind(), BackendKind::Nanocavity);
    }

    #[test]
    fn backend_tag_round_trips_and_unknown_tags_are_rejected() {
        use crate::backend::BackendKind;
        let req = ShardRequest {
            params: CircuitParams::paper_fig5().with_backend(BackendKind::Nanocavity),
            coeffs: vec![0.25, 0.625, 0.75],
            sng: SngKind::Xoshiro,
            stream_length: 64,
            seed: 7,
            job: ShardJob::Batch {
                first_index: 0,
                xs: vec![0.5],
            },
            faults: None,
        };
        assert_eq!(roundtrip(&req, 3).params.backend, BackendKind::Nanocavity);
        // An unknown tag fails decoding loudly instead of guessing.
        let mut frame = encode_request_v2(&req, 3, None);
        let order_word_at = 36; // magic + version + id + tag bytes + seed + stream
        assert_eq!(frame[order_word_at + 4], 1, "backend-tag offset moved");
        frame[order_word_at + 4..order_word_at + 8].copy_from_slice(&0xBEEFu32.to_le_bytes());
        assert!(decode_request_v2(&frame)
            .unwrap_err()
            .contains("unknown backend tag"));
    }

    #[test]
    fn circuit_cache_capacity_bounds_evictions() {
        let coeffs = [0.25, 0.625, 0.75];
        let a = CircuitParams::paper_fig5();
        let b = a.with_probe_power(Milliwatts::new(2.0));
        let c = a.with_probe_power(Milliwatts::new(3.0));
        let mut cache = CircuitCache::with_capacity(2);
        cache.resolve_inline(&a, &coeffs).unwrap();
        cache.resolve_inline(&b, &coeffs).unwrap();
        // Refresh `a`, then insert a third circuit: the LRU entry (`b`)
        // is the one evicted, and the cache never exceeds its capacity.
        assert!(cache.get(circuit_digest(&a, &coeffs)).is_some());
        cache.resolve_inline(&c, &coeffs).unwrap();
        assert_eq!(cache.entries.len(), 2);
        assert!(cache.get(circuit_digest(&b, &coeffs)).is_none());
        assert!(cache.get(circuit_digest(&a, &coeffs)).is_some());
        assert!(cache.get(circuit_digest(&c, &coeffs)).is_some());
        // Capacity 0 is clamped to 1 rather than caching nothing.
        let mut tiny = CircuitCache::with_capacity(0);
        tiny.resolve_inline(&a, &coeffs).unwrap();
        assert_eq!(tiny.entries.len(), 1);
    }

    #[test]
    fn v2_decode_rejects_malformed_payloads() {
        let req = fig5_request(ShardJob::Batch {
            first_index: 0,
            xs: vec![0.5],
        });
        let good = encode_request_v2(&req, 9, None);
        // Truncation at every length: never a panic, always an Err.
        for cut in 0..good.len() {
            assert!(decode_request_v2(&good[..cut]).is_err(), "cut={cut}");
        }
        // Unknown circuit kind.
        let mut bad = good.clone();
        bad[16] = 9;
        assert!(decode_request_v2(&bad).unwrap_err().contains("circuit"));
        // Trailing garbage.
        let mut bad = good.clone();
        bad.push(0);
        assert!(decode_request_v2(&bad).unwrap_err().contains("trailing"));
        // A frame claiming the retired version 1 is cleanly rejected.
        let mut v1 = good.clone();
        v1[4..8].copy_from_slice(&1u32.to_le_bytes());
        assert!(decode_request_v2(&v1).unwrap_err().contains("version"));
        // Response-side truncation sweep.
        let resp = encode_response_v2(&ShardResponseV2::CacheMiss {
            request_id: 1,
            digest: 2,
        });
        for cut in 0..resp.len() {
            assert!(decode_response_v2(&resp[..cut]).is_err(), "cut={cut}");
        }
    }

    #[test]
    fn framing_roundtrips_and_detects_truncation() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut reader = &buf[..];
        assert_eq!(read_frame(&mut reader).unwrap().unwrap(), b"hello");
        assert_eq!(read_frame(&mut reader).unwrap().unwrap(), b"");
        assert!(read_frame(&mut reader).unwrap().is_none(), "clean EOF");
        // EOF inside a frame is an error, not a silent None.
        let mut truncated = &buf[..3];
        assert!(read_frame(&mut truncated).is_err());
        let mut mid_payload = &buf[..10];
        assert_eq!(
            read_frame(&mut mid_payload).unwrap_err().kind(),
            std::io::ErrorKind::UnexpectedEof
        );
        // A hostile length prefix is rejected before allocating — both
        // the absurd and the just-past-the-cap case.
        for prefix in [u64::MAX, MAX_FRAME_BYTES + 1] {
            let mut hostile = Vec::new();
            hostile.extend_from_slice(&prefix.to_le_bytes());
            let err = read_frame(&mut &hostile[..]).unwrap_err();
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{prefix}");
        }
    }

    /// Drives a request through the in-process worker loop, returning
    /// the runs or the error message.
    fn serve_one(req: &ShardRequest) -> Result<Vec<OpticalRun>, String> {
        let mut input = Vec::new();
        write_frame(&mut input, &encode_request_v2(req, 77, None)).unwrap();
        let mut output = Vec::new();
        serve(&input[..], &mut output).unwrap();
        let payload = read_frame(&mut &output[..]).unwrap().expect("one response");
        match decode_response_v2(&payload).unwrap() {
            ShardResponseV2::Runs {
                request_id: 77,
                runs,
            } => Ok(runs),
            ShardResponseV2::Error {
                request_id: 77,
                message,
            } => Err(message),
            other => panic!("unexpected response {other:?}"),
        }
    }

    #[test]
    fn serve_answers_invalid_configs_as_values() {
        // Degree mismatch: coefficients say order 1, params say order 2.
        let mut req = fig5_request(ShardJob::Batch {
            first_index: 0,
            xs: vec![0.5],
        });
        req.coeffs = vec![0.5, 0.5];
        let msg = serve_one(&req).unwrap_err();
        assert!(msg.contains("degree"), "{msg}");
        // Out-of-range input.
        let req = fig5_request(ShardJob::Batch {
            first_index: 0,
            xs: vec![0.5, 1.5],
        });
        assert!(serve_one(&req).is_err());
        // Invalid params (order zero).
        let mut req = fig5_request(ShardJob::Batch {
            first_index: 0,
            xs: vec![0.5],
        });
        req.params.order = 0;
        assert!(serve_one(&req).is_err());
        // Ragged image payload.
        let req = fig5_request(ShardJob::ImageRows {
            width: 3,
            first_row: 0,
            pixels: vec![0.5; 7],
        });
        let msg = serve_one(&req).unwrap_err();
        assert!(msg.contains("multiple"), "{msg}");
        // A garbage frame still gets a clean error frame back, refused
        // under request ID 0.
        let mut input = Vec::new();
        write_frame(&mut input, b"not a request").unwrap();
        let mut output = Vec::new();
        serve(&input[..], &mut output).unwrap();
        let payload = read_frame(&mut &output[..]).unwrap().unwrap();
        assert!(matches!(
            decode_response_v2(&payload).unwrap(),
            ShardResponseV2::Error { request_id: 0, .. }
        ));
    }

    #[test]
    fn serve_batch_matches_in_process_evaluation() {
        let system = OpticalScSystem::new(
            CircuitParams::paper_fig5(),
            BernsteinPoly::new(vec![0.25, 0.625, 0.75]).unwrap(),
        )
        .unwrap();
        let xs: Vec<f64> = (0..9).map(|i| i as f64 / 8.0).collect();
        let direct = BatchEvaluator::with_threads(2)
            .evaluate_many(&system, &xs, 256, XoshiroSng::new, 42)
            .unwrap();
        // Split 4 + 5 across two served requests.
        let mut merged = Vec::new();
        for (start, len) in [(0usize, 4usize), (4, 5)] {
            let req = fig5_request(ShardJob::Batch {
                first_index: start as u64,
                xs: xs[start..start + len].to_vec(),
            });
            merged.extend(serve_one(&req).unwrap());
        }
        assert_eq!(merged, direct);
    }

    #[test]
    fn locate_worker_honors_env_override() {
        // Point the override at a file that certainly exists.
        let me = std::env::current_exe().unwrap();
        std::env::set_var(WORKER_ENV, &me);
        assert_eq!(locate_worker("no-such-binary"), Some(me));
        // An explicit override naming a missing file is authoritative:
        // no fallback to sibling search, so a typo'd path fails fast
        // instead of picking up a stale binary.
        std::env::set_var(WORKER_ENV, "/nonexistent/override/worker");
        assert_eq!(locate_worker("no-such-binary"), None);
        std::env::remove_var(WORKER_ENV);
        assert_eq!(locate_worker("no-such-binary-anywhere"), None);
    }
}
