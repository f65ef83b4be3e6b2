//! Shard worker: the subprocess half of `osc_core::batch::shard`.
//!
//! ```text
//! shard_worker            # serve the wire protocol over stdin/stdout
//! ```
//!
//! Speaks the framed v2/v3 binary protocol documented in
//! [`osc_core::batch::shard`]: request IDs, cached-circuit references
//! (the last few built circuits persist across requests in an LRU
//! cache, so a pool's repeat requests skip the rebuild) and, on v3, a
//! fault spec. Reads request frames from stdin until EOF, answering
//! each with one v2 response frame on stdout. Every expressible failure
//! — malformed frames, invalid configurations, evaluation errors,
//! caught panics — is reported *as an error response*, and a frame
//! outside the v2/v3 family (bad magic, version 1, an unknown version)
//! is refused with an error under request ID 0, so the pool never sees
//! this process abort on bad input; a non-zero exit happens only when
//! the transport itself dies (truncated frame, oversized length prefix,
//! vanished pipe).
//!
//! Environment:
//!
//! - `OSC_THREADS` — in-process thread count (the pool exports it when
//!   pinned via `PoolConfig::with_worker_threads`);
//! - `OSC_CIRCUIT_CACHE` — circuit-cache capacity, a positive integer
//!   (default 8; anything else falls back to the default);
//! - `OSC_SERVE_DELAY_MS` — a test hook delaying every answer by that
//!   many milliseconds (unset, zero or unparsable means no delay).

use std::io::{BufReader, BufWriter};

fn main() {
    if std::env::args().nth(1).is_some() {
        eprintln!("usage: shard_worker   (speaks the osc shard protocol over stdin/stdout)");
        std::process::exit(2);
    }
    let stdin = BufReader::new(std::io::stdin().lock());
    let stdout = BufWriter::new(std::io::stdout().lock());
    if let Err(e) = osc_core::batch::shard::serve(stdin, stdout) {
        eprintln!("shard_worker: transport error: {e}");
        std::process::exit(1);
    }
}
