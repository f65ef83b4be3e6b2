//! `read_frame` must not trust a length prefix with memory: a peer that
//! announces a [`MAX_FRAME_BYTES`] frame and then goes quiet (EOF) gets
//! an `UnexpectedEof` error, and the reader never holds more than the
//! bytes that actually arrived (plus growth slack).
//!
//! This lives in its own test binary because it installs a counting
//! global allocator and measures peak heap use; one test per binary
//! keeps other tests' allocations out of the measurement.

use osc_core::batch::shard::{read_frame, MAX_FRAME_BYTES};
use std::alloc::{GlobalAlloc, Layout, System};
use std::io::Read;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Tracks live heap bytes and their high-water mark.
struct CountingAlloc;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn note_alloc(size: usize) {
    let live = LIVE.fetch_add(size, Ordering::SeqCst) + size;
    PEAK.fetch_max(live, Ordering::SeqCst);
}

// SAFETY: every method forwards to the system allocator with the
// caller's own layout and pointer unchanged; the counters only observe
// sizes.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc(layout.size());
        // SAFETY: forwarded verbatim from the caller's contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_alloc(layout.size());
        // SAFETY: forwarded verbatim from the caller's contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::SeqCst);
        // SAFETY: forwarded verbatim from the caller's contract.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_sub(layout.size(), Ordering::SeqCst);
        note_alloc(new_size);
        // SAFETY: forwarded verbatim from the caller's contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// A peer that sends a length prefix, then `body` bytes, then EOF,
/// handing out at most `chunk` bytes per read like a socket would.
struct Announcer {
    bytes: Vec<u8>,
    pos: usize,
    chunk: usize,
}

impl Read for Announcer {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = buf.len().min(self.chunk).min(self.bytes.len() - self.pos);
        buf[..n].copy_from_slice(&self.bytes[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

#[test]
fn an_announced_max_frame_followed_by_eof_allocates_only_what_arrived() {
    const MIB: usize = 1 << 20;
    for body in [0usize, 100, 70_000] {
        let mut bytes = MAX_FRAME_BYTES.to_le_bytes().to_vec();
        bytes.resize(8 + body, 0xAB);
        let mut peer = Announcer {
            bytes,
            pos: 0,
            chunk: 4096,
        };
        let baseline = LIVE.load(Ordering::SeqCst);
        PEAK.store(baseline, Ordering::SeqCst);
        let err = read_frame(&mut peer).unwrap_err();
        let peak = PEAK.load(Ordering::SeqCst) - baseline;
        assert_eq!(
            err.kind(),
            std::io::ErrorKind::UnexpectedEof,
            "body {body}: {err}"
        );
        assert!(
            peak < MIB,
            "body {body}: a {MAX_FRAME_BYTES}-byte announcement cost {peak} bytes of heap"
        );
    }
}
