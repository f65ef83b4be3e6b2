//! Garbage in the worker's environment must never change its answers:
//! a real `shard_worker` started with `OSC_CIRCUIT_CACHE`,
//! `OSC_SERVE_DELAY_MS` or `OSC_THREADS` set to unparsable, negative,
//! zero, empty or overflowing values falls back to its defaults (an
//! 8-circuit cache, no delay, the machine's thread count) and answers a
//! fixed frame sequence byte-identically to a worker started with none
//! of the variables set.
//!
//! This suite owns the worker binary via `CARGO_BIN_EXE_shard_worker`.

use osc_core::batch::shard::{
    circuit_digest, decode_response_v2, encode_request_v2, read_frame, write_frame, ShardJob,
    ShardRequest, ShardResponseV2, SngKind, CIRCUIT_CACHE_CAPACITY, CIRCUIT_CACHE_ENV,
    SERVE_DELAY_ENV,
};
use osc_core::batch::THREADS_ENV;
use osc_core::params::CircuitParams;
use std::io::{Read, Write};
use std::process::{Command, Stdio};
use std::sync::mpsc;
use std::time::Duration;

const WORKER: &str = env!("CARGO_BIN_EXE_shard_worker");

/// Circuit `i` of the sequence: the fig. 5 circuit with a distinct last
/// coefficient.
fn request(i: usize) -> ShardRequest {
    ShardRequest {
        params: CircuitParams::paper_fig5(),
        coeffs: vec![0.25, 0.625, 0.70 + i as f64 / 1000.0],
        sng: SngKind::Xoshiro,
        seed: 17 + i as u64,
        stream_length: 64,
        faults: None,
        job: ShardJob::Batch {
            first_index: 0,
            xs: vec![0.3, 0.6],
        },
    }
}

/// The frame sequence: one more distinct inline circuit than the default
/// cache holds, then a cached reference to the first (evicted under the
/// default capacity → cache miss) and to the last (still cached → runs).
/// Its answers therefore depend on the cache capacity in force.
fn frames() -> Vec<u8> {
    let n = CIRCUIT_CACHE_CAPACITY + 1;
    let mut input = Vec::new();
    for i in 0..n {
        write_frame(
            &mut input,
            &encode_request_v2(&request(i), i as u64 + 1, None),
        )
        .unwrap();
    }
    for (id, i) in [(100u64, 0usize), (101, n - 1)] {
        let req = request(i);
        let digest = circuit_digest(&req.params, &req.coeffs);
        write_frame(&mut input, &encode_request_v2(&req, id, Some(digest))).unwrap();
    }
    input
}

/// Runs a real worker over [`frames`] with the given environment and
/// returns everything it wrote to stdout. A worker that has not finished
/// within 60 s (say, one sleeping on a misparsed delay) is killed and
/// fails the test.
fn run_worker(env: &[(&str, &str)]) -> Vec<u8> {
    let mut command = Command::new(WORKER);
    command
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .env_remove(CIRCUIT_CACHE_ENV)
        .env_remove(SERVE_DELAY_ENV)
        .env_remove(THREADS_ENV);
    for (key, value) in env {
        command.env(key, value);
    }
    let mut child = command.spawn().expect("worker spawns");
    let mut stdin = child.stdin.take().unwrap();
    let mut stdout = child.stdout.take().unwrap();
    let (tx, rx) = mpsc::channel();
    let reader = std::thread::spawn(move || {
        let mut out = Vec::new();
        let _ = stdout.read_to_end(&mut out);
        let _ = tx.send(out);
    });
    stdin.write_all(&frames()).unwrap();
    drop(stdin);
    let out = rx.recv_timeout(Duration::from_secs(60));
    let _ = child.kill();
    let status = child.wait().unwrap();
    reader.join().unwrap();
    let out = out.unwrap_or_else(|_| panic!("worker with env {env:?} did not finish in 60 s"));
    assert!(status.success(), "worker with env {env:?} exited {status}");
    out
}

#[test]
fn garbage_env_values_fall_back_to_the_defaults() {
    let baseline = run_worker(&[]);
    // The baseline shows the default capacity at work: every inline
    // request evaluated, the first circuit evicted, the last still hot.
    let mut reader = &baseline[..];
    let mut responses = Vec::new();
    while let Some(payload) = read_frame(&mut reader).unwrap() {
        responses.push(decode_response_v2(&payload).unwrap());
    }
    assert_eq!(responses.len(), CIRCUIT_CACHE_CAPACITY + 3);
    assert!(matches!(
        responses[CIRCUIT_CACHE_CAPACITY + 1],
        ShardResponseV2::CacheMiss {
            request_id: 100,
            ..
        }
    ));
    assert!(matches!(
        responses[CIRCUIT_CACHE_CAPACITY + 2],
        ShardResponseV2::Runs {
            request_id: 101,
            ..
        }
    ));
    for garbage in ["abc", "-3", "0", "99999999999999999999"] {
        for var in [CIRCUIT_CACHE_ENV, SERVE_DELAY_ENV] {
            assert_eq!(
                run_worker(&[(var, garbage)]),
                baseline,
                "{var}={garbage} changed the worker's answers"
            );
        }
        assert_eq!(
            run_worker(&[(CIRCUIT_CACHE_ENV, garbage), (SERVE_DELAY_ENV, garbage)]),
            baseline,
            "both variables = {garbage} changed the worker's answers"
        );
    }
    for garbage in ["abc", "0", "-3", ""] {
        assert_eq!(
            run_worker(&[(THREADS_ENV, garbage)]),
            baseline,
            "{THREADS_ENV}={garbage:?} changed the worker's answers"
        );
    }
}
