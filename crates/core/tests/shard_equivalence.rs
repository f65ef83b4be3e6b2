//! Shard-protocol determinism: any [`ShardPlan`] partition of a batch,
//! run through the worker loop shard by shard and merged in index
//! order, must be **byte-identical** to the single-process
//! `evaluate_many` output — for every SNG kind, in clean and noisy
//! receiver regimes, for balanced and ragged splits.
//!
//! These tests drive [`osc_core::batch::shard::serve`] over in-memory
//! pipes, so they pin the whole protocol path (encode → decode → worker
//! evaluation → encode → decode) without spawning processes; the
//! subprocess pool itself is exercised end to end by the `osc-bench`
//! integration suite, which owns the worker binary.

use osc_core::batch::shard::{
    circuit_digest, decode_response_v2, encode_request_v2, read_frame, serve, write_frame,
    ShardJob, ShardPlan, ShardRequest, ShardResponseV2, SngKind, CIRCUIT_CACHE_CAPACITY,
};
use osc_core::batch::BatchEvaluator;
use osc_core::fault::FaultSpec;
use osc_core::params::CircuitParams;
use osc_core::system::{OpticalRun, OpticalScSystem};
use osc_stochastic::bernstein::BernsteinPoly;
use osc_stochastic::sng::{ChaoticLaserSng, CounterSng, LfsrSng, XoshiroSng};
use osc_units::Milliwatts;

fn fig5_poly() -> BernsteinPoly {
    BernsteinPoly::new(vec![0.25, 0.625, 0.75]).unwrap()
}

fn clean_system() -> OpticalScSystem {
    OpticalScSystem::new(CircuitParams::paper_fig5(), fig5_poly()).unwrap()
}

/// Starved probes push the folded decision probabilities strictly inside
/// (0, 1): the uniform-draw kernel tier, whose RNG consumption order is
/// part of the determinism contract, runs on every cycle.
fn noisy_system() -> OpticalScSystem {
    let params = CircuitParams::paper_fig5().with_probe_power(Milliwatts::new(0.05));
    let system = OpticalScSystem::new(params, fig5_poly()).unwrap();
    assert!(
        !system.has_deterministic_decisions(),
        "noisy config should need draws"
    );
    system
}

/// Runs one request through the in-memory worker loop as an inline
/// frame.
fn serve_one(req: &ShardRequest) -> Vec<OpticalRun> {
    let mut input = Vec::new();
    write_frame(&mut input, &encode_request_v2(req, 1, None)).unwrap();
    let mut output = Vec::new();
    serve(&input[..], &mut output).unwrap();
    let payload = read_frame(&mut &output[..]).unwrap().expect("one response");
    let (id, runs) = v2_runs(&payload);
    assert_eq!(id, 1);
    runs
}

/// The single-process reference with the factory the wire protocol pins
/// for each SNG kind.
fn reference_runs(
    system: &OpticalScSystem,
    kind: SngKind,
    xs: &[f64],
    stream_length: usize,
    seed: u64,
) -> Vec<OpticalRun> {
    let ev = BatchEvaluator::with_threads(2);
    match kind {
        SngKind::Lfsr => ev.evaluate_many(
            system,
            xs,
            stream_length,
            |s| LfsrSng::new(16, s as u32).unwrap(),
            seed,
        ),
        SngKind::Counter => {
            ev.evaluate_many(system, xs, stream_length, |_| CounterSng::new(), seed)
        }
        SngKind::Xoshiro => ev.evaluate_many(system, xs, stream_length, XoshiroSng::new, seed),
        SngKind::Chaotic => {
            ev.evaluate_many(system, xs, stream_length, ChaoticLaserSng::seeded, seed)
        }
    }
    .unwrap()
}

#[test]
fn any_partition_merges_to_the_single_process_batch() {
    // 23 items: every shard count in {1, 2, 3, 7} splits it raggedly
    // except 1, and 23 > 2 lane blocks so blocks straddle shard cuts.
    let n = 23usize;
    let xs: Vec<f64> = (0..n).map(|i| i as f64 / (n - 1) as f64).collect();
    let stream_length = 200usize;
    for (label, system) in [("clean", clean_system()), ("noisy", noisy_system())] {
        for kind in SngKind::ALL {
            let seed = 0xD1CE ^ kind.name().len() as u64;
            let reference = reference_runs(&system, kind, &xs, stream_length, seed);
            for shards in [1usize, 2, 3, 7, n, n + 5] {
                let plan = ShardPlan::new(n, shards);
                let mut merged = Vec::with_capacity(n);
                for &(start, len) in plan.ranges() {
                    let req = ShardRequest {
                        params: *system.params(),
                        coeffs: system.polynomial().coeffs().to_vec(),
                        sng: kind,
                        seed,
                        stream_length: stream_length as u64,
                        faults: None,
                        job: ShardJob::Batch {
                            first_index: start as u64,
                            xs: xs[start..start + len].to_vec(),
                        },
                    };
                    merged.extend(serve_one(&req));
                }
                assert_eq!(merged, reference, "{label} {} shards={shards}", kind.name());
            }
        }
    }
}

/// Runs a sequence of raw frame payloads through one worker loop and
/// returns the raw response payloads — the cache persists across the
/// whole sequence, exactly as it does in a pooled worker process.
fn serve_frames(payloads: &[Vec<u8>]) -> Vec<Vec<u8>> {
    let mut input = Vec::new();
    for payload in payloads {
        write_frame(&mut input, payload).unwrap();
    }
    let mut output = Vec::new();
    serve(&input[..], &mut output).unwrap();
    let mut responses = Vec::new();
    let mut reader = &output[..];
    while let Some(payload) = read_frame(&mut reader).unwrap() {
        responses.push(payload);
    }
    assert_eq!(responses.len(), payloads.len(), "one response per request");
    responses
}

fn v2_runs(payload: &[u8]) -> (u64, Vec<OpticalRun>) {
    match decode_response_v2(payload).unwrap() {
        ShardResponseV2::Runs { request_id, runs } => (request_id, runs),
        other => panic!("expected runs, got {other:?}"),
    }
}

#[test]
fn v2_and_v3_requests_match_the_single_process_reference() {
    // The same request through the v2 inline frame, the v2
    // cached-reference frame and both forms again as v3 frames carrying
    // a rate-0 fault spec must produce identical runs — all of them the
    // single-process reference bytes.
    let system = clean_system();
    let xs: Vec<f64> = (0..9).map(|i| i as f64 / 8.0).collect();
    let reference = reference_runs(&system, SngKind::Xoshiro, &xs, 160, 21);
    let req = ShardRequest {
        params: *system.params(),
        coeffs: system.polynomial().coeffs().to_vec(),
        sng: SngKind::Xoshiro,
        seed: 21,
        stream_length: 160,
        faults: None,
        job: ShardJob::Batch {
            first_index: 0,
            xs: xs.clone(),
        },
    };
    let inert = ShardRequest {
        faults: Some(FaultSpec::flips(0.0, 5)),
        ..req.clone()
    };
    let digest = circuit_digest(&req.params, &req.coeffs);
    let frames = [
        encode_request_v2(&req, 101, None), // v2 inline (caches the circuit)
        encode_request_v2(&req, 102, Some(digest)), // v2 cached reference (hit)
        encode_request_v2(&inert, 103, None), // v3 inline
        encode_request_v2(&inert, 104, Some(digest)), // v3 cached reference (hit)
    ];
    for (frame, version) in frames.iter().zip([2u32, 2, 3, 3]) {
        assert_eq!(frame[4..8], version.to_le_bytes());
    }
    let responses = serve_frames(&frames);
    for (i, (payload, label)) in responses
        .iter()
        .zip(["v2 inline", "v2 cache hit", "v3 inline", "v3 cache hit"])
        .enumerate()
    {
        let (id, runs) = v2_runs(payload);
        assert_eq!(id, 101 + i as u64, "{label}");
        assert_eq!(runs, reference, "{label} ≡ single-process");
    }
}

#[test]
fn interleaved_request_ids_echo_in_arrival_order() {
    // One worker serving several outstanding requests: each response
    // carries its request's ID, so a pool can match them up even though
    // the IDs arrive out of numeric order.
    let system = clean_system();
    let mk = |id: u64, seed: u64| {
        let req = ShardRequest {
            params: *system.params(),
            coeffs: system.polynomial().coeffs().to_vec(),
            sng: SngKind::Counter,
            seed,
            stream_length: 96,
            faults: None,
            job: ShardJob::Batch {
                first_index: 0,
                xs: vec![0.25, 0.75],
            },
        };
        encode_request_v2(&req, id, None)
    };
    let responses = serve_frames(&[mk(7, 1), mk(9, 2), mk(8, 3)]);
    let ids: Vec<u64> = responses.iter().map(|p| v2_runs(p).0).collect();
    assert_eq!(ids, vec![7, 9, 8]);
}

#[test]
fn cache_misses_are_clean_values_and_lru_evicts_the_oldest() {
    let system = clean_system();
    let base = ShardRequest {
        params: *system.params(),
        coeffs: system.polynomial().coeffs().to_vec(),
        sng: SngKind::Xoshiro,
        seed: 5,
        stream_length: 64,
        faults: None,
        job: ShardJob::Batch {
            first_index: 0,
            xs: vec![0.5],
        },
    };
    // An unknown digest on a fresh worker is a cache miss, not an error
    // — and the worker stays alive to serve the inline form next.
    let bogus = 0x0BAD_D16E_0057u64;
    let responses = serve_frames(&[
        encode_request_v2(&base, 1, Some(bogus)),
        encode_request_v2(&base, 2, None),
    ]);
    assert_eq!(
        decode_response_v2(&responses[0]).unwrap(),
        ShardResponseV2::CacheMiss {
            request_id: 1,
            digest: bogus
        }
    );
    let (_, runs) = v2_runs(&responses[1]);
    assert_eq!(runs.len(), 1);

    // Fill the cache past capacity with distinct circuits: the first
    // digest must be evicted (miss), the most recent must still hit.
    let mut frames = vec![encode_request_v2(&base, 10, None)];
    let mut variant_digest = 0;
    for i in 0..CIRCUIT_CACHE_CAPACITY as u64 {
        let mut variant = base.clone();
        variant.coeffs[2] = 0.70 + i as f64 / 1000.0;
        variant_digest = circuit_digest(&variant.params, &variant.coeffs);
        frames.push(encode_request_v2(&variant, 11 + i, None));
    }
    let first_digest = circuit_digest(&base.params, &base.coeffs);
    frames.push(encode_request_v2(&base, 90, Some(first_digest))); // evicted → miss
    let mut last = base.clone();
    last.coeffs[2] = 0.70 + (CIRCUIT_CACHE_CAPACITY as u64 - 1) as f64 / 1000.0;
    assert_eq!(circuit_digest(&last.params, &last.coeffs), variant_digest);
    frames.push(encode_request_v2(&last, 91, Some(variant_digest))); // recent → hit
    let responses = serve_frames(&frames);
    assert_eq!(
        decode_response_v2(&responses[responses.len() - 2]).unwrap(),
        ShardResponseV2::CacheMiss {
            request_id: 90,
            digest: first_digest
        },
        "the oldest circuit must have been evicted"
    );
    let (id, runs) = v2_runs(&responses[responses.len() - 1]);
    assert_eq!(id, 91);
    assert_eq!(runs.len(), 1, "the most recent circuit must still hit");
}

#[test]
fn image_rows_partition_matches_whole_image_job() {
    // Row-sharded image evaluation must be invisible: any row partition
    // merges to the single-request whole-image job, whose derivation the
    // apps layer pins against `apply_optical_lanes`.
    let (width, height) = (13usize, 6usize); // 13 → ragged 8+4+1 lane blocks
    let pixels: Vec<f64> = (0..width * height)
        .map(|i| (i as f64 * 0.37) % 1.0)
        .collect();
    let system = clean_system();
    let base_req = |first_row: usize, rows: &[f64]| ShardRequest {
        params: *system.params(),
        coeffs: system.polynomial().coeffs().to_vec(),
        sng: SngKind::Xoshiro,
        seed: 99,
        stream_length: 128,
        faults: None,
        job: ShardJob::ImageRows {
            width: width as u64,
            first_row: first_row as u64,
            pixels: rows.to_vec(),
        },
    };
    let whole = serve_one(&base_req(0, &pixels));
    assert_eq!(whole.len(), width * height);
    for shards in [2usize, 3, 7] {
        let plan = ShardPlan::new(height, shards);
        let mut merged = Vec::new();
        for &(start, len) in plan.ranges() {
            merged.extend(serve_one(&base_req(
                start,
                &pixels[start * width..(start + len) * width],
            )));
        }
        assert_eq!(merged, whole, "shards={shards}");
    }
}
