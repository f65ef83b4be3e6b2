//! Protocol robustness: hostile or corrupted wire input must surface as
//! **values** — error responses from a still-alive worker where the
//! stream can be resynchronized, clean `io::Error`s (never panics,
//! hangs or unbounded allocations) where it cannot. The pool side of
//! the same contract — dead and garbage-speaking workers becoming
//! [`osc_core::batch::shard::ShardError`] values after retries — is
//! pinned with real subprocesses in the `osc-bench` suites.

use osc_core::batch::shard::{
    decode_request_v2, decode_response_v2, encode_request_v2, encode_response_v2, read_frame,
    serve, write_frame, ShardJob, ShardRequest, ShardResponseV2, SngKind, MAX_FRAME_BYTES,
    PROTOCOL_VERSION_V2, PROTOCOL_VERSION_V3,
};
use osc_core::fault::FaultSpec;
use osc_core::params::CircuitParams;
use osc_core::system::OpticalRun;

fn small_request() -> ShardRequest {
    ShardRequest {
        params: CircuitParams::paper_fig5(),
        coeffs: vec![0.25, 0.625, 0.75],
        sng: SngKind::Xoshiro,
        seed: 3,
        stream_length: 64,
        faults: None,
        job: ShardJob::Batch {
            first_index: 0,
            xs: vec![0.5],
        },
    }
}

/// The same request carrying a fault spec, so it encodes as v3.
fn faulted_request() -> ShardRequest {
    ShardRequest {
        faults: Some(FaultSpec::flips(0.01, 9)),
        ..small_request()
    }
}

/// Collects every response frame a worker loop produces for `input`,
/// plus whether the loop exited cleanly (EOF) or with a transport
/// error.
fn serve_raw(input: &[u8]) -> (Vec<Vec<u8>>, std::io::Result<()>) {
    let mut output = Vec::new();
    let outcome = serve(input, &mut output);
    let mut responses = Vec::new();
    let mut reader = &output[..];
    while let Ok(Some(payload)) = read_frame(&mut reader) {
        responses.push(payload);
    }
    (responses, outcome)
}

/// Decodes a response that must be an error value, returning its
/// echoed request ID and message.
fn expect_error(payload: &[u8]) -> (u64, String) {
    match decode_response_v2(payload).unwrap() {
        ShardResponseV2::Error {
            request_id,
            message,
        } => (request_id, message),
        other => panic!("expected an error value, got {other:?}"),
    }
}

#[test]
fn truncated_frames_error_cleanly_after_answering_what_arrived() {
    // A complete request followed by a frame cut off mid-payload: the
    // worker answers the first and reports a transport error for the
    // torso — no panic, no hang, no half-written response. Both the
    // clean (v2) and the faulted (v3) encodings.
    for (first, second) in [
        (
            encode_request_v2(&small_request(), 1, None),
            encode_request_v2(&faulted_request(), 2, None),
        ),
        (
            encode_request_v2(&faulted_request(), 1, None),
            encode_request_v2(&small_request(), 2, None),
        ),
    ] {
        let mut input = Vec::new();
        write_frame(&mut input, &first).unwrap();
        let cut_at = input.len() + 12; // 8-byte prefix + 4 payload bytes
        write_frame(&mut input, &second).unwrap();
        let (responses, outcome) = serve_raw(&input[..cut_at]);
        assert_eq!(responses.len(), 1, "the complete request was answered");
        assert!(matches!(
            decode_response_v2(&responses[0]).unwrap(),
            ShardResponseV2::Runs { request_id: 1, .. }
        ));
        let err = outcome.unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof, "{err}");
        // EOF mid-prefix is the same clean error.
        let (responses, outcome) = serve_raw(&input[..3]);
        assert!(responses.is_empty());
        assert_eq!(
            outcome.unwrap_err().kind(),
            std::io::ErrorKind::UnexpectedEof
        );
    }
}

#[test]
fn oversized_length_prefixes_are_rejected_before_allocation() {
    for hostile_len in [MAX_FRAME_BYTES + 1, u64::MAX, 1 << 60] {
        let mut input = hostile_len.to_le_bytes().to_vec();
        input.extend_from_slice(b"whatever follows");
        let err = read_frame(&mut &input[..]).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{hostile_len}");
        assert!(err.to_string().contains("exceeds"), "{err}");
        // The worker loop surfaces the same clean error.
        let (responses, outcome) = serve_raw(&input);
        assert!(responses.is_empty());
        assert_eq!(
            outcome.unwrap_err().kind(),
            std::io::ErrorKind::InvalidData,
            "{hostile_len}"
        );
    }
    // Exactly at the cap the prefix itself is fine (the payload is then
    // simply truncated input → UnexpectedEof, not InvalidData).
    let input = MAX_FRAME_BYTES.to_le_bytes().to_vec();
    let err = read_frame(&mut &input[..]).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
}

#[test]
fn unknown_tags_are_error_values_and_the_worker_stays_alive() {
    let good_v2 = encode_request_v2(&small_request(), 44, None);
    let good_v3 = encode_request_v2(&faulted_request(), 45, None);
    assert_eq!(good_v3[4..8], PROTOCOL_VERSION_V3.to_le_bytes());

    // The circuit-kind byte is at offset 16, job kind 17, SNG kind 18 —
    // in both versions (v3 inserts its fault block after the header).
    let mut bad_circuit = good_v2.clone();
    bad_circuit[16] = 5;
    let mut bad_job = good_v2.clone();
    bad_job[17] = 9;
    let mut bad_sng = good_v2.clone();
    bad_sng[18] = 77;
    let mut bad_job_v3 = good_v3.clone();
    bad_job_v3[17] = 9;
    let mut bad_sng_v3 = good_v3.clone();
    bad_sng_v3[18] = 77;

    let mut input = Vec::new();
    for frame in [
        &bad_circuit,
        &bad_job,
        &bad_sng,
        &bad_job_v3,
        &bad_sng_v3,
        &good_v2,
        &good_v3,
    ] {
        write_frame(&mut input, frame).unwrap();
    }
    let (responses, outcome) = serve_raw(&input);
    outcome.unwrap();
    assert_eq!(responses.len(), 7, "every frame answered, worker alive");
    for (i, (want_id, want)) in [
        (44, "circuit kind"),
        (44, "job kind"),
        (44, "SNG kind"),
        (45, "job kind"),
        (45, "SNG kind"),
    ]
    .into_iter()
    .enumerate()
    {
        let (id, message) = expect_error(&responses[i]);
        assert_eq!(id, want_id, "frame {i}: the request ID is echoed");
        assert!(
            message.contains("unknown") && message.contains(want),
            "frame {i}: {message} (want {want})"
        );
    }
    // The trailing good requests still evaluate.
    assert!(matches!(
        decode_response_v2(&responses[5]).unwrap(),
        ShardResponseV2::Runs { request_id: 44, .. }
    ));
    assert!(matches!(
        decode_response_v2(&responses[6]).unwrap(),
        ShardResponseV2::Runs { request_id: 45, .. }
    ));
}

#[test]
fn version_mismatch_is_answered_and_the_worker_stays_alive() {
    // Frames outside the v2/v3 family — version 4 (one past every
    // version this build speaks), the retired version 1, and a bad
    // magic — are each refused with a v2 error under request ID 0, and
    // the worker keeps serving the v2 and v3 frames that follow.
    let good_v2 = encode_request_v2(&small_request(), 7, None);
    let good_v3 = encode_request_v2(&faulted_request(), 8, None);
    let mut future = good_v2.clone();
    future[4..8].copy_from_slice(&4u32.to_le_bytes());
    let mut v1 = good_v3.clone();
    v1[4..8].copy_from_slice(&1u32.to_le_bytes());
    let mut bad_magic = good_v2.clone();
    bad_magic[0] ^= 0xFF;
    let mut input = Vec::new();
    for frame in [&future, &v1, &bad_magic, &good_v2, &good_v3] {
        write_frame(&mut input, frame).unwrap();
    }
    let (responses, outcome) = serve_raw(&input);
    outcome.unwrap();
    assert_eq!(responses.len(), 5);
    for (i, want) in ["version 4", "version 1", "magic"].into_iter().enumerate() {
        let (id, message) = expect_error(&responses[i]);
        assert_eq!(id, 0, "frame {i}: refusals carry request ID 0");
        assert!(message.contains(want), "frame {i}: {message}");
    }
    assert!(matches!(
        decode_response_v2(&responses[3]).unwrap(),
        ShardResponseV2::Runs { request_id: 7, .. }
    ));
    assert!(matches!(
        decode_response_v2(&responses[4]).unwrap(),
        ShardResponseV2::Runs { request_id: 8, .. }
    ));
    // Sanity: the version constants the mismatch is judged against —
    // the forged version above must stay one past the newest.
    assert_eq!(PROTOCOL_VERSION_V2, 2);
    assert_eq!(PROTOCOL_VERSION_V3, 3);
}

#[test]
fn response_decoders_reject_unknown_statuses_and_cross_version_frames() {
    let run = OpticalRun {
        estimate: 0.5,
        ideal_estimate: 0.5,
        exact: 0.5,
        observed_ber: 0.0,
        stream_length: 64,
    };
    let good = encode_response_v2(&ShardResponseV2::Runs {
        request_id: 1,
        runs: vec![run],
    });
    // The status byte is at offset 16.
    let mut bad_status = good.clone();
    bad_status[16] = 9;
    assert!(decode_response_v2(&bad_status)
        .unwrap_err()
        .contains("status"));
    // Responses are always version 2: a v1 or v3 version word is a
    // cross-version frame and is rejected.
    for version in [1u32, 3] {
        let mut other = good.clone();
        other[4..8].copy_from_slice(&version.to_le_bytes());
        assert!(decode_response_v2(&other).unwrap_err().contains("version"));
    }
    // Absurd declared counts are rejected before allocation.
    let mut huge = good.clone();
    huge[17..25].copy_from_slice(&u64::MAX.to_le_bytes());
    assert!(decode_response_v2(&huge).is_err());
}

#[test]
fn request_decoders_never_panic_on_corrupted_bytes() {
    // Flip every byte of the v2 and v3 request encodings (one at a
    // time) and decode: any outcome is fine except a panic.
    let v2 = encode_request_v2(&small_request(), 1, None);
    let v3 = encode_request_v2(&faulted_request(), 1, None);
    for frame in [&v2, &v3] {
        for i in 0..frame.len() {
            let mut mutated = frame.clone();
            mutated[i] ^= 0xA5;
            let _ = decode_request_v2(&mutated);
        }
    }
    // And the worker loop answers every mutation with exactly one clean
    // v2 frame (spot-checked across the payload regions: magic,
    // version, request ID, tag bytes, backend tag, last input). A
    // mutated magic or version is refused under ID 0; any other
    // mutation keeps the ID that is on the wire.
    for frame in [&v2, &v3] {
        for &i in &[0usize, 4, 8, 16, 40, frame.len() - 1] {
            let mut mutated = frame.clone();
            mutated[i] ^= 0xA5;
            let mut input = Vec::new();
            write_frame(&mut input, &mutated).unwrap();
            let (responses, outcome) = serve_raw(&input);
            outcome.unwrap();
            assert_eq!(responses.len(), 1, "offset {i}");
            let echoed = match decode_response_v2(&responses[0]).unwrap() {
                ShardResponseV2::Runs { request_id, .. }
                | ShardResponseV2::Error { request_id, .. }
                | ShardResponseV2::CacheMiss { request_id, .. } => request_id,
            };
            let on_wire = u64::from_le_bytes(mutated[8..16].try_into().unwrap());
            let want = if i < 8 { 0 } else { on_wire };
            assert_eq!(echoed, want, "offset {i}");
        }
    }
}
