//! End-to-end persistent-pool equivalence: a [`WorkerPool`] of real
//! `shard_worker` subprocesses must reproduce single-process results
//! **byte for byte** — across worker counts, repeat requests (the
//! warm circuit-cache path), forced cache misses, mid-stream worker
//! kills and fatal errors — and every failure must surface as a
//! [`ShardError`] value with the pool still usable afterwards. Pools
//! spawned for a single call (the spawn-per-request baseline) are
//! pinned in `shard_equivalence.rs`.
//!
//! This suite owns the worker binary via `CARGO_BIN_EXE_shard_worker`;
//! the in-memory v2 protocol properties live in
//! `osc-core/tests/shard_equivalence.rs` and
//! `osc-core/tests/protocol_robustness.rs`.

use osc_apps::backend::OpticalBackend;
use osc_apps::contrast::{run_contrast_optical, smoothstep_poly};
use osc_apps::gamma_app::{apply_optical, paper_gamma_polynomial, run_gamma_optical};
use osc_apps::image::Image;
use osc_bench::soak::{self, SoakConfig};
use osc_core::backend::BackendKind;
use osc_core::batch::shard::pool::PoolConfig;
use osc_core::batch::shard::service::{Service, ServiceClient};
use osc_core::batch::shard::{ExecError, Executor, Job, ShardError, SngKind};
use osc_core::batch::BatchEvaluator;
use osc_core::fault::FaultSpec;
use osc_core::params::CircuitParams;
use osc_core::system::{OpticalRun, OpticalScSystem};
use osc_stochastic::bernstein::BernsteinPoly;
use osc_stochastic::sng::{ChaoticLaserSng, CounterSng, LfsrSng, XoshiroSng};
use osc_units::Nanometers;

const WORKER: &str = env!("CARGO_BIN_EXE_shard_worker");

fn fig5_system() -> OpticalScSystem {
    OpticalScSystem::new(
        CircuitParams::paper_fig5(),
        BernsteinPoly::new(vec![0.25, 0.625, 0.75]).unwrap(),
    )
    .unwrap()
}

/// One fault-free batch job run on `executor`.
fn batch_on(
    mut executor: Executor<'_>,
    system: &OpticalScSystem,
    kind: SngKind,
    xs: &[f64],
    stream_length: usize,
    seed: u64,
) -> Result<Vec<OpticalRun>, ExecError> {
    let job = Job::batch(system, kind, xs, stream_length, seed, None);
    Ok(executor.run(&[job])?.remove(0))
}

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
fn pooled_batches_match_single_process_for_all_sngs_and_worker_counts() {
    let system = fig5_system();
    let xs: Vec<f64> = (0..11).map(|i| i as f64 / 10.0).collect();
    for workers in [1usize, 3] {
        let mut pool = PoolConfig::new(WORKER, workers)
            .with_worker_threads(1)
            .spawn()
            .unwrap();
        for kind in SngKind::ALL {
            let reference = reference_runs(&system, kind, &xs, 128, 7);
            // Twice through the same pool: the first call ships the
            // circuit inline, the second rides the cached reference —
            // both must be byte-identical to the reference.
            for round in 0..2 {
                let pooled =
                    batch_on(Executor::Pool(&mut pool), &system, kind, &xs, 128, 7).unwrap();
                assert_eq!(
                    pooled,
                    reference,
                    "{} workers={workers} round={round}",
                    kind.name()
                );
            }
        }
    }
}

#[test]
fn pooled_images_are_byte_identical_to_the_lanes_pipeline() {
    let image = Image::blobs(13, 16); // width 13 → ragged 8+4+1 lane blocks
    let gamma_poly = paper_gamma_polynomial().unwrap();
    let gamma_backend = OpticalBackend::new(
        CircuitParams::paper_fig7(6, Nanometers::new(0.165)),
        gamma_poly,
        256,
        13,
    )
    .unwrap();
    let contrast_backend = OpticalBackend::new(
        CircuitParams::paper_fig7(3, Nanometers::new(0.2)),
        smoothstep_poly(),
        256,
        5,
    )
    .unwrap();
    let evaluator = BatchEvaluator::with_threads(2);
    let mut in_process = Executor::InProcess(&evaluator);
    let gamma_ref = apply_optical(&image, &gamma_backend, &mut in_process, None).unwrap();
    let (contrast_ref, contrast_ref_mae) =
        run_contrast_optical(&image, &contrast_backend, &mut in_process).unwrap();
    let mut pool = PoolConfig::new(WORKER, 3).spawn().unwrap();
    let mut pooled = Executor::Pool(&mut pool);
    // Alternate gamma/contrast twice: both circuits stay cached, and
    // every repetition must reproduce the in-process bytes exactly.
    for round in 0..2 {
        let gamma_pooled = apply_optical(&image, &gamma_backend, &mut pooled, None).unwrap();
        let identical = gamma_pooled
            .pixels()
            .iter()
            .zip(gamma_ref.pixels())
            .all(|(a, b)| a.to_bits() == b.to_bits());
        assert!(identical, "round {round}: pooled gamma bytes diverged");
        let (contrast_pooled, contrast_mae) =
            run_contrast_optical(&image, &contrast_backend, &mut pooled).unwrap();
        assert_eq!(contrast_pooled, contrast_ref, "round {round}");
        assert_eq!(contrast_mae, contrast_ref_mae, "round {round}");
    }
    // The derived gamma reports agree exactly too.
    let lanes_report = run_gamma_optical(&image, &gamma_backend, &mut in_process).unwrap();
    let pooled_report = run_gamma_optical(&image, &gamma_backend, &mut pooled).unwrap();
    assert_eq!(pooled_report, lanes_report);
}

#[test]
fn soak_modes_produce_identical_bytes() {
    // The CI pool-soak contract in miniature: in-process, pooled and
    // spawn-per-request runs of the shared schedule produce the same
    // bytes.
    let cfg = SoakConfig {
        requests: 6,
        width: 9,
        height: 4,
        stream: 64,
        ..Default::default()
    };
    let in_process = soak::run(&cfg, Executor::InProcess(&BatchEvaluator::new())).unwrap();
    let mut pool = PoolConfig::new(WORKER, 3).spawn().unwrap();
    let pooled = soak::run(&cfg, Executor::Pool(&mut pool)).unwrap();
    let spawned = soak::run(&cfg, Executor::Spawn(&PoolConfig::new(WORKER, 3))).unwrap();
    assert_eq!(pooled.bytes, in_process.bytes, "pool ≡ in-process");
    assert_eq!(spawned.bytes, in_process.bytes, "spawn ≡ in-process");
}

#[test]
fn faulted_soak_modes_produce_identical_bytes_across_worker_counts() {
    // The CI fault-soak contract in miniature: a fault-injected run of
    // the shared schedule produces the same bytes in-process, pooled
    // and spawn-per-request, across the worker counts the acceptance
    // criteria name — and those bytes differ from the clean run (the
    // faults are real, not silently dropped on the wire).
    let mut fault = FaultSpec::with_seed(0xFA07);
    fault.flip_probability = 0.02;
    fault.shift_probability = 0.001;
    let cfg = SoakConfig {
        requests: 4,
        width: 9,
        height: 3,
        stream: 128,
        fault: Some(fault),
        ..Default::default()
    };
    let clean_cfg = SoakConfig { fault: None, ..cfg };
    let in_process = soak::run(&cfg, Executor::InProcess(&BatchEvaluator::new())).unwrap();
    let clean = soak::run(&clean_cfg, Executor::InProcess(&BatchEvaluator::new())).unwrap();
    assert_ne!(in_process.bytes, clean.bytes, "faults must perturb output");
    for workers in [1usize, 2, 3, 7] {
        let mut pool = PoolConfig::new(WORKER, workers).spawn().unwrap();
        let pooled = soak::run(&cfg, Executor::Pool(&mut pool)).unwrap();
        assert_eq!(
            pooled.bytes, in_process.bytes,
            "faulted pool({workers}) ≡ in-process"
        );
        let spawned = soak::run(&cfg, Executor::Spawn(&PoolConfig::new(WORKER, workers))).unwrap();
        assert_eq!(
            spawned.bytes, in_process.bytes,
            "faulted spawn({workers}) ≡ in-process"
        );
    }
    // An invalid spec is an error on every tier — never silently read
    // as "flip every bit" (p ≥ 1) or "never flip" (NaN, p < 0).
    let evaluator = BatchEvaluator::new();
    let spawn_config = PoolConfig::new(WORKER, 2);
    let mut pool = PoolConfig::new(WORKER, 2).spawn().unwrap();
    let service = Service::bind(
        ("127.0.0.1", 0),
        PoolConfig::new(WORKER, 1).spawn_dispatcher().unwrap(),
    )
    .unwrap();
    let mut client = ServiceClient::connect(service.local_addr()).unwrap();
    for p in [1.5, f64::NAN, -0.5] {
        let spec = FaultSpec::flips(p, 9);
        assert!(spec.validate().is_err(), "flip probability {p}");
        let bad = SoakConfig {
            fault: Some(spec),
            ..cfg
        };
        let arms = [
            ("in-process", Executor::InProcess(&evaluator)),
            ("spawn", Executor::Spawn(&spawn_config)),
            ("pool", Executor::Pool(&mut pool)),
            ("service", Executor::Service(&mut client)),
        ];
        for (arm, executor) in arms {
            let result = soak::run(&bad, executor);
            assert!(result.is_err(), "{arm} accepted flip probability {p}");
        }
    }
    // Every tier stays usable after the refusals.
    let pooled = soak::run(&cfg, Executor::Pool(&mut pool)).unwrap();
    assert_eq!(pooled.bytes, in_process.bytes, "pool after refusals");
    let served = soak::run(&cfg, Executor::Service(&mut client)).unwrap();
    assert_eq!(served.bytes, in_process.bytes, "service after refusals");
    drop(client);
    service.drain();
}

#[test]
fn one_run_mixing_job_kinds_is_byte_identical_on_every_executor() {
    // One `Executor::run` call carrying a batch job and an image job on
    // two different circuits, the image one faulted: every arm must
    // return the same bytes, job by job and item by item.
    let batch_system = fig5_system();
    let gamma = OpticalBackend::new(
        CircuitParams::paper_fig7(6, Nanometers::new(0.165)),
        paper_gamma_polynomial().unwrap(),
        128,
        21,
    )
    .unwrap();
    let xs: Vec<f64> = (0..11).map(|i| i as f64 / 10.0).collect();
    let image = Image::blobs(13, 5); // ragged 8+4+1 lane blocks per row
    let mut fault = FaultSpec::with_seed(0xFA07);
    fault.flip_probability = 0.02;
    fault.shift_probability = 0.001;
    let jobs = [
        Job::batch(&batch_system, SngKind::Counter, &xs, 96, 5, None),
        Job::image(
            gamma.system(),
            SngKind::Xoshiro,
            image.width(),
            image.pixels(),
            128,
            21,
            Some(&fault),
        ),
    ];
    // Every f64 of every run as its bit pattern, plus the run lengths.
    let bits = |runs: Vec<Vec<OpticalRun>>| -> Vec<Vec<u64>> {
        runs.iter()
            .map(|job| {
                job.iter()
                    .flat_map(|r| {
                        [
                            r.estimate.to_bits(),
                            r.ideal_estimate.to_bits(),
                            r.exact.to_bits(),
                            r.observed_ber.to_bits(),
                            r.stream_length as u64,
                        ]
                    })
                    .collect()
            })
            .collect()
    };
    let evaluator = BatchEvaluator::with_threads(2);
    let reference = bits(Executor::InProcess(&evaluator).run(&jobs).unwrap());
    assert_eq!(reference[0].len(), 5 * xs.len());
    assert_eq!(reference[1].len(), 5 * image.pixels().len());

    let spawn_config = PoolConfig::new(WORKER, 2);
    let mut pool = PoolConfig::new(WORKER, 3).spawn().unwrap();
    let service = Service::bind(
        ("127.0.0.1", 0),
        PoolConfig::new(WORKER, 2).spawn_dispatcher().unwrap(),
    )
    .unwrap();
    let mut client = ServiceClient::connect(service.local_addr()).unwrap();
    let arms = [
        ("spawn", Executor::Spawn(&spawn_config)),
        ("pool", Executor::Pool(&mut pool)),
        ("service", Executor::Service(&mut client)),
    ];
    for (arm, mut executor) in arms {
        assert_eq!(
            bits(executor.run(&jobs).unwrap()),
            reference,
            "{arm} ≡ in-process"
        );
    }
    drop(client);
    service.drain();
}

#[test]
fn killed_worker_mid_stream_is_respawned_with_identical_results() {
    let system = fig5_system();
    let xs: Vec<f64> = (0..9).map(|i| i as f64 / 8.0).collect();
    let reference = reference_runs(&system, SngKind::Xoshiro, &xs, 128, 3);
    let mut pool = PoolConfig::new(WORKER, 2).spawn().unwrap();
    let before = batch_on(
        Executor::Pool(&mut pool),
        &system,
        SngKind::Xoshiro,
        &xs,
        128,
        3,
    )
    .unwrap();
    assert_eq!(before, reference);
    // Kill one worker out from under the pool, mid-stream.
    let pids = pool.worker_pids();
    assert_eq!(pids.len(), 2);
    let status = std::process::Command::new("kill")
        .args(["-9", &pids[0].to_string()])
        .status()
        .unwrap();
    assert!(status.success(), "kill must succeed");
    // The next call hits the dead worker, respawns it transparently and
    // still produces the exact reference bytes (the respawned worker's
    // cold cache forces the inline path — also byte-identical).
    let after = batch_on(
        Executor::Pool(&mut pool),
        &system,
        SngKind::Xoshiro,
        &xs,
        128,
        3,
    )
    .unwrap();
    assert_eq!(after, reference, "recovery must not change results");
    let new_pids = pool.worker_pids();
    assert_ne!(new_pids[0], pids[0], "the dead worker was respawned");
}

#[test]
fn forced_cache_miss_falls_back_to_inline_transparently() {
    // Poison the pool's cache mirror so its very first request ships as
    // a cached reference the worker has never seen: the worker answers
    // a clean cache miss, the pool resends inline, and the caller sees
    // only the correct bytes.
    let system = fig5_system();
    let xs = [0.1, 0.5, 0.9];
    let reference = reference_runs(&system, SngKind::Xoshiro, &xs, 96, 11);
    let mut pool = PoolConfig::new(WORKER, 1).spawn().unwrap();
    pool.assume_cached(system.params(), system.polynomial().coeffs());
    let pooled = batch_on(
        Executor::Pool(&mut pool),
        &system,
        SngKind::Xoshiro,
        &xs,
        96,
        11,
    )
    .unwrap();
    assert_eq!(pooled, reference, "cache-miss fallback must be invisible");
    // And the digest is now genuinely cached: the repeat request rides
    // the reference path for real.
    let again = batch_on(
        Executor::Pool(&mut pool),
        &system,
        SngKind::Xoshiro,
        &xs,
        96,
        11,
    )
    .unwrap();
    assert_eq!(again, reference);
}

#[test]
fn nanocavity_soak_modes_produce_identical_bytes() {
    // The backend-matrix contract in miniature: the nanocavity physics
    // rides the identical schedule through in-process, pooled and
    // spawn-per-request serving and must produce one set of bytes. At
    // the schedule's order-6 gamma circuit the nanocavity decisions are
    // genuinely noisy (folded probabilities inside (0, 1)), so this
    // also drags the uniform-draw kernel tier across the process
    // boundary for the non-default backend.
    let cfg = SoakConfig {
        requests: 4,
        width: 5,
        height: 3,
        stream: 64,
        backend: BackendKind::Nanocavity,
        ..Default::default()
    };
    let in_process = soak::run(&cfg, Executor::InProcess(&BatchEvaluator::new())).unwrap();
    let mut pool = PoolConfig::new(WORKER, 2).spawn().unwrap();
    let pooled = soak::run(&cfg, Executor::Pool(&mut pool)).unwrap();
    let spawned = soak::run(&cfg, Executor::Spawn(&PoolConfig::new(WORKER, 2))).unwrap();
    assert_eq!(
        pooled.bytes, in_process.bytes,
        "nanocavity pool ≡ in-process"
    );
    assert_eq!(
        spawned.bytes, in_process.bytes,
        "nanocavity spawn ≡ in-process"
    );
    // And the physics is real: the two backends put different optical
    // power on the detector at the same operating point. (Their folded
    // flip probabilities are all within ~4e-6 of 0 or 1 here, so a
    // schedule this small sees no actual flips on either physics —
    // bytes alone cannot distinguish the backends.)
    use osc_core::backend::ScBackend;
    let params = CircuitParams::paper_fig7(6, Nanometers::new(0.165));
    let poly = paper_gamma_polynomial().unwrap();
    let nano_gamma = OpticalBackend::new(
        params.with_backend(BackendKind::Nanocavity),
        poly.clone(),
        64,
        0,
    )
    .unwrap();
    let mrr_gamma = OpticalBackend::new(params, poly, 64, 0).unwrap();
    let nano_power = nano_gamma
        .system()
        .backend()
        .received_power(3, 0b1)
        .unwrap();
    let mrr_power = mrr_gamma.system().backend().received_power(3, 0b1).unwrap();
    assert_ne!(nano_power.as_mw().to_bits(), mrr_power.as_mw().to_bits());
}

#[test]
fn capacity_one_cache_thrash_is_byte_identical() {
    // The soak schedule alternates two circuits (gamma and contrast),
    // so a worker whose circuit cache holds only ONE system evicts on
    // every request: each circuit reference the pool ships as cached
    // would be stale if the capacity knob were not mirrored
    // dispatcher-side. The run must still match the in-process bytes —
    // eviction costs rebuilds, never correctness — and the default-
    // capacity pool must agree too.
    let cfg = SoakConfig {
        requests: 6,
        width: 4,
        height: 3,
        stream: 64,
        ..Default::default()
    };
    let in_process = soak::run(&cfg, Executor::InProcess(&BatchEvaluator::new())).unwrap();
    let mut thrashing_pool = PoolConfig::new(WORKER, 2)
        .with_circuit_cache_capacity(1)
        .spawn()
        .unwrap();
    let thrashed = soak::run(&cfg, Executor::Pool(&mut thrashing_pool)).unwrap();
    assert_eq!(
        thrashed.bytes, in_process.bytes,
        "capacity-1 thrash ≡ in-process"
    );
    let mut roomy_pool = PoolConfig::new(WORKER, 2)
        .with_circuit_cache_capacity(4)
        .spawn()
        .unwrap();
    let roomy = soak::run(&cfg, Executor::Pool(&mut roomy_pool)).unwrap();
    assert_eq!(roomy.bytes, in_process.bytes, "capacity-4 ≡ in-process");
}

#[test]
fn fatal_errors_are_values_and_the_pool_survives_them() {
    let system = fig5_system();
    let mut pool = PoolConfig::new(WORKER, 2).spawn().unwrap();
    // A deterministic rejection (out-of-range input) is a Remote error,
    // not a retry loop...
    let err = batch_on(
        Executor::Pool(&mut pool),
        &system,
        SngKind::Xoshiro,
        &[0.5, 1.5],
        64,
        1,
    )
    .unwrap_err();
    match err {
        ExecError::Shard(ShardError::Remote { detail, .. }) => {
            assert!(detail.contains("outside"), "{detail}")
        }
        other => panic!("expected a remote error, got {other}"),
    }
    // ...and the pool remains fully usable afterwards.
    let xs = [0.25, 0.5, 0.75];
    let reference = reference_runs(&system, SngKind::Xoshiro, &xs, 64, 1);
    let recovered = batch_on(
        Executor::Pool(&mut pool),
        &system,
        SngKind::Xoshiro,
        &xs,
        64,
        1,
    )
    .unwrap();
    assert_eq!(recovered, reference);
}

#[test]
fn garbage_speaking_worker_fails_as_a_value() {
    // /bin/echo "answers" with a newline and exits: an invalid frame
    // prefix. The pool must retry on fresh processes and then fail with
    // a clean Worker error — never a panic, hang or huge allocation.
    let system = fig5_system();
    let mut pool = PoolConfig::new("/bin/echo", 2)
        .with_retries(1)
        .spawn()
        .unwrap();
    let err = batch_on(
        Executor::Pool(&mut pool),
        &system,
        SngKind::Xoshiro,
        &[0.5],
        64,
        1,
    )
    .unwrap_err();
    assert!(
        matches!(err, ExecError::Shard(ShardError::Worker { .. })),
        "{err}"
    );
}

#[test]
fn pool_thread_pinning_does_not_change_results() {
    let system = fig5_system();
    let xs: Vec<f64> = (0..13).map(|i| i as f64 / 12.0).collect();
    let mut pinned = PoolConfig::new(WORKER, 2)
        .with_worker_threads(1)
        .spawn()
        .unwrap();
    let mut free = PoolConfig::new(WORKER, 2).spawn().unwrap();
    let a = batch_on(
        Executor::Pool(&mut pinned),
        &system,
        SngKind::Chaotic,
        &xs,
        256,
        11,
    )
    .unwrap();
    let b = batch_on(
        Executor::Pool(&mut free),
        &system,
        SngKind::Chaotic,
        &xs,
        256,
        11,
    )
    .unwrap();
    assert_eq!(a, b, "OSC_THREADS pinning must be unobservable");
}
