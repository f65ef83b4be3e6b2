//! Fault-injection determinism: the fault machinery must be a pure,
//! seeded function of the spec and the stream's global index —
//! invisible at rate zero, bit-identical between the word-parallel
//! path and every dispatch tier and lane width, and independent of how
//! a batch is split across shards.
//!
//! The in-memory v3 protocol path is pinned here; the subprocess
//! coordinator and pool are exercised end to end by the `osc-bench`
//! integration suite, which owns the worker binary.

use osc_core::batch::shard::{
    decode_response_v2, encode_request_v2, read_frame, serve, write_frame, ShardJob, ShardPlan,
    ShardRequest, ShardResponseV2, SngKind,
};
use osc_core::batch::BatchEvaluator;
use osc_core::fault::{FaultSpec, StuckAt};
use osc_core::params::CircuitParams;
use osc_core::system::{EvalScratch, OpticalRun, OpticalScSystem};
use osc_math::rng::Xoshiro256PlusPlus;
use osc_stochastic::bernstein::BernsteinPoly;
use osc_stochastic::simd::{self, SimdTier};
use osc_stochastic::sng::{ChaoticLaserSng, CounterSng, LfsrSng, XoshiroSng};
use osc_units::Milliwatts;

fn fig5_poly() -> BernsteinPoly {
    BernsteinPoly::new(vec![0.25, 0.625, 0.75]).unwrap()
}

fn clean_system() -> OpticalScSystem {
    OpticalScSystem::new(CircuitParams::paper_fig5(), fig5_poly()).unwrap()
}

/// Starved probes force non-deterministic fold decisions, so the
/// uniform-draw kernel tier (whose RNG consumption order is part of
/// the determinism contract) runs on every cycle.
fn noisy_system() -> OpticalScSystem {
    let params = CircuitParams::paper_fig5().with_probe_power(Milliwatts::new(0.05));
    let system = OpticalScSystem::new(params, fig5_poly()).unwrap();
    assert!(!system.has_deterministic_decisions());
    system
}

/// An active spec exercising all three fault mechanisms.
fn active_spec() -> FaultSpec {
    let mut spec = FaultSpec::with_seed(0xFA17);
    spec.flip_probability = 0.03;
    spec.shift_probability = 0.002;
    spec.stuck = Some(StuckAt {
        mask: 1 << 7,
        value: 1 << 7,
    });
    spec
}

fn batch_runs(
    system: &OpticalScSystem,
    kind: SngKind,
    xs: &[f64],
    stream_length: usize,
    seed: u64,
    faults: Option<&FaultSpec>,
) -> Vec<OpticalRun> {
    let ev = BatchEvaluator::with_threads(2);
    match kind {
        SngKind::Lfsr => ev.evaluate_range_faulted(
            system,
            xs,
            stream_length,
            |s| LfsrSng::new(16, s as u32).unwrap(),
            seed,
            0,
            faults,
        ),
        SngKind::Counter => ev.evaluate_range_faulted(
            system,
            xs,
            stream_length,
            |_| CounterSng::new(),
            seed,
            0,
            faults,
        ),
        SngKind::Xoshiro => {
            ev.evaluate_range_faulted(system, xs, stream_length, XoshiroSng::new, seed, 0, faults)
        }
        SngKind::Chaotic => ev.evaluate_range_faulted(
            system,
            xs,
            stream_length,
            ChaoticLaserSng::seeded,
            seed,
            0,
            faults,
        ),
    }
    .unwrap()
}

#[test]
fn rate_zero_is_bit_identical_to_clean_for_all_sngs_and_regimes() {
    // A present-but-inert spec (both rates 0, no stuck mask) must be
    // indistinguishable from no spec at all: the fault hooks may not
    // consume RNG state, reorder draws or touch a single bit.
    let inert = FaultSpec::with_seed(0xDEAD);
    assert!(!inert.is_active());
    let xs: Vec<f64> = (0..13).map(|i| i as f64 / 12.0).collect();
    for (label, system) in [("clean", clean_system()), ("noisy", noisy_system())] {
        for kind in SngKind::ALL {
            for &len in &[63usize, 257, 1024] {
                let clean = batch_runs(&system, kind, &xs, len, 7, None);
                let zeroed = batch_runs(&system, kind, &xs, len, 7, Some(&inert));
                assert_eq!(clean, zeroed, "{label} {} len={len}", kind.name());
            }
        }
    }
}

#[test]
fn active_faults_change_results_and_are_reproducible() {
    let xs: Vec<f64> = (0..9).map(|i| i as f64 / 8.0).collect();
    let system = clean_system();
    let spec = active_spec();
    let clean = batch_runs(&system, SngKind::Xoshiro, &xs, 512, 7, None);
    let faulted = batch_runs(&system, SngKind::Xoshiro, &xs, 512, 7, Some(&spec));
    assert_ne!(clean, faulted, "an active spec must perturb the output");
    let again = batch_runs(&system, SngKind::Xoshiro, &xs, 512, 7, Some(&spec));
    assert_eq!(faulted, again, "the fault universe is seeded, not random");
    // A different fault seed is a different universe over the same
    // circuit universe.
    let mut reseeded = spec;
    reseeded.flip_seed ^= 1;
    let other = batch_runs(&system, SngKind::Xoshiro, &xs, 512, 7, Some(&reseeded));
    assert_ne!(faulted, other);
}

/// Per-lane faulted fused runs — the scalar reference the lane-blocked
/// kernel must reproduce bit for bit.
fn per_lane_reference<const L: usize>(
    system: &OpticalScSystem,
    xs: &[f64; L],
    len: usize,
    specs: &[FaultSpec; L],
) -> Vec<OpticalRun> {
    let mut scratch = EvalScratch::new();
    (0..L)
        .map(|l| {
            let mut sng = XoshiroSng::new(40 + l as u64);
            let mut rng = Xoshiro256PlusPlus::new(90 + l as u64);
            system
                .evaluate_fused_faulted(
                    xs[l],
                    len,
                    &mut sng,
                    &mut rng,
                    Some(&specs[l]),
                    &mut scratch,
                )
                .unwrap()
        })
        .collect()
}

fn lane_block_runs<const L: usize>(
    system: &OpticalScSystem,
    xs: &[f64; L],
    len: usize,
    specs: &[FaultSpec; L],
) -> [OpticalRun; L] {
    let mut sngs: [XoshiroSng; L] = std::array::from_fn(|l| XoshiroSng::new(40 + l as u64));
    let mut rngs: [Xoshiro256PlusPlus; L] =
        std::array::from_fn(|l| Xoshiro256PlusPlus::new(90 + l as u64));
    let mut scratch = EvalScratch::new();
    system
        .evaluate_fused_lanes_faulted(xs, len, &mut sngs, &mut rngs, Some(specs), &mut scratch)
        .unwrap()
}

#[test]
fn lane_blocked_faulted_equals_per_lane_faulted() {
    // The word-parallel faulted lane kernel against L standalone
    // faulted fused passes, with a distinct spec per lane — clean and
    // noisy, at lengths covering ragged tails and the pair cutoff.
    let base = active_spec();
    for (label, system) in [("clean", clean_system()), ("noisy", noisy_system())] {
        for &len in &[63usize, 257, 1024, 8257] {
            {
                const L: usize = 4;
                let xs: [f64; L] = std::array::from_fn(|l| (l + 1) as f64 / (L + 1) as f64);
                let specs: [FaultSpec; L] = std::array::from_fn(|l| base.rebased(l as u64));
                let blocked = lane_block_runs::<L>(&system, &xs, len, &specs);
                let reference = per_lane_reference::<L>(&system, &xs, len, &specs);
                assert_eq!(blocked.to_vec(), reference, "{label} L=4 len={len}");
            }
            {
                const L: usize = 8;
                let xs: [f64; L] = std::array::from_fn(|l| (l + 1) as f64 / (L + 1) as f64);
                let specs: [FaultSpec; L] = std::array::from_fn(|l| base.rebased(l as u64));
                let blocked = lane_block_runs::<L>(&system, &xs, len, &specs);
                let reference = per_lane_reference::<L>(&system, &xs, len, &specs);
                assert_eq!(blocked.to_vec(), reference, "{label} L=8 len={len}");
            }
        }
    }
}

#[test]
fn faulted_lanes_agree_across_dispatch_tiers() {
    // The faulted 8-lane workload under forced-scalar, forced-AVX2 and
    // the machine's detected tier must produce identical runs. (Safe
    // under parallel tests: every tier is bit-identical by contract,
    // so racing tests only vary which implementation runs.)
    let base = active_spec();
    const L: usize = 8;
    let xs: [f64; L] = std::array::from_fn(|l| (l + 1) as f64 / (L + 1) as f64);
    let specs: [FaultSpec; L] = std::array::from_fn(|l| base.rebased(l as u64));
    for (label, system) in [("clean", clean_system()), ("noisy", noisy_system())] {
        for &len in &[257usize, 4097] {
            let run_under = |tier: SimdTier| {
                simd::set_tier_override(Some(tier));
                let runs = lane_block_runs::<L>(&system, &xs, len, &specs);
                simd::set_tier_override(None);
                runs
            };
            let scalar = run_under(SimdTier::Scalar);
            for tier in [SimdTier::Avx2, simd::detected_tier()] {
                assert_eq!(scalar, run_under(tier), "{label} len={len} {tier:?}");
            }
        }
    }
}

#[test]
fn batch_splits_rebase_faults_by_global_index() {
    // Splitting a faulted batch at any point and evaluating the pieces
    // with `evaluate_range_faulted` must reproduce the whole-batch
    // bytes: the fault universe of item i depends only on its global
    // index, never on which range (or process) evaluates it.
    let system = clean_system();
    let spec = active_spec();
    let xs: Vec<f64> = (0..11).map(|i| i as f64 / 10.0).collect();
    let ev = BatchEvaluator::with_threads(2);
    let whole = ev
        .evaluate_range_faulted(&system, &xs, 256, XoshiroSng::new, 7, 0, Some(&spec))
        .unwrap();
    for split in [1usize, 4, 8, 10] {
        let mut merged = ev
            .evaluate_range_faulted(
                &system,
                &xs[..split],
                256,
                XoshiroSng::new,
                7,
                0,
                Some(&spec),
            )
            .unwrap();
        merged.extend(
            ev.evaluate_range_faulted(
                &system,
                &xs[split..],
                256,
                XoshiroSng::new,
                7,
                split as u64,
                Some(&spec),
            )
            .unwrap(),
        );
        assert_eq!(merged, whole, "split at {split}");
    }
}

/// Runs one faulted request through the in-memory worker loop as a v3
/// frame.
fn serve_one_v3(req: &ShardRequest) -> Vec<OpticalRun> {
    let mut input = Vec::new();
    write_frame(&mut input, &encode_request_v2(req, 1, None)).unwrap();
    let mut output = Vec::new();
    serve(&input[..], &mut output).unwrap();
    let payload = read_frame(&mut &output[..]).unwrap().expect("one response");
    match decode_response_v2(&payload).unwrap() {
        ShardResponseV2::Runs { runs, .. } => runs,
        other => panic!("worker error: {other:?}"),
    }
}

#[test]
fn in_memory_sharded_faults_are_identical_across_shard_counts() {
    // Any ShardPlan partition of a faulted batch, served shard by shard
    // through the v3 protocol and merged in index order, must equal the
    // unsharded faulted reference — the acceptance shard counts plus
    // degenerate ones.
    let spec = active_spec();
    let xs: Vec<f64> = (0..23).map(|i| i as f64 / 22.0).collect();
    let n = xs.len();
    for (label, system) in [("clean", clean_system()), ("noisy", noisy_system())] {
        let reference = batch_runs(&system, SngKind::Xoshiro, &xs, 192, 7, Some(&spec));
        for shards in [1usize, 2, 3, 7, n, n + 5] {
            let plan = ShardPlan::new(n, shards);
            let mut merged = Vec::with_capacity(n);
            for &(start, len) in plan.ranges() {
                let req = ShardRequest {
                    params: *system.params(),
                    coeffs: system.polynomial().coeffs().to_vec(),
                    sng: SngKind::Xoshiro,
                    seed: 7,
                    stream_length: 192,
                    faults: Some(spec),
                    job: ShardJob::Batch {
                        first_index: start as u64,
                        xs: xs[start..start + len].to_vec(),
                    },
                };
                merged.extend(serve_one_v3(&req));
            }
            assert_eq!(merged, reference, "{label} shards={shards}");
        }
    }
}

#[test]
fn in_memory_sharded_image_faults_are_identical_across_shard_counts() {
    // The image job rebases the spec by row and then by column; the
    // result must not depend on how rows are split across shards.
    let spec = active_spec();
    let (width, height) = (9usize, 8);
    let pixels: Vec<f64> = (0..width * height)
        .map(|i| i as f64 / (width * height) as f64)
        .collect();
    let system = clean_system();
    let make_req = |first_row: usize, rows: &[f64]| ShardRequest {
        params: *system.params(),
        coeffs: system.polynomial().coeffs().to_vec(),
        sng: SngKind::Xoshiro,
        seed: 5,
        stream_length: 128,
        faults: Some(spec),
        job: ShardJob::ImageRows {
            width: width as u64,
            first_row: first_row as u64,
            pixels: rows.to_vec(),
        },
    };
    let whole = serve_one_v3(&make_req(0, &pixels));
    for shards in [2usize, 3, 7] {
        let plan = ShardPlan::new(height, shards);
        let mut merged = Vec::with_capacity(width * height);
        for &(start, len) in plan.ranges() {
            merged.extend(serve_one_v3(&make_req(
                start,
                &pixels[start * width..(start + len) * width],
            )));
        }
        assert_eq!(merged, whole, "image shards={shards}");
    }
}

#[test]
fn flip_density_tracks_the_requested_rate() {
    // Flips applied to an all-zero stream leave exactly the flipped
    // bits set, so the ones-count is a Binomial(n, p) draw from the
    // seeded fault universe: check it lands within ±5σ for a spread of
    // rates and streams, and that disjoint streams flip independently
    // (different universes).
    for &p in &[0.01f64, 0.05, 0.2] {
        let spec = FaultSpec::flips(p, 0xF00D);
        let bits = 1 << 16;
        let words = bits / 64;
        let mut tmp = Vec::new();
        let mut counts = Vec::new();
        for stream in 0..4u64 {
            let mut buf = vec![0u64; words];
            spec.apply_to_words(stream, &mut buf, 0, 1, bits, &mut tmp);
            counts.push(buf.iter().map(|w| w.count_ones() as u64).sum::<u64>());
        }
        let sigma = (bits as f64 * p * (1.0 - p)).sqrt();
        for (stream, &ones) in counts.iter().enumerate() {
            let dev = (ones as f64 - bits as f64 * p).abs();
            assert!(
                dev < 5.0 * sigma,
                "rate {p} stream {stream}: {ones} ones, deviation {dev:.1} vs σ={sigma:.1}"
            );
        }
        assert!(
            counts.windows(2).any(|w| w[0] != w[1]),
            "distinct streams must draw from distinct fault universes"
        );
    }
}
