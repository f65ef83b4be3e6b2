//! Inputs, timing helpers and the per-layer probes every workload
//! shares.

use crate::trace;
use osc_apps::backend::OpticalBackend;
use osc_apps::gamma_app;
use osc_apps::image::Image;
use osc_core::batch::shard::{
    decode_request_v2, decode_response_v2, encode_request_v2, encode_response_v2, ShardRequest,
    ShardResponseV2, SngKind,
};
use osc_core::batch::{mix_seed, BatchEvaluator};
use osc_core::fault::FaultSpec;
use osc_core::system::{EvalScratch, OpticalRun, OpticalScSystem};
use osc_math::rng::Xoshiro256PlusPlus;
use osc_stochastic::sng::{StochasticNumberGenerator, XoshiroSng};
use std::hint::black_box;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// The fixed fault process of every faulted operation: flip 0.01,
/// shift 0.001, universes derived from the workload seed.
pub fn fault_spec(seed: u64) -> FaultSpec {
    FaultSpec {
        flip_probability: 0.01,
        shift_probability: 0.001,
        ..FaultSpec::with_seed(mix_seed(seed, 0xFA17))
    }
}

/// What one run was asked to do.
#[derive(Debug, Clone)]
pub struct RunArgs {
    /// Workload seed: every input derives from it.
    pub seed: u64,
    /// Measurement budget, s.
    pub seconds: f64,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
    /// Directory holding `osc_service` and `shard_worker`.
    pub bin_dir: PathBuf,
}

impl RunArgs {
    /// Path of a sibling binary.
    pub fn bin(&self, name: &str) -> PathBuf {
        self.bin_dir
            .join(format!("{name}{}", std::env::consts::EXE_SUFFIX))
    }
}

/// Latency statistics of one sample, ms.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Latency {
    /// Samples.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// The reported tail percentile (99 when the sample supports it).
    pub tail_pct: f64,
    /// Value at the tail percentile.
    pub tail: f64,
    /// Samples beyond the tail.
    pub beyond: usize,
    /// Mean.
    pub mean: f64,
}

impl Latency {
    /// Summarizes a sample of latencies in ms; `None` when empty.
    pub fn of(values: &[f64]) -> Option<Latency> {
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        let (tail_pct, tail, beyond) =
            crate::stats::tail(&sorted, 99.0, crate::stats::TAIL_BEYOND)?;
        Some(Latency {
            n: sorted.len(),
            p50: crate::stats::nearest_rank(&sorted, 50.0)?,
            tail_pct,
            tail,
            beyond,
            mean: crate::stats::mean(&sorted)?,
        })
    }

    /// The record fields of this summary, for a phase line.
    pub fn fields(&self, prefix: &str) -> String {
        format!(
            ",\"{prefix}n\":{},\"{prefix}p50_ms\":{:.4},\"{prefix}tail_pct\":{:.2},\"{prefix}tail_ms\":{:.4},\"{prefix}beyond\":{}",
            self.n, self.p50, self.tail_pct, self.tail, self.beyond
        )
    }
}

/// Runs `f` repeatedly for about `budget` (at least `min_iters`, at
/// most `MAX_ITERS` times) and returns the median seconds per call.
pub fn median_secs(budget: Duration, min_iters: usize, mut f: impl FnMut()) -> f64 {
    const MAX_ITERS: usize = 200;
    let started = Instant::now();
    let mut times = Vec::new();
    while times.len() < min_iters || (started.elapsed() < budget && times.len() < MAX_ITERS) {
        let t = Instant::now();
        f();
        times.push(t.elapsed().as_secs_f64());
    }
    crate::stats::median(&times).expect("at least one timed call")
}

/// Set-ups a run makes; it reports their median as `setup_s`.
pub const SET_UPS: usize = 7;

/// Fewest rounds [`clean_faulted_per_op`] times.
pub const MIN_ROUNDS: usize = 8;

/// In-process cost of `ops` fixed operations, clean and under the fixed
/// fault process, s per operation: each operation's fastest repeat
/// ([`crate::stats::quiet_per_op`] at [`crate::stats::FASTEST`]), averaged.
/// `op(i, faulted)` runs operation `i`; it is warmed once untimed, then
/// timed in rounds over every operation (each clean run followed by its
/// faulted twin, so both see the same host) until `budget` has passed,
/// at least [`MIN_ROUNDS`] times. Returns `(clean, faulted)`.
pub fn clean_faulted_per_op(
    ops: usize,
    budget: Duration,
    mut op: impl FnMut(usize, bool),
) -> (f64, f64) {
    for i in 0..ops {
        op(i, false);
        op(i, true);
    }
    let started = Instant::now();
    let mut clean = Vec::new();
    let mut faulted = Vec::new();
    while clean.len() < MIN_ROUNDS || started.elapsed() < budget {
        let mut round = [Vec::with_capacity(ops), Vec::with_capacity(ops)];
        for i in 0..ops {
            for (f, times) in [false, true].into_iter().zip(&mut round) {
                let t = Instant::now();
                op(i, f);
                times.push(t.elapsed().as_secs_f64());
            }
        }
        let [c, f] = round;
        clean.push(c);
        faulted.push(f);
    }
    let quiet = |rounds: &[Vec<f64>]| {
        crate::stats::quiet_per_op(rounds, crate::stats::FASTEST).unwrap_or(f64::INFINITY)
    };
    (quiet(&clean), quiet(&faulted))
}

/// Mean |estimate − exact| over runs.
pub fn runs_abs_error(runs: &[OpticalRun]) -> (f64, usize) {
    (
        runs.iter().map(|r| (r.estimate - r.exact).abs()).sum(),
        runs.len(),
    )
}

/// One circuit and input frame a workload evaluates, for the per-layer
/// probes.
pub struct ProbeItem {
    /// The circuit with its stream length and seed.
    pub backend: OpticalBackend,
    /// The frame (or probe row) it evaluates.
    pub image: Image,
}

/// The per-layer metrics every workload reports from its traced run.
/// Layers the workload does not run report 0 (no work).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Layers {
    pub p50_ms: f64,
    pub candidates_per_s: f64,
    pub sng_ns_per_bit: f64,
    pub sng_bits_per_out_bit: f64,
    pub fault_overhead_ratio: f64,
    pub system_build_ms: f64,
    pub system_eval_ns_per_bit: f64,
    pub batch_parallel_efficiency: f64,
    pub shard_encode_us: f64,
    pub shard_decode_us: f64,
    pub shard_frame_bytes: f64,
    pub shard_circuit_reuse_share: f64,
    pub pool_overhead_ms_per_req: f64,
    pub service_rtt_ms: f64,
    pub service_overhead_ms: f64,
    pub service_queue_wait_ms: f64,
    pub service_queue_wait_ms_busy: f64,
    pub loadgen_lag_p99_ms: f64,
    pub service_p99_ms: f64,
    pub service_p99_ms_busy: f64,
    pub service_max_rps_at_slo: f64,
    pub sweep_solve_s: f64,
    pub sweep_eval_s: f64,
    pub sweep_pareto_ms: f64,
    pub sweep_build_share: f64,
    pub trace_overhead_share: f64,
    pub trace_accounted_share: f64,
}

impl Layers {
    /// Reports every per-layer metric by its benchmark name.
    pub fn report(&self, report: &mut crate::report::Report) {
        let kernel_fold = (self.system_eval_ns_per_bit
            - self.sng_ns_per_bit * self.sng_bits_per_out_bit)
            .max(0.0);
        let rows: [(&str, f64, &'static str); 28] = [
            ("p50_ms", self.p50_ms, "ms"),
            ("candidates_per_s", self.candidates_per_s, "1/s"),
            ("sng.ns_per_bit", self.sng_ns_per_bit, "ns"),
            ("sng.bits_per_out_bit", self.sng_bits_per_out_bit, "count"),
            ("fault.overhead_ratio", self.fault_overhead_ratio, "ratio"),
            ("system.build_ms", self.system_build_ms, "ms"),
            ("system.eval_ns_per_bit", self.system_eval_ns_per_bit, "ns"),
            ("system.kernel_fold_ns_per_bit", kernel_fold, "ns"),
            (
                "batch.parallel_efficiency",
                self.batch_parallel_efficiency,
                "ratio",
            ),
            ("shard.encode_us", self.shard_encode_us, "us"),
            ("shard.decode_us", self.shard_decode_us, "us"),
            ("shard.frame_bytes", self.shard_frame_bytes, "bytes"),
            (
                "shard.circuit_reuse_share",
                self.shard_circuit_reuse_share,
                "share",
            ),
            (
                "pool.overhead_ms_per_req",
                self.pool_overhead_ms_per_req,
                "ms",
            ),
            ("service.rtt_ms", self.service_rtt_ms, "ms"),
            ("service.overhead_ms", self.service_overhead_ms, "ms"),
            ("service.queue_wait_ms", self.service_queue_wait_ms, "ms"),
            (
                "service.queue_wait_ms_busy",
                self.service_queue_wait_ms_busy,
                "ms",
            ),
            ("loadgen.lag_p99_ms", self.loadgen_lag_p99_ms, "ms"),
            ("service.p99_ms", self.service_p99_ms, "ms"),
            ("service.p99_ms_busy", self.service_p99_ms_busy, "ms"),
            ("service.max_rps_at_slo", self.service_max_rps_at_slo, "1/s"),
            ("sweep.solve_s", self.sweep_solve_s, "s"),
            ("sweep.eval_s", self.sweep_eval_s, "s"),
            ("sweep.pareto_ms", self.sweep_pareto_ms, "ms"),
            ("sweep.build_share", self.sweep_build_share, "share"),
            ("trace.overhead_share", self.trace_overhead_share, "share"),
            ("trace.accounted_share", self.trace_accounted_share, "share"),
        ];
        for (name, value, unit) in rows {
            report.metric(name, value, unit);
        }
    }
}

/// Runs the in-process layer probes on a workload's own circuits and
/// frames, filling the `stochastic.sng`, `core.system`, `core.fault`,
/// `core.batch` and `core.batch.shard` (codec) fields of `layers`.
/// Each probe call is a span named after the layer function it times.
pub fn probe_layers(items: &[ProbeItem], fault: &FaultSpec, budget: Duration, layers: &mut Layers) {
    let per = budget / (4 * items.len().max(1)) as u32;
    let n = items.len() as f64;
    let one = BatchEvaluator::with_threads(1);
    let default = BatchEvaluator::new();
    let mut sng = 0.0;
    let mut bits = 0.0;
    let mut build = 0.0;
    let mut eval = 0.0;
    let mut fault_ratio = 0.0;
    let mut efficiency = 0.0;
    for (k, item) in items.iter().enumerate() {
        let system = item.backend.system();
        let stream = item.backend.stream_length();
        let mut xs = [0.0f64; 8];
        for (l, slot) in xs.iter_mut().enumerate() {
            *slot = item.image.pixels()[l % item.image.pixels().len()].clamp(0.0, 1.0);
        }
        let request = k as u64;

        // stochastic.sng: eight lanes drained in lockstep.
        let seconds = median_secs(per / 4, 5, || {
            trace::timed("stochastic.sng.drain_lanes", request, None, || {
                let mut lanes: [XoshiroSng; 8] =
                    std::array::from_fn(|l| XoshiroSng::new(mix_seed(request, l as u64)));
                let mut acc = 0u64;
                XoshiroSng::drain_lanes(&mut lanes, &xs, stream, |block, _| {
                    acc ^= block[0] ^ block[7];
                })
                .expect("probabilities in [0, 1]");
                black_box(acc);
            })
        });
        sng += seconds * 1e9 / (8 * stream) as f64;
        bits += (2 * system.params().order + 1) as f64;

        // core.system: circuit build and the fused 8-lane kernel.
        let params = *system.params();
        let poly = system.polynomial().clone();
        build += median_secs(per / 4, 3, || {
            trace::timed("core.system.OpticalScSystem::new", request, None, || {
                black_box(OpticalScSystem::new(params, poly.clone()).expect("circuit builds"));
            })
        }) * 1e3;
        let mut scratch = EvalScratch::new();
        let seconds = median_secs(per / 4, 5, || {
            trace::timed("core.system.evaluate_fused_lanes", request, None, || {
                let mut sngs: [XoshiroSng; 8] =
                    std::array::from_fn(|l| XoshiroSng::new(mix_seed(request, l as u64)));
                let mut rngs: [Xoshiro256PlusPlus; 8] =
                    std::array::from_fn(|l| Xoshiro256PlusPlus::new(mix_seed(!request, l as u64)));
                black_box(
                    system
                        .evaluate_fused_lanes(&xs, stream, &mut sngs, &mut rngs, &mut scratch)
                        .expect("inputs in [0, 1]"),
                );
            })
        });
        eval += seconds * 1e9 / (8 * stream) as f64;

        // core.fault and core.batch: the same frame, single-thread
        // faulted vs clean, and single- vs default-thread clean.
        let mut clean_one = 0.0;
        let mut faulted_one = 0.0;
        let mut clean_default = 0.0;
        for _ in 0..3 {
            clean_one += median_secs(per / 12, 2, || {
                trace::timed("apps.gamma_app.apply_optical_lanes", request, None, || {
                    black_box(gamma_app::apply_optical_lanes(
                        &item.image,
                        &item.backend,
                        &one,
                    ))
                    .expect("frame evaluates");
                })
            });
            faulted_one += median_secs(per / 12, 2, || {
                trace::timed(
                    "apps.gamma_app.apply_optical_lanes_faulted",
                    request,
                    None,
                    || {
                        black_box(gamma_app::apply_optical_lanes_faulted(
                            &item.image,
                            &item.backend,
                            &one,
                            Some(fault),
                        ))
                        .expect("frame evaluates");
                    },
                )
            });
            clean_default += median_secs(per / 12, 2, || {
                trace::timed("apps.gamma_app.apply_optical_lanes", request, None, || {
                    black_box(gamma_app::apply_optical_lanes(
                        &item.image,
                        &item.backend,
                        &default,
                    ))
                    .expect("frame evaluates");
                })
            });
        }
        fault_ratio += faulted_one / clean_one;
        efficiency += clean_one / (clean_default * default.threads() as f64);
    }
    layers.sng_ns_per_bit = sng / n;
    layers.sng_bits_per_out_bit = bits / n;
    layers.system_build_ms = build / n;
    layers.system_eval_ns_per_bit = eval / n;
    layers.fault_overhead_ratio = fault_ratio / n;
    layers.batch_parallel_efficiency = efficiency / n;
}

/// Times the v2 codec on one request and its response: encode and
/// decode of both frames, µs per request, and their combined size.
pub fn probe_codec(request: &ShardRequest, runs: &[OpticalRun], layers: &mut Layers) {
    let response = ShardResponseV2::Runs {
        request_id: 1,
        runs: runs.to_vec(),
    };
    let req_frame = encode_request_v2(request, 1, None);
    let resp_frame = encode_response_v2(&response);
    let budget = Duration::from_millis(40);
    let encode = median_secs(budget, 20, || {
        trace::timed("core.batch.shard.encode_request_v2", 0, None, || {
            black_box(encode_request_v2(black_box(request), 1, None));
        });
        trace::timed("core.batch.shard.encode_response_v2", 0, None, || {
            black_box(encode_response_v2(black_box(&response)));
        });
    });
    let decode = median_secs(budget, 20, || {
        trace::timed("core.batch.shard.decode_request_v2", 0, None, || {
            black_box(decode_request_v2(black_box(&req_frame)).expect("own frame decodes"));
        });
        trace::timed("core.batch.shard.decode_response_v2", 0, None, || {
            black_box(decode_response_v2(black_box(&resp_frame)).expect("own frame decodes"));
        });
    });
    layers.shard_encode_us = encode * 1e6;
    layers.shard_decode_us = decode * 1e6;
    // Each frame travels with an 8-byte length prefix.
    layers.shard_frame_bytes = (req_frame.len() + resp_frame.len() + 16) as f64;
}

/// The whole-frame wire request of one image evaluation (what a
/// service client ships for a frame).
pub fn frame_request(
    system: &OpticalScSystem,
    image: &Image,
    stream: usize,
    seed: u64,
    fault: Option<&FaultSpec>,
) -> ShardRequest {
    ShardRequest::whole_image(
        system,
        SngKind::Xoshiro,
        image.width(),
        image.pixels(),
        stream,
        seed,
        fault,
    )
    .expect("frames are whole rows")
}

/// An LRU of circuit digests with the receiver cache's capacity, to
/// count how many requests find their circuit already shipped.
#[derive(Debug, Default)]
pub struct ShippedCircuits {
    recent: std::collections::VecDeque<u64>,
    capacity: usize,
    /// Requests whose circuit was already shipped and still cached.
    pub reused: u64,
    /// Requests seen.
    pub seen: u64,
}

impl ShippedCircuits {
    /// An LRU holding `capacity` digests.
    pub fn new(capacity: usize) -> Self {
        ShippedCircuits {
            capacity,
            ..Default::default()
        }
    }

    /// Notes one request for `digest`; returns whether it was reused.
    pub fn note(&mut self, digest: u64) -> bool {
        self.seen += 1;
        let hit = if let Some(at) = self.recent.iter().position(|&d| d == digest) {
            self.recent.remove(at);
            true
        } else {
            false
        };
        self.recent.push_front(digest);
        self.recent.truncate(self.capacity);
        self.reused += u64::from(hit);
        hit
    }

    /// Share of requests whose circuit was reused.
    pub fn share(&self) -> f64 {
        if self.seen == 0 {
            0.0
        } else {
            self.reused as f64 / self.seen as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shipped_circuits_is_an_lru() {
        let mut s = ShippedCircuits::new(2);
        assert!(!s.note(1));
        assert!(!s.note(2));
        assert!(s.note(1));
        assert!(!s.note(3)); // evicts 2
        assert!(!s.note(2));
        assert_eq!((s.reused, s.seen), (1, 5));
        // A cyclic stream wider than the cache never hits.
        let mut c = ShippedCircuits::new(8);
        for k in 0..100u64 {
            assert!(!c.note(k % 12));
        }
        assert_eq!(c.share(), 0.0);
    }

    #[test]
    fn latency_summary_reports_the_supported_tail() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        let l = Latency::of(&values).unwrap();
        assert_eq!((l.n, l.p50, l.tail, l.beyond), (100, 50.0, 90.0, 10));
        assert_eq!(l.mean, 50.5);
        assert!(Latency::of(&[]).is_none());
    }
}
