//! `gamma_frames_inproc`: a closed loop of order-6 paper gamma frames
//! at stream 16384 through `gamma_app::apply_optical_lanes` on a default
//! `BatchEvaluator`. Even frames run clean; odd frames run the faulted
//! twin under the fixed fault process. No serving layer is involved.

use crate::common::{self, Latency, Layers, ProbeItem, RunArgs};
use crate::report::{PhaseCounts, Report};
use crate::{closed, stats, trace};
use osc_apps::backend::OpticalBackend;
use osc_apps::gamma_app::{self, paper_gamma_polynomial};
use osc_apps::image::Image;
use osc_core::batch::shard::{evaluate_batch_in_process, SngKind};
use osc_core::batch::{mix_seed, BatchEvaluator};
use osc_core::fault::FaultSpec;
use osc_core::params::CircuitParams;
use osc_units::Nanometers;
use std::time::{Duration, Instant};

/// Workload name.
pub const NAME: &str = "gamma_frames_inproc";
/// Stream length per pixel evaluation, bits.
const STREAM: usize = 16384;
/// Frame side, pixels.
const SIDE: usize = 8;
/// Distinct input frames the loop cycles through.
const FRAMES: usize = 8;

struct Inputs {
    base: OpticalBackend,
    frames: Vec<Image>,
    fault: FaultSpec,
    seed: u64,
    evaluator: BatchEvaluator,
}

impl Inputs {
    fn build(seed: u64) -> Inputs {
        let base = OpticalBackend::new(
            CircuitParams::paper_fig7(6, Nanometers::new(0.165)),
            paper_gamma_polynomial().expect("the paper gamma fit exists"),
            STREAM,
            seed,
        )
        .expect("the paper gamma circuit builds");
        let frames = (0..FRAMES)
            .map(|k| Image::noise(SIDE, SIDE, mix_seed(seed, k as u64)))
            .collect();
        Inputs {
            base,
            frames,
            fault: common::fault_spec(seed),
            seed,
            evaluator: BatchEvaluator::new(),
        }
    }

    /// Evaluates frame `k` (faulted when `k` is odd); returns the output
    /// and the call's wall time, ms.
    fn frame(&self, k: usize) -> (Image, bool, f64) {
        let backend = self.base.with_seed(mix_seed(self.seed, 0x6A3A + k as u64));
        let image = &self.frames[k % FRAMES];
        let faulted = k % 2 == 1;
        let root = trace::reserve();
        let start = Instant::now();
        let out = if faulted {
            trace::timed(
                "apps.gamma_app.apply_optical_lanes_faulted",
                k as u64,
                root,
                || {
                    gamma_app::apply_optical_lanes_faulted(
                        image,
                        &backend,
                        &self.evaluator,
                        Some(&self.fault),
                    )
                },
            )
        } else {
            trace::timed("apps.gamma_app.apply_optical_lanes", k as u64, root, || {
                gamma_app::apply_optical_lanes(image, &backend, &self.evaluator)
            })
        };
        let end = Instant::now();
        trace::record_as(root, "op.frame", k as u64, None, start, end);
        let out = out.expect("gamma frames evaluate");
        (out, faulted, (end - start).as_secs_f64() * 1e3)
    }

    /// Mean |estimate − exact polynomial| of one output frame.
    fn abs_error(&self, k: usize, out: &Image) -> f64 {
        let poly = self.base.system().polynomial();
        let image = &self.frames[k % FRAMES];
        image
            .pixels()
            .iter()
            .zip(out.pixels())
            .map(|(&x, &y)| (y - poly.eval(x.clamp(0.0, 1.0))).abs())
            .sum()
    }
}

/// What a closed-loop phase measured.
struct Phase {
    all_ms: Vec<f64>,
    clean_ms: Vec<f64>,
    faulted_ms: Vec<f64>,
    clean_err: f64,
    clean_px: usize,
    frames: usize,
}

fn phase(inputs: &Inputs, duration: Duration) -> Phase {
    let done = closed::run(&mut (), 0, duration, |_, k| inputs.frame(k));
    let mut p = Phase {
        all_ms: Vec::new(),
        clean_ms: Vec::new(),
        faulted_ms: Vec::new(),
        clean_err: 0.0,
        clean_px: 0,
        frames: done.len(),
    };
    for d in &done {
        let (out, faulted, ms) = &d.out;
        p.all_ms.push(*ms);
        if *faulted {
            p.faulted_ms.push(*ms);
        } else {
            p.clean_ms.push(*ms);
            p.clean_err += inputs.abs_error(d.k, out);
            p.clean_px += out.pixels().len();
        }
    }
    p
}

fn ns_per_bit(ms: &[f64]) -> f64 {
    stats::quiet(ms, stats::QUIET_COST, stats::chunk_mean).unwrap_or(f64::INFINITY) * 1e6
        / (SIDE * SIDE * STREAM) as f64
}

/// Median clean-frame latency ([`stats::quiet`]), ms.
fn p50_ms(ms: &[f64]) -> f64 {
    stats::quiet(ms, stats::QUIET_COST, stats::chunk_median).unwrap_or(f64::INFINITY)
}

/// Frames per second of wall time spent in frames.
fn frames_per_s(ms: &[f64]) -> f64 {
    stats::quiet(ms, stats::QUIET_RATE, |c| 1e3 / stats::chunk_mean(c)).unwrap_or(0.0)
}

/// Runs the workload and reports its metrics.
pub fn run(args: &RunArgs, report: &mut Report) {
    let budget = Duration::from_secs_f64(args.seconds);

    // Set-up: circuit build, input frames, one warm frame; the median.
    let mut setups = Vec::new();
    let mut inputs = None;
    for _ in 0..common::SET_UPS {
        let t = Instant::now();
        let built = Inputs::build(args.seed);
        std::hint::black_box(built.frame(0));
        setups.push(t.elapsed().as_secs_f64());
        inputs = Some(built);
    }
    let inputs = inputs.expect("the set-ups ran");
    let setup_s = crate::stats::median(&setups).expect("at least one set-up");

    if args.trace {
        return traced(args, &inputs, budget, report);
    }

    let base = phase(&inputs, budget.mul_f64(0.9));
    let clean = Latency::of(&base.clean_ms).expect("clean frames ran");
    report.phase(
        NAME,
        "base",
        PhaseCounts {
            sent: base.frames as u64,
            succeeded: base.frames as u64,
            ..Default::default()
        },
        &clean.fields("clean_"),
    );
    let mae = base.clean_err / base.clean_px as f64;
    check(&inputs, mae, report);

    report.metric("setup_s", setup_s, "s");
    report.metric("ns_per_bit", ns_per_bit(&base.clean_ms), "ns");
    report.metric("ns_per_bit_faulted", ns_per_bit(&base.faulted_ms), "ns");
    report.metric("mae", mae, "abs");
}

/// The output checks: accuracy inside the stochastic-computing error
/// envelope, and thread-count independence of two timed frames.
fn check(inputs: &Inputs, mae: f64, report: &mut Report) {
    // A Bernoulli mean over N bits has σ ≤ 0.5/√N; the mean absolute
    // error of the clean pipeline (SC variance plus optical noise) must
    // stay within 1/√N, twice that worst-case σ.
    let envelope = 1.0 / (STREAM as f64).sqrt();
    report.check(
        "gamma.mae_within_envelope",
        mae.is_finite() && mae <= envelope,
        &format!("mae {mae:.6} vs N^-1/2 envelope {envelope:.6}"),
    );
    let one = BatchEvaluator::with_threads(1);
    for k in [0usize, 1] {
        let (timed, faulted, _) = inputs.frame(k);
        let backend = inputs
            .base
            .with_seed(mix_seed(inputs.seed, 0x6A3A + k as u64));
        let replay = gamma_app::apply_optical_lanes_faulted(
            &inputs.frames[k],
            &backend,
            &one,
            faulted.then_some(&inputs.fault),
        )
        .expect("gamma frames evaluate");
        let same = timed
            .pixels()
            .iter()
            .zip(replay.pixels())
            .all(|(a, b)| a.to_bits() == b.to_bits());
        report.check(
            "gamma.thread_count_independent",
            same,
            &format!("frame {k} (faulted: {faulted}) default threads vs 1 thread"),
        );
    }
}

/// The traced run: an untraced and a traced stretch of the base loop
/// (their gap is the tracing overhead), then the layer probes.
fn traced(args: &RunArgs, inputs: &Inputs, budget: Duration, report: &mut Report) {
    let stretch = budget.mul_f64(0.25);
    let untraced = phase(inputs, stretch);
    trace::enable(true);
    let traced = phase(inputs, stretch);
    let mut layers = Layers {
        p50_ms: p50_ms(&untraced.clean_ms),
        candidates_per_s: frames_per_s(&untraced.all_ms),
        ..Layers::default()
    };
    let item = ProbeItem {
        backend: inputs.base.with_seed(args.seed),
        image: inputs.frames[0].clone(),
    };
    common::probe_layers(
        std::slice::from_ref(&item),
        &inputs.fault,
        budget.mul_f64(0.4),
        &mut layers,
    );
    let runs = evaluate_batch_in_process(
        &inputs.evaluator,
        item.backend.system(),
        SngKind::Xoshiro,
        item.image.pixels(),
        STREAM,
        args.seed,
    )
    .expect("probe frame evaluates");
    let request =
        common::frame_request(item.backend.system(), &item.image, STREAM, args.seed, None);
    common::probe_codec(&request, &runs, &mut layers);
    trace::enable(false);
    let spans = trace::take();

    let op_mean =
        |p: &Phase| (p.clean_ms.iter().chain(&p.faulted_ms).sum::<f64>()) / p.frames as f64;
    let untraced_ms = op_mean(&untraced);
    layers.trace_overhead_share = (op_mean(&traced) - untraced_ms) / untraced_ms;
    layers.trace_accounted_share = trace::accounted_ms(&spans, "op.frame") / untraced_ms;
    report.phase(
        NAME,
        "traced",
        PhaseCounts {
            sent: (untraced.frames + traced.frames) as u64,
            succeeded: (untraced.frames + traced.frames) as u64,
            ..Default::default()
        },
        "",
    );
    crate::write_trace(args, NAME, &spans, report);
    layers.report(report);
}
