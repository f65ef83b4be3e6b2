//! `sweep_orders_pool`: design sweeps through `SweepMode::Pool` on a
//! 2-worker pool.
//!
//! Each operation is one design query: for one device operating point
//! of a Fig. 6(a) IL/ER grid, which circuits — orders 1–6 × both
//! backends, Xoshiro, stream 256, 3 probes — are on the accuracy ×
//! energy × area frontier? The queries walk the grid in a seeded order,
//! so every candidate is a circuit the pool has not cached: each one
//! ships inline and is built in a worker (the cache-miss path).

use crate::common::{self, Latency, Layers, ProbeItem, RunArgs, ShippedCircuits};
use crate::report::{PhaseCounts, Report};
use crate::{closed, stats, trace};
use osc_apps::backend::OpticalBackend;
use osc_apps::image::Image;
use osc_core::backend::BackendKind;
use osc_core::batch::shard::pool::{PoolConfig, WorkerPool};
use osc_core::batch::shard::{circuit_digest, evaluate_batch_in_process, ShardRequest, SngKind};
use osc_core::batch::{mix_seed, BatchEvaluator};
use osc_core::design::sweep::{
    frontier_csv, pareto_frontier, probe_inputs, DesignSweep, SweepAxes, SweepMode,
};
use osc_core::fault::FaultSpec;
use osc_core::system::OpticalScSystem;
use osc_math::rng::Xoshiro256PlusPlus;
use osc_stochastic::bernstein::BernsteinPoly;
use osc_stochastic::sng::XoshiroSng;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Workload name.
pub const NAME: &str = "sweep_orders_pool";
const STREAM: usize = 256;
const PROBES: usize = 3;
/// Probe points per circuit when timing in-process evaluation.
const TIMED_PROBES: usize = 64;
const WORKERS: usize = 2;
/// Side of the IL/ER grid: the paper's Fig. 6(a) ranges, IL 3.0–7.4 dB
/// and ER 4.0–7.6 dB.
const GRID: usize = 24;

/// Every grid point's solved sweep, and the seeded order queries visit
/// them in.
struct Inputs {
    sweeps: Vec<DesignSweep>,
    order: Vec<usize>,
    seed: u64,
}

impl Inputs {
    fn build(seed: u64) -> (Inputs, f64) {
        let il = osc_math::linspace(3.0, 7.4, GRID);
        let er = osc_math::linspace(4.0, 7.6, GRID);
        let t = Instant::now();
        let mut sweeps = Vec::with_capacity(GRID * GRID);
        for (i, &il_db) in il.iter().enumerate() {
            for (j, &er_db) in er.iter().enumerate() {
                let point = (i * GRID + j) as u64;
                sweeps.push(trace::timed(
                    "core.design.sweep.DesignSweep::new",
                    point,
                    None,
                    || {
                        DesignSweep::new(SweepAxes {
                            orders: (1..=6).collect(),
                            sngs: vec![SngKind::Xoshiro],
                            stream_lengths: vec![STREAM],
                            backends: BackendKind::ALL.to_vec(),
                            il_db: vec![il_db],
                            er_db: vec![er_db],
                            target_ber: 1e-6,
                            probes: PROBES,
                            seed: mix_seed(seed, point),
                        })
                    },
                ));
            }
        }
        let solve = t.elapsed().as_secs_f64();
        let mut order: Vec<usize> = (0..sweeps.len()).collect();
        Xoshiro256PlusPlus::new(mix_seed(seed, 0x5EEB)).shuffle(&mut order);
        (
            Inputs {
                sweeps,
                order,
                seed,
            },
            solve,
        )
    }

    fn point(&self, k: usize) -> usize {
        self.order[k % self.order.len()]
    }
}

/// What one design query produced.
struct Pass {
    point: usize,
    csv: Result<String, String>,
    candidates: usize,
    err: f64,
    eval_ms: f64,
    pareto_ms: f64,
}

fn pass(inputs: &Inputs, pool: &mut WorkerPool, k: usize) -> Pass {
    let point = inputs.point(k);
    let sweep = &inputs.sweeps[point];
    let root = trace::reserve();
    let start = Instant::now();
    let points = trace::timed("core.design.sweep.evaluate", k as u64, root, || {
        sweep.evaluate(SweepMode::Pool(pool))
    });
    let eval_end = Instant::now();
    let out = match points {
        Ok(points) => {
            let csv = trace::timed("core.design.sweep.pareto_frontier", k as u64, root, || {
                frontier_csv(&pareto_frontier(&points))
            });
            Pass {
                point,
                csv: Ok(csv),
                candidates: points.len(),
                err: points.iter().map(|p| p.mean_abs_error).sum(),
                eval_ms: (eval_end - start).as_secs_f64() * 1e3,
                pareto_ms: eval_end.elapsed().as_secs_f64() * 1e3,
            }
        }
        Err(e) => Pass {
            point,
            csv: Err(e.to_string()),
            candidates: 0,
            err: 0.0,
            eval_ms: 0.0,
            pareto_ms: 0.0,
        },
    };
    trace::record_as(root, "op.sweep_pass", k as u64, None, start, Instant::now());
    out
}

/// A closed-loop phase of design queries on one pool.
struct Phase {
    passes: Vec<closed::Done<Pass>>,
}

impl Phase {
    fn run(inputs: &Inputs, pool: &mut WorkerPool, duration: Duration) -> Phase {
        Phase {
            passes: closed::run(pool, 0, duration, |pool, k| pass(inputs, pool, k)),
        }
    }

    fn counts(&self) -> PhaseCounts {
        let ok = self.passes.iter().filter(|d| d.out.csv.is_ok()).count() as u64;
        PhaseCounts {
            sent: self.passes.len() as u64,
            succeeded: ok,
            failed: self.passes.len() as u64 - ok,
            refused: 0,
        }
    }

    fn latency(&self) -> Latency {
        let ms: Vec<f64> = self.passes.iter().map(|d| d.ms).collect();
        Latency::of(&ms).expect("every phase finishes at least one pass")
    }

    fn candidates(&self) -> usize {
        self.passes.iter().map(|d| d.out.candidates).sum()
    }

    /// Candidates per second of query time ([`stats::quiet`]).
    fn candidates_per_s(&self) -> f64 {
        stats::quiet(&self.passes, stats::QUIET_RATE, |c| {
            c.iter().map(|d| d.out.candidates as f64).sum::<f64>() * 1e3
                / c.iter().map(|d| d.ms).sum::<f64>()
        })
        .unwrap_or(0.0)
    }

    /// Median query latency ([`stats::quiet`]), ms.
    fn p50_ms(&self) -> f64 {
        let ms: Vec<f64> = self.passes.iter().map(|d| d.ms).collect();
        stats::quiet(&ms, stats::QUIET_COST, stats::chunk_median).unwrap_or(f64::INFINITY)
    }

    fn record(&self, name: &str, report: &mut Report) {
        let extra = format!(
            ",\"candidates\":{}{}",
            self.candidates(),
            self.latency().fields("")
        );
        report.phase(NAME, name, self.counts(), &extra);
    }
}

/// In-process frontiers of every grid point the phases visited,
/// compared byte for byte with the pooled ones.
fn check(inputs: &Inputs, phases: &[&Phase], report: &mut Report) {
    let evaluator = BatchEvaluator::new();
    let mut by_point: BTreeMap<usize, Vec<&Result<String, String>>> = BTreeMap::new();
    for phase in phases {
        for d in &phase.passes {
            by_point.entry(d.out.point).or_default().push(&d.out.csv);
        }
    }
    let mut differ = Vec::new();
    for (&point, pooled) in &by_point {
        let points = inputs.sweeps[point].evaluate(SweepMode::InProcess(&evaluator));
        let expected = points.map(|p| frontier_csv(&pareto_frontier(&p)));
        let ok = matches!(&expected, Ok(csv) if pooled.iter().all(|c| c.as_ref() == Ok(csv)));
        if !ok {
            differ.push(point);
        }
    }
    report.check(
        "sweep.frontier_equal_inprocess",
        differ.is_empty() && !by_point.is_empty(),
        &format!(
            "{} grid points compared, {} differ (first: {:?})",
            by_point.len(),
            differ.len(),
            differ.first()
        ),
    );
}

/// In-process evaluation cost per output bit of the candidates of every
/// `stride`-th grid point, clean and under the fixed fault process. A
/// base run visits nearly the whole grid, so a fixed stratified sample
/// stands for it without the seed choosing which (cheap or costly)
/// points are timed. Each candidate is built once (the build is the
/// `system.build_ms` layer metric), then timed in rounds for `budget`
/// ([`common::clean_faulted_per_op`]); every repeat of a candidate uses
/// its own fixed seed, so each round does the same work. Returns
/// `(clean, faulted)` ns per output bit.
fn inproc_ns_per_bit(
    inputs: &Inputs,
    stride: usize,
    fault: &FaultSpec,
    budget: Duration,
) -> (f64, f64) {
    // A query's 3-probe batch is too small to time steadily (per-call
    // set-up dominates and swings with the allocator and caches), so
    // each circuit is timed on a 64-point probe batch: the per-bit cost
    // of the candidates' kernels. One thread, free of per-call spawns.
    let evaluator = BatchEvaluator::with_threads(1);
    let xs = probe_inputs(TIMED_PROBES);
    let mut systems = Vec::new();
    for sweep in inputs.sweeps.iter().step_by(stride) {
        for d in sweep.designs() {
            let poly = BernsteinPoly::new(d.coeffs.clone()).expect("sweep coefficients are valid");
            let system = OpticalScSystem::new(d.params, poly).expect("feasible designs build");
            systems.push((system, d.candidate.seed_for(sweep.axes().seed)));
        }
    }
    let (clean, faulted) = common::clean_faulted_per_op(systems.len(), budget, |i, faulted| {
        let (system, seed) = &systems[i];
        let runs = evaluator
            .evaluate_range_faulted(
                system,
                &xs,
                STREAM,
                XoshiroSng::new,
                *seed,
                0,
                faulted.then_some(fault),
            )
            .expect("probe inputs evaluate");
        std::hint::black_box(runs);
    });
    let bits = (TIMED_PROBES * STREAM) as f64;
    (clean * 1e9 / bits, faulted * 1e9 / bits)
}

/// Set-up: solve every grid point's sweep, spawn the pool and warm it
/// with one query; returns the inputs, the pool, set-up and solve
/// times.
fn set_up(args: &RunArgs) -> Result<(Inputs, WorkerPool, f64, f64), String> {
    let t = Instant::now();
    let (inputs, solve) = Inputs::build(args.seed);
    let mut pool = PoolConfig::new(args.bin("shard_worker"), WORKERS)
        .spawn()
        .map_err(|e| format!("spawning the worker pool: {e}"))?;
    // A warm query far from the measured sequence's start.
    pass(&inputs, &mut pool, inputs.order.len() / 2).csv?;
    Ok((inputs, pool, t.elapsed().as_secs_f64(), solve))
}

/// Runs the workload and reports its end-to-end metrics (or, traced,
/// its per-layer metrics).
pub fn run(args: &RunArgs, report: &mut Report) {
    let budget = Duration::from_secs_f64(args.seconds);
    let mut setups = Vec::new();
    let mut live = None;
    for _ in 0..common::SET_UPS {
        match set_up(args) {
            Ok((inputs, pool, t, solve)) => {
                setups.push(t);
                // Each earlier pool is reaped as the next replaces it.
                live = Some((inputs, pool, solve));
            }
            Err(e) => {
                report.check("sweep.set_up", false, &e);
                return;
            }
        }
    }
    let (inputs, mut pool, solve) = live.expect("the set-ups ran");
    let setup_s = stats::median(&setups).expect("at least one set-up");
    if args.trace {
        return traced(args, &inputs, &mut pool, solve, report);
    }

    // The in-process costs are timed first, on the heap the set-up left,
    // before the pooled queries churn it.
    let fault = common::fault_spec(inputs.seed);
    let (clean_ns, fault_ns) = inproc_ns_per_bit(&inputs, 12, &fault, budget.mul_f64(0.75));
    let base = Phase::run(&inputs, &mut pool, budget.mul_f64(0.1));
    drop(pool);
    base.record("base", report);
    check(&inputs, &[&base], report);
    let (err, n) = base
        .passes
        .iter()
        .fold((0.0, 0), |(e, n), d| (e + d.out.err, n + d.out.candidates));

    report.metric("setup_s", setup_s, "s");
    report.metric("ns_per_bit", clean_ns, "ns");
    report.metric("ns_per_bit_faulted", fault_ns, "ns");
    report.metric("mae", err / n.max(1) as f64, "abs");
}

/// The traced run: an untraced and a traced stretch of the base loop,
/// the build share of the traced queries, then the layer probes.
fn traced(args: &RunArgs, inputs: &Inputs, pool: &mut WorkerPool, solve: f64, report: &mut Report) {
    let stretch = Duration::from_secs_f64(args.seconds * 0.25);
    let untraced = Phase::run(inputs, pool, stretch);
    trace::enable(true);
    let traced = Phase::run(inputs, pool, stretch);
    untraced.record("base_untraced", report);
    traced.record("base_traced", report);
    let passes = traced.passes.len() as f64;
    let mut layers = Layers {
        p50_ms: untraced.p50_ms(),
        candidates_per_s: untraced.candidates_per_s(),
        sweep_solve_s: solve,
        sweep_eval_s: traced.passes.iter().map(|d| d.out.eval_ms).sum::<f64>() / passes / 1e3,
        sweep_pareto_ms: traced.passes.iter().map(|d| d.out.pareto_ms).sum::<f64>() / passes,
        ..Layers::default()
    };

    // Host-side circuit builds of the same queries, against their
    // evaluation time; and the in-process evaluation of the same
    // queries, against the pooled one.
    let evaluator = BatchEvaluator::new();
    let mut build_s = 0.0;
    let mut inproc_s = 0.0;
    let mut eval_s = 0.0;
    let mut candidates = 0usize;
    let mut shipped =
        ShippedCircuits::new(osc_core::batch::shard::CIRCUIT_CACHE_CAPACITY * WORKERS);
    for d in &traced.passes {
        let sweep = &inputs.sweeps[d.out.point];
        for design in sweep.designs() {
            let t = Instant::now();
            let poly =
                BernsteinPoly::new(design.coeffs.clone()).expect("sweep coefficients are valid");
            trace::timed("core.system.OpticalScSystem::new", d.k as u64, None, || {
                std::hint::black_box(
                    OpticalScSystem::new(design.params, poly).expect("feasible designs build"),
                )
            });
            build_s += t.elapsed().as_secs_f64();
            shipped.note(circuit_digest(&design.params, &design.coeffs));
        }
        let t = Instant::now();
        let _ = std::hint::black_box(sweep.evaluate(SweepMode::InProcess(&evaluator)));
        inproc_s += t.elapsed().as_secs_f64();
        eval_s += d.out.eval_ms / 1e3;
        candidates += d.out.candidates;
    }
    layers.sweep_build_share = build_s / eval_s;
    layers.pool_overhead_ms_per_req = (eval_s - inproc_s) * 1e3 / candidates.max(1) as f64;
    layers.shard_circuit_reuse_share = shipped.share();

    // Layer probes on the first query's circuits and probe row.
    let sweep = &inputs.sweeps[inputs.point(0)];
    let xs = probe_inputs(PROBES);
    let items: Vec<ProbeItem> = sweep
        .designs()
        .iter()
        .map(|d| ProbeItem {
            backend: OpticalBackend::new(
                d.params,
                BernsteinPoly::new(d.coeffs.clone()).expect("sweep coefficients are valid"),
                STREAM,
                d.candidate.seed_for(sweep.axes().seed),
            )
            .expect("feasible designs build"),
            image: Image::new(PROBES, 1, xs.clone()).expect("one probe row"),
        })
        .collect();
    common::probe_layers(
        &items,
        &common::fault_spec(args.seed),
        Duration::from_secs_f64(args.seconds * 0.2),
        &mut layers,
    );
    let last = items.last().expect("every grid point has feasible designs");
    let runs = evaluate_batch_in_process(
        &evaluator,
        last.backend.system(),
        SngKind::Xoshiro,
        &xs,
        STREAM,
        args.seed,
    )
    .expect("probe inputs evaluate");
    let request = ShardRequest::batch(
        last.backend.system(),
        SngKind::Xoshiro,
        0,
        &xs,
        STREAM,
        args.seed,
        None,
    );
    common::probe_codec(&request, &runs, &mut layers);
    trace::enable(false);
    let spans = trace::take();

    let mean_ms = |p: &Phase| p.passes.iter().map(|d| d.ms).sum::<f64>() / p.passes.len() as f64;
    let untraced_ms = mean_ms(&untraced);
    layers.trace_overhead_share = (mean_ms(&traced) - untraced_ms) / untraced_ms;
    layers.trace_accounted_share = trace::accounted_ms(&spans, "op.sweep_pass") / untraced_ms;
    crate::write_trace(args, NAME, &spans, report);
    layers.report(report);
}
