//! The repository benchmark: three workloads, each putting a different
//! layer of the stack on the blocking path.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! * `service_small_open` — an open loop of small soak frames against
//!   an `osc_service` subprocess (2 workers, 2 connections).
//! * `gamma_frames_inproc` — a closed loop of order-6 gamma frames at
//!   stream 16384, in process.
//! * `sweep_orders_pool` — design sweeps over orders 1–6 × both backends
//!   through a 2-worker pool, every candidate a distinct circuit.
//!
//! With `--trace 0` the run reports the end-to-end metrics; with
//! `--trace 1` it reports the per-layer metrics from recorded spans and
//! layer probes, and writes the spans to `perfbench/out/`. Every input
//! derives from `--seed`. The last line of stdout is the JSON result;
//! earlier `{"record": ...}` lines carry the environment stamp, the
//! per-phase operation counts and every output check. See
//! `perfbench/README.md` for the workloads, metrics and predictions.

mod closed;
mod common;
mod gamma;
mod openloop;
mod report;
mod service;
mod stats;
mod sweep;
mod trace;

use common::RunArgs;
use report::Report;

fn fail(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!("usage: perfbench --workload service_small_open|gamma_frames_inproc|sweep_orders_pool --seed N --seconds S --trace 0|1");
    std::process::exit(2);
}

/// Writes the run's spans as JSON lines under `perfbench/out/`; a write
/// failure fails a check rather than passing silently.
pub fn write_trace(args: &RunArgs, workload: &str, spans: &[trace::Span], report: &mut Report) {
    let path =
        std::path::Path::new("perfbench/out").join(format!("trace-{workload}-{}.jsonl", args.seed));
    for (name, (self_ns, count)) in trace::self_time_by_name(spans) {
        println!(
            "{{\"record\":\"self_time\",\"span\":\"{name}\",\"count\":{count},\"self_ms\":{:.4}}}",
            self_ns as f64 / 1e6
        );
    }
    let written = trace::write_jsonl(&path, spans);
    report.check(
        "trace.written",
        written.is_ok(),
        &format!("{} spans to {}: {written:?}", spans.len(), path.display()),
    );
}

fn main() {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut traced = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = || {
            args.next()
                .unwrap_or_else(|| fail(&format!("{arg} needs a value")))
        };
        match arg.as_str() {
            "--workload" => workload = Some(value()),
            "--seed" => {
                seed = Some(
                    value()
                        .parse::<u64>()
                        .unwrap_or_else(|_| fail("--seed needs an integer")),
                )
            }
            "--seconds" => {
                seconds = Some(
                    value()
                        .parse::<f64>()
                        .ok()
                        .filter(|s| s.is_finite() && *s > 0.0 && *s <= 120.0)
                        .unwrap_or_else(|| fail("--seconds needs a number in (0, 120]")),
                )
            }
            "--trace" => {
                traced = Some(match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => fail("--trace needs 0 or 1"),
                })
            }
            other => fail(&format!("unknown argument {other}")),
        }
    }
    let workload = workload.unwrap_or_else(|| fail("--workload is required"));
    let args = RunArgs {
        seed: seed.unwrap_or_else(|| fail("--seed is required")),
        seconds: seconds.unwrap_or_else(|| fail("--seconds is required")),
        trace: traced.unwrap_or_else(|| fail("--trace is required")),
        bin_dir: std::env::current_exe()
            .ok()
            .and_then(|p| p.parent().map(std::path::Path::to_path_buf))
            .unwrap_or_else(|| fail("cannot locate the benchmark's own directory")),
    };
    let run: fn(&RunArgs, &mut Report) = match workload.as_str() {
        service::NAME => service::run,
        gamma::NAME => gamma::run,
        sweep::NAME => sweep::run,
        other => fail(&format!("unknown workload {other}")),
    };

    // Everything is measured under detected SIMD dispatch: a tier cap
    // from the environment would silently change what is measured.
    if std::env::var_os("OSC_SIMD").is_some() {
        fail("OSC_SIMD is set; the benchmark measures detected dispatch only — unset it");
    }
    let tier = osc_stochastic::simd::active_tier();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = std::env::var(osc_core::batch::THREADS_ENV).ok();
    println!(
        "{{\"record\":\"env\",\"workload\":\"{workload}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"simd_tier\":\"{}\",\"nproc\":{nproc},\"osc_threads\":{}}}",
        args.seed,
        args.seconds,
        args.trace,
        tier.name(),
        threads.map_or("null".to_string(), |t| format!("\"{}\"", report::escape(&t)))
    );

    let mut report = Report::default();
    run(&args, &mut report);
    report.finish();
}
