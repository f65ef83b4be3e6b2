//! `service_small_open`: an open loop of small soak frames against an
//! `osc_service` subprocess with 2 workers, over 2 connections.
//!
//! Request `r` rides connection `r % 2`; each connection alternates the
//! order-6 gamma circuit and the order-3 contrast circuit (12×8 px,
//! stream 128) with per-request seeds, so only two circuits exist and
//! every request after warm-up takes the circuit-cache-hit path: the
//! client ships each circuit inline once per connection and refers to
//! it by digest afterwards. Requests are scheduled at fixed arrival
//! rates and timed from when they were due. One generator thread sends
//! on both connections; one reader thread per connection collects the
//! responses.

use crate::common::{self, Latency, Layers, ProbeItem, RunArgs, ShippedCircuits};
use crate::openloop::{self, SendTiming};
use crate::report::{PhaseCounts, Report};
use crate::stats::{self, StepOutcome};
use crate::trace;
use osc_apps::backend::OpticalBackend;
use osc_apps::contrast::smoothstep_poly;
use osc_apps::gamma_app::{self, paper_gamma_polynomial};
use osc_apps::image::Image;
use osc_core::batch::shard::pool::PoolConfig;
use osc_core::batch::shard::{
    circuit_digest, decode_response_v2, encode_request_v2, evaluate_batch_in_process, read_frame,
    ShardRequest, ShardResponseV2, SngKind, CIRCUIT_CACHE_CAPACITY,
};
use osc_core::batch::{mix_seed, BatchEvaluator};
use osc_core::params::CircuitParams;
use osc_units::Nanometers;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::process::{Child, ChildStdin, Command, Stdio};
use std::time::{Duration, Instant};

/// Workload name.
pub const NAME: &str = "service_small_open";
const WIDTH: usize = 12;
const HEIGHT: usize = 8;
const STREAM: usize = 128;
const CONNECTIONS: usize = 2;
const WORKERS: usize = 2;
/// The fixed base arrival rate, requests/s.
const BASE_RPS: f64 = 1000.0;
/// The fixed busy arrival rate, requests/s.
const BUSY_RPS: f64 = 3000.0;
/// The latency limit on the tail, ms.
const SLO_MS: f64 = 2.0;
/// Generator lateness (p99) beyond which a phase measured the
/// generator rather than the service.
const LAG_LIMIT_MS: f64 = 1.0;
/// Every latency sample holds at least this many requests, so at least
/// 10 lie beyond p99.
const MIN_SAMPLE: usize = 1000;
/// Warm-up requests per connection: both circuits, on both workers.
const WARM_PER_CONNECTION: usize = 16;
/// Requests whose in-process compute is timed for `ns_per_bit`.
const TIMED_REQUESTS: usize = 64;

/// Ladder rungs: 1000 to 8000 requests/s in steps of 250.
fn ladder() -> Vec<f64> {
    (4..=32).map(|k| f64::from(k) * 250.0).collect()
}

/// The request schedule: two circuits, one frame, per-request seeds.
struct Schedule {
    seed: u64,
    image: Image,
    /// Gamma then contrast: the replay backends and wire templates.
    bases: [OpticalBackend; 2],
    templates: [ShardRequest; 2],
    digests: [u64; 2],
}

impl Schedule {
    fn build(seed: u64) -> Schedule {
        let image = Image::blobs(WIDTH, HEIGHT);
        let gamma = OpticalBackend::new(
            CircuitParams::paper_fig7(6, Nanometers::new(0.165)),
            paper_gamma_polynomial().expect("the paper gamma fit exists"),
            STREAM,
            0,
        )
        .expect("the gamma circuit builds");
        let contrast = OpticalBackend::new(
            CircuitParams::paper_fig7(3, Nanometers::new(0.2)),
            smoothstep_poly(),
            STREAM,
            0,
        )
        .expect("the contrast circuit builds");
        let templates =
            [&gamma, &contrast].map(|b| common::frame_request(b.system(), &image, STREAM, 0, None));
        let digests = templates
            .each_ref()
            .map(|t| circuit_digest(&t.params, &t.coeffs));
        Schedule {
            seed,
            image,
            bases: [gamma, contrast],
            templates,
            digests,
        }
    }

    /// Which circuit request `r` uses: each connection alternates.
    fn circuit(r: u64) -> usize {
        ((r / CONNECTIONS as u64) % 2) as usize
    }

    fn request_seed(&self, r: u64) -> u64 {
        mix_seed(self.seed, r)
    }

    /// The in-process backend that replays request `r`.
    fn replay_backend(&self, r: u64) -> OpticalBackend {
        self.bases[Self::circuit(r)].with_seed(self.request_seed(r))
    }
}

/// A running `osc_service` subprocess; dropping it drains and reaps it.
struct ServiceProcess {
    child: Child,
    stdin: Option<ChildStdin>,
    addr: SocketAddr,
}

impl ServiceProcess {
    fn spawn(args: &RunArgs) -> Result<ServiceProcess, String> {
        let mut child = Command::new(args.bin("osc_service"))
            .args(["--port", "0", "--workers", &WORKERS.to_string()])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawning osc_service: {e}"))?;
        let stdin = child.stdin.take();
        let mut line = String::new();
        let read = child
            .stdout
            .as_mut()
            .map(|out| BufReader::new(out).read_line(&mut line));
        let addr = line
            .split("listening on ")
            .nth(1)
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|a| a.parse().ok());
        let process = ServiceProcess {
            child,
            stdin,
            addr: addr.unwrap_or_else(|| ([127, 0, 0, 1], 0).into()),
        };
        match (read, addr) {
            (Some(Ok(_)), Some(_)) => Ok(process),
            _ => Err(format!("osc_service gave no readiness line (got {line:?})")),
        }
    }
}

impl Drop for ServiceProcess {
    fn drop(&mut self) {
        // A `shutdown` line drains the service: in-flight requests
        // finish, workers are reaped, the process exits.
        if let Some(mut stdin) = self.stdin.take() {
            let _ = stdin.write_all(b"shutdown\n");
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                return;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// The send half of one client connection.
struct Writer {
    stream: TcpStream,
    /// Mirror of the service's per-connection circuit cache.
    shipped: ShippedCircuits,
}

/// The client-side timestamps of one sent request.
#[derive(Debug, Clone, Copy)]
struct Sent {
    encode_start: Instant,
    encode_end: Instant,
    write_end: Instant,
}

/// How one request settled.
#[derive(Debug, Clone)]
enum Answer {
    /// Pixel estimates (clamped, as IEEE bits), Σ|estimate − exact|,
    /// and when the response frame was read and decoded.
    Runs {
        bits: Vec<u64>,
        err: f64,
        read_end: Instant,
        done: Instant,
    },
    /// The service answered with an error value (overload, drain,
    /// rejection).
    Refused(String),
    /// Transport or protocol failure.
    Failed(String),
}

impl Writer {
    /// Encodes request `r` (by digest once its circuit was shipped on
    /// this connection) and writes it as one frame.
    fn send(
        &mut self,
        schedule: &Schedule,
        templates: &mut [ShardRequest; 2],
        r: u64,
    ) -> Result<Sent, String> {
        let encode_start = Instant::now();
        let c = Schedule::circuit(r);
        let req = &mut templates[c];
        req.seed = schedule.request_seed(r);
        let digest = schedule.digests[c];
        let cached = self.shipped.note(digest);
        let payload = encode_request_v2(req, r + 1, cached.then_some(digest));
        let mut frame = Vec::with_capacity(payload.len() + 8);
        frame.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        frame.extend_from_slice(&payload);
        let encode_end = Instant::now();
        self.stream
            .write_all(&frame)
            .map_err(|e| format!("writing request {r}: {e}"))?;
        Ok(Sent {
            encode_start,
            encode_end,
            write_end: Instant::now(),
        })
    }
}

/// Reads and decodes the next response, which must answer request `r`.
fn receive(reader: &mut BufReader<TcpStream>, r: u64) -> Answer {
    let payload = match read_frame(reader) {
        Ok(Some(p)) => p,
        Ok(None) => return Answer::Failed(format!("connection closed before response {r}")),
        Err(e) => return Answer::Failed(format!("reading response {r}: {e}")),
    };
    let read_end = Instant::now();
    match decode_response_v2(&payload) {
        Ok(ShardResponseV2::Runs { request_id, runs }) if request_id == r + 1 => {
            let (err, _) = common::runs_abs_error(&runs);
            let bits = runs
                .iter()
                .map(|x| x.estimate.clamp(0.0, 1.0).to_bits())
                .collect();
            Answer::Runs {
                bits,
                err,
                read_end,
                done: Instant::now(),
            }
        }
        Ok(ShardResponseV2::Error {
            request_id,
            message,
        }) if request_id == r + 1 => Answer::Refused(message),
        Ok(other) => Answer::Failed(format!("unexpected response to request {r}: {other:?}")),
        Err(e) => Answer::Failed(format!("malformed response {r}: {e}")),
    }
}

/// One measured phase, by position: request number, send timing and
/// timestamps, answer.
struct PhaseRun {
    name: String,
    numbers: Vec<u64>,
    timings: Vec<SendTiming>,
    sent: Vec<Option<Sent>>,
    answers: Vec<Answer>,
}

impl PhaseRun {
    fn first_error(&self) -> Option<&str> {
        self.answers.iter().find_map(|a| match a {
            Answer::Refused(e) | Answer::Failed(e) => Some(e.as_str()),
            Answer::Runs { .. } => None,
        })
    }

    fn counts(&self) -> PhaseCounts {
        let mut c = PhaseCounts {
            sent: self.answers.len() as u64,
            ..Default::default()
        };
        for a in &self.answers {
            match a {
                Answer::Runs { .. } => c.succeeded += 1,
                Answer::Refused(_) => c.refused += 1,
                Answer::Failed(_) => c.failed += 1,
            }
        }
        c
    }

    /// Latencies of answered requests from their due time, ms.
    fn latencies_ms(&self) -> Vec<f64> {
        self.timings
            .iter()
            .zip(&self.answers)
            .filter_map(|(t, a)| match a {
                Answer::Runs { done, .. } => Some((*done - t.due).as_secs_f64() * 1e3),
                _ => None,
            })
            .collect()
    }

    fn latency(&self) -> Latency {
        Latency::of(&self.latencies_ms()).unwrap_or(Latency {
            n: 0,
            p50: f64::INFINITY,
            tail_pct: 99.0,
            tail: f64::INFINITY,
            beyond: 0,
            mean: f64::INFINITY,
        })
    }

    /// The median latency the phase reports: per window of `MIN_SAMPLE`
    /// answered requests, the window's median; then the lower quartile
    /// over the windows ([`stats::QUIET_COST`]).
    fn p50_ms(&self) -> f64 {
        stats::quantile_over_chunks(
            &self.latencies_ms(),
            MIN_SAMPLE,
            stats::QUIET_COST,
            stats::chunk_median,
        )
        .unwrap_or(f64::INFINITY)
    }

    /// The tail the phase reports: the median, over consecutive windows
    /// of `MIN_SAMPLE` answered requests, of each window's p99.
    fn p99_ms(&self) -> f64 {
        stats::median_window_percentile(&self.latencies_ms(), MIN_SAMPLE, 99.0)
            .unwrap_or(f64::INFINITY)
    }

    fn lag_p99_ms(&self) -> f64 {
        let mut lags: Vec<f64> = self.timings.iter().map(|t| t.lag_ms).collect();
        lags.sort_by(f64::total_cmp);
        stats::nearest_rank(&lags, 99.0).unwrap_or(0.0)
    }

    /// Requests answered per second: the phase cut into
    /// [`stats::CHUNKS`] equal time slices by completion time, the upper
    /// quartile of the slices' rates ([`stats::quiet`]).
    fn throughput(&self) -> f64 {
        let (Some(start), Some(end)) = (
            self.timings.first().map(|t| t.due),
            self.answers.iter().rev().find_map(|a| match a {
                Answer::Runs { done, .. } => Some(*done),
                _ => None,
            }),
        ) else {
            return 0.0;
        };
        let slice = (end - start).as_secs_f64() / stats::CHUNKS as f64;
        let mut rates = [0.0f64; stats::CHUNKS];
        for a in &self.answers {
            if let Answer::Runs { done, .. } = a {
                let at = ((*done - start).as_secs_f64() / slice) as usize;
                rates[at.min(stats::CHUNKS - 1)] += 1.0 / slice;
            }
        }
        stats::quantile_over_chunks(&rates, 1, stats::QUIET_RATE, |c| c[0]).unwrap_or(0.0)
    }

    fn mae_parts(&self) -> (f64, usize) {
        self.answers.iter().fold((0.0, 0), |(e, n), a| match a {
            Answer::Runs { bits, err, .. } => (e + err, n + bits.len()),
            _ => (e, n),
        })
    }

    fn outcome(&self, rate: f64) -> StepOutcome {
        let counts = self.counts();
        let Some(t0) = self.timings.first().map(|t| t.due) else {
            return StepOutcome {
                rate,
                achieved_rps: 0.0,
                p99_ms: f64::INFINITY,
                backlog_grows: false,
                failed: counts.failed as usize,
                on_schedule: false,
            };
        };
        let mut due = Vec::with_capacity(self.timings.len());
        let mut done = Vec::with_capacity(self.timings.len());
        let mut last = t0;
        for (t, a) in self.timings.iter().zip(&self.answers) {
            due.push((t.due - t0).as_secs_f64());
            // An unanswered request never finishes within the phase.
            done.push(match a {
                Answer::Runs { done, .. } => {
                    last = last.max(*done);
                    (*done - t0).as_secs_f64()
                }
                _ => f64::INFINITY,
            });
        }
        StepOutcome {
            rate,
            achieved_rps: counts.succeeded as f64 / (last - t0).as_secs_f64().max(1e-9),
            p99_ms: self.p99_ms(),
            backlog_grows: stats::backlog_grows(&due, &done),
            failed: (counts.failed + counts.refused) as usize,
            on_schedule: self.lag_p99_ms() <= LAG_LIMIT_MS,
        }
    }

    /// Prints the phase record and returns its rate-step outcome.
    fn record(&self, report: &mut Report, rate: f64) -> StepOutcome {
        let outcome = self.outcome(rate);
        let extra = format!(
            ",\"rate\":{rate},\"achieved_rps\":{:.2},\"windowed_p99_ms\":{:.4},\"lag_p99_ms\":{:.4},\"backlog_grows\":{},\"meets_slo\":{}{},\"first_error\":{}",
            outcome.achieved_rps,
            outcome.p99_ms,
            self.lag_p99_ms(),
            outcome.backlog_grows,
            outcome.meets(SLO_MS),
            self.latency().fields(""),
            self.first_error()
                .map_or("null".to_string(), |e| format!("\"{}\"", crate::report::escape(e)))
        );
        report.phase(NAME, &self.name, self.counts(), &extra);
        outcome
    }

    /// Files the client-side spans of every answered request: the root
    /// `op.request` from due time to decoded response, partitioned into
    /// generator wait, request encode, socket write, the service round
    /// trip and response decode.
    fn record_spans(&self) {
        for (((&r, t), sent), a) in self
            .numbers
            .iter()
            .zip(&self.timings)
            .zip(&self.sent)
            .zip(&self.answers)
        {
            let (Some(s), Answer::Runs { read_end, done, .. }) = (sent, a) else {
                continue;
            };
            let root = trace::reserve();
            trace::record("loadgen.wait", r, root, t.due, s.encode_start);
            trace::record(
                "core.batch.shard.encode_request_v2",
                r,
                root,
                s.encode_start,
                s.encode_end,
            );
            trace::record("net.write", r, root, s.encode_end, s.write_end);
            trace::record("core.batch.shard.service", r, root, s.write_end, *read_end);
            trace::record(
                "core.batch.shard.decode_response_v2",
                r,
                root,
                *read_end,
                *done,
            );
            trace::record_as(root, "op.request", r, None, t.due, *done);
        }
    }
}

/// The client side: the schedule, both connections and the running
/// request counter.
struct Client {
    schedule: Schedule,
    templates: [ShardRequest; 2],
    writers: Vec<Writer>,
    readers: Vec<BufReader<TcpStream>>,
    next_r: u64,
}

impl Client {
    fn connect(schedule: Schedule, addr: SocketAddr) -> Result<Client, String> {
        let mut writers = Vec::new();
        let mut readers = Vec::new();
        for _ in 0..CONNECTIONS {
            let stream = TcpStream::connect(addr).map_err(|e| format!("connecting: {e}"))?;
            stream.set_nodelay(true).map_err(|e| e.to_string())?;
            stream
                .set_read_timeout(Some(Duration::from_secs(30)))
                .map_err(|e| e.to_string())?;
            readers.push(BufReader::new(
                stream.try_clone().map_err(|e| e.to_string())?,
            ));
            writers.push(Writer {
                stream,
                shipped: ShippedCircuits::new(CIRCUIT_CACHE_CAPACITY),
            });
        }
        Ok(Client {
            templates: schedule.templates.clone(),
            schedule,
            writers,
            readers,
            next_r: 0,
        })
    }

    /// An open-loop phase of `n` requests at `rate` requests/s.
    fn open(&mut self, name: &str, rate: f64, n: usize) -> PhaseRun {
        let r0 = self.next_r;
        self.next_r += n as u64;
        let Client {
            schedule,
            templates,
            writers,
            readers,
            ..
        } = self;
        let schedule = &*schedule;
        let started = Instant::now();
        let (timings, sent, answers) = std::thread::scope(|scope| {
            let handles: Vec<_> = readers
                .iter_mut()
                .enumerate()
                .map(|(c, reader)| {
                    scope.spawn(move || {
                        let mut got = Vec::new();
                        let mut broken = false;
                        for i in (c..n).step_by(CONNECTIONS) {
                            let answer = if broken {
                                Answer::Failed("connection lost".into())
                            } else {
                                receive(reader, r0 + i as u64)
                            };
                            broken |= matches!(answer, Answer::Failed(_));
                            got.push((i, answer));
                        }
                        got
                    })
                })
                .collect();
            let mut sent = vec![None; n];
            let t0 = Instant::now() + Duration::from_millis(2);
            let timings = openloop::pace(t0, rate, n, |i| {
                match writers[i % CONNECTIONS].send(schedule, templates, r0 + i as u64) {
                    Ok(s) => {
                        sent[i] = Some(s);
                        true
                    }
                    Err(_) => {
                        // Unblock the readers: nothing more will arrive.
                        for w in writers.iter() {
                            let _ = w.stream.shutdown(std::net::Shutdown::Both);
                        }
                        false
                    }
                }
            });
            let mut answers = vec![Answer::Failed("never sent".into()); n];
            for h in handles {
                for (i, a) in h.join().expect("reader thread panicked") {
                    if sent[i].is_some() {
                        answers[i] = a;
                    }
                }
            }
            (timings, sent, answers)
        });
        let mut timings = timings;
        // Requests never sent keep their due time for counting.
        while timings.len() < n {
            let due = timings.last().map_or(started, |t| t.due);
            timings.push(SendTiming {
                due,
                started: due,
                lag_ms: 0.0,
            });
        }
        PhaseRun {
            name: name.to_string(),
            numbers: (r0..r0 + n as u64).collect(),
            timings,
            sent,
            answers,
        }
    }

    /// A closed-loop phase: each connection sends its next request when
    /// the previous one has been answered, for `duration` or until it
    /// has sent `per_conn` requests.
    fn closed(&mut self, name: &str, duration: Duration, per_conn: usize) -> PhaseRun {
        let r0 = self.next_r;
        let schedule = &self.schedule;
        let started = Instant::now();
        let deadline = started + duration;
        let per_conn: Vec<Vec<_>> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .writers
                .iter_mut()
                .zip(self.readers.iter_mut())
                .enumerate()
                .map(|(c, (writer, reader))| {
                    let mut templates = schedule.templates.clone();
                    scope.spawn(move || {
                        let mut out = Vec::new();
                        let mut r = r0 + c as u64;
                        loop {
                            let due = Instant::now();
                            let timing = SendTiming {
                                due,
                                started: due,
                                lag_ms: 0.0,
                            };
                            let (sent, answer) = match writer.send(schedule, &mut templates, r) {
                                Ok(s) => (Some(s), receive(reader, r)),
                                Err(e) => (None, Answer::Failed(e)),
                            };
                            let stop = matches!(answer, Answer::Failed(_));
                            out.push((r, timing, sent, answer));
                            r += CONNECTIONS as u64;
                            if stop || out.len() >= per_conn || Instant::now() >= deadline {
                                break;
                            }
                        }
                        out
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("closed-loop connection panicked"))
                .collect()
        });
        let mut all: Vec<_> = per_conn.into_iter().flatten().collect();
        all.sort_by_key(|x| x.0);
        self.next_r = all.last().map_or(r0, |x| x.0 + 1) + CONNECTIONS as u64;
        let mut run = PhaseRun {
            name: name.to_string(),
            numbers: Vec::new(),
            timings: Vec::new(),
            sent: Vec::new(),
            answers: Vec::new(),
        };
        for (r, timing, sent, answer) in all {
            run.numbers.push(r);
            run.timings.push(timing);
            run.sent.push(sent);
            run.answers.push(answer);
        }
        run
    }

    /// Share of requests whose circuit went by digest.
    fn reuse_share(&self) -> f64 {
        let (reused, seen) = self.writers.iter().fold((0, 0), |(r, s), w| {
            (r + w.shipped.reused, s + w.shipped.seen)
        });
        reused as f64 / seen.max(1) as f64
    }
}

/// Spawns the service, connects both clients and warms both circuits
/// on both workers; returns the set-up time, s.
fn set_up(args: &RunArgs, report: &mut Report) -> Result<(ServiceProcess, Client, f64), String> {
    let t = Instant::now();
    let service = ServiceProcess::spawn(args)?;
    let mut client = Client::connect(Schedule::build(args.seed), service.addr)?;
    let warm = client.closed("warmup", Duration::from_secs(30), WARM_PER_CONNECTION);
    let setup = t.elapsed().as_secs_f64();
    report.phase(NAME, "warmup", warm.counts(), "");
    Ok((service, client, setup))
}

/// Replays every answered request in process, on one thread, and
/// compares bytes; returns each replay's compute time, s, in order.
fn replay(schedule: &Schedule, phases: &[&PhaseRun], report: &mut Report) -> Vec<f64> {
    // One thread: output is identical for every thread count, and the
    // timing of a 96-pixel frame is then free of per-call thread spawns.
    let evaluator = BatchEvaluator::with_threads(1);
    let mut seconds = Vec::new();
    let mut mismatched = Vec::new();
    let mut compared = 0usize;
    for phase in phases {
        for (&r, a) in phase.numbers.iter().zip(&phase.answers) {
            let Answer::Runs { bits, .. } = a else {
                continue;
            };
            let backend = schedule.replay_backend(r);
            let t = Instant::now();
            let out = gamma_app::apply_optical_lanes(&schedule.image, &backend, &evaluator)
                .expect("replayed frames evaluate");
            seconds.push(t.elapsed().as_secs_f64());
            compared += 1;
            let same = out.pixels().len() == bits.len()
                && out
                    .pixels()
                    .iter()
                    .zip(bits)
                    .all(|(p, b)| p.to_bits() == *b);
            if !same {
                mismatched.push(r);
            }
        }
    }
    report.check(
        "service.bytes_equal_inprocess_replay",
        mismatched.is_empty() && compared > 0,
        &format!(
            "{compared} responses replayed, {} differ (first: {:?})",
            mismatched.len(),
            mismatched.first()
        ),
    );
    seconds
}

/// In-process compute time, s per request, of the schedule's first
/// `TIMED_REQUESTS` requests, clean and under the fixed fault process,
/// timed in rounds for `budget` ([`common::clean_faulted_per_op`]).
fn inproc_per_request(schedule: &Schedule, budget: Duration) -> (f64, f64) {
    // One thread, as in the replay check.
    let evaluator = BatchEvaluator::with_threads(1);
    let fault = common::fault_spec(schedule.seed);
    let backends: Vec<OpticalBackend> = (0..TIMED_REQUESTS as u64)
        .map(|r| schedule.replay_backend(r))
        .collect();
    common::clean_faulted_per_op(backends.len(), budget, |i, faulted| {
        let out = if faulted {
            gamma_app::apply_optical_lanes_faulted(
                &schedule.image,
                &backends[i],
                &evaluator,
                Some(&fault),
            )
        } else {
            gamma_app::apply_optical_lanes(&schedule.image, &backends[i], &evaluator)
        };
        std::hint::black_box(out.expect("replayed frames evaluate"));
    })
}

/// In-process ns per output bit from a per-request time, s.
fn ns_per_bit(seconds: f64) -> f64 {
    seconds * 1e9 / (WIDTH * HEIGHT * STREAM) as f64
}

/// Requests in a phase of about `seconds` at `rate`: whole windows of
/// `MIN_SAMPLE`, at least `windows` of them.
fn count(rate: f64, seconds: f64, windows: usize) -> usize {
    ((rate * seconds) as usize / MIN_SAMPLE).max(windows) * MIN_SAMPLE
}

/// Prints whether the generator kept to a phase's schedule. A late
/// generator marks the phase's latencies invalid (they measured the
/// load generator, not the service); it is not an output failure.
fn validity(phase: &PhaseRun) {
    let lag = phase.lag_p99_ms();
    let valid = lag <= LAG_LIMIT_MS;
    println!(
        "{{\"record\":\"validity\",\"workload\":\"{NAME}\",\"phase\":\"{}\",\"valid\":{valid},\"lag_p99_ms\":{lag:.4},\"limit_ms\":{LAG_LIMIT_MS}}}",
        phase.name
    );
}

/// Runs the workload and reports its end-to-end metrics (or, traced,
/// its per-layer metrics).
pub fn run(args: &RunArgs, report: &mut Report) {
    let s = args.seconds;
    let mut setups = Vec::new();
    let mut live = None;
    for _ in 0..common::SET_UPS {
        match set_up(args, report) {
            Ok((service, client, t)) => {
                setups.push(t);
                // Each earlier instance drains as the next replaces it.
                live = Some((service, client));
            }
            Err(e) => {
                report.check("service.set_up", false, &e);
                return;
            }
        }
    }
    let (service, mut client) = live.expect("the set-ups ran");
    let setup_s = stats::median(&setups).expect("at least one set-up");
    if args.trace {
        return traced(args, service, client, report);
    }

    let base = client.open("base", BASE_RPS, count(BASE_RPS, 0.2 * s, 5));
    drop(client);
    drop(service);
    base.record(report, BASE_RPS);
    validity(&base);

    let schedule = Schedule::build(args.seed);
    replay(&schedule, &[&base], report);
    let (clean, faulted) = inproc_per_request(&schedule, Duration::from_secs_f64(0.6 * s));
    let (err, n) = base.mae_parts();

    report.metric("setup_s", setup_s, "s");
    report.metric("ns_per_bit", ns_per_bit(clean), "ns");
    report.metric("ns_per_bit_faulted", ns_per_bit(faulted), "ns");
    report.metric("mae", err / n.max(1) as f64, "abs");
}

/// The traced run: an untraced base stretch, then traced closed-loop
/// round trips, the base and busy rates and the rate ladder (their
/// tails and the highest rate within the limit are reported here), a
/// direct worker-pool comparison and the layer probes.
fn traced(args: &RunArgs, service: ServiceProcess, mut client: Client, report: &mut Report) {
    let s = args.seconds;
    let untraced = client.open("base_untraced", BASE_RPS, MIN_SAMPLE);
    trace::enable(true);
    let closed = client.closed(
        "closed_depth1",
        Duration::from_secs_f64(0.1 * s),
        usize::MAX,
    );
    let base = client.open("base", BASE_RPS, count(BASE_RPS, 0.25 * s, 5));
    let busy = client.open("busy", BUSY_RPS, count(BUSY_RPS, 0.1 * s, 6));
    for phase in [&closed, &base, &busy] {
        phase.record_spans();
    }
    let reuse = client.reuse_share();
    untraced.record(report, BASE_RPS);
    report.phase(
        NAME,
        "closed_depth1",
        closed.counts(),
        &closed.latency().fields(""),
    );
    let base_outcome = base.record(report, BASE_RPS);
    let busy_outcome = busy.record(report, BUSY_RPS);
    validity(&base);
    validity(&busy);
    let mut steps = Vec::new();
    let (best, _) = stats::ladder_search(&ladder(), 4, SLO_MS, |rate| {
        if rate == BASE_RPS {
            return base_outcome;
        }
        if rate == BUSY_RPS {
            return busy_outcome;
        }
        // A miss is re-run once: a host stall inside a short step should
        // not end the climb; a real limit misses twice.
        let mut outcome = None;
        for attempt in ["", "_retry"] {
            let step = client.open(
                &format!("ladder_{rate}{attempt}"),
                rate,
                count(rate, 0.03 * s, 3),
            );
            let o = step.record(report, rate);
            steps.push(step);
            outcome = Some(o);
            if o.meets(SLO_MS) {
                break;
            }
        }
        outcome.expect("one attempt ran")
    });
    drop(client);
    drop(service);

    let schedule = Schedule::build(args.seed);
    let mut layers = Layers {
        p50_ms: base.p50_ms(),
        candidates_per_s: closed.throughput(),
        service_p99_ms: base.p99_ms(),
        service_p99_ms_busy: busy.p99_ms(),
        service_max_rps_at_slo: best.map_or(0.0, |b| b.achieved_rps),
        ..Layers::default()
    };
    let mut served: Vec<&PhaseRun> = vec![&untraced, &base, &busy];
    served.extend(steps.iter());
    replay(&schedule, &served, report);
    let rtt = closed.latency().mean;
    // In-process compute of the same requests, per request.
    let inproc = replay(&schedule, &[&closed], report);
    let inproc_ms =
        stats::quiet(&inproc, stats::QUIET_COST, stats::chunk_mean).unwrap_or(0.0) * 1e3;

    // A worker pool driven directly, same requests, vs in process.
    let pool_requests = 200u64;
    let evaluator = BatchEvaluator::new();
    match PoolConfig::new(args.bin("shard_worker"), WORKERS).spawn() {
        Ok(mut pool) => {
            let mut pooled = 0.0;
            let mut direct = 0.0;
            let mut differ = 0;
            for r in 0..pool_requests {
                let backend = schedule.replay_backend(r);
                let t = Instant::now();
                let a = trace::timed("core.batch.shard.pool.image_rows", r, None, || {
                    gamma_app::apply_optical_pooled(&schedule.image, &backend, &mut pool)
                });
                pooled += t.elapsed().as_secs_f64();
                let t = Instant::now();
                let b = gamma_app::apply_optical_lanes(&schedule.image, &backend, &evaluator);
                direct += t.elapsed().as_secs_f64();
                differ += usize::from(!matches!((&a, &b), (Ok(a), Ok(b)) if a == b));
            }
            report.check(
                "pool.bytes_equal_inprocess",
                differ == 0,
                &format!("{pool_requests} pooled requests, {differ} differ"),
            );
            layers.pool_overhead_ms_per_req = (pooled - direct) * 1e3 / pool_requests as f64;
        }
        Err(e) => report.check("pool.spawn", false, &e.to_string()),
    }

    let items: Vec<ProbeItem> = schedule
        .bases
        .iter()
        .map(|b| ProbeItem {
            backend: b.with_seed(args.seed),
            image: schedule.image.clone(),
        })
        .collect();
    common::probe_layers(
        &items,
        &common::fault_spec(args.seed),
        Duration::from_secs_f64(0.1 * s),
        &mut layers,
    );
    let runs = evaluate_batch_in_process(
        &evaluator,
        items[0].backend.system(),
        SngKind::Xoshiro,
        schedule.image.pixels(),
        STREAM,
        args.seed,
    )
    .expect("probe frame evaluates");
    common::probe_codec(&schedule.templates[0], &runs, &mut layers);
    trace::enable(false);
    let spans = trace::take();

    layers.shard_circuit_reuse_share = reuse;
    layers.service_rtt_ms = rtt;
    // Each request crosses the codec twice: client ↔ service and
    // service ↔ worker.
    let codec_ms = 2.0 * (layers.shard_encode_us + layers.shard_decode_us) / 1e3;
    layers.service_overhead_ms = rtt - inproc_ms - codec_ms;
    layers.service_queue_wait_ms = base.latency().mean - rtt;
    layers.service_queue_wait_ms_busy = busy.latency().mean - rtt;
    layers.loadgen_lag_p99_ms = base.lag_p99_ms();
    let untraced_ms = untraced.latency().mean;
    layers.trace_overhead_share = (base.latency().mean - untraced_ms) / untraced_ms;
    // Only the traced base stretch's request trees: they carry its
    // request numbers.
    let base_numbers: std::collections::BTreeSet<u64> = base.numbers.iter().copied().collect();
    let base_spans: Vec<trace::Span> = spans
        .iter()
        .filter(|sp| base_numbers.contains(&sp.request))
        .cloned()
        .collect();
    layers.trace_accounted_share = trace::accounted_ms(&base_spans, "op.request") / untraced_ms;
    crate::write_trace(args, NAME, &spans, report);
    layers.report(report);
}
