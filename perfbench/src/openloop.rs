//! The scheduled open-loop generator.
//!
//! Request `i` of a phase is due at `t0 + i/rate`, whether or not
//! earlier requests have been answered — the arrival process of
//! independent users. Latency is timed from when a request was *due*,
//! so a stall anywhere (in the generator, the socket or the service)
//! charges every request queued behind it. The generator's own lateness
//! is recorded separately, so a run can tell a late generator from a
//! slow service.

use std::time::{Duration, Instant};

/// When one scheduled send happened.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SendTiming {
    /// When the request was due.
    pub due: Instant,
    /// When the generator started sending it.
    pub started: Instant,
    /// How late the generator itself ran, ms: from the later of the due
    /// time and the end of the previous send, to this send's start. A
    /// send blocked by a full socket (service backpressure) delays the
    /// next send without counting here.
    pub lag_ms: f64,
}

/// Paces `n` sends at `rate` requests/s from `t0`, calling `send(i)` for
/// each at (or as soon as possible after) its due time. Stops early if
/// `send` returns `false`.
pub fn pace(
    t0: Instant,
    rate: f64,
    n: usize,
    mut send: impl FnMut(usize) -> bool,
) -> Vec<SendTiming> {
    let mut timings = Vec::with_capacity(n);
    let mut prev_end = t0;
    for i in 0..n {
        let due = t0 + Duration::from_secs_f64(i as f64 / rate);
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        let started = Instant::now();
        let ready = due.max(prev_end);
        timings.push(SendTiming {
            due,
            started,
            lag_ms: started.saturating_duration_since(ready).as_secs_f64() * 1e3,
        });
        let go_on = send(i);
        prev_end = Instant::now();
        if !go_on {
            break;
        }
    }
    timings
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    /// Latency of each answered request from its due time, ms (`None` for
    /// a request never answered).
    fn due_latencies_ms(timings: &[SendTiming], done: &[Option<Instant>]) -> Vec<Option<f64>> {
        timings
            .iter()
            .zip(done)
            .map(|(t, d)| d.map(|d| d.saturating_duration_since(t.due).as_secs_f64() * 1e3))
            .collect()
    }

    /// Drives `n` requests at `rate` through a one-at-a-time server
    /// thread with a fixed service time, stalling once for `stall` at
    /// request `stall_at`. Returns the due-time latencies, ms.
    fn run_fake(
        rate: f64,
        n: usize,
        service: Duration,
        stall_at: usize,
        stall: Duration,
    ) -> Vec<f64> {
        let (tx, rx) = mpsc::channel::<usize>();
        let (done_tx, done_rx) = mpsc::channel::<(usize, Instant)>();
        let server = std::thread::spawn(move || {
            for i in rx {
                std::thread::sleep(service);
                if i == stall_at {
                    std::thread::sleep(stall);
                }
                done_tx.send((i, Instant::now())).expect("collector alive");
            }
        });
        let t0 = Instant::now();
        let timings = pace(t0, rate, n, |i| tx.send(i).is_ok());
        drop(tx);
        server.join().expect("server thread");
        let mut done = vec![None; n];
        for (i, at) in done_rx {
            done[i] = Some(at);
        }
        due_latencies_ms(&timings, &done)
            .into_iter()
            .map(|l| l.expect("every request answered"))
            .collect()
    }

    #[test]
    fn the_schedule_paces_sends_at_the_rate() {
        let t0 = Instant::now();
        let timings = pace(t0, 500.0, 20, |_| true);
        assert_eq!(timings.len(), 20);
        // The last send is due 38 ms in and is not sent early.
        assert!(timings[19].started >= t0 + Duration::from_millis(38));
        assert!(timings.iter().all(|t| t.started >= t.due));
    }

    #[test]
    fn an_injected_stall_inflates_the_latency_of_later_requests() {
        // 200 req/s (5 ms apart), 0.5 ms service, one 40 ms stall at
        // request 10: requests due during the stall wait it out.
        let lat = run_fake(
            200.0,
            30,
            Duration::from_micros(500),
            10,
            Duration::from_millis(40),
        );
        assert!(lat[5] < 5.0, "idle-server latency {}", lat[5]);
        assert!(lat[10] >= 40.0, "stalled request {}", lat[10]);
        // Request 11 was due 5 ms after 10 and was answered only after
        // the stall: ≥ 40 − 5 ms from its due time, though the server
        // spent 0.5 ms on it.
        assert!(lat[11] >= 35.0, "queued request {}", lat[11]);
        assert!(lat[13] >= 25.0, "queued request {}", lat[13]);
        // Far past the stall the queue has drained.
        assert!(lat[29] < 5.0, "recovered latency {}", lat[29]);
    }

    #[test]
    fn a_blocked_send_is_not_generator_lag() {
        // A send that blocks for 20 ms (a full socket) makes later sends
        // start late, yet the generator itself was never late.
        let t0 = Instant::now();
        let timings = pace(t0, 1000.0, 10, |i| {
            if i == 2 {
                std::thread::sleep(Duration::from_millis(20));
            }
            true
        });
        assert!(timings[3].started >= timings[3].due + Duration::from_millis(15));
        assert!(timings[3].lag_ms < 5.0, "lag {}", timings[3].lag_ms);
    }
}
