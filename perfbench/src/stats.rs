//! Order statistics and load-model arithmetic. Nothing here reads a
//! clock, so every rule the benchmark reports by is unit-tested on
//! synthetic data.

/// How many samples must lie beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// Nearest-rank percentile of an ascending-sorted sample: the smallest
/// element with at least `p`% of the sample at or below it
/// (`rank = ceil(p/100 · n)`, clamped into the sample). `None` for an
/// empty sample.
pub fn nearest_rank(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let n = sorted.len();
    let rank = (p / 100.0 * n as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, n) - 1])
}

/// The tail a sample supports: the highest nearest-rank percentile, at
/// most `cap`, that leaves at least `beyond` samples above it. Returns
/// `(percentile, value, samples beyond)`. A sample of 1000 or more
/// reports p99 itself (with `cap` 99 and `beyond` 10); a smaller one
/// reports a lower percentile rather than an unsupported p99. A sample
/// too small to leave `beyond` samples above any rank reports its
/// maximum with 0 beyond.
pub fn tail(sorted: &[f64], cap: f64, beyond: usize) -> Option<(f64, f64, usize)> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let capped = ((cap / 100.0 * n as f64).ceil() as usize).clamp(1, n);
    let rank = capped.min(n.saturating_sub(beyond));
    if rank == 0 {
        return Some((100.0, sorted[n - 1], 0));
    }
    Some((100.0 * rank as f64 / n as f64, sorted[rank - 1], n - rank))
}

/// The nearest-rank `p`, over consecutive chunks of `chunk` items (in
/// arrival order), of `f(chunk)`. A trailing chunk shorter than `chunk`
/// joins the one before it. `None` when empty.
pub fn quantile_over_chunks<T>(
    items: &[T],
    chunk: usize,
    p: f64,
    f: impl Fn(&[T]) -> f64,
) -> Option<f64> {
    if items.is_empty() {
        return None;
    }
    let chunk = chunk.max(1);
    let chunks = (items.len() / chunk).max(1);
    let mut per_chunk: Vec<f64> = (0..chunks)
        .map(|c| {
            let end = if c + 1 == chunks {
                items.len()
            } else {
                (c + 1) * chunk
            };
            f(&items[c * chunk..end])
        })
        .collect();
    per_chunk.sort_by(f64::total_cmp);
    nearest_rank(&per_chunk, p)
}

/// The nearest-rank median, over consecutive windows of `window`
/// samples, of each window's nearest-rank `p`. One host stall then
/// inflates one window's tail, not the reported one.
pub fn median_window_percentile(in_order: &[f64], window: usize, p: f64) -> Option<f64> {
    quantile_over_chunks(in_order, window, 50.0, |w| {
        let mut sorted = w.to_vec();
        sorted.sort_by(f64::total_cmp);
        nearest_rank(&sorted, p).expect("chunks are non-empty")
    })
}

/// Chunks a run's operations are cut into for [`quiet`].
pub const CHUNKS: usize = 8;

/// The figure a run reports for a per-operation cost (or, with
/// `QUIET_RATE`, a rate): `f` of each of [`CHUNKS`] consecutive chunks of
/// the run, then the lower (for a rate, upper) quartile over the chunks.
/// On a shared machine, contention from other tenants only ever adds
/// time and comes and goes within a run; the quieter chunks measure the
/// code, one lucky chunk does not.
pub fn quiet<T>(items: &[T], p: f64, f: impl Fn(&[T]) -> f64) -> Option<f64> {
    quantile_over_chunks(items, items.len() / CHUNKS, p, f)
}

/// [`quiet`] quantile for a cost (lower is better).
pub const QUIET_COST: f64 = 25.0;
/// [`quiet`] quantile for a rate (higher is better).
pub const QUIET_RATE: f64 = 75.0;

/// The figure a run reports for the cost of a fixed set of operations
/// timed again and again in rounds (`rounds[r][i]`: operation `i` in
/// round `r`, the same work every round): for each operation, the
/// nearest-rank `p` of its times over the rounds, then the mean over
/// the operations. Contention from other tenants only ever adds time,
/// so each operation's quieter repeats measure the code; because every
/// round holds the same work, no choice of rounds shifts the mix of
/// cheap and costly operations. `None` without rounds or operations.
///
/// On a shared host the slowdown comes in stretches of seconds (whole
/// rounds run 30–40% slow), and how much of a run they cover varies
/// from run to run; a quartile follows that share, the fastest repeat
/// ([`FASTEST`]) does not, once the run has one quiet stretch.
pub fn quiet_per_op(rounds: &[Vec<f64>], p: f64) -> Option<f64> {
    let ops = rounds.first()?.len();
    if ops == 0 {
        return None;
    }
    let mut total = 0.0;
    for i in 0..ops {
        let mut times: Vec<f64> = rounds.iter().map(|r| r[i]).collect();
        times.sort_by(f64::total_cmp);
        total += nearest_rank(&times, p)?;
    }
    Some(total / ops as f64)
}

/// [`quiet_per_op`] quantile for an operation's fastest repeat.
pub const FASTEST: f64 = 0.0;

/// The mean of a chunk.
pub fn chunk_mean(chunk: &[f64]) -> f64 {
    chunk.iter().sum::<f64>() / chunk.len() as f64
}

/// The median of a chunk.
pub fn chunk_median(chunk: &[f64]) -> f64 {
    median(chunk).expect("chunks are non-empty")
}

/// Median of an unsorted sample (the mean of the two middle elements
/// for an even count); `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// Mean of a sample; `None` when empty.
pub fn mean(values: &[f64]) -> Option<f64> {
    (!values.is_empty()).then(|| values.iter().sum::<f64>() / values.len() as f64)
}

/// Requests outstanding at each request's due time in an open loop:
/// request `i` (due at `due[i]`, finished at `done[i]`, both in one
/// time base and `due` ascending) finds `i − #{j < i : done[j] ≤ due[i]}`
/// earlier requests still unanswered.
pub fn outstanding_at_due(due: &[f64], done: &[f64]) -> Vec<usize> {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;
    // Min-heap of the finish times of earlier requests not yet finished
    // at the current due time; `due` ascends, so a request popped as
    // finished stays finished for every later due time.
    let mut pending: BinaryHeap<Reverse<u64>> = BinaryHeap::new();
    let mut out = Vec::with_capacity(due.len());
    for (i, &d) in due.iter().enumerate() {
        if i > 0 {
            pending.push(Reverse(ordered(done[i - 1])));
        }
        while pending.peek().is_some_and(|&Reverse(t)| t <= ordered(d)) {
            pending.pop();
        }
        out.push(pending.len());
    }
    out
}

/// Maps an `f64` to a `u64` with the same total order.
fn ordered(x: f64) -> u64 {
    let bits = x.to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | (1 << 63)
    }
}

/// Whether an open-loop phase's backlog grew: the median number of
/// requests outstanding over the last quarter of the schedule exceeds
/// the first quarter's by more than `max(8, n/50)`. A steady queue
/// fluctuates around a level; an overloaded one climbs by the excess
/// rate times the phase length, far past that margin. A short stall
/// that clears does not count (the tail-latency limit catches it).
pub fn backlog_grows(due: &[f64], done: &[f64]) -> bool {
    let n = due.len();
    if n < 8 {
        return false;
    }
    let outstanding: Vec<f64> = outstanding_at_due(due, done)
        .into_iter()
        .map(|o| o as f64)
        .collect();
    let quarter = n / 4;
    let first = median(&outstanding[..quarter]).unwrap_or(0.0);
    let last = median(&outstanding[n - quarter..]).unwrap_or(0.0);
    last - first > (n as f64 / 50.0).max(8.0)
}

/// What one rate step of an open loop measured.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepOutcome {
    /// Offered arrival rate, requests/s.
    pub rate: f64,
    /// Completed requests per second of schedule.
    pub achieved_rps: f64,
    /// Tail latency from due time, ms.
    pub p99_ms: f64,
    /// Whether the backlog grew over the step.
    pub backlog_grows: bool,
    /// Requests that failed or were refused (each misses the limit).
    pub failed: usize,
    /// Whether the generator kept to the schedule; a step measured on a
    /// late generator cannot claim its rate.
    pub on_schedule: bool,
}

impl StepOutcome {
    /// Whether the step met the latency limit: the generator kept to
    /// the schedule, nothing failed, the backlog held, and the tail
    /// stayed within `slo_ms`.
    pub fn meets(&self, slo_ms: f64) -> bool {
        self.on_schedule && self.failed == 0 && !self.backlog_grows && self.p99_ms <= slo_ms
    }
}

/// Searches an ascending rate `ladder` for the highest rung that meets
/// the limit: coarse strides of `stride` rungs climb until the first
/// miss, then single rungs climb from the last coarse pass until the
/// next miss. Returns the highest passing outcome (`None` when even the
/// first rung misses) and every step run, in order.
pub fn ladder_search(
    ladder: &[f64],
    stride: usize,
    slo_ms: f64,
    mut run: impl FnMut(f64) -> StepOutcome,
) -> (Option<StepOutcome>, Vec<StepOutcome>) {
    let stride = stride.max(1);
    let mut steps = Vec::new();
    let mut best: Option<(usize, StepOutcome)> = None;
    let mut i = 0;
    let mut missed_at = ladder.len();
    while i < ladder.len() {
        let outcome = run(ladder[i]);
        steps.push(outcome);
        if !outcome.meets(slo_ms) {
            missed_at = i;
            break;
        }
        best = Some((i, outcome));
        i += stride;
    }
    if let Some((from, _)) = best {
        for (j, &rate) in ladder.iter().enumerate().take(missed_at).skip(from + 1) {
            let outcome = run(rate);
            steps.push(outcome);
            if !outcome.meets(slo_ms) {
                break;
            }
            best = Some((j, outcome));
        }
    }
    (best.map(|(_, o)| o), steps)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(nearest_rank(&s, 50.0), Some(50.0));
        assert_eq!(nearest_rank(&s, 99.0), Some(99.0));
        assert_eq!(nearest_rank(&s, 100.0), Some(100.0));
        assert_eq!(nearest_rank(&s, 0.0), Some(1.0));
        assert_eq!(nearest_rank(&[7.0], 99.0), Some(7.0));
        assert_eq!(nearest_rank(&[10.0, 20.0], 50.0), Some(10.0));
        assert_eq!(nearest_rank(&[], 50.0), None);
    }

    #[test]
    fn tail_reports_p99_once_ten_samples_lie_beyond() {
        let s: Vec<f64> = (1..=1000).map(f64::from).collect();
        let (p, v, beyond) = tail(&s, 99.0, TAIL_BEYOND).unwrap();
        assert_eq!((p, v, beyond), (99.0, 990.0, 10));
        let s: Vec<f64> = (1..=2000).map(f64::from).collect();
        assert_eq!(tail(&s, 99.0, TAIL_BEYOND).unwrap(), (99.0, 1980.0, 20));
    }

    #[test]
    fn tail_falls_back_to_the_highest_supported_percentile() {
        // 200 samples: p99 would leave 2 beyond; p95 leaves exactly 10.
        let s: Vec<f64> = (1..=200).map(f64::from).collect();
        let (p, v, beyond) = tail(&s, 99.0, TAIL_BEYOND).unwrap();
        assert_eq!(beyond, 10);
        assert_eq!(v, 190.0);
        assert!((p - 95.0).abs() < 1e-12);
        // Nearest rank at the reported percentile picks the same value.
        assert_eq!(nearest_rank(&s, p), Some(v));
        // Too small for ten beyond: the maximum, flagged by 0 beyond.
        assert_eq!(
            tail(&[1.0, 2.0, 3.0], 99.0, TAIL_BEYOND),
            Some((100.0, 3.0, 0))
        );
        assert_eq!(tail(&[], 99.0, TAIL_BEYOND), None);
    }

    #[test]
    fn per_op_quantile_ignores_stalled_repeats() {
        // Two operations costing 1 and 3 over eight rounds; stalls hit
        // a different round of each, and a long stall hits every op of
        // the last round. The lower quartile of each op is its cost; the
        // fastest repeat is each op's quickest, from whichever round.
        let mut rounds = vec![vec![1.0, 3.0]; 8];
        rounds[2][0] = 40.0;
        rounds[5][1] = 90.0;
        rounds[7] = vec![10.0, 30.0];
        assert_eq!(quiet_per_op(&rounds, QUIET_COST), Some(2.0));
        assert_eq!(quiet_per_op(&rounds, 100.0), Some(65.0));
        rounds[3] = vec![0.5, 2.5];
        assert_eq!(quiet_per_op(&rounds, FASTEST), Some(1.5));
        assert_eq!(quiet_per_op(&[], QUIET_COST), None);
        assert_eq!(quiet_per_op(&[vec![]], QUIET_COST), None);
    }

    #[test]
    fn windowed_tail_resists_one_stalled_window() {
        // Three windows of 100; a burst of 20 slow samples in the
        // second drives the whole-sample p99 but not the median window.
        let mut v = vec![1.0; 300];
        for x in &mut v[120..140] {
            *x = 50.0;
        }
        let mut sorted = v.clone();
        sorted.sort_by(f64::total_cmp);
        assert_eq!(nearest_rank(&sorted, 99.0), Some(50.0));
        assert_eq!(median_window_percentile(&v, 100, 99.0), Some(1.0));
        // A short trailing window joins the previous one; of two
        // windows the nearest-rank median is the lower.
        assert_eq!(median_window_percentile(&v[..250], 100, 99.0), Some(1.0));
        assert_eq!(
            median_window_percentile(&v[100..250], 100, 99.0),
            Some(50.0)
        );
        assert_eq!(median_window_percentile(&[3.0, 1.0], 100, 50.0), Some(1.0));
        assert_eq!(median_window_percentile(&[], 100, 50.0), None);
    }

    #[test]
    fn quiet_figures_ignore_noisy_and_lucky_chunks() {
        // 8 chunks of 10: one noisy chunk (100) and one lucky one (1).
        let mut v = vec![2.0; 80];
        for x in &mut v[10..20] {
            *x = 100.0;
        }
        for x in &mut v[40..50] {
            *x = 1.0;
        }
        assert_eq!(quiet(&v, QUIET_COST, chunk_mean), Some(2.0));
        assert_eq!(quiet(&v, QUIET_RATE, chunk_mean), Some(2.0));
        assert_eq!(quiet(&v, 50.0, chunk_median), Some(2.0));
        // Fewer items than chunks: one item per chunk.
        assert_eq!(quiet(&[3.0, 1.0], QUIET_COST, chunk_mean), Some(1.0));
        assert_eq!(quiet::<f64>(&[], QUIET_COST, chunk_mean), None);
        // Chunks of pairs: a rate over each chunk.
        let pairs = [(1.0, 2.0), (1.0, 2.0), (1.0, 20.0)];
        let rate = |c: &[(f64, f64)]| {
            c.iter().map(|p| p.0).sum::<f64>() / c.iter().map(|p| p.1).sum::<f64>()
        };
        assert_eq!(quantile_over_chunks(&pairs, 1, 50.0, rate), Some(0.5));
    }

    #[test]
    fn median_and_mean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), Some(3.0));
    }

    /// An open loop at `rate` against one server with a fixed service
    /// time and an optional stall: returns (due, done) in seconds.
    fn fifo(
        rate: f64,
        service: f64,
        n: usize,
        stall: Option<(usize, f64)>,
    ) -> (Vec<f64>, Vec<f64>) {
        let due: Vec<f64> = (0..n).map(|i| i as f64 / rate).collect();
        let mut free = 0.0f64;
        let done = due
            .iter()
            .enumerate()
            .map(|(i, &d)| {
                let extra = match stall {
                    Some((at, s)) if at == i => s,
                    _ => 0.0,
                };
                free = free.max(d) + service + extra;
                free
            })
            .collect();
        (due, done)
    }

    #[test]
    fn an_injected_stall_inflates_later_due_time_latencies() {
        // 1000 req/s, 0.2 ms service: idle between requests.
        let (due, done) = fifo(1000.0, 2e-4, 200, Some((50, 0.020)));
        let latency: Vec<f64> = due.iter().zip(&done).map(|(d, f)| f - d).collect();
        assert!((latency[49] - 2e-4).abs() < 1e-9);
        // The stalled request and the ones queued behind it carry the
        // wait, timed from when each was due, not from when it was sent.
        assert!(latency[50] > 0.020);
        assert!(latency[51] > 0.019);
        assert!(latency[60] > 0.010);
        // Once the queue drains, latency returns to the service time.
        assert!((latency[199] - 2e-4).abs() < 1e-9);
        assert!(outstanding_at_due(&due, &done)[55] >= 5);
        // A stall that clears is a tail event, not a growing backlog.
        assert!(!backlog_grows(&due, &done));
    }

    #[test]
    fn outstanding_counts_only_unfinished_earlier_requests() {
        let due = [0.0, 1.0, 2.0, 3.0];
        let done = [0.5, 2.5, 2.6, 3.1];
        assert_eq!(outstanding_at_due(&due, &done), vec![0, 0, 1, 0]);
    }

    #[test]
    fn backlog_growth_is_detected_under_overload_only() {
        // Capacity 5000 req/s.
        let (due, done) = fifo(4000.0, 2e-4, 4000, None);
        assert!(!backlog_grows(&due, &done));
        let (due, done) = fifo(5500.0, 2e-4, 5500, None);
        assert!(backlog_grows(&due, &done));
    }

    /// Synthetic M/D/1-flavoured tail: capacity 4000 req/s, p99 grows
    /// as 0.25 ms / (1 − ρ); the backlog grows past capacity.
    fn model(rate: f64) -> StepOutcome {
        let rho = rate / 4000.0;
        StepOutcome {
            rate,
            achieved_rps: rate.min(4000.0),
            p99_ms: if rho < 1.0 {
                0.25 / (1.0 - rho)
            } else {
                f64::INFINITY
            },
            backlog_grows: rho >= 1.0,
            failed: 0,
            on_schedule: true,
        }
    }

    #[test]
    fn ladder_search_finds_the_highest_rung_within_the_limit() {
        let ladder: Vec<f64> = (4..=40).map(|k| f64::from(k) * 250.0).collect();
        // p99 ≤ 2 ms ⇔ ρ ≤ 0.875 ⇔ rate ≤ 3500.
        let (best, steps) = ladder_search(&ladder, 4, 2.0, model);
        assert_eq!(best.unwrap().rate, 3500.0);
        // Coarse 1000, 2000, 3000, 4000 (miss), then fine 3250, 3500,
        // 3750 (miss).
        let rates: Vec<f64> = steps.iter().map(|s| s.rate).collect();
        assert_eq!(
            rates,
            vec![1000.0, 2000.0, 3000.0, 4000.0, 3250.0, 3500.0, 3750.0]
        );
        // A tighter limit: p99 ≤ 1 ms ⇔ rate ≤ 3000.
        let (best, _) = ladder_search(&ladder, 4, 1.0, model);
        assert_eq!(best.unwrap().rate, 3000.0);
    }

    #[test]
    fn ladder_search_treats_failures_and_backlog_as_misses() {
        let ladder = [1000.0, 2000.0, 3000.0];
        let (best, _) = ladder_search(&ladder, 1, 2.0, |rate| StepOutcome {
            failed: usize::from(rate > 1500.0),
            ..model(rate)
        });
        assert_eq!(best.unwrap().rate, 1000.0);
        let (best, steps) = ladder_search(&ladder, 1, 2.0, |rate| StepOutcome {
            backlog_grows: true,
            ..model(rate)
        });
        assert!(best.is_none());
        assert_eq!(steps.len(), 1);
        // A step the generator fell behind on cannot claim its rate.
        let (best, _) = ladder_search(&ladder, 1, 2.0, |rate| StepOutcome {
            on_schedule: rate < 2500.0,
            ..model(rate)
        });
        assert_eq!(best.unwrap().rate, 2000.0);
    }
}
