//! The closed loop: the caller starts its next operation only when the
//! previous one has returned, so a slower system receives less load and
//! no backlog can form.

use std::time::{Duration, Instant};

/// One finished operation of a closed loop.
#[derive(Debug)]
pub struct Done<T> {
    /// Operation number: `first`, `first + 1`, ...
    pub k: usize,
    /// Wall time of the call, ms.
    pub ms: f64,
    /// What the operation returned.
    pub out: T,
}

/// Runs `op(state, k)` back to back until `duration` has elapsed (at
/// least one operation). Returns the finished operations in order.
pub fn run<S, T>(
    state: &mut S,
    first: usize,
    duration: Duration,
    mut op: impl FnMut(&mut S, usize) -> T,
) -> Vec<Done<T>> {
    let deadline = Instant::now() + duration;
    let mut done = Vec::new();
    let mut k = first;
    loop {
        let t = Instant::now();
        let out = op(state, k);
        let end = Instant::now();
        done.push(Done {
            k,
            ms: (end - t).as_secs_f64() * 1e3,
            out,
        });
        k += 1;
        if end >= deadline {
            return done;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn operations_run_back_to_back_until_the_deadline() {
        let mut calls = 0usize;
        let started = Instant::now();
        let done = run(&mut calls, 10, Duration::from_millis(20), |calls, k| {
            *calls += 1;
            std::thread::sleep(Duration::from_millis(2));
            k
        });
        assert!(started.elapsed() >= Duration::from_millis(20));
        assert_eq!(done.len(), calls);
        assert!(done
            .iter()
            .enumerate()
            .all(|(i, d)| d.out == 10 + i && d.k == d.out));
        assert!(done.iter().all(|d| d.ms >= 2.0));
        // At least one operation even with no time at all.
        assert_eq!(run(&mut (), 0, Duration::ZERO, |_, k| k).len(), 1);
    }
}
