//! In-memory span recording for the traced run.
//!
//! Spans are recorded by the benchmark's own code around calls into the
//! public functions of each layer: a span has a name, a start, an end,
//! the span that caused it, and the request it belongs to. Recording is
//! off unless [`enable`] was called, so the untraced run pays one
//! relaxed load per span site. Spans stay in memory and are written out
//! once, when the run ends ([`write_jsonl`]).

use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the process's trace
/// epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Unique id within the run.
    pub id: u32,
    /// The span that caused this one, if any.
    pub parent: Option<u32>,
    /// The request (or operation) every span of one request shares.
    pub request: u64,
    /// Layer-qualified name, e.g. `core.batch.shard.encode_request_v2`.
    pub name: &'static str,
    /// Start, ns.
    pub start_ns: u64,
    /// End, ns.
    pub end_ns: u64,
}

impl Span {
    /// Wall duration, ns.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU32 = AtomicU32::new(1);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the trace epoch for an instant.
pub fn ns(at: Instant) -> u64 {
    at.saturating_duration_since(epoch()).as_nanos() as u64
}

/// Turns recording on or off. The statistic-only flag publishes no
/// other data, so a relaxed store suffices.
pub fn enable(on: bool) {
    epoch();
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether spans are being recorded.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Records a finished span between two instants and returns its id
/// (`None` while recording is off).
pub fn record(
    name: &'static str,
    request: u64,
    parent: Option<u32>,
    start: Instant,
    end: Instant,
) -> Option<u32> {
    if !enabled() {
        return None;
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let span = Span {
        id,
        parent,
        request,
        name,
        start_ns: ns(start),
        end_ns: ns(end),
    };
    SPANS
        .lock()
        .expect("span store poisoned by a panicking recorder")
        .push(span);
    Some(id)
}

/// Reserves a span id before the span's children run, so children can
/// name their parent; [`record_as`] files the span itself when it ends.
pub fn reserve() -> Option<u32> {
    enabled().then(|| NEXT_ID.fetch_add(1, Ordering::Relaxed))
}

/// Records a span under an id from [`reserve`].
pub fn record_as(
    id: Option<u32>,
    name: &'static str,
    request: u64,
    parent: Option<u32>,
    start: Instant,
    end: Instant,
) {
    let Some(id) = id else { return };
    let span = Span {
        id,
        parent,
        request,
        name,
        start_ns: ns(start),
        end_ns: ns(end),
    };
    SPANS
        .lock()
        .expect("span store poisoned by a panicking recorder")
        .push(span);
}

/// Times `f` as a span named `name` under `parent` and returns its
/// result.
pub fn timed<T>(name: &'static str, request: u64, parent: Option<u32>, f: impl FnOnce() -> T) -> T {
    if !enabled() {
        return f();
    }
    let start = Instant::now();
    let out = f();
    record(name, request, parent, start, Instant::now());
    out
}

/// Removes and returns every recorded span, ordered by id.
pub fn take() -> Vec<Span> {
    let mut spans = std::mem::take(
        &mut *SPANS
            .lock()
            .expect("span store poisoned by a panicking recorder"),
    );
    spans.sort_by_key(|s| s.id);
    spans
}

/// Self time of every span, in the order given: its duration minus the
/// part of its interval that its children cover. Children that overlap
/// each other (parallel work) count once; a child reaching outside its
/// parent counts only inside it.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: std::collections::BTreeMap<u32, Vec<(u64, u64)>> = Default::default();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut covered = 0u64;
            if let Some(kids) = children.get_mut(&s.id) {
                kids.sort_unstable();
                let mut cursor = s.start_ns;
                for &(a, b) in kids.iter() {
                    let a = a.max(cursor);
                    let b = b.min(s.end_ns);
                    if b > a {
                        covered += b - a;
                        cursor = b;
                    }
                }
            }
            s.duration_ns().saturating_sub(covered)
        })
        .collect()
}

/// Sum of self times per span name, ns, with the span count.
pub fn self_time_by_name(spans: &[Span]) -> std::collections::BTreeMap<&'static str, (u64, usize)> {
    let mut by_name = std::collections::BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        let entry = by_name.entry(s.name).or_insert((0u64, 0usize));
        entry.0 += own;
        entry.1 += 1;
    }
    by_name
}

/// Mean, over the root spans named `root`, of the summed self times of
/// each root's span tree, ms — what the blocking path's layers account
/// for per operation.
pub fn accounted_ms(spans: &[Span], root: &str) -> f64 {
    let own = self_times(spans);
    let mut parent_of = std::collections::BTreeMap::new();
    for s in spans {
        parent_of.insert(s.id, s.parent);
    }
    let root_of = |mut id: u32| loop {
        match parent_of.get(&id).copied().flatten() {
            Some(p) => id = p,
            None => return id,
        }
    };
    let roots: std::collections::BTreeSet<u32> = spans
        .iter()
        .filter(|s| s.name == root)
        .map(|s| s.id)
        .collect();
    let total: u64 = spans
        .iter()
        .zip(&own)
        .filter(|(s, _)| roots.contains(&root_of(s.id)))
        .map(|(_, &t)| t)
        .sum();
    total as f64 / 1e6 / roots.len().max(1) as f64
}

/// Writes spans as JSON lines (one object per span) to `path`,
/// creating its directory.
///
/// # Errors
///
/// Propagates I/O failures.
pub fn write_jsonl(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{parent},\"request\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.request, s.name, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            request: 7,
            name: "t",
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = [
            span(1, None, 0, 100),
            span(2, Some(1), 10, 30),
            span(3, Some(1), 50, 90),
            span(4, Some(3), 60, 70),
        ];
        assert_eq!(self_times(&spans), vec![40, 20, 30, 10]);
        // Self times partition the root interval.
        assert_eq!(self_times(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn overlapping_children_count_once_and_clip_to_the_parent() {
        let spans = [
            span(1, None, 0, 100),
            // Two parallel children covering [20, 70) together.
            span(2, Some(1), 20, 60),
            span(3, Some(1), 40, 70),
            // A child that outlives its parent counts only inside it.
            span(4, Some(1), 90, 130),
        ];
        assert_eq!(self_times(&spans)[0], 100 - 50 - 10);
        let spans = [span(1, None, 0, 10), span(2, Some(1), 0, 10)];
        assert_eq!(self_times(&spans), vec![0, 10]);
    }

    #[test]
    fn accounted_time_sums_each_root_tree() {
        let mut spans = vec![
            span(1, None, 0, 100),
            span(2, Some(1), 10, 90),
            span(3, Some(2), 20, 30),
            span(4, None, 200, 260),
            // Another kind of root is not counted.
            span(5, None, 0, 1000),
        ];
        spans[0].name = "op";
        spans[3].name = "op";
        // Two trees of 100 and 60 ns: 80 ns, 8e-5 ms, per root.
        assert!((accounted_ms(&spans, "op") - 8e-5).abs() < 1e-12);
    }

    #[test]
    fn self_time_by_name_aggregates() {
        let mut spans = vec![span(1, None, 0, 100), span(2, Some(1), 0, 40)];
        spans[1].name = "child";
        let by = self_time_by_name(&spans);
        assert_eq!(by["t"], (60, 1));
        assert_eq!(by["child"], (40, 1));
    }
}
