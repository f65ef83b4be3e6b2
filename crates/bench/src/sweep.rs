//! Shared design-sweep scenarios — the axes the `design_sweep` binary,
//! the `design_sweep_order_grid` kernel workload and the sweep
//! equivalence tests all build from, so every entry point exercises the
//! same candidate universes.

use osc_core::backend::BackendKind;
use osc_core::batch::shard::SngKind;

#[doc(no_inline)]
pub use osc_core::design::sweep::{
    frontier_csv, pareto_frontier, DesignSweep, SweepAxes, SweepPoint,
};

/// Builds sweep axes holding at least `candidates` candidates over the
/// Fig. 6 device ranges, optionally restricted to one backend. The grid
/// side grows until the cross product reaches the floor, so the same
/// `(candidates, backend)` pair enumerates the same universe
/// everywhere.
pub fn axes_for(
    candidates: usize,
    backend: Option<BackendKind>,
    streams: &[usize],
    probes: usize,
    seed: u64,
) -> SweepAxes {
    let mut points = 1usize;
    loop {
        let mut axes = SweepAxes::fig6(points);
        if let Some(b) = backend {
            axes.backends = vec![b];
        }
        if !streams.is_empty() {
            axes.stream_lengths = streams.to_vec();
        }
        axes.probes = probes;
        axes.seed = seed;
        if axes.candidate_count() >= candidates {
            return axes;
        }
        points += 1;
    }
}

/// The many-distinct-circuits order-grid profile behind the
/// `design_sweep_order_grid` kernel workload: orders 1–2 × both
/// backends × a 16 × 16 IL/ER grid = 1024 candidates, every one a
/// distinct circuit — the stress profile the soak schedule's
/// two-circuit repeat cannot produce. Streams stay short (32 bits,
/// 2 probes) so the workload measures serving overhead, not optics.
pub fn order_grid_axes() -> SweepAxes {
    SweepAxes {
        orders: vec![1, 2],
        sngs: vec![SngKind::Counter],
        stream_lengths: vec![32],
        backends: BackendKind::ALL.to_vec(),
        il_db: osc_math::linspace(3.0, 7.4, 16),
        er_db: osc_math::linspace(4.0, 7.6, 16),
        target_ber: 1e-6,
        probes: 2,
        seed: 0x0BD6_41D0,
    }
}

/// One-line sweep summary, the `soak::summary_line` convention applied
/// to a design sweep.
pub fn summary_line(
    binary: &str,
    sweep: &DesignSweep,
    mode: &str,
    solve_s: f64,
    eval_s: f64,
    frontier: &[SweepPoint],
) -> String {
    let feasible = sweep.designs().len();
    let per_candidate_ms = if feasible > 0 {
        eval_s * 1e3 / feasible as f64
    } else {
        0.0
    };
    format!(
        "[{binary}] sweep: {} candidates ({} feasible, {} infeasible, {} probes, backend {}) \
         via {mode}: solve {solve_s:.3} s, eval {eval_s:.3} s, {per_candidate_ms:.2} ms/candidate, \
         frontier {} points",
        sweep.candidates(),
        feasible,
        sweep.infeasible(),
        sweep.axes().probes,
        backend_label(sweep),
        frontier.len(),
    )
}

fn backend_label(sweep: &DesignSweep) -> String {
    let backends = &sweep.axes().backends;
    if backends.len() == 1 {
        backends[0].to_string()
    } else {
        "all".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn axes_for_reaches_floor_and_pins_backend() {
        let axes = axes_for(60, Some(BackendKind::Nanocavity), &[64], 3, 5);
        assert!(axes.candidate_count() >= 60);
        assert_eq!(axes.backends, vec![BackendKind::Nanocavity]);
        assert_eq!(axes.stream_lengths, vec![64]);
        assert_eq!((axes.probes, axes.seed), (3, 5));
        // Same request, same universe: the sizing is deterministic.
        assert_eq!(
            axes,
            axes_for(60, Some(BackendKind::Nanocavity), &[64], 3, 5)
        );
        // An empty stream list keeps the default two-length axis.
        assert_eq!(axes_for(60, None, &[], 3, 5).stream_lengths, vec![64, 256]);
    }

    #[test]
    fn order_grid_is_a_thousand_distinct_circuits() {
        let axes = order_grid_axes();
        assert_eq!(axes.candidate_count(), 1024);
        // Every candidate is a distinct circuit: SNG and stream axes
        // are singletons, so (backend, order, il, er) alone vary.
        assert_eq!(axes.sngs.len(), 1);
        assert_eq!(axes.stream_lengths.len(), 1);
    }
}
