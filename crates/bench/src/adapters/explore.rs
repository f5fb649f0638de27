//! Exploration-engine adapter — the `rsp/explore` benchmark
//! (`BENCH_explore.json`).
//!
//! Measures the exploration engine against the serial reference over a
//! named design space. The tracked labels (see the registry definition)
//! are:
//!
//! * `extended` — the engine-speedup trajectory tracked since the engine
//!   rebuild.
//! * `deep` — the pruning-efficacy benchmark: a 480-candidate space
//!   where the per-row residual bound, area-ordered enumeration, and the
//!   stage-floor clock bound make [`PruneStrategy::Dominated`] skip a
//!   large fraction of candidate estimations (`candidates_pruned` /
//!   `clock_bound_cuts` / `bound_tightness` per row).
//!
//! (`paper`, the 12-point space, is also accepted — it is the cheap
//! label the adapter's own tests and fabricated CLI fixtures use.)
//!
//! Engines measured per space, all over the full kernel suite with
//! uniform weights:
//!
//! * `serial-reference` — [`rsp_core::explore_reference`], the paper-
//!   faithful baseline: clones the base per candidate, re-synthesizes
//!   every report, rebuilds dense demand histograms.
//! * `engine-1-thread` — the allocation-free engine pinned to one thread
//!   (isolates the algorithmic win from parallel speedup).
//! * `engine-1-thread-pruned` — one thread plus Dominated pruning with
//!   the per-row bound and the stage-floor clock cut: the
//!   core-count-independent row the cross-host timing gate always
//!   holds, so the pruning machinery itself can never silently regress.
//! * `engine-parallel` — the engine on all cores, no pruning.
//! * `engine-parallel-pruned` — all cores plus lower-bound and
//!   dominated-candidate pruning with the default
//!   [`BoundKind::PerRowResidual`] and [`ClockBound::StageFloor`]
//!   (frontier-preserving).
//! * `engine-pruned-aggregate` — same, with the looser
//!   [`BoundKind::Aggregate`] bound (the ablation that shows what the
//!   per-row residual buys).

use crate::gate::{time_median, BenchReport, EngineRow};
use rsp_arch::presets;
use rsp_core::{
    explore_reference, explore_with, BoundKind, ClockBound, Constraints, DesignSpace,
    ExploreOptions, Objective, PruneStrategy,
};
use rsp_kernel::suite;
use rsp_mapper::{map, MapOptions};
use std::hint::black_box;

/// The design space a report label names.
fn space_for(label: &str) -> Option<DesignSpace> {
    match label {
        "paper" => Some(DesignSpace::paper()),
        "extended" => Some(DesignSpace::extended()),
        "deep" => Some(DesignSpace::deep()),
        _ => None,
    }
}

/// Measures one tracked label (`extended` / `deep` / `paper`) with
/// `samples` measured repetitions per engine; `None` for an unknown
/// label. The registry's generic runner and gate are the callers.
pub fn measure(label: &str, samples: u32) -> Option<BenchReport> {
    space_for(label).map(|space| run(&space, label, samples))
}

/// Runs the exploration benchmark on `space` with `samples` measured
/// repetitions per engine.
pub fn run(space: &DesignSpace, space_label: &str, samples: u32) -> BenchReport {
    let base = presets::base_8x8().base().clone();
    let kernels = suite::all();
    let contexts: Vec<_> = kernels
        .iter()
        .map(|k| map(&base, k, &MapOptions::default()).expect("suite maps"))
        .collect();
    let weights = vec![1.0; kernels.len()];
    let constraints = Constraints::default();
    let objective = Objective::AreaDelayProduct;

    // Each engine run synthesizes directly (`cache: None`) so the rows
    // measure full cost, not a warmed memo.
    let engine_opts = |parallelism: Option<usize>,
                       prune: PruneStrategy,
                       bound: BoundKind,
                       clock_bound: ClockBound| ExploreOptions {
        parallelism,
        prune,
        bound,
        clock_bound,
        constraints,
        objective,
        cache: None,
        profiles: None,
        control: Default::default(),
        recorder: rsp_obs::global(),
    };

    let mut rows: Vec<EngineRow> = Vec::new();

    // Reference baseline.
    let reference_median = {
        let mut last = None;
        let (median, min) = time_median(samples, || {
            last = Some(
                explore_reference(
                    black_box(&base),
                    &kernels,
                    &contexts,
                    &weights,
                    space,
                    &constraints,
                    objective,
                )
                .expect("reference explores"),
            );
        });
        let last = last.unwrap();
        rows.push(EngineRow {
            name: "serial-reference".into(),
            median_ns: median,
            min_ns: min,
            samples,
            speedup_vs_reference: 1.0,
            feasible: last.feasible.len(),
            candidates_seen: last.stats.candidates_seen,
            candidates_pruned: 0,
            bound_tightness: 0.0,
            clock_bound_cuts: 0,
            rearrangements_skipped: 0,
            refill_segments: 0,
            refill_stall_cycles: 0,
        });
        median
    };

    let configs = [
        (
            "engine-1-thread",
            Some(1),
            PruneStrategy::None,
            BoundKind::PerRowResidual,
            ClockBound::Off,
        ),
        // Single-threaded pruned row: its ratio to the serial reference
        // is core-count-independent, so the cross-host timing gate can
        // always hold it — the row that keeps the pruning machinery
        // (bound computation, clock floor, area ordering, streaming
        // frontier) from silently rotting even when the artifact and
        // the CI runner disagree on core count.
        (
            "engine-1-thread-pruned",
            Some(1),
            PruneStrategy::Dominated,
            BoundKind::PerRowResidual,
            ClockBound::StageFloor,
        ),
        (
            "engine-parallel",
            None,
            PruneStrategy::None,
            BoundKind::PerRowResidual,
            ClockBound::Off,
        ),
        (
            "engine-parallel-pruned",
            None,
            PruneStrategy::Dominated,
            BoundKind::PerRowResidual,
            ClockBound::StageFloor,
        ),
        (
            "engine-pruned-aggregate",
            None,
            PruneStrategy::Dominated,
            BoundKind::Aggregate,
            ClockBound::StageFloor,
        ),
    ];
    for (name, parallelism, prune, bound, clock_bound) in configs {
        let opts = engine_opts(parallelism, prune, bound, clock_bound);
        let mut last = None;
        let (median, min) = time_median(samples, || {
            last = Some(
                explore_with(
                    black_box(&base),
                    &kernels,
                    &contexts,
                    &weights,
                    space,
                    &opts,
                )
                .expect("engine explores"),
            );
        });
        let last = last.unwrap();
        rows.push(EngineRow {
            name: name.into(),
            median_ns: median,
            min_ns: min,
            samples,
            speedup_vs_reference: reference_median as f64 / median as f64,
            feasible: last.feasible.len(),
            candidates_seen: last.stats.candidates_seen,
            candidates_pruned: last.stats.candidates_pruned,
            bound_tightness: last.stats.bound_tightness,
            clock_bound_cuts: last.stats.clock_bound_cuts,
            rearrangements_skipped: 0,
            refill_segments: 0,
            refill_stall_cycles: 0,
        });
    }

    BenchReport {
        space: space_label.into(),
        candidates: space.plans().count(),
        kernels: kernels.len(),
        threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
        samples,
        selected_pe_count: 0, // exploration is pinned to the 8×8 base
        engines: rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_runs_and_engines_agree() {
        let report = measure("paper", 2).unwrap();
        assert_eq!(report.engines.len(), 6);
        // No-prune engines agree exactly with the reference.
        let feasible_of = |name: &str| {
            report
                .engines
                .iter()
                .find(|e| e.name == name)
                .unwrap()
                .feasible
        };
        assert_eq!(
            feasible_of("serial-reference"),
            feasible_of("engine-1-thread")
        );
        assert_eq!(
            feasible_of("serial-reference"),
            feasible_of("engine-parallel")
        );
        // Pruned engines report their efficacy.
        let pruned_row = report
            .engines
            .iter()
            .find(|e| e.name == "engine-parallel-pruned")
            .unwrap();
        assert_eq!(pruned_row.candidates_seen, report.candidates);
        assert!(pruned_row.clock_bound_cuts <= pruned_row.candidates_pruned);
        let json = serde_json::to_string_pretty(&report).unwrap();
        assert!(json.contains("serial-reference"));
        assert!(json.contains("bound_tightness"));
        assert!(json.contains("clock_bound_cuts"));
        // Unknown labels are refused.
        assert!(measure("imaginary", 1).is_none());
    }
}
