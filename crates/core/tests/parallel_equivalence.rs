//! Property tests: the parallel exploration engine is *bit-identical* to
//! the serial reference implementation — same feasible set (order, cycle
//! estimates, and exact f64 bit patterns), same Pareto frontier, same
//! selected optimum — for any thread count and for every
//! result-preserving prune strategy, over both the paper's space and the
//! extended ablation space — and, on the 11,024-candidate `deep100`
//! space, whether synthesis runs through a caller-shared `ModelCache` or
//! calls the models directly.

use proptest::prelude::*;
use rsp_arch::{presets, BaseArchitecture};
use rsp_core::{
    explore_reference, explore_with, BoundKind, ClockBound, Constraints, DesignSpace, Exploration,
    ExploreOptions, Objective, PruneStrategy,
};
use rsp_kernel::Kernel;
use rsp_mapper::{map, ConfigContext, MapOptions};
use rsp_synth::ModelCache;
use std::sync::{Arc, OnceLock};

/// The full suite mapped onto the 8×8 base, shared across cases (mapping
/// is the expensive part of the setup, not exploration).
fn fixture() -> &'static (BaseArchitecture, Vec<Kernel>, Vec<ConfigContext>) {
    static FIXTURE: OnceLock<(BaseArchitecture, Vec<Kernel>, Vec<ConfigContext>)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let base = presets::base_8x8().base().clone();
        let kernels = rsp_kernel::suite::all();
        let contexts = kernels
            .iter()
            .map(|k| map(&base, k, &MapOptions::default()).unwrap())
            .collect();
        (base, kernels, contexts)
    })
}

fn assert_bit_identical(engine: &Exploration, reference: &Exploration) {
    assert_eq!(
        engine.feasible.len(),
        reference.feasible.len(),
        "feasible size"
    );
    for (e, r) in engine.feasible.iter().zip(&reference.feasible) {
        assert_eq!(e.arch.name(), r.arch.name());
        assert_eq!(e.arch.plan(), r.arch.plan());
        assert_eq!(
            e.area_slices.to_bits(),
            r.area_slices.to_bits(),
            "{}",
            e.arch.name()
        );
        assert_eq!(
            e.clock_ns.to_bits(),
            r.clock_ns.to_bits(),
            "{}",
            e.arch.name()
        );
        assert_eq!(e.est_cycles, r.est_cycles, "{}", e.arch.name());
        assert_eq!(
            e.est_et_ns.to_bits(),
            r.est_et_ns.to_bits(),
            "{}",
            e.arch.name()
        );
        assert_eq!(e.cost_bound_ok, r.cost_bound_ok, "{}", e.arch.name());
    }
    assert_eq!(engine.pareto, reference.pareto, "pareto frontier");
    assert_eq!(engine.best, reference.best, "best index");
    assert_eq!(engine.base_et_ns.to_bits(), reference.base_et_ns.to_bits());
}

/// `deep100` with direct synthesis (`cache: None`) and with a shared
/// `ModelCache`, at one, two and all threads: every run reproduces the
/// serial reference's feasible set, frontier and best point bit for bit,
/// and all six runs take identical prune decisions.
#[test]
fn deep100_is_identical_across_synthesis_paths_and_thread_counts() {
    let (base, kernels, contexts) = fixture();
    let weights = vec![1.0; kernels.len()];
    let space = DesignSpace::deep100();
    let reference = explore_reference(
        base,
        kernels,
        contexts,
        &weights,
        &space,
        &Constraints::default(),
        Objective::AreaDelayProduct,
    )
    .unwrap();
    let mut stats = Vec::new();
    for parallelism in [Some(1), Some(2), None] {
        for shared in [false, true] {
            // A fresh cache per run: a warm one answers the clock floor
            // with a plan's exact clock, which moves cuts from the lower
            // bound to the clock floor (results stay identical).
            let cache = shared.then(|| Arc::new(ModelCache::new()));
            let engine = explore_with(
                base,
                kernels,
                contexts,
                &weights,
                &space,
                &ExploreOptions {
                    parallelism,
                    cache: cache.clone(),
                    ..ExploreOptions::default()
                },
            )
            .unwrap();
            assert_bit_identical(&engine, &reference);
            if let Some(cache) = cache {
                assert!(cache.misses() > 0, "the shared cache served synthesis");
            }
            stats.push((parallelism, shared, engine.stats));
        }
    }
    let (_, _, first) = stats[0];
    assert!(first.candidates_pruned > 0 && first.clock_bound_cuts > 0);
    for (parallelism, shared, s) in &stats {
        let at = format!("parallelism {parallelism:?}, shared cache {shared}");
        assert_eq!(s.candidates_seen, first.candidates_seen, "{at}");
        assert_eq!(s.candidates_pruned, first.candidates_pruned, "{at}");
        assert_eq!(s.clock_bound_cuts, first.clock_bound_cuts, "{at}");
        assert_eq!(s.faulted, first.faulted, "{at}");
        assert_eq!(
            s.bound_tightness.to_bits(),
            first.bound_tightness.to_bits(),
            "{at}"
        );
    }
}

fn arb_objective() -> impl Strategy<Value = Objective> {
    prop_oneof![
        Just(Objective::AreaDelayProduct),
        Just(Objective::ExecutionTime),
        Just(Objective::Area),
    ]
}

fn arb_space() -> impl Strategy<Value = DesignSpace> {
    prop_oneof![Just(DesignSpace::paper()), Just(DesignSpace::extended())]
}

fn arb_bound() -> impl Strategy<Value = BoundKind> {
    prop_oneof![Just(BoundKind::Aggregate), Just(BoundKind::PerRowResidual)]
}

fn arb_clock_bound() -> impl Strategy<Value = ClockBound> {
    prop_oneof![Just(ClockBound::Off), Just(ClockBound::StageFloor)]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any thread count × result-preserving prune strategy × bound kind
    /// × objective × slowdown bound reproduces the reference exploration
    /// bit for bit.
    #[test]
    fn engine_is_bit_identical_to_reference(
        threads in 1usize..=8,
        lb_prune in any::<bool>(),
        bound in arb_bound(),
        clock_bound in arb_clock_bound(),
        objective in arb_objective(),
        space in arb_space(),
        slowdown_pct in 101u32..=300,
        enforce_cost in any::<bool>(),
    ) {
        let (base, kernels, contexts) = fixture();
        let weights = vec![1.0; kernels.len()];
        let constraints = Constraints {
            enforce_cost_bound: enforce_cost,
            max_slowdown: slowdown_pct as f64 / 100.0,
        };
        let reference = explore_reference(
            base, kernels, contexts, &weights, &space, &constraints, objective,
        );
        let engine = explore_with(
            base, kernels, contexts, &weights, &space,
            &ExploreOptions {
                parallelism: Some(threads),
                prune: if lb_prune { PruneStrategy::LowerBound } else { PruneStrategy::None },
                bound,
                clock_bound,
                constraints,
                objective,
                cache: None,
                profiles: None,
                control: Default::default(),
                recorder: rsp_core::obs::global(),
            },
        );
        match (reference, engine) {
            (Ok(r), Ok(e)) => assert_bit_identical(&e, &r),
            (Err(r), Err(e)) => prop_assert_eq!(r, e),
            (r, e) => prop_assert!(false, "divergent outcomes: ref {:?} vs engine {:?}",
                r.map(|x| x.feasible.len()), e.map(|x| x.feasible.len())),
        }
    }

    /// Dominated pruning (with either bound kind, and with the
    /// area-ordered enumeration it enables) may shrink `feasible` but
    /// must preserve the streamed frontier — bit for bit, as a point
    /// sequence — and the selected optimum.
    #[test]
    fn dominated_pruning_preserves_frontier(
        threads in 1usize..=8,
        bound in arb_bound(),
        clock_bound in arb_clock_bound(),
        objective in arb_objective(),
        space in arb_space(),
    ) {
        let (base, kernels, contexts) = fixture();
        let weights = vec![1.0; kernels.len()];
        let reference = explore_reference(
            base, kernels, contexts, &weights, &space, &Constraints::default(), objective,
        ).unwrap();
        let engine = explore_with(
            base, kernels, contexts, &weights, &space,
            &ExploreOptions {
                parallelism: Some(threads),
                prune: PruneStrategy::Dominated,
                bound,
                clock_bound,
                constraints: Constraints::default(),
                objective,
                cache: None,
                profiles: None,
                control: Default::default(),
                recorder: rsp_core::obs::global(),
            },
        ).unwrap();
        let frontier = |r: &Exploration| -> Vec<(String, u64, u64)> {
            r.pareto_points()
                .map(|p| (p.arch.name().to_string(), p.area_slices.to_bits(), p.est_et_ns.to_bits()))
                .collect()
        };
        prop_assert_eq!(frontier(&reference), frontier(&engine));
        prop_assert_eq!(
            reference.best_point().arch.name(),
            engine.best_point().arch.name()
        );
        prop_assert_eq!(engine.stats.candidates_pruned, engine.pruned);
        prop_assert_eq!(engine.stats.candidates_seen, reference.stats.candidates_seen);
    }
}
