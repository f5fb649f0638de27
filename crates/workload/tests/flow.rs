//! End-to-end flow integration: registry workloads drive
//! `rsp_core::run_flow`, and the generated kernel families finally give
//! multi-geometry base-architecture exploration a reason to leave the
//! 4×4 array (the standing ROADMAP note this subsystem closes).

use rsp_core::{run_flow, AppProfile, Constraints, FlowConfig};
use rsp_workload::{generators, registry, SUITE_MAX_SLOWDOWN};

fn workload_apps() -> Vec<AppProfile> {
    vec![AppProfile::new(
        "generated-suite",
        registry().into_iter().map(|k| (k, 1)).collect(),
    )]
}

fn multi_geometry(parallelism: Option<usize>) -> FlowConfig {
    FlowConfig {
        coverage: 1.0,
        geometries: vec![(4, 4), (6, 6), (8, 8)],
        parallelism,
        // The paper's 1.5× cap (rationale on the constant): honest now
        // that the estimator is admissible.
        constraints: Constraints {
            enforce_cost_bound: true,
            max_slowdown: SUITE_MAX_SLOWDOWN,
        },
        ..FlowConfig::default()
    }
}

#[test]
fn workload_suite_selects_the_8x8_geometry() {
    // reduce8192x8x8 exceeds both the 4×4 and the 6×6 configuration
    // cache, so a genuinely multi-geometry exploration must land on the
    // paper's 8×8 — not because it was pinned.
    let report = run_flow(&workload_apps(), &multi_geometry(None)).unwrap();
    assert_eq!(report.base.geometry().rows(), 8);
    assert_eq!(report.base.geometry().cols(), 8);
    assert_eq!(report.stats.geometries_considered, 3);
    assert_eq!(report.stats.geometries_explored, 3);
    // The flow still finds a sharing design smaller than the base.
    assert!(report.area_slices < report.base_area_slices);
}

#[test]
fn serial_oracle_no_longer_early_exits_at_4x4() {
    // The serial geometry oracle walks geometries smallest-first and
    // stops at the first feasible one; with reduce8192x8x8 in the
    // profile it must walk straight through 4×4 and 6×6.
    let report = run_flow(&workload_apps(), &multi_geometry(Some(1))).unwrap();
    assert_eq!(report.stats.geometries_explored, 3);
    assert_eq!(report.base.geometry().pe_count(), 64);
}

#[test]
fn generated_families_escalate_geometry_stepwise() {
    // The intermediate escalation step: matmul11 overflows a 4×4 but
    // fits a 6×6; the big mult-free reduction overflows both.
    let apps = |k| vec![AppProfile::new("m", vec![(k, 1)])];
    let cfg = multi_geometry(None);
    let r12 = run_flow(&apps(generators::matmul(11)), &cfg).unwrap();
    assert_eq!(r12.base.geometry().pe_count(), 36);
    let big = run_flow(&apps(generators::reduction(8192, 8, 8)), &cfg).unwrap();
    assert_eq!(big.base.geometry().pe_count(), 64);
}

#[test]
fn workload_flow_charges_refill_instead_of_rejecting() {
    // With matmul16 in the suite, stall-heavy frontier candidates
    // rearrange schedules past the 256-deep cache. The flow must split
    // them (nonzero refill counters), fail only the honestly
    // unsplittable pipelined combinations, and still choose a design.
    let report = run_flow(&workload_apps(), &multi_geometry(None)).unwrap();
    assert!(
        report.stats.refill_segments > 0,
        "no exact rearrangement was split: {:?}",
        report.stats
    );
    assert!(report.stats.refill_stall_cycles > 0);
    // The chosen design's own contexts expose their plans.
    let split: Vec<_> = report
        .rsp_contexts
        .iter()
        .filter(|r| r.refill.is_split())
        .collect();
    for r in &split {
        assert_eq!(r.refill_stalls(), r.elapsed_cycles() - r.total_cycles);
    }
    // Perf rows carry the refill columns consistently.
    for (p, r) in report.perf.iter().zip(&report.rsp_contexts) {
        assert_eq!(p.refill_stalls, r.refill_stalls(), "{}", p.kernel);
        assert_eq!(p.refill_segments as usize, r.refill_count(), "{}", p.kernel);
        assert_eq!(p.cycles, r.elapsed_cycles(), "{}", p.kernel);
    }
}

#[test]
fn pruned_workload_flow_with_refill_is_bit_identical_to_unpruned() {
    // The satellite equivalence property on the refill-exercising
    // workload: Dominated pruning + the stage-floor clock cut + the
    // exact-stage objective-score cut must leave every flow output
    // bit-identical to the unpruned serial flow, refill penalties
    // included.
    use rsp_core::{BoundKind, ClockBound, PruneStrategy};
    let cfg = |prune, clock_bound, parallelism| FlowConfig {
        prune,
        clock_bound,
        parallelism,
        bound: BoundKind::PerRowResidual,
        ..multi_geometry(None)
    };
    let apps = workload_apps();
    let unpruned = run_flow(&apps, &cfg(PruneStrategy::None, ClockBound::Off, Some(1))).unwrap();
    let pruned = run_flow(
        &apps,
        &cfg(PruneStrategy::Dominated, ClockBound::StageFloor, None),
    )
    .unwrap();
    assert_eq!(unpruned.base.geometry(), pruned.base.geometry());
    assert_eq!(unpruned.contexts, pruned.contexts);
    assert_eq!(unpruned.chosen.name(), pruned.chosen.name());
    assert_eq!(unpruned.chosen.plan(), pruned.chosen.plan());
    assert_eq!(unpruned.rsp_contexts, pruned.rsp_contexts);
    for (a, b) in unpruned.perf.iter().zip(&pruned.perf) {
        assert_eq!(a.cycles, b.cycles, "{}", a.kernel);
        assert_eq!(a.et_ns.to_bits(), b.et_ns.to_bits(), "{}", a.kernel);
        assert_eq!(a.refill_stalls, b.refill_stalls, "{}", a.kernel);
        assert_eq!(a.refill_segments, b.refill_segments, "{}", a.kernel);
    }
    assert_eq!(unpruned.area_slices.to_bits(), pruned.area_slices.to_bits());
    // Both flows exercised the splitter (the unpruned one at least as
    // much — it rearranges every frontier candidate).
    assert!(pruned.stats.refill_segments > 0);
    assert!(unpruned.stats.refill_segments >= pruned.stats.refill_segments);
}

#[test]
fn matmul16_mapping_exceeds_4x4_and_6x6_capacity() {
    // Pure mapping capacity (no flow): matmul16's base schedule
    // overflows the 4×4 and 6×6 configuration caches and lands on 8×8.
    use rsp_arch::{ArrayGeometry, BaseArchitecture, BusSpec, PeDesign};
    use rsp_mapper::{map, MapError, MapOptions};
    let k = generators::matmul(16);
    let base = |r, c| {
        BaseArchitecture::new(
            ArrayGeometry::new(r, c),
            PeDesign::full(),
            BusSpec::paper_default(),
            256,
        )
    };
    for (r, c) in [(4, 4), (6, 6)] {
        let err = map(&base(r, c), &k, &MapOptions::default()).unwrap_err();
        assert!(
            matches!(err, MapError::ConfigCacheExceeded { .. }),
            "{r}x{c}"
        );
    }
    assert!(map(&base(8, 8), &k, &MapOptions::default()).is_ok());
}

/// A `dim × dim` base array whose cache is deep enough that no mapping
/// is rejected for depth.
fn deep_base(dim: usize) -> rsp_arch::BaseArchitecture {
    use rsp_arch::{ArrayGeometry, BaseArchitecture, BusSpec, PeDesign};
    BaseArchitecture::new(
        ArrayGeometry::new(dim, dim),
        PeDesign::full(),
        BusSpec::paper_default(),
        1 << 16,
    )
}

/// Asserts `cycle_floor ≤ total_cycles` for every context the mapper
/// accepts for `kernel` at 4×4, 6×6 and 8×8 in both mapping styles, and
/// that a cache one word short of the schedule fails with the exact
/// length while a cache of exactly that depth fits; returns how many
/// contexts were checked.
fn floor_holds(kernel: &rsp_kernel::Kernel) -> usize {
    use rsp_arch::BaseArchitecture;
    use rsp_kernel::MappingStyle;
    use rsp_mapper::{cycle_floor, map, MapError, MapOptions};
    let mut checked = 0;
    for dim in [4, 6, 8] {
        let base = deep_base(dim);
        for style in [MappingStyle::Lockstep, MappingStyle::Dataflow] {
            let opts = MapOptions {
                style: Some(style),
                ..MapOptions::default()
            };
            let Ok(ctx) = map(&base, kernel, &opts) else {
                continue;
            };
            let floor = cycle_floor(kernel, base.geometry());
            assert!(
                floor <= ctx.total_cycles() as usize,
                "{} at {dim}x{dim} ({style:?}): floor {floor} > {} cycles",
                kernel.name(),
                ctx.total_cycles()
            );
            let sized = |depth: u32| {
                let b = BaseArchitecture::new(
                    base.geometry(),
                    base.pe().clone(),
                    base.buses(),
                    depth as usize,
                );
                map(&b, kernel, &opts)
            };
            let total = ctx.total_cycles();
            assert_eq!(sized(total), Ok(ctx), "{} at {dim}x{dim}", kernel.name());
            assert_eq!(
                sized(total - 1).unwrap_err(),
                MapError::ConfigCacheExceeded {
                    needed: total,
                    available: total - 1
                },
                "{} at {dim}x{dim} ({style:?})",
                kernel.name()
            );
            checked += 1;
        }
    }
    checked
}

#[test]
fn cycle_floor_never_exceeds_an_accepted_schedule() {
    let kernels = rsp_kernel::suite::all().into_iter().chain(registry());
    let mut checked = 0;
    let mut kernel_count = 0;
    for kernel in kernels {
        checked += floor_holds(&kernel);
        kernel_count += 1;
    }
    // Every kernel maps in its preferred style at every size.
    assert!(checked >= 3 * kernel_count, "only {checked} contexts");
}

proptest::proptest! {
    #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]

    #[test]
    fn cycle_floor_never_exceeds_a_random_accepted_schedule(seed in proptest::prelude::any::<u64>()) {
        let kernel = rsp_workload::random_kernel(seed, &rsp_workload::RandomKernelConfig::default());
        floor_holds(&kernel);
    }
}

#[test]
fn cycle_floor_rejects_the_oversized_geometries_without_mapping() {
    // The geometries whose schedules overflow a 256-deep cache are
    // rejected by the floor alone, before any schedule is built.
    use rsp_arch::ArrayGeometry;
    use rsp_mapper::cycle_floor;
    let floor = |k: &rsp_kernel::Kernel, dim| cycle_floor(k, ArrayGeometry::new(dim, dim));
    let matmul16 = generators::matmul(16);
    assert!(floor(&matmul16, 4) > 256 && floor(&matmul16, 6) > 256);
    assert!(floor(&matmul16, 8) <= 256);
}
