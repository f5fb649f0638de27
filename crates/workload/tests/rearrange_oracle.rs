//! The dense rearrangement scheduler against its oracle: `rearrange`
//! must return exactly what `rearrange_reference` (the original
//! `HashMap`-driven scheduler) returns — the whole `Rearranged` value, or
//! the same error variant — on the paper suite, every committed workload
//! and seeded random DFGs, across the Table 4/5 architectures and the
//! paper design space, with row-bus enforcement off and on.
//!
//! Both schedulers order competing FIFO heads by `(element, step, node)`,
//! so the property also rests on that key being unique within a
//! context; the determinism test below pins it for every context the
//! mapper produces on the suite and the committed workloads.

use proptest::prelude::*;
use rsp_arch::{presets, ArrayGeometry, BaseArchitecture, BusSpec, PeDesign, RspArchitecture};
use rsp_core::{rearrange, rearrange_reference, DesignSpace, RearrangeOptions, RearrangeSkeleton};
use rsp_kernel::{suite, Kernel};
use rsp_mapper::{map, ConfigContext, MapOptions};
use rsp_workload::{random_kernel, registry, RandomKernelConfig};
use std::collections::HashSet;
use std::mem::discriminant;

/// Table 4/5 architectures plus every plan of the paper design space on
/// the 8×8 base.
fn architectures() -> Vec<RspArchitecture> {
    let base = presets::base_8x8();
    let mut archs = presets::table_architectures();
    for (i, plan) in DesignSpace::paper().plans().enumerate() {
        archs.push(
            RspArchitecture::new(format!("paper#{i}"), base.base_arc().clone(), plan).unwrap(),
        );
    }
    archs
}

const BUS_MODES: [RearrangeOptions; 2] = [
    RearrangeOptions {
        enforce_buses: false,
    },
    RearrangeOptions {
        enforce_buses: true,
    },
];

/// Checks one kernel on every architecture and bus mode; returns how
/// many comparisons ran (0 when the kernel does not map on 8×8).
fn check_kernel(kernel: &Kernel, archs: &[RspArchitecture]) -> usize {
    let Ok(ctx) = map(presets::base_8x8().base(), kernel, &MapOptions::default()) else {
        return 0;
    };
    let skeleton = RearrangeSkeleton::new(&ctx);
    let mut compared = 0;
    for arch in archs {
        for opts in &BUS_MODES {
            let what = format!("{} on {} ({opts:?})", kernel.name(), arch.name());
            let reference = rearrange_reference(&ctx, arch, opts);
            let dense = rearrange(&ctx, arch, opts);
            match (&reference, &dense) {
                (Ok(r), Ok(d)) => assert_eq!(d, r, "{what}"),
                (Err(r), Err(d)) => {
                    assert_eq!(discriminant(d), discriminant(r), "{what}: {d} vs {r}")
                }
                _ => panic!("{what}: dense {dense:?} vs reference {reference:?}"),
            }
            // A reused skeleton answers exactly like a fresh one.
            assert_eq!(skeleton.rearrange(arch, opts), dense, "{what} (reused)");
            compared += 1;
        }
    }
    compared
}

#[test]
fn dense_scheduler_matches_reference_on_the_paper_suite() {
    let archs = architectures();
    let compared: usize = suite::all().iter().map(|k| check_kernel(k, &archs)).sum();
    assert_eq!(compared, suite::all().len() * archs.len() * BUS_MODES.len());
}

#[test]
fn dense_scheduler_matches_reference_on_committed_workloads() {
    let archs = architectures();
    let compared: usize = registry().iter().map(|k| check_kernel(k, &archs)).sum();
    assert!(
        compared > archs.len() * BUS_MODES.len(),
        "only {compared} comparisons ran"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn dense_scheduler_matches_reference_on_random_workloads(seed in any::<u64>()) {
        let kernel = random_kernel(seed, &RandomKernelConfig::default());
        check_kernel(&kernel, &architectures());
    }
}

/// Every context the mapper produces for `kernel` at `rows × cols` (with
/// a cache deep enough that none is rejected for depth).
fn context_at(kernel: &Kernel, rows: usize, cols: usize) -> Option<ConfigContext> {
    let base = BaseArchitecture::new(
        ArrayGeometry::new(rows, cols),
        PeDesign::full(),
        BusSpec::paper_default(),
        1 << 16,
    );
    map(&base, kernel, &MapOptions::default()).ok()
}

#[test]
fn loop_iteration_order_is_total_within_every_context() {
    let mut checked = 0;
    for kernel in suite::all().into_iter().chain(registry()) {
        for dim in [4, 6, 8] {
            let Some(ctx) = context_at(&kernel, dim, dim) else {
                continue;
            };
            let mut seen = HashSet::with_capacity(ctx.instances().len());
            for inst in ctx.instances() {
                assert!(
                    seen.insert((inst.element, inst.step, inst.node)),
                    "{} at {dim}x{dim}: (element {}, step {}, node {}) repeats",
                    kernel.name(),
                    inst.element,
                    inst.step,
                    inst.node
                );
            }
            checked += 1;
        }
    }
    assert!(
        checked >= 3 * suite::all().len(),
        "only {checked} contexts checked"
    );
}
