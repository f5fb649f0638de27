//! The dense simulator against its oracle: `simulate` and
//! `simulate_split` must return exactly what `simulate_reference` and
//! `simulate_split_reference` (the original `HashMap`-driven engine)
//! return — the whole `Result`: reports with their memory, counters and
//! recorded traces, and errors with their fields — on the paper suite,
//! every committed workload and seeded random DFGs, across the Table 4/5
//! architectures and the paper design space, with row-bus checking off
//! and on, unsplit and force-split, and on tampered schedules and
//! bindings that must fail.
//!
//! On the random kernels the reference engine's memory is also checked
//! against `rsp_kernel::evaluate`, so the evaluator and the simulator
//! oracles cross-check each other.

use proptest::prelude::*;
use rsp_arch::{presets, RspArchitecture, SharedResourceId};
use rsp_core::{rearrange, DesignSpace};
use rsp_kernel::{evaluate, suite, Bindings, Kernel, MemoryImage};
use rsp_mapper::{map, min_splittable_depth, split_schedule, ConfigContext, MapOptions};
use rsp_sim::{simulate, simulate_reference, simulate_split, simulate_split_reference, SimOptions};
use rsp_workload::{random_kernel, registry, RandomKernelConfig};

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

/// Bus checking off and on; the strict mode also records the trace.
const MODES: [SimOptions; 2] = [
    SimOptions {
        check_buses: false,
        record_trace: false,
    },
    SimOptions {
        check_buses: true,
        record_trace: true,
    },
];

/// One kernel's mapped context with its seeded input.
struct Case {
    kernel: Kernel,
    ctx: ConfigContext,
    input: MemoryImage,
    params: Bindings,
}

impl Case {
    fn new(kernel: Kernel) -> Option<Self> {
        let ctx = map(presets::base_8x8().base(), &kernel, &MapOptions::default()).ok()?;
        let input = MemoryImage::random(&kernel, 0x5EED);
        let params = Bindings::defaults(&kernel);
        Some(Self {
            kernel,
            ctx,
            input,
            params,
        })
    }

    /// Both engines on one unsplit `(schedule, bindings)` pair.
    fn compare(
        &self,
        arch: &RspArchitecture,
        schedule: &[u32],
        bindings: &[Option<SharedResourceId>],
        what: &str,
    ) {
        for opts in &MODES {
            let run = |engine: fn(_, _, _, _, _, _, _, _) -> _| {
                engine(
                    &self.ctx,
                    arch,
                    schedule,
                    bindings,
                    &self.kernel,
                    &self.input,
                    &self.params,
                    opts,
                )
            };
            assert_eq!(run(simulate), run(simulate_reference), "{what} ({opts:?})");
        }
    }

    /// Every comparison for one architecture; returns how many ran.
    fn check(&self, arch: &RspArchitecture) -> usize {
        let what = format!("{} on {}", self.kernel.name(), arch.name());
        let Ok(r) = rearrange(&self.ctx, arch, &Default::default()) else {
            return 0;
        };
        let mut compared = 0;

        // The rearranged schedule, unsplit and through its own plan.
        self.compare(arch, &r.cycles, &r.bindings, &what);
        compared += 1;
        compared += self.compare_split(arch, &r.cycles, &r.bindings, &r.refill, &what);

        // Forced split through a small cache.
        let lat = |i: usize| u32::from(arch.op_latency(self.ctx.instances()[i].op));
        if let Ok(depth) = min_splittable_depth(&self.ctx, &r.cycles, lat) {
            let depth = depth.max(r.total_cycles / 3).max(8);
            if depth < r.total_cycles {
                let plan = split_schedule(&self.ctx, &r.cycles, lat, depth).unwrap();
                assert!(plan.is_split(), "{what}");
                compared += self.compare_split(arch, &r.cycles, &r.bindings, &plan, &what);
            }
        }

        // Tampered schedule: a consumer pulled onto its producer's cycle.
        if let Some(victim) = self.ctx.instances().iter().find(|i| !i.preds.is_empty()) {
            let mut bad = r.cycles.clone();
            bad[victim.id.index()] = r.cycles[victim.preds[0].index()];
            self.compare(
                arch,
                &bad,
                &r.bindings,
                &format!("{what}, tampered schedule"),
            );
            compared += 1;
        }

        // Tampered bindings: stripped, and every bound operation moved to
        // the first bound one's resource (double issues and foreign rows).
        if let Some(first) = r.bindings.iter().flatten().next() {
            let stripped = vec![None; r.bindings.len()];
            self.compare(arch, &r.cycles, &stripped, &format!("{what}, stripped"));
            let piled: Vec<_> = r.bindings.iter().map(|b| b.map(|_| *first)).collect();
            self.compare(arch, &r.cycles, &piled, &format!("{what}, piled"));
            compared += 2;
        }
        compared
    }

    /// Both engines through `plan`; returns 1.
    fn compare_split(
        &self,
        arch: &RspArchitecture,
        schedule: &[u32],
        bindings: &[Option<SharedResourceId>],
        plan: &rsp_mapper::RefillPlan,
        what: &str,
    ) -> usize {
        for opts in &MODES {
            let run = |engine: fn(_, _, _, _, _, _, _, _, _) -> _| {
                engine(
                    &self.ctx,
                    arch,
                    schedule,
                    bindings,
                    plan,
                    &self.kernel,
                    &self.input,
                    &self.params,
                    opts,
                )
            };
            assert_eq!(
                run(simulate_split),
                run(simulate_split_reference),
                "{what}, split {} ways ({opts:?})",
                plan.segments().len()
            );
        }
        1
    }

    /// The base schedule on the base architecture, on both engines.
    fn check_base(&self) {
        let arch = presets::base_8x8();
        let bindings = vec![None; self.ctx.instances().len()];
        self.compare(&arch, self.ctx.cycles(), &bindings, self.kernel.name());
    }
}

/// Checks one kernel everywhere; returns how many comparisons ran (0
/// when the kernel does not map on 8×8).
fn check_kernel(kernel: Kernel, archs: &[RspArchitecture]) -> usize {
    let Some(case) = Case::new(kernel) else {
        return 0;
    };
    case.check_base();
    archs.iter().map(|arch| case.check(arch)).sum()
}

#[test]
fn dense_simulator_matches_reference_on_the_paper_suite() {
    let archs = architectures();
    let compared: usize = suite::all()
        .into_iter()
        .map(|k| check_kernel(k, &archs))
        .sum();
    assert!(
        compared >= 4 * suite::all().len() * archs.len(),
        "only {compared} comparisons ran"
    );
}

#[test]
fn dense_simulator_matches_reference_on_committed_workloads() {
    let archs = architectures();
    let compared: usize = registry()
        .into_iter()
        .map(|k| check_kernel(k, &archs))
        .sum();
    assert!(
        compared > 4 * archs.len(),
        "only {compared} comparisons ran"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn dense_simulator_matches_reference_on_random_workloads(seed in any::<u64>()) {
        let kernel = random_kernel(seed, &RandomKernelConfig::default());
        let archs = architectures();
        if let Some(case) = Case::new(kernel.clone()) {
            // The evaluator and the reference engine agree bit for bit.
            let expected = evaluate(&kernel, &case.input, &case.params).unwrap();
            for arch in &archs {
                let Ok(r) = rearrange(&case.ctx, arch, &Default::default()) else {
                    continue;
                };
                let report = simulate_reference(
                    &case.ctx,
                    arch,
                    &r.cycles,
                    &r.bindings,
                    &kernel,
                    &case.input,
                    &case.params,
                    &SimOptions::default(),
                )
                .unwrap();
                prop_assert_eq!(&report.memory, &expected);
            }
        }
        check_kernel(kernel, &archs);
    }
}

#[test]
fn a_far_cycle_matches_the_reference_without_a_per_cycle_table() {
    // One sink operation moved to cycle u32::MAX / 4: both engines run
    // it (the dense one falls back to a comparison sort for the issue
    // order instead of a table as long as the cycle span).
    let case = Case::new(suite::mvm()).unwrap();
    let arch = presets::rsp2();
    let r = rearrange(&case.ctx, &arch, &Default::default()).unwrap();
    let insts = case.ctx.instances();
    let sink = (0..insts.len())
        .rev()
        .find(|&i| {
            insts
                .iter()
                .all(|c| !c.preds.iter().any(|p| p.index() == i))
        })
        .unwrap();
    let mut far = r.cycles.clone();
    far[sink] = u32::MAX / 4;
    case.compare(&arch, &far, &r.bindings, "mvm with a far sink");
    let report = simulate(
        &case.ctx,
        &arch,
        &far,
        &r.bindings,
        &case.kernel,
        &case.input,
        &case.params,
        &SimOptions::default(),
    )
    .unwrap();
    assert!(report.cycles > u32::MAX / 4);
    let expected = evaluate(&case.kernel, &case.input, &case.params).unwrap();
    assert_eq!(report.memory, expected);
}

#[test]
fn an_absurd_bank_index_matches_the_reference() {
    // A binding naming bank index 2^40 of a reachable row: the dense
    // engine cannot index such a resource space and must answer exactly
    // like the reference engine.
    let case = Case::new(suite::matmul(8)).unwrap();
    let arch = presets::rs2();
    let r = rearrange(&case.ctx, &arch, &Default::default()).unwrap();
    let (i, res) = r
        .bindings
        .iter()
        .enumerate()
        .find_map(|(i, b)| b.map(|res| (i, res)))
        .unwrap();
    let far = match res {
        SharedResourceId::Row { kind, row, .. } => SharedResourceId::Row {
            kind,
            row,
            index: 1 << 40,
        },
        SharedResourceId::Col { kind, col, .. } => SharedResourceId::Col {
            kind,
            col,
            index: 1 << 40,
        },
    };
    let mut bindings = r.bindings.clone();
    bindings[i] = Some(far);
    case.compare(&arch, &r.cycles, &bindings, "matmul8 with a far bank");
}
