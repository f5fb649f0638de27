//! Exact result counts of the exploration engine and the Fig. 7 flow on
//! the configurations the project has long tracked: the paper suite over
//! the extended, deep and 11,024-candidate deep100 spaces, the flow over
//! the paper suite plus a generated `matmul11` and over the committed
//! `workloads/` suite, the anytime layer's budget/fault/resume runs, and
//! the video app the server answers.
//!
//! One table row per configuration. Each row runs at one thread and on
//! every core, and every counter must match the table exactly — a
//! pruning, truncation, refill or geometry-selection change that moves
//! any of them fails here, whatever it does to the timings.
//! `bound_tightness` is compared bit for bit.

use rsp_arch::presets;
use rsp_core::{
    explore_reference, explore_resume, explore_with, run_flow, AppProfile, BoundKind, ClockBound,
    Constraints, DesignSpace, Exploration, ExploreControl, ExploreOptions, FlowConfig, FlowReport,
    Objective, PruneStrategy,
};
use rsp_kernel::{suite, Kernel};
use rsp_mapper::{map, ConfigContext, MapOptions};
use rsp_synth::{AreaModel, DelayModel, ModelCache};
use rsp_workload::{generators, registry, SUITE_MAX_SLOWDOWN};
use std::sync::{Arc, OnceLock};

/// The counters one row pins, in table-column order: selected base PE
/// count, feasible points, candidates seen, candidates pruned,
/// clock-bound cuts, rearrangements skipped, refill segments, refill
/// stall cycles, `bound_tightness` bits, faulted candidates, complete.
#[derive(Debug, PartialEq, Eq)]
struct Anchor(
    usize,
    usize,
    usize,
    usize,
    usize,
    usize,
    usize,
    u64,
    u64,
    usize,
    bool,
);

/// `bound_tightness` of a run that never pruned (no bound was compared).
const UNBOUNDED: u64 = 0.0f64.to_bits();
/// `bound_tightness` when the admissible bound equals the estimate.
const TIGHT: u64 = 1.0f64.to_bits();

/// An exploration, pinned to the 8×8 base (no flow-only counters).
fn explored(r: &Exploration) -> Anchor {
    let s = &r.stats;
    Anchor(
        64,
        r.feasible.len(),
        s.candidates_seen,
        s.candidates_pruned,
        s.clock_bound_cuts,
        0,
        0,
        0,
        s.bound_tightness.to_bits(),
        s.faulted,
        r.completeness.is_complete(),
    )
}

fn flowed(r: &FlowReport) -> Anchor {
    Anchor(
        r.base.geometry().pe_count(),
        r.exploration.feasible.len(),
        r.exploration.stats.candidates_seen,
        r.stats.candidates_pruned,
        r.stats.clock_bound_cuts,
        r.stats.rearrangements_skipped,
        r.stats.refill_segments,
        r.stats.refill_stall_cycles,
        r.exploration.stats.bound_tightness.to_bits(),
        r.stats.faulted,
        r.completeness.is_complete(),
    )
}

/// A pruning setup: `(prune, bound, clock_bound)`.
type Pruning = (PruneStrategy, BoundKind, ClockBound);

/// Estimate every candidate.
const UNPRUNED: Pruning = (
    PruneStrategy::None,
    BoundKind::PerRowResidual,
    ClockBound::Off,
);
/// Every frontier-preserving cut, with the per-row residual bound.
const PRUNED: Pruning = (
    PruneStrategy::Dominated,
    BoundKind::PerRowResidual,
    ClockBound::StageFloor,
);
/// The same cuts with the looser aggregate bound.
const PRUNED_AGGREGATE: Pruning = (
    PruneStrategy::Dominated,
    BoundKind::Aggregate,
    ClockBound::StageFloor,
);
/// The anytime runs' setup: only slowdown-violating candidates are
/// skipped, so a complete run keeps the full feasible set.
const LOWER_BOUND: Pruning = (
    PruneStrategy::LowerBound,
    BoundKind::PerRowResidual,
    ClockBound::StageFloor,
);

/// The paper suite mapped onto the 8×8 base, shared by every row.
fn fixture() -> &'static (Vec<Kernel>, Vec<ConfigContext>) {
    static FIXTURE: OnceLock<(Vec<Kernel>, Vec<ConfigContext>)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let kernels = suite::all();
        let contexts = kernels
            .iter()
            .map(|k| map(presets::base_8x8().base(), k, &MapOptions::default()).unwrap())
            .collect();
        (kernels, contexts)
    })
}

fn options(
    parallelism: Option<usize>,
    (prune, bound, clock_bound): Pruning,
    control: ExploreControl,
) -> ExploreOptions {
    ExploreOptions {
        parallelism,
        prune,
        bound,
        clock_bound,
        control,
        ..ExploreOptions::default()
    }
}

fn explore(space: &DesignSpace, opts: &ExploreOptions) -> Exploration {
    let (kernels, contexts) = fixture();
    let weights = vec![1.0; kernels.len()];
    let base = presets::base_8x8();
    explore_with(base.base(), kernels, contexts, &weights, space, opts).unwrap()
}

fn reference(space: &DesignSpace) -> Exploration {
    let (kernels, contexts) = fixture();
    let weights = vec![1.0; kernels.len()];
    let (constraints, objective) = (Constraints::default(), Objective::AreaDelayProduct);
    let base = presets::base_8x8();
    explore_reference(
        base.base(),
        kernels,
        contexts,
        &weights,
        space,
        &constraints,
        objective,
    )
    .unwrap()
}

/// The deep space under a candidate budget.
fn budgeted(parallelism: Option<usize>, budget: usize) -> Exploration {
    let control = ExploreControl::with_budget(budget);
    explore(
        &DesignSpace::deep(),
        &options(parallelism, LOWER_BOUND, control),
    )
}

/// Marker in the injected panic, so the muting hook hides only it.
const FAULT_MARKER: &str = "bench-anchors-injected-fault";

fn mute_injected_panics() {
    static HOOK: OnceLock<()> = OnceLock::new();
    HOOK.get_or_init(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let muted = info
                .payload()
                .downcast_ref::<String>()
                .is_some_and(|s| s.contains(FAULT_MARKER));
            if !muted {
                default(info);
            }
        }));
    });
}

/// The deep space with one feasible, non-frontier candidate's delay
/// synthesis panicking.
fn faulted(parallelism: Option<usize>) -> Exploration {
    mute_injected_panics();
    let clean = reference(&DesignSpace::deep());
    // The full sharing plan, not the name: deep-space names collide
    // across shared-FU kinds, and exactly one candidate must fault.
    let target = clean
        .feasible
        .iter()
        .enumerate()
        .find(|(i, _)| !clean.pareto.contains(i))
        .map(|(_, p)| p.arch.plan().clone())
        .unwrap();
    let delay = DelayModel::new().with_fault_hook(move |arch| {
        if *arch.plan() == target {
            panic!("{FAULT_MARKER}: {}", arch.name());
        }
    });
    let mut opts = options(parallelism, LOWER_BOUND, ExploreControl::default());
    opts.cache = Some(Arc::new(ModelCache::with_models(AreaModel::new(), delay)));
    explore(&DesignSpace::deep(), &opts)
}

/// The deep space truncated at half its candidates, checkpointed and
/// resumed to completion.
fn resumed(parallelism: Option<usize>) -> Exploration {
    let space = DesignSpace::deep();
    let checkpoint = budgeted(parallelism, space.plans().count() / 2).checkpoint();
    let (kernels, contexts) = fixture();
    let weights = vec![1.0; kernels.len()];
    let opts = options(parallelism, LOWER_BOUND, ExploreControl::default());
    let base = presets::base_8x8();
    explore_resume(
        base.base(),
        kernels,
        contexts,
        &weights,
        &space,
        &opts,
        &checkpoint,
    )
    .unwrap()
}

/// The paper suite plus the generated `matmul11`, which overflows the
/// 4×4 configuration cache, as one domain with every kernel critical.
fn suite_and_matmul11() -> Vec<AppProfile> {
    let mut kernels: Vec<_> = suite::all().into_iter().map(|k| (k, 1)).collect();
    kernels.push((generators::matmul(11), 1));
    vec![AppProfile::new("full-suite+generated", kernels)]
}

/// The committed workload suite as one domain; `reduce8192x8x8`
/// overflows the smaller arrays and `matmul16` needs cache refills.
fn workload_suite() -> Vec<AppProfile> {
    let kernels = registry().into_iter().map(|k| (k, 1)).collect();
    vec![AppProfile::new("generated-suite", kernels)]
}

/// The video app (FDCT, SAD-dominated motion search, inner-product
/// tail) the server's flow requests carry.
fn video() -> Vec<AppProfile> {
    let kernels = vec![
        (suite::fdct(), 99),
        (suite::sad(), 396),
        (suite::inner_product(), 64),
    ];
    vec![AppProfile::new("video", kernels)]
}

type Run = Box<dyn Fn(Option<usize>) -> Anchor>;

fn engine(space: fn() -> DesignSpace, pruning: Pruning) -> Run {
    Box::new(move |p| {
        let opts = options(p, pruning, ExploreControl::default());
        explored(&explore(&space(), &opts))
    })
}

/// The deep space under a budget of `percent` of its candidates.
fn budget(percent: usize) -> Run {
    Box::new(move |p| {
        let total = DesignSpace::deep().plans().count();
        explored(&budgeted(p, total * percent / 100))
    })
}

/// A flow with every kernel critical, under the cost bound and the
/// committed suite's slowdown cap (`SUITE_MAX_SLOWDOWN`, the paper's
/// 1.5×; the default the paper-suite flows would get anyway).
fn flow(
    apps: fn() -> Vec<AppProfile>,
    space: fn() -> DesignSpace,
    geometries: &'static [(usize, usize)],
    (prune, bound, clock_bound): Pruning,
) -> Run {
    Box::new(move |parallelism| {
        let config = FlowConfig {
            coverage: 1.0,
            geometries: geometries.to_vec(),
            space: space(),
            constraints: Constraints {
                enforce_cost_bound: true,
                max_slowdown: SUITE_MAX_SLOWDOWN,
            },
            parallelism,
            prune,
            bound,
            clock_bound,
            ..FlowConfig::default()
        };
        flowed(&run_flow(&apps(), &config).unwrap())
    })
}

/// A flow in the default configuration, as the server runs it.
fn default_flow(apps: fn() -> Vec<AppProfile>) -> Run {
    Box::new(move |parallelism| {
        let config = FlowConfig {
            parallelism,
            ..FlowConfig::default()
        };
        flowed(&run_flow(&apps(), &config).unwrap())
    })
}

/// Every row: what runs, and the counters it must reproduce.
#[rustfmt::skip]
fn rows() -> Vec<(&'static str, Run, Anchor)> {
    use DesignSpace as S;
    const ALL: &[(usize, usize)] = &[(4, 4), (6, 6), (8, 8)];
    let (t0, t1) = (UNBOUNDED, TIGHT);
    vec![
        // Anchor(base PEs, feasible, seen, pruned, clock cuts, rearrangements skipped,
        //        refill segments, refill stall cycles, tightness, faulted, complete)
        ("extended reference", Box::new(|_| explored(&reference(&S::extended()))),
                                      Anchor(64,     45,     48,      0,   0, 0, 0,  0, t0, 0, true)),
        ("extended unpruned", engine(S::extended, UNPRUNED),
                                      Anchor(64,     45,     48,      0,   0, 0, 0,  0, t0, 0, true)),
        ("extended pruned", engine(S::extended, PRUNED),
                                      Anchor(64,     45,     48,      0,   0, 0, 0,  0, t1, 0, true)),
        ("extended pruned, aggregate bound", engine(S::extended, PRUNED_AGGREGATE),
                                      Anchor(64,     45,     48,      0,   0, 0, 0,  0, t1, 0, true)),
        ("deep reference", Box::new(|_| explored(&reference(&S::deep()))),
                                      Anchor(64,    243,    480,      0,   0, 0, 0,  0, t0, 0, true)),
        ("deep unpruned", engine(S::deep, UNPRUNED),
                                      Anchor(64,    243,    480,      0,   0, 0, 0,  0, t0, 0, true)),
        ("deep pruned", engine(S::deep, PRUNED),
                                      Anchor(64,     56,    480,    195,   0, 0, 0,  0, t1, 0, true)),
        ("deep pruned, aggregate bound", engine(S::deep, PRUNED_AGGREGATE),
                                      Anchor(64,     56,    480,    195,   0, 0, 0,  0, t1, 0, true)),
        ("deep100 unpruned", engine(S::deep100, UNPRUNED),
                                      Anchor(64, 10_371, 11_024,      0,   0, 0, 0,  0, t0, 0, true)),
        ("deep100 pruned", engine(S::deep100, PRUNED),
                                      Anchor(64,     71, 11_024, 10_534, 162, 0, 0,  0, t1, 0, true)),
        ("deep, budget = every candidate", budget(100),
                                      Anchor(64,    243,    480,      8,   0, 0, 0,  0, t1, 0, true)),
        ("deep, budget 75 %", budget(75),
                                      Anchor(64,    207,    360,      8,   0, 0, 0,  0, t1, 0, false)),
        ("deep, budget 50 %", budget(50),
                                      Anchor(64,    155,    240,      4,   0, 0, 0,  0, t1, 0, false)),
        ("deep, budget 25 %", budget(25),
                                      Anchor(64,     87,    120,      0,   0, 0, 0,  0, t1, 0, false)),
        ("deep, one candidate faulted", Box::new(|p| explored(&faulted(p))),
                                      Anchor(64,    242,    480,      8,   0, 0, 0,  0, t1, 1, true)),
        ("deep, truncated at 50 % and resumed", Box::new(|p| explored(&resumed(p))),
                                      Anchor(64,    243,    480,      8,   0, 0, 0,  0, t1, 0, true)),
        ("flow-paper unpruned", flow(suite_and_matmul11, S::paper, ALL, UNPRUNED),
                                      Anchor(36,     11,     12,      0,   0, 0, 1, 30, t0, 0, true)),
        ("flow-paper pruned", flow(suite_and_matmul11, S::paper, ALL, PRUNED),
                                      Anchor(36,     11,     12,      1,   1, 0, 1, 30, t1, 0, true)),
        ("flow-deep unpruned", flow(suite_and_matmul11, S::deep, &[(8, 8)], UNPRUNED),
                                      Anchor(64,    242,    480,      0,   0, 0, 0,  0, t0, 0, true)),
        ("flow-deep pruned", flow(suite_and_matmul11, S::deep, &[(8, 8)], PRUNED),
                                      Anchor(64,     55,    480,    196,   1, 0, 0,  0, t1, 0, true)),
        ("flow-workload unpruned", flow(workload_suite, S::paper, ALL, UNPRUNED),
                                      Anchor(64,     10,     12,      0,   0, 0, 1, 94, t0, 0, true)),
        ("flow-workload pruned", flow(workload_suite, S::paper, ALL, PRUNED),
                                      Anchor(64,     10,     12,      2,   1, 0, 1, 94, t1, 0, true)),
        ("video flow, default configuration", default_flow(video),
                                      Anchor(64,     12,     12,      0,   0, 0, 0,  0, t1, 0, true)),
    ]
}

#[test]
fn every_anchor_holds_at_one_thread_and_on_every_core() {
    for (name, run, want) in rows() {
        for parallelism in [Some(1), None] {
            let got = run(parallelism);
            assert_eq!(got, want, "{name}, parallelism {parallelism:?}");
        }
    }
}

/// Dominated pruning on deep100 skips 95 % of the estimations, yet its
/// Pareto frontier is the unpruned sweep's, bit for bit.
#[test]
fn pruned_deep100_frontier_is_the_unpruned_one() {
    let frontier = |pruning| -> Vec<_> {
        let opts = options(None, pruning, ExploreControl::default());
        let r = explore(&DesignSpace::deep100(), &opts);
        r.pareto_points()
            .map(|p| {
                let bits = [p.area_slices, p.est_et_ns, p.clock_ns].map(f64::to_bits);
                (p.arch.name().to_string(), bits)
            })
            .collect()
    };
    let unpruned = frontier(UNPRUNED);
    assert!(!unpruned.is_empty());
    assert_eq!(frontier(PRUNED), unpruned);
}
