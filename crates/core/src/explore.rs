//! RSP design-space exploration (§4).
//!
//! Enumerates RSP parameter combinations — shared resource types, pipeline
//! depths, `shr`, `shc`, heterogeneous mixes — over a base architecture;
//! estimates hardware cost with eq. (2) and performance with the
//! admissible slack-aware stall estimate (see [`crate::estimate`]);
//! rejects points violating the cost/performance constraints; keeps the
//! Pareto frontier; and selects an optimum under a configurable
//! objective.
//!
//! # Engine architecture
//!
//! [`explore_with`] is a parallel, allocation-free engine; [`explore`] is
//! a thin compatibility wrapper over it, and [`explore_reference`] keeps
//! the original textbook serial implementation as the oracle the engine
//! is property-tested against (and the yardstick its speedups are
//! measured against). The engine differs from
//! the reference in *mechanics only* — its results are bit-identical:
//!
//! * **Shared base, no deep clones** — candidates hold the base array
//!   behind one `Arc` ([`rsp_arch::RspArchitecture::base_arc`]) instead
//!   of cloning geometry + PE + bus tables per plan.
//! * **Direct synthesis, memo only when shared** — every plan appears
//!   once per space, so a run-local memo can never hit. Without a
//!   caller cache the engine calls [`AreaModel::report`],
//!   [`DelayModel::clock_floor_ns`] and [`DelayModel::report`] at most
//!   once each per candidate. A [`rsp_synth::ModelCache`] passed via
//!   [`ExploreOptions::cache`] (as `Session` and `rsp-serve` do) is used
//!   instead: there plans repeat across calls, and a later exploration
//!   never re-synthesizes a plan an earlier one has seen.
//! * **Profiled demand, suffix tables** — each kernel's per-cycle
//!   demand for every shared kind in the space is profiled once into a
//!   word-packed bit-plane [`rsp_mapper::CycleDemand`] with precomputed
//!   slack suffix tables; a candidate's RS estimate is an
//!   O(non-empty cycles) sweep over those tables
//!   ([`crate::ContextProfile`]). Nothing of size
//!   `cycles × rows × cols` is ever allocated.
//! * **Deterministic parallel fan-out** — candidates are processed in
//!   fixed-size chunks ([`CHUNK`]). Each chunk fans out twice (phase A
//!   and the estimate phase) over the vendored rayon's persistent
//!   helper pool: the calling thread works alongside helpers spawned
//!   once per process, so a fan-out costs no thread spawn. Items are
//!   claimed from an atomic cursor and results land back **in
//!   enumeration order**, so the feasible set, Pareto frontier, and
//!   selected optimum are identical for any thread count, including
//!   `parallelism = Some(1)`.
//! * **Admissible pruning, bound-as-estimate reuse** — before full
//!   estimation, a candidate's weighted execution time is bounded from
//!   below by the slack-aware suffix floor
//!   ([`crate::ContextProfile::rs_stalls_lower_bound`]); the bound's
//!   strength is selectable via [`ExploreOptions::bound`]
//!   ([`BoundKind::PerRowResidual`], the default, adds the per-row and
//!   per-column residual terms and is bit-identical to the full
//!   estimate's exec floor — so for survivors the engine *adopts* the
//!   bound as the estimate instead of recomputing it, and pruning
//!   bookkeeping costs nothing extra even on spaces too small to prune).
//!   [`PruneStrategy::LowerBound`] (the default) skips candidates whose
//!   *lower bound* already violates `max_slowdown` — such candidates are
//!   provably rejected by the reference too (the bound is term-wise
//!   monotone under IEEE-754 rounding), so pruning never changes the
//!   result. [`PruneStrategy::Dominated`] additionally skips candidates
//!   whose lower bound is already strictly dominated by an accepted
//!   point; these can never join the Pareto frontier or be selected, but
//!   they do silently vanish from [`Exploration::feasible`] — hence
//!   opt-in.
//! * **Area-ordered enumeration** — under [`PruneStrategy::Dominated`]
//!   candidates are enumerated in ascending synthesized-area order
//!   (areas come from the area model alone, or from a shared
//!   [`ModelCache`] entry when one exists),
//!   so small, strong designs populate the frontier first and the
//!   dominated test starts cutting almost immediately instead of after
//!   most of the space has been estimated. The ordering pre-pass
//!   constructs each candidate's [`RspArchitecture`] exactly once and
//!   carries it (with its area report) through to estimation — the
//!   stream sorts *indices*, so no candidate is rebuilt downstream.
//! * **Pre-synthesis clock cut** — before a candidate's delay is
//!   synthesized, its execution time is floored using the admissible
//!   stage-structure clock bound ([`ClockBound::StageFloor`],
//!   [`DelayModel::clock_floor_ns`]) times the admissible
//!   cycle lower bound. A candidate whose *floored* time already
//!   violates `max_slowdown` is cut without ever paying for delay
//!   synthesis — the cheapest possible rejection, counted separately in
//!   [`PruneStats::clock_bound_cuts`]. Result-preserving for the same
//!   reason the lower-bound prune is: `est_et ≥ lb_et ≥ lb_floor_et`
//!   term-wise under IEEE-754 rounding.
//! * **Streaming frontier** — feasible points stream into a
//!   [`crate::ParetoFrontier`], which both answers the dominated-pruning
//!   queries in O(log frontier) and emits the final Pareto set
//!   incrementally. Its emission is proven (and property-tested)
//!   bit-identical to the batch [`pareto_indices`] sweep the reference
//!   performs — frontier *equality*, not merely equivalence — including
//!   the sweep's `1e-12` epsilon and NaN handling.
//! * **Anytime operation** — the sweep honours an
//!   [`ExploreControl`] (wall-clock deadline, candidate budget, external
//!   cancel flag), checked cooperatively before each candidate is pulled
//!   from the stream. A stopped run returns the prefix evaluated so far,
//!   tagged [`Exploration::completeness`]; see [`crate::control`] for
//!   the truncation-soundness argument. A truncated run can be
//!   serialized with [`Exploration::checkpoint`] and continued with
//!   [`explore_resume`] to the bit-identical complete result.
//! * **Panic isolation** — each candidate's parallel evaluation runs
//!   under `catch_unwind`; a candidate whose synthesis or estimation
//!   panics is counted in [`PruneStats::faulted`] and skipped instead of
//!   poisoning the whole sweep. Surviving results are unaffected: a
//!   faulted candidate contributes nothing, exactly as if it had been
//!   rejected.
//!
//! Pruning efficacy is observable: [`Exploration::stats`] reports
//! candidates seen/pruned and the measured mean tightness of the lower
//! bound against the full estimate ([`PruneStats`]).

use crate::control::{Completeness, ControlClock, ExploreControl, TruncationReason};
use crate::error::RspError;
use crate::estimate::{
    estimate_stalls_dense, refill_stall_estimate, BoundKind, ClockBound, ContextProfile,
};
use crate::frontier::{pareto_indices_of, ParetoFrontier};
use rayon::prelude::*;
use rsp_arch::{BaseArchitecture, FuKind, RspArchitecture, SharedGroup, SharingPlan};
use rsp_kernel::Kernel;
use rsp_mapper::ConfigContext;
use rsp_obs::{Recorder, Span, Value};
use rsp_synth::{AreaModel, AreaReport, DelayModel, DelayReport, ModelCache};
use serde::{Deserialize, Serialize};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// One kind's parameter ranges inside a heterogeneous sharing mix (see
/// [`DesignSpace::mixes`]): every `(stages, shr, shc)` combination of the
/// axis, plus the implicit "don't share this kind" option.
#[derive(Debug, Clone)]
pub struct MixAxis {
    /// The shared resource kind this axis varies.
    pub kind: FuKind,
    /// Candidate pipeline depths (1 = RS only; ≥2 = RSP).
    pub stages: Vec<u8>,
    /// Candidate `shr` values (shared resources per row).
    pub shr: Vec<usize>,
    /// Candidate `shc` values (shared resources per column).
    pub shc: Vec<usize>,
}

/// The RSP parameter ranges to enumerate.
#[derive(Debug, Clone)]
pub struct DesignSpace {
    /// Candidate shared resource kinds (the paper shares the multiplier).
    /// Combined with `stages`/`shr`/`shc` into single-group plans.
    pub shared_kinds: Vec<FuKind>,
    /// Candidate pipeline depths (1 = RS only; ≥2 = RSP).
    pub stages: Vec<u8>,
    /// Candidate `shr` values (shared resources per row).
    pub shr: Vec<usize>,
    /// Candidate `shc` values (shared resources per column).
    pub shc: Vec<usize>,
    /// Heterogeneous mixes: each mix is a set of per-kind axes whose
    /// cross product (including each axis's "unshared" option, minus the
    /// all-unshared plan) is enumerated as multi-group plans on top of
    /// the single-kind grid above. Empty for the single-kind spaces.
    pub mixes: Vec<Vec<MixAxis>>,
}

impl DesignSpace {
    /// The paper's evaluated space: multiplier sharing with the four
    /// Fig. 8 configurations, combinational or 2-stage.
    pub fn paper() -> Self {
        Self {
            shared_kinds: vec![FuKind::Multiplier],
            stages: vec![1, 2],
            shr: vec![1, 2],
            shc: vec![0, 1, 2],
            mixes: vec![],
        }
    }

    /// A wider space for ablation studies.
    pub fn extended() -> Self {
        Self {
            shared_kinds: vec![FuKind::Multiplier],
            stages: vec![1, 2, 3, 4],
            shr: vec![1, 2, 3],
            shc: vec![0, 1, 2, 3],
            mixes: vec![],
        }
    }

    /// A deep space stressing the engine: every sharable kind, pipeline
    /// depths up to the template's maximum of 8, and wide bank ranges —
    /// the SHP-style deep-pipelining sweep the 12-point paper grid only
    /// hints at. Enumerates lazily under the result-preserving prune
    /// strategies; [`PruneStrategy::Dominated`] materializes the plan
    /// list once to sort candidates by synthesized area.
    pub fn deep() -> Self {
        Self {
            shared_kinds: vec![FuKind::Multiplier, FuKind::Alu, FuKind::Shifter],
            stages: vec![1, 2, 3, 4, 5, 6, 7, 8],
            shr: vec![1, 2, 3, 4],
            shc: vec![0, 1, 2, 3, 4],
            mixes: vec![],
        }
    }

    /// The `deep × 100`-class space (ROADMAP item 2): one heterogeneous
    /// mix over all three sharable kinds, enumerating every combination
    /// of multiplier, ALU, and shifter sharing — including leaving any
    /// subset unshared — as multi-group plans. 11 024 candidates
    /// (49 × 25 × 9 − 1), ~23× [`deep`](Self::deep) and ~900× the
    /// 12-point paper grid. Built to stress the admissible slack-aware
    /// bound: most mixes share the near-saturated ALU or shifter and are
    /// provably hopeless from their lower bound alone, so the pruned
    /// engine should skip well over half the space while staying
    /// frontier-bit-identical to the unpruned sweep.
    pub fn deep100() -> Self {
        Self {
            shared_kinds: vec![],
            stages: vec![],
            shr: vec![],
            shc: vec![],
            mixes: vec![vec![
                MixAxis {
                    kind: FuKind::Multiplier,
                    stages: vec![1, 2, 3, 4],
                    shr: vec![1, 2, 3, 4],
                    shc: vec![0, 1, 2],
                },
                MixAxis {
                    kind: FuKind::Alu,
                    stages: vec![1, 2],
                    shr: vec![1, 2, 3, 4],
                    shc: vec![0, 1, 2],
                },
                MixAxis {
                    kind: FuKind::Shifter,
                    stages: vec![1, 2],
                    shr: vec![1, 2],
                    shc: vec![0, 1],
                },
            ]],
        }
    }

    /// Every shared kind any plan of this space can contain: the
    /// single-kind grid's kinds plus every mix axis's kind, first-seen
    /// order, deduplicated. This is the kind set kernel profiles must
    /// cover so any enumerated plan can be bounded and estimated.
    pub fn kinds_used(&self) -> Vec<FuKind> {
        let mut kinds: Vec<FuKind> = Vec::new();
        let axis_kinds = self.mixes.iter().flatten().map(|a| a.kind);
        for kind in self.shared_kinds.iter().copied().chain(axis_kinds) {
            if !kinds.contains(&kind) {
                kinds.push(kind);
            }
        }
        kinds
    }

    /// Lazily enumerates every sharing plan in the space: the
    /// single-kind grid (one shared group per plan), then each mix's
    /// cross product as multi-group plans. Invalid parameter
    /// combinations (e.g. pipeline stages on a non-pipelinable kind, or
    /// a kind repeated within one mix) are skipped.
    pub fn plans(&self) -> impl Iterator<Item = SharingPlan> + '_ {
        let grid = self.shared_kinds.iter().flat_map(move |&kind| {
            valid_groups(kind, &self.stages, &self.shr, &self.shc)
                .into_iter()
                // Single-group plans never collide.
                .map(|g| SharingPlan::none().with_group(g).expect("single group"))
        });
        let mixed = self.mixes.iter().flat_map(|mix| {
            // Per-axis options: slot 0 is "unshared", the rest are the
            // axis's valid (stages, shr, shc) groups. The tiny option
            // tables are materialized up front; the (possibly huge)
            // cross product stays a lazy mixed-radix index walk.
            let axes: Vec<Vec<Option<SharedGroup>>> = mix
                .iter()
                .map(|axis| {
                    let groups = valid_groups(axis.kind, &axis.stages, &axis.shr, &axis.shc);
                    std::iter::once(None)
                        .chain(groups.into_iter().map(Some))
                        .collect()
                })
                .collect();
            let total: usize = axes.iter().map(Vec::len).product();
            // Index 0 decodes to every axis unshared (the base plan);
            // every index ≥ 1 yields at least one shared group.
            (1..total).filter_map(move |index| {
                let mut plan = SharingPlan::none();
                let mut rest = index;
                for options in &axes {
                    let pick = rest % options.len();
                    rest /= options.len();
                    if let Some(g) = options[pick] {
                        plan = plan.with_group(g).ok()?;
                    }
                }
                Some(plan)
            })
        });
        grid.chain(mixed)
    }

    /// Number of plans [`plans`](Self::plans) yields, counted from the
    /// per-axis option tables without constructing any plan.
    ///
    /// A mix plan is invalid when two shared axes have the same kind, so
    /// per kind the choices are "every axis of this kind unshared" or
    /// "exactly one of them shared"; the product of those counts, minus
    /// the all-unshared base plan, is the mix's size.
    pub fn candidate_count(&self) -> usize {
        let grid: usize = self
            .shared_kinds
            .iter()
            .map(|&kind| valid_groups(kind, &self.stages, &self.shr, &self.shc).len())
            .sum();
        let mixed: usize = self
            .mixes
            .iter()
            .map(|mix| {
                let mut choices: Vec<(FuKind, usize)> = Vec::new();
                for axis in mix {
                    let groups = valid_groups(axis.kind, &axis.stages, &axis.shr, &axis.shc);
                    match choices.iter_mut().find(|(kind, _)| *kind == axis.kind) {
                        Some((_, n)) => *n += groups.len(),
                        None => choices.push((axis.kind, 1 + groups.len())),
                    }
                }
                choices.iter().map(|&(_, n)| n).product::<usize>() - 1
            })
            .sum();
        grid + mixed
    }
}

/// The valid shared groups of one kind over a `(stages, shr, shc)` grid,
/// in enumeration order.
fn valid_groups(kind: FuKind, stages: &[u8], shr: &[usize], shc: &[usize]) -> Vec<SharedGroup> {
    let mut groups = Vec::new();
    for &stages in stages {
        for &shr in shr {
            for &shc in shc {
                if let Ok(g) = SharedGroup::new(kind, shr, shc, stages) {
                    groups.push(g);
                }
            }
        }
    }
    groups
}

/// Constraints applied before Pareto filtering.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Constraints {
    /// Require eq. (2): `HWcost < n·m·PE` (reject designs costlier than
    /// the base array).
    pub enforce_cost_bound: bool,
    /// Reject designs whose estimated weighted execution time exceeds
    /// `max_slowdown ×` the base architecture's (e.g. 1.5 = at most 50 %
    /// slower).
    pub max_slowdown: f64,
}

impl Default for Constraints {
    fn default() -> Self {
        Self {
            enforce_cost_bound: true,
            max_slowdown: 1.5,
        }
    }
}

/// Selection objective among Pareto points.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Objective {
    /// Minimize `area × weighted execution time` (the balanced choice).
    AreaDelayProduct,
    /// Minimize weighted execution time.
    ExecutionTime,
    /// Minimize area.
    Area,
}

/// How aggressively [`explore_with`] may skip full estimation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum PruneStrategy {
    /// Estimate every candidate (maximum-fidelity baseline behaviour).
    None,
    /// Skip candidates whose admissible execution-time lower bound
    /// already violates `max_slowdown`. Provably result-preserving:
    /// every skipped candidate would have been rejected anyway.
    #[default]
    LowerBound,
    /// Additionally skip candidates whose `(area, lower-bound time)` is
    /// strictly dominated by an already-accepted point. Such candidates
    /// can never enter the Pareto frontier or be selected as `best`, but
    /// they are dropped from [`Exploration::feasible`] — opt in when only
    /// the frontier matters.
    Dominated,
}

/// Options for [`explore_with`].
#[derive(Debug, Clone)]
pub struct ExploreOptions {
    /// Worker threads for candidate evaluation. `None` uses every
    /// available core; `Some(1)` runs in-thread. Results are identical
    /// either way.
    pub parallelism: Option<usize>,
    /// Pruning aggressiveness (default [`PruneStrategy::LowerBound`]).
    pub prune: PruneStrategy,
    /// Strength of the admissible execution-time lower bound pruning
    /// works with (default [`BoundKind::PerRowResidual`], the tighter
    /// one). Either kind is result-preserving; the knob exists so the
    /// aggregate bound stays measurable as a baseline.
    pub bound: BoundKind,
    /// Whether to consult the admissible stage-structure clock floor
    /// before delay synthesis (default [`ClockBound::StageFloor`]).
    /// Candidates whose floored execution time already violates
    /// `max_slowdown` are cut without synthesizing their clock; both
    /// settings are result-preserving, the knob keeps the no-floor
    /// baseline measurable. Only consulted when `prune` is not
    /// [`PruneStrategy::None`].
    pub clock_bound: ClockBound,
    /// Feasibility constraints.
    pub constraints: Constraints,
    /// Selection objective.
    pub objective: Objective,
    /// Synthesis-report memo to use. Pass one shared [`ModelCache`] when
    /// exploring overlapping spaces repeatedly (every plan is synthesized
    /// exactly once across all runs that share it); `None` calls the
    /// area and delay models directly, once per candidate — a space
    /// lists each plan once, so a run-local memo would never hit.
    pub cache: Option<Arc<ModelCache>>,
    /// Kernel-profile memo to use. Pass one shared
    /// [`ProfileCache`](crate::ProfileCache) when exploring the same
    /// kernels repeatedly (each `(context, kernel)` pair is profiled
    /// exactly once across all runs that share it); `None` profiles
    /// fresh per run. Profiling is pure, so results are unaffected.
    pub profiles: Option<Arc<crate::ProfileCache>>,
    /// Run budget and cooperative cancellation (default: unlimited).
    /// When a deadline, candidate budget, or external cancel stops the
    /// sweep early, the result is an anytime prefix tagged
    /// [`Exploration::completeness`]; see [`crate::control`].
    pub control: ExploreControl,
    /// Recorder phase spans and prune decisions are reported to.
    /// Defaults to [`rsp_obs::global`] **at construction time** (install
    /// a global before building options to observe this run). Purely
    /// observational: results are bit-identical whatever is attached,
    /// and the default [`rsp_obs::NullRecorder`] skips even clock reads.
    pub recorder: Arc<dyn Recorder>,
}

impl Default for ExploreOptions {
    fn default() -> Self {
        Self {
            parallelism: None,
            prune: PruneStrategy::default(),
            bound: BoundKind::default(),
            clock_bound: ClockBound::default(),
            constraints: Constraints::default(),
            objective: Objective::AreaDelayProduct,
            cache: None,
            profiles: None,
            control: ExploreControl::default(),
            recorder: rsp_obs::global(),
        }
    }
}

/// Pruning efficacy counters of one exploration (see
/// [`Exploration::stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct PruneStats {
    /// Candidate plans enumerated from the design space (including ones
    /// later rejected by constraints).
    pub candidates_seen: usize,
    /// Candidates whose full estimation was skipped — by the lower-bound
    /// slowdown test or, under [`PruneStrategy::Dominated`], the
    /// dominated-candidate test.
    pub candidates_pruned: usize,
    /// Mean of `lower_bound_et / estimated_et` over the candidates that
    /// *were* fully estimated (1.0 = the bound is exact; 0.0 when
    /// pruning was disabled, so no bounds were computed).
    pub bound_tightness: f64,
    /// Subset of `candidates_pruned` cut by the stage-structure clock
    /// floor ([`ClockBound::StageFloor`]) *before* delay synthesis —
    /// these candidates never paid for a delay report at all.
    pub clock_bound_cuts: usize,
    /// Candidates whose evaluation panicked (isolated by
    /// `catch_unwind`) and were skipped instead of aborting the sweep.
    pub faulted: usize,
}

/// One evaluated candidate.
#[derive(Debug, Clone)]
pub struct DesignPoint {
    /// The candidate architecture.
    pub arch: RspArchitecture,
    /// Synthesized area (slices).
    pub area_slices: f64,
    /// Clock period (ns).
    pub clock_ns: f64,
    /// Estimated cycles per kernel (the admissible slack-aware
    /// estimate; never exceeds the exact rearranged schedule's elapsed
    /// cycles), kernel order of the exploration input.
    pub est_cycles: Vec<u32>,
    /// Weighted estimated execution time (ns).
    pub est_et_ns: f64,
    /// Whether eq. (2)'s cost bound holds.
    pub cost_bound_ok: bool,
}

/// Exploration output.
#[derive(Debug, Clone)]
pub struct Exploration {
    /// Every candidate that passed the constraints.
    pub feasible: Vec<DesignPoint>,
    /// Indices into `feasible` forming the (area, time) Pareto frontier,
    /// sorted by area.
    pub pareto: Vec<usize>,
    /// Index into `feasible` of the selected optimum. `usize::MAX` when
    /// a truncated run has no feasible point yet — use
    /// [`try_best_point`](Self::try_best_point) when the run may have
    /// been truncated.
    pub best: usize,
    /// Weighted estimated execution time of the base architecture (ns).
    pub base_et_ns: f64,
    /// Candidates whose full estimation was skipped by pruning
    /// (equals `stats.candidates_pruned`; kept as a convenience).
    pub pruned: usize,
    /// Pruning efficacy counters.
    pub stats: PruneStats,
    /// Whether the whole candidate stream was processed, or the sweep
    /// stopped early under its [`ExploreControl`].
    pub completeness: Completeness,
    /// `(Σ lb_et/est_et, count)` accumulator behind
    /// `stats.bound_tightness`, kept exactly so checkpoints restore the
    /// bit-identical accumulator state.
    pub(crate) tightness: (f64, usize),
    /// Fingerprint of the options/space this result was computed under,
    /// embedded in checkpoints and validated by [`explore_resume`].
    pub(crate) fingerprint: EngineFingerprint,
}

impl Exploration {
    /// The selected design point.
    ///
    /// # Panics
    ///
    /// When a truncated run found no feasible point yet (`best` is
    /// `usize::MAX`); use [`try_best_point`](Self::try_best_point) then.
    pub fn best_point(&self) -> &DesignPoint {
        &self.feasible[self.best]
    }

    /// The selected design point, or `None` when a truncated run has no
    /// feasible point yet.
    pub fn try_best_point(&self) -> Option<&DesignPoint> {
        self.feasible.get(self.best)
    }

    /// The Pareto-frontier points, smallest area first.
    pub fn pareto_points(&self) -> impl Iterator<Item = &DesignPoint> {
        self.pareto.iter().map(|&i| &self.feasible[i])
    }

    /// Serializes this result's resumable state: the evaluated feasible
    /// prefix (plans plus their estimates), the enumeration cursor, the
    /// pruning counters, and a fingerprint of the options/space. Feed it
    /// to [`explore_resume`] — with the same inputs and options — to
    /// continue a truncated run to the bit-identical complete result.
    ///
    /// All recorded floats are finite in practice and survive a
    /// `serde_json` round trip bit-exactly (shortest-round-trip float
    /// formatting).
    pub fn checkpoint(&self) -> ExploreCheckpoint {
        ExploreCheckpoint {
            version: CHECKPOINT_VERSION,
            fingerprint: self.fingerprint,
            cursor: self.stats.candidates_seen,
            base_et_ns: self.base_et_ns,
            candidates_pruned: self.stats.candidates_pruned,
            clock_bound_cuts: self.stats.clock_bound_cuts,
            faulted: self.stats.faulted,
            tightness_sum: self.tightness.0,
            tightness_count: self.tightness.1,
            points: self
                .feasible
                .iter()
                .map(|p| CheckpointPoint {
                    name: p.arch.name().to_string(),
                    plan: p.arch.plan().clone(),
                    area_slices: p.area_slices,
                    clock_ns: p.clock_ns,
                    est_cycles: p.est_cycles.clone(),
                    est_et_ns: p.est_et_ns,
                    cost_bound_ok: p.cost_bound_ok,
                })
                .collect(),
        }
    }
}

/// Checkpoint schema version, bumped on incompatible layout changes.
const CHECKPOINT_VERSION: u32 = 1;

/// Fingerprint of everything that shapes candidate enumeration and
/// evaluation. A checkpoint embeds one; [`explore_resume`] refuses to
/// continue under options or a space that fingerprint differently.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub(crate) struct EngineFingerprint {
    pub(crate) prune: PruneStrategy,
    pub(crate) bound: BoundKind,
    pub(crate) clock_bound: ClockBound,
    pub(crate) objective: Objective,
    pub(crate) constraints: Constraints,
    pub(crate) candidates_total: usize,
}

impl EngineFingerprint {
    fn of(options: &ExploreOptions, candidates_total: usize) -> Self {
        Self {
            prune: options.prune,
            bound: options.bound,
            clock_bound: options.clock_bound,
            objective: options.objective,
            constraints: options.constraints,
            candidates_total,
        }
    }
}

/// One feasible point recorded in a checkpoint: the plan (the
/// architecture is rebuilt on resume) plus its evaluated estimates.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct CheckpointPoint {
    name: String,
    plan: SharingPlan,
    area_slices: f64,
    clock_ns: f64,
    est_cycles: Vec<u32>,
    est_et_ns: f64,
    cost_bound_ok: bool,
}

/// A serializable snapshot of a (possibly truncated) exploration:
/// the feasible prefix, the enumeration cursor, and an options
/// fingerprint. Produced by [`Exploration::checkpoint`], consumed by
/// [`explore_resume`]. Serializes with serde (`rsp-cli anytime` writes it
/// as JSON).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ExploreCheckpoint {
    version: u32,
    fingerprint: EngineFingerprint,
    cursor: usize,
    base_et_ns: f64,
    candidates_pruned: usize,
    clock_bound_cuts: usize,
    faulted: usize,
    tightness_sum: f64,
    tightness_count: usize,
    points: Vec<CheckpointPoint>,
}

impl ExploreCheckpoint {
    /// Candidates already processed (the enumeration cursor a resumed
    /// run continues from).
    pub fn cursor(&self) -> usize {
        self.cursor
    }

    /// Total candidates in the recorded design space.
    pub fn candidates_total(&self) -> usize {
        self.fingerprint.candidates_total
    }

    /// Whether the recorded run had already processed every candidate
    /// (resuming is then a no-op that returns the complete result).
    pub fn is_complete(&self) -> bool {
        self.cursor >= self.fingerprint.candidates_total
    }
}

/// Explores `space` for the given kernels (with execution-frequency
/// weights) over `base`, using the parallel engine with default options.
///
/// `contexts` must be the kernels' initial configuration contexts on
/// `base`, in the same order as `kernels`.
///
/// # Errors
///
/// [`RspError::NoFeasibleDesign`] when every candidate violates the
/// constraints.
///
/// # Examples
///
/// ```
/// use rsp_arch::presets;
/// use rsp_core::{explore, Constraints, DesignSpace, Objective};
/// use rsp_kernel::suite;
/// use rsp_mapper::{map, MapOptions};
///
/// let base = presets::base_8x8();
/// let kernels: Vec<_> = suite::all();
/// let contexts: Vec<_> = kernels
///     .iter()
///     .map(|k| map(base.base(), k, &MapOptions::default()).unwrap())
///     .collect();
/// let weights = vec![1.0; kernels.len()];
///
/// let result = explore(
///     base.base(),
///     &kernels,
///     &contexts,
///     &weights,
///     &DesignSpace::paper(),
///     &Constraints::default(),
///     Objective::AreaDelayProduct,
/// )?;
/// // The paper's conclusion: a pipelined (RSP) design wins.
/// assert!(result.best_point().arch.plan().has_pipelining());
/// # Ok::<(), rsp_core::RspError>(())
/// ```
#[allow(clippy::too_many_arguments)]
pub fn explore(
    base: &BaseArchitecture,
    kernels: &[Kernel],
    contexts: &[ConfigContext],
    weights: &[f64],
    space: &DesignSpace,
    constraints: &Constraints,
    objective: Objective,
) -> Result<Exploration, RspError> {
    explore_with(
        base,
        kernels,
        contexts,
        weights,
        space,
        &ExploreOptions {
            constraints: *constraints,
            objective,
            ..ExploreOptions::default()
        },
    )
}

/// Fixed chunk size of the deterministic pipeline. Prune decisions for a
/// candidate may depend on results of *earlier chunks only*, and the
/// chunk size is a constant (never derived from the thread count), so
/// every `parallelism` setting takes identical decisions.
const CHUNK: usize = 64;

/// One candidate entering the evaluation pipeline.
enum Seed {
    /// Lazy enumeration order: the architecture is constructed in
    /// phase A.
    Plan(SharingPlan),
    /// Prebuilt by the Dominated area-ordering pre-pass, carried through
    /// (with its area report) so phase A never constructs the same
    /// candidate twice.
    Built(Box<RspArchitecture>, AreaReport),
    /// Invalid parameter combination found by the pre-pass; rejected in
    /// phase A exactly like the lazy path would reject it.
    Invalid,
}

/// Where one run's synthesis reports come from — the one place the
/// engine and the flow's exact stage choose between the caller's memo
/// and the Table 1 models.
pub(crate) enum Synth<'a> {
    /// The caller's memo, shared across runs (a `Session` or server):
    /// plans repeat across calls, so hits pay there.
    Shared(&'a ModelCache),
    /// The Table 1 models, called once per candidate. Every plan appears
    /// once per space, so a run-local memo could never hit; hashing and
    /// locking a key would only add to each miss.
    Direct(AreaModel, DelayModel),
}

impl<'a> Synth<'a> {
    /// The shared memo when the caller passes one, else the models.
    pub(crate) fn new(cache: Option<&'a ModelCache>) -> Self {
        match cache {
            Some(cache) => Self::Shared(cache),
            None => Self::Direct(AreaModel::new(), DelayModel::new()),
        }
    }

    fn area(&self, arch: &RspArchitecture) -> AreaReport {
        match self {
            Self::Shared(cache) => cache.area_report(arch),
            Self::Direct(area, _) => area.report(arch),
        }
    }

    /// Admissible clock floor from the stage structure.
    fn clock_floor(&self, arch: &RspArchitecture) -> f64 {
        match self {
            Self::Shared(cache) => cache.clock_floor(arch),
            Self::Direct(_, delay) => delay.clock_floor_ns(arch.plan()),
        }
    }

    pub(crate) fn delay(&self, arch: &RspArchitecture) -> DelayReport {
        match self {
            Self::Shared(cache) => cache.reports(arch).1,
            Self::Direct(_, delay) => delay.report(arch),
        }
    }
}

/// Phase-A verdict on one candidate. The `Ready` payload is
/// `(arch, area, clock, cost_ok, lb_cycles, lb_et)`; the lower bound
/// rides along so the merge phase can measure its tightness against the
/// full estimate — and, when the bound *is* the estimate (see
/// [`reuses_bound_as_estimate`]), so phase C can adopt it outright.
enum Prepared {
    /// Survived the pre-synthesis checks; clock synthesized.
    Ready(RspArchitecture, f64, f64, bool, Vec<u32>, f64),
    /// The stage-floor clock bound alone proves the candidate violates
    /// `max_slowdown`; its delay was never synthesized.
    ClockCut,
    /// Construction failed or the eq. (2) cost bound rejects it — the
    /// reference rejects it too.
    Reject,
    /// The candidate's synthesis panicked; isolated by `catch_unwind`
    /// and counted in [`PruneStats::faulted`].
    Faulted,
}

/// Serial-screen verdict on one prepared candidate.
enum Screen {
    /// Estimate fully (or adopt the carried bound as the estimate).
    Evaluate(RspArchitecture, f64, f64, bool, Vec<u32>, f64),
    /// Provably infeasible or dominated; skip silently.
    Prune,
    /// Fails a hard constraint the reference also applies pre-push.
    Reject,
}

/// Phase-C outcome for one screened candidate.
enum Evaluated {
    /// Fully estimated, with its lower bound for the tightness stat.
    Point(Box<DesignPoint>, f64),
    /// Was pruned or rejected upstream; nothing to merge.
    Skipped,
    /// The candidate's estimation panicked; isolated by `catch_unwind`
    /// and counted in [`PruneStats::faulted`].
    Faulted,
}

/// The parallel exploration engine. See the module docs for the
/// guarantees; [`explore`] forwards here.
///
/// # Errors
///
/// [`RspError::NoFeasibleDesign`] when every candidate violates the
/// constraints.
///
/// # Examples
///
/// ```
/// use rsp_arch::presets;
/// use rsp_core::{explore_with, DesignSpace, ExploreOptions};
/// use rsp_kernel::suite;
/// use rsp_mapper::{map, MapOptions};
///
/// let base = presets::base_8x8();
/// let kernels: Vec<_> = suite::all();
/// let contexts: Vec<_> = kernels
///     .iter()
///     .map(|k| map(base.base(), k, &MapOptions::default()).unwrap())
///     .collect();
/// let weights = vec![1.0; kernels.len()];
///
/// let result = explore_with(
///     base.base(),
///     &kernels,
///     &contexts,
///     &weights,
///     &DesignSpace::extended(),
///     &ExploreOptions::default(),
/// )?;
/// assert!(result.best_point().arch.plan().has_pipelining());
/// # Ok::<(), rsp_core::RspError>(())
/// ```
pub fn explore_with(
    base: &BaseArchitecture,
    kernels: &[Kernel],
    contexts: &[ConfigContext],
    weights: &[f64],
    space: &DesignSpace,
    options: &ExploreOptions,
) -> Result<Exploration, RspError> {
    explore_engine(base, kernels, contexts, weights, space, options, None)
}

/// Continues a checkpointed run: replays the recorded feasible prefix
/// and pruning state, skips the first [`cursor`](ExploreCheckpoint::cursor)
/// candidates, and processes the rest with the normal engine — under the
/// checkpoint's `options.control` budget, which is fresh for this call.
/// Resuming a truncated run with no further budget limits reaches the
/// result an uninterrupted [`explore_with`] call would have produced,
/// bit for bit (property-tested in `tests/anytime.rs`).
///
/// # Errors
///
/// [`RspError::CheckpointMismatch`] when `checkpoint` was recorded under
/// different options, a different design space, or a different base
/// architecture/kernel profile (detected via an options fingerprint and
/// the bit-exact base execution time).
/// [`RspError::NoFeasibleDesign`] when the completed run has no feasible
/// candidate.
#[allow(clippy::too_many_arguments)]
pub fn explore_resume(
    base: &BaseArchitecture,
    kernels: &[Kernel],
    contexts: &[ConfigContext],
    weights: &[f64],
    space: &DesignSpace,
    options: &ExploreOptions,
    checkpoint: &ExploreCheckpoint,
) -> Result<Exploration, RspError> {
    explore_engine(
        base,
        kernels,
        contexts,
        weights,
        space,
        options,
        Some(checkpoint),
    )
}

/// Shared engine behind [`explore_with`] and [`explore_resume`].
fn explore_engine(
    base: &BaseArchitecture,
    kernels: &[Kernel],
    contexts: &[ConfigContext],
    weights: &[f64],
    space: &DesignSpace,
    options: &ExploreOptions,
    resume: Option<&ExploreCheckpoint>,
) -> Result<Exploration, RspError> {
    assert_eq!(kernels.len(), contexts.len());
    assert_eq!(kernels.len(), weights.len());
    let constraints = &options.constraints;
    let synth = Synth::new(options.cache.as_deref());
    let cache_depth = base.config_cache_depth() as u32;
    let base = Arc::new(base.clone());

    let base_arch = RspArchitecture::new("Base", Arc::clone(&base), SharingPlan::none())
        .expect("base plan is always valid");
    let base_clock = synth.delay(&base_arch).clock_ns;
    let base_et: f64 = contexts
        .iter()
        .zip(weights)
        .map(|(c, w)| w * c.total_cycles() as f64 * base_clock)
        .sum();
    let et_bound = constraints.max_slowdown * base_et;

    let candidates_total = space.candidate_count();
    let fingerprint = EngineFingerprint::of(options, candidates_total);
    if let Some(ckpt) = resume {
        validate_checkpoint(ckpt, &fingerprint, base_et)?;
    }

    // One profile per kernel, shared read-only by all workers — served
    // from the caller's ProfileCache when one rides along (profiling is
    // pure, so cached and fresh profiles are interchangeable). Profiles
    // cover every kind the space can share, grid or mix.
    let profile_kinds = space.kinds_used();
    let profiles: Vec<Arc<ContextProfile>> = contexts
        .iter()
        .zip(kernels)
        .map(|(ctx, k)| match &options.profiles {
            Some(cache) => cache.get_or_build(ctx, k, &profile_kinds),
            None => Arc::new(ContextProfile::new(ctx, k, &profile_kinds)),
        })
        .collect();

    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(options.parallelism.unwrap_or(0))
        .build()
        .expect("thread pool");

    // Candidate stream: enumeration order by default (which is what the
    // bit-identical guarantee for result-preserving strategies rests
    // on); under Dominated pruning — which already opts into a reordered
    // `feasible` — ascending synthesized-area order, from an area-only
    // synthesis pass. Small strong designs then enter the frontier
    // first, so the dominated test cuts from the start instead of after
    // most of the space has been estimated. The sort is
    // stable (enumeration index breaks area ties), which keeps tied
    // plans in reference order. The pre-pass constructs each candidate
    // architecture exactly once and the stream carries it — sorted by
    // index — into phase A, so ordering costs no second construction.
    // Observability: spans and prune decisions go to the caller's
    // recorder. Everything below is gated on `obs.enabled()` (directly
    // or inside `Span`/`count`), so the default `NullRecorder` costs
    // one branch per site and zero clock reads.
    let obs = &*options.recorder;

    let enumerate_span = Span::enter(obs, "explore", "enumerate", 0);
    let mut seeds: Box<dyn Iterator<Item = Seed> + '_> =
        if options.prune == PruneStrategy::Dominated {
            let all: Vec<SharingPlan> = space.plans().collect();
            let mut built: Vec<Option<(Box<RspArchitecture>, AreaReport)>> = pool.install(|| {
                all.into_par_iter()
                    .map(|plan| {
                        let name = plan_name(&plan);
                        RspArchitecture::new(name, Arc::clone(&base), plan)
                            .ok()
                            .map(|arch| {
                                let area = synth.area(&arch);
                                (Box::new(arch), area)
                            })
                    })
                    .collect()
            });
            let mut order: Vec<usize> = (0..built.len()).collect();
            let area_of = |slot: &Option<(Box<RspArchitecture>, AreaReport)>| {
                slot.as_ref()
                    .map_or(f64::INFINITY, |(_, a)| a.synthesized_slices)
            };
            order.sort_by(|&a, &b| {
                area_of(&built[a])
                    .total_cmp(&area_of(&built[b]))
                    .then(a.cmp(&b))
            });
            Box::new(order.into_iter().map(move |i| match built[i].take() {
                Some((arch, area)) => Seed::Built(arch, area),
                None => Seed::Invalid,
            }))
        } else {
            Box::new(space.plans().map(Seed::Plan))
        };
    drop(enumerate_span);

    let mut feasible: Vec<DesignPoint> = Vec::new();
    let mut stats = PruneStats::default();
    // Tightness accumulator: Σ (lb_et / est_et) over fully estimated
    // candidates, and how many contributed.
    let mut tightness = (0.0f64, 0usize);
    // Streaming frontier: answers Dominated-pruning queries and emits
    // the final Pareto set, bit-identical to the reference batch sweep.
    let mut frontier = ParetoFrontier::new();

    // Resume: replay the recorded prefix state — feasible points (their
    // architectures rebuilt from the recorded plans), the frontier
    // (re-inserting the same point sequence reproduces the exact
    // staircase), the pruning counters, and the tightness accumulator —
    // then advance the candidate stream past the cursor.
    let start_cursor = resume.map_or(0, |c| c.cursor);
    if let Some(ckpt) = resume {
        for p in &ckpt.points {
            let arch = RspArchitecture::new(p.name.clone(), Arc::clone(&base), p.plan.clone())
                .map_err(|_| RspError::CheckpointMismatch {
                    what: format!("recorded plan of `{}` is invalid on this base", p.name),
                })?;
            frontier.insert(p.area_slices, p.est_et_ns, feasible.len());
            feasible.push(DesignPoint {
                arch,
                area_slices: p.area_slices,
                clock_ns: p.clock_ns,
                est_cycles: p.est_cycles.clone(),
                est_et_ns: p.est_et_ns,
                cost_bound_ok: p.cost_bound_ok,
            });
        }
        stats.candidates_seen = ckpt.cursor;
        stats.candidates_pruned = ckpt.candidates_pruned;
        stats.clock_bound_cuts = ckpt.clock_bound_cuts;
        stats.faulted = ckpt.faulted;
        tightness = (ckpt.tightness_sum, ckpt.tightness_count);
        for _ in 0..start_cursor {
            if seeds.next().is_none() {
                break;
            }
        }
    }

    let clock = ControlClock::new(&options.control);
    // Candidates pulled by *this call* (a resumed call's budget is
    // fresh; the deadline is measured from this call's start).
    let mut consumed = 0usize;
    let mut truncation: Option<TruncationReason> = None;
    let mut chunk_index = 0u64;

    loop {
        // Assemble the next chunk, checking the control before each
        // pull so truncation lands exactly at a candidate boundary.
        let mut chunk: Vec<Seed> = Vec::with_capacity(CHUNK);
        while chunk.len() < CHUNK {
            if let Some(reason) = clock.stop_reason(consumed + chunk.len()) {
                truncation = Some(reason);
                break;
            }
            match seeds.next() {
                Some(seed) => chunk.push(seed),
                None => break,
            }
        }
        if chunk.is_empty() {
            break;
        }
        consumed += chunk.len();
        stats.candidates_seen += chunk.len();

        // Phase A (parallel): construct candidates (unless the ordering
        // pre-pass already did), synthesize areas, compute the admissible
        // cycle lower bound, consult the stage-floor clock bound, and
        // only then synthesize the clock — all pure per-plan work, fanned
        // out in stream order.
        let prepare = |seed: Seed| -> Prepared {
            let (arch, area) = match seed {
                Seed::Plan(plan) => {
                    let name = plan_name(&plan);
                    let Ok(arch) = RspArchitecture::new(name, Arc::clone(&base), plan) else {
                        return Prepared::Reject;
                    };
                    let area = synth.area(&arch);
                    (arch, area)
                }
                Seed::Built(arch, area) => (*arch, area),
                Seed::Invalid => return Prepared::Reject,
            };
            let cost_ok = area.satisfies_cost_bound();
            if constraints.enforce_cost_bound && !cost_ok {
                // The reference rejects this candidate pre-push,
                // so its delay need never be synthesized.
                return Prepared::Reject;
            }
            // Term-wise identical arithmetic to the full estimate,
            // with the exec cycles replaced by the slack-aware exec
            // floor under the selected bound. Under the default
            // PerRowResidual bound the floor *is* the estimate's exec
            // term, so lb_cycles == est_cycles exactly; under the
            // Aggregate bound it is ≤ term-wise (and the refill charge
            // is monotone in exec), so lb_et <= est_et under IEEE-754
            // rounding either way.
            let mut lb_cycles: Vec<u32> = Vec::new();
            if options.prune != PruneStrategy::None {
                lb_cycles.reserve_exact(profiles.len());
                for profile in profiles.iter() {
                    let lb_exec = profile.total_cycles()
                        + profile.rs_stalls_lower_bound(arch.plan(), options.bound);
                    lb_cycles.push(lb_exec + refill_stall_estimate(lb_exec, cache_depth));
                }
                if options.clock_bound == ClockBound::StageFloor {
                    // Clock floor from the stage structure alone:
                    // floor <= clock, so term-wise lb_floor_et <=
                    // lb_et <= est_et — a candidate cut here is
                    // provably rejected by the reference, and its
                    // delay synthesis is skipped entirely.
                    let floor = synth.clock_floor(&arch);
                    let mut lb_floor_et = 0.0;
                    for (c, w) in lb_cycles.iter().zip(weights) {
                        lb_floor_et += w * *c as f64 * floor;
                    }
                    if lb_floor_et > et_bound {
                        return Prepared::ClockCut;
                    }
                }
            }
            let clock_ns = synth.delay(&arch).clock_ns;
            let mut lb_et = 0.0;
            for (c, w) in lb_cycles.iter().zip(weights) {
                lb_et += w * *c as f64 * clock_ns;
            }
            Prepared::Ready(
                arch,
                area.synthesized_slices,
                clock_ns,
                cost_ok,
                lb_cycles,
                lb_et,
            )
        };

        let prepare_span = Span::enter(obs, "explore", "prepare", chunk_index);
        let prepared: Vec<Prepared> = pool.install(|| {
            chunk
                .into_par_iter()
                // Panic isolation *inside* the per-item closure: a
                // panic escaping it would re-raise on this thread and
                // abort the whole sweep instead of poisoning one
                // candidate.
                .map(|seed| {
                    catch_unwind(AssertUnwindSafe(|| prepare(seed))).unwrap_or(Prepared::Faulted)
                })
                .collect()
        });
        drop(prepare_span);

        // Phase B (serial, stream order): prune decisions against the
        // frontier built from earlier chunks only — identical for every
        // thread count.
        let screen_span = Span::enter(obs, "explore", "screen", chunk_index);
        let chunk_start = stats.candidates_seen - prepared.len();
        let mut screened: Vec<Screen> = Vec::with_capacity(prepared.len());
        for (offset, p) in prepared.into_iter().enumerate() {
            // Stream index of this candidate, stable across resumes —
            // the correlation id of its prune/fault events.
            let candidate = (chunk_start + offset) as u64;
            match p {
                Prepared::Reject => screened.push(Screen::Reject),
                Prepared::Faulted => {
                    // Isolated panic: count it, contribute nothing —
                    // downstream phases treat it like a rejection.
                    stats.faulted += 1;
                    rsp_obs::point(obs, "explore", "faulted", candidate, &[]);
                    screened.push(Screen::Reject);
                }
                Prepared::ClockCut => {
                    stats.candidates_pruned += 1;
                    stats.clock_bound_cuts += 1;
                    rsp_obs::point(
                        obs,
                        "explore",
                        "prune",
                        candidate,
                        &[("reason", Value::Str("clock_floor"))],
                    );
                    screened.push(Screen::Prune);
                }
                Prepared::Ready(arch, area_slices, clock_ns, cost_ok, lb_cycles, lb_et) => {
                    if options.prune != PruneStrategy::None
                        && (lb_et > et_bound
                            || (options.prune == PruneStrategy::Dominated
                                && frontier.dominates(area_slices, lb_et)))
                    {
                        stats.candidates_pruned += 1;
                        if obs.enabled() {
                            let reason = if lb_et > et_bound {
                                "lower_bound"
                            } else {
                                "dominated"
                            };
                            rsp_obs::point(
                                obs,
                                "explore",
                                "prune",
                                candidate,
                                &[("reason", Value::Str(reason))],
                            );
                        }
                        screened.push(Screen::Prune);
                    } else {
                        screened.push(Screen::Evaluate(
                            arch,
                            area_slices,
                            clock_ns,
                            cost_ok,
                            lb_cycles,
                            lb_et,
                        ));
                    }
                }
            }
        }
        drop(screen_span);

        // Phase C (parallel): full estimation of the survivors; results
        // come back in enumeration order, each with its lower bound for
        // the tightness statistic. When the bound is bit-identical to
        // the estimate ([`reuses_bound_as_estimate`]) the carried
        // lb_cycles/lb_et are adopted outright — the survivor pays for
        // the suffix pass once, in phase A, which is what keeps the
        // pruned engine no slower than the unpruned one even on spaces
        // too small for pruning to bite.
        let reuse_bound = reuses_bound_as_estimate(options);
        let estimate_span = Span::enter(obs, "explore", "estimate", chunk_index);
        let evaluated: Vec<Evaluated> = pool.install(|| {
            screened
                .into_par_iter()
                .map(|screen| match screen {
                    Screen::Evaluate(
                        arch,
                        area_slices,
                        clock_ns,
                        cost_bound_ok,
                        lb_cycles,
                        lb_et,
                    ) => catch_unwind(AssertUnwindSafe(|| {
                        let (est_cycles, est_et) = if reuse_bound {
                            (lb_cycles, lb_et)
                        } else {
                            let mut est_cycles = Vec::with_capacity(profiles.len());
                            let mut est_et = 0.0;
                            for (profile, w) in profiles.iter().zip(weights) {
                                let est = profile.estimate(arch.plan(), cache_depth);
                                est_cycles.push(est.total_cycles);
                                est_et += w * est.total_cycles as f64 * clock_ns;
                            }
                            (est_cycles, est_et)
                        };
                        Evaluated::Point(
                            Box::new(DesignPoint {
                                arch,
                                area_slices,
                                clock_ns,
                                est_cycles,
                                est_et_ns: est_et,
                                cost_bound_ok,
                            }),
                            lb_et,
                        )
                    }))
                    .unwrap_or(Evaluated::Faulted),
                    Screen::Prune | Screen::Reject => Evaluated::Skipped,
                })
                .collect()
        });
        drop(estimate_span);

        // Ordered merge: identical to what the serial reference pushes.
        for (offset, outcome) in evaluated.into_iter().enumerate() {
            let (point, lb_et) = match outcome {
                Evaluated::Point(point, lb_et) => (*point, lb_et),
                Evaluated::Skipped => continue,
                Evaluated::Faulted => {
                    stats.faulted += 1;
                    rsp_obs::point(
                        obs,
                        "explore",
                        "faulted",
                        (chunk_start + offset) as u64,
                        &[],
                    );
                    continue;
                }
            };
            if options.prune != PruneStrategy::None && point.est_et_ns > 0.0 {
                tightness.0 += lb_et / point.est_et_ns;
                tightness.1 += 1;
            }
            if point.est_et_ns > et_bound {
                continue;
            }
            frontier.insert(point.area_slices, point.est_et_ns, feasible.len());
            feasible.push(point);
        }

        chunk_index += 1;
        if truncation.is_some() {
            break;
        }
    }

    let completeness = match truncation {
        Some(reason) if stats.candidates_seen < candidates_total => Completeness::Truncated {
            candidates_remaining: candidates_total - stats.candidates_seen,
            reason,
        },
        // A budget that fired exactly at (or past) the last candidate
        // changed nothing: the result is the complete one.
        _ => Completeness::Complete,
    };

    if feasible.is_empty() && completeness.is_complete() {
        return Err(RspError::NoFeasibleDesign);
    }

    // The streaming frontier's emission is bit-identical to
    // `pareto_indices(&feasible)` (see `crate::frontier`'s module docs
    // and property tests), so no batch re-sweep is needed here.
    let pareto = frontier.indices();
    let best = if pareto.is_empty() {
        // Only reachable truncated-and-empty: no point to select yet.
        usize::MAX
    } else {
        select(&feasible, &pareto, options.objective)
    };
    stats.bound_tightness = if tightness.1 > 0 {
        tightness.0 / tightness.1 as f64
    } else {
        0.0
    };
    Ok(Exploration {
        feasible,
        pareto,
        best,
        base_et_ns: base_et,
        pruned: stats.candidates_pruned,
        stats,
        completeness,
        tightness,
        fingerprint,
    })
}

/// Checks that a checkpoint was recorded under the same options, design
/// space, and base/kernel inputs it is being resumed under.
fn validate_checkpoint(
    ckpt: &ExploreCheckpoint,
    fingerprint: &EngineFingerprint,
    base_et: f64,
) -> Result<(), RspError> {
    if ckpt.version != CHECKPOINT_VERSION {
        return Err(RspError::CheckpointMismatch {
            what: format!(
                "checkpoint version {} (this build writes {CHECKPOINT_VERSION})",
                ckpt.version
            ),
        });
    }
    if ckpt.fingerprint != *fingerprint {
        return Err(RspError::CheckpointMismatch {
            what: format!(
                "options/space fingerprint differs (recorded {:?}, resuming under {:?})",
                ckpt.fingerprint, fingerprint
            ),
        });
    }
    if ckpt.base_et_ns.to_bits() != base_et.to_bits() {
        return Err(RspError::CheckpointMismatch {
            what: "base execution time differs — different base architecture, kernels, \
                   or weights"
                .to_string(),
        });
    }
    if ckpt.cursor > ckpt.fingerprint.candidates_total {
        return Err(RspError::CheckpointMismatch {
            what: format!(
                "cursor {} exceeds the space's {} candidates",
                ckpt.cursor, ckpt.fingerprint.candidates_total
            ),
        });
    }
    Ok(())
}

/// The original serial implementation from the paper reproduction, kept
/// as the oracle for property tests and the benchmark's reference:
/// deep-clones the base per candidate, re-synthesizes every
/// report, and rebuilds a dense demand histogram per candidate through
/// the original dense estimator — which shares no code with the sparse
/// profile path, so an estimator regression in either implementation
/// surfaces as a divergence in the equivalence property tests.
///
/// # Errors
///
/// [`RspError::NoFeasibleDesign`] when every candidate violates the
/// constraints.
#[allow(clippy::too_many_arguments)]
pub fn explore_reference(
    base: &BaseArchitecture,
    kernels: &[Kernel],
    contexts: &[ConfigContext],
    weights: &[f64],
    space: &DesignSpace,
    constraints: &Constraints,
    objective: Objective,
) -> Result<Exploration, RspError> {
    explore_reference_with(
        base,
        kernels,
        contexts,
        weights,
        space,
        constraints,
        objective,
        &ExploreControl::default(),
    )
}

/// [`explore_reference`] under an [`ExploreControl`]: the serial oracle
/// with the same cooperative candidate-boundary stop checks as the
/// engine. A run truncated after `k` candidates is exactly the serial
/// sweep over the first `k` plans — the yardstick the cancellation-
/// determinism property tests compare the engine's truncated results
/// against.
///
/// # Errors
///
/// [`RspError::NoFeasibleDesign`] when a *complete* run has no feasible
/// candidate (a truncated run returns an empty anytime result instead).
#[allow(clippy::too_many_arguments)]
pub fn explore_reference_with(
    base: &BaseArchitecture,
    kernels: &[Kernel],
    contexts: &[ConfigContext],
    weights: &[f64],
    space: &DesignSpace,
    constraints: &Constraints,
    objective: Objective,
    control: &ExploreControl,
) -> Result<Exploration, RspError> {
    assert_eq!(kernels.len(), contexts.len());
    assert_eq!(kernels.len(), weights.len());
    let area_model = AreaModel::new();
    let delay_model = DelayModel::new();

    let base_arch = RspArchitecture::new("Base", base.clone(), SharingPlan::none())
        .expect("base plan is always valid");
    let base_clock = delay_model.report(&base_arch).clock_ns;
    let base_et: f64 = contexts
        .iter()
        .zip(weights)
        .map(|(c, w)| w * c.total_cycles() as f64 * base_clock)
        .sum();

    let candidates_total = space.candidate_count();
    let clock = ControlClock::new(control);
    let mut truncation: Option<TruncationReason> = None;

    let mut feasible = Vec::new();
    let mut candidates_seen = 0usize;
    for plan in space.plans() {
        if let Some(reason) = clock.stop_reason(candidates_seen) {
            truncation = Some(reason);
            break;
        }
        candidates_seen += 1;
        let name = plan_name(&plan);
        let Ok(arch) = RspArchitecture::new(name, base.clone(), plan) else {
            continue;
        };
        let area = area_model.report(&arch);
        let delay = delay_model.report(&arch);

        let mut est_cycles = Vec::with_capacity(kernels.len());
        let mut est_et = 0.0;
        for ((k, ctx), w) in kernels.iter().zip(contexts).zip(weights) {
            let est = estimate_stalls_dense(ctx, k, &arch);
            est_cycles.push(est.total_cycles);
            est_et += w * est.total_cycles as f64 * delay.clock_ns;
        }

        let cost_ok = area.satisfies_cost_bound();
        if constraints.enforce_cost_bound && !cost_ok {
            continue;
        }
        if est_et > constraints.max_slowdown * base_et {
            continue;
        }
        feasible.push(DesignPoint {
            arch,
            area_slices: area.synthesized_slices,
            clock_ns: delay.clock_ns,
            est_cycles,
            est_et_ns: est_et,
            cost_bound_ok: cost_ok,
        });
    }

    let completeness = match truncation {
        Some(reason) if candidates_seen < candidates_total => Completeness::Truncated {
            candidates_remaining: candidates_total - candidates_seen,
            reason,
        },
        _ => Completeness::Complete,
    };

    if feasible.is_empty() && completeness.is_complete() {
        return Err(RspError::NoFeasibleDesign);
    }

    let pareto = pareto_indices(&feasible);
    let best = if pareto.is_empty() {
        usize::MAX
    } else {
        select(&feasible, &pareto, objective)
    };
    Ok(Exploration {
        feasible,
        pareto,
        best,
        base_et_ns: base_et,
        pruned: 0,
        stats: PruneStats {
            candidates_seen,
            candidates_pruned: 0,
            bound_tightness: 0.0,
            clock_bound_cuts: 0,
            faulted: 0,
        },
        completeness,
        tightness: (0.0, 0),
        // The reference evaluates everything: its state is what the
        // engine produces under `PruneStrategy::None` with the default
        // bound knobs, so a reference checkpoint resumes through the
        // engine under exactly those options.
        fingerprint: EngineFingerprint {
            prune: PruneStrategy::None,
            bound: BoundKind::default(),
            clock_bound: ClockBound::default(),
            objective,
            constraints: *constraints,
            candidates_total,
        },
    })
}

/// Whether phase A's lower bound is bit-identical to the full estimate,
/// so phase C can adopt it instead of re-running the suffix pass. True
/// under the default [`BoundKind::PerRowResidual`]: the bound and the
/// estimate share the same slack-aware exec floor and refill charge, and
/// phase A accumulates `lb_et` with the same float association phase C
/// would use for `est_et`.
fn reuses_bound_as_estimate(options: &ExploreOptions) -> bool {
    options.prune != PruneStrategy::None && options.bound == BoundKind::PerRowResidual
}

fn plan_name(plan: &SharingPlan) -> String {
    fn group_name(g: &SharedGroup) -> String {
        let tag = if g.is_pipelined() { "RSP" } else { "RS" };
        format!(
            "{tag}(shr={},shc={},st={})",
            g.per_row(),
            g.per_col(),
            g.stages()
        )
    }
    match plan.groups() {
        // Single-group plans keep the historic kind-less name the
        // tracked artifacts and checkpoints were recorded under.
        [g] => group_name(g),
        groups => groups
            .iter()
            .map(|g| format!("{:?}:{}", g.kind(), group_name(g)))
            .collect::<Vec<_>>()
            .join("+"),
    }
}

/// Indices of non-dominated points in (area, estimated time), sorted by
/// area ascending. NaN-safe: comparisons use `f64::total_cmp`, so a
/// degenerate candidate (NaN area or time) sorts last instead of
/// panicking, and can never displace a finite frontier point. This is
/// the batch sweep the reference uses; the engine's streaming
/// [`ParetoFrontier`] emits the identical result.
fn pareto_indices(points: &[DesignPoint]) -> Vec<usize> {
    let pairs: Vec<(f64, f64)> = points
        .iter()
        .map(|p| (p.area_slices, p.est_et_ns))
        .collect();
    pareto_indices_of(&pairs)
}

fn select(points: &[DesignPoint], pareto: &[usize], objective: Objective) -> usize {
    let score = |p: &DesignPoint| match objective {
        Objective::AreaDelayProduct => p.area_slices * p.est_et_ns,
        Objective::ExecutionTime => p.est_et_ns,
        Objective::Area => p.area_slices,
    };
    *pareto
        .iter()
        .min_by(|&&a, &&b| score(&points[a]).total_cmp(&score(&points[b])))
        .expect("pareto frontier is non-empty")
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsp_arch::presets;
    use rsp_kernel::suite;
    use rsp_mapper::{map, MapOptions};

    fn setup() -> (BaseArchitecture, Vec<Kernel>, Vec<ConfigContext>, Vec<f64>) {
        let base = presets::base_8x8().base().clone();
        let kernels = suite::all();
        let contexts: Vec<_> = kernels
            .iter()
            .map(|k| map(&base, k, &MapOptions::default()).unwrap())
            .collect();
        let weights = vec![1.0; kernels.len()];
        (base, kernels, contexts, weights)
    }

    #[test]
    fn paper_space_enumerates_twelve_plans() {
        // 2 stages x 2 shr x 3 shc = 12 (shr=0 excluded by construction).
        assert_eq!(DesignSpace::paper().plans().count(), 12);
    }

    #[test]
    fn deep_space_is_lazy_and_larger() {
        // Lazy: taking a prefix never materializes the rest.
        let first: Vec<_> = DesignSpace::deep().plans().take(3).collect();
        assert_eq!(first.len(), 3);
        assert!(DesignSpace::deep().plans().count() > 100);
    }

    #[test]
    fn deep100_space_mixes_kinds_and_clears_ten_thousand() {
        let space = DesignSpace::deep100();
        assert_eq!(
            space.kinds_used(),
            vec![FuKind::Multiplier, FuKind::Alu, FuKind::Shifter]
        );
        // Lazy: a prefix never materializes the rest of the cross
        // product.
        let first: Vec<_> = space.plans().take(3).collect();
        assert_eq!(first.len(), 3);
        // 49 × 25 × 9 − 1 mixed-radix combinations (each axis's grid
        // plus its unshared slot, minus the all-unshared plan).
        assert_eq!(space.plans().count(), 11_024);
        // Heterogeneous plans exist, and every plan shares something.
        let multi = space
            .plans()
            .find(|p| p.groups().len() == 3)
            .expect("a three-kind mix");
        assert!(plan_name(&multi).contains('+'));
        assert!(space.plans().all(|p| !p.groups().is_empty()));
    }

    #[test]
    fn candidate_count_matches_enumeration() {
        let axis = |kind, stages: Vec<u8>, shr: Vec<usize>, shc: Vec<usize>| MixAxis {
            kind,
            stages,
            shr,
            shc,
        };
        // A mix that repeats a kind (two multiplier axes, so plans sharing
        // both are skipped), lists an all-zero bank pair and a depth past
        // the template's maximum, beside a grid with an unsharable kind.
        let repeated = DesignSpace {
            shared_kinds: vec![FuKind::Shifter, FuKind::Mux, FuKind::Multiplier],
            stages: vec![1, 2],
            shr: vec![0, 1],
            shc: vec![0, 2],
            mixes: vec![
                vec![
                    axis(FuKind::Multiplier, vec![1, 2], vec![0, 1, 2], vec![0, 1]),
                    axis(FuKind::Shifter, vec![1, 9], vec![1], vec![1]),
                    axis(FuKind::Multiplier, vec![3], vec![1], vec![0, 2]),
                ],
                vec![],
            ],
        };
        for space in [
            DesignSpace::paper(),
            DesignSpace::extended(),
            DesignSpace::deep(),
            DesignSpace::deep100(),
            repeated,
        ] {
            assert_eq!(space.candidate_count(), space.plans().count(), "{space:?}");
        }
    }

    #[test]
    fn exploration_selects_pipelined_design() {
        let (base, kernels, contexts, weights) = setup();
        let r = explore(
            &base,
            &kernels,
            &contexts,
            &weights,
            &DesignSpace::paper(),
            &Constraints::default(),
            Objective::AreaDelayProduct,
        )
        .unwrap();
        let best = r.best_point();
        assert!(
            best.arch.plan().has_pipelining(),
            "best = {}",
            best.arch.name()
        );
        // And it is genuinely better than base on the combined objective.
        assert!(best.est_et_ns < r.base_et_ns * 1.2);
    }

    #[test]
    fn pareto_frontier_is_non_dominated_and_sorted() {
        let (base, kernels, contexts, weights) = setup();
        let r = explore(
            &base,
            &kernels,
            &contexts,
            &weights,
            &DesignSpace::extended(),
            &Constraints::default(),
            Objective::ExecutionTime,
        )
        .unwrap();
        let pts: Vec<_> = r.pareto_points().collect();
        assert!(!pts.is_empty());
        for w in pts.windows(2) {
            assert!(w[0].area_slices < w[1].area_slices);
            assert!(w[0].est_et_ns > w[1].est_et_ns);
        }
        // No feasible point dominates a Pareto point.
        for p in &r.feasible {
            for q in r.pareto_points() {
                assert!(
                    !(p.area_slices < q.area_slices && p.est_et_ns < q.est_et_ns),
                    "{} dominates {}",
                    p.arch.name(),
                    q.arch.name()
                );
            }
        }
    }

    #[test]
    fn objectives_pick_extremes() {
        let (base, kernels, contexts, weights) = setup();
        let run = |o| {
            explore(
                &base,
                &kernels,
                &contexts,
                &weights,
                &DesignSpace::paper(),
                &Constraints::default(),
                o,
            )
            .unwrap()
        };
        let by_area = run(Objective::Area);
        let by_time = run(Objective::ExecutionTime);
        assert!(by_area.best_point().area_slices <= by_time.best_point().area_slices);
        assert!(by_time.best_point().est_et_ns <= by_area.best_point().est_et_ns);
    }

    #[test]
    fn impossible_constraints_yield_no_design() {
        let (base, kernels, contexts, weights) = setup();
        let err = explore(
            &base,
            &kernels,
            &contexts,
            &weights,
            &DesignSpace::paper(),
            &Constraints {
                enforce_cost_bound: true,
                max_slowdown: 0.01,
            },
            Objective::Area,
        )
        .unwrap_err();
        assert_eq!(err, RspError::NoFeasibleDesign);
    }

    #[test]
    fn alu_sharing_never_wins() {
        // Negative result: offering ALU sharing in the space must not
        // tempt the DSE — every kernel uses the ALU almost every cycle,
        // so sharing it starves the array (the paper shares only the
        // low-utilization, high-area multiplier).
        let (base, kernels, contexts, weights) = setup();
        let space = DesignSpace {
            shared_kinds: vec![rsp_arch::FuKind::Multiplier, rsp_arch::FuKind::Alu],
            stages: vec![1, 2],
            shr: vec![1, 2],
            shc: vec![0, 1],
            mixes: vec![],
        };
        let r = explore(
            &base,
            &kernels,
            &contexts,
            &weights,
            &space,
            &Constraints::default(),
            Objective::AreaDelayProduct,
        )
        .unwrap();
        let best = r.best_point();
        assert!(
            best.arch.plan().is_shared(rsp_arch::FuKind::Multiplier),
            "best design {} does not share the multiplier",
            best.arch.name()
        );
        assert!(!best.arch.plan().is_shared(rsp_arch::FuKind::Alu));
    }

    #[test]
    fn cost_bound_rejects_nothing_in_paper_space() {
        // All Fig. 8-style configs are cheaper than base (Table 2).
        let (base, kernels, contexts, weights) = setup();
        let r = explore(
            &base,
            &kernels,
            &contexts,
            &weights,
            &DesignSpace::paper(),
            &Constraints {
                enforce_cost_bound: true,
                max_slowdown: f64::INFINITY,
            },
            Objective::Area,
        )
        .unwrap();
        assert_eq!(r.feasible.len(), 12);
    }

    #[test]
    fn engine_matches_reference_bitwise_on_paper_space() {
        let (base, kernels, contexts, weights) = setup();
        let reference = explore_reference(
            &base,
            &kernels,
            &contexts,
            &weights,
            &DesignSpace::paper(),
            &Constraints::default(),
            Objective::AreaDelayProduct,
        )
        .unwrap();
        for parallelism in [Some(1), Some(3), None] {
            let engine = explore_with(
                &base,
                &kernels,
                &contexts,
                &weights,
                &DesignSpace::paper(),
                &ExploreOptions {
                    parallelism,
                    ..ExploreOptions::default()
                },
            )
            .unwrap();
            assert_eq!(engine.feasible.len(), reference.feasible.len());
            for (e, r) in engine.feasible.iter().zip(&reference.feasible) {
                assert_eq!(e.arch.name(), r.arch.name());
                assert_eq!(e.area_slices.to_bits(), r.area_slices.to_bits());
                assert_eq!(e.clock_ns.to_bits(), r.clock_ns.to_bits());
                assert_eq!(e.est_cycles, r.est_cycles);
                assert_eq!(e.est_et_ns.to_bits(), r.est_et_ns.to_bits());
            }
            assert_eq!(engine.pareto, reference.pareto);
            assert_eq!(engine.best, reference.best);
            assert_eq!(engine.base_et_ns.to_bits(), reference.base_et_ns.to_bits());
        }
    }

    #[test]
    fn dominated_pruning_preserves_frontier_and_best() {
        let (base, kernels, contexts, weights) = setup();
        let full = explore_with(
            &base,
            &kernels,
            &contexts,
            &weights,
            &DesignSpace::extended(),
            &ExploreOptions {
                prune: PruneStrategy::None,
                ..ExploreOptions::default()
            },
        )
        .unwrap();
        let pruned = explore_with(
            &base,
            &kernels,
            &contexts,
            &weights,
            &DesignSpace::extended(),
            &ExploreOptions {
                prune: PruneStrategy::Dominated,
                ..ExploreOptions::default()
            },
        )
        .unwrap();
        let names = |r: &Exploration| -> Vec<String> {
            r.pareto_points()
                .map(|p| p.arch.name().to_string())
                .collect()
        };
        assert_eq!(names(&full), names(&pruned));
        assert_eq!(
            full.best_point().arch.name(),
            pruned.best_point().arch.name()
        );
        assert_eq!(
            full.best_point().est_et_ns.to_bits(),
            pruned.best_point().est_et_ns.to_bits()
        );
    }

    #[test]
    fn deep_space_dominated_pruning_is_frontier_identical_and_bites() {
        // The pruning-efficacy regression test: on the deep space the
        // per-row bound + area-ordered enumeration must skip at least
        // 20 % of candidate estimations while leaving the Pareto
        // frontier bit-identical to the unpruned engine.
        let (base, kernels, contexts, weights) = setup();
        let run = |prune, bound| {
            explore_with(
                &base,
                &kernels,
                &contexts,
                &weights,
                &DesignSpace::deep(),
                &ExploreOptions {
                    prune,
                    bound,
                    ..ExploreOptions::default()
                },
            )
            .unwrap()
        };
        let full = run(PruneStrategy::None, BoundKind::PerRowResidual);
        let pruned = run(PruneStrategy::Dominated, BoundKind::PerRowResidual);

        let frontier = |r: &Exploration| -> Vec<(String, u64, u64)> {
            r.pareto_points()
                .map(|p| {
                    (
                        p.arch.name().to_string(),
                        p.area_slices.to_bits(),
                        p.est_et_ns.to_bits(),
                    )
                })
                .collect()
        };
        assert_eq!(frontier(&full), frontier(&pruned));
        assert_eq!(
            full.best_point().arch.name(),
            pruned.best_point().arch.name()
        );

        assert_eq!(pruned.stats.candidates_seen, full.stats.candidates_seen);
        assert!(
            pruned.stats.candidates_pruned * 5 >= pruned.stats.candidates_seen,
            "pruned only {} of {} candidates (< 20 %)",
            pruned.stats.candidates_pruned,
            pruned.stats.candidates_seen
        );
        // The tightness statistic is a meaningful ratio: admissible
        // (≤ 1) and non-trivial on this space.
        assert!(pruned.stats.bound_tightness > 0.5);
        assert!(pruned.stats.bound_tightness <= 1.0);
        // The unpruned engine computes no bounds and says so.
        assert_eq!(full.stats.candidates_pruned, 0);
        assert_eq!(full.stats.bound_tightness, 0.0);
    }

    #[test]
    fn clock_floor_cut_is_result_preserving_and_bites() {
        // The stage-floor clock bound must never change any output —
        // feasible set, frontier, best — while cutting some candidates
        // before delay synthesis on a space that offers hopeless
        // ALU-sharing designs.
        let (base, kernels, contexts, weights) = setup();
        let space = DesignSpace::deep();
        let run = |clock_bound, prune| {
            explore_with(
                &base,
                &kernels,
                &contexts,
                &weights,
                &space,
                &ExploreOptions {
                    prune,
                    clock_bound,
                    ..ExploreOptions::default()
                },
            )
            .unwrap()
        };
        for prune in [PruneStrategy::LowerBound, PruneStrategy::Dominated] {
            let off = run(ClockBound::Off, prune);
            let floor = run(ClockBound::StageFloor, prune);
            assert_eq!(off.feasible.len(), floor.feasible.len(), "{prune:?}");
            for (a, b) in off.feasible.iter().zip(&floor.feasible) {
                assert_eq!(a.arch.name(), b.arch.name());
                assert_eq!(a.est_et_ns.to_bits(), b.est_et_ns.to_bits());
            }
            assert_eq!(off.pareto, floor.pareto, "{prune:?}");
            assert_eq!(off.best, floor.best, "{prune:?}");
            // Every clock cut is one of the pruned candidates, and the
            // Off run reports none.
            assert!(floor.stats.clock_bound_cuts <= floor.stats.candidates_pruned);
            assert_eq!(off.stats.clock_bound_cuts, 0);
        }
        // The floor must actually fire somewhere. The admissible bound
        // is too honest to condemn the single-kind deep grid at the
        // default slowdown — capacity-wise most of those plans really
        // could keep up — but the deep100 mixes stack deep pipelines on
        // several near-saturated kinds at once, and there even the
        // floored clock proves candidates hopeless pre-synthesis.
        let floor = explore_with(
            &base,
            &kernels,
            &contexts,
            &weights,
            &DesignSpace::deep100(),
            &ExploreOptions {
                prune: PruneStrategy::LowerBound,
                clock_bound: ClockBound::StageFloor,
                ..ExploreOptions::default()
            },
        )
        .unwrap();
        assert!(
            floor.stats.clock_bound_cuts > 0,
            "stage-floor clock bound never cut a candidate pre-synthesis"
        );
    }

    #[test]
    fn lower_bound_pruning_skips_work_on_tight_slowdown() {
        let (base, kernels, contexts, weights) = setup();
        // A tight slowdown makes deep-pipeline candidates hopeless from
        // their lower bound alone.
        let r = explore_with(
            &base,
            &kernels,
            &contexts,
            &weights,
            &DesignSpace::extended(),
            &ExploreOptions {
                constraints: Constraints {
                    enforce_cost_bound: true,
                    max_slowdown: 1.05,
                },
                ..ExploreOptions::default()
            },
        )
        .unwrap();
        assert!(r.pruned > 0, "expected lower-bound prunes");
    }

    fn nan_point(name: &str, area: f64, et: f64) -> DesignPoint {
        let arch = RspArchitecture::new(
            name,
            presets::base_8x8().base().clone(),
            SharingPlan::none(),
        )
        .unwrap();
        DesignPoint {
            arch,
            area_slices: area,
            clock_ns: 1.0,
            est_cycles: vec![],
            est_et_ns: et,
            cost_bound_ok: true,
        }
    }

    #[test]
    fn pareto_and_select_survive_nan_candidates() {
        // Regression: partial_cmp().unwrap() panicked on NaN area/ET. A
        // degenerate candidate must sort last, never panic, and never
        // enter the frontier ahead of finite points.
        let points = vec![
            nan_point("nan-area", f64::NAN, 100.0),
            nan_point("ok-small", 10.0, 200.0),
            nan_point("nan-et", 20.0, f64::NAN),
            nan_point("ok-fast", 30.0, 50.0),
        ];
        let pareto = pareto_indices(&points);
        assert!(pareto.contains(&1), "finite small point on frontier");
        assert!(pareto.contains(&3), "finite fast point on frontier");
        assert!(
            !pareto.contains(&2),
            "NaN-et point must not enter the frontier"
        );
        let best = select(&points, &pareto, Objective::ExecutionTime);
        assert_eq!(points[best].arch.name(), "ok-fast");
        let best = select(&points, &pareto, Objective::Area);
        assert_eq!(points[best].arch.name(), "ok-small");
    }
}
