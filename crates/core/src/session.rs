//! Session state, split from the engine — the unified request layer.
//!
//! A [`Session`] owns everything that outlives one query: the memoized
//! synthesis reports ([`ModelCache`], keyed by `(geometry, plan)`), the
//! per-kernel demand profiles ([`ProfileCache`], keyed by kernel hash),
//! the mapped initial contexts, and one [`FlowConfig`] template that
//! every request inherits. The engine entry points ([`explore_with`],
//! [`run_flow`]) stay pure functions of their inputs; a session only
//! fills in the per-request design space and [`ExploreControl`], and
//! the template carries the shared caches, so repeated or concurrent
//! requests never re-synthesize a plan or re-profile a kernel they have
//! seen. Engine options come from [`FlowConfig::explore_options`] for
//! sessions and single-shot flows alike.
//!
//! Results are unaffected: cached reports and profiles are pure
//! functions of their keys, so a session-backed query is bit-identical
//! to a cold one (property-tested below and in `crates/serve`). The CLI
//! issues one request per process; `rsp-serve` keeps one session for
//! the process lifetime and answers map/explore/flow requests from many
//! clients against it.
//!
//! # Examples
//!
//! ```
//! use rsp_core::{DesignSpace, ExploreControl, Session};
//! use rsp_kernel::suite;
//!
//! let session = Session::builder().build();
//! let base = session.base(8, 8);
//! let kernels = [suite::fdct(), suite::sad()];
//! let weights = [1.0, 1.0];
//!
//! // First request synthesizes; an overlapping second request reuses
//! // every report (`session.stats().model_hits` grows).
//! for _ in 0..2 {
//!     let result = session.explore(
//!         &base,
//!         &kernels,
//!         &weights,
//!         &DesignSpace::paper(),
//!         ExploreControl::default(),
//!     )?;
//!     assert!(result.best_point().arch.plan().has_pipelining());
//! }
//! assert!(session.stats().model_hits > 0);
//! # Ok::<(), rsp_core::RspError>(())
//! ```

use crate::control::ExploreControl;
use crate::error::RspError;
use crate::estimate::ContextProfile;
use crate::explore::{explore_with, Constraints, DesignSpace, Exploration, ExploreOptions};
use crate::flow::{run_flow, AppProfile, FlowConfig, FlowReport};
use rsp_arch::{BaseArchitecture, FuKind};
use rsp_kernel::Kernel;
use rsp_mapper::{map, ConfigContext};
use rsp_obs::Recorder;
use rsp_synth::ModelCache;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::hash::Hasher;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Hashes `Debug` output directly into a [`DefaultHasher`] without
/// materializing the string. `Debug` for the hashed types is derived
/// (and floats print shortest-round-trip), so equal values hash equal
/// and distinct values collide with probability ~2⁻⁶⁴ — the usual
/// memoization trade.
struct HashWriter<'a>(&'a mut DefaultHasher);

impl std::fmt::Write for HashWriter<'_> {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.0.write(s.as_bytes());
        Ok(())
    }
}

fn fingerprint(parts: std::fmt::Arguments<'_>) -> u64 {
    // `DefaultHasher::new()` is keyed deterministically (unlike
    // `RandomState`), so fingerprints are stable within a build.
    let mut h = DefaultHasher::new();
    let _ = HashWriter(&mut h).write_fmt(parts);
    h.finish()
}

/// Thread-safe memo of [`ContextProfile`]s keyed by kernel hash (the
/// kernel, its mapped context, and the shared kinds being profiled).
/// Profiling is a pure function of that key, so sharing one cache
/// across requests — [`ExploreOptions::profiles`] /
/// [`FlowConfig::profiles`], wired automatically by [`Session`] —
/// changes nothing but the work performed.
#[derive(Debug, Default)]
pub struct ProfileCache {
    memo: Mutex<HashMap<u64, Arc<ContextProfile>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl ProfileCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// The profile for `(ctx, kernel, kinds)`, built at most once.
    pub fn get_or_build(
        &self,
        ctx: &ConfigContext,
        kernel: &Kernel,
        kinds: &[FuKind],
    ) -> Arc<ContextProfile> {
        let key = fingerprint(format_args!("{ctx:?}\u{1}{kernel:?}\u{1}{kinds:?}"));
        if let Some(hit) = self.memo.lock().unwrap().get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Arc::clone(hit);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        // Built outside the lock: profiling is the expensive part and a
        // racing duplicate build is pure, so last-write-wins is harmless.
        let profile = Arc::new(ContextProfile::new(ctx, kernel, kinds));
        self.memo
            .lock()
            .unwrap()
            .entry(key)
            .or_insert_with(|| Arc::clone(&profile));
        profile
    }

    /// Distinct `(context, kernel, kinds)` triples profiled so far.
    pub fn len(&self) -> usize {
        self.memo.lock().unwrap().len()
    }

    /// Whether nothing has been profiled yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lookups served from the memo.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that had to profile.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }
}

/// Builder for a [`Session`]: a [`FlowConfig`] template, starting from
/// the engine defaults, that every request of the session inherits.
#[derive(Debug, Clone, Default)]
pub struct SessionBuilder {
    template: FlowConfig,
}

impl SessionBuilder {
    /// Starts from the engine defaults ([`FlowConfig::default`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// Feasibility constraints.
    pub fn constraints(mut self, constraints: Constraints) -> Self {
        self.template.constraints = constraints;
        self
    }

    /// Profiling coverage for flow requests ([`FlowConfig::coverage`]).
    pub fn coverage(mut self, coverage: f64) -> Self {
        self.template.coverage = coverage;
        self
    }

    /// Candidate base geometries for flow requests.
    pub fn geometries(mut self, geometries: Vec<(usize, usize)>) -> Self {
        self.template.geometries = geometries;
        self
    }

    /// Recorder every request of this session reports to (defaults to
    /// [`rsp_obs::global`]; purely observational — see `rsp_obs` docs).
    pub fn recorder(mut self, recorder: Arc<dyn Recorder>) -> Self {
        self.template.recorder = recorder;
        self
    }

    /// Builds the session with fresh (empty) caches attached to the
    /// template.
    pub fn build(self) -> Session {
        let models = Arc::new(ModelCache::new());
        let profiles = Arc::new(ProfileCache::new());
        Session {
            template: FlowConfig {
                cache: Some(Arc::clone(&models)),
                profiles: Some(Arc::clone(&profiles)),
                ..self.template
            },
            models,
            profiles,
            contexts: Mutex::new(HashMap::new()),
            context_hits: AtomicU64::new(0),
            context_misses: AtomicU64::new(0),
            requests: AtomicU64::new(0),
        }
    }
}

/// Cache observability snapshot ([`Session::stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SessionStats {
    /// Distinct plans with synthesis reports ([`ModelCache::len`]).
    pub model_reports: usize,
    /// Synthesis-memo hits ([`ModelCache::hits`]).
    pub model_hits: u64,
    /// Synthesis-memo misses ([`ModelCache::misses`]).
    pub model_misses: u64,
    /// Distinct kernel profiles cached ([`ProfileCache::len`]).
    pub profile_entries: usize,
    /// Profile-memo hits.
    pub profile_hits: u64,
    /// Profile-memo misses.
    pub profile_misses: u64,
    /// Distinct mapped contexts cached by [`Session::map`].
    pub mapped_contexts: usize,
    /// Context-memo hits ([`Session::map`] answered from the memo).
    pub context_hits: u64,
    /// Context-memo misses ([`Session::map`] had to run the mapper).
    pub context_misses: u64,
    /// Requests answered through this session's typed entry points
    /// ([`Session::map`], [`Session::explore`], [`Session::flow`]).
    pub requests: u64,
}

/// Long-lived engine state shared by every request: the configuration
/// template plus the synthesis, profile, and mapping caches. See the module docs
/// for the session/engine split; construct via [`Session::builder`].
///
/// `Session` is `Send + Sync`: concurrent requests share the caches and
/// observe bit-identical results to serial runs.
#[derive(Debug)]
pub struct Session {
    /// Every request's configuration; carries `models` and `profiles`.
    template: FlowConfig,
    models: Arc<ModelCache>,
    profiles: Arc<ProfileCache>,
    contexts: Mutex<HashMap<u64, Arc<ConfigContext>>>,
    context_hits: AtomicU64,
    context_misses: AtomicU64,
    requests: AtomicU64,
}

impl Default for Session {
    fn default() -> Self {
        Session::builder().build()
    }
}

impl Session {
    /// Starts building a session from the engine defaults.
    pub fn builder() -> SessionBuilder {
        SessionBuilder::new()
    }

    /// The shared kernel-profile memo.
    pub fn profile_cache(&self) -> Arc<ProfileCache> {
        Arc::clone(&self.profiles)
    }

    /// Cache counters — the observable proof of cross-request sharing.
    pub fn stats(&self) -> SessionStats {
        SessionStats {
            model_reports: self.models.len(),
            model_hits: self.models.hits(),
            model_misses: self.models.misses(),
            profile_entries: self.profiles.len(),
            profile_hits: self.profiles.hits(),
            profile_misses: self.profiles.misses(),
            mapped_contexts: self.contexts.lock().unwrap().len(),
            context_hits: self.context_hits.load(Ordering::Relaxed),
            context_misses: self.context_misses.load(Ordering::Relaxed),
            requests: self.requests.load(Ordering::Relaxed),
        }
    }

    /// A base architecture with the session's configuration-cache depth
    /// (paper PE design and bus spec).
    pub fn base(&self, rows: usize, cols: usize) -> BaseArchitecture {
        self.template.base(rows, cols)
    }

    /// The [`ExploreOptions`] of this session's template
    /// ([`FlowConfig::explore_options`]), shared caches attached.
    /// `control` carries the per-request deadline / candidate budget /
    /// cancel flag.
    pub fn explore_options(&self, control: ExploreControl) -> ExploreOptions {
        self.template.explore_options(control)
    }

    /// The template with the per-request `space` and `control`.
    fn flow_config(&self, space: DesignSpace, control: ExploreControl) -> FlowConfig {
        FlowConfig {
            space,
            control,
            ..self.template.clone()
        }
    }

    /// Maps `kernel` onto `base` with the session's mapper options,
    /// memoized: repeated requests for the same `(base, kernel)` reuse
    /// the context (mapping is deterministic, so reuse is exact).
    ///
    /// # Errors
    ///
    /// [`RspError::Map`] when the kernel does not fit the base array.
    pub fn map(
        &self,
        base: &BaseArchitecture,
        kernel: &Kernel,
    ) -> Result<Arc<ConfigContext>, RspError> {
        self.requests.fetch_add(1, Ordering::Relaxed);
        let key = fingerprint(format_args!(
            "{base:?}\u{1}{kernel:?}\u{1}{:?}",
            self.template.map_options
        ));
        if let Some(hit) = self.contexts.lock().unwrap().get(&key) {
            self.context_hits.fetch_add(1, Ordering::Relaxed);
            rsp_obs::count(&*self.template.recorder, "session", "context_hit", 1);
            return Ok(Arc::clone(hit));
        }
        // A racing duplicate build counts as a miss too: hits + misses
        // always equals `map` calls exactly (see the concurrency test).
        self.context_misses.fetch_add(1, Ordering::Relaxed);
        rsp_obs::count(&*self.template.recorder, "session", "context_miss", 1);
        let ctx = Arc::new(map(base, kernel, &self.template.map_options).map_err(RspError::Map)?);
        self.contexts
            .lock()
            .unwrap()
            .entry(key)
            .or_insert_with(|| Arc::clone(&ctx));
        Ok(ctx)
    }

    /// Explores `space` for `kernels` (with weights) over `base`: maps
    /// each kernel through the session's context memo, then runs
    /// [`explore_with`] under [`Session::explore_options`]. Bit-identical
    /// to a cold [`explore_with`] call with default options.
    ///
    /// # Errors
    ///
    /// Mapping errors ([`RspError::Map`]) and exploration errors
    /// ([`RspError::NoFeasibleDesign`]) are propagated.
    pub fn explore(
        &self,
        base: &BaseArchitecture,
        kernels: &[Kernel],
        weights: &[f64],
        space: &DesignSpace,
        control: ExploreControl,
    ) -> Result<Exploration, RspError> {
        let contexts: Vec<ConfigContext> = kernels
            .iter()
            .map(|k| self.map(base, k).map(|ctx| (*ctx).clone()))
            .collect::<Result<_, _>>()?;
        self.requests.fetch_add(1, Ordering::Relaxed);
        explore_with(
            base,
            kernels,
            &contexts,
            weights,
            space,
            &self.explore_options(control),
        )
    }

    /// Runs the full Fig. 7 flow over `apps` under the session template
    /// and shared caches. Bit-identical to a cold [`run_flow`] call.
    ///
    /// # Errors
    ///
    /// Propagates [`run_flow`]'s errors.
    pub fn flow(
        &self,
        apps: &[AppProfile],
        space: DesignSpace,
        control: ExploreControl,
    ) -> Result<FlowReport, RspError> {
        self.flow_with(apps, None, space, control)
    }

    /// [`Session::flow`] with the request's own candidate base
    /// geometries in place of the template's, when given (as a served
    /// Flow request may). Counts as one request.
    ///
    /// # Errors
    ///
    /// Propagates [`run_flow`]'s errors.
    pub fn flow_with(
        &self,
        apps: &[AppProfile],
        geometries: Option<Vec<(usize, usize)>>,
        space: DesignSpace,
        control: ExploreControl,
    ) -> Result<FlowReport, RspError> {
        self.requests.fetch_add(1, Ordering::Relaxed);
        let mut config = self.flow_config(space, control);
        if let Some(geometries) = geometries {
            config.geometries = geometries;
        }
        run_flow(apps, &config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsp_kernel::suite;
    use rsp_mapper::MapOptions;

    fn kernels_and_weights() -> (Vec<Kernel>, Vec<f64>) {
        let kernels = vec![suite::fdct(), suite::sad(), suite::inner_product()];
        let weights = vec![1.0; kernels.len()];
        (kernels, weights)
    }

    /// `Debug` rendering of everything a session may not change in a
    /// flow configuration: all but the caches, space and control.
    fn engine_view(config: &FlowConfig) -> String {
        format!(
            "{:?}",
            FlowConfig {
                space: DesignSpace::paper(),
                control: ExploreControl::default(),
                cache: None,
                profiles: None,
                ..config.clone()
            }
        )
    }

    /// The same for engine options.
    fn options_view(options: &ExploreOptions) -> String {
        format!(
            "{:?}",
            ExploreOptions {
                control: ExploreControl::default(),
                cache: None,
                profiles: None,
                ..options.clone()
            }
        )
    }

    #[test]
    fn session_and_flow_share_one_engine_mapping() {
        // Defaults: the session's configuration is the engine's, field
        // for field, with its caches attached.
        let session = Session::builder().build();
        let defaults = FlowConfig::default();
        let cfg = session.flow_config(DesignSpace::deep(), ExploreControl::with_budget(7));
        assert_eq!(engine_view(&cfg), engine_view(&defaults));
        assert_eq!(
            cfg.space.candidate_count(),
            DesignSpace::deep().candidate_count()
        );
        assert_eq!(cfg.control.candidate_budget, Some(7));
        assert!(cfg.cache.is_some() && cfg.profiles.is_some());
        let opts = session.explore_options(ExploreControl::default());
        assert_eq!(
            options_view(&opts),
            options_view(&defaults.explore_options(ExploreControl::default()))
        );
        assert!(Arc::ptr_eq(opts.cache.as_ref().unwrap(), &session.models));
        assert!(Arc::ptr_eq(
            opts.profiles.as_ref().unwrap(),
            &session.profiles
        ));

        // The builder's settings reach every flow.
        let constraints = Constraints {
            enforce_cost_bound: false,
            max_slowdown: 2.0,
        };
        let custom = Session::builder()
            .coverage(1.0)
            .geometries(vec![(4, 4), (8, 8)])
            .constraints(constraints)
            .build();
        let cfg = custom.flow_config(DesignSpace::paper(), ExploreControl::default());
        let expected = FlowConfig {
            coverage: 1.0,
            geometries: vec![(4, 4), (8, 8)],
            constraints,
            ..FlowConfig::default()
        };
        assert_eq!(engine_view(&cfg), engine_view(&expected));
        assert_eq!(
            custom
                .explore_options(ExploreControl::default())
                .constraints,
            constraints
        );

        // `run_flow` and `Session::explore` hand the engine the same
        // options: their explorations carry one engine fingerprint.
        let apps = vec![AppProfile::new(
            "session-test",
            vec![(suite::fdct(), 99), (suite::sad(), 396)],
        )];
        for (session, config) in [(&session, defaults), (&custom, expected)] {
            let flow = run_flow(&apps, &config).unwrap();
            let kernels: Vec<Kernel> = flow
                .critical_loops
                .iter()
                .map(|c| c.kernel.clone())
                .collect();
            let weights: Vec<f64> = flow.critical_loops.iter().map(|c| c.weight).collect();
            let explored = session
                .explore(
                    &flow.base,
                    &kernels,
                    &weights,
                    &config.space,
                    ExploreControl::default(),
                )
                .unwrap();
            assert_eq!(explored.fingerprint, flow.exploration.fingerprint);
            assert_eq!(explored.stats, flow.exploration.stats);
            assert_eq!(explored.pareto, flow.exploration.pareto);
        }
    }

    #[test]
    fn session_explore_is_bit_identical_to_cold_engine() {
        let session = Session::builder().build();
        let base = session.base(8, 8);
        let (kernels, weights) = kernels_and_weights();
        let space = DesignSpace::paper();

        let cold_contexts: Vec<ConfigContext> = kernels
            .iter()
            .map(|k| map(&base, k, &MapOptions::default()).unwrap())
            .collect();
        let cold = explore_with(
            &base,
            &kernels,
            &cold_contexts,
            &weights,
            &space,
            &ExploreOptions::default(),
        )
        .unwrap();

        for _ in 0..2 {
            let warm = session
                .explore(&base, &kernels, &weights, &space, ExploreControl::default())
                .unwrap();
            assert_eq!(warm.feasible.len(), cold.feasible.len());
            assert_eq!(warm.pareto, cold.pareto);
            assert_eq!(warm.best, cold.best);
            for (a, b) in warm.feasible.iter().zip(&cold.feasible) {
                assert_eq!(a.arch.name(), b.arch.name());
                assert_eq!(a.area_slices.to_bits(), b.area_slices.to_bits());
                assert_eq!(a.est_et_ns.to_bits(), b.est_et_ns.to_bits());
            }
        }
    }

    #[test]
    fn repeated_requests_hit_every_cache() {
        let session = Session::builder().build();
        let base = session.base(8, 8);
        let (kernels, weights) = kernels_and_weights();
        let space = DesignSpace::paper();
        session
            .explore(&base, &kernels, &weights, &space, ExploreControl::default())
            .unwrap();
        let first = session.stats();
        assert!(first.model_reports > 0);
        assert_eq!(first.profile_entries, kernels.len());
        assert_eq!(first.mapped_contexts, kernels.len());

        session
            .explore(&base, &kernels, &weights, &space, ExploreControl::default())
            .unwrap();
        let second = session.stats();
        // Nothing new was synthesized, mapped, or profiled...
        assert_eq!(second.model_reports, first.model_reports);
        assert_eq!(second.model_misses, first.model_misses);
        assert_eq!(second.profile_entries, first.profile_entries);
        assert_eq!(second.profile_misses, first.profile_misses);
        assert_eq!(second.mapped_contexts, first.mapped_contexts);
        assert_eq!(second.context_misses, first.context_misses);
        // ...because the memos answered instead.
        assert_eq!(
            second.context_hits,
            first.context_hits + kernels.len() as u64
        );
        assert!(second.model_hits > first.model_hits);
        assert_eq!(
            second.profile_hits,
            first.profile_hits + kernels.len() as u64
        );
        assert!(second.requests > first.requests);
    }

    #[test]
    fn session_flow_is_bit_identical_to_cold_flow() {
        let apps = vec![AppProfile::new(
            "session-test",
            vec![(suite::fdct(), 99), (suite::sad(), 396)],
        )];
        let cold = run_flow(&apps, &FlowConfig::default()).unwrap();
        let session = Session::builder().build();
        for _ in 0..2 {
            let warm = session
                .flow(&apps, DesignSpace::paper(), ExploreControl::default())
                .unwrap();
            assert_eq!(warm.chosen.name(), cold.chosen.name());
            assert_eq!(warm.area_slices.to_bits(), cold.area_slices.to_bits());
            assert_eq!(
                warm.weighted_et_ns().to_bits(),
                cold.weighted_et_ns().to_bits()
            );
        }
        assert!(session.stats().model_hits > 0);
    }

    #[test]
    fn profile_cache_distinguishes_kernels_and_kinds() {
        let session = Session::builder().build();
        let base = session.base(8, 8);
        let cache = session.profile_cache();
        let ctx_fdct = session.map(&base, &suite::fdct()).unwrap();
        let ctx_sad = session.map(&base, &suite::sad()).unwrap();
        cache.get_or_build(&ctx_fdct, &suite::fdct(), &[FuKind::Multiplier]);
        cache.get_or_build(&ctx_sad, &suite::sad(), &[FuKind::Multiplier]);
        cache.get_or_build(
            &ctx_fdct,
            &suite::fdct(),
            &[FuKind::Multiplier, FuKind::Alu],
        );
        assert_eq!(cache.len(), 3);
        assert_eq!(cache.misses(), 3);
        cache.get_or_build(&ctx_fdct, &suite::fdct(), &[FuKind::Multiplier]);
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.len(), 3);
    }

    #[test]
    fn map_memo_reuses_contexts_per_base() {
        let session = Session::builder().build();
        let base8 = session.base(8, 8);
        let base4 = session.base(4, 4);
        let a = session.map(&base8, &suite::sad()).unwrap();
        let b = session.map(&base8, &suite::sad()).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        // A different base is a different key.
        let c = session.map(&base4, &suite::sad()).unwrap();
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(session.stats().mapped_contexts, 2);
        assert_eq!(session.stats().context_hits, 1);
        assert_eq!(session.stats().context_misses, 2);
    }
}
