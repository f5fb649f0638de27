//! Memoized synthesis reports for design-space exploration.
//!
//! Area and clock reports depend only on the candidate's geometry and
//! [`SharingPlan`] — for the paper's single-group spaces that is the
//! `(kind, shr, shc, stages)` tuple — not on the kernels being explored.
//! A [`ModelCache`] shared across repeated explorations of the same base
//! (a session, a server) therefore synthesizes each distinct plan
//! exactly once, even when candidate evaluation fans out over threads.
//!
//! The memo pays only when it is shared across calls. One design space
//! lists each plan once, so a cache private to one exploration never
//! hits, and even a hit — hashing the plan, locking, copying the report
//! — costs more than the Table 1 models it replaces. The exploration
//! engine therefore calls the models directly when no cache is passed.
//! For the same reason the cache holds one map of full reports only:
//! area-only queries and clock floors go to the models unless a full
//! report already answers them, so what the cache has seen never
//! changes a bound.

use crate::area::{AreaModel, AreaReport};
use crate::delay::{DelayModel, DelayReport};
use rsp_arch::{ArrayGeometry, RspArchitecture, SharingPlan};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Thread-safe memo of [`AreaModel`]/[`DelayModel`] reports keyed by
/// `(geometry, plan)`.
///
/// Share one across calls that revisit plans; for a single pass over a
/// space, call the models directly (see the module docs).
///
/// The cache assumes every queried architecture uses the same base PE
/// design and component library (true within one exploration); geometry
/// participates in the key so multi-geometry flows stay correct.
#[derive(Debug, Default)]
pub struct ModelCache {
    area: AreaModel,
    delay: DelayModel,
    #[allow(clippy::type_complexity)]
    memo: Mutex<HashMap<(ArrayGeometry, SharingPlan), (AreaReport, DelayReport)>>,
    /// Queries answered from the memo ([`ModelCache::reports`] and
    /// [`ModelCache::area_report`]) — the observable proof that sharing
    /// one cache across explorations (or server requests) actually
    /// avoids re-synthesis.
    hits: AtomicU64,
    /// [`ModelCache::reports`] queries answered by synthesizing.
    misses: AtomicU64,
}

impl ModelCache {
    /// Cache over the paper's Table 1 models.
    pub fn new() -> Self {
        Self::default()
    }

    /// Cache over custom models.
    pub fn with_models(area: AreaModel, delay: DelayModel) -> Self {
        Self {
            area,
            delay,
            ..Self::default()
        }
    }

    /// The underlying area model.
    pub fn area_model(&self) -> &AreaModel {
        &self.area
    }

    /// The underlying delay model.
    pub fn delay_model(&self) -> &DelayModel {
        &self.delay
    }

    /// Both reports for `arch`, computed once per `(geometry, plan)`.
    ///
    /// # Examples
    ///
    /// ```
    /// use rsp_arch::presets;
    /// use rsp_synth::ModelCache;
    ///
    /// let cache = ModelCache::new();
    /// let (area, delay) = cache.reports(&presets::rsp2());
    /// assert!(area.satisfies_cost_bound());
    /// assert!(delay.clock_ns < 26.0);
    /// // Identical plan: served from the memo.
    /// assert_eq!(cache.reports(&presets::rsp2()).0, area);
    /// ```
    pub fn reports(&self, arch: &RspArchitecture) -> (AreaReport, DelayReport) {
        let key = (arch.geometry(), arch.plan().clone());
        if let Some(hit) = self.memo.lock().unwrap().get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return *hit;
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        // Computed outside the lock: synthesis is the expensive part and
        // duplicate computation on a race is harmless (reports are pure).
        let reports = (self.area.report(arch), self.delay.report(arch));
        self.memo.lock().unwrap().insert(key, reports);
        reports
    }

    /// Area report only, for passes that need every candidate's area
    /// before (or without) its delay, such as the exploration engine's
    /// area-ordered candidate enumeration. Served from the memo when a
    /// full report exists; otherwise the area model answers directly and
    /// nothing is memoized (the model is cheaper than a memo entry).
    pub fn area_report(&self, arch: &RspArchitecture) -> AreaReport {
        let key = (arch.geometry(), arch.plan().clone());
        if let Some(hit) = self.memo.lock().unwrap().get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return hit.0;
        }
        self.area.report(arch)
    }

    /// Admissible lower bound on `arch`'s clock period: the structural
    /// [`DelayModel::clock_floor_ns`], computed from the sharing plan
    /// alone without delay synthesis or a memo lookup. Exploration
    /// engines call this before [`ModelCache::reports`] so candidates
    /// whose clock floor already proves them infeasible never pay for
    /// synthesis. The floor never depends on what the cache has seen, so
    /// prune decisions are the same for a cold and a warm cache.
    pub fn clock_floor(&self, arch: &RspArchitecture) -> f64 {
        self.delay.clock_floor_ns(arch.plan())
    }

    /// Number of distinct plans with reports so far.
    pub fn len(&self) -> usize {
        self.memo.lock().unwrap().len()
    }

    /// Whether no report has been computed yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Memo hits so far across [`ModelCache::reports`] and
    /// [`ModelCache::area_report`]. A cache shared across repeated
    /// explorations (or concurrent server requests) shows hits growing
    /// while [`ModelCache::len`] stays at the number of distinct plans —
    /// the cross-request reuse proof the serve tests assert.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// [`ModelCache::reports`] queries answered by synthesizing
    /// (approximately one per distinct plan; a benign race may
    /// synthesize a plan twice). Area-only queries the model answers
    /// directly are not counted.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsp_arch::presets;

    #[test]
    fn memoizes_by_plan() {
        let cache = ModelCache::new();
        for _ in 0..3 {
            cache.reports(&presets::rsp2());
            cache.reports(&presets::rs1());
        }
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn reports_match_direct_models() {
        let cache = ModelCache::new();
        for arch in presets::table_architectures() {
            let (a, d) = cache.reports(&arch);
            assert_eq!(a, AreaModel::new().report(&arch));
            assert_eq!(d, DelayModel::new().report(&arch));
        }
    }

    #[test]
    fn area_fast_path_matches_full_reports() {
        let cache = ModelCache::new();
        for arch in presets::table_architectures() {
            // Before a full report exists the area model answers
            // directly, and nothing is memoized.
            let fast = cache.area_report(&arch);
            assert_eq!(fast, AreaModel::new().report(&arch));
            assert!(cache.is_empty());
            assert_eq!(cache.hits(), 0);
        }
        for arch in presets::table_architectures() {
            let (full, _) = cache.reports(&arch);
            assert_eq!(full, AreaModel::new().report(&arch));
            // Once the full report exists, the fast path reads it.
            let hits = cache.hits();
            assert_eq!(cache.area_report(&arch), full);
            assert_eq!(cache.hits(), hits + 1);
        }
    }

    #[test]
    fn clock_floor_is_admissible() {
        let cache = ModelCache::new();
        for arch in presets::table_architectures() {
            let floor = cache.clock_floor(&arch);
            let (_, delay) = cache.reports(&arch);
            assert!(
                floor <= delay.clock_ns,
                "{}: floor {} > clock {}",
                arch.name(),
                floor,
                delay.clock_ns
            );
            // The floor is structural: a synthesized plan keeps it.
            assert_eq!(cache.clock_floor(&arch).to_bits(), floor.to_bits());
        }
    }

    #[test]
    fn hit_and_miss_counters_track_reuse() {
        let cache = ModelCache::new();
        assert_eq!((cache.hits(), cache.misses()), (0, 0));
        cache.reports(&presets::rsp2());
        assert_eq!((cache.hits(), cache.misses()), (0, 1));
        cache.reports(&presets::rsp2());
        cache.area_report(&presets::rsp2());
        assert_eq!((cache.hits(), cache.misses()), (2, 1));
        // An area-only query for an unseen plan goes to the model and
        // counts as neither; the full query that follows is the miss.
        cache.area_report(&presets::rs1());
        assert_eq!((cache.hits(), cache.misses()), (2, 1));
        cache.reports(&presets::rs1());
        assert_eq!((cache.hits(), cache.misses()), (2, 2));
    }

    #[test]
    fn geometry_participates_in_key() {
        let cache = ModelCache::new();
        cache.reports(&presets::base_8x8());
        cache.reports(&presets::fig1_4x4());
        assert_eq!(cache.len(), 2);
    }
}
