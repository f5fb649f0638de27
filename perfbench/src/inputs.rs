//! Seeded input generation. The program under test only ever sees what
//! these functions produce: DFG source text, flow configurations, wire
//! requests and memory images.

use rsp_arch::{ArrayGeometry, BaseArchitecture, BusSpec, PeDesign};
use rsp_core::{AppProfile, Constraints, DesignSpace, FlowConfig, PruneStrategy};
use rsp_kernel::{suite, Kernel};
use rsp_workload::{parse_kernel, print_kernel, SUITE_MAX_SLOWDOWN};
use std::path::PathBuf;

/// SplitMix64: derives independent seeds from `(seed, stream, index)`.
pub fn mix(seed: u64, stream: u64, index: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(index.wrapping_mul(0xD1B5_4A32_D192_ED69));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The committed workload directory (`workloads/` at the repository
/// root, next to this package).
pub fn workloads_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../workloads"))
}

/// The paper's 8×8 base with the engine's default configuration-cache
/// depth — what `Session::base(8, 8)` builds on the server side.
pub fn base_8x8() -> BaseArchitecture {
    BaseArchitecture::new(
        ArrayGeometry::new(8, 8),
        PeDesign::full(),
        BusSpec::paper_default(),
        FlowConfig::default().config_cache_depth,
    )
}

/// One Fig. 7 flow as the caller states it: applications as DFG source
/// text with execution counts, plus the flow settings.
#[derive(Debug, Clone)]
pub struct FlowSpec {
    /// `(application name, [(kernel DFG source, executions)])`.
    pub apps: Vec<(String, Vec<(String, u64)>)>,
    /// Candidate base geometries.
    pub geometries: Vec<(usize, usize)>,
    /// Design space explored.
    pub space: DesignSpace,
    /// Profiling coverage.
    pub coverage: f64,
    /// Exploration constraints.
    pub constraints: Constraints,
}

impl FlowSpec {
    /// `suite-flow`: every committed `workloads/*.dfg`, read from disk,
    /// as one domain.
    ///
    /// # Errors
    ///
    /// When the directory or a file cannot be read.
    pub fn suite() -> std::io::Result<Self> {
        let mut files: Vec<PathBuf> = std::fs::read_dir(workloads_dir())?
            .map(|e| e.map(|e| e.path()))
            .collect::<Result<_, _>>()?;
        files.retain(|p| p.extension().is_some_and(|x| x == "dfg"));
        files.sort();
        let mut kernels = Vec::with_capacity(files.len());
        for f in files {
            kernels.push((std::fs::read_to_string(f)?, 1));
        }
        Ok(FlowSpec {
            apps: vec![("generated-suite".into(), kernels)],
            geometries: vec![(4, 4), (6, 6), (8, 8)],
            space: DesignSpace::paper(),
            coverage: 1.0,
            constraints: Constraints {
                enforce_cost_bound: true,
                max_slowdown: SUITE_MAX_SLOWDOWN,
            },
        })
    }

    /// The paper's video application (FDCT ×99, SAD ×396, inner product
    /// ×64) as DFG source, over `space` on the 8×8.
    pub fn video(space: DesignSpace) -> Self {
        FlowSpec {
            apps: vec![("video".into(), video_sources())],
            geometries: vec![(8, 8)],
            space,
            coverage: 1.0,
            constraints: Constraints::default(),
        }
    }

    /// `deep100-flow`: the video application over `DesignSpace::deep100()`.
    pub fn deep100() -> Self {
        Self::video(DesignSpace::deep100())
    }

    /// Every kernel source, application order.
    pub fn kernel_sources(&self) -> impl Iterator<Item = &String> {
        self.apps
            .iter()
            .flat_map(|(_, ks)| ks.iter().map(|(src, _)| src))
    }

    /// Parses the applications.
    ///
    /// # Panics
    ///
    /// When a kernel source does not parse (the inputs are generated, so
    /// that is a bug here).
    pub fn parse(&self) -> Vec<AppProfile> {
        self.parse_with(|src| parse_kernel(src).expect("generated DFG source parses"))
    }

    /// Parses the applications with `parse` (the traced replay wraps it).
    pub fn parse_with(&self, mut parse: impl FnMut(&str) -> Kernel) -> Vec<AppProfile> {
        self.apps
            .iter()
            .map(|(name, ks)| {
                AppProfile::new(
                    name.clone(),
                    ks.iter().map(|(src, n)| (parse(src), *n)).collect(),
                )
            })
            .collect()
    }

    /// The flow configuration: engine defaults plus this spec's settings.
    pub fn config(&self, parallelism: Option<usize>, prune: PruneStrategy) -> FlowConfig {
        FlowConfig {
            coverage: self.coverage,
            geometries: self.geometries.clone(),
            space: self.space.clone(),
            constraints: self.constraints,
            parallelism,
            prune,
            ..FlowConfig::default()
        }
    }

    /// The configuration the timed loop runs: all cores, default pruning.
    pub fn timed_config(&self) -> FlowConfig {
        self.config(None, PruneStrategy::default())
    }

    /// The serial unpruned reference configuration.
    pub fn reference_config(&self) -> FlowConfig {
        self.config(Some(1), PruneStrategy::None)
    }
}

/// The video application's kernels as DFG source with execution counts.
pub fn video_sources() -> Vec<(String, u64)> {
    vec![
        (print_kernel(&suite::fdct()), 99),
        (print_kernel(&suite::sad()), 396),
        (print_kernel(&suite::inner_product()), 64),
    ]
}
