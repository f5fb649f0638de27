//! End-to-end and per-layer benchmark of the Fig. 7 flow and `rsp-serve`.
//!
//! See `README.md` in this package for the workloads, the metrics and
//! how they relate. [`run`] is the whole benchmark behind the binary.

pub mod flows;
pub mod inputs;
pub mod replay;
pub mod serve;
pub mod stats;
pub mod trace;
pub mod traced;

use inputs::FlowSpec;
use stats::RunResult;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `run_flow` over the committed `workloads/*.dfg` (rearrange-heavy).
    SuiteFlow,
    /// `run_flow` of the video application over `DesignSpace::deep100()`
    /// (explore-heavy).
    Deep100Flow,
    /// Map/Explore/Flow requests against one `rsp-serve` server.
    ServeMixed,
}

impl Workload {
    /// Every workload, `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::SuiteFlow,
        Workload::Deep100Flow,
        Workload::ServeMixed,
    ];

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SuiteFlow => "suite-flow",
            Workload::Deep100Flow => "deep100-flow",
            Workload::ServeMixed => "serve-mixed",
        }
    }

    /// Looks a workload up by name.
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Runs one workload for `seconds`: end-to-end metrics untraced, or the
/// per-layer metrics of the traced replay with `trace`.
pub fn run(workload: Workload, seed: u64, seconds: f64, trace: bool) -> RunResult {
    if trace {
        return traced::run(workload, seed, seconds);
    }
    match workload {
        Workload::SuiteFlow => flows::run(
            || FlowSpec::suite().expect("read the committed workloads"),
            seed,
            seconds,
            false,
        ),
        Workload::Deep100Flow => flows::run(FlowSpec::deep100, seed, seconds, true),
        Workload::ServeMixed => serve::run(seed, seconds),
    }
}
