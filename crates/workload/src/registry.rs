//! The committed workload suite and its regeneration support.
//!
//! [`registry`] returns the fixed generated workloads committed as
//! textual DFG files under the repository's `workloads/` directory; the
//! `workloadgen` binary regenerates those files and
//! `workloads/README.md` documents the command and the fixed generator
//! parameters. Tests assert the committed files are bit-identical to
//! [`render_workload_file`] over [`registry`], so the directory can
//! never drift from the generators.

use crate::generators;
use crate::print::print_kernel;
use crate::random::{random_kernel, RandomKernelConfig};
use rsp_kernel::Kernel;

/// Fixed seeds of the committed random workloads (`rand_*.dfg`).
pub const RANDOM_SEEDS: [u64; 2] = [0xA11CE, 0xB0B];

/// The exploration slowdown cap (`Constraints::max_slowdown`) flows over
/// this suite run with — the single source of truth shared by the
/// anchor and flow integration tests and the `workload_flow` example,
/// so the pinned anchors always describe the space the example runs.
///
/// This is the paper's own 1.5× cap. The suite deliberately contains
/// `matmul16`, whose stalls on one-multiplier-per-row variants run an
/// order of magnitude past the base; under the earlier pessimistic
/// estimator (every excess operation charged a stall) the 1.5× cap
/// declared the whole 12-point space infeasible, and the suite ran with
/// a loosened 8× cap as a workaround. The slack-aware admissible
/// estimate never overstates elapsed cycles (`tests/admissibility.rs`),
/// so the refill-heavy two-per-row candidates now pass the honest 1.5×
/// test and reach the exact stage — which splits schedules and fails
/// only the honestly unsplittable pipelined combinations — while the
/// hopeless one-per-row variants are rejected on their true slowdown,
/// not an estimator artifact.
pub const SUITE_MAX_SLOWDOWN: f64 = 1.5;

/// The fixed generated workload suite, in file order.
///
/// Entry names (`Kernel::name`) are the `workloads/<name>.dfg` file
/// stems. The parameters are deliberately frozen — see
/// `workloads/README.md` — so benchmarks built on the suite stay
/// reproducible:
///
/// * `reduce8192x8x8` — exceeds both a 4×4 and a 6×6 array's
///   configuration cache: the kernel that forces multi-geometry flows
///   onto the paper's 8×8. Multiplication-free, so its rearranged
///   schedules never stall past the cache on any sharing variant.
/// * `matmul11` — exceeds a 4×4 but fits a 6×6 (the first geometry
///   escalation step).
/// * `matmul16` — fits the 8×8 base (207 contexts) but its *rearranged*
///   schedules outgrow the 256-deep cache on the stall-heavy sharing
///   variants (561 contexts on RS#1): the kernel that exercises the
///   configuration-cache refill path — split schedules, refill stalls,
///   and the flow's refill-aware penalties — end to end. On the 2-stage
///   pipelined (RSP) variants a multiplication is in flight across
///   every cut boundary, so those combinations are honestly
///   unsplittable and rearrangement reports it.
/// * `fir128x8`, `conv2d_12x12_3x3`, `fft64`, `reduce256x8` — element
///   counts well past 16 PEs.
/// * two seeded random DFGs ([`RANDOM_SEEDS`]).
///
/// # Examples
///
/// ```
/// let suite = rsp_workload::registry();
/// assert!(suite.iter().any(|k| k.name() == "reduce8192x8x8"));
/// ```
pub fn registry() -> Vec<Kernel> {
    let mut suite = vec![
        generators::reduction(8192, 8, 8),
        generators::matmul(11),
        generators::matmul(16),
        generators::fir(128, 8),
        generators::conv2d(12, 12, 3),
        generators::fft(64),
        generators::reduction(256, 8, 1),
    ];
    for seed in RANDOM_SEEDS {
        suite.push(random_kernel(seed, &RandomKernelConfig::default()));
    }
    suite
}

/// Renders one registry workload as its committed `workloads/` file:
/// a regeneration header plus the canonical textual DFG form.
pub fn render_workload_file(kernel: &Kernel) -> String {
    format!(
        "// generated by `cargo run -p rsp-workload --bin workloadgen` — do not edit.\n\
         // regeneration and fixed parameters: workloads/README.md\n{}",
        print_kernel(kernel)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_are_unique_file_stems() {
        let suite = registry();
        let mut names: Vec<&str> = suite.iter().map(Kernel::name).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before, "duplicate workload names");
        for n in names {
            assert!(
                n.chars().all(|c| c.is_ascii_alphanumeric() || c == '_'),
                "{n} is not a safe file stem"
            );
        }
    }

    #[test]
    fn rendered_files_parse_back_identically() {
        for k in registry() {
            let file = render_workload_file(&k);
            let parsed = crate::parse_kernel(&file).unwrap();
            assert_eq!(parsed, k, "{}", k.name());
        }
    }
}
