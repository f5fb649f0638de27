//! Workload subsystem end to end: write a kernel in the textual DFG
//! format, parse it, verify it against the simulator oracle, then run
//! the Fig. 7 flow on a generated workload suite whose multi-geometry
//! exploration genuinely selects the paper's 8×8 array.
//!
//! ```sh
//! cargo run --example workload_flow
//! ```

use rsp::core::{rearrange, AppProfile, Constraints, DesignSpace};
use rsp::kernel::{evaluate, Bindings, MemoryImage};
use rsp::mapper::{map, MapOptions};
use rsp::sim::simulate_rearranged;
use rsp::workload::{parse_kernel, print_kernel, registry, SUITE_MAX_SLOWDOWN};
use rsp::Session;

/// A hand-written workload: 16-point smoothing, `out[e] = (x[e] + x[e+1]) >> 1`.
const SMOOTH_DFG: &str = r#"
kernel "smooth16" {
  description "out[e] = (x[e] + x[e+1]) >> 1"
  elements 16
  array x[17]
  array out[16]
  body {
    n0 = load x[i], x[i + 1]   // dual load over both row read buses
    n1 = add n0, n0.hi
    n2 = asr n1, #1
    n3 = store out[i], n2
  }
}
"#;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Parse the textual DFG (diagnostics carry line/column on error).
    let smooth = parse_kernel(SMOOTH_DFG)?;
    println!("parsed            : {smooth}");

    // 2. Every workload honors the same contract: map, rearrange, and
    //    simulate bit-identical to the reference evaluator.
    let base = rsp::arch::presets::base_8x8();
    let ctx = map(base.base(), &smooth, &MapOptions::default())?;
    let rsp2 = rsp::arch::presets::rsp2();
    let rearranged = rearrange(&ctx, &rsp2, &Default::default())?;
    let input = MemoryImage::random(&smooth, 42);
    let params = Bindings::defaults(&smooth);
    let report = simulate_rearranged(&ctx, &rsp2, &rearranged, &smooth, &input, &params)?;
    assert_eq!(report.memory, evaluate(&smooth, &input, &params)?);
    println!("oracle            : RSP#2 simulation bit-identical to the evaluator");

    // 3. The canonical form round-trips: print it back out.
    println!("canonical form    :\n{}", print_kernel(&smooth));

    // 4. Run the full flow on the generated registry suite plus the
    //    hand-written kernel. reduce8192x8x8 overflows the 4×4 and 6×6
    //    configuration caches, so the exploration earns the 8×8.
    let mut kernels: Vec<_> = registry().into_iter().map(|k| (k, 1)).collect();
    kernels.push((smooth, 64));
    let apps = vec![AppProfile::new("generated-suite", kernels)];
    let session = Session::builder()
        .coverage(1.0)
        .geometries(vec![(4, 4), (6, 6), (8, 8)])
        // The suite-wide cap (rationale on the constant): matmul16's
        // refill-charged stall estimates would fail the paper's 1.5×
        // everywhere. Same cap the workload anchor tests use.
        .constraints(Constraints {
            enforce_cost_bound: true,
            max_slowdown: SUITE_MAX_SLOWDOWN,
        })
        .build();
    let flow = session.flow(&apps, DesignSpace::paper(), Default::default())?;
    println!(
        "flow              : {} critical loops, selected {}x{} base, chose {}",
        flow.critical_loops.len(),
        flow.base.geometry().rows(),
        flow.base.geometry().cols(),
        flow.chosen.name()
    );
    println!(
        "result            : {:.0} slices vs {:.0} base, weighted ET {:.1} us",
        flow.area_slices,
        flow.base_area_slices,
        flow.weighted_et_ns() / 1e3
    );
    assert_eq!(flow.base.geometry().pe_count(), 64);
    // matmul16 forces the chosen design's exact rearrangement through
    // the configuration-cache splitter: refill stalls are visible in
    // the report.
    let refills: u32 = flow.perf.iter().map(|p| p.refill_stalls).sum();
    println!("refill            : {refills} stall cycles across the chosen design's contexts");
    assert!(flow.stats.refill_segments > 0);
    Ok(())
}
