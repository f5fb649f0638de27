//! The full Fig. 7 design flow: profile a domain's applications, extract
//! critical loops, explore RSP parameters under the eq. (2) cost bound,
//! pick a Pareto-optimal design, and report exact performance.
//!
//! ```sh
//! cargo run --example design_space_exploration
//! ```

use rsp::core::{AppProfile, DesignSpace};
use rsp::kernel::suite;
use rsp::Session;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The target domain: a video encoder plus scientific filters — the
    // kind of mixed embedded workload the paper's introduction motivates.
    let apps = vec![
        AppProfile::new(
            "H.263 encoder",
            vec![
                (suite::fdct(), 99), // one FDCT per macroblock
                (suite::sad(), 396), // motion search dominates
                (suite::mvm(), 25),
            ],
        ),
        AppProfile::new(
            "audio filterbank",
            vec![(suite::fft_mult_loop(), 128), (suite::inner_product(), 64)],
        ),
        AppProfile::new(
            "control loops",
            vec![(suite::state(), 16), (suite::hydro(), 32)],
        ),
    ];

    // A session carries the flow configuration (engine defaults: the
    // area-delay-product objective) and would share its caches across
    // further requests — see the `serve` module.
    let session = Session::builder().build();

    // stages 1..4, shr/shc 0..3
    let report = session.flow(&apps, DesignSpace::extended(), Default::default())?;

    println!("critical loops (by execution weight):");
    for c in &report.critical_loops {
        println!("  {:<14} {:>5.1}%", c.kernel.name(), 100.0 * c.weight);
    }

    println!("\nPareto frontier (area vs estimated weighted execution time):");
    for p in report.exploration.pareto_points() {
        println!(
            "  {:<24} {:>9.0} slices  {:>10.1} ns  clock {:>5.2} ns",
            p.arch.name(),
            p.area_slices,
            p.est_et_ns,
            p.clock_ns
        );
    }

    println!("\nselected: {}", report.chosen);
    println!(
        "area {:.0} slices ({:.1}% below base), weighted ET {:.1} ns (base {:.1} ns)",
        report.area_slices,
        100.0 * (1.0 - report.area_slices / report.base_area_slices),
        report.weighted_et_ns(),
        report.weighted_base_et_ns()
    );

    println!("\nexact per-kernel performance on the chosen design:");
    println!(
        "  {:<14} {:>7} {:>10} {:>8} {:>6}",
        "kernel", "cycles", "ET(ns)", "DR%", "stall"
    );
    for p in &report.perf {
        println!(
            "  {:<14} {:>7} {:>10.1} {:>7.1}% {:>6}",
            p.kernel, p.cycles, p.et_ns, p.dr_pct, p.rs_stalls
        );
    }
    Ok(())
}
