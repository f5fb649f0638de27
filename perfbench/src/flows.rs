//! The in-process workloads, `suite-flow` and `deep100-flow`: a closed
//! loop with one caller running `rsp_core::run_flow` and verifying each
//! chosen design by simulation.

use crate::inputs::{mix, FlowSpec};
use crate::stats::{median, p90_supported, peak_rss_mb, quantile, Metric, RunResult};
use rsp_core::{explore_reference, run_flow, Exploration, FlowReport};
use rsp_kernel::{evaluate, Bindings, MemoryImage};
use rsp_sim::{simulate_split, SimOptions};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 15;

/// The outputs a flow must reproduce bit for bit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlowSummary {
    /// Chosen design's name.
    pub chosen: String,
    /// Chosen design's area, as bits.
    pub area_bits: u64,
    /// Weighted exact execution time, as bits.
    pub et_bits: u64,
    /// Estimation frontier: `(name, area bits, estimated time bits)`.
    pub frontier: Vec<(String, u64, u64)>,
}

impl FlowSummary {
    /// Summarizes a flow report.
    pub fn of(report: &FlowReport) -> Self {
        FlowSummary {
            chosen: report.chosen.name().to_string(),
            area_bits: report.area_slices.to_bits(),
            et_bits: report.weighted_et_ns().to_bits(),
            frontier: frontier_of(&report.exploration),
        }
    }
}

/// An exploration's Pareto frontier as comparable bits.
pub fn frontier_of(e: &Exploration) -> Vec<(String, u64, u64)> {
    e.pareto_points()
        .map(|p| {
            (
                p.arch.name().to_string(),
                p.area_slices.to_bits(),
                p.est_et_ns.to_bits(),
            )
        })
        .collect()
}

/// Runs every critical loop's RSP contexts on the chosen design through
/// the refill-aware simulator on seeded random memory and checks the
/// final memory against the kernel evaluator. `true` when all match.
pub fn verify(report: &FlowReport, seed: u64, op: u64) -> bool {
    report
        .critical_loops
        .iter()
        .zip(&report.contexts)
        .zip(&report.rsp_contexts)
        .enumerate()
        .all(|(i, ((cl, ctx), r))| {
            let kernel = &cl.kernel;
            let input = MemoryImage::random(kernel, mix(seed, op, i as u64));
            let params = Bindings::defaults(kernel);
            let simulated = simulate_split(
                ctx,
                &report.chosen,
                &r.cycles,
                &r.bindings,
                &r.refill,
                kernel,
                &input,
                &params,
                &SimOptions::default(),
            );
            let expected = evaluate(kernel, &input, &params);
            matches!((simulated, expected), (Ok(s), Ok(e)) if s.memory == e)
        })
}

/// Runs one flow workload for `seconds` of timed operations.
///
/// `load` produces the flow's inputs (reading them from disk for
/// `suite-flow`); it is part of set-up. With `check_frontier` the
/// frontier is also checked against `explore_reference`.
pub fn run(
    load: impl Fn() -> FlowSpec,
    seed: u64,
    seconds: f64,
    check_frontier: bool,
) -> RunResult {
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut expected: Option<FlowSummary> = None;
    let mut check = |outcome: Option<FlowSummary>, failed: &mut u64| match (outcome, &expected) {
        (None, _) => *failed += 1,
        (Some(s), Some(e)) => {
            if s != *e {
                *failed += 1;
            }
        }
        (Some(s), None) => expected = Some(s),
    };

    // Set-up: inputs generated/read and parsed through the first
    // completed flow, repeated so setup_s is a median.
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut state = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let spec = load();
        let apps = spec.parse();
        let config = spec.timed_config();
        let first = run_flow(&apps, &config);
        setup_s.push(t.elapsed().as_secs_f64());
        attempted += 1;
        check(first.ok().map(|r| FlowSummary::of(&r)), &mut failed);
        state = Some((spec, apps, config));
    }
    let (spec, apps, config) = state.expect("at least one set-up");

    let mut flow_ms = Vec::new();
    let mut verify_ms = Vec::new();
    let budget = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let mut op = 0u64;
    while start.elapsed() < budget {
        attempted += 1;
        let t = Instant::now();
        let report = run_flow(black_box(&apps), &config);
        flow_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let outcome = report.ok().and_then(|r| {
            let t = Instant::now();
            let ok = verify(&r, seed, op);
            verify_ms.push(t.elapsed().as_secs_f64() * 1e3);
            ok.then(|| FlowSummary::of(&r))
        });
        check(outcome, &mut failed);
        op += 1;
    }
    let elapsed = start.elapsed().as_secs_f64();
    let peak = peak_rss_mb();

    // References, after the peak-memory reading so their memory does not
    // count: a serial unpruned flow, and for deep100 the serial
    // reference exploration. Every operation was checked against the
    // first, so a first that misses the reference fails them all.
    let reference = run_flow(&apps, &spec.reference_config()).expect("reference flow runs");
    let mut reference_ok = expected.as_ref() == Some(&FlowSummary::of(&reference));
    if check_frontier {
        let kernels: Vec<_> = reference
            .critical_loops
            .iter()
            .map(|c| c.kernel.clone())
            .collect();
        let weights: Vec<f64> = reference.critical_loops.iter().map(|c| c.weight).collect();
        let explored = explore_reference(
            &reference.base,
            &kernels,
            &reference.contexts,
            &weights,
            &config.space,
            &config.constraints,
            config.objective,
        )
        .expect("reference exploration runs");
        reference_ok &= expected.as_ref().map(|e| &e.frontier) == Some(&frontier_of(&explored));
    }
    if !reference_ok {
        eprintln!("flow output differs from the serial unpruned reference");
        failed = attempted;
    }

    let n = flow_ms.len();
    if !p90_supported(n) {
        eprintln!("note: flow_ms_p90 rests on {n} samples (fewer than ten beyond it)");
    }
    RunResult {
        attempted,
        failed,
        metrics: vec![
            Metric::over("flow_ms_p50", median(&flow_ms), "ms", n),
            Metric::over("flow_ms_p90", quantile(&flow_ms, 0.9), "ms", n),
            Metric::over("ops_per_s", n as f64 / elapsed, "1/s", n),
            Metric::over("verify_ms_p50", median(&verify_ms), "ms", verify_ms.len()),
            Metric::over("setup_s", median(&setup_s), "s", setup_s.len()),
            Metric::new("peak_rss_mb", peak, "MB"),
        ],
    }
}
