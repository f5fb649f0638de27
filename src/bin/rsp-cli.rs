//! `rsp-cli` — command-line front end for the RSP reproduction.
//!
//! ```text
//! rsp-cli suite                          list the benchmark kernels
//! rsp-cli archs                          list the preset architectures
//! rsp-cli perf <kernel> <arch>           cycles/ET/stalls of one pair
//! rsp-cli synth <arch>                   area and clock of one preset
//! rsp-cli schedule <kernel> [arch]       render the (rearranged) schedule
//! rsp-cli explore                        run the paper's design space
//! rsp-cli verify <kernel> <arch> [seed]  simulate vs reference evaluator
//! rsp-cli anytime [--deadline-ms N] [--resume PATH]
//!                                        deep-space sweep under a deadline
//! ```
//!
//! `anytime` demonstrates the anytime layer live: one exploration of the
//! 480-candidate deep space under an optional wall-clock deadline,
//! reporting how far it got and what it found. With `--resume PATH` the
//! run starts from the checkpoint at `PATH` when the file exists and,
//! whenever it is truncated, writes its checkpoint back there, so
//! repeated invocations ratchet the sweep to completion. `--resume`
//! alone finishes a checkpointed sweep in one go.

use rsp::arch::{presets, RspArchitecture};
use rsp::core::{
    evaluate_perf, explore_resume, explore_with, rearrange, Completeness, DesignSpace,
    ExploreCheckpoint, ExploreControl, Session,
};
use rsp::kernel::{evaluate, suite, Bindings, Kernel, MemoryImage};
use rsp::mapper::{map, MapOptions};
use rsp::sim::simulate;
use rsp::synth::{AreaModel, DelayModel};
use std::path::Path;
use std::process::ExitCode;
use std::time::Duration;

fn kernels() -> Vec<Kernel> {
    let mut v = suite::all();
    v.push(suite::matmul(8));
    v
}

fn find_kernel(name: &str) -> Option<Kernel> {
    kernels()
        .into_iter()
        .find(|k| k.name().eq_ignore_ascii_case(name))
}

fn find_arch(name: &str) -> Option<RspArchitecture> {
    presets::table_architectures()
        .into_iter()
        .find(|a| a.name().eq_ignore_ascii_case(name))
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: rsp-cli <command>\n\
         \n\
         commands:\n\
         \x20 suite                          list benchmark kernels\n\
         \x20 archs                          list preset architectures\n\
         \x20 perf <kernel> <arch>           evaluate one kernel on one architecture\n\
         \x20 synth <arch>                   area/clock of one architecture\n\
         \x20 schedule <kernel> [arch]       render the schedule (default: base)\n\
         \x20 explore                        run the paper's design-space exploration\n\
         \x20 verify <kernel> <arch> [seed]  simulate and compare with the evaluator\n\
         \x20 anytime [--deadline-ms N] [--resume PATH]\n\
         \x20                                deep-space sweep under a deadline, checkpointed\n\
         \n\
         kernel names: {}\n\
         arch names:   Base RS#1..RS#4 RSP#1..RSP#4",
        kernels()
            .iter()
            .map(|k| k.name().to_string())
            .collect::<Vec<_>>()
            .join(", ")
    );
    ExitCode::FAILURE
}

/// The live anytime demo: one deep-space exploration under an optional
/// wall-clock deadline, optionally resumed from and checkpointed to
/// `--resume PATH`. Errors are one-line diagnostics.
fn anytime(args: &[String]) -> Result<(), String> {
    let mut deadline_ms: Option<u64> = None;
    let mut resume_path: Option<&str> = None;
    let mut args = args.iter();
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--deadline-ms" => {
                let ms = value?
                    .parse()
                    .map_err(|_| "--deadline-ms needs a millisecond count".to_string())?;
                deadline_ms = Some(ms);
            }
            "--resume" => resume_path = Some(value?),
            other => return Err(format!("unknown anytime argument {other:?}")),
        }
    }

    // The session assembles options and memoizes the mapped contexts —
    // the same request layer `explore` and `rsp-serve` build on.
    let session = Session::builder().build();
    let base = session.base(8, 8);
    let kernels = suite::all();
    let contexts: Vec<_> = kernels
        .iter()
        .map(|k| session.map(&base, k).map(|c| (*c).clone()))
        .collect::<Result<_, _>>()
        .map_err(|e| format!("mapping failed: {e}"))?;
    let weights = vec![1.0; kernels.len()];
    let space = DesignSpace::deep();
    let control = match deadline_ms {
        Some(ms) => ExploreControl::with_deadline(Duration::from_millis(ms)),
        None => ExploreControl::default(),
    };
    let options = session.explore_options(control);

    let checkpoint = match resume_path {
        Some(path) if Path::new(path).exists() => {
            let raw = std::fs::read_to_string(path)
                .map_err(|e| format!("cannot read checkpoint {path}: {e}"))?;
            let ckpt: ExploreCheckpoint = serde_json::from_str(&raw)
                .map_err(|e| format!("{path}: invalid checkpoint: {e}"))?;
            println!(
                "resuming from {path}: {}/{} candidates done",
                ckpt.cursor(),
                ckpt.candidates_total()
            );
            Some(ckpt)
        }
        _ => None,
    };

    let result = match &checkpoint {
        Some(ckpt) => explore_resume(&base, &kernels, &contexts, &weights, &space, &options, ckpt),
        None => explore_with(&base, &kernels, &contexts, &weights, &space, &options),
    }
    .map_err(|e| format!("anytime exploration failed: {e}"))?;

    match result.completeness {
        Completeness::Complete => println!(
            "complete: {} candidates, {} feasible, {} on the frontier, best {}",
            result.stats.candidates_seen,
            result.feasible.len(),
            result.pareto.len(),
            result.best_point().arch.name()
        ),
        Completeness::Truncated {
            candidates_remaining,
            reason,
        } => {
            let best = result
                .try_best_point()
                .map(|p| p.arch.name().to_string())
                .unwrap_or_else(|| "none yet".into());
            println!(
                "truncated ({reason:?}): {} candidates done, {} remaining, {} feasible so far, best {best}",
                result.stats.candidates_seen,
                candidates_remaining,
                result.feasible.len(),
            );
            if let Some(path) = resume_path {
                let json = serde_json::to_string_pretty(&result.checkpoint())
                    .map_err(|e| format!("checkpoint does not serialize: {e}"))?;
                std::fs::write(path, json + "\n")
                    .map_err(|e| format!("cannot write checkpoint {path}: {e}"))?;
                println!("checkpoint written to {path} — rerun with --resume {path} to continue");
            }
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = match args.first() {
        Some(c) => c.as_str(),
        None => return usage(),
    };
    match cmd {
        "suite" => {
            println!(
                "{:<14} {:>6} {:>6} {:>6} {:>10} description",
                "kernel", "iters", "ops", "mults", "style"
            );
            for k in kernels() {
                println!(
                    "{:<14} {:>6} {:>6} {:>6} {:>10} {}",
                    k.name(),
                    k.iterations(),
                    k.total_ops(),
                    k.total_mults(),
                    k.style().to_string(),
                    k.description()
                );
            }
            ExitCode::SUCCESS
        }
        "archs" => {
            let area = AreaModel::new();
            let delay = DelayModel::new();
            println!(
                "{:<6} {:>10} {:>9} {:>8} {:>9}",
                "arch", "slices", "clock", "areaR%", "delayR%"
            );
            for a in presets::table_architectures() {
                let ar = area.report(&a);
                let dr = delay.report(&a);
                println!(
                    "{:<6} {:>10.0} {:>8.2}n {:>7.1}% {:>8.1}%",
                    a.name(),
                    ar.synthesized_slices,
                    dr.clock_ns,
                    ar.reduction_pct(),
                    dr.reduction_pct()
                );
            }
            ExitCode::SUCCESS
        }
        "perf" => {
            let (Some(kn), Some(an)) = (args.get(1), args.get(2)) else {
                return usage();
            };
            let (Some(k), Some(a)) = (find_kernel(kn), find_arch(an)) else {
                eprintln!("unknown kernel or architecture");
                return ExitCode::FAILURE;
            };
            let ctx = match map(presets::base_8x8().base(), &k, &MapOptions::default()) {
                Ok(c) => c,
                Err(e) => {
                    eprintln!("mapping failed: {e}");
                    return ExitCode::FAILURE;
                }
            };
            match evaluate_perf(&ctx, &a, &DelayModel::new(), &Default::default()) {
                Ok(p) => {
                    println!(
                        "{} on {}: {} cycles @ {:.2} ns = {:.1} ns (DR {:+.1}%), {} stalls, RP +{}",
                        p.kernel,
                        p.arch,
                        p.cycles,
                        p.clock_ns,
                        p.et_ns,
                        p.dr_pct,
                        p.rs_stalls,
                        p.rp_overhead
                    );
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("evaluation failed: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        "synth" => {
            let Some(an) = args.get(1) else {
                return usage();
            };
            let Some(a) = find_arch(an) else {
                eprintln!("unknown architecture");
                return ExitCode::FAILURE;
            };
            let ar = AreaModel::new().report(&a);
            let dr = DelayModel::new().report(&a);
            println!("{a}");
            println!(
                "  area : {:.0} slices (PE {:.0} + regs {:.0} + switch {:.0}, shared {:.0}) — {:.1}% vs base",
                ar.synthesized_slices, ar.pe_slices, ar.reg_slices, ar.switch_slices,
                ar.shared_total_slices, -ar.reduction_pct()
            );
            println!(
                "  clock: {:.2} ns (PE path {:.1}, switch {:.1}, wire {:.2}) — {:.1}% vs base",
                dr.clock_ns,
                dr.pe_path_ns,
                dr.switch_ns,
                dr.wire_ns,
                -dr.reduction_pct()
            );
            ExitCode::SUCCESS
        }
        "schedule" => {
            let Some(kn) = args.get(1) else {
                return usage();
            };
            let Some(k) = find_kernel(kn) else {
                eprintln!("unknown kernel");
                return ExitCode::FAILURE;
            };
            let ctx = map(presets::base_8x8().base(), &k, &MapOptions::default())
                .expect("suite kernels map");
            let cycles = match args.get(2) {
                None => ctx.cycles().to_vec(),
                Some(an) => {
                    let Some(a) = find_arch(an) else {
                        eprintln!("unknown architecture");
                        return ExitCode::FAILURE;
                    };
                    match rearrange(&ctx, &a, &Default::default()) {
                        Ok(r) => r.cycles,
                        Err(e) => {
                            eprintln!("rearrangement failed: {e}");
                            return ExitCode::FAILURE;
                        }
                    }
                }
            };
            print!(
                "{}",
                ctx.render_schedule(&cycles, |i| i.op.mnemonic().to_string())
            );
            ExitCode::SUCCESS
        }
        "explore" => {
            // One Session assembles what used to be hand-built
            // ExploreOptions + contexts (same defaults, same results).
            let session = Session::builder().build();
            let base = session.base(8, 8);
            let ks = suite::all();
            let weights = vec![1.0; ks.len()];
            match session.explore(
                &base,
                &ks,
                &weights,
                &DesignSpace::paper(),
                Default::default(),
            ) {
                Ok(r) => {
                    println!("Pareto frontier:");
                    for p in r.pareto_points() {
                        println!(
                            "  {:<24} {:>9.0} slices  est ET {:>9.1} ns",
                            p.arch.name(),
                            p.area_slices,
                            p.est_et_ns
                        );
                    }
                    println!("selected: {}", r.best_point().arch.name());
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("exploration failed: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        "verify" => {
            let (Some(kn), Some(an)) = (args.get(1), args.get(2)) else {
                return usage();
            };
            let seed: u64 = args.get(3).and_then(|s| s.parse().ok()).unwrap_or(0xC0FFEE);
            let (Some(k), Some(a)) = (find_kernel(kn), find_arch(an)) else {
                eprintln!("unknown kernel or architecture");
                return ExitCode::FAILURE;
            };
            let ctx = map(presets::base_8x8().base(), &k, &MapOptions::default())
                .expect("suite kernels map");
            let r = rearrange(&ctx, &a, &Default::default()).expect("rearranges");
            let input = MemoryImage::random(&k, seed);
            let params = Bindings::defaults(&k);
            let sim = match simulate(
                &ctx,
                &a,
                &r.cycles,
                &r.bindings,
                &k,
                &input,
                &params,
                &Default::default(),
            ) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("simulation failed: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let reference = evaluate(&k, &input, &params).expect("evaluates");
            if sim.memory == reference {
                println!(
                    "OK: {} on {} (seed {seed}): {} ops, {} cycles, memory bit-identical",
                    k.name(),
                    a.name(),
                    sim.ops_executed,
                    sim.cycles
                );
                ExitCode::SUCCESS
            } else {
                eprintln!("MISMATCH: simulated memory differs from the reference");
                ExitCode::FAILURE
            }
        }
        "anytime" => match anytime(&args[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("rsp-cli anytime: {e}");
                ExitCode::FAILURE
            }
        },
        _ => usage(),
    }
}
