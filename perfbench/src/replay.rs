//! The traced run: one operation replayed layer by layer through the
//! layers' public calls, in the order `rsp_core::run_flow` makes them,
//! with a span around every call.
//!
//! * `workload.parse` — `rsp_workload::parse_kernel` per kernel source.
//! * `mapper.map` — `rsp_mapper::map` per candidate geometry × loop.
//! * `core.explore` — `rsp_core::explore_with`, wrapped whole.
//! * `explore.replay` — groups the same exploration's layers called in
//!   isolation: `arch.build` (`DesignSpace::plans` +
//!   `RspArchitecture::new`), `synth.area` / `synth.delay`
//!   (`ModelCache::area_report` / `clock_floor` / `reports`, cold
//!   cache), `core.profile` (`ContextProfile::new`) and `core.estimate`
//!   (`ContextProfile::estimate`). `explore.other_ms` is `core.explore`
//!   minus this group: the engine's own overhead.
//! * `core.rearrange` — `rsp_core::rearrange` per frontier point × loop,
//!   then `mapper.split` — `rsp_mapper::split_schedule` on each
//!   rearranged schedule.
//! * `sim.simulate` / `kernel.evaluate` — verification of the chosen
//!   design.
//!
//! The replay runs on one thread (`parallelism: Some(1)`), so the layer
//! times add up to the operation's time.

use crate::flows::{frontier_of, FlowSummary};
use crate::inputs::{mix, FlowSpec};
use crate::serve::{reply_bytes, session_reply, stats, Kind, Stream, POOL};
use crate::trace::Tracer;
use rsp_arch::{
    ArrayGeometry, BaseArchitecture, BusSpec, PeDesign, RspArchitecture, SharedGroup, SharingPlan,
};
use rsp_core::{
    explore_with, perf_from_rearranged_with, rearrange, ClockBound, ContextProfile, ExploreControl,
    ExploreOptions, FlowConfig, Objective, PruneStrategy, Rearranged, Session, SessionStats,
};
use rsp_kernel::{evaluate, Bindings, Kernel, MemoryImage};
use rsp_mapper::{map, split_schedule, ConfigContext};
use rsp_serve::proto::{
    ExploreRequest, Limits, MapRequest, Request, Response, SpaceSpec, StatsReply,
};
use rsp_serve::Client;
use rsp_sim::{simulate_split, SimOptions};
use rsp_synth::{AreaModel, DelayModel, ModelCache};
use rsp_workload::parse_kernel;
use std::sync::Arc;
use std::time::Instant;

/// Work counters of one replayed flow.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// Kernel sources parsed.
    pub parse_kernels: u64,
    /// `map` calls.
    pub map_calls: u64,
    /// Candidate geometries on which some loop failed to map.
    pub map_infeasible: u64,
    /// Candidate architectures built by the isolated explore replay.
    pub arch_candidates: u64,
    /// Synthesis queries.
    pub synth_calls: u64,
    /// `ContextProfile::new` calls.
    pub profile_calls: u64,
    /// `ContextProfile::estimate` calls.
    pub estimate_calls: u64,
    /// Candidates `explore_with` saw.
    pub explore_seen: u64,
    /// Candidates `explore_with` pruned.
    pub explore_pruned: u64,
    /// Estimation frontier size.
    pub frontier: u64,
    /// `rearrange` calls.
    pub rearrange_calls: u64,
    /// Frontier candidates rearranged successfully.
    pub rearranged: u64,
    /// Frontier candidates whose rearrangement failed.
    pub rearrange_failed: u64,
    /// Frontier candidates the exact-stage score cut skipped.
    pub rearrange_skipped: u64,
    /// Refill segments beyond the first, over every rearranged schedule.
    pub split_segments: u64,
    /// Refill-stall cycles over every rearranged schedule.
    pub split_stall_cycles: u64,
    /// Cycles simulated while verifying.
    pub sim_cycles: u64,
}

/// What one replayed flow produced.
#[derive(Debug, Clone)]
pub struct Replayed {
    /// Chosen design, area, time and frontier.
    pub summary: FlowSummary,
    /// Work counters.
    pub counts: Counts,
    /// Whether every split plan matched the rearranged schedule's and
    /// every simulation matched the evaluator.
    pub checks_passed: bool,
}

/// Profiling as `run_flow` does it: weight = executions × operations,
/// merged by kernel name, heaviest first, until `coverage` is reached.
fn critical_loops(apps: &[rsp_core::AppProfile], coverage: f64) -> Vec<(Kernel, f64)> {
    let mut weights: Vec<(Kernel, f64)> = Vec::new();
    for app in apps {
        for (k, count) in &app.kernels {
            let w = *count as f64 * k.total_ops() as f64;
            match weights.iter_mut().find(|(e, _)| e.name() == k.name()) {
                Some(existing) => existing.1 += w,
                None => weights.push((k.clone(), w)),
            }
        }
    }
    weights.sort_by(|a, b| b.1.total_cmp(&a.1));
    let total: f64 = weights.iter().map(|(_, w)| w).sum();
    let mut loops = Vec::new();
    let mut covered = 0.0;
    for (k, w) in weights {
        if covered >= coverage * total {
            break;
        }
        covered += w;
        loops.push((k, w / total));
    }
    loops
}

fn group_label(g: &SharedGroup) -> String {
    let tag = if g.is_pipelined() { "RSP" } else { "RS" };
    format!(
        "{:?}:{tag}(shr={},shc={},st={})",
        g.kind(),
        g.per_row(),
        g.per_col(),
        g.stages()
    )
}

fn plan_label(plan: &SharingPlan) -> String {
    plan.groups()
        .iter()
        .map(group_label)
        .collect::<Vec<_>>()
        .join("+")
}

/// Replays one flow of `spec` as operation `op`, under one root span
/// named `op`.
///
/// # Errors
///
/// When no geometry maps, or exploration or every rearrangement fails.
pub fn replay_flow(tr: &Tracer, spec: &FlowSpec, seed: u64, op: u64) -> Result<Replayed, String> {
    tr.set_op(op);
    tr.span("op", || replay(tr, spec, seed, op))
}

fn replay(tr: &Tracer, spec: &FlowSpec, seed: u64, op: u64) -> Result<Replayed, String> {
    let config = spec.config(Some(1), PruneStrategy::default());
    let mut c = Counts::default();

    let apps = spec.parse_with(|src| {
        c.parse_kernels += 1;
        tr.span("workload.parse", || parse_kernel(src))
            .expect("generated DFG source parses")
    });
    let loops = critical_loops(&apps, config.coverage);

    // Base selection as run_flow's parallel path: every geometry mapped,
    // the smallest feasible one kept.
    let mut geometries = config.geometries.clone();
    geometries.sort_by_key(|&(r, c)| r * c);
    let mut selected: Option<(BaseArchitecture, Vec<ConfigContext>)> = None;
    for (rows, cols) in geometries {
        let base = BaseArchitecture::new(
            ArrayGeometry::new(rows, cols),
            PeDesign::full(),
            BusSpec::paper_default(),
            config.config_cache_depth,
        );
        let mut contexts = Vec::with_capacity(loops.len());
        for (k, _) in &loops {
            c.map_calls += 1;
            match tr.span("mapper.map", || map(&base, k, &config.map_options)) {
                Ok(ctx) => contexts.push(ctx),
                Err(_) => break,
            }
        }
        if contexts.len() < loops.len() {
            c.map_infeasible += 1;
        } else if selected.is_none() {
            selected = Some((base, contexts));
        }
    }
    let (base, contexts) = selected.ok_or("no candidate geometry maps every loop")?;
    let kernels: Vec<Kernel> = loops.iter().map(|(k, _)| k.clone()).collect();
    let weights: Vec<f64> = loops.iter().map(|(_, w)| *w).collect();

    let options = ExploreOptions {
        parallelism: Some(1),
        prune: config.prune,
        bound: config.bound,
        clock_bound: config.clock_bound,
        constraints: config.constraints,
        objective: config.objective,
        cache: None,
        profiles: None,
        control: ExploreControl::default(),
        recorder: Arc::clone(&config.recorder),
    };
    let exploration = tr
        .span("core.explore", || {
            explore_with(
                &base,
                &kernels,
                &contexts,
                &weights,
                &config.space,
                &options,
            )
        })
        .map_err(|e| e.to_string())?;
    c.explore_seen = exploration.stats.candidates_seen as u64;
    c.explore_pruned = exploration.stats.candidates_pruned as u64;
    c.frontier = exploration.pareto.len() as u64;

    tr.span("explore.replay", || {
        explore_layers(tr, &base, &kernels, &contexts, &weights, &config, &mut c)
    });

    // Exact stage, as run_flow: ascending-area frontier, best exact
    // objective score wins, earliest on ties.
    let delay = DelayModel::new();
    let depth = base.config_cache_depth() as u32;
    let score_of = |area: f64, et: f64| match config.objective {
        Objective::AreaDelayProduct => area * et,
        Objective::ExecutionTime => et,
        Objective::Area => area,
    };
    let mut checks_passed = true;
    let mut best: Option<(usize, f64, f64, Vec<Rearranged>)> = None;
    for (ci, point) in exploration.pareto_points().enumerate() {
        if config.prune == PruneStrategy::Dominated {
            let mut floor = 0.0;
            for (est, (_, w)) in point.est_cycles.iter().zip(&loops) {
                floor += *est as f64 * point.clock_ns * w;
            }
            if best
                .as_ref()
                .is_some_and(|b| score_of(point.area_slices, floor).total_cmp(&b.1).is_ge())
            {
                c.rearrange_skipped += 1;
                continue;
            }
        }
        c.synth_calls += 1;
        let report = tr.span("synth.delay", || delay.report(&point.arch));
        let mut rearranged = Vec::with_capacity(contexts.len());
        for ctx in &contexts {
            c.rearrange_calls += 1;
            rearranged.push(tr.span("core.rearrange", || {
                rearrange(ctx, &point.arch, &config.rearrange_options)
            }));
        }
        let Ok(rearranged) = rearranged.into_iter().collect::<Result<Vec<_>, _>>() else {
            c.rearrange_failed += 1;
            continue;
        };
        c.rearranged += 1;
        let mut exact_et = 0.0;
        for ((ctx, r), (_, w)) in contexts.iter().zip(&rearranged).zip(&loops) {
            let latency = |i: usize| u32::from(point.arch.op_latency(ctx.instances()[i].op));
            let plan = tr.span("mapper.split", || {
                split_schedule(ctx, &r.cycles, latency, depth)
            });
            checks_passed &= plan.as_ref().ok() == Some(&r.refill);
            c.split_segments += r.refill_count() as u64;
            c.split_stall_cycles += u64::from(r.refill_stalls());
            exact_et += perf_from_rearranged_with(ctx, &point.arch, &report, r).et_ns * w;
        }
        let score = score_of(point.area_slices, exact_et);
        if best.as_ref().is_none_or(|b| score.total_cmp(&b.1).is_lt()) {
            best = Some((ci, score, exact_et, rearranged));
        }
    }
    let (best_ci, _, exact_et, rearranged) = best.ok_or("every frontier candidate failed")?;
    let chosen = exploration
        .pareto_points()
        .nth(best_ci)
        .expect("best index is on the frontier")
        .arch
        .clone();
    c.synth_calls += 1;
    let area = tr.span("synth.area", || AreaModel::new().report(&chosen));

    // Verification of the chosen design.
    for (i, (((kernel, _), ctx), r)) in loops.iter().zip(&contexts).zip(&rearranged).enumerate() {
        let input = MemoryImage::random(kernel, mix(seed, op, i as u64));
        let params = Bindings::defaults(kernel);
        let simulated = tr.span("sim.simulate", || {
            simulate_split(
                ctx,
                &chosen,
                &r.cycles,
                &r.bindings,
                &r.refill,
                kernel,
                &input,
                &params,
                &SimOptions::default(),
            )
        });
        let expected = tr.span("kernel.evaluate", || evaluate(kernel, &input, &params));
        match (simulated, expected) {
            (Ok(s), Ok(e)) => {
                c.sim_cycles += u64::from(s.cycles);
                checks_passed &= s.memory == e;
            }
            _ => checks_passed = false,
        }
    }

    Ok(Replayed {
        summary: FlowSummary {
            chosen: chosen.name().to_string(),
            area_bits: area.synthesized_slices.to_bits(),
            et_bits: exact_et.to_bits(),
            frontier: frontier_of(&exploration),
        },
        counts: c,
        checks_passed,
    })
}

/// The exploration's layers called in isolation, per candidate in
/// enumeration order, as the engine's candidate pipeline calls them.
fn explore_layers(
    tr: &Tracer,
    base: &BaseArchitecture,
    kernels: &[Kernel],
    contexts: &[ConfigContext],
    weights: &[f64],
    config: &FlowConfig,
    c: &mut Counts,
) {
    let models = ModelCache::new();
    let kinds = config.space.kinds_used();
    let profiles: Vec<ContextProfile> = contexts
        .iter()
        .zip(kernels)
        .map(|(ctx, k)| {
            c.profile_calls += 1;
            tr.span("core.profile", || ContextProfile::new(ctx, k, &kinds))
        })
        .collect();
    let base = Arc::new(base.clone());
    let depth = base.config_cache_depth() as u32;
    let base_arch = tr
        .span("arch.build", || {
            RspArchitecture::new("Base", Arc::clone(&base), SharingPlan::none())
        })
        .expect("the base plan is valid");
    c.synth_calls += 1;
    let base_clock = tr
        .span("synth.delay", || models.reports(&base_arch))
        .1
        .clock_ns;
    let base_et: f64 = contexts
        .iter()
        .zip(weights)
        .map(|(ctx, w)| w * ctx.total_cycles() as f64 * base_clock)
        .sum();
    let et_bound = config.constraints.max_slowdown * base_et;
    let floor_cut =
        config.prune != PruneStrategy::None && config.clock_bound == ClockBound::StageFloor;

    let mut plans = config.space.plans();
    loop {
        let built = tr.span("arch.build", || {
            plans
                .next()
                .map(|plan| RspArchitecture::new(plan_label(&plan), Arc::clone(&base), plan))
        });
        let Some(built) = built else { break };
        c.arch_candidates += 1;
        let Ok(arch) = built else { continue };
        c.synth_calls += 1;
        let area = tr.span("synth.area", || models.area_report(&arch));
        if config.constraints.enforce_cost_bound && !area.satisfies_cost_bound() {
            continue;
        }
        let mut cycles = Vec::with_capacity(profiles.len());
        for p in &profiles {
            c.estimate_calls += 1;
            cycles.push(
                tr.span("core.estimate", || p.estimate(arch.plan(), depth))
                    .total_cycles,
            );
        }
        if floor_cut {
            c.synth_calls += 1;
            let floor = tr.span("synth.delay", || models.clock_floor(&arch));
            let floor_et: f64 = cycles
                .iter()
                .zip(weights)
                .map(|(cy, w)| w * *cy as f64 * floor)
                .sum();
            if floor_et > et_bound {
                continue;
            }
        }
        c.synth_calls += 1;
        tr.span("synth.delay", || models.reports(&arch));
    }
}

/// What the session-and-wire replay measured.
#[derive(Debug, Clone, Default)]
pub struct WireReplay {
    /// In-process `Session::flow` times, ms.
    pub session_flow_ms: Vec<f64>,
    /// Per request: wire round trip minus the in-process session time.
    pub wire_ms: Vec<f64>,
    /// Wire round trips of Map requests, ms.
    pub map_ms: Vec<f64>,
    /// Wire round trips of Explore requests, ms.
    pub explore_ms: Vec<f64>,
    /// Requests replayed.
    pub requests: u64,
    /// Wire replies that differed from the in-process session's, or
    /// were errors.
    pub mismatches: u64,
    /// The in-process session's cache counters afterwards.
    pub session: SessionStats,
    /// The server's `Stats` reply afterwards.
    pub server: Option<StatsReply>,
}

/// Sends each request through an in-process `session` and then over the
/// wire through `client` (a server whose own session has seen the same
/// requests), recording `core.session` and `serve.wire` spans.
pub fn replay_requests(
    tr: &Tracer,
    session: &Session,
    client: &mut Client,
    requests: &[Request],
    out: &mut WireReplay,
) {
    for request in requests {
        let t = Instant::now();
        let local = tr.span("core.session", || session_reply(session, request));
        let session_ms = t.elapsed().as_secs_f64() * 1e3;
        let t = Instant::now();
        let wire = tr.span("serve.wire", || client.call(request.clone()));
        let wire_ms = t.elapsed().as_secs_f64() * 1e3;
        out.requests += 1;
        out.wire_ms.push(wire_ms - session_ms);
        match request {
            Request::Map(_) => out.map_ms.push(wire_ms),
            Request::Explore(_) => out.explore_ms.push(wire_ms),
            Request::Flow(_) => out.session_flow_ms.push(session_ms),
            _ => {}
        }
        let same = match (&local, wire) {
            (Response::Error(_), _) | (_, Err(_)) => false,
            (local, Ok(wire)) => reply_bytes(local) == reply_bytes(&wire),
        };
        if !same {
            out.mismatches += 1;
        }
    }
}

/// The requests a flow workload sends over the wire in its traced run:
/// each kernel mapped at 8×8, then all of them explored over the paper
/// space.
pub fn flow_workload_requests(spec: &FlowSpec) -> Vec<Request> {
    let mut requests: Vec<Request> = spec
        .kernel_sources()
        .map(|src| {
            Request::Map(MapRequest {
                kernel: src.clone(),
                rows: 8,
                cols: 8,
            })
        })
        .collect();
    requests.push(Request::Explore(ExploreRequest {
        kernels: spec.kernel_sources().cloned().collect(),
        weights: None,
        rows: 8,
        cols: 8,
        space: SpaceSpec::Paper,
        limits: Limits::none(),
    }));
    requests
}

/// Requests of the `serve-mixed` stream replayed in its traced run.
pub const STREAM_REPLAY: u64 = 48;

/// The session-and-wire replay of a workload: a fresh server and a
/// fresh in-process session see the same requests in the same order, so
/// their memos stay in step. For `serve-mixed` both are warmed with the
/// pool and then replay the stream's first [`STREAM_REPLAY`] requests;
/// a flow workload sends [`flow_workload_requests`] and runs its flow
/// through `Session::flow` `flows` times.
pub fn replay_wire(
    tr: &Tracer,
    spec: &FlowSpec,
    stream: Option<&Stream>,
    flows: usize,
) -> WireReplay {
    let session = Session::builder()
        .coverage(spec.coverage)
        .geometries(spec.geometries.clone())
        .constraints(spec.constraints)
        .build();
    let server = crate::serve::spawn_server();
    let mut client = Client::connect(server.addr()).expect("connect");
    let mut out = WireReplay::default();
    match stream {
        Some(stream) => {
            let warm: Vec<Request> = (0..POOL)
                .flat_map(|j| [Kind::Map, Kind::Explore].map(|k| stream.pool_request(k, j)))
                .collect();
            let mut warm_out = WireReplay::default();
            replay_requests(
                &Tracer::disabled(),
                &session,
                &mut client,
                &warm,
                &mut warm_out,
            );
            out.mismatches += warm_out.mismatches;
            let requests: Vec<Request> = (0..STREAM_REPLAY).map(|i| stream.request(i).2).collect();
            replay_requests(tr, &session, &mut client, &requests, &mut out);
        }
        None => {
            replay_requests(
                tr,
                &session,
                &mut client,
                &flow_workload_requests(spec),
                &mut out,
            );
            let apps = spec.parse();
            for _ in 0..flows {
                let t = Instant::now();
                let flow = tr.span("core.session", || {
                    session.flow(&apps, spec.space.clone(), ExploreControl::default())
                });
                out.session_flow_ms.push(t.elapsed().as_secs_f64() * 1e3);
                if flow.is_err() {
                    out.mismatches += 1;
                }
            }
        }
    }
    out.session = session.stats();
    out.server = Some(stats(&mut client));
    drop(client);
    server.shutdown();
    out
}
