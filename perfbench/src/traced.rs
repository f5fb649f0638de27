//! The traced run (`--trace 1`): replays the workload's operation layer
//! by layer ([`crate::replay`]) and reports per-layer metrics, medians
//! over the replayed operations.

use crate::flows::FlowSummary;
use crate::inputs::FlowSpec;
use crate::replay::{replay_flow, replay_wire, Replayed, WireReplay};
use crate::serve::Stream;
use crate::stats::{median, Metric, RunResult};
use crate::trace::{layer_totals, top_layer, LayerTotal, Tracer};
use crate::Workload;
use rsp_core::{run_flow, DesignSpace, FlowStats};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Fewest replayed operations per traced run.
const MIN_REPS: u64 = 3;
/// Most replayed operations per traced run.
const MAX_REPS: u64 = 15;
/// Session flows a flow workload's wire replay runs.
const SESSION_FLOWS: usize = 3;
/// Spans that group other spans rather than wrap a layer call.
pub const GROUPS: [&str; 2] = ["op", "explore.replay"];

/// The flow a workload's traced run replays.
pub fn replay_spec(workload: Workload) -> FlowSpec {
    match workload {
        Workload::SuiteFlow => FlowSpec::suite().expect("read the committed workloads"),
        Workload::Deep100Flow => FlowSpec::deep100(),
        Workload::ServeMixed => FlowSpec::video(DesignSpace::paper()),
    }
}

/// Whether a replay reached what `run_flow` reached: same chosen
/// design, frontier and exact-stage work, with every check passing.
pub fn replay_matches(replayed: &Replayed, summary: &FlowSummary, stats: &FlowStats) -> bool {
    let c = &replayed.counts;
    replayed.checks_passed
        && replayed.summary == *summary
        && c.rearranged == stats.rearranged_candidates as u64
        && c.rearrange_failed == stats.rearrangements_failed as u64
        && c.rearrange_skipped == stats.rearrangements_skipped as u64
}

/// Everything a traced run collected.
pub struct TraceRun {
    /// Per-op layer totals, one map per replayed operation.
    pub layers: Vec<BTreeMap<&'static str, LayerTotal>>,
    /// Per-op counters.
    pub replays: Vec<Replayed>,
    /// Untraced replay times, ms.
    pub untraced_ms: Vec<f64>,
    /// The session-and-wire replay.
    pub wire: WireReplay,
    /// Operations attempted and failed.
    pub attempted: u64,
    /// Operations whose outputs did not match.
    pub failed: u64,
}

/// Replays `workload` for about `seconds`.
pub fn collect(workload: Workload, seed: u64, seconds: f64) -> TraceRun {
    let spec = replay_spec(workload);
    let reference = run_flow(&spec.parse(), &spec.timed_config()).expect("flow runs");
    let summary = FlowSummary::of(&reference);

    let tracer = Tracer::new();
    let off = Tracer::disabled();
    let budget = Duration::from_secs_f64(seconds * 0.7);
    let start = Instant::now();
    let mut run = TraceRun {
        layers: Vec::new(),
        replays: Vec::new(),
        untraced_ms: Vec::new(),
        wire: WireReplay::default(),
        attempted: 0,
        failed: 0,
    };
    let mut op = 0u64;
    let mut ok_ops = Vec::new();
    while op < MIN_REPS || (op < MAX_REPS && start.elapsed() < budget) {
        // Traced and untraced replays alternate so drift hits both.
        let traced = replay_flow(&tracer, &spec, seed, op);
        let t = Instant::now();
        let untraced = replay_flow(&off, &spec, seed, op);
        run.untraced_ms.push(t.elapsed().as_secs_f64() * 1e3);
        for r in [&traced, &untraced] {
            run.attempted += 1;
            if !r
                .as_ref()
                .is_ok_and(|r| replay_matches(r, &summary, &reference.stats))
            {
                run.failed += 1;
            }
        }
        if let Ok(r) = traced {
            run.replays.push(r);
            ok_ops.push(op);
        }
        op += 1;
    }
    let wire_op = op;
    tracer.set_op(wire_op);
    let stream = (workload == Workload::ServeMixed).then(|| Stream::new(seed));
    run.wire = replay_wire(&tracer, &spec, stream.as_ref(), SESSION_FLOWS);
    run.attempted += run.wire.requests;
    run.failed += run.wire.mismatches;

    let spans = tracer.spans();
    run.layers = ok_ops.iter().map(|&op| layer_totals(&spans, op)).collect();
    run
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn hit_rate(hits: u64, misses: u64) -> f64 {
    if hits + misses == 0 {
        0.0
    } else {
        hits as f64 / (hits + misses) as f64
    }
}

impl TraceRun {
    /// Median over operations of `f` applied to each op's layer totals
    /// and counters.
    fn per_op(&self, f: impl Fn(&BTreeMap<&'static str, LayerTotal>, &Replayed) -> f64) -> f64 {
        let values: Vec<f64> = self
            .layers
            .iter()
            .zip(&self.replays)
            .map(|(l, r)| f(l, r))
            .collect();
        median(&values)
    }

    /// Median self time of `layer`, ms.
    pub fn self_ms(&self, layer: &str) -> f64 {
        self.per_op(|l, _| l.get(layer).map_or(0.0, |t| ms(t.self_ns)))
    }

    /// Median inclusive time of `layer`, ms.
    pub fn inclusive_ms(&self, layer: &str) -> f64 {
        self.per_op(|l, _| l.get(layer).map_or(0.0, |t| ms(t.inclusive_ns)))
    }

    /// The layer with the largest median self time, groups excluded.
    pub fn top_layer(&self) -> Option<&'static str> {
        let mut medians: BTreeMap<&'static str, LayerTotal> = BTreeMap::new();
        for name in self.layers.iter().flat_map(|l| l.keys()) {
            medians.entry(name).or_insert(LayerTotal {
                self_ns: (self.self_ms(name) * 1e6) as u64,
                ..LayerTotal::default()
            });
        }
        top_layer(&medians, &GROUPS)
    }

    /// Every per-layer metric, `BENCHMARK.json` order.
    pub fn metrics(&self) -> Vec<Metric> {
        let n = self.replays.len();
        let count = |name: &str, f: fn(&crate::replay::Counts) -> u64| {
            Metric::over(name, self.per_op(|_, r| f(&r.counts) as f64), "count", n)
        };
        let layer = |name: &str, layer: &str| Metric::over(name, self.self_ms(layer), "ms", n);
        let rearrange_us = self.per_op(|l, r| {
            l.get("core.rearrange")
                .map_or(0.0, |t| t.self_ns as f64 / 1e3)
                / r.counts.rearrange_calls.max(1) as f64
        });
        let sim_ns = self.per_op(|l, r| {
            l.get("sim.simulate").map_or(0.0, |t| t.self_ns as f64)
                / r.counts.sim_cycles.max(1) as f64
        });
        let prune_ratio = self
            .per_op(|_, r| r.counts.explore_pruned as f64 / r.counts.explore_seen.max(1) as f64);
        let traced_ms = self.inclusive_ms("op");
        let untraced_ms = median(&self.untraced_ms);
        let w = &self.wire;
        let s = &w.session;
        let server = w.server.as_ref();
        vec![
            layer("parse.ms", "workload.parse"),
            count("parse.kernels", |c| c.parse_kernels),
            layer("map.ms", "mapper.map"),
            count("map.calls", |c| c.map_calls),
            count("map.infeasible", |c| c.map_infeasible),
            layer("arch.ms", "arch.build"),
            count("arch.candidates", |c| c.arch_candidates),
            layer("synth.area_ms", "synth.area"),
            layer("synth.delay_ms", "synth.delay"),
            count("synth.calls", |c| c.synth_calls),
            layer("profile.ms", "core.profile"),
            count("profile.calls", |c| c.profile_calls),
            layer("estimate.ms", "core.estimate"),
            count("estimate.calls", |c| c.estimate_calls),
            layer("explore.ms", "core.explore"),
            Metric::over(
                "explore.other_ms",
                self.per_op(|l, _| {
                    let inc = |name: &str| l.get(name).map_or(0.0, |t| ms(t.inclusive_ns));
                    inc("core.explore") - inc("explore.replay")
                }),
                "ms",
                n,
            ),
            count("explore.candidates_seen", |c| c.explore_seen),
            count("explore.candidates_pruned", |c| c.explore_pruned),
            Metric::over("explore.prune_ratio", prune_ratio, "ratio", n),
            count("explore.frontier", |c| c.frontier),
            layer("rearrange.ms", "core.rearrange"),
            count("rearrange.calls", |c| c.rearrange_calls),
            Metric::over("rearrange.us_per_call", rearrange_us, "us", n),
            count("rearrange.failed", |c| c.rearrange_failed),
            count("rearrange.skipped", |c| c.rearrange_skipped),
            layer("split.ms", "mapper.split"),
            count("split.segments", |c| c.split_segments),
            count("split.refill_stall_cycles", |c| c.split_stall_cycles),
            layer("simulate.ms", "sim.simulate"),
            count("simulate.sim_cycles", |c| c.sim_cycles),
            Metric::over("simulate.ns_per_sim_cycle", sim_ns, "ns", n),
            layer("evaluate.ms", "kernel.evaluate"),
            Metric::over(
                "session.flow_ms",
                median(&w.session_flow_ms),
                "ms",
                w.session_flow_ms.len(),
            ),
            Metric::new(
                "session.context_hit_rate",
                hit_rate(s.context_hits, s.context_misses),
                "ratio",
            ),
            Metric::new(
                "session.profile_hit_rate",
                hit_rate(s.profile_hits, s.profile_misses),
                "ratio",
            ),
            Metric::new(
                "session.model_hit_rate",
                hit_rate(s.model_hits, s.model_misses),
                "ratio",
            ),
            Metric::new("session.mapped_contexts", s.mapped_contexts as f64, "count"),
            Metric::over(
                "serve.wire_ms_p50",
                median(&w.wire_ms),
                "ms",
                w.wire_ms.len(),
            ),
            Metric::over("serve.map_ms_p50", median(&w.map_ms), "ms", w.map_ms.len()),
            Metric::over(
                "serve.explore_ms_p50",
                median(&w.explore_ms),
                "ms",
                w.explore_ms.len(),
            ),
            Metric::new(
                "serve.rejected",
                server.map_or(f64::NAN, |s| s.rejected as f64),
                "count",
            ),
            Metric::new(
                "serve.faulted",
                server.map_or(f64::NAN, |s| s.faulted as f64),
                "count",
            ),
            Metric::over("trace.op_ms", traced_ms, "ms", n),
            Metric::over(
                "trace.untraced_op_ms",
                untraced_ms,
                "ms",
                self.untraced_ms.len(),
            ),
            Metric::over(
                "trace.overhead_pct",
                (traced_ms - untraced_ms) / untraced_ms * 100.0,
                "%",
                n,
            ),
        ]
    }

    /// Human-readable self-time table (stderr), largest first.
    pub fn layer_table(&self) -> String {
        let root = self.inclusive_ms("op");
        let mut rows: Vec<(&'static str, f64)> = Vec::new();
        for name in self.layers.iter().flat_map(|l| l.keys()) {
            if !rows.iter().any(|(n, _)| n == name) {
                rows.push((name, self.self_ms(name)));
            }
        }
        rows.sort_by(|a, b| b.1.total_cmp(&a.1));
        let mut out = format!("layer self times, median of {} ops:\n", self.layers.len());
        for (name, self_ms) in rows {
            out.push_str(&format!(
                "  {name:<18} {self_ms:>10.3} ms {:>6.1} %\n",
                self_ms / root * 100.0
            ));
        }
        out
    }
}

/// Runs the traced replay of `workload` and reports per-layer metrics.
pub fn run(workload: Workload, seed: u64, seconds: f64) -> RunResult {
    let run = collect(workload, seed, seconds);
    eprint!("{}", run.layer_table());
    // The server's own latency quantiles are bucket estimates that repeat
    // exactly from run to run, so they are shown here, not as metrics.
    if let Some(s) = &run.wire.server {
        eprintln!(
            "server Stats latency: p50 {} us, p90 {} us over {} requests",
            s.latency_p50_us, s.latency_p90_us, s.latency_count
        );
    }
    RunResult {
        attempted: run.attempted,
        failed: run.failed,
        metrics: run.metrics(),
    }
}
