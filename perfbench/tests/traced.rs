//! The span recorder and the traced replay: self times add up, the
//! replay reaches what `run_flow` reaches, and each workload drives the
//! layer it was chosen for.

use rsp_core::run_flow;
use rsp_perfbench::flows::FlowSummary;
use rsp_perfbench::replay::replay_flow;
use rsp_perfbench::serve::Stream;
use rsp_perfbench::trace::{layer_totals, self_times, Tracer};
use rsp_perfbench::traced::{collect, replay_spec, TraceRun};
use rsp_perfbench::Workload;
use std::hint::black_box;

fn busy(n: u64) -> u64 {
    (0..n).fold(0u64, |a, b| black_box(a.wrapping_mul(31).wrapping_add(b)))
}

#[test]
fn self_times_add_up_to_the_root() {
    let tr = Tracer::new();
    tr.set_op(7);
    tr.span("root", || {
        busy(10_000);
        tr.span("a", || {
            busy(20_000);
            tr.span("a.inner", || busy(5_000));
        });
        tr.span("b", || busy(30_000));
        busy(1_000);
    });
    let spans = tr.spans();
    assert_eq!(spans.len(), 4);
    assert_eq!(spans[0].parent, None);
    assert_eq!(spans[1].parent, Some(0));
    assert_eq!(spans[2].parent, Some(1));
    assert_eq!(spans[3].parent, Some(0));
    assert!(spans.iter().all(|s| s.op == 7 && s.end_ns >= s.start_ns));
    let total: u64 = self_times(&spans).iter().sum();
    assert_eq!(total, spans[0].duration_ns());
    let layers = layer_totals(&spans, 7);
    assert_eq!(layers["root"].inclusive_ns, spans[0].duration_ns());
    assert_eq!(layers.len(), 4);
}

/// Per op: the self times of every span add up to the root's duration.
fn assert_replay_self_times_add_up(tr: &Tracer) {
    let spans = tr.spans();
    let selfs = self_times(&spans);
    for (i, root) in spans.iter().enumerate().filter(|(_, s)| s.parent.is_none()) {
        let mut in_tree = vec![false; spans.len()];
        in_tree[i] = true;
        for j in i + 1..spans.len() {
            if let Some(p) = spans[j].parent {
                in_tree[j] = in_tree[p];
            }
        }
        let sum: u64 = selfs
            .iter()
            .zip(&in_tree)
            .filter(|(_, t)| **t)
            .map(|(s, _)| s)
            .sum();
        assert_eq!(
            sum,
            root.duration_ns(),
            "root {} of op {}",
            root.name,
            root.op
        );
    }
}

fn replay_matches_run_flow(workload: Workload) {
    let spec = replay_spec(workload);
    let report = run_flow(&spec.parse(), &spec.timed_config()).unwrap();
    let tr = Tracer::new();
    let replayed = replay_flow(&tr, &spec, 3, 0).unwrap();
    assert!(replayed.checks_passed);
    assert_eq!(replayed.summary, FlowSummary::of(&report));
    assert_eq!(
        replayed.counts.rearranged,
        report.stats.rearranged_candidates as u64
    );
    assert_eq!(
        replayed.counts.rearrange_failed,
        report.stats.rearrangements_failed as u64
    );
    assert_eq!(
        replayed.counts.split_segments,
        report.stats.refill_segments as u64
    );
    assert_replay_self_times_add_up(&tr);
}

#[test]
fn suite_replay_reaches_the_run_flow_design() {
    replay_matches_run_flow(Workload::SuiteFlow);
}

#[test]
fn deep100_replay_reaches_the_run_flow_design() {
    replay_matches_run_flow(Workload::Deep100Flow);
}

fn short_run(workload: Workload) -> TraceRun {
    let run = collect(workload, 1, 0.01);
    assert_eq!(run.failed, 0, "{workload:?}: a replay or wire check failed");
    assert!(run.replays.len() >= 3);
    run
}

#[test]
fn rearrange_dominates_suite_flow() {
    let run = short_run(Workload::SuiteFlow);
    assert_eq!(run.top_layer(), Some("core.rearrange"));
    assert!(run.replays[0].counts.split_segments > 0, "matmul16 splits");
}

#[test]
fn explore_side_dominates_deep100_flow() {
    let run = short_run(Workload::Deep100Flow);
    let explore_side = run.self_ms("arch.build")
        + run.self_ms("synth.area")
        + run.self_ms("synth.delay")
        + run.self_ms("core.estimate")
        + (run.inclusive_ms("core.explore") - run.inclusive_ms("explore.replay"));
    assert!(
        explore_side > run.self_ms("core.rearrange"),
        "explore side {explore_side} ms vs rearrange {} ms",
        run.self_ms("core.rearrange")
    );
    let top = run.top_layer().unwrap();
    assert!(
        [
            "core.explore",
            "arch.build",
            "synth.area",
            "synth.delay",
            "core.estimate"
        ]
        .contains(&top),
        "top layer {top}"
    );
}

#[test]
fn serve_mixed_shows_memo_hits_and_misses() {
    let run = short_run(Workload::ServeMixed);
    let s = run.wire.session;
    assert!(s.context_hits > 0 && s.context_misses > 0, "{s:?}");
    assert!(s.profile_hits > 0 && s.profile_misses > 0, "{s:?}");
    assert!(!run.wire.map_ms.is_empty() && !run.wire.explore_ms.is_empty());
    assert!(!run.wire.session_flow_ms.is_empty());
}

#[test]
fn the_stream_is_a_function_of_the_seed() {
    let a = Stream::new(11);
    let b = Stream::new(11);
    let c = Stream::new(12);
    let requests = |s: &Stream| (0..64).map(|i| s.request(i)).collect::<Vec<_>>();
    assert_eq!(requests(&a), requests(&b));
    assert_ne!(requests(&a), requests(&c));
    // Every block of eight is one Flow, two Explore and five Map.
    use rsp_perfbench::serve::Kind;
    for block in 0..8 {
        let kinds: Vec<Kind> = (block * 8..block * 8 + 8).map(|i| a.slot(i).0).collect();
        let count = |k: Kind| kinds.iter().filter(|x| **x == k).count();
        assert_eq!(
            (count(Kind::Flow), count(Kind::Explore), count(Kind::Map)),
            (1, 2, 5)
        );
    }
}
