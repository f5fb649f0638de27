//! The `serve-mixed` workload: two blocking clients in a closed loop
//! against one long-lived `rsp-serve` server with two workers.
//!
//! The request stream is a pure function of the seed: blocks of eight
//! requests, each block one Flow, two Explore and five Map in seeded
//! order. Half the Explore and Map kernels (by a seeded coin) come from
//! a fixed pool of [`POOL`] kernels that is warmed before timing; the
//! rest are fresh `random_kernel` DFGs.
//!
//! The clients send the stream in rounds: in round `r`, client `c` sends
//! block `2r + c` one request at a time, and both start each round
//! together. Without the shared round start, the two clients' Flows
//! settle for a whole run into either mostly overlapping or mostly
//! alternating, and the Flow latency median jumps between those two
//! modes from run to run.

use crate::inputs::{base_8x8, mix, video_sources};
use crate::stats::{median, p90_supported, peak_rss_mb, quantile, Metric, RunResult};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use rsp_core::{
    explore_with, run_flow, AppProfile, DesignSpace, Exploration, ExploreControl, ExploreOptions,
    FlowConfig, FlowReport, RspError, Session,
};
use rsp_kernel::Kernel;
use rsp_mapper::{map, ConfigContext, MapOptions};
use rsp_serve::proto::{
    ExploreReply, ExploreRequest, FlowReply, FlowRequest, FrontierPoint, Limits, MapReply,
    MapRequest, Request, Response, SpaceSpec, StatsReply, WorkloadApp,
};
use rsp_serve::{Client, ServeConfig, Server};
use rsp_workload::{parse_kernel, print_kernel, random_kernel, RandomKernelConfig};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Barrier, Mutex};
use std::time::{Duration, Instant};

/// Pool kernels (memo reads once warmed).
pub const POOL: usize = 32;
/// Concurrent clients, one connection each.
pub const CLIENTS: usize = 2;
/// Server worker threads.
pub const WORKERS: usize = 2;
/// Completed requests after which `peak_rss_mb` is read. Fresh requests
/// grow the session's memos, so reading at a fixed request count keeps
/// the metric about memory per request, not about throughput.
pub const RSS_AFTER: u64 = 5_000;

/// Request kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// One kernel mapped at 8×8.
    Map,
    /// One kernel explored over the extended space at 8×8.
    Explore,
    /// The video application's flow over the paper space.
    Flow,
}

/// Where a request's kernel comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// The warmed pool (index).
    Pool(usize),
    /// A fresh random DFG (generator seed).
    Fresh(u64),
    /// The fixed video application (Flow requests).
    Video,
}

/// The seeded request stream.
#[derive(Debug, Clone)]
pub struct Stream {
    seed: u64,
    pool: Vec<String>,
    flow: Request,
}

/// Stream ids of the three sub-seeds.
const BLOCK_STREAM: u64 = 2;
const FRESH_STREAM: u64 = 3;
const POOL_STREAM: u64 = 4;

impl Stream {
    /// Generates the pool and the flow request from `seed`.
    pub fn new(seed: u64) -> Self {
        let pool = (0..POOL as u64)
            .map(|j| kernel_text(mix(seed, POOL_STREAM, j)))
            .collect();
        let flow = Request::Flow(FlowRequest {
            apps: vec![WorkloadApp {
                name: "video".into(),
                kernels: video_sources(),
            }],
            geometries: None,
            space: SpaceSpec::Paper,
            limits: Limits::none(),
        });
        Stream { seed, pool, flow }
    }

    /// Kind and kernel source of request `i`.
    pub fn slot(&self, i: u64) -> (Kind, Source) {
        let block = i / 8;
        let pos = (i % 8) as usize;
        let mut rng = StdRng::seed_from_u64(mix(self.seed, BLOCK_STREAM, block));
        let mut kinds = [
            Kind::Flow,
            Kind::Explore,
            Kind::Explore,
            Kind::Map,
            Kind::Map,
            Kind::Map,
            Kind::Map,
            Kind::Map,
        ];
        for k in (1..kinds.len()).rev() {
            kinds.swap(k, (rng.next_u64() % (k as u64 + 1)) as usize);
        }
        let mut draws = [(0u64, 0u64); 8];
        for d in &mut draws {
            *d = (rng.next_u64(), rng.next_u64());
        }
        let (coin, pick) = draws[pos];
        let source = match kinds[pos] {
            Kind::Flow => Source::Video,
            _ if coin & 1 == 0 => Source::Pool((pick % POOL as u64) as usize),
            _ => Source::Fresh(mix(self.seed, FRESH_STREAM, i)),
        };
        (kinds[pos], source)
    }

    /// Request `i` with its kind and source.
    pub fn request(&self, i: u64) -> (Kind, Source, Request) {
        let (kind, source) = self.slot(i);
        let request = match source {
            Source::Video => self.flow.clone(),
            Source::Pool(j) => kernel_request(kind, self.pool[j].clone()),
            Source::Fresh(s) => kernel_request(kind, kernel_text(s)),
        };
        (kind, source, request)
    }

    /// The Flow request.
    pub fn flow_request(&self) -> Request {
        self.flow.clone()
    }

    /// Pool kernel `j`'s Map or Explore request.
    pub fn pool_request(&self, kind: Kind, j: usize) -> Request {
        kernel_request(kind, self.pool[j].clone())
    }
}

/// Set-ups per run; a set-up is cheap here, so more are taken than for
/// the flow workloads.
const SERVE_SETUP_REPS: usize = 21;

/// Random DFGs of at most 16 elements: every fresh request inserts its
/// mapped context and profile into the server's memos for good, so the
/// kernels are kept small to keep the run's memory small.
fn kernel_text(seed: u64) -> String {
    let config = RandomKernelConfig {
        max_elements: 16,
        ..RandomKernelConfig::default()
    };
    print_kernel(&random_kernel(seed, &config))
}

/// A Map or Explore request for one kernel at 8×8.
pub fn kernel_request(kind: Kind, kernel: String) -> Request {
    match kind {
        Kind::Map => Request::Map(MapRequest {
            kernel,
            rows: 8,
            cols: 8,
        }),
        Kind::Explore => Request::Explore(ExploreRequest {
            kernels: vec![kernel],
            weights: None,
            rows: 8,
            cols: 8,
            space: SpaceSpec::Extended,
            limits: Limits::none(),
        }),
        Kind::Flow => unreachable!("flow requests carry applications"),
    }
}

fn space_of(spec: SpaceSpec) -> DesignSpace {
    match spec {
        SpaceSpec::Paper => DesignSpace::paper(),
        SpaceSpec::Extended => DesignSpace::extended(),
        SpaceSpec::Deep => DesignSpace::deep(),
    }
}

fn control_of(limits: &Limits) -> ExploreControl {
    ExploreControl {
        deadline: limits.deadline_ms.map(Duration::from_millis),
        candidate_budget: limits.candidate_budget.map(|b| b as usize),
        ..ExploreControl::default()
    }
}

/// The wire reply for a mapped context.
pub fn map_reply(ctx: &ConfigContext) -> Response {
    Response::Mapped(MapReply {
        kernel: ctx.kernel_name().to_string(),
        cycles: u64::from(ctx.total_cycles()),
        initiation_interval: u64::from(ctx.initiation_interval()),
        instances: ctx.instances().len() as u64,
    })
}

/// The wire reply for an exploration.
pub fn explore_reply(result: &Exploration) -> Response {
    Response::Explored(ExploreReply {
        feasible: result.feasible.len() as u64,
        frontier: result
            .pareto_points()
            .map(|p| FrontierPoint {
                name: p.arch.name().to_string(),
                area_slices: p.area_slices,
                est_et_ns: p.est_et_ns,
            })
            .collect(),
        best: result.try_best_point().map(|p| p.arch.name().to_string()),
        base_et_ns: result.base_et_ns,
        candidates_seen: result.stats.candidates_seen as u64,
        candidates_pruned: result.stats.candidates_pruned as u64,
        complete: result.completeness.is_complete(),
    })
}

/// The wire reply for a flow report.
pub fn flow_reply(report: &FlowReport) -> Response {
    Response::Flowed(FlowReply {
        base_pe_count: report.base.geometry().pe_count() as u64,
        chosen: report.chosen.name().to_string(),
        area_slices: report.area_slices,
        base_area_slices: report.base_area_slices,
        weighted_et_ns: report.weighted_et_ns(),
        feasible: report.exploration.feasible.len() as u64,
        critical_loops: report.critical_loops.len() as u64,
        refill_segments: report.stats.refill_segments as u64,
        refill_stall_cycles: report.stats.refill_stall_cycles,
        complete: report.completeness.is_complete(),
    })
}

fn error_reply(e: RspError) -> Response {
    Response::Error(format!("{e}"))
}

// The Err variant is a ready-to-send wire `Response`, as in the server.
#[allow(clippy::result_large_err)]
fn parse_all(sources: &[String]) -> Result<Vec<Kernel>, Response> {
    sources
        .iter()
        .map(|s| parse_kernel(s).map_err(|e| Response::Error(format!("kernel source: {e}"))))
        .collect()
}

#[allow(clippy::result_large_err)]
fn parse_apps(apps: &[WorkloadApp]) -> Result<Vec<AppProfile>, Response> {
    apps.iter()
        .map(|app| {
            let sources: Vec<String> = app.kernels.iter().map(|(s, _)| s.clone()).collect();
            let kernels = parse_all(&sources)?;
            let runs = app.kernels.iter().map(|(_, n)| *n);
            Ok(AppProfile::new(
                &app.name,
                kernels.into_iter().zip(runs).collect(),
            ))
        })
        .collect()
}

/// The reply a cold in-process engine call gives for `request`: fresh
/// mapper, explorer and flow with default options and no caches.
pub fn cold_reply(request: &Request) -> Response {
    let base = base_8x8();
    match request {
        Request::Map(m) => match parse_all(std::slice::from_ref(&m.kernel)) {
            Ok(ks) => match map(&base, &ks[0], &MapOptions::default()) {
                Ok(ctx) => map_reply(&ctx),
                Err(e) => error_reply(RspError::Map(e)),
            },
            Err(e) => e,
        },
        Request::Explore(x) => {
            let kernels = match parse_all(&x.kernels) {
                Ok(ks) => ks,
                Err(e) => return e,
            };
            let contexts: Result<Vec<_>, _> = kernels
                .iter()
                .map(|k| map(&base, k, &MapOptions::default()).map_err(RspError::Map))
                .collect();
            let contexts = match contexts {
                Ok(c) => c,
                Err(e) => return error_reply(e),
            };
            let weights = x
                .weights
                .clone()
                .unwrap_or_else(|| vec![1.0; kernels.len()]);
            let options = ExploreOptions {
                control: control_of(&x.limits),
                ..ExploreOptions::default()
            };
            match explore_with(
                &base,
                &kernels,
                &contexts,
                &weights,
                &space_of(x.space),
                &options,
            ) {
                Ok(e) => explore_reply(&e),
                Err(e) => error_reply(e),
            }
        }
        Request::Flow(f) => {
            let apps = match parse_apps(&f.apps) {
                Ok(a) => a,
                Err(e) => return e,
            };
            let config = FlowConfig {
                space: space_of(f.space),
                control: control_of(&f.limits),
                ..FlowConfig::default()
            };
            match run_flow(&apps, &config) {
                Ok(r) => flow_reply(&r),
                Err(e) => error_reply(e),
            }
        }
        Request::Ping => Response::Pong,
        Request::Stats => Response::Error("stats has no cold reply".into()),
    }
}

/// The reply an in-process [`Session`] gives for a Map, Explore or Flow
/// request (the calls the server makes, without the wire).
pub fn session_reply(session: &Session, request: &Request) -> Response {
    match request {
        Request::Map(m) => match parse_all(std::slice::from_ref(&m.kernel)) {
            Ok(ks) => {
                let base = session.base(m.rows as usize, m.cols as usize);
                match session.map(&base, &ks[0]) {
                    Ok(ctx) => map_reply(&ctx),
                    Err(e) => error_reply(e),
                }
            }
            Err(e) => e,
        },
        Request::Explore(x) => {
            let kernels = match parse_all(&x.kernels) {
                Ok(ks) => ks,
                Err(e) => return e,
            };
            let weights = x
                .weights
                .clone()
                .unwrap_or_else(|| vec![1.0; kernels.len()]);
            let base = session.base(x.rows as usize, x.cols as usize);
            match session.explore(
                &base,
                &kernels,
                &weights,
                &space_of(x.space),
                control_of(&x.limits),
            ) {
                Ok(e) => explore_reply(&e),
                Err(e) => error_reply(e),
            }
        }
        Request::Flow(f) => match parse_apps(&f.apps) {
            Ok(apps) => match session.flow(&apps, space_of(f.space), control_of(&f.limits)) {
                Ok(r) => flow_reply(&r),
                Err(e) => error_reply(e),
            },
            Err(e) => e,
        },
        Request::Ping => Response::Pong,
        Request::Stats => Response::Error("stats is answered by the server".into()),
    }
}

/// Serialized reply bytes — the form replies are compared in.
pub fn reply_bytes(reply: &Response) -> String {
    serde_json::to_string(reply).expect("reply serializes")
}

/// FNV-1a digest of a reply, kept for fresh requests whose expected
/// reply is computed after the timed loop.
pub fn digest(bytes: &str) -> u64 {
    bytes.bytes().fold(0xCBF2_9CE4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3)
    })
}

/// Asks the server for its `Stats` snapshot.
///
/// # Panics
///
/// When the server does not answer with a `Stats` reply.
pub fn stats(client: &mut Client) -> StatsReply {
    match client.call(Request::Stats).expect("stats request") {
        Response::Stats(s) => s,
        other => panic!("expected a Stats reply, got {other:?}"),
    }
}

/// A server with [`WORKERS`] workers and its default session.
pub fn spawn_server() -> Server {
    Server::spawn(ServeConfig {
        workers: WORKERS,
        ..ServeConfig::default()
    })
    .expect("spawn server on a free local port")
}

/// Expected replies known before timing: the Flow and every pool
/// kernel's Map and Explore.
struct Expected {
    flow: String,
    map: Vec<String>,
    explore: Vec<String>,
}

impl Expected {
    fn new(stream: &Stream) -> Self {
        let cold = |r: Request| reply_bytes(&cold_reply(&r));
        Expected {
            flow: cold(stream.flow_request()),
            map: (0..POOL)
                .map(|j| cold(stream.pool_request(Kind::Map, j)))
                .collect(),
            explore: (0..POOL)
                .map(|j| cold(stream.pool_request(Kind::Explore, j)))
                .collect(),
        }
    }

    fn known(&self, kind: Kind, source: Source) -> Option<&str> {
        match (kind, source) {
            (_, Source::Video) => Some(&self.flow),
            (Kind::Map, Source::Pool(j)) => Some(&self.map[j]),
            (Kind::Explore, Source::Pool(j)) => Some(&self.explore[j]),
            _ => None,
        }
    }
}

/// One client's record of the timed loop.
#[derive(Default)]
struct ClientLog {
    latency_ms: Vec<(Kind, f64)>,
    check_ms: Vec<f64>,
    failed: u64,
    /// `(request index, reply digest)` of fresh requests, checked later.
    fresh: Vec<(u64, u64)>,
}

/// Runs `serve-mixed` for `seconds` of timed requests.
pub fn run(seed: u64, seconds: f64) -> RunResult {
    let mut attempted = 0u64;
    let mut failed = 0u64;

    // Set-up: inputs generated, server spawned, both clients connected,
    // first request (the Flow) answered — repeated for a median.
    let mut setup_s = Vec::with_capacity(SERVE_SETUP_REPS);
    let mut first_replies = Vec::with_capacity(SERVE_SETUP_REPS);
    let mut live = None;
    for _ in 0..SERVE_SETUP_REPS {
        let t = Instant::now();
        let stream = Stream::new(seed);
        let server = spawn_server();
        let mut clients: Vec<Client> = (0..CLIENTS)
            .map(|_| Client::connect(server.addr()).expect("connect"))
            .collect();
        let first = clients[0].call(stream.flow_request());
        setup_s.push(t.elapsed().as_secs_f64());
        first_replies.push(first.ok().map(|r| reply_bytes(&r)));
        if let Some((old_server, old_clients, _)) = live.replace((server, clients, stream)) {
            drop(old_clients);
            old_server.shutdown();
        }
    }
    let (server, mut clients, stream) = live.expect("at least one set-up");

    // Expected replies (the benchmark's own reference work; not set-up).
    let expected = Expected::new(&stream);
    for reply in first_replies {
        attempted += 1;
        if reply.as_deref() != Some(expected.flow.as_str()) {
            failed += 1;
        }
    }

    // Warm the pool: every pool kernel mapped and explored once.
    for j in 0..POOL {
        for kind in [Kind::Map, Kind::Explore] {
            attempted += 1;
            let reply = clients[0].call(stream.pool_request(kind, j));
            let want = expected.known(kind, Source::Pool(j));
            if reply.ok().map(|r| reply_bytes(&r)).as_deref() != want {
                failed += 1;
            }
        }
    }

    // Rounds: in round r client c sends block 2r + c, one request at a
    // time, and the two clients start each round together.
    let round_start = Barrier::new(CLIENTS);
    let stop = AtomicBool::new(false);
    let completed = AtomicU64::new(0);
    let peak_at_mark = Mutex::new(None);
    let budget = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let logs: Vec<ClientLog> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                let (stream, expected) = (&stream, &expected);
                let (round_start, stop) = (&round_start, &stop);
                let (completed, peak_at_mark) = (&completed, &peak_at_mark);
                scope.spawn(move || {
                    let mut log = ClientLog::default();
                    for round in 0u64.. {
                        // Every store to `stop` happens before its writer
                        // reaches the barrier, so both clients read the same
                        // value after it.
                        round_start.wait();
                        if stop.load(Ordering::SeqCst) {
                            break;
                        }
                        let block = round * CLIENTS as u64 + c as u64;
                        for i in block * 8..block * 8 + 8 {
                            let (kind, source, request) = stream.request(i);
                            let t = Instant::now();
                            let reply = client.call(request);
                            log.latency_ms.push((kind, t.elapsed().as_secs_f64() * 1e3));
                            if completed.fetch_add(1, Ordering::Relaxed) + 1 == RSS_AFTER {
                                *peak_at_mark.lock().expect("peak reading lock") =
                                    Some(peak_rss_mb());
                            }
                            let t = Instant::now();
                            let ok = match reply {
                                Ok(Response::Error(_)) | Err(_) => false,
                                Ok(r) => {
                                    let bytes = reply_bytes(&r);
                                    match expected.known(kind, source) {
                                        Some(want) => bytes == want,
                                        None => {
                                            log.fresh.push((i, digest(&bytes)));
                                            true
                                        }
                                    }
                                }
                            };
                            log.check_ms.push(t.elapsed().as_secs_f64() * 1e3);
                            if !ok {
                                log.failed += 1;
                            }
                        }
                        if start.elapsed() >= budget {
                            stop.store(true, Ordering::SeqCst);
                        }
                    }
                    log
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let elapsed = start.elapsed().as_secs_f64();
    let peak = peak_at_mark
        .into_inner()
        .expect("peak reading lock")
        .unwrap_or_else(|| {
            eprintln!("note: fewer than {RSS_AFTER} requests; peak_rss_mb read at the end");
            peak_rss_mb()
        });
    eprintln!("peak_rss_mb at the end of the run: {:.1}", peak_rss_mb());
    drop(clients);
    server.shutdown();

    let mut flow_ms = Vec::new();
    let mut check_ms = Vec::new();
    let mut completed = 0usize;
    for log in &logs {
        completed += log.latency_ms.len();
        attempted += log.latency_ms.len() as u64;
        failed += log.failed;
        flow_ms.extend(
            log.latency_ms
                .iter()
                .filter(|(k, _)| *k == Kind::Flow)
                .map(|(_, ms)| ms),
        );
        check_ms.extend(&log.check_ms);
        // Fresh requests: the cold reply, computed now, must match.
        for &(i, got) in &log.fresh {
            let (_, _, request) = stream.request(i);
            if digest(&reply_bytes(&cold_reply(&request))) != got {
                failed += 1;
            }
        }
    }
    for kind in [Kind::Map, Kind::Explore] {
        let ms: Vec<f64> = logs
            .iter()
            .flat_map(|l| {
                l.latency_ms
                    .iter()
                    .filter(|(k, _)| *k == kind)
                    .map(|(_, ms)| *ms)
            })
            .collect();
        eprintln!(
            "{:?} round trip p50 {:.4} ms (n={})",
            kind,
            median(&ms),
            ms.len()
        );
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
            Metric::over("ops_per_s", completed as f64 / elapsed, "1/s", completed),
            Metric::over("verify_ms_p50", median(&check_ms), "ms", check_ms.len()),
            Metric::over("setup_s", median(&setup_s), "s", setup_s.len()),
            Metric::new("peak_rss_mb", peak, "MB"),
        ],
    }
}
