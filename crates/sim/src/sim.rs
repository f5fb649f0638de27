//! The simulation engine.

use crate::error::SimError;
use crate::trace::{Trace, TraceEvent};
use rsp_arch::{FuKind, OpKind, RspArchitecture, SharedResourceId};
use rsp_core::Rearranged;
use rsp_kernel::{apply_op, Bindings, Kernel, MemoryImage};
use rsp_mapper::{ConfigContext, RefillPlan, SrcOperand};
use std::collections::HashMap;

/// Simulation options.
#[derive(Debug, Clone, Copy, Default)]
pub struct SimOptions {
    /// Enforce row-bus capacities (off by default, matching the mapper's
    /// operand-reuse idealization).
    pub check_buses: bool,
    /// Record a full per-cycle execution trace in the report.
    pub record_trace: bool,
}

/// Result of a successful simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct SimReport {
    /// Total executed cycles (refill-stall cycles included for split
    /// schedules).
    pub cycles: u32,
    /// Cycles the array spent stalled reloading its configuration
    /// caches (0 unless the schedule was executed through
    /// [`simulate_split`] with a split [`RefillPlan`]).
    pub refill_stalls: u32,
    /// Final memory image (loads observed the input snapshot; stores
    /// landed here).
    pub memory: MemoryImage,
    /// Operations executed.
    pub ops_executed: usize,
    /// Operations issued on shared resources.
    pub shared_issues: usize,
    /// Peak simultaneous in-flight operations on any single shared
    /// resource (2 for a busy 2-stage pipelined multiplier — the Fig. 6
    /// effect; never exceeds the resource's stage count).
    pub max_in_flight: usize,
    /// Per-cycle execution trace (only with
    /// [`SimOptions::record_trace`]).
    pub trace: Option<Trace>,
}

/// Entry limit of each dense occupancy table: a context whose PE box,
/// or whose shared-resource index space times pipeline depth, needs more
/// (only hand-built inputs do) runs on [`simulate_reference`] instead.
const DENSE_LIMIT: usize = 1 << 20;

/// "Never stamped" marker of the dense occupancy stamps (a real issue
/// cycle is a `u32`).
const UNSTAMPED: u64 = u64::MAX;

/// Simulates an arbitrary `(schedule, bindings)` pair for `ctx` on `arch`.
///
/// Operations issue in non-decreasing cycle order, ties broken by
/// instance index, and every rule is checked per issue in a fixed order
/// (PE, operands, shared resource, buses), so the first violation is
/// the same [`SimError`] value whatever engine finds it. Occupancy is
/// dense: a last-issue cycle stamp per PE and per shared resource, the
/// window of still-in-flight issues per resource, and `(cycle, words)`
/// counters per row bus. Because issue cycles never decrease, a stamp
/// equal to the current cycle is exactly a same-cycle conflict.
///
/// # Errors
///
/// Any [`SimError`] structural violation; the first one encountered is
/// returned.
#[allow(clippy::too_many_arguments)] // the full hardware state is the point
pub fn simulate(
    ctx: &ConfigContext,
    arch: &RspArchitecture,
    schedule: &[u32],
    bindings: &[Option<SharedResourceId>],
    kernel: &Kernel,
    input: &MemoryImage,
    params: &Bindings,
    opts: &SimOptions,
) -> Result<SimReport, SimError> {
    let insts = ctx.instances();
    let n = insts.len();
    if schedule.len() != n || bindings.len() != n {
        return Err(SimError::ShapeMismatch {
            expected: n,
            actual: schedule.len().min(bindings.len()),
        });
    }
    debug_assert_eq!(kernel.total_ops(), n);

    let mut op_latency = [0u32; OpKind::ALL.len()];
    let mut op_shared = [false; OpKind::ALL.len()];
    for op in OpKind::ALL {
        op_latency[op as usize] = u32::from(arch.op_latency(op));
        op_shared[op as usize] = arch.op_is_shared(op);
    }
    let latency: Vec<u32> = insts.iter().map(|i| op_latency[i.op as usize]).collect();

    // Dense index spaces: the box of PEs the context names, and every
    // (kind, row/column, line, bank index) a shared binding can name once
    // it reaches its PE (the line is then inside the box).
    let rows = insts
        .iter()
        .map(|i| i.pe.row.saturating_add(1))
        .max()
        .unwrap_or(0);
    let cols = insts
        .iter()
        .map(|i| i.pe.col.saturating_add(1))
        .max()
        .unwrap_or(0);
    let lines = rows.max(cols);
    let banks = insts
        .iter()
        .zip(bindings)
        .filter(|(i, _)| op_shared[i.op as usize])
        .filter_map(|(_, b)| b.map(|r| bank_index(r).saturating_add(1)))
        .max()
        .unwrap_or(0);
    let resources = (FuKind::ALL.len() * 2)
        .checked_mul(lines)
        .and_then(|r| r.checked_mul(banks));
    // A resource holds at most `stages` issues in flight: its issue
    // cycles are distinct and each stays in flight `stages` cycles.
    let window = insts
        .iter()
        .filter(|i| op_shared[i.op as usize])
        .map(|i| op_latency[i.op as usize] as usize)
        .max()
        .unwrap_or(0);
    let fits = |size: Option<usize>| size.is_some_and(|s| s <= DENSE_LIMIT);
    if !fits(rows.checked_mul(cols)) || !fits(resources.and_then(|r| r.checked_mul(window.max(1))))
    {
        return simulate_reference(ctx, arch, schedule, bindings, kernel, input, params, opts);
    }
    let resources = resources.unwrap_or(0);
    let resource_slot = |r: SharedResourceId| -> usize {
        let (axis, line) = match r {
            SharedResourceId::Row { row, .. } => (0, row),
            SharedResourceId::Col { col, .. } => (1, col),
        };
        ((r.kind() as usize * 2 + axis) * lines + line) * banks + bank_index(r)
    };

    let order = issue_order(schedule);

    let mut memory = input.clone();
    let mut values: Vec<i32> = vec![0; n];
    let mut pair_values: Vec<i32> = vec![0; n];

    let mut pe_issue = vec![UNSTAMPED; rows * cols];
    let mut res_issue = vec![UNSTAMPED; resources];
    let mut in_flight_ends = vec![0u64; resources * window];
    let mut in_flight = vec![0usize; resources];
    let bus_rows = if opts.check_buses { rows } else { 0 };
    let mut bus_read = vec![(UNSTAMPED, 0usize); bus_rows];
    let mut bus_write = vec![(UNSTAMPED, 0usize); bus_rows];

    let mut shared_issues = 0usize;
    let mut max_in_flight = 0usize;
    let mut events: Vec<TraceEvent> = Vec::new();

    for &i in &order {
        let i = i as usize;
        let inst = &insts[i];
        let t = schedule[i];
        let stamp = u64::from(t);

        // One operation per PE per cycle.
        let pe = &mut pe_issue[inst.pe.row * cols + inst.pe.col];
        if *pe == stamp {
            return Err(SimError::PeConflict {
                pe: inst.pe,
                cycle: t,
            });
        }
        *pe = stamp;

        // Operand readiness and interconnect reachability.
        for &p in &inst.preds {
            let ready = schedule[p.index()] + latency[p.index()];
            if ready > t {
                return Err(SimError::OperandNotReady {
                    consumer: i,
                    producer: p.index(),
                    cycle: t,
                });
            }
            let from = insts[p.index()].pe;
            if !arch.can_route(from, inst.pe) {
                return Err(SimError::UnroutableDependence { from, to: inst.pe });
            }
        }

        // Shared-resource discipline.
        if op_shared[inst.op as usize] {
            let res = bindings[i].ok_or(SimError::UnboundSharedOp { instance: i })?;
            if !res.reaches(inst.pe) {
                return Err(SimError::UnreachableResource {
                    instance: i,
                    resource: res,
                });
            }
            let slot = resource_slot(res);
            if res_issue[slot] == stamp {
                return Err(SimError::SharedIssueConflict {
                    resource: res,
                    cycle: t,
                });
            }
            res_issue[slot] = stamp;
            shared_issues += 1;
            // Retire the issues that left the pipeline by `t`, then admit
            // this one; the window then holds cycle `t`'s load. A
            // resource's load only rises at an issue, so its peak is the
            // load at some issue cycle.
            let ends = &mut in_flight_ends[slot * window..(slot + 1) * window];
            let mut live = 0;
            for k in 0..in_flight[slot] {
                if ends[k] > stamp {
                    ends[live] = ends[k];
                    live += 1;
                }
            }
            if latency[i] > 0 {
                ends[live] = stamp + u64::from(latency[i]);
                live += 1;
                max_in_flight = max_in_flight.max(live);
            }
            in_flight[slot] = live;
        }

        // Bus capacities.
        if opts.check_buses {
            let row = inst.pe.row;
            let words = inst.bus_read_words();
            if words > 0 {
                let used = bus_count(&mut bus_read[row], stamp, words);
                if used > ctx.buses().read_buses() {
                    return Err(SimError::BusOverflow {
                        row,
                        cycle: t,
                        words: used,
                        capacity: ctx.buses().read_buses(),
                    });
                }
            }
            if inst.is_store() {
                let used = bus_count(&mut bus_write[row], stamp, 1);
                if used > ctx.buses().write_buses() {
                    return Err(SimError::BusOverflow {
                        row,
                        cycle: t,
                        words: used,
                        capacity: ctx.buses().write_buses(),
                    });
                }
            }
        }

        // Execute.
        let read = |o: &SrcOperand| -> i32 {
            match *o {
                SrcOperand::Inst(p) => values[p.index()],
                SrcOperand::PairOf(p) => pair_values[p.index()],
                SrcOperand::Const(c) => c,
                SrcOperand::Param(p) => params.get(p as usize),
            }
        };
        match inst.op {
            OpKind::Load => {
                let a = &inst.loads[0];
                values[i] = input.read(a.array as usize, a.addr as usize);
                if let Some(a2) = inst.loads.get(1) {
                    pair_values[i] = input.read(a2.array as usize, a2.addr as usize);
                }
            }
            OpKind::Store => {
                let v = read(&inst.operands[0]);
                let a = inst.store.expect("store instance has address");
                memory.write(a.array as usize, a.addr as usize, v);
                values[i] = v;
            }
            op => {
                let a = inst.operands.first().map(&read).unwrap_or(0);
                let b = inst.operands.get(1).map(&read).unwrap_or(0);
                values[i] = apply_op(op, a, b);
            }
        }

        if opts.record_trace {
            events.push(TraceEvent {
                cycle: t,
                pe: inst.pe,
                instance: i as u32,
                op: inst.op,
                value: values[i],
                resource: bindings[i],
                latency: op_latency[inst.op as usize] as u8,
            });
        }
    }

    // Total cycles include the drain of the last operation's pipeline.
    let cycles = (0..n).map(|i| schedule[i] + latency[i]).max().unwrap_or(0);

    Ok(SimReport {
        cycles,
        refill_stalls: 0,
        memory,
        ops_executed: n,
        shared_issues,
        max_in_flight,
        trace: opts.record_trace.then(|| Trace::new(events, cycles + 1)),
    })
}

/// Position of a shared resource within its row or column bank.
fn bank_index(r: SharedResourceId) -> usize {
    match r {
        SharedResourceId::Row { index, .. } | SharedResourceId::Col { index, .. } => index,
    }
}

/// Adds `words` to a row bus's `(cycle, words)` counter at cycle
/// `stamp`, restarting it when the cycle moved on; returns the new load.
fn bus_count(counter: &mut (u64, usize), stamp: u64, words: usize) -> usize {
    if counter.0 != stamp {
        *counter = (stamp, 0);
    }
    counter.1 += words;
    counter.1
}

/// Instance indices in non-decreasing cycle order, ties by index. A
/// counting sort when the cycle span is within a small multiple of the
/// instance count; the stable comparison sort otherwise, so a hostile
/// schedule with a cycle near `u32::MAX` allocates nothing per cycle.
fn issue_order(schedule: &[u32]) -> Vec<u32> {
    let n = schedule.len();
    let (Some(&lo), Some(&hi)) = (schedule.iter().min(), schedule.iter().max()) else {
        return Vec::new();
    };
    let span = (hi - lo) as usize + 1;
    if span > 4 * n + 64 {
        let mut order: Vec<u32> = (0..n as u32).collect();
        order.sort_by_key(|&i| schedule[i as usize]);
        return order;
    }
    let mut start = vec![0u32; span + 1];
    for &c in schedule {
        start[(c - lo) as usize + 1] += 1;
    }
    for k in 1..=span {
        start[k] += start[k - 1];
    }
    let mut order = vec![0u32; n];
    for (i, &c) in schedule.iter().enumerate() {
        let next = &mut start[(c - lo) as usize];
        order[*next as usize] = i as u32;
        *next += 1;
    }
    order
}

/// The original `HashMap`-driven engine, kept as the oracle the dense
/// [`simulate`] is property-tested against (the same `Result`, errors
/// and trace included).
///
/// # Errors
///
/// See [`simulate`].
#[doc(hidden)]
#[allow(clippy::too_many_arguments)] // the full hardware state is the point
pub fn simulate_reference(
    ctx: &ConfigContext,
    arch: &RspArchitecture,
    schedule: &[u32],
    bindings: &[Option<SharedResourceId>],
    kernel: &Kernel,
    input: &MemoryImage,
    params: &Bindings,
    opts: &SimOptions,
) -> Result<SimReport, SimError> {
    let n = ctx.instances().len();
    if schedule.len() != n || bindings.len() != n {
        return Err(SimError::ShapeMismatch {
            expected: n,
            actual: schedule.len().min(bindings.len()),
        });
    }
    debug_assert_eq!(kernel.total_ops(), n);

    // Issue order by cycle.
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&i| schedule[i]);

    let latency = |i: usize| -> u32 { u32::from(arch.op_latency(ctx.instances()[i].op)) };

    let mut memory = input.clone();
    let mut values: Vec<i32> = vec![0; n];
    let mut pair_values: Vec<i32> = vec![0; n];

    let mut pe_busy: HashMap<(usize, usize, u32), ()> = HashMap::new();
    let mut issue_busy: HashMap<(SharedResourceId, u32), ()> = HashMap::new();
    let mut in_flight: HashMap<(SharedResourceId, u32), usize> = HashMap::new();
    let mut bus_read: HashMap<(usize, u32), usize> = HashMap::new();
    let mut bus_write: HashMap<(usize, u32), usize> = HashMap::new();

    let mut shared_issues = 0usize;
    let mut max_in_flight = 0usize;
    let mut events: Vec<TraceEvent> = Vec::new();

    for &i in &order {
        let inst = &ctx.instances()[i];
        let t = schedule[i];

        // One operation per PE per cycle.
        if pe_busy.insert((inst.pe.row, inst.pe.col, t), ()).is_some() {
            return Err(SimError::PeConflict {
                pe: inst.pe,
                cycle: t,
            });
        }

        // Operand readiness and interconnect reachability.
        for &p in &inst.preds {
            let ready = schedule[p.index()] + latency(p.index());
            if ready > t {
                return Err(SimError::OperandNotReady {
                    consumer: i,
                    producer: p.index(),
                    cycle: t,
                });
            }
            let from = ctx.instances()[p.index()].pe;
            if !arch.can_route(from, inst.pe) {
                return Err(SimError::UnroutableDependence { from, to: inst.pe });
            }
        }

        // Shared-resource discipline.
        if arch.op_is_shared(inst.op) {
            let res = bindings[i].ok_or(SimError::UnboundSharedOp { instance: i })?;
            if !res.reaches(inst.pe) {
                return Err(SimError::UnreachableResource {
                    instance: i,
                    resource: res,
                });
            }
            if issue_busy.insert((res, t), ()).is_some() {
                return Err(SimError::SharedIssueConflict {
                    resource: res,
                    cycle: t,
                });
            }
            shared_issues += 1;
            let stages = u32::from(arch.op_latency(inst.op));
            for dt in 0..stages {
                let e = in_flight.entry((res, t + dt)).or_default();
                *e += 1;
                max_in_flight = max_in_flight.max(*e);
            }
        }

        // Bus capacities.
        if opts.check_buses {
            if inst.bus_read_words() > 0 {
                let e = bus_read.entry((inst.pe.row, t)).or_default();
                *e += inst.bus_read_words();
                if *e > ctx.buses().read_buses() {
                    return Err(SimError::BusOverflow {
                        row: inst.pe.row,
                        cycle: t,
                        words: *e,
                        capacity: ctx.buses().read_buses(),
                    });
                }
            }
            if inst.is_store() {
                let e = bus_write.entry((inst.pe.row, t)).or_default();
                *e += 1;
                if *e > ctx.buses().write_buses() {
                    return Err(SimError::BusOverflow {
                        row: inst.pe.row,
                        cycle: t,
                        words: *e,
                        capacity: ctx.buses().write_buses(),
                    });
                }
            }
        }

        // Execute.
        let read = |o: &SrcOperand| -> i32 {
            match *o {
                SrcOperand::Inst(p) => values[p.index()],
                SrcOperand::PairOf(p) => pair_values[p.index()],
                SrcOperand::Const(c) => c,
                SrcOperand::Param(p) => params.get(p as usize),
            }
        };
        match inst.op {
            OpKind::Load => {
                let a = &inst.loads[0];
                values[i] = input.read(a.array as usize, a.addr as usize);
                if let Some(a2) = inst.loads.get(1) {
                    pair_values[i] = input.read(a2.array as usize, a2.addr as usize);
                }
            }
            OpKind::Store => {
                let v = read(&inst.operands[0]);
                let a = inst.store.expect("store instance has address");
                memory.write(a.array as usize, a.addr as usize, v);
                values[i] = v;
            }
            op => {
                let a = inst.operands.first().map(&read).unwrap_or(0);
                let b = inst.operands.get(1).map(&read).unwrap_or(0);
                values[i] = apply_op(op, a, b);
            }
        }

        if opts.record_trace {
            events.push(TraceEvent {
                cycle: t,
                pe: inst.pe,
                instance: i as u32,
                op: inst.op,
                value: values[i],
                resource: bindings[i],
                latency: arch.op_latency(inst.op),
            });
        }
    }

    // Total cycles include the drain of the last operation's pipeline.
    let cycles = order
        .iter()
        .map(|&i| schedule[i] + latency(i))
        .max()
        .unwrap_or(0);

    Ok(SimReport {
        cycles,
        refill_stalls: 0,
        memory,
        ops_executed: n,
        shared_issues,
        max_in_flight,
        trace: opts.record_trace.then(|| Trace::new(events, cycles + 1)),
    })
}

/// Simulates a `(schedule, bindings)` pair whose configuration stream is
/// loaded per `plan`: the compact schedule is stretched onto the
/// executed timeline ([`RefillPlan::stalled_schedule`]) so every refill
/// stall becomes an explicit idle window, and the structural rules are
/// checked on that timeline. Memory effects are bit-identical to the
/// compact schedule's — refill stalls only delay, they never reorder —
/// so the [`rsp_kernel::evaluate`] oracle holds for split schedules
/// exactly as it does for fitting ones. The report counts the stall
/// cycles and, when tracing, the [`Trace`] exposes the refill windows.
///
/// # Errors
///
/// See [`simulate`]; additionally, a `plan` whose segments do not cover
/// the schedule's cycle span (it was built for a different schedule) is
/// a [`SimError::ShapeMismatch`].
#[allow(clippy::too_many_arguments)] // the full hardware state is the point
pub fn simulate_split(
    ctx: &ConfigContext,
    arch: &RspArchitecture,
    schedule: &[u32],
    bindings: &[Option<SharedResourceId>],
    plan: &RefillPlan,
    kernel: &Kernel,
    input: &MemoryImage,
    params: &Bindings,
    opts: &SimOptions,
) -> Result<SimReport, SimError> {
    split_with(
        simulate, ctx, arch, schedule, bindings, plan, kernel, input, params, opts,
    )
}

/// [`simulate_split`] on the [`simulate_reference`] engine: the oracle
/// for split schedules.
///
/// # Errors
///
/// See [`simulate_split`].
#[doc(hidden)]
#[allow(clippy::too_many_arguments)] // the full hardware state is the point
pub fn simulate_split_reference(
    ctx: &ConfigContext,
    arch: &RspArchitecture,
    schedule: &[u32],
    bindings: &[Option<SharedResourceId>],
    plan: &RefillPlan,
    kernel: &Kernel,
    input: &MemoryImage,
    params: &Bindings,
    opts: &SimOptions,
) -> Result<SimReport, SimError> {
    split_with(
        simulate_reference,
        ctx,
        arch,
        schedule,
        bindings,
        plan,
        kernel,
        input,
        params,
        opts,
    )
}

/// A simulation engine: [`simulate`] or [`simulate_reference`].
type Engine = fn(
    &ConfigContext,
    &RspArchitecture,
    &[u32],
    &[Option<SharedResourceId>],
    &Kernel,
    &MemoryImage,
    &Bindings,
    &SimOptions,
) -> Result<SimReport, SimError>;

#[allow(clippy::too_many_arguments)] // the full hardware state is the point
fn split_with(
    engine: Engine,
    ctx: &ConfigContext,
    arch: &RspArchitecture,
    schedule: &[u32],
    bindings: &[Option<SharedResourceId>],
    plan: &RefillPlan,
    kernel: &Kernel,
    input: &MemoryImage,
    params: &Bindings,
    opts: &SimOptions,
) -> Result<SimReport, SimError> {
    if schedule.len() != ctx.instances().len() {
        return Err(SimError::ShapeMismatch {
            expected: ctx.instances().len(),
            actual: schedule.len(),
        });
    }
    // The plan must cover the schedule it is applied to: a plan built
    // for a shorter schedule cannot place the later cycles in any
    // segment. Reported as a shape mismatch (planned vs actual cycle
    // span) rather than panicking inside `RefillPlan::stalled_cycle`.
    let total = schedule.iter().map(|&c| c as usize + 1).max().unwrap_or(0);
    let planned = plan.segments().last().map_or(0, |s| s.end_cycle as usize);
    if total > planned {
        return Err(SimError::ShapeMismatch {
            expected: planned,
            actual: total,
        });
    }
    let stalled = plan.stalled_schedule(schedule);
    let mut report = engine(ctx, arch, &stalled, bindings, kernel, input, params, opts)?;
    report.refill_stalls = plan.total_refill_cycles();
    if let Some(trace) = &mut report.trace {
        trace.set_refill_windows(plan.stall_windows());
    }
    Ok(report)
}

/// Simulates a rearranged context (schedule + bindings from `rsp-core`),
/// executing its [`RefillPlan`]: split schedules run with explicit
/// refill-stall windows, fitting schedules run unchanged.
///
/// # Errors
///
/// See [`simulate`].
pub fn simulate_rearranged(
    ctx: &ConfigContext,
    arch: &RspArchitecture,
    rearranged: &Rearranged,
    kernel: &Kernel,
    input: &MemoryImage,
    params: &Bindings,
) -> Result<SimReport, SimError> {
    simulate_split(
        ctx,
        arch,
        &rearranged.cycles,
        &rearranged.bindings,
        &rearranged.refill,
        kernel,
        input,
        params,
        &SimOptions::default(),
    )
}

/// Simulates the base schedule on the base architecture (no sharing, unit
/// latencies).
///
/// # Errors
///
/// See [`simulate`].
pub fn simulate_base(
    ctx: &ConfigContext,
    arch: &RspArchitecture,
    kernel: &Kernel,
    input: &MemoryImage,
    params: &Bindings,
) -> Result<SimReport, SimError> {
    let bindings = vec![None; ctx.instances().len()];
    simulate(
        ctx,
        arch,
        ctx.cycles(),
        &bindings,
        kernel,
        input,
        params,
        &SimOptions::default(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsp_arch::presets;
    use rsp_core::rearrange;
    use rsp_kernel::{evaluate, suite};
    use rsp_mapper::{map, MapOptions};

    fn setup(kernel: &Kernel) -> (ConfigContext, MemoryImage, Bindings) {
        let ctx = map(presets::base_8x8().base(), kernel, &MapOptions::default()).unwrap();
        let img = MemoryImage::random(kernel, 0xC0FFEE);
        let params = Bindings::defaults(kernel);
        (ctx, img, params)
    }

    /// Runs a simulation on both engines, asserts they return the same
    /// `Result` and hands back the dense engine's.
    fn on_both_engines(
        run: impl Fn(Engine) -> Result<SimReport, SimError>,
    ) -> Result<SimReport, SimError> {
        let dense = run(simulate);
        assert_eq!(dense, run(simulate_reference));
        dense
    }

    #[test]
    fn base_simulation_matches_reference_for_all_kernels() {
        for k in suite::all() {
            let (ctx, img, params) = setup(&k);
            let report = simulate_base(&ctx, &presets::base_8x8(), &k, &img, &params)
                .unwrap_or_else(|e| panic!("{}: {e}", k.name()));
            let reference = evaluate(&k, &img, &params).unwrap();
            assert_eq!(report.memory, reference, "{}", k.name());
            assert_eq!(report.shared_issues, 0);
        }
    }

    #[test]
    fn rearranged_simulation_matches_reference_everywhere() {
        for k in suite::all() {
            let (ctx, img, params) = setup(&k);
            let reference = evaluate(&k, &img, &params).unwrap();
            for arch in presets::table_architectures() {
                let r = rearrange(&ctx, &arch, &Default::default()).unwrap();
                let report = simulate_rearranged(&ctx, &arch, &r, &k, &img, &params)
                    .unwrap_or_else(|e| panic!("{} on {}: {e}", k.name(), arch.name()));
                assert_eq!(report.memory, reference, "{} on {}", k.name(), arch.name());
            }
        }
    }

    #[test]
    fn pipelined_resources_overlap_in_flight() {
        // The Fig. 6 effect: a 2-stage shared multiplier holds two
        // multiplications simultaneously somewhere in a busy kernel.
        let k = suite::matmul(8);
        let (ctx, img, params) = setup(&k);
        let arch = presets::rsp1();
        let r = rearrange(&ctx, &arch, &Default::default()).unwrap();
        let report = simulate_rearranged(&ctx, &arch, &r, &k, &img, &params).unwrap();
        assert_eq!(report.max_in_flight, 2);
        // And with combinational sharing it never exceeds one.
        let rs = rearrange(&ctx, &presets::rs1(), &Default::default()).unwrap();
        let report = simulate_rearranged(&ctx, &presets::rs1(), &rs, &k, &img, &params).unwrap();
        assert!(report.max_in_flight <= 1);
    }

    #[test]
    fn tampered_schedule_is_caught() {
        let k = suite::mvm();
        let (ctx, img, params) = setup(&k);
        let arch = presets::rsp2();
        let r = rearrange(&ctx, &arch, &Default::default()).unwrap();

        // Pull a dependent operation one cycle early.
        let mut bad = r.cycles.clone();
        let victim = ctx
            .instances()
            .iter()
            .find(|i| !i.preds.is_empty())
            .unwrap()
            .id
            .index();
        bad[victim] = r.cycles[ctx.instances()[victim].preds[0].index()];
        let err = on_both_engines(|sim| {
            sim(
                &ctx,
                &arch,
                &bad,
                &r.bindings,
                &k,
                &img,
                &params,
                &Default::default(),
            )
        })
        .unwrap_err();
        assert!(matches!(
            err,
            SimError::OperandNotReady { .. } | SimError::PeConflict { .. }
        ));
    }

    #[test]
    fn stripped_bindings_are_caught() {
        let k = suite::mvm();
        let (ctx, img, params) = setup(&k);
        let arch = presets::rs1();
        let r = rearrange(&ctx, &arch, &Default::default()).unwrap();
        let no_bindings = vec![None; ctx.instances().len()];
        let err = on_both_engines(|sim| {
            sim(
                &ctx,
                &arch,
                &r.cycles,
                &no_bindings,
                &k,
                &img,
                &params,
                &Default::default(),
            )
        })
        .unwrap_err();
        assert!(matches!(err, SimError::UnboundSharedOp { .. }));
    }

    #[test]
    fn foreign_binding_is_caught() {
        let k = suite::mvm();
        let (ctx, img, params) = setup(&k);
        let arch = presets::rs1();
        let r = rearrange(&ctx, &arch, &Default::default()).unwrap();
        let mut bad = r.bindings.clone();
        // Rebind some mult to a resource in the wrong row.
        let (idx, inst) = ctx
            .instances()
            .iter()
            .enumerate()
            .find(|(_, i)| i.op == OpKind::Mult)
            .unwrap();
        bad[idx] = Some(SharedResourceId::Row {
            kind: rsp_arch::FuKind::Multiplier,
            row: (inst.pe.row + 1) % 8,
            index: 0,
        });
        let err = on_both_engines(|sim| {
            sim(
                &ctx,
                &arch,
                &r.cycles,
                &bad,
                &k,
                &img,
                &params,
                &Default::default(),
            )
        })
        .unwrap_err();
        assert!(matches!(err, SimError::UnreachableResource { .. }));
    }

    #[test]
    fn double_issue_is_caught() {
        let k = suite::matmul(8);
        let (ctx, img, params) = setup(&k);
        let arch = presets::rs2();
        let r = rearrange(&ctx, &arch, &Default::default()).unwrap();
        // Force two mults bound to different resources onto one resource.
        let mut bad = r.bindings.clone();
        let mut mult_pairs: HashMap<(u32, usize), Vec<usize>> = HashMap::new();
        for (i, inst) in ctx.instances().iter().enumerate() {
            if inst.op == OpKind::Mult {
                mult_pairs
                    .entry((r.cycles[i], inst.pe.row))
                    .or_default()
                    .push(i);
            }
        }
        let pair = mult_pairs
            .values()
            .find(|v| v.len() >= 2)
            .expect("RS#2 issues two multiplications in one row and cycle");
        bad[pair[1]] = bad[pair[0]];
        let err = on_both_engines(|sim| {
            sim(
                &ctx,
                &arch,
                &r.cycles,
                &bad,
                &k,
                &img,
                &params,
                &Default::default(),
            )
        })
        .unwrap_err();
        assert!(matches!(err, SimError::SharedIssueConflict { .. }));
    }

    #[test]
    fn strict_buses_flag_detects_soft_schedules() {
        let k = suite::matmul(8);
        let (ctx, img, params) = setup(&k);
        let arch = presets::base_8x8();
        let bindings = vec![None; ctx.instances().len()];
        let err = on_both_engines(|sim| {
            sim(
                &ctx,
                &arch,
                ctx.cycles(),
                &bindings,
                &k,
                &img,
                &params,
                &SimOptions {
                    check_buses: true,
                    ..Default::default()
                },
            )
        });
        assert!(matches!(err, Err(SimError::BusOverflow { .. })));
    }

    #[test]
    fn unroutable_dependence_detected() {
        // Relocate a producer to a diagonal PE: the row/column
        // interconnect cannot deliver its result.
        let k = suite::iccg();
        let (ctx, img, params) = setup(&k);
        let arch = presets::base_8x8();
        let mut moved = ctx.clone();
        // Serialize-and-patch: rebuild the context with one PE moved via
        // its serde form (ConfigContext fields are private).
        let mut v: serde_json::Value = serde_json::to_value(&moved).unwrap();
        let insts = v["instances"].as_array_mut().unwrap();
        // Find a consumer with a predecessor and move the producer
        // diagonally away from it.
        let (prod_idx, cons_pe) = {
            let cons = ctx
                .instances()
                .iter()
                .find(|i| !i.preds.is_empty())
                .unwrap();
            (cons.preds[0].index(), cons.pe)
        };
        insts[prod_idx]["pe"]["row"] = ((cons_pe.row + 1) % 8).into();
        insts[prod_idx]["pe"]["col"] = ((cons_pe.col + 1) % 8).into();
        moved = serde_json::from_value(v).unwrap();
        let bindings = vec![None; moved.instances().len()];
        let err = on_both_engines(|sim| {
            sim(
                &moved,
                &arch,
                moved.cycles(),
                &bindings,
                &k,
                &img,
                &params,
                &Default::default(),
            )
        })
        .unwrap_err();
        assert!(matches!(
            err,
            SimError::UnroutableDependence { .. } | SimError::PeConflict { .. }
        ));
    }

    #[test]
    fn shape_mismatch_detected() {
        let k = suite::mvm();
        let (ctx, img, params) = setup(&k);
        let arch = presets::base_8x8();
        let err = on_both_engines(|sim| {
            sim(
                &ctx,
                &arch,
                &[0, 1, 2],
                &[None, None, None],
                &k,
                &img,
                &params,
                &Default::default(),
            )
        })
        .unwrap_err();
        assert!(matches!(err, SimError::ShapeMismatch { .. }));
    }

    #[test]
    fn split_schedule_memory_is_bit_identical_and_counts_stalls() {
        // Force a split of a fitting schedule through an artificially
        // small cache: memory must stay bit-identical to the evaluator
        // and the report must charge exactly the plan's stall cycles.
        use rsp_mapper::{min_splittable_depth, split_schedule};
        for k in [suite::sad(), suite::matmul(8), suite::fdct()] {
            let (ctx, img, params) = setup(&k);
            let reference = evaluate(&k, &img, &params).unwrap();
            for arch in [presets::base_8x8(), presets::rs1(), presets::rsp2()] {
                let r = rearrange(&ctx, &arch, &Default::default()).unwrap();
                let lat = |i: usize| u32::from(arch.op_latency(ctx.instances()[i].op));
                // Smallest depth that still has a legal cut in every
                // window; bump toward thirds for multi-way splits.
                let depth = min_splittable_depth(&ctx, &r.cycles, lat)
                    .unwrap()
                    .max(r.total_cycles / 3)
                    .max(8);
                if depth >= r.total_cycles {
                    continue; // pipelined issues tile the schedule: unsplittable
                }
                let plan = split_schedule(&ctx, &r.cycles, lat, depth).unwrap();
                assert!(plan.is_split(), "{} on {}", k.name(), arch.name());
                let report = simulate_split(
                    &ctx,
                    &arch,
                    &r.cycles,
                    &r.bindings,
                    &plan,
                    &k,
                    &img,
                    &params,
                    &SimOptions {
                        record_trace: true,
                        ..Default::default()
                    },
                )
                .unwrap();
                assert_eq!(report.memory, reference, "{} on {}", k.name(), arch.name());
                assert_eq!(report.refill_stalls, plan.total_refill_cycles());
                assert!(report.cycles >= r.total_cycles + report.refill_stalls - 1);
                let trace = report.trace.unwrap();
                assert_eq!(trace.refill_windows(), plan.stall_windows());
                // No operation issues inside a refill window.
                for e in trace.events() {
                    assert!(
                        !trace.is_refill_cycle(e.cycle),
                        "{} issued during refill at cycle {}",
                        e.instance,
                        e.cycle
                    );
                }
            }
        }
    }

    #[test]
    fn mismatched_refill_plan_is_a_shape_error_not_a_panic() {
        // A plan built for a shorter schedule cannot place the longer
        // schedule's tail cycles in any segment: SimError, not a panic.
        use rsp_mapper::split_schedule;
        let k = suite::mvm();
        let (ctx, img, params) = setup(&k);
        let arch = presets::base_8x8();
        let r = rearrange(&ctx, &arch, &Default::default()).unwrap();
        let short: Vec<u32> = r.cycles.iter().map(|&c| c / 2).collect();
        let short_plan = split_schedule(&ctx, &short, |_| 1, 8).unwrap();
        let err = on_both_engines(|sim| {
            split_with(
                sim,
                &ctx,
                &arch,
                &r.cycles, // longer than the plan covers
                &r.bindings,
                &short_plan,
                &k,
                &img,
                &params,
                &Default::default(),
            )
        })
        .unwrap_err();
        assert!(matches!(err, SimError::ShapeMismatch { .. }));
    }

    #[test]
    fn rearranged_split_schedules_pass_the_oracle() {
        // End-to-end: rearrange against architectures whose cache is too
        // small, so `rearrange` itself splits, and `simulate_rearranged`
        // executes the split plan.
        use rsp_arch::{BaseArchitecture, RspArchitecture};
        let k = suite::fdct();
        let (ctx, img, params) = setup(&k);
        let reference = evaluate(&k, &img, &params).unwrap();
        for big in [presets::rs1(), presets::rsp2()] {
            // Size the cache so rearrangement must split: just over half
            // the rearranged length, rounded up to a splittable depth.
            let probe = rearrange(&ctx, &big, &Default::default()).unwrap();
            let lat = |i: usize| u32::from(big.op_latency(ctx.instances()[i].op));
            let depth = rsp_mapper::min_splittable_depth(&ctx, &probe.cycles, lat)
                .unwrap()
                .max(probe.total_cycles / 2 + 1) as usize;
            assert!(depth < probe.total_cycles as usize, "{}", big.name());
            let b = big.base();
            let small = BaseArchitecture::new(b.geometry(), b.pe().clone(), b.buses(), depth);
            let arch =
                RspArchitecture::new(big.name().to_string(), small, big.plan().clone()).unwrap();
            let r = rearrange(&ctx, &arch, &Default::default()).unwrap();
            assert!(r.refill.is_split(), "{}", arch.name());
            assert!(r.refill_stalls() > 0);
            let report = simulate_rearranged(&ctx, &arch, &r, &k, &img, &params).unwrap();
            assert_eq!(report.memory, reference, "{}", arch.name());
            assert_eq!(report.refill_stalls, r.refill_stalls());
        }
    }

    #[test]
    fn cycle_count_includes_pipeline_drain() {
        let k = suite::mvm();
        let (ctx, img, params) = setup(&k);
        let arch = presets::rsp2();
        let r = rearrange(&ctx, &arch, &Default::default()).unwrap();
        let report = simulate_rearranged(&ctx, &arch, &r, &k, &img, &params).unwrap();
        // The simulator's cycle count is within one drain cycle of the
        // scheduler's.
        assert!(report.cycles >= r.total_cycles - 1);
        assert!(report.cycles <= r.total_cycles + 1);
    }
}
