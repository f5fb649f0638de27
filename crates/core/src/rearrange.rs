//! RSP context rearrangement — the paper's §4 rules made executable.
//!
//! Given the *initial* configuration contexts (base schedule) and a target
//! RSP architecture, produce the *RSP configuration contexts*:
//!
//! 1. **Resource sharing (RS)** — shared resources are granted to
//!    operations **in loop-iteration order** each cycle; an operation that
//!    finds no free resource is moved to the next cycle, pushing its PE's
//!    later operations (and transitively, later iterations) back — an *RS
//!    stall*.
//! 2. **Resource pipelining (RP)** — operations on pipelined resources
//!    take `stages` cycles, so dependent operations stall with them; since
//!    a pipelined resource accepts a new issue every cycle, *consecutive*
//!    multiplications overlap in distinct stages and a chain of `k`
//!    multiplications costs `k + stages − 1` cycles, not `k × stages`
//!    (the paper's "overlapped cycles are removed" rule and the mechanism
//!    behind Fig. 6 needing four multipliers where Fig. 2 needs eight).
//!
//! The engine is a resource-constrained list scheduler over the instance
//! graph with three invariants: no instance issues before its base-schedule
//! cycle (rearrangement only delays), each PE issues its instances in
//! base-schedule order (the configuration stream is a FIFO), and shared
//! resources accept one issue per cycle. Ready FIFO heads compete in
//! loop-iteration order, `(element, step, node)`, which is a total order
//! over a mapped context's instances.
//!
//! The work splits in two:
//!
//! * **Skeleton (per context, built once).** A [`RearrangeSkeleton`]
//!   holds what depends on the context alone: each instance's rank in
//!   loop-iteration order, every PE's FIFO ordered by `(base cycle,
//!   rank)` in one flat array, and the flattened predecessor lists. Both
//!   passes walk it, and the flow's exact stage reuses one skeleton per
//!   context across every frontier candidate.
//! * **Loop (per architecture).** Each [`RearrangeSkeleton::rearrange`]
//!   call builds dense tables (a latency per instance, one candidate
//!   resource list per PE and operation kind) and runs over plain arrays.
//!   A shared resource accepts one issue per cycle and `t` only moves
//!   forward, so the resource is free at `t` exactly when its last issue
//!   was not at `t`: one `last_issue[res]` cycle replaces a table of
//!   per-cycle issue slots. Row-bus use is kept per row the same way,
//!   stamped with the cycle it counts. Ready heads that compete for
//!   nothing always issue, so only heads bound for a shared resource or
//!   (when enforced) a row bus are sorted by rank each cycle.
//!
//! When no head is ready, nothing changes until the earliest cycle at
//! which one becomes ready: its base cycle, or its last predecessor's
//! completion. The loop jumps straight there instead of stepping through
//! idle cycles. A jump past the divergence bound, or finding no head that
//! can ever become ready, fails with the same
//! [`RspError::RearrangeDiverged`] that stepping to the bound would have.
//!
//! [`rearrange_reference`] keeps the original scheduler, which scanned
//! every PE each cycle through hash maps, as the oracle the dense one is
//! property-tested against.
//!
//! # Configuration-cache refill
//!
//! A rearranged schedule deeper than the per-PE configuration cache is
//! no longer rejected: it is split into cache-sized segments at legal
//! cut points ([`rsp_mapper::split_schedule`]) and the resulting
//! [`RefillPlan`] rides on the [`Rearranged`] output. Each segment after
//! the first charges a refill stall of one cycle per context word
//! (derived from the `ConfigImage` byte size; see the mapper's refill
//! module docs), so [`Rearranged::elapsed_cycles`] =
//! `total_cycles + refill_stalls`. The stalls are pure delay — the
//! compact schedule, bindings, and therefore memory effects are
//! untouched — which keeps `base_cycles` an admissible floor on the
//! elapsed cycles (`elapsed ≥ total ≥ base`), exactly the invariant the
//! flow's pruning cuts rest on.

use crate::error::RspError;
use rsp_arch::{OpKind, PeId, RspArchitecture, SharedResourceId};
use rsp_mapper::{split_schedule, ConfigContext, InstanceId, RefillPlan, SplitError};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Rearrangement options.
#[derive(Debug, Clone, Copy, Default)]
pub struct RearrangeOptions {
    /// Also enforce row-bus capacities while rescheduling (off by default,
    /// matching the base mapper's reliance on operand reuse).
    pub enforce_buses: bool,
}

/// The rearranged (RSP) configuration contexts for one kernel on one
/// architecture.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Rearranged {
    /// New schedule, parallel to the context's instances.
    pub cycles: Vec<u32>,
    /// Shared-resource binding per instance (multiplications on RS/RSP
    /// architectures; `None` for local operations).
    pub bindings: Vec<Option<SharedResourceId>>,
    /// Total cycles of the rearranged schedule. Never less than
    /// `base_cycles`: the scheduler issues no instance before its
    /// base-schedule cycle, so rearrangement only *delays* — the
    /// monotonicity the estimator's admissibility proof rests on, and
    /// through it the exact-time floors that let [`crate::run_flow`]
    /// skip rearranging candidates that cannot win.
    pub total_cycles: u32,
    /// Total cycles of the base schedule.
    pub base_cycles: u32,
    /// Cycles added by multi-cycle (pipelined) operation latency alone —
    /// the RP contribution, measured with unlimited resources.
    pub rp_overhead: u32,
    /// Additional cycles lost to shared-resource shortage — the paper's
    /// "stall" column.
    pub rs_stalls: u32,
    /// How the schedule maps onto the per-PE configuration caches: one
    /// segment with zero refill when it fits, cache-sized segments with
    /// per-segment reload stalls when it does not (see the module docs).
    pub refill: RefillPlan,
}

impl Rearranged {
    /// Whether the architecture "supports the kernel without stall"
    /// (the paper's criterion for RSP#2 in §5.3).
    pub fn is_stall_free(&self) -> bool {
        self.rs_stalls == 0
    }

    /// Refill-stall cycles the split schedule spends reloading the
    /// configuration caches (0 when the schedule fits).
    pub fn refill_stalls(&self) -> u32 {
        self.refill.total_refill_cycles()
    }

    /// Cache refills the schedule performs (segments beyond the first).
    pub fn refill_count(&self) -> usize {
        self.refill.refill_count()
    }

    /// Wall-clock cycles including refill stalls: what the kernel's
    /// execution time is charged with.
    pub fn elapsed_cycles(&self) -> u32 {
        self.total_cycles + self.refill_stalls()
    }
}

/// Rearranges `ctx` for `arch` per the RS/RP/RSP rules.
///
/// For the base architecture this is the identity (the base schedule is
/// already legal); for RS it inserts sharing stalls; for RP it stretches
/// multi-cycle operations; for RSP it does both.
///
/// A schedule deeper than the configuration cache is split into
/// cache-sized segments and charged refill stalls instead of being
/// rejected (see the module docs); [`Rearranged::refill`] carries the
/// plan.
///
/// # Errors
///
/// * [`RspError::RearrangeDiverged`] on internal inconsistency (never
///   expected for validated inputs).
/// * [`RspError::UnsplittableSchedule`] if the oversized schedule has no
///   legal cut point within some cache window (only possible when
///   pipeline latencies tile an entire window).
///
/// # Examples
///
/// ```
/// use rsp_arch::presets;
/// use rsp_core::rearrange;
/// use rsp_kernel::suite;
/// use rsp_mapper::{map, MapOptions};
///
/// let base = presets::base_8x8();
/// let ctx = map(base.base(), &suite::state(), &MapOptions::default())?;
///
/// // One multiplier per row starves the State kernel (Table 4: stalls),
/// // two pipelined multipliers per row run it stall-free (RSP#2).
/// let rs1 = rearrange(&ctx, &presets::rs1(), &Default::default())?;
/// let rsp2 = rearrange(&ctx, &presets::rsp2(), &Default::default())?;
/// assert!(rs1.rs_stalls > 0);
/// assert!(rsp2.is_stall_free());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn rearrange(
    ctx: &ConfigContext,
    arch: &RspArchitecture,
    opts: &RearrangeOptions,
) -> Result<Rearranged, RspError> {
    RearrangeSkeleton::new(ctx).rearrange(arch, opts)
}

/// Sentinel for "not issued yet" (schedule) and "a predecessor has not
/// issued yet" (head ready time).
const PENDING: u32 = u32::MAX;

/// Per-instance facts the scheduling loop reads, packed densely.
#[derive(Debug, Clone, Copy)]
struct Slot {
    /// Base-schedule cycle: the earliest issue cycle.
    base: u32,
    /// Position in loop-iteration order `(element, step, node)`.
    rank: u32,
    /// The PE FIFO this instance belongs to.
    fifo: u32,
    /// Array row (its row buses).
    row: u32,
    /// Row-bus words read in the issue cycle.
    reads: u32,
    /// Whether the instance uses the row write bus.
    store: bool,
    op: OpKind,
}

/// The architecture-independent half of rearranging one context: the
/// instance ranks, the per-PE FIFOs, and the flattened predecessor
/// lists (see the module docs).
///
/// Build it once per context and call [`RearrangeSkeleton::rearrange`]
/// per architecture; [`rearrange`] is the one-shot form.
///
/// # Examples
///
/// ```
/// use rsp_arch::presets;
/// use rsp_core::{rearrange, RearrangeSkeleton};
/// use rsp_kernel::suite;
/// use rsp_mapper::{map, MapOptions};
///
/// let ctx = map(presets::base_8x8().base(), &suite::fdct(), &MapOptions::default())?;
/// let skeleton = RearrangeSkeleton::new(&ctx);
/// for arch in [presets::rs1(), presets::rsp2()] {
///     let r = skeleton.rearrange(&arch, &Default::default())?;
///     assert_eq!(r, rearrange(&ctx, &arch, &Default::default())?);
/// }
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct RearrangeSkeleton<'c> {
    ctx: &'c ConfigContext,
    slots: Vec<Slot>,
    /// Instance index per rank (inverse of [`Slot::rank`]).
    by_rank: Vec<u32>,
    /// Every PE FIFO back to back; FIFO `f` is
    /// `fifo[fifo_start[f]..fifo_start[f + 1]]`, in `(base, rank)` order.
    fifo: Vec<u32>,
    fifo_start: Vec<u32>,
    /// The PE each FIFO feeds.
    fifo_pe: Vec<PeId>,
    /// Data predecessors; instance `i`'s are
    /// `preds[pred_start[i]..pred_start[i + 1]]`.
    preds: Vec<u32>,
    pred_start: Vec<u32>,
    /// Divergence bound: a schedule still unfinished past this cycle is
    /// an internal inconsistency.
    bound: u32,
}

/// The architecture's half: dense per-instance tables for one
/// [`RearrangeSkeleton::rearrange`] call.
struct ArchTables {
    latency: Vec<u32>,
    /// `None` for local operations; for shared ones, the range of
    /// [`ArchTables::cand_res`] holding the instance's candidate
    /// resources (possibly empty: unreachable, so it never issues).
    cands: Vec<Option<(u32, u32)>>,
    /// Dense resource indices, one list per (FIFO, op kind) in use.
    cand_res: Vec<u32>,
    /// Resource identity per dense index.
    resources: Vec<SharedResourceId>,
}

impl<'c> RearrangeSkeleton<'c> {
    /// Builds the skeleton of `ctx`: ranks, FIFOs and predecessor lists.
    pub fn new(ctx: &'c ConfigContext) -> Self {
        let instances = ctx.instances();
        let n = instances.len();
        let geom = ctx.geometry();

        // One pass over the instances; ranks are filled in below. FIFOs
        // get dense indices per occupied PE in order of first use.
        let mut keys: Vec<(u32, u32, u32, u32)> = Vec::with_capacity(n);
        let mut slots: Vec<Slot> = Vec::with_capacity(n);
        let mut preds = Vec::with_capacity(n);
        let mut pred_start = Vec::with_capacity(n + 1);
        pred_start.push(0u32);
        let mut fifo_of_pe = vec![u32::MAX; geom.pe_count()];
        let mut fifo_pe = Vec::new();
        let mut fifo_start = vec![0u32];
        for (i, inst) in instances.iter().enumerate() {
            keys.push((inst.element, inst.step, inst.node, i as u32));
            let cell = &mut fifo_of_pe[inst.pe.row * geom.cols() + inst.pe.col];
            if *cell == u32::MAX {
                *cell = fifo_pe.len() as u32;
                fifo_pe.push(inst.pe);
                fifo_start.push(0);
            }
            fifo_start[*cell as usize + 1] += 1;
            slots.push(Slot {
                base: ctx.cycles()[i],
                rank: 0,
                fifo: *cell,
                row: inst.pe.row as u32,
                reads: inst.bus_read_words() as u32,
                store: inst.is_store(),
                op: inst.op,
            });
            preds.extend(inst.preds.iter().map(|p| p.0));
            pred_start.push(preds.len() as u32);
        }
        for f in 1..fifo_start.len() {
            fifo_start[f] += fifo_start[f - 1];
        }

        // The mapper emits instances in (or close to) this order, which
        // the sort exploits; the index breaks ties, though a mapped
        // context has none.
        keys.sort_unstable();
        let by_rank: Vec<u32> = keys.into_iter().map(|k| k.3).collect();
        for (r, &i) in by_rank.iter().enumerate() {
            slots[i as usize].rank = r as u32;
        }

        // Fill FIFOs in (base, rank) order: a counting sort of the
        // rank order by base cycle, then a stable placement per FIFO.
        let span = slots.iter().map(|s| s.base as usize + 1).max().unwrap_or(0);
        let mut at_base = vec![0u32; span + 1];
        for slot in &slots {
            at_base[slot.base as usize + 1] += 1;
        }
        for c in 1..at_base.len() {
            at_base[c] += at_base[c - 1];
        }
        let mut order = vec![0u32; n];
        for &i in &by_rank {
            let next = &mut at_base[slots[i as usize].base as usize];
            order[*next as usize] = i;
            *next += 1;
        }
        let mut fill = fifo_start.clone();
        let mut fifo = vec![0u32; n];
        for i in order {
            let f = slots[i as usize].fifo as usize;
            fifo[fill[f] as usize] = i;
            fill[f] += 1;
        }

        Self {
            ctx,
            slots,
            by_rank,
            fifo,
            fifo_start,
            fifo_pe,
            preds,
            pred_start,
            bound: ctx.total_cycles() * 4 + 16 * n as u32 + 64,
        }
    }

    /// The context this skeleton was built from.
    pub fn context(&self) -> &'c ConfigContext {
        self.ctx
    }

    /// Rearranges the skeleton's context for `arch`; identical to
    /// [`rearrange`] on the same inputs.
    ///
    /// # Errors
    ///
    /// As [`rearrange`].
    pub fn rearrange(
        &self,
        arch: &RspArchitecture,
        opts: &RearrangeOptions,
    ) -> Result<Rearranged, RspError> {
        let tables = self.tables(arch);
        // Pass 1: latencies only (unlimited resources) -> RP overhead.
        let rp_total = total(&self.schedule(&tables, opts, false)?.0);
        // Pass 2: latencies + sharing constraints -> full RSP schedule.
        let (cycles, bound_to) = self.schedule(&tables, opts, true)?;
        let bindings = bound_to
            .into_iter()
            .map(|res| (res != PENDING).then(|| tables.resources[res as usize]))
            .collect();
        finish(self.ctx, arch, cycles, bindings, rp_total, |i| {
            tables.latency[i]
        })
    }

    fn tables(&self, arch: &RspArchitecture) -> ArchTables {
        let mut op_latency = [0u32; OpKind::ALL.len()];
        let mut op_shared = [false; OpKind::ALL.len()];
        for op in OpKind::ALL {
            op_latency[op as usize] = u32::from(arch.op_latency(op));
            op_shared[op as usize] = arch.op_is_shared(op);
        }
        let mut dense: HashMap<SharedResourceId, u32> = HashMap::new();
        let mut resources = Vec::new();
        let mut cand_res = Vec::new();
        // Candidate list per (FIFO, op kind), built on first use.
        let mut lists: Vec<Option<(u32, u32)>> = vec![None; self.fifo_pe.len() * OpKind::ALL.len()];
        let mut latency = Vec::with_capacity(self.slots.len());
        let mut cands = Vec::with_capacity(self.slots.len());
        for slot in &self.slots {
            let op = slot.op as usize;
            latency.push(op_latency[op]);
            if !op_shared[op] {
                cands.push(None);
                continue;
            }
            let list = &mut lists[slot.fifo as usize * OpKind::ALL.len() + op];
            let range = *list.get_or_insert_with(|| {
                let start = cand_res.len() as u32;
                for res in arch.candidates(self.fifo_pe[slot.fifo as usize], slot.op) {
                    let d = *dense.entry(res).or_insert_with(|| {
                        resources.push(res);
                        resources.len() as u32 - 1
                    });
                    cand_res.push(d);
                }
                (start, cand_res.len() as u32)
            });
            cands.push(Some(range));
        }
        ArchTables {
            latency,
            cands,
            cand_res,
            resources,
        }
    }

    /// The dense list scheduler: the issue cycle and the dense shared
    /// resource ([`PENDING`] for none) of every instance. When `sharing`
    /// is false, shared resources are treated as unlimited (used to
    /// isolate the RP contribution).
    fn schedule(
        &self,
        tables: &ArchTables,
        opts: &RearrangeOptions,
        sharing: bool,
    ) -> Result<(Vec<u32>, Vec<u32>), RspError> {
        let n = self.slots.len();
        let fifos = self.fifo_pe.len();
        let buses = self.ctx.buses();
        let (read_buses, write_buses) = (buses.read_buses() as u32, buses.write_buses() as u32);
        let rows = self.ctx.geometry().rows();

        let mut sched = vec![PENDING; n];
        let mut bound_to = vec![PENDING; n];
        let mut head: Vec<u32> = self.fifo_start[..fifos].to_vec();
        // Cycle at which each FIFO head becomes ready; PENDING until all
        // its predecessors have issued (then it never changes).
        let mut head_ready = vec![PENDING; fifos];
        let mut active: Vec<u32> = (0..fifos as u32).collect();
        let mut last_issue = vec![PENDING; tables.resources.len()];
        // Row-bus words per row, valid only when the stamp is `t`.
        let mut bus_stamp = vec![PENDING; rows];
        let mut bus_read = vec![0u32; rows];
        let mut bus_write = vec![0u32; rows];
        // Ready heads this cycle: ranks of those competing for a shared
        // resource or a row bus, instance indices of the rest.
        let mut contended: Vec<u32> = Vec::with_capacity(fifos);
        let mut free: Vec<u32> = Vec::with_capacity(fifos);

        let mut remaining = n;
        let mut t: u32 = 0;
        while remaining > 0 {
            if t > self.bound {
                return Err(RspError::RearrangeDiverged { bound: self.bound });
            }
            contended.clear();
            free.clear();
            let mut next = PENDING;
            for &f in &active {
                let f = f as usize;
                let i = self.fifo[head[f] as usize] as usize;
                if head_ready[f] == PENDING {
                    head_ready[f] = self.ready_time(i, &sched, &tables.latency);
                }
                let ready = head_ready[f];
                if ready > t {
                    next = next.min(ready);
                    continue;
                }
                let slot = &self.slots[i];
                if (sharing && tables.cands[i].is_some())
                    || (opts.enforce_buses && (slot.reads > 0 || slot.store))
                {
                    contended.push(slot.rank);
                } else {
                    free.push(i as u32);
                }
            }
            if contended.is_empty() && free.is_empty() {
                // Nothing can change before `next`; PENDING means no
                // head can ever become ready.
                if next > self.bound {
                    return Err(RspError::RearrangeDiverged { bound: self.bound });
                }
                t = next;
                continue;
            }

            // Uncontended heads always issue, so their order is moot;
            // contended ones are granted in loop-iteration order (rule 1).
            // Issues instance `i` at `t`; true when that drains its FIFO.
            let mut issue = |i: usize| {
                sched[i] = t;
                remaining -= 1;
                let f = self.slots[i].fifo as usize;
                head[f] += 1;
                head_ready[f] = PENDING;
                head[f] == self.fifo_start[f + 1]
            };
            let mut drained = false;
            for &i in &free {
                drained |= issue(i as usize);
            }
            contended.sort_unstable();
            for &r in &contended {
                let i = self.by_rank[r as usize] as usize;
                let slot = &self.slots[i];

                // Shared-resource issue slot (RS rule).
                let mut binding = PENDING;
                if sharing {
                    if let Some((start, end)) = tables.cands[i] {
                        let open = tables.cand_res[start as usize..end as usize]
                            .iter()
                            .find(|&&res| last_issue[res as usize] != t);
                        let Some(&res) = open else {
                            continue; // stalls; PE FIFO blocks
                        };
                        binding = res;
                    }
                }

                // Optional bus capacity.
                let row = slot.row as usize;
                if opts.enforce_buses {
                    if bus_stamp[row] != t {
                        bus_stamp[row] = t;
                        bus_read[row] = 0;
                        bus_write[row] = 0;
                    }
                    if (slot.reads > 0 && bus_read[row] + slot.reads > read_buses)
                        || (slot.store && bus_write[row] + 1 > write_buses)
                    {
                        continue;
                    }
                    bus_read[row] += slot.reads;
                    bus_write[row] += u32::from(slot.store);
                }

                drained |= issue(i);
                if binding != PENDING {
                    last_issue[binding as usize] = t;
                    bound_to[i] = binding;
                }
            }
            if drained {
                active.retain(|&f| head[f as usize] < self.fifo_start[f as usize + 1]);
            }
            t += 1;
        }
        Ok((sched, bound_to))
    }

    /// Earliest cycle instance `i` may issue given the issued
    /// predecessors, or [`PENDING`] while one has not issued.
    fn ready_time(&self, i: usize, sched: &[u32], latency: &[u32]) -> u32 {
        let mut ready = self.slots[i].base;
        for &p in &self.preds[self.pred_start[i] as usize..self.pred_start[i + 1] as usize] {
            let issued = sched[p as usize];
            if issued == PENDING {
                return PENDING;
            }
            ready = ready.max(issued + latency[p as usize]);
        }
        ready
    }
}

/// Wraps two passes' schedules into a [`Rearranged`], splitting the
/// schedule across configuration-cache refills when it does not fit.
fn finish(
    ctx: &ConfigContext,
    arch: &RspArchitecture,
    cycles: Vec<u32>,
    bindings: Vec<Option<SharedResourceId>>,
    rp_total: u32,
    latency: impl Fn(usize) -> u32,
) -> Result<Rearranged, RspError> {
    let base_cycles = ctx.total_cycles();
    let total_cycles = total(&cycles);
    let available = arch.base().config_cache_depth() as u32;
    let refill = split_schedule(ctx, &cycles, latency, available).map_err(|e| match e {
        SplitError::NoLegalCut {
            start_cycle,
            cache_depth,
        } => RspError::UnsplittableSchedule {
            start_cycle,
            cache_depth,
        },
        other => unreachable!("schedule is parallel to the context: {other}"),
    })?;

    Ok(Rearranged {
        cycles,
        bindings,
        total_cycles,
        base_cycles,
        rp_overhead: rp_total.saturating_sub(base_cycles),
        rs_stalls: total_cycles.saturating_sub(rp_total),
        refill,
    })
}

fn total(cycles: &[u32]) -> u32 {
    cycles.iter().map(|&c| c + 1).max().unwrap_or(0)
}

/// The original `HashMap`-driven scheduler, kept as the oracle the dense
/// one is property-tested against (bit-identical [`Rearranged`] values).
#[doc(hidden)]
pub fn rearrange_reference(
    ctx: &ConfigContext,
    arch: &RspArchitecture,
    opts: &RearrangeOptions,
) -> Result<Rearranged, RspError> {
    // Pass 1: latencies only (unlimited resources) -> RP overhead.
    let (rp_sched, _) = schedule_reference(ctx, arch, opts, false)?;
    let rp_total = total(&rp_sched);
    // Pass 2: latencies + sharing constraints -> full RSP schedule.
    let (cycles, bindings) = schedule_reference(ctx, arch, opts, true)?;
    finish(ctx, arch, cycles, bindings, rp_total, |i| {
        u32::from(arch.op_latency(ctx.instances()[i].op))
    })
}

/// Reference list scheduler: scans every PE each cycle. When
/// `enforce_sharing` is false, shared resources are treated as unlimited.
fn schedule_reference(
    ctx: &ConfigContext,
    arch: &RspArchitecture,
    opts: &RearrangeOptions,
    enforce_sharing: bool,
) -> Result<(Vec<u32>, Vec<Option<SharedResourceId>>), RspError> {
    let n = ctx.instances().len();
    let mut sched = vec![u32::MAX; n];
    let mut bindings: Vec<Option<SharedResourceId>> = vec![None; n];

    // Per-PE FIFOs in base-schedule order.
    let mut fifos: HashMap<(usize, usize), Vec<InstanceId>> = HashMap::new();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&i| {
        let inst = &ctx.instances()[i];
        (ctx.cycles()[i], inst.element, inst.step, inst.node)
    });
    for i in order {
        let inst = &ctx.instances()[i];
        fifos
            .entry((inst.pe.row, inst.pe.col))
            .or_default()
            .push(inst.id);
    }
    let mut heads: HashMap<(usize, usize), usize> = fifos.keys().map(|&k| (k, 0)).collect();

    let latency = |i: usize| -> u32 { u32::from(arch.op_latency(ctx.instances()[i].op)) };

    // Issue slots of shared resources, per cycle.
    let mut issue_used: HashMap<(SharedResourceId, u32), ()> = HashMap::new();
    // Row-bus words per (row, cycle) when bus enforcement is on.
    let mut bus_read: HashMap<(usize, u32), usize> = HashMap::new();
    let mut bus_write: HashMap<(usize, u32), usize> = HashMap::new();

    let bound = ctx.total_cycles() * 4 + 16 * n as u32 + 64;
    let mut remaining = n;
    let mut t: u32 = 0;
    while remaining > 0 {
        if t > bound {
            return Err(RspError::RearrangeDiverged { bound });
        }
        // Candidate heads, ready at t, in loop-iteration order (rule 1).
        let mut cands: Vec<InstanceId> = Vec::new();
        for (&pe, &head) in heads.iter() {
            let fifo = &fifos[&pe];
            if head >= fifo.len() {
                continue;
            }
            let id = fifo[head];
            let i = id.index();
            let inst = &ctx.instances()[i];
            if ctx.cycles()[i] > t {
                continue; // never earlier than the base schedule
            }
            let deps_ready = inst.preds.iter().all(|p| {
                sched[p.index()] != u32::MAX && sched[p.index()] + latency(p.index()) <= t
            });
            if deps_ready {
                cands.push(id);
            }
        }
        cands.sort_by_key(|id| {
            let inst = &ctx.instances()[id.index()];
            (inst.element, inst.step, inst.node)
        });

        for id in cands {
            let i = id.index();
            let inst = &ctx.instances()[i];

            // Shared-resource issue slot (RS rule).
            let mut binding = None;
            if enforce_sharing && arch.op_is_shared(inst.op) {
                let mut found = false;
                for res in arch.candidates(inst.pe, inst.op) {
                    if !issue_used.contains_key(&(res, t)) {
                        binding = Some(res);
                        found = true;
                        break;
                    }
                }
                if !found {
                    continue; // stalls; PE FIFO blocks
                }
            }

            // Optional bus capacity.
            if opts.enforce_buses {
                let words = inst.bus_read_words();
                if words > 0 {
                    let used = bus_read.get(&(inst.pe.row, t)).copied().unwrap_or(0);
                    if used + words > ctx.buses().read_buses() {
                        continue;
                    }
                }
                if inst.is_store() {
                    let used = bus_write.get(&(inst.pe.row, t)).copied().unwrap_or(0);
                    if used + 1 > ctx.buses().write_buses() {
                        continue;
                    }
                }
            }

            // Issue.
            sched[i] = t;
            remaining -= 1;
            *heads.get_mut(&(inst.pe.row, inst.pe.col)).unwrap() += 1;
            if let Some(res) = binding {
                issue_used.insert((res, t), ());
                bindings[i] = Some(res);
            }
            if opts.enforce_buses {
                *bus_read.entry((inst.pe.row, t)).or_default() += inst.bus_read_words();
                *bus_write.entry((inst.pe.row, t)).or_default() += usize::from(inst.is_store());
            }
        }
        t += 1;
    }
    Ok((sched, bindings))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsp_arch::presets;
    use rsp_kernel::suite;
    use rsp_mapper::{map, validate_schedule, MapOptions};

    fn ctx_for(kernel: &rsp_kernel::Kernel) -> ConfigContext {
        map(presets::base_8x8().base(), kernel, &MapOptions::default()).unwrap()
    }

    #[test]
    fn base_architecture_is_identity() {
        for k in suite::all() {
            let ctx = ctx_for(&k);
            let r = rearrange(&ctx, &presets::base_8x8(), &Default::default()).unwrap();
            assert_eq!(r.cycles, ctx.cycles(), "{}", k.name());
            assert_eq!(r.rp_overhead, 0);
            assert_eq!(r.rs_stalls, 0);
            assert!(r.bindings.iter().all(Option::is_none));
        }
    }

    #[test]
    fn deadlocked_context_diverges_like_the_reference() {
        // Instance 0 heads PE[0,0]'s FIFO. Making it wait on instance 1,
        // which sits behind it in that FIFO, leaves no head that can
        // ever become ready: the stepping reference runs into the bound,
        // and the dense loop, finding no cycle to jump to, must fail
        // with the same bound.
        let json = serde_json::to_string(&ctx_for(&suite::iccg())).unwrap();
        let cyclic = json.replacen(r#""preds":[]"#, r#""preds":[1]"#, 1);
        assert_ne!(cyclic, json);
        let ctx: ConfigContext = serde_json::from_str(&cyclic).unwrap();
        for arch in [presets::base_8x8(), presets::rsp2()] {
            let dense = rearrange(&ctx, &arch, &Default::default()).unwrap_err();
            let reference = rearrange_reference(&ctx, &arch, &Default::default()).unwrap_err();
            assert!(matches!(dense, RspError::RearrangeDiverged { .. }));
            assert_eq!(dense, reference, "{}", arch.name());
        }
    }

    #[test]
    fn fitting_schedules_carry_single_segment_plans() {
        // The split path is the only path: a schedule that fits the
        // cache gets a one-segment plan with zero refill, so elapsed
        // cycles equal execution cycles everywhere in Tables 4/5.
        for k in suite::all() {
            let ctx = ctx_for(&k);
            for arch in presets::table_architectures() {
                let r = rearrange(&ctx, &arch, &Default::default()).unwrap();
                assert!(!r.refill.is_split(), "{} on {}", k.name(), arch.name());
                assert_eq!(r.refill_stalls(), 0);
                assert_eq!(r.refill_count(), 0);
                assert_eq!(r.elapsed_cycles(), r.total_cycles);
            }
        }
    }

    #[test]
    fn oversized_rearrangement_splits_instead_of_failing() {
        // Shrink the cache below the rearranged schedule: rearrange used
        // to return ConfigCacheExceeded here; now it must produce a
        // split plan whose segments fit the cache and whose stalls
        // follow the byte-derived cost model.
        use rsp_arch::{BaseArchitecture, RspArchitecture};
        let k = suite::fdct();
        let ctx = ctx_for(&k);
        let big = presets::rs1();
        let probe = rearrange(&ctx, &big, &Default::default()).unwrap();
        let depth = (probe.total_cycles / 2 + 1) as usize;
        let b = big.base();
        let small = BaseArchitecture::new(b.geometry(), b.pe().clone(), b.buses(), depth);
        let arch = RspArchitecture::new("RS#1-small", small, big.plan().clone()).unwrap();

        let r = rearrange(&ctx, &arch, &Default::default()).unwrap();
        // Same compact schedule — splitting repackages, never reschedules.
        assert_eq!(r.cycles, probe.cycles);
        assert_eq!(r.bindings, probe.bindings);
        assert!(r.refill.is_split());
        assert_eq!(r.refill.segments().len(), 2);
        assert!(r
            .refill
            .segments()
            .iter()
            .all(|s| s.depth() as usize <= depth));
        // Cost model: segment k>0 reloads depth words at 1 word/cycle.
        let expected: u32 = r.refill.segments()[1..].iter().map(|s| s.depth()).sum();
        assert_eq!(r.refill_stalls(), expected);
        assert_eq!(r.elapsed_cycles(), r.total_cycles + expected);
    }

    #[test]
    fn rearrangement_only_delays() {
        // The admissibility property the flow's exact-stage dominance
        // cut rests on: no architecture can finish a kernel in fewer
        // cycles than the base schedule, because instances never issue
        // before their base-schedule cycle.
        for k in suite::all() {
            let ctx = ctx_for(&k);
            for arch in presets::table_architectures() {
                let r = rearrange(&ctx, &arch, &Default::default()).unwrap();
                assert!(
                    r.total_cycles >= r.base_cycles,
                    "{} on {}: {} < base {}",
                    k.name(),
                    arch.name(),
                    r.total_cycles,
                    r.base_cycles
                );
            }
        }
    }

    #[test]
    fn rearranged_schedules_are_legal() {
        for k in suite::all() {
            for arch in presets::table_architectures() {
                let ctx = ctx_for(&k);
                let r = rearrange(&ctx, &arch, &Default::default()).unwrap();
                let lat = |i: usize| u32::from(arch.op_latency(ctx.instances()[i].op));
                validate_schedule(&ctx, &r.cycles, lat)
                    .unwrap_or_else(|v| panic!("{} on {}: {v}", k.name(), arch.name()));
            }
        }
    }

    #[test]
    fn bindings_respect_reachability_and_capacity() {
        for k in [suite::fdct(), suite::state(), suite::matmul(8)] {
            for arch in [presets::rs1(), presets::rs2(), presets::rsp3()] {
                let ctx = ctx_for(&k);
                let r = rearrange(&ctx, &arch, &Default::default()).unwrap();
                let mut seen: std::collections::HashMap<(SharedResourceId, u32), usize> =
                    Default::default();
                for (i, b) in r.bindings.iter().enumerate() {
                    let inst = &ctx.instances()[i];
                    if inst.op == OpKind::Mult {
                        let res = b.unwrap_or_else(|| {
                            panic!("{}: unbound mult on {}", k.name(), arch.name())
                        });
                        assert!(res.reaches(inst.pe), "resource unreachable");
                        let slot = seen.entry((res, r.cycles[i])).or_default();
                        *slot += 1;
                        assert_eq!(*slot, 1, "double issue on {res} @{}", r.cycles[i]);
                    } else {
                        assert!(b.is_none());
                    }
                }
            }
        }
    }

    #[test]
    fn rs_stall_pattern_matches_paper_classes() {
        // Multiplication-dense kernels stall on RS#1; the lockstep
        // single-multiplication kernels do not (Tables 4/5).
        let rs1 = presets::rs1();
        for k in [
            suite::hydro(),
            suite::state(),
            suite::fdct(),
            suite::fft_mult_loop(),
        ] {
            let r = rearrange(&ctx_for(&k), &rs1, &Default::default()).unwrap();
            assert!(r.rs_stalls > 0, "{} should stall on RS#1", k.name());
        }
        for k in [
            suite::iccg(),
            suite::tri_diagonal(),
            suite::inner_product(),
            suite::sad(),
            suite::mvm(),
        ] {
            let r = rearrange(&ctx_for(&k), &rs1, &Default::default()).unwrap();
            assert_eq!(r.rs_stalls, 0, "{} must not stall on RS#1", k.name());
        }
    }

    #[test]
    fn rsp2_supports_all_kernels_with_at_most_marginal_stall() {
        // The paper's §5.3 claim: RSP#2 supports every kernel without
        // stall. Eight of nine kernels reproduce exactly; our FDCT
        // schedule (write-bus limited, II = 9) keeps one residual stall
        // where the paper's (tighter, RP-stretched) schedule had none —
        // recorded as a deviation in EXPERIMENTS.md.
        let rsp2 = presets::rsp2();
        for k in suite::all() {
            let r = rearrange(&ctx_for(&k), &rsp2, &Default::default()).unwrap();
            if k.name() == "2D-FDCT" {
                assert!(r.rs_stalls <= 1, "FDCT stalls {} > 1 on RSP#2", r.rs_stalls);
            } else {
                assert!(r.is_stall_free(), "{} stalls on RSP#2", k.name());
            }
        }
    }

    #[test]
    fn rs4_never_stalls() {
        // Two per row + two per column is the paper's most generous config.
        let rs4 = presets::rs4();
        for k in suite::all() {
            let r = rearrange(&ctx_for(&k), &rs4, &Default::default()).unwrap();
            assert_eq!(r.rs_stalls, 0, "{}", k.name());
        }
    }

    #[test]
    fn sad_unaffected_by_any_architecture() {
        // No multiplications: neither sharing nor pipelining changes its
        // cycle count (paper: 39 cycles in every column).
        for arch in presets::table_architectures() {
            let r = rearrange(&ctx_for(&suite::sad()), &arch, &Default::default()).unwrap();
            assert_eq!(r.total_cycles, r.base_cycles, "{}", arch.name());
        }
    }

    #[test]
    fn rp_overhead_small_for_slack_kernels() {
        // ICCG has a load between multiply and use: RP costs at most one
        // cycle (paper: 18 -> 19).
        let r = rearrange(
            &ctx_for(&suite::iccg()),
            &presets::rsp4(),
            &Default::default(),
        )
        .unwrap();
        assert!(r.rp_overhead <= 2, "rp_overhead = {}", r.rp_overhead);
        assert_eq!(r.rs_stalls, 0);
    }

    #[test]
    fn deeper_sharing_configs_weakly_reduce_stalls() {
        for k in [suite::fdct(), suite::state()] {
            let ctx = ctx_for(&k);
            let mut prev = u32::MAX;
            for c in 1..=4 {
                let r = rearrange(&ctx, &presets::rs(c), &Default::default()).unwrap();
                assert!(r.rs_stalls <= prev, "{} RS#{c}", k.name());
                prev = r.rs_stalls;
            }
        }
    }

    #[test]
    fn pipelining_keeps_sharing_viable() {
        // §3.2: pipelining relaxes the sharing conditions because one
        // resource holds `stages` operations in flight. The measurable
        // form: under RSP the *execution-time* penalty of sharing stays
        // bounded — stall counts stay within a small margin of the
        // corresponding RS design even though every multiplication now
        // takes two cycles.
        for k in suite::all() {
            let ctx = ctx_for(&k);
            for c in 1..=4 {
                let rs = rearrange(&ctx, &presets::rs(c), &Default::default()).unwrap();
                let rsp = rearrange(&ctx, &presets::rsp(c), &Default::default()).unwrap();
                assert!(
                    rsp.rs_stalls <= rs.rs_stalls + 4,
                    "{} on config {c}: RSP {} vs RS {}",
                    k.name(),
                    rsp.rs_stalls,
                    rs.rs_stalls
                );
            }
        }
    }

    #[test]
    fn bus_enforcement_only_delays() {
        let ctx = ctx_for(&suite::matmul(8));
        let soft = rearrange(&ctx, &presets::rsp2(), &Default::default()).unwrap();
        let strict = rearrange(
            &ctx,
            &presets::rsp2(),
            &RearrangeOptions {
                enforce_buses: true,
            },
        )
        .unwrap();
        assert!(strict.total_cycles >= soft.total_cycles);
    }
}
