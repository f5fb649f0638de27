//! Row-dataflow mapping: one element per row, operations spread over the
//! row's PEs, iterations modulo-pipelined.
//!
//! Used for bodies too large or too multiplication-dense for a single PE
//! (Hydro, State, 2D-FDCT, FFT). The body is modulo-scheduled once against
//! the row's resources — `cols` PE issue slots per cycle, the row's read
//! and write buses — at the smallest feasible initiation interval (II);
//! every row then runs `elements / rows` iterations with period II.
//!
//! Because several operations of one iteration execute in the same cycle
//! on different PEs of a row, multiplications *do* stack within a row —
//! which is exactly what makes these kernels contend for shared
//! multipliers (the RS#1/RSP#1 stall columns of Tables 4/5).

use crate::build::build_instances;
use crate::context::ConfigContext;
use crate::error::MapError;
use crate::mapper::fits_cache;
use rsp_arch::{BaseArchitecture, OpKind, PeId};
use rsp_kernel::{Kernel, MappingStyle};

/// Multiplication-spread target per modulo slot: schedule at most this
/// many multiplications into one `(row, cycle mod II)` slot while slots
/// below the target remain (see `schedule_row`).
const MULT_SLOT_TARGET: usize = 2;

/// Modulo schedule of one body on one row.
#[derive(Debug, Clone)]
struct RowSchedule {
    ii: u32,
    col_of: Vec<usize>,
    time_of: Vec<u32>,
}

pub(crate) fn map_dataflow(
    base: &BaseArchitecture,
    kernel: &Kernel,
) -> Result<ConfigContext, MapError> {
    if kernel.steps() != 1 || kernel.tail().is_some() {
        return Err(MapError::BadDataflowKernel);
    }
    let geom = base.geometry();
    let (rows, cols) = (geom.rows(), geom.cols());
    let sched = schedule_row(kernel, cols, base)?;
    // Every element runs every node, so the schedule length is known
    // before any instance exists (see the cycle formula below).
    let latest_start = (0..kernel.elements())
        .map(|e| (e / rows) as u32 * sched.ii + (e % rows) as u32 % sched.ii)
        .max();
    if let (Some(start), Some(&time)) = (latest_start, sched.time_of.iter().max()) {
        fits_cache(base, start + time + 1)?;
    }

    let place = |e: usize, _s: usize, n: usize, _tail: bool| -> PeId {
        PeId::new(e % rows, sched.col_of[n])
    };
    let instances = build_instances(kernel, place);

    // Rows are staggered by their index modulo II (the loop-pipelining
    // stagger of Fig. 2 applied to rows): without it, every row issues its
    // multiplication phases in the same cycle and any spill beyond the row
    // banks floods the column banks of the same columns simultaneously.
    let mut cycles = vec![0u32; instances.len()];
    for inst in &instances {
        let e = inst.element as usize;
        let round = e / rows;
        let stagger = (e % rows) as u32 % sched.ii;
        cycles[inst.id.index()] =
            round as u32 * sched.ii + stagger + sched.time_of[inst.node as usize];
    }

    Ok(ConfigContext::new(
        kernel.name().to_string(),
        geom,
        base.buses(),
        MappingStyle::Dataflow,
        sched.ii,
        instances,
        cycles,
    ))
}

/// Iterative modulo scheduling of the body onto one row: for each
/// candidate II, place nodes ASAP into `(column, cycle mod II)` slots
/// subject to bus capacities; bump II on failure.
fn schedule_row(
    kernel: &Kernel,
    cols: usize,
    base: &BaseArchitecture,
) -> Result<RowSchedule, MapError> {
    let body = kernel.body();
    let read_cap = base.buses().read_buses();
    let write_cap = base.buses().write_buses();

    let total_reads: usize = body
        .nodes()
        .iter()
        .filter(|n| n.op() == OpKind::Load)
        .map(rsp_kernel::Node::bus_words)
        .sum();
    let total_writes = body.count_op(|o| o == OpKind::Store);

    let ii_min = (body.len().div_ceil(cols))
        .max(total_reads.div_ceil(read_cap))
        .max(total_writes.div_ceil(write_cap))
        .max(1) as u32;
    let ii_max = (body.len() as u32 + 4).max(ii_min + 8);

    'ii: for ii in ii_min..=ii_max {
        let iu = ii as usize;
        let mut pe_slot = vec![false; cols * iu];
        let mut reads = vec![0usize; iu];
        let mut writes = vec![0usize; iu];
        let mut mults = vec![0usize; iu];
        let mut col_of = vec![0usize; body.len()];
        let mut time_of = vec![0u32; body.len()];

        for (nid, node) in body.iter() {
            let k = nid.index();
            let earliest: u32 = node
                .operands()
                .iter()
                .filter_map(|o| match o {
                    rsp_kernel::Operand::Node(p) | rsp_kernel::Operand::Pair(p) => {
                        Some(time_of[p.index()] + 1)
                    }
                    _ => None,
                })
                .max()
                .unwrap_or(0);

            let words = if node.op() == OpKind::Load {
                node.bus_words()
            } else {
                0
            };
            let stores = usize::from(node.op() == OpKind::Store);

            // Feasible (time, column) placements inside one II window.
            let mut feasible: Vec<(u32, usize)> = Vec::new();
            for t in earliest..earliest + ii {
                let slot = (t % ii) as usize;
                if reads[slot] + words > read_cap || writes[slot] + stores > write_cap {
                    continue;
                }
                if let Some(col) = (0..cols).find(|&c| !pe_slot[c * iu + slot]) {
                    feasible.push((t, col));
                }
            }
            // Multiplications prefer the earliest slot still below the
            // spread target, falling back to the least-loaded slot. Tables
            // 4/5 show the paper's mapper achieves exactly this balance:
            // at most two multiplications per row and cycle (RS#2 runs
            // every kernel stall-free) but more than one (RS#1 stalls on
            // the multiplication-dense kernels).
            let choice = if node.op() == OpKind::Mult {
                feasible
                    .iter()
                    .copied()
                    .find(|&(t, _)| mults[(t % ii) as usize] < MULT_SLOT_TARGET)
                    .or_else(|| {
                        feasible
                            .iter()
                            .copied()
                            .min_by_key(|&(t, _)| (mults[(t % ii) as usize], t))
                    })
            } else {
                feasible.first().copied()
            };
            match choice {
                Some((t, col)) => {
                    let slot = (t % ii) as usize;
                    pe_slot[col * iu + slot] = true;
                    reads[slot] += words;
                    writes[slot] += stores;
                    mults[slot] += usize::from(node.op() == OpKind::Mult);
                    col_of[k] = col;
                    time_of[k] = t;
                }
                None => continue 'ii,
            }
        }
        return Ok(RowSchedule {
            ii,
            col_of,
            time_of,
        });
    }
    Err(MapError::IiSearchFailed { max_ii: ii_max })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapper::{map, MapOptions};
    use crate::validate::validate_base_schedule;
    use rsp_arch::presets;
    use rsp_kernel::suite;

    fn base_8x8() -> BaseArchitecture {
        presets::base_8x8().base().clone()
    }

    #[test]
    fn dataflow_schedules_are_base_legal() {
        let base = base_8x8();
        for k in [
            suite::hydro(),
            suite::state(),
            suite::fdct(),
            suite::fft_mult_loop(),
        ] {
            let ctx = map(&base, &k, &MapOptions::default()).unwrap();
            validate_base_schedule(&ctx).unwrap_or_else(|v| panic!("{}: {v}", k.name()));
        }
    }

    #[test]
    fn dataflow_respects_row_buses_in_base_schedule() {
        let base = base_8x8();
        for k in [
            suite::hydro(),
            suite::state(),
            suite::fdct(),
            suite::fft_mult_loop(),
        ] {
            let ctx = map(&base, &k, &MapOptions::default()).unwrap();
            let (r, w) = ctx.bus_pressure();
            assert!(r <= 2, "{}: {r} read words", k.name());
            assert!(w <= 1, "{}: {w} write words", k.name());
        }
    }

    #[test]
    fn mult_dense_kernels_stack_mults_per_row() {
        // The property behind the RS#1 stalls of Tables 4/5.
        let base = base_8x8();
        for k in [
            suite::hydro(),
            suite::state(),
            suite::fdct(),
            suite::fft_mult_loop(),
        ] {
            let ctx = map(&base, &k, &MapOptions::default()).unwrap();
            assert!(
                ctx.mult_profile().max_per_row_cycle >= 2,
                "{} never stacks multiplications",
                k.name()
            );
        }
    }

    #[test]
    fn cycle_counts_near_paper() {
        let base = base_8x8();
        let expect = [
            (suite::hydro(), 15u32, 8u32),
            (suite::state(), 20, 10),
            (suite::fdct(), 32, 14),
            (suite::fft_mult_loop(), 23, 10),
        ];
        for (k, paper, tol) in expect {
            let ctx = map(&base, &k, &MapOptions::default()).unwrap();
            let c = ctx.total_cycles();
            assert!(
                c.abs_diff(paper) <= tol,
                "{}: {c} cycles vs paper {paper}",
                k.name()
            );
        }
    }

    #[test]
    fn ii_reflects_resource_bounds() {
        let base = base_8x8();
        // FDCT: 8 stores / 1 write bus -> II >= 8.
        let ctx = map(&base, &suite::fdct(), &MapOptions::default()).unwrap();
        assert!(ctx.initiation_interval() >= 8);
        // Hydro: 3 read words / 2 buses -> II >= 2.
        let ctx = map(&base, &suite::hydro(), &MapOptions::default()).unwrap();
        assert!(ctx.initiation_interval() >= 2);
    }

    #[test]
    fn rounds_reuse_rows() {
        let base = base_8x8();
        let ctx = map(&base, &suite::hydro(), &MapOptions::default()).unwrap();
        // 32 elements on 8 rows: elements e and e+8 share a row, one II apart.
        let find = |e: u32| {
            ctx.instances()
                .iter()
                .find(|i| i.element == e && i.node == 0)
                .unwrap()
        };
        let (a, b) = (find(0), find(8));
        assert_eq!(a.pe.row, b.pe.row);
        assert_eq!(
            ctx.cycle_of(b.id) - ctx.cycle_of(a.id),
            ctx.initiation_interval()
        );
    }

    #[test]
    fn multi_step_kernel_rejected() {
        let base = base_8x8();
        let err = map_dataflow(&base, &suite::matmul(4)).unwrap_err();
        assert_eq!(err, MapError::BadDataflowKernel);
    }
}
