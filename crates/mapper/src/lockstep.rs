//! Column-lockstep mapping — the discipline of the paper's Fig. 2.
//!
//! Elements are grouped `rows` at a time into *column groups*; group `g`
//! occupies all PEs of column `g mod cols` (one element per row) and every
//! PE of the group executes the body in lockstep, one operation per cycle.
//! Consecutive groups start one cycle apart (the loop-pipelining stagger
//! visible in Fig. 2), and a column accepts its next group after
//! `max(busy, cols)` cycles so that single-multiplication kernels never
//! pile two multiplication phases onto one row — the behaviour Tables 4/5
//! show as zero RS stalls for ICCG, Tri-diagonal, Inner product, MVM and
//! SAD.

use crate::build::{build_instances, IdLayout};
use crate::context::ConfigContext;
use crate::error::MapError;
use crate::mapper::{fits_cache, MapOptions};
use rsp_arch::{BaseArchitecture, PeId};
use rsp_kernel::Kernel;

pub(crate) fn map_lockstep(
    base: &BaseArchitecture,
    kernel: &Kernel,
    opts: &MapOptions,
) -> Result<ConfigContext, MapError> {
    let geom = base.geometry();
    let (rows, cols) = (geom.rows(), geom.cols());
    let layout = IdLayout::of(kernel);
    let body_len = kernel.body().len();
    let busy = layout.block() as u32; // steps * body + tail
    let groups = kernel.elements().div_ceil(rows);

    // Group start cycles: stagger 1 between columns, `max(busy, cols)`
    // between rounds on the same column.
    let spacing = busy.max(cols as u32);
    let mut starts = Vec::with_capacity(groups);
    for g in 0..groups {
        let naive = (g % cols) as u32 + (g / cols) as u32 * spacing;
        starts.push(naive);
    }

    if opts.strict_buses {
        adjust_starts_for_buses(kernel, base, &mut starts, rows, cols, busy);
    }
    // Every group runs all `busy` offsets, so the last start fixes the
    // schedule length before any instance exists.
    if busy > 0 {
        fits_cache(base, starts.iter().max().map_or(0, |&s| s + busy))?;
    }

    let place = |e: usize, _s: usize, _n: usize, _tail: bool| -> PeId {
        let g = e / rows;
        PeId::new(e % rows, g % cols)
    };
    let instances = build_instances(kernel, place);

    let mut cycles = vec![0u32; instances.len()];
    for inst in &instances {
        let e = inst.element as usize;
        let g = e / rows;
        let offset = if inst.is_tail {
            (kernel.steps() * body_len) as u32 + inst.node
        } else {
            inst.step * body_len as u32 + inst.node
        };
        cycles[inst.id.index()] = starts[g] + offset;
    }

    Ok(ConfigContext::new(
        kernel.name().to_string(),
        geom,
        base.buses(),
        rsp_kernel::MappingStyle::Lockstep,
        body_len as u32,
        instances,
        cycles,
    ))
}

/// Greedy start adjustment: delay each group until its loads/stores fit
/// the row buses given all earlier groups (strict bus mode).
fn adjust_starts_for_buses(
    kernel: &Kernel,
    base: &BaseArchitecture,
    starts: &mut [u32],
    rows: usize,
    cols: usize,
    busy: u32,
) {
    let read_cap = base.buses().read_buses();
    let write_cap = base.buses().write_buses();
    // Per-offset bus words of one element's timeline (identical for all
    // elements of a group and — per row — for all groups).
    let mut read_words = vec![0usize; busy as usize];
    let mut write_words = vec![0usize; busy as usize];
    let body_len = kernel.body().len();
    for (nid, node) in kernel.body().iter() {
        for s in 0..kernel.steps() {
            let off = s * body_len + nid.index();
            read_words[off] +=
                node.bus_words().min(2) * usize::from(node.op() == rsp_arch::OpKind::Load);
            write_words[off] += usize::from(node.op() == rsp_arch::OpKind::Store);
        }
    }
    if let Some(tail) = kernel.tail() {
        for (nid, node) in tail.iter() {
            let off = kernel.steps() * body_len + nid.index();
            read_words[off] += node.bus_words() * usize::from(node.op() == rsp_arch::OpKind::Load);
            write_words[off] += usize::from(node.op() == rsp_arch::OpKind::Store);
        }
    }

    // Every group loads on all its rows simultaneously, so one row's
    // timeline represents the group. Track usage per cycle.
    let mut used_read: Vec<usize> = Vec::new();
    let mut used_write: Vec<usize> = Vec::new();
    let mut last_in_col = vec![0u32; cols];
    let _ = rows;
    for (g, start) in starts.iter_mut().enumerate() {
        let col = g % cols;
        let mut t = if g < cols {
            *start
        } else {
            (*start).max(last_in_col[col] + busy)
        };
        'search: loop {
            for off in 0..busy as usize {
                let cyc = t as usize + off;
                if used_read.len() <= cyc {
                    used_read.resize(cyc + 1, 0);
                    used_write.resize(cyc + 1, 0);
                }
                if used_read[cyc] + read_words[off] > read_cap
                    || used_write[cyc] + write_words[off] > write_cap
                {
                    t += 1;
                    continue 'search;
                }
            }
            break;
        }
        for off in 0..busy as usize {
            let cyc = t as usize + off;
            used_read[cyc] += read_words[off];
            used_write[cyc] += write_words[off];
        }
        last_in_col[col] = t;
        *start = t;
    }
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
    fn matmul4_reproduces_fig2_phases() {
        // On the 4x4 array of Fig. 1: column 1 loads at cycle 1 (0-based
        // 0), multiplies at cycle 2, adds at cycle 3; its second
        // multiplication and column 4's first both land on cycle 5
        // (0-based 4) — the condition that makes Fig. 3 provision two
        // multipliers per row.
        let base = presets::fig1_4x4().base().clone();
        let ctx = map(&base, &suite::matmul(4), &MapOptions::default()).unwrap();

        let find = |e: u32, s: u32, node: u32| {
            ctx.instances()
                .iter()
                .find(|i| i.element == e && i.step == s && i.node == node && !i.is_tail)
                .map(|i| ctx.cycle_of(i.id))
                .unwrap()
        };
        // Element 0 = Z(0,0), column 0.
        assert_eq!(find(0, 0, 0), 0); // Ld
        assert_eq!(find(0, 0, 1), 1); // *
        assert_eq!(find(0, 0, 2), 2); // +
        assert_eq!(find(0, 1, 1), 4); // second *
                                      // Element 12 = Z(3,0) is in group 3 -> column 3; first * at cycle 4.
        assert_eq!(find(12, 0, 1), 4);
        // Peak: two mult-phase columns x 4 rows = 8 simultaneous mults.
        assert_eq!(ctx.mult_profile().max_per_cycle, 8);
        assert_eq!(ctx.mult_profile().max_per_row_cycle, 2);
    }

    #[test]
    fn lockstep_schedules_are_base_legal() {
        let base = base_8x8();
        for k in [
            suite::iccg(),
            suite::tri_diagonal(),
            suite::inner_product(),
            suite::sad(),
            suite::mvm(),
            suite::matmul(8),
        ] {
            let ctx = map(&base, &k, &MapOptions::default()).unwrap();
            validate_base_schedule(&ctx).unwrap_or_else(|v| panic!("{}: {v}", k.name()));
        }
    }

    #[test]
    fn single_mult_kernels_never_stack_mults_per_row() {
        // The property behind the zero RS#1 stalls of Tables 4/5.
        let base = base_8x8();
        for k in [
            suite::iccg(),
            suite::tri_diagonal(),
            suite::inner_product(),
            suite::mvm(),
        ] {
            let ctx = map(&base, &k, &MapOptions::default()).unwrap();
            assert_eq!(
                ctx.mult_profile().max_per_row_cycle,
                1,
                "{} stacks multiplications",
                k.name()
            );
        }
    }

    #[test]
    fn inner_product_cycle_count_near_paper() {
        let base = base_8x8();
        let ctx = map(&base, &suite::inner_product(), &MapOptions::default()).unwrap();
        // Paper: 21 cycles on the base architecture; expect the same order.
        let c = ctx.total_cycles();
        assert!((15..=25).contains(&c), "inner product cycles {c}");
    }

    #[test]
    fn strict_buses_never_exceeds_capacity() {
        let base = base_8x8();
        for k in [suite::inner_product(), suite::sad(), suite::matmul(8)] {
            let ctx = map(
                &base,
                &k,
                &MapOptions {
                    strict_buses: true,
                    ..MapOptions::default()
                },
            )
            .unwrap();
            let (r, w) = ctx.bus_pressure();
            assert!(r <= 2, "{}: read words {r}", k.name());
            assert!(w <= 1, "{}: write words {w}", k.name());
            validate_base_schedule(&ctx).unwrap();
        }
    }

    #[test]
    fn strict_buses_is_no_faster() {
        let base = base_8x8();
        for k in [suite::inner_product(), suite::matmul(8)] {
            let soft = map(&base, &k, &MapOptions::default()).unwrap();
            let strict = map(
                &base,
                &k,
                &MapOptions {
                    strict_buses: true,
                    ..MapOptions::default()
                },
            )
            .unwrap();
            assert!(strict.total_cycles() >= soft.total_cycles());
        }
    }

    #[test]
    fn sad_has_zero_mult_demand() {
        let base = base_8x8();
        let ctx = map(&base, &suite::sad(), &MapOptions::default()).unwrap();
        assert_eq!(ctx.mult_profile().total, 0);
    }

    #[test]
    fn mvm_uses_all_columns() {
        let base = base_8x8();
        let ctx = map(&base, &suite::mvm(), &MapOptions::default()).unwrap();
        let cols_used: std::collections::BTreeSet<usize> =
            ctx.instances().iter().map(|i| i.pe.col).collect();
        assert_eq!(cols_used.len(), 8);
    }
}
