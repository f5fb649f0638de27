//! Mapper entry point.

use crate::context::ConfigContext;
use crate::dataflow::map_dataflow;
use crate::error::MapError;
use crate::lockstep::map_lockstep;
use rsp_arch::{ArrayGeometry, BaseArchitecture};
use rsp_kernel::{Kernel, MappingStyle};

/// Mapper options.
#[derive(Debug, Clone, Copy, Default)]
pub struct MapOptions {
    /// Enforce row-bus capacities in the base schedule by delaying group
    /// starts (lockstep only). The default relies on operand reuse /
    /// memory-operation sharing (ref. \[7\] of the paper) — the same
    /// idealization visible in the paper's own Fig. 2, whose cycle 4
    /// issues two dual loads per row against two read buses.
    pub strict_buses: bool,
    /// Override the kernel's preferred mapping style.
    pub style: Option<MappingStyle>,
}

/// Maps a kernel onto the base architecture, producing the initial
/// configuration contexts of the Fig. 7 flow.
///
/// # Errors
///
/// * [`MapError::MissingUnit`] — the PE design lacks a unit the kernel
///   needs.
/// * [`MapError::ConfigCacheExceeded`] — the schedule is longer than the
///   per-PE configuration cache.
/// * [`MapError::IiSearchFailed`] / [`MapError::BadDataflowKernel`] — see
///   the dataflow scheduler.
///
/// # Examples
///
/// ```
/// use rsp_arch::presets;
/// use rsp_kernel::suite;
/// use rsp_mapper::{map, MapOptions};
///
/// let base = presets::base_8x8();
/// let ctx = map(base.base(), &suite::mvm(), &MapOptions::default())?;
/// assert_eq!(ctx.instances().len(), suite::mvm().total_ops());
/// # Ok::<(), rsp_mapper::MapError>(())
/// ```
pub fn map(
    base: &BaseArchitecture,
    kernel: &Kernel,
    opts: &MapOptions,
) -> Result<ConfigContext, MapError> {
    // Every operation must run on the (full) base PE.
    for dfg in std::iter::once(kernel.body()).chain(kernel.tail()) {
        for (_, node) in dfg.iter() {
            if !base.pe().supports_locally(node.op()) {
                return Err(MapError::MissingUnit { op: node.op() });
            }
        }
    }

    let style = opts.style.unwrap_or(kernel.style());
    let ctx = match style {
        MappingStyle::Lockstep => map_lockstep(base, kernel, opts)?,
        MappingStyle::Dataflow => map_dataflow(base, kernel)?,
    };

    // Both styles checked the cache against the schedule length before
    // building the instance graph.
    debug_assert!(fits_cache(base, ctx.total_cycles()).is_ok());
    debug_assert!(crate::validate::validate_base_schedule(&ctx).is_ok());
    Ok(ctx)
}

/// Checks a schedule of `needed` cycles against the configuration cache.
/// Both mapping styles know their schedule length before they build the
/// instance graph and call this first, so an overflowing kernel fails
/// without paying for the graph.
pub(crate) fn fits_cache(base: &BaseArchitecture, needed: u32) -> Result<(), MapError> {
    let available = base.config_cache_depth() as u32;
    if needed > available {
        return Err(MapError::ConfigCacheExceeded { needed, available });
    }
    Ok(())
}

/// Fewest cycles any schedule of `kernel` can take on a `geometry`
/// array: a PE issues at most one operation per cycle, so every context
/// [`map`] accepts has at least this many `total_cycles`. A geometry
/// whose floor exceeds the configuration cache depth can be rejected
/// without building a schedule.
///
/// # Examples
///
/// ```
/// use rsp_arch::ArrayGeometry;
/// use rsp_kernel::suite;
/// use rsp_mapper::cycle_floor;
///
/// let k = suite::fdct();
/// assert_eq!(cycle_floor(&k, ArrayGeometry::new(8, 8)), k.total_ops().div_ceil(64));
/// ```
pub fn cycle_floor(kernel: &Kernel, geometry: ArrayGeometry) -> usize {
    kernel.total_ops().div_ceil(geometry.pe_count())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsp_arch::{ArrayGeometry, BusSpec, FuKind, PeDesign};
    use rsp_kernel::suite;

    #[test]
    fn missing_unit_reported() {
        let base = BaseArchitecture::new(
            ArrayGeometry::new(4, 4),
            PeDesign::with_units([FuKind::Alu], 16), // no multiplier
            BusSpec::paper_default(),
            256,
        );
        let err = map(&base, &suite::mvm(), &MapOptions::default()).unwrap_err();
        assert_eq!(
            err,
            MapError::MissingUnit {
                op: rsp_arch::OpKind::Mult
            }
        );
    }

    #[test]
    fn cache_overflow_reported() {
        let base = BaseArchitecture::new(
            ArrayGeometry::new(8, 8),
            PeDesign::full(),
            BusSpec::paper_default(),
            4, // absurdly small cache
        );
        let err = map(&base, &suite::sad(), &MapOptions::default()).unwrap_err();
        assert!(matches!(err, MapError::ConfigCacheExceeded { .. }));
    }

    #[test]
    fn style_override_works() {
        let base = rsp_arch::presets::base_8x8().base().clone();
        // ICCG prefers lockstep; force dataflow.
        let ctx = map(
            &base,
            &suite::iccg(),
            &MapOptions {
                style: Some(MappingStyle::Dataflow),
                ..MapOptions::default()
            },
        )
        .unwrap();
        assert_eq!(ctx.style(), MappingStyle::Dataflow);
    }

    #[test]
    fn instance_counts_match_kernel() {
        let base = rsp_arch::presets::base_8x8().base().clone();
        for k in suite::all() {
            let ctx = map(&base, &k, &MapOptions::default()).unwrap();
            assert_eq!(ctx.instances().len(), k.total_ops(), "{}", k.name());
        }
    }
}
