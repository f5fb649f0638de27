//! # rsp-sim — cycle-accurate structural simulation
//!
//! Executes a scheduled configuration context on an RSP architecture,
//! cycle by cycle, with real 16-bit data. It stands in for the paper's RTL
//! simulation: every structural rule of the hardware is checked while the
//! computation runs —
//!
//! * operand availability (producer cycle + pipeline latency),
//! * one operation per PE per cycle,
//! * shared operations must carry a binding to a *reachable* resource and
//!   each shared resource accepts one issue per cycle (multiple operations
//!   may be in flight in different pipeline stages),
//! * optionally, row-bus capacities.
//!
//! The simulator's final memory image must be bit-identical to the
//! reference evaluator's ([`rsp_kernel::evaluate`]) for every legal
//! schedule — the strongest functional oracle in this reproduction.
//!
//! # Dense occupancy
//!
//! [`simulate`] issues operations in non-decreasing cycle order (a
//! counting sort when the cycle span is within a small multiple of the
//! operation count, a stable comparison sort otherwise, so a far-out
//! cycle costs no per-cycle table). Because cycles never decrease, the
//! hardware state needs no per-cycle sets: each PE and each shared
//! resource keeps the cycle of its last issue (equal to the current
//! cycle means a conflict), each resource keeps the completion cycles of
//! the issues still in its pipeline (at most `stages` of them), and each
//! row keeps a `(cycle, words)` counter per bus direction — the row-bus
//! bandwidth is a per-cycle budget. Operation latencies and sharing come
//! from one per-call table. Contexts whose PEs or resource indices span
//! an absurd range (only hand-built inputs do) run on the reference
//! engine instead.
//!
//! The original `HashMap`-driven engine stays as `simulate_reference`
//! (with `simulate_split_reference`), hidden from the docs: the oracle
//! the dense engine must match exactly — reports, traces and the first
//! [`SimError`] with its fields.
//!
//! # Configuration-cache refill
//!
//! Schedules deeper than the per-PE configuration cache arrive split
//! into cache-sized segments (`rsp_mapper::RefillPlan`, built by the
//! mapper's `split_schedule` and carried on `rsp_core::Rearranged`).
//! [`simulate_split`] executes them on the *stalled* timeline: each
//! segment after the first is preceded by an idle refill window of one
//! cycle per context word (the cost the plan derived from the
//! `ConfigImage` byte size), during which no operation issues. Because
//! a legal cut point has nothing in flight, PE registers and memory
//! simply persist across the window, so the final memory image stays
//! bit-identical to the compact schedule's — and to
//! [`rsp_kernel::evaluate`]. [`SimReport::refill_stalls`] counts the
//! stall cycles and [`Trace::refill_windows`] exposes the windows.
//!
//! # Examples
//!
//! ```
//! use rsp_arch::presets;
//! use rsp_core::rearrange;
//! use rsp_kernel::{evaluate, suite, Bindings, MemoryImage};
//! use rsp_mapper::{map, MapOptions};
//! use rsp_sim::simulate_rearranged;
//!
//! let kernel = suite::matmul(4);
//! let base = presets::fig1_4x4();
//! let ctx = map(base.base(), &kernel, &MapOptions::default())?;
//! let arch = rsp_arch::presets::shared_multiplier("RSP", 4, 4, 1, 0, 2);
//! let r = rearrange(&ctx, &arch, &Default::default())?;
//!
//! let input = MemoryImage::random(&kernel, 7);
//! let params = Bindings::defaults(&kernel);
//! let report = simulate_rearranged(&ctx, &arch, &r, &kernel, &input, &params)?;
//!
//! let reference = evaluate(&kernel, &input, &params)?;
//! assert_eq!(report.memory, reference);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod error;
mod sim;
mod trace;

pub use error::SimError;
pub use sim::{
    simulate, simulate_base, simulate_rearranged, simulate_reference, simulate_split,
    simulate_split_reference, SimOptions, SimReport,
};
pub use trace::{Trace, TraceEvent};
