//! `rsp_obs` — a zero-dependency tracing facade for the RSP workspace.
//!
//! The engine computes rich internal state (prune decisions, refill
//! splits, cache hits) but until this crate it was only visible post-hoc
//! in return values, and the server ran dark. `rsp_obs` makes that state
//! observable **without changing it**: every emission site is gated on
//! [`Recorder::enabled`], the default [`NullRecorder`] answers `false`
//! and does nothing, and the whole workspace's property tests assert
//! results are bit-identical whichever recorder is attached.
//!
//! # Model
//!
//! An [`Event`] is a borrowed, allocation-free record with a `target`
//! (subsystem: `"explore"`, `"flow"`, `"serve"`, …), a `name` (what
//! happened), a correlation `id`, a kind, and optional typed fields:
//!
//! * [`EventKind::Span`] — a named phase that took `elapsed_ns`.
//!   Emitted by the RAII [`Span`] guard on drop.
//! * [`EventKind::Count`] — a named counter moved by `delta`.
//! * [`EventKind::Point`] — a moment in time (a prune decision, a
//!   rejected request) carrying only its fields.
//!
//! A [`Recorder`] consumes events. Three implementations ship:
//!
//! * [`NullRecorder`] — the default; `enabled()` is `false`, so
//!   emission sites skip even the `Instant::now()` calls.
//! * [`RingRecorder`] — bounded in-memory ring plus an unbounded
//!   per-`(target, name)` aggregation, for tests and profiling.
//! * [`JsonlRecorder`] — streams one JSON object per line to any
//!   writer (a file, stdout), for operators.
//!
//! # Wiring
//!
//! Recorders thread through option structs (`ExploreOptions`,
//! `FlowConfig`, `SessionBuilder`, `ServeConfig` all carry an
//! `Arc<dyn Recorder>`), and those default to the process-wide
//! [`global`] recorder — [`set_global`] before building a config and
//! every subsystem reports to it. That is how `rsp-serve --log-json`
//! observes code that never heard of it.
//!
//! # Example
//!
//! ```
//! use rsp_obs::{Recorder, RingRecorder, Span, count};
//! use std::sync::Arc;
//!
//! let ring = Arc::new(RingRecorder::new(128));
//! {
//!     let _span = Span::enter(ring.as_ref(), "demo", "phase", 0);
//!     count(ring.as_ref(), "demo", "items", 3);
//! }
//! let summary = ring.summary();
//! assert_eq!(summary.len(), 2); // "items" count + "phase" span
//! ```

#![forbid(unsafe_code)]

pub mod event;
pub mod hist;
pub mod jsonl;
pub mod metrics;
pub mod recorder;
pub mod ring;

pub use event::{Event, EventKind, Value};
pub use hist::Histogram;
pub use jsonl::JsonlRecorder;
pub use metrics::{Counter, Gauge};
pub use recorder::{count, global, point, set_global, NullRecorder, Recorder, Span};
pub use ring::{OwnedEvent, OwnedValue, PhaseSummary, RingRecorder};
