//! Deterministic discrete-event simulation core for the `outboard` workspace.
//!
//! Everything in the reproduction — the CAB adaptor engines, the host CPU,
//! the network links — advances on a single virtual clock driven by a stable
//! event queue. Determinism is a design requirement (the paper's experiments
//! must be exactly reproducible), so this crate provides:
//!
//! * [`Time`] / [`Dur`] — nanosecond-resolution virtual time,
//! * [`EventQueue`] — the scheduler: a binary heap with FIFO tie-breaking
//!   so same-time events run in insertion order on every platform,
//! * [`Pcg32`] — a small, seedable PRNG with a stable stream (we deliberately
//!   do not depend on an external RNG crate whose stream could change across
//!   versions),
//! * [`stats`] — the least-squares fit used to regenerate Table 2 and the
//!   Mbit/s conversion,
//! * [`span`] — per-packet causal tracing, the one tracing mechanism:
//!   bounded span timelines with Chrome-trace/Perfetto export and
//!   critical-path attribution,
//! * [`obs`] — the workspace-wide metrics registry (busy fractions, queue
//!   high-water marks, netstat-style counters) behind every run report,
//! * [`chaos`] — deterministic, replayable fault schedules with a
//!   delta-debugging shrinker for minimal failure repros,
//! * [`timeline`] — windowed time-series telemetry: bounded rings of
//!   per-window counter deltas and gauge levels with exact conservation,
//!   exported as Perfetto counter tracks, JSON/CSV, and sparklines.

#![warn(missing_docs)]

pub mod chaos;
pub mod obs;
pub mod queue;
pub mod rng;
pub mod span;
pub mod stats;
pub mod time;
pub mod timeline;

pub use chaos::{ChaosAction, ChaosEvent, ChaosSchedule};
pub use obs::{BusyTracker, Metric, MetricsRegistry};
pub use queue::EventQueue;
pub use rng::{check_probability, splitmix64_at, FaultConfigError, Pcg32};
pub use span::{FlowId, Span, SpanSink, Stage};
pub use time::{Dur, Time};
pub use timeline::{SeriesId, SeriesKind, Timeline};
