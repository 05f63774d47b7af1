//! Deterministic discrete-event simulation core for the `outboard` workspace.
//!
//! Everything in the reproduction — the CAB adaptor engines, the host CPU,
//! the network links — advances on a single virtual clock driven by a stable
//! event queue. Determinism is a design requirement (the paper's experiments
//! must be exactly reproducible), so this crate provides:
//!
//! * [`Time`] / [`Dur`] — nanosecond-resolution virtual time,
//! * [`EventQueue`] — a priority queue with FIFO tie-breaking so same-time
//!   events run in insertion order on every platform,
//! * [`TimingWheel`] / [`EventEngine`] — a hierarchical timing wheel with
//!   the same FIFO semantics but O(1) schedule/expire (the default engine;
//!   the heap stays as the differential-testing reference),
//! * [`BufPool`] — generation-tagged slab/freelist pools behind the wire
//!   frame and packet-buffer hot paths (steady-state transfers recycle
//!   buffers instead of allocating per frame),
//! * [`Pcg32`] — a small, seedable PRNG with a stable stream (we deliberately
//!   do not depend on an external RNG crate whose stream could change across
//!   versions),
//! * [`stats`] — counters, running means, histograms, and the least-squares
//!   fit used to regenerate Table 2,
//! * [`trace`] — a bounded in-memory event trace for debugging experiments,
//! * [`span`] — per-packet causal tracing: bounded span timelines with
//!   Chrome-trace/Perfetto export and critical-path attribution,
//! * [`obs`] — the workspace-wide metrics registry (busy fractions, queue
//!   high-water marks, netstat-style counters) behind every run report,
//! * [`chaos`] — deterministic, replayable fault schedules with a
//!   delta-debugging shrinker for minimal failure repros,
//! * [`timeline`] — windowed time-series telemetry: bounded rings of
//!   per-window counter deltas and gauge levels with exact conservation,
//!   exported as Perfetto counter tracks, JSON/CSV, and sparklines.

#![warn(missing_docs)]

pub mod chaos;
pub mod engine;
pub mod obs;
pub mod pool;
pub mod queue;
pub mod rng;
pub mod span;
pub mod stats;
pub mod time;
pub mod timeline;
pub mod trace;
pub mod wheel;

pub use chaos::{ChaosAction, ChaosEvent, ChaosSchedule};
pub use engine::{EngineKind, EventEngine};
pub use obs::{BusyTracker, Metric, MetricsRegistry};
pub use pool::{BufPool, PoolStats, Ticket};
pub use queue::EventQueue;
pub use rng::{check_probability, splitmix64_at, FaultConfigError, Pcg32};
pub use span::{FlowId, Span, SpanSink, Stage};
pub use time::{Dur, Time};
pub use timeline::{SeriesId, SeriesKind, Timeline};
pub use wheel::TimingWheel;
