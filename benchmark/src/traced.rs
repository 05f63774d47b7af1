//! The traced run: per-layer host time taken from outside the layers.
//!
//! Nothing here reaches inside a crate. Each host's [`App`] is wrapped in
//! [`Timed`], which times its steps (the `apps` layer: payload fill and
//! verify plus the kernel syscalls a step makes). Every event is timed from
//! timestamps taken in the [`World::run_while`] predicate, which the world
//! calls between events; an event's time minus the app time inside it is
//! the `world` layer (kernel input/output and timers, CAB engines, links,
//! scheduler, pool, mbufs, wire, and the timeline sampler). World
//! construction, [`World::metrics`], the oracle and the raw-HIPPI bound are
//! timed at their call sites. The run loops mirror `run_ttcp` and
//! `run_chaos` step for step, so a traced run's stats must be byte-identical
//! to the untraced run's; the benchmark checks that on every traced pass.

use crate::stats::Hist;
use crate::workload::{
    chaos_cfg, chaos_schedule, figure_cfg, machine, raw_packet, Output, Point, RAW_PACKETS,
};
use outboard_host::TaskId;
use outboard_sim::{Dur, MetricsRegistry, Time};
use outboard_stack::SockId;
use outboard_testbed::apps::{TtcpReceiver, TtcpSender};
use outboard_testbed::experiment::build_ttcp_world;
use outboard_testbed::{oracle, App, Step, SysCtx, World, DEFAULT_LIVENESS_BUDGET};
use std::any::Any;
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

/// `run_chaos`'s watchdog chunk.
const CHAOS_CHUNK: Dur = Dur::millis(10);
/// `run_chaos`'s settle time after the last heal.
const CHAOS_SETTLE: Dur = Dur::millis(100);

/// Exact per-pass counts. Each must repeat exactly across traced passes.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    /// App steps (`step` plus `on_kernel_ready` calls).
    pub app_steps: u64,
    /// Events popped from the queue: dispatched, plus any a paused chaos
    /// host deferred.
    pub events: u64,
    /// Most events pending at once in any world.
    pub pending_max: u64,
    /// Pool acquisitions.
    pub pool_acquires: u64,
    /// Pool acquisitions served from a freelist.
    pub pool_hits: u64,
    /// Most pool buffers outstanding at once in any world.
    pub pool_high_water: u64,
    /// Packets checksummed by the CAB, all hosts.
    pub hw_checksums: u64,
    /// Packets checksummed in software, all hosts.
    pub sw_checksums: u64,
    /// TCP segments sent, all hosts.
    pub tcp_segs_out: u64,
    /// TCP segments retransmitted, all hosts.
    pub tcp_retransmit_segs: u64,
    /// Frames that entered a link.
    pub fabric_frames: u64,
    /// Bytes that entered a link.
    pub fabric_bytes: u64,
}

impl Counts {
    /// The counts under their metric names, in report order.
    pub fn named(&self) -> [(&'static str, u64); 12] {
        [
            ("apps.steps", self.app_steps),
            ("world.events", self.events),
            ("world.pending_max", self.pending_max),
            ("pool.acquires", self.pool_acquires),
            ("pool.hits", self.pool_hits),
            ("pool.high_water", self.pool_high_water),
            ("kernel.hw_checksums", self.hw_checksums),
            ("kernel.sw_checksums", self.sw_checksums),
            ("kernel.tcp_segs_out", self.tcp_segs_out),
            ("kernel.tcp_retransmit_segs", self.tcp_retransmit_segs),
            ("fabric.frames", self.fabric_frames),
            ("fabric.bytes", self.fabric_bytes),
        ]
    }

    /// Add another pass's counts (maxima for the high-water counts).
    fn merge(&mut self, b: &Counts) {
        self.app_steps += b.app_steps;
        self.events += b.events;
        self.pending_max = self.pending_max.max(b.pending_max);
        self.pool_acquires += b.pool_acquires;
        self.pool_hits += b.pool_hits;
        self.pool_high_water = self.pool_high_water.max(b.pool_high_water);
        self.hw_checksums += b.hw_checksums;
        self.sw_checksums += b.sw_checksums;
        self.tcp_segs_out += b.tcp_segs_out;
        self.tcp_retransmit_segs += b.tcp_retransmit_segs;
        self.fabric_frames += b.fabric_frames;
        self.fabric_bytes += b.fabric_bytes;
    }

    fn absorb_stats(&mut self, stats: &MetricsRegistry, hosts: usize) {
        for h in 0..hosts {
            let c = |name: &str| stats.counter_value(&format!("host{h}.{name}"));
            self.hw_checksums += c("csum.hw");
            self.sw_checksums += c("csum.sw");
            self.tcp_segs_out += c("tcp.segs_out");
            self.tcp_retransmit_segs += c("tcp.retransmit_segs");
        }
        self.pool_acquires += stats.counter_value("world.pool.acquires");
        self.pool_hits += stats.counter_value("world.pool.hits");
        self.pool_high_water = self
            .pool_high_water
            .max(stats.counter_value("world.pool.high_water"));
        self.fabric_frames += stats.counter_value("world.frames_on_fabric");
        self.fabric_bytes += stats.counter_value("world.bytes_on_fabric");
    }
}

/// Host time and work per layer, summed over the runs of one or more
/// traced passes.
#[derive(Default)]
pub struct Layers {
    /// Sender app step time, ns.
    pub tx_ns: u64,
    /// Receiver app step time, ns.
    pub rx_ns: u64,
    /// Bytes the senders wrote.
    pub tx_bytes: u64,
    /// Bytes the receivers read.
    pub rx_bytes: u64,
    /// Wall time inside `run_while`, ns.
    pub loop_ns: u64,
    /// Sum of the per-event times, app steps included, ns.
    pub event_ns: u64,
    /// Sum of the per-event times minus app steps, ns.
    pub world_ns: u64,
    /// Per-event world time distribution.
    pub world_hist: Hist,
    /// Worlds built (ttcp and chaos runs).
    pub worlds: u64,
    /// World construction time, ns.
    pub build_ns: u64,
    /// `World::metrics` time, ns.
    pub metrics_ns: u64,
    /// Oracle time, ns.
    pub oracle_ns: u64,
    /// Runs the oracle judged.
    pub oracle_runs: u64,
    /// `raw_hippi_throughput` time, ns.
    pub raw_ns: u64,
    /// Packets the raw-HIPPI rows drove.
    pub raw_pkts: u64,
    /// Exact counts.
    pub counts: Counts,
}

impl Layers {
    /// Add another pass's accumulators.
    pub fn merge(&mut self, o: &Layers) {
        self.tx_ns += o.tx_ns;
        self.rx_ns += o.rx_ns;
        self.tx_bytes += o.tx_bytes;
        self.rx_bytes += o.rx_bytes;
        self.loop_ns += o.loop_ns;
        self.event_ns += o.event_ns;
        self.world_ns += o.world_ns;
        self.world_hist.merge(&o.world_hist);
        self.worlds += o.worlds;
        self.build_ns += o.build_ns;
        self.metrics_ns += o.metrics_ns;
        self.oracle_ns += o.oracle_ns;
        self.oracle_runs += o.oracle_runs;
        self.raw_ns += o.raw_ns;
        self.raw_pkts += o.raw_pkts;
        self.counts.merge(&o.counts);
    }
}

fn ns_since(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// App time shared between the [`Timed`] wrappers and the event clock.
#[derive(Default)]
struct AppClock {
    tx_ns: u64,
    rx_ns: u64,
    steps: u64,
    /// App time inside the event being dispatched.
    in_event_ns: u64,
}

/// An [`App`] whose steps are timed. Everything else, `as_any` included,
/// delegates to the wrapped app, so harness downcasts still find it.
struct Timed {
    inner: Box<dyn App>,
    sender: bool,
    clock: Rc<RefCell<AppClock>>,
}

impl Timed {
    fn charge(&self, start: Instant) {
        let ns = ns_since(start);
        let mut c = self.clock.borrow_mut();
        if self.sender {
            c.tx_ns += ns;
        } else {
            c.rx_ns += ns;
        }
        c.steps += 1;
        c.in_event_ns += ns;
    }
}

impl App for Timed {
    fn task(&self) -> TaskId {
        self.inner.task()
    }

    fn as_any(&self) -> &dyn Any {
        self.inner.as_any()
    }

    fn step(&mut self, ctx: &mut SysCtx<'_>) -> Step {
        let t = Instant::now();
        let s = self.inner.step(ctx);
        self.charge(t);
        s
    }

    fn on_kernel_ready(&mut self, ctx: &mut SysCtx<'_>, sock: SockId) -> Step {
        let t = Instant::now();
        let s = self.inner.on_kernel_ready(ctx, sock);
        self.charge(t);
        s
    }

    fn finished(&self) -> bool {
        self.inner.finished()
    }
}

/// Wrap every app of a ttcp world (host 0 sends, host 1 receives).
fn wrap_apps(w: &mut World) -> Rc<RefCell<AppClock>> {
    let clock = Rc::new(RefCell::new(AppClock::default()));
    for (h, host) in w.hosts.iter_mut().enumerate() {
        for slot in host.apps.iter_mut() {
            let inner = slot.take().expect("apps are idle between runs");
            *slot = Some(Box::new(Timed {
                inner,
                sender: h == 0,
                clock: Rc::clone(&clock),
            }));
        }
    }
    clock
}

/// `World::run_while` with every event timed from the predicate.
fn run_timed(
    w: &mut World,
    deadline: Time,
    layers: &mut Layers,
    clock: &RefCell<AppClock>,
    mut keep_going: impl FnMut(&World) -> bool,
) -> bool {
    let start = Instant::now();
    let mut last: Option<Instant> = None;
    let held = w.run_while(deadline, |w| {
        let now = Instant::now();
        if let Some(prev) = last {
            let ev = (now - prev).as_nanos() as u64;
            let app = std::mem::take(&mut clock.borrow_mut().in_event_ns);
            let world = ev.saturating_sub(app);
            layers.event_ns += ev;
            layers.world_ns += world;
            layers.world_hist.record(world);
            layers.counts.events += 1;
        }
        let pending = w.pending_events() as u64;
        layers.counts.pending_max = layers.counts.pending_max.max(pending);
        last = Some(now);
        keep_going(w)
    });
    layers.loop_ns += ns_since(start);
    held
}

fn app_finished(w: &World, host: usize) -> bool {
    w.hosts[host].apps[0]
        .as_ref()
        .map(|a| a.finished())
        .unwrap_or(true)
}

fn sender(w: &World) -> Option<&TtcpSender> {
    w.hosts[0].apps[0].as_ref()?.as_any().downcast_ref()
}

fn receiver(w: &World) -> Option<&TtcpReceiver> {
    w.hosts[1].apps[0].as_ref()?.as_any().downcast_ref()
}

/// Fold the wrappers' app time and the world's counters into `layers`, and
/// check that the clock saw every event the world popped.
fn finish_world(
    w: &World,
    clock: &RefCell<AppClock>,
    stats: &MetricsRegistry,
    events_before: u64,
    layers: &mut Layers,
) -> Option<String> {
    let c = clock.borrow();
    layers.tx_ns += c.tx_ns;
    layers.rx_ns += c.rx_ns;
    layers.counts.app_steps += c.steps;
    layers.tx_bytes += sender(w).map_or(0, |s| s.bytes_written as u64);
    layers.rx_bytes += receiver(w).map_or(0, |r| r.bytes_read as u64);
    layers.counts.absorb_stats(stats, w.hosts.len());
    let timed = layers.counts.events - events_before;
    let deferred = w.chaos_stats().map_or(0, |c| c.deferred_events);
    (timed != w.events_dispatched + deferred).then(|| {
        format!(
            "trace timed {timed} events but the world dispatched {} and deferred {deferred}",
            w.events_dispatched
        )
    })
}

/// What a traced run produced.
pub enum Traced {
    /// The stats snapshot of a ttcp or chaos run, and its own failure.
    Stats {
        /// The run's metrics registry.
        stats: Box<MetricsRegistry>,
        /// Stalled transfer, verify errors, oracle violations, or a trace
        /// that missed events.
        problem: Option<String>,
    },
    /// A raw-HIPPI bound, Mbit/s.
    Raw(f64),
}

impl Traced {
    /// Does this traced run reproduce the untraced `reference` exactly?
    /// Ttcp and chaos runs compare their stats JSON byte for byte.
    pub fn check(&self, point: Point, reference: &Output) -> Option<String> {
        match self {
            Traced::Raw(mbps) if mbps.to_bits() == reference.figure[0].to_bits() => None,
            Traced::Raw(mbps) => Some(format!(
                "{point:?}: traced raw bound {mbps} != untraced {}",
                reference.figure[0]
            )),
            Traced::Stats {
                problem: Some(p), ..
            } => Some(format!("{point:?}: {p}")),
            Traced::Stats { stats, .. } if stats.to_json() == reference.stats_json => None,
            Traced::Stats { .. } => Some(format!(
                "{point:?}: traced stats JSON differs from the untraced run"
            )),
        }
    }
}

/// Run `point` traced, adding its host time and counts to `layers`.
pub fn run_point(point: Point, layers: &mut Layers) -> Traced {
    match point {
        Point::Ttcp { size, single_copy } => ttcp(size, single_copy, layers),
        Point::Raw { size } => {
            let t = Instant::now();
            let mbps =
                outboard_testbed::raw_hippi_throughput(&machine(), raw_packet(size), RAW_PACKETS);
            layers.raw_ns += ns_since(t);
            layers.raw_pkts += RAW_PACKETS as u64;
            Traced::Raw(mbps)
        }
        Point::Chaos { seed } => chaos(seed, layers),
    }
}

/// `run_ttcp` on the `figure_point` configuration, timed.
fn ttcp(size: usize, single_copy: bool, layers: &mut Layers) -> Traced {
    let cfg = figure_cfg(size, single_copy);
    let t = Instant::now();
    let mut w = build_ttcp_world(&cfg);
    layers.build_ns += ns_since(t);
    layers.worlds += 1;
    let clock = wrap_apps(&mut w);
    let events_before = layers.counts.events;

    let deadline = Time::ZERO + Dur::from_secs_f64((cfg.total_bytes as f64 * 8.0 / 1e6).max(30.0));
    let done = run_timed(&mut w, deadline, layers, &clock, |w| {
        !(app_finished(w, 0) && app_finished(w, 1))
    });
    if w.span_tracing_on() {
        w.finish_spans(w.now());
    }
    if w.timeline_on() {
        w.finish_timeline(w.now());
    }
    let elapsed = w.now() - Time::ZERO;
    let t = Instant::now();
    let stats = w.metrics(elapsed);
    layers.metrics_ns += ns_since(t);

    let mut problem = finish_world(&w, &clock, &stats, events_before, layers);
    let (bytes_read, verify_errors) =
        receiver(&w).map_or((0, 0), |r| (r.bytes_read, r.verify_errors));
    if !(done && bytes_read >= cfg.total_bytes) {
        problem = Some(format!("transfer incomplete ({bytes_read} bytes)"));
    } else if verify_errors > 0 {
        problem = Some(format!("{verify_errors} verify errors"));
    }
    Traced::Stats {
        stats: Box::new(stats),
        problem,
    }
}

fn app_progress(w: &World) -> u64 {
    let sent = sender(w).map_or(0, |s| s.bytes_written);
    let read = receiver(w).map_or(0, |r| r.bytes_read);
    (sent + read) as u64
}

fn apps_finished(w: &World) -> bool {
    w.hosts
        .iter()
        .all(|h| h.apps[0].as_ref().map(|a| a.finished()).unwrap_or(false))
}

/// `run_chaos` on the `chaos` binary's configuration, timed.
fn chaos(seed: u64, layers: &mut Layers) -> Traced {
    let cfg = chaos_cfg(seed);
    let schedule = chaos_schedule(seed);
    let budget = DEFAULT_LIVENESS_BUDGET;
    let t = Instant::now();
    let mut w = build_ttcp_world(&cfg);
    w.install_chaos(&schedule);
    layers.build_ns += ns_since(t);
    layers.worlds += 1;
    let clock = wrap_apps(&mut w);
    let events_before = layers.counts.events;

    let quiesce = w.chaos_quiesce_at().unwrap_or(Time::ZERO);
    let floor = Time::ZERO + Dur::from_secs_f64((cfg.total_bytes as f64 * 8.0 / 1e6).max(30.0));
    let deadline = floor.max(quiesce + budget) + Dur::secs(5);
    let mut violations: Vec<String> = Vec::new();
    let mut target = w.now();
    let mut last_progress = app_progress(&w);
    let mut last_progress_at = target;
    loop {
        if apps_finished(&w) {
            break;
        }
        if w.pending_events() == 0 {
            violations.push("liveness: event queue drained (deadlock)".to_string());
            break;
        }
        if target >= deadline {
            violations.push("liveness: transfer unfinished at deadline".to_string());
            break;
        }
        target += CHAOS_CHUNK;
        run_timed(&mut w, target, layers, &clock, |_| true);
        let p = app_progress(&w);
        if p != last_progress {
            last_progress = p;
            last_progress_at = target;
        } else if target >= quiesce && target.since(last_progress_at.max(quiesce)) > budget {
            violations.push("liveness: no progress with all faults healed".to_string());
            break;
        }
    }
    let settle = quiesce.max(w.now()) + CHAOS_SETTLE;
    run_timed(&mut w, settle, layers, &clock, |_| true);

    if w.span_tracing_on() {
        w.finish_spans(w.now());
    }
    if w.timeline_on() {
        w.finish_timeline(w.now());
    }
    let elapsed = w.now().since(Time::ZERO);
    let t = Instant::now();
    let stats = w.metrics(elapsed);
    layers.metrics_ns += ns_since(t);

    let t = Instant::now();
    violations.extend(oracle::integrity_violations(&w, cfg.total_bytes));
    violations.extend(oracle::conservation_violations(&stats, w.hosts.len()));
    violations.extend(oracle::endstate_violations(&w));
    layers.oracle_ns += ns_since(t);
    layers.oracle_runs += 1;

    let traced = finish_world(&w, &clock, &stats, events_before, layers);
    let bytes_read = receiver(&w).map_or(0, |r| r.bytes_read);
    let problem = if !violations.is_empty() {
        Some(violations.join("; "))
    } else if !(apps_finished(&w) && bytes_read >= cfg.total_bytes) {
        Some(format!("transfer incomplete ({bytes_read} bytes)"))
    } else {
        traced
    };
    Traced::Stats {
        stats: Box::new(stats),
        problem,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{output, run_point as untraced};

    fn transparent(point: Point) -> Layers {
        let reference = output(point, &untraced(point, true));
        let mut layers = Layers::default();
        let traced = run_point(point, &mut layers);
        assert_eq!(traced.check(point, &reference), None);
        layers
    }

    #[test]
    fn wrapped_ttcp_run_has_the_unwrapped_stats() {
        let layers = transparent(Point::Ttcp {
            size: 64 * 1024,
            single_copy: true,
        });
        assert!(layers.counts.events > 0 && layers.counts.app_steps > 0);
        assert!(layers.tx_ns > 0 && layers.rx_ns > 0);
        assert_eq!(layers.tx_bytes, outboard_bench::total_for(64 * 1024) as u64);
        // Apps and world account for every event's time, and the events
        // for (nearly) the whole loop.
        assert_eq!(
            layers.event_ns,
            layers.world_ns + layers.tx_ns + layers.rx_ns
        );
        assert!(layers.event_ns <= layers.loop_ns);
    }

    #[test]
    fn wrapped_chaos_run_has_the_unwrapped_stats_and_verdict() {
        let layers = transparent(Point::Chaos { seed: 3 });
        assert_eq!(layers.oracle_runs, 1);
        assert!(layers.counts.tcp_segs_out > 0);
    }

    #[test]
    fn traced_raw_bound_is_the_untraced_one() {
        let layers = transparent(Point::Raw { size: 4096 });
        assert_eq!(layers.raw_pkts, RAW_PACKETS as u64);
    }

    #[test]
    fn a_changed_stats_snapshot_fails_the_check() {
        let point = Point::Ttcp {
            size: 16 * 1024,
            single_copy: false,
        };
        let mut reference = output(point, &untraced(point, true));
        reference.stats_json.push(' ');
        let traced = run_point(point, &mut Layers::default());
        assert!(traced.check(point, &reference).is_some());
    }
}
