//! The three workloads, their points, and the untraced way to run a point:
//! exactly the public calls the `fig5` and `chaos` binaries make.

use crate::golden::{GoldenRows, Row};
use outboard_host::MachineConfig;
use outboard_sim::chaos::ChaosSchedule;
use outboard_stack::StackConfig;
use outboard_testbed::{
    run_chaos, ChaosOutcome, ExperimentConfig, Metrics, DEFAULT_LIVENESS_BUDGET,
};

/// Packets per raw-HIPPI row, as `outboard_bench::compute_figure` uses.
pub const RAW_PACKETS: usize = 200;
/// Schedules per `chaos_sweep` pass.
pub const CHAOS_SEEDS: u64 = 8;
/// Events per chaos schedule (the `chaos` binary's default).
pub const CHAOS_EVENTS: usize = 6;
/// Bytes per chaos transfer (the `chaos` binary's non-smoke default).
pub const CHAOS_TOTAL: usize = 8 * 1024 * 1024;
/// Write size of the chaos transfers.
pub const CHAOS_WRITE: usize = 64 * 1024;

/// A benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Figure 5 at 1-16 KB writes: per-syscall and per-packet work.
    Fig5Small,
    /// Figure 5 at 32-512 KB writes: byte-proportional work.
    Fig5Bulk,
    /// Seeded 6-event chaos schedules judged by the oracle.
    ChaosSweep,
}

impl Workload {
    /// Parse a `--workload` name.
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "fig5_small" => Some(Workload::Fig5Small),
            "fig5_bulk" => Some(Workload::Fig5Bulk),
            "chaos_sweep" => Some(Workload::ChaosSweep),
            _ => None,
        }
    }

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig5Small => "fig5_small",
            Workload::Fig5Bulk => "fig5_bulk",
            Workload::ChaosSweep => "chaos_sweep",
        }
    }

    /// Figure 5 write sizes this workload covers (empty for chaos).
    pub fn sizes(self) -> Vec<usize> {
        let kb: &[usize] = match self {
            Workload::Fig5Small => &[1, 2, 4, 8, 16],
            Workload::Fig5Bulk => &[32, 64, 128, 256, 512],
            Workload::ChaosSweep => &[],
        };
        kb.iter().map(|k| k * 1024).collect()
    }

    /// One pass's points in canonical order. `seed` is the first chaos
    /// schedule seed; Figure 5 points do not depend on it.
    pub fn points(self, seed: u64) -> Vec<Point> {
        match self {
            Workload::ChaosSweep => (0..CHAOS_SEEDS)
                .map(|i| Point::Chaos {
                    seed: seed.wrapping_add(i),
                })
                .collect(),
            _ => self
                .sizes()
                .into_iter()
                .flat_map(|size| {
                    [
                        Point::Ttcp {
                            size,
                            single_copy: false,
                        },
                        Point::Ttcp {
                            size,
                            single_copy: true,
                        },
                        Point::Raw { size },
                    ]
                })
                .collect(),
        }
    }
}

/// One independent run within a pass.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Point {
    /// A `figure_point` ttcp transfer on the Alpha 3000/400.
    Ttcp {
        /// Write size, bytes.
        size: usize,
        /// Single-copy (modified) stack rather than the unmodified one.
        single_copy: bool,
    },
    /// The raw-HIPPI bound of one Figure 5 row.
    Raw {
        /// Write size, bytes (packets are capped at 32 KB).
        size: usize,
    },
    /// One chaos schedule judged by the oracle.
    Chaos {
        /// Schedule and link seed.
        seed: u64,
    },
}

/// The machine every workload simulates.
pub fn machine() -> MachineConfig {
    MachineConfig::alpha_3000_400()
}

/// The configuration `outboard_bench::figure_point` builds for a point.
pub fn figure_cfg(size: usize, single_copy: bool) -> ExperimentConfig {
    let stack = if single_copy {
        let mut s = StackConfig::single_copy();
        s.force_single_copy = true;
        s
    } else {
        StackConfig::unmodified()
    };
    let mut cfg = ExperimentConfig::new(machine(), stack, size);
    cfg.total_bytes = outboard_bench::total_for(size);
    cfg.verify = false;
    outboard_bench::fault_args().apply(&mut cfg);
    outboard_bench::timeline_args().apply(&mut cfg);
    cfg
}

/// The configuration the `chaos` binary sweeps with.
pub fn chaos_cfg(seed: u64) -> ExperimentConfig {
    let mut stack = StackConfig::single_copy();
    stack.force_single_copy = true;
    let mut cfg = ExperimentConfig::new(machine(), stack, CHAOS_WRITE);
    cfg.total_bytes = CHAOS_TOTAL;
    cfg.seed = seed;
    cfg.verify = true;
    cfg.timeline_enabled = true;
    cfg.timeline_export = false;
    cfg
}

/// The schedule a chaos point runs.
pub fn chaos_schedule(seed: u64) -> ChaosSchedule {
    ChaosSchedule::generate(seed, CHAOS_EVENTS, 2)
}

/// Packet size of a raw-HIPPI row.
pub fn raw_packet(size: usize) -> usize {
    size.min(32 * 1024)
}

/// What one point produced, reduced to what the checks need.
pub struct Output {
    /// Every simulated output of the run as text: the figure fields and
    /// the full stats JSON (or the chaos verdict). Two runs of one point
    /// must produce byte-identical records.
    pub record: String,
    /// The stats JSON alone (empty for raw rows).
    pub stats_json: String,
    /// Why the run failed on its own terms (stalled transfer, verify
    /// errors, oracle violations), if it did.
    pub problem: Option<String>,
    /// Figure fields: throughput, sender utilization, sender and receiver
    /// efficiency (ttcp points), or the raw bound in slot 0.
    pub figure: [f64; 4],
}

/// What one untraced run returned, before any reduction.
pub enum Sim {
    /// A `figure_point` transfer.
    Ttcp(Box<Metrics>),
    /// A raw-HIPPI bound, Mbit/s.
    Raw(f64),
    /// A chaos verdict.
    Chaos(Box<ChaosOutcome>),
}

/// Run `point` untraced, through the public entry points the figure and
/// chaos binaries use. `timeline` turns the chaos sampler off when false.
pub fn run_point(point: Point, timeline: bool) -> Sim {
    match point {
        Point::Ttcp { size, single_copy } => Sim::Ttcp(Box::new(outboard_bench::figure_point(
            &machine(),
            single_copy,
            size,
        ))),
        Point::Raw { size } => Sim::Raw(outboard_testbed::raw_hippi_throughput(
            &machine(),
            raw_packet(size),
            RAW_PACKETS,
        )),
        Point::Chaos { seed } => {
            let mut cfg = chaos_cfg(seed);
            cfg.timeline_enabled = timeline;
            Sim::Chaos(Box::new(run_chaos(
                &cfg,
                &chaos_schedule(seed),
                DEFAULT_LIVENESS_BUDGET,
            )))
        }
    }
}

/// Reduce an untraced run to an [`Output`] (outside the timed region).
pub fn output(point: Point, sim: &Sim) -> Output {
    match sim {
        Sim::Ttcp(m) => ttcp_output(point, m),
        Sim::Raw(mbps) => raw_output(*mbps),
        Sim::Chaos(o) => chaos_output(point, o),
    }
}

fn ttcp_output(point: Point, m: &Metrics) -> Output {
    let stats_json = m.stats.to_json();
    let record = format!(
        "{point:?} completed={} elapsed={} bytes={} mbps={:?} util={:?}/{:?} eff={:?}/{:?} \
         retx={} verify_errors={} writes={} header_only={} csum={}/{} events={}\n{stats_json}",
        m.completed,
        m.elapsed,
        m.bytes,
        m.throughput_mbps,
        m.sender_utilization,
        m.receiver_utilization,
        m.sender_efficiency_mbps,
        m.receiver_efficiency_mbps,
        m.retransmits,
        m.verify_errors,
        m.writes,
        m.header_only_retransmits,
        m.hw_checksums,
        m.sw_checksums,
        m.events_dispatched,
    );
    let problem = if !m.completed {
        Some(format!(
            "{point:?}: transfer incomplete ({} bytes)",
            m.bytes
        ))
    } else if m.verify_errors > 0 {
        Some(format!("{point:?}: {} verify errors", m.verify_errors))
    } else {
        None
    };
    Output {
        record,
        stats_json,
        problem,
        figure: [
            m.throughput_mbps,
            m.sender_utilization,
            m.sender_efficiency_mbps,
            m.receiver_efficiency_mbps,
        ],
    }
}

fn raw_output(mbps: f64) -> Output {
    Output {
        record: format!("raw mbps={mbps:?}"),
        stats_json: String::new(),
        problem: None,
        figure: [mbps, 0.0, 0.0, 0.0],
    }
}

fn chaos_output(point: Point, o: &ChaosOutcome) -> Output {
    let stats_json = o.stats.to_json();
    let record = format!(
        "{point:?} violations={:?} completed={} bytes_read={} elapsed={}\n{stats_json}",
        o.violations, o.completed, o.bytes_read, o.elapsed
    );
    let problem = if !o.violations.is_empty() {
        Some(format!("{point:?}: {}", o.violations.join("; ")))
    } else if !o.completed {
        Some(format!(
            "{point:?}: transfer incomplete ({} bytes)",
            o.bytes_read
        ))
    } else {
        None
    };
    Output {
        record,
        stats_json,
        problem,
        figure: [0.0; 4],
    }
}

/// Compare every Figure 5 row of a pass with the committed table. `points`
/// are the workload's points in canonical order and `outputs` is indexed
/// like them. Returns one message per mismatching row, with the indices of
/// the points that produced it.
pub fn check_rows(
    workload: Workload,
    points: &[Point],
    outputs: &[Output],
    golden: &GoldenRows,
) -> Vec<(Vec<usize>, String)> {
    let find = |want: Point| {
        points
            .iter()
            .position(|&p| p == want)
            .expect("Workload::points builds all three points of every row")
    };
    let mut bad = Vec::new();
    for size in workload.sizes() {
        let un = find(Point::Ttcp {
            size,
            single_copy: false,
        });
        let sc = find(Point::Ttcp {
            size,
            single_copy: true,
        });
        let raw = find(Point::Raw { size });
        let row = Row {
            size,
            un: outputs[un].figure,
            sc: outputs[sc].figure,
            raw_mbps: outputs[raw].figure[0],
        }
        .render();
        match golden.get(&(size / 1024)) {
            Some(want) if *want == row => {}
            Some(want) => bad.push((
                vec![un, sc, raw],
                format!("fig5 row mismatch:\n  want {want}\n  got  {row}"),
            )),
            None => bad.push((
                vec![un, sc, raw],
                format!(
                    "fig5 row {} KB missing from the committed table",
                    size / 1024
                ),
            )),
        }
    }
    bad
}
