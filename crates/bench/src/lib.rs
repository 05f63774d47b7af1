//! Shared helpers for the benchmark harness.
//!
//! Each paper table/figure has a binary in `src/bin/`:
//!
//! | target | reproduces |
//! |---|---|
//! | `fig5` | Figure 5: throughput / utilization / efficiency vs size, Alpha 3000/400 |
//! | `fig6` | Figure 6: the same on the Alpha 3000/300LX |
//! | `table1` | Table 1: host-interface taxonomy |
//! | `table2` | Table 2: VM operation costs (measured + least-squares fit) |
//! | `analysis` | §7.3: analytic efficiency estimates vs simulation |
//! | `hol` | §2.1: FIFO head-of-line blocking vs logical channels |
//! | `crossover` | §4.4.3/§4.5 ablations: path choice and alignment fallback |
//!
//! Micro-benches live in `benches/`; they and the `perf` binary share the
//! [`timing`] loop.

use outboard_host::MachineConfig;
use outboard_sim::Dur;
use outboard_stack::StackConfig;
use outboard_testbed::{run_ttcp, ExperimentConfig, Metrics};

pub mod sweep;
pub mod timing;

/// The read/write sizes of Figures 5 and 6 (1 KB .. 512 KB).
pub fn figure_sizes() -> Vec<usize> {
    (0..10).map(|i| 1024usize << i).collect()
}

/// Transfer enough bytes for steady state without wasting wall time.
pub fn total_for(write_size: usize) -> usize {
    (write_size * 64).clamp(2 * 1024 * 1024, 16 * 1024 * 1024)
}

/// One figure point for a given stack flavor.
pub fn figure_point(machine: &MachineConfig, single_copy: bool, write_size: usize) -> Metrics {
    let stack = if single_copy {
        let mut s = StackConfig::single_copy();
        // §7.2: "the measurements for the modified stack always use the
        // single-copy path".
        s.force_single_copy = true;
        s
    } else {
        StackConfig::unmodified()
    };
    let mut cfg = ExperimentConfig::new(machine.clone(), stack, write_size);
    cfg.total_bytes = total_for(write_size);
    cfg.verify = false; // checked extensively in tests; keep benches honest
    fault_args().apply(&mut cfg);
    timeline_args().apply(&mut cfg);
    run_ttcp(&cfg)
}

/// One rendered row of Figure 5/6: both stacks plus the raw-HIPPI bound
/// at a single write size.
pub struct FigureRow {
    /// Read/write size in bytes.
    pub size: usize,
    /// Unmodified-stack run.
    pub un: Metrics,
    /// Single-copy-stack run.
    pub sc: Metrics,
    /// Raw HIPPI throughput bound, Mbit/s.
    pub raw_mbps: f64,
}

/// Compute every point of one figure, fanning the independent experiment
/// runs across the sweep runner (`--jobs`/`OUTBOARD_JOBS`). Results come
/// back in size order, so rendering is identical to a serial run.
pub fn compute_figure(machine: &MachineConfig) -> Vec<FigureRow> {
    let sizes = figure_sizes();
    // Two runs per size, interleaved (un, sc) exactly like the old serial
    // loop so a `--jobs 1` sweep reproduces the historical run order.
    let items: Vec<(usize, bool)> = sizes
        .iter()
        .flat_map(|&s| [(s, false), (s, true)])
        .collect();
    let mut results = sweep::run_sweep("figure", &items, |&(size, sc)| {
        figure_point(machine, sc, size)
    })
    .into_iter();
    sizes
        .into_iter()
        .map(|size| {
            let un = results.next().expect("figure sweep lost a point");
            let sc = results.next().expect("figure sweep lost a point");
            // The raw-HIPPI bound is a closed-form microbench, cheap enough
            // to fill in serially during row assembly.
            let raw = outboard_testbed::raw_hippi_throughput(machine, size.min(32 * 1024), 200);
            FigureRow {
                size,
                un,
                sc,
                raw_mbps: raw,
            }
        })
        .collect()
}

/// Render one figure (three panels) as aligned text plus CSV.
pub fn print_figure(machine: &MachineConfig) {
    println!("# {}", machine.name);
    let faults = fault_args();
    if faults.any() {
        println!("# fault injection active: {faults:?}");
    }
    println!("# series: unmodified stack, modified (single-copy) stack, raw HIPPI");
    println!(
        "{:>8} | {:>9} {:>9} {:>9} | {:>8} {:>8} | {:>9} {:>9} | {:>9} {:>9}",
        "size_KB",
        "un_Mbps",
        "sc_Mbps",
        "raw_Mbps",
        "un_util",
        "sc_util",
        "un_eff",
        "sc_eff",
        "un_eff_rx",
        "sc_eff_rx"
    );
    let mut csv = String::from(
        "size_kb,unmodified_mbps,singlecopy_mbps,raw_mbps,unmodified_util,singlecopy_util,unmodified_eff,singlecopy_eff\n",
    );
    for row in compute_figure(machine) {
        let FigureRow {
            size,
            un,
            sc,
            raw_mbps: raw,
        } = row;
        // The paper: "The utilization results are for the sender, but the
        // results on the receiver are similar" — report both.
        println!(
            "{:>8} | {:>9.1} {:>9.1} {:>9.1} | {:>8.2} {:>8.2} | {:>9.0} {:>9.0} | {:>9.0} {:>9.0}",
            size / 1024,
            un.throughput_mbps,
            sc.throughput_mbps,
            raw,
            un.sender_utilization,
            sc.sender_utilization,
            un.sender_efficiency_mbps,
            sc.sender_efficiency_mbps,
            un.receiver_efficiency_mbps,
            sc.receiver_efficiency_mbps
        );
        csv.push_str(&format!(
            "{},{:.1},{:.1},{:.1},{:.3},{:.3},{:.0},{:.0}\n",
            size / 1024,
            un.throughput_mbps,
            sc.throughput_mbps,
            raw,
            un.sender_utilization,
            sc.sender_utilization,
            un.sender_efficiency_mbps,
            sc.sender_efficiency_mbps
        ));
    }
    println!("\n-- CSV --\n{csv}");
}

/// Did the user pass the shared `--stats` flag?
pub fn stats_requested() -> bool {
    std::env::args().any(|a| a == "--stats")
}

/// Fault-injection knobs shared by every benchmark binary.
///
/// Each field maps to one `--fault-*` flag (see `fault_args` for the
/// spellings) and feeds the matching [`ExperimentConfig`] field, so any
/// figure can be re-run under loss, corruption, or adaptor faults to watch
/// the recovery machinery's cost.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct FaultArgs {
    /// `--fault-drop`: forward-link drop probability.
    pub drop_p: f64,
    /// `--fault-corrupt`: forward-link bit-flip probability.
    pub corrupt_p: f64,
    /// `--fault-reorder`: forward-link late-delivery probability.
    pub reorder_p: f64,
    /// `--fault-dup`: forward-link duplication probability.
    pub dup_p: f64,
    /// `--fault-cab-alloc`: CAB netmem allocation-failure probability.
    pub cab_alloc_fail_p: f64,
    /// `--fault-cab-sdma`: CAB SDMA transfer-failure probability.
    pub cab_sdma_fail_p: f64,
    /// `--fault-cab-mdma`: CAB MDMA transfer-failure probability.
    pub cab_mdma_fail_p: f64,
    /// `--fault-cab-wedge`: probability a failed transfer wedges an engine.
    pub cab_wedge_p: f64,
    /// `--fault-cab-csum`: probability of a miscomputed outboard checksum.
    pub cab_csum_error_p: f64,
}

impl FaultArgs {
    /// Copy the knobs into an experiment configuration.
    pub fn apply(&self, cfg: &mut ExperimentConfig) {
        cfg.drop_p = self.drop_p;
        cfg.corrupt_p = self.corrupt_p;
        cfg.reorder_p = self.reorder_p;
        cfg.dup_p = self.dup_p;
        cfg.cab_alloc_fail_p = self.cab_alloc_fail_p;
        cfg.cab_sdma_fail_p = self.cab_sdma_fail_p;
        cfg.cab_mdma_fail_p = self.cab_mdma_fail_p;
        cfg.cab_wedge_p = self.cab_wedge_p;
        cfg.cab_csum_error_p = self.cab_csum_error_p;
    }

    /// True when any knob is non-zero (used to annotate figure headers).
    pub fn any(&self) -> bool {
        *self != FaultArgs::default()
    }
}

/// Parse the shared `--fault-*` flags (`--fault-drop 0.05` or
/// `--fault-drop=0.05`). Unknown flags are left for the binary; a malformed
/// probability aborts with a message rather than silently running fault-free.
pub fn fault_args() -> FaultArgs {
    let mut f = FaultArgs::default();
    let argv: Vec<String> = std::env::args().collect();
    let mut i = 0;
    while i < argv.len() {
        let (flag, inline) = match argv[i].split_once('=') {
            Some((name, val)) => (name, Some(val.to_string())),
            None => (argv[i].as_str(), None),
        };
        let slot = match flag {
            "--fault-drop" => Some(0),
            "--fault-corrupt" => Some(1),
            "--fault-reorder" => Some(2),
            "--fault-dup" => Some(3),
            "--fault-cab-alloc" => Some(4),
            "--fault-cab-sdma" => Some(5),
            "--fault-cab-mdma" => Some(6),
            "--fault-cab-wedge" => Some(7),
            "--fault-cab-csum" => Some(8),
            _ => None,
        };
        let Some(slot) = slot else {
            i += 1;
            continue;
        };
        let val = match inline {
            Some(v) => v,
            None => {
                i += 1;
                argv.get(i).cloned().unwrap_or_default()
            }
        };
        let p: f64 = match val.parse() {
            Ok(p) if (0.0..=1.0).contains(&p) => p,
            _ => {
                eprintln!("{flag} needs a probability in [0, 1], got {val:?}");
                std::process::exit(2);
            }
        };
        match slot {
            0 => f.drop_p = p,
            1 => f.corrupt_p = p,
            2 => f.reorder_p = p,
            3 => f.dup_p = p,
            4 => f.cab_alloc_fail_p = p,
            5 => f.cab_sdma_fail_p = p,
            6 => f.cab_mdma_fail_p = p,
            7 => f.cab_wedge_p = p,
            _ => f.cab_csum_error_p = p,
        }
        i += 1;
    }
    f
}

/// Causal-trace knobs shared by every benchmark binary.
///
/// `--trace-out FILE` asks the binary to run one representative traced
/// experiment and write a Chrome trace-event / Perfetto JSON timeline to
/// `FILE`; `--trace-flows N` caps how many flows get flow arrows (0 = all).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TraceArgs {
    /// `--trace-out`: destination file for the Perfetto JSON trace.
    pub out: Option<String>,
    /// `--trace-flows`: flow-arrow cap (`None` = the experiment default).
    pub flows: Option<Option<usize>>,
}

/// Parse the shared `--trace-*` flags (`--trace-out trace.json` or
/// `--trace-out=trace.json`). A missing filename or malformed flow count
/// aborts rather than silently running untraced.
pub fn trace_args() -> TraceArgs {
    let mut t = TraceArgs::default();
    let argv: Vec<String> = std::env::args().collect();
    let mut i = 0;
    while i < argv.len() {
        let (flag, inline) = match argv[i].split_once('=') {
            Some((name, val)) => (name, Some(val.to_string())),
            None => (argv[i].as_str(), None),
        };
        if flag != "--trace-out" && flag != "--trace-flows" {
            i += 1;
            continue;
        }
        let val = match inline {
            Some(v) => v,
            None => {
                i += 1;
                argv.get(i).cloned().unwrap_or_default()
            }
        };
        if flag == "--trace-out" {
            if val.is_empty() || val.starts_with("--") {
                eprintln!("--trace-out needs a filename, got {val:?}");
                std::process::exit(2);
            }
            t.out = Some(val);
        } else {
            match val.parse::<usize>() {
                Ok(0) => t.flows = Some(None),
                Ok(n) => t.flows = Some(Some(n)),
                Err(_) => {
                    eprintln!("--trace-flows needs a count (0 = all), got {val:?}");
                    std::process::exit(2);
                }
            }
        }
        i += 1;
    }
    t
}

/// Windowed-telemetry knobs shared by every benchmark binary.
///
/// `--timeline` turns the sampler on for every experiment the binary runs;
/// `--timeline-window-us N` overrides the sampling window (default 1000 µs
/// of virtual time). Timelines surface three ways: counter tracks merged
/// into any `--trace-out` Perfetto file, `timeline_<tag>.json/.csv`
/// snapshots next to the `stats_*` files under `--stats`, and an ASCII
/// sparkline summary on stdout.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TimelineArgs {
    /// `--timeline`: enable windowed sampling.
    pub enabled: bool,
    /// `--timeline-window-us`: sampling window override, microseconds.
    pub window_us: Option<u64>,
}

impl TimelineArgs {
    /// Copy the knobs into an experiment configuration.
    pub fn apply(&self, cfg: &mut ExperimentConfig) {
        if self.enabled {
            cfg.timeline_enabled = true;
        }
        if let Some(us) = self.window_us {
            cfg.timeline_window = Dur::micros(us);
        }
    }
}

/// Parse the shared `--timeline*` flags (`--timeline`,
/// `--timeline-window-us 500` or `--timeline-window-us=500`). A malformed
/// window aborts rather than silently sampling on the default.
pub fn timeline_args() -> TimelineArgs {
    let mut t = TimelineArgs::default();
    let argv: Vec<String> = std::env::args().collect();
    let mut i = 0;
    while i < argv.len() {
        let (flag, inline) = match argv[i].split_once('=') {
            Some((name, val)) => (name, Some(val.to_string())),
            None => (argv[i].as_str(), None),
        };
        match flag {
            "--timeline" => t.enabled = true,
            "--timeline-window-us" => {
                let val = match inline {
                    Some(v) => v,
                    None => {
                        i += 1;
                        argv.get(i).cloned().unwrap_or_default()
                    }
                };
                match val.parse::<u64>() {
                    Ok(us) if us > 0 => {
                        t.enabled = true;
                        t.window_us = Some(us);
                    }
                    _ => {
                        eprintln!("--timeline-window-us needs a positive count, got {val:?}");
                        std::process::exit(2);
                    }
                }
            }
            _ => {}
        }
        i += 1;
    }
    t
}

/// Honor `--trace-out`: re-run one representative point (single-copy stack,
/// 64 KB writes, any `--fault-*` flags still applied) with span tracing
/// enabled, write the Perfetto/chrome-trace JSON, and print the
/// critical-path attribution for the busiest flow. A no-op when the flag
/// was not passed, so every binary can call this unconditionally.
pub fn emit_trace(machine: &MachineConfig) {
    let t = trace_args();
    let Some(path) = t.out else { return };
    let mut stack = StackConfig::single_copy();
    stack.force_single_copy = true;
    let mut cfg = ExperimentConfig::new(machine.clone(), stack, 64 * 1024);
    cfg.total_bytes = total_for(64 * 1024);
    cfg.verify = false;
    fault_args().apply(&mut cfg);
    timeline_args().apply(&mut cfg);
    cfg.trace_spans = true;
    if let Some(flows) = t.flows {
        cfg.trace_flows = flows;
    }
    let m = run_ttcp(&cfg);
    println!("\n== causal trace (single-copy stack, 64 KB writes) ==\n");
    let opened = m.stats.counter_value("world.spans.opened");
    let evicted = m.stats.counter_value("world.spans.evicted");
    println!("spans recorded: {opened} (evicted: {evicted})");
    if m.stats.get("world.timeline.windows").is_some() {
        println!(
            "timeline windows: {} ({} series; counter tracks merged into the trace)",
            m.stats.counter_value("world.timeline.windows"),
            m.stats.counter_value("world.timeline.series"),
        );
    }
    if let Some(cp) = &m.critical_path {
        print!("{}", cp.render());
    }
    match std::fs::write(&path, m.trace_json.as_deref().unwrap_or_default()) {
        Ok(()) => println!("wrote {path} (open in https://ui.perfetto.dev or chrome://tracing)"),
        Err(e) => {
            eprintln!("failed to write {path}: {e}");
            std::process::exit(1);
        }
    }
}

/// Render and persist a full metrics snapshot for one representative run.
///
/// Runs a single-copy 64 KB-write transfer on `machine`, prints the
/// deterministic [`MetricsRegistry::report`] (SDMA/MDMA busy fractions,
/// network-memory page high-water marks, CPU shares, netstat-style TCP
/// counters, link and fabric totals), and writes machine-readable
/// `stats_<tag>.json` and `stats_<tag>.csv` snapshots next to the
/// figure's results files.
///
/// [`MetricsRegistry::report`]: outboard_sim::MetricsRegistry::report
pub fn emit_stats(tag: &str, machine: &MachineConfig) {
    let m = figure_point(machine, true, 64 * 1024);
    println!("\n== per-run stats (single-copy stack, 64 KB writes) ==\n");
    print!("{}", m.stats.report());
    let json = format!("stats_{tag}.json");
    let csv = format!("stats_{tag}.csv");
    match std::fs::write(&json, m.stats.to_json())
        .and_then(|()| std::fs::write(&csv, m.stats.to_csv()))
    {
        Ok(()) => println!("\nwrote {json} and {csv}"),
        Err(e) => eprintln!("\nfailed to write stats snapshots: {e}"),
    }
    // Timeline artifacts ride along when `--timeline` was passed: the
    // sparkline summary on stdout, JSON/CSV next to the stats files.
    if let (Some(tj), Some(tc), Some(ts)) = (&m.timeline_json, &m.timeline_csv, &m.timeline_summary)
    {
        println!("\n== timeline (single-copy stack, 64 KB writes) ==\n");
        print!("{ts}");
        let tjson = format!("timeline_{tag}.json");
        let tcsv = format!("timeline_{tag}.csv");
        match std::fs::write(&tjson, tj).and_then(|()| std::fs::write(&tcsv, tc)) {
            Ok(()) => println!("\nwrote {tjson} and {tcsv}"),
            Err(e) => eprintln!("\nfailed to write timeline snapshots: {e}"),
        }
    }
}
