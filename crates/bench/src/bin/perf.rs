//! Wall-clock benchmark harness: times representative simulator workloads
//! and writes `BENCH_perf.json` so every PR extends a measured perf
//! trajectory instead of guessing.
//!
//! Workloads:
//!
//! 1. `tcp_large_window` — one single-copy large-window transfer;
//! 2. `fault_soak` — the fault-matrix soak configuration (drops, bit
//!    corruption, duplication, adaptor alloc failures);
//! 3. `fig5_sweep_serial` / `fig5_sweep_parallel` — the Figure 5 sweep
//!    with `--jobs 1` vs the configured worker count, verifying the
//!    parallel results are **identical** to serial (exit 1 on mismatch —
//!    CI's determinism gate);
//! 4. `checksum_wide` / `checksum_scalar` — ones-complement checksum
//!    MB/s through the 8-byte-lane path vs the 16-bit reference path,
//!    via the shared `outboard_bench::timing` loop. The
//!    wide-over-scalar speedup is a regression gate: below 4x the binary
//!    exits 1 so scheduler work can't silently regress the checksum
//!    pillar.
//!
//! `--smoke` shrinks every workload for CI; `--jobs N`/`OUTBOARD_JOBS`
//! picks the parallel worker count (default: `min(4, cores)`, so the
//! committed smoke numbers measure real parallelism). The JSON records the
//! machine's `available_parallelism` next to `jobs`, so a parallel speedup
//! below 1 can be read against the cores it actually had.

use outboard_bench::{sweep, timing};
use outboard_host::MachineConfig;
use outboard_stack::StackConfig;
use outboard_testbed::{run_ttcp, ExperimentConfig, Metrics};
use outboard_wire::checksum::Accumulator;
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

/// One measured workload: a name plus (field, value) pairs for the JSON.
struct Workload {
    name: &'static str,
    fields: Vec<(&'static str, f64)>,
}

fn experiment(
    machine: &MachineConfig,
    single_copy: bool,
    write_size: usize,
    total: usize,
) -> ExperimentConfig {
    let stack = if single_copy {
        let mut s = StackConfig::single_copy();
        s.force_single_copy = true;
        s
    } else {
        StackConfig::unmodified()
    };
    let mut cfg = ExperimentConfig::new(machine.clone(), stack, write_size);
    cfg.total_bytes = total;
    cfg.verify = false;
    cfg
}

/// Time one `run_ttcp` and convert it to a workload entry.
fn timed_run(name: &'static str, cfg: &ExperimentConfig) -> (Workload, Metrics) {
    let t0 = Instant::now();
    let m = run_ttcp(cfg);
    let wall_us = t0.elapsed().as_micros() as f64;
    let secs = wall_us / 1e6;
    let events_per_sec = if secs > 0.0 {
        m.events_dispatched as f64 / secs
    } else {
        0.0
    };
    (
        Workload {
            name,
            fields: vec![
                ("wall_us", wall_us),
                ("events", m.events_dispatched as f64),
                ("events_per_sec", events_per_sec),
                ("sim_mbps", m.throughput_mbps),
                ("completed", if m.completed { 1.0 } else { 0.0 }),
            ],
        },
        m,
    )
}

/// Canonical rendering of a run's results for the serial-vs-parallel
/// equality check: every Metrics field plus the full stats registry JSON.
fn canon(m: &Metrics) -> String {
    format!(
        "{:?}|{:?}|{}|{:?}|{:?}|{:?}|{:?}|{:?}|{}|{}|{}|{}|{}|{}|{}|{}",
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
        m.stats.to_json()
    )
}

fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let jobs = sweep::jobs_capped(4);
    let machine = MachineConfig::alpha_3000_400();
    let mut workloads: Vec<Workload> = Vec::new();
    let mut determinism_ok = true;

    // 1. Single large-window TCP run.
    let total = if smoke { 1024 * 1024 } else { 8 * 1024 * 1024 };
    let cfg = experiment(&machine, true, 256 * 1024, total);
    let (w, _) = timed_run("tcp_large_window", &cfg);
    workloads.push(w);

    // 1b. Tracing overhead: the identical run with span tracing enabled
    // but the trace never rendered (enabled-but-unused) vs the untraced
    // baseline. Recording you never read must stay cheap; min-of-3 with an
    // absolute floor so scheduler noise on fast smoke runs cannot trip the
    // gate.
    let min3_us = |cfg: &ExperimentConfig| {
        (0..3)
            .map(|_| {
                let t0 = Instant::now();
                black_box(run_ttcp(cfg));
                t0.elapsed().as_micros() as f64
            })
            .fold(f64::INFINITY, f64::min)
    };
    let untraced_us = min3_us(&cfg);
    let mut traced_cfg = cfg.clone();
    traced_cfg.trace_spans = true;
    traced_cfg.trace_export = false;
    let traced_us = min3_us(&traced_cfg);
    let overhead_pct = (traced_us - untraced_us) / untraced_us.max(1.0) * 100.0;
    let trace_overhead_ok = overhead_pct <= 2.0 || (traced_us - untraced_us) < 2_000.0;
    workloads.push(Workload {
        name: "trace_overhead",
        fields: vec![
            ("untraced_us", untraced_us),
            ("traced_us", traced_us),
            ("overhead_pct", overhead_pct),
            ("within_budget", if trace_overhead_ok { 1.0 } else { 0.0 }),
        ],
    });

    // 1c. Timeline overhead, mirroring 1b: the identical run with windowed
    // sampling enabled but nothing exported vs the unsampled baseline.
    // Boundary sampling reads a handful of integers per virtual
    // millisecond; recording you never read must stay cheap.
    let mut sampled_cfg = cfg.clone();
    sampled_cfg.timeline_enabled = true;
    sampled_cfg.timeline_export = false;
    let sampled_us = min3_us(&sampled_cfg);
    let timeline_pct = (sampled_us - untraced_us) / untraced_us.max(1.0) * 100.0;
    let timeline_overhead_ok = timeline_pct <= 2.0 || (sampled_us - untraced_us) < 2_000.0;
    workloads.push(Workload {
        name: "timeline_overhead",
        fields: vec![
            ("unsampled_us", untraced_us),
            ("sampled_us", sampled_us),
            ("overhead_pct", timeline_pct),
            (
                "within_budget",
                if timeline_overhead_ok { 1.0 } else { 0.0 },
            ),
        ],
    });

    // 2. Fault-matrix soak configuration.
    let total = if smoke { 1024 * 1024 } else { 4 * 1024 * 1024 };
    let mut cfg = experiment(&machine, true, 64 * 1024, total);
    cfg.drop_p = 0.05;
    cfg.corrupt_p = 0.01;
    cfg.dup_p = 0.01;
    cfg.cab_alloc_fail_p = 0.05;
    let (w, _) = timed_run("fault_soak", &cfg);
    workloads.push(w);

    // 3. Figure-5-style sweep, serial vs parallel, with a byte-equality
    // check over every run's metrics and stats registry.
    let sizes: Vec<usize> = if smoke {
        vec![1024, 4096]
    } else {
        outboard_bench::figure_sizes()
    };
    let items: Vec<(usize, bool)> = sizes
        .iter()
        .flat_map(|&s| [(s, false), (s, true)])
        .collect();
    let point = |&(size, sc): &(usize, bool)| {
        let total = if smoke {
            256 * 1024
        } else {
            outboard_bench::total_for(size)
        };
        run_ttcp(&experiment(&machine, sc, size, total))
    };
    let t0 = Instant::now();
    let serial = sweep::run_sweep_jobs("perf-fig5-serial", 1, &items, point);
    let serial_us = t0.elapsed().as_micros() as f64;
    let t0 = Instant::now();
    let parallel = sweep::run_sweep_jobs("perf-fig5-parallel", jobs, &items, point);
    let parallel_us = t0.elapsed().as_micros() as f64;
    for (i, (s, p)) in serial.iter().zip(&parallel).enumerate() {
        if canon(s) != canon(p) {
            let (size, sc) = items[i];
            eprintln!(
                "DETERMINISM FAILURE: sweep item {i} (size {size}, single_copy {sc}) \
                 differs between --jobs 1 and --jobs {jobs}"
            );
            determinism_ok = false;
        }
    }
    let events: u64 = serial.iter().map(|m| m.events_dispatched).sum();
    workloads.push(Workload {
        name: "fig5_sweep_serial",
        fields: vec![
            ("wall_us", serial_us),
            ("jobs", 1.0),
            ("events", events as f64),
            (
                "events_per_sec",
                events as f64 / (serial_us / 1e6).max(1e-9),
            ),
            ("runs", items.len() as f64),
        ],
    });
    workloads.push(Workload {
        name: "fig5_sweep_parallel",
        fields: vec![
            ("wall_us", parallel_us),
            ("jobs", jobs as f64),
            ("runs", items.len() as f64),
            ("speedup_vs_serial", serial_us / parallel_us.max(1.0)),
            ("matches_serial", if determinism_ok { 1.0 } else { 0.0 }),
        ],
    });

    // 4. Checksum throughput: wide 8-byte lanes vs the scalar reference,
    // measured with the shared timing loop.
    let buf_len = if smoke { 256 * 1024 } else { 4 * 1024 * 1024 };
    let buf: Vec<u8> = (0..buf_len).map(|i| (i * 31 + 7) as u8).collect();
    let iters = if smoke { 20 } else { 50 };
    let wide = timing::measure_ns(iters, || {
        let mut acc = Accumulator::new();
        acc.add_bytes(black_box(&buf));
        black_box(acc.partial());
    });
    let scalar = timing::measure_ns(iters, || {
        let mut acc = Accumulator::new();
        acc.add_bytes_scalar(black_box(&buf));
        black_box(acc.partial());
    });
    let wide_mbps = wide.mb_per_sec(buf_len as u64);
    let scalar_mbps = scalar.mb_per_sec(buf_len as u64);
    // PR-3's pillar, pinned: the wide path must stay >= 4x the scalar
    // reference on the same machine or the harness fails.
    let checksum_speedup = wide_mbps / scalar_mbps.max(1e-9);
    let checksum_ok = checksum_speedup >= 4.0;
    workloads.push(Workload {
        name: "checksum_wide",
        fields: vec![
            ("wall_us", wide.per_iter_ns * wide.iters as f64 / 1e3),
            ("mb_per_sec", wide_mbps),
            ("bytes_per_iter", buf_len as f64),
            ("speedup_vs_scalar", checksum_speedup),
            ("gate_4x_ok", if checksum_ok { 1.0 } else { 0.0 }),
        ],
    });
    workloads.push(Workload {
        name: "checksum_scalar",
        fields: vec![
            ("wall_us", scalar.per_iter_ns * scalar.iters as f64 / 1e3),
            ("mb_per_sec", scalar_mbps),
            ("bytes_per_iter", buf_len as f64),
        ],
    });

    // Render BENCH_perf.json (hand-rolled: the workspace has no serde).
    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"schema\": \"outboard-perf-v1\",");
    let _ = writeln!(json, "  \"git_rev\": \"{}\",", git_rev());
    let _ = writeln!(json, "  \"jobs\": {jobs},");
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let _ = writeln!(json, "  \"available_parallelism\": {cores},");
    let _ = writeln!(json, "  \"smoke\": {smoke},");
    let _ = writeln!(json, "  \"workloads\": [");
    for (i, w) in workloads.iter().enumerate() {
        let _ = write!(json, "    {{ \"name\": \"{}\"", w.name);
        for (k, v) in &w.fields {
            if v.fract() == 0.0 && v.abs() < 1e15 {
                let _ = write!(json, ", \"{k}\": {}", *v as i64);
            } else {
                let _ = write!(json, ", \"{k}\": {v:.3}");
            }
        }
        let _ = writeln!(
            json,
            " }}{}",
            if i + 1 < workloads.len() { "," } else { "" }
        );
    }
    json.push_str("  ]\n}\n");
    match std::fs::write("BENCH_perf.json", &json) {
        Ok(()) => println!("wrote BENCH_perf.json ({} workloads)", workloads.len()),
        Err(e) => {
            eprintln!("failed to write BENCH_perf.json: {e}");
            std::process::exit(1);
        }
    }
    print!("{json}");
    for w in &workloads {
        let wall = w
            .fields
            .iter()
            .find(|(k, _)| *k == "wall_us")
            .map(|(_, v)| *v)
            .unwrap_or(0.0);
        eprintln!("perf {:<22} {:>10.0} us", w.name, wall);
    }
    if !determinism_ok {
        eprintln!("perf: parallel sweep output DIFFERS from serial — failing");
        std::process::exit(1);
    }
    if !trace_overhead_ok {
        eprintln!(
            "perf: span tracing costs {overhead_pct:.1}% wall-clock on \
             tcp_large_window (budget: 2%) — failing"
        );
        std::process::exit(1);
    }
    if !timeline_overhead_ok {
        eprintln!(
            "perf: windowed sampling costs {timeline_pct:.1}% wall-clock on \
             tcp_large_window (budget: 2%) — failing"
        );
        std::process::exit(1);
    }
    if !checksum_ok {
        eprintln!(
            "perf: wide checksum is only {checksum_speedup:.2}x the scalar \
             reference (gate: 4x) — failing"
        );
        std::process::exit(1);
    }
}
