//! Host-time benchmark of the paper's evaluation.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload fig5_small|fig5_bulk|chaos_sweep --seed N --seconds S --trace 0|1
//! ```
//!
//! Run from the repository root (the Figure 5 check reads
//! `results_fig5_tables.txt` there). A pass runs every point of the
//! workload once, one at a time, in an order shuffled by the seed; passes
//! repeat back to back for `--seconds`. Every pass is checked: Figure 5
//! rows against the committed table, chaos seeds against the oracle, and
//! every run's outputs byte for byte against the set-up pass.
//!
//! `--trace 0` reports the end-to-end metrics (host time per pass, set-up
//! time, peak memory). `--trace 1` alternates untraced and traced passes and
//! reports the per-layer metrics; see `README.md` for the layer map. The
//! last line of stdout is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. Exit status: 0 when every run was correct, 1 on
//! any failed run, 2 on a usage or set-up error.

mod golden;
mod stats;
mod traced;
mod workload;

use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use stats::{median, tail, SplitMix};
use traced::{Counts, Layers, Traced};
use workload::{output, run_point, Output, Point, Workload};

/// Fresh processes timed from spawn to the end of set-up for `setup_s`.
const SETUP_PROBES: u32 = 7;
/// Passes a run makes at least, however short `--seconds` is.
const MIN_PASSES: usize = 3;
/// Flag that makes the process set up and exit (one `setup_s` sample).
const SETUP_ONLY: &str = "--setup-only";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    setup_only: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace, mut setup_only) =
        (None, None, None, None, false);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        if flag == SETUP_ONLY {
            setup_only = true;
            continue;
        }
        let val = it.next().ok_or(format!("{flag} needs a value"))?;
        let num = || {
            val.parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {val}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(val).ok_or(format!("unknown workload {val}"))?)
            }
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?),
            "--trace" => trace = Some(num()? != 0),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
        setup_only,
    })
}

/// What set-up leaves for the timed passes: the points and the reference
/// outputs every later pass must reproduce.
struct Bench {
    workload: Workload,
    seed: u64,
    points: Vec<Point>,
    golden: golden::GoldenRows,
    reference: Vec<Output>,
}

/// Run counts and the first few failure messages.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    messages: Vec<String>,
}

impl Tally {
    /// Keep a failure message (the first few are printed).
    fn note(&mut self, msg: String) {
        if self.messages.len() < 8 {
            self.messages.push(msg);
        }
    }

    /// Count `n` failed runs.
    fn fail(&mut self, n: u64, msg: String) {
        self.failed += n;
        self.note(msg);
    }
}

/// Set-up: read the committed table, build the points, and run the
/// reference pass (untimed; its outputs are checked like any pass and
/// fixed as what every later pass must reproduce).
fn setup(workload: Workload, seed: u64, tally: &mut Tally) -> Result<Bench, String> {
    let golden = if workload.sizes().is_empty() {
        golden::GoldenRows::new()
    } else {
        let text = std::fs::read_to_string(golden::GOLDEN_PATH).map_err(|e| {
            format!(
                "cannot read {} (run from the repository root): {e}",
                golden::GOLDEN_PATH
            )
        })?;
        golden::parse(&text)?
    };
    let points = workload.points(seed);
    let reference: Vec<Output> = points
        .iter()
        .map(|&p| output(p, &run_point(p, true)))
        .collect();
    let bench = Bench {
        workload,
        seed,
        points,
        golden,
        reference,
    };
    bench.check(&bench.reference, tally);
    Ok(bench)
}

impl Bench {
    /// Pass order for pass `n`: the canonical points shuffled by the seed.
    fn order(&self, n: u64) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.points.len()).collect();
        SplitMix::new(self.seed, n).shuffle(&mut order);
        order
    }

    /// Check one untraced pass (outputs in canonical order): each run's own
    /// verdict, identity with the reference pass, and the Figure 5 rows.
    fn check(&self, outs: &[Output], tally: &mut Tally) {
        let mut bad = BTreeSet::new();
        for (i, (out, want)) in outs.iter().zip(&self.reference).enumerate() {
            if let Some(p) = &out.problem {
                bad.insert(i);
                tally.note(p.clone());
            } else if out.record != want.record {
                bad.insert(i);
                tally.note(format!(
                    "{:?}: outputs differ from the set-up pass",
                    self.points[i]
                ));
            }
        }
        for (idx, msg) in workload::check_rows(self.workload, &self.points, outs, &self.golden) {
            bad.extend(idx);
            tally.note(msg);
        }
        tally.failed += bad.len() as u64;
        tally.attempted += outs.len() as u64;
    }

    /// One untraced pass: host seconds spent in the runs, and the outputs in
    /// canonical order. `timeline` false turns the chaos sampler off.
    fn untraced_pass(&self, n: u64, timeline: bool) -> (f64, Vec<Output>) {
        let mut sims: Vec<Option<workload::Sim>> = self.points.iter().map(|_| None).collect();
        let mut busy = Duration::ZERO;
        for i in self.order(n) {
            let t = Instant::now();
            let sim = run_point(self.points[i], timeline);
            busy += t.elapsed();
            sims[i] = Some(sim);
        }
        let outs = self
            .points
            .iter()
            .zip(&sims)
            .map(|(&p, s)| output(p, s.as_ref().expect("every point ran")))
            .collect();
        (busy.as_secs_f64(), outs)
    }

    /// Run and check an untraced pass, returning its host seconds.
    fn checked_pass(&self, n: u64, tally: &mut Tally) -> f64 {
        let (secs, outs) = self.untraced_pass(n, true);
        self.check(&outs, tally);
        secs
    }

    /// One traced pass: host seconds, per-layer accumulators. Every run must
    /// reproduce its reference stats exactly.
    fn traced_pass(&self, n: u64, tally: &mut Tally) -> (f64, Layers) {
        let mut layers = Layers::default();
        let mut runs: Vec<(usize, Traced)> = Vec::with_capacity(self.points.len());
        let mut busy = Duration::ZERO;
        for i in self.order(n) {
            let t = Instant::now();
            let r = traced::run_point(self.points[i], &mut layers);
            busy += t.elapsed();
            runs.push((i, r));
        }
        for (i, r) in &runs {
            if let Some(msg) = r.check(self.points[*i], &self.reference[*i]) {
                tally.fail(1, msg);
            }
        }
        tally.attempted += self.points.len() as u64;
        (busy.as_secs_f64(), layers)
    }

    /// Digest of every simulated output of the reference pass, in canonical
    /// order. Independent of host speed; for `fig5_*` also of the seed.
    fn digest(&self) -> u64 {
        stats::digest(self.reference.iter().map(|o| o.record.as_str()))
    }
}

/// Peak resident set of this process, MB.
fn peak_rss_mb() -> f64 {
    // struct rusage on 64-bit Linux: two timevals, then 14 longs starting
    // with ru_maxrss (KB).
    #[repr(C)]
    struct RUsage([i64; 18]);
    extern "C" {
        fn getrusage(who: i32, usage: *mut RUsage) -> i32;
    }
    let mut u = RUsage([0; 18]);
    // SAFETY: `u` is a writable buffer of the size and layout of struct
    // rusage on 64-bit Linux, and RUSAGE_SELF (0) is a valid `who`.
    let rc = unsafe { getrusage(0, &mut u) };
    if rc == 0 {
        u.0[4] as f64 / 1024.0
    } else {
        0.0
    }
}

/// The checked-out commit, read from `.git` without running git.
fn git_rev() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown (not a git checkout)".into();
    };
    let head = head.trim();
    let Some(name) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(rev) = read(&format!(".git/{name}")) {
        return rev.trim().to_string();
    }
    read(".git/packed-refs")
        .and_then(|p| {
            p.lines()
                .find(|l| l.ends_with(name))
                .and_then(|l| l.split_whitespace().next().map(String::from))
        })
        .unwrap_or_else(|| format!("unknown ({name})"))
}

/// One `setup_s` sample: a fresh process timed from spawn until its set-up
/// (through the reference pass) ends.
fn setup_probe(args: &Args, tally: &mut Tally) -> Option<f64> {
    tally.attempted += 1;
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => {
            tally.fail(1, format!("cannot locate this executable: {e}"));
            return None;
        }
    };
    let t = Instant::now();
    let status = Command::new(exe)
        .args(["--workload", args.workload.name(), "--seed"])
        .arg(args.seed.to_string())
        .arg(SETUP_ONLY)
        .stdout(Stdio::null())
        .status();
    let secs = t.elapsed().as_secs_f64();
    match status {
        Ok(s) if s.success() => Some(secs),
        Ok(s) => {
            tally.fail(1, format!("set-up process exited with {s}"));
            None
        }
        Err(e) => {
            tally.fail(1, format!("cannot start set-up process: {e}"));
            None
        }
    }
}

/// One reported metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    samples: u64,
    note: String,
}

fn metric(
    name: &'static str,
    value: f64,
    unit: &'static str,
    samples: u64,
    note: String,
) -> Metric {
    Metric {
        name,
        value,
        unit,
        samples,
        note,
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// `--trace 0`: time untraced passes for the run length, with the set-up
/// probes spread evenly through it so that they see the same host
/// conditions as the passes.
fn end_to_end(args: &Args, bench: &Bench, tally: &mut Tally) -> (Vec<Metric>, u64) {
    let run = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let mut times = Vec::new();
    let (mut setups, mut probes) = (Vec::new(), 0u32);
    while times.len() < MIN_PASSES || start.elapsed() < run {
        if probes < SETUP_PROBES && start.elapsed() >= run * probes / SETUP_PROBES {
            probes += 1;
            setups.extend(setup_probe(args, tally));
        }
        times.push(bench.checked_pass(times.len() as u64 + 1, tally));
    }
    while probes < SETUP_PROBES {
        probes += 1;
        setups.extend(setup_probe(args, tally));
    }
    let passes = times.len() as u64;
    let rss = peak_rss_mb();
    let (tail_s, pct) = tail(&times);
    let runs = tally.attempted;
    let m = vec![
        // The mean, not the median: a shared host can alternate between an
        // uncontended and a ~50% slower contended mode for seconds at a
        // time, and the median flips between the two (see README.md).
        metric(
            "sweep_s",
            times.iter().sum::<f64>() / passes as f64,
            "s",
            passes,
            format!("mean host seconds per pass (median {:.6})", median(&times)),
        ),
        metric(
            "sweep_s_tail",
            tail_s,
            "s",
            passes,
            format!("p{pct} of pass time (highest percentile with >= 10 passes beyond)"),
        ),
        metric(
            "setup_s",
            median(&setups),
            "s",
            setups.len() as u64,
            "median over fresh processes, spawn to first timed pass".into(),
        ),
        metric(
            "peak_rss_mb",
            rss,
            "MB",
            1,
            "peak resident memory of this process".into(),
        ),
        metric(
            "failed_ratio",
            ratio(tally.failed, runs),
            "ratio",
            runs,
            format!(
                "{} failed of {runs} runs; not in the result line, which carries both counts",
                tally.failed
            ),
        ),
    ];
    (m, passes)
}

/// `--trace 1`: alternate untraced and traced passes (and, for chaos,
/// passes with the timeline sampler off) for the run length, then derive
/// the per-layer metrics.
fn per_layer(args: &Args, bench: &Bench, tally: &mut Tally) -> (Vec<Metric>, u64, Vec<Counts>) {
    #[derive(Clone, Copy)]
    enum Kind {
        Untraced,
        Traced,
        Unsampled,
    }
    let chaos = bench.workload == Workload::ChaosSweep;
    let mut kinds = vec![Kind::Untraced, Kind::Traced];
    if chaos {
        kinds.push(Kind::Unsampled);
    }
    let run = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let (mut plain, mut traced, mut unsampled) = (Vec::new(), Vec::new(), Vec::new());
    let mut layers = Layers::default();
    let mut counts: Vec<Counts> = Vec::new();
    let mut round = 0u64;
    while traced.len() < 2 || start.elapsed() < run {
        round += 1;
        // Rotate which kind goes first so drift does not favour one.
        kinds.rotate_left(1);
        for &kind in &kinds {
            match kind {
                Kind::Untraced => plain.push(bench.checked_pass(round, tally)),
                Kind::Traced => {
                    let (secs, l) = bench.traced_pass(round, tally);
                    traced.push(secs);
                    counts.push(l.counts);
                    layers.merge(&l);
                }
                Kind::Unsampled => {
                    let (secs, outs) = bench.untraced_pass(round, false);
                    for o in &outs {
                        if let Some(p) = &o.problem {
                            tally.fail(1, p.clone());
                        }
                    }
                    tally.attempted += outs.len() as u64;
                    unsampled.push(secs);
                }
            }
        }
    }
    let l = &layers;
    let passes = traced.len() as u64;
    // Median over rounds of (x - sampled untraced) / sampled untraced. The
    // passes of one round ran back to back, so slow drift in host speed
    // cancels.
    let vs_plain = |x: &[f64]| {
        let d: Vec<f64> = x.iter().zip(&plain).map(|(x, p)| (x - p) / p).collect();
        median(&d)
    };
    let overhead = vs_plain(&traced);
    let timeline_share = if chaos { -vs_plain(&unsampled) } else { 0.0 };
    let (events, steps) = (l.counts.events, l.counts.app_steps);
    let hist_n = l.world_hist.count();
    let last = counts.last().copied().unwrap_or_default();
    let na = |on: bool, note: &str, why: &str| {
        if on {
            note.to_string()
        } else {
            format!("0: {why}")
        }
    };
    let mut m = vec![
        metric(
            "apps.tx_ns_per_byte",
            ratio(l.tx_ns, l.tx_bytes),
            "ns/B",
            l.tx_bytes,
            "sender app steps per byte written".into(),
        ),
        metric(
            "apps.rx_ns_per_byte",
            ratio(l.rx_ns, l.rx_bytes),
            "ns/B",
            l.rx_bytes,
            "receiver app steps per byte read".into(),
        ),
        metric(
            "apps.share",
            ratio(l.tx_ns + l.rx_ns, l.loop_ns),
            "ratio",
            steps,
            "app steps over run-loop wall time".into(),
        ),
        metric(
            "world.ns_per_event",
            ratio(l.world_ns, events),
            "ns",
            events,
            "non-app dispatch per event".into(),
        ),
        metric(
            "world.event_ns_p50",
            l.world_hist.quantile(0.5) as f64,
            "ns",
            hist_n,
            "per-event non-app time".into(),
        ),
        metric(
            "world.event_ns_p99",
            l.world_hist.quantile(0.99) as f64,
            "ns",
            hist_n,
            "per-event non-app time".into(),
        ),
        metric(
            "world.share",
            ratio(l.world_ns, l.loop_ns),
            "ratio",
            events,
            "non-app dispatch over run-loop wall time".into(),
        ),
        metric(
            "world.build_us",
            ratio(l.build_ns, l.worlds) / 1e3,
            "us",
            l.worlds,
            "world construction per run".into(),
        ),
        metric(
            "obs.metrics_us",
            ratio(l.metrics_ns, l.worlds) / 1e3,
            "us",
            l.worlds,
            "World::metrics per run".into(),
        ),
        metric(
            "obs.timeline_share",
            timeline_share,
            "ratio",
            unsampled.len() as u64,
            na(
                chaos,
                "(sampled - unsampled) / sampled, median over rounds",
                "Figure 5 runs do not sample",
            ),
        ),
        metric(
            "oracle.us_per_seed",
            ratio(l.oracle_ns, l.oracle_runs) / 1e3,
            "us",
            l.oracle_runs,
            na(
                chaos,
                "integrity + conservation + endstate",
                "Figure 5 runs are checked against the table",
            ),
        ),
        metric(
            "cab.raw_ns_per_pkt",
            ratio(l.raw_ns, l.raw_pkts),
            "ns",
            l.raw_pkts,
            na(
                !chaos,
                "raw_hippi_throughput per packet",
                "no raw-HIPPI rows in chaos",
            ),
        ),
        metric(
            "pool.hit_ratio",
            ratio(last.pool_hits, last.pool_acquires),
            "ratio",
            last.pool_acquires,
            "freelist hits over acquisitions".into(),
        ),
        metric(
            "trace.overhead_pct",
            overhead * 100.0,
            "%",
            passes,
            "(traced - untraced) / untraced pass time, median over rounds".into(),
        ),
        metric(
            "trace.accounted_pct",
            ratio(l.event_ns, l.loop_ns) * 100.0,
            "%",
            events,
            "apps + world over run-loop wall time".into(),
        ),
    ];
    m.extend(
        last.named()
            .into_iter()
            .map(|(name, v)| metric(name, v as f64, "count", passes, "per pass, exact".into())),
    );
    (m, passes, counts)
}

/// Print the exact-count section and count a run that does not repeat.
fn exact_counts(counts: &[Counts], tally: &mut Tally) {
    println!("exact counts (per traced pass; must repeat exactly):");
    let (Some(a), Some(b)) = (counts.first(), counts.get(1)) else {
        tally.fail(1, "fewer than two traced passes".into());
        return;
    };
    for ((name, x), (_, y)) in a.named().iter().zip(b.named().iter()) {
        let verdict = if x == y { "exact" } else { "MISMATCH" };
        println!("  {name:<28} {x:>14} {y:>14}  {verdict}");
    }
    if let Some(i) = counts.iter().position(|c| c != a) {
        tally.fail(
            1,
            format!("exact counts of traced pass {} differ from pass 1", i + 1),
        );
    }
}

fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "0".into()
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("usage error: {e}");
            eprintln!("usage: --workload fig5_small|fig5_bulk|chaos_sweep --seed N --seconds S --trace 0|1");
            std::process::exit(2);
        }
    };
    let mut tally = Tally::default();
    let bench = match setup(args.workload, args.seed, &mut tally) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("set-up failed: {e}");
            std::process::exit(2);
        }
    };
    if args.setup_only {
        std::process::exit(i32::from(tally.failed > 0));
    }

    let name = args.workload.name();
    println!(
        "== outboard host benchmark: {name}, seed {}, {} s, trace {} ==",
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let (metrics, passes) = if args.trace {
        let (m, passes, counts) = per_layer(&args, &bench, &mut tally);
        exact_counts(&counts, &mut tally);
        (m, passes)
    } else {
        end_to_end(&args, &bench, &mut tally)
    };
    println!("digest {name} {:016x}", bench.digest());
    for m in &metrics {
        println!(
            "metric {:<28} {:>16} {:<6} n={:<10} {}",
            m.name,
            json_num(m.value),
            m.unit,
            m.samples,
            m.note
        );
    }
    for msg in &tally.messages {
        eprintln!("FAILED: {msg}");
    }

    let parallelism = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut ctx = format!(
        "{{\"context\": {{\"workload\": \"{name}\", \"seed\": {}, \"run_seconds\": {}, \"trace\": {}, \
         \"available_parallelism\": {parallelism}, \"jobs\": 1, \"git_rev\": \"{}\", \"passes\": {passes}, \
         \"points_per_pass\": {}, \"digest\": \"{:016x}\", \"samples\": {{",
        args.seed,
        args.seconds,
        u8::from(args.trace),
        git_rev(),
        bench.points.len(),
        bench.digest(),
    );
    for (i, m) in metrics.iter().enumerate() {
        let _ = write!(
            ctx,
            "{}\"{}\": {}",
            if i > 0 { ", " } else { "" },
            m.name,
            m.samples
        );
    }
    ctx.push_str("}}}");
    println!("{ctx}");

    let correct = tally.failed == 0;
    let mut line = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        tally.attempted, tally.failed
    );
    let reported = metrics.iter().filter(|m| m.name != "failed_ratio");
    for (i, m) in reported.enumerate() {
        let _ = write!(
            line,
            "{}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            if i > 0 { ", " } else { "" },
            m.name,
            json_num(m.value),
            m.unit
        );
    }
    line.push_str("}}");
    println!("{line}");
    std::process::exit(i32::from(!correct));
}
