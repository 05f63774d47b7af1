//! Deterministic chaos schedules: scripted fault timelines for the testbed.
//!
//! A [`ChaosSchedule`] is a time-ordered list of typed fault events — link
//! outages, full partitions, delay spikes, CAB engine wedges, board crashes,
//! netmem squeezes, host pauses — generated from a seed or loaded from a JSON
//! repro file. The schedule itself knows nothing about the testbed; the
//! testbed injects the events via its own sim-time event queue so that a run
//! with a given seed is byte-identical every time.
//!
//! When an oracle violation is found, [`shrink`] delta-debugs the schedule
//! (dropping events, then narrowing the durations of the survivors) against a
//! caller-supplied deterministic "still fails?" predicate until the schedule
//! is locally minimal. The result serializes back to JSON as a replayable
//! `repro_<seed>.json` artifact.

use crate::rng::Pcg32;
use crate::time::Dur;
use std::fmt;

/// One typed fault action. Durable actions carry the window length and are
/// healed by the injector when the window closes; instantaneous actions
/// (wedge, crash, stealth corrupt, stealth misplace) fire once.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosAction {
    /// Take host `host`'s forward link down for `dur` (frames offered while
    /// down are dropped on the floor, without fault-injector bookkeeping).
    LinkDown {
        /// Host whose outbound link goes down.
        host: usize,
        /// Outage window length.
        dur: Dur,
    },
    /// Take every link in the world down for `dur` — a full partition.
    Partition {
        /// Partition window length.
        dur: Dur,
    },
    /// Add `extra` propagation latency to host `host`'s outbound link for
    /// `dur` (a delay/jitter spike; frames still arrive, just late).
    DelaySpike {
        /// Host whose outbound link is delayed.
        host: usize,
        /// Additional one-way latency while the spike is active.
        extra: Dur,
        /// Spike window length.
        dur: Dur,
    },
    /// Wedge the next DMA transfer on host `host`'s CAB: the engine hangs
    /// mid-transfer until the watchdog resets the board.
    CabWedge {
        /// Host whose CAB engine wedges.
        host: usize,
        /// Wedge the MDMA engine instead of the SDMA engine.
        mdma: bool,
    },
    /// Crash host `host`'s CAB outright: rescue what PIO can reach, reset the
    /// board, degrade, and rebuild transmit — without waiting for a watchdog.
    BoardCrash {
        /// Host whose CAB crashes.
        host: usize,
    },
    /// Reserve `permille`/1000 of host `host`'s CAB netmem pages for `dur`,
    /// starving outboard allocation and forcing degraded-mode entries.
    NetmemSqueeze {
        /// Host whose CAB netmem is squeezed.
        host: usize,
        /// Fraction of netmem pages reserved, in parts per thousand.
        permille: u32,
        /// Squeeze window length.
        dur: Dur,
    },
    /// Pause host `host` for `dur`: its CPU-side events (app steps, kernel
    /// wakeups, timers, interrupts) are deferred until the pause ends, while
    /// the fabric keeps delivering frames.
    HostPause {
        /// Host that pauses.
        host: usize,
        /// Pause window length.
        dur: Dur,
    },
    /// Test-only planted bug: corrupt the next frame on host `host`'s
    /// outbound link in a way that *preserves* the Internet checksum, so the
    /// corruption leaks past the checksum layer and only the end-to-end
    /// oracle can catch it. Never emitted by [`ChaosSchedule::generate`].
    StealthCorrupt {
        /// Host whose next outbound frame is stealth-corrupted.
        host: usize,
    },
    /// Test-only planted bug: on the next frame on host `host`'s outbound
    /// link with at least two 8 KB pages of payload, swap two pages. The
    /// swap preserves the Internet checksum, so only an oracle whose
    /// payload differs page to page can see it. Never emitted by
    /// [`ChaosSchedule::generate`].
    StealthMisplace {
        /// Host whose next long-enough outbound frame has two pages swapped.
        host: usize,
    },
}

impl ChaosAction {
    /// The window length for durable actions, `None` for one-shot actions.
    pub fn duration(&self) -> Option<Dur> {
        match *self {
            ChaosAction::LinkDown { dur, .. }
            | ChaosAction::Partition { dur }
            | ChaosAction::DelaySpike { dur, .. }
            | ChaosAction::NetmemSqueeze { dur, .. }
            | ChaosAction::HostPause { dur, .. } => Some(dur),
            ChaosAction::CabWedge { .. }
            | ChaosAction::BoardCrash { .. }
            | ChaosAction::StealthCorrupt { .. }
            | ChaosAction::StealthMisplace { .. } => None,
        }
    }

    /// Replace the window length of a durable action (used by the shrinker to
    /// narrow windows). One-shot actions are returned unchanged.
    pub fn with_duration(self, new: Dur) -> ChaosAction {
        match self {
            ChaosAction::LinkDown { host, .. } => ChaosAction::LinkDown { host, dur: new },
            ChaosAction::Partition { .. } => ChaosAction::Partition { dur: new },
            ChaosAction::DelaySpike { host, extra, .. } => ChaosAction::DelaySpike {
                host,
                extra,
                dur: new,
            },
            ChaosAction::NetmemSqueeze { host, permille, .. } => ChaosAction::NetmemSqueeze {
                host,
                permille,
                dur: new,
            },
            ChaosAction::HostPause { host, .. } => ChaosAction::HostPause { host, dur: new },
            other => other,
        }
    }

    /// Stable identifier used in JSON repro files and metrics.
    pub fn kind(&self) -> &'static str {
        match self {
            ChaosAction::LinkDown { .. } => "link_down",
            ChaosAction::Partition { .. } => "partition",
            ChaosAction::DelaySpike { .. } => "delay_spike",
            ChaosAction::CabWedge { .. } => "cab_wedge",
            ChaosAction::BoardCrash { .. } => "board_crash",
            ChaosAction::NetmemSqueeze { .. } => "netmem_squeeze",
            ChaosAction::HostPause { .. } => "host_pause",
            ChaosAction::StealthCorrupt { .. } => "stealth_corrupt",
            ChaosAction::StealthMisplace { .. } => "stealth_misplace",
        }
    }
}

impl fmt::Display for ChaosAction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            ChaosAction::LinkDown { host, dur } => {
                write!(f, "link_down(host{host}, {}us)", dur.as_nanos() / 1_000)
            }
            ChaosAction::Partition { dur } => {
                write!(f, "partition({}us)", dur.as_nanos() / 1_000)
            }
            ChaosAction::DelaySpike { host, extra, dur } => write!(
                f,
                "delay_spike(host{host}, +{}us for {}us)",
                extra.as_nanos() / 1_000,
                dur.as_nanos() / 1_000
            ),
            ChaosAction::CabWedge { host, mdma } => {
                write!(
                    f,
                    "cab_wedge(host{host}, {})",
                    if mdma { "mdma" } else { "sdma" }
                )
            }
            ChaosAction::BoardCrash { host } => write!(f, "board_crash(host{host})"),
            ChaosAction::NetmemSqueeze {
                host,
                permille,
                dur,
            } => write!(
                f,
                "netmem_squeeze(host{host}, {permille}/1000 for {}us)",
                dur.as_nanos() / 1_000
            ),
            ChaosAction::HostPause { host, dur } => {
                write!(f, "host_pause(host{host}, {}us)", dur.as_nanos() / 1_000)
            }
            ChaosAction::StealthCorrupt { host } => write!(f, "stealth_corrupt(host{host})"),
            ChaosAction::StealthMisplace { host } => write!(f, "stealth_misplace(host{host})"),
        }
    }
}

/// One scheduled fault: fire `action` at sim-time offset `at` from the start
/// of the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChaosEvent {
    /// Offset from the start of the run at which the action fires.
    pub at: Dur,
    /// The fault to inject.
    pub action: ChaosAction,
}

/// A deterministic, replayable fault timeline.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ChaosSchedule {
    /// Seed this schedule was generated from (0 for hand-written schedules).
    pub seed: u64,
    /// Events sorted by `at` (ties keep generation/insertion order).
    pub events: Vec<ChaosEvent>,
}

impl ChaosSchedule {
    /// Generate a random schedule of `n_events` faults across `hosts` hosts
    /// from `seed`. The palette deliberately excludes
    /// [`ChaosAction::StealthCorrupt`] and [`ChaosAction::StealthMisplace`]
    /// (the planted-bug actions): every generated schedule describes faults the
    /// stack is *supposed* to survive, so a clean implementation passes the
    /// oracle on every seed.
    ///
    /// Event times land in `[5ms, 400ms)`; durable windows are capped well
    /// below the TCP retransmit backoff ceiling so the liveness watchdog has
    /// an honest budget.
    pub fn generate(seed: u64, n_events: usize, hosts: usize) -> ChaosSchedule {
        assert!(hosts > 0, "chaos schedule needs at least one host");
        let mut rng = Pcg32::new(seed ^ 0xc4a0_5c4a_05c4_a05c);
        let mut events = Vec::with_capacity(n_events);
        for _ in 0..n_events {
            let at = Dur::micros(5_000 + rng.below(395_000) as u64);
            let host = rng.below(hosts as u32) as usize;
            let action = match rng.below(7) {
                0 => ChaosAction::LinkDown {
                    host,
                    dur: Dur::micros(20_000 + rng.below(180_000) as u64),
                },
                1 => ChaosAction::Partition {
                    dur: Dur::micros(20_000 + rng.below(130_000) as u64),
                },
                2 => ChaosAction::DelaySpike {
                    host,
                    extra: Dur::micros(100 + rng.below(900) as u64),
                    dur: Dur::micros(5_000 + rng.below(45_000) as u64),
                },
                3 => ChaosAction::CabWedge {
                    host,
                    mdma: rng.chance(0.5),
                },
                4 => ChaosAction::BoardCrash { host },
                5 => ChaosAction::NetmemSqueeze {
                    host,
                    permille: 1000,
                    dur: Dur::micros(20_000 + rng.below(280_000) as u64),
                },
                _ => ChaosAction::HostPause {
                    host,
                    dur: Dur::micros(5_000 + rng.below(45_000) as u64),
                },
            };
            events.push(ChaosEvent { at, action });
        }
        events.sort_by_key(|e| e.at);
        ChaosSchedule { seed, events }
    }

    /// The instant (as an offset) by which every durable window has closed;
    /// after this the world should be fault-free and healing.
    pub fn quiesce_at(&self) -> Dur {
        let mut q = Dur::ZERO;
        for e in &self.events {
            let end = match e.action.duration() {
                Some(d) => e.at + d,
                None => e.at,
            };
            q = q.max(end);
        }
        q
    }

    /// Serialize to the `repro_<seed>.json` format. Times are integral
    /// nanoseconds so the round-trip is exact (determinism requirement).
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(64 + self.events.len() * 96);
        s.push_str("{\n  \"format\": \"outboard-chaos-v1\",\n");
        s.push_str(&format!("  \"seed\": {},\n  \"events\": [\n", self.seed));
        for (i, e) in self.events.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"at_ns\": {}, \"kind\": \"{}\"",
                e.at.as_nanos(),
                e.action.kind()
            ));
            match e.action {
                ChaosAction::LinkDown { host, dur } => {
                    s.push_str(&format!(
                        ", \"host\": {host}, \"dur_ns\": {}",
                        dur.as_nanos()
                    ));
                }
                ChaosAction::Partition { dur } => {
                    s.push_str(&format!(", \"dur_ns\": {}", dur.as_nanos()));
                }
                ChaosAction::DelaySpike { host, extra, dur } => {
                    s.push_str(&format!(
                        ", \"host\": {host}, \"extra_ns\": {}, \"dur_ns\": {}",
                        extra.as_nanos(),
                        dur.as_nanos()
                    ));
                }
                ChaosAction::CabWedge { host, mdma } => {
                    s.push_str(&format!(", \"host\": {host}, \"mdma\": {mdma}"));
                }
                ChaosAction::BoardCrash { host }
                | ChaosAction::StealthCorrupt { host }
                | ChaosAction::StealthMisplace { host } => {
                    s.push_str(&format!(", \"host\": {host}"));
                }
                ChaosAction::NetmemSqueeze {
                    host,
                    permille,
                    dur,
                } => {
                    s.push_str(&format!(
                        ", \"host\": {host}, \"permille\": {permille}, \"dur_ns\": {}",
                        dur.as_nanos()
                    ));
                }
                ChaosAction::HostPause { host, dur } => {
                    s.push_str(&format!(
                        ", \"host\": {host}, \"dur_ns\": {}",
                        dur.as_nanos()
                    ));
                }
            }
            s.push('}');
            if i + 1 < self.events.len() {
                s.push(',');
            }
            s.push('\n');
        }
        s.push_str("  ]\n}\n");
        s
    }

    /// Parse a schedule previously written by [`ChaosSchedule::to_json`].
    pub fn from_json(text: &str) -> Result<ChaosSchedule, ChaosParseError> {
        let v = json::parse(text)?;
        let obj = v
            .as_object()
            .ok_or_else(|| err("top level is not an object"))?;
        if let Some(fmt_v) = json::get(obj, "format") {
            let f = fmt_v
                .as_str()
                .ok_or_else(|| err("\"format\" is not a string"))?;
            if f != "outboard-chaos-v1" {
                return Err(err(&format!("unsupported format \"{f}\"")));
            }
        }
        let seed = match json::get(obj, "seed") {
            Some(v) => v
                .as_u64()
                .ok_or_else(|| err("\"seed\" is not an integer"))?,
            None => 0,
        };
        let events_v = json::get(obj, "events").ok_or_else(|| err("missing \"events\""))?;
        let arr = events_v
            .as_array()
            .ok_or_else(|| err("\"events\" is not an array"))?;
        let mut events = Vec::with_capacity(arr.len());
        for (i, ev) in arr.iter().enumerate() {
            events.push(parse_event(ev).map_err(|e| err(&format!("event {i}: {e}")))?);
        }
        Ok(ChaosSchedule { seed, events })
    }

    /// Human-readable one-line-per-event rendering for reports.
    pub fn render(&self) -> String {
        let mut s = format!(
            "chaos schedule (seed {}, {} events)\n",
            self.seed,
            self.events.len()
        );
        for e in &self.events {
            s.push_str(&format!(
                "  t+{:>9}us  {}\n",
                e.at.as_nanos() / 1_000,
                e.action
            ));
        }
        s
    }
}

/// Error from [`ChaosSchedule::from_json`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChaosParseError(String);

impl fmt::Display for ChaosParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "chaos repro parse error: {}", self.0)
    }
}

impl std::error::Error for ChaosParseError {}

fn err(msg: &str) -> ChaosParseError {
    ChaosParseError(msg.to_string())
}

fn parse_event(v: &json::Value) -> Result<ChaosEvent, ChaosParseError> {
    let obj = v.as_object().ok_or_else(|| err("not an object"))?;
    let at = Dur::nanos(req_u64(obj, "at_ns")?);
    let kind = json::get(obj, "kind")
        .and_then(|v| v.as_str())
        .ok_or_else(|| err("missing \"kind\""))?;
    let action = match kind {
        "link_down" => ChaosAction::LinkDown {
            host: req_u64(obj, "host")? as usize,
            dur: Dur::nanos(req_u64(obj, "dur_ns")?),
        },
        "partition" => ChaosAction::Partition {
            dur: Dur::nanos(req_u64(obj, "dur_ns")?),
        },
        "delay_spike" => ChaosAction::DelaySpike {
            host: req_u64(obj, "host")? as usize,
            extra: Dur::nanos(req_u64(obj, "extra_ns")?),
            dur: Dur::nanos(req_u64(obj, "dur_ns")?),
        },
        "cab_wedge" => ChaosAction::CabWedge {
            host: req_u64(obj, "host")? as usize,
            mdma: json::get(obj, "mdma")
                .and_then(|v| v.as_bool())
                .unwrap_or(false),
        },
        "board_crash" => ChaosAction::BoardCrash {
            host: req_u64(obj, "host")? as usize,
        },
        "netmem_squeeze" => ChaosAction::NetmemSqueeze {
            host: req_u64(obj, "host")? as usize,
            permille: req_u64(obj, "permille")? as u32,
            dur: Dur::nanos(req_u64(obj, "dur_ns")?),
        },
        "host_pause" => ChaosAction::HostPause {
            host: req_u64(obj, "host")? as usize,
            dur: Dur::nanos(req_u64(obj, "dur_ns")?),
        },
        "stealth_corrupt" => ChaosAction::StealthCorrupt {
            host: req_u64(obj, "host")? as usize,
        },
        "stealth_misplace" => ChaosAction::StealthMisplace {
            host: req_u64(obj, "host")? as usize,
        },
        other => return Err(err(&format!("unknown kind \"{other}\""))),
    };
    Ok(ChaosEvent { at, action })
}

fn req_u64(obj: &[(String, json::Value)], key: &str) -> Result<u64, ChaosParseError> {
    json::get(obj, key)
        .and_then(|v| v.as_u64())
        .ok_or_else(|| err(&format!("missing or non-integer \"{key}\"")))
}

/// Outcome of a [`shrink`] run.
#[derive(Debug, Clone)]
pub struct ShrinkResult {
    /// The locally-minimal failing schedule.
    pub schedule: ChaosSchedule,
    /// Number of candidate schedules the predicate was run against.
    pub runs: usize,
}

/// Delta-debug `failing` against `still_fails` until locally minimal.
///
/// `still_fails` must be a *deterministic* predicate (re-running the same
/// candidate schedule must give the same answer — in the testbed this holds
/// because the whole world is seeded). Shrinking proceeds in two phases:
///
/// 1. **Event removal** — ddmin-style chunk removal (halving chunk sizes)
///    followed by single-event removal until no single event can be dropped.
/// 2. **Window narrowing** — for each surviving durable event, repeatedly
///    halve its duration while the schedule still fails.
///
/// The input schedule must itself fail the predicate.
pub fn shrink(
    failing: &ChaosSchedule,
    mut still_fails: impl FnMut(&ChaosSchedule) -> bool,
) -> ShrinkResult {
    let mut runs = 0usize;
    let mut cur = failing.clone();
    debug_assert!(!cur.events.is_empty(), "cannot shrink an empty schedule");

    // Phase 1a: chunk removal, halving granularity (classic ddmin shape).
    let mut chunk = cur.events.len().div_ceil(2);
    while chunk >= 1 {
        let mut i = 0;
        while i < cur.events.len() && cur.events.len() > 1 {
            let hi = (i + chunk).min(cur.events.len());
            let mut candidate = cur.clone();
            candidate.events.drain(i..hi);
            if candidate.events.is_empty() {
                i = hi;
                continue;
            }
            runs += 1;
            if still_fails(&candidate) {
                cur = candidate; // keep the smaller schedule; retry same index
            } else {
                i = hi;
            }
        }
        if chunk == 1 {
            break;
        }
        chunk = chunk.div_ceil(2);
    }

    // Phase 1b: single-event removal to 1-minimality (a pass may unlock
    // earlier removals, so loop until a full pass removes nothing).
    loop {
        let mut removed = false;
        let mut i = 0;
        while i < cur.events.len() && cur.events.len() > 1 {
            let mut candidate = cur.clone();
            candidate.events.remove(i);
            runs += 1;
            if still_fails(&candidate) {
                cur = candidate;
                removed = true;
            } else {
                i += 1;
            }
        }
        if !removed {
            break;
        }
    }

    // Phase 2: narrow durable windows by halving. Stop narrowing an event
    // when halving makes the failure disappear or the window drops below 1ms.
    for i in 0..cur.events.len() {
        while let Some(d) = cur.events[i].action.duration() {
            let half = Dur::nanos(d.as_nanos() / 2);
            if half < Dur::millis(1) {
                break;
            }
            let mut candidate = cur.clone();
            candidate.events[i].action = candidate.events[i].action.with_duration(half);
            runs += 1;
            if still_fails(&candidate) {
                cur = candidate;
            } else {
                break;
            }
        }
    }

    ShrinkResult {
        schedule: cur,
        runs,
    }
}

/// Minimal recursive-descent JSON reader for repro files and other
/// hand-rolled artifacts (stats, timeline, flight dumps). The workspace is
/// offline (no serde), and the formats are small enough that a ~150-line
/// reader keeps the artifacts human-editable without a dependency.
pub mod json {
    /// A parsed JSON value. Numbers are kept as `f64` plus an exact `u64`
    /// when the literal was integral.
    #[derive(Debug, Clone, PartialEq)]
    pub enum Value {
        /// `null`
        Null,
        /// `true` / `false`
        Bool(bool),
        /// A number; `(f64, Some(u64))` when the literal was a non-negative
        /// integer that fits in `u64`.
        Num(f64, Option<u64>),
        /// A string (escapes resolved).
        Str(String),
        /// An array.
        Arr(Vec<Value>),
        /// An object as an insertion-ordered key/value list.
        Obj(Vec<(String, Value)>),
    }

    impl Value {
        /// The object key/value list, if this is an object.
        pub fn as_object(&self) -> Option<&[(String, Value)]> {
            match self {
                Value::Obj(kv) => Some(kv),
                _ => None,
            }
        }
        /// The element slice, if this is an array.
        pub fn as_array(&self) -> Option<&[Value]> {
            match self {
                Value::Arr(v) => Some(v),
                _ => None,
            }
        }
        /// The string contents, if this is a string.
        pub fn as_str(&self) -> Option<&str> {
            match self {
                Value::Str(s) => Some(s),
                _ => None,
            }
        }
        /// The exact integer, if this is a non-negative integral number.
        pub fn as_u64(&self) -> Option<u64> {
            match self {
                Value::Num(_, exact) => *exact,
                _ => None,
            }
        }
        /// The boolean, if this is a boolean.
        pub fn as_bool(&self) -> Option<bool> {
            match self {
                Value::Bool(b) => Some(*b),
                _ => None,
            }
        }
        /// The number as `f64`, if this is a number.
        pub fn as_f64(&self) -> Option<f64> {
            match self {
                Value::Num(f, _) => Some(*f),
                _ => None,
            }
        }
    }

    /// First value for `key` in an object k/v list.
    pub fn get<'a>(obj: &'a [(String, Value)], key: &str) -> Option<&'a Value> {
        obj.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Parse a complete JSON document (trailing data is an error).
    pub fn parse(text: &str) -> Result<Value, super::ChaosParseError> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let v = value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(super::err(&format!("trailing data at byte {pos}")));
        }
        Ok(v)
    }

    fn skip_ws(b: &[u8], pos: &mut usize) {
        while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
            *pos += 1;
        }
    }

    fn expect(b: &[u8], pos: &mut usize, ch: u8) -> Result<(), super::ChaosParseError> {
        skip_ws(b, pos);
        if *pos < b.len() && b[*pos] == ch {
            *pos += 1;
            Ok(())
        } else {
            Err(super::err(&format!(
                "expected '{}' at byte {}",
                ch as char, *pos
            )))
        }
    }

    fn value(b: &[u8], pos: &mut usize) -> Result<Value, super::ChaosParseError> {
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b'{') => object(b, pos),
            Some(b'[') => array(b, pos),
            Some(b'"') => Ok(Value::Str(string(b, pos)?)),
            Some(b't') => lit(b, pos, "true", Value::Bool(true)),
            Some(b'f') => lit(b, pos, "false", Value::Bool(false)),
            Some(b'n') => lit(b, pos, "null", Value::Null),
            Some(c) if c.is_ascii_digit() || *c == b'-' => number(b, pos),
            _ => Err(super::err(&format!("unexpected input at byte {}", *pos))),
        }
    }

    fn lit(
        b: &[u8],
        pos: &mut usize,
        word: &str,
        val: Value,
    ) -> Result<Value, super::ChaosParseError> {
        if b[*pos..].starts_with(word.as_bytes()) {
            *pos += word.len();
            Ok(val)
        } else {
            Err(super::err(&format!("bad literal at byte {}", *pos)))
        }
    }

    fn object(b: &[u8], pos: &mut usize) -> Result<Value, super::ChaosParseError> {
        expect(b, pos, b'{')?;
        let mut kv = Vec::new();
        skip_ws(b, pos);
        if b.get(*pos) == Some(&b'}') {
            *pos += 1;
            return Ok(Value::Obj(kv));
        }
        loop {
            skip_ws(b, pos);
            let k = string(b, pos)?;
            expect(b, pos, b':')?;
            let v = value(b, pos)?;
            kv.push((k, v));
            skip_ws(b, pos);
            match b.get(*pos) {
                Some(b',') => *pos += 1,
                Some(b'}') => {
                    *pos += 1;
                    return Ok(Value::Obj(kv));
                }
                _ => {
                    return Err(super::err(&format!(
                        "expected ',' or '}}' at byte {}",
                        *pos
                    )))
                }
            }
        }
    }

    fn array(b: &[u8], pos: &mut usize) -> Result<Value, super::ChaosParseError> {
        expect(b, pos, b'[')?;
        let mut out = Vec::new();
        skip_ws(b, pos);
        if b.get(*pos) == Some(&b']') {
            *pos += 1;
            return Ok(Value::Arr(out));
        }
        loop {
            out.push(value(b, pos)?);
            skip_ws(b, pos);
            match b.get(*pos) {
                Some(b',') => *pos += 1,
                Some(b']') => {
                    *pos += 1;
                    return Ok(Value::Arr(out));
                }
                _ => return Err(super::err(&format!("expected ',' or ']' at byte {}", *pos))),
            }
        }
    }

    fn string(b: &[u8], pos: &mut usize) -> Result<String, super::ChaosParseError> {
        expect(b, pos, b'"')?;
        let mut out = String::new();
        while *pos < b.len() {
            match b[*pos] {
                b'"' => {
                    *pos += 1;
                    return Ok(out);
                }
                b'\\' => {
                    *pos += 1;
                    match b.get(*pos) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        _ => return Err(super::err("unsupported string escape")),
                    }
                    *pos += 1;
                }
                c if c < 0x20 => return Err(super::err("control char in string")),
                _ => {
                    // Copy one UTF-8 scalar (input is a valid &str).
                    let start = *pos;
                    let mut end = start + 1;
                    while end < b.len() && (b[end] & 0xc0) == 0x80 {
                        end += 1;
                    }
                    out.push_str(
                        std::str::from_utf8(&b[start..end])
                            .map_err(|_| super::err("invalid utf-8 in string"))?,
                    );
                    *pos = end;
                }
            }
        }
        Err(super::err("unterminated string"))
    }

    fn number(b: &[u8], pos: &mut usize) -> Result<Value, super::ChaosParseError> {
        let start = *pos;
        if b.get(*pos) == Some(&b'-') {
            *pos += 1;
        }
        while *pos < b.len()
            && (b[*pos].is_ascii_digit() || matches!(b[*pos], b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            *pos += 1;
        }
        let text = std::str::from_utf8(&b[start..*pos]).unwrap_or("");
        let f: f64 = text
            .parse()
            .map_err(|_| super::err(&format!("bad number \"{text}\"")))?;
        let exact = text.parse::<u64>().ok();
        Ok(Value::Num(f, exact))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ChaosSchedule {
        ChaosSchedule {
            seed: 42,
            events: vec![
                ChaosEvent {
                    at: Dur::millis(10),
                    action: ChaosAction::LinkDown {
                        host: 0,
                        dur: Dur::millis(50),
                    },
                },
                ChaosEvent {
                    at: Dur::millis(20),
                    action: ChaosAction::DelaySpike {
                        host: 1,
                        extra: Dur::micros(250),
                        dur: Dur::millis(5),
                    },
                },
                ChaosEvent {
                    at: Dur::millis(30),
                    action: ChaosAction::CabWedge {
                        host: 0,
                        mdma: true,
                    },
                },
                ChaosEvent {
                    at: Dur::millis(40),
                    action: ChaosAction::BoardCrash { host: 1 },
                },
                ChaosEvent {
                    at: Dur::millis(50),
                    action: ChaosAction::NetmemSqueeze {
                        host: 0,
                        permille: 1000,
                        dur: Dur::millis(80),
                    },
                },
                ChaosEvent {
                    at: Dur::millis(60),
                    action: ChaosAction::HostPause {
                        host: 1,
                        dur: Dur::millis(8),
                    },
                },
                ChaosEvent {
                    at: Dur::millis(70),
                    action: ChaosAction::Partition {
                        dur: Dur::millis(30),
                    },
                },
                ChaosEvent {
                    at: Dur::millis(80),
                    action: ChaosAction::StealthCorrupt { host: 0 },
                },
            ],
        }
    }

    #[test]
    fn json_round_trip_is_exact() {
        let s = sample();
        let text = s.to_json();
        let back = ChaosSchedule::from_json(&text).expect("parse");
        assert_eq!(s, back);
        // Round-tripping the serialized form is also byte-stable.
        assert_eq!(back.to_json(), text);
    }

    #[test]
    fn generate_is_deterministic_and_sorted() {
        let a = ChaosSchedule::generate(7, 12, 2);
        let b = ChaosSchedule::generate(7, 12, 2);
        assert_eq!(a, b);
        assert!(a.events.windows(2).all(|w| w[0].at <= w[1].at));
        let c = ChaosSchedule::generate(8, 12, 2);
        assert_ne!(a, c, "different seeds should give different schedules");
    }

    #[test]
    fn stealth_misplace_round_trips_through_json() {
        let s = ChaosSchedule {
            seed: 3,
            events: vec![ChaosEvent {
                at: Dur::micros(12_345),
                action: ChaosAction::StealthMisplace { host: 1 },
            }],
        };
        let text = s.to_json();
        assert!(text.contains("\"kind\": \"stealth_misplace\", \"host\": 1"));
        let back = ChaosSchedule::from_json(&text).expect("parse");
        assert_eq!(back, s);
        assert_eq!(back.to_json(), text);
        assert_eq!(back.events[0].action.to_string(), "stealth_misplace(host1)");
    }

    #[test]
    fn generate_never_emits_stealth_corrupt() {
        for seed in 0..64 {
            let s = ChaosSchedule::generate(seed, 20, 2);
            assert!(
                s.events.iter().all(|e| !matches!(
                    e.action,
                    ChaosAction::StealthCorrupt { .. } | ChaosAction::StealthMisplace { .. }
                )),
                "seed {seed} emitted a planted-bug action"
            );
        }
    }

    #[test]
    fn quiesce_covers_durable_windows() {
        let s = sample();
        // Squeeze at 50ms for 80ms ends at 130ms — the latest window end.
        assert_eq!(s.quiesce_at(), Dur::millis(130));
    }

    #[test]
    fn shrink_minimizes_to_culprit_events() {
        // Synthetic predicate: fails iff the schedule still contains both the
        // board crash AND the partition (a two-event interaction bug).
        let full = sample();
        let fails = |s: &ChaosSchedule| {
            s.events
                .iter()
                .any(|e| matches!(e.action, ChaosAction::BoardCrash { .. }))
                && s.events
                    .iter()
                    .any(|e| matches!(e.action, ChaosAction::Partition { .. }))
        };
        assert!(fails(&full));
        let out = shrink(&full, fails);
        assert_eq!(out.schedule.events.len(), 2);
        assert!(fails(&out.schedule));
        // Window narrowing halves the partition down to the 1ms floor.
        let part = out
            .schedule
            .events
            .iter()
            .find_map(|e| match e.action {
                ChaosAction::Partition { dur } => Some(dur),
                _ => None,
            })
            .expect("partition survives");
        assert!(
            part < Dur::millis(2),
            "window should have been narrowed, got {part:?}"
        );
    }

    #[test]
    fn shrink_keeps_single_event_failures() {
        let full = sample();
        let fails = |s: &ChaosSchedule| {
            s.events
                .iter()
                .any(|e| matches!(e.action, ChaosAction::StealthCorrupt { .. }))
        };
        let out = shrink(&full, fails);
        assert_eq!(out.schedule.events.len(), 1);
        assert!(matches!(
            out.schedule.events[0].action,
            ChaosAction::StealthCorrupt { .. }
        ));
    }

    #[test]
    fn from_json_rejects_garbage() {
        assert!(ChaosSchedule::from_json("not json").is_err());
        assert!(ChaosSchedule::from_json("{}").is_err()); // missing events
        assert!(ChaosSchedule::from_json(
            "{\"events\": [{\"at_ns\": 5, \"kind\": \"warp_core_breach\"}]}"
        )
        .is_err());
    }
}
