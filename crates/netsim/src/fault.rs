//! Fault injection.
//!
//! Modeled on the knobs the smoltcp examples expose (`--drop-chance`,
//! `--corrupt-chance`, ...): every frame presented to a faulty link draws a
//! fate from a seeded RNG. Tests can also force deterministic faults
//! (`force_drop_next`) to hit exact protocol states — e.g. "drop precisely
//! the third data segment and watch TCP retransmit it from outboard memory
//! without re-DMAing the body".

use bytes::Bytes;
use outboard_sim::{Dur, Pcg32};
use std::collections::VecDeque;

pub use outboard_sim::rng::{check_probability, FaultConfigError};

/// What happened to each frame, cumulatively.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Frames presented to the injector.
    pub offered: u64,
    /// Frames silently dropped.
    pub dropped: u64,
    /// Frames with a bit flipped.
    pub corrupted: u64,
    /// Frames delayed behind later traffic.
    pub reordered: u64,
    /// Frames delivered twice.
    pub duplicated: u64,
    /// Frames corrupted in a checksum-preserving way (test-only planted bug).
    pub stealth_corrupted: u64,
    /// Frames with two payload ranges swapped in a checksum-preserving way
    /// (test-only planted bug).
    pub stealth_misplaced: u64,
}

/// Leading frame bytes the stealth faults leave alone, so they land in
/// application payload rather than in link/IP/TCP header fields.
const HEADER_SKIP: usize = 128;

/// Length of each range a stealth misplace swaps, and the distance between
/// them: one 8 KB page.
const MISPLACE_SPAN: usize = 8192;

/// The fate drawn for one frame.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Fate {
    /// Deliver the (possibly corrupted) payload after an extra delay, and
    /// optionally deliver it twice.
    Deliver {
        /// The (possibly corrupted) frame contents.
        payload: Bytes,
        /// Additional delay beyond the link's latency.
        extra_delay: Dur,
        /// Deliver a second copy shortly after the first.
        duplicate: bool,
    },
    /// Silently dropped.
    Drop,
}

/// A fate forced by a test, queued ahead of the probabilistic draws.
/// Resolved against the real payload when the frame arrives at `fate`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum ForcedFault {
    Drop,
    Corrupt,
    Reorder,
    Duplicate,
    StealthCorrupt,
}

/// Configurable fault injector with a deterministic stream.
#[derive(Debug)]
pub struct FaultInjector {
    /// Probability a frame is dropped.
    pub drop_p: f64,
    /// Probability one bit of a frame is flipped.
    pub corrupt_p: f64,
    /// Probability a frame is delayed (arrives late).
    pub reorder_p: f64,
    /// Extra delay applied to "reordered" frames (they arrive late, after
    /// frames sent behind them).
    pub reorder_delay: Dur,
    /// Probability a frame is delivered twice.
    pub dup_p: f64,
    rng: Pcg32,
    forced: VecDeque<ForcedFault>,
    /// Stealth misplaces waiting for a frame long enough to take one.
    misplaces_armed: u32,
    /// Cumulative fate counts.
    pub stats: FaultStats,
}

impl FaultInjector {
    /// A transparent injector (no faults).
    pub fn none(seed: u64) -> FaultInjector {
        FaultInjector {
            drop_p: 0.0,
            corrupt_p: 0.0,
            reorder_p: 0.0,
            reorder_delay: Dur::millis(1),
            dup_p: 0.0,
            rng: Pcg32::new(seed),
            forced: VecDeque::new(),
            misplaces_armed: 0,
            stats: FaultStats::default(),
        }
    }

    /// An injector with the given drop/corrupt probabilities.
    ///
    /// Rejects probabilities outside `[0, 1]` — a misconfigured knob would
    /// otherwise only trip a `debug_assert!` deep in the RNG, silently
    /// misbehaving in release builds.
    pub fn lossy(
        seed: u64,
        drop_p: f64,
        corrupt_p: f64,
    ) -> Result<FaultInjector, FaultConfigError> {
        check_probability("drop_p", drop_p)?;
        check_probability("corrupt_p", corrupt_p)?;
        let mut f = FaultInjector::none(seed);
        f.drop_p = drop_p;
        f.corrupt_p = corrupt_p;
        Ok(f)
    }

    /// Validate every probability knob currently configured on this injector
    /// (the fields are public, so post-construction edits can still smuggle
    /// in a bad value; callers that accept external config should re-check).
    pub fn validate(&self) -> Result<(), FaultConfigError> {
        check_probability("drop_p", self.drop_p)?;
        check_probability("corrupt_p", self.corrupt_p)?;
        check_probability("reorder_p", self.reorder_p)?;
        check_probability("dup_p", self.dup_p)?;
        Ok(())
    }

    /// Force the next frame(s) to be dropped regardless of probabilities.
    pub fn force_drop_next(&mut self, count: usize) {
        for _ in 0..count {
            self.forced.push_back(ForcedFault::Drop);
        }
    }

    /// Force the next frame to be corrupted (one bit flipped).
    pub fn force_corrupt_next(&mut self) {
        self.forced.push_back(ForcedFault::Corrupt);
    }

    /// Force the next frame to arrive late (delayed by `reorder_delay`).
    pub fn force_reorder_next(&mut self) {
        self.forced.push_back(ForcedFault::Reorder);
    }

    /// Force the next frame to be delivered twice.
    pub fn force_duplicate_next(&mut self) {
        self.forced.push_back(ForcedFault::Duplicate);
    }

    /// Force the next frame to be corrupted in a way that *preserves* the
    /// Internet checksum (the chaos engine's planted bug — the corruption
    /// must leak past the checksum layer so only an end-to-end oracle can
    /// catch it).
    pub fn force_stealth_corrupt_next(&mut self) {
        self.forced.push_back(ForcedFault::StealthCorrupt);
    }

    /// Arm a checksum-preserving page swap for the next frame long enough
    /// to take one (see [`FaultInjector::fate`]): the planted bug that
    /// delivers one page's bytes at another page's stream offset.
    pub fn arm_stealth_misplace(&mut self) {
        self.misplaces_armed += 1;
    }

    fn corrupt(&mut self, payload: &Bytes) -> Bytes {
        self.stats.corrupted += 1;
        if payload.is_empty() {
            return payload.clone();
        }
        let bit = self.rng.below((payload.len() * 8) as u32) as usize;
        edited_copy(payload, |buf| buf[bit / 8] ^= 1 << (bit % 8))
    }

    /// Corrupt `payload` without changing its Internet checksum.
    ///
    /// The checksum is a ones'-complement sum of big-endian 16-bit words, so
    /// flipping the same bit index in two bytes that sit at the same parity
    /// (both high-lane or both low-lane, i.e. an even offset apart) — one
    /// byte with the bit set, the other with it clear — shifts one word by
    /// `+d` and the other by `-d`, leaving the sum exactly unchanged. The
    /// search is restricted to the frame tail (past the link/IP/TCP headers)
    /// so the flips land in application payload, not in header fields whose
    /// semantics TCP would notice. If the payload has no such pair (e.g. a
    /// constant fill), it is delivered untouched.
    fn stealth_corrupt(&mut self, payload: &Bytes) -> Bytes {
        if payload.len() < HEADER_SKIP + 4 {
            return payload.clone();
        }
        let start = HEADER_SKIP;
        let region = &payload[start..];
        for bit in 0..8u8 {
            for parity in 0..2usize {
                let mut set_at = None;
                let mut clear_at = None;
                for (i, &b) in region.iter().enumerate().skip(parity).step_by(2) {
                    if b & (1 << bit) != 0 {
                        if set_at.is_none() {
                            set_at = Some(i);
                        }
                    } else if clear_at.is_none() {
                        clear_at = Some(i);
                    }
                    if let (Some(set), Some(clear)) = (set_at, clear_at) {
                        self.stats.stealth_corrupted += 1;
                        return edited_copy(payload, |buf| {
                            buf[start + set] ^= 1 << bit;
                            buf[start + clear] ^= 1 << bit;
                        });
                    }
                }
            }
        }
        payload.clone()
    }

    /// Swap the two [`MISPLACE_SPAN`]-byte ranges that start
    /// [`HEADER_SKIP`] and `HEADER_SKIP + MISPLACE_SPAN` bytes into
    /// `payload`, which must be at least `HEADER_SKIP + 2 * MISPLACE_SPAN`
    /// long.
    ///
    /// Both ranges start at even offsets and have even length, so the swap
    /// only permutes the checksum's 16-bit words and leaves the
    /// ones'-complement sum exactly unchanged. Under a payload whose period
    /// divides the span the two ranges are identical and the swap is a no-op.
    fn stealth_misplace(&mut self, payload: &Bytes) -> Bytes {
        self.stats.stealth_misplaced += 1;
        edited_copy(payload, |buf| {
            let (first, rest) = buf[HEADER_SKIP..].split_at_mut(MISPLACE_SPAN);
            first.swap_with_slice(&mut rest[..MISPLACE_SPAN]);
        })
    }

    /// Draw the fate of one frame.
    ///
    /// Forced faults take the next frames in order. An armed stealth
    /// misplace then takes the next frame at least
    /// `HEADER_SKIP + 2 * MISPLACE_SPAN` bytes long; shorter frames pass it
    /// by and keep it armed.
    pub fn fate(&mut self, payload: Bytes) -> Fate {
        self.stats.offered += 1;
        if self.forced.is_empty()
            && self.misplaces_armed > 0
            && payload.len() >= HEADER_SKIP + 2 * MISPLACE_SPAN
        {
            self.misplaces_armed -= 1;
            return Fate::Deliver {
                payload: self.stealth_misplace(&payload),
                extra_delay: Dur::ZERO,
                duplicate: false,
            };
        }
        if let Some(forced) = self.forced.pop_front() {
            return match forced {
                ForcedFault::Drop => {
                    self.stats.dropped += 1;
                    Fate::Drop
                }
                ForcedFault::Corrupt => Fate::Deliver {
                    payload: self.corrupt(&payload),
                    extra_delay: Dur::ZERO,
                    duplicate: false,
                },
                ForcedFault::Reorder => {
                    self.stats.reordered += 1;
                    Fate::Deliver {
                        payload,
                        extra_delay: self.reorder_delay,
                        duplicate: false,
                    }
                }
                ForcedFault::Duplicate => {
                    self.stats.duplicated += 1;
                    Fate::Deliver {
                        payload,
                        extra_delay: Dur::ZERO,
                        duplicate: true,
                    }
                }
                ForcedFault::StealthCorrupt => Fate::Deliver {
                    payload: self.stealth_corrupt(&payload),
                    extra_delay: Dur::ZERO,
                    duplicate: false,
                },
            };
        }
        if self.drop_p > 0.0 && self.rng.chance(self.drop_p) {
            self.stats.dropped += 1;
            return Fate::Drop;
        }
        let payload = if self.corrupt_p > 0.0 && self.rng.chance(self.corrupt_p) {
            self.corrupt(&payload)
        } else {
            payload
        };
        let extra_delay = if self.reorder_p > 0.0 && self.rng.chance(self.reorder_p) {
            self.stats.reordered += 1;
            self.reorder_delay
        } else {
            Dur::ZERO
        };
        let duplicate = self.dup_p > 0.0 && self.rng.chance(self.dup_p);
        if duplicate {
            self.stats.duplicated += 1;
        }
        Fate::Deliver {
            payload,
            extra_delay,
            duplicate,
        }
    }
}

/// Copy `payload` into a mutable buffer and freeze the edited bytes back
/// into a frame.
fn edited_copy(payload: &Bytes, edit: impl FnOnce(&mut [u8])) -> Bytes {
    // lint: allow(payload-alloc, only the corrupting fates rewrite a frame; delivered and duplicated frames share the sender's storage)
    let mut buf = payload.to_vec();
    edit(&mut buf);
    Bytes::from(buf)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transparent_injector_delivers_verbatim() {
        let mut f = FaultInjector::none(1);
        let data = Bytes::from_static(b"hello");
        match f.fate(data.clone()) {
            Fate::Deliver {
                payload,
                extra_delay,
                duplicate,
            } => {
                assert_eq!(payload, data);
                assert_eq!(extra_delay, Dur::ZERO);
                assert!(!duplicate);
            }
            Fate::Drop => panic!("dropped without faults"),
        }
        assert_eq!(f.stats.offered, 1);
        assert_eq!(f.stats.dropped, 0);
    }

    #[test]
    fn drop_probability_is_roughly_honored() {
        let mut f = FaultInjector::lossy(2, 0.3, 0.0).unwrap();
        for _ in 0..10_000 {
            f.fate(Bytes::from_static(b"x"));
        }
        let rate = f.stats.dropped as f64 / f.stats.offered as f64;
        assert!((0.27..0.33).contains(&rate), "drop rate {rate}");
    }

    #[test]
    fn corruption_flips_exactly_one_bit() {
        let mut f = FaultInjector::lossy(3, 0.0, 1.0).unwrap();
        let data = Bytes::from(vec![0u8; 64]);
        match f.fate(data.clone()) {
            Fate::Deliver { payload, .. } => {
                let flipped: u32 = payload
                    .iter()
                    .zip(data.iter())
                    .map(|(a, b)| (a ^ b).count_ones())
                    .sum();
                assert_eq!(flipped, 1);
            }
            Fate::Drop => panic!(),
        }
    }

    #[test]
    fn forced_faults_win() {
        let mut f = FaultInjector::none(4);
        f.force_drop_next(2);
        f.force_corrupt_next();
        assert_eq!(f.fate(Bytes::from_static(b"a")), Fate::Drop);
        assert_eq!(f.fate(Bytes::from_static(b"b")), Fate::Drop);
        match f.fate(Bytes::from_static(b"cc")) {
            Fate::Deliver { payload, .. } => assert_ne!(payload, Bytes::from_static(b"cc")),
            Fate::Drop => panic!(),
        }
        // Back to transparent.
        match f.fate(Bytes::from_static(b"dd")) {
            Fate::Deliver { payload, .. } => assert_eq!(payload, Bytes::from_static(b"dd")),
            Fate::Drop => panic!(),
        }
    }

    #[test]
    fn forced_reorder_and_duplicate() {
        let mut f = FaultInjector::none(6);
        f.reorder_delay = Dur::micros(250);
        f.force_reorder_next();
        f.force_duplicate_next();
        match f.fate(Bytes::from_static(b"r")) {
            Fate::Deliver {
                payload,
                extra_delay,
                duplicate,
            } => {
                assert_eq!(payload, Bytes::from_static(b"r"), "payload untouched");
                assert_eq!(extra_delay, Dur::micros(250));
                assert!(!duplicate);
            }
            Fate::Drop => panic!(),
        }
        match f.fate(Bytes::from_static(b"d")) {
            Fate::Deliver {
                extra_delay,
                duplicate,
                ..
            } => {
                assert_eq!(extra_delay, Dur::ZERO);
                assert!(duplicate);
            }
            Fate::Drop => panic!(),
        }
        assert_eq!(f.stats.reordered, 1);
        assert_eq!(f.stats.duplicated, 1);
        // Back to transparent.
        match f.fate(Bytes::from_static(b"z")) {
            Fate::Deliver {
                extra_delay,
                duplicate,
                ..
            } => {
                assert_eq!(extra_delay, Dur::ZERO);
                assert!(!duplicate);
            }
            Fate::Drop => panic!(),
        }
    }

    #[test]
    fn reorder_and_duplicate() {
        let mut f = FaultInjector::none(5);
        f.reorder_p = 1.0;
        f.reorder_delay = Dur::micros(500);
        f.dup_p = 1.0;
        match f.fate(Bytes::from_static(b"z")) {
            Fate::Deliver {
                extra_delay,
                duplicate,
                ..
            } => {
                assert_eq!(extra_delay, Dur::micros(500));
                assert!(duplicate);
            }
            Fate::Drop => panic!(),
        }
        assert_eq!(f.stats.reordered, 1);
        assert_eq!(f.stats.duplicated, 1);
    }

    #[test]
    fn out_of_range_probabilities_are_rejected() {
        assert_eq!(
            FaultInjector::lossy(1, 1.5, 0.0).unwrap_err(),
            FaultConfigError {
                knob: "drop_p",
                value: 1.5
            }
        );
        assert_eq!(
            FaultInjector::lossy(1, 0.0, -0.1).unwrap_err(),
            FaultConfigError {
                knob: "corrupt_p",
                value: -0.1
            }
        );
        assert!(FaultInjector::lossy(1, 0.0, f64::NAN).is_err());
        let mut f = FaultInjector::none(1);
        f.reorder_p = 2.0;
        assert_eq!(f.validate().unwrap_err().knob, "reorder_p");
        f.reorder_p = 1.0;
        assert!(f.validate().is_ok());
    }

    /// The folded ones'-complement sum over the whole buffer — any checksum
    /// computed over any even-offset-aligned sub-range shifts by the same
    /// amount under the stealth flip, so preserving this global sum (plus
    /// both lane sums) proves the real TCP checksum is preserved.
    fn ones_sum(buf: &[u8]) -> u32 {
        let mut sum = 0u32;
        let mut i = 0;
        while i < buf.len() {
            let hi = buf[i] as u32;
            let lo = if i + 1 < buf.len() {
                buf[i + 1] as u32
            } else {
                0
            };
            sum += (hi << 8) | lo;
            i += 2;
        }
        while sum >> 16 != 0 {
            sum = (sum & 0xffff) + (sum >> 16);
        }
        sum
    }

    #[test]
    fn stealth_corruption_changes_bytes_but_not_checksum() {
        let mut f = FaultInjector::none(9);
        f.force_stealth_corrupt_next();
        // A varied payload like real application data.
        let data: Bytes = (0..1024u32)
            .map(|i| i.wrapping_mul(2654435761).to_le_bytes()[0])
            .collect::<Vec<u8>>()
            .into();
        match f.fate(data.clone()) {
            Fate::Deliver { payload, .. } => {
                assert_ne!(payload, data, "payload must actually change");
                let diff: usize = payload
                    .iter()
                    .zip(data.iter())
                    .filter(|(a, b)| a != b)
                    .count();
                assert_eq!(diff, 2, "exactly two bytes flipped");
                assert_eq!(ones_sum(&payload), ones_sum(&data), "checksum must survive");
                // Both lane sums individually, so any 16-bit alignment works.
                let lane = |buf: &[u8], p: usize| -> u64 {
                    buf.iter().skip(p).step_by(2).map(|&b| b as u64).sum()
                };
                assert_eq!(lane(&payload, 0), lane(&data, 0));
                assert_eq!(lane(&payload, 1), lane(&data, 1));
                // The header region is untouched.
                assert_eq!(&payload[..128], &data[..128]);
            }
            Fate::Drop => panic!(),
        }
        assert_eq!(f.stats.stealth_corrupted, 1);
    }

    #[test]
    fn stealth_corruption_leaves_uncorruptible_payloads_alone() {
        let mut f = FaultInjector::none(10);
        f.force_stealth_corrupt_next();
        let data = Bytes::from(vec![0u8; 512]); // constant fill: no set/clear pair
        match f.fate(data.clone()) {
            Fate::Deliver { payload, .. } => assert_eq!(payload, data),
            Fate::Drop => panic!(),
        }
        assert_eq!(f.stats.stealth_corrupted, 0);
    }

    #[test]
    fn stealth_misplace_swaps_pages_and_keeps_the_checksum() {
        let len = HEADER_SKIP + 2 * MISPLACE_SPAN + 100;
        let swap = |data: &Bytes| {
            let mut f = FaultInjector::none(11);
            f.arm_stealth_misplace();
            // A frame too short to take the swap passes untouched and
            // leaves it armed.
            let short = data.slice(..HEADER_SKIP + 2 * MISPLACE_SPAN - 1);
            assert_eq!(
                f.fate(short.clone()),
                Fate::Deliver {
                    payload: short,
                    extra_delay: Dur::ZERO,
                    duplicate: false,
                }
            );
            let Fate::Deliver { payload, .. } = f.fate(data.clone()) else {
                panic!("a misplace never drops");
            };
            assert_eq!(f.stats.stealth_misplaced, 1);
            // Disarmed after one swap.
            assert_eq!(
                f.fate(data.clone()),
                Fate::Deliver {
                    payload: data.clone(),
                    extra_delay: Dur::ZERO,
                    duplicate: false,
                }
            );
            assert_eq!(ones_sum(&payload), ones_sum(data), "checksum must survive");
            payload
        };

        // The old 256-periodic ttcp pattern: the two pages are identical, so
        // the swap changes nothing (the blind spot).
        let periodic: Bytes = (0..len as u32)
            .map(|i| i.wrapping_mul(2654435761).to_le_bytes()[0])
            .collect::<Vec<u8>>()
            .into();
        assert_eq!(swap(&periodic), periodic);

        // A position-unique word stream, as the ttcp payload now is: the
        // two pages trade places byte for byte.
        let unique: Bytes = (0..len)
            .map(|i| outboard_sim::splitmix64_at(1, (i / 8) as u64).to_le_bytes()[i % 8])
            .collect::<Vec<u8>>()
            .into();
        let out = swap(&unique);
        let (a, b) = (HEADER_SKIP, HEADER_SKIP + MISPLACE_SPAN);
        assert_eq!(&out[..a], &unique[..a]);
        assert_eq!(&out[a..b], &unique[b..b + MISPLACE_SPAN]);
        assert_eq!(&out[b..b + MISPLACE_SPAN], &unique[a..b]);
        assert_eq!(&out[b + MISPLACE_SPAN..], &unique[b + MISPLACE_SPAN..]);
        assert_ne!(out, unique);
    }

    #[test]
    fn deterministic_stream() {
        let run = |seed| {
            let mut f = FaultInjector::lossy(seed, 0.5, 0.0).unwrap();
            (0..64)
                .map(|_| matches!(f.fate(Bytes::from_static(b"p")), Fate::Drop))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(10), run(10));
        assert_ne!(run(10), run(11));
    }
}
