//! The CAB device model: the register-file interface the driver programs.
//!
//! Host-visible behaviour reproduced from §2.2 of the paper:
//!
//! * **Transmit**: the host pre-allocates a packet buffer, then issues an
//!   SDMA request whose scatter/gather list collects the kernel-built header
//!   and the user data. The checksum is calculated *during the transfer into
//!   network memory* and inserted at a host-specified offset, seeded by the
//!   partial sum the host placed in the checksum field (§4.3). An MDMA
//!   request then moves the finished packet to the media. Only the final
//!   SDMA of a write is flagged to interrupt; TCP transmit buffers stay in
//!   network memory until the host frees them on acknowledgement, and a
//!   retransmission re-DMAs *only a new header*, reusing the saved body
//!   checksum.
//! * **Receive**: the CAB DMAs the first L words into a pre-posted auto-DMA
//!   buffer, computes the body checksum in hardware while the data flows in
//!   from the media, and interrupts the host. Large packets stay outboard
//!   (the stack sees an `M_WCAB` descriptor) until the host issues SDMA
//!   copy-out requests toward the reading process's buffer.

use crate::config::CabConfig;
use crate::engine::EngineTimeline;
use crate::fault::{FaultInjector, TransferFault};
use crate::netmem::{NetworkMemory, PacketId};
use crate::ownership::{DmaEngine, DmaOwnershipViolation};
use bytes::Bytes;
use outboard_host::{MemFault, TaskId, UserMemory};
use outboard_sim::obs::Scope;
use outboard_sim::{Dur, Time};
use outboard_wire::checksum::{fold, Accumulator};
use outboard_wire::hippi::HippiAddr;
use std::collections::BTreeMap;

/// One scatter/gather element of a transmit SDMA request.
#[derive(Clone, Debug)]
pub enum SgEntry {
    /// Kernel-resident bytes (the protocol headers the host built). Modeled
    /// as inline data; the host pays the same DMA time either way.
    Inline(Bytes),
    /// Pinned user memory (the application's write buffer).
    User {
        /// Owning task.
        task: TaskId,
        /// Word-aligned start address.
        vaddr: u64,
        /// Bytes to gather.
        len: usize,
    },
}

impl SgEntry {
    /// Bytes this entry contributes to the packet.
    pub fn len(&self) -> usize {
        match self {
            SgEntry::Inline(b) => b.len(),
            SgEntry::User { len, .. } => *len,
        }
    }

    /// True for a zero-length entry.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Where the hardware inserts the transport checksum (§4.3).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChecksumSpec {
    /// Byte offset of the 16-bit checksum field within the packet. The host
    /// has already written the *seed* (partial sum of the headers it owns)
    /// there.
    pub csum_offset: usize,
    /// Number of leading 32-bit words the checksum engine skips.
    pub skip_words: usize,
}

/// A transmit SDMA request (host → network memory).
#[derive(Clone, Debug)]
pub struct SdmaTx {
    /// Destination packet buffer (pre-allocated by the host).
    pub packet: PacketId,
    /// Scatter/gather list, in packet order.
    pub sg: Vec<SgEntry>,
    /// Outboard checksum insertion, when the transport uses it.
    pub csum: Option<ChecksumSpec>,
    /// Retransmission: the scatter/gather list carries only a fresh header;
    /// the engine reuses the body checksum saved on the first transfer.
    pub reuse_body_csum: bool,
    /// Raise a host interrupt on completion (only the last SDMA of a write
    /// sets this, §2.2).
    pub interrupt_on_complete: bool,
    /// Host cookie returned in the completion event.
    pub token: u64,
}

/// Destination of a receive-side SDMA copy-out.
#[derive(Clone, Copy, Debug)]
pub enum SdmaDst {
    /// Straight into the reading process's pinned buffer (single-copy path).
    User {
        /// Owning task.
        task: TaskId,
        /// Word-aligned destination address.
        vaddr: u64,
    },
    /// Into kernel memory (the `M_WCAB` → regular-mbuf conversion path for
    /// in-kernel applications, §5); the bytes come back in the completion.
    Kernel,
}

/// A receive SDMA request (network memory → host).
#[derive(Clone, Copy, Debug)]
pub struct SdmaRx {
    /// Source packet in network memory.
    pub packet: PacketId,
    /// Byte offset within the packet to copy from.
    pub src_off: usize,
    /// Bytes to copy out.
    pub len: usize,
    /// Where the bytes go.
    pub dst: SdmaDst,
    /// Free the packet buffer after the copy (last copy-out of a packet).
    pub free_packet: bool,
    /// Raise a host interrupt when the copy finishes (§2.2: flagged on the last SDMA of a read).
    pub interrupt_on_complete: bool,
    /// Host cookie returned in the completion event.
    pub token: u64,
}

/// Completion/side-effect events the device hands back to the simulation
/// harness, each stamped with the absolute time it occurs.
#[derive(Clone, Debug)]
pub enum CabEvent {
    /// An SDMA request finished. `data` carries copy-out bytes for
    /// [`SdmaDst::Kernel`] requests.
    SdmaDone {
        /// Completion time on the engine timeline.
        at: Time,
        /// The request's host cookie.
        token: u64,
        /// Whether the host is interrupted.
        interrupt: bool,
        /// Copy-out bytes for kernel-destination requests.
        data: Option<Bytes>,
    },
    /// A frame left on the media.
    FrameOut {
        /// Completion time on the MDMA timeline.
        at: Time,
        /// Destination fabric address.
        dst: HippiAddr,
        /// Logical channel the packet was queued on.
        channel: u16,
        /// The serialized frame contents.
        frame: Bytes,
    },
    /// A frame arrived, its checksum is computed, and the first L words are
    /// in host memory; the host is being interrupted. `packet` is `None`
    /// when the whole frame fit in the auto-DMA buffer (small-packet path).
    RxReady {
        /// When the auto-DMA completes and the interrupt is raised.
        at: Time,
        /// Outboard buffer holding the frame (None when it fit in the auto-DMA buffer).
        packet: Option<PacketId>,
        /// The first L words, delivered with the interrupt.
        autodma: Bytes,
        /// Hardware ones-complement sum over the transport area.
        hw_csum: u16,
        /// Total frame length on the wire.
        frame_len: usize,
    },
    /// A frame was dropped for want of network memory.
    RxDropped {
        /// When the drop happened.
        at: Time,
        /// Length of the lost frame.
        frame_len: usize,
    },
}

impl CabEvent {
    /// The event's timestamp.
    pub fn at(&self) -> Time {
        match self {
            CabEvent::SdmaDone { at, .. }
            | CabEvent::FrameOut { at, .. }
            | CabEvent::RxReady { at, .. }
            | CabEvent::RxDropped { at, .. } => *at,
        }
    }
}

/// Errors the device reports to the driver synchronously.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CabError {
    /// The request names a packet that does not exist.
    UnknownPacket(PacketId),
    /// Request violates a device rule (lengths, ordering, word alignment).
    BadRequest(&'static str),
    /// A user-memory access faulted (unpinned/bad address).
    MemFault(MemFault),
    /// A transfer failed transiently (bus parity, microcode hiccup); the
    /// driver may retry the request.
    DmaError(&'static str),
    /// The named engine is wedged: it accepts nothing further until the
    /// driver resets the board.
    EngineWedged(&'static str),
    /// A DMA ownership invariant was violated (overlapping engines,
    /// use-after-free, free-while-DMA). Only constructed when the
    /// `dma-check` feature is on; without it the same access proceeds
    /// silently, exactly as the real hardware would corrupt silently.
    Ownership(DmaOwnershipViolation),
}

impl CabError {
    /// Is this a transient condition a bounded retry can clear (as opposed
    /// to a malformed request or a wedged engine)?
    pub fn is_transient(&self) -> bool {
        matches!(self, CabError::DmaError(_))
    }
}

impl std::fmt::Display for CabError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CabError::UnknownPacket(id) => write!(f, "unknown packet {id:?}"),
            CabError::BadRequest(s) => write!(f, "bad request: {s}"),
            CabError::MemFault(m) => write!(f, "{m}"),
            CabError::DmaError(s) => write!(f, "transient dma error: {s}"),
            CabError::EngineWedged(e) => write!(f, "{e} engine wedged"),
            CabError::Ownership(v) => write!(f, "dma ownership violation: {v}"),
        }
    }
}

impl std::error::Error for CabError {}

/// Device statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CabStats {
    /// Transmit SDMA requests completed.
    pub sdma_tx_requests: u64,
    /// Receive SDMA (copy-out) requests completed.
    pub sdma_rx_requests: u64,
    /// Frames put on the media.
    pub frames_tx: u64,
    /// Frames received from the media.
    pub frames_rx: u64,
    /// Bytes transmitted.
    pub bytes_tx: u64,
    /// Bytes received.
    pub bytes_rx: u64,
    /// Received frames dropped: no network memory.
    pub rx_dropped_nomem: u64,
    /// Retransmissions that reused a saved body checksum.
    pub body_csum_reuses: u64,
    /// Small receives satisfied entirely by the auto-DMA buffer.
    pub autodma_only_rx: u64,
    /// Received frames dropped because an engine was wedged.
    pub rx_dropped_wedged: u64,
    /// Board resets performed by the driver's watchdog.
    pub resets: u64,
}

/// One CAB adaptor.
#[derive(Debug)]
pub struct Cab {
    cfg: CabConfig,
    /// This adaptor's address in the HIPPI fabric.
    pub addr: HippiAddr,
    netmem: NetworkMemory,
    sdma: EngineTimeline,
    mdma_tx: EngineTimeline,
    mdma_rx: EngineTimeline,
    /// Device statistics.
    pub stats: CabStats,
    /// Frames transmitted per MAC logical channel (queue-depth proxy for the
    /// HOL analysis in §6: which channels the traffic actually spread over).
    pub per_channel_tx: BTreeMap<u16, u64>,
    /// Adaptor-side fault injection (transparent by default).
    pub faults: FaultInjector,
}

impl Cab {
    /// A CAB at fabric address `addr`.
    pub fn new(addr: HippiAddr, cfg: CabConfig) -> Cab {
        let netmem = NetworkMemory::new(cfg.net_mem_bytes, cfg.page_size);
        Cab {
            cfg,
            addr,
            netmem,
            sdma: EngineTimeline::new(),
            mdma_tx: EngineTimeline::new(),
            mdma_rx: EngineTimeline::new(),
            stats: CabStats::default(),
            per_channel_tx: BTreeMap::new(),
            faults: FaultInjector::none(u64::from(addr)),
        }
    }

    /// The device configuration.
    pub fn config(&self) -> &CabConfig {
        &self.cfg
    }

    /// Inspect the network memory (tests and leak checks).
    pub fn netmem(&self) -> &NetworkMemory {
        &self.netmem
    }

    /// Host command: allocate a packet buffer for a fully-formed packet.
    pub fn alloc_packet(&mut self, len: usize) -> Option<PacketId> {
        if len > 0 && self.faults.alloc_fails() {
            return None;
        }
        self.netmem.alloc(len)
    }

    /// Board reset (the driver's watchdog response to a wedged engine):
    /// clear all engine wedges and drop every outboard buffer. Returns the
    /// number of packet buffers released. Unacknowledged transmit data
    /// survives on the host — the retention rule the paper prescribes — so
    /// the driver rebuilds transmit from the socket send queues afterwards.
    pub fn reset(&mut self) -> usize {
        self.sdma.clear_wedge();
        self.mdma_tx.clear_wedge();
        self.mdma_rx.clear_wedge();
        self.stats.resets += 1;
        self.netmem.free_all()
    }

    /// Is any DMA engine wedged (watchdog / probe check)?
    pub fn any_engine_wedged(&self) -> bool {
        self.sdma.is_wedged() || self.mdma_tx.is_wedged() || self.mdma_rx.is_wedged()
    }

    /// Temporarily withhold `reserved_pages` of network memory from the
    /// allocator (capacity squeeze). Pass 0 to restore full capacity.
    pub fn squeeze_netmem(&mut self, reserved_pages: usize) {
        self.netmem.set_reserved_pages(reserved_pages);
    }

    /// Host command: free a packet buffer (on TCP acknowledgement or after
    /// the last receive copy-out). `now` is when the host issues the
    /// command; with `dma-check` on, a free inside an engine's open
    /// transfer window is refused and recorded — the hazard the paper's
    /// DMA-counter handshake (§4.4.2) exists to prevent.
    pub fn free_packet(&mut self, id: PacketId, now: Time) -> bool {
        #[cfg(not(feature = "dma-check"))]
        let _ = now;
        #[cfg(feature = "dma-check")]
        if self.netmem.journal_check_host_free(id, now).is_err() {
            return false;
        }
        self.netmem.free(id)
    }

    /// Ownership violations recorded by the `dma-check` journal.
    #[cfg(feature = "dma-check")]
    pub fn ownership_violations(&self) -> &[DmaOwnershipViolation] {
        self.netmem.journal_violations()
    }

    /// Transfer windows the `dma-check` journal has recorded (lets tests
    /// assert the checker actually observed traffic).
    #[cfg(feature = "dma-check")]
    pub fn ownership_transitions(&self) -> u64 {
        self.netmem.journal_transitions()
    }

    /// `UnknownPacket`, upgraded to a use-after-free ownership violation
    /// when the id was live once and `dma-check` is on (ids are never
    /// reused, so a dangling DMA is distinguishable from a typo).
    fn missing_packet(&mut self, id: PacketId, _engine: DmaEngine, _now: Time) -> CabError {
        #[cfg(feature = "dma-check")]
        if let Err(v) = self.netmem.journal_check_transfer(id, _engine, _now) {
            return CabError::Ownership(v);
        }
        CabError::UnknownPacket(id)
    }

    /// Engine-time bookkeeping for a host-bus transfer.
    fn sdma_cost_extra(&self, sg_entries: usize, misaligned_edges: usize) -> Dur {
        Dur::from_micros_f64(
            self.cfg.sdma_setup_us
                + self.cfg.sdma_per_sg_us * sg_entries as f64
                + self.cfg.sdma_misalign_us * misaligned_edges as f64,
        )
    }

    fn count_misaligned(&self, sg: &[SgEntry]) -> usize {
        sg.iter()
            .filter_map(|e| match e {
                SgEntry::User { vaddr, len, .. } => Some((*vaddr, *len)),
                SgEntry::Inline(_) => None,
            })
            .map(|(vaddr, len)| {
                let a = self.cfg.burst_align as u64;
                usize::from(vaddr % a != 0) + usize::from(!(vaddr + len as u64).is_multiple_of(a))
            })
            .sum()
    }

    /// Transmit SDMA: gather header + user data into network memory,
    /// computing and inserting the transport checksum on the fly (§4.3).
    pub fn sdma_tx(
        &mut self,
        req: SdmaTx,
        now: Time,
        mem: &dyn UserMemory,
    ) -> Result<CabEvent, CabError> {
        if self.sdma.is_wedged() {
            return Err(CabError::EngineWedged("sdma"));
        }
        // Word alignment is a hard device rule (§4.5): the single-copy path
        // may only be used for word-aligned user buffers. (Lengths may be
        // ragged — the engine pads the final burst — but start addresses
        // cannot.)
        for e in &req.sg {
            if let SgEntry::User { vaddr, .. } = e {
                if vaddr % 4 != 0 {
                    return Err(CabError::BadRequest("user sg entry not word aligned"));
                }
            }
        }
        let total: usize = req.sg.iter().map(|e| e.len()).sum();
        let (pkt_cap, pkt_valid, pkt_saved_csum) = match self.netmem.get(req.packet) {
            Some(p) => (p.cap, p.valid, p.saved_body_csum),
            None => return Err(self.missing_packet(req.packet, DmaEngine::Sdma, now)),
        };

        if req.reuse_body_csum {
            let spec = req
                .csum
                .ok_or(CabError::BadRequest("retransmit without checksum spec"))?;
            if total > spec.skip_words * 4 {
                return Err(CabError::BadRequest(
                    "retransmit sg must cover only the skipped header words",
                ));
            }
            if pkt_saved_csum.is_none() {
                return Err(CabError::BadRequest("no saved body checksum to reuse"));
            }
        } else if total != pkt_cap {
            // Packets are fully formed when transferred to the CAB (§2.2).
            return Err(CabError::BadRequest(
                "sg total must fill the packet buffer exactly",
            ));
        }
        if let Some(spec) = req.csum {
            // Validate the spec before any bytes move so an error never
            // leaves a half-written packet behind.
            let new_valid = if req.reuse_body_csum {
                pkt_valid
            } else {
                total
            };
            if spec.csum_offset + 2 > new_valid || spec.skip_words * 4 > new_valid {
                return Err(CabError::BadRequest("checksum spec outside packet"));
            }
        }

        // Would this transfer overlap another engine's claim on the buffer?
        #[cfg(feature = "dma-check")]
        self.netmem
            .journal_check_transfer(req.packet, DmaEngine::Sdma, now)
            .map_err(CabError::Ownership)?;

        // Injected fault draw: after validation (malformed requests never
        // reach the engine), before any state is committed.
        match self.faults.sdma_fate() {
            Some(TransferFault::Wedge) => {
                self.sdma.wedge();
                // The engine stalled mid-gather: it holds the buffer until
                // board reset (open-ended window).
                #[cfg(feature = "dma-check")]
                self.netmem
                    .journal_record(req.packet, DmaEngine::Sdma, None);
                return Err(CabError::EngineWedged("sdma"));
            }
            Some(TransferFault::Error) => {
                return Err(CabError::DmaError("sdma transfer fault"));
            }
            None => {}
        }

        // Gather the bytes into a staging buffer.
        let mut staged = vec![0u8; total];
        let mut off = 0usize;
        for e in &req.sg {
            match e {
                SgEntry::Inline(b) => {
                    staged[off..off + b.len()].copy_from_slice(b);
                    off += b.len();
                }
                SgEntry::User { task, vaddr, len } => {
                    mem.read_user(*task, *vaddr, &mut staged[off..off + len])
                        .map_err(CabError::MemFault)?;
                    off += len;
                }
            }
        }

        let misaligned = self.count_misaligned(&req.sg);
        let extra = self.sdma_cost_extra(req.sg.len(), misaligned);
        let done = self.sdma.run(now, extra, total, self.cfg.sdma_bps());

        // The gather occupies the buffer for [now, done); the checksum
        // engine computes during the same window (§4.3's sanctioned
        // concurrency).
        #[cfg(feature = "dma-check")]
        {
            self.netmem
                .journal_record(req.packet, DmaEngine::Sdma, Some(done));
            if req.csum.is_some() {
                self.netmem
                    .journal_record(req.packet, DmaEngine::ChecksumEngine, Some(done));
            }
        }

        // Commit to network memory and run the checksum engine.
        let Some(pkt) = self.netmem.get_mut(req.packet) else {
            return Err(CabError::UnknownPacket(req.packet));
        };
        pkt.data[..total].copy_from_slice(&staged);
        if !req.reuse_body_csum {
            pkt.valid = total;
        }
        if let Some(spec) = req.csum {
            let skip = spec.skip_words * 4;
            let body_sum = if req.reuse_body_csum {
                self.stats.body_csum_reuses += 1;
                match pkt.saved_body_csum {
                    Some(s) => s,
                    None => return Err(CabError::BadRequest("no saved body checksum to reuse")),
                }
            } else {
                let mut acc = Accumulator::new();
                acc.add_bytes(&pkt.data[skip..pkt.valid]);
                let s = acc.partial();
                pkt.saved_body_csum = Some(s);
                s
            };
            let seed =
                u16::from_be_bytes([pkt.data[spec.csum_offset], pkt.data[spec.csum_offset + 1]]);
            let mut final_csum = !fold(seed as u32 + body_sum as u32);
            // An injected checksum-engine fault inserts a wrong sum; the
            // receiver's verification catches it and the transport recovers
            // by retransmission.
            if self.faults.csum_miscomputes() {
                final_csum ^= 0x5555;
            }
            pkt.data[spec.csum_offset..spec.csum_offset + 2]
                .copy_from_slice(&final_csum.to_be_bytes());
        }

        self.stats.sdma_tx_requests += 1;
        Ok(CabEvent::SdmaDone {
            at: done,
            token: req.token,
            interrupt: req.interrupt_on_complete,
            data: None,
        })
    }

    /// Receive SDMA: copy packet bytes out of network memory toward the
    /// reading process (or kernel memory for the conversion path).
    pub fn sdma_rx(
        &mut self,
        req: SdmaRx,
        now: Time,
        mem: &mut dyn UserMemory,
    ) -> Result<CabEvent, CabError> {
        if self.sdma.is_wedged() {
            return Err(CabError::EngineWedged("sdma"));
        }
        if let SdmaDst::User { vaddr, .. } = req.dst {
            if vaddr % 4 != 0 {
                return Err(CabError::BadRequest("user destination not word aligned"));
            }
        }
        let pkt_valid = match self.netmem.get(req.packet) {
            Some(p) => p.valid,
            None => return Err(self.missing_packet(req.packet, DmaEngine::Sdma, now)),
        };
        if req.src_off + req.len > pkt_valid {
            return Err(CabError::BadRequest("copy-out beyond valid packet data"));
        }
        #[cfg(feature = "dma-check")]
        self.netmem
            .journal_check_transfer(req.packet, DmaEngine::Sdma, now)
            .map_err(CabError::Ownership)?;
        match self.faults.sdma_fate() {
            Some(TransferFault::Wedge) => {
                self.sdma.wedge();
                // Stalled mid-copy-out: the buffer stays claimed until
                // reset. The driver's PIO fallback may still *read* it
                // (network memory is host-addressable) but must not free
                // it out from under the engine.
                #[cfg(feature = "dma-check")]
                self.netmem
                    .journal_record(req.packet, DmaEngine::Sdma, None);
                return Err(CabError::EngineWedged("sdma"));
            }
            Some(TransferFault::Error) => {
                return Err(CabError::DmaError("sdma copy-out fault"));
            }
            None => {}
        }
        let Some(pkt) = self.netmem.get(req.packet) else {
            return Err(CabError::UnknownPacket(req.packet));
        };
        let buf = pkt.data[req.src_off..req.src_off + req.len].to_vec();

        let misaligned = match req.dst {
            SdmaDst::User { vaddr, .. } => {
                let a = self.cfg.burst_align as u64;
                usize::from(vaddr % a != 0)
                    + usize::from(!(vaddr + req.len as u64).is_multiple_of(a))
            }
            SdmaDst::Kernel => 0,
        };
        let extra = self.sdma_cost_extra(1, misaligned);
        let done = self.sdma.run(now, extra, req.len, self.cfg.sdma_bps());

        #[cfg(feature = "dma-check")]
        self.netmem
            .journal_record(req.packet, DmaEngine::Sdma, Some(done));

        let data = match req.dst {
            SdmaDst::User { task, vaddr } => {
                mem.write_user(task, vaddr, &buf)
                    .map_err(CabError::MemFault)?;
                None
            }
            SdmaDst::Kernel => Some(Bytes::from(buf)),
        };
        if req.free_packet {
            self.netmem.free(req.packet);
        }
        self.stats.sdma_rx_requests += 1;
        Ok(CabEvent::SdmaDone {
            at: done,
            token: req.token,
            interrupt: req.interrupt_on_complete,
            data,
        })
    }

    /// Transmit MDMA: put a fully-formed packet on the media. The packet
    /// buffer is kept unless `free_after` (TCP keeps it for retransmission
    /// until acknowledged; UDP frees on completion — no interrupt needed in
    /// either case, §2.2).
    pub fn mdma_tx(
        &mut self,
        packet: PacketId,
        dst: HippiAddr,
        channel: u16,
        now: Time,
        free_after: bool,
    ) -> Result<CabEvent, CabError> {
        if self.mdma_tx.is_wedged() {
            return Err(CabError::EngineWedged("mdma_tx"));
        }
        let frame = match self.netmem.get(packet) {
            Some(pkt) => {
                if pkt.valid == 0 {
                    return Err(CabError::BadRequest("mdma of empty packet"));
                }
                Bytes::copy_from_slice(&pkt.data[..pkt.valid])
            }
            None => return Err(self.missing_packet(packet, DmaEngine::MdmaTx, now)),
        };
        // The three-concurrent-engine hazard (§3): outflow must not start
        // while another engine still claims the buffer.
        #[cfg(feature = "dma-check")]
        self.netmem
            .journal_check_transfer(packet, DmaEngine::MdmaTx, now)
            .map_err(CabError::Ownership)?;
        match self.faults.mdma_fate() {
            Some(TransferFault::Wedge) => {
                self.mdma_tx.wedge();
                // Stalled mid-outflow: the buffer is seized until reset.
                #[cfg(feature = "dma-check")]
                self.netmem.journal_record(packet, DmaEngine::MdmaTx, None);
                return Err(CabError::EngineWedged("mdma_tx"));
            }
            Some(TransferFault::Error) => {
                return Err(CabError::DmaError("mdma transfer fault"));
            }
            None => {}
        }
        let done = self.mdma_tx.run(
            now,
            Dur::from_micros_f64(self.cfg.mdma_setup_us),
            frame.len(),
            self.cfg.media_bps(),
        );
        #[cfg(feature = "dma-check")]
        self.netmem
            .journal_record(packet, DmaEngine::MdmaTx, Some(done));
        if free_after {
            self.netmem.free(packet);
        }
        self.stats.frames_tx += 1;
        self.stats.bytes_tx += frame.len() as u64;
        *self.per_channel_tx.entry(channel).or_insert(0) += 1;
        Ok(CabEvent::FrameOut {
            at: done,
            dst,
            channel,
            frame,
        })
    }

    /// A frame arrives from the media: allocate outboard space, compute the
    /// receive checksum in hardware, auto-DMA the first L words to the host
    /// and raise the receive interrupt (§2.2).
    pub fn receive_frame(&mut self, frame: Bytes, now: Time) -> CabEvent {
        let len = frame.len();
        // A wedged engine cannot move the frame off the media; the frame is
        // lost and the transport recovers by retransmission.
        if self.sdma.is_wedged() || self.mdma_rx.is_wedged() {
            self.stats.rx_dropped_wedged += 1;
            return CabEvent::RxDropped {
                at: now,
                frame_len: len,
            };
        }
        let id = if self.faults.alloc_fails() {
            None
        } else {
            self.netmem.alloc(len)
        };
        let Some(id) = id else {
            self.stats.rx_dropped_nomem += 1;
            return CabEvent::RxDropped {
                at: now,
                frame_len: len,
            };
        };
        // Media-side engine occupancy (the frame flows through MDMA-rx into
        // network memory; the link already serialized it, so this mostly
        // matters for back-to-back arrival contention).
        let mdma_done = self.mdma_rx.run(
            now,
            Dur::from_micros_f64(self.cfg.mdma_setup_us),
            0, // serialization paid on the link; setup only
            self.cfg.media_bps(),
        );
        if let Some(pkt) = self.netmem.get_mut(id) {
            pkt.data[..len].copy_from_slice(&frame);
            pkt.valid = len;
        } else {
            // Freshly allocated above; only reachable if the board is being
            // reset underneath us — treat the frame as lost.
            self.stats.rx_dropped_nomem += 1;
            return CabEvent::RxDropped {
                at: now,
                frame_len: len,
            };
        }
        // Hardware receive checksum from the fixed word offset (§4.3).
        let skip = (self.cfg.rx_csum_skip_words * 4).min(len);
        let mut acc = Accumulator::new();
        acc.add_bytes(&frame[skip..]);
        let hw_csum = acc.partial();

        // Auto-DMA the first L words into host memory (charged to the
        // host-bus engine), then interrupt.
        let auto_len = self.cfg.autodma_bytes().min(len);
        let autodma = frame.slice(..auto_len);
        let done = self.sdma.run(
            mdma_done,
            Dur::from_micros_f64(2.0),
            auto_len,
            self.cfg.sdma_bps(),
        );

        // Inflow claims the fresh buffer for [now, mdma_done) with the
        // checksum engine computing alongside (§4.3); the auto-DMA to the
        // host takes [mdma_done, done) — strictly sequential windows.
        #[cfg(feature = "dma-check")]
        {
            self.netmem
                .journal_record(id, DmaEngine::MdmaRx, Some(mdma_done));
            self.netmem
                .journal_record(id, DmaEngine::ChecksumEngine, Some(mdma_done));
            self.netmem.journal_record(id, DmaEngine::Sdma, Some(done));
        }

        self.stats.frames_rx += 1;
        self.stats.bytes_rx += len as u64;

        let packet = if len <= self.cfg.autodma_bytes() {
            // Whole packet delivered with the interrupt: nothing stays
            // outboard (the stack will build a regular mbuf, §4.2).
            self.netmem.free(id);
            self.stats.autodma_only_rx += 1;
            None
        } else {
            Some(id)
        };
        CabEvent::RxReady {
            at: done,
            packet,
            autodma,
            hw_csum,
            frame_len: len,
        }
    }

    /// Direct read of packet bytes (tests and driver header inspection).
    pub fn read_packet(&self, id: PacketId, off: usize, dst: &mut [u8]) -> bool {
        self.netmem.read(id, off, dst)
    }

    /// Is this outboard buffer still live? Packet ids are never reused, so
    /// `false` means the buffer was freed (e.g. by a board reset) and any
    /// descriptor still naming it is stale. The driver uses this to discard
    /// receive interrupts that crossed a reset in flight.
    pub fn packet_exists(&self, id: PacketId) -> bool {
        self.netmem.get(id).is_some()
    }

    /// SDMA engine busy time so far (for adaptor-utilization reporting).
    pub fn sdma_busy(&self) -> Dur {
        self.sdma.total_busy()
    }

    /// When the SDMA engine's current backlog drains.
    pub fn sdma_busy_until(&self) -> Time {
        self.sdma.busy_until()
    }

    /// Total busy time across all three DMA engines (SDMA + both MDMA
    /// directions) — the timeline sampler's "engine busy" counter.
    pub fn engines_busy(&self) -> Dur {
        self.sdma.total_busy() + self.mdma_tx.total_busy() + self.mdma_rx.total_busy()
    }

    /// Publish the adaptor's metrics — engine busy fractions (the paper's
    /// §7.1 utilization accounting), network-memory occupancy, and frame
    /// counters — into a registry scope.
    pub fn publish_metrics(&self, s: &mut Scope<'_>) {
        s.busy_frac("sdma.busy_frac", self.sdma.tracker());
        s.counter("sdma.requests", self.sdma.requests);
        s.counter("sdma.bytes", self.sdma.bytes);
        s.busy_frac("mdma_tx.busy_frac", self.mdma_tx.tracker());
        s.counter("mdma_tx.requests", self.mdma_tx.requests);
        s.busy_frac("mdma_rx.busy_frac", self.mdma_rx.tracker());
        s.counter("mdma_rx.requests", self.mdma_rx.requests);

        let nm = &self.netmem;
        s.gauge(
            "netmem.pages_used",
            (nm.pages_total() - nm.pages_free()) as i64,
            nm.pages_hwm() as i64,
        );
        s.counter("netmem.pages_total", nm.pages_total() as u64);
        s.counter("netmem.allocs", nm.allocs());
        s.counter("netmem.alloc_failures", nm.alloc_failures());
        s.counter("netmem.frees", nm.frees());
        s.gauge(
            "netmem.pages_reserved",
            nm.reserved_pages() as i64,
            nm.reserved_pages() as i64,
        );

        s.counter("frames_tx", self.stats.frames_tx);
        s.counter("frames_rx", self.stats.frames_rx);
        s.counter("bytes_tx", self.stats.bytes_tx);
        s.counter("bytes_rx", self.stats.bytes_rx);
        s.counter("sdma_tx_requests", self.stats.sdma_tx_requests);
        s.counter("sdma_rx_requests", self.stats.sdma_rx_requests);
        s.counter("rx_dropped_nomem", self.stats.rx_dropped_nomem);
        s.counter("body_csum_reuses", self.stats.body_csum_reuses);
        s.counter("autodma_only_rx", self.stats.autodma_only_rx);
        s.counter("rx_dropped_wedged", self.stats.rx_dropped_wedged);
        s.counter("resets", self.stats.resets);
        self.faults.publish_metrics(s);
        for (ch, n) in &self.per_channel_tx {
            s.counter(&format!("channel.{ch}.frames_tx"), *n);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use outboard_host::HostMem;
    use outboard_wire::checksum::{pseudo_header_sum, verify_transport};

    const HDR: usize = 80; // pretend framing+ip+tcp header, word aligned
    const SKIP_WORDS: usize = HDR / 4;
    const CSUM_OFF: usize = 76; // 16-bit field near the end of the header

    fn setup() -> (Cab, HostMem, TaskId) {
        let cab = Cab::new(1, CabConfig::default());
        let mut hm = HostMem::new();
        let task = TaskId(1);
        hm.create_region(task, 0x10000, 256 * 1024);
        let region = hm.region_mut(task).unwrap();
        for (i, b) in region.iter_mut().enumerate() {
            *b = (i * 31 + 7) as u8;
        }
        (cab, hm, task)
    }

    fn header_with_seed(seed: u16) -> Vec<u8> {
        let mut h = vec![0u8; HDR];
        for (i, b) in h.iter_mut().enumerate() {
            *b = i as u8;
        }
        h[CSUM_OFF..CSUM_OFF + 2].copy_from_slice(&seed.to_be_bytes());
        h
    }

    fn tx_packet(
        cab: &mut Cab,
        hm: &HostMem,
        task: TaskId,
        seed: u16,
        data_vaddr: u64,
        data_len: usize,
    ) -> (PacketId, CabEvent) {
        let id = cab.alloc_packet(HDR + data_len).unwrap();
        let ev = cab
            .sdma_tx(
                SdmaTx {
                    packet: id,
                    sg: vec![
                        SgEntry::Inline(Bytes::from(header_with_seed(seed))),
                        SgEntry::User {
                            task,
                            vaddr: data_vaddr,
                            len: data_len,
                        },
                    ],
                    csum: Some(ChecksumSpec {
                        csum_offset: CSUM_OFF,
                        skip_words: SKIP_WORDS,
                    }),
                    reuse_body_csum: false,
                    interrupt_on_complete: true,
                    token: 7,
                },
                Time::ZERO,
                hm,
            )
            .unwrap();
        (id, ev)
    }

    /// Software reference for what the hardware should produce.
    fn expected_csum(seed: u16, body: &[u8]) -> u16 {
        let mut acc = Accumulator::from_partial(seed);
        acc.add_bytes(body);
        !acc.partial()
    }

    #[test]
    fn tx_checksum_inserted_during_sdma() {
        let (mut cab, hm, task) = setup();
        let (id, ev) = tx_packet(&mut cab, &hm, task, 0xABCD, 0x10000, 4096);
        match ev {
            CabEvent::SdmaDone {
                interrupt, token, ..
            } => {
                assert!(interrupt);
                assert_eq!(token, 7);
            }
            other => panic!("{other:?}"),
        }
        // The packet in network memory carries the folded seed+body csum.
        let mut body = vec![0u8; 4096];
        hm.read_user(task, 0x10000, &mut body).unwrap();
        let mut got = [0u8; 2];
        assert!(cab.read_packet(id, CSUM_OFF, &mut got));
        assert_eq!(u16::from_be_bytes(got), expected_csum(0xABCD, &body));
        // And the user data made it outboard verbatim.
        let mut out = vec![0u8; 4096];
        assert!(cab.read_packet(id, HDR, &mut out));
        assert_eq!(out, body);
    }

    #[test]
    fn retransmit_reuses_saved_body_checksum() {
        let (mut cab, hm, task) = setup();
        let (id, _) = tx_packet(&mut cab, &hm, task, 0x1111, 0x10000, 4096);
        // Retransmit with a fresh header (different seed, e.g. new ack
        // field): only the header goes over the bus.
        let ev = cab
            .sdma_tx(
                SdmaTx {
                    packet: id,
                    sg: vec![SgEntry::Inline(Bytes::from(header_with_seed(0x2222)))],
                    csum: Some(ChecksumSpec {
                        csum_offset: CSUM_OFF,
                        skip_words: SKIP_WORDS,
                    }),
                    reuse_body_csum: true,
                    interrupt_on_complete: false,
                    token: 8,
                },
                Time(1_000_000),
                &hm,
            )
            .unwrap();
        assert!(matches!(ev, CabEvent::SdmaDone { .. }));
        assert_eq!(cab.stats.body_csum_reuses, 1);
        let mut body = vec![0u8; 4096];
        hm.read_user(task, 0x10000, &mut body).unwrap();
        let mut got = [0u8; 2];
        cab.read_packet(id, CSUM_OFF, &mut got);
        assert_eq!(u16::from_be_bytes(got), expected_csum(0x2222, &body));
    }

    #[test]
    fn word_alignment_enforced() {
        let (mut cab, hm, task) = setup();
        let id = cab.alloc_packet(HDR + 100).unwrap();
        let err = cab
            .sdma_tx(
                SdmaTx {
                    packet: id,
                    sg: vec![
                        SgEntry::Inline(Bytes::from(header_with_seed(0))),
                        SgEntry::User {
                            task,
                            vaddr: 0x10002, // not word aligned
                            len: 100,
                        },
                    ],
                    csum: None,
                    reuse_body_csum: false,
                    interrupt_on_complete: false,
                    token: 0,
                },
                Time::ZERO,
                &hm,
            )
            .unwrap_err();
        assert!(matches!(err, CabError::BadRequest(_)));
    }

    #[test]
    fn partial_packet_rejected() {
        let (mut cab, hm, _) = setup();
        let id = cab.alloc_packet(1000).unwrap();
        let err = cab
            .sdma_tx(
                SdmaTx {
                    packet: id,
                    sg: vec![SgEntry::Inline(Bytes::from(vec![0u8; 999]))],
                    csum: None,
                    reuse_body_csum: false,
                    interrupt_on_complete: false,
                    token: 0,
                },
                Time::ZERO,
                &hm,
            )
            .unwrap_err();
        assert_eq!(
            err,
            CabError::BadRequest("sg total must fill the packet buffer exactly")
        );
    }

    #[test]
    fn mdma_then_receive_round_trip() {
        let (mut cab_a, hm, task) = setup();
        let mut cab_b = Cab::new(2, CabConfig::default());
        let (id, sdma) = tx_packet(&mut cab_a, &hm, task, 0x4242, 0x10000, 8192);
        // MDMA starts when the SDMA gather completes (the driver's
        // sdma_done -> mdma convention; overlapping the two is the
        // ownership hazard dma-check exists to catch).
        let ev = cab_a.mdma_tx(id, 2, 0, sdma.at(), false).unwrap();
        let CabEvent::FrameOut { frame, dst, .. } = ev else {
            panic!()
        };
        assert_eq!(dst, 2);
        assert_eq!(frame.len(), HDR + 8192);
        // Deliver to the receiver CAB.
        let rx = cab_b.receive_frame(frame.clone(), Time(2_000_000));
        let CabEvent::RxReady {
            packet,
            autodma,
            hw_csum,
            frame_len,
            ..
        } = rx
        else {
            panic!()
        };
        assert_eq!(frame_len, frame.len());
        let pkt = packet.expect("large frame stays outboard");
        assert_eq!(autodma.len(), cab_b.config().autodma_bytes());
        // Hardware rx checksum equals a software sum from the skip offset.
        let skip = cab_b.config().rx_csum_skip_words * 4;
        let mut acc = Accumulator::new();
        acc.add_bytes(&frame[skip..]);
        assert_eq!(hw_csum, acc.partial());
        // Copy-out to a second process and compare bytes.
        let mut hm2 = HostMem::new();
        let t2 = TaskId(9);
        hm2.create_region(t2, 0x8000, 64 * 1024);
        let ev = cab_b
            .sdma_rx(
                SdmaRx {
                    packet: pkt,
                    src_off: HDR,
                    len: 8192,
                    dst: SdmaDst::User {
                        task: t2,
                        vaddr: 0x8000,
                    },
                    free_packet: true,
                    interrupt_on_complete: true,
                    token: 3,
                },
                Time(3_000_000),
                &mut hm2,
            )
            .unwrap();
        assert!(matches!(
            ev,
            CabEvent::SdmaDone {
                interrupt: true,
                ..
            }
        ));
        let mut original = vec![0u8; 8192];
        hm.read_user(task, 0x10000, &mut original).unwrap();
        let mut received = vec![0u8; 8192];
        hm2.read_user(t2, 0x8000, &mut received).unwrap();
        assert_eq!(original, received, "end-to-end data integrity");
        assert_eq!(cab_b.netmem().packet_count(), 0, "freed after copy-out");
    }

    #[test]
    fn small_frame_fits_autodma() {
        let mut cab = Cab::new(1, CabConfig::default());
        let frame = Bytes::from(vec![0x5Au8; 200]);
        let ev = cab.receive_frame(frame.clone(), Time::ZERO);
        let CabEvent::RxReady {
            packet, autodma, ..
        } = ev
        else {
            panic!()
        };
        assert!(packet.is_none(), "whole frame in the auto-DMA buffer");
        assert_eq!(autodma, frame);
        assert_eq!(cab.stats.autodma_only_rx, 1);
        assert_eq!(cab.netmem().packet_count(), 0);
    }

    #[test]
    fn rx_drops_when_netmem_full() {
        let cfg = CabConfig {
            net_mem_bytes: 16 * 1024, // 4 pages only
            ..CabConfig::default()
        };
        let mut cab = Cab::new(1, cfg);
        let f1 = Bytes::from(vec![0u8; 16 * 1024]);
        let ev1 = cab.receive_frame(f1, Time::ZERO);
        assert!(matches!(ev1, CabEvent::RxReady { .. }));
        let f2 = Bytes::from(vec![0u8; 16 * 1024]);
        let ev2 = cab.receive_frame(f2, Time(1));
        assert!(matches!(ev2, CabEvent::RxDropped { .. }));
        assert_eq!(cab.stats.rx_dropped_nomem, 1);
    }

    #[test]
    fn engine_times_are_serialized_and_concurrent() {
        let (mut cab, hm, task) = setup();
        // Two SDMA requests: the second starts after the first.
        let (_, ev1) = tx_packet(&mut cab, &hm, task, 0, 0x10000, 32 * 1024);
        let (_, ev2) = tx_packet(&mut cab, &hm, task, 0, 0x20000, 32 * 1024);
        let (t1, t2) = (ev1.at(), ev2.at());
        assert!(t2 > t1);
        let gap = t2 - t1;
        // The second transfer takes ~ as long as the first's transfer time.
        assert!(gap.as_micros_f64() > 1000.0, "32 KB at 150 Mb/s > 1.7ms");
    }

    #[test]
    fn sdma_timing_matches_bandwidth_model() {
        let (mut cab, hm, task) = setup();
        let (_, ev) = tx_packet(&mut cab, &hm, task, 0, 0x10000, 32 * 1024);
        // setup 30us + 2 sg entries * 2us + (80 + 32768) bytes at 150 Mb/s.
        let xfer_us = (HDR + 32 * 1024) as f64 * 8.0 / 150.0;
        let expect = 30.0 + 4.0 + xfer_us;
        let got = (ev.at() - Time::ZERO).as_micros_f64();
        assert!(
            (got - expect).abs() < 2.0,
            "sdma time {got}us vs expected {expect}us"
        );
    }

    #[test]
    fn verifies_like_a_receiver_would() {
        // Full-circle: seeds computed the way the stack will compute them
        // yield a segment the standard verifier accepts.
        let (mut cab, hm, task) = setup();
        let src = [10, 0, 0, 1];
        let dst = [10, 0, 0, 2];
        let payload_len = 4096usize;
        // "Transport segment" = bytes from CSUM area start... for this test
        // treat the last 20 bytes of HDR as the transport header.
        let thdr_off = HDR - 20;
        let mut header = header_with_seed(0);
        // zero checksum field then compute seed over transport hdr + pseudo.
        header[CSUM_OFF..CSUM_OFF + 2].copy_from_slice(&[0, 0]);
        let pseudo = pseudo_header_sum(src, dst, 6, (20 + payload_len) as u16);
        let mut acc = Accumulator::from_partial(pseudo);
        acc.add_bytes(&header[thdr_off..HDR]);
        let seed = acc.partial();
        header[CSUM_OFF..CSUM_OFF + 2].copy_from_slice(&seed.to_be_bytes());

        let id = cab.alloc_packet(HDR + payload_len).unwrap();
        cab.sdma_tx(
            SdmaTx {
                packet: id,
                sg: vec![
                    SgEntry::Inline(Bytes::from(header)),
                    SgEntry::User {
                        task,
                        vaddr: 0x10000,
                        len: payload_len,
                    },
                ],
                csum: Some(ChecksumSpec {
                    csum_offset: CSUM_OFF,
                    skip_words: SKIP_WORDS,
                }),
                reuse_body_csum: false,
                interrupt_on_complete: false,
                token: 0,
            },
            Time::ZERO,
            &hm,
        )
        .unwrap();
        let mut segment = vec![0u8; 20 + payload_len];
        cab.read_packet(id, thdr_off, &mut segment);
        assert!(
            verify_transport(pseudo, &segment),
            "receiver-side verification of hardware-inserted checksum"
        );
    }
}
