//! Outboard network memory.
//!
//! "The core of the adaptor is a memory used for outboard buffering of
//! packets" (§2.1). Allocation is page-granular and every packet starts on
//! a page boundary with all but the last page full (§2.2) — enforced here by
//! allocating whole pages per packet and refusing allocation when the pool
//! is exhausted (the driver sees that as a transient out-of-resources
//! condition, the network sees a dropped packet).

#[cfg(feature = "dma-check")]
use crate::ownership::{DmaEngine, DmaOwnershipViolation, OwnershipJournal};
#[cfg(feature = "dma-check")]
use outboard_sim::Time;
use std::collections::BTreeMap;

/// Identifies a packet buffer in one CAB's network memory.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PacketId(pub u64);

/// One packet buffer.
#[derive(Debug)]
pub struct PacketBuf {
    /// Allocated (maximum) length in bytes.
    pub cap: usize,
    /// Packet contents (`cap` bytes; `valid` of them written so far).
    pub data: Vec<u8>,
    /// Bytes written so far (SDMA progress / full frame length on receive).
    pub valid: usize,
    /// Body checksum saved by the transmit SDMA engine on the first
    /// transfer, reused when the host retransmits with a fresh header
    /// (§4.3: "adds in the checksum of the body of the packet, which it had
    /// saved from when the packet was transferred the first time").
    pub saved_body_csum: Option<u16>,
    pages: usize,
}

/// The network-memory page pool.
#[derive(Debug)]
pub struct NetworkMemory {
    page_size: usize,
    pages_total: usize,
    pages_free: usize,
    pages_hwm: usize,
    allocs: u64,
    alloc_failures: u64,
    frees: u64,
    reserved_pages: usize,
    // BTreeMap, not HashMap: `free_all` drains this map, and a
    // hash-ordered drain would make reset bookkeeping order (and anything
    // downstream of it) vary run to run.
    packets: BTreeMap<PacketId, PacketBuf>,
    next_id: u64,
    /// DMA ownership journal (§4.4.2's counter handshake as a checked
    /// invariant). Only consulted when the `dma-check` feature is on.
    #[cfg(feature = "dma-check")]
    journal: OwnershipJournal,
}

impl NetworkMemory {
    /// A pool of `total_bytes / page_size` free pages.
    pub fn new(total_bytes: usize, page_size: usize) -> NetworkMemory {
        assert!(page_size > 0 && total_bytes >= page_size);
        NetworkMemory {
            page_size,
            pages_total: total_bytes / page_size,
            pages_free: total_bytes / page_size,
            pages_hwm: 0,
            allocs: 0,
            alloc_failures: 0,
            frees: 0,
            reserved_pages: 0,
            packets: BTreeMap::new(),
            next_id: 1,
            #[cfg(feature = "dma-check")]
            journal: OwnershipJournal::default(),
        }
    }

    /// Pages currently free.
    pub fn pages_free(&self) -> usize {
        self.pages_free
    }

    /// Total pages in the pool.
    pub fn pages_total(&self) -> usize {
        self.pages_total
    }

    /// High-water mark of pages simultaneously in use.
    pub fn pages_hwm(&self) -> usize {
        self.pages_hwm
    }

    /// Successful allocations.
    pub fn allocs(&self) -> u64 {
        self.allocs
    }

    /// Allocations refused for want of pages (excludes zero-length requests).
    pub fn alloc_failures(&self) -> u64 {
        self.alloc_failures
    }

    /// Buffers freed.
    pub fn frees(&self) -> u64 {
        self.frees
    }

    /// Live packet buffers.
    pub fn packet_count(&self) -> usize {
        self.packets.len()
    }

    /// Pages withheld from the allocator (capacity squeeze).
    pub fn reserved_pages(&self) -> usize {
        self.reserved_pages
    }

    /// Withhold `pages` from the allocator, temporarily shrinking the pool.
    /// Already-allocated buffers are untouched; new allocations only see
    /// `pages_free - reserved` pages. Pass 0 to restore full capacity.
    pub fn set_reserved_pages(&mut self, pages: usize) {
        self.reserved_pages = pages.min(self.pages_total);
    }

    /// Free every live packet buffer (board reset drops all outboard
    /// state). Returns the number of buffers released.
    pub fn free_all(&mut self) -> usize {
        let n = self.packets.len();
        for p in std::mem::take(&mut self.packets).into_values() {
            self.pages_free += p.pages;
            self.frees += 1;
        }
        #[cfg(feature = "dma-check")]
        self.journal.release_all();
        n
    }

    /// Allocate a page-aligned packet buffer of `len` bytes. Returns `None`
    /// when the pool cannot satisfy the request.
    pub fn alloc(&mut self, len: usize) -> Option<PacketId> {
        if len == 0 {
            return None;
        }
        let pages = len.div_ceil(self.page_size);
        if pages > self.pages_free.saturating_sub(self.reserved_pages) {
            self.alloc_failures += 1;
            return None;
        }
        self.pages_free -= pages;
        self.pages_hwm = self.pages_hwm.max(self.pages_total - self.pages_free);
        self.allocs += 1;
        let id = PacketId(self.next_id);
        self.next_id += 1;
        self.packets.insert(
            id,
            PacketBuf {
                cap: len,
                data: vec![0; len],
                valid: 0,
                saved_body_csum: None,
                pages,
            },
        );
        Some(id)
    }

    /// Free a packet buffer (host command; TCP frees transmit buffers when
    /// the data is acknowledged, the receive path after copy-out).
    pub fn free(&mut self, id: PacketId) -> bool {
        if let Some(p) = self.packets.remove(&id) {
            self.pages_free += p.pages;
            self.frees += 1;
            #[cfg(feature = "dma-check")]
            self.journal.release(id);
            true
        } else {
            false
        }
    }

    /// Look up a packet buffer.
    pub fn get(&self, id: PacketId) -> Option<&PacketBuf> {
        self.packets.get(&id)
    }

    /// Mutable access to a packet buffer (device internals and tests).
    pub fn get_mut(&mut self, id: PacketId) -> Option<&mut PacketBuf> {
        self.packets.get_mut(&id)
    }

    /// Would `engine` starting a transfer on `id` at `now` violate an
    /// ownership invariant? Distinguishes dangling DMA (the id was live
    /// once) from a plain unknown id, which the caller reports as
    /// `UnknownPacket`.
    #[cfg(feature = "dma-check")]
    pub fn journal_check_transfer(
        &mut self,
        id: PacketId,
        engine: DmaEngine,
        now: Time,
    ) -> Result<(), DmaOwnershipViolation> {
        if self.packets.contains_key(&id) {
            return self.journal.check_transfer(id, engine, now);
        }
        let ever = id.0 >= 1 && id.0 < self.next_id;
        match self.journal.check_use_after_free(id, engine, now, ever) {
            Some(v) => Err(v),
            None => Ok(()),
        }
    }

    /// Record a transfer window (`end == None`: wedged engine, held until
    /// board reset).
    #[cfg(feature = "dma-check")]
    pub fn journal_record(&mut self, id: PacketId, engine: DmaEngine, end: Option<Time>) {
        self.journal.record(id, engine, end);
    }

    /// May the host free `id` at `now`? Refusal means an engine window is
    /// still open — the §4.4.2 counter-handshake hazard.
    #[cfg(feature = "dma-check")]
    pub fn journal_check_host_free(
        &mut self,
        id: PacketId,
        now: Time,
    ) -> Result<(), DmaOwnershipViolation> {
        if !self.packets.contains_key(&id) {
            // Freeing an already-gone id is today's benign no-op (`free`
            // returns false); ids are never reused so it cannot dangle.
            return Ok(());
        }
        self.journal.check_host_free(id, now)
    }

    /// Ownership violations recorded so far.
    #[cfg(feature = "dma-check")]
    pub fn journal_violations(&self) -> &[DmaOwnershipViolation] {
        self.journal.violations()
    }

    /// Transfer windows recorded so far (did the checker actually run?).
    #[cfg(feature = "dma-check")]
    pub fn journal_transitions(&self) -> u64 {
        self.journal.transitions()
    }

    /// Read `dst.len()` bytes at `off` from a packet.
    pub fn read(&self, id: PacketId, off: usize, dst: &mut [u8]) -> bool {
        match self.packets.get(&id) {
            Some(p) if off + dst.len() <= p.valid => {
                dst.copy_from_slice(&p.data[off..off + dst.len()]);
                true
            }
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_free_cycle() {
        let mut nm = NetworkMemory::new(64 * 1024, 8 * 1024); // 8 pages
        assert_eq!(nm.pages_free(), 8);
        let a = nm.alloc(32 * 1024 + 40).unwrap(); // 5 pages
        assert_eq!(nm.pages_free(), 3);
        let b = nm.alloc(24 * 1024).unwrap(); // 3 pages
        assert_eq!(nm.pages_free(), 0);
        assert!(nm.alloc(1).is_none(), "pool exhausted");
        assert!(nm.free(a));
        assert_eq!(nm.pages_free(), 5);
        assert!(nm.free(b));
        assert_eq!(nm.pages_free(), 8);
        assert!(!nm.free(a), "double free rejected");
    }

    #[test]
    fn packets_are_page_granular() {
        let mut nm = NetworkMemory::new(64 * 1024, 8 * 1024);
        // A 1-byte packet still consumes a whole page (page-boundary rule).
        let ids: Vec<_> = (0..8).map(|_| nm.alloc(1).unwrap()).collect();
        assert_eq!(nm.pages_free(), 0);
        assert_eq!(ids.len(), 8);
        assert!(nm.alloc(1).is_none());
    }

    #[test]
    fn read_respects_valid_watermark() {
        let mut nm = NetworkMemory::new(64 * 1024, 8 * 1024);
        let id = nm.alloc(100).unwrap();
        {
            let p = nm.get_mut(id).unwrap();
            p.data[..50].copy_from_slice(&[7u8; 50]);
            p.valid = 50;
        }
        let mut buf = [0u8; 10];
        assert!(nm.read(id, 40, &mut buf));
        assert_eq!(buf, [7u8; 10]);
        assert!(!nm.read(id, 45, &mut buf), "beyond valid data");
        assert!(!nm.read(PacketId(999), 0, &mut buf), "unknown packet");
    }

    #[test]
    fn zero_length_alloc_rejected() {
        let mut nm = NetworkMemory::new(64 * 1024, 8 * 1024);
        assert!(nm.alloc(0).is_none());
        assert_eq!(
            nm.alloc_failures(),
            0,
            "zero-length is a caller bug, not pressure"
        );
    }

    #[test]
    fn occupancy_counters_track_pool_pressure() {
        let mut nm = NetworkMemory::new(64 * 1024, 8 * 1024); // 8 pages
        let a = nm.alloc(40 * 1024).unwrap(); // 5 pages
        assert_eq!(nm.pages_hwm(), 5);
        assert!(nm.free(a));
        // HWM sticks after the pool drains.
        assert_eq!(nm.pages_hwm(), 5);
        let b = nm.alloc(8 * 1024 * 7).unwrap(); // 7 pages
        assert_eq!(nm.pages_hwm(), 7);
        assert!(nm.alloc(2 * 8 * 1024).is_none(), "only 1 page left");
        assert_eq!(nm.allocs(), 2);
        assert_eq!(nm.alloc_failures(), 1);
        assert_eq!(nm.frees(), 1);
        assert!(nm.free(b));
        assert_eq!(nm.frees(), 2);
    }
}
