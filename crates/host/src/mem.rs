//! Simulated user address spaces.
//!
//! Each task owns a contiguous buffer region holding *real bytes*; the CAB's
//! SDMA engine reads and writes them through the [`UserMemory`] trait, which
//! stands in for physical memory access after the VM system has pinned and
//! mapped the pages. Data integrity through the whole stack is checked
//! against these bytes end to end.

use crate::TaskId;
use std::collections::HashMap;

/// A failed user-memory access (bad task or out-of-range address).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MemFault {
    /// The task whose access faulted.
    pub task: TaskId,
    /// Faulting virtual address.
    pub vaddr: u64,
    /// Length of the attempted access.
    pub len: usize,
}

impl std::fmt::Display for MemFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "user memory fault: task {:?} vaddr {:#x} len {}",
            self.task, self.vaddr, self.len
        )
    }
}

impl std::error::Error for MemFault {}

/// Access to pinned user memory, as the DMA engine sees it.
pub trait UserMemory {
    /// Read `dst.len()` bytes from a task's address space at `vaddr`.
    fn read_user(&self, task: TaskId, vaddr: u64, dst: &mut [u8]) -> Result<(), MemFault>;
    /// Write `src` into a task's address space at `vaddr`.
    fn write_user(&mut self, task: TaskId, vaddr: u64, src: &[u8]) -> Result<(), MemFault>;
}

#[derive(Debug)]
struct Region {
    base: u64,
    data: Vec<u8>,
}

/// All user address spaces on one host.
#[derive(Debug, Default)]
pub struct HostMem {
    // lint: allow(nondet-order, keyed lookup by task id, never iterated)
    regions: HashMap<TaskId, Region>,
}

impl HostMem {
    /// An arena with no task regions.
    pub fn new() -> HostMem {
        HostMem::default()
    }

    /// Create (or replace) a task's buffer region of `len` bytes based at
    /// virtual address `base`.
    pub fn create_region(&mut self, task: TaskId, base: u64, len: usize) {
        self.regions.insert(
            task,
            Region {
                base,
                data: vec![0; len],
            },
        );
    }

    /// Base virtual address of a task's region.
    pub fn region_base(&self, task: TaskId) -> Option<u64> {
        self.regions.get(&task).map(|r| r.base)
    }

    /// Size of a task's buffer region.
    pub fn region_len(&self, task: TaskId) -> Option<usize> {
        self.regions.get(&task).map(|r| r.data.len())
    }

    /// Direct mutable access for test setup / application writes.
    pub fn region_mut(&mut self, task: TaskId) -> Option<&mut Vec<u8>> {
        self.regions.get_mut(&task).map(|r| &mut r.data)
    }

    /// Read-only view of a task's whole region.
    pub fn region(&self, task: TaskId) -> Option<&[u8]> {
        self.regions.get(&task).map(|r| r.data.as_slice())
    }

    fn slice_of(&self, task: TaskId, vaddr: u64, len: usize) -> Result<(usize, usize), MemFault> {
        let fault = MemFault { task, vaddr, len };
        let region = self.regions.get(&task).ok_or(fault)?;
        let off = vaddr.checked_sub(region.base).ok_or(fault)? as usize;
        let end = off.checked_add(len).ok_or(fault)?;
        if end > region.data.len() {
            return Err(fault);
        }
        Ok((off, end))
    }

    /// Checked view of `len` bytes of a task's memory at `vaddr`, for
    /// applications that inspect their buffer in place.
    pub fn user_slice(&self, task: TaskId, vaddr: u64, len: usize) -> Result<&[u8], MemFault> {
        let (off, end) = self.slice_of(task, vaddr, len)?;
        Ok(&self.regions[&task].data[off..end])
    }

    /// Checked mutable view of `len` bytes of a task's memory at `vaddr`,
    /// for applications that fill their buffer in place.
    pub fn user_slice_mut(
        &mut self,
        task: TaskId,
        vaddr: u64,
        len: usize,
    ) -> Result<&mut [u8], MemFault> {
        let (off, end) = self.slice_of(task, vaddr, len)?;
        let fault = MemFault { task, vaddr, len };
        let region = self.regions.get_mut(&task).ok_or(fault)?;
        Ok(&mut region.data[off..end])
    }
}

impl UserMemory for HostMem {
    fn read_user(&self, task: TaskId, vaddr: u64, dst: &mut [u8]) -> Result<(), MemFault> {
        dst.copy_from_slice(self.user_slice(task, vaddr, dst.len())?);
        Ok(())
    }

    fn write_user(&mut self, task: TaskId, vaddr: u64, src: &[u8]) -> Result<(), MemFault> {
        self.user_slice_mut(task, vaddr, src.len())?
            .copy_from_slice(src);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip() {
        let mut hm = HostMem::new();
        let t = TaskId(1);
        hm.create_region(t, 0x1_0000, 4096);
        hm.write_user(t, 0x1_0000 + 100, &[1, 2, 3]).unwrap();
        let mut buf = [0u8; 3];
        hm.read_user(t, 0x1_0000 + 100, &mut buf).unwrap();
        assert_eq!(buf, [1, 2, 3]);
    }

    #[test]
    fn faults_on_bad_access() {
        let mut hm = HostMem::new();
        let t = TaskId(1);
        hm.create_region(t, 0x1000, 100);
        let mut buf = [0u8; 8];
        // Unknown task.
        assert!(hm.read_user(TaskId(9), 0x1000, &mut buf).is_err());
        // Below base.
        assert!(hm.read_user(t, 0xFF0, &mut buf).is_err());
        // Overruns the region.
        assert!(hm.read_user(t, 0x1000 + 96, &mut buf).is_err());
        assert!(hm.write_user(t, 0x1000 + 96, &buf).is_err());
        // Exactly at the end is fine.
        assert!(hm.read_user(t, 0x1000 + 92, &mut buf).is_ok());
    }

    #[test]
    fn user_slices_share_the_fault_checks() {
        let mut hm = HostMem::new();
        let t = TaskId(1);
        hm.create_region(t, 0x1000, 100);
        hm.user_slice_mut(t, 0x1000 + 10, 4)
            .unwrap()
            .copy_from_slice(&[9, 8, 7, 6]);
        assert_eq!(hm.user_slice(t, 0x1000 + 10, 4).unwrap(), &[9, 8, 7, 6]);
        assert_eq!(hm.user_slice(t, 0x1000 + 100, 0).unwrap(), &[] as &[u8]);
        let overrun = MemFault {
            task: t,
            vaddr: 0x1000 + 96,
            len: 8,
        };
        assert_eq!(hm.user_slice(t, 0x1000 + 96, 8), Err(overrun));
        assert_eq!(hm.user_slice_mut(t, 0x1000 + 96, 8).err(), Some(overrun));
        assert!(hm.user_slice(t, 0xFF0, 4).is_err());
        assert!(hm.user_slice_mut(TaskId(9), 0x1000, 4).is_err());
    }

    #[test]
    fn regions_are_isolated() {
        let mut hm = HostMem::new();
        hm.create_region(TaskId(1), 0x1000, 64);
        hm.create_region(TaskId(2), 0x1000, 64);
        hm.write_user(TaskId(1), 0x1000, &[7; 8]).unwrap();
        let mut buf = [0u8; 8];
        hm.read_user(TaskId(2), 0x1000, &mut buf).unwrap();
        assert_eq!(buf, [0; 8], "same vaddr, different address space");
    }
}
