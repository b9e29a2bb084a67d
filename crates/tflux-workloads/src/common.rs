//! Shared parameter types and trace-model helpers.

use tflux_sim::work::{InstanceWork, MemAccess};

/// Parameters of one benchmark execution.
#[derive(Clone, Copy, Debug)]
pub struct Params {
    /// Kernel (execution node) count.
    pub kernels: u32,
    /// Loop unroll factor (iterations per DThread instance, §5).
    pub unroll: u32,
    /// Problem-size class.
    pub size: crate::sizes::SizeClass,
    /// Target platform (selects Table-1 sizes).
    pub platform: crate::sizes::Platform,
}

impl Params {
    /// Parameters for the simulated TFluxHard machine.
    pub fn hard(kernels: u32, unroll: u32, size: crate::sizes::SizeClass) -> Self {
        Params {
            kernels,
            unroll,
            size,
            platform: crate::sizes::Platform::Simulated,
        }
    }

    /// Parameters for the native/soft platform.
    pub fn soft(kernels: u32, unroll: u32, size: crate::sizes::SizeClass) -> Self {
        Params {
            kernels,
            unroll,
            size,
            platform: crate::sizes::Platform::Native,
        }
    }

    /// Parameters for the Cell platform.
    pub fn cell(kernels: u32, unroll: u32, size: crate::sizes::SizeClass) -> Self {
        Params {
            kernels,
            unroll,
            size,
            platform: crate::sizes::Platform::Cell,
        }
    }
}

/// A typed array region in the simulated address space.
#[derive(Clone, Copy, Debug)]
pub struct Region {
    /// Base byte address.
    pub base: u64,
    /// Element size in bytes.
    pub elem: u64,
}

/// Cache line size assumed by the trace generators (both machine presets
/// use 64-byte L1 lines).
pub const LINE: u64 = 64;

impl Region {
    /// A region starting at `base` with `elem`-byte elements.
    pub const fn new(base: u64, elem: u64) -> Self {
        Region { base, elem }
    }

    /// Byte address of element `idx`.
    #[inline]
    pub fn addr(&self, idx: u64) -> u64 {
        self.base + idx * self.elem
    }

    /// Emit one access per cache line covered by elements `lo..hi`
    /// (a sequential scan at line granularity).
    pub fn scan(&self, out: &mut InstanceWork, lo: u64, hi: u64, write: bool) {
        if hi <= lo {
            return;
        }
        let start = self.addr(lo) / LINE;
        let end = (self.addr(hi - 1)) / LINE;
        for line in start..=end {
            out.accesses.push(MemAccess {
                addr: line * LINE,
                write,
            });
        }
    }

    /// Emit one access per element for a strided walk (each element on its
    /// own line when the stride ≥ line size).
    pub fn strided(&self, out: &mut InstanceWork, lo: u64, hi: u64, stride: u64, write: bool) {
        let mut i = lo;
        while i < hi {
            out.accesses.push(MemAccess {
                addr: self.addr(i),
                write,
            });
            i += stride;
        }
    }

    /// Bytes covered by `n` elements.
    pub fn bytes(&self, n: u64) -> u64 {
        n * self.elem
    }
}

/// Split iterations `0..n` into the contiguous range of instance `ctx`
/// when the loop is unrolled by `unroll` (helper mirroring
/// [`tflux_core::unroll::Unroll`] for u64 sizes).
pub fn chunk(n: u64, unroll: u32, ctx: u32) -> (u64, u64) {
    let u = unroll.max(1) as u64;
    let lo = ctx as u64 * u;
    let hi = (lo + u).min(n);
    (lo.min(n), hi)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn region_addresses() {
        let r = Region::new(0x1000, 8);
        assert_eq!(r.addr(0), 0x1000);
        assert_eq!(r.addr(10), 0x1050);
        assert_eq!(r.bytes(16), 128);
    }

    #[test]
    fn scan_emits_one_access_per_line() {
        let r = Region::new(0, 8);
        let mut w = InstanceWork::default();
        r.scan(&mut w, 0, 16, false); // 128 bytes = 2 lines
        assert_eq!(w.accesses.len(), 2);
        assert_eq!(w.accesses[0].addr, 0);
        assert_eq!(w.accesses[1].addr, 64);
        assert!(!w.accesses[0].write);
    }

    #[test]
    fn scan_respects_unaligned_base() {
        let r = Region::new(32, 8);
        let mut w = InstanceWork::default();
        r.scan(&mut w, 0, 8, true); // bytes 32..96 -> lines 0 and 1
        assert_eq!(w.accesses.len(), 2);
        assert!(w.accesses[0].write);
    }

    #[test]
    fn empty_scan_emits_nothing() {
        let r = Region::new(0, 8);
        let mut w = InstanceWork::default();
        r.scan(&mut w, 5, 5, false);
        assert!(w.accesses.is_empty());
    }

    #[test]
    fn strided_walk() {
        let r = Region::new(0, 8);
        let mut w = InstanceWork::default();
        r.strided(&mut w, 0, 32, 8, false);
        assert_eq!(w.accesses.len(), 4);
        assert_eq!(w.accesses[1].addr, 64);
    }

    #[test]
    fn chunking() {
        assert_eq!(chunk(100, 8, 0), (0, 8));
        assert_eq!(chunk(100, 8, 12), (96, 100));
        assert_eq!(chunk(100, 8, 13), (100, 100));
    }
}
