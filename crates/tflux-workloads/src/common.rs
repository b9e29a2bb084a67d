//! Shared parameter types and the one cost description every benchmark
//! writes: compute cycles plus region touches, which `Machine` expands into
//! cache-line accesses and the Cell sums into DMA bytes and Local Store
//! footprint.

use std::collections::BTreeMap;
use tflux_cell::work::{CellWork, CellWorkSource};
use tflux_core::Instance;
use tflux_sim::work::{InstanceWork, MemAccess, WorkSource};

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
    /// Whether the Cell keeps touched elements in the Local Store (`true`)
    /// or streams them through fixed buffers counted in
    /// [`CellCosts::ls_fixed`] (`false`).
    pub resident: bool,
}

/// Cache line size assumed by the trace generators (both machine presets
/// use 64-byte L1 lines).
pub(crate) const LINE: u64 = 64;

impl Region {
    /// A Local-Store-resident region starting at `base` with `elem`-byte
    /// elements.
    pub const fn new(base: u64, elem: u64) -> Self {
        Region {
            base,
            elem,
            resident: true,
        }
    }

    /// A region the Cell streams rather than holds (see [`Region::resident`]).
    pub const fn streamed(base: u64, elem: u64) -> Self {
        Region {
            resident: false,
            ..Region::new(base, elem)
        }
    }

    /// Byte address of element `idx`.
    #[inline]
    pub fn addr(&self, idx: u64) -> u64 {
        self.base + idx * self.elem
    }

    /// Touch elements `lo..hi` in order (a sequential scan).
    #[inline]
    pub fn scan<S: Sink>(&self, out: &mut S, lo: u64, hi: u64, write: bool) {
        out.scan(self, lo, hi, write);
    }

    /// Touch every `stride`-th element of `lo..hi` (a strided walk).
    #[inline]
    pub fn strided<S: Sink>(&self, out: &mut S, lo: u64, hi: u64, stride: u64, write: bool) {
        out.strided(self, lo, hi, stride, write);
    }
}

/// What an instance's cost description is written into: its compute
/// cycles plus its region touches, in program order.
///
/// `Machine` consumes it as [`InstanceWork`], a cache-line access trace;
/// the Cell as a tally of DMA bytes and Local Store footprint.
pub trait Sink {
    /// Set the instance's compute cycles.
    fn compute(&mut self, cycles: u64);
    /// Touch elements `lo..hi` of `region`.
    fn scan(&mut self, region: &Region, lo: u64, hi: u64, write: bool);
    /// Touch every `stride`-th element of `lo..hi` of `region`.
    fn strided(&mut self, region: &Region, lo: u64, hi: u64, stride: u64, write: bool);
}

/// One access per cache line a scan covers; one access per element of a
/// strided walk (each element on its own line when the stride ≥ line
/// size).
impl Sink for InstanceWork {
    #[inline]
    fn compute(&mut self, cycles: u64) {
        self.compute = cycles;
    }

    fn scan(&mut self, region: &Region, lo: u64, hi: u64, write: bool) {
        if hi <= lo {
            return;
        }
        let start = region.addr(lo) / LINE;
        let end = (region.addr(hi - 1)) / LINE;
        for line in start..=end {
            self.accesses.push(MemAccess {
                addr: line * LINE,
                write,
            });
        }
    }

    fn strided(&mut self, region: &Region, lo: u64, hi: u64, stride: u64, write: bool) {
        let mut i = lo;
        while i < hi {
            self.accesses.push(MemAccess {
                addr: region.addr(i),
                write,
            });
            i += stride;
        }
    }
}

/// A benchmark's one cost description: what every instance of its program
/// computes and touches. [`Costed`] turns it into both simulators' inputs.
pub trait Describe {
    /// The Cell-only constants; most benchmarks run their SPE code at PPE
    /// speed from a 32 KB code image.
    const CELL: CellCosts = CellCosts {
        spe_scale: 1,
        ls_fixed: 32 * 1024,
    };

    /// Write the work of `inst` into `out` (instances the description does
    /// not know, such as inlets and outlets, write nothing).
    fn describe<S: Sink>(&self, inst: Instance, out: &mut S);
}

/// What the Cell needs beyond a [`Describe`]: one constant pair per
/// benchmark.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CellCosts {
    /// Compute cycles on an SPE per cycle of the description.
    pub spe_scale: u64,
    /// Local Store bytes every instance holds besides its resident
    /// touches: code, stack and any fixed streaming buffers.
    pub ls_fixed: u64,
}

/// Disjoint, non-adjacent half-open byte ranges, keyed by start.
#[derive(Debug, Default)]
struct Bytes(BTreeMap<u64, u64>);

impl Bytes {
    fn insert(&mut self, mut lo: u64, mut hi: u64) {
        if let Some((&s, &e)) = self.0.range(..=lo).next_back() {
            if e >= hi {
                return;
            }
            if e >= lo {
                lo = s;
            }
        }
        while let Some((&s, &e)) = self.0.range(lo..=hi).next() {
            hi = hi.max(e);
            self.0.remove(&s);
        }
        self.0.insert(lo, hi);
    }

    /// Call `f` on each part of `lo..hi` the set does not cover.
    fn gaps(&self, lo: u64, hi: u64, mut f: impl FnMut(u64, u64)) {
        let mut at = lo;
        if let Some((_, &e)) = self.0.range(..=lo).next_back() {
            at = at.max(e);
        }
        for (&s, &e) in self.0.range(lo..hi) {
            if s > at {
                f(at, s);
            }
            at = at.max(e);
        }
        if at < hi {
            f(at, hi);
        }
    }

    fn len(&self) -> u64 {
        self.0.iter().map(|(s, e)| e - s).sum()
    }
}

/// The Cell's sink: one instance's touches summed into what crosses the
/// DMA engine and what the Local Store must hold.
#[derive(Debug, Default)]
struct Tally {
    compute: u64,
    written: Bytes,
    imported: Bytes,
    resident: Bytes,
}

impl Tally {
    fn touch(&mut self, region: &Region, lo: u64, hi: u64, write: bool) {
        if write {
            self.written.insert(lo, hi);
        } else {
            let imported = &mut self.imported;
            self.written.gaps(lo, hi, |a, b| imported.insert(a, b));
        }
        if region.resident {
            self.resident.insert(lo, hi);
        }
    }

    /// The instance's SPE cost: compute × `spe_scale`; imports are the
    /// distinct bytes read before the instance wrote them, exports the
    /// distinct bytes written, and the footprint `ls_fixed` plus the
    /// distinct bytes of resident touches. An instance that neither
    /// computes nor touches (an inlet, an outlet) costs nothing.
    fn cell_work(&self, costs: CellCosts) -> CellWork {
        // every touch lands in `written` or `imported`
        if self.compute == 0 && self.written.0.is_empty() && self.imported.0.is_empty() {
            return CellWork::default();
        }
        CellWork {
            compute: self.compute * costs.spe_scale,
            import_bytes: self.imported.len(),
            export_bytes: self.written.len(),
            ls_bytes: costs.ls_fixed + self.resident.len(),
        }
    }
}

impl Sink for Tally {
    fn compute(&mut self, cycles: u64) {
        self.compute = cycles;
    }

    fn scan(&mut self, region: &Region, lo: u64, hi: u64, write: bool) {
        if hi > lo {
            self.touch(region, region.addr(lo), region.addr(hi), write);
        }
    }

    fn strided(&mut self, region: &Region, lo: u64, hi: u64, stride: u64, write: bool) {
        let mut i = lo;
        while i < hi {
            let at = region.addr(i);
            self.touch(region, at, at + region.elem, write);
            i += stride;
        }
    }
}

/// A cost description as both simulators' input: `Machine` expands it
/// into line accesses, `CellMachine` sums it per instance into DMA bytes and
/// Local Store footprint.
#[derive(Clone, Copy, Debug)]
pub struct Costed<D>(pub D);

impl<D: Describe> WorkSource for Costed<D> {
    fn work(&self, inst: Instance, out: &mut InstanceWork) {
        self.0.describe(inst, out);
    }
}

impl<D: Describe> CellWorkSource for Costed<D> {
    fn work(&self, inst: Instance) -> CellWork {
        let mut tally = Tally::default();
        self.0.describe(inst, &mut tally);
        tally.cell_work(D::CELL)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn region_addresses() {
        let r = Region::new(0x1000, 8);
        assert_eq!(r.addr(0), 0x1000);
        assert_eq!(r.addr(10), 0x1050);
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
    fn tally_counts_distinct_bytes_once() {
        let costs = CellCosts {
            spe_scale: 3,
            ls_fixed: 1000,
        };
        // MMULT's B: a streamed range scanned n times is imported once and
        // never held
        let b = Region::streamed(0x2000, 8);
        let mut t = Tally::default();
        for _ in 0..5 {
            b.scan(&mut t, 0, 64, false);
        }
        t.compute(10);
        let w = t.cell_work(costs);
        assert_eq!((w.import_bytes, w.export_bytes), (64 * 8, 0));
        assert_eq!((w.compute, w.ls_bytes), (30, 1000));

        // QSORT's sequential baseline: reads of the instance's own earlier
        // writes are not imported; the writes are exported once
        let arr = Region::new(0x1000, 4);
        let mut t = Tally::default();
        arr.scan(&mut t, 0, 100, true);
        for _ in 0..3 {
            arr.scan(&mut t, 0, 100, false);
            arr.scan(&mut t, 0, 100, true);
        }
        // only the part of a read past the written prefix is imported
        arr.scan(&mut t, 50, 150, false);
        let w = t.cell_work(costs);
        assert_eq!((w.import_bytes, w.export_bytes), (50 * 4, 100 * 4));
        assert_eq!(w.ls_bytes, 1000 + 150 * 4);

        // MmultElem's B column: a strided walk counts its elements, not the
        // span it strides over, and a second walk adds nothing
        let mut t = Tally::default();
        b.strided(&mut t, 3, 3 + 64 * 64, 64, false);
        b.strided(&mut t, 3, 3 + 64 * 64, 64, false);
        b.strided(&mut t, 4, 4 + 64 * 64, 64, false);
        let w = t.cell_work(costs);
        assert_eq!((w.import_bytes, w.ls_bytes), (2 * 64 * 8, 1000));

        // nothing computed or touched: zero cost, like an inlet
        assert_eq!(Tally::default().cell_work(costs), CellWork::default());
    }
}
