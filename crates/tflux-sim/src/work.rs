//! Workload cost models: what a DThread instance does on a simulated core.
//!
//! A [`WorkSource`] maps every instance of a program to an [`InstanceWork`]:
//! pure compute cycles plus a stream of cache-line-granular memory accesses.
//! The simulator replays the stream through the cache/coherence model and
//! interleaves the compute cycles, producing the instance's execution time
//! on a particular core at a particular moment.
//!
//! Workload models for the paper's five benchmarks live in
//! `tflux-workloads`; this module defines the interface plus simple sources
//! used by tests and microbenchmarks.

use tflux_core::Instance;

/// One memory access (byte address; the caches derive their line).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MemAccess {
    /// Byte address.
    pub addr: u64,
    /// Whether this is a store.
    pub write: bool,
}

impl MemAccess {
    /// A load.
    pub fn read(addr: u64) -> Self {
        MemAccess { addr, write: false }
    }

    /// A store.
    pub fn write(addr: u64) -> Self {
        MemAccess { addr, write: true }
    }
}

/// The cost description of one DThread instance.
#[derive(Clone, Debug, Default)]
pub struct InstanceWork {
    /// Pure compute cycles, interleaved uniformly with the access stream.
    pub compute: u64,
    /// Memory accesses in program order.
    pub accesses: Vec<MemAccess>,
}

impl InstanceWork {
    /// Compute-only work.
    pub fn compute(cycles: u64) -> Self {
        InstanceWork {
            compute: cycles,
            accesses: Vec::new(),
        }
    }

    /// Reset for reuse (keeps the access allocation).
    pub fn clear(&mut self) {
        self.compute = 0;
        self.accesses.clear();
    }
}

/// Produces the cost description of every instance of a program.
///
/// Instances the source knows nothing about (inlets, outlets, pure
/// synchronization threads) should be given zero work.
pub trait WorkSource {
    /// Fill `out` (already cleared) with the work of `inst`.
    fn work(&self, inst: Instance, out: &mut InstanceWork);
}

/// Every instance costs the same fixed compute time; no memory traffic.
/// The simplest possible source — used for TSU/scheduling microbenchmarks
/// and tests where memory effects would be noise.
#[derive(Clone, Copy, Debug)]
pub struct UniformWork {
    /// Compute cycles per application instance.
    pub cycles: u64,
}

impl WorkSource for UniformWork {
    fn work(&self, _inst: Instance, out: &mut InstanceWork) {
        out.compute = self.cycles;
    }
}

/// Adapter: build a source from a closure.
pub struct FnWork<F>(pub F);

impl<F: Fn(Instance, &mut InstanceWork)> WorkSource for FnWork<F> {
    fn work(&self, inst: Instance, out: &mut InstanceWork) {
        (self.0)(inst, out);
    }
}

/// A source that streams sequentially through a private array region per
/// context — for cache-behaviour tests.
#[cfg(test)]
#[derive(Clone, Copy, Debug)]
pub(crate) struct StreamWork {
    /// Bytes each instance walks.
    pub(crate) bytes_per_instance: u64,
    /// Access stride in bytes.
    pub(crate) stride: u64,
    /// Base address of the shared region.
    pub(crate) base: u64,
    /// Whether instances write (true) or read (false).
    pub(crate) writes: bool,
    /// Compute cycles per access.
    pub(crate) cycles_per_access: u64,
}

#[cfg(test)]
impl WorkSource for StreamWork {
    fn work(&self, inst: Instance, out: &mut InstanceWork) {
        let start = self.base + inst.context.0 as u64 * self.bytes_per_instance;
        let n = self.bytes_per_instance / self.stride.max(1);
        for i in 0..n {
            out.accesses.push(MemAccess {
                addr: start + i * self.stride,
                write: self.writes,
            });
        }
        out.compute = n * self.cycles_per_access;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tflux_core::{Context, ThreadId};

    #[test]
    fn uniform_work_is_uniform() {
        let s = UniformWork { cycles: 100 };
        let mut w = InstanceWork::default();
        s.work(Instance::new(ThreadId(0), Context(3)), &mut w);
        assert_eq!(w.compute, 100);
        assert!(w.accesses.is_empty());
    }

    #[test]
    fn stream_work_partitions_by_context() {
        let s = StreamWork {
            bytes_per_instance: 256,
            stride: 64,
            base: 0x1000,
            writes: false,
            cycles_per_access: 2,
        };
        let mut w = InstanceWork::default();
        s.work(Instance::new(ThreadId(0), Context(1)), &mut w);
        assert_eq!(w.accesses.len(), 4);
        assert_eq!(w.accesses[0].addr, 0x1100);
        assert_eq!(w.accesses[3].addr, 0x11C0);
        assert_eq!(w.compute, 8);
    }

    #[test]
    fn clear_keeps_capacity() {
        let mut w = InstanceWork::default();
        w.accesses.extend((0..100).map(MemAccess::read));
        let cap = w.accesses.capacity();
        w.clear();
        assert_eq!(w.accesses.len(), 0);
        assert_eq!(w.accesses.capacity(), cap);
    }

    #[test]
    fn fn_work_delegates() {
        let s = FnWork(|inst: Instance, out: &mut InstanceWork| {
            out.compute = inst.context.0 as u64 * 10;
        });
        let mut w = InstanceWork::default();
        s.work(Instance::new(ThreadId(2), Context(5)), &mut w);
        assert_eq!(w.compute, 50);
    }
}
