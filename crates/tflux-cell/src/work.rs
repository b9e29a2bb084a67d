//! Cell work models: what one DThread instance costs on an SPE.

use tflux_core::Instance;

/// Cost description of one instance on an SPE.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CellWork {
    /// Compute cycles executed from the Local Store.
    pub compute: u64,
    /// Bytes imported from the SharedVariableBuffer before starting.
    pub import_bytes: u64,
    /// Bytes exported to the SharedVariableBuffer after completing.
    pub export_bytes: u64,
    /// Peak Local Store footprint: code + buffers + imported data.
    pub ls_bytes: u64,
}

impl CellWork {
    /// Compute-only work with a given footprint.
    pub fn compute(cycles: u64, ls_bytes: u64) -> Self {
        CellWork {
            compute: cycles,
            ls_bytes,
            ..Default::default()
        }
    }
}

/// Produces the Cell cost of every instance of a program. Inlet/outlet
/// instances should be zero-cost.
pub trait CellWorkSource {
    /// The cost of `inst`.
    fn work(&self, inst: Instance) -> CellWork;
}

/// Fixed cost per instance (tests, microbenchmarks).
#[derive(Clone, Copy, Debug)]
pub struct UniformCellWork {
    /// Cost applied to every instance.
    pub work: CellWork,
}

impl CellWorkSource for UniformCellWork {
    fn work(&self, _inst: Instance) -> CellWork {
        self.work
    }
}

/// Closure adapter.
pub struct FnCellWork<F>(pub F);

impl<F: Fn(Instance) -> CellWork> CellWorkSource for FnCellWork<F> {
    fn work(&self, inst: Instance) -> CellWork {
        (self.0)(inst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tflux_core::{Context, ThreadId};

    #[test]
    fn uniform_source() {
        let s = UniformCellWork {
            work: CellWork::compute(100, 4096),
        };
        let w = s.work(Instance::new(ThreadId(0), Context(1)));
        assert_eq!(w.compute, 100);
        assert_eq!(w.ls_bytes, 4096);
        assert_eq!(w.import_bytes, 0);
    }

    #[test]
    fn fn_source() {
        let s = FnCellWork(|i: Instance| CellWork {
            compute: i.context.0 as u64,
            import_bytes: 64,
            export_bytes: 32,
            ls_bytes: 128,
        });
        assert_eq!(s.work(Instance::new(ThreadId(0), Context(9))).compute, 9);
    }
}
