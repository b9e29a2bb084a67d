//! Harness plumbing: build (program, cost model) pairs for any benchmark on
//! any platform, with the per-platform grain (unroll) defaults the paper's
//! methodology arrives at.
//!
//! §5: "we evaluated variations with the basic loops being unrolled from 1
//! to 64 times ... we used the variation that gave the minimum execution
//! time". §6.2.2: TFluxHard peaks with small unroll factors (2–4) while
//! TFluxSoft needs >16; §6.3: TFluxCell needs up to 64 (MMULT). The
//! defaults below encode those findings; the unroll ablation harness sweeps
//! the factor explicitly to *reproduce* them.

use crate::common::{Costed, Describe, Params};
use crate::sizes::Platform;
use crate::{fft, mmult, qsort, susan, trapez, Bench};
use tflux_cell::work::CellWorkSource;
use tflux_core::DdmProgram;
use tflux_sim::work::WorkSource;

/// The default unroll factor for a benchmark on a platform.
///
/// TRAPEZ iterates over single quadrature points, so its natural loop is
/// three orders of magnitude finer than MMULT's row loop; the factors keep
/// per-DThread work in the range each platform's per-thread overhead
/// demands (hard: ~10 cycles, soft: ~1 k cycles, cell: ~2 k cycles + DMA).
pub fn default_unroll(bench: Bench, platform: Platform) -> u32 {
    match (bench, platform) {
        (Bench::Trapez, Platform::Simulated) => 512,
        (Bench::Trapez, Platform::Native) => 4_096,
        (Bench::Trapez, Platform::Cell) => 32_768,
        (Bench::Mmult, Platform::Simulated) => 2,
        (Bench::Mmult, Platform::Native) => 16,
        (Bench::Mmult, Platform::Cell) => 64,
        (Bench::Qsort, _) => 1, // QSORT's grain is its partition count
        (Bench::Susan, Platform::Simulated) => 4,
        (Bench::Susan, Platform::Native) => 16,
        (Bench::Susan, Platform::Cell) => 32,
        (Bench::Fft, Platform::Simulated) => 2,
        (Bench::Fft, Platform::Native) => 8,
        (Bench::Fft, Platform::Cell) => 8,
    }
}

/// Fill in the platform-default unroll for a parameter set.
pub fn with_default_unroll(bench: Bench, mut p: Params) -> Params {
    p.unroll = default_unroll(bench, p.platform);
    p
}

/// §5 methodology: "we evaluated variations with the basic loops being
/// unrolled from 1 to 64 times ... we used the variation that gave the
/// minimum execution time." Sweep the given unroll factors on the machine
/// and return `(best_unroll, best_cycles)`.
///
/// Factors are *relative* to the platform default (which encodes each
/// benchmark's natural loop granularity); factor 0 entries are skipped.
pub fn best_unroll(
    bench: Bench,
    machine: &tflux_sim::Machine,
    base: Params,
    factors: &[u32],
) -> (u32, u64) {
    let mut best = (0u32, u64::MAX);
    for &u in factors {
        if u == 0 {
            continue;
        }
        let p = Params { unroll: u, ..base };
        let (prog, src) = sim_setup(bench, &p);
        let cycles = machine
            .run(&prog, src.as_ref())
            .expect("unroll sweep simulation failed")
            .cycles;
        if cycles < best.1 {
            best = (u, cycles);
        }
    }
    best
}

/// What a caller makes of a benchmark's cost model: `Machine`'s or the
/// Cell's boxed input. A type parameter, so a binary that only simulates
/// `Machine` carries no Cell code.
trait View {
    type Out;
    fn of<D: Describe + Send + Sync + 'static>(model: Costed<D>) -> Self::Out;
}

struct OnMachine;

impl View for OnMachine {
    type Out = Box<dyn WorkSource + Send + Sync>;
    fn of<D: Describe + Send + Sync + 'static>(model: Costed<D>) -> Self::Out {
        Box::new(model)
    }
}

struct OnCell;

impl View for OnCell {
    type Out = Box<dyn CellWorkSource + Send + Sync>;
    fn of<D: Describe + Send + Sync + 'static>(model: Costed<D>) -> Self::Out {
        Box::new(model)
    }
}

/// The DDM program and cost model of a benchmark: the one per-benchmark
/// dispatch behind every `*_setup` and `*_baseline`.
fn model<V: View>(bench: Bench, p: &Params) -> (DdmProgram, V::Out) {
    match bench {
        Bench::Trapez => {
            let (prog, ids) = trapez::program(p);
            let arity = prog.thread(ids.work).arity;
            (prog, V::of(trapez::model(p, ids, arity)))
        }
        Bench::Mmult => {
            let (prog, ids) = mmult::program(p);
            (prog, V::of(mmult::model(p, ids)))
        }
        Bench::Qsort => {
            let (prog, ids) = qsort::program(p);
            (prog, V::of(qsort::model(p, ids)))
        }
        Bench::Susan => {
            let (prog, ids) = susan::program(p);
            (prog, V::of(susan::model(p, ids)))
        }
        Bench::Fft => {
            let (prog, ids) = fft::program(p);
            (prog, V::of(fft::model(p, ids)))
        }
    }
}

/// The sequential baseline's program and cost model (see [`sim_baseline`]).
fn baseline<V: View>(bench: Bench, p: &Params) -> (DdmProgram, V::Out) {
    match bench {
        Bench::Qsort => {
            let (prog, src) = qsort::seq_sim_program(p);
            (prog, V::of(src))
        }
        _ => model::<V>(bench, p),
    }
}

/// Build the DDM program and simulator cost model for a benchmark.
pub fn sim_setup(bench: Bench, p: &Params) -> (DdmProgram, Box<dyn WorkSource + Send + Sync>) {
    model::<OnMachine>(bench, p)
}

/// Build the *sequential baseline* program and model: the original
/// sequential program, per §5 ("the baseline program is the original
/// sequential one, i.e. without any TFlux overheads"). For TRAPEZ, MMULT,
/// SUSAN and FFT the DDM instances executed back-to-back perform exactly the
/// original computation, so the DDM program doubles as the baseline; QSORT's
/// decomposition does *more* work than plain quicksort (it adds the merge
/// tree), so its baseline is a dedicated full-array-quicksort model.
pub fn sim_baseline(bench: Bench, p: &Params) -> (DdmProgram, Box<dyn WorkSource + Send + Sync>) {
    baseline::<OnMachine>(bench, p)
}

/// Build the DDM program and Cell cost model for a benchmark.
pub fn cell_setup(bench: Bench, p: &Params) -> (DdmProgram, Box<dyn CellWorkSource + Send + Sync>) {
    model::<OnCell>(bench, p)
}

/// The Cell-side sequential baseline (see [`sim_baseline`]).
pub fn cell_baseline(
    bench: Bench,
    p: &Params,
) -> (DdmProgram, Box<dyn CellWorkSource + Send + Sync>) {
    baseline::<OnCell>(bench, p)
}

/// Run a benchmark's DDM decomposition on the real threaded runtime and
/// verify the result against the sequential reference. Returns an error
/// string on mismatch. Used by integration tests and the harness's
/// `verify` command.
pub fn verify_runtime(bench: Bench, p: &Params) -> Result<(), String> {
    match bench {
        Bench::Trapez => {
            let n = crate::sizes::trapez_intervals(p.size);
            let got = trapez::run_ddm(p);
            let want = trapez::seq(n);
            if (got - want).abs() < 1e-9 {
                Ok(())
            } else {
                Err(format!("TRAPEZ: {got} != {want}"))
            }
        }
        Bench::Mmult => {
            let n = crate::sizes::mmult_n(p.size, p.platform);
            let (a, b) = mmult::inputs(n);
            if mmult::run_ddm(p) == mmult::seq(&a, &b, n) {
                Ok(())
            } else {
                Err("MMULT: matrix mismatch".into())
            }
        }
        Bench::Qsort => {
            let n = crate::sizes::qsort_n(p.size, p.platform);
            if qsort::run_ddm(p) == qsort::seq(n) {
                Ok(())
            } else {
                Err("QSORT: order mismatch".into())
            }
        }
        Bench::Susan => {
            let (w, h) = crate::sizes::susan_dims(p.size);
            if susan::run_ddm(p) == susan::seq(w, h) {
                Ok(())
            } else {
                Err("SUSAN: image mismatch".into())
            }
        }
        Bench::Fft => {
            let n = crate::sizes::fft_n(p.size);
            let (m_ddm, _) = fft::run_ddm(p);
            let (m_seq, _) = fft::seq(n);
            let ok = m_ddm
                .iter()
                .zip(&m_seq)
                .all(|(a, b)| a.re.to_bits() == b.re.to_bits() && a.im.to_bits() == b.im.to_bits());
            if ok {
                Ok(())
            } else {
                Err("FFT: matrix mismatch".into())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sizes::SizeClass;
    use tflux_core::{Context, Instance, ThreadId};
    use tflux_sim::{Machine, MachineConfig};

    #[test]
    fn sim_setup_builds_every_benchmark() {
        for bench in Bench::ALL {
            let p = with_default_unroll(bench, Params::hard(4, 0, SizeClass::Small));
            let (prog, src) = sim_setup(bench, &p);
            assert!(prog.total_instances() > 0, "{bench:?}");
            // tiny smoke run
            let r = Machine::new(MachineConfig::bagle(2))
                .run(&prog, src.as_ref())
                .expect("sim run");
            assert_eq!(r.instances, prog.total_instances(), "{bench:?}");
        }
    }

    #[test]
    fn cell_setup_builds_cell_benchmarks() {
        for bench in Bench::ALL {
            let p = with_default_unroll(bench, Params::cell(2, 0, SizeClass::Small));
            let (prog, src) = cell_setup(bench, &p);
            let m = tflux_cell::CellMachine::new(tflux_cell::CellConfig::ps3().with_spes(2));
            let r = m.run(&prog, src.as_ref()).expect("cell run");
            assert_eq!(r.instances, prog.total_instances(), "{bench:?}");
        }
    }

    #[test]
    fn one_description_costs_every_platform() {
        // every instance's SPE compute is its `Machine` compute times the
        // benchmark's one Cell-only scale
        for bench in Bench::ALL {
            let scale = match bench {
                Bench::Qsort => qsort::SPE_SCALAR_PENALTY,
                _ => 1,
            };
            let p = with_default_unroll(bench, Params::cell(4, 0, SizeClass::Small));
            let (prog, sim) = sim_setup(bench, &p);
            let (_, cell) = cell_setup(bench, &p);
            let mut w = tflux_sim::work::InstanceWork::default();
            for (t, spec) in prog.threads().iter().enumerate() {
                for c in 0..spec.arity {
                    let inst = Instance::new(ThreadId(t as u32), Context(c));
                    w.clear();
                    sim.work(inst, &mut w);
                    assert_eq!(
                        cell.work(inst).compute,
                        w.compute * scale,
                        "{bench:?} {inst:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn default_unrolls_are_coarser_on_software_platforms() {
        for bench in [Bench::Trapez, Bench::Mmult, Bench::Susan] {
            let h = default_unroll(bench, Platform::Simulated);
            let s = default_unroll(bench, Platform::Native);
            let c = default_unroll(bench, Platform::Cell);
            assert!(s > h, "{bench:?}");
            assert!(c >= s, "{bench:?}");
        }
    }

    #[test]
    fn best_unroll_picks_the_minimum() {
        let m = tflux_sim::Machine::new(tflux_sim::MachineConfig::xeon_x3650(4));
        let base = Params {
            kernels: 4,
            unroll: 0,
            size: SizeClass::Small,
            platform: Platform::Simulated,
        };
        let (u, cycles) = best_unroll(Bench::Mmult, &m, base, &[1, 2, 4, 8, 16, 32]);
        assert!(cycles < u64::MAX);
        // the software platform must not pick the finest grain
        assert!(u > 1, "soft picked unroll {u}");
    }

    #[test]
    fn verify_runtime_small_sizes() {
        // the cheap ones here; full-size verification lives in the
        // integration test suite
        let p = with_default_unroll(Bench::Fft, Params::soft(3, 0, SizeClass::Small));
        verify_runtime(Bench::Fft, &p).unwrap();
        let p = with_default_unroll(Bench::Qsort, Params::cell(3, 0, SizeClass::Small));
        verify_runtime(Bench::Qsort, &p).unwrap();
    }
}
