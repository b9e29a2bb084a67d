//! # tflux-workloads — the paper's benchmark suite
//!
//! The five benchmarks of Table 1, each implemented three ways:
//!
//! 1. a **sequential reference** (`seq_*` functions) — the real
//!    computation, used as the correctness oracle and as the conceptual
//!    baseline of the speedup figures;
//! 2. a **DDM decomposition for the real runtime** (`run_ddm` functions) —
//!    builds a [`DdmProgram`](tflux_core::DdmProgram) with actual Rust
//!    bodies, runs it on `tflux-runtime`, and returns the computed result
//!    so tests can check it bit-for-bit against the reference. Data moves
//!    between DThreads through explicit
//!    [`SharedVar`](tflux_runtime::SharedVar) slots — the same
//!    produce/export → import/consume discipline TFluxCell uses;
//! 3. **one cost description** (`model` functions, one `Describe` impl each) —
//!    the same decomposition as each instance's compute cycles plus region
//!    touches. `Machine` expands the touches into cache-line accesses; the
//!    Cell sums them into DMA bytes and Local Store footprint, adding only
//!    a per-benchmark SPE compute scale and fixed Local Store bytes
//!    (`CellCosts`). `setup::{sim_setup, cell_setup}` hand the
//!    figure harness either view. These model the paper's in-place C
//!    decomposition (workers write results directly into shared arrays).
//!
//! | Benchmark | Source (paper) | Decomposition |
//! |-----------|----------------|---------------|
//! | TRAPEZ | custom kernel \[15\] | chunked quadrature + reduction; near-zero data transfer |
//! | MMULT | custom kernel \[15\] | row-blocked matrix multiply; coherency-miss bound |
//! | QSORT | MiBench | init → partition sorters → two-level merge tree |
//! | SUSAN | MiBench | three independently-parallelized phases (init, smooth, write-out) as three DDM blocks |
//! | FFT | NAS | 2-D FFT: row-FFT phase, column-FFT phase, checksum — phases synchronize through block boundaries |

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod common;
pub mod fft;
pub mod mmult;
pub mod qsort;
pub mod setup;
pub mod sizes;
pub mod susan;
pub mod trapez;

pub use common::Params;
pub use sizes::{Platform, SizeClass};

/// The five benchmarks, as an enum for harness dispatch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Bench {
    /// Trapezoidal-rule integration.
    Trapez,
    /// Matrix multiply.
    Mmult,
    /// Array sorting (MiBench qsort).
    Qsort,
    /// Image smoothing (MiBench SUSAN).
    Susan,
    /// 2-D FFT on a complex matrix (NAS).
    Fft,
}

impl Bench {
    /// All benchmarks in the paper's presentation order.
    pub const ALL: [Bench; 5] = [
        Bench::Trapez,
        Bench::Mmult,
        Bench::Qsort,
        Bench::Susan,
        Bench::Fft,
    ];

    /// The benchmarks run on TFluxCell (Fig. 7 omits FFT).
    pub const CELL: [Bench; 4] = [Bench::Trapez, Bench::Mmult, Bench::Qsort, Bench::Susan];

    /// Display name as the paper prints it.
    pub fn name(&self) -> &'static str {
        match self {
            Bench::Trapez => "TRAPEZ",
            Bench::Mmult => "MMULT",
            Bench::Qsort => "QSORT",
            Bench::Susan => "SUSAN",
            Bench::Fft => "FFT",
        }
    }
}
