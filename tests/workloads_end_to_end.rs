//! End-to-end correctness: every benchmark's DDM decomposition, executed on
//! the real threaded TFluxSoft runtime, produces the same result as its
//! sequential reference.

use tflux::workloads::setup::verify_runtime;
use tflux::workloads::sizes::SizeClass;
use tflux::workloads::{Bench, Params};

#[test]
fn trapez_matches_reference_on_runtime() {
    let p = Params::soft(4, 8192, SizeClass::Small);
    verify_runtime(Bench::Trapez, &p).unwrap();
}

#[test]
fn mmult_matches_reference_on_runtime() {
    // simulated Small size (64x64) keeps the threaded run fast
    let p = Params::hard(4, 4, SizeClass::Small);
    verify_runtime(Bench::Mmult, &p).unwrap();
}

#[test]
fn qsort_matches_reference_on_runtime() {
    let p = Params::cell(4, 1, SizeClass::Medium); // 6K elements
    verify_runtime(Bench::Qsort, &p).unwrap();
}

#[test]
fn susan_matches_reference_on_runtime() {
    let p = Params::soft(4, 16, SizeClass::Small);
    verify_runtime(Bench::Susan, &p).unwrap();
}

#[test]
fn fft_matches_reference_on_runtime() {
    let p = Params::soft(4, 4, SizeClass::Small);
    verify_runtime(Bench::Fft, &p).unwrap();
}

#[test]
fn every_benchmark_verifies_with_one_kernel() {
    // single kernel = fully serialized; results must be identical
    for bench in Bench::ALL {
        let p = match bench {
            Bench::Trapez => Params::soft(1, 16384, SizeClass::Small),
            Bench::Mmult => Params::hard(1, 8, SizeClass::Small),
            Bench::Qsort => Params::cell(1, 1, SizeClass::Small),
            Bench::Susan => Params::soft(1, 32, SizeClass::Small),
            Bench::Fft => Params::soft(1, 8, SizeClass::Small),
        };
        verify_runtime(bench, &p).unwrap_or_else(|e| panic!("{bench:?}: {e}"));
    }
}

#[test]
fn odd_kernel_and_unroll_combinations() {
    // ragged partitions, kernels that don't divide arity
    verify_runtime(Bench::Mmult, &Params::hard(3, 5, SizeClass::Small)).unwrap();
    verify_runtime(Bench::Susan, &Params::soft(5, 7, SizeClass::Small)).unwrap();
    verify_runtime(Bench::Fft, &Params::soft(3, 3, SizeClass::Small)).unwrap();
    verify_runtime(Bench::Qsort, &Params::cell(5, 1, SizeClass::Small)).unwrap();
}
