//! The product crates export by name: each crate root's `pub use` list is
//! its interface, and its modules are private. A `pub mod` is allowed only
//! where code that cannot change with the crate spells the module path out:
//! the frozen end-to-end bench (`crates/tflux-e2e`) and the byte-pinned
//! DDMCPP goldens. `#![warn(unreachable_pub)]` cannot catch a new `pub mod`
//! (everything under it becomes reachable), so this scan does, and it also
//! drops a floor entry once the line that needed it is gone.

/// The six product crate roots.
const ROOTS: &[(&str, &str)] = &[
    (
        "tflux_core",
        include_str!("../crates/tflux-core/src/lib.rs"),
    ),
    (
        "tflux_runtime",
        include_str!("../crates/tflux-runtime/src/lib.rs"),
    ),
    ("tflux_sim", include_str!("../crates/tflux-sim/src/lib.rs")),
    (
        "tflux_cell",
        include_str!("../crates/tflux-cell/src/lib.rs"),
    ),
    (
        "tflux_ddmcpp",
        include_str!("../crates/tflux-ddmcpp/src/lib.rs"),
    ),
    (
        "tflux_workloads",
        include_str!("../crates/tflux-workloads/src/lib.rs"),
    ),
];

const E2E_API: &str = include_str!("../crates/tflux-e2e/src/api.rs");
const SIM_GOLDEN: &str = include_str!("../examples/generated_vecnorm_sim.rs");
const WORKLOAD_MODULES: &str = "use tflux_workloads::{fft, mmult, qsort, sizes, susan, trapez};";

/// The floor: `(module path, source that names it, the line in that source)`.
const FLOOR: &[(&str, &str, &str)] = &[
    (
        "tflux_core::split",
        E2E_API,
        "tflux_core::split::split_for_capacity",
    ),
    (
        "tflux_ddmcpp::codegen",
        E2E_API,
        "tflux_ddmcpp::codegen::generate",
    ),
    (
        "tflux_ddmcpp::lower",
        E2E_API,
        "tflux_ddmcpp::lower::to_program",
    ),
    (
        "tflux_ddmcpp::print",
        E2E_API,
        "tflux_ddmcpp::print::print_module",
    ),
    (
        "tflux_cell::work",
        E2E_API,
        "tflux_cell::work::UniformCellWork",
    ),
    // the sim back-end's emitted `use`, pinned by tests/codegen_golden.rs
    (
        "tflux_sim::work",
        SIM_GOLDEN,
        "use tflux_sim::work::{FnWork, InstanceWork};",
    ),
    ("tflux_workloads::fft", E2E_API, WORKLOAD_MODULES),
    ("tflux_workloads::mmult", E2E_API, WORKLOAD_MODULES),
    ("tflux_workloads::qsort", E2E_API, WORKLOAD_MODULES),
    (
        "tflux_workloads::setup",
        E2E_API,
        "tflux_workloads::setup::sim_setup",
    ),
    ("tflux_workloads::sizes", E2E_API, WORKLOAD_MODULES),
    ("tflux_workloads::susan", E2E_API, WORKLOAD_MODULES),
    ("tflux_workloads::trapez", E2E_API, WORKLOAD_MODULES),
];

/// `crate::module` for every `pub mod module;` line of every root (the
/// inline `pub mod prelude { .. }` is a list of re-exports, not a module
/// file, and is not matched).
fn public_modules() -> Vec<String> {
    ROOTS
        .iter()
        .flat_map(|(krate, src)| {
            src.lines()
                .filter_map(|l| l.strip_prefix("pub mod "))
                .filter_map(|l| l.strip_suffix(';'))
                .map(move |m| format!("{krate}::{m}"))
        })
        .collect()
}

#[test]
fn only_the_floor_is_a_public_module() {
    let public = public_modules();
    for m in &public {
        assert!(
            FLOOR.iter().any(|(f, _, _)| f == m),
            "`pub mod` {m} is outside the floor: make it `mod` and re-export \
             what callers need from the crate root"
        );
    }
    // guards the guard: a layout change must not pass vacuously
    assert_eq!(
        public.len(),
        FLOOR.len(),
        "floor entries that are not `pub mod`"
    );
}

#[test]
fn every_floor_entry_is_still_needed() {
    for (module, source, line) in FLOOR {
        assert!(
            source.contains(line),
            "{module} is on the floor for `{line}`, which is gone: make it private"
        );
    }
}

#[test]
fn every_root_warns_on_unreachable_pub() {
    for (krate, src) in ROOTS {
        assert!(
            src.contains("#![warn(unreachable_pub)]"),
            "{krate} does not warn on unreachable `pub`"
        );
    }
}
