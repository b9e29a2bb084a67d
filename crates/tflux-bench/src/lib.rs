//! # tflux-bench — the figure and table harness
//!
//! One function per artifact of the paper's evaluation section; the
//! `figures` binary prints them in the paper's row format and
//! `EXPERIMENTS.md` records paper-vs-measured. All performance numbers
//! come from the deterministic simulators (see DESIGN.md §1 for why), so
//! every row is exactly reproducible.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod figures;
pub mod json;
pub mod render;
pub mod tsu_path;

pub use figures::{
    calibrate_soft_overhead, fig5, fig5_x86, fig6, fig7, qsort_tree_depth, table1_text,
    tsu_group_ablation, tsu_groups_scaling, tsu_latency, tub_contention, unroll_study, FigRow,
};
