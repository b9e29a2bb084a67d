//! # TFlux — umbrella crate
//!
//! A from-scratch Rust reproduction of *TFlux: A Portable Platform for
//! Data-Driven Multithreading on Commodity Multicore Systems* (Stavrou et
//! al., ICPP 2008). This facade re-exports every subsystem so examples and
//! downstream users can depend on a single crate:
//!
//! * [`core`] — the DDM model: DThreads, synchronization graphs, DDM
//!   blocks, and the target-independent TSU state machine.
//! * [`runtime`] — TFluxSoft: the real threaded runtime — kernel threads
//!   sharing a software TSU, per-kernel Synchronization Memories — and the
//!   multi-tenant program server.
//! * [`sim`] — TFluxHard: a deterministic discrete-event multicore
//!   simulator with MESI caches and a memory-mapped hardware TSU Group.
//! * [`cell`] — TFluxCell: a simulated Cell/BE (PPE + SPEs, Local Stores,
//!   DMA, mailboxes) running DDM programs.
//! * [`ddmcpp`] — the DDM C preprocessor: `#pragma ddm` front-end and
//!   per-target code-generating back-ends.
//! * [`workloads`] — the paper's five-benchmark suite (TRAPEZ, MMULT,
//!   QSORT, SUSAN, FFT) with sequential references, DDM decompositions and
//!   simulator trace models.
//!
//! See `README.md` for a walkthrough and `EXPERIMENTS.md` for the
//! paper-figure reproductions.

pub use tflux_cell as cell;
pub use tflux_core as core;
pub use tflux_ddmcpp as ddmcpp;
pub use tflux_runtime as runtime;
pub use tflux_sim as sim;
pub use tflux_workloads as workloads;
