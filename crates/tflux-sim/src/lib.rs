//! # tflux-sim — the TFluxHard substrate
//!
//! A deterministic, cycle-approximate, discrete-event simulator of a
//! shared-memory chip multiprocessor with a memory-mapped **hardware TSU
//! Group**, standing in for the paper's Simics/DML full-system setup
//! (§4.1/§6.1.1). It also provides a **software-TSU cost mode** so the
//! TFluxSoft speedup curves of Fig. 6 can be regenerated on a machine with
//! any number of host cores.
//!
//! What is modeled:
//!
//! * per-core L1 data caches and per-group unified L2 caches
//!   (set-associative, LRU), with the paper's Bagle and Xeon geometries as
//!   presets ([`MachineConfig::bagle`],
//!   [`MachineConfig::xeon_x3650`]);
//! * a MESI-style invalidation protocol over a shared, arbitrated system
//!   network — L2-to-L2 transfers, read-for-ownership upgrades, and L1
//!   invalidations are all charged bus time, so coherency misses and bus
//!   saturation limit scaling exactly where the paper says they do (MMULT);
//! * the **TSU Group** behind a Memory-Mapped Interface: every kernel↔TSU
//!   command costs an MMI access (paper: L1 latency + 4 cycles) plus a
//!   configurable TSU processing time (the §4.1 knob whose 1→128-cycle
//!   sweep changes performance by <1%);
//! * the kernel loop of Fig. 2 on every core: fetch → execute → complete,
//!   with cores parked (not polling) while the TSU has nothing ready;
//! * apart from the machine, §4.2's segmented Thread-to-Update Buffer in
//!   front of the software TSU Emulator, as an arbitrated port
//!   ([`simulate_tub`]).
//!
//! Workloads plug in as [`WorkSource`]s: for every DThread instance
//! they yield compute cycles plus a cache-line-granular memory access
//! stream. The simulator executes the *same* [`DdmProgram`]s as the real
//! runtime — scheduling decisions come from the same
//! [`Tsu`](tflux_core::Tsu), here built by
//! [`Tsu::new`](tflux_core::Tsu::new) for one thread driving every core.
//!
//! [`DdmProgram`]: tflux_core::DdmProgram

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod cache;
mod config;
mod error;
mod event;
mod machine;
mod memsys;
mod report;
mod tsu_dev;
mod tub;
pub mod work;

pub use config::{CacheConfig, ConfigError, MachineConfig, Topology, TsuCosts};
pub use error::SimError;
pub use event::EventQueue;
pub use machine::Machine;
pub use memsys::{AccessClass, MemStats, MemorySystem};
pub use report::SimReport;
pub use tflux_core::ExecTrace;
pub use tub::{simulate as simulate_tub, TubStats};
pub use work::{InstanceWork, MemAccess, WorkSource};
