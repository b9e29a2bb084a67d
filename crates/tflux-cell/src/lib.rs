//! # tflux-cell — TFluxCell, the simulated Cell/BE platform
//!
//! A deterministic model of §4.3 of the TFlux paper: a Sony PS3-class
//! Cell/BE with one **PPE** running the software TSU Emulator and six
//! usable **SPEs** running kernels out of their 256 KB Local Stores.
//!
//! The Cell-specific mechanisms the paper describes are all modeled, as
//! costs on one deterministic event queue:
//!
//! * **CommandBuffer** — the per-TSU buffer in main memory where a kernel
//!   "places a command ... whenever a DThread needs to notify its TSU of
//!   any event": a completion command's trip there and the PPE's scan that
//!   finds it (an SPE has at most one command in flight, so the buffer
//!   never fills);
//! * **SharedVariableBuffer** — produced data is *exported* to main memory
//!   after a DThread completes and *imported* into the consumer SPE's Local
//!   Store before it starts, via DMA ([`work::CellWork`] carries the byte
//!   counts; the DMA engine charges setup plus bandwidth, serialized over
//!   the element-interconnect bus);
//! * **mailboxes** — the kernel "waits on a mailbox for the information
//!   about the next DThread to be executed"; the PPE-side emulator polls
//!   the CommandBuffers round-robin and answers through them;
//! * **Local Store capacity** — an instance whose footprint exceeds the LS
//!   is a hard error ([`CellError::LocalStoreOverflow`]), which is
//!   exactly why the paper could not run QSORT beyond its Medium size on
//!   the PS3 (§6.3).
//!
//! Scheduling comes from the same [`Tsu`](tflux_core::Tsu) as every other
//! TFlux platform, and the PPE completes DThreads by the threaded
//! runtime's rule
//! ([`CompletionFunnel::complete`](tflux_core::CompletionFunnel::complete)).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod config;
mod machine;
mod report;
pub mod work;

pub use config::CellConfig;
pub use machine::{CellError, CellMachine};
pub use report::CellReport;
pub use work::{CellWork, CellWorkSource};
