//! # tflux-core — the Data-Driven Multithreading model
//!
//! This crate implements the target-independent heart of the TFlux platform
//! (Stavrou et al., *TFlux: A Portable Platform for Data-Driven
//! Multithreading on Commodity Multicore Systems*, ICPP 2008):
//!
//! * **DThreads** — non-overlapping sections of code scheduled in a
//!   data-driven manner, identified by a [`ThreadId`] and, for loop threads,
//!   a [`Context`] instance index.
//! * **Synchronization graphs** — producer/consumer arcs between DThreads
//!   with instance [`mapping::ArcMapping`]s (one-to-one, broadcast,
//!   reduction, merge trees, …).
//! * **DDM blocks** — subsets of the program small enough to fit in the TSU,
//!   chained by implicit *Inlet* and *Outlet* DThreads.
//! * **The TSU** ([`tsu`]) — the paper's §3.3 decomposition:
//!   [`tsu::GraphMemory`] (immutable program view), [`tsu::SyncMemory`]
//!   (lock-free ready counts + post-processing) and a per-kernel
//!   [`tsu::ReadyQueue`] (a Chase-Lev work-stealing [`tsu::StealDeque`]
//!   plus one locked inbox for other kernels' runs), composed once into
//!   [`tsu::Tsu`]. All three platforms (the software TSU of
//!   `tflux-runtime`, the simulated hardware TSU of `tflux-sim`, the Cell
//!   model of `tflux-cell`) drive that one `&self` state machine, with the
//!   same queue type; they differ only in whether one thread drives every
//!   kernel id ([`Tsu::new`]) or each kernel is a thread
//!   ([`Tsu::threaded`]), which is what makes the platform implementations
//!   directly comparable.
//!
//! The crate is deliberately free of I/O and unsafe code and spawns no
//! thread: it is the model, not a platform. Its one blocking call is the
//! [`tsu::EventCount`] a kernel thread parks on. Platforms live in
//! `tflux-runtime`, `tflux-sim` and `tflux-cell`.
//!
//! ## Quick tour
//!
//! ```
//! use tflux_core::prelude::*;
//!
//! // A two-block program: block 0 forks 4 workers off a source thread and
//! // reduces them into a sink; block 1 holds a final scalar thread.
//! let mut b = ProgramBuilder::new();
//! let blk0 = b.block();
//! let src = b.thread(blk0, ThreadSpec::scalar("src"));
//! let work = b.thread(blk0, ThreadSpec::new("work", 4));
//! let sink = b.thread(blk0, ThreadSpec::scalar("sink"));
//! b.arc(src, work, ArcMapping::Broadcast).unwrap();
//! b.arc(work, sink, ArcMapping::Reduction).unwrap();
//! let blk1 = b.block();
//! b.thread(blk1, ThreadSpec::scalar("done"));
//! let program = b.build().unwrap();
//!
//! // Drive the TSU units to completion on 2 virtual kernels.
//! let tsu = Tsu::new(&program, 2, TsuConfig::default());
//! let order = tflux_core::tsu::drain_sequential(&tsu).unwrap();
//! assert_eq!(order.len(), program.total_instances());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod block;
pub mod error;
pub mod graph;
pub mod ids;
pub mod mapping;
pub mod policy;
pub mod program;
pub mod rng;
pub mod split;
pub mod thread;
pub mod trace;
pub mod tsu;
pub mod unroll;

pub use block::DdmBlock;
pub use error::CoreError;
pub use ids::{BlockId, Context, Instance, KernelId, ProgramId, ThreadId};
pub use mapping::ArcMapping;
pub use policy::StealBackoff;
pub use program::{DdmProgram, ProgramBuilder};
pub use thread::{Affinity, ThreadKind, ThreadSpec};
pub use tsu::{
    CompletionFunnel, EventCount, FetchResult, FlushPolicy, GraphMemory, ProgramHandle, ReadyQueue,
    ServiceRotor, ShardStats, Steal, StealDeque, SyncMemory, Tsu, TsuConfig, TsuStats,
    WaitingInstance,
};

/// Convenient glob import for users of the model.
pub mod prelude {
    pub use crate::block::DdmBlock;
    pub use crate::error::CoreError;
    pub use crate::ids::{BlockId, Context, Instance, KernelId, ProgramId, ThreadId};
    pub use crate::mapping::ArcMapping;
    pub use crate::policy::StealBackoff;
    pub use crate::program::{DdmProgram, ProgramBuilder};
    pub use crate::thread::{Affinity, ThreadKind, ThreadSpec};
    pub use crate::tsu::{
        CompletionFunnel, FetchResult, FlushPolicy, ProgramHandle, Tsu, TsuConfig,
    };
}
