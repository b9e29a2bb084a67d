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
//!   with instance [`ArcMapping`]s (one-to-one, broadcast,
//!   reduction, merge trees, …).
//! * **DDM blocks** — subsets of the program small enough to fit in the TSU,
//!   chained by implicit *Inlet* and *Outlet* DThreads.
//! * **The TSU** — the paper's §3.3 decomposition: the Graph Memory is the
//!   immutable [`DdmProgram`] itself, held once by the [`SyncMemory`]
//!   (lock-free ready counts + post-processing), and a per-kernel
//!   [`ReadyQueue`] (a Chase-Lev work-stealing [`StealDeque`]
//!   plus one locked inbox for other kernels' runs), composed once into
//!   [`Tsu`]. All three platforms (the software TSU of
//!   `tflux-runtime`, the simulated hardware TSU of `tflux-sim`, the Cell
//!   model of `tflux-cell`) drive that one `&self` state machine, with the
//!   same queue type; they differ only in whether one thread drives every
//!   kernel id ([`Tsu::new`], whose units are [`Owned`]: plain loads and
//!   stores, and the TSU cannot leave its thread) or each kernel is a
//!   thread ([`Tsu::threaded`], whose units are [`Shared`]: atomic
//!   read-modify-writes and fences), which is what makes the platform
//!   implementations directly comparable.
//!
//! The crate is deliberately free of I/O and unsafe code and spawns no
//! thread: it is the model, not a platform. Its one blocking call is the
//! [`EventCount`] a kernel thread parks on. Platforms live in
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
//! // Drive the TSU units to completion on 2 virtual kernels, one thread
//! // playing both: an owned TSU.
//! let tsu = Tsu::new(&program, 2, TsuConfig::default());
//! let order = tflux_core::drain_sequential(&tsu).unwrap();
//! assert_eq!(order.len(), program.total_instances());
//!
//! // A threaded TSU's units are shared: other threads may drive it by `&`.
//! let shared = Tsu::threaded(&program, 2, TsuConfig::default());
//! std::thread::scope(|s| {
//!     let drained = s.spawn(|| tflux_core::drain_sequential(&shared).unwrap().len());
//!     assert_eq!(drained.join().unwrap(), order.len());
//! });
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod block;
mod error;
mod graph;
mod ids;
mod mapping;
mod policy;
mod program;
mod rng;
pub mod split;
mod thread;
mod trace;
mod tsu;
mod unroll;

pub use block::DdmBlock;
pub use error::CoreError;
pub use graph::{lints, to_dot, work_span, Lint, WorkSpan};
pub use ids::{BlockId, Context, Epoch, Instance, KernelId, ProgramId, ThreadId};
pub use mapping::ArcMapping;
pub use program::{DdmProgram, ProgramBuilder};
pub use rng::{cases, mix, random_program, SplitMix64};
pub use thread::{Affinity, ThreadKind, ThreadSpec};
pub use trace::{ExecTrace, Span};
pub use tsu::{
    drain_sequential, funnel_batch, Access, CompletionFunnel, EventCount, FetchResult, Owned,
    ProgramHandle, ReadyQueue, Shared, Steal, StealDeque, SyncMemory, Tsu, TsuConfig, TsuStats,
    WaitingInstance, FUNNEL_BATCH,
};
pub use unroll::Unroll;

/// Convenient glob import for users of the model.
pub mod prelude {
    #[doc(no_inline)]
    pub use crate::{
        Affinity, ArcMapping, BlockId, CompletionFunnel, Context, CoreError, DdmBlock, DdmProgram,
        FetchResult, Instance, KernelId, ProgramBuilder, ProgramHandle, ProgramId, ThreadId,
        ThreadKind, ThreadSpec, Tsu, TsuConfig,
    };
}
