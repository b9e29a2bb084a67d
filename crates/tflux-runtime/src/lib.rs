//! # tflux-runtime — TFluxSoft, the software-TSU platform
//!
//! A real, threaded implementation of the TFluxSoft architecture of §4.2 of
//! the TFlux paper, targeting commodity shared-memory multicores:
//!
//! * `n` **Kernels**, each an OS thread, run the Kernel loop of Fig. 2:
//!   fetch a ready DThread from the kernel's *Local TSU* (its ready queue),
//!   jump into the DThread body, and on completion run the Post-Processing
//!   Phase. Body dispatch is a plain closure call — the Rust analogue of
//!   the paper's "Kernel code and application DThread code in the same
//!   function", i.e. no OS involvement per DThread.
//! * The shared software TSU is the one [`Tsu`](tflux_core::Tsu) of
//!   `tflux-core`, built by
//!   [`Tsu::threaded`](tflux_core::Tsu::threaded) because each
//!   kernel is a thread parking on its own
//!   non-blocking [`ReadyQueue`](tflux_core::ReadyQueue): a read-only
//!   Graph Memory and a
//!   **lock-free Synchronization Memory** (atomic ready-count slots). A
//!   completing kernel decrements its consumers' ready counts with atomic
//!   `fetch_sub`s and enqueues instances it drove to zero on the owning
//!   kernel's queue, located directly via the Thread-to-Kernel Table (the
//!   program's [`Affinity`](tflux_core::Affinity) assignment — *Thread
//!   Indexing*). *Every* completion takes this path on the kernel that ran
//!   the DThread, Inlet and Outlet (block load and unload) included.
//! * Two thin drivers share that code (`arena.rs`: one `step`, one
//!   `supervise`): [`Runtime::run`] — scoped kernels, the calling thread
//!   supervising — and the multi-tenant [`ProgramServer`]. The supervising
//!   thread keeps the watchdog and collects errors; it completes nothing.
//!   This departs from §4.2, where a **TSU Emulator** thread applies the
//!   updates kernels publish through a segmented **TUB**: that design
//!   lives on only in `tflux-sim`, as the software-TSU costs behind Fig. 6
//!   and the simulated TUB port behind `figures -- tub`; EXPERIMENTS.md
//!   has the numbers that took it off the run path.
//!
//! ```
//! use tflux_core::prelude::*;
//! use tflux_runtime::{BodyTable, Runtime, RuntimeConfig, SharedVar};
//! use std::sync::atomic::{AtomicU64, Ordering};
//!
//! // sum of squares 0..8 via a fork-join DDM program
//! let mut b = ProgramBuilder::new();
//! let blk = b.block();
//! let work = b.thread(blk, ThreadSpec::new("work", 8));
//! let sink = b.thread(blk, ThreadSpec::scalar("sink"));
//! b.arc(work, sink, ArcMapping::Reduction).unwrap();
//! let program = b.build().unwrap();
//!
//! let partial = SharedVar::<u64>::new(8);
//! let total = AtomicU64::new(0);
//! let mut bodies = BodyTable::new(&program);
//! bodies.set(work, |ctx| {
//!     let i = ctx.context.0 as u64;
//!     partial.put(ctx.context, i * i);
//! });
//! bodies.set(sink, |_| {
//!     total.store((0..8).map(|c| *partial.get(Context(c))).sum(), Ordering::Relaxed);
//! });
//!
//! let report = Runtime::new(RuntimeConfig::with_kernels(2))
//!     .run(&program, &bodies)
//!     .unwrap();
//! assert_eq!(total.load(Ordering::Relaxed), (0..8u64).map(|i| i * i).sum());
//! assert_eq!(report.tsu.completions as usize, program.total_instances());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod arena;
mod body;
mod faults;
mod kernel;
mod runtime;
mod server;
mod shared;
mod stats;
mod sync;

pub use body::{BodyCtx, BodyTable};
pub use faults::{BodyFault, FaultCounts, FaultInjector, FaultPlan, NoFaults};
pub use runtime::{RetryPolicy, Runtime, RuntimeConfig, RuntimeError};
pub use server::{
    Admission, ProgramServer, ServerConfig, ServerStats, Submission, Submit, SubmitError,
};
pub use shared::SharedVar;
pub use stats::{InFlightInstance, RunReport, StallCause, StallReport, TenantReport};
// the one fetch vocabulary shared with the core TSU units
pub use tflux_core::{FetchResult, ShardStats};
