//! DThread bodies: the application code the kernels jump into.

use tflux_core::{Context, DdmProgram, Instance, KernelId, ThreadId};

/// Execution context handed to a DThread body.
#[derive(Clone, Copy, Debug)]
pub struct BodyCtx {
    /// The instance being executed.
    pub instance: Instance,
    /// The instance's context (loop index), for convenience.
    pub context: Context,
    /// The kernel executing the body.
    pub kernel: KernelId,
}

/// A DThread body. Bodies run concurrently on kernel threads, so they must
/// be `Send + Sync`; share data through [`crate::SharedVar`], atomics, or
/// other synchronized structures.
pub(crate) type ThreadBody<'a> = Box<dyn Fn(&BodyCtx) + Send + Sync + 'a>;

/// Bodies for every thread of a program, indexed by [`ThreadId`].
///
/// Inlet and Outlet threads get no-op bodies automatically (their real work
/// — block loading/unloading — happens inside the TSU). Application threads
/// default to a no-op as well, which is occasionally useful for pure
/// synchronization threads; set real bodies with [`set`](Self::set).
pub struct BodyTable<'a> {
    bodies: Vec<ThreadBody<'a>>,
    idempotent: Vec<bool>,
}

impl<'a> BodyTable<'a> {
    /// A table of no-op bodies shaped for `program`.
    pub fn new(program: &DdmProgram) -> Self {
        let bodies: Vec<_> = (0..program.threads().len())
            .map(|_| Box::new(|_: &BodyCtx| {}) as ThreadBody<'a>)
            .collect();
        let idempotent = vec![false; bodies.len()];
        BodyTable { bodies, idempotent }
    }

    /// Install the body of one application thread.
    ///
    /// # Panics
    /// If `thread` is out of range for the program this table was built for.
    pub fn set(&mut self, thread: ThreadId, body: impl Fn(&BodyCtx) + Send + Sync + 'a) {
        self.bodies[thread.idx()] = Box::new(body);
    }

    /// Fetch the body of a thread.
    #[inline]
    pub fn get(&self, thread: ThreadId) -> &ThreadBody<'a> {
        &self.bodies[thread.idx()]
    }

    /// Number of thread slots.
    pub fn len(&self) -> usize {
        self.bodies.len()
    }

    /// Whether the table is empty (never true for a valid program).
    pub fn is_empty(&self) -> bool {
        self.bodies.is_empty()
    }

    /// Declare a thread's body idempotent: re-running an instance after a
    /// panic observes the same state as the first attempt, so the kernel
    /// may re-dispatch it under [`crate::RetryPolicy`]. Bodies are
    /// non-idempotent by default and are never retried.
    pub fn mark_idempotent(&mut self, thread: ThreadId) {
        self.idempotent[thread.idx()] = true;
    }

    /// [`set`](Self::set) + [`mark_idempotent`](Self::mark_idempotent) in one call.
    pub fn set_idempotent(&mut self, thread: ThreadId, body: impl Fn(&BodyCtx) + Send + Sync + 'a) {
        self.set(thread, body);
        self.mark_idempotent(thread);
    }

    /// Whether `thread`'s body was declared idempotent.
    #[inline]
    pub fn idempotent(&self, thread: ThreadId) -> bool {
        self.idempotent[thread.idx()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};
    use tflux_core::prelude::*;

    fn tiny() -> DdmProgram {
        let mut b = ProgramBuilder::new();
        let blk = b.block();
        b.thread(blk, ThreadSpec::new("w", 4));
        b.build().unwrap()
    }

    #[test]
    fn default_bodies_are_noops() {
        let p = tiny();
        let t = BodyTable::new(&p);
        assert_eq!(t.len(), 3); // w + inlet + outlet
        let ctx = BodyCtx {
            instance: Instance::scalar(ThreadId(0)),
            context: Context(0),
            kernel: KernelId(0),
        };
        (t.get(ThreadId(1)))(&ctx); // inlet no-op must not panic
    }

    #[test]
    fn set_and_invoke() {
        let p = tiny();
        let hits = AtomicU32::new(0);
        let mut t = BodyTable::new(&p);
        t.set(ThreadId(0), |c| {
            hits.fetch_add(c.context.0 + 1, Ordering::Relaxed);
        });
        let ctx = BodyCtx {
            instance: Instance::new(ThreadId(0), Context(2)),
            context: Context(2),
            kernel: KernelId(1),
        };
        (t.get(ThreadId(0)))(&ctx);
        assert_eq!(hits.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn idempotence_defaults_off_and_sticks_when_set() {
        let p = tiny();
        let mut t = BodyTable::new(&p);
        assert!(!t.idempotent(ThreadId(0)));
        t.set_idempotent(ThreadId(0), |_| {});
        assert!(t.idempotent(ThreadId(0)));
        // re-installing the body does not clear the flag
        t.set(ThreadId(0), |_| {});
        assert!(t.idempotent(ThreadId(0)));
    }
}
