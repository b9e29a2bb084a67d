//! How the TSU's units touch the words they share: the one seam between
//! the protocol and its synchronization primitives.
//!
//! The paper's TSU Group serializes every command in one unit (§4.1), and
//! so does TFluxCell's TSU Emulator on the PPE (§4.3); only TFluxSoft's
//! kernels, each a thread, reach the same Synchronization Memory and
//! queues at once. The protocol code of [`Tsu`](super::Tsu),
//! [`SyncMemory`](super::SyncMemory), [`ReadyQueue`](super::ReadyQueue)
//! and [`StealDeque`](super::StealDeque) exists once; each takes an access
//! mode that supplies the few operations whose cost depends on who else
//! can see the words:
//!
//! * [`Shared`]: the std atomic read-modify-writes and fences, at the
//!   orderings each site states. Threads may share the units by `&`. This
//!   is what [`Tsu::threaded`](super::Tsu::threaded) builds.
//! * [`Owned`]: one thread drives every kernel id. Each read-modify-write
//!   is a `Relaxed` load then a `Relaxed` store, and each fence is nothing:
//!   with no second thread there is nothing to order against, and program
//!   order alone gives every step the result the atomic one would. `Owned`
//!   is `!Sync`, so a unit built with it cannot be shared between threads
//!   — the misuse those plain steps would get wrong does not compile. This
//!   is what [`Tsu::new`](super::Tsu::new) builds.
//!
//! Loads and stores, the block mutex, the epoch latch's `swap` and the
//! inbox and bell keep their std operations in both modes: they cost
//! nothing extra on an uncontended x86 line, or run once per block or
//! epoch, or never on an owned TSU.

use std::cell::Cell;
use std::marker::PhantomData;
use std::sync::atomic::{fence, AtomicI64, AtomicU32, AtomicU64, Ordering};

/// An access mode of the TSU's units: [`Shared`] or [`Owned`]. The
/// operations it supplies are private to the TSU.
pub trait Access: sealed::Primitives {}

/// Units that kernel threads share by `&`: every primitive is the std
/// atomic operation at the ordering its site states.
pub struct Shared;

/// Units one thread drives: every read-modify-write is a `Relaxed` load and
/// store, with no fence. `!Sync`: a reference to an owned unit cannot
/// reach a second thread.
pub struct Owned(PhantomData<Cell<()>>);

impl Access for Shared {}
impl Access for Owned {}

mod sealed {
    use super::*;

    /// The synchronization primitives the protocol code calls, one
    /// implementation per mode. Named after the std operation each stands
    /// for; `Owned` ignores the orderings.
    pub trait Primitives {
        /// Whether other threads may be operating on the same units.
        const SHARED: bool;
        fn fence(order: Ordering);
        fn compare_exchange(
            a: &AtomicI64,
            current: i64,
            new: i64,
            success: Ordering,
            failure: Ordering,
        ) -> Result<i64, i64>;
        fn compare_exchange_weak(
            a: &AtomicU32,
            current: u32,
            new: u32,
            success: Ordering,
            failure: Ordering,
        ) -> Result<u32, u32>;
        fn fetch_sub(a: &AtomicU32, n: u32, order: Ordering) -> u32;
        fn fetch_add(a: &AtomicU64, n: u64, order: Ordering) -> u64;
    }

    impl Primitives for Shared {
        const SHARED: bool = true;

        #[inline]
        fn fence(order: Ordering) {
            fence(order);
        }

        #[inline]
        fn compare_exchange(
            a: &AtomicI64,
            current: i64,
            new: i64,
            success: Ordering,
            failure: Ordering,
        ) -> Result<i64, i64> {
            a.compare_exchange(current, new, success, failure)
        }

        #[inline]
        fn compare_exchange_weak(
            a: &AtomicU32,
            current: u32,
            new: u32,
            success: Ordering,
            failure: Ordering,
        ) -> Result<u32, u32> {
            a.compare_exchange_weak(current, new, success, failure)
        }

        #[inline]
        fn fetch_sub(a: &AtomicU32, n: u32, order: Ordering) -> u32 {
            a.fetch_sub(n, order)
        }

        #[inline]
        fn fetch_add(a: &AtomicU64, n: u64, order: Ordering) -> u64 {
            a.fetch_add(n, order)
        }
    }

    impl Primitives for Owned {
        const SHARED: bool = false;

        #[inline]
        fn fence(_: Ordering) {}

        #[inline]
        fn compare_exchange(
            a: &AtomicI64,
            current: i64,
            new: i64,
            _: Ordering,
            _: Ordering,
        ) -> Result<i64, i64> {
            let seen = a.load(Ordering::Relaxed);
            if seen != current {
                return Err(seen);
            }
            a.store(new, Ordering::Relaxed);
            Ok(seen)
        }

        #[inline]
        fn compare_exchange_weak(
            a: &AtomicU32,
            current: u32,
            new: u32,
            _: Ordering,
            _: Ordering,
        ) -> Result<u32, u32> {
            let seen = a.load(Ordering::Relaxed);
            if seen != current {
                return Err(seen);
            }
            a.store(new, Ordering::Relaxed);
            Ok(seen)
        }

        #[inline]
        fn fetch_sub(a: &AtomicU32, n: u32, _: Ordering) -> u32 {
            let seen = a.load(Ordering::Relaxed);
            a.store(seen.wrapping_sub(n), Ordering::Relaxed);
            seen
        }

        #[inline]
        fn fetch_add(a: &AtomicU64, n: u64, _: Ordering) -> u64 {
            let seen = a.load(Ordering::Relaxed);
            a.store(seen.wrapping_add(n), Ordering::Relaxed);
            seen
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One sequence of primitives through `M`, hits and misses alike: every
    /// result (a failed compare-exchange negated), then the final words.
    fn script<M: Access>() -> Vec<i128> {
        let (a, b, c) = (AtomicI64::new(5), AtomicU32::new(3), AtomicU64::new(7));
        let (sc, rel, ar, acq) = (
            Ordering::SeqCst,
            Ordering::Relaxed,
            Ordering::AcqRel,
            Ordering::Acquire,
        );
        let wide = |x: Result<i64, i64>| x.map_or_else(|e| -i128::from(e), i128::from);
        let narrow = |x: Result<u32, u32>| x.map_or_else(|e| -i128::from(e), i128::from);
        M::fence(sc);
        vec![
            wide(M::compare_exchange(&a, 5, 6, sc, rel)),
            wide(M::compare_exchange(&a, 5, 9, sc, rel)),
            narrow(M::compare_exchange_weak(&b, 3, 4, ar, acq)),
            narrow(M::compare_exchange_weak(&b, 3, 8, ar, acq)),
            i128::from(M::fetch_sub(&b, 4, ar)),
            i128::from(M::fetch_sub(&b, 1, ar)),
            i128::from(M::fetch_add(&c, 2, rel)),
            i128::from(M::fetch_add(&c, u64::MAX, rel)),
            i128::from(a.into_inner()),
            i128::from(b.into_inner()),
            i128::from(c.into_inner()),
        ]
    }

    #[test]
    fn owned_steps_return_what_the_atomic_operations_return() {
        // including `fetch_sub` and `fetch_add` wrapping around
        assert_eq!(script::<Owned>(), script::<Shared>());
        assert_eq!(script::<Owned>()[5], 0);
    }
}
