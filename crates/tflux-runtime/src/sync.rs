//! `std::sync` locking without poisoning.
//!
//! A poisoned mutex only says that some thread panicked while holding it.
//! Every mutex in this crate guards data that is valid after each
//! individual update (a queue, a flag, a counter), and panics are already
//! surfaced as typed errors (`BodyPanic`, `RuntimeError`), so the guard is
//! taken out of the `PoisonError` instead of raising a second panic.
//! `SyncMemory`'s own poison latch (`CoreError::SmPoisoned`) is separate
//! and untouched.

use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

pub(crate) fn into_inner<T>(m: Mutex<T>) -> T {
    m.into_inner().unwrap_or_else(PoisonError::into_inner)
}

pub(crate) fn wait<'a, T>(cv: &Condvar, g: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    cv.wait(g).unwrap_or_else(PoisonError::into_inner)
}
