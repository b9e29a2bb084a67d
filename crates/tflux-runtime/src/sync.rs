//! `std::sync` locking without poisoning, and the eventcount kernels and
//! supervising threads park on.
//!
//! A poisoned mutex only says that some thread panicked while holding it.
//! Every mutex in this crate guards data that is valid after each
//! individual update (a queue, a flag, a counter), and panics are already
//! surfaced as typed errors (`BodyPanic`, `RuntimeError`), so the guard is
//! taken out of the `PoisonError` instead of raising a second panic.
//! `SyncMemory`'s own poison latch (`CoreError::SmPoisoned`) is separate
//! and untouched.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError, TryLockError};
use std::time::Duration;

pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// `None` only if the lock is held right now.
pub(crate) fn try_lock<T>(m: &Mutex<T>) -> Option<MutexGuard<'_, T>> {
    match m.try_lock() {
        Ok(g) => Some(g),
        Err(TryLockError::Poisoned(e)) => Some(e.into_inner()),
        Err(TryLockError::WouldBlock) => None,
    }
}

pub(crate) fn into_inner<T>(m: Mutex<T>) -> T {
    m.into_inner().unwrap_or_else(PoisonError::into_inner)
}

pub(crate) fn wait<'a, T>(cv: &Condvar, g: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    cv.wait(g).unwrap_or_else(PoisonError::into_inner)
}

/// Returns on notify, on timeout or spuriously; every caller re-checks its
/// condition, so which one it was is not reported.
pub(crate) fn wait_timeout<'a, T>(
    cv: &Condvar,
    g: MutexGuard<'a, T>,
    timeout: Duration,
) -> MutexGuard<'a, T> {
    cv.wait_timeout(g, timeout)
        .unwrap_or_else(PoisonError::into_inner)
        .0
}

/// A waiter-aware eventcount: `ring` is one atomic increment unless a
/// thread is (or is about to be) asleep in `wait`. A Dekker handshake: the
/// ringer bumps `seq` then reads `sleepers`, the waiter bumps `sleepers`
/// then re-reads `seq`, all `SeqCst`, so at least one side sees the other.
/// The one parking primitive of the crate: every kernel parks on its own
/// queue's bell (`Runtime::run`) or the server's pool eventcount, every
/// supervising thread on its own.
#[derive(Default)]
pub(crate) struct EventCount {
    seq: AtomicU64,
    sleepers: AtomicUsize,
    lock: Mutex<()>,
    cv: Condvar,
}

impl EventCount {
    /// Rings so far. Read it *before* looking for work; pass it to `wait`.
    pub(crate) fn epoch(&self) -> u64 {
        self.seq.load(Ordering::SeqCst)
    }

    pub(crate) fn ring(&self) {
        self.seq.fetch_add(1, Ordering::SeqCst);
        if self.sleepers.load(Ordering::SeqCst) > 0 {
            // taking the lock orders the notify after the sleeper's
            // registered-but-not-yet-waiting window closes
            let _guard = lock(&self.lock);
            self.cv.notify_all();
        }
    }

    /// Sleep until a ring moves the count past `seen` or `timeout` elapses
    /// (or spuriously — callers loop).
    pub(crate) fn wait(&self, seen: u64, timeout: Duration) {
        let guard = lock(&self.lock);
        self.sleepers.fetch_add(1, Ordering::SeqCst);
        if self.seq.load(Ordering::SeqCst) == seen {
            drop(wait_timeout(&self.cv, guard, timeout));
        }
        self.sleepers.fetch_sub(1, Ordering::SeqCst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    const LONG: Duration = Duration::from_secs(10);

    #[test]
    fn ring_before_wait_returns_at_once() {
        let ec = EventCount::default();
        let seen = ec.epoch();
        ec.ring();
        assert_eq!(ec.epoch(), seen + 1);
        let t0 = Instant::now();
        ec.wait(seen, LONG);
        assert!(t0.elapsed() < LONG / 2);
    }

    #[test]
    fn wait_without_a_ring_times_out() {
        let ec = EventCount::default();
        let t0 = Instant::now();
        ec.wait(ec.epoch(), Duration::from_millis(5));
        assert!(t0.elapsed() >= Duration::from_millis(5));
        assert_eq!(ec.sleepers.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn ring_with_no_sleeper_takes_no_lock() {
        let ec = EventCount::default();
        // were `ring` to touch the mutex it would block behind this guard
        let held = lock(&ec.lock);
        std::thread::scope(|s| {
            let (tx, rx) = std::sync::mpsc::channel();
            let ec = &ec;
            s.spawn(move || {
                ec.ring();
                tx.send(()).unwrap();
            });
            let rang = rx.recv_timeout(LONG);
            drop(held); // let a blocked ringer finish so the scope can join
            rang.expect("ring blocked on the sleeper lock with nobody asleep");
        });
        assert_eq!(ec.epoch(), 1);
    }

    /// One waiter, one ringer, and the ringer fires the moment the waiter
    /// has read its epoch — i.e. inside the waiter's register-then-recheck
    /// window. Either the ringer sees the registration and notifies under
    /// the lock, or the waiter's recheck sees the ring; a round that sleeps
    /// out its timeout is a lost wake-up.
    #[test]
    fn racing_rings_never_lose_a_wakeup() {
        let rounds: u64 = if cfg!(debug_assertions) {
            20_000
        } else {
            200_000
        };
        let ec = EventCount::default();
        let armed = AtomicU64::new(0); // the round the waiter is about to wait in
        const STOP: u64 = u64::MAX;
        let mut slowest = Duration::ZERO;
        std::thread::scope(|s| {
            s.spawn(|| {
                for round in 1..=rounds {
                    loop {
                        match armed.load(Ordering::Acquire) {
                            r if r == round => break,
                            STOP => return,
                            _ => std::hint::spin_loop(),
                        }
                    }
                    // vary where in the window the ring lands, up to
                    // after the waiter is asleep
                    for _ in 0..(round % 8) * 64 {
                        std::hint::spin_loop();
                    }
                    ec.ring();
                }
            });
            for round in 1..=rounds {
                let seen = ec.epoch();
                armed.store(round, Ordering::Release);
                let t0 = Instant::now();
                ec.wait(seen, LONG);
                slowest = slowest.max(t0.elapsed());
                if slowest >= LONG / 2 {
                    armed.store(STOP, Ordering::Release);
                    break;
                }
                // the ring of this round must have landed before the next
                // epoch is read, or that one would count it
                while ec.epoch() == seen {
                    std::hint::spin_loop();
                }
            }
        });
        assert!(slowest < LONG / 2, "a wait slept {slowest:?}: lost wake-up");
        assert_eq!(ec.epoch(), rounds);
    }
}
