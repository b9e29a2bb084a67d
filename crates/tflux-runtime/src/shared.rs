//! Shared variables for producer→consumer data transfer between DThreads.
//!
//! In the DDM model the synchronization graph already guarantees that a
//! consumer only runs after its producers completed, so data handed through
//! a [`SharedVar`] never races: the producer instance writes its slot once,
//! and consumers read it afterwards. This is the shared-memory analogue of
//! TFluxCell's `SharedVariableBuffer` (§4.3) and the "shared variables used
//! in the producer-consumer relationships" of §3.1.

use std::sync::OnceLock;
use tflux_core::Context;

/// A write-once-per-slot variable shared between DThreads.
///
/// One slot per producer context. Writing a slot twice panics — that is
/// always a program bug (two producers mapped onto the same slot, or a
/// producer that ran twice, which the TSU excludes).
pub struct SharedVar<T> {
    slots: Vec<OnceLock<T>>,
}

impl<T> SharedVar<T> {
    /// A variable with `arity` slots (one per producer context).
    pub fn new(arity: u32) -> Self {
        SharedVar {
            slots: (0..arity).map(|_| OnceLock::new()).collect(),
        }
    }

    /// A single-slot variable (scalar producer).
    pub fn scalar() -> Self {
        SharedVar::new(1)
    }

    /// Number of slots.
    pub fn arity(&self) -> u32 {
        self.slots.len() as u32
    }

    /// Publish the value produced by context `ctx`.
    ///
    /// # Panics
    /// If the slot was already written or `ctx` is out of range.
    pub fn put(&self, ctx: Context, value: T) {
        if self.slots[ctx.idx()].set(value).is_err() {
            panic!("SharedVar slot {ctx:?} written twice");
        }
    }

    /// Read the value produced by context `ctx`.
    ///
    /// # Panics
    /// If the producer has not written the slot — with a correct
    /// synchronization graph this cannot happen, so a panic here means the
    /// graph is missing an arc.
    pub fn get(&self, ctx: Context) -> &T {
        self.slots[ctx.idx()]
            .get()
            .unwrap_or_else(|| panic!("SharedVar slot {ctx:?} read before being produced"))
    }

    /// The scalar slot (context 0).
    pub fn value(&self) -> &T {
        self.get(Context(0))
    }

    /// Iterate over all produced values in context order.
    ///
    /// Skips unproduced slots; with a complete graph this yields every slot.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.slots.iter().filter_map(|s| s.get())
    }

    /// Consume the variable, returning produced values in context order.
    pub fn into_values(self) -> Vec<Option<T>> {
        self.slots.into_iter().map(|s| s.into_inner()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn put_get_roundtrip() {
        let v = SharedVar::<u32>::new(3);
        v.put(Context(1), 42);
        assert_eq!(*v.get(Context(1)), 42);
        assert_eq!(v.slots[0].get(), None);
        assert_eq!(v.arity(), 3);
    }

    #[test]
    #[should_panic(expected = "written twice")]
    fn double_put_panics() {
        let v = SharedVar::<u32>::scalar();
        v.put(Context(0), 1);
        v.put(Context(0), 2);
    }

    #[test]
    #[should_panic(expected = "read before being produced")]
    fn premature_get_panics() {
        let v = SharedVar::<u32>::scalar();
        let _ = v.value();
    }

    #[test]
    fn iter_yields_in_context_order() {
        let v = SharedVar::<u32>::new(4);
        v.put(Context(2), 2);
        v.put(Context(0), 0);
        v.put(Context(3), 3);
        let got: Vec<u32> = v.iter().copied().collect();
        assert_eq!(got, vec![0, 2, 3]);
    }

    #[test]
    fn concurrent_disjoint_puts() {
        let v = Arc::new(SharedVar::<u64>::new(64));
        std::thread::scope(|s| {
            for t in 0..4u32 {
                let v = Arc::clone(&v);
                s.spawn(move || {
                    for c in (t..64).step_by(4) {
                        v.put(Context(c), c as u64 * 10);
                    }
                });
            }
        });
        for c in 0..64 {
            assert_eq!(*v.get(Context(c)), c as u64 * 10);
        }
    }

    #[test]
    fn into_values_preserves_holes() {
        let v = SharedVar::<u8>::new(3);
        v.put(Context(1), 9);
        assert_eq!(v.into_values(), vec![None, Some(9), None]);
    }
}
