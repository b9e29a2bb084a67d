//! DThread templates: the nodes of the synchronization graph.

use crate::ids::{Context, KernelId};

/// The role a DThread plays in its DDM block.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ThreadKind {
    /// An ordinary application DThread.
    App,
    /// The block's *Inlet*: loads the block's metadata into the TSU.
    Inlet,
    /// The block's *Outlet*: frees TSU resources and chains the next block
    /// (or terminates the kernels if this is the last block).
    Outlet,
}

/// How instances of a DThread are assigned to kernels.
///
/// This assignment *is* the Thread-to-Kernel Table (TKT) of the paper's
/// Thread-Indexing technique: the TSU emulator uses it to locate, without
/// searching, the Synchronization Memory holding an instance's ready count.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Affinity {
    /// Contiguous ranges of contexts per kernel (`ctx * n / arity`).
    ///
    /// The default: consecutive contexts usually touch adjacent data, so
    /// range partitioning maximizes spatial locality, the TSU scheduling
    /// goal named in §3.1 of the paper.
    Range,
    /// Contexts dealt round-robin across kernels (`ctx % n`).
    RoundRobin,
    /// All instances pinned to one kernel.
    Fixed(KernelId),
}

impl Affinity {
    /// The kernel that owns `ctx` of a thread with `arity` instances, on a
    /// machine with `kernels` kernels.
    #[inline]
    pub fn kernel_of(&self, ctx: Context, arity: u32, kernels: u32) -> KernelId {
        debug_assert!(kernels > 0);
        match *self {
            Affinity::Range => {
                // Equal-sized contiguous chunks (last chunk may be short).
                let chunk = arity.div_ceil(kernels);
                KernelId((ctx.0 / chunk.max(1)).min(kernels - 1))
            }
            Affinity::RoundRobin => KernelId(ctx.0 % kernels),
            Affinity::Fixed(k) => KernelId(k.0.min(kernels - 1)),
        }
    }

    /// How many of the `arity` contexts [`kernel_of`](Self::kernel_of)
    /// places on kernel `k`, in closed form.
    pub fn share(&self, k: KernelId, arity: u32, kernels: u32) -> u32 {
        debug_assert!(kernels > 0 && k.0 < kernels);
        match *self {
            Affinity::Range => {
                let chunk = arity.div_ceil(kernels);
                let before = (k.0 as u64 * chunk as u64).min(arity as u64) as u32;
                chunk.min(arity - before)
            }
            Affinity::RoundRobin => arity / kernels + u32::from(k.0 < arity % kernels),
            Affinity::Fixed(j) if k.0 == j.0.min(kernels - 1) => arity,
            Affinity::Fixed(_) => 0,
        }
    }
}

/// Static description of a DThread template.
#[derive(Clone, Debug)]
pub struct ThreadSpec {
    /// Human-readable name (used in traces, DOT dumps and error messages).
    pub name: String,
    /// Number of instances (loop iterations); scalar threads have arity 1.
    pub arity: u32,
    /// Kernel assignment policy for the instances.
    pub affinity: Affinity,
    /// Role of the thread within its block.
    pub kind: ThreadKind,
}

impl ThreadSpec {
    /// A loop DThread with `arity` instances and range affinity.
    pub fn new(name: impl Into<String>, arity: u32) -> Self {
        ThreadSpec {
            name: name.into(),
            arity,
            affinity: Affinity::Range,
            kind: ThreadKind::App,
        }
    }

    /// A scalar (single-instance) DThread.
    pub fn scalar(name: impl Into<String>) -> Self {
        ThreadSpec::new(name, 1)
    }

    /// Override the kernel-assignment policy.
    pub fn with_affinity(mut self, affinity: Affinity) -> Self {
        self.affinity = affinity;
        self
    }

    /// Mark the thread's role (used internally for inlet/outlet threads).
    pub(crate) fn with_kind(mut self, kind: ThreadKind) -> Self {
        self.kind = kind;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn range_affinity_partitions_contiguously() {
        let a = Affinity::Range;
        // 10 contexts over 3 kernels: chunks of 4 -> [0..4), [4..8), [8..10)
        let owners: Vec<u32> = (0..10).map(|c| a.kernel_of(Context(c), 10, 3).0).collect();
        assert_eq!(owners, vec![0, 0, 0, 0, 1, 1, 1, 1, 2, 2]);
    }

    #[test]
    fn range_affinity_never_exceeds_kernel_count() {
        for arity in 1..40u32 {
            for kernels in 1..9u32 {
                for c in 0..arity {
                    let k = Affinity::Range.kernel_of(Context(c), arity, kernels);
                    assert!(k.0 < kernels, "arity={arity} kernels={kernels} ctx={c}");
                }
            }
        }
    }

    #[test]
    fn round_robin_deals_evenly() {
        let a = Affinity::RoundRobin;
        let owners: Vec<u32> = (0..6).map(|c| a.kernel_of(Context(c), 6, 3).0).collect();
        assert_eq!(owners, vec![0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn share_counts_what_kernel_of_places() {
        crate::rng::cases(200, |rng| {
            let arity = rng.range(1u32..10_001);
            let kernels = rng.range(1u32..65);
            let fixed = Affinity::Fixed(KernelId(rng.range(0u32..2 * kernels)));
            for a in [Affinity::Range, Affinity::RoundRobin, fixed] {
                let mut counted = vec![0u32; kernels as usize];
                for c in 0..arity {
                    counted[a.kernel_of(Context(c), arity, kernels).idx()] += 1;
                }
                let shares: Vec<u32> = (0..kernels)
                    .map(|k| a.share(KernelId(k), arity, kernels))
                    .collect();
                assert_eq!(shares, counted, "{a:?} arity={arity} kernels={kernels}");
                assert_eq!(shares.iter().sum::<u32>(), arity);
            }
        });
    }

    #[test]
    fn fixed_clamps_to_machine() {
        let a = Affinity::Fixed(KernelId(7));
        assert_eq!(a.kernel_of(Context(0), 1, 4).0, 3);
    }

    #[test]
    fn spec_builders() {
        let t = ThreadSpec::scalar("s");
        assert_eq!(t.arity, 1);
        assert_eq!(t.kind, ThreadKind::App);
        let t = ThreadSpec::new("l", 8).with_affinity(Affinity::RoundRobin);
        assert_eq!(t.affinity, Affinity::RoundRobin);
    }
}
