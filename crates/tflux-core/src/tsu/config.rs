//! TSU configuration and the counter types every platform reports.
//!
//! The portability claim of the paper is that *one* TSU semantics backs
//! three platforms; [`Tsu`](super::Tsu) is that one state machine, and
//! these are the knobs it takes and the counters it keeps, so a
//! `TsuStats` from the threaded runtime, the simulated hardware TSU and
//! the Cell machine mean the same thing field for field.

use crate::ids::Instance;

/// Configuration of a TSU instance.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TsuConfig {
    /// Maximum instances resident at once (`0` = unlimited). A block whose
    /// residency exceeds this fails at load, mirroring the paper's rule that
    /// the block size is bounded by the TSU size.
    pub capacity: usize,
    /// Whether a kernel whose own queue misses takes the oldest entry of a
    /// sibling's (default: `true`). Every kernel always serves its own
    /// queue first (§3.1, spatial locality); victims are probed one random
    /// sibling first, then longest queue first.
    pub steal: bool,
    /// Epoch credit window: maximum streaming passes in flight at once
    /// (opened but not yet retired). `0` means unwindowed — `open_epoch`
    /// never blocks on credits. One-shot programs never notice this knob:
    /// the construction-time epoch 0 is the only credit they ever use.
    pub window: usize,
}

impl Default for TsuConfig {
    /// Unlimited capacity, stealing on, no credit window.
    /// Hand-written because the derived one would turn stealing off.
    fn default() -> Self {
        TsuConfig {
            capacity: 0,
            steal: true,
            window: 0,
        }
    }
}

/// Counters a TSU keeps about its own operation.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TsuStats {
    /// Successful fetches (a DThread was handed to a kernel).
    pub fetches: u64,
    /// Fetch attempts that found no ready DThread.
    pub waits: u64,
    /// DThread completions processed.
    pub completions: u64,
    /// Logical ready-count decrements performed during post-processing.
    /// Batched flushes count every combined decrement here, so this is
    /// invariant under completion funnels and comparable across platforms.
    pub rc_updates: u64,
    /// Physical atomic read-modify-writes issued against ready-count
    /// slots. Equal to `rc_updates` on the direct path; batching makes it
    /// smaller (one `fetch_sub(n)` covers `n` logical decrements).
    pub rc_rmws: u64,
    /// Fetches satisfied from another kernel's queue (successful takes of
    /// a sibling's entry; the stolen instance executes on the thief).
    pub steals: u64,
    /// Victim probes that found the victim empty — including a victim
    /// drained *between* the thief's length snapshot and its steal (the
    /// clean-miss path). High misses with low steals means thieves are
    /// scanning an idle machine.
    pub steal_misses: u64,
    /// Steal attempts that lost the `top` CAS to the victim's owner or a
    /// concurrent thief. Each race is one wasted CAS, not a lost entry —
    /// the entry went to the winner. High races mean thieves are piling
    /// onto the same victim despite the random first probe.
    pub steal_races: u64,
    /// Victim scans skipped by the adaptive backoff
    /// (`StealBackoff`: after 4 straight misses each further miss doubles
    /// the attempts skipped, up to 64): fetch attempts on
    /// which a repeatedly-missing thief did not probe at all. High skips
    /// with zero steals is the *healthy* idle-machine signature — the old
    /// pathology was high `steal_misses` instead.
    pub steal_skips: u64,
    /// DDM blocks loaded.
    pub blocks_loaded: u64,
    /// Peak number of resident instances.
    pub max_resident: usize,
    /// Synchronization Memory contention events: weak-CAS retries on slot
    /// state transitions, plus ready-count RMWs that land on a slot whose
    /// previous decrement came from a *different* kernel — the software
    /// proxy for a coherence-line transfer of a hot sink slot.
    pub sm_contended: u64,
    /// Streaming epochs whose pass ran to completion (the epoch ledger's
    /// `completed` column). A one-shot run counts as one epoch.
    pub epochs: u64,
}

/// A resident instance still waiting on producer completions — one row of
/// the stall-forensics view exposed by
/// [`Tsu::forensics`](super::Tsu::forensics).
/// Platforms embed these in their stall reports so a watchdog abort names
/// the stuck instances instead of discarding the Synchronization Memory
/// contents.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WaitingInstance {
    /// The instance whose ready count has not reached zero.
    pub instance: Instance,
    /// Producer completions still needed before it becomes ready.
    pub remaining: u32,
}
