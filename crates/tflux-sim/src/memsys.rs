//! The simulated memory hierarchy: per-core L1s, per-group L2s, a MESI-style
//! invalidation protocol, and an arbitrated system network (bus).
//!
//! The model tracks cache-line *presence* and coherence state, charging
//! latencies per access — the same level of detail as the Simics `gcache`
//! setup of §6.1.1, which the paper notes "allow Simics to simulate and take
//! into account the overhead of the MESI protocol". Dirty lines have a
//! unique owner core; writes invalidate all foreign copies over the bus;
//! L2-to-L2 (cache-to-cache) supplies model coherency misses, which is what
//! keeps MMULT below ideal speedup in Fig. 5.
//!
//! # Partitioned state and rounds
//!
//! State is split by **domain** (one L2 group — on the NUMA presets a
//! group maps onto a node slice). A domain owns its cores' L1s and its
//! L2 outright. Everything cross-domain — the directory, the system bus,
//! and the per-node memory channels — lives in `SharedMem` as a
//! *snapshot*: within a round a domain reads the snapshot and accumulates
//! its own effects in a private `RoundCtx` overlay (a materialized
//! directory view plus an ordered edit log, per-window bus/channel booking
//! deltas, foreign-cache invalidation records, and a stats delta). At the
//! round boundary [`MemorySystem::commit_round`] merges every overlay into
//! the snapshot **in domain-index order**. Directory merges replay
//! semantic edits (set/clear sharer bits, ownership claims) rather than
//! overwriting whole entries, so concurrent sharer additions from
//! different domains both survive; bus merges sum per-window booked
//! cycles, which is commutative.
//!
//! The round is the model's coherence-visibility quantum: what one domain
//! does inside a round reaches the others at its end, in a fixed order.
//!
//! # Host representation
//!
//! The directory, every domain's view of it, and the bus and channel
//! windows are `LineMap`s: `std` hash maps whose `u64` key is hashed by one
//! multiplication (`LineHasher`). Every access is by key; the one
//! iteration, in `Bus::merge`, sums and prunes by key, so no map's layout
//! or iteration order can reach a latency or a counter. An L1 miss looks
//! the directory up once per line it changes (the filled line, the victim).

use crate::cache::Cache;
use crate::config::{ConfigError, MachineConfig};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Hash of a `LineMap` key: a multiplication by 2^64/φ, its well-mixed
/// high half folded onto the low bits the table indexes by. Keys come from
/// the simulated program's own trace, not an adversary, so a keyed hash
/// buys nothing — and `std`'s costs more than the rest of an L1 miss.
#[derive(Clone, Copy, Debug, Default)]
struct LineHasher(u64);

impl Hasher for LineHasher {
    fn write(&mut self, _: &[u8]) {
        unreachable!("LineMap keys are u64");
    }

    #[inline]
    fn write_u64(&mut self, key: u64) {
        let h = key.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 = h ^ (h >> 32);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// A map keyed by line address or bus window index.
type LineMap<V> = HashMap<u64, V, BuildHasherDefault<LineHasher>>;

/// Classification of one memory access.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AccessClass {
    /// Served by the core's own L1.
    L1Hit,
    /// Served by the core's group L2.
    L2Hit,
    /// Write that only needed an ownership upgrade (data already local).
    Upgrade,
    /// Served by another group's L2 over the bus — a coherency miss.
    RemoteHit,
    /// Served by main memory.
    MemMiss,
}

/// Aggregate counters of the memory system.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MemStats {
    /// L1 hits.
    pub l1_hits: u64,
    /// L2 hits (after L1 miss).
    pub l2_hits: u64,
    /// Ownership upgrades (write to a locally-shared line).
    pub upgrades: u64,
    /// Cache-to-cache transfers (coherency misses).
    pub remote_hits: u64,
    /// Main-memory fetches.
    pub mem_misses: u64,
    /// L1/L2 copies invalidated by remote writes.
    pub invalidations: u64,
    /// Dirty-line writebacks.
    pub writebacks: u64,
    /// Cycles any access spent waiting for the bus.
    pub bus_wait: u64,
    /// Cycles the bus was occupied.
    pub bus_busy: u64,
    /// Transfers (memory fetches or cache-to-cache) that crossed a NUMA
    /// node boundary and paid the topology's remote penalty.
    pub remote_node: u64,
    /// Cycles accesses queued on saturated per-node memory channels
    /// (beyond the raw transfer occupancy).
    pub channel_wait: u64,
}

impl MemStats {
    /// Total accesses observed.
    pub fn accesses(&self) -> u64 {
        self.l1_hits + self.l2_hits + self.upgrades + self.remote_hits + self.mem_misses
    }

    /// Fraction of accesses that were coherency (remote) misses.
    pub fn coherency_ratio(&self) -> f64 {
        let t = self.accesses();
        if t == 0 {
            0.0
        } else {
            self.remote_hits as f64 / t as f64
        }
    }

    /// Accumulate another counter set (used when merging round deltas).
    fn add(&mut self, o: &MemStats) {
        self.l1_hits += o.l1_hits;
        self.l2_hits += o.l2_hits;
        self.upgrades += o.upgrades;
        self.remote_hits += o.remote_hits;
        self.mem_misses += o.mem_misses;
        self.invalidations += o.invalidations;
        self.writebacks += o.writebacks;
        self.bus_wait += o.bus_wait;
        self.bus_busy += o.bus_busy;
        self.remote_node += o.remote_node;
        self.channel_wait += o.channel_wait;
    }
}

#[derive(Clone, Copy, Debug, Default)]
struct Dir {
    /// Cores holding the line in L1.
    l1s: u64,
    /// L2 groups holding the line.
    l2s: u64,
    /// Core holding the line modified (implies exclusivity).
    owner: Option<u32>,
}

/// One semantic directory mutation. Edits are replayed — against the
/// domain's own view immediately, and against the shared snapshot at
/// commit — instead of writing back whole entries, so concurrent edits to
/// the same line from different domains compose rather than clobber.
#[derive(Clone, Copy, Debug)]
enum DirEdit {
    /// A read fill: `l1s |= 1 << core`, `l2s |= 1 << group`.
    Fill { line: u64, core: u32, group: u32 },
    /// `l1s &= !(1 << core)` (L1 victim eviction).
    DelL1 { line: u64, core: u32 },
    /// `l2s &= !(1 << group)` (L2 victim eviction).
    DelL2 { line: u64, group: u32 },
    /// `owner = None` (demotion / dirty supply / owner eviction).
    DropOwner { line: u64 },
    /// Exclusive write claim: `owner = Some(core)`, `l1s = 1 << core`,
    /// `l2s = 1 << group`.
    Claim { line: u64, core: u32, group: u32 },
}

impl DirEdit {
    fn line(&self) -> u64 {
        match *self {
            DirEdit::Fill { line, .. }
            | DirEdit::DelL1 { line, .. }
            | DirEdit::DelL2 { line, .. }
            | DirEdit::DropOwner { line }
            | DirEdit::Claim { line, .. } => line,
        }
    }

    fn apply(&self, d: &mut Dir) {
        match *self {
            DirEdit::Fill { core, group, .. } => {
                d.l1s |= 1 << core;
                d.l2s |= 1 << group;
            }
            DirEdit::DelL1 { core, .. } => d.l1s &= !(1 << core),
            DirEdit::DelL2 { group, .. } => d.l2s &= !(1 << group),
            DirEdit::DropOwner { .. } => d.owner = None,
            DirEdit::Claim { core, group, .. } => {
                d.owner = Some(core);
                d.l1s = 1 << core;
                d.l2s = 1 << group;
            }
        }
    }
}

/// A foreign-cache invalidation issued by a write; applied to the target
/// domain's cache at commit time (own-domain targets are invalidated
/// directly, inside the round).
#[derive(Clone, Copy, Debug)]
enum Inval {
    /// Drop `line` from `core`'s L1.
    L1 { core: u32, line: u64 },
    /// Drop `l2line` from `group`'s L2.
    L2 { group: u32, l2line: u64 },
}

/// Bandwidth-window bus model.
///
/// Time is divided into fixed windows; each window can carry `window`
/// cycles of transfer. A transaction books its cost into the window of its
/// issue time, spilling into later windows when one fills up — the spill is
/// the queueing delay. Unlike a single `busy_until` timestamp, this stays
/// causal when cores simulate accesses in loosely-ordered chunks: a
/// transaction issued at an earlier time books into an earlier window even
/// if a later-time transaction was processed first.
///
/// Bookings go through a per-domain *overlay* (committed snapshot + local
/// delta); [`Bus::merge`] folds an overlay into the snapshot by summing
/// per-window cycles, so merged windows can exceed nominal capacity —
/// subsequent rounds then see zero free space and queue, which is exactly
/// the saturation the model wants to expose.
#[derive(Debug)]
struct Bus {
    window: u64,
    /// Booked cycles per window, keyed by window index (sparse; old
    /// windows are pruned at merge time).
    used: LineMap<u64>,
    horizon: u64,
}

impl Bus {
    fn new(window: u64) -> Self {
        Bus {
            window: window.max(1),
            used: LineMap::default(),
            horizon: 0,
        }
    }

    /// Book `cost` cycles starting at `now` against the committed snapshot
    /// plus `local` overlay, recording the booking into `local`; returns
    /// the total delay (queueing + transfer) experienced.
    fn book_overlaid(&self, local: &mut LineMap<u64>, now: u64, cost: u64) -> u64 {
        let w = self.window;
        let mut win = now / w;
        let mut remaining = cost;
        let mut end = now;
        loop {
            let committed = self.used.get(&win).copied().unwrap_or(0);
            let mine = local.entry(win).or_insert(0);
            // committed windows can be overbooked after a merge
            let free = w.saturating_sub(committed + *mine);
            if free >= remaining {
                *mine += remaining;
                end = end.max(win * w + committed + *mine);
                break;
            }
            remaining -= free;
            *mine += free;
            win += 1;
        }
        end.saturating_sub(now)
    }

    /// Fold a round's overlay into the snapshot (summing is commutative,
    /// so merge order across domains cannot matter) and prune windows far
    /// behind the newest booking.
    fn merge(&mut self, local: &mut LineMap<u64>) {
        let mut max_win = self.horizon;
        for (win, cycles) in local.drain() {
            *self.used.entry(win).or_insert(0) += cycles;
            max_win = max_win.max(win);
        }
        if max_win > self.horizon + 64 {
            let cutoff = max_win.saturating_sub(64);
            self.used.retain(|&k, _| k >= cutoff);
            self.horizon = max_win;
        }
    }
}

/// Cross-domain state: the directory, the system bus, and the per-node
/// memory channels. Within a round this is a read-only snapshot; it only
/// mutates in [`MemorySystem::commit_round`].
#[derive(Debug)]
struct SharedMem {
    dir: LineMap<Dir>,
    bus: Bus,
    /// Per-NUMA-node memory channels (bandwidth windows; only booked when
    /// the topology models channel occupancy).
    channels: Vec<Bus>,
}

/// One domain's private round overlay.
#[derive(Debug, Default)]
struct RoundCtx {
    /// Materialized view of every directory line this domain touched this
    /// round: snapshot value at first touch, plus own edits.
    dir_view: LineMap<Dir>,
    /// Ordered edit log, replayed into the snapshot at commit.
    dir_log: Vec<DirEdit>,
    /// Per-window bus cycles booked this round.
    bus_local: LineMap<u64>,
    /// Per-node channel cycles booked this round.
    chan_local: Vec<LineMap<u64>>,
    /// Foreign-cache invalidations to deliver at commit.
    invals: Vec<Inval>,
    /// Stats delta.
    stats: MemStats,
}

/// The caches and round overlay of one L2 group.
#[derive(Debug)]
struct DomainMem {
    cfg: MachineConfig,
    group: u32,
    base_core: u32,
    l1: Vec<Cache>,
    l2: Cache,
    /// L1 lines per L2 line.
    ratio: u64,
    l1_shift: u32,
    rnd: RoundCtx,
}

/// The simulated memory system.
#[derive(Debug)]
pub struct MemorySystem {
    cfg: MachineConfig,
    shared: SharedMem,
    domains: Vec<DomainMem>,
    /// Bit `g` set: domain `g` was accessed since the last commit (a
    /// machine has at most 64 cores, so at most 64 domains).
    touched: u64,
    committed: MemStats,
}

impl MemorySystem {
    /// Build the hierarchy for a machine.
    ///
    /// # Errors
    /// [`ConfigError`] if the machine has no cores, more than the 64 the
    /// coherence directory can track, or a cache geometry the tag stores
    /// cannot address.
    pub fn new(cfg: MachineConfig) -> Result<Self, ConfigError> {
        cfg.check()?;
        let groups = cfg.l2_groups();
        let per_group = cfg.l2_group.max(1);
        let ratio = (cfg.l2.line / cfg.l1.line).max(1) as u64;
        let nodes = cfg.nodes() as usize;
        let domains = (0..groups)
            .map(|g| {
                let base = g * per_group;
                let span = per_group.min(cfg.cores - base);
                DomainMem {
                    cfg,
                    group: g,
                    base_core: base,
                    l1: (0..span).map(|_| Cache::new(&cfg.l1)).collect(),
                    l2: Cache::new(&cfg.l2),
                    ratio,
                    l1_shift: cfg.l1.line.trailing_zeros(),
                    rnd: RoundCtx {
                        chan_local: vec![LineMap::default(); nodes],
                        ..RoundCtx::default()
                    },
                }
            })
            .collect();
        Ok(MemorySystem {
            cfg,
            shared: SharedMem {
                dir: LineMap::default(),
                // window sized so that ~256 line transfers fit per window:
                // wide enough to absorb chunk-granular reordering, narrow
                // enough to expose sustained saturation
                bus: Bus::new(256 * cfg.bus_transfer.max(1)),
                channels: (0..nodes)
                    .map(|_| Bus::new(256 * cfg.topology.channel_transfer.max(1)))
                    .collect(),
            },
            domains,
            touched: 0,
            committed: MemStats::default(),
        })
    }

    /// Perform one access; returns `(latency_cycles, class)`.
    ///
    /// `now` is the core-local cycle at which the access issues; bus
    /// arbitration is charged relative to it. Cross-domain effects become
    /// visible to other domains at the next [`MemorySystem::commit_round`].
    pub fn access(
        &mut self,
        core: u32,
        now: u64,
        byte_addr: u64,
        write: bool,
    ) -> (u64, AccessClass) {
        let group = self.cfg.group_of(core);
        self.touched |= 1 << group;
        let domain = &mut self.domains[group as usize];
        if write {
            domain.write(&self.shared, core, now, byte_addr)
        } else {
            domain.read(&self.shared, core, now, byte_addr)
        }
    }

    /// Merge every domain's round overlay into the shared snapshot. Call at
    /// each round boundary.
    ///
    /// Two passes, both in domain-index order: first the directory log,
    /// bus and channel overlays, and stats delta of every domain accessed
    /// since the last commit fold into the snapshot; then the recorded
    /// foreign-cache invalidations are delivered. An untouched domain has
    /// nothing to fold.
    pub fn commit_round(&mut self) {
        let MemorySystem {
            cfg,
            shared,
            domains,
            touched,
            committed,
        } = self;
        let mut invals: Vec<Inval> = Vec::new();
        while *touched != 0 {
            let g = touched.trailing_zeros() as usize;
            *touched &= *touched - 1;
            let rnd = &mut domains[g].rnd;
            for e in rnd.dir_log.drain(..) {
                e.apply(shared.dir.entry(e.line()).or_default());
            }
            rnd.dir_view.clear();
            shared.bus.merge(&mut rnd.bus_local);
            for (node, local) in rnd.chan_local.iter_mut().enumerate() {
                shared.channels[node].merge(local);
            }
            invals.append(&mut rnd.invals);
            committed.add(&rnd.stats);
            rnd.stats = MemStats::default();
        }
        for inv in invals {
            match inv {
                Inval::L1 { core, line } => {
                    let d = &mut domains[cfg.group_of(core) as usize];
                    debug_assert_eq!(d.group, cfg.group_of(core));
                    d.l1[(core - d.base_core) as usize].invalidate(line);
                }
                Inval::L2 { group, l2line } => {
                    domains[group as usize].l2.invalidate(l2line);
                }
            }
        }
    }

    /// Counters: committed rounds plus any still-open round deltas.
    pub fn stats(&self) -> MemStats {
        let mut s = self.committed;
        for d in &self.domains {
            s.add(&d.rnd.stats);
        }
        s
    }
}

impl DomainMem {
    #[inline]
    fn l1_line(&self, byte_addr: u64) -> u64 {
        byte_addr >> self.l1_shift
    }

    #[inline]
    fn l1_of(&mut self, core: u32) -> &mut Cache {
        &mut self.l1[(core - self.base_core) as usize]
    }

    /// Current directory view of `line`: own round edits first, else the
    /// shared snapshot.
    fn dir_of(&self, shared: &SharedMem, line: u64) -> Dir {
        self.rnd
            .dir_view
            .get(&line)
            .or_else(|| shared.dir.get(&line))
            .copied()
            .unwrap_or_default()
    }

    /// If `wanted` says so of the view entry as it stands, apply `e` to it
    /// and log `e` for the commit; returns the entry afterwards. The entry
    /// is materialized either way: untouched, it reads as the snapshot does.
    fn edit_if(
        &mut self,
        shared: &SharedMem,
        e: DirEdit,
        wanted: impl FnOnce(&Dir) -> bool,
    ) -> Dir {
        let line = e.line();
        let entry = self
            .rnd
            .dir_view
            .entry(line)
            .or_insert_with(|| shared.dir.get(&line).copied().unwrap_or_default());
        if wanted(entry) {
            e.apply(entry);
            self.rnd.dir_log.push(e);
        }
        *entry
    }

    /// Apply `e` to the view and log it; returns the view entry afterwards.
    fn edit(&mut self, shared: &SharedMem, e: DirEdit) -> Dir {
        self.edit_if(shared, e, |_| true)
    }

    /// Acquire the bus at `now` for `cost` cycles; returns the total delay
    /// including queueing.
    fn bus(&mut self, shared: &SharedMem, now: u64, cost: u64) -> u64 {
        let total = shared.bus.book_overlaid(&mut self.rnd.bus_local, now, cost);
        self.rnd.stats.bus_wait += total.saturating_sub(cost);
        self.rnd.stats.bus_busy += cost;
        total
    }

    /// Extra cycles a main-memory fetch pays under the NUMA topology:
    /// the remote-node penalty when the page's home controller sits on a
    /// different node than `core`, plus the home node's memory-channel
    /// occupancy (queueing into later bandwidth windows when the channel
    /// saturates). Zero on a flat topology.
    fn numa_mem(&mut self, shared: &SharedMem, core: u32, byte_addr: u64, at: u64) -> u64 {
        if self.cfg.topology.is_flat() {
            return 0;
        }
        let home = self.cfg.home_node(byte_addr);
        let mut extra = 0;
        if home != self.cfg.node_of(core) {
            extra += self.cfg.topology.remote_mem_penalty;
            self.rnd.stats.remote_node += 1;
        }
        let ct = self.cfg.topology.channel_transfer;
        if ct > 0 {
            let total = shared.channels[home as usize].book_overlaid(
                &mut self.rnd.chan_local[home as usize],
                at + extra,
                ct,
            );
            self.rnd.stats.channel_wait += total.saturating_sub(ct);
            extra += total;
        }
        extra
    }

    /// Extra cycles a cache-to-cache transfer pays when the supplier cache
    /// sits on a different NUMA node. The supplier is the dirty owner when
    /// one exists, otherwise the lowest-numbered foreign L2 group holding
    /// the line (deterministic, matching the directory's supply choice).
    fn numa_c2c(&mut self, core: u32, d: &Dir, g: u32) -> u64 {
        if self.cfg.topology.is_flat() || self.cfg.topology.remote_c2c_penalty == 0 {
            return 0;
        }
        let supplier = if let Some(o) = d.owner.filter(|&o| self.cfg.group_of(o) != g) {
            self.cfg.node_of(o)
        } else {
            let foreign = d.l2s & !(1u64 << g);
            if foreign == 0 {
                return 0;
            }
            self.cfg
                .node_of(foreign.trailing_zeros() * self.cfg.l2_group.max(1))
        };
        if supplier != self.cfg.node_of(core) {
            self.rnd.stats.remote_node += 1;
            self.cfg.topology.remote_c2c_penalty
        } else {
            0
        }
    }

    /// Evict bookkeeping for an L1 victim.
    fn l1_evicted(&mut self, shared: &SharedMem, core: u32, line: u64) {
        self.edit_if(shared, DirEdit::DelL1 { line, core }, |d| {
            d.l1s & (1 << core) != 0
        });
        // a dirty victim writes back through L2 (stays dirty in L2
        // conceptually); the owner mark survives so the group still
        // supplies dirty data
    }

    /// Evict bookkeeping for an L2 victim (an L2-granularity line).
    fn l2_evicted(&mut self, shared: &SharedMem, group: u32, l2_victim: u64) {
        for sub in (l2_victim * self.ratio)..((l2_victim + 1) * self.ratio) {
            let d = self.dir_of(shared, sub);
            if d.l2s & (1 << group) != 0 {
                self.edit(shared, DirEdit::DelL2 { line: sub, group });
            }
            if let Some(o) = d.owner {
                if self.cfg.group_of(o) == group {
                    self.edit(shared, DirEdit::DropOwner { line: sub });
                    self.rnd.stats.writebacks += 1;
                }
            }
        }
    }

    fn read(
        &mut self,
        shared: &SharedMem,
        core: u32,
        now: u64,
        byte_addr: u64,
    ) -> (u64, AccessClass) {
        let line = self.l1_line(byte_addr);
        if self.l1_of(core).probe(line) {
            self.rnd.stats.l1_hits += 1;
            return (self.cfg.l1.read_lat, AccessClass::L1Hit);
        }
        let g = self.group;
        let mut lat = self.cfg.l1.read_lat + self.cfg.l2.read_lat;
        let class;
        let l2_shift = self.l2.line_shift();
        if self.l2.probe(byte_addr >> l2_shift) {
            self.rnd.stats.l2_hits += 1;
            class = AccessClass::L2Hit;
        } else {
            // L2 miss: find a supplier over the bus
            let d = self.dir_of(shared, line);
            let foreign_owner = d.owner.filter(|&o| self.cfg.group_of(o) != g).is_some();
            let foreign_l2 = d.l2s & !(1u64 << g) != 0;
            if foreign_owner || foreign_l2 {
                // cache-to-cache supply (coherency miss)
                lat += self.cfg.c2c_lat;
                lat += self.numa_c2c(core, &d, g);
                lat += self.bus(shared, now + lat, self.cfg.bus_transfer);
                self.rnd.stats.remote_hits += 1;
                class = AccessClass::RemoteHit;
                if foreign_owner {
                    // dirty supplier demotes to shared and writes back
                    self.rnd.stats.writebacks += 1;
                    self.edit(shared, DirEdit::DropOwner { line });
                }
            } else {
                lat += self.cfg.mem_lat;
                lat += self.numa_mem(shared, core, byte_addr, now + lat);
                lat += self.bus(shared, now + lat, self.cfg.bus_transfer);
                self.rnd.stats.mem_misses += 1;
                class = AccessClass::MemMiss;
            }
            // fill L2
            let l2line = byte_addr >> l2_shift;
            if let Some(victim) = self.l2.insert(l2line) {
                self.l2_evicted(shared, g, victim);
            }
        }
        // fill L1
        if let Some(victim) = self.l1_of(core).insert(line) {
            self.l1_evicted(shared, core, victim);
        }
        let fill = DirEdit::Fill {
            line,
            core,
            group: g,
        };
        // a read by a non-owner demotes any owner to shared
        if self.edit(shared, fill).owner.is_some_and(|o| o != core) {
            self.edit(shared, DirEdit::DropOwner { line });
        }
        (lat, class)
    }

    fn write(
        &mut self,
        shared: &SharedMem,
        core: u32,
        now: u64,
        byte_addr: u64,
    ) -> (u64, AccessClass) {
        let line = self.l1_line(byte_addr);
        let g = self.group;
        let d = self.dir_of(shared, line);

        // exclusive-owner fast path
        if d.owner == Some(core) && self.l1_of(core).probe(line) {
            self.rnd.stats.l1_hits += 1;
            return (self.cfg.l1.write_lat, AccessClass::L1Hit);
        }

        let mut lat;
        let class;

        // invalidate foreign copies
        let foreign_l1 = d.l1s & !(1u64 << core);
        let foreign_l2 = d.l2s & !(1u64 << g);
        let had_local_copy = d.l1s & (1 << core) != 0 && self.l1_of(core).contains(line);
        let mut invalidate_lat = 0;
        if foreign_l1 != 0 || foreign_l2 != 0 {
            // one control transaction invalidates all sharers (snooping
            // bus); the writer waits for it to be ordered
            invalidate_lat = self.bus(shared, now, self.cfg.bus_control);
            for c2 in 0..self.cfg.cores {
                if foreign_l1 & (1 << c2) != 0 {
                    if self.cfg.group_of(c2) == g {
                        // a sibling core in this domain: drop it now
                        self.l1_of(c2).invalidate(line);
                    } else {
                        self.rnd.invals.push(Inval::L1 { core: c2, line });
                    }
                    self.rnd.stats.invalidations += 1;
                }
            }
            let l2line_inv = byte_addr >> self.l2.line_shift();
            for g2 in 0..self.cfg.l2_groups() {
                // own group is masked out of foreign_l2 by construction
                if foreign_l2 & (1 << g2) != 0 {
                    self.rnd.invals.push(Inval::L2 {
                        group: g2,
                        l2line: l2line_inv,
                    });
                    self.rnd.stats.invalidations += 1;
                }
            }
        }

        let foreign_owner_dirty = d.owner.is_some_and(|o| o != core);
        if had_local_copy && !foreign_owner_dirty {
            // data already local: pure upgrade (write + invalidation)
            lat = self.cfg.l1.write_lat + invalidate_lat;
            self.rnd.stats.upgrades += 1;
            class = AccessClass::Upgrade;
        } else {
            // need the data: own L2 / remote / memory (after the
            // invalidation is ordered)
            lat = self.cfg.l1.write_lat + self.cfg.l2.read_lat + invalidate_lat;
            let l2line = byte_addr >> self.l2.line_shift();
            if !foreign_owner_dirty && self.l2.probe(l2line) {
                self.rnd.stats.l2_hits += 1;
                class = AccessClass::L2Hit;
            } else if foreign_owner_dirty || foreign_l2 != 0 {
                lat += self.cfg.c2c_lat;
                lat += self.numa_c2c(core, &d, g);
                lat += self.bus(shared, now + lat, self.cfg.bus_transfer);
                self.rnd.stats.remote_hits += 1;
                self.rnd.stats.writebacks += u64::from(foreign_owner_dirty);
                class = AccessClass::RemoteHit;
            } else {
                lat += self.cfg.mem_lat;
                lat += self.numa_mem(shared, core, byte_addr, now + lat);
                lat += self.bus(shared, now + lat, self.cfg.bus_transfer);
                self.rnd.stats.mem_misses += 1;
                class = AccessClass::MemMiss;
            }
            if let Some(victim) = self.l2.insert(l2line) {
                self.l2_evicted(shared, g, victim);
            }
        }

        // take ownership
        if let Some(victim) = self.l1_of(core).insert(line) {
            self.l1_evicted(shared, core, victim);
        }
        self.edit(
            shared,
            DirEdit::Claim {
                line,
                core,
                group: g,
            },
        );
        (lat, class)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sys(cores: u32, group: u32) -> MemorySystem {
        let mut cfg = MachineConfig::bagle(cores);
        cfg.l2_group = group;
        MemorySystem::new(cfg).unwrap()
    }

    #[test]
    fn unrepresentable_configs_are_typed_errors_not_panics() {
        let build = |edit: fn(&mut MachineConfig)| {
            let mut cfg = MachineConfig::bagle(4);
            edit(&mut cfg);
            MemorySystem::new(cfg).map(|_| ())
        };
        let geometry = |cache, field| Err(ConfigError::CacheGeometry { cache, field });
        assert_eq!(build(|c| c.cores = 0), Err(ConfigError::NoCores));
        assert_eq!(
            build(|c| c.cores = 65),
            Err(ConfigError::Oversubscribed {
                kernels: 65,
                cores: 64
            })
        );
        assert_eq!(build(|c| c.l1.line = 0), geometry("l1", "line"));
        assert_eq!(build(|c| c.l2.line = c.l1.line / 2), geometry("l2", "line"));
        assert_eq!(build(|c| c.cores = 64), Ok(()));
    }

    #[test]
    fn cold_read_is_a_memory_miss_then_hits() {
        let mut m = sys(2, 1);
        let (lat, class) = m.access(0, 0, 0x1000, false);
        assert_eq!(class, AccessClass::MemMiss);
        assert!(lat >= m.cfg.mem_lat);
        let (lat2, class2) = m.access(0, 10_000, 0x1000, false);
        assert_eq!(class2, AccessClass::L1Hit);
        assert_eq!(lat2, m.cfg.l1.read_lat);
        assert!(lat2 < lat);
    }

    #[test]
    fn read_after_remote_read_is_cache_to_cache() {
        let mut m = sys(2, 1);
        m.access(0, 0, 0x40, false);
        m.commit_round(); // cores sit in different domains
        let (_, class) = m.access(1, 1_000, 0x40, false);
        assert_eq!(class, AccessClass::RemoteHit);
        assert_eq!(m.stats().remote_hits, 1);
    }

    #[test]
    fn same_group_cores_share_l2_within_a_round() {
        let mut m = sys(2, 2); // both cores in one group: no commit needed
        m.access(0, 0, 0x40, false);
        let (_, class) = m.access(1, 1_000, 0x40, false);
        assert_eq!(class, AccessClass::L2Hit);
    }

    #[test]
    fn write_invalidates_remote_reader() {
        let mut m = sys(2, 1);
        m.access(0, 0, 0x80, false); // core 0 reads
        m.commit_round();
        m.access(1, 100, 0x80, true); // core 1 writes -> invalidate core 0
        m.commit_round(); // delivers the cross-domain invalidation
        assert!(m.stats().invalidations >= 1);
        // core 0 re-read is not an L1 hit
        let (_, class) = m.access(0, 10_000, 0x80, false);
        assert_ne!(class, AccessClass::L1Hit);
        // and it is a coherency transfer from core 1's modified copy
        assert_eq!(class, AccessClass::RemoteHit);
    }

    #[test]
    fn cross_domain_writes_are_invisible_until_commit() {
        let mut m = sys(2, 1);
        m.access(0, 0, 0x80, false);
        m.commit_round();
        m.access(1, 100, 0x80, true); // invalidation recorded, not delivered
        let (_, class) = m.access(0, 200, 0x80, false);
        assert_eq!(
            class,
            AccessClass::L1Hit,
            "pre-commit reads see the snapshot"
        );
        m.commit_round();
        let (_, class) = m.access(0, 10_000, 0x80, false);
        assert_ne!(
            class,
            AccessClass::L1Hit,
            "commit delivers the invalidation"
        );
    }

    #[test]
    fn dirty_read_demotes_owner() {
        let mut m = sys(2, 1);
        m.access(0, 0, 0xC0, true); // core 0 owns dirty
        m.commit_round();
        m.access(1, 100, 0xC0, false); // core 1 reads: c2c + writeback
        m.commit_round();
        assert!(m.stats().writebacks >= 1);
        // core 0 rewriting needs an upgrade again (ownership was dropped)
        let (_, class) = m.access(0, 10_000, 0xC0, true);
        assert_eq!(class, AccessClass::Upgrade);
    }

    #[test]
    fn repeated_owner_writes_are_l1_hits() {
        let mut m = sys(2, 1);
        m.access(0, 0, 0x100, true);
        for t in 1..10 {
            let (lat, class) = m.access(0, t * 10, 0x100, true);
            assert_eq!(class, AccessClass::L1Hit);
            assert_eq!(lat, m.cfg.l1.write_lat);
        }
    }

    #[test]
    fn write_to_local_shared_line_is_upgrade() {
        let mut m = sys(2, 1);
        m.access(0, 0, 0x140, false);
        m.commit_round();
        m.access(1, 100, 0x140, false);
        m.commit_round();
        let (_, class) = m.access(0, 1_000, 0x140, true);
        assert_eq!(class, AccessClass::Upgrade);
        assert!(m.stats().invalidations >= 1); // core 1's copies dropped
    }

    #[test]
    fn bus_saturation_delays_misses() {
        let mut m = sys(4, 4); // one domain: saturation visible in-round
                               // Flood one bandwidth window: more transfer demand than one window
                               // (256 line transfers) can carry must spill into the next window,
                               // showing up as queueing delay.
        let mut lats = Vec::new();
        for i in 0..600u64 {
            let core = (i % 4) as u32;
            let (lat, _) = m.access(core, 0, 0x10000 + i * 4096, false);
            lats.push(lat);
        }
        assert!(m.stats().bus_wait > 0, "overload must queue");
        assert!(
            lats.last().unwrap() > lats.first().unwrap(),
            "later misses in a saturated window wait longer"
        );
        // while a single isolated miss far in the future pays no wait
        let before = m.stats().bus_wait;
        let (_, class) = m.access(0, 10_000_000, 0xFFFF_0000, false);
        assert_eq!(class, AccessClass::MemMiss);
        assert_eq!(m.stats().bus_wait, before);
    }

    #[test]
    fn committed_bus_demand_delays_the_next_round() {
        // two domains flood the same window in one round; after the merge
        // the window is overbooked, so a next-round miss at the same time
        // queues behind the committed demand
        let mut m = sys(2, 1);
        for i in 0..300u64 {
            m.access(0, 0, 0x10000 + i * 4096, false);
            m.access(1, 0, 0x80_0000 + i * 4096, false);
        }
        m.commit_round();
        let before = m.stats().bus_wait;
        let (_, class) = m.access(0, 0, 0xFFF_0000, false);
        assert_eq!(class, AccessClass::MemMiss);
        assert!(
            m.stats().bus_wait > before,
            "merged overlays must saturate the committed window"
        );
    }

    #[test]
    fn capacity_eviction_causes_re_miss() {
        // tiny L1: walk far beyond capacity, then re-walk
        let mut cfg = MachineConfig::bagle(1);
        cfg.l1.size = 1024; // 16 lines, 4-way
        let mut m = MemorySystem::new(cfg).unwrap();
        for i in 0..64u64 {
            m.access(0, i * 1000, i * 64, false);
        }
        let (_, class) = m.access(0, 1_000_000, 0, false);
        assert_ne!(class, AccessClass::L1Hit, "line 0 must have been evicted");
    }

    #[test]
    fn stats_accesses_add_up() {
        let mut m = sys(2, 1);
        for i in 0..20u64 {
            m.access((i % 2) as u32, i * 10, (i % 5) * 64, i % 3 == 0);
            if i % 4 == 3 {
                m.commit_round();
            }
        }
        assert_eq!(m.stats().accesses(), 20);
    }

    #[test]
    fn bus_merge_does_not_depend_on_booking_order() {
        // `Bus::merge` is the one place a map is iterated: the same round
        // overlay, built by booking its windows in two different orders
        // (so the two maps are laid out differently), must merge into the
        // same snapshot and delay the next round's bookings equally
        let merged = |times: &[u64]| {
            let mut bus = Bus::new(100);
            let mut local = LineMap::default();
            for &t in times {
                bus.book_overlaid(&mut local, t, 30);
            }
            bus.merge(&mut local);
            assert!(local.is_empty());
            bus
        };
        // 200 consecutive windows and one far enough ahead to prune most
        let times: Vec<u64> = (0..200).map(|w| w * 100).chain([23_000]).collect();
        let reversed: Vec<u64> = times.iter().rev().copied().collect();
        let (a, b) = (merged(&times), merged(&reversed));
        assert_eq!((&a.used, a.horizon), (&b.used, b.horizon));
        assert_eq!(a.used.keys().min(), Some(&166), "old windows pruned");
        for t in [0, 16_550, 16_690, 19_900, 23_000, 23_071] {
            let (mut la, mut lb) = (LineMap::default(), LineMap::default());
            assert_eq!(
                a.book_overlaid(&mut la, t, 80),
                b.book_overlaid(&mut lb, t, 80),
                "booking at {t}"
            );
        }
    }

    fn numa_sys(cores: u32) -> MemorySystem {
        MemorySystem::new(crate::config::MachineConfig::sparc_t3_4(cores).unwrap()).unwrap()
    }

    #[test]
    fn remote_node_memory_pays_exactly_the_penalty() {
        // page 0 is homed on node 0; core 0 sits on node 0, core 63 on node 3
        let mut local = numa_sys(64);
        let (lat_local, cl) = local.access(0, 0, 0x100, false);
        assert_eq!(cl, AccessClass::MemMiss);
        let mut remote = numa_sys(64);
        let (lat_remote, cr) = remote.access(63, 0, 0x100, false);
        assert_eq!(cr, AccessClass::MemMiss);
        assert_eq!(
            lat_remote,
            lat_local + remote.cfg.topology.remote_mem_penalty
        );
        assert_eq!(remote.stats().remote_node, 1);
        assert_eq!(local.stats().remote_node, 0);
    }

    #[test]
    fn cross_node_c2c_pays_the_remote_penalty() {
        let cfg = crate::config::MachineConfig::sparc_t3_4(64).unwrap();
        let no_penalty = MachineConfig {
            topology: crate::config::Topology {
                remote_c2c_penalty: 0,
                ..cfg.topology
            },
            ..cfg
        };
        // core 0 (node 0) dirties a line; core 17 (node 1) reads it back
        let run = |mut m: MemorySystem| {
            m.access(0, 0, 0x40, true);
            m.commit_round();
            let (lat, class) = m.access(17, 10_000, 0x40, false);
            assert_eq!(class, AccessClass::RemoteHit);
            (lat, m.stats().remote_node)
        };
        let (lat_pen, crossings) = run(MemorySystem::new(cfg).unwrap());
        let (lat_flat, _) = run(MemorySystem::new(no_penalty).unwrap());
        assert_eq!(lat_pen, lat_flat + cfg.topology.remote_c2c_penalty);
        assert!(crossings >= 1);
    }

    #[test]
    fn node_memory_channel_saturates_under_flood() {
        // 16 cores = one node (and one domain); 600 distinct-page misses at
        // time 0 demand ~600 channel slots against a 256-slot window, so
        // the tail queues
        let mut m = numa_sys(16);
        let mut lats = Vec::new();
        for i in 0..600u64 {
            let (lat, class) = m.access((i % 16) as u32, 0, 0x10_0000 + i * 4096, false);
            assert_eq!(class, AccessClass::MemMiss);
            lats.push(lat);
        }
        assert!(m.stats().channel_wait > 0, "channel flood must queue");
        assert!(
            lats.last().unwrap() > lats.first().unwrap(),
            "later transfers in a saturated channel wait longer"
        );
    }

    #[test]
    fn l2_line_larger_than_l1_line_works() {
        // Bagle: L2 line 128B, L1 64B. Two adjacent L1 lines share an L2
        // line: second read should be an L2 hit (spatial prefetch effect).
        let mut m = sys(1, 1);
        m.access(0, 0, 0x0, false); // fills L2 line 0 (bytes 0..128)
        let (_, class) = m.access(0, 1_000, 0x40, false);
        assert_eq!(class, AccessClass::L2Hit);
    }

    #[test]
    fn concurrent_sharer_bits_survive_the_merge() {
        // both domains read the same line in one round; the semantic edit
        // log must keep both sharer bits (a last-writer-wins entry merge
        // would drop one)
        let mut m = sys(2, 1);
        m.access(0, 0, 0x200, false);
        m.access(1, 0, 0x200, false);
        m.commit_round();
        // a third-party write must invalidate *both* copies
        let mut m2 = sys(2, 1);
        m2.access(0, 0, 0x200, false);
        m2.access(1, 0, 0x200, false);
        m2.commit_round();
        m2.access(1, 100, 0x200, true);
        m2.commit_round();
        assert!(
            m2.stats().invalidations >= 1,
            "core 0's sharer bit must have survived the merge"
        );
        let (_, class) = m2.access(0, 10_000, 0x200, false);
        assert_ne!(class, AccessClass::L1Hit);
        drop(m);
    }
}
