//! Machine configurations, with the paper's two evaluation machines as
//! presets.

use std::fmt;

/// Errors constructing a machine configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ConfigError {
    /// More kernels requested than the machine has kernel cores.
    Oversubscribed {
        /// Kernels requested.
        kernels: u32,
        /// Kernel cores the machine actually has.
        cores: u32,
    },
    /// A machine with zero cores: nothing can run the kernel loop.
    NoCores,
    /// A cache whose tag store cannot be addressed as configured.
    CacheGeometry {
        /// `"l1"` or `"l2"`.
        cache: &'static str,
        /// The [`CacheConfig`] field at fault: `"line"` (not a power of two
        /// of at least 2 bytes, or an L2 line shorter than the L1's) or
        /// `"assoc"` (zero).
        field: &'static str,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::Oversubscribed { kernels, cores } => write!(
                f,
                "{kernels} kernels requested but the machine has {cores} kernel cores"
            ),
            ConfigError::NoCores => write!(f, "the machine has no cores"),
            ConfigError::CacheGeometry { cache, field } => write!(
                f,
                "{cache} cache: `{field}` is out of range (`line` is a power of two of \
                 at least 2 bytes, the L2's no shorter than the L1's; `assoc` is at least 1)"
            ),
        }
    }
}

impl std::error::Error for ConfigError {}

/// Physical core/memory layout beyond the cache hierarchy: NUMA nodes with
/// distinct local/remote latencies and a per-node memory-channel bandwidth
/// budget.
///
/// The default is a flat (UMA) machine: one node, zero remote penalties,
/// unmodeled channel bandwidth — cycle-identical to the pre-topology
/// simulator, which keeps the Bagle/x86 paper figures stable.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Topology {
    /// Cores per NUMA node (0 = all cores on one node, flat/UMA).
    pub cores_per_node: u32,
    /// Extra cycles for a memory access served by a remote node's memory
    /// controller (added on top of `mem_lat`).
    pub remote_mem_penalty: u64,
    /// Extra cycles for a cache-to-cache transfer whose supplier sits on a
    /// different node (added on top of `c2c_lat`).
    pub remote_c2c_penalty: u64,
    /// Per-node memory-channel occupancy of one line transfer, in cycles
    /// (0 = infinite bandwidth, channel unmodeled). Concurrent transfers to
    /// one node's memory book into shared bandwidth windows and queue when
    /// a window fills — they do not pipeline for free.
    pub channel_transfer: u64,
}

impl Default for Topology {
    fn default() -> Self {
        Topology::flat()
    }
}

impl Topology {
    /// A flat UMA machine (single node, no penalties, unmodeled channel).
    pub fn flat() -> Self {
        Topology {
            cores_per_node: 0,
            remote_mem_penalty: 0,
            remote_c2c_penalty: 0,
            channel_transfer: 0,
        }
    }

    /// Whether this topology is flat (no NUMA effects modeled at all).
    pub fn is_flat(&self) -> bool {
        self.cores_per_node == 0 && self.channel_transfer == 0
    }
}

/// Geometry and latency of one cache level.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total size in bytes.
    pub size: usize,
    /// Line size in bytes (power of two).
    pub line: usize,
    /// Associativity (ways per set).
    pub assoc: usize,
    /// Read-hit latency in cycles.
    pub read_lat: u64,
    /// Write-hit latency in cycles.
    pub write_lat: u64,
}

impl CacheConfig {
    /// Number of sets.
    pub fn sets(&self) -> usize {
        (self.size / self.line / self.assoc).max(1)
    }
}

/// Cycle costs of the kernel↔TSU interface.
///
/// `TFluxHard`: commands are memory stores/loads through the MMI
/// (§4.1 — an access is "penalized with 4 additional cycles compared to a
/// normal L1 cache access") and the TSU processes each in `op` cycles
/// (the §4.1 sensitivity knob). `TFluxSoft`: commands cross shared memory
/// plus locking (hundreds of cycles) and the TSU Emulator core spends
/// `op` cycles of software per command (§6.2.2 — "the need to invoke a
/// number of TSU Emulation functions when a DThread completes").
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TsuCosts {
    /// Cycles for a kernel to issue one command to the TSU (MMI access for
    /// hardware, shared-memory + lock round trip for software).
    pub access: u64,
    /// Cycles the TSU unit needs to process one command (serialized inside
    /// the TSU Group / Emulator).
    pub op: u64,
    /// Cycles of kernel-side software run per DThread transition (zero for
    /// hardware, where the kernel just issues stores; the
    /// FindReadyThread-loop and post-processing call overhead for soft).
    pub kernel_overhead: u64,
    /// Extra cycles when a fetch is served by *stealing* from a sibling
    /// kernel's ready queue instead of the core's own (the remote-queue
    /// walk inside the unit for hardware; a cross-queue CAS plus the
    /// victim's cache line for software).
    pub steal: u64,
}

impl TsuCosts {
    /// Hardware TSU Group costs (§4.1/§6.1.1): MMI access = L1 read (2) + 4
    /// penalty cycles; TSU processing time 4 cycles.
    pub fn hard() -> Self {
        TsuCosts {
            access: 6,
            op: 4,
            kernel_overhead: 0,
            steal: 10,
        }
    }

    /// Software TSU Emulator costs, calibrated so that per-DThread overhead
    /// sits in the ~1–2 k-cycle range the paper implies (unroll ≥ 16 needed
    /// to amortize, §6.2.2).
    pub fn soft() -> Self {
        TsuCosts {
            access: 250,
            op: 700,
            kernel_overhead: 500,
            steal: 300,
        }
    }
}

/// Full machine description.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MachineConfig {
    /// Number of cores executing kernels. (Cores reserved for the OS or the
    /// TSU Emulator are excluded — they are modeled by the TSU device's
    /// costs, not as simulated cores.)
    pub cores: u32,
    /// Per-core L1 data cache.
    pub l1: CacheConfig,
    /// Unified L2 cache, one per `l2_group` cores.
    pub l2: CacheConfig,
    /// How many cores share one L2 (1 = private L2 per core).
    pub l2_group: u32,
    /// Main-memory access latency in cycles (beyond L2).
    pub mem_lat: u64,
    /// Bus occupancy per line transfer in cycles (system network
    /// serialization unit).
    pub bus_transfer: u64,
    /// Bus occupancy of a coherence control message (invalidate/upgrade).
    pub bus_control: u64,
    /// Cache-to-cache transfer latency (remote L2 supplies the line).
    pub c2c_lat: u64,
    /// Kernel↔TSU cost model.
    pub tsu: TsuCosts,
    /// Number of TSU Group shards (§3.3 names multi-group TSUs as work in
    /// progress for large machines; 1 = the paper's single TSU Group).
    /// Cores are partitioned round-robin-free: shard = core × groups /
    /// cores. Cross-shard ready-count updates pay a bus crossing.
    pub tsu_groups: u32,
    /// NUMA layout (defaults to flat/UMA).
    pub topology: Topology,
}

impl MachineConfig {
    /// The paper's simulated Sparc CMP "Bagle" (§6.1.1): 28 cores (27
    /// usable as kernels, 1 reserved for the OS); 32 KB 4-way L1D with
    /// 2-cycle reads; 2 MB 8-way per-core L2 with 20-cycle access; hardware
    /// TSU Group.
    pub fn bagle(kernels: u32) -> Self {
        MachineConfig {
            cores: kernels,
            l1: CacheConfig {
                size: 32 * 1024,
                line: 64,
                assoc: 4,
                read_lat: 2,
                write_lat: 0,
            },
            l2: CacheConfig {
                size: 2 * 1024 * 1024,
                line: 128,
                assoc: 8,
                read_lat: 20,
                write_lat: 20,
            },
            l2_group: 1,
            mem_lat: 180,
            bus_transfer: 4,
            bus_control: 2,
            c2c_lat: 40,
            tsu: TsuCosts::hard(),
            tsu_groups: 1,
            topology: Topology::flat(),
        }
    }

    /// The paper's native TFluxSoft machine (§6.2.1): IBM x3650 with two
    /// Xeon E5320 Core2 QuadCores. 32 KB 8-way L1 (3-cycle), 4 MB 16-way L2
    /// shared per core *pair* (14-cycle) — the pair topology behind QSORT's
    /// small-size anomaly — and the software TSU Emulator cost model.
    pub fn xeon_x3650(kernels: u32) -> Self {
        MachineConfig {
            cores: kernels,
            l1: CacheConfig {
                size: 32 * 1024,
                line: 64,
                assoc: 8,
                read_lat: 3,
                write_lat: 1,
            },
            l2: CacheConfig {
                size: 4 * 1024 * 1024,
                line: 64,
                assoc: 16,
                read_lat: 14,
                write_lat: 14,
            },
            l2_group: 2,
            mem_lat: 220,
            bus_transfer: 6,
            bus_control: 3,
            c2c_lat: 60,
            tsu: TsuCosts::soft(),
            tsu_groups: 1,
            topology: Topology::flat(),
        }
    }

    /// The 9-core x86 machine "similar to Bagle" the paper also simulated
    /// (§6.1.2: "The same benchmarks have been executed on a simulated 9
    /// cores X86 system similar to Bagle. The speedup values observed and
    /// conclusions drawn are similar"). x86-typical L1/L2 latencies, one
    /// core reserved for the OS — 8 kernels.
    ///
    /// # Errors
    /// [`ConfigError::Oversubscribed`] when more than 8 kernels are
    /// requested: the machine has 8 kernel cores, and silently folding
    /// extra kernels onto them would mis-report per-kernel speedups.
    pub fn x86_9core(kernels: u32) -> Result<Self, ConfigError> {
        if kernels > 8 {
            return Err(ConfigError::Oversubscribed { kernels, cores: 8 });
        }
        Ok(MachineConfig {
            cores: kernels,
            l1: CacheConfig {
                size: 32 * 1024,
                line: 64,
                assoc: 8,
                read_lat: 3,
                write_lat: 1,
            },
            l2: CacheConfig {
                size: 2 * 1024 * 1024,
                line: 64,
                assoc: 8,
                read_lat: 16,
                write_lat: 16,
            },
            l2_group: 1,
            mem_lat: 200,
            bus_transfer: 4,
            bus_control: 2,
            c2c_lat: 44,
            tsu: TsuCosts::hard(),
            tsu_groups: 1,
            topology: Topology::flat(),
        })
    }

    /// A SPARC-T3-4-class 64-core NUMA machine: 4 sockets × 16 cores, one
    /// shared L2 per socket, per-socket memory controllers. Latencies follow
    /// the T3-4 characterization (small write-through-style L1s, ~25-cycle
    /// shared L2, remote-socket memory roughly 1.5× local) with the hardware
    /// TSU cost model and one TSU Group shard per socket.
    ///
    /// # Errors
    /// [`ConfigError::Oversubscribed`] when more than 64 kernels are
    /// requested (the directory's core bitmaps are 64 bits wide — exactly
    /// this machine).
    pub fn sparc_t3_4(kernels: u32) -> Result<Self, ConfigError> {
        if kernels > 64 {
            return Err(ConfigError::Oversubscribed { kernels, cores: 64 });
        }
        Ok(MachineConfig {
            cores: kernels,
            l1: CacheConfig {
                size: 8 * 1024,
                line: 64,
                assoc: 4,
                read_lat: 3,
                write_lat: 1,
            },
            l2: CacheConfig {
                size: 6 * 1024 * 1024,
                line: 64,
                assoc: 16,
                read_lat: 26,
                write_lat: 26,
            },
            // one shared L2 per 16-core socket
            l2_group: 16,
            mem_lat: 240,
            bus_transfer: 4,
            bus_control: 2,
            c2c_lat: 70,
            tsu: TsuCosts::hard(),
            tsu_groups: kernels.div_ceil(16).max(1),
            topology: Topology {
                cores_per_node: 16,
                remote_mem_penalty: 120,
                remote_c2c_penalty: 60,
                channel_transfer: 8,
            },
        })
    }

    /// Reject what the memory system cannot represent. `cores` is a public
    /// field: zero cores is [`ConfigError::NoCores`], and more than the 64
    /// its sharer bitmaps track is [`ConfigError::Oversubscribed`]. The
    /// cache `line` and `assoc` fields are public too: a zero in either
    /// divides by zero, and a `line` that is not a power of two — or an L2
    /// line shorter than the L1's — would be mis-addressed silently
    /// ([`ConfigError::CacheGeometry`]). A `line` of at least 2 bytes also
    /// keeps every line address below `u64::MAX`, which the tag stores
    /// rely on.
    pub(crate) fn check(&self) -> Result<(), ConfigError> {
        match self.cores {
            0 => return Err(ConfigError::NoCores),
            cores @ 65.. => {
                return Err(ConfigError::Oversubscribed {
                    kernels: cores,
                    cores: 64,
                })
            }
            _ => {}
        }
        let bad = |cache, field| Err(ConfigError::CacheGeometry { cache, field });
        for (cache, c) in [("l1", &self.l1), ("l2", &self.l2)] {
            if c.line < 2 || !c.line.is_power_of_two() {
                return bad(cache, "line");
            }
            if c.assoc == 0 {
                return bad(cache, "assoc");
            }
        }
        if self.l2.line < self.l1.line {
            return bad("l2", "line");
        }
        Ok(())
    }

    /// Override the TSU cost model.
    pub fn with_tsu(mut self, tsu: TsuCosts) -> Self {
        self.tsu = tsu;
        self
    }

    /// Override the number of TSU Group shards.
    pub fn with_tsu_groups(mut self, groups: u32) -> Self {
        self.tsu_groups = groups.max(1);
        self
    }

    /// Number of L2 groups on this machine.
    pub fn l2_groups(&self) -> u32 {
        self.cores.div_ceil(self.l2_group.max(1))
    }

    /// The L2 group a core belongs to.
    pub fn group_of(&self, core: u32) -> u32 {
        core / self.l2_group.max(1)
    }

    /// Length in cycles of one DES merge round — the interval at which
    /// per-domain memory-system overlays commit into the shared snapshot
    /// and deferred TSU-device operations replay: `max(tsu.access +
    /// tsu.op, 256)`, i.e. at least the conservative cross-core window (the
    /// minimum latency by which one core's activity can schedule work on
    /// another core), widened so machines with very fast TSUs still
    /// amortize commit overhead. It sets the granularity at which
    /// cross-domain memory effects become visible, so it is part of the
    /// model.
    pub fn merge_round_len(&self) -> u64 {
        (self.tsu.access + self.tsu.op).max(256)
    }

    /// Number of NUMA nodes (1 for a flat machine).
    pub fn nodes(&self) -> u32 {
        let per = self.topology.cores_per_node;
        if per == 0 {
            1
        } else {
            self.cores.div_ceil(per).max(1)
        }
    }

    /// The NUMA node a core belongs to (cores are packed onto nodes in
    /// order, so small kernel counts stay on one socket).
    pub fn node_of(&self, core: u32) -> u32 {
        core.checked_div(self.topology.cores_per_node).unwrap_or(0)
    }

    /// The home node of a physical address: memory is interleaved across
    /// nodes at 4 KiB-page granularity (deterministic, so simulations stay
    /// bit-reproducible).
    pub fn home_node(&self, byte_addr: u64) -> u32 {
        let n = self.nodes() as u64;
        if n <= 1 {
            0
        } else {
            ((byte_addr >> 12) % n) as u32
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bagle_matches_paper_geometry() {
        let m = MachineConfig::bagle(27);
        assert_eq!(m.l1.size, 32 * 1024);
        assert_eq!(m.l1.assoc, 4);
        assert_eq!(m.l1.read_lat, 2);
        assert_eq!(m.l1.write_lat, 0);
        assert_eq!(m.l2.size, 2 * 1024 * 1024);
        assert_eq!(m.l2.line, 128);
        assert_eq!(m.l2.read_lat, 20);
        assert_eq!(m.l2_group, 1);
        assert_eq!(m.tsu, TsuCosts::hard());
        assert_eq!(m.tsu.access, 6); // L1 read (2) + 4-cycle MMI penalty
    }

    #[test]
    fn xeon_pairs_cores_per_l2() {
        let m = MachineConfig::xeon_x3650(6);
        assert_eq!(m.l2_group, 2);
        assert_eq!(m.l2_groups(), 3);
        assert_eq!(m.group_of(0), 0);
        assert_eq!(m.group_of(1), 0);
        assert_eq!(m.group_of(2), 1);
        assert_eq!(m.group_of(5), 2);
    }

    #[test]
    fn cache_sets_computed() {
        let c = CacheConfig {
            size: 32 * 1024,
            line: 64,
            assoc: 4,
            read_lat: 2,
            write_lat: 0,
        };
        assert_eq!(c.sets(), 128);
    }

    #[test]
    fn x86_9core_rejects_oversubscription_with_typed_error() {
        // regression: the preset used to clamp `kernels.min(8)` silently, so
        // a 16-kernel run quietly simulated 8 cores with doubled-up kernels
        let err = MachineConfig::x86_9core(27).unwrap_err();
        assert_eq!(
            err,
            ConfigError::Oversubscribed {
                kernels: 27,
                cores: 8
            }
        );
        assert!(err.to_string().contains("27 kernels"));
        let m = MachineConfig::x86_9core(8).unwrap();
        assert_eq!(m.cores, 8);
        assert_eq!(m.l1.read_lat, 3);
        assert_eq!(m.tsu, TsuCosts::hard());
    }

    #[test]
    fn t3_4_preset_is_a_64_core_numa_machine() {
        let m = MachineConfig::sparc_t3_4(64).unwrap();
        assert_eq!(m.cores, 64);
        assert_eq!(m.nodes(), 4);
        assert_eq!(m.l2_group, 16);
        assert_eq!(m.l2_groups(), 4);
        assert_eq!(m.node_of(0), 0);
        assert_eq!(m.node_of(15), 0);
        assert_eq!(m.node_of(16), 1);
        assert_eq!(m.node_of(63), 3);
        assert!(m.topology.remote_mem_penalty > 0);
        assert!(m.topology.channel_transfer > 0);
        assert!(!m.topology.is_flat());
        assert_eq!(
            MachineConfig::sparc_t3_4(65).unwrap_err(),
            ConfigError::Oversubscribed {
                kernels: 65,
                cores: 64
            }
        );
        // small kernel counts pack onto the first socket
        let small = MachineConfig::sparc_t3_4(8).unwrap();
        assert_eq!(small.nodes(), 1);
        assert!((0..8).all(|c| small.node_of(c) == 0));
    }

    #[test]
    fn flat_topology_has_one_node_and_interleaving_is_deterministic() {
        let flat = MachineConfig::bagle(8);
        assert!(flat.topology.is_flat());
        assert_eq!(flat.nodes(), 1);
        assert_eq!(flat.home_node(0xDEAD_BEEF), 0);
        let numa = MachineConfig::sparc_t3_4(64).unwrap();
        // pages interleave round-robin across the 4 nodes
        assert_eq!(numa.home_node(0x0000), 0);
        assert_eq!(numa.home_node(0x1000), 1);
        assert_eq!(numa.home_node(0x2000), 2);
        assert_eq!(numa.home_node(0x3000), 3);
        assert_eq!(numa.home_node(0x4000), 0);
        // same-page addresses share a home
        assert_eq!(numa.home_node(0x1000), numa.home_node(0x1FFF));
    }

    #[test]
    fn soft_costs_dominate_hard_costs() {
        let h = TsuCosts::hard();
        let s = TsuCosts::soft();
        assert!(s.access > 10 * h.access);
        assert!(s.op > 10 * h.op);
        assert!(s.kernel_overhead > 0 && h.kernel_overhead == 0);
    }
}
