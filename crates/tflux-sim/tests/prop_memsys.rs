//! Property tests of the cache/coherence model: for arbitrary interleaved
//! access streams the model must preserve its structural invariants —
//! counters add up, latencies are bounded, dirty data has a unique owner
//! (observable as: a reader after a foreign write never gets a stale L1
//! hit), and the model is deterministic.

use tflux_core::{cases, SplitMix64};
use tflux_sim::{AccessClass, MachineConfig, MemorySystem};

#[derive(Debug, Clone, Copy)]
struct Op {
    core: u32,
    line: u64,
    write: bool,
}

fn ops(rng: &mut SplitMix64, cores: u32) -> Vec<Op> {
    (0..rng.range(1..300))
        .map(|_| Op {
            core: rng.range(0..cores),
            line: rng.range(0u64..32) * 64, // distinct cache lines in a small working set
            write: rng.chance(1, 2),
        })
        .collect()
}

#[test]
fn counters_add_up_and_latencies_are_bounded() {
    cases(200, |rng| {
        let stream = ops(rng, 4);
        let cfg = MachineConfig::bagle(4);
        let mut m = MemorySystem::new(cfg).unwrap();
        let worst = cfg.l1.read_lat
            + cfg.l1.write_lat
            + cfg.l2.read_lat
            + cfg.mem_lat
            + cfg.c2c_lat
            + 10_000; // generous bus-queue allowance
        let mut t = 0u64;
        for op in &stream {
            let (lat, _) = m.access(op.core, t, op.line, op.write);
            assert!(lat <= worst, "latency {lat} out of bounds");
            t += lat;
        }
        assert_eq!(m.stats().accesses(), stream.len() as u64);
    });
}

#[test]
fn no_stale_read_after_foreign_write() {
    cases(200, |rng| {
        let stream = ops(rng, 4);
        // Replay the stream with every access in its own round; after any
        // write by core W, the very next read of that line by a different
        // core must NOT be an L1 hit (its copy was invalidated at the
        // commit). Cross-domain effects are only promised at round
        // boundaries, so the serial replay commits between accesses.
        let mut m = MemorySystem::new(MachineConfig::bagle(4)).unwrap();
        let mut last_writer: std::collections::HashMap<u64, u32> = Default::default();
        let mut t = 0u64;
        for op in &stream {
            let (lat, class) = m.access(op.core, t, op.line, op.write);
            m.commit_round();
            t += lat;
            if op.write {
                last_writer.insert(op.line, op.core);
            } else if let Some(&w) = last_writer.get(&op.line) {
                if w != op.core {
                    // the line was dirtied elsewhere since this core last
                    // touched it; serving it from local L1 would be stale
                    assert_ne!(
                        class,
                        AccessClass::L1Hit,
                        "core {} read stale line {:#x} (writer {})",
                        op.core,
                        op.line,
                        w
                    );
                }
                // this read makes the value shared/clean again for us
                if !op.write {
                    // subsequent same-core reads may hit; only track dirty
                    if w != op.core {
                        last_writer.remove(&op.line);
                    }
                }
            }
        }
    });
}

#[test]
fn model_is_deterministic() {
    cases(200, |rng| {
        let stream = ops(rng, 3);
        let run = || {
            let mut m = MemorySystem::new(MachineConfig::bagle(3)).unwrap();
            let mut t = 0u64;
            let mut lats = Vec::new();
            for op in &stream {
                let (lat, _) = m.access(op.core, t, op.line, op.write);
                lats.push(lat);
                t += lat;
            }
            (lats, m.stats().accesses(), m.stats().bus_busy)
        };
        assert_eq!(run(), run());
    });
}

#[test]
fn single_domain_commits_are_invisible() {
    cases(100, |rng| {
        // One domain's overlay and the snapshot are the same state, so when
        // — or whether — it commits cannot show in any latency, class or
        // counter. `Machine::run_sequential` relies on this to commit once
        // per instance. (Time advances with the stream, as it does there:
        // a merge prunes bus windows far behind the newest booking.)
        let machines = [
            MachineConfig::bagle(1),
            MachineConfig::sparc_t3_4(16).expect("16 kernels fit the T3-4"),
        ];
        let cfg = *rng.pick(&machines);
        let every = rng.range(1usize..40);
        let stream: Vec<(u32, u64, bool)> = (0..rng.range(1..600))
            .map(|_| {
                // 2048 lines: 16× the T3-4's L1s, 4× Bagle's
                let addr = rng.range(0u64..2048) * 64 + rng.range(0u64..64);
                (rng.range(0..cfg.cores), addr, rng.chance(1, 3))
            })
            .collect();
        let run = |every: Option<usize>| {
            let mut m = MemorySystem::new(cfg).unwrap();
            let mut t = 0u64;
            let mut seen = Vec::new();
            for (i, &(core, addr, write)) in stream.iter().enumerate() {
                let (lat, class) = m.access(core, t, addr, write);
                seen.push((lat, class));
                t += lat;
                if every.is_some_and(|k| i % k == k - 1) {
                    m.commit_round();
                }
            }
            (seen, m.stats())
        };
        assert_eq!(run(None), run(Some(every)), "commit every {every}");
    });
}

#[test]
fn repeated_private_access_converges_to_l1_hits() {
    cases(200, |rng| {
        let core = rng.range(0u32..4);
        let line = rng.range(0u64..64);
        let mut m = MemorySystem::new(MachineConfig::bagle(4)).unwrap();
        let addr = line * 64;
        let mut t = 0;
        for i in 0..10 {
            let (lat, class) = m.access(core, t, addr, false);
            t += lat + 100;
            if i > 0 {
                assert_eq!(class, AccessClass::L1Hit);
            }
        }
    });
}

#[test]
fn remote_node_cold_miss_never_beats_local() {
    cases(200, |rng| {
        let page = rng.range(0u64..256);
        let write = rng.chance(1, 2);
        // For any page on the 4-node T3-4, a cold miss from a core on the
        // page's home node is a lower bound on the same cold miss from any
        // core on a foreign node: remote memory can be slower, never
        // faster.
        let cfg = MachineConfig::sparc_t3_4(64).expect("64 kernels fit the T3-4");
        let addr = page * 4096;
        let home = cfg.home_node(addr);
        let cold = |core: u32| {
            let mut m = MemorySystem::new(cfg).unwrap();
            m.access(core, 0, addr, write).0
        };
        let local = cold(home * cfg.topology.cores_per_node);
        for node in 0..cfg.nodes() {
            if node == home {
                continue;
            }
            let remote = cold(node * cfg.topology.cores_per_node);
            assert!(
                remote >= local,
                "remote-node miss ({remote}) beat the local one ({local}) for page {page:#x}"
            );
        }
    });
}

#[test]
fn channel_wait_is_monotone_in_concurrency() {
    cases(200, |rng| {
        let n = rng.range(1usize..24);
        // Flood one node's memory channel with `n` simultaneous cold
        // misses to distinct pages it homes: the cycles spent queued on
        // the saturated channel must never *decrease* when one more
        // concurrent transfer joins.
        let cfg = MachineConfig::sparc_t3_4(64).expect("64 kernels fit the T3-4");
        let flood = |n: usize| {
            let mut m = MemorySystem::new(cfg).unwrap();
            for i in 0..n {
                // page i*nodes homes on node 0; one requesting core per
                // access so every miss is cold and concurrent at t = 0
                let addr = (i as u64 * cfg.nodes() as u64) * 4096;
                m.access((i % 64) as u32, 0, addr, false);
            }
            m.stats().channel_wait
        };
        assert!(
            flood(n + 1) >= flood(n),
            "channel wait dropped when concurrency rose from {n} to {}",
            n + 1
        );
    });
}
