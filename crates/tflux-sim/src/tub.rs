//! The segmented Thread-to-Update Buffer (TUB) of §4.2, as an arbitrated
//! port in front of the software-TSU Emulator core.
//!
//! §4.2: a completing kernel publishes its update into the TUB, which the
//! TSU Emulator drains. The TUB is split into segments, and a kernel takes
//! "the first available segment using try/lock", so it stalls only when
//! every segment is busy. [`simulate`] replays that protocol on the
//! [`EventQueue`], at the [`TsuCosts::soft`] costs:
//!
//! * a push holds its segment for one `access`;
//! * the Emulator holds a segment for one `op` per entry it drains;
//! * between two pushes a kernel runs the rest of its per-DThread loop
//!   with an empty body — a fetch (`access + op`) and `kernel_overhead` —
//!   so completions arrive as fast as the costs allow;
//! * the Emulator serves the kernels' first fetches one after another, so
//!   pusher `p` first pushes at cycle `p × op`.
//!
//! A pusher starts at the segment a shared round-robin hint names. A
//! segment it finds held counts one busy hit, and it tries the next. After
//! a pass that found every segment held, it scans again when the first of
//! them frees. The Emulator drains non-empty segments round-robin, waits
//! for a pusher holding the one it chose, and idles while all are empty.
//!
//! The model is a pure function of its arguments. It is not on
//! [`Machine::run`](crate::Machine::run)'s path: the machine charges the
//! software TSU through [`TsuCosts`] alone.

use crate::config::TsuCosts;
use crate::event::EventQueue;

/// What one [`simulate`] run measured.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TubStats {
    /// Completions published.
    pub pushes: u64,
    /// Segment attempts that found the segment held by a pusher or the
    /// Emulator.
    pub busy_hits: u64,
    /// Cycles pushers spent publishing, summed over every push: the wait
    /// for a segment plus the `access` that holds it.
    pub push_cycles: u64,
}

enum Ev {
    /// Pusher `.0` scans for a segment, starting at segment `.1`.
    Push(u32, usize),
    /// The Emulator looks for a non-empty segment to drain.
    Drain,
}

/// Simulate `pushers` cores each publishing `pushes` completions into a
/// `segments`-way TUB (at least 1) in front of one Emulator core. The
/// Emulator runs on lane 0 and pusher `p` on lane `p + 1`, so same-cycle
/// ties go to the Emulator, then to lower pushers.
pub fn simulate(pushers: u32, segments: u32, pushes: u32) -> TubStats {
    let costs = TsuCosts::soft();
    let n = segments.max(1) as usize;
    let think = costs.access + costs.op + costs.kernel_overhead;
    // per segment: the cycle its holder releases it, and its queued entries
    let (mut held_until, mut queued) = (vec![0u64; n], vec![0u64; n]);
    // per pusher: pushes left, and the cycle it asked for a segment
    let mut left = vec![pushes; pushers as usize];
    let mut asked: Vec<u64> = (0..pushers as u64).map(|p| p * costs.op).collect();
    let mut events = EventQueue::new();
    if pushes > 0 {
        for p in 0..pushers {
            let i = p as usize;
            events.push_lane(p + 1, asked[i], Ev::Push(p, i % n));
        }
    }
    let (mut hint, mut cursor, mut emulator_idle) = (pushers as usize, 0, true);
    let mut stats = TubStats::default();
    while let Some((now, ev)) = events.pop() {
        match ev {
            Ev::Push(p, start) => {
                let free = (0..n)
                    .map(|off| (start + off) % n)
                    .find(|&s| held_until[s] <= now);
                // every segment tried before the free one was held
                stats.busy_hits += free.map_or(n, |s| (s + n - start) % n) as u64;
                let Some(s) = free else {
                    let retry = held_until.iter().copied().min().unwrap_or(now);
                    events.push_lane(p + 1, retry, ev);
                    continue;
                };
                let (i, released) = (p as usize, now + costs.access);
                held_until[s] = released;
                queued[s] += 1;
                stats.pushes += 1;
                stats.push_cycles += released - asked[i];
                if emulator_idle {
                    emulator_idle = false;
                    events.push_lane(0, released, Ev::Drain);
                }
                left[i] -= 1;
                if left[i] > 0 {
                    asked[i] = released + think;
                    events.push_lane(p + 1, asked[i], Ev::Push(p, hint % n));
                    hint += 1;
                }
            }
            Ev::Drain => {
                let Some(s) = (0..n)
                    .map(|off| (cursor + off) % n)
                    .find(|&s| queued[s] > 0)
                else {
                    emulator_idle = true;
                    continue;
                };
                if held_until[s] > now {
                    // a blocking lock: the Emulator takes it at release
                    events.push_lane(0, held_until[s], Ev::Drain);
                    continue;
                }
                held_until[s] = now + queued[s] * costs.op;
                queued[s] = 0;
                cursor = (s + 1) % n;
                events.push_lane(0, held_until[s], Ev::Drain);
            }
        }
    }
    debug_assert!(queued.iter().all(|&k| k == 0), "undrained entries");
    stats
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_pusher_waits_only_for_a_held_segment() {
        // pusher 0 holds the one segment for [0, 250) and the Emulator
        // drains its entry for [250, 950); pusher 1 asks at 700 (one `op`
        // later) and takes the segment at 950
        let c = TsuCosts::soft();
        let counts = |s: TubStats| (s.pushes, s.busy_hits, s.push_cycles);
        assert_eq!(counts(simulate(2, 1, 1)), (2, 1, 3 * c.access));
        assert_eq!(counts(simulate(2, 2, 1)), (2, 0, 2 * c.access));
        // alone, a pusher's think time outlasts the drain of its entry
        assert_eq!(counts(simulate(1, 1, 100)), (100, 0, 100 * c.access));
        assert_eq!(simulate(8, 3, 50).pushes, 400);
        assert_eq!(simulate(3, 0, 0), TubStats::default());
    }
}
