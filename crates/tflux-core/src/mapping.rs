//! Instance mappings for synchronization-graph arcs.
//!
//! An arc of the synchronization graph connects a producer DThread template
//! to a consumer template. When either side is a loop thread (arity > 1) the
//! arc also needs to say *which instances* depend on which. The paper's
//! benchmarks need one-to-one loop chaining, broadcast from a scalar setup
//! thread, reductions into a scalar sink, and the QSORT two-level merge tree
//! — all covered by the variants here.

use crate::error::CoreError;
use crate::ids::{Context, ThreadId};

/// How producer instances map onto consumer instances across an arc.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ArcMapping {
    /// Every producer instance notifies every consumer instance.
    ///
    /// With producer arity 1 this is a *broadcast*; with consumer arity 1 it
    /// is a *reduction*; with both 1 it is a plain scalar dependency.
    All,
    /// Producer context `c` notifies consumer context `c`.
    ///
    /// Requires equal arities.
    OneToOne,
    /// Producer context `c` notifies consumer context `c + k` when in range.
    ///
    /// Used for pipelined/stencil dependencies. Out-of-range targets are
    /// simply dropped (the consumer instance then has one fewer producer).
    Offset(i32),
    /// Producer context `c` notifies consumer context `c / factor`.
    ///
    /// The *merge tree* mapping: `factor` producers feed each consumer.
    /// Requires `consumer_arity == ceil(producer_arity / factor)`.
    Group {
        /// How many producer instances feed each consumer instance.
        factor: u32,
    },
    /// Producer context `c` notifies consumers `c*factor .. (c+1)*factor`.
    ///
    /// The *fork* mapping, inverse of [`ArcMapping::Group`]. Requires
    /// `producer_arity == ceil(consumer_arity / factor)`.
    Expand {
        /// How many consumer instances each producer instance feeds.
        factor: u32,
    },
}

impl ArcMapping {
    /// A broadcast from a scalar producer (alias for [`ArcMapping::All`]).
    #[allow(non_upper_case_globals)]
    pub const Broadcast: ArcMapping = ArcMapping::All;
    /// A reduction into a scalar consumer (alias for [`ArcMapping::All`]).
    #[allow(non_upper_case_globals)]
    pub const Reduction: ArcMapping = ArcMapping::All;
    /// A scalar-to-scalar dependency (alias for [`ArcMapping::All`]).
    #[allow(non_upper_case_globals)]
    pub const Scalar: ArcMapping = ArcMapping::All;

    /// Check that this mapping is compatible with the given arities.
    pub fn validate(
        &self,
        producer: ThreadId,
        consumer: ThreadId,
        prod_arity: u32,
        cons_arity: u32,
    ) -> Result<(), CoreError> {
        let fail = |detail: String| {
            Err(CoreError::ArityMismatch {
                producer,
                consumer,
                detail,
            })
        };
        match *self {
            ArcMapping::All => Ok(()),
            ArcMapping::OneToOne => {
                if prod_arity != cons_arity {
                    fail(format!(
                        "OneToOne needs equal arities, got {prod_arity} -> {cons_arity}"
                    ))
                } else {
                    Ok(())
                }
            }
            ArcMapping::Offset(_) => {
                if prod_arity != cons_arity {
                    fail(format!(
                        "Offset needs equal arities, got {prod_arity} -> {cons_arity}"
                    ))
                } else {
                    Ok(())
                }
            }
            ArcMapping::Group { factor } => {
                if factor == 0 {
                    return fail("Group factor must be non-zero".into());
                }
                let expect = prod_arity.div_ceil(factor);
                if cons_arity != expect {
                    fail(format!(
                        "Group{{{factor}}} over {prod_arity} producers needs consumer \
                         arity {expect}, got {cons_arity}"
                    ))
                } else {
                    Ok(())
                }
            }
            ArcMapping::Expand { factor } => {
                if factor == 0 {
                    return fail("Expand factor must be non-zero".into());
                }
                let expect = cons_arity.div_ceil(factor);
                if prod_arity != expect {
                    fail(format!(
                        "Expand{{{factor}}} into {cons_arity} consumers needs producer \
                         arity {expect}, got {prod_arity}"
                    ))
                } else {
                    Ok(())
                }
            }
        }
    }

    /// The consumer contexts notified when producer context `ctx` completes.
    ///
    /// `prod_arity`/`cons_arity` are the arities of the two templates; the
    /// mapping must already have been [validated](Self::validate).
    pub fn consumers(
        &self,
        ctx: Context,
        prod_arity: u32,
        cons_arity: u32,
    ) -> impl Iterator<Item = Context> + '_ {
        let c = ctx.0;
        debug_assert!(c < prod_arity, "producer context out of range");
        let (lo, hi): (u32, u32) = match *self {
            ArcMapping::All => (0, cons_arity),
            ArcMapping::OneToOne => (c, c + 1),
            ArcMapping::Offset(k) => {
                let t = c as i64 + k as i64;
                if t >= 0 && (t as u32) < cons_arity {
                    (t as u32, t as u32 + 1)
                } else {
                    (0, 0)
                }
            }
            ArcMapping::Group { factor } => {
                let t = c / factor;
                (t, t + 1)
            }
            ArcMapping::Expand { factor } => {
                let lo = c * factor;
                (lo, (lo + factor).min(cons_arity))
            }
        };
        (lo..hi).map(Context)
    }

    /// How many producer completions consumer context `ctx` waits for on
    /// this arc.
    pub fn fan_in(&self, ctx: Context, prod_arity: u32, cons_arity: u32) -> u32 {
        let c = ctx.0;
        debug_assert!(c < cons_arity, "consumer context out of range");
        match *self {
            ArcMapping::All => prod_arity,
            ArcMapping::OneToOne => 1,
            ArcMapping::Offset(k) => {
                // producer context c - k must exist
                let s = c as i64 - k as i64;
                u32::from(s >= 0 && (s as u32) < prod_arity)
            }
            ArcMapping::Group { factor } => {
                let lo = c * factor;
                let hi = (lo + factor).min(prod_arity);
                hi.saturating_sub(lo)
            }
            ArcMapping::Expand { factor } => {
                let p = c / factor;
                u32::from(p < prod_arity)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn collect(m: ArcMapping, ctx: u32, pa: u32, ca: u32) -> Vec<u32> {
        m.consumers(Context(ctx), pa, ca).map(|c| c.0).collect()
    }

    #[test]
    fn all_broadcasts_and_reduces() {
        assert_eq!(collect(ArcMapping::All, 0, 1, 4), vec![0, 1, 2, 3]);
        assert_eq!(collect(ArcMapping::All, 2, 4, 1), vec![0]);
        assert_eq!(ArcMapping::All.fan_in(Context(0), 4, 1), 4);
        assert_eq!(ArcMapping::All.fan_in(Context(3), 1, 4), 1);
    }

    #[test]
    fn one_to_one_maps_identity() {
        assert_eq!(collect(ArcMapping::OneToOne, 2, 4, 4), vec![2]);
        assert_eq!(ArcMapping::OneToOne.fan_in(Context(2), 4, 4), 1);
    }

    #[test]
    fn offset_drops_out_of_range() {
        assert_eq!(collect(ArcMapping::Offset(1), 3, 4, 4), vec![]);
        assert_eq!(collect(ArcMapping::Offset(1), 1, 4, 4), vec![2]);
        assert_eq!(collect(ArcMapping::Offset(-1), 0, 4, 4), vec![]);
        // first consumer of a +1 offset has no producer
        assert_eq!(ArcMapping::Offset(1).fan_in(Context(0), 4, 4), 0);
        assert_eq!(ArcMapping::Offset(1).fan_in(Context(3), 4, 4), 1);
    }

    #[test]
    fn group_builds_merge_tree() {
        // 8 sorters -> 4 mergers, factor 2
        assert_eq!(collect(ArcMapping::Group { factor: 2 }, 5, 8, 4), vec![2]);
        assert_eq!(ArcMapping::Group { factor: 2 }.fan_in(Context(2), 8, 4), 2);
        // ragged tail: 5 producers, factor 2 -> 3 consumers, last gets 1
        assert_eq!(ArcMapping::Group { factor: 2 }.fan_in(Context(2), 5, 3), 1);
    }

    #[test]
    fn expand_forks() {
        assert_eq!(
            collect(ArcMapping::Expand { factor: 3 }, 1, 2, 6),
            vec![3, 4, 5]
        );
        assert_eq!(ArcMapping::Expand { factor: 3 }.fan_in(Context(4), 2, 6), 1);
        // ragged tail
        assert_eq!(
            collect(ArcMapping::Expand { factor: 3 }, 1, 2, 5),
            vec![3, 4]
        );
    }

    #[test]
    fn validate_rejects_bad_arities() {
        let p = ThreadId(0);
        let c = ThreadId(1);
        assert!(ArcMapping::OneToOne.validate(p, c, 4, 5).is_err());
        assert!(ArcMapping::Group { factor: 2 }
            .validate(p, c, 8, 3)
            .is_err());
        assert!(ArcMapping::Group { factor: 2 }.validate(p, c, 8, 4).is_ok());
        assert!(ArcMapping::Group { factor: 0 }
            .validate(p, c, 8, 4)
            .is_err());
        assert!(ArcMapping::Expand { factor: 2 }
            .validate(p, c, 4, 8)
            .is_ok());
        assert!(ArcMapping::Expand { factor: 2 }
            .validate(p, c, 3, 8)
            .is_err());
        assert!(ArcMapping::All.validate(p, c, 3, 8).is_ok());
    }

    #[test]
    fn consumers_and_fan_in_are_consistent() {
        // For every mapping and arity pair, the multiset of notifications
        // seen by consumers equals the sum of fan-ins.
        let cases = [
            (ArcMapping::All, 3, 5),
            (ArcMapping::OneToOne, 6, 6),
            (ArcMapping::Offset(2), 6, 6),
            (ArcMapping::Offset(-3), 6, 6),
            (ArcMapping::Group { factor: 2 }, 7, 4),
            (ArcMapping::Expand { factor: 4 }, 2, 7),
        ];
        for (m, pa, ca) in cases {
            let mut got = vec![0u32; ca as usize];
            for p in 0..pa {
                for c in m.consumers(Context(p), pa, ca) {
                    got[c.idx()] += 1;
                }
            }
            for c in 0..ca {
                assert_eq!(
                    got[c as usize],
                    m.fan_in(Context(c), pa, ca),
                    "mapping {m:?} consumer {c} (pa={pa}, ca={ca})"
                );
            }
        }
    }
}
