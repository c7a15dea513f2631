//! Test-only reference: the interval environment as nested `BTreeMap`s,
//! solved by the reference solver, with every operation as it was before
//! the environment became two sorted vectors. The differential test below
//! demands identical facts and identical answers from both. Delete this
//! module once the gate has held through one more change.

use super::{Env as FlatEnv, Interval, RangeAnalysis, ValueRanges, REL_K_MAX, REL_MAX_TERMS};
use crate::dataflow::reference::{solve, ReferenceAnalysis};
use crate::dataflow::{Direction, SolveResult};
use pythia_ir::{BinOp, BlockId, CmpPred, Function, Inst, Placement, ValueId, ValueKind};
use std::collections::BTreeMap;

type UpperBounds = BTreeMap<ValueId, i64>;

#[derive(Debug, Clone, PartialEq, Eq, Default)]
struct Env {
    iv: BTreeMap<ValueId, Interval>,
    ub: BTreeMap<ValueId, UpperBounds>,
}

impl Env {
    fn bound(&mut self, v: ValueId, w: ValueId, k: i64) {
        if k.abs() > REL_K_MAX {
            return;
        }
        let terms = self.ub.entry(v).or_default();
        match terms.get(&w) {
            Some(&old) if old <= k => {}
            _ => {
                terms.insert(w, k);
            }
        }
        while terms.len() > REL_MAX_TERMS {
            let last = *terms.keys().next_back().expect("non-empty");
            terms.remove(&last);
        }
    }

    /// Whether the flat environment holds exactly these facts.
    fn same_as(&self, flat: &FlatEnv) -> bool {
        self.iv
            .iter()
            .map(|(&v, &r)| (v, r))
            .eq(flat.iv.iter().copied())
            && self
                .ub
                .iter()
                .flat_map(|(&v, ts)| ts.iter().map(move |(&w, &k)| (v, w, k)))
                .eq(flat.ub.iter().copied())
    }
}

type Fact = Option<Env>;

/// The reference analysis: the flat analysis's thresholds and pure
/// interval helpers, with the map environment.
struct Reference {
    inner: RangeAnalysis,
    param_seeds: BTreeMap<ValueId, Interval>,
}

impl Reference {
    fn range_of(f: &Function, env: &Env, v: ValueId) -> Interval {
        match f.value(v).kind {
            ValueKind::ConstInt(c) => Interval::exact(c),
            _ => env.iv.get(&v).copied().unwrap_or(Interval::FULL),
        }
    }

    fn resolved_range(f: &Function, env: &Env, v: ValueId) -> Interval {
        let base = Self::range_of(f, env, v);
        let Some(terms) = env.ub.get(&v) else {
            return base;
        };
        let mut hi = base.hi;
        for (&w, &k) in terms {
            let wr = Self::range_of(f, env, w);
            if wr.hi != i64::MAX {
                hi = hi.min(wr.hi.saturating_add(k));
            }
        }
        if hi < base.lo {
            return base;
        }
        Interval { lo: base.lo, hi }
    }

    fn transfer_inst(&self, f: &Function, env: &mut Env, iv: ValueId) {
        let Some(inst) = f.inst(iv) else { return };
        let range = match inst {
            Inst::Bin { op, lhs, rhs } => {
                let l = Self::range_of(f, env, *lhs);
                let r = Self::range_of(f, env, *rhs);
                let shifted = match (op, &f.value(*lhs).kind, &f.value(*rhs).kind) {
                    (BinOp::Add, _, ValueKind::ConstInt(c)) => Some((*lhs, *c)),
                    (BinOp::Add, ValueKind::ConstInt(c), _) => Some((*rhs, *c)),
                    (BinOp::Sub, _, ValueKind::ConstInt(c)) => Some((*lhs, -*c)),
                    _ => None,
                };
                if let Some((w, c)) = shifted {
                    if !matches!(f.value(w).kind, ValueKind::ConstInt(_)) {
                        let inherited: Vec<(ValueId, i64)> = env
                            .ub
                            .get(&w)
                            .map(|ts| ts.iter().map(|(&u, &k)| (u, k.saturating_add(c))).collect())
                            .unwrap_or_default();
                        env.bound(iv, w, c);
                        for (u, k) in inherited {
                            env.bound(iv, u, k);
                        }
                    }
                }
                match op {
                    BinOp::Add => Some(l.add(r)),
                    BinOp::Sub => Some(l.sub(r)),
                    BinOp::Mul => Some(l.mul(r)),
                    _ => None,
                }
            }
            Inst::Icmp { .. } => Some(Interval { lo: 0, hi: 1 }),
            Inst::Select {
                on_true, on_false, ..
            } => {
                let t = Self::range_of(f, env, *on_true);
                let e = Self::range_of(f, env, *on_false);
                Some(Interval {
                    lo: t.lo.min(e.lo),
                    hi: t.hi.max(e.hi),
                })
            }
            Inst::Phi { .. } => return,
            _ => None,
        };
        match range {
            Some(r) if !r.is_full() && f.value(iv).ty.is_int() => {
                env.iv.insert(iv, r);
            }
            _ => {
                env.iv.remove(&iv);
            }
        }
    }

    fn relate(pred: CmpPred, env: &mut Env, f: &Function, lhs: ValueId, rhs: ValueId) {
        let is_const = |v: ValueId| matches!(f.value(v).kind, ValueKind::ConstInt(_));
        let lhs_nonneg = Self::range_of(f, env, lhs).lo >= 0;
        let rhs_nonneg = Self::range_of(f, env, rhs).lo >= 0;
        let bounds: &[(ValueId, ValueId, i64)] = match pred {
            CmpPred::Slt => &[(lhs, rhs, -1)],
            CmpPred::Sle => &[(lhs, rhs, 0)],
            CmpPred::Sgt => &[(rhs, lhs, -1)],
            CmpPred::Sge => &[(rhs, lhs, 0)],
            CmpPred::Ult if rhs_nonneg => &[(lhs, rhs, -1)],
            CmpPred::Ule if rhs_nonneg => &[(lhs, rhs, 0)],
            CmpPred::Ugt if lhs_nonneg => &[(rhs, lhs, -1)],
            CmpPred::Uge if lhs_nonneg => &[(rhs, lhs, 0)],
            CmpPred::Eq => &[(lhs, rhs, 0), (rhs, lhs, 0)],
            _ => &[],
        };
        for &(small, big, k) in bounds {
            if !is_const(small) && !is_const(big) {
                env.bound(small, big, k);
            }
        }
    }
}

impl ReferenceAnalysis for Reference {
    type Fact = Fact;

    fn direction(&self) -> Direction {
        Direction::Forward
    }

    fn boundary(&self, _f: &Function, _bb: BlockId) -> Fact {
        Some(Env {
            iv: self.param_seeds.clone(),
            ub: BTreeMap::new(),
        })
    }

    fn top(&self, _f: &Function) -> Fact {
        None
    }

    fn meet(&self, a: &Fact, b: &Fact) -> Fact {
        match (a, b) {
            (None, x) | (x, None) => x.clone(),
            (Some(a), Some(b)) => {
                let mut iv = BTreeMap::new();
                for (v, ia) in &a.iv {
                    if let Some(ib) = b.iv.get(v) {
                        let j = self.inner.join(*ia, *ib);
                        if !j.is_full() {
                            iv.insert(*v, j);
                        }
                    }
                }
                let mut ub = BTreeMap::new();
                for (v, ta) in &a.ub {
                    if let Some(tb) = b.ub.get(v) {
                        let mut terms = UpperBounds::new();
                        for (w, ka) in ta {
                            if let Some(kb) = tb.get(w) {
                                terms.insert(*w, (*ka).max(*kb));
                            }
                        }
                        if !terms.is_empty() {
                            ub.insert(*v, terms);
                        }
                    }
                }
                Some(Env { iv, ub })
            }
        }
    }

    fn transfer(&self, f: &Function, bb: BlockId, fact: &Fact) -> Fact {
        let mut out = fact.clone()?;
        for &iv in &f.block(bb).insts {
            self.transfer_inst(f, &mut out, iv);
        }
        Some(out)
    }

    fn edge(&self, f: &Function, from: BlockId, to: BlockId, fact: &Fact) -> Fact {
        let Some(env) = fact else { return None };
        let mut out = env.clone();

        if let Some(Inst::Br {
            cond,
            then_bb,
            else_bb,
        }) = f.terminator(from)
        {
            if then_bb != else_bb {
                if let Some(Inst::Icmp { pred, lhs, rhs }) = f.inst(*cond) {
                    let effective = if to == *then_bb {
                        *pred
                    } else {
                        RangeAnalysis::negate(*pred)
                    };
                    let l = Self::range_of(f, &out, *lhs);
                    let r = Self::range_of(f, &out, *rhs);
                    if let Some((nl, nr)) = RangeAnalysis::refine(effective, l, r) {
                        for (v, iv) in [(*lhs, nl), (*rhs, nr)] {
                            if !matches!(f.value(v).kind, ValueKind::ConstInt(_)) && !iv.is_full() {
                                out.iv.insert(v, iv);
                            }
                        }
                    }
                    Self::relate(effective, &mut out, f, *lhs, *rhs);
                }
            }
        }

        let mut phi_bindings: Vec<(ValueId, ValueId, Interval)> = Vec::new();
        for &iv in &f.block(to).insts {
            if let Some(Inst::Phi { incomings }) = f.inst(iv) {
                if !f.value(iv).ty.is_int() {
                    continue;
                }
                for (pb, pv) in incomings {
                    if *pb == from {
                        phi_bindings.push((iv, *pv, Self::range_of(f, &out, *pv)));
                    }
                }
            }
        }
        for (v, pv, r) in phi_bindings {
            if r.is_full() {
                out.iv.remove(&v);
            } else {
                out.iv.insert(v, r);
            }
            out.ub.remove(&v);
            if !matches!(f.value(pv).kind, ValueKind::ConstInt(_)) {
                let inherited: Vec<(ValueId, i64)> = out
                    .ub
                    .get(&pv)
                    .map(|ts| ts.iter().map(|(&u, &k)| (u, k)).collect())
                    .unwrap_or_default();
                out.bound(v, pv, 0);
                for (u, k) in inherited {
                    out.bound(v, u, k);
                }
            }
        }
        Some(out)
    }
}

/// The reference counterpart of [`ValueRanges`].
struct ReferenceRanges {
    analysis: Reference,
    result: SolveResult<Fact>,
    home: Placement,
}

impl ReferenceRanges {
    fn solve(f: &Function, seeds: &[(ValueId, Interval)]) -> Self {
        let analysis = Reference {
            inner: RangeAnalysis::for_function(f, seeds),
            param_seeds: seeds.iter().copied().collect(),
        };
        let result = solve(f, &analysis);
        ReferenceRanges {
            analysis,
            result,
            home: f.placement(),
        }
    }

    fn range_before(&self, f: &Function, at: ValueId, v: ValueId) -> Interval {
        if !self.result.converged {
            return Interval::FULL;
        }
        let Some(bb) = self.home.block_of(at) else {
            return Interval::FULL;
        };
        let Some(input) = self.result.input(bb) else {
            return Interval::FULL;
        };
        let mut env = input.clone();
        for &iv in &f.block(bb).insts {
            if iv == at {
                break;
            }
            self.analysis.transfer_inst(f, &mut env, iv);
        }
        Reference::resolved_range(f, &env, v)
    }

    fn block_reachable(&self, bb: BlockId) -> bool {
        self.result.input(bb).is_some() || !self.result.converged
    }
}

mod tests {
    use super::*;
    use crate::dataflow::reference::smoke_suite;
    use crate::{value_ranges_seeded, OverflowReach, SliceContext};
    use pythia_ir::{FuncId, Module};
    use std::collections::BTreeSet;

    /// Every seed list the interval solver is run under on `m`: none, the
    /// pruner's per-context seeds, and each function's integer
    /// parameters pinned to `[0, 16]`.
    fn seed_lists(m: &Module) -> Vec<(FuncId, Vec<(ValueId, Interval)>)> {
        // Keyed by plain bounds: `Interval` has no order.
        type Key = (FuncId, Vec<(ValueId, i64, i64)>);
        let mut lists: BTreeSet<Key> = BTreeSet::new();
        for (i, f) in m.functions().iter().enumerate() {
            let fid = FuncId(i as u32);
            lists.insert((fid, Vec::new()));
            let pinned: Vec<_> = (0..f.params.len())
                .map(|p| f.arg(p))
                .filter(|&a| f.value(a).ty.is_int())
                .map(|a| (a, 0, 16))
                .collect();
            if !pinned.is_empty() {
                lists.insert((fid, pinned));
            }
        }
        let ctx = SliceContext::new(m);
        OverflowReach::compute(&ctx);
        for a in ctx.proof_answers() {
            lists.insert((
                a.func,
                a.seeds.iter().map(|(v, r)| (*v, r.lo, r.hi)).collect(),
            ));
        }
        lists
            .into_iter()
            .map(|(fid, seeds)| {
                let seeds = seeds
                    .into_iter()
                    .map(|(v, lo, hi)| (v, Interval { lo, hi }));
                (fid, seeds.collect())
            })
            .collect()
    }

    /// Block facts, `range_before` at every gep's index and at every
    /// terminator (for every value the block's fact or body can bound), and
    /// `block_reachable` agree with the reference on the smoke-tier suite
    /// plus nginx, unseeded and seeded.
    #[test]
    fn flat_intervals_match_the_map_reference() {
        let (mut solves, mut seeded, mut queries) = (0, 0, 0u64);
        for m in smoke_suite() {
            let lists = seed_lists(&m);
            for (fid, seeds) in &lists {
                let f = m.func(*fid);
                let flat: ValueRanges = value_ranges_seeded(f, seeds);
                let reference = ReferenceRanges::solve(f, seeds);
                let at = |what: &str| format!("{}/{} seeds {seeds:?}: {what}", m.name, f.name);
                assert_eq!(
                    flat.converged(),
                    reference.result.converged,
                    "{}",
                    at("converged")
                );
                for bb in f.block_ids() {
                    for (side, a, b) in [
                        ("input", flat.result.input(bb), reference.result.input(bb)),
                        (
                            "output",
                            flat.result.output(bb),
                            reference.result.output(bb),
                        ),
                    ] {
                        let same = match (a, b) {
                            (None, None) => true,
                            (Some(a), Some(b)) => b.same_as(a),
                            _ => false,
                        };
                        assert!(same, "{}", at(&format!("{side} fact of {bb}")));
                    }
                    assert_eq!(
                        flat.block_reachable(bb),
                        reference.block_reachable(bb),
                        "{}",
                        at(&format!("reachability of {bb}"))
                    );
                    let Some(&term) = f.block(bb).insts.last() else {
                        continue;
                    };
                    // Every value the replay can bound: those the block's
                    // input fact tracks, those the block defines, and the
                    // terminator's operands.
                    let mut asked: BTreeSet<ValueId> = f.block(bb).insts.iter().copied().collect();
                    if let Some(env) = flat.result.input(bb) {
                        asked.extend(env.iv.iter().map(|e| e.0));
                        asked.extend(env.ub.iter().map(|r| r.0));
                    }
                    f.inst(term).into_iter().for_each(|t| {
                        t.for_each_operand(|v| {
                            asked.insert(v);
                        })
                    });
                    for v in asked {
                        assert_eq!(
                            flat.range_before(f, term, v),
                            reference.range_before(f, term, v),
                            "{}",
                            at(&format!("{v} before {term}"))
                        );
                        queries += 1;
                    }
                    for &iv in &f.block(bb).insts {
                        if let Some(Inst::Gep { index, .. }) = f.inst(iv) {
                            assert_eq!(
                                flat.range_before(f, iv, *index),
                                reference.range_before(f, iv, *index),
                                "{}",
                                at(&format!("index of {iv}"))
                            );
                            queries += 1;
                        }
                    }
                }
                solves += 1;
                seeded += usize::from(!seeds.is_empty());
            }
        }
        assert!(
            seeded > 0 && solves > seeded,
            "{solves} solves, {seeded} seeded"
        );
        assert!(queries > 0);
    }
}
