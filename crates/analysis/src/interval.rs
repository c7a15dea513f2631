//! Interval (value-range) analysis: a forward dataflow on the shared
//! worklist solver that bounds every integer SSA value with a closed
//! interval `[lo, hi]`, precise enough to prove variable-index memory
//! accesses in-bounds (`0 ≤ index < count` along **all** paths).
//!
//! The obligation pruner ([`crate::reach`]) consumes these proofs: a store
//! through a `gep` whose index is proven in-bounds for every pointee
//! cannot overflow into a neighboring object, so it is not an
//! overflow-capable write and the objects adjacent to its targets need no
//! protection on its account.
//!
//! # Lattice
//!
//! A fact is `None` (unreachable — the optimistic ⊤) or an `Env`: a map
//! from [`ValueId`] to [`Interval`] (an absent key means the full range,
//! the per-variable ⊥) plus a map of *relational upper bounds* `v ≤ w + k`
//! against non-constant SSA values `w`. The interval join widens with a
//! *threshold set* harvested from the function's integer constants (each
//! `c` contributes `c−1`, `c`, `c+1`, plus 0 and the i64 extremes):
//! unequal bounds snap outward to the nearest threshold, so every
//! per-variable chain is finite and the solver converges without giving
//! up the loop-bound constants that in-bounds proofs actually need
//! (`i < N` refinement keeps `N−1`).
//!
//! # Relational facts
//!
//! Guards against a *non-constant* bound (`i < len`) record `i ≤ len − 1`
//! symbolically. Because both sides are SSA values, the relation can never
//! be invalidated by a later assignment — there is no kill set — so it
//! survives until a join drops it (relations meet by key intersection,
//! keeping the weaker offset). At query time the relation is substituted
//! one level deep: `hi(i) = min(hi(i), hi(len) + k)`, which resolves
//! guards whose bound only becomes constant *after* the guard (`if i <
//! len { if len <= 8 { a[i] } }`) and bounds seeded per calling context.
//! Offsets are clamped to [`REL_K_MAX`] and each value keeps at most
//! [`REL_MAX_TERMS`] relations, which bounds the lattice height.
//!
//! Branch refinement and phi selection both live in the solver's
//! [`DataflowAnalysis::edge`] hook: crossing `pred → target` first clamps
//! the ranges of the compared operands according to the branch condition's
//! outcome on that edge, then binds each phi in `target` to its
//! edge-specific operand range (intervals and relations alike).
//!
//! # Unsigned guards
//!
//! `a <u b` with `b` statically non-negative implies `0 ≤ a ≤ b − 1` even
//! when `a`'s own range spans negatives: a negative signed `a`
//! reinterprets as a huge unsigned value and fails the test. A single
//! `i ult len` guard therefore proves both bounds of an index. No
//! refinement is sound when the bound side may be negative (its unsigned
//! reinterpretation would be enormous), and the *false* edge of such a
//! guard refines nothing (`i ≥u len` is the disjunction `i ≥ len ∨ i <
//! 0`).

use crate::dataflow::{solve, DataflowAnalysis, Direction, SolveResult};
use pythia_ir::{BinOp, BlockId, CmpPred, Function, Inst, Placement, ValueId, ValueKind};
use std::collections::{BTreeMap, BTreeSet};

/// Largest |k| kept in a relational fact `v ≤ w + k`. Clamping the offset
/// bounds the relational lattice height (the join takes the max offset, so
/// a loop can only creep an offset upward `2·REL_K_MAX` times before the
/// fact is dropped).
pub const REL_K_MAX: i64 = 4096;

/// Most relations retained per value; further (deterministically later in
/// `ValueId` order) bounds are dropped, which is sound — dropping an upper
/// bound only weakens the fact.
pub const REL_MAX_TERMS: usize = 8;

/// A closed interval `[lo, hi]` over `i64`. Empty intervals are never
/// constructed (refinement that would empty a range leaves it untouched —
/// the edge is then infeasible but still modeled conservatively).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interval {
    /// Inclusive lower bound.
    pub lo: i64,
    /// Inclusive upper bound.
    pub hi: i64,
}

impl Interval {
    /// The full `i64` range (the per-variable ⊥).
    pub const FULL: Interval = Interval {
        lo: i64::MIN,
        hi: i64::MAX,
    };

    /// The singleton interval `[c, c]`.
    pub fn exact(c: i64) -> Self {
        Interval { lo: c, hi: c }
    }

    /// Whether this is the full (uninformative) range.
    pub fn is_full(&self) -> bool {
        *self == Self::FULL
    }

    /// Whether every value in the interval lies in `[0, count)`.
    pub fn within_bounds(&self, count: u64) -> bool {
        self.lo >= 0 && u64::try_from(self.hi).map(|h| h < count).unwrap_or(false)
    }

    fn add(self, other: Interval) -> Interval {
        Interval {
            lo: self.lo.saturating_add(other.lo),
            hi: self.hi.saturating_add(other.hi),
        }
    }

    fn sub(self, other: Interval) -> Interval {
        Interval {
            lo: self.lo.saturating_sub(other.hi),
            hi: self.hi.saturating_sub(other.lo),
        }
    }

    fn mul(self, other: Interval) -> Interval {
        let candidates = [
            self.lo.saturating_mul(other.lo),
            self.lo.saturating_mul(other.hi),
            self.hi.saturating_mul(other.lo),
            self.hi.saturating_mul(other.hi),
        ];
        Interval {
            lo: *candidates.iter().min().unwrap(),
            hi: *candidates.iter().max().unwrap(),
        }
    }
}

/// Relational upper bounds of one value: `v ≤ w + k` for each entry
/// `(w, k)`. `w` is always a non-constant SSA value.
type UpperBounds = BTreeMap<ValueId, i64>;

/// The reachable-path fact: per-value intervals plus relational upper
/// bounds. Absent interval key = full range; absent relation = no bound.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
struct Env {
    iv: BTreeMap<ValueId, Interval>,
    ub: BTreeMap<ValueId, UpperBounds>,
}

impl Env {
    /// Record `v ≤ w + k`, clamping the offset and the per-value term
    /// count (both for lattice-height reasons, both weakening-only).
    fn bound(&mut self, v: ValueId, w: ValueId, k: i64) {
        if k.abs() > REL_K_MAX {
            return;
        }
        let terms = self.ub.entry(v).or_default();
        match terms.get(&w) {
            // Keep the tighter (smaller) offset on in-path re-derivation.
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
}

/// `None` = block not (yet) reachable.
type Fact = Option<Env>;

struct RangeAnalysis {
    /// Sorted widening thresholds (always contains `i64::MIN`, 0,
    /// `i64::MAX`).
    thresholds: Vec<i64>,
    /// Intervals assumed for specific values (typically parameters, seeded
    /// from a calling context's constant arguments) at function entry.
    param_seeds: BTreeMap<ValueId, Interval>,
}

impl RangeAnalysis {
    fn for_function(f: &Function, param_seeds: BTreeMap<ValueId, Interval>) -> Self {
        let mut ts: BTreeSet<i64> = BTreeSet::new();
        ts.insert(i64::MIN);
        ts.insert(0);
        ts.insert(i64::MAX);
        let mut thresholds_around = |c: i64| {
            ts.insert(c.saturating_sub(1));
            ts.insert(c);
            ts.insert(c.saturating_add(1));
        };
        for v in f.value_ids() {
            if let ValueKind::ConstInt(c) = f.value(v).kind {
                thresholds_around(c);
            }
        }
        // Seeded bounds are as load-bearing as in-function constants:
        // without matching thresholds a loop join would widen straight
        // past them.
        for iv in param_seeds.values() {
            thresholds_around(iv.lo);
            thresholds_around(iv.hi);
        }
        RangeAnalysis {
            thresholds: ts.into_iter().collect(),
            param_seeds,
        }
    }

    /// Widen `v` down to the nearest threshold `≤ v`.
    fn widen_down(&self, v: i64) -> i64 {
        match self.thresholds.binary_search(&v) {
            Ok(_) => v,
            Err(0) => i64::MIN,
            Err(i) => self.thresholds[i - 1],
        }
    }

    /// Widen `v` up to the nearest threshold `≥ v`.
    fn widen_up(&self, v: i64) -> i64 {
        match self.thresholds.binary_search(&v) {
            Ok(_) => v,
            Err(i) if i < self.thresholds.len() => self.thresholds[i],
            Err(_) => i64::MAX,
        }
    }

    /// Widened join: equal bounds are kept exactly; unequal bounds snap
    /// outward to the nearest threshold. Commutative, and each bound can
    /// only move a threshold-count number of times — the termination
    /// argument for loops.
    fn join(&self, a: Interval, b: Interval) -> Interval {
        let lo = if a.lo == b.lo {
            a.lo
        } else {
            self.widen_down(a.lo.min(b.lo))
        };
        let hi = if a.hi == b.hi {
            a.hi
        } else {
            self.widen_up(a.hi.max(b.hi))
        };
        Interval { lo, hi }
    }

    fn range_of(f: &Function, env: &Env, v: ValueId) -> Interval {
        match f.value(v).kind {
            ValueKind::ConstInt(c) => Interval::exact(c),
            _ => env.iv.get(&v).copied().unwrap_or(Interval::FULL),
        }
    }

    /// [`Self::range_of`] with relational upper bounds substituted one
    /// level deep: `hi(v) = min(hi(v), min over v ≤ w + k of hi(w) + k)`.
    /// One level avoids cycles (`a ≤ b, b ≤ a`); chains still resolve
    /// because [`Env::bound`] shifts transitive offsets in at derivation
    /// time.
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
            // The relations make this point infeasible; stay conservative.
            return base;
        }
        Interval { lo: base.lo, hi }
    }

    /// Transfer one instruction. Only integer-valued results are tracked;
    /// untracked instructions map to the absent (full) range.
    fn transfer_inst(&self, f: &Function, env: &mut Env, iv: ValueId) {
        let Some(inst) = f.inst(iv) else { return };
        let range = match inst {
            Inst::Bin { op, lhs, rhs } => {
                let l = Self::range_of(f, env, *lhs);
                let r = Self::range_of(f, env, *rhs);
                // `v = w ± c` inherits w's relational bounds shifted by c
                // (and `v ≤ w ± c` itself): the exact-arithmetic cases the
                // guard patterns produce.
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
                // Plain (unwidened) hull: select has no back edge.
                Some(Interval {
                    lo: t.lo.min(e.lo),
                    hi: t.hi.max(e.hi),
                })
            }
            // Phi ranges are bound on the incoming edges (`edge` hook);
            // the block's own transfer must not clobber them.
            Inst::Phi { .. } => return,
            // Loads, calls, casts and pointers stay untracked (full).
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

    /// Clamp `(lhs, rhs)` ranges under the assumption `lhs pred rhs` holds.
    /// Returns `None` when the predicate supports no interval refinement.
    fn refine(pred: CmpPred, l: Interval, r: Interval) -> Option<(Interval, Interval)> {
        let clamp = |iv: Interval, lo: i64, hi: i64| -> Interval {
            let nl = iv.lo.max(lo);
            let nh = iv.hi.min(hi);
            if nl <= nh {
                Interval { lo: nl, hi: nh }
            } else {
                // Infeasible edge; keep the unrefined range (sound).
                iv
            }
        };
        match pred {
            CmpPred::Eq => {
                let lo = l.lo.max(r.lo);
                let hi = l.hi.min(r.hi);
                if lo <= hi {
                    Some((Interval { lo, hi }, Interval { lo, hi }))
                } else {
                    None
                }
            }
            CmpPred::Ne => None,
            CmpPred::Slt => Some((
                clamp(l, i64::MIN, r.hi.saturating_sub(1)),
                clamp(r, l.lo.saturating_add(1), i64::MAX),
            )),
            CmpPred::Sle => Some((clamp(l, i64::MIN, r.hi), clamp(r, l.lo, i64::MAX))),
            CmpPred::Sgt => Some((
                clamp(l, r.lo.saturating_add(1), i64::MAX),
                clamp(r, i64::MIN, l.hi.saturating_sub(1)),
            )),
            CmpPred::Sge => Some((clamp(l, r.lo, i64::MAX), clamp(r, i64::MIN, l.hi))),
            CmpPred::Ult | CmpPred::Ule | CmpPred::Ugt | CmpPred::Uge => {
                // Normalize to `small ≤u bound` (strict or not). When the
                // bound side is statically non-negative, the comparison
                // pins the small side into `[0, bound]` — a negative
                // signed value reinterprets as a huge unsigned one and
                // fails the test — and the bound side to at least the
                // small side's unsigned minimum, `max(lo, 0)`. A possibly
                // negative bound supports no refinement at all.
                let strict = matches!(pred, CmpPred::Ult | CmpPred::Ugt);
                let small_first = matches!(pred, CmpPred::Ult | CmpPred::Ule);
                let (a, bnd) = if small_first { (l, r) } else { (r, l) };
                if bnd.lo < 0 {
                    return None;
                }
                let off = i64::from(strict);
                let na = clamp(a, 0, bnd.hi.saturating_sub(off));
                let nb = clamp(bnd, a.lo.max(0).saturating_add(off), i64::MAX);
                Some(if small_first { (na, nb) } else { (nb, na) })
            }
        }
    }

    /// Record the relational fact a taken guard edge establishes against a
    /// *non-constant* bound (`l pred r` just held). Signed less-than forms
    /// are unconditionally sound; unsigned forms additionally require the
    /// bound side to be statically non-negative (same wrap argument as
    /// [`Self::refine`]).
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

    fn negate(pred: CmpPred) -> CmpPred {
        match pred {
            CmpPred::Eq => CmpPred::Ne,
            CmpPred::Ne => CmpPred::Eq,
            CmpPred::Slt => CmpPred::Sge,
            CmpPred::Sle => CmpPred::Sgt,
            CmpPred::Sgt => CmpPred::Sle,
            CmpPred::Sge => CmpPred::Slt,
            CmpPred::Ult => CmpPred::Uge,
            CmpPred::Ule => CmpPred::Ugt,
            CmpPred::Ugt => CmpPred::Ule,
            CmpPred::Uge => CmpPred::Ult,
        }
    }
}

impl DataflowAnalysis for RangeAnalysis {
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
                // Pointwise widened join; keys absent on either side are
                // full there, so the join is full (drop the key).
                let mut iv = BTreeMap::new();
                for (v, ia) in &a.iv {
                    if let Some(ib) = b.iv.get(v) {
                        let j = self.join(*ia, *ib);
                        if !j.is_full() {
                            iv.insert(*v, j);
                        }
                    }
                }
                // Relations survive a join only when both paths carry
                // them; the joined offset is the weaker (larger) one.
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

        // Branch-condition refinement: the edge taken tells us the
        // condition's outcome (unless both targets coincide).
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
                        Self::negate(*pred)
                    };
                    let l = Self::range_of(f, &out, *lhs);
                    let r = Self::range_of(f, &out, *rhs);
                    if let Some((nl, nr)) = Self::refine(effective, l, r) {
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

        // Phi selection: in `to`, each phi takes exactly the operand
        // flowing along this edge; bind its (refined) range and, for a
        // non-constant operand, its relations plus `phi ≤ operand`.
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

/// Per-function value-range results, queryable at any program point.
pub struct ValueRanges {
    analysis: RangeAnalysis,
    result: SolveResult<Fact>,
    /// Home block of every value, for [`ValueRanges::range_before`].
    home: Placement,
}

/// Compute value ranges for one function.
pub fn value_ranges(f: &Function) -> ValueRanges {
    value_ranges_seeded(f, &[])
}

/// [`value_ranges`] with assumed entry intervals for specific values —
/// used by the context-sensitive pruner to replay a function under one
/// calling context (parameters pinned to the callsite's constant
/// arguments). Passing seeds that over-approximate every caller keeps the
/// result sound for that caller set; the unseeded form assumes nothing.
pub fn value_ranges_seeded(f: &Function, seeds: &[(ValueId, Interval)]) -> ValueRanges {
    let analysis = RangeAnalysis::for_function(f, seeds.iter().copied().collect());
    let result = solve(f, &analysis);
    ValueRanges {
        analysis,
        result,
        home: f.placement(),
    }
}

impl ValueRanges {
    /// Whether the fixpoint converged (it can only fail to on the solver's
    /// fuel fuse; callers must then treat every range as full).
    pub fn converged(&self) -> bool {
        self.result.converged
    }

    /// The interval of `v` at the program point **just before** `at`
    /// executes (replaying the containing block from its input fact, with
    /// relational upper bounds substituted). Returns the full range when
    /// the block is statically unreachable or the fixpoint did not
    /// converge — both are sound for bound proofs. `f` must be the
    /// function these ranges were solved for.
    pub fn range_before(&self, f: &Function, at: ValueId, v: ValueId) -> Interval {
        if !self.result.converged {
            return Interval::FULL;
        }
        let Some(bb) = self.home.block_of(at) else {
            return Interval::FULL;
        };
        let Some(input) = self.result.input(bb) else {
            // Unreachable code: any claim holds; FULL keeps callers honest.
            return Interval::FULL;
        };
        let mut env = input.clone();
        for &iv in &f.block(bb).insts {
            if iv == at {
                break;
            }
            self.analysis.transfer_inst(f, &mut env, iv);
        }
        RangeAnalysis::resolved_range(f, &env, v)
    }

    /// Whether block `bb` is reachable under the analysis.
    pub fn block_reachable(&self, bb: BlockId) -> bool {
        self.result.input(bb).is_some() || !self.result.converged
    }
}

/// Proof query used by the pruner: is the `gep` at `(f, gep_inst)` with
/// the given `index` value provably in `[0, count)` at that point?
pub fn index_in_bounds(
    f: &Function,
    ranges: &ValueRanges,
    gep_inst: ValueId,
    index: ValueId,
    count: u64,
) -> bool {
    // Constant indexes need no dataflow.
    if let ValueKind::ConstInt(c) = f.value(index).kind {
        return c >= 0 && (c as u64) < count;
    }
    ranges.range_before(f, gep_inst, index).within_bounds(count)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pythia_ir::{CmpPred, FunctionBuilder, Ty};

    #[test]
    fn constants_and_arithmetic_have_exact_ranges() {
        let mut b = FunctionBuilder::new("f", vec![], Ty::I64);
        let x = b.const_i64(5);
        let y = b.const_i64(7);
        let s = b.add(x, y);
        let d = b.sub(s, x);
        b.ret(Some(d));
        let f = b.finish();
        let r = value_ranges(&f);
        assert!(r.converged());
        assert_eq!(r.range_before(&f, d, s), Interval::exact(12));
        // Before `ret`, d = s - x = 7.
        let ret = *f.block(f.entry()).insts.last().unwrap();
        assert_eq!(r.range_before(&f, ret, d), Interval::exact(7));
    }

    #[test]
    fn branch_refinement_clamps_the_taken_edge() {
        // if (n < 8) { use n } else { use n }
        let mut b = FunctionBuilder::new("f", vec![Ty::I64], Ty::I64);
        let t = b.new_block("t");
        let e = b.new_block("e");
        let n = b.func().arg(0);
        let eight = b.const_i64(8);
        let c = b.icmp(CmpPred::Slt, n, eight);
        b.br(c, t, e);
        b.switch_to(t);
        let one = b.const_i64(1);
        let tv = b.add(n, one);
        b.ret(Some(tv));
        b.switch_to(e);
        let ev = b.add(n, one);
        b.ret(Some(ev));
        let f = b.finish();
        let r = value_ranges(&f);
        assert!(r.converged());
        // In the then-arm, n ≤ 7; in the else-arm, n ≥ 8.
        assert_eq!(r.range_before(&f, tv, n).hi, 7);
        assert!(r.range_before(&f, tv, n).lo == i64::MIN);
        assert_eq!(r.range_before(&f, ev, n).lo, 8);
    }

    #[test]
    fn counted_loop_index_is_proven_in_bounds() {
        // i = 0; while (i < 16) { access buf[i]; i = i + 1; }
        let mut b = FunctionBuilder::new("f", vec![], Ty::Void);
        let head = b.new_block("head");
        let body = b.new_block("body");
        let exit = b.new_block("exit");
        let buf = b.alloca_n(Ty::I64, 16);
        let zero = b.const_i64(0);
        let sixteen = b.const_i64(16);
        let one = b.const_i64(1);
        b.jmp(head);
        b.switch_to(head);
        let entry = b.func().entry();
        let i = b.phi(vec![(entry, zero)]);
        let c = b.icmp(CmpPred::Slt, i, sixteen);
        b.br(c, body, exit);
        b.switch_to(body);
        let p = b.gep(buf, i);
        b.store(zero, p);
        let inext = b.add(i, one);
        b.jmp(head);
        b.switch_to(exit);
        b.ret(None);
        let mut f = b.finish();
        // Wire the back-edge incoming: body -> inext.
        let body_bb = f.block_of(p).unwrap();
        if let Some(pythia_ir::Inst::Phi { incomings }) = f.inst_mut(i) {
            incomings.push((body_bb, inext));
        }
        let r = value_ranges(&f);
        assert!(r.converged());
        assert!(index_in_bounds(&f, &r, p, i, 16), "i ∈ [0, 15] at the gep");
        assert!(!index_in_bounds(&f, &r, p, i, 15), "15 is reachable");
    }

    #[test]
    fn unguarded_index_is_not_proven() {
        let mut b = FunctionBuilder::new("f", vec![Ty::I64], Ty::Void);
        let buf = b.alloca_n(Ty::I64, 8);
        let n = b.func().arg(0);
        let p = b.gep(buf, n);
        let zero = b.const_i64(0);
        b.store(zero, p);
        b.ret(None);
        let f = b.finish();
        let r = value_ranges(&f);
        assert!(!index_in_bounds(&f, &r, p, n, 8));
    }

    #[test]
    fn guarded_index_is_proven() {
        // if (0 <= n && n < 8) buf[n] = 0 — encoded as two branches.
        let mut b = FunctionBuilder::new("f", vec![Ty::I64], Ty::Void);
        let c1ok = b.new_block("c1ok");
        let okbb = b.new_block("ok");
        let bad = b.new_block("bad");
        let buf = b.alloca_n(Ty::I64, 8);
        let n = b.func().arg(0);
        let zero = b.const_i64(0);
        let eight = b.const_i64(8);
        let c1 = b.icmp(CmpPred::Sge, n, zero);
        b.br(c1, c1ok, bad);
        b.switch_to(c1ok);
        let c2 = b.icmp(CmpPred::Slt, n, eight);
        b.br(c2, okbb, bad);
        b.switch_to(okbb);
        let p = b.gep(buf, n);
        b.store(zero, p);
        b.ret(None);
        b.switch_to(bad);
        b.ret(None);
        let f = b.finish();
        let r = value_ranges(&f);
        assert!(r.converged());
        assert!(index_in_bounds(&f, &r, p, n, 8));
        assert!(!index_in_bounds(&f, &r, p, n, 4));
    }

    /// The mixed-signedness regression: one `n ult 8` guard proves *both*
    /// bounds, because a negative `n` reinterprets as a huge unsigned
    /// value and takes the other edge.
    #[test]
    fn single_ult_guard_proves_both_bounds() {
        let mut b = FunctionBuilder::new("f", vec![Ty::I64], Ty::Void);
        let okbb = b.new_block("ok");
        let bad = b.new_block("bad");
        let buf = b.alloca_n(Ty::I64, 8);
        let n = b.func().arg(0);
        let zero = b.const_i64(0);
        let eight = b.const_i64(8);
        let c = b.icmp(CmpPred::Ult, n, eight);
        b.br(c, okbb, bad);
        b.switch_to(okbb);
        let p = b.gep(buf, n);
        b.store(zero, p);
        b.ret(None);
        b.switch_to(bad);
        b.ret(None);
        let f = b.finish();
        let r = value_ranges(&f);
        assert!(r.converged());
        assert!(index_in_bounds(&f, &r, p, n, 8), "ult alone pins [0, 7]");
        assert!(!index_in_bounds(&f, &r, p, n, 7), "7 is reachable");
    }

    /// The false edge of `n ult len` must stay unrefined: it means
    /// `n ≥ len ∨ n < 0`, which bounds nothing.
    #[test]
    fn ult_false_edge_refines_nothing() {
        let mut b = FunctionBuilder::new("f", vec![Ty::I64], Ty::Void);
        let okbb = b.new_block("ok");
        let bad = b.new_block("bad");
        let buf = b.alloca_n(Ty::I64, 8);
        let n = b.func().arg(0);
        let zero = b.const_i64(0);
        let eight = b.const_i64(8);
        let c = b.icmp(CmpPred::Ult, n, eight);
        b.br(c, okbb, bad);
        b.switch_to(okbb);
        b.ret(None);
        b.switch_to(bad);
        let p = b.gep(buf, n);
        b.store(zero, p);
        b.ret(None);
        let f = b.finish();
        let r = value_ranges(&f);
        assert!(r.converged());
        assert!(
            !index_in_bounds(&f, &r, p, n, 1 << 40),
            "n may be negative on the uge edge"
        );
    }

    /// `n ult m` with `m` of unknown sign refines nothing: a negative `m`
    /// is a huge unsigned bound.
    #[test]
    fn ult_against_possibly_negative_bound_refines_nothing() {
        let mut b = FunctionBuilder::new("f", vec![Ty::I64, Ty::I64], Ty::Void);
        let okbb = b.new_block("ok");
        let bad = b.new_block("bad");
        let buf = b.alloca_n(Ty::I64, 8);
        let n = b.func().arg(0);
        let m = b.func().arg(1);
        let zero = b.const_i64(0);
        let c = b.icmp(CmpPred::Ult, n, m);
        b.br(c, okbb, bad);
        b.switch_to(okbb);
        let p = b.gep(buf, n);
        b.store(zero, p);
        b.ret(None);
        b.switch_to(bad);
        b.ret(None);
        let f = b.finish();
        let r = value_ranges(&f);
        assert!(r.converged());
        assert!(!index_in_bounds(&f, &r, p, n, 8));
    }

    /// Builds `if (i >= 0) { if (i < len) { if (len <= 8) { buf8[i] } } }`
    /// — the bound `len` only becomes constant *after* the `i < len`
    /// guard, so plain intervals cannot prove the access; the relational
    /// fact `i ≤ len − 1` substituted at the gep can.
    #[test]
    fn relational_bound_resolves_late_constant_len() {
        let mut b = FunctionBuilder::new("f", vec![Ty::I64, Ty::I64], Ty::Void);
        let c1ok = b.new_block("c1ok");
        let c2ok = b.new_block("c2ok");
        let okbb = b.new_block("ok");
        let bad = b.new_block("bad");
        let buf = b.alloca_n(Ty::I64, 8);
        let i = b.func().arg(0);
        let len = b.func().arg(1);
        let zero = b.const_i64(0);
        let eight = b.const_i64(8);
        let c1 = b.icmp(CmpPred::Sge, i, zero);
        b.br(c1, c1ok, bad);
        b.switch_to(c1ok);
        let c2 = b.icmp(CmpPred::Slt, i, len);
        b.br(c2, c2ok, bad);
        b.switch_to(c2ok);
        let c3 = b.icmp(CmpPred::Sle, len, eight);
        b.br(c3, okbb, bad);
        b.switch_to(okbb);
        let p = b.gep(buf, i);
        b.store(zero, p);
        b.ret(None);
        b.switch_to(bad);
        b.ret(None);
        let f = b.finish();
        let r = value_ranges(&f);
        assert!(r.converged());
        assert!(index_in_bounds(&f, &r, p, i, 8), "i ≤ len − 1 ≤ 7");
        assert!(!index_in_bounds(&f, &r, p, i, 7));
    }

    /// Relational facts survive a phi join when every incoming arm
    /// carries one: j = phi(i, i + 1) keeps j ≤ len (from i ≤ len − 1).
    #[test]
    fn relational_bounds_join_through_phi() {
        let mut b = FunctionBuilder::new("f", vec![Ty::I64, Ty::I64, Ty::I64], Ty::Void);
        let guarded = b.new_block("guarded");
        let tbb = b.new_block("t");
        let ebb = b.new_block("e");
        let join = b.new_block("join");
        let lenok = b.new_block("lenok");
        let bad = b.new_block("bad");
        let buf = b.alloca_n(Ty::I64, 9);
        let i = b.func().arg(0);
        let len = b.func().arg(1);
        let sel = b.func().arg(2);
        let zero = b.const_i64(0);
        let one = b.const_i64(1);
        let eight = b.const_i64(8);
        let c0 = b.icmp(CmpPred::Ult, i, len);
        b.br(c0, guarded, bad);
        b.switch_to(guarded);
        let cs = b.icmp(CmpPred::Sgt, sel, zero);
        b.br(cs, tbb, ebb);
        b.switch_to(tbb);
        b.jmp(join);
        b.switch_to(ebb);
        let i1 = b.add(i, one);
        b.jmp(join);
        b.switch_to(join);
        let j = b.phi(vec![(tbb, i), (ebb, i1)]);
        let cl = b.icmp(CmpPred::Sle, len, eight);
        b.br(cl, lenok, bad);
        b.switch_to(lenok);
        let p = b.gep(buf, j);
        b.store(zero, p);
        b.ret(None);
        b.switch_to(bad);
        b.ret(None);
        let f = b.finish();
        let r = value_ranges(&f);
        assert!(r.converged());
        // len's sign is unknown at the ult guard, so no relation may be
        // recorded (a negative len is a huge unsigned bound): unproven.
        assert!(!index_in_bounds(&f, &r, p, j, 9));
    }

    /// Same shape as above but with the bound's sign established first
    /// (`len sge 0`), so `i ult len` both refines and relates; the phi
    /// join then keeps j ≤ len ≤ 8 and j ≥ 0.
    #[test]
    fn relational_bounds_join_through_phi_with_known_sign() {
        let mut b = FunctionBuilder::new("f", vec![Ty::I64, Ty::I64, Ty::I64], Ty::Void);
        let sgn = b.new_block("sgn");
        let guarded = b.new_block("guarded");
        let tbb = b.new_block("t");
        let ebb = b.new_block("e");
        let join = b.new_block("join");
        let lenok = b.new_block("lenok");
        let bad = b.new_block("bad");
        let buf = b.alloca_n(Ty::I64, 9);
        let i = b.func().arg(0);
        let len = b.func().arg(1);
        let sel = b.func().arg(2);
        let zero = b.const_i64(0);
        let one = b.const_i64(1);
        let eight = b.const_i64(8);
        let csgn = b.icmp(CmpPred::Sge, len, zero);
        b.br(csgn, sgn, bad);
        b.switch_to(sgn);
        let c0 = b.icmp(CmpPred::Ult, i, len);
        b.br(c0, guarded, bad);
        b.switch_to(guarded);
        let cs = b.icmp(CmpPred::Sgt, sel, zero);
        b.br(cs, tbb, ebb);
        b.switch_to(tbb);
        b.jmp(join);
        b.switch_to(ebb);
        let i1 = b.add(i, one);
        b.jmp(join);
        b.switch_to(join);
        let j = b.phi(vec![(tbb, i), (ebb, i1)]);
        let cl = b.icmp(CmpPred::Sle, len, eight);
        b.br(cl, lenok, bad);
        b.switch_to(lenok);
        let p = b.gep(buf, j);
        b.store(zero, p);
        b.ret(None);
        b.switch_to(bad);
        b.ret(None);
        let f = b.finish();
        let r = value_ranges(&f);
        assert!(r.converged());
        assert!(index_in_bounds(&f, &r, p, j, 9), "j ≤ len ≤ 8, j ≥ 0");
        assert!(!index_in_bounds(&f, &r, p, j, 8), "j = len = 8 reachable");
    }

    /// Entry seeds stand in for a calling context: pinning the `len`
    /// parameter to the callsite's constant makes the guarded store
    /// provable, exactly the per-context replay the pruner performs.
    #[test]
    fn seeded_parameter_ranges_prove_guarded_store() {
        let mut b = FunctionBuilder::new("f", vec![Ty::ptr(Ty::I64), Ty::I64, Ty::I64], Ty::Void);
        let okbb = b.new_block("ok");
        let out = b.new_block("out");
        let p = b.func().arg(0);
        let len = b.func().arg(1);
        let i = b.func().arg(2);
        let zero = b.const_i64(0);
        let c = b.icmp(CmpPred::Ult, i, len);
        b.br(c, okbb, out);
        b.switch_to(okbb);
        let q = b.gep(p, i);
        b.store(zero, q);
        b.jmp(out);
        b.switch_to(out);
        b.ret(None);
        let f = b.finish();

        // Unseeded: len's sign is unknown, nothing proves.
        let r0 = value_ranges(&f);
        assert!(!index_in_bounds(&f, &r0, q, i, 8));

        // Seeded with len = 8 (a callsite passing a constant): proven.
        let r8 = value_ranges_seeded(&f, &[(len, Interval::exact(8))]);
        assert!(r8.converged());
        assert!(index_in_bounds(&f, &r8, q, i, 8));
        assert!(!index_in_bounds(&f, &r8, q, i, 7));

        // Seeded with a larger capacity than the proof needs: unproven.
        let r16 = value_ranges_seeded(&f, &[(len, Interval::exact(16))]);
        assert!(!index_in_bounds(&f, &r16, q, i, 8));
        assert!(index_in_bounds(&f, &r16, q, i, 16));
    }

    #[test]
    fn unreachable_blocks_report_full_ranges() {
        let mut b = FunctionBuilder::new("f", vec![], Ty::I64);
        let dead = b.new_block("dead");
        let one = b.const_i64(1);
        b.ret(Some(one));
        b.switch_to(dead);
        let two = b.const_i64(2);
        let s = b.add(two, two);
        b.ret(Some(s));
        let f = b.finish();
        let r = value_ranges(&f);
        assert!(!r.block_reachable(f.block_of(s).unwrap()));
        assert!(r.range_before(&f, s, two).is_full() || !r.converged());
    }
}
