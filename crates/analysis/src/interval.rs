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
//! against non-constant SSA values `w`. Both maps are sorted vectors —
//! `(v, interval)` pairs and `(v, w, k)` triples in `(v, w)` order — so
//! an environment is two allocations, the solver reuses them from visit
//! to visit, and the join is a linear merge. The interval join widens with a
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
//! edge-specific operand range (intervals and relations alike). An edge
//! whose condition no value in the ranges satisfies carries no fact.
//!
//! # Wrapping
//!
//! The machine wraps `i64` arithmetic, so `add`/`sub`/`mul` give the full
//! range whenever an end of the result overflows, and `v = w + c` with
//! `c < 0` records `v ≤ w + c` only when no `w` in range wraps below
//! `i64::MIN` (a wrap up only lowers `v`, so the bound holds).
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
use std::collections::BTreeMap;

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
/// constructed: a refinement that would empty a range marks its edge
/// infeasible, and the edge carries no fact.
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

    /// `[lo, hi]`, or the full range when either end overflowed: the
    /// machine wraps, so a result that leaves `i64` at one end can be
    /// anything. When neither end overflows, no value between them does.
    fn of_ends(lo: Option<i64>, hi: Option<i64>) -> Interval {
        match (lo, hi) {
            (Some(lo), Some(hi)) => Interval { lo, hi },
            _ => Self::FULL,
        }
    }

    fn add(self, other: Interval) -> Interval {
        Self::of_ends(self.lo.checked_add(other.lo), self.hi.checked_add(other.hi))
    }

    fn sub(self, other: Interval) -> Interval {
        Self::of_ends(self.lo.checked_sub(other.hi), self.hi.checked_sub(other.lo))
    }

    /// A product's extremes over a box are at its corners, so when no
    /// corner overflows no product inside does.
    fn mul(self, other: Interval) -> Interval {
        let corners = [
            self.lo.checked_mul(other.lo),
            self.lo.checked_mul(other.hi),
            self.hi.checked_mul(other.lo),
            self.hi.checked_mul(other.hi),
        ];
        let (mut lo, mut hi) = (i64::MAX, i64::MIN);
        for c in corners {
            let Some(c) = c else { return Self::FULL };
            (lo, hi) = (lo.min(c), hi.max(c));
        }
        Interval { lo, hi }
    }
}

/// A relational upper bound `v ≤ w + k`, as `(v, w, k)`. `w` is always a
/// non-constant SSA value.
type Relation = (ValueId, ValueId, i64);

/// The reachable-path fact: per-value intervals plus relational upper
/// bounds. Absent interval key = full range; absent relation = no bound.
#[derive(Debug, PartialEq, Eq)]
struct Env {
    /// Tracked intervals, sorted by value.
    iv: Vec<(ValueId, Interval)>,
    /// Relations sorted by `(v, w)`, at most [`REL_MAX_TERMS`] per `v`.
    ub: Vec<Relation>,
}

impl Clone for Env {
    fn clone(&self) -> Self {
        Env {
            iv: self.iv.clone(),
            ub: self.ub.clone(),
        }
    }

    /// Reuses both vectors' storage: the solver's per-visit copy.
    fn clone_from(&mut self, source: &Self) {
        self.iv.clone_from(&source.iv);
        self.ub.clone_from(&source.ub);
    }
}

impl Env {
    fn get(&self, v: ValueId) -> Option<Interval> {
        self.iv
            .binary_search_by_key(&v, |e| e.0)
            .ok()
            .map(|i| self.iv[i].1)
    }

    fn set(&mut self, v: ValueId, r: Interval) {
        match self.iv.binary_search_by_key(&v, |e| e.0) {
            Ok(i) => self.iv[i].1 = r,
            Err(i) => self.iv.insert(i, (v, r)),
        }
    }

    fn unset(&mut self, v: ValueId) {
        if let Ok(i) = self.iv.binary_search_by_key(&v, |e| e.0) {
            self.iv.remove(i);
        }
    }

    /// Index range of `v`'s relations in `ub`.
    fn run(&self, v: ValueId) -> std::ops::Range<usize> {
        let start = self.ub.partition_point(|r| r.0 < v);
        let len = self.ub[start..].partition_point(|r| r.0 == v);
        start..start + len
    }

    /// `v`'s relations as `(w, k)` pairs, copied out so `ub` can change
    /// while they are applied.
    fn terms(&self, v: ValueId) -> ([(ValueId, i64); REL_MAX_TERMS], usize) {
        let run = self.run(v);
        debug_assert!(run.len() <= REL_MAX_TERMS);
        let mut out = [(ValueId(0), 0); REL_MAX_TERMS];
        for (slot, &(_, w, k)) in out.iter_mut().zip(&self.ub[run.clone()]) {
            *slot = (w, k);
        }
        (out, run.len().min(REL_MAX_TERMS))
    }

    /// Drop every relation of `v`.
    fn unbound(&mut self, v: ValueId) {
        let run = self.run(v);
        self.ub.drain(run);
    }

    /// Record `v ≤ w + k`, clamping the offset and the per-value term
    /// count (both for lattice-height reasons, both weakening-only).
    fn bound(&mut self, v: ValueId, w: ValueId, k: i64) {
        if k.unsigned_abs() > REL_K_MAX as u64 {
            return;
        }
        let mut run = self.run(v);
        match self.ub[run.clone()].binary_search_by_key(&w, |r| r.1) {
            // Keep the tighter (smaller) offset on in-path re-derivation.
            Ok(i) => {
                let old = &mut self.ub[run.start + i].2;
                if *old > k {
                    *old = k;
                }
            }
            Err(i) => {
                self.ub.insert(run.start + i, (v, w, k));
                run.end += 1;
            }
        }
        // Over the cap: drop the largest `w`, the run's last entry.
        if run.len() > REL_MAX_TERMS {
            self.ub.remove(run.end - 1);
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
    /// from a calling context's constant arguments) at function entry,
    /// sorted by value.
    param_seeds: Vec<(ValueId, Interval)>,
}

impl RangeAnalysis {
    /// The analysis of `f` under `seeds`; a value seeded twice takes its
    /// last interval.
    fn for_function(f: &Function, seeds: &[(ValueId, Interval)]) -> Self {
        let param_seeds: BTreeMap<ValueId, Interval> = seeds.iter().copied().collect();
        let mut thresholds = vec![i64::MIN, 0, i64::MAX];
        let mut thresholds_around = |c: i64| {
            thresholds.extend([c.saturating_sub(1), c, c.saturating_add(1)]);
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
        thresholds.sort_unstable();
        thresholds.dedup();
        RangeAnalysis {
            thresholds,
            param_seeds: param_seeds.into_iter().collect(),
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
            _ => env.get(v).unwrap_or(Interval::FULL),
        }
    }

    /// [`Self::range_of`] with relational upper bounds substituted one
    /// level deep: `hi(v) = min(hi(v), min over v ≤ w + k of hi(w) + k)`.
    /// One level avoids cycles (`a ≤ b, b ≤ a`); chains still resolve
    /// because [`Env::bound`] shifts transitive offsets in at derivation
    /// time.
    fn resolved_range(f: &Function, env: &Env, v: ValueId) -> Interval {
        let base = Self::range_of(f, env, v);
        let mut hi = base.hi;
        for &(_, w, k) in &env.ub[env.run(v)] {
            let wr = Self::range_of(f, env, w);
            // Relations hold over the integers (see `transfer_inst`), so
            // `hi(w) + k` saturating up is no bound and saturating down
            // marks an infeasible point, which the check below catches.
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
                // guard patterns produce. Upper bounds survive a wrap up
                // (it only lowers `v`); a wrap down raises `v`, so a
                // negative shift counts only when no `w` in range wraps.
                let shifted = match (op, &f.value(*lhs).kind, &f.value(*rhs).kind) {
                    (BinOp::Add, _, ValueKind::ConstInt(c)) => Some((*lhs, *c)),
                    (BinOp::Add, ValueKind::ConstInt(c), _) => Some((*rhs, *c)),
                    (BinOp::Sub, _, ValueKind::ConstInt(c)) => c.checked_neg().map(|c| (*lhs, c)),
                    _ => None,
                };
                if let Some((w, c)) = shifted {
                    let wraps_down = c < 0 && Self::range_of(f, env, w).lo.checked_add(c).is_none();
                    if !wraps_down && !matches!(f.value(w).kind, ValueKind::ConstInt(_)) {
                        let (inherited, n) = env.terms(w);
                        env.bound(iv, w, c);
                        for &(u, k) in &inherited[..n] {
                            env.bound(iv, u, k.saturating_add(c));
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
            Some(r) if !r.is_full() && f.value(iv).ty.is_int() => env.set(iv, r),
            _ => env.unset(iv),
        }
    }

    /// Clamp `(lhs, rhs)` ranges under the assumption `lhs pred rhs` holds.
    /// Returns `None` when the predicate supports no interval refinement,
    /// and `Some(None)` when no values in the ranges satisfy it: the edge
    /// cannot be taken. (Keeping the unrefined ranges there instead would
    /// make the transfer non-monotone: a wider range could refine to a
    /// narrower one, and loops whose ranges overflow to the full range
    /// would then never settle.)
    fn refine(pred: CmpPred, l: Interval, r: Interval) -> Option<Option<(Interval, Interval)>> {
        let clamp = |iv: Interval, lo: i64, hi: i64| -> Option<Interval> {
            let nl = iv.lo.max(lo);
            let nh = iv.hi.min(hi);
            (nl <= nh).then_some(Interval { lo: nl, hi: nh })
        };
        let both = |a: Option<Interval>, b: Option<Interval>| Some(a.zip(b));
        match pred {
            CmpPred::Eq => {
                let both = clamp(l, r.lo, r.hi);
                Some(both.map(|iv| (iv, iv)))
            }
            CmpPred::Ne => None,
            CmpPred::Slt => both(
                clamp(l, i64::MIN, r.hi.saturating_sub(1)),
                clamp(r, l.lo.saturating_add(1), i64::MAX),
            ),
            CmpPred::Sle => both(clamp(l, i64::MIN, r.hi), clamp(r, l.lo, i64::MAX)),
            CmpPred::Sgt => both(
                clamp(l, r.lo.saturating_add(1), i64::MAX),
                clamp(r, i64::MIN, l.hi.saturating_sub(1)),
            ),
            CmpPred::Sge => both(clamp(l, r.lo, i64::MAX), clamp(r, i64::MIN, l.hi)),
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
                if small_first {
                    both(na, nb)
                } else {
                    both(nb, na)
                }
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

    /// Each change of a block's input raises something that can only rise
    /// so often: `None` becomes `Some` once; an interval end leaves its
    /// exact start for a threshold, moves on to farther ones and ends in
    /// the full range (the key is dropped); each of a value's at most
    /// [`REL_MAX_TERMS`] relations raises its offset within
    /// `±`[`REL_K_MAX`] and is then dropped. A block with one flow
    /// source is not widened, but its input changes only after its
    /// source's did, one more change per block along such a chain. An
    /// unconverged solve reads every range as full, so an understated
    /// height could only lose proofs, never make one unsound.
    fn height(&self, f: &Function) -> usize {
        let per_value =
            2 * (self.thresholds.len() + 1) + REL_MAX_TERMS * (2 * REL_K_MAX as usize + 1);
        f.num_values()
            .saturating_mul(per_value)
            .saturating_add(f.num_blocks() + 1)
    }

    fn boundary(&self, _f: &Function, _bb: BlockId) -> Fact {
        Some(Env {
            iv: self.param_seeds.clone(),
            ub: Vec::new(),
        })
    }

    fn top(&self, _f: &Function) -> Fact {
        None
    }

    fn meet_into(&self, acc: &mut Fact, other: &Fact) {
        match (acc.as_mut(), other) {
            (_, None) => {}
            (None, Some(_)) => acc.clone_from(other),
            (Some(a), Some(b)) => {
                // Pointwise widened join; keys absent on either side are
                // full there, so the join is full (drop the key).
                let mut j = 0;
                a.iv.retain_mut(|(v, ia)| {
                    while j < b.iv.len() && b.iv[j].0 < *v {
                        j += 1;
                    }
                    if j == b.iv.len() || b.iv[j].0 != *v {
                        return false;
                    }
                    *ia = self.join(*ia, b.iv[j].1);
                    !ia.is_full()
                });
                // Relations survive a join only when both paths carry
                // them; the joined offset is the weaker (larger) one.
                let mut j = 0;
                a.ub.retain_mut(|(v, w, ka)| {
                    while j < b.ub.len() && (b.ub[j].0, b.ub[j].1) < (*v, *w) {
                        j += 1;
                    }
                    if j == b.ub.len() || (b.ub[j].0, b.ub[j].1) != (*v, *w) {
                        return false;
                    }
                    *ka = (*ka).max(b.ub[j].2);
                    true
                });
            }
        }
    }

    fn transfer_into(&self, f: &Function, bb: BlockId, fact: &Fact, out: &mut Fact) {
        out.clone_from(fact);
        let Some(env) = out else { return };
        for &iv in &f.block(bb).insts {
            self.transfer_inst(f, env, iv);
        }
    }

    fn edge(&self, f: &Function, from: BlockId, to: BlockId, fact: &mut Fact) {
        let Some(out) = fact else { return };

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
                    let l = Self::range_of(f, out, *lhs);
                    let r = Self::range_of(f, out, *rhs);
                    match Self::refine(effective, l, r) {
                        Some(Some((nl, nr))) => {
                            for (v, iv) in [(*lhs, nl), (*rhs, nr)] {
                                if !matches!(f.value(v).kind, ValueKind::ConstInt(_))
                                    && !iv.is_full()
                                {
                                    out.set(v, iv);
                                }
                            }
                        }
                        Some(None) => {
                            *fact = None;
                            return;
                        }
                        None => {}
                    }
                    Self::relate(effective, out, f, *lhs, *rhs);
                }
            }
        }

        // Phi selection: in `to`, each phi takes exactly the operand
        // flowing along this edge; bind its (refined) range and, for a
        // non-constant operand, its relations plus `phi ≤ operand`. The
        // ranges are all read before any phi is bound.
        let mut phi_bindings: Vec<(ValueId, ValueId, Interval)> = Vec::new();
        for &iv in &f.block(to).insts {
            if let Some(Inst::Phi { incomings }) = f.inst(iv) {
                if !f.value(iv).ty.is_int() {
                    continue;
                }
                for (pb, pv) in incomings {
                    if *pb == from {
                        phi_bindings.push((iv, *pv, Self::range_of(f, out, *pv)));
                    }
                }
            }
        }
        for (v, pv, r) in phi_bindings {
            if r.is_full() {
                out.unset(v);
            } else {
                out.set(v, r);
            }
            out.unbound(v);
            if !matches!(f.value(pv).kind, ValueKind::ConstInt(_)) {
                let (inherited, n) = out.terms(pv);
                out.bound(v, pv, 0);
                for &(u, k) in &inherited[..n] {
                    out.bound(v, u, k);
                }
            }
        }
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
    let analysis = RangeAnalysis::for_function(f, seeds);
    let result = solve(f, &analysis);
    ValueRanges {
        analysis,
        result,
        home: f.placement(),
    }
}

impl ValueRanges {
    /// Whether the fixpoint converged (it fails to only if some block's
    /// fact changed more often than the analysis's height allows; every
    /// range then reads as full).
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

    /// Whether `outer` over-approximates `inner`: every interval `outer`
    /// tracks contains `inner`'s (absent = full), and every relation
    /// `outer` keeps, `inner` keeps with an offset no larger.
    fn contains(outer: &Fact, inner: &Fact) -> bool {
        let (Some(o), Some(i)) = (outer, inner) else {
            return inner.is_none();
        };
        o.iv.iter().all(|&(v, ov)| {
            let iv = i.get(v).unwrap_or(Interval::FULL);
            ov.lo <= iv.lo && iv.hi <= ov.hi
        }) && o.ub.iter().all(|&(v, w, ok)| {
            i.ub.iter()
                .any(|&(iv, iw, ik)| (iv, iw) == (v, w) && ik <= ok)
        })
    }

    /// Solve `f` under `seeds` and check the solution against the
    /// fixpoint equations, stated with [`contains`] rather than the
    /// analysis's join: each block's input contains the boundary fact
    /// (entry) and every predecessor's output carried across its edge,
    /// is reachable only if one of those is, and each output is the
    /// block's transfer of its input.
    fn solved(f: &Function, seeds: &[(ValueId, Interval)]) -> ValueRanges {
        let r = value_ranges_seeded(f, seeds);
        assert!(r.converged());
        let (a, sol) = (&r.analysis, &r.result);
        let preds = f.predecessors();
        for bb in f.block_ids() {
            let mut incoming: Vec<Fact> = preds[bb.0 as usize]
                .iter()
                .map(|&p| {
                    let mut fact = sol.output(p).clone();
                    a.edge(f, p, bb, &mut fact);
                    fact
                })
                .collect();
            if bb == f.entry() {
                incoming.push(a.boundary(f, bb));
            }
            for fact in &incoming {
                assert!(contains(sol.input(bb), fact), "input of {bb}");
            }
            assert_eq!(
                sol.input(bb).is_some(),
                incoming.iter().any(Option::is_some),
                "reachability of {bb}"
            );
            let mut out = None;
            a.transfer_into(f, bb, sol.input(bb), &mut out);
            assert_eq!(sol.output(bb), &out, "output of {bb}");
        }
        r
    }

    #[test]
    fn within_bounds_needs_both_ends_inside() {
        let r = |lo, hi| Interval { lo, hi };
        assert!(r(0, 7).within_bounds(8));
        assert!(!r(0, 8).within_bounds(8));
        assert!(!r(-1, 7).within_bounds(8));
        assert!(!r(0, 0).within_bounds(0));
        assert!(!Interval::FULL.within_bounds(u64::MAX));
    }

    #[test]
    fn constants_and_arithmetic_have_exact_ranges() {
        let mut b = FunctionBuilder::new("f", vec![], Ty::I64);
        let x = b.const_i64(5);
        let y = b.const_i64(7);
        let s = b.add(x, y);
        let d = b.sub(s, x);
        b.ret(Some(d));
        let f = b.finish();
        let r = solved(&f, &[]);
        assert_eq!(r.range_before(&f, d, s), Interval::exact(12));
        // Before `ret`, d = s - x = 7.
        let ret = *f.block(f.entry()).insts.last().unwrap();
        assert_eq!(r.range_before(&f, ret, d), Interval::exact(7));
    }

    #[test]
    fn arithmetic_that_can_wrap_proves_nothing() {
        // if (x > i64::MAX - 2) { z = (x + 10) - (i64::MAX - 3); buf4[z] = 0 }
        // x = i64::MAX - 1 wraps x + 10 and makes z = 12.
        let mut b = FunctionBuilder::new("f", vec![Ty::I64], Ty::I64);
        let t = b.new_block("t");
        let e = b.new_block("e");
        let x = b.func().arg(0);
        let buf = b.alloca_n(Ty::I64, 4);
        let lim = b.const_i64(i64::MAX - 2);
        let c = b.icmp(CmpPred::Sgt, x, lim);
        b.br(c, t, e);
        b.switch_to(t);
        let ten = b.const_i64(10);
        let y = b.add(x, ten);
        let k = b.const_i64(i64::MAX - 3);
        let z = b.sub(y, k);
        let p = b.gep(buf, z);
        let zero = b.const_i64(0);
        b.store(zero, p);
        b.ret(Some(z));
        b.switch_to(e);
        b.ret(Some(zero));
        let f = b.finish();
        let r = solved(&f, &[]);
        assert_eq!(
            r.range_before(&f, y, x),
            Interval {
                lo: i64::MAX - 1,
                hi: i64::MAX
            }
        );
        assert!(r.range_before(&f, p, y).is_full());
        let wrapped = (i64::MAX - 1).wrapping_add(10).wrapping_sub(i64::MAX - 3);
        assert_eq!(wrapped, 12);
        let zr = r.range_before(&f, p, z);
        assert!(
            zr.lo <= wrapped && wrapped <= zr.hi,
            "[{}, {}]",
            zr.lo,
            zr.hi
        );
        assert!(!index_in_bounds(&f, &r, p, z, 4));
    }

    #[test]
    fn interval_ends_that_overflow_give_the_full_range() {
        let r = |lo, hi| Interval { lo, hi };
        assert_eq!(r(1, 2).add(r(3, 4)), r(4, 6));
        assert!(r(0, i64::MAX).add(r(0, 1)).is_full());
        assert!(r(i64::MIN, 0).add(r(-1, 0)).is_full());
        assert_eq!(r(5, 9).sub(r(1, 2)), r(3, 8));
        assert!(r(i64::MIN, 0).sub(r(0, 1)).is_full());
        assert!(r(0, 1).sub(r(i64::MIN, 0)).is_full());
        assert_eq!(r(-3, 2).mul(r(4, 5)), r(-15, 10));
        assert!(r(0, i64::MAX).mul(r(2, 2)).is_full());
        assert!(r(-1, 0).mul(r(i64::MIN, i64::MIN)).is_full());
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
        let r = solved(&f, &[]);
        // In the then-arm, n ≤ 7; in the else-arm, n ≥ 8.
        assert_eq!(r.range_before(&f, tv, n).hi, 7);
        assert!(r.range_before(&f, tv, n).lo == i64::MIN);
        assert_eq!(r.range_before(&f, ev, n).lo, 8);
    }

    /// `i = 0; while (i < n) { buf[i] = 0; i = i + 1; }` over an
    /// `n`-element buffer, after `extra` unused constants: the function
    /// and the loop's gep.
    fn counted_loop(n: i64, extra: impl IntoIterator<Item = i64>) -> (Function, ValueId, ValueId) {
        let mut b = FunctionBuilder::new("f", vec![], Ty::Void);
        let head = b.new_block("head");
        let body = b.new_block("body");
        let exit = b.new_block("exit");
        let buf = b.alloca_n(Ty::I64, n as u32);
        for k in extra {
            b.const_i64(k);
        }
        let zero = b.const_i64(0);
        let bound = b.const_i64(n);
        let one = b.const_i64(1);
        b.jmp(head);
        b.switch_to(head);
        let entry = b.func().entry();
        let i = b.phi(vec![(entry, zero)]);
        let c = b.icmp(CmpPred::Slt, i, bound);
        b.br(c, body, exit);
        b.switch_to(body);
        let p = b.gep(buf, i);
        b.store(zero, p);
        let inext = b.add(i, one);
        b.jmp(head);
        b.switch_to(exit);
        b.ret(None);
        let mut f = b.finish();
        if let Some(pythia_ir::Inst::Phi { incomings }) = f.inst_mut(i) {
            incomings.push((body, inext));
        }
        (f, p, i)
    }

    #[test]
    fn counted_loop_index_is_proven_in_bounds() {
        let (f, p, i) = counted_loop(16, []);
        let r = solved(&f, &[]);
        assert!(index_in_bounds(&f, &r, p, i, 16), "i ∈ [0, 15] at the gep");
        assert!(!index_in_bounds(&f, &r, p, i, 15), "15 is reachable");
    }

    #[test]
    fn a_loop_climbing_hundreds_of_thresholds_converges() {
        // The same loop bounded by 1000, in a function whose 200
        // constants 3, 6, .., 600 make every integer in 2..=601 a
        // threshold: the head's upper bound climbs them one per visit,
        // about 600 visits, before the guard's 999 stops it.
        let (f, p, i) = counted_loop(1000, (1..=200).map(|k| 3 * k));
        assert!(RangeAnalysis::for_function(&f, &[]).thresholds.len() > 600);
        let r = solved(&f, &[]);
        assert_eq!(r.range_before(&f, p, i), Interval { lo: 0, hi: 999 });
        assert!(index_in_bounds(&f, &r, p, i, 1000));
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
        let r = solved(&f, &[]);
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
        let r = solved(&f, &[]);
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
        let r = solved(&f, &[]);
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
        let r = solved(&f, &[]);
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
        let r = solved(&f, &[]);
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
        let r = solved(&f, &[]);
        assert!(index_in_bounds(&f, &r, p, i, 8), "i ≤ len − 1 ≤ 7");
        assert!(!index_in_bounds(&f, &r, p, i, 7));
    }

    /// `if (i ult len) { j = sel > 0 ? i : i + 1; if (len <= 8) buf[j] }`
    /// over a 9-element `buf`, `j` a phi, and with `len sge 0` checked
    /// first when `sign_known`: the function, the gep and `j`.
    fn guarded_phi_index(sign_known: bool) -> (Function, ValueId, ValueId) {
        let mut b = FunctionBuilder::new("f", vec![Ty::I64, Ty::I64, Ty::I64], Ty::Void);
        let [guarded, tbb, ebb, join, lenok, bad] =
            ["guarded", "t", "e", "join", "lenok", "bad"].map(|n| b.new_block(n));
        let buf = b.alloca_n(Ty::I64, 9);
        let (i, len, sel) = (b.func().arg(0), b.func().arg(1), b.func().arg(2));
        let zero = b.const_i64(0);
        let one = b.const_i64(1);
        let eight = b.const_i64(8);
        if sign_known {
            let sgn = b.new_block("sgn");
            let csgn = b.icmp(CmpPred::Sge, len, zero);
            b.br(csgn, sgn, bad);
            b.switch_to(sgn);
        }
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
        (b.finish(), p, j)
    }

    /// Without the sign pre-guard, len's sign is unknown at the ult
    /// guard, so no relation may be recorded (a negative len is a huge
    /// unsigned bound): unproven.
    #[test]
    fn relational_bounds_join_through_phi() {
        let (f, p, j) = guarded_phi_index(false);
        let r = solved(&f, &[]);
        assert!(!index_in_bounds(&f, &r, p, j, 9));
    }

    /// With `len sge 0` first, `i ult len` both refines and relates.
    /// Relational facts survive a phi join when every incoming arm
    /// carries one: j = phi(i, i + 1) keeps j ≤ len (from i ≤ len − 1),
    /// so j ≤ len ≤ 8 and j ≥ 0.
    #[test]
    fn relational_bounds_join_through_phi_with_known_sign() {
        let (f, p, j) = guarded_phi_index(true);
        let r = solved(&f, &[]);
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
        let r0 = solved(&f, &[]);
        assert!(!index_in_bounds(&f, &r0, q, i, 8));

        // Seeded with len = 8 (a callsite passing a constant): proven.
        let r8 = solved(&f, &[(len, Interval::exact(8))]);
        assert!(r8.converged());
        assert!(index_in_bounds(&f, &r8, q, i, 8));
        assert!(!index_in_bounds(&f, &r8, q, i, 7));

        // Seeded with a larger capacity than the proof needs: unproven.
        let r16 = solved(&f, &[(len, Interval::exact(16))]);
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
        let r = solved(&f, &[]);
        assert!(r.result.input(dead).is_none());
        assert!(r.range_before(&f, s, two).is_full());
    }

    /// Over [`REL_MAX_TERMS`], a value keeps its relations against the
    /// smallest `w`s and drops the largest, whatever the order they were
    /// derived in.
    #[test]
    fn the_term_cap_drops_the_largest_w() {
        let n = REL_MAX_TERMS as u32;
        let v = ValueId(0);
        let kept: Vec<(ValueId, ValueId, i64)> = (1..=n).map(|w| (v, ValueId(w), 0)).collect();
        for order in [(1..=n + 1).collect::<Vec<_>>(), (1..=n + 1).rev().collect()] {
            let mut env = Env {
                iv: Vec::new(),
                ub: Vec::new(),
            };
            for w in order {
                env.bound(v, ValueId(w), 0);
            }
            assert_eq!(env.ub, kept);
        }
    }
}
