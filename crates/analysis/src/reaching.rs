//! Flow-sensitive reaching stores (forward dataflow), a thin client of
//! the generic worklist solver in [`crate::dataflow`]: it states a
//! lattice and a transfer function and lets [`crate::dataflow::solve`] do
//! the iteration.

use crate::dataflow::{solve, DataflowAnalysis, Direction};
use pythia_ir::{BlockId, Function, Inst, ValueId};
use std::collections::{HashMap, HashSet};

/// Flow-sensitive reaching definitions over *memory objects*.
///
/// For each block and each object, which store instructions may reach its
/// entry. This is the textbook analysis behind DFI's static def-sets
/// (Castro et al. compute it with their "reaching definitions analysis");
/// our DFI pass uses the cheaper flow-insensitive object sets, and this
/// analysis exists to let the linter cross-check the pass's emitted
/// check-sets against a flow-sensitive ground truth.
#[derive(Debug, Clone)]
pub struct ReachingStores {
    /// block -> object -> set of store instruction values
    reach_in: Vec<HashMap<u32, HashSet<ValueId>>>,
}

/// Forward may-analysis: store instructions walk their block in order, a
/// single-object store strongly updates (replaces) that object's def set,
/// a multi-object store weakly extends every candidate.
struct ReachingProblem<F: Fn(ValueId) -> Vec<u32>> {
    objects_of: F,
}

impl<F: Fn(ValueId) -> Vec<u32>> DataflowAnalysis for ReachingProblem<F> {
    type Fact = HashMap<u32, HashSet<ValueId>>;

    fn direction(&self) -> Direction {
        Direction::Forward
    }
    fn boundary(&self, _f: &Function, _bb: BlockId) -> Self::Fact {
        HashMap::new()
    }
    fn top(&self, _f: &Function) -> Self::Fact {
        HashMap::new()
    }
    fn meet(&self, a: &Self::Fact, b: &Self::Fact) -> Self::Fact {
        let mut out = a.clone();
        for (o, defs) in b {
            out.entry(*o).or_default().extend(defs.iter().copied());
        }
        out
    }
    fn transfer(&self, f: &Function, bb: BlockId, inn: &Self::Fact) -> Self::Fact {
        let mut out = inn.clone();
        for &iv in &f.block(bb).insts {
            if let Some(Inst::Store { ptr, .. }) = f.inst(iv) {
                let objs = (self.objects_of)(*ptr);
                let strong = objs.len() == 1;
                for o in objs {
                    let entry = out.entry(o).or_default();
                    if strong {
                        entry.clear();
                    }
                    entry.insert(iv);
                }
            }
        }
        out
    }
}

impl ReachingStores {
    /// Compute for one function. `objects_of` maps a store's pointer to
    /// the object ids it may write (points-to abstraction, supplied by
    /// the caller so this module stays independent of the alias crate).
    pub fn compute(f: &Function, objects_of: impl Fn(ValueId) -> Vec<u32>) -> Self {
        let sol = solve(f, &ReachingProblem { objects_of });
        ReachingStores {
            reach_in: sol.input,
        }
    }

    /// Stores of `obj` that may reach the entry of `bb`.
    pub fn reaching(&self, bb: BlockId, obj: u32) -> HashSet<ValueId> {
        self.reach_in[bb.0 as usize]
            .get(&obj)
            .cloned()
            .unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pythia_ir::{CmpPred, FunctionBuilder, Ty};

    #[test]
    fn reaching_stores_flow_sensitively() {
        // entry: store#1 obj0; br; t: store#2 obj0 -> j; e: (nothing) -> j
        // at j, {store#2, store#1} reach (store#1 via e).
        let mut b = FunctionBuilder::new("f", vec![Ty::I64], Ty::I64);
        let t = b.new_block("t");
        let e = b.new_block("e");
        let j = b.new_block("j");
        let slot = b.alloca(Ty::I64);
        let x = b.func().arg(0);
        let st1 = b.store(x, slot);
        let zero = b.const_i64(0);
        let c = b.icmp(CmpPred::Sgt, x, zero);
        b.br(c, t, e);
        b.switch_to(t);
        let one = b.const_i64(1);
        let st2 = b.store(one, slot);
        b.jmp(j);
        b.switch_to(e);
        b.jmp(j);
        b.switch_to(j);
        let v = b.load(slot);
        b.ret(Some(v));
        let f = b.finish();

        let rs = ReachingStores::compute(&f, |ptr| if ptr == slot { vec![0] } else { vec![] });
        let at_join = rs.reaching(BlockId(3), 0);
        assert!(at_join.contains(&st2), "then-arm store reaches the join");
        assert!(at_join.contains(&st1), "entry store survives the else arm");
        // Inside the then-arm, only the entry store has reached so far.
        let at_t = rs.reaching(BlockId(1), 0);
        assert_eq!(at_t.len(), 1);
        assert!(at_t.contains(&st1));
    }

    #[test]
    fn strong_update_kills_previous_defs() {
        // entry: store#1; store#2 (same single object); next: load.
        // Only store#2 reaches the next block.
        let mut b = FunctionBuilder::new("f", vec![], Ty::I64);
        let next = b.new_block("next");
        let slot = b.alloca(Ty::I64);
        let one = b.const_i64(1);
        let two = b.const_i64(2);
        let _st1 = b.store(one, slot);
        let st2 = b.store(two, slot);
        b.jmp(next);
        b.switch_to(next);
        let v = b.load(slot);
        b.ret(Some(v));
        let f = b.finish();

        let rs = ReachingStores::compute(&f, |ptr| if ptr == slot { vec![0] } else { vec![] });
        let at_next = rs.reaching(BlockId(1), 0);
        assert_eq!(at_next.len(), 1, "strong update must kill store#1");
        assert!(at_next.contains(&st2));
    }
}
