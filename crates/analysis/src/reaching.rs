//! Flow-sensitive reaching stores (forward dataflow), a thin client of
//! the generic worklist solver in [`crate::dataflow`]: it states a
//! lattice and a transfer function and lets [`crate::dataflow::solve`] do
//! the iteration.

use crate::dataflow::{solve, DataflowAnalysis, Direction};
use pythia_ir::{BlockId, Function, Inst, ValueId};
use std::collections::{BTreeMap, HashSet};

#[cfg(test)]
mod reference;

/// A reaching fact: the `(object, store)` pairs that may reach a point,
/// sorted, so one object's stores form a contiguous run.
type Defs = Vec<(u32, ValueId)>;

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
    /// Per block, the `(object, store)` pairs reaching its entry.
    reach_in: Vec<Defs>,
}

/// Forward may-analysis: store instructions walk their block in order, a
/// single-object store strongly updates (replaces) that object's def set,
/// a multi-object store weakly extends every candidate. Each block's
/// stores are summarized once as gen/kill sets, so a visit is one merge.
struct ReachingProblem {
    /// Block `b`'s summary is `gens[gen_start[b]..gen_start[b + 1]]` and
    /// `kills[kill_start[b]..kill_start[b + 1]]`.
    gen_start: Vec<usize>,
    kill_start: Vec<usize>,
    /// Pairs the block leaves reaching its exit, sorted.
    gens: Defs,
    /// Objects whose incoming stores the block strongly overwrites,
    /// sorted.
    kills: Vec<u32>,
}

impl ReachingProblem {
    /// Summarize every block's stores. `objects_of` is asked once per
    /// store.
    fn new(f: &Function, objects_of: impl Fn(ValueId) -> Vec<u32>) -> Self {
        let mut p = ReachingProblem {
            gen_start: vec![0],
            kill_start: vec![0],
            gens: Vec::new(),
            kills: Vec::new(),
        };
        for bb in f.block_ids() {
            // object -> (strongly overwritten in this block, its stores
            // since the last overwrite)
            let mut effect: BTreeMap<u32, (bool, Vec<ValueId>)> = BTreeMap::new();
            for &iv in &f.block(bb).insts {
                if let Some(Inst::Store { ptr, .. }) = f.inst(iv) {
                    let objs = objects_of(*ptr);
                    let strong = objs.len() == 1;
                    for o in objs {
                        let (killed, stores) = effect.entry(o).or_default();
                        if strong {
                            *killed = true;
                            stores.clear();
                        }
                        stores.push(iv);
                    }
                }
            }
            for (o, (killed, mut stores)) in effect {
                if killed {
                    p.kills.push(o);
                }
                stores.sort_unstable();
                stores.dedup();
                p.gens.extend(stores.into_iter().map(|s| (o, s)));
            }
            p.gen_start.push(p.gens.len());
            p.kill_start.push(p.kills.len());
        }
        p
    }
}

impl DataflowAnalysis for ReachingProblem {
    type Fact = Defs;

    fn direction(&self) -> Direction {
        Direction::Forward
    }
    fn boundary(&self, _f: &Function, _bb: BlockId) -> Defs {
        Vec::new()
    }
    fn top(&self, _f: &Function) -> Defs {
        Vec::new()
    }
    /// Sorted union, merged in place from the back.
    fn meet_into(&self, acc: &mut Defs, other: &Defs) {
        let (n, m) = (acc.len(), other.len());
        acc.extend_from_slice(other);
        let (mut i, mut j, mut k) = (n, m, n + m);
        while j > 0 {
            k -= 1;
            if i > 0 && acc[i - 1] > other[j - 1] {
                i -= 1;
                acc[k] = acc[i];
            } else {
                j -= 1;
                acc[k] = other[j];
            }
        }
        acc.dedup();
    }
    /// `out = gens ∪ (fact − kills)`, one sorted merge.
    fn transfer_into(&self, _f: &Function, bb: BlockId, fact: &Defs, out: &mut Defs) {
        let b = bb.0 as usize;
        let gens = &self.gens[self.gen_start[b]..self.gen_start[b + 1]];
        let kills = &self.kills[self.kill_start[b]..self.kill_start[b + 1]];
        out.clear();
        let mut kills = kills.iter().peekable();
        let mut gens = gens.iter().peekable();
        for &d in fact {
            while kills.next_if(|&&o| o < d.0).is_some() {}
            if kills.peek() == Some(&&d.0) {
                continue;
            }
            while let Some(&g) = gens.next_if(|&&g| g < d) {
                out.push(g);
            }
            gens.next_if_eq(&&d);
            out.push(d);
        }
        out.extend(gens);
    }
}

impl ReachingStores {
    /// Compute for one function. `objects_of` maps a store's pointer to
    /// the object ids it may write (points-to abstraction, supplied by
    /// the caller so this module stays independent of the alias crate).
    pub fn compute(f: &Function, objects_of: impl Fn(ValueId) -> Vec<u32>) -> Self {
        let sol = solve(f, &ReachingProblem::new(f, objects_of));
        ReachingStores {
            reach_in: sol.input,
        }
    }

    /// Stores of `obj` that may reach the entry of `bb`.
    pub fn reaching(&self, bb: BlockId, obj: u32) -> HashSet<ValueId> {
        let defs = &self.reach_in[bb.0 as usize];
        let start = defs.partition_point(|d| d.0 < obj);
        defs[start..]
            .iter()
            .take_while(|d| d.0 == obj)
            .map(|d| d.1)
            .collect()
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
