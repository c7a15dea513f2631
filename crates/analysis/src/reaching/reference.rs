//! Test-only reference: reaching stores as per-object SipHash sets,
//! re-walked store by store on every block visit and solved by the
//! reference solver, as they were before the facts became one sorted
//! `(object, store)` vector with per-block gen/kill summaries. The
//! differential test below demands identical reaching sets. Delete this
//! module once the gate has held through one more change.

use crate::dataflow::reference::{solve, ReferenceAnalysis};
use crate::dataflow::Direction;
use pythia_ir::{BlockId, Function, Inst, ValueId};
use std::collections::{HashMap, HashSet};

struct ReferenceProblem<F: Fn(ValueId) -> Vec<u32>> {
    objects_of: F,
}

impl<F: Fn(ValueId) -> Vec<u32>> ReferenceAnalysis for ReferenceProblem<F> {
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

/// Per block, object -> stores reaching the block's entry.
fn reference_reaching(
    f: &Function,
    objects_of: impl Fn(ValueId) -> Vec<u32>,
) -> Vec<HashMap<u32, HashSet<ValueId>>> {
    solve(f, &ReferenceProblem { objects_of }).input
}

mod tests {
    use super::*;
    use crate::dataflow::reference::smoke_suite;
    use crate::{PointsTo, ReachingStores};
    use pythia_ir::{CmpPred, FuncId, FunctionBuilder, Ty};
    use std::collections::BTreeSet;

    /// The store-to-object map of [`random_store_cfg`]'s four slots: two
    /// strong (one object each), one weak over two objects, one weak
    /// with a repeated object; any other pointer writes nothing.
    fn slot_objects(slots: &[ValueId], p: ValueId) -> Vec<u32> {
        match slots.iter().position(|&s| s == p) {
            Some(0) => vec![0],
            Some(1) => vec![1, 2],
            Some(2) => vec![2],
            Some(3) => vec![0, 0],
            _ => Vec::new(),
        }
    }

    /// A function of `2..10` blocks wired at random (jumps, two-way
    /// branches, returns; back edges and unreachable blocks included),
    /// each storing to random slots, drawn from `seed`.
    fn random_store_cfg(seed: u64) -> (Function, Vec<ValueId>) {
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        let mut next = |n: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % n
        };
        let mut b = FunctionBuilder::new("r", vec![Ty::I64], Ty::Void);
        let nb = 2 + next(8) as u32;
        let blocks: Vec<BlockId> = std::iter::once(b.current_block())
            .chain((1..nb).map(|i| b.new_block(format!("b{i}"))))
            .collect();
        let slots: Vec<ValueId> = (0..4).map(|_| b.alloca(Ty::I64)).collect();
        let x = b.func().arg(0);
        for &bb in &blocks {
            b.switch_to(bb);
            for _ in 0..next(4) {
                let v = b.const_i64(next(100) as i64);
                b.store(v, slots[next(4) as usize]);
            }
            let pick = |r: u64| blocks[r as usize];
            match next(5) {
                0 => {
                    b.ret(None);
                }
                1 | 2 => {
                    let t = pick(next(u64::from(nb)));
                    b.jmp(t);
                }
                _ => {
                    let zero = b.const_i64(0);
                    let c = b.icmp(CmpPred::Sgt, x, zero);
                    let (t, e) = (pick(next(u64::from(nb))), pick(next(u64::from(nb))));
                    b.br(c, t, e);
                }
            }
        }
        (b.finish(), slots)
    }

    /// Strong updates across blocks, weak updates, repeats, loops and
    /// unreachable blocks, which the generated suite exercises too
    /// rarely: 400 random functions, every block × object.
    #[test]
    fn random_store_cfgs_match_the_hash_reference() {
        let mut killed = 0;
        for seed in 0..400 {
            let (f, slots) = random_store_cfg(seed);
            let objects_of = |p: ValueId| slot_objects(&slots, p);
            let flat = ReachingStores::compute(&f, objects_of);
            let reference = reference_reaching(&f, objects_of);
            for bb in f.block_ids() {
                for o in 0..4 {
                    let want = reference[bb.0 as usize]
                        .get(&o)
                        .cloned()
                        .unwrap_or_default();
                    assert_eq!(
                        flat.reaching(bb, o),
                        want,
                        "seed {seed}: object {o} at {bb}"
                    );
                }
            }
            // Count functions where a strong update hides an earlier
            // store from some block: the case the map walk and the
            // gen/kill summary must agree on.
            let weak = ReachingStores::compute(&f, |p| {
                let mut objs = objects_of(p);
                objs.push(u32::MAX);
                objs
            });
            killed += usize::from(
                f.block_ids()
                    .any(|bb| (0..4).any(|o| weak.reaching(bb, o) != flat.reaching(bb, o))),
            );
        }
        assert!(
            killed > 50,
            "only {killed} functions exercise a strong update"
        );
    }

    /// `ReachingStores::reaching` equals the reference's set for every
    /// block × object on the smoke-tier suite plus nginx, under two
    /// store-to-object maps: the points-to sets (as the liveness pass
    /// asks) and a per-store list with repeats (as the DFI linter builds
    /// it, where a repeat makes a one-object store weak).
    #[test]
    fn sorted_reaching_stores_match_the_hash_reference() {
        let (mut compared, mut nonempty) = (0u64, 0u64);
        for m in smoke_suite() {
            let pt = PointsTo::analyze(&m);
            for (i, f) in m.functions().iter().enumerate() {
                let fid = FuncId(i as u32);
                let by_points_to = |p: ValueId| -> Vec<u32> {
                    let s = pt.points_to(fid, p);
                    if s.unknown {
                        Vec::new()
                    } else {
                        s.objects.iter().copied().collect()
                    }
                };
                let mut by_store: HashMap<ValueId, Vec<u32>> = HashMap::new();
                for v in f.value_ids() {
                    if let Some(Inst::Store { ptr, .. }) = f.inst(v) {
                        by_store
                            .entry(*ptr)
                            .or_default()
                            .extend(by_points_to(*ptr).into_iter().filter(|o| o % 2 == 0));
                    }
                }
                let by_store = |p: ValueId| by_store.get(&p).cloned().unwrap_or_default();
                let objects: BTreeSet<u32> = f
                    .value_ids()
                    .filter_map(|v| match f.inst(v) {
                        Some(Inst::Store { ptr, .. }) => Some(by_points_to(*ptr)),
                        _ => None,
                    })
                    .flatten()
                    .chain([u32::MAX])
                    .collect();
                for (map, objects_of) in [
                    ("points-to", &by_points_to as &dyn Fn(ValueId) -> Vec<u32>),
                    ("per-store", &by_store),
                ] {
                    let flat = ReachingStores::compute(f, objects_of);
                    let reference = reference_reaching(f, objects_of);
                    for bb in f.block_ids() {
                        for &o in &objects {
                            let want = reference[bb.0 as usize]
                                .get(&o)
                                .cloned()
                                .unwrap_or_default();
                            assert_eq!(
                                flat.reaching(bb, o),
                                want,
                                "{}/{} ({map}): stores of object {o} reaching {bb}",
                                m.name,
                                f.name
                            );
                            compared += 1;
                            nonempty += u64::from(!want.is_empty());
                        }
                    }
                }
            }
        }
        assert!(
            nonempty > 0 && compared > nonempty,
            "{compared} sets, {nonempty} non-empty"
        );
    }
}
