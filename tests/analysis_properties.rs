//! Property tests for the analysis crate: reverse-postorder laws over
//! randomly-shaped CFGs, points-to soundness on randomly wired pointer
//! programs, and reaching stores checked against their path meaning on
//! random CFGs and on the generated suite.

use proptest::prelude::*;
use pythia::analysis::{reverse_postorder, PointsTo, ReachingStores};
use pythia::ir::{BlockId, CmpPred, FuncId, Function, FunctionBuilder, Inst, Module, Ty, ValueId};
use pythia::workloads::{generate, nginx_module, SizeTier, SPEC_PROFILES};
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};

/// Build a function whose CFG is a chain of `shape` segments, each either
/// a straight block, a diamond, or a bounded loop.
fn build_cfg(shape: &[u8]) -> Function {
    let mut b = FunctionBuilder::new("f", vec![Ty::I64], Ty::I64);
    let x = b.func().arg(0);
    let zero = b.const_i64(0);
    let mut v = x;
    for (i, kind) in shape.iter().enumerate() {
        match kind % 3 {
            0 => {
                // straight-line work
                let one = b.const_i64(1);
                v = b.add(v, one);
            }
            1 => {
                // diamond
                let c = b.icmp(CmpPred::Sgt, v, zero);
                let t = b.new_block(format!("t{i}"));
                let e = b.new_block(format!("e{i}"));
                let j = b.new_block(format!("j{i}"));
                b.br(c, t, e);
                let one = b.const_i64(1);
                let two = b.const_i64(2);
                b.switch_to(t);
                let a = b.add(v, one);
                b.jmp(j);
                b.switch_to(e);
                let c2 = b.add(v, two);
                b.jmp(j);
                b.switch_to(j);
                v = b.phi(vec![(t, a), (e, c2)]);
            }
            _ => {
                // bounded loop
                let pre = b.current_block();
                let body = b.new_block(format!("l{i}"));
                let after = b.new_block(format!("a{i}"));
                b.jmp(body);
                b.switch_to(body);
                let k = b.phi(vec![(pre, zero)]);
                let one = b.const_i64(1);
                let k2 = b.add(k, one);
                let s = b.add(v, k2);
                if let Some(pythia::ir::Inst::Phi { incomings }) = b.func_mut().inst_mut(k) {
                    incomings.push((body, k2));
                }
                let lim = b.const_i64(3);
                let c = b.icmp(CmpPred::Slt, k2, lim);
                b.br(c, body, after);
                b.switch_to(after);
                v = s;
            }
        }
    }
    b.ret(Some(v));
    b.finish()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Reverse-postorder laws, the order every dataflow fixpoint
    /// iterates in: it starts at the entry, lists each block reachable
    /// from the entry exactly once and nothing else, and places every
    /// other block after at least one of its predecessors.
    #[test]
    fn rpo_laws(shape in proptest::collection::vec(0u8..6, 1..10)) {
        let f = build_cfg(&shape);
        pythia::ir::verify::verify_function(
            &Module::new("x"), &f, &mut Vec::new());
        let rpo = reverse_postorder(&f);
        prop_assert_eq!(rpo[0], f.entry());
        let mut reachable = vec![false; f.num_blocks()];
        let mut stack = vec![f.entry()];
        while let Some(bb) = stack.pop() {
            if !std::mem::replace(&mut reachable[bb.0 as usize], true) {
                stack.extend(f.successors(bb));
            }
        }
        let mut pos = vec![None; f.num_blocks()];
        for (i, &bb) in rpo.iter().enumerate() {
            prop_assert!(pos[bb.0 as usize].is_none(), "{:?} listed twice", bb);
            pos[bb.0 as usize] = Some(i);
        }
        for bb in f.block_ids() {
            prop_assert_eq!(pos[bb.0 as usize].is_some(), reachable[bb.0 as usize]);
        }
        let preds = f.predecessors();
        for (i, &bb) in rpo.iter().enumerate().skip(1) {
            prop_assert!(
                preds[bb.0 as usize]
                    .iter()
                    .any(|p| pos[p.0 as usize].is_some_and(|pi| pi < i)),
                "{:?} precedes all its predecessors", bb
            );
        }
    }

    /// Points-to soundness on store/load chains: a pointer stored into a
    /// slot and loaded back must alias the original allocation.
    #[test]
    fn points_to_tracks_chains(depth in 1usize..6) {
        let mut m = Module::new("chain");
        let mut b = FunctionBuilder::new("f", vec![], Ty::Void);
        let target = b.alloca(Ty::I64);
        // Build a chain of pointer slots: s1 = &target; s2 = &s1; ...
        let mut cur: ValueId = target;
        let mut cur_ty = Ty::ptr(Ty::I64);
        let mut slots = Vec::new();
        for _ in 0..depth {
            let slot = b.alloca(cur_ty.clone());
            b.store(cur, slot);
            slots.push(slot);
            cur = slot;
            cur_ty = Ty::ptr(cur_ty);
        }
        // Walk the chain back down with loads.
        let mut p = cur;
        for _ in 0..depth {
            p = b.load(p);
        }
        b.ret(None);
        let fid = m.add_function(b.finish());
        let pt = PointsTo::analyze(&m);
        prop_assert!(
            pt.may_alias((fid, p), (fid, target)),
            "chain of {depth} loads must reach the target allocation"
        );
        // And it must NOT alias an unrelated allocation's *contents*…
        // (the slots themselves are distinct objects from the target).
        for s in slots {
            prop_assert!(!pt.points_to(fid, target).may_overlap(pt.points_to(fid, s)));
        }
    }
}

/// Check `ReachingStores` on `f` against what reaching means, for every
/// block and every object a store writes (plus one none does). Reaching stores is a gen/kill
/// problem, so its fixpoint is the meet over all paths: store `s` of
/// object `o` reaches block `C`'s entry iff no later one-object store to
/// `o` follows `s` in its block, and some CFG path from `s`'s block to
/// `C` passes through no block that strongly stores `o`. A store whose
/// object list is longer than one (a repeated object included) is weak.
/// Returns how many sets were compared and how many were non-empty.
fn check_reaching_stores(
    f: &Function,
    objects_of: &dyn Fn(ValueId) -> Vec<u32>,
    what: &str,
) -> (u64, u64) {
    let rs = ReachingStores::compute(f, objects_of);
    // Per block, its stores in order with the objects each writes.
    let stores: Vec<Vec<(ValueId, Vec<u32>)>> = f
        .block_ids()
        .map(|bb| {
            f.block(bb)
                .insts
                .iter()
                .filter_map(|&iv| match f.inst(iv) {
                    Some(Inst::Store { ptr, .. }) => Some((iv, objects_of(*ptr))),
                    _ => None,
                })
                .collect()
        })
        .collect();
    let strong = |objs: &[u32], o: u32| objs == [o];
    let mut want: HashMap<(BlockId, u32), HashSet<ValueId>> = HashMap::new();
    for home in f.block_ids() {
        let in_block = &stores[home.0 as usize];
        for (i, (s, objs)) in in_block.iter().enumerate() {
            let objs: BTreeSet<u32> = objs.iter().copied().collect();
            for o in objs {
                if in_block[i + 1..].iter().any(|(_, later)| strong(later, o)) {
                    continue;
                }
                let mut seen = vec![false; f.num_blocks()];
                let mut queue: Vec<BlockId> = f.successors(home).into_iter().collect();
                while let Some(bb) = queue.pop() {
                    if std::mem::replace(&mut seen[bb.0 as usize], true) {
                        continue;
                    }
                    want.entry((bb, o)).or_default().insert(*s);
                    if !stores[bb.0 as usize].iter().any(|(_, w)| strong(w, o)) {
                        queue.extend(f.successors(bb));
                    }
                }
            }
        }
    }
    let objects: BTreeSet<u32> = stores
        .iter()
        .flatten()
        .flat_map(|(_, objs)| objs.iter().copied())
        .chain([u32::MAX])
        .collect();
    let (mut compared, mut nonempty) = (0, 0);
    for bb in f.block_ids() {
        for &o in &objects {
            let want = want.remove(&(bb, o)).unwrap_or_default();
            assert_eq!(
                rs.reaching(bb, o),
                want,
                "{what}: stores of object {o} reaching {bb}"
            );
            compared += 1;
            nonempty += u64::from(!want.is_empty());
        }
    }
    (compared, nonempty)
}

/// The objects of [`random_store_cfg`]'s four slots: two strong (one
/// object each), one weak over two objects, one weak with a repeated
/// object; any other pointer writes nothing.
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
/// branches, returns; back edges and unreachable blocks included), each
/// storing to random slots, drawn from `seed`.
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
/// unreachable blocks, which the generated suite exercises too rarely:
/// 400 random functions, every block × object.
#[test]
fn reaching_stores_on_random_cfgs_follow_their_paths() {
    let mut killed = 0;
    for seed in 0..400 {
        let (f, slots) = random_store_cfg(seed);
        let objects_of = |p: ValueId| slot_objects(&slots, p);
        check_reaching_stores(&f, &objects_of, &format!("seed {seed}"));
        // Count functions where a strong update hides an earlier store
        // from some block: with every store made weak, the sets differ.
        let (exact, weak) = (
            ReachingStores::compute(&f, objects_of),
            ReachingStores::compute(&f, |p| {
                let mut objs = objects_of(p);
                objs.push(u32::MAX);
                objs
            }),
        );
        killed += usize::from(
            f.block_ids()
                .any(|bb| (0..4).any(|o| weak.reaching(bb, o) != exact.reaching(bb, o))),
        );
    }
    assert!(
        killed > 50,
        "only {killed} functions exercise a strong update"
    );
}

/// The same check on every function of the smoke-tier suite plus nginx,
/// under two store-to-object maps: the points-to sets (as the liveness
/// pass asks) and a per-store list with repeats (as the DFI linter
/// builds it, where a repeat makes a one-object store weak).
#[test]
fn reaching_stores_on_the_suite_follow_their_paths() {
    let mut modules: Vec<Module> = SPEC_PROFILES
        .iter()
        .map(|p| generate(&p.at_tier(SizeTier::Smoke)))
        .collect();
    modules.push(nginx_module(SizeTier::Smoke.scale_volume(60)));
    let (mut compared, mut nonempty) = (0, 0);
    for m in &modules {
        let pt = PointsTo::analyze(m);
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
            let mut by_store: BTreeMap<ValueId, Vec<u32>> = BTreeMap::new();
            for v in f.value_ids() {
                if let Some(Inst::Store { ptr, .. }) = f.inst(v) {
                    by_store
                        .entry(*ptr)
                        .or_default()
                        .extend(by_points_to(*ptr).into_iter().filter(|o| o % 2 == 0));
                }
            }
            let by_store = |p: ValueId| by_store.get(&p).cloned().unwrap_or_default();
            for (map, objects_of) in [
                ("points-to", &by_points_to as &dyn Fn(ValueId) -> Vec<u32>),
                ("per-store", &by_store),
            ] {
                let what = format!("{}/{} ({map})", m.name, f.name);
                let (c, n) = check_reaching_stores(f, objects_of, &what);
                compared += c;
                nonempty += n;
            }
        }
    }
    assert!(
        nonempty > 0 && compared > nonempty,
        "{compared} sets, {nonempty} non-empty"
    );
}
