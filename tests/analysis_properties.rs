//! Property tests for the analysis crate: reverse-postorder laws over
//! randomly-shaped CFGs, and points-to soundness on randomly wired
//! pointer programs.

use proptest::prelude::*;
use pythia::analysis::{reverse_postorder, PointsTo};
use pythia::ir::{CmpPred, Function, FunctionBuilder, Module, Ty, ValueId};

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
