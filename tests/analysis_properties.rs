//! Property tests for the analysis crate over randomly-shaped CFGs:
//! dominator/post-dominator laws, control dependence, and points-to
//! soundness on randomly wired pointer programs.

use proptest::prelude::*;
use pythia::analysis::{
    control_dependence, reverse_postorder, Dominators, PointsTo, PostDominators,
};
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

    /// Dominator laws: entry dominates everything reachable; idom(b)
    /// strictly dominates b; RPO visits entry first and dominators come
    /// before dominated blocks.
    #[test]
    fn dominator_laws(shape in proptest::collection::vec(0u8..6, 1..10)) {
        let f = build_cfg(&shape);
        pythia::ir::verify::verify_function(
            &Module::new("x"), &f, &mut Vec::new());
        let dom = Dominators::compute(&f);
        let rpo = reverse_postorder(&f);
        prop_assert_eq!(rpo[0], f.entry());
        for &bb in &rpo {
            prop_assert!(dom.dominates(f.entry(), bb));
            if bb != f.entry() {
                let id = dom.idom(bb).expect("reachable");
                prop_assert!(id != bb, "idom must be strict for non-entry");
                prop_assert!(dom.dominates(id, bb));
            }
        }
    }

    /// Post-dominator laws on the same CFGs: every reachable block is
    /// post-dominated by itself; if a block has a single successor, that
    /// successor post-dominates it.
    #[test]
    fn postdominator_laws(shape in proptest::collection::vec(0u8..6, 1..10)) {
        let f = build_cfg(&shape);
        let pd = PostDominators::compute(&f);
        for bb in f.block_ids() {
            prop_assert!(pd.post_dominates(bb, bb));
            let succs = f.successors(bb);
            if succs.len() == 1 {
                prop_assert!(
                    pd.post_dominates(succs[0], bb),
                    "single successor must post-dominate"
                );
            }
        }
    }

    /// Control dependence only ever points at multi-successor blocks.
    #[test]
    fn control_deps_point_at_branches(shape in proptest::collection::vec(0u8..6, 1..10)) {
        let f = build_cfg(&shape);
        let cd = control_dependence(&f);
        for deps in &cd {
            for d in deps {
                prop_assert!(f.successors(*d).len() >= 2);
            }
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
