//! Scalar optimizations: constant folding, dead-code elimination, CFG
//! simplification — and **obligation pruning**, the precision stage that
//! feeds the overflow-reach + interval analyses into the instrumentation.
//!
//! The paper instruments LLVM IR after `mem2reg`/`-O3` (§5); generated PIR
//! is already register-promoted, but hand-written programs can still leave
//! foldable arithmetic and dead paths around. [`optimize_module`] cleans
//! such a module up on request: `pythia-cli opt` and the `textual_ir`
//! example call it. The suite, the campaign and the server scenario
//! instrument generated modules as they are and never run it.
//!
//! [`prune_obligations`] is different in kind: it does not touch the
//! module at all. It shrinks a [`VulnerabilityReport`]'s obligation sets
//! to the objects an attacker can actually corrupt (per
//! [`pythia_analysis::reach`]), so the passes emit fewer PA/DFI
//! instructions with — provably, see DESIGN.md §5e — identical detection
//! behaviour. `pythia-lint` re-derives the same reach set independently
//! and treats a pruned-but-needed obligation as a hard violation.

use pythia_analysis::{
    MemObjectKind, ObjId, OverflowReach, PrunedObligations, SliceContext, SliceMode,
    VulnerabilityReport,
};
use pythia_ir::{
    BinOp, BlockId, CastKind, FuncId, Function, Inst, Module, Ty, ValueData, ValueId, ValueKind,
};
use std::collections::{BTreeSet, HashMap, HashSet};

/// Statistics from one optimization run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OptStats {
    /// Instructions folded to constants.
    pub folded: usize,
    /// Dead instructions removed.
    pub dce_removed: usize,
    /// Constant conditional branches rewritten to jumps.
    pub branches_folded: usize,
    /// Blocks made unreachable (body replaced by `unreachable`).
    pub blocks_neutralized: usize,
}

impl OptStats {
    /// Total changes made.
    pub fn total(&self) -> usize {
        self.folded + self.dce_removed + self.branches_folded + self.blocks_neutralized
    }
}

/// Run the default pipeline (fold → simplify-cfg → DCE, to a fixpoint)
/// over every function of `m`.
pub fn optimize_module(m: &mut Module) -> OptStats {
    let mut total = OptStats::default();
    for fid in m.func_ids().collect::<Vec<_>>() {
        let f = m.func_mut(fid);
        loop {
            let mut stats = OptStats::default();
            stats.folded += const_fold(f);
            let (bf, bn) = simplify_cfg(f);
            stats.branches_folded += bf;
            stats.blocks_neutralized += bn;
            stats.dce_removed += dce(f);
            total.folded += stats.folded;
            total.dce_removed += stats.dce_removed;
            total.branches_folded += stats.branches_folded;
            total.blocks_neutralized += stats.blocks_neutralized;
            if stats.total() == 0 {
                break;
            }
        }
    }
    total
}

/// Shrink `report`'s obligation sets to the objects an overflow-capable
/// write can actually corrupt. Returns a pruned clone; the original stays
/// untouched (the benchmark harness diffs the two for the precision
/// tables).
///
/// # Soundness
///
/// Obligations are dropped **by access-sharing component**: the
/// instrumentation's consistency fixpoints (`stable_signable`, DFI's
/// per-load allowed-writer sets) couple every object an access may touch,
/// so removing one member of a component would silently change the
/// instrumentation of the survivors. A component is pruned only when *no*
/// member is reachable by any overflow source — then its PA/DFI
/// instructions guarded memory the attacker provably cannot corrupt, and
/// dropping them is detection-preserving. When the reach analysis hits ⊤
/// (a store through an unknown pointer) nothing is pruned.
pub fn prune_obligations(
    ctx: &SliceContext<'_>,
    report: &VulnerabilityReport,
) -> VulnerabilityReport {
    let reach = OverflowReach::compute(ctx);
    let mut out = report.clone();
    out.pruned = PrunedObligations {
        reach_top: reach.top,
        reachable_objects: reach.num_reachable(),
        proven_gep_stores: reach.proven_gep_stores,
        contexts: reach.contexts,
        ctx_fallback: reach.ctx_fallback,
        policy: reach.policy,
        summaries: reach.summaries,
        summary_reuse: reach.summary_reuse,
        strong_updates: reach.strong_updates,
        ..Default::default()
    };
    if reach.top {
        return out;
    }

    // CPA slot signing (field-sensitive relation, like cpa::derive).
    let keep = keep_components(ctx, SliceMode::Pythia, &reach, &report.cpa_slot_objects);
    out.pruned.cpa_slots = report.cpa_slot_objects.len() - keep.len();
    out.cpa_slot_objects = keep;

    // CPA SSA sign/auth values: a value defined by a load that can only
    // read uncorruptible memory cannot carry attacker data; signing it
    // protects nothing.
    let pt = &ctx.points_to;
    let m = ctx.module;
    let before = report.cpa_sign_values.len();
    out.cpa_sign_values
        .retain(|&(fid, v)| match m.func(fid).inst(v) {
            Some(Inst::Load { ptr }) => {
                let pts = pt.points_to(fid, *ptr);
                pts.unknown
                    || pts.objects.is_empty()
                    || pts.objects.iter().any(|&o| reach.is_reachable(pt, o))
            }
            _ => true,
        });
    out.pruned.cpa_sign_values = before - out.cpa_sign_values.len();

    // Pythia heap sectioning: only the PA-signed heap objects are
    // prunable; canaries and secure_malloc redirection key off IC
    // destinations, which are overflow seeds and always reachable.
    let heap_candidates: BTreeSet<ObjId> = report
        .pythia_objects
        .iter()
        .copied()
        .filter(|&o| matches!(pt.obj_kind(o), MemObjectKind::Heap { .. }))
        .collect();
    let keep_heap = keep_components(ctx, SliceMode::Pythia, &reach, &heap_candidates);
    out.pruned.pythia_heap_objects = heap_candidates.len() - keep_heap.len();
    out.pythia_objects
        .retain(|o| !heap_candidates.contains(o) || keep_heap.contains(o));

    // DFI chkdef/setdef objects (field-insensitive relation, like dfi::derive).
    let keep_dfi = keep_components(ctx, SliceMode::Dfi, &reach, &report.dfi_objects);
    out.pruned.dfi_objects = report.dfi_objects.len() - keep_dfi.len();
    out.dfi_objects = keep_dfi;

    out
}

/// The subset of `set` that must keep its obligations: every member that
/// is overflow-reachable, closed over access sharing (an access touching
/// both a kept and an unkept member forces the whole access group kept).
fn keep_components(
    ctx: &SliceContext<'_>,
    mode: SliceMode,
    reach: &OverflowReach,
    set: &BTreeSet<ObjId>,
) -> BTreeSet<ObjId> {
    let pt = ctx.relation(mode);
    // access -> the set members it may touch.
    let mut by_access: HashMap<(FuncId, ValueId), Vec<ObjId>> = HashMap::new();
    for &o in set {
        for &(fid, iv) in ctx
            .loads_of_in(mode, o)
            .iter()
            .chain(ctx.stores_of_in(mode, o).iter())
        {
            by_access.entry((fid, iv)).or_default().push(o);
        }
    }
    let mut kept: BTreeSet<ObjId> = set
        .iter()
        .copied()
        .filter(|&o| reach.is_reachable(pt, o))
        .collect();
    loop {
        let mut grew = false;
        for members in by_access.values() {
            if members.iter().any(|o| kept.contains(o)) {
                for &o in members {
                    grew |= kept.insert(o);
                }
            }
        }
        if !grew {
            break;
        }
    }
    kept
}

fn const_of(f: &Function, v: ValueId) -> Option<i64> {
    match &f.value(v).kind {
        ValueKind::ConstInt(c) => Some(*c),
        ValueKind::ConstNull => Some(0),
        _ => None,
    }
}

fn eval_bin(op: BinOp, a: i64, b: i64) -> Option<i64> {
    Some(match op {
        BinOp::Add => a.wrapping_add(b),
        BinOp::Sub => a.wrapping_sub(b),
        BinOp::Mul => a.wrapping_mul(b),
        BinOp::Sdiv | BinOp::Srem if b == 0 => return None, // keep the trap
        BinOp::Sdiv => a.wrapping_div(b),
        BinOp::Srem => a.wrapping_rem(b),
        BinOp::And => a & b,
        BinOp::Or => a | b,
        BinOp::Xor => a ^ b,
        BinOp::Shl => a.wrapping_shl(b as u32 & 63),
        BinOp::Ashr => a.wrapping_shr(b as u32 & 63),
        BinOp::Lshr => ((a as u64) >> (b as u32 & 63)) as i64,
    })
}

/// Fold instructions whose operands are all constants. Returns the number
/// folded. Folded instructions are removed from their blocks; their uses
/// are rewritten to fresh constant values.
pub fn const_fold(f: &mut Function) -> usize {
    let mut folded = 0;
    loop {
        let mut change: Option<(ValueId, i64, Ty)> = None;
        'search: for bb in f.block_ids() {
            for &iv in &f.block(bb).insts {
                let Some(inst) = f.inst(iv) else { continue };
                let ty = f.value(iv).ty.clone();
                let val = match inst {
                    Inst::Bin { op, lhs, rhs } => match (const_of(f, *lhs), const_of(f, *rhs)) {
                        (Some(a), Some(b)) => eval_bin(*op, a, b).map(|v| ty.wrap(v)),
                        _ => None,
                    },
                    Inst::Icmp { pred, lhs, rhs } => match (const_of(f, *lhs), const_of(f, *rhs)) {
                        (Some(a), Some(b)) => Some(i64::from(pred.eval(a, b))),
                        _ => None,
                    },
                    Inst::Cast { kind, value, to } => const_of(f, *value).map(|v| match kind {
                        CastKind::Sext | CastKind::Trunc => to.wrap(v),
                        _ => v,
                    }),
                    Inst::Select {
                        cond,
                        on_true,
                        on_false,
                    } => match (
                        const_of(f, *cond),
                        const_of(f, *on_true),
                        const_of(f, *on_false),
                    ) {
                        (Some(c), Some(t), Some(e)) => Some(if c != 0 { t } else { e }),
                        _ => None,
                    },
                    _ => None,
                };
                if let Some(v) = val {
                    change = Some((iv, v, ty));
                    break 'search;
                }
            }
        }
        let Some((iv, v, ty)) = change else { break };
        let k = f.add_value(ValueData {
            kind: ValueKind::ConstInt(v),
            ty,
            name: None,
        });
        // Rewrite every use, then unlink the instruction.
        for u in f.value_ids().collect::<Vec<_>>() {
            if let Some(inst) = f.inst_mut(u) {
                inst.map_operands(|op| if op == iv { k } else { op });
            }
        }
        for bb in f.block_ids().collect::<Vec<_>>() {
            f.block_mut(bb).insts.retain(|x| *x != iv);
        }
        folded += 1;
    }
    folded
}

/// Remove side-effect-free instructions whose results are never used.
/// Returns the number removed.
pub fn dce(f: &mut Function) -> usize {
    let mut removed = 0;
    loop {
        let mut used: HashSet<ValueId> = HashSet::new();
        for bb in f.block_ids() {
            for &iv in &f.block(bb).insts {
                if let Some(inst) = f.inst(iv) {
                    used.extend(inst.operands());
                }
            }
        }
        let mut dead: Vec<ValueId> = Vec::new();
        for bb in f.block_ids() {
            for &iv in &f.block(bb).insts {
                let Some(inst) = f.inst(iv) else { continue };
                let pure = matches!(
                    inst,
                    Inst::Bin { .. }
                        | Inst::Icmp { .. }
                        | Inst::Cast { .. }
                        | Inst::Select { .. }
                        | Inst::Gep { .. }
                        | Inst::FieldAddr { .. }
                        | Inst::Phi { .. }
                        | Inst::Load { .. }
                        | Inst::Alloca { .. }
                        | Inst::PacStrip { .. }
                        | Inst::PacSign { .. }
                );
                if pure && !used.contains(&iv) {
                    dead.push(iv);
                }
            }
        }
        if dead.is_empty() {
            break;
        }
        let dead_set: HashSet<ValueId> = dead.iter().copied().collect();
        for bb in f.block_ids().collect::<Vec<_>>() {
            f.block_mut(bb).insts.retain(|x| !dead_set.contains(x));
        }
        removed += dead.len();
    }
    removed
}

/// Fold constant conditional branches into jumps and neutralize blocks
/// that become unreachable (their bodies are replaced by a single
/// `unreachable` so block ids stay stable). Returns
/// `(branches_folded, blocks_neutralized)`.
pub fn simplify_cfg(f: &mut Function) -> (usize, usize) {
    let mut branches_folded = 0;

    // 1. Constant branches.
    loop {
        let mut change: Option<(BlockId, ValueId, BlockId, BlockId, bool)> = None;
        for bb in f.block_ids() {
            if let Some(&last) = f.block(bb).insts.last() {
                if let Some(Inst::Br {
                    cond,
                    then_bb,
                    else_bb,
                }) = f.inst(last)
                {
                    if let Some(c) = const_of(f, *cond) {
                        change = Some((bb, last, *then_bb, *else_bb, c != 0));
                        break;
                    }
                }
            }
        }
        let Some((bb, last, then_bb, else_bb, taken)) = change else {
            break;
        };
        let (target, dropped) = if taken {
            (then_bb, else_bb)
        } else {
            (else_bb, then_bb)
        };
        *f.inst_mut(last).expect("terminator") = Inst::Jmp { target };
        // The dropped edge disappears: clean the dropped target's phis.
        if dropped != target {
            for &iv in &f.block(dropped).insts.clone() {
                if let Some(Inst::Phi { incomings }) = f.inst_mut(iv) {
                    incomings.retain(|(p, _)| *p != bb);
                }
            }
        }
        branches_folded += 1;
    }

    // 2. Unreachable blocks.
    let mut reachable = vec![false; f.num_blocks()];
    let mut stack = vec![f.entry()];
    reachable[f.entry().0 as usize] = true;
    while let Some(bb) = stack.pop() {
        for s in f.successors(bb) {
            if !reachable[s.0 as usize] {
                reachable[s.0 as usize] = true;
                stack.push(s);
            }
        }
    }
    let mut neutralized = 0;
    for bb in f.block_ids().collect::<Vec<_>>() {
        if reachable[bb.0 as usize] {
            continue;
        }
        let already = f.block(bb).insts.len() == 1
            && matches!(f.inst(f.block(bb).insts[0]), Some(Inst::Unreachable));
        if already {
            continue;
        }
        let u = f.add_value(ValueData {
            kind: ValueKind::Inst(Inst::Unreachable),
            ty: Ty::Void,
            name: None,
        });
        f.block_mut(bb).insts = vec![u];
        neutralized += 1;
        // Phis in reachable blocks must drop edges from this dead block.
        for other in f.block_ids().collect::<Vec<_>>() {
            for &iv in &f.block(other).insts.clone() {
                if let Some(Inst::Phi { incomings }) = f.inst_mut(iv) {
                    incomings.retain(|(p, _)| *p != bb);
                }
            }
        }
    }
    (branches_folded, neutralized)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pythia_ir::{verify, CmpPred, FunctionBuilder};

    #[test]
    fn folds_arithmetic_chains() {
        let mut m = Module::new("m");
        let mut b = FunctionBuilder::new("f", vec![], Ty::I64);
        let two = b.const_i64(2);
        let three = b.const_i64(3);
        let s = b.add(two, three); // 5
        let p = b.mul(s, two); // 10
        b.ret(Some(p));
        m.add_function(b.finish());
        let stats = optimize_module(&mut m);
        assert_eq!(stats.folded, 2);
        let f = &m.functions()[0];
        assert_eq!(f.num_insts(), 1, "only the ret remains");
        verify::verify_module(&m).unwrap();
    }

    #[test]
    fn never_folds_division_by_zero() {
        let mut m = Module::new("m");
        let mut b = FunctionBuilder::new("f", vec![], Ty::I64);
        let one = b.const_i64(1);
        let zero = b.const_i64(0);
        let d = b.bin(BinOp::Sdiv, one, zero);
        b.ret(Some(d));
        m.add_function(b.finish());
        let stats = optimize_module(&mut m);
        assert_eq!(stats.folded, 0, "the trap must be preserved");
    }

    #[test]
    fn dce_removes_unused_pure_work_keeps_effects() {
        let mut m = Module::new("m");
        let mut b = FunctionBuilder::new("f", vec![Ty::I64], Ty::I64);
        let x = b.func().arg(0);
        let one = b.const_i64(1);
        let _dead = b.add(x, one); // unused
        let slot = b.alloca(Ty::I64);
        b.store(x, slot); // effect: must stay (with its alloca)
        b.ret(Some(x));
        m.add_function(b.finish());
        let before = m.functions()[0].num_insts();
        let stats = optimize_module(&mut m);
        assert_eq!(stats.dce_removed, 1);
        assert_eq!(m.functions()[0].num_insts(), before - 1);
        verify::verify_module(&m).unwrap();
    }

    #[test]
    fn constant_branch_becomes_jump_and_dead_block_neutralized() {
        let mut m = Module::new("m");
        let mut b = FunctionBuilder::new("f", vec![], Ty::I64);
        let t = b.new_block("t");
        let e = b.new_block("e");
        let one = b.const_i64(1);
        let two = b.const_i64(2);
        let c = b.icmp(CmpPred::Sgt, two, one); // true
        b.br(c, t, e);
        b.switch_to(t);
        b.ret(Some(one));
        b.switch_to(e);
        b.ret(Some(two));
        m.add_function(b.finish());
        let stats = optimize_module(&mut m);
        assert_eq!(stats.branches_folded, 1);
        assert_eq!(stats.blocks_neutralized, 1);
        let f = &m.functions()[0];
        assert!(matches!(
            f.terminator(f.entry()),
            Some(Inst::Jmp { target }) if *target == t
        ));
        assert!(matches!(f.terminator(e), Some(Inst::Unreachable)));
        verify::verify_module(&m).unwrap();
    }

    #[test]
    fn phi_edges_cleaned_when_branch_folds() {
        let mut m = Module::new("m");
        let mut b = FunctionBuilder::new("f", vec![Ty::I64], Ty::I64);
        let t = b.new_block("t");
        let e = b.new_block("e");
        let j = b.new_block("j");
        let one = b.const_i64(1);
        let zero = b.const_i64(0);
        let c = b.icmp(CmpPred::Sgt, one, zero); // constant true
        b.br(c, t, e);
        b.switch_to(t);
        b.jmp(j);
        b.switch_to(e);
        b.jmp(j);
        b.switch_to(j);
        let x = b.func().arg(0);
        let ph = b.phi(vec![(t, x), (e, zero)]);
        b.ret(Some(ph));
        m.add_function(b.finish());

        optimize_module(&mut m);
        let f = &m.functions()[0];
        // j's phi must have dropped the edge from the neutralized e.
        if let Some(Inst::Phi { incomings }) = f.inst(f.block(j).insts[0]) {
            assert_eq!(incomings.len(), 1);
            assert_eq!(incomings[0].0, t);
        } else {
            panic!("phi expected");
        }
        verify::verify_module(&m).unwrap();
    }

    #[test]
    fn optimization_preserves_benchmark_semantics() {
        use pythia_vm::{ExitReason, InputPlan, Vm, VmConfig};
        let m0 = pythia_workloads_lite();
        let mut m1 = m0.clone();
        let stats = optimize_module(&mut m1);
        assert!(stats.total() > 0, "the test program must have slack");
        let run = |m: &Module| -> ExitReason {
            let mut vm = Vm::new(m, VmConfig::default(), InputPlan::benign(1));
            vm.run("main", &[]).unwrap().exit
        };
        assert_eq!(run(&m0), run(&m1));
        verify::verify_module(&m1).unwrap();
    }

    #[test]
    fn pruning_drops_unreachable_obligations_and_keeps_detection() {
        use crate::{instrument_with, Scheme};
        use pythia_analysis::{SliceContext, VulnerabilityReport};
        use pythia_ir::{FunctionBuilder, Intrinsic};
        use pythia_vm::{AttackSpec, DetectionMechanism, ExitReason, InputPlan, Vm, VmConfig};

        // `secret` sits *below* every channel-written buffer, so no
        // overflow can reach it — its branch obligation is prunable.
        let mut m = Module::new("m");
        let mut b = FunctionBuilder::new("main", vec![], Ty::I64);
        let secret = b.alloca(Ty::I64);
        let input = b.alloca(Ty::array(Ty::I8, 8));
        let user = b.alloca(Ty::I64);
        let fmt = b.alloca(Ty::array(Ty::I8, 4));
        let seven = b.const_i64(7);
        b.store(seven, secret);
        b.call_intrinsic(Intrinsic::Scanf, vec![fmt, user], Ty::I64);
        b.call_intrinsic(Intrinsic::Gets, vec![input], Ty::ptr(Ty::I8));
        let sv = b.load(secret);
        let uv = b.load(user);
        let thresh = b.const_i64(1000);
        let c1 = b.icmp(CmpPred::Sgt, uv, thresh);
        let (t, e) = (b.new_block("t"), b.new_block("e"));
        b.br(c1, t, e);
        b.switch_to(t);
        let one = b.const_i64(1);
        b.ret(Some(one));
        b.switch_to(e);
        // Branch on the (unreachable) secret too, so it lands in the
        // conservative CPA set.
        let (t2, e2) = (b.new_block("t2"), b.new_block("e2"));
        let c2 = b.icmp(CmpPred::Sgt, sv, thresh);
        b.br(c2, t2, e2);
        b.switch_to(t2);
        b.ret(Some(seven));
        b.switch_to(e2);
        let zero = b.const_i64(0);
        b.ret(Some(zero));
        m.add_function(b.finish());

        let ctx = SliceContext::new(&m);
        let report = VulnerabilityReport::analyze(&ctx);
        let pruned = prune_obligations(&ctx, &report);
        assert!(!pruned.pruned.reach_top);
        assert!(
            pruned.pruned.cpa_slots >= 1,
            "the secret's slot obligation must be pruned: {:?}",
            pruned.pruned
        );
        assert!(pruned.cpa_slot_objects.len() < report.cpa_slot_objects.len());

        let unpruned_inst = instrument_with(&m, &ctx, &report, Scheme::Cpa);
        let inst = instrument_with(&m, &ctx, &pruned, Scheme::Cpa);
        assert!(
            inst.stats.pa_total() < unpruned_inst.stats.pa_total(),
            "pruning must shrink the static PA count ({} vs {})",
            inst.stats.pa_total(),
            unpruned_inst.stats.pa_total()
        );
        assert_eq!(inst.stats.obligations_pruned, pruned.pruned.total());

        // Benign and attacked behaviour must match the unpruned build.
        let run = |module: &Module, plan: InputPlan| {
            let mut vm = Vm::new(module, VmConfig::default(), plan);
            vm.run("main", &[]).unwrap()
        };
        let benign = run(&inst.module, InputPlan::benign(7));
        assert_eq!(benign.exit, ExitReason::Returned(0));
        // IC #1 is the gets; overflow `input` into `user`.
        let attack = InputPlan::with_attack(7, AttackSpec::aimed(1, 24, 0x7fff_ffff));
        let attacked = run(&inst.module, attack);
        assert_eq!(
            attacked.detected(),
            Some(DetectionMechanism::DataPac),
            "pruned CPA must still catch the overflow"
        );
    }

    /// A small program with foldable slack: (x*1 + (2+3)) summed in a loop
    /// with a constant-false early branch.
    fn pythia_workloads_lite() -> Module {
        let mut m = Module::new("lite");
        let mut b = FunctionBuilder::new("main", vec![], Ty::I64);
        let dead = b.new_block("dead");
        let live = b.new_block("live");
        let slot = b.alloca(Ty::I64);
        let zero = b.const_i64(0);
        let one = b.const_i64(1);
        let c = b.icmp(CmpPred::Sgt, zero, one); // false
        b.br(c, dead, live);
        b.switch_to(dead);
        let neg = b.const_i64(-1);
        b.ret(Some(neg));
        b.switch_to(live);
        let two = b.const_i64(2);
        let three = b.const_i64(3);
        let five = b.add(two, three);
        b.store(five, slot);
        let v = b.load(slot);
        let r = b.add(v, one);
        b.ret(Some(r));
        m.add_function(b.finish());
        m
    }
}
