//! Structural and type verification of PIR modules.
//!
//! The verifier enforces the invariants the analyses and the VM rely on:
//! terminated blocks, allocas confined to the entry block (so frame layout
//! is well defined and Pythia's re-layout pass is a permutation of the entry
//! block), in-range operands, and pragmatic type rules for memory ops.

use crate::function::{Function, ValueKind};
use crate::instr::{BlockId, Callee, Inst, ValueId};
use crate::module::Module;
use crate::types::Ty;
use std::collections::HashSet;
use std::fmt;

/// A single verification failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyError {
    /// Function where the problem lives.
    pub func: String,
    /// Block (if applicable).
    pub block: Option<BlockId>,
    /// The offending instruction value (if the problem is attributable to
    /// one) — the same granularity `ErrorContext::instruction` carries.
    pub instruction: Option<ValueId>,
    /// Description.
    pub message: String,
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.func)?;
        if let Some(bb) = self.block {
            write!(f, "/{bb}")?;
        }
        if let Some(iv) = self.instruction {
            write!(f, "/{iv}")?;
        }
        write!(f, ": {}", self.message)
    }
}

impl std::error::Error for VerifyError {}

/// Verify a whole module.
///
/// # Errors
///
/// Returns every problem found (not just the first).
pub fn verify_module(m: &Module) -> Result<(), Vec<VerifyError>> {
    let mut errs = Vec::new();
    for fid in m.func_ids() {
        verify_function(m, m.func(fid), &mut errs);
    }
    if errs.is_empty() {
        Ok(())
    } else {
        Err(errs)
    }
}

/// Verify one function, appending problems to `errs`.
pub fn verify_function(m: &Module, f: &Function, errs: &mut Vec<VerifyError>) {
    let mut err = |block: Option<BlockId>, instruction: Option<ValueId>, message: String| {
        errs.push(VerifyError {
            func: f.name.clone(),
            block,
            instruction,
            message,
        });
    };

    if f.blocks.is_empty() {
        err(None, None, "function has no blocks".into());
        return;
    }

    let num_values = f.num_values() as u32;
    let num_blocks = f.num_blocks() as u32;
    let in_range = |v: ValueId| v.0 < num_values;

    // Global structural pass over blocks.
    let mut seen: HashSet<ValueId> = (0..f.params.len() as u32).map(ValueId).collect();
    // Constants/globals/function addrs are always available.
    for v in f.value_ids() {
        match f.value(v).kind {
            ValueKind::ConstInt(_)
            | ValueKind::ConstNull
            | ValueKind::GlobalAddr(_)
            | ValueKind::FuncAddr(_) => {
                seen.insert(v);
            }
            _ => {}
        }
    }
    // All instruction results count as "defined somewhere" for the purposes
    // of cross-block uses; strict dominance is not checked (phis would need
    // it relaxed anyway). We do check use-before-def *within* a block for
    // non-phi instructions.
    let mut defined_anywhere = seen.clone();
    for bb in f.block_ids() {
        for &iv in &f.block(bb).insts {
            defined_anywhere.insert(iv);
        }
    }

    // Use-before-def within a block: an operand homed in the current
    // block must already have been defined in it (or be always
    // available). `defined_in[v]` is `bb + 1` once `v` was defined in
    // block `bb`, so no per-block set is rebuilt.
    let home = f.placement();
    let mut defined_in: Vec<u32> = vec![0; f.num_values()];
    for bb in f.block_ids() {
        let block = f.block(bb);
        if block.insts.is_empty() {
            err(Some(bb), None, "empty block".into());
            continue;
        }
        let stamp = bb.0 + 1;
        for (pos, &iv) in block.insts.iter().enumerate() {
            let data = f.value(iv);
            let inst = match &data.kind {
                ValueKind::Inst(i) => i,
                other => {
                    err(
                        Some(bb),
                        Some(iv),
                        format!("non-instruction value {iv} ({other:?}) in block"),
                    );
                    continue;
                }
            };
            let is_last = pos + 1 == block.insts.len();
            if inst.is_terminator() != is_last {
                err(
                    Some(bb),
                    Some(iv),
                    format!(
                        "{} at position {pos}: terminators must be exactly the last instruction",
                        inst.mnemonic()
                    ),
                );
            }
            if matches!(inst, Inst::Alloca { .. }) && bb != f.entry() {
                err(
                    Some(bb),
                    Some(iv),
                    format!("{iv}: alloca outside entry block"),
                );
            }
            if matches!(inst, Inst::Phi { .. }) && bb == f.entry() {
                err(Some(bb), Some(iv), format!("{iv}: phi in entry block"));
            }
            for op in inst.operands() {
                if !in_range(op) {
                    err(
                        Some(bb),
                        Some(iv),
                        format!("{iv}: operand {op} out of range"),
                    );
                    continue;
                }
                if matches!(inst, Inst::Phi { .. }) {
                    if !defined_anywhere.contains(&op) {
                        err(
                            Some(bb),
                            Some(iv),
                            format!("{iv}: phi uses undefined value {op}"),
                        );
                    }
                } else if !defined_anywhere.contains(&op) {
                    err(
                        Some(bb),
                        Some(iv),
                        format!("{iv}: use of undefined value {op}"),
                    );
                } else if home.block_of(op) == Some(bb)
                    && !seen.contains(&op)
                    && defined_in[op.0 as usize] != stamp
                {
                    err(
                        Some(bb),
                        Some(iv),
                        format!("{iv}: use of {op} before its definition in the same block"),
                    );
                }
            }
            for s in inst.successors() {
                if s.0 >= num_blocks {
                    err(
                        Some(bb),
                        Some(iv),
                        format!("{iv}: branch to missing block {s}"),
                    );
                }
            }
            check_types(m, f, iv, inst, &data.ty, bb, &mut err);
            defined_in[iv.0 as usize] = stamp;
        }
        if let Some(last) = block.insts.last() {
            if f.inst(*last).map(|i| !i.is_terminator()).unwrap_or(true) {
                err(Some(bb), None, "block does not end in a terminator".into());
            }
        }
    }

    // Phi incoming blocks must be exactly the predecessors.
    let preds = f.predecessors();
    for bb in f.block_ids() {
        for &iv in &f.block(bb).insts {
            if let Some(Inst::Phi { incomings }) = f.inst(iv) {
                let inc: HashSet<BlockId> = incomings.iter().map(|(b, _)| *b).collect();
                let pred: HashSet<BlockId> = preds[bb.0 as usize].iter().copied().collect();
                if inc != pred {
                    err(
                        Some(bb),
                        Some(iv),
                        format!(
                            "{iv}: phi incoming blocks {inc:?} do not match predecessors {pred:?}"
                        ),
                    );
                }
            }
        }
    }
}

/// Whether two types may legally occupy the same 8-byte memory slot (the
/// VM stores scalars in type-sized slots; 8-byte ints and pointers are
/// interchangeable because PA instrumentation signs integers *as* pointers).
fn slot_compatible(a: &Ty, b: &Ty) -> bool {
    if a == b {
        return true;
    }
    let eight = |t: &Ty| matches!(t, Ty::I64 | Ty::Ptr(_));
    eight(a) && eight(b)
}

fn check_types(
    m: &Module,
    f: &Function,
    iv: ValueId,
    inst: &Inst,
    result_ty: &Ty,
    bb: BlockId,
    err: &mut impl FnMut(Option<BlockId>, Option<ValueId>, String),
) {
    let vty = |v: ValueId| f.value(v).ty.clone();
    match inst {
        Inst::Load { ptr } => match vty(*ptr).pointee() {
            Some(p) if !slot_compatible(p, result_ty) => {
                err(
                    Some(bb),
                    Some(iv),
                    format!("{iv}: load result {result_ty} incompatible with pointee {p}"),
                );
            }
            Some(_) => {}
            None => err(
                Some(bb),
                Some(iv),
                format!("{iv}: load through non-pointer"),
            ),
        },
        Inst::Store { ptr, value } => match vty(*ptr).pointee() {
            Some(p) if !slot_compatible(p, &vty(*value)) => {
                err(
                    Some(bb),
                    Some(iv),
                    format!("{iv}: store of {} into slot of {p}", vty(*value)),
                );
            }
            Some(_) => {}
            None => err(
                Some(bb),
                Some(iv),
                format!("{iv}: store through non-pointer"),
            ),
        },
        Inst::Gep { base, index, .. } => {
            if !vty(*base).is_ptr() {
                err(
                    Some(bb),
                    Some(iv),
                    format!("{iv}: gep base is not a pointer"),
                );
            }
            if !vty(*index).is_int() {
                err(
                    Some(bb),
                    Some(iv),
                    format!("{iv}: gep index is not an integer"),
                );
            }
        }
        Inst::FieldAddr { base, field } => match vty(*base).pointee() {
            Some(Ty::Struct(fields)) => {
                if *field as usize >= fields.len() {
                    err(
                        Some(bb),
                        Some(iv),
                        format!("{iv}: field index out of range"),
                    );
                }
            }
            _ => err(
                Some(bb),
                Some(iv),
                format!("{iv}: fieldaddr base is not struct*"),
            ),
        },
        Inst::Bin { lhs, rhs, .. } => {
            let (l, r) = (vty(*lhs), vty(*rhs));
            // Pointer arithmetic through integers is allowed; both operands
            // must be scalars.
            if l.is_aggregate() || r.is_aggregate() {
                err(Some(bb), Some(iv), format!("{iv}: arithmetic on aggregate"));
            }
        }
        Inst::Icmp { lhs, rhs, .. } if vty(*lhs).is_aggregate() || vty(*rhs).is_aggregate() => {
            err(
                Some(bb),
                Some(iv),
                format!("{iv}: comparison of aggregates"),
            );
        }
        Inst::Br { cond, .. } if vty(*cond) != Ty::I1 => {
            err(
                Some(bb),
                Some(iv),
                format!("{iv}: branch condition is not i1"),
            );
        }
        Inst::Ret { value } => {
            match value {
                Some(v) => {
                    if !slot_compatible(&vty(*v), &f.ret) && vty(*v) != f.ret {
                        // allow narrower ints to be returned as-is
                        if !(vty(*v).is_int() && f.ret.is_int()) {
                            err(
                                Some(bb),
                                Some(iv),
                                format!(
                                    "{iv}: return of {} from function returning {}",
                                    vty(*v),
                                    f.ret
                                ),
                            );
                        }
                    }
                }
                None => {
                    if f.ret != Ty::Void {
                        err(Some(bb), Some(iv), format!("{iv}: missing return value"));
                    }
                }
            }
        }
        Inst::Call { callee, args } => match callee {
            Callee::Func(fid) => {
                if (fid.0 as usize) >= m.functions().len() {
                    err(
                        Some(bb),
                        Some(iv),
                        format!("{iv}: call to missing function"),
                    );
                } else {
                    let callee_f = m.func(*fid);
                    if callee_f.params.len() != args.len() {
                        err(
                            Some(bb),
                            Some(iv),
                            format!(
                                "{iv}: call to @{} with {} args, expected {}",
                                callee_f.name,
                                args.len(),
                                callee_f.params.len()
                            ),
                        );
                    }
                }
            }
            Callee::Intrinsic(i) => {
                // The VM defaults missing arguments to 0 and ignores
                // extras, which silently accepts malformed calls; the
                // verifier is where that gap closes.
                let sig = i.signature();
                if !sig.accepts_arity(args.len()) {
                    err(
                        Some(bb),
                        Some(iv),
                        format!(
                            "{iv}: call to intrinsic `{i}` with {} args, expected {}{}",
                            args.len(),
                            if sig.variadic { "at least " } else { "" },
                            sig.min_args
                        ),
                    );
                }
                for &pos in sig.ptr_args {
                    if let Some(&a) = args.get(pos) {
                        if !vty(a).is_ptr() {
                            err(
                                Some(bb),
                                Some(iv),
                                format!(
                                    "{iv}: intrinsic `{i}` argument {pos} must be a pointer, \
                                     got {}",
                                    vty(a)
                                ),
                            );
                        }
                    }
                }
            }
            Callee::Indirect(_) => {}
        },
        Inst::PacSign { value, .. } | Inst::PacAuth { value, .. } | Inst::PacStrip { value } => {
            let t = vty(*value);
            if !matches!(t, Ty::I64 | Ty::Ptr(_)) {
                err(
                    Some(bb),
                    Some(iv),
                    format!("{iv}: PA operation on non-64-bit value of type {t}"),
                );
            }
        }
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::instr::CmpPred;

    fn verify_ok(m: &Module) {
        if let Err(errs) = verify_module(m) {
            panic!("unexpected verify errors: {errs:?}");
        }
    }

    #[test]
    fn accepts_well_formed() {
        let mut m = Module::new("m");
        let mut b = FunctionBuilder::new("f", vec![Ty::I64], Ty::I64);
        let x = b.func().arg(0);
        let p = b.alloca(Ty::I64);
        b.store(x, p);
        let v = b.load(p);
        b.ret(Some(v));
        m.add_function(b.finish());
        verify_ok(&m);
    }

    #[test]
    fn rejects_missing_terminator() {
        let mut m = Module::new("m");
        let mut b = FunctionBuilder::new("f", vec![], Ty::Void);
        b.alloca(Ty::I64); // no terminator
        m.add_function(b.finish());
        let errs = verify_module(&m).unwrap_err();
        assert!(errs.iter().any(|e| e.message.contains("terminator")));
    }

    #[test]
    fn rejects_alloca_outside_entry() {
        let mut m = Module::new("m");
        let mut b = FunctionBuilder::new("f", vec![], Ty::Void);
        let bb = b.new_block("next");
        b.jmp(bb);
        b.switch_to(bb);
        b.alloca(Ty::I64);
        b.ret(None);
        m.add_function(b.finish());
        let errs = verify_module(&m).unwrap_err();
        assert!(errs
            .iter()
            .any(|e| e.message.contains("alloca outside entry")));
    }

    #[test]
    fn rejects_non_i1_branch_condition() {
        let mut m = Module::new("m");
        let mut b = FunctionBuilder::new("f", vec![Ty::I64], Ty::Void);
        let t = b.new_block("t");
        let e = b.new_block("e");
        let x = b.func().arg(0);
        b.br(x, t, e); // i64 condition!
        b.switch_to(t);
        b.ret(None);
        b.switch_to(e);
        b.ret(None);
        m.add_function(b.finish());
        let errs = verify_module(&m).unwrap_err();
        assert!(errs.iter().any(|e| e.message.contains("not i1")));
    }

    #[test]
    fn rejects_bad_phi_preds() {
        let mut m = Module::new("m");
        let mut b = FunctionBuilder::new("f", vec![Ty::I64], Ty::I64);
        let next = b.new_block("next");
        b.jmp(next);
        b.switch_to(next);
        let one = b.const_i64(1);
        // phi claims an incoming edge from `next` itself, which is not a pred
        let ph = b.phi(vec![(next, one)]);
        b.ret(Some(ph));
        m.add_function(b.finish());
        let errs = verify_module(&m).unwrap_err();
        assert!(errs.iter().any(|e| e.message.contains("phi incoming")));
    }

    #[test]
    fn rejects_call_arity_mismatch() {
        let mut m = Module::new("m");
        let mut callee = FunctionBuilder::new("callee", vec![Ty::I64, Ty::I64], Ty::Void);
        callee.ret(None);
        let callee_id = m.add_function(callee.finish());
        let mut b = FunctionBuilder::new("caller", vec![], Ty::Void);
        let one = b.const_i64(1);
        b.call(callee_id, vec![one], Ty::Void);
        b.ret(None);
        m.add_function(b.finish());
        let errs = verify_module(&m).unwrap_err();
        assert!(errs.iter().any(|e| e.message.contains("expected 2")));
    }

    #[test]
    fn rejects_gets_with_wrong_arity() {
        use crate::intrinsics::Intrinsic;
        let mut m = Module::new("m");
        let mut b = FunctionBuilder::new("f", vec![], Ty::Void);
        let buf = b.alloca(Ty::array(Ty::I8, 8));
        // gets() takes exactly one argument; a stray second one used to be
        // silently dropped by the VM.
        b.call_intrinsic(Intrinsic::Gets, vec![buf, buf], Ty::ptr(Ty::I8));
        b.ret(None);
        m.add_function(b.finish());
        let errs = verify_module(&m).unwrap_err();
        let e = errs
            .iter()
            .find(|e| e.message.contains("`gets`"))
            .expect("gets arity error");
        assert!(e.message.contains("with 2 args, expected 1"), "{e}");
        assert!(e.instruction.is_some(), "arity errors carry the call site");
    }

    #[test]
    fn rejects_gets_with_non_pointer_destination() {
        use crate::intrinsics::Intrinsic;
        let mut m = Module::new("m");
        let mut b = FunctionBuilder::new("f", vec![], Ty::Void);
        let n = b.const_i64(8);
        // The destination must be a pointer; the VM would treat 8 as an
        // address and scribble over low memory.
        b.call_intrinsic(Intrinsic::Gets, vec![n], Ty::ptr(Ty::I8));
        b.ret(None);
        m.add_function(b.finish());
        let errs = verify_module(&m).unwrap_err();
        assert!(
            errs.iter()
                .any(|e| e.message.contains("`gets`") && e.message.contains("must be a pointer")),
            "{errs:?}"
        );
    }

    #[test]
    fn rejects_memcpy_missing_length() {
        use crate::intrinsics::Intrinsic;
        let mut m = Module::new("m");
        let mut b = FunctionBuilder::new("f", vec![], Ty::Void);
        let dst = b.alloca(Ty::array(Ty::I8, 8));
        let src = b.alloca(Ty::array(Ty::I8, 8));
        b.call_intrinsic(Intrinsic::Memcpy, vec![dst, src], Ty::ptr(Ty::I8));
        b.ret(None);
        m.add_function(b.finish());
        let errs = verify_module(&m).unwrap_err();
        assert!(
            errs.iter()
                .any(|e| e.message.contains("`memcpy`") && e.message.contains("expected 3")),
            "{errs:?}"
        );
    }

    #[test]
    fn rejects_memcpy_with_integer_source() {
        use crate::intrinsics::Intrinsic;
        let mut m = Module::new("m");
        let mut b = FunctionBuilder::new("f", vec![], Ty::Void);
        let dst = b.alloca(Ty::array(Ty::I8, 8));
        let n = b.const_i64(8);
        b.call_intrinsic(Intrinsic::Memcpy, vec![dst, n, n], Ty::ptr(Ty::I8));
        b.ret(None);
        m.add_function(b.finish());
        let errs = verify_module(&m).unwrap_err();
        assert!(
            errs.iter().any(|e| e.message.contains("`memcpy`")
                && e.message.contains("argument 1 must be a pointer")),
            "{errs:?}"
        );
    }

    #[test]
    fn accepts_well_formed_intrinsic_calls() {
        use crate::intrinsics::Intrinsic;
        let mut m = Module::new("m");
        let mut b = FunctionBuilder::new("f", vec![], Ty::Void);
        let dst = b.alloca(Ty::array(Ty::I8, 8));
        let src = b.alloca(Ty::array(Ty::I8, 8));
        let n = b.const_i64(8);
        b.call_intrinsic(Intrinsic::Memcpy, vec![dst, src, n], Ty::ptr(Ty::I8));
        b.call_intrinsic(Intrinsic::Gets, vec![dst], Ty::ptr(Ty::I8));
        // variadic: printf with extra value args is fine
        b.call_intrinsic(Intrinsic::Printf, vec![src, n, n], Ty::I64);
        b.ret(None);
        m.add_function(b.finish());
        verify_ok(&m);
    }

    #[test]
    fn errors_carry_instruction_context() {
        let mut m = Module::new("m");
        let mut b = FunctionBuilder::new("f", vec![Ty::I64], Ty::Void);
        let t = b.new_block("t");
        let e = b.new_block("e");
        let x = b.func().arg(0);
        let bad = b.br(x, t, e); // i64 condition
        b.switch_to(t);
        b.ret(None);
        b.switch_to(e);
        b.ret(None);
        m.add_function(b.finish());
        let errs = verify_module(&m).unwrap_err();
        let err = errs.iter().find(|e| e.message.contains("not i1")).unwrap();
        assert_eq!(err.instruction, Some(bad));
        assert!(err.to_string().contains(&format!("{bad}")));
    }

    #[test]
    fn i64_and_ptr_slots_are_compatible() {
        // PA instrumentation stores signed i64s into pointer-typed slots.
        let mut m = Module::new("m");
        let mut b = FunctionBuilder::new("f", vec![], Ty::Void);
        let slot = b.alloca(Ty::ptr(Ty::I8));
        let v = b.const_i64(1234);
        b.store(v, slot);
        b.ret(None);
        m.add_function(b.finish());
        verify_ok(&m);
    }

    #[test]
    fn use_before_def_in_block_rejected() {
        use crate::function::{ValueData, ValueKind};
        let mut m = Module::new("m");
        let mut f = Function::new("f", vec![], Ty::Void);
        // Manually build: use of %1 (the load) before it is defined.
        let p = f.add_value(ValueData {
            kind: ValueKind::Inst(Inst::Alloca {
                elem: Ty::I64,
                count: 1,
            }),
            ty: Ty::ptr(Ty::I64),
            name: None,
        });
        let ld = f.add_value(ValueData {
            kind: ValueKind::Inst(Inst::Load { ptr: p }),
            ty: Ty::I64,
            name: None,
        });
        let st = f.add_value(ValueData {
            kind: ValueKind::Inst(Inst::Store { ptr: p, value: ld }),
            ty: Ty::Void,
            name: None,
        });
        let r = f.add_value(ValueData {
            kind: ValueKind::Inst(Inst::Ret { value: None }),
            ty: Ty::Void,
            name: None,
        });
        let entry = f.entry();
        f.block_mut(entry).insts = vec![p, st, ld, r]; // store uses ld early
        m.add_function(f);
        let errs = verify_module(&m).unwrap_err();
        assert!(errs
            .iter()
            .any(|e| e.message.contains("before its definition")));
    }

    #[test]
    fn comparison_example_with_branches_verifies() {
        let mut m = Module::new("m");
        let mut b = FunctionBuilder::new("f", vec![Ty::I64], Ty::I64);
        let t = b.new_block("t");
        let e = b.new_block("e");
        let j = b.new_block("join");
        let x = b.func().arg(0);
        let zero = b.const_i64(0);
        let c = b.icmp(CmpPred::Sge, x, zero);
        b.br(c, t, e);
        b.switch_to(t);
        b.jmp(j);
        b.switch_to(e);
        b.jmp(j);
        b.switch_to(j);
        let one = b.const_i64(1);
        let ph = b.phi(vec![(t, x), (e, one)]);
        b.ret(Some(ph));
        m.add_function(b.finish());
        verify_ok(&m);
    }
}
