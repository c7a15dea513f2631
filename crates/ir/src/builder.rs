//! Ergonomic construction of PIR functions.
//!
//! # Examples
//!
//! ```
//! use pythia_ir::{FunctionBuilder, Ty, CmpPred};
//!
//! let mut b = FunctionBuilder::new("max0", vec![Ty::I64], Ty::I64);
//! let pos = b.new_block("pos");
//! let neg = b.new_block("neg");
//! let x = b.func().arg(0);
//! let zero = b.const_int(Ty::I64, 0);
//! let c = b.icmp(CmpPred::Sgt, x, zero);
//! b.br(c, pos, neg);
//! b.switch_to(pos);
//! b.ret(Some(x));
//! b.switch_to(neg);
//! b.ret(Some(zero));
//! let f = b.finish();
//! assert_eq!(f.num_blocks(), 3);
//! ```

use crate::function::{Function, ValueData, ValueKind};
use crate::instr::{
    BinOp, BlockId, Callee, CastKind, CmpPred, FuncId, GlobalId, Inst, PaKey, ValueId,
};
use crate::intrinsics::Intrinsic;
use crate::types::Ty;
use std::collections::HashMap;

/// Incremental builder for a [`Function`].
///
/// The builder tracks a *current block*; instruction-emitting methods append
/// to it. Blocks must each be finished with a terminator before [`finish`]
/// (the [verifier](crate::verify) checks this).
///
/// [`finish`]: FunctionBuilder::finish
#[derive(Debug)]
pub struct FunctionBuilder {
    func: Function,
    cur: BlockId,
    const_cache: HashMap<(Ty, i64), ValueId>,
    null_cache: HashMap<Ty, ValueId>,
}

impl FunctionBuilder {
    /// Start building a function; the current block is `entry`.
    pub fn new(name: impl Into<String>, params: Vec<Ty>, ret: Ty) -> Self {
        let func = Function::new(name, params, ret);
        FunctionBuilder {
            cur: func.entry(),
            func,
            const_cache: HashMap::new(),
            null_cache: HashMap::new(),
        }
    }

    /// The function under construction.
    pub fn func(&self) -> &Function {
        &self.func
    }

    /// Mutable access to the function under construction.
    pub fn func_mut(&mut self) -> &mut Function {
        &mut self.func
    }

    /// Finish and return the function.
    pub fn finish(self) -> Function {
        self.func
    }

    /// Create a new (empty) block without switching to it.
    pub fn new_block(&mut self, name: impl Into<String>) -> BlockId {
        self.func.add_block(name)
    }

    /// Make `bb` the current block.
    pub fn switch_to(&mut self, bb: BlockId) {
        self.cur = bb;
    }

    /// The current block.
    pub fn current_block(&self) -> BlockId {
        self.cur
    }

    /// Attach a debug name to a value.
    pub fn set_name(&mut self, v: ValueId, name: impl Into<String>) {
        self.func.value_mut(v).name = Some(name.into());
    }

    // ---- constants ----------------------------------------------------

    /// Integer constant of the given type (interned).
    pub fn const_int(&mut self, ty: Ty, v: i64) -> ValueId {
        if let Some(&id) = self.const_cache.get(&(ty.clone(), v)) {
            return id;
        }
        let id = self.func.add_value(ValueData {
            kind: ValueKind::ConstInt(v),
            ty: ty.clone(),
            name: None,
        });
        self.const_cache.insert((ty, v), id);
        id
    }

    /// `i64` constant.
    pub fn const_i64(&mut self, v: i64) -> ValueId {
        self.const_int(Ty::I64, v)
    }

    /// Null pointer of type `ty` (must be a pointer type; interned).
    pub fn const_null(&mut self, ty: Ty) -> ValueId {
        debug_assert!(ty.is_ptr(), "const_null requires a pointer type");
        if let Some(&id) = self.null_cache.get(&ty) {
            return id;
        }
        let id = self.func.add_value(ValueData {
            kind: ValueKind::ConstNull,
            ty: ty.clone(),
            name: None,
        });
        self.null_cache.insert(ty, id);
        id
    }

    /// Address of a module global (typed as pointer to `gty`).
    pub fn global_addr(&mut self, g: GlobalId, gty: Ty) -> ValueId {
        self.func.add_value(ValueData {
            kind: ValueKind::GlobalAddr(g),
            ty: Ty::ptr(gty),
            name: None,
        })
    }

    /// Address of a module function, usable for indirect calls.
    pub fn func_addr(&mut self, f: FuncId) -> ValueId {
        self.func.add_value(ValueData {
            kind: ValueKind::FuncAddr(f),
            ty: Ty::ptr(Ty::I8),
            name: None,
        })
    }

    // ---- instruction emission -----------------------------------------

    fn emit(&mut self, inst: Inst, ty: Ty) -> ValueId {
        let id = self.func.add_value(ValueData {
            kind: ValueKind::Inst(inst),
            ty,
            name: None,
        });
        let cur = self.cur;
        self.func.block_mut(cur).insts.push(id);
        id
    }

    /// `alloca` of a single element of `elem`.
    pub fn alloca(&mut self, elem: Ty) -> ValueId {
        self.alloca_n(elem, 1)
    }

    /// `alloca` of `count` elements of `elem`; yields `elem*`.
    pub fn alloca_n(&mut self, elem: Ty, count: u32) -> ValueId {
        let ty = Ty::ptr(elem.clone());
        self.emit(Inst::Alloca { elem, count }, ty)
    }

    /// Load through `ptr` (which must be a pointer to a scalar).
    pub fn load(&mut self, ptr: ValueId) -> ValueId {
        let ty = self
            .func
            .value(ptr)
            .ty
            .pointee()
            .cloned()
            .unwrap_or(Ty::I64);
        self.emit(Inst::Load { ptr }, ty)
    }

    /// Store `value` through `ptr`.
    pub fn store(&mut self, value: ValueId, ptr: ValueId) -> ValueId {
        self.emit(Inst::Store { ptr, value }, Ty::Void)
    }

    /// Pointer arithmetic: `base + index * size(elem)`.
    ///
    /// If `base` has type `T*` where `T` is an array `[n x E]`, the result is
    /// typed `E*`; otherwise it keeps the base pointer type.
    pub fn gep(&mut self, base: ValueId, index: ValueId) -> ValueId {
        let base_ty = self.func.value(base).ty.clone();
        let (elem, ty) = match base_ty.pointee() {
            Some(Ty::Array(e, _)) => ((**e).clone(), Ty::ptr((**e).clone())),
            Some(p) => (p.clone(), base_ty.clone()),
            None => (Ty::I8, Ty::ptr(Ty::I8)),
        };
        self.emit(Inst::Gep { base, index, elem }, ty)
    }

    /// Address of struct field `field` of `*base`.
    pub fn field_addr(&mut self, base: ValueId, field: u32) -> ValueId {
        let base_ty = self.func.value(base).ty.clone();
        let fty = match base_ty.pointee() {
            Some(s @ Ty::Struct(_)) => s.field_ty(field).clone(),
            _ => Ty::I64,
        };
        self.emit(Inst::FieldAddr { base, field }, Ty::ptr(fty))
    }

    /// Binary operation; result type follows the left operand.
    pub fn bin(&mut self, op: BinOp, lhs: ValueId, rhs: ValueId) -> ValueId {
        let ty = self.func.value(lhs).ty.clone();
        self.emit(Inst::Bin { op, lhs, rhs }, ty)
    }

    /// `add` shorthand.
    pub fn add(&mut self, lhs: ValueId, rhs: ValueId) -> ValueId {
        self.bin(BinOp::Add, lhs, rhs)
    }

    /// `sub` shorthand.
    pub fn sub(&mut self, lhs: ValueId, rhs: ValueId) -> ValueId {
        self.bin(BinOp::Sub, lhs, rhs)
    }

    /// `mul` shorthand.
    pub fn mul(&mut self, lhs: ValueId, rhs: ValueId) -> ValueId {
        self.bin(BinOp::Mul, lhs, rhs)
    }

    /// Integer comparison.
    pub fn icmp(&mut self, pred: CmpPred, lhs: ValueId, rhs: ValueId) -> ValueId {
        self.emit(Inst::Icmp { pred, lhs, rhs }, Ty::I1)
    }

    /// Cast `value` to `to`.
    pub fn cast(&mut self, kind: CastKind, value: ValueId, to: Ty) -> ValueId {
        self.emit(
            Inst::Cast {
                kind,
                value,
                to: to.clone(),
            },
            to,
        )
    }

    /// Ternary select; result type follows `on_true`.
    pub fn select(&mut self, cond: ValueId, on_true: ValueId, on_false: ValueId) -> ValueId {
        let ty = self.func.value(on_true).ty.clone();
        self.emit(
            Inst::Select {
                cond,
                on_true,
                on_false,
            },
            ty,
        )
    }

    /// Phi node; result type follows the first incoming value.
    ///
    /// # Panics
    ///
    /// Panics if `incomings` is empty.
    pub fn phi(&mut self, incomings: Vec<(BlockId, ValueId)>) -> ValueId {
        assert!(!incomings.is_empty(), "phi needs at least one incoming");
        let ty = self.func.value(incomings[0].1).ty.clone();
        self.emit(Inst::Phi { incomings }, ty)
    }

    /// Call a module function.
    pub fn call(&mut self, callee: FuncId, args: Vec<ValueId>, ret: Ty) -> ValueId {
        self.emit(
            Inst::Call {
                callee: Callee::Func(callee),
                args,
            },
            ret,
        )
    }

    /// Call a modelled library function.
    pub fn call_intrinsic(&mut self, i: Intrinsic, args: Vec<ValueId>, ret: Ty) -> ValueId {
        self.emit(
            Inst::Call {
                callee: Callee::Intrinsic(i),
                args,
            },
            ret,
        )
    }

    /// Indirect call through a function-pointer value.
    pub fn call_indirect(&mut self, target: ValueId, args: Vec<ValueId>, ret: Ty) -> ValueId {
        self.emit(
            Inst::Call {
                callee: Callee::Indirect(target),
                args,
            },
            ret,
        )
    }

    /// PA sign (result type follows the signed value).
    pub fn pac_sign(&mut self, value: ValueId, key: PaKey, modifier: ValueId) -> ValueId {
        let ty = self.func.value(value).ty.clone();
        self.emit(
            Inst::PacSign {
                value,
                key,
                modifier,
            },
            ty,
        )
    }

    /// PA authenticate-and-strip (traps in the VM on mismatch).
    pub fn pac_auth(&mut self, value: ValueId, key: PaKey, modifier: ValueId) -> ValueId {
        let ty = self.func.value(value).ty.clone();
        self.emit(
            Inst::PacAuth {
                value,
                key,
                modifier,
            },
            ty,
        )
    }

    /// PA strip without authentication.
    pub fn pac_strip(&mut self, value: ValueId) -> ValueId {
        let ty = self.func.value(value).ty.clone();
        self.emit(Inst::PacStrip { value }, ty)
    }

    /// DFI: record a definition id for `*ptr`.
    pub fn set_def(&mut self, ptr: ValueId, def_id: u32) -> ValueId {
        self.emit(Inst::SetDef { ptr, def_id }, Ty::Void)
    }

    /// DFI: check the last writer of `*ptr` against `allowed`.
    pub fn chk_def(&mut self, ptr: ValueId, allowed: Vec<u32>) -> ValueId {
        self.emit(Inst::ChkDef { ptr, allowed }, Ty::Void)
    }

    /// Conditional branch.
    pub fn br(&mut self, cond: ValueId, then_bb: BlockId, else_bb: BlockId) -> ValueId {
        self.emit(
            Inst::Br {
                cond,
                then_bb,
                else_bb,
            },
            Ty::Void,
        )
    }

    /// Unconditional branch.
    pub fn jmp(&mut self, target: BlockId) -> ValueId {
        self.emit(Inst::Jmp { target }, Ty::Void)
    }

    /// Return.
    pub fn ret(&mut self, value: Option<ValueId>) -> ValueId {
        self.emit(Inst::Ret { value }, Ty::Void)
    }

    /// Unreachable terminator.
    pub fn unreachable(&mut self) -> ValueId {
        self.emit(Inst::Unreachable, Ty::Void)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants_are_interned() {
        let mut b = FunctionBuilder::new("f", vec![], Ty::Void);
        let a = b.const_i64(42);
        let c = b.const_i64(42);
        let d = b.const_i64(43);
        assert_eq!(a, c);
        assert_ne!(a, d);
        let n1 = b.const_null(Ty::ptr(Ty::I8));
        let n2 = b.const_null(Ty::ptr(Ty::I8));
        assert_eq!(n1, n2);
    }

    #[test]
    fn load_infers_pointee_type() {
        let mut b = FunctionBuilder::new("f", vec![], Ty::Void);
        let p = b.alloca(Ty::I32);
        let v = b.load(p);
        assert_eq!(b.func().value(v).ty, Ty::I32);
        assert_eq!(b.func().value(p).ty, Ty::ptr(Ty::I32));
        b.ret(None);
    }

    #[test]
    fn gep_on_array_decays_to_element_pointer() {
        let mut b = FunctionBuilder::new("f", vec![], Ty::Void);
        let buf = b.alloca(Ty::array(Ty::I8, 16));
        let i = b.const_i64(3);
        let p = b.gep(buf, i);
        assert_eq!(b.func().value(p).ty, Ty::ptr(Ty::I8));
        match b.func().inst(p).unwrap() {
            Inst::Gep { elem, .. } => assert_eq!(*elem, Ty::I8),
            other => panic!("expected gep, got {other:?}"),
        }
        b.ret(None);
    }

    #[test]
    fn field_addr_types() {
        let mut b = FunctionBuilder::new("f", vec![], Ty::Void);
        let s = b.alloca(Ty::strukt(vec![Ty::I32, Ty::I64]));
        let f1 = b.field_addr(s, 1);
        assert_eq!(b.func().value(f1).ty, Ty::ptr(Ty::I64));
        b.ret(None);
    }

    #[test]
    fn blocks_accumulate_instructions_in_order() {
        let mut b = FunctionBuilder::new("f", vec![Ty::I64], Ty::I64);
        let x = b.func().arg(0);
        let one = b.const_i64(1);
        let y = b.add(x, one);
        b.ret(Some(y));
        let f = b.finish();
        let entry_insts = &f.block(f.entry()).insts;
        assert_eq!(entry_insts.len(), 2);
        assert!(matches!(f.inst(entry_insts[0]), Some(Inst::Bin { .. })));
        assert!(matches!(f.inst(entry_insts[1]), Some(Inst::Ret { .. })));
    }

    #[test]
    fn intrinsic_call_shape() {
        let mut b = FunctionBuilder::new("f", vec![], Ty::Void);
        let dst = b.alloca(Ty::array(Ty::I8, 8));
        let src = b.alloca(Ty::array(Ty::I8, 8));
        let c = b.call_intrinsic(Intrinsic::Strcpy, vec![dst, src], Ty::ptr(Ty::I8));
        match b.func().inst(c).unwrap() {
            Inst::Call {
                callee: Callee::Intrinsic(Intrinsic::Strcpy),
                args,
            } => assert_eq!(args.len(), 2),
            other => panic!("unexpected {other:?}"),
        }
        b.ret(None);
    }
}
