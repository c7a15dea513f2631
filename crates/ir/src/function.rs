//! Functions, basic blocks and the per-function value table.

use crate::instr::{BlockId, FuncId, GlobalId, Inst, ValueId};
use crate::types::Ty;

/// What a [`ValueId`] refers to.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum ValueKind {
    /// The `index`-th function parameter.
    Arg(u32),
    /// An integer constant (type recorded in [`ValueData::ty`]).
    ConstInt(i64),
    /// The null pointer constant.
    ConstNull,
    /// Address of a module global.
    GlobalAddr(GlobalId),
    /// Address of a module function (for indirect calls).
    FuncAddr(FuncId),
    /// An instruction; its result (if the type is non-void) is the value.
    Inst(Inst),
}

/// Value metadata: kind, result type and an optional human-readable name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ValueData {
    /// What the value is.
    pub kind: ValueKind,
    /// Result type ([`Ty::Void`] for value-less instructions).
    pub ty: Ty,
    /// Optional debug name.
    pub name: Option<String>,
}

/// A basic block: a label plus an ordered list of instruction values, the
/// last of which must be a terminator.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Block {
    /// Label (informational).
    pub name: String,
    /// Instruction values, in execution order; last must be a terminator.
    pub insts: Vec<ValueId>,
}

/// A PIR function.
///
/// Values (arguments, constants, instructions) live in a single arena
/// accessed through [`Function::value`]; blocks hold ordered `ValueId`
/// lists.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Function {
    /// Function name.
    pub name: String,
    /// Parameter types; parameters are values `0..params.len()`.
    pub params: Vec<Ty>,
    /// Return type.
    pub ret: Ty,
    values: Vec<ValueData>,
    /// Basic blocks; block 0 is the entry.
    pub blocks: Vec<Block>,
}

impl Function {
    /// Create an empty function with one (entry) block named `entry`.
    pub fn new(name: impl Into<String>, params: Vec<Ty>, ret: Ty) -> Self {
        let mut f = Function {
            name: name.into(),
            params: Vec::new(),
            ret,
            values: Vec::new(),
            blocks: vec![Block {
                name: "entry".to_owned(),
                insts: Vec::new(),
            }],
        };
        for (i, p) in params.iter().enumerate() {
            f.values.push(ValueData {
                kind: ValueKind::Arg(i as u32),
                ty: p.clone(),
                name: None,
            });
        }
        f.params = params;
        f
    }

    /// The entry block (always block 0).
    pub fn entry(&self) -> BlockId {
        BlockId(0)
    }

    /// `ValueId` of the `index`-th parameter.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn arg(&self, index: usize) -> ValueId {
        assert!(index < self.params.len(), "argument index out of range");
        ValueId(index as u32)
    }

    /// Number of values in the arena.
    pub fn num_values(&self) -> usize {
        self.values.len()
    }

    /// Number of basic blocks.
    pub fn num_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Append a raw value and return its id.
    pub fn add_value(&mut self, data: ValueData) -> ValueId {
        let id = ValueId(self.values.len() as u32);
        self.values.push(data);
        id
    }

    /// Append a fresh (empty) block and return its id.
    pub fn add_block(&mut self, name: impl Into<String>) -> BlockId {
        let id = BlockId(self.blocks.len() as u32);
        self.blocks.push(Block {
            name: name.into(),
            insts: Vec::new(),
        });
        id
    }

    /// Value metadata for `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this function.
    pub fn value(&self, id: ValueId) -> &ValueData {
        &self.values[id.0 as usize]
    }

    /// Mutable value metadata for `id`.
    pub fn value_mut(&mut self, id: ValueId) -> &mut ValueData {
        &mut self.values[id.0 as usize]
    }

    /// The instruction behind `id`, if it is one.
    pub fn inst(&self, id: ValueId) -> Option<&Inst> {
        match &self.value(id).kind {
            ValueKind::Inst(i) => Some(i),
            _ => None,
        }
    }

    /// Mutable access to the instruction behind `id`.
    pub fn inst_mut(&mut self, id: ValueId) -> Option<&mut Inst> {
        match &mut self.value_mut(id).kind {
            ValueKind::Inst(i) => Some(i),
            _ => None,
        }
    }

    /// Block data for `id`.
    pub fn block(&self, id: BlockId) -> &Block {
        &self.blocks[id.0 as usize]
    }

    /// Mutable block data for `id`.
    pub fn block_mut(&mut self, id: BlockId) -> &mut Block {
        &mut self.blocks[id.0 as usize]
    }

    /// Iterator over all block ids.
    pub fn block_ids(&self) -> impl Iterator<Item = BlockId> + '_ {
        (0..self.blocks.len() as u32).map(BlockId)
    }

    /// Iterator over all value ids.
    pub fn value_ids(&self) -> impl Iterator<Item = ValueId> + '_ {
        (0..self.values.len() as u32).map(ValueId)
    }

    /// The terminator instruction of `bb`, if present and well-formed.
    pub fn terminator(&self, bb: BlockId) -> Option<&Inst> {
        let last = *self.block(bb).insts.last()?;
        let inst = self.inst(last)?;
        inst.is_terminator().then_some(inst)
    }

    /// Successor blocks of `bb` (empty for return/unreachable blocks).
    pub fn successors(&self, bb: BlockId) -> Vec<BlockId> {
        self.terminator(bb)
            .map(Inst::successors)
            .unwrap_or_default()
    }

    /// Predecessor map: `preds[b]` lists blocks that branch to `b`.
    pub fn predecessors(&self) -> Vec<Vec<BlockId>> {
        let mut preds = vec![Vec::new(); self.blocks.len()];
        for bb in self.block_ids() {
            for s in self.successors(bb) {
                preds[s.0 as usize].push(bb);
            }
        }
        preds
    }

    /// All `alloca` instruction ids in entry-block order. Frame layout
    /// follows this order (lowest stack address first), so permuting the
    /// entry block's allocas *is* the stack re-layout operation.
    pub fn allocas(&self) -> Vec<ValueId> {
        self.block(self.entry())
            .insts
            .iter()
            .copied()
            .filter(|v| matches!(self.inst(*v), Some(Inst::Alloca { .. })))
            .collect()
    }

    /// All instruction ids, in block order then intra-block order. This is
    /// the "static instruction stream" used for binary-size accounting and
    /// the paper's *attack distance* metric (Definition 2.4).
    pub fn inst_order(&self) -> Vec<ValueId> {
        let mut out = Vec::new();
        for bb in self.block_ids() {
            out.extend(self.block(bb).insts.iter().copied());
        }
        out
    }

    /// Count of static instructions.
    pub fn num_insts(&self) -> usize {
        self.blocks.iter().map(|b| b.insts.len()).sum()
    }

    /// The block containing instruction `id`, if any. Scans the whole
    /// function; loops that ask for many values build a [`Placement`]
    /// once instead.
    pub fn block_of(&self, id: ValueId) -> Option<BlockId> {
        self.block_ids()
            .find(|&bb| self.block(bb).insts.contains(&id))
    }

    /// The value → home-block index of this function, built in one pass.
    pub fn placement(&self) -> Placement {
        Placement::of(self)
    }
}

/// Constant-time [`Function::block_of`]: the home block of every value of
/// one function, indexed by value id. On malformed IR that lists a value
/// in several blocks, the first block in block order wins, exactly as
/// `block_of` answers. The index is a snapshot: editing the function's
/// blocks afterwards leaves it stale.
#[derive(Debug, Clone)]
pub struct Placement {
    /// `home[v]` is the block index of value `v`, or [`Self::UNPLACED`].
    home: Vec<u32>,
}

impl Placement {
    const UNPLACED: u32 = u32::MAX;

    /// Index every placed value of `f`.
    pub fn of(f: &Function) -> Self {
        let mut home = vec![Self::UNPLACED; f.num_values()];
        for (b, block) in f.blocks.iter().enumerate() {
            for &iv in &block.insts {
                if let Some(slot) = home.get_mut(iv.0 as usize) {
                    if *slot == Self::UNPLACED {
                        *slot = b as u32;
                    }
                }
            }
        }
        Placement { home }
    }

    /// The block containing `v`; `None` for values no block lists
    /// (arguments, constants, unplaced instructions, out-of-range ids).
    pub fn block_of(&self, v: ValueId) -> Option<BlockId> {
        match self.home.get(v.0 as usize) {
            Some(&b) if b != Self::UNPLACED => Some(BlockId(b)),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::instr::CmpPred;

    fn two_block_fn() -> Function {
        let mut b = FunctionBuilder::new("f", vec![Ty::I64], Ty::I64);
        let thn = b.new_block("then");
        let els = b.new_block("else");
        let arg = b.func().arg(0);
        let zero = b.const_int(Ty::I64, 0);
        let c = b.icmp(CmpPred::Sgt, arg, zero);
        b.br(c, thn, els);
        b.switch_to(thn);
        let one = b.const_int(Ty::I64, 1);
        b.ret(Some(one));
        b.switch_to(els);
        b.ret(Some(zero));
        b.finish()
    }

    #[test]
    fn args_are_first_values() {
        let f = Function::new("g", vec![Ty::I64, Ty::ptr(Ty::I8)], Ty::Void);
        assert_eq!(f.arg(0), ValueId(0));
        assert_eq!(f.arg(1), ValueId(1));
        assert_eq!(f.value(f.arg(1)).ty, Ty::ptr(Ty::I8));
        assert!(matches!(f.value(f.arg(0)).kind, ValueKind::Arg(0)));
    }

    #[test]
    fn successors_and_predecessors() {
        let f = two_block_fn();
        assert_eq!(f.successors(BlockId(0)), vec![BlockId(1), BlockId(2)]);
        let preds = f.predecessors();
        assert_eq!(preds[1], vec![BlockId(0)]);
        assert_eq!(preds[2], vec![BlockId(0)]);
        assert!(preds[0].is_empty());
    }

    #[test]
    fn terminator_detection() {
        let f = two_block_fn();
        assert!(matches!(f.terminator(BlockId(0)), Some(Inst::Br { .. })));
        assert!(matches!(f.terminator(BlockId(1)), Some(Inst::Ret { .. })));
    }

    #[test]
    fn inst_order_counts() {
        let f = two_block_fn();
        // icmp, br, ret, ret
        assert_eq!(f.num_insts(), 4);
        assert_eq!(f.inst_order().len(), 4);
    }

    #[test]
    fn block_of_finds_home_block() {
        let f = two_block_fn();
        let order = f.inst_order();
        assert_eq!(f.block_of(order[0]), Some(BlockId(0)));
        assert_eq!(f.block_of(*order.last().unwrap()), Some(BlockId(2)));
    }

    #[test]
    fn placement_agrees_with_block_of_even_on_malformed_ir() {
        let mut f = two_block_fn();
        // Malformed: list the entry's icmp in the `else` block too, and an
        // argument in the `then` block. `block_of` answers the first
        // block in block order; the index must answer the same.
        let icmp = f.block(BlockId(0)).insts[0];
        f.block_mut(BlockId(2)).insts.insert(0, icmp);
        let arg = f.arg(0);
        f.block_mut(BlockId(1)).insts.insert(0, arg);
        let p = f.placement();
        for v in f.value_ids() {
            assert_eq!(p.block_of(v), f.block_of(v), "value {v}");
        }
        assert_eq!(p.block_of(icmp), Some(BlockId(0)));
        assert_eq!(p.block_of(ValueId(u32::MAX - 1)), None);
    }
}
