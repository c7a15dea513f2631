//! PIR instructions and their operand kinds.

use crate::intrinsics::Intrinsic;
use crate::types::Ty;
use std::fmt;

/// Identifies a value (argument, constant, or instruction result) within a
/// single [`Function`](crate::Function).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ValueId(pub u32);

/// Identifies a basic block within a single function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlockId(pub u32);

/// Identifies a function within a [`Module`](crate::Module).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FuncId(pub u32);

/// Identifies a global within a module.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GlobalId(pub u32);

/// The successor blocks of a terminator, held inline: PIR terminators
/// have at most two, so CFG walks never allocate a list per block.
/// Derefs to the successor slice and iterates by value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Successors {
    blocks: [BlockId; 2],
    len: u8,
}

impl Successors {
    /// No successors (return, unreachable, or not a terminator).
    pub const NONE: Successors = Successors {
        blocks: [BlockId(0); 2],
        len: 0,
    };
}

impl std::ops::Deref for Successors {
    type Target = [BlockId];

    fn deref(&self) -> &[BlockId] {
        &self.blocks[..self.len as usize]
    }
}

impl IntoIterator for Successors {
    type Item = BlockId;
    type IntoIter = std::iter::Take<std::array::IntoIter<BlockId, 2>>;

    fn into_iter(self) -> Self::IntoIter {
        self.blocks.into_iter().take(self.len as usize)
    }
}

impl fmt::Display for ValueId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "%{}", self.0)
    }
}

impl fmt::Display for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bb{}", self.0)
    }
}

/// Integer binary operations.
#[allow(missing_docs)]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    /// Signed division. Division by zero traps in the VM.
    Sdiv,
    /// Signed remainder. Division by zero traps in the VM.
    Srem,
    And,
    Or,
    Xor,
    Shl,
    /// Arithmetic (sign-preserving) shift right.
    Ashr,
    /// Logical shift right.
    Lshr,
}

impl BinOp {
    /// Textual mnemonic used by the printer/parser.
    pub fn mnemonic(self) -> &'static str {
        match self {
            BinOp::Add => "add",
            BinOp::Sub => "sub",
            BinOp::Mul => "mul",
            BinOp::Sdiv => "sdiv",
            BinOp::Srem => "srem",
            BinOp::And => "and",
            BinOp::Or => "or",
            BinOp::Xor => "xor",
            BinOp::Shl => "shl",
            BinOp::Ashr => "ashr",
            BinOp::Lshr => "lshr",
        }
    }

    /// All binary operations.
    pub const ALL: [BinOp; 11] = [
        BinOp::Add,
        BinOp::Sub,
        BinOp::Mul,
        BinOp::Sdiv,
        BinOp::Srem,
        BinOp::And,
        BinOp::Or,
        BinOp::Xor,
        BinOp::Shl,
        BinOp::Ashr,
        BinOp::Lshr,
    ];
}

/// Integer comparison predicates (signed where it matters).
#[allow(missing_docs)]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpPred {
    Eq,
    Ne,
    Slt,
    Sle,
    Sgt,
    Sge,
    Ult,
    Ule,
    Ugt,
    Uge,
}

impl CmpPred {
    /// Textual mnemonic used by the printer/parser.
    pub fn mnemonic(self) -> &'static str {
        match self {
            CmpPred::Eq => "eq",
            CmpPred::Ne => "ne",
            CmpPred::Slt => "slt",
            CmpPred::Sle => "sle",
            CmpPred::Sgt => "sgt",
            CmpPred::Sge => "sge",
            CmpPred::Ult => "ult",
            CmpPred::Ule => "ule",
            CmpPred::Ugt => "ugt",
            CmpPred::Uge => "uge",
        }
    }

    /// All predicates.
    pub const ALL: [CmpPred; 10] = [
        CmpPred::Eq,
        CmpPred::Ne,
        CmpPred::Slt,
        CmpPred::Sle,
        CmpPred::Sgt,
        CmpPred::Sge,
        CmpPred::Ult,
        CmpPred::Ule,
        CmpPred::Ugt,
        CmpPred::Uge,
    ];

    /// Evaluate the predicate on two 64-bit values.
    pub fn eval(self, lhs: i64, rhs: i64) -> bool {
        match self {
            CmpPred::Eq => lhs == rhs,
            CmpPred::Ne => lhs != rhs,
            CmpPred::Slt => lhs < rhs,
            CmpPred::Sle => lhs <= rhs,
            CmpPred::Sgt => lhs > rhs,
            CmpPred::Sge => lhs >= rhs,
            CmpPred::Ult => (lhs as u64) < rhs as u64,
            CmpPred::Ule => (lhs as u64) <= rhs as u64,
            CmpPred::Ugt => (lhs as u64) > rhs as u64,
            CmpPred::Uge => (lhs as u64) >= rhs as u64,
        }
    }
}

/// Value-cast kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CastKind {
    /// Zero-extend a narrower integer.
    Zext,
    /// Sign-extend a narrower integer.
    Sext,
    /// Truncate a wider integer.
    Trunc,
    /// Pointer to integer.
    PtrToInt,
    /// Integer to pointer (this is what makes pointer/array dualism attacks,
    /// paper §3.1, expressible).
    IntToPtr,
    /// Reinterpret a pointer as a pointer to a different type.
    Bitcast,
}

impl CastKind {
    /// Textual mnemonic used by the printer/parser.
    pub fn mnemonic(self) -> &'static str {
        match self {
            CastKind::Zext => "zext",
            CastKind::Sext => "sext",
            CastKind::Trunc => "trunc",
            CastKind::PtrToInt => "ptrtoint",
            CastKind::IntToPtr => "inttoptr",
            CastKind::Bitcast => "bitcast",
        }
    }
}

/// ARM PA key register selectors (ARMv8.3-A).
///
/// Pythia uses the data keys (`DA`/`DB`) for variable signing and `GA` for
/// generic (canary) MACs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PaKey {
    /// Instruction key A.
    Ia,
    /// Instruction key B.
    Ib,
    /// Data key A.
    Da,
    /// Data key B.
    Db,
    /// Generic authentication key.
    Ga,
}

impl PaKey {
    /// Textual mnemonic used by the printer/parser.
    pub fn mnemonic(self) -> &'static str {
        match self {
            PaKey::Ia => "ia",
            PaKey::Ib => "ib",
            PaKey::Da => "da",
            PaKey::Db => "db",
            PaKey::Ga => "ga",
        }
    }

    /// All key selectors.
    pub const ALL: [PaKey; 5] = [PaKey::Ia, PaKey::Ib, PaKey::Da, PaKey::Db, PaKey::Ga];
}

/// The callee of a [`Inst::Call`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Callee {
    /// A function defined in the same module.
    Func(FuncId),
    /// A modelled library function.
    Intrinsic(Intrinsic),
    /// An indirect call through a function pointer value.
    Indirect(ValueId),
}

#[allow(missing_docs)] // enum-variant fields are documented in the variant docs
/// A PIR instruction.
///
/// Every instruction is also a value; instructions whose result type is
/// [`Ty::Void`] produce no usable value (e.g. `store`, terminators).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Inst {
    /// Reserve `count` elements of `elem` in the current stack frame and
    /// yield the address. Allocas must appear in the entry block; their
    /// *textual order defines frame layout order* (lowest address first),
    /// which is what Pythia's stack re-layout pass permutes.
    Alloca { elem: Ty, count: u32 },
    /// Load a scalar from memory.
    Load { ptr: ValueId },
    /// Store a scalar to memory.
    Store { ptr: ValueId, value: ValueId },
    /// Pointer arithmetic: `base + index * size(elem)`. This is the
    /// construct DFI's slicing cannot reason about (paper §7).
    Gep {
        base: ValueId,
        index: ValueId,
        elem: Ty,
    },
    /// Address of struct field `field` of `*base` (field-sensitive access).
    FieldAddr { base: ValueId, field: u32 },
    /// Integer arithmetic/logic.
    Bin {
        op: BinOp,
        lhs: ValueId,
        rhs: ValueId,
    },
    /// Integer comparison producing an `i1`.
    Icmp {
        pred: CmpPred,
        lhs: ValueId,
        rhs: ValueId,
    },
    /// Value cast.
    Cast {
        kind: CastKind,
        value: ValueId,
        to: Ty,
    },
    /// Ternary select.
    Select {
        cond: ValueId,
        on_true: ValueId,
        on_false: ValueId,
    },
    /// SSA phi node.
    Phi { incomings: Vec<(BlockId, ValueId)> },
    /// Function / intrinsic / indirect call.
    Call { callee: Callee, args: Vec<ValueId> },
    /// Sign `value` with the PA key and `modifier`, placing a PAC in the
    /// upper bits (inserted by the CPA/Pythia passes).
    PacSign {
        value: ValueId,
        key: PaKey,
        modifier: ValueId,
    },
    /// Authenticate and strip a PAC; traps on mismatch.
    PacAuth {
        value: ValueId,
        key: PaKey,
        modifier: ValueId,
    },
    /// Strip a PAC without authenticating (`xpac`).
    PacStrip { value: ValueId },
    /// DFI instrumentation: record that `def_id` last wrote `*ptr`.
    SetDef { ptr: ValueId, def_id: u32 },
    /// DFI instrumentation: trap unless the last writer of `*ptr` is in
    /// `allowed` (the static reaching-definition set).
    ChkDef { ptr: ValueId, allowed: Vec<u32> },
    /// Conditional branch on an `i1`.
    Br {
        cond: ValueId,
        then_bb: BlockId,
        else_bb: BlockId,
    },
    /// Unconditional branch.
    Jmp { target: BlockId },
    /// Function return.
    Ret { value: Option<ValueId> },
    /// Trap if reached.
    Unreachable,
}

impl Inst {
    /// Whether this instruction terminates a basic block.
    pub fn is_terminator(&self) -> bool {
        matches!(
            self,
            Inst::Br { .. } | Inst::Jmp { .. } | Inst::Ret { .. } | Inst::Unreachable
        )
    }

    /// Whether this is one of the five PA instructions.
    pub fn is_pa(&self) -> bool {
        matches!(
            self,
            Inst::PacSign { .. } | Inst::PacAuth { .. } | Inst::PacStrip { .. }
        )
    }

    /// Whether this is DFI instrumentation.
    pub fn is_dfi(&self) -> bool {
        matches!(self, Inst::SetDef { .. } | Inst::ChkDef { .. })
    }

    /// Successor blocks if this is a terminator.
    pub fn successors(&self) -> Successors {
        match self {
            Inst::Br {
                then_bb, else_bb, ..
            } => Successors {
                blocks: [*then_bb, *else_bb],
                len: 2,
            },
            Inst::Jmp { target } => Successors {
                blocks: [*target; 2],
                len: 1,
            },
            _ => Successors::NONE,
        }
    }

    /// Value operands of this instruction, in a stable order.
    pub fn operands(&self) -> Vec<ValueId> {
        let mut ops = Vec::new();
        self.for_each_operand(|v| ops.push(v));
        ops
    }

    /// Visit the value operands in [`Self::operands`] order without
    /// allocating.
    pub fn for_each_operand(&self, mut f: impl FnMut(ValueId)) {
        match self {
            Inst::Alloca { .. } | Inst::Unreachable | Inst::Jmp { .. } => {}
            Inst::Load { ptr } => f(*ptr),
            Inst::Store { ptr, value } => {
                f(*value);
                f(*ptr);
            }
            Inst::Gep { base, index, .. } => {
                f(*base);
                f(*index);
            }
            Inst::FieldAddr { base, .. } => f(*base),
            Inst::Bin { lhs, rhs, .. } | Inst::Icmp { lhs, rhs, .. } => {
                f(*lhs);
                f(*rhs);
            }
            Inst::Cast { value, .. } => f(*value),
            Inst::Select {
                cond,
                on_true,
                on_false,
            } => {
                f(*cond);
                f(*on_true);
                f(*on_false);
            }
            Inst::Phi { incomings } => incomings.iter().for_each(|(_, v)| f(*v)),
            Inst::Call { callee, args } => {
                if let Callee::Indirect(v) = callee {
                    f(*v);
                }
                args.iter().for_each(|&a| f(a));
            }
            Inst::PacSign {
                value, modifier, ..
            }
            | Inst::PacAuth {
                value, modifier, ..
            } => {
                f(*value);
                f(*modifier);
            }
            Inst::PacStrip { value } => f(*value),
            Inst::SetDef { ptr, .. } | Inst::ChkDef { ptr, .. } => f(*ptr),
            Inst::Br { cond, .. } => f(*cond),
            Inst::Ret { value } => value.iter().for_each(|&v| f(v)),
        }
    }

    /// Rewrite every value operand through `f` (used by instrumentation
    /// passes that re-route loads/stores through authenticated values).
    pub fn map_operands(&mut self, mut f: impl FnMut(ValueId) -> ValueId) {
        match self {
            Inst::Alloca { .. } | Inst::Unreachable | Inst::Jmp { .. } => {}
            Inst::Load { ptr } => *ptr = f(*ptr),
            Inst::Store { ptr, value } => {
                *value = f(*value);
                *ptr = f(*ptr);
            }
            Inst::Gep { base, index, .. } => {
                *base = f(*base);
                *index = f(*index);
            }
            Inst::FieldAddr { base, .. } => *base = f(*base),
            Inst::Bin { lhs, rhs, .. } | Inst::Icmp { lhs, rhs, .. } => {
                *lhs = f(*lhs);
                *rhs = f(*rhs);
            }
            Inst::Cast { value, .. } => *value = f(*value),
            Inst::Select {
                cond,
                on_true,
                on_false,
            } => {
                *cond = f(*cond);
                *on_true = f(*on_true);
                *on_false = f(*on_false);
            }
            Inst::Phi { incomings } => {
                for (_, v) in incomings {
                    *v = f(*v);
                }
            }
            Inst::Call { callee, args } => {
                if let Callee::Indirect(v) = callee {
                    *v = f(*v);
                }
                for a in args {
                    *a = f(*a);
                }
            }
            Inst::PacSign {
                value, modifier, ..
            }
            | Inst::PacAuth {
                value, modifier, ..
            } => {
                *value = f(*value);
                *modifier = f(*modifier);
            }
            Inst::PacStrip { value } => *value = f(*value),
            Inst::SetDef { ptr, .. } | Inst::ChkDef { ptr, .. } => *ptr = f(*ptr),
            Inst::Br { cond, .. } => *cond = f(*cond),
            Inst::Ret { value } => {
                if let Some(v) = value {
                    *v = f(*v);
                }
            }
        }
    }

    /// Short mnemonic for diagnostics and statistics.
    pub fn mnemonic(&self) -> &'static str {
        match self {
            Inst::Alloca { .. } => "alloca",
            Inst::Load { .. } => "load",
            Inst::Store { .. } => "store",
            Inst::Gep { .. } => "gep",
            Inst::FieldAddr { .. } => "fieldaddr",
            Inst::Bin { op, .. } => op.mnemonic(),
            Inst::Icmp { .. } => "icmp",
            Inst::Cast { kind, .. } => kind.mnemonic(),
            Inst::Select { .. } => "select",
            Inst::Phi { .. } => "phi",
            Inst::Call { .. } => "call",
            Inst::PacSign { .. } => "pacsign",
            Inst::PacAuth { .. } => "pacauth",
            Inst::PacStrip { .. } => "pacstrip",
            Inst::SetDef { .. } => "setdef",
            Inst::ChkDef { .. } => "chkdef",
            Inst::Br { .. } => "br",
            Inst::Jmp { .. } => "jmp",
            Inst::Ret { .. } => "ret",
            Inst::Unreachable => "unreachable",
        }
    }
}

/// Stable DFI definition-id for an instruction site (used by both the DFI
/// instrumentation pass and the VM's input-channel write tagging, so the
/// two agree on ids without sharing state).
pub fn dfi_def_id(func: FuncId, value: ValueId) -> u32 {
    (func.0 << 18) | (value.0 & 0x3_ffff)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn terminators() {
        assert!(Inst::Ret { value: None }.is_terminator());
        assert!(Inst::Jmp { target: BlockId(0) }.is_terminator());
        assert!(!Inst::Load { ptr: ValueId(0) }.is_terminator());
    }

    #[test]
    fn successor_lists() {
        let br = Inst::Br {
            cond: ValueId(0),
            then_bb: BlockId(1),
            else_bb: BlockId(2),
        };
        assert_eq!(*br.successors(), [BlockId(1), BlockId(2)]);
        assert!(Inst::Ret { value: None }.successors().is_empty());
        let jmp = Inst::Jmp { target: BlockId(3) };
        assert_eq!(
            jmp.successors().into_iter().collect::<Vec<_>>(),
            [BlockId(3)]
        );
    }

    #[test]
    fn operand_mapping_covers_all_operands() {
        let mut call = Inst::Call {
            callee: Callee::Indirect(ValueId(7)),
            args: vec![ValueId(1), ValueId(2)],
        };
        assert_eq!(call.operands(), vec![ValueId(7), ValueId(1), ValueId(2)]);
        call.map_operands(|v| ValueId(v.0 + 10));
        assert_eq!(call.operands(), vec![ValueId(17), ValueId(11), ValueId(12)]);
    }

    #[test]
    fn cmp_eval_signedness() {
        assert!(CmpPred::Slt.eval(-1, 0));
        assert!(!CmpPred::Ult.eval(-1, 0)); // -1 is u64::MAX
        assert!(CmpPred::Ugt.eval(-1, 0));
        assert!(CmpPred::Eq.eval(5, 5));
        assert!(CmpPred::Sge.eval(5, 5));
    }

    #[test]
    fn pa_and_dfi_classification() {
        let sign = Inst::PacSign {
            value: ValueId(0),
            key: PaKey::Da,
            modifier: ValueId(1),
        };
        assert!(sign.is_pa());
        assert!(!sign.is_dfi());
        let chk = Inst::ChkDef {
            ptr: ValueId(0),
            allowed: vec![1, 2],
        };
        assert!(chk.is_dfi());
        assert!(!chk.is_pa());
    }

    #[test]
    fn store_operand_order_is_value_then_ptr() {
        let st = Inst::Store {
            ptr: ValueId(3),
            value: ValueId(4),
        };
        assert_eq!(st.operands(), vec![ValueId(4), ValueId(3)]);
    }
}
