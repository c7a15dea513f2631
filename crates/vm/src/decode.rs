//! The decode tier of the block-cached execution engine.
//!
//! Once per `(FuncId, BlockId)` the decoder lowers a basic block into a
//! flat, pre-resolved op buffer (`DecodedBlock`):
//!
//! - operand references are resolved to dense frame slots or folded
//!   constants (`Operand`) — no `ValueKind` match in the hot loop;
//! - per-op base cost and mnemonic are reduced to a small class index
//!   (`mn`) into `MNEMONICS` / a per-VM cost table, so metering is two
//!   array reads;
//! - leading phis are compiled into a parallel-copy prologue per
//!   predecessor (`PhiPrologue`), specialized statically where the
//!   predecessor is known; each `br`/`jmp` carries the index of its own
//!   block's prologue in the target's list, so no lookup runs at
//!   execute time;
//! - alloca addresses are resolved against a dense per-function
//!   [`FrameLayout`] (no `HashMap` in the hot loop);
//! - unconditional `jmp` successors are chained into superblocks: the
//!   decoded buffer continues straight into the target block (behind an
//!   `OpKind::Enter` marker carrying the specialized phi prologue), so
//!   straight-line runs cross block boundaries without re-entering the
//!   block scheduler. Chaining stops at calls (function, intrinsic — and
//!   therefore input channels) and canary (`Ga`-key) authentications, and
//!   is bounded by a chain-length/cycle guard.
//!
//! Decoded blocks are cached in [`DecodedModule`] behind `OnceLock`s keyed
//! by block address, so a module decoded once is shared by every VM that
//! executes it (the campaign runner reuses one [`DecodedModule`] across
//! benign + attack runs).
//!
//! The decoder is *purely structural*: it depends only on the [`Module`],
//! never on a `VmConfig`, which is what makes the cache shareable between
//! VMs with different cost models or profiling settings. Observation
//! preservation (costs, traps, trace events, profile counters) is argued
//! op-by-op in DESIGN.md §5f and enforced by the differential tests.

use crate::cost::CostModel;
use pythia_ir::layout::Slot;
use pythia_ir::{
    BinOp, BlockId, Callee, CastKind, CmpPred, FuncId, Function, Inst, Intrinsic, Module, PaKey,
    Ty, ValueId, ValueKind,
};
use std::sync::{Arc, OnceLock};

/// Number of distinct op classes (= distinct instruction mnemonics).
pub(crate) const N_MNEMONICS: usize = 35;

/// Op classes that something besides the dispatch loop reads: phi
/// prologue metering, and the counters `Vm::run` derives from
/// `op_counts` at run end.
pub(crate) const MN_LOAD: usize = 18;
pub(crate) const MN_STORE: usize = 19;
pub(crate) const MN_PHI: usize = 24;
pub(crate) const MN_CALL: usize = 25;
pub(crate) const MN_PACSIGN: usize = 26;
pub(crate) const MN_PACAUTH: usize = 27;
pub(crate) const MN_PACSTRIP: usize = 28;
pub(crate) const MN_SETDEF: usize = 29;
pub(crate) const MN_CHKDEF: usize = 30;
pub(crate) const MN_BR: usize = 31;

/// Op-class index -> mnemonic. Must agree exactly with
/// `pythia_ir::Inst::mnemonic` through [`op_class`] (pinned by
/// `op_class_names_every_instructions_mnemonic`).
pub(crate) const MNEMONICS: [&str; N_MNEMONICS] = [
    "add",
    "sub",
    "mul",
    "sdiv",
    "srem",
    "and",
    "or",
    "xor",
    "shl",
    "ashr",
    "lshr",
    "zext",
    "sext",
    "trunc",
    "ptrtoint",
    "inttoptr",
    "bitcast",
    "alloca",
    "load",  // MN_LOAD
    "store", // MN_STORE
    "gep",
    "fieldaddr",
    "icmp",
    "select",
    "phi",      // MN_PHI
    "call",     // MN_CALL
    "pacsign",  // MN_PACSIGN
    "pacauth",  // MN_PACAUTH
    "pacstrip", // MN_PACSTRIP
    "setdef",   // MN_SETDEF
    "chkdef",   // MN_CHKDEF
    "br",       // MN_BR
    "jmp",
    "ret",
    "unreachable",
];

/// The op class of `inst`: its index into [`MNEMONICS`], the per-VM
/// cost table and `Vm::op_counts`. Both engines count executed
/// instructions through it; `Bin`/`Cast` classes follow their
/// sub-mnemonic.
pub(crate) fn op_class(inst: &Inst) -> u8 {
    let mn = match inst {
        Inst::Bin { op, .. } => match op {
            BinOp::Add => 0,
            BinOp::Sub => 1,
            BinOp::Mul => 2,
            BinOp::Sdiv => 3,
            BinOp::Srem => 4,
            BinOp::And => 5,
            BinOp::Or => 6,
            BinOp::Xor => 7,
            BinOp::Shl => 8,
            BinOp::Ashr => 9,
            BinOp::Lshr => 10,
        },
        Inst::Cast { kind, .. } => match kind {
            CastKind::Zext => 11,
            CastKind::Sext => 12,
            CastKind::Trunc => 13,
            CastKind::PtrToInt => 14,
            CastKind::IntToPtr => 15,
            CastKind::Bitcast => 16,
        },
        Inst::Alloca { .. } => 17,
        Inst::Load { .. } => MN_LOAD,
        Inst::Store { .. } => MN_STORE,
        Inst::Gep { .. } => 20,
        Inst::FieldAddr { .. } => 21,
        Inst::Icmp { .. } => 22,
        Inst::Select { .. } => 23,
        Inst::Phi { .. } => MN_PHI,
        Inst::Call { .. } => MN_CALL,
        Inst::PacSign { .. } => MN_PACSIGN,
        Inst::PacAuth { .. } => MN_PACAUTH,
        Inst::PacStrip { .. } => MN_PACSTRIP,
        Inst::SetDef { .. } => MN_SETDEF,
        Inst::ChkDef { .. } => MN_CHKDEF,
        Inst::Br { .. } => MN_BR,
        Inst::Jmp { .. } => 32,
        Inst::Ret { .. } => 33,
        Inst::Unreachable => 34,
    };
    mn as u8
}

/// Per-class base cost table for one `CostModel`. Valid because the base
/// cost of an instruction depends only on its mnemonic class (see
/// `CostModel::base_cost`). Padded to 256 entries (the tail is zero and
/// unreachable) so indexing by the `u8` class needs no bounds check in
/// the dispatch loop; `op_counts` mirrors the shape for the same reason.
pub(crate) fn cost_table(cost: &CostModel) -> [u64; 256] {
    let mut tbl = [0u64; 256];
    for (i, t) in tbl.iter_mut().take(N_MNEMONICS).enumerate() {
        *t = match i {
            0..=16 | 20..=23 => cost.alu, // bin, cast, gep, fieldaddr, icmp, select
            17 | 24 => cost.copy,         // alloca, phi
            18 => cost.load_l1,           // load
            19 => cost.store,             // store
            25 | 33 => cost.call,         // call, ret
            26..=28 => cost.pa_op,        // pacsign, pacauth, pacstrip
            29 | 30 => cost.dfi_op,       // setdef, chkdef
            31 | 32 => cost.branch,       // br, jmp
            _ => 0,                       // unreachable
        };
    }
    tbl
}

/// A pre-resolved operand: a dense index into the frame's value array.
/// Constants keep their own value ids — [`DecodedFunction::consts`]
/// pre-stores every folded constant (integers, null, global/function
/// addresses) into its slot at frame setup, so the execute tier reads
/// *every* operand with one unconditional indexed load, no
/// const-vs-slot branch.
pub(crate) type Operand = u32;

/// Scalar wrap class for `bin`/`cast` results: 1/8/16/32 narrow the raw
/// result exactly like [`Ty::wrap`]; 0 is identity (i64, pointers, and
/// the identity casts). Classified once at decode time so the hot loop
/// never touches a (possibly heap-backed) [`Ty`].
pub(crate) fn wrap_class(ty: &Ty) -> u8 {
    match ty {
        Ty::I1 => 1,
        Ty::I8 => 8,
        Ty::I16 => 16,
        Ty::I32 => 32,
        _ => 0,
    }
}

/// Apply a [`wrap_class`] to a raw result (the execute-tier `Ty::wrap`).
#[inline(always)]
pub(crate) fn wrap_val(class: u8, raw: i64) -> i64 {
    match class {
        1 => raw & 1,
        8 => raw as i8 as i64,
        16 => raw as i16 as i64,
        32 => raw as i32 as i64,
        _ => raw,
    }
}

/// Pre-resolved callee of a decoded call.
#[derive(Debug, Clone)]
pub(crate) enum DecodedCallee {
    Func(FuncId),
    Intrinsic(Intrinsic),
    Indirect(Operand),
}

/// Heap-boxed call payload. Calls are chain barriers and comparatively
/// rare, so keeping their two variable-length fields behind one pointer
/// keeps every [`OpKind`] at two words.
#[derive(Debug, Clone)]
pub(crate) struct CallData {
    pub(crate) callee: DecodedCallee,
    pub(crate) args: Box<[Operand]>,
}

/// The phi prologue run on entry to a block for one known predecessor.
#[derive(Debug, Clone)]
pub(crate) enum PhiPrologue {
    /// Parallel copies `(dst slot, src)` — all sources are read before any
    /// destination is written, exactly like the legacy two-pass loop.
    Copies(Box<[(u32, Operand)]>),
    /// Some leading phi cannot be resolved (phi in the entry block, or a
    /// phi that does not cover the predecessor — both verifier-rejected).
    /// `prior` phis are metered before the setup error fires, matching
    /// the legacy loop which meters each phi before examining the next.
    Error {
        prior: u32,
        iv: ValueId,
        in_entry: bool,
    },
}

/// One decoded operation. `mn` indexes [`MNEMONICS`] and the per-VM cost
/// table; `iv` is the original instruction's value id (trace events, frame
/// writes, error context, PA site identity).
#[derive(Debug, Clone)]
pub(crate) struct DecodedOp {
    pub(crate) iv: ValueId,
    pub(crate) mn: u8,
    pub(crate) kind: OpKind,
}

/// The pre-resolved operation kinds the execute tier dispatches on.
#[derive(Debug, Clone)]
pub(crate) enum OpKind {
    /// Frame-relative alloca: address = frame base + `off`.
    Alloca {
        off: u64,
    },
    /// An alloca outside the entry block (not in the frame layout):
    /// metered like any alloca, then an internal error — exactly the
    /// legacy `alloca missing from frame layout` path.
    AllocaMissing,
    Load {
        ptr: Operand,
        size: u8,
    },
    Store {
        ptr: Operand,
        value: Operand,
        size: u8,
    },
    Gep {
        base: Operand,
        index: Operand,
        scale: i64,
    },
    FieldAddr {
        base: Operand,
        off: u64,
    },
    Bin {
        op: BinOp,
        wrap: u8,
        lhs: Operand,
        rhs: Operand,
    },
    Icmp {
        pred: CmpPred,
        lhs: Operand,
        rhs: Operand,
    },
    Cast {
        value: Operand,
        wrap: u8,
    },
    Select {
        cond: Operand,
        on_true: Operand,
        on_false: Operand,
    },
    /// A phi *after* a non-phi (legacy "copy from pred" semantics): fully
    /// metered, resolved against the runtime predecessor, silently a no-op
    /// when the predecessor is not covered.
    LatePhi {
        incomings: Box<[(BlockId, Operand)]>,
    },
    PacSign {
        value: Operand,
        key: PaKey,
        modifier: Operand,
    },
    PacAuth {
        value: Operand,
        key: PaKey,
        modifier: Operand,
    },
    /// A `pacsign` (this op's `iv` and class) fused with the `pacauth`
    /// right after it that authenticates its result under the same key
    /// and modifier operand ([`fused_auth`]). Both instructions are
    /// metered in order, each under its own value id and class; the PAC
    /// is computed once, by the sign. The auth would find it in the memo
    /// slot the sign just filled and could not fail, so skipping it
    /// changes nothing observable (DESIGN.md §5f).
    PacSignAuth {
        value: Operand,
        key: PaKey,
        modifier: Operand,
        auth: ValueId,
    },
    PacStrip {
        value: Operand,
    },
    SetDef {
        ptr: Operand,
        def_id: u32,
    },
    ChkDef {
        ptr: Operand,
        allowed: Box<[u32]>,
    },
    Call(Box<CallData>),
    /// `then_pl`/`else_pl` index the branch's own block in the target's
    /// prologue list ([`DecodedBlock::prologues`]), or are
    /// [`NO_PROLOGUE`] when the target has no entry for it.
    Br {
        cond: Operand,
        then_bb: BlockId,
        else_bb: BlockId,
        then_pl: u32,
        else_pl: u32,
    },
    /// `chained` means the superblock continues: the next op is the
    /// target's [`OpKind::Enter`] marker and execution falls through
    /// instead of re-entering the block scheduler. The jmp itself stays a
    /// fully metered instruction either way. `pl` is the target prologue
    /// index, as for [`OpKind::Br`] (read only when not chained).
    Jmp {
        target: BlockId,
        chained: bool,
        pl: u32,
    },
    Ret {
        value: Operand,
    },
    Unreachable,
    /// Superblock-internal block boundary: set the runtime predecessor to
    /// `pred`, current block to `block`, and run the statically
    /// specialized phi prologue. Not an instruction — no metering.
    Enter {
        pred: BlockId,
        block: BlockId,
        /// Boxed: the prologue is cold relative to the op buffer walk,
        /// and inlining it would grow *every* op by a word.
        prologue: Box<PhiPrologue>,
    },
    /// A block member that is not an instruction (unverified module):
    /// budget-checked and counted, then an internal error — before any
    /// trace/charge/profile, exactly like the legacy lookup failure.
    NotInst,
}

/// Dense per-function frame layout: allocas in entry-block order, each
/// with its frame offset and object size. Computed once per function and
/// used by both engines (the legacy interpreter's `HashMap<ValueId, u64>`
/// per call frame is gone).
#[derive(Debug, Clone)]
pub struct FrameLayout {
    pub(crate) objects: Vec<AllocaSlot>,
    pub(crate) frame_size: u64,
}

/// One alloca's place in the frame.
#[derive(Debug, Clone, Copy)]
pub(crate) struct AllocaSlot {
    pub(crate) id: ValueId,
    pub(crate) off: u64,
    /// Object size ([`pythia_ir::layout::object_size`], never 0).
    pub(crate) size: u64,
}

impl FrameLayout {
    fn of(f: &Function) -> Self {
        let slots = pythia_ir::layout::frame_slots(f);
        let end = slots.last().map_or(0, |(_, s)| s.end());
        FrameLayout {
            objects: slots
                .into_iter()
                .map(|(id, s)| AllocaSlot {
                    id,
                    off: s.start,
                    size: s.size,
                })
                .collect(),
            frame_size: end.div_ceil(16).saturating_mul(16),
        }
    }

    /// Frame offset of alloca `iv`, if it is part of the layout.
    pub(crate) fn offset_of(&self, iv: ValueId) -> Option<u64> {
        self.objects.iter().find(|s| s.id == iv).map(|s| s.off)
    }
}

/// A prologue index meaning "run none": the branch's block is not among
/// the target's predecessors, so the target has no prologue for it.
pub(crate) const NO_PROLOGUE: u32 = u32::MAX;

/// A decoded superblock: the op buffer for one head block plus any chained
/// `jmp` successors, and the head's phi prologues by predecessor.
#[derive(Debug)]
pub(crate) struct DecodedBlock {
    /// Prologue per static predecessor of the head block, in the order of
    /// the head's predecessor list; `Br`/`Jmp` ops index into it.
    pub(crate) prologues: Box<[PhiPrologue]>,
    /// Prologue when the head is entered as the function entry
    /// (no predecessor).
    pub(crate) entry: PhiPrologue,
    pub(crate) ops: Box<[DecodedOp]>,
}

/// One function's decode-tier state: dense frame layout plus the lazy
/// superblock cache (one slot per potential head block).
#[derive(Debug)]
pub struct DecodedFunction {
    pub(crate) name: String,
    pub(crate) num_values: usize,
    pub(crate) num_params: usize,
    /// PA-site number of this function's value 0: the values of all
    /// lower-numbered functions, so `site_base + iv` numbers every
    /// instruction of the module densely (see [`DecodedModule::pa_site`]).
    pub(crate) site_base: usize,
    pub(crate) layout: FrameLayout,
    /// `(slot, value)` for every constant-kind value: folded once here
    /// (exactly as `Vm::value_of` would) and written into the frame at
    /// call setup, so operand reads need no const-vs-slot distinction.
    pub(crate) consts: Box<[(u32, i64)]>,
    /// Per block: its predecessors, in block order (one phi prologue
    /// each when the block heads a superblock).
    preds: Box<[Box<[BlockId]>]>,
    /// Per block: whether it holds a chain barrier ([`has_barrier`]).
    barrier: Box<[bool]>,
    blocks: Vec<OnceLock<DecodedBlock>>,
}

/// The module-wide decode cache: globals layout, per-function frame
/// layouts, and lazily decoded superblocks keyed by block address.
///
/// Construction is cheap (no block is decoded until first executed);
/// [`DecodedModule::eager`] forces every block, which is what the
/// pipeline times as the `decode` phase. A `DecodedModule` is immutable
/// and `Sync`: wrap it in an [`Arc`] and share it across every VM that
/// runs the same module (`Vm::with_decoded`).
#[derive(Debug)]
pub struct DecodedModule {
    pub(crate) funcs: Vec<DecodedFunction>,
    /// Every global's place in the address space, by global id.
    globals: Box<[Slot]>,
    /// Values across all functions: the number of PA-site numbers.
    sites: usize,
    /// The module's static `(signs, auths, strips)`, counted by the first
    /// profiled run.
    static_pa: OnceLock<(u64, u64, u64)>,
}

/// Chain-length bound for superblock formation (incl. the head block).
const MAX_CHAIN: usize = 8;

impl DecodedModule {
    /// Build the decode cache for `module`. Every later call that takes a
    /// `&Module` must be passed this same module — the cache stores dense
    /// indices into it.
    pub fn new(module: &Module) -> Self {
        // `GlobalAddr` operands fold to the addresses `Vm::init_globals`
        // materializes from the same layout. Overflow is not checked
        // here: a layout that does not fit is a setup error that prevents
        // any execution, so the folded constants are never observed.
        let globals: Box<[Slot]> =
            pythia_ir::layout::global_slots(module, crate::memory::layout::GLOBALS_BASE).into();
        // Site numbers: each function's values follow the values of the
        // functions before it.
        let site_bases = module.functions().iter().scan(0, |next, f| {
            let base = *next;
            *next += f.num_values();
            Some(base)
        });
        let sites = module.functions().iter().map(Function::num_values).sum();
        let funcs = module
            .functions()
            .iter()
            .zip(site_bases)
            .map(|(f, site_base)| DecodedFunction {
                name: f.name.clone(),
                num_values: f.num_values(),
                num_params: f.params.len(),
                site_base,
                layout: FrameLayout::of(f),
                consts: (0..f.num_values() as u32)
                    .filter_map(|i| {
                        let c = match &f.value(ValueId(i)).kind {
                            ValueKind::ConstInt(c) => *c,
                            ValueKind::ConstNull => 0,
                            ValueKind::GlobalAddr(g) => globals[g.0 as usize].start as i64,
                            ValueKind::FuncAddr(t) => (0x4000 + t.0 as u64 * 16) as i64,
                            ValueKind::Arg(_) | ValueKind::Inst(_) => return None,
                        };
                        Some((i, c))
                    })
                    .collect(),
                preds: predecessors(f),
                barrier: f.block_ids().map(|bb| has_barrier(f, bb)).collect(),
                blocks: (0..f.num_blocks()).map(|_| OnceLock::new()).collect(),
            })
            .collect();
        DecodedModule {
            funcs,
            globals,
            sites,
            static_pa: OnceLock::new(),
        }
    }

    /// The decoded superblock headed at `(fid, bb)`, decoding it on first
    /// use. `module` must be the module this cache was built from.
    pub(crate) fn block(&self, module: &Module, fid: FuncId, bb: BlockId) -> &DecodedBlock {
        self.funcs[fid.0 as usize].blocks[bb.0 as usize]
            .get_or_init(|| decode_superblock(module, self, fid, bb))
    }

    /// Build the cache for `module` with every block decoded up front,
    /// ready to share across the VMs that run it. This is how the
    /// pipeline, the campaign and the server decode a variant under
    /// either engine: decode cost lands before the first run (and in its
    /// own timed phase), not inside it. The legacy engine reads only the
    /// frame layouts.
    pub fn eager(module: &Module) -> Arc<Self> {
        let decoded = Arc::new(DecodedModule::new(module));
        decoded.decode_all(module);
        decoded
    }

    /// Force-decode every block of every function (execution would
    /// otherwise decode lazily).
    pub fn decode_all(&self, module: &Module) {
        for fid in module.func_ids() {
            for bb in module.func(fid).block_ids() {
                self.block(module, fid, bb);
            }
        }
    }

    /// Every global's address and size, by global id
    /// ([`pythia_ir::layout::global_slots`] from the globals base).
    pub(crate) fn global_slots(&self) -> &[Slot] {
        &self.globals
    }

    /// Per-function frame layout (shared with the legacy interpreter).
    pub(crate) fn layout(&self, fid: FuncId) -> &FrameLayout {
        &self.funcs[fid.0 as usize].layout
    }

    /// The dense site number of instruction `iv` of function `fid`:
    /// distinct per `(fid, iv)`, and less than 64 × [`Self::site_words`].
    pub(crate) fn pa_site(&self, fid: FuncId, iv: ValueId) -> usize {
        self.funcs[fid.0 as usize].site_base + iv.0 as usize
    }

    /// [`static_pa_counts`](crate::profile::static_pa_counts) of
    /// `module`, counted once per cache. `module` must be the module this
    /// cache was built from.
    pub(crate) fn static_pa(&self, module: &Module) -> (u64, u64, u64) {
        *self
            .static_pa
            .get_or_init(|| crate::profile::static_pa_counts(module))
    }

    /// `u64` words of a bitset with one bit per site number.
    pub(crate) fn site_words(&self) -> usize {
        self.sites.div_ceil(64)
    }
}

/// Resolve a value reference to its frame slot. Constant kinds resolve
/// to their own (pre-stored) slots — see [`DecodedFunction::consts`],
/// which folds them exactly as `Vm::value_of` would.
fn slot(v: ValueId) -> Operand {
    v.0
}

/// The leading-phi run of a block (the instructions the legacy phase-1
/// loop consumes).
fn leading_phis(f: &Function, bb: BlockId) -> Vec<ValueId> {
    let mut phis = Vec::new();
    for &iv in &f.block(bb).insts {
        match f.inst(iv) {
            Some(Inst::Phi { .. }) => phis.push(iv),
            _ => break,
        }
    }
    phis
}

/// Compile the leading phis of `bb` into the prologue for predecessor
/// `pred`.
fn prologue_for_pred(f: &Function, bb: BlockId, pred: BlockId) -> PhiPrologue {
    let mut copies = Vec::new();
    for (k, &iv) in leading_phis(f, bb).iter().enumerate() {
        let Some(Inst::Phi { incomings }) = f.inst(iv) else {
            break;
        };
        match incomings.iter().find(|(b, _)| *b == pred) {
            Some((_, src)) => copies.push((iv.0, slot(*src))),
            None => {
                return PhiPrologue::Error {
                    prior: k as u32,
                    iv,
                    in_entry: false,
                }
            }
        }
    }
    PhiPrologue::Copies(copies.into_boxed_slice())
}

/// The prologue for entering `bb` with no predecessor (function entry).
fn entry_prologue(f: &Function, bb: BlockId) -> PhiPrologue {
    match leading_phis(f, bb).first() {
        // The legacy loop rejects the first phi immediately when there is
        // no predecessor, before metering it.
        Some(&iv) => PhiPrologue::Error {
            prior: 0,
            iv,
            in_entry: true,
        },
        None => PhiPrologue::Copies(Box::new([])),
    }
}

/// `Function::predecessors`, skipping successors that name no block:
/// construction must not fail on IR that only a decoded block (or
/// never) trips over.
fn predecessors(f: &Function) -> Box<[Box<[BlockId]>]> {
    let mut preds = vec![Vec::new(); f.num_blocks()];
    for bb in f.block_ids() {
        for s in f.successors(bb) {
            if let Some(p) = preds.get_mut(s.0 as usize) {
                p.push(bb);
            }
        }
    }
    preds.into_iter().map(Vec::into_boxed_slice).collect()
}

/// Where `own` sits in `target`'s predecessor list (the first position,
/// as a search of the list finds it), or [`NO_PROLOGUE`] when it is not
/// there — including a target that names no block.
fn prologue_index(preds: &[Box<[BlockId]>], own: BlockId, target: BlockId) -> u32 {
    preds
        .get(target.0 as usize)
        .and_then(|p| p.iter().position(|&b| b == own))
        .map_or(NO_PROLOGUE, |i| i as u32)
}

/// Whether a block contains a chain barrier: any call (function,
/// intrinsic — and therefore every input channel) or a canary (`Ga`-key)
/// authentication. Superblocks never chain across these (DESIGN.md §5f).
fn has_barrier(f: &Function, bb: BlockId) -> bool {
    f.block(bb).insts.iter().any(|&iv| {
        matches!(
            f.inst(iv),
            Some(Inst::Call { .. }) | Some(Inst::PacAuth { key: PaKey::Ga, .. })
        )
    })
}

/// The `pacauth` that the `pacsign` `iv` (under `key` and `modifier`)
/// fuses with, when `next` is one: it authenticates `iv`'s result under
/// the same key and modifier operand, the key is not `Ga` (canary signs
/// feed the witness and canary auths end superblocks), and the modifier
/// is not the sign's own result (which the sign overwrites before the
/// auth reads it).
fn fused_auth(
    f: &Function,
    iv: ValueId,
    key: PaKey,
    modifier: ValueId,
    next: Option<ValueId>,
) -> Option<ValueId> {
    let next = next?;
    match f.inst(next)? {
        Inst::PacAuth {
            value,
            key: k,
            modifier: m,
        } if *value == iv && *k == key && *m == modifier && key != PaKey::Ga && modifier != iv => {
            Some(next)
        }
        _ => None,
    }
}

/// Emit the phase-2 ops of one block (leading phis excluded — they live
/// in prologues). Returns the buffer index of a trailing chainable
/// `Jmp` op and its target, if the block ends in one.
fn emit_block(
    dm: &DecodedModule,
    f: &Function,
    fid: FuncId,
    bb: BlockId,
    ops: &mut Vec<DecodedOp>,
) -> Option<(usize, BlockId)> {
    let insts = &f.block(bb).insts;
    let skip = leading_phis(f, bb).len();
    let preds = &dm.funcs[fid.0 as usize].preds;
    let mut members = insts[skip..].iter().copied().peekable();
    while let Some(iv) = members.next() {
        let Some(inst) = f.inst(iv) else {
            // Execution stops at the runtime error; anything after is
            // unreachable and deliberately not decoded.
            ops.push(DecodedOp {
                iv,
                mn: 0,
                kind: OpKind::NotInst,
            });
            return None;
        };
        let kind = match inst {
            Inst::Alloca { .. } => match dm.layout(fid).offset_of(iv) {
                Some(off) => OpKind::Alloca { off },
                None => OpKind::AllocaMissing,
            },
            Inst::Load { ptr } => OpKind::Load {
                ptr: slot(*ptr),
                size: f.value(iv).ty.size().clamp(1, 8) as u8,
            },
            Inst::Store { ptr, value } => OpKind::Store {
                ptr: slot(*ptr),
                value: slot(*value),
                size: f.value(*value).ty.size().clamp(1, 8) as u8,
            },
            Inst::Gep { base, index, elem } => OpKind::Gep {
                base: slot(*base),
                index: slot(*index),
                scale: elem.size().max(1) as i64,
            },
            Inst::FieldAddr { base, field } => {
                // Same fold as the legacy arm, including the flat fallback
                // for out-of-range field indices on unverified input.
                let off = match f.value(*base).ty.pointee() {
                    Some(s @ Ty::Struct(fields)) if (*field as usize) < fields.len() => {
                        s.field_offset(*field)
                    }
                    _ => u64::from(*field).saturating_mul(8),
                };
                OpKind::FieldAddr {
                    base: slot(*base),
                    off,
                }
            }
            Inst::Bin { op: bop, lhs, rhs } => OpKind::Bin {
                op: *bop,
                wrap: wrap_class(&f.value(iv).ty),
                lhs: slot(*lhs),
                rhs: slot(*rhs),
            },
            Inst::Icmp { pred, lhs, rhs } => OpKind::Icmp {
                pred: *pred,
                lhs: slot(*lhs),
                rhs: slot(*rhs),
            },
            // `eval_cast` is identity for zext (values are narrowed at
            // the producer), ptrtoint, inttoptr and bitcast; sext/trunc
            // wrap to the target width. The wrap class captures all of it.
            Inst::Cast { kind, value, to } => OpKind::Cast {
                value: slot(*value),
                wrap: match kind {
                    CastKind::Sext | CastKind::Trunc => wrap_class(to),
                    _ => 0,
                },
            },
            Inst::Select {
                cond,
                on_true,
                on_false,
            } => OpKind::Select {
                cond: slot(*cond),
                on_true: slot(*on_true),
                on_false: slot(*on_false),
            },
            Inst::Phi { incomings } => OpKind::LatePhi {
                incomings: incomings.iter().map(|(b, v)| (*b, slot(*v))).collect(),
            },
            Inst::Call { callee, args } => OpKind::Call(Box::new(CallData {
                callee: match callee {
                    Callee::Func(t) => DecodedCallee::Func(*t),
                    Callee::Intrinsic(i) => DecodedCallee::Intrinsic(*i),
                    Callee::Indirect(v) => DecodedCallee::Indirect(slot(*v)),
                },
                args: args.iter().map(|a| slot(*a)).collect(),
            })),
            Inst::PacSign {
                value,
                key,
                modifier,
            } => match fused_auth(f, iv, *key, *modifier, members.peek().copied()) {
                Some(auth) => {
                    members.next();
                    OpKind::PacSignAuth {
                        value: slot(*value),
                        key: *key,
                        modifier: slot(*modifier),
                        auth,
                    }
                }
                None => OpKind::PacSign {
                    value: slot(*value),
                    key: *key,
                    modifier: slot(*modifier),
                },
            },
            Inst::PacAuth {
                value,
                key,
                modifier,
            } => OpKind::PacAuth {
                value: slot(*value),
                key: *key,
                modifier: slot(*modifier),
            },
            Inst::PacStrip { value } => OpKind::PacStrip {
                value: slot(*value),
            },
            Inst::SetDef { ptr, def_id } => OpKind::SetDef {
                ptr: slot(*ptr),
                def_id: *def_id,
            },
            Inst::ChkDef { ptr, allowed } => OpKind::ChkDef {
                ptr: slot(*ptr),
                allowed: allowed.clone().into_boxed_slice(),
            },
            Inst::Br {
                cond,
                then_bb,
                else_bb,
            } => OpKind::Br {
                cond: slot(*cond),
                then_bb: *then_bb,
                else_bb: *else_bb,
                then_pl: prologue_index(preds, bb, *then_bb),
                else_pl: prologue_index(preds, bb, *else_bb),
            },
            Inst::Jmp { target } => OpKind::Jmp {
                target: *target,
                chained: false,
                pl: prologue_index(preds, bb, *target),
            },
            // A void `ret` returns 0: the ret's own (void) slot is
            // zero-initialized and never written, so reading it yields
            // exactly that without an Option in the op.
            Inst::Ret { value } => OpKind::Ret {
                value: value.map(slot).unwrap_or(iv.0),
            },
            Inst::Unreachable => OpKind::Unreachable,
        };
        let terminator = inst.is_terminator();
        let jmp_target = if let Inst::Jmp { target } = inst {
            Some(*target)
        } else {
            None
        };
        ops.push(DecodedOp {
            iv,
            mn: op_class(inst),
            kind,
        });
        if terminator {
            // Anything after the first executed terminator is dead in the
            // legacy interpreter too (it `continue`s/returns); stop here so
            // a chained Jmp is always the last op of its block's run.
            return jmp_target.map(|t| (ops.len() - 1, t));
        }
    }
    None
}

/// Decode the superblock headed at `head`: the head block's ops, chained
/// through unconditional `jmp`s subject to the barrier/cycle/length rules.
fn decode_superblock(
    module: &Module,
    dm: &DecodedModule,
    fid: FuncId,
    head: BlockId,
) -> DecodedBlock {
    let f = module.func(fid);
    let df = &dm.funcs[fid.0 as usize];
    let prologues: Box<[PhiPrologue]> = df.preds[head.0 as usize]
        .iter()
        .map(|&p| prologue_for_pred(f, head, p))
        .collect();
    let entry = entry_prologue(f, head);

    let mut ops = Vec::new();
    let mut chain = vec![head];
    let mut cur = head;
    loop {
        let jmp = emit_block(dm, f, fid, cur, &mut ops);
        let Some((jmp_idx, target)) = jmp else { break };
        if chain.len() >= MAX_CHAIN
            || chain.contains(&target)
            || df.barrier[cur.0 as usize]
            || df.barrier[target.0 as usize]
        {
            break;
        }
        if let OpKind::Jmp { chained, .. } = &mut ops[jmp_idx].kind {
            *chained = true;
        }
        ops.push(DecodedOp {
            // Not an instruction; the id is never metered or traced.
            iv: ValueId(u32::MAX),
            mn: 0,
            kind: OpKind::Enter {
                pred: cur,
                block: target,
                prologue: Box::new(prologue_for_pred(f, target, cur)),
            },
        });
        chain.push(target);
        cur = target;
    }

    DecodedBlock {
        prologues,
        entry,
        ops: ops.into_boxed_slice(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pythia_analysis::{SliceContext, VulnerabilityReport};
    use pythia_passes::{instrument_with, Scheme};
    use pythia_workloads::{generate, nginx_module, SPEC_PROFILES};

    /// `op_class` names each instruction's own mnemonic: one instance of
    /// every `Inst` variant (every `BinOp` and `CastKind`), then every
    /// instruction of the 17 standard modules under all four schemes.
    #[test]
    fn op_class_names_every_instructions_mnemonic() {
        let v = ValueId(0);
        let casts = [
            CastKind::Zext,
            CastKind::Sext,
            CastKind::Trunc,
            CastKind::PtrToInt,
            CastKind::IntToPtr,
            CastKind::Bitcast,
        ];
        let mut insts: Vec<Inst> = BinOp::ALL
            .iter()
            .map(|&op| Inst::Bin { op, lhs: v, rhs: v })
            .chain(casts.iter().map(|&kind| Inst::Cast {
                kind,
                value: v,
                to: Ty::I64,
            }))
            .collect();
        insts.extend([
            Inst::Alloca {
                elem: Ty::I64,
                count: 1,
            },
            Inst::Load { ptr: v },
            Inst::Store { ptr: v, value: v },
            Inst::Gep {
                base: v,
                index: v,
                elem: Ty::I64,
            },
            Inst::FieldAddr { base: v, field: 0 },
            Inst::Icmp {
                pred: CmpPred::Eq,
                lhs: v,
                rhs: v,
            },
            Inst::Select {
                cond: v,
                on_true: v,
                on_false: v,
            },
            Inst::Phi { incomings: vec![] },
            Inst::Call {
                callee: Callee::Indirect(v),
                args: vec![],
            },
            Inst::PacSign {
                value: v,
                key: PaKey::Da,
                modifier: v,
            },
            Inst::PacAuth {
                value: v,
                key: PaKey::Da,
                modifier: v,
            },
            Inst::PacStrip { value: v },
            Inst::SetDef { ptr: v, def_id: 1 },
            Inst::ChkDef {
                ptr: v,
                allowed: vec![],
            },
            Inst::Br {
                cond: v,
                then_bb: BlockId(0),
                else_bb: BlockId(0),
            },
            Inst::Jmp { target: BlockId(0) },
            Inst::Ret { value: None },
            Inst::Unreachable,
        ]);
        let classes: std::collections::BTreeSet<u8> = insts.iter().map(op_class).collect();
        assert_eq!(classes.len(), N_MNEMONICS, "every class is some variant's");
        for inst in &insts {
            assert_eq!(MNEMONICS[op_class(inst) as usize], inst.mnemonic());
        }

        let modules = SPEC_PROFILES.iter().map(generate).chain([nginx_module(60)]);
        let mut checked = 0;
        for m in modules {
            let ctx = SliceContext::new(&m);
            let report = VulnerabilityReport::analyze(&ctx);
            for scheme in Scheme::ALL {
                let inst = instrument_with(&m, &ctx, &report, scheme).module;
                for f in inst.functions() {
                    for bb in f.block_ids() {
                        for i in f.block(bb).insts.iter().filter_map(|&iv| f.inst(iv)) {
                            assert_eq!(
                                MNEMONICS[op_class(i) as usize],
                                i.mnemonic(),
                                "{}/{}: {}",
                                m.name,
                                scheme.name(),
                                f.name
                            );
                            checked += 1;
                        }
                    }
                }
            }
        }
        assert!(checked > 100_000, "only {checked} instructions checked");
    }

    /// `main(x)`: a stack slot's address as the modifier, one sign of `x`
    /// and then `auth` (a `pacauth` line, or any other line) before the
    /// return of `%4 + 1`.
    fn pair_module(sign_key: &str, auth: &str) -> Module {
        let src = format!(
            "module \"pair\"\n\nfunc @main(i64) -> i64 {{\nbb0:\n  \
             %1 = alloca i64 x 1\n  %2 = ptrtoint %1 to i64\n  \
             %3 = pacsign %0, {sign_key}, %2 : i64\n  {auth}\n  \
             %5 = add %4, 1:i64 : i64\n  ret %5\n}}\n"
        );
        pythia_ir::parser::parse_module(&src).expect("pair module parses")
    }

    /// The decoded ops of `main`'s entry superblock.
    fn entry_ops(m: &Module) -> Vec<OpKind> {
        let dm = DecodedModule::eager(m);
        dm.block(m, FuncId(0), BlockId(0))
            .ops
            .iter()
            .map(|o| o.kind.clone())
            .collect()
    }

    fn fused(m: &Module) -> bool {
        entry_ops(m)
            .iter()
            .any(|k| matches!(k, OpKind::PacSignAuth { .. }))
    }

    /// `m`'s run of `main(41)` under `cfg` on both engines, which must
    /// agree on the result, the trace and the PA context's memo-visible
    /// answers; returns the block engine's result and trace.
    fn run_both(m: &Module, cfg: &crate::VmConfig) -> (crate::RunResult, Vec<crate::TraceEvent>) {
        let runs: Vec<_> = [crate::Engine::Legacy, crate::Engine::Block]
            .into_iter()
            .map(|engine| {
                let cfg = crate::VmConfig {
                    engine,
                    inline_exec: true,
                    ..cfg.clone()
                };
                let mut vm = crate::Vm::new(m, cfg, crate::InputPlan::benign(1));
                let r = vm.run("main", &[41]).expect("pair module runs");
                (r, vm.trace().to_vec())
            })
            .collect();
        let [(lr, lt), (br, bt)] = <[_; 2]>::try_from(runs).expect("two engines");
        assert_eq!(lr.exit, br.exit, "exit");
        assert_eq!(lr.metrics, br.metrics, "metrics");
        assert_eq!(lr.profile, br.profile, "profile");
        assert_eq!(lt, bt, "trace");
        (br, bt)
    }

    fn traced() -> crate::VmConfig {
        crate::VmConfig {
            trace_limit: 100,
            ..crate::VmConfig::default()
        }
    }

    #[test]
    fn a_sign_and_the_auth_of_its_result_fuse_and_trace_both() {
        let m = pair_module("da", "%4 = pacauth %3, da, %2 : i64");
        assert!(fused(&m));
        let (r, trace) = run_both(&m, &traced());
        assert_eq!(r.exit, crate::ExitReason::Returned(42));
        let pa: Vec<(u32, &str)> = trace
            .iter()
            .filter(|e| e.mnemonic.starts_with("pac"))
            .map(|e| (e.value.0, e.mnemonic))
            .collect();
        assert_eq!(pa, [(3, "pacsign"), (4, "pacauth")]);
        assert_eq!((r.metrics.pa_insts, r.metrics.pa_sites), (2, 2));
        assert_eq!((r.profile.pa.signs, r.profile.pa.auths), (1, 1));
        assert_eq!(r.profile.pa.by_key.get("da"), Some(&2));
    }

    #[test]
    fn a_budget_that_ends_between_the_fused_sign_and_auth_traps_at_the_auth() {
        let m = pair_module("da", "%4 = pacauth %3, da, %2 : i64");
        // alloca, ptrtoint, pacsign: the auth is the fourth instruction.
        for max_insts in [2, 3, 4] {
            let cfg = crate::VmConfig {
                max_insts,
                ..traced()
            };
            let (r, trace) = run_both(&m, &cfg);
            assert_eq!(
                r.exit,
                crate::ExitReason::Trapped(crate::Trap::InstBudgetExhausted)
            );
            assert_eq!(r.metrics.insts, max_insts);
            assert_eq!(trace.len() as u64, max_insts);
            assert_eq!(r.metrics.pa_insts, max_insts.saturating_sub(2));
        }
    }

    #[test]
    fn pairs_that_differ_in_modifier_value_key_or_place_do_not_fuse() {
        let cases = [
            ("da", "%4 = pacauth %3, da, 7:i64 : i64"),
            ("da", "%4 = pacauth %0, da, %2 : i64"),
            ("da", "%4 = pacauth %3, db, %2 : i64"),
            ("ga", "%4 = pacauth %3, ga, %2 : i64"),
            (
                "da",
                "%6 = add %3, 0:i64 : i64\n  %4 = pacauth %3, da, %2 : i64",
            ),
            ("da", "%4 = pacstrip %3 : i64"),
        ];
        for (key, auth) in cases {
            let m = pair_module(key, auth);
            assert!(!fused(&m), "{key} / {auth}");
            run_both(&m, &traced());
        }
        // A sign whose modifier is its own result: decode never fuses it.
        let mut m = pair_module("da", "%4 = pacauth %3, da, %3 : i64");
        let f = m.func_mut(FuncId(0));
        if let Some(Inst::PacSign { modifier, .. }) = f.inst_mut(ValueId(3)) {
            *modifier = ValueId(3);
        }
        assert!(!fused(&m));
    }

    #[test]
    fn the_fused_pair_runs_like_the_legacy_engine_under_every_config() {
        let m = pair_module("da", "%4 = pacauth %3, da, %2 : i64");
        for profile in [false, true] {
            for trace_limit in [0, 3, 4, 100] {
                let cfg = crate::VmConfig {
                    seed: 5 + trace_limit,
                    profile,
                    trace_limit,
                    ..crate::VmConfig::default()
                };
                let (r, trace) = run_both(&m, &cfg);
                assert_eq!(r.exit, crate::ExitReason::Returned(42));
                assert_eq!(trace.len() as u64, trace_limit.min(6));
            }
        }
    }

    /// Every `br`/`jmp` of every decoded superblock of the 17 standard
    /// modules under all four schemes names the prologue that a search
    /// of the target's `(predecessor, prologue)` list would find for the
    /// branch's own block, or none exactly when that search finds none.
    #[test]
    fn branch_prologue_indices_match_a_predecessor_search() {
        let modules = SPEC_PROFILES.iter().map(generate).chain([nginx_module(60)]);
        let mut checked = 0;
        for m in modules {
            let ctx = SliceContext::new(&m);
            let report = VulnerabilityReport::analyze(&ctx);
            for scheme in Scheme::ALL {
                let inst = instrument_with(&m, &ctx, &report, scheme).module;
                let dm = DecodedModule::eager(&inst);
                for fid in inst.func_ids() {
                    let f = inst.func(fid);
                    let df = &dm.funcs[fid.0 as usize];
                    for head in f.block_ids() {
                        let mut own = head;
                        for op in dm.block(&inst, fid, head).ops.iter() {
                            let edges = match op.kind {
                                OpKind::Enter { block, .. } => {
                                    own = block;
                                    continue;
                                }
                                OpKind::Br {
                                    then_bb,
                                    else_bb,
                                    then_pl,
                                    else_pl,
                                    ..
                                } => vec![(then_bb, then_pl), (else_bb, else_pl)],
                                OpKind::Jmp {
                                    target,
                                    chained: false,
                                    pl,
                                } => vec![(target, pl)],
                                _ => continue,
                            };
                            for (target, pl) in edges {
                                let keyed: Vec<(u32, PhiPrologue)> = df.preds[target.0 as usize]
                                    .iter()
                                    .map(|&p| (p.0, prologue_for_pred(f, target, p)))
                                    .collect();
                                let searched = keyed.iter().find(|(b, _)| *b == own.0);
                                let indexed =
                                    dm.block(&inst, fid, target).prologues.get(pl as usize);
                                assert_eq!(
                                    searched.map(|(_, p)| format!("{p:?}")),
                                    indexed.map(|p| format!("{p:?}")),
                                    "{}/{}: {} bb{} -> bb{}",
                                    m.name,
                                    scheme.name(),
                                    f.name,
                                    own.0,
                                    target.0
                                );
                                assert_eq!(searched.is_none(), pl == NO_PROLOGUE);
                                checked += 1;
                            }
                        }
                    }
                }
            }
        }
        assert!(checked > 10_000, "only {checked} edges checked");
    }
}
