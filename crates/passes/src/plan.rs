//! Obligations as data: each scheme's instrumentation, first derived as a
//! list of edits, then applied.
//!
//! The paper states Algorithms 2–4 and the Eq. 1/Eq. 5 cost models as
//! per-variable obligation sets. [`ObligationPlan::derive`] writes that set
//! down: it reads only the analysis (never a module copy) and lists every
//! edit the scheme requires — its function, the existing instruction it is
//! placed against, and its kind — together with the
//! [`InstrumentationStats`] counters. Counting a scheme's static PA
//! instructions is therefore reading a derived plan, and
//! [`ObligationPlan::apply`] is the only code that builds a module.
//!
//! Edits are listed in the order they create new values, so applying a
//! plan numbers every inserted instruction the same way each time.

use crate::editor::EditPlan;
use crate::stats::{InstrumentationStats, Scheme};
use crate::{cpa, dfi, pythia, Instrumented, PythiaConfig};
use pythia_analysis::{SliceContext, VulnerabilityReport};
use pythia_ir::{
    Callee, CastKind, FuncId, Function, Inst, Intrinsic, Module, PaKey, Ty, ValueData, ValueId,
    ValueKind,
};
use std::collections::HashMap;

/// Which side of its anchor an edit's new instructions go.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Side {
    /// Immediately before the anchor.
    Before,
    /// Immediately after the anchor.
    After,
}

/// What one edit does at its anchor.
#[derive(Debug)]
pub(crate) enum EditKind {
    /// Sign the value the anchor store writes (`pacsign(value, key, ptr)`
    /// before it), so the slot holds a PAC-carrying value.
    SignStore {
        key: PaKey,
        /// The store's pointer operand, the PA modifier.
        ptr: ValueId,
        /// The value the store writes.
        value: ValueId,
    },
    /// Authenticate the anchor load's result right after it
    /// (`pacauth(ld, key, ptr)`); every other use reads the authenticated
    /// value.
    AuthLoad {
        key: PaKey,
        /// The load's pointer operand, the PA modifier.
        ptr: ValueId,
    },
    /// Eq. 1's per-variable signing: sign `value` and authenticate it again
    /// on `side` of the anchor (after the definition, or before the first
    /// non-phi of a phi's block); every other use reads the authenticated
    /// value.
    SignValue { value: ValueId, side: Side },
    /// After the anchor input-channel call, reload its 8-byte destination
    /// and store it back signed: the channel wrote raw bytes into a signed
    /// slot.
    ResignAfterIc {
        key: PaKey,
        /// The channel's destination pointer.
        dest: ValueId,
    },
    /// Alg. 3's frame: one canary alloca per vulnerable buffer, and the
    /// entry block's allocas re-laid out. The anchor is the entry block's
    /// first non-alloca instruction.
    Frame {
        /// The vulnerable buffers, each of which gets a canary.
        buffers: Vec<ValueId>,
        /// Place each canary directly above its buffer, above every
        /// innocent local. Off (the `abl-relayout` ablation): keep the
        /// frame order and append the canaries.
        adjacent: bool,
    },
    /// Store a fresh signed random value into `buffer`'s canary before the
    /// anchor.
    RandomizeCanary { buffer: ValueId },
    /// Load and authenticate `buffer`'s canary on `side` of the anchor.
    CheckCanary { buffer: ValueId, side: Side },
    /// Redirect the anchor `malloc` call into the isolated heap section.
    SecureMalloc,
    /// Call `heap_section_init()` at the head of the entry function's entry
    /// block, ahead of everything other edits place there; the anchor is
    /// that block's first instruction.
    SectionInit,
    /// Tag the anchor store's slot with its definition id, after it.
    SetDef {
        /// The store's pointer operand.
        ptr: ValueId,
        /// The store's DFI definition id.
        def_id: u32,
    },
    /// Check the last writer of the anchor load's slot, before it.
    ChkDef {
        /// The load's pointer operand.
        ptr: ValueId,
        /// Definition ids allowed to have written the slot.
        allowed: Vec<u32>,
    },
}

impl EditKind {
    /// Pythia's frame edits are applied as one batch before the heap
    /// edits, and the section-init call after both, so that where two
    /// edits share an anchor (an input-channel call, the entry block's
    /// head) their code lands in a fixed order.
    fn round(&self) -> u8 {
        match self {
            EditKind::Frame { .. }
            | EditKind::RandomizeCanary { .. }
            | EditKind::CheckCanary { .. } => 0,
            EditKind::SectionInit => 2,
            _ => 1,
        }
    }
}

/// One required edit: the function it is in, the existing instruction it
/// is placed against, and what it does there.
#[derive(Debug)]
struct Edit {
    func: FuncId,
    anchor: ValueId,
    kind: EditKind,
}

/// A scheme's obligations over one analysis: every edit, in application
/// order, plus the counters the instrumented module will report.
#[derive(Debug)]
pub struct ObligationPlan {
    /// The scheme the plan implements.
    scheme: Scheme,
    /// The edits, in the order [`ObligationPlan::apply`] carries them out.
    edits: Vec<Edit>,
    /// What the edits add up to; `insts_before`/`insts_after` stay zero.
    pub(crate) stats: InstrumentationStats,
}

impl ObligationPlan {
    /// An empty plan for `scheme` over `report`.
    pub(crate) fn empty(scheme: Scheme, report: &VulnerabilityReport) -> Self {
        ObligationPlan {
            scheme,
            edits: Vec::new(),
            stats: InstrumentationStats {
                obligations_pruned: report.pruned.total(),
                ..Default::default()
            },
        }
    }

    /// Derive `scheme`'s obligations from an analysis, without touching a
    /// module.
    pub fn derive(ctx: &SliceContext<'_>, report: &VulnerabilityReport, scheme: Scheme) -> Self {
        match scheme {
            Scheme::Vanilla => Self::empty(scheme, report),
            Scheme::Cpa => cpa::derive(ctx, report),
            Scheme::Pythia => pythia::derive(ctx, report, PythiaConfig::default()),
            Scheme::Dfi => dfi::derive(ctx, report),
        }
    }

    /// What the edits add up to: the counters the instrumented module
    /// reports, except the module sizes `insts_before`/`insts_after`,
    /// which [`ObligationPlan::apply`] fills in and are zero here.
    pub fn stats(&self) -> &InstrumentationStats {
        &self.stats
    }

    /// Queue an edit.
    pub(crate) fn push(&mut self, func: FuncId, anchor: ValueId, kind: EditKind) {
        self.edits.push(Edit { func, anchor, kind });
    }

    /// Instrument a clone of `m` (the module the plan was derived from)
    /// with this plan.
    pub fn apply(&self, m: &Module) -> Instrumented {
        let mut out = m.clone();
        let mut pending: HashMap<FuncId, EditPlan> = HashMap::new();
        let mut canaries: HashMap<(FuncId, ValueId), ValueId> = HashMap::new();
        let mut zeros: HashMap<FuncId, ValueId> = HashMap::new();
        let mut round = 0;
        for e in &self.edits {
            if e.kind.round() != round {
                flush(&mut out, &mut pending);
                round = e.kind.round();
            }
            let f = out.func_mut(e.func);
            let at = e.anchor;
            match &e.kind {
                EditKind::SignStore { key, ptr, value } => {
                    let sign = pac_sign(f, *value, *key, *ptr, Ty::I64);
                    if let Some(Inst::Store { value: v, .. }) = f.inst_mut(at) {
                        *v = sign;
                    }
                    pending.entry(e.func).or_default().insert_before(at, sign);
                }
                EditKind::AuthLoad { key, ptr } => {
                    let ty = f.value(at).ty.clone();
                    let auth = pac_auth(f, at, *key, *ptr, ty);
                    let p = pending.entry(e.func).or_default();
                    p.insert_after(at, auth);
                    p.replace_uses(at, auth, &[auth]);
                }
                EditKind::SignValue { value, side } => {
                    let zero = *zeros.entry(e.func).or_insert_with(|| {
                        f.add_value(ValueData {
                            kind: ValueKind::ConstInt(0),
                            ty: Ty::I64,
                            name: None,
                        })
                    });
                    let ty = f.value(*value).ty.clone();
                    let sign = pac_sign(f, *value, PaKey::Da, zero, ty.clone());
                    let auth = pac_auth(f, sign, PaKey::Da, zero, ty);
                    let p = pending.entry(e.func).or_default();
                    insert(p, *side, at, &[sign, auth]);
                    p.replace_uses(*value, auth, &[sign, auth]);
                }
                EditKind::ResignAfterIc { key, dest } => {
                    // View the (8-byte) destination as an i64 slot for the
                    // round trip.
                    let slot = EditPlan::new_inst(
                        f,
                        Inst::Cast {
                            kind: CastKind::Bitcast,
                            value: *dest,
                            to: Ty::ptr(Ty::I64),
                        },
                        Ty::ptr(Ty::I64),
                    );
                    let ld = EditPlan::new_inst(f, Inst::Load { ptr: slot }, Ty::I64);
                    let sign = pac_sign(f, ld, *key, slot, Ty::I64);
                    let st = EditPlan::new_inst(
                        f,
                        Inst::Store {
                            ptr: slot,
                            value: sign,
                        },
                        Ty::Void,
                    );
                    insert(
                        pending.entry(e.func).or_default(),
                        Side::After,
                        at,
                        &[slot, ld, sign, st],
                    );
                }
                EditKind::Frame { buffers, adjacent } => {
                    let mut pairs = Vec::with_capacity(buffers.len());
                    for &buf in buffers {
                        let can = EditPlan::new_inst(
                            f,
                            Inst::Alloca {
                                elem: Ty::I64,
                                count: 1,
                            },
                            Ty::ptr(Ty::I64),
                        );
                        canaries.insert((e.func, buf), can);
                        pairs.push((buf, can));
                    }
                    relayout(f, &pairs, *adjacent);
                }
                EditKind::RandomizeCanary { buffer } => {
                    let can = canaries[&(e.func, *buffer)];
                    let rnd = EditPlan::new_inst(
                        f,
                        Inst::Call {
                            callee: Callee::Intrinsic(Intrinsic::PythiaRandom),
                            args: vec![],
                        },
                        Ty::I64,
                    );
                    let sign = pac_sign(f, rnd, PaKey::Ga, can, Ty::I64);
                    let st = EditPlan::new_inst(
                        f,
                        Inst::Store {
                            ptr: can,
                            value: sign,
                        },
                        Ty::Void,
                    );
                    insert(
                        pending.entry(e.func).or_default(),
                        Side::Before,
                        at,
                        &[rnd, sign, st],
                    );
                }
                EditKind::CheckCanary { buffer, side } => {
                    let can = canaries[&(e.func, *buffer)];
                    let ld = EditPlan::new_inst(f, Inst::Load { ptr: can }, Ty::I64);
                    let auth = pac_auth(f, ld, PaKey::Ga, can, Ty::I64);
                    insert(pending.entry(e.func).or_default(), *side, at, &[ld, auth]);
                }
                EditKind::SecureMalloc => {
                    if let Some(Inst::Call { callee, .. }) = f.inst_mut(at) {
                        *callee = Callee::Intrinsic(Intrinsic::SecureMalloc);
                    }
                }
                EditKind::SectionInit => {
                    let call = EditPlan::new_inst(
                        f,
                        Inst::Call {
                            callee: Callee::Intrinsic(Intrinsic::HeapSectionInit),
                            args: vec![],
                        },
                        Ty::Void,
                    );
                    let entry = f.entry();
                    f.block_mut(entry).insts.insert(0, call);
                }
                EditKind::SetDef { ptr, def_id } => {
                    let sd = EditPlan::new_inst(
                        f,
                        Inst::SetDef {
                            ptr: *ptr,
                            def_id: *def_id,
                        },
                        Ty::Void,
                    );
                    pending.entry(e.func).or_default().insert_after(at, sd);
                }
                EditKind::ChkDef { ptr, allowed } => {
                    let chk = EditPlan::new_inst(
                        f,
                        Inst::ChkDef {
                            ptr: *ptr,
                            allowed: allowed.clone(),
                        },
                        Ty::Void,
                    );
                    pending.entry(e.func).or_default().insert_before(at, chk);
                }
            }
        }
        flush(&mut out, &mut pending);

        let stats = InstrumentationStats {
            insts_before: m.num_insts(),
            insts_after: out.num_insts(),
            ..self.stats
        };
        // Instrumentation must never produce ill-formed IR; catch it at the
        // source in debug builds rather than as a VM misbehaviour later.
        debug_assert!(
            pythia_ir::verify::verify_module(&out).is_ok(),
            "{} produced IR that does not verify: {:?}",
            self.scheme,
            pythia_ir::verify::verify_module(&out).err().map(|e| e
                .into_iter()
                .take(3)
                .map(|x| x.to_string())
                .collect::<Vec<_>>())
        );
        Instrumented {
            module: out,
            stats,
            scheme: self.scheme,
        }
    }
}

/// Apply and clear every queued per-function edit batch.
fn flush(out: &mut Module, pending: &mut HashMap<FuncId, EditPlan>) {
    for (fid, plan) in pending.drain() {
        plan.apply(out.func_mut(fid));
    }
}

/// Queue `new`, in order, on `side` of `anchor`.
fn insert(plan: &mut EditPlan, side: Side, anchor: ValueId, new: &[ValueId]) {
    for &v in new {
        match side {
            Side::Before => plan.insert_before(anchor, v),
            Side::After => plan.insert_after(anchor, v),
        }
    }
}

fn pac_sign(f: &mut Function, value: ValueId, key: PaKey, modifier: ValueId, ty: Ty) -> ValueId {
    EditPlan::new_inst(
        f,
        Inst::PacSign {
            value,
            key,
            modifier,
        },
        ty,
    )
}

fn pac_auth(f: &mut Function, value: ValueId, key: PaKey, modifier: ValueId, ty: Ty) -> ValueId {
    EditPlan::new_inst(
        f,
        Inst::PacAuth {
            value,
            key,
            modifier,
        },
        ty,
    )
}

/// Stack re-layout: hoist the entry block's allocas to its top,
/// innocent locals first, then each vulnerable buffer immediately
/// followed by its canary (`adjacent`), or in their old order with the
/// canaries appended. Entry-block order *is* frame order.
fn relayout(f: &mut Function, pairs: &[(ValueId, ValueId)], adjacent: bool) {
    let entry = f.entry();
    let is_alloca = |f: &Function, iv: ValueId| matches!(f.inst(iv), Some(Inst::Alloca { .. }));
    let old = &f.block(entry).insts;
    let mut rebuilt: Vec<ValueId> = if adjacent {
        let mut r: Vec<ValueId> = old
            .iter()
            .copied()
            .filter(|&iv| is_alloca(f, iv) && !pairs.iter().any(|&(buf, _)| buf == iv))
            .collect();
        for &(buf, can) in pairs {
            r.push(buf);
            r.push(can);
        }
        r
    } else {
        let mut r: Vec<ValueId> = old.iter().copied().filter(|&iv| is_alloca(f, iv)).collect();
        r.extend(pairs.iter().map(|&(_, can)| can));
        r
    };
    rebuilt.extend(old.iter().copied().filter(|&iv| !is_alloca(f, iv)));
    f.block_mut(entry).insts = rebuilt;
}
