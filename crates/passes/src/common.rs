//! Shared helpers for the instrumentation passes.

use crate::plan::{EditKind, ObligationPlan};
use pythia_analysis::{object_byte_size, ObjId, SliceContext};
use pythia_ir::{FuncId, Inst, PaKey, ValueId};
use std::collections::BTreeSet;

/// Compute the *stably signable* subset of `candidates`.
///
/// A memory object can carry PAC-signed values only if every load/store of
/// it moves a full 64-bit slot (a PAC does not fit in a narrower value),
/// and only if every access that may touch it can be instrumented
/// consistently — i.e. the access's points-to set stays inside the signed
/// set (otherwise a signed store could land in an unsigned object or vice
/// versa and desynchronize sign/auth pairs). This iterates to a fixpoint,
/// dropping objects that would break consistency.
pub fn stable_signable(ctx: &SliceContext<'_>, candidates: &BTreeSet<ObjId>) -> BTreeSet<ObjId> {
    let m = ctx.module;
    let mut set: BTreeSet<ObjId> = candidates
        .iter()
        .copied()
        .filter(|&o| {
            // Only single-slot (8-byte) objects are signable: the post-IC
            // re-signing covers exactly one slot, so a larger object would
            // leave raw slots that fail authentication on benign runs.
            if object_byte_size(ctx, o) != Some(8) {
                return false;
            }
            let all_loads_8 = ctx
                .loads_of(o)
                .iter()
                .all(|&(fid, ld)| m.func(fid).value(ld).ty.size() == 8);
            let all_stores_8 =
                ctx.stores_of(o)
                    .iter()
                    .all(|&(fid, st)| match m.func(fid).inst(st) {
                        Some(Inst::Store { value, .. }) => m.func(fid).value(*value).ty.size() == 8,
                        _ => false,
                    });
            all_loads_8 && all_stores_8
        })
        .collect();

    loop {
        let mut drop: Vec<ObjId> = Vec::new();
        for &o in &set {
            let consistent = |fid: FuncId, ptr: ValueId| {
                let pts = ctx.points_to.points_to(fid, ptr);
                !pts.unknown && pts.objects.iter().all(|q| set.contains(q))
            };
            let loads_ok = ctx.loads_of(o).iter().all(|&(fid, ld)| {
                matches!(m.func(fid).inst(ld), Some(Inst::Load { ptr }) if consistent(fid, *ptr))
            });
            let stores_ok = ctx.stores_of(o).iter().all(|&(fid, st)| {
                matches!(m.func(fid).inst(st), Some(Inst::Store { ptr, .. }) if consistent(fid, *ptr))
            });
            if !(loads_ok && stores_ok) {
                drop.push(o);
            }
        }
        if drop.is_empty() {
            break;
        }
        for o in drop {
            set.remove(&o);
        }
    }
    set
}

/// The accesses (loads, stores) of the given object set, grouped per
/// function, each access listed once.
pub struct AccessPlan {
    /// `(function, load instruction, pointer operand)`
    pub loads: Vec<(FuncId, ValueId, ValueId)>,
    /// `(function, store instruction, pointer operand, value operand)`
    pub stores: Vec<(FuncId, ValueId, ValueId, ValueId)>,
}

/// Collect unique accesses of every object in `objs` whose points-to set
/// stays within `objs`.
pub fn collect_accesses(ctx: &SliceContext<'_>, objs: &BTreeSet<ObjId>) -> AccessPlan {
    let m = ctx.module;
    let mut seen_loads: BTreeSet<(FuncId, ValueId)> = BTreeSet::new();
    let mut seen_stores: BTreeSet<(FuncId, ValueId)> = BTreeSet::new();
    let mut plan = AccessPlan {
        loads: Vec::new(),
        stores: Vec::new(),
    };
    for &o in objs {
        for &(fid, ld) in ctx.loads_of(o) {
            if !seen_loads.insert((fid, ld)) {
                continue;
            }
            if let Some(Inst::Load { ptr }) = m.func(fid).inst(ld) {
                plan.loads.push((fid, ld, *ptr));
            }
        }
        for &(fid, st) in ctx.stores_of(o) {
            if !seen_stores.insert((fid, st)) {
                continue;
            }
            if let Some(Inst::Store { ptr, value }) = m.func(fid).inst(st) {
                plan.stores.push((fid, st, *ptr, *value));
            }
        }
    }
    plan
}

/// Require a `pacsign` of the written value before every store and a
/// `pacauth` of the result after every load in `accesses`, under `key`
/// with the access's pointer as the modifier.
pub(crate) fn sign_accesses(accesses: &AccessPlan, key: PaKey, plan: &mut ObligationPlan) {
    for &(fid, st, ptr, value) in &accesses.stores {
        plan.push(fid, st, EditKind::SignStore { key, ptr, value });
        plan.stats.pa_signs += 1;
    }
    for &(fid, ld, ptr) in &accesses.loads {
        plan.push(fid, ld, EditKind::AuthLoad { key, ptr });
        plan.stats.pa_auths += 1;
    }
}

/// For every memory-writing input channel whose destination lies in the
/// signed object set, require `v = load dest; store pacsign(v, key, dest)`
/// *after* the channel call. Input channels write raw bytes; without this
/// re-signing, the next authenticated load of a legitimately-written
/// variable would trap (the paper's CPA accounting includes exactly this
/// "encryption at store after the input channel" step, §6.2).
pub(crate) fn resign_after_ics(
    ctx: &SliceContext<'_>,
    signed: &BTreeSet<ObjId>,
    key: PaKey,
    plan: &mut ObligationPlan,
) {
    for site in &ctx.channels.sites {
        if !site.writes_memory() {
            continue;
        }
        let Some(dest) = site.dest_ptr(ctx.module) else {
            continue;
        };
        let pts = ctx.points_to.points_to(site.func, dest);
        if pts.unknown || pts.objects.is_empty() {
            continue;
        }
        if !pts.objects.iter().all(|o| signed.contains(o)) {
            continue;
        }
        plan.push(site.func, site.call, EditKind::ResignAfterIc { key, dest });
        plan.stats.pa_signs += 1;
    }
}
