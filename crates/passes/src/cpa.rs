//! The conservative **Complete Pointer Authentication** scheme
//! (paper §4.2, Algorithm 2).
//!
//! Every vulnerable variable (the *unrefined* union of all branch
//! backslices) is PAC-signed when stored and authenticated on every load.
//! The paper phrases this as "data pointers are created for each
//! non-pointer vulnerable variable"; our memory-level realization signs
//! the 64-bit value itself with the slot address as the PA modifier, which
//! has the identical detection property (any raw overwrite fails the next
//! authentication) and the identical instruction count (one `pacsign` per
//! store, one `pacauth` per load).

use crate::common::{collect_accesses, resign_after_ics, sign_accesses, stable_signable};
use crate::plan::{EditKind, ObligationPlan, Side};
use crate::stats::Scheme;
use pythia_analysis::{SliceContext, VulnerabilityReport};
use pythia_ir::{FuncId, Inst, PaKey, Ty, ValueId};
use std::collections::HashMap;

/// Derive CPA's obligations: sign every store and authenticate every load
/// of the stably signable slot objects, sign every vulnerable SSA value,
/// and re-sign the slots input channels write.
pub(crate) fn derive(ctx: &SliceContext<'_>, report: &VulnerabilityReport) -> ObligationPlan {
    let mut plan = ObligationPlan::empty(Scheme::Cpa, report);
    let signable = stable_signable(ctx, &report.cpa_slot_objects);
    let accesses = collect_accesses(ctx, &signable);

    sign_accesses(&accesses, PaKey::Da, &mut plan);

    // A signed store writes its `pacsign` instead of the original value,
    // so that use no longer counts for Eq. 1.
    let mut signed_stores: HashMap<FuncId, Vec<(ValueId, ValueId)>> = HashMap::new();
    for &(fid, st, _, value) in &accesses.stores {
        signed_stores.entry(fid).or_default().push((st, value));
    }
    sign_ssa_variables(ctx, report, &signed_stores, &mut plan);

    resign_after_ics(ctx, &signable, PaKey::Da, &mut plan);
    plan.stats.protected_objects = signable.len();
    plan
}

/// The paper's Eq. 1 instrumentation: every vulnerable *variable* is
/// encrypted at its definition and authenticated before each use ("data
/// pointers are created for each non-pointer vulnerable variable"),
/// costing `1 + u_i` PA instructions per variable. Our register-level
/// realization signs the SSA value right after its definition and
/// authenticates before every use; semantics are preserved exactly
/// (`auth(sign(v)) == v`), only the PA work is added — which is the whole
/// point of the conservative scheme.
///
/// A value qualifies when it is a placed, 64-bit, non-memory,
/// non-terminator, non-PA instruction with at least one use left after
/// `signed_stores` (per function: `(store, value written)`) stopped
/// reading it.
fn sign_ssa_variables(
    ctx: &SliceContext<'_>,
    report: &VulnerabilityReport,
    signed_stores: &HashMap<FuncId, Vec<(ValueId, ValueId)>>,
    plan: &mut ObligationPlan,
) {
    // `cpa_sign_values` is ordered by function, then value: each run of
    // one function's values is handled with one placement and one
    // use-count pass.
    let values: Vec<(FuncId, ValueId)> = report.cpa_sign_values.iter().copied().collect();
    for run in values.chunk_by(|a, b| a.0 == b.0) {
        let fid = run[0].0;
        let f = ctx.module.func(fid);
        let home = f.placement();
        let mut uses = vec![0u32; f.num_values()];
        for v in f.value_ids() {
            if home.block_of(v).is_none() {
                continue; // only placed instructions use anything
            }
            if let Some(inst) = f.inst(v) {
                inst.for_each_operand(|op| uses[op.0 as usize] += 1);
            }
        }
        for &(st, value) in signed_stores.get(&fid).into_iter().flatten() {
            if home.block_of(st).is_some() {
                uses[value.0 as usize] -= 1;
            }
        }
        for &(_, v) in run {
            let Some(bb) = home.block_of(v) else {
                continue; // arguments/constants: no definition point
            };
            let eligible = match f.inst(v) {
                Some(inst) => {
                    !matches!(
                        inst,
                        Inst::Alloca { .. } | Inst::Load { .. } | Inst::Store { .. }
                    ) && !inst.is_terminator()
                        && !inst.is_pa()
                        && matches!(f.value(v).ty, Ty::I64 | Ty::Ptr(_))
                }
                None => false,
            };
            if !eligible || uses[v.0 as usize] == 0 {
                continue;
            }
            if matches!(f.inst(v), Some(Inst::Phi { .. })) {
                // Keep the phi group contiguous: insert before the block's
                // first non-phi.
                let anchor = f
                    .block(bb)
                    .insts
                    .iter()
                    .copied()
                    .find(|iv| !matches!(f.inst(*iv), Some(Inst::Phi { .. })))
                    .expect("block has a terminator");
                plan.push(
                    fid,
                    anchor,
                    EditKind::SignValue {
                        value: v,
                        side: Side::Before,
                    },
                );
            } else {
                plan.push(
                    fid,
                    v,
                    EditKind::SignValue {
                        value: v,
                        side: Side::After,
                    },
                );
            }
            plan.stats.pa_signs += 1;
            plan.stats.pa_auths += 1;
        }
    }
}
