//! Data-Flow Integrity instrumentation (Castro et al., OSDI'06 — the
//! paper's state-of-the-art comparison, §7).
//!
//! Every store that may write a protected object is tagged with a
//! definition id (`setdef`); every load of a protected object checks that
//! the last writer of its slot belongs to the load's *static* set of
//! legitimate reaching writers (`chkdef`). Memory-writing input channels
//! count as writers of the objects they are statically allowed to write —
//! the VM tags their writes with [`dfi_def_id`] of the call site, so a
//! legitimate `gets(buf)` passes `buf`'s checks while its overflow into a
//! *different* object trips that object's check.
//!
//! The protected set is the union of DFI-mode backward slices, which —
//! faithfully to the paper's critique — terminates at pointer arithmetic
//! and field accesses, leaving those branches unprotected (Fig. 7b).

use crate::plan::{EditKind, ObligationPlan};
use crate::stats::Scheme;
use pythia_analysis::{SliceContext, SliceMode, VulnerabilityReport};
use pythia_ir::{dfi_def_id, FuncId, Inst, ValueId};
use std::collections::BTreeSet;

/// Derive DFI's obligations: a `setdef` after every store and a `chkdef`
/// before every load that may touch a protected object.
///
/// All queries run against the **field-insensitive** relation
/// ([`SliceMode::Dfi`]): the paper's DFI does not distinguish struct
/// fields, and its protected set comes from DFI-mode slices whose object
/// ids are field-insensitive roots.
pub(crate) fn derive(ctx: &SliceContext<'_>, report: &VulnerabilityReport) -> ObligationPlan {
    const MODE: SliceMode = SliceMode::Dfi;
    let mut plan = ObligationPlan::empty(Scheme::Dfi, report);
    let protected = &report.dfi_objects;
    let mut done_stores: BTreeSet<(FuncId, ValueId)> = BTreeSet::new();
    let mut done_loads: BTreeSet<(FuncId, ValueId)> = BTreeSet::new();

    for &o in protected.iter() {
        // Instrument every store that may write the object.
        for &(fid, st) in ctx.stores_of_in(MODE, o) {
            if !done_stores.insert((fid, st)) {
                continue;
            }
            let ptr = match ctx.module.func(fid).inst(st) {
                Some(Inst::Store { ptr, .. }) => *ptr,
                _ => continue,
            };
            let def_id = dfi_def_id(fid, st);
            plan.push(fid, st, EditKind::SetDef { ptr, def_id });
            plan.stats.setdefs += 1;
        }

        // Guard every load with the static reaching-writer set.
        for &(fid, ld) in ctx.loads_of_in(MODE, o) {
            if !done_loads.insert((fid, ld)) {
                continue;
            }
            let ptr = match ctx.module.func(fid).inst(ld) {
                Some(Inst::Load { ptr }) => *ptr,
                _ => continue,
            };
            // Allowed writers: stores and write-channels of every protected
            // object this pointer may reference.
            let pts = ctx.relation(MODE).points_to(fid, ptr);
            let mut allowed: BTreeSet<u32> = BTreeSet::new();
            for &q in pts.objects.iter().filter(|q| protected.contains(q)) {
                for &(sf, sv) in ctx.stores_of_in(MODE, q) {
                    allowed.insert(dfi_def_id(sf, sv));
                }
                for site in ctx.ics_writing_in(MODE, q) {
                    allowed.insert(dfi_def_id(site.func, site.call));
                }
            }
            let allowed = allowed.into_iter().collect();
            plan.push(fid, ld, EditKind::ChkDef { ptr, allowed });
            plan.stats.chkdefs += 1;
        }
    }
    plan.stats.protected_objects = protected.len();
    plan
}
