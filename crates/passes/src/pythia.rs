//! The performance-aware **Pythia** scheme (paper §4.3, Algorithms 3–4):
//! stack re-layout + PA-signed canaries for vulnerable stack variables,
//! heap sectioning (+ PA on uses) for vulnerable heap allocations.
//!
//! Layout note: the paper groups vulnerable stack variables at one end of
//! the frame so overflows cannot reach non-vulnerable locals. Our VM's
//! stack grows upward and overflows write toward higher addresses, so the
//! pass moves vulnerable buffers (each followed by its canary) *above* the
//! non-vulnerable locals — the mirror image of the paper's layout with
//! identical protection semantics.
//!
//! Interprocedural note: instead of the paper's global pointer canaries,
//! canaries are additionally checked before every `ret`, so an overflow
//! triggered inside a callee is caught when the owning frame exits at the
//! latest (same detection guarantee, possibly later detection point).

use crate::common::{collect_accesses, resign_after_ics, sign_accesses, stable_signable};
use crate::plan::{EditKind, ObligationPlan, Side};
use crate::stats::Scheme;
use pythia_analysis::{MemObjectKind, SliceContext, VulnerabilityReport};
use pythia_ir::{Callee, FuncId, Inst, Intrinsic, PaKey, ValueId};
use std::collections::BTreeSet;

/// Ablation switches for the Pythia pass (all on by default; DESIGN.md §4
/// lists the ablation experiments these power).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PythiaConfig {
    /// Re-order the frame so vulnerable buffers sit above innocent locals
    /// (Alg. 3's stack re-layout). Off: canaries are appended at the top
    /// of the frame, not adjacent to their buffers.
    pub relayout: bool,
    /// Re-randomize each canary before every same-function input channel
    /// (§4.4's leak defense). Off: only the entry initialization remains.
    pub rerandomize: bool,
    /// Check canaries before returns when a writing channel lives in a
    /// callee (the interprocedural substitute for global pointer canaries).
    pub ret_checks: bool,
    /// Redirect vulnerable allocations to the isolated heap section and
    /// PA-sign their uses (Alg. 4).
    pub heap_sectioning: bool,
}

impl Default for PythiaConfig {
    fn default() -> Self {
        PythiaConfig {
            relayout: true,
            rerandomize: true,
            ret_checks: true,
            heap_sectioning: true,
        }
    }
}

/// Derive Pythia's obligations under `config`: the frame edits of every
/// function with vulnerable stack buffers, then the heap edits, then the
/// one-time heap-section initialization.
pub(crate) fn derive(
    ctx: &SliceContext<'_>,
    report: &VulnerabilityReport,
    config: PythiaConfig,
) -> ObligationPlan {
    let mut plan = ObligationPlan::empty(Scheme::Pythia, report);
    derive_stack(ctx, report, config, &mut plan);
    if config.heap_sectioning {
        derive_heap(ctx, report, &mut plan);
    }
    derive_section_init(ctx, &mut plan);
    plan
}

// ---------------------------------------------------------------------
// Stack: re-layout + canaries (Algorithm 3)
// ---------------------------------------------------------------------

fn derive_stack(
    ctx: &SliceContext<'_>,
    report: &VulnerabilityReport,
    config: PythiaConfig,
    plan: &mut ObligationPlan,
) {
    for (&fid, vulns) in &report.stack_vulns {
        if vulns.is_empty() {
            continue;
        }
        let f = ctx.module.func(fid);
        let buffers: Vec<ValueId> = vulns
            .iter()
            .map(|v| v.alloca)
            .collect::<BTreeSet<_>>()
            .into_iter()
            .collect();

        // 1. One canary per vulnerable buffer; the re-layout hoists the
        //    entry block's allocas, so its first non-alloca stays first.
        let entry = *f
            .block(f.entry())
            .insts
            .iter()
            .find(|iv| !matches!(f.inst(**iv), Some(Inst::Alloca { .. })))
            .expect("entry block has a terminator");
        plan.stats.canaries += buffers.len();
        plan.push(
            fid,
            entry,
            EditKind::Frame {
                buffers: buffers.clone(),
                adjacent: config.relayout,
            },
        );
        let rets: Vec<ValueId> = f
            .block_ids()
            .flat_map(|bb| f.block(bb).insts.iter().copied())
            .filter(|iv| matches!(f.inst(*iv), Some(Inst::Ret { .. })))
            .collect();

        // 2. Canary lifecycle: initialize at entry, re-randomize before
        //    each input-channel use, authenticate after it and before
        //    every return.
        for buffer in buffers {
            let vuln = vulns
                .iter()
                .find(|s| s.alloca == buffer)
                .expect("buffer taken from vulns");

            // Entry initialization.
            randomize(plan, fid, entry, buffer);

            // Around same-function input-channel uses.
            let mut seen_sites: BTreeSet<ValueId> = BTreeSet::new();
            for site in &vuln.ic_uses {
                if site.func != fid || !seen_sites.insert(site.call) {
                    continue;
                }
                if config.rerandomize {
                    randomize(plan, fid, site.call, buffer);
                }
                check(plan, fid, site.call, buffer, Side::After);
            }

            // Before every return — but only when some channel that can
            // write this variable lives in *another* function (the
            // interprocedural-overflow case §4.4 handles with global
            // pointer canaries; same-function channels are already
            // checked right after the call).
            let interproc = vuln.ic_uses.iter().any(|s| s.func != fid);
            if interproc && config.ret_checks {
                for &r in &rets {
                    check(plan, fid, r, buffer, Side::Before);
                }
            }
        }
    }
}

/// Require `rnd = pythia_random(); store pacsign(rnd, ga, can) -> can`
/// before `anchor`, for `buffer`'s canary.
fn randomize(plan: &mut ObligationPlan, fid: FuncId, anchor: ValueId, buffer: ValueId) {
    plan.push(fid, anchor, EditKind::RandomizeCanary { buffer });
    plan.stats.randomize_sites += 1;
    plan.stats.pa_signs += 1;
}

/// Require `pacauth(load can, ga, can)` on `side` of `anchor`, for
/// `buffer`'s canary.
fn check(plan: &mut ObligationPlan, fid: FuncId, anchor: ValueId, buffer: ValueId, side: Side) {
    plan.push(fid, anchor, EditKind::CheckCanary { buffer, side });
    plan.stats.pa_auths += 1;
}

// ---------------------------------------------------------------------
// Heap: sectioning + PA on uses (Algorithm 4)
// ---------------------------------------------------------------------

fn derive_heap(ctx: &SliceContext<'_>, report: &VulnerabilityReport, plan: &mut ObligationPlan) {
    // 1. Redirect vulnerable allocation sites into the isolated section.
    let mut redirected = BTreeSet::new();
    for hv in &report.heap_vulns {
        let is_malloc = matches!(
            ctx.module.func(hv.func).inst(hv.site),
            Some(Inst::Call {
                callee: Callee::Intrinsic(Intrinsic::Malloc),
                ..
            })
        );
        if is_malloc && redirected.insert((hv.func, hv.site)) {
            plan.push(hv.func, hv.site, EditKind::SecureMalloc);
            plan.stats.secure_malloc_rewrites += 1;
        }
    }

    // 2. PA-sign the contents of vulnerable heap objects at their uses.
    let heap_objs: BTreeSet<_> = report
        .pythia_objects
        .iter()
        .copied()
        .filter(|&o| matches!(ctx.points_to.obj_kind(o), MemObjectKind::Heap { .. }))
        .collect();
    let signable = stable_signable(ctx, &heap_objs);
    let accesses = collect_accesses(ctx, &signable);
    sign_accesses(&accesses, PaKey::Db, plan);
    resign_after_ics(ctx, &signable, PaKey::Db, plan);
    plan.stats.protected_objects = report.pythia_objects.len();
}

/// Require the one-time `heap_section_init()` library call at program
/// entry — every Pythia-compiled program pays this, even with zero
/// vulnerable heap variables (§6.2).
fn derive_section_init(ctx: &SliceContext<'_>, plan: &mut ObligationPlan) {
    let m = ctx.module;
    let Some(fid) = m.func_by_name("main").or_else(|| m.func_ids().next()) else {
        return;
    };
    let f = m.func(fid);
    if let Some(&head) = f.block(f.entry()).insts.first() {
        plan.push(fid, head, EditKind::SectionInit);
    }
}
