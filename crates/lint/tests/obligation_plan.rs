//! A scheme's obligation plan is its instrumentation.
//!
//! The "pa_static before" column of the precision tables is read off the
//! unpruned report's derived plan; no module is built to count it. These
//! tests check the counters against the instructions an applied plan
//! actually places, on every standard-tier suite module under every
//! scheme:
//!
//! 1. `VariantBuilder::unpruned_pa` equals the PA instructions that
//!    instrumenting from the unpruned report adds, and that variant's
//!    reported `pa_total`.
//! 2. For the unpruned and the pruned report alike, the plan's
//!    `pacsign`/`pacauth`/`setdef`/`chkdef` counters equal the
//!    instructions of each kind the applied module gained.

use pythia_analysis::{CtxPolicy, VulnerabilityReport};
use pythia_ir::{Inst, Module};
use pythia_lint::VariantBuilder;
use pythia_passes::{instrument_with, InstrumentationStats, ObligationPlan, Scheme};
use pythia_workloads::{generate, nginx_module, SPEC_PROFILES};

fn standard_suite() -> Vec<Module> {
    let mut modules: Vec<Module> = SPEC_PROFILES.iter().map(generate).collect();
    modules.push(nginx_module(4));
    modules
}

/// `[pacsign, pacauth, setdef, chkdef]` instructions placed in `m`'s blocks.
fn placed(m: &Module) -> [usize; 4] {
    let mut n = [0; 4];
    for fid in m.func_ids() {
        let f = m.func(fid);
        for bb in f.block_ids() {
            for &iv in &f.block(bb).insts {
                match f.inst(iv) {
                    Some(Inst::PacSign { .. }) => n[0] += 1,
                    Some(Inst::PacAuth { .. }) => n[1] += 1,
                    Some(Inst::SetDef { .. }) => n[2] += 1,
                    Some(Inst::ChkDef { .. }) => n[3] += 1,
                    _ => {}
                }
            }
        }
    }
    n
}

/// The same four kinds, as the plan's counters promise them.
fn promised(s: &InstrumentationStats) -> [usize; 4] {
    [s.pa_signs, s.pa_auths, s.setdefs, s.chkdefs]
}

/// Instructions of each kind `inst` gained over `m`.
fn gained(inst: &Module, m: &Module) -> [usize; 4] {
    let (after, before) = (placed(inst), placed(m));
    std::array::from_fn(|i| after[i] - before[i])
}

#[test]
fn unpruned_pa_equals_the_pa_instrumenting_the_unpruned_report_adds() {
    let mut nonzero = 0;
    for m in standard_suite() {
        let build = VariantBuilder::new(&m, CtxPolicy::default());
        for scheme in Scheme::ALL {
            let counted = build.unpruned_pa(scheme);
            let variant = instrument_with(&m, build.ctx(), build.report(), scheme);
            let [signs, auths, _, _] = gained(&variant.module, &m);
            assert_eq!(
                counted,
                signs + auths,
                "{} under {scheme}: unpruned_pa disagrees with the PA instructions placed",
                m.name
            );
            assert_eq!(
                counted,
                variant.stats.pa_total(),
                "{} under {scheme}",
                m.name
            );
            nonzero += usize::from(counted > 0);
        }
    }
    assert!(nonzero > 0, "no module carries any PA obligation");
}

#[test]
fn applied_instructions_equal_the_plans_counters() {
    for m in standard_suite() {
        let build = VariantBuilder::new(&m, CtxPolicy::default());
        let reports: [(&str, &VulnerabilityReport); 2] =
            [("unpruned", build.report()), ("pruned", build.pruned())];
        for (label, report) in reports {
            for scheme in Scheme::ALL {
                let plan = ObligationPlan::derive(build.ctx(), report, scheme);
                let variant = plan.apply(&m);
                assert_eq!(
                    gained(&variant.module, &m),
                    promised(plan.stats()),
                    "{} under {scheme} ({label}): [pacsign, pacauth, setdef, chkdef] \
                     placed differ from the plan's counters",
                    m.name
                );
            }
        }
    }
}
