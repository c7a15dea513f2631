//! Certification properties of the linter.
//!
//! Three directions, all load-bearing:
//!
//! 1. **Zero false positives** — every suite benchmark (16 SPEC-like
//!    modules + nginx), instrumented by every scheme, must lint clean.
//!    The pipeline treats any diagnostic as a fatal setup error, so a
//!    false positive here would sink the whole evaluation.
//! 2. **No false negatives** — surgically breaking one protection
//!    instruction in an instrumented module must be flagged by *exactly*
//!    the advertised rule code, with exactly one diagnostic (no
//!    duplicates, no cascades). Every mutation is linted through a
//!    [`Certifier`] that has already certified the clean variants of the
//!    other schemes, so its cached baseline provably cannot mask a later
//!    variant's defect.
//! 3. **A shared baseline changes nothing** — one [`Certifier`] per
//!    module reports byte-for-byte what a fresh per-variant lint does.

use proptest::prelude::*;
use pythia_analysis::{CtxPolicy, SliceContext, VulnerabilityReport};
use pythia_ir::{
    CmpPred, FuncId, FunctionBuilder, Inst, Intrinsic, Module, PaKey, Ty, ValueId,
};
use pythia_lint::{lint_instrumented, lint_module, Certifier, RuleCode, VariantBuilder};
use pythia_passes::{instrument_with, prune_obligations, Scheme};
use pythia_workloads::{generate, generate_scaled, nginx_module, SPEC_PROFILES};

/// The schemes that promise (and are certified for) a protection.
const INSTRUMENTED: [Scheme; 3] = [Scheme::Cpa, Scheme::Pythia, Scheme::Dfi];

// ---------------------------------------------------------------------
// Direction 1: the whole suite is certified clean.
// ---------------------------------------------------------------------

#[test]
fn every_suite_benchmark_lints_clean_under_every_scheme() {
    let mut modules: Vec<Module> = SPEC_PROFILES
        .iter()
        .map(|p| generate_scaled(p, 0.05)) // loop trip counts don't change structure
        .collect();
    modules.push(nginx_module(4));
    for m in &modules {
        for report in lint_module(m, &Scheme::ALL) {
            assert!(
                report.is_clean(),
                "{} under {:?} is not certified:\n{}",
                m.name,
                report.scheme,
                report.render()
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Re-scaling a profile perturbs loop bounds and data sizes but must
    /// never perturb certification.
    #[test]
    fn scaled_workloads_stay_certified(
        profile_ix in 0usize..SPEC_PROFILES.len(),
        scale_pct in 2u32..30,
        scheme_ix in 1usize..Scheme::ALL.len(),
    ) {
        let m = generate_scaled(&SPEC_PROFILES[profile_ix], f64::from(scale_pct) / 100.0);
        let scheme = Scheme::ALL[scheme_ix];
        let reports = lint_module(&m, &[scheme]);
        prop_assert!(
            reports[0].is_clean(),
            "{} under {:?}:\n{}", m.name, scheme, reports[0].render()
        );
    }
}

// ---------------------------------------------------------------------
// Direction 2: single-instruction sabotage is caught by the right rule.
// ---------------------------------------------------------------------

/// A module where every rule family has obligations: a `gets`-written
/// stack buffer (canary + DFI material), a `scanf`-written scalar that is
/// loaded, mutated, stored back and re-read (CPA sign/auth material and a
/// store for `setdef`).
fn demo_module() -> Module {
    let mut m = Module::new("mutation-demo");
    let mut b = FunctionBuilder::new("main", vec![], Ty::I64);
    let input = b.alloca(Ty::array(Ty::I8, 8));
    let user = b.alloca(Ty::I64);
    let fmt = b.alloca(Ty::array(Ty::I8, 4));
    b.call_intrinsic(Intrinsic::Scanf, vec![fmt, user], Ty::I64);
    b.call_intrinsic(Intrinsic::Gets, vec![input], Ty::ptr(Ty::I8));
    let v = b.load(user);
    let one = b.const_i64(1);
    let bumped = b.add(v, one);
    b.store(bumped, user);
    let w = b.load(user);
    let thresh = b.const_i64(1000);
    let c = b.icmp(CmpPred::Sgt, w, thresh);
    let (t, e) = (b.new_block("super"), b.new_block("normal"));
    b.br(c, t, e);
    b.switch_to(t);
    b.ret(Some(one));
    b.switch_to(e);
    let zero = b.const_i64(0);
    b.ret(Some(zero));
    m.add_function(b.finish());
    m
}

/// Instrument `m` under `scheme`, hand the instrumented module to
/// `sabotage`, lint it through a certifier that has already certified
/// every other scheme's clean variant, and return the diagnostics.
fn lint_after(
    scheme: Scheme,
    sabotage: impl FnOnce(&mut Module),
) -> Vec<pythia_lint::Diagnostic> {
    let m = demo_module();
    let ctx = SliceContext::new(&m);
    let report = VulnerabilityReport::analyze(&ctx);
    let cert = Certifier::new(&m, &ctx, &report);
    certify_others_clean(&cert, &m, &ctx, &report, scheme);
    let mut inst = instrument_with(&m, &ctx, &report, scheme).module;
    sabotage(&mut inst);
    cert.check(&report, &inst, scheme).diagnostics
}

/// Certify the unmutated variant of every instrumented scheme but
/// `except` through `cert`, warming whatever it caches.
fn certify_others_clean(
    cert: &Certifier<'_>,
    m: &Module,
    ctx: &SliceContext<'_>,
    report: &VulnerabilityReport,
    except: Scheme,
) {
    for s in INSTRUMENTED.into_iter().filter(|&s| s != except) {
        let inst = instrument_with(m, ctx, report, s).module;
        let lint = cert.check(report, &inst, s);
        assert!(lint.is_clean(), "clean {s:?} variant flagged:\n{}", lint.render());
    }
}

/// The only function in the demo module.
const MAIN: FuncId = FuncId(0);

fn expect_exactly(diags: &[pythia_lint::Diagnostic], code: RuleCode) {
    assert_eq!(
        diags.len(),
        1,
        "expected exactly one {code} diagnostic, got: {:?}",
        diags.iter().map(|d| d.to_string()).collect::<Vec<_>>()
    );
    assert_eq!(diags[0].code, code, "wrong rule fired: {}", diags[0]);
}

#[test]
fn unsigned_store_is_flagged_as_cpa01() {
    let diags = lint_after(Scheme::Cpa, |m| {
        let f = m.func_mut(MAIN);
        // Find a store whose value is a pacsign and strip the signing by
        // rewiring the store to the sign's raw operand.
        let target = f
            .value_ids()
            .find_map(|iv| match f.inst(iv) {
                Some(Inst::Store { value, .. }) => match f.inst(*value) {
                    Some(Inst::PacSign {
                        value: raw,
                        key: PaKey::Da,
                        ..
                    }) => Some((iv, *raw)),
                    _ => None,
                },
                _ => None,
            })
            .expect("CPA leaves at least one signed store");
        let (st, raw) = target;
        if let Some(Inst::Store { value, .. }) = f.inst_mut(st) {
            *value = raw;
        }
    });
    expect_exactly(&diags, RuleCode::Cpa01);
}

#[test]
fn unauthenticated_load_use_is_flagged_as_cpa02() {
    let diags = lint_after(Scheme::Cpa, |m| {
        let f = m.func_mut(MAIN);
        // Find an authenticated load and rewire one consumer of the
        // authenticated value back to the raw load.
        let (ld, auth) = f
            .value_ids()
            .find_map(|iv| match f.inst(iv) {
                Some(Inst::PacAuth {
                    value,
                    key: PaKey::Da,
                    ..
                }) if matches!(f.inst(*value), Some(Inst::Load { .. })) => Some((*value, iv)),
                _ => None,
            })
            .expect("CPA authenticates at least one load");
        let consumer = f
            .value_ids()
            .find(|&iv| {
                iv != auth
                    && f.inst(iv)
                        .is_some_and(|i| i.operands().contains(&auth))
            })
            .expect("the authenticated value has a consumer");
        if let Some(inst) = f.inst_mut(consumer) {
            inst.map_operands(|op| if op == auth { ld } else { op });
        }
    });
    expect_exactly(&diags, RuleCode::Cpa02);
}

/// Drop the canary load+auth pair the Pythia pass placed right after
/// `gets` in the demo module.
fn drop_canary_check(m: &mut Module) {
    let f = m.func_mut(MAIN);
    let gets = find_intrinsic_call(f, Intrinsic::Gets);
    let bb = f.block_of(gets).unwrap();
    let insts = f.block(bb).insts.clone();
    let pos = insts.iter().position(|&iv| iv == gets).unwrap();
    let ld = insts[pos + 1];
    let auth = insts[pos + 2];
    assert!(matches!(f.inst(ld), Some(Inst::Load { .. })));
    assert!(matches!(
        f.inst(auth),
        Some(Inst::PacAuth { key: PaKey::Ga, .. })
    ));
    f.block_mut(bb).insts.retain(|&iv| iv != ld && iv != auth);
}

#[test]
fn missing_canary_check_is_flagged_as_py01() {
    let diags = lint_after(Scheme::Pythia, drop_canary_check);
    expect_exactly(&diags, RuleCode::Py01);
}

#[test]
fn variant_builder_refuses_a_sabotaged_variant() {
    let m = demo_module();
    let build = VariantBuilder::new(&m, CtxPolicy::default());
    let cert = build.certifier();
    let mut inst = build.instrument(Scheme::Pythia);
    assert!(build.certify(&cert, &inst).unwrap() > 0);
    drop_canary_check(&mut inst.module);
    let err = build.certify(&cert, &inst).unwrap_err();
    assert_eq!(err.variant(), "setup");
    assert!(err.to_string().contains("static certification"), "{err}");
}

#[test]
fn missing_rerandomization_is_flagged_as_py02() {
    let diags = lint_after(Scheme::Pythia, |m| {
        let f = m.func_mut(MAIN);
        // Drop the rnd/sign/store triple the pass placed right before
        // `gets` (the entry-time initialization is stale by then: the
        // intervening `scanf` may have clobbered the frame).
        let gets = find_intrinsic_call(f, Intrinsic::Gets);
        let bb = f.block_of(gets).unwrap();
        let insts = f.block(bb).insts.clone();
        let pos = insts.iter().position(|&iv| iv == gets).unwrap();
        let triple = &insts[pos - 3..pos];
        assert!(matches!(f.inst(triple[0]), Some(Inst::Call { .. })));
        assert!(matches!(f.inst(triple[1]), Some(Inst::PacSign { .. })));
        assert!(matches!(f.inst(triple[2]), Some(Inst::Store { .. })));
        let dead: Vec<ValueId> = triple.to_vec();
        f.block_mut(bb).insts.retain(|iv| !dead.contains(iv));
    });
    expect_exactly(&diags, RuleCode::Py02);
}

#[test]
fn displaced_canary_is_flagged_as_py03() {
    let diags = lint_after(Scheme::Pythia, |m| {
        let f = m.func_mut(MAIN);
        // Detach the array buffer's canary: move it to the front of the
        // frame, away from the buffer it is supposed to shadow.
        let entry = f.entry();
        let insts = f.block(entry).insts.clone();
        let buf_pos = insts
            .iter()
            .enumerate()
            .find_map(|(p, &iv)| {
                let is_buffer = matches!(
                    f.inst(iv),
                    Some(Inst::Alloca { elem, .. }) if !matches!(elem, Ty::I64)
                );
                let next_is_canary = insts.get(p + 1).is_some_and(|&c| {
                    matches!(
                        f.inst(c),
                        Some(Inst::Alloca {
                            elem: Ty::I64,
                            count: 1
                        })
                    )
                });
                (is_buffer && next_is_canary).then_some(p)
            })
            .expect("demo has a canary-shadowed array buffer");
        let can = insts[buf_pos + 1];
        let b = f.block_mut(entry);
        b.insts.retain(|&iv| iv != can);
        b.insts.insert(0, can);
    });
    expect_exactly(&diags, RuleCode::Py03);
}

#[test]
fn narrowed_check_set_is_flagged_as_dfi01() {
    let diags = lint_after(Scheme::Dfi, |m| {
        let f = m.func_mut(MAIN);
        // Remove one legitimate writer from a chkdef's allowed set.
        let chk = f
            .value_ids()
            .find(|&iv| {
                matches!(f.inst(iv), Some(Inst::ChkDef { allowed, .. }) if !allowed.is_empty())
            })
            .expect("DFI guards at least one load");
        if let Some(Inst::ChkDef { allowed, .. }) = f.inst_mut(chk) {
            allowed.pop();
        }
    });
    expect_exactly(&diags, RuleCode::Dfi01);
}

#[test]
fn missing_setdef_is_flagged_as_dfi01() {
    let diags = lint_after(Scheme::Dfi, |m| {
        let f = m.func_mut(MAIN);
        let sd = f
            .value_ids()
            .find(|&iv| matches!(f.inst(iv), Some(Inst::SetDef { .. })))
            .expect("DFI tags at least one store");
        let bb = f.block_of(sd).unwrap();
        f.block_mut(bb).insts.retain(|&iv| iv != sd);
    });
    expect_exactly(&diags, RuleCode::Dfi01);
}

#[test]
fn unmutated_demo_is_clean_under_every_scheme() {
    for scheme in Scheme::ALL {
        let diags = lint_after(scheme, |_| {});
        assert!(
            diags.is_empty(),
            "unmutated demo flagged under {scheme:?}: {:?}",
            diags.iter().map(|d| d.to_string()).collect::<Vec<_>>()
        );
    }
}

fn find_intrinsic_call(f: &pythia_ir::Function, which: Intrinsic) -> ValueId {
    f.value_ids()
        .find(|&iv| {
            matches!(
                f.inst(iv),
                Some(Inst::Call {
                    callee: pythia_ir::Callee::Intrinsic(i),
                    ..
                }) if *i == which
            )
        })
        .expect("demo module calls the intrinsic")
}

// ---------------------------------------------------------------------
// Direction 2, precision stage: OPT-01 and OPT-02 catch their faults.
// ---------------------------------------------------------------------

/// A module with a genuinely prunable obligation: `secret` sits below
/// every channel-written buffer, so no overflow reaches it, yet its
/// branch puts it in CPA's conservative slot set.
fn prunable_module() -> Module {
    let mut m = Module::new("prunable");
    let mut b = FunctionBuilder::new("main", vec![], Ty::I64);
    let secret = b.alloca(Ty::I64);
    let input = b.alloca(Ty::array(Ty::I8, 8));
    let user = b.alloca(Ty::I64);
    let fmt = b.alloca(Ty::array(Ty::I8, 4));
    let seven = b.const_i64(7);
    b.store(seven, secret);
    b.call_intrinsic(Intrinsic::Scanf, vec![fmt, user], Ty::I64);
    b.call_intrinsic(Intrinsic::Gets, vec![input], Ty::ptr(Ty::I8));
    let sv = b.load(secret);
    let uv = b.load(user);
    let thresh = b.const_i64(1000);
    let c1 = b.icmp(CmpPred::Sgt, uv, thresh);
    let (t, e) = (b.new_block("t"), b.new_block("e"));
    b.br(c1, t, e);
    b.switch_to(t);
    let one = b.const_i64(1);
    b.ret(Some(one));
    b.switch_to(e);
    let (t2, e2) = (b.new_block("t2"), b.new_block("e2"));
    let c2 = b.icmp(CmpPred::Sgt, sv, thresh);
    b.br(c2, t2, e2);
    b.switch_to(t2);
    b.ret(Some(seven));
    b.switch_to(e2);
    let zero = b.const_i64(0);
    b.ret(Some(zero));
    m.add_function(b.finish());
    m
}

#[test]
fn legitimate_pruning_is_certified_clean() {
    let m = prunable_module();
    let ctx = SliceContext::new(&m);
    let report = VulnerabilityReport::analyze(&ctx);
    let pruned = prune_obligations(&ctx, &report);
    assert!(
        pruned.pruned.total() > 0,
        "the fixture must actually prune something"
    );
    for report in lint_module(&m, &Scheme::ALL) {
        assert!(
            report.is_clean(),
            "{:?} flagged a legitimate prune:\n{}",
            report.scheme,
            report.render()
        );
    }
}

#[test]
fn force_pruned_needed_obligation_is_flagged_as_opt01() {
    let m = prunable_module();
    let ctx = SliceContext::new(&m);
    let report = VulnerabilityReport::analyze(&ctx);
    let pruned = prune_obligations(&ctx, &report);
    // The clean pruned variants warm the certifier's reach fixpoint.
    let cert = Certifier::new(&m, &ctx, &report);
    certify_others_clean(&cert, &m, &ctx, &pruned, Scheme::Cpa);
    // Drop a *kept* (overflow-reachable) slot obligation — the kind of
    // hole a pruner bug would open.
    let mut sabotaged = pruned.clone();
    let victim = *sabotaged
        .cpa_slot_objects
        .iter()
        .next()
        .expect("the reachable buffers keep their obligations");
    sabotaged.cpa_slot_objects.remove(&victim);
    let inst = instrument_with(&m, &ctx, &sabotaged, Scheme::Cpa).module;
    let lint = cert.check(&sabotaged, &inst, Scheme::Cpa);
    expect_exactly(&lint.diagnostics, RuleCode::Opt01);
}

/// A module with an effective strong-update kill: `pp` is re-stored
/// before its only load, so the first store's pointee is provably
/// stale. The OPT-02 differential harness must agree on the full kill
/// set — and notice when one kill is dropped from the summary side.
fn restore_module() -> Module {
    let mut m = Module::new("restore");
    let mut b = FunctionBuilder::new("f", vec![], Ty::Void);
    let a = b.alloca(Ty::I64);
    let d = b.alloca(Ty::I64);
    let pp = b.alloca(Ty::ptr(Ty::I64));
    b.store(a, pp);
    b.store(d, pp);
    let q = b.load(pp);
    let _sink = b.load(q);
    b.ret(None);
    m.add_function(b.finish());
    m
}

#[test]
fn opt02_certifies_summary_composition_clean() {
    let m = restore_module();
    let ctx = SliceContext::new(&m);
    let report = VulnerabilityReport::analyze(&ctx);
    let lint = Certifier::new(&m, &ctx, &report).check(&report, &m, Scheme::Pythia);
    assert_eq!(lint.checks, 1, "the small module must not be skipped");
    assert!(lint.is_clean(), "{}", lint.render());
}

#[test]
fn opt02_follows_the_policy_of_the_certified_context() {
    // OPT-02 is a check of the summary solver; a context built with the
    // insensitive policy has no contexts to compose, so the certifier
    // must not run the check (no +1 per variant) and must stay clean.
    let m = restore_module();
    let summary = SliceContext::new(&m);
    let insensitive = SliceContext::with_policy(&m, CtxPolicy::Insensitive);
    let summary_report = VulnerabilityReport::analyze(&summary);
    let report = VulnerabilityReport::analyze(&insensitive);
    let with = Certifier::new(&m, &summary, &summary_report).check(&report, &m, Scheme::Pythia);
    let without = Certifier::new(&m, &insensitive, &report).check(&report, &m, Scheme::Pythia);
    assert_eq!(with.checks, 1);
    assert_eq!(without.checks, 0, "OPT-02 ran under the insensitive policy");
    assert!(without.is_clean(), "{}", without.render());
}

#[test]
fn opt02_catches_a_skipped_strong_update() {
    let m = restore_module();
    let ctx = SliceContext::new(&m);
    let report = VulnerabilityReport::analyze(&ctx);
    let cert = Certifier::new(&m, &ctx, &report);
    certify_others_clean(&cert, &m, &ctx, &report, Scheme::Pythia);
    // Mutation: the summary-side solve skips its only kill, so the stale
    // pointee survives and the relations diverge.
    let cert = cert.with_opt02_mutation(0);
    let inst = instrument_with(&m, &ctx, &report, Scheme::Pythia).module;
    let lint = cert.check(&report, &inst, Scheme::Pythia);
    expect_exactly(&lint.diagnostics, RuleCode::Opt02);
}

#[test]
fn opt02_runs_inside_the_standard_lint_entry() {
    let m = restore_module();
    for report in lint_module(&m, &[Scheme::Pythia]) {
        assert!(report.is_clean(), "{}", report.render());
    }
}

// ---------------------------------------------------------------------
// Direction 3: certifying every variant against one shared baseline is
// indistinguishable from a fresh lint per variant.
// ---------------------------------------------------------------------

#[test]
fn shared_certifier_matches_a_fresh_lint_per_variant() {
    let mut modules: Vec<Module> = SPEC_PROFILES.iter().map(generate).collect();
    modules.push(nginx_module(4));
    for m in &modules {
        let build = VariantBuilder::new(m, CtxPolicy::default());
        let cert = build.certifier();
        for scheme in INSTRUMENTED {
            let inst = build.instrument(scheme).module;
            let shared = cert.check(build.pruned(), &inst, scheme);
            let fresh = lint_instrumented(m, build.ctx(), build.pruned(), &inst, scheme);
            assert!(shared.checks > 0, "{} under {scheme:?} checked nothing", m.name);
            assert_eq!(
                shared.to_json(),
                fresh.to_json(),
                "{} under {scheme:?}: the shared baseline changed the report",
                m.name
            );
        }
    }
}

// ---------------------------------------------------------------------
// The certifier's baseline is the analysis's unpruned report.
// ---------------------------------------------------------------------

#[test]
#[should_panic(expected = "unpruned report")]
fn certifier_rejects_a_pruned_baseline() {
    // A pruned baseline would make OPT-01 compare each pruned variant
    // against the pruned sets and pass vacuously. Pruning stamps its
    // provenance even when it drops nothing, so this one is caught too.
    let m = restore_module();
    let ctx = SliceContext::new(&m);
    let pruned = prune_obligations(&ctx, &VulnerabilityReport::analyze(&ctx));
    assert_eq!(pruned.pruned.total(), 0, "the fixture must prune nothing");
    Certifier::new(&m, &ctx, &pruned);
}
