//! # pythia-passes — the compiler-side of the paper
//!
//! Instrumentation passes over PIR modules implementing the three
//! protection schemes the evaluation compares:
//!
//! - [`Scheme::Cpa`] — Complete Pointer Authentication (conservative
//!   baseline, §4.2 / Algorithm 2);
//! - [`Scheme::Pythia`] — stack re-layout + PA canaries + heap sectioning
//!   (§4.3 / Algorithms 3–4);
//! - [`Scheme::Dfi`] — SETDEF/CHKDEF data-flow integrity (the related-work
//!   comparison);
//! - [`Scheme::Vanilla`] — untouched baseline.
//!
//! Each pass runs in two steps. *Derive* ([`ObligationPlan::derive`],
//! built from `cpa::derive`, `pythia::derive` and `dfi::derive`) reads
//! only the analysis and lists the scheme's obligations as data: every
//! edit's function, anchor instruction and kind, plus the
//! [`InstrumentationStats`] counters. *Apply* ([`ObligationPlan::apply`])
//! carries a plan out on a clone of the module through [`EditPlan`]. A
//! static PA count is therefore a derived plan's counter; no module is
//! built to learn it.
//!
//! # Examples
//!
//! ```
//! use pythia_ir::{FunctionBuilder, Module, Ty, CmpPred, Intrinsic};
//! use pythia_passes::{instrument, Scheme};
//!
//! let mut m = Module::new("demo");
//! let mut b = FunctionBuilder::new("main", vec![], Ty::I64);
//! let buf = b.alloca(Ty::array(Ty::I8, 8));
//! b.call_intrinsic(Intrinsic::Gets, vec![buf], Ty::ptr(Ty::I8));
//! let zero = b.const_i64(0);
//! let p = b.gep(buf, zero);
//! let v = b.load(p);
//! let c = b.icmp(CmpPred::Sgt, v, zero);
//! let (t, e) = (b.new_block("t"), b.new_block("e"));
//! b.br(c, t, e);
//! b.switch_to(t); b.ret(Some(v));
//! b.switch_to(e); b.ret(Some(zero));
//! m.add_function(b.finish());
//!
//! let instrumented = instrument(&m, Scheme::Pythia);
//! assert!(instrumented.stats.canaries > 0);
//! assert!(instrumented.stats.insts_after > instrumented.stats.insts_before);
//! ```

#![warn(missing_docs)]

pub mod common;
mod cpa;
mod dfi;
pub mod editor;
pub mod opt;
pub mod plan;
pub mod pythia;
pub mod stats;

pub use editor::EditPlan;
pub use opt::{optimize_module, prune_obligations, OptStats};
pub use plan::ObligationPlan;
pub use pythia::PythiaConfig;
pub use stats::{InstrumentationStats, Scheme};

use pythia_analysis::{SliceContext, VulnerabilityReport};
use pythia_ir::Module;

/// An instrumented module plus the pass's accounting.
#[derive(Debug, Clone)]
pub struct Instrumented {
    /// The transformed module.
    pub module: Module,
    /// What the pass did.
    pub stats: InstrumentationStats,
    /// Which scheme produced it.
    pub scheme: Scheme,
}

/// Analyze `m` and instrument a clone of it with `scheme`.
pub fn instrument(m: &Module, scheme: Scheme) -> Instrumented {
    let ctx = SliceContext::new(m);
    let report = VulnerabilityReport::analyze(&ctx);
    instrument_with(m, &ctx, &report, scheme)
}

/// Instrument with an ablated Pythia configuration (DESIGN.md §4's
/// `abl-*` experiments).
pub fn instrument_pythia_ablated(m: &Module, config: PythiaConfig) -> Instrumented {
    let ctx = SliceContext::new(m);
    let report = VulnerabilityReport::analyze(&ctx);
    pythia::derive(&ctx, &report, config).apply(m)
}

/// Instrument using a pre-computed analysis (lets the benchmark harness
/// analyze once and derive every scheme from the same report): derive
/// `scheme`'s [`ObligationPlan`] and apply it to a clone of `m`.
pub fn instrument_with(
    m: &Module,
    ctx: &SliceContext<'_>,
    report: &VulnerabilityReport,
    scheme: Scheme,
) -> Instrumented {
    ObligationPlan::derive(ctx, report, scheme).apply(m)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pythia_ir::{verify, CmpPred, FunctionBuilder, Intrinsic, Ty};
    use pythia_vm::{AttackSpec, DetectionMechanism, ExitReason, InputPlan, Vm, VmConfig};

    /// The canonical vulnerable program: a branch reads a flag that an
    /// overflowing `gets` into a *neighbouring* buffer can corrupt
    /// (paper Listing 1 shape: privilege escalation).
    fn privilege_module() -> pythia_ir::Module {
        let mut m = pythia_ir::Module::new("priv");
        let mut b = FunctionBuilder::new("main", vec![], Ty::I64);
        let input = b.alloca(Ty::array(Ty::I8, 8));
        let user = b.alloca(Ty::I64);
        // The "user" flag is legitimately derived from an input channel,
        // making it vulnerable in the analysis' eyes.
        let fmt = b.alloca(Ty::array(Ty::I8, 4));
        b.call_intrinsic(Intrinsic::Scanf, vec![fmt, user], Ty::I64);
        // attacker-facing channel:
        b.call_intrinsic(Intrinsic::Gets, vec![input], Ty::ptr(Ty::I8));
        let v = b.load(user);
        let thresh = b.const_i64(1000);
        let c = b.icmp(CmpPred::Sgt, v, thresh);
        let (t, e) = (b.new_block("super"), b.new_block("normal"));
        b.br(c, t, e);
        b.switch_to(t);
        let one = b.const_i64(1);
        b.ret(Some(one));
        b.switch_to(e);
        let zero = b.const_i64(0);
        b.ret(Some(zero));
        m.add_function(b.finish());
        m
    }

    fn run(m: &pythia_ir::Module, plan: InputPlan) -> pythia_vm::RunResult {
        let mut vm = Vm::new(m, VmConfig::default(), plan);
        vm.run("main", &[]).unwrap()
    }

    fn attack_plan() -> InputPlan {
        // IC execution #1 is the gets (scanf is #0); 24 bytes of a huge
        // value overflow `input` into `user`, flipping `user > 1000`.
        InputPlan::with_attack(7, AttackSpec::aimed(1, 24, 0x7fff_ffff))
    }

    #[test]
    fn vanilla_attack_bends_the_branch() {
        let m = privilege_module();
        let benign = run(&m, InputPlan::benign(7));
        assert_eq!(
            benign.exit,
            ExitReason::Returned(0),
            "benign user is normal"
        );
        let attacked = run(&m, attack_plan());
        assert_eq!(
            attacked.exit,
            ExitReason::Returned(1),
            "unprotected run must be bent to the privileged path"
        );
    }

    #[test]
    fn all_schemes_produce_verifiable_modules() {
        let m = privilege_module();
        for scheme in Scheme::ALL {
            let inst = instrument(&m, scheme);
            if let Err(errs) = verify::verify_module(&inst.module) {
                panic!("{scheme} produced invalid IR: {errs:?}");
            }
        }
    }

    #[test]
    fn cpa_detects_the_attack() {
        let m = privilege_module();
        let inst = instrument(&m, Scheme::Cpa);
        assert!(inst.stats.pa_total() > 0, "CPA must add PA instructions");
        let benign = run(&inst.module, InputPlan::benign(7));
        assert_eq!(benign.exit, ExitReason::Returned(0));
        let attacked = run(&inst.module, attack_plan());
        assert_eq!(attacked.detected(), Some(DetectionMechanism::DataPac));
    }

    #[test]
    fn pythia_detects_the_attack_via_canary() {
        let m = privilege_module();
        let inst = instrument(&m, Scheme::Pythia);
        assert!(inst.stats.canaries > 0);
        let benign = run(&inst.module, InputPlan::benign(7));
        assert_eq!(benign.exit, ExitReason::Returned(0));
        let attacked = run(&inst.module, attack_plan());
        assert_eq!(attacked.detected(), Some(DetectionMechanism::Canary));
    }

    #[test]
    fn dfi_detects_the_attack() {
        let m = privilege_module();
        let inst = instrument(&m, Scheme::Dfi);
        assert!(inst.stats.dfi_total() > 0);
        let benign = run(&inst.module, InputPlan::benign(7));
        assert_eq!(benign.exit, ExitReason::Returned(0));
        let attacked = run(&inst.module, attack_plan());
        assert_eq!(attacked.detected(), Some(DetectionMechanism::Dfi));
    }

    #[test]
    fn pythia_is_cheaper_than_cpa() {
        let m = privilege_module();
        let cpa = instrument(&m, Scheme::Cpa);
        let pythia = instrument(&m, Scheme::Pythia);
        let vanilla = instrument(&m, Scheme::Vanilla);
        assert_eq!(vanilla.stats.insts_after, vanilla.stats.insts_before);

        let base = run(&vanilla.module, InputPlan::benign(7)).metrics.cycles();
        let cpa_cycles = run(&cpa.module, InputPlan::benign(7)).metrics.cycles();
        let pythia_cycles = run(&pythia.module, InputPlan::benign(7)).metrics.cycles();
        assert!(cpa_cycles > base);
        assert!(pythia_cycles > base);
    }

    #[test]
    fn instrumentation_is_deterministic() {
        let m = privilege_module();
        let a = instrument(&m, Scheme::Pythia);
        let b = instrument(&m, Scheme::Pythia);
        assert_eq!(a.module, b.module);
        assert_eq!(a.stats, b.stats);
    }

    #[test]
    fn canary_rerandomization_sites_exist() {
        let m = privilege_module();
        let inst = instrument(&m, Scheme::Pythia);
        // entry + at least the gets site
        assert!(inst.stats.randomize_sites >= 2);
    }

    #[test]
    fn heap_rewrite_on_vulnerable_malloc() {
        let mut m = pythia_ir::Module::new("heapy");
        let mut b = FunctionBuilder::new("main", vec![], Ty::I64);
        let n = b.const_i64(64);
        let h = b.call_intrinsic(Intrinsic::Malloc, vec![n], Ty::ptr(Ty::I64));
        b.call_intrinsic(Intrinsic::Read, vec![n, h, n], Ty::I64);
        let v = b.load(h);
        let zero = b.const_i64(0);
        let c = b.icmp(CmpPred::Sgt, v, zero);
        let (t, e) = (b.new_block("t"), b.new_block("e"));
        b.br(c, t, e);
        b.switch_to(t);
        b.ret(Some(v));
        b.switch_to(e);
        b.ret(Some(zero));
        m.add_function(b.finish());

        let inst = instrument(&m, Scheme::Pythia);
        assert_eq!(inst.stats.secure_malloc_rewrites, 1);
        let r = run(&inst.module, InputPlan::benign(3));
        assert_eq!(r.metrics.heap_isolated.allocs, 1);
        assert_eq!(r.metrics.heap_shared.allocs, 0);
        assert_eq!(r.metrics.heap_init_calls, 1);
    }
}
