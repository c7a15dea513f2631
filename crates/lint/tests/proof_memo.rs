//! The in-bounds proof memo every overflow-reach fixpoint over one
//! `SliceContext` shares.
//!
//! Two properties keep the memo an optimization and nothing more:
//!
//! 1. **Every answer is the answer.** On every standard-tier suite
//!    module, each memoized proof equals a fresh `index_in_bounds` over
//!    freshly solved `value_ranges_seeded` — the memo key holds
//!    everything the proof depends on.
//! 2. **The certifier re-derives, it does not replay.** The certifier's
//!    fixpoint on a `VariantBuilder` asks only questions the pruner's
//!    already answered (zero memo misses), yet runs its own taint and
//!    reach state: its `OverflowReach` equals a fresh context's field by
//!    field. The OPT-01 mutation tests in `certification.rs` show that
//!    this reach still catches a pruner that drops a needed obligation.

use pythia_analysis::{
    index_in_bounds, value_ranges_seeded, CtxPolicy, OverflowReach, SliceContext,
};
use pythia_ir::Module;
use pythia_lint::VariantBuilder;
use pythia_workloads::{generate, nginx_module, SPEC_PROFILES};

fn standard_suite() -> Vec<Module> {
    let mut modules: Vec<Module> = SPEC_PROFILES.iter().map(generate).collect();
    modules.push(nginx_module(4));
    modules
}

#[test]
fn every_memoized_proof_matches_a_fresh_solve() {
    let mut answers = 0;
    let mut proven = 0;
    for m in standard_suite() {
        let build = VariantBuilder::new(&m, CtxPolicy::default());
        for a in build.ctx().proof_answers() {
            let f = m.func(a.func);
            let ranges = value_ranges_seeded(f, &a.seeds);
            assert_eq!(
                index_in_bounds(f, &ranges, a.gep, a.index, a.count),
                a.proven,
                "{}: memoized proof of {}/{} (count {}, seeds {:?}) disagrees with a fresh solve",
                m.name,
                f.name,
                a.gep,
                a.count,
                a.seeds
            );
            answers += 1;
            proven += usize::from(a.proven);
        }
    }
    assert!(
        answers > 0,
        "the suite memoized no proof — the test is vacuous"
    );
    assert!(
        proven > 0,
        "the suite proved no gep in-bounds — the test is one-sided"
    );
}

#[test]
fn the_certifier_reuses_every_proof_and_matches_a_fresh_reach() {
    let mut hits = 0;
    for m in standard_suite() {
        let build = VariantBuilder::new(&m, CtxPolicy::default());
        let (hits_before, misses_before) = build.ctx().proof_memo_stats();
        let cert = build.certifier();
        let reach = cert.reach().clone();
        let (hits_after, misses_after) = build.ctx().proof_memo_stats();
        assert_eq!(
            misses_after, misses_before,
            "{}: the certifier's reach solved a proof the pruner had not",
            m.name
        );
        hits += hits_after - hits_before;

        // Field by field: the reachable set, `top`, the proven and
        // unproven gep counts and every context counter.
        let fresh = OverflowReach::compute(&SliceContext::new(&m));
        assert_eq!(reach, fresh, "{}: the certifier's reach differs", m.name);
    }
    assert!(
        hits > 0,
        "no certifier proof came from the memo — the test is vacuous"
    );
}
