//! Protection must not change what a program computes: on a benign run,
//! every scheme's variant exits exactly as the vanilla build does.

use pythia::core::{evaluate, Scheme, VmConfig};
use pythia::ir::Module;
use pythia::workloads::{generate, nginx_module, SizeTier, SPEC_PROFILES};

/// The smoke suite's nginx: its request count and input seed.
const NGINX_REQUESTS: u64 = 10;
const NGINX_SEED: u64 = 0x9137;

fn assert_same_exit_as_vanilla(m: &Module, schemes: &[Scheme], seed: u64) {
    let ev = evaluate(m, schemes, seed, &VmConfig::default())
        .unwrap_or_else(|e| panic!("{} does not evaluate: {e}", m.name));
    let vanilla = ev.result(Scheme::Vanilla).unwrap().exit;
    assert!(
        vanilla.value().is_some(),
        "{}: vanilla did not complete: {vanilla:?}",
        m.name
    );
    assert_eq!(ev.results.len(), schemes.len() + 1);
    for r in &ev.results {
        assert_eq!(
            r.exit, vanilla,
            "{} under {:?} changed the program's benign result",
            m.name, r.scheme
        );
    }
}

#[test]
fn every_scheme_preserves_every_spec_profiles_benign_result() {
    for p in &SPEC_PROFILES {
        let m = generate(&p.at_tier(SizeTier::Smoke));
        assert_same_exit_as_vanilla(&m, &[Scheme::Cpa, Scheme::Pythia, Scheme::Dfi], p.seed);
    }
}

/// nginx under CPA is left out on purpose: CPA's data signing keeps only
/// the address bits of the 8-byte method word nginx copies in from each
/// request, so CPA parses a different status mix and returns a different
/// byte count. That is a known defect of the CPA model (ROADMAP item 1;
/// the benchmark lists it in `KNOWN_EXIT_DIFFERENCES`), not a value to
/// pin here.
#[test]
fn pythia_and_dfi_preserve_nginxs_benign_result() {
    let m = nginx_module(NGINX_REQUESTS);
    assert_same_exit_as_vanilla(&m, &[Scheme::Pythia, Scheme::Dfi], NGINX_SEED);
}
