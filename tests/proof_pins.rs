//! Pins the pruner's compile-time proof counts on the smoke-tier suite.
//!
//! Interval proofs (a tainted `gep` proven in bounds) and the obligation
//! pruning built on them feed every report, but a changed answer would
//! otherwise surface only in the lint golden diff of `scripts/check.sh`.
//! Each row is one module's `proven_geps`, `obligations_pruned`,
//! `pythia_heap_pruned` and `dfi_pruned`, as `reproduce --tier smoke
//! --bench-json` reports them under the default context policy. A change
//! that moves one of them on purpose updates this table with it.

use pythia::analysis::CtxPolicy;
use pythia::lint::VariantBuilder;
use pythia::workloads::{generate, nginx_module, profile_by_name, SizeTier};

/// `(module, proven_geps, obligations_pruned, pythia_heap_pruned,
/// dfi_pruned)`.
const PINS: [(&str, usize, usize, usize, usize); 17] = [
    ("500.perlbench_r", 1, 66, 11, 22),
    ("502.gcc_r", 1, 126, 23, 40),
    ("505.mcf_r", 1, 18, 2, 7),
    ("508.namd_r", 0, 10, 0, 5),
    ("510.parest_r", 1, 94, 20, 27),
    ("511.povray_r", 1, 20, 2, 8),
    ("519.lbm_r", 0, 0, 0, 0),
    ("520.omnetpp_r", 1, 58, 10, 19),
    ("523.xalancbmk_r", 1, 82, 13, 28),
    ("525.x264_r", 1, 52, 8, 18),
    ("526.blender_r", 1, 34, 4, 13),
    ("531.deepsjeng_r", 1, 34, 4, 13),
    ("538.imagick_r", 1, 22, 2, 9),
    ("541.leela_r", 0, 10, 0, 5),
    ("544.nab_r", 1, 6, 1, 2),
    ("557.xz_r", 1, 20, 5, 5),
    ("nginx", 0, 0, 0, 0),
];

#[test]
fn smoke_tier_proof_counts_are_pinned() {
    let tier = SizeTier::Smoke;
    for (name, geps, pruned, heap, dfi) in PINS {
        // The suite's own construction of each module at this tier.
        let m = match profile_by_name(name) {
            Some(p) => generate(&p.at_tier(tier)),
            None => nginx_module(tier.scale_volume(60)),
        };
        let p = VariantBuilder::new(&m, CtxPolicy::default())
            .pruned()
            .pruned;
        assert_eq!(
            (
                p.proven_gep_stores,
                p.total(),
                p.pythia_heap_objects,
                p.dfi_objects
            ),
            (geps, pruned, heap, dfi),
            "{name}: (proven_geps, obligations_pruned, pythia_heap_pruned, dfi_pruned)"
        );
    }
}
