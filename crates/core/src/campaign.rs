//! Dynamic attack campaigns: systematically smash every input channel of a
//! benchmark under each scheme and classify the outcomes.
//!
//! The static branch-coverage figure (Fig. 7b) says which branches a
//! technique *can* protect; a campaign measures what actually happens when
//! an attacker hijacks channel execution *n* with an oversized payload:
//! trapped, silently bent, crashed, or harmless. The paper's threat model
//! (§2.5: any variable, any time, unlimited attempts) is exactly a
//! campaign with every channel index.
//!
//! The campaign also surfaces a structural difference the static figures
//! hide: CPA's value-signing only detects corruption that is *loaded
//! before the next legitimate (re-signing) store*, and cannot protect
//! array bytes at all; Pythia's canaries sit in the overflow's path and
//! trip regardless of when the victims are next used. Expect Pythia's
//! dynamic detection rate to dominate CPA's here even where their static
//! coverage looks similar.

use pythia_analysis::{CtxPolicy, SliceContext, VulnerabilityReport};
use pythia_ir::{Module, PythiaError};
use pythia_lint::VariantBuilder;
use pythia_passes::{instrument_with, Scheme};
use pythia_vm::{
    AttackSpec, DecodedModule, DetectionMechanism, ExitReason, InputPlan, Vm, VmConfig,
};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Outcome of one attack in a campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttackOutcome {
    /// A defense trapped (canary / data PAC / DFI).
    Detected(DetectionMechanism),
    /// The run completed with a *different* result than the benign run —
    /// the attacker changed observable behaviour without being caught.
    SilentlyBent,
    /// The run died on a non-defense trap (memory fault, etc.) — noisy,
    /// but not a controlled bend.
    Crashed,
    /// Same observable result as benign: the payload landed in padding.
    Harmless,
}

// Manual ordering key for DetectionMechanism so the enum can be a map key.
impl AttackOutcome {
    fn label(self) -> &'static str {
        match self {
            AttackOutcome::Detected(DetectionMechanism::Canary) => "detected-canary",
            AttackOutcome::Detected(DetectionMechanism::DataPac) => "detected-pac",
            AttackOutcome::Detected(DetectionMechanism::Dfi) => "detected-dfi",
            AttackOutcome::SilentlyBent => "silently-bent",
            AttackOutcome::Crashed => "crashed",
            AttackOutcome::Harmless => "harmless",
        }
    }
}

/// Aggregate results of a campaign against one scheme.
#[derive(Debug, Clone)]
pub struct CampaignResult {
    /// The scheme attacked.
    pub scheme: Scheme,
    /// Number of attacks launched (one per targeted channel execution).
    pub attacks: u64,
    /// Outcome histogram.
    pub outcomes: BTreeMap<&'static str, u64>,
}

impl CampaignResult {
    /// Count for one outcome label.
    pub fn count(&self, label: &str) -> u64 {
        self.outcomes.get(label).copied().unwrap_or(0)
    }

    /// Attacks that were detected by any mechanism.
    pub fn detected(&self) -> u64 {
        self.count("detected-canary") + self.count("detected-pac") + self.count("detected-dfi")
    }

    /// Attacks that silently changed behaviour (the attacker's win).
    pub fn silently_bent(&self) -> u64 {
        self.count("silently-bent")
    }

    /// Fraction of *effective* attacks (those that would have changed
    /// behaviour or were caught) that the scheme detected.
    pub fn detection_rate(&self) -> f64 {
        let effective = self.detected() + self.silently_bent();
        if effective == 0 {
            1.0
        } else {
            self.detected() as f64 / effective as f64
        }
    }
}

/// Run a campaign: instrument `module` with `scheme` from its **pruned**
/// obligation report through the same [`VariantBuilder`] the pipeline
/// uses, then attack channel executions `0, step, 2*step, ...` (up to
/// `max_attacks`) with `payload_len`-byte smashes, comparing each run
/// against the benign run of the same instrumented module. The variant
/// is not certified again here: the pipeline and `pythia-lint` certify
/// the same builds, and a second pass would only slow the campaign.
///
/// # Errors
///
/// [`PythiaError::Setup`] when the instrumented module cannot be run
/// (missing entry point, invalid VM configuration). Attacked runs that
/// trap are campaign *data* (`Detected`/`Crashed`), never errors.
pub fn run_campaign(
    module: &Module,
    scheme: Scheme,
    seed: u64,
    payload_len: usize,
    max_attacks: u64,
    cfg: &VmConfig,
) -> Result<CampaignResult, PythiaError> {
    let build = VariantBuilder::new(module, CtxPolicy::default());
    let (ctx, pruned) = (build.ctx(), build.pruned());
    run_campaign_with(
        module,
        ctx,
        pruned,
        scheme,
        seed,
        payload_len,
        max_attacks,
        cfg,
    )
}

/// [`run_campaign`] against a caller-supplied analysis/report — the hook
/// the soundness regression uses to attack pruned and unpruned builds of
/// the *same* module and demand identical outcome histograms.
///
/// # Errors
///
/// Same as [`run_campaign`].
#[allow(clippy::too_many_arguments)] // mirrors run_campaign + the precomputed analysis
pub fn run_campaign_with(
    module: &Module,
    ctx: &SliceContext<'_>,
    report: &VulnerabilityReport,
    scheme: Scheme,
    seed: u64,
    payload_len: usize,
    max_attacks: u64,
    cfg: &VmConfig,
) -> Result<CampaignResult, PythiaError> {
    let inst = instrument_with(module, ctx, report, scheme);

    // One decode cache for the whole campaign: the benign reference and
    // every attack run execute the same instrumented module, so each
    // block is lowered once instead of once per attack.
    let decoded = DecodedModule::eager(&inst.module);

    // Reference run: how many writing-channel executions are there, and
    // what does benign behaviour look like?
    let benign = {
        let mut vm = Vm::with_decoded(
            &inst.module,
            Arc::clone(&decoded),
            cfg.clone(),
            InputPlan::benign(seed),
        );
        vm.run("main", &[])
            .map_err(|e| e.with_function(module.name.clone()))?
    };
    let total_channels = benign.metrics.ic_writes;
    let step = (total_channels / max_attacks.max(1)).max(1);

    let mut outcomes: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut attacks = 0;
    let mut target = 0u64;
    while target < total_channels && attacks < max_attacks {
        let plan = InputPlan::with_attack(seed, AttackSpec::smash(target, payload_len));
        let mut vm = Vm::with_decoded(&inst.module, Arc::clone(&decoded), cfg.clone(), plan);
        let r = vm
            .run("main", &[])
            .map_err(|e| e.with_function(module.name.clone()))?;
        let outcome = match r.detected() {
            Some(mech) => AttackOutcome::Detected(mech),
            None => match (&r.exit, &benign.exit) {
                (ExitReason::Trapped(_), _) => AttackOutcome::Crashed,
                (a, b) if a == b => AttackOutcome::Harmless,
                _ => AttackOutcome::SilentlyBent,
            },
        };
        *outcomes.entry(outcome.label()).or_insert(0) += 1;
        attacks += 1;
        target += step;
    }

    Ok(CampaignResult {
        scheme,
        attacks,
        outcomes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pythia_workloads::{generate, profile_by_name};

    fn campaign(scheme: Scheme) -> CampaignResult {
        let m = generate(profile_by_name("mcf").unwrap());
        run_campaign(&m, scheme, 5, 64, 24, &VmConfig::default()).unwrap()
    }

    #[test]
    fn vanilla_suffers_silent_bends() {
        let r = campaign(Scheme::Vanilla);
        assert!(r.attacks > 0);
        assert_eq!(r.detected(), 0, "vanilla has no detectors");
        assert!(
            r.silently_bent() > 0,
            "some smash must change behaviour: {:?}",
            r.outcomes
        );
    }

    #[test]
    fn pythia_detects_most_effective_attacks() {
        let r = campaign(Scheme::Pythia);
        assert!(r.detected() > 0, "{:?}", r.outcomes);
        assert!(
            r.detection_rate() > 0.8,
            "pythia detection rate too low: {:?} ({:.2})",
            r.outcomes,
            r.detection_rate()
        );
    }

    #[test]
    fn cpa_misses_transient_corruption_that_canaries_catch() {
        // A real finding the campaign surfaces: value-signing only helps
        // if the corrupted slot is *loaded* before its next legitimate
        // store re-signs it. Smashes whose victims are redefined first —
        // and all array victims, which cannot hold a PAC at all — slip
        // past CPA, while Pythia's adjacency canaries trip immediately.
        let v = campaign(Scheme::Vanilla);
        let c = campaign(Scheme::Cpa);
        let p = campaign(Scheme::Pythia);
        assert!(c.silently_bent() <= v.silently_bent());
        assert!(
            p.detection_rate() > c.detection_rate(),
            "pythia {:?} must beat cpa {:?}",
            p.outcomes,
            c.outcomes
        );
    }

    #[test]
    fn detection_rate_handles_no_effective_attacks() {
        let r = CampaignResult {
            scheme: Scheme::Pythia,
            attacks: 3,
            outcomes: [("harmless", 3u64)].into_iter().collect(),
        };
        assert_eq!(r.detection_rate(), 1.0);
    }
}
