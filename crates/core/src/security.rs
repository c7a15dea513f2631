//! Attack-scenario adjudication: run a [`Scenario`] benign and attacked
//! under each protection scheme and classify the outcome.

use crate::pipeline::RunConfig;
use pythia_ir::PythiaError;
use pythia_lint::VariantBuilder;
use pythia_passes::Scheme;
use pythia_vm::{DetectionMechanism, ExitReason, Vm};
use pythia_workloads::Scenario;

/// What happened when a scenario ran under a scheme.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScenarioOutcome {
    /// Which scheme was applied.
    pub scheme: Scheme,
    /// The benign run completed on the normal path.
    pub benign_ok: bool,
    /// The attack was detected (and by what).
    pub detected: Option<DetectionMechanism>,
    /// The attack bent the branch (reached the privileged/leak path).
    pub bent: bool,
    /// The attacked run's exit, for reporting.
    pub attack_exit: ExitReason,
}

impl ScenarioOutcome {
    /// A defense *succeeds* when benign behaviour is preserved and the
    /// attack neither bends the branch nor silently corrupts state.
    pub fn defense_succeeded(&self) -> bool {
        self.benign_ok && !self.bent && self.detected.is_some()
    }

    /// The attack was *neutralized*: it no longer bends the branch even
    /// though nothing trapped — e.g. heap sectioning moved the target out
    /// of the overflow's reach, or the stack re-layout moved the victim
    /// below the buffer. The program keeps running on the normal path.
    pub fn neutralized(&self, normal_return: i64) -> bool {
        self.benign_ok
            && !self.bent
            && self.detected.is_none()
            && self.attack_exit == ExitReason::Returned(normal_return)
    }

    /// Either trapped or neutralized — the attacker did not win.
    pub fn attack_defeated(&self, normal_return: i64) -> bool {
        self.defense_succeeded() || self.neutralized(normal_return)
    }
}

/// Run `scenario` under `scheme` and classify: the variant is built
/// and certified by a [`VariantBuilder`] under `run.ctx_policy`, like
/// the pipeline's, and run on `run.vm`.
///
/// # Errors
///
/// [`PythiaError::Setup`] when the variant fails static certification or
/// the scenario's module cannot be run (bad entry point or VM
/// configuration). Traps are classification *data*, not errors.
pub fn adjudicate(
    scenario: &Scenario,
    scheme: Scheme,
    run: &RunConfig,
) -> Result<ScenarioOutcome, PythiaError> {
    let build = VariantBuilder::new(&scenario.module, run.ctx_policy);
    let inst = build.instrument(scheme);
    build
        .certify(&build.certifier(), &inst)
        .map_err(|e| e.with_function(scenario.name))?;
    let cfg = &run.vm;

    let benign_exit = {
        let mut vm = Vm::new(&inst.module, cfg.clone(), scenario.benign.clone());
        vm.run("main", &[])
            .map_err(|e| e.with_function(scenario.name))?
            .exit
    };
    let benign_ok = benign_exit == ExitReason::Returned(scenario.normal_return);

    let attack_run = {
        let mut vm = Vm::new(&inst.module, cfg.clone(), scenario.attack.clone());
        vm.run("main", &[])
            .map_err(|e| e.with_function(scenario.name))?
    };
    let detected = attack_run.detected();
    let bent = attack_run.exit == ExitReason::Returned(scenario.bent_return);

    Ok(ScenarioOutcome {
        scheme,
        benign_ok,
        detected,
        bent,
        attack_exit: attack_run.exit,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pythia_workloads::all_scenarios;

    #[test]
    fn vanilla_bends_pythia_detects_every_listing() {
        let cfg = RunConfig::default();
        for scenario in all_scenarios() {
            let vanilla = adjudicate(&scenario, Scheme::Vanilla, &cfg).unwrap();
            assert!(
                vanilla.benign_ok,
                "{}: vanilla benign broken",
                scenario.name
            );
            assert!(
                vanilla.bent,
                "{}: attack must succeed without protection (exit {:?})",
                scenario.name, vanilla.attack_exit
            );

            let pythia = adjudicate(&scenario, Scheme::Pythia, &cfg).unwrap();
            assert!(pythia.benign_ok, "{}: pythia broke benign", scenario.name);
            assert!(
                pythia.defense_succeeded(),
                "{}: pythia failed to stop the attack ({:?})",
                scenario.name,
                pythia.attack_exit
            );
        }
    }

    #[test]
    fn canary_is_the_stack_detection_mechanism() {
        let cfg = RunConfig::default();
        for scenario in all_scenarios() {
            let pythia = adjudicate(&scenario, Scheme::Pythia, &cfg).unwrap();
            assert_eq!(
                pythia.detected,
                Some(DetectionMechanism::Canary),
                "{}: expected canary detection",
                scenario.name
            );
        }
    }
}
