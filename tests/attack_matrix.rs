//! The security matrix: the paper's three motivating attacks against all
//! four schemes. The qualitative claims under test:
//!
//! - unprotected runs are *bent* (the attack takes the privileged path);
//! - Pythia detects every attack, via canaries, before the bend;
//! - DFI misses the pointer-dualism attack of Listing 3 (it cannot reason
//!   about pointer arithmetic, §7) but catches plain overflows;
//! - no scheme breaks benign behaviour.

use pythia::core::{adjudicate, DetectionMechanism, RunConfig, Scheme};
use pythia::workloads::all_scenarios;

fn cfg() -> RunConfig {
    RunConfig::default()
}

#[test]
fn vanilla_attacks_succeed() {
    for s in all_scenarios() {
        let o = adjudicate(&s, Scheme::Vanilla, &cfg()).unwrap();
        assert!(o.benign_ok, "{}: benign broken", s.name);
        assert!(
            o.bent,
            "{}: attack must bend the unprotected branch",
            s.name
        );
        assert!(o.detected.is_none());
    }
}

#[test]
fn pythia_detects_everything_with_canaries() {
    for s in all_scenarios() {
        let o = adjudicate(&s, Scheme::Pythia, &cfg()).unwrap();
        assert!(o.benign_ok, "{}: pythia broke benign behaviour", s.name);
        assert!(!o.bent, "{}: pythia failed to stop the bend", s.name);
        assert_eq!(
            o.detected,
            Some(DetectionMechanism::Canary),
            "{}: expected canary detection, got {:?}",
            s.name,
            o.attack_exit
        );
    }
}

#[test]
fn cpa_detects_everything_with_data_pac() {
    for s in all_scenarios() {
        let o = adjudicate(&s, Scheme::Cpa, &cfg()).unwrap();
        assert!(o.benign_ok, "{}: cpa broke benign behaviour", s.name);
        assert!(!o.bent, "{}: cpa failed", s.name);
        assert_eq!(o.detected, Some(DetectionMechanism::DataPac), "{}", s.name);
    }
}

#[test]
fn dfi_misses_pointer_dualism() {
    // Listings 1 and 2 are plain overflows: DFI's shadow check fires.
    for s in all_scenarios().into_iter().take(2) {
        let o = adjudicate(&s, Scheme::Dfi, &cfg()).unwrap();
        assert!(o.benign_ok, "{}: dfi broke benign", s.name);
        assert_eq!(o.detected, Some(DetectionMechanism::Dfi), "{}", s.name);
    }
    // Listing 3 bends through pointer arithmetic DFI cannot model.
    let l3 = &all_scenarios()[2];
    let o = adjudicate(l3, Scheme::Dfi, &cfg()).unwrap();
    assert!(o.benign_ok);
    assert!(
        o.bent,
        "listing3 must evade DFI (pointer dualism) — got {:?}",
        o.attack_exit
    );
}

#[test]
fn detection_fires_before_the_privileged_path() {
    // A detected run must not return the bent value: the trap happens at
    // or before the corrupted use, never after the privilege escalation.
    for s in all_scenarios() {
        for scheme in [Scheme::Cpa, Scheme::Pythia] {
            let o = adjudicate(&s, scheme, &cfg()).unwrap();
            assert!(o.detected.is_some(), "{}/{:?}", s.name, scheme);
            assert_ne!(
                o.attack_exit.value(),
                Some(s.bent_return),
                "{}: trap must precede the privileged return",
                s.name
            );
        }
    }
}

#[test]
fn repeated_attacks_are_detected_independently() {
    // §4.4: each invocation re-randomizes, so detection is stable across
    // repeated attempts (no state carries over between runs).
    let s = &all_scenarios()[0];
    for _ in 0..5 {
        let o = adjudicate(s, Scheme::Pythia, &cfg()).unwrap();
        assert!(o.defense_succeeded());
    }
}

#[test]
fn extended_scenarios_vanilla_bends() {
    for s in pythia::workloads::extended_scenarios() {
        let o = adjudicate(&s, Scheme::Vanilla, &cfg()).unwrap();
        assert!(o.benign_ok, "{}", s.name);
        assert!(o.bent, "{}: attack must succeed unprotected", s.name);
    }
}

#[test]
fn heap_sectioning_plus_pa_stops_the_heap_overflow() {
    let s = &pythia::workloads::extended_scenarios()[0];
    let o = adjudicate(s, Scheme::Pythia, &cfg()).unwrap();
    // Algorithm 4: the vulnerable allocation is isolated AND its uses are
    // PA-signed; the overflow is caught at the authenticated load.
    assert!(o.attack_defeated(s.normal_return), "{:?}", o.attack_exit);
    assert_eq!(o.detected, Some(DetectionMechanism::DataPac));
}

#[test]
fn interprocedural_overflow_caught_by_ret_canary() {
    let s = &pythia::workloads::extended_scenarios()[1];
    let o = adjudicate(s, Scheme::Pythia, &cfg()).unwrap();
    // §4.4: the channel lives in the callee; the caller-side canary check
    // (our substitute for global pointer canaries) fires before main
    // returns the bent result.
    assert!(o.attack_defeated(s.normal_return), "{:?}", o.attack_exit);
    assert_eq!(o.detected, Some(DetectionMechanism::Canary));
}

#[test]
fn all_schemes_defeat_the_extended_suite() {
    for s in pythia::workloads::extended_scenarios() {
        for scheme in [Scheme::Cpa, Scheme::Pythia, Scheme::Dfi] {
            let o = adjudicate(&s, scheme, &cfg()).unwrap();
            assert!(
                o.attack_defeated(s.normal_return),
                "{}/{:?}: {:?}",
                s.name,
                scheme,
                o.attack_exit
            );
        }
    }
}

#[test]
fn dop_chain_caught_by_everyone_but_earliest_by_pythia() {
    // The two-stage DOP chain: stage 1 corrupts a length field through a
    // channel; stage 2 is the program's own memcpy smashing the flag.
    let s = &pythia::workloads::extended_scenarios()[2];
    assert_eq!(s.name, "dop_chain");

    let vanilla = adjudicate(s, Scheme::Vanilla, &cfg()).unwrap();
    assert!(vanilla.bent, "the gadget chain must work unprotected");

    // CPA/DFI catch the *second* stage: the gadget's out-of-bounds write
    // lands on a signed/tagged slot whose next load fails.
    for scheme in [Scheme::Cpa, Scheme::Dfi] {
        let o = adjudicate(s, scheme, &cfg()).unwrap();
        assert!(o.defense_succeeded(), "{scheme:?}: {:?}", o.attack_exit);
    }

    // Pythia catches the *first* stage — the canary right after the
    // overflowed buffer — which is the paper's attack-distance argument:
    // protection starting at the channel detects before gadgets fire.
    let p = adjudicate(s, Scheme::Pythia, &cfg()).unwrap();
    assert_eq!(p.detected, Some(DetectionMechanism::Canary));
}
