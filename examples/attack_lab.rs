//! Attack lab: replay the paper's three motivating attacks (Listings 1–3)
//! against every protection scheme, then play the canary brute-forcing
//! game of §4.4.
//!
//! Run with: `cargo run --release --example attack_lab`

use pythia::core::{adjudicate, RunConfig, Scheme};
use pythia::pa::pac::PacConfig;
use pythia::pa::{brute_force_probability, expected_tries, simulate_brute_force, PaContext};
use pythia::workloads::all_scenarios;
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn main() {
    let cfg = RunConfig::default();

    println!("=== Listings 1-3 under each scheme ===");
    for scenario in all_scenarios() {
        println!("\n{} — {}", scenario.name, scenario.description);
        for scheme in Scheme::ALL {
            let o = match adjudicate(&scenario, scheme, &cfg) {
                Ok(o) => o,
                Err(e) => {
                    println!("  {:8} -> ERROR: {e}", scheme.name());
                    continue;
                }
            };
            let verdict = if o.bent {
                "branch BENT — attack succeeded".to_owned()
            } else if let Some(m) = o.detected {
                format!("DETECTED by {m:?}")
            } else {
                format!("{:?}", o.attack_exit)
            };
            println!("  {:8} -> {}", scheme.name(), verdict);
        }
    }

    println!("\n=== canary brute-forcing (paper Eq. 6) ===");
    println!(
        "24-bit PAC: single-canary forge probability {:.3e} (1 in {:.0})",
        brute_force_probability(1, 24),
        expected_tries(24),
    );
    println!("playing the game at reduced widths (each wrong guess restarts the program):");
    let mut rng = SmallRng::seed_from_u64(7);
    for bits in [6u32, 8, 10, 12] {
        let ctx = PaContext::from_seed(1).with_config(PacConfig {
            va_bits: 40,
            pac_bits: bits,
        });
        let out = simulate_brute_force(&ctx, &mut rng, 1 << 20);
        println!(
            "  {bits:>2}-bit PAC: forged after {:>7} attempts (E[X] = {:>7.0})",
            out.tries,
            expected_tries(bits),
        );
    }
}
