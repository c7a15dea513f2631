//! Quickstart: build a vulnerable program, bend its branch with a buffer
//! overflow, then let each protection scheme catch the attack.
//!
//! Run with: `cargo run --example quickstart`

use pythia::core::{adjudicate, instrument, RunConfig, Scheme};
use pythia::ir::{printer, CmpPred, FunctionBuilder, Intrinsic, Module, Ty};
use pythia::vm::{AttackSpec, InputPlan};
use pythia::workloads::Scenario;

fn main() {
    // -----------------------------------------------------------------
    // 1. Build a tiny vulnerable program in PIR: a `gets` into an 8-byte
    //    buffer sits right below an `is_admin` flag.
    // -----------------------------------------------------------------
    let mut module = Module::new("quickstart");
    let fmt = module.add_str_global("fmt", "%d");
    let mut b = FunctionBuilder::new("main", vec![], Ty::I64);
    let buf = b.alloca(Ty::array(Ty::I8, 8));
    let is_admin = b.alloca(Ty::I64);
    let zero = b.const_i64(0);
    // verify_user: the flag legitimately comes from an input channel
    // (benign plans below always answer 0 = not admin).
    let fmt_addr = b.global_addr(fmt, Ty::array(Ty::I8, 3));
    b.call_intrinsic(Intrinsic::Scanf, vec![fmt_addr, is_admin], Ty::I64);
    b.call_intrinsic(Intrinsic::Gets, vec![buf], Ty::ptr(Ty::I8));
    let flag = b.load(is_admin);
    let one = b.const_i64(1);
    let cond = b.icmp(CmpPred::Eq, flag, one);
    let (su, user) = (b.new_block("super"), b.new_block("user"));
    b.br(cond, su, user);
    b.switch_to(su);
    b.ret(Some(one)); // privileged path
    b.switch_to(user);
    b.ret(Some(zero));
    module.add_function(b.finish());

    println!("=== the program ===\n{}", printer::print_module(&module));

    // -----------------------------------------------------------------
    // 2. Wrap it into a scenario: benign inputs fit the buffer; the
    //    attack delivers 24 bytes of 0x...01 through the same channel.
    // -----------------------------------------------------------------
    let scenario = Scenario {
        name: "quickstart",
        description: "gets() overflow flips is_admin",
        module,
        benign: {
            let mut p = InputPlan::benign(42);
            p.set_scan_range(0, 0);
            p
        },
        attack: {
            // scanf is channel #0, gets is #1; overflow the gets.
            let mut p = InputPlan::with_attack(42, AttackSpec::aimed(1, 24, 1));
            p.set_scan_range(0, 0);
            p
        },
        normal_return: 0,
        bent_return: 1,
    };

    // -----------------------------------------------------------------
    // 3. Adjudicate under every scheme.
    // -----------------------------------------------------------------
    let cfg = RunConfig::default();
    println!("=== outcomes ===");
    for scheme in Scheme::ALL {
        let o = match adjudicate(&scenario, scheme, &cfg) {
            Ok(o) => o,
            Err(e) => {
                println!("{:8}  ERROR: {e}", scheme.name());
                continue;
            }
        };
        let verdict = if o.bent {
            "ATTACK SUCCEEDED (branch bent)".to_owned()
        } else if let Some(m) = o.detected {
            format!("attack DETECTED by {m:?}")
        } else {
            format!("attack stopped: {:?}", o.attack_exit)
        };
        println!(
            "{:8}  benign: {}  |  {}",
            scheme.name(),
            if o.benign_ok { "ok" } else { "BROKEN" },
            verdict
        );
    }

    // -----------------------------------------------------------------
    // 4. Show what the Pythia pass actually did.
    // -----------------------------------------------------------------
    let inst = instrument(&scenario.module, Scheme::Pythia);
    println!(
        "\nPythia instrumentation: {} -> {} instructions, {} canaries, {} PA ops, {} randomize sites",
        inst.stats.insts_before,
        inst.stats.insts_after,
        inst.stats.canaries,
        inst.stats.pa_total(),
        inst.stats.randomize_sites,
    );
}
