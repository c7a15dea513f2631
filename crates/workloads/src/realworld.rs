//! Extended real-world-style attack scenarios (beyond Listings 1–3),
//! modelled on the memory-corruption patterns of Chen et al. \[15\], which
//! the paper also evaluates against.
//!
//! These exercise the parts of Pythia that Listings 1–3 do not:
//!
//! - [`heap_overflow`] — corruption *between heap chunks*; Pythia's answer
//!   is heap sectioning plus PA on the isolated allocation's uses;
//! - [`interproc_overflow`] — the §4.4 case where the channel that
//!   overflows a caller's buffer lives inside a *callee*; Pythia's
//!   re-layout keeps the caller's flag out of reach and the caller-side
//!   canary check catches the smash at function exit;
//! - [`dop_chain`] — a two-stage data-oriented-programming gadget where
//!   the second (flag-smashing) write is performed by the program itself;
//!   Pythia detects at stage 1, demonstrating the paper's attack-distance
//!   argument.

use pythia_ir::{CmpPred, FunctionBuilder, Intrinsic, Module, Ty};
use pythia_vm::{AttackSpec, InputPlan};

use crate::examples::Scenario;

/// All extended scenarios.
pub fn extended() -> Vec<Scenario> {
    vec![heap_overflow(), interproc_overflow(), dop_chain()]
}

/// Heap-to-heap overflow: an attacker-filled chunk sits right below a
/// session structure holding an `is_admin` word; the overflowing `gets`
/// rewrites it.
///
/// Under Pythia the vulnerable chunk moves to the *isolated* section, so
/// the very same overflow lands in isolated-section slack instead — the
/// attack is neutralized without a trap.
pub fn heap_overflow() -> Scenario {
    let mut m = Module::new("heap_overflow_session");
    let fmt = m.add_str_global("fmt_d", "%d");

    let mut b = FunctionBuilder::new("main", vec![], Ty::I64);
    // session = malloc(8): the privilege word, initialized from input.
    let eight = b.const_i64(8);
    let sixteen = b.const_i64(16);
    // Allocation order matters: the attacker chunk is allocated first so
    // it sits below the session word in the shared section.
    let netbuf = b.call_intrinsic(Intrinsic::Malloc, vec![sixteen], Ty::ptr(Ty::I8));
    let session = b.call_intrinsic(Intrinsic::Malloc, vec![eight], Ty::ptr(Ty::I64));
    let fmt_a = b.global_addr(fmt, Ty::array(Ty::I8, 3));
    b.call_intrinsic(Intrinsic::Scanf, vec![fmt_a, session], Ty::I64);

    // The network read the attacker owns.
    b.call_intrinsic(Intrinsic::Gets, vec![netbuf], Ty::ptr(Ty::I8));

    let flag = b.load(session);
    let one = b.const_i64(1);
    let c = b.icmp(CmpPred::Eq, flag, one);
    let (su, usr) = (b.new_block("admin"), b.new_block("user"));
    b.br(c, su, usr);
    b.switch_to(su);
    b.ret(Some(one));
    b.switch_to(usr);
    let zero = b.const_i64(0);
    b.ret(Some(zero));
    m.add_function(b.finish());

    let mut benign = InputPlan::benign(0x44);
    benign.set_scan_range(0, 0);
    // Writing channels: scanf #0, gets #1. The shared-heap granule is 16
    // bytes, so a 40-byte payload rolls over the session word.
    let mut attack = InputPlan::with_attack(0x44, AttackSpec::aimed(1, 40, 1));
    attack.set_scan_range(0, 0);

    Scenario {
        name: "heap_overflow",
        description:
            "heap chunk overflow -> adjacent session flag (Pythia: sectioning neutralizes)",
        module: m,
        benign,
        attack,
        normal_return: 0,
        bent_return: 1,
    }
}

/// Interprocedural overflow: `main` owns the buffer and the privilege
/// flag; a helper (`read_input`) performs the overflowing channel on the
/// pointer it receives. The smash crosses the call boundary into `main`'s
/// frame (paper §4.4's caller/callee case).
pub fn interproc_overflow() -> Scenario {
    let mut m = Module::new("interproc_overflow");
    let fmt = m.add_str_global("fmt_d", "%d");

    // read_input(p) { gets(p); }
    let mut cb = FunctionBuilder::new("read_input", vec![Ty::ptr(Ty::I8)], Ty::Void);
    let p = cb.func().arg(0);
    cb.call_intrinsic(Intrinsic::Gets, vec![p], Ty::ptr(Ty::I8));
    cb.ret(None);
    let read_input = m.add_function(cb.finish());

    let mut b = FunctionBuilder::new("main", vec![], Ty::I64);
    let buf = b.alloca(Ty::array(Ty::I8, 8));
    let flag = b.alloca(Ty::I64);
    let fmt_a = b.global_addr(fmt, Ty::array(Ty::I8, 3));
    b.call_intrinsic(Intrinsic::Scanf, vec![fmt_a, flag], Ty::I64);
    b.call(read_input, vec![buf], Ty::Void);
    let fv = b.load(flag);
    let one = b.const_i64(1);
    let c = b.icmp(CmpPred::Eq, fv, one);
    let (su, usr) = (b.new_block("admin"), b.new_block("user"));
    b.br(c, su, usr);
    b.switch_to(su);
    b.ret(Some(one));
    b.switch_to(usr);
    let zero = b.const_i64(0);
    b.ret(Some(zero));
    m.add_function(b.finish());

    let mut benign = InputPlan::benign(0x55);
    benign.set_scan_range(0, 0);
    // scanf #0, callee's gets #1; 24 bytes roll from buf into flag.
    let mut attack = InputPlan::with_attack(0x55, AttackSpec::aimed(1, 24, 1));
    attack.set_scan_range(0, 0);

    Scenario {
        name: "interproc_overflow",
        description: "callee-side gets() smashes the caller's frame (paper §4.4)",
        module: m,
        benign,
        attack,
        normal_return: 0,
        bent_return: 1,
    }
}

/// A two-stage data-oriented-programming chain (Hu et al., the attack
/// class behind the paper's ProFTPd example): stage 1 overflows a buffer
/// into a trusted *length* field; stage 2 is performed by the program
/// itself — its own `memcpy` uses the corrupted length and smashes the
/// privilege flag. The second write never goes through a channel, so
/// schemes that only guard channel destinations at use time miss it;
/// Pythia's canary trips at stage 1, before the gadget ever fires.
pub fn dop_chain() -> Scenario {
    let mut m = Module::new("dop_chain");

    let mut b = FunctionBuilder::new("main", vec![], Ty::I64);
    // Layout: buf[32] | len | staging[16] | flag — stage 1 reaches len,
    // stage 2 (memcpy of `len` bytes into staging) reaches flag.
    let buf = b.alloca(Ty::array(Ty::I8, 32));
    let len = b.alloca(Ty::I64);
    let staging = b.alloca(Ty::array(Ty::I8, 16));
    let flag = b.alloca(Ty::I64);

    let eight = b.const_i64(8);
    let zero = b.const_i64(0);
    b.store(eight, len); // trusted copy length
    b.store(zero, flag);

    // Request loop: read, then copy "len" bytes of it for processing.
    let entry = b.current_block();
    let body = b.new_block("req");
    let done = b.new_block("done");
    b.jmp(body);
    b.switch_to(body);
    let i = b.phi(vec![(entry, zero)]);
    b.call_intrinsic(Intrinsic::Gets, vec![buf], Ty::ptr(Ty::I8));
    let l = b.load(len);
    b.call_intrinsic(Intrinsic::Memcpy, vec![staging, buf, l], Ty::ptr(Ty::I8));
    let one = b.const_i64(1);
    let i2 = b.add(i, one);
    if let Some(pythia_ir::Inst::Phi { incomings }) = b.func_mut().inst_mut(i) {
        incomings.push((body, i2));
    }
    let three = b.const_i64(3);
    let c = b.icmp(CmpPred::Slt, i2, three);
    b.br(c, body, done);
    b.switch_to(done);

    let fv = b.load(flag);
    let cf = b.icmp(CmpPred::Eq, fv, one);
    let (su, usr) = (b.new_block("admin"), b.new_block("user"));
    b.br(cf, su, usr);
    b.switch_to(su);
    b.ret(Some(one));
    b.switch_to(usr);
    b.ret(Some(zero));
    m.add_function(b.finish());

    // Writing-channel executions alternate gets/memcpy per iteration:
    // gets=0, memcpy=1, gets=2, memcpy=3, gets=4, memcpy=5. Attack the
    // *last* gets (#4) so no later benign request overwrites the damage:
    // 40 bytes = 32 filling buf (with the future flag value planted at
    // offset 16) + 8 rewriting len to 48. Stage 2 is the same iteration's
    // memcpy(staging, buf, 48), which copies buf[16..24] onto the flag.
    let mut payload = vec![0x41u8; 32];
    payload[16..24].copy_from_slice(&1u64.to_le_bytes());
    payload.extend_from_slice(&48u64.to_le_bytes());
    let attack = InputPlan::with_attack(
        0x66,
        AttackSpec {
            ic_execution: 4,
            payload,
        },
    );

    Scenario {
        name: "dop_chain",
        description:
            "two-stage DOP: overflow a length field, let the program's own memcpy smash the flag",
        module: m,
        benign: InputPlan::benign(0x66),
        attack,
        normal_return: 0,
        bent_return: 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pythia_ir::verify;
    use pythia_vm::{ExitReason, Vm, VmConfig};

    fn run(m: &Module, plan: InputPlan) -> pythia_vm::RunResult {
        let mut vm = Vm::new(m, VmConfig::default(), plan);
        vm.run("main", &[]).unwrap()
    }

    #[test]
    fn scenarios_verify_and_behave_benignly() {
        for s in extended() {
            verify::verify_module(&s.module).unwrap_or_else(|e| panic!("{}: {e:?}", s.name));
            let r = run(&s.module, s.benign.clone());
            assert_eq!(r.exit, ExitReason::Returned(s.normal_return), "{}", s.name);
        }
    }

    #[test]
    fn attacks_bend_the_unprotected_modules() {
        for s in extended() {
            let r = run(&s.module, s.attack.clone());
            assert_eq!(
                r.exit,
                ExitReason::Returned(s.bent_return),
                "{}: attack must succeed on vanilla",
                s.name
            );
        }
    }
}
