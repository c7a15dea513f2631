//! Tests of the attack substrate itself: overflows must be *physical*
//! (bytes land where the frame layout says), the sectioned heap must make
//! cross-section overflows impossible, and the stack re-layout must place
//! canaries adjacent to the buffers they guard.

use pythia::core::Scheme;
use pythia::heap::{Section, SectionedHeap, SHARED_CAPACITY};
use pythia::ir::{CmpPred, FunctionBuilder, Inst, Intrinsic, Module, Ty};
use pythia::vm::{AttackSpec, ExitReason, InputPlan, Vm, VmConfig};

/// Overflow length decides exactly which neighbours get corrupted.
#[test]
fn overflow_reach_is_byte_accurate() {
    // Frame: buf[8], a, b (i64 each). A 16-byte payload reaches `a` only;
    // a 24-byte payload reaches `b` as well.
    let build = || {
        let mut m = Module::new("reach");
        let mut bld = FunctionBuilder::new("main", vec![], Ty::I64);
        let buf = bld.alloca(Ty::array(Ty::I8, 8));
        let a = bld.alloca(Ty::I64);
        let b = bld.alloca(Ty::I64);
        bld.call_intrinsic(Intrinsic::Gets, vec![buf], Ty::ptr(Ty::I8));
        let va = bld.load(a);
        let vb = bld.load(b);
        let k = bld.const_i64(1000);
        let scaled = bld.mul(vb, k);
        let sum = bld.add(va, scaled);
        bld.ret(Some(sum));
        m.add_function(bld.finish());
        m
    };

    let run = |payload_len: usize| {
        let m = build();
        let mut vm = Vm::new(
            &m,
            VmConfig::default(),
            InputPlan::with_attack(1, AttackSpec::aimed(0, payload_len, 2)),
        );
        vm.run("main", &[]).unwrap().exit
    };

    // 8 bytes fill the buffer exactly; gets' terminating NUL lands on
    // `a`'s first byte, leaving it zero.
    assert_eq!(run(8), ExitReason::Returned(0));
    // 16 bytes: `a` overwritten with 2, `b` untouched (NUL zeroes its
    // first byte).
    assert_eq!(run(16), ExitReason::Returned(2));
    // 24 bytes: both overwritten.
    assert_eq!(run(24), ExitReason::Returned(2 + 2000));
}

#[test]
fn sectioned_heap_blocks_cross_section_overflow() {
    let mut h = SectionedHeap::default();
    let attacker_chunk = h.alloc(Section::Shared, 64).unwrap();
    let secret = h.alloc(Section::Isolated, 64).unwrap();
    // Even overflowing the entire shared section cannot reach the secret.
    assert!(!h.overflow_reaches_isolated(attacker_chunk, SHARED_CAPACITY));
    assert!(secret > attacker_chunk + SHARED_CAPACITY);
}

#[test]
fn heap_overflow_between_shared_chunks_still_happens() {
    // The isolation claim is only about the *sections*: within the shared
    // section, adjacent chunks remain corruptible (that is why vulnerable
    // allocations must move to the isolated section).
    let mut m = Module::new("heapsmash");
    let mut b = FunctionBuilder::new("main", vec![], Ty::I64);
    let n = b.const_i64(16);
    let h1 = b.call_intrinsic(Intrinsic::Malloc, vec![n], Ty::ptr(Ty::I64));
    let h2 = b.call_intrinsic(Intrinsic::Malloc, vec![n], Ty::ptr(Ty::I64));
    let seven = b.const_i64(7);
    b.store(seven, h2);
    // Overflow h1 by 32 bytes: reaches h2 (allocated adjacently).
    b.call_intrinsic(Intrinsic::Gets, vec![h1], Ty::ptr(Ty::I8));
    let v = b.load(h2);
    b.ret(Some(v));
    m.add_function(b.finish());

    let benign = {
        let mut vm = Vm::new(&m, VmConfig::default(), InputPlan::benign(1));
        vm.run("main", &[]).unwrap().exit
    };
    assert_eq!(benign, ExitReason::Returned(7));

    let mut vm = Vm::new(
        &m,
        VmConfig::default(),
        InputPlan::with_attack(1, AttackSpec::aimed(0, 32, 0x41)),
    );
    let attacked = vm.run("main", &[]).unwrap().exit;
    assert_eq!(attacked, ExitReason::Returned(0x41), "h2 must be smashed");
}

#[test]
fn pythia_relayout_places_canary_after_each_vulnerable_buffer() {
    // Build a function with one vulnerable buffer between two innocent
    // locals; after the pass, the entry-block alloca order must be
    // [innocent..., buffer, canary].
    let mut m = Module::new("layout");
    let mut b = FunctionBuilder::new("main", vec![], Ty::I64);
    let inno1 = b.alloca(Ty::I64);
    let buf = b.alloca(Ty::array(Ty::I8, 8));
    let inno2 = b.alloca(Ty::I64);
    b.call_intrinsic(Intrinsic::Gets, vec![buf], Ty::ptr(Ty::I8));
    let v1 = b.load(inno1);
    let v2 = b.load(inno2);
    let s = b.add(v1, v2);
    let zero = b.const_i64(0);
    let c = b.icmp(CmpPred::Sge, s, zero);
    let (t, e) = (b.new_block("t"), b.new_block("e"));
    b.br(c, t, e);
    b.switch_to(t);
    b.ret(Some(s));
    b.switch_to(e);
    b.ret(Some(zero));
    m.add_function(b.finish());

    let inst = pythia::core::instrument(&m, Scheme::Pythia);
    assert_eq!(inst.stats.canaries, 1);
    let f = &inst.module.functions()[0];
    let allocas = f.allocas();
    assert_eq!(allocas.len(), 4, "one canary alloca added");
    // The vulnerable buffer must be second-to-last, its canary last.
    let buf_pos = allocas.iter().position(|&a| a == buf).unwrap();
    assert_eq!(buf_pos, allocas.len() - 2, "buffer moved to the top zone");
    let canary = allocas[allocas.len() - 1];
    assert!(matches!(
        f.inst(canary),
        Some(Inst::Alloca {
            elem: Ty::I64,
            count: 1
        })
    ));
    // The innocent locals stay below the vulnerable zone.
    assert!(allocas.iter().position(|&a| a == inno1).unwrap() < buf_pos);
    assert!(allocas.iter().position(|&a| a == inno2).unwrap() < buf_pos);
}

#[test]
fn overflow_from_vulnerable_buffer_cannot_reach_innocents_after_relayout() {
    // Same module as above: under Pythia the buffer sits *above* the
    // innocent locals, so even an undetected overflow would only smash
    // the canary and frame slack — never inno1/inno2.
    let mut m = Module::new("protected_neighbours");
    let mut b = FunctionBuilder::new("main", vec![], Ty::I64);
    // Vanilla layout: the buffer sits *below* the secret, so its overflow
    // (which writes upward) reaches the secret.
    let buf = b.alloca(Ty::array(Ty::I8, 8));
    let secret = b.alloca(Ty::I64);
    let magic = b.const_i64(99);
    b.store(magic, secret);
    b.call_intrinsic(Intrinsic::Gets, vec![buf], Ty::ptr(Ty::I8));
    let v = b.load(secret);
    b.ret(Some(v));
    m.add_function(b.finish());

    // Vanilla: 16-byte overflow kills the secret.
    let mut vm = Vm::new(
        &m,
        VmConfig::default(),
        InputPlan::with_attack(1, AttackSpec::aimed(0, 16, 1)),
    );
    assert_eq!(vm.run("main", &[]).unwrap().exit, ExitReason::Returned(1));

    // Pythia: the same attack traps at the canary, and even the memory
    // write pattern can no longer reach `secret` (it now lies below).
    let inst = pythia::core::instrument(&m, Scheme::Pythia);
    let mut vm = Vm::new(
        &inst.module,
        VmConfig::default(),
        InputPlan::with_attack(1, AttackSpec::aimed(0, 16, 1)),
    );
    let r = vm.run("main", &[]).unwrap();
    assert!(r.detected().is_some(), "canary must fire: {:?}", r.exit);
}
