//! Adversarial pipeline fuzzing: hostile module *text* and hostile
//! *addresses* are driven through the whole parser → verifier → VM chain,
//! and every outcome must be a typed [`PythiaError`] (or a clean run, or
//! a trapped run — traps are data). The chain must never panic, and it
//! must never report `Internal` — that variant is reserved for harness
//! bugs, which is exactly what this net exists to catch.

use proptest::prelude::*;
use pythia::core::{instrument, PythiaError, Scheme};
use pythia::ir::{parser, printer, verify, CastKind, FunctionBuilder, Intrinsic, Module, Ty};
use pythia::vm::{InputPlan, Vm, VmConfig};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// A small execution budget: mutated programs may loop; the budget turns
/// that into a trap instead of a wedged test.
fn cfg(seed: u64) -> VmConfig {
    VmConfig {
        seed,
        max_insts: 200_000,
        ..VmConfig::default()
    }
}

/// What the pipeline did with one adversarial input. Every arm is an
/// acceptable outcome; a panic or an `Internal` error is not.
#[derive(Debug, PartialEq)]
enum Outcome {
    /// The parser rejected the text (typed `ParseError`).
    Rejected,
    /// The verifier rejected the module (typed `VerifyError`s).
    Unverifiable,
    /// The VM ran to an exit (clean return, trap, or budget blow).
    Ran,
    /// The VM returned a typed, non-internal error (e.g. missing entry).
    TypedError(String),
}

/// Drive text through parse → verify → run and classify the result.
fn drive(src: &str, seed: u64) -> Result<Outcome, PythiaError> {
    let module = match parser::parse_module(src) {
        Ok(m) => m,
        Err(_) => return Ok(Outcome::Rejected),
    };
    if verify::verify_module(&module).is_err() {
        return Ok(Outcome::Unverifiable);
    }
    let mut vm = Vm::new(&module, cfg(seed), InputPlan::benign(seed));
    match vm.run("main", &[]) {
        Ok(_) => Ok(Outcome::Ran),
        Err(e) if e.is_internal() => Err(e),
        Err(e) => Ok(Outcome::TypedError(e.to_string())),
    }
}

/// A tiny valid program whose printed text the mutator corrupts.
fn seed_module(slots: u8, ret: i64) -> Module {
    let mut m = Module::new("adv");
    let mut b = FunctionBuilder::new("main", vec![], Ty::I64);
    let mut v = b.const_i64(ret);
    for _ in 0..(slots % 4) + 1 {
        let s = b.alloca(Ty::I64);
        b.store(v, s);
        let l = b.load(s);
        v = b.add(v, l);
    }
    b.ret(Some(v));
    m.add_function(b.finish());
    m
}

/// One text corruption: the kind is chosen by `kind`, anchored at `pos`.
fn mutate(text: &str, kind: u8, pos: usize, byte: u8) -> String {
    let bytes = text.as_bytes();
    if bytes.is_empty() {
        return String::from_utf8_lossy(&[byte]).into_owned();
    }
    let at = pos % bytes.len();
    let mut out = bytes.to_vec();
    match kind % 6 {
        0 => out.truncate(at),                   // cut off mid-token
        1 => {
            out.remove(at);                      // drop one byte
        }
        2 => out.insert(at, byte),               // inject one byte
        3 => out[at] = byte,                     // overwrite one byte
        4 => {
            // duplicate one line (duplicate labels, duplicate values)
            let lines: Vec<&str> = text.lines().collect();
            let i = pos % lines.len();
            let mut l = lines.to_vec();
            l.insert(i, lines[i]);
            return l.join("\n");
        }
        _ => {
            // delete one line (lost terminators, dangling references)
            let lines: Vec<&str> = text.lines().collect();
            let i = pos % lines.len();
            let mut l = lines.to_vec();
            l.remove(i);
            return l.join("\n");
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn mutated_module_text_never_panics_the_pipeline(
        slots in 0u8..8,
        ret in 0i64..100,
        kind in 0u8..6,
        pos in 0usize..4096,
        byte in 0u8..255,
        seed in 0u64..1000,
    ) {
        let text = printer::print_module(&seed_module(slots, ret));
        let hostile = mutate(&text, kind, pos, byte);
        let outcome = catch_unwind(AssertUnwindSafe(|| drive(&hostile, seed)));
        match outcome {
            Ok(Ok(_)) => {}
            Ok(Err(e)) => prop_assert!(false, "internal error on mutated text: {e}\n{hostile}"),
            Err(_) => prop_assert!(false, "pipeline panicked on mutated text:\n{hostile}"),
        }
    }

    #[test]
    fn sanity_unmutated_seed_modules_run_clean(
        slots in 0u8..8,
        ret in 0i64..100,
        seed in 0u64..1000,
    ) {
        // The mutation property is vacuous if the seed program itself
        // doesn't survive the chain.
        let text = printer::print_module(&seed_module(slots, ret));
        prop_assert_eq!(drive(&text, seed).unwrap(), Outcome::Ran);
    }
}

/// Build a program that accesses an attacker-chosen address (`inttoptr`
/// — the pointer/array dualism primitive of paper §3.1): a scalar load
/// (`kind` 0) or store (1), or a bulk write through `gets` (2), `read`
/// (3) or a 32-byte `memcpy` (4).
fn wild_access(addr: u64, kind: u8) -> Module {
    let mut m = Module::new("wild");
    let mut b = FunctionBuilder::new("main", vec![], Ty::I64);
    let k = b.const_i64(addr as i64);
    let p = b.cast(CastKind::IntToPtr, k, Ty::ptr(Ty::I64));
    let bytes = b.cast(CastKind::Bitcast, p, Ty::ptr(Ty::I8));
    let n = b.const_i64(32);
    let r = match kind {
        0 => b.load(p),
        1 => {
            b.store(n, p);
            n
        }
        3 => {
            let fd = b.const_i64(0);
            b.call_intrinsic(Intrinsic::Read, vec![fd, bytes, n], Ty::I64)
        }
        _ => {
            let ret = if kind == 2 {
                b.call_intrinsic(Intrinsic::Gets, vec![bytes], Ty::ptr(Ty::I8))
            } else {
                let src = b.alloca(Ty::array(Ty::I8, 32));
                b.call_intrinsic(Intrinsic::Memcpy, vec![bytes, src, n], Ty::ptr(Ty::I8))
            };
            b.cast(CastKind::PtrToInt, ret, Ty::I64)
        }
    };
    b.ret(Some(r));
    m.add_function(b.finish());
    m
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn wild_addresses_trap_or_error_under_every_scheme(
        addr in prop_oneof![
            0u64..0x2000,                                  // null page & low VA
            (1u64 << 40)..(1u64 << 40) + 0x1000,           // unmapped middle
            (u64::MAX - 0x1000)..u64::MAX,                 // checked_add edge
            (u64::MAX - 64)..u64::MAX,                     // bulk writes that wrap
        ],
        scheme_ix in 0usize..4,
        kind in 0u8..5,
        seed in 0u64..1000,
    ) {
        let m = wild_access(addr, kind);
        prop_assert!(verify::verify_module(&m).is_ok());
        let scheme = Scheme::ALL[scheme_ix % Scheme::ALL.len()];
        let inst = instrument(&m, scheme);
        let run = catch_unwind(AssertUnwindSafe(|| {
            let mut vm = Vm::new(&inst.module, cfg(seed), InputPlan::benign(seed));
            vm.run("main", &[])
        }));
        match run {
            // Traps are data: a wild access must end as a trapped (or,
            // for a luckily-mapped address, completed) run — or a typed
            // non-internal error. Never a panic, never `Internal`.
            Ok(Ok(_)) => {}
            Ok(Err(e)) => prop_assert!(
                !e.is_internal(),
                "{scheme:?} @ {addr:#x}: internal error: {e}"
            ),
            Err(_) => prop_assert!(false, "{scheme:?} @ {addr:#x}: VM panicked"),
        }
    }
}
