//! Property tests for the interval domain: every range it reports must
//! contain the values a concrete run computes there, and its relational
//! (difference-bounds) layer — `v ≤ w + k` facts — must survive phi
//! joins with the weaker offset and compose with signed and unsigned
//! guards.

use proptest::prelude::*;
use pythia_analysis::{value_ranges, ValueRanges};
use pythia_ir::{BinOp, BlockId, CmpPred, Function, FunctionBuilder, Inst, Ty, ValueId, ValueKind};
use std::collections::HashMap;

/// Xorshift draws for [`random_function`] and its arguments.
struct Draw(u64);

impl Draw {
    fn below(&mut self, n: u64) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0 % n
    }
    fn small(&mut self) -> i64 {
        self.below(33) as i64 - 16
    }
    fn pick<T: Copy>(&mut self, xs: &[T]) -> T {
        xs[self.below(xs.len() as u64) as usize]
    }
}

/// A function of three `i64` arguments: a chain of up to eight segments,
/// each `add`/`sub`/`mul`/`srem` work, an `icmp` + `br` guard whose
/// failing edge returns, a diamond whose then-arm guards an argument
/// (so only one arm's fact bounds it), a diamond joining two values in a
/// phi, or a counting loop bounded by a constant or an argument. Every
/// operand is an argument, a constant or a value defined earlier on
/// every path.
fn random_function(d: &mut Draw) -> Function {
    let mut b = FunctionBuilder::new("r", vec![Ty::I64; 3], Ty::I64);
    let args: Vec<ValueId> = (0..3).map(|i| b.func().arg(i)).collect();
    let mut pool = args.clone();
    for _ in 0..=d.below(8) {
        let x = d.pick(&pool);
        let y = if d.below(2) == 0 {
            b.const_i64(d.small())
        } else {
            d.pick(&pool)
        };
        let pred = d.pick(&CmpPred::ALL);
        match d.below(5) {
            0 => {
                let op = d.pick(&[BinOp::Add, BinOp::Sub, BinOp::Mul, BinOp::Srem]);
                let y = if op == BinOp::Srem {
                    b.const_i64(d.small() | 1)
                } else {
                    y
                };
                pool.push(b.bin(op, x, y));
            }
            1 => {
                let c = b.icmp(pred, x, y);
                let (cont, out) = (b.new_block("cont"), b.new_block("out"));
                if d.below(2) == 0 {
                    b.br(c, cont, out);
                } else {
                    b.br(c, out, cont);
                }
                b.switch_to(out);
                b.ret(Some(x));
                b.switch_to(cont);
            }
            2 => {
                let c = b.icmp(pred, x, y);
                let [t, t_ok, e, j] = ["t", "t_ok", "e", "j"].map(|n| b.new_block(n));
                b.br(c, t, e);
                b.switch_to(t);
                let a = d.pick(&args);
                let k = b.const_i64(d.small());
                let g = b.icmp(d.pick(&CmpPred::ALL), a, k);
                b.br(g, t_ok, e);
                b.switch_to(t_ok);
                let va = b.add(a, k);
                b.jmp(j);
                b.switch_to(e);
                let vb = b.sub(x, a);
                b.jmp(j);
                b.switch_to(j);
                let p = b.phi(vec![(t_ok, va), (e, vb)]);
                pool.push(b.add(p, a));
            }
            3 => {
                let pre = b.current_block();
                let [head, body, after] = ["head", "body", "after"].map(|n| b.new_block(n));
                let init = b.const_i64(d.below(7) as i64 - 3);
                let (pred, bound) = match d.below(3) {
                    0 => (CmpPred::Ult, b.const_i64(d.below(13) as i64)),
                    1 => (CmpPred::Slt, b.const_i64(d.below(13) as i64)),
                    _ => (CmpPred::Sle, d.pick(&args)),
                };
                let step = b.const_i64(1 + d.below(3) as i64);
                b.jmp(head);
                b.switch_to(head);
                let i = b.phi(vec![(pre, init)]);
                let acc = b.phi(vec![(pre, x)]);
                let c = b.icmp(pred, i, bound);
                b.br(c, body, after);
                b.switch_to(body);
                let i2 = b.add(i, step);
                let acc2 = b.bin(d.pick(&[BinOp::Add, BinOp::Sub]), acc, i);
                b.jmp(head);
                for (phi, next) in [(i, i2), (acc, acc2)] {
                    if let Some(Inst::Phi { incomings }) = b.func_mut().inst_mut(phi) {
                        incomings.push((body, next));
                    }
                }
                b.switch_to(after);
                pool.extend([i, acc]);
            }
            _ => {
                let c = b.icmp(pred, x, y);
                let [t, e, j] = ["t", "e", "j"].map(|n| b.new_block(n));
                b.br(c, t, e);
                b.switch_to(t);
                b.jmp(j);
                b.switch_to(e);
                b.jmp(j);
                b.switch_to(j);
                pool.push(b.phi(vec![(t, x), (e, y)]));
            }
        }
    }
    let last = *pool.last().expect("arguments");
    b.ret(Some(last));
    b.finish()
}

/// Run `f` on `args`, asserting before each instruction that every
/// operand it reads (for a phi, the one its incoming edge selects) lies
/// in the range `ranges` reports there. The arithmetic wraps like the
/// VM's (`srem` divisors are odd constants, never zero).
fn run_checked(f: &Function, ranges: &ValueRanges, args: &[i64]) {
    let mut vals: HashMap<ValueId, i64> = (0..args.len()).map(|i| (f.arg(i), args[i])).collect();
    let (mut bb, mut from) = (f.entry(), None::<BlockId>);
    let check = |vals: &HashMap<ValueId, i64>, at: ValueId, v: ValueId| {
        let x = match f.value(v).kind {
            ValueKind::ConstInt(c) => c,
            _ => vals[&v],
        };
        let r = ranges.range_before(f, at, v);
        assert!(
            r.lo <= x && x <= r.hi,
            "{v} = {x} before {at}, outside [{}, {}]",
            r.lo,
            r.hi
        );
        x
    };
    loop {
        // Phis read their operands on entry, all before any is written.
        let mut bound = Vec::new();
        for &iv in &f.block(bb).insts {
            if let Some(Inst::Phi { incomings }) = f.inst(iv) {
                let (_, v) = incomings
                    .iter()
                    .find(|(p, _)| Some(*p) == from)
                    .expect("edge");
                bound.push((iv, check(&vals, iv, *v)));
            }
        }
        vals.extend(bound);
        for &iv in &f.block(bb).insts {
            let mut ops = Vec::new();
            match f.inst(iv).expect("instruction") {
                Inst::Phi { .. } => continue,
                inst => inst.for_each_operand(|v| ops.push(check(&vals, iv, v))),
            }
            let result = match f.inst(iv).expect("instruction") {
                Inst::Bin { op, .. } => match op {
                    BinOp::Add => ops[0].wrapping_add(ops[1]),
                    BinOp::Sub => ops[0].wrapping_sub(ops[1]),
                    BinOp::Mul => ops[0].wrapping_mul(ops[1]),
                    _ => ops[0].wrapping_rem(ops[1]),
                },
                Inst::Icmp { pred, .. } => i64::from(pred.eval(ops[0], ops[1])),
                Inst::Br {
                    then_bb, else_bb, ..
                } => {
                    (from, bb) = (Some(bb), if ops[0] != 0 { *then_bb } else { *else_bb });
                    break;
                }
                Inst::Jmp { target } => {
                    (from, bb) = (Some(bb), *target);
                    break;
                }
                Inst::Ret { .. } => return,
                other => panic!("unexpected {other:?}"),
            };
            vals.insert(iv, result);
        }
    }
}

/// The least `w` that reaches the diamond of
/// `phi_join_keeps_the_weaker_difference_bound`.
const W_MIN: i64 = -100_000;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Soundness: on random functions, every operand's concrete value
    /// on every run lies in the range reported just before its use.
    #[test]
    fn every_concrete_value_lies_in_its_reported_range(seed in 1u64..u64::MAX) {
        let mut d = Draw(seed);
        let f = random_function(&mut d);
        let mut errs = Vec::new();
        pythia_ir::verify::verify_function(&pythia_ir::Module::new("x"), &f, &mut errs);
        prop_assert!(errs.is_empty(), "{:?}", errs);
        let r = value_ranges(&f);
        prop_assert!(r.converged());
        for _ in 0..16 {
            let args: Vec<i64> = (0..3).map(|_| d.below(161) as i64 - 80).collect();
            run_checked(&f, &r, &args);
        }
    }

    /// A diamond writes `v = w + c1` on one arm and `v = w + c2` on the
    /// other; after the join only the *weaker* bound `v ≤ w + max(c1,c2)`
    /// may survive. A later guard `w < n` then pins the substituted upper
    /// bound to exactly `n - 1 + max(c1, c2)` — plain intervals cannot see
    /// this because `v` was computed while `w` was still unbounded above.
    /// An entry guard `w ≥ W_MIN` keeps a negative `c` from wrapping `v`
    /// below `i64::MIN`, which would void the bound.
    #[test]
    fn phi_join_keeps_the_weaker_difference_bound(
        c1 in -1000i64..1000,
        c2 in -1000i64..1000,
        n in -1000i64..1000,
        w0 in W_MIN..100_000,
        take_first in 0u8..2,
    ) {
        let mut b = FunctionBuilder::new("f", vec![Ty::I64, Ty::I64], Ty::I64);
        let b1 = b.new_block("b1");
        let b2 = b.new_block("b2");
        let join = b.new_block("join");
        let guarded = b.new_block("guarded");
        let out = b.new_block("out");
        let split = b.new_block("split");
        let w = b.func().arg(0);
        let s = b.func().arg(1);
        let zero = b.const_i64(0);
        let wmin = b.const_i64(W_MIN);
        let cw = b.icmp(CmpPred::Sge, w, wmin);
        b.br(cw, split, out);
        b.switch_to(split);
        let cs = b.icmp(CmpPred::Slt, s, zero);
        b.br(cs, b1, b2);
        b.switch_to(b1);
        let k1 = b.const_i64(c1);
        let v1 = b.add(w, k1);
        b.jmp(join);
        b.switch_to(b2);
        let k2 = b.const_i64(c2);
        let v2 = b.add(w, k2);
        b.jmp(join);
        b.switch_to(join);
        let v = b.phi(vec![(b1, v1), (b2, v2)]);
        let nc = b.const_i64(n);
        let cg = b.icmp(CmpPred::Slt, w, nc);
        b.br(cg, guarded, out);
        b.switch_to(guarded);
        let u = b.add(v, zero);
        b.ret(Some(u));
        b.switch_to(out);
        b.ret(Some(zero));
        let f = b.finish();

        let r = value_ranges(&f);
        prop_assert!(r.converged());
        let range = r.range_before(&f, u, v);

        // Precision: the join must keep exactly max(c1, c2), not the
        // stronger (unsound) min and not drop the relation entirely.
        prop_assert_eq!(range.hi, n - 1 + c1.max(c2), "c1={} c2={} n={}", c1, c2, n);
        prop_assert!(range.lo <= W_MIN + c1.min(c2), "lo {}", range.lo);

        // Soundness against a concrete run that reaches `guarded`.
        if w0 < n {
            let v_conc = if take_first == 1 { w0 + c1 } else { w0 + c2 };
            prop_assert!(
                range.lo <= v_conc && v_conc <= range.hi,
                "concrete v={} escapes [{}, {}]",
                v_conc, range.lo, range.hi
            );
        }
    }

    /// Mixed guard chain: `lim ≥ 0` (signed), `i <u lim` (unsigned,
    /// records `i ≤ lim - 1` because the bound is provably non-negative),
    /// then `lim < n` (signed, against a constant). Substituting the
    /// difference bound at the use point yields exactly `i ∈ [0, n - 2]`.
    #[test]
    fn unsigned_guard_composes_with_signed_clamp(
        n in 2i64..4096,
        i0 in 0i64..100_000,
        lim0 in 0i64..100_000,
    ) {
        let mut b = FunctionBuilder::new("g", vec![Ty::I64, Ty::I64], Ty::I64);
        let mid = b.new_block("mid");
        let inner = b.new_block("inner");
        let usebb = b.new_block("usebb");
        let out = b.new_block("out");
        let i = b.func().arg(0);
        let lim = b.func().arg(1);
        let zero = b.const_i64(0);
        let cg = b.icmp(CmpPred::Sge, lim, zero);
        b.br(cg, mid, out);
        b.switch_to(mid);
        let cu = b.icmp(CmpPred::Ult, i, lim);
        b.br(cu, inner, out);
        b.switch_to(inner);
        let nc = b.const_i64(n);
        let cs = b.icmp(CmpPred::Slt, lim, nc);
        b.br(cs, usebb, out);
        b.switch_to(usebb);
        let u = b.add(i, zero);
        b.ret(Some(u));
        b.switch_to(out);
        b.ret(Some(zero));
        let f = b.finish();

        let r = value_ranges(&f);
        prop_assert!(r.converged());
        let range = r.range_before(&f, u, i);
        prop_assert_eq!(range.lo, 0);
        prop_assert_eq!(range.hi, n - 2, "n={}", n);

        // Any concrete (i0, lim0) that passes all three guards must land
        // inside the derived range.
        if lim0 >= 0 && (i0 as u64) < (lim0 as u64) && lim0 < n {
            prop_assert!(range.lo <= i0 && i0 <= range.hi);
        }
    }

    /// A negative-capable unsigned bound supports no refinement: with no
    /// `lim ≥ 0` pre-guard the `i <u lim` edge must record nothing — a
    /// signed-negative `lim` reinterprets as a huge unsigned bound, so
    /// deriving `i ≤ lim - 1` (or any interval clamp) would be unsound.
    #[test]
    fn unsigned_guard_without_nonneg_bound_is_dropped(
        n in 2i64..4096,
    ) {
        let mut b = FunctionBuilder::new("h", vec![Ty::I64, Ty::I64], Ty::I64);
        let inner = b.new_block("inner");
        let usebb = b.new_block("usebb");
        let out = b.new_block("out");
        let i = b.func().arg(0);
        let lim = b.func().arg(1);
        let zero = b.const_i64(0);
        let cu = b.icmp(CmpPred::Ult, i, lim);
        b.br(cu, inner, out);
        b.switch_to(inner);
        let nc = b.const_i64(n);
        let cs = b.icmp(CmpPred::Slt, lim, nc);
        b.br(cs, usebb, out);
        b.switch_to(usebb);
        let u = b.add(i, zero);
        b.ret(Some(u));
        b.switch_to(out);
        b.ret(Some(zero));
        let f = b.finish();

        let r = value_ranges(&f);
        prop_assert!(r.converged());
        let range = r.range_before(&f, u, i);
        // i = -5, lim = -1 passes both guards (unsigned -5 < unsigned -1,
        // and -1 < n), so any finite bound on i would exclude it.
        prop_assert!(range.is_full(), "unsound refinement: [{}, {}]", range.lo, range.hi);
    }
}
