//! The seeded synthetic program generator.
//!
//! SPEC CPU2017 sources and ref inputs cannot ship with this repository
//! (license + size), so each benchmark is a generated PIR program whose
//! *shape* follows its [`BenchProfile`]:
//! worker functions full of branch "diamonds" whose predicates reach
//! memory in the styles the paper cares about (plain scalars, dynamic
//! pointer arithmetic, struct fields, heap cells, forged pointers), fed by
//! the paper's input-channel categories, driven from a `main` loop.
//!
//! Programs are fully executable and deterministic for a given profile.

use crate::profiles::BenchProfile;
use pythia_ir::{
    CastKind, CmpPred, FuncId, FunctionBuilder, GlobalId, Inst, Intrinsic, Module, Ty, ValueId,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Shared module globals used by the generated code.
struct Globals {
    fmt: GlobalId,
    msg: GlobalId,
    src: GlobalId,
}

/// The ten predicate styles (see profile weights).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Style {
    Pure,
    /// Memory-backed but channel-free: in CPA's *unrefined* vulnerable set
    /// (it feeds a branch) yet refined away by Pythia — the source of the
    /// paper's 4.5x variable reduction and CPA's extra cost.
    PureMem,
    CopyScalar,
    StrBuf,
    GepDyn,
    Field,
    Scan,
    Get,
    Heap,
    Forged,
    /// Bounded array walk: a channel-tainted index stored through a `gep`
    /// behind explicit `0 <= idx < 8` guards (the bounds-check idiom real
    /// code carries), then a counted walk over the array. Unlike `GepDyn`
    /// (whose `srem` index the interval domain does not track), the guard
    /// refinement lets `interval.rs` *prove* the store in-bounds, so the
    /// pruner can discharge the obligation. Ref-tier-only (`w_walk`).
    Walk,
    /// Nested-helper + re-store: a heap store funneled through the
    /// module-level `hwrap` wrapper (so the constant capacity sits *two*
    /// call hops from `hput`'s bounds check — visible to the summary
    /// k-CFA chain, conflated by a depth-1 clone), followed by a pointer
    /// slot that is re-pointed from the branch-feeding array to a sink
    /// array before its only read (so only a flow-sensitive strong update
    /// can prove the branch array untouched by the tainted store). The
    /// two shapes the summary policy discharges and 1-CFA cannot.
    Nest,
}

const STYLES: [Style; 11] = [
    Style::Pure,
    Style::CopyScalar,
    Style::StrBuf,
    Style::GepDyn,
    Style::Field,
    Style::Scan,
    Style::Get,
    Style::Heap,
    Style::Forged,
    Style::Walk,
    Style::Nest,
];

fn pick_style(rng: &mut SmallRng, p: &BenchProfile) -> Style {
    let w = p.style_weights();
    let total: f64 = w.iter().sum();
    let mut roll = rng.gen_range(0.0..total);
    for (i, weight) in w.iter().enumerate() {
        if roll < *weight {
            // Pure predicates still live in memory at -O3 when register
            // pressure forces spills or the value is struct-bound; the
            // profile's `mem_pressure` decides the split.
            if STYLES[i] == Style::Pure && rng.gen_bool(p.mem_pressure) {
                return Style::PureMem;
            }
            return STYLES[i];
        }
        roll -= weight;
    }
    Style::Pure
}

/// One planned predicate with its pre-allocated stack slots.
struct Pred {
    style: Style,
    slots: Vec<ValueId>,
    /// Channel code usually sits behind a condition (parsing paths); a
    /// minority of channels run unconditionally (hot-path IO).
    guarded: bool,
}

/// Generate the module for `profile`.
pub fn generate(profile: &BenchProfile) -> Module {
    let mut m = Module::new(profile.name);
    let globals = Globals {
        fmt: m.add_str_global("fmt_d", "%d"),
        msg: m.add_str_global("msg", "checkpoint\n"),
        src: m.add_str_global("src_text", "abcdefghijklmno"),
    };
    let mut rng = SmallRng::seed_from_u64(profile.seed);

    // The shared heap-store helper every `Style::Heap` predicate calls.
    // Added first (before any RNG draw) so worker ids shift uniformly and
    // generation stays deterministic.
    let hput = m.add_function(gen_hput());
    // The nested wrapper exists only when the profile draws `Nest`
    // predicates, so nest-free profiles keep their historical modules
    // bit-for-bit.
    let hwrap = (profile.w_nest > 0.0).then(|| m.add_function(gen_hwrap(hput)));
    let mut worker_ids = Vec::new();
    for w in 0..profile.functions {
        let f = gen_worker(profile, &globals, &mut rng, w, Helpers { hput, hwrap });
        worker_ids.push(m.add_function(f));
    }
    let main = gen_main(profile, &worker_ids);
    m.add_function(main);
    m
}

/// Generate `profile` with its driver loop scaled by `factor` (for quick
/// CI runs or longer soak runs; `1.0` = the profile's own size).
pub fn generate_scaled(profile: &BenchProfile, factor: f64) -> Module {
    let mut p = *profile;
    p.loop_iters = ((p.loop_iters as f64 * factor).round() as u64).max(1);
    let mut m = generate(&p);
    m.name = profile.name.to_owned();
    m
}

/// Generate every SPEC-like benchmark module.
pub fn generate_all() -> Vec<(&'static BenchProfile, Module)> {
    crate::profiles::SPEC_PROFILES
        .iter()
        .map(|p| (p, generate(p)))
        .collect()
}

// -----------------------------------------------------------------------
// Worker functions
// -----------------------------------------------------------------------

/// The shared heap-store helper: `hput(p, len, i, v)` stores `v` at `p[i]`
/// iff `i <u len` and returns `v`. One definition serves every heap
/// predicate in the module, the way real code funnels writes through a
/// bounds-checked setter. A context-insensitive points-to solve conflates
/// all callers' heap cells through `p` (and `len` is unknowable), while
/// the 1-CFA solve sees — per callsite context — a single heap object and
/// a constant `len`, which the relational interval domain turns into an
/// in-bounds proof. This is exactly the precision gap the
/// context-sensitive layer exists to close.
fn gen_hput() -> pythia_ir::Function {
    let mut b = FunctionBuilder::new(
        "hput",
        vec![Ty::ptr(Ty::I64), Ty::I64, Ty::I64, Ty::I64],
        Ty::I64,
    );
    let p = b.func().arg(0);
    let len = b.func().arg(1);
    let i = b.func().arg(2);
    let v = b.func().arg(3);
    let ok = b.new_block("hok");
    let out = b.new_block("hout");
    // One unsigned compare covers both bounds: `i <u len` rejects negative
    // indices for free (they wrap huge).
    let c = b.icmp(CmpPred::Ult, i, len);
    b.br(c, ok, out);
    b.switch_to(ok);
    let q = b.gep(p, i);
    b.store(v, q);
    b.jmp(out);
    b.switch_to(out);
    b.ret(Some(v));
    b.finish()
}

/// The module-level indirection over [`gen_hput`]: `hwrap(p, len, i, v)`
/// just forwards to `hput`. Real code wraps setters in logging/validation
/// shims exactly like this — and the shim is what breaks depth-1 context
/// sensitivity: from `hput`'s point of view every `hwrap` callsite is one
/// context, so the constant `len` each *worker* passes is conflated away.
/// The summary k-CFA (k ≥ 2) chain `[hput ← hwrap ← worker]` still
/// reaches the constant, re-arming the relational in-bounds proof.
fn gen_hwrap(hput: FuncId) -> pythia_ir::Function {
    let mut b = FunctionBuilder::new(
        "hwrap",
        vec![Ty::ptr(Ty::I64), Ty::I64, Ty::I64, Ty::I64],
        Ty::I64,
    );
    let p = b.func().arg(0);
    let len = b.func().arg(1);
    let i = b.func().arg(2);
    let v = b.func().arg(3);
    let r = b.call(hput, vec![p, len, i, v], Ty::I64);
    b.ret(Some(r));
    b.finish()
}

/// The shared helper functions a worker's predicates may call into.
#[derive(Clone, Copy)]
struct Helpers {
    /// The bounds-checked heap setter (`hput`).
    hput: FuncId,
    /// The module-level forwarding wrapper over `hput`; only emitted
    /// when the profile carries `Nest` predicates.
    hwrap: Option<FuncId>,
}

fn gen_worker(
    profile: &BenchProfile,
    globals: &Globals,
    rng: &mut SmallRng,
    index: usize,
    helpers: Helpers,
) -> pythia_ir::Function {
    let mut b = FunctionBuilder::new(format!("work_{index}"), vec![Ty::I64], Ty::I64);
    let x = b.func().arg(0);

    // ---- plan: styles + entry-block allocas -------------------------
    let n_branches = rng.gen_range(profile.branches_per_fn.0..=profile.branches_per_fn.1);
    let mut preds = Vec::with_capacity(n_branches);
    for _ in 0..n_branches {
        let style = pick_style(rng, profile);
        let slots = match style {
            Style::Pure => vec![],
            Style::PureMem => vec![b.alloca(Ty::I64)],
            Style::CopyScalar => vec![b.alloca(Ty::I64), b.alloca(Ty::I64)],
            Style::StrBuf => vec![
                b.alloca(Ty::array(Ty::I8, 16)),
                b.alloca(Ty::array(Ty::I8, 16)),
            ],
            Style::GepDyn => vec![b.alloca(Ty::I64), b.alloca(Ty::array(Ty::I64, 8))],
            Style::Field => vec![
                b.alloca(Ty::I64),
                b.alloca(Ty::strukt(vec![Ty::I64, Ty::I64])),
            ],
            Style::Scan => vec![b.alloca(Ty::I64)],
            Style::Get => vec![b.alloca(Ty::array(Ty::I8, 16))],
            Style::Heap => vec![b.alloca(Ty::I64), b.alloca(Ty::I64)],
            Style::Forged => vec![b.alloca(Ty::I64), b.alloca(Ty::I64)],
            Style::Walk => vec![
                b.alloca(Ty::I64),
                b.alloca(Ty::I64),
                b.alloca(Ty::array(Ty::I64, 8)),
            ],
            Style::Nest => nest_slots(&mut b),
        };
        // Scalar channels (memcpy/scanf into one word) run on the hot
        // path unconditionally; bulk channels sit behind parsing guards.
        let guarded = !matches!(
            style,
            Style::Pure | Style::PureMem | Style::CopyScalar | Style::Scan
        ) && rng.gen_bool(0.75);
        preds.push(Pred {
            style,
            slots,
            guarded,
        });
    }
    // Most real functions touch at least one channel-derived scalar on
    // their hot path; give workers one when the dice produced none.
    let has_hot_channel = preds
        .iter()
        .any(|p| matches!(p.style, Style::CopyScalar | Style::Scan));
    let convert_p = (6.0 * (profile.w_copy_scalar + profile.w_scan)).min(0.9);
    if !has_hot_channel && !preds.is_empty() && rng.gen_bool(convert_p) {
        let idx = rng.gen_range(0..preds.len());
        let slots = vec![b.alloca(Ty::I64), b.alloca(Ty::I64)];
        preds[idx] = Pred {
            style: Style::CopyScalar,
            slots,
            guarded: false,
        };
    }
    // The walk style is what makes interval proofs fire at scale; a
    // profile that asks for walks (`w_walk > 0`, i.e. the ref tier) is
    // guaranteed at least one per worker so tier-level assertions
    // (nonzero proven-geps) do not ride on draw luck. Gated on `w_walk`
    // so standard-tier RNG streams and modules are untouched.
    if profile.w_walk > 0.0 && !preds.iter().any(|p| p.style == Style::Walk) {
        let slots = vec![
            b.alloca(Ty::I64),
            b.alloca(Ty::I64),
            b.alloca(Ty::array(Ty::I64, 8)),
        ];
        preds.push(Pred {
            style: Style::Walk,
            slots,
            guarded: false,
        });
    }
    // Same structural guarantee for the nested-helper/re-store style: a
    // profile that asks for it (`w_nest > 0`) carries at least one per
    // worker, so the summary policy's pruning deltas over 1-CFA (constant
    // capacity through two call hops, strong-update kill) never ride on
    // draw luck. Gated on `w_nest` so nest-free profiles are untouched.
    if profile.w_nest > 0.0 && !preds.iter().any(|p| p.style == Style::Nest) {
        let slots = nest_slots(&mut b);
        preds.push(Pred {
            style: Style::Nest,
            slots,
            guarded: false,
        });
    }
    let has_loop = rng.gen_bool(profile.inner_loop);
    let loop_arr = has_loop.then(|| b.alloca(Ty::array(Ty::I64, 4)));

    // ---- emit: diamonds ---------------------------------------------
    let mut acc = x;
    for (j, pred) in preds.iter().enumerate() {
        if rng.gen_bool(profile.print_filler) {
            let msg = b.global_addr(globals.msg, Ty::array(Ty::I8, 12));
            b.call_intrinsic(Intrinsic::Printf, vec![msg], Ty::I64);
        }
        // Channel-touching predicates execute on a fraction of calls, the
        // way parsing/IO code does in real programs; pure compute runs
        // unconditionally.
        let cond = if pred.guarded {
            let four = b.const_i64(4);
            let zero = b.const_i64(0);
            let gsel = b.bin(pythia_ir::BinOp::Srem, x, four);
            let g = b.icmp(CmpPred::Eq, gsel, zero);
            let icb = b.new_block(format!("ic{j}"));
            let skipb = b.new_block(format!("skip{j}"));
            let pj = b.new_block(format!("pj{j}"));
            b.br(g, icb, skipb);
            b.switch_to(icb);
            let cond_ic = emit_predicate(&mut b, pred, x, globals, rng, j, helpers);
            // Predicates with internal control flow (Walk) end in a block
            // of their own; the join phi must name the actual predecessor.
            let ic_end = b.current_block();
            b.jmp(pj);
            b.switch_to(skipb);
            let ca = b.const_i64(3);
            let hundred = b.const_i64(100);
            let fifty = b.const_i64(50);
            let t1 = b.mul(x, ca);
            let t2 = b.bin(pythia_ir::BinOp::Srem, t1, hundred);
            let cond_skip = b.icmp(CmpPred::Sgt, t2, fifty);
            b.jmp(pj);
            b.switch_to(pj);
            b.phi(vec![(ic_end, cond_ic), (skipb, cond_skip)])
        } else {
            emit_predicate(&mut b, pred, x, globals, rng, j, helpers)
        };
        let tb = b.new_block(format!("t{j}"));
        let eb = b.new_block(format!("e{j}"));
        let jb = b.new_block(format!("j{j}"));
        b.br(cond, tb, eb);
        let c1 = b.const_i64(rng.gen_range(1..9));
        let c2 = b.const_i64(rng.gen_range(1..9));
        b.switch_to(tb);
        let ta = b.add(acc, c1);
        b.jmp(jb);
        b.switch_to(eb);
        let ea = b.add(acc, c2);
        b.jmp(jb);
        b.switch_to(jb);
        acc = b.phi(vec![(tb, ta), (eb, ea)]);
    }

    // ---- optional inner summing loop ---------------------------------
    //
    // The loop re-loads a channel-written scalar every iteration when one
    // exists: this is where CPA pays an authentication per use and DFI a
    // check per use, while Pythia's canary scheme pays nothing (its cost
    // sits at the channel boundary) — the paper's core cost asymmetry.
    if let Some(arr) = loop_arr {
        // The loop re-loads (a) a channel-written scalar — where CPA pays
        // an authentication and DFI a check per iteration — and (b) a
        // channel-free memory slot — where only DFI pays. Both are
        // unconditionally initialized before the loop.
        let channel_slot = preds.iter().find_map(|p| match p.style {
            Style::CopyScalar if !p.guarded => Some(p.slots[1]),
            Style::Scan if !p.guarded => Some(p.slots[0]),
            _ => None,
        });
        let clean_slot = preds.iter().find_map(|p| match p.style {
            Style::PureMem => Some(p.slots[0]),
            _ => None,
        });
        acc = emit_sum_loop(
            &mut b,
            arr,
            x,
            acc,
            rng.gen_range(48..96),
            channel_slot.or(clean_slot),
        );
    }

    b.ret(Some(acc));
    b.finish()
}

/// Entry-block slots for one `Nest` predicate: channel staging + index
/// slot, the re-pointed pointer slot, the branch-feeding array, and the
/// sacrificial sink array.
fn nest_slots(b: &mut FunctionBuilder) -> Vec<ValueId> {
    vec![
        b.alloca(Ty::I64),
        b.alloca(Ty::I64),
        b.alloca(Ty::ptr(Ty::array(Ty::I64, 8))),
        b.alloca(Ty::array(Ty::I64, 8)),
        b.alloca(Ty::array(Ty::I64, 8)),
    ]
}

/// Emit the predicate computation for one diamond; returns the `i1` cond.
/// `j` is the diamond index, used to keep block names unique for styles
/// that emit internal control flow.
fn emit_predicate(
    b: &mut FunctionBuilder,
    pred: &Pred,
    x: ValueId,
    globals: &Globals,
    rng: &mut SmallRng,
    j: usize,
    helpers: Helpers,
) -> ValueId {
    let ca = b.const_i64(rng.gen_range(1..7));
    let hundred = b.const_i64(100);
    let fifty = b.const_i64(50);
    let eight = b.const_i64(8);
    match pred.style {
        Style::Pure => {
            let cb = b.const_i64(rng.gen_range(1..97));
            let t1 = b.mul(x, ca);
            let t2 = b.add(t1, cb);
            let t3 = b.bin(pythia_ir::BinOp::Srem, t2, hundred);
            b.icmp(CmpPred::Sgt, t3, fifty)
        }
        Style::PureMem => {
            let v = pred.slots[0];
            let cb = b.const_i64(rng.gen_range(1..97));
            let t1 = b.mul(x, ca);
            let t2 = b.add(t1, cb);
            b.store(t2, v);
            let lv = b.load(v);
            let t3 = b.bin(pythia_ir::BinOp::Srem, lv, hundred);
            b.icmp(CmpPred::Sgt, t3, fifty)
        }
        Style::CopyScalar => {
            let (staging, v) = (pred.slots[0], pred.slots[1]);
            let xv = b.mul(x, ca);
            b.store(xv, staging);
            b.call_intrinsic(Intrinsic::Memcpy, vec![v, staging, eight], Ty::ptr(Ty::I8));
            let lv = b.load(v);
            let t = b.bin(pythia_ir::BinOp::Srem, lv, hundred);
            b.icmp(CmpPred::Sgt, t, fifty)
        }
        Style::StrBuf => {
            let (src, dst) = (pred.slots[0], pred.slots[1]);
            let seven = b.const_i64(7);
            let one = b.const_i64(1);
            let l0 = b.bin(pythia_ir::BinOp::Srem, x, seven);
            let len = b.add(l0, one);
            let g = b.global_addr(globals.src, Ty::array(Ty::I8, 16));
            b.call_intrinsic(Intrinsic::Memcpy, vec![src, g, len], Ty::ptr(Ty::I8));
            b.call_intrinsic(Intrinsic::Strcpy, vec![dst, src], Ty::ptr(Ty::I8));
            if rng.gen_bool(0.2) {
                let two = b.const_i64(2);
                b.call_intrinsic(Intrinsic::Strncat, vec![dst, src, two], Ty::ptr(Ty::I8));
            }
            let n = b.call_intrinsic(Intrinsic::Strlen, vec![dst], Ty::I64);
            let four = b.const_i64(4);
            b.icmp(CmpPred::Sgt, n, four)
        }
        Style::GepDyn => {
            let (staging, arr) = (pred.slots[0], pred.slots[1]);
            let xv = b.mul(x, ca);
            b.store(xv, staging);
            b.call_intrinsic(
                Intrinsic::Memcpy,
                vec![arr, staging, eight],
                Ty::ptr(Ty::I8),
            );
            let idx = b.bin(pythia_ir::BinOp::Srem, x, eight);
            let p = b.gep(arr, idx);
            let lv = b.load(p);
            let t = b.bin(pythia_ir::BinOp::Srem, lv, hundred);
            b.icmp(CmpPred::Sgt, t, fifty)
        }
        Style::Field => {
            let (staging, s) = (pred.slots[0], pred.slots[1]);
            let xv = b.mul(x, ca);
            b.store(xv, staging);
            let f1 = b.field_addr(s, 1);
            b.call_intrinsic(Intrinsic::Memcpy, vec![f1, staging, eight], Ty::ptr(Ty::I8));
            let lv = b.load(f1);
            let t = b.bin(pythia_ir::BinOp::Srem, lv, hundred);
            b.icmp(CmpPred::Sgt, t, fifty)
        }
        Style::Scan => {
            let v = pred.slots[0];
            let fmt = b.global_addr(globals.fmt, Ty::array(Ty::I8, 3));
            b.call_intrinsic(Intrinsic::Scanf, vec![fmt, v], Ty::I64);
            let lv = b.load(v);
            b.icmp(CmpPred::Sgt, lv, fifty)
        }
        Style::Get => {
            let buf = pred.slots[0];
            let lim = b.const_i64(15);
            b.call_intrinsic(Intrinsic::Fgets, vec![buf, lim], Ty::ptr(Ty::I8));
            let zero = b.const_i64(0);
            let p0 = b.gep(buf, zero);
            let c0 = b.load(p0);
            let ext = b.cast(CastKind::Sext, c0, Ty::I64);
            let thresh = b.const_i64(109); // 'm'
            b.icmp(CmpPred::Sgt, ext, thresh)
        }
        Style::Heap => {
            let (staging, idxslot) = (pred.slots[0], pred.slots[1]);
            // The *index* arrives through the move/copy channel (a stack
            // destination), not the heap cell itself: the heap object is
            // attacker-reachable only through the guarded store inside
            // `hput`, so a precise-enough solver can discharge it.
            let xv = b.mul(x, ca);
            let thirty_two = b.const_i64(32);
            let t0 = b.bin(pythia_ir::BinOp::Srem, xv, thirty_two);
            b.store(t0, staging);
            b.call_intrinsic(
                Intrinsic::Memcpy,
                vec![idxslot, staging, eight],
                Ty::ptr(Ty::I8),
            );
            let idx = b.load(idxslot);
            let words: i64 = [4, 8, 16][rng.gen_range(0..3)];
            let wordsc = b.const_i64(words);
            let bytes = b.const_i64(words * 8);
            let alloc_fn = if rng.gen_bool(0.15) {
                Intrinsic::Mmap
            } else {
                Intrinsic::Malloc
            };
            let h = b.call_intrinsic(alloc_fn, vec![bytes], Ty::ptr(Ty::I64));
            // Define word 0 before the post-call read (DFI setdef).
            let zero = b.const_i64(0);
            let p0 = b.gep(h, zero);
            b.store(xv, p0);
            // Store the channel-derived index itself: the heap cell holds
            // attacker-influenced data (so Pythia's refinement keeps its
            // obligation) while remaining out of overflow reach — the
            // prunable shape.
            let r = b.call(helpers.hput, vec![h, wordsc, idx, idx], Ty::I64);
            let lv = b.load(h);
            b.call_intrinsic(Intrinsic::Free, vec![h], Ty::Void);
            let t2 = b.add(lv, r);
            let t3 = b.bin(pythia_ir::BinOp::Srem, t2, hundred);
            b.icmp(CmpPred::Sgt, t3, fifty)
        }
        Style::Forged => {
            let (staging, v) = (pred.slots[0], pred.slots[1]);
            let xv = b.mul(x, ca);
            b.store(xv, staging);
            b.call_intrinsic(Intrinsic::Memcpy, vec![v, staging, eight], Ty::ptr(Ty::I8));
            let lv = b.load(v);
            // Pointer dualism: rebuild the address through an integer.
            let ai = b.cast(CastKind::PtrToInt, v, Ty::I64);
            let p2 = b.cast(CastKind::IntToPtr, ai, Ty::ptr(Ty::I64));
            let w = b.load(p2);
            let t0 = b.add(w, lv);
            let t = b.bin(pythia_ir::BinOp::Srem, t0, hundred);
            b.icmp(CmpPred::Sgt, t, fifty)
        }
        Style::Walk => {
            let (staging, idxslot, arr) = (pred.slots[0], pred.slots[1], pred.slots[2]);
            let zero = b.const_i64(0);
            let one = b.const_i64(1);
            // The index arrives through a move/copy channel: it is
            // attacker-tainted, so the store below is an overflow
            // obligation until the bounds proof discharges it.
            let xv = b.mul(x, ca);
            b.store(xv, staging);
            b.call_intrinsic(
                Intrinsic::Memcpy,
                vec![idxslot, staging, eight],
                Ty::ptr(Ty::I8),
            );
            let idx = b.load(idxslot);
            // Explicit `0 <= idx && idx < 8` guards — branch-edge
            // refinement clamps the (otherwise unknown) loaded index to
            // [0, 7], which is exactly what `interval.rs` needs to prove
            // the gep store in-bounds.
            let lo = b.icmp(CmpPred::Sge, idx, zero);
            let lob = b.new_block(format!("wlo{j}"));
            let okb = b.new_block(format!("wok{j}"));
            let badb = b.new_block(format!("wbad{j}"));
            let joinb = b.new_block(format!("wj{j}"));
            b.br(lo, lob, badb);
            b.switch_to(lob);
            let hi = b.icmp(CmpPred::Slt, idx, eight);
            b.br(hi, okb, badb);
            b.switch_to(okb);
            // Tainted index, proven bounds: the one store shape the
            // pruner can discharge (reach.rs `proven_gep_stores`).
            let p = b.gep(arr, idx);
            b.store(xv, p);
            // Bounded walk over the array: the dynamic bulk of the style.
            let pre = b.current_block();
            let wbody = b.new_block(format!("wloop{j}"));
            let wafter = b.new_block(format!("wafter{j}"));
            b.jmp(wbody);
            b.switch_to(wbody);
            let k = b.phi(vec![(pre, zero)]);
            let s = b.phi(vec![(pre, xv)]);
            let q = b.gep(arr, k);
            let lv = b.load(q);
            let s2 = b.add(s, lv);
            let k2 = b.add(k, one);
            if let Some(Inst::Phi { incomings }) = b.func_mut().inst_mut(k) {
                incomings.push((wbody, k2));
            }
            if let Some(Inst::Phi { incomings }) = b.func_mut().inst_mut(s) {
                incomings.push((wbody, s2));
            }
            let wc = b.icmp(CmpPred::Slt, k2, eight);
            b.br(wc, wbody, wafter);
            b.switch_to(wafter);
            let t = b.bin(pythia_ir::BinOp::Srem, s2, hundred);
            let cond_ok = b.icmp(CmpPred::Sgt, t, fifty);
            let ok_end = b.current_block();
            b.jmp(joinb);
            b.switch_to(badb);
            let t1 = b.add(xv, x);
            let t2 = b.bin(pythia_ir::BinOp::Srem, t1, hundred);
            let cond_bad = b.icmp(CmpPred::Sgt, t2, fifty);
            b.jmp(joinb);
            b.switch_to(joinb);
            b.phi(vec![(ok_end, cond_ok), (badb, cond_bad)])
        }
        Style::Nest => {
            let (staging, idxslot, pp) = (pred.slots[0], pred.slots[1], pred.slots[2]);
            let (arr_a, arr_d) = (pred.slots[3], pred.slots[4]);
            let zero = b.const_i64(0);
            // The index arrives through the move/copy channel, as in
            // Heap/Walk: it is attacker-tainted from here on.
            let xv = b.mul(x, ca);
            let thirty_two = b.const_i64(32);
            let t0 = b.bin(pythia_ir::BinOp::Srem, xv, thirty_two);
            b.store(t0, staging);
            b.call_intrinsic(
                Intrinsic::Memcpy,
                vec![idxslot, staging, eight],
                Ty::ptr(Ty::I8),
            );
            let idx = b.load(idxslot);
            // Heap store through the *nested* wrapper: the constant
            // capacity (8 words) sits two call hops from `hput`'s bounds
            // check. A depth-1 context cannot recover it; the summary
            // k-CFA chain can, and the interval proof discharges the
            // heap obligation.
            let bytes = b.const_i64(64);
            let h = b.call_intrinsic(Intrinsic::Malloc, vec![bytes], Ty::ptr(Ty::I64));
            let p0 = b.gep(h, zero);
            b.store(xv, p0);
            let hw = helpers.hwrap.expect("Nest style requires the hwrap helper");
            let r = b.call(hw, vec![h, eight, idx, idx], Ty::I64);
            let hv = b.load(h);
            b.call_intrinsic(Intrinsic::Free, vec![h], Ty::Void);
            // Re-store: `pp` briefly points at the branch-feeding array,
            // then is re-pointed at the sink array before its only read.
            // The tainted unproven-index store below therefore lands in
            // `arr_d` on every execution — but only a flow-sensitive
            // strong update can kill the stale `arr_a` pointee and keep
            // the branch array out of overflow reach.
            let pa_init = b.gep(arr_a, zero);
            b.store(xv, pa_init);
            b.store(arr_a, pp);
            b.store(arr_d, pp);
            let q = b.load(pp);
            let i2 = b.bin(pythia_ir::BinOp::Srem, idx, eight);
            let pw = b.gep(q, i2);
            b.store(r, pw);
            // The branch reads the (provably untouched) first array.
            let av = b.load(pa_init);
            let t2 = b.add(av, hv);
            let t3 = b.bin(pythia_ir::BinOp::Srem, t2, hundred);
            b.icmp(CmpPred::Sgt, t3, fifty)
        }
    }
}

/// Emit `for k in 0..n { acc += arr[k % 4] }` with proper phis; returns
/// the post-loop accumulator value.
fn emit_sum_loop(
    b: &mut FunctionBuilder,
    arr: ValueId,
    x: ValueId,
    acc: ValueId,
    n: i64,
    hot_slot: Option<ValueId>,
) -> ValueId {
    let zero = b.const_i64(0);
    let one = b.const_i64(1);
    let four = b.const_i64(4);
    let limit = b.const_i64(n);
    // Seed arr[0] with x so the loop result varies.
    let p0 = b.gep(arr, zero);
    b.store(x, p0);

    let pre = b.current_block();
    let body = b.new_block("sumloop");
    let after = b.new_block("sumafter");
    b.jmp(body);
    b.switch_to(body);
    let k = b.phi(vec![(pre, zero)]);
    let s = b.phi(vec![(pre, acc)]);
    let idx = b.bin(pythia_ir::BinOp::Srem, k, four);
    let q = b.gep(arr, idx);
    let lv = b.load(q);
    let mut s2 = b.add(s, lv);
    match hot_slot {
        Some(slot) => {
            let hv = b.load(slot);
            s2 = b.add(s2, hv);
        }
        None => {
            let t = b.mul(s2, one);
            s2 = b.add(t, one);
        }
    }
    let k2 = b.add(k, one);
    // Patch the phis with the back edge.
    if let Some(Inst::Phi { incomings }) = b.func_mut().inst_mut(k) {
        incomings.push((body, k2));
    }
    if let Some(Inst::Phi { incomings }) = b.func_mut().inst_mut(s) {
        incomings.push((body, s2));
    }
    let c = b.icmp(CmpPred::Slt, k2, limit);
    b.br(c, body, after);
    b.switch_to(after);
    s2
}

// -----------------------------------------------------------------------
// main driver
// -----------------------------------------------------------------------

fn gen_main(profile: &BenchProfile, workers: &[pythia_ir::FuncId]) -> pythia_ir::Function {
    let mut b = FunctionBuilder::new("main", vec![], Ty::I64);
    let zero = b.const_i64(0);
    let one = b.const_i64(1);
    let iters = b.const_i64(profile.loop_iters as i64);

    let entry = b.current_block();
    let body = b.new_block("drive");
    let exit = b.new_block("done");
    b.jmp(body);
    b.switch_to(body);
    let i = b.phi(vec![(entry, zero)]);
    let acc_in = b.phi(vec![(entry, zero)]);
    let mut acc = acc_in;
    for (w, &fid) in workers.iter().enumerate() {
        let shift = b.const_i64(w as i64);
        let arg = b.add(i, shift);
        let r = b.call(fid, vec![arg], Ty::I64);
        acc = b.add(acc, r);
    }
    if profile.indirect_calls && !workers.is_empty() {
        let fp = b.func_addr(workers[0]);
        let r = b.call_indirect(fp, vec![i], Ty::I64);
        acc = b.add(acc, r);
    }
    let i2 = b.add(i, one);
    if let Some(Inst::Phi { incomings }) = b.func_mut().inst_mut(i) {
        incomings.push((body, i2));
    }
    if let Some(Inst::Phi { incomings }) = b.func_mut().inst_mut(acc_in) {
        incomings.push((body, acc));
    }
    let c = b.icmp(CmpPred::Slt, i2, iters);
    b.br(c, body, exit);
    b.switch_to(exit);
    b.ret(Some(acc));
    b.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiles::{profile_by_name, SPEC_PROFILES};
    use pythia_ir::verify;
    use pythia_vm::{ExitReason, InputPlan, Vm, VmConfig};

    #[test]
    fn all_benchmarks_verify() {
        for p in &SPEC_PROFILES {
            let m = generate(p);
            if let Err(errs) = verify::verify_module(&m) {
                panic!("{}: invalid IR: {:?}", p.name, &errs[..errs.len().min(5)]);
            }
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let p = profile_by_name("gcc").unwrap();
        assert_eq!(generate(p), generate(p));
    }

    #[test]
    fn benchmarks_execute_to_completion() {
        for p in &SPEC_PROFILES {
            let m = generate(p);
            let mut vm = Vm::new(&m, VmConfig::default(), InputPlan::benign(1));
            let r = vm.run("main", &[]).unwrap();
            assert!(
                matches!(r.exit, ExitReason::Returned(_)),
                "{}: {:?}",
                p.name,
                r.exit
            );
            assert!(r.metrics.insts > 1000, "{} too small", p.name);
        }
    }

    #[test]
    fn different_profiles_differ() {
        let a = generate(profile_by_name("lbm").unwrap());
        let b = generate(profile_by_name("gcc").unwrap());
        assert!(b.num_insts() > a.num_insts() * 3);
    }

    #[test]
    fn ic_mix_has_the_right_shape() {
        use pythia_analysis::InputChannels;
        use pythia_ir::IcCategory;
        // Aggregate over all benchmarks: move/copy must dominate, print
        // second (paper Fig. 5b: 65.9 % and 31.5 %).
        let mut total = 0usize;
        let mut copy = 0usize;
        let mut print = 0usize;
        for p in &SPEC_PROFILES {
            let m = generate(p);
            let ics = InputChannels::find(&m);
            total += ics.total();
            let h = ics.histogram();
            copy += h.get(&IcCategory::MoveCopy).copied().unwrap_or(0);
            print += h.get(&IcCategory::Print).copied().unwrap_or(0);
        }
        assert!(total > 200, "need a meaningful IC population, got {total}");
        let copy_frac = copy as f64 / total as f64;
        let print_frac = print as f64 / total as f64;
        assert!(copy_frac > 0.5, "move/copy fraction {copy_frac}");
        assert!(
            print_frac > 0.15 && print_frac < 0.45,
            "print fraction {print_frac}"
        );
    }

    #[test]
    fn scaled_generation_shrinks_only_the_driver_loop() {
        let p = profile_by_name("mcf").unwrap();
        let full = generate(p);
        let quick = generate_scaled(p, 0.25);
        assert_eq!(quick.name, full.name);
        // Static shape identical; only main's loop bound changes.
        assert_eq!(quick.num_insts(), full.num_insts());
        let mut vm_full = Vm::new(&full, VmConfig::default(), InputPlan::benign(1));
        let mut vm_quick = Vm::new(&quick, VmConfig::default(), InputPlan::benign(1));
        let rf = vm_full.run("main", &[]).unwrap();
        let rq = vm_quick.run("main", &[]).unwrap();
        assert!(rq.metrics.insts * 2 < rf.metrics.insts);
    }

    #[test]
    fn ref_tier_scales_the_module_and_still_runs() {
        use crate::profiles::SizeTier;
        let p = profile_by_name("lbm").unwrap();
        // Standard tier is the identity: the tier system must not perturb
        // the historical modules byte-for-byte.
        assert_eq!(generate(p), generate(&p.at_tier(SizeTier::Standard)));
        let r = p.at_tier(SizeTier::Ref);
        let m = generate(&r);
        if let Err(errs) = verify::verify_module(&m) {
            panic!("ref-tier lbm: invalid IR: {:?}", &errs[..errs.len().min(5)]);
        }
        let std_m = generate(p);
        assert!(m.num_insts() > std_m.num_insts() * 2, "static scale-up");
        let mut vm = Vm::new(&m, VmConfig::default(), InputPlan::benign(1));
        let res = vm.run("main", &[]).unwrap();
        assert!(
            matches!(res.exit, ExitReason::Returned(_)),
            "{:?}",
            res.exit
        );
        let mut vm_std = Vm::new(&std_m, VmConfig::default(), InputPlan::benign(1));
        let res_std = vm_std.run("main", &[]).unwrap();
        assert!(
            res.metrics.insts > res_std.metrics.insts * 10,
            "dynamic scale-up: ref {} vs standard {}",
            res.metrics.insts,
            res_std.metrics.insts
        );
    }

    #[test]
    fn ref_tier_walks_produce_interval_proofs() {
        use crate::profiles::SizeTier;
        use pythia_analysis::{OverflowReach, SliceContext};
        // The walk style's guarded, channel-tainted gep store is the one
        // shape the interval analysis can prove in-bounds; at the standard
        // tier the count is zero suite-wide, at the ref tier every worker
        // carries at least one provable walk.
        let p = profile_by_name("lbm").unwrap();
        let std_m = generate(p);
        let std_ctx = SliceContext::new(&std_m);
        assert_eq!(OverflowReach::compute(&std_ctx).proven_gep_stores, 0);
        let m = generate(&p.at_tier(SizeTier::Ref));
        let ctx = SliceContext::new(&m);
        let reach = OverflowReach::compute(&ctx);
        assert!(
            reach.proven_gep_stores >= 1,
            "ref-tier walks must yield interval proofs, got {}",
            reach.proven_gep_stores
        );
    }

    #[test]
    fn lbm_has_branches_but_few_channels() {
        use pythia_analysis::InputChannels;
        let m = generate(profile_by_name("lbm").unwrap());
        let ics = InputChannels::find(&m);
        let gcc = generate(profile_by_name("gcc").unwrap());
        let gcc_ics = InputChannels::find(&gcc);
        assert!(ics.total() * 5 < gcc_ics.total());
    }
}
