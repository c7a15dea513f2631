//! The execute tier of the block-cached engine: one dispatch loop over
//! [`DecodedBlock`](crate::decode::DecodedBlock) op buffers, with the
//! guest's call frames on an explicit stack inside the [`Vm`].
//!
//! Observation preservation relative to `Vm::exec_blocks` (the legacy
//! per-instruction interpreter) is the contract here: identical metering
//! order (budget check → instruction count → trace event → base charge →
//! op-class count), identical trap points and error payloads, identical
//! memory / cache / shadow / PA side-effect order. Anything the legacy
//! interpreter can observe, this tier reproduces bit for bit; the
//! differential tests (`tests/determinism.rs`,
//! `core/tests/profile_invariants.rs`) and the `scripts/check.sh` engine
//! gate hold it to that.
//!
//! A guest call suspends the caller as a [`BlockFrame`] on `Vm::stack`
//! and continues the same loop in the callee; a return pops it. No host
//! frame is spent per guest frame, so the loop runs on the caller's
//! thread whatever `max_call_depth` is, and it can stop between any two
//! ops: before metering an intrinsic call once `Vm::ic_write_counter`
//! has reached `Vm::pause_at`, it suspends the current frame as well and
//! returns. The paused [`Vm`] is plain data; a clone resumes exactly
//! where the original would (DESIGN.md §5f).

use crate::decode::{
    wrap_val, DecodedCallee, DecodedModule, OpKind, PhiPrologue, MN_PACAUTH, MN_PHI, NO_PROLOGUE,
};
use crate::vm::{eval_bin, Halt, Trap, Vm};
use pythia_ir::{BlockId, FuncId, PythiaError};

/// Read one pre-resolved operand: an unconditional indexed load
/// (constants are pre-stored into their slots at frame setup).
#[inline(always)]
fn read(values: &[i64], o: u32) -> i64 {
    values[o as usize]
}

/// One guest frame of the block engine: where it resumes and its values.
#[derive(Debug, Clone)]
pub(crate) struct BlockFrame {
    fid: FuncId,
    values: Vec<i64>,
    /// Stack address of the frame's objects.
    base: u64,
    /// Head of the superblock being executed, and the op of it that runs
    /// next: the one after the pending call for a caller, the paused
    /// intrinsic call for the frame a pause stopped in.
    block: BlockId,
    pc: usize,
    /// The IR block the op at `pc` belongs to, and the one control came
    /// from into it (for late phis and the next branch).
    cur: BlockId,
    prev: Option<BlockId>,
    /// The value slot of a caller's pending call.
    ret: u32,
}

/// How [`Vm::exec_block_engine`] stopped without a halt.
pub(crate) enum Stop {
    /// The entry function returned (or `exit` ran) with this value.
    Returned(i64),
    /// The run paused before an intrinsic call; see [`Vm::pause_at`].
    Paused,
}

impl<'m> Vm<'m> {
    /// Open a frame for `fid` at call depth `depth`: the depth check, the
    /// stack frame, parameters and constants, then the entry block's phi
    /// prologue. Mirrors the legacy `exec_function` entry side effect by
    /// side effect.
    fn open_frame(
        &mut self,
        dm: &DecodedModule,
        fid: FuncId,
        args: impl Iterator<Item = i64>,
        depth: usize,
    ) -> Result<BlockFrame, Halt> {
        if depth >= self.cfg.max_call_depth {
            return Err(Trap::CallDepthExceeded.into());
        }
        let df = &dm.funcs[fid.0 as usize];
        let base = self.push_frame(fid, df.layout.frame_size)?;
        let mut values = self.scratch.frames.pop().unwrap_or_default();
        values.clear();
        values.resize(df.num_values, 0);
        for (slot, a) in values.iter_mut().zip(args).take(df.num_params) {
            *slot = a;
        }
        for &(slot, c) in df.consts.iter() {
            values[slot as usize] = c;
        }
        let entry = BlockId(0);
        self.run_prologue(
            &dm.block(self.module, fid, entry).entry,
            &mut values,
            &df.name,
        )?;
        Ok(BlockFrame {
            fid,
            values,
            base,
            block: entry,
            pc: 0,
            cur: entry,
            prev: None,
            ret: 0,
        })
    }

    /// Run the block engine from where the VM stands: the pending entry
    /// of [`Vm::start`], or the frame a pause suspended. Returns when the
    /// entry function returns, `exit` runs, a halt unwinds, or the next
    /// intrinsic call would be metered with `ic_write_counter >=
    /// pause_at`. A run that ends leaves its frames where they stood:
    /// nothing reads them afterwards.
    #[allow(clippy::too_many_lines)]
    pub(crate) fn exec_block_engine(&mut self) -> Result<Stop, Halt> {
        // One Arc clone per resume; the loop borrows it, so a call-heavy
        // run does not pay two atomic RMWs per frame.
        let dm = self.decoded.clone();
        let m = self.module;
        let mut f = match self.entry.take() {
            Some((fid, args)) => self.open_frame(&dm, fid, args.into_iter(), 0)?,
            None => self
                .stack
                .pop()
                .ok_or_else(|| PythiaError::internal("block engine resumed with no frame"))?,
        };

        'frames: loop {
            // The running frame lives in locals; it is packed back into a
            // `BlockFrame` only when a call or a pause suspends it.
            let BlockFrame {
                fid,
                mut values,
                base,
                mut block,
                pc: mut start,
                mut cur,
                mut prev,
                ret: _,
            } = f;
            let df = &dm.funcs[fid.0 as usize];
            let site_base = df.site_base;
            // The prologue to run on entering `block`: the index its
            // terminator pre-resolved, or none. A frame is (re)entered
            // past its entry prologue, which `open_frame` ran.
            let mut pl = NO_PROLOGUE;
            // Re-read on every (re)entry: a callee may have filled the
            // trace.
            let mut trace_on = self.trace_on;
            'blocks: loop {
                let db = dm.block(m, fid, block);
                if pl != NO_PROLOGUE {
                    self.run_prologue(&db.prologues[pl as usize], &mut values, &df.name)?;
                }

                // Instruction count and base-cost charge are accumulated
                // in registers (`k`, `cyc`) and flushed to `self.metrics`
                // at every point something else could observe or extend
                // them: phi prologues and calls (which add instructions
                // of their own — callee budget checks must see an exact
                // count), pauses, and every exit from the op loop. Both
                // counters are pure sums that nothing reads in between,
                // so deferring the adds is observation-preserving;
                // `remaining` carries the budget check as a register
                // compare (`k >= remaining` fires at exactly the
                // instruction the legacy per-op check traps on, including
                // budgets already overrun by unchecked phi metering,
                // where `remaining` is 0).
                let mut k: u64 = 0;
                let mut cyc: u64 = 0;
                let mut remaining = self.cfg.max_insts.saturating_sub(self.metrics.insts);
                macro_rules! flush {
                    () => {
                        self.metrics.insts += k;
                        self.metrics.cycles_mc += cyc;
                        #[allow(unused_assignments)]
                        {
                            k = 0;
                            cyc = 0;
                        }
                    };
                }
                // `?` with the pending counters flushed first.
                macro_rules! try_f {
                    ($e:expr) => {
                        match $e {
                            Ok(v) => v,
                            Err(e) => {
                                flush!();
                                return Err(e.into());
                            }
                        }
                    };
                }
                // Standard metering in legacy order (budget check →
                // instruction count → trace event → base charge →
                // op-class count), expanded at the top of every
                // instruction arm so the loop dispatches each op exactly
                // once. `Enter` (a superblock boundary, not an
                // instruction) is the only unmetered arm; a fused op
                // meters each instruction it stands for (`meter_at`).
                macro_rules! meter_at {
                    ($iv:expr, $mn:expr) => {
                        if k >= remaining {
                            flush!();
                            return Err(Trap::InstBudgetExhausted.into());
                        }
                        k += 1;
                        if trace_on {
                            self.push_trace(fid, $iv, crate::decode::MNEMONICS[$mn as usize]);
                            #[allow(unused_assignments)]
                            {
                                trace_on = self.trace_on;
                            }
                        }
                        cyc += self.cost_tbl[$mn as usize];
                        self.op_counts[$mn as usize] += 1;
                    };
                }
                macro_rules! meter {
                    ($op:expr) => {
                        meter_at!($op.iv, $op.mn)
                    };
                }
                let vals = &mut values[..];
                for (i, op) in db.ops[start..].iter().enumerate() {
                    match &op.kind {
                        OpKind::Enter {
                            pred,
                            block: b,
                            prologue,
                        } => {
                            prev = Some(*pred);
                            cur = *b;
                            // A phi-less boundary does nothing at all —
                            // no metering, no flush, the accumulators
                            // keep rolling through the chained block.
                            if let PhiPrologue::Copies(c) = &**prologue {
                                if c.is_empty() {
                                    continue;
                                }
                            }
                            flush!();
                            self.run_prologue(prologue, vals, &df.name)?;
                            remaining = self.cfg.max_insts.saturating_sub(self.metrics.insts);
                            continue;
                        }
                        OpKind::NotInst => {
                            if k >= remaining {
                                flush!();
                                return Err(Trap::InstBudgetExhausted.into());
                            }
                            k += 1;
                            flush!();
                            return Err(PythiaError::internal(
                                "block member is not an instruction",
                            )
                            .with_function(df.name.clone())
                            .with_instruction(op.iv.0)
                            .into());
                        }
                        OpKind::Alloca { off } => {
                            meter!(op);
                            vals[op.iv.0 as usize] = base.saturating_add(*off) as i64;
                        }
                        OpKind::AllocaMissing => {
                            meter!(op);
                            flush!();
                            return Err(PythiaError::internal("alloca missing from frame layout")
                                .with_function(df.name.clone())
                                .with_instruction(op.iv.0)
                                .into());
                        }
                        OpKind::Load { ptr, size } => {
                            meter!(op);
                            let addr = read(vals, *ptr) as u64;
                            vals[op.iv.0 as usize] = try_f!(self.mem_read(addr, u64::from(*size)));
                        }
                        OpKind::Store { ptr, value, size } => {
                            meter!(op);
                            let addr = read(vals, *ptr) as u64;
                            let v = read(vals, *value);
                            try_f!(self.mem_write(addr, u64::from(*size), v));
                        }
                        OpKind::Gep { base, index, scale } => {
                            meter!(op);
                            let b = read(vals, *base);
                            let i = read(vals, *index);
                            vals[op.iv.0 as usize] = b.wrapping_add(i.wrapping_mul(*scale));
                        }
                        OpKind::FieldAddr { base, off } => {
                            meter!(op);
                            let b = read(vals, *base) as u64;
                            vals[op.iv.0 as usize] = b.wrapping_add(*off) as i64;
                        }
                        OpKind::Bin {
                            op: bop,
                            wrap,
                            lhs,
                            rhs,
                        } => {
                            meter!(op);
                            let a = read(vals, *lhs);
                            let b = read(vals, *rhs);
                            let raw = try_f!(eval_bin(*bop, a, b).ok_or(Trap::DivByZero));
                            vals[op.iv.0 as usize] = wrap_val(*wrap, raw);
                        }
                        OpKind::Icmp { pred, lhs, rhs } => {
                            meter!(op);
                            let a = read(vals, *lhs);
                            let b = read(vals, *rhs);
                            vals[op.iv.0 as usize] = i64::from(pred.eval(a, b));
                        }
                        OpKind::Cast { value, wrap } => {
                            meter!(op);
                            let v = read(vals, *value);
                            vals[op.iv.0 as usize] = wrap_val(*wrap, v);
                        }
                        OpKind::Select {
                            cond,
                            on_true,
                            on_false,
                        } => {
                            meter!(op);
                            let c = read(vals, *cond);
                            vals[op.iv.0 as usize] = if c != 0 {
                                read(vals, *on_true)
                            } else {
                                read(vals, *on_false)
                            };
                        }
                        OpKind::LatePhi { incomings } => {
                            meter!(op);
                            let pred = try_f!(prev.ok_or_else(|| {
                                PythiaError::setup("phi in entry block (module not verified?)")
                                    .with_function(df.name.clone())
                                    .with_instruction(op.iv.0)
                            }));
                            if let Some((_, src)) = incomings.iter().find(|(b, _)| *b == pred) {
                                vals[op.iv.0 as usize] = read(vals, *src);
                            }
                        }
                        OpKind::PacSign {
                            value,
                            key,
                            modifier,
                        } => {
                            meter!(op);
                            self.mark_pa_site(site_base + op.iv.0 as usize);
                            self.pa_key_counts[*key as usize] += 1;
                            let v = read(vals, *value) as u64;
                            let md = read(vals, *modifier) as u64;
                            let signed = self.pa.sign(*key, v, md);
                            self.witness_ga_sign(*key, md, signed);
                            vals[op.iv.0 as usize] = signed as i64;
                        }
                        OpKind::PacAuth {
                            value,
                            key,
                            modifier,
                        } => {
                            meter!(op);
                            self.mark_pa_site(site_base + op.iv.0 as usize);
                            self.pa_key_counts[*key as usize] += 1;
                            let v = read(vals, *value) as u64;
                            let md = read(vals, *modifier) as u64;
                            match self.pa.auth(*key, v, md) {
                                Ok(raw) => vals[op.iv.0 as usize] = raw as i64,
                                Err(_) => {
                                    flush!();
                                    return Err(Trap::PacAuthFailure { key: *key }.into());
                                }
                            }
                        }
                        OpKind::PacSignAuth {
                            value,
                            key,
                            modifier,
                            auth,
                        } => {
                            // The sign, as `PacSign` runs it (never `Ga`:
                            // no witness)...
                            meter!(op);
                            self.mark_pa_site(site_base + op.iv.0 as usize);
                            self.pa_key_counts[*key as usize] += 1;
                            let v = read(vals, *value) as u64;
                            let md = read(vals, *modifier) as u64;
                            let signed = self.pa.sign(*key, v, md);
                            vals[op.iv.0 as usize] = signed as i64;
                            // ...then the auth of its result, which
                            // succeeds with the PAC the sign computed.
                            meter_at!(*auth, MN_PACAUTH);
                            self.mark_pa_site(site_base + auth.0 as usize);
                            self.pa_key_counts[*key as usize] += 1;
                            vals[auth.0 as usize] = self.pa.strip(signed) as i64;
                        }
                        OpKind::PacStrip { value } => {
                            meter!(op);
                            self.mark_pa_site(site_base + op.iv.0 as usize);
                            let v = read(vals, *value) as u64;
                            vals[op.iv.0 as usize] = self.pa.strip(v) as i64;
                        }
                        OpKind::SetDef { ptr, def_id } => {
                            meter!(op);
                            let addr = read(vals, *ptr) as u64;
                            self.shadow_set(addr >> 3, *def_id);
                        }
                        OpKind::ChkDef { ptr, allowed } => {
                            meter!(op);
                            let addr = read(vals, *ptr) as u64;
                            if let Some(&found) = self.shadow.get(&(addr >> 3)) {
                                if !allowed.contains(&found) {
                                    flush!();
                                    return Err(Trap::DfiViolation { found }.into());
                                }
                            }
                        }
                        OpKind::Call(call) => {
                            let target = match &call.callee {
                                DecodedCallee::Intrinsic(intr) => {
                                    // The pause point: nothing of this
                                    // call has happened yet.
                                    if self.ic_write_counter >= self.pause_at {
                                        flush!();
                                        self.stack.push(BlockFrame {
                                            fid,
                                            values,
                                            base,
                                            block,
                                            pc: start + i,
                                            cur,
                                            prev,
                                            ret: 0,
                                        });
                                        return Ok(Stop::Paused);
                                    }
                                    meter!(op);
                                    flush!();
                                    let mut argv = std::mem::take(&mut self.scratch.argv);
                                    argv.clear();
                                    argv.extend(call.args.iter().map(|&a| read(vals, a)));
                                    let ret = self.exec_intrinsic(fid, op.iv, *intr, &argv);
                                    self.scratch.argv = argv;
                                    vals[op.iv.0 as usize] = ret?;
                                    if self.halted.is_some() {
                                        return Ok(Stop::Returned(0));
                                    }
                                    remaining =
                                        self.cfg.max_insts.saturating_sub(self.metrics.insts);
                                    continue;
                                }
                                DecodedCallee::Func(target) => {
                                    meter!(op);
                                    flush!();
                                    *target
                                }
                                DecodedCallee::Indirect(v) => {
                                    meter!(op);
                                    flush!();
                                    let addr = read(vals, *v) as u64;
                                    if addr < 0x4000 || !(addr - 0x4000).is_multiple_of(16) {
                                        return Err(Trap::BadIndirectCall.into());
                                    }
                                    let target = FuncId(((addr - 0x4000) / 16) as u32);
                                    if target.0 as usize >= m.functions().len() {
                                        return Err(Trap::BadIndirectCall.into());
                                    }
                                    target
                                }
                            };
                            // Suspend this frame past the call and run
                            // the callee one level deeper.
                            let args = call.args.iter().map(|&a| read(vals, a));
                            f = self.open_frame(&dm, target, args, self.stack.len() + 1)?;
                            self.stack.push(BlockFrame {
                                fid,
                                values,
                                base,
                                block,
                                pc: start + i + 1,
                                cur,
                                prev,
                                ret: op.iv.0,
                            });
                            continue 'frames;
                        }
                        OpKind::Br {
                            cond,
                            then_bb,
                            else_bb,
                            then_pl,
                            else_pl,
                        } => {
                            meter!(op);
                            let c = read(vals, *cond);
                            prev = Some(cur);
                            (block, pl) = if c != 0 {
                                (*then_bb, *then_pl)
                            } else {
                                (*else_bb, *else_pl)
                            };
                            (cur, start) = (block, 0);
                            flush!();
                            continue 'blocks;
                        }
                        OpKind::Jmp {
                            target,
                            chained,
                            pl: target_pl,
                        } => {
                            meter!(op);
                            if *chained {
                                // The next op is the target's Enter marker.
                                continue;
                            }
                            prev = Some(cur);
                            (block, pl) = (*target, *target_pl);
                            (cur, start) = (block, 0);
                            flush!();
                            continue 'blocks;
                        }
                        OpKind::Ret { value } => {
                            meter!(op);
                            flush!();
                            let ret = read(vals, *value);
                            self.pop_frame(base, df.layout.frame_size);
                            self.scratch.frames.push(values);
                            let Some(caller) = self.stack.pop() else {
                                return Ok(Stop::Returned(ret));
                            };
                            f = caller;
                            f.values[f.ret as usize] = ret;
                            continue 'frames;
                        }
                        OpKind::Unreachable => {
                            meter!(op);
                            flush!();
                            return Err(Trap::Abort.into());
                        }
                    }
                }
                // Falling off a block without a terminator is a verifier
                // error; treat as abort to stay safe (legacy behaviour).
                flush!();
                return Err(Trap::Abort.into());
            }
        }
    }

    /// Run one phi prologue. Metering per phi matches the legacy phase-1
    /// loop: instruction count + copy charge + op-class count, no budget
    /// check, no trace event; sources all read before any destination is
    /// written.
    fn run_prologue(
        &mut self,
        p: &PhiPrologue,
        values: &mut [i64],
        fname: &str,
    ) -> Result<(), Halt> {
        match p {
            PhiPrologue::Copies(copies) => {
                if copies.is_empty() {
                    return Ok(());
                }
                // Up to four sources are read into a stack array; longer
                // prologues borrow the VM's scratch vector.
                let mut small = [0i64; 4];
                let mut big = Vec::new();
                let buf = if copies.len() <= small.len() {
                    &mut small[..copies.len()]
                } else {
                    big = std::mem::take(&mut self.scratch.phi);
                    big.clear();
                    big.resize(copies.len(), 0);
                    &mut big[..]
                };
                for (b, (_, src)) in buf.iter_mut().zip(copies.iter()) {
                    *b = read(values, *src);
                }
                let n = copies.len() as u64;
                self.metrics.insts += n;
                self.charge(self.cost.copy * n);
                self.op_counts[MN_PHI] += n;
                for ((dst, _), v) in copies.iter().zip(buf.iter()) {
                    values[*dst as usize] = *v;
                }
                if copies.len() > small.len() {
                    self.scratch.phi = big;
                }
                Ok(())
            }
            PhiPrologue::Error {
                prior,
                iv,
                in_entry,
            } => {
                // The legacy loop meters each phi before examining the
                // next, so `prior` phis are fully metered (and no frame
                // slot is written) before the setup error surfaces.
                let n = u64::from(*prior);
                self.metrics.insts += n;
                self.charge(self.cost.copy * n);
                self.op_counts[MN_PHI] += n;
                let msg = if *in_entry {
                    "phi in entry block (module not verified?)"
                } else {
                    "phi does not cover predecessor (module not verified?)"
                };
                Err(PythiaError::setup(msg)
                    .with_function(fname)
                    .with_instruction(iv.0)
                    .into())
            }
        }
    }
}
