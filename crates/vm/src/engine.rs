//! The execute tier of the block-cached engine: a tight dispatch loop
//! over [`DecodedBlock`](crate::decode::DecodedBlock) op buffers.
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

use crate::decode::{
    wrap_val, DecodedCallee, DecodedModule, OpKind, PhiPrologue, MN_PHI, NO_PROLOGUE,
};
use crate::vm::{eval_bin, Halt, Trap, Vm};
use pythia_ir::{BlockId, FuncId, PythiaError};

/// Read one pre-resolved operand: an unconditional indexed load
/// (constants are pre-stored into their slots at frame setup).
#[inline(always)]
fn read(values: &[i64], o: u32) -> i64 {
    values[o as usize]
}

impl<'m> Vm<'m> {
    /// Block-engine function execution: frame setup from the dense
    /// [`FrameLayout`](crate::decode::FrameLayout), then the decoded block
    /// loop. Mirrors `exec_function` side effect by side effect.
    pub(crate) fn exec_function_block(
        &mut self,
        fid: FuncId,
        args: &[i64],
        depth: usize,
    ) -> Result<i64, Halt> {
        // One Arc clone per entry; the recursion below borrows it, so a
        // call-heavy run does not pay two atomic RMWs per frame.
        let dm = self.decoded.clone();
        self.exec_function_decoded(&dm, fid, args, depth)
    }

    fn exec_function_decoded(
        &mut self,
        dm: &DecodedModule,
        fid: FuncId,
        args: &[i64],
        depth: usize,
    ) -> Result<i64, Halt> {
        if depth >= self.cfg.max_call_depth {
            return Err(Trap::CallDepthExceeded.into());
        }
        let df = &dm.funcs[fid.0 as usize];
        let size = df.layout.frame_size;
        let base = self.push_frame(fid, size)?;
        let mut values = self.frame_pool.pop().unwrap_or_default();
        values.clear();
        values.resize(df.num_values, 0);
        for (i, &a) in args.iter().enumerate().take(df.num_params) {
            values[i] = a;
        }
        for &(slot, c) in df.consts.iter() {
            values[slot as usize] = c;
        }

        let result = self.exec_blocks_decoded(fid, dm, &mut values, base, depth);

        self.pop_frame(base, size);
        self.frame_pool.push(values);
        result
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
                    big = std::mem::take(&mut self.phi_scratch);
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
                    self.phi_scratch = big;
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

    #[allow(clippy::too_many_lines)]
    fn exec_blocks_decoded(
        &mut self,
        fid: FuncId,
        dm: &DecodedModule,
        values: &mut [i64],
        fbase: u64,
        depth: usize,
    ) -> Result<i64, Halt> {
        let m = self.module;
        let df = &dm.funcs[fid.0 as usize];
        let site_base = df.site_base;
        let mut block = BlockId(0);
        let mut prev: Option<BlockId> = None;
        // The prologue to run on entering `block`: the index its
        // terminator pre-resolved, or none. The function entry runs the
        // entry prologue instead, before the loop.
        let mut pl = NO_PROLOGUE;
        self.run_prologue(&dm.block(m, fid, block).entry, values, &df.name)?;

        let mut trace_on = self.trace_on;
        'blocks: loop {
            let db = dm.block(m, fid, block);
            if pl != NO_PROLOGUE {
                self.run_prologue(&db.prologues[pl as usize], values, &df.name)?;
            }

            let mut cur = block;
            // Instruction count and base-cost charge are accumulated in
            // registers (`k`, `cyc`) and flushed to `self.metrics` at
            // every point something else could observe or extend them:
            // phi prologues and calls (which add instructions of their
            // own — callee budget checks must see an exact count), and
            // every exit from the op loop. Both counters are pure sums
            // that nothing reads in between, so deferring the adds is
            // observation-preserving; `remaining` carries the budget
            // check as a register compare (`k >= remaining` fires at
            // exactly the instruction the legacy per-op check traps on,
            // including budgets already overrun by unchecked phi
            // metering, where `remaining` is 0).
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
            // instruction count → trace event → base charge → op-class
            // count), expanded at the top of every instruction arm so the
            // loop dispatches each op exactly once. `Enter` (a superblock
            // boundary, not an instruction) is the only unmetered arm.
            macro_rules! meter {
                ($op:expr) => {
                    if k >= remaining {
                        flush!();
                        return Err(Trap::InstBudgetExhausted.into());
                    }
                    k += 1;
                    if trace_on {
                        self.push_trace(fid, $op.iv, crate::decode::MNEMONICS[$op.mn as usize]);
                        #[allow(unused_assignments)]
                        {
                            trace_on = self.trace_on;
                        }
                    }
                    cyc += self.cost_tbl[$op.mn as usize];
                    self.op_counts[$op.mn as usize] += 1;
                };
            }
            for op in db.ops.iter() {
                match &op.kind {
                    OpKind::Enter {
                        pred,
                        block: b,
                        prologue,
                    } => {
                        prev = Some(*pred);
                        cur = *b;
                        // A phi-less boundary does nothing at all — no
                        // metering, no flush, the accumulators keep
                        // rolling through the chained block.
                        if let PhiPrologue::Copies(c) = &**prologue {
                            if c.is_empty() {
                                continue;
                            }
                        }
                        flush!();
                        self.run_prologue(prologue, values, &df.name)?;
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
                        return Err(PythiaError::internal("block member is not an instruction")
                            .with_function(df.name.clone())
                            .with_instruction(op.iv.0)
                            .into());
                    }
                    OpKind::Alloca { off } => {
                        meter!(op);
                        values[op.iv.0 as usize] = fbase.saturating_add(*off) as i64;
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
                        let addr = read(values, *ptr) as u64;
                        values[op.iv.0 as usize] = try_f!(self.mem_read(addr, u64::from(*size)));
                    }
                    OpKind::Store { ptr, value, size } => {
                        meter!(op);
                        let addr = read(values, *ptr) as u64;
                        let v = read(values, *value);
                        try_f!(self.mem_write(addr, u64::from(*size), v));
                    }
                    OpKind::Gep { base, index, scale } => {
                        meter!(op);
                        let b = read(values, *base);
                        let i = read(values, *index);
                        values[op.iv.0 as usize] = b.wrapping_add(i.wrapping_mul(*scale));
                    }
                    OpKind::FieldAddr { base, off } => {
                        meter!(op);
                        let b = read(values, *base) as u64;
                        values[op.iv.0 as usize] = b.wrapping_add(*off) as i64;
                    }
                    OpKind::Bin {
                        op: bop,
                        wrap,
                        lhs,
                        rhs,
                    } => {
                        meter!(op);
                        let a = read(values, *lhs);
                        let b = read(values, *rhs);
                        let raw = try_f!(eval_bin(*bop, a, b).ok_or(Trap::DivByZero));
                        values[op.iv.0 as usize] = wrap_val(*wrap, raw);
                    }
                    OpKind::Icmp { pred, lhs, rhs } => {
                        meter!(op);
                        let a = read(values, *lhs);
                        let b = read(values, *rhs);
                        values[op.iv.0 as usize] = i64::from(pred.eval(a, b));
                    }
                    OpKind::Cast { value, wrap } => {
                        meter!(op);
                        let v = read(values, *value);
                        values[op.iv.0 as usize] = wrap_val(*wrap, v);
                    }
                    OpKind::Select {
                        cond,
                        on_true,
                        on_false,
                    } => {
                        meter!(op);
                        let c = read(values, *cond);
                        values[op.iv.0 as usize] = if c != 0 {
                            read(values, *on_true)
                        } else {
                            read(values, *on_false)
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
                            values[op.iv.0 as usize] = read(values, *src);
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
                        let v = read(values, *value) as u64;
                        let md = read(values, *modifier) as u64;
                        let signed = self.pa.sign(*key, v, md);
                        self.witness_ga_sign(*key, md, signed);
                        values[op.iv.0 as usize] = signed as i64;
                    }
                    OpKind::PacAuth {
                        value,
                        key,
                        modifier,
                    } => {
                        meter!(op);
                        self.mark_pa_site(site_base + op.iv.0 as usize);
                        self.pa_key_counts[*key as usize] += 1;
                        let v = read(values, *value) as u64;
                        let md = read(values, *modifier) as u64;
                        match self.pa.auth(*key, v, md) {
                            Ok(raw) => values[op.iv.0 as usize] = raw as i64,
                            Err(_) => {
                                flush!();
                                return Err(Trap::PacAuthFailure { key: *key }.into());
                            }
                        }
                    }
                    OpKind::PacStrip { value } => {
                        meter!(op);
                        self.mark_pa_site(site_base + op.iv.0 as usize);
                        let v = read(values, *value) as u64;
                        values[op.iv.0 as usize] = self.pa.strip(v) as i64;
                    }
                    OpKind::SetDef { ptr, def_id } => {
                        meter!(op);
                        let addr = read(values, *ptr) as u64;
                        self.shadow.insert(addr >> 3, *def_id);
                    }
                    OpKind::ChkDef { ptr, allowed } => {
                        meter!(op);
                        let addr = read(values, *ptr) as u64;
                        if let Some(&found) = self.shadow.get(&(addr >> 3)) {
                            if !allowed.contains(&found) {
                                flush!();
                                return Err(Trap::DfiViolation { found }.into());
                            }
                        }
                    }
                    OpKind::Call(call) => {
                        meter!(op);
                        let mut argv = self.argv_pool.pop().unwrap_or_default();
                        argv.clear();
                        argv.extend(call.args.iter().map(|&a| read(values, a)));
                        // Callees check the budget and meter instructions
                        // themselves: hand them an exact count.
                        flush!();
                        let ret = match &call.callee {
                            DecodedCallee::Func(target) => {
                                self.exec_function_decoded(dm, *target, &argv, depth + 1)?
                            }
                            DecodedCallee::Intrinsic(i) => {
                                self.exec_intrinsic(fid, op.iv, *i, &argv)?
                            }
                            DecodedCallee::Indirect(v) => {
                                let addr = read(values, *v) as u64;
                                if addr < 0x4000 || !(addr - 0x4000).is_multiple_of(16) {
                                    return Err(Trap::BadIndirectCall.into());
                                }
                                let target = FuncId(((addr - 0x4000) / 16) as u32);
                                if target.0 as usize >= m.functions().len() {
                                    return Err(Trap::BadIndirectCall.into());
                                }
                                self.exec_function_decoded(dm, target, &argv, depth + 1)?
                            }
                        };
                        self.argv_pool.push(argv);
                        values[op.iv.0 as usize] = ret;
                        remaining = self.cfg.max_insts.saturating_sub(self.metrics.insts);
                        if self.halted.is_some() {
                            return Ok(0);
                        }
                    }
                    OpKind::Br {
                        cond,
                        then_bb,
                        else_bb,
                        then_pl,
                        else_pl,
                    } => {
                        meter!(op);
                        let c = read(values, *cond);
                        prev = Some(cur);
                        (block, pl) = if c != 0 {
                            (*then_bb, *then_pl)
                        } else {
                            (*else_bb, *else_pl)
                        };
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
                        flush!();
                        continue 'blocks;
                    }
                    OpKind::Ret { value } => {
                        meter!(op);
                        flush!();
                        return Ok(read(values, *value));
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
