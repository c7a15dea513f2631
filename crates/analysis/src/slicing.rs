//! Program slicing: backward slices of branch predicates (*branch
//! decomposition*, paper Alg. 1) and forward slices of input-channel
//! destinations (*input channel construction*).
//!
//! Two modes exist (paper §6.2/§7):
//!
//! - [`SliceMode::Pythia`] traverses pointer arithmetic (`gep`), field
//!   accesses and memory (through the points-to relation), producing long
//!   slices;
//! - [`SliceMode::Dfi`] models DFI's documented limitation: its data-flow
//!   reasoning **terminates** at pointer arithmetic with a non-constant
//!   index and at field-sensitive accesses, leaving the rest of the slice —
//!   and hence the branch — unprotected.

use crate::alias::{ObjId, PointsTo, Precision};
use crate::channels::{IcSite, InputChannels};
use crate::reach::ProofMemo;
use crate::summary::{CtxPolicy, CtxSolve};
use pythia_ir::{Callee, FuncId, Inst, Intrinsic, Module, Placement, ValueId, ValueKind};
use std::cell::{Cell, OnceCell};
use std::collections::{BTreeSet, HashMap, HashSet, VecDeque};

/// Which technique's slicing rules to apply.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SliceMode {
    /// Full traversal (Pythia).
    Pythia,
    /// Terminate at pointer arithmetic / field accesses (DFI).
    Dfi,
}

/// A backward slice rooted at one conditional branch.
#[derive(Debug, Clone)]
pub struct BackwardSlice {
    /// The branch instruction (a `br`).
    pub branch: ValueId,
    /// Function containing the branch.
    pub func: FuncId,
    /// SSA values in the slice, per function.
    pub values: BTreeSet<(FuncId, ValueId)>,
    /// Memory objects whose contents feed the branch.
    pub objects: BTreeSet<ObjId>,
    /// Whether traversal completed without hitting a termination condition
    /// the mode cannot reason past.
    pub complete: bool,
    /// Input channels that can taint the slice (write channels whose
    /// destination may overlap a slice object).
    pub tainting_ics: Vec<IcSite>,
    /// ICs whose destination directly overlaps the branch's own predicate
    /// load (paper's "directly affected" branches).
    pub direct_ics: Vec<IcSite>,
}

impl BackwardSlice {
    /// Number of slice values that are pointer-typed (Fig. 7a).
    pub fn pointer_value_count(&self, m: &Module) -> usize {
        self.values
            .iter()
            .filter(|(fid, v)| m.func(*fid).value(*v).ty.is_ptr())
            .count()
    }

    /// Whether any input channel can taint this branch.
    pub fn ic_affected(&self) -> bool {
        !self.tainting_ics.is_empty()
    }
}

/// A forward slice rooted at one input channel's destination.
#[derive(Debug, Clone)]
pub struct ForwardSlice {
    /// The channel this slice grows from.
    pub site: IcSite,
    /// Values that carry channel-derived (attacker-influenced) data.
    pub values: BTreeSet<(FuncId, ValueId)>,
    /// Objects that may hold channel-derived data.
    pub objects: BTreeSet<ObjId>,
}

/// Per-relation object indexes (which stores/loads/channels may touch
/// each abstract object). Built once per points-to relation; the
/// field-sensitive instance is *overlap-closed*: an access whose pointer
/// resolves to object `o` is registered under every object overlapping
/// `o` (its root and intersecting fields), so a store through a base
/// pointer is found when slicing a load through a field pointer.
struct ObjectMaps {
    /// For each object: store instructions that may write it.
    stores_by_object: HashMap<ObjId, Vec<(FuncId, ValueId)>>,
    /// For each object: memory-writing IC sites that may write it.
    ics_by_object: HashMap<ObjId, Vec<IcSite>>,
    /// For each object: loads that may read it.
    loads_by_object: HashMap<ObjId, Vec<(FuncId, ValueId)>>,
}

impl ObjectMaps {
    fn build(module: &Module, points_to: &PointsTo, channels: &InputChannels) -> Self {
        let mut stores_by_object: HashMap<ObjId, Vec<(FuncId, ValueId)>> = HashMap::new();
        let mut loads_by_object: HashMap<ObjId, Vec<(FuncId, ValueId)>> = HashMap::new();
        for fid in module.func_ids() {
            let f = module.func(fid);
            for bb in f.block_ids() {
                for &iv in &f.block(bb).insts {
                    match f.inst(iv) {
                        Some(Inst::Store { ptr, .. }) => {
                            if let Some(objs) = points_to.write_targets(fid, *ptr) {
                                for o in objs {
                                    for o2 in points_to.overlapping_objects(o) {
                                        stores_by_object.entry(o2).or_default().push((fid, iv));
                                    }
                                }
                            }
                        }
                        Some(Inst::Load { ptr }) => {
                            let pts = points_to.points_to(fid, *ptr);
                            for &o in &pts.objects {
                                for o2 in points_to.overlapping_objects(o) {
                                    loads_by_object.entry(o2).or_default().push((fid, iv));
                                }
                            }
                        }
                        _ => {}
                    }
                }
            }
        }
        let mut ics_by_object: HashMap<ObjId, Vec<IcSite>> = HashMap::new();
        for site in channels.sites.iter().filter(|s| s.writes_memory()) {
            if let Some(dst) = site.dest_ptr(module) {
                if let Some(objs) = points_to.write_targets(site.func, dst) {
                    for o in objs {
                        for o2 in points_to.overlapping_objects(o) {
                            ics_by_object.entry(o2).or_default().push(*site);
                        }
                    }
                }
            }
        }
        for v in stores_by_object.values_mut() {
            v.dedup();
        }
        for v in loads_by_object.values_mut() {
            v.dedup();
        }
        ics_by_object
            .values_mut()
            .for_each(|v| v.dedup_by_key(|s| (s.func, s.call)));
        ObjectMaps {
            stores_by_object,
            ics_by_object,
            loads_by_object,
        }
    }
}

/// Shared indexes for slicing over one module.
pub struct SliceContext<'m> {
    /// The module under analysis.
    pub module: &'m Module,
    /// Field-sensitive points-to results — the relation Pythia/CPA slicing
    /// and obligation derivation use.
    pub points_to: PointsTo,
    /// Field-insensitive points-to results — the coarser relation DFI's
    /// model assumes (paper §6.2: DFI terminates at field accesses).
    /// Root object ids are shared with [`Self::points_to`].
    pub points_to_fi: PointsTo,
    /// Discovered input channels.
    pub channels: InputChannels,
    /// Object indexes over the field-sensitive relation (overlap-closed).
    maps: ObjectMaps,
    /// Object indexes over the field-insensitive relation.
    maps_fi: ObjectMaps,
    /// Call sites per callee.
    callers: HashMap<FuncId, Vec<(FuncId, ValueId)>>,
    /// Lazily computed def-use chains, one slot per function. Shared by
    /// every forward slice instead of being rebuilt per query.
    du: Vec<OnceCell<crate::defuse::DefUse>>,
    /// Backward slices computed ([`Self::backward_slice`] calls).
    slices: Cell<u64>,
    /// The context policy [`Self::ctx_points_to`] solves under.
    policy: CtxPolicy,
    /// Lazily computed context-sensitive points-to layer over
    /// [`Self::points_to`]. Only the overflow-reachability pruner (and
    /// the lint's OPT-02 rule) pays for it, on first use.
    ctx1: OnceCell<CtxSolve>,
    /// Lazily computed value → block indexes, one slot per function.
    homes: Vec<OnceCell<Placement>>,
    /// In-bounds proof answers shared by every overflow-reach fixpoint
    /// over this context (the pruner's and the certifier's).
    pub(crate) proofs: ProofMemo,
}

impl<'m> SliceContext<'m> {
    /// Build the context (runs points-to analysis at both precisions)
    /// under the default context policy, summary-based 2-CFA.
    pub fn new(module: &'m Module) -> Self {
        Self::with_policy(module, CtxPolicy::default())
    }

    /// [`Self::new`] under an explicit context policy.
    pub fn with_policy(module: &'m Module, policy: CtxPolicy) -> Self {
        let points_to = PointsTo::analyze(module);
        let points_to_fi = PointsTo::analyze_with(module, Precision::FieldInsensitive);
        let channels = InputChannels::find(module);
        let maps = ObjectMaps::build(module, &points_to, &channels);
        let maps_fi = ObjectMaps::build(module, &points_to_fi, &channels);

        let mut callers: HashMap<FuncId, Vec<(FuncId, ValueId)>> = HashMap::new();
        for fid in module.func_ids() {
            let f = module.func(fid);
            for bb in f.block_ids() {
                for &iv in &f.block(bb).insts {
                    if let Some(Inst::Call {
                        callee: Callee::Func(target),
                        ..
                    }) = f.inst(iv)
                    {
                        callers.entry(*target).or_default().push((fid, iv));
                    }
                }
            }
        }

        let nfuncs = module.func_ids().count();
        SliceContext {
            module,
            points_to,
            points_to_fi,
            channels,
            maps,
            maps_fi,
            callers,
            du: (0..nfuncs).map(|_| OnceCell::new()).collect(),
            slices: Cell::new(0),
            policy,
            ctx1: OnceCell::new(),
            homes: (0..nfuncs).map(|_| OnceCell::new()).collect(),
            proofs: ProofMemo::default(),
        }
    }

    /// The context policy this context was built with.
    pub fn ctx_policy(&self) -> CtxPolicy {
        self.policy
    }

    /// The context-sensitive points-to layer over the field-sensitive
    /// relation under [`Self::ctx_policy`], computed once per context on
    /// first use. On fallback its queries return `None` and callers use
    /// [`Self::points_to`] — always a sound superset.
    pub fn ctx_points_to(&self) -> &CtxSolve {
        self.ctx1
            .get_or_init(|| CtxSolve::analyze(self.module, &self.points_to, self.policy))
    }

    /// Def-use chains of `fid`, computed once per context and shared by
    /// every forward slice.
    pub fn def_use(&self, fid: FuncId) -> &crate::defuse::DefUse {
        self.du[fid.0 as usize]
            .get_or_init(|| crate::defuse::DefUse::compute(self.module.func(fid)))
    }

    /// The value → block index of `fid`, computed once per context.
    pub fn placement(&self, fid: FuncId) -> &Placement {
        self.homes[fid.0 as usize].get_or_init(|| self.module.func(fid).placement())
    }

    /// Backward slices computed so far on this context.
    pub fn slices(&self) -> u64 {
        self.slices.get()
    }

    /// `(0, slices)`, in the `(hits, misses)` shape that external
    /// callers still read: every query computes, so there are no hits.
    pub fn memo_stats(&self) -> (u64, u64) {
        (0, self.slices())
    }

    /// The points-to relation a slicing mode assumes: field-sensitive for
    /// Pythia/CPA, field-insensitive for DFI.
    pub fn relation(&self, mode: SliceMode) -> &PointsTo {
        match mode {
            SliceMode::Pythia => &self.points_to,
            SliceMode::Dfi => &self.points_to_fi,
        }
    }

    fn maps_for(&self, mode: SliceMode) -> &ObjectMaps {
        match mode {
            SliceMode::Pythia => &self.maps,
            SliceMode::Dfi => &self.maps_fi,
        }
    }

    /// Stores that may write `obj` (field-sensitive relation).
    pub fn stores_of(&self, obj: ObjId) -> &[(FuncId, ValueId)] {
        self.stores_of_in(SliceMode::Pythia, obj)
    }

    /// Stores that may write `obj` under `mode`'s relation.
    pub fn stores_of_in(&self, mode: SliceMode, obj: ObjId) -> &[(FuncId, ValueId)] {
        self.maps_for(mode)
            .stores_by_object
            .get(&obj)
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Loads that may read `obj` (field-sensitive relation).
    pub fn loads_of(&self, obj: ObjId) -> &[(FuncId, ValueId)] {
        self.loads_of_in(SliceMode::Pythia, obj)
    }

    /// Loads that may read `obj` under `mode`'s relation.
    pub fn loads_of_in(&self, mode: SliceMode, obj: ObjId) -> &[(FuncId, ValueId)] {
        self.maps_for(mode)
            .loads_by_object
            .get(&obj)
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Memory-writing input channels that may write `obj` under `mode`'s
    /// relation.
    pub fn ics_writing_in(&self, mode: SliceMode, obj: ObjId) -> &[IcSite] {
        self.maps_for(mode)
            .ics_by_object
            .get(&obj)
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Call sites of `callee`.
    pub fn callers_of(&self, callee: FuncId) -> &[(FuncId, ValueId)] {
        self.callers.get(&callee).map(Vec::as_slice).unwrap_or(&[])
    }

    /// All conditional branches in a function.
    pub fn branches_in(&self, fid: FuncId) -> Vec<ValueId> {
        let f = self.module.func(fid);
        let mut out = Vec::new();
        for bb in f.block_ids() {
            for &iv in &f.block(bb).insts {
                if matches!(f.inst(iv), Some(Inst::Br { .. })) {
                    out.push(iv);
                }
            }
        }
        out
    }

    /// Backward slice of one branch (paper Alg. 1 generalized with memory
    /// and interprocedural edges). Each call is a full traversal; a
    /// pipeline evaluation slices each branch once per mode, and its
    /// consumers read the resulting report.
    ///
    /// # Panics
    ///
    /// Panics if `branch` is not a `br` instruction of `func`.
    pub fn backward_slice(&self, func: FuncId, branch: ValueId, mode: SliceMode) -> BackwardSlice {
        self.slices.set(self.slices.get() + 1);
        let f = self.module.func(func);
        let cond = match f.inst(branch) {
            Some(Inst::Br { cond, .. }) => *cond,
            other => panic!("backward_slice on non-branch {other:?}"),
        };

        let mut slice = BackwardSlice {
            branch,
            func,
            values: BTreeSet::new(),
            objects: BTreeSet::new(),
            complete: true,
            tainting_ics: Vec::new(),
            direct_ics: Vec::new(),
        };

        let mut work: VecDeque<(FuncId, ValueId)> = VecDeque::new();
        let mut seen: HashSet<(FuncId, ValueId)> = HashSet::new();
        work.push_back((func, cond));
        seen.insert((func, cond));
        // Objects whose loads feed the predicate *in the first traversal
        // step* count as "direct" predicate storage.
        let mut direct_objects: BTreeSet<ObjId> = BTreeSet::new();
        let mut budget = 200_000usize; // hard cap to bound pathological cases

        while let Some((fid, v)) = work.pop_front() {
            if budget == 0 {
                slice.complete = false;
                break;
            }
            budget -= 1;
            slice.values.insert((fid, v));
            let fun = self.module.func(fid);
            let push = |work: &mut VecDeque<(FuncId, ValueId)>,
                        seen: &mut HashSet<(FuncId, ValueId)>,
                        fid: FuncId,
                        v: ValueId| {
                if seen.insert((fid, v)) {
                    work.push_back((fid, v));
                }
            };

            match &fun.value(v).kind {
                ValueKind::Arg(idx) => {
                    // Interprocedural: extend into every caller's argument.
                    for &(cf, cv) in self.callers_of(fid) {
                        if let Some(Inst::Call { args, .. }) = self.module.func(cf).inst(cv) {
                            if let Some(&a) = args.get(*idx as usize) {
                                push(&mut work, &mut seen, cf, a);
                            }
                        }
                    }
                }
                ValueKind::Inst(inst) => match inst {
                    Inst::Load { ptr } => {
                        push(&mut work, &mut seen, fid, *ptr);
                        let pts = self.relation(mode).points_to(fid, *ptr);
                        if pts.unknown {
                            // Cannot enumerate the loaded-from objects.
                            slice.complete = false;
                        }
                        for &o in &pts.objects {
                            let newly = slice.objects.insert(o);
                            if fid == func && is_direct_feed(fun, cond, v) {
                                direct_objects.insert(o);
                            }
                            if newly {
                                for &(sf, sv) in self.stores_of_in(mode, o) {
                                    if let Some(Inst::Store { value, .. }) =
                                        self.module.func(sf).inst(sv)
                                    {
                                        push(&mut work, &mut seen, sf, *value);
                                    }
                                }
                            }
                        }
                    }
                    Inst::Gep { base, index, .. } => match mode {
                        SliceMode::Pythia => {
                            push(&mut work, &mut seen, fid, *base);
                            push(&mut work, &mut seen, fid, *index);
                        }
                        SliceMode::Dfi => {
                            let fun2 = self.module.func(fid);
                            if matches!(fun2.value(*index).kind, ValueKind::ConstInt(_)) {
                                push(&mut work, &mut seen, fid, *base);
                            } else {
                                // DFI cannot reason about pointer arithmetic.
                                slice.complete = false;
                            }
                        }
                    },
                    Inst::FieldAddr { base, .. } => match mode {
                        SliceMode::Pythia => push(&mut work, &mut seen, fid, *base),
                        SliceMode::Dfi => {
                            // Field-insensitive: terminate.
                            slice.complete = false;
                        }
                    },
                    Inst::Call { callee, args } => {
                        match callee {
                            Callee::Func(target) => {
                                // The call's value comes from the callee's
                                // returns; extend into them.
                                let cf = self.module.func(*target);
                                for bb in cf.block_ids() {
                                    if let Some(Inst::Ret { value: Some(rv) }) = cf.terminator(bb) {
                                        push(&mut work, &mut seen, *target, *rv);
                                    }
                                }
                            }
                            Callee::Intrinsic(i) => {
                                // Data-returning intrinsics depend on args.
                                if matches!(
                                    i,
                                    Intrinsic::Strlen
                                        | Intrinsic::Strcmp
                                        | Intrinsic::Strncmp
                                        | Intrinsic::Scanf
                                        | Intrinsic::Sscanf
                                        | Intrinsic::Read
                                ) {
                                    for &a in args {
                                        push(&mut work, &mut seen, fid, a);
                                    }
                                }
                            }
                            Callee::Indirect(_) => {
                                if mode == SliceMode::Dfi {
                                    slice.complete = false;
                                }
                            }
                        }
                    }
                    _ => {
                        for op in inst.operands() {
                            push(&mut work, &mut seen, fid, op);
                        }
                    }
                },
                _ => {}
            }
        }

        // Which write-channels can taint the slice?
        let mut seen_ic: HashSet<(FuncId, ValueId)> = HashSet::new();
        for &o in &slice.objects {
            for site in self.ics_writing_in(mode, o) {
                if seen_ic.insert((site.func, site.call)) {
                    slice.tainting_ics.push(*site);
                    if direct_objects.contains(&o) {
                        slice.direct_ics.push(*site);
                    }
                }
            }
        }
        slice
    }

    /// Forward slice from one memory-writing input channel (input channel
    /// construction).
    pub fn forward_slice(&self, site: IcSite) -> ForwardSlice {
        let mut out = ForwardSlice {
            site,
            values: BTreeSet::new(),
            objects: BTreeSet::new(),
        };
        let Some(dst) = site.dest_ptr(self.module) else {
            return out;
        };
        let Some(root_objs) = self.points_to.write_targets(site.func, dst) else {
            return out;
        };

        // Taint propagation: objects -> loads -> value dataflow -> stores ->
        // objects, to a fixpoint.
        let mut obj_work: VecDeque<ObjId> = root_objs.iter().copied().collect();
        out.objects.extend(root_objs);
        let mut val_work: VecDeque<(FuncId, ValueId)> = VecDeque::new();
        let mut seen_vals: HashSet<(FuncId, ValueId)> = HashSet::new();
        let mut budget = 200_000usize;

        loop {
            while let Some(o) = obj_work.pop_front() {
                // Every load that may read this object becomes tainted.
                if let Some(loads) = self.maps.loads_by_object.get(&o) {
                    for &(fid, iv) in loads {
                        if seen_vals.insert((fid, iv)) {
                            val_work.push_back((fid, iv));
                        }
                    }
                }
            }
            let Some((fid, v)) = val_work.pop_front() else {
                break;
            };
            if budget == 0 {
                break;
            }
            budget -= 1;
            out.values.insert((fid, v));
            let f = self.module.func(fid);
            let du = self.def_use(fid);
            for &user in du.users(v) {
                match f.inst(user) {
                    Some(Inst::Store { ptr, value }) if *value == v => {
                        if let Some(objs) = self.points_to.write_targets(fid, *ptr) {
                            for o in objs {
                                if out.objects.insert(o) {
                                    obj_work.push_back(o);
                                }
                            }
                        }
                    }
                    Some(Inst::Call {
                        callee: Callee::Func(target),
                        args,
                    }) => {
                        // Taint flows into callees via arguments.
                        let cf = self.module.func(*target);
                        for (i, a) in args.iter().enumerate() {
                            if *a == v && i < cf.params.len() {
                                let p = cf.arg(i);
                                if seen_vals.insert((*target, p)) {
                                    val_work.push_back((*target, p));
                                }
                            }
                        }
                    }
                    // Intrinsic/indirect calls do not propagate taint into
                    // a callee body (there is none to slice into).
                    Some(Inst::Call { .. }) => {}
                    Some(inst)
                        if !inst.is_terminator()
                            && f.value(user).ty != pythia_ir::Ty::Void
                            && seen_vals.insert((fid, user)) =>
                    {
                        // Any computed result is tainted.
                        val_work.push_back((fid, user));
                    }
                    _ => {}
                }
            }
        }
        out
    }
}

/// Whether value `v` feeds the branch condition `cond` within one step
/// (i.e. `v` is `cond` itself or a direct operand of the icmp).
fn is_direct_feed(f: &pythia_ir::Function, cond: ValueId, v: ValueId) -> bool {
    if v == cond {
        return true;
    }
    if let Some(inst) = f.inst(cond) {
        return inst.operands().contains(&v);
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use pythia_ir::{CmpPred, FunctionBuilder, Module, Ty};

    /// Build the paper's Listing-1-style function:
    /// user buffer checked by a branch, attacker channel writes nearby.
    fn listing1_like() -> (Module, FuncId) {
        let mut m = Module::new("m");
        let mut b = FunctionBuilder::new("access", vec![], Ty::I64);
        let user = b.alloca(Ty::array(Ty::I8, 8));
        b.set_name(user, "user");
        let input = b.alloca(Ty::array(Ty::I8, 8));
        b.set_name(input, "someinput");
        // strcpy(user, <ext>) -- fill user legitimately (scan-ish)
        let n = b.const_i64(8);
        b.call_intrinsic(Intrinsic::Fgets, vec![user, n], Ty::ptr(Ty::I8));
        // strcpy(input-buffer, attacker) happens via gets
        b.call_intrinsic(Intrinsic::Gets, vec![input], Ty::ptr(Ty::I8));
        // branch on user[0]
        let zero = b.const_i64(0);
        let p0 = b.gep(user, zero);
        let c0 = b.load(p0);
        let admin = b.const_int(Ty::I8, 97);
        let cond = b.icmp(CmpPred::Eq, c0, admin);
        let t = b.new_block("super");
        let e = b.new_block("normal");
        b.br(cond, t, e);
        b.switch_to(t);
        let one = b.const_i64(1);
        b.ret(Some(one));
        b.switch_to(e);
        b.ret(Some(zero));
        let fid = m.add_function(b.finish());
        (m, fid)
    }

    #[test]
    fn branch_slice_reaches_ic() {
        let (m, fid) = listing1_like();
        let ctx = SliceContext::new(&m);
        let branches = ctx.branches_in(fid);
        assert_eq!(branches.len(), 1);
        let slice = ctx.backward_slice(fid, branches[0], SliceMode::Pythia);
        assert!(slice.complete);
        assert!(slice.ic_affected());
        // fgets writes the user buffer the branch reads -> tainting.
        assert!(slice
            .tainting_ics
            .iter()
            .any(|s| s.intrinsic == Intrinsic::Fgets));
        // The `gets` into the *other* buffer must not appear: distinct objects.
        assert!(!slice
            .tainting_ics
            .iter()
            .any(|s| s.intrinsic == Intrinsic::Gets));
        assert_eq!(slice.objects.len(), 1);
    }

    #[test]
    fn dfi_mode_terminates_at_dynamic_gep() {
        let mut m = Module::new("m");
        let mut b = FunctionBuilder::new("f", vec![Ty::I64], Ty::I64);
        let buf = b.alloca(Ty::array(Ty::I64, 8));
        let i = b.func().arg(0); // dynamic index
        let p = b.gep(buf, i);
        let v = b.load(p);
        let zero = b.const_i64(0);
        let cond = b.icmp(CmpPred::Sgt, v, zero);
        let t = b.new_block("t");
        let e = b.new_block("e");
        b.br(cond, t, e);
        b.switch_to(t);
        b.ret(Some(v));
        b.switch_to(e);
        b.ret(Some(zero));
        let fid = m.add_function(b.finish());
        let ctx = SliceContext::new(&m);
        let br = ctx.branches_in(fid)[0];
        let pythia = ctx.backward_slice(fid, br, SliceMode::Pythia);
        let dfi = ctx.backward_slice(fid, br, SliceMode::Dfi);
        assert!(pythia.complete);
        assert!(
            !dfi.complete,
            "DFI should stop at dynamic pointer arithmetic"
        );
        assert!(pythia.values.len() > dfi.values.len());
    }

    #[test]
    fn dfi_mode_terminates_at_field_access() {
        let mut m = Module::new("m");
        let mut b = FunctionBuilder::new("f", vec![], Ty::I64);
        let s = b.alloca(Ty::strukt(vec![Ty::I64, Ty::I64]));
        let f1 = b.field_addr(s, 1);
        let v = b.load(f1);
        let zero = b.const_i64(0);
        let cond = b.icmp(CmpPred::Sgt, v, zero);
        let t = b.new_block("t");
        let e = b.new_block("e");
        b.br(cond, t, e);
        b.switch_to(t);
        b.ret(Some(v));
        b.switch_to(e);
        b.ret(Some(zero));
        let fid = m.add_function(b.finish());
        let ctx = SliceContext::new(&m);
        let br = ctx.branches_in(fid)[0];
        assert!(ctx.backward_slice(fid, br, SliceMode::Pythia).complete);
        assert!(!ctx.backward_slice(fid, br, SliceMode::Dfi).complete);
    }

    #[test]
    fn interprocedural_slice_through_argument() {
        let mut m = Module::new("m");
        // check(x) { if (x > 0) ... }
        let mut cb = FunctionBuilder::new("check", vec![Ty::I64], Ty::I64);
        let x = cb.func().arg(0);
        let zero = cb.const_i64(0);
        let cond = cb.icmp(CmpPred::Sgt, x, zero);
        let t = cb.new_block("t");
        let e = cb.new_block("e");
        cb.br(cond, t, e);
        cb.switch_to(t);
        cb.ret(Some(x));
        cb.switch_to(e);
        cb.ret(Some(zero));
        let check = m.add_function(cb.finish());
        // main: v loaded from IC-written buffer, passed to check.
        let mut b = FunctionBuilder::new("main", vec![], Ty::I64);
        let buf = b.alloca(Ty::array(Ty::I64, 4));
        b.call_intrinsic(Intrinsic::Gets, vec![buf], Ty::ptr(Ty::I8));
        let zero = b.const_i64(0);
        let p = b.gep(buf, zero);
        let v = b.load(p);
        let r = b.call(check, vec![v], Ty::I64);
        b.ret(Some(r));
        m.add_function(b.finish());

        let ctx = SliceContext::new(&m);
        let br = ctx.branches_in(check)[0];
        let slice = ctx.backward_slice(check, br, SliceMode::Pythia);
        assert!(slice.ic_affected(), "taint must flow through the call");
        assert!(slice
            .tainting_ics
            .iter()
            .any(|s| s.intrinsic == Intrinsic::Gets));
    }

    #[test]
    fn forward_slice_taints_derived_values_and_objects() {
        let mut m = Module::new("m");
        let mut b = FunctionBuilder::new("f", vec![], Ty::I64);
        let buf = b.alloca(Ty::array(Ty::I64, 4));
        let out = b.alloca(Ty::I64);
        b.call_intrinsic(Intrinsic::Gets, vec![buf], Ty::ptr(Ty::I8));
        let zero = b.const_i64(0);
        let p = b.gep(buf, zero);
        let v = b.load(p);
        let one = b.const_i64(1);
        let w = b.add(v, one);
        b.store(w, out);
        b.ret(Some(w));
        let fid = m.add_function(b.finish());
        let ctx = SliceContext::new(&m);
        let site = *ctx
            .channels
            .sites
            .iter()
            .find(|s| s.intrinsic == Intrinsic::Gets)
            .unwrap();
        let fs = ctx.forward_slice(site);
        assert!(fs.values.contains(&(fid, v)));
        assert!(fs.values.contains(&(fid, w)));
        // The store propagates taint into `out`'s object.
        assert_eq!(fs.objects.len(), 2);
    }

    #[test]
    fn every_query_is_counted_as_one_slice() {
        let (m, fid) = listing1_like();
        let ctx = SliceContext::new(&m);
        let br = ctx.branches_in(fid)[0];
        assert_eq!(ctx.memo_stats(), (0, 0));
        let first = ctx.backward_slice(fid, br, SliceMode::Pythia);
        assert_eq!(ctx.slices(), 1);
        // A second identical query recomputes the same result.
        let second = ctx.backward_slice(fid, br, SliceMode::Pythia);
        assert_eq!(ctx.slices(), 2);
        assert_eq!(first.values, second.values);
        assert_eq!(first.objects, second.objects);
        assert_eq!(first.complete, second.complete);
        ctx.backward_slice(fid, br, SliceMode::Dfi);
        assert_eq!(ctx.memo_stats(), (0, 3));
    }

    #[test]
    fn untainted_branch_has_no_ics() {
        let mut m = Module::new("m");
        let mut b = FunctionBuilder::new("f", vec![Ty::I64], Ty::I64);
        let x = b.func().arg(0);
        let zero = b.const_i64(0);
        let cond = b.icmp(CmpPred::Sgt, x, zero);
        let t = b.new_block("t");
        let e = b.new_block("e");
        b.br(cond, t, e);
        b.switch_to(t);
        b.ret(Some(x));
        b.switch_to(e);
        b.ret(Some(zero));
        let fid = m.add_function(b.finish());
        let ctx = SliceContext::new(&m);
        let br = ctx.branches_in(fid)[0];
        let slice = ctx.backward_slice(fid, br, SliceMode::Pythia);
        assert!(!slice.ic_affected());
        assert!(slice.objects.is_empty());
    }
}
