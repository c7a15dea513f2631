//! Overflow-reachability analysis: which memory objects can an attacker
//! actually corrupt?
//!
//! The instrumentation passes derive *obligations* (PA sign/auth pairs,
//! canary re-randomizations, DFI chkdef entries) for every object their
//! vulnerable-variable analysis flags. Many of those objects, however, are
//! provably out of reach of every overflow-capable write — protecting them
//! costs PA instructions without closing any attack. This module computes
//! the set of **corruptible** objects so `prune_obligations`
//! (`pythia-passes`) can drop the rest, and `pythia-lint` can independently
//! re-derive the same set to certify the pruned obligation map.
//!
//! # Threat model (first-order non-control-data attacks)
//!
//! The attacker injects bytes at memory-writing input channels. The VM's
//! attack engine writes the raw payload **unclamped** (`bulk_write`), so
//! every writing IC is an overflow source regardless of its benign length
//! argument. An overflow writes *upward* (increasing addresses) from the
//! channel destination, in the layout `pythia_ir::layout` defines:
//!
//! - **stack**: frames grow upward and callee frames sit above the
//!   caller's; a frame is zeroed on function entry, so bytes smashed above
//!   the live stack top are wiped before any callee reads them. An
//!   overflow from alloca `a` of function `h` therefore reaches the
//!   same-frame allocas at `a`'s offset or above, plus — because the
//!   channel may execute in a callee while `h`'s frame is live below —
//!   every alloca of `h`'s transitive callees (and `h` itself when
//!   recursive);
//! - **globals**: laid out in module order; an overflow reaches globals at
//!   the source's layout position or later;
//! - **heap**: allocation addresses are dynamic, so heap objects are
//!   mutually adjacent (any heap overflow may reach any heap object).
//!
//! Cross-region overflows (globals → heap → stack) require payloads of
//! gigabytes under the VM's address-space layout and are out of model, as
//! are *second-order* writes through pointers the attacker corrupted in
//! memory (the campaigns drive first-order channel smashes; stores through
//! tainted pointer values content-taint their static pointees instead).
//! Stores through ⊤ (`inttoptr`-derived) pointers have no static footprint
//! at all and force the analysis to its ⊤: everything reachable, nothing
//! prunable.
//!
//! Beyond channels, a store through a variable-index `gep` whose index is
//! **attacker-tainted** and **not proven in-bounds** by the interval
//! analysis ([`crate::interval`]) is a derived overflow source: the
//! adjacency closure of its target objects becomes reachable. A tainted
//! index that *is* proven in-bounds on all paths cannot escape its object
//! — that proof is exactly what the bounds pass contributes. Untainted
//! unproven indexes are program-controlled and benign under this model.

use crate::alias::{MemObjectKind, ObjId, PointsTo};
use crate::callgraph::CallGraph;
use crate::interval::{index_in_bounds, value_ranges, value_ranges_seeded, Interval, ValueRanges};
use crate::slicing::SliceContext;
use pythia_ir::layout::{frame_slots, object_size};
use pythia_ir::{Callee, FuncId, Inst, Intrinsic, ValueId, ValueKind};
use std::collections::{BTreeSet, HashMap, HashSet};

/// The corruptible-object set (root objects only) plus precision counters.
#[derive(Debug, Clone)]
pub struct OverflowReach {
    /// Root objects an overflow-capable write may corrupt.
    reachable: BTreeSet<ObjId>,
    /// ⊤: a store through an unknown pointer makes every object
    /// corruptible; no obligation may be pruned.
    pub top: bool,
    /// Writing input channels seeding the analysis.
    pub ic_sources: usize,
    /// Tainted variable-index gep stores that could *not* be proven
    /// in-bounds (each contributed its adjacency closure).
    pub unproven_gep_stores: usize,
    /// Tainted variable-index gep stores the interval analysis proved
    /// in-bounds (each pruned an overflow source). Proofs run per calling
    /// context of the context-sensitive layer: every context must
    /// discharge every object its (sharper) pointee set contains.
    pub proven_gep_stores: usize,
    /// Calling contexts the context-sensitive points-to layer explored.
    pub contexts: usize,
    /// Whether the context-sensitive solve fell back to the insensitive
    /// relation (node budget exhausted or object-remap divergence).
    pub ctx_fallback: bool,
    /// Reporting label of the context policy that actually ran
    /// (`"insensitive"` whenever the solve fell back, whatever was
    /// requested).
    pub policy: &'static str,
    /// Distinct per-function summaries the summary solver gathered (0
    /// under the insensitive relation).
    pub summaries: usize,
    /// Call-edge instantiations served by an already-instantiated
    /// summary instead of a fresh constraint-graph clone.
    pub summary_reuse: usize,
    /// Store instructions dropped by flow-sensitive strong updates.
    pub strong_updates: usize,
}

impl OverflowReach {
    /// May the attacker corrupt `obj` (any field of its root)? `pt` must
    /// be the relation `obj` comes from; roots coarsen identically across
    /// precisions.
    pub fn is_reachable(&self, pt: &PointsTo, obj: ObjId) -> bool {
        self.top || self.reachable.contains(&pt.base_object(obj))
    }

    /// Number of corruptible root objects (meaningless when `top`).
    pub fn num_reachable(&self) -> usize {
        self.reachable.len()
    }

    /// Compute the fixpoint over `ctx` (field-sensitive relation).
    pub fn compute(ctx: &SliceContext<'_>) -> Self {
        Builder::new(ctx).run()
    }
}

struct Builder<'a, 'm> {
    ctx: &'a SliceContext<'m>,
    cg: CallGraph,
    /// Per-function VM-identical frame offsets: alloca -> (offset, size).
    frame_offsets: HashMap<FuncId, HashMap<ValueId, (u64, u64)>>,
    /// Lazily computed per-(function, calling-context) value ranges; the
    /// context's callsite chain seeds constant arguments into the
    /// parameters.
    ranges: HashMap<(FuncId, usize), ValueRanges>,
    /// Memoized context-projected store-pointer pointee sets (the
    /// fixpoint loop re-visits every store each round, and the
    /// projection unions every calling context).
    store_pts: HashMap<(FuncId, ValueId), crate::alias::ObjSet>,
    /// Functions whose address is taken (indirect-call targets).
    address_taken: Vec<FuncId>,
    reachable: BTreeSet<ObjId>,
    content_tainted: BTreeSet<ObjId>,
    tainted: HashSet<(FuncId, ValueId)>,
    top: bool,
    ic_sources: usize,
    unproven_gep_stores: BTreeSet<(FuncId, ValueId)>,
    proven_gep_stores: BTreeSet<(FuncId, ValueId)>,
}

impl<'a, 'm> Builder<'a, 'm> {
    fn new(ctx: &'a SliceContext<'m>) -> Self {
        let m = ctx.module;
        // The frame layout the VM materializes.
        let frame_offsets = m
            .func_ids()
            .map(|fid| {
                let offs: HashMap<ValueId, (u64, u64)> = frame_slots(m.func(fid))
                    .into_iter()
                    .map(|(a, s)| (a, (s.start, s.size)))
                    .collect();
                (fid, offs)
            })
            .collect();
        let mut address_taken = Vec::new();
        for fid in m.func_ids() {
            let f = m.func(fid);
            for v in f.value_ids() {
                if let ValueKind::FuncAddr(t) = f.value(v).kind {
                    if !address_taken.contains(&t) {
                        address_taken.push(t);
                    }
                }
            }
        }
        Builder {
            ctx,
            cg: CallGraph::build(m),
            frame_offsets,
            ranges: HashMap::new(),
            store_pts: HashMap::new(),
            address_taken,
            reachable: BTreeSet::new(),
            content_tainted: BTreeSet::new(),
            tainted: HashSet::new(),
            top: false,
            ic_sources: 0,
            unproven_gep_stores: BTreeSet::new(),
            proven_gep_stores: BTreeSet::new(),
        }
    }

    /// The adjacency closure of one *root* object: everything an upward
    /// overflow starting inside it may corrupt (including itself).
    fn adjacency(&self, root: ObjId) -> Vec<ObjId> {
        let pt = &self.ctx.points_to;
        let mut out = vec![root];
        match pt.obj_kind(root) {
            MemObjectKind::Stack { func: h, value: a } => {
                // Same-frame allocas at or above the source offset.
                let offs = &self.frame_offsets[&h];
                let src_off = offs.get(&a).map(|&(o, _)| o).unwrap_or(0);
                for (&other, &(o, _)) in offs {
                    if o >= src_off {
                        if let Some(id) = pt.obj_id(MemObjectKind::Stack {
                            func: h,
                            value: other,
                        }) {
                            out.push(id);
                        }
                    }
                }
                // Live frames above: every transitive callee of `h` (the
                // channel may run in a callee while h's frame sits below),
                // plus h's own deeper frames when recursive.
                let mut descendants: BTreeSet<FuncId> = BTreeSet::new();
                for &c in self.cg.callees(h) {
                    descendants.extend(self.cg.reachable_from(c));
                }
                let recursive = descendants.contains(&h);
                for (i, k) in pt.objects().iter().enumerate() {
                    if let MemObjectKind::Stack { func, .. } = k {
                        if (*func != h && descendants.contains(func)) || (*func == h && recursive) {
                            out.push(i as ObjId);
                        }
                    }
                }
            }
            MemObjectKind::Global(g) => {
                // Globals are laid out in module order.
                for (i, k) in pt.objects().iter().enumerate() {
                    if let MemObjectKind::Global(other) = k {
                        if other.0 >= g.0 {
                            out.push(i as ObjId);
                        }
                    }
                }
            }
            MemObjectKind::Heap { .. } => {
                // Allocation order is dynamic: all heap objects mutually.
                for (i, k) in pt.objects().iter().enumerate() {
                    if matches!(k, MemObjectKind::Heap { .. }) {
                        out.push(i as ObjId);
                    }
                }
            }
            MemObjectKind::Field { .. } => unreachable!("adjacency takes roots"),
        }
        out
    }

    fn mark_overflow_from(&mut self, roots: &BTreeSet<ObjId>) -> bool {
        let mut changed = false;
        for &r in roots {
            for o in self.adjacency(r) {
                changed |= self.reachable.insert(o);
            }
        }
        changed
    }

    fn taint(&mut self, fid: FuncId, v: ValueId) -> bool {
        self.tainted.insert((fid, v))
    }

    fn is_tainted(&self, fid: FuncId, v: ValueId) -> bool {
        self.tainted.contains(&(fid, v))
    }

    fn obj_root_corruptible_or_tainted(&self, root: ObjId) -> bool {
        self.reachable.contains(&root) || self.content_tainted.contains(&root)
    }

    /// Element count of `obj` for a gep of element size `elem_size` based
    /// at it, or `None` when unknown (heap sites with dynamic sizes).
    fn elem_count(&self, obj: ObjId, elem_size: u64) -> Option<u64> {
        if elem_size == 0 {
            return None;
        }
        Some(object_byte_size(self.ctx, obj)? / elem_size)
    }

    /// Is the gep store at `(fid, gep)` (with variable, tainted `index`)
    /// proven in-bounds for **every** object its base may point at, in
    /// **every** calling context?
    ///
    /// The context layer makes this strictly stronger than one insensitive
    /// check: each context sees only the objects that flow in through its
    /// own callsite (often a single heap cell instead of every caller's),
    /// and its value ranges are seeded with the callsite's constant
    /// arguments (a constant `len` argument turns an `i <u len` guard
    /// into a closed bound). A context whose pointee set is empty has no
    /// store footprint and is vacuously discharged; on fallback the
    /// insensitive relation and unseeded ranges apply — the pre-context
    /// behavior.
    fn gep_proven(&mut self, fid: FuncId, gep: ValueId, base: ValueId, index: ValueId) -> bool {
        let f = self.ctx.module.func(fid);
        let Some(Inst::Gep { elem, .. }) = f.inst(gep) else {
            return false;
        };
        let elem_size = elem.size().max(1);
        let cpt = self.ctx.ctx_points_to();
        let nctx = cpt.num_contexts_of(fid);
        let mut any_objects = false;
        for ci in 0..nctx {
            let pts = match cpt.points_to_in(fid, ci, base) {
                Some(s) => s.clone(),
                None => self.ctx.points_to.points_to(fid, base).clone(),
            };
            if pts.unknown {
                return false;
            }
            if pts.objects.is_empty() {
                continue;
            }
            any_objects = true;
            let counts: Option<Vec<u64>> = pts
                .objects
                .iter()
                .map(|&o| self.elem_count(o, elem_size))
                .collect();
            let Some(counts) = counts else { return false };
            let ranges = self.ranges_for(fid, ci);
            if !counts
                .iter()
                .all(|&count| index_in_bounds(f, ranges, gep, index, count))
            {
                return false;
            }
        }
        // No context carries any pointee: the store has no static
        // footprint anywhere, which only counts as a *proof* if the
        // insensitive relation agrees it writes nothing.
        any_objects || self.ctx.points_to.points_to(fid, base).objects.is_empty()
    }

    /// The pointee set of a store's pointer under the context-sensitive
    /// projection (union over calling contexts), memoized per `(fid,
    /// ptr)`. Falls back to the insensitive base set when the context
    /// solve fell back. This is where flow-sensitive strong updates
    /// reach the pruner: a killed store's stale pointee is absent from
    /// every per-context set, so the projection drops it too.
    fn store_footprint(&mut self, fid: FuncId, ptr: ValueId) -> crate::alias::ObjSet {
        if let Some(s) = self.store_pts.get(&(fid, ptr)) {
            return s.clone();
        }
        let s = self
            .ctx
            .ctx_points_to()
            .projected(fid, ptr)
            .unwrap_or_else(|| self.ctx.points_to.points_to(fid, ptr).clone());
        self.store_pts.insert((fid, ptr), s.clone());
        s
    }

    /// Value ranges of `fid` in calling context `ci`, seeded with every
    /// parameter whose value is a compile-time constant along the
    /// context's callsite chain: a constant passed directly at the
    /// innermost site, or threaded through intermediate wrappers'
    /// parameters (`resolve_const_arg` walks outward through the chain).
    fn ranges_for(&mut self, fid: FuncId, ci: usize) -> &ValueRanges {
        if !self.ranges.contains_key(&(fid, ci)) {
            let m = self.ctx.module;
            let f = m.func(fid);
            let chain = self.ctx.ctx_points_to().ctx_chain(fid, ci);
            let mut seeds: Vec<(ValueId, Interval)> = Vec::new();
            for i in 0..f.params.len() {
                if let Some(c) = resolve_const_arg(m, chain, 0, fid, i as u32) {
                    seeds.push((f.arg(i), Interval::exact(c)));
                }
            }
            let r = if seeds.is_empty() {
                value_ranges(f)
            } else {
                value_ranges_seeded(f, &seeds)
            };
            self.ranges.insert((fid, ci), r);
        }
        &self.ranges[&(fid, ci)]
    }

    /// Walk the pointer-derivation chain of a store's pointer and find the
    /// variable-index geps along it (through field_addr, casts, selects
    /// and phis, but not through memory).
    fn geps_in_chain(&self, fid: FuncId, ptr: ValueId) -> Vec<(ValueId, ValueId, ValueId)> {
        let f = self.ctx.module.func(fid);
        let mut out = Vec::new();
        let mut work = vec![ptr];
        let mut seen = HashSet::new();
        while let Some(v) = work.pop() {
            if !seen.insert(v) {
                continue;
            }
            match f.inst(v) {
                Some(Inst::Gep { base, index, .. }) => {
                    if !matches!(f.value(*index).kind, ValueKind::ConstInt(_)) {
                        out.push((v, *base, *index));
                    }
                    work.push(*base);
                }
                Some(Inst::FieldAddr { base, .. }) => work.push(*base),
                Some(Inst::Cast { value, .. }) => work.push(*value),
                Some(Inst::Select {
                    on_true, on_false, ..
                }) => {
                    work.push(*on_true);
                    work.push(*on_false);
                }
                Some(Inst::Phi { incomings }) => {
                    for (_, pv) in incomings {
                        work.push(*pv);
                    }
                }
                _ => {}
            }
        }
        out
    }

    fn run(mut self) -> OverflowReach {
        let m = self.ctx.module;

        // --- Seeds: every memory-writing input channel -------------------
        for site in self.ctx.channels.sites.clone() {
            if !site.writes_memory() {
                continue;
            }
            let Some(dst) = site.dest_ptr(m) else { continue };
            self.ic_sources += 1;
            let pts = self.ctx.points_to.points_to(site.func, dst).clone();
            if pts.unknown {
                self.top = true;
                break;
            }
            let roots: BTreeSet<ObjId> = pts
                .objects
                .iter()
                .map(|&o| self.ctx.points_to.base_object(o))
                .collect();
            self.mark_overflow_from(&roots);
        }

        // --- Taint/reach mutual fixpoint ---------------------------------
        while !self.top {
            let mut changed = false;
            for fid in m.func_ids() {
                let f = m.func(fid);
                for v in f.value_ids() {
                    let Some(inst) = f.inst(v) else { continue };
                    match inst {
                        Inst::Load { ptr } => {
                            if self.is_tainted(fid, v) {
                                continue;
                            }
                            let pts = self.ctx.points_to.points_to(fid, *ptr);
                            let hit = pts.unknown
                                || pts.objects.iter().any(|&o| {
                                    let root = self.ctx.points_to.base_object(o);
                                    self.obj_root_corruptible_or_tainted(root)
                                });
                            if hit {
                                changed |= self.taint(fid, v);
                            }
                        }
                        Inst::Store { value, ptr } => {
                            let pts = self.store_footprint(fid, *ptr);
                            if pts.unknown {
                                // No static footprint: everything reachable.
                                self.top = true;
                                break;
                            }
                            if self.is_tainted(fid, *value) || self.is_tainted(fid, *ptr) {
                                // First-order model: the store lands in its
                                // static pointees; their content becomes
                                // attacker-influenced.
                                for &o in &pts.objects {
                                    let root = self.ctx.points_to.base_object(o);
                                    changed |= self.content_tainted.insert(root);
                                }
                            }
                            // Derived overflow: tainted variable index the
                            // interval analysis cannot bound.
                            for (gep, base, index) in self.geps_in_chain(fid, *ptr) {
                                if !self.is_tainted(fid, index) {
                                    continue;
                                }
                                if self.gep_proven(fid, gep, base, index) {
                                    self.proven_gep_stores.insert((fid, gep));
                                } else if self.unproven_gep_stores.insert((fid, gep)) {
                                    let roots: BTreeSet<ObjId> = pts
                                        .objects
                                        .iter()
                                        .map(|&o| self.ctx.points_to.base_object(o))
                                        .collect();
                                    self.mark_overflow_from(&roots);
                                    changed = true;
                                }
                            }
                        }
                        // Pointer derivation deliberately ignores the index
                        // operand: a tainted in-bounds index stays inside
                        // its object (the gep-store rule above handles the
                        // unproven case).
                        Inst::Gep { base, .. } | Inst::FieldAddr { base, .. } => {
                            if self.is_tainted(fid, *base) && !self.is_tainted(fid, v) {
                                changed |= self.taint(fid, v);
                            }
                        }
                        Inst::Call { callee, args } => {
                            let any_arg_tainted =
                                args.iter().any(|&a| self.is_tainted(fid, a));
                            match callee {
                                Callee::Func(target) => {
                                    changed |=
                                        self.link_taint(fid, v, *target, args);
                                }
                                Callee::Indirect(_) => {
                                    let targets: Vec<FuncId> = self
                                        .address_taken
                                        .iter()
                                        .copied()
                                        .filter(|t| m.func(*t).params.len() == args.len())
                                        .collect();
                                    for t in targets {
                                        changed |= self.link_taint(fid, v, t, args);
                                    }
                                }
                                Callee::Intrinsic(_) => {
                                    if any_arg_tainted && !self.is_tainted(fid, v) {
                                        changed |= self.taint(fid, v);
                                    }
                                }
                            }
                        }
                        _ => {
                            if self.is_tainted(fid, v) {
                                continue;
                            }
                            if inst.operands().iter().any(|&op| self.is_tainted(fid, op)) {
                                changed |= self.taint(fid, v);
                            }
                        }
                    }
                }
                if self.top {
                    break;
                }
            }
            if !changed || self.top {
                break;
            }
        }

        let cpt = self.ctx.ctx_points_to();
        let cstats = cpt.stats();
        OverflowReach {
            reachable: self.reachable,
            top: self.top,
            ic_sources: self.ic_sources,
            unproven_gep_stores: self.unproven_gep_stores.len(),
            proven_gep_stores: self.proven_gep_stores.len(),
            contexts: cstats.contexts,
            ctx_fallback: cstats.fallback,
            policy: cpt.policy_name(),
            summaries: cpt.summaries(),
            summary_reuse: cpt.summary_reuse(),
            strong_updates: cpt.strong_updates(),
        }
    }

    /// Propagate taint across one (possibly indirect) call edge: tainted
    /// arguments taint the callee's parameters; a tainted return value
    /// taints the call result.
    fn link_taint(&mut self, fid: FuncId, call: ValueId, target: FuncId, args: &[ValueId]) -> bool {
        let m = self.ctx.module;
        let callee = m.func(target);
        let mut changed = false;
        for (i, &a) in args.iter().enumerate() {
            if i >= callee.params.len() {
                break;
            }
            if self.is_tainted(fid, a) {
                changed |= self.taint(target, callee.arg(i));
            }
        }
        for bb in callee.block_ids() {
            if let Some(Inst::Ret { value: Some(rv) }) = callee.terminator(bb) {
                if self.is_tainted(target, *rv) {
                    changed |= self.taint(fid, call);
                }
            }
        }
        changed
    }
}

/// Resolve parameter `param` of `target` to a compile-time constant by
/// walking the calling-context chain outward from `depth`. The chain
/// element at `depth` must be a *direct* call to `target` (an indirect
/// site may bind other targets' argument lists, so it resolves
/// nothing). A `ConstInt` argument resolves immediately; an argument
/// that is itself the caller's parameter recurses one chain element
/// further out — this is what lets a k=2 chain see a constant threaded
/// through a wrapper that 1-CFA's single callsite cannot.
fn resolve_const_arg(
    m: &pythia_ir::Module,
    chain: &[(FuncId, ValueId)],
    depth: usize,
    target: FuncId,
    param: u32,
) -> Option<i64> {
    let &(caller, site) = chain.get(depth)?;
    let cf = m.func(caller);
    let Some(Inst::Call {
        callee: Callee::Func(t),
        args,
    }) = cf.inst(site)
    else {
        return None;
    };
    if *t != target {
        return None;
    }
    let &a = args.get(param as usize)?;
    match cf.value(a).kind {
        ValueKind::ConstInt(c) => Some(c),
        ValueKind::Arg(j) => resolve_const_arg(m, chain, depth + 1, caller, j),
        _ => None,
    }
}

/// Statically known size in bytes of abstract object `obj`: stack and
/// global objects per [`pythia_ir::layout`], heap sites whose allocation
/// size is a non-negative constant, and struct fields; `None` otherwise.
pub fn object_byte_size(ctx: &SliceContext<'_>, obj: ObjId) -> Option<u64> {
    let m = ctx.module;
    match ctx.points_to.obj_kind(obj) {
        MemObjectKind::Stack { func, value } => match m.func(func).inst(value) {
            Some(Inst::Alloca { elem, count }) => Some(object_size(elem, *count)),
            _ => None,
        },
        MemObjectKind::Global(g) => Some(object_size(&m.global(g).ty, 1)),
        MemObjectKind::Heap { func, value } => match m.func(func).inst(value) {
            Some(Inst::Call {
                callee: Callee::Intrinsic(i),
                args,
            }) => {
                let const_arg = |n: usize| match args.get(n).map(|a| &m.func(func).value(*a).kind) {
                    Some(ValueKind::ConstInt(v)) if *v >= 0 => Some(*v as u64),
                    _ => None,
                };
                match i {
                    Intrinsic::Malloc | Intrinsic::SecureMalloc | Intrinsic::Mmap => const_arg(0),
                    Intrinsic::Calloc => const_arg(0)?.checked_mul(const_arg(1)?),
                    _ => None,
                }
            }
            _ => None,
        },
        MemObjectKind::Field { size, .. } => Some(size),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pythia_ir::{FunctionBuilder, Module, Ty};

    /// `f() { low = alloca; buf = alloca[16]; high = alloca; gets(buf); }`
    /// — the overflow from `buf` reaches `buf` and `high` but not `low`
    /// (stack grows upward; `low` sits below the smashed buffer).
    #[test]
    fn stack_overflow_reaches_upward_only() {
        let mut m = Module::new("m");
        let mut b = FunctionBuilder::new("f", vec![], Ty::Void);
        let low = b.alloca(Ty::I64);
        let buf = b.alloca(Ty::array(Ty::I8, 16));
        let high = b.alloca(Ty::I64);
        b.call_intrinsic(Intrinsic::Gets, vec![buf], Ty::ptr(Ty::I8));
        b.ret(None);
        let fid = m.add_function(b.finish());
        let ctx = SliceContext::new(&m);
        let reach = OverflowReach::compute(&ctx);
        assert!(!reach.top);
        let pt = &ctx.points_to;
        let id = |value| {
            pt.obj_id(MemObjectKind::Stack { func: fid, value })
                .unwrap()
        };
        assert!(reach.is_reachable(pt, id(buf)));
        assert!(reach.is_reachable(pt, id(high)));
        assert!(
            !reach.is_reachable(pt, id(low)),
            "objects below the smashed buffer are out of reach"
        );
    }

    #[test]
    fn callee_frames_are_reachable_from_caller_buffer() {
        let mut m = Module::new("m");
        // leaf() { x = alloca; }
        let mut lb = FunctionBuilder::new("leaf", vec![Ty::ptr(Ty::I8)], Ty::Void);
        let x = lb.alloca(Ty::I64);
        let p = lb.func().arg(0);
        lb.call_intrinsic(Intrinsic::Gets, vec![p], Ty::ptr(Ty::I8));
        lb.ret(None);
        let leaf = m.add_function(lb.finish());
        // main() { buf = alloca[16]; leaf(buf); }
        let mut b = FunctionBuilder::new("main", vec![], Ty::Void);
        let buf = b.alloca(Ty::array(Ty::I8, 16));
        b.call(leaf, vec![buf], Ty::Void);
        b.ret(None);
        let main = m.add_function(b.finish());
        let ctx = SliceContext::new(&m);
        let reach = OverflowReach::compute(&ctx);
        let pt = &ctx.points_to;
        // The channel runs in `leaf` but smashes `main`'s buffer; `leaf`'s
        // own frame is live above, so its alloca is reachable.
        let buf_id = pt
            .obj_id(MemObjectKind::Stack {
                func: main,
                value: buf,
            })
            .unwrap();
        let x_id = pt
            .obj_id(MemObjectKind::Stack {
                func: leaf,
                value: x,
            })
            .unwrap();
        assert!(reach.is_reachable(pt, buf_id));
        assert!(reach.is_reachable(pt, x_id));
    }

    #[test]
    fn untouched_function_objects_are_unreachable() {
        let mut m = Module::new("m");
        // other() { secret = alloca; } — never called, no channels.
        let mut ob = FunctionBuilder::new("other", vec![], Ty::Void);
        let secret = ob.alloca(Ty::I64);
        ob.ret(None);
        let other = m.add_function(ob.finish());
        let mut b = FunctionBuilder::new("main", vec![], Ty::Void);
        let buf = b.alloca(Ty::array(Ty::I8, 16));
        b.call_intrinsic(Intrinsic::Gets, vec![buf], Ty::ptr(Ty::I8));
        b.ret(None);
        m.add_function(b.finish());
        let ctx = SliceContext::new(&m);
        let reach = OverflowReach::compute(&ctx);
        let pt = &ctx.points_to;
        let secret_id = pt
            .obj_id(MemObjectKind::Stack {
                func: other,
                value: secret,
            })
            .unwrap();
        assert!(!reach.top);
        assert!(!reach.is_reachable(pt, secret_id));
    }

    #[test]
    fn top_store_forces_everything_reachable() {
        let mut m = Module::new("m");
        let mut b = FunctionBuilder::new("f", vec![], Ty::Void);
        let secret = b.alloca(Ty::I64);
        let buf = b.alloca(Ty::array(Ty::I8, 8));
        b.call_intrinsic(Intrinsic::Gets, vec![buf], Ty::ptr(Ty::I8));
        let addr = b.const_i64(0x1234);
        let forged = b.cast(pythia_ir::CastKind::IntToPtr, addr, Ty::ptr(Ty::I64));
        let zero = b.const_i64(0);
        b.store(zero, forged);
        b.ret(None);
        let fid = m.add_function(b.finish());
        let ctx = SliceContext::new(&m);
        let reach = OverflowReach::compute(&ctx);
        assert!(reach.top);
        let pt = &ctx.points_to;
        let secret_id = pt
            .obj_id(MemObjectKind::Stack {
                func: fid,
                value: secret,
            })
            .unwrap();
        assert!(reach.is_reachable(pt, secret_id));
    }

    /// A tainted index that the interval analysis proves in-bounds must
    /// NOT widen the reachable set; an unproven one must.
    #[test]
    fn bounds_proof_suppresses_derived_overflow() {
        use pythia_ir::CmpPred;
        let build = |guarded: bool| {
            let mut m = Module::new("m");
            let mut b = FunctionBuilder::new("f", vec![], Ty::Void);
            let okbb = b.new_block("ok");
            let bad = b.new_block("bad");
            let table = b.alloca(Ty::array(Ty::I64, 8));
            // `above` sits above `table`: a table overflow reaches it.
            let above = b.alloca(Ty::I64);
            // `inbuf` is the frame's top alloca, so the channel overflow
            // seed reaches only itself — isolating the gep-store effect.
            let inbuf = b.alloca(Ty::array(Ty::I64, 4));
            b.call_intrinsic(Intrinsic::Gets, vec![inbuf], Ty::ptr(Ty::I8));
            let zero = b.const_i64(0);
            let eight = b.const_i64(8);
            let p0 = b.gep(inbuf, zero);
            let idx = b.load(p0); // tainted: read from the smashed buffer
            if guarded {
                let c1ok = b.new_block("c1ok");
                let c1 = b.icmp(CmpPred::Sge, idx, zero);
                b.br(c1, c1ok, bad);
                b.switch_to(c1ok);
                let c2 = b.icmp(CmpPred::Slt, idx, eight);
                b.br(c2, okbb, bad);
            } else {
                let c = b.icmp(CmpPred::Sge, idx, zero);
                b.br(c, okbb, bad);
            }
            b.switch_to(okbb);
            let p = b.gep(table, idx);
            b.store(zero, p);
            b.ret(None);
            b.switch_to(bad);
            b.ret(None);
            let fid = m.add_function(b.finish());
            (m, fid, above, inbuf)
        };

        let (m, fid, above, _inbuf) = build(true);
        let ctx = SliceContext::new(&m);
        let reach = OverflowReach::compute(&ctx);
        assert_eq!(reach.proven_gep_stores, 1);
        assert_eq!(reach.unproven_gep_stores, 0);
        let above_id = ctx
            .points_to
            .obj_id(MemObjectKind::Stack {
                func: fid,
                value: above,
            })
            .unwrap();
        assert!(
            !reach.is_reachable(&ctx.points_to, above_id),
            "proven-in-bounds store must not reach past the table"
        );

        let (m2, fid2, above2, _) = build(false);
        let ctx2 = SliceContext::new(&m2);
        let reach2 = OverflowReach::compute(&ctx2);
        assert_eq!(reach2.unproven_gep_stores, 1);
        let above2_id = ctx2
            .points_to
            .obj_id(MemObjectKind::Stack {
                func: fid2,
                value: above2,
            })
            .unwrap();
        assert!(
            reach2.is_reachable(&ctx2.points_to, above2_id),
            "unproven tainted index is a derived overflow source"
        );
    }
}
