//! Summary-based k-CFA points-to solving with flow-sensitive strong
//! updates — the context-sensitive layer over the insensitive relation
//! in [`crate::alias`].
//!
//! # Why summaries
//!
//! The solver gathers each function's context-agnostic constraint list
//! **once** (`LocalConstraint` in `alias.rs` — shared verbatim with the
//! insensitive builder, so the per-instruction semantics are identical
//! by construction) and *instantiates* it per context on demand: a
//! callsite composes the caller's facts with the callee's parameterized
//! summary instead of cloning the callee's constraint graph. Bottom-up
//! SCC order (from [`CallGraph::sccs`]) seeds the worklist so most
//! summaries converge in one pass; re-enqueue registries (object
//! readers, return watchers) make the fixpoint demand-driven rather than
//! global.
//!
//! # Context policies
//!
//! [`CtxPolicy`] selects the context abstraction:
//!
//! - `KCfa(k)`: call-string suffixes of length ≤ k, with callgraph-SCC
//!   collapse (an intra-SCC call inherits its caller's chain, which keeps
//!   the context set finite under recursion).
//! - `Insensitive`: no contexts; every query falls through to the base
//!   relation.
//!
//! Both share the sound fall-back contract: if the planned node space
//! exceeds [`CTX_NODE_BUDGET`], queries return `None` and callers use the
//! insensitive base relation (always a superset).
//!
//! # Strong updates
//!
//! A store through a pointer that *must* refer to a single, non-escaping
//! stack slot overwrites the whole cell, so earlier stores to that slot
//! whose values can never be observed again are dropped ("killed")
//! instead of accumulated. Kill eligibility is deliberately narrow (see
//! `strong_update_kills`): the slot must be a singleton must-alias
//! target (one abstract object, no field splits, count == 1), must not
//! escape (never stored to memory, passed to a call, returned, or seen
//! by another function), and every store to it must be through the
//! alloca's own value (a whole-cell must-overwrite, not a derived
//! pointer). The killed-store set is computed *before* solving from the
//! flow-insensitive base relation plus a [`ReachingStores`] liveness
//! walk, which keeps it solver-independent: the OPT-02 equivalence
//! check applies the same kills to both the summary worklist solve and
//! the direct reference solve, so equality is a statement about the
//! solving strategies, not the kill heuristic.

use crate::alias::{
    collect_address_taken, gather_function, LocalConstraint, MemObjectKind, ObjId, ObjSet,
    PointsTo,
};
use crate::callgraph::CallGraph;
use crate::reaching::ReachingStores;
use pythia_ir::{Callee, FuncId, Inst, Module, Ty, ValueId, ValueKind};
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet, VecDeque};
use std::str::FromStr;

/// Hard ceiling on the number of instantiated value nodes a context solve
/// may allocate. Past it, [`CtxSolve::analyze`] degrades to the
/// insensitive relation (always a sound superset), recorded in
/// [`CtxStats::fallback`].
pub const CTX_NODE_BUDGET: usize = 2_000_000;

/// Context abstraction of the layered points-to solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CtxPolicy {
    /// No contexts: the insensitive base relation only.
    Insensitive,
    /// Summary-based k-CFA: call-string suffixes of length ≤ k.
    KCfa(usize),
}

impl Default for CtxPolicy {
    /// Summary-based 2-CFA.
    fn default() -> Self {
        CtxPolicy::KCfa(2)
    }
}

impl CtxPolicy {
    /// The policies a run can select by name, in refinement order (each
    /// one's relation refines the one before it).
    pub const ALL: [CtxPolicy; 3] = [
        CtxPolicy::Insensitive,
        CtxPolicy::KCfa(1),
        CtxPolicy::KCfa(2),
    ];

    /// Canonical reporting name of the *requested* policy. Callers that
    /// fell back must report `"insensitive"` instead (see
    /// [`CtxSolve::policy_name`]).
    pub fn name(&self) -> &'static str {
        match self {
            CtxPolicy::Insensitive => "insensitive",
            CtxPolicy::KCfa(1) => "summary-1cfa",
            CtxPolicy::KCfa(2) => "summary-2cfa",
            CtxPolicy::KCfa(_) => "summary-kcfa",
        }
    }
}

impl FromStr for CtxPolicy {
    type Err = String;

    /// Parse one of the names in [`CtxPolicy::ALL`]; the error names the
    /// valid values.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        CtxPolicy::ALL
            .into_iter()
            .find(|p| p.name() == s)
            .ok_or_else(|| {
                let valid: Vec<&str> = CtxPolicy::ALL.iter().map(CtxPolicy::name).collect();
                format!(
                    "unknown context policy `{s}` (expected {})",
                    valid.join("|")
                )
            })
    }
}

/// A context chain of inter-SCC callsites `(caller, call value)`,
/// innermost first. The empty chain is the root (entry) context.
type Chain = Vec<(FuncId, ValueId)>;

/// The instantiation plan of a summary solve: which context chains each
/// function runs under, and where each `(function, chain)` instance
/// lives in the value-node space. Every member of a callgraph SCC
/// shares one chain list, so intra-SCC (recursive) calls inherit the
/// caller's context index directly.
#[derive(Debug, Clone)]
struct KPlan {
    k: usize,
    scc_of: Vec<usize>,
    /// Sorted context chains per function (shared across its SCC).
    chains: Vec<Vec<Chain>>,
    /// Node-space base of each `(function, chain)` instance.
    bases: Vec<Vec<u32>>,
    /// Total value nodes across all instances.
    total: usize,
}

/// Context chain created by following the call edge `(caller, site)`
/// from `caller_chain`: the site, then the caller's chain, cut at `k`.
fn extend_chain(
    k: usize,
    caller: FuncId,
    site: ValueId,
    caller_chain: &[(FuncId, ValueId)],
) -> Chain {
    let mut c = Vec::with_capacity(k);
    c.push((caller, site));
    c.extend(caller_chain.iter().take(k - 1).copied());
    c
}

impl KPlan {
    /// Build the plan, or `None` for the insensitive policy or when the
    /// instantiated node space would exceed `budget` (the caller then
    /// falls back to the insensitive relation). Chains propagate
    /// callers-first over the condensation DAG: [`CallGraph::sccs`]
    /// returns components callees-first (reverse topological), so
    /// iterating the list backwards visits every caller SCC before any
    /// of its callees, and each SCC's chain set is complete by the time
    /// it propagates outward.
    fn build(m: &Module, policy: CtxPolicy, budget: usize) -> Option<KPlan> {
        let k = match policy {
            CtxPolicy::KCfa(k) => k.max(1),
            CtxPolicy::Insensitive => return None,
        };
        let cg = CallGraph::build(m);
        let sccs = cg.sccs();
        let nf = m.functions().len();
        let mut scc_of = vec![0usize; nf];
        for (i, comp) in sccs.iter().enumerate() {
            for f in comp {
                scc_of[f.0 as usize] = i;
            }
        }
        // Inter-SCC call edges grouped by the caller's SCC. Indirect
        // calls resolve exactly like the constraint gatherer
        // (address-taken + arity match) so every Call edge the solver
        // follows has a chain to land in.
        let address_taken = collect_address_taken(m);
        let mut out_edges: Vec<Vec<(FuncId, ValueId, usize)>> = vec![Vec::new(); sccs.len()];
        for fid in m.func_ids() {
            let f = m.func(fid);
            for v in f.value_ids() {
                let ValueKind::Inst(Inst::Call { callee, args }) = &f.value(v).kind else {
                    continue;
                };
                let targets: Vec<FuncId> = match callee {
                    Callee::Func(t) => vec![*t],
                    Callee::Indirect(_) => address_taken
                        .iter()
                        .copied()
                        .filter(|t| m.func(*t).params.len() == args.len())
                        .collect(),
                    Callee::Intrinsic(_) => Vec::new(),
                };
                for t in targets {
                    let ts = scc_of[t.0 as usize];
                    if ts != scc_of[fid.0 as usize] {
                        out_edges[scc_of[fid.0 as usize]].push((fid, v, ts));
                    }
                }
            }
        }
        let mut chains_of_scc: Vec<BTreeSet<Chain>> = vec![BTreeSet::new(); sccs.len()];
        let mut running = 0usize;
        for si in (0..sccs.len()).rev() {
            if chains_of_scc[si].is_empty() {
                chains_of_scc[si].insert(Vec::new());
            }
            // Early bail-out on chain explosion before propagating further.
            let nchains = chains_of_scc[si].len();
            for f in &sccs[si] {
                running += nchains * m.func(*f).num_values();
                if running > budget {
                    return None;
                }
            }
            let caller_chains: Vec<Chain> = chains_of_scc[si].iter().cloned().collect();
            for &(caller, site, ts) in &out_edges[si] {
                debug_assert!(ts < si, "SCC order is not callees-first");
                for cc in &caller_chains {
                    let ext = extend_chain(k, caller, site, cc);
                    chains_of_scc[ts].insert(ext);
                }
            }
        }
        let mut chains = vec![Vec::new(); nf];
        let mut bases = vec![Vec::new(); nf];
        let mut total = 0usize;
        for fid in m.func_ids() {
            let f = m.func(fid);
            let cs: Vec<Chain> = chains_of_scc[scc_of[fid.0 as usize]].iter().cloned().collect();
            let mut b = Vec::with_capacity(cs.len());
            for _ in &cs {
                b.push(total as u32);
                total += f.num_values();
                if total > budget {
                    return None;
                }
            }
            chains[fid.0 as usize] = cs;
            bases[fid.0 as usize] = b;
        }
        Some(KPlan {
            k,
            scc_of,
            chains,
            bases,
            total,
        })
    }

    fn nctx(&self, f: FuncId) -> usize {
        self.chains[f.0 as usize].len()
    }

    fn node(&self, f: FuncId, ctx: usize, v: ValueId) -> usize {
        (self.bases[f.0 as usize][ctx] + v.0) as usize
    }

    /// Context index `target` runs under when context `ctx` of `f` calls
    /// it at `site`: the caller's own index for an intra-SCC (recursive)
    /// call — the shared chain list — and the extended chain's otherwise.
    fn callee_ctx(&self, f: FuncId, ctx: usize, site: ValueId, target: FuncId) -> usize {
        if self.scc_of[target.0 as usize] == self.scc_of[f.0 as usize] {
            return ctx;
        }
        let ext = extend_chain(self.k, f, site, &self.chains[f.0 as usize][ctx]);
        self.chain_index(target, &ext)
    }

    /// Index of `chain` in `f`'s sorted chain list. By construction
    /// every chain the solver extends was inserted during the build; a
    /// miss is a plan/solver divergence bug.
    fn chain_index(&self, f: FuncId, chain: &Chain) -> usize {
        self.chains[f.0 as usize]
            .binary_search(chain)
            .expect("context chain missing from k-CFA plan")
    }
}

/// Compute the flow-sensitive strong-update kill set: store instructions
/// whose written cell is provably re-stored before any possible read, so
/// the solver may drop them entirely. Returned sorted.
///
/// A store `(f, s)` is killed only when its target slot `o` satisfies
/// **all** of:
///
/// 1. **Singleton must-alias**: `o` is a count-1 stack alloca of pointer
///    element type, with no field splits or overlapping siblings — so a
///    direct store overwrites the entire cell.
/// 2. **No escape**: `o` is never stored into memory, never passed as a
///    call argument (intrinsics included), never returned, and appears
///    in no other function's points-to sets — so no store or load
///    outside the walked function body can touch the cell.
/// 3. **Direct stores only**: every store with `o` in its pointer's
///    points-to set uses the alloca's own value as the pointer — a
///    derived pointer (gep/field/phi) could write a strict sub-extent,
///    which would not be a whole-cell must-overwrite.
/// 4. **Dead on every path**: per [`ReachingStores`] plus an in-block
///    walk, no load that may read `o` (including ⊤-pointer loads)
///    observes the store's value on any path.
///
/// The set is derived purely from the flow-insensitive base relation,
/// so it is independent of the context policy and of the solving
/// strategy — both the summary worklist solve and the OPT-02 reference
/// solve apply the identical kills.
pub(crate) fn strong_update_kills(m: &Module, base: &PointsTo) -> Vec<(FuncId, ValueId)> {
    // Candidate slots: pointer-typed, unsplit, count-1 stack allocas.
    let mut owner: BTreeMap<ObjId, (FuncId, ValueId)> = BTreeMap::new();
    for (i, kind) in base.objects().iter().enumerate() {
        let o = i as ObjId;
        let MemObjectKind::Stack { func, value } = *kind else {
            continue;
        };
        let Some(Inst::Alloca { elem, count }) = m.func(func).inst(value) else {
            continue;
        };
        if *count > 1 || !matches!(elem, Ty::Ptr(_)) {
            continue;
        }
        if base.overlapping_objects(o).len() != 1 {
            continue;
        }
        owner.insert(o, (func, value));
    }
    if owner.is_empty() {
        return Vec::new();
    }

    // Escape analysis over the base relation.
    let mut dead: BTreeSet<ObjId> = BTreeSet::new();
    for o in 0..base.num_objects() as ObjId {
        for &o2 in &base.memory_points_to(o).objects {
            if owner.contains_key(&o2) {
                dead.insert(o2);
            }
        }
    }
    for fid in m.func_ids() {
        let f = m.func(fid);
        for v in f.value_ids() {
            let pts = base.points_to(fid, v);
            if !pts.objects.is_empty() {
                for &o in &pts.objects {
                    if let Some(&(of, _)) = owner.get(&o) {
                        if of != fid {
                            dead.insert(o);
                        }
                    }
                }
            }
            match &f.value(v).kind {
                ValueKind::Inst(Inst::Call { args, .. }) => {
                    for &a in args {
                        for &o in &base.points_to(fid, a).objects {
                            if owner.contains_key(&o) {
                                dead.insert(o);
                            }
                        }
                    }
                }
                ValueKind::Inst(Inst::Store { ptr, .. }) => {
                    for &o in &base.points_to(fid, *ptr).objects {
                        if let Some(&(of, oa)) = owner.get(&o) {
                            if of != fid || *ptr != oa {
                                dead.insert(o);
                            }
                        }
                    }
                }
                ValueKind::Inst(Inst::Ret { value: Some(rv) }) => {
                    for &o in &base.points_to(fid, *rv).objects {
                        if owner.contains_key(&o) {
                            dead.insert(o);
                        }
                    }
                }
                _ => {}
            }
        }
    }

    // Flow phase: a surviving slot's store is killed unless some load
    // that may read the slot observes it on any path.
    let mut killed: BTreeSet<(FuncId, ValueId)> = BTreeSet::new();
    let mut rs_cache: HashMap<FuncId, ReachingStores> = HashMap::new();
    for (&o, &(fid, a)) in owner.iter().filter(|(o, _)| !dead.contains(*o)) {
        let f = m.func(fid);
        let rs = rs_cache.entry(fid).or_insert_with(|| {
            ReachingStores::compute(f, |v| {
                let p = base.points_to(fid, v);
                if p.unknown {
                    // The solver's Store writes only concrete pointees; a
                    // ⊤ store defines nothing at the abstraction level.
                    Vec::new()
                } else {
                    p.objects.iter().copied().collect()
                }
            })
        });
        let mut live: HashSet<ValueId> = HashSet::new();
        let mut all_stores: Vec<ValueId> = Vec::new();
        for bb in f.block_ids() {
            let mut cur = rs.reaching(bb, o);
            for &iv in &f.block(bb).insts {
                match f.inst(iv) {
                    Some(Inst::Load { ptr }) => {
                        let p = base.points_to(fid, *ptr);
                        if p.unknown || p.objects.contains(&o) {
                            live.extend(cur.iter().copied());
                        }
                    }
                    Some(Inst::Store { ptr, .. }) if *ptr == a => {
                        all_stores.push(iv);
                        cur.clear();
                        cur.insert(iv);
                    }
                    _ => {}
                }
            }
        }
        for s in all_stores {
            if !live.contains(&s) {
                killed.insert((fid, s));
            }
        }
    }
    killed.into_iter().collect()
}

/// Gather every function's context-agnostic constraint list once.
fn gather_all(m: &Module, base: &PointsTo) -> Vec<Vec<LocalConstraint>> {
    let address_taken = collect_address_taken(m);
    m.func_ids()
        .map(|fid| gather_function(m, fid, base.precision(), &address_taken))
        .collect()
}

/// What one instance-processing pass changed, for re-enqueueing.
struct ProcessOut {
    /// Anything at all changed (drives the round-robin reference solve).
    any: bool,
    /// Memory objects whose pointee set grew (wake registered readers).
    touched: BTreeSet<ObjId>,
    /// Instances whose parameter nodes grew via a call edge.
    grew: BTreeSet<u32>,
    /// The instance's own return set grew since its last processing
    /// (wake registered return watchers).
    ret_grew: bool,
}

/// Shared state of one summary solve: the instantiated value-node space,
/// the global memory relation (in base object ids), and the demand
/// re-enqueue registries.
struct SolveState<'a> {
    m: &'a Module,
    base: &'a PointsTo,
    plan: &'a KPlan,
    locals: &'a [Vec<LocalConstraint>],
    killed: BTreeSet<(FuncId, ValueId)>,
    /// Per-instance value points-to sets (`plan.total` nodes), in the
    /// base relation's object ids.
    value_pts: Vec<ObjSet>,
    /// Memory pointee sets per base object (context-insensitive heap
    /// abstraction).
    mem: Vec<ObjSet>,
    /// Flat instance index → `(function, ctx)`.
    inst_of: Vec<(FuncId, usize)>,
    /// First flat instance index per function.
    inst_base: Vec<u32>,
    /// Instances that loaded through each object (woken when the
    /// object's memory set grows).
    obj_readers: Vec<BTreeSet<u32>>,
    /// Caller instances watching each instance's return set.
    ret_watchers: Vec<BTreeSet<u32>>,
    /// Returned value ids per function.
    ret_vals: Vec<Vec<ValueId>>,
    /// Last observed `(len, unknown)` of each instance's return nodes,
    /// persisted across processings so growth via a caller-pushed
    /// parameter node (an identity function returning its argument) is
    /// still detected and propagated to the other callers.
    ret_seen: Vec<Vec<(usize, bool)>>,
}

impl<'a> SolveState<'a> {
    fn new(
        m: &'a Module,
        base: &'a PointsTo,
        plan: &'a KPlan,
        locals: &'a [Vec<LocalConstraint>],
        killed: BTreeSet<(FuncId, ValueId)>,
    ) -> Self {
        let nf = m.functions().len();
        let mut inst_of = Vec::new();
        let mut inst_base = vec![0u32; nf];
        for fid in m.func_ids() {
            inst_base[fid.0 as usize] = inst_of.len() as u32;
            for ctx in 0..plan.nctx(fid) {
                inst_of.push((fid, ctx));
            }
        }
        let mut ret_vals = vec![Vec::new(); nf];
        for fid in m.func_ids() {
            let f = m.func(fid);
            for bb in f.block_ids() {
                if let Some(Inst::Ret { value: Some(rv) }) = f.terminator(bb) {
                    ret_vals[fid.0 as usize].push(*rv);
                }
            }
        }
        let ret_seen = inst_of
            .iter()
            .map(|&(fid, _)| vec![(0usize, false); ret_vals[fid.0 as usize].len()])
            .collect();
        let ninst = inst_of.len();
        SolveState {
            m,
            base,
            plan,
            locals,
            killed,
            value_pts: vec![ObjSet::default(); plan.total],
            mem: vec![ObjSet::default(); base.num_objects()],
            inst_of,
            inst_base,
            obj_readers: vec![BTreeSet::new(); base.num_objects()],
            ret_watchers: vec![BTreeSet::new(); ninst],
            ret_vals,
            ret_seen,
        }
    }

    fn instance(&self, f: FuncId, ctx: usize) -> u32 {
        self.inst_base[f.0 as usize] + ctx as u32
    }

    /// Run `(fid, ctx)`'s constraint list to a local fixpoint,
    /// composing callee summaries at call edges.
    fn process(&mut self, ii: u32) -> ProcessOut {
        let (fid, ctx) = self.inst_of[ii as usize];
        // Copy the long-lived shared refs out so the loop below can
        // borrow `self` mutably.
        let m = self.m;
        let base = self.base;
        let plan = self.plan;
        let locals = self.locals;
        let lcs: &'a [LocalConstraint] = &locals[fid.0 as usize];
        let mut out = ProcessOut {
            any: false,
            touched: BTreeSet::new(),
            grew: BTreeSet::new(),
            ret_grew: false,
        };
        loop {
            let mut changed = false;
            for lc in lcs {
                match lc {
                    LocalConstraint::Copy { src, dst } => {
                        let (s, d) = (plan.node(fid, ctx, *src), plan.node(fid, ctx, *dst));
                        if s != d && merge_nodes(&mut self.value_pts, s, d) {
                            changed = true;
                        }
                    }
                    LocalConstraint::Load { ptr, dst } => {
                        let p = plan.node(fid, ctx, *ptr);
                        let d = plan.node(fid, ctx, *dst);
                        let objs: Vec<ObjId> =
                            self.value_pts[p].objects.iter().copied().collect();
                        let ptr_unknown = self.value_pts[p].unknown;
                        for o in objs {
                            for o2 in base.overlapping_objects(o) {
                                // Register as a reader *before* the read so
                                // any later growth of mem(o2) wakes us.
                                self.obj_readers[o2 as usize].insert(ii);
                                let mem = self.mem[o2 as usize].clone();
                                if self.value_pts[d].merge(&mem) {
                                    changed = true;
                                }
                            }
                        }
                        if ptr_unknown && !self.value_pts[d].unknown {
                            self.value_pts[d].unknown = true;
                            changed = true;
                        }
                    }
                    LocalConstraint::Store { inst, ptr, src } => {
                        if self.killed.contains(&(fid, *inst)) {
                            continue; // strong update: a later store must overwrite
                        }
                        let p = plan.node(fid, ctx, *ptr);
                        let s = plan.node(fid, ctx, *src);
                        let objs: Vec<ObjId> =
                            self.value_pts[p].objects.iter().copied().collect();
                        let val = self.value_pts[s].clone();
                        for o in objs {
                            if self.mem[o as usize].merge(&val) {
                                changed = true;
                                out.touched.insert(o);
                            }
                        }
                    }
                    LocalConstraint::FieldOf { base: b, dst, field } => {
                        let bn = plan.node(fid, ctx, *b);
                        let d = plan.node(fid, ctx, *dst);
                        let objs: Vec<ObjId> =
                            self.value_pts[bn].objects.iter().copied().collect();
                        let base_unknown = self.value_pts[bn].unknown;
                        for o in objs {
                            let target = base.resolve_field(o, *field).unwrap_or(o);
                            if self.value_pts[d].objects.insert(target) {
                                changed = true;
                            }
                        }
                        if base_unknown && !self.value_pts[d].unknown {
                            self.value_pts[d].unknown = true;
                            changed = true;
                        }
                    }
                    LocalConstraint::Seed { dst, kind, .. } => {
                        let o = base
                            .obj_id(*kind)
                            .expect("summary seed object missing from base relation");
                        let d = plan.node(fid, ctx, *dst);
                        if self.value_pts[d].objects.insert(o) {
                            changed = true;
                        }
                    }
                    LocalConstraint::SeedUnknown { dst } => {
                        let d = plan.node(fid, ctx, *dst);
                        if !self.value_pts[d].unknown {
                            self.value_pts[d].unknown = true;
                            changed = true;
                        }
                    }
                    LocalConstraint::Call { site, target, args } => {
                        let tctx = plan.callee_ctx(fid, ctx, *site, *target);
                        let ti = self.instance(*target, tctx);
                        let tf = m.func(*target);
                        for (i, &a) in args.iter().enumerate() {
                            if i >= tf.params.len() {
                                break;
                            }
                            let s = plan.node(fid, ctx, a);
                            let d = plan.node(*target, tctx, tf.arg(i));
                            if s != d && merge_nodes(&mut self.value_pts, s, d) {
                                changed = true;
                                out.grew.insert(ti);
                            }
                        }
                        // Pull the callee's current return facts and watch
                        // for later growth.
                        self.ret_watchers[ti as usize].insert(ii);
                        let d = plan.node(fid, ctx, *site);
                        for rvi in 0..self.ret_vals[target.0 as usize].len() {
                            let rv = self.ret_vals[target.0 as usize][rvi];
                            let s = plan.node(*target, tctx, rv);
                            if s != d && merge_nodes(&mut self.value_pts, s, d) {
                                changed = true;
                            }
                        }
                    }
                }
            }
            if changed {
                out.any = true;
            } else {
                break;
            }
        }
        // Return-set growth since the last processing (however it got
        // there — local constraints or caller-pushed parameter nodes).
        for rvi in 0..self.ret_vals[fid.0 as usize].len() {
            let rv = self.ret_vals[fid.0 as usize][rvi];
            let s = &self.value_pts[self.plan.node(fid, ctx, rv)];
            let now = (s.objects.len(), s.unknown);
            if now != self.ret_seen[ii as usize][rvi] {
                self.ret_seen[ii as usize][rvi] = now;
                out.ret_grew = true;
                out.any = true;
            }
        }
        out
    }

    /// Demand-driven fixpoint: seed every instance callers-first (so
    /// parameter facts flow down in one sweep), then re-process only
    /// instances woken by memory growth, parameter growth, or return
    /// growth. The constraint system is monotone, so the worklist
    /// schedule reaches the same least fixpoint as any other order.
    fn run_worklist(&mut self) {
        let ninst = self.inst_of.len();
        let mut queue: VecDeque<u32> = VecDeque::with_capacity(ninst);
        let mut in_queue = vec![false; ninst];
        let cg = CallGraph::build(self.m);
        for scc in cg.sccs().iter().rev() {
            for &f in scc {
                for ctx in 0..self.plan.nctx(f) {
                    let ii = self.instance(f, ctx);
                    queue.push_back(ii);
                    in_queue[ii as usize] = true;
                }
            }
        }
        while let Some(ii) = queue.pop_front() {
            in_queue[ii as usize] = false;
            let out = self.process(ii);
            let mut wake: BTreeSet<u32> = BTreeSet::new();
            for o in &out.touched {
                wake.extend(self.obj_readers[*o as usize].iter().copied());
            }
            wake.extend(out.grew.iter().copied());
            if out.ret_grew {
                wake.extend(self.ret_watchers[ii as usize].iter().copied());
            }
            for w in wake {
                if !in_queue[w as usize] {
                    in_queue[w as usize] = true;
                    queue.push_back(w);
                }
            }
        }
    }

    /// Direct per-context reference solve: round-robin over every
    /// instance until nothing changes anywhere. No wake-up machinery to
    /// get wrong — the OPT-02 oracle the worklist solve is checked
    /// against.
    fn run_round_robin(&mut self) {
        let ninst = self.inst_of.len() as u32;
        loop {
            let mut any = false;
            for ii in 0..ninst {
                if self.process(ii).any {
                    any = true;
                }
            }
            if !any {
                break;
            }
        }
    }
}

/// `dst ⊇ src` over a flat node slab; returns whether `dst` changed.
fn merge_nodes(v: &mut [ObjSet], src: usize, dst: usize) -> bool {
    debug_assert_ne!(src, dst);
    let (s, d) = if src < dst {
        let (lo, hi) = v.split_at_mut(dst);
        (&lo[src], &mut hi[0])
    } else {
        let (lo, hi) = v.split_at_mut(src);
        (&hi[0], &mut lo[dst])
    };
    d.merge(s)
}

#[derive(Debug, Clone)]
struct SummaryData {
    plan: KPlan,
    value_pts: Vec<ObjSet>,
}

/// Headline counters of a [`CtxSolve`], surfaced per benchmark in
/// BENCH_suite.json / profile.md.
#[derive(Debug, Clone, Copy, Default)]
pub struct CtxStats {
    /// Total calling contexts across all functions (one per function when
    /// the solve fell back).
    pub contexts: usize,
    /// Total instantiated value nodes the contexts cost (0 on fallback).
    pub cloned_nodes: usize,
    /// Whether the solve used the insensitive relation: requested, or
    /// forced by the node budget.
    pub fallback: bool,
}

/// Summary-based context-sensitive points-to relation layered over the
/// insensitive base [`PointsTo`]. Speaks the base relation's [`ObjId`]s
/// directly (object identities come from the base via
/// `obj_id`/`resolve_field`), so clients can mix per-context value sets
/// with base object metadata. On fallback the queries return `None` and
/// callers must use the base relation, which is always a sound superset;
/// a fallen-back solve labels itself `"insensitive"` whatever was
/// requested.
#[derive(Debug, Clone)]
pub struct CtxSolve {
    data: Option<SummaryData>,
    requested: CtxPolicy,
    stats: CtxStats,
    summaries: usize,
    summary_reuse: usize,
    strong_updates: usize,
}

impl CtxSolve {
    /// Solve `m` under `policy` within [`CTX_NODE_BUDGET`] value nodes.
    /// `base` must be the field-sensitive relation of the same module.
    pub fn analyze(m: &Module, base: &PointsTo, policy: CtxPolicy) -> Self {
        Self::analyze_with_budget(m, base, policy, CTX_NODE_BUDGET)
    }

    /// [`Self::analyze`] within an explicit node budget.
    pub(crate) fn analyze_with_budget(
        m: &Module,
        base: &PointsTo,
        policy: CtxPolicy,
        budget: usize,
    ) -> Self {
        let Some(plan) = KPlan::build(m, policy, budget) else {
            return CtxSolve {
                data: None,
                requested: policy,
                stats: CtxStats {
                    contexts: m.functions().len(),
                    cloned_nodes: 0,
                    fallback: true,
                },
                summaries: 0,
                summary_reuse: 0,
                strong_updates: 0,
            };
        };
        let locals = gather_all(m, base);
        let killed: BTreeSet<(FuncId, ValueId)> =
            strong_update_kills(m, base).into_iter().collect();
        let strong_updates = killed.len();
        let mut st = SolveState::new(m, base, &plan, &locals, killed);
        st.run_worklist();
        // Composition-reuse accounting: every call-edge instantiation
        // binds a target summary instance; each binding beyond an
        // instance's first is a summary a cloning solver would have
        // re-cloned.
        let mut edges = 0usize;
        let mut bound: BTreeSet<u32> = BTreeSet::new();
        for fid in m.func_ids() {
            for ctx in 0..plan.nctx(fid) {
                for lc in &locals[fid.0 as usize] {
                    if let LocalConstraint::Call { site, target, .. } = lc {
                        edges += 1;
                        let tctx = plan.callee_ctx(fid, ctx, *site, *target);
                        bound.insert(st.instance(*target, tctx));
                    }
                }
            }
        }
        let value_pts = std::mem::take(&mut st.value_pts);
        drop(st);
        let stats = CtxStats {
            contexts: plan.chains.iter().map(Vec::len).sum(),
            cloned_nodes: plan.total,
            fallback: false,
        };
        CtxSolve {
            summaries: m.functions().len(),
            summary_reuse: edges.saturating_sub(bound.len()),
            strong_updates,
            data: Some(SummaryData { plan, value_pts }),
            requested: policy,
            stats,
        }
    }

    /// The reporting label of this solve: the requested policy's name,
    /// except a fallen-back run always reports `"insensitive"` so trend
    /// lines never compare mislabeled rows.
    pub fn policy_name(&self) -> &'static str {
        if self.is_fallback() {
            return "insensitive";
        }
        self.requested.name()
    }

    /// Whether the solve degraded to the insensitive relation.
    pub fn is_fallback(&self) -> bool {
        self.data.is_none()
    }

    /// Solver counters for profiling surfaces.
    pub fn stats(&self) -> CtxStats {
        self.stats
    }

    /// Distinct per-function summaries gathered (0 on fallback).
    pub fn summaries(&self) -> usize {
        self.summaries
    }

    /// Call-edge instantiations served by an already-instantiated
    /// summary instead of a fresh constraint-graph clone.
    pub fn summary_reuse(&self) -> usize {
        self.summary_reuse
    }

    /// Store instructions dropped by flow-sensitive strong updates.
    pub fn strong_updates(&self) -> usize {
        self.strong_updates
    }

    /// Number of calling contexts of `f` (1 on fallback).
    pub fn num_contexts_of(&self, f: FuncId) -> usize {
        self.data.as_ref().map_or(1, |d| d.plan.nctx(f))
    }

    /// Points-to set of `v` in context `ctx` of `f`, in base object ids.
    /// `None` when the solve fell back.
    pub fn points_to_in(&self, f: FuncId, ctx: usize, v: ValueId) -> Option<&ObjSet> {
        let d = self.data.as_ref()?;
        Some(&d.value_pts[d.plan.node(f, ctx, v)])
    }

    /// The callsite chain `(caller, call value)` of context `ctx` of `f`,
    /// innermost first. Empty for the root context or on fallback.
    pub fn ctx_chain(&self, f: FuncId, ctx: usize) -> &[(FuncId, ValueId)] {
        self.data
            .as_ref()
            .map_or(&[], |d| &d.plan.chains[f.0 as usize][ctx])
    }

    /// Union of `v`'s sets over every context of `f` — the context-
    /// insensitive projection. Must be ⊆ the base relation's set.
    pub fn projected(&self, f: FuncId, v: ValueId) -> Option<ObjSet> {
        let d = self.data.as_ref()?;
        let mut out = ObjSet::default();
        for ctx in 0..d.plan.nctx(f) {
            out.merge(&d.value_pts[d.plan.node(f, ctx, v)]);
        }
        Some(out)
    }
}

/// OPT-02 witness: solve `m` twice under the same plan and kill set —
/// once with the demand-driven summary worklist, once with the direct
/// per-context round-robin reference — and compare every value node and
/// memory cell. `Some(true)` means the composed summaries equal the
/// direct solve; `None` means the module is not summary-solvable at
/// this policy/budget (the insensitive policy, or the plan exceeds the
/// budget) and the check does not apply.
///
/// `mutation` seeds a deliberate fault for meta-testing the check
/// itself: `Some(n)` exempts the n-th (mod count) killed store from the
/// *worklist* side only, so a module where that kill matters must come
/// back `Some(false)`.
pub fn opt02_equivalence(
    m: &Module,
    base: &PointsTo,
    policy: CtxPolicy,
    budget: usize,
    mutation: Option<usize>,
) -> Option<bool> {
    let plan = KPlan::build(m, policy, budget)?;
    let locals = gather_all(m, base);
    let killed = strong_update_kills(m, base);
    let full: BTreeSet<(FuncId, ValueId)> = killed.iter().copied().collect();
    let mut mutated = full.clone();
    if let Some(n) = mutation {
        if !killed.is_empty() {
            mutated.remove(&killed[n % killed.len()]);
        }
    }
    let mut wl = SolveState::new(m, base, &plan, &locals, mutated);
    wl.run_worklist();
    let mut rr = SolveState::new(m, base, &plan, &locals, full);
    rr.run_round_robin();
    Some(wl.value_pts == rr.value_pts && wl.mem == rr.mem)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pythia_ir::{FunctionBuilder, Module, Ty};

    /// h(p) returns p; w(p) returns h(p); f1 and f2 each pass their own
    /// alloca through w. 1-CFA gives h a single context (the one
    /// callsite inside w) and conflates the two allocas; k=2 keeps the
    /// [w-site, f1/f2-site] chains apart.
    fn nested_helper_module() -> (Module, FuncId, FuncId, ValueId, ValueId, ValueId, ValueId) {
        let mut m = Module::new("m");
        let h_fid = FuncId(0);
        let w_fid = FuncId(1);
        let f1_fid = FuncId(2);
        let f2_fid = FuncId(3);

        let mut h = FunctionBuilder::new("h", vec![Ty::ptr(Ty::I64)], Ty::ptr(Ty::I64));
        let hp = h.func().arg(0);
        h.ret(Some(hp));
        assert_eq!(m.add_function(h.finish()), h_fid);

        let mut w = FunctionBuilder::new("w", vec![Ty::ptr(Ty::I64)], Ty::ptr(Ty::I64));
        let wp = w.func().arg(0);
        let wr = w.call(h_fid, vec![wp], Ty::ptr(Ty::I64));
        w.ret(Some(wr));
        assert_eq!(m.add_function(w.finish()), w_fid);

        let mut f1 = FunctionBuilder::new("f1", vec![], Ty::Void);
        let a1 = f1.alloca(Ty::I64);
        let r1 = f1.call(w_fid, vec![a1], Ty::ptr(Ty::I64));
        f1.ret(None);
        assert_eq!(m.add_function(f1.finish()), f1_fid);

        let mut f2 = FunctionBuilder::new("f2", vec![], Ty::Void);
        let a2 = f2.alloca(Ty::I64);
        let r2 = f2.call(w_fid, vec![a2], Ty::ptr(Ty::I64));
        f2.ret(None);
        assert_eq!(m.add_function(f2.finish()), f2_fid);

        (m, f1_fid, f2_fid, a1, r1, a2, r2)
    }

    #[test]
    fn k2_separates_what_1cfa_conflates() {
        let (m, f1, f2, a1, r1, a2, r2) = nested_helper_module();
        let base = PointsTo::analyze(&m);
        let o1 = *base.points_to(f1, a1).objects.iter().next().unwrap();
        let o2 = *base.points_to(f2, a2).objects.iter().next().unwrap();
        assert_ne!(o1, o2);

        // 1-CFA conflates: h has one context, so the return value mixes
        // both allocas.
        let c1 = CtxSolve::analyze(&m, &base, CtxPolicy::KCfa(1));
        assert!(!c1.is_fallback());
        let p1 = c1.projected(f1, r1).unwrap();
        assert!(p1.objects.contains(&o1) && p1.objects.contains(&o2));

        // Summary k=2 keeps the chains apart.
        let s = CtxSolve::analyze(&m, &base, CtxPolicy::KCfa(2));
        assert!(!s.is_fallback());
        let p1 = s.projected(f1, r1).unwrap();
        assert_eq!(
            p1.objects.iter().copied().collect::<Vec<_>>(),
            vec![o1],
            "k=2 must see only f1's alloca through the nested helper"
        );
        let p2 = s.projected(f2, r2).unwrap();
        assert_eq!(p2.objects.iter().copied().collect::<Vec<_>>(), vec![o2]);
        assert!(s.strong_updates() == 0);
        assert!(s.summaries() == 4);
    }

    #[test]
    fn per_context_subsets_projection_subsets_base() {
        let (m, ..) = nested_helper_module();
        let base = PointsTo::analyze(&m);
        let s = CtxSolve::analyze(&m, &base, CtxPolicy::KCfa(2));
        for fid in m.func_ids() {
            for v in m.func(fid).value_ids() {
                let proj = s.projected(fid, v).unwrap();
                let b = base.points_to(fid, v);
                assert!(
                    proj.objects.is_subset(&b.objects) && (!proj.unknown || b.unknown),
                    "projection must refine the base relation"
                );
                for ctx in 0..s.num_contexts_of(fid) {
                    let per = s.points_to_in(fid, ctx, v).unwrap();
                    assert!(per.objects.is_subset(&proj.objects));
                }
            }
        }
    }

    #[test]
    fn recursive_scc_collapses_and_terminates() {
        let mut m = Module::new("m");
        let rec_fid = FuncId(0);
        let top_fid = FuncId(1);
        let mut rec = FunctionBuilder::new("rec", vec![Ty::ptr(Ty::I64)], Ty::ptr(Ty::I64));
        let rp = rec.func().arg(0);
        let rr = rec.call(rec_fid, vec![rp], Ty::ptr(Ty::I64));
        let _ = rr;
        rec.ret(Some(rp));
        assert_eq!(m.add_function(rec.finish()), rec_fid);
        let mut top = FunctionBuilder::new("top", vec![], Ty::Void);
        let a = top.alloca(Ty::I64);
        let r = top.call(rec_fid, vec![a], Ty::ptr(Ty::I64));
        top.ret(None);
        assert_eq!(m.add_function(top.finish()), top_fid);

        let base = PointsTo::analyze(&m);
        let s = CtxSolve::analyze(&m, &base, CtxPolicy::KCfa(3));
        assert!(!s.is_fallback());
        // The self-recursive SCC collapses: one context per caller chain,
        // not one per unrolling depth.
        assert_eq!(s.num_contexts_of(rec_fid), 1);
        let o = *base.points_to(top_fid, a).objects.iter().next().unwrap();
        assert!(s.projected(top_fid, r).unwrap().objects.contains(&o));
    }

    /// `pp = alloca ptr; store a→pp; store d→pp; q = load pp`: the
    /// first store is provably dead, so the summary relation drops the
    /// stale pointee while the flow-insensitive base keeps both.
    fn restore_module() -> (Module, FuncId, ValueId, ValueId, ValueId, ValueId) {
        let mut m = Module::new("m");
        let fid = FuncId(0);
        let mut b = FunctionBuilder::new("f", vec![], Ty::Void);
        let a = b.alloca(Ty::I64);
        let d = b.alloca(Ty::I64);
        let pp = b.alloca(Ty::ptr(Ty::I64));
        b.store(a, pp);
        b.store(d, pp);
        let q = b.load(pp);
        let _sink = b.load(q);
        b.ret(None);
        assert_eq!(m.add_function(b.finish()), fid);
        (m, fid, a, d, pp, q)
    }

    #[test]
    fn strong_update_drops_stale_pointee() {
        let (m, fid, a, d, _pp, q) = restore_module();
        let base = PointsTo::analyze(&m);
        let oa = *base.points_to(fid, a).objects.iter().next().unwrap();
        let od = *base.points_to(fid, d).objects.iter().next().unwrap();
        // Flow-insensitive: both stores accumulate.
        let bq = base.points_to(fid, q);
        assert!(bq.objects.contains(&oa) && bq.objects.contains(&od));

        let kills = strong_update_kills(&m, &base);
        assert_eq!(kills.len(), 1, "exactly the first store is dead");

        let s = CtxSolve::analyze(&m, &base, CtxPolicy::KCfa(2));
        assert_eq!(s.strong_updates(), 1);
        let sq = s.projected(fid, q).unwrap();
        assert!(
            !sq.objects.contains(&oa) && sq.objects.contains(&od),
            "the killed store's pointee must be gone: {sq:?}"
        );
    }

    #[test]
    fn escape_blocks_strong_update() {
        // Same shape, but the slot's address is passed to a call — the
        // callee may read between the two stores, so no kill.
        let mut m = Module::new("m");
        let sink_fid = FuncId(0);
        let f_fid = FuncId(1);
        let mut sink = FunctionBuilder::new("sink", vec![Ty::ptr(Ty::ptr(Ty::I64))], Ty::Void);
        sink.ret(None);
        assert_eq!(m.add_function(sink.finish()), sink_fid);
        let mut b = FunctionBuilder::new("f", vec![], Ty::Void);
        let a = b.alloca(Ty::I64);
        let d = b.alloca(Ty::I64);
        let pp = b.alloca(Ty::ptr(Ty::I64));
        b.store(a, pp);
        b.call(sink_fid, vec![pp], Ty::Void);
        b.store(d, pp);
        let _q = b.load(pp);
        b.ret(None);
        assert_eq!(m.add_function(b.finish()), f_fid);
        let base = PointsTo::analyze(&m);
        assert!(strong_update_kills(&m, &base).is_empty());
    }

    #[test]
    fn derived_pointer_store_blocks_strong_update() {
        // A store through a gep-derived view of the slot is not a
        // whole-cell must-overwrite — no kill.
        let mut m = Module::new("m");
        let fid = FuncId(0);
        let mut b = FunctionBuilder::new("f", vec![], Ty::Void);
        let a = b.alloca(Ty::I64);
        let d = b.alloca(Ty::I64);
        let pp = b.alloca(Ty::ptr(Ty::I64));
        b.store(a, pp);
        let zero = b.const_int(Ty::I64, 0);
        let der = b.gep(pp, zero);
        b.store(d, der);
        let _q = b.load(pp);
        b.ret(None);
        assert_eq!(m.add_function(b.finish()), fid);
        let base = PointsTo::analyze(&m);
        assert!(strong_update_kills(&m, &base).is_empty());
    }

    #[test]
    fn opt02_equal_and_mutation_caught() {
        let (m, ..) = restore_module();
        let base = PointsTo::analyze(&m);
        assert_eq!(
            opt02_equivalence(&m, &base, CtxPolicy::KCfa(2), CTX_NODE_BUDGET, None),
            Some(true),
            "worklist and direct per-context solve must agree"
        );
        assert_eq!(
            opt02_equivalence(&m, &base, CtxPolicy::KCfa(2), CTX_NODE_BUDGET, Some(0)),
            Some(false),
            "a skipped summary kill must be caught"
        );
        // The insensitive policy has no contexts: the check does not apply.
        assert_eq!(
            opt02_equivalence(&m, &base, CtxPolicy::Insensitive, CTX_NODE_BUDGET, None),
            None
        );
    }

    #[test]
    fn opt02_equal_on_nested_helper() {
        let (m, ..) = nested_helper_module();
        let base = PointsTo::analyze(&m);
        for k in [1, 2] {
            assert_eq!(
                opt02_equivalence(&m, &base, CtxPolicy::KCfa(k), CTX_NODE_BUDGET, None),
                Some(true)
            );
        }
    }

    #[test]
    fn budget_exhaustion_reports_insensitive() {
        let (m, ..) = nested_helper_module();
        let base = PointsTo::analyze(&m);
        for k in [1, 2] {
            let s = CtxSolve::analyze_with_budget(&m, &base, CtxPolicy::KCfa(k), 1);
            assert!(s.is_fallback() && s.stats().fallback);
            assert_eq!(s.policy_name(), "insensitive");
            let h = FuncId(0);
            let hp = m.func(h).arg(0);
            assert_eq!(s.num_contexts_of(h), 1);
            assert!(s.points_to_in(h, 0, hp).is_none());
            assert!(s.projected(h, hp).is_none());
            assert!(s.ctx_chain(h, 0).is_empty());
        }
        // At full budget the same request reports its own name.
        let s = CtxSolve::analyze(&m, &base, CtxPolicy::KCfa(2));
        assert_eq!(s.policy_name(), "summary-2cfa");
        assert!(!s.is_fallback());
    }

    #[test]
    fn summary_reuse_counts_shared_instances() {
        // Two callers share w's instantiations only at equal chains; with
        // k=2 every chain is distinct, so reuse is 0 here — but under
        // k=1 the two f1/f2→w edges produce distinct chains while the
        // two w→h instantiations collapse onto one.
        let (m, ..) = nested_helper_module();
        let base = PointsTo::analyze(&m);
        let s1 = CtxSolve::analyze(&m, &base, CtxPolicy::KCfa(1));
        assert!(s1.summary_reuse() >= 1, "w→h composes one shared summary");
    }

    #[test]
    fn ctx_chain_reports_nested_sites() {
        let (m, ..) = nested_helper_module();
        let base = PointsTo::analyze(&m);
        let s = CtxSolve::analyze(&m, &base, CtxPolicy::KCfa(2));
        let h = FuncId(0);
        let n = s.num_contexts_of(h);
        assert_eq!(n, 2, "two k=2 chains into h");
        let mut sites: Vec<usize> = (0..n).map(|c| s.ctx_chain(h, c).len()).collect();
        sites.sort_unstable();
        assert_eq!(sites, vec![2, 2], "each chain carries both callsites");
    }

    #[test]
    fn policy_names_round_trip() {
        for p in CtxPolicy::ALL {
            assert_eq!(p.name().parse::<CtxPolicy>(), Ok(p));
        }
        for bad in ["objsens", "1cfa", "2cfa", "bogus", ""] {
            let err = bad.parse::<CtxPolicy>().unwrap_err();
            assert!(err.contains("insensitive|summary-1cfa|summary-2cfa"), "{err}");
        }
    }

    /// callee `id(p) = p` called from two sites with distinct allocas.
    fn two_caller_module() -> (Module, FuncId, FuncId, ValueId, ValueId, ValueId, ValueId) {
        let mut m = Module::new("m");
        let mut cb = FunctionBuilder::new("id", vec![Ty::ptr(Ty::I64)], Ty::ptr(Ty::I64));
        let p = cb.func().arg(0);
        cb.ret(Some(p));
        let id = m.add_function(cb.finish());
        let mut b = FunctionBuilder::new("caller", vec![], Ty::Void);
        let x = b.alloca(Ty::I64);
        let y = b.alloca(Ty::I64);
        let rx = b.call(id, vec![x], Ty::ptr(Ty::I64));
        let ry = b.call(id, vec![y], Ty::ptr(Ty::I64));
        b.ret(None);
        let caller = m.add_function(b.finish());
        (m, id, caller, x, y, rx, ry)
    }

    #[test]
    fn one_cfa_splits_params_per_callsite() {
        let (m, id, caller, x, y, rx, ry) = two_caller_module();
        let base = PointsTo::analyze(&m);
        let ctx = CtxSolve::analyze(&m, &base, CtxPolicy::KCfa(1));
        assert!(!ctx.is_fallback());
        let pf = m.func(id).arg(0);
        // Insensitive: one summary conflates both callers' allocas.
        assert_eq!(base.points_to(id, pf).objects.len(), 2);
        assert_eq!(base.points_to(caller, rx).objects.len(), 2);
        // 1-CFA: one context per callsite, each seeing only its argument.
        assert_eq!(ctx.num_contexts_of(id), 2);
        let xo = *base.points_to(caller, x).objects.iter().next().unwrap();
        let yo = *base.points_to(caller, y).objects.iter().next().unwrap();
        for ci in 0..2 {
            let &[(cf, site)] = ctx.ctx_chain(id, ci) else {
                panic!("1-CFA context must carry exactly one callsite");
            };
            assert_eq!(cf, caller);
            assert!(site == rx || site == ry);
            let pts = ctx.points_to_in(id, ci, pf).unwrap();
            let want = if site == rx { xo } else { yo };
            assert_eq!(pts.objects.iter().copied().collect::<Vec<_>>(), vec![want]);
        }
        // The call results in the caller's (root) context also split.
        assert_eq!(ctx.num_contexts_of(caller), 1);
        assert!(ctx.ctx_chain(caller, 0).is_empty());
        let prx = ctx.points_to_in(caller, 0, rx).unwrap();
        assert_eq!(prx.objects.iter().copied().collect::<Vec<_>>(), vec![xo]);
        // Projection over all contexts refines the insensitive relation.
        let proj = ctx.projected(id, pf).unwrap();
        assert!(proj.objects.is_subset(&base.points_to(id, pf).objects));
    }

    #[test]
    fn one_cfa_recursive_scc_keeps_one_context_per_external_site() {
        let mut m = Module::new("m");
        // rec(p) { rec(p); return p; } — a one-function SCC.
        let rec_id = FuncId(0);
        let mut cb = FunctionBuilder::new("rec", vec![Ty::ptr(Ty::I64)], Ty::ptr(Ty::I64));
        let p = cb.func().arg(0);
        let _inner = cb.call(rec_id, vec![p], Ty::ptr(Ty::I64));
        cb.ret(Some(p));
        assert_eq!(m.add_function(cb.finish()), rec_id);
        let mut b = FunctionBuilder::new("caller", vec![], Ty::Void);
        let x = b.alloca(Ty::I64);
        let y = b.alloca(Ty::I64);
        let rx = b.call(rec_id, vec![x], Ty::ptr(Ty::I64));
        let _ry = b.call(rec_id, vec![y], Ty::ptr(Ty::I64));
        b.ret(None);
        let caller = m.add_function(b.finish());
        let base = PointsTo::analyze(&m);
        let ctx = CtxSolve::analyze(&m, &base, CtxPolicy::KCfa(1));
        // The recursive self-call inherits its caller's context instead of
        // spawning new ones: exactly the two external sites remain.
        assert!(!ctx.is_fallback());
        assert_eq!(ctx.num_contexts_of(rec_id), 2);
        // Still sound (⊆ insensitive) and still precise per context.
        let proj = ctx.projected(rec_id, p).unwrap();
        assert!(proj.objects.is_subset(&base.points_to(rec_id, p).objects));
        let xo = *base.points_to(caller, x).objects.iter().next().unwrap();
        let prx = ctx.points_to_in(caller, 0, rx).unwrap();
        assert_eq!(prx.objects.iter().copied().collect::<Vec<_>>(), vec![xo]);
    }
}
