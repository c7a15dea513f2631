//! # pythia-analysis — the paper's compiler analyses
//!
//! Implements the static machinery of "Pythia: Compiler-Guided Defense
//! Against Non-Control Data Attacks" (ASPLOS 2024):
//!
//! - [`mod@cfg`] — orderings, dominators, post-dominators,
//!   control dependence, natural-loop depths;
//! - [`callgraph`] — direct/indirect call edges, reachability, Tarjan SCC
//!   recursion detection;
//! - [`dataflow`] — a generic forward/backward worklist solver every
//!   fixpoint analysis (and the lint rules) is built on;
//! - [`defuse`] — SSA def-use chains (Definition 2.2);
//! - [`reaching`] — flow-sensitive reaching stores (DFI's def-set
//!   precision and the lint's DFI-01 cross-check);
//! - [`alias`] — module-wide Andersen-style points-to analysis with
//!   field-sensitive abstract objects (and a field-insensitive mode
//!   modeling DFI's coarser view);
//! - [`summary`] — the summary-based k-CFA context layer over that
//!   relation, with flow-sensitive strong updates;
//! - [`interval`] — value-range dataflow proving variable-index accesses
//!   in-bounds along all paths;
//! - [`reach`] — overflow-reachability: which objects an attacker-driven
//!   overflow-capable write can corrupt (drives obligation pruning);
//! - [`channels`] — input-channel discovery & the six categories
//!   (Definition 2.1, Fig. 5b);
//! - [`slicing`] — *branch decomposition* (backward slices, Alg. 1) and
//!   *input channel construction* (forward slices), with a DFI mode that
//!   terminates at pointer arithmetic / field accesses;
//! - [`vulnerability`] — the vulnerable-variable sets (CPA vs refined
//!   Pythia), stack/heap classification, branch-security and
//!   attack-distance metrics (Definition 2.4).
//!
//! # Examples
//!
//! ```
//! use pythia_ir::{FunctionBuilder, Module, Ty, CmpPred, Intrinsic};
//! use pythia_analysis::{SliceContext, SliceMode, VulnerabilityReport};
//!
//! // if (buf[0] > 0) ...   where buf is written by gets()
//! let mut m = Module::new("demo");
//! let mut b = FunctionBuilder::new("f", vec![], Ty::I64);
//! let buf = b.alloca(Ty::array(Ty::I64, 4));
//! b.call_intrinsic(Intrinsic::Gets, vec![buf], Ty::ptr(Ty::I8));
//! let zero = b.const_i64(0);
//! let p = b.gep(buf, zero);
//! let v = b.load(p);
//! let c = b.icmp(CmpPred::Sgt, v, zero);
//! let (t, e) = (b.new_block("t"), b.new_block("e"));
//! b.br(c, t, e);
//! b.switch_to(t); b.ret(Some(v));
//! b.switch_to(e); b.ret(Some(zero));
//! let fid = m.add_function(b.finish());
//!
//! let ctx = SliceContext::new(&m);
//! let br = ctx.branches_in(fid)[0];
//! let slice = ctx.backward_slice(fid, br, SliceMode::Pythia);
//! assert!(slice.ic_affected());
//!
//! let report = VulnerabilityReport::analyze(&ctx);
//! assert_eq!(report.num_stack_vulns(), 1);
//! ```

#![warn(missing_docs)]

pub mod alias;
pub mod callgraph;
pub mod cfg;
pub mod channels;
pub mod dataflow;
pub mod defuse;
pub mod interval;
pub mod reach;
pub mod reaching;
pub mod slicing;
pub mod summary;
pub mod vulnerability;

pub use alias::{MemObjectKind, ObjId, ObjSet, PointsTo, Precision};
pub use callgraph::CallGraph;
pub use cfg::{
    back_edges, control_dependence, loop_depths, reverse_postorder, Dominators, PostDominators,
};
pub use channels::{IcSite, InputChannels};
pub use dataflow::{solve, DataflowAnalysis, Direction, SolveResult};
pub use defuse::DefUse;
pub use interval::{index_in_bounds, value_ranges, value_ranges_seeded, Interval, ValueRanges};
pub use reach::{object_byte_size, OverflowReach, ProofAnswer};
pub use reaching::ReachingStores;
pub use slicing::{BackwardSlice, ForwardSlice, SliceContext, SliceMode};
pub use summary::{opt02_equivalence, CtxPolicy, CtxSolve, CtxStats, CTX_NODE_BUDGET};
pub use vulnerability::{
    BranchInfo, HeapVuln, IcEffect, PrunedObligations, StackVuln, VulnerabilityReport,
};
