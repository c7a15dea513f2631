//! A generic forward/backward worklist dataflow solver.
//!
//! Every fixpoint analysis in this crate (reaching stores, intervals) and
//! the protection-invariant linter built on top of it share the same
//! skeleton: facts drawn from a finite-height lattice, a monotone
//! per-block transfer function, and Kildall's worklist iteration over the
//! CFG. This module factors that skeleton out once so each client only
//! states its lattice and transfer function.
//!
//! # Lattice & termination
//!
//! A client supplies:
//!
//! - a *fact* type with equality (the lattice elements),
//! - [`DataflowAnalysis::top`], the optimistic starting fact for interior
//!   blocks,
//! - [`DataflowAnalysis::boundary`], the fact holding at the CFG boundary
//!   (function entry for forward analyses; each exiting block for
//!   backward analyses),
//! - [`DataflowAnalysis::meet`], combining facts where paths join,
//! - [`DataflowAnalysis::transfer`], pushing a fact through one block.
//!
//! Termination is the standard argument: if the fact lattice has finite
//! height (every chain of strictly descending facts is finite — true for
//! the powerset lattices used here, whose height is the number of values
//! in the function) and `transfer` is monotone with respect to the order
//! induced by `meet`, each block's fact can only move down the lattice a
//! bounded number of times, so the worklist drains. The solver
//! additionally carries a generous iteration fuse ([`SolveResult::converged`])
//! so a buggy non-monotone client degrades into a detectable
//! non-convergence instead of an infinite loop.

use crate::cfg::reverse_postorder;
use pythia_ir::{BlockId, Function};

/// Which way facts flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Facts flow from function entry toward the exits.
    Forward,
    /// Facts flow from the exits toward function entry.
    Backward,
}

/// A dataflow problem: lattice + transfer function over one [`Function`].
pub trait DataflowAnalysis {
    /// Lattice element. Equality is how the solver detects the fixpoint.
    type Fact: Clone + PartialEq;

    /// Which way facts flow.
    fn direction(&self) -> Direction;

    /// The fact at the CFG boundary: the entry of the entry block for
    /// forward analyses, or the exit of `bb` (a block whose terminator
    /// leaves the function) for backward analyses.
    fn boundary(&self, f: &Function, bb: BlockId) -> Self::Fact;

    /// The optimistic initial fact for interior program points.
    fn top(&self, f: &Function) -> Self::Fact;

    /// Combine two facts where control-flow paths join.
    fn meet(&self, a: &Self::Fact, b: &Self::Fact) -> Self::Fact;

    /// Push `fact` through block `bb`: for forward analyses `fact` holds
    /// at the block's entry and the result at its exit; for backward
    /// analyses `fact` holds at the block's exit and the result at its
    /// entry.
    fn transfer(&self, f: &Function, bb: BlockId, fact: &Self::Fact) -> Self::Fact;

    /// Adjust a fact as it crosses the CFG edge `from -> to` (called with
    /// the flow-source block's post-transfer fact). The default is the
    /// identity; the interval analysis overrides this to refine facts
    /// by the branch condition an edge is taken under.
    fn edge(&self, _f: &Function, _from: BlockId, _to: BlockId, fact: &Self::Fact) -> Self::Fact {
        fact.clone()
    }
}

/// The fixpoint the solver reached.
#[derive(Debug, Clone)]
pub struct SolveResult<F> {
    /// Per-block fact on the side facts flow *in from*: block entry for
    /// forward analyses, block exit for backward analyses.
    pub input: Vec<F>,
    /// Per-block fact after [`DataflowAnalysis::transfer`]: block exit
    /// for forward analyses, block entry for backward analyses.
    pub output: Vec<F>,
    /// Whether the worklist drained before the iteration fuse blew. Only
    /// a non-monotone transfer function can make this `false`.
    pub converged: bool,
}

impl<F> SolveResult<F> {
    /// Fact on the flow-input side of `bb` (entry for forward, exit for
    /// backward).
    pub fn input(&self, bb: BlockId) -> &F {
        &self.input[bb.0 as usize]
    }

    /// Fact on the flow-output side of `bb` (exit for forward, entry for
    /// backward).
    pub fn output(&self, bb: BlockId) -> &F {
        &self.output[bb.0 as usize]
    }
}

/// Run `analysis` over `f` to a fixpoint with a worklist seeded in
/// (reverse) reverse-postorder, so acyclic flow converges in one sweep.
pub fn solve<A: DataflowAnalysis>(f: &Function, analysis: &A) -> SolveResult<A::Fact> {
    let nb = f.num_blocks();
    let dir = analysis.direction();

    // Flow-order neighbor maps: `sources[b]` feeds b, `sinks[b]` is fed
    // by b. For forward flow these are predecessors/successors; for
    // backward flow, the reverse.
    let preds = f.predecessors();
    let succs: Vec<Vec<BlockId>> = f.block_ids().map(|bb| f.successors(bb)).collect();
    let (sources, sinks) = match dir {
        Direction::Forward => (&preds, &succs),
        Direction::Backward => (&succs, &preds),
    };

    // Boundary blocks: where the analysis starts.
    let entry = f.entry();
    let is_boundary = |bb: BlockId| match dir {
        Direction::Forward => bb == entry,
        Direction::Backward => succs[bb.0 as usize].is_empty(),
    };

    let mut input: Vec<A::Fact> = f
        .block_ids()
        .map(|bb| {
            if is_boundary(bb) {
                analysis.boundary(f, bb)
            } else {
                analysis.top(f)
            }
        })
        .collect();
    let mut output: Vec<A::Fact> = f
        .block_ids()
        .map(|bb| analysis.transfer(f, bb, &input[bb.0 as usize]))
        .collect();

    // Seed the worklist in flow order: RPO for forward, reverse RPO for
    // backward (a good linearization of the reversed CFG for the
    // reducible CFGs the builder produces).
    let mut order = reverse_postorder(f);
    if dir == Direction::Backward {
        order.reverse();
    }
    // Unreachable blocks still get facts (initialized above) but are not
    // re-queued by neighbors of reachable ones; include them in the seed
    // so their transfer output stabilizes too.
    for bb in f.block_ids() {
        if !order.contains(&bb) {
            order.push(bb);
        }
    }

    let mut on_list = vec![true; nb];
    let mut worklist: std::collections::VecDeque<BlockId> = order.into();

    // Fuse: each block may be revisited at most lattice-height times; a
    // powerset lattice over the function's values bounds that by
    // `num_values + 2`. Anything past this indicates non-monotonicity.
    let mut fuel = (nb.max(1)) * (f.num_values() + 2) * 4 + 64;
    let mut converged = true;

    while let Some(bb) = worklist.pop_front() {
        on_list[bb.0 as usize] = false;
        if fuel == 0 {
            converged = false;
            break;
        }
        fuel -= 1;

        // Recompute the input-side fact from the flow sources.
        let new_in = if is_boundary(bb) && sources[bb.0 as usize].is_empty() {
            analysis.boundary(f, bb)
        } else {
            let mut acc: Option<A::Fact> = if is_boundary(bb) {
                // A boundary block with sources (e.g. a backward exit
                // block that is also a loop participant) meets the
                // boundary fact with its incoming facts.
                Some(analysis.boundary(f, bb))
            } else {
                None
            };
            for &src in &sources[bb.0 as usize] {
                let (from, to) = match dir {
                    Direction::Forward => (src, bb),
                    Direction::Backward => (bb, src),
                };
                let contrib = analysis.edge(f, from, to, &output[src.0 as usize]);
                acc = Some(match acc {
                    None => contrib,
                    Some(a) => analysis.meet(&a, &contrib),
                });
            }
            acc.unwrap_or_else(|| analysis.top(f))
        };

        let new_out = analysis.transfer(f, bb, &new_in);
        let changed = new_in != input[bb.0 as usize] || new_out != output[bb.0 as usize];
        input[bb.0 as usize] = new_in;
        if changed {
            output[bb.0 as usize] = new_out;
            for &sink in &sinks[bb.0 as usize] {
                if !on_list[sink.0 as usize] {
                    on_list[sink.0 as usize] = true;
                    worklist.push_back(sink);
                }
            }
        }
    }

    SolveResult {
        input,
        output,
        converged,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pythia_ir::{CmpPred, FunctionBuilder, Ty, ValueId};
    use std::collections::BTreeSet;

    /// Forward must-analysis: the set of i64 constants stored to *some*
    /// slot on every path so far (a toy, but exercises meet=intersection
    /// plus loops).
    struct StoredConsts;

    impl DataflowAnalysis for StoredConsts {
        type Fact = Option<BTreeSet<ValueId>>; // None = top (unvisited)

        fn direction(&self) -> Direction {
            Direction::Forward
        }
        fn boundary(&self, _f: &Function, _bb: BlockId) -> Self::Fact {
            Some(BTreeSet::new())
        }
        fn top(&self, _f: &Function) -> Self::Fact {
            None
        }
        fn meet(&self, a: &Self::Fact, b: &Self::Fact) -> Self::Fact {
            match (a, b) {
                (None, x) | (x, None) => x.clone(),
                (Some(a), Some(b)) => Some(a.intersection(b).copied().collect()),
            }
        }
        fn transfer(&self, f: &Function, bb: BlockId, fact: &Self::Fact) -> Self::Fact {
            let mut out = fact.clone()?;
            for &iv in &f.block(bb).insts {
                if let Some(pythia_ir::Inst::Store { value, .. }) = f.inst(iv) {
                    out.insert(*value);
                }
            }
            Some(out)
        }
    }

    #[test]
    fn forward_must_meet_is_path_intersection() {
        // entry stores `one`; only the then-arm stores `two`; the join
        // must keep `one` and drop `two`.
        let mut b = FunctionBuilder::new("f", vec![Ty::I64], Ty::I64);
        let t = b.new_block("t");
        let e = b.new_block("e");
        let j = b.new_block("j");
        let slot = b.alloca(Ty::I64);
        let one = b.const_i64(1);
        b.store(one, slot);
        let x = b.func().arg(0);
        let zero = b.const_i64(0);
        let c = b.icmp(CmpPred::Sgt, x, zero);
        b.br(c, t, e);
        b.switch_to(t);
        let two = b.const_i64(2);
        b.store(two, slot);
        b.jmp(j);
        b.switch_to(e);
        b.jmp(j);
        b.switch_to(j);
        let v = b.load(slot);
        b.ret(Some(v));
        let f = b.finish();

        let sol = solve(&f, &StoredConsts);
        assert!(sol.converged);
        let at_join = sol.input(BlockId(3)).as_ref().unwrap();
        assert!(at_join.contains(&one));
        assert!(!at_join.contains(&two));
        let in_then = sol.output(BlockId(1)).as_ref().unwrap();
        assert!(in_then.contains(&two));
    }

    #[test]
    fn loops_reach_a_fixpoint() {
        // entry -> head; head -> body | exit; body -> head (stores `one`).
        // The loop head's input must settle at the intersection {} on the
        // first entry path vs {one} around the back edge -> {}.
        let mut b = FunctionBuilder::new("f", vec![Ty::I64], Ty::I64);
        let head = b.new_block("head");
        let body = b.new_block("body");
        let exit = b.new_block("exit");
        let slot = b.alloca(Ty::I64);
        b.jmp(head);
        b.switch_to(head);
        let x = b.func().arg(0);
        let zero = b.const_i64(0);
        let c = b.icmp(CmpPred::Sgt, x, zero);
        b.br(c, body, exit);
        b.switch_to(body);
        let one = b.const_i64(1);
        b.store(one, slot);
        b.jmp(head);
        b.switch_to(exit);
        b.ret(Some(zero));
        let f = b.finish();

        let sol = solve(&f, &StoredConsts);
        assert!(sol.converged);
        let at_head = sol.input(BlockId(1)).as_ref().unwrap();
        assert!(at_head.is_empty(), "entry path has stored nothing");
        let at_exit = sol.input(BlockId(3)).as_ref().unwrap();
        assert!(at_exit.is_empty());
    }
}
