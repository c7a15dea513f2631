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
//! - [`DataflowAnalysis::meet_into`], combining facts where paths join,
//! - [`DataflowAnalysis::transfer_into`], pushing a fact through one block.
//!
//! Both work in place on a fact the solver owns, so a client whose fact
//! is a flat vector reuses its storage from visit to visit instead of
//! allocating a fresh fact per join and per block.
//!
//! Termination is the standard argument: if the fact lattice has finite
//! height (every chain of strictly descending facts is finite — true for
//! the powerset lattices used here, whose height is their element count)
//! and `transfer` is monotone with respect to the order induced by
//! `meet`, each block's fact can only move down the lattice a bounded
//! number of times, so the worklist drains. The client states that bound
//! ([`DataflowAnalysis::height`]) and the solver holds it to it: the
//! first block whose input-side fact changes once more than the height
//! allows ends the solve with [`SolveResult::converged`] `false`. No
//! monotone client can trip this, so the bound costs a correct solve
//! nothing, while a buggy non-monotone one (say, facts that grow on every
//! visit) stops after at most `1 + sources × height` visits to any block:
//! a block is queued again only when one of its flow sources changed.

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

    /// How many times the fact on one block's flow-input side can
    /// strictly change over a monotone solve of `f`: the height of the
    /// part of the lattice the solve walks (a powerset's element count).
    /// A block whose fact changes once more ends the solve unconverged,
    /// so this must be an upper bound, never an estimate.
    fn height(&self, f: &Function) -> usize;

    /// Which way facts flow.
    fn direction(&self) -> Direction;

    /// The fact at the CFG boundary: the entry of the entry block for
    /// forward analyses, or the exit of `bb` (a block whose terminator
    /// leaves the function) for backward analyses.
    fn boundary(&self, f: &Function, bb: BlockId) -> Self::Fact;

    /// The optimistic initial fact for interior program points.
    fn top(&self, f: &Function) -> Self::Fact;

    /// Combine `other` into `acc` where control-flow paths join.
    fn meet_into(&self, acc: &mut Self::Fact, other: &Self::Fact);

    /// Push `fact` through block `bb` into `out`: for forward analyses
    /// `fact` holds at the block's entry and `out` receives its exit; for
    /// backward analyses `fact` holds at the block's exit and `out`
    /// receives its entry. `out` holds a stale fact whose storage may be
    /// reused; every bit of it must be overwritten.
    fn transfer_into(&self, f: &Function, bb: BlockId, fact: &Self::Fact, out: &mut Self::Fact);

    /// Adjust, in place, a fact crossing the CFG edge `from -> to` (it
    /// starts as the flow-source block's post-transfer fact). The default
    /// is the identity; the interval analysis overrides this to refine
    /// facts by the branch condition an edge is taken under.
    fn edge(&self, _f: &Function, _from: BlockId, _to: BlockId, _fact: &mut Self::Fact) {}
}

/// The fixpoint the solver reached.
#[derive(Debug, Clone)]
pub struct SolveResult<F> {
    /// Per-block fact on the side facts flow *in from*: block entry for
    /// forward analyses, block exit for backward analyses.
    pub input: Vec<F>,
    /// Per-block fact after [`DataflowAnalysis::transfer_into`]: block
    /// exit for forward analyses, block entry for backward analyses.
    pub output: Vec<F>,
    /// Whether the worklist drained before some block's fact changed
    /// more often than [`DataflowAnalysis::height`] allows. Only a
    /// non-monotone client (or one that understates its height) can make
    /// this `false`.
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

/// Per-block neighbour lists in one flat array: the neighbours of block
/// `b` are `blocks[start[b]..start[b + 1]]`.
struct Adjacency {
    start: Vec<u32>,
    blocks: Vec<BlockId>,
}

impl Adjacency {
    fn of(&self, bb: BlockId) -> &[BlockId] {
        let b = bb.0 as usize;
        &self.blocks[self.start[b] as usize..self.start[b + 1] as usize]
    }
}

/// Successor and predecessor lists of `f`. Each block's predecessors are
/// in ascending block order (a block branching twice to the same target
/// is listed twice), the order [`Function::predecessors`] gives.
fn adjacency(f: &Function) -> (Adjacency, Adjacency) {
    let nb = f.num_blocks();
    let mut succs = Adjacency {
        start: Vec::with_capacity(nb + 1),
        blocks: Vec::with_capacity(2 * nb),
    };
    let mut indegree = vec![0u32; nb + 1];
    succs.start.push(0);
    for bb in f.block_ids() {
        for s in f.successors(bb) {
            succs.blocks.push(s);
            indegree[s.0 as usize + 1] += 1;
        }
        succs.start.push(succs.blocks.len() as u32);
    }
    for b in 0..nb {
        indegree[b + 1] += indegree[b];
    }
    let mut fill = indegree.clone();
    let mut blocks = vec![BlockId(0); succs.blocks.len()];
    for bb in f.block_ids() {
        for &s in succs.of(bb) {
            let slot = &mut fill[s.0 as usize];
            blocks[*slot as usize] = bb;
            *slot += 1;
        }
    }
    let preds = Adjacency {
        start: indegree,
        blocks,
    };
    (succs, preds)
}

/// Run `analysis` over `f` to a fixpoint with a worklist seeded in
/// (reverse) reverse-postorder, so acyclic flow converges in one sweep.
pub fn solve<A: DataflowAnalysis>(f: &Function, analysis: &A) -> SolveResult<A::Fact> {
    let nb = f.num_blocks();
    let dir = analysis.direction();

    // Flow-order neighbor lists: `sources` feed a block, `sinks` are fed
    // by it. For forward flow these are predecessors/successors; for
    // backward flow, the reverse.
    let (succs, preds) = adjacency(f);
    let (sources, sinks) = match dir {
        Direction::Forward => (&preds, &succs),
        Direction::Backward => (&succs, &preds),
    };

    // Boundary blocks: where the analysis starts.
    let entry = f.entry();
    let is_boundary = |bb: BlockId| match dir {
        Direction::Forward => bb == entry,
        Direction::Backward => succs.of(bb).is_empty(),
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
        .map(|bb| {
            let mut out = analysis.top(f);
            analysis.transfer_into(f, bb, &input[bb.0 as usize], &mut out);
            out
        })
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
    let mut seen = vec![false; nb];
    for &bb in &order {
        seen[bb.0 as usize] = true;
    }
    for bb in f.block_ids() {
        if !seen[bb.0 as usize] {
            order.push(bb);
        }
    }

    let mut on_list = vec![true; nb];
    let mut worklist: std::collections::VecDeque<BlockId> = order.into();

    let height = analysis.height(f);
    let mut changes = vec![0usize; nb];
    let mut converged = true;

    // Scratch facts, reused across visits: a visit swaps its results into
    // `input`/`output` and keeps the displaced facts' storage here.
    let mut new_in = analysis.top(f);
    let mut new_out = analysis.top(f);
    let mut contrib = analysis.top(f);

    while let Some(bb) = worklist.pop_front() {
        let b = bb.0 as usize;
        on_list[b] = false;

        // Recompute the input-side fact from the flow sources. A boundary
        // block with sources (e.g. a backward exit block that is also a
        // loop participant) meets the boundary fact with its incoming
        // facts; a block with neither keeps the optimistic top.
        let mut have = is_boundary(bb);
        if have {
            new_in = analysis.boundary(f, bb);
        }
        for &src in sources.of(bb) {
            let (from, to) = match dir {
                Direction::Forward => (src, bb),
                Direction::Backward => (bb, src),
            };
            let s = src.0 as usize;
            if have {
                contrib.clone_from(&output[s]);
                analysis.edge(f, from, to, &mut contrib);
                analysis.meet_into(&mut new_in, &contrib);
            } else {
                new_in.clone_from(&output[s]);
                analysis.edge(f, from, to, &mut new_in);
                have = true;
            }
        }
        if !have {
            new_in = analysis.top(f);
        }

        analysis.transfer_into(f, bb, &new_in, &mut new_out);
        // `output[b]` is always the transfer of `input[b]`, so a change
        // here is a change of the input-side fact.
        let changed = new_in != input[b] || new_out != output[b];
        if changed {
            if changes[b] == height {
                converged = false;
                break;
            }
            changes[b] += 1;
        }
        std::mem::swap(&mut input[b], &mut new_in);
        if changed {
            std::mem::swap(&mut output[b], &mut new_out);
            for &sink in sinks.of(bb) {
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
        /// `None`, then shrinking sets of stored values.
        fn height(&self, f: &Function) -> usize {
            f.num_values() + 1
        }
        fn meet_into(&self, acc: &mut Self::Fact, other: &Self::Fact) {
            match (acc.as_mut(), other) {
                (_, None) => {}
                (None, Some(_)) => acc.clone_from(other),
                (Some(a), Some(b)) => a.retain(|v| b.contains(v)),
            }
        }
        fn transfer_into(
            &self,
            f: &Function,
            bb: BlockId,
            fact: &Self::Fact,
            out: &mut Self::Fact,
        ) {
            out.clone_from(fact);
            let Some(out) = out else { return };
            for &iv in &f.block(bb).insts {
                if let Some(pythia_ir::Inst::Store { value, .. }) = f.inst(iv) {
                    out.insert(*value);
                }
            }
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
    fn adjacency_lists_match_the_function_cfg() {
        // entry -> (head, head): a branch whose arms coincide is listed
        // twice; head -> (body | exit); body -> head.
        let mut b = FunctionBuilder::new("f", vec![Ty::I64], Ty::I64);
        let head = b.new_block("head");
        let body = b.new_block("body");
        let exit = b.new_block("exit");
        let x = b.func().arg(0);
        let zero = b.const_i64(0);
        let c = b.icmp(CmpPred::Sgt, x, zero);
        b.br(c, head, head);
        b.switch_to(head);
        b.br(c, body, exit);
        b.switch_to(body);
        b.jmp(head);
        b.switch_to(exit);
        b.ret(Some(zero));
        let f = b.finish();

        let (succs, preds) = adjacency(&f);
        let fpreds = f.predecessors();
        for bb in f.block_ids() {
            assert_eq!(succs.of(bb), &*f.successors(bb));
            assert_eq!(preds.of(bb), fpreds[bb.0 as usize].as_slice());
        }
        assert_eq!(preds.of(BlockId(1)), [BlockId(0), BlockId(0), BlockId(2)]);
    }

    /// A non-monotone client: the meet keeps duplicates, so the loop
    /// head's fact grows on every visit and never settles. It counts its
    /// transfers.
    struct GrowingFacts {
        transfers: std::cell::Cell<u32>,
    }

    impl DataflowAnalysis for GrowingFacts {
        type Fact = Vec<BlockId>;

        fn direction(&self) -> Direction {
            Direction::Forward
        }
        fn boundary(&self, _f: &Function, bb: BlockId) -> Self::Fact {
            vec![bb]
        }
        fn top(&self, _f: &Function) -> Self::Fact {
            Vec::new()
        }
        /// What a set of blocks would allow; the duplicates overrun it.
        fn height(&self, f: &Function) -> usize {
            f.num_blocks()
        }
        fn meet_into(&self, acc: &mut Self::Fact, other: &Self::Fact) {
            acc.extend_from_slice(other);
        }
        fn transfer_into(
            &self,
            _f: &Function,
            bb: BlockId,
            fact: &Self::Fact,
            out: &mut Self::Fact,
        ) {
            self.transfers.set(self.transfers.get() + 1);
            out.clone_from(fact);
            out.push(bb);
        }
    }

    #[test]
    fn a_growing_client_stops_unconverged_within_its_height() {
        // entry -> head; head -> body | exit; body -> head. The body's 300
        // constants make the client's height, not the function's value
        // count, what bounds the visits.
        let mut b = FunctionBuilder::new("f", vec![Ty::I64], Ty::I64);
        let head = b.new_block("head");
        let body = b.new_block("body");
        let exit = b.new_block("exit");
        b.jmp(head);
        b.switch_to(head);
        let x = b.func().arg(0);
        let zero = b.const_i64(0);
        let c = b.icmp(CmpPred::Sgt, x, zero);
        b.br(c, body, exit);
        b.switch_to(body);
        for k in 1..=300 {
            b.const_i64(k);
        }
        b.jmp(head);
        b.switch_to(exit);
        b.ret(Some(zero));
        let f = b.finish();

        let client = GrowingFacts {
            transfers: std::cell::Cell::new(0),
        };
        let sol = solve(&f, &client);
        assert!(!sol.converged);
        // One initial transfer per block, then at most `1 + sources ×
        // height` visits to each; the head and body take turns until the
        // head's fact has changed `height + 1` times.
        let height = client.height(&f);
        let (_, preds) = adjacency(&f);
        let bound: usize = f
            .block_ids()
            .map(|bb| 2 + preds.of(bb).len() * height)
            .sum();
        let transfers = client.transfers.get() as usize;
        assert!(transfers <= bound, "{transfers} transfers, bound {bound}");
        assert!(transfers >= 2 * height, "{transfers} transfers");
        // The head's fact grew by a few entries per visit, so the height
        // also bounds the memory a runaway client takes.
        let grown = sol.input(BlockId(1)).len();
        assert!(grown <= 4 * (height + 2), "{grown} entries");
    }

    /// Forward client that counts visits per block: reaching sets of the
    /// stores in `f`, meet = union.
    struct CountingReach {
        visits: std::cell::RefCell<Vec<usize>>,
    }

    impl DataflowAnalysis for CountingReach {
        type Fact = BTreeSet<ValueId>;

        fn direction(&self) -> Direction {
            Direction::Forward
        }
        fn boundary(&self, _f: &Function, _bb: BlockId) -> Self::Fact {
            BTreeSet::new()
        }
        fn top(&self, _f: &Function) -> Self::Fact {
            BTreeSet::new()
        }
        fn height(&self, f: &Function) -> usize {
            f.value_ids()
                .filter(|&v| matches!(f.inst(v), Some(pythia_ir::Inst::Store { .. })))
                .count()
        }
        fn meet_into(&self, acc: &mut Self::Fact, other: &Self::Fact) {
            acc.extend(other.iter().copied());
        }
        fn transfer_into(
            &self,
            f: &Function,
            bb: BlockId,
            fact: &Self::Fact,
            out: &mut Self::Fact,
        ) {
            self.visits.borrow_mut()[bb.0 as usize] += 1;
            out.clone_from(fact);
            for &iv in &f.block(bb).insts {
                if let Some(pythia_ir::Inst::Store { .. }) = f.inst(iv) {
                    out.insert(iv);
                }
            }
        }
    }

    #[test]
    fn a_deep_loop_nest_with_stores_in_every_latch_converges() {
        // Ten nested loops; each latch stores to its own slot before
        // jumping back to its head, so the outermost head learns a new
        // store at every back edge crossing. A cap fitted to shallow
        // modules would cut this solve short; the height cannot.
        const DEPTH: usize = 10;
        let mut b = FunctionBuilder::new("nest", vec![Ty::I64], Ty::I64);
        let x = b.func().arg(0);
        let zero = b.const_i64(0);
        let c = b.icmp(CmpPred::Sgt, x, zero);
        let slots: Vec<ValueId> = (0..DEPTH).map(|_| b.alloca(Ty::I64)).collect();
        let heads: Vec<BlockId> = (0..DEPTH).map(|i| b.new_block(format!("h{i}"))).collect();
        let latches: Vec<BlockId> = (0..DEPTH).map(|i| b.new_block(format!("l{i}"))).collect();
        let inner = b.new_block("inner");
        let exit = b.new_block("exit");
        b.jmp(heads[0]);
        for i in 0..DEPTH {
            // h_i -> h_{i+1} (or the innermost body) | the enclosing latch
            // (or the exit).
            b.switch_to(heads[i]);
            let next = if i + 1 < DEPTH { heads[i + 1] } else { inner };
            let out = if i == 0 { exit } else { latches[i - 1] };
            b.br(c, next, out);
        }
        b.switch_to(inner);
        b.jmp(latches[DEPTH - 1]);
        let mut stores = Vec::new();
        for i in 0..DEPTH {
            b.switch_to(latches[i]);
            let v = b.const_i64(i as i64 + 1);
            stores.push(b.store(v, slots[i]));
            b.jmp(heads[i]);
        }
        b.switch_to(exit);
        b.ret(Some(zero));
        let f = b.finish();

        let client = CountingReach {
            visits: std::cell::RefCell::new(vec![0; f.num_blocks()]),
        };
        let sol = solve(&f, &client);
        assert!(sol.converged);
        let all: BTreeSet<ValueId> = stores.iter().copied().collect();
        for &h in &heads {
            assert_eq!(sol.input(h), &all);
        }
        assert_eq!(sol.input(exit), &all);
        // The outer head needs more visits than any suite function gives
        // a block (at most 2), yet far fewer than its bound.
        let visits = client.visits.borrow();
        let outer = visits[heads[0].0 as usize] - 1;
        assert!(outer > 2, "{outer} visits");
        assert!(outer <= 1 + 2 * client.height(&f), "{outer} visits");
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
