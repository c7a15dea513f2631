//! Test-only reference: the worklist solver as it was before facts were
//! combined in place — a fresh fact per edge, per join and per block
//! visit, neighbour lists as per-block `Vec`s. The differential tests in
//! `interval` and `reaching` run their reference copies on it and demand
//! answers identical to the in-place solver's. Delete this module with
//! those copies once the gates have held through one more change.

use super::{Direction, SolveResult};
use crate::cfg::reverse_postorder;
use pythia_ir::{BlockId, Function, Module};

/// The solver's client interface before in-place combination.
pub(crate) trait ReferenceAnalysis {
    type Fact: Clone + PartialEq;

    fn direction(&self) -> Direction;
    fn boundary(&self, f: &Function, bb: BlockId) -> Self::Fact;
    fn top(&self, f: &Function) -> Self::Fact;
    fn meet(&self, a: &Self::Fact, b: &Self::Fact) -> Self::Fact;
    fn transfer(&self, f: &Function, bb: BlockId, fact: &Self::Fact) -> Self::Fact;
    fn edge(&self, _f: &Function, _from: BlockId, _to: BlockId, fact: &Self::Fact) -> Self::Fact {
        fact.clone()
    }
}

pub(crate) fn solve<A: ReferenceAnalysis>(f: &Function, analysis: &A) -> SolveResult<A::Fact> {
    let nb = f.num_blocks();
    let dir = analysis.direction();

    let preds = f.predecessors();
    let succs: Vec<Vec<BlockId>> = f.block_ids().map(|bb| f.successors(bb).to_vec()).collect();
    let (sources, sinks) = match dir {
        Direction::Forward => (&preds, &succs),
        Direction::Backward => (&succs, &preds),
    };

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

    let mut order = reverse_postorder(f);
    if dir == Direction::Backward {
        order.reverse();
    }
    for bb in f.block_ids() {
        if !order.contains(&bb) {
            order.push(bb);
        }
    }

    let mut on_list = vec![true; nb];
    let mut worklist: std::collections::VecDeque<BlockId> = order.into();

    let mut fuel = (nb.max(1)) * (f.num_values() + 2) * 4 + 64;
    let mut converged = true;

    while let Some(bb) = worklist.pop_front() {
        on_list[bb.0 as usize] = false;
        if fuel == 0 {
            converged = false;
            break;
        }
        fuel -= 1;

        let new_in = if is_boundary(bb) && sources[bb.0 as usize].is_empty() {
            analysis.boundary(f, bb)
        } else {
            let mut acc: Option<A::Fact> = if is_boundary(bb) {
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

/// The modules the differential tests compare on: every SPEC-like
/// profile at the smoke tier, plus nginx.
pub(crate) fn smoke_suite() -> Vec<Module> {
    use pythia_workloads::{generate, nginx_module, SizeTier, SPEC_PROFILES};
    let mut modules: Vec<Module> = SPEC_PROFILES
        .iter()
        .map(|p| generate(&p.at_tier(SizeTier::Smoke)))
        .collect();
    modules.push(nginx_module(SizeTier::Smoke.scale_volume(60)));
    modules
}
